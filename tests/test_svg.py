"""Tests for the hand-written SVG line charts."""

import math
import re

import numpy as np
import pytest

from levyou import _svg


def _reference_points(series):
    """Polyline point strings of ``series``, scaled one Python float at a
    time by the chart's margins and padded data ranges."""
    xs = [float(v) for _, x, _ in series for v in x]
    ys = [float(v) for _, _, y in series for v in y]
    x_lo, x_hi = _svg._data_range(xs)
    y_lo, y_hi = _svg._data_range(ys)
    plot_w = _svg._WIDTH - _svg._MARGIN_LEFT - _svg._MARGIN_RIGHT
    plot_h = _svg._HEIGHT - _svg._MARGIN_TOP - _svg._MARGIN_BOTTOM

    def point(x, y):
        px = _svg._MARGIN_LEFT + (float(x) - x_lo) / (x_hi - x_lo) * plot_w
        py = _svg._MARGIN_TOP + (y_hi - float(y)) / (y_hi - y_lo) * plot_h
        return f"{_svg._fmt(px)},{_svg._fmt(py)}"

    return [" ".join(point(x, y) for x, y in zip(x_s, y_s))
            for _, x_s, y_s in series]


def test_polylines_match_point_by_point_scaling():
    s = np.linspace(0.0, 7.3, 57)
    series = [("exact", s, np.clip(0.3 - 0.05 * s, 0.0, 0.2)),
              ("merton", s, 0.27 - 0.041 * s),
              ("flat", list(s[:5]), [0.1] * 5)]
    svg = _svg.line_chart(series, title="t", xlabel="x", ylabel="y")
    got = re.findall(r'<polyline points="([^"]*)"', svg)
    assert got == _reference_points(series)


def test_a_flat_series_is_padded():
    svg = _svg.line_chart([("one", [1.0, 2.0], [3.0, 3.0])], "t", "x", "y")
    (points,) = re.findall(r'<polyline points="([^"]*)"', svg)
    assert points == _reference_points([("one", [1.0, 2.0], [3.0, 3.0])])[0]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [0, 3, 6])
def test_non_finite_data_anywhere_raises(bad, where):
    # Python's min and max skip a NaN that is not first; the chart must
    # not draw it.
    ys = [0.5, 0.1, 0.9, 0.2, 0.4, 0.3, 0.7]
    ys[where] = bad
    with pytest.raises(ValueError, match="finite"):
        _svg.line_chart([("a", list(range(7)), ys)], "t", "x", "y")
    with pytest.raises(ValueError, match="finite"):
        _svg.line_chart([("a", ys, list(range(7)))], "t", "x", "y")


def test_a_span_that_overflows_a_float_raises():
    # Each end is finite, but the padded span is not.
    for wide in ([-1e308, 1e308], [0.0, 1.75e308]):
        with pytest.raises(ValueError, match="overflows"):
            _svg.line_chart([("a", wide, [0.0, 1.0])], "t", "x", "y")
        with pytest.raises(ValueError, match="overflows"):
            _svg.line_chart([("a", [0.0, 1.0], wide)], "t", "x", "y")


def test_series_need_matching_nonempty_points():
    with pytest.raises(ValueError, match="matching nonempty"):
        _svg.line_chart([("a", [1.0, 2.0], [1.0])], "t", "x", "y")
    with pytest.raises(ValueError, match="at least one series"):
        _svg.line_chart([], "t", "x", "y")


# A whole document: frame, ticks, labels, escaping, attribute order, legend.
FROZEN_CHART = """\
<svg xmlns="http://www.w3.org/2000/svg" width="720" height="480" viewBox="0 0 720 480">
<rect width="720" height="480" fill="white"/>
<rect x="64" y="34" width="640" height="400" fill="none" stroke="#444" stroke-width="1"/>
<text x="360" y="20" text-anchor="middle" font-family="sans-serif" font-size="14">fraction &lt;&amp;&gt; price</text>
<line x1="64" y1="34" x2="64" y2="434" stroke="#ddd" stroke-width="1"/>
<text x="64" y="450" text-anchor="middle" font-family="sans-serif" font-size="11">-0.04</text>
<line x1="224" y1="34" x2="224" y2="434" stroke="#ddd" stroke-width="1"/>
<text x="224" y="450" text-anchor="middle" font-family="sans-serif" font-size="11">0.23</text>
<line x1="384" y1="34" x2="384" y2="434" stroke="#ddd" stroke-width="1"/>
<text x="384" y="450" text-anchor="middle" font-family="sans-serif" font-size="11">0.5</text>
<line x1="544" y1="34" x2="544" y2="434" stroke="#ddd" stroke-width="1"/>
<text x="544" y="450" text-anchor="middle" font-family="sans-serif" font-size="11">0.77</text>
<line x1="704" y1="34" x2="704" y2="434" stroke="#ddd" stroke-width="1"/>
<text x="704" y="450" text-anchor="middle" font-family="sans-serif" font-size="11">1.04</text>
<line x1="64" y1="434" x2="704" y2="434" stroke="#ddd" stroke-width="1"/>
<text x="58" y="438" text-anchor="end" font-family="sans-serif" font-size="11">-0.064</text>
<line x1="64" y1="334" x2="704" y2="334" stroke="#ddd" stroke-width="1"/>
<text x="58" y="338" text-anchor="end" font-family="sans-serif" font-size="11">0.0305</text>
<line x1="64" y1="234" x2="704" y2="234" stroke="#ddd" stroke-width="1"/>
<text x="58" y="238" text-anchor="end" font-family="sans-serif" font-size="11">0.125</text>
<line x1="64" y1="134" x2="704" y2="134" stroke="#ddd" stroke-width="1"/>
<text x="58" y="138" text-anchor="end" font-family="sans-serif" font-size="11">0.2195</text>
<line x1="64" y1="34" x2="704" y2="34" stroke="#ddd" stroke-width="1"/>
<text x="58" y="38" text-anchor="end" font-family="sans-serif" font-size="11">0.314</text>
<text x="384" y="470" text-anchor="middle" font-family="sans-serif" font-size="12">price s</text>
<text x="14" y="234" text-anchor="middle" font-family="sans-serif" font-size="12" transform="rotate(-90 14 234)">fraction of wealth</text>
<polyline points="87.7,260.46 384,101.72 680.3,154.63" fill="none" stroke="#1f6feb" stroke-width="1.6"/>
<polyline points="87.7,48.81 384,207.54 680.3,419.19" fill="none" stroke="#d1242f" stroke-width="1.6"/>
<line x1="544" y1="42" x2="566" y2="42" stroke="#1f6feb" stroke-width="2"/>
<text x="572" y="46" font-family="sans-serif" font-size="11">exact</text>
<line x1="544" y1="58" x2="566" y2="58" stroke="#d1242f" stroke-width="2"/>
<text x="572" y="62" font-family="sans-serif" font-size="11">merton &amp; co</text>
</svg>
"""


def test_a_whole_chart_document_is_frozen():
    svg = _svg.line_chart(
        [("exact", [0.0, 0.5, 1.0], [0.1, 0.25, 0.2]),
         ("merton & co", [0.0, 0.5, 1.0], [0.3, 0.15, -0.05])],
        title="fraction <&> price", xlabel="price s",
        ylabel="fraction of wealth")
    assert svg == FROZEN_CHART
