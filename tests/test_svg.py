"""Tests for the hand-written SVG line charts."""

import math
import re

import numpy as np
import pytest

from levyou import _svg


def _reference_points(series, width=720, height=480):
    """Polyline point strings of ``series``, scaled one Python float at a
    time by the chart's margins and padded data ranges."""
    xs = [float(v) for _, x, _ in series for v in x]
    ys = [float(v) for _, _, y in series for v in y]
    x_lo, x_hi = _svg._data_range(xs)
    y_lo, y_hi = _svg._data_range(ys)
    plot_w = width - _svg._MARGIN_LEFT - _svg._MARGIN_RIGHT
    plot_h = height - _svg._MARGIN_TOP - _svg._MARGIN_BOTTOM

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
    svg = _svg.line_chart([("one", [1.0, 2.0], [3.0, 3.0])])
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
        _svg.line_chart([("a", list(range(7)), ys)])
    with pytest.raises(ValueError, match="finite"):
        _svg.line_chart([("a", ys, list(range(7)))])


def test_series_need_matching_nonempty_points():
    with pytest.raises(ValueError, match="matching nonempty"):
        _svg.line_chart([("a", [1.0, 2.0], [1.0])])
    with pytest.raises(ValueError, match="at least one series"):
        _svg.line_chart([])
