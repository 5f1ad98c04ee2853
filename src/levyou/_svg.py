"""Minimal SVG line charts, emitted by hand.

The command line tool only needs simple multi-series line plots, so
rather than pulling in a charting dependency this module writes the
handful of SVG elements itself: a frame, tick marks, polylines and a
legend, each through one element writer, :func:`_tag`.  Every chart is
``_WIDTH`` x ``_HEIGHT`` pixels.  Output is deterministic for identical
input.
"""

from __future__ import annotations

import math
from html import escape

import numpy as np

__all__ = ["line_chart"]

#: Stroke colours cycled across series.
_PALETTE = ("#1f6feb", "#d1242f", "#2da44e", "#9a6700", "#8250df",
            "#bf3989")

_WIDTH = 720
_HEIGHT = 480
_MARGIN_LEFT = 64.0
_MARGIN_RIGHT = 16.0
_MARGIN_TOP = 34.0
_MARGIN_BOTTOM = 46.0


def _fmt(value):
    """Compact coordinate formatting (SVG does not need 17 digits)."""
    return f"{value:.2f}".rstrip("0").rstrip(".")


def _tag(name, text=None, **attrs):
    """One SVG element.  Attributes are written in the order given, ``_``
    in a name as ``-``, numbers through :func:`_fmt`; a ``None`` value is
    left out.  ``text`` is escaped and placed between the tags; without it
    the element closes itself."""
    head = name
    for key, value in attrs.items():
        if value is not None:
            if not isinstance(value, str):
                value = _fmt(value)
            head += f' {key.replace("_", "-")}="{value}"'
    if text is None:
        return f"<{head}/>"
    return f"<{head}>{escape(text, quote=False)}</{name}>"


def _label(text, size, x, y, anchor, transform=None):
    """A text element in the chart's font."""
    return _tag("text", text, x=x, y=y, text_anchor=anchor,
                font_family="sans-serif", font_size=size, transform=transform)


def _data_range(values):
    lo = float(np.min(values))
    hi = float(np.max(values))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("chart data must be finite")
    pad = max(abs(lo), 1.0) * 0.05 if hi - lo < 1e-300 else (hi - lo) * 0.04
    lo, hi = lo - pad, hi + pad
    if not math.isfinite(hi - lo):  # also catches an infinite padded end
        raise ValueError("chart data span overflows a float")
    return lo, hi


def _ticks(lo, hi, count=5):
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def line_chart(series, title, xlabel, ylabel):
    """Render labelled (x, y) series as an SVG document string.

    Parameters
    ----------
    series : sequence of (label, xs, ys)
        Every series needs at least one point; x and y must be finite
        and of equal length, and their padded ranges must span a finite
        float (otherwise ``ValueError``).
    title, xlabel, ylabel : str
        Chart annotations (escaped for XML).
    """
    if not series:
        raise ValueError("need at least one series")
    arrays = []
    for label, xs, ys in series:
        if len(xs) != len(ys) or not len(xs):
            raise ValueError(f"series {label!r} needs matching nonempty x/y")
        arrays.append((label, np.asarray(xs, dtype=np.float64),
                       np.asarray(ys, dtype=np.float64)))
    x_lo, x_hi = _data_range(np.concatenate([xs for _, xs, _ in arrays]))
    y_lo, y_hi = _data_range(np.concatenate([ys for _, _, ys in arrays]))

    left, top = _MARGIN_LEFT, _MARGIN_TOP
    plot_w = _WIDTH - left - _MARGIN_RIGHT
    plot_h = _HEIGHT - top - _MARGIN_BOTTOM
    right, bottom = left + plot_w, top + plot_h

    def sx(x):
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return top + (y_hi - y) / (y_hi - y_lo) * plot_h

    cy = top + plot_h / 2
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        _tag("rect", width=_WIDTH, height=_HEIGHT, fill="white"),
        _tag("rect", x=left, y=top, width=plot_w, height=plot_h, fill="none",
             stroke="#444", stroke_width=1),
        _label(title, 14, _WIDTH / 2, 20, "middle"),
    ]
    # Grid lines with their numeric tick labels.
    for xv in _ticks(x_lo, x_hi):
        px = sx(xv)
        out.append(_tag("line", x1=px, y1=top, x2=px, y2=bottom,
                        stroke="#ddd", stroke_width=1))
        out.append(_label(f"{xv:.6g}", 11, px, bottom + 16, "middle"))
    for yv in _ticks(y_lo, y_hi):
        py = sy(yv)
        out.append(_tag("line", x1=left, y1=py, x2=right, y2=py,
                        stroke="#ddd", stroke_width=1))
        out.append(_label(f"{yv:.6g}", 11, left - 6, py + 4, "end"))
    out.append(_label(xlabel, 12, left + plot_w / 2, _HEIGHT - 10, "middle"))
    out.append(_label(ylabel, 12, 14, cy, "middle",
                      transform=f"rotate(-90 14 {_fmt(cy)})"))

    # The data, one polyline per series, scaled as whole arrays; then the
    # legend, top-right inside the frame.
    for idx, (_, xs, ys) in enumerate(arrays):
        points = " ".join(
            f"{_fmt(px)},{_fmt(py)}"
            for px, py in zip(sx(xs).tolist(), sy(ys).tolist())
        )
        out.append(_tag("polyline", points=points, fill="none",
                        stroke=_PALETTE[idx % len(_PALETTE)],
                        stroke_width=1.6))
    lx = right - 160
    for idx, (label, _, _) in enumerate(series):
        colour = _PALETTE[idx % len(_PALETTE)]
        yy = top + 12 + idx * 16
        out.append(_tag("line", x1=lx, y1=yy - 4, x2=lx + 22, y2=yy - 4,
                        stroke=colour, stroke_width=2))
        out.append(_label(str(label), 11, lx + 28, yy, None))
    out.append("</svg>")
    return "\n".join(out) + "\n"
