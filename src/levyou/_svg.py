"""Minimal SVG line charts, emitted by hand.

The command line tool only needs simple multi-series line plots, so
rather than pulling in a charting dependency this module writes the
handful of SVG elements itself: a frame, tick marks, polylines and a
legend.  Output is deterministic for identical input.
"""

from __future__ import annotations

import math
from xml.sax.saxutils import escape

import numpy as np

__all__ = ["line_chart"]

#: Stroke colours cycled across series.
_PALETTE = ("#1f6feb", "#d1242f", "#2da44e", "#9a6700", "#8250df",
            "#bf3989")

_MARGIN_LEFT = 64.0
_MARGIN_RIGHT = 16.0
_MARGIN_TOP = 34.0
_MARGIN_BOTTOM = 46.0


def _fmt(value):
    """Compact coordinate formatting (SVG does not need 17 digits)."""
    return f"{value:.2f}".rstrip("0").rstrip(".")


def _tick_label(value):
    return f"{value:.6g}"


def _data_range(values):
    lo = float(np.min(values))
    hi = float(np.max(values))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("chart data must be finite")
    if hi - lo < 1e-300:
        pad = max(abs(lo), 1.0) * 0.05
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.04
    return lo - pad, hi + pad


def _ticks(lo, hi, count=5):
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def line_chart(series, title="", xlabel="", ylabel="",
               width=720, height=480):
    """Render labelled (x, y) series as an SVG document string.

    Parameters
    ----------
    series : sequence of (label, xs, ys)
        Every series needs at least one point; x and y must be finite
        and of equal length (a NaN or infinity raises ``ValueError``).
    title, xlabel, ylabel : str
        Chart annotations (escaped for XML).
    width, height : int
        Pixel size of the document.
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

    plot_w = width - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = height - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(x):
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return _MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    out = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" '
               f'width="{width}" height="{height}" '
               f'viewBox="0 0 {width} {height}">')
    out.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    out.append(
        f'<rect x="{_fmt(_MARGIN_LEFT)}" y="{_fmt(_MARGIN_TOP)}" '
        f'width="{_fmt(plot_w)}" height="{_fmt(plot_h)}" '
        f'fill="none" stroke="#444" stroke-width="1"/>'
    )
    if title:
        out.append(
            f'<text x="{_fmt(width / 2)}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{escape(title)}</text>'
        )

    # Tick marks, grid lines and numeric labels.
    for xv in _ticks(x_lo, x_hi):
        px = sx(xv)
        out.append(
            f'<line x1="{_fmt(px)}" y1="{_fmt(_MARGIN_TOP)}" '
            f'x2="{_fmt(px)}" y2="{_fmt(_MARGIN_TOP + plot_h)}" '
            f'stroke="#ddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(px)}" y="{_fmt(_MARGIN_TOP + plot_h + 16)}" '
            f'text-anchor="middle" font-family="sans-serif" '
            f'font-size="11">{escape(_tick_label(xv))}</text>'
        )
    for yv in _ticks(y_lo, y_hi):
        py = sy(yv)
        out.append(
            f'<line x1="{_fmt(_MARGIN_LEFT)}" y1="{_fmt(py)}" '
            f'x2="{_fmt(_MARGIN_LEFT + plot_w)}" y2="{_fmt(py)}" '
            f'stroke="#ddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(_MARGIN_LEFT - 6)}" y="{_fmt(py + 4)}" '
            f'text-anchor="end" font-family="sans-serif" '
            f'font-size="11">{escape(_tick_label(yv))}</text>'
        )
    if xlabel:
        out.append(
            f'<text x="{_fmt(_MARGIN_LEFT + plot_w / 2)}" '
            f'y="{_fmt(height - 10)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">'
            f'{escape(xlabel)}</text>'
        )
    if ylabel:
        cy = _MARGIN_TOP + plot_h / 2
        out.append(
            f'<text x="14" y="{_fmt(cy)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 14 {_fmt(cy)})">{escape(ylabel)}</text>'
        )

    # The data, one polyline per series, scaled as whole arrays.
    for idx, (label, xs, ys) in enumerate(arrays):
        colour = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(
            f"{_fmt(px)},{_fmt(py)}"
            for px, py in zip(sx(xs).tolist(), sy(ys).tolist())
        )
        out.append(
            f'<polyline points="{points}" fill="none" stroke="{colour}" '
            f'stroke-width="1.6"/>'
        )

    # Legend, top-right inside the frame.
    lx = _MARGIN_LEFT + plot_w - 160
    ly = _MARGIN_TOP + 12
    for idx, (label, _, _) in enumerate(series):
        colour = _PALETTE[idx % len(_PALETTE)]
        yy = ly + idx * 16
        out.append(
            f'<line x1="{_fmt(lx)}" y1="{_fmt(yy - 4)}" '
            f'x2="{_fmt(lx + 22)}" y2="{_fmt(yy - 4)}" '
            f'stroke="{colour}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{_fmt(lx + 28)}" y="{_fmt(yy)}" '
            f'font-family="sans-serif" font-size="11">'
            f'{escape(str(label))}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
