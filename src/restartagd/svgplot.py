"""Static SVG rendering of run traces, no plotting library involved.

Two stacked panels over oracle-call count: objective value (linear axis) and
gradient norm (log axis).  The output is a single self-contained SVG string;
long traces are stride-downsampled so files stay small.
"""
from __future__ import annotations

import math
import sys
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .trace import TraceRecord, as_trace

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f",
)

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 74, 24, 34, 50
_PANEL_W, _PANEL_H = 700, 280
_MAX_POINTS = 2000


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _nice_step(span: float, target: int = 5) -> float:
    raw = span / max(target, 1)
    mag = 10.0 ** math.floor(math.log10(raw)) if raw > 0 else 1.0
    return next((mag * mult for mult in (1.0, 2.0, 5.0) if mag * mult >= raw), mag * 10.0)


def _linear_ticks(lo: float, hi: float) -> List[float]:
    if hi <= lo:
        return [lo]
    step = _nice_step(hi - lo)
    ticks = []
    t = math.ceil(lo / step) * step
    while t <= min(hi + 1e-12 * step, sys.float_info.max):   # t ends finite
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        if t + step == t:  # a step under half an ulp of t leaves t where it is
            break
        t += step
    return ticks or [lo, hi]


def _fmt_num(v: float) -> str:
    if v == 0:
        return "0"
    return f"{v:.4g}" if 1e-3 <= abs(v) < 1e5 else f"{v:.1e}"


def _panel(out: List[str], x0: float, y0: float, series, logy: bool,
           y_label: str, x_label: str) -> None:
    """Draw one panel of ``series``, each ``(x, y, color)`` with ``x`` and
    ``y`` NumPy arrays (views of a trace's columns, read and never kept)."""
    drawn = []  # (xs, ys, color): the points drawn of each series with one
    limits = []  # (x lo, x hi, y lo, y hi) of each of those series
    for x, y, color in series:
        keep = np.isfinite(y) & (y > 0) if logy else np.isfinite(y)
        x, y = x[keep], y[keep]
        if n := len(x):
            limits.append((float(x.min()), float(x.max()), float(y.min()), float(y.max())))
            # Every stride-th point and the last, at most _MAX_POINTS + 1.
            pick = np.append(np.arange(0, n - 1, -(-n // _MAX_POINTS)), n - 1)
            drawn.append((x[pick].tolist(), y[pick].tolist(), color))
    scale = 1.0
    if limits:
        x_los, x_his, los, his = zip(*limits)
        x_lo, x_hi, lo, hi = min(x_los), max(x_his), min(los), max(his)
        xlim = (x_lo, x_hi if x_hi > x_lo else x_lo + 1)
        if logy:
            lo, hi = math.log10(lo), math.log10(hi)
        if hi <= lo:
            lo, hi = lo - 1.0, hi + 1.0
        pad = 0.04 * (hi - lo)
        if not math.isfinite(hi + pad - (lo - pad)):
            # Finite values whose padded span overflows: the y axis counts
            # in quarters of them, which keeps every limit and span finite.
            scale = 0.25
            lo, hi = lo * scale, hi * scale
            pad = 0.04 * (hi - lo)
        ylim = (lo - pad, hi + pad)
    else:
        xlim, ylim = (0.0, 1.0), (0.0, 1.0)

    (x_lo, x_hi), (y_lo, y_hi) = xlim, ylim

    def px(x: float) -> float:  # data to SVG coordinates
        frac = 0.0 if x_hi == x_lo else (x - x_lo) / (x_hi - x_lo)
        return x0 + frac * _PANEL_W

    def py(v: float) -> float:  # y axis coordinate to SVG coordinates
        frac = 0.0 if y_hi == y_lo else (v - y_lo) / (y_hi - y_lo)
        return y0 + _PANEL_H - frac * _PANEL_H

    out.append(f'<rect x="{x0}" y="{y0}" width="{_PANEL_W}" height="{_PANEL_H}" '
               f'fill="none" stroke="#444" stroke-width="1"/>')

    # x ticks
    for t in _linear_ticks(*xlim):
        tx = px(t)
        out.append(f'<line x1="{tx:.1f}" y1="{y0 + _PANEL_H}" x2="{tx:.1f}" '
                   f'y2="{y0 + _PANEL_H + 5}" stroke="#444"/>')
        out.append(f'<text x="{tx:.1f}" y="{y0 + _PANEL_H + 18}" text-anchor="middle" '
                   f'class="tick">{_fmt_num(t)}</text>')
    # y ticks, each at its axis coordinate: a decade sits where log10 puts
    # 10.0 ** d, or at d itself where that power overflows or underflows.
    if logy:
        d0, d1 = math.ceil(ylim[0]), math.floor(ylim[1])
        stride = max(1, (d1 - d0) // 8) if d1 > d0 else 1
        decades = list(range(d0, d1 + 1, stride)) or [d0]
        y_ticks = [(math.log10(10.0 ** d) if -324 < d < 309 else d, f"1e{d}") for d in decades]
    else:
        y_ticks = [(t, _fmt_num(t / scale)) for t in _linear_ticks(*ylim)
                   if math.isfinite(t / scale)]
    for t, text in y_ticks:
        ty = py(t)
        out.append(f'<line x1="{x0 - 5}" y1="{ty:.1f}" x2="{x0}" y2="{ty:.1f}" stroke="#444"/>')
        out.append(f'<text x="{x0 - 8}" y="{ty + 4:.1f}" text-anchor="end" '
                   f'class="tick">{text}</text>')

    for xs, ys, color in drawn:
        yv = map(math.log10, ys) if logy else (y * scale for y in ys)
        pts = " ".join(f"{px(x):.1f},{py(v):.1f}" for x, v in zip(xs, yv))
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                   f'points="{pts}"/>')

    out.append(f'<text x="{x0 + _PANEL_W / 2}" y="{y0 + _PANEL_H + 36}" '
               f'text-anchor="middle" class="label">{_escape(x_label)}</text>')
    out.append(f'<text x="{x0 - 58}" y="{y0 + _PANEL_H / 2}" text-anchor="middle" '
               f'class="label" transform="rotate(-90 {x0 - 58} {y0 + _PANEL_H / 2})">'
               f'{_escape(y_label)}</text>')


def render_traces_svg(series: Sequence[Tuple[str, Iterable[TraceRecord]]],
                      title: str = "") -> str:
    """Build the SVG document for one or more labeled traces, each a
    :class:`~restartagd.trace.Trace` or any iterable of records.  The panels
    read the ``n_oracle``, ``f_x`` and ``grad_norm_monitor`` columns through
    NumPy views, dropped before this returns; only the drawn points, at most
    ``_MAX_POINTS + 1`` a series, become Python floats."""
    width = _MARGIN_L + _PANEL_W + _MARGIN_R
    height = _MARGIN_T + 2 * (_PANEL_H + _MARGIN_B) + 26
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" viewBox="0 0 {width} {height}">',
           '<style>text{font-family:sans-serif}.tick{font-size:11px;fill:#333}'
           '.label{font-size:13px;fill:#111}.title{font-size:15px;fill:#111}'
           '.legend{font-size:12px;fill:#111}</style>',
           f'<rect width="{width}" height="{height}" fill="white"/>']
    if title:
        out.append(f'<text x="{width / 2}" y="20" text-anchor="middle" class="title">'
                   f'{_escape(title)}</text>')

    colored = [(label, as_trace(recs), PALETTE[i % len(PALETTE)])
               for i, (label, recs) in enumerate(series)]

    def views(column: str):
        return [(np.frombuffer(trace.n_oracle, np.int64), np.frombuffer(getattr(trace, column)),
                 color) for _label, trace, color in colored]

    _panel(out, _MARGIN_L, _MARGIN_T, views("f_x"), logy=False,
           y_label="objective value", x_label="oracle calls")
    _panel(out, _MARGIN_L, _MARGIN_T + _PANEL_H + _MARGIN_B + 26, views("grad_norm_monitor"),
           logy=True, y_label="gradient norm", x_label="oracle calls")

    # legend across the top, under the title
    lx, ly = _MARGIN_L, _MARGIN_T - 8
    for label, _trace, color in colored:
        out.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx + 27}" y="{ly + 4}" class="legend">{_escape(label)}</text>')
        lx += 34 + 7 * len(label)

    out.append("</svg>")
    return "\n".join(out)


def write_traces_svg(path: str, series, title: str = "") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_traces_svg(series, title=title) + "\n")
