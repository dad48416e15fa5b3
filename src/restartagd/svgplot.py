"""Static SVG rendering of run traces, no plotting library involved.

Two stacked panels over oracle-call count: objective value (linear axis) and
gradient norm (log axis).  The output is a single self-contained SVG string;
long traces are stride-downsampled so files stay small.
"""
from __future__ import annotations

import math
from itertools import compress
from typing import Iterable, List, Sequence, Tuple

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


def _downsample(xs: List[float], ys: List[float]):
    n = len(xs)
    if n <= _MAX_POINTS:
        return xs, ys
    stride = -(-n // _MAX_POINTS)
    keep = list(range(0, n, stride))
    if keep[-1] != n - 1:
        keep.append(n - 1)
    return [xs[i] for i in keep], [ys[i] for i in keep]


def _nice_step(span: float, target: int = 5) -> float:
    raw = span / max(target, 1)
    mag = 10.0 ** math.floor(math.log10(raw)) if raw > 0 else 1.0
    for mult in (1.0, 2.0, 5.0, 10.0):
        if mag * mult >= raw:
            return mag * mult
    return mag * 10.0


def _linear_ticks(lo: float, hi: float) -> List[float]:
    if hi <= lo:
        return [lo]
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks or [lo, hi]


def _fmt_num(v: float) -> str:
    if v == 0:
        return "0"
    a = abs(v)
    if 1e-3 <= a < 1e5:
        s = f"{v:.4g}"
    else:
        s = f"{v:.1e}"
    return s


def _panel(out: List[str], x0: float, y0: float, series, logy: bool,
           y_label: str, x_label: str) -> None:
    drawn = []  # (xs, ys, color) of each series with a point to draw
    for _label, xs, ys, color in series:
        keep = [math.isfinite(x) and math.isfinite(y) and (not logy or y > 0)
                for x, y in zip(xs, ys)]
        xs = list(compress(xs, keep))
        if xs:
            drawn.append((xs, list(compress(ys, keep)), color))

    if drawn:
        # min and max return the first of equal values, so the limits over
        # the series' limits are those over all the points in series order.
        x_lo = min(min(xs) for xs, _ys, _color in drawn)
        x_hi = max(max(xs) for xs, _ys, _color in drawn)
        xlim = (x_lo, x_hi if x_hi > x_lo else x_lo + 1)
        lo = min(min(ys) for _xs, ys, _color in drawn)
        hi = max(max(ys) for _xs, ys, _color in drawn)
        if logy:
            lo, hi = math.log10(lo), math.log10(hi)
        if hi <= lo:
            lo, hi = lo - 1.0, hi + 1.0
        pad = 0.04 * (hi - lo)
        ylim = (lo - pad, hi + pad)
    else:
        xlim, ylim = (0.0, 1.0), (0.0, 1.0)

    (x_lo, x_hi), (y_lo, y_hi) = xlim, ylim

    def px(x: float) -> float:  # data to SVG coordinates
        frac = 0.0 if x_hi == x_lo else (x - x_lo) / (x_hi - x_lo)
        return x0 + frac * _PANEL_W

    def py(y: float) -> float:
        v = math.log10(y) if logy else y
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
    # y ticks
    if logy:
        d0, d1 = math.ceil(ylim[0]), math.floor(ylim[1])
        stride = max(1, (d1 - d0) // 8) if d1 > d0 else 1
        decades = list(range(d0, d1 + 1, stride)) or [d0]
        y_ticks = [(10.0 ** d, f"1e{d}") for d in decades]
    else:
        y_ticks = [(t, _fmt_num(t)) for t in _linear_ticks(*ylim)]
    for t, text in y_ticks:
        ty = py(t)
        out.append(f'<line x1="{x0 - 5}" y1="{ty:.1f}" x2="{x0}" y2="{ty:.1f}" stroke="#444"/>')
        out.append(f'<text x="{x0 - 8}" y="{ty + 4:.1f}" text-anchor="end" '
                   f'class="tick">{text}</text>')

    for xs, ys, color in drawn:
        xs, ys = _downsample(xs, ys)
        pts = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in zip(xs, ys))
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
    :class:`~restartagd.trace.Trace` or any iterable of records."""
    width = _MARGIN_L + _PANEL_W + _MARGIN_R
    height = _MARGIN_T + 2 * (_PANEL_H + _MARGIN_B) + 26
    out: List[str] = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
               f'height="{height}" viewBox="0 0 {width} {height}">')
    out.append('<style>text{font-family:sans-serif}.tick{font-size:11px;fill:#333}'
               '.label{font-size:13px;fill:#111}.title{font-size:15px;fill:#111}'
               '.legend{font-size:12px;fill:#111}</style>')
    out.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    if title:
        out.append(f'<text x="{width / 2}" y="20" text-anchor="middle" class="title">'
                   f'{_escape(title)}</text>')

    colored = []
    for i, (label, recs) in enumerate(series):
        trace = as_trace(recs)
        xs = list(map(float, trace.n_oracle))
        colored.append((label, trace, xs, PALETTE[i % len(PALETTE)]))

    top = _MARGIN_T
    fx_series = [(label, xs, trace.f_x, color) for label, trace, xs, color in colored]
    _panel(out, _MARGIN_L, top, fx_series, logy=False,
           y_label="objective value", x_label="oracle calls")

    top2 = _MARGIN_T + _PANEL_H + _MARGIN_B + 26
    g_series = [(label, xs, trace.grad_norm_monitor, color)
                for label, trace, xs, color in colored]
    _panel(out, _MARGIN_L, top2, g_series, logy=True,
           y_label="gradient norm", x_label="oracle calls")

    # legend across the top, under the title
    lx = _MARGIN_L
    ly = _MARGIN_T - 8
    for label, _trace, _xs, color in colored:
        out.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx + 27}" y="{ly + 4}" class="legend">{_escape(label)}</text>')
        lx += 34 + 7 * len(label)

    out.append("</svg>")
    return "\n".join(out)


def write_traces_svg(path: str, series, title: str = "") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_traces_svg(series, title=title))
        fh.write("\n")
