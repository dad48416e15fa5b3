"""Reference forms the tests compare the solver's arithmetic and the output
writers against."""

import csv
import math
from itertools import compress
from typing import List

import numpy as np

from restartagd.checks import check_jensen_gradient, check_trapezoid
from restartagd.solver import _EPS, _NOISE_GUARD
from restartagd.svgplot import (_MARGIN_B, _MARGIN_L, _MARGIN_R, _MARGIN_T, _MAX_POINTS,
                               _PANEL_H, _PANEL_W, PALETTE, _escape, _fmt_num,
                               _linear_ticks)
from restartagd.trace import _ROW, TRACE_COLUMNS, as_trace


def theta(k: int) -> float:
    """Momentum schedule k/(k+1) for inner index k >= 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return k / (k + 1.0)


def update_average(z: float, y_bar, y, th: float):
    """One step of the running weighted average: given the normalizer ``z``
    and average ``y_bar`` over previous momentum points, fold in ``y`` with
    momentum weight ``th``.  Returns (z_new, y_bar_new)."""
    z_new = 1.0 + th * z
    return z_new, (y + (th * z) * y_bar) / z_new


def update_m_eager(state, grad_ybar_norm=None):
    """``solver.update_m`` as first written: it forms x_k - x_{k-1} itself
    and evaluates every noise floor, needed or not."""
    m = state.M
    prev, cur, y = state.prev, state.cur, state.y
    k = state.k
    th = k / (k + 1.0)
    xscale = 1.0 + math.sqrt(float(cur.x.dot(cur.x)))
    d_yx = y.x - cur.x
    hy2 = float(d_yx.dot(d_yx))
    hy = math.sqrt(hy2)
    h3 = hy2 * hy
    if h3 > 0.0:
        gsum = y.g + cur.g
        num1 = y.f - cur.f - 0.5 * float(gsum.dot(d_yx))
        noise1 = _EPS * (abs(y.f) + abs(cur.f)
                         + 0.5 * math.sqrt(float(gsum.dot(gsum))) * hy)
        if num1 > _NOISE_GUARD * noise1:
            m = max(m, 12.0 * num1 / h3)
    dx = cur.x - prev.x
    dx2 = float(dx.dot(dx))
    den2 = th * dx2
    if den2 > 0.0:
        comb = y.g + th * prev.g - (1.0 + th) * cur.g
        num2 = math.sqrt(float(comb.dot(comb)))
        noise2 = _EPS * (y.norm + th * prev.norm + (1.0 + th) * cur.norm
                         + state.L * xscale)
        if num2 > _NOISE_GUARD * noise2:
            m = max(m, num2 / den2)
    if grad_ybar_norm is None or k < 2 or state.s <= 0.0:
        return m
    z = (k + 1.0) / 2.0
    a = z * z * grad_ybar_norm
    b = z * state.L * math.sqrt(dx2)
    num3 = a - b
    noise3 = _EPS * (a + b + z * z * state.L * xscale)
    if num3 > _NOISE_GUARD * noise3:
        den3 = (k - 1.0) * (k + 5.0) ** 2 * state.s
        m = max(m, 16.0 * num3 / den3)
    return m


def rosenbrock_value(v):
    """Rosenbrock's value on NumPy float64 scalars (array indexing)."""
    a = v[0] - 1.0
    b = v[1] - v[0] * v[0]
    return a * a + 100.0 * b * b


def rosenbrock_grad(v):
    """Rosenbrock's gradient on NumPy float64 scalars (array indexing)."""
    b = v[1] - v[0] * v[0]
    return np.array([2.0 * (v[0] - 1.0) - 400.0 * v[0] * b, 200.0 * b])


def estimate_M_bruteforce_unshared(obj, region, samples: int, seed: int = 0) -> float:
    """``checks.estimate_M_bruteforce`` as first written: each check evaluates
    its own gradients, so every sample costs five of them."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    lo = np.broadcast_to(np.asarray(region[0], dtype=np.float64), (obj.dim,))
    hi = np.broadcast_to(np.asarray(region[1], dtype=np.float64), (obj.dim,))
    if np.any(hi <= lo):
        raise ValueError("region upper bounds must exceed lower bounds")
    rng = np.random.default_rng(seed)
    estimate = 0.0
    for _ in range(samples):
        x = rng.uniform(lo, hi)
        y = rng.uniform(lo, hi)
        d = x - y
        h2 = float(d @ d)
        if h2 == 0.0:
            continue
        gap = check_trapezoid(obj, x, y, 0.0).lhs
        estimate = max(estimate, 12.0 * abs(gap) / (h2 * math.sqrt(h2)))
        err = check_jensen_gradient(obj, (x, y), (0.5, 0.5), 0.0).lhs
        estimate = max(estimate, 8.0 * err / h2)
    return estimate


class RowwiseTraceWriter:
    """``trace.TraceWriter`` as it was before it wrote in column blocks: one
    row at a time, comparing each float field with the previous row's."""

    def __init__(self, out):
        self._out = out
        csv.writer(out).writerow(TRACE_COLUMNS)
        self._out.flush()
        self._last = (0.0, "0.0", 0.0, "0.0", None, "", 0.0, "0.0", 0.0, "0.0", 0.0, "0.0")

    def add_rows(self, rows) -> None:
        """Write rows, each the eleven field values in ``TRACE_COLUMNS``
        order (a tuple or a record)."""
        write, sign = self._out.write, math.copysign
        f0, f1, g0, g1, y0, y1, L0, L1, M0, M1, S0, S1 = self._last
        for K, epoch, k, n_oracle, f_x, monitor, ybar, L, M, S_k, event in rows:
            # ``v != last``, or both zero with different signs: format anew.
            if f_x != f0 or f_x == 0.0 and sign(1.0, f_x) != sign(1.0, f0):
                f0, f1 = f_x, repr(float(f_x))
            if monitor != g0 or monitor == 0.0 and sign(1.0, monitor) != sign(1.0, g0):
                g0, g1 = monitor, repr(float(monitor))
            if ybar != y0 or ybar == 0.0 and sign(1.0, ybar) != sign(1.0, y0):
                y0, y1 = ybar, "" if ybar is None else repr(float(ybar))
            if L != L0 or L == 0.0 and sign(1.0, L) != sign(1.0, L0):
                L0, L1 = L, repr(float(L))
            if M != M0 or M == 0.0 and sign(1.0, M) != sign(1.0, M0):
                M0, M1 = M, repr(float(M))
            if S_k != S0 or S_k == 0.0 and sign(1.0, S_k) != sign(1.0, S0):
                S0, S1 = S_k, repr(float(S_k))
            write(_ROW % (K, epoch, k, n_oracle, f1, g1, y1, L1, M1, S1, event))
        self._last = (f0, f1, g0, g1, y0, y1, L0, L1, M0, M1, S0, S1)

    def close(self) -> None:
        self._out.flush()


# ``svgplot``'s panels as they were before they worked on NumPy views of the
# trace columns: every point a Python float, then stride-downsampled.


def _downsample(xs: List[float], ys: List[float]):
    n = len(xs)
    if n <= _MAX_POINTS:
        return xs, ys
    stride = -(-n // _MAX_POINTS)
    keep = list(range(0, n, stride))
    if keep[-1] != n - 1:
        keep.append(n - 1)
    return [xs[i] for i in keep], [ys[i] for i in keep]


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


def render_traces_svg(series, title: str = "") -> str:
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
