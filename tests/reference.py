"""Reference forms the tests compare the solver's arithmetic and the output
writers and readers against, and the diagnostics they check runs with: a sampled M
estimate, the potential function, a finite-difference gradient and the
invariants every run keeps (:func:`check_run`)."""

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
from restartagd.trace import _ROW, TRACE_COLUMNS, Trace, as_trace


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


def estimate_M_bruteforce(obj, region, samples: int, seed: int = 0) -> float:
    """Sampled lower estimate of the Hessian's Lipschitz constant over a box.

    Draws point pairs uniformly from ``region = (lower, upper)`` and takes the
    largest of two certified ratios per pair: the trapezoid gap scaled by
    12/||x-y||^3 (both orientations, via the absolute value) and the midpoint
    interpolation error scaled by 8/||x-y||^2.  Both never exceed the true
    constant, so the return value approaches it from below as sampling
    densifies.  Each check evaluates its own gradients, five a sample.
    """
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


# Potential-function convention for the anchor index: the momentum weight
# "before the first step" is the square of the first real weight, (1/2)^2.
THETA0 = 0.25


def potential(f_x: float, x, x_prev, grad_x_prev, th: float, L: float) -> float:
    """Lyapunov value for one iterate pair:

        f(x) + (th^2/2) ( <grad f(x_prev), x - x_prev>
                          + ||grad f(x_prev)||^2 / (2L)
                          + L ||x - x_prev||^2 ).

    Always >= f(x): the bracket equals ||g + L d||^2/(2L) + (L/2)||d||^2 with
    d = x - x_prev, a sum of squares.  At an epoch anchor (x == x_prev) use
    th = THETA0.
    """
    d = x - x_prev
    g = grad_x_prev
    bracket = float(g @ d) + float(g @ g) / (2.0 * L) + L * float(d @ d)
    return f_x + 0.5 * th * th * bracket


def fd_gradient(obj, x, h=None):
    """Central-difference gradient, one coordinate at a time, from
    ``value_fn`` called directly (no session counts it).  The default step
    scales with the point, h = 1e-6 * (1 + max_i |x_i|)."""
    if h is None:
        h = 1e-6 * (1.0 + float(np.max(np.abs(x))))
    g = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        g[i] = (obj.value_fn(x + step) - obj.value_fn(x - step)) / (2.0 * h)
    return g


def check_run(rep, obj, identity=None, case=None) -> None:
    """Assert the invariants every finished run ``rep`` of ``obj`` keeps:

    * a fresh gradient at ``rep.solution`` has norm ``certified_grad_norm``,
      bit for bit;
    * the anchor values never increase;
    * the certified path's norms fall strictly, at call counts that never
      decrease, and end at ``certified_grad_norm``;
    * the trace's ``n_oracle`` never decreases and ends at ``rep.n_oracle``;
    * on a ``proposed`` run the caller marks as free of bitwise fixed points
      (memo hits are free), the accounting identity: ``identity="practical"``
      (on-candidate certification) is ``2 + 4 K`` plus one call per row with
      a ``grad_norm_ybar``, ``identity="every_row"`` (theoretical variant or
      every-iteration certification) is ``2 + 5 K`` with one on every row.

    ``case`` names the run in a failure's message."""
    g = obj.grad_fn(rep.solution)
    assert math.sqrt(float(g @ g)) == rep.certified_grad_norm, case
    anchors = rep.anchor_values
    assert all(b <= a for a, b in zip(anchors, anchors[1:])), case
    calls, norms = rep.certified
    assert all(b < a for a, b in zip(norms, norms[1:])), case
    assert all(b >= a for a, b in zip(calls, calls[1:])), case
    assert norms[-1] == rep.certified_grad_norm, case
    ns = rep.trace.n_oracle
    assert all(b >= a for a, b in zip(ns, ns[1:])), case
    assert ns[-1] == rep.n_oracle, case
    ybar_rows = len(ns) - rep.trace.grad_norm_ybar.count(None)
    if identity == "practical":
        assert rep.n_oracle == 2 + 4 * rep.total_K + ybar_rows, case
    elif identity == "every_row":
        assert rep.n_oracle == 2 + 5 * rep.total_K, case
        assert ybar_rows == len(ns), case
    else:
        assert identity is None, identity


class PlainTraceWriter:
    """A trace CSV writer that formats every field of every row: a float as
    ``repr(float(v))``, a missing ``grad_norm_ybar`` as an empty field."""

    def __init__(self, out):
        self._out = out
        csv.writer(out).writerow(TRACE_COLUMNS)

    def add_rows(self, rows) -> None:
        """Write rows, each the eleven field values in ``TRACE_COLUMNS``
        order (a tuple or a record)."""
        for K, epoch, k, n_oracle, *floats, event in rows:
            texts = ("" if v is None else repr(float(v)) for v in floats)
            self._out.write(_ROW % (K, epoch, k, n_oracle, *texts, event))


def fill_text(K: int, epoch, k: int, tail: str, n: int) -> str:
    """The text of ``n`` rows from ``K``, ``epoch`` and ``k`` on, ``K`` and
    ``k`` counting up, each followed by ``tail``, built one f-string a row:
    ``trace._fill_text`` as it was before it built NumPy byte tables."""
    mid, end = f",{epoch},", f",{tail}"
    return "".join([f"{a}{mid}{b}{end}" for a, b in zip(range(K, K + n), range(k, k + n))])


def read_trace_per_field(path) -> Trace:
    """The trace at ``path`` read by the per-field rule: each line split by
    ``csv.reader``, then ``int`` or ``float`` of each field on its own.  Its
    ``filled`` is the last run of rows whose line is the line before's as
    :func:`fill_text` writes the next row, ``(0, 0)`` when there is none."""
    trace, start, stop, before = Trace(), 0, 0, None
    with open(path, "r", newline="", encoding="utf-8") as fh:
        next(fh)
        for i, line in enumerate(fh):
            (K, epoch, k, n, *floats, event), = csv.reader([line])
            trace.append((int(K), int(epoch), int(k), int(n),
                          *(None if v == "" else float(v) for v in floats), event))
            if before and line == fill_text(before[0] + 1, before[1], before[2] + 1, before[3], 1):
                start, stop = start if stop == i else i, i + 1
            before = (int(K), epoch, int(k), line.split(",", 3)[3])
    trace.filled = (start, stop)
    return trace


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
