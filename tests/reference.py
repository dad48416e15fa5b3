"""Reference forms the tests compare the solver's arithmetic against."""

import math

import numpy as np

from restartagd.checks import check_jensen_gradient, check_trapezoid
from restartagd.solver import _EPS, _NOISE_GUARD


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
