"""Executable smoothness inequalities.

These checks make the method's assumptions testable without ever forming a
Hessian: every bound uses only values and gradients.  Each check returns an
:class:`InequalityReport` comparing its two sides with a relative tolerance,
so a failing report carries the witness points that broke the inequality.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .oracle import Objective, Vector
from .solver import _EPS, _NOISE_GUARD


class WeightError(Exception):
    """The supplied weights are not a convex combination."""


@dataclass(frozen=True)
class InequalityReport:
    name: str
    lhs: float
    rhs: float
    slack: float          # rhs - lhs; negative means the inequality failed
    holds: bool           # slack >= -tol
    tol: float
    witness: Tuple[Vector, ...]

    def __str__(self) -> str:
        verdict = "holds" if self.holds else "VIOLATED"
        return (f"{self.name}: lhs={self.lhs:.6e} rhs={self.rhs:.6e} "
                f"slack={self.slack:.3e} ({verdict})")


def _report(name: str, lhs: float, rhs: float, witness, operands: float = 0.0) -> InequalityReport:
    """``operands`` sums the magnitudes ``lhs`` is computed from; the
    tolerance forgives ``lhs`` their rounding, bounded as ``update_m`` bounds
    its noise floors, on top of a relative ``1e-9`` of ``rhs``."""
    slack = rhs - lhs
    tol = 1e-9 * (1.0 + abs(rhs)) + _NOISE_GUARD * _EPS * operands
    return InequalityReport(name=name, lhs=lhs, rhs=rhs, slack=slack,
                            holds=slack >= -tol, tol=tol, witness=tuple(witness))


def check_descent_lemma(obj: Objective, x: Vector, y: Vector, L: float) -> InequalityReport:
    """Quadratic upper bound from L-smoothness:
    f(x) - f(y) - <grad f(y), x - y>  <=  (L/2) ||x - y||^2."""
    d = x - y
    lhs = obj.value_fn(x) - obj.value_fn(y) - float(np.asarray(obj.grad_fn(y)) @ d)
    rhs = 0.5 * L * float(d @ d)
    return _report("descent_lemma", lhs, rhs, (x, y))


def check_jensen_gradient(obj: Objective, points: Sequence[Vector],
                          weights: Sequence[float], M: float) -> InequalityReport:
    """Gradient-of-average versus average-of-gradients under M-Lipschitz
    Hessians:

        || grad f(sum_i w_i z_i) - sum_i w_i grad f(z_i) ||
            <= (M/2) sum_{i<j} w_i w_j ||z_i - z_j||^2.

    ``weights`` must be a convex combination (sum within 1e-12 of one, no
    negative entries), else :class:`WeightError`.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or len(points) != w.size:
        raise WeightError("need one weight per point")
    if np.any(w < 0):
        raise WeightError("weights must be nonnegative")
    if abs(float(w.sum()) - 1.0) > 1e-12:
        raise WeightError(f"weights sum to {w.sum()!r}, expected 1")
    pts = [np.asarray(z, dtype=np.float64) for z in points]
    mix = sum(wi * z for wi, z in zip(w, pts))
    grad_mix = np.asarray(obj.grad_fn(mix))
    grads = [np.asarray(obj.grad_fn(z)) for z in pts]
    avg_grad = sum(wi * g for wi, g in zip(w, grads))
    lhs = float(np.linalg.norm(grad_mix - avg_grad))
    operands = float(np.linalg.norm(grad_mix) + w @ np.linalg.norm(grads, axis=1))
    spread = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = pts[i] - pts[j]
            spread += float(w[i] * w[j]) * float(d @ d)
    rhs = 0.5 * M * spread
    return _report("jensen_gradient", lhs, rhs, pts, operands)


def check_trapezoid(obj: Objective, x: Vector, y: Vector, M: float) -> InequalityReport:
    """Trapezoid-rule bound under M-Lipschitz Hessians:
    f(x) - f(y) - (1/2) <grad f(x) + grad f(y), x - y>  <=  (M/12) ||x - y||^3."""
    d = x - y
    gsum = np.asarray(obj.grad_fn(x)) + np.asarray(obj.grad_fn(y))
    fx, fy = obj.value_fn(x), obj.value_fn(y)
    lhs = fx - fy - 0.5 * float(gsum @ d)
    h2 = float(d @ d)
    rhs = (M / 12.0) * h2 * math.sqrt(h2)
    operands = abs(fx) + abs(fy) + 0.5 * math.sqrt(float(gsum @ gsum) * h2)
    return _report("trapezoid", lhs, rhs, (x, y), operands)
