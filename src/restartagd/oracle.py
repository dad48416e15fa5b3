"""First-order oracle plumbing: validated points, counted evaluations, memoization.

Every solver in this package talks to an objective exclusively through an
:class:`OracleSession`, which counts value/gradient evaluations and serves
repeated requests at the same point from a single-slot memo.  Finite
differences are available as a separate diagnostic channel that does not
touch the counters.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

Vector = np.ndarray


class OracleError(Exception):
    """Base class for failures raised while evaluating an objective."""


class NonFiniteValue(OracleError):
    """The objective returned NaN or +/-inf at ``point``."""

    def __init__(self, point: Vector, value: float):
        self.point = np.array(point, copy=True)
        self.value = float(value)
        super().__init__(f"objective value is not finite ({value!r})")


class NonFiniteGradient(OracleError):
    """The gradient contained NaN or +/-inf entries at ``point``."""

    def __init__(self, point: Vector):
        self.point = np.array(point, copy=True)
        super().__init__("gradient has non-finite entries")


def as_point(values, dim: Optional[int] = None) -> Vector:
    """Validate and return a point as a float64 vector.

    Points are dense 1-D arrays with at least one entry, all finite.
    ``dim``, when given, additionally pins the expected length.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or x.size < 1:
        raise ValueError(f"point must be a 1-D vector with d >= 1, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("point has non-finite entries")
    if dim is not None and x.size != dim:
        raise ValueError(f"point has dimension {x.size}, expected {dim}")
    return x


@dataclass(frozen=True)
class Objective:
    """A smooth objective given by callables for the value and the gradient.

    ``known_L`` / ``known_M`` are optional Lipschitz constants of the gradient
    and the Hessian; ``lower_bound`` is an optional global lower bound on the
    value.  All three are metadata used by checks and baselines, never by the
    adaptive solver itself.
    """

    dim: int
    value_fn: Callable[[Vector], float]
    grad_fn: Callable[[Vector], Vector]
    known_L: Optional[float] = None
    known_M: Optional[float] = None
    lower_bound: Optional[float] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")


class OracleSession:
    """Counted access to one objective for the duration of one run.

    A session counts its own evaluations (``n_value``, ``n_grad``).  Each
    channel keeps a single-slot memo of the most recent query point, so asking
    twice in a row for the same bitwise-identical point costs one evaluation.

    The session leaves NumPy's floating-point error state alone: every solver
    runs inside :func:`~restartagd.solver.drive`, which silences NumPy's
    warnings once for the whole run.  A session used directly outside
    ``drive`` sees whatever error state its caller has set, so an objective
    that overflows may warn (or raise, under ``np.errstate(all="raise")``)
    there.  Non-finite results are rejected either way.

    A gradient of the right shape is checked for non-finite entries with one
    dot product against a zero vector built once per session: a finite entry
    contributes exactly +-0 to the sum, while a NaN or +-inf entry makes its
    product, and so the sum, NaN.  The shape is checked first, since a dot of
    the wrong shape raises instead of reporting.  Outside ``drive`` that dot
    may warn about the invalid ``inf * 0``; where the caller's error state
    turns this into an exception, it still ends as :class:`NonFiniteGradient`.
    """

    def __init__(self, obj: Objective):
        self.obj = obj
        self.n_value = 0
        self.n_grad = 0
        self._value_key: Optional[bytes] = None
        self._value_cached: float = 0.0
        self._grad_key: Optional[bytes] = None
        self._grad_cached: Optional[Vector] = None
        self._zeros = np.zeros(obj.dim)

    def value(self, x: Vector) -> float:
        key = x.tobytes()
        if key == self._value_key:
            return self._value_cached
        v = float(self.obj.value_fn(x))
        self.n_value += 1
        if not math.isfinite(v):
            raise NonFiniteValue(x, v)
        lb = self.obj.lower_bound
        if lb is not None and v < lb - 1e-9 * (1.0 + abs(lb)):
            raise OracleError(
                f"objective returned {v!r}, below its declared lower bound {lb!r}"
            )
        self._value_key = key
        self._value_cached = v
        return v

    def grad(self, x: Vector) -> Vector:
        key = x.tobytes()
        if key == self._grad_key and self._grad_cached is not None:
            return self._grad_cached
        g = np.asarray(self.obj.grad_fn(x), dtype=np.float64)
        self.n_grad += 1
        if g.shape != (self.obj.dim,):
            raise OracleError(f"gradient has shape {g.shape}, expected ({self.obj.dim},)")
        try:
            finite = g.dot(self._zeros) == 0.0
        except (FloatingPointError, RuntimeWarning):  # the caller's error state
            finite = False
        if not finite:
            raise NonFiniteGradient(x)
        self._grad_key = key
        self._grad_cached = g
        return g

    @property
    def n_oracle(self) -> int:
        return self.n_value + self.n_grad


def fd_gradient(obj: Objective, x: Vector, h: Optional[float] = None) -> Vector:
    """Central-difference gradient, one coordinate at a time.

    This is a diagnostic channel: it calls ``value_fn`` directly and does not
    count toward any session's totals.  The default step scales with the point,
    h = 1e-6 * (1 + max_i |x_i|).
    """
    if h is None:
        h = 1e-6 * (1.0 + float(np.max(np.abs(x))))
    g = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        g[i] = (obj.value_fn(x + step) - obj.value_fn(x - step)) / (2.0 * h)
    return g
