"""First-order oracle plumbing: validated points, counted evaluations, memoization.

Every solver in this package talks to an objective exclusively through an
:class:`OracleSession`, which counts value/gradient evaluations and serves
repeated requests at the same point from a single-slot memo.
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


class ObjectiveRaised(OracleError):
    """The objective's ``channel`` (``"value_fn"`` or ``"grad_fn"``) raised;
    the exception it raised is this error's ``__cause__``."""

    def __init__(self, channel: str, exc: Exception):
        self.channel = channel
        super().__init__(f"{channel} raised {type(exc).__name__}: {exc}")


def l2_norm(g: Vector) -> float:
    """||g||, the one expression of a gradient norm in this package."""
    return math.sqrt(float(g.dot(g)))


def as_point(values, dim: Optional[int] = None) -> Vector:
    """Validate a point and return it as a new float64 vector.

    Points are dense 1-D arrays with at least one entry, all finite.
    ``dim``, when given, additionally pins the expected length.  The result
    is always a copy, so a run never holds, or reports, the caller's array.
    """
    x = np.array(values, dtype=np.float64)
    if x.ndim != 1 or x.size < 1:
        raise ValueError(f"point must be a 1-D vector with d >= 1, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("point has non-finite entries")
    if dim is not None and x.size != dim:
        raise ValueError(f"point has dimension {x.size}, expected {dim}")
    return x


def one_point(*xs: Vector) -> bool:
    """Whether the vectors ``xs`` are one point, bit for bit, as the memo keys them."""
    return len({x.tobytes() for x in xs}) == 1


class Evaluated:
    """A point the run evaluated: ``x``, its value ``f`` (``None`` for a
    method that never asks for one), its gradient ``g`` and ``norm`` = ||g||,
    as :meth:`OracleSession.evaluate` builds it.  Never mutated, so several
    fields of a step object may hold the same record."""

    __slots__ = ("x", "f", "g", "norm")

    def __init__(self, x: Vector, f: Optional[float], g: Vector, norm: float):
        self.x, self.f, self.g, self.norm = x, f, g, norm

    def better(self, other: Evaluated) -> Evaluated:
        """``other`` if its gradient norm is strictly lower, else this record."""
        return other if other.norm < self.norm else self


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

    A fresh gradient of the right shape is normed once, and ``grad_norm``
    holds the norm of the gradient ``grad`` last returned, so a memo hit
    costs no arithmetic.  The norm is also the finite check: a NaN or +-inf
    entry makes the sum of squares NaN or +inf, so a finite norm proves
    every entry finite, and only a non-finite one is looked at entry by
    entry, which tells an overflowed sum of finite entries (accepted, with
    norm +inf) from a non-finite entry (:class:`NonFiniteGradient`).  The
    shape is checked first, since a dot of the wrong shape raises instead of
    reporting.  Where the caller's error state turns an over- or underflow
    in that dot into an exception, the norm is formed again with the
    warnings silenced, so it is the same under every error state.

    An exception from ``value_fn`` or ``grad_fn``, or from reading its
    result as a float or an array, ends as :class:`ObjectiveRaised`.

    ``evaluate(x)`` asks ``value`` (unless ``value=False``), then ``grad``,
    and hands the point back as an :class:`Evaluated` record carrying the
    gradient's norm, which is how the solvers ask for a point.
    """

    def __init__(self, obj: Objective):
        self.obj = obj
        self.n_value = 0
        self.n_grad = 0
        self._value_key: Optional[bytes] = None
        self._value_cached: float = 0.0
        self._grad_key: Optional[bytes] = None
        self._grad_cached: Optional[Vector] = None
        self.grad_norm = 0.0

    def value(self, x: Vector) -> float:
        key = x.tobytes()
        if key == self._value_key:
            return self._value_cached
        try:
            v = float(self.obj.value_fn(x))
        except Exception as exc:
            raise ObjectiveRaised("value_fn", exc) from exc
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
        if key == self._grad_key:
            return self._grad_cached
        try:
            g = np.asarray(self.obj.grad_fn(x), dtype=np.float64)
        except Exception as exc:
            raise ObjectiveRaised("grad_fn", exc) from exc
        self.n_grad += 1
        if g.shape != (self.obj.dim,):
            raise OracleError(f"gradient has shape {g.shape}, expected ({self.obj.dim},)")
        try:
            norm = l2_norm(g)
        except (FloatingPointError, RuntimeWarning):  # the caller's error state
            with np.errstate(all="ignore"):
                norm = l2_norm(g)
        if not math.isfinite(norm) and not np.isfinite(g).all():
            raise NonFiniteGradient(x)
        self._grad_key = key
        self._grad_cached = g
        self.grad_norm = norm
        return g

    def evaluate(self, x: Vector, value: bool = True) -> Evaluated:
        f = self.value(x) if value else None
        g = self.grad(x)
        return Evaluated(x, f, g, self.grad_norm)

    @property
    def n_oracle(self) -> int:
        return self.n_value + self.n_grad
