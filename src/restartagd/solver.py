"""Restarted accelerated gradient descent with adaptive step and curvature
estimates.

The method keeps two scalars it tunes on the fly: ``L``, the reciprocal step
size, and ``M``, a running lower estimate of the Hessian's Lipschitz constant.
Each epoch runs Nesterov-style accelerated steps from an anchor point.  Two
tests end an epoch:

* the descent test: if the new point fails a guaranteed-decrease inequality
  relative to the anchor, the step size was too optimistic, so the epoch is
  discarded, ``L`` grows by ``alpha``, and the previous iterate becomes the
  new anchor (an unsuccessful restart);
* the progress test: once ``(k+1)^5 M^2 S_k`` exceeds ``L^2`` the epoch has
  done its useful work, so the current iterate becomes the new anchor and
  ``L`` shrinks by ``beta`` (a successful restart).

``S_k`` is the within-epoch sum of squared displacements, accumulated with
compensated summation.  The solution the run certifies is always a point
whose gradient was genuinely evaluated.

This method and the baselines all run through :func:`drive`, which owns the
clock, the counted :class:`OracleSession`, the stop checks, the partial trace
of an :class:`OracleError`, the :class:`RunReport` and its certified path
(``certified``: the call count at each fall of the certified norm).  A method
is a step object built as ``method(session, x0, params)``, which makes the
first evaluations; ``step()`` returns one iteration's trace row, a tuple in
``TRACE_COLUMNS`` order ending in its event (``Terminated`` ends the run as
``EpsReached``), ``base`` is the next step's base point as an
:class:`Evaluated` record, ``best`` the best evaluated gradient with its
point, ``anchors`` the anchor values and ``final`` the final ``(epochs, L, M)``.
"""
from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .oracle import (Objective, OracleError, OracleSession, Vector, as_point,
                     l2_norm)
from .trace import RunReport, Trace, TraceRecord

M_PRACTICAL = "practical"
M_THEORETICAL = "theoretical"

CERTIFY_ON_CANDIDATE = "OnCandidate"
CERTIFY_EVERY_ITER = "EveryIter"

_EPS = float(np.finfo(np.float64).eps)
# A measured ratio feeds the curvature estimate only when its numerator
# exceeds this many units of its own floating-point noise floor; anything
# smaller is cancellation garbage, not curvature.
_NOISE_GUARD = 1e9


def check_finite(name: str, value, low: float, closed: bool = False,
                 error: type = ValueError) -> None:
    """Raise ``error`` unless ``low < value < inf``, ``low <= value`` if ``closed``."""
    if not (low <= value if closed else low < value) or value == math.inf:
        raise error(f"{name} must be finite and {'>=' if closed else '>'} {low}, not {value!r}")


@dataclass(frozen=True)
class TerminationPolicy:
    """When to stop: a certified gradient-norm target, an oracle-call budget,
    an iteration budget, a wall-clock limit, or any combination (at least one
    must be set).

    Identical evaluation points are memoized, so an iteration whose step is
    too small to change the iterate costs zero oracle calls; a run given only
    ``max_oracle_calls`` can therefore spin forever at such a point.  Pair a
    pure call budget with ``max_iterations`` or ``max_seconds``."""

    eps: Optional[float] = None
    max_oracle_calls: Optional[int] = None
    max_iterations: Optional[int] = None
    max_seconds: Optional[float] = None
    certify_mode: str = CERTIFY_ON_CANDIDATE

    def __post_init__(self):
        if (self.eps is None and self.max_oracle_calls is None
                and self.max_iterations is None and self.max_seconds is None):
            raise ValueError(
                "set at least one of eps, max_oracle_calls, max_iterations, max_seconds")
        for name, low, closed in (("eps", 0, False), ("max_oracle_calls", 1, True),
                                  ("max_iterations", 1, True), ("max_seconds", 0, False)):
            if getattr(self, name) is not None:
                check_finite(name, getattr(self, name), low, closed=closed)
        if self.certify_mode not in (CERTIFY_ON_CANDIDATE, CERTIFY_EVERY_ITER):
            raise ValueError(f"unknown certify_mode {self.certify_mode!r}")


DEFAULT_TERMINATION = TerminationPolicy(eps=1e-6, max_oracle_calls=100_000)


@dataclass(frozen=True)
class SolverParams:
    """Solver inputs.  The defaults are the recommended parameter-free
    setting; ``l_init`` and ``m0`` only need to be positive, the method
    corrects bad guesses as it goes."""

    l_init: float = 1e-3
    m0: float = 1e-16
    alpha: float = 2.0
    beta: float = 0.9
    m_variant: str = M_PRACTICAL
    termination: TerminationPolicy = DEFAULT_TERMINATION

    def __post_init__(self):
        check_finite("l_init", self.l_init, 0)
        check_finite("m0", self.m0, 0)
        check_finite("alpha", self.alpha, 1)
        if not 0 < self.beta <= 1:
            raise ValueError("beta must lie in (0, 1]")
        if self.m_variant not in (M_PRACTICAL, M_THEORETICAL):
            raise ValueError(f"unknown m_variant {self.m_variant!r}")


class Evaluated:
    """A point the run evaluated: ``x``, its value ``f`` (``None`` for a
    method that never asks for one), its gradient ``g`` and ``norm`` = ||g||.
    The solvers pass the session's ``grad_norm``, read right after the
    ``grad`` call that returned ``g``, so each fresh gradient is normed once;
    without it the norm is formed here by the same helper.  Never mutated,
    so several fields of the state may hold the same record."""

    __slots__ = ("x", "f", "g", "norm")

    def __init__(self, x: Vector, f: Optional[float], g: Vector,
                 norm: Optional[float] = None):
        self.x, self.f, self.g = x, f, g
        self.norm = l2_norm(g) if norm is None else norm


@dataclass
class EpochState:
    """Mutable state of one run: the current epoch's evaluated points plus
    the run-wide counters.  ``anchor`` is the epoch's x_0, ``prev`` and
    ``cur`` are x_{k-1} and x_k, ``y`` is y_k.  ``y_bar`` is the averaged
    point for the *upcoming* inner index, i.e. after iteration k it holds
    the average of y_0..y_k, whose normalizer is Z_{k+1} = (k+2)/2."""

    k: int
    K: int
    epoch: int
    L: float
    M: float
    anchor: Evaluated
    prev: Evaluated
    cur: Evaluated
    y: Evaluated
    s: float = 0.0
    s_comp: float = 0.0
    y_bar: Vector = None  # type: ignore[assignment]


def _fold_average_exact(k: int, y_bar: Vector, y: Vector) -> Vector:
    """Fold ``y`` into the running average with momentum weight th = k/(k+1).
    Since th*Z_k = k/2 exactly, the new normalizer Z_{k+1} = (k+2)/2 is exact."""
    return (2.0 * y + k * y_bar) / (k + 2.0)


def new_state(x0: Vector, f0: float, g0: Vector, l_init: float, m0: float,
              norm0: Optional[float] = None) -> EpochState:
    start = Evaluated(x0, f0, g0, norm0)
    return EpochState(k=0, K=0, epoch=1, L=l_init, M=m0,
                      anchor=start, prev=start, cur=start, y=start, y_bar=x0)


def _begin_epoch(state: EpochState, start: Evaluated) -> None:
    state.k = 0
    state.epoch += 1
    state.anchor = state.prev = state.cur = state.y = start
    state.s = 0.0
    state.s_comp = 0.0
    state.y_bar = start.x


def descent_condition_holds(state: EpochState) -> bool:
    """Guaranteed-decrease test against the epoch anchor; equality counts as
    holding."""
    bound = state.anchor.f - state.L * state.s / (2.0 * (state.k + 1.0))
    return state.cur.f <= bound


def restart2_triggered(state: EpochState) -> bool:
    """Progress test (k+1)^5 M^2 S_k > L^2 ending a successful epoch."""
    k1 = state.k + 1.0
    return (k1 ** 5) * state.M * state.M * state.s > state.L * state.L


def update_m(state: EpochState, dx2: float,
             grad_ybar_norm: Optional[float] = None) -> float:
    """Raise M to cover the measured third-order ratios at the newest iterate
    pair: the trapezoid gap between x_k and y_k, the momentum interpolation
    error against x_{k-1} and, when ``grad_ybar_norm`` (the theoretical
    variant) is given, a ratio at the averaged point, whose normalizer is
    Z_k = (k+1)/2.  ``dx2`` is ||x_k - x_{k-1}||^2, which the caller has
    already formed for its step.

    Zero-displacement ratios are skipped (0/0 reads as no information), and a
    ratio whose numerator is within floating-point noise of zero is skipped
    for the same reason.  The second ratio's noise floor includes an
    L*(1+||x||) term: y_k is stored rounded, so it sits off the exact
    momentum ray by an ulp of the iterate, and the gradient combination
    picks up curvature times that offset no matter how small the step is.
    The third ratio is skipped at k = 1 and whenever it is non-positive or
    inside its noise floor; its floor carries a Z^2*L*(1+||x||) term for the
    same reason.

    Each noise floor (and ||x_k|| inside it) is evaluated only for a ratio
    that exceeds the current M.  This is exact: ``max(m, r)`` returns ``m``
    whenever ``r <= m`` or ``r`` is NaN, so such a ratio leaves M bitwise
    unchanged whatever its guard says.  Each ratio is formed only once its
    denominator is known to be positive.
    """
    m = state.M
    prev, cur, y = state.prev, state.cur, state.y
    k = state.k
    th = k / (k + 1.0)
    xscale = None
    d_yx = y.x - cur.x
    hy2 = float(d_yx.dot(d_yx))
    hy = math.sqrt(hy2)
    # Cubed subnormal displacements can underflow to an exact zero, so gate
    # on the actual denominators, not on the displacement alone.
    h3 = hy2 * hy
    if h3 > 0.0:
        gsum = y.g + cur.g
        num1 = y.f - cur.f - 0.5 * float(gsum.dot(d_yx))
        r = 12.0 * num1 / h3
        if r > m:
            noise1 = _EPS * (abs(y.f) + abs(cur.f)
                             + 0.5 * math.sqrt(float(gsum.dot(gsum))) * hy)
            if num1 > _NOISE_GUARD * noise1:
                m = r
    den2 = th * dx2
    if den2 > 0.0:
        comb = y.g + th * prev.g - (1.0 + th) * cur.g
        num2 = math.sqrt(float(comb.dot(comb)))
        r = num2 / den2
        if r > m:
            xscale = 1.0 + math.sqrt(float(cur.x.dot(cur.x)))
            noise2 = _EPS * (y.norm + th * prev.norm + (1.0 + th) * cur.norm
                             + state.L * xscale)
            if num2 > _NOISE_GUARD * noise2:
                m = r
    if grad_ybar_norm is None or k < 2 or state.s <= 0.0:
        return m
    z = (k + 1.0) / 2.0
    a = z * z * grad_ybar_norm
    b = z * state.L * math.sqrt(dx2)
    num3 = a - b
    den3 = (k - 1.0) * (k + 5.0) ** 2 * state.s
    r = 16.0 * num3 / den3
    if r > m:
        if xscale is None:
            xscale = 1.0 + math.sqrt(float(cur.x.dot(cur.x)))
        noise3 = _EPS * (a + b + z * z * state.L * xscale)
        if num3 > _NOISE_GUARD * noise3:
            m = r
    return m


class _Certified:
    """Best genuinely-evaluated gradient seen so far, with its point."""

    __slots__ = ("point", "norm")

    def __init__(self, point: Vector, norm: float):
        self.point = point
        self.norm = norm

    def consider(self, point: Vector, norm: float) -> None:
        if norm < self.norm:
            self.point = point
            self.norm = norm


def _kahan_add(state: EpochState, term: float) -> None:
    y = term - state.s_comp
    t = state.s + y
    state.s_comp = (t - state.s) - y
    state.s = t


def agd_step(state: EpochState, session: OracleSession, params: SolverParams,
             best: _Certified) -> tuple:
    """Run one accelerated iteration, update M and the running average, then
    apply the descent test and the progress test, in that order.  Returns
    the iteration's trace row, whose event names the outcome."""
    pol = params.termination
    state.k += 1
    state.K += 1
    k = state.k
    th = k / (k + 1.0)
    step_L = state.L

    x_new = state.y.x - (1.0 / step_L) * state.y.g
    dx = x_new - state.cur.x
    dx2 = float(dx.dot(dx))
    y_new = x_new + th * dx

    state.prev = state.cur
    state.cur = cur = Evaluated(x_new, session.value(x_new), session.grad(x_new),
                                session.grad_norm)
    state.y = y = Evaluated(y_new, session.value(y_new), session.grad(y_new),
                            session.grad_norm)
    _kahan_add(state, dx2)
    monitor = min(cur.norm, y.norm)

    ybar_k = state.y_bar  # average of y_0..y_{k-1}: the certifiable point
    ybar: Optional[Evaluated] = None
    if params.m_variant == M_THEORETICAL:
        ybar = Evaluated(ybar_k, None, session.grad(ybar_k), session.grad_norm)
    state.M = update_m(state, dx2, None if ybar is None else ybar.norm)

    if descent_condition_holds(state):
        kind = "RestartSuccessful" if restart2_triggered(state) else "Step"
    else:
        kind = "RestartUnsuccessful"
    if kind == "Step":  # a restart's new epoch starts its own average
        state.y_bar = _fold_average_exact(k, ybar_k, y_new)

    if ybar is None and (pol.certify_mode == CERTIFY_EVERY_ITER or kind != "Step"
                         or (pol.eps is not None and monitor <= pol.eps)):
        ybar = Evaluated(ybar_k, None, session.grad(ybar_k), session.grad_norm)
    if ybar is not None:
        best.consider(ybar_k, ybar.norm)

    if pol.certify_mode == CERTIFY_ON_CANDIDATE:
        best.consider(x_new, cur.norm)
        best.consider(y_new, y.norm)

    if kind == "Step" and pol.eps is not None and best.norm <= pol.eps:
        kind = "Terminated"

    row = (state.K, state.epoch, k, session.n_oracle, cur.f, monitor,
           None if ybar is None else ybar.norm, step_L, state.M, state.s, kind)

    # A failed descent test re-anchors at x_{k-1} and raises L; a met
    # progress test re-anchors at x_k and lowers L.  M survives both.
    if kind == "RestartUnsuccessful":
        state.L *= params.alpha
        _begin_epoch(state, state.prev)
    elif kind == "RestartSuccessful":
        state.L *= params.beta
        _begin_epoch(state, state.cur)

    return row


class _Proposed:
    """The adaptive method as a step object; ``state`` is its EpochState."""

    def __init__(self, session: OracleSession, x0: Vector, params: SolverParams):
        f0 = session.value(x0)
        g0 = session.grad(x0)
        self.session, self.params = session, params
        self.state = new_state(x0, f0, g0, params.l_init, params.m0, session.grad_norm)
        self.best = _Certified(x0, self.state.anchor.norm)
        self.anchors = [f0]

    @property
    def base(self) -> Evaluated:
        return self.state.y

    @property
    def final(self):
        return self.state.epoch, self.state.L, self.state.M

    def step(self) -> tuple:
        row = agd_step(self.state, self.session, self.params, self.best)
        if row[-1] in ("RestartUnsuccessful", "RestartSuccessful"):
            self.anchors.append(self.state.anchor.f)
        return row


@np.errstate(all="ignore")
def drive(obj: Objective, x_init, params, method, observer=None) -> RunReport:
    """Run the step-object class ``method`` until ``params.termination``
    stops it, checking before each step, in order: a zero gradient at the
    next base point (``Stationary``), ``eps``, the call and iteration budgets
    and the clock.  The rows go column-wise into the report's :class:`Trace`;
    ``observer(method, record)`` sees each as a :class:`TraceRecord` built for
    it alone.  An :class:`OracleError` (an exception from the objective
    included, raised as :class:`~restartagd.oracle.ObjectiveRaised`) or a
    ``KeyboardInterrupt``, which keeps its type, leaves with the rows so far,
    as records, in the list ``exc.partial_trace``.

    NumPy's floating-point warnings are silenced for the whole run, in one
    context entered here: a context per oracle call costs more than a cheap
    objective's own evaluation.  The warnings carry nothing the run needs:
    the session turns a non-finite value or gradient into a typed
    :class:`OracleError`, an overflowed gradient norm reads as +inf and never
    certifies, and ``ll2022``'s uncounted diagnostic value may read NaN."""
    pol = params.termination
    t0 = time.perf_counter()
    session = OracleSession(obj)
    trace = Trace()
    try:
        m = method(session, as_point(x_init, obj.dim), params)
        best = m.best
        calls, norms = array("q", [session.n_oracle]), array("d", [best.norm])
        while True:
            if m.base.norm == 0.0:
                best.consider(m.base.x, 0.0)
                reason = "Stationary"
                break
            if pol.eps is not None and best.norm <= pol.eps:
                reason = "EpsReached"
                break
            if ((pol.max_oracle_calls is not None and session.n_oracle >= pol.max_oracle_calls)
                    or (pol.max_iterations is not None and len(trace) >= pol.max_iterations)):
                reason = "BudgetExhausted"
                break
            if pol.max_seconds is not None and time.perf_counter() - t0 >= pol.max_seconds:
                reason = "TimeLimit"
                break

            row = m.step()
            trace.append(row)
            if best.norm < norms[-1]:
                calls.append(session.n_oracle)
                norms.append(best.norm)
            if observer is not None:
                observer(m, TraceRecord(*row))
            if row[-1] == "Terminated":
                reason = "EpsReached"
                break
    except (OracleError, KeyboardInterrupt) as exc:
        exc.partial_trace = list(trace)  # type: ignore[attr-defined]
        raise
    if best.norm < norms[-1]:  # a Stationary stop certifies a zero gradient
        calls.append(session.n_oracle)
        norms.append(best.norm)

    epochs, final_L, final_M = m.final
    return RunReport(
        solution=best.point, certified_grad_norm=best.norm,
        total_K=len(trace), total_epochs=epochs,
        n_value=session.n_value, n_grad=session.n_grad,
        reason=reason, final_L=final_L, final_M=final_M,
        trace=trace, anchor_values=m.anchors, certified=(calls, norms),
    )


def run(obj: Objective, x_init, params: SolverParams,
        observer: Optional[Callable[[_Proposed, TraceRecord], None]] = None,
        ) -> RunReport:
    """Minimize ``obj`` from ``x_init``.

    Stops by certified gradient norm, oracle budget, wall clock, or exact
    stationarity, whichever comes first per the termination policy.  The
    reported solution is the best point whose gradient the run actually
    evaluated; with certify_mode="EveryIter" (and with the theoretical M
    variant) that pool is the averaged points, the accounting used by the
    complexity analysis, while the default "OnCandidate" also admits the
    per-iteration monitor points.

    ``observer(method, record)`` is called after every iteration, with
    ``method.state`` the run's :class:`EpochState`.  Oracle errors propagate
    with the trace so far attached as ``exc.partial_trace``.
    """
    return drive(obj, x_init, params, _Proposed, observer)
