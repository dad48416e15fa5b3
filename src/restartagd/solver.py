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
of an :class:`OracleError` and the :class:`RunReport`.  A method is a step
object built as ``method(session, x0, params)``, which makes the first
evaluations; ``step()`` returns one iteration's :class:`TraceRecord` (event
``Terminated`` ends the run as ``EpsReached``), ``point`` and ``grad_norm`` are
the next step's base point and its gradient norm, ``best`` the best evaluated
gradient with its point, ``anchors`` the anchor values and ``final`` the final
``(epochs, L, M)``.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .oracle import Objective, OracleError, OracleSession, Vector, as_point
from .trace import RunReport, TraceRecord

M_PRACTICAL = "practical"
M_THEORETICAL = "theoretical"

CERTIFY_ON_CANDIDATE = "OnCandidate"
CERTIFY_EVERY_ITER = "EveryIter"

_EPS = float(np.finfo(np.float64).eps)
# A measured ratio feeds the curvature estimate only when its numerator
# exceeds this many units of its own floating-point noise floor; anything
# smaller is cancellation garbage, not curvature.
_NOISE_GUARD = 1e9


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
        if self.eps is not None and self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.max_oracle_calls is not None and self.max_oracle_calls < 1:
            raise ValueError("max_oracle_calls must be >= 1")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise ValueError("max_seconds must be positive")
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
        if self.l_init <= 0:
            raise ValueError("l_init must be positive")
        if self.m0 <= 0:
            raise ValueError("m0 must be positive")
        if self.alpha <= 1:
            raise ValueError("alpha must exceed 1")
        if not 0 < self.beta <= 1:
            raise ValueError("beta must lie in (0, 1]")
        if self.m_variant not in (M_PRACTICAL, M_THEORETICAL):
            raise ValueError(f"unknown m_variant {self.m_variant!r}")


@dataclass
class EpochState:
    """Mutable state of one run: the current epoch's iterates and caches plus
    the run-wide counters.  ``z`` and ``y_bar`` describe the averaged point
    for the *upcoming* inner index, i.e. after iteration k they hold
    Z_{k+1} and the average of y_0..y_k."""

    k: int
    K: int
    epoch: int
    L: float
    M: float
    x_prev: Vector
    x_cur: Vector
    y_cur: Vector
    f_x0: float
    f_x_prev: float
    f_x_cur: float
    f_y_cur: float
    grad_x_prev: Vector
    grad_x_cur: Vector
    grad_y_cur: Vector
    s: float = 0.0
    s_comp: float = 0.0
    z: float = 1.0
    y_bar: Vector = None  # type: ignore[assignment]


def _fold_average_exact(k: int, y_bar: Vector, y: Vector):
    """Fold ``y`` into the running average with momentum weight th = k/(k+1),
    where th*Z_k = k/2 exactly; keeps the normalizer Z_{k+1} = (k+2)/2 bit-exact."""
    return (k + 2.0) / 2.0, (2.0 * y + k * y_bar) / (k + 2.0)


def new_state(x0: Vector, f0: float, g0: Vector, l_init: float, m0: float) -> EpochState:
    return EpochState(
        k=0, K=0, epoch=1, L=l_init, M=m0,
        x_prev=x0, x_cur=x0, y_cur=x0,
        f_x0=f0, f_x_prev=f0, f_x_cur=f0, f_y_cur=f0,
        grad_x_prev=g0, grad_x_cur=g0, grad_y_cur=g0,
        s=0.0, s_comp=0.0, z=1.0, y_bar=x0,
    )


def _begin_epoch(state: EpochState, anchor: Vector, f_anchor: float, g_anchor: Vector) -> None:
    state.k = 0
    state.epoch += 1
    state.x_prev = anchor
    state.x_cur = anchor
    state.y_cur = anchor
    state.f_x0 = f_anchor
    state.f_x_prev = f_anchor
    state.f_x_cur = f_anchor
    state.f_y_cur = f_anchor
    state.grad_x_prev = g_anchor
    state.grad_x_cur = g_anchor
    state.grad_y_cur = g_anchor
    state.s = 0.0
    state.s_comp = 0.0
    state.z = 1.0
    state.y_bar = anchor


def restart_unsuccessful(state: EpochState, alpha: float) -> None:
    """Epoch failed its descent test: re-anchor at the previous iterate and
    raise L.  The curvature estimate M survives."""
    state.L *= alpha
    _begin_epoch(state, state.x_prev, state.f_x_prev, state.grad_x_prev)


def restart_successful(state: EpochState, beta: float) -> None:
    """Epoch made its guaranteed progress: re-anchor at the current iterate
    and lower L.  M survives."""
    state.L *= beta
    _begin_epoch(state, state.x_cur, state.f_x_cur, state.grad_x_cur)


def descent_condition_holds(state: EpochState) -> bool:
    """Guaranteed-decrease test against the epoch anchor; equality counts as
    holding."""
    bound = state.f_x0 - state.L * state.s / (2.0 * (state.k + 1.0))
    return state.f_x_cur <= bound


def restart2_triggered(state: EpochState) -> bool:
    """Progress test (k+1)^5 M^2 S_k > L^2 ending a successful epoch."""
    k1 = state.k + 1.0
    return (k1 ** 5) * state.M * state.M * state.s > state.L * state.L


def update_m_practical(state: EpochState) -> float:
    """Raise M to cover the two measured third-order ratios at the newest
    iterate pair: the trapezoid gap between x_k and y_k, and the momentum
    interpolation error against x_{k-1}.

    Zero-displacement ratios are skipped (0/0 reads as no information), and a
    ratio whose numerator is within floating-point noise of zero is skipped
    for the same reason.  The second ratio's noise floor includes an
    L*(1+||x||) term: y_k is stored rounded, so it sits off the exact
    momentum ray by an ulp of the iterate, and the gradient combination
    picks up curvature times that offset no matter how small the step is.
    """
    m = state.M
    th = state.k / (state.k + 1.0)
    xscale = 1.0 + math.sqrt(float(state.x_cur @ state.x_cur))
    d_yx = state.y_cur - state.x_cur
    hy2 = float(d_yx @ d_yx)
    hy = math.sqrt(hy2)
    # Cubed subnormal displacements can underflow to an exact zero, so gate
    # on the actual denominators, not on the displacement alone.
    h3 = hy2 * hy
    if h3 > 0.0:
        gsum = state.grad_y_cur + state.grad_x_cur
        num1 = state.f_y_cur - state.f_x_cur - 0.5 * float(gsum @ d_yx)
        noise1 = _EPS * (abs(state.f_y_cur) + abs(state.f_x_cur)
                         + 0.5 * math.sqrt(float(gsum @ gsum)) * hy)
        if num1 > _NOISE_GUARD * noise1:
            m = max(m, 12.0 * num1 / h3)
    dx = state.x_cur - state.x_prev
    dx2 = float(dx @ dx)
    den2 = th * dx2
    if den2 > 0.0:
        comb = state.grad_y_cur + th * state.grad_x_prev - (1.0 + th) * state.grad_x_cur
        num2 = math.sqrt(float(comb @ comb))
        noise2 = _EPS * (
            math.sqrt(float(state.grad_y_cur @ state.grad_y_cur))
            + th * math.sqrt(float(state.grad_x_prev @ state.grad_x_prev))
            + (1.0 + th) * math.sqrt(float(state.grad_x_cur @ state.grad_x_cur))
            + state.L * xscale
        )
        if num2 > _NOISE_GUARD * noise2:
            m = max(m, num2 / den2)
    return m


def update_m_theoretical(state: EpochState, grad_ybar_norm: float) -> float:
    """Practical update plus a third ratio measured at the averaged point.

    Call with ``state.z`` still holding Z_k (i.e. before folding y_k into the
    average).  The extra term is skipped at k = 1 and whenever it is
    non-positive or inside its noise floor; like the momentum ratio, its
    floor carries a Z^2*L*(1+||x||) term because the identity it rests on is
    only exact for unrounded iterates.
    """
    m = update_m_practical(state)
    k = state.k
    if k < 2 or state.s <= 0.0:
        return m
    dx = state.x_cur - state.x_prev
    h = math.sqrt(float(dx @ dx))
    z = state.z
    xscale = 1.0 + math.sqrt(float(state.x_cur @ state.x_cur))
    a = z * z * grad_ybar_norm
    b = z * state.L * h
    num3 = a - b
    noise3 = _EPS * (a + b + z * z * state.L * xscale)
    if num3 > _NOISE_GUARD * noise3:
        den3 = (k - 1.0) * (k + 5.0) ** 2 * state.s
        m = max(m, 16.0 * num3 / den3)
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
             best: _Certified) -> TraceRecord:
    """Run one accelerated iteration, update M and the running average, then
    apply the descent test and the progress test, in that order.  The
    returned record's event names the outcome."""
    pol = params.termination
    state.k += 1
    state.K += 1
    k = state.k
    th = k / (k + 1.0)
    step_L = state.L

    x_new = state.y_cur - (1.0 / step_L) * state.grad_y_cur
    dx = x_new - state.x_cur
    dx2 = float(dx @ dx)
    y_new = x_new + th * dx

    state.x_prev = state.x_cur
    state.f_x_prev = state.f_x_cur
    state.grad_x_prev = state.grad_x_cur
    state.x_cur = x_new
    state.y_cur = y_new

    f_x = session.value(x_new)
    g_x = session.grad(x_new)
    f_y = session.value(y_new)
    g_y = session.grad(y_new)
    state.f_x_cur = f_x
    state.grad_x_cur = g_x
    state.f_y_cur = f_y
    state.grad_y_cur = g_y
    _kahan_add(state, dx2)

    gx_norm = math.sqrt(float(g_x @ g_x))
    gy_norm = math.sqrt(float(g_y @ g_y))
    monitor = min(gx_norm, gy_norm)

    ybar_k = state.y_bar  # average of y_0..y_{k-1}: the certifiable point
    grad_ybar_norm: Optional[float] = None

    if params.m_variant == M_THEORETICAL:
        g_ybar = session.grad(ybar_k)
        grad_ybar_norm = math.sqrt(float(g_ybar @ g_ybar))
        best.consider(ybar_k, grad_ybar_norm)
        state.M = update_m_theoretical(state, grad_ybar_norm)
    else:
        state.M = update_m_practical(state)

    state.z, state.y_bar = _fold_average_exact(k, ybar_k, y_new)

    if descent_condition_holds(state):
        kind = "RestartSuccessful" if restart2_triggered(state) else "Step"
    else:
        kind = "RestartUnsuccessful"

    if params.m_variant != M_THEORETICAL:
        want_cert = (
            pol.certify_mode == CERTIFY_EVERY_ITER
            or kind in ("RestartUnsuccessful", "RestartSuccessful")
            or (pol.eps is not None and monitor <= pol.eps)
        )
        if want_cert:
            g_ybar = session.grad(ybar_k)
            grad_ybar_norm = math.sqrt(float(g_ybar @ g_ybar))
            best.consider(ybar_k, grad_ybar_norm)

    if pol.certify_mode == CERTIFY_ON_CANDIDATE:
        best.consider(x_new, gx_norm)
        best.consider(y_new, gy_norm)

    if kind == "Step" and pol.eps is not None and best.norm <= pol.eps:
        kind = "Terminated"

    record = TraceRecord(
        K=state.K, epoch=state.epoch, k=k, n_oracle=session.n_oracle,
        f_x=f_x, grad_norm_monitor=monitor, grad_norm_ybar=grad_ybar_norm,
        L=step_L, M=state.M, S_k=state.s, event=kind,
    )

    if kind == "RestartUnsuccessful":
        restart_unsuccessful(state, params.alpha)
    elif kind == "RestartSuccessful":
        restart_successful(state, params.beta)

    return record


class _Proposed:
    """The adaptive method as a step object; ``state`` is its EpochState."""

    def __init__(self, session: OracleSession, x0: Vector, params: SolverParams):
        f0 = session.value(x0)
        g0 = session.grad(x0)
        self.session, self.params = session, params
        self.state = new_state(x0, f0, g0, params.l_init, params.m0)
        self.best = _Certified(x0, math.sqrt(float(g0 @ g0)))
        self.anchors = [f0]

    @property
    def point(self) -> Vector:
        return self.state.y_cur

    @property
    def grad_norm(self) -> float:
        g = self.state.grad_y_cur
        return math.sqrt(float(g @ g))

    @property
    def final(self):
        return self.state.epoch, self.state.L, self.state.M

    def step(self) -> TraceRecord:
        record = agd_step(self.state, self.session, self.params, self.best)
        if record.event in ("RestartUnsuccessful", "RestartSuccessful"):
            self.anchors.append(self.state.f_x0)
        return record


def drive(obj: Objective, x_init, params, method, observer=None) -> RunReport:
    """Run the step-object class ``method`` until ``params.termination``
    stops it, checking before each step, in order: a zero gradient at the
    next base point (``Stationary``), ``eps``, the call and iteration budgets
    and the clock.  ``observer(method, record)`` sees every record."""
    pol = params.termination
    t0 = time.perf_counter()
    session = OracleSession(obj)
    trace: List[TraceRecord] = []
    try:
        m = method(session, as_point(x_init, obj.dim), params)
        best = m.best
        while True:
            if m.grad_norm == 0.0:
                best.consider(m.point, 0.0)
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

            record = m.step()
            trace.append(record)
            if observer is not None:
                observer(m, record)
            if record.event == "Terminated":
                reason = "EpsReached"
                break
    except OracleError as exc:
        exc.partial_trace = trace  # type: ignore[attr-defined]
        raise

    epochs, final_L, final_M = m.final
    return RunReport(
        solution=best.point, certified_grad_norm=best.norm,
        total_K=len(trace), total_epochs=epochs,
        n_value=session.counter.n_value, n_grad=session.counter.n_grad,
        reason=reason, final_L=final_L, final_M=final_M,
        trace=trace, anchor_values=m.anchors,
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
