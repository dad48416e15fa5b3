"""Baseline first-order methods for benchmark comparisons.

``gd_run`` is gradient descent with a doubling/shrinking step-size search on
the standard sufficient-decrease test.  ``ll2022_run`` is the fixed-parameter
restarted accelerated method it is compared against: constant step 1/L_f,
constant momentum derived from (L_f, M_f, eps), and a displacement-budget
restart test.  Both report through the same :class:`RunReport` type as the
adaptive solver, and both certify their answer with a genuinely evaluated
gradient.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .oracle import Objective, OracleError, OracleSession, Vector, as_point
from .solver import TerminationPolicy, _Certified
from .trace import RunReport, TraceRecord


class ParamError(ValueError):
    """Baseline parameters are outside their admissible range."""


@dataclass(frozen=True)
class GdParams:
    l_init: float = 1e-3
    alpha: float = 2.0
    beta: float = 0.9
    termination: TerminationPolicy = field(
        default_factory=lambda: TerminationPolicy(eps=1e-6, max_oracle_calls=100_000)
    )

    def __post_init__(self):
        if self.l_init <= 0:
            raise ParamError("l_init must be positive")
        if self.alpha <= 1:
            raise ParamError("alpha must exceed 1")
        if not 0 < self.beta <= 1:
            raise ParamError("beta must lie in (0, 1]")


def gd_run(obj: Objective, x_init, params: GdParams) -> RunReport:
    """Gradient descent with backtracking on the curvature guess.

    A trial step x - (1/L) grad f(x) is accepted iff it achieves the decrease
    f(x) - ||grad f(x)||^2 / (2L) guaranteed for a true curvature bound; a
    rejected trial doubles L by ``alpha``, an accepted one relaxes it by
    ``beta`` down to the floor ``l_init``.  Each trial costs one value
    evaluation, each acceptance one gradient more.
    """
    pol = params.termination
    t0 = time.perf_counter()
    session = OracleSession(obj)
    x = as_point(x_init, obj.dim)

    trace: List[TraceRecord] = []
    try:
        f = session.value(x)
        g = session.grad(x)
    except OracleError as exc:
        exc.partial_trace = trace  # type: ignore[attr-defined]
        raise
    g_norm = math.sqrt(float(g @ g))
    best = _Certified(x, g_norm)
    anchors = [f]
    L = params.l_init
    trials = 0
    accepted = 0
    rejected = 0

    while True:
        if g_norm == 0.0:
            best.consider(x, 0.0)
            reason = "Stationary"
            break
        if pol.eps is not None and best.norm <= pol.eps:
            reason = "EpsReached"
            break
        if pol.max_oracle_calls is not None and session.n_oracle >= pol.max_oracle_calls:
            reason = "BudgetExhausted"
            break
        if pol.max_iterations is not None and trials >= pol.max_iterations:
            reason = "BudgetExhausted"
            break
        if pol.max_seconds is not None and time.perf_counter() - t0 >= pol.max_seconds:
            reason = "TimeLimit"
            break

        trials += 1
        trial_L = L
        x_trial = x - (1.0 / L) * g
        try:
            f_trial = session.value(x_trial)
            if f_trial <= f - g_norm * g_norm / (2.0 * L):
                x, f = x_trial, f_trial
                g = session.grad(x)
                g_norm = math.sqrt(float(g @ g))
                best.consider(x, g_norm)
                anchors.append(f)
                accepted += 1
                L = max(params.beta * L, params.l_init)
                event = "Step"
            else:
                rejected += 1
                L = params.alpha * L
                event = "RestartUnsuccessful"
        except OracleError as exc:
            exc.partial_trace = trace  # type: ignore[attr-defined]
            raise
        trace.append(TraceRecord(
            K=trials, epoch=rejected + 1, k=accepted, n_oracle=session.n_oracle,
            f_x=f, grad_norm_monitor=g_norm, grad_norm_ybar=None,
            L=trial_L, M=0.0, S_k=0.0, event=event,
        ))

    return RunReport(
        solution=best.point, certified_grad_norm=best.norm,
        total_K=trials, total_epochs=rejected + 1,
        n_value=session.counter.n_value, n_grad=session.counter.n_grad,
        reason=reason, final_L=L, final_M=0.0,
        trace=trace, anchor_values=anchors,
    )


@dataclass(frozen=True)
class LL2022Params:
    """Inputs of the fixed-parameter method: a curvature bound ``l_f``, a
    Hessian-Lipschitz bound ``m_f``, and the accuracy ``eps`` its momentum
    and restart test are tuned for (the original tuning used eps = 1e-16)."""

    l_f: float
    m_f: float = 1.0
    eps: float = 1e-16
    termination: TerminationPolicy = field(
        default_factory=lambda: TerminationPolicy(eps=1e-6, max_oracle_calls=100_000)
    )

    def __post_init__(self):
        if self.l_f <= 0 or self.m_f <= 0 or self.eps <= 0:
            raise ParamError("l_f, m_f, eps must be positive")
        if self.momentum <= 0.0:
            raise ParamError(
                "momentum 1 - 2 (m_f eps)^(1/4) / sqrt(l_f) is not positive; "
                "increase l_f or decrease m_f * eps"
            )

    @property
    def momentum(self) -> float:
        return 1.0 - 2.0 * (self.m_f * self.eps) ** 0.25 / math.sqrt(self.l_f)


def ll2022_run(obj: Objective, x_init, params: LL2022Params) -> RunReport:
    """Fixed-step accelerated method with a displacement-budget restart.

    Iterates x_k = y_{k-1} - (1/L_f) grad f(y_{k-1}) with constant momentum
    theta; once k * M_f * S_k exceeds the tuned eps the method re-anchors at
    x_k and resets its momentum.  Costs exactly one gradient per iteration
    and never evaluates the objective value (the f column in the trace is a
    free diagnostic, computed outside the counted oracle).  When the iterate
    equals the point of the last gradient, which is every restart, an
    objective that memoizes its last point (as matrix completion does) can
    serve the diagnostic at almost no cost.
    """
    pol = params.termination
    th = params.momentum
    t0 = time.perf_counter()
    session = OracleSession(obj)
    anchor = as_point(x_init, obj.dim)

    trace: List[TraceRecord] = []
    x_prev = anchor
    y = anchor
    try:
        g = session.grad(y)
    except OracleError as exc:
        exc.partial_trace = trace  # type: ignore[attr-defined]
        raise
    g_norm = math.sqrt(float(g @ g))
    best = _Certified(y, g_norm)
    s = 0.0
    k = 0
    big_k = 0
    epoch = 1

    while True:
        if g_norm == 0.0:
            best.consider(y, 0.0)
            reason = "Stationary"
            break
        if pol.eps is not None and best.norm <= pol.eps:
            reason = "EpsReached"
            break
        if pol.max_oracle_calls is not None and session.n_oracle >= pol.max_oracle_calls:
            reason = "BudgetExhausted"
            break
        if pol.max_iterations is not None and big_k >= pol.max_iterations:
            reason = "BudgetExhausted"
            break
        if pol.max_seconds is not None and time.perf_counter() - t0 >= pol.max_seconds:
            reason = "TimeLimit"
            break

        k += 1
        big_k += 1
        x_new = y - (1.0 / params.l_f) * g
        dx = x_new - x_prev
        s += float(dx @ dx)
        s_row = s
        k_row = k
        if k * params.m_f * s > params.eps:
            y = x_new
            s = 0.0
            k = 0
            event = "RestartSuccessful"
        else:
            y = x_new + th * dx
            event = "Step"
        x_prev = x_new
        try:
            g = session.grad(y)
        except OracleError as exc:
            exc.partial_trace = trace  # type: ignore[attr-defined]
            raise
        g_norm = math.sqrt(float(g @ g))
        best.consider(y, g_norm)

        with np.errstate(all="ignore"):
            try:
                f_diag = float(obj.value_fn(x_new))
            except (ArithmeticError, ValueError):
                f_diag = float("nan")
        trace.append(TraceRecord(
            K=big_k, epoch=epoch, k=k_row, n_oracle=session.n_oracle,
            f_x=f_diag, grad_norm_monitor=g_norm, grad_norm_ybar=None,
            L=params.l_f, M=params.m_f, S_k=s_row, event=event,
        ))
        if event == "RestartSuccessful":
            epoch += 1

    return RunReport(
        solution=best.point, certified_grad_norm=best.norm,
        total_K=big_k, total_epochs=epoch,
        n_value=session.counter.n_value, n_grad=session.counter.n_grad,
        reason=reason, final_L=params.l_f, final_M=params.m_f,
        trace=trace, anchor_values=[],
    )
