"""Baseline first-order methods for benchmark comparisons.

``gd_run`` is gradient descent with a doubling/shrinking step-size search on
the standard sufficient-decrease test.  ``ll2022_run`` is the fixed-parameter
restarted accelerated method it is compared against: constant step 1/L_f,
constant momentum derived from (L_f, M_f, eps), and a displacement-budget
restart test.  Both run through the adaptive solver's driver loop
(:func:`~restartagd.solver.drive`), so they stop, fail and report exactly as
it does, and both certify their answer with a genuinely evaluated gradient.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from .oracle import Evaluated, Objective, ObjectiveRaised, OracleSession, Vector, one_point
from .solver import DEFAULT_TERMINATION, ParamError, TerminationPolicy, check_finite, drive
from .trace import RunReport


@dataclass(frozen=True)
class GdParams:
    l_init: float = 1e-3
    alpha: float = 2.0
    beta: float = 0.9
    termination: TerminationPolicy = DEFAULT_TERMINATION

    def __post_init__(self):
        check_finite("l_init", self.l_init, 0)
        check_finite("alpha", self.alpha, 1)
        if not 0 < self.beta <= 1:
            raise ParamError("beta must lie in (0, 1]")


class _Gd:
    """The step object of :func:`gd_run`.  It is never marked stalled, so only
    a budget or the clock stops it, yet it can sit at a fixed point: on
    ``cosine_sum`` with ``l_init=1`` and ``max_iterations=2000`` it makes its
    last call at row 7 (16 calls), and each of the 1,993 rows after it
    repeats that row but for ``K`` and ``k`` while one anchor is appended a
    row (2,001 in all).  Stopping it there is ROADMAP item 1."""

    def __init__(self, session: OracleSession, x0: Vector, params: GdParams):
        self.session, self.params = session, params
        self.base = self.best = session.evaluate(x0)
        self.anchors = [self.base.f]
        self.L, self.M = params.l_init, 0.0
        self.accepted, self.epoch, self.stalled = 0, 1, False

    def step(self, K: int) -> tuple:
        p, session, base = self.params, self.session, self.base
        trial_L = self.L
        x_trial = base.x - (1.0 / trial_L) * base.g
        f_trial = session.value(x_trial)
        if f_trial <= base.f - base.norm * base.norm / (2.0 * trial_L):
            self.base = base = Evaluated(x_trial, f_trial, session.grad(x_trial), session.grad_norm)
            self.best = self.best.better(base)
            self.anchors.append(f_trial)
            self.accepted += 1
            self.L = max(p.beta * trial_L, p.l_init)
            event = "Step"
        else:
            self.epoch += 1
            self.L = p.alpha * trial_L
            event = "RestartUnsuccessful"
        return (K, self.epoch, self.accepted,
                session.n_oracle, base.f, base.norm, None, trial_L, 0.0, 0.0, event)


def gd_run(obj: Objective, x_init, params: GdParams) -> RunReport:
    """Gradient descent with backtracking on the curvature guess.

    A trial step x - (1/L) grad f(x) is accepted iff it achieves the decrease
    f(x) - ||grad f(x)||^2 / (2L) guaranteed for a true curvature bound; a
    rejected trial doubles L by ``alpha``, an accepted one relaxes it by
    ``beta`` down to the floor ``l_init``.  Each trial costs one value
    evaluation, each acceptance one gradient more.
    """
    return drive(obj, x_init, params, _Gd)


@dataclass(frozen=True)
class LL2022Params:
    """Inputs of the fixed-parameter method: a curvature bound ``l_f``, a
    Hessian-Lipschitz bound ``m_f``, and the accuracy ``eps`` its momentum
    and restart test are tuned for (the original tuning used eps = 1e-16)."""

    l_f: float
    m_f: float = 1.0
    eps: float = 1e-16
    termination: TerminationPolicy = DEFAULT_TERMINATION

    def __post_init__(self):
        for name in ("l_f", "m_f", "eps"):
            check_finite(name, getattr(self, name), 0)
        if self.momentum <= 0.0:
            raise ParamError(
                "momentum 1 - 2 (m_f eps)^(1/4) / sqrt(l_f) is not positive; "
                "increase l_f or decrease m_f * eps"
            )

    @property
    def momentum(self) -> float:
        return 1.0 - 2.0 * (self.m_f * self.eps) ** 0.25 / math.sqrt(self.l_f)


class _LL2022:
    """The step object of :func:`ll2022_run`.  ``stalled`` holds after a step
    that did not restart and began and ended at one point: the base, x_{k-1},
    x_k and y_k bitwise equal.  Every later step then takes the same step
    from the same point, adds a zero displacement (which, as this step
    shows, leaves y_k as it is) and asks the memo for that point again, so
    the point never moves and no call is made.  With ``s`` = 0 every later row
    repeats this one but ``K`` and ``k``; with ``s`` > 0 the restart test
    fires at some large ``k`` and starts an epoch at the same point, after
    which ``s`` is 0."""

    def __init__(self, session: OracleSession, x0: Vector, params: LL2022Params):
        self.session, self.params = session, params
        self.momentum, self.L, self.M = params.momentum, params.l_f, params.m_f
        self.x_prev = x0
        self.base = self.best = session.evaluate(x0, value=False)
        self.anchors: List[float] = []
        self.s, self.k, self.epoch, self.stalled = 0.0, 0, 1, False

    def step(self, K: int) -> tuple:
        p, session, base = self.params, self.session, self.base
        k = self.k + 1
        x_new = base.x - (1.0 / p.l_f) * base.g
        dx = x_new - self.x_prev
        s = self.s + float(dx.dot(dx))
        restart = k * p.m_f * s > p.eps
        y = x_new if restart else x_new + self.momentum * dx
        self.stalled = s == self.s and not restart and one_point(base.x, self.x_prev, x_new, y)
        self.x_prev = x_new
        self.base = base = session.evaluate(y, value=False)
        self.best = self.best.better(base)

        try:
            f_diag = float(session.obj.value_fn(x_new))
        except (ArithmeticError, ValueError):
            f_diag = float("nan")
        except Exception as exc:
            raise ObjectiveRaised("value_fn", exc) from exc
        row = (K, self.epoch, k, session.n_oracle, f_diag, base.norm, None,
               p.l_f, p.m_f, s, "RestartSuccessful" if restart else "Step")
        if restart:
            k, s = 0, 0.0
            self.epoch += 1
        self.k, self.s = k, s
        return row


def ll2022_run(obj: Objective, x_init, params: LL2022Params) -> RunReport:
    """Fixed-step accelerated method with a displacement-budget restart.

    Iterates x_k = y_{k-1} - (1/L_f) grad f(y_{k-1}) with constant momentum
    theta; once k * M_f * S_k exceeds the tuned eps the method re-anchors at
    x_k and resets its momentum.  Costs exactly one gradient per iteration
    and never evaluates the objective value (the f column in the trace is a
    free diagnostic, computed outside the counted oracle).  When the iterate
    equals the point of the last gradient, which is every restart, an
    objective that memoizes its last evaluated point (as matrix completion
    does, besides its process-wide cache of recent points' values and
    gradients) can serve the diagnostic at almost no cost.
    """
    return drive(obj, x_init, params, _LL2022)
