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

from .oracle import Objective, ObjectiveRaised, OracleSession, Vector
from .solver import (DEFAULT_TERMINATION, Evaluated, TerminationPolicy,
                     _Certified, check_finite, drive)
from .trace import RunReport


class ParamError(ValueError):
    """Baseline parameters are outside their admissible range."""


@dataclass(frozen=True)
class GdParams:
    l_init: float = 1e-3
    alpha: float = 2.0
    beta: float = 0.9
    termination: TerminationPolicy = DEFAULT_TERMINATION

    def __post_init__(self):
        check_finite("l_init", self.l_init, 0, error=ParamError)
        check_finite("alpha", self.alpha, 1, error=ParamError)
        if not 0 < self.beta <= 1:
            raise ParamError("beta must lie in (0, 1]")


class _Gd:
    """The step object of :func:`gd_run`."""

    def __init__(self, session: OracleSession, x0: Vector, params: GdParams):
        self.session, self.params = session, params
        self.base = Evaluated(x0, session.value(x0), session.grad(x0), session.grad_norm)
        self.best = _Certified(x0, self.base.norm)
        self.anchors = [self.base.f]
        self.L = params.l_init
        self.accepted = self.rejected = 0

    @property
    def final(self):
        return self.rejected + 1, self.L, 0.0

    def step(self) -> tuple:
        p, session, base = self.params, self.session, self.base
        trial_L = self.L
        x_trial = base.x - (1.0 / trial_L) * base.g
        f_trial = session.value(x_trial)
        if f_trial <= base.f - base.norm * base.norm / (2.0 * trial_L):
            self.base = base = Evaluated(x_trial, f_trial, session.grad(x_trial),
                                         session.grad_norm)
            self.best.consider(x_trial, base.norm)
            self.anchors.append(f_trial)
            self.accepted += 1
            self.L = max(p.beta * trial_L, p.l_init)
            event = "Step"
        else:
            self.rejected += 1
            self.L = p.alpha * trial_L
            event = "RestartUnsuccessful"
        return (self.accepted + self.rejected, self.rejected + 1, self.accepted,
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
            check_finite(name, getattr(self, name), 0, error=ParamError)
        if self.momentum <= 0.0:
            raise ParamError(
                "momentum 1 - 2 (m_f eps)^(1/4) / sqrt(l_f) is not positive; "
                "increase l_f or decrease m_f * eps"
            )

    @property
    def momentum(self) -> float:
        return 1.0 - 2.0 * (self.m_f * self.eps) ** 0.25 / math.sqrt(self.l_f)


class _LL2022:
    """The step object of :func:`ll2022_run`."""

    def __init__(self, session: OracleSession, x0: Vector, params: LL2022Params):
        self.session, self.params = session, params
        self.momentum = params.momentum
        self.x_prev = x0
        self.base = Evaluated(x0, None, session.grad(x0), session.grad_norm)
        self.best = _Certified(x0, self.base.norm)
        self.anchors: List[float] = []
        self.s = 0.0
        self.k = self.K = 0
        self.epoch = 1

    @property
    def final(self):
        return self.epoch, self.params.l_f, self.params.m_f

    def step(self) -> tuple:
        p, session = self.params, self.session
        k = self.k + 1
        self.K += 1
        x_new = self.base.x - (1.0 / p.l_f) * self.base.g
        dx = x_new - self.x_prev
        s = self.s + float(dx.dot(dx))
        restart = k * p.m_f * s > p.eps
        y = x_new if restart else x_new + self.momentum * dx
        self.x_prev = x_new
        self.base = base = Evaluated(y, None, session.grad(y), session.grad_norm)
        self.best.consider(y, base.norm)

        try:
            f_diag = float(session.obj.value_fn(x_new))
        except (ArithmeticError, ValueError):
            f_diag = float("nan")
        except Exception as exc:
            raise ObjectiveRaised("value_fn", exc) from exc
        row = (self.K, self.epoch, k, session.n_oracle, f_diag, base.norm, None,
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
    objective that memoizes its last point (as matrix completion does) can
    serve the diagnostic at almost no cost.
    """
    return drive(obj, x_init, params, _LL2022)
