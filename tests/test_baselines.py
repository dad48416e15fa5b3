"""Baselines: backtracking gradient descent and the fixed-parameter
restarted accelerated method."""

import dataclasses

import numpy as np
import pytest

from restartagd import (GdParams, LL2022Params, NonFiniteGradient, ObjectiveRaised,
                        OracleSession, ParamError, TerminationPolicy, Trace, gd_run,
                        ll2022_run, make_problem, quadratic)
from reference import check_run


# ---------------------------------------------------------------------------
# gradient descent


def test_gd_params_validation():
    with pytest.raises(ParamError):
        GdParams(l_init=0.0)
    with pytest.raises(ParamError):
        GdParams(alpha=1.0)
    with pytest.raises(ParamError):
        GdParams(beta=1.5)
    for bad in (float("nan"), float("inf"), -float("inf")):
        for field in ("l_init", "alpha", "beta"):
            with pytest.raises(ParamError, match=field):
                GdParams(**{field: bad})


def test_gd_exact_curvature_lands_in_one_step():
    # lam = L = 2: the trial step hits the minimizer and satisfies the
    # decrease test with equality, so it is accepted; the next loop pass
    # sees a zero gradient.
    obj = quadratic(3, lam=2.0)
    x0 = np.array([1.0, -0.5, 2.0])
    rep = gd_run(obj, x0, GdParams(
        l_init=2.0, termination=TerminationPolicy(eps=1e-6, max_oracle_calls=100)))
    assert rep.reason == "Stationary"
    assert rep.total_K == 1
    assert rep.n_oracle == 4          # seed f+g, trial value, accept gradient
    assert rep.certified_grad_norm == 0.0
    assert rep.anchor_values == [5.25, 0.0]


def test_gd_rejects_double_l_until_step_fits():
    # lam = 10 from l_init = 1: trials at L = 1, 2, 4, 8 all miss the
    # sufficient decrease, L = 16 is the first acceptance.
    obj = quadratic(2, lam=10.0)
    rep = gd_run(obj, np.array([1.0, 1.0]), GdParams(
        l_init=1.0, termination=TerminationPolicy(max_iterations=5)))
    assert [r.event for r in rep.trace] == ["RestartUnsuccessful"] * 4 + ["Step"]
    assert [r.L for r in rep.trace] == [1.0, 2.0, 4.0, 8.0, 16.0]
    assert [r.k for r in rep.trace] == [0, 0, 0, 0, 1]
    # relaxation after acceptance, nowhere near the floor here
    assert rep.final_L == pytest.approx(14.4, rel=1e-15)


def test_gd_l_never_drops_below_floor():
    obj = quadratic(2, lam=1.0)
    rep = gd_run(obj, np.array([3.0, -4.0]), GdParams(
        l_init=5.0, termination=TerminationPolicy(max_iterations=10)))
    assert {r.L for r in rep.trace} == {5.0}
    assert {r.event for r in rep.trace} == {"Step"}


def test_gd_oracle_accounting():
    # one value per trial, one gradient per acceptance, two seed evals
    spec = make_problem("rosenbrock")
    rep = gd_run(spec.objective, spec.x_init, GdParams(
        l_init=100.0, termination=TerminationPolicy(eps=1e-4,
                                                    max_oracle_calls=100_000)))
    assert rep.reason == "EpsReached"
    accepted = rep.trace[-1].k
    assert rep.n_value == 1 + rep.total_K
    assert rep.n_grad == 1 + accepted


def test_gd_asks_for_each_value_once(monkeypatch):
    # The start and each trial ask ``value`` once; an accepted trial keeps
    # the value it was tested with instead of asking the memo again.
    asked = []
    value = OracleSession.value
    monkeypatch.setattr(OracleSession, "value", lambda self, x: asked.append(1) or value(self, x))
    spec = make_problem("rosenbrock")
    rep = gd_run(spec.objective, spec.x_init, GdParams(
        l_init=100.0, termination=TerminationPolicy(max_iterations=300)))
    assert {"Step", "RestartUnsuccessful"} <= set(rep.trace.event)
    assert len(asked) == rep.n_value == 1 + rep.total_K


def test_gd_lucky_start_hits_exact_minimizer():
    # From (-1,1) with l_init=1: the L=1 trial overshoots to (3,1) and is
    # rejected; the L=2 trial lands on (1,1), satisfies the decrease test
    # with equality, and leaves a zero gradient for the next loop pass.
    spec = make_problem("rosenbrock")
    rep = gd_run(spec.objective, spec.x_init, GdParams(
        l_init=1.0, termination=TerminationPolicy(eps=1e-4,
                                                  max_oracle_calls=100_000)))
    assert rep.reason == "Stationary"
    assert rep.total_K == 2
    assert rep.anchor_values == [4.0, 0.0]
    np.testing.assert_array_equal(rep.solution, [1.0, 1.0])
    assert rep.n_oracle == 5


def test_gd_anchors_never_increase():
    spec = make_problem("rosenbrock")
    rep = gd_run(spec.objective, spec.x_init, GdParams(
        l_init=100.0, termination=TerminationPolicy(eps=1e-4,
                                                    max_oracle_calls=100_000)))
    assert len(rep.anchor_values) > 100
    check_run(rep, spec.objective)


def test_gd_iteration_budget():
    spec = make_problem("cosine_sum", dim=5)
    rep = gd_run(spec.objective, spec.x_init, GdParams(
        l_init=1e-3, termination=TerminationPolicy(max_iterations=25)))
    assert rep.reason == "BudgetExhausted"
    assert rep.total_K == 25


# ---------------------------------------------------------------------------
# fixed-parameter restarted accelerated method


def test_ll_params_validation():
    with pytest.raises(ParamError):
        LL2022Params(l_f=0.0)
    with pytest.raises(ParamError):
        LL2022Params(l_f=1.0, m_f=-1.0)
    for bad in (float("nan"), float("inf"), -float("inf")):
        for field in ("l_f", "m_f", "eps"):
            with pytest.raises(ParamError, match=field):
                LL2022Params(**{"l_f": 1.0, field: bad})
    # momentum 1 - 2 (m_f eps)^(1/4) / sqrt(l_f) must come out positive
    with pytest.raises(ParamError):
        LL2022Params(l_f=0.01, m_f=1.0, eps=1.0)


def test_ll_momentum_frozen_value():
    assert LL2022Params(l_f=100.0, m_f=1.0, eps=1e-16).momentum == \
        pytest.approx(0.99998, rel=1e-12)


def test_ll_costs_one_gradient_per_iteration():
    # 50 momentum steps over distinct points: one counted gradient each,
    # plus the seed; the value channel is never touched.
    spec = make_problem("rosenbrock")
    rep = ll2022_run(spec.objective, spec.x_init, LL2022Params(
        l_f=1e4, m_f=1.0, eps=1.0,
        termination=TerminationPolicy(max_iterations=50, eps=1e-12)))
    assert rep.total_K == 50
    assert rep.n_grad == 1 + rep.total_K
    assert rep.n_value == 0
    assert rep.anchor_values == []


def test_ll_f_column_is_uncounted_diagnostic():
    spec = make_problem("cosine_sum", dim=4)
    rep = ll2022_run(spec.objective, spec.x_init, LL2022Params(
        l_f=1.0, termination=TerminationPolicy(max_iterations=10)))
    assert rep.n_value == 0
    assert all(np.isfinite(r.f_x) for r in rep.trace)


@pytest.mark.parametrize("error", [ZeroDivisionError, ValueError])
def test_ll_f_column_reads_nan_where_the_diagnostic_raises(error):
    # The diagnostic value is outside the counted oracle: an arithmetic or
    # value error there writes NaN and the run goes on as it would have.
    spec = make_problem("cosine_sum", dim=4)
    params = LL2022Params(l_f=1.0, termination=TerminationPolicy(max_iterations=10))

    def value(x):
        raise error("no value here")

    obj = dataclasses.replace(spec.objective, value_fn=value)
    rep = ll2022_run(obj, spec.x_init, params)
    clean = ll2022_run(spec.objective, spec.x_init, params)
    assert all(np.isnan(rep.trace.f_x))
    assert (rep.n_value, rep.n_grad, rep.total_K) == (clean.n_value, clean.n_grad, 10)
    assert rep.trace.grad_norm_monitor == clean.trace.grad_norm_monitor
    np.testing.assert_array_equal(rep.solution, clean.solution)


def test_ll_diagnostic_type_error_is_the_objective_raising():
    # Only arithmetic and value errors read as NaN; any other error, a
    # TypeError included, ends the run as the objective's own.
    spec = make_problem("cosine_sum", dim=4)
    params = LL2022Params(l_f=1.0, termination=TerminationPolicy(max_iterations=10))

    def value(x):
        raise TypeError("no value here")

    obj = dataclasses.replace(spec.objective, value_fn=value)
    with pytest.raises(ObjectiveRaised) as err:
        ll2022_run(obj, spec.x_init, params)
    assert err.value.channel == "value_fn"
    assert isinstance(err.value.__cause__, TypeError)


def test_ll_tight_budget_restarts_every_iteration():
    # With the original eps = 1e-16 tuning any visible displacement trips
    # the restart test immediately: k resets to 1 on every row and the
    # epoch counter ticks once per iteration.
    spec = make_problem("rosenbrock")
    rep = ll2022_run(spec.objective, spec.x_init, LL2022Params(
        l_f=1e4, m_f=1.0, eps=1e-16,
        termination=TerminationPolicy(max_iterations=4, eps=1e-6)))
    assert [r.event for r in rep.trace] == ["RestartSuccessful"] * 4
    assert [r.k for r in rep.trace] == [1, 1, 1, 1]
    assert [r.epoch for r in rep.trace] == [1, 2, 3, 4]


def test_ll_loose_budget_keeps_momentum():
    spec = make_problem("rosenbrock")
    rep = ll2022_run(spec.objective, spec.x_init, LL2022Params(
        l_f=1e4, m_f=1.0, eps=1.0,
        termination=TerminationPolicy(max_iterations=50, eps=1e-6)))
    assert {r.event for r in rep.trace} == {"Step"}
    assert [r.k for r in rep.trace] == list(range(1, 51))
    assert {r.epoch for r in rep.trace} == {1}


def test_ll_mistuned_step_size_diverges():
    # A step constant far below the local curvature blows the iterates up;
    # the oracle reports the non-finite gradient with the trace so far.
    spec = make_problem("rosenbrock")
    with pytest.raises(NonFiniteGradient) as err:
        ll2022_run(spec.objective, spec.x_init, LL2022Params(
            l_f=1e2, termination=TerminationPolicy(eps=1e-6,
                                                   max_oracle_calls=100_000)))
    assert isinstance(err.value.partial_trace, Trace)
    assert len(err.value.partial_trace) > 0
