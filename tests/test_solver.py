"""Solver unit tests: schedule, averaging, restart logic, curvature updates,
termination, and exact oracle accounting on short runs."""

import dataclasses
import itertools
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from restartagd import (CERTIFY_EVERY_ITER, GdParams, LL2022Params,
                        NonFiniteGradient, NonFiniteValue, Objective,
                        ObjectiveRaised, SolverParams, TerminationPolicy,
                        Trace, TraceRecord, gd_run, ll2022_run, make_problem,
                        quadratic, run)
from restartagd import solver
from restartagd.baselines import _LL2022, _Gd
from restartagd.oracle import Evaluated, l2_norm
from restartagd.solver import (_fold_average_exact, _Proposed,
                               descent_condition_holds, drive,
                               restart2_triggered, update_m)
from reference import check_run, theta, update_average, update_m_eager


# ---------------------------------------------------------------------------
# momentum schedule and running average


def test_theta_schedule_values():
    assert theta(1) == 0.5
    assert theta(2) == 2.0 / 3.0
    assert theta(4) == 0.8
    with pytest.raises(ValueError):
        theta(0)


def test_update_average_first_fold():
    # z starts at 1 (only y_0 in the average); folding y_1 with theta_1 = 1/2
    # gives Z_2 = 1 + 1/2 * 1 = 3/2 and the weighted mean (y_1 + y_0/2)/(3/2).
    y0 = np.array([2.0, 0.0])
    y1 = np.array([0.0, 3.0])
    z, ybar = update_average(1.0, y0, y1, 0.5)
    assert z == 1.5
    np.testing.assert_allclose(ybar, [2.0 / 3.0, 2.0], rtol=1e-15)


def test_exact_fold_matches_generic_recursion():
    rng = np.random.default_rng(7)
    y_bar = rng.standard_normal(4)
    y_bar_ref = y_bar.copy()
    z_ref = 1.0
    for k in range(1, 200):
        y = rng.standard_normal(4)
        y_bar = _fold_average_exact(k, y_bar, y)
        z_ref, y_bar_ref = update_average(z_ref, y_bar_ref, y, theta(k))
        assert z_ref == (k + 2.0) / 2.0
        np.testing.assert_allclose(y_bar, y_bar_ref, rtol=1e-13)


def test_average_recursion_matches_direct_sum():
    # After folding y_1..y_{k} the state holds the weighted mean of y_0..y_k
    # with weights (i+1); compare against the direct normalized sum.
    rng = np.random.default_rng(11)
    ys = [rng.standard_normal(3)]
    y_bar = ys[0].copy()
    for k in range(1, 301):
        y = rng.standard_normal(3)
        ys.append(y)
        y_bar = _fold_average_exact(k, y_bar, y)
        direct = sum((i + 1) * ys[i] for i in range(k + 1))
        direct *= 2.0 / ((k + 1) * (k + 2))
        np.testing.assert_allclose(y_bar, direct, rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# parameter validation


def test_termination_policy_requires_a_live_criterion():
    with pytest.raises(ValueError):
        TerminationPolicy()
    with pytest.raises(ValueError):
        TerminationPolicy(eps=0.0, max_oracle_calls=None)
    with pytest.raises(ValueError):
        TerminationPolicy(eps=-1.0)
    with pytest.raises(ValueError):
        TerminationPolicy(max_oracle_calls=0)
    with pytest.raises(ValueError):
        TerminationPolicy(max_iterations=0)
    with pytest.raises(ValueError):
        TerminationPolicy(max_seconds=0.0)
    with pytest.raises(ValueError):
        TerminationPolicy(eps=1e-6, certify_mode="Sometimes")
    for bad in (math.nan, math.inf, -math.inf):
        for field in ("eps", "max_oracle_calls", "max_iterations", "max_seconds"):
            with pytest.raises(ValueError, match=field):
                TerminationPolicy(**{field: bad})


def test_solver_params_validation():
    with pytest.raises(ValueError):
        SolverParams(l_init=0.0)
    with pytest.raises(ValueError):
        SolverParams(m0=0.0)
    with pytest.raises(ValueError):
        SolverParams(alpha=1.0)
    with pytest.raises(ValueError):
        SolverParams(beta=0.0)
    with pytest.raises(ValueError):
        SolverParams(beta=1.1)
    with pytest.raises(ValueError):
        SolverParams(m_variant="exotic")
    for bad in (math.nan, math.inf, -math.inf):
        for field in ("l_init", "m0", "alpha"):
            with pytest.raises(ValueError, match=field):
                SolverParams(**{field: bad})
    with pytest.raises(ValueError):
        SolverParams(beta=math.nan)
    # beta = 1 is allowed: it freezes L on successful restarts.
    SolverParams(beta=1.0)
    # Fields are named, never placed: a positional second field cannot bind
    # to alpha where a caller meant m0.
    for cls in (SolverParams, GdParams):
        with pytest.raises(TypeError):
            cls(1.0, 5.0)


# ---------------------------------------------------------------------------
# restart tests on hand-built states


def _state(**fields):
    """A bare state: the fields that ``update_m``, ``descent_condition_holds``
    and ``restart2_triggered`` read, by default k = 0, L = 1, M = 1e-16, S = 0."""
    return SimpleNamespace(**{"k": 0, "L": 1.0, "M": 1e-16, "s": 0.0, **fields})


def _bare_state(f_x0=0.0, f_x_cur=0.0, x_prev=None, x_cur=None, y_cur=None,
                **overrides):
    x = np.zeros(2)

    def point(at, f):
        g = x.copy()
        return Evaluated(x if at is None else at, f, g, l2_norm(g))

    return _state(anchor=point(None, f_x0), prev=point(x_prev, 0.0),
                  cur=point(x_cur, f_x_cur), y=point(y_cur, 0.0), **overrides)


def test_descent_boundary_equality_counts_as_holding():
    # bound = f_x0 - L*S/(2(k+1)) = 1 - 2*1/4 = 0.5
    st = _bare_state(f_x0=1.0, L=2.0, k=1, s=1.0, f_x_cur=0.5)
    assert descent_condition_holds(st)
    st.cur = Evaluated(st.cur.x, 0.5 + 1e-12, st.cur.g, l2_norm(st.cur.g))
    assert not descent_condition_holds(st)
    st.cur = Evaluated(st.cur.x, 0.25, st.cur.g, l2_norm(st.cur.g))
    assert descent_condition_holds(st)


def test_restart2_trigger_arithmetic():
    # (k+1)^5 M^2 S > L^2 with k=1, M=1, S=1, L=1: 32 > 1.
    assert restart2_triggered(_bare_state(k=1, M=1.0, s=1.0, L=1.0))
    # Default-scale M makes the left side ~1e-32: nowhere near 1e-6.
    assert not restart2_triggered(_bare_state(k=1, M=1e-16, s=1.0, L=1e-3))
    # No displacement, no trigger.
    assert not restart2_triggered(_bare_state(k=9, M=1e8, s=0.0, L=1.0))


def test_update_m_skips_zero_displacement():
    # Fresh state: x_prev == x_cur == y_cur, both ratios are 0/0 and must be
    # skipped, leaving M at its seed.
    st = _bare_state(k=1)
    assert update_m(st, 0.0) == 1e-16


def test_update_m_theoretical_extra_ratio():
    # Zero gradients and values silence both practical ratios; the averaged
    # point ratio with z=Z_2=1.5, L=1, h=1, S=1 and ||grad(ybar)||=10 gives
    # a = z^2*10 = 22.5, b = z*L*h = 1.5, so M = 16(a-b)/((k-1)(k+5)^2 S).
    st = _bare_state(k=2, s=1.0, L=1.0,
                     x_prev=np.zeros(2), x_cur=np.array([1.0, 0.0]),
                     y_cur=np.array([1.0, 0.0]))
    got = update_m(st, 1.0, grad_ybar_norm=10.0)
    assert got == 16.0 * 21.0 / 49.0
    # Too early (k < 2) or an empty epoch (S = 0): extra ratio is skipped.
    st.k = 1
    assert update_m(st, 1.0, grad_ybar_norm=10.0) == 1e-16
    st.k = 2
    st.s = 0.0
    assert update_m(st, 1.0, grad_ybar_norm=10.0) == 1e-16


# Magnitudes for the sweep: subnormal through near-overflow.
_SCALES = (5e-324, 1e-310, 1e-160, 1e-8, 1.0, 1e8, 1e150, 1e300)


def _sweep_state(rng):
    """A random bare state after an iteration's shift, with zero
    displacements, subnormal and huge values mixed in, and its dx2 and
    grad_ybar_norm."""
    d = int(rng.choice((1, 2, 5)))

    def vec():
        return rng.standard_normal(d) * _SCALES[rng.integers(len(_SCALES))]

    def point(x):
        f, g = float(vec()[0]), vec()
        return Evaluated(x, f, g, l2_norm(g))

    shape = rng.integers(4)
    x_prev = vec()
    x_cur = x_prev.copy() if shape == 0 else x_prev + vec()
    y = x_cur.copy() if shape == 1 else x_cur + vec()
    st = _state(L=float(rng.choice((1e-3, 1.0, 1e4, 1e300))),
                M=float(rng.choice((1e-16, 1.0, 1e20))),
                prev=point(x_prev), cur=point(x_cur), y=point(y))
    st.k = int(rng.choice((1, 2, 50)))
    st.s = float(rng.choice((0.0, 5e-324, 1.0, 1e300))) * rng.uniform(0.5, 2.0)
    dx = x_cur - x_prev
    gyn = None if rng.integers(3) == 0 else abs(float(vec()[0]))
    return st, float(dx.dot(dx)), gyn


@np.errstate(all="ignore")
def test_update_m_bitwise_equals_the_eager_form():
    # Lazy noise floors and the caller's dx2 must leave M bitwise unchanged,
    # including when a ratio equals M exactly (M set to the eager result
    # from M = 0, and one ulp either side).
    rng = np.random.default_rng(20240611)
    raised = kept = 0
    for _ in range(3000):
        st, dx2, gyn = _sweep_state(rng)
        st.M = 0.0
        top = update_m_eager(st, gyn)
        for m in (1e-16, 0.0, top, math.nextafter(top, math.inf), math.nextafter(top, 0.0)):
            st.M = m
            want = update_m_eager(st, gyn)
            got = update_m(st, dx2, gyn)
            assert repr(got) == repr(want), (m, st, dx2, gyn)
            raised += got != m
            kept += got == m
    assert raised > 1000 and kept > 1000


def _guard_state(xs, fs, gs, k, s, L):
    """A bare state with x_{k-1}, x_k, y_k at ``xs``, their values ``fs`` and
    gradients ``gs``, M = 1e-16, and its dx2."""
    prev, cur, y = (Evaluated(x, f, g, l2_norm(g)) for x, f, g in zip(xs, fs, gs))
    st = _state(k=k, s=s, L=L, prev=prev, cur=cur, y=y)
    dx = xs[1] - xs[0]
    return st, float(dx.dot(dx))


def _flip(raises, lo, hi):
    """The floats next to where ``raises(t)`` changes between ``lo`` and
    ``hi`` (bisection on the bit patterns), or [] if it does not change."""
    a, b = (int(np.float64(t).view(np.int64)) for t in (lo, hi))
    at_lo = raises(lo)
    if raises(hi) == at_lo:
        return []
    while b - a > 1:
        mid = (a + b) // 2
        if raises(float(np.int64(mid).view(np.float64))) == at_lo:
            a = mid
        else:
            b = mid
    return [float(np.int64(i).view(np.float64)) for i in (a - 1, a, b, b + 1)]


@np.errstate(all="ignore")
def test_update_m_matches_the_eager_form_at_each_noise_guard():
    # One ratio at a time, a parameter is bisected to where its noise guard
    # starts or stops passing, and both forms are compared there.  Ratio 1
    # varies the gradient sum across the y - x displacement and ratio 2
    # varies L: either moves only the noise floor, to the ulp.
    rng = np.random.default_rng(5)
    zero = np.zeros(2)
    flips = 0
    for _ in range(20):
        x = rng.standard_normal(2)
        h, f, gyn = rng.uniform(0.5, 2.0, 3)
        k = int(rng.choice((2, 50)))
        g3 = [rng.standard_normal(2) for _ in range(3)]
        builds = (
            (lambda v: _guard_state((x, x, x + [h, 0.0]), (0.0, 0.0, f),
                                    (zero, zero, np.array([0.0, v])), k, 1.0, 1.0), None),
            (lambda L: _guard_state((x, x + [h, h], x + [h, h]), (0.0, 0.0, 0.0),
                                    g3, k, 1.0, L), None),
            (lambda L: _guard_state((x, x + [h, 0.0], x + [h, 0.0]), (0.0, 0.0, 0.0),
                                    (zero, zero, zero), k, f, L), gyn),
        )
        for build, norm in builds:
            points = _flip(lambda t: update_m_eager(build(t)[0], norm) != 1e-16,
                           1e-300, 1e300)
            flips += bool(points)
            for t in points:
                st, dx2 = build(t)
                assert repr(update_m(st, dx2, norm)) == repr(update_m_eager(st, norm))
    assert flips >= 50


# ---------------------------------------------------------------------------
# single-step behavior against hand-computed values


def test_first_step_from_origin_is_wild_and_restarts():
    # Rosenbrock at (0,0): grad = (-2, 0).  With L = 1e-3 the step is
    # x_1 = y_0 - (1/L) grad = (2000, 0), the descent test fails, and the
    # epoch restarts from the previous iterate with L doubled.
    spec = make_problem("rosenbrock")
    from restartagd.oracle import OracleSession

    session = OracleSession(spec.objective)
    x0 = np.zeros(2)
    params = SolverParams(l_init=1e-3,
                          termination=TerminationPolicy(max_iterations=10))
    st = _Proposed(session, x0, params)
    assert (session.n_value, session.n_grad) == (1, 1)
    g0 = spec.objective.grad_fn(x0)
    assert st.best.norm == math.sqrt(float(g0 @ g0))

    rec = TraceRecord(*st.step(1))
    assert rec.event == "RestartUnsuccessful"
    assert rec.L == 1e-3            # the L the step actually used
    assert rec.K == 1 and rec.k == 1
    assert rec.f_x == spec.objective.value_fn(np.array([2000.0, 0.0]))
    # After the restart: re-anchored at the old point, L doubled, M kept.
    np.testing.assert_array_equal(st.cur.x, x0)
    assert st.L == 2e-3
    assert st.k == 0 and st.epoch == 2
    assert st.s == 0.0


def test_unsuccessful_chain_doubles_l_until_descent_holds():
    # From the origin the anchor never moves while the descent test keeps
    # failing, so the trace begins with a pure doubling chain 1e-3 * 2^i.
    # The first L at which the epoch survives its first step is 1e-3 * 2^14.
    spec = make_problem("rosenbrock")
    params = SolverParams(l_init=1e-3,
                          termination=TerminationPolicy(max_iterations=40))
    rep = run(spec.objective, np.zeros(2), params)
    for i in range(14):
        row = rep.trace[i]
        assert row.event == "RestartUnsuccessful"
        assert row.L == 1e-3 * 2.0 ** i
        assert row.k == 1 and row.epoch == i + 1
    assert rep.trace[14].L == 1e-3 * 2.0 ** 14
    assert rep.trace[14].event != "RestartUnsuccessful"


def test_quadratic_one_step_exact_landing():
    # lam = 1 and L = 1 make the first step x_1 = x_0 - grad f(x_0) land on
    # the exact minimizer; the run certifies a zero gradient immediately.
    obj = quadratic(3, lam=1.0)
    x0 = np.array([0.3, -1.2, 2.0])
    params = SolverParams(l_init=1.0,
                          termination=TerminationPolicy(eps=1e-6,
                                                        max_oracle_calls=1000))
    rep = run(obj, x0, params)
    assert rep.reason == "EpsReached"
    assert rep.total_K == 1
    assert rep.certified_grad_norm == 0.0
    np.testing.assert_array_equal(rep.solution, np.zeros(3))
    assert rep.trace[0].event == "Terminated"
    # 2 seed evals + 4 per iteration + 1 certificate at the averaged point.
    assert rep.n_oracle == 7


def test_stationary_start_returns_immediately():
    obj = quadratic(4, lam=2.5)
    rep = run(obj, np.zeros(4),
              SolverParams(termination=TerminationPolicy(eps=1e-6)))
    assert rep.reason == "Stationary"
    assert rep.total_K == 0
    assert rep.n_oracle == 2
    assert rep.certified_grad_norm == 0.0


@pytest.mark.parametrize("solve, params", [
    (run, SolverParams()),
    (gd_run, GdParams()),
    (ll2022_run, LL2022Params(l_f=1.0, m_f=1.0)),
])
def test_a_report_never_holds_the_callers_start_array(solve, params):
    # A stationary start stays the best point, so the report's solution is
    # the start: it must be a copy that later writes to x0 leave alone.
    x0 = np.zeros(3)
    rep = solve(quadratic(3), x0, params)
    assert rep.reason == "Stationary"
    assert rep.solution is not x0 and not np.shares_memory(rep.solution, x0)
    x0[:] = 7.0
    np.testing.assert_array_equal(rep.solution, np.zeros(3))


# ---------------------------------------------------------------------------
# termination and budgets


def test_oracle_budget_stops_promptly():
    spec = make_problem("rosenbrock")
    rep = run(spec.objective, spec.x_init,
              SolverParams(termination=TerminationPolicy(max_oracle_calls=10)))
    assert rep.reason == "BudgetExhausted"
    # The check sits at the loop top, so one iteration of overshoot at most.
    assert 10 <= rep.n_oracle <= 15


def test_iteration_budget_stops_exactly():
    spec = make_problem("rosenbrock")
    rep = run(spec.objective, spec.x_init,
              SolverParams(termination=TerminationPolicy(max_iterations=5)))
    assert rep.reason == "BudgetExhausted"
    assert rep.total_K == 5
    assert len(rep.trace) == 5


def test_time_limit_reason():
    # The theoretical variant evaluates the averaged point every step, so it
    # never stalls and only the clock ends this run.
    spec = make_problem("cosine_sum", dim=8)
    rep = run(spec.objective, spec.x_init,
              SolverParams(m_variant="theoretical",
                           termination=TerminationPolicy(max_seconds=0.05)))
    assert rep.reason == "TimeLimit"


def test_a_clock_reading_exactly_max_seconds_is_a_time_limit(monkeypatch):
    # The run starts at 100.0 s and every later reading is 101.0 s, so the
    # clock is at its limit before the first step; the iteration budget only
    # ends a run that lets the limit pass.
    clock = itertools.chain([100.0], itertools.repeat(101.0))
    monkeypatch.setattr(solver, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    spec = make_problem("rosenbrock")
    rep = run(spec.objective, spec.x_init, SolverParams(
        termination=TerminationPolicy(max_iterations=5, max_seconds=1.0)))
    assert (rep.reason, len(rep.trace)) == ("TimeLimit", 0)


@pytest.mark.parametrize("entry, params", [
    (run, SolverParams()), (gd_run, GdParams()), (ll2022_run, LL2022Params(l_f=1.0))])
def test_a_certified_norm_of_exactly_eps_reaches_eps(entry, params):
    # The start's gradient is (3, 4), of norm exactly 5.0, so a run asked for
    # eps = 5.0 is done before its first step.
    obj = Objective(dim=2, value_fn=lambda v: 0.5 * float(v @ v), grad_fn=lambda v: v.copy())
    rep = entry(obj, [3.0, 4.0], dataclasses.replace(
        params, termination=TerminationPolicy(eps=5.0, max_iterations=5)))
    assert (rep.reason, len(rep.trace), rep.certified_grad_norm) == ("EpsReached", 0, 5.0)


# ---------------------------------------------------------------------------
# oracle accounting on short fresh runs (no repeated points)


def test_practical_run_accounting():
    spec = make_problem("rosenbrock")
    rep = run(spec.objective, spec.x_init,
              SolverParams(termination=TerminationPolicy(eps=1e-6,
                                                         max_iterations=6)))
    check_run(rep, spec.objective, identity="practical")


def test_theoretical_run_accounting():
    spec = make_problem("rosenbrock")
    rep = run(spec.objective, spec.x_init,
              SolverParams(m_variant="theoretical",
                           termination=TerminationPolicy(max_iterations=4)))
    check_run(rep, spec.objective, identity="every_row")


def test_every_iter_mode_certifies_each_row():
    spec = make_problem("rosenbrock")
    rep = run(spec.objective, spec.x_init,
              SolverParams(termination=TerminationPolicy(
                  max_iterations=5, certify_mode="EveryIter")))
    check_run(rep, spec.objective, identity="every_row")


# ---------------------------------------------------------------------------
# run-level invariants


def test_trace_counters_are_consistent():
    spec = make_problem("cosine_sum", dim=6)
    rep = run(spec.objective, spec.x_init,
              SolverParams(l_init=0.5,
                           termination=TerminationPolicy(max_iterations=60)))
    ks = [r.K for r in rep.trace]
    assert ks == list(range(1, len(ks) + 1))
    assert all(r.k >= 1 for r in rep.trace)
    epochs = [r.epoch for r in rep.trace]
    assert all(b - a in (0, 1) for a, b in zip(epochs, epochs[1:]))
    check_run(rep, spec.objective)


def test_first_displacement_matches_gradient_step():
    obj = quadratic(4, lam=2.5)
    x0 = np.array([1.0, -2.0, 0.5, 3.0])
    rep = run(obj, x0, SolverParams(
        l_init=0.7, termination=TerminationPolicy(max_iterations=1)))
    g0 = obj.grad_fn(x0)
    assert rep.trace[0].S_k == pytest.approx(float(g0 @ g0) / 0.7 ** 2,
                                             rel=1e-14)


def test_m_stays_seeded_on_quadratic():
    # Exact third-order flatness: every curvature ratio cancels to roundoff
    # and the noise guard must reject them all.
    obj = quadratic(4, lam=2.5)
    x0 = np.array([1.0, -2.0, 0.5, 3.0])
    rep = run(obj, x0, SolverParams(
        l_init=0.7, termination=TerminationPolicy(max_iterations=50)))
    assert rep.final_M == 1e-16
    assert max(r.M for r in rep.trace) == 1e-16


def test_anchor_values_never_increase():
    spec = make_problem("rosenbrock")
    rep = run(spec.objective, spec.x_init,
              SolverParams(termination=TerminationPolicy(
                  eps=1e-4, max_oracle_calls=100_000)))
    assert rep.reason == "EpsReached"
    assert len(rep.anchor_values) >= 2
    check_run(rep, spec.objective)


def test_stationary_stop_ends_the_certified_path():
    # Under EveryIter only averaged points certify during a step.  The first
    # step lands on the minimizer and the progress test (large m0) makes it
    # the anchor, so its zero gradient joins the path at the Stationary stop.
    spec = make_problem("quadratic", dim=3)
    pol = TerminationPolicy(max_iterations=50, certify_mode="EveryIter")
    rep = run(spec.objective, spec.x_init,
              SolverParams(l_init=1.0, m0=1e3, termination=pol))
    assert rep.reason == "Stationary"
    assert [r.event for r in rep.trace] == ["RestartSuccessful"]
    assert rep.trace[-1].grad_norm_ybar > 0.0
    calls, norms = rep.certified
    assert list(calls) == [2, rep.n_oracle]
    assert norms[-1] == rep.certified_grad_norm == 0.0


CERTIFYING = {
    "practical": lambda obj, x0, l, pol: run(obj, x0, SolverParams(l_init=l, termination=pol)),
    "theoretical": lambda obj, x0, l, pol: run(obj, x0, SolverParams(
        l_init=l, m_variant="theoretical", termination=pol)),
    "every_iter": lambda obj, x0, l, pol: run(obj, x0, SolverParams(
        l_init=l, termination=dataclasses.replace(pol, certify_mode="EveryIter"))),
    "gd": lambda obj, x0, l, pol: gd_run(obj, x0, GdParams(l_init=l, termination=pol)),
    "ll2022": lambda obj, x0, l, pol: ll2022_run(obj, x0, LL2022Params(l_f=l, termination=pol)),
}


# (starting curvature guess, oracle budget): every method runs without
# diverging; proposed reaches eps on both, the rest stop on the budget.
@pytest.mark.parametrize("problem, l_init, calls", [
    ("rosenbrock", 1e3, 20_000), ("matcomp_synthetic", 10.0, 6_000)],
    ids=["rosenbrock", "matcomp_synthetic"])
@pytest.mark.parametrize("method", sorted(CERTIFYING))
def test_certificate_is_a_real_gradient(method, problem, l_init, calls):
    spec = make_problem(problem)
    pol = TerminationPolicy(eps=1e-6, max_oracle_calls=calls)
    rep = CERTIFYING[method](spec.objective, spec.x_init, l_init, pol)
    g = spec.objective.grad_fn(rep.solution)
    assert math.sqrt(float(g @ g)) == rep.certified_grad_norm


@pytest.mark.parametrize("variant", ["practical", "theoretical"])
@pytest.mark.parametrize("problem", ["cosine_sum", "matcomp_synthetic"])
def test_state_records_are_fresh_evaluations(problem, variant):
    spec = make_problem(problem)
    obj = spec.objective
    events = []

    def check(st, rec):
        for name in ("anchor", "prev", "cur", "y"):
            point = getattr(st, name)
            g = obj.grad_fn(point.x)
            assert point.f == obj.value_fn(point.x), name
            np.testing.assert_array_equal(point.g, g, err_msg=name)
            assert point.norm == math.sqrt(float(g @ g)), name
        if rec.event != "Step":
            assert st.prev is st.anchor and st.cur is st.anchor and st.y is st.anchor
            assert st.base is st.anchor
        events.append(rec.event)

    run(obj, spec.x_init, SolverParams(m_variant=variant, termination=TerminationPolicy(
        max_iterations=150)), observer=check)
    assert len(events) == 150
    assert "RestartUnsuccessful" in events and "RestartSuccessful" in events


def test_observer_sees_every_iteration():
    spec = make_problem("cosine_sum", dim=4)
    seen = []
    rep = run(spec.objective, spec.x_init,
              SolverParams(termination=TerminationPolicy(max_iterations=7)),
              observer=lambda m, rec: seen.append(rec.event))
    assert len(seen) == rep.total_K == 7


def test_m_survives_restarts():
    # Run long enough on cosine_sum for restarts to happen, then check the
    # M column never decreases across any row, restart or not.
    spec = make_problem("cosine_sum", dim=6)
    rep = run(spec.objective, spec.x_init,
              SolverParams(l_init=1e-3,
                           termination=TerminationPolicy(max_iterations=300)))
    events = {r.event for r in rep.trace}
    assert "RestartUnsuccessful" in events or "RestartSuccessful" in events
    ms = [r.M for r in rep.trace]
    assert all(b >= a for a, b in zip(ms, ms[1:]))


# ---------------------------------------------------------------------------
# the shared driver loop: oracle failures keep the trace so far

# l = 3 keeps every method off a bitwise fixed point for 100 iterations, so
# each one keeps calling the gradient.
DRIVEN = {
    "practical": lambda obj, x0, pol: run(obj, x0, SolverParams(l_init=3.0, termination=pol)),
    "theoretical": lambda obj, x0, pol: run(obj, x0, SolverParams(
        l_init=3.0, m_variant="theoretical", termination=pol)),
    "everyiter": lambda obj, x0, pol: run(obj, x0, SolverParams(
        l_init=3.0, termination=dataclasses.replace(pol, certify_mode=CERTIFY_EVERY_ITER))),
    "gd": lambda obj, x0, pol: gd_run(obj, x0, GdParams(l_init=3.0, termination=pol)),
    "ll2022": lambda obj, x0, pol: ll2022_run(obj, x0, LL2022Params(l_f=3.0, termination=pol)),
}


@pytest.mark.parametrize("n_bad", [1, 5, 25])
@pytest.mark.parametrize("method", sorted(DRIVEN))
def test_nan_gradient_keeps_clean_prefix_as_partial_trace(method, n_bad):
    spec = make_problem("cosine_sum", dim=4)
    calls = [0]

    def grad(x):
        calls[0] += 1
        g = spec.objective.grad_fn(x)
        return g * np.nan if calls[0] >= n_bad else g

    pol = TerminationPolicy(max_iterations=100)
    clean = DRIVEN[method](spec.objective, spec.x_init, pol)
    with pytest.raises(NonFiniteGradient) as err:
        DRIVEN[method](dataclasses.replace(spec.objective, grad_fn=grad), spec.x_init, pol)
    partial = err.value.partial_trace
    if n_bad == 1:
        assert partial == []
    else:
        assert 0 < len(partial) < len(clean.trace)
        assert partial == clean.trace[:len(partial)]


# The step classes and parameters behind DRIVEN, for runs with an observer.
STEPS = {
    "practical": (_Proposed, lambda pol: SolverParams(l_init=3.0, termination=pol)),
    "theoretical": (_Proposed, lambda pol: SolverParams(
        l_init=3.0, m_variant="theoretical", termination=pol)),
    "everyiter": (_Proposed, lambda pol: SolverParams(
        l_init=3.0, termination=dataclasses.replace(pol, certify_mode=CERTIFY_EVERY_ITER))),
    "gd": (_Gd, lambda pol: GdParams(l_init=3.0, termination=pol)),
    "ll2022": (_LL2022, lambda pol: LL2022Params(l_f=3.0, termination=pol)),
}


@pytest.mark.parametrize("method", sorted(DRIVEN))
def test_an_observer_gets_each_row_as_a_record_built_only_for_it(method, monkeypatch):
    spec = make_problem("cosine_sum", dim=4)
    cls, params = STEPS[method]
    pol = TerminationPolicy(max_iterations=100)
    built, seen = [], []

    def counted(*row):
        built.append(row)
        return TraceRecord(*row)

    monkeypatch.setattr(solver, "TraceRecord", counted)
    plain = drive(spec.objective, spec.x_init, params(pol), cls)
    assert built == []
    watched = drive(spec.objective, spec.x_init, params(pol), cls,
                    observer=lambda m, rec: seen.append(rec))
    assert len(seen) == len(built) == len(watched.trace) == 100
    assert seen == list(watched.trace) == list(plain.trace)
    types = [tuple(map(type, rec)) for rec in seen]
    assert types == [tuple(map(type, rec)) for rec in plain.trace]


@pytest.mark.parametrize("method", sorted(DRIVEN))
def test_the_report_takes_its_final_epoch_l_and_m_off_the_step_object(method):
    # Each run restarts (gd: rejects a trial) within its 200 rows; ll2022,
    # whose L_f = 3 diverges on rosenbrock, runs on cosine_sum.
    spec = make_problem("cosine_sum", dim=4) if method == "ll2022" else make_problem("rosenbrock")
    cls, params = STEPS[method]
    seen = []
    rep = drive(spec.objective, spec.x_init, params(TerminationPolicy(max_iterations=200)),
                cls, observer=lambda m, rec: seen.append((m.epoch, m.L, m.M)))
    assert len(seen) == rep.total_K and rep.total_epochs > 1
    assert seen[-1] == (rep.total_epochs, rep.final_L, rep.final_M)


@pytest.mark.parametrize("k", [1, 2, 7, 40])
@pytest.mark.parametrize("method", sorted(DRIVEN))
def test_a_raising_gradient_ends_as_objective_raised_with_the_rows_before_it(method, k):
    spec = make_problem("cosine_sum", dim=4)
    pol = TerminationPolicy(max_iterations=100)
    calls, after_row = [0], []  # gradient calls so far; after each clean row

    def counted(x):
        calls[0] += 1
        if failing and calls[0] == k:
            raise cause
        return spec.objective.grad_fn(x)

    obj = dataclasses.replace(spec.objective, grad_fn=counted)
    cls, params = STEPS[method]
    failing, cause = False, RuntimeError("boom")
    clean = drive(obj, spec.x_init, params(pol), cls,
                  observer=lambda m, rec: after_row.append(calls[0]))
    calls[0], failing = 0, True
    with pytest.raises(ObjectiveRaised) as err:
        DRIVEN[method](obj, spec.x_init, pol)
    assert err.value.channel == "grad_fn" and err.value.__cause__ is cause
    partial = err.value.partial_trace
    assert type(partial) is Trace
    # Exactly the rows whose gradients all came before the k-th call.
    assert len(partial) == sum(c < k for c in after_row)
    assert partial == clean.trace[:len(partial)]


@pytest.mark.parametrize("column", [1, 6, 10])
@pytest.mark.parametrize("method", sorted(DRIVEN))
def test_a_ctrl_c_inside_trace_append_leaves_whole_rows(method, column, monkeypatch):
    # The interrupt lands after ``column`` of row 31's eleven appends, so
    # the columns before it hold one value more than those after.
    spec = make_problem("cosine_sum", dim=4)
    pol = TerminationPolicy(max_iterations=100)
    clean = DRIVEN[method](spec.objective, spec.x_init, pol)

    class CutTrace(Trace):
        def __init__(self):
            super().__init__()
            appends = list(self._appends)
            add = appends[column]

            def cut(value):
                if len(self.K) == 31:
                    raise KeyboardInterrupt
                add(value)

            appends[column] = cut
            self._appends = tuple(appends)

    monkeypatch.setattr(solver, "Trace", CutTrace)
    with pytest.raises(KeyboardInterrupt) as err:
        DRIVEN[method](spec.objective, spec.x_init, pol)
    partial = err.value.partial_trace
    assert type(partial) is CutTrace
    assert [len(c) for c in partial.columns] == [30] * 11
    assert partial == clean.trace[:30]


@pytest.mark.parametrize("k", [1, 3, 30])
def test_ll2022_diagnostic_value_that_raises_keeps_the_rows_before_it(k):
    # ll2022 evaluates value_fn once per row, outside the counted oracle.
    spec = make_problem("cosine_sum", dim=4)
    pol = TerminationPolicy(max_iterations=100)
    params = LL2022Params(l_f=3.0, termination=pol)
    clean = ll2022_run(spec.objective, spec.x_init, params)
    calls = [0]

    def value(x):
        calls[0] += 1
        if calls[0] == k:
            raise RuntimeError("boom")
        return spec.objective.value_fn(x)

    with pytest.raises(ObjectiveRaised, match="value_fn raised RuntimeError") as err:
        ll2022_run(dataclasses.replace(spec.objective, value_fn=value), spec.x_init, params)
    assert err.value.partial_trace == clean.trace[:k - 1]


def _runaway_value(x):
    sq = x * x
    return float(np.sum(sq - 1.5 * sq))


@pytest.mark.parametrize("method", sorted(DRIVEN))
def test_no_warning_escapes_a_run_that_overflows(method):
    # f(x) = -||x||^2 / 2 is unbounded below, so every method runs outward
    # until the squares overflow inside the objective and inf - inf turns its
    # value NaN (ll2022's uncounted diagnostic value included).  The run must
    # end in a typed error with no RuntimeWarning on the way.
    with pytest.warns(RuntimeWarning):
        assert math.isnan(_runaway_value(np.array([1e200, 0.0])))
    obj = Objective(dim=2, value_fn=_runaway_value, grad_fn=lambda x: -x)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises((NonFiniteValue, NonFiniteGradient)) as err:
            DRIVEN[method](obj, np.array([1.0, -2.0]), TerminationPolicy(max_iterations=5000))
    assert len(err.value.partial_trace) > 100
