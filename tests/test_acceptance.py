"""End-to-end acceptance runs.

Each test here exercises a whole-run behavior the package promises: the
robustness grid on Rosenbrock, estimate caps over long trajectories, the
inequality sweeps, averaging equivalence, the oracle-complexity trend, the
matrix-completion benchmark, exact call accounting, and the invariants of
every run (``reference.check_run``).  Shared runs live in module-scoped
fixtures so each trajectory is computed once.  Every test prints a one-line
summary (visible under ``pytest -s``)."""

import time

import numpy as np
import pytest

from restartagd import (GdParams, LL2022Params, NonFiniteGradient,
                        NonFiniteValue, SolverParams, TerminationPolicy,
                        gd_run, ll2022_run, make_problem, run)
from restartagd.checks import (check_descent_lemma, check_jensen_gradient,
                               check_trapezoid)
from reference import check_run, theta, update_average

L_GRID = (1e2, 1e3, 1e4)
M_GRID = (1.0, 10.0, 100.0)


# ---------------------------------------------------------------------------
# shared runs


@pytest.fixture(scope="module")
def grid():
    """Rosenbrock robustness grid: 9 proposed cells, 3 GD cells, and 3
    fixed-parameter baseline cells, with the wall-clock of the whole sweep."""
    prob = make_problem("rosenbrock")
    t0 = time.perf_counter()
    proposed = {}
    for l_init in L_GRID:
        for m0 in M_GRID:
            term = TerminationPolicy(eps=1e-6, max_oracle_calls=100_000)
            proposed[(l_init, m0)] = run(
                prob.objective, prob.x_init,
                SolverParams(l_init=l_init, m0=m0, termination=term))
    gd = {}
    for l_init in L_GRID:
        # GD pays for its pessimistic start forever (L never drops below
        # l_init), so the worst cell genuinely needs several hundred
        # thousand evaluations; the ceiling exists only to bound the test.
        term = TerminationPolicy(eps=1e-6, max_oracle_calls=1_000_000)
        gd[l_init] = gd_run(prob.objective, prob.x_init,
                            GdParams(l_init=l_init, termination=term))
    fixed = {}
    for m_f in M_GRID:
        term = TerminationPolicy(eps=1e-6, max_oracle_calls=100_000)
        try:
            rep = ll2022_run(prob.objective, prob.x_init,
                             LL2022Params(l_f=1e2, m_f=m_f, eps=1e-6,
                                          termination=term))
            fixed[m_f] = rep.reason
        except (NonFiniteValue, NonFiniteGradient) as exc:
            fixed[m_f] = type(exc).__name__
    elapsed = time.perf_counter() - t0
    return {"proposed": proposed, "gd": gd, "fixed": fixed,
            "elapsed": elapsed}


@pytest.fixture(scope="module")
def cosine_long():
    """Six 10^4-iteration cosine-sum runs: both M variants at three starting
    smoothness guesses."""
    out = {}
    for variant in ("practical", "theoretical"):
        for l_init in (1e-3, 1.0, 1e3):
            prob = make_problem("cosine_sum", seed=0, dim=10)
            term = TerminationPolicy(max_iterations=10_000)
            out[(variant, l_init)] = run(
                prob.objective, prob.x_init,
                SolverParams(l_init=l_init, m_variant=variant,
                             termination=term))
    return out


@pytest.fixture(scope="module")
def dominant_start():
    """Runs whose starting smoothness guess already matches the true
    constant, with beta = 1 so it is never lowered again."""
    out = {}
    for variant in ("practical", "theoretical"):
        prob = make_problem("cosine_sum", seed=0, dim=10)
        term = TerminationPolicy(max_iterations=10_000)
        out[variant] = run(prob.objective, prob.x_init,
                           SolverParams(l_init=1.0, beta=1.0,
                                        m_variant=variant, termination=term))
    return out


@pytest.fixture(scope="module")
def trend():
    """Calls-to-threshold curves for the proposed solver and GD on the same
    seeded cosine-sum start."""
    thresholds = (1e-2, 1e-3, 1e-4, 1e-5)
    prob = make_problem("cosine_sum", seed=0, dim=10)
    term = TerminationPolicy(eps=1e-5, max_oracle_calls=1_000_000)
    rep_prop = run(prob.objective, prob.x_init,
                   SolverParams(l_init=10.0, termination=term))
    rep_gd = gd_run(prob.objective, prob.x_init,
                    GdParams(l_init=10.0, termination=term))
    out = {"thresholds": thresholds}
    for name, rep in (("proposed", rep_prop), ("gd", rep_gd)):
        # grid's lookup: the first call count of the certified path at or
        # below each threshold.
        calls, norms = rep.certified
        hits = {thr: next((c for c, norm in zip(calls, norms) if norm <= thr), None)
                for thr in thresholds}
        out[name] = (rep, {thr: c for thr, c in hits.items() if c is not None})
    return out


@pytest.fixture(scope="module")
def matcomp():
    """Synthetic 100x80 rank-5 completion with 30% observed entries: one
    certified run plus two equal-budget runs for the ordering comparison."""
    prob = make_problem("matcomp_synthetic", seed=0)
    t0 = time.perf_counter()
    cert = run(prob.objective, prob.x_init,
               SolverParams(termination=TerminationPolicy(
                   eps=1e-4, max_oracle_calls=100_000)))
    budget = TerminationPolicy(max_oracle_calls=10_000)
    prop = run(prob.objective, prob.x_init,
               SolverParams(termination=budget))
    gd = gd_run(prob.objective, prob.x_init,
                GdParams(l_init=1e-3, termination=budget))
    elapsed = time.perf_counter() - t0
    return {"problem": prob, "cert": cert, "prop": prop, "gd": gd,
            "elapsed": elapsed}


# ---------------------------------------------------------------------------
# robustness grid


def test_grid_proposed_converges_in_every_cell(grid):
    for (l_init, m0), rep in grid["proposed"].items():
        assert rep.reason == "EpsReached", (l_init, m0)
        assert rep.certified_grad_norm <= 1e-6
        assert rep.n_oracle <= 100_000
    print("grid/proposed: 9/9 cells certified <= 1e-6, max calls",
          max(r.n_oracle for r in grid["proposed"].values()))


def test_grid_gd_converges_and_needs_more_calls(grid):
    for l_init, rep in grid["gd"].items():
        assert rep.reason == "EpsReached", l_init
        assert rep.certified_grad_norm <= 1e-6
        worst_prop = max(grid["proposed"][(l_init, m0)].n_oracle
                         for m0 in M_GRID)
        assert worst_prop < rep.n_oracle
    print("grid/gd: 3/3 cells converged; calls",
          {l: r.n_oracle for l, r in grid["gd"].items()})


def test_grid_fixed_parameter_baseline_fails_somewhere(grid):
    failed = {m: r for m, r in grid["fixed"].items() if r != "EpsReached"}
    assert failed
    print("grid/fixed-parameter baseline failures:", failed)


def test_grid_runtime(grid):
    assert grid["elapsed"] < 60.0
    print(f"grid runtime: {grid['elapsed']:.1f}s")


# ---------------------------------------------------------------------------
# long-run estimate caps


def test_smoothness_estimate_capped_on_long_runs(cosine_long):
    worst = 0.0
    for (variant, l_init), rep in cosine_long.items():
        assert rep.total_K == 10_000
        cap = max(l_init, 2.0 * 1.0)
        assert all(rec.L <= cap for rec in rep.trace), (variant, l_init)
        worst = max(worst, max(rec.L for rec in rep.trace) / cap)
    print(f"smoothness cap: held on 6 runs, worst L/cap = {worst:.4f}")


def test_curvature_estimate_capped_on_long_runs(cosine_long):
    cap = max(1e-16, 1.0) + 1e-9
    worst = 0.0
    for key, rep in cosine_long.items():
        assert all(rec.M <= cap for rec in rep.trace), key
        worst = max(worst, max(rec.M for rec in rep.trace))
    print(f"curvature cap: held on 6 runs, max M = {worst:.4f}")


def test_dominant_start_never_restarts_unsuccessfully(dominant_start):
    for variant, rep in dominant_start.items():
        assert rep.total_K == 10_000
        bad = [rec for rec in rep.trace if rec.event == "RestartUnsuccessful"]
        assert not bad, variant
    print("dominant start: 0 unsuccessful restarts in 2 x 10^4 iterations")


# ---------------------------------------------------------------------------
# inequality sweeps


def test_inequality_sweeps_pass_ten_thousand_draws():
    t0 = time.perf_counter()
    suites = []
    quad = make_problem("quadratic", seed=0, dim=10)
    suites.append(("quadratic", quad.objective,
                   quad.objective.known_L, quad.objective.known_M))
    cosine = make_problem("cosine_sum", seed=0, dim=10)
    suites.append(("cosine_sum", cosine.objective, 1.0, 1.0))
    draws = 10_000
    total = 0
    for name, obj, big_l, big_m in suites:
        rng = np.random.default_rng(0)
        for _ in range(draws):
            x = rng.standard_normal(obj.dim)
            y = rng.standard_normal(obj.dim)
            rep = check_descent_lemma(obj, x, y, big_l)
            assert rep.holds, str(rep)
            rep = check_trapezoid(obj, x, y, big_m)
            assert rep.holds, str(rep)
            n = int(rng.integers(2, 6))
            pts = [rng.standard_normal(obj.dim) for _ in range(n)]
            w = rng.dirichlet(np.ones(n))
            w = w / w.sum()
            rep = check_jensen_gradient(obj, pts, w, big_m)
            assert rep.holds, str(rep)
            total += 3
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"inequality sweeps: {total} checks, 0 violations, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# averaging equivalence


def test_average_recursion_matches_direct_weighted_sum():
    rng = np.random.default_rng(42)
    dim = 4
    for _ in range(100):
        y = rng.standard_normal(dim)
        z, ybar = 1.0, y.copy()
        weighted = y.copy()  # running sum of (i+1) * y_i
        for k in range(1, 1000):
            y = rng.standard_normal(dim)
            z, ybar = update_average(z, ybar, y, theta(k))
            assert z == (k + 2) / 2.0
            weighted += (k + 1) * y
            direct = 2.0 * weighted / ((k + 1) * (k + 2))
            err = np.linalg.norm(ybar - direct)
            scale = max(np.linalg.norm(direct), 1e-300)
            assert err <= 1e-10 * scale
    print("averaging: recursion == direct form to 1e-10 over 100 trajectories")


# ---------------------------------------------------------------------------
# oracle-complexity trend


def test_complexity_trend_is_subquadratic(trend):
    thresholds = trend["thresholds"]
    rep_prop, calls_prop = trend["proposed"]
    rep_gd, calls_gd = trend["gd"]
    assert rep_prop.reason == "EpsReached"
    assert rep_gd.reason == "EpsReached"
    assert all(thr in calls_prop for thr in thresholds)
    assert all(thr in calls_gd for thr in thresholds)
    xs = np.log([1.0 / thr for thr in thresholds])
    ys = np.log([calls_prop[thr] for thr in thresholds])
    slope = float(np.polyfit(xs, ys, 1)[0])
    assert slope <= 2.0
    assert calls_prop[1e-5] <= calls_gd[1e-5]
    print(f"trend: slope {slope:.3f}, calls at 1e-5: "
          f"proposed {calls_prop[1e-5]} vs gd {calls_gd[1e-5]}")


# ---------------------------------------------------------------------------
# matrix-completion benchmark


def test_matrix_completion_reaches_certified_accuracy(matcomp):
    cert = matcomp["cert"]
    assert cert.reason == "EpsReached"
    assert cert.certified_grad_norm <= 1e-4
    assert cert.n_oracle <= 100_000
    print(f"matcomp: certified {cert.certified_grad_norm:.3e} "
          f"in {cert.n_oracle} calls")


def test_matrix_completion_beats_gd_at_equal_budget(matcomp):
    value_fn = matcomp["problem"].objective.value_fn
    f_prop = float(value_fn(matcomp["prop"].solution))
    f_gd = float(value_fn(matcomp["gd"].solution))
    assert f_prop < f_gd
    assert matcomp["elapsed"] < 120.0
    print(f"matcomp at 10^4 calls: f proposed {f_prop:.3e} "
          f"< f gd {f_gd:.3e}; {matcomp['elapsed']:.1f}s")


# ---------------------------------------------------------------------------
# oracle accounting


def test_oracle_counts_reconcile_exactly(grid):
    # Practical variant with on-candidate certification: 2 start-up
    # evaluations, 4 per iteration, plus one for each trace row that carries
    # an averaged-point gradient.
    prob = make_problem("rosenbrock")
    for key, rep in grid["proposed"].items():
        check_run(rep, prob.objective, identity="practical", case=key)
    # Theoretical variant and every-iteration certification both add exactly
    # one gradient per iteration.
    term = TerminationPolicy(eps=1e-6, max_oracle_calls=1_000_000)
    rep = run(prob.objective, prob.x_init,
              SolverParams(l_init=1e2, m0=1.0, m_variant="theoretical",
                           termination=term))
    assert rep.reason == "EpsReached"
    check_run(rep, prob.objective, identity="every_row")
    term = TerminationPolicy(eps=1e-6, max_oracle_calls=1_000_000,
                             certify_mode="EveryIter")
    rep = run(prob.objective, prob.x_init,
              SolverParams(l_init=1e2, m0=1.0, termination=term))
    assert rep.reason == "EpsReached"
    check_run(rep, prob.objective, identity="every_row")
    print("accounting: 2 + 4K + certs (practical) and 2 + 5K "
          "(theoretical / every-iteration) reconcile exactly")


# ---------------------------------------------------------------------------
# run invariants, anchor monotonicity among them, across everything above


def test_anchor_values_never_increase_in_any_run(grid, cosine_long,
                                                 dominant_start, trend,
                                                 matcomp):
    rosenbrock = make_problem("rosenbrock").objective
    cosine = make_problem("cosine_sum", seed=0, dim=10).objective
    reports = [(rep, rosenbrock) for rep in [*grid["proposed"].values(), *grid["gd"].values()]]
    reports += [(rep, cosine) for rep in [*cosine_long.values(), *dominant_start.values(),
                                          trend["proposed"][0], trend["gd"][0]]]
    reports += [(matcomp[key], matcomp["problem"].objective) for key in ("cert", "prop", "gd")]
    checked = 0
    for i, (rep, obj) in enumerate(reports):
        check_run(rep, obj, case=i)
        checked += len(rep.anchor_values)
    print(f"anchors: nonincreasing across {len(reports)} runs "
          f"({checked} anchor values)")
