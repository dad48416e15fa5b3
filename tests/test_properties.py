"""Trajectory-level properties: bounds that should hold along every recorded
run, not just on hand-built states.  Each test executes the solver (or a
baseline) for a few thousand iterations and asserts the invariant row by row."""

import dataclasses
import math
from collections import defaultdict

import numpy as np
import pytest

from restartagd import (GdParams, LL2022Params, SolverParams,
                        TerminationPolicy, gd_run, ll2022_run, make_problem, run)
from reference import THETA0, check_run, potential, theta


def solve(problem_name, *, seed=0, dim=10, observer=None, **params):
    prob = make_problem(problem_name, seed=seed, dim=dim)
    term = TerminationPolicy(
        eps=params.pop("eps", None),
        max_iterations=params.pop("max_iterations", 2000),
    )
    report = run(prob.objective, prob.x_init,
                 SolverParams(termination=term, **params), observer=observer)
    return prob, report


# ---------------------------------------------------------------------------
# momentum schedule ordering


def test_momentum_schedule_interleaves():
    # theta_{k+1}^2 <= theta_k <= theta_{k+1} for every k, with the k = 0
    # anchor value defined as theta_1^2.
    assert THETA0 == theta(1) ** 2
    assert theta(1) ** 2 <= THETA0 <= theta(1)
    for k in range(1, 1001):
        assert theta(k + 1) ** 2 <= theta(k) <= theta(k + 1)


# ---------------------------------------------------------------------------
# per-iteration potential decrease

# With l_init equal to the true smoothness constant and beta = 1, the run
# keeps L = 1 for its whole life (no unsuccessful restart can fire), and
# m0 = 1 pins the curvature estimate at the true third-derivative bound.
# Along such a trajectory each iteration must pay for itself: the potential
#   Phi_k = f(x_k) + (theta_k^2/2) (<g_{k-1}, d_k> + |g_{k-1}|^2/2L + L|d_k|^2)
# decreases by at least the gradient-norm term on the right-hand side below.


def _potential_rhs(th_k, th_next, ell, m, h_prev, h_next, grad_sq):
    return (
        ((th_next ** 2 + th_k - 2.0) / 4.0) * ell * h_next ** 2
        + (7.0 * th_k ** 2 / 12.0) * m * h_prev ** 3
        + (th_k ** 3 / (4.0 * ell)) * m ** 2 * h_prev ** 4
        - (th_k ** 2 / (4.0 * ell)) * grad_sq
    )


def test_potential_decreases_every_iteration():
    snaps = []

    def grab(state, rec):
        snaps.append({
            "kind": rec.event, "k": rec.k, "L": rec.L, "M": rec.M,
            "f_cur": state.cur.f, "x_cur": state.cur.x.copy(),
            "g_cur": state.cur.g.copy(),
            "f_prev": state.prev.f, "x_prev": state.prev.x.copy(),
            "g_prev": state.prev.g.copy(),
        })

    _, report = solve("cosine_sum", l_init=1.0, beta=1.0, m0=1.0,
                      max_iterations=2000, observer=grab)
    assert report.total_K == 2000
    # Premises: the run never raises L or M and never restarts unsuccessfully.
    assert all(s["L"] == 1.0 and s["M"] == 1.0 for s in snaps)
    assert all(s["kind"] != "RestartUnsuccessful" for s in snaps)

    ell = 1.0
    pairs = anchors = 0
    for a, b in zip(snaps, snaps[1:]):
        # a must be a plain step so its prev-fields still describe the same
        # epoch; b may be a restart row, so x_k and its gradient are taken
        # from a (b's own prev-fields are re-anchored once a restart fires).
        if a["kind"] != "Step" or b["k"] != a["k"] + 1:
            continue
        th_k, th_next = theta(a["k"]), theta(b["k"])
        phi_k = potential(a["f_cur"], a["x_cur"], a["x_prev"], a["g_prev"],
                          th_k, ell)
        phi_next = potential(b["f_cur"], b["x_cur"], a["x_cur"], a["g_cur"],
                             th_next, ell)
        h_prev = float(np.linalg.norm(a["x_cur"] - a["x_prev"]))
        h_next = float(np.linalg.norm(b["x_cur"] - a["x_cur"]))
        rhs = _potential_rhs(th_k, th_next, ell, a["M"], h_prev, h_next,
                             float(a["g_cur"] @ a["g_cur"]))
        assert phi_next - phi_k <= rhs + 1e-9
        pairs += 1
    for b in snaps:
        # Epoch openers: the k = 0 -> 1 transition measured from the anchor,
        # whose displacement is zero by construction.
        if b["k"] != 1 or b["kind"] != "Step":
            continue
        phi_0 = potential(b["f_prev"], b["x_prev"], b["x_prev"], b["g_prev"],
                          THETA0, ell)
        phi_1 = potential(b["f_cur"], b["x_cur"], b["x_prev"], b["g_prev"],
                          theta(1), ell)
        h_next = float(np.linalg.norm(b["x_cur"] - b["x_prev"]))
        rhs = _potential_rhs(THETA0, theta(1), ell, b["M"], 0.0, h_next,
                             float(b["g_prev"] @ b["g_prev"]))
        assert phi_1 - phi_0 <= rhs + 1e-9
        anchors += 1
    # Guard against the pairing rules silently emptying the test.
    assert pairs >= 1900
    assert anchors >= 2


# ---------------------------------------------------------------------------
# min-gradient certificate bound

# Within an epoch the best averaged-point gradient seen so far is controlled
# by the displacement budget: min_{1<=i<k} |grad f(ybar_i)| never exceeds
# 4 L Mbar / M_{k-1} * sqrt(S_{k-1} / k^3) with Mbar = max{m0, known_M}.
# The bound presumes the iterates actually move; once a step underflows to a
# bitwise fixed point S freezes at exactly zero while the gradient keeps a
# ~1e-16 floating-point residual, so rows whose predecessor has S == 0 are
# outside the bound's hypotheses and are skipped (with a floor on how many
# live rows must remain).


@pytest.mark.parametrize("problem_name,l_init,iters", [
    ("cosine_sum", 1e-3, 2000),
    ("cosine_sum", 1.0, 2000),
    ("quadratic", 0.3, 1500),
])
def test_best_average_gradient_tracks_displacement(problem_name, l_init, iters):
    m0 = 1e-16
    prob, report = solve(problem_name, l_init=l_init, m0=m0,
                         m_variant="theoretical", max_iterations=iters)
    mbar = max(m0, prob.objective.known_M)

    epochs = defaultdict(list)
    for rec in report.trace:
        epochs[rec.epoch].append(rec)
    checked = 0
    for rows in epochs.values():
        rows.sort(key=lambda rec: rec.k)
        assert [rec.k for rec in rows] == list(range(1, len(rows) + 1))
        best = math.inf
        for i, rec in enumerate(rows):
            if rec.k >= 2 and rows[i - 1].S_k > 0.0:
                prev = rows[i - 1]
                bound = (4.0 * rec.L * (mbar / prev.M)
                         * math.sqrt(prev.S_k / rec.k ** 3))
                assert best <= bound * (1.0 + 1e-9), (rec.epoch, rec.k)
                checked += 1
            if rec.grad_norm_ybar is not None:
                best = min(best, rec.grad_norm_ybar)
    assert checked >= 50


# ---------------------------------------------------------------------------
# estimate boundedness along runs


@pytest.mark.parametrize("problem_name,l_init", [
    ("cosine_sum", 1e-3),
    ("cosine_sum", 1e3),
    ("quadratic", 1e-3),
])
def test_smoothness_estimate_stays_capped(problem_name, l_init):
    # L can only double while it still underestimates the true constant, so
    # it never passes alpha * known_L (or its starting value, if larger).
    alpha = 2.0
    prob, report = solve(problem_name, l_init=l_init, alpha=alpha)
    cap = max(l_init, alpha * prob.objective.known_L)
    assert all(rec.L <= cap for rec in report.trace)


@pytest.mark.parametrize("variant", ["practical", "theoretical"])
@pytest.mark.parametrize("problem_name", ["cosine_sum", "quadratic"])
def test_curvature_estimate_stays_capped(problem_name, variant):
    # Both M updates measure ratios that the true third-derivative bound
    # dominates, so M never passes max{m0, known_M}.
    m0 = 1e-16
    prob, report = solve(problem_name, l_init=1e-3, m0=m0, m_variant=variant)
    cap = max(m0, prob.objective.known_M)
    assert all(rec.M <= cap for rec in report.trace)


def test_quadratic_curvature_estimate_never_moves():
    # A quadratic has no third-order variation at all; every candidate ratio
    # sits inside the noise floor and M must stay bit-identical to m0.
    _, report = solve("quadratic", l_init=0.5, m0=1e-16,
                      m_variant="theoretical", max_iterations=500)
    assert {rec.M for rec in report.trace} == {1e-16}


@pytest.mark.parametrize("variant", ["practical", "theoretical"])
def test_no_unsuccessful_restart_when_start_smoothness_dominates(variant):
    # Started at L = known_L with beta = 1 the descent condition holds at
    # every iteration, so the only restarts are successful ones.
    _, report = solve("cosine_sum", l_init=1.0, beta=1.0, m_variant=variant,
                      max_iterations=10_000)
    assert report.total_K == 10_000
    assert all(rec.event != "RestartUnsuccessful" for rec in report.trace)


# ---------------------------------------------------------------------------
# backtracking baseline


def gd_solve(problem_name, *, l_init, seed=0, dim=10, **kw):
    prob = make_problem(problem_name, seed=seed, dim=dim)
    term = TerminationPolicy(eps=kw.pop("eps", 1e-6),
                             max_iterations=kw.pop("max_iterations", None))
    report = gd_run(prob.objective, prob.x_init,
                    GdParams(l_init=l_init, termination=term, **kw))
    return prob, report


@pytest.mark.parametrize("problem_name,l_init", [
    ("rosenbrock", 100.0),
    ("quadratic", 1e-2),
])
def test_gd_accepted_values_strictly_decrease(problem_name, l_init):
    # Every accepted step pays |g|^2 / 2L, which is positive until the
    # gradient is exactly zero, so the accepted-value sequence is strict.
    _, report = gd_solve(problem_name, l_init=l_init, dim=2)
    values = report.anchor_values
    assert len(values) >= 8
    assert all(b < a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("problem_name,l_init", [
    ("cosine_sum", 1e-3),
    ("quadratic", 1e-3),
])
def test_gd_trial_smoothness_stays_capped(problem_name, l_init):
    # Same cap as the accelerated solver: a trial value can only be rejected
    # (and doubled) while it underestimates the true constant.
    prob, report = gd_solve(problem_name, l_init=l_init, eps=None,
                            max_iterations=2000)
    cap = max(l_init, 2.0 * prob.objective.known_L)
    assert all(rec.L <= cap for rec in report.trace)


# ---------------------------------------------------------------------------
# seeded sweep over problems, dimensions and solvers

_SWEEP_SOLVERS = {
    "practical": lambda obj, x0, pol: run(obj, x0, SolverParams(termination=pol)),
    "theoretical": lambda obj, x0, pol: run(obj, x0, SolverParams(
        m_variant="theoretical", termination=pol)),
    "every_iter": lambda obj, x0, pol: run(obj, x0, SolverParams(
        termination=dataclasses.replace(pol, certify_mode="EveryIter"))),
    "gd": lambda obj, x0, pol: gd_run(obj, x0, GdParams(termination=pol)),
    # A fixed step must exceed the curvature; matrix completion declares
    # none, and 10 is safely above it at these sizes.
    "ll2022": lambda obj, x0, pol: ll2022_run(obj, x0, LL2022Params(
        l_f=2.0 * (obj.known_L or 5.0), termination=pol)),
}
# The accounting identity each proposed variant of the sweep keeps.
_IDENTITY = {"practical": "practical", "theoretical": "every_row", "every_iter": "every_row"}
_SWEEP_PROBLEMS = (
    [(name, {"dim": dim, "seed": seed}) for name in ("quadratic", "cosine_sum")
     for dim in (1, 3, 17) for seed in range(5)]
    + [("matcomp_synthetic", {"rank": rank, "seed": seed})
       for rank in (1, 2) for seed in range(3)])


def test_seeded_sweep_certificates_anchors_and_accounting():
    eps = 1e-6
    pol = TerminationPolicy(eps=eps, max_iterations=150)
    ends = defaultdict(int)
    for name, kw in _SWEEP_PROBLEMS:
        spec = make_problem(name, **kw)
        obj = spec.objective
        g0 = obj.grad_fn(spec.x_init)
        for solver, solve in _SWEEP_SOLVERS.items():
            case = f"{name} {kw} {solver}"
            rep = solve(obj, spec.x_init, pol)
            ends[rep.reason] += 1
            # Only certified runs reconcile: a budget stop may sit at a fixed
            # point, where memo hits are free.
            certified = rep.reason == "EpsReached"
            check_run(rep, obj, identity=_IDENTITY.get(solver) if certified else None,
                      case=case)
            # The certified path starts at the start point.
            calls, norms = rep.certified
            assert calls[0] == (1 if solver == "ll2022" else 2), case
            assert norms[0] == math.sqrt(float(g0 @ g0)), case
            if certified:
                first = next(c for c, norm in zip(calls, norms) if norm <= eps)
                assert first == rep.n_oracle, case
    # The sweep exercises both certified stops and budget stops.
    assert ends["EpsReached"] >= 30 and ends["BudgetExhausted"] >= 30, dict(ends)
