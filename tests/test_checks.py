"""Inequality checks: tight cases by hand and failure witnesses; and the
tests' own sampled curvature estimator and potential function identity."""

import numpy as np
import pytest

from restartagd import (Objective, WeightError, check_descent_lemma,
                        check_jensen_gradient, check_trapezoid, cosine_sum,
                        quadratic)

from reference import THETA0, estimate_M_bruteforce, potential


def cube_1d() -> Objective:
    # f(t) = t^3 has f''' = 6 everywhere: the trapezoid bound is tight with
    # M = 6, which pins both sides of that check exactly.
    return Objective(dim=1,
                     value_fn=lambda x: float(x[0]) ** 3,
                     grad_fn=lambda x: np.array([3.0 * float(x[0]) ** 2]))


# ---------------------------------------------------------------------------
# trapezoid bound


def test_trapezoid_tight_on_cubic():
    # x=0, y=1: lhs = 0 - 1 - 0.5*(0+3)*(-1) = 0.5 and rhs = (6/12)*1 = 0.5.
    r = check_trapezoid(cube_1d(), np.array([0.0]), np.array([1.0]), M=6.0)
    assert r.lhs == 0.5
    assert r.rhs == 0.5
    assert r.slack == 0.0
    assert r.holds


def test_trapezoid_orientation_flip_is_slack():
    r = check_trapezoid(cube_1d(), np.array([1.0]), np.array([0.0]), M=6.0)
    assert r.lhs == -0.5
    assert r.holds


def test_trapezoid_detects_m_too_small():
    r = check_trapezoid(cube_1d(), np.array([0.0]), np.array([1.0]), M=5.9)
    assert not r.holds
    assert r.slack < 0
    assert "VIOLATED" in str(r)
    assert len(r.witness) == 2


def test_trapezoid_holds_on_cosine_samples():
    obj = cosine_sum(3)
    rng = np.random.default_rng(5)
    for _ in range(200):
        x = rng.uniform(-10, 10, size=3)
        y = rng.uniform(-10, 10, size=3)
        assert check_trapezoid(obj, x, y, M=1.0).holds


# ---------------------------------------------------------------------------
# descent lemma


def test_descent_lemma_tight_on_quadratic():
    obj = quadratic(3, lam=2.5)
    rng = np.random.default_rng(6)
    for _ in range(100):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        r = check_descent_lemma(obj, x, y, L=2.5)
        assert r.holds
        # equality up to roundoff: the quadratic *is* its own model
        assert abs(r.slack) <= 1e-9 * (1.0 + abs(r.rhs))


def test_descent_lemma_detects_l_too_small():
    obj = quadratic(2, lam=2.0)
    r = check_descent_lemma(obj, np.array([3.0, 0.0]), np.array([0.0, 0.0]),
                            L=1.9)
    assert not r.holds


# ---------------------------------------------------------------------------
# gradient-of-average bound


def test_jensen_trivial_single_point():
    obj = cosine_sum(2)
    r = check_jensen_gradient(obj, [np.array([0.3, -0.7])], [1.0], M=1.0)
    assert r.lhs == 0.0
    assert r.rhs == 0.0
    assert r.holds


def test_jensen_zero_m_on_quadratic():
    # Linear gradients commute with averaging exactly.
    obj = quadratic(4, lam=1.7)
    rng = np.random.default_rng(8)
    pts = [rng.standard_normal(4) for _ in range(4)]
    r = check_jensen_gradient(obj, pts, [0.25] * 4, M=0.0)
    assert r.rhs == 0.0
    assert r.holds


def test_jensen_holds_on_cosine_samples():
    obj = cosine_sum(2)
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        pts = [rng.uniform(-10, 10, size=2) for _ in range(n)]
        w = rng.dirichlet(np.ones(n))
        w = w / w.sum()
        assert check_jensen_gradient(obj, pts, w, M=1.0).holds


def test_jensen_rejects_bad_weights():
    obj = quadratic(2)
    pts = [np.zeros(2), np.ones(2)]
    with pytest.raises(WeightError):
        check_jensen_gradient(obj, pts, [0.5], M=1.0)
    with pytest.raises(WeightError):
        check_jensen_gradient(obj, pts, [-0.1, 1.1], M=1.0)
    with pytest.raises(WeightError):
        check_jensen_gradient(obj, pts, [0.6, 0.6], M=1.0)


# ---------------------------------------------------------------------------
# sampled curvature estimator (built on the two checks, kept in reference.py)


def test_estimate_m_recovers_cubic_constant():
    est = estimate_M_bruteforce(cube_1d(), (np.array([-2.0]), np.array([2.0])),
                                samples=50, seed=1)
    assert est == pytest.approx(6.0, rel=1e-9)


def test_estimate_m_vanishes_on_quadratic():
    obj = quadratic(3, lam=2.5)
    est = estimate_M_bruteforce(obj, (-np.ones(3), np.ones(3)),
                                samples=200, seed=2)
    assert est < 1e-8


def test_estimate_m_brackets_cosine_constant():
    # A lower estimate: it must approach 1 from below and never exceed it.
    obj = cosine_sum(2)
    est = estimate_M_bruteforce(obj, (np.full(2, -10.0), np.full(2, 10.0)),
                                samples=2000, seed=3)
    assert 0.5 < est <= 1.0 + 1e-9


def test_estimate_m_validates_inputs():
    obj = quadratic(2)
    with pytest.raises(ValueError):
        estimate_M_bruteforce(obj, (np.zeros(2), np.ones(2)), samples=0)
    with pytest.raises(ValueError):
        estimate_M_bruteforce(obj, (np.ones(2), np.zeros(2)), samples=10)


# ---------------------------------------------------------------------------
# potential function (kept in reference.py)


def test_potential_matches_sum_of_squares_form():
    rng = np.random.default_rng(10)
    for _ in range(100):
        x = rng.standard_normal(3)
        xp = rng.standard_normal(3)
        g = rng.standard_normal(3)
        th = float(rng.uniform(0.1, 1.0))
        L = float(rng.uniform(0.5, 10.0))
        f_x = float(rng.standard_normal())
        d = x - xp
        bracket = (float(np.linalg.norm(g + L * d)) ** 2 / (2.0 * L)
                   + 0.5 * L * float(d @ d))
        want = f_x + 0.5 * th * th * bracket
        got = potential(f_x, x, xp, g, th, L)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert got >= f_x - 1e-12 * (1.0 + abs(f_x))


def test_potential_at_anchor_uses_squared_first_weight():
    assert THETA0 == 0.25
    x = np.array([1.0, 2.0])
    g = np.array([3.0, -1.0])
    # x == x_prev: bracket reduces to ||g||^2/(2L)
    val = potential(5.0, x, x, g, THETA0, 2.0)
    assert val == 5.0 + 0.5 * THETA0 ** 2 * (10.0 / 4.0)
