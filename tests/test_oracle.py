"""Oracle layer: validation, counting, memoization, finite differences."""

import math

import numpy as np
import pytest

from restartagd import (NonFiniteGradient, NonFiniteValue, Objective,
                        ObjectiveRaised, OracleError, OracleSession, as_point,
                        make_problem, oracle)

from reference import fd_gradient

ALL_BUILTINS = ["rosenbrock", "quadratic", "cosine_sum", "matcomp_synthetic"]


def test_as_point_accepts_lists_and_pins_dtype():
    p = as_point([1, 2, 3])
    assert p.dtype == np.float64
    assert p.shape == (3,)


def test_as_point_rejects_bad_inputs():
    with pytest.raises(ValueError):
        as_point([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_point([])
    with pytest.raises(ValueError):
        as_point([1.0, np.nan])
    with pytest.raises(ValueError):
        as_point([1.0, np.inf])
    with pytest.raises(ValueError):
        as_point([1.0, 2.0], dim=3)


def test_objective_requires_positive_dim():
    with pytest.raises(ValueError):
        Objective(dim=0, value_fn=lambda x: 0.0, grad_fn=lambda x: x)


# Frozen values computed by hand from the closed forms:
#   rosenbrock: f(x,y) = (x-1)^2 + 100 (y-x^2)^2
#   grad = (2(x-1) - 400 x (y-x^2), 200 (y-x^2))
def test_rosenbrock_frozen_values():
    spec = make_problem("rosenbrock")
    f, g = spec.objective.value_fn, spec.objective.grad_fn
    assert f(np.array([0.0, 0.0])) == 1.0
    np.testing.assert_array_equal(g(np.array([0.0, 0.0])), [-2.0, 0.0])
    assert f(np.array([1.0, 1.0])) == 0.0
    np.testing.assert_array_equal(g(np.array([1.0, 1.0])), [0.0, 0.0])
    assert f(np.array([-1.0, 1.0])) == 4.0
    np.testing.assert_array_equal(g(np.array([-1.0, 1.0])), [-4.0, 0.0])


def test_cosine_sum_frozen_values():
    spec = make_problem("cosine_sum", dim=3)
    f, g = spec.objective.value_fn, spec.objective.grad_fn
    x = np.zeros(3)
    assert f(x) == 3.0                       # sum of cos(0)
    np.testing.assert_array_equal(g(x), np.zeros(3))
    x = np.full(3, np.pi)
    assert f(x) == pytest.approx(-3.0, abs=1e-12)
    np.testing.assert_allclose(g(x), np.zeros(3), atol=1e-12)
    x = np.array([np.pi / 2, 0.0, 0.0])
    assert f(x) == pytest.approx(2.0, abs=1e-12)
    np.testing.assert_allclose(g(x), [-1.0, 0.0, 0.0], atol=1e-12)


def test_session_counts_and_memoizes():
    spec = make_problem("rosenbrock")
    sess = OracleSession(spec.objective)
    x = as_point([0.0, 0.0])
    v1 = sess.value(x)
    v2 = sess.value(x)              # memo hit: same bytes, no new eval
    assert v1 == v2 == 1.0
    assert sess.n_value == 1
    g1 = sess.grad(x)
    g2 = sess.grad(x)
    assert g1 is g2
    assert sess.n_grad == 1
    assert sess.n_oracle == 2
    # a different point evicts the single memo slot
    y = as_point([1.0, 1.0])
    sess.value(y)
    sess.value(x)
    assert sess.n_value == 3


def test_evaluate_asks_value_then_grad_through_the_counted_channels():
    spec = make_problem("rosenbrock")
    sess = OracleSession(spec.objective)
    x = as_point([0.0, 0.0])
    e = sess.evaluate(x)
    assert e.x is x and e.f == sess.value(x) == 1.0 and e.g is sess.grad(x)
    assert e.norm == sess.grad_norm == 2.0
    assert (sess.n_value, sess.n_grad) == (1, 1)
    y = as_point([1.0, 1.0])        # the minimizer: a zero gradient
    b = sess.evaluate(y, value=False)
    assert b.f is None and (sess.n_value, sess.n_grad) == (1, 2)
    # ``better`` keeps the first record unless the other's norm is strictly lower.
    assert e.better(b) is b and b.better(e) is b and e.better(sess.evaluate(x)) is e


def test_session_memo_is_bitwise_not_approximate():
    spec = make_problem("rosenbrock")
    sess = OracleSession(spec.objective)
    x = as_point([0.1, 0.2])
    x_close = np.nextafter(x, 1.0)  # one ulp away: different bytes
    sess.value(x)
    sess.value(x_close)
    assert sess.n_value == 2


def test_non_finite_value_raises_with_point():
    obj = Objective(dim=1, value_fn=lambda x: float("inf"), grad_fn=lambda x: x)
    sess = OracleSession(obj)
    with pytest.raises(NonFiniteValue) as exc:
        sess.value(as_point([2.0]))
    assert exc.value.point[0] == 2.0


def test_non_finite_gradient_raises():
    obj = Objective(dim=2, value_fn=lambda x: 0.0,
                    grad_fn=lambda x: np.array([np.nan, 0.0]))
    sess = OracleSession(obj)
    with pytest.raises(NonFiniteGradient):
        sess.grad(as_point([0.0, 0.0]))


def test_gradient_shape_mismatch_is_an_oracle_error():
    # The shape check runs before the finite check's dot product, which
    # would raise a bare ValueError on some of these shapes.
    for shape in [(3,), (1,), (2, 1), (1, 2), ()]:
        for fill in (0.0, np.nan):
            obj = Objective(dim=2, value_fn=lambda x: 0.0,
                            grad_fn=lambda x: np.full(shape, fill))
            sess = OracleSession(obj)
            with pytest.raises(OracleError, match="shape") as exc:
                sess.grad(as_point([0.0, 0.0]))
            assert type(exc.value) is OracleError


def _grad_of(g):
    """A session whose objective returns the gradient ``g`` everywhere."""
    return OracleSession(Objective(dim=len(g), value_fn=lambda x: 0.0,
                                   grad_fn=lambda x: g))


# Finite entries at the edges of the range, each contributing +-0 to the
# check's dot product.
_EXTREMES = (1e308, -1e308, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0)


@pytest.mark.parametrize("mode", ["ignore", "raise"])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33, 1000])
def test_every_non_finite_entry_is_caught_at_every_width(d, mode):
    # Under "raise" the check's own inf * 0 raises inside the dot product;
    # the session must still report NonFiniteGradient.
    base = np.resize(np.array(_EXTREMES), d)
    at = range(d) if d <= 33 else (0, d // 2, d - 1)
    with np.errstate(all=mode):
        for bad in (np.nan, np.inf, -np.inf):
            for i in at:
                g = base.copy()
                g[i] = bad
                with pytest.raises(NonFiniteGradient):
                    _grad_of(g).grad(np.zeros(d))
        for shift in range(len(_EXTREMES)):
            g = np.roll(base, shift)
            assert _grad_of(g).grad(np.zeros(d)) is g


def test_value_below_declared_lower_bound_is_an_oracle_error():
    for below in (1.0, 1e-6):
        obj = Objective(dim=1, value_fn=lambda x: -below, grad_fn=lambda x: x,
                        lower_bound=0.0)
        sess = OracleSession(obj)
        with pytest.raises(OracleError):
            sess.value(as_point([0.0]))


def test_value_within_the_rounding_slack_of_the_lower_bound_is_accepted():
    # The slack is 1e-9 * (1 + |lb|): 1e-10 under the bound is rounding,
    # 1e-6 under it (above) is not.
    obj = Objective(dim=1, value_fn=lambda x: 2.0 - 1e-10, grad_fn=lambda x: x,
                    lower_bound=2.0)
    assert OracleSession(obj).value(as_point([0.0])) == 2.0 - 1e-10


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_fd_gradient_matches_analytic_on_random_points(name):
    spec = make_problem(name, seed=3)
    obj = spec.objective
    rng = np.random.default_rng(7)
    scale = 2.0 if name != "matcomp_synthetic" else 0.5
    n_points = 100 if obj.dim <= 10 else 8
    for _ in range(n_points):
        x = rng.uniform(-scale, scale, obj.dim)
        fd = fd_gradient(obj, x, h=1e-6)
        g = obj.grad_fn(x)
        assert np.linalg.norm(g - fd) <= 1e-4 * (1.0 + np.linalg.norm(fd))


def test_fd_gradient_does_not_touch_counters():
    spec = make_problem("quadratic", dim=3)
    sess = OracleSession(spec.objective)
    fd_gradient(spec.objective, np.ones(3))
    assert sess.n_oracle == 0


@pytest.mark.parametrize("mode", ["ignore", "raise"])
def test_overflowed_norm_of_a_finite_gradient_is_accepted_as_inf(mode):
    # The sum of squares overflows although every entry is finite: accepted,
    # with norm +inf, under either error state.
    g = np.array([1e200, 1e200])
    sess = _grad_of(g)
    with np.errstate(all=mode):
        assert sess.grad(np.zeros(2)) is g
    assert sess.grad_norm == math.inf


def test_underflowed_norm_is_the_same_under_every_error_state():
    norms = []
    for mode in ("ignore", "raise"):
        sess = _grad_of(np.array([1e-200]))
        with np.errstate(all=mode):
            sess.grad(np.zeros(1))
        norms.append(sess.grad_norm)
    with np.errstate(all="ignore"):
        assert norms == [oracle.l2_norm(np.array([1e-200]))] * 2


def test_gradient_is_normed_once_and_a_memo_hit_returns_the_stored_norm(monkeypatch):
    spec = make_problem("rosenbrock")
    sess = OracleSession(spec.objective)
    normed = []

    def counted(g):
        normed.append(g)
        return math.sqrt(float(g.dot(g)))

    monkeypatch.setattr(oracle, "l2_norm", counted)
    x = as_point([0.5, -0.5])
    g = sess.grad(x)
    norm = sess.grad_norm
    assert norm == math.sqrt(float(g.dot(g))) > 0.0 and len(normed) == 1
    sess.value(x)
    assert sess.grad(x) is g and sess.grad_norm == norm and len(normed) == 1
    sess.grad(as_point([1.0, 1.0]))
    assert sess.grad_norm == 0.0 and len(normed) == 2


def _raising(exc, after=1):
    """A callable raising ``exc`` from its ``after``-th call on, else x."""
    calls = [0]

    def fn(x):
        calls[0] += 1
        if calls[0] >= after:
            raise exc
        return x
    return fn


@pytest.mark.parametrize("channel", ["value_fn", "grad_fn"])
def test_an_objective_that_raises_ends_as_objective_raised(channel):
    cause = RuntimeError("boom")
    fns = {"value_fn": lambda x: 0.0, "grad_fn": lambda x: x, channel: _raising(cause)}
    sess = OracleSession(Objective(dim=1, **fns))
    call = sess.value if channel == "value_fn" else sess.grad
    with pytest.raises(ObjectiveRaised, match=f"{channel} raised RuntimeError: boom") as err:
        call(as_point([1.0]))
    assert err.value.channel == channel
    assert err.value.__cause__ is cause
    assert sess.n_oracle == 0


def test_an_interrupt_from_the_objective_keeps_its_type():
    stop = KeyboardInterrupt()
    sess = OracleSession(Objective(dim=1, value_fn=_raising(stop), grad_fn=_raising(stop)))
    for call in (sess.value, sess.grad):
        with pytest.raises(KeyboardInterrupt) as err:
            call(as_point([1.0]))
        assert err.value is stop
