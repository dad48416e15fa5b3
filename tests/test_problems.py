"""Built-in objectives: closed-form values, gradients, loaders, seeding."""

import dataclasses
import gc
import math

import numpy as np
import pytest
from scipy import sparse

from restartagd import (CERTIFY_EVERY_ITER, M_THEORETICAL,
                        GdParams, LL2022Params, MatrixCompletionInstance,
                        Objective, SolverParams, TerminationPolicy,
                        completion_init, cosine_sum, gd_run,
                        ll2022_run, load_movielens_100k, make_problem,
                        matrix_completion, quadratic, rosenbrock, run,
                        synthetic_completion_instance)
from restartagd import problems
from restartagd.problems import DATA_ENV_VAR
from reference import fd_gradient, rosenbrock_grad, rosenbrock_value


def test_rosenbrock_metadata():
    obj = rosenbrock()
    assert obj.dim == 2
    assert obj.lower_bound == 0.0
    assert obj.known_L is None and obj.known_M is None


@np.errstate(all="ignore")
def test_rosenbrock_bitwise_equals_the_numpy_scalar_form():
    # Python-float arithmetic must give the bits NumPy float64 scalars give,
    # from subnormal to overflowing points and at non-finite ones.
    rng = np.random.default_rng(3)
    n = 4000
    points = np.concatenate([
        rng.uniform(-3.0, 3.0, (n, 2)),
        np.ldexp(rng.uniform(-1.0, 1.0, (n, 2)), rng.integers(-1074, 1024, (n, 2))),
        rng.uniform(-1.0, 1.0, (n, 2)) * [1e154, 1e308],  # x^2 and y - x^2 overflow
        [[0.0, -0.0], [5e-324, -5e-324], [1.7976931348623157e308, -1.7976931348623157e308],
         [np.inf, 1.0], [1.0, -np.inf], [np.nan, 0.0], [-np.inf, np.inf]],
    ])
    obj = rosenbrock()
    overflowed = 0
    for v in points:
        got, want = obj.value_fn(v), rosenbrock_value(v)
        assert type(got) is float
        assert np.float64(got).tobytes() == want.tobytes(), v
        g = obj.grad_fn(v)
        assert g.dtype == np.float64 and g.tobytes() == rosenbrock_grad(v).tobytes(), v
        overflowed += not math.isfinite(got)
    assert overflowed > 1000


def test_quadratic_values_and_constants():
    obj = quadratic(4, lam=2.5)
    assert obj.known_L == 2.5
    assert obj.known_M == 0.0
    x = np.array([1.0, 2.0, 0.0, -1.0])
    assert obj.value_fn(x) == pytest.approx(2.5 / 2 * 6.0)
    np.testing.assert_allclose(obj.grad_fn(x), 2.5 * x)


def test_quadratic_rejects_bad_params():
    with pytest.raises(ValueError):
        quadratic(0)
    with pytest.raises(ValueError):
        quadratic(3, lam=0.0)


def test_cosine_sum_constants_and_bounds():
    obj = cosine_sum(5)
    assert obj.known_L == 1.0
    assert obj.known_M == 1.0
    assert obj.lower_bound == -5.0
    x = np.full(5, np.pi)
    assert obj.value_fn(x) >= obj.lower_bound


@pytest.mark.parametrize("name,scale", [
    ("rosenbrock", 2.0),
    ("quadratic", 3.0),
    ("cosine_sum", 3.0),
])
def test_fd_cross_check_dense_problems(name, scale):
    spec = make_problem(name, seed=1)
    obj = spec.objective
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.uniform(-scale, scale, obj.dim)
        fd = fd_gradient(obj, x, h=1e-6)
        err = np.linalg.norm(obj.grad_fn(x) - fd)
        assert err <= 1e-4 * (1.0 + np.linalg.norm(fd))


# --- matrix completion ---------------------------------------------------

def _tiny_instance():
    # 3x2 matrix, 4 observed entries, written out by hand
    return MatrixCompletionInstance(
        p=3, q=2,
        rows=np.array([0, 0, 1, 2]),
        cols=np.array([0, 1, 1, 0]),
        vals=np.array([1.0, 2.0, -1.0, 0.5]),
    )


def test_completion_value_by_hand():
    inst = _tiny_instance()
    obj = matrix_completion(inst, rank=1)
    # U = [[1],[1],[1]], V = [[1],[1]]: every prediction is 1
    x = np.ones(obj.dim)
    resid = np.array([1.0 - 1.0, 1.0 - 2.0, 1.0 + 1.0, 1.0 - 0.5])
    data_term = 0.5 / 4 * np.sum(resid ** 2)
    # U^T U = 3, V^T V = 2 -> balance term (1/(2*4)) * (3-2)^2
    balance = 0.5 / 4 * 1.0
    assert obj.value_fn(x) == pytest.approx(data_term + balance, rel=1e-14)


def test_completion_gradient_fd_cross_check():
    inst = synthetic_completion_instance(p=12, q=9, rank=2, fraction=0.4, seed=5)
    obj = matrix_completion(inst, rank=3)
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.normal(size=obj.dim) * 0.7
        fd = fd_gradient(obj, x, h=1e-6)
        err = np.linalg.norm(obj.grad_fn(x) - fd)
        assert err <= 1e-4 * (1.0 + np.linalg.norm(fd))


def test_completion_rotation_invariance():
    # f((U, V)) is invariant under (U Q, V Q) for orthogonal Q: both the
    # residuals (U Q)(V Q)^T = U V^T and the balance (Q^T (U^T U - V^T V) Q)
    # Frobenius norm are preserved.
    inst = synthetic_completion_instance(p=10, q=8, rank=2, fraction=0.5, seed=9)
    r = 3
    obj = matrix_completion(inst, rank=r)
    rng = np.random.default_rng(4)
    x = rng.normal(size=obj.dim)
    U = x[: inst.p * r].reshape(inst.p, r)
    V = x[inst.p * r:].reshape(inst.q, r)
    q_mat, _ = np.linalg.qr(rng.normal(size=(r, r)))
    x_rot = np.concatenate([(U @ q_mat).ravel(), (V @ q_mat).ravel()])
    assert obj.value_fn(x_rot) == pytest.approx(obj.value_fn(x), rel=1e-10)


def test_completion_empty_observation_set():
    inst = MatrixCompletionInstance(p=2, q=2, rows=np.array([], dtype=int),
                                    cols=np.array([], dtype=int),
                                    vals=np.array([]))
    obj = matrix_completion(inst, rank=1)
    assert obj.value_fn(np.ones(obj.dim)) == 0.0
    np.testing.assert_array_equal(obj.grad_fn(np.ones(obj.dim)), np.zeros(obj.dim))


# The completion kernel as first written: no memo, fancy-index gathers and a
# new CSR matrix (transposed product through CSC) on every gradient.  The
# shipped kernel must reproduce it bit for bit.
def _reference_completion(instance, rank):
    p, q, n = instance.p, instance.q, instance.n_observed
    rows, cols, vals = instance.rows, instance.cols, instance.vals
    structure = sparse.csr_matrix(
        (np.arange(1, n + 1, dtype=np.float64), (rows, cols)), shape=(p, q))
    perm = structure.data.astype(np.int64) - 1
    scale = 1.0 / n

    def split(v):
        return v[: p * rank].reshape(p, rank), v[p * rank:].reshape(q, rank)

    def residual(u, w):
        return np.einsum("ij,ij->i", u[rows], w[cols]) - vals

    def value(v):
        u, w = split(v)
        r = residual(u, w)
        d = u.T @ u - w.T @ w
        return 0.5 * scale * (float(r @ r) + float(np.sum(d * d)))

    def grad(v):
        u, w = split(v)
        r = residual(u, w)
        d = u.T @ u - w.T @ w
        rmat = sparse.csr_matrix((r[perm], structure.indices, structure.indptr),
                                 shape=(p, q))
        gu = scale * (rmat @ w) + 2.0 * scale * (u @ d)
        gw = scale * (rmat.T @ u) - 2.0 * scale * (w @ d)
        return np.concatenate([gu.ravel(), gw.ravel()])

    return Objective(dim=(p + q) * rank, value_fn=value, grad_fn=grad,
                     lower_bound=0.0)


def _gap_instance():
    # row 2 and column 3 are never observed; rows are not sorted
    return MatrixCompletionInstance(
        p=4, q=4,
        rows=np.array([3, 0, 1, 0, 3, 1]),
        cols=np.array([0, 2, 1, 0, 2, 0]),
        vals=np.array([0.3, -1.2, 2.0, 0.7, 1.1, -0.4]),
    )


def _shuffled_instance(p, q, fraction, seed):
    # a synthetic instance with its observations out of row-major order
    inst = synthetic_completion_instance(p=p, q=q, fraction=fraction, seed=seed)
    order = np.random.default_rng(seed).permutation(inst.n_observed)
    return MatrixCompletionInstance(p=p, q=q, rows=inst.rows[order],
                                    cols=inst.cols[order], vals=inst.vals[order])


_KERNEL_CASES = [
    pytest.param(synthetic_completion_instance(p=30, q=20, rank=3, seed=7), 1,
                 id="rank1"),
    pytest.param(synthetic_completion_instance(p=30, q=20, rank=3, seed=7), 2,
                 id="rank2"),
    pytest.param(synthetic_completion_instance(p=30, q=20, rank=3, seed=7), 3,
                 id="rank3"),
    pytest.param(_tiny_instance(), 1, id="tiny-rank1"),
    pytest.param(_tiny_instance(), 2, id="tiny-rank2"),
    pytest.param(synthetic_completion_instance(p=12, q=9, rank=2, fraction=1.0,
                                               seed=3), 2, id="fully-observed"),
    pytest.param(_gap_instance(), 2, id="unobserved-row-and-column"),
    # Ranks and row counts where BLAS falls back to its remainder kernels,
    # and a one-row U, whose product NumPy hands to a matrix-vector kernel.
    pytest.param(_shuffled_instance(1, 12, 1.0, seed=4), 8, id="one-row-rank8"),
    pytest.param(_shuffled_instance(23, 14, 0.5, seed=5), 9, id="shuffled-rank9"),
    pytest.param(_shuffled_instance(300, 200, 0.2, seed=6), 37, id="shuffled-300x200-rank37"),
]


def _assert_same(obj, ref, x):
    assert obj.value_fn(x) == ref.value_fn(x)
    assert obj.grad_fn(x).tobytes() == ref.grad_fn(x).tobytes()


@pytest.mark.parametrize("inst,rank", _KERNEL_CASES)
def test_completion_kernel_bitwise_equals_reference(inst, rank):
    obj, ref = matrix_completion(inst, rank), _reference_completion(inst, rank)
    rng = np.random.default_rng(rank)
    for _ in range(10):
        x = rng.standard_normal(obj.dim)
        # fresh point, then both orders at one point (memo hits)
        assert obj.grad_fn(x).tobytes() == ref.grad_fn(x).tobytes()
        assert obj.value_fn(x) == ref.value_fn(x)
        y = rng.standard_normal(obj.dim)
        assert obj.value_fn(y) == ref.value_fn(y)
        assert obj.grad_fn(y).tobytes() == ref.grad_fn(y).tobytes()


def test_completion_memo_alternating_points():
    inst = synthetic_completion_instance(p=20, q=15, rank=2, seed=1)
    obj, ref = matrix_completion(inst, 2), _reference_completion(inst, 2)
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal(obj.dim), rng.standard_normal(obj.dim)
    for point in (x, y, x, y, y, x):
        _assert_same(obj, ref, point)
    for point in (x, y, x, y):
        assert obj.grad_fn(point).tobytes() == ref.grad_fn(point).tobytes()
    for point in (x, y, x, y):
        assert obj.value_fn(point) == ref.value_fn(point)


def test_completion_memo_misses_on_in_place_mutation():
    inst = synthetic_completion_instance(p=20, q=15, rank=2, seed=2)
    obj, ref = matrix_completion(inst, 2), _reference_completion(inst, 2)
    x = np.random.default_rng(1).standard_normal(obj.dim)
    v0, g0 = obj.value_fn(x), obj.grad_fn(x)
    x[3] += 0.25  # the same array object, new contents
    assert obj.value_fn(x) != v0
    _assert_same(obj, ref, x)
    x[-1] -= 0.5
    assert obj.grad_fn(x).tobytes() != g0.tobytes()
    _assert_same(obj, ref, x)


def test_completion_returned_gradient_is_caller_owned():
    inst = synthetic_completion_instance(p=20, q=15, rank=2, seed=3)
    obj, ref = matrix_completion(inst, 2), _reference_completion(inst, 2)
    x = np.random.default_rng(2).standard_normal(obj.dim)
    g = obj.grad_fn(x)
    expected = g.copy()
    g[:] = 7.0
    assert obj.grad_fn(x).tobytes() == expected.tobytes()
    assert obj.value_fn(x) == ref.value_fn(x)
    _assert_same(obj, ref, x)
    # A gradient served from an older entry of the memo, and the one first
    # computed for it, are the caller's too: mutating either leaves the entry.
    points = np.random.default_rng(5).standard_normal((3, obj.dim))
    first = obj.grad_fn(points[0])
    truth = [ref.grad_fn(y).tobytes() for y in points]
    for y in points[1:]:
        obj.grad_fn(y)
    first[:] = 7.0
    served = obj.grad_fn(points[0])
    assert served.tobytes() == truth[0]
    served[:] = -7.0
    assert [obj.grad_fn(y).tobytes() for y in points] == truth


def test_completion_cache_evicts_the_least_recently_used_point():
    # White-box, as below: after gradients at p0..p63, which fill the
    # process-wide cache, changing the observed data does not reach p0's
    # gradient, which comes back with the old bits as a new array.  Touching
    # p0 makes p1 the oldest, so a 65th point pushes p1 out, not p0: p1's
    # gradient is then computed afresh and sees the change, and p0's is not.
    inst = synthetic_completion_instance(p=20, q=15, rank=2, seed=6)
    obj = matrix_completion(inst, 2)
    points = np.random.default_rng(7).standard_normal((65, obj.dim))
    old = [obj.grad_fn(y) for y in points[:64]]
    inst.vals[:] += 1.0
    changed = _reference_completion(inst, 2)
    again = obj.grad_fn(points[0])
    assert again is not old[0] and again.tobytes() == old[0].tobytes()
    assert again.tobytes() != changed.grad_fn(points[0]).tobytes()
    assert obj.grad_fn(points[64]).tobytes() == changed.grad_fn(points[64]).tobytes()
    assert obj.grad_fn(points[0]).tobytes() == old[0].tobytes()
    assert obj.grad_fn(points[1]).tobytes() == changed.grad_fn(points[1]).tobytes()
    assert obj.grad_fn(points[3]).tobytes() == old[3].tobytes()


def test_completion_value_after_grad_reuses_the_residual():
    # White-box: a gradient at x leaves x's residual in the one-slot memo, so
    # the value asked next at x is computed from it, and changing the observed
    # data in between does not reach it.  y's value, computed before the
    # change, is served from the cache; a third, fresh point z sees the change.
    inst = synthetic_completion_instance(p=20, q=15, rank=2, seed=4)
    obj = matrix_completion(inst, 2)
    before = _reference_completion(dataclasses.replace(inst, vals=inst.vals.copy()), 2)
    x, y, z = np.random.default_rng(3).standard_normal((3, obj.dim))
    v_y = obj.value_fn(y)
    obj.grad_fn(x)
    inst.vals[:] += 1.0
    assert obj.value_fn(x) == before.value_fn(x)
    assert obj.value_fn(y) == v_y
    assert obj.value_fn(z) == _reference_completion(inst, 2).value_fn(z) != before.value_fn(z)


def test_completion_objectives_never_share_a_cache_entry():
    # Two objectives on one instance ask for one point; after the observed
    # data changes, only the first may serve its old value and gradient.  A
    # third objective, built once the first is collected, shares nothing
    # with it either.
    inst = synthetic_completion_instance(p=20, q=15, rank=2, seed=8)
    first = matrix_completion(inst, 2)
    x = np.random.default_rng(9).standard_normal(first.dim)
    v, g = first.value_fn(x), first.grad_fn(x)
    inst.vals[:] += 1.0
    second = matrix_completion(inst, 2)
    _assert_same(second, _reference_completion(inst, 2), x)
    assert first.value_fn(x) == v and first.grad_fn(x).tobytes() == g.tobytes()
    del first
    gc.collect()
    inst.vals[:] += 1.0
    third = matrix_completion(inst, 2)
    _assert_same(third, _reference_completion(inst, 2), x)
    assert third.value_fn(x) != v


def _held_bytes():
    return sum(len(point) + (0 if g is None else g.nbytes)
               for (_, point), (_, g) in problems._POINTS.items())


def test_completion_cache_stays_within_its_two_bounds():
    # At most 64 points, and at a large dim at most 32 MiB of keys and
    # gradients: 16 * 400,000 bytes a point allows 5.
    small = matrix_completion(synthetic_completion_instance(p=20, q=15, rank=2, seed=9), 2)
    rng = np.random.default_rng(10)
    for _ in range(200):
        y = rng.standard_normal(small.dim)
        small.value_fn(y)
        small.grad_fn(y)
    assert len(problems._POINTS) == 64
    n = 1000
    big = matrix_completion(MatrixCompletionInstance(
        p=n, q=n, rows=np.arange(n), cols=np.arange(n)[::-1], vals=np.ones(n)), 200)
    assert big.dim == 400_000
    try:
        for _ in range(8):
            y = rng.standard_normal(big.dim)
            big.value_fn(y)
            big.grad_fn(y)
            assert _held_bytes() <= 32 << 20
        assert len(problems._POINTS) == 5
    finally:
        problems._POINTS.clear()  # give the 32 MB back to the test process


def _fingerprint(rep):
    return (repr([dataclasses.astuple(t) for t in rep.trace]),
            rep.solution.tobytes(), rep.n_value, rep.n_grad,
            repr(rep.anchor_values), rep.reason, rep.total_K,
            repr(rep.certified_grad_norm))


def _matcomp_runs(obj, x0):
    to_eps = TerminationPolicy(eps=1e-3, max_oracle_calls=20_000)
    every = dataclasses.replace(to_eps, certify_mode=CERTIFY_EVERY_ITER)
    prop = run(obj, x0, SolverParams(termination=to_eps))
    reports = [
        prop,
        run(obj, x0, SolverParams(m_variant=M_THEORETICAL, termination=to_eps)),
        run(obj, x0, SolverParams(termination=every)),
    ]
    budget = TerminationPolicy(max_oracle_calls=prop.n_oracle,
                               max_iterations=prop.n_oracle)
    reports.append(gd_run(obj, x0, GdParams(termination=budget)))
    reports.append(ll2022_run(obj, x0, LL2022Params(l_f=1.0, termination=budget)))
    return reports


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matcomp_trajectories_match_reference_kernel(seed):
    spec = make_problem("matcomp_synthetic", seed=seed)
    inst = synthetic_completion_instance(rank=5, seed=seed)
    ref = _reference_completion(inst, 5)
    new = _matcomp_runs(spec.objective, spec.x_init)
    old = _matcomp_runs(ref, spec.x_init)
    assert [r.reason for r in new[:3]] == ["EpsReached"] * 3
    for a, b in zip(new, old):
        assert _fingerprint(a) == _fingerprint(b)


def test_theoretical_run_after_a_practical_one_computes_nothing():
    # At the benchmark's eps the theoretical variant asks only for points the
    # practical run on the same objective evaluated, so the cache serves every
    # one: with the observed data changed in between, it still reproduces a
    # theoretical run on the unchanged data.
    inst = synthetic_completion_instance(rank=5, seed=0)
    x0 = completion_init(inst, 5, seed=1)
    to_eps = TerminationPolicy(eps=1e-2, max_oracle_calls=20_000)
    theoretical = SolverParams(m_variant=M_THEORETICAL, termination=to_eps)
    fresh = run(matrix_completion(dataclasses.replace(inst, vals=inst.vals.copy()), 5),
                x0, theoretical)
    obj = matrix_completion(inst, 5)
    run(obj, x0, SolverParams(termination=to_eps))
    inst.vals[:] += 1.0
    assert _fingerprint(run(obj, x0, theoretical)) == _fingerprint(fresh)
    assert _fingerprint(run(matrix_completion(inst, 5), x0, theoretical)) != _fingerprint(fresh)


def test_instance_validation():
    with pytest.raises(ValueError):
        MatrixCompletionInstance(p=2, q=2, rows=np.array([2]),
                                 cols=np.array([0]), vals=np.array([1.0]))
    with pytest.raises(ValueError):  # duplicate observation
        MatrixCompletionInstance(p=2, q=2, rows=np.array([0, 0]),
                                 cols=np.array([1, 1]), vals=np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="duplicate"):  # not adjacent in input order
        MatrixCompletionInstance(p=3, q=3, rows=np.array([2, 0, 1, 2]),
                                 cols=np.array([1, 0, 2, 1]),
                                 vals=np.array([1.0, 2.0, 3.0, 4.0]))
    with pytest.raises(ValueError):  # non-finite rating
        MatrixCompletionInstance(p=2, q=2, rows=np.array([0]),
                                 cols=np.array([0]), vals=np.array([np.nan]))


@pytest.mark.parametrize("p, q, rows, cols, vals, message", [
    (0, 2, [0], [0], [1.0], "shape must be positive"),
    (2, 0, [0], [0], [1.0], "shape must be positive"),
    (2, 2, [0, 1], [0], [1.0], "equal length"),
    (2, 2, [0], [0, 1], [1.0], "equal length"),
    (2, 2, [0], [0], [1.0, 2.0], "equal length"),
    (2, 2, [0], [2], [1.0], "column index out of range"),
    (2, 2, [0], [-1], [1.0], "column index out of range"),
])
def test_instance_rejects_bad_shapes_and_columns(p, q, rows, cols, vals, message):
    with pytest.raises(ValueError, match=message):
        MatrixCompletionInstance(p=p, q=q, rows=np.array(rows), cols=np.array(cols),
                                 vals=np.array(vals))


def test_synthetic_instance_is_seeded_and_reproducible():
    a = synthetic_completion_instance(p=30, q=20, rank=3, fraction=0.3, seed=12)
    b = synthetic_completion_instance(p=30, q=20, rank=3, fraction=0.3, seed=12)
    np.testing.assert_array_equal(a.rows, b.rows)
    np.testing.assert_array_equal(a.vals, b.vals)
    c = synthetic_completion_instance(p=30, q=20, rank=3, fraction=0.3, seed=13)
    assert not np.array_equal(a.vals, c.vals)
    assert a.n_observed == int(round(0.3 * 30 * 20))


def test_completion_init_reproducible():
    inst = _tiny_instance()
    x1 = completion_init(inst, rank=2, seed=0)
    x2 = completion_init(inst, rank=2, seed=0)
    np.testing.assert_array_equal(x1, x2)
    assert x1.shape == ((3 + 2) * 2,)


# --- MovieLens 100K loader ------------------------------------------------

def _write_ratings(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_movielens_loader_happy_path(tmp_path):
    lines = ["1\t1\t5\t874965758",
             "1\t2\t3\t876893171",
             "943\t1682\t1\t875072484"]
    inst = load_movielens_100k(_write_ratings(tmp_path / "u.data", lines))
    assert (inst.p, inst.q) == (943, 1682)
    assert inst.n_observed == 3
    # ids are 1-based in the file, 0-based in the instance
    assert inst.rows[0] == 0 and inst.cols[0] == 0
    assert inst.rows[2] == 942 and inst.cols[2] == 1681
    np.testing.assert_array_equal(inst.vals, [5.0, 3.0, 1.0])


def test_movielens_loader_skips_blank_lines(tmp_path):
    lines = ["1\t1\t5\t874965758", "", "2\t2\t4\t874965758"]
    inst = load_movielens_100k(_write_ratings(tmp_path / "u.data", lines))
    assert inst.n_observed == 2


def test_movielens_loader_parse_error_carries_line_number(tmp_path):
    lines = ["1\t1\t5\t874965758", "1\t2\t5", "2\t2\t4\t874965758"]
    with pytest.raises(ValueError, match=r"^line 2: expected 4 tab-separated fields, got 3$"):
        load_movielens_100k(_write_ratings(tmp_path / "u.data", lines))


def test_movielens_loader_non_numeric_field(tmp_path):
    lines = ["1\tone\t5\t874965758"]
    with pytest.raises(ValueError, match=r"^line 1: invalid literal for int\(\)"):
        load_movielens_100k(_write_ratings(tmp_path / "u.data", lines))


def test_movielens_loader_out_of_range_ids(tmp_path):
    lines = ["944\t1\t5\t874965758"]
    with pytest.raises(ValueError, match=r"^line 1: user id 944 outside \[1, 943\]$"):
        load_movielens_100k(_write_ratings(tmp_path / "u.data", lines))
    lines = ["1\t2\t5\t874965758", "1\t1683\t5\t874965758"]
    with pytest.raises(ValueError, match=r"^line 2: item id 1683 outside \[1, 1682\]$"):
        load_movielens_100k(_write_ratings(tmp_path / "u.data", lines))
    lines = ["0\t1\t5\t874965758"]
    with pytest.raises(ValueError, match=r"^line 1: user id 0 outside \[1, 943\]$"):
        load_movielens_100k(_write_ratings(tmp_path / "u.data", lines))


def test_movielens_loader_empty_file_is_valid(tmp_path):
    path = tmp_path / "u.data"
    path.write_text("", encoding="utf-8")
    inst = load_movielens_100k(str(path))
    assert inst.n_observed == 0
    assert (inst.p, inst.q) == (943, 1682)


def test_movielens_canonical_scale(tmp_path):
    # synthetic file with the canonical 100k row count; the (user, item)
    # grids are coprime-ish strides so all pairs stay distinct
    rng = np.random.default_rng(0)
    items = np.arange(100_000) % 1682 + 1
    users = np.arange(100_000) % 943 + 1
    ratings = rng.integers(1, 6, size=100_000)
    lines = [f"{u}\t{i}\t{r}\t874965758" for u, i, r in zip(users, items, ratings)]
    inst = load_movielens_100k(_write_ratings(tmp_path / "u.data", lines))
    assert inst.n_observed == 100_000
    obj = matrix_completion(inst, rank=4)
    assert obj.dim == (943 + 1682) * 4
    x = completion_init(inst, rank=4, seed=1)
    assert np.isfinite(obj.value_fn(x))


def test_make_problem_movielens_uses_env_var(tmp_path, monkeypatch):
    _write_ratings(tmp_path / "u.data", ["1\t1\t5\t874965758"])
    monkeypatch.setenv(DATA_ENV_VAR, str(tmp_path))
    spec = make_problem("movielens", rank=2)
    assert spec.objective.dim == (943 + 1682) * 2


def test_make_problem_movielens_missing_path(monkeypatch):
    monkeypatch.delenv(DATA_ENV_VAR, raising=False)
    with pytest.raises((ValueError, OSError)):
        make_problem("movielens")


def test_make_problem_rejects_unknown_name():
    with pytest.raises(ValueError):
        make_problem("nope")


def test_make_problem_x_init_is_seeded():
    a = make_problem("quadratic", seed=5)
    b = make_problem("quadratic", seed=5)
    c = make_problem("quadratic", seed=6)
    np.testing.assert_array_equal(a.x_init, b.x_init)
    assert not np.array_equal(a.x_init, c.x_init)


def test_make_problem_rosenbrock_default_start():
    spec = make_problem("rosenbrock")
    np.testing.assert_array_equal(spec.x_init, [-1.0, 1.0])


@pytest.mark.parametrize("name, size", [
    ("quadratic", {"dim": 0}), ("cosine_sum", {"dim": 0}),
    ("matcomp_synthetic", {"rank": 0})])
def test_make_problem_rejects_zero_sizes(name, size):
    # A zero size is an error, not a request for the default size.
    with pytest.raises(ValueError, match="must be >= 1"):
        make_problem(name, **size)
