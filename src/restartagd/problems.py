"""Built-in test problems and the benchmark problem registry.

Closed-form objectives (Rosenbrock, isotropic quadratic, sum of cosines) plus
low-rank matrix completion over an observed entry set, with a loader for the
MovieLens-100K ratings file.  Everything randomized is driven by an explicit
seed so that rebuilding a problem reproduces the same oracle bit for bit.
"""
from __future__ import annotations

import itertools
import os
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .oracle import Objective, Vector, as_point


def rosenbrock() -> Objective:
    """The classic banana function on R^2, f(x, y) = (x-1)^2 + 100(y-x^2)^2."""

    # Python floats and NumPy float64 scalars are both IEEE binary64 with
    # round-to-nearest, so scalar arithmetic on ``tolist()`` gives the same
    # bits as indexing the array, at a fraction of the per-operation cost.
    def value(v: Vector) -> float:
        x, y = v.tolist()
        a = x - 1.0
        b = y - x * x
        return a * a + 100.0 * b * b

    def grad(v: Vector) -> Vector:
        x, y = v.tolist()
        b = y - x * x
        return np.array([2.0 * (x - 1.0) - 400.0 * x * b, 200.0 * b])

    return Objective(dim=2, value_fn=value, grad_fn=grad, lower_bound=0.0)


def quadratic(d: int, lam: float = 1.0) -> Objective:
    """Isotropic quadratic f(x) = (lam/2) ||x||^2 with curvature ``lam`` > 0."""
    if not 0 < lam < np.inf:
        raise ValueError(f"lam must be positive and finite, not {lam!r}")

    def value(v: Vector) -> float:
        return 0.5 * lam * float(v @ v)

    def grad(v: Vector) -> Vector:
        return lam * v

    return Objective(
        dim=d, value_fn=value, grad_fn=grad,
        known_L=lam, known_M=0.0, lower_bound=0.0,
    )


def cosine_sum(d: int) -> Objective:
    """f(x) = sum_i cos(x_i): smooth, nonconvex, curvature and third
    derivative both bounded by 1."""

    def value(v: Vector) -> float:
        return float(np.sum(np.cos(v)))

    def grad(v: Vector) -> Vector:
        return -np.sin(v)

    return Objective(
        dim=d, value_fn=value, grad_fn=grad,
        known_L=1.0, known_M=1.0, lower_bound=-float(d),
    )


@dataclass(frozen=True)
class MatrixCompletionInstance:
    """Observed entries of a p x q matrix: parallel arrays of 0-based row
    indices, column indices, and values."""

    p: int
    q: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ValueError("matrix shape must be positive")
        for name, dtype in (("rows", np.int64), ("cols", np.int64), ("vals", np.float64)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        rows, cols, vals = self.rows, self.cols, self.vals
        if not (rows.shape == cols.shape == vals.shape) or rows.ndim != 1:
            raise ValueError("rows, cols, vals must be 1-D arrays of equal length")
        if rows.size:
            if rows.min() < 0 or rows.max() >= self.p:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= self.q:
                raise ValueError("column index out of range")
            codes = np.sort(rows * self.q + cols)
            if np.any(codes[1:] == codes[:-1]):
                raise ValueError("duplicate (row, column) observation")
        if not np.all(np.isfinite(vals)):
            raise ValueError("observed values must be finite")

    @property
    def n_observed(self) -> int:
        return int(self.rows.size)


# Values and gradients at recent points of every completion objective in the
# process, least recently used first: (token, point bytes) -> [value or None,
# gradient or None].  One bound for the process, not one per objective,
# because callers keep many objectives alive (a benchmark pass holds 40).  64
# points hold every point that a benchmark instance's solves ask for again; a
# point costs at most 16 * dim bytes (key and gradient), so at a large dim
# fewer are kept, within 32 MiB.
_POINTS: "OrderedDict[tuple, list]" = OrderedDict()
_POINTS_MAX, _POINTS_BYTES = 64, 32 << 20
_TOKENS = itertools.count()  # one per objective, never reused


def _point_entry(key: tuple, limit: int) -> list:
    """The cache entry at ``key``, made most recent; a new one if absent."""
    entry = _POINTS.get(key)
    if entry is not None:
        _POINTS.move_to_end(key)
        return entry
    entry = _POINTS[key] = [None, None]
    while len(_POINTS) > limit:
        _POINTS.popitem(last=False)
    return entry


def _forget(token: int) -> None:
    """Drop every cache entry of the objective that took ``token``."""
    for key in [key for key in _POINTS if key[0] == token]:
        del _POINTS[key]


def matrix_completion(instance: MatrixCompletionInstance, rank: int) -> Objective:
    """Factorized completion objective over x = vec(U rows, then V rows).

    With U of shape (p, rank) and V of shape (q, rank),

        f = (1/2N) sum_{(i,j,s) observed} ((U V^T)_ij - s)^2
          + (1/2N) || U^T U - V^T V ||_F^2

    where N is the number of observed entries.  The balance penalty removes
    the scale ambiguity of the factorization; the whole objective is invariant
    under a joint rotation (U, V) -> (U Q, V Q).  With N = 0 the objective is
    identically zero.

    The value and the gradient share their costly part.  The objective keeps
    a single-slot memo of the last point evaluated, keyed on its bytes, that
    holds the residual and U^T U - V^T V there, so a value and a gradient at
    one point compute them once.  Values and gradients are also kept in one
    cache for the whole process, keyed on a token the objective takes when
    it is built (never reused, so two objectives never share an entry) and
    the point's bytes, least recently used dropped first: the proposed
    method certifies at its epoch's anchor, evaluated a few points before,
    and runs from one start on one objective ask again for points an earlier
    run evaluated.  The cache holds at most 64 points, and fewer where 16 *
    dim bytes a point (key and gradient) would pass 32 MiB at the inserting
    objective's dim: 7 points, about 29 MB, at MovieLens rank 100.  An
    objective's entries go when it is collected: once neither its
    ``value_fn`` nor its ``grad_fn`` is held (either alone keeps them).  The
    gradient's sparse part is one product with a CSR matrix [[0, R], [R^T,
    0]] of the observations, built once, whose data array each computed
    gradient binds to the permuted residual and then to an empty array, so
    no residual is held between gradients.  Results are bit-identical to
    computing everything afresh, and every returned gradient is a new array.
    A ``grid`` shares one objective, and so its entries, across its cells,
    with the same bits as a problem built per cell.  The package runs no
    threads and a parallel ``grid`` runs its cells in processes; because the
    cache is shared and unlocked, and each objective has its memo and its
    matrix, no two completion objectives may be called from two threads at
    once.
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    p, q, n = instance.p, instance.q, instance.n_observed
    dim = (p + q) * rank
    rows, cols, vals = instance.rows, instance.cols, instance.vals

    if n == 0:
        return Objective(dim=dim, value_fn=lambda v: 0.0,
                         grad_fn=lambda v: np.zeros(dim), lower_bound=0.0)

    # Imported here, not at module level: SciPy is the costliest import in
    # the package and only the completion problems use it.
    from scipy import sparse

    # Fixed sparsity structure, reused for every gradient: B = [[0, R], [R^T, 0]],
    # so B @ [U; V] = [R V; R^T U], and slot j of its data array holds
    # observation perm[j].  Each row's entries are in column order, so its
    # products add up in the same order as R @ V and a CSC product with R.T.
    size = p + q
    stacked = sparse.csr_matrix((np.arange(1.0, 2 * n + 1), (
        np.concatenate([rows, cols + p]), np.concatenate([cols + p, rows]))), shape=(size, size))
    perm = (stacked.data.astype(np.int64) - 1) % n
    scale = 1.0 / n
    # The balance term's factor: +2/N on the U rows, -2/N on the V rows.
    balance = np.where(np.arange(size) < p, 2.0 * scale, -2.0 * scale)[:, None]
    last = (None, None, None)  # (key, residual, gram difference)
    no_data = np.empty(0)
    token = next(_TOKENS)
    limit = min(_POINTS_MAX, _POINTS_BYTES // (16 * dim))

    def evaluate(v: Vector, key: bytes):
        nonlocal last
        x = v.reshape(size, rank)
        if key == last[0]:
            return x, last[1], last[2]
        u, w = x[:p], x[p:]
        r = np.einsum("ij,ij->i", u.take(rows, axis=0), w.take(cols, axis=0)) - vals
        d = u.T @ u - w.T @ w
        last = (key, r, d)
        return x, r, d

    # value and grad both hold evaluate, so its entries go once neither is
    # held and no point of this objective can be asked for again.
    weakref.finalize(evaluate, _forget, token)

    def value(v: Vector) -> float:
        key = v.tobytes()
        entry = _point_entry((token, key), limit)
        if entry[0] is None:
            _, r, d = evaluate(v, key)
            entry[0] = 0.5 * scale * (float(r @ r) + float(np.sum(d * d)))
        return entry[0]

    def grad(v: Vector) -> Vector:
        key = v.tobytes()
        entry = _point_entry((token, key), limit)
        if entry[1] is not None:
            return entry[1].copy()
        x, r, d = evaluate(v, key)
        stacked.data = r[perm]
        # Two products, not one x @ d: BLAS may sum a row of x @ d in another
        # order than the same row of u @ d (a one-row U goes to gemv, for one).
        e = np.concatenate([x[:p] @ d, x[p:] @ d])
        g = (scale * (stacked @ x) + balance * e).ravel()
        stacked.data = no_data  # hold no permuted residual between gradients
        entry[1] = g
        return g.copy()

    return Objective(dim=dim, value_fn=value, grad_fn=grad, lower_bound=0.0)


def load_movielens_100k(path: str) -> MatrixCompletionInstance:
    """Parse a MovieLens-100K ``u.data`` ratings file.

    Rows are tab-separated ``user  item  rating  timestamp`` with 1-based
    user ids up to 943 and item ids up to 1682.  A malformed row or an
    out-of-range id raises :class:`ValueError` whose message starts with
    ``line N:``, the offending 1-based line number.  An empty file yields a
    valid instance with zero observations.
    """
    p, q = 943, 1682
    rows, cols, vals = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped:
                continue
            parts = stripped.split("\t")
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: expected 4 tab-separated fields, got {len(parts)}")
            try:
                user, item, rating, _ = int(parts[0]), int(parts[1]), float(parts[2]), int(parts[3])
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            if not (1 <= user <= p):
                raise ValueError(f"line {lineno}: user id {user} outside [1, {p}]")
            if not (1 <= item <= q):
                raise ValueError(f"line {lineno}: item id {item} outside [1, {q}]")
            rows.append(user - 1)
            cols.append(item - 1)
            vals.append(rating)
    return MatrixCompletionInstance(p=p, q=q, rows=rows, cols=cols, vals=vals)  # made arrays there


def synthetic_completion_instance(p: int = 100, q: int = 80, rank: int = 5,
                                  fraction: float = 0.3, seed: int = 0,
                                  ) -> MatrixCompletionInstance:
    """Plant a random rank-``rank`` matrix and reveal a seeded fraction of it."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((p, rank)) / np.sqrt(rank)
    w = rng.standard_normal((q, rank)) / np.sqrt(rank)
    full = u @ w.T
    n_obs = max(1, int(round(fraction * p * q)))
    flat = rng.choice(p * q, size=n_obs, replace=False)
    flat.sort()
    rows, cols = np.divmod(flat, q)
    return MatrixCompletionInstance(p=p, q=q, rows=rows, cols=cols,
                                    vals=full[rows, cols])


def completion_init(instance: MatrixCompletionInstance, rank: int, seed: int = 0) -> Vector:
    """Standard benchmark start for completion: i.i.d. normal entries scaled
    by 1/sqrt(rank)."""
    rng = np.random.default_rng(seed)
    dim = (instance.p + instance.q) * rank
    return rng.standard_normal(dim) / np.sqrt(rank)


@dataclass(frozen=True)
class ProblemSpec:
    """A named, fully-instantiated benchmark problem: the objective plus the
    starting point the harness will use."""

    name: str
    objective: Objective
    x_init: Vector


DATA_ENV_VAR = "RESTARTAGD_DATA"

PROBLEM_NAMES = ("rosenbrock", "quadratic", "cosine_sum", "matcomp_synthetic", "movielens")


def make_problem(name: str, seed: int = 0, dim: Optional[int] = None,
                 lam: float = 1.0, rank: Optional[int] = None,
                 fraction: float = 0.3, data_path: Optional[str] = None,
                 ) -> ProblemSpec:
    """Build a registered problem by name.

    The same (name, seed, shape) always produces bitwise-identical data and
    starting points.  ``movielens`` reads ``u.data`` from ``data_path`` or,
    failing that, from the directory named by the RESTARTAGD_DATA environment
    variable.
    """
    if name == "rosenbrock":
        return ProblemSpec(name, rosenbrock(), as_point([-1.0, 1.0]))
    if name in ("quadratic", "cosine_sum"):
        d = 10 if dim is None else dim
        rng = np.random.default_rng(seed)
        if name == "quadratic":
            return ProblemSpec(name, quadratic(d, lam), rng.standard_normal(d))
        return ProblemSpec(name, cosine_sum(d), rng.uniform(-3.0, 3.0, d))
    if name == "matcomp_synthetic":
        r = 5 if rank is None else rank
        inst = synthetic_completion_instance(rank=r, fraction=fraction, seed=seed)
    elif name == "movielens":
        r = 100 if rank is None else rank
        if data_path is None:
            root = os.environ.get(DATA_ENV_VAR)
            if root is None:
                raise ValueError(
                    f"movielens needs a data path: pass one or set {DATA_ENV_VAR}"
                )
            data_path = os.path.join(root, "u.data")
        inst = load_movielens_100k(os.fspath(data_path))  # an int would open a descriptor
    else:
        raise ValueError(f"unknown problem {name!r}; known: {', '.join(PROBLEM_NAMES)}")
    return ProblemSpec(name, matrix_completion(inst, r), completion_init(inst, r, seed + 1))
