"""Sparse matrix factorizers sharing one (predict, loss, constraint,
regularizer) shape so they remain separable across diagonal blocks.

Four algorithms:

* ``svd_als``   -- squared loss on observed entries, ridge term scaled by
  each vector's observation count, exact alternating least squares.
* ``nmf``       -- nonnegative factors, observed-entry squared loss with
  Frobenius regularization, multiplicative updates.
* ``pmf_sgd``   -- squared loss with per-factor Gaussian priors, trained
  as MAP estimation by stochastic gradient descent.
* ``mmmf_fast`` -- smooth-hinge ordinal loss with trainable per-user
  thresholds and Frobenius regularization, trained by SGD.

All losses weight unobserved cells by zero, all regularizers are sums of
per-row/per-column norms, and the only hard constraint (nonnegativity)
holds exactly when it holds per block, so factoring a block-diagonal
matrix jointly or block-by-block yields the same iterates.
"""

from __future__ import annotations

import json
import struct
import sys
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from numbers import Integral, Real

import numpy as np
from scipy.linalg.lapack import dposv
from scipy.sparse import csr_matrix

from .errors import (
    DivergenceError,
    DomainError,
    EmptyInputError,
    ShapeError,
    SpecError,
    require_keys,
)

ALGORITHMS = ("svd_als", "nmf", "pmf_sgd", "mmmf_fast")
_EPS = 1e-12


def _is_number(value, kind):
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class FactorizerSpec:
    """Hyperparameters naming one factorization algorithm.

    Only the fields relevant to ``algorithm`` are consulted: ``reg`` for
    svd_als/nmf, ``reg_user``/``reg_item`` for pmf_sgd, ``margin_c`` and
    ``levels`` for mmmf_fast, ``learning_rate`` for the SGD algorithms.
    """

    algorithm: str
    r: int = 60
    reg: float = 0.065
    reg_user: float = 0.002
    reg_item: float = 0.002
    margin_c: float = 1.5
    learning_rate: float = 0.01
    max_iters: int = 200
    convergence_tol: float = 1e-5
    seed: int = 0
    levels: tuple = None

    def validate(self):
        """Return self, or raise :class:`SpecError` for a field of the
        wrong type and ``ValueError`` for an unknown algorithm or a value
        out of range, NaN and infinities included. Booleans count as
        neither integers nor reals."""
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        for name in ("r", "max_iters", "seed", "reg", "reg_user", "reg_item",
                     "margin_c", "learning_rate", "convergence_tol"):
            value = getattr(self, name)
            integral = name in ("r", "max_iters", "seed")
            if not _is_number(value, Integral if integral else Real):
                raise SpecError(f"factorizer spec field {name!r} is {value!r}, "
                                f"not {'an integer' if integral else 'a number'}")
        if self.levels is not None and not (
                isinstance(self.levels, Sequence)
                and all(_is_number(v, Real) for v in self.levels)):
            raise SpecError(f"factorizer spec field 'levels' is "
                            f"{self.levels!r}, not a list of numbers")
        if self.r < 1:
            raise ValueError("factor count r must be >= 1")
        for name in ("reg", "reg_user", "reg_item", "margin_c",
                     "learning_rate", "convergence_tol"):
            if not 0 <= getattr(self, name) <= sys.float_info.max:
                raise ValueError(f"{name} must be finite and >= 0")
        if self.learning_rate == 0:
            raise ValueError("learning_rate must be > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        return self


@dataclass
class FactorPair:
    """Factor matrices plus training provenance."""

    U: np.ndarray
    V: np.ndarray
    thresholds: np.ndarray = None
    final_objective: float = float("nan")
    history: list = field(default_factory=list)

    @property
    def r(self):
        return self.U.shape[1]


def _resolve_matrix(m):
    # AssembledBlock carries a local dense-indexed matrix
    return getattr(m, "matrix", m)


def _check_finite(value, iteration):
    if not np.isfinite(value):
        raise DivergenceError(iteration)


def _converged(history, tol):
    if len(history) < 2:
        return False
    prev, cur = history[-2], history[-1]
    return abs(prev - cur) <= tol * max(abs(prev), 1e-12)


def _chunk_rows(r):
    """Rows of an ``(n, r)`` float64 gather that fill about 1 MiB, so a
    chunk stays in a core's L2 cache."""
    return max(1, 2**20 // (8 * r))


def _dots(U, V, rows, cols):
    """``U[rows[t]] . V[cols[t]]`` for every ``t``.

    Works through chunks of :func:`_chunk_rows` rows per gathered slice.
    Each element is the same einsum reduction as over the whole gather, so
    the result is bitwise equal to one einsum; a batch of one chunk or less
    is that one einsum.
    """
    step = _chunk_rows(U.shape[1])
    if len(rows) <= step:
        return np.einsum("ij,ij->i", U[rows], V[cols])
    out = np.empty(len(rows))
    for s in range(0, out.size, step):
        np.einsum("ij,ij->i", U[rows[s:s + step]], V[cols[s:s + step]],
                  out=out[s:s + step])
    return out


def _sgd_levels(rows, cols, order):
    """``order`` split into batches that SGD can run at once, in order.

    An entry's level is one more than the deepest entry before it in
    ``order`` that shares its row or its column. Entries of one level share
    no row and no column, and every row's and every column's entries keep
    their relative order, so running the levels one after another, each as
    one vectorized step, gives the iterates of the sequential sweep.
    """
    order = np.asarray(order)
    seq_rows, seq_cols = rows[order].tolist(), cols[order].tolist()
    row_depth = [0] * (max(seq_rows, default=-1) + 1)
    col_depth = [0] * (max(seq_cols, default=-1) + 1)
    depth = []
    for i, j in zip(seq_rows, seq_cols):
        d = row_depth[i] if row_depth[i] > col_depth[j] else col_depth[j]
        row_depth[i] = col_depth[j] = d + 1
        depth.append(d)
    depth = np.array(depth, dtype=np.intp)
    ends = np.cumsum(np.bincount(depth))[:-1]
    return np.split(order[np.argsort(depth, kind="stable")], ends)


def _sse(m, U, V):
    d = m.vals - _dots(U, V, m.rows, m.cols)
    return float(d @ d)


# Each algorithm is an epoch builder ``(m, spec, rng, sample_order) -> sweep``
# and an objective ``(m, spec, U, V, thresholds) -> float``. ``sweep(U, V)``
# runs one epoch in place and returns the thresholds (mmmf_fast) or None.

# -- svd_als -------------------------------------------------------------------

def _als_objective(m, spec, U, V, thresholds):
    nr_w = m.row_counts().astype(np.float64)
    nc_w = m.col_counts().astype(np.float64)
    pen = (nr_w * (U * U).sum(axis=1)).sum() + (nc_w * (V * V).sum(axis=1)).sum()
    return _sse(m, U, V) + spec.reg * float(pen)


def _als_half_sweep(target, fixed, ptr, idx, vals, reg):
    """Ridge-solve row ``i`` of ``target`` against the rows
    ``idx[ptr[i]:ptr[i+1]]`` of ``fixed`` and the matching ``vals``.

    With ``n`` observations, ``F = fixed[idx[...]]`` and ``lam = reg * n``,
    the solution of ``(F'F + lam I) x = F'y`` equals ``F'w`` with
    ``(FF' + lam I) w = y``, so a row with ``n < r`` solves the smaller
    ``n x n`` system. Both are positive definite for ``lam > 0`` and go to
    Cholesky; when one is not (unregularized and rank-deficient), the
    minimum-norm least-squares solution of the ``r x r`` system is used.
    """
    r = fixed.shape[1]
    ptr = ptr.tolist()
    for i in range(target.shape[0]):
        lo, hi = ptr[i], ptr[i + 1]
        n = hi - lo
        if n == 0:
            target[i] = 0.0
            continue
        F = fixed[idx[lo:hi]]
        y = vals[lo:hi]
        lam = reg * n
        if n >= r:
            A = F.T @ F
            A.flat[::r + 1] += lam
            _, x, info = dposv(A, F.T @ y)
        else:
            G = F @ F.T
            G.flat[::n + 1] += lam
            _, w, info = dposv(G, y)
            x = F.T @ w
        if info > 0:
            A = F.T @ F + lam * np.eye(r)
            x = np.linalg.lstsq(A, F.T @ y, rcond=None)[0]
        target[i] = x


def _als_epoch(m, spec, rng, sample_order):
    t_rows, t_vals = m.rows[m._col_order], m.vals[m._col_order]

    def sweep(U, V):
        _als_half_sweep(U, V, m._row_ptr, m.cols, m.vals, spec.reg)
        _als_half_sweep(V, U, m._col_ptr, t_rows, t_vals, spec.reg)
    return sweep


# -- nmf ----------------------------------------------------------------------

def _nmf_objective(m, spec, U, V, thresholds):
    return _sse(m, U, V) + spec.reg * (float((U * U).sum()) + float((V * V).sum()))


def _nmf_epoch(m, spec, rng, sample_order):
    X = csr_matrix((m.vals, m.cols, m._row_ptr), shape=m.shape)
    t_vals = m.vals[m._col_order]
    t_rows = m.rows[m._col_order]
    Xt = csr_matrix((t_vals, t_rows, m._col_ptr), shape=(m.n_cols, m.n_rows))

    def sweep(U, V):
        pred = _dots(U, V, m.rows, m.cols)
        P = csr_matrix((pred, m.cols, m._row_ptr), shape=m.shape)
        U *= (X @ V) / (P @ V + spec.reg * U + _EPS)

        pred = _dots(U, V, m.rows, m.cols)
        Pt = csr_matrix((pred[m._col_order], t_rows, m._col_ptr),
                        shape=(m.n_cols, m.n_rows))
        V *= (Xt @ U) / (Pt @ U + spec.reg * V + _EPS)
    return sweep


# -- pmf (MAP by sgd) ----------------------------------------------------------

def _pmf_objective(m, spec, U, V, thresholds):
    return (_sse(m, U, V) + spec.reg_user * float((U * U).sum())
            + spec.reg_item * float((V * V).sum()))


def _pmf_epoch(m, spec, rng, sample_order):
    lr, ru, rv = spec.learning_rate, spec.reg_user, spec.reg_item

    def sweep(U, V):
        order = rng.permutation(m.nnz) if sample_order is None else sample_order
        # overflow shows up as a non-finite objective
        with np.errstate(over="ignore", invalid="ignore"):
            for t in _sgd_levels(m.rows, m.cols, order):
                i, j = m.rows[t], m.cols[t]
                ui, vj = U[i], V[j]
                e = (m.vals[t] - np.vecdot(ui, vj))[:, None]
                # ui += lr * (e * vj - ru * ui), then the same for vj, which
                # moves along the updated ui
                ui += (vj * e - ui * ru) * lr
                vj += (ui * e - vj * rv) * lr
                U[i], V[j] = ui, vj
    return sweep


# -- fast maximum-margin with smooth hinge --------------------------------------

# overflow in the mmmf arithmetic shows up as a non-finite objective
@np.errstate(over="ignore", invalid="ignore")
def _smooth_hinge(z):
    out = np.where(z >= 1.0, 0.0,
                   np.where(z > 0.0, 0.5 * (1.0 - z) ** 2, 0.5 - z))
    return out


def _mmmf_levels(m, spec):
    """The ordinal levels and each entry's level index."""
    if spec.levels is not None:
        levels = np.asarray(spec.levels, dtype=np.float64)
    else:
        levels = np.unique(m.vals)
    if levels.size < 1:
        raise EmptyInputError("no rating levels")
    lev_idx = np.clip(np.searchsorted(levels, m.vals), 0, levels.size - 1)
    return levels, lev_idx


@np.errstate(over="ignore", invalid="ignore")
def _mmmf_objective(m, spec, U, V, thresholds):
    _, lev_idx = _mmmf_levels(m, spec)
    n_th = thresholds.shape[1] if thresholds is not None else 0
    if n_th == 0:
        hinge = 0.0
    else:
        s = _dots(U, V, m.rows, m.cols)
        T = np.where(np.arange(n_th)[None, :] >= lev_idx[:, None], 1.0, -1.0)
        Z = T * (thresholds[m.rows] - s[:, None])
        hinge = float(_smooth_hinge(Z).sum())
    return 0.5 * (float((U * U).sum()) + float((V * V).sum())) \
        + spec.margin_c * hinge


def _mmmf_epoch(m, spec, rng, sample_order):
    levels, lev_idx = _mmmf_levels(m, spec)
    n_th = levels.size - 1
    th = np.tile((levels[:-1] + levels[1:]) / 2.0, (m.n_rows, 1))
    # the +-1 sign of every threshold for each entry: +1 at or above its level
    signs = np.where(np.arange(n_th) >= lev_idx[:, None], 1.0, -1.0)
    n_i = np.maximum(m.row_counts(), 1).astype(np.float64)[:, None]
    m_j = np.maximum(m.col_counts(), 1).astype(np.float64)[:, None]
    lr, C = spec.learning_rate, spec.margin_c

    @np.errstate(over="ignore", invalid="ignore")
    def sweep(U, V):
        order = rng.permutation(m.nnz) if sample_order is None else sample_order
        for t in _sgd_levels(m.rows, m.cols, order):
            i, j = m.rows[t], m.cols[t]
            ui, vj = U[i], V[j]
            sk = signs[t]
            z = sk * (th[i] - np.vecdot(ui, vj)[:, None])
            c = C * (np.where(z >= 1.0, 0.0, np.where(z > 0.0, z - 1.0, -1.0))
                     * sk)
            th[i] -= lr * c
            # each entry's threshold gradients summed left to right from 0.0,
            # as the per-entry loop summed them (a row reduction would not)
            gs = -sum(c.T, np.zeros(len(t)))[:, None] if n_th else 0.0
            # ui -= lr * (gs * vj + ui / n_i), then the same for vj, which
            # moves along the updated ui
            ui -= (vj * gs + ui / n_i[i]) * lr
            vj -= (ui * gs + vj / m_j[j]) * lr
            U[i], V[j] = ui, vj
        return th.copy()
    return sweep


# nonneg: values and factors must be >= 0, and the seeded draw is uniform
# instead of Gaussian. Keyed like ALGORITHMS, whose order is the .fac
# header's algorithm tag.
_Algorithm = namedtuple("_Algorithm", "nonneg epoch objective")
_TABLE = {
    "svd_als": _Algorithm(False, _als_epoch, _als_objective),
    "nmf": _Algorithm(True, _nmf_epoch, _nmf_objective),
    "pmf_sgd": _Algorithm(False, _pmf_epoch, _pmf_objective),
    "mmmf_fast": _Algorithm(False, _mmmf_epoch, _mmmf_objective),
}


# -- public surface ---------------------------------------------------------------

def factorize(m, spec, init=None, sample_order=None, iterate_hook=None):
    """Fit factors to the observed entries of ``m``.

    Args:
        m: a RatingMatrix or an AssembledBlock.
        spec: algorithm and hyperparameters.
        init: optional (U0, V0) overriding the seeded initialization.
        sample_order: optional fixed SGD visitation order (testing hook;
            SGD algorithms otherwise reshuffle per epoch from the seed).
        iterate_hook: optional callable ``(iteration, U, V)`` invoked after
            every iteration.

    The objective never increases across iterations for svd_als and nmf;
    SGD objectives are tracked per epoch. Training is deterministic for a
    fixed spec.
    """
    m = _resolve_matrix(m)
    spec.validate()
    if m.nnz == 0:
        raise EmptyInputError("cannot factorize a matrix with no entries")
    algo = _TABLE[spec.algorithm]
    if algo.nonneg and m.vals.min() < 0:
        raise DomainError(f"{spec.algorithm} requires nonnegative values")
    rng = np.random.default_rng(spec.seed)
    r = spec.r
    if init is None:
        if algo.nonneg:
            U = rng.uniform(0.0, 1.0 / np.sqrt(r), (m.n_rows, r))
            V = rng.uniform(0.0, 1.0 / np.sqrt(r), (m.n_cols, r))
        else:
            U = rng.standard_normal((m.n_rows, r)) / np.sqrt(r)
            V = rng.standard_normal((m.n_cols, r)) / np.sqrt(r)
    else:
        U, V = init[0].copy(), init[1].copy()
        if algo.nonneg and (U.min() < 0 or V.min() < 0):
            raise DomainError(f"{spec.algorithm} initialization must be "
                              "nonnegative")
    sweep = algo.epoch(m, spec, rng, sample_order)
    history = []
    for it in range(spec.max_iters):
        thresholds = sweep(U, V)
        obj = algo.objective(m, spec, U, V, thresholds)
        _check_finite(obj, it)
        history.append(obj)
        if iterate_hook is not None:
            iterate_hook(it, U, V)
        if _converged(history, spec.convergence_tol):
            break
    return FactorPair(U, V, thresholds=thresholds,
                      final_objective=history[-1], history=history)


def predict_entry(pair, i, j, clamp=None):
    """Prediction for one cell: the factor dot product (identity link),
    optionally clamped to a (low, high) rating scale for evaluation."""
    if not (0 <= i < pair.U.shape[0] and 0 <= j < pair.V.shape[0]):
        raise ShapeError(f"index ({i}, {j}) out of range")
    p = float(pair.U[i] @ pair.V[j])
    if clamp is not None:
        p = min(max(p, clamp[0]), clamp[1])
    return p


def objective_value(m, pair, spec):
    """The training objective at the given factors (loss over observed
    entries plus the algorithm's regularizer)."""
    m = _resolve_matrix(m)
    spec.validate()
    if pair.U.shape[0] != m.n_rows or pair.V.shape[0] != m.n_cols:
        raise ShapeError("factor dimensions do not match the matrix")
    return _TABLE[spec.algorithm].objective(m, spec, pair.U, pair.V,
                                            pair.thresholds)


# -- persistence -------------------------------------------------------------------

_MAGIC = b"LMF1"
_VERSION = 1
_HEADER = struct.Struct("<4sIIIQQI")


def save_factors(path, pair, spec):
    """Binary factor dump plus a JSON sidecar with the spec and the
    objective history. Layout: header, then U, V and (mmmf only) the
    thresholds as little-endian float64 row-major."""
    n_th = pair.thresholds.shape[1] if pair.thresholds is not None else 0
    header = _HEADER.pack(
        _MAGIC, _VERSION, ALGORITHMS.index(spec.algorithm), pair.r,
        pair.U.shape[0], pair.V.shape[0], n_th)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(pair.U.astype("<f8").tobytes(order="C"))
        fh.write(pair.V.astype("<f8").tobytes(order="C"))
        if n_th:
            fh.write(pair.thresholds.astype("<f8").tobytes(order="C"))
    sidecar = {
        "spec": spec_to_dict(spec),
        "final_objective": pair.final_objective,
        "history": list(map(float, pair.history)),
    }
    with open(str(path) + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh)


def load_factors(path):
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise ShapeError(f"{path}: not a factor file")
        magic, version, algo, r, n_rows, n_cols, n_th = _HEADER.unpack(raw)
        if magic != _MAGIC or version != _VERSION:
            raise ShapeError(f"{path}: not a factor file")
        data = fh.read()
    n_u, n_v = n_rows * r, n_cols * r
    expected = 8 * (n_u + n_v + n_rows * n_th)
    if len(data) != expected:
        raise ShapeError(f"{path}: {len(data)} bytes of factors, the header "
                         f"needs {expected}")
    body = np.frombuffer(data, dtype="<f8")
    U = body[:n_u].reshape(n_rows, r)
    V = body[n_u:n_u + n_v].reshape(n_cols, r)
    th = body[n_u + n_v:].reshape(n_rows, n_th) if n_th else None
    with open(str(path) + ".json", "r", encoding="utf-8") as fh:
        sidecar = json.load(fh)
    require_keys(sidecar, ("spec", "final_objective", "history"),
                 f"{path}.json")
    spec = spec_from_dict(sidecar["spec"])
    if spec.algorithm != ALGORITHMS[algo]:
        raise ShapeError(f"{path}: algorithm tag mismatch")
    pair = FactorPair(U.copy(), V.copy(),
                      thresholds=th.copy() if th is not None else None,
                      final_objective=sidecar["final_objective"],
                      history=sidecar["history"])
    return pair, spec


def spec_to_dict(spec):
    d = asdict(spec)
    if d["levels"] is not None:
        d["levels"] = list(d["levels"])
    return d


def spec_from_dict(d):
    """The validated :class:`FactorizerSpec` a dict of its fields
    describes; raises :class:`SpecError` naming any unknown key, missing
    required key or field of the wrong type."""
    if not isinstance(d, dict):
        raise SpecError(f"factorizer spec is {type(d).__name__}, not an "
                        "object")
    spec_fields = fields(FactorizerSpec)
    unknown = [k for k in d if k not in {f.name for f in spec_fields}]
    if unknown:
        raise SpecError(f"factorizer spec has unknown keys: {unknown}")
    missing = [f.name for f in spec_fields
               if f.default is MISSING and f.name not in d]
    if missing:
        raise SpecError(f"factorizer spec lacks required keys: {missing}")
    d = dict(d)
    if isinstance(d.get("levels"), list):
        d["levels"] = tuple(d["levels"])
    return FactorizerSpec(**d).validate()


def with_seed(spec, seed):
    return replace(spec, seed=seed)
