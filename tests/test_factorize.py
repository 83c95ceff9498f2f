import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lmf import (
    FactorPair,
    FactorizerSpec,
    RatingMatrix,
    factorize,
    load_factors,
    objective_value,
    predict_entry,
    save_factors,
)
from lmf.errors import DivergenceError, DomainError, EmptyInputError, ShapeError
from lmf.factorize import _dots, _sgd_levels


def full_matrix(values):
    values = np.asarray(values, dtype=float)
    r, c = np.nonzero(np.ones_like(values))
    return RatingMatrix(values.shape[0], values.shape[1], r, c, values[r, c])


def random_block(rng, nr, nc, density=0.6, lo=1, hi=6):
    mask = rng.random((nr, nc)) < density
    mask[rng.integers(nr), rng.integers(nc)] = True
    r, c = np.nonzero(mask)
    vals = rng.integers(lo, hi, r.size).astype(float)
    return r, c, vals


def block_diag_from(blocks):
    """Stack (rows, cols, vals, nr, nc) blocks into one block-diagonal
    matrix plus the per-block matrices."""
    ro = co = 0
    R, C, V = [], [], []
    mats = []
    for r, c, v, nr, nc in blocks:
        mats.append(RatingMatrix(nr, nc, r, c, v))
        R.append(r + ro)
        C.append(c + co)
        V.append(v)
        ro += nr
        co += nc
    joint = RatingMatrix(ro, co, np.concatenate(R), np.concatenate(C),
                         np.concatenate(V))
    return joint, mats


# -- basic fitting ------------------------------------------------------------------

@pytest.mark.parametrize("algo", ["svd_als", "nmf"])
def test_single_cell_exactly_representable(algo):
    m = RatingMatrix(1, 1, [0], [0], [4.0])
    spec = FactorizerSpec(algorithm=algo, r=1, reg=0.0, max_iters=300,
                          convergence_tol=1e-14, seed=1)
    pair = factorize(m, spec)
    assert predict_entry(pair, 0, 0) == pytest.approx(4.0, abs=1e-6)


@pytest.mark.parametrize("algo", ["svd_als", "nmf"])
def test_rank_one_matrix_recovered(algo):
    u = np.array([1.0, 2.0, 0.5, 1.5])
    v = np.array([2.0, 1.0, 3.0, 0.5])
    m = full_matrix(np.outer(u, v))
    spec = FactorizerSpec(algorithm=algo, r=1, reg=0.0, max_iters=500,
                          convergence_tol=1e-15, seed=0)
    pair = factorize(m, spec)
    recon = pair.U @ pair.V.T
    assert np.abs(recon - np.outer(u, v)).max() < 1e-6


def test_als_unregularized_rank_deficient_rows():
    # a row with fewer observations than factors and no ridge must still
    # fit (minimum-norm solve) and keep the objective non-increasing
    rng = np.random.default_rng(17)
    r, c, v = random_block(rng, 8, 10, 0.15)
    m = RatingMatrix(8, 10, r, c, v)
    spec = FactorizerSpec(algorithm="svd_als", r=5, reg=0.0, max_iters=30,
                          convergence_tol=1e-12, seed=0)
    pair = factorize(m, spec)
    h = np.array(pair.history)
    assert np.isfinite(h).all()
    assert np.all(h[1:] <= h[:-1] + 1e-9 * np.maximum(1.0, np.abs(h[:-1])))


def _first_row_after_one_sweep(m, V0, spec):
    """U[0] after the first U half-sweep against the fixed ``V0``."""
    seen = []
    factorize(m, spec, init=(np.zeros((m.n_rows, spec.r)), V0),
              iterate_hook=lambda it, U, V: seen.append(U[0].copy()))
    return seen[0]


def test_als_dual_solve_is_minimum_norm_without_ridge():
    # row 0 has n=3 < r=6 observations: with reg=0 the n x n solve must
    # give the minimum-norm least-squares solution of F x = y
    rng = np.random.default_rng(31)
    cols = np.array([1, 4, 6])
    y = np.array([4.0, 2.0, 5.0])
    m = RatingMatrix(2, 8, np.r_[[0, 0, 0], np.ones(8, int)],
                     np.r_[cols, np.arange(8)], np.r_[y, np.full(8, 3.0)])
    V0 = rng.standard_normal((8, 6))
    spec = FactorizerSpec(algorithm="svd_als", r=6, reg=0.0, max_iters=1)
    x = _first_row_after_one_sweep(m, V0, spec)
    expect = np.linalg.lstsq(V0[cols], y, rcond=None)[0]
    assert np.abs(x - expect).max() <= 1e-10 * np.abs(expect).max()


def test_als_singular_dual_system_falls_back_to_lstsq(monkeypatch):
    # row 0 sees two columns whose factors are equal, so F F' is singular
    # and its Cholesky fails; the row must come from the lstsq fallback
    m = RatingMatrix(2, 3, [0, 0, 1, 1, 1], [0, 1, 0, 1, 2],
                     [2.0, 4.0, 1.0, 1.0, 1.0])
    V0 = np.array([[1.0, 1.0, 1.0, 1.0],
                   [1.0, 1.0, 1.0, 1.0],
                   [1.0, 0.0, 2.0, 0.0]])
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq",
                        lambda *a, **kw: calls.append(1) or lstsq(*a, **kw))
    spec = FactorizerSpec(algorithm="svd_als", r=4, reg=0.0, max_iters=1)
    x = _first_row_after_one_sweep(m, V0, spec)
    assert calls
    # both observations fit by the minimum-norm x: x . (1,1,1,1) = 3
    assert np.allclose(x, np.full(4, 0.75), rtol=0, atol=1e-10)


def test_factorize_empty_matrix_raises():
    m = RatingMatrix(2, 2, [], [], [])
    with pytest.raises(EmptyInputError):
        factorize(m, FactorizerSpec(algorithm="svd_als", r=1))


def test_nmf_rejects_negative_values():
    m = RatingMatrix(2, 2, [0, 1], [0, 1], [1.0, -2.0])
    with pytest.raises(DomainError):
        factorize(m, FactorizerSpec(algorithm="nmf", r=1))


def test_pmf_divergence_reported():
    rng = np.random.default_rng(0)
    r, c, v = random_block(rng, 10, 10, 0.5)
    m = RatingMatrix(10, 10, r, c, v)
    spec = FactorizerSpec(algorithm="pmf_sgd", r=4, learning_rate=50.0,
                          max_iters=50, seed=0)
    with pytest.raises(DivergenceError) as err:
        factorize(m, spec)
    assert err.value.iteration >= 0


def test_mmmf_divergence_reported_without_runtime_warnings():
    rng = np.random.default_rng(3)
    r, c, v = random_block(rng, 30, 40, 0.3)
    m = RatingMatrix(30, 40, r, c, v)
    spec = FactorizerSpec(algorithm="mmmf_fast", r=4, learning_rate=500.0,
                          max_iters=50, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as err:
            factorize(m, spec)
    assert err.value.exit_code == 3


def test_spec_validation():
    with pytest.raises(ValueError):
        FactorizerSpec(algorithm="qr", r=2).validate()
    with pytest.raises(ValueError):
        FactorizerSpec(algorithm="nmf", r=0).validate()
    with pytest.raises(ValueError):
        FactorizerSpec(algorithm="nmf", r=2, reg=-0.1).validate()
    for field, value in (("reg", float("nan")), ("reg_user", float("inf")),
                         ("reg_item", -float("inf")), ("margin_c", float("nan")),
                         ("learning_rate", float("inf")), ("learning_rate", 0.0),
                         ("convergence_tol", -1.0), ("convergence_tol", 10**400)):
        with pytest.raises(ValueError, match=field):
            FactorizerSpec(algorithm="pmf_sgd", r=2, **{field: value}).validate()
    FactorizerSpec(algorithm="pmf_sgd", r=2, convergence_tol=0).validate()


# -- prediction ---------------------------------------------------------------------

def test_predict_entry_cases():
    from lmf.factorize import FactorPair

    U = np.array([[2.0], [0.0]])
    V = np.array([[3.0], [1.0]])
    pair = FactorPair(U, V)
    assert predict_entry(pair, 0, 0) == 6.0
    assert predict_entry(pair, 1, 0) == 0.0
    # clamping applies only when a scale is passed (evaluation time)
    U2 = np.array([[5.7]])
    pair2 = FactorPair(U2, np.array([[1.0]]))
    assert predict_entry(pair2, 0, 0) == 5.7
    assert predict_entry(pair2, 0, 0, clamp=(1.0, 5.0)) == 5.0
    with pytest.raises(ShapeError):
        predict_entry(pair, 2, 0)


# -- objective ---------------------------------------------------------------------

def test_objective_zero_for_perfect_factors():
    m = RatingMatrix(2, 2, [0, 1], [0, 1], [2.0, 3.0])
    from lmf.factorize import FactorPair

    U = np.array([[2.0, 0.0], [0.0, 3.0]])
    V = np.eye(2)
    spec = FactorizerSpec(algorithm="svd_als", r=2, reg=0.0)
    assert objective_value(m, FactorPair(U, V), spec) == 0.0


def test_objective_single_entry_squared_loss():
    m = RatingMatrix(1, 1, [0], [0], [3.0])
    from lmf.factorize import FactorPair

    pair = FactorPair(np.array([[1.0]]), np.array([[1.0]]))  # predicts 1
    spec = FactorizerSpec(algorithm="svd_als", r=1, reg=0.0)
    assert objective_value(m, pair, spec) == 4.0


@pytest.mark.parametrize("algo", ["svd_als", "nmf", "pmf_sgd", "mmmf_fast"])
def test_objective_additive_over_disjoint_blocks(algo):
    """Loss + regularizer of a block-diagonal matrix under stacked factors
    equals the sum over the blocks (separability of the objective)."""
    rng = np.random.default_rng(11)
    blocks = []
    for _ in range(2):
        r, c, v = random_block(rng, 5, 5, 0.7)
        blocks.append((r, c, v, 5, 5))
    joint, mats = block_diag_from(blocks)
    spec = FactorizerSpec(algorithm=algo, r=3, reg=0.07, reg_user=0.01,
                          reg_item=0.02, margin_c=1.5,
                          levels=(1.0, 2.0, 3.0, 4.0, 5.0))
    from lmf.factorize import FactorPair

    pairs = []
    for mat in mats:
        U = rng.standard_normal((mat.n_rows, 3))
        V = rng.standard_normal((mat.n_cols, 3))
        if algo == "nmf":
            U, V = np.abs(U), np.abs(V)
        th = np.tile(np.array([1.5, 2.5, 3.5, 4.5]), (mat.n_rows, 1)) \
            + rng.normal(0, 0.1, (mat.n_rows, 4))
        pairs.append(FactorPair(U, V, thresholds=th))
    stacked = FactorPair(np.vstack([p.U for p in pairs]),
                         np.vstack([p.V for p in pairs]),
                         thresholds=np.vstack([p.thresholds for p in pairs]))
    total = sum(objective_value(mat, p, spec) for mat, p in zip(mats, pairs))
    joint_obj = objective_value(joint, stacked, spec)
    assert joint_obj == pytest.approx(total, rel=1e-12)


@pytest.mark.parametrize("algo", ["svd_als", "nmf", "pmf_sgd", "mmmf_fast"])
def test_objective_value_equals_final_objective(algo):
    rng = np.random.default_rng(17)
    r, c, v = random_block(rng, 10, 12, 0.5)
    m = RatingMatrix(10, 12, r, c, v)
    spec = FactorizerSpec(algorithm=algo, r=3, max_iters=7,
                          learning_rate=0.02, seed=2)
    pair = factorize(m, spec)
    assert objective_value(m, pair, spec) == pair.final_objective


def test_regularizer_separability_direct():
    # count-weighted ridge: weights of stacked factors equal the per-block
    # weights, so the penalty is exactly additive
    rng = np.random.default_rng(5)
    blocks = []
    for _ in range(3):
        r, c, v = random_block(rng, 4, 6, 0.6)
        blocks.append((r, c, v, 4, 6))
    joint, mats = block_diag_from(blocks)
    lam = 0.13
    Us = [rng.standard_normal((4, 2)) for _ in mats]
    Vs = [rng.standard_normal((6, 2)) for _ in mats]

    def penalty(m, U, V):
        return lam * ((m.row_counts() * (U * U).sum(1)).sum()
                      + (m.col_counts() * (V * V).sum(1)).sum())

    total = sum(penalty(m, U, V) for m, U, V in zip(mats, Us, Vs))
    assert penalty(joint, np.vstack(Us), np.vstack(Vs)) == \
        pytest.approx(total, rel=1e-12)


def test_constraint_separability():
    # stacked factors are nonnegative exactly when every block pair is
    a = np.abs(np.random.default_rng(0).standard_normal((3, 2)))
    b = np.abs(np.random.default_rng(1).standard_normal((4, 2)))
    assert np.vstack([a, b]).min() >= 0
    b_violating = b.copy()
    b_violating[0, 0] = -1.0
    assert np.vstack([a, b_violating]).min() < 0


# -- monotonicity ---------------------------------------------------------------------

@pytest.mark.parametrize("algo", ["svd_als", "nmf"])
def test_objective_never_increases(algo):
    rng = np.random.default_rng(7)
    r, c, v = random_block(rng, 20, 25, 0.3)
    m = RatingMatrix(20, 25, r, c, v)
    spec = FactorizerSpec(algorithm=algo, r=5, reg=0.05, max_iters=80,
                          convergence_tol=1e-14, seed=3)
    pair = factorize(m, spec)
    h = np.array(pair.history)
    assert np.all(h[1:] <= h[:-1] + 1e-9 * np.maximum(1.0, np.abs(h[:-1])))


@pytest.mark.parametrize("algo,kw", [("pmf_sgd", {"learning_rate": 0.02}),
                                     ("mmmf_fast", {"learning_rate": 0.02})])
def test_sgd_objective_decreases_over_windows(algo, kw):
    rng = np.random.default_rng(8)
    r, c, v = random_block(rng, 25, 30, 0.3)
    m = RatingMatrix(25, 30, r, c, v)
    spec = FactorizerSpec(algorithm=algo, r=5, max_iters=40,
                          convergence_tol=1e-15, seed=2, **kw)
    pair = factorize(m, spec)
    h = pair.history
    assert len(h) == 40
    for t in range(len(h) // 2 - 5):
        assert h[t + 5] < h[t]


def test_nmf_nonnegativity_preserved_every_iteration():
    rng = np.random.default_rng(9)
    r, c, v = random_block(rng, 15, 12, 0.4)
    m = RatingMatrix(15, 12, r, c, v)
    mins = []
    spec = FactorizerSpec(algorithm="nmf", r=4, reg=0.05, max_iters=50,
                          convergence_tol=1e-12, seed=1)
    factorize(m, spec,
              iterate_hook=lambda it, U, V: mins.append(min(U.min(), V.min())))
    assert min(mins) >= 0.0


# -- separability of training ----------------------------------------------------------

def _stacked_inits(rng, mats, r, nonneg):
    inits = []
    for mat in mats:
        U = rng.standard_normal((mat.n_rows, r)) / np.sqrt(r)
        V = rng.standard_normal((mat.n_cols, r)) / np.sqrt(r)
        if nonneg:
            U, V = np.abs(U), np.abs(V)
        inits.append((U, V))
    joint_init = (np.vstack([u for u, _ in inits]),
                  np.vstack([v for _, v in inits]))
    return inits, joint_init


@pytest.mark.parametrize("algo", ["svd_als", "nmf"])
def test_blockwise_equals_joint_run(algo):
    rng = np.random.default_rng(21)
    blocks = []
    for nr, nc in ((6, 7), (5, 8)):
        r, c, v = random_block(rng, nr, nc, 0.6)
        blocks.append((r, c, v, nr, nc))
    joint, mats = block_diag_from(blocks)
    spec = FactorizerSpec(algorithm=algo, r=3, reg=0.05, max_iters=25,
                          convergence_tol=1e-15, seed=0)
    inits, joint_init = _stacked_inits(rng, mats, 3, nonneg=(algo == "nmf"))

    traces = {}
    for tag, mat, init in (("a", mats[0], inits[0]), ("b", mats[1], inits[1]),
                           ("joint", joint, joint_init)):
        trace = []
        factorize(mat, spec, init=init,
                  iterate_hook=lambda it, U, V, t=trace: t.append(
                      (U.copy(), V.copy())))
        traces[tag] = trace

    n_iter = min(len(traces["a"]), len(traces["b"]), len(traces["joint"]))
    for t in range(n_iter):
        Ua, Va = traces["a"][t]
        Ub, Vb = traces["b"][t]
        Uj, Vj = traces["joint"][t]
        assert np.abs(Uj - np.vstack([Ua, Ub])).max() < 1e-9
        assert np.abs(Vj - np.vstack([Va, Vb])).max() < 1e-9


def test_pmf_blockwise_equals_joint_run_with_partitioned_order():
    rng = np.random.default_rng(22)
    blocks = []
    for nr, nc in ((6, 6), (7, 5)):
        r, c, v = random_block(rng, nr, nc, 0.6)
        blocks.append((r, c, v, nr, nc))
    joint, mats = block_diag_from(blocks)
    spec = FactorizerSpec(algorithm="pmf_sgd", r=3, learning_rate=0.03,
                          max_iters=15, convergence_tol=1e-15, seed=0)
    inits, joint_init = _stacked_inits(rng, mats, 3, nonneg=False)

    # joint sample order: block 1's entries (in canonical order), then
    # block 2's; per-block runs use their canonical order directly
    n1 = mats[0].nnz
    order_joint = np.arange(joint.nnz)
    trace_j, trace_a, trace_b = [], [], []
    factorize(joint, spec, init=joint_init, sample_order=order_joint,
              iterate_hook=lambda it, U, V: trace_j.append((U.copy(), V.copy())))
    factorize(mats[0], spec, init=inits[0],
              sample_order=np.arange(mats[0].nnz),
              iterate_hook=lambda it, U, V: trace_a.append((U.copy(), V.copy())))
    factorize(mats[1], spec, init=inits[1],
              sample_order=np.arange(mats[1].nnz),
              iterate_hook=lambda it, U, V: trace_b.append((U.copy(), V.copy())))
    for t in range(min(len(trace_j), len(trace_a), len(trace_b))):
        Uj, Vj = trace_j[t]
        assert np.abs(Uj - np.vstack([trace_a[t][0], trace_b[t][0]])).max() < 1e-9
        assert np.abs(Vj - np.vstack([trace_a[t][1], trace_b[t][1]])).max() < 1e-9


def _mmmf_reference(m, spec, U, V, order):
    """The vectorized mmmf_fast SGD loop, kept as the reference that the
    level-scheduled kernel must reproduce bit for bit. ``order`` is one
    visit order for every epoch or one row of orders per epoch."""
    def hinge_grad(z):
        return np.where(z >= 1.0, 0.0, np.where(z > 0.0, z - 1.0, -1.0))

    levels = np.asarray(spec.levels, dtype=np.float64)
    lev_idx = np.clip(np.searchsorted(levels, m.vals), 0, levels.size - 1)
    n_th = levels.size - 1
    thresholds = np.tile((levels[:-1] + levels[1:]) / 2.0, (m.n_rows, 1))
    n_i = np.maximum(m.row_counts(), 1).astype(np.float64)
    m_j = np.maximum(m.col_counts(), 1).astype(np.float64)
    lr, C = spec.learning_rate, spec.margin_c
    rows, cols = m.rows, m.cols
    sign = np.arange(n_th)
    trace = []
    for epoch_order in np.broadcast_to(order, (spec.max_iters, m.nnz)):
        for t in epoch_order:
            i, j = rows[t], cols[t]
            ui = U[i]
            vj = V[j]
            T = np.where(sign >= lev_idx[t], 1.0, -1.0)
            z = T * (thresholds[i] - ui @ vj)
            coef = C * (hinge_grad(z) * T)
            gs = -coef.sum()
            thresholds[i] -= lr * coef
            U[i] = ui - lr * (gs * vj + ui / n_i[i])
            V[j] = vj - lr * (gs * ui + vj / m_j[j])
        trace.append((U.copy(), V.copy()))
    return trace, thresholds


def test_mmmf_iterates_equal_vectorized_reference():
    rng = np.random.default_rng(23)
    r, c, v = random_block(rng, 15, 17, 0.5)
    m = RatingMatrix(15, 17, r, c, v)
    spec = FactorizerSpec(algorithm="mmmf_fast", r=4, learning_rate=0.05,
                          margin_c=1.5, max_iters=6, convergence_tol=0.0,
                          seed=0, levels=(1.0, 2.0, 3.0, 4.0, 5.0))
    U0 = rng.standard_normal((15, 4))
    V0 = rng.standard_normal((17, 4))
    order = rng.permutation(m.nnz)
    trace = []
    pair = factorize(m, spec, init=(U0, V0), sample_order=order,
                     iterate_hook=lambda it, U, V: trace.append(
                         (U.copy(), V.copy())))
    ref, ref_thresholds = _mmmf_reference(m, spec, U0.copy(), V0.copy(), order)
    assert len(trace) == len(ref) == spec.max_iters
    for (U, V), (Ur, Vr) in zip(trace, ref):
        assert np.array_equal(U, Ur) and np.array_equal(V, Vr)
    assert np.array_equal(pair.thresholds, ref_thresholds)


def _als_reference(m, spec, U, V):
    """The LU svd_als sweep that the Cholesky kernel replaced, kept as the
    reference it must match: ``(F'F + reg n I) x = F'y`` per row, solved
    with ``np.linalg.solve``. Returns every iteration's U, V and objective."""
    def half_sweep(target, fixed, get_idx, get_val, n, r, reg):
        eye = np.eye(r)
        for i in range(n):
            idx = get_idx(i)
            if idx.size == 0:
                target[i] = 0.0
                continue
            F = fixed[idx]
            A = F.T @ F + (reg * idx.size) * eye
            b = F.T @ get_val(i)
            try:
                target[i] = np.linalg.solve(A, b)
            except np.linalg.LinAlgError:
                target[i] = np.linalg.lstsq(A, b, rcond=None)[0]

    trace = []
    for _ in range(spec.max_iters):
        half_sweep(U, V, m.row_cols, m.row_vals, m.n_rows, spec.r, spec.reg)
        half_sweep(V, U, m.col_rows, m.col_vals, m.n_cols, spec.r, spec.reg)
        trace.append((U.copy(), V.copy(),
                      objective_value(m, FactorPair(U, V), spec)))
    return trace


def test_als_iterates_match_lu_reference():
    # rows and columns with fewer and with more observations than r, so
    # both the n x n and the r x r solves run on both sides
    rng = np.random.default_rng(24)
    nr, nc, r = 30, 40, 6
    mask = rng.random((nr, nc)) < rng.uniform(0.03, 0.5, (nr, 1))
    mask[np.arange(nr), rng.integers(nc, size=nr)] = True
    rows, cols = np.nonzero(mask)
    m = RatingMatrix(nr, nc, rows, cols,
                     rng.integers(1, 6, rows.size).astype(float))
    for counts in (m.row_counts(), m.col_counts()):
        assert counts.min() < r <= counts.max()
    spec = FactorizerSpec(algorithm="svd_als", r=r, reg=0.05, max_iters=8,
                          convergence_tol=0.0, seed=0)
    U0 = rng.standard_normal((nr, r))
    V0 = rng.standard_normal((nc, r))
    trace = []
    pair = factorize(m, spec, init=(U0, V0),
                     iterate_hook=lambda it, U, V: trace.append(
                         (U.copy(), V.copy())))
    ref = _als_reference(m, spec, U0.copy(), V0.copy())
    assert len(trace) == len(ref) == len(pair.history) == spec.max_iters
    for (U, V), obj, (Ur, Vr, obj_r) in zip(trace, pair.history, ref):
        assert np.abs(U - Ur).max() <= 1e-10 * np.abs(Ur).max()
        assert np.abs(V - Vr).max() <= 1e-10 * np.abs(Vr).max()
        assert abs(obj - obj_r) <= 1e-10 * abs(obj_r)


def _pmf_reference(m, spec, U, V, order):
    """The per-entry pmf_sgd loop, kept as the reference that the
    level-scheduled kernel must reproduce bit for bit. ``order`` is one
    visit order for every epoch or one row of orders per epoch."""
    lr, ru, rv = spec.learning_rate, spec.reg_user, spec.reg_item
    trace = []
    for epoch_order in np.broadcast_to(order, (spec.max_iters, m.nnz)):
        for t in epoch_order:
            i, j = m.rows[t], m.cols[t]
            ui = U[i]
            vj = V[j]
            e = m.vals[t] - ui @ vj
            U[i] = ui + lr * (e * vj - ru * ui)
            V[j] = vj + lr * (e * ui - rv * vj)
        trace.append((U.copy(), V.copy()))
    return trace


def test_pmf_iterates_equal_reference():
    rng = np.random.default_rng(25)
    r, c, v = random_block(rng, 15, 17, 0.5)
    m = RatingMatrix(15, 17, r, c, v)
    spec = FactorizerSpec(algorithm="pmf_sgd", r=4, learning_rate=0.05,
                          reg_user=0.03, reg_item=0.07, max_iters=6,
                          convergence_tol=0.0, seed=0)
    U0 = rng.standard_normal((15, 4))
    V0 = rng.standard_normal((17, 4))
    order = rng.permutation(m.nnz)
    trace = []
    factorize(m, spec, init=(U0, V0), sample_order=order,
              iterate_hook=lambda it, U, V: trace.append((U.copy(), V.copy())))
    ref = _pmf_reference(m, spec, U0.copy(), V0.copy(), order)
    assert len(trace) == len(ref) == spec.max_iters
    for (U, V), (Ur, Vr) in zip(trace, ref):
        assert np.array_equal(U, Ur) and np.array_equal(V, Vr)


@pytest.mark.parametrize("algo", ["pmf_sgd", "mmmf_fast"])
def test_sgd_iterates_equal_reference_at_block_size(algo):
    # a blocks8-shaped block at the default r, with the epoch orders that
    # factorize draws from the seed when no sample_order is given
    rng = np.random.default_rng(27)
    r, c, v = random_block(rng, 60, 120, 0.1)
    m = RatingMatrix(60, 120, r, c, v)
    spec = FactorizerSpec(algorithm=algo, r=60, max_iters=2,
                          convergence_tol=0.0, seed=5,
                          levels=(1.0, 2.0, 3.0, 4.0, 5.0))
    U0 = rng.standard_normal((60, 60)) / np.sqrt(60)
    V0 = rng.standard_normal((120, 60)) / np.sqrt(60)
    draw = np.random.default_rng(spec.seed)
    orders = [draw.permutation(m.nnz) for _ in range(spec.max_iters)]
    trace = []
    pair = factorize(m, spec, init=(U0, V0), iterate_hook=lambda it, U, V:
                     trace.append((U.copy(), V.copy())))
    if algo == "pmf_sgd":
        ref = _pmf_reference(m, spec, U0.copy(), V0.copy(), orders)
    else:
        ref, ref_thresholds = _mmmf_reference(m, spec, U0.copy(), V0.copy(),
                                              orders)
        assert np.array_equal(pair.thresholds, ref_thresholds)
    assert len(trace) == len(ref) == spec.max_iters
    for (U, V), (Ur, Vr) in zip(trace, ref):
        assert np.array_equal(U, Ur) and np.array_equal(V, Vr)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=30)
       .flatmap(lambda cells: st.tuples(st.just(cells),
                                        st.permutations(range(len(cells))))))
def test_levels_are_conflict_free_and_keep_each_line_in_order(case):
    cells, order = case
    rows = np.array([i for i, _ in cells], dtype=np.intp)
    cols = np.array([j for _, j in cells], dtype=np.intp)
    levels = _sgd_levels(rows, cols, np.array(order, dtype=np.intp))
    merged = [t for level in levels for t in level.tolist()]
    assert sorted(merged) == sorted(order)
    for level in levels:
        assert len(set(rows[level].tolist())) == level.size
        assert len(set(cols[level].tolist())) == level.size
    for line in (rows, cols):
        for x in set(line.tolist()):
            assert ([t for t in merged if line[t] == x]
                    == [t for t in order if line[t] == x])


@pytest.mark.parametrize("r", [1, 3, 4, 16, 17, 60])
def test_vecdot_rows_equal_scalar_dots(r):
    # the SGD kernels take each level's dot products from np.vecdot and
    # stay bitwise equal to the sequential sweep only while its rows equal
    # the 1-D products
    rng = np.random.default_rng(28)
    A = rng.standard_normal((200, r))
    B = rng.standard_normal((200, r)) * 10.0
    expect = np.array([float(A[k] @ B[k]) for k in range(200)])
    assert np.array_equal(np.vecdot(A, B), expect)


@pytest.mark.parametrize("r", [3, 60])
def test_dots_equal_one_einsum(r):
    rng = np.random.default_rng(26)
    U = rng.standard_normal((37, r))
    V = rng.standard_normal((41, r))
    step = max(1, 2**20 // (8 * r))
    for n in (0, 1, step - 1, step, step + 1, 3 * step + 7):
        rows = rng.integers(0, 37, n)
        cols = rng.integers(0, 41, n)
        expect = np.einsum("ij,ij->i", U[rows], V[cols])
        assert np.array_equal(_dots(U, V, rows, cols), expect)


def test_deterministic_for_fixed_spec():
    rng = np.random.default_rng(13)
    r, c, v = random_block(rng, 12, 14, 0.4)
    m = RatingMatrix(12, 14, r, c, v)
    for algo in ("svd_als", "nmf", "pmf_sgd", "mmmf_fast"):
        spec = FactorizerSpec(algorithm=algo, r=3, max_iters=10,
                              learning_rate=0.02, seed=5)
        p1 = factorize(m, spec)
        p2 = factorize(m, spec)
        assert np.array_equal(p1.U, p2.U) and np.array_equal(p1.V, p2.V)


# -- persistence --------------------------------------------------------------------------

def test_factor_file_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    r, c, v = random_block(rng, 9, 11, 0.5)
    m = RatingMatrix(9, 11, r, c, v)
    spec = FactorizerSpec(algorithm="mmmf_fast", r=4, learning_rate=0.02,
                          max_iters=12, seed=3)
    pair = factorize(m, spec)
    path = tmp_path / "block.fac"
    save_factors(path, pair, spec.validate())
    loaded, spec2 = load_factors(path)
    assert np.array_equal(loaded.U, pair.U)
    assert np.array_equal(loaded.V, pair.V)
    assert np.array_equal(loaded.thresholds, pair.thresholds)
    assert loaded.final_objective == pair.final_objective
    assert loaded.history == [float(x) for x in pair.history]
    assert spec2.algorithm == "mmmf_fast" and spec2.r == 4


@pytest.mark.parametrize("cut", [3, 16])
def test_factor_file_rejects_truncation(tmp_path, cut):
    rng = np.random.default_rng(15)
    r, c, v = random_block(rng, 6, 7, 0.6)
    spec = FactorizerSpec(algorithm="svd_als", r=3, max_iters=4, seed=1)
    path = tmp_path / "block.fac"
    save_factors(path, factorize(RatingMatrix(6, 7, r, c, v), spec), spec)
    path.write_bytes(path.read_bytes()[:-cut])
    with pytest.raises(ShapeError) as err:
        load_factors(path)
    assert err.value.exit_code == 2 and "bytes" in str(err.value)


def test_factor_file_rejects_garbage(tmp_path):
    p = tmp_path / "x.fac"
    p.write_bytes(b"not a factor file at all.....")
    with pytest.raises(ShapeError):
        load_factors(p)
