import ctypes
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from lmf import (
    BBDFNode,
    BBDFTree,
    FactorPair,
    FactorizerSpec,
    LMFModel,
    RatingMatrix,
    balanced_permute,
    check_tree,
    coverage_count,
    factorize,
    lmf_fit,
    save_factors,
)
from lmf.errors import DomainError, MissingLabelsError, ShapeError
from lmf import model as model_module
from lmf.model import _single_blas_thread, fallback_biases

from conftest import planted_blocks


def single_leaf_tree(m):
    root = BBDFNode(np.arange(m.n_rows), np.arange(m.n_cols))
    return BBDFTree(root, "bbdf", 0, 1.0, matrix=m)


def bordered_tree(m):
    """Rows {0,1|2,3}, border {4}; cols {0,1|2,3}, border {4}."""
    root = BBDFNode(np.arange(5), np.arange(5))
    root.row_border = np.array([4])
    root.col_border = np.array([4])
    root.children = [BBDFNode(np.array([0, 1]), np.array([0, 1]), path=(0,)),
                     BBDFNode(np.array([2, 3]), np.array([2, 3]), path=(1,))]
    return BBDFTree(root, "bbdf", 0, 1.0, matrix=m)


def bordered_matrix(rng):
    allowed = np.zeros((5, 5), dtype=bool)
    allowed[:2, :2] = True
    allowed[2:4, 2:4] = True
    allowed[4, :] = True
    allowed[:, 4] = True
    mask = allowed & (rng.random((5, 5)) < 0.9)
    mask[4, 4] = True
    mask[0, 0] = mask[2, 2] = True
    r, c = np.nonzero(mask)
    return RatingMatrix(5, 5, r, c, rng.integers(1, 6, r.size).astype(float))


SPEC = FactorizerSpec(algorithm="svd_als", r=3, reg=0.02, max_iters=40,
                      convergence_tol=1e-12, seed=11)


def test_single_leaf_model_equals_plain_factorizer():
    rng = np.random.default_rng(1)
    m = planted_blocks(rng, [(8, 9)], 0.5)
    model = lmf_fit(single_leaf_tree(m), m, SPEC)
    from lmf.bbdf import _derive_seed

    pair = factorize(m, replace(SPEC, seed=_derive_seed(SPEC.seed, (7001, 0))))
    lo, hi = m.value_range()
    for i in range(m.n_rows):
        for j in range(m.n_cols):
            expect = min(max(float(pair.U[i] @ pair.V[j]), lo), hi)
            assert model.predict(i, j) == pytest.approx(expect, abs=1e-12)


def test_coverage_counts():
    rng = np.random.default_rng(2)
    m = bordered_matrix(rng)
    model = lmf_fit(bordered_tree(m), m, SPEC)
    assert coverage_count(model, 0, 0) == 1   # leaf interior
    assert coverage_count(model, 4, 4) == 2   # border x border: every leaf
    assert coverage_count(model, 0, 2) == 0   # cross-leaf, unbordered
    with pytest.raises(ShapeError):
        coverage_count(model, 9, 0)


def test_border_cell_prediction_is_mean_of_covering_blocks():
    rng = np.random.default_rng(3)
    m = bordered_matrix(rng)
    model = lmf_fit(bordered_tree(m), m, SPEC)
    lo, hi = model.value_range
    # independent mean over the two covering blocks
    preds = []
    for rows, cols, pair in zip(model.block_rows, model.block_cols,
                                model.pairs):
        ri = {int(g): k for k, g in enumerate(rows)}
        ci = {int(g): k for k, g in enumerate(cols)}
        if 4 in ri and 4 in ci:
            preds.append(float(pair.U[ri[4]] @ pair.V[ci[4]]))
    assert len(preds) == 2
    expect = min(max(sum(preds) / 2, lo), hi)
    assert model.predict(4, 4) == pytest.approx(expect, abs=1e-12)


def test_uncovered_cell_uses_bias_fallback_only():
    rng = np.random.default_rng(4)
    m = bordered_matrix(rng)
    model = lmf_fit(bordered_tree(m), m, SPEC)
    mu, bu, bi = fallback_biases(m)
    lo, hi = model.value_range
    expect = min(max(mu + bu[0] + bi[2], lo), hi)
    assert model.predict(0, 2) == pytest.approx(expect, abs=1e-12)
    # oracle: damped bias formula recomputed directly
    resid = m.vals - m.vals.mean()
    bu0 = resid[m.rows == 0].sum() / ((m.rows == 0).sum() + 25)
    assert bu[0] == pytest.approx(bu0, abs=1e-12)


def test_averaging_consistency_full_matrix():
    """For every cell, the model prediction equals the brute-force mean
    over covering blocks derived independently from the tree."""
    rng = np.random.default_rng(5)
    m = planted_blocks(rng, [(10, 11), (9, 10)], 0.5, bridge_rows=2)
    tree, _ = balanced_permute(m, 0.55, seed=2)
    model = lmf_fit(tree, m, SPEC)
    lo, hi = model.value_range

    # ancestor borders recomputed from the tree, not from the model
    def assembled_sets(node, anc_r, anc_c, out):
        if node.is_leaf:
            out.append((set(node.rows.tolist()) | set(np.concatenate(anc_r).tolist() if anc_r else []),
                        set(node.cols.tolist()) | set(np.concatenate(anc_c).tolist() if anc_c else [])))
        else:
            for ch in node.children:
                assembled_sets(ch, [node.row_border] + anc_r,
                               [node.col_border] + anc_c, out)

    sets = []
    assembled_sets(tree.root, [], [], sets)
    assert len(sets) == model.n_blocks

    mu, bu, bi = fallback_biases(m)
    for i in range(m.n_rows):
        for j in range(m.n_cols):
            covering = []
            for (rs, cs), rows, cols, pair in zip(sets, model.block_rows,
                                                  model.block_cols, model.pairs):
                if i in rs and j in cs:
                    li = int(np.nonzero(rows == i)[0][0])
                    lj = int(np.nonzero(cols == j)[0][0])
                    covering.append(float(pair.U[li] @ pair.V[lj]))
            if covering:
                expect = sum(covering) / len(covering)
            else:
                expect = mu + bu[i] + bi[j]
            expect = min(max(expect, lo), hi)
            assert model.predict(i, j) == pytest.approx(expect, abs=1e-9)
            assert model.coverage_count(i, j) == len(covering)


def test_predict_many_matches_scalar_path():
    rng = np.random.default_rng(6)
    m = planted_blocks(rng, [(12, 13), (11, 12)], 0.45, bridge_rows=1)
    tree, _ = balanced_permute(m, 0.5, seed=1)
    model = lmf_fit(tree, m, SPEC)
    I = rng.integers(0, m.n_rows, 200)
    J = rng.integers(0, m.n_cols, 200)
    batch, covered = model.predict_many(I, J)
    for t in range(I.size):
        assert batch[t] == pytest.approx(model.predict(int(I[t]), int(J[t])),
                                         abs=1e-9)
        assert covered[t] == (model.coverage_count(int(I[t]), int(J[t])) > 0)


def test_predict_many_over_several_chunks_equals_one_einsum():
    rng = np.random.default_rng(7)
    m = bordered_matrix(rng)
    spec = replace(SPEC, r=60, max_iters=3)
    model = lmf_fit(bordered_tree(m), m, spec)
    n = 3 * (2**20 // (8 * spec.r)) + 7
    I = rng.integers(0, m.n_rows, n)
    J = rng.integers(0, m.n_cols, n)
    total = np.zeros(n)
    count = np.zeros(n, dtype=np.int64)
    for rows, cols, pair in zip(model.block_rows, model.block_cols,
                                model.pairs):
        rp = np.full(m.n_rows, -1)
        cp = np.full(m.n_cols, -1)
        rp[rows] = np.arange(rows.size)
        cp[cols] = np.arange(cols.size)
        sel = (rp[I] >= 0) & (cp[J] >= 0)
        total[sel] += np.einsum("ij,ij->i", pair.U[rp[I][sel]],
                                pair.V[cp[J][sel]])
        count[sel] += 1
    covered = count > 0
    assert (count > 1).any() and not covered.all()
    pred, got_covered = model.predict_many(I, J)
    assert np.array_equal(got_covered, covered)
    assert np.array_equal(pred[covered], np.clip(
        total[covered] / count[covered], *model.value_range))


def test_exact_recovery_of_low_rank_block_diagonal():
    """Block-diagonal matrix with exactly rank-2 blocks: per-block fitting
    with an unregularized least-squares factorizer reproduces every
    observed entry."""
    rng = np.random.default_rng(7)
    rows, cols, vals = [], [], []
    ro = co = 0
    for nr, nc in ((6, 7), (5, 6)):
        U = rng.standard_normal((nr, 2))
        V = rng.standard_normal((nc, 2))
        X = U @ V.T
        for i in range(nr):
            for j in range(nc):
                rows.append(ro + i)
                cols.append(co + j)
                vals.append(X[i, j])
        ro += nr
        co += nc
    m = RatingMatrix(ro, co, rows, cols, vals)
    root = BBDFNode(np.arange(ro), np.arange(co))
    root.children = [BBDFNode(np.arange(6), np.arange(7), path=(0,)),
                     BBDFNode(np.arange(6, 11), np.arange(7, 13), path=(1,))]
    tree = BBDFTree(root, "bbdf", 0, 1.0, matrix=m)
    spec = FactorizerSpec(algorithm="svd_als", r=2, reg=0.0, max_iters=200,
                          convergence_tol=1e-15, seed=0)
    model = lmf_fit(tree, m, spec)
    preds, _ = model.predict_many(m.rows, m.cols)
    # compare unclamped: disable the rating-scale clamp via wide range
    model.value_range = (-1e9, 1e9)
    preds, _ = model.predict_many(m.rows, m.cols)
    assert np.abs(preds - m.vals).max() < 1e-6


@pytest.mark.parametrize("threads", [2, 8])  # 8 > a small CPU set: capped
@pytest.mark.parametrize("algo", ["svd_als", "nmf", "pmf_sgd", "mmmf_fast"])
def test_parallel_equivalence_and_identical_model_files(tmp_path, algo,
                                                        threads):
    rng = np.random.default_rng(8)
    m = planted_blocks(rng, [(10, 12), (9, 11), (8, 10)], 0.5, bridge_rows=1)
    tree, _ = balanced_permute(m, 0.55, seed=3)
    spec = replace(SPEC, algorithm=algo)
    serial = lmf_fit(tree, m, spec, threads=1)
    pooled = lmf_fit(tree, m, spec, threads=threads)
    assert serial.n_blocks > 1
    for a, b in zip(serial.pairs, pooled.pairs):
        assert np.array_equal(a.U, b.U)
        assert np.array_equal(a.V, b.V)
    d1, d2 = tmp_path / "serial", tmp_path / "pooled"
    serial.save(d1)
    pooled.save(d2)
    assert sorted(os.listdir(d1)) == sorted(os.listdir(d2))
    for name in os.listdir(d1):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_model_round_trip_predictions(tmp_path):
    rng = np.random.default_rng(9)
    m = planted_blocks(rng, [(9, 10), (8, 9)], 0.5, bridge_rows=1)
    tree, _ = balanced_permute(m, 0.5, seed=4)
    model = lmf_fit(tree, m, SPEC)
    model.save(tmp_path / "model")
    # manifests written before wall times were left out still load
    path = tmp_path / "model" / "manifest.json"
    manifest = json.loads(path.read_text())
    assert "timings" not in manifest and "threads" not in manifest
    manifest.update(threads=2, timings={"fit_wall": 0.5})
    path.write_text(json.dumps(manifest))
    loaded = LMFModel.load(tmp_path / "model")
    assert loaded.n_blocks == model.n_blocks
    I = rng.integers(0, m.n_rows, 50)
    J = rng.integers(0, m.n_cols, 50)
    for i, j in zip(I, J):
        assert loaded.predict(int(i), int(j)) == model.predict(int(i), int(j))
        assert loaded.coverage_count(int(i), int(j)) == \
            model.coverage_count(int(i), int(j))


def _openblas_threads():
    """Thread count of every OpenBLAS loaded in this process, by path."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split(maxsplit=5)[-1].strip() for line in fh
                 if "openblas" in line.lower()}
    counts = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                counts[path] = getter()
                break
    return counts


def test_pool_workers_run_one_blas_thread():
    before = _openblas_threads() if os.path.exists("/proc/self/maps") else {}
    if not before:
        pytest.skip("no OpenBLAS loaded, or no /proc/self/maps to find it")
    with ProcessPoolExecutor(max_workers=1,
                             initializer=_single_blas_thread) as pool:
        in_worker = pool.submit(_openblas_threads).result(timeout=60)
    assert in_worker and set(in_worker.values()) == {1}
    assert _openblas_threads() == before


def _thread_count():
    return len(os.listdir("/proc/self/task"))


def test_pool_workers_start_no_blas_threads():
    # setting the count restarts OpenBLAS's thread pool in a forked worker,
    # whose threads would spin on the cores the fit needs; the initializer
    # stops them, so the worker runs its own thread only
    if not (os.path.exists("/proc/self/maps") and _openblas_threads()):
        pytest.skip("no OpenBLAS loaded, or no /proc/self/maps to find it")
    with ProcessPoolExecutor(max_workers=1,
                             initializer=_single_blas_thread) as pool:
        assert pool.submit(_thread_count).result(timeout=60) == 1


@pytest.mark.parametrize("cut", [3, 8])  # mid-value, and whole values lost
def test_load_rejects_truncated_biases(tmp_path, cut):
    rng = np.random.default_rng(9)
    m = planted_blocks(rng, [(9, 10), (8, 9)], 0.5, bridge_rows=1)
    tree, _ = balanced_permute(m, 0.5, seed=4)
    lmf_fit(tree, m, SPEC).save(tmp_path / "model")
    biases = tmp_path / "model" / "biases.bin"
    biases.write_bytes(biases.read_bytes()[:-cut])
    with pytest.raises(ShapeError) as err:
        LMFModel.load(tmp_path / "model")
    assert err.value.exit_code == 2


def test_cross_block_fallback_option():
    rng = np.random.default_rng(10)
    m = bordered_matrix(rng)
    model = lmf_fit(bordered_tree(m), m, SPEC, uncovered="cross")
    # cell (0, 2): row in block 0, col in block 1 -> single cross estimate
    pairs = model.pairs
    rows0, cols1 = model.block_rows[0], model.block_cols[1]
    li = int(np.nonzero(rows0 == 0)[0][0])
    lj = int(np.nonzero(cols1 == 2)[0][0])
    raw = float(pairs[0].U[li] @ pairs[1].V[lj])
    lo, hi = model.value_range
    assert model.predict(0, 2) == pytest.approx(min(max(raw, lo), hi),
                                                abs=1e-12)


def nested_tree(m):
    """Depth-2 tree over 14x14: root border {12,13}; child A (0..7) with
    border {6,7} over leaves {0,1,2} and {3,4,5}; leaf B (8..11)."""
    def leaf(lo, hi, path):
        return BBDFNode(np.arange(lo, hi), np.arange(lo, hi), path=path)

    a = leaf(0, 8, (0,))
    a.row_border = a.col_border = np.array([6, 7])
    a.children = [leaf(0, 3, (0, 0)), leaf(3, 6, (0, 1))]
    root = leaf(0, 14, ())
    root.row_border = root.col_border = np.array([12, 13])
    root.children = [a, leaf(8, 12, (1,))]
    return BBDFTree(root, "bbdf", 0, 1.0, matrix=m)


def nested_matrix(rng):
    """Random entries inside the assembled blocks of :func:`nested_tree`."""
    allowed = np.zeros((14, 14), dtype=bool)
    for rows, cols in ([0, 1, 2, 6, 7, 12, 13],) * 2, \
            ([3, 4, 5, 6, 7, 12, 13],) * 2, ([8, 9, 10, 11, 12, 13],) * 2:
        allowed[np.ix_(rows, cols)] = True
    r, c = np.nonzero(allowed & (rng.random((14, 14)) < 0.8))
    return RatingMatrix(14, 14, r, c, rng.integers(1, 6, r.size).astype(float))


def cross_reference(model, i, j):
    """Pairwise mean of U_a[i] . V_b[j] over every block a holding row i
    and every block b holding column j, else the bias fallback; clamped."""
    total, k = 0.0, 0
    for rows_a, pu in zip(model.block_rows, model.pairs):
        if i not in rows_a:
            continue
        li = int(np.nonzero(rows_a == i)[0][0])
        for cols_b, pv in zip(model.block_cols, model.pairs):
            if j in cols_b:
                lj = int(np.nonzero(cols_b == j)[0][0])
                total += float(pu.U[li] @ pv.V[lj])
                k += 1
    p = total / k if k else model.mu + model.b_user[i] + model.b_item[j]
    lo, hi = model.value_range
    return min(max(p, lo), hi), k


def test_cross_fallback_equals_pairwise_mean_on_nested_tree():
    rng = np.random.default_rng(13)
    m = nested_matrix(rng)
    tree = nested_tree(m)
    check_tree(tree, m)
    model = lmf_fit(tree, m, SPEC, uncovered="cross")
    I, J = np.divmod(np.arange(14 * 14), 14)
    pred, covered = model.predict_many(I, J)
    pair_counts = []
    for t in np.flatnonzero(~covered):
        expect, k = cross_reference(model, int(I[t]), int(J[t]))
        assert abs(pred[t] - expect) <= 1e-12
        assert model.predict(int(I[t]), int(J[t])) == pred[t]
        pair_counts.append(k)
    assert max(pair_counts) >= 2  # e.g. (6, 9): rows of both A leaves x B
    assert not covered[6 * 14 + 9]
    assert covered.sum() == sum(model.coverage_count(i, j) > 0
                                for i, j in zip(I, J))


def test_cross_fallback_chunks_equal_one_batch(monkeypatch):
    rng = np.random.default_rng(13)
    m = nested_matrix(rng)
    model = lmf_fit(nested_tree(m), m, SPEC, uncovered="cross")
    I, J = np.divmod(rng.integers(0, 14 * 14, 500), 14)
    # the unchunked expression: one (uncovered pairs x r) sum per side
    _, covered = model.predict_many(I, J)
    Ir, Jr = I[~covered], J[~covered]
    su = np.zeros((Ir.size, model.spec.r))
    sv = np.zeros((Ir.size, model.spec.r))
    n_a = np.zeros(Ir.size, dtype=np.int64)
    n_b = np.zeros(Ir.size, dtype=np.int64)
    for rows_a, cols_a, pair in zip(model.block_rows, model.block_cols,
                                    model.pairs):
        li, lj = np.full(14, -1), np.full(14, -1)
        li[rows_a], lj[cols_a] = np.arange(rows_a.size), np.arange(cols_a.size)
        a, b = li[Ir] >= 0, lj[Jr] >= 0
        su[a] += pair.U[li[Ir[a]]]
        sv[b] += pair.V[lj[Jr[b]]]
        n_a += a
        n_b += b
    n = n_a * n_b
    want = model.mu + model.b_user[Ir] + model.b_item[Jr]
    want[n > 0] = np.einsum("ij,ij->i", su[n > 0], sv[n > 0]) / n[n > 0]
    want = np.clip(want, *model.value_range)
    monkeypatch.setattr(model_module, "_chunk_rows", lambda r: 7)
    pred, _ = model.predict_many(I, J)
    assert (n > 0).sum() > 7
    assert np.array_equal(pred[~covered], want)


def _saved_model(tmp_path):
    rng = np.random.default_rng(9)
    m = planted_blocks(rng, [(9, 10), (8, 9)], 0.5, bridge_rows=1)
    tree, _ = balanced_permute(m, 0.5, seed=4)
    model = lmf_fit(tree, m, SPEC)
    model.save(tmp_path / "model")
    return model, tmp_path / "model"


def test_load_rejects_reshaped_factor_file(tmp_path):
    model, d = _saved_model(tmp_path)
    pair = model.pairs[0]
    save_factors(d / "block_0000.fac",
                 FactorPair(pair.U[:5].copy(), pair.V), model.spec)
    with pytest.raises(ShapeError) as err:
        LMFModel.load(d)
    assert err.value.exit_code == 2 and "block_0000.fac" in str(err.value)


@pytest.mark.parametrize("field, value", [("r", 7), ("algorithm", "nmf")])
def test_load_rejects_sidecar_spec_unlike_manifest(tmp_path, field, value):
    _, d = _saved_model(tmp_path)
    side = d / "block_0001.fac.json"
    doc = json.loads(side.read_text())
    doc["spec"][field] = value
    side.write_text(json.dumps(doc))
    with pytest.raises(ShapeError) as err:
        LMFModel.load(d)
    assert err.value.exit_code == 2
    assert "block_0001.fac" in str(err.value) and field in str(err.value)


def test_predict_labels_on_unlabelled_tree_raises(tmp_path):
    rng = np.random.default_rng(16)
    m = planted_blocks(rng, [(5, 5)], 0.6)
    root = BBDFNode(np.arange(5), np.arange(5))
    tree = BBDFTree(root, "bbdf", 0, 1.0, n_rows=5, n_cols=5)
    model = lmf_fit(tree, m, SPEC)
    assert model.predict_many([0], [1])[1].all()
    with pytest.raises(MissingLabelsError) as err:
        model.predict_labels(["0"], ["1"])
    assert err.value.exit_code == 2


@pytest.mark.parametrize("delta", [-1, 1])
def test_load_rejects_wrong_block_count(tmp_path, delta):
    model, d = _saved_model(tmp_path)
    if delta > 0:  # a stray extra factor file does not make the count right
        save_factors(d / f"block_{model.n_blocks:04d}.fac", model.pairs[0],
                     model.spec)
    manifest = json.loads((d / "manifest.json").read_text())
    manifest["n_blocks"] += delta
    (d / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ShapeError) as err:
        LMFModel.load(d)
    assert err.value.exit_code == 2 and "leaves" in str(err.value)


def test_block_error_tagged_with_block_id():
    # one block with a negative value makes nmf fail; the error names it
    m = RatingMatrix(4, 4, [0, 1, 2, 3], [0, 1, 2, 3], [1.0, 1.0, -1.0, 1.0])
    root = BBDFNode(np.arange(4), np.arange(4))
    root.children = [BBDFNode(np.array([0, 1]), np.array([0, 1]), path=(0,)),
                     BBDFNode(np.array([2, 3]), np.array([2, 3]), path=(1,))]
    tree = BBDFTree(root, "bbdf", 0, 1.0, matrix=m)
    spec = FactorizerSpec(algorithm="nmf", r=1, max_iters=5)
    for threads in (1, 2):
        with pytest.raises(DomainError) as err:
            lmf_fit(tree, m, spec, threads=threads)
        assert "block" in str(err.value)


@pytest.mark.parametrize("kwargs", [{"uncovered": "near"}, {"threads": 0},
                                    {"threads": 1.5}, {"threads": "2"},
                                    {"threads": True}])
def test_fit_rejects_bad_settings_before_fitting_a_block(monkeypatch, kwargs):
    from lmf.errors import ConfigError

    def no_fit(*args, **kw):
        raise AssertionError("a block was fitted")

    monkeypatch.setattr(model_module, "factorize", no_fit)
    m = bordered_matrix(np.random.default_rng(14))
    with pytest.raises(ConfigError):
        lmf_fit(bordered_tree(m), m, SPEC, **kwargs)


def test_fit_rejects_mismatched_matrix():
    rng = np.random.default_rng(12)
    m = planted_blocks(rng, [(6, 6)], 0.5)
    other = planted_blocks(rng, [(7, 6)], 0.5)
    with pytest.raises(ShapeError):
        lmf_fit(single_leaf_tree(m), other, SPEC)


def test_model_takes_its_blocks_from_the_tree():
    from lmf.bbdf import assembled_indices
    from lmf.errors import ConfigError

    rng = np.random.default_rng(13)
    m = bordered_matrix(rng)
    tree = bordered_tree(m)
    model = lmf_fit(tree, m, SPEC)
    for (_, rows, cols), r, c, b in zip(assembled_indices(tree),
                                        model.block_rows, model.block_cols,
                                        model.blocks):
        assert np.array_equal(rows, r) and np.array_equal(rows, b.rows)
        assert np.array_equal(cols, c) and np.array_equal(cols, b.cols)
    args = (model.mu, model.b_user, model.b_item, SPEC, model.value_range)
    for pairs in (model.pairs[:1], model.pairs * 2):
        with pytest.raises(ShapeError, match="2 leaves"):
            LMFModel(tree, pairs, *args)
    with pytest.raises(ConfigError, match="'near'"):
        LMFModel(tree, model.pairs, *args, uncovered="near")


def test_public_surface():
    import lmf

    # a name added to or removed from the package shows up here as a diff
    assert sorted(lmf.__all__) == [
        "AssembledBlock", "BBDFNode", "BBDFTree", "BipartiteGraph",
        "EdgePartition", "EvalReport", "FactorPair", "FactorizerSpec",
        "FoldPlan", "IndexPermutation", "LMFError", "LMFModel",
        "RatingMatrix", "SubmatrixView", "VertexPartition", "abbdf_permute",
        "apply_permutation", "assemble_blocks", "avg_density",
        "balanced_permute", "basic_bbdf_step", "bbdf_permute", "check_tree",
        "community_tree", "coverage_count", "density", "factorize", "fchr",
        "gpes_bisect", "gpvs_bisect", "improve_density", "kfold_split",
        "lmf_fit", "load_factors", "load_ratings", "objective_value",
        "permutation_from_tree", "restricted_density", "rmse",
        "run_benchmark", "save_factors", "to_bipartite",
    ]
    assert all(getattr(lmf, name, None) is not None for name in lmf.__all__)
