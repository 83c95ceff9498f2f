import ast
import ctypes
import importlib
import inspect
import json
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lmf import (
    BBDFNode,
    BBDFTree,
    FactorPair,
    FactorizerSpec,
    LMFModel,
    RatingMatrix,
    abbdf_permute,
    assemble_blocks,
    balanced_permute,
    bbdf_permute,
    check_tree,
    community_tree,
    coverage_count,
    factorize,
    lmf_fit,
    save_factors,
)
from lmf.errors import DomainError, MissingLabelsError, ShapeError
from lmf import model as model_module
from lmf.factorize import _chunk_rows, _dots
from lmf.matrix import _positions
from lmf.model import UNCOVERED, fallback_biases

from conftest import ml_shaped, planted_blocks


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
    _assert_identical_model_files(tmp_path, tree, m,
                                  replace(SPEC, algorithm=algo), threads)


@pytest.mark.parametrize("algo", ["svd_als", "nmf", "pmf_sgd"])
def test_identical_model_files_on_ml_shaped_blocks(tmp_path, algo):
    # blocks of tens of thousands of entries, long enough for a threaded
    # BLAS reduction in the serial fit to sum in another order than the
    # single-threaded pool workers
    m = ml_shaped(np.random.default_rng(41))
    tree, _ = balanced_permute(m, 0.09, seed=1)
    spec = FactorizerSpec(algorithm=algo, r=4, max_iters=2,
                          convergence_tol=0.0, seed=1)
    _assert_identical_model_files(tmp_path, tree, m, spec, 2)


def _assert_identical_model_files(tmp_path, tree, m, spec, threads):
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


def _planted_fit_case():
    rng = np.random.default_rng(8)
    m = planted_blocks(rng, [(10, 12), (9, 11), (8, 10)], 0.5, bridge_rows=1)
    tree, _ = balanced_permute(m, 0.55, seed=3)
    return tree, m


def _fork_two_workers(monkeypatch, tmp_path, in_parent=None, in_child=None):
    """Make lmf_fit's factorize run ``in_child()`` first in a forked worker
    and ``in_parent()`` in this process, whose fits wait until a child has
    started one, so that both workers fit blocks."""
    if not hasattr(os, "fork") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("lmf_fit forks workers only with os.fork and >= 2 CPUs")
    parent, real = os.getpid(), model_module.factorize
    started = tmp_path / "child-started"

    def fit(block, spec):
        if os.getpid() == parent:
            deadline = time.monotonic() + 60
            while not started.exists() and time.monotonic() < deadline:
                time.sleep(0.001)
            if in_parent is not None:
                in_parent()
        else:
            started.touch()
            if in_child is not None:
                in_child()
        return real(block, spec)
    monkeypatch.setattr(model_module, "factorize", fit)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _record_in_child(tmp_path, probe):
    """An ``in_child`` that writes ``probe()`` to a file per call; and the
    reader of every record, with the pid that wrote it."""
    def record():
        path = tmp_path / f"{os.getpid()}-{time.monotonic_ns()}.json"
        path.write_text(json.dumps(probe()))

    def records():
        return [(int(p.name.split("-")[0]), json.loads(p.read_text()))
                for p in tmp_path.glob("*.json")]
    return record, records


def test_pool_workers_run_one_blas_thread(monkeypatch, tmp_path):
    # lmf_fit's forked workers run BLAS with one thread; the calling
    # process, which fits blocks too, keeps its own count
    before = _openblas_threads() if os.path.exists("/proc/self/maps") else {}
    if not before:
        pytest.skip("no OpenBLAS loaded, or no /proc/self/maps to find it")
    record, records = _record_in_child(tmp_path, _openblas_threads)
    in_parent = []
    _fork_two_workers(monkeypatch, tmp_path,
                      in_parent=lambda: in_parent.append(_openblas_threads()),
                      in_child=record)
    lmf_fit(*_planted_fit_case(), SPEC, threads=2)
    seen = records()
    assert seen and all(pid != os.getpid() for pid, _ in seen)
    for _, counts in seen:
        assert counts and set(counts.values()) == {1}
    assert in_parent and all(c == before for c in in_parent)
    assert _openblas_threads() == before


def _thread_count():
    return len(os.listdir("/proc/self/task"))


def test_pool_workers_start_no_blas_threads(monkeypatch, tmp_path):
    # setting the count restarts OpenBLAS's thread pool in a forked worker,
    # whose threads would spin on the cores the fit needs; the worker stops
    # them, so it runs its own thread only, at every block it fits
    if not (os.path.exists("/proc/self/maps") and _openblas_threads()):
        pytest.skip("no OpenBLAS loaded, or no /proc/self/maps to find it")
    record, records = _record_in_child(tmp_path, _thread_count)
    _fork_two_workers(monkeypatch, tmp_path, in_child=record)
    lmf_fit(*_planted_fit_case(), SPEC, threads=2)
    seen = records()
    assert seen and {count for _, count in seen} == {1}


def test_forked_workers_reuse_the_parents_blas_setters(monkeypatch,
                                                       request, tmp_path):
    # lmf_fit resolves the OpenBLAS setters once per process, before it
    # forks; the workers only call them and load no library
    if not (os.path.exists("/proc/self/maps") and _openblas_threads()):
        pytest.skip("no OpenBLAS loaded, or no /proc/self/maps to find it")
    _fork_two_workers(monkeypatch, tmp_path)
    parent, loads, cdll = os.getpid(), [], ctypes.CDLL

    def load(path, *args, **kwargs):
        if os.getpid() != parent:
            raise RuntimeError(f"a fit worker loaded {path}")
        loads.append(path)
        return cdll(path, *args, **kwargs)
    model_module._blas_setters.cache_clear()
    request.addfinalizer(model_module._blas_setters.cache_clear)
    monkeypatch.setattr(ctypes, "CDLL", load)
    tree, m = _planted_fit_case()
    for _ in range(2):
        lmf_fit(tree, m, SPEC, threads=2)
    assert 0 < len(loads) == len(set(loads))


def test_fit_leaves_no_child_process(monkeypatch, tmp_path):
    _fork_two_workers(monkeypatch, tmp_path)
    model = lmf_fit(*_planted_fit_case(), SPEC, threads=2)
    assert model.n_blocks > 2
    _no_child_left()


@pytest.mark.parametrize("where", ["in_parent", "in_child"])
def test_block_error_in_either_worker_leaves_no_child(monkeypatch, tmp_path,
                                                      where):
    def fail():
        raise DomainError("no fit here")
    _fork_two_workers(monkeypatch, tmp_path, **{where: fail})
    with pytest.raises(DomainError, match=r"^block \d+: no fit here$"):
        lmf_fit(*_planted_fit_case(), SPEC, threads=2)
    _no_child_left()


def test_interrupted_fit_stops_its_children(monkeypatch, tmp_path):
    # an exception that is no block's error, such as an interrupt, leaves
    # the fit at once: the children still fitting are stopped and reaped
    class Interrupt(BaseException):
        pass

    def interrupt():
        raise Interrupt
    _fork_two_workers(monkeypatch, tmp_path, in_parent=interrupt)
    with pytest.raises(Interrupt):
        lmf_fit(*_planted_fit_case(), SPEC, threads=2)
    _no_child_left()


@pytest.mark.parametrize("threads", [1, 2])
def test_first_failing_block_is_the_largest_first(monkeypatch, threads):
    # every block fails; the error is the one of the first block in
    # largest-first order, whichever worker fitted it
    def fail(block, spec):
        raise DomainError("no fit here")
    monkeypatch.setattr(model_module, "factorize", fail)
    tree, m = _planted_fit_case()
    nnz = [b.nnz for b in assemble_blocks(tree, m)]
    with pytest.raises(DomainError,
                       match=rf"^block {nnz.index(max(nnz))}: no fit here$"):
        lmf_fit(tree, m, SPEC, threads=threads)


def test_each_job_is_fitted_once_by_more_workers_than_cpus(monkeypatch,
                                                          tmp_path):
    # the job counter is shared: a lost update would fit a job twice or
    # skip one; the factors equal those of one worker
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork")
    rng = np.random.default_rng(21)
    jobs = []
    for k in range(40):
        rows, cols = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        r, c = np.nonzero(rng.random((rows, cols)) < 0.7)
        jobs.append((k, RatingMatrix(rows, cols, r, c, rng.random(r.size)),
                     replace(SPEC, seed=k, max_iters=3)))
    parent, real = os.getpid(), model_module.factorize

    def fit(block, spec):
        (tmp_path / f"{spec.seed}-{os.getpid()}").touch()
        deadline = time.monotonic() + 60
        while os.getpid() == parent and time.monotonic() < deadline and \
                all(p.name.endswith(f"-{parent}") for p in tmp_path.iterdir()):
            time.sleep(0.001)  # until a child has claimed a job too
        return real(block, spec)
    monkeypatch.setattr(model_module, "factorize", fit)
    pooled = model_module._fit_jobs(jobs, SPEC.r, 4)
    fitted = [int(p.name.split("-")[0]) for p in tmp_path.iterdir()]
    assert sorted(fitted) == [k for k, m, _ in jobs if m.nnz]
    assert len({p.name.split("-")[1] for p in tmp_path.iterdir()}) > 1
    for a, b in zip(model_module._fit_jobs(jobs, SPEC.r, 1), pooled):
        assert np.array_equal(a.U, b.U) and np.array_equal(a.V, b.V)
        assert a.history == b.history
    _no_child_left()


def test_worker_that_dies_mid_fit_raises(monkeypatch, tmp_path):
    # a child that exits without returning its blocks fails the fit: no
    # hang, no model, no child left
    _fork_two_workers(monkeypatch, tmp_path, in_child=lambda: os._exit(3))
    with pytest.raises(RuntimeError, match=r"fit worker 1 \(pid \d+\) died"):
        lmf_fit(*_planted_fit_case(), SPEC, threads=2)
    _no_child_left()


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
    # lmf.factorize the module, which the package's factorize function hides
    monkeypatch.setattr(importlib.import_module("lmf.factorize"),
                        "_chunk_rows", lambda r: 7)
    pred, _ = model.predict_many(I, J)
    assert (n > 0).sum() > 7
    assert np.array_equal(pred[~covered], want)


def _predict_reference(model, I, J):
    """The per-block stitch: one pass over the batch per block, then the
    cross sums gathered block by block per chunk of uncovered cells.
    Returns the predictions, the covered flags and the coverage counts."""
    I = np.asarray(I, dtype=np.int64)
    J = np.asarray(J, dtype=np.int64)
    rpos = [_positions(rows, model.tree.n_rows) for rows in model.block_rows]
    cpos = [_positions(cols, model.tree.n_cols) for cols in model.block_cols]
    total = np.zeros(I.size)
    count = np.zeros(I.size, dtype=np.int64)
    for rp, cp, pair in zip(rpos, cpos, model.pairs):
        li, lj = rp[I], cp[J]
        sel = (li >= 0) & (lj >= 0)
        if sel.any():
            total[sel] += _dots(pair.U, pair.V, li[sel], lj[sel])
            count[sel] += 1
    covered = count > 0
    out = np.empty(I.size)
    out[covered] = total[covered] / count[covered]
    rest = np.flatnonzero(~covered)
    if rest.size:
        Ir, Jr = I[rest], J[rest]
        out[rest] = model.mu + model.b_user[Ir] + model.b_item[Jr]
        step = _chunk_rows(model.spec.r)
        for s in range(0, rest.size if model.uncovered == "cross" else 0,
                       step):
            Ic, Jc = Ir[s:s + step], Jr[s:s + step]
            su = np.zeros((Ic.size, model.spec.r))
            sv = np.zeros((Ic.size, model.spec.r))
            n_a = np.zeros(Ic.size, dtype=np.int64)
            n_b = np.zeros(Ic.size, dtype=np.int64)
            for rp, cp, pair in zip(rpos, cpos, model.pairs):
                li, lj = rp[Ic], cp[Jc]
                a, b = li >= 0, lj >= 0
                su[a] += pair.U[li[a]]
                sv[b] += pair.V[lj[b]]
                n_a += a
                n_b += b
            n = n_a * n_b
            ok = n > 0
            chunk = rest[s:s + step]
            out[chunk[ok]] = np.einsum("ij,ij->i", su[ok], sv[ok]) / n[ok]
    return np.clip(out, *model.value_range), covered, count


def _reference_trees(seed):
    """A matrix and a tree of every kind, plus the hand-built nested tree
    (cells covered by one, two and all three leaves) and a one-leaf tree."""
    rng = np.random.default_rng(1200 + seed)
    sizes = [(int(rng.integers(4, 10)), int(rng.integers(4, 10)))
             for _ in range(int(rng.integers(2, 5)))]
    m = planted_blocks(rng, sizes, 0.6, density_cross=0.05,
                       bridge_rows=int(rng.integers(1, 3)))
    target = min(1.0, 2.5 * m.nnz / m.area)
    n = m.n_rows + m.n_cols
    comms = [{0, *rng.choice(n, n // 3).tolist()},
             {1, *rng.choice(n, n // 3).tolist()}]
    yield m, bbdf_permute(m, target, seed=seed)
    yield m, abbdf_permute(m, target, seed=seed)
    yield m, balanced_permute(m, target, seed=seed)[0]
    yield m, community_tree(m, [comms[0] - {1}, comms[1] - {0}])
    yield m, single_leaf_tree(m)
    nested = nested_matrix(rng)
    yield nested, nested_tree(nested)


@pytest.mark.parametrize("seed", range(6))
def test_predict_many_equals_the_per_block_reference(seed):
    spec = replace(SPEC, r=60, max_iters=3)
    rng = np.random.default_rng(seed)
    kinds = set()
    for m, tree in _reference_trees(seed):
        fitted = lmf_fit(tree, m, spec)
        I, J = np.divmod(np.arange(m.n_rows * m.n_cols), m.n_cols)
        long = rng.integers(0, m.n_rows * m.n_cols, _chunk_rows(60) * 2 + 5)
        user = rng.integers(m.n_rows)
        batches = [(I, J), np.divmod(long, m.n_cols),
                   (np.full(m.n_cols, user), np.arange(m.n_cols)),
                   (np.empty(0, dtype=int), np.empty(0, dtype=int))]
        for uncovered in UNCOVERED:
            model = LMFModel(fitted.tree, fitted.pairs, fitted.mu,
                             fitted.b_user, fitted.b_item, fitted.spec,
                             fitted.value_range, uncovered=uncovered)
            for Ib, Jb in batches:
                pred, covered = model.predict_many(Ib, Jb)
                want, want_covered, _ = _predict_reference(model, Ib, Jb)
                assert np.array_equal(pred, want), (tree.mode, uncovered)
                assert np.array_equal(covered, want_covered)
        counts = _predict_reference(model, I, J)[2]
        assert [model.coverage_count(i, j) for i, j in zip(I, J)] == \
            counts.tolist()
        kinds.update(counts.tolist())
    assert {0, 1, 2, 3} <= kinds


@pytest.mark.parametrize("uncovered", UNCOVERED)
def test_factors_are_held_once(tmp_path, uncovered):
    rng = np.random.default_rng(14)
    m = nested_matrix(rng)
    model = lmf_fit(nested_tree(m), m, SPEC, uncovered=uncovered)
    model.save(tmp_path / "model")
    for each in (model, LMFModel.load(tmp_path / "model")):
        assert sum(p.U.size for p in each.pairs) == each._U.size
        assert sum(p.V.size for p in each.pairs) == each._V.size
        for pair in each.pairs:
            assert np.shares_memory(pair.U, each._U)
            assert np.shares_memory(pair.V, each._V)
        # a bias model builds no cross sums
        assert (each._cross is None) == (uncovered == "bias")


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
    fitted = lmf_fit(tree, m, SPEC)  # takes the labels of ``m``
    assert fitted.tree.row_ids == m.row_labels and tree.row_ids is None
    model = LMFModel(tree, fitted.pairs, fitted.mu, fitted.b_user,
                     fitted.b_item, fitted.spec, fitted.value_range)
    assert model.predict_many([0], [1])[1].all()
    with pytest.raises(MissingLabelsError) as err:
        model.predict_labels(["0"], ["1"])
    assert err.value.exit_code == 2


@pytest.mark.parametrize("call, args", [
    ("predict_many", ([0], [0, 1, 2])),
    ("predict_many", ([0, 1], [0, 1, 2])),
    ("predict_many", ([[0, 1]], [[0, 1]])),
    ("predict_labels", (["0", "1"], ["0"])),
])
def test_predict_rejects_inputs_that_do_not_pair_up(call, args):
    m = planted_blocks(np.random.default_rng(16), [(5, 5)], 0.6)
    model = lmf_fit(single_leaf_tree(m), m, SPEC)
    with pytest.raises(ShapeError) as err:
        getattr(model, call)(*args)
    assert err.value.exit_code == 2


def _library_modules():
    """``(file name, parsed module)`` per source file of the library."""
    paths = sorted((Path(__file__).parents[1] / "src" / "lmf").glob("*.py"))
    assert len(paths) >= 9
    return [(path.name, ast.parse(path.read_text(encoding="utf-8")))
            for path in paths]


def test_library_has_no_assert_and_no_debug_switch():
    # ``python -O`` strips both, so either would give the library a second
    # behaviour
    found = [f"{name}:{node.lineno}" for name, module in _library_modules()
             for node in ast.walk(module)
             if isinstance(node, ast.Assert)
             or isinstance(node, ast.Name) and node.id == "__debug__"]
    assert found == []


def test_library_validates_a_spec_only_where_it_is_built():
    # FactorizerSpec.__post_init__ runs validate(), so a spec that exists
    # is valid and no caller checks it again
    found = [f"{name}:{node.lineno}" for name, module in _library_modules()
             for top in module.body
             if not (isinstance(top, ast.ClassDef)
                     and top.name == "FactorizerSpec")
             for node in ast.walk(top)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "validate"]
    assert found == []


def test_library_checks_a_tree_structure_only_where_it_is_built():
    # BBDFTree.__init__ runs _check_structure, so a tree that exists is
    # well formed, and neither its decoding nor check_tree checks it again
    def calls(tree):
        return {node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("_governs", "_splits")}

    found, allowed = set(), set()
    for name, module in _library_modules():
        found |= {(name, line) for line in calls(module)}
        allowed |= {(name, line) for cls in module.body
                    if isinstance(cls, ast.ClassDef) and cls.name == "BBDFTree"
                    for method in cls.body
                    if isinstance(method, ast.FunctionDef)
                    and method.name == "_check_structure"
                    for line in calls(method)}
    assert allowed and sorted(found - allowed) == []


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
                                        assemble_blocks(tree, m)):
        assert np.array_equal(rows, r) and np.array_equal(rows, b.rows)
        assert np.array_equal(cols, c) and np.array_equal(cols, b.cols)
    args = (model.mu, model.b_user, model.b_item, SPEC, model.value_range)
    for pairs in (model.pairs[:1], model.pairs * 2):
        with pytest.raises(ShapeError, match="2 leaves"):
            LMFModel(tree, pairs, *args)
    with pytest.raises(ConfigError, match="'near'"):
        LMFModel(tree, model.pairs, *args, uncovered="near")


@pytest.mark.parametrize("fault, message", [
    ("U one row short", r"block_0001\.fac: factors U \(2, 3\)"),
    ("wrong r", r"block_0000\.fac: .* expected \(3, 4\) and \(3, 4\)"),
    ("b_user one short", r"b_user \(4,\) and b_item \(5,\), expected \(5,\)"),
    ("b_item one long", r"b_user \(5,\) and b_item \(6,\), expected \(5,\)"),
])
def test_hand_built_model_checks_its_parts(fault, message):
    m = bordered_matrix(np.random.default_rng(13))
    tree = bordered_tree(m)
    model = lmf_fit(tree, m, SPEC)
    pairs, spec = list(model.pairs), SPEC
    b_user, b_item = model.b_user, model.b_item
    if fault == "U one row short":
        pairs[1] = FactorPair(pairs[1].U[1:], pairs[1].V)
    elif fault == "wrong r":
        spec = replace(SPEC, r=SPEC.r + 1)
    elif fault == "b_user one short":
        b_user = b_user[:-1]
    else:
        b_item = np.append(b_item, 0.0)
    with pytest.raises(ShapeError, match=message) as err:
        LMFModel(tree, pairs, model.mu, b_user, b_item, spec,
                 model.value_range)
    assert err.value.exit_code == 2


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

    # and so does a parameter added to or removed from a public callable
    params = {name: " ".join(inspect.signature(getattr(lmf, name)).parameters)
              for name in lmf.__all__ if name != "LMFError"}
    assert params == {
        "AssembledBlock": "rows cols matrix origin",
        "BBDFNode": "rows cols path",
        "BBDFTree": "root mode seed target_density matrix n_rows n_cols "
                    "row_ids col_ids rounds",
        "BipartiteGraph": "n_r n_c edge_r edge_c xadj adjncy",
        "EdgePartition": "parts cut_edges",
        "EvalReport": "rmse fold_rmse fallback_fraction wall_times "
                      "block_stats spec mode extra",
        "FactorPair": "U V thresholds final_objective history",
        "FactorizerSpec": "algorithm r reg reg_user reg_item margin_c "
                          "learning_rate max_iters convergence_tol seed levels",
        "FoldPlan": "n_folds seed assignment",
        "IndexPermutation": "row_perm col_perm",
        "LMFModel": "tree pairs mu b_user b_item spec value_range timings "
                    "uncovered",
        "RatingMatrix": "n_rows n_cols rows cols vals row_labels col_labels",
        "SubmatrixView": "matrix rows cols",
        "VertexPartition": "parts separator",
        "abbdf_permute": "m target_density seed",
        "apply_permutation": "m p",
        "assemble_blocks": "tree m",
        "avg_density": "views",
        "balanced_permute": "m target_density seed on_round",
        "basic_bbdf_step": "view seed",
        "bbdf_permute": "m target_density seed",
        "check_tree": "tree m",
        "community_tree": "m communities",
        "coverage_count": "model i j",
        "density": "view",
        "factorize": "m spec init sample_order iterate_hook",
        "fchr": "rounds",
        "gpes_bisect": "g balance_tol seed",
        "gpvs_bisect": "g balance_tol seed",
        "improve_density": "children target",
        "kfold_split": "m k seed",
        "lmf_fit": "tree m spec threads uncovered",
        "load_factors": "path",
        "load_ratings": "path",
        "objective_value": "m pair spec",
        "permutation_from_tree": "tree",
        "restricted_density": "block axis index",
        "rmse": "truth pred",
        "run_benchmark": "config",
        "save_factors": "path pair spec",
        "to_bipartite": "m",
    }
