"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured values (run ``pytest -v -rA tests/test_acceptance.py``
for the full report).

Criteria needing MovieLens-100K skip with an explicit reason when the
dataset is absent (this sandbox has no network access); drop ``u.data``
into ``data/ml-100k/`` or set ``$LMF_ML100K`` to enable them. The
parallel-speedup criterion skips on single-core machines where a >= 2x
wall-clock speedup is physically unreachable.
"""

import os
import time

import numpy as np
import pytest

from lmf import (
    BBDFNode,
    BBDFTree,
    FactorizerSpec,
    RatingMatrix,
    SubmatrixView,
    abbdf_permute,
    balanced_permute,
    bbdf_permute,
    check_tree,
    community_tree,
    density,
    factorize,
    fchr,
    gpvs_bisect,
    improve_density,
    lmf_fit,
    restricted_density,
    run_benchmark,
    to_bipartite,
)
from lmf.errors import DegenerateBlockError, NoSplitError, TooSmallError

from conftest import requires_ml100k


def _report(name, detail):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def _cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _pick_block_target(m, want=3, seed=0):
    """Target density whose balanced reordering yields a leaf count
    closest to ``want`` (exact match preferred). Searches a grid of
    multipliers of the matrix's own density, then refines by bisection
    between the straddling grid points."""
    rho = density(m.full_view())
    seen = {}

    def leaves_at(target):
        if target not in seen:
            tree, _ = balanced_permute(m, target, seed=seed)
            seen[target] = len(tree.leaves())
        return seen[target]

    best = None
    for mult in (1.05, 1.1, 1.15, 1.2, 1.3, 1.4, 1.6, 1.9):
        target = round(rho * mult, 6)
        k = leaves_at(target)
        key = (abs(k - want), target)
        if best is None or key < best[0]:
            best = (key, target, k)
        if k == want:
            return target, k
    # refine between the largest undershoot and smallest overshoot; the
    # matrix's own density always undershoots (single leaf there), and
    # each accepted round raises pooled density strictly, so every leaf
    # count is reachable in some target interval
    lo = max((t for t, k in seen.items() if k < want), default=rho)
    hi = min((t for t, k in seen.items() if k > want), default=None)
    if hi is not None:
        for _ in range(12):
            mid = round((lo + hi) / 2, 6)
            k = leaves_at(mid)
            key = (abs(k - want), mid)
            if key < best[0]:
                best = (key, mid, k)
            if k == want:
                return mid, k
            if k < want:
                lo = mid
            else:
                hi = mid
    return best[1], best[2]


# -- criterion 1: baseline reproduction (MovieLens-100K) -------------------------

@requires_ml100k
def test_criterion_01_baseline_reproduction(ml100k):
    t0 = time.perf_counter()
    report = run_benchmark({
        "matrix": ml100k, "algorithm": "svd_als", "mode": "baseline",
        "folds": 5, "seed": 7, "r": 60, "reg": 0.065,
        "max_iters": 60, "convergence_tol": 1e-5, "threads": 1,
    })
    elapsed = time.perf_counter() - t0
    assert 0.90 <= report.rmse <= 0.95, report.rmse
    assert elapsed < 600, f"took {elapsed:.0f}s"
    _report("01 baseline-reproduction",
            f"rmse={report.rmse:.4f} in [0.90, 0.95], {elapsed:.0f}s")


# -- criterion 2: LMF improvement direction (MovieLens-100K) ---------------------

def _fold_trees(m, target, folds=5, seed=7):
    """One balanced reordering per fold's training matrix, shared across
    the per-algorithm benchmark runs (the permute work is identical)."""
    plan = __import__("lmf").kfold_split(m, folds, seed)
    trees = []
    for fold in range(folds):
        tree, _ = balanced_permute(plan.train_matrix(m, fold), target,
                                   seed=seed)
        trees.append(tree)
    return trees


@requires_ml100k
def test_criterion_02_lmf_improvement_direction(ml100k):
    train0 = __import__("lmf").kfold_split(ml100k, 5, 7).train_matrix(ml100k, 0)
    target, k = _pick_block_target(train0, want=3, seed=7)
    assert 2 <= k <= 5, f"could not reach ~3 blocks (got {k})"
    trees = _fold_trees(ml100k, target)

    specs = {
        "svd_als": {"r": 60, "reg": 0.065, "max_iters": 60},
        "nmf": {"r": 60, "reg": 0.065, "max_iters": 120},
        "pmf_sgd": {"r": 60, "reg_user": 0.002, "reg_item": 0.002,
                    "learning_rate": 0.005, "max_iters": 60},
        "mmmf_fast": {"r": 60, "margin_c": 1.5, "learning_rate": 0.005,
                      "max_iters": 40},
    }
    improved = 0
    svd_gap = None
    lines = []
    for algo, params in specs.items():
        report = run_benchmark({
            "matrix": ml100k, "algorithm": algo, "mode": "both",
            "target_density": target, "trees": trees,
            "folds": 5, "seed": 7, "threads": 1,
            "convergence_tol": 1e-5, **params,
        })
        base, local = report.extra["baseline_rmse"], report.extra["lmf_rmse"]
        lines.append(f"{algo}: {base:.4f} -> {local:.4f}")
        if local <= base:
            improved += 1
        if algo == "svd_als":
            svd_gap = base - local
    assert improved >= 3, lines
    assert svd_gap is not None and svd_gap >= 0.003, lines
    _report("02 lmf-improvement", f"target={target} k~{k}; " + "; ".join(lines))


# -- criterion 3: separability oracle equivalence --------------------------------

def test_criterion_03_separability_oracle_equivalence():
    rng = np.random.default_rng(303)
    checked = 0
    for trial in range(20):
        shapes = [(int(rng.integers(2, 9)), int(rng.integers(2, 9)))
                  for _ in range(2)]
        ro = co = 0
        R, C, V = [], [], []
        mats = []
        for nr, nc in shapes:
            mask = rng.random((nr, nc)) < max(0.5, rng.uniform(0.5, 0.9))
            mask[rng.integers(nr), rng.integers(nc)] = True
            r, c = np.nonzero(mask)
            vals = rng.integers(1, 6, r.size).astype(float)
            mats.append(RatingMatrix(nr, nc, r, c, vals))
            R.append(r + ro)
            C.append(c + co)
            V.append(vals)
            ro += nr
            co += nc
        joint = RatingMatrix(ro, co, np.concatenate(R), np.concatenate(C),
                             np.concatenate(V))
        for algo in ("svd_als", "nmf"):
            r_dim = 3
            spec = FactorizerSpec(algorithm=algo, r=r_dim, reg=0.05,
                                  max_iters=12, convergence_tol=1e-15,
                                  seed=trial)
            inits = []
            for mat in mats:
                U = rng.standard_normal((mat.n_rows, r_dim)) / np.sqrt(r_dim)
                W = rng.standard_normal((mat.n_cols, r_dim)) / np.sqrt(r_dim)
                if algo == "nmf":
                    U, W = np.abs(U), np.abs(W)
                inits.append((U, W))
            joint_init = (np.vstack([u for u, _ in inits]),
                          np.vstack([w for _, w in inits]))
            traces = []
            for mat, init in zip(mats, inits):
                t = []
                factorize(mat, spec, init=init,
                          iterate_hook=lambda it, U, V, t=t: t.append(
                              (U.copy(), V.copy())))
                traces.append(t)
            tj = []
            factorize(joint, spec, init=joint_init,
                      iterate_hook=lambda it, U, V: tj.append((U.copy(), V.copy())))
            n_it = min(len(tj), len(traces[0]), len(traces[1]))
            assert n_it >= 12
            for t in range(n_it):
                Uj, Vj = tj[t]
                Us = np.vstack([traces[0][t][0], traces[1][t][0]])
                Vs = np.vstack([traces[0][t][1], traces[1][t][1]])
                assert np.abs(Uj - Us).max() <= 1e-9
                assert np.abs(Vj - Vs).max() <= 1e-9
                checked += 1
    _report("03 separability-oracle",
            f"20 matrices x 2 algorithms, {checked} iteration comparisons <= 1e-9")


# -- criterion 4: parallel speedup -------------------------------------------------

def _speedup_matrix():
    rng = np.random.default_rng(404)
    n_rows, n_cols, per_block = 250, 500, 12_500
    blocks = []
    ro = co = 0
    R, C, V = [], [], []
    for b in range(8):
        seen = set()
        while len(seen) < per_block:
            i = int(rng.integers(n_rows))
            j = int(rng.integers(n_cols))
            seen.add((i, j))
        r = np.array([p[0] for p in sorted(seen)])
        c = np.array([p[1] for p in sorted(seen)])
        R.append(r + ro)
        C.append(c + co)
        V.append(rng.integers(1, 6, r.size).astype(float))
        blocks.append((ro, co))
        ro += n_rows
        co += n_cols
    m = RatingMatrix(ro, co, np.concatenate(R), np.concatenate(C),
                     np.concatenate(V))
    root = BBDFNode(np.arange(ro), np.arange(co))
    for b, (r0, c0) in enumerate(blocks):
        root.children.append(BBDFNode(np.arange(r0, r0 + n_rows),
                                      np.arange(c0, c0 + n_cols),
                                      path=(b,)))
    tree = BBDFTree(root, "bbdf", 0, 1.0, matrix=m)
    return m, tree


def test_criterion_04_parallel_speedup():
    if _cpu_count() < 2:
        pytest.skip("parallel speedup unreachable on a single-core machine "
                    "(this sandbox exposes 1 CPU); requires >= 2 cores")
    m, tree = _speedup_matrix()
    assert m.nnz == 100_000 and len(tree.leaves()) == 8
    spec = FactorizerSpec(algorithm="svd_als", r=60, reg=0.05, max_iters=10,
                          convergence_tol=1e-15, seed=1)
    t0 = time.perf_counter()
    factorize(m, spec)
    t_base = time.perf_counter() - t0
    model = lmf_fit(tree, m, spec, threads=8)
    t_lmf = model.timings["fit_wall"]
    speedup = t_base / t_lmf
    assert speedup >= 2.0, f"speedup {speedup:.2f}x"
    _report("04 parallel-speedup",
            f"baseline {t_base:.1f}s vs lmf {t_lmf:.1f}s = {speedup:.2f}x")


# -- criterion 5: structural fuzzing ------------------------------------------------

def test_criterion_05_structural_fuzzing():
    assert hasattr(gpvs_bisect, "__wrapped__")  # the conftest.py check
    rng = np.random.default_rng(505)
    n_gpvs_checked = 0
    for trial in range(1000):
        nr = int(rng.integers(4, 61))
        nc = int(rng.integers(4, 61))
        dens = float(rng.uniform(0.02, 0.3))
        mask = rng.random((nr, nc)) < dens
        if not mask.any():
            mask[rng.integers(nr), rng.integers(nc)] = True
        r, c = np.nonzero(mask)
        m = RatingMatrix(nr, nc, r, c, np.ones(r.size))
        rho = m.nnz / m.area
        target = 1.0 if trial % 2 else min(1.0, rho * float(rng.uniform(1.5, 6)))

        exact = bbdf_permute(m, target, seed=trial)
        counts = check_tree(exact, m)  # zero-structure + conservation
        assert counts["dropped"] == 0

        approx = abbdf_permute(m, target, seed=trial)
        counts = check_tree(approx, m)
        assert counts["leaf"] + counts["border"] + counts["dropped"] == m.nnz

        # conftest.py wraps gpvs_bisect in _verify_vertex_partition: non-empty
        # disjoint parts, a separator apart from them, full cover, and no
        # component of the graph without the separator across two parts
        try:
            gpvs_bisect(to_bipartite(m), 0.2, seed=trial)
        except (NoSplitError, TooSmallError):
            continue
        n_gpvs_checked += 1
    _report("05 structural-fuzzing",
            f"1000 matrices, zero violations, {n_gpvs_checked} separators "
            "component-verified")


# -- criterion 6: first-choice hit rate (MovieLens-100K) -----------------------------

@requires_ml100k
def test_criterion_06_fchr_is_one_in_practical_range(ml100k):
    rho = density(ml100k.full_view())
    # density-relative points just above rho plus the documented range;
    # the leaf count is monotone in the target (the same deterministic
    # split sequence runs longer), so stop once 20 blocks are exceeded
    grid = sorted({round(rho * mult, 6)
                   for mult in (1.002, 1.005, 1.01, 1.02, 1.05, 1.1, 1.15)}
                  | {0.065, 0.07, 0.075, 0.08, 0.09, 0.1, 0.11, 0.12})
    checked = []
    for target in grid:
        if target <= rho:
            continue
        tree, rounds = balanced_permute(ml100k, target, seed=7)
        k = len(tree.leaves())
        if k > 20:
            break
        if rounds:
            assert fchr(rounds) == 1.0, (target, k, rounds)
            checked.append((target, k))
    assert checked, "no target produced 2..20 blocks"
    _report("06 fchr", f"FCHR=1.0 at {checked}")


# -- criterion 7: small-r advantage (MovieLens-100K) ---------------------------------

@requires_ml100k
def test_criterion_07_small_r_advantage(ml100k):
    # run on ML-100K (the runtime-constrained option); noted in the report
    train0 = __import__("lmf").kfold_split(ml100k, 5, 7).train_matrix(ml100k, 0)
    target, _ = _pick_block_target(train0, want=3, seed=7)
    trees = _fold_trees(ml100k, target)
    gaps = {}
    for r in (5, 60):
        report = run_benchmark({
            "matrix": ml100k, "algorithm": "svd_als", "mode": "both",
            "target_density": target, "trees": trees,
            "folds": 5, "seed": 7, "r": r,
            "reg": 0.065, "max_iters": 60, "convergence_tol": 1e-5,
            "threads": 1,
        })
        gaps[r] = report.extra["baseline_rmse"] - report.extra["lmf_rmse"]
    assert gaps[5] >= gaps[60], gaps
    _report("07 small-r-advantage",
            f"dataset=ML-100K gap(r=5)={gaps[5]:+.4f} >= gap(r=60)={gaps[60]:+.4f}")


# -- criterion 8: density calculus exactness ------------------------------------------

def test_criterion_08_density_calculus_exactness():
    # constructed instance carrying the three reference fractions
    pairs = {
        (0, 0), (0, 3), (1, 1), (1, 4), (2, 2), (3, 0), (3, 2), (4, 1), (4, 4),
        (0, 5), (2, 6), (5, 4), (6, 4), (8, 4), (7, 1), (7, 3),
        (5, 6), (6, 5), (8, 6), (7, 5),
    }
    pairs = sorted(pairs)
    m = RatingMatrix(9, 7, [p[0] for p in pairs], [p[1] for p in pairs],
                     np.ones(len(pairs)))
    shaded = SubmatrixView(m, np.arange(5), np.arange(5))
    assert density(shaded) == 9 / 25
    ctx = m.full_view()
    assert restricted_density(ctx, "col", 4) == 5 / 9
    lower = SubmatrixView(m, np.arange(5, 9), np.arange(5))
    assert restricted_density(lower, "row", 7) == 2 / 5
    _report("08 density-calculus", "9/25, 5/9, 2/5 reproduced exactly")


@requires_ml100k
def test_criterion_08b_ml100k_density(ml100k):
    assert ml100k.shape == (943, 1682)
    assert ml100k.nnz == 100_000
    rho = density(ml100k.full_view())
    assert abs(rho - 0.0630) <= 0.0001
    _report("08b ml100k-density", f"shape 943x1682, nnz 100000, rho={rho:.4f}")


# -- criterion 9: density-promotion monotonicity ---------------------------------------

def test_criterion_09_improve_density_monotonicity():
    rng = np.random.default_rng(909)
    reached = degenerate = promotions = 0
    for trial in range(500):
        nr = int(rng.integers(3, 11))
        nc = int(rng.integers(3, 11))
        mask = rng.random((nr, nc)) < float(rng.uniform(0.1, 0.7))
        mask[rng.integers(nr), rng.integers(nc)] = True
        r, c = np.nonzero(mask)
        m = RatingMatrix(nr, nc, r, c, np.ones(r.size))
        k = int(rng.integers(1, 4))
        row_groups = [g for g in np.array_split(rng.permutation(nr), k)
                      if g.size]
        col_groups = [g for g in np.array_split(rng.permutation(nc),
                                                len(row_groups)) if g.size]
        while len(col_groups) < len(row_groups):
            col_groups.append(np.empty(0, dtype=int))
        views = [SubmatrixView(m, rg, cg)
                 for rg, cg in zip(row_groups, col_groups)]
        pooled_n = sum(v.nnz for v in views)
        pooled_a = sum(v.area for v in views)
        if pooled_a == 0:
            continue
        target = min(1.0, pooled_n / pooled_a + float(rng.uniform(0.05, 0.5)))
        try:
            shrunk, promoted = improve_density(views, target)
        except DegenerateBlockError:
            degenerate += 1
            continue
        # independent replay with plain set arithmetic
        row_sets = [set(v.rows.tolist()) for v in views]
        col_sets = [set(v.cols.tolist()) for v in views]

        def pooled():
            n = a = 0
            for rs, cs in zip(row_sets, col_sets):
                v = SubmatrixView(m, sorted(rs), sorted(cs))
                n += v.nnz
                a += v.area
            return n, a

        n0, a0 = pooled()
        last = n0 / a0
        for bi, ax, g in promoted:
            (row_sets if ax == "row" else col_sets)[bi].discard(g)
            n1, a1 = pooled()
            cur = n1 / a1
            assert cur > last, "promotion did not strictly increase density"
            last = cur
            promotions += 1
        assert last >= target
        reached += 1
    assert reached + degenerate == 500
    _report("09 improve-density-monotonicity",
            f"{reached} reached target, {degenerate} degenerate, "
            f"{promotions} promotions all strictly increasing")


# -- criterion 10: community construction ------------------------------------------------

def _random_communities(rng, n_nodes, k):
    """k communities satisfying: non-empty, each owns an exclusive node."""
    nodes = rng.permutation(n_nodes)
    n_uncovered = int(rng.integers(0, max(1, n_nodes // 6)))
    covered = nodes[n_uncovered:]
    groups = np.array_split(covered, k)
    comms = [set(int(v) for v in g) for g in groups]
    if any(not c for c in comms):
        return None
    anchors = {int(g[0]) for g in groups}
    for i in range(k):
        for v in covered:
            v = int(v)
            if v in anchors or v in comms[i]:
                continue
            if rng.random() < 0.15:
                comms[i].add(v)
    return comms


def test_criterion_10_community_construction():
    rng = np.random.default_rng(1010)
    empties = nonempties = 0
    trial = 0
    while trial < 100:
        nr = int(rng.integers(5, 13))
        nc = int(rng.integers(5, 13))
        k = int(rng.integers(2, 6))
        comms = _random_communities(rng, nr + nc, k)
        if comms is None:
            continue
        mask = rng.random((nr, nc)) < float(rng.uniform(0.15, 0.45))
        mask[rng.integers(nr), rng.integers(nc)] = True
        r, c = np.nonzero(mask)

        # exclusive node sets per the symmetric definition
        excl = []
        for i in range(k):
            others = set().union(*(comms[j] for j in range(k) if j != i))
            excl.append(comms[i] - others)
        node_excl = {}
        for i, e in enumerate(excl):
            for v in e:
                node_excl[v] = i

        if trial % 2 == 0:
            # scrub cross-exclusive entries so an exact reordering exists
            keep = []
            for t in range(r.size):
                a = node_excl.get(int(r[t]))
                b = node_excl.get(int(c[t]) + nr)
                keep.append(a is None or b is None or a == b)
            keep = np.array(keep, dtype=bool)
            if not keep.any():
                continue
            r, c = r[keep], c[keep]
        m = RatingMatrix(nr, nc, r, c, np.ones(r.size))

        tree = community_tree(m, comms)
        check_tree(tree, m)  # valid approximate reordering
        assert len(tree.leaves()) == k

        expected_cross = set()
        for i2, j2 in zip(m.rows.tolist(), m.cols.tolist()):
            a = node_excl.get(i2)
            b = node_excl.get(j2 + nr)
            if a is not None and b is not None and a != b:
                expected_cross.add((i2, j2))
        dropped = set(map(tuple, tree.dropped_entries().tolist()))
        assert dropped == expected_cross
        assert (len(dropped) == 0) == (len(expected_cross) == 0)
        if dropped:
            nonempties += 1
        else:
            empties += 1
        trial += 1
    assert empties > 0 and nonempties > 0
    _report("10 community-construction",
            f"100 assignments valid; dropped==cross-exclusive edges "
            f"({empties} exact, {nonempties} approximate)")


# -- synthetic companions (supporting evidence for the dataset-gated criteria) ----------

def _biased_planted(rng, sizes, dens):
    rows, cols, vals = [], [], []
    ro = co = 0
    mus = [1.8, 3.0, 4.2]
    for b, (nr, nc) in enumerate(sizes):
        for i in range(nr):
            for j in range(nc):
                if rng.random() < dens:
                    rows.append(ro + i)
                    cols.append(co + j)
                    vals.append(float(np.clip(round(rng.normal(mus[b % 3], 0.9)),
                                              1, 5)))
        ro += nr
        co += nc
    for t in range(4):
        i = ro + t
        co2 = 0
        for (nr, nc) in sizes:
            for j in rng.choice(nc, 3, replace=False):
                rows.append(i)
                cols.append(co2 + int(j))
                vals.append(3.0)
            co2 += nc
    return RatingMatrix(ro + 4, co, rows, cols, vals)


def test_companion_lmf_direction_on_planted_communities():
    """Synthetic stand-in for the dataset-gated improvement criterion:
    with the planted k=3 recovered, per-block factorization beats the
    whole-matrix baseline."""
    rng = np.random.default_rng(3)
    m = _biased_planted(rng, [(40, 50), (40, 50), (40, 50)], 0.25)
    gaps = {}
    for r in (2, 10):
        report = run_benchmark({
            "matrix": m, "algorithm": "svd_als", "mode": "both",
            "target_density": 0.11, "folds": 3, "seed": 1, "r": r,
            "reg": 0.05, "max_iters": 30, "threads": 1,
        })
        assert report.block_stats["blocks"] == [3, 3, 3]
        gaps[r] = report.extra["baseline_rmse"] - report.extra["lmf_rmse"]
        assert gaps[r] > 0, gaps
    assert gaps[2] >= gaps[10]  # small-r advantage, synthetic analogue
    _report("companion lmf-direction",
            f"planted k=3: gap(r=2)={gaps[2]:+.4f}, gap(r=10)={gaps[10]:+.4f}")


def test_companion_oversplitting_degrades_accuracy():
    """Pushing the target density far past the planted structure shreds
    the matrix into many tiny blocks and costs accuracy, so the target is
    a real tradeoff, not a free knob."""
    rng = np.random.default_rng(3)
    m = _biased_planted(rng, [(40, 50), (40, 50), (40, 50)], 0.25)
    scores = {}
    for target in (0.11, 0.2):
        report = run_benchmark({
            "matrix": m, "algorithm": "svd_als", "mode": "lmf",
            "target_density": target, "folds": 3, "seed": 1, "r": 10,
            "reg": 0.05, "max_iters": 30, "threads": 1,
        })
        scores[target] = (report.rmse, max(report.block_stats["blocks"]))
    assert scores[0.2][1] > scores[0.11][1]      # more blocks
    assert scores[0.2][0] > scores[0.11][0]      # worse accuracy
    _report("companion oversplitting",
            f"k={scores[0.11][1]} rmse={scores[0.11][0]:.4f} vs "
            f"k={scores[0.2][1]} rmse={scores[0.2][0]:.4f}")


def test_companion_fchr_one_on_equal_communities():
    rng = np.random.default_rng(6)
    from conftest import block_diag_matrix

    m = block_diag_matrix(rng, [(20, 24)] * 8, density=0.3)
    tree, rounds = balanced_permute(m, 0.29, seed=0)
    assert len(tree.leaves()) >= 4
    assert fchr(rounds) == 1.0
    _report("companion fchr", f"{len(tree.leaves())} blocks, FCHR=1.0")


def test_companion_speedup_structure_without_timing():
    """The timing half of the speedup criterion needs >= 2 cores; the
    structural half (8 balanced blocks, same totals, valid model) runs
    everywhere."""
    m, tree = _speedup_matrix()
    assert m.nnz == 100_000
    blocks = [SubmatrixView(m, leaf.rows, leaf.cols)
              for leaf in tree.leaves()]
    assert len(blocks) == 8
    assert {b.nnz for b in blocks} == {12_500}
    check_tree(tree, m)
    spec = FactorizerSpec(algorithm="svd_als", r=8, reg=0.05, max_iters=3,
                          convergence_tol=1e-15, seed=1)
    model = lmf_fit(tree, m, spec, threads=1)
    assert model.n_blocks == 8
    _report("companion speedup-structure", "8 balanced 12.5k-entry blocks fit")
