import hashlib
import heapq
import itertools
import json

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

import lmf.bbdf
from lmf import (abbdf_permute, balanced_permute, bbdf_permute, check_tree,
                 gpes_bisect, gpvs_bisect, partition, to_bipartite)
from lmf.errors import NoSplitError, TooSmallError
from lmf.partition import (
    BipartiteGraph,
    EdgePartition,
    VertexPartition,
    _contract,
    _cut_value,
    _heavy_edge_matching,
    _level_from_graph,
    _min_vertex_cover,
    _part_cap,
)

from conftest import figure_bridge_matrix, ml_shaped, planted_blocks


def graph(n_r, n_c, pairs):
    return BipartiteGraph.from_entries(
        n_r, n_c, [p[0] for p in pairs], [p[1] for p in pairs])


def components_without(edges, nodes, removed=frozenset()):
    """Brute-force component search after deleting ``removed`` nodes."""
    alive = [v for v in nodes if v not in removed]
    adj = {v: set() for v in alive}
    for u, v in edges:
        if u in adj and v in adj:
            adj[u].add(v)
            adj[v].add(u)
    seen, comps = set(), []
    for v in alive:
        if v in seen:
            continue
        stack, comp = [v], set()
        while stack:
            x = stack.pop()
            if x in comp:
                continue
            comp.add(x)
            stack.extend(adj[x] - comp)
        seen |= comp
        comps.append(comp)
    return comps


def brute_min_cut_2way(edges, nodes, max_imbalance):
    """Minimum cut over all 2-partitions within the imbalance budget."""
    nodes = sorted(nodes)
    best = None
    for r in range(1, len(nodes)):
        for part0 in itertools.combinations(nodes, r):
            p0 = set(part0)
            if abs(len(p0) - (len(nodes) - len(p0))) > max_imbalance:
                continue
            cut = sum(1 for u, v in edges if (u in p0) != (v in p0))
            if best is None or cut < best:
                best = cut
    return best


def brute_min_separator_size(edges, nodes):
    """Smallest vertex set whose removal leaves >= 2 components, or None."""
    nodes = sorted(nodes)
    for size in range(0, len(nodes) - 1):
        for sep in itertools.combinations(nodes, size):
            comps = components_without(edges, nodes, frozenset(sep))
            if len(comps) >= 2:
                return size, set(sep)
    return None


# -- edge separator -----------------------------------------------------------------

def test_gpes_two_disjoint_edges():
    g = graph(2, 2, [(0, 0), (1, 1)])
    part = gpes_bisect(g, 0.2, seed=0)
    assert part.cut_edges.shape[0] == 0
    assert sorted(len(p) for p in part.parts) == [2, 2]


def test_gpes_path_minimum_cut():
    # R0 - C0 - R1: brute force says the best balanced 2-cut severs one edge
    edges = [(0, 2), (1, 2)]
    assert brute_min_cut_2way(edges, [0, 1, 2], max_imbalance=1) == 1
    g = graph(2, 1, [(0, 0), (1, 0)])
    part = gpes_bisect(g, 0.2, seed=0)
    assert part.cut_edges.shape[0] == 1
    sizes = sorted(p.size for p in part.parts)
    assert sizes == [1, 2]


def test_gpes_figure_matrix_severs_the_cross_entries():
    m = figure_bridge_matrix()
    part = gpes_bisect(to_bipartite(m), 0.2, seed=0)
    cut = {tuple(e) for e in part.cut_edges.tolist()}
    # cross-community entries: R4/R9 shopping in B, C7 bought from B
    # (node ids: row i -> i, col j -> 10 + j)
    assert cut == {(3, 17), (3, 19), (8, 14), (8, 15), (7, 16), (9, 16)}


def test_gpes_too_small():
    g = graph(1, 0, [])
    with pytest.raises(TooSmallError):
        gpes_bisect(g, 0.2, seed=0)


def test_gpes_determinism():
    rng = np.random.default_rng(0)
    pairs = {(int(rng.integers(12)), int(rng.integers(15))) for _ in range(90)}
    g = graph(12, 15, sorted(pairs))
    a = gpes_bisect(g, 0.2, seed=5)
    b = gpes_bisect(g, 0.2, seed=5)
    assert [p.tolist() for p in a.parts] == [p.tolist() for p in b.parts]
    assert a.cut_edges.tolist() == b.cut_edges.tolist()


# -- vertex separator ------------------------------------------------------------------

def test_gpvs_star():
    # brute force: {R0} is the unique minimum separator of the 2-star
    edges = [(0, 1), (0, 2)]
    size, sep = brute_min_separator_size(edges, [0, 1, 2])
    assert size == 1 and sep == {0}
    g = graph(1, 2, [(0, 0), (0, 1)])
    part = gpvs_bisect(g, 0.2, seed=0)
    assert part.separator.tolist() == [0]
    assert sorted(sorted(p.tolist()) for p in part.parts) == [[1], [2]]


def test_gpvs_two_disjoint_edges():
    g = graph(2, 2, [(0, 0), (1, 1)])
    part = gpvs_bisect(g, 0.2, seed=0)
    assert part.separator.size == 0
    assert sorted(len(p) for p in part.parts) == [2, 2]


def test_gpvs_figure_matrix_finds_bridge_separator():
    m = figure_bridge_matrix()
    g = to_bipartite(m)
    # the engineered instance has {R4, R9, C7} (ids 3, 8, 16) as its unique
    # minimum separator: every cross path runs through one of them twice
    edges = list(zip(g.edge_r.tolist(), g.edge_c.tolist()))
    size, sep = brute_min_separator_size(edges, range(20))
    assert size == 3 and sep == {3, 8, 16}
    for seed in range(3):
        part = gpvs_bisect(g, 0.2, seed=seed)
        assert sorted(part.separator.tolist()) == [3, 8, 16]


def test_gpvs_dense_3x3_cannot_split():
    # brute force over all vertex subsets: nothing of size < 3 disconnects
    # K33, and every size-3 separator that does is an entire side, which
    # leaves every matrix entry inside the border
    edges = [(i, 3 + j) for i in range(3) for j in range(3)]
    for size in range(3):
        for sep in itertools.combinations(range(6), size):
            assert len(components_without(edges, range(6), frozenset(sep))) < 2
    for sep in itertools.combinations(range(6), 3):
        if len(components_without(edges, range(6), frozenset(sep))) >= 2:
            assert set(sep) in ({0, 1, 2}, {3, 4, 5})
    g = graph(3, 3, [(i, j) for i in range(3) for j in range(3)])
    for seed in range(4):
        with pytest.raises(NoSplitError):
            gpvs_bisect(g, 0.2, seed=seed)


def test_gpvs_single_edge_no_split():
    g = graph(1, 1, [(0, 0)])
    with pytest.raises(NoSplitError):
        gpvs_bisect(g, 0.2, seed=0)


def test_gpvs_separator_minimal_wrt_single_moves():
    rng = np.random.default_rng(7)
    for trial in range(25):
        nr, nc = int(rng.integers(4, 10)), int(rng.integers(4, 10))
        pairs = {(int(rng.integers(nr)), int(rng.integers(nc)))
                 for _ in range(int(rng.integers(8, 40)))}
        g = graph(nr, nc, sorted(pairs))
        try:
            part = gpvs_bisect(g, 0.3, seed=trial)
        except (NoSplitError, TooSmallError):
            continue
        tag = np.full(g.n_nodes, -1)
        for k, p in enumerate(part.parts):
            tag[p] = k
        for v in part.separator:
            nbr_tags = {int(tag[u]) for u in g.neighbors(v) if tag[u] >= 0}
            # moving v back into a part must reconnect the two parts
            assert len(nbr_tags) >= 2


def test_gpvs_soundness_random():
    rng = np.random.default_rng(123)
    for trial in range(60):
        nr, nc = int(rng.integers(2, 14)), int(rng.integers(2, 14))
        pairs = {(int(rng.integers(nr)), int(rng.integers(nc)))
                 for _ in range(int(rng.integers(2, 60)))}
        g = graph(nr, nc, sorted(pairs))
        try:
            part = gpvs_bisect(g, 0.25, seed=trial)
        except (NoSplitError, TooSmallError):
            continue
        edges = list(zip(g.edge_r.tolist(), g.edge_c.tolist()))
        comps = components_without(edges, range(g.n_nodes),
                                   frozenset(part.separator.tolist()))
        part_of = {}
        for k, p in enumerate(part.parts):
            for v in p.tolist():
                part_of[v] = k
        for comp in comps:
            assert len({part_of[v] for v in comp}) == 1
        assert all(p.size > 0 for p in part.parts)


def test_gpvs_determinism_across_calls():
    m = figure_bridge_matrix()
    g = to_bipartite(m)
    runs = [gpvs_bisect(g, 0.2, seed=9) for _ in range(3)]
    for r in runs[1:]:
        assert r.separator.tolist() == runs[0].separator.tolist()
        assert [p.tolist() for p in r.parts] == [p.tolist() for p in runs[0].parts]


def _random_biadjacency(rng):
    nl, nr = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    edges = sorted({(int(rng.integers(nl)), int(rng.integers(nr)))
                    for _ in range(int(rng.integers(1, 14)))})
    u, v = np.array(edges).T
    return csr_matrix((np.ones(u.size), (u, v)), shape=(nl, nr)), edges


def test_min_vertex_cover_is_minimum():
    """The matching-based cover used to derive separators must be a true
    vertex cover of minimum size (brute-force oracle on small graphs)."""
    rng = np.random.default_rng(77)
    for trial in range(60):
        B, edges = _random_biadjacency(rng)
        nl, nr = B.shape
        cover_l, cover_r = _min_vertex_cover(B)
        assert cover_l.dtype == bool and cover_l.shape == (nl,)
        assert cover_r.dtype == bool and cover_r.shape == (nr,)
        assert all(cover_l[u] or cover_r[v] for u, v in edges), "not a cover"
        # brute force the minimum cover size over all node subsets
        best = nl + nr
        for mask in range(1 << (nl + nr)):
            ls = {u for u in range(nl) if mask & (1 << u)}
            rs = {v for v in range(nr) if mask & (1 << (nl + v))}
            if len(ls) + len(rs) >= best:
                continue
            if all(u in ls or v in rs for u, v in edges):
                best = len(ls) + len(rs)
        assert int(cover_l.sum() + cover_r.sum()) == best
        # matching size equals cover size (Koenig)
        match = maximum_bipartite_matching(B, perm_type="column")
        assert int((match >= 0).sum()) == best


def test_min_vertex_cover_does_not_depend_on_the_matching():
    """Permuting rows and columns makes the matcher find other maximum
    matchings; mapped back, the cover stays the same."""
    rng = np.random.default_rng(78)
    other_matchings = 0
    for trial in range(60):
        B, _ = _random_biadjacency(rng)
        pr, pc = rng.permutation(B.shape[0]), rng.permutation(B.shape[1])
        Bp = csr_matrix(B[pr][:, pc])
        cover_l, cover_r = _min_vertex_cover(B)
        perm_l, perm_r = _min_vertex_cover(Bp)
        assert np.array_equal(perm_l, cover_l[pr])
        assert np.array_equal(perm_r, cover_r[pc])
        match = maximum_bipartite_matching(B, perm_type="column")
        match_p = maximum_bipartite_matching(Bp, perm_type="column")
        back = np.full_like(match, -1)
        back[pr] = np.where(match_p >= 0, pc[match_p], -1)
        other_matchings += not np.array_equal(back, match)
    assert other_matchings > 0


def test_contract_equals_dense_oracle():
    """Contraction is C'AC with the diagonal zeroed, C the fine-to-coarse
    indicator, stored as sorted int64 CSR; includes a matching that leaves
    no edges."""
    rng = np.random.default_rng(79)
    cases = []
    for _ in range(20):
        nr, nc = int(rng.integers(2, 30)), int(rng.integers(2, 30))
        pairs = {(int(rng.integers(nr)), int(rng.integers(nc)))
                 for _ in range(int(rng.integers(1, 3 * (nr + nc))))}
        fine = _level_from_graph(graph(nr, nc, sorted(pairs)))
        cases.append((fine, _heavy_edge_matching(fine, rng)))
        # a second level carries edge and node weights
        _, coarse = _contract(fine, cases[-1][1])
        cases.append((coarse, _heavy_edge_matching(coarse, rng)))
    one_edge = _level_from_graph(graph(1, 1, [(0, 0)]))
    cases.append((one_edge, np.array([1, 0])))
    for level, match in cases:
        got = _assert_contract_is_dense_product(level, match)
    assert got.n == 1 and got.adjncy.size == 0


def _assert_contract_is_dense_product(level, match):
    cmap, got = _contract(level, match)
    n, nc = level.n, int(cmap.max()) + 1
    A = np.zeros((n, n), dtype=np.int64)
    src = np.repeat(np.arange(n), np.diff(level.xadj))
    A[src, level.adjncy] = level.adjwgt
    C = np.zeros((n, nc), dtype=np.int64)
    C[np.arange(n), cmap] = 1
    want = C.T @ A @ C
    np.fill_diagonal(want, 0)
    rows, cols = np.nonzero(want)
    xadj = np.searchsorted(rows, np.arange(nc + 1))
    for a, b in ((got.xadj, xadj), (got.adjncy, cols),
                 (got.adjwgt, want[rows, cols]), (got.vwgt, C.T @ level.vwgt)):
        assert a.dtype == np.int64 and np.array_equal(a, b)
    return got


def test_contract_of_edge_weights_near_2_to_55_equals_dense_oracle():
    """Weights too heavy to pack beside the pair keys take the contraction
    through its argsort grouping, which must build the same level."""
    rng = np.random.default_rng(55)
    for _ in range(10):
        nr, nc = int(rng.integers(3, 8)), int(rng.integers(3, 8))
        pairs = {(int(rng.integers(nr)), int(rng.integers(nc)))
                 for _ in range(3 * (nr + nc))}
        level = _level_from_graph(graph(nr, nc, sorted(pairs)))
        src = np.repeat(np.arange(level.n), np.diff(level.xadj))
        lo, hi = np.minimum(src, level.adjncy), np.maximum(src, level.adjncy)
        level.adjwgt = 2 ** 55 - (lo * level.n + hi)  # symmetric, distinct
        match = _heavy_edge_matching(level, rng)
        cmap, _ = _contract(level, match)
        kept = level.adjwgt[cmap[src] != cmap[level.adjncy]]
        n_coarse = int(cmap.max()) + 1
        # too few bits are left beside the pair keys to pack the weights
        assert kept.size and \
            (n_coarse * n_coarse) << int(kept.sum()).bit_length() >= 2 ** 63
        _assert_contract_is_dense_product(level, match)


# -- coarsening kernels against their references ---------------------------------------

def _from_entries_reference(n_rows, n_cols, rows, cols):
    """``BipartiteGraph.from_entries`` by ``np.lexsort`` of the node pairs,
    kept as the reference for its one-sort build."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    n = n_rows + n_cols
    edge_c = cols + n_rows
    src = np.concatenate([rows, edge_c])
    dst = np.concatenate([edge_c, rows])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    keep = np.ones(src.size, dtype=bool)
    keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    if not keep.all():
        src, dst = src[keep], dst[keep]
        rows, edge_c = src[src < n_rows], dst[src < n_rows]
    xadj = np.searchsorted(src, np.arange(n + 1))
    return BipartiteGraph(n_rows, n_cols, rows, edge_c, xadj, dst)


def _matching_reference(level, rng):
    """Heavy-edge matching that sorts each node's free neighbours by weight,
    then index, kept as the reference for the argmax pick."""
    n = level.n
    match = np.full(n, -1, dtype=np.int64)
    deg = np.diff(level.xadj)
    visit = np.lexsort((rng.permutation(n), deg))
    xadj, adjncy, adjwgt = level.xadj, level.adjncy, level.adjwgt
    for v in visit:
        if match[v] >= 0:
            continue
        lo, hi = xadj[v], xadj[v + 1]
        nbrs = adjncy[lo:hi]
        if nbrs.size:
            free = match[nbrs] < 0
            if free.any():
                cand = nbrs[free]
                best = cand[np.lexsort((cand, -adjwgt[lo:hi][free]))[0]]
                match[v] = best
                match[best] = v
                continue
        match[v] = v
    return match


def _contract_reference(level, match):
    """Contraction through scipy CSR, which sums parallel edges and sorts
    each row, kept as the reference for the packed-key grouping."""
    n = level.n
    _, cmap = np.unique(np.minimum(np.arange(n), match), return_inverse=True)
    nc = int(cmap.max()) + 1
    cu = cmap[np.repeat(np.arange(n), np.diff(level.xadj))]
    cv = cmap[level.adjncy]
    keep = cu != cv
    adj = csr_matrix((level.adjwgt[keep], (cu[keep], cv[keep])), shape=(nc, nc))
    adj.sum_duplicates()
    vwgt = np.bincount(cmap, weights=level.vwgt, minlength=nc).astype(np.int64)
    return cmap, partition._Level(adj.indptr.astype(np.int64),
                                  adj.indices.astype(np.int64),
                                  adj.data.astype(np.int64), vwgt)


def _assert_same_arrays(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _coarsening_graphs(rng):
    """``(n_rows, n_cols, rows, cols)`` of the ML-shaped matrix and of
    seeded random graphs of more than ``COARSE_TARGET`` nodes, uniform and
    heavy-tailed, with repeated entries."""
    m = ml_shaped(rng)
    graphs = [(m.n_rows, m.n_cols, m.rows, m.cols)]
    for k in range(6):
        nr, nc = int(rng.integers(150, 700)), int(rng.integers(150, 700))
        nnz = int(rng.integers(2, 8)) * (nr + nc)
        if k % 2:
            pr = 1.0 / np.arange(3.0, nr + 3.0)
            pc = 1.0 / np.arange(3.0, nc + 3.0)
            rows = rng.choice(nr, nnz, p=pr / pr.sum())
            cols = rng.choice(nc, nnz, p=pc / pc.sum())
        else:
            rows, cols = rng.integers(0, nr, nnz), rng.integers(0, nc, nnz)
        graphs.append((nr, nc, rows, cols))
    return graphs


def test_from_entries_equals_lexsort_reference():
    rng = np.random.default_rng(2301)
    cases = _coarsening_graphs(rng)
    n_rows, n_cols, rows, cols = cases[0]  # the ML-shaped matrix
    order = rng.permutation(rows.size)
    again = rng.choice(rows.size, 500)
    cases += [(n_rows, n_cols, np.concatenate([rows[order], rows[again]]),
               np.concatenate([cols[order], cols[again]])),
              (3, 2, [], []), (2, 2, [1, 1, 0], [0, 0, 1])]
    for n_rows, n_cols, rows, cols in cases:
        got = BipartiteGraph.from_entries(n_rows, n_cols, rows, cols)
        want = _from_entries_reference(n_rows, n_cols, rows, cols)
        assert (got.n_r, got.n_c) == (want.n_r, want.n_c)
        _assert_same_arrays((got.edge_r, got.edge_c, got.xadj, got.adjncy),
                            (want.edge_r, want.edge_c, want.xadj, want.adjncy))


def test_coarsening_kernels_equal_their_references():
    """On every level that coarsening builds from the ML-shaped graph and
    from seeded random graphs, the matching draws the same rng stream and
    makes the same pairs as the weight-then-index sort, and the contraction
    builds the same level as scipy's CSR."""
    rng = np.random.default_rng(2302)
    n_levels = []
    for g in _coarsening_graphs(rng):
        level = _level_from_graph(BipartiteGraph.from_entries(*g))
        assert level.n > partition.COARSE_TARGET
        n_levels.append(0)
        while level.n > partition.COARSE_TARGET:
            state = rng.bit_generator.state
            match = _heavy_edge_matching(level, rng)
            ref_rng = np.random.default_rng()
            ref_rng.bit_generator.state = state
            assert np.array_equal(match, _matching_reference(level, ref_rng))
            assert ref_rng.bit_generator.state == rng.bit_generator.state
            cmap, coarse = _contract(level, match)
            ref_cmap, ref = _contract_reference(level, match)
            _assert_same_arrays(
                (cmap, coarse.xadj, coarse.adjncy, coarse.adjwgt, coarse.vwgt),
                (ref_cmap, ref.xadj, ref.adjncy, ref.adjwgt, ref.vwgt))
            if coarse.n >= 0.95 * level.n:
                break
            level = coarse
            n_levels[-1] += 1
    assert min(n_levels) >= 1 and n_levels[0] >= 4


def _rows_ascend(level):
    row_start = np.zeros(level.adjncy.size, dtype=bool)
    row_start[level.xadj[:-1][np.diff(level.xadj) > 0]] = True
    return bool(np.all((np.diff(level.adjncy) > 0) | row_start[1:]))


def test_every_level_of_a_multilevel_run_has_ascending_rows(monkeypatch):
    """The matching's tie-break reads each row in ascending order, so every
    level a run builds, the finest included, must list its neighbours so."""
    levels = []
    for name in ("_level_from_graph", "_contract"):
        def recorded(*args, _build=getattr(partition, name)):
            out = _build(*args)
            levels.append(out[1] if isinstance(out, tuple) else out)
            return out
        monkeypatch.setattr(partition, name, recorded)
    rng = np.random.default_rng(2303)
    for g in (to_bipartite(ml_shaped(rng)), to_bipartite(planted_blocks(
            rng, [(90, 110), (100, 80)], 0.1, density_cross=0.01))):
        gpvs_bisect(g, 0.2, seed=1)
    assert len(levels) > 10
    assert all(_rows_ascend(level) for level in levels)


@pytest.mark.parametrize("permute, target, digest, counts", [
    (balanced_permute, 0.3,
     "aed1f3829820091a0695c3c5c78d5aac73ac77d5c8c05df1842db84b0f3f0887",
     {"leaf": 1109, "border": 3860, "dropped": 0, "leaves": 8}),
    (bbdf_permute, 0.2,
     "b95f9eea14113bf9788b33d5f34cf98139d6db7169f895b15555110a791a06c5",
     {"leaf": 849, "border": 4120, "dropped": 0, "leaves": 6}),
    (abbdf_permute, 0.2,
     "1eeb7ef1fb846a5cb3988279a07080cc8bbee7f41f604942499d54ca17374232",
     {"leaf": 3238, "border": 1131, "dropped": 600, "leaves": 3})],
    ids=["balanced", "bbdf", "abbdf"])
def test_permute_trees_are_pinned(permute, target, digest, counts):
    """Each mode's tree on a planted matrix large enough to coarsen, pinned
    by the sha256 of its JSON and its ``check_tree`` counts: a kernel change
    that moves a tree fails here rather than shifting an RMSE."""
    m = planted_blocks(np.random.default_rng(2304),
                       [(70, 90), (80, 70), (60, 80)], 0.25,
                       density_cross=0.02, bridge_rows=5)
    assert m.n_rows + m.n_cols > partition.COARSE_TARGET
    out = permute(m, target, seed=5)
    tree = out[0] if isinstance(out, tuple) else out
    assert hashlib.sha256(tree.to_json().encode()).hexdigest() == digest
    assert check_tree(tree, m) == counts


def test_planted_two_community_recovery():
    """Recovered parts must agree with planted communities on >= 90% of
    nodes over 50 random instances (intra-density 10x inter)."""
    rng = np.random.default_rng(2024)
    total_nodes = 0
    matched_nodes = 0
    for trial in range(50):
        nr, nc = int(rng.integers(12, 20)), int(rng.integers(12, 20))
        half_r, half_c = nr // 2, nc // 2
        pairs = set()
        for i in range(nr):
            for j in range(nc):
                same = (i < half_r) == (j < half_c)
                p = 0.4 if same else 0.04
                if rng.random() < p:
                    pairs.add((i, j))
        g = graph(nr, nc, sorted(pairs))
        planted = np.array([0 if i < half_r else 1 for i in range(nr)]
                           + [0 if j < half_c else 1 for j in range(nc)])
        part = gpes_bisect(g, 0.2, seed=trial)
        side = np.empty(g.n_nodes, dtype=int)
        for k, p in enumerate(part.parts):
            side[p] = k
        agree = int((side == planted).sum())
        agree = max(agree, g.n_nodes - agree)  # label symmetry
        total_nodes += g.n_nodes
        matched_nodes += agree
    assert matched_nodes / total_nodes >= 0.9


# -- FM refinement kernel ---------------------------------------------------------------

def _fm_reference(level, side, tol, max_passes=12):
    """The numpy-scalar FM pass with no stall bound, kept as the reference
    that the plain-int kernel must reproduce when no pass is bounded."""
    n = level.n
    xadj, adjncy, adjwgt, vwgt = level.xadj, level.adjncy, level.adjwgt, level.vwgt
    total_w = int(vwgt.sum())
    cap = _part_cap(total_w, vwgt.max() if n else 1, tol)
    part_w = np.array([int(vwgt[side == 0].sum()), int(vwgt[side == 1].sum())])
    part_n = np.array([int((side == 0).sum()), int((side == 1).sum())])
    deg = np.diff(xadj)
    src = np.repeat(np.arange(n), deg)
    for _ in range(max_passes):
        same = side[src] == side[adjncy]
        internal = np.bincount(src, weights=np.where(same, adjwgt, 0), minlength=n)
        external = np.bincount(src, weights=np.where(same, 0, adjwgt), minlength=n)
        gain = (external - internal).astype(np.int64)
        cut = int(external.sum()) // 2
        locked = np.zeros(n, dtype=bool)
        heap = [(-gain[v], v) for v in range(n) if external[v] > 0]
        heapq.heapify(heap)
        moves = []
        best_cut, best_k = cut, 0
        best_imb = abs(part_w[0] - part_w[1])
        cur_cut = cut
        while heap:
            ng, v = heapq.heappop(heap)
            if locked[v] or -ng != gain[v]:
                continue
            s = side[v]
            t = 1 - s
            if part_n[s] <= 1 or part_w[t] + vwgt[v] > cap:
                locked[v] = True
                continue
            side[v] = t
            locked[v] = True
            part_w[s] -= vwgt[v]
            part_w[t] += vwgt[v]
            part_n[s] -= 1
            part_n[t] += 1
            cur_cut -= int(gain[v])
            moves.append(v)
            lo, hi = xadj[v], xadj[v + 1]
            for u, w in zip(adjncy[lo:hi], adjwgt[lo:hi]):
                if locked[u]:
                    continue
                gain[u] += 2 * w if side[u] == s else -2 * w
                heapq.heappush(heap, (-gain[u], u))
            imb = abs(part_w[0] - part_w[1])
            if cur_cut < best_cut or (cur_cut == best_cut and imb < best_imb):
                best_cut, best_k, best_imb = cur_cut, len(moves), imb
        for v in moves[best_k:]:
            s = side[v]
            side[v] = 1 - s
            part_w[s] -= vwgt[v]
            part_w[1 - s] += vwgt[v]
            part_n[s] -= 1
            part_n[1 - s] += 1
        if best_k == 0:
            break
    return side


def _start_side(rng, level):
    """A random start side whose parts each hold at most half the weight
    plus one node."""
    order = rng.permutation(level.n)
    first = np.cumsum(level.vwgt[order]) <= level.vwgt.sum() / 2
    side = np.ones(level.n, dtype=np.int8)
    side[order[first]] = 0
    side[order[0]] = 0
    return side


def _fm_cases(seed, count):
    """Seeded random sparse levels (unit weights, and one heavy-edge
    contraction of each, which carries node and edge weights), each with a
    random start side."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        nr, nc = int(rng.integers(20, 160)), int(rng.integers(20, 160))
        nnz = int(rng.integers(nr + nc, 4 * (nr + nc)))
        pairs = {(int(rng.integers(nr)), int(rng.integers(nc))) for _ in range(nnz)}
        fine = _level_from_graph(graph(nr, nc, sorted(pairs)))
        for level in (fine, _contract(fine, _heavy_edge_matching(fine, rng))[1]):
            yield level, _start_side(rng, level), float(rng.choice([0.05, 0.2, 0.5]))


def _dense_fm_cases(seed, count):
    """Seeded levels of density 0.2-0.6, most at or above the masked
    kernel's mean degree, and their contractions."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        nr, nc = int(rng.integers(20, 120)), int(rng.integers(20, 120))
        r, c = np.nonzero(rng.random((nr, nc)) < rng.uniform(0.2, 0.6))
        fine = _level_from_graph(graph(nr, nc, list(zip(r, c))))
        for level in (fine, _contract(fine, _heavy_edge_matching(fine, rng))[1]):
            yield level, _start_side(rng, level), float(rng.choice([0.05, 0.2, 0.5]))


def _refine(level, side, tol):
    """``_fm_refine`` on a copy of ``side``: the refined side, once the
    ``(cut, imbalance)`` it returns equals ``_cut_value`` and the weight
    sums of the side it left."""
    out = side.copy()
    cut, imb = partition._fm_refine(level, out, tol)
    w0, w1 = (int(level.vwgt[out == k].sum()) for k in (0, 1))
    assert (cut, imb) == (_cut_value(level, out), abs(w0 - w1))
    return out


def _fm_kernel(monkeypatch, level, side, tol, dense):
    """:func:`_refine` with the heap kernel or the masked one forced."""
    monkeypatch.setattr(partition, "FM_DENSE_DEGREE", 0 if dense else np.inf)
    return _refine(level, side, tol)


def test_fm_refine_equals_numpy_reference_when_unbounded(monkeypatch):
    monkeypatch.setattr(partition, "_FM_STALL", 10 ** 9)
    for level, side, tol in _fm_cases(31, 30):
        want = _fm_reference(level, side.copy(), tol)
        got = _refine(level, side, tol)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_fm_kernels_equal_numpy_reference_when_unbounded(monkeypatch):
    monkeypatch.setattr(partition, "_FM_STALL", 10 ** 9)
    threshold, dense_levels = partition.FM_DENSE_DEGREE, 0
    for level, side, tol in itertools.chain(_dense_fm_cases(37, 12),
                                            _fm_cases(41, 6)):
        want = _fm_reference(level, side.copy(), tol)
        for dense in (False, True):
            got = _fm_kernel(monkeypatch, level, side, tol, dense)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        dense_levels += level.adjncy.size >= threshold * level.n
    assert dense_levels >= 12


@pytest.mark.parametrize("stall", [1, 5, 100])
def test_fm_masked_kernel_equals_heap_kernel(monkeypatch, stall):
    monkeypatch.setattr(partition, "_FM_STALL", stall)
    for level, side, tol in itertools.chain(_dense_fm_cases(53, 15),
                                            _fm_cases(59, 8)):
        heap = _fm_kernel(monkeypatch, level, side, tol, dense=False)
        masked = _fm_kernel(monkeypatch, level, side, tol, dense=True)
        assert masked.dtype == heap.dtype and np.array_equal(masked, heap)


@pytest.mark.parametrize("stall", [1, 5, 100, 10 ** 9])
def test_fm_kernel_choice_at_the_mean_degree_threshold(monkeypatch, stall):
    """Levels a hair below and exactly at ``FM_DENSE_DEGREE``: the heap
    runs only below it, and both sides give the reference's moves."""
    monkeypatch.setattr(partition, "_FM_STALL", stall)
    threshold = partition.FM_DENSE_DEGREE
    pops = []
    real_pop = heapq.heappop
    monkeypatch.setattr(heapq, "heappop", lambda h: pops.append(1) or real_pop(h))
    rng = np.random.default_rng(61)
    for trial in range(16):
        nr, nc = int(rng.integers(30, 60)), int(rng.integers(30, 60))
        at = int(np.ceil(threshold * (nr + nc) / 2))
        nnz = at - 1 if trial % 2 else at
        cells = rng.choice(nr * nc, size=nnz, replace=False)
        level = _level_from_graph(graph(nr, nc, list(zip(*np.divmod(cells, nc)))))
        side, tol = _start_side(rng, level), 0.2
        monkeypatch.setattr(partition, "FM_DENSE_DEGREE", threshold)
        pops.clear()
        got = _refine(level, side, tol)
        assert bool(pops) == bool(trial % 2)
        heap = _fm_kernel(monkeypatch, level, side, tol, dense=False)
        masked = _fm_kernel(monkeypatch, level, side, tol, dense=True)
        for other in (heap, masked):
            assert other.dtype == got.dtype and np.array_equal(other, got)
        if stall == 10 ** 9:
            assert np.array_equal(got, _fm_reference(level, side.copy(), tol))


@pytest.mark.parametrize("stall", [1, 5, 100])
def test_fm_refine_bounded_never_worsens_cut_or_balance(monkeypatch, stall):
    monkeypatch.setattr(partition, "_FM_STALL", stall)
    for level, side, tol in _fm_cases(47, 20):
        before = _cut_value(level, side)
        out = _refine(level, side, tol)
        cap = _part_cap(int(level.vwgt.sum()), level.vwgt.max(), tol)
        assert _cut_value(level, out) <= before
        for k in (0, 1):
            assert (out == k).any()
            assert int(level.vwgt[out == k].sum()) <= cap


def test_initial_bisection_fallback_reports_its_cut_and_imbalance():
    """A heavy isolated node that no seed draws makes every growth swallow
    the graph; the fallback split's ``(cut, imbalance)`` is that of its
    side."""
    level = _level_from_graph(graph(5, 5, [(0, 0), (1, 0), (1, 1), (2, 1),
                                           (2, 2), (3, 2), (3, 3), (4, 3)]))
    level.vwgt[9] = 100
    grown = {}
    key, side = partition._initial_bisection(level, 0.2,
                                             np.random.default_rng(0), grown)
    assert 9 not in grown and set(grown.values()) == {None}
    assert side.tolist() == [0] + [1] * 9
    w0, w1 = (int(level.vwgt[side == k].sum()) for k in (0, 1))
    assert key == (_cut_value(level, side), abs(w0 - w1)) == (1, 107)


def test_fm_kernel_choice_leaves_bisections_and_trees_unchanged(monkeypatch):
    rng = np.random.default_rng(67)
    m = planted_blocks(rng, [(40, 60), (50, 45), (35, 50)], 0.45,
                       density_cross=0.03, bridge_rows=3)
    out = []
    for threshold in (np.inf, 0):
        monkeypatch.setattr(partition, "FM_DENSE_DEGREE", threshold)
        part = gpvs_bisect(to_bipartite(m), 0.2, seed=3)
        tree, _ = balanced_permute(m, 0.6, seed=3)
        out.append(([p.tolist() for p in part.parts], part.separator.tolist(),
                     tree.to_json()))
    assert out[0] == out[1]
    assert len(json.loads(out[0][2])["root"]["children"]) >= 2


def test_uncoarsened_bisection_grows_each_seed_once(monkeypatch):
    """The tries of a bisection whose graph is not coarsened share each seed
    node's grow-and-refine result, and the split equals the one from tries
    that each grow their own."""
    rng = np.random.default_rng(5)
    graphs = [to_bipartite(planted_blocks(rng, [(20, 25), (25, 20)], 0.4,
                                          density_cross=0.05)),
              graph(30, 30, [(int(i), int(j)) for i, j in
                             zip(*np.nonzero(rng.random((30, 30)) < 0.1))])]
    grow, bisect_once = partition._grow_from_seed, partition._bisect_once
    calls = []

    def counted(level, seed_node, cap, total_w):
        calls.append((id(level), seed_node))
        return grow(level, seed_node, cap, total_w)

    def unshared(level0, tol, rng, grown):
        return bisect_once(level0, tol, rng, {})

    monkeypatch.setattr(partition, "_grow_from_seed", counted)
    for g in graphs:
        assert g.n_nodes <= partition.COARSE_TARGET
        for seed in range(4):
            calls.clear()
            shared = gpvs_bisect(g, 0.2, seed=seed)
            assert len(calls) == len(set(calls)) > 0
            with monkeypatch.context() as mp:
                mp.setattr(partition, "_bisect_once", unshared)
                alone = gpvs_bisect(g, 0.2, seed=seed)
            assert len(calls) > len(set(calls))
            assert [p.tolist() for p in shared.parts] == \
                [p.tolist() for p in alone.parts]
            assert shared.separator.tolist() == alone.separator.tolist()


def test_every_partition_made_in_the_tests_is_verified(monkeypatch):
    # conftest.py wraps both bisections wherever the library binds them
    for name in ("gpvs_bisect", "gpes_bisect"):
        assert getattr(lmf, name) is getattr(lmf.bbdf, name) \
            is getattr(partition, name) is globals()[name]
    g = to_bipartite(figure_bridge_matrix())
    assert lmf.bbdf.gpvs_bisect(g).separator.size == 3
    monkeypatch.setattr(partition, "VertexPartition",
                        lambda parts, sep: VertexPartition(parts, sep[:0]))
    with pytest.raises(AssertionError, match="cover all nodes"):
        lmf.bbdf.gpvs_bisect(g)
    assert lmf.bbdf.gpes_bisect(g).cut_edges.size
    monkeypatch.setattr(partition, "EdgePartition",
                        lambda parts, cut: EdgePartition(parts, cut[1:]))
    with pytest.raises(AssertionError, match="cut_edges"):
        lmf.bbdf.gpes_bisect(g)
