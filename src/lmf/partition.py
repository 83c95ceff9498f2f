"""Multilevel bipartite graph bisection.

Provides two-way partitioning by edge separator (``gpes_bisect``) and by
vertex separator (``gpvs_bisect``). The scheme is the standard multilevel
one: heavy-edge matching coarsens the graph to a few hundred nodes, a
greedy region-growing pass produces an initial bisection, and boundary
Fiduccia-Mattheyses refinement runs at every uncoarsening level.

The vertex separator is derived from an edge cut: the endpoints of the
cut edges form a bipartite graph whose minimum vertex cover (exact: the
Koenig construction on a ``scipy.sparse.csgraph`` maximum matching)
disconnects the two parts; a greedy pass then returns redundant cover
nodes to the parts.

All tie-breaking is by lowest node index and every random choice flows
from one seeded generator, so a (graph, balance_tol, seed) triple always
yields the same partition regardless of thread count.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import (
    breadth_first_order,
    connected_components,
    maximum_bipartite_matching,
)

from .errors import NoSplitError, TooSmallError

COARSE_TARGET = 200  # stop coarsening once at or below this many nodes
_FM_MAX_PASSES = 12
_FM_STALL = 100  # end an FM pass this many moves after its best prefix
FM_DENSE_DEGREE = 16  # mean degree from which FM's masked argmax beats its heap
_UNSEEN = np.iinfo(np.int64).min  # masked gain of a node not yet eligible
_LOCKED = -2 ** 62  # masked gain of a locked node, far below any real gain
_INIT_TRIES = 4
_BISECT_TRIES = 2


@dataclass
class BipartiteGraph:
    """Row/column bipartite graph of a sparse matrix.

    R-nodes occupy ids ``[0, n_r)``; C-nodes occupy ``[n_r, n_r + n_c)``.
    Edges connect R-nodes to C-nodes only, one per distinct entry, and are
    unweighted; node weights are 1 at the finest level and aggregate under
    coarsening.
    """

    n_r: int
    n_c: int
    edge_r: np.ndarray
    edge_c: np.ndarray  # already offset by n_r
    xadj: np.ndarray = field(repr=False)
    adjncy: np.ndarray = field(repr=False)
    node_weights: np.ndarray = field(repr=False)

    @classmethod
    def from_entries(cls, n_rows, n_cols, rows, cols, node_weights=None):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        n = n_rows + n_cols
        edge_c = cols + n_rows
        src = np.concatenate([rows, edge_c])
        dst = np.concatenate([edge_c, rows])
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        # a repeated entry is one edge: FM's vectorized gain update needs
        # every neighbour once per CSR row
        keep = np.ones(src.size, dtype=bool)
        keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        if not keep.all():
            src, dst = src[keep], dst[keep]
            rows, edge_c = src[src < n_rows], dst[src < n_rows]
        xadj = np.searchsorted(src, np.arange(n + 1))
        if node_weights is None:
            node_weights = np.ones(n, dtype=np.int64)
        return cls(n_rows, n_cols, rows, edge_c, xadj, dst, node_weights)

    @property
    def n_nodes(self):
        return self.n_r + self.n_c

    @property
    def n_edges(self):
        return int(self.edge_r.size)

    def neighbors(self, v):
        return self.adjncy[self.xadj[v]:self.xadj[v + 1]]

    def is_r_node(self, v):
        return v < self.n_r


@dataclass
class EdgePartition:
    """Two-way split by edge separator: disjoint parts plus the cut edges."""

    parts: list
    cut_edges: np.ndarray  # shape (m, 2), node-id pairs (r_node, c_node)


@dataclass
class VertexPartition:
    """Two-way split by vertex separator.

    Deleting ``separator`` disconnects the parts; the separator may be
    empty when the graph is already disconnected.
    """

    parts: list
    separator: np.ndarray


# -- internal multilevel machinery ------------------------------------------

@dataclass
class _Level:
    xadj: np.ndarray
    adjncy: np.ndarray
    adjwgt: np.ndarray
    vwgt: np.ndarray

    @property
    def n(self):
        return self.vwgt.size


def _level_from_graph(g):
    adjwgt = np.ones(g.adjncy.size, dtype=np.int64)
    return _Level(g.xadj.copy(), g.adjncy.copy(), adjwgt,
                  g.node_weights.astype(np.int64, copy=True))


def _part_cap(total_w, max_vw, tol):
    # feasible even for tiny graphs: allow at least one max-weight node of slack
    return max(int(np.ceil((1.0 + tol) * total_w / 2.0)),
               total_w // 2 + int(max_vw))


def _heavy_edge_matching(level, rng):
    n = level.n
    match = np.full(n, -1, dtype=np.int64)
    # visit light nodes first (random within a degree class) so hubs stay
    # free to pair among themselves; helps heavy-tailed graphs a lot
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
                wts = adjwgt[lo:hi][free]
                # heaviest edge first, lowest index on ties
                best = cand[np.lexsort((cand, -wts))[0]]
                match[v] = best
                match[best] = v
                continue
        match[v] = v
    return match


def _contract(level, match):
    n = level.n
    rep = np.minimum(np.arange(n), match)
    _, cmap = np.unique(rep, return_inverse=True)
    nc = int(cmap.max()) + 1
    vwgt_c = np.bincount(cmap, weights=level.vwgt, minlength=nc).astype(np.int64)

    deg = np.diff(level.xadj)
    src = np.repeat(np.arange(n), deg)
    cu = cmap[src]
    cv = cmap[level.adjncy]
    keep = cu != cv
    # CSR sums parallel edges and sorts each row's neighbours
    adj = csr_matrix((level.adjwgt[keep], (cu[keep], cv[keep])), shape=(nc, nc))
    adj.sum_duplicates()
    coarse = _Level(adj.indptr.astype(np.int64), adj.indices.astype(np.int64),
                    adj.data.astype(np.int64), vwgt_c)
    return cmap, coarse


def _cut_value(level, side):
    deg = np.diff(level.xadj)
    src = np.repeat(np.arange(level.n), deg)
    crossing = side[src] != side[level.adjncy]
    return int(level.adjwgt[crossing].sum()) // 2


def _grow_from_seed(level, seed_node, cap, total_w):
    """Greedy region growing: pull the unassigned node best connected to
    part 0 until part 0 holds at least half the weight."""
    n = level.n
    side = np.ones(n, dtype=np.int8)
    conn = np.zeros(n, dtype=np.int64)
    assigned = np.zeros(n, dtype=bool)
    w0 = 0
    target = total_w / 2.0
    cur = seed_node
    while True:
        side[cur] = 0
        assigned[cur] = True
        w0 += int(level.vwgt[cur])
        lo, hi = level.xadj[cur], level.xadj[cur + 1]
        conn[level.adjncy[lo:hi]] += level.adjwgt[lo:hi]
        if w0 >= target or assigned.all():
            break
        cand_conn = np.where(assigned, -1, conn)
        best = int(np.argmax(cand_conn))
        if cand_conn[best] <= 0:
            # frontier exhausted (disconnected graph): lowest unassigned index
            unassigned = np.nonzero(~assigned)[0]
            best = int(unassigned[0])
        if w0 + int(level.vwgt[best]) > cap and w0 > 0:
            break
        cur = best
    return side


def _fm_refine(level, side, tol, max_passes=_FM_MAX_PASSES):
    """Boundary Fiduccia-Mattheyses refinement of ``side``, in place.

    Each move takes the unlocked eligible node of largest gain, lowest
    index on ties; a node is eligible if it is on the boundary when the
    pass starts or a neighbour of it has moved. A pass ends once
    ``_FM_STALL`` consecutive moves set no new best ``(cut, imbalance)``,
    and rolls back to its best prefix. Levels of mean degree at least
    ``FM_DENSE_DEGREE`` pick each move by argmax over a gain vector masked
    where a node is locked or not eligible, and update the neighbours in
    one vectorized step; sparser levels pop a lazy ``(-gain, v)`` heap on
    plain Python ints, which index far faster than numpy scalars. Both
    kernels make the same moves."""
    n = level.n
    xadj, adjncy, adjwgt, vwgt = level.xadj, level.adjncy, level.adjwgt, level.vwgt
    total_w = int(vwgt.sum())
    cap = _part_cap(total_w, vwgt.max() if n else 1, tol)
    xa, vw = xadj.tolist(), vwgt.tolist()
    dense = adjncy.size >= FM_DENSE_DEGREE * n
    if dense:
        w2 = 2 * adjwgt
    else:
        adj, aw = adjncy.tolist(), adjwgt.tolist()

    deg = np.diff(xadj)
    src = np.repeat(np.arange(n), deg)
    wdeg = np.bincount(src, weights=adjwgt, minlength=n)

    for _ in range(max_passes):
        crossing = np.repeat(side, deg) != side[adjncy]
        external = np.bincount(src, weights=adjwgt * crossing, minlength=n)
        gain = (2 * external - wdeg).astype(np.int64)
        cur_cut = best_cut = int(external.sum()) // 2
        w1, n1 = int(vwgt[side == 1].sum()), int(side.sum())
        part_w, part_n = [total_w - w1, w1], [n - n1, n1]
        boundary = np.flatnonzero(external > 0)
        if dense:
            sd = side
            key = np.full(n, _UNSEEN)
            key[boundary] = gain[boundary]
        else:
            sd, gain = side.tolist(), gain.tolist()
            locked = [False] * n
            heap = [(-gain[v], v) for v in boundary.tolist()]
            heapq.heapify(heap)
        moves = []
        best_k, best_imb = 0, abs(part_w[0] - part_w[1])

        while (dense or heap) and len(moves) - best_k < _FM_STALL:
            if dense:
                v = int(key.argmax())
                g = int(key[v])
                if g < _LOCKED // 2:
                    break
                gain[v] = key[v] = _LOCKED
            else:
                ng, v = heapq.heappop(heap)
                if locked[v] or -ng != gain[v]:
                    continue
                g = -ng
                locked[v] = True
            s = int(sd[v])
            t = 1 - s
            if part_n[s] <= 1 or part_w[t] + vw[v] > cap:
                continue
            sd[v] = t
            part_w[s] -= vw[v]
            part_w[t] += vw[v]
            part_n[s] -= 1
            part_n[t] += 1
            cur_cut -= g
            moves.append(v)
            lo, hi = xa[v], xa[v + 1]
            if dense:
                # no CSR row repeats a neighbour, so the scatter is exact
                nb = adjncy[lo:hi]
                step = np.where(sd[nb] == s, w2[lo:hi], -w2[lo:hi])
                key[nb] = gain[nb] = gain[nb] + step
            else:
                for e in range(lo, hi):
                    u = adj[e]
                    if locked[u]:
                        continue
                    gain[u] += 2 * aw[e] if sd[u] == s else -2 * aw[e]
                    heapq.heappush(heap, (-gain[u], u))
            imb = abs(part_w[0] - part_w[1])
            if cur_cut < best_cut or (cur_cut == best_cut and imb < best_imb):
                best_cut, best_k, best_imb = cur_cut, len(moves), imb

        side[:] = sd
        undo = moves[best_k:]
        side[undo] = 1 - side[undo]
        if best_k == 0:
            break
    return side


def _initial_bisection(level, tol, rng):
    n = level.n
    total_w = int(level.vwgt.sum())
    cap = _part_cap(total_w, int(level.vwgt.max()), tol)
    tries = min(_INIT_TRIES, n)
    picks = list(rng.choice(n, size=tries, replace=False))
    # heavy-tailed graphs grow much better regions from a hub than from a
    # low-degree tail node, so always try the heaviest node and node 0
    picks.append(int(np.argmax(np.diff(level.xadj))))
    picks.append(0)
    seeds, seen = [], set()
    for s in picks:
        if int(s) not in seen:
            seen.add(int(s))
            seeds.append(int(s))
    best = None
    for s in seeds:
        side = _grow_from_seed(level, int(s), cap, total_w)
        if (side == 0).all() or (side == 1).all():
            continue
        side = _fm_refine(level, side, tol)
        cut = _cut_value(level, side)
        imb = abs(int(level.vwgt[side == 0].sum()) - int(level.vwgt[side == 1].sum()))
        key = (cut, imb)
        if best is None or key < best[0]:
            best = (key, side.copy())
    if best is None:
        # every growth swallowed the graph; fall back to lowest-index split
        side = np.ones(n, dtype=np.int8)
        side[0] = 0
        return side
    return best[1]


def _bisect_once(level0, tol, rng):
    levels = [level0]
    cmaps = []
    while levels[-1].n > COARSE_TARGET:
        cmap, coarse = _contract(levels[-1], _heavy_edge_matching(levels[-1], rng))
        if coarse.n >= 0.95 * levels[-1].n:
            break
        levels.append(coarse)
        cmaps.append(cmap)
    side = _initial_bisection(levels[-1], tol, rng)
    for level, cmap in zip(reversed(levels[:-1]), reversed(cmaps)):
        side = side[cmap]
        side = _fm_refine(level, side, tol)
    return side


def _bisect_nodes(level0, tol, seed):
    """Multilevel two-way split of an internal level graph; returns sides.

    Runs a couple of independent multilevel attempts (coarsening is
    randomized) and keeps the smallest cut, ties broken by balance."""
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(_BISECT_TRIES):
        side = _bisect_once(level0, tol, rng)
        cut = _cut_value(level0, side)
        imb = abs(int(level0.vwgt[side == 0].sum())
                  - int(level0.vwgt[side == 1].sum()))
        key = (cut, imb)
        if best is None or key < best[0]:
            best = (key, side)
    return best[1]


# -- verification helpers -----------------------------------------------------

def _component_labels(n_nodes, edge_u, edge_v, node_keep=None, edge_keep=None):
    if edge_keep is not None:
        edge_u, edge_v = edge_u[edge_keep], edge_v[edge_keep]
    if node_keep is not None:
        ok = node_keep[edge_u] & node_keep[edge_v]
        edge_u, edge_v = edge_u[ok], edge_v[ok]
    data = np.ones(edge_u.size, dtype=np.int8)
    adj = csr_matrix((data, (edge_u, edge_v)), shape=(n_nodes, n_nodes))
    _, labels = connected_components(adj, directed=False)
    return labels


def _groups_are_pure(labels, tags, keep=None):
    """True when every label group carries a single tag value."""
    if keep is not None:
        labels, tags = labels[keep], tags[keep]
    if labels.size == 0:
        return True
    uniq, first = np.unique(labels, return_index=True)
    inv = np.searchsorted(uniq, labels)
    return bool((tags == tags[first][inv]).all())


def _verify_edge_partition(g, part):
    side = np.full(g.n_nodes, -1, dtype=np.int64)
    for k, p in enumerate(part.parts):
        assert p.size > 0, "empty part"
        assert (side[p] == -1).all(), "parts overlap"
        side[p] = k
    assert (side >= 0).all(), "parts do not cover all nodes"
    crossing = side[g.edge_r] != side[g.edge_c]
    expect = np.stack([g.edge_r[crossing], g.edge_c[crossing]], axis=1) \
        if crossing.any() else np.empty((0, 2), dtype=np.int64)
    got = part.cut_edges
    assert got.shape == expect.shape, "cut_edges != crossing edges"
    if got.size:
        eo = np.lexsort((expect[:, 1], expect[:, 0]))
        go = np.lexsort((got[:, 1], got[:, 0]))
        assert np.array_equal(expect[eo], got[go]), "cut_edges != crossing edges"
    labels = _component_labels(g.n_nodes, g.edge_r, g.edge_c, edge_keep=~crossing)
    assert _groups_are_pure(labels, side), "a component spans two parts"


def _verify_vertex_partition(g, part):
    tag = np.full(g.n_nodes, -1, dtype=np.int64)
    for k, p in enumerate(part.parts):
        assert p.size > 0, "empty part"
        assert (tag[p] == -1).all(), "parts overlap"
        tag[p] = k
    assert (tag[part.separator] == -1).all(), "separator intersects a part"
    tag[part.separator] = -2
    assert (tag != -1).all(), "parts + separator must cover all nodes"
    keep = tag != -2
    labels = _component_labels(g.n_nodes, g.edge_r, g.edge_c, node_keep=keep)
    assert _groups_are_pure(labels, tag, keep=keep), "a component spans two parts"


# -- minimum vertex cover -----------------------------------------------------

def _min_vertex_cover(B):
    """Minimum vertex cover of the bipartite graph with biadjacency ``B``.

    Koenig construction: the cover is the rows not reached, plus the
    columns reached, by alternating paths from the rows a maximum matching
    leaves unmatched. The reached set is the same for every maximum
    matching (Dulmage-Mendelsohn), so the cover does not depend on the one
    scipy finds. Returns boolean masks over the rows and the columns."""
    n_l, n_r = B.shape
    row_col = maximum_bipartite_matching(B, perm_type="column")
    matched = np.flatnonzero(row_col >= 0)
    # alternating digraph over rows, then columns, then a source: source ->
    # each unmatched row, row -> each of its columns, matched column -> its row
    src = n_l + n_r
    B = B.tocoo()
    u = np.concatenate([np.full(n_l - matched.size, src), B.row,
                        n_l + row_col[matched]])
    v = np.concatenate([np.flatnonzero(row_col < 0), n_l + B.col, matched])
    alt = csr_matrix((np.ones(u.size), (u, v)), shape=(src + 1, src + 1))
    reached = np.zeros(src + 1, dtype=bool)
    reached[breadth_first_order(alt, src, return_predecessors=False)] = True
    return ~reached[:n_l], reached[n_l:src]


# -- public bisection operations ----------------------------------------------

def gpes_bisect(g, balance_tol=0.2, seed=0):
    """Two-way edge-separator split of a bipartite graph.

    Parts are balanced within ``balance_tol`` of total node weight;
    ``cut_edges`` is exactly the set of edges joining the two parts.
    """
    if g.n_nodes < 2:
        raise TooSmallError("cannot bisect a graph with fewer than 2 nodes")
    side = _bisect_nodes(_level_from_graph(g), balance_tol, seed)
    parts = [np.nonzero(side == 0)[0], np.nonzero(side == 1)[0]]
    crossing = side[g.edge_r] != side[g.edge_c]
    cut_edges = np.stack([g.edge_r[crossing], g.edge_c[crossing]], axis=1) \
        if crossing.any() else np.empty((0, 2), dtype=np.int64)
    part = EdgePartition(parts, cut_edges)
    if __debug__:
        _verify_edge_partition(g, part)
    return part


def gpvs_bisect(g, balance_tol=0.2, seed=0):
    """Two-way vertex-separator split of a bipartite graph.

    The separator is a minimum vertex cover of the cut edges of an edge
    bisection, shrunk by returning nodes whose remaining neighbors all lie
    in a single part. Raises :class:`NoSplitError` when every cover choice
    empties one side.
    """
    if g.n_nodes < 2:
        raise TooSmallError("cannot bisect a graph with fewer than 2 nodes")
    side = _bisect_nodes(_level_from_graph(g), balance_tol, seed)
    crossing = side[g.edge_r] != side[g.edge_c]
    cut_r, cut_c = g.edge_r[crossing], g.edge_c[crossing]

    sep_mask = np.zeros(g.n_nodes, dtype=bool)
    if cut_r.size:
        # cut endpoints on side 0 become the left side of the cover problem
        left_is_r = side[cut_r] == 0
        left_nodes = np.where(left_is_r, cut_r, cut_c)
        right_nodes = np.where(left_is_r, cut_c, cut_r)
        uniq_l, l_idx = np.unique(left_nodes, return_inverse=True)
        uniq_r, r_idx = np.unique(right_nodes, return_inverse=True)
        B = csr_matrix((np.ones(l_idx.size), (l_idx, r_idx)),
                       shape=(uniq_l.size, uniq_r.size))
        cover_l, cover_r = _min_vertex_cover(B)
        sep_mask[uniq_l[cover_l]] = True
        sep_mask[uniq_r[cover_r]] = True

    tag = np.where(sep_mask, -2, side.astype(np.int64))
    for k in (0, 1):
        if not (tag == k).any():
            raise NoSplitError("every vertex separator empties one part")

    _refine_separator(g, tag)

    parts = [np.nonzero(tag == 0)[0], np.nonzero(tag == 1)[0]]
    separator = np.nonzero(tag == -2)[0]
    part = VertexPartition(parts, separator)
    if __debug__:
        _verify_vertex_partition(g, part)
    return part


def _refine_separator(g, tag):
    """Shrink a vertex separator in place by greedy node moves.

    Moving separator node v into part p forces v's neighbors from the
    other part into the separator; the move is applied only when it
    strictly reduces total separator weight (isolated separator nodes go
    to the lighter part). Separator weight decreases monotonically, so
    the fixpoint loop terminates; scan order is ascending node id for
    determinism.
    """
    vw = g.node_weights
    changed = True
    while changed:
        changed = False
        for v in np.nonzero(tag == -2)[0]:
            nbrs = g.neighbors(v)
            nbr_tags = tag[nbrs]
            in0 = nbrs[nbr_tags == 0]
            in1 = nbrs[nbr_tags == 1]
            if in0.size == 0 and in1.size == 0:
                w0 = int(vw[tag == 0].sum())
                w1 = int(vw[tag == 1].sum())
                tag[v] = 0 if w0 <= w1 else 1
                changed = True
                continue
            gain0 = int(vw[v]) - int(vw[in1].sum())  # pull in1 into the separator
            gain1 = int(vw[v]) - int(vw[in0].sum())
            best_p, best_gain = (0, gain0) if gain0 >= gain1 else (1, gain1)
            if best_gain <= 0:
                continue
            pulled = in1 if best_p == 0 else in0
            other = 1 - best_p
            # keep both parts non-empty
            if pulled.size and (tag == other).sum() <= pulled.size:
                continue
            tag[v] = best_p
            tag[pulled] = -2
            changed = True
