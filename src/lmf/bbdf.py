"""Bordered block-diagonal reordering of sparse rating matrices.

Three reordering strategies over one recursive tree structure:

* ``bbdf_permute``   -- exact mode: vertex separators become borders, a
  split is kept only when it raises the pooled density of the diagonal
  blocks above the node's own density.
* ``abbdf_permute``  -- approximate mode: edge cuts drop a few scatter
  entries, then low-density vectors are promoted to the borders until the
  pooled block density reaches the target.
* ``balanced_permute`` -- recursion gated on the pooled density of the
  *assembled* blocks (block plus all ancestor borders), trying the
  largest block first each round so block sizes stay comparable.

A leaf of the resulting tree, stitched together with every ancestor
border, is the unit that gets factorized independently downstream.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import (
    DegenerateBlockError,
    NoSplitError,
    ShapeError,
    TooSmallError,
)
from .matrix import IndexPermutation, RatingMatrix, SubmatrixView
from .partition import BipartiteGraph, gpes_bisect, gpvs_bisect


def _derive_seed(seed, path):
    ss = np.random.SeedSequence(entropy=int(seed) & 0xFFFFFFFFFFFFFFFF,
                                spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0] & 0x7FFFFFFF)


class BBDFNode:
    """One node of the recursive reordering: an index range, the vectors
    permuted to this level's borders, the child blocks, and any entries
    dropped here (approximate mode only)."""

    __slots__ = ("rows", "cols", "row_border", "col_border",
                 "children", "dropped", "path")

    def __init__(self, rows, cols, path=()):
        self.rows = np.asarray(rows, dtype=np.int64)
        self.cols = np.asarray(cols, dtype=np.int64)
        self.row_border = np.empty(0, dtype=np.int64)
        self.col_border = np.empty(0, dtype=np.int64)
        self.children = []
        self.dropped = np.empty((0, 2), dtype=np.int64)
        self.path = path

    @property
    def is_leaf(self):
        return not self.children

    @property
    def block_area(self):
        return int(self.rows.size) * int(self.cols.size)

    def __repr__(self):
        kind = "leaf" if self.is_leaf else f"{len(self.children)} children"
        return (f"BBDFNode({self.rows.size}x{self.cols.size}, {kind}, "
                f"border={self.row_border.size}+{self.col_border.size})")


class BBDFTree:
    """Reordering result: the root node plus provenance metadata.

    ``rounds`` is only set by :func:`balanced_permute`: the position (in
    the size-ordered candidate list) of the block accepted at each round,
    from which the first-choice hit rate is computed.
    """

    def __init__(self, root, mode, seed, target_density, matrix=None,
                 n_rows=None, n_cols=None, row_ids=None, col_ids=None,
                 rounds=None):
        self.root = root
        self.mode = mode
        self.seed = seed
        self.target_density = target_density
        self.matrix = matrix
        self.n_rows = matrix.n_rows if matrix is not None else n_rows
        self.n_cols = matrix.n_cols if matrix is not None else n_cols
        self.row_ids = list(matrix.row_labels) if matrix is not None else row_ids
        self.col_ids = list(matrix.col_labels) if matrix is not None else col_ids
        self.rounds = rounds

    def leaves(self):
        out = []

        def walk(node):
            if node.is_leaf:
                out.append(node)
            else:
                for ch in node.children:
                    walk(ch)

        walk(self.root)
        return out

    def nodes(self):
        out = []

        def walk(node):
            out.append(node)
            for ch in node.children:
                walk(ch)

        walk(self.root)
        return out

    def dropped_entries(self):
        parts = [n.dropped for n in self.nodes() if n.dropped.size]
        if not parts:
            return np.empty((0, 2), dtype=np.int64)
        return np.concatenate(parts, axis=0)

    # -- serialization ------------------------------------------------------

    def to_json(self):
        def encode(node):
            return {
                "rows": node.rows.tolist(),
                "cols": node.cols.tolist(),
                "row_border": node.row_border.tolist(),
                "col_border": node.col_border.tolist(),
                "dropped": node.dropped.tolist(),
                "children": [encode(ch) for ch in node.children],
            }

        doc = {
            "mode": self.mode,
            "seed": self.seed,
            "target_density": self.target_density,
            "n_rows": self.n_rows,
            "n_cols": self.n_cols,
            "row_ids": self.row_ids,
            "col_ids": self.col_ids,
            "root": encode(self.root),
        }
        if self.rounds is not None:
            doc["rounds"] = list(self.rounds)
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)

        def decode(obj, path):
            node = BBDFNode(obj["rows"], obj["cols"], path=path)
            node.row_border = np.asarray(obj["row_border"], dtype=np.int64)
            node.col_border = np.asarray(obj["col_border"], dtype=np.int64)
            dropped = np.asarray(obj["dropped"], dtype=np.int64)
            node.dropped = dropped.reshape(-1, 2)
            node.children = [decode(c, path + (i,))
                             for i, c in enumerate(obj["children"])]
            return node

        tree = cls(
            decode(doc["root"], ()),
            doc["mode"], doc["seed"], doc["target_density"],
            n_rows=doc["n_rows"], n_cols=doc["n_cols"],
            row_ids=doc.get("row_ids"), col_ids=doc.get("col_ids"),
            rounds=doc.get("rounds"),
        )
        if sorted(tree.root.rows.tolist()) != list(range(tree.n_rows)) or \
                sorted(tree.root.cols.tolist()) != list(range(tree.n_cols)):
            raise ShapeError("tree root must govern the full index ranges")
        return tree

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


class AssembledBlock:
    """A leaf block stitched with every ancestor border: the submatrix that
    is factorized on its own. Keeps global index lists (leaf indices first,
    then borders bottom-up) plus a dense-local copy of the entries."""

    __slots__ = ("rows", "cols", "matrix", "origin")

    def __init__(self, rows, cols, matrix, origin):
        self.rows = rows
        self.cols = cols
        self.matrix = matrix  # local RatingMatrix re-indexed to this block
        self.origin = origin

    @property
    def area(self):
        return int(self.rows.size) * int(self.cols.size)

    @property
    def nnz(self):
        return self.matrix.nnz

    @property
    def density(self):
        return self.nnz / self.area if self.area else 0.0

    def __repr__(self):
        return (f"AssembledBlock({self.rows.size}x{self.cols.size}, "
                f"nnz={self.nnz})")


# -- single reordering step ---------------------------------------------------

def _view_graph(view):
    m = view.matrix
    rmap = np.full(m.n_rows, -1, dtype=np.int64)
    cmap = np.full(m.n_cols, -1, dtype=np.int64)
    rmap[view.rows] = np.arange(view.rows.size)
    cmap[view.cols] = np.arange(view.cols.size)
    eidx = view.entry_indices()
    g = BipartiteGraph.from_entries(
        view.rows.size, view.cols.size,
        rmap[m.rows[eidx]], cmap[m.cols[eidx]])
    return g, eidx


def _split_nodes(view, local_nodes):
    """Map local bipartite node ids back to global (rows, cols) arrays."""
    nr = view.rows.size
    local_nodes = np.sort(np.asarray(local_nodes, dtype=np.int64))
    r = local_nodes[local_nodes < nr]
    c = local_nodes[local_nodes >= nr] - nr
    return view.rows[r], view.cols[c]


def _order_views(views):
    """Largest block first: descending entry count, stable on ties."""
    keyed = sorted(enumerate(views), key=lambda kv: (-kv[1].nnz, kv[0]))
    return [v for _, v in keyed]


def _child_tags(parts, n_rows, n_cols):
    """Per global row and column, the position in ``parts`` of the part
    holding it, or -1 where no part does (a border, or outside them all)."""
    rowtag = np.full(n_rows, -1, dtype=np.int64)
    coltag = np.full(n_cols, -1, dtype=np.int64)
    for k, part in enumerate(parts):
        rowtag[part.rows] = k
        coltag[part.cols] = k
    return rowtag, coltag


def basic_bbdf_step(view, seed=0, balance_tol=0.2):
    """One vertex-separator step: the separator's R-nodes become the row
    border and its C-nodes the column border; each part becomes a child.

    Returns ``(child_views, (row_border, col_border), pooled_density)``
    where the pooled density is taken over the child blocks.
    """
    try:
        g, _ = _view_graph(view)
        part = gpvs_bisect(g, balance_tol, seed)
    except TooSmallError as exc:
        raise NoSplitError(str(exc)) from exc
    row_border, col_border = _split_nodes(view, part.separator)
    children = []
    for p in part.parts:
        r, c = _split_nodes(view, p)
        children.append(SubmatrixView(view.matrix, r, c))
    children = _order_views(children)
    total_area = sum(ch.area for ch in children)
    if total_area == 0:
        raise NoSplitError("split produced only zero-area blocks")
    pooled = sum(ch.nnz for ch in children) / total_area
    return children, (row_border, col_border), pooled


# -- density promotion --------------------------------------------------------

class _BlockState:
    """Mutable row/column bookkeeping for one block during promotion."""

    __slots__ = ("rows", "cols", "row_alive", "col_alive", "row_cnt",
                 "col_cnt", "rpos", "cpos", "n_alive_rows", "n_alive_cols")

    def __init__(self, view):
        m = view.matrix
        self.rows = view.rows
        self.cols = view.cols
        self.row_alive = np.ones(self.rows.size, dtype=bool)
        self.col_alive = np.ones(self.cols.size, dtype=bool)
        self.rpos = np.full(m.n_rows, -1, dtype=np.int64)
        self.cpos = np.full(m.n_cols, -1, dtype=np.int64)
        self.rpos[self.rows] = np.arange(self.rows.size)
        self.cpos[self.cols] = np.arange(self.cols.size)
        eidx = view.entry_indices()
        self.row_cnt = np.bincount(self.rpos[m.rows[eidx]],
                                   minlength=self.rows.size).astype(np.int64)
        self.col_cnt = np.bincount(self.cpos[m.cols[eidx]],
                                   minlength=self.cols.size).astype(np.int64)
        self.n_alive_rows = int(self.rows.size)
        self.n_alive_cols = int(self.cols.size)

    @property
    def nnz(self):
        return int(self.row_cnt[self.row_alive].sum())

    @property
    def area(self):
        return self.n_alive_rows * self.n_alive_cols

    def remove_row(self, k, m):
        cnt = int(self.row_cnt[k])
        self.row_alive[k] = False
        self.n_alive_rows -= 1
        g = self.rows[k]
        inside = self.cpos[m.row_cols(g)]
        inside = inside[inside >= 0]
        inside = inside[self.col_alive[inside]]
        np.subtract.at(self.col_cnt, inside, 1)
        return cnt

    def remove_col(self, k, m):
        cnt = int(self.col_cnt[k])
        self.col_alive[k] = False
        self.n_alive_cols -= 1
        g = self.cols[k]
        inside = self.rpos[m.col_rows(g)]
        inside = inside[inside >= 0]
        inside = inside[self.row_alive[inside]]
        np.subtract.at(self.row_cnt, inside, 1)
        return cnt

    def alive_view(self, m):
        return SubmatrixView(m, self.rows[self.row_alive],
                             self.cols[self.col_alive])


_BIG = np.iinfo(np.int64).max


def improve_density(children, target, seed=0):
    """Promote vectors out of the blocks until their pooled density reaches
    ``target``.

    At each step the vector whose removal maximizes the pooled density of
    what remains is moved to the border. For a fixed block and axis that
    is always the vector with the fewest entries inside the block, so only
    one candidate per (block, axis) needs comparing. Every promotion must
    strictly increase the pooled density; if none can while the target is
    unmet, :class:`DegenerateBlockError` is raised.

    Returns ``(shrunk_views, promoted)`` where ``promoted`` lists
    ``(block_index, axis, global_index)`` in promotion order.
    """
    children = list(children)
    if not children:
        raise DegenerateBlockError("no blocks to promote from")
    m = children[0].matrix
    states = [_BlockState(v) for v in children]
    N = sum(s.nnz for s in states)
    S = sum(s.area for s in states)
    promoted = []

    while S > 0 and N / S < target:
        cur = N / S
        best = None  # (value, block_idx, axis, position)
        for bi, st in enumerate(states):
            if st.n_alive_rows and st.n_alive_cols:
                s_row = st.n_alive_cols
                if S - s_row > 0:
                    masked = np.where(st.row_alive, st.row_cnt, _BIG)
                    k = int(np.argmin(masked))
                    val = (N - masked[k]) / (S - s_row)
                    if val > cur and (best is None or val > best[0]):
                        best = (val, bi, "row", k)
                s_col = st.n_alive_rows
                if S - s_col > 0:
                    masked = np.where(st.col_alive, st.col_cnt, _BIG)
                    k = int(np.argmin(masked))
                    val = (N - masked[k]) / (S - s_col)
                    if val > cur and (best is None or val > best[0]):
                        best = (val, bi, "col", k)
        if best is None:
            raise DegenerateBlockError(
                "no single vector removal raises the pooled density")
        _, bi, axis, k = best
        st = states[bi]
        if axis == "row":
            S -= st.n_alive_cols
            N -= st.remove_row(k, m)
            promoted.append((bi, "row", int(st.rows[k])))
        else:
            S -= st.n_alive_rows
            N -= st.remove_col(k, m)
            promoted.append((bi, "col", int(st.cols[k])))

    return [st.alive_view(m) for st in states], promoted


# -- exact mode ----------------------------------------------------------------

def _validate_target(target):
    if not (0.0 < target <= 1.0):
        raise ValueError(f"target density must be in (0, 1], got {target}")


def bbdf_permute(m, target_density, seed=0, balance_tol=0.2):
    """Exact-mode recursive reordering (no entry is ever dropped).

    Recursion at a node stops when its density reaches the target, when
    no vertex separator exists, or when splitting would not raise the
    pooled child density above the node's own density; such nodes simply
    stay single sparse leaves.
    """
    _validate_target(target_density)

    def build(view, path):
        node = BBDFNode(view.rows, view.cols, path=path)
        if view.area == 0:
            return node
        rho_x = view.nnz / view.area
        if rho_x >= target_density:
            return node
        try:
            children, (rb, cb), pooled = basic_bbdf_step(
                view, _derive_seed(seed, path), balance_tol)
        except NoSplitError:
            return node
        if not pooled > rho_x:
            return node
        node.row_border, node.col_border = rb, cb
        node.children = [build(ch, path + (i,))
                         for i, ch in enumerate(children)]
        return node

    root = build(m.full_view(), ())
    return BBDFTree(root, "bbdf", seed, target_density, matrix=m)


# -- approximate mode ----------------------------------------------------------

def abbdf_permute(m, target_density, seed=0, balance_tol=0.2):
    """Approximate-mode reordering: edge cuts plus density promotion.

    Each recursion bisects by edge separator, records the cut entries that
    still straddle two blocks as dropped scatter, and promotes low-density
    vectors to the borders until the pooled block density reaches the
    target. A node where promotion cannot make progress is kept as a
    sparse leaf.
    """
    _validate_target(target_density)

    def build(view, path):
        node = BBDFNode(view.rows, view.cols, path=path)
        if view.area == 0:
            return node
        rho_x = view.nnz / view.area
        if rho_x >= target_density:
            return node
        try:
            g, eidx = _view_graph(view)
            epart = gpes_bisect(g, balance_tol, _derive_seed(seed, path))
        except TooSmallError:
            return node
        raw_children = []
        for p in epart.parts:
            r, c = _split_nodes(view, p)
            raw_children.append(SubmatrixView(m, r, c))
        raw_children = _order_views(raw_children)
        try:
            shrunk, promoted = improve_density(raw_children, target_density)
        except DegenerateBlockError:
            return node

        rb = np.array(sorted(g for _, ax, g in promoted if ax == "row"),
                      dtype=np.int64)
        cb = np.array(sorted(g for _, ax, g in promoted if ax == "col"),
                      dtype=np.int64)

        # entries now straddling two blocks (neither endpoint promoted)
        rowtag, coltag = _child_tags(shrunk, m.n_rows, m.n_cols)
        er, ec = m.rows[eidx], m.cols[eidx]
        tr, tc = rowtag[er], coltag[ec]
        cross = (tr >= 0) & (tc >= 0) & (tr != tc)
        node.dropped = np.stack([er[cross], ec[cross]], axis=1)
        node.row_border, node.col_border = rb, cb
        node.children = [build(ch, path + (i,))
                         for i, ch in enumerate(shrunk)]
        return node

    root = build(m.full_view(), ())
    return BBDFTree(root, "abbdf", seed, target_density, matrix=m)


# -- balanced mode ---------------------------------------------------------------

class _LeafState:
    __slots__ = ("node", "asm_eidx", "asm_nr", "asm_nc", "trial", "tried")

    def __init__(self, node, asm_eidx, asm_nr, asm_nc):
        self.node = node
        self.asm_eidx = asm_eidx
        self.asm_nr = asm_nr
        self.asm_nc = asm_nc
        self.trial = None
        self.tried = False

    @property
    def asm_n(self):
        return int(self.asm_eidx.size)

    @property
    def asm_area(self):
        return self.asm_nr * self.asm_nc


def balanced_permute(m, target_density, seed=0, balance_tol=0.2,
                     on_round=None):
    """Size-balanced reordering gated on assembled-block density.

    Each round sorts the leaf blocks by area (largest first) and accepts
    the first whose two-way split raises the pooled density of the
    assembled blocks; the accepted candidate's position is logged per
    round so the first-choice hit rate can be reported. ``on_round``, when
    given, is called with the current leaf count after every accepted
    round (instrumentation hook).

    Returns ``(tree, rounds)`` where ``rounds[t]`` is the position of the
    block accepted at round ``t`` (0 means the largest was split).
    """
    _validate_target(target_density)
    root = BBDFNode(np.arange(m.n_rows), np.arange(m.n_cols), path=())
    states = [_LeafState(root, np.arange(m.nnz, dtype=np.int64),
                         m.n_rows, m.n_cols)]
    rounds = []

    def trial(st):
        if st.tried:
            return st.trial
        st.tried = True
        node = st.node
        view = SubmatrixView(m, node.rows, node.cols)
        try:
            children, (rb, cb), _ = basic_bbdf_step(
                view, _derive_seed(seed, node.path), balance_tol)
        except NoSplitError:
            st.trial = None
            return None
        child_stats = []
        for ci, ch in enumerate(children):
            other = children[1 - ci]
            omask_r = np.zeros(m.n_rows, dtype=bool)
            omask_c = np.zeros(m.n_cols, dtype=bool)
            omask_r[other.rows] = True
            omask_c[other.cols] = True
            keep = ~(omask_r[m.rows[st.asm_eidx]]
                     | omask_c[m.cols[st.asm_eidx]])
            child_stats.append({
                "eidx": st.asm_eidx[keep],
                "nr": st.asm_nr - other.rows.size,
                "nc": st.asm_nc - other.cols.size,
            })
        st.trial = {"children": children, "rb": rb, "cb": cb,
                    "stats": child_stats}
        return st.trial

    while True:
        S = sum(s.asm_area for s in states)
        N = sum(s.asm_n for s in states)
        if S == 0:
            break
        rho = N / S
        if rho >= target_density:
            break
        order = sorted(range(len(states)),
                       key=lambda k: (-states[k].node.block_area, k))
        accepted = None
        for pos, k in enumerate(order):
            st = states[k]
            t = trial(st)
            if t is None:
                continue
            a_new = sum(cs["nr"] * cs["nc"] for cs in t["stats"])
            n_new = sum(cs["eidx"].size for cs in t["stats"])
            new_rho = (N - st.asm_n + n_new) / (S - st.asm_area + a_new)
            if new_rho > rho:
                accepted = (pos, k, t)
                break
        if accepted is None:
            break
        pos, k, t = accepted
        st = states[k]
        node = st.node
        node.row_border, node.col_border = t["rb"], t["cb"]
        new_states = []
        for ci, (ch, cs) in enumerate(zip(t["children"], t["stats"])):
            child = BBDFNode(ch.rows, ch.cols, path=node.path + (ci,))
            node.children.append(child)
            new_states.append(_LeafState(child, cs["eidx"], cs["nr"], cs["nc"]))
        states = states[:k] + new_states + states[k + 1:]
        rounds.append(pos)
        if on_round is not None:
            on_round(len(states))

    tree = BBDFTree(root, "balanced", seed, target_density, matrix=m,
                    rounds=rounds)
    return tree, rounds


# -- stitching -------------------------------------------------------------------

def assembled_indices(tree):
    """Yield ``(leaf, rows, cols)`` per leaf in tree order: the global
    indices of its assembled block, the leaf's own first, then every
    ancestor border, nearest ancestor first."""

    def walk(node, anc_rows, anc_cols):
        if node.is_leaf:
            yield (node, np.concatenate([node.rows] + anc_rows),
                   np.concatenate([node.cols] + anc_cols))
        else:
            for ch in node.children:
                yield from walk(ch, [node.row_border] + anc_rows,
                                [node.col_border] + anc_cols)

    yield from walk(tree.root, [], [])


def assemble_blocks(tree, m=None):
    """One assembled block per leaf, over the indices of
    :func:`assembled_indices`. Dropped scatter entries are excluded from
    the assembled entry sets."""
    m = m if m is not None else tree.matrix
    if m is None:
        raise ShapeError("tree carries no matrix; pass one explicitly")
    if m.n_rows != tree.n_rows or m.n_cols != tree.n_cols:
        raise ShapeError("matrix dimensions do not match the tree")

    dropped = tree.dropped_entries()
    dkeys = dropped[:, 0] * m.n_cols + dropped[:, 1] if dropped.size else None

    blocks = []
    for leaf, rows, cols in assembled_indices(tree):
        view = SubmatrixView(m, rows, cols)
        eidx = view.entry_indices()
        if dkeys is not None and eidx.size:
            keys = m.rows[eidx] * m.n_cols + m.cols[eidx]
            eidx = eidx[~np.isin(keys, dkeys)]
        rpos = np.full(m.n_rows, -1, dtype=np.int64)
        cpos = np.full(m.n_cols, -1, dtype=np.int64)
        rpos[rows] = np.arange(rows.size)
        cpos[cols] = np.arange(cols.size)
        local = RatingMatrix(
            rows.size, cols.size,
            rpos[m.rows[eidx]], cpos[m.cols[eidx]], m.vals[eidx],
            row_labels=[m.row_labels[i] for i in rows],
            col_labels=[m.col_labels[j] for j in cols],
        )
        blocks.append(AssembledBlock(rows, cols, local, leaf))
    return blocks


# -- permutation extraction --------------------------------------------------------

def permutation_from_tree(tree):
    """Visual ordering of the tree: child blocks first (recursively), then
    this level's borders; returns old-index -> new-position bijections."""

    def order(node, own, border):
        if node.is_leaf:
            return [getattr(node, own)]
        return [part for ch in node.children
                for part in order(ch, own, border)] + [getattr(node, border)]

    def perm(own, border, n):
        p = np.empty(n, dtype=np.int64)
        p[np.concatenate(order(tree.root, own, border))] = np.arange(n)
        return p

    return IndexPermutation(perm("rows", "row_border", tree.n_rows),
                            perm("cols", "col_border", tree.n_cols))


# -- constructive reordering from a community assignment ----------------------------

def community_tree(m, communities):
    """Build the reordering implied by an overlapping community assignment.

    ``communities`` are sets of bipartite node ids (rows ``0..n_rows-1``,
    columns offset by ``n_rows``). Every community must be non-empty and
    own at least one exclusive node. Nodes shared between communities or
    belonging to none are permuted to the root borders; each community's
    exclusive node set becomes one diagonal block. The dropped set is then
    exactly the entries joining two different exclusive sets, and it is
    empty precisely when no such cross-community edges exist.
    """
    communities = [set(c) for c in communities]
    n = m.n_rows + m.n_cols
    for i, c in enumerate(communities):
        if not c:
            raise ValueError(f"community {i} is empty")
        others = set().union(*(communities[j] for j in range(len(communities))
                               if j != i)) if len(communities) > 1 else set()
        if not (c - others):
            raise ValueError(f"community {i} has no exclusive node")
        if any(v < 0 or v >= n for v in c):
            raise ShapeError("community node id out of range")

    covered = set().union(*communities)
    counts = {}
    for c in communities:
        for v in c:
            counts[v] = counts.get(v, 0) + 1
    shared = {v for v, k in counts.items() if k > 1}
    uncovered = set(range(n)) - covered
    border = shared | uncovered

    def split_rc(nodes):
        arr = np.array(sorted(nodes), dtype=np.int64)
        return arr[arr < m.n_rows], arr[arr >= m.n_rows] - m.n_rows

    root = BBDFNode(np.arange(m.n_rows), np.arange(m.n_cols), path=())
    root.row_border, root.col_border = split_rc(border)

    children = []
    for c in communities:
        excl = c - border
        r, cc = split_rc(excl)
        children.append(SubmatrixView(m, r, cc))
    children = _order_views(children)
    for i, ch in enumerate(children):
        root.children.append(BBDFNode(ch.rows, ch.cols, path=(i,)))

    rowtag, coltag = _child_tags(root.children, m.n_rows, m.n_cols)
    tr, tc = rowtag[m.rows], coltag[m.cols]
    cross = (tr >= 0) & (tc >= 0) & (tr != tc)
    root.dropped = np.stack([m.rows[cross], m.cols[cross]], axis=1)

    return BBDFTree(root, "abbdf", 0, 1.0, matrix=m)


# -- structural validation ------------------------------------------------------------

def check_tree(tree, m=None):
    """Assert the structural invariants of a reordering tree.

    Checks, per node: children plus border partition the node's index
    sets; entries joining two different children appear in the node's
    dropped list exactly (and only approximate mode may drop anything).
    Also verifies conservation: leaf-interior + border-touching + dropped
    entry counts add up to the total. Returns the bucket counts.
    """
    m = m if m is not None else tree.matrix
    if m is None:
        raise ShapeError("tree carries no matrix; pass one explicitly")

    def assert_partition(whole, parts, what):
        cat = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        assert np.unique(cat).size == cat.size, f"{what}: overlapping pieces"
        assert set(cat.tolist()) == set(whole.tolist()), f"{what}: not a partition"

    exact = tree.mode in ("bbdf", "balanced")

    def walk(node, eidx):
        if node.is_leaf:
            assert node.dropped.size == 0, "leaf with dropped entries"
            assert node.row_border.size == 0 and node.col_border.size == 0, \
                "leaf with borders"
            return
        assert_partition(node.rows,
                         [c.rows for c in node.children] + [node.row_border],
                         "rows")
        assert_partition(node.cols,
                         [c.cols for c in node.children] + [node.col_border],
                         "cols")
        rowtag, coltag = _child_tags(node.children, m.n_rows, m.n_cols)
        er, ec = m.rows[eidx], m.cols[eidx]
        tr, tc = rowtag[er], coltag[ec]
        cross = (tr >= 0) & (tc >= 0) & (tr != tc)
        crossing = set(zip(er[cross].tolist(), ec[cross].tolist()))
        declared = set(map(tuple, node.dropped.tolist()))
        if exact:
            assert not crossing, "zero-structure violated in exact mode"
            assert not declared, "dropped entries in exact mode"
        else:
            assert crossing == declared, \
                "dropped list does not match cross-child entries"
        for ci, ch in enumerate(node.children):
            inside = (tr == ci) & (tc == ci)
            walk(ch, eidx[inside])

    walk(tree.root, np.arange(m.nnz, dtype=np.int64))

    # conservation over the whole matrix
    dropped = tree.dropped_entries()
    assert np.unique(dropped[:, 0] * m.n_cols + dropped[:, 1]).size == \
        dropped.shape[0], "an entry is dropped twice"
    leaf_rowtag, leaf_coltag = _child_tags(tree.leaves(), m.n_rows, m.n_cols)
    dmask = np.zeros(m.nnz, dtype=bool)
    if dropped.size:
        keys = m.rows * m.n_cols + m.cols
        dmask = np.isin(keys, dropped[:, 0] * m.n_cols + dropped[:, 1])
    tr, tc = leaf_rowtag[m.rows], leaf_coltag[m.cols]
    border_touch = (tr < 0) | (tc < 0)
    n_dropped = int(dmask.sum())
    n_border = int((border_touch & ~dmask).sum())
    interior = ~border_touch & ~dmask
    assert (tr[interior] == tc[interior]).all(), \
        "an undropped entry straddles two leaves"
    n_leaf = int(interior.sum())
    assert n_leaf + n_border + n_dropped == m.nnz, "entry conservation failed"
    return {"leaf": n_leaf, "border": n_border, "dropped": n_dropped,
            "leaves": len(tree.leaves())}
