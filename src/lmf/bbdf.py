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
from numbers import Real

import numpy as np

from .errors import (
    ConfigError,
    DegenerateBlockError,
    NoSplitError,
    ShapeError,
    TooSmallError,
    read_json,
    require_keys,
)
from .factorize import _is_number
from .matrix import IndexPermutation, RatingMatrix, SubmatrixView, _positions
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
        if matrix is not None:  # its shape and labels; the tree keeps no link
            n_rows, n_cols = matrix.shape
            row_ids, col_ids = list(matrix.row_labels), list(matrix.col_labels)
        self.root = root
        self.mode = mode
        self.seed = seed
        self.target_density = target_density
        self.n_rows, self.n_cols = n_rows, n_cols
        self.row_ids, self.col_ids = row_ids, col_ids
        self.rounds = rounds

    def leaves(self):
        return [node for node in self.nodes() if node.is_leaf]

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
        require_keys(doc, _TREE_KEYS, "tree")
        return cls._decode(doc)

    @classmethod
    def _decode(cls, doc):
        """The tree a parsed ``tree.json`` describes; raises
        :class:`ShapeError` unless every index lies in range, the labels
        of each axis are distinct scalars, the root holds every row and
        column, and at each inner node the children and the borders split
        the node's rows and columns."""
        n_rows, n_cols = doc["n_rows"], doc["n_cols"]
        if not all(isinstance(n, int) and not isinstance(n, bool) and n >= 0
                   for n in (n_rows, n_cols)):
            raise ShapeError(f"tree 'n_rows' and 'n_cols' must be counts, "
                             f"found {n_rows!r} and {n_cols!r}")
        for key, n in (("row_ids", n_rows), ("col_ids", n_cols)):
            ids = doc.get(key)
            if ids is not None and not (isinstance(ids, list)
                                        and len(ids) == n and _distinct(ids)):
                raise ShapeError(f"tree '{key}' must list {n} distinct "
                                 "scalar labels")
        if not isinstance(doc.get("rounds", []), list):
            raise ShapeError("tree 'rounds' must be a list")

        def decode(obj, path):
            where = f"tree node {list(path)}"
            require_keys(obj, _NODE_KEYS, where)
            if not isinstance(obj["children"], list):
                raise ShapeError(f"{where}: 'children' is not a list")
            node = BBDFNode(_index_array(obj["rows"], (n_rows,), where),
                            _index_array(obj["cols"], (n_cols,), where),
                            path=path)
            node.row_border = _index_array(obj["row_border"], (n_rows,), where)
            node.col_border = _index_array(obj["col_border"], (n_cols,), where)
            node.dropped = _index_array(obj["dropped"], (n_rows, n_cols), where)
            node.children = [decode(c, path + (i,))
                             for i, c in enumerate(obj["children"])]
            if node.children and not (_splits(node, "rows", "row_border")
                                      and _splits(node, "cols", "col_border")):
                raise ShapeError(f"{where}: children and borders do not "
                                 "split the node's rows and columns")
            return node

        root = decode(doc["root"], ())
        if not (root.rows.size == n_rows and root.cols.size == n_cols
                and np.array_equal(np.sort(root.rows), np.arange(n_rows))
                and np.array_equal(np.sort(root.cols), np.arange(n_cols))):
            raise ShapeError("tree root must govern the full index ranges")
        return cls(root, doc["mode"], doc["seed"], doc["target_density"],
                   n_rows=n_rows, n_cols=n_cols, row_ids=doc.get("row_ids"),
                   col_ids=doc.get("col_ids"), rounds=doc.get("rounds"))

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path):
        doc = read_json(path, _TREE_KEYS)
        try:
            return cls._decode(doc)
        except ShapeError as exc:
            raise ShapeError(f"{path}: {exc}") from None


_TREE_KEYS = ("root", "mode", "seed", "target_density", "n_rows", "n_cols")
_NODE_KEYS = ("rows", "cols", "row_border", "col_border", "dropped",
              "children")


def _index_array(value, bounds, where):
    """A JSON list of indices (one bound) or of ``(row, col)`` pairs (two
    bounds) as an int64 array, every index ``k`` of a pair inside
    ``[0, bounds[k])``; anything else raises :class:`ShapeError`."""
    shape = (0,) if len(bounds) == 1 else (0, len(bounds))
    if value == []:
        return np.empty(shape, dtype=np.int64)
    try:
        arr = np.asarray(value) if isinstance(value, list) else None
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in "iu" or \
            arr.shape[1:] != shape[1:] or arr.ndim != len(shape):
        raise ShapeError(f"{where}: {value!r:.60} is not a list of "
                         f"{'indices' if len(bounds) == 1 else 'index pairs'}")
    arr = arr.astype(np.int64)
    if (arr < 0).any() or (arr >= np.asarray(bounds)).any():
        raise ShapeError(f"{where}: index out of range")
    return arr


def _distinct(labels):
    """Whether ``labels`` are hashable and pairwise unequal, so that a dict
    maps each one back to its position."""
    try:
        return len(set(labels)) == len(labels)
    except TypeError:  # a list or an object as a label
        return False


def _splits(node, own, border):
    """Whether the children and the ``border`` of ``node`` hold every index
    of its duplicate-free ``own`` set once and nothing else."""
    cat = np.concatenate([getattr(ch, own) for ch in node.children]
                         + [getattr(node, border)])
    return np.array_equal(np.sort(cat), np.sort(getattr(node, own)))


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
    eidx = view.entry_indices()
    g = BipartiteGraph.from_entries(
        view.rows.size, view.cols.size,
        _positions(view.rows, m.n_rows)[m.rows[eidx]],
        _positions(view.cols, m.n_cols)[m.cols[eidx]])
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


def _cross_entries(parts, m, eidx):
    """The entries ``eidx`` of ``m`` whose row and column lie in two
    different ``parts``, as ``(row, col)`` pairs."""
    rowtag, coltag = _child_tags(parts, m.n_rows, m.n_cols)
    er, ec = m.rows[eidx], m.cols[eidx]
    tr, tc = rowtag[er], coltag[ec]
    cross = (tr >= 0) & (tc >= 0) & (tr != tc)
    return np.stack([er[cross], ec[cross]], axis=1)


def basic_bbdf_step(view, seed=0):
    """One vertex-separator step: the separator's R-nodes become the row
    border and its C-nodes the column border; each part becomes a child.

    Returns ``(child_views, (row_border, col_border), pooled_density)``
    where the pooled density is taken over the child blocks.
    """
    try:
        g, _ = _view_graph(view)
        part = gpvs_bisect(g, seed=seed)
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
    """Promotion bookkeeping for one block, per axis (rows, then columns):
    the global indices, which of them are still in the block, their entry
    counts inside it, the global-to-local position map, and how many are
    still in it."""

    __slots__ = ("idx", "alive", "cnt", "pos", "n")

    def __init__(self, view):
        m = view.matrix
        eidx = view.entry_indices()
        self.idx = (view.rows, view.cols)
        self.alive = tuple(np.ones(ix.size, dtype=bool) for ix in self.idx)
        self.pos = (_positions(view.rows, m.n_rows),
                    _positions(view.cols, m.n_cols))
        self.cnt = tuple(
            np.bincount(pos[ends[eidx]], minlength=ix.size).astype(np.int64)
            for pos, ends, ix in zip(self.pos, (m.rows, m.cols), self.idx))
        self.n = [int(ix.size) for ix in self.idx]

    def remove(self, axis, k, m):
        """Take vector ``k`` of ``axis`` out of the block, update the other
        axis's counts, and return its entry count inside the block."""
        other = 1 - axis
        self.alive[axis][k] = False
        self.n[axis] -= 1
        inside = self.pos[other][(m.row_cols, m.col_rows)[axis](
            self.idx[axis][k])]
        inside = inside[inside >= 0]
        inside = inside[self.alive[other][inside]]
        np.subtract.at(self.cnt[other], inside, 1)
        return int(self.cnt[axis][k])


_BIG = np.iinfo(np.int64).max


def improve_density(children, target):
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
    N = sum(int(st.cnt[0].sum()) for st in states)
    S = sum(st.n[0] * st.n[1] for st in states)
    promoted = []

    while S > 0 and N / S < target:
        cur = N / S
        best = None  # (value, block_idx, axis, position)
        for bi, st in enumerate(states):
            if not (st.n[0] and st.n[1]):
                continue
            for axis in (0, 1):  # rows first, so a tie keeps the row
                area = st.n[1 - axis]  # what removing one vector frees
                if S - area > 0:
                    masked = np.where(st.alive[axis], st.cnt[axis], _BIG)
                    k = int(np.argmin(masked))
                    val = (N - masked[k]) / (S - area)
                    if val > cur and (best is None or val > best[0]):
                        best = (val, bi, axis, k)
        if best is None:
            raise DegenerateBlockError(
                "no single vector removal raises the pooled density")
        _, bi, axis, k = best
        st = states[bi]
        S -= st.n[1 - axis]
        N -= st.remove(axis, k, m)
        promoted.append((bi, ("row", "col")[axis], int(st.idx[axis][k])))

    return [SubmatrixView(m, *(ix[alive] for ix, alive
                               in zip(st.idx, st.alive)))
            for st in states], promoted


# -- exact and approximate mode --------------------------------------------------

def _validate_target(target):
    if not (_is_number(target, Real) and 0.0 < target <= 1.0):
        raise ConfigError(f"target density must be a number in (0, 1], got "
                          f"{target!r}")


def _recursive_permute(m, mode, target_density, seed, split):
    """The tree that splits every node of ``m`` below ``target_density``
    by ``split(view, node_seed, rho)``, which returns ``(children,
    row_border, col_border, dropped)``, or None to keep the node a leaf;
    ``rho`` is the node's own density."""
    _validate_target(target_density)

    def build(view, path):
        node = BBDFNode(view.rows, view.cols, path=path)
        if view.area == 0:
            return node
        rho = view.nnz / view.area
        if rho >= target_density:
            return node
        step = split(view, _derive_seed(seed, path), rho)
        if step is None:
            return node
        children, node.row_border, node.col_border, node.dropped = step
        node.children = [build(ch, path + (i,))
                         for i, ch in enumerate(children)]
        return node

    return BBDFTree(build(m.full_view(), ()), mode, seed, target_density,
                    matrix=m)


def bbdf_permute(m, target_density, seed=0):
    """Exact-mode recursive reordering (no entry is ever dropped).

    Recursion at a node stops when its density reaches the target, when
    no vertex separator exists, or when splitting would not raise the
    pooled child density above the node's own density; such nodes simply
    stay single sparse leaves.
    """

    def split(view, node_seed, rho):
        try:
            children, (rb, cb), pooled = basic_bbdf_step(view, node_seed)
        except NoSplitError:
            return None
        if not pooled > rho:
            return None
        return children, rb, cb, np.empty((0, 2), dtype=np.int64)

    return _recursive_permute(m, "bbdf", target_density, seed, split)


def abbdf_permute(m, target_density, seed=0):
    """Approximate-mode reordering: edge cuts plus density promotion.

    Each recursion bisects by edge separator, records the cut entries that
    still straddle two blocks as dropped scatter, and promotes low-density
    vectors to the borders until the pooled block density reaches the
    target. A node where promotion cannot make progress is kept as a
    sparse leaf.
    """

    def split(view, node_seed, rho):
        try:
            g, eidx = _view_graph(view)
            epart = gpes_bisect(g, seed=node_seed)
        except TooSmallError:
            return None
        raw_children = _order_views([SubmatrixView(m, *_split_nodes(view, p))
                                     for p in epart.parts])
        try:
            shrunk, promoted = improve_density(raw_children, target_density)
        except DegenerateBlockError:
            return None
        rb = np.array(sorted(g for _, ax, g in promoted if ax == "row"),
                      dtype=np.int64)
        cb = np.array(sorted(g for _, ax, g in promoted if ax == "col"),
                      dtype=np.int64)
        # entries now straddling two blocks (neither endpoint promoted)
        return shrunk, rb, cb, _cross_entries(shrunk, m, eidx)

    return _recursive_permute(m, "abbdf", target_density, seed, split)


# -- balanced mode ---------------------------------------------------------------

def balanced_permute(m, target_density, seed=0, on_round=None):
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
    # per leaf: (node, its assembled block's entry indices, row and col counts)
    leaves = [(root, np.arange(m.nnz, dtype=np.int64), m.n_rows, m.n_cols)]
    splits = {}  # node.path -> (row border, col border, child leaves) or None
    rounds = []

    def split(leaf):
        node, eidx, nr, nc = leaf
        if node.path not in splits:
            try:
                children, (rb, cb), _ = basic_bbdf_step(
                    SubmatrixView(m, node.rows, node.cols),
                    _derive_seed(seed, node.path))
            except NoSplitError:
                splits[node.path] = None
                return None
            # a child's block loses the entries in the other child's rows
            # or columns
            rowtag, coltag = _child_tags(children, m.n_rows, m.n_cols)
            tr, tc = rowtag[m.rows[eidx]], coltag[m.cols[eidx]]
            splits[node.path] = rb, cb, [
                (BBDFNode(ch.rows, ch.cols, path=node.path + (ci,)),
                 eidx[(tr != 1 - ci) & (tc != 1 - ci)],
                 nr - other.rows.size, nc - other.cols.size)
                for ci, (ch, other) in enumerate(zip(children, children[::-1]))]
        return splits[node.path]

    while True:
        S = sum(nr * nc for _, _, nr, nc in leaves)
        N = sum(eidx.size for _, eidx, _, _ in leaves)
        if S == 0 or N / S >= target_density:
            break
        order = sorted(range(len(leaves)),
                       key=lambda k: (-leaves[k][0].block_area, k))
        for pos, k in enumerate(order):
            t = split(leaves[k])
            if t is None:
                continue
            _, eidx, nr, nc = leaves[k]
            a_new = sum(cnr * cnc for _, _, cnr, cnc in t[2])
            n_new = sum(ce.size for _, ce, _, _ in t[2])
            if (N - eidx.size + n_new) / (S - nr * nc + a_new) > N / S:
                break
        else:
            break
        node = leaves[k][0]
        node.row_border, node.col_border, kids = splits.pop(node.path)
        node.children = [kid[0] for kid in kids]
        leaves[k:k + 1] = kids
        rounds.append(pos)
        if on_round is not None:
            on_round(len(leaves))

    tree = BBDFTree(root, "balanced", seed, target_density, matrix=m,
                    rounds=rounds)
    return tree, rounds


# reordering mode -> its ``(m, target_density, seed) -> tree``; the first is
# the default, and only a balanced tree carries ``rounds``
PERMUTE_MODES = {"balanced": lambda *args: balanced_permute(*args)[0],
                 "bbdf": bbdf_permute, "abbdf": abbdf_permute}


def _permute(m, mode, target_density, seed=0):
    if mode not in PERMUTE_MODES:
        raise ConfigError(f"unknown permute mode {mode!r}, not one of "
                          f"{tuple(PERMUTE_MODES)}")
    return PERMUTE_MODES[mode](m, target_density, seed)


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


def _check_matrix(tree, m):
    """Raise :class:`ShapeError` unless ``m`` has the shape of ``tree`` and,
    on each axis the tree labels, the same labels in the same order."""
    if m.shape != (tree.n_rows, tree.n_cols):
        raise ShapeError(f"the matrix is {m.n_rows}x{m.n_cols}, the tree "
                         f"{tree.n_rows}x{tree.n_cols}")
    for axis, labels, ids in (("row", m.row_labels, tree.row_ids),
                              ("col", m.col_labels, tree.col_ids)):
        if ids is not None and labels != ids:
            raise ShapeError(f"the matrix {axis} labels differ from the "
                             "tree's")


def assemble_blocks(tree, m):
    """One assembled block of ``m`` per leaf of ``tree``, over the indices
    of :func:`assembled_indices`. Dropped scatter entries are excluded from
    the assembled entry sets. A matrix that does not fit the tree raises
    :class:`ShapeError`."""
    _check_matrix(tree, m)

    dropped = tree.dropped_entries()
    dkeys = dropped[:, 0] * m.n_cols + dropped[:, 1] if dropped.size else None

    blocks = []
    for leaf, rows, cols in assembled_indices(tree):
        view = SubmatrixView(m, rows, cols)
        eidx = view.entry_indices()
        if dkeys is not None and eidx.size:
            keys = m.rows[eidx] * m.n_cols + m.cols[eidx]
            eidx = eidx[~np.isin(keys, dkeys)]
        local = RatingMatrix(
            rows.size, cols.size,
            _positions(rows, m.n_rows)[m.rows[eidx]],
            _positions(cols, m.n_cols)[m.cols[eidx]], m.vals[eidx],
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
            raise ConfigError(f"community {i} is empty")
        others = set().union(*(communities[j] for j in range(len(communities))
                               if j != i)) if len(communities) > 1 else set()
        if not (c - others):
            raise ConfigError(f"community {i} has no exclusive node")
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

    root.dropped = _cross_entries(root.children, m, slice(None))

    return BBDFTree(root, "abbdf", 0, 1.0, matrix=m)


# -- structural validation ------------------------------------------------------------

def check_tree(tree, m):
    """Assert the structural invariants of a reordering tree.

    Checks, per node: children plus border partition the node's index
    sets; entries joining two different children appear in the node's
    dropped list exactly (and only approximate mode may drop anything).
    Also verifies conservation: leaf-interior + border-touching + dropped
    entry counts add up to the total. Returns the bucket counts.
    """
    _check_matrix(tree, m)

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
