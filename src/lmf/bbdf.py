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
from numbers import Integral, Real

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

    Building or loading a tree checks its structure once. It raises
    :class:`ShapeError`, naming the node path, unless the row and column
    counts are non-negative integers, the labels, when given, that many
    distinct hashable values, and the mode one of :data:`PERMUTE_MODES`;
    the root holds every row and column once; each inner node's children
    and borders split its rows and columns; no leaf has borders or dropped
    pairs; an exact-mode tree (``bbdf``, ``balanced``) drops none; and
    each pair an ``abbdf`` node drops lies in range, joins two of its
    children and is listed once. Nodes must not change after the tree is
    built. :func:`check_tree` checks the tree against a matrix.
    """

    def __init__(self, root, mode, seed, target_density, matrix=None,
                 n_rows=None, n_cols=None, row_ids=None, col_ids=None,
                 rounds=None):
        if matrix is not None:  # its shape and labels; the tree keeps no link
            n_rows, n_cols = matrix.shape
            row_ids, col_ids = list(matrix.row_labels), list(matrix.col_labels)
        self.root, self.mode, self.seed = root, mode, seed
        self.target_density, self.rounds = target_density, rounds
        self.n_rows, self.n_cols = n_rows, n_cols
        self.row_ids, self.col_ids = row_ids, col_ids
        self._check_structure()

    def _check_structure(self):
        """The check of the class docstring, in one walk from the root."""
        n_rows, n_cols = self.n_rows, self.n_cols
        if not all(_is_number(n, Integral) and n >= 0
                   for n in (n_rows, n_cols)):
            raise ShapeError(f"tree 'n_rows' and 'n_cols' must be counts, "
                             f"found {n_rows!r} and {n_cols!r}")
        for key, ids, n in (("row_ids", self.row_ids, n_rows),
                            ("col_ids", self.col_ids, n_cols)):
            try:  # distinct labels map back to their positions by a dict
                ok = ids is None or (isinstance(ids, list)
                                     and len(ids) == n == len(set(ids)))
            except TypeError:  # a list or an object as a label
                ok = False
            if not ok:
                raise ShapeError(f"tree '{key}' must list {n} distinct labels")
        if self.mode not in tuple(PERMUTE_MODES):  # a list is no dict key
            raise ShapeError(f"tree mode {self.mode!r} is not one of "
                             f"{tuple(PERMUTE_MODES)}")
        if not _governs(self.root, n_rows, n_cols):
            raise ShapeError("tree node []: the root does not hold every row "
                             "and column once")
        for path, node in self._walk():
            where = f"tree node {list(path)}"
            if node.is_leaf:
                if len(node.row_border) or len(node.col_border) \
                        or len(node.dropped):
                    raise ShapeError(f"{where}: a leaf has borders or dropped "
                                     "entries")
            elif not (_splits(node, "rows", "row_border")
                      and _splits(node, "cols", "col_border")):
                raise ShapeError(f"{where}: children and borders do not split "
                                 "the node's rows and columns")
            elif len(node.dropped):
                self._check_dropped(node, where)

    def _check_dropped(self, node, where):
        """Raise :class:`ShapeError` unless ``node`` is of an abbdf tree and
        drops each pair once, in range and joining two different children."""
        listed, shape = node.dropped, (self.n_rows, self.n_cols)
        if self.mode != "abbdf":
            raise ShapeError(f"{where}: an exact-mode tree drops no entry, "
                             f"but {len(listed)} pairs are listed")
        inside = ((listed >= 0) & (listed < shape)).all(axis=1)
        r, c = np.where(inside[:, None], listed, 0).T
        tr, tc = _entry_tags(node.children, shape, r, c)
        joins = inside & (tr >= 0) & (tc >= 0) & (tr != tc)
        if not joins.all():
            raise ShapeError(f"{where}: dropped pair "
                             f"{listed[~joins][0].tolist()} does not join two "
                             "children")
        keys = np.sort(r * shape[1] + c)
        twice = keys[1:][keys[1:] == keys[:-1]]
        if twice.size:
            raise ShapeError(f"{where}: the dropped list names "
                             f"{list(divmod(int(twice[0]), shape[1]))} twice")

    def _walk(self, node=None, path=()):
        """``(path, node)`` per node in tree order (preorder)."""
        node = node or self.root
        yield path, node
        for k, ch in enumerate(node.children):
            yield from self._walk(ch, path + (k,))

    def leaves(self):
        return [node for node in self.nodes() if node.is_leaf]

    def nodes(self):
        return [node for _, node in self._walk()]

    def dropped_entries(self):
        return np.concatenate([np.empty((0, 2), dtype=np.int64)]
                              + [node.dropped for node in self.nodes()])

    # -- serialization ------------------------------------------------------

    def to_json(self):
        def encode(node):
            obj = {key: getattr(node, key).tolist() for key in _NODE_KEYS[:-1]}
            obj["children"] = [encode(ch) for ch in node.children]
            return obj

        doc = {key: getattr(self, key) for key in (
            "mode", "seed", "target_density", "n_rows", "n_cols", "row_ids",
            "col_ids")}
        doc["root"] = encode(self.root)
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
        """The tree a parsed ``tree.json`` describes; a node without a key
        or with anything but lists of integers raises :class:`ShapeError`,
        as the constructor does for a tree that breaks its structure."""
        if not isinstance(doc.get("rounds", []), list):
            raise ShapeError("tree 'rounds' must be a list")

        def decode(obj, path):
            where = f"tree node {list(path)}"
            require_keys(obj, _NODE_KEYS, where)
            if not isinstance(obj["children"], list):
                raise ShapeError(f"{where}: 'children' is not a list")
            node = BBDFNode((), (), path=path)
            for key in _NODE_KEYS[:-1]:  # the index lists; "dropped" of pairs
                setattr(node, key, _index_array(obj[key], key == "dropped",
                                                where))
            node.children = [decode(c, path + (i,))
                             for i, c in enumerate(obj["children"])]
            return node

        return cls(decode(doc["root"], ()), doc["mode"], doc["seed"],
                   doc["target_density"], n_rows=doc["n_rows"],
                   n_cols=doc["n_cols"], row_ids=doc.get("row_ids"),
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


def _index_array(value, pairs, where):
    """A JSON list of indices, or of ``(row, col)`` pairs if ``pairs``, as
    an int64 array; anything else raises :class:`ShapeError`."""
    shape = (0, 2) if pairs else (0,)
    if value == []:
        return np.empty(shape, dtype=np.int64)
    try:
        arr = np.asarray(value) if isinstance(value, list) else None
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in "iu" or \
            arr.shape[1:] != shape[1:] or arr.ndim != len(shape):
        raise ShapeError(f"{where}: {value!r:.60} is not a list of "
                         f"{'index pairs' if pairs else 'indices'}")
    return arr.astype(np.int64)


def _governs(root, n_rows, n_cols):
    """Whether ``root`` holds every row below ``n_rows`` and every column
    below ``n_cols`` once."""
    return (np.array_equal(np.sort(root.rows), np.arange(n_rows))
            and np.array_equal(np.sort(root.cols), np.arange(n_cols)))


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


def _entry_tags(parts, shape, rows, cols):
    """Per pair ``(rows[t], cols[t])`` of indices below ``shape``, the
    position in ``parts`` of the part holding its row, and of the part
    holding its column; -1 where no part holds it (a border, or outside
    them all)."""
    rowtag = np.full(shape[0], -1, dtype=np.int64)
    coltag = np.full(shape[1], -1, dtype=np.int64)
    for k, part in enumerate(parts):
        rowtag[part.rows] = k
        coltag[part.cols] = k
    return rowtag[rows], coltag[cols]


def _child_blocks(tr, tc, n):
    """Per child ``k`` of ``n``, the mask of the entries of a node's
    assembled block, tagged by :func:`_entry_tags`, that its block holds:
    those whose row and whose column each lie in child ``k`` or in none."""
    return [((tr == k) | (tr < 0)) & ((tc == k) | (tc < 0)) for k in range(n)]


def _cross_entries(parts, m, eidx):
    """The entries ``eidx`` of ``m`` whose row and column lie in two
    different ``parts``, as ``(row, col)`` pairs."""
    tr, tc = _entry_tags(parts, m.shape, m.rows[eidx], m.cols[eidx])
    cross = eidx[(tr >= 0) & (tc >= 0) & (tr != tc)]
    return np.stack([m.rows[cross], m.cols[cross]], axis=1)


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
            keep = _child_blocks(*_entry_tags(
                children, m.shape, m.rows[eidx], m.cols[eidx]), 2)
            splits[node.path] = rb, cb, [
                (BBDFNode(ch.rows, ch.cols, path=node.path + (ci,)),
                 eidx[keep[ci]], nr - other.rows.size, nc - other.cols.size)
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
    of :func:`assembled_indices` and holding the entries :func:`check_tree`'s
    walk gives the leaf; no dropped entry lies in any block. A matrix or a
    tree that fails :func:`check_tree` raises :class:`ShapeError`."""
    leaf_entries, _ = _audit(tree, m)
    blocks = []
    for (leaf, rows, cols), eidx in zip(assembled_indices(tree), leaf_entries):
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
    columns offset by ``n_rows``). There must be at least one, and each
    must be non-empty and own at least one exclusive node (else
    :class:`ConfigError`). Nodes shared between communities or
    belonging to none are permuted to the root borders; each community's
    exclusive node set becomes one diagonal block. The dropped set is then
    exactly the entries joining two different exclusive sets, and it is
    empty precisely when no such cross-community edges exist.
    """
    n = m.n_rows + m.n_cols
    communities = [np.unique(np.fromiter(c, dtype=np.int64))
                   for c in communities]
    if not communities:
        raise ConfigError("no community given")
    for i, c in enumerate(communities):
        if not c.size:
            raise ConfigError(f"community {i} is empty")
        if c[0] < 0 or c[-1] >= n:
            raise ShapeError("community node id out of range")
    count = np.bincount(np.concatenate([np.empty(0, np.int64), *communities]),
                        minlength=n)
    own = [c[count[c] == 1] for c in communities]
    for i, c in enumerate(own):
        if not c.size:
            raise ConfigError(f"community {i} has no exclusive node")

    full = m.full_view()
    root = BBDFNode(np.arange(m.n_rows), np.arange(m.n_cols), path=())
    root.row_border, root.col_border = _split_nodes(full,
                                                    np.flatnonzero(count != 1))
    children = _order_views([SubmatrixView(m, *_split_nodes(full, c))
                             for c in own])
    root.children = [BBDFNode(ch.rows, ch.cols, path=(i,))
                     for i, ch in enumerate(children)]
    root.dropped = _cross_entries(root.children, m, np.arange(m.nnz))

    return BBDFTree(root, "abbdf", 0, 1.0, matrix=m)


# -- structural validation ------------------------------------------------------------

def check_tree(tree, m):
    """Check ``tree`` against ``m`` and count where the entries of ``m``
    go: ``leaf`` (inside a leaf block), ``border`` (on some border) and
    ``dropped``, which add up to ``m.nnz``, plus the number of ``leaves``.

    The tree's own structure was checked when it was built or loaded (see
    :class:`BBDFTree`). This raises :class:`ShapeError`, naming the node
    path, unless ``m`` fits the tree's shape and labels, no entry joins
    two children of an exact-mode node, and at each node of an ``abbdf``
    tree the entries joining two children are the node's dropped list.
    """
    return _audit(tree, m)[1]


def _audit(tree, m):
    """:func:`check_tree`'s check, one walk that descends with each node's
    assembled entries; returns the entry indices of each leaf's assembled
    block, in tree order, and the counts."""
    _check_matrix(tree, m)
    leaf_entries = []
    counts = {"leaf": 0, "border": 0, "dropped": 0}

    def name(key):
        """An entry by its labels, from its key ``row * n_cols + col``."""
        r, c = divmod(int(key), m.n_cols)
        return repr((m.row_labels[r], m.col_labels[c]))

    def walk(node, path, eidx, own):  # own: eidx inside the node itself
        where = f"tree node {list(path)}"
        if node.is_leaf:
            counts["leaf"] += int(own.sum())
            leaf_entries.append(eidx)
            return
        tr, tc = _entry_tags(node.children, m.shape, m.rows[eidx],
                             m.cols[eidx])
        inside = (tr >= 0) & (tc >= 0)
        cross = eidx[inside & (tr != tc)]
        keys = m.rows[cross] * m.n_cols + m.cols[cross]
        if tree.mode != "abbdf" and keys.size:
            raise ShapeError(f"{where}: {keys.size} entries join two children "
                             f"of an exact-mode tree, e.g. {name(keys[0])}")
        # the listed pairs lie in range and each joins two children once
        lkeys = node.dropped[:, 0] * m.n_cols + node.dropped[:, 1]
        missing = keys[~np.isin(keys, lkeys)]
        if missing.size:
            raise ShapeError(f"{where}: {missing.size} entries join two "
                             "children but are not in the dropped list, e.g. "
                             f"{name(missing[0])}")
        extra = lkeys[~np.isin(lkeys, keys)]
        if extra.size:
            raise ShapeError(f"{where}: {extra.size} pairs in the dropped "
                             "list are not entries of the matrix, e.g. "
                             f"{name(extra[0])}")
        counts["dropped"] += cross.size
        counts["border"] += int((own & ~inside).sum())
        for k, keep in enumerate(_child_blocks(tr, tc, len(node.children))):
            walk(node.children[k], path + (k,), eidx[keep],
                 ((tr == k) & (tc == k))[keep])

    walk(tree.root, (), np.arange(m.nnz, dtype=np.int64),
         np.ones(m.nnz, dtype=bool))
    return leaf_entries, {**counts, "leaves": len(leaf_entries)}
