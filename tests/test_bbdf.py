import json
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from lmf import (
    BBDFNode,
    BBDFTree,
    RatingMatrix,
    SubmatrixView,
    abbdf_permute,
    apply_permutation,
    assemble_blocks,
    balanced_permute,
    basic_bbdf_step,
    bbdf_permute,
    check_tree,
    community_tree,
    density,
    improve_density,
    permutation_from_tree,
)
from lmf.bbdf import assembled_indices
from lmf.errors import (ConfigError, DegenerateBlockError, LMFError, NoSplitError,
                        ShapeError)
from lmf.matrix import _positions

from conftest import (block_diag_matrix, figure_bridge_matrix, planted_blocks,
                      random_sparse)


def dense_block_diag(rng):
    return block_diag_matrix(rng, [(6, 7), (5, 6)], density=0.9)


def abbdf_narrative_matrix():
    """Two dense communities with exactly two cross entries, (7,6) and
    (3,9), plus bridge row 8 (3 entries on the A side, 2 on the B side)."""
    pairs = set()
    for i in range(4):
        for j in (0, 1, 2, 6):
            pairs.add((i, j))
    for i in range(4, 8):
        for j in (3, 4, 5, 7, 8, 9):
            pairs.add((i, j))
    pairs |= {(7, 6), (3, 9)}
    pairs |= {(8, 0), (8, 1), (8, 2), (8, 3), (8, 4)}
    pairs = sorted(pairs)
    return RatingMatrix(9, 10, [p[0] for p in pairs], [p[1] for p in pairs],
                        np.ones(len(pairs)))


# -- basic step -------------------------------------------------------------------

def test_basic_step_disconnected_blocks():
    rng = np.random.default_rng(0)
    m = dense_block_diag(rng)
    rho = density(m.full_view())
    children, (rb, cb), pooled = basic_bbdf_step(m.full_view(), seed=1)
    assert rb.size == 0 and cb.size == 0
    assert len(children) == 2
    assert pooled > rho


def test_basic_step_figure_matrix():
    m = figure_bridge_matrix()
    children, (rb, cb), pooled = basic_bbdf_step(m.full_view(), seed=0)
    assert sorted(rb.tolist()) == [3, 8]
    assert cb.tolist() == [6]
    assert len(children) == 2
    assert pooled > density(m.full_view())


def test_basic_step_dense_3x3_cannot_split():
    m = RatingMatrix(3, 3, *np.nonzero(np.ones((3, 3))), np.ones(9))
    with pytest.raises(NoSplitError):
        basic_bbdf_step(m.full_view(), seed=0)


# -- exact mode -------------------------------------------------------------------

def test_bbdf_target_below_density_single_leaf():
    rng = np.random.default_rng(1)
    m = dense_block_diag(rng)
    rho = density(m.full_view())
    tree = bbdf_permute(m, rho * 0.5, seed=0)
    assert len(tree.leaves()) == 1
    assert tree.root.is_leaf


def test_bbdf_two_dense_blocks_depth_one():
    rng = np.random.default_rng(2)
    m = dense_block_diag(rng)
    tree = bbdf_permute(m, 0.95, seed=0)
    assert len(tree.leaves()) == 2
    root = tree.root
    assert root.row_border.size == 0 and root.col_border.size == 0
    assert all(ch.is_leaf for ch in root.children)
    check_tree(tree, m)


def test_bbdf_density_gain_gate():
    """Every accepted split must raise pooled child density above the
    node's own density (recomputed from scratch here)."""
    rng = np.random.default_rng(5)
    m = planted_blocks(rng, [(12, 14), (11, 12), (9, 13)], 0.5,
                       density_cross=0.0, bridge_rows=2)
    tree = bbdf_permute(m, 0.9, seed=3)
    check_tree(tree, m)

    def walk(node):
        if node.is_leaf:
            return
        node_rho = density(SubmatrixView(m, node.rows, node.cols))
        pooled_n = pooled_a = 0
        for ch in node.children:
            v = SubmatrixView(m, ch.rows, ch.cols)
            pooled_n += v.nnz
            pooled_a += v.area
        assert pooled_n / pooled_a > node_rho
        for ch in node.children:
            walk(ch)

    walk(tree.root)


def test_bbdf_children_ordered_largest_first():
    rng = np.random.default_rng(8)
    m = planted_blocks(rng, [(16, 18), (7, 8)], 0.5)
    tree = bbdf_permute(m, 0.9, seed=1)
    root = tree.root
    if not root.is_leaf:
        sizes = [SubmatrixView(m, c.rows, c.cols).nnz for c in root.children]
        assert sizes == sorted(sizes, reverse=True)


def test_bbdf_deterministic():
    rng = np.random.default_rng(9)
    m = planted_blocks(rng, [(10, 12), (11, 9)], 0.45, bridge_rows=1)
    a = bbdf_permute(m, 0.8, seed=7).to_json()
    b = bbdf_permute(m, 0.8, seed=7).to_json()
    assert a == b


def test_bbdf_unsplittable_matrix_single_leaf():
    m = RatingMatrix(3, 3, *np.nonzero(np.ones((3, 3))), np.ones(9))
    tree = bbdf_permute(m, 1.0, seed=0)
    assert len(tree.leaves()) == 1  # silent stop, not an error


# -- density promotion -------------------------------------------------------------

def test_improve_density_noop_when_already_at_target():
    m = RatingMatrix(2, 2, [0, 1], [0, 1], [1.0, 1.0])
    views = [SubmatrixView(m, np.array([0]), np.array([0])),
             SubmatrixView(m, np.array([1]), np.array([1]))]
    shrunk, promoted = improve_density(views, target=1.0)
    assert promoted == []
    assert [v.rows.tolist() for v in shrunk] == [[0], [1]]


def test_improve_density_removes_empty_columns():
    # 3x3 block, 3 entries all in column 0: both empty columns go to the
    # border (either order) and the block ends exactly at density 1.0
    m = RatingMatrix(3, 3, [0, 1, 2], [0, 0, 0], [1.0, 1.0, 1.0])
    shrunk, promoted = improve_density([m.full_view()], target=1.0)
    assert sorted((ax, g) for _, ax, g in promoted) == [("col", 1), ("col", 2)]
    v = shrunk[0]
    assert density(v) == 1.0
    assert v.rows.tolist() == [0, 1, 2] and v.cols.tolist() == [0]


def test_improve_density_promotes_empty_row_first():
    # direct argmax oracle: removing the empty row maximizes pooled density
    pairs = [(i, j) for i in range(3) for j in range(4)]  # rows 0-2 dense
    m = RatingMatrix(4, 4, [p[0] for p in pairs], [p[1] for p in pairs],
                     np.ones(len(pairs)))  # row 3 empty
    view = m.full_view()
    N, S = view.nnz, view.area
    candidates = {}
    for i in range(4):
        cnt = view.row_count_within(i)
        candidates[("row", i)] = (N - cnt) / (S - 4)
    for j in range(4):
        cnt = view.col_count_within(j)
        candidates[("col", j)] = (N - cnt) / (S - 4)
    best = max(candidates, key=candidates.get)
    assert best == ("row", 3)

    _, promoted = improve_density([view], target=1.0)
    assert promoted[0] == (0, "row", 3)


def test_improve_density_degenerate_uniform_block():
    # diagonal block: every removal keeps pooled density unchanged
    m = RatingMatrix(3, 3, [0, 1, 2], [0, 1, 2], np.ones(3))
    with pytest.raises(DegenerateBlockError):
        improve_density([m.full_view()], target=0.9)


def test_improve_density_strictly_monotone_replay():
    """Replaying the promotion sequence with plain view arithmetic must
    show a strict pooled-density increase at every step."""
    rng = np.random.default_rng(33)
    for trial in range(40):
        nr, nc = int(rng.integers(3, 9)), int(rng.integers(3, 9))
        mask = rng.random((nr, nc)) < rng.uniform(0.15, 0.6)
        mask[rng.integers(nr), rng.integers(nc)] = True
        r, c = np.nonzero(mask)
        m = RatingMatrix(nr, nc, r, c, np.ones(r.size))
        splits = np.array_split(np.arange(nr), 2)
        views = [SubmatrixView(m, s, np.arange(nc)) for s in splits if s.size]
        target = min(1.0, density(m.full_view()) + rng.uniform(0.05, 0.4))
        try:
            shrunk, promoted = improve_density(views, target)
        except DegenerateBlockError:
            continue
        # independent replay
        row_sets = [set(v.rows.tolist()) for v in views]
        col_sets = [set(v.cols.tolist()) for v in views]
        def pooled():
            n = a = 0
            for rs, cs in zip(row_sets, col_sets):
                v = SubmatrixView(m, sorted(rs), sorted(cs))
                n += v.nnz
                a += v.area
            return n / a if a else float("nan")
        last = pooled()
        for bi, ax, g in promoted:
            (row_sets if ax == "row" else col_sets)[bi].discard(g)
            cur = pooled()
            assert cur > last
            last = cur
        assert last >= target


# -- approximate mode ------------------------------------------------------------------

def test_abbdf_target_below_density_single_leaf():
    rng = np.random.default_rng(4)
    m = dense_block_diag(rng)
    tree = abbdf_permute(m, density(m.full_view()) / 2, seed=0)
    assert len(tree.leaves()) == 1


def test_abbdf_narrative_drop_and_promotion():
    m = abbdf_narrative_matrix()
    for seed in range(3):
        tree = abbdf_permute(m, 1.0, seed=seed)
        root = tree.root
        assert len(tree.leaves()) == 2
        assert root.row_border.tolist() == [8]
        assert root.col_border.size == 0
        assert sorted(map(tuple, tree.dropped_entries().tolist())) == \
            [(3, 9), (7, 6)]
        check_tree(tree, m)


def test_abbdf_degenerate_block_becomes_leaf():
    m = RatingMatrix(6, 6, list(range(6)), list(range(6)), np.ones(6))
    tree = abbdf_permute(m, 0.9, seed=0)
    assert len(tree.leaves()) == 1
    assert tree.dropped_entries().shape[0] == 0


def test_abbdf_reaches_target_where_exact_plateaus():
    """Exact mode stalls once no split raises pooled density; approximate
    mode keeps promoting vectors until its blocks reach the target."""
    rng = np.random.default_rng(12)
    m = planted_blocks(rng, [(14, 16), (13, 15)], 0.35, density_cross=0.02,
                       bridge_rows=2)

    def leaf_pooled(tree):
        drop = tree.dropped_entries()
        n = a = 0
        for leaf in tree.leaves():
            v = SubmatrixView(m, leaf.rows, leaf.cols)
            eidx = v.entry_indices()
            if drop.size:
                keys = m.rows[eidx] * m.n_cols + m.cols[eidx]
                eidx = eidx[~np.isin(keys, drop[:, 0] * m.n_cols + drop[:, 1])]
            n += eidx.size
            a += v.area
        return n / a if a else 1.0

    for target in (0.6, 0.9, 1.0):
        exact = bbdf_permute(m, target, seed=2)
        approx = abbdf_permute(m, target, seed=2)
        check_tree(exact, m)
        check_tree(approx, m)
        assert leaf_pooled(approx) >= target
    # exact mode has plateaued below the top targets on this instance
    assert leaf_pooled(bbdf_permute(m, 0.9, seed=2)) < 0.9
    assert len(bbdf_permute(m, 1.0, seed=2).leaves()) == \
        len(bbdf_permute(m, 0.9, seed=2).leaves())


# -- balanced mode ----------------------------------------------------------------------

def test_balanced_target_met_single_leaf_zero_rounds():
    rng = np.random.default_rng(6)
    m = dense_block_diag(rng)
    tree, rounds = balanced_permute(m, density(m.full_view()) * 0.9, seed=0)
    assert rounds == []
    assert len(tree.leaves()) == 1


def test_balanced_round_log_and_leaf_count():
    rng = np.random.default_rng(13)
    m = planted_blocks(rng, [(15, 18), (14, 16), (13, 17)], 0.45,
                       bridge_rows=2)
    tree, rounds = balanced_permute(m, 0.5, seed=4)
    assert len(tree.leaves()) == len(rounds) + 1
    check_tree(tree, m)
    blocks = assemble_blocks(tree, m)
    pooled = sum(b.nnz for b in blocks) / sum(b.area for b in blocks)
    if len(blocks) > 1:
        assert pooled > density(m.full_view())


def test_balanced_gates_on_assembled_density():
    """The per-round acceptance is judged on assembled blocks, so the
    pooled assembled density after the run either meets the target or no
    single further split could raise it."""
    rng = np.random.default_rng(14)
    m = planted_blocks(rng, [(14, 15), (13, 14)], 0.5, bridge_rows=1)
    target = 0.62
    tree, rounds = balanced_permute(m, target, seed=1)
    blocks = assemble_blocks(tree, m)
    pooled = sum(b.nnz for b in blocks) / sum(b.area for b in blocks)
    if pooled < target:
        # stopped because nothing improves: re-check every leaf by brute force
        from lmf.bbdf import _derive_seed

        for leaf in tree.leaves():
            view = SubmatrixView(m, leaf.rows, leaf.cols)
            try:
                children, (rb, cb), _ = basic_bbdf_step(
                    view, _derive_seed(tree.seed, leaf.path))
            except NoSplitError:
                continue
            # recompute the would-be pooled assembled density
            others_n = others_a = 0
            for b in blocks:
                if b.origin is not leaf:
                    others_n += b.nnz
                    others_a += b.area
            anc_rows = [a for a in _ancestor_borders(tree, leaf, "row")]
            anc_cols = [a for a in _ancestor_borders(tree, leaf, "col")]
            new_n = others_n
            new_a = others_a
            for ch, other in ((children[0], children[1]),
                              (children[1], children[0])):
                rows = np.concatenate([ch.rows, rb] + anc_rows)
                cols = np.concatenate([ch.cols, cb] + anc_cols)
                v = SubmatrixView(m, rows, cols)
                new_n += v.nnz
                new_a += v.area
            assert new_n / new_a <= pooled


def _ancestor_borders(tree, leaf, axis):
    out = []

    def walk(node, acc):
        if node is leaf:
            out.extend(acc)
            return True
        for ch in node.children:
            if walk(ch, acc + [node.row_border if axis == "row"
                               else node.col_border]):
                return True
        return False

    walk(tree.root, [])
    return list(reversed(out))


def test_balanced_cost_grows_like_n_log_k():
    """Cumulative wall time to reach k blocks, normalized by n*log(k),
    stays within a factor 3 across k in {5,10,20,50,100,200} on a fixed
    matrix of 256 equal communities (so splits keep paying off)."""
    rng = np.random.default_rng(99)
    m = block_diag_matrix(rng, [(13, 13)] * 256, density=0.4)
    marks = {}
    t0 = time.perf_counter()

    def on_round(k):
        marks[k] = time.perf_counter() - t0

    balanced_permute(m, 0.9, seed=0, on_round=on_round)
    ks = [5, 10, 20, 50, 100, 200]
    assert max(marks) >= 200, f"only reached k={max(marks)}"
    ratios = [marks[k] / (m.nnz * np.log(k)) for k in ks]
    assert max(ratios) <= 3 * min(ratios), ratios


# -- assembly ---------------------------------------------------------------------------

def test_assemble_single_leaf_is_whole_matrix():
    rng = np.random.default_rng(21)
    m = planted_blocks(rng, [(8, 9)], 0.4)
    root = BBDFNode(np.arange(m.n_rows), np.arange(m.n_cols))
    tree = BBDFTree(root, "bbdf", 0, 1.0, matrix=m)
    blocks = assemble_blocks(tree, m)
    assert len(blocks) == 1
    b = blocks[0]
    assert b.rows.tolist() == list(range(m.n_rows))
    assert b.cols.tolist() == list(range(m.n_cols))
    assert b.matrix == m



# A 6x6 matrix and an exact tree over it. The root has border row 5 and
# border col 5; child [0] is the leaf rows {0, 1} x cols {0, 1}; child [1]
# covers rows {2, 3, 4} x cols {2, 3, 4}, has border row 4 and splits into
# the leaves [1, 0] = {2} x {2} and [1, 1] = {3} x {3, 4}.
_AUDIT_PAIRS = [(0, 0), (0, 1), (1, 1), (2, 2), (3, 3), (3, 4), (4, 2),
                (4, 4), (5, 0), (5, 3), (0, 5), (2, 5)]
_CROSS = (2, 3)  # joins the two children of node [1]


def _audit_matrix(*extra):
    pairs = _AUDIT_PAIRS + list(extra)
    return RatingMatrix(6, 6, [p[0] for p in pairs], [p[1] for p in pairs],
                        np.arange(1.0, len(pairs) + 1),
                        row_labels=[f"u{i}" for i in range(6)],
                        col_labels=[f"i{j}" for j in range(6)])


def _node(rows, cols, children=(), rb=(), cb=(), dropped=()):
    node = BBDFNode(rows, cols)
    node.children = list(children)
    node.row_border = np.asarray(rb, dtype=np.int64)
    node.col_border = np.asarray(cb, dtype=np.int64)
    node.dropped = np.asarray(dropped, dtype=np.int64).reshape(-1, 2)
    return node


def _audit_tree(m, mode="bbdf", root_rows=range(6), leaf10=(), leaf11=None,
                inner_dropped=()):
    """The tree described above; ``leaf10`` is a col border given to leaf
    [1, 0], ``leaf11`` replaces that leaf's rows and cols."""
    leaf11 = leaf11 or ([3], [3, 4])
    inner = _node([2, 3, 4], [2, 3, 4],
                  [_node([2], [2], cb=leaf10), _node(*leaf11)], rb=[4],
                  dropped=inner_dropped)
    root = _node(list(root_rows), range(6),
                 [_node([0, 1], [0, 1]), inner], rb=[5], cb=[5])
    return BBDFTree(root, mode, 0, 1.0, matrix=m)


def test_check_tree_counts_where_each_entry_goes():
    m = _audit_matrix()
    assert check_tree(_audit_tree(m), m) == \
        {"leaf": 6, "border": 6, "dropped": 0, "leaves": 3}
    m = _audit_matrix(_CROSS)
    tree = _audit_tree(m, mode="abbdf", inner_dropped=[_CROSS])
    assert check_tree(tree, m) == \
        {"leaf": 6, "border": 6, "dropped": 1, "leaves": 3}
    assembled = {(b.rows[i], b.cols[j]) for b in assemble_blocks(tree, m)
                 for i, j in zip(b.matrix.rows, b.matrix.cols)}
    assert assembled == set(_AUDIT_PAIRS)


# Cases the tree's own structural check raises when the tree is built,
# then the cases that need the matrix, raised by check_tree and
# assemble_blocks; ``(id, extra entries, tree options, message)`` each.
_BROKEN_AT_BUILD = [
    ("overlapping-children", (), {"leaf11": ([2, 3], [3, 4])},
     r"tree node \[1\]: children and borders do not split"),
    ("index-outside-parent", (), {"leaf11": ([3], [3, 4, 0])},
     r"tree node \[1\]: children and borders do not split"),
    ("exact-dropped-list", (), {"inner_dropped": [_CROSS]},
     r"tree node \[1\]: an exact-mode tree drops no entry, but 1 pairs are "
     r"listed"),
    ("pair-listed-twice", (_CROSS,),
     {"mode": "abbdf", "inner_dropped": [_CROSS, _CROSS]},
     r"tree node \[1\]: the dropped list names \[2, 3\] twice"),
    ("pair-outside-the-matrix", (_CROSS,),
     {"mode": "abbdf", "inner_dropped": [_CROSS, (6, 0)]},
     r"tree node \[1\]: dropped pair \[6, 0\] does not join two children"),
    ("leaf-with-border", (), {"leaf10": [2]},
     r"tree node \[1, 0\]: a leaf has borders"),
    ("root-misses-a-row", (), {"root_rows": range(5)},
     r"tree node \[\]: the root does not hold every row"),
]
_BROKEN_AGAINST_THE_MATRIX = [
    ("exact-cross-entry", (_CROSS,), {},
     r"tree node \[1\]: 1 entries join two children of an exact-mode "
     r"tree, e.g. \('u2', 'i3'\)"),
    ("abbdf-missing-drop", (_CROSS,), {"mode": "abbdf"},
     r"tree node \[1\]: 1 entries join two children but are not in the "
     r"dropped list, e.g. \('u2', 'i3'\)"),
    ("abbdf-extra-drop", (), {"mode": "abbdf", "inner_dropped": [_CROSS]},
     r"tree node \[1\]: 1 pairs in the dropped list are not entries of the "
     r"matrix, e.g. \('u2', 'i3'\)"),
]


@pytest.mark.parametrize(
    "at_build, extra, tree_kw, message",
    [(True, *case[1:]) for case in _BROKEN_AT_BUILD]
    + [(False, *case[1:]) for case in _BROKEN_AGAINST_THE_MATRIX],
    ids=[case[0] for case in _BROKEN_AT_BUILD + _BROKEN_AGAINST_THE_MATRIX])
def test_a_tree_that_breaks_an_invariant_raises_shape_error(
        at_build, extra, tree_kw, message):
    m = _audit_matrix(*extra)
    if at_build:  # no tree exists to check, and no matrix is needed
        with pytest.raises(ShapeError, match=message) as err:
            _audit_tree(m, **tree_kw)
        assert err.value.exit_code == 2
        return
    tree = _audit_tree(m, **tree_kw)
    for check in (check_tree, assemble_blocks):
        with pytest.raises(ShapeError, match=message) as err:
            check(tree, m)
        assert err.value.exit_code == 2


_UNDER_O = """
import sys
from lmf import BBDFNode, BBDFTree, RatingMatrix, check_tree
from lmf.errors import ShapeError

m = RatingMatrix(2, 2, [0, 1, 0], [0, 1, 1], [1.0, 2.0, 3.0])
for name, child_rows in (("overlap", ([0, 1], [1])), ("split", ([0], [1]))):
    root = BBDFNode([0, 1], [0, 1])
    root.children = [BBDFNode(r, [c]) for c, r in enumerate(child_rows)]
    try:
        print(name, check_tree(BBDFTree(root, "bbdf", 0, 1.0, matrix=m), m))
    except ShapeError as exc:
        print(name, "ShapeError:", exc)
print("optimize", sys.flags.optimize)
"""


def test_python_O_changes_no_check():
    # children that overlap, and exact-mode leaves that split entry (0, 1)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-O", "-c", _UNDER_O], env=env,
                         capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    assert lines[0].startswith("overlap ShapeError: tree node []: children")
    assert lines[1].startswith("split ShapeError: tree node []: 1 entries")
    assert lines[2] == "optimize 1"


def test_assemble_blocks_and_check_tree_check_the_matrix_against_the_tree():
    rng = np.random.default_rng(21)
    m = planted_blocks(rng, [(8, 9)], 0.4)
    root = BBDFNode(np.arange(m.n_rows), np.arange(m.n_cols))
    labelled = BBDFTree(root, "bbdf", 0, 1.0, matrix=m)
    assert not hasattr(labelled, "matrix")
    renamed = RatingMatrix(m.n_rows, m.n_cols, m.rows, m.cols, m.vals,
                           col_labels=[f"i{j}" for j in range(m.n_cols)])
    taller = RatingMatrix(m.n_rows + 1, m.n_cols, m.rows, m.cols, m.vals)
    for check in (assemble_blocks, check_tree):
        with pytest.raises(ShapeError, match="col labels"):
            check(labelled, renamed)
        with pytest.raises(ShapeError, match="9x9, the tree 8x9"):
            check(labelled, taller)
    # a tree without labels is checked by shape only
    bare = BBDFTree(root, "bbdf", 0, 1.0, n_rows=m.n_rows, n_cols=m.n_cols)
    assert assemble_blocks(bare, renamed)[0].matrix == m
    with pytest.raises(ShapeError, match="9x9, the tree 8x9"):
        assemble_blocks(bare, taller)


def _nested_two_level_tree(m):
    """root borders {r8},{c8}; child X1 splits again with borders
    {r2},{c2}; leaves: (r0 r1 x c0 c1), (r3 r4 x c3 c4), (r5..r7 x c5..c7)."""
    root = BBDFNode(np.arange(9), np.arange(9))
    root.row_border = np.array([8])
    root.col_border = np.array([8])
    x1 = BBDFNode(np.arange(5), np.arange(5), path=(0,))
    x1.row_border = np.array([2])
    x1.col_border = np.array([2])
    x1.children = [BBDFNode(np.array([0, 1]), np.array([0, 1]), path=(0, 0)),
                   BBDFNode(np.array([3, 4]), np.array([3, 4]), path=(0, 1))]
    x2 = BBDFNode(np.array([5, 6, 7]), np.array([5, 6, 7]), path=(1,))
    root.children = [x1, x2]
    return BBDFTree(root, "bbdf", 0, 1.0, matrix=m)


def _nested_matrix(rng):
    # entries only where the nested layout allows them
    allowed = np.zeros((9, 9), dtype=bool)
    for rows, cols in (([0, 1], [0, 1]), ([3, 4], [3, 4]),
                       ([5, 6, 7], [5, 6, 7])):
        for i in rows:
            for j in cols:
                allowed[i, j] = True
    allowed[2, :5] = True   # level-1 borders
    allowed[:5, 2] = True
    allowed[8, :] = True    # root borders
    allowed[:, 8] = True
    mask = allowed & (rng.random((9, 9)) < 0.8)
    mask[0, 0] = mask[3, 3] = mask[5, 5] = mask[8, 8] = mask[2, 2] = True
    r, c = np.nonzero(mask)
    return RatingMatrix(9, 9, r, c, np.ones(r.size))


def test_assemble_two_level_stitching():
    rng = np.random.default_rng(17)
    m = _nested_matrix(rng)
    tree = _nested_two_level_tree(m)
    check_tree(tree, m)
    blocks = assemble_blocks(tree, m)
    assert len(blocks) == 3
    by_leaf = {tuple(b.origin.rows.tolist()): b for b in blocks}
    # deepest leaf stitches its own indices, then the nearer border, then
    # the root border
    b1 = by_leaf[(0, 1)]
    assert b1.rows.tolist() == [0, 1, 2, 8]
    assert b1.cols.tolist() == [0, 1, 2, 8]
    b3 = by_leaf[(5, 6, 7)]
    assert b3.rows.tolist() == [5, 6, 7, 8]
    # every entry of the original covered by a block appears in it
    v = SubmatrixView(m, b1.rows, b1.cols)
    assert b1.nnz == v.nnz


def test_assemble_root_border_cell_covered_by_every_leaf():
    rng = np.random.default_rng(18)
    m = _nested_matrix(rng)
    tree = _nested_two_level_tree(m)
    blocks = assemble_blocks(tree, m)
    covering = [b for b in blocks
                if 8 in b.rows.tolist() and 8 in b.cols.tolist()]
    assert len(covering) == len(blocks) == 3


def test_assemble_excludes_dropped_entries():
    m = abbdf_narrative_matrix()
    tree = abbdf_permute(m, 1.0, seed=0)
    dropped = set(map(tuple, tree.dropped_entries().tolist()))
    assert dropped
    for b in assemble_blocks(tree, m):
        cells = {(int(b.rows[i]), int(b.cols[j]))
                 for i, j in zip(b.matrix.rows, b.matrix.cols)}
        assert not (cells & dropped)


def _blocks_reference(tree, m):
    """Each leaf's assembled block by a mask per leaf: the entries inside
    its rows and columns, less the pairs in any node's dropped list."""
    dropped = set(map(tuple, tree.dropped_entries().tolist()))
    blocks = []
    for _, rows, cols in assembled_indices(tree):
        eidx = np.array([e for e in SubmatrixView(m, rows, cols)
                         .entry_indices().tolist()
                         if (m.rows[e], m.cols[e]) not in dropped],
                        dtype=np.int64)
        blocks.append(RatingMatrix(
            rows.size, cols.size, _positions(rows, m.n_rows)[m.rows[eidx]],
            _positions(cols, m.n_cols)[m.cols[eidx]], m.vals[eidx]))
    return blocks


def _random_communities(rng, m):
    """Two to four communities over the bipartite nodes of ``m``, each
    with an exclusive node; some nodes shared, some in none."""
    k = int(rng.integers(2, 5))
    comms = [{i} for i in range(k)]
    for v in range(k, m.n_rows + m.n_cols):
        owner = int(rng.integers(k + 1))
        if owner < k:
            comms[owner].add(v)
            if rng.random() < 0.15:
                comms[int(rng.integers(k))].add(v)
    return comms


@pytest.mark.parametrize("seed", range(12))
def test_assembled_entries_match_a_mask_per_leaf(seed):
    """The tree walk gives each block the entries of the per-leaf mask
    less the dropped pairs, in the same order, for every kind of tree."""
    rng = np.random.default_rng(900 + seed)
    if seed % 2:
        m = random_sparse(rng, int(rng.integers(8, 40)),
                          int(rng.integers(8, 40)), rng.uniform(0.05, 0.3))
    else:
        sizes = [(int(rng.integers(4, 12)), int(rng.integers(4, 12)))
                 for _ in range(int(rng.integers(2, 5)))]
        m = planted_blocks(rng, sizes, 0.6, density_cross=0.05,
                           bridge_rows=int(rng.integers(0, 3)))
    target = min(1.0, 2.5 * m.nnz / m.area)
    trees = [bbdf_permute(m, target, seed=seed),
             abbdf_permute(m, target, seed=seed),
             balanced_permute(m, target, seed=seed)[0],
             community_tree(m, _random_communities(rng, m))]
    assert any(t.dropped_entries().size for t in trees[1::2])
    for tree in trees:
        got = assemble_blocks(tree, m)
        want = _blocks_reference(tree, m)
        assert len(got) == len(want)
        for b, ref in zip(got, want):
            assert b.matrix.shape == ref.shape
            for key in ("rows", "cols", "vals"):
                assert np.array_equal(getattr(b.matrix, key),
                                      getattr(ref, key)), (tree.mode, key)


def test_conservation_counts():
    rng = np.random.default_rng(23)
    m = planted_blocks(rng, [(12, 12), (10, 11)], 0.4, density_cross=0.03,
                       bridge_rows=1)
    tree = abbdf_permute(m, 0.7, seed=5)
    counts = check_tree(tree, m)
    assert counts["leaf"] + counts["border"] + counts["dropped"] == m.nnz


# -- serialization -----------------------------------------------------------------------

def test_tree_json_round_trip():
    rng = np.random.default_rng(31)
    m = planted_blocks(rng, [(10, 11), (9, 10)], 0.4, bridge_rows=1)
    tree = abbdf_permute(m, 0.8, seed=2)
    doc = tree.to_json()
    loaded = BBDFTree.from_json(doc)
    assert loaded.mode == "abbdf"
    assert loaded.to_json() == doc
    parsed = json.loads(doc)
    assert set(parsed) >= {"mode", "seed", "target_density", "n_rows",
                           "n_cols", "row_ids", "col_ids", "root"}
    assert set(parsed["root"]) == {"rows", "cols", "row_border",
                                   "col_border", "dropped", "children"}
    check_tree(loaded, m)


def test_tree_json_rejects_partial_root():
    doc = json.dumps({
        "mode": "bbdf", "seed": 0, "target_density": 1.0,
        "n_rows": 3, "n_cols": 2, "row_ids": ["a", "b", "c"],
        "col_ids": ["x", "y"],
        "root": {"rows": [0, 1], "cols": [0, 1], "row_border": [],
                 "col_border": [], "dropped": [], "children": []},
    })
    from lmf.errors import ShapeError

    with pytest.raises(ShapeError):
        BBDFTree.from_json(doc)


@pytest.mark.parametrize("text", ["{", "", "[1, 2", b"\xff"])
def test_tree_json_that_is_not_json_raises_shape_error(text):
    from lmf.errors import ShapeError

    with pytest.raises(ShapeError, match="^tree is not valid JSON: ") as err:
        BBDFTree.from_json(text)
    assert err.value.exit_code == 2


def test_factorize_accepts_assembled_block():
    from lmf import FactorizerSpec, factorize

    rng = np.random.default_rng(41)
    m = planted_blocks(rng, [(8, 9), (7, 8)], 0.5, bridge_rows=1)
    tree = bbdf_permute(m, 0.9, seed=1)
    block = assemble_blocks(tree, m)[0]
    pair = factorize(block, FactorizerSpec(algorithm="svd_als", r=2,
                                           reg=0.01, max_iters=20, seed=0))
    assert pair.U.shape == (block.rows.size, 2)
    assert np.isfinite(float(pair.U[0] @ pair.V[0]))


def test_balanced_tree_persists_round_log(tmp_path):
    rng = np.random.default_rng(32)
    m = planted_blocks(rng, [(12, 13), (11, 12)], 0.5, bridge_rows=1)
    tree, rounds = balanced_permute(m, 0.55, seed=1)
    p = tmp_path / "tree.json"
    tree.save(p)
    loaded = BBDFTree.load(p)
    assert loaded.rounds == rounds


# -- permutation extraction ---------------------------------------------------------------

def test_permutation_from_tree_visual_structure():
    rng = np.random.default_rng(25)
    m = planted_blocks(rng, [(10, 12), (9, 10)], 0.5, bridge_rows=1)
    tree = bbdf_permute(m, 0.9, seed=1)
    perm = permutation_from_tree(tree)
    out = apply_permutation(m, perm)
    assert out.nnz == m.nnz
    # borders land after all child rows at every level
    root = tree.root
    if not root.is_leaf:
        child_rows = np.concatenate([c.rows for c in root.children])
        if root.row_border.size:
            assert perm.row_perm[root.row_border].min() > \
                perm.row_perm[child_rows].max()


# -- community construction (small sanity; the 100-instance sweep is in
#    the acceptance suite) ------------------------------------------------------------

def test_community_tree_two_overlapping_communities():
    # rows 0,1 + cols 0,1 in community 1; rows 2,3 + cols 2,3 in
    # community 2; row 1 also in community 2 (shared)
    pairs = [(0, 0), (0, 1), (1, 0), (1, 2), (2, 2), (2, 3), (3, 2), (3, 3)]
    m = RatingMatrix(4, 4, [p[0] for p in pairs], [p[1] for p in pairs],
                     np.ones(len(pairs)))
    c1 = {0, 1, 4, 5}          # rows 0,1 cols 0,1 (col j -> 4 + j)
    c2 = {1, 2, 3, 6, 7}       # row 1 shared
    tree = community_tree(m, [c1, c2])
    check_tree(tree, m)
    assert sorted(tree.root.row_border.tolist()) == [1]
    assert tree.dropped_entries().shape[0] == 0  # no exclusive-exclusive edge

    # add an edge between exclusive nodes: row 0 (only c1) x col 3 (only c2)
    pairs.append((0, 3))
    m2 = RatingMatrix(4, 4, [p[0] for p in pairs], [p[1] for p in pairs],
                      np.ones(len(pairs)))
    tree2 = community_tree(m2, [c1, c2])
    check_tree(tree2, m2)
    assert sorted(map(tuple, tree2.dropped_entries().tolist())) == [(0, 3)]


def test_community_tree_rejects_degenerate_assignments():
    m = RatingMatrix(2, 2, [0, 1], [0, 1], np.ones(2))
    with pytest.raises(ValueError):
        community_tree(m, [{0, 2}, set()])
    with pytest.raises(ValueError):
        community_tree(m, [{0, 2}, {0, 2}])  # no exclusive node
    with pytest.raises(ConfigError, match="no community given"):
        community_tree(m, [])
    for bad in ({0, 4}, {-1, 0}):
        with pytest.raises(ShapeError, match="out of range"):
            community_tree(m, [bad, {1, 3}])


def _community_reference(m, communities):
    """``community_tree`` over Python sets: the border is the union of the
    shared and the uncovered nodes, each community's block its nodes off
    the border."""
    from lmf.bbdf import _cross_entries, _order_views

    communities = [set(c) for c in communities]
    n = m.n_rows + m.n_cols
    if not communities:
        raise ConfigError("no community given")
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
    border = shared | (set(range(n)) - covered)

    def split_rc(nodes):
        arr = np.array(sorted(nodes), dtype=np.int64)
        return arr[arr < m.n_rows], arr[arr >= m.n_rows] - m.n_rows

    root = BBDFNode(np.arange(m.n_rows), np.arange(m.n_cols), path=())
    root.row_border, root.col_border = split_rc(border)
    children = _order_views([SubmatrixView(m, *split_rc(c - border))
                             for c in communities])
    for i, ch in enumerate(children):
        root.children.append(BBDFNode(ch.rows, ch.cols, path=(i,)))
    root.dropped = _cross_entries(root.children, m, np.arange(m.nnz))
    return BBDFTree(root, "abbdf", 0, 1.0, matrix=m)


@pytest.mark.parametrize("seed", range(16))
def test_community_tree_matches_set_reference(seed):
    rng = np.random.default_rng(1600 + seed)
    if seed % 2:
        m = random_sparse(rng, int(rng.integers(6, 30)),
                          int(rng.integers(6, 30)), 0.2)
    else:
        sizes = [(int(rng.integers(3, 10)), int(rng.integers(3, 10)))
                 for _ in range(int(rng.integers(2, 5)))]
        m = planted_blocks(rng, sizes, 0.6, density_cross=0.05)
    comms = _random_communities(rng, m)
    assert (community_tree(m, comms).to_json()
            == _community_reference(m, comms).to_json())


def test_community_tree_matches_set_reference_on_fixed_cases():
    pairs = [(0, 0), (0, 1), (1, 0), (1, 2), (2, 2), (2, 3), (3, 2), (3, 3),
             (0, 3)]
    m = RatingMatrix(4, 4, [p[0] for p in pairs], [p[1] for p in pairs],
                     np.ones(len(pairs)))
    for comms in ([{0, 1, 4, 5}, {1, 2, 3, 6, 7}], [{0, 4}, {1, 5}, {2, 3}],
                  [{0}, {7}], [list(range(8))], [{3, 2, 6, 7}, {1, 0, 5}]):
        assert (community_tree(m, comms).to_json()
                == _community_reference(m, comms).to_json())
    for bad in ([{0, 4}, set()], [{0, 4}, {0, 4}], [{0, 8}, {1}],
                [{-1, 0}, {1}], []):
        with pytest.raises(LMFError) as want:
            _community_reference(m, bad)
        with pytest.raises(type(want.value), match=re.escape(str(want.value))):
            community_tree(m, bad)
