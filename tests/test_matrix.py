import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from lmf import (
    IndexPermutation,
    RatingMatrix,
    SubmatrixView,
    apply_permutation,
    avg_density,
    density,
    load_ratings,
    restricted_density,
    to_bipartite,
)
from lmf.errors import (
    DegenerateInputError,
    DegenerateViewError,
    DuplicateEntryError,
    EmptyInputError,
    OutOfBlockError,
    RatingFormatError,
    ShapeError,
)

from conftest import block_diag_matrix


# -- loading -------------------------------------------------------------------

def test_load_single_line(tmp_path):
    p = tmp_path / "r.tsv"
    p.write_text("a b 5\n")
    m = load_ratings(p)
    assert m.shape == (1, 1)
    assert m.nnz == 1
    assert m.vals[0] == 5.0
    assert density(m.full_view()) == 1.0
    assert m.row_labels == ["a"] and m.col_labels == ["b"]


def test_load_duplicate_pair_rejected(tmp_path):
    p = tmp_path / "r.tsv"
    p.write_text("a b 5\n# a comment\nc b 4\na b 5\n")
    with pytest.raises(DuplicateEntryError) as err:
        load_ratings(p)
    assert str(err.value) == f"{p}:4: duplicate rating for user 'a', item 'b'"
    assert err.value.exit_code == 2


@pytest.mark.parametrize("text, lineno, error", [
    ("a b 5\nc d nan\na b 4\n", 2, RatingFormatError),
    ("a b 5\nc d 1\na b 4\nc e inf\n", 3, DuplicateEntryError),
])
def test_load_names_the_earlier_of_a_repeat_and_a_non_finite_rating(
        tmp_path, text, lineno, error):
    p = tmp_path / "r.tsv"
    p.write_text(text)
    with pytest.raises(error) as err:
        load_ratings(p)
    assert str(err.value).startswith(f"{p}:{lineno}: ")


def test_load_malformed_line_reports_lineno(tmp_path):
    p = tmp_path / "r.tsv"
    p.write_text("a b 5\na b\n")
    with pytest.raises(RatingFormatError) as err:
        load_ratings(p)
    assert err.value.lineno == 2

    p.write_text("a b five\n")
    with pytest.raises(RatingFormatError):
        load_ratings(p)


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_load_non_finite_rating_rejected(tmp_path, raw):
    p = tmp_path / "r.tsv"
    p.write_text(f"a b 5\n# note\n\nc d {raw} 881250949\ne f 3\n")
    with pytest.raises(RatingFormatError) as err:
        load_ratings(p)
    assert err.value.exit_code == 2 and err.value.lineno == 4
    assert str(err.value).startswith(f"{p}:4: ")
    assert "'c'" in str(err.value) and "'d'" in str(err.value)


def test_load_empty_file(tmp_path):
    p = tmp_path / "r.tsv"
    p.write_text("# only a comment\n\n")
    with pytest.raises(EmptyInputError):
        load_ratings(p)


def test_load_mixed_separators_timestamp_and_order(tmp_path):
    p = tmp_path / "r.tsv"
    p.write_text("# comment\nu2\tit9\t4\t881250949\nu1 it9  3\nu2   it3 5\n")
    m = load_ratings(p)
    assert m.shape == (2, 2)
    # first-appearance order: u2 -> 0, u1 -> 1; it9 -> 0, it3 -> 1
    assert m.row_labels == ["u2", "u1"]
    assert m.col_labels == ["it9", "it3"]
    assert m.nnz == 3


# -- density calculus -----------------------------------------------------------

def _figure_density_matrix():
    """9 rows x 7 cols laid out so that the shaded 5x5 corner holds 9
    entries, column 4 holds 5 entries over the 9 rows, and row 7 has 2
    entries inside the shaded column range."""
    pairs = {
        (0, 0), (0, 3), (1, 1), (1, 4), (2, 2), (3, 0), (3, 2), (4, 1), (4, 4),
        (0, 5), (2, 6),
        (5, 4), (6, 4), (8, 4),
        (7, 1), (7, 3),
        (5, 6), (6, 5), (8, 6), (7, 5),
    }
    pairs = sorted(pairs)
    r = [p[0] for p in pairs]
    c = [p[1] for p in pairs]
    return RatingMatrix(9, 7, r, c, np.ones(len(pairs)))


def test_density_shaded_block_9_over_25():
    m = _figure_density_matrix()
    block = SubmatrixView(m, np.arange(5), np.arange(5))
    assert density(block) == 9 / 25


def test_density_zero_entry_view():
    m = _figure_density_matrix()
    # rows 5..8 x cols 0 has no entries
    v = SubmatrixView(m, np.array([5, 6, 8]), np.array([0]))
    assert density(v) == 0.0


def test_density_degenerate_view():
    m = _figure_density_matrix()
    with pytest.raises(DegenerateViewError):
        density(SubmatrixView(m, np.empty(0, dtype=int), np.arange(3)))


def test_restricted_density_figure_values():
    m = _figure_density_matrix()
    # column 4 counted over all 9 rows: entries in rows 1,4,5,6,8 -> 5/9
    ctx = SubmatrixView(m, np.arange(9), np.arange(7))
    assert restricted_density(ctx, "col", 4) == 5 / 9
    # row 7 restricted to the 5-column shaded range: entries at cols 1,3 -> 2/5
    shaded = SubmatrixView(m, np.arange(5, 9), np.arange(5))
    assert restricted_density(shaded, "row", 7) == 2 / 5


def test_restricted_density_zero_and_errors():
    m = _figure_density_matrix()
    block = SubmatrixView(m, np.array([5, 6, 8]), np.array([0, 1]))
    assert restricted_density(block, "row", 5) == 0.0
    with pytest.raises(OutOfBlockError):
        restricted_density(block, "row", 0)
    with pytest.raises(OutOfBlockError):
        restricted_density(block, "col", 4)
    with pytest.raises(ValueError):
        restricted_density(block, "diag", 0)


def test_avg_density_single_view_identity():
    m = _figure_density_matrix()
    v = SubmatrixView(m, np.arange(5), np.arange(5))
    assert avg_density([v]) == density(v)


def test_avg_density_pools_counts_not_means():
    rows = [0, 0, 1, 1]
    cols = [0, 1, 0, 1]
    m = RatingMatrix(4, 4, rows, cols, np.ones(4))
    full = SubmatrixView(m, np.array([0, 1]), np.array([0, 1]))   # 4 entries
    empty = SubmatrixView(m, np.array([2, 3]), np.array([2, 3]))  # 0 entries
    # direct formula: (4 + 0) / (4 + 4)
    assert avg_density([full, empty]) == (4 + 0) / (4 + 4)

    one = SubmatrixView(m, np.array([0]), np.array([0]))          # area 1, dense
    three = SubmatrixView(m, np.array([2]), np.array([1, 2, 3]))  # area 3, empty
    assert density(one) == 1.0 and density(three) == 0.0
    assert avg_density([one, three]) == (1 + 0) / (1 + 3)
    assert avg_density([one, three]) != (1.0 + 0.0) / 2


def test_avg_density_empty_list():
    with pytest.raises(DegenerateInputError):
        avg_density([])


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.integers(2, 12), st.integers(0, 10_000),
       st.integers(1, 4), st.integers(1, 4))
def test_avg_density_of_partition_equals_full_density(nr, nc, seed, gr, gc):
    rng = np.random.default_rng(seed)
    mask = rng.random((nr, nc)) < 0.4
    mask[rng.integers(nr), rng.integers(nc)] = True
    r, c = np.nonzero(mask)
    m = RatingMatrix(nr, nc, r, c, np.ones(r.size))
    row_groups = np.array_split(rng.permutation(nr), min(gr, nr))
    col_groups = np.array_split(rng.permutation(nc), min(gc, nc))
    views = [SubmatrixView(m, rg, cg)
             for rg in row_groups for cg in col_groups
             if rg.size and cg.size]
    assert avg_density(views) == pytest.approx(density(m.full_view()), abs=0)


# -- permutations -----------------------------------------------------------------

def test_identity_permutation_is_noop():
    m = _figure_density_matrix()
    p = IndexPermutation.identity(m.n_rows, m.n_cols)
    assert apply_permutation(m, p) == m


def test_swap_rows_moves_single_entry():
    m = RatingMatrix(2, 2, [0], [0], [3.0])
    p = IndexPermutation(np.array([1, 0]), np.array([0, 1]))
    out = apply_permutation(m, p)
    assert out.rows.tolist() == [1] and out.cols.tolist() == [0]
    assert out.vals.tolist() == [3.0]


def test_permutation_sends_bridges_last():
    # rows 3 and 8 and column 6 (the bridge vectors of the two-community
    # layout) moved to the trailing positions
    from conftest import figure_bridge_matrix

    m = figure_bridge_matrix()
    rperm = np.arange(10)
    rperm[[3, 8]] = [8, 9]
    rperm[[4, 5, 6, 7, 9]] = [3, 4, 5, 6, 7]
    cperm = np.arange(10)
    cperm[6] = 9
    cperm[[7, 8, 9]] = [6, 7, 8]
    out = apply_permutation(m, IndexPermutation(rperm, cperm))
    assert out.nnz == m.nnz
    # every entry of original rows 3/8 now lives in the last two rows
    moved = set(out.cols[out.rows >= 8].tolist())
    orig = set(cperm[m.cols[(m.rows == 3) | (m.rows == 8)]].tolist())
    assert moved == orig
    assert density(out.full_view()) == density(m.full_view())


def test_permutation_shape_mismatch():
    m = RatingMatrix(2, 2, [0], [0], [3.0])
    with pytest.raises(ShapeError):
        apply_permutation(m, IndexPermutation.identity(3, 2))
    with pytest.raises(ShapeError):
        IndexPermutation(np.array([0, 0]), np.array([0, 1]))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 10_000))
def test_permutation_round_trip(nr, nc, seed):
    rng = np.random.default_rng(seed)
    mask = rng.random((nr, nc)) < 0.35
    mask[rng.integers(nr), rng.integers(nc)] = True
    r, c = np.nonzero(mask)
    m = RatingMatrix(nr, nc, r, c, rng.integers(1, 6, r.size).astype(float))
    p = IndexPermutation(rng.permutation(nr), rng.permutation(nc))
    out = apply_permutation(apply_permutation(m, p), p.inverse())
    assert out == m
    assert density(apply_permutation(m, p).full_view()) == density(m.full_view())


# -- construction invariants ---------------------------------------------------------

def test_duplicate_entries_rejected_at_construction():
    with pytest.raises(DuplicateEntryError):
        RatingMatrix(2, 2, [0, 0], [1, 1], [1.0, 2.0])


def _random_entries(rng, n_rows, n_cols, nnz):
    """Unsorted distinct cells, holding the last row and the last column."""
    cells = rng.choice(n_rows * n_cols, size=nnz, replace=False)
    cells[:2] = [n_rows * n_cols - 1, (n_rows - 1) * n_cols]
    cells = rng.permutation(np.unique(cells))
    return cells // n_cols, cells % n_cols


@pytest.mark.parametrize("seed", range(6))
def test_packed_key_sort_equals_lexsort(seed):
    # reference for the one-key sorts of the constructor: the entries and
    # the column order are those of the two-key lexsort
    rng = np.random.default_rng(seed)
    for n_rows, n_cols in [(1, 900), (900, 1), (37, 53),
                           (int(rng.integers(2, 3000)),
                            int(rng.integers(2, 3000)))]:
        nnz = int(rng.integers(2, min(n_rows * n_cols, 5000) + 1))
        rows, cols = _random_entries(rng, n_rows, n_cols, nnz)
        vals = rng.random(rows.size)
        m = RatingMatrix(n_rows, n_cols, rows, cols, vals)
        order = np.lexsort((cols, rows))
        assert np.array_equal(m.rows, rows[order])
        assert np.array_equal(m.cols, cols[order])
        assert np.array_equal(m.vals, vals[order])
        assert np.array_equal(m._col_order, np.lexsort((m.rows, m.cols)))


@pytest.mark.parametrize("seed", range(4))
def test_duplicate_named_as_by_lexsort(seed):
    # the message names the first repeated cell in (row, col) order
    rng = np.random.default_rng(seed)
    n_rows, n_cols = int(rng.integers(2, 60)), int(rng.integers(2, 60))
    rows, cols = _random_entries(rng, n_rows, n_cols,
                                 min(n_rows * n_cols, 200))
    again = rng.choice(rows.size, size=3, replace=False)
    rows, cols = np.append(rows, rows[again]), np.append(cols, cols[again])
    order = np.lexsort((cols, rows))
    r, c = rows[order], cols[order]
    k = np.flatnonzero((r[1:] == r[:-1]) & (c[1:] == c[:-1]))[0]
    with pytest.raises(DuplicateEntryError) as err:
        RatingMatrix(n_rows, n_cols, rows, cols, np.ones(rows.size))
    assert str(err.value) == f"duplicate entry at (row={r[k]}, col={c[k]})"


@pytest.mark.parametrize("labels, message", [
    ({"row_labels": ["p", "q", "p"]}, "row label 'p' is repeated"),
    ({"col_labels": ["y", "y"]}, "col label 'y' is repeated"),
])
def test_repeated_labels_rejected_at_construction(labels, message):
    with pytest.raises(ShapeError) as err:
        RatingMatrix(3, 2, [0, 2], [0, 1], [1.0, 2.0], **labels)
    assert str(err.value) == message
    assert err.value.exit_code == 2


def test_out_of_range_entry_rejected():
    with pytest.raises(ShapeError):
        RatingMatrix(2, 2, [0, 2], [0, 0], [1.0, 1.0])


def test_adjacency_indices_agree_with_entries():
    rng = np.random.default_rng(3)
    mask = rng.random((8, 11)) < 0.3
    r, c = np.nonzero(mask)
    m = RatingMatrix(8, 11, r, c, np.arange(r.size, dtype=float))
    via_rows = {(i, j) for i in range(8) for j in m.row_cols(i)}
    via_cols = {(i, j) for j in range(11) for i in m.col_rows(j)}
    direct = set(zip(m.rows.tolist(), m.cols.tolist()))
    assert via_rows == direct == via_cols


# -- bipartite conversion --------------------------------------------------------------

def test_to_bipartite_single_entry():
    m = RatingMatrix(1, 1, [0], [0], [5.0])
    g = to_bipartite(m)
    assert g.n_nodes == 2 and g.n_edges == 1


def test_to_bipartite_counts_and_isolated_row():
    m = RatingMatrix(3, 2, [0, 1], [0, 1], [1.0, 2.0])  # row 2 empty
    g = to_bipartite(m)
    assert g.n_nodes == 5 and g.n_edges == 2
    assert g.neighbors(2).size == 0
    # edges join R-nodes to offset C-nodes only
    assert (g.edge_r < 3).all() and (g.edge_c >= 3).all()


def test_component_count_matches_zero_border_block_count():
    """Bipartite component count equals the number of diagonal blocks a
    zero-border block-diagonal permutation can produce."""
    from lmf import gpvs_bisect
    from lmf.bbdf import _view_graph
    from lmf.errors import NoSplitError, TooSmallError

    rng = np.random.default_rng(42)
    for _ in range(100):
        k = int(rng.integers(1, 5))
        shape = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        m = block_diag_matrix(rng, [shape] * k, density=0.7)

        # oracle: scipy component search on the raw bipartite adjacency
        n = m.n_rows + m.n_cols
        adj = csr_matrix((np.ones(m.nnz), (m.rows, m.cols + m.n_rows)),
                         shape=(n, n))
        n_comp, _ = connected_components(adj, directed=False)
        assert n_comp == k

        # recursive bisection accepting only empty separators
        def zero_border_leaves(view):
            if view.rows.size + view.cols.size < 2:
                return 1
            g, _ = _view_graph(view)
            try:
                part = gpvs_bisect(g, 0.3, seed=1)
            except (NoSplitError, TooSmallError):
                return 1
            if part.separator.size:
                return 1
            total = 0
            for p in part.parts:
                nr = view.rows.size
                p = np.sort(p)
                sub = SubmatrixView(m, view.rows[p[p < nr]],
                                    view.cols[p[p >= nr] - nr])
                total += zero_border_leaves(sub)
            return total

        assert zero_border_leaves(m.full_view()) == k
