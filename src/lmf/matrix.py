"""Sparse rating-matrix core: immutable storage, permutations, submatrix
views, and the paper's density definitions (``density``, ``avg_density``,
``restricted_density``). The reorderings keep running entry counts of
their own instead of calling those; the definitions are public for
analysing a reordering and are what the tests state the paper's density
claims with.

A matrix is kept as a coordinate list canonically sorted by (row, col),
plus two adjacency indices (by row and by column) so that per-vector
queries and permutations stay cheap. Values are float64 even for integer
star scales; factorizers need real arithmetic anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateInputError,
    DegenerateViewError,
    DuplicateEntryError,
    EmptyInputError,
    OutOfBlockError,
    RatingFormatError,
    ShapeError,
)


class RatingMatrix:
    """Immutable sparse matrix of observed ratings.

    Entries are unique (row, col) pairs with finite values; duplicates and
    nan/inf ratings are hard errors at construction because they would
    corrupt every density statistic and fit downstream. Safe to share
    across threads once built.
    """

    __slots__ = (
        "n_rows", "n_cols", "rows", "cols", "vals",
        "row_labels", "col_labels",
        "_row_ptr", "_col_ptr", "_col_order",
    )

    def __init__(self, n_rows, n_cols, rows, cols, vals,
                 row_labels=None, col_labels=None):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape):
            raise ShapeError("rows, cols and vals must have identical length")
        if rows.size:
            if rows.min() < 0 or rows.max() >= n_rows:
                raise ShapeError("row index out of range")
            if cols.min() < 0 or cols.max() >= n_cols:
                raise ShapeError("col index out of range")

        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if rows.size > 1:
            same = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
            if same.any():
                k = int(np.nonzero(same)[0][0])
                raise DuplicateEntryError(
                    f"duplicate entry at (row={rows[k]}, col={cols[k]})")

        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.rows = rows
        self.cols = cols
        self.vals = vals
        self.row_labels = list(row_labels) if row_labels is not None \
            else [str(i) for i in range(n_rows)]
        self.col_labels = list(col_labels) if col_labels is not None \
            else [str(j) for j in range(n_cols)]
        if len(self.row_labels) != self.n_rows or len(self.col_labels) != self.n_cols:
            raise ShapeError("label count does not match dimension")
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            k = int(bad[0])
            raise RatingFormatError(
                None, None,
                f"non-finite rating {vals[k]} for row {self.row_labels[rows[k]]!r}, "
                f"col {self.col_labels[cols[k]]!r}")

        self._row_ptr = np.searchsorted(rows, np.arange(n_rows + 1))
        self._col_order = np.lexsort((rows, cols))
        self._col_ptr = np.searchsorted(cols[self._col_order],
                                        np.arange(n_cols + 1))

    # -- basic queries ----------------------------------------------------

    @property
    def nnz(self):
        return int(self.rows.size)

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    @property
    def area(self):
        return self.n_rows * self.n_cols

    def row_cols(self, i):
        """Sorted column indices observed in row ``i``."""
        return self.cols[self._row_ptr[i]:self._row_ptr[i + 1]]

    def row_vals(self, i):
        return self.vals[self._row_ptr[i]:self._row_ptr[i + 1]]

    def col_rows(self, j):
        """Sorted row indices observed in column ``j``."""
        sel = self._col_order[self._col_ptr[j]:self._col_ptr[j + 1]]
        return self.rows[sel]

    def col_vals(self, j):
        sel = self._col_order[self._col_ptr[j]:self._col_ptr[j + 1]]
        return self.vals[sel]

    def row_counts(self):
        return np.diff(self._row_ptr)

    def col_counts(self):
        return np.diff(self._col_ptr)

    def value_range(self):
        if self.nnz == 0:
            raise EmptyInputError("matrix has no entries")
        return float(self.vals.min()), float(self.vals.max())

    def full_view(self):
        return SubmatrixView(self, np.arange(self.n_rows), np.arange(self.n_cols))

    def __eq__(self, other):
        if not isinstance(other, RatingMatrix):
            return NotImplemented
        return (self.shape == other.shape
                and np.array_equal(self.rows, other.rows)
                and np.array_equal(self.cols, other.cols)
                and np.array_equal(self.vals, other.vals))

    def __hash__(self):  # identity hashing; matrices are mutable-free but large
        return id(self)

    def __repr__(self):
        return (f"RatingMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz}, "
                f"density={self.nnz / self.area if self.area else 0:.4g})")


@dataclass(frozen=True)
class IndexPermutation:
    """A pair of bijections on row and column index ranges."""

    row_perm: np.ndarray
    col_perm: np.ndarray

    def __post_init__(self):
        for name, p in (("row_perm", self.row_perm), ("col_perm", self.col_perm)):
            p = np.asarray(p, dtype=np.int64)
            object.__setattr__(self, name, p)
            if not np.array_equal(np.sort(p), np.arange(p.size)):
                raise ShapeError(f"{name} is not a bijection")

    @classmethod
    def identity(cls, n_rows, n_cols):
        return cls(np.arange(n_rows), np.arange(n_cols))

    def inverse(self):
        ri = np.empty_like(self.row_perm)
        ci = np.empty_like(self.col_perm)
        ri[self.row_perm] = np.arange(self.row_perm.size)
        ci[self.col_perm] = np.arange(self.col_perm.size)
        return IndexPermutation(ri, ci)


class SubmatrixView:
    """An ordered (rows x cols) window into a backing matrix.

    Index sets must be duplicate-free subsets of the backing ranges.
    The view never copies entry data; membership masks are built lazily.
    """

    __slots__ = ("matrix", "rows", "cols", "_row_mask", "_col_mask")

    def __init__(self, matrix, rows, cols):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= matrix.n_rows):
            raise ShapeError("view row index out of range")
        if cols.size and (cols.min() < 0 or cols.max() >= matrix.n_cols):
            raise ShapeError("view col index out of range")
        if np.unique(rows).size != rows.size or np.unique(cols).size != cols.size:
            raise ShapeError("view index sets must be duplicate-free")
        self.matrix = matrix
        self.rows = rows
        self.cols = cols
        self._row_mask = None
        self._col_mask = None

    @property
    def row_mask(self):
        if self._row_mask is None:
            m = np.zeros(self.matrix.n_rows, dtype=bool)
            m[self.rows] = True
            self._row_mask = m
        return self._row_mask

    @property
    def col_mask(self):
        if self._col_mask is None:
            m = np.zeros(self.matrix.n_cols, dtype=bool)
            m[self.cols] = True
            self._col_mask = m
        return self._col_mask

    @property
    def area(self):
        return int(self.rows.size) * int(self.cols.size)

    def entry_indices(self):
        """Indices (into the backing coordinate arrays) of entries inside."""
        if self.rows.size == 0 or self.cols.size == 0:
            return np.empty(0, dtype=np.int64)
        m = self.matrix
        inside = self.row_mask[m.rows] & self.col_mask[m.cols]
        return np.nonzero(inside)[0]

    @property
    def nnz(self):
        return int(self.entry_indices().size)

    def row_count_within(self, i):
        """Entries of backing row ``i`` that fall inside this view's columns."""
        return int(self.col_mask[self.matrix.row_cols(i)].sum())

    def col_count_within(self, j):
        return int(self.row_mask[self.matrix.col_rows(j)].sum())

    def __repr__(self):
        return f"SubmatrixView({self.rows.size}x{self.cols.size} of {self.matrix!r})"


# -- density calculus ------------------------------------------------------

def density(view):
    """Entry count over area for a non-empty view."""
    if view.rows.size == 0 or view.cols.size == 0:
        raise DegenerateViewError("density of a view with no rows or no cols")
    return view.nnz / view.area


def avg_density(views):
    """Pooled density of several views: sum of counts over sum of areas.

    This is *not* the mean of per-view densities; large sparse views pull
    the pooled figure down in proportion to their area.
    """
    views = list(views)
    if not views:
        raise DegenerateInputError("avg_density over an empty list of views")
    total_n = 0
    total_area = 0
    for v in views:
        if v.rows.size == 0 or v.cols.size == 0:
            raise DegenerateViewError("avg_density over a degenerate view")
        total_n += v.nnz
        total_area += v.area
    return total_n / total_area


def restricted_density(block, axis, index):
    """Density of one row or column counted only inside ``block``.

    Args:
        block: the submatrix the vector is restricted to.
        axis: ``"row"`` or ``"col"``.
        index: backing-matrix index of the vector; it must belong to the
            block's own index set on that axis.
    """
    if axis == "row":
        if not (block.rows == index).any():
            raise OutOfBlockError(f"row {index} is not inside the block")
        if block.cols.size == 0:
            raise DegenerateViewError("block has no columns")
        return block.row_count_within(index) / block.cols.size
    if axis == "col":
        if not (block.cols == index).any():
            raise OutOfBlockError(f"col {index} is not inside the block")
        if block.rows.size == 0:
            raise DegenerateViewError("block has no rows")
        return block.col_count_within(index) / block.rows.size
    raise ConfigError(f"axis must be 'row' or 'col', got {axis!r}")


# -- permutation -----------------------------------------------------------

def apply_permutation(m, p):
    """Relocate entry (i, j, v) to (row_perm[i], col_perm[j], v)."""
    if p.row_perm.size != m.n_rows or p.col_perm.size != m.n_cols:
        raise ShapeError("permutation dimensions do not match the matrix")
    new_row_labels = [None] * m.n_rows
    new_col_labels = [None] * m.n_cols
    for i, t in enumerate(p.row_perm):
        new_row_labels[t] = m.row_labels[i]
    for j, t in enumerate(p.col_perm):
        new_col_labels[t] = m.col_labels[j]
    return RatingMatrix(
        m.n_rows, m.n_cols,
        p.row_perm[m.rows], p.col_perm[m.cols], m.vals,
        row_labels=new_row_labels, col_labels=new_col_labels,
    )


def _positions(index, n):
    """The position of each of ``0..n-1`` in ``index``, or -1 where it is
    absent."""
    pos = np.full(n, -1, dtype=np.int64)
    pos[index] = np.arange(len(index))
    return pos


# -- bipartite conversion ---------------------------------------------------

def to_bipartite(m):
    """One R-node per row, one C-node per column, one edge per entry.

    C-node ids are offset by ``n_rows``; rows or columns with no entries
    become isolated nodes.
    """
    from .partition import BipartiteGraph

    return BipartiteGraph.from_entries(m.n_rows, m.n_cols, m.rows, m.cols)


# -- loading ----------------------------------------------------------------

def _records(path, min_fields):
    """``(lineno, fields)`` per record line of a whitespace-separated UTF-8
    file, skipping blank lines and ``#`` comments. A record with fewer than
    ``min_fields`` fields, or bytes that are not UTF-8, raise
    :class:`RatingFormatError` naming the file and line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                fields = line.split()
                if not fields or fields[0].startswith("#"):
                    continue
                if len(fields) < min_fields:
                    raise RatingFormatError(
                        path, lineno,
                        f"expected at least {min_fields} fields, got {len(fields)}")
                yield lineno, fields
    except UnicodeDecodeError:
        # the text reader decodes whole chunks, so find the line by bytes
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise RatingFormatError(path, lineno,
                                            f"not UTF-8: {exc}") from None
        raise


def load_ratings(path):
    """Parse a rating log into a densely re-indexed :class:`RatingMatrix`.

    Each record line holds ``user_id item_id rating [timestamp]`` separated
    by tabs or runs of spaces; a trailing timestamp field is ignored and
    lines starting with ``#`` are comments. Opaque ids are mapped to dense
    indices in first-appearance order and kept as labels. A short line, a
    rating that is not a finite number, a repeated pair or bytes that are
    not UTF-8 raise an :class:`LMFError` naming the file and line.
    """
    row_ids: dict[str, int] = {}
    col_ids: dict[str, int] = {}
    rows, cols, vals = [], [], []
    seen = set()

    for lineno, fields in _records(path, 3):
        user, item, raw = fields[0], fields[1], fields[2]
        try:
            value = float(raw)
        except ValueError:
            raise RatingFormatError(path, lineno,
                                    f"rating {raw!r} is not numeric") from None
        i = row_ids.setdefault(user, len(row_ids))
        j = col_ids.setdefault(item, len(col_ids))
        if (i, j) in seen:
            raise DuplicateEntryError(
                f"{path}:{lineno}: duplicate rating for user {user!r}, item {item!r}")
        seen.add((i, j))
        rows.append(i)
        cols.append(j)
        vals.append(value)

    if not rows:
        raise EmptyInputError(f"{path}: no rating records found")
    try:
        return RatingMatrix(
            len(row_ids), len(col_ids), rows, cols, vals,
            row_labels=list(row_ids), col_labels=list(col_ids),
        )
    except RatingFormatError:
        # the matrix found a non-finite rating; only now look for its line
        for lineno, (user, item, raw, *_) in _records(path, 3):
            if not np.isfinite(float(raw)):
                raise RatingFormatError(
                    path, lineno, f"non-finite rating {raw!r} for user "
                    f"{user!r}, item {item!r}") from None
        raise
