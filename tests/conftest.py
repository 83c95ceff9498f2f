import functools
import os

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

import lmf
import lmf.bbdf
import lmf.partition
from lmf import RatingMatrix

ML100K_ENV = "LMF_ML100K"
_HERE = os.path.dirname(__file__)
_ML100K_CANDIDATES = [
    os.environ.get(ML100K_ENV, ""),
    os.path.join(_HERE, "data", "ml-100k", "u.data"),
    os.path.join(_HERE, "..", "data", "ml-100k", "u.data"),
]


def ml100k_path():
    for p in _ML100K_CANDIDATES:
        if p and os.path.exists(p):
            return p
    return None


requires_ml100k = pytest.mark.skipif(
    ml100k_path() is None,
    reason="MovieLens-100K not available: place u.data at data/ml-100k/ or "
           f"set ${ML100K_ENV} (no network in this environment)")


@pytest.fixture(scope="session")
def ml100k():
    path = ml100k_path()
    if path is None:
        pytest.skip("MovieLens-100K not available")
    from lmf import load_ratings

    return load_ratings(path)


def random_sparse(rng, n_rows, n_cols, density, values=(1, 6)):
    """Uniform random sparse matrix with at least one entry."""
    mask = rng.random((n_rows, n_cols)) < density
    if not mask.any():
        mask[rng.integers(n_rows), rng.integers(n_cols)] = True
    r, c = np.nonzero(mask)
    vals = rng.integers(values[0], values[1], size=r.size).astype(float)
    return RatingMatrix(n_rows, n_cols, r, c, vals)


def planted_blocks(rng, sizes, density_in, density_cross=0.0, values=(1, 6),
                   bridge_rows=0, bridge_deg=2):
    """Block-diagonal community matrix, optionally with noise entries
    crossing blocks and extra bridge rows touching every block."""
    row_off, col_off = [0], [0]
    for nr, nc in sizes:
        row_off.append(row_off[-1] + nr)
        col_off.append(col_off[-1] + nc)
    n_rows, n_cols = row_off[-1] + bridge_rows, col_off[-1]
    entries = set()
    for b, (nr, nc) in enumerate(sizes):
        got = False
        for i in range(nr):
            for j in range(nc):
                if rng.random() < density_in:
                    entries.add((row_off[b] + i, col_off[b] + j))
                    got = True
        if not got:
            entries.add((row_off[b], col_off[b]))
    if density_cross > 0:
        for a in range(len(sizes)):
            for b in range(len(sizes)):
                if a == b:
                    continue
                nr, nc = sizes[a][0], sizes[b][1]
                for i in range(nr):
                    for j in range(nc):
                        if rng.random() < density_cross:
                            entries.add((row_off[a] + i, col_off[b] + j))
    for t in range(bridge_rows):
        i = row_off[-1] + t
        for b in range(len(sizes)):
            cols = rng.choice(sizes[b][1], size=min(bridge_deg, sizes[b][1]),
                              replace=False)
            for j in cols:
                entries.add((i, col_off[b] + int(j)))
    entries = sorted(entries)
    r = [e[0] for e in entries]
    c = [e[1] for e in entries]
    vals = rng.integers(values[0], values[1], size=len(entries)).astype(float)
    return RatingMatrix(n_rows, n_cols, r, c, vals)


def ml_shaped(rng, users=943, items=1682, ratings=80_000, communities=5,
              min_deg=16, max_deg=400, bridges=0.04, popular=0.02, cross=0.05):
    """Rating matrix with the structure of an ML-100K training fold: users
    and items in equal planted communities, Zipf-like item popularity,
    log-normal (heavy-tailed) user degrees, a share of bridge users who
    rate two communities and popular items that every community rates.
    Ratings are uniform on 1..5; only the structure is ML-shaped."""
    K = communities
    user_comm = rng.permutation(np.arange(users) % K)
    item_comm = rng.permutation(np.arange(items) % K)
    pop = 1.0 / (rng.permutation(items) + 10.0) ** 0.9
    law = np.where(item_comm == np.arange(K)[:, None], pop, 0.0)
    top = np.argsort(-pop)[:round(popular * items)]
    law[:, top] = pop[top]
    law = ((1.0 - cross) * law / law.sum(axis=1, keepdims=True)
           + cross * pop / pop.sum())
    taste = law[user_comm]
    bridge = rng.choice(users, round(bridges * users), replace=False)
    other = (user_comm[bridge] + rng.integers(1, K, bridge.size)) % K
    taste[bridge] = 0.5 * (taste[bridge] + law[other])
    w = rng.lognormal(0.0, 1.0, users)
    deg = np.minimum(min_deg + (ratings - min_deg * users) * w / w.sum(),
                     max_deg).astype(np.int64)
    rows = np.repeat(np.arange(users), deg)
    cols = np.concatenate([rng.choice(items, d, replace=False, p=p)
                           for d, p in zip(deg, taste)])
    vals = rng.integers(1, 6, rows.size).astype(float)
    return RatingMatrix(users, items, rows, cols, vals)


def figure_bridge_matrix():
    """Two dense communities joined by one bridge row (R9), one bridge
    column (C7) and one cross-shopping row (R4); the unique minimum vertex
    separator of its bipartite graph is {R4, R9, C7} (0-based: 3, 8, 16).
    Community A: rows {0,1,2,3} x cols {0,1,2,6}; community B:
    rows {4,5,6,7,9} x cols {3,4,5,7,8,9}; row 8 bridges both."""
    pairs = set()
    for i in range(3):
        for j in range(3):
            pairs.add((i, j))
    pairs |= {(0, 6), (1, 6), (2, 6)}          # C7's community-A entries
    pairs |= {(3, 0), (3, 1), (3, 2)}          # R4 inside A
    pairs |= {(3, 7), (3, 9)}                  # R4 shopping in B
    pairs |= {(8, 0), (8, 1), (8, 2)}          # R9 inside A
    pairs |= {(8, 4), (8, 5)}                  # R9 shopping in B
    pairs |= {(7, 6), (9, 6)}                  # C7 bought by B rows
    for i in (4, 5, 6, 7, 9):
        for j in (3, 4, 5, 7, 8, 9):
            pairs.add((i, j))
    pairs = sorted(pairs)
    r = [p[0] for p in pairs]
    c = [p[1] for p in pairs]
    return RatingMatrix(10, 10, r, c, np.ones(len(pairs)))


def block_diag_matrix(rng, block_shapes, density=0.6, values=(1, 6),
                      connected=True):
    """Exactly block-diagonal matrix; with ``connected`` each block's
    bipartite graph is one component (spanning path added)."""
    row_off, col_off = 0, 0
    rows, cols, vals = [], [], []
    for nr, nc in block_shapes:
        seen = set()
        if connected:
            # zig-zag chain R0-C0-R1-C1-... plus tails: one component
            for i in range(nr):
                seen.add((i, min(i, nc - 1)))
                if i >= 1:
                    seen.add((i, min(i - 1, nc - 1)))
            for j in range(nc):
                seen.add((min(j, nr - 1), j))
        for i in range(nr):
            for j in range(nc):
                if rng.random() < density:
                    seen.add((i, j))
        for (i, j) in sorted(seen):
            rows.append(row_off + i)
            cols.append(col_off + j)
            vals.append(float(rng.integers(values[0], values[1])))
        row_off += nr
        col_off += nc
    return RatingMatrix(row_off, col_off, rows, cols, vals)


# -- partition self-checks ------------------------------------------------------
#
# Every ``gpvs_bisect`` and ``gpes_bisect`` call made while the tests run is
# verified: the names are wrapped in every module that binds them when this
# file is imported, before any test module imports them. The checks raise
# ``AssertionError`` explicitly, so ``python -O`` does not strip them.

def _require(ok, what):
    if not ok:
        raise AssertionError(what)


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
        _require(p.size > 0, "empty part")
        _require((side[p] == -1).all(), "parts overlap")
        side[p] = k
    _require((side >= 0).all(), "parts do not cover all nodes")
    crossing = side[g.edge_r] != side[g.edge_c]
    expect = np.stack([g.edge_r[crossing], g.edge_c[crossing]], axis=1) \
        if crossing.any() else np.empty((0, 2), dtype=np.int64)
    got = part.cut_edges
    _require(got.shape == expect.shape, "cut_edges != crossing edges")
    if got.size:
        eo = np.lexsort((expect[:, 1], expect[:, 0]))
        go = np.lexsort((got[:, 1], got[:, 0]))
        _require(np.array_equal(expect[eo], got[go]),
                 "cut_edges != crossing edges")
    labels = _component_labels(g.n_nodes, g.edge_r, g.edge_c, edge_keep=~crossing)
    _require(_groups_are_pure(labels, side), "a component spans two parts")


def _verify_vertex_partition(g, part):
    tag = np.full(g.n_nodes, -1, dtype=np.int64)
    for k, p in enumerate(part.parts):
        _require(p.size > 0, "empty part")
        _require((tag[p] == -1).all(), "parts overlap")
        tag[p] = k
    _require((tag[part.separator] == -1).all(), "separator intersects a part")
    tag[part.separator] = -2
    _require((tag != -1).all(), "parts + separator must cover all nodes")
    keep = tag != -2
    labels = _component_labels(g.n_nodes, g.edge_r, g.edge_c, node_keep=keep)
    _require(_groups_are_pure(labels, tag, keep=keep),
             "a component spans two parts")


def _verified(bisect, verify):
    @functools.wraps(bisect)
    def checked(g, *args, **kwargs):
        part = bisect(g, *args, **kwargs)
        verify(g, part)
        return part
    return checked


for _name, _verify in (("gpvs_bisect", _verify_vertex_partition),
                       ("gpes_bisect", _verify_edge_partition)):
    _checked = _verified(getattr(lmf.partition, _name), _verify)
    for _owner in (lmf, lmf.partition, lmf.bbdf):
        setattr(_owner, _name, _checked)
