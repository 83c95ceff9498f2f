"""Deterministic synthetic rating logs for the benchmark.

Every generator takes the benchmark seed and writes a whitespace rating
log (``user item rating timestamp``) that the program loads with
``lmf.load_ratings``; nothing else about the generator reaches the
program. Each generator checks the shape of what it produced and raises
``WorkloadDrift`` when it no longer matches the documented workload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FOLDS = 5  # the benchmark scores fold 0 of a FOLDS-way kfold_split


@dataclass(frozen=True)
class MLShape:
    """An ML-100K-like log: users, items, ratings and planted structure."""

    users: int
    items: int
    ratings: int
    min_deg: int
    max_deg: int
    communities: int
    target: float        # balanced_permute target density for this shape
    bridge_users: float = 0.04   # share of users rating two communities
    popular_items: float = 0.02  # share of items every community rates
    cross: float = 0.05          # share of a user's taste spread over all items
    min_leaves: int = 3          # balanced leaves the permute must reach


@dataclass(frozen=True)
class B8Shape:
    """The criterion-04 problem: disjoint blocks of uniform ratings.

    Every user has a multiple of ``FOLDS`` ratings, so fold 0 keeps
    exactly ``(FOLDS - 1) / FOLDS`` of them for training.
    """

    blocks: int
    rows: int
    cols: int
    degrees: tuple       # per-user rating counts, an equal share of rows each

    @property
    def train_per_block(self):
        total = self.rows // len(self.degrees) * sum(self.degrees)
        return total * (FOLDS - 1) // FOLDS


ML100K = MLShape(users=943, items=1682, ratings=100_000, min_deg=20,
                 max_deg=500, communities=5, target=0.09)
ML_TINY = MLShape(users=150, items=260, ratings=7_000, min_deg=20,
                  max_deg=120, communities=4, target=0.35)
BLOCKS8 = B8Shape(blocks=8, rows=250, cols=500, degrees=(60, 65))
B8_TINY = B8Shape(blocks=8, rows=20, cols=30, degrees=(15, 20))


class WorkloadDrift(RuntimeError):
    """A generator no longer produces the workload it documents."""


def require(ok, what):
    if not ok:
        raise WorkloadDrift(what)


def _ratings(rng, rows, cols, n_rows, n_cols, rank=3):
    """Integer 1..5 ratings from a low-rank model plus noise."""
    bu = rng.normal(0.0, 0.4, n_rows)
    bi = rng.normal(0.0, 0.4, n_cols)
    pu = rng.normal(0.0, 0.5, (n_rows, rank))
    qi = rng.normal(0.0, 0.5, (n_cols, rank))
    raw = (3.5 + bu[rows] + bi[cols]
           + np.einsum("ij,ij->i", pu[rows], qi[cols])
           + rng.normal(0.0, 0.8, rows.size))
    return np.clip(np.rint(raw), 1, 5)


def _write_log(path, rng, user_labels, item_labels, rows, cols, vals):
    """Write entries in a shuffled (timestamp) order, as real logs are."""
    order = rng.permutation(rows.size)
    stamp = 874_724_710 + np.arange(rows.size) * 17
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(
            f"{user_labels[rows[t]]}\t{item_labels[cols[t]]}\t{int(vals[t])}"
            f"\t{stamp[k]}\n"
            for k, t in enumerate(order))


def ml100k_log(path, seed, shape=ML100K):
    """ML-100K-shaped log with planted communities.

    Users and items fall into ``shape.communities`` equal communities.
    Each user's items are drawn without replacement from a Zipf-like
    popularity law over the own community, mixed with ``shape.cross`` of
    the global law; bridge users draw from two communities and the most
    popular items are shared by every community. User degrees are
    log-normal above ``shape.min_deg``, so degrees are heavy-tailed.
    """
    sh = shape
    rng = np.random.default_rng([seed, 100])
    K = sh.communities
    user_comm = rng.permutation(np.arange(sh.users) % K)
    item_comm = rng.permutation(np.arange(sh.items) % K)
    n_bridge = int(round(sh.bridge_users * sh.users))
    bridges = rng.choice(sh.users, n_bridge, replace=False)
    bridge_comm = (user_comm[bridges] + rng.integers(1, K, n_bridge)) % K

    pop = 1.0 / (rng.permutation(sh.items) + 10.0) ** 0.9
    popular = np.argsort(-pop)[:int(round(sh.popular_items * sh.items))]
    comm_law = np.zeros((K, sh.items))
    for k in range(K):
        comm_law[k, item_comm == k] = pop[item_comm == k]
        comm_law[k, popular] = pop[popular]
        comm_law[k] /= comm_law[k].sum()
    glob_law = pop / pop.sum()

    w = rng.lognormal(0.0, 1.0, sh.users)
    extra = sh.ratings - sh.min_deg * sh.users
    deg = sh.min_deg + np.floor(extra * w / w.sum()).astype(np.int64)
    deg = np.minimum(deg, sh.max_deg)
    while deg.sum() < sh.ratings:  # hand the rounding and cap loss back
        room = np.nonzero(deg < sh.max_deg)[0]
        give = rng.choice(room, min(room.size, sh.ratings - int(deg.sum())),
                          replace=False)
        deg[give] += 1

    law = (1.0 - sh.cross) * comm_law[user_comm] + sh.cross * glob_law
    law[bridges] = ((1.0 - sh.cross) * 0.5
                    * (comm_law[user_comm[bridges]] + comm_law[bridge_comm])
                    + sh.cross * glob_law)
    rows = np.repeat(np.arange(sh.users), deg)
    cols = np.concatenate([rng.choice(sh.items, int(d), replace=False, p=p)
                           for d, p in zip(deg, law)])
    vals = _ratings(rng, rows, cols, sh.users, sh.items)

    require(rows.size == sh.ratings, f"ml100k: {rows.size} ratings")
    require(np.bincount(rows).min() >= sh.min_deg,
           f"ml100k: a user has fewer than {sh.min_deg} ratings")
    n_items = np.unique(cols).size
    require(n_items >= 0.97 * sh.items, f"ml100k: only {n_items} items rated")
    _write_log(path, rng,
               [f"u{k}" for k in rng.permutation(sh.users) + 1],
               [f"i{k}" for k in rng.permutation(sh.items) + 1],
               rows, cols, vals)


def blocks8_log(path, seed, shape=BLOCKS8):
    """Disjoint blocks of uniformly placed ratings, one leaf each.

    Labels name the block (``b3u17``, ``b3i211``) so that the benchmark
    can build the hand-made tree; fold 0 holds out one rating in
    ``FOLDS`` of every user.
    """
    sh = shape
    rng = np.random.default_rng([seed, 8])
    rows, cols = [], []
    for b in range(sh.blocks):
        deg = np.repeat(sh.degrees, sh.rows // len(sh.degrees))
        for u, d in enumerate(rng.permutation(deg)):
            rows.append(np.full(d, b * sh.rows + u))
            cols.append(b * sh.cols + rng.choice(sh.cols, d, replace=False))
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    n_rows, n_cols = sh.blocks * sh.rows, sh.blocks * sh.cols
    vals = _ratings(rng, rows, cols, n_rows, n_cols)

    train = rows.size * (FOLDS - 1) // FOLDS
    require(train == sh.blocks * sh.train_per_block,
           f"blocks8: {train} training ratings")
    require(all(d % FOLDS == 0 for d in sh.degrees),
           "blocks8: a user degree is not a multiple of the fold count")
    require(np.unique(cols).size == n_cols, "blocks8: an item has no rating")
    _write_log(path, rng,
               [f"b{i // sh.rows}u{i % sh.rows}" for i in range(n_rows)],
               [f"b{j // sh.cols}i{j % sh.cols}" for j in range(n_cols)],
               rows, cols, vals)


def label_block(label):
    """Block number encoded in a ``blocks8`` label."""
    return int(label[1:].split("u")[0].split("i")[0])
