"""Localized factorization: fit every assembled block independently (and
in parallel), then stitch predictions back together.

A cell covered by several assembled blocks (it sits in borders shared by
them) is predicted by the arithmetic mean of the per-block predictions; a
cell covered by no block falls back to a damped bias model
``mu + b_user + b_item`` computed from the training entries. The two code
paths are mutually exclusive: the fallback never fires for covered cells.
"""

from __future__ import annotations

import ctypes
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from .bbdf import BBDFTree, assemble_blocks, _derive_seed
from .errors import LMFError, ShapeError
from .factorize import (
    FactorPair,
    factorize,
    load_factors,
    save_factors,
    spec_from_dict,
    spec_to_dict,
    with_seed,
)

_BIAS_DAMPING = 25.0


def fallback_biases(m, damping=_BIAS_DAMPING):
    """Global mean and damped per-row/per-column biases (one pass: row
    biases first, column biases on the row-debiased residuals)."""
    mu = float(m.vals.mean()) if m.nnz else 0.0
    resid = m.vals - mu
    b_u = np.bincount(m.rows, weights=resid, minlength=m.n_rows)
    b_u = b_u / (m.row_counts() + damping)
    resid = resid - b_u[m.rows]
    b_i = np.bincount(m.cols, weights=resid, minlength=m.n_cols)
    b_i = b_i / (m.col_counts() + damping)
    return mu, b_u, b_i


class LMFModel:
    """Per-block factor pairs plus the bookkeeping needed to stitch them."""

    def __init__(self, tree, block_rows, block_cols, pairs, mu, b_user,
                 b_item, spec, value_range, blocks=None, timings=None,
                 threads=1, uncovered="bias"):
        self.tree = tree
        self.block_rows = block_rows
        self.block_cols = block_cols
        self.pairs = pairs
        self.mu = mu
        self.b_user = b_user
        self.b_item = b_item
        self.spec = spec
        self.value_range = value_range
        self.blocks = blocks  # AssembledBlock list when fitted in-process
        self.timings = timings or {}
        self.threads = threads
        if uncovered not in ("bias", "cross"):
            raise ValueError("uncovered must be 'bias' or 'cross'")
        self.uncovered = uncovered

        n_rows, n_cols = tree.n_rows, tree.n_cols
        self._rpos = []
        self._cpos = []
        for rows, cols in zip(block_rows, block_cols):
            rp = np.full(n_rows, -1, dtype=np.int64)
            cp = np.full(n_cols, -1, dtype=np.int64)
            rp[rows] = np.arange(rows.size)
            cp[cols] = np.arange(cols.size)
            self._rpos.append(rp)
            self._cpos.append(cp)

    @property
    def n_blocks(self):
        return len(self.pairs)

    def _check_index(self, i, j):
        if not (0 <= i < self.tree.n_rows and 0 <= j < self.tree.n_cols):
            raise ShapeError(f"index ({i}, {j}) out of range")

    def coverage_count(self, i, j):
        """How many assembled blocks contain both indices (possibly 0)."""
        self._check_index(i, j)
        return sum(1 for rp, cp in zip(self._rpos, self._cpos)
                   if rp[i] >= 0 and cp[j] >= 0)

    def _clamp(self, p):
        lo, hi = self.value_range
        return min(max(p, lo), hi)

    def predict(self, i, j):
        """Mean of the covering blocks' predictions, or the bias fallback
        when nothing covers the cell; clamped to the rating scale."""
        self._check_index(i, j)
        total, k = 0.0, 0
        for rp, cp, pair in zip(self._rpos, self._cpos, self.pairs):
            li, lj = rp[i], cp[j]
            if li >= 0 and lj >= 0:
                total += float(pair.U[li] @ pair.V[lj])
                k += 1
        if k:
            return self._clamp(total / k)
        if self.uncovered == "cross":
            total, k = 0.0, 0
            for rp, pu in zip(self._rpos, self.pairs):
                li = rp[i]
                if li < 0:
                    continue
                for cp, pv in zip(self._cpos, self.pairs):
                    lj = cp[j]
                    if lj >= 0:
                        total += float(pu.U[li] @ pv.V[lj])
                        k += 1
            if k:
                return self._clamp(total / k)
        return self._clamp(self.mu + float(self.b_user[i]) + float(self.b_item[j]))

    def predict_many(self, I, J):
        """Vectorized :meth:`predict` over parallel index arrays."""
        I = np.asarray(I, dtype=np.int64)
        J = np.asarray(J, dtype=np.int64)
        if I.size and (I.min() < 0 or I.max() >= self.tree.n_rows
                       or J.min() < 0 or J.max() >= self.tree.n_cols):
            raise ShapeError("index out of range")
        total = np.zeros(I.size)
        count = np.zeros(I.size, dtype=np.int64)
        for rp, cp, pair in zip(self._rpos, self._cpos, self.pairs):
            li, lj = rp[I], cp[J]
            sel = (li >= 0) & (lj >= 0)
            if sel.any():
                p = np.einsum("ij,ij->i", pair.U[li[sel]], pair.V[lj[sel]])
                total[sel] += p
                count[sel] += 1
        covered = count > 0
        out = np.empty(I.size)
        out[covered] = total[covered] / count[covered]
        rest = ~covered
        if rest.any():
            if self.uncovered == "cross":
                out[rest] = [self.predict(int(i), int(j))
                             for i, j in zip(I[rest], J[rest])]
                lo, hi = self.value_range
                return np.clip(out, lo, hi), covered
            out[rest] = self.mu + self.b_user[I[rest]] + self.b_item[J[rest]]
        lo, hi = self.value_range
        return np.clip(out, lo, hi), covered

    # -- persistence --------------------------------------------------------

    def save(self, directory):
        os.makedirs(directory, exist_ok=True)
        self.tree.save(os.path.join(directory, "tree.json"))
        for k, pair in enumerate(self.pairs):
            save_factors(os.path.join(directory, f"block_{k:04d}.fac"),
                         pair, self.spec)
        with open(os.path.join(directory, "biases.bin"), "wb") as fh:
            fh.write(self.b_user.astype("<f8").tobytes())
            fh.write(self.b_item.astype("<f8").tobytes())
        manifest = {
            "spec": spec_to_dict(self.spec),
            "n_blocks": self.n_blocks,
            "mu": self.mu,
            "value_range": list(self.value_range),
            "threads": self.threads,
            "uncovered": self.uncovered,
            "timings": self.timings,
        }
        with open(os.path.join(directory, "manifest.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2)

    @classmethod
    def load(cls, directory):
        tree = BBDFTree.load(os.path.join(directory, "tree.json"))
        with open(os.path.join(directory, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        spec = spec_from_dict(manifest["spec"])
        pairs = []
        for k in range(manifest["n_blocks"]):
            pair, _ = load_factors(os.path.join(directory, f"block_{k:04d}.fac"))
            pairs.append(pair)
        with open(os.path.join(directory, "biases.bin"), "rb") as fh:
            raw = fh.read()
        expected = 8 * (tree.n_rows + tree.n_cols)
        if len(raw) != expected:
            raise ShapeError(f"biases.bin holds {len(raw)} bytes, expected "
                             f"{expected} for {tree.n_rows} rows and "
                             f"{tree.n_cols} columns")
        b = np.frombuffer(raw, dtype="<f8")
        b_user = b[:tree.n_rows].copy()
        b_item = b[tree.n_rows:tree.n_rows + tree.n_cols].copy()
        block_rows, block_cols = _block_index_sets(tree)
        return cls(tree, block_rows, block_cols, pairs, manifest["mu"],
                   b_user, b_item, spec, tuple(manifest["value_range"]),
                   timings=manifest.get("timings"),
                   threads=manifest.get("threads", 1),
                   uncovered=manifest.get("uncovered", "bias"))


def _block_index_sets(tree):
    """Assembled index lists per leaf (leaf indices, then ancestor borders
    nearest-first), computable from the tree alone."""
    rows_out, cols_out = [], []

    def walk(node, anc_rows, anc_cols):
        if node.is_leaf:
            rows = np.concatenate([node.rows] + anc_rows) if anc_rows else node.rows
            cols = np.concatenate([node.cols] + anc_cols) if anc_cols else node.cols
            rows_out.append(rows)
            cols_out.append(cols)
        else:
            for ch in node.children:
                walk(ch, [node.row_border] + anc_rows,
                     [node.col_border] + anc_cols)

    walk(tree.root, [], [])
    return rows_out, cols_out


def _tag_block_error(exc, block_id):
    exc.block_id = block_id
    msg = exc.args[0] if exc.args else ""
    exc.args = (f"block {block_id}: {msg}",)
    return exc


# numpy's bundled OpenBLAS exports the 64-bit-integer name; a system
# OpenBLAS exports one of the others
_BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_",
                        "openblas_set_num_threads64_",
                        "openblas_set_num_threads")


def _single_blas_thread():
    """Pool initializer: run every loaded OpenBLAS with one thread, so the
    workers split the cores between them instead of each claiming all of
    them. numpy has no API for this; a platform without ``/proc/self/maps``
    or a library without a known setter keeps its threads."""
    try:
        with open("/proc/self/maps", "rb") as fh:
            paths = {os.fsdecode(line.split(maxsplit=5)[-1].strip())
                     for line in fh if b"openblas" in line.lower()}
    except OSError:
        return
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_THREAD_SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                break


def _fit_one_block(args):
    k, block_matrix, spec = args
    t0 = time.perf_counter()
    if block_matrix.nnz == 0:
        pair = FactorPair(np.zeros((block_matrix.n_rows, spec.r)),
                          np.zeros((block_matrix.n_cols, spec.r)),
                          final_objective=0.0, history=[0.0])
    else:
        pair = factorize(block_matrix, spec)
    return k, pair, time.perf_counter() - t0


def lmf_fit(tree, m, spec, threads=1, uncovered="bias"):
    """Factorize every assembled block of ``tree`` independently.

    Blocks are dispatched largest-first over a pool of at most ``threads``
    worker processes, capped at the CPUs this process may run on and the
    block count; each worker runs BLAS with one thread. Each block trains
    under a seed derived from the spec seed and the block's position, so
    the result is identical for any thread count. Fallback biases are
    computed from all training entries.
    """
    spec.validate()
    if m.n_rows != tree.n_rows or m.n_cols != tree.n_cols:
        raise ShapeError("matrix dimensions do not match the tree")
    blocks = assemble_blocks(tree, m)

    if spec.algorithm == "mmmf_fast" and spec.levels is None:
        # every block must share the full matrix's ordinal level set
        levels = tuple(float(v) for v in np.unique(m.vals))
        spec = replace(spec, levels=levels)

    jobs = []
    for k, blk in enumerate(blocks):
        block_spec = with_seed(spec, _derive_seed(spec.seed, (7001, k)))
        jobs.append((k, blk.matrix, block_spec))
    order = sorted(range(len(jobs)), key=lambda k: -blocks[k].nnz)

    pairs = [None] * len(jobs)
    block_times = [0.0] * len(jobs)
    workers = min(threads, len(os.sched_getaffinity(0)), len(jobs))
    t_fit = time.perf_counter()
    if workers <= 1:
        for k in order:
            try:
                k2, pair, dt = _fit_one_block(jobs[k])
            except LMFError as exc:
                raise _tag_block_error(exc, k) from exc
            pairs[k2] = pair
            block_times[k2] = dt
    else:
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_single_blas_thread) as pool:
            futures = {pool.submit(_fit_one_block, jobs[k]): k for k in order}
            for fut, k in futures.items():
                try:
                    k2, pair, dt = fut.result()
                except LMFError as exc:
                    raise _tag_block_error(exc, k) from exc
                pairs[k2] = pair
                block_times[k2] = dt
    fit_wall = time.perf_counter() - t_fit

    t_stitch = time.perf_counter()
    mu, b_u, b_i = fallback_biases(m)
    block_rows = [b.rows for b in blocks]
    block_cols = [b.cols for b in blocks]
    model = LMFModel(
        tree, block_rows, block_cols, pairs, mu, b_u, b_i, spec,
        m.value_range(), blocks=blocks,
        timings={"fit_wall": fit_wall,
                 "stitch_wall": time.perf_counter() - t_stitch,
                 "block_fit": block_times},
        threads=threads, uncovered=uncovered)
    return model


def lmf_predict(model, i, j):
    """Module-level alias of :meth:`LMFModel.predict`."""
    return model.predict(i, j)


def coverage_count(model, i, j):
    """Module-level alias of :meth:`LMFModel.coverage_count`."""
    return model.coverage_count(i, j)
