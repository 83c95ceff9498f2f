"""Localized factorization: fit every assembled block independently (and
in parallel), then stitch predictions back together.

A cell covered by several assembled blocks (it sits in borders shared by
them) is predicted by the arithmetic mean of the per-block predictions; a
cell covered by no block falls back to a damped bias model
``mu + b_user + b_item`` computed from the training entries, or, with
``uncovered="cross"``, to the mean over every pair of blocks that holds its
row and its column. The fallback never fires for covered cells. Every
prediction goes through :meth:`LMFModel.predict_many`.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from numbers import Real

import numpy as np

from .bbdf import BBDFTree, assemble_blocks, assembled_indices, _derive_seed
from .errors import ConfigError, LMFError, MissingLabelsError, ShapeError, \
    read_json
from .factorize import (
    FactorPair,
    _chunk_rows,
    _dots,
    _is_number,
    factorize,
    load_factors,
    save_factors,
    spec_from_dict,
    spec_to_dict,
)
from .matrix import _positions

_BIAS_DAMPING = 25.0
# how a cell that no block covers is predicted (see LMFModel.predict_many);
# the first is the default
UNCOVERED = ("bias", "cross")


def _finite(value):
    return _is_number(value, Real) and abs(value) <= sys.float_info.max


def fallback_biases(m):
    """Global mean and damped per-row/per-column biases (one pass: row
    biases first, column biases on the row-debiased residuals)."""
    mu = float(m.vals.mean()) if m.nnz else 0.0
    resid = m.vals - mu
    b_u = np.bincount(m.rows, weights=resid, minlength=m.n_rows)
    b_u = b_u / (m.row_counts() + _BIAS_DAMPING)
    resid = resid - b_u[m.rows]
    b_i = np.bincount(m.cols, weights=resid, minlength=m.n_cols)
    b_i = b_i / (m.col_counts() + _BIAS_DAMPING)
    return mu, b_u, b_i


class LMFModel:
    """One factor pair per leaf of ``tree``, in tree order, over the rows
    and columns of :func:`assembled_indices`, plus what stitching needs."""

    def __init__(self, tree, pairs, mu, b_user, b_item, spec, value_range,
                 blocks=None, timings=None, uncovered=UNCOVERED[0]):
        _, self.block_rows, self.block_cols = zip(*assembled_indices(tree))
        if len(pairs) != len(self.block_rows):
            raise ShapeError(f"{len(pairs)} factor pairs for a tree with "
                             f"{len(self.block_rows)} leaves")
        if uncovered not in UNCOVERED:
            raise ConfigError(f"uncovered must be one of {UNCOVERED}, got "
                              f"{uncovered!r}")
        self.tree = tree
        self.pairs = pairs
        self.mu = mu
        self.b_user = b_user
        self.b_item = b_item
        self.spec = spec
        self.value_range = value_range
        self.blocks = blocks  # AssembledBlock list when fitted in-process
        self.timings = timings or {}
        self.uncovered = uncovered

        self._rpos = [_positions(rows, tree.n_rows) for rows in self.block_rows]
        self._cpos = [_positions(cols, tree.n_cols) for cols in self.block_cols]

    @property
    def n_blocks(self):
        return len(self.pairs)

    def _covering(self, I, J):
        """Range-check the index arrays; then, per block, its factor pair,
        the mask of pairs it covers and the local row and col positions
        (-1 where the block lacks the index)."""
        I = np.asarray(I, dtype=np.int64)
        J = np.asarray(J, dtype=np.int64)
        if I.size and (I.min() < 0 or I.max() >= self.tree.n_rows
                       or J.min() < 0 or J.max() >= self.tree.n_cols):
            raise ShapeError("index out of range")
        for rp, cp, pair in zip(self._rpos, self._cpos, self.pairs):
            li, lj = rp[I], cp[J]
            yield pair, (li >= 0) & (lj >= 0), li, lj

    def coverage_count(self, i, j):
        """How many assembled blocks contain both indices (possibly 0)."""
        return sum(int(sel[0]) for _, sel, _, _ in self._covering([i], [j]))

    def predict(self, i, j):
        """:meth:`predict_many` for a single cell."""
        return float(self.predict_many([i], [j])[0][0])

    def predict_many(self, I, J):
        """Predictions for parallel index arrays, clamped to the rating
        scale, and the mask of cells some block covers.

        A covered cell gets the mean of its covering blocks' predictions.
        An uncovered cell gets the bias fallback; with ``uncovered="cross"``
        it gets the mean of ``U_a[i] . V_b[j]`` over every block ``a``
        holding row ``i`` and every block ``b`` holding column ``j``, which
        by bilinearity is ``(sum_a U_a[i]) . (sum_b V_b[j]) / (n_a n_b)``,
        and the bias fallback only when no such pair of blocks exists.
        """
        I = np.asarray(I, dtype=np.int64)
        J = np.asarray(J, dtype=np.int64)
        total = np.zeros(I.size)
        count = np.zeros(I.size, dtype=np.int64)
        for pair, sel, li, lj in self._covering(I, J):
            if sel.any():
                total[sel] += _dots(pair.U, pair.V, li[sel], lj[sel])
                count[sel] += 1
        covered = count > 0
        out = np.empty(I.size)
        out[covered] = total[covered] / count[covered]
        rest = np.flatnonzero(~covered)
        if rest.size:
            Ir, Jr = I[rest], J[rest]
            out[rest] = self.mu + self.b_user[Ir] + self.b_item[Jr]
            if self.uncovered == "cross":
                step = _chunk_rows(self.spec.r)
                for s in range(0, rest.size, step):
                    chunk = rest[s:s + step]
                    mean, ok = self._cross_mean(Ir[s:s + step], Jr[s:s + step])
                    out[chunk[ok]] = mean
        lo, hi = self.value_range
        return np.clip(out, lo, hi), covered

    def _cross_mean(self, I, J):
        """``(sum_a U_a[i]) . (sum_b V_b[j]) / (n_a n_b)`` for the cells
        with at least one such pair of blocks, and the mask of those cells."""
        su = np.zeros((I.size, self.spec.r))
        sv = np.zeros((I.size, self.spec.r))
        n_a = np.zeros(I.size, dtype=np.int64)
        n_b = np.zeros(I.size, dtype=np.int64)
        for rp, cp, pair in zip(self._rpos, self._cpos, self.pairs):
            li, lj = rp[I], cp[J]
            a, b = li >= 0, lj >= 0
            su[a] += pair.U[li[a]]
            sv[b] += pair.V[lj[b]]
            n_a += a
            n_b += b
        n = n_a * n_b
        ok = n > 0
        return np.einsum("ij,ij->i", su[ok], sv[ok]) / n[ok], ok

    def predict_labels(self, users, items):
        """:meth:`predict_many` over user and item labels.

        A pair with a label the training matrix did not have gets ``mu``
        plus the bias of whichever label is known, clamped; its ``covered``
        flag is False. Returns ``(pred, covered)`` in input order. Raises
        :class:`MissingLabelsError` when the tree has no labels.
        """
        if self.tree.row_ids is None or self.tree.col_ids is None:
            raise MissingLabelsError("the model's tree has no row or column "
                                     "labels to predict by")
        rmap = {lab: i for i, lab in enumerate(self.tree.row_ids)}
        cmap = {lab: j for j, lab in enumerate(self.tree.col_ids)}
        I = np.array([rmap.get(u, -1) for u in users], dtype=np.int64)
        J = np.array([cmap.get(it, -1) for it in items], dtype=np.int64)
        known = (I >= 0) & (J >= 0)
        pred = np.empty(I.size)
        covered = np.zeros(I.size, dtype=bool)
        pred[known], covered[known] = self.predict_many(I[known], J[known])
        Iu, Ju = I[~known], J[~known]
        p = self.mu + np.where(Iu >= 0, self.b_user[Iu], 0.0) \
            + np.where(Ju >= 0, self.b_item[Ju], 0.0)
        lo, hi = self.value_range
        pred[~known] = np.clip(p, lo, hi)
        return pred, covered

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
            "uncovered": self.uncovered,
        }
        with open(os.path.join(directory, "manifest.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2)

    @classmethod
    def load(cls, directory):
        tree = BBDFTree.load(os.path.join(directory, "tree.json"))
        path = os.path.join(directory, "manifest.json")
        manifest = read_json(path, ("spec", "n_blocks", "mu", "value_range"))
        mu, value_range = manifest["mu"], manifest["value_range"]
        if not (_finite(mu) and isinstance(value_range, list)
                and len(value_range) == 2 and all(map(_finite, value_range))
                and value_range[0] <= value_range[1]):
            raise ShapeError(f"{path}: 'mu' must be a finite number and "
                             "'value_range' two finite numbers, low first; "
                             f"found {mu!r} and {value_range!r}")
        uncovered = manifest.get("uncovered", UNCOVERED[0])
        if uncovered not in UNCOVERED:
            raise ShapeError(f"{path}: 'uncovered' is {uncovered!r}, not one "
                             f"of {UNCOVERED}")
        spec = spec_from_dict(manifest["spec"])
        leaves = list(assembled_indices(tree))
        if manifest["n_blocks"] != len(leaves):
            raise ShapeError(f"manifest lists {manifest['n_blocks']} blocks, "
                             f"the tree has {len(leaves)} leaves")
        pairs = []
        for k, (_, rows, cols) in enumerate(leaves):
            path = os.path.join(directory, f"block_{k:04d}.fac")
            pair, block_spec = load_factors(path)
            if block_spec != spec:
                want, got = spec_to_dict(spec), spec_to_dict(block_spec)
                fields = [f for f in want if want[f] != got[f]]
                raise ShapeError(f"{path}: sidecar spec differs from the "
                                 f"manifest spec in {', '.join(fields)}")
            want_u, want_v = (rows.size, spec.r), (cols.size, spec.r)
            if pair.U.shape != want_u or pair.V.shape != want_v:
                raise ShapeError(f"{path}: factors U {pair.U.shape} and V "
                                 f"{pair.V.shape}, expected {want_u} and "
                                 f"{want_v}")
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
        return cls(tree, pairs, mu, b_user, b_item, spec, tuple(value_range),
                   uncovered=uncovered)


def _tag_block_error(exc, block_id):
    exc.block_id = block_id
    msg = exc.args[0] if exc.args else ""
    exc.args = (f"block {block_id}: {msg}",)
    return exc


# numpy's bundled OpenBLAS exports the 64-bit-integer name, scipy's (which
# runs the LAPACK solves) the 32-bit one; a system OpenBLAS exports one of
# the others
_BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_",
                        "scipy_openblas_set_num_threads",
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
    block_matrix, spec = args
    if block_matrix.nnz == 0:
        return FactorPair(np.zeros((block_matrix.n_rows, spec.r)),
                          np.zeros((block_matrix.n_cols, spec.r)),
                          final_objective=0.0, history=[0.0])
    return factorize(block_matrix, spec)


def lmf_fit(tree, m, spec, threads=1, uncovered=UNCOVERED[0]):
    """Factorize every assembled block of ``tree`` independently.

    Blocks are dispatched largest-first over a pool of at most ``threads``
    worker processes, capped at the CPUs this process may run on and the
    block count; each worker runs BLAS with one thread. Each block trains
    under a seed derived from the spec seed and the block's position, so
    the result is identical for any thread count. Fallback biases are
    computed from all training entries.
    """
    spec.validate()
    blocks = assemble_blocks(tree, m)

    if spec.algorithm == "mmmf_fast" and spec.levels is None:
        # every block must share the full matrix's ordinal level set
        levels = tuple(float(v) for v in np.unique(m.vals))
        spec = replace(spec, levels=levels)

    order = sorted(range(len(blocks)), key=lambda k: -blocks[k].nnz)
    jobs = [(blocks[k].matrix,
             replace(spec, seed=_derive_seed(spec.seed, (7001, k))))
            for k in order]

    pairs = [None] * len(blocks)
    workers = min(threads, len(os.sched_getaffinity(0)), len(blocks))
    t_fit = time.perf_counter()
    with (ProcessPoolExecutor(max_workers=workers,
                              initializer=_single_blas_thread)
          if workers > 1 else contextlib.nullcontext()) as pool:
        results = (pool.map if pool else map)(_fit_one_block, jobs)
        for k in order:
            try:
                pairs[k] = next(results)
            except LMFError as exc:
                raise _tag_block_error(exc, k) from exc
    fit_wall = time.perf_counter() - t_fit

    t_stitch = time.perf_counter()
    mu, b_u, b_i = fallback_biases(m)
    return LMFModel(
        tree, pairs, mu, b_u, b_i, spec, m.value_range(), blocks=blocks,
        timings={"fit_wall": fit_wall,
                 "stitch_wall": time.perf_counter() - t_stitch},
        uncovered=uncovered)


def coverage_count(model, i, j):
    """Module-level alias of :meth:`LMFModel.coverage_count`."""
    return model.coverage_count(i, j)
