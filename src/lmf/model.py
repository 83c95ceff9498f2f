"""Localized factorization: fit every assembled block independently (and
in parallel), then stitch predictions back together.

A row lies in the own rows or the border of one tree node, so the blocks
holding it are those of the consecutive leaves below that node, its leaf
range; the same holds for a column. A cell covered by several blocks (the
overlap of its row's and its column's ranges) is predicted by the mean of
the per-block predictions; a cell covered by no block falls back to a
damped bias model ``mu + b_user + b_item`` computed from the training
entries, or, with ``uncovered="cross"``, to the mean over every pair of
blocks that holds its row and its column, from per-row and per-column
factor sums built once. The factors of all blocks are held once, stacked.
Every prediction goes through :meth:`LMFModel.predict_many`.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import json
import os
import re
import secrets
import shutil
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from numbers import Integral, Real

import numpy as np

from .bbdf import BBDFTree, assemble_blocks, assembled_indices, _derive_seed
from .errors import ConfigError, MissingLabelsError, ShapeError, \
    error_context, read_json
from .factorize import (
    FactorPair,
    _dots,
    _is_number,
    factorize,
    load_factors,
    save_factors,
    spec_from_dict,
    spec_to_dict,
)

_BIAS_DAMPING = 25.0
# how a cell that no block covers is predicted (see LMFModel.predict_many);
# the first is the default
UNCOVERED = ("bias", "cross")


def _check_uncovered(uncovered):
    if uncovered not in UNCOVERED:
        raise ConfigError(f"uncovered must be one of {UNCOVERED}, got "
                          f"{uncovered!r}")


def _finite(value):
    return _is_number(value, Real) and abs(value) <= sys.float_info.max


# the names LMFModel.save writes; a directory holding anything else is not
# replaced
_MODEL_FILE = re.compile(r"tree\.json|biases\.bin|manifest\.json"
                         r"|block_\d+\.fac(\.json)?")


def check_model_dir(directory):
    """Raise :class:`ConfigError` unless a model can be saved at
    ``directory``: nothing is there, or a directory holding only model
    files, which a save replaces. A symbolic link is followed."""
    directory = os.path.realpath(directory)
    if not os.path.exists(directory):
        return
    if not os.path.isdir(directory):
        raise ConfigError(f"{directory} exists and is not a directory")
    with os.scandir(directory) as entries:
        foreign = sorted(e.name for e in entries
                         if e.is_dir(follow_symlinks=False)
                         or not _MODEL_FILE.fullmatch(e.name))
    if foreign:
        raise ConfigError(f"{directory} holds files that are not a model's "
                          f"({', '.join(foreign[:3])}"
                          f"{', ...' if len(foreign) > 3 else ''}); a save "
                          "replaces the whole directory, so give a new or "
                          "model-only one")


def _sibling(directory, tag):
    """An unused hidden name beside ``directory``."""
    parent, name = os.path.split(directory)
    return os.path.join(parent, f".{name}.{tag}-{os.getpid()}-"
                                f"{secrets.token_hex(4)}")


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


def _stack(factors, blocks, n, sums):
    """The blocks' factors stacked, a view of the stack per block, the flat
    ``(n_blocks * n)`` table of each index's row in the stack (-1 where a
    block lacks it), per index the leaf range ``[lo, hi)`` holding it and,
    if ``sums``, the sum of its factor rows, taken in block order."""
    stacked = np.concatenate(factors)
    ends = np.cumsum([len(f) for f in factors])
    table = np.full((len(blocks), n), -1, dtype=np.int64)
    total = np.zeros((n, stacked.shape[1])) if sums else None
    for k, (idx, f, end) in enumerate(zip(blocks, factors, ends)):
        table[k, idx] = np.arange(end - idx.size, end)
        if sums:
            total[idx] += f
    held = table >= 0
    lo = held.argmax(axis=0)
    return (stacked, np.split(stacked, ends[:-1]), table.ravel(), lo,
            lo + held.sum(axis=0), total)


class LMFModel:
    """One factor pair per leaf of ``tree``, in tree order, over the rows
    and columns of :func:`assembled_indices`, plus what stitching needs:
    what :meth:`load` reads back, and ``timings`` when fitted. Each
    ``pairs[k].U`` (``.V``) is a view into the stacked ``_U`` (``_V``).
    Parts whose shapes do not fit the tree and ``spec.r`` raise
    :class:`ShapeError`; a block is named by its file in :meth:`save`."""

    def __init__(self, tree, pairs, mu, b_user, b_item, spec, value_range,
                 timings=None, uncovered=UNCOVERED[0]):
        _, self.block_rows, self.block_cols = zip(*assembled_indices(tree))
        if len(pairs) != len(self.block_rows):
            raise ShapeError(f"{len(pairs)} factor pairs for a tree with "
                             f"{len(self.block_rows)} leaves")
        for k, (p, rows, cols) in enumerate(
                zip(pairs, self.block_rows, self.block_cols)):
            want_u, want_v = (rows.size, spec.r), (cols.size, spec.r)
            if p.U.shape != want_u or p.V.shape != want_v:
                raise ShapeError(f"block_{k:04d}.fac: factors U {p.U.shape} "
                                 f"and V {p.V.shape}, expected {want_u} and "
                                 f"{want_v}")
        if np.shape(b_user) != (tree.n_rows,) or \
                np.shape(b_item) != (tree.n_cols,):
            raise ShapeError(f"biases b_user {np.shape(b_user)} and b_item "
                             f"{np.shape(b_item)}, expected ({tree.n_rows},) "
                             f"and ({tree.n_cols},)")
        _check_uncovered(uncovered)
        self.tree, self.mu, self.b_user, self.b_item = tree, mu, b_user, b_item
        self.spec, self.value_range = spec, value_range
        self.timings, self.uncovered = timings or {}, uncovered
        cross = uncovered == "cross"
        self._U, us, self._rtab, self._rlo, self._rhi, su = _stack(
            [p.U for p in pairs], self.block_rows, tree.n_rows, cross)
        self._V, vs, self._ctab, self._clo, self._chi, sv = _stack(
            [p.V for p in pairs], self.block_cols, tree.n_cols, cross)
        self.pairs = [replace(p, U=u, V=v) for p, u, v in zip(pairs, us, vs)]
        # per row sum_a U_a[i] and count n_a, per column the same over V
        self._cross = (su, self._rhi - self._rlo, sv,
                       self._chi - self._clo) if cross else None

    @property
    def n_blocks(self):
        return len(self.pairs)

    def _cover(self, I, J):
        """Check that the index arrays are 1-D, of equal length and in
        range; then, per cell, the first block that covers it and the
        number of blocks that do (possibly 0)."""
        I = np.asarray(I, dtype=np.int64)
        J = np.asarray(J, dtype=np.int64)
        if I.ndim != 1 or I.shape != J.shape:
            raise ShapeError(f"need two 1-D index arrays of equal length, "
                             f"got shapes {I.shape} and {J.shape}")
        if I.size and (I.min() < 0 or I.max() >= self.tree.n_rows
                       or J.min() < 0 or J.max() >= self.tree.n_cols):
            raise ShapeError("index out of range")
        lo = np.maximum(self._rlo[I], self._clo[J])
        hi = np.minimum(self._rhi[I], self._chi[J])
        return I, J, lo, np.maximum(hi - lo, 0)

    def coverage_count(self, i, j):
        """How many assembled blocks contain both indices (possibly 0)."""
        return int(self._cover([i], [j])[3][0])

    def predict(self, i, j):
        """:meth:`predict_many` for a single cell."""
        return float(self.predict_many([i], [j])[0][0])

    def predict_many(self, I, J):
        """Predictions for parallel index arrays, clamped to the rating
        scale, and the mask of cells some block covers.

        A covered cell gets the mean of its covering blocks' predictions,
        summed in block order. An uncovered cell gets the bias fallback;
        with ``uncovered="cross"`` it gets the mean of ``U_a[i] . V_b[j]``
        over every block ``a`` holding row ``i`` and ``b`` holding column
        ``j``, by bilinearity ``(sum_a U_a[i]) . (sum_b V_b[j]) / (n_a n_b)``.
        """
        I, J, first, count = self._cover(I, J)
        total = np.zeros(I.size)
        # round s adds the s-th covering block of every cell that has one
        t, s = np.flatnonzero(count), 0
        while t.size:
            k = first[t] + s
            total[t] += _dots(self._U, self._V,
                              self._rtab[k * self.tree.n_rows + I[t]],
                              self._ctab[k * self.tree.n_cols + J[t]])
            s += 1
            t = t[count[t] > s]
        covered = count > 0
        out = total / np.maximum(count, 1)
        rest = np.flatnonzero(~covered)
        if rest.size:
            Ir, Jr = I[rest], J[rest]
            fallback = self.mu + self.b_user[Ir] + self.b_item[Jr]
            if self._cross is not None:
                su, n_a, sv, n_b = self._cross
                n = n_a[Ir] * n_b[Jr]
                np.divide(_dots(su, sv, Ir, Jr), n, out=fallback, where=n > 0)
            out[rest] = fallback
        return np.clip(out, *self.value_range), covered

    def predict_labels(self, users, items):
        """:meth:`predict_many` over user and item labels.

        A pair with a label the training matrix did not have gets ``mu``
        plus the bias of whichever label is known, clamped; its ``covered``
        flag is False. Returns ``(pred, covered)`` in input order. Raises
        :class:`MissingLabelsError` when the tree has no labels, and
        :class:`ShapeError` when ``users`` and ``items`` differ in length.
        """
        if self.tree.row_ids is None or self.tree.col_ids is None:
            raise MissingLabelsError("the model's tree has no row or column "
                                     "labels to predict by")
        if len(users) != len(items):
            raise ShapeError(f"{len(users)} users for {len(items)} items")
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
        pred[~known] = np.clip(p, *self.value_range)
        return pred, covered

    # -- persistence --------------------------------------------------------

    def save(self, directory):
        """Write the model's files into ``directory``, replacing any model
        already there.

        Raises :class:`ConfigError`, before writing anything, when
        ``directory`` holds anything but model files (see
        :func:`check_model_dir`). The files go into a new sibling directory
        first, which then takes the old one's place by two renames: the
        old directory aside, the new one in; then the old one is removed.
        A save that fails part-way leaves any old model whole at
        ``directory`` and no temporary directory behind. The swap is not
        atomic for readers: between the two renames no model is at
        ``directory``.
        """
        directory = os.path.realpath(directory)
        check_model_dir(directory)
        os.makedirs(os.path.dirname(directory), exist_ok=True)
        tmp = _sibling(directory, "new")
        os.mkdir(tmp)
        try:
            self._write(tmp)
            if os.path.isdir(directory):
                old = _sibling(directory, "old")
                os.rename(directory, old)
                try:
                    os.rename(tmp, directory)
                except BaseException:
                    os.rename(old, directory)
                    raise
                shutil.rmtree(old)
            else:
                os.rename(tmp, directory)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def _write(self, directory):
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
        n_leaves = len(tree.leaves())
        if manifest["n_blocks"] != n_leaves:
            raise ShapeError(f"manifest lists {manifest['n_blocks']} blocks, "
                             f"the tree has {n_leaves} leaves")
        pairs = []
        for k in range(n_leaves):
            path = os.path.join(directory, f"block_{k:04d}.fac")
            pair, block_spec = load_factors(path)
            if block_spec != spec:
                want, got = spec_to_dict(spec), spec_to_dict(block_spec)
                fields = [f for f in want if want[f] != got[f]]
                raise ShapeError(f"{path}: sidecar spec differs from the "
                                 f"manifest spec in {', '.join(fields)}")
            pairs.append(pair)
        path = os.path.join(directory, "biases.bin")
        with open(path, "rb") as fh:
            raw = fh.read()
        expected = 8 * (tree.n_rows + tree.n_cols)
        if len(raw) != expected:
            raise ShapeError(f"{path} holds {len(raw)} bytes, expected "
                             f"{expected} for {tree.n_rows} rows and "
                             f"{tree.n_cols} columns")
        b = np.frombuffer(raw, dtype="<f8")
        if not np.isfinite(b).all():
            raise ShapeError(f"{path}: a bias is not finite")
        b_user = b[:tree.n_rows].copy()
        b_item = b[tree.n_rows:tree.n_rows + tree.n_cols].copy()
        with error_context(f"{directory}:"):
            return cls(tree, pairs, mu, b_user, b_item, spec,
                       tuple(value_range), uncovered=uncovered)


# numpy's bundled OpenBLAS exports the 64-bit-integer name, scipy's (which
# runs the LAPACK solves) the 32-bit one; a system OpenBLAS exports one of
# the others
_BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_",
                        "scipy_openblas_set_num_threads",
                        "openblas_set_num_threads64_",
                        "openblas_set_num_threads")


@functools.cache
def _blas_setters():
    """The ``(setter, shutdown)`` pair of every loaded OpenBLAS, resolved
    once per process, since ``ctypes.CDLL`` costs milliseconds per library;
    ``shutdown`` is ``blas_thread_shutdown_`` or None. A platform without
    ``/proc/self/maps`` or a library without a known setter gives none."""
    try:
        with open("/proc/self/maps", "rb") as fh:
            paths = {os.fsdecode(line.split(maxsplit=5)[-1].strip())
                     for line in fh if b"openblas" in line.lower()}
    except OSError:
        return ()
    found = []
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
                stop = getattr(lib, "blas_thread_shutdown_", None)
                if stop is not None:
                    stop.restype = ctypes.c_int
                found.append((setter, stop))
                break
    return tuple(found)


def _single_blas_thread():
    """Pool initializer: run every loaded OpenBLAS with one thread, so the
    workers split the cores between them instead of each claiming all of
    them. numpy has no API for this. :func:`lmf_fit` resolves the setters
    before it starts the pool, so a forked worker only calls them; a worker
    started by spawn or forkserver resolves them itself.

    In a forked worker the setter restarts the library's thread pool (the
    fork stopped it), and its new threads would spin-wait for about 2**28
    cycles (0.1 s at 2 GHz) on the cores the fit needs. They are stopped
    again at once, with the call OpenBLAS itself makes before a fork; at
    one thread the library never starts them again."""
    for setter, stop in _blas_setters():
        setter(1)
        if stop is not None:
            stop()


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
    computed from all training entries. The model's tree has the labels of
    ``m``, whether or not ``tree`` has them.
    """
    _check_uncovered(uncovered)
    if not (_is_number(threads, Integral) and threads >= 1):
        raise ConfigError(f"threads must be an integer >= 1, got {threads!r}")
    blocks = assemble_blocks(tree, m)
    # the model predicts by label, so its tree takes the labels of ``m``,
    # which has just passed the tree's check
    tree = BBDFTree(tree.root, tree.mode, tree.seed, tree.target_density,
                    matrix=m, rounds=tree.rounds)

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
    if workers > 1:
        _blas_setters()  # resolved here once, so forked workers only call them
    with (ProcessPoolExecutor(max_workers=workers,
                              initializer=_single_blas_thread)
          if workers > 1 else contextlib.nullcontext()) as pool:
        results = (pool.map if pool else map)(_fit_one_block, jobs)
        for k in order:
            with error_context(f"block {k}:"):
                pairs[k] = next(results)
    fit_wall = time.perf_counter() - t_fit

    mu, b_u, b_i = fallback_biases(m)
    return LMFModel(tree, pairs, mu, b_u, b_i, spec, m.value_range(),
                    timings={"fit_wall": fit_wall}, uncovered=uncovered)


def coverage_count(model, i, j):
    """Module-level alias of :meth:`LMFModel.coverage_count`."""
    return model.coverage_count(i, j)
