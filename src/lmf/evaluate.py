"""Dataset splitting, accuracy metrics and benchmark orchestration.

The benchmark runs the full protocol per cross-validation fold:
reorder the training matrix, fit one factor pair per assembled block (in
parallel), predict the held-out entries, and score them with RMSE. A
baseline mode skips the reordering and factorizes the whole matrix, so
the two runs are directly comparable on accuracy and wall time.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
import warnings
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .bbdf import PERMUTE_MODES, BBDFTree, _audit, _permute
from .errors import (
    ConfigError,
    DegenerateInputError,
    ShapeError,
    UndefinedMetricError,
    error_context,
)
from .factorize import (
    _dots,
    _is_number,
    factorize,
    spec_from_dict,
    spec_to_dict,
)
from .matrix import RatingMatrix, load_ratings
from .model import UNCOVERED, _check_uncovered, fallback_biases, lmf_fit


def rmse(truth, pred):
    """Root mean squared error of ``pred`` against ``truth``."""
    truth = np.asarray(truth, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    if truth.size == 0:
        raise DegenerateInputError("rmse over an empty prediction list")
    if truth.shape != pred.shape:
        raise ShapeError("truth and prediction lengths differ")
    d = truth - pred
    return float(np.sqrt((d @ d) / d.size))


def fchr(rounds):
    """First-choice hit rate of a balanced reordering round log: the
    fraction of rounds where the largest block was the accepted split."""
    rounds = list(rounds)
    if not rounds:
        raise UndefinedMetricError("no reordering rounds were recorded")
    return sum(1 for pos in rounds if pos == 0) / len(rounds)


@dataclass
class FoldPlan:
    """Per-entry fold assignment, stratified per user: each user's entries
    are dealt round-robin (after a seeded shuffle) so every user with at
    least ``n_folds`` entries appears in every fold."""

    n_folds: int
    seed: int
    assignment: np.ndarray  # aligned with the matrix's canonical entry order

    def test_indices(self, fold):
        return np.nonzero(self.assignment == fold)[0]

    def train_indices(self, fold):
        return np.nonzero(self.assignment != fold)[0]

    def train_matrix(self, m, fold):
        keep = self.assignment != fold
        return RatingMatrix(m.n_rows, m.n_cols,
                            m.rows[keep], m.cols[keep], m.vals[keep],
                            row_labels=m.row_labels, col_labels=m.col_labels)


def kfold_split(m, k, seed=0):
    """Stratified per-user fold plan; deterministic for a fixed seed."""
    if not (_is_number(k, Integral) and k >= 2):
        raise ConfigError(f"need an integer of at least 2 folds, got {k!r}")
    if not (_is_number(seed, Integral) and seed >= 0):
        raise ConfigError(f"fold seed must be a non-negative integer, got "
                          f"{seed!r}")
    rng = np.random.default_rng(seed)
    assignment = np.empty(m.nnz, dtype=np.int64)
    short_users = 0
    for u in range(m.n_rows):
        lo, hi = m._row_ptr[u], m._row_ptr[u + 1]
        n = hi - lo
        if n == 0:
            continue
        if n < k:
            short_users += 1
        pos = rng.permutation(n)
        assignment[lo + pos] = (u + np.arange(n)) % k
    if short_users:
        warnings.warn(f"{short_users} users have fewer than {k} ratings; "
                      "their entries were dealt round-robin", stacklevel=2)
    return FoldPlan(k, seed, assignment)


@dataclass
class EvalReport:
    """Benchmark outcome: pooled RMSE (root of the mean squared error over
    the full test set), per-fold RMSEs, the fraction of predictions served
    by a fallback, wall times per stage, and block statistics."""

    rmse: float
    fold_rmse: list
    fallback_fraction: float
    wall_times: dict
    block_stats: dict
    spec: dict
    mode: str
    extra: dict = field(default_factory=dict)

    def to_json(self, **kw):
        doc = {
            "mode": self.mode,
            "rmse": self.rmse,
            "fold_rmse": self.fold_rmse,
            "fallback_fraction": self.fallback_fraction,
            "wall_times": self.wall_times,
            "block_stats": self.block_stats,
            "spec": self.spec,
        }
        doc.update(self.extra)
        return json.dumps(doc, **kw)


@contextlib.contextmanager
def _stage(name, fold, times):
    """Tag errors escaping a benchmark stage with where they happened, and
    append the stage's wall time to ``times[name]``."""
    t0 = time.perf_counter()
    with error_context(f"[{name}, fold {fold}]"):
        yield
    times.setdefault(name, []).append(time.perf_counter() - t0)


def run_benchmark(config):
    """Run the cross-validated protocol described by ``config``.

    Required keys: ``input`` (rating-log path) or ``matrix`` (an in-memory
    RatingMatrix), ``algorithm``, ``mode`` (``baseline`` | ``lmf`` |
    ``both``). Optional: ``target_density`` (lmf), ``permute_mode``
    (``balanced`` default, or ``bbdf``/``abbdf``), ``folds`` (5), ``seed``
    (0), ``threads`` (1), ``uncovered`` policy, and any FactorizerSpec
    field; any other key raises :class:`SpecError` naming it. ``trees``
    (in-memory only) is a list of one precomputed reordering per fold so
    several runs over the same folds can share the permute work. Test
    pairs whose user or item has no training entry are served by the
    damped bias fallback and counted in ``fallback_fraction``.
    ``dump_predictions``, a path, receives one ``user item rating
    prediction`` line per test entry, in fold order.
    """
    spec = spec_from_dict({k: v for k, v in config.items() if k not in (
        "input", "matrix", "mode", "target_density", "permute_mode", "folds",
        "threads", "uncovered", "trees", "dump_predictions")})
    mode = config.get("mode", "both")
    if mode not in ("baseline", "lmf", "both"):
        raise ConfigError(f"unknown mode {mode!r}")
    m = config.get("matrix")
    if m is None:
        if "input" not in config:
            raise ConfigError("the config names no 'input' rating log")
        m = load_ratings(config["input"])
    folds = config.get("folds", 5)
    seed = config.get("seed", 0)
    threads = config.get("threads", 1)
    uncovered = config.get("uncovered", UNCOVERED[0])
    _check_uncovered(uncovered)
    dump = config.get("dump_predictions")
    if dump is not None and not isinstance(dump, (str, os.PathLike)):
        raise ConfigError(f"dump_predictions must be a path, got {dump!r}")
    clamp = m.value_range()
    plan = kfold_split(m, folds, seed)

    # the arms ``mode`` selects, lmf first; the first one's fallbacks count
    arms = [arm for arm in ("lmf", "baseline") if mode in (arm, "both")]
    permute_mode = config.get("permute_mode", next(iter(PERMUTE_MODES)))
    target = config.get("target_density")
    shared_trees = config.get("trees")
    if shared_trees is not None and not (
            isinstance(shared_trees, list) and len(shared_trees) == folds
            and all(isinstance(t, BBDFTree) for t in shared_trees)):
        raise ConfigError(f"trees must be a list of {folds} BBDFTrees, one "
                          "per fold")
    if "lmf" in arms and target is None and shared_trees is None:
        raise ConfigError("lmf mode needs a target_density")

    times, stats = {}, {}

    def lmf_arm(fold, m_tr, I, J):
        with _stage("permute", fold, times):
            tree = (shared_trees[fold] if shared_trees is not None
                    else _permute(m_tr, permute_mode, target, seed=seed))
        with _stage("fit", fold, times):
            model = lmf_fit(tree, m_tr, spec, threads=threads,
                            uncovered=uncovered)
        nnz = [e.size for e in _audit(model.tree, m_tr)[0]]
        area = [r.size * c.size
                for r, c in zip(model.block_rows, model.block_cols)]
        for key, value in (
                ("blocks", model.n_blocks),
                ("block_densities", [n / a if a else 0.0
                                     for n, a in zip(nnz, area)]),
                ("fchr", fchr(tree.rounds) if tree.rounds else None),
                ("assembled_density",
                 sum(nnz) / sum(area) if sum(area) else 0.0)):
            column = stats.setdefault(key, [])
            if value is not None:
                column.append(value)
        with _stage("predict", fold, times):
            return model.predict_many(I, J)

    def baseline_arm(fold, m_tr, I, J):
        with _stage("baseline_fit", fold, times):
            pair = factorize(m_tr, spec)
        with _stage("baseline_predict", fold, times):
            pred = np.clip(_dots(pair.U, pair.V, I, J), clamp[0], clamp[1])
        return pred, np.ones(I.size, dtype=bool)

    run_arm = {"lmf": lmf_arm, "baseline": baseline_arm}
    truth_all = []
    preds = {arm: [] for arm in arms}
    fold_rmse = {arm: [] for arm in arms}
    fallback_n = 0

    for fold in range(folds):
        m_tr = plan.train_matrix(m, fold)
        te = plan.test_indices(fold)
        I, J, X = m.rows[te], m.cols[te], m.vals[te]
        truth_all.append(X)
        unseen = ~((m_tr.row_counts() > 0)[I] & (m_tr.col_counts() > 0)[J])
        mu, bu, bi = fallback_biases(m_tr)
        bias = np.clip(mu + bu[I] + bi[J], clamp[0], clamp[1])
        for arm in arms:
            pred, covered = run_arm[arm](fold, m_tr, I, J)
            if arm == arms[0]:
                fallback_n += int((unseen | ~covered).sum())
            preds[arm].append(np.where(unseen, bias, pred))
            fold_rmse[arm].append(rmse(X, preds[arm][-1]))

    truth = np.concatenate(truth_all)
    extra = {}
    for arm in arms:
        extra[f"{arm}_rmse"] = rmse(truth, np.concatenate(preds[arm]))
        extra[f"{arm}_fold_rmse"] = fold_rmse[arm]
    if mode == "both":
        lmf_time = sum(times["permute"]) + sum(times["fit"])
        extra["speedup"] = (sum(times["baseline_fit"]) / lmf_time
                            if lmf_time > 0 else float("inf"))

    if dump:
        te = np.concatenate([plan.test_indices(f) for f in range(folds)])
        with open(dump, "w", encoding="utf-8") as fh:
            for i, j, x, p in zip(m.rows[te], m.cols[te], truth,
                                  np.concatenate(preds[arms[0]])):
                fh.write(f"{m.row_labels[i]}\t{m.col_labels[j]}\t{x:.6f}\t"
                         f"{p:.10f}\n")

    return EvalReport(
        rmse=extra[f"{arms[0]}_rmse"],
        fold_rmse=fold_rmse[arms[0]],
        fallback_fraction=fallback_n / truth.size if truth.size else 0.0,
        wall_times=times,
        block_stats={k: v for k, v in stats.items() if v},
        spec=spec_to_dict(spec),
        mode=mode,
        extra=extra,
    )


def format_report(report):
    """Aligned text rendering of an EvalReport."""
    lines = []
    lines.append(f"mode              {report.mode}")
    lines.append(f"rmse (pooled)     {report.rmse:.4f}")
    for tag in ("baseline_rmse", "lmf_rmse"):
        if tag in report.extra:
            lines.append(f"{tag:<17} {report.extra[tag]:.4f}")
    folds = " ".join(f"{x:.4f}" for x in report.fold_rmse)
    lines.append(f"fold rmse         {folds}")
    lines.append(f"fallback fraction {report.fallback_fraction:.4f}")
    if "speedup" in report.extra:
        lines.append(f"speedup           {report.extra['speedup']:.2f}x")
    for name, values in sorted(report.wall_times.items()):
        lines.append(f"t {name:<15} {np.sum(values):8.2f}s total")
    bs = report.block_stats
    if bs.get("blocks"):
        lines.append(f"blocks per fold   {bs['blocks']}")
        pooled = " ".join(f"{d:.4f}" for d in bs.get("assembled_density", []))
        lines.append(f"assembled density {pooled}")
        if bs.get("fchr"):
            lines.append(f"fchr per fold     {bs['fchr']}")
    return "\n".join(lines)
