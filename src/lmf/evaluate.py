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
import time
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .bbdf import PERMUTE_MODES, _permute
from .errors import (
    ConfigError,
    DegenerateInputError,
    LMFError,
    ShapeError,
    UndefinedMetricError,
)
from .factorize import (
    FactorizerSpec,
    _dots,
    factorize,
    spec_from_dict,
    spec_to_dict,
)
from .matrix import RatingMatrix, load_ratings
from .model import UNCOVERED, fallback_biases, lmf_fit


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
    if k < 2:
        raise ConfigError("need at least 2 folds")
    if seed < 0:
        raise ConfigError(f"fold seed must be non-negative, got {seed}")
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
def _stage(name, fold):
    """Tag errors escaping a benchmark stage with where they happened."""
    try:
        yield
    except LMFError as exc:
        msg = exc.args[0] if exc.args else ""
        exc.args = (f"[{name}, fold {fold}] {msg}",)
        raise


def _spec_from_config(config):
    names = {f.name for f in fields(FactorizerSpec)}
    return spec_from_dict({k: v for k, v in config.items() if k in names})


def _predict_baseline(pair, I, J, clamp):
    p = _dots(pair.U, pair.V, I, J)
    return np.clip(p, clamp[0], clamp[1])


def run_benchmark(config):
    """Run the cross-validated protocol described by ``config``.

    Required keys: ``input`` (rating-log path) or ``matrix`` (an in-memory
    RatingMatrix), ``algorithm``, ``mode`` (``baseline`` | ``lmf`` |
    ``both``). Optional: ``target_density`` (lmf), ``permute_mode``
    (``balanced`` default, or ``bbdf``/``abbdf``), ``folds`` (5), ``seed``
    (0), ``threads`` (1), ``uncovered`` policy, and any FactorizerSpec
    field. ``trees`` (in-memory only) supplies one precomputed reordering
    per fold so several runs over the same folds can share the permute
    work. Test pairs whose user or item has no training entry are served
    by the damped bias fallback and counted in ``fallback_fraction``.
    """
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
    spec = _spec_from_config(config)
    clamp = m.value_range()
    plan = kfold_split(m, folds, seed)

    run_lmf = mode in ("lmf", "both")
    run_base = mode in ("baseline", "both")
    permute_mode = config.get("permute_mode", next(iter(PERMUTE_MODES)))
    target = config.get("target_density")
    shared_trees = config.get("trees")
    if shared_trees is not None and len(shared_trees) != folds:
        raise ConfigError("trees must supply one reordering per fold")
    if run_lmf and target is None and shared_trees is None:
        raise ConfigError("lmf mode needs a target_density")

    truth_all, lmf_pred_all, base_pred_all = [], [], []
    fold_rmse_lmf, fold_rmse_base = [], []
    times = {"permute": [], "fit": [], "predict": [], "stitch": [],
             "baseline_fit": [], "baseline_predict": []}
    stats = {"blocks": [], "block_densities": [], "fchr": [],
             "assembled_density": []}
    fallback_n = 0
    dump_rows = []

    for fold in range(folds):
        m_tr = plan.train_matrix(m, fold)
        te = plan.test_indices(fold)
        I, J, X = m.rows[te], m.cols[te], m.vals[te]
        truth_all.append(X)
        seen_row = m_tr.row_counts() > 0
        seen_col = m_tr.col_counts() > 0
        unseen = ~(seen_row[I] & seen_col[J])

        if run_lmf:
            t0 = time.perf_counter()
            with _stage("permute", fold):
                if shared_trees is not None:
                    tree = shared_trees[fold]
                else:
                    tree = _permute(m_tr, permute_mode, target, seed=seed)
                if tree.rounds:
                    stats["fchr"].append(fchr(tree.rounds))
            times["permute"].append(time.perf_counter() - t0)

            with _stage("fit", fold):
                model = lmf_fit(tree, m_tr, spec, threads=threads,
                                uncovered=config.get("uncovered", UNCOVERED[0]))
            times["fit"].append(model.timings["fit_wall"])
            times["stitch"].append(model.timings["stitch_wall"])
            stats["blocks"].append(model.n_blocks)
            dens = [b.density for b in model.blocks]
            stats["block_densities"].append(dens)
            area = sum(b.area for b in model.blocks)
            nnz = sum(b.nnz for b in model.blocks)
            stats["assembled_density"].append(nnz / area if area else 0.0)

            t0 = time.perf_counter()
            with _stage("predict", fold):
                pred, covered = model.predict_many(I, J)
                mu, bu, bi = model.mu, model.b_user, model.b_item
                pred = np.where(unseen,
                                np.clip(mu + bu[I] + bi[J], clamp[0], clamp[1]),
                                pred)
            times["predict"].append(time.perf_counter() - t0)
            fallback_n += int((unseen | ~covered).sum())
            lmf_pred_all.append(pred)
            fold_rmse_lmf.append(rmse(X, pred))

        if run_base:
            t0 = time.perf_counter()
            with _stage("baseline-fit", fold):
                pair = factorize(m_tr, spec)
            times["baseline_fit"].append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            pred = _predict_baseline(pair, I, J, clamp)
            mu, bu, bi = fallback_biases(m_tr)
            pred = np.where(unseen,
                            np.clip(mu + bu[I] + bi[J], clamp[0], clamp[1]),
                            pred)
            times["baseline_predict"].append(time.perf_counter() - t0)
            if not run_lmf:
                fallback_n += int(unseen.sum())
            base_pred_all.append(pred)
            fold_rmse_base.append(rmse(X, pred))

        if config.get("dump_predictions"):
            main_pred = lmf_pred_all[-1] if run_lmf else base_pred_all[-1]
            for i, j, x, p in zip(I, J, X, main_pred):
                dump_rows.append((m.row_labels[i], m.col_labels[j],
                                  float(x), float(p)))

    truth = np.concatenate(truth_all)
    n_test = truth.size
    extra = {}
    if run_lmf:
        pooled_lmf = rmse(truth, np.concatenate(lmf_pred_all))
        extra["lmf_rmse"] = pooled_lmf
        extra["lmf_fold_rmse"] = fold_rmse_lmf
    if run_base:
        pooled_base = rmse(truth, np.concatenate(base_pred_all))
        extra["baseline_rmse"] = pooled_base
        extra["baseline_fold_rmse"] = fold_rmse_base
    if mode == "both":
        base_time = float(np.sum(times["baseline_fit"]))
        lmf_time = float(np.sum(times["permute"]) + np.sum(times["fit"])
                         + np.sum(times["stitch"]))
        extra["speedup"] = base_time / lmf_time if lmf_time > 0 else float("inf")

    main = pooled_lmf if run_lmf else pooled_base
    main_folds = fold_rmse_lmf if run_lmf else fold_rmse_base

    if config.get("dump_predictions"):
        with open(config["dump_predictions"], "w", encoding="utf-8") as fh:
            for u, it, x, p in dump_rows:
                fh.write(f"{u}\t{it}\t{x:.6f}\t{p:.10f}\n")

    return EvalReport(
        rmse=main,
        fold_rmse=main_folds,
        fallback_fraction=fallback_n / n_test if n_test else 0.0,
        wall_times={k: v for k, v in times.items() if v},
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
