"""Command-line surface: one ``lmf`` binary with subcommands for
splitting, reordering, analyzing, fitting, predicting, scoring and
running the full benchmark protocol.

Exit codes: 0 success, 2 input/format error, 3 numeric divergence,
4 degenerate input.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .bbdf import BBDFNode, BBDFTree, abbdf_permute, assemble_blocks, \
    balanced_permute, bbdf_permute
from .errors import LMFError, RatingFormatError, ShapeError
from .evaluate import EvalReport, format_report, kfold_split, rmse_arrays, \
    run_benchmark
from .factorize import FactorizerSpec
from .matrix import load_ratings
from .model import LMFModel, lmf_fit

_ALGO_NAMES = {"svd": "svd_als", "nmf": "nmf", "pmf": "pmf_sgd",
               "mmmf": "mmmf_fast"}


def _default_threads():
    try:
        return max(1, int(os.environ.get("LMF_THREADS", "1")))
    except ValueError:
        return 1


def _write_ratings(path, m, indices):
    with open(path, "w", encoding="utf-8") as fh:
        for t in indices:
            fh.write(f"{m.row_labels[m.rows[t]]}\t{m.col_labels[m.cols[t]]}\t"
                     f"{m.vals[t]:g}\n")


def cmd_split(args):
    m = load_ratings(args.input)
    plan = kfold_split(m, args.folds, args.seed)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "plan.json"), "w", encoding="utf-8") as fh:
        json.dump({"input": args.input, "n_folds": plan.n_folds,
                   "seed": plan.seed,
                   "assignment": plan.assignment.tolist()}, fh)
    for fold in range(args.folds):
        _write_ratings(os.path.join(args.out, f"train_{fold}.tsv"),
                       m, plan.train_indices(fold))
        _write_ratings(os.path.join(args.out, f"test_{fold}.tsv"),
                       m, plan.test_indices(fold))
    print(f"wrote {args.folds} folds to {args.out}")
    return 0


def cmd_permute(args):
    m = load_ratings(args.input)
    if args.mode == "balanced":
        tree, rounds = balanced_permute(m, args.target_density, seed=args.seed,
                                        balance_tol=args.balance_tol)
    elif args.mode == "bbdf":
        tree = bbdf_permute(m, args.target_density, seed=args.seed,
                            balance_tol=args.balance_tol)
    else:
        tree = abbdf_permute(m, args.target_density, seed=args.seed,
                             balance_tol=args.balance_tol)
    tree.save(args.out)
    print(f"{args.mode}: {len(tree.leaves())} blocks -> {args.out}")
    return 0


def cmd_analyze(args):
    tree = BBDFTree.load(args.tree)
    if args.input:
        m = load_ratings(args.input)
        if m.row_labels != tree.row_ids or m.col_labels != tree.col_ids:
            raise ShapeError("input does not match the matrix the tree was built on")
        blocks = assemble_blocks(tree, m)
        total_n = total_a = 0
        for k, b in enumerate(blocks):
            leaf = b.origin
            print(f"leaf {k}: rows={leaf.rows.size} cols={leaf.cols.size} "
                  f"assembled={b.rows.size}x{b.cols.size} "
                  f"entries={b.nnz} density={b.density:.4f}")
            total_n += b.nnz
            total_a += b.area
        pooled = total_n / total_a if total_a else 0.0
        print(f"pooled assembled density: {pooled:.4f}")
    else:
        for k, leaf in enumerate(tree.leaves()):
            print(f"leaf {k}: rows={leaf.rows.size} cols={leaf.cols.size}")
    if tree.rounds:
        hits = sum(1 for p in tree.rounds if p == 0)
        print(f"FCHR: {hits / len(tree.rounds):.4f} over {len(tree.rounds)} rounds")
    dropped = tree.dropped_entries()
    print(f"mode={tree.mode} leaves={len(tree.leaves())} dropped={dropped.shape[0]}")
    return 0


def cmd_fit(args):
    m = load_ratings(args.input)
    if args.tree:
        tree = BBDFTree.load(args.tree)
        if m.row_labels != tree.row_ids or m.col_labels != tree.col_ids:
            raise ShapeError("input does not match the matrix the tree was built on")
        tree.matrix = m
    else:
        root = BBDFNode(np.arange(m.n_rows), np.arange(m.n_cols))
        tree = BBDFTree(root, "bbdf", args.seed, 1.0, matrix=m)
    spec = FactorizerSpec(
        algorithm=_ALGO_NAMES[args.algo], r=args.factors, reg=args.reg,
        reg_user=args.reg_user, reg_item=args.reg_item,
        margin_c=args.margin_c, learning_rate=args.learning_rate,
        max_iters=args.iters, convergence_tol=args.tol, seed=args.seed,
    ).validate()
    model = lmf_fit(tree, m, spec, threads=args.threads,
                    uncovered=args.uncovered)
    model.save(args.out)
    t = model.timings
    print(f"fitted {model.n_blocks} block(s) in {t['fit_wall']:.2f}s -> {args.out}")
    return 0


def _records(path, min_fields):
    """``(lineno, fields)`` per record line of a whitespace-separated file,
    skipping blank lines and ``#`` comments; a record with fewer than
    ``min_fields`` fields raises :class:`RatingFormatError`."""
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


def cmd_predict(args):
    model = LMFModel.load(args.model)
    users, items = [], []
    for _, fields in _records(args.pairs, 2):
        users.append(fields[0])
        items.append(fields[1])
    pred, _ = model.predict_labels(users, items)
    lines = (f"{u}\t{it}\t{p:.6f}\n"
             for u, it, p in zip(users, items, pred.tolist()))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            out.writelines(lines)
    else:
        sys.stdout.writelines(lines)
    return 0


def cmd_eval(args):
    model = LMFModel.load(args.model)
    users, items, truth = [], [], []
    for lineno, (user, item, raw, *_) in _records(args.test, 3):
        try:
            x = float(raw)
        except ValueError:
            raise RatingFormatError(args.test, lineno,
                                    f"rating {raw!r} is not numeric") from None
        if not math.isfinite(x):
            raise RatingFormatError(args.test, lineno,
                                    f"non-finite rating {raw!r}")
        users.append(user)
        items.append(item)
        truth.append(x)
    pred, covered = model.predict_labels(users, items)
    score = rmse_arrays(truth, pred)
    report = EvalReport(
        rmse=score, fold_rmse=[score],
        fallback_fraction=float((~covered).mean()),
        wall_times={}, block_stats={"blocks": [model.n_blocks]},
        spec={"algorithm": model.spec.algorithm, "r": model.spec.r},
        mode="eval", extra={"n_test": len(truth)})
    print(report.to_json(indent=2))
    return 0


def cmd_bench(args):
    with open(args.config, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    report = run_benchmark(config)
    print(format_report(report), file=sys.stderr)
    print(report.to_json(indent=2))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="lmf")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("split", help="write cross-validation folds")
    p.add_argument("--input", required=True)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("permute", help="reorder a matrix into bordered blocks")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=("bbdf", "abbdf", "balanced"),
                   default="balanced")
    p.add_argument("--target-density", type=float, required=True)
    p.add_argument("--balance-tol", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_permute)

    p = sub.add_parser("analyze", help="block statistics of a saved tree")
    p.add_argument("--tree", required=True)
    p.add_argument("--input")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("fit", help="factorize (whole matrix or per block)")
    p.add_argument("--input", required=True)
    p.add_argument("--tree")
    p.add_argument("--algo", choices=sorted(_ALGO_NAMES), required=True)
    p.add_argument("--factors", type=int, default=60)
    p.add_argument("--reg", type=float, default=0.065)
    p.add_argument("--reg-user", type=float, default=0.002)
    p.add_argument("--reg-item", type=float, default=0.002)
    p.add_argument("--margin-c", type=float, default=1.5)
    p.add_argument("--learning-rate", type=float, default=0.01)
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--threads", type=int, default=_default_threads())
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--uncovered", choices=("bias", "cross"), default="bias")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="predict ratings for user/item pairs")
    p.add_argument("--model", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="score a model against held-out ratings")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="run the full benchmark protocol")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LMFError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
