"""Command-line surface: one ``lmf`` binary with subcommands for
splitting, reordering, analyzing, fitting, predicting, scoring and
running the full benchmark protocol.

Exit codes: 0 success, 2 input/format error, 3 numeric divergence,
4 degenerate input; any exception other than an LMFError or OSError is a
defect and shows its traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .bbdf import PERMUTE_MODES, BBDFNode, BBDFTree, _permute, \
    assemble_blocks, check_tree
from .errors import LMFError, read_json
from .evaluate import EvalReport, fchr, format_report, kfold_split, rmse, \
    run_benchmark
from .factorize import FactorizerSpec
from .matrix import _records, load_ratings
from .model import UNCOVERED, LMFModel, check_model_dir, lmf_fit

_ALGO_NAMES = {"svd": "svd_als", "nmf": "nmf", "pmf": "pmf_sgd",
               "mmmf": "mmmf_fast"}

# ``lmf fit`` flag, FactorizerSpec field, type; a flag not given leaves its
# field at the FactorizerSpec default
_SPEC_FLAGS = (
    ("--factors", "r", int), ("--reg", "reg", float),
    ("--reg-user", "reg_user", float), ("--reg-item", "reg_item", float),
    ("--margin-c", "margin_c", float),
    ("--learning-rate", "learning_rate", float),
    ("--iters", "max_iters", int), ("--tol", "convergence_tol", float))


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
    tree = _permute(m, args.mode, args.target_density, seed=args.seed)
    tree.save(args.out)
    counts = check_tree(tree, m)
    print(f"{args.mode}: {counts['leaves']} blocks, {counts['dropped']} of "
          f"{m.nnz} entries ({counts['dropped'] / m.nnz:.1%}) dropped -> "
          f"{args.out}")
    _warn_degenerate(counts, m.nnz)
    return 0


def _warn_degenerate(counts, nnz):
    """Warn on stderr when ``check_tree``'s ``counts`` show a tree of one
    leaf or one that drops entries; ``nnz`` is the matrix's entry count."""
    if counts["leaves"] == 1:
        print("warning: the tree is one leaf; a fit on it is the whole-matrix "
              "fit", file=sys.stderr)
    if counts["dropped"]:
        # load_ratings refuses a log with no entries
        print(f"warning: {counts['dropped'] / nnz:.1%} of the entries lie in "
              "no block; no block trains on them", file=sys.stderr)


def cmd_analyze(args):
    tree = BBDFTree.load(args.tree)
    if args.input:
        blocks = assemble_blocks(tree, load_ratings(args.input))
        for k, b in enumerate(blocks):
            print(f"leaf {k}: rows={b.origin.rows.size} "
                  f"cols={b.origin.cols.size} "
                  f"assembled={b.rows.size}x{b.cols.size} "
                  f"entries={b.nnz} density={b.density:.4f}")
        area = sum(b.area for b in blocks)
        pooled = sum(b.nnz for b in blocks) / area if area else 0.0
        print(f"pooled assembled density: {pooled:.4f}")
    else:
        for k, leaf in enumerate(tree.leaves()):
            print(f"leaf {k}: rows={leaf.rows.size} cols={leaf.cols.size}")
    if tree.rounds:
        print(f"FCHR: {fchr(tree.rounds):.4f} over {len(tree.rounds)} rounds")
    dropped = tree.dropped_entries()
    print(f"mode={tree.mode} leaves={len(tree.leaves())} dropped={dropped.shape[0]}")
    return 0


def cmd_fit(args):
    check_model_dir(args.out)  # a save refused after the fit would lose it
    m = load_ratings(args.input)
    counts = None
    if args.tree:
        tree = BBDFTree.load(args.tree)
        counts = check_tree(tree, m)
    else:
        root = BBDFNode(np.arange(m.n_rows), np.arange(m.n_cols))
        tree = BBDFTree(root, "bbdf", args.seed, 1.0, matrix=m)
    given = {name: getattr(args, name) for _, name, _ in _SPEC_FLAGS
             if getattr(args, name) is not None}
    spec = FactorizerSpec(algorithm=_ALGO_NAMES[args.algo], seed=args.seed,
                          **given)
    model = lmf_fit(tree, m, spec, threads=args.threads,
                    uncovered=args.uncovered)
    model.save(args.out)
    t = model.timings
    print(f"fitted {model.n_blocks} block(s) in {t['fit_wall']:.2f}s -> {args.out}")
    if counts:  # the one-leaf whole-matrix fit without --tree is as asked
        _warn_degenerate(counts, m.nnz)
    return 0


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
    test = load_ratings(args.test)
    pred, covered = model.predict_labels(
        [test.row_labels[i] for i in test.rows],
        [test.col_labels[j] for j in test.cols])
    score = rmse(test.vals, pred)
    report = EvalReport(
        rmse=score, fold_rmse=[score],
        fallback_fraction=float((~covered).mean()),
        wall_times={}, block_stats={"blocks": [model.n_blocks]},
        spec={"algorithm": model.spec.algorithm, "r": model.spec.r},
        mode="eval", extra={"n_test": test.nnz})
    print(report.to_json(indent=2))
    return 0


def cmd_bench(args):
    report = run_benchmark(read_json(args.config, ()))
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
    p.add_argument("--mode", choices=tuple(PERMUTE_MODES),
                   default=next(iter(PERMUTE_MODES)))
    p.add_argument("--target-density", type=float, required=True)
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
    for flag, name, kind in _SPEC_FLAGS:
        p.add_argument(flag, dest=name, type=kind)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--uncovered", choices=UNCOVERED, default=UNCOVERED[0])
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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
