"""Spans recorded from outside the program, around its public entry points.

``Tracer.install()`` replaces each traced function where the program and
the benchmark look it up (for example ``gpvs_bisect`` as ``lmf.bbdf``
references it) by a wrapper that records one span per call;
``uninstall()`` puts the originals back. Spans stay in memory until
``write()``; a span's parent is the span open when it started, so self
time is its duration minus that of its children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import lmf
import lmf.cli


def _nodes(args, res):
    g = args[0]
    return {"nodes": int(g.n_nodes), "edges": int(g.n_edges)}


def _gpvs(args, res):
    return {**_nodes(args, res), "separator": int(res.separator.size)}


def _gpes(args, res):
    return {**_nodes(args, res), "cut": int(res.cut_edges.shape[0])}


def _permute(args, res):
    m, (tree, rounds) = args[0], res
    return {"rows": m.n_rows, "cols": m.n_cols, "nnz": m.nnz,
            "leaves": len(tree.leaves()), "rounds": len(rounds)}


def _assemble(args, res):
    return {"blocks": len(res), "nnz": int(sum(b.nnz for b in res)),
            "shapes": [[int(b.rows.size), int(b.cols.size)] for b in res]}


def _fit(args, res):
    spec = args[2]
    return {"algorithm": spec.algorithm, "r": spec.r, "blocks": res.n_blocks}


def _factorize(args, res):
    m = getattr(args[0], "matrix", args[0])
    return {"algorithm": args[1].algorithm, "r": args[1].r, "rows": m.n_rows,
            "cols": m.n_cols, "nnz": m.nnz, "iters": len(res.history)}


def _predict_many(args, res):
    model, covered = args[0], res[1]
    return {"pairs": int(covered.size), "covered": int(covered.sum()),
            "uncovered_mode": model.uncovered}


def _load(args, res):
    return {"blocks": res.n_blocks, "uncovered_mode": res.uncovered}


def _entries(args, res):
    m = res if isinstance(res, lmf.RatingMatrix) else args[0]
    return {"entries": m.nnz}


def _cli(args, res):
    return {"command": args[0][0], "exit_code": res}


_BBDF = sys.modules["lmf.bbdf"]
_MODEL = sys.modules["lmf.model"]

# span name -> (attributes from (args, result), [(owner, attribute), ...])
TRACED = {
    "partition.gpvs_bisect": (_gpvs, [(_BBDF, "gpvs_bisect")]),
    "partition.gpes_bisect": (_gpes, [(_BBDF, "gpes_bisect")]),
    "bbdf.balanced_permute": (_permute, [(lmf, "balanced_permute")]),
    "bbdf.assemble_blocks": (_assemble, [(lmf, "assemble_blocks"),
                                         (_MODEL, "assemble_blocks")]),
    "model.lmf_fit": (_fit, [(lmf, "lmf_fit")]),
    "factorize.factorize": (_factorize, [(lmf, "factorize"),
                                         (_MODEL, "factorize")]),
    "model.predict_many": (_predict_many, [(lmf.LMFModel, "predict_many")]),
    "model.load": (_load, [(lmf.LMFModel, "load")]),
    "matrix.load_ratings": (_entries, [(lmf, "load_ratings")]),
    "evaluate.kfold_split": (_entries, [(lmf, "kfold_split")]),
    "cli.main": (_cli, [(lmf.cli, "main")]),
}


class Tracer:
    """In-memory span recorder; ``run`` labels the spans of one operation."""

    def __init__(self):
        self.spans = []
        self.run = None
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "run": self.run,
                    "parent": self._stack[-1] if self._stack else None,
                    "start": time.perf_counter(), "end": None, "attrs": {}}
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                res = fn(*args, **kwargs)
            except Exception as exc:
                span["attrs"]["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            span["attrs"] = attrs(args, res)
            return res
        return traced

    def install(self):
        for name, (attrs, sites) in TRACED.items():
            for owner, attr in sites:
                if attr not in owner.__dict__:  # the program stopped using it
                    continue
                raw = owner.__dict__[attr]
                self._saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, attrs))
                else:
                    wrapped = self._wrap(name, raw, attrs)
                setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- reading the spans ---------------------------------------------------

    def durations(self):
        """Per span id: (duration, self time)."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return {s["id"]: (s["end"] - s["start"],
                          s["end"] - s["start"] - child[s["id"]])
                for s in self.spans}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
