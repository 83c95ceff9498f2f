"""Per-layer metrics of a traced run, from its spans and the benchmark's
own figures. Layers are the modules of ``lmf``; a layer that a workload
does not exercise reads 0.

Span ``run`` labels: ``setup-<k>`` (load and split), ``iter-<k>`` (one
timed iteration), ``prep-<k>`` (ml100k-serve's set-up fits), ``serial`` and
``whole`` (the kernel passes of a traced run), ``load-<model>``,
``reads`` (requests) and ``cli``.
"""

from __future__ import annotations

import statistics

import lmf

ALGOS = ("svd_als", "nmf", "pmf_sgd", "mmmf_fast")
TRACED_SELF = ("partition.gpvs_bisect", "bbdf.balanced_permute",
               "bbdf.assemble_blocks", "model.lmf_fit", "factorize.factorize",
               "model.predict_many", "model.load", "matrix.load_ratings",
               "evaluate.kfold_split", "cli.main")

PER_LAYER = (
    [("matrix.load_ratings_s", "s"), ("matrix.load_ratings.entries_per_s", "entries/s"),
     ("evaluate.kfold_split_s", "s"),
     ("partition.gpvs_bisect.calls", "count"), ("partition.gpvs_bisect_s", "s"),
     ("partition.gpvs_bisect.max_s", "s"), ("partition.graph_nodes", "count"),
     ("partition.separator_nodes", "count"),
     ("bbdf.balanced_permute_s", "s"), ("bbdf.rounds", "count"),
     ("bbdf.fchr", "ratio"), ("bbdf.accepted_per_trial", "ratio"),
     ("bbdf.leaves", "count"), ("bbdf.border_rows", "count"),
     ("bbdf.border_cols", "count"), ("bbdf.assembled_density", "ratio"),
     ("bbdf.assembled_nnz_ratio", "ratio"), ("bbdf.assemble_blocks_s", "s")]
    + [(f"factorize.{a}.sweep_s", "s") for a in ALGOS]
    + [("factorize.pmf_sgd.us_per_entry", "us"),
       ("factorize.mmmf_fast.us_per_entry", "us"),
       ("factorize.svd_als.gflops_computed", "GFLOP/s"),
       ("factorize.iters", "count"), ("factorize.whole_s", "s")]
    + [(f"model.lmf_fit.{a}_s", "s") for a in ALGOS]
    + [("model.block_sum_s", "s"), ("model.max_block_s", "s"),
       ("model.workers", "count"), ("model.parallel_efficiency", "ratio"),
       ("model.dispatch_bytes", "bytes"), ("model.predict_many_s", "s"),
       ("model.covered_frac", "ratio"), ("model.multi_covered_frac", "ratio"),
       ("model.cross_frac", "ratio"), ("model.load_s", "s"),
       ("model.save_s", "s"),
       ("cli.predict_s", "s"), ("cli.predict.lines", "count"),
       ("trace.overhead_frac", "ratio")]
    + [(f"{name}.self_s", "s") for name in TRACED_SELF]
)


def _median(xs):
    xs = list(xs)
    return float(statistics.median(xs)) if xs else 0.0


def _svd_flops(rows, cols, nnz, r):
    """Computed flops of one svd_als sweep: per row and column a Gram
    matrix, a right-hand side and an r x r solve, then the objective."""
    return (4.0 * nnz * r * r + 4.0 * nnz * r
            + (rows + cols) * (2.0 / 3.0 * r ** 3 + 2.0 * r * r)
            + 2.0 * nnz * r)


def per_layer(run):
    tracer, facts = run.tracer, run.facts
    spans = tracer.spans
    dur = {i: d for i, (d, _) in tracer.durations().items()}
    self_t = {i: s for i, (_, s) in tracer.durations().items()}
    iters = sorted({s["run"] for s in spans if str(s["run"]).startswith("iter-")})

    def of(name, prefix=None):
        return [s for s in spans if s["name"] == name
                and (prefix is None or str(s["run"]).startswith(prefix))]

    def per_iter(name, value=lambda s: dur[s["id"]]):
        """Median over traced iterations of the per-iteration total."""
        return _median(sum(value(s) for s in of(name) if s["run"] == it)
                       for it in iters)

    out = {}
    setup = of("matrix.load_ratings", "setup-")
    out["matrix.load_ratings_s"] = _median(dur[s["id"]] for s in setup)
    out["matrix.load_ratings.entries_per_s"] = _median(
        s["attrs"]["entries"] / dur[s["id"]] for s in setup)
    out["evaluate.kfold_split_s"] = _median(
        dur[s["id"]] for s in of("evaluate.kfold_split", "setup-"))

    gp = "partition.gpvs_bisect"
    calls = per_iter(gp, lambda s: 1)
    out[f"{gp}.calls"] = calls
    out[f"{gp}_s"] = per_iter(gp)
    out[f"{gp}.max_s"] = max((dur[s["id"]] for s in of(gp, "iter-")), default=0.0)
    out["partition.graph_nodes"] = per_iter(gp, lambda s: s["attrs"].get("nodes", 0))
    out["partition.separator_nodes"] = per_iter(
        gp, lambda s: s["attrs"].get("separator", 0))

    tree, rounds = facts["tree"], facts["rounds"]
    out["bbdf.balanced_permute_s"] = per_iter("bbdf.balanced_permute")
    out["bbdf.rounds"] = len(rounds)
    out["bbdf.fchr"] = lmf.fchr(rounds) if rounds else 0.0
    out["bbdf.accepted_per_trial"] = len(rounds) / calls if calls else 0.0
    out["bbdf.leaves"] = len(tree.leaves())
    out["bbdf.border_rows"] = sum(int(n.row_border.size) for n in tree.nodes())
    out["bbdf.border_cols"] = sum(int(n.col_border.size) for n in tree.nodes())
    asm = of("bbdf.assemble_blocks")
    if asm:
        a = asm[-1]["attrs"]
        area = sum(r * c for r, c in a["shapes"])
        out["bbdf.assembled_density"] = a["nnz"] / area
        out["bbdf.assembled_nnz_ratio"] = a["nnz"] / facts["train"].nnz
    else:
        out["bbdf.assembled_density"] = out["bbdf.assembled_nnz_ratio"] = 0.0
    out["bbdf.assemble_blocks_s"] = per_iter("bbdf.assemble_blocks")

    serial = of("factorize.factorize", "serial")
    iters_total = 0
    for algo in ALGOS:
        mine = [s for s in serial if s["attrs"].get("algorithm") == algo]
        sweep = sum((dur[s["id"]] / s["attrs"]["iters"] for s in mine), 0.0)
        nnz = sum(s["attrs"]["nnz"] for s in mine)
        iters_total += sum(s["attrs"]["iters"] for s in mine)
        out[f"factorize.{algo}.sweep_s"] = sweep
        if algo in ("pmf_sgd", "mmmf_fast"):
            out[f"factorize.{algo}.us_per_entry"] = sweep / nnz * 1e6 if nnz else 0.0
        if algo == "svd_als":
            flops = sum(_svd_flops(s["attrs"]["rows"], s["attrs"]["cols"],
                                   s["attrs"]["nnz"], s["attrs"]["r"])
                        for s in mine)
            out["factorize.svd_als.gflops_computed"] = flops / sweep / 1e9 if sweep else 0.0
    out["factorize.iters"] = iters_total
    out["factorize.whole_s"] = _median(dur[s["id"]] for s in of("factorize.factorize", "whole"))

    fit_total = 0.0
    for algo in ALGOS:
        v = per_iter("model.lmf_fit", lambda s, a=algo: dur[s["id"]]
                     if s["attrs"].get("algorithm") == a else 0.0)
        out[f"model.lmf_fit.{algo}_s"] = v
        fit_total += v
    block_sum = sum(dur[s["id"]] for s in serial)
    out["model.block_sum_s"] = block_sum
    out["model.max_block_s"] = max((dur[s["id"]] for s in serial), default=0.0)
    out["model.workers"] = run.threads
    out["model.parallel_efficiency"] = (block_sum / (run.threads * fit_total)
                                        if fit_total else 0.0)
    out["model.dispatch_bytes"] = facts.get("dispatch_bytes", 0)
    out["model.predict_many_s"] = _median(
        dur[s["id"]] for s in of("model.predict_many", "reads"))
    for k in ("covered_frac", "multi_covered_frac", "cross_frac"):
        out[f"model.{k}"] = facts[k]
    out["model.load_s"] = _median(dur[s["id"]] for s in of("model.load", "load-"))
    out["model.save_s"] = _median(facts.get("save_times", []))
    out["cli.predict_s"] = _median(dur[s["id"]] for s in of("cli.main"))
    out["cli.predict.lines"] = facts["cli_lines"]
    out["trace.overhead_frac"] = run.trace_overhead()
    for name in TRACED_SELF:
        out[f"{name}.self_s"] = _median(self_t[s["id"]] for s in of(name))
    return out
