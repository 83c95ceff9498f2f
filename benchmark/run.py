"""Benchmark of the lmf pipeline on synthetic, seeded workloads.

    python3 benchmark/run.py --workload ml100k-balanced --seed 1 --seconds 30 --trace 0

Workloads (BENCHMARK.json records why each was chosen):

* ``ml100k-balanced``: balanced_permute, a light per-block svd_als fit and
  test-fold prediction on one fold of an ML-100K-shaped matrix.
* ``blocks8-fit``: the four factorizers through lmf_fit on a hand-built
  8-leaf tree over 8 disjoint 250 x 500 blocks.
* ``ml100k-serve``: requests and ``lmf predict`` against models fitted
  and saved during set-up.

Earlier lines of standard output give an environment record and every
metric by name with its unit; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics, or with ``--trace 1`` the per-layer metrics). A traced run also
writes its spans as JSON lines under ``.bench_out/``. ``--tiny`` shrinks
every workload, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("ml100k-balanced", "blocks8-fit", "ml100k-serve")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    return p.parse_args(argv)


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "lmf" / "__init__.py").is_file():
        print(f"error: no lmf sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench
    import layers

    env = environment()
    print(f"# lmf benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(env))

    tag = f"{args.workload}-s{args.seed}"
    work = ROOT / ".bench_work" / f"{tag}-p{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = bench.Run(args.workload, args.seed, args.seconds, args.trace,
                        args.tiny, work)
        e2e = run.execute()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e_units = dict(bench.E2E)
    for name, unit in bench.E2E + bench.E2E_PRINTED:
        print(f"end_to_end {name} {e2e[name]!r} {unit}")
    print(f"end_to_end failed_frac {run.failed / run.attempted!r} ratio "
          f"({run.failed} of {run.attempted} operations)")
    print(f"end_to_end request_ms.samples {run.facts['requests']} count")
    print(f"end_to_end train_s.samples {len(run.train_times)} count")
    print("# train_s per sample: "
          + " ".join(f"{dt:.3f}" for _, dt in run.train_times))
    metrics = {n: {"value": float(e2e[n]), "unit": e2e_units[n]} for n in e2e_units}

    if args.trace:
        values = layers.per_layer(run)
        units = dict(layers.PER_LAYER)
        for name, unit in layers.PER_LAYER:
            print(f"per_layer {name} {values[name]!r} {unit}")
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        spans = out / f"spans-{tag}.jsonl"
        run.tracer.write(spans)
        print(f"# {len(run.tracer.spans)} spans written to {spans.relative_to(ROOT)}")
        metrics = {n: {"value": float(values[n]), "unit": units[n]} for n in units}

    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
