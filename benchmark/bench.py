"""Workload flows: set-up, warm-up, the timed phase and the output checks.

The benchmark drives the program only through ``lmf``'s public names and
``lmf.cli.main``, times every call from here, and counts an operation as
failed when it raises or when its output fails a check.

Short measurements (set-up, requests, ``lmf predict``) are taken in
chunks spread over the whole run rather than in one block, so that their
medians do not hang on one stretch of a busy machine.
"""

from __future__ import annotations

import os
import pickle
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager

import numpy as np

import lmf
import lmf.cli
import workloads as W
from tracing import Tracer

now = time.perf_counter

MIN_ITERS = 4         # timed iterations run until --seconds, at least this many
MAX_ITERS = 40
SETUP_PER_CHUNK = 1   # extra set-up repetitions after each iteration or chunk
PREP_REPS = 3         # ml100k-serve fits and saves its models this many times
CROSS_EVERY = 10      # every 10th ml100k-serve request uses the cross model
MAX_REQUESTS = 200_000
SAMPLE_EVERY = 25     # every 25th request is checked against coverage_count
SAMPLE_ITEMS = 16
UNKNOWN_SHARE = 0.05  # share of `lmf predict` lines with an unknown label
ALGOS = ("svd_als", "nmf", "pmf_sgd", "mmmf_fast")

# End-to-end metrics in the result line, as BENCHMARK.json declares them.
E2E = [("setup_s", "s"), ("train_s", "s"), ("rmse", "rating"),
       ("predict_pairs_per_s", "pairs/s"), ("cli_predict_lines_per_s", "lines/s"),
       ("peak_rss_mb", "MiB")]
# Printed beside them but not in the result line. On a shared machine whose
# speed changes for seconds at a time, a percentile of sub-millisecond
# requests jumps between the fast and the slow state from run to run,
# while throughput (total work over total time) moves smoothly.
E2E_PRINTED = [("request_ms.p50", "ms"), ("request_ms.p99", "ms")]


class CheckFailed(Exception):
    """An operation's output is wrong."""


class Config:
    """Sizes of one benchmark run; ``tiny`` shrinks every workload."""

    def __init__(self, tiny):
        self.ml = W.ML_TINY if tiny else W.ML100K
        self.b8 = W.B8_TINY if tiny else W.BLOCKS8
        self.light_r, self.light_sweeps = (4, 2) if tiny else (10, 5)
        self.b8_r = 6 if tiny else 60
        # fixed sweeps (svd_als, nmf) or epochs (pmf_sgd, mmmf_fast)
        self.b8_iters = {"svd_als": 3, "nmf": 10, "pmf_sgd": 1, "mmmf_fast": 1}
        # request seconds per chunk: on ml100k-serve, and between the
        # iterations of a training workload, whose train_s median needs
        # most of the run's time
        self.chunk_s = 0.05 if tiny else 1.0
        self.train_chunk_s = 0.05 if tiny else 0.8
        self.min_requests = 100 if tiny else 1000
        self.serve_lines = 3_000 if tiny else 50_000


def _spec(algo, r, iters, seed, **kw):
    return lmf.FactorizerSpec(algorithm=algo, r=r, max_iters=iters,
                              convergence_tol=1e-15, seed=seed, **kw)


def _rmse(truth, pred):
    return float(np.sqrt(np.mean((truth - pred) ** 2)))


class Reads:
    """The read path: saved models loaded back, a closed loop of one
    client whose requests each score one user against every item, and
    ``lmf predict`` over a label pairs file.

    ``served`` maps "bias" (and optionally "cross") to the in-memory model
    and the directory it was saved to; with a cross model, every
    ``CROSS_EVERY``-th request goes through it.
    """

    def __init__(self, run, served, n_lines):
        self.run = run
        I, J, _ = run.test
        loaded = {}
        with run.traced():
            for name, (mem, directory) in served.items():
                with run.op(f"load-{name}"):
                    model = lmf.LMFModel.load(str(directory))
                    a, ca = mem.predict_many(I, J)
                    b, cb = model.predict_many(I, J)
                    run.check(np.array_equal(a, b) and np.array_equal(ca, cb),
                              "loaded model predicts differently from memory")
                    loaded[name] = model
        self.bias, self.cross = loaded["bias"], loaded.get("cross")
        self.bias_dir = str(served["bias"][1])
        self.items = np.arange(self.bias.tree.n_cols)
        self.users = np.random.default_rng([run.seed, 17]).integers(
            self.bias.tree.n_rows, size=MAX_REQUESTS)
        self.pairs_path, self.lines, self.expect = run.pairs_file(self.bias, n_lines)
        self.sent = 0
        self.lat, self.split = [], {True: [], False: []}
        self.pairs = self.covered = self.cross_pairs = 0
        self.sampled = self.multi = 0
        self.cli_times = []

    def requests(self, seconds):
        run, items = self.run, self.items
        t_end = now() + seconds
        while self.sent < MAX_REQUESTS and now() < t_end:
            k = self.sent
            self.sent += 1
            use_cross = self.cross is not None and k % CROSS_EVERY == CROSS_EVERY - 1
            model = self.cross if use_cross else self.bias
            u = int(self.users[k])
            traced = k % 2 == 0
            with run.traced(traced), run.op("reads"):
                rows = np.full(items.size, u)
                t0 = now()
                pred, cov = model.predict_many(rows, items)
                dt = now() - t0
                run.check_predictions(model, pred)
                if k % SAMPLE_EVERY == 0:
                    js = items[(u + np.arange(SAMPLE_ITEMS) * 97) % items.size]
                    counts = np.array([lmf.coverage_count(model, u, int(j))
                                       for j in js])
                    run.check(np.array_equal(counts > 0, cov[js]),
                              "covered flags disagree with coverage_count")
                    self.sampled += js.size
                    self.multi += int((counts >= 2).sum())
                self.lat.append(dt)
                if not use_cross:
                    self.split[traced].append(dt)
                self.pairs += items.size
                self.covered += int(cov.sum())
                if use_cross:
                    self.cross_pairs += int((~cov).sum())

    def cli(self):
        run = self.run
        out = run.work / "predicted.tsv"
        with run.traced(), run.op("cli"):
            t0 = now()
            rc = lmf.cli.main(["predict", "--model", self.bias_dir,
                               "--pairs", str(self.pairs_path), "--out", str(out)])
            dt = now() - t0
            run.check(rc == 0, f"lmf predict exited with {rc}")
            run.check_cli_output(out, self.lines, self.expect)
            self.cli_times.append(dt)

    def metrics(self, min_requests):
        while self.sent < min(min_requests, MAX_REQUESTS):
            self.requests(0.05)
        lat_ms = np.array(self.lat) * 1e3
        self.run.facts.update({
            "requests": len(self.lat), "request_split": self.split,
            "covered_frac": self.covered / self.pairs,
            "cross_frac": self.cross_pairs / self.pairs,
            "multi_covered_frac": self.multi / max(self.sampled, 1),
            "cli_lines": len(self.lines),
        })
        return {
            "predict_pairs_per_s": self.pairs / float(np.sum(self.lat)),
            "request_ms.p50": float(np.percentile(lat_ms, 50)),
            "request_ms.p99": float(np.percentile(lat_ms, 99)),
            "cli_predict_lines_per_s":
                statistics.median(len(self.lines) / dt for dt in self.cli_times),
        }


class Run:
    def __init__(self, workload, seed, seconds, trace, tiny, work):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.cfg = Config(tiny)
        self.work = work
        self.tracer = Tracer() if trace else None
        self.threads = len(os.sched_getaffinity(0))
        self.attempted = self.failed = 0
        self.facts = {"save_times": []}  # benchmark-side per-layer figures
        self.setup_times = []
        self.train_times = []  # (traced, seconds) per timed iteration or set-up fit

    # -- operations and checks -------------------------------------------------

    @contextmanager
    def op(self, run):
        """One attempted operation; an exception inside marks it failed."""
        self.attempted += 1
        if self.tracer:
            self.tracer.run = run
        try:
            yield
        except W.WorkloadDrift:
            raise
        except Exception:
            self.failed += 1
            print(f"# operation {run} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)

    @contextmanager
    def traced(self, on=True):
        on = on and self.tracer is not None
        if on:
            self.tracer.install()
        try:
            yield
        finally:
            if on:
                self.tracer.uninstall()

    @staticmethod
    def check(ok, what):
        if not ok:
            raise CheckFailed(what)

    def check_predictions(self, model, pred):
        lo, hi = model.value_range
        self.check(np.isfinite(pred).all(), "non-finite prediction")
        self.check(((pred >= lo) & (pred <= hi)).all(),
                   "prediction outside value_range")

    def check_tree(self, tree, m):
        counts = lmf.check_tree(tree, m)
        self.check(counts["dropped"] == 0, "exact-mode tree dropped entries")

    def check_cli_output(self, path, lines, expect):
        got = []
        with open(path, encoding="utf-8") as fh:
            for (u, it), line in zip(lines, fh):
                fu, fi, fp = line.split()
                self.check((fu, fi) == (u, it), "lmf predict reordered its lines")
                got.append(float(fp))
        self.check(len(got) == len(lines), "lmf predict dropped lines")
        self.check(np.allclose(got, expect, rtol=0, atol=1e-6),
                   "lmf predict disagrees with predict_many / bias fallback")

    def check_leaves(self, tree):
        sh = self.cfg.ml
        W.require(len(tree.leaves()) >= sh.min_leaves,
                 f"ml100k: {len(tree.leaves())} balanced leaves at target {sh.target}")

    def check_deterministic(self, rmses):
        with self.op("determinism"):
            self.check(len(set(rmses)) == 1, "identical fits scored differently")

    def iterations(self):
        """Iteration numbers until ``seconds`` have passed; in a traced
        run every other iteration is traced."""
        t_end = now() + self.seconds
        k = 0
        while k < MIN_ITERS or (now() < t_end and k < MAX_ITERS):
            yield k, k % 2 == 0
            k += 1

    # -- shared phases ------------------------------------------------------------

    def warm_up(self):
        """One discarded permute and one discarded pool-backed fit, on a
        small matrix, so that first-call costs land outside the timing."""
        path = self.work / "warmup.tsv"
        W.ml100k_log(path, self.seed + 1, W.ML_TINY)
        m = lmf.load_ratings(str(path))
        tree, _ = lmf.balanced_permute(m, W.ML_TINY.target, seed=self.seed)
        lmf.lmf_fit(tree, m, _spec("svd_als", 4, 2, self.seed),
                    threads=self.threads)

    def setup_once(self):
        """``load_ratings`` plus ``kfold_split``, timed."""
        with self.traced(), self.op(f"setup-{len(self.setup_times)}"):
            t0 = now()
            m = lmf.load_ratings(str(self.log))
            plan = lmf.kfold_split(m, W.FOLDS, seed=self.seed)
            self.setup_times.append(now() - t0)
            return m, plan

    def setup(self, generate):
        """Write the workload's log, warm up, set up once; returns the
        training fold and keeps the test-fold arrays."""
        self.log = self.work / "ratings.tsv"
        generate(self.log, self.seed)
        self.warm_up()
        m, plan = self.setup_once()
        test = plan.test_indices(0)
        self.test = (m.rows[test], m.cols[test], m.vals[test])
        self.labels = (m.row_labels, m.col_labels)
        return plan.train_matrix(m, 0)

    def chunk(self, reads, seconds):
        """Measurements spread over the run: set-up repetitions, then
        ``seconds`` of requests and one `lmf predict` call."""
        for _ in range(SETUP_PER_CHUNK):
            self.setup_once()
        reads.requests(seconds)
        reads.cli()

    def test_rmse(self, model):
        I, J, truth = self.test
        pred, _ = model.predict_many(I, J)
        self.check_predictions(model, pred)
        return _rmse(truth, pred)

    def pairs_file(self, model, n_lines):
        """`lmf predict` input: the test fold, random known pairs up to
        ``n_lines``, and a share of lines with an unknown user or item.
        Returns the path, the lines and the expected predictions."""
        rng = np.random.default_rng([self.seed, 31])
        I, J, _ = self.test
        n_rows, n_cols = model.tree.n_rows, model.tree.n_cols
        n_lines = max(n_lines, I.size)
        n_unknown = max(3, int(UNKNOWN_SHARE * n_lines))
        n_known = max(0, n_lines - I.size - n_unknown)
        I = np.concatenate([I, rng.integers(n_rows, size=n_known)])
        J = np.concatenate([J, rng.integers(n_cols, size=n_known)])
        expect, _ = model.predict_many(I, J)
        rows, cols = self.labels
        lines = [(rows[i], cols[j]) for i, j in zip(I.tolist(), J.tolist())]
        lo, hi = model.value_range
        fallback = []
        for t in range(n_unknown):
            i, j = int(rng.integers(n_rows)), int(rng.integers(n_cols))
            kind = t % 3  # 0: unknown user, 1: unknown item, 2: both unknown
            p = model.mu
            if kind == 1:
                p += float(model.b_user[i])
            if kind == 0:
                p += float(model.b_item[j])
            lines.append((rows[i] if kind == 1 else f"unknown-user-{t}",
                          cols[j] if kind == 0 else f"unknown-item-{t}"))
            fallback.append(min(max(p, lo), hi))
        path = self.work / "pairs.tsv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{u}\t{it}\n" for u, it in lines)
        return path, lines, np.concatenate([expect, fallback])

    def save(self, model, name):
        directory = self.work / name
        t0 = now()
        model.save(str(directory))
        self.facts["save_times"].append(now() - t0)
        return directory

    def serve_model(self, model):
        """Save a training workload's model and open the read path on it."""
        with self.op("save"):
            directory = self.save(model, "model")
        return Reads(self, {"bias": (model, directory)}, self.cfg.serve_lines)

    def serial_pass(self, tree, train, specs):
        """Traced run only: per-block kernel times from a serial pass of
        ``factorize`` over ``assemble_blocks``, since ``lmf_fit`` forks its
        workers; then a whole-matrix svd_als fit for reference."""
        if self.tracer is None:
            return
        with self.traced(), self.op("serial"):
            blocks = lmf.assemble_blocks(tree, train)
            for spec in specs.values():
                for blk in blocks:
                    pair = lmf.factorize(blk, spec)
                    self.check(len(pair.history) == spec.max_iters,
                               f"{spec.algorithm} ran {len(pair.history)} "
                               f"of {spec.max_iters} fixed iterations")
            self.facts["dispatch_bytes"] = sum(
                len(pickle.dumps((k, blk.matrix, specs["svd_als"])))
                for k, blk in enumerate(blocks))
        with self.traced(), self.op("whole"):
            lmf.factorize(train, specs["svd_als"])

    # -- workloads ---------------------------------------------------------------------

    def ml100k_balanced(self):
        sh, cfg = self.cfg.ml, self.cfg
        train = self.setup(lambda p, s: W.ml100k_log(p, s, sh))
        spec = _spec("svd_als", cfg.light_r, cfg.light_sweeps, self.seed)
        rmses, reads = [], None
        for k, traced in self.iterations():
            with self.traced(traced), self.op(f"iter-{k}"):
                t0 = now()
                tree, rounds = lmf.balanced_permute(train, sh.target, seed=self.seed)
                model = lmf.lmf_fit(tree, train, spec, threads=self.threads)
                dt = now() - t0
                self.check_tree(tree, train)
                rmses.append(self.test_rmse(model))
                self.train_times.append((traced, dt))
            reads = reads or self.serve_model(model)
            self.chunk(reads, self.cfg.train_chunk_s)
        self.check_leaves(tree)
        self.check_deterministic(rmses)
        self.facts.update(tree=tree, rounds=rounds, train=train)
        self.serial_pass(tree, train, {"svd_als": spec})
        return {"train_s": self._median_train(), "rmse": rmses[-1],
                **reads.metrics(cfg.min_requests)}

    def blocks8_fit(self):
        sh, cfg = self.cfg.b8, self.cfg
        train = self.setup(lambda p, s: W.blocks8_log(p, s, sh))
        tree = self._block_tree(train)
        with self.op("tree"):
            self.check_tree(tree, train)
        W.require(len(tree.leaves()) == sh.blocks
                 and train.nnz == sh.blocks * sh.train_per_block,
                 f"blocks8: {len(tree.leaves())} leaves, {train.nnz} training ratings")
        levels = tuple(float(v) for v in np.unique(train.vals))
        specs = {a: _spec(a, cfg.b8_r, cfg.b8_iters[a], self.seed,
                          levels=levels if a == "mmmf_fast" else None)
                 for a in ALGOS}
        rmses, reads = [], None
        for k, traced in self.iterations():
            times = {}
            with self.traced(traced):
                for algo, spec in specs.items():
                    with self.op(f"iter-{k}"):
                        t0 = now()
                        model = lmf.lmf_fit(tree, train, spec, threads=self.threads)
                        times[algo] = now() - t0
                        score = self.test_rmse(model)
                        if algo == "svd_als":
                            rmses.append(score)
                            served = model
            if len(times) == len(ALGOS):
                self.train_times.append((traced, sum(times.values())))
            reads = reads or self.serve_model(served)
            self.chunk(reads, self.cfg.train_chunk_s)
        self.check_deterministic(rmses)
        self.facts.update(tree=tree, rounds=[], train=train)
        self.serial_pass(tree, train, specs)
        return {"train_s": self._median_train(), "rmse": rmses[-1],
                **reads.metrics(cfg.min_requests)}

    def ml100k_serve(self):
        sh, cfg = self.cfg.ml, self.cfg
        train = self.setup(lambda p, s: W.ml100k_log(p, s, sh))
        spec = _spec("svd_als", cfg.light_r, cfg.light_sweeps, self.seed)
        # The set-up fits are measured too: they count towards --seconds and
        # alternate with chunks of reads, so that both spread over the run.
        t_end = now() + self.seconds
        preps, reads = [], None
        n = 0
        while n < max(MIN_ITERS, PREP_REPS) or now() < t_end:
            if n < PREP_REPS:
                with self.traced(), self.op(f"prep-{n}"):
                    t0 = now()
                    tree, rounds = lmf.balanced_permute(train, sh.target,
                                                        seed=self.seed)
                    bias = lmf.lmf_fit(tree, train, spec, threads=self.threads)
                    t_fit = now()
                    cross = lmf.lmf_fit(tree, train, spec, threads=self.threads,
                                        uncovered="cross")
                    served = {"bias": (bias, self.save(bias, "bias")),
                              "cross": (cross, self.save(cross, "cross"))}
                    preps.append(now() - t0)
                    self.train_times.append((self.tracer is not None, t_fit - t0))
                    self.check_tree(tree, train)
            if reads is None:
                with self.op("rmse"):
                    score = self.test_rmse(bias)
                reads = Reads(self, served, cfg.serve_lines)
            self.chunk(reads, cfg.chunk_s)
            n += 1
        self.check_leaves(tree)
        self.facts.update(tree=tree, rounds=rounds, train=train)
        return {"setup_s": self._median_setup() + statistics.median(preps),
                "train_s": self._median_train(), "rmse": score,
                **reads.metrics(cfg.min_requests)}

    # -- helpers -------------------------------------------------------------------------

    def trace_overhead(self):
        """Traced over untraced median of the timed operation (train_s, or
        a bias request on ml100k-serve), minus one."""
        if self.workload == "ml100k-serve":
            split = self.facts["request_split"]
            traced, plain = split[True], split[False]
        else:
            traced = [dt for t, dt in self.train_times if t]
            plain = [dt for t, dt in self.train_times if not t]
        if not traced or not plain:
            return 0.0
        return statistics.median(traced) / statistics.median(plain) - 1.0

    def _median_train(self):
        return statistics.median(dt for _, dt in self.train_times)

    def _median_setup(self):
        return statistics.median(self.setup_times)

    def _block_tree(self, m):
        """The hand-built tree of ``blocks8``: one leaf per labelled block."""
        rblock = np.array([W.label_block(x) for x in m.row_labels])
        cblock = np.array([W.label_block(x) for x in m.col_labels])
        root = lmf.BBDFNode(np.arange(m.n_rows), np.arange(m.n_cols))
        for b in range(self.cfg.b8.blocks):
            root.children.append(lmf.BBDFNode(np.nonzero(rblock == b)[0],
                                              np.nonzero(cblock == b)[0],
                                              path=(b,)))
        return lmf.BBDFTree(root, "bbdf", self.seed, 1.0, matrix=m)

    def execute(self):
        flow = {"ml100k-balanced": self.ml100k_balanced,
                "blocks8-fit": self.blocks8_fit,
                "ml100k-serve": self.ml100k_serve}[self.workload]
        e2e = flow()
        e2e.setdefault("setup_s", self._median_setup())
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        e2e["peak_rss_mb"] = max(own, kids) / 1024.0
        return e2e
