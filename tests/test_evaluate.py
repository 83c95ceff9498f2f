import json
import math
import os

import numpy as np
import pytest

from lmf import RatingMatrix, fchr, kfold_split, rmse, run_benchmark
from lmf.cli import main as cli_main
from lmf.errors import DegenerateInputError, UndefinedMetricError

from conftest import planted_blocks


# -- metrics -----------------------------------------------------------------------

def test_rmse_exact_predictions():
    assert rmse([4.0, 2.0], [4.0, 2.0]) == 0.0


def test_rmse_direct_formula():
    # sqrt(((4-3)^2 + (4-4)^2) / 2)
    assert rmse([4, 4], [3, 4]) == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert rmse([1], [5]) == 4.0


def test_rmse_empty():
    with pytest.raises(DegenerateInputError):
        rmse([], [])


def test_fchr_values():
    assert fchr([0, 0, 0]) == 1.0
    assert fchr([0, 1, 0, 0]) == 0.75
    with pytest.raises(UndefinedMetricError):
        fchr([])


# -- folds -------------------------------------------------------------------------

def test_kfold_single_user_even_split():
    m = RatingMatrix(1, 100, np.zeros(100, dtype=int), np.arange(100),
                     np.ones(100))
    plan = kfold_split(m, 5, seed=1)
    sizes = [int((plan.assignment == f).sum()) for f in range(5)]
    assert sizes == [20] * 5


def test_kfold_deterministic_and_partitioning():
    rng = np.random.default_rng(2)
    m = planted_blocks(rng, [(15, 20)], 0.4)
    p1 = kfold_split(m, 4, seed=9)
    p2 = kfold_split(m, 4, seed=9)
    assert np.array_equal(p1.assignment, p2.assignment)
    # folds partition the entries
    assert np.array_equal(np.sort(np.concatenate(
        [p1.test_indices(f) for f in range(4)])), np.arange(m.nnz))
    for f in range(4):
        te = set(p1.test_indices(f).tolist())
        tr = set(p1.train_indices(f).tolist())
        assert te & tr == set()
        assert te | tr == set(range(m.nnz))


def test_kfold_stratified_per_user():
    rng = np.random.default_rng(3)
    m = planted_blocks(rng, [(12, 30)], 0.5)
    k = 4
    plan = kfold_split(m, k, seed=0)
    for u in range(m.n_rows):
        lo, hi = m._row_ptr[u], m._row_ptr[u + 1]
        if hi - lo >= k:
            assert set(plan.assignment[lo:hi].tolist()) == set(range(k))


def test_kfold_short_users_warn_round_robin():
    m = RatingMatrix(2, 3, [0, 0, 0, 1], [0, 1, 2, 0], np.ones(4))
    with pytest.warns(UserWarning):
        plan = kfold_split(m, 3, seed=0)
    # user 1 has a single entry; it still belongs to exactly one fold
    assert plan.assignment.size == 4


def test_train_plus_test_reconstructs_original():
    rng = np.random.default_rng(4)
    m = planted_blocks(rng, [(10, 14)], 0.5)
    plan = kfold_split(m, 5, seed=7)
    for f in range(5):
        tr = plan.train_matrix(m, f)
        te = plan.test_indices(f)
        rows = np.concatenate([tr.rows, m.rows[te]])
        cols = np.concatenate([tr.cols, m.cols[te]])
        vals = np.concatenate([tr.vals, m.vals[te]])
        rebuilt = RatingMatrix(m.n_rows, m.n_cols, rows, cols, vals,
                               row_labels=m.row_labels, col_labels=m.col_labels)
        assert rebuilt == m


# -- benchmark ----------------------------------------------------------------------

def _bench_matrix():
    rng = np.random.default_rng(55)
    return planted_blocks(rng, [(22, 26), (20, 24)], 0.35, density_cross=0.01,
                          bridge_rows=2, values=(1, 6))


def _config(m, **kw):
    cfg = {"matrix": m, "algorithm": "svd_als", "mode": "both",
           "target_density": 0.4, "folds": 3, "seed": 5, "r": 4,
           "reg": 0.05, "max_iters": 25, "convergence_tol": 1e-9,
           "threads": 1}
    cfg.update(kw)
    return cfg


def test_benchmark_report_fields_and_determinism():
    m = _bench_matrix()
    r1 = run_benchmark(_config(m))
    r2 = run_benchmark(_config(m))
    assert r1.rmse == r2.rmse
    assert r1.extra["baseline_rmse"] == r2.extra["baseline_rmse"]
    assert len(r1.fold_rmse) == 3
    assert 0.0 <= r1.fallback_fraction <= 1.0
    assert "speedup" in r1.extra
    doc = json.loads(r1.to_json())
    assert {"mode", "rmse", "fold_rmse", "fallback_fraction", "wall_times",
            "block_stats", "spec"} <= set(doc)


def test_benchmark_pooled_rmse_equals_oracle_rescoring(tmp_path):
    m = _bench_matrix()
    dump = tmp_path / "preds.tsv"
    report = run_benchmark(_config(m, mode="lmf", dump_predictions=str(dump)))
    truth, pred = [], []
    with open(dump) as fh:
        for line in fh:
            _, _, x, p = line.split("\t")
            truth.append(float(x))
            pred.append(float(p))
    assert report.rmse == pytest.approx(rmse(truth, pred), abs=1e-9)


def test_benchmark_baseline_only_and_lmf_only_agree_with_both():
    m = _bench_matrix()
    both = run_benchmark(_config(m))
    base = run_benchmark(_config(m, mode="baseline"))
    lmfr = run_benchmark(_config(m, mode="lmf"))
    assert base.rmse == pytest.approx(both.extra["baseline_rmse"], abs=1e-12)
    assert lmfr.rmse == pytest.approx(both.extra["lmf_rmse"], abs=1e-12)


def test_benchmark_with_approximate_permute_mode():
    m = _bench_matrix()
    report = run_benchmark(_config(m, mode="lmf", permute_mode="abbdf",
                                   target_density=0.5, folds=2))
    assert report.rmse > 0
    assert all(k >= 1 for k in report.block_stats["blocks"])
    assert "fchr" not in report.block_stats  # only the balanced mode logs rounds


def test_benchmark_config_levels_reach_the_spec():
    m = _bench_matrix()
    report = run_benchmark(_config(m, algorithm="mmmf_fast", mode="baseline",
                                   levels=[1, 2, 3, 4, 5], max_iters=3,
                                   folds=2))
    assert report.spec["levels"] == [1, 2, 3, 4, 5]


def test_benchmark_accepts_shared_fold_trees():
    from lmf import balanced_permute, kfold_split

    m = _bench_matrix()
    plan = kfold_split(m, 3, 5)
    trees = [balanced_permute(plan.train_matrix(m, f), 0.4, seed=5)[0]
             for f in range(3)]
    with_trees = run_benchmark(_config(m, mode="lmf", trees=trees))
    fresh = run_benchmark(_config(m, mode="lmf"))
    assert with_trees.rmse == fresh.rmse
    assert with_trees.block_stats["blocks"] == fresh.block_stats["blocks"]
    with pytest.raises(ValueError):
        run_benchmark(_config(m, mode="lmf", trees=trees[:2]))


def test_benchmark_errors_carry_stage_tags():
    from lmf.errors import DomainError

    m = _bench_matrix()
    bad = RatingMatrix(m.n_rows, m.n_cols, m.rows, m.cols,
                       m.vals - 10.0,  # negatives break nmf
                       row_labels=m.row_labels, col_labels=m.col_labels)
    with pytest.raises(DomainError) as err:
        run_benchmark(_config(bad, algorithm="nmf", mode="lmf"))
    assert "[fit, fold 0]" in str(err.value)


def test_benchmark_rejects_bad_mode_and_missing_density():
    m = _bench_matrix()
    with pytest.raises(ValueError):
        run_benchmark(_config(m, mode="bogus"))
    cfg = _config(m, mode="lmf")
    del cfg["target_density"]
    with pytest.raises(ValueError):
        run_benchmark(cfg)


def test_benchmark_reports_one_time_per_stage_and_fold():
    m = _bench_matrix()
    report = run_benchmark(_config(m))
    times = report.wall_times
    assert list(times) == ["permute", "fit", "predict", "baseline_fit",
                           "baseline_predict"]
    assert all(len(v) == 3 and min(v) >= 0 for v in times.values())
    assert report.extra["speedup"] == sum(times["baseline_fit"]) / (
        sum(times["permute"]) + sum(times["fit"]))


def test_benchmark_rejects_unknown_uncovered_policy_before_permuting(
        monkeypatch):
    import lmf.evaluate
    from lmf.errors import ConfigError

    def no_permute(*args, **kwargs):
        raise AssertionError("a fold was reordered")

    monkeypatch.setattr(lmf.evaluate, "_permute", no_permute)
    with pytest.raises(ConfigError, match="'near'"):
        run_benchmark(_config(_bench_matrix(), uncovered="near"))


@pytest.mark.parametrize("key, value", [("folds", "2"), ("seed", "1"),
                                        ("seed", True), ("threads", "2"),
                                        ("target_density", "0.4")])
def test_cli_bench_config_value_of_the_wrong_type_exits_2(tmp_path, capsys,
                                                          key, value):
    data = tmp_path / "ratings.tsv"
    _write_ratings_file(data, _bench_matrix())
    doc = {"input": str(data), "algorithm": "svd_als", "mode": "both",
           "target_density": 0.4, "folds": 2, "seed": 1, "r": 2,
           "max_iters": 2, "threads": 1, key: value}
    config = tmp_path / "bench.json"
    config.write_text(json.dumps(doc))
    assert cli_main(["bench", "--config", str(config)]) == 2
    assert repr(value) in capsys.readouterr().err


# -- CLI ---------------------------------------------------------------------------

def _write_ratings_file(path, m):
    with open(path, "w") as fh:
        for i, j, v in zip(m.rows, m.cols, m.vals):
            fh.write(f"u{i}\ti{j}\t{v:g}\n")


def test_cli_full_pipeline(tmp_path, capsys):
    m = _bench_matrix()
    data = tmp_path / "ratings.tsv"
    _write_ratings_file(data, m)

    treep = tmp_path / "tree.json"
    rc = cli_main(["permute", "--input", str(data), "--mode", "balanced",
                   "--target-density", "0.4", "--seed", "1",
                   "--out", str(treep)])
    assert rc == 0 and treep.exists()

    rc = cli_main(["analyze", "--tree", str(treep), "--input", str(data)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "pooled assembled density" in out

    rc = cli_main(["analyze", "--tree", str(treep)])  # structural only
    assert rc == 0
    assert "leaf 0" in capsys.readouterr().out

    modeld = tmp_path / "model"
    rc = cli_main(["fit", "--input", str(data), "--tree", str(treep),
                   "--algo", "svd", "--factors", "4", "--reg", "0.05",
                   "--iters", "20", "--seed", "2", "--threads", "1",
                   "--out", str(modeld)])
    assert rc == 0 and (modeld / "manifest.json").exists()

    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("u0\ti1\nu3\ti2\nstranger\ti0\n")
    outp = tmp_path / "preds.tsv"
    rc = cli_main(["predict", "--model", str(modeld), "--pairs", str(pairs),
                   "--out", str(outp)])
    assert rc == 0
    lines = outp.read_text().strip().split("\n")
    assert len(lines) == 3
    lo, hi = m.value_range()
    for line in lines:
        val = float(line.split("\t")[2])
        assert lo <= val <= hi

    foldd = tmp_path / "folds"
    rc = cli_main(["split", "--input", str(data), "--folds", "3",
                   "--seed", "0", "--out", str(foldd)])
    assert rc == 0
    assert (foldd / "plan.json").exists()
    assert (foldd / "test_2.tsv").exists()

    capsys.readouterr()
    rc = cli_main(["eval", "--model", str(modeld),
                   "--test", str(foldd / "test_0.tsv")])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert "rmse" in doc and doc["mode"] == "eval"

    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({
        "input": str(data), "algorithm": "svd_als", "mode": "both",
        "target_density": 0.4, "folds": 2, "seed": 1, "r": 4,
        "reg": 0.05, "max_iters": 15, "threads": 1}))
    rc = cli_main(["bench", "--config", str(cfg)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert "baseline_rmse" in doc and "lmf_rmse" in doc and "speedup" in doc


def test_cli_fit_without_tree_is_single_block(tmp_path):
    m = _bench_matrix()
    data = tmp_path / "ratings.tsv"
    _write_ratings_file(data, m)
    modeld = tmp_path / "model"
    rc = cli_main(["fit", "--input", str(data), "--algo", "nmf",
                   "--factors", "3", "--reg", "0.05", "--iters", "15",
                   "--out", str(modeld)])
    assert rc == 0
    manifest = json.loads((modeld / "manifest.json").read_text())
    assert manifest["n_blocks"] == 1


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("only_two fields\n")
    assert cli_main(["split", "--input", str(bad), "--folds", "2",
                     "--out", str(tmp_path / "f")]) == 2

    dup = tmp_path / "dup.tsv"
    dup.write_text("a b 5\na b 5\n")
    assert cli_main(["permute", "--input", str(dup), "--target-density",
                     "0.5", "--out", str(tmp_path / "t.json")]) == 2

    empty = tmp_path / "empty.tsv"
    empty.write_text("# nothing\n")
    assert cli_main(["split", "--input", str(empty), "--folds", "2",
                     "--out", str(tmp_path / "f2")]) == 4

    non_finite = tmp_path / "nan.tsv"
    non_finite.write_text("a b 5\na c nan\n")
    assert cli_main(["fit", "--input", str(non_finite), "--algo", "svd",
                     "--factors", "2", "--out", str(tmp_path / "m0")]) == 2

    # malformed lines in the files `lmf predict` and `lmf eval` read
    model = tmp_path / "ok_model"
    data = tmp_path / "ok.tsv"
    _write_ratings_file(data, _bench_matrix())
    assert cli_main(["fit", "--input", str(data), "--algo", "svd",
                     "--factors", "2", "--iters", "3", "--out", str(model)]) == 0
    short_pair = tmp_path / "short_pair.tsv"
    short_pair.write_text("u0 i1\nu0\n")
    short_rating = tmp_path / "short_rating.tsv"
    short_rating.write_text("u0 i1 4\nu0 i2\n")
    nan_rating = tmp_path / "nan_rating.tsv"
    nan_rating.write_text("u0 i1 4\nu0 i2 nan\n")
    word_rating = tmp_path / "word_rating.tsv"
    word_rating.write_text("u0 i1 4\nu0 i2 five\n")
    repeated_pair = tmp_path / "repeated_pair.tsv"
    repeated_pair.write_text("u0 i1 4\nu0 i1 3\n")
    capsys.readouterr()
    assert cli_main(["predict", "--model", str(model),
                     "--pairs", str(short_pair)]) == 2
    assert f"{short_pair}:2:" in capsys.readouterr().err
    for bad_test in (short_rating, nan_rating, word_rating, repeated_pair):
        assert cli_main(["eval", "--model", str(model),
                         "--test", str(bad_test)]) == 2
        assert f"{bad_test}:2:" in capsys.readouterr().err

    # divergence -> exit 3
    rc = cli_main(["fit", "--input", str(data), "--algo", "pmf",
                   "--factors", "4", "--learning-rate", "99.0",
                   "--iters", "30", "--out", str(tmp_path / "m")])
    assert rc == 3

    # factorizer specs with an unknown or a missing key -> exit 2
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("u0 i1\n")
    manifest = json.loads((model / "manifest.json").read_text())
    manifest["spec"]["foo"] = 1
    (model / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert cli_main(["predict", "--model", str(model),
                     "--pairs", str(pairs)]) == 2
    assert "'foo'" in capsys.readouterr().err
    spec = manifest["spec"]
    manifest["spec"] = None
    (model / "manifest.json").write_text(json.dumps(manifest))
    assert cli_main(["predict", "--model", str(model),
                     "--pairs", str(pairs)]) == 2
    del spec["foo"]
    manifest["spec"] = spec
    (model / "manifest.json").write_text(json.dumps(manifest))
    sidecar_path = model / "block_0000.fac.json"
    sidecar = json.loads(sidecar_path.read_text())
    del sidecar["spec"]["algorithm"]
    sidecar_path.write_text(json.dumps(sidecar))
    assert cli_main(["predict", "--model", str(model),
                     "--pairs", str(pairs)]) == 2
    assert "'algorithm'" in capsys.readouterr().err
    config = tmp_path / "no_algorithm.json"
    config.write_text(json.dumps({"input": str(data), "mode": "baseline",
                                  "folds": 2}))
    assert cli_main(["bench", "--config", str(config)]) == 2
    assert "'algorithm'" in capsys.readouterr().err

    # spec fields of the wrong type -> exit 2, naming the field
    for field, value in (("r", "abc"), ("r", 2.5), ("reg", "x"),
                         ("max_iters", 1.5)):
        config.write_text(json.dumps({"input": str(data), "mode": "baseline",
                                      "folds": 2, "algorithm": "svd_als",
                                      field: value}))
        assert cli_main(["bench", "--config", str(config)]) == 2
        assert f"'{field}'" in capsys.readouterr().err

    # non-finite or negative hyperparameters -> exit 2, naming the field
    for algorithm, field, value in (("svd_als", "reg", float("nan")),
                                    ("pmf_sgd", "learning_rate", float("inf")),
                                    ("svd_als", "convergence_tol", -1.0)):
        config.write_text(json.dumps({"input": str(data), "mode": "baseline",
                                      "folds": 2, "algorithm": algorithm,
                                      field: value}))
        assert cli_main(["bench", "--config", str(config)]) == 2
        assert field in capsys.readouterr().err

    # model files missing a key or holding the wrong kind of value -> exit 2,
    # naming the file and the key
    model = tmp_path / "ok_model2"
    assert cli_main(["fit", "--input", str(data), "--algo", "svd",
                     "--factors", "2", "--iters", "3", "--out", str(model)]) == 0

    def drop(key):
        return lambda doc: {k: v for k, v in doc.items() if k != key}

    def drop_root_rows(doc):
        doc["root"] = drop("rows")(doc["root"])
        return doc

    cases = [("manifest.json", drop("mu"), "'mu'"),
             ("manifest.json", drop("n_blocks"), "'n_blocks'"),
             ("manifest.json", drop("spec"), "'spec'"),
             ("manifest.json", lambda doc: {**doc, "value_range": ["a", "b"]},
              "'value_range'"),
             ("tree.json", drop("mode"), "'mode'"),
             ("tree.json", drop_root_rows, "'rows'"),
             ("tree.json", lambda doc: [doc], "list"),
             ("block_0000.fac.json", drop("history"), "'history'")]
    capsys.readouterr()
    for name, mutate, key in cases:
        path = model / name
        text = path.read_text()
        path.write_text(json.dumps(mutate(json.loads(text))))
        assert cli_main(["predict", "--model", str(model),
                         "--pairs", str(pairs)]) == 2, (name, key)
        err = capsys.readouterr().err
        assert name in err and key in err, err
        path.write_text(text)
    assert cli_main(["predict", "--model", str(model),
                     "--pairs", str(pairs)]) == 0


def test_predict_labels_and_cli_fall_back_on_unknown_labels(tmp_path, capsys):
    from lmf import lmf_fit
    from test_lmf import SPEC, bordered_matrix, bordered_tree

    m = bordered_matrix(np.random.default_rng(4))
    model = lmf_fit(bordered_tree(m), m, SPEC)
    model.save(tmp_path / "model")
    lo, hi = model.value_range
    users = ["0", "nobody", "4", "nobody", "0"]
    items = ["0", "3", "ghost", "ghost", "2"]
    pred, covered = model.predict_labels(users, items)
    assert covered.tolist() == [True, False, False, False, False]
    assert pred[0] == model.predict_many([0], [0])[0][0]
    assert pred[1] == np.clip(model.mu + model.b_item[3], lo, hi)
    assert pred[2] == np.clip(model.mu + model.b_user[4], lo, hi)
    assert pred[3] == np.clip(model.mu, lo, hi)
    assert pred[4] == model.predict(0, 2)  # known labels, uncovered cell

    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("# user item\n" + "".join(
        f"{u}\t{it}\n" for u, it in zip(users, items)) + "\n")
    out = tmp_path / "pred.tsv"
    assert cli_main(["predict", "--model", str(tmp_path / "model"),
                     "--pairs", str(pairs), "--out", str(out)]) == 0
    lines = [line.split("\t") for line in out.read_text().splitlines()]
    assert [(u, it) for u, it, _ in lines] == list(zip(users, items))
    assert np.allclose([float(p) for *_, p in lines], pred, rtol=0, atol=5e-7)

    test = tmp_path / "test.tsv"
    test.write_text("".join(f"{u} {it} 3\n" for u, it in zip(users, items)))
    capsys.readouterr()
    assert cli_main(["eval", "--model", str(tmp_path / "model"),
                     "--test", str(test)]) == 0
    doc = json.loads(capsys.readouterr().out)
    # three lines with an unknown label plus the uncovered cell (0, 2)
    assert doc["fallback_fraction"] == pytest.approx(4 / 5)
    assert doc["rmse"] == pytest.approx(rmse(np.full(5, 3.0), pred))


def test_cli_fit_rejects_mismatched_tree(tmp_path):
    m = _bench_matrix()
    data = tmp_path / "ratings.tsv"
    _write_ratings_file(data, m)
    other = tmp_path / "other.tsv"
    other.write_text("z1 q1 3\nz2 q2 4\nz1 q2 2\n")
    treep = tmp_path / "tree.json"
    assert cli_main(["permute", "--input", str(other), "--target-density",
                     "0.9", "--out", str(treep)]) == 0
    rc = cli_main(["fit", "--input", str(data), "--tree", str(treep),
                   "--algo", "svd", "--factors", "2",
                   "--out", str(tmp_path / "m")])
    assert rc == 2


def test_predict_many_empty_input():
    import numpy as np

    from lmf import FactorizerSpec, lmf_fit
    from test_lmf import single_leaf_tree

    m = _bench_matrix()
    model = lmf_fit(single_leaf_tree(m), m,
                    FactorizerSpec(algorithm="svd_als", r=2, max_iters=5))
    preds, covered = model.predict_many(np.empty(0, dtype=int),
                                        np.empty(0, dtype=int))
    assert preds.size == 0 and covered.size == 0


@pytest.mark.parametrize("command", ["split", "permute", "fit", "bench",
                                     "eval"])
def test_cli_non_finite_rating_names_file_and_line(tmp_path, capsys, command):
    bad = tmp_path / "bad.tsv"
    bad.write_text("u0 i0 4\nu1 i0 -inf\n")
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({"input": str(bad), "algorithm": "svd_als",
                                  "mode": "baseline", "folds": 2}))
    model = tmp_path / "model"
    if command == "eval":
        good = tmp_path / "good.tsv"
        _write_ratings_file(good, _bench_matrix())
        assert cli_main(["fit", "--input", str(good), "--algo", "svd",
                         "--factors", "2", "--iters", "2",
                         "--out", str(model)]) == 0
    argv = {"split": ["--input", str(bad), "--out", str(tmp_path / "f")],
            "permute": ["--input", str(bad), "--target-density", "0.5",
                        "--out", str(tmp_path / "t.json")],
            "fit": ["--input", str(bad), "--algo", "svd",
                    "--out", str(model)],
            "bench": ["--config", str(config)],
            "eval": ["--model", str(model), "--test", str(bad)]}[command]
    capsys.readouterr()
    assert cli_main([command, *argv]) == 2
    assert f"{bad}:2: non-finite rating '-inf'" in capsys.readouterr().err


def test_cli_analyze_reports_the_library_figures(tmp_path, capsys):
    from lmf import BBDFTree, assemble_blocks, load_ratings

    data = tmp_path / "ratings.tsv"
    _write_ratings_file(data, _bench_matrix())
    treep = tmp_path / "tree.json"
    assert cli_main(["permute", "--input", str(data), "--target-density",
                     "0.4", "--seed", "1", "--out", str(treep)]) == 0
    tree, m = BBDFTree.load(treep), load_ratings(data)
    assert tree.rounds
    blocks = assemble_blocks(tree, m)
    pooled = sum(b.nnz for b in blocks) / sum(b.area for b in blocks)
    capsys.readouterr()
    assert cli_main(["analyze", "--tree", str(treep),
                     "--input", str(data)]) == 0
    out = capsys.readouterr().out
    assert f"pooled assembled density: {pooled:.4f}\n" in out
    assert (f"FCHR: {fchr(tree.rounds):.4f} over {len(tree.rounds)} "
            "rounds\n") in out


def test_cli_analyze_and_fit_reject_a_tree_of_another_log(tmp_path, capsys):
    m = _bench_matrix()
    data = tmp_path / "ratings.tsv"
    _write_ratings_file(data, m)
    # the same entries under other labels: same shape, labels differ
    relabelled = tmp_path / "relabelled.tsv"
    relabelled.write_text(data.read_text().replace("u", "v"))
    treep = tmp_path / "tree.json"
    assert cli_main(["permute", "--input", str(relabelled),
                     "--target-density", "0.4", "--out", str(treep)]) == 0
    capsys.readouterr()
    for argv in (["analyze", "--tree", str(treep), "--input", str(data)],
                 ["fit", "--input", str(data), "--tree", str(treep),
                  "--algo", "svd", "--out", str(tmp_path / "m")]):
        assert cli_main(argv) == 2
        assert "row labels differ" in capsys.readouterr().err


def test_bench_rejects_a_dump_target_that_is_not_a_path(tmp_path, capfd,
                                                        monkeypatch):
    import lmf.evaluate
    from lmf.errors import ConfigError

    data = tmp_path / "ratings.tsv"
    _write_ratings_file(data, _bench_matrix())
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({"input": str(data), "algorithm": "svd_als",
                                  "mode": "baseline", "folds": 2, "r": 2,
                                  "max_iters": 2, "dump_predictions": 1}))
    assert cli_main(["bench", "--config", str(config)]) == 2
    os.write(1, b"stdout still open\n")
    out, err = capfd.readouterr()
    assert "dump_predictions" in err and out == "stdout still open\n"

    def no_split(*args, **kwargs):
        raise AssertionError("the folds were split")

    with monkeypatch.context() as mp:
        mp.setattr(lmf.evaluate, "kfold_split", no_split)
        with pytest.raises(ConfigError, match="dump_predictions"):
            run_benchmark(_config(_bench_matrix(), dump_predictions=2))
    dump = tmp_path / "preds.tsv"  # a path object is a path too
    run_benchmark(_config(_bench_matrix(), mode="baseline", folds=2,
                          max_iters=2, dump_predictions=dump))
    assert len(dump.read_text().splitlines()) == _bench_matrix().nnz


# -- one family of input errors ----------------------------------------------------

def test_cli_lets_a_defect_propagate(tmp_path, monkeypatch):
    """Only an ``LMFError`` or an ``OSError`` is bad input; a ``ValueError``
    from inside a command is a defect and keeps its traceback."""
    import lmf.cli

    data = tmp_path / "ratings.tsv"
    _write_ratings_file(data, _bench_matrix())

    def broken(*args, **kwargs):
        raise ValueError("a defect")

    monkeypatch.setattr(lmf.cli, "kfold_split", broken)
    with pytest.raises(ValueError, match="a defect"):
        cli_main(["split", "--input", str(data), "--folds", "2",
                  "--out", str(tmp_path / "f")])


def test_cli_non_utf8_files_name_file_and_line(tmp_path, capsys):
    ratings = tmp_path / "latin1.tsv"
    # past the text reader's first chunk, so it fails mid-file
    ratings.write_bytes("".join(f"u{k} i{k} 4\n" for k in range(4000))
                        .encode() + "café b 3\n".encode("latin-1"))
    assert cli_main(["split", "--input", str(ratings), "--folds", "2",
                     "--out", str(tmp_path / "f")]) == 2
    assert f"{ratings}:4001: not UTF-8" in capsys.readouterr().err

    model = tmp_path / "model"
    data = tmp_path / "ok.tsv"
    _write_ratings_file(data, _bench_matrix())
    assert cli_main(["fit", "--input", str(data), "--algo", "svd",
                     "--factors", "2", "--iters", "3", "--out", str(model)]) == 0
    pairs = tmp_path / "pairs.tsv"
    pairs.write_bytes(b"u0 i1\nu1 \xff\n")
    capsys.readouterr()
    assert cli_main(["predict", "--model", str(model),
                     "--pairs", str(pairs)]) == 2
    assert f"{pairs}:2: not UTF-8" in capsys.readouterr().err


def test_cli_input_errors_without_a_catch_all(tmp_path, capsys):
    data = tmp_path / "ratings.tsv"
    _write_ratings_file(data, _bench_matrix())
    assert cli_main(["split", "--input", str(data), "--folds", "2",
                     "--seed", "-1", "--out", str(tmp_path / "f")]) == 2
    assert "non-negative" in capsys.readouterr().err
    # the fit derives each block's seed, so a negative one still fits
    assert cli_main(["fit", "--input", str(data), "--algo", "svd",
                     "--factors", "2", "--iters", "2", "--seed", "-1",
                     "--out", str(tmp_path / "m")]) == 0

    config = tmp_path / "bench.json"
    for doc in ([{"input": str(data)}], {"algorithm": "svd_als",
                                         "mode": "baseline"}):
        config.write_text(json.dumps(doc))
        assert cli_main(["bench", "--config", str(config)]) == 2
    config.write_text('{"input": ')
    assert cli_main(["bench", "--config", str(config)]) == 2
    assert f"{config} is not valid JSON" in capsys.readouterr().err


def test_cli_fit_leaves_spec_defaults_to_the_spec(tmp_path, monkeypatch):
    import lmf.cli
    from lmf import FactorizerSpec
    from lmf.errors import EmptyInputError

    data = tmp_path / "ratings.tsv"
    _write_ratings_file(data, _bench_matrix())
    specs = []

    def fit(tree, m, spec, **kwargs):
        specs.append(spec)
        raise EmptyInputError("stop after the spec is built")

    monkeypatch.setattr(lmf.cli, "lmf_fit", fit)
    base = ["fit", "--input", str(data), "--out", str(tmp_path / "m")]
    assert cli_main(base + ["--algo", "mmmf", "--seed", "5"]) == 4
    assert specs.pop() == FactorizerSpec(algorithm="mmmf_fast", seed=5)
    assert cli_main(base + ["--algo", "pmf", "--factors", "3", "--reg-item",
                            "0.5", "--tol", "0.01"]) == 4
    assert specs.pop() == FactorizerSpec(algorithm="pmf_sgd", r=3,
                                         reg_item=0.5, convergence_tol=0.01)


def test_cli_permute_modes_are_the_mode_table():
    from lmf.bbdf import PERMUTE_MODES
    from lmf.cli import build_parser

    sub = next(a for a in build_parser()._actions if a.dest == "command")
    mode = next(a for a in sub.choices["permute"]._actions if a.dest == "mode")
    assert list(mode.choices) == list(PERMUTE_MODES)
    assert mode.default == "balanced"
