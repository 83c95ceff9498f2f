"""Saved-model properties: bitwise round trips, stitched predictions, and
clean failures on truncated or edited model files."""

import json
import os
import shutil
import struct
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lmf import FactorizerSpec, LMFModel, balanced_permute, lmf_fit
from lmf.cli import main as cli_main
from lmf.errors import LMFError, ShapeError, SpecError

from conftest import planted_blocks

SPEC = FactorizerSpec(algorithm="svd_als", r=3, reg=0.02, max_iters=5,
                      convergence_tol=1e-12, seed=11)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A three-block model saved to disk, and a pairs file over its
    labels."""
    rng = np.random.default_rng(21)
    m = planted_blocks(rng, [(9, 10), (8, 9)], 0.5, bridge_rows=1)
    tree, _ = balanced_permute(m, 0.5, seed=4)
    model = lmf_fit(tree, m, SPEC, uncovered="cross")
    assert model.n_blocks == 3
    base = tmp_path_factory.mktemp("artifacts")
    model.save(base / "model")
    pairs = base / "pairs.tsv"
    pairs.write_text("".join(f"{u}\t{i}\n" for u, i in
                             zip(m.row_labels[::3], m.col_labels[::2])))
    return base / "model", pairs


def _assert_fails_cleanly(directory, pairs):
    """``LMFModel.load`` raises an input error, and ``lmf predict`` exits 2."""
    with pytest.raises(LMFError) as err:
        LMFModel.load(directory)
    assert isinstance(err.value, ShapeError) and err.value.exit_code == 2
    assert cli_main(["predict", "--model", str(directory),
                     "--pairs", str(pairs)]) == 2


def _edited_copy(saved, name, edit):
    """A temporary copy of the saved model whose file ``name`` went through
    ``edit(bytes) -> bytes``."""
    tmp = tempfile.TemporaryDirectory()
    directory = os.path.join(tmp.name, "model")
    shutil.copytree(saved, directory)
    path = os.path.join(directory, name)
    with open(path, "rb") as fh:
        raw = fh.read()
    with open(path, "wb") as fh:
        fh.write(edit(raw))
    return tmp, directory


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), keep=st.floats(0.0, 1.0, exclude_max=True))
def test_any_truncated_model_file_fails_cleanly(saved, data, keep):
    directory, pairs = saved
    name = data.draw(st.sampled_from(sorted(os.listdir(directory))))
    tmp, edited = _edited_copy(directory, name,
                               lambda raw: raw[:int(keep * len(raw))])
    with tmp:
        _assert_fails_cleanly(edited, pairs)


def _json_edit(change):
    def edit(raw):
        doc = json.loads(raw)
        change(doc)
        return json.dumps(doc).encode()
    return edit


def _child(doc):
    return doc["root"]["children"][0]


EDITS = {
    "child row out of range": ("tree.json", lambda d: _child(d)["rows"]
                               .__setitem__(0, 999)),
    "negative child column": ("tree.json", lambda d: _child(d)["cols"]
                              .__setitem__(0, -1)),
    "children not a list": ("tree.json",
                            lambda d: d["root"].__setitem__("children", 5)),
    "row count a string": ("tree.json", lambda d: d.__setitem__("n_rows",
                                                                 "30")),
    "dropped not pairs": ("tree.json",
                          lambda d: d["root"].__setitem__("dropped",
                                                          [1, 2, 3])),
    "fractional index": ("tree.json", lambda d: _child(d)["rows"]
                         .__setitem__(0, 0.5)),
    "short row labels": ("tree.json",
                         lambda d: d.__setitem__("row_ids", d["row_ids"][:-1])),
    "child row in two parts": ("tree.json", lambda d: _child(d)["rows"]
                               .append(d["root"]["children"][1]["rows"][0])),
    "unknown uncovered policy": ("manifest.json",
                                 lambda d: d.__setitem__("uncovered", "near")),
    "mean not finite": ("manifest.json",
                        lambda d: d.__setitem__("mu", float("nan"))),
    "range reversed": ("manifest.json",
                       lambda d: d.__setitem__("value_range", [5, 1])),
    "range unbounded": ("manifest.json", lambda d: d.__setitem__(
        "value_range", [1, float("inf")])),
    "row label a list": ("tree.json",
                         lambda d: d["row_ids"].__setitem__(0, [1])),
    "row label repeated": ("tree.json", lambda d: d["row_ids"]
                           .__setitem__(1, d["row_ids"][0])),
    # a byte edit: the header's algorithm tag, past the four in the table
    "algorithm tag out of range": ("block_0000.fac", lambda raw: raw[:8]
                                   + struct.pack("<I", 4) + raw[12:]),
}


@pytest.mark.parametrize("what", sorted(EDITS))
def test_edited_model_file_fails_cleanly(saved, what):
    name, change = EDITS[what]
    edit = _json_edit(change) if name.endswith(".json") else change
    tmp, edited = _edited_copy(saved[0], name, edit)
    with tmp:
        _assert_fails_cleanly(edited, saved[1])


@pytest.mark.parametrize("name", ["manifest.json", "block_0001.fac.json"])
@pytest.mark.parametrize("field, value, message", [
    ("r", 0, "factor count r must be >= 1"),
    ("algorithm", "als", "unknown algorithm 'als'")])
def test_out_of_range_stored_spec_is_a_spec_error(saved, name, field, value,
                                                  message):
    """A stored spec with a value out of range raises :class:`SpecError`
    (exit 2), as one with a field of the wrong type does."""
    tmp, edited = _edited_copy(
        saved[0], name, _json_edit(lambda d: d["spec"].__setitem__(field,
                                                                   value)))
    with tmp:
        with pytest.raises(SpecError, match=message):
            LMFModel.load(edited)
        assert cli_main(["predict", "--model", edited,
                         "--pairs", str(saved[1])]) == 2


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_moved_tree_index_fails_cleanly(saved, data):
    """Every tree index sits in exactly one place, so moving any one of
    them to another value breaks a range or a partition check."""
    directory, pairs = saved
    with open(os.path.join(directory, "tree.json"), encoding="utf-8") as fh:
        doc = json.load(fh)

    def nodes(d, node=None):
        node = node or d["root"]
        return [node] + [x for c in node["children"] for x in nodes(d, c)]

    k = data.draw(st.integers(0, len(nodes(doc)) - 1))
    node = nodes(doc)[k]
    key = data.draw(st.sampled_from(
        [f for f in ("rows", "cols", "row_border", "col_border") if node[f]]))
    n = doc["n_rows"] if key in ("rows", "row_border") else doc["n_cols"]
    pos = data.draw(st.integers(0, len(node[key]) - 1))
    value = data.draw(st.integers(-3, n + 3).filter(
        lambda v: v != node[key][pos]))
    tmp, edited = _edited_copy(
        directory, "tree.json",
        _json_edit(lambda d: nodes(d)[k][key].__setitem__(pos, value)))
    with tmp:
        _assert_fails_cleanly(edited, pairs)


def _fitted(seed, algo, uncovered):
    rng = np.random.default_rng(seed)
    sizes = [(int(rng.integers(4, 9)), int(rng.integers(4, 9)))
             for _ in range(int(rng.integers(2, 4)))]
    m = planted_blocks(rng, sizes, 0.6, density_cross=0.03, bridge_rows=1)
    tree, _ = balanced_permute(m, 0.6, seed=seed)
    return m, lmf_fit(tree, m, replace(SPEC, algorithm=algo),
                      uncovered=uncovered)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000),
       algo=st.sampled_from(["svd_als", "nmf", "pmf_sgd", "mmmf_fast"]),
       uncovered=st.sampled_from(["bias", "cross"]))
def test_save_load_round_trip_is_bitwise(seed, algo, uncovered):
    m, model = _fitted(seed, algo, uncovered)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a"), os.path.join(tmp, "b")
        model.save(first)
        loaded = LMFModel.load(first)
        loaded.save(second)
        assert sorted(os.listdir(first)) == sorted(os.listdir(second))
        for name in os.listdir(first):
            with open(os.path.join(first, name), "rb") as a, \
                    open(os.path.join(second, name), "rb") as b:
                assert a.read() == b.read(), name
    for a, b in zip(model.pairs, loaded.pairs):
        assert np.array_equal(a.U, b.U) and np.array_equal(a.V, b.V)
    I, J = np.divmod(np.arange(m.n_rows * m.n_cols), m.n_cols)
    for x, y in zip(model.predict_many(I, J), loaded.predict_many(I, J)):
        assert np.array_equal(x, y)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), uncovered=st.sampled_from(["bias",
                                                                "cross"]))
def test_stitched_prediction_is_mean_over_covering_blocks(seed, uncovered):
    """A covered cell gets the clamped mean of ``U_a[i] . V_a[j]`` over the
    blocks ``a`` that hold both indices; an uncovered one, under "cross",
    the clamped mean of ``U_a[i] . V_b[j]`` over every block ``a`` holding
    the row and ``b`` holding the column, else the bias fallback."""
    m, model = _fitted(seed, "svd_als", uncovered)
    lo, hi = model.value_range
    where = [({int(g): k for k, g in enumerate(rows)},
              {int(g): k for k, g in enumerate(cols)}, pair)
             for rows, cols, pair in zip(model.block_rows, model.block_cols,
                                         model.pairs)]
    I, J = np.divmod(np.arange(m.n_rows * m.n_cols), m.n_cols)
    pred, covered = model.predict_many(I, J)
    for t, (i, j) in enumerate(zip(I.tolist(), J.tolist())):
        own = [float(p.U[r[i]] @ p.V[c[j]]) for r, c, p in where
               if i in r and j in c]
        cross = [float(pa.U[ra[i]] @ pb.V[cb[j]]) for ra, _, pa in where
                 if i in ra for _, cb, pb in where if j in cb]
        if own:
            expect = np.mean(own)
        elif uncovered == "cross" and cross:
            expect = np.mean(cross)
        else:
            expect = model.mu + model.b_user[i] + model.b_item[j]
        assert covered[t] == bool(own)
        assert pred[t] == pytest.approx(min(max(expect, lo), hi), abs=1e-9)
