"""Mutations of ``eval``'s inputs: each run in-process exits 0, 1 or 2 and raises nothing.

A mutation changes one value of a valid prediction or truth file: it replaces a value
at any depth by a list, an object, a number, a bool, a string or null, drops a key or a
list item, or changes one cell or the header of segment's CSV.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from wsibp.cli import main

ANN = {"object": 0, "object_name": "obj0", "object_score": 0.6, "instance": 1,
       "attributes": [[2, 0.8], [3, 0.1]], "attribute_scores": [0.8, 0.1]}
QUERY = {"object": 1, "attributes": [3], "ranking": [["b1", 0, 0.9], ["b0", 2, 0.4]]}
INPUTS = {  # task -> (prediction, truth); a str prediction is segment's CSV
    "annotation": (
        {"bags": [{"bag": "b0", "annotations": [ANN]},
                  {"bag": "b1", "annotations": [{**ANN, "object": 1}]}]},
        {"k_objects": 2, "bags": {"b0": {"object": 0, "attributes": [2]},
                                  "b1": {"object": 0, "attributes": [2, 3]}}}),
    "query": (
        {"queries": [QUERY, {**QUERY, "attributes": []}]},
        {"queries": [{"object": 1, "attributes": [3], "relevant": ["b1"]},
                     {"object": 1, "attributes": [], "relevant": ["b0", "b1"]}]}),
    "segmentation": (
        "bag,instance,label_index,label_name,score\n"
        "b0,0,0,obj0,0.9\nb0,1,1,obj1,0.7\nb0,2,1,obj1,0.6\nb1,0,0,obj0,0.8\nb1,1,0,obj0,0.5\n",
        {"bags": {"b0": {"labels": [0, 1, 0], "pixels": [4, 2, 1.5]},
                  "b1": {"labels": [0, 2], "pixels": [1, 1]}}}),
}

VALUES = st.one_of(
    st.sampled_from([[], [0], [[0]], {}, {"bags": []}, "", "b0", None, True, False, 0, -1,
                     2 ** 64, 0.5, 1e308]),
    st.floats(), st.integers(), st.text(max_size=3),
    st.lists(st.integers(-1, 3), max_size=3), st.dictionaries(st.text(max_size=2),
                                                              st.integers(), max_size=2))
CELLS = st.one_of(st.sampled_from(["", " ", "-1", "1.5", "x", " 1 ", "b0", "b1", "bag",
                                   "label_index", "99999999999999999999", "é"]),
                  st.text(st.characters(blacklist_characters="\r\n", codec="utf-8"),
                          max_size=3))


def _paths(value, path=()):
    """Every path into a JSON value, the value's own first."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def mutated_json(draw, value):
    path = draw(st.sampled_from(list(_paths(value))[1:]))
    value = json.loads(json.dumps(value))
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(VALUES)
    return json.dumps(value)


@st.composite
def mutated_csv(draw, text):
    rows = [line.split(",") for line in text.splitlines()]
    r = draw(st.integers(0, len(rows) - 1))
    if draw(st.integers(0, 4)) == 0:
        del rows[r]
    else:
        rows[r][draw(st.integers(0, len(rows[r]) - 1))] = draw(CELLS)
    return "".join(",".join(row) + "\n" for row in rows)


def _run(task: str, pred: str, truth: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        pred_path = tmp / ("segs" if task == "segmentation" else "pred.json")
        if task == "segmentation":
            pred_path.mkdir()
            (pred_path / "segmentation.csv").write_bytes(pred.encode("utf-8"))
        else:
            pred_path.write_bytes(pred.encode("utf-8"))
        (tmp / "truth.json").write_bytes(truth.encode("utf-8"))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["eval", "--task", task, "--pred", str(pred_path),
                         "--truth", str(tmp / "truth.json"), "--t", "1,2"])
    assert code in (0, 1, 2)
    assert (code == 2) == err.getvalue().startswith("error: ")
    return code


@pytest.mark.parametrize("task", list(INPUTS))
def test_unmutated_inputs_score(task):
    pred, truth = INPUTS[task]
    assert _run(task, pred if isinstance(pred, str) else json.dumps(pred), json.dumps(truth)) == 0


@pytest.mark.parametrize("task", list(INPUTS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_inputs_exit_cleanly(task, data):
    pred, truth = INPUTS[task]
    pred_text = pred if isinstance(pred, str) else json.dumps(pred)
    truth_text = json.dumps(truth)
    if data.draw(st.booleans()):
        truth_text = data.draw(mutated_json(truth))
    else:
        pred_text = data.draw(mutated_csv(pred) if isinstance(pred, str) else mutated_json(pred))
    _run(task, pred_text, truth_text)
