import contextlib
import dataclasses
import json
import os
import threading

import numpy as np
import pytest

from wsibp import BagPosterior, WeakLabels, fit, tasks
from wsibp.cli import build_parser, main
from wsibp.io import (load_dataset, load_model, load_posteriors, save_dataset,
                      save_posteriors, write_segmentation)


SYNTH = ["synth", "--num-bags", "8", "--instances", "12", "--feature-dim", "6",
         "--k-objects", "2", "--k-attributes", "2", "--k-extra", "0",
         "--sigma", "0.1", "--seed", "4"]
HYPER = ["--sigma", "0.1", "--k-extra", "0", "--max-iters", "60"]


@pytest.fixture
def workspace(tmp_path):
    ds = str(tmp_path / "ds")
    assert main(SYNTH + ["--out", ds]) == 0
    return tmp_path, ds


def test_synth_writes_dataset_and_truth(workspace):
    _, ds = workspace
    loaded = load_dataset(ds)
    assert len(loaded.bags) == 8
    with open(ds + ".truth.json", encoding="ascii") as fh:
        truth = json.load(fh)
    assert len(truth["true_z"]) == 8


def test_synth_deterministic_files(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(SYNTH + ["--out", a]) == 0
    assert main(SYNTH + ["--out", b]) == 0
    assert sorted(os.listdir(tmp_path)) == ["a", "a.truth.json", "b", "b.truth.json"]
    for suffix in ("", ".truth.json"):
        assert open(a + suffix, "rb").read() == open(b + suffix, "rb").read()


def test_full_pipeline(workspace):
    tmp, ds = workspace
    model = str(tmp / "m.model")
    post = str(tmp / "t.post")
    assert main(["fit", "--data", ds, "--model-out", model,
                 "--trace-out", str(tmp / "trace.csv")] + HYPER) == 0
    assert main(["infer", "--data", ds, "--model", model, "--out", post]) == 0
    ann = str(tmp / "ann.json")
    assert main(["annotate", "--posteriors", post, "--model", model,
                 "--out", ann, "--top-attrs", "2"]) == 0
    payload = json.load(open(ann))
    assert len(payload["bags"]) == 8
    q = str(tmp / "q.json")
    assert main(["query", "--posteriors", post, "--model", model,
                 "--object", "obj0", "--attrs", "att1", "--out", q]) == 0
    ranking = json.load(open(q))["queries"][0]["ranking"]
    assert len(ranking) == 8
    segs = tmp / "segs"
    assert main(["segment", "--posteriors", post, "--model", model,
                 "--out-dir", str(segs)]) == 0
    assert os.listdir(segs) == ["segmentation.csv"]
    assert {bag: len(v) for bag, v in _seg_labels(segs).items()} == {
        b.id: 12 for b in load_dataset(ds).bags}


def _seg_labels(segs):
    """``{bag id: labels}`` from the rows of ``segs/segmentation.csv``, in file order."""
    lines = (segs / "segmentation.csv").read_text().splitlines()
    assert lines[0] == "bag,instance,label_index,label_name,score"
    labels = {}
    for row in lines[1:]:
        bag, j, k = row.split(",")[:3]
        labels.setdefault(bag, []).append(int(k))
        assert int(j) == len(labels[bag]) - 1
    return labels


def test_fit_threads_bit_identical(workspace, fit_files):
    # model and posterior files from separate processes, OpenBLAS on 1 and 2 threads
    _, ds = workspace
    flags = HYPER + ["--beta", "1.0", "--rho", "0.1"]
    assert fit_files(ds, flags, 1) == fit_files(ds, flags, 2)


def test_eval_segmentation_identity(workspace, capsys):
    tmp, ds = workspace
    model = str(tmp / "m.model")
    post = str(tmp / "t.post")
    segs = tmp / "segs"
    assert main(["fit", "--data", ds, "--model-out", model] + HYPER) == 0
    assert main(["infer", "--data", ds, "--model", model, "--out", post]) == 0
    assert main(["segment", "--posteriors", post, "--model", model,
                 "--out-dir", str(segs)]) == 0
    # truth copied from the predictions themselves: all metrics must be 1
    truth = {"bags": {bid: {"labels": v} for bid, v in _seg_labels(segs).items()}}
    tpath = str(tmp / "truth.json")
    json.dump(truth, open(tpath, "w"))
    capsys.readouterr()
    assert main(["eval", "--task", "segmentation", "--pred", str(segs),
                 "--truth", tpath]) == 0
    out = capsys.readouterr().out
    assert "mean IOU: 1.0000" in out
    assert "per-pixel accuracy: 1.0000" in out


def test_eval_annotation_and_query(workspace, tmp_path, capsys):
    tmp, ds = workspace
    pred = {"bags": [{"bag": "b0", "annotations": [{
        "object": 0, "object_name": "obj0", "object_score": 0.9,
        "instance": 0, "attributes": [[2, 0.8], [3, 0.1]],
        "attribute_scores": [0.8, 0.1],
    }]}]}
    truth = {"k_objects": 2,
             "bags": {"b0": {"object": 0, "attributes": [2]}}}
    ppath, tpath = str(tmp / "p.json"), str(tmp / "t.json")
    json.dump(pred, open(ppath, "w"))
    json.dump(truth, open(tpath, "w"))
    capsys.readouterr()
    assert main(["eval", "--task", "annotation", "--pred", ppath,
                 "--truth", tpath, "--t", "1,2"]) == 0
    out = capsys.readouterr().out
    assert "AP@1: 1.0000" in out

    qpred = {"queries": [{"object": 0, "attributes": [2],
                          "ranking": [["b0", 0, 0.9], ["b1", 0, 0.1]]}]}
    qtruth = {"queries": [{"object": 0, "attributes": [2],
                           "relevant": ["b0"]}]}
    json.dump(qpred, open(ppath, "w"))
    json.dump(qtruth, open(tpath, "w"))
    assert main(["eval", "--task", "query", "--pred", ppath,
                 "--truth", tpath]) == 0
    assert "MAR: 1.0000" in capsys.readouterr().out


def test_eval_annotation_rejects_a_repeated_bag(tmp_path, capsys):
    # a bag listed twice would score only its last entry
    entry = {"bag": "b0", "annotations": [{"object": 0, "attributes": [[2, 0.8]]}]}
    other = {"bag": "b0", "annotations": [{"object": 1, "attributes": [[2, 0.8]]}]}
    pred, truth = tmp_path / "p.json", tmp_path / "t.json"
    truth.write_text(json.dumps({"k_objects": 2,
                                 "bags": {"b0": {"object": 0, "attributes": [2]}}}))
    args = ["eval", "--task", "annotation", "--pred", str(pred), "--truth", str(truth),
            "--t", "1"]
    pred.write_text(json.dumps({"bags": [entry]}))
    capsys.readouterr()
    assert main(args) == 0
    pred.write_text(json.dumps({"bags": [entry, other]}))
    assert main(args) == 2
    assert capsys.readouterr() == ("AP@1: 1.0000\n",
                                   f"error: {pred}: bag entry 1: bag 'b0' is repeated\n")


def test_eval_query_rejects_a_repeated_query(tmp_path, capsys):
    # two rankings of one (object, attributes) query would score only the last
    first = {"object": 0, "attributes": [2, 3], "ranking": [["b0", 0, 0.9], ["b1", 0, 0.1]]}
    second = {**first, "ranking": first["ranking"][::-1]}
    other = {**first, "attributes": [3]}
    pred, truth = tmp_path / "p.json", tmp_path / "t.json"
    truth.write_text(json.dumps({"queries": [{"object": 0, "attributes": a, "relevant": ["b0"]}
                                             for a in ([2, 3], [3])]}))
    args = ["eval", "--task", "query", "--pred", str(pred), "--truth", str(truth)]
    pred.write_text(json.dumps({"queries": [first, other]}))
    capsys.readouterr()
    assert main(args) == 0
    pred.write_text(json.dumps({"queries": [first, other, second]}))
    assert main(args) == 2
    assert capsys.readouterr() == ("MAR: 1.0000\n", f"error: {pred}: query 2: object 0 with "
                                   "attributes [2, 3] is repeated\n")


def test_eval_truth_without_task_key_exit_2(workspace, capsys):
    # synth's <out>.truth.json holds the generating assignments, not eval's layouts
    tmp, ds = workspace
    truth = ds + ".truth.json"
    for task, key in (("segmentation", "bags"), ("annotation", "bags"), ("query", "queries")):
        pred = tmp / "p.json"
        pred.write_text(json.dumps({key: []}))
        assert main(["eval", "--task", task, "--pred", str(pred), "--truth", truth]) == 2
        assert f"{truth}: {task} truth needs a '{key}' key" in capsys.readouterr().err


_ANN = {"object": 0, "attributes": [[2, 0.8]]}
_QUERY = {"object": 0, "attributes": [2], "ranking": [["b0", 0, 0.9]], "relevant": ["b0"]}


@pytest.mark.parametrize("task, pred, truth, at, why", [
    ("annotation", {"bags": [{"bag": "b0", "annotations": [_ANN]},
                             {"bag": "b1", "annotations": [_ANN]}]},
     {"bags": {"b0": {"object": 0, "attributes": [2]}}}, "truth",
     "no truth for bag 'b1' of {pred}"),
    ("annotation", {"bags": [{"bag": "b0", "annotations": [{"object": 0}]}]},
     {"bags": {"b0": {"object": 0, "attributes": [2]}}}, "pred",
     "bag 'b0' needs a 'attributes' key"),
    ("annotation", {"bags": [{"bag": "b0", "annotations": [_ANN]}]},
     {"bags": {"b0": {"attributes": [2]}}}, "truth", "bag 'b0' needs a 'object' key"),
    ("annotation", {"bag": []}, {"bags": {}}, "pred", "annotation prediction needs a 'bags' key"),
    ("query", {"queries": [{"object": 0, "ranking": []}]}, {"queries": [_QUERY]}, "pred",
     "query 0 needs a 'attributes' key"),
    ("query", {"queries": [_QUERY]}, {"queries": [_QUERY, {"object": 0, "relevant": []}]},
     "truth", "query 1 needs a 'attributes' key")])
def test_eval_names_the_file_and_what_is_missing(tmp_path, capsys, task, pred, truth, at, why):
    paths = {"pred": tmp_path / "p.json", "truth": tmp_path / "t.json"}
    paths["pred"].write_text(json.dumps(pred))
    paths["truth"].write_text(json.dumps(truth))
    assert main(["eval", "--task", task, "--pred", str(paths["pred"]),
                 "--truth", str(paths["truth"])]) == 2
    assert capsys.readouterr().err == \
        f"error: {paths[at]}: {why.format(pred=paths['pred'])}\n"


_TRUTH = {"k_objects": 2, "bags": {"b0": {"object": 0, "attributes": [2]}}}
_QTRUTH = {"queries": [_QUERY]}


def _ann(**changed):
    """An annotation prediction of bag b0, with ``changed`` keys of its annotation."""
    return {"bags": [{"bag": "b0", "annotations": [{**_ANN, **changed}]}]}


@pytest.mark.parametrize("task, pred, truth, at, why", [
    ("annotation", {"bags": [{"bag": ["b0"], "annotations": [_ANN]}]}, _TRUTH, "pred",
     "bag entry 0: 'bag' must be string"),
    ("annotation", _ann(attributes=[[[1], 0.5]]), _TRUTH, "pred",
     "bag 'b0': 'attributes' must be [[int, number], ...]"),
    ("annotation", _ann(attribute_scores=[{"a": 1}]), _TRUTH, "pred",
     "bag 'b0': 'attribute_scores' must be [number, ...]"),
    ("annotation", _ann(object=0.7), _TRUTH, "pred", "bag 'b0': 'object' must be int"),
    ("annotation", _ann(object=True), _TRUTH, "pred", "bag 'b0': 'object' must be int"),
    ("annotation", {"bags": [{"bag": "b0", "annotations": 5}]}, _TRUTH, "pred",
     "bag entry 0: 'annotations' must be [...]"),
    ("annotation", {"bags": [{"bag": "b0", "annotations": [{**_ANN, "attribute_scores": [1]}]},
                             {"bag": "b1", "annotations": [{**_ANN, "attribute_scores": []}]}]},
     {"bags": {"b0": _TRUTH["bags"]["b0"], "b1": _TRUTH["bags"]["b0"]}}, "pred",
     "bag 'b1': 'attribute_scores' has 0 values, bag 'b0' has 1"),
    ("annotation", _ann(), {**_TRUTH, "k_objects": [2]}, "truth",
     "annotation truth: 'k_objects' must be int"),
    ("annotation", _ann(), {"bags": {"b0": {"object": 0, "attributes": [[2]]}}}, "truth",
     "bag 'b0': 'attributes' must be [int, ...]"),
    ("annotation", _ann(), {"bags": {"b0": {"object": 0, "attributes": "23"}}}, "truth",
     "bag 'b0': 'attributes' must be [int, ...]"),
    ("annotation", _ann(), {"bags": [_TRUTH["bags"]["b0"]]}, "truth",
     "annotation truth: 'bags' must be {...}"),
    ("query", {"queries": [{**_QUERY, "ranking": [[["b0"], 0, 0.9]]}]}, _QTRUTH, "pred",
     "query 0: 'ranking' must be [[string, int, number], ...]"),
    ("query", {"queries": [{**_QUERY, "attributes": 2}]}, _QTRUTH, "pred",
     "query 0: 'attributes' must be [int, ...]"),
    ("query", {"queries": [_QUERY]}, {"queries": [{**_QUERY, "attributes": 2}]}, "truth",
     "query 0: 'attributes' must be [int, ...]"),
    ("query", {"queries": [_QUERY]}, {"queries": [{**_QUERY, "relevant": "b0"}]}, "truth",
     "query 0: 'relevant' must be [string, ...]"),
    ("query", {"queries": 3}, _QTRUTH, "pred", "query prediction: 'queries' must be [...]")])
def test_eval_rejects_a_value_of_the_wrong_type(tmp_path, capsys, task, pred, truth, at, why):
    # each exits 2 naming the file and the entry, before any line is printed
    paths = {"pred": tmp_path / "p.json", "truth": tmp_path / "t.json"}
    paths["pred"].write_text(json.dumps(pred))
    paths["truth"].write_text(json.dumps(truth))
    assert main(["eval", "--task", task, "--pred", str(paths["pred"]),
                 "--truth", str(paths["truth"])]) == 2
    assert capsys.readouterr() == ("", f"error: {paths[at]}: {why}\n")


@pytest.mark.parametrize("t", ["", ",", " , "])
def test_eval_empty_t_is_a_usage_error(tmp_path, capsys, t):
    # no AP@t line would be printed, so the run would score nothing
    assert main(["eval", "--task", "annotation", "--pred", str(tmp_path / "p.json"),
                 "--truth", str(tmp_path / "t.json"), "--t", t]) == 1
    assert "--t needs at least one value" in capsys.readouterr().err


def test_transductive_segment(workspace):
    # infer --train-data, then segment: the segments of fit(train + test, all labels on)
    tmp, ds = workspace
    test_ds, model, post = str(tmp / "test"), str(tmp / "m.model"), str(tmp / "t.post")
    assert main(SYNTH + ["--num-bags", "5", "--seed", "9", "--out", test_ds]) == 0
    assert main(["fit", "--data", ds, "--model-out", model, "--beta", "1", "--rho", "0.1"]
                + HYPER) == 0
    assert main(["infer", "--data", test_ds, "--model", model, "--out", post,
                 "--train-data", ds]) == 0
    segs = tmp / "segs"
    assert main(["segment", "--posteriors", post, "--model", model,
                 "--out-dir", str(segs)]) == 0

    m, _ = load_model(model)
    train, test = load_dataset(ds).bags, load_dataset(test_ds).bags
    ones = WeakLabels(np.ones(m.config.k_max))
    result = fit(train + [dataclasses.replace(b, labels=ones) for b in test], m.config,
                 vocab=m.vocab)
    want = tmp / "want"
    write_segmentation(str(want), [(b.id, tasks.segment(p, m.config)) for b, p in
                                   zip(test, result.posteriors[len(train):])], m.vocab)
    assert os.listdir(segs) == ["segmentation.csv"]
    assert (segs / "segmentation.csv").read_bytes() == (want / "segmentation.csv").read_bytes()


def test_usage_error_exit_1(capsys):
    assert main(["fit"]) == 1  # missing required flags
    assert main(["--no-such-flag"]) == 1
    assert main(["segment", "--model", "x", "--out-dir", "y"]) in (1, 2)


def test_data_error_exit_2(tmp_path):
    missing = str(tmp_path / "nope")
    assert main(["fit", "--data", missing, "--model-out",
                 str(tmp_path / "m.model")]) == 2


def test_version_1_dataset_directory_exit_2(tmp_path, capsys):
    # a version-1 dataset was a directory of manifest.txt and one file per bag
    (tmp_path / "manifest.txt").write_text("format: wsibp-dataset\nversion: 1\n")
    assert main(["fit", "--data", str(tmp_path), "--model-out",
                 str(tmp_path / "m.model")]) == 2
    assert capsys.readouterr().err == (f"error: {tmp_path}: a version-1 dataset directory; "
                                       "re-run synth to write a file\n")


def test_beta_rho_zero_ignores_the_grid(tmp_path):
    # the features do not depend on the grid, so at beta = rho = 0 (the
    # MRF-free model) a fit must not either
    files = []
    for grid in ([], ["--no-grid"]):
        ds, model, post = (str(tmp_path / f"{name}{len(grid)}")
                           for name in ("ds", "m.model", "t.post"))
        assert main(SYNTH + ["--out", ds] + grid) == 0
        assert main(["fit", "--data", ds, "--model-out", model, "--posteriors-out", post,
                     "--beta", "0", "--rho", "0"] + HYPER) == 0
        files.append((open(model, "rb").read(), open(post, "rb").read()))
    assert files[0] == files[1]
    assert main(["fit", "--data", ds, "--model-out", model, "--no-mrf"]) == 1


def test_fit_nan_hyperparameter_exit_2(workspace, capsys):
    tmp, ds = workspace
    model = tmp / "m.model"
    assert main(["fit", "--data", ds, "--model-out", str(model), "--sigma", "nan"]
                + HYPER[2:]) == 2
    err = capsys.readouterr().err
    assert "finite" in err and "Traceback" not in err
    assert not model.exists()


@pytest.mark.parametrize("flag, value", [("--sigma", "1e-300"), ("--sigma", "1e200"),
                                         ("--sigma-a", "1e-300"), ("--sigma-a", "1e200"),
                                         ("--alpha", "1e-320")])
def test_fit_scale_out_of_range_exit_2(workspace, capsys, flag, value):
    # fit would overflow on their squares or reciprocals (for alpha, in digamma)
    tmp, ds = workspace
    model = tmp / "m.model"
    assert main(["fit", "--data", ds, "--model-out", str(model), flag, value] + HYPER[2:]) == 2
    assert capsys.readouterr().err == ("error: alpha, sigma_a and sigma must be in "
                                       "[1e-150, 1e150]\n")
    assert not model.exists()


@pytest.mark.parametrize("flag", ["--beta", "--rho"])
def test_fit_weight_past_its_cap_exit_2(workspace, capsys, flag):
    # 1e308 overflowed in the sweep, and fit wrote posteriors that annotate rejects
    tmp, ds = workspace
    model = tmp / "m.model"
    assert main(["fit", "--data", ds, "--model-out", str(model), flag, "1e308"] + HYPER) == 2
    assert capsys.readouterr().err == "error: beta and rho must be in [0, 1e150]\n"
    assert not model.exists()


def tiny_synth(tmp_path, capsys):
    ds = str(tmp_path / "ds")
    assert main(["synth", "--out", ds, "--num-bags", "6", "--instances", "9",
                 "--feature-dim", "4", "--seed", "1"]) == 0
    capsys.readouterr()
    return ds


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("sigma", ["1e-20", "1e-50", "1e-100", "1e-150"])
def test_fit_tiny_sigma_fits_cleanly(tmp_path, capsys, sigma):
    # inside [1e-150, 1e150]: sigma^2 / mass is far below VAR_FLOOR, and the appearance
    # mean takes the unfloored variance, so fit neither overflows nor warns
    ds, model = tiny_synth(tmp_path, capsys), tmp_path / "m.model"
    assert main(["fit", "--data", ds, "--model-out", str(model), "--sigma", sigma]) == 0
    loaded, _ = load_model(str(model))
    assert np.isfinite(loaded.means).all() and np.abs(loaded.means).max() < 10


def test_fit_sigma_that_overflows_the_model_exit_2(tmp_path, capsys):
    # features scaled by 1e10 at sigma 1e-150: the appearance update overflows within
    # a few iterations; fit stops there, before digamma sees a NaN stick
    ds, model = tiny_synth(tmp_path, capsys), tmp_path / "m.model"
    data = load_dataset(ds)
    bags = [dataclasses.replace(b, features=b.features * np.float32(1e10)) for b in data.bags]
    save_dataset(ds, bags, data.vocab, data.k_objects, data.k_attributes, data.k_extra)
    assert main(["fit", "--data", ds, "--model-out", str(model), "--sigma", "1e-150"]) == 2
    assert capsys.readouterr().err == ("error: sigma 1e-150: "
                                       "fit's appearance model overflowed\n")
    assert not model.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_infer_bag_whose_projection_overflows_exit_2(tmp_path, capsys):
    # sigma 1e-150 fits the bags as they are; the same bags with features scaled by 1e10
    # project past float64, and infer names the first such bag and writes nothing
    ds, model, out = tiny_synth(tmp_path, capsys), tmp_path / "m.model", tmp_path / "t.post"
    assert main(["fit", "--data", ds, "--model-out", str(model), "--sigma", "1e-150"]) == 0
    data = load_dataset(ds)
    bags = [dataclasses.replace(b, features=b.features * np.float32(1e10)) for b in data.bags]
    big = str(tmp_path / "big")
    save_dataset(big, bags, data.vocab, data.k_objects, data.k_attributes, data.k_extra)
    capsys.readouterr()
    assert main(["infer", "--data", big, "--model", str(model), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: bag 'bag0000': sigma 1e-150: "
                                       "the projection of its features overflows\n")
    assert not out.exists()


def test_synth_takes_no_fit_flags(tmp_path):
    assert main(SYNTH + ["--out", str(tmp_path / "ds"), "--beta", "1"]) == 1


@pytest.mark.parametrize("corrupt", ["edge", "nan"])
def test_infer_invalid_bag_exit_2(workspace, capsys, corrupt):
    # save_dataset refuses such a bag, so the fault goes into a valid file's block
    tmp, ds = workspace
    model = str(tmp / "m.model")
    assert main(["fit", "--data", ds, "--model-out", model] + HYPER) == 0
    bag = load_dataset(ds).bags[0]  # its arrays start their blocks
    assert len(bag.edges)
    if corrupt == "edge":
        _set_cells(ds, "edges", bag.edges.shape, {(0, 1): bag.n_instances}, "<i8")
        why = "bag 'bag0000' has an edge endpoint outside [0, 12)"
    else:
        _set_cells(ds, "features", bag.features.shape, {(0, 0): np.nan}, "<f4")
        why = "bag 'bag0000' has non-finite feature values"
    out = tmp / "t.post"
    capsys.readouterr()
    assert main(["infer", "--data", ds, "--model", model, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {why}\n"
    assert not out.exists()


@pytest.mark.parametrize("where, text, why", [
    ("edges", b"0,x", "edges: invalid literal for int() with base 10: 'x'"),
    ("edges", b"0,1.5", "edges: invalid literal for int() with base 10: '1.5'"),
    ("edges", b"0,1,2", "edges: expected 2 comma-separated values, got 3"),
    ("edges", b"0,99999999999999999999", "edges: 99999999999999999999 does not fit int64"),
    ("edges", b"0,\xc3\xa9", "non-ascii line"),
    ("manifest", None, "feature_dim: invalid literal for int() with base 10: 'four'")])
def test_parse_error_names_file_and_line(tmp_path, capsys, where, text, why):
    # a value that does not parse exits 2 with <path>:<line>: <what>: <why>; the
    # manifest is the header, before the blocks
    ds = str(tmp_path / "ds")
    assert main(SYNTH + ["--out", ds, "--text"]) == 0
    data = open(ds, "rb").read()
    if where == "edges":  # the third row of the text edges block
        start = data.index(b"\n", data.index(b"\nedges: text\n") + 1) + 1
        start = data.index(b"\n", data.index(b"\n", start) + 1) + 1
        data = data[:start] + text + data[data.index(b"\n", start):]
    else:
        start = data.index(b"feature_dim: ")
        data = data.replace(b"feature_dim: 6\n", b"feature_dim: four\n")
    open(ds, "wb").write(data)
    assert main(["fit", "--data", ds, "--model-out", str(tmp_path / "m.model")]) == 2
    line = data.count(b"\n", 0, start) + 1
    assert capsys.readouterr().err == f"error: {ds}:{line}: {why}\n"


def test_annotation_counts_checked(workspace, capsys):
    tmp, ds = workspace
    model, post = str(tmp / "m.model"), str(tmp / "train.post")
    assert main(["fit", "--data", ds, "--model-out", model,
                 "--posteriors-out", post] + HYPER) == 0
    assert main(["annotate", "--posteriors", post, "--model", model,
                 "--out", str(tmp / "ann.json"), "--top-attrs", "-1"]) == 2
    assert "top_attributes -1" in capsys.readouterr().err
    pred, truth = tmp / "p.json", tmp / "t.json"
    pred.write_text(json.dumps({"bags": [{"bag": "b0", "annotations": []}]}))
    truth.write_text(json.dumps({"bags": {"b0": {"object": 0, "attributes": [2]}}}))
    assert main(["eval", "--task", "annotation", "--pred", str(pred),
                 "--truth", str(truth)]) == 2
    assert "no annotations" in capsys.readouterr().err


def test_infer_takes_no_hyper_flags(workspace):
    tmp, ds = workspace
    assert main(["infer", "--data", ds, "--model", str(tmp / "m.model"),
                 "--out", str(tmp / "t.post"), "--max-iters", "1"]) == 1


def test_fit_k_extra_mismatch_exit_2(workspace, capsys):
    tmp, ds = workspace  # the dataset has k_extra = 0
    assert main(["fit", "--data", ds, "--model-out", str(tmp / "m.model"),
                 "--k-extra", "20"]) == 2
    err = capsys.readouterr().err
    assert "--k-extra 20" in err and "k_extra 0" in err


@pytest.mark.parametrize("argv", [["annotate", "--out"],
                                  ["query", "--object", "obj0", "--out"],
                                  ["segment", "--out-dir"]])
def test_posteriors_must_match_model(workspace, capsys, argv):
    tmp, ds = workspace
    model = str(tmp / "m.model")
    assert main(["fit", "--data", ds, "--model-out", model] + HYPER) == 0
    wide = BagPosterior(tau=np.ones((8, 2)), nu=np.full((12, 8), 0.5),
                        logits=np.zeros((12, 8)))
    post = str(tmp / "wide.post")
    save_posteriors(post, [("b0", wide)], 8)
    capsys.readouterr()
    assert main(argv + [str(tmp / "out"), "--posteriors", post,
                        "--model", model]) == 2
    assert capsys.readouterr().err == (f"error: {post}:3: k_max: the file has 8 factors, "
                                       "the model has 4\n")


def test_out_of_range_posteriors_exit_2(workspace, capsys):
    tmp, ds = workspace
    model, post = str(tmp / "m.model"), str(tmp / "train.post")
    assert main(["fit", "--data", ds, "--model-out", model, "--posteriors-out", post,
                 "--sigma", "0.1", "--k-extra", "0", "--max-iters", "2"]) == 0
    pairs = load_posteriors(post)
    for bag_id, value in ((pairs[0][0], np.nan), (pairs[1][0], 7.0)):
        posts = [(i, BagPosterior(p.tau, p.nu.copy(), p.logits)) for i, p in pairs]
        dict(posts)[bag_id].nu[0, 0] = value
        bad = str(tmp / "bad.post")
        save_posteriors(bad, posts, posts[0][1].nu.shape[1])
        for argv in (["annotate", "--out", str(tmp / "ann.json")],
                     ["segment", "--out-dir", str(tmp / "segs")]):
            assert main(argv + ["--posteriors", bad, "--model", model]) == 2
            assert f"bag {bag_id!r} needs nu in [0, 1]" in capsys.readouterr().err


def test_transductive_infer_honours_the_models_max_iters(workspace):
    # the refit takes the model's config, so models fit with other caps refit differently
    tmp, ds = workspace
    outputs = []
    for iters in ("1", "60"):
        model, post = str(tmp / f"m{iters}.model"), tmp / f"t{iters}.post"
        assert main(["fit", "--data", ds, "--model-out", model, "--sigma", "0.1",
                     "--k-extra", "0", "--tol", "0", "--max-iters", iters]) == 0
        assert main(["infer", "--data", ds, "--model", model, "--out", str(post),
                     "--train-data", ds]) == 0
        outputs.append(post.read_bytes())
    assert outputs[0] != outputs[1]


def test_transductive_infer_needs_the_models_vocab(workspace, capsys):
    # a label bit stands for the factor at its position: another vocab exits 2
    tmp, ds = workspace
    other, model = str(tmp / "other"), str(tmp / "m.model")
    assert main(SYNTH + ["--k-objects", "3", "--k-attributes", "1", "--out", other]) == 0
    assert main(["fit", "--data", ds, "--model-out", model] + HYPER) == 0
    capsys.readouterr()
    assert main(["infer", "--data", ds, "--model", model, "--out", str(tmp / "t.post"),
                 "--train-data", other]) == 2
    assert capsys.readouterr().err == (f"error: {other}: the dataset's vocab and factor "
                                       "counts are not the model's\n")
    assert not (tmp / "t.post").exists()


@pytest.mark.parametrize("flags", [["--transductive"], ["--sigma", "0.3"]])
def test_segment_takes_no_refit_flags(capsys, flags):
    # the transductive refit is infer --train-data; segment only reads posteriors
    assert main(["segment", "--posteriors", "p", "--model", "m", "--out-dir", "s",
                 *flags]) == 1
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err


def test_segment_bag_id_cannot_leave_the_out_dir(workspace, capsys):
    tmp, ds = workspace
    model, post = str(tmp / "m.model"), str(tmp / "t.post")
    assert main(["fit", "--data", ds, "--model-out", model] + HYPER) == 0
    p = BagPosterior(tau=np.ones((4, 2)), nu=np.full((12, 4), 0.5), logits=np.zeros((12, 4)))
    save_posteriors(post, [("b", p)], 4)  # which rejects the id, so it is put in after
    with open(post, "r+b") as fh:
        data = fh.read().replace(b"bag: b,12\n", b"bag: ../escaped,12\n")
        fh.seek(0)
        fh.write(data)
    capsys.readouterr()
    assert main(["segment", "--posteriors", post, "--model", model,
                 "--out-dir", str(tmp / "out" / "segs")]) == 2
    assert capsys.readouterr().err == (f"error: {post}:5: bag: '../escaped' is not a plain "
                                       "file name\n")
    assert not (tmp / "out").exists()


def test_segment_has_no_k_extra_flag(capsys):
    # the model fixes k_extra, so segment has no flag for it
    assert main(["segment", "--posteriors", "p", "--model", "m", "--out-dir", "s",
                 "--k-extra", "0"]) == 1
    assert "unrecognized arguments: --k-extra 0" in capsys.readouterr().err


@pytest.fixture
def raster_run(workspace, capsys):
    """A fitted model, its training posteriors and a segment command taking a raster
    file written from the given text; the command returns its exit code and stderr."""
    tmp, ds = workspace
    model, post = str(tmp / "m.model"), str(tmp / "train.post")
    assert main(["fit", "--data", ds, "--model-out", model,
                 "--posteriors-out", post] + HYPER) == 0
    segs, raster = tmp / "segs", tmp / "raster.csv"

    def run(text, *flags):
        raster.write_text(text)
        capsys.readouterr()
        code = main(["segment", "--posteriors", post, "--model", model,
                     "--out-dir", str(segs), *flags])
        return code, capsys.readouterr().err
    return run, str(raster), segs


def test_segment_raster_writes_the_bag_image(raster_run):
    run, raster, segs = raster_run
    assert run("0,1\n\n2,11\n", "--raster", raster, "--raster-bag", "bag0002")[0] == 0
    assert sorted(p.name for p in segs.iterdir()) == ["bag0002.ppm", "segmentation.csv"]
    assert (segs / "bag0002.ppm").read_text().startswith("P3\n2 2\n255\n")


@pytest.mark.parametrize("flag", ["--raster", "--raster-bag"])
def test_segment_raster_flags_go_together(raster_run, flag):
    # a usage error, found before any file is read: the raster file does not exist
    run, raster, segs = raster_run
    code, err = run("0\n", flag, raster + ".missing")
    assert code == 1 and "--raster and --raster-bag must be given together" in err
    assert not segs.exists()


def test_segment_unknown_raster_bag_exit_2(raster_run):
    run, raster, segs = raster_run
    code, err = run("0,1\n", "--raster", raster, "--raster-bag", "nosuchbag")
    assert code == 2 and "--raster-bag 'nosuchbag': no such bag" in err
    assert not segs.exists()


def test_segment_raster_id_out_of_range_writes_nothing(raster_run):
    run, raster, segs = raster_run  # each bag has 12 instances
    code, err = run("0,1\n12,3\n", "--raster", raster, "--raster-bag", "bag0002")
    assert code == 2 and "unknown instance id: the bag has 12 instances" in err
    assert not segs.exists()


@pytest.mark.parametrize("text, line, why", [
    ("", 1, "a raster needs at least one row"),
    ("\n \n", 1, "a raster needs at least one row"),
    ("0,1\n2\n", 2, "1 cells, the first row has 2"),
    ("0,1\n\n2,x\n", 3, "expected a non-negative integer instance id, got 'x'"),
    ("0,-1\n", 1, "expected a non-negative integer instance id, got '-1'"),
    ("0,1.0\n", 1, "expected a non-negative integer instance id, got '1.0'"),
    ("0,99999999999999999999\n", 1, "expected a non-negative integer instance id, "
                                     "got '99999999999999999999'"),
])
def test_segment_malformed_raster_names_its_line(raster_run, text, line, why):
    run, raster, segs = raster_run
    code, err = run(text, "--raster", raster, "--raster-bag", "bag0002")
    assert code == 2 and f"error: {raster}:{line}: {why}" in err
    assert not segs.exists()


@pytest.mark.parametrize("kind", ["manifest", "posteriors"])
def test_duplicate_bag_id_exit_2(workspace, capsys, kind):
    # a second bag of the same id would merge with the first in segment's one CSV
    tmp, ds = workspace
    model, post = str(tmp / "m.model"), str(tmp / "train.post")
    assert main(["fit", "--data", ds, "--model-out", model,
                 "--posteriors-out", post] + HYPER) == 0
    if kind == "manifest":  # the dataset's header, with its bag lines
        path, row = ds, b"bag: bag0001,12,"
        argv = ["fit", "--data", ds, "--model-out", str(tmp / "again.model")]
    else:  # save_posteriors rejects a repeated id, so the file is edited after
        path, row = post, b"bag: bag0001,12\n"
        argv = ["segment", "--posteriors", post, "--model", model,
                "--out-dir", str(tmp / "segs")]
    data = open(path, "rb").read()
    assert data.count(row) == 1
    open(path, "wb").write(data.replace(row, row.replace(b"bag0001", b"bag0000")))
    line = data.count(b"\n", 0, data.index(row)) + 1
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {path}:{line}: bag: duplicate id 'bag0000'\n"


def test_version_1_posteriors_exit_2(workspace, capsys):
    tmp, ds = workspace
    model, post = str(tmp / "m.model"), str(tmp / "old.post")
    assert main(["fit", "--data", ds, "--model-out", model] + HYPER) == 0
    with open(post, "wb") as fh:
        fh.write(b"format: wsibp-posteriors\nversion: 1\nk_max: 4\nnum_bags: 1\nbag: b0,1\n")
    assert main(["annotate", "--posteriors", post, "--model", model,
                 "--out", str(tmp / "ann.json")]) == 2
    err = capsys.readouterr().err
    assert "unknown version 1" in err and "re-run infer or fit --posteriors-out" in err


@pytest.fixture
def inferred(workspace):
    """A fitted model and the test posteriors of the workspace dataset."""
    tmp, ds = workspace
    model, post = str(tmp / "m.model"), str(tmp / "t.post")
    assert main(["fit", "--data", ds, "--model-out", model] + HYPER) == 0
    assert main(["infer", "--data", ds, "--model", model, "--out", post]) == 0
    return tmp, model, post


def _entries(path, key):
    """The entries of an annotate or query file, checked to be one per line."""
    lines = open(path, encoding="ascii").read().splitlines()
    assert lines[0] == f'{{"{key}": [' and lines[-1] == "]}"
    entries = [json.loads(line.removesuffix(",")) for line in lines[1:-1]]
    assert json.load(open(path, encoding="ascii")) == {key: entries}
    return entries


def test_annotate_and_query_files_hold_the_task_results(inferred, capsys):
    tmp, model_path, post = inferred
    model, _ = load_model(model_path)
    config, posts = model.config, load_posteriors(post)
    ann, q = str(tmp / "ann.json"), str(tmp / "q.json")
    assert main(["annotate", "--posteriors", post, "--model", model_path, "--out", ann,
                 "--top-objects", "2", "--top-attrs", "2"]) == 0
    entries = _entries(ann, "bags")
    assert [e["bag"] for e in entries] == [bag_id for bag_id, _ in posts]
    for entry, (_, p) in zip(entries, posts):
        want = tasks.free_annotation(p, config, 2, 2)
        assert entry["annotations"] == [{
            "object": a.object, "object_name": model.vocab[a.object],
            "object_score": a.object_score, "instance": a.object_instance,
            "attributes": [[k, s] for k, s in a.attributes],
            "attribute_scores": p.nu[a.object_instance, 2:4].tolist()} for a in want]
    assert main(["query", "--posteriors", post, "--model", model_path,
                 "--object", "obj1", "--attrs", "att0,3", "--out", q]) == 0
    [entry] = _entries(q, "queries")
    assert entry == {"object": 1, "attributes": [2, 3], "ranking": [
        list(row) for row in tasks.rank_query(posts, config, 1, [2, 3])]}

    # eval reads both: truth taken from the predictions scores 1
    top = {e["bag"]: e["annotations"][0] for e in entries}
    truth = tmp / "truth.json"
    truth.write_text(json.dumps({"k_objects": 2, "bags": {
        b: {"object": a["object"], "attributes": [a["attributes"][0][0]]}
        for b, a in top.items()}}))
    capsys.readouterr()
    assert main(["eval", "--task", "annotation", "--pred", ann, "--truth", str(truth),
                 "--t", "1"]) == 0
    assert "AP@1: 1.0000" in capsys.readouterr().out
    truth.write_text(json.dumps({"queries": [{"object": 1, "attributes": [2, 3],
                                              "relevant": [entry["ranking"][0][0]]}]}))
    assert main(["eval", "--task", "query", "--pred", q, "--truth", str(truth)]) == 0
    assert "MAR: 1.0000" in capsys.readouterr().out


@pytest.mark.parametrize("where, value, why", [
    ("pred", "-1", "label_index: expected a non-negative integer, got '-1'"),
    ("pred", "1.5", "label_index: expected a non-negative integer, got '1.5'"),
    ("pred", "", "label_index: expected a non-negative integer, got ''"),
    ("pred", None, "no label_index column"),
    ("truth", -1, "bag 'bag0003': labels must be a list of non-negative integers"),
    ("truth", 1.5, "bag 'bag0003': labels must be a list of non-negative integers"),
    ("truth", "1", "bag 'bag0003': labels must be a list of non-negative integers"),
    ("truth", None, "bag 'bag0003': labels must be a list of non-negative integers")])
def test_eval_segmentation_rejects_bad_labels(inferred, capsys, where, value, why):
    tmp, model, post = inferred
    segs = tmp / "segs"
    assert main(["segment", "--posteriors", post, "--model", model,
                 "--out-dir", str(segs)]) == 0
    bags = {b: {"labels": v} for b, v in _seg_labels(segs).items()}
    if where == "truth":
        if value is None:
            del bags["bag0003"]["labels"]
        else:
            bags["bag0003"]["labels"][4] = value
    truth, text = tmp / "truth.json", json.dumps({"bags": bags}, indent=1)
    truth.write_text(text)
    path, line = truth, next(i for i, row in enumerate(text.splitlines(), 1)
                             if row.lstrip().startswith('"bag0003": '))
    if where == "pred":
        path = segs / "segmentation.csv"
        rows = [r.split(",") for r in path.read_text().splitlines()]
        line = next(i for i, r in enumerate(rows, 1) if r[:2] == ["bag0003", "4"])
        if value is None:
            rows[0][2] = "label"
        else:
            rows[line - 1][2] = value
        path.write_text("".join(",".join(r) + "\n" for r in rows))
        line = 1 if value is None else line
    capsys.readouterr()
    assert main(["eval", "--task", "segmentation", "--pred", str(segs),
                 "--truth", str(truth)]) == 2
    assert capsys.readouterr().err == f"error: {path}:{line}: {why}\n"


def _segment_truth(tmp, model, post):
    """``segment``'s output directory and a truth dict that repeats its labels."""
    segs = tmp / "segs"
    assert main(["segment", "--posteriors", post, "--model", model,
                 "--out-dir", str(segs)]) == 0
    return segs, {b: {"labels": v} for b, v in _seg_labels(segs).items()}


def test_eval_segmentation_reads_blank_lines_and_padded_cells(inferred, capsys):
    # as csv.DictReader did: blank lines are skipped and cells may be padded
    tmp, model, post = inferred
    segs, bags = _segment_truth(tmp, model, post)
    truth = tmp / "truth.json"
    truth.write_text(json.dumps({"bags": bags}))
    args = ["eval", "--task", "segmentation", "--pred", str(segs), "--truth", str(truth)]
    capsys.readouterr()
    assert main(args) == 0
    want = capsys.readouterr().out
    path = segs / "segmentation.csv"
    rows = [r.split(",") for r in path.read_text().splitlines()]
    path.write_text("\n\n".join(",".join([f" {r[0]}", r[1], f" {r[2]} "] + r[3:])
                                for r in rows) + "\n\n")
    assert main(args) == 0
    assert capsys.readouterr().out == want


def test_eval_segmentation_needs_rows_for_every_truth_bag(inferred, capsys):
    # one file holds every bag, so a truth id names no path: '../ds' is a bag without rows
    tmp, model, post = inferred
    segs, bags = _segment_truth(tmp, model, post)
    truth = tmp / "truth.json"
    truth.write_text(json.dumps({"bags": {**bags, "../ds": {"labels": [0]}}}))
    (tmp / "ds.csv").write_text("bag,instance,label_index\n../ds,0,0\n")
    args = ["eval", "--task", "segmentation", "--pred", str(segs), "--truth", str(truth)]
    capsys.readouterr()
    assert main(args) == 2
    csv = segs / "segmentation.csv"
    assert capsys.readouterr().err == f"error: {csv}: no rows for bag '../ds'\n"
    csv.write_text(csv.read_text().replace("bag,", "bags,", 1))
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {csv}:1: no bag column\n"


@pytest.mark.parametrize("pixels, why", [
    ({"a": 1}, "pixels must be a list of numbers in (0, 1e150]"),
    (["a"] * 12, "pixels must be a list of numbers in (0, 1e150]"),
    ([float("nan")] * 12, "pixels must be a list of numbers in (0, 1e150]"),
    ([True] * 12, "pixels must be a list of numbers in (0, 1e150]"),
    ([1e308] * 12, "pixels must be a list of numbers in (0, 1e150]"),
    (None, "pixels must be given for all bags or none")])
def test_eval_segmentation_rejects_bad_pixels(inferred, capsys, pixels, why):
    tmp, model, post = inferred
    segs, bags = _segment_truth(tmp, model, post)
    for entry in bags.values():
        entry["pixels"] = [2] * 12
    if pixels is None:
        del bags["bag0003"]["pixels"]
    else:
        bags["bag0003"]["pixels"] = pixels
    truth, text = tmp / "truth.json", json.dumps({"bags": bags}, indent=1)
    truth.write_text(text)
    line = next(i for i, row in enumerate(text.splitlines(), 1)
                if row.lstrip().startswith('"bag0003": '))
    capsys.readouterr()
    assert main(["eval", "--task", "segmentation", "--pred", str(segs),
                 "--truth", str(truth)]) == 2
    assert capsys.readouterr() == ("", f"error: {truth}:{line}: bag 'bag0003': {why}\n")


def test_eval_segmentation_names_the_line_of_the_bag_key(inferred, capsys):
    # the id also appears earlier as a value; the error names the line of its key
    tmp, model, post = inferred
    segs, bags = _segment_truth(tmp, model, post)
    bags["bag0000"]["note"] = "bag0003"
    bags["bag0003"]["labels"][0] = -1
    truth, text = tmp / "truth.json", json.dumps({"bags": bags}, indent=1)
    truth.write_text(text)
    line = next(i for i, row in enumerate(text.splitlines(), 1)
                if row.lstrip().startswith('"bag0003": '))
    capsys.readouterr()
    assert main(["eval", "--task", "segmentation", "--pred", str(segs),
                 "--truth", str(truth)]) == 2
    assert capsys.readouterr().err == (f"error: {truth}:{line}: bag 'bag0003': labels "
                                       "must be a list of non-negative integers\n")


@pytest.mark.parametrize("command", ["annotate", "query", "fit"])
def test_outputs_can_be_written_to_a_pipe(inferred, workspace, command):
    # a pipe cannot seek, so a writer must not seek or truncate (``--out /dev/stdout``)
    tmp, model, post = inferred
    fifo = tmp / "fifo"
    os.mkfifo(fifo)
    data = []
    reader = threading.Thread(target=lambda: data.append(fifo.read_bytes()))
    reader.start()
    args = {"annotate": ["annotate", "--posteriors", post, "--model", model, "--out"],
            "query": ["query", "--posteriors", post, "--model", model,
                      "--object", "obj1", "--attrs", "att0", "--out"],
            "fit": ["fit", "--data", workspace[1], "--model-out", str(tmp / "m2.model")]
            + HYPER + ["--trace-out"]}[command]
    try:
        assert main(args + [str(fifo)]) == 0
    finally:
        with contextlib.suppress(OSError):  # let the reader go if nothing opened the pipe
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        reader.join()
    text = data[0].decode("ascii")
    if command == "fit":
        assert text.startswith("iteration,mean_abs_delta_nu,seconds\n")
    else:
        assert json.loads(text)


@pytest.mark.parametrize("argv", [
    ["synth", "--out", "d", "--num-bags", "3", "--seed", "4"],
    ["fit", "--data", "d", "--model-out", "m", "--beta", "0.5"],
    ["infer", "--data", "d", "--model", "m", "--out", "p"],
    ["annotate", "--posteriors", "p", "--model", "m", "--out", "a", "--top-attrs", "3"],
    ["query", "--posteriors", "p", "--model", "m", "--object", "obj0", "--out", "q"],
    ["infer", "--data", "d", "--model", "m", "--out", "p", "--train-data", "t"],
    ["eval", "--task", "query", "--pred", "q", "--truth", "t"],
    ["segment", "--posteriors", "p", "--model", "m", "--out-dir", "s",
     "--raster", "r", "--raster-bag", "b"]])
def test_one_command_parser_parses_as_the_whole_parser(argv):
    assert build_parser(argv[0]).parse_args(argv) == build_parser().parse_args(argv)


def _set_cells(path, key, shape, cells, dtype="<f8"):
    """Set ``cells`` ({index: value}) of a file's binary block ``key``, of ``shape`` and
    ``dtype`` (or the first rows of a larger block), in the file's bytes, past what the
    writer checks."""
    data = bytearray(open(path, "rb").read())
    start = data.index(b"\n", data.index(f"\n{key}: binary ".encode("ascii")) + 1) + 1
    block = np.ndarray(shape, dtype, buffer=data, offset=start)
    for index, value in cells.items():
        block[index] = value
    open(path, "wb").write(data)


def test_bad_model_values_exit_2_before_any_output(inferred, workspace, capsys, model_fault):
    tmp, model, post = inferred
    block, cells, why = model_fault
    appearance, corr = load_model(model)
    shape = {"means": appearance.means.shape, "variances": appearance.variances.shape,
             "correlation": corr.m.shape}[block]
    _set_cells(model, block, shape, cells)
    out = tmp / "out"
    capsys.readouterr()
    for argv in (["infer", "--data", workspace[1], "--out", str(out)],
                 ["annotate", "--posteriors", post, "--out", str(out)],
                 ["query", "--posteriors", post, "--object", "obj0", "--out", str(out)],
                 ["segment", "--posteriors", post, "--out-dir", str(out)]):
        assert main(argv + ["--model", model]) == 2
        assert capsys.readouterr().err == f"error: {model}: the model needs {why}\n"
        assert not out.exists()


@pytest.mark.parametrize("line, bad, why", [
    (b"k_objects: 2\n", b"k_objects: -1\n", "factor counts must be >= 0"),
    (b"sigma: 0.1\n", b"sigma: nan\n",
     "alpha, sigma_a, sigma, beta and rho must be finite, and tol a number"),
    (b"sigma: 0.1\n", b"sigma: 1e-300\n", "alpha, sigma_a and sigma must be in [1e-150, 1e150]"),
    (b"vocab: obj0,obj1,att0,att1\n", b"vocab: obj0,obj1,att0\n", "vocab length 3 != k_max 4")])
def test_bad_model_header_exit_2_naming_the_file(inferred, workspace, capsys, line, bad, why):
    tmp, model, _ = inferred
    data = open(model, "rb").read()
    assert line in data
    open(model, "wb").write(data.replace(line, bad, 1))
    out = tmp / "out.post"
    capsys.readouterr()
    assert main(["infer", "--data", workspace[1], "--model", model, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {model}: {why}\n"
    assert not out.exists()


def test_query_unknown_object_exit_2(inferred, capsys):
    tmp, model, post = inferred
    out = tmp / "q.json"
    assert main(["query", "--posteriors", post, "--model", model, "--object", "nosuch",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: unknown factor 'nosuch'\n"
    assert not out.exists()


def test_eval_segmentation_weights_instances_by_pixels(inferred, capsys):
    # a truth bag's "pixels" list counts each instance's pixels: one wrong instance
    # of 1 pixel among instances of 3 pixels each
    tmp, model, post = inferred
    segs, bags = _segment_truth(tmp, model, post)
    bags["bag0000"]["labels"][0] = 1 - bags["bag0000"]["labels"][0]
    for entry in bags.values():
        entry["pixels"] = [3] * len(entry["labels"])
    bags["bag0000"]["pixels"][0] = 1
    pixels = sum(map(sum, (entry["pixels"] for entry in bags.values())))
    truth = tmp / "truth.json"
    truth.write_text(json.dumps({"bags": bags}))
    args = ["eval", "--task", "segmentation", "--pred", str(segs), "--truth", str(truth)]
    capsys.readouterr()
    assert main(args) == 0
    assert f"per-pixel accuracy: {(pixels - 1) / pixels:.4f}\n" in capsys.readouterr().out
    bags["bag0000"]["pixels"][0] = 0  # checked as the truth is read, at the bag's line
    truth.write_text(json.dumps({"bags": bags}))
    assert main(args) == 2
    assert capsys.readouterr().err == (f"error: {truth}:1: bag 'bag0000': pixels must be a "
                                       "list of numbers in (0, 1e150]\n")
    bags["bag0000"]["pixels"] = [3]  # one count for 12 instances
    truth.write_text(json.dumps({"bags": bags}))
    assert main(args) == 2
    assert capsys.readouterr().err == (f"error: {truth}:1: bag 'bag0000': 1 pixel, "
                                       f"{segs / 'segmentation.csv'} has 12 rows\n")


@pytest.mark.parametrize("field, count, why", [
    ("labels", 2, "2 labels, {csv} has 1 row"), ("labels", 0, "0 labels, {csv} has 1 row"),
    ("pixels", 3, "3 pixels, {csv} has 1 row")])
def test_eval_segmentation_names_both_files_when_counts_differ(tmp_path, capsys, field, count,
                                                               why):
    # a truth bag whose label or pixel count is not its CSV row count: the truth's line
    # of the bag and the CSV are named, as neither file alone is at fault
    segs = tmp_path / "segs"
    write_segmentation(str(segs), [("b0", tasks.SegmentationMap(
        labels=np.array([0]), scores=np.array([1.0])))], ["a"])
    entry = {"labels": [0], "pixels": [1.0], field: [1] * count}
    truth, text = tmp_path / "truth.json", json.dumps({"bags": {"b0": entry}}, indent=1)
    truth.write_text(text)
    capsys.readouterr()
    assert main(["eval", "--task", "segmentation", "--pred", str(segs),
                 "--truth", str(truth)]) == 2
    line = next(i for i, row in enumerate(text.splitlines(), 1) if '"b0"' in row)
    why = why.format(csv=segs / "segmentation.csv")
    assert capsys.readouterr() == ("", f"error: {truth}:{line}: bag 'b0': {why}\n")


def test_eval_segmentation_rejects_rows_of_a_bag_without_truth(tmp_path, capsys):
    # as annotation rejects a predicted bag that the truth does not name
    segs = tmp_path / "segs"
    seg = tasks.SegmentationMap(labels=np.array([0]), scores=np.array([1.0]))
    write_segmentation(str(segs), [("b0", seg), ("zz", seg), ("zy", seg)], ["a"])
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps({"bags": {"b0": {"labels": [0]}}}))
    args = ["eval", "--task", "segmentation", "--pred", str(segs), "--truth", str(truth)]
    capsys.readouterr()
    assert main(args) == 2
    assert capsys.readouterr() == ("", f"error: {truth}: no truth for bag 'zz' of "
                                   f"{segs / 'segmentation.csv'}\n")
    truth.write_text(json.dumps({"bags": {b: {"labels": [0]} for b in ("b0", "zz", "zy")}}))
    assert main(args) == 0
