import dataclasses
import json
import os

import numpy as np
import pytest

from wsibp import BagPosterior
from wsibp.cli import main
from wsibp.io import load_dataset, load_posteriors, save_dataset, save_posteriors


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
    with open(os.path.join(ds, "truth.json"), encoding="ascii") as fh:
        truth = json.load(fh)
    assert len(truth["true_z"]) == 8


def test_synth_deterministic_files(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(SYNTH + ["--out", a]) == 0
    assert main(SYNTH + ["--out", b]) == 0
    for name in sorted(os.listdir(a)):
        assert open(os.path.join(a, name), "rb").read() == \
            open(os.path.join(b, name), "rb").read()


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
    segs = str(tmp / "segs")
    assert main(["segment", "--posteriors", post, "--model", model,
                 "--out-dir", segs]) == 0
    assert len(os.listdir(segs)) == 8


def test_fit_threads_bit_identical(workspace, fit_files):
    # model and posterior files from separate processes, OpenBLAS on 1 and 2 threads
    _, ds = workspace
    flags = HYPER + ["--beta", "1.0", "--rho", "0.1"]
    assert fit_files(ds, flags, 1) == fit_files(ds, flags, 2)


def test_eval_segmentation_identity(workspace, capsys):
    tmp, ds = workspace
    model = str(tmp / "m.model")
    post = str(tmp / "t.post")
    segs = str(tmp / "segs")
    assert main(["fit", "--data", ds, "--model-out", model] + HYPER) == 0
    assert main(["infer", "--data", ds, "--model", model, "--out", post]) == 0
    assert main(["segment", "--posteriors", post, "--model", model,
                 "--out-dir", segs]) == 0
    # truth copied from the predictions themselves: all metrics must be 1
    truth = {"bags": {}}
    import csv as csv_mod
    for name in os.listdir(segs):
        bid = name[:-4]
        rows = list(csv_mod.DictReader(open(os.path.join(segs, name))))
        truth["bags"][bid] = {"labels": [int(r["label_index"]) for r in rows]}
    tpath = str(tmp / "truth.json")
    json.dump(truth, open(tpath, "w"))
    capsys.readouterr()
    assert main(["eval", "--task", "segmentation", "--pred", segs,
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


def test_eval_truth_without_task_key_exit_2(workspace, capsys):
    # synth's truth.json holds the generating assignments, not eval's layouts
    tmp, ds = workspace
    truth = os.path.join(ds, "truth.json")
    for task, key in (("segmentation", "bags"), ("annotation", "bags"), ("query", "queries")):
        pred = tmp / "p.json"
        pred.write_text(json.dumps({key: []}))
        assert main(["eval", "--task", task, "--pred", str(pred), "--truth", truth]) == 2
        assert f"{truth}: {task} truth needs a '{key}' key" in capsys.readouterr().err


def test_transductive_segment(workspace):
    tmp, ds = workspace
    model = str(tmp / "m.model")
    segs = str(tmp / "tsegs")
    assert main(["fit", "--data", ds, "--model-out", model] + HYPER) == 0
    assert main(["segment", "--transductive", "--train-data", ds,
                 "--data", ds, "--model", model, "--out-dir", segs]
                + HYPER) == 0
    assert len(os.listdir(segs)) == 8


def test_usage_error_exit_1(capsys):
    assert main(["fit"]) == 1  # missing required flags
    assert main(["--no-such-flag"]) == 1
    assert main(["segment", "--model", "x", "--out-dir", "y"]) in (1, 2)


def test_data_error_exit_2(tmp_path):
    missing = str(tmp_path / "nope")
    assert main(["fit", "--data", missing, "--model-out",
                 str(tmp_path / "m.model")]) == 2


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


def test_synth_takes_no_fit_flags(tmp_path):
    assert main(SYNTH + ["--out", str(tmp_path / "ds"), "--beta", "1"]) == 1


@pytest.mark.parametrize("corrupt", ["edge", "nan"])
def test_infer_invalid_bag_exit_2(workspace, corrupt):
    tmp, ds = workspace
    model = str(tmp / "m.model")
    assert main(["fit", "--data", ds, "--model-out", model] + HYPER) == 0
    loaded = load_dataset(ds)
    bag = loaded.bags[0]
    if corrupt == "edge":
        bag = dataclasses.replace(bag, edges=np.array([[0, bag.n_instances]]))
    else:
        bag.features[0, 0] = np.nan
    bad = str(tmp / "bad")
    save_dataset(bad, [bag], loaded.vocab, loaded.k_objects,
                 loaded.k_attributes, loaded.k_extra)
    assert main(["infer", "--data", bad, "--model", model,
                 "--out", str(tmp / "t.post")]) == 2


@pytest.mark.parametrize("where, text, why", [
    ("edge", b"0,x", "edge: invalid literal for int() with base 10: 'x'"),
    ("edge", b"0,1,2", "edge: expected 2 comma-separated values, got 3"),
    ("manifest", None, "feature_dim: invalid literal for int() with base 10: 'four'")])
def test_parse_error_names_file_and_line(workspace, capsys, where, text, why):
    # a value that does not parse exits 2 with <path>:<line>: <what>: <why>
    _, ds = workspace
    path = os.path.join(ds, "bag0000.bag" if where == "edge" else "manifest.txt")
    data = open(path, "rb").read()
    if where == "edge":  # the third edge line
        start = data.index(b"\n", data.index(b"\nedges: ") + 1) + 1
        start = data.index(b"\n", data.index(b"\n", start) + 1) + 1
        data = data[:start] + text + data[data.index(b"\n", start):]
    else:
        start = data.index(b"feature_dim: ")
        data = data.replace(b"feature_dim: 6\n", b"feature_dim: four\n")
    open(path, "wb").write(data)
    assert main(["fit", "--data", ds, "--model-out", os.path.join(ds, "m.model")]) == 2
    line = data.count(b"\n", 0, start) + 1
    assert capsys.readouterr().err == f"error: {path}:{line}: {why}\n"


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
def test_posteriors_must_match_model(workspace, argv):
    tmp, ds = workspace
    model = str(tmp / "m.model")
    assert main(["fit", "--data", ds, "--model-out", model] + HYPER) == 0
    wide = BagPosterior(tau=np.ones((8, 2)), nu=np.full((12, 8), 0.5),
                        logits=np.zeros((12, 8)))
    post = str(tmp / "wide.post")
    save_posteriors(post, [("b0", wide)], 8)
    assert main(argv + [str(tmp / "out"), "--posteriors", post,
                        "--model", model]) == 2


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


def test_transductive_segment_honours_max_iters(workspace):
    tmp, ds = workspace
    model = str(tmp / "m.model")
    assert main(["fit", "--data", ds, "--model-out", model] + HYPER) == 0
    outputs = []
    for iters in ("1", "60"):
        segs = tmp / f"segs{iters}"
        assert main(["segment", "--transductive", "--train-data", ds, "--data", ds,
                     "--model", model, "--out-dir", str(segs), "--tol", "0",
                     "--max-iters", iters]) == 0
        outputs.append([(segs / f).read_bytes() for f in sorted(os.listdir(segs))])
    assert outputs[0] != outputs[1]


def test_segment_hyper_flag_needs_transductive(workspace, capsys):
    tmp, ds = workspace
    model, post = str(tmp / "m.model"), str(tmp / "train.post")
    assert main(["fit", "--data", ds, "--model-out", model,
                 "--posteriors-out", post] + HYPER) == 0
    assert main(["segment", "--posteriors", post, "--model", model,
                 "--out-dir", str(tmp / "segs"), "--sigma", "0.3"]) == 2
    assert "--transductive" in capsys.readouterr().err


def test_segment_k_extra_mismatch_exit_2(workspace, capsys):
    tmp, ds = workspace  # the model has k_extra = 0
    model = str(tmp / "m.model")
    assert main(["fit", "--data", ds, "--model-out", model] + HYPER) == 0
    assert main(["segment", "--transductive", "--train-data", ds, "--data", ds,
                 "--model", model, "--out-dir", str(tmp / "segs"),
                 "--k-extra", "3"]) == 2
    assert "--k-extra 3" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["manifest", "posteriors"])
def test_duplicate_bag_id_exit_2(workspace, capsys, kind):
    # a second bag of the same id would overwrite the first's segment/<id>.csv
    tmp, ds = workspace
    model, post = str(tmp / "m.model"), str(tmp / "train.post")
    assert main(["fit", "--data", ds, "--model-out", model,
                 "--posteriors-out", post] + HYPER) == 0
    if kind == "manifest":
        path = os.path.join(ds, "manifest.txt")
        data = open(path, "rb").read()
        lines = data.split(b"\n")
        line = lines.index(b"bag: bag0001,12,bag0001.bag") + 1
        lines[line - 1] = b"bag: bag0000,12,bag0000.bag"
        open(path, "wb").write(b"\n".join(lines))
        argv = ["fit", "--data", ds, "--model-out", str(tmp / "again.model")]
    else:
        pairs = load_posteriors(post)
        path = str(tmp / "dup.post")
        save_posteriors(path, pairs + pairs[:1], pairs[0][1].nu.shape[1])
        line = 5 + len(pairs)  # the header's 4 lines, then one line per bag
        argv = ["segment", "--posteriors", path, "--model", model,
                "--out-dir", str(tmp / "segs")]
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
