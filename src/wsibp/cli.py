"""Command-line front end: synth | fit | infer | annotate | query | segment | eval.

Exit codes: 0 success, 1 usage error, 2 data/format error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
import typing

import numpy as np

from . import generative, inference, io, metrics, tasks
from .core import (ConfigError, DatasetError, FormatError, ModelConfig, VocabMismatchError,
                   WeakLabels, WsibpError)


class UsageError(Exception):
    pass


# the ModelConfig fields that are flags, with their help
_HYPER = {
    "alpha": "IBP sparsity prior (alpha)",
    "sigma_a": "appearance prior std (sigma_A)",
    "sigma": "observation noise std (sigma)",
    "k_extra": "unannotated/background factor slots (K_bg); fit takes the "
               "dataset's and rejects any other value",
    "seed": "random seed",
    "beta": "spatial MRF coupling (beta)",
    "rho": "factorial MRF weight (rho)",
    "max_iters": "iteration cap",
    "tol": "convergence threshold on mean |delta nu|",
}
_SYNTH_HYPER = ("alpha", "sigma_a", "sigma", "k_extra", "seed")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _add_hyper_flags(p: argparse.ArgumentParser, names=tuple(_HYPER)) -> None:
    """One flag per field in ``names``, typed as ModelConfig declares it. Each
    defaults to None, so a flag not given leaves ModelConfig's default."""
    types = typing.get_type_hints(ModelConfig)
    for name in names:
        p.add_argument("--" + name.replace("_", "-"), type=types[name], help=_HYPER[name])


def _config(args, **fixed) -> ModelConfig:
    """The hyperparameter flags given on the command line, then ``fixed``."""
    given = {k: v for k, v in vars(args).items() if k in _HYPER and v is not None}
    return ModelConfig(**{**given, **fixed})


def build_parser(command: str | None = None) -> _Parser:
    """The ``wsibp`` parser; given a ``command``, the parser of that command alone, as
    building all seven costs more than parsing one command."""
    parser = _Parser(prog="wsibp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, add_flags, _) in _COMMANDS.items():
        if command in (None, name):
            add_flags(sub.add_parser(name, help=summary))
    return parser


def _synth_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", required=True, help="output dataset file (and <out>.truth.json)")
    p.add_argument("--num-bags", type=int, default=50)
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--feature-dim", type=int, default=16)
    p.add_argument("--k-objects", type=int, default=3)
    p.add_argument("--k-attributes", type=int, default=3)
    p.add_argument("--label-density", type=float, default=0.5)
    p.add_argument("--no-grid", action="store_true",
                   help="omit the 4-neighbour grid adjacency")
    p.add_argument("--text", action="store_true",
                   help="write every block as decimal text rows instead of binary")
    _add_hyper_flags(p, _SYNTH_HYPER)


def _fit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True)
    p.add_argument("--model-out", required=True)
    p.add_argument("--posteriors-out", help="also write training-bag posteriors")
    p.add_argument("--trace-out", help="write per-iteration delta/time CSV")
    _add_hyper_flags(p)


def _infer_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="posteriors file")
    p.add_argument("--train-data", help="refit over this training set and the --data "
                   "bags, every label of these on (transductive)")


def _annotate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--posteriors", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--top-objects", type=int, default=1)
    p.add_argument("--top-attrs", type=int, default=2)


def _query_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--posteriors", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--object", required=True, help="object factor name or index")
    p.add_argument("--attrs", default="",
                   help="comma-separated attribute names or indices")
    p.add_argument("--out", required=True)


def _segment_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--posteriors", required=True, help="posteriors from infer")
    p.add_argument("--model", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--raster", help="CSV raster of pixel -> instance ids")
    p.add_argument("--raster-bag", help="bag id the raster applies to")


def _eval_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--task", required=True,
                   choices=("annotation", "query", "segmentation"))
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--t", default="2,5,8",
                   help="comma-separated t values for AP@t")


def _factor_index(token: str, vocab: list[str]) -> int:
    token = token.strip()
    if token in vocab:
        return vocab.index(token)
    try:
        return int(token)
    except ValueError:
        raise WsibpError(f"unknown factor {token!r}") from None


def _cmd_synth(args) -> int:
    config = _config(args, k_objects=args.k_objects, k_attributes=args.k_attributes)
    ds = generative.sample_dataset(
        config, args.num_bags, args.instances, args.feature_dim,
        grid_adjacency=not args.no_grid, labels=args.label_density,
    )
    vocab = config.default_vocab()
    io.save_dataset(args.out, ds.bags, vocab, config.k_objects,
                    config.k_attributes, config.k_extra, binary=not args.text)
    io.save_truth(args.out + ".truth.json", ds.true_z,
                  ds.true_pi, ds.true_a, [b.id for b in ds.bags])
    print(f"wrote {len(ds.bags)} bags to {args.out}")
    return 0


def _cmd_fit(args) -> int:
    loaded = io.load_dataset(args.data)
    if args.k_extra not in (None, loaded.k_extra):
        raise ConfigError(f"--k-extra {args.k_extra} does not match the "
                          f"dataset's k_extra {loaded.k_extra}")
    config = _config(args, k_objects=loaded.k_objects,
                     k_attributes=loaded.k_attributes, k_extra=loaded.k_extra)
    result = inference.fit(loaded.bags, config, vocab=loaded.vocab)
    io.save_model(args.model_out, result.model, result.correlation)
    if args.posteriors_out:
        io.save_posteriors(args.posteriors_out,
                           [(b.id, p) for b, p in zip(loaded.bags, result.posteriors)],
                           config.k_max)
    if args.trace_out:
        with open(args.trace_out, "w", encoding="ascii") as fh:
            fh.write("iteration,mean_abs_delta_nu,seconds\n")
            for i, (delta, secs) in enumerate(result.trace):
                fh.write(f"{i},{delta!r},{secs!r}\n")
    delta = result.trace[-1][0]
    print(f"fit: {len(result.trace)} iterations, final mean |delta nu| = {delta:.3g}")
    return 0


def _cmd_infer(args) -> int:
    loaded = io.load_dataset(args.data)
    model, corr = io.load_model(args.model)
    config = model.config
    if args.train_data is None:
        posts = [inference.infer_test(bag, model, corr, config) for bag in loaded.bags]
    else:  # a label bit stands for the factor at its position, so the vocabs must agree
        train = io.load_dataset(args.train_data)
        if (train.vocab, train.k_objects, train.k_attributes) != \
                (model.vocab, config.k_objects, config.k_attributes):
            raise VocabMismatchError(f"{args.train_data}: the dataset's vocab and factor "
                                     "counts are not the model's")
        ones = WeakLabels(np.ones(config.k_max))
        test = [dataclasses.replace(bag, labels=ones) for bag in loaded.bags]
        result = inference.fit(train.bags + test, config, vocab=model.vocab)
        posts = result.posteriors[len(train.bags):]
    io.save_posteriors(args.out, [(b.id, p) for b, p in zip(loaded.bags, posts)],
                       config.k_max)
    print(f"inferred posteriors for {len(posts)} bags -> {args.out}")
    return 0


def _write_entries(path: str, key: str, entries: list) -> None:
    """``{key: entries}`` as JSON, one entry per line. json.dumps without indent takes
    the C encoder; json.dump, or any indent, takes the pure-Python one."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("{%s: [\n%s\n]}\n" % (json.dumps(key), ",\n".join(map(json.dumps, entries))))


def _cmd_annotate(args) -> int:
    model, _ = io.load_model(args.model)
    config = model.config
    posts = io.load_posteriors(args.posteriors, config.k_max)
    lo, hi = config.k_objects, config.k_annotated
    entries = []
    for bag_id, post in posts:
        anns = tasks.free_annotation(post, config, args.top_objects, args.top_attrs)
        entries.append({
            "bag": bag_id,
            "annotations": [
                {
                    "object": a.object,
                    "object_name": model.vocab[a.object],
                    "object_score": a.object_score,
                    "instance": a.object_instance,
                    "attributes": [[k, s] for k, s in a.attributes],
                    "attribute_scores": post.nu[a.object_instance, lo:hi].tolist(),
                }
                for a in anns
            ],
        })
    _write_entries(args.out, "bags", entries)
    print(f"annotated {len(posts)} bags -> {args.out}")
    return 0


def _cmd_query(args) -> int:
    model, _ = io.load_model(args.model)
    config = model.config
    posts = io.load_posteriors(args.posteriors, config.k_max)
    obj = _factor_index(args.object, model.vocab)
    attrs = [_factor_index(t, model.vocab) for t in args.attrs.split(",") if t.strip()]
    ranked = tasks.rank_query(posts, config, obj, attrs)
    _write_entries(args.out, "queries", [{
        "object": obj,
        "attributes": attrs,
        "ranking": [[bag_id, j, score] for bag_id, j, score in ranked],
    }])
    print(f"ranked {len(ranked)} bags -> {args.out}")
    return 0


def _cmd_segment(args) -> int:
    if (args.raster is None) != (args.raster_bag is None):
        raise UsageError("--raster and --raster-bag must be given together")
    model, _ = io.load_model(args.model)
    raster = None if args.raster is None else io.read_raster(args.raster)
    posts = io.load_posteriors(args.posteriors, model.config.k_max)
    if raster is not None:  # the raster bag first: a raster it rejects writes nothing
        ids = [bag_id for bag_id, _ in posts]
        if args.raster_bag not in ids:
            raise DatasetError(f"--raster-bag {args.raster_bag!r}: no such bag")
        posts.insert(0, posts.pop(ids.index(args.raster_bag)))
    for n, (bag_id, post) in enumerate(posts):
        io.write_segmentation(os.path.join(args.out_dir, f"{bag_id}.csv"),
                              tasks.segment(post, model.config), model.vocab,
                              raster=raster if n == 0 else None)
    print(f"segmented {len(posts)} bags -> {args.out_dir}")
    return 0


def _values(entry, keys: str, path: str, what: str) -> list:
    """``entry[key]`` for each of ``keys``; a missing key is a FormatError naming it and what."""
    for key in keys.split():
        if not isinstance(entry, dict) or key not in entry:
            raise FormatError(f"{path}: {what} needs a {key!r} key")
    return [entry[key] for key in keys.split()]


def _eval_annotation(args, pred: dict, truth: dict) -> None:
    t_values = [int(v) for v in args.t.split(",") if v.strip()]
    truth_bags = {}
    for bid, v in truth["bags"].items():
        obj, attrs = _values(v, "object attributes", args.truth, f"bag {bid!r}")
        truth_bags[bid] = metrics.BagTruth(object=int(obj), attributes=set(attrs))
    k_objects = int(truth.get("k_objects", 0))
    predictions = {}
    scores_rows, row_ids = [], []
    for n, entry in enumerate(_values(pred, "bags", args.pred, "annotation prediction")[0]):
        bid, annotations = _values(entry, "bag annotations", args.pred, f"bag entry {n}")
        if bid not in truth_bags:
            raise FormatError(f"{args.truth}: no truth for bag {bid!r} of {args.pred}")
        if not annotations:
            raise WsibpError(f"bag {bid!r} has no annotations")
        ann = annotations[0]
        obj, attrs = _values(ann, "object attributes", args.pred, f"bag {bid!r}")
        predictions[bid] = (int(obj), [int(k) for k, _ in attrs])
        if "attribute_scores" in ann:
            scores_rows.append(ann["attribute_scores"])
            row_ids.append(bid)
    for t in t_values:
        print(f"AP@{t}: {metrics.ap_at_t(predictions, truth_bags, t):.4f}")
    if scores_rows:
        # attribute_scores vectors cover the attribute block, whose absolute
        # factor indices start at k_objects
        n_attrs = len(scores_rows[0])
        rel = np.zeros((len(scores_rows), n_attrs), dtype=bool)
        for r, bid in enumerate(row_ids):
            for a in truth_bags[bid].attributes:
                if 0 <= a - k_objects < n_attrs:
                    rel[r, a - k_objects] = True
        try:
            mean_ap, skipped = metrics.map_pr(np.array(scores_rows), rel)
            print(f"mAP: {mean_ap:.4f}")
            if skipped:
                print(f"mAP skipped attributes with no positives: {skipped}")
        except WsibpError as exc:
            print(f"mAP: skipped ({exc})")


def _eval_query(args, pred: dict, truth: dict) -> None:
    rankings, relevance = {}, {}
    for n, entry in enumerate(_values(pred, "queries", args.pred, "query prediction")[0]):
        obj, attrs, ranking = _values(entry, "object attributes ranking", args.pred, f"query {n}")
        rankings[(obj, tuple(attrs))] = [row[0] for row in ranking]
    for n, entry in enumerate(truth["queries"]):
        obj, attrs, ids = _values(entry, "object attributes relevant", args.truth, f"query {n}")
        relevance[(obj, tuple(attrs))] = set(ids)
    mar, skipped = metrics.mar_query(rankings, relevance)
    print(f"MAR: {mar:.4f}")
    if skipped:
        print(f"skipped queries with empty relevance: {len(skipped)}")


def _eval_segmentation(pred_dir: str, truth: dict, truth_path: str, truth_text: str) -> None:
    pred_maps, truth_maps, pixels = {}, {}, {}
    for bid, entry in truth["bags"].items():
        labels = entry.get("labels") if isinstance(entry, dict) else None
        labels = np.array(labels) if isinstance(labels, list) else np.array(None)
        if labels.size and (labels.dtype.kind != "i" or labels.min() < 0):
            key = re.compile(re.escape(json.dumps(bid)) + r"\s*:")
            at = key.search(truth_text, max(truth_text.find('"bags"'), 0))
            line = truth_text.count("\n", 0, at.start() if at else 0) + 1
            raise FormatError(f"{truth_path}:{line}: bag {bid!r}: labels must be a list "
                              "of non-negative integers")
        truth_maps[bid] = labels.astype(np.int64)
        if "pixels" in entry:
            pixels[bid] = np.array(entry["pixels"], dtype=np.float64)
        pred_maps[bid] = io.read_segmentation_labels(os.path.join(pred_dir, f"{bid}.csv"))
    scores = metrics.segmentation_metrics(
        pred_maps, truth_maps, pixels if pixels else None)
    print(f"mean IOU: {scores.mean_iou:.4f}")
    print(f"per-pixel accuracy: {scores.per_pixel_accuracy:.4f}")
    print(f"per-class accuracy: {scores.per_class_accuracy:.4f}")
    for c, v in scores.class_iou.items():
        print(f"class {c} IOU: {v:.4f}")


def _cmd_eval(args) -> int:
    if args.task == "annotation" and not args.t.replace(",", "").strip():
        raise UsageError("--t needs at least one value")
    with open(args.truth, encoding="ascii") as fh:
        truth_text = fh.read()
    truth = json.loads(truth_text)
    _values(truth, "queries" if args.task == "query" else "bags", args.truth, f"{args.task} truth")
    if args.task == "segmentation":
        _eval_segmentation(args.pred, truth, args.truth, truth_text)
        return 0
    with open(args.pred, encoding="ascii") as fh:
        pred = json.load(fh)
    if args.task == "annotation":
        _eval_annotation(args, pred, truth)
    else:
        _eval_query(args, pred, truth)
    return 0


# name -> (help, the function adding its flags, its handler)
_COMMANDS = {
    "synth": ("sample a synthetic dataset with ground truth", _synth_flags, _cmd_synth),
    "fit": ("train on a dataset file", _fit_flags, _cmd_fit),
    "infer": ("test-time inference with a trained model", _infer_flags, _cmd_infer),
    "annotate": ("rank objects and attributes per bag", _annotate_flags, _cmd_annotate),
    "query": ("rank bags for an object(+attribute) conjunction", _query_flags, _cmd_query),
    "segment": ("label instances with object factors", _segment_flags, _cmd_segment),
    "eval": ("score predictions against ground truth", _eval_flags, _cmd_eval),
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command][2](args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (WsibpError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
