"""Workload inputs, one closed-loop round per workload, and output checks.

Every round is fixed work: fit runs ``tol=0`` for a fixed iteration count,
and test inference inherits that config, so each test bag gets the same
number of sweeps. Iterations-to-tolerance depend on the seed far more than
any bound the benchmark can hold (5 to 15 iterations over eight seeds of the
pipeline shape), so they are reported as layer counts, not timed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io as _stdio
import json
import math
import os
import re
import time
from dataclasses import dataclass, field

import numpy as np

from wsibp import cli, generative, inference, io, metrics, tasks
from wsibp.core import Bag, BagPosterior, ModelConfig

# (object, attributes) conjunctions, attributes counted from the first
# attribute factor; single pairs plus two three-factor queries.
QUERIES = [(0, [0]), (0, [1]), (1, [0]), (1, [2]), (2, [1]), (3, [0]),
           (0, [0, 1]), (1, [0, 1])]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cli: bool  # run the round through wsibp.cli.main instead of the library
    n_train: int
    n_test: int
    instances: int
    k_extra: int
    iters: int = 3
    feature_dim: int = 32
    k_objects: int = 5
    k_attributes: int = 5
    setups: int = 25

    def config(self, seed: int) -> ModelConfig:
        return ModelConfig(k_objects=self.k_objects, k_attributes=self.k_attributes,
                           k_extra=self.k_extra, beta=1.0, rho=0.1,
                           max_iters=self.iters, tol=0.0, seed=seed)

    @property
    def min_rounds(self) -> int:
        """Rounds that give at least 40 per-bag inference samples."""
        return max(2, math.ceil(40 / self.n_test))

    @property
    def tail_pct(self) -> float:
        """Highest percentile with ten samples beyond it at ``min_rounds``."""
        return 100.0 * (1.0 - 10.0 / (self.n_test * self.min_rounds))


WORKLOADS = {w.name: w for w in [
    Workload("fit-many-small",
             "200 bags x 36 instances: per-bag Python overhead (stick cache, "
             "stick update, sweep loop) dominates fit and inference",
             cli=False, n_train=200, n_test=100, instances=36, k_extra=20),
    Workload("fit-few-large",
             "4 bags x 4096 instances: NumPy arithmetic over large arrays "
             "dominates, so per-bag overhead predicts no change here",
             cli=False, n_train=4, n_test=4, instances=4096, k_extra=20),
    Workload("pipeline",
             "wsibp CLI chain fit, infer, annotate, query, segment, eval on "
             "60 train and 400 test bags: IO, tasks and metrics have shares",
             cli=True, n_train=60, n_test=400, instances=25, k_extra=10, setups=15),
]}


# --- inputs -----------------------------------------------------------------

@dataclass
class Data:
    config: ModelConfig
    train: list[Bag]
    test: list[Bag]
    train_z: list[np.ndarray]
    test_z: list[np.ndarray]
    workdir: str | None = None

    @property
    def queries(self) -> list[tuple[int, list[int]]]:
        k_o = self.config.k_objects
        return [(o, [k_o + a for a in attrs]) for o, attrs in QUERIES]


def seg_truth(z: np.ndarray, k_objects: int) -> np.ndarray:
    """Lowest-index active object per instance; ``k_objects`` when none is."""
    obj = z[:, :k_objects]
    return np.where(obj.any(axis=1), obj.argmax(axis=1), k_objects)


def annot_truth(z: np.ndarray, config: ModelConfig) -> tuple[int, list[int]]:
    """Most-used object (-1 if none) and the attributes co-located with it."""
    k_o, k_a = config.k_objects, config.k_annotated
    uses = z[:, :k_o].sum(axis=0)
    if not uses.any():
        return -1, []
    obj = int(uses.argmax())
    rows = z[:, obj] == 1.0
    return obj, [int(k_o + a) for a in np.flatnonzero(z[rows, k_o:k_a].any(axis=0))]


def relevant(ids: list[str], zs: list[np.ndarray], factors: list[int]) -> list[str]:
    return [bid for bid, z in zip(ids, zs) if bool((z[:, factors] == 1.0).all(axis=1).any())]


def make_data(w: Workload, seed: int, workdir: str | None) -> Data:
    """One draw split into train and test, so both share appearance vectors."""
    config = w.config(seed)
    ds = generative.sample_dataset(config, w.n_train + w.n_test, w.instances,
                                   w.feature_dim, seed=seed)
    data = Data(config, ds.bags[:w.n_train], ds.bags[w.n_train:],
                ds.true_z[:w.n_train], ds.true_z[w.n_train:], workdir)
    if w.cli:
        _write_pipeline_inputs(data)
    return data


def _write_pipeline_inputs(data: Data) -> None:
    c, d = data.config, data.workdir
    vocab = c.default_vocab()
    for name, bags in (("train", data.train), ("test", data.test)):
        io.save_dataset(os.path.join(d, name), bags, vocab, c.k_objects,
                        c.k_attributes, c.k_extra)
    ids = [b.id for b in data.test]
    truth = {
        "seg_truth.json": {"bags": {bid: {"labels": seg_truth(z, c.k_objects).tolist()}
                                    for bid, z in zip(ids, data.test_z)}},
        "annot_truth.json": {"k_objects": c.k_objects, "bags": {
            bid: dict(zip(("object", "attributes"), annot_truth(z, c)))
            for bid, z in zip(ids, data.test_z)}},
        "query_truth.json": {"queries": [
            {"object": o, "attributes": a, "relevant": relevant(ids, data.test_z, [o] + a)}
            for o, a in data.queries]},
    }
    for fname, payload in truth.items():
        with open(os.path.join(d, fname), "w", encoding="ascii") as fh:
            json.dump(payload, fh)


# --- one round ---------------------------------------------------------------

@dataclass
class Ops:
    """Operations attempted and the reasons for each failure."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Round:
    marks: tuple[float, float, float, float]  # perf_counter at start and after fit, infer, all
    fit_iter_s: list[float]
    inst_iters: int
    n_infer: int
    quality: dict[str, float]
    fingerprint: str
    model: object = None
    correlation: np.ndarray | None = None
    train_posts: list[BagPosterior] = field(default_factory=list)
    test_posts: list[BagPosterior] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.marks[3] - self.marks[0]

    @property
    def fit_s(self) -> float:
        return self.marks[1] - self.marks[0]


def score(data: Data, train_posts, test_posts) -> dict[str, float]:
    """Quality of a fitted model, through the tasks and metrics modules."""
    c = data.config
    ids = [b.id for b in data.test]

    def iou(posts, bags, zs):
        pred = {b.id: tasks.segment(p, c).labels for b, p in zip(bags, posts)}
        truth = {b.id: seg_truth(z, c.k_objects) for b, z in zip(bags, zs)}
        return metrics.segmentation_metrics(pred, truth).mean_iou

    preds, truth = {}, {}
    for bid, post, z in zip(ids, test_posts, data.test_z):
        ann = tasks.free_annotation(post, c, 1, 2)[0]
        preds[bid] = (ann.object, [k for k, _ in ann.attributes])
        obj, attrs = annot_truth(z, c)
        truth[bid] = metrics.BagTruth(object=obj, attributes=set(attrs))
    named = list(zip(ids, test_posts))
    rankings, relevance = {}, {}
    for o, a in data.queries:
        key = (o, tuple(a))
        rankings[key] = [bid for bid, _, _ in tasks.rank_query(named, c, o, a)]
        relevance[key] = set(relevant(ids, data.test_z, [o] + a))
    return {
        "train_seg_iou": iou(train_posts, data.train, data.train_z),
        "test_seg_iou": iou(test_posts, data.test, data.test_z),
        "query_mar": metrics.mar_query(rankings, relevance)[0],
        "annot_ap2": metrics.ap_at_t(preds, truth, 2),
    }


def fingerprint(model, corr_m, posts) -> str:
    h = hashlib.sha256()
    for arr in (model.means, model.variances, corr_m):
        h.update(np.ascontiguousarray(arr).tobytes())
    for p in posts:
        for arr in (p.tau, p.nu, p.logits):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def library_round(data: Data) -> Round:
    c = data.config
    t0 = time.perf_counter()
    res = inference.fit(data.train, c)
    t1 = time.perf_counter()
    test_posts = [inference.infer_test(b, res.model, res.correlation, c) for b in data.test]
    t2 = time.perf_counter()
    quality = score(data, res.posteriors, test_posts)
    t3 = time.perf_counter()
    return Round(
        marks=(t0, t1, t2, t3), fit_iter_s=[s for _, s in res.trace],
        inst_iters=sum(b.n_instances for b in data.train) * len(res.trace),
        n_infer=len(test_posts), quality=quality,
        fingerprint=fingerprint(res.model, res.correlation.m,
                                res.posteriors + test_posts),
        model=res.model, correlation=res.correlation.m, train_posts=res.posteriors,
        test_posts=test_posts)


_EVAL_LINE = re.compile(r"^(AP@2|MAR|mean IOU): ([0-9.]+)$", re.M)


def pipeline_round(data: Data, tracer, ops: Ops) -> Round:
    c, d = data.config, data.workdir
    p = {name: os.path.join(d, name) for name in (
        "train", "test", "m.model", "train.post", "test.post", "trace.csv",
        "ann.json", "queries.json", "segs", "seg_truth.json", "annot_truth.json",
        "query_truth.json")}

    def run(*argv: str) -> str:
        out = _stdio.StringIO()
        with tracer.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(out):
            rc = cli.main(list(argv))
        ops.check(f"wsibp {argv[0]} exited {rc}", rc == 0)
        return out.getvalue()

    hyper = ["--k-extra", str(c.k_extra), "--beta", str(c.beta), "--rho", str(c.rho),
             "--max-iters", str(c.max_iters), "--tol", "0", "--seed", str(c.seed)]
    t0 = time.perf_counter()
    run("fit", "--data", p["train"], "--model-out", p["m.model"],
        "--posteriors-out", p["train.post"], "--trace-out", p["trace.csv"], *hyper)
    t1 = time.perf_counter()
    run("infer", "--data", p["test"], "--model", p["m.model"], "--out", p["test.post"])
    t2 = time.perf_counter()
    run("annotate", "--posteriors", p["test.post"], "--model", p["m.model"],
        "--out", p["ann.json"], "--top-attrs", "2")
    merged = []
    for i, (o, attrs) in enumerate(QUERIES):
        q = os.path.join(d, f"q{i}.json")
        run("query", "--posteriors", p["test.post"], "--model", p["m.model"],
            "--object", f"obj{o}", "--attrs", ",".join(f"att{a}" for a in attrs),
            "--out", q)
        with open(q, encoding="ascii") as fh:
            merged += json.load(fh)["queries"]
    with open(p["queries.json"], "w", encoding="ascii") as fh:
        json.dump({"queries": merged}, fh)
    run("segment", "--posteriors", p["test.post"], "--model", p["m.model"],
        "--out-dir", p["segs"])
    printed = run("eval", "--task", "annotation", "--pred", p["ann.json"],
                  "--truth", p["annot_truth.json"], "--t", "2")
    printed += run("eval", "--task", "query", "--pred", p["queries.json"],
                   "--truth", p["query_truth.json"])
    printed += run("eval", "--task", "segmentation", "--pred", p["segs"],
                   "--truth", p["seg_truth.json"])
    t3 = time.perf_counter()

    with tracer.paused():
        with open(p["trace.csv"], encoding="ascii") as fh:
            iter_s = [float(row["seconds"]) for row in csv.DictReader(fh)]
        model, corr = io.load_model(p["m.model"])
        train_posts = [post for _, post in io.load_posteriors(p["train.post"])]
        test_posts = [post for _, post in io.load_posteriors(p["test.post"])]
        found = dict(_EVAL_LINE.findall(printed))
        quality = {
            "train_seg_iou": score(data, train_posts, test_posts)["train_seg_iou"],
            "test_seg_iou": float(found.get("mean IOU", "nan")),
            "query_mar": float(found.get("MAR", "nan")),
            "annot_ap2": float(found.get("AP@2", "nan")),
        }
    return Round(
        marks=(t0, t1, t2, t3), fit_iter_s=iter_s,
        inst_iters=sum(b.n_instances for b in data.train) * len(iter_s),
        n_infer=len(test_posts), quality=quality,
        fingerprint=fingerprint(model, corr.m, train_posts + test_posts),
        model=model, correlation=corr.m, train_posts=train_posts, test_posts=test_posts)


def check_round(r: Round, data: Data, floors: dict[str, float], first: str | None,
                ops: Ops) -> None:
    """Each check is one operation: finite outputs, nu range and label mask,
    quality above its floor, and outputs identical to the first round's."""
    m = r.model
    ops.check("fit: model or correlation not finite",
              all(np.isfinite(a).all() for a in (m.means, m.variances, r.correlation)))
    for bag, post in zip(data.train, r.train_posts):
        ops.check(f"fit {bag.id}: posterior not finite, nu outside [0,1] or "
                  "nu > 0 where the label bit is 0", _post_ok(post, bag.labels.bits))
    ops.check("infer: posterior count", len(r.test_posts) == len(data.test))
    for bag, post in zip(data.test, r.test_posts):
        ops.check(f"infer {bag.id}: posterior not finite or nu outside [0,1]",
                  _post_ok(post, None))
    for name, floor in floors.items():
        value = r.quality.get(name, float("nan"))
        ops.check(f"quality {name} = {value} below floor {floor}", value >= floor)
    ops.check("round output differs from the first round's",
              first is None or r.fingerprint == first)


def _post_ok(post: BagPosterior, bits: np.ndarray | None) -> bool:
    nu = post.nu
    ok = (np.isfinite(post.tau).all() and np.isfinite(nu).all()
          and np.isfinite(post.logits).all() and (nu >= 0).all() and (nu <= 1).all())
    if bits is not None:
        ok = ok and not nu[:, bits == 0].any()
    return bool(ok)
