"""Which library calls the traced run wraps, and the per-layer metrics.

Each per-layer value is the median over traced rounds of that round's
total, except set-up layers (``generative.sample_dataset``,
``io.save_dataset``), which are medians over the run's set-ups. Stage
metrics of ``inference`` count only spans inside ``inference.fit``; work
done under ``inference.infer_test`` is reported under that name.
"""

from __future__ import annotations

import statistics

from spans import Hook, Span, ancestors, bytes_read, bytes_written, fit_counts, self_seconds

IO_READ = ["load_dataset", "load_model", "load_posteriors"]
IO_WRITE = ["save_dataset", "save_model", "save_posteriors", "write_segmentation"]
TASKS = ["free_annotation", "rank_query", "segment"]
METRICS = ["ap_at_t", "map_pr", "mar_query", "segmentation_metrics"]
CLI = ["fit", "infer", "annotate", "query", "segment", "eval"]
STAGES = {  # span name -> hook target in wsibp.inference
    "inference.appearance": "update_appearance",
    "inference.sweep": "_sweep_bag",
    "inference.stick_cache": "StickBoundCache.from_tau",
    "inference.stick_update": "update_stick",
    "inference.correlation": "update_correlation",
}
SETUP_LAYERS = ("generative.sample_dataset.", "io.save_dataset.")

# infer_test is timed per bag in every run: it gives the latency metrics.
LATENCY_HOOKS = [Hook("wsibp.inference", "infer_test", "inference.infer_test")]
TRACE_HOOKS = LATENCY_HOOKS + [
    Hook("wsibp.inference", "fit", "inference.fit", fit_counts),
    Hook("wsibp.inference", "validate_dataset", "core.validate_dataset"),
    *(Hook("wsibp.inference", target, span) for span, target in STAGES.items()),
    Hook("wsibp.generative", "sample_dataset", "generative.sample_dataset"),
    *(Hook("wsibp.io", fn, f"io.{fn}", bytes_read) for fn in IO_READ),
    *(Hook("wsibp.io", fn, f"io.{fn}", bytes_written) for fn in IO_WRITE),
    *(Hook("wsibp.tasks", fn, f"tasks.{fn}") for fn in TASKS),
    *(Hook("wsibp.metrics", fn, f"metrics.{fn}") for fn in METRICS),
]


def hooks(traced: bool) -> list[Hook]:
    return TRACE_HOOKS if traced else LATENCY_HOOKS


UNITS = {
    "inference.fit.s": "s", "inference.fit.glue_s": "s", "inference.fit.iters": "count",
    **{f"{name}.{k}": u for name in STAGES for k, u in (("self_s", "s"), ("calls", "count"))},
    "inference.sweep.macs_computed": "count", "inference.sweep.gmacs_per_s": "GMAC/s",
    "inference.stick_cache.per_bag_iter": "count", "inference.stick.share_of_fit": "ratio",
    "inference.infer_test.s": "s", "inference.infer_test.self_s": "s",
    "inference.infer_test.calls": "count", "inference.infer_test.sweeps_per_bag": "count",
    "core.validate_dataset.s": "s", "core.validate_dataset.calls": "count",
    "generative.sample_dataset.s": "s",
    **{f"io.{fn}.{k}": u for fn in IO_READ + IO_WRITE for k, u in (("s", "s"), ("calls", "count"))},
    "io.bytes_read": "B", "io.bytes_written": "B",
    **{f"tasks.{fn}.{k}": u for fn in TASKS for k, u in (("s", "s"), ("calls", "count"))},
    **{f"metrics.{fn}.{k}": u for fn in METRICS for k, u in (("s", "s"), ("calls", "count"))},
    **{f"cli.{c}.{k}": "s" for c in CLI for k in ("s", "self_s")},
    **{f"quality.{q}": "ratio" for q in ("train_seg_iou", "test_seg_iou", "query_mar", "annot_ap2")},
    "trace.overhead_s": "s", "trace.spans": "count",
}


def one_run(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals of the spans of one round or one set-up."""
    by_id = {s.id: s for s in spans}
    own = self_seconds(spans)
    out = {k: 0.0 for k in UNITS}

    def add(key, value):
        if key in out:
            out[key] += value

    fit_counts_ = {"iters": 0, "bag_iters": 0, "macs_per_iter": 0}
    infer_sweeps = 0
    for s in spans:
        names = {a.name for a in ancestors(s, by_id)}
        if s.name in STAGES:
            if "inference.fit" in names:
                add(f"{s.name}.self_s", own[s.id])
                add(f"{s.name}.calls", 1)
            if s.name == "inference.sweep" and "inference.infer_test" in names:
                infer_sweeps += 1
            continue
        if s.name == "inference.fit":
            add("inference.fit.s", s.seconds)
            add("inference.fit.glue_s", own[s.id])
            for k in fit_counts_:
                fit_counts_[k] += s.counts.get(k, 0)
        elif s.name == "inference.infer_test":
            add("inference.infer_test.s", s.seconds)
            add("inference.infer_test.self_s", own[s.id])
            add("inference.infer_test.calls", 1)
        elif s.name.startswith("cli."):
            add(f"{s.name}.s", s.seconds)
            add(f"{s.name}.self_s", own[s.id])
        else:
            add(f"{s.name}.s", s.seconds)
            add(f"{s.name}.calls", 1)
        add("io.bytes_read", s.counts.get("bytes_read", 0))
        add("io.bytes_written", s.counts.get("bytes_written", 0))

    out["inference.fit.iters"] = fit_counts_["iters"]
    out["inference.sweep.macs_computed"] = (
        fit_counts_["macs_per_iter"] / fit_counts_["iters"] if fit_counts_["iters"] else 0.0)
    sweep_s = out["inference.sweep.self_s"]
    out["inference.sweep.gmacs_per_s"] = (
        fit_counts_["macs_per_iter"] * fit_counts_["iters"] / sweep_s / 1e9 if sweep_s else 0.0)
    out["inference.stick_cache.per_bag_iter"] = (
        out["inference.stick_cache.calls"] / fit_counts_["bag_iters"]
        if fit_counts_["bag_iters"] else 0.0)
    fit_s = out["inference.fit.s"]
    out["inference.stick.share_of_fit"] = (
        (out["inference.stick_cache.self_s"] + out["inference.stick_update.self_s"]) / fit_s
        if fit_s else 0.0)
    calls = out["inference.infer_test.calls"]
    out["inference.infer_test.sweeps_per_bag"] = infer_sweeps / calls if calls else 0.0
    out["trace.spans"] = len(spans)
    return out


def per_layer(spans: list[Span], rounds, traced_ids: list[int],
              untraced_ids: list[int]) -> dict[str, float]:
    groups: dict[str, list[Span]] = {}
    for s in spans:
        groups.setdefault(s.run, []).append(s)
    med = statistics.median
    traced = [one_run(groups.get(f"round-{i}", [])) for i in traced_ids]
    setups = [one_run(g) for run, g in groups.items() if run.startswith("setup-")]
    out = {}
    for key in UNITS:
        source = setups if key.startswith(SETUP_LAYERS) else traced
        out[key] = med(v[key] for v in source)
    for q in rounds[0].quality:
        out[f"quality.{q}"] = med(rounds[i].quality[q] for i in traced_ids)
    out["trace.overhead_s"] = (med(rounds[i].seconds for i in traced_ids)
                               - med(rounds[i].seconds for i in untraced_ids))
    return out
