"""The benchmark's own tests, on shapes small enough to run in seconds:

    python3 -m pytest perfbench
"""

import json
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import hostspeed
import layers
import run
import workloads as wl
from hostspeed import Sampler
from spans import Hook, Span, Tracer, check_tree, install

TINY = dict(n_train=6, n_test=12, instances=16, k_extra=2, iters=2,
            feature_dim=6, setups=2)
TINY_LIB = wl.Workload("fit-many-small", "tiny", cli=False, **TINY)
TINY_CLI = wl.Workload("pipeline", "tiny", cli=True, **TINY)
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def one_round(w, traced, tmp_path):
    tracer = Tracer()
    workdir = tmp_path / ("traced" if traced else "untraced")
    workdir.mkdir()
    with install(tracer, layers.hooks(traced)) as absent:
        data = wl.make_data(w, 3, str(workdir))
        ops = wl.Ops()
        r = wl.pipeline_round(data, tracer, ops) if w.cli else wl.library_round(data)
    assert absent == [] and ops.failures == []
    return r, tracer


@pytest.mark.parametrize("w", [TINY_LIB, TINY_CLI], ids=["library", "cli"])
def test_traced_and_untraced_rounds_are_bit_identical(w, tmp_path):
    plain, _ = one_round(w, False, tmp_path)
    traced, tracer = one_round(w, True, tmp_path)
    assert len(tracer.spans) > 100
    assert traced.fingerprint == plain.fingerprint
    for a, b in [(plain.model.means, traced.model.means),
                 (plain.model.variances, traced.model.variances)]:
        assert a.tobytes() == b.tobytes()
    for p, q in zip(plain.train_posts + plain.test_posts,
                    traced.train_posts + traced.test_posts):
        assert p.nu.tobytes() == q.nu.tobytes()
        assert p.tau.tobytes() == q.tau.tobytes()


@pytest.mark.parametrize("w", [TINY_LIB, TINY_CLI], ids=["library", "cli"])
def test_span_tree_is_well_formed(w, tmp_path):
    _, tracer = one_round(w, True, tmp_path)
    assert check_tree(tracer.spans) == []
    names = {s.name for s in tracer.spans}
    assert {"inference.fit", "inference.sweep", "inference.stick_cache",
            "inference.infer_test", "tasks.segment"} <= names
    values = layers.one_run(tracer.spans)
    assert values["inference.stick_cache.per_bag_iter"] == 2.0
    assert values["inference.infer_test.sweeps_per_bag"] == w.iters


@pytest.mark.parametrize("w", [TINY_LIB, TINY_CLI], ids=["library", "cli"])
def test_host_speed_sampler_leaves_outputs_unchanged(w, tmp_path):
    plain, _ = one_round(w, False, tmp_path)
    (tmp_path / "sampled").mkdir()
    with Sampler(period=0.002) as host:
        sampled, _ = one_round(w, False, tmp_path / "sampled")
    assert len(host.seconds) > 10
    assert sampled.fingerprint == plain.fingerprint


def test_sampler_removes_kernel_time_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with Sampler(period=0.005) as host:
        a = time.perf_counter()
        while time.perf_counter() - a < 0.3:
            pass
        b = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    inside = [d for t, d in zip(host.starts, host.seconds) if a <= t < b]
    assert len(inside) > 5
    assert host.work(a, b) == pytest.approx((b - a) - sum(inside))
    assert host.factor([(a, b)]) == pytest.approx(
        sum(inside) / len(inside) / hostspeed.REFERENCE_KERNEL_S)
    # an interval between two calls takes the calls on either side
    t = host.starts[3] + 1e-9
    assert host.factor([(t, t)]) == pytest.approx(
        (host.seconds[3] + host.seconds[4]) / 2 / hostspeed.REFERENCE_KERNEL_S)


def test_check_tree_reports_child_outside_parent():
    spans = [Span(0, "a", 0.0, 1.0, None, "round-0"),
             Span(1, "b", 0.5, 1.5, 0, "round-0"),
             Span(2, "c", 0.2, 0.3, 9, "round-0")]
    problems = check_tree(spans)
    assert len(problems) == 2
    assert "outside parent" in problems[0] and "unknown parent" in problems[1]


def test_absent_hook_is_reported_not_raised():
    tracer = Tracer()
    hooks = [Hook("wsibp.inference", "no_such_function", "x.gone"),
             Hook("wsibp.inference", "NoSuchClass.method", "y.gone")]
    with install(tracer, hooks) as absent:
        assert absent == ["x.gone", "y.gone"]


def test_hooks_are_removed_after_the_block():
    from wsibp import inference

    before = (inference._sweep_bag, inference.StickBoundCache.__dict__["from_tau"])
    with install(Tracer(), layers.hooks(True)):
        assert inference._sweep_bag is not before[0]
    assert (inference._sweep_bag, inference.StickBoundCache.__dict__["from_tau"]) == before


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("w", [TINY_LIB, TINY_CLI], ids=["library", "cli"])
def test_printed_metrics_match_benchmark_json(w, trace, key, monkeypatch, capsys):
    monkeypatch.setitem(wl.WORKLOADS, w.name, w)
    monkeypatch.setattr(run, "quality_floors", lambda name: {})  # floors fit the real shapes
    assert run.main(["--workload", w.name, "--seed", "2", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared
    for name in declared:
        assert any(line.split()[:1] == [name] for line in lines[:-1])
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
