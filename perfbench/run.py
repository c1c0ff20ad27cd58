#!/usr/bin/env python3
"""wsibp benchmark: run one workload in a closed loop, check, print metrics.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 25 --trace 0

Run from the repository root; the library is imported from ``src/``. With
``--trace 0`` the last stdout line carries the end-to-end metrics, timed
at the reference host speed (``hostspeed.py``); with ``--trace 1`` rounds
alternate untraced and traced, the last line carries the per-layer metrics
(wall time) and the spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
BLAS_THREADS = 1  # the fit's mat-vecs are small; one thread keeps runs steady
LOCAL_S = 0.1  # host speed for one bag call: kernel calls this close to it
HOLDOUT_SEED = 90173  # never used while tuning; kept for checking later claims

E2E_UNITS = {
    "setup_s": "s", "fit_s": "s", "fit_iter_s_mean": "s",
    "fit_inst_iters_per_s": "1/s", "infer_bags_per_s": "1/s",
    "infer_bag_ms_mean": "ms", "infer_bag_ms_tail": "ms",
    "pipeline_s": "s", "peak_rss_mb": "MB",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_record(seed: int, absent: list[str]) -> dict:
    import hostspeed
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
        "seed": seed, "holdout_seed": HOLDOUT_SEED, "absent_hooks": absent,
        "host_kernel_period_s": hostspeed.PERIOD_S,
        "host_reference_kernel_s": hostspeed.REFERENCE_KERNEL_S,
    }


def _git_sha() -> str | None:
    """HEAD's commit from the .git directory, if the checkout has one."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def quality_floors(workload: str) -> dict[str, float]:
    """Lowest quality each workload may report; see reference.json."""
    with open(BENCH / "reference.json", encoding="ascii") as fh:
        ref = json.load(fh)["quality"][workload]
    return {k: v["reference"] - v["tolerance"] for k, v in ref.items()}


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def end_to_end(w, host, setups, rounds, calls) -> dict[str, float]:
    """Run means of wall time at the reference host speed.

    Each interval loses the kernel calls inside it (``host.work``), and a
    phase's mean over the run is divided by the host's speed factor pooled
    over that phase in every round, so that contention from outside the VM
    cancels (see ``hostspeed``); a mean over a mean keeps the share of slow
    time the same on both sides. ``setup_s`` is the median over set-ups of
    each one's own normalised time. ``calls[i]`` holds round ``i``'s per-bag
    inference spans; the tail is over every call of the run, each divided
    by the speed within ``LOCAL_S`` of it.
    """
    mean = statistics.fmean
    fit = [(r.marks[0], r.marks[1]) for r in rounds]
    infer = [(r.marks[1], r.marks[2]) for r in rounds]
    whole = [(r.marks[0], r.marks[3]) for r in rounds]
    f_fit, f_infer = host.factor(fit), host.factor(infer)
    fit_work = [host.work(a, b) for a, b in fit]
    infer_work = [host.work(a, b) for a, b in infer]
    spans = [s for round_calls in calls for s in round_calls]
    tail = [host.work(s.start, s.end) / host.factor([(s.start - LOCAL_S, s.end + LOCAL_S)])
            for s in spans]
    return {
        "setup_s": statistics.median(host.work(a, b) / host.factor([(a, b)])
                                     for a, b in setups),
        "fit_s": mean(fit_work) / f_fit,
        "fit_iter_s_mean": mean(mean(r.fit_iter_s) * work / r.fit_s
                                for r, work in zip(rounds, fit_work)) / f_fit,
        "fit_inst_iters_per_s": sum(r.inst_iters for r in rounds) / sum(fit_work) * f_fit,
        "infer_bags_per_s": sum(r.n_infer for r in rounds) / sum(infer_work) * f_infer,
        "infer_bag_ms_mean": 1e3 * mean(host.work(s.start, s.end) for s in spans) / f_infer,
        "infer_bag_ms_tail": 1e3 * percentile(tail, w.tail_pct),
        "pipeline_s": mean(host.work(a, b) for a, b in whole) / host.factor(whole),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, floors: dict) -> dict:
    """Set up, run rounds for ``seconds``, check them; returns the result line."""
    import layers
    import workloads as wl
    from hostspeed import Sampler
    from spans import Tracer, check_tree, install

    w = wl.WORKLOADS[workload]
    tracer = Tracer()
    workdir = OUT / f"work-{workload}-{os.getpid()}"
    ops = wl.Ops()
    host = Sampler()
    setups, rounds, traced_ids, untraced_ids = [], [], [], []
    try:
        with contextlib.nullcontext() if trace else host:
            # Set-ups after the first overwrite the same files: creating 460
            # files cost 0.1-0.3 s of kernel time that grew with the file
            # system's recent churn, overwriting them about 0.02 s.
            workdir.mkdir(parents=True, exist_ok=True)
            with install(tracer, layers.hooks(trace)) as absent:
                for i in range(w.setups):
                    tracer.run = f"setup-{i}"
                    t = time.perf_counter()
                    data = wl.make_data(w, seed, str(workdir) if w.cli else None)
                    setups.append((t, time.perf_counter()))

            start = time.perf_counter()
            while len(rounds) < w.min_rounds or time.perf_counter() - start < seconds:
                i = len(rounds)
                traced = trace and i % 2 == 1
                tracer.run = f"round-{i}"
                (traced_ids if traced else untraced_ids).append(i)
                with install(tracer, layers.hooks(traced)):
                    r = (wl.pipeline_round(data, tracer, ops) if w.cli
                         else wl.library_round(data))
                with tracer.paused():
                    wl.check_round(r, data, floors,
                                   rounds[0].fingerprint if rounds else None, ops)
                r.model = r.correlation = None  # drop arrays so peak RSS is one round's
                r.train_posts, r.test_posts = [], []
                rounds.append(r)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = run_record(seed, absent)
    if trace:
        problems = check_tree(tracer.spans)
        ops.check(f"span tree: {problems[:3]}", not problems)
        values = layers.per_layer(tracer.spans, rounds, traced_ids, untraced_ids)
        units = layers.UNITS
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{workload}-seed{seed}.jsonl"
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps({"run_record": record}) + "\n")
            for s in tracer.spans:
                fh.write(json.dumps(s.__dict__) + "\n")
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    else:
        calls = [[s for s in tracer.spans
                  if s.run == f"round-{i}" and s.name == "inference.infer_test"]
                 for i in range(len(rounds))]
        values = end_to_end(w, host, setups, rounds, calls)
        units = E2E_UNITS
        speed = [host.factor([(r.marks[0], r.marks[3])]) for r in rounds]
        print(f"infer_bag_ms_tail is p{w.tail_pct:g} of {sum(map(len, calls))} bag calls")
        print(f"host speed factor per round: {min(speed):.3f} to {max(speed):.3f} over "
              f"{len(host.seconds)} kernel calls; wall-clock medians: fit_s "
              f"{statistics.median(r.fit_s for r in rounds):.4g} s, pipeline_s "
              f"{statistics.median(r.seconds for r in rounds):.4g} s")

    quality = {k: statistics.median(r.quality[k] for r in rounds) for k in rounds[0].quality}
    print("run_record: " + json.dumps(record))
    print(f"rounds: {len(rounds)} ({len(traced_ids)} traced)")
    if not trace:
        for name, value in quality.items():
            print(f"  quality.{name:<40} {value:>14.6g} ratio")
    for name, value in values.items():
        print(f"  {name:<48} {value:>14.6g} {units[name]}")
    for why in ops.failures:
        print(f"FAILED: {why}")
    return {"correct": not ops.failures, "attempted": ops.attempted,
            "failed": len(ops.failures),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (ROOT / "src" / "wsibp" / "__init__.py").is_file():
        print(f"error: no wsibp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 quality_floors(args.workload))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
