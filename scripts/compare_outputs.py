#!/usr/bin/env python3
"""Save one benchmark round's outputs, or compare them with a saved file.

    python3 scripts/compare_outputs.py --workload fit-many-small --seed 1 --save a.npz
    python3 scripts/compare_outputs.py --workload fit-many-small --seed 1 --against a.npz

Runs one round of a ``perfbench`` workload with the library in this
checkout's ``src/`` (the ``pipeline`` workload through the CLI) and takes
the model means and variances, the correlation matrix M, and every train
and test tau, nu and logit. It also takes the task outputs: for ``pipeline``
the parsed ``ann.json`` and ``queries.json``, each ``segs/*.csv`` as typed rows
and the lines ``eval`` prints; for library workloads the round's quality values.
``--save`` writes them to an ``.npz``; ``--against`` prints, for each array, the
relative difference max|a - b| / max|b| against the file and whether its bytes
match, then a ``bit-identical: yes/no`` line over all arrays, then whether
each task output is equal as a value and a ``task outputs: equal/differ``
line. It exits 1 if any relative difference exceeds 1e-9 or a task output
differs. Run it in two checkouts to compare them: it needs only ``src/``
and ``perfbench/``, so a copy of this script saves the outputs of an older
checkout too.
"""

import argparse
import contextlib
import csv
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402
from wsibp import cli  # noqa: E402

LIMIT = 1e-9
TASKS = "task_outputs"  # the .npz entry holding the task outputs as one JSON string


def pipeline_tasks(workdir: str) -> dict:
    """The task files a pipeline round left in ``workdir``, parsed, and the lines
    that each ``eval`` prints for them."""
    d = Path(workdir)
    out = {name: json.loads((d / name).read_text("ascii"))
           for name in ("ann.json", "queries.json")}
    for name in sorted(os.listdir(d / "segs")):
        with open(d / "segs" / name, encoding="ascii") as fh:
            rows = list(csv.DictReader(fh))
        out[f"segs/{name}"] = [[int(r["instance"]), int(r["label_index"]),
                                r["label_name"], float(r["score"])] for r in rows]
    for task, pred, truth in (("annotation", "ann.json", "annot_truth.json"),
                              ("query", "queries.json", "query_truth.json"),
                              ("segmentation", "segs", "seg_truth.json")):
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            rc = cli.main(["eval", "--task", task, "--pred", str(d / pred),
                           "--truth", str(d / truth)])
        out[f"eval {task}"] = printed.getvalue().splitlines() + [f"exit {rc}"]
    return out


def outputs(workload: str, seed: int) -> dict[str, np.ndarray]:
    w = wl.WORKLOADS[workload]
    with tempfile.TemporaryDirectory() as workdir:
        data = wl.make_data(w, seed, workdir if w.cli else None)
        ops = wl.Ops()
        r = wl.pipeline_round(data, Tracer(), ops) if w.cli else wl.library_round(data)
        task_outputs = pipeline_tasks(workdir) if w.cli else r.quality
    if ops.failures:
        sys.exit(f"round failed: {ops.failures}")
    out = {"means": r.model.means, "variances": r.model.variances,
           "correlation": r.correlation}
    for name, posts in (("train", r.train_posts), ("test", r.test_posts)):
        out[f"{name}_tau"] = np.stack([p.tau for p in posts])
        out[f"{name}_nu"] = np.concatenate([p.nu for p in posts])
        out[f"{name}_logits"] = np.concatenate([p.logits for p in posts])
    out[TASKS] = np.array(json.dumps(task_outputs))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--save", metavar="OUT.npz")
    group.add_argument("--against", metavar="OTHER.npz")
    args = ap.parse_args()

    ours = outputs(args.workload, args.seed)
    if args.save:
        np.savez(args.save, **ours)
        return 0
    theirs = np.load(args.against)
    worst, identical = 0.0, True
    for name, a in ours.items():
        if name == TASKS:
            continue
        b = theirs[name]
        if a.shape != b.shape:
            print(f"{name:<12} shape {a.shape} != {b.shape}")
            return 1
        scale = np.abs(b).max()
        rel = np.abs(a - b).max() / scale if scale else float(np.abs(a).max())
        worst = max(worst, rel)
        same = a.dtype == b.dtype and a.tobytes() == b.tobytes()
        identical &= same
        print(f"{name:<12} {rel:.3e}  bytes {'identical' if same else 'differ'}")
    print(f"worst        {worst:.3e} (limit {LIMIT:g})")
    print(f"bit-identical: {'yes' if identical else 'no'}")
    if TASKS not in theirs:
        print(f"task outputs: not in {args.against}")
        return 0 if worst <= LIMIT else 1
    task_a, task_b = json.loads(str(ours[TASKS])), json.loads(str(theirs[TASKS]))
    differ = sorted(k for k in task_a.keys() | task_b.keys() if task_a.get(k) != task_b.get(k))
    print(f"task values: {len(task_a)}, differ: {', '.join(differ) or 'none'}")
    print(f"task outputs: {'differ' if differ else 'equal'}")
    return 0 if worst <= LIMIT and not differ else 1


if __name__ == "__main__":
    sys.exit(main())
