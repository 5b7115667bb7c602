#!/usr/bin/env python3
"""A/A calibration: derive each end-to-end bound from measured spread.

    python3 perfbench/calibrate.py --seeds 10 --sets 2 --write

Runs ``perfbench/run.py`` untraced on every workload for ``--seeds``
consecutive seeds, ``--sets`` times over with fresh seeds each set, one
fresh process per run, seeds interleaved across workloads.  For each
end-to-end metric and workload it reports the spread of each set (the
distance between the first and third quartile as a share of the
median) and how much worse the later sets' medians read than the
first's.  A metric's bound is ``SPREAD_FACTOR`` times its widest spread
on any workload, clamped to [``MIN_BOUND``, ``MAX_BOUND``]; ``setup_s``
gets the largest of all the bounds, so that set-up time is never gated
more tightly than the replay itself.  ``--write`` stores the bounds next
to the spreads they came from in ``perfbench/bounds.json`` and rewrites
the bounds in ``BENCHMARK.json``, which names the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import BENCHMARK_JSON, load_benchmark  # noqa: E402
from perfbench.workloads import NOMINAL_SECONDS, WORKLOADS  # noqa: E402

SPREAD_FACTOR = 3.0
MIN_BOUND = 0.05
MAX_BOUND = 0.25
RUN_TIMEOUT_S = 300


def run_one(workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(NOMINAL_SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{' '.join(cmd)} reported an incorrect run: {lines[-2]}")
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, later: float, better: str) -> float:
    """How much worse ``later`` reads than ``first``, as a share of ``first``."""
    return (first - later) / first if better == "higher" else (later - first) / first


def derive(end_to_end: list[dict], values: dict, sets: int) -> dict:
    """Per-metric bound plus the per-workload spreads it was derived from."""
    out = {}
    for m in end_to_end:
        name, better = m["name"], m["better"]
        per_workload = {}
        widest = 0.0
        for workload, by_set in values.items():
            runs = [by_set[k][name] for k in range(sets)]
            spreads = [spread(r) for r in runs]
            medians = [statistics.median(r) for r in runs]
            per_workload[workload] = {
                "spreads": [round(s, 5) for s in spreads],
                "medians": medians,
                "later_medians_worse_by": [
                    round(worse_by(medians[0], m, better), 5) for m in medians[1:]
                ],
                "values": runs,
            }
            widest = max(widest, *spreads)
        out[name] = {
            "unit": m["unit"],
            "better": better,
            "bound": round(min(MAX_BOUND, max(MIN_BOUND, SPREAD_FACTOR * widest)), 3),
            "widest_spread": round(widest, 5),
            "rule": f"{SPREAD_FACTOR:g} x widest spread, clamped to [{MIN_BOUND}, {MAX_BOUND}]",
            "workloads": per_workload,
        }
    largest = max(entry["bound"] for entry in out.values())
    if out["setup_s"]["bound"] < largest:
        out["setup_s"]["bound"] = largest
        out["setup_s"]["rule"] = "largest of all the bounds"
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    if args.sets < 2:
        parser.error("--sets must be at least 2")

    bench = load_benchmark()
    end_to_end = bench["end_to_end"]
    started = time.time()
    values = {w: [{m["name"]: [] for m in end_to_end} for _ in range(args.sets)]
              for w in WORKLOADS}
    for k in range(args.sets):
        for i in range(args.seeds):
            seed = 1 + k * args.seeds + i
            for workload in WORKLOADS:
                metrics = run_one(workload, seed)["metrics"]
                for name, by_name in values[workload][k].items():
                    by_name.append(metrics[name]["value"])
                print(f"set {k} seed {seed} {workload}: "
                      f"{metrics['replay_req_per_s']['value']:.0f} req/s", flush=True)

    bounds = derive(end_to_end, values, args.sets)
    print(f"\n{'metric':22s} {'bound':>6s}  " + "  ".join(f"{w[:20]:>20s}" for w in WORKLOADS))
    for name, entry in bounds.items():
        cells = []
        for w in WORKLOADS:
            cell = entry["workloads"][w]
            worst = max(cell["later_medians_worse_by"])
            cells.append(f"{max(cell['spreads']):7.4f} / {worst:+7.4f}")
        print(f"{name:22s} {entry['bound']:6.3f}  " + "  ".join(f"{c:>20s}" for c in cells))
    print("(cells: widest spread / later median worse by)")

    if args.write:
        record = {
            "about": "End-to-end bounds and the A/A spreads they were derived from. "
                     "Regenerate with: python3 perfbench/calibrate.py --write",
            "seeds_per_set": args.seeds,
            "sets": args.sets,
            "first_seed": 1,
            "run_seconds": NOMINAL_SECONDS,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "elapsed_s": round(time.time() - started, 1),
            "metrics": bounds,
        }
        (HERE / "bounds.json").write_text(json.dumps(record, indent=1) + "\n")
        for m in end_to_end:
            m["bound"] = bounds[m["name"]]["bound"]
        BENCHMARK_JSON.write_text(json.dumps(bench, indent=2) + "\n")
        print("wrote perfbench/bounds.json and the bounds in BENCHMARK.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
