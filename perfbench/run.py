#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-ws15 --seed 1 --seconds 20 --trace 0

``--trace 0`` replays the workload untraced and reports the end-to-end
metrics; ``--trace 1`` adds a replay under the per-layer ledger (see
``perfbench/ledger.py``) between two untraced replays of the same seed
and reports the per-layer metrics.  Every replay's outputs are checked.
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a run
manifest (seed, revision, versions, request counts, and in untraced
runs the unscaled set-up timings), preceded in traced runs by the
ledger's per-span table.

``attempted`` counts requests submitted; ``failed`` counts requests with
no definite outcome (neither completed nor dropped with a recorded
reason), which is 0 whenever the conservation check holds.  Requests the
simulated system drops by deadline or retry budget are an outcome of the
system under test and are reported by ``completed_share``.

Run from a checkout of the repository: the program is imported from
``src/`` next to this directory, and the benchmark exits non-zero
without a result when it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_program() -> None:
    sys.path[:0] = [str(SRC), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the program from {SRC}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def git_revision() -> str | None:
    """HEAD's commit id, or None outside a git checkout.  The search for
    ``.git`` stops at the checkout's root, so an enclosing repository is
    never reported."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    _import_program()
    import numpy

    from repro.experiments.store import source_fingerprint

    from perfbench import load_benchmark
    from perfbench.measure import traced, untraced
    from perfbench.workloads import WORKLOADS, rep_seed, reps_for

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    defn = WORKLOADS[args.workload]
    bench = load_benchmark()
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}

    ledger_table = None
    if args.trace:
        metrics, results, failures, ledger_table = traced(defn, args.seed)
        rep_seeds = [rep_seed(args.seed, 0)] * 3
    else:
        metrics, results, failures, setup_raw = untraced(defn, args.seed, args.seconds)
        rep_seeds = [rep_seed(args.seed, i) for i in range(reps_for(defn, args.seconds))]
    reported = {name: m["unit"] for name, m in metrics.items()}
    if reported != declared:
        failures.append(f"metrics {reported} differ from BENCHMARK.json's {declared}")

    submitted = sum(r.submitted for r in results)
    completed = sum(r.completed for r in results)
    lost = sum(r.lost for r in results)
    manifest = {
        "workload": defn.name,
        "why": why[defn.name],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "replay_seeds": rep_seeds,
        "requests_per_replay": defn.requests_per_replay,
        "submitted": submitted,
        "completed": completed,
        "lost": lost,
        # arrivals are simulator events, injected at their trace timestamps
        "generator_late_s": 0.0,
        "decision_shas": [r.sha for r in results],
        "git_revision": git_revision(),
        "source_fingerprint": source_fingerprint(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "failures": failures,
    }
    if ledger_table is not None:
        print(json.dumps({"ledger": ledger_table}))
    else:
        manifest["setup_unscaled"] = setup_raw
    print(json.dumps({"manifest": manifest}))
    print(json.dumps({
        "correct": not failures,
        "attempted": submitted,
        "failed": submitted - completed - lost,
        "metrics": metrics,
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
