"""The repository benchmark: three §V-A workloads replayed through the
public API, end-to-end metrics from untraced runs and a per-layer cost
ledger from a traced run.  Entry point: ``python3 perfbench/run.py``.

``BENCHMARK.json`` at the repository root is the one place that names
the workloads' rationales and the metrics with their units, directions
and bounds; the benchmark reads it, and ``perfbench/calibrate.py``
rewrites only its bounds."""

import json
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_benchmark() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())
