"""Smoke test of the bench child runner on a 1-minute §V-A arm."""

from pathlib import Path

from repro.experiments.bench import _run_child

ROOT = Path(__file__).resolve().parents[2]


def test_child_runner_replays_deterministically_and_runs_oracles():
    recoverable = {
        "n": 325,
        "configs": {"recoverable": {"fault_profile": "recoverable"}},
        "probes": ["availability", "decision_sha"],
    }
    first = _run_child(ROOT, recoverable)
    second = _run_child(ROOT, recoverable)
    assert first["completed"] == first["requests"] == 325
    assert first["decision_sha"] == second["decision_sha"]

    literal = _run_child(
        ROOT,
        {"n": 325, "configs": {"on": {}}, "probes": ["passes"],
         "oracle": "literal_pass_engine"},
    )
    assert literal["passes_elided"] == 0
    assert literal["passes_executed"] > 0
