"""``check_bench``: every gate fires just past its threshold and only there.

Each case nudges one gated value of the committed ``BENCH_scheduler.json``
just past its threshold (exactly one problem) and just inside it (no
problem).  Thresholds are written out here rather than imported, so a
changed gate constant fails this file too.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.experiments.bench import check_bench

COMMITTED = Path(__file__).resolve().parents[2] / "BENCH_scheduler.json"
REPORT = json.loads(COMMITTED.read_text())
EPS = 1e-6


def _get(report, path):
    node = report
    for part in path.split("."):
        node = node[part]
    return node


def _set(report, path, value):
    *parents, leaf = path.split(".")
    _get(report, ".".join(parents))[leaf] = value


def _check(report, tmp_path):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(report))
    return check_bench(str(path))


def _scaled(ref_path, factor, *, fails_above):
    """Set a path to ``factor`` × the value at ``ref_path``, nudged."""

    def nudge(report, past):
        up = past == fails_above
        return _get(report, ref_path) * factor * (1 + EPS if up else 1 - EPS)

    return nudge


def _per_spin(floor):
    """A throughput floor in requests per calibration spin."""

    def nudge(report, past):
        spin = _get(report, "calibration.spin_s")
        return floor / spin * (1 - EPS if past else 1 + EPS)

    return nudge


def _fixed(past_value, inside_value):
    return lambda report, past: past_value if past else inside_value


def _run_2k(report, past):
    spin = _get(report, "calibration.spin_s")
    budget = round(0.65 * spin, 4)
    if past:
        return max(budget, 0.65 * spin) * (1 + EPS)
    return min(budget, 0.65 * spin) * (1 - EPS)


def _history_on(report, past):
    off = _get(report, "commit_path.sizes.2000.history_entries_off")
    return off if past else off - 1


def _completed(report, past):
    requests = _get(report, "fault_replay.recoverable.requests")
    return requests - 1 if past else requests


E2E = "end_to_end.sizes"
SWEEP_SPEEDUP = "sweep_scaling.speedup_4w"

#: gate id -> (gated path, value past/inside the threshold)
GATES = {
    "depth_ratio": (
        "pass_cost_by_depth_s.20000",
        _scaled("pass_cost_by_depth_s.2000", 3.0, fails_above=True),
    ),
    "revisions_high": (
        "write_amplification.batched.revisions_per_scheduling_action",
        _fixed(1.3 + EPS, 1.3),
    ),
    "revisions_low": (
        "write_amplification.batched.revisions_per_scheduling_action",
        _fixed(0.8 - EPS, 0.8),
    ),
    "elided_fraction": (
        "pass_elision.sizes.2000.elided_fraction", _fixed(0.30 - EPS, 0.30)
    ),
    "elision_100k": (
        "pass_elision.sizes.100000.per_action_us_elision_on",
        _scaled(
            "pass_elision.sizes.100000.per_action_us_elision_off", 1.10,
            fails_above=True,
        ),
    ),
    "commit_on_vs_off": (
        "commit_path.sizes.2000.commit_on_vs_off", _fixed(0.80 + EPS, 0.80)
    ),
    "history_shrinks": ("commit_path.sizes.2000.history_entries_on", _history_on),
    "run_2k_budget": (f"{E2E}.2000.run_s", _run_2k),
    "e2e_floor_2k": (f"{E2E}.2000.requests_per_sec", _per_spin(2400.0)),
    "e2e_floor_20k": (f"{E2E}.20000.requests_per_sec", _per_spin(2400.0)),
    "e2e_floor_100k": (f"{E2E}.100000.requests_per_sec", _per_spin(2300.0)),
    "streaming_rss": (
        "streaming_replay.sizes.1000000.peak_rss_mb",
        _scaled("streaming_replay.sizes.100000.peak_rss_mb", 1.5, fails_above=True),
    ),
    "streaming_vs_batch": (
        "streaming_replay.sizes.100000.requests_per_sec",
        _scaled(f"{E2E}.100000.requests_per_sec", 0.55, fails_above=False),
    ),
    "fault_lost": ("fault_replay.recoverable.lost", _fixed(1, 0)),
    "fault_completed": ("fault_replay.recoverable.completed", _completed),
    "fault_injected": ("fault_replay.recoverable.faults_injected", _fixed(0, 1)),
    "fault_retries": (
        "fault_replay.recoverable.max_retries_per_request", _fixed(9, 8)
    ),
    "fault_deterministic": (
        "fault_replay.replay_deterministic", _fixed(False, True)
    ),
    "fault_none_floor": (
        "fault_replay.none.requests_per_sec", _per_spin(2400.0)
    ),
    "tracer_on_vs_off": (
        "observability.tracer_on_vs_off", _fixed(1.05 + EPS, 1.05)
    ),
    "trace_valid": ("observability.trace_valid", _fixed(False, True)),
    "decisions_identical": (
        "observability.decisions_identical", _fixed(False, True)
    ),
    "obs_off_floor": (
        "observability.requests_per_sec_off", _per_spin(2400.0)
    ),
    "sweep_identical": (
        "sweep_scaling.merged_payload_identical", _fixed(False, True)
    ),
    "sweep_resume_cached": ("sweep_scaling.resume.executed", _fixed(1, 0)),
    "sweep_resume_wall": (
        "sweep_scaling.resume.wall_s", _fixed(1.0, 1.0 - EPS)
    ),
    "sweep_speedup": (SWEEP_SPEEDUP, _fixed(1.5 - EPS, 1.5)),
}


def _nudged(gate, past):
    report = copy.deepcopy(REPORT)
    if gate == "sweep_speedup":
        report["sweep_scaling"]["cpu_count"] = 2
    path, value = GATES[gate]
    _set(report, path, value(report, past))
    return report


def test_committed_report_passes():
    assert check_bench(str(COMMITTED)) == []


@pytest.mark.parametrize("gate", sorted(GATES))
def test_gate_fires_just_past_threshold(gate, tmp_path):
    problems = _check(_nudged(gate, past=True), tmp_path)
    assert len(problems) == 1, problems


@pytest.mark.parametrize("gate", sorted(GATES))
def test_gate_holds_just_inside_threshold(gate, tmp_path):
    assert _check(_nudged(gate, past=False), tmp_path) == []


SECTIONS = (
    "pass_cost_by_depth_s", "calibration", "write_amplification",
    "commit_path", "end_to_end", "streaming_replay", "fault_replay",
    "pass_elision", "observability", "sweep_scaling",
)


@pytest.mark.parametrize("section", SECTIONS)
def test_dropped_section_is_reported_missing(section, tmp_path):
    report = copy.deepcopy(REPORT)
    del report[section]
    problems = _check(report, tmp_path)
    assert any(section in p and "missing" in p for p in problems), problems


@pytest.mark.parametrize(
    "path",
    [
        "commit_path.sizes.2000.commit_on_vs_off",
        f"{E2E}.2000.run_s",
        "pass_elision.sizes.100000.per_action_us_elision_on",
        "streaming_replay.sizes.1000000.peak_rss_mb",
        "fault_replay.none.requests_per_sec",
        "observability.tracer_on_vs_off",
        "observability.requests_per_sec_off",
    ],
)
def test_dropped_key_is_reported_missing(path, tmp_path):
    report = copy.deepcopy(REPORT)
    *parents, leaf = path.split(".")
    del _get(report, ".".join(parents))[leaf]
    problems = _check(report, tmp_path)
    assert len(problems) == 1 and "missing" in problems[0], problems


@pytest.mark.parametrize("cores", [1, None])
def test_sweep_speedup_gate_skipped_below_two_cores(cores, tmp_path):
    report = copy.deepcopy(REPORT)
    report["sweep_scaling"]["cpu_count"] = cores
    _set(report, SWEEP_SPEEDUP, 0.0)
    assert _check(report, tmp_path) == []
