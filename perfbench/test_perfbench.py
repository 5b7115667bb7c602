"""Tests of the benchmark itself: ledger arithmetic, replay determinism,
metric naming and seed plumbing.  Replays here are a few simulated
minutes long, so the module runs in seconds."""

from __future__ import annotations

import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.core.scheduler import Scheduler  # noqa: E402
from repro.runtime import FaaSCluster, SystemConfig  # noqa: E402
from repro.traces.workload import Workload  # noqa: E402

from perfbench import load_benchmark, measure  # noqa: E402
from perfbench.ledger import Ledger  # noqa: E402
from perfbench.replay import DecisionDigest, run_rep  # noqa: E402
from perfbench.workloads import WORKLOADS, build  # noqa: E402

SHORT_MINUTES = 4
BENCH = load_benchmark()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def declared(section: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    return {m["name"]: m["unit"] for m in BENCH[section]}


def short(name: str):
    return replace(WORKLOADS[name], minutes=SHORT_MINUTES)


# ----------------------------------------------------------------------
# ledger arithmetic
# ----------------------------------------------------------------------
def test_self_time_on_a_synthetic_call_tree():
    now = [0]
    ledger = Ledger(clock=lambda: now[0])

    def leaf():
        now[0] += 5

    def mid():
        now[0] += 2
        leaf_span()
        now[0] += 3
        leaf_span()

    def root():
        now[0] += 1
        mid_span()
        now[0] += 4

    leaf_span = ledger.timed("a", "leaf", leaf)
    mid_span = ledger.timed("b", "mid", mid)
    root_span = ledger.timed("b", "root", root)
    root_span()

    stats = ledger.stats
    assert (stats["leaf"].calls, stats["leaf"].total_ns, stats["leaf"].self_ns) == (2, 10, 10)
    assert (stats["mid"].total_ns, stats["mid"].self_ns) == (15, 5)
    assert (stats["root"].total_ns, stats["root"].self_ns) == (20, 5)
    # self times partition the root span's wall time
    assert ledger.layer_self_ns() == {"a": 10, "b": 10}
    assert sum(ledger.layer_self_ns().values()) == stats["root"].total_ns


def test_span_closes_when_the_wrapped_call_raises():
    now = [0]
    ledger = Ledger(clock=lambda: now[0])

    def boom():
        now[0] += 7
        raise KeyError("x")

    inner = ledger.timed("a", "boom", boom)

    def outer():
        with pytest.raises(KeyError):
            inner()
        now[0] += 1

    ledger.timed("b", "outer", outer)()
    assert ledger.stats["boom"].self_ns == 7
    assert ledger.stats["outer"].self_ns == 1
    assert ledger._stack == []


def test_generator_spans_time_each_next():
    now = [0]
    ledger = Ledger(clock=lambda: now[0])

    def produce():
        for i in range(3):
            now[0] += 2
            yield i

    spans = ledger.timed_generator("t", "produce", produce)
    assert list(spans()) == [0, 1, 2]
    # three items plus the StopIteration probe
    assert ledger.stats["produce"].calls == 4
    assert ledger.stats["produce"].self_ns == 6


def test_install_patches_classes_and_uninstall_restores_them():
    submit = Scheduler.__dict__["submit"]
    requests = Workload.__dict__["requests"]
    ledger = Ledger()
    with ledger.installed():
        assert Scheduler.__dict__["submit"] is not submit
        assert Workload.__dict__["requests"] is not requests
    assert Scheduler.__dict__["submit"] is submit
    assert Workload.__dict__["requests"] is requests


# ----------------------------------------------------------------------
# replay determinism
# ----------------------------------------------------------------------
def unstepped_sha(defn, seed: int) -> str:
    setup = build(defn, seed)
    system = setup.system
    if defn.streaming:
        system.submit_workload_streaming(setup.workload)
    else:
        system.submit_workload(setup.workload)
    system.run()
    digest = DecisionDigest()
    digest.update(system.scheduler.decisions)
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_stepped_and_unstepped_replays_decide_identically(name):
    defn = short(name)
    stepped = run_rep(build(defn, 3))
    assert stepped.failures == []
    assert stepped.sha == unstepped_sha(defn, 3)


def test_a_loss_without_deadline_or_faults_fails_the_replay():
    setup = build(short("paper-ws15"), 3)
    # the workload declares no faults, but this system drops late requests
    setup.system = FaaSCluster(SystemConfig(deadline_s=0.5))
    rep = run_rep(setup)
    assert rep.lost > 0
    assert any("lost without deadline or faults" in f for f in rep.failures)


def test_traced_run_is_correct_and_reports_every_layer_metric():
    metrics, results, failures, table = measure.traced(short("ws35-overload-faults"), 2)
    assert failures == []
    assert len({r.sha for r in results}) == 1
    assert {n: m["unit"] for n, m in metrics.items()} == declared("per_layer")
    assert metrics["chaos.faults"]["value"] > 0
    assert metrics["datastore.lease_us_per_req"]["value"] > 0
    assert 0.9 < metrics["ledger.coverage"]["value"] <= 1.0
    assert "sim self time includes" in table["note"]


def test_untraced_run_reports_every_end_to_end_metric():
    metrics, results, failures, setup_raw = measure.untraced(short("paper-ws15"), 2, 1)
    assert failures == []
    assert setup_raw["samples"] >= measure.SETUP_SAMPLES
    assert {n: m["unit"] for n, m in metrics.items()} == declared("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())


# ----------------------------------------------------------------------
# names and seeds
# ----------------------------------------------------------------------
def test_metric_and_workload_names_are_well_formed():
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in BENCH["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in metrics:
        assert UNIT.fullmatch(m["unit"]), m["unit"]
        assert m["better"] in ("higher", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])


def test_benchmark_json_names_the_defined_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


def arrivals(defn, seed: int) -> np.ndarray:
    workload = build(defn, seed).workload
    if defn.streaming:
        return np.concatenate([c.arrival_times for c in workload.chunks()])
    return workload.arrival_times


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_the_arrival_columns(name):
    defn = short(name)
    assert np.array_equal(arrivals(defn, 5), arrivals(defn, 5))
    assert not np.array_equal(arrivals(defn, 5), arrivals(defn, 6))
