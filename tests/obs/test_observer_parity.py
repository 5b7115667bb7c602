"""Observers change no pass accounting.

The flight recorder and explain mode hook into the Scheduler's one pass
loop behind an ``is not None`` test each.  On a replay under the
``recoverable`` fault plan (crashes, resubmits, stragglers) every
observer combination must run exactly the same passes — same actions,
executed and elided counts — and record the same decisions as the
unobserved run.
"""

import hashlib

import pytest

from repro.core import DecisionKind
from repro.runtime import FaaSCluster, SystemConfig
from repro.traces.azure import SyntheticAzureTrace
from repro.traces.workload import WorkloadSpec, build_workload


def _replay(**observers):
    # 6 minutes spans the fault plan's default 360 s horizon
    workload = build_workload(
        WorkloadSpec(working_set=15, minutes=6, seed=0),
        trace=SyntheticAzureTrace(),
    )
    system = FaaSCluster(SystemConfig(fault_profile="recoverable", **observers))
    system.submit_workload(workload)
    system.run()
    return system


def _accounting(system):
    sched = system.scheduler
    decisions = sched.decisions
    # request ids come from a process-global counter: rank them
    ids = sorted({d.request_id for d in decisions})
    rank = {rid: i for i, rid in enumerate(ids)}
    sha = hashlib.sha256(repr([
        (d.time_s, d.kind.value, rank[d.request_id], d.model_id, d.gpu_id, d.visits)
        for d in decisions
    ]).encode()).hexdigest()
    return (sched.actions, sched.passes_executed, sched.passes_elided), sha


@pytest.fixture(scope="module")
def plain():
    system = _replay()
    assert system.scheduler.decisions.count(DecisionKind.RESUBMIT) > 0
    return _accounting(system)


@pytest.mark.parametrize(
    "observers",
    [
        {"tracer": "flight"},
        {"trace_decisions": True},
        {"tracer": "flight", "trace_decisions": True},
    ],
    ids=["tracer", "explain", "tracer+explain"],
)
def test_observers_leave_pass_accounting_and_decisions_unchanged(plain, observers):
    assert _accounting(_replay(**observers)) == plain
