"""Event-driven pass elision: guard soundness, counters, and parity.

The Scheduler's pass loop may only skip scheduling passes that are
provably no-ops, so replaying any workload through it and through the
literal always-pass oracle (``oracles.literal_pass_engine``) must produce
byte-identical :class:`DecisionLog` sequences **and** identical final
Datastore state.  This module asserts exactly that, property-test style,
across seeds × policies × GPU-failure injection, and pins down the
engine's elided/executed pass accounting.
"""

import random

import pytest
from oracles import literal_pass_engine

from repro.cluster import ClusterSpec
from repro.core.policies import make_scheduling_policy
from repro.core.signals import DispatchableWorkGuard, PassGuard
from repro.models import ModelInstance, get_profile, model_names
from repro.runtime import FaaSCluster, SystemConfig

POLICIES = ["lb", "lalb", "lalbo3", "locality"]
SEEDS = [11, 12, 13]
N_FUNCTIONS = 24


def _workload(seed: int, n_requests: int):
    rng = random.Random(seed)
    spec = []
    t = 0.0
    for _ in range(n_requests):
        t += rng.expovariate(2.0) if rng.random() < 0.05 else rng.expovariate(1 / 0.035)
        spec.append((min(int(rng.paretovariate(0.9)) - 1, N_FUNCTIONS - 1), t))
    return spec


def _architecture(fn_idx: int) -> str:
    names = model_names()
    return names[fn_idx % len(names)]


def _run(policy: str, elide: bool, spec, *, fail_gpu_at: float | None = None):
    """Replay ``spec``; return (system, decision log, normalized KV state)."""
    from repro.core.request import InferenceRequest

    system = FaaSCluster(
        SystemConfig(cluster=ClusterSpec.homogeneous(2, 3), policy=policy)
    )
    if not elide:
        literal_pass_engine(system)
    instances = [
        ModelInstance(f"m{i}", get_profile(_architecture(i))) for i in range(N_FUNCTIONS)
    ]
    id_to_index = {}
    for index, (fn, t) in enumerate(spec):
        request = InferenceRequest(f"fn{fn}", instances[fn], arrival_time=t)
        id_to_index[request.request_id] = index
        system.submit_at(request)
    if fail_gpu_at is not None:
        gpu_id = system.cluster.gpus[1].gpu_id
        system.sim.schedule_at(fail_gpu_at, system.fail_gpu, gpu_id)
        system.sim.schedule_at(fail_gpu_at + 5.0, system.recover_gpu, gpu_id)
    system.run()
    assert len(system.completed) == len(spec)
    decisions = [
        (d.time_s, d.kind, id_to_index[d.request_id], d.model_id, d.gpu_id, d.visits)
        for d in system.scheduler.decisions
    ]
    # request ids come from a process-global counter: normalize the
    # fn/latency/<request_id> keys onto submission indices for comparison
    state = {}
    for kv in system.datastore.kv.items():
        key = kv.key
        if key.startswith("fn/latency/"):
            key = f"fn/latency/#{id_to_index[int(key.rsplit('/', 1)[1])]}"
        state[key] = kv.value
    return system, decisions, state


class TestElisionParity:
    """Pass loop vs literal oracle: identical decisions and final KV state."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_randomized_parity_across_policies_and_seeds(self, policy, seed):
        spec = _workload(seed, n_requests=400)
        _, dec_on, state_on = _run(policy, True, spec)
        _, dec_off, state_off = _run(policy, False, spec)
        assert dec_on == dec_off
        assert state_on == state_off

    @pytest.mark.parametrize("policy", ["lalbo3", "lb"])
    def test_parity_survives_gpu_failure_and_recovery(self, policy):
        spec = _workload(99, n_requests=400)
        fail_at = spec[150][1]  # mid-load: exercises resubmit + offline GPUs
        _, dec_on, state_on = _run(policy, True, spec, fail_gpu_at=fail_at)
        _, dec_off, state_off = _run(policy, False, spec, fail_gpu_at=fail_at)
        assert any(kind.value == "resubmit" for _, kind, *_ in dec_on)
        assert dec_on == dec_off
        assert state_on == state_off


class TestPassCounters:
    """Elided/executed accounting: every considered pass lands in exactly
    one bin, counters are monotone, and elision measurably engages."""

    def test_counters_sum_and_monotonicity(self):
        from repro.core.request import InferenceRequest

        spec = _workload(7, n_requests=300)
        system = FaaSCluster(
            SystemConfig(cluster=ClusterSpec.homogeneous(2, 3), policy="lalbo3")
        )
        instances = [
            ModelInstance(f"m{i}", get_profile(_architecture(i)))
            for i in range(N_FUNCTIONS)
        ]
        for fn, t in spec:
            system.submit_at(InferenceRequest(f"fn{fn}", instances[fn], arrival_time=t))

        snapshots = []

        def snap() -> None:
            s = system.scheduler
            snapshots.append((s.actions, s.passes_executed, s.passes_elided))

        system.sim.subscribe_post_event(snap)
        system.run()
        sched = system.scheduler

        # monotone, per-sample
        for prev, cur in zip(snapshots, snapshots[1:]):
            assert all(c >= p for p, c in zip(prev, cur))
        # every action considered at least one pass, and each considered
        # pass was either executed or elided — the elided bin gets at most
        # one entry per action (an elision always ends the action)
        actions, executed, elided = (
            sched.actions, sched.passes_executed, sched.passes_elided,
        )
        assert actions > 0
        assert executed + elided >= actions
        assert elided <= actions
        # the engine must actually engage on a real workload, and every
        # decision came out of an executed pass
        assert elided > 0
        assert executed > 0
        assert len(sched.decisions) <= executed * len(system.cluster.gpus) + executed

    def test_elision_off_never_counts_elided_passes(self):
        from repro.core.request import InferenceRequest

        spec = _workload(8, n_requests=200)
        system = literal_pass_engine(FaaSCluster(
            SystemConfig(cluster=ClusterSpec.homogeneous(2, 3), policy="lalbo3")
        ))
        instances = [
            ModelInstance(f"m{i}", get_profile(_architecture(i)))
            for i in range(N_FUNCTIONS)
        ]
        for fn, t in spec:
            system.submit_at(InferenceRequest(f"fn{fn}", instances[fn], arrival_time=t))
        system.run()
        assert system.scheduler.passes_elided == 0
        assert system.scheduler.passes_executed > 0

    def test_literal_engine_refuses_an_observed_system(self):
        system = FaaSCluster(SystemConfig(tracer="flight"))
        with pytest.raises(ValueError, match="unobserved"):
            literal_pass_engine(system)

    def test_elided_fraction_is_substantial_on_bursty_workload(self):
        from repro.core.request import InferenceRequest

        spec = _workload(9, n_requests=400)
        system = FaaSCluster(
            SystemConfig(cluster=ClusterSpec.homogeneous(2, 3), policy="lalbo3")
        )
        instances = [
            ModelInstance(f"m{i}", get_profile(_architecture(i)))
            for i in range(N_FUNCTIONS)
        ]
        for fn, t in spec:
            system.submit_at(InferenceRequest(f"fn{fn}", instances[fn], arrival_time=t))
        system.run()
        s = system.scheduler
        fraction = s.passes_elided / (s.passes_elided + s.passes_executed)
        assert fraction >= 0.3  # the bench gate's floor must hold here too


class TestGuards:
    """PassGuard semantics against a live system."""

    def test_policies_declare_the_shared_guard(self):
        for name in POLICIES:
            assert isinstance(make_scheduling_policy(name).guard, DispatchableWorkGuard)

    def test_base_guard_is_the_failsafe_default(self):
        from repro.core.policies import SchedulingPolicy

        class Custom(SchedulingPolicy):
            def schedule_pass(self, s):  # pragma: no cover - never runs
                return False

        assert type(Custom().guard) is PassGuard

    def test_guard_refuses_only_provable_noops(self):
        from repro.core.request import InferenceRequest

        system = FaaSCluster(
            SystemConfig(cluster=ClusterSpec.homogeneous(1, 2), policy="lalbo3")
        )
        sched = system.scheduler
        guard = sched.policy.guard
        # idle cluster, empty queues: provably nothing to do
        assert guard.may_act(sched) is False
        inst = ModelInstance("m0", get_profile(_architecture(0)))
        system.submit(InferenceRequest("fn0", inst, arrival_time=0.0))
        # the submit dispatched immediately (idle GPU): back at rest
        assert guard.may_act(sched) is False
        # make every GPU busy, then queue a request: no idle GPU → no pass
        system.sim.run(until=0.0)
        for gpu in system.cluster.gpus:
            if gpu.is_idle:
                gpu.begin_inference()
        r = InferenceRequest("fn1", inst, arrival_time=0.0)
        sched.global_queue.push(r)
        assert guard.may_act(sched) is False
        for gpu in system.cluster.gpus:
            if gpu.state.value == "infer":
                gpu.become_idle()
        assert guard.may_act(sched) is True

    def test_idle_local_work_index_tracks_the_join(self):
        system = FaaSCluster(
            SystemConfig(cluster=ClusterSpec.homogeneous(1, 2), policy="lalbo3")
        )
        sched = system.scheduler
        gpu = system.cluster.gpus[0]
        inst = ModelInstance("m0", get_profile(_architecture(0)))
        from repro.core.request import InferenceRequest

        assert not sched.idle_local_work
        gpu.begin_inference()  # busy GPU with local work → not dispatchable
        sched.local_queues.push(gpu.gpu_id, InferenceRequest("fn0", inst, arrival_time=0.0))
        assert not sched.idle_local_work
        gpu.become_idle()  # now idle with local work → dispatchable
        assert sched.idle_local_work
        sched.local_queues.pop(gpu.gpu_id)
        assert not sched.idle_local_work
