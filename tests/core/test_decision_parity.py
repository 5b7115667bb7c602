"""Decision parity: the index-driven fast path vs. the reference scans.

The scheduling fast path (``SchedulingPolicy.use_fast_path``) replaces the
O(GPUs × queue) Algorithm-1/2 loops with index lookups, a lazy O3-visit
tree, and an ordered starved set.  Nothing about the *decisions* may
change: this module replays a seeded multi-thousand-request workload under
every policy twice — once with the literal reference scans, once with the
fast path — and asserts the resulting :class:`DecisionLog` sequences are
identical, field for field (timestamps, decision kinds, targets, and the
O3 ``visits`` counters recorded with each decision).

Request IDs come from a process-global counter, so logs are compared after
mapping each run's IDs onto the submission index.
"""

import json
import random
import re

import pytest
from oracles import literal_pass_engine

from repro.cluster import ClusterSpec
from repro.models import ModelInstance, get_profile, model_names
from repro.runtime import FaaSCluster, SystemConfig

SEED = 20230517  # arbitrary but frozen: parity must hold for any seed
N_REQUESTS = 2000
N_FUNCTIONS = 30

POLICIES = ["lb", "lalb", "lalbo3", "locality"]


def _workload(seed: int, n_requests: int = N_REQUESTS):
    """Seeded arrival trace: (function index, arrival time) tuples.

    Popularity is heavily skewed (a few hot functions dominate, §V-A.1's
    Zipf-like reality) and arrivals are bursty, so queues build up deep
    enough to exercise O3 skips, the starvation guard, and Algorithm 2's
    every branch.
    """
    rng = random.Random(seed)
    spec = []
    t = 0.0
    for _ in range(n_requests):
        # bursts: occasionally a batch of arrivals lands at nearly one instant
        if rng.random() < 0.05:
            t += rng.expovariate(2.0)
        else:
            t += rng.expovariate(1 / 0.035)
        fn = min(int(rng.paretovariate(0.9)) - 1, N_FUNCTIONS - 1)
        spec.append((fn, t))
    return spec


def _architecture(fn_idx: int) -> str:
    names = model_names()
    return names[fn_idx % len(names)]


def _run(
    policy: str,
    fast: bool,
    spec,
    *,
    fail_gpu_at: float | None = None,
    elide: bool = True,
):
    """Run the workload; return the decision log keyed by submission index."""
    from repro.core.request import InferenceRequest

    system = FaaSCluster(SystemConfig(cluster=ClusterSpec.homogeneous(2, 4), policy=policy))
    if not elide:
        literal_pass_engine(system)
    system.scheduler.policy.use_fast_path = fast
    instances = [
        ModelInstance(f"m{i}", get_profile(_architecture(i))) for i in range(N_FUNCTIONS)
    ]
    id_to_index = {}
    for index, (fn, t) in enumerate(spec):
        request = InferenceRequest(f"fn{fn}", instances[fn], arrival_time=t)
        id_to_index[request.request_id] = index
        system.submit_at(request)
    if fail_gpu_at is not None:
        gpu_id = system.cluster.gpus[2].gpu_id
        system.sim.schedule_at(fail_gpu_at, system.fail_gpu, gpu_id)
        system.sim.schedule_at(fail_gpu_at + 5.0, system.recover_gpu, gpu_id)
    system.run()
    assert len(system.completed) == len(spec)
    return [
        (d.time_s, d.kind, id_to_index[d.request_id], d.model_id, d.gpu_id, d.visits)
        for d in system.scheduler.decisions
    ]


@pytest.mark.parametrize("policy", POLICIES)
def test_fast_path_matches_reference_decisions(policy):
    spec = _workload(SEED)
    reference = _run(policy, fast=False, spec=spec)
    fast = _run(policy, fast=True, spec=spec)
    assert len(reference) >= N_REQUESTS  # sanity: every request decided at least once
    assert fast == reference


def test_fast_path_matches_reference_after_failure():
    """Parity must survive a mid-run GPU failure: the resubmit path
    exercises ``push_sorted`` (positional re-insertion) and preserved
    O3 visits on re-queued requests."""
    spec = _workload(SEED + 1, n_requests=600)
    fail_at = spec[250][1]  # while the system is under load
    reference = _run("lalbo3", fast=False, spec=spec, fail_gpu_at=fail_at)
    fast = _run("lalbo3", fast=True, spec=spec, fail_gpu_at=fail_at)
    assert fast == reference
    assert any(kind.value == "resubmit" for _, kind, *_ in fast)


@pytest.mark.parametrize("policy", POLICIES)
def test_elision_and_fast_path_matrix_identical(policy):
    """All four engine configurations — (fast, elision) × (on, off) — must
    produce the same decision sequence; the literal scans with the literal
    always-pass engine are the reference corner."""
    spec = _workload(SEED + 6, n_requests=800)
    reference = _run(policy, fast=False, spec=spec, elide=False)
    for fast, elide in ((True, True), (True, False), (False, True)):
        assert _run(policy, fast=fast, spec=spec, elide=elide) == reference


def test_elision_matches_reference_after_failure():
    """The elision engine must stay byte-identical through a mid-run GPU
    failure: resubmits re-enter via push_sorted and the guard must keep
    admitting passes while resubmitted work is dispatchable."""
    spec = _workload(SEED + 7, n_requests=600)
    fail_at = spec[250][1]
    reference = _run("lalbo3", fast=False, spec=spec, fail_gpu_at=fail_at, elide=False)
    elided = _run("lalbo3", fast=True, spec=spec, fail_gpu_at=fail_at, elide=True)
    assert elided == reference
    assert any(kind.value == "resubmit" for _, kind, *_ in elided)


def test_fast_path_is_the_default():
    from repro.core.policies import make_scheduling_policy

    for policy in POLICIES:
        assert make_scheduling_policy(policy).use_fast_path is True


def _run_tenant(
    policy: str,
    fast: bool,
    spec,
    quotas,
    *,
    n_functions: int = N_FUNCTIONS,
    elide: bool = True,
):
    """Run the workload with a TenancyController installed.

    Every third function belongs to tenant ``"capped"`` (the quota'd one);
    the rest stay on ``"default"``.  Returns (decision log keyed by
    submission index, completed count, the policy object) so callers can
    assert both parity and which scan route ran.
    """
    from repro.core.request import InferenceRequest

    system = FaaSCluster(
        SystemConfig(
            cluster=ClusterSpec.homogeneous(2, 4),
            policy=policy,
            quotas=quotas,
        )
    )
    if not elide:
        literal_pass_engine(system)
    system.scheduler.policy.use_fast_path = fast
    instances = [
        ModelInstance(
            f"m{i}",
            get_profile(_architecture(i)),
            tenant="capped" if i % 3 == 0 else "default",
        )
        for i in range(n_functions)
    ]
    for inst in instances:
        system.register_model(inst)
    id_to_index = {}
    for index, (fn, t) in enumerate(spec):
        request = InferenceRequest(
            f"fn{fn}", instances[fn], arrival_time=t, tenant=instances[fn].tenant
        )
        id_to_index[request.request_id] = index
        system.submit_at(request)
    system.run()
    log = [
        (d.time_s, d.kind, id_to_index[d.request_id], d.model_id, d.gpu_id, d.visits)
        for d in system.scheduler.decisions
    ]
    return log, len(system.completed), system.scheduler.policy


class TestTenancyFastPath:
    """With a TenancyController installed the policies must keep the
    O(models-on-GPU) bound whenever no quota is binding — and still match
    the reference scans decision for decision either way."""

    def test_non_binding_quota_uses_fast_path_with_identical_decisions(self):
        from repro.core.tenancy import TenantQuota

        spec = _workload(SEED + 3, n_requests=1200)
        quotas = {"capped": TenantQuota(max_processes=100)}
        ref_log, ref_done, ref_policy = _run_tenant("lalbo3", False, spec, quotas)
        fast_log, fast_done, fast_policy = _run_tenant("lalbo3", True, spec, quotas)
        assert fast_log == ref_log
        assert fast_done == ref_done == len(spec)
        # the loose quota never binds: every scan must take the fast route
        assert fast_policy.fast_scans > 0
        assert fast_policy.reference_scans == 0

    def test_binding_quota_falls_back_and_stays_identical(self):
        from repro.core.tenancy import TenantQuota

        spec = _workload(SEED + 4, n_requests=1200)
        quotas = {"capped": TenantQuota(max_processes=2)}
        ref_log, ref_done, _ = _run_tenant("lalbo3", False, spec, quotas)
        fast_log, fast_done, fast_policy = _run_tenant("lalbo3", True, spec, quotas)
        assert fast_log == ref_log
        assert fast_done == ref_done
        # a binding quota must send scans to the reference loops (whose
        # per-request probes implement the refusals)
        assert fast_policy.reference_scans > 0

    def test_lb_policy_parity_under_quota(self):
        from repro.core.tenancy import TenantQuota

        spec = _workload(SEED + 5, n_requests=800)
        for quota in (TenantQuota(max_processes=3), TenantQuota(max_processes=64)):
            quotas = {"capped": quota}
            ref_log, ref_done, _ = _run_tenant("lb", False, spec, quotas)
            fast_log, fast_done, _ = _run_tenant("lb", True, spec, quotas)
            assert fast_log == ref_log
            assert fast_done == ref_done


def test_quota_scenarios_identical_with_elision_on_and_off():
    """§VI isolation: with a binding tenant quota (admission probes can
    refuse) the elided engine must still match the literal one exactly —
    the guard never skips a pass that tenancy state could turn into a
    decision."""
    from repro.core.tenancy import TenantQuota

    spec = _workload(SEED + 8, n_requests=800)
    for quota in (TenantQuota(max_processes=2), TenantQuota(max_processes=100)):
        quotas = {"capped": quota}
        on_log, on_done, _ = _run_tenant("lalbo3", True, spec, quotas, elide=True)
        off_log, off_done, _ = _run_tenant("lalbo3", True, spec, quotas, elide=False)
        assert on_log == off_log
        # a binding quota may legitimately strand requests (they stay
        # queued until the tenant's usage drops); both engines must
        # strand exactly the same ones
        assert on_done == off_done


# ----------------------------------------------------------------------
# Chaos parity: seeded fault schedules (repro.chaos, docs/robustness.md)
# ----------------------------------------------------------------------
def _chaos_plan():
    """Hand-built crash/recover + straggler schedule, dense enough to land
    mid-burst on the seeded workload (which spans ~30 simulated seconds)."""
    from repro.chaos import FaultPlan
    from repro.chaos.plan import GPUCrash, Straggler

    return FaultPlan(
        name="parity-crash-straggle",
        faults=(
            GPUCrash(at_s=4.0, gpu_index=2, recover_after_s=6.0),
            Straggler(at_s=9.0, gpu_index=5, factor=3.0, duration_s=8.0),
            GPUCrash(at_s=15.0, gpu_index=0, recover_after_s=5.0),
        ),
        seed=SEED,
    )


def _run_chaos(policy: str, fast: bool, elide: bool, spec):
    """Run the workload under the chaos schedule; return the decision log
    (keyed by submission index) and the normalized final KV state."""
    from repro.core.request import InferenceRequest

    system = FaaSCluster(
        SystemConfig(
            cluster=ClusterSpec.homogeneous(2, 4),
            policy=policy,
            fault_plan=_chaos_plan(),
        )
    )
    if not elide:
        literal_pass_engine(system)
    system.scheduler.policy.use_fast_path = fast
    instances = [
        ModelInstance(f"m{i}", get_profile(_architecture(i))) for i in range(N_FUNCTIONS)
    ]
    id_to_index = {}
    for index, (fn, t) in enumerate(spec):
        request = InferenceRequest(f"fn{fn}", instances[fn], arrival_time=t)
        id_to_index[request.request_id] = index
        system.submit_at(request)
    system.run()
    assert len(system.completed) == len(spec)  # recoverable plan loses nothing
    log = [
        (d.time_s, d.kind, id_to_index[d.request_id], d.model_id, d.gpu_id, d.visits)
        for d in system.scheduler.decisions
    ]
    # request IDs are process-global, so per-request keys are re-keyed by
    # submission index before byte comparison
    state = {}
    for key, value in system.datastore.client().range("").items():
        m = re.fullmatch(r"fn/latency/(\d+)", key)
        if m:
            key = f"fn/latency/idx{id_to_index[int(m.group(1))]}"
        state[key] = value
    return log, json.dumps(state, sort_keys=True, default=repr)


@pytest.mark.parametrize("policy", POLICIES)
def test_chaos_schedule_parity_across_engines(policy):
    """Under a seeded crash/recover + straggler schedule, every engine
    configuration — fast path × pass elision — must produce byte-identical
    decision logs *and* final datastore state.  Fault handling may not
    depend on which scan or guard implementation ran."""
    spec = _workload(SEED + 9, n_requests=800)
    ref_log, ref_kv = _run_chaos(policy, fast=False, elide=False, spec=spec)
    assert any(kind.value == "resubmit" for _, kind, *_ in ref_log)
    for fast, elide in ((True, True), (True, False), (False, True)):
        log, kv = _run_chaos(policy, fast=fast, elide=elide, spec=spec)
        assert log == ref_log, f"decision drift with fast={fast}, elide={elide}"
        assert kv == ref_kv, f"KV drift with fast={fast}, elide={elide}"


def test_chaos_replay_is_deterministic():
    """Two runs of the same plan + seed + workload are byte-identical:
    the replay property every chaos debugging session depends on."""
    spec = _workload(SEED + 10, n_requests=600)
    first = _run_chaos("lalbo3", fast=True, elide=True, spec=spec)
    second = _run_chaos("lalbo3", fast=True, elide=True, spec=spec)
    assert first == second


def test_o3_visits_identical_under_both_scans():
    """Spot-check the lazy visit accounting itself: with the same seeded
    workload, the distribution of recorded O3 visits must be identical —
    not only each decision's value (covered above) but the totals used by
    Fig. 7-style analyses."""
    spec = _workload(SEED + 2, n_requests=800)
    for policy in ("lalb", "lalbo3"):
        ref = _run(policy, fast=False, spec=spec)
        fast = _run(policy, fast=True, spec=spec)
        assert sum(v for *_, v in fast) == sum(v for *_, v in ref)
        assert max(v for *_, v in fast) == max(v for *_, v in ref)
