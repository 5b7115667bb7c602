"""Write-path parity: the batched Datastore write path vs. the literal one.

The batched path (the only one ``FaaSCluster`` builds) accumulates every
scheduling action's Datastore writes and commits them as one transaction;
the literal path (``tests/oracles.literal_write_path``) issues one
revision per put.  Nothing about *what* the control plane computes may
change: on a seeded 2k-request workload (including a mid-run GPU
failure) both modes must produce identical DecisionLogs and an identical
final key→value store state — the batch only removes intermediate
revisions, never final values.

It must also actually remove them: the revision count (write
amplification) must drop by at least 3× per scheduling action.
"""

import pytest
from oracles import literal_pass_engine, literal_write_path

from repro.cluster import ClusterSpec
from repro.core.request import InferenceRequest
from repro.experiments.bench import seeded_workload
from repro.models import ModelInstance, get_profile, model_names
from repro.runtime import FaaSCluster, SystemConfig

SEED = 20230731  # arbitrary but frozen; shared with the write-amp bench
N_REQUESTS = 2000
N_FUNCTIONS = 30


def _workload(seed: int, n_requests: int = N_REQUESTS):
    """The bench's seeded bursty workload — one generator, one definition,
    so the parity assertions and the committed write-amplification numbers
    describe the same run."""
    return seeded_workload(seed, n_requests, N_FUNCTIONS)


def _architecture(fn_idx: int) -> str:
    names = model_names()
    return names[fn_idx % len(names)]


def _run(batched: bool, spec, *, fail_gpu_at: float | None = None, elide: bool = True):
    system = FaaSCluster(
        SystemConfig(cluster=ClusterSpec.homogeneous(2, 4), policy="lalbo3")
    )
    if not batched:
        literal_write_path(system)
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
        gpu_id = system.cluster.gpus[2].gpu_id
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


class TestBatchedWritePathParity:
    def test_identical_decisions_and_final_state(self):
        spec = _workload(SEED)
        fail_at = spec[900][1]  # while the system is under load
        sys_lit, dec_lit, state_lit = _run(False, spec, fail_gpu_at=fail_at)
        sys_bat, dec_bat, state_bat = _run(True, spec, fail_gpu_at=fail_at)
        assert any(kind.value == "resubmit" for _, kind, *_ in dec_bat)
        assert dec_bat == dec_lit
        assert state_bat == state_lit

    def test_batching_cuts_revisions_at_least_3x(self):
        spec = _workload(SEED + 1)
        sys_lit, dec_lit, _ = _run(False, spec)
        sys_bat, dec_bat, _ = _run(True, spec)
        assert dec_bat == dec_lit
        rev_lit = sys_lit.datastore.kv.revision
        rev_bat = sys_bat.datastore.kv.revision
        actions = len(dec_bat)
        assert rev_bat / actions * 3 <= rev_lit / actions
        # the logical write stream is identical; batching only changes
        # how many revisions (commits) carry it
        assert (
            sys_bat.datastore.stats.logical_writes
            == sys_lit.datastore.stats.logical_writes
        )

    def test_watchers_see_coalesced_batches_with_same_final_values(self):
        spec = _workload(SEED + 2, n_requests=300)

        def run_with_watch(batched):
            system = FaaSCluster(SystemConfig(cluster=ClusterSpec.homogeneous(1, 4)))
            if not batched:
                literal_write_path(system)
            instances = [
                ModelInstance(f"m{i}", get_profile(_architecture(i)))
                for i in range(N_FUNCTIONS)
            ]
            events = []
            system.datastore.watches.watch(
                "gpu/lru/", events.append, prefix=True
            )
            for fn, t in spec:
                system.submit_at(
                    InferenceRequest(f"fn{fn}", instances[fn], arrival_time=t)
                )
            system.run()
            final = {ev.key: ev.value for ev in events}
            return events, final

        lit_events, lit_final = run_with_watch(False)
        bat_events, bat_final = run_with_watch(True)
        # last-write-wins coalescing: strictly fewer notifications, but the
        # last observed value per key is identical
        assert len(bat_events) < len(lit_events)
        assert bat_final == lit_final

    def test_batching_is_the_default(self):
        assert FaaSCluster(SystemConfig()).datastore.batched is True

    def test_pass_elision_dimension_preserves_decisions_and_state(self):
        """Pass elision composes with both write paths: every combination
        of (batched, elision) commits the same final Datastore state and
        decision sequence, including through a GPU failure."""
        spec = _workload(SEED + 1, n_requests=1200)
        fail_at = spec[500][1]
        _, ref_dec, ref_state = _run(True, spec, fail_gpu_at=fail_at, elide=False)
        for batched in (True, False):
            _, dec, state = _run(batched, spec, fail_gpu_at=fail_at, elide=True)
            assert dec == ref_dec
            assert state == ref_state


class TestIncrementalEstimatorParity:
    """Satellite check: the running queued-cost sums match a reference
    recompute throughout a real run (assertions ride completion events)."""

    def test_running_sums_match_reference_walk_during_run(self):
        spec = _workload(SEED + 3, n_requests=500)
        system = FaaSCluster(
            SystemConfig(cluster=ClusterSpec.homogeneous(2, 4), policy="lalbo3")
        )
        instances = [
            ModelInstance(f"m{i}", get_profile(_architecture(i)))
            for i in range(N_FUNCTIONS)
        ]
        checks = []

        def check(_request):
            for gpu in system.cluster.gpus:
                incremental = system.estimator.queued_cost(gpu)
                reference = system.estimator.reference_queued_cost(gpu)
                checks.append(incremental == pytest.approx(reference, abs=1e-9))

        system.subscribe_completion(check)
        for fn, t in spec:
            system.submit_at(InferenceRequest(f"fn{fn}", instances[fn], arrival_time=t))
        system.run()
        assert checks and all(checks)
