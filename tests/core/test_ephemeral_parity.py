"""Ephemeral-tier parity: the fast lane must change *costs*, never
*behaviour*.

With ``SystemConfig(ephemeral_prefixes=EPHEMERAL_HOT_PREFIXES)`` the
high-churn status keys skip MVCC history, event-log records, and lineage
— but every scheduling input is a *live* read, so on a seeded workload
the tier on and off must produce identical DecisionLogs and an identical
normalized final key→value store state, across the write-path matrix
(batched or literal-write-path oracle × pass loop or literal-engine
oracle), through GPU failure/recovery, and under a full chaos profile.
The structural claim is asserted too: with the tier on, the hot prefixes
leave zero history entries and zero event-log records.
"""

import pytest
from oracles import literal_pass_engine, literal_write_path

from repro.cluster import ClusterSpec
from repro.core.request import InferenceRequest
from repro.experiments.bench import seeded_workload
from repro.models import ModelInstance, get_profile, model_names
from repro.runtime import EPHEMERAL_HOT_PREFIXES, FaaSCluster, SystemConfig

SEED = 20230801  # arbitrary but frozen
N_FUNCTIONS = 30


def _workload(seed: int, n_requests: int):
    return seeded_workload(seed, n_requests, N_FUNCTIONS)


def _architecture(fn_idx: int) -> str:
    names = model_names()
    return names[fn_idx % len(names)]


def _run(
    spec,
    *,
    ephemeral: bool,
    batched: bool = True,
    elide: bool = True,
    fail_gpu_at: float | None = None,
    **config_kwargs,
):
    system = FaaSCluster(
        SystemConfig(
            cluster=ClusterSpec.homogeneous(2, 4),
            policy="lalbo3",
            ephemeral_prefixes=EPHEMERAL_HOT_PREFIXES if ephemeral else (),
            **config_kwargs,
        )
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
    decisions = [
        (d.time_s, d.kind, id_to_index[d.request_id], d.model_id, d.gpu_id, d.visits)
        for d in system.scheduler.decisions
    ]
    # normalize on *values*: ephemeral KeyValues are lineage-free by
    # design (create_revision == mod_revision, version pinned at 1), so
    # revision metadata is intentionally allowed to differ — what must
    # not differ is which keys are live and what they hold.  Request ids
    # come from a process-global counter: fold fn/latency/<request_id>
    # keys onto submission indices for cross-run comparison.
    state = {}
    for kv in system.datastore.kv.items():
        key = kv.key
        if key.startswith("fn/latency/"):
            key = f"fn/latency/#{id_to_index[int(key.rsplit('/', 1)[1])]}"
        state[key] = kv.value
    return system, decisions, state


def _assert_no_hot_residue(system):
    kv = system.datastore.kv
    hot = [k for k in kv._history if k.startswith(EPHEMERAL_HOT_PREFIXES)]
    assert hot == []
    logged = [k for k in kv._event_keys if k.startswith(EPHEMERAL_HOT_PREFIXES)]
    assert logged == []
    assert kv.ephemeral_writes > 0


class TestEphemeralTierParity:
    def test_identical_decisions_and_state_through_gpu_failure(self):
        spec = _workload(SEED, 2000)
        fail_at = spec[900][1]  # while the system is under load
        _, dec_off, state_off = _run(spec, ephemeral=False, fail_gpu_at=fail_at)
        sys_on, dec_on, state_on = _run(spec, ephemeral=True, fail_gpu_at=fail_at)
        assert any(kind.value == "resubmit" for _, kind, *_ in dec_on)
        assert dec_on == dec_off
        assert state_on == state_off
        _assert_no_hot_residue(sys_on)

    def test_parity_across_write_path_matrix(self):
        """The tier composes with every (batched, elision) combination:
        all eight cells agree on decisions and normalized final state."""
        spec = _workload(SEED + 1, 1200)
        reference = None
        for batched in (True, False):
            for elide in (True, False):
                for ephemeral in (False, True):
                    system, dec, state = _run(
                        spec, ephemeral=ephemeral, batched=batched, elide=elide
                    )
                    if reference is None:
                        reference = (dec, state)
                    assert dec == reference[0]
                    assert state == reference[1]
                    if ephemeral:
                        _assert_no_hot_residue(system)

    def test_parity_under_chaos_profile(self):
        """Fault injection exercises the health watchdog, leases, drains,
        and resubmission — none of which may observe the tier."""
        spec = _workload(SEED + 2, 1500)
        _, dec_off, state_off = _run(
            spec, ephemeral=False, fault_profile="recoverable", seed=7
        )
        sys_on, dec_on, state_on = _run(
            spec, ephemeral=True, fault_profile="recoverable", seed=7
        )
        assert dec_on == dec_off
        assert state_on == state_off
        _assert_no_hot_residue(sys_on)

    def test_parity_under_bounded_retention(self):
        """The tier's target configuration: autocompaction plus the
        latency-record sliding window.  Decisions and final values stay
        identical while the tier-on store retains (near) zero history."""
        spec = _workload(SEED + 3, 1500)
        kwargs = dict(kv_autocompact_keep=300, latency_log_keep=300)
        sys_off, dec_off, state_off = _run(spec, ephemeral=False, **kwargs)
        sys_on, dec_on, state_on = _run(spec, ephemeral=True, **kwargs)
        assert dec_on == dec_off
        assert state_on == state_off
        _assert_no_hot_residue(sys_on)
        # the structural win the commit-path bench gates on
        assert (
            sys_on.datastore.kv.history_entry_count()
            < sys_off.datastore.kv.history_entry_count()
        )

    def test_latency_window_stays_bounded_without_history_growth(self):
        spec = _workload(SEED + 4, 1500)
        keep = 100
        system, _, _ = _run(spec, ephemeral=True, latency_log_keep=keep)
        kv = system.datastore.kv
        latency_keys = [k for k in kv.keys() if k.startswith("fn/latency/")]
        # one window per GPU manager node; each bounded by `keep`
        assert latency_keys
        assert len(latency_keys) <= keep * len(system.cluster.nodes)
        assert kv.history_entry_count() == 0 or not any(
            k.startswith("fn/latency/") for k in kv._history
        )

    def test_default_config_keeps_tier_off(self):
        assert SystemConfig().ephemeral_prefixes == ()

    def test_hot_prefixes_cover_the_per_action_keys(self):
        for prefix in ("gpu/status/", "gpu/finish_time/", "fn/latency/", "gpu/lru/"):
            assert prefix in EPHEMERAL_HOT_PREFIXES
