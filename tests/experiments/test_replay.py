"""Gateway-level replay: the full FaaS path must agree with the scheduler-level runs."""

import pytest

from repro.cluster import ClusterSpec
from repro.experiments import ExperimentConfig, run_experiment
from repro.experiments.replay import replay_through_gateway
from repro.runtime import SystemConfig, streaming_config
from repro.traces import AzureTraceConfig, SyntheticAzureTrace, WorkloadSpec

SMALL_TRACE = SyntheticAzureTrace(
    AzureTraceConfig(num_functions=300, mean_rate_per_minute=2000, seed=12)
)
SMALL_SPEC = WorkloadSpec(working_set=6, minutes=2, requests_per_minute=60)
SMALL_CLUSTER = ClusterSpec.homogeneous(1, 4)


@pytest.fixture(scope="module")
def replay():
    return replay_through_gateway(
        SMALL_SPEC,
        config=SystemConfig(cluster=SMALL_CLUSTER, policy="lalbo3"),
        trace=SMALL_TRACE,
    )


class TestReplay:
    def test_every_invocation_completes(self, replay):
        assert len(replay.invocations) == 120
        assert len(replay.completed_invocations) == 120
        assert len(replay.system.completed) == 120

    def test_faas_overhead_is_positive_but_small(self, replay):
        """Container/Watchdog handling adds latency on top of the GPU path,
        but far less than a model load."""
        overhead = replay.faas_overhead()
        assert overhead >= 0.0
        assert overhead < 2.0

    def test_per_function_model_instances_are_cached(self, replay):
        """Repeated invocations of one function must hit its cached model."""
        hits = sum(1 for r in replay.system.completed if r.cache_hit)
        assert hits > len(replay.system.completed) * 0.5

    def test_cache_behaviour_matches_scheduler_level_run(self, replay):
        """Gateway-level and scheduler-level replays of the same workload
        agree on cache behaviour (the FaaS layer shifts timing slightly,
        so allow a small tolerance)."""
        direct = run_experiment(
            ExperimentConfig(
                policy="lalbo3",
                working_set=6,
                minutes=2,
                requests_per_minute=60,
                cluster=SMALL_CLUSTER,
            ),
            trace=SMALL_TRACE,
        )
        assert replay.cache_miss_ratio() == pytest.approx(
            direct.cache_miss_ratio, abs=0.08
        )

    def test_functions_registered_with_gpu_flag(self, replay):
        for name in replay.gateway.list_functions():
            assert replay.gateway.get(name).spec.gpu_enabled


class TestFlatMemoryMetrics:
    def test_gpu_metrics_under_a_capped_collector(self):
        """A capped collector retains no request objects; the GPU-side
        metrics come from its counters and summary instead."""
        spec = WorkloadSpec(working_set=4, minutes=1, requests_per_minute=30, seed=0)
        capped = replay_through_gateway(spec, config=streaming_config())
        unbounded = replay_through_gateway(spec)
        assert capped.system.completed == []
        assert capped.system.metrics.completed_count == 30
        assert capped.avg_gpu_latency() == unbounded.avg_gpu_latency()
        assert capped.faas_overhead() == unbounded.faas_overhead()
        assert capped.cache_miss_ratio() == unbounded.cache_miss_ratio() == 6 / 30
