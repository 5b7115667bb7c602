"""Collectors at every exact-window cap vs the object-walk oracle.

Collectors with caps ``None`` (the system's own), 20k, 500 and 0 observe
the *same* run (the extra ones ride the completion/cache subscription
hooks), so every comparison below is same-stream: while a collector's
window still holds the run its summary and breakdown must be
byte-identical to the oracle's walk over the request objects; past the
cap counts/rates stay exact, means agree to float64 rounding and
quantiles hold the histogram's documented relative bound.
"""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from oracles import object_walk_breakdown, object_walk_summary

from repro.metrics.collector import MetricsCollector
from repro.metrics.summary import per_architecture_breakdown, summarize
from repro.runtime import FaaSCluster, SystemConfig
from repro.traces import WorkloadSpec, build_workload

#: shadow caps riding along the system's own unbounded collector
SHADOW_CAPS = (20_000, 500, 0)


def _run_with_shadows(spec, config=None, caps=SHADOW_CAPS, **collector_kwargs):
    """One §V-A run observed by the system's unbounded collector and a
    capped shadow per cap, subscribed to the same completion/cache streams.

    Returns ``(system, collectors, kwargs)``: ``collectors`` maps each cap
    (``None`` for the system's own) to its collector, ``kwargs`` are the
    summarize keywords.
    """
    workload = build_workload(spec)
    system = FaaSCluster(config or SystemConfig())
    collectors = {None: system.metrics}
    for cap in caps:
        shadow = MetricsCollector(system.sim, exact_cap=cap, **collector_kwargs)
        system.subscribe_completion(shadow.on_complete)
        system.cache.subscribe(shadow.on_cache_event)
        collectors[cap] = shadow
    system.submit_workload(workload)
    system.run()
    kwargs = dict(policy="lalbo3", working_set=15, top_model=workload.top_model_id)
    return system, collectors, kwargs


def _run_per_cap(spec, config):
    """The same seeded run replayed once per cap, each system built with
    that ``metrics_exact_cap`` — lost-request and fault accounting reach
    only a system's own collector, so shadows cannot observe them."""
    runs = {
        cap: _run_with_shadows(spec, replace(config, metrics_exact_cap=cap), caps=())
        for cap in (None, *SHADOW_CAPS)
    }
    system, _, kwargs = runs[None]
    return system, {cap: run[0].metrics for cap, run in runs.items()}, kwargs


def _in_window(collectors):
    return [c for c in collectors.values() if c.exact_window() is not None]


def _past_cap(collectors):
    return [c for c in collectors.values() if c.exact_window() is None]


@pytest.fixture(scope="module")
def run_2k():
    spec = WorkloadSpec(working_set=15, minutes=6, sla_s=2.0, seed=0)
    return _run_with_shadows(spec)


@pytest.fixture(scope="module")
def run_20k():
    # 61 minutes × 325 req/min ≈ 19.8k requests: the top of the 20k window
    spec = WorkloadSpec(working_set=15, minutes=61, seed=0)
    return _run_with_shadows(spec)


@pytest.fixture(scope="module")
def run_faults():
    # recoverable chaos plan with a deadline and a retry budget: requests
    # are retried and some are lost
    spec = WorkloadSpec(working_set=15, minutes=6, sla_s=2.0, seed=0)
    config = SystemConfig(fault_profile="recoverable", deadline_s=2.5, max_retries=1)
    return _run_per_cap(spec, config)


class TestExactWindowParity:
    def test_summary_byte_exact_at_2k(self, run_2k):
        system, collectors, kwargs = run_2k
        ref = object_walk_summary(system.metrics, system.cluster, **kwargs)
        assert len(_in_window(collectors)) == 2  # None and 20k
        for c in _in_window(collectors):
            assert summarize(c, system.cluster, **kwargs) == ref

    def test_summary_byte_exact_at_20k(self, run_20k):
        system, collectors, kwargs = run_20k
        assert system.metrics.completed_count > 19_000
        ref = object_walk_summary(system.metrics, system.cluster, **kwargs)
        assert len(_in_window(collectors)) == 2
        for c in _in_window(collectors):
            assert summarize(c, system.cluster, **kwargs) == ref
            assert per_architecture_breakdown(c) == object_walk_breakdown(system.metrics)

    def test_summary_byte_exact_under_faults(self, run_faults):
        system, collectors, kwargs = run_faults
        ref = object_walk_summary(system.metrics, system.cluster, **kwargs)
        assert ref.lost_requests > 0 and ref.total_retries > 0
        assert ref.faults_injected > 0
        for c in _in_window(collectors):
            assert summarize(c, system.cluster, **kwargs) == ref
            assert per_architecture_breakdown(c) == object_walk_breakdown(system.metrics)

    def test_breakdown_byte_exact(self, run_2k):
        system, collectors, _ = run_2k
        ref = object_walk_breakdown(system.metrics)
        for c in _in_window(collectors):
            assert per_architecture_breakdown(c) == ref

    def test_window_holds_identical_float64_values(self, run_2k):
        system, collectors, _ = run_2k
        reqs = system.metrics.completed
        hits = [-1 if r.cache_hit is None else int(r.cache_hit) for r in reqs]
        for c in _in_window(collectors):
            window = c.exact_window()
            assert np.array_equal(window.latency, [r.latency for r in reqs])
            assert np.array_equal(window.queueing, [r.queueing_delay for r in reqs])
            assert np.array_equal(window.cache_hit, hits)

    def test_streaming_retains_no_request_objects(self, run_2k):
        system, collectors, _ = run_2k
        assert len(system.metrics.completed) == system.metrics.completed_count
        for cap in SHADOW_CAPS:
            assert collectors[cap].completed == []
            assert collectors[cap].lost == []


def _past_cap_summaries(run):
    system, collectors, kwargs = run
    ref = object_walk_summary(system.metrics, system.cluster, **kwargs)
    got = [summarize(c, system.cluster, **kwargs) for c in _past_cap(collectors)]
    return system, collectors, ref, got


class TestAboveCapRegime:
    @pytest.fixture(scope="class")
    def capped(self, run_2k):
        return _past_cap_summaries(run_2k)

    @pytest.fixture(scope="class")
    def capped_faults(self, run_faults):
        return _past_cap_summaries(run_faults)

    def test_window_dropped_past_cap(self, capped):
        system, collectors, _, _ = capped
        assert system.metrics.completed_count > 500
        assert collectors[500].exact_window() is None
        assert collectors[0].exact_window() is None

    def test_counts_and_rates_stay_exact(self, capped):
        _, _, ref, got = capped
        assert len(got) == 2  # caps 500 and 0
        for s in got:
            assert s.completed_requests == ref.completed_requests
            assert s.cache_miss_ratio == ref.cache_miss_ratio
            assert s.false_miss_ratio == ref.false_miss_ratio
            assert s.sla_violation_ratio == ref.sla_violation_ratio
            assert s.goodput_rps == ref.goodput_rps
            assert s.sm_utilization == ref.sm_utilization
            assert s.avg_duplicates_top_model == ref.avg_duplicates_top_model
            assert s.lost_requests == ref.lost_requests
            assert s.total_retries == ref.total_retries

    def test_means_compensated_to_float64_truth(self, capped):
        _, _, ref, got = capped
        for s in got:
            assert s.avg_latency_s == pytest.approx(ref.avg_latency_s, rel=1e-12)
            assert s.avg_queueing_s == pytest.approx(ref.avg_queueing_s, rel=1e-12)
            assert s.latency_variance == pytest.approx(ref.latency_variance, rel=1e-9)

    def test_quantiles_within_documented_bound(self, capped):
        _, collectors, ref, got = capped
        bound = collectors[0].latency_histogram().relative_error + 1e-12
        for s in got:
            assert abs(s.p50_latency_s - ref.p50_latency_s) / ref.p50_latency_s <= bound
            assert abs(s.p99_latency_s - ref.p99_latency_s) / ref.p99_latency_s <= bound

    def test_breakdown_counts_exact_means_bounded(self, capped):
        system, collectors, _, _ = capped
        ref = object_walk_breakdown(system.metrics)
        for c in _past_cap(collectors):
            got = per_architecture_breakdown(c)
            assert set(got) == set(ref)
            for arch, cell in got.items():
                assert cell["count"] == ref[arch]["count"]
                assert cell["miss_ratio"] == ref[arch]["miss_ratio"]
                assert cell["avg_latency_s"] == pytest.approx(
                    ref[arch]["avg_latency_s"], rel=1e-12
                )

    def test_fault_run_counts_exact_means_and_quantiles_bounded(self, capped_faults):
        self.test_counts_and_rates_stay_exact(capped_faults)
        self.test_means_compensated_to_float64_truth(capped_faults)
        self.test_breakdown_counts_exact_means_bounded(capped_faults)
        # the retry tail leaves gaps between neighbouring order statistics,
        # so hold the histogram to its contract — the sample at rank
        # floor(q·(n-1)) — rather than to NumPy's interpolated percentile
        system, collectors, _, got = capped_faults
        lat = sorted(r.latency for r in system.metrics.completed)
        bound = collectors[0].latency_histogram().relative_error + 1e-12
        for s in got:
            for p, value in ((50, s.p50_latency_s), (99, s.p99_latency_s)):
                exact = lat[math.floor(p / 100 * (len(lat) - 1))]
                assert abs(value - exact) / exact <= bound

    def test_fold_is_independent_of_where_the_window_dropped(self, capped):
        _, collectors, _, _ = capped
        late, eager = collectors[500].latency_histogram(), collectors[0].latency_histogram()
        assert np.array_equal(late.counts, eager.counts)
        assert (late.sum, late.count) == (eager.sum, eager.count)
        assert collectors[500].queueing_sum == collectors[0].queueing_sum


class TestSpill:
    def test_rows_teed_to_csv(self, tmp_path):
        path = tmp_path / "rows.csv"
        spec = WorkloadSpec(working_set=15, minutes=1, sla_s=2.0, seed=0)
        system, collectors, _ = _run_with_shadows(
            spec, caps=(10,), spill_to=str(path)
        )
        shadow = collectors[10]
        shadow.close_spill()
        assert shadow.spill_path == str(path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == shadow.completed_count
        # the spill holds full-fidelity rows, cap notwithstanding
        first = system.metrics.completed[0]
        assert float(rows[0]["arrival"]) == first.arrival_time
        assert float(rows[0]["completed"]) == first.completed_at
        assert rows[0]["architecture"] in system.metrics.architectures


class TestModeGuards:
    def test_unbounded_window_is_never_dropped(self, run_2k):
        system, _, _ = run_2k
        assert system.metrics.exact_cap is None
        assert len(system.metrics.exact_window()) == system.metrics.completed_count

    def test_lost_requests_counted_not_retained(self):
        system = FaaSCluster(SystemConfig())
        shadow = MetricsCollector(system.sim, exact_cap=0)
        from repro.models import ModelInstance, get_profile

        inst = ModelInstance("m0", get_profile("resnet50"))
        from repro.core.request import InferenceRequest

        req = InferenceRequest("f", inst, arrival_time=0.0)
        shadow.on_lost(req, "deadline")
        assert shadow.lost_count == 1
        assert shadow.lost == []
