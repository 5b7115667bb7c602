"""Randomized differential test: collectors at every cap vs the object walk.

Hypothesis draws completion streams — arrival, dispatch and completion
times, hit ``None``/``True``/``False``, false misses, an SLA or none, one
to six architectures, retries, and lost requests interleaved — and feeds
each stream to collectors with ``exact_cap`` ``None``, ``0``, a small
``k`` and one larger than the stream.  The unbounded collector's request
objects drive the oracle.  A collector whose window still holds the
stream must summarize byte-identically to the oracle; past its cap,
counts and ratios stay exact, means agree to float64 rounding and
quantiles hold the histogram's contract: within ``relative_error`` of
the sample at rank ``floor(q·(n-1))``.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import object_walk_breakdown, object_walk_summary

from repro.cluster import ClusterSpec, build_cluster
from repro.core.request import InferenceRequest
from repro.metrics import MetricsCollector, per_architecture_breakdown, summarize
from repro.models import ModelInstance, get_profile, model_names
from repro.sim import Simulator

_ARCHS = model_names()[:6]

_event = st.tuples(
    st.sampled_from([True, True, True, False]),   # completes (else lost)
    st.integers(0, 5),                            # architecture index
    st.integers(0, 2),                            # function of that architecture
    st.floats(0.0, 1000.0),                       # arrival
    st.floats(0.0, 50.0),                         # queueing delay
    st.floats(1e-3, 100.0),                       # service time
    st.sampled_from([None, True, False]),         # cache hit
    st.booleans(),                                # false miss
    st.one_of(st.none(), st.floats(0.01, 200.0)),  # SLA
    st.integers(0, 3),                            # retries
)


def _feed(events, n_archs, collectors):
    instances = {}
    for done, arch, fn, arrival, queue, service, hit, false_miss, sla, retries in events:
        arch %= n_archs
        key = (arch, fn)
        if key not in instances:
            instances[key] = ModelInstance(f"fn-{arch}-{fn}", get_profile(_ARCHS[arch]))
        r = InferenceRequest(
            function_name=f"fn-{arch}-{fn}", model=instances[key],
            arrival_time=arrival, sla_s=sla,
        )
        r.retries = retries
        if done:
            r.dispatched_at = arrival + queue
            r.completed_at = r.dispatched_at + service
            r.cache_hit = hit
            r.false_miss = false_miss
            for c in collectors:
                c.on_complete(r)
        else:
            for c in collectors:
                c.on_lost(r, "deadline")


def _order_stat(latencies, p):
    lat = sorted(latencies)
    return lat[math.floor(p / 100.0 * (len(lat) - 1))]


def _within_contract(value, latencies, p, bound):
    exact = _order_stat(latencies, p)
    return abs(value - exact) / exact <= bound + 1e-9


@settings(max_examples=150, deadline=None)
@given(
    events=st.lists(_event, min_size=1, max_size=40),
    n_archs=st.integers(1, 6),
    small_cap=st.integers(1, 8),
)
def test_collectors_match_object_walk(events, n_archs, small_cap):
    n_done = sum(1 for e in events if e[0])
    sim = Simulator()
    cluster = build_cluster(sim, ClusterSpec.homogeneous(1, 2))
    ref = MetricsCollector(sim)
    capped = [MetricsCollector(sim, exact_cap=cap) for cap in (0, small_cap, n_done + 3)]
    _feed(events, n_archs, [ref, *capped])
    if not n_done:
        return
    reqs = ref.completed
    horizon = max(r.completed_at for r in reqs) + 1.0
    oracle = object_walk_summary(ref, cluster, horizon=horizon)
    oracle_breakdown = object_walk_breakdown(ref)
    hist = ref.latency_histogram()
    bound = hist.relative_error

    for c in (ref, *capped):
        got = summarize(c, cluster, horizon=horizon)
        breakdown = per_architecture_breakdown(c)
        folded = c.latency_histogram()
        assert (folded.count, folded.sum) == (hist.count, hist.sum)
        assert (folded.counts == hist.counts).all()
        if c.exact_window() is not None:
            assert c.exact_cap is None or n_done <= c.exact_cap
            assert got == oracle
            assert breakdown == oracle_breakdown
            continue
        assert n_done > c.exact_cap
        assert c.completed == [] and c.lost == []
        for field in ("completed_requests", "cache_miss_ratio", "false_miss_ratio",
                      "sla_violation_ratio", "goodput_rps", "lost_requests",
                      "total_retries", "top_model", "horizon_s"):
            assert getattr(got, field) == getattr(oracle, field), field
        assert math.isclose(got.avg_latency_s, oracle.avg_latency_s, rel_tol=1e-12)
        assert math.isclose(got.avg_queueing_s, oracle.avg_queueing_s,
                            rel_tol=1e-12, abs_tol=1e-300)
        scale = oracle.latency_variance + oracle.avg_latency_s ** 2
        assert abs(got.latency_variance - oracle.latency_variance) <= 1e-9 * scale
        latencies = [r.latency for r in reqs]
        assert _within_contract(got.p50_latency_s, latencies, 50, bound)
        assert _within_contract(got.p99_latency_s, latencies, 99, bound)
        assert list(breakdown) == list(oracle_breakdown)
        for arch, cell in breakdown.items():
            want = oracle_breakdown[arch]
            assert cell["count"] == want["count"]
            assert cell["miss_ratio"] == want["miss_ratio"]
            assert math.isclose(cell["avg_latency_s"], want["avg_latency_s"], rel_tol=1e-12)
            arch_lat = [r.latency for r in reqs if r.model.architecture == arch]
            assert _within_contract(cell["p99_latency_s"], arch_lat, 99, bound)
