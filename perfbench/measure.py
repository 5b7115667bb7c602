"""The measurements behind ``perfbench/run.py``.

:func:`untraced` gives the end-to-end metrics, :func:`traced` the
per-layer ledger.  Both return the metrics, the replays' results and the
failed correctness checks; :func:`traced` also returns the per-span table.
"""

from __future__ import annotations

import gc
import resource
import statistics
from dataclasses import replace

from repro.metrics.summary import summarize

from .ledger import Ledger
from .replay import run_rep
from .speed import NOMINAL_S, kernel_s
from .workloads import build, rep_seed, reps_for

#: at least this many set-ups are timed per run, in equal groups before
#: each replay and after the last; setup_s is their median, scaled to the
#: host's nominal speed (see ``perfbench/speed.py``)
SETUP_SAMPLES = 51
#: simulated minutes of the untimed warm-up replay that starts every run
WARMUP_MINUTES = 4


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


# ----------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ----------------------------------------------------------------------
def warm_up(defn) -> None:
    run_rep(build(replace(defn, minutes=WARMUP_MINUTES), 0))


def timed_build(defn, seed: int, samples: list[tuple[float, float]]):
    """``build(defn, seed)``; appends (set-up time, reference-kernel time
    just before it) to ``samples``."""
    gc.collect()
    kernel = kernel_s()
    setup = build(defn, seed)
    samples.append((setup.setup_s, kernel))
    return setup


def untraced(defn, seed: int, seconds: int) -> tuple[dict, list, list[str], dict]:
    """End-to-end metrics, the replays' results, the failed checks and
    the raw set-up timings behind ``setup_s``."""
    warm_up(defn)
    reps = reps_for(defn, seconds)
    group = -(-(SETUP_SAMPLES - reps) // (reps + 1))
    results, setups = [], []
    for i in range(reps):
        for _ in range(group):
            timed_build(defn, rep_seed(seed, i), setups)
        results.append(run_rep(timed_build(defn, rep_seed(seed, i), setups)))
    for _ in range(group):
        timed_build(defn, rep_seed(seed, 0), setups)

    submitted = sum(r.submitted for r in results)
    completed = sum(r.completed for r in results)
    early_wall = sum(r.quarter(0)[0] for r in results)
    early_done = sum(r.quarter(0)[1] for r in results)
    late_wall = sum(r.quarter(3)[0] for r in results)
    late_done = sum(r.quarter(3)[1] for r in results)
    summaries = [r.summary for r in results]
    metrics = {
        "replay_req_per_s": metric(submitted / sum(r.wall_s for r in results), "req/s"),
        "late_vs_early": metric(
            (late_wall / late_done) / (early_wall / early_done), "ratio"
        ),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "setup_s": metric(statistics.median(t / k for t, k in setups) * NOMINAL_S, "s"),
        "sim_latency_mean_s": metric(
            statistics.fmean(s.avg_latency_s for s in summaries), "s"
        ),
        "sim_latency_p99_s": metric(
            statistics.fmean(s.p99_latency_s for s in summaries), "s"
        ),
        "completed_share": metric(completed / submitted, "share"),
    }
    failures = [f for r in results for f in r.failures]
    setup_raw = {
        "samples": len(setups),
        "setup_s_median": statistics.median(t for t, _ in setups),
        "kernel_s_median": statistics.median(k for _, k in setups),
    }
    return metrics, results, failures, setup_raw


# ----------------------------------------------------------------------
# Traced run: per-layer ledger
# ----------------------------------------------------------------------
def traced(defn, seed: int) -> tuple[dict, list, list[str], dict]:
    warm_up(defn)
    seed0 = rep_seed(seed, 0)
    gc.collect()
    first = run_rep(build(defn, seed0))

    ledger = Ledger()
    gc.collect()
    with ledger.installed():
        setup = build(defn, seed0)
        system = setup.system
        store = system.datastore
        # construction-time calls are not part of the replay
        base = store.stats.as_dict()
        ledger.reset()
        events = [0]
        cache_events = {"load": 0, "evict": 0}

        def count_event() -> None:
            events[0] += 1

        def count_cache(kind, gpu_id, model_id, now) -> None:
            if kind in cache_events:
                cache_events[kind] += 1

        system.sim.subscribe_post_event(count_event)
        system.cache.subscribe(count_cache)
        summarize_span = ledger.timed("metrics", "summarize", summarize)
        rep = run_rep(setup, summarize_fn=summarize_span)
    gc.collect()
    second = run_rep(build(defn, seed0))

    n = rep.submitted
    scheduler, metrics = system.scheduler, system.metrics
    stats = {k: v - base[k] for k, v in store.stats.as_dict().items()}
    passes = scheduler.passes_executed
    failures = [f for r in (first, rep, second) for f in r.failures]

    def cross(name: str, wrapped: int, counted: int) -> None:
        if wrapped != counted:
            failures.append(f"ledger {name}: wrapper saw {wrapped}, program counted {counted}")

    cross("Scheduler.submit", ledger.calls("Scheduler.submit"), n)
    cross("GPUManager.execute", ledger.calls("GPUManager.execute"), scheduler.dispatched_count)
    cross("MetricsCollector.on_complete", ledger.calls("MetricsCollector.on_complete"),
          metrics.completed_count)
    cross("schedule_pass", ledger.calls_matching(".schedule_pass"), passes)
    cross("Datastore.flush keys", ledger.stats["Datastore.flush"].tally, stats["committed_keys"])
    cross("post-event hook", events[0], system.sim.processed_events)
    if not first.sha == rep.sha == second.sha:
        failures.append(
            f"decision SHA differs: untraced {first.sha}, traced {rep.sha}, "
            f"untraced again {second.sha}"
        )

    layers = ledger.layer_self_ns()
    per_req_us = 1e-3 / n

    def span_us(*names: str) -> float:
        return ledger.self_ns(*names) * per_req_us

    flush = ledger.stats["Datastore.flush"]
    elided = scheduler.passes_elided
    untraced_wall = statistics.fmean((first.wall_s, second.wall_s))
    out = {
        "traces.build_s": metric(setup.build_s, "s"),
        "traces.materialize_us_per_req": metric(layers["traces"] * per_req_us, "us/req"),
        "sim.events_per_req": metric(rep.events / n, "count"),
        "sim.self_us_per_req": metric(layers["sim"] * per_req_us, "us/req"),
        "scheduler.self_us_per_req": metric(layers["scheduler"] * per_req_us, "us/req"),
        "scheduler.us_per_pass": metric(
            ledger.self_ns_matching(".schedule_pass") / 1e3 / max(passes, 1), "us"
        ),
        "scheduler.passes_per_req": metric(passes / n, "count"),
        "scheduler.elided_share": metric(elided / max(elided + passes, 1), "share"),
        "queues.global_depth_p50": metric(statistics.median(rep.depths), "count"),
        "queues.global_depth_max": metric(max(rep.depths), "count"),
        "gpu_manager.self_us_per_req": metric(layers["gpu_manager"] * per_req_us, "us/req"),
        "cache.self_us_per_req": metric(layers["cache"] * per_req_us, "us/req"),
        "cache.loads_per_req": metric(cache_events["load"] / n, "count"),
        "cache.evictions_per_req": metric(cache_events["evict"] / n, "count"),
        "cache.miss_ratio": metric(rep.summary.cache_miss_ratio, "ratio"),
        "cache.false_miss_ratio": metric(rep.summary.false_miss_ratio, "ratio"),
        "datastore.flush_us": metric(flush.self_ns / 1e3 / max(flush.calls, 1), "us"),
        "datastore.flushes_per_req": metric(stats["flushes"] / n, "count"),
        "datastore.keys_per_flush": metric(
            stats["committed_keys"] / max(stats["flushes"], 1), "count"
        ),
        "datastore.coalesced_share": metric(
            stats["coalesced_writes"] / max(stats["logical_writes"], 1), "share"
        ),
        "datastore.compact_us_per_req": metric(span_us("KVStore.compact"), "us/req"),
        "datastore.history_entries_end": metric(store.kv.history_entry_count(), "count"),
        "datastore.lease_us_per_req": metric(
            span_us("LeaseManager.grant", "Lease.refresh", "Lease.revoke"), "us/req"
        ),
        "metrics.on_complete_us_per_req": metric(
            span_us("MetricsCollector.on_complete"), "us/req"
        ),
        "metrics.summarize_s": metric(rep.summarize_s, "s"),
        "chaos.self_us_per_req": metric(layers["chaos"] * per_req_us, "us/req"),
        "chaos.retries_per_req": metric(metrics.retries_total / n, "count"),
        "chaos.faults": metric(metrics.faults_injected, "count"),
        "ledger.coverage": metric(sum(layers.values()) / 1e9 / rep.wall_s, "ratio"),
        "ledger.overhead": metric(rep.wall_s / untraced_wall, "ratio"),
    }
    table = {
        "layers_us_per_req": {k: round(v * per_req_us, 3) for k, v in sorted(layers.items())},
        "spans": {
            name: {"layer": ledger.layer_of[name], "calls": s.calls,
                   "self_us_per_req": round(s.self_ns * per_req_us, 3)}
            for name, s in sorted(ledger.stats.items()) if s.calls
        },
        "note": "sim self time includes the GPU lifecycle handlers, deadline and lease "
                "timers, heartbeats, fault-injector handlers and post-event hooks, "
                "which the simulator runs directly and which have no public entry point",
    }
    return out, [first, rep, second], failures, table
