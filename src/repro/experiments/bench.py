"""Scheduler-overhead benchmark runner → ``BENCH_scheduler.json``.

``python -m repro.experiments bench`` (or ``make bench``) runs the
``benchmarks/test_scheduler_overhead.py`` suite under pytest-benchmark —
the median cost of one scheduling pass at queue depths 100 / 2 000 /
20 000 plus the index micro-benches — and then every section of
:func:`_sections`, one table of *arms*.  An arm is a JSON object naming a
pipeline (``columnar`` §V-A replay, per-request ``reference``,
``streaming``, plus the ``spin``, ``sweep`` and ``seeded`` helpers), its
size ``n``, its :class:`~repro.runtime.SystemConfig` overrides per label
(``configs``; two labels run as interleaved pairs), an optional
``tests/oracles`` hook (``oracle``), its interleaved ``reps`` and the
``probes`` it reports.  Each arm runs in a fresh child process —
``python -m repro.experiments.bench '<arm json>'`` — so peak RSS is
per-replay; a cell may keep the best of k children.  The sections:
``calibration`` (a fixed pure-Python spin every wall-clock gate is a
ratio against, so gates transfer across machine speeds),
``write_amplification`` (revisions per scheduling action, batched vs the
literal one-revision-per-put oracle), ``commit_path`` (ephemeral-key tier
off vs on under bounded retention, flush + compaction timed in
isolation), ``end_to_end`` (2k / 20k / 100k replays plus the reference
pipeline), ``streaming_replay`` (flat RSS at 100k and 1M),
``fault_replay`` (the ``recoverable`` chaos profile twice — equal
decision SHAs prove deterministic replay — and faults off),
``pass_elision`` (guard-driven loop vs the literal always-pass oracle),
``observability`` (flight recorder off vs on, trace validation, decision
logs compared) and ``sweep_scaling`` (fig-5 grid at 1 / 2 / 4 workers
plus a resume served from the result store).

Interleaved arms share one estimator: alternating-order pairs, garbage
collected before each timed run, ratio taken as **sum(on) / sum(off)**
(per-pair ratios at this run length are noise-dominated; summing first
lets drift that hits both arms alike divide out).

``check_bench`` (``make bench-check``) evaluates :data:`GATES` — one row
per gate: the JSON path(s) it reads, how they fold into one number, the
comparator, the threshold constant and the message — in one loop.  Each
PR re-runs it, so the repository carries a perf trajectory instead of
anecdotes.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import heapq
import json
import math
import operator
import os
import random
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, NamedTuple

__all__ = ["run_bench", "check_bench", "run_profile", "seeded_workload", "GATES", "DEFAULT_OUTPUT"]

DEFAULT_OUTPUT = "BENCH_scheduler.json"
_SUITE = Path("benchmarks") / "test_scheduler_overhead.py"
#: end-to-end fig4 runs ride along so the trajectory also tracks whole-
#: experiment wall time, not only the scheduling micro-benches
_EXTRA_SUITES = (Path("benchmarks") / "test_fig4_latency.py",)

#: frozen seed/size for the write-amplification replay: counts are exact
#: (deterministic), not timings, so one run suffices
_WRITE_AMP_SEED = 20230731
_WRITE_AMP_REQUESTS = 2000

#: pre-PR end-to-end wall times (seconds) for the §V-A replay at each size,
#: measured at commit 32f5d42 (per-request workload build + per-request
#: arrival scheduling + object-scan metrics) on the same class of machine
#: the committed trajectory numbers come from.  The recorded speedups are
#: informational context only — every *gate* is calibration-relative.
_PRE_PR_E2E_BASELINE_S = {2000: 0.330, 20000: 3.677, 100000: 16.088}
_E2E_SIZES = (2000, 20000, 100000)
#: sizes for the streaming tier; the 1M point is the flat-memory proof
_STREAMING_SIZES = (100_000, 1_000_000)
#: worker counts measured for the sweep-scaling trajectory
_SWEEP_WORKER_COUNTS = (1, 2, 4)
#: retention window for the commit-path replays: tight enough that MVCC
#: autocompaction and the ``latency_log_keep`` sliding window — the
#: retention work the ephemeral tier makes near-free — engage even at the
#: 2k gate point (the §V-A control plane never reads history this deep)
_COMMIT_PATH_KEEP = 500
#: interleaved replay pairs per child at the gated 2k commit-path point:
#: the measured commit time there is only ~10 ms per replay (larger sizes
#: have enough measured time that one pair suffices)
_COMMIT_PATH_GATE_REPS = 5
#: interleaved off/on replay pairs per observability child
_OBS_GATE_REPS = 12

_VA = "§V-A working-set-15, 325 req/min, paper testbed"


def _repo_root() -> Path:
    """The checkout root (where ``benchmarks/`` lives), else the cwd."""
    candidate = Path(__file__).resolve().parents[3]
    if (candidate / _SUITE).exists():
        return candidate
    return Path.cwd()


def _run_child(root: Path, arm: dict, label: str = "bench child") -> dict:
    """Run one arm in a fresh child with src on PYTHONPATH; parse its JSON line."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro.experiments.bench", json.dumps(arm)],
        cwd=root, env=env, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{label} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _va_spec(n_requests: int):
    """The §V-A workload sized to ~``n_requests`` (325 requests a minute)."""
    from ..traces.workload import WorkloadSpec

    return WorkloadSpec(working_set=15, minutes=max(1, round(n_requests / 325)))


def _oracle(name: str) -> Callable:
    """A ``tests/oracles`` hook: the paper-literal engines live with the tests."""
    tests = str(_repo_root() / "tests")
    if tests not in sys.path:
        sys.path.insert(0, tests)
    import oracles

    return getattr(oracles, name)


def _decision_sha(system) -> str:
    """SHA of the decision log with request ids replaced by their rank.

    Request ids come from a process-global counter; ranks start at 1, so
    in a fresh process that minted nothing before the replay they equal
    the raw ids.
    """
    decisions = system.scheduler.decisions
    ids = sorted({d.request_id for d in decisions})
    rank = {rid: i for i, rid in enumerate(ids, 1)}
    text = "\n".join(
        f"{d.time_s!r}|{d.kind.value}|{rank[d.request_id]}|{d.model_id}|"
        f"{d.gpu_id}|{d.visits}"
        for d in decisions
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _peak_rss_mb() -> float:
    import resource

    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def seeded_workload(
    seed: int, n_requests: int, n_functions: int = 30
) -> list[tuple[int, float]]:
    """Seeded arrival trace: (function index, arrival time) tuples.

    Bursty arrivals with Pareto-skewed popularity, deep enough queues to
    exercise hits, misses, evictions, local queues, and the O3 starvation
    guard.  Shared by the write-amplification bench and the write-path
    parity tests so both measure the *same* workload.
    """
    rng = random.Random(seed)
    spec = []
    t = 0.0
    for _ in range(n_requests):
        t += rng.expovariate(2.0) if rng.random() < 0.05 else rng.expovariate(1 / 0.035)
        spec.append((min(int(rng.paretovariate(0.9)) - 1, n_functions - 1), t))
    return spec


# -- the child runner: one function per pipeline ------------------------
def _spin(arm: dict) -> dict:
    """A fixed pure-Python spin (dict stores, integer arithmetic, heap
    churn — the sim's instruction mix), best of 3: the unit every
    wall-clock gate is measured in.  A machine half as fast doubles both
    the spin and the replay, leaving the ratios unchanged."""

    def spin() -> float:
        t0 = time.perf_counter()
        table: dict[int, int] = {}
        heap: list[tuple[int, int]] = []
        acc = 0
        for i in range(300_000):
            table[i & 1023] = i
            acc += i ^ (i >> 3)
            heapq.heappush(heap, (-(i & 4095), i))
            if len(heap) > 512:
                heapq.heappop(heap)
        acc += sum(table.values()) + heap[0][1]
        return time.perf_counter() - t0

    runs = [spin() for _ in range(3)]
    return {"runs": [round(r, 4) for r in runs], "spin_s": round(min(runs), 4)}


def _sweep(arm: dict) -> dict:
    """One cold fig-5-grid sweep (× 2 seeds) with a hash of the merged
    figure payload, so shardings can be proven byte-identical."""
    from .sweep import SweepSpec, run_sweep

    spec = SweepSpec(seeds=(0, 1))
    t0 = time.perf_counter()
    result = run_sweep(spec, workers=arm["workers"], store=arm["store"], progress=False)
    wall = time.perf_counter() - t0
    stats = result.stats.as_dict()
    stats["wall_s"] = round(wall, 4)
    stats["cells_per_s"] = round(stats["total"] / wall, 2)
    stats["merged_sha"] = hashlib.sha256(result.merged_json().encode()).hexdigest()[:16]
    return stats


def _streaming(arm: dict) -> dict:
    """One §V-A streaming replay: chunked workload, incremental injection,
    histogram metrics, KV autocompaction."""
    from .replay import replay_streaming

    spec = _va_spec(arm["n"])
    t0 = time.perf_counter()
    summary, system = replay_streaming(spec)
    total = time.perf_counter() - t0
    kv = system.datastore.kv
    return {
        "requests": summary.completed_requests,
        "total_s": round(total, 4),
        "requests_per_sec": round(summary.completed_requests / total, 1),
        "peak_rss_mb": _peak_rss_mb(),
        "avg_latency_s": round(summary.avg_latency_s, 4),
        "p99_latency_s": round(summary.p99_latency_s, 4),
        "cache_miss_ratio": round(summary.cache_miss_ratio, 4),
        "kv_revision": kv.revision,
        "kv_compacted_revision": kv.compacted_revision,
    }


def _seeded(arm: dict) -> dict:
    """The seeded write-amplification replay: datastore writes/revisions."""
    from ..cluster import ClusterSpec
    from ..core.request import InferenceRequest
    from ..models import ModelInstance, get_profile, model_names
    from ..runtime import FaaSCluster, SystemConfig

    names = model_names()
    system = FaaSCluster(
        SystemConfig(cluster=ClusterSpec.homogeneous(2, 4), policy="lalbo3")
    )
    if "oracle" in arm:
        _oracle(arm["oracle"])(system)
    instances = [
        ModelInstance(f"m{i}", get_profile(names[i % len(names)])) for i in range(30)
    ]
    for fn, at in seeded_workload(_WRITE_AMP_SEED, _WRITE_AMP_REQUESTS):
        system.submit_at(InferenceRequest(f"fn{fn}", instances[fn], arrival_time=at))
    system.run()
    ds = system.datastore
    actions = len(system.scheduler.decisions)
    return {
        "requests": _WRITE_AMP_REQUESTS,
        "scheduling_actions": actions,
        "revisions": ds.kv.revision,
        **ds.stats.as_dict(),
        "writes_per_scheduling_action": round(ds.stats.logical_writes / actions, 3),
        "revisions_per_scheduling_action": round(ds.kv.revision / actions, 3),
        "revisions_per_1k_requests": round(ds.kv.revision / _WRITE_AMP_REQUESTS * 1000, 1),
    }


def _commit_timers(labels) -> tuple[dict, list]:
    """Wrap ``WriteBatch.flush`` and ``KVStore.compact`` in perf_counter
    timers charging ``current[0]``: commit-plus-retention cost measured
    directly.  Returns ({label: [seconds]}, current)."""
    from ..datastore.batch import WriteBatch
    from ..datastore.kv import KVStore

    acc = {label: [0.0] for label in labels}
    current: list = [None]

    def timed(fn):
        def wrapper(*args):
            t0 = time.perf_counter()
            result = fn(*args)
            current[0][0] += time.perf_counter() - t0
            return result
        return wrapper

    WriteBatch.flush = timed(WriteBatch.flush)
    KVStore.compact = timed(KVStore.compact)
    return acc, current


def _replay(arm: dict) -> dict:
    """§V-A replays of one config, or interleaved pairs of two.

    A single config reports its probes under plain keys.  Two configs run
    ``reps`` interleaved pairs — alternating which goes first, garbage
    collected before each timed run — and report per-label keys
    (``run_s_off``...) plus ``on_vs_off``, the ratio of summed run times.
    Pairs share one workload unless ``fresh``: then every run (one warm-up
    per label first) builds its own — reused request objects carry
    lifecycle state, and the flight recorder holds references — and the
    probes read dedicated untimed runs.
    """
    from ..metrics.summary import summarize
    from ..obs.export import chrome_trace_events, validate_chrome_trace
    from ..runtime import FaaSCluster, SystemConfig
    from ..traces.azure import SyntheticAzureTrace
    from ..traces.workload import build_workload

    n, reps, fresh = arm["n"], arm.get("reps", 1), arm.get("fresh", False)
    probes = set(arm.get("probes", ()))
    reference = arm.get("pipeline") == "reference"
    build = _oracle("build_workload_reference") if reference else build_workload
    hook = _oracle(arm["oracle"]) if "oracle" in arm else None
    configs = {
        label: SystemConfig(**{k: tuple(v) if isinstance(v, list) else v
                               for k, v in overrides.items()})
        for label, overrides in arm["configs"].items()
    }
    paired = len(configs) > 1
    timers, current = _commit_timers(configs) if "commit" in probes else (None, None)

    t_start = time.perf_counter()
    workload = build(_va_spec(n), trace=SyntheticAzureTrace())
    build_s = time.perf_counter() - t_start

    def one(label: str, workload):
        if timers is not None:
            current[0] = timers[label]
        system = FaaSCluster(configs[label])
        if hook is not None:
            hook(system)
        if paired:
            gc.collect()
        t0 = time.perf_counter()
        if reference:
            for request in workload.requests:
                system.submit_at(request)
        else:
            system.submit_workload(workload)
        system.run()
        return time.perf_counter() - t0, system

    def next_workload():
        return build(_va_spec(n), trace=SyntheticAzureTrace()) if fresh else workload

    if fresh:
        for label in configs:
            one(label, next_workload())
    run_s = dict.fromkeys(configs, 0.0)
    systems = {}
    for rep in range(reps):
        for label in (list(configs)[::-1] if rep % 2 else list(configs)):
            dt, system = one(label, next_workload())
            run_s[label] += dt
            if not fresh:
                systems[label] = system
    if fresh:
        systems = {label: one(label, next_workload())[1] for label in configs}

    requests = len(workload)
    out: dict = {"requests": requests}
    for label, system in systems.items():
        rec = {
            "run_s": round(run_s[label] / reps, 4),
            "requests_per_sec": round(requests * reps / run_s[label], 1),
        }
        if "summary" in probes:
            t2 = time.perf_counter()
            summary = summarize(system.metrics, system.cluster, top_model=workload.top_model_id)
            summarize_s = time.perf_counter() - t2
            total = time.perf_counter() - t_start
            rec.update(
                completed=summary.completed_requests,
                build_s=round(build_s, 4),
                summarize_s=round(summarize_s, 4),
                total_s=round(total, 4),
                requests_per_sec=round(requests / total, 1),
                peak_rss_mb=_peak_rss_mb(),
            )
        if "passes" in probes:
            s = system.scheduler
            rec.update(
                actions=s.actions,
                passes_executed=s.passes_executed,
                passes_elided=s.passes_elided,
                per_action_us=round(run_s[label] / s.actions * 1e6, 2),
            )
        if "availability" in probes:
            m = system.metrics
            rec.update(
                completed=len(m.completed),
                lost=m.lost_count,
                retries_total=m.retries_total,
                max_retries_per_request=max(
                    (r.retries for r in list(m.completed) + list(m.lost)), default=0
                ),
                faults_injected=m.faults_injected,
                repairs=len(m.repairs),
                mean_mttr_s=round(m.mean_mttr(), 4),
            )
        if "decision_sha" in probes:
            rec["decision_sha"] = _decision_sha(system)
        if "commit" in probes:
            kv = system.datastore.kv
            actions = len(system.scheduler.decisions)
            seconds = timers[label][0]
            rec.update(
                actions=actions,
                commit_s=round(seconds, 4),
                commit_us_per_action=round(seconds / (actions * reps) * 1e6, 2),
                history_entries=kv.history_entry_count(),
                history_entries_per_action=round(kv.history_entry_count() / actions, 3),
                event_log_records=len(kv._event_revs),
                ephemeral_writes=kv.ephemeral_writes,
            )
        if "trace" in probes and system.tracer is not None:
            events = chrome_trace_events(system.tracer)
            errors = validate_chrome_trace({"traceEvents": events})
            rec.update(
                span_stride=configs[label].trace_span_stride,
                trace_events=len(events),
                trace_valid=not errors,
                trace_validation_errors=errors[:5],
                trace_records=system.tracer.totals,
                trace_dropped=sum(system.tracer.dropped.values()),
            )
        out.update({f"{k}_{label}": v for k, v in rec.items()} if paired else rec)
    if paired:
        out["reps"] = reps
        out["on_vs_off"] = round(run_s["on"] / run_s["off"], 3)
    return out


_PIPELINES = {"columnar": _replay, "reference": _replay, "streaming": _streaming,
              "seeded": _seeded, "spin": _spin, "sweep": _sweep}


def _child(arm: dict) -> dict:
    """Run one arm in this process (the body of every bench child)."""
    return _PIPELINES[arm.get("pipeline", "columnar")](arm)


# -- the section table --------------------------------------------------
class _Group(NamedTuple):
    """Cells run in order, ``best_of`` rounds; per cell the child with the
    smallest sum of ``key`` fields (the quietest one) wins."""

    cells: dict
    best_of: int = 1
    key: tuple = ()


def _commit_arm(n: int) -> dict:
    from ..runtime import EPHEMERAL_HOT_PREFIXES

    bounded = {"kv_autocompact_keep": _COMMIT_PATH_KEEP, "latency_log_keep": _COMMIT_PATH_KEEP}
    return {
        "n": n, "probes": ["commit"],
        "reps": _COMMIT_PATH_GATE_REPS if n == _E2E_SIZES[0] else 1,
        "configs": {"off": bounded,
                    "on": {**bounded, "ephemeral_prefixes": list(EPHEMERAL_HOT_PREFIXES)}},
    }


def _elision_cells(n: int) -> dict:
    arm = {"n": n, "configs": {"on": {}}, "probes": ["passes"]}
    return {f"{n}/on": arm, f"{n}/off": {**arm, "oracle": "literal_pass_engine"}}


def _fault_arm(profile: str) -> dict:
    return {"n": 2000, "configs": {profile: {"fault_profile": profile}},
            "probes": ["availability", "decision_sha"]}


def _commit_path(r: dict) -> dict:
    from ..runtime import EPHEMERAL_HOT_PREFIXES

    sizes = {}
    for n, c in r.items():
        cell = {"requests": c["requests"], "reps": c["reps"], "actions": c["actions_off"]}
        for key in ("commit_us_per_action", "history_entries",
                    "history_entries_per_action", "event_log_records", "run_s"):
            cell.update({f"{key}_{arm}": c[f"{key}_{arm}"] for arm in ("off", "on")})
        cell["commit_on_vs_off"] = round(
            c["commit_us_per_action_on"] / c["commit_us_per_action_off"], 3)
        cell["ephemeral_writes_on"] = c["ephemeral_writes_on"]
        sizes[n] = cell
    return {
        "workload": f"{_VA}, bounded retention (autocompact + latency window "
                    f"keep={_COMMIT_PATH_KEEP})",
        "ephemeral_prefixes": list(EPHEMERAL_HOT_PREFIXES),
        "retention_keep": _COMMIT_PATH_KEEP,
        "sizes": sizes,
    }


def _end_to_end(r: dict) -> dict:
    reference = r.pop("reference")
    for n, cell in r.items():
        baseline = _PRE_PR_E2E_BASELINE_S[int(n)]
        cell["pre_pr_baseline_s"] = baseline
        cell["speedup_vs_pre_pr"] = round(baseline / cell["total_s"], 2)
    r["2000"]["reference_pipeline_s"] = reference["total_s"]
    r["2000"]["speedup_vs_reference_pipeline"] = round(
        reference["total_s"] / r["2000"]["total_s"], 2)
    return {"workload": _VA, "baseline_commit": "32f5d42", "sizes": r}


def _pass_elision(r: dict) -> dict:
    sizes = {}
    for n in _E2E_SIZES:
        on, off = r[f"{n}/on"], r[f"{n}/off"]
        considered = on["passes_elided"] + on["passes_executed"]
        sizes[str(n)] = {
            **{k: on[k] for k in ("requests", "actions", "passes_executed", "passes_elided")},
            "elided_fraction": round(on["passes_elided"] / considered, 4),
            **{f"{k}_elision_{arm}": r[f"{n}/{arm}"][k]
               for k in ("run_s", "per_action_us") for arm in ("on", "off")},
            # the literal engine's executed passes, for comparison
            "passes_executed_elision_off": off["passes_executed"],
        }
    return {"workload": _VA, "sizes": sizes}


def _observability(r: dict) -> dict:
    p = r["2000"]
    return {
        "workload": f"{_VA}, flight recorder off vs on (interleaved pairs)",
        "requests": p["requests"], "reps": p["reps"],
        "run_s_off": p["run_s_off"], "run_s_on": p["run_s_on"],
        "requests_per_sec_off": p["requests_per_sec_off"],
        "tracer_on_vs_off": p["on_vs_off"],
        **{k: p[f"{k}_on"] for k in (
            "span_stride", "trace_events", "trace_valid",
            "trace_validation_errors", "trace_records", "trace_dropped")},
        "decisions_identical": p["decision_sha_off"] == p["decision_sha_on"],
    }


def _sweep_scaling(r: dict) -> dict:
    resume = r.pop("resume")
    wall_1, wall_4 = r["1"]["wall_s"], r[str(_SWEEP_WORKER_COUNTS[-1])]["wall_s"]
    shas = {cell["merged_sha"] for cell in r.values()} | {resume["merged_sha"]}
    return {
        "grid": "fig5: (lb, lalb, lalbo3) x WS (15, 25, 35) x seeds (0, 1), paper scale",
        "cells": r["1"]["total"],
        #: parallel speedup is bounded by the recording machine's cores;
        #: check_bench reads this to decide whether the 1.5x gate applies
        "cpu_count": os.cpu_count(),
        "workers": r,
        "speedup_4w": round(wall_1 / wall_4, 2) if wall_4 else 0.0,
        "merged_payload_identical": len(shas) == 1,
        "resume": {k: resume[k] for k in ("wall_s", "cache_hits", "executed")},
    }


def _sections(tmp: Path) -> dict[str, tuple[list[_Group], Callable[[dict], dict]]]:
    """section → (cell groups run in order, derive step over the results).

    Best-of choices defend the gated points against single-core jitter:
    the 2k commit-path and observability children (keyed on total measured
    time) and the 100k pass-elision arms (each arm its own fastest run).
    """
    sweeps = {str(w): {"pipeline": "sweep", "workers": w, "store": str(tmp / f"store-{w}w")}
              for w in _SWEEP_WORKER_COUNTS}
    obs = {"n": 2000, "reps": _OBS_GATE_REPS, "fresh": True,
           "configs": {"off": {}, "on": {"tracer": "flight"}},
           "probes": ["trace", "decision_sha"]}
    return {
        "calibration": (
            [_Group({"spin": {"pipeline": "spin"}})],
            lambda r: {**r["spin"], "workload": "300k-iteration dict/heap/int spin, best of 3"},
        ),
        "write_amplification": (
            [_Group({"unbatched": {"pipeline": "seeded", "oracle": "literal_write_path"},
                     "batched": {"pipeline": "seeded"}})],
            lambda r: {
                "workload_seed": _WRITE_AMP_SEED, **r,
                "revision_reduction_factor": round(
                    r["unbatched"]["revisions"] / max(r["batched"]["revisions"], 1), 2),
            },
        ),
        "commit_path": (
            [_Group({"2000": _commit_arm(2000)}, 2, ("commit_s_on", "commit_s_off"))]
            + [_Group({str(n): _commit_arm(n)}) for n in _E2E_SIZES[1:]],
            _commit_path,
        ),
        "end_to_end": (
            [_Group({str(n): {"n": n, "configs": {"": {}}, "probes": ["summary"]}})
             for n in _E2E_SIZES]
            + [_Group({"reference": {"pipeline": "reference", "n": 2000,
                                     "configs": {"": {}}, "probes": ["summary"]}})],
            _end_to_end,
        ),
        "streaming_replay": (
            [_Group({str(n): {"pipeline": "streaming", "n": n}}) for n in _STREAMING_SIZES],
            lambda r: {
                "workload": f"{_VA}, streaming pipeline (chunked columns + "
                            "histogram metrics + KV autocompaction)",
                "sizes": r,
                "rss_1m_vs_100k": round(r["1000000"]["peak_rss_mb"] / r["100000"]["peak_rss_mb"], 3),
            },
        ),
        "fault_replay": (
            [_Group({"recoverable": _fault_arm("recoverable"),
                     "rerun": _fault_arm("recoverable"), "none": _fault_arm("none")})],
            lambda r: {
                "workload": "§V-A working-set-15, 2k requests, paper testbed",
                "recoverable": r["recoverable"],
                "replay_deterministic":
                    r["recoverable"]["decision_sha"] == r["rerun"]["decision_sha"],
                "none": r["none"],
            },
        ),
        "pass_elision": (
            [_Group(_elision_cells(n)) for n in _E2E_SIZES[:-1]]
            + [_Group(_elision_cells(_E2E_SIZES[-1]), 2, ("run_s",))],
            _pass_elision,
        ),
        "observability": (
            [_Group({"2000": obs}, 2, ("run_s_on", "run_s_off"))], _observability,
        ),
        "sweep_scaling": (
            # resume: the last sweep again, every cell served from its store
            [_Group({**sweeps, "resume": sweeps[str(_SWEEP_WORKER_COUNTS[-1])]})],
            _sweep_scaling,
        ),
    }


def _measure(root: Path, groups: list[_Group]) -> dict[str, dict]:
    """Run every cell of ``groups``, keeping each cell's best-of child."""
    results: dict[str, dict] = {}
    for cells, best_of, key in groups:
        for _ in range(best_of):
            for name, arm in cells.items():
                # the seeded write-amplification counts are deterministic:
                # they need no fresh process
                if arm.get("pipeline") == "seeded":
                    result = _child(arm)
                else:
                    result = _run_child(root, arm, label=f"bench arm {name}")
                best = results.get(name)
                if best is None or sum(result[k] for k in key) < sum(best[k] for k in key):
                    results[name] = result
    return results


def _git_revision(root: Path) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def run_bench(output: str | None = None, *, verbose: bool = True) -> dict:
    """Run the scheduler-overhead suite and write the perf-trajectory JSON."""
    root = _repo_root()
    suite = root / _SUITE
    if not suite.exists():
        raise FileNotFoundError(f"benchmark suite not found: {suite}")
    suites = [str(suite)] + [str(root / s) for s in _EXTRA_SUITES if (root / s).exists()]
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        raw_path = Path(tmp.name)
    try:
        proc = subprocess.run(
            [
                sys.executable, "-m", "pytest", *suites, "-q",
                f"--benchmark-json={raw_path}",
            ],
            cwd=root,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"benchmark suite failed (exit {proc.returncode})")
        raw = json.loads(raw_path.read_text())
    finally:
        raw_path.unlink(missing_ok=True)

    benchmarks = {}
    pass_cost_by_depth = {}
    for bench in raw["benchmarks"]:
        stats = bench["stats"]
        benchmarks[bench["name"]] = {
            "median_s": stats["median"],
            "mean_s": stats["mean"],
            "rounds": stats["rounds"],
        }
        match = re.fullmatch(r"test_scheduling_scan_cost_at_depth\[(\d+)\]", bench["name"])
        if match:
            pass_cost_by_depth[match.group(1)] = stats["median"]

    report = {
        "suite": "scheduler_overhead",
        "commit": _git_revision(root),
        "machine": raw.get("machine_info", {}).get("cpu", {}).get("brand_raw"),
        "pass_cost_by_depth_s": dict(
            sorted(pass_cost_by_depth.items(), key=lambda kv: int(kv[0]))
        ),
    }
    with tempfile.TemporaryDirectory(prefix="sweep-bench-") as tmp:
        for name, (groups, derive) in _sections(Path(tmp)).items():
            report[name] = derive(_measure(root, groups))
    report["benchmarks"] = dict(sorted(benchmarks.items()))
    out_path = root / (output or DEFAULT_OUTPUT)
    out_path.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n")
    if verbose:
        print(f"wrote {out_path}")
        for depth, median in report["pass_cost_by_depth_s"].items():
            print(f"  pass cost @ depth {depth:>6}: {median * 1e6:8.1f} us")
        for gate, value, problem in _evaluate(report):
            shown = f"{value:.4g}" if isinstance(value, float) else value
            print(f"  {'FAIL' if problem else 'ok':4} {' vs '.join(gate.paths)}: "
                  f"{shown} (limit {gate.limit})")
    return report


#: per-subsystem rollup buckets for ``run_profile``: path fragment →
#: label, probed in order (first match wins).  tottime sums per bucket,
#: so the rollup answers "where does the run actually spend its time"
#: without reading 25 rows of per-function output.
_PROFILE_BUCKETS = (
    ("repro/datastore/", "commit path (datastore)"),
    ("repro/core/gpu_manager", "dispatch (gpu manager)"),
    ("repro/cluster/", "dispatch (devices)"),
    ("repro/core/scheduler", "scheduling pass"),
    ("repro/core/policies", "scheduling pass"),
    ("repro/core/queues", "scheduling pass"),
    # guard evaluation gets its own bucket (ROADMAP: "guard evaluation
    # under bursty dirty signals") — signals.py is exactly the PassGuard /
    # dirty-signal machinery, so its exclusive time answers that question
    # directly instead of vanishing into the generic pass bucket
    ("repro/core/signals", "policy guards (dirty signals)"),
    ("repro/core/estimator", "scheduling pass"),
    ("repro/core/tenancy", "scheduling pass"),
    ("repro/core/cache_manager", "cache manager"),
    ("repro/core/replacement", "cache manager"),
    ("repro/metrics/", "metrics"),
    ("repro/obs/", "observability (tracer)"),
    ("repro/sim/", "sim kernel"),
)


def _subsystem_rollup(stats) -> list[tuple[str, float, int]]:
    """Fold a ``pstats.Stats`` into (bucket, tottime, calls) rows.

    Buckets by filename against :data:`_PROFILE_BUCKETS`; everything else
    (stdlib, workload build leftovers, the profiler itself) lands in
    "other".  Uses tottime — exclusive time — so the rows sum to the run
    instead of double-counting callers.
    """
    totals: dict[str, list] = {}
    for (filename, _line, _name), (_cc, ncalls, tottime, _ct, _callers) in stats.stats.items():
        path = filename.replace("\\", "/")
        label = "other"
        for fragment, bucket in _PROFILE_BUCKETS:
            if fragment in path:
                label = bucket
                break
        row = totals.setdefault(label, [0.0, 0])
        row[0] += tottime
        row[1] += ncalls
    return sorted(
        ((label, t, calls) for label, (t, calls) in totals.items()),
        key=lambda row: -row[1],
    )


def run_profile(n_requests: int = 2000, top: int = 25) -> None:
    """cProfile the §V-A replay: top cumulative functions + subsystem rollup.

    ``make profile`` — the tool that found every hot spot so far (index
    scans, batched txns, columnar replay, pass elision, the commit-path
    residue); run it before hunting the next one.  After the per-function
    table it prints a per-subsystem rollup (commit vs dispatch vs
    scheduling pass vs metrics, exclusive time), so a PR can say "the
    commit path is now X% of the run" without hand-summing rows.
    """
    import cProfile
    import pstats

    from ..runtime import FaaSCluster, SystemConfig
    from ..traces.azure import SyntheticAzureTrace
    from ..traces.workload import build_workload

    workload = build_workload(_va_spec(n_requests), trace=SyntheticAzureTrace())
    system = FaaSCluster(SystemConfig())
    system.submit_workload(workload)
    profiler = cProfile.Profile()
    profiler.enable()
    system.run()
    profiler.disable()
    print(
        f"§V-A replay, {len(workload)} requests, "
        f"{len(system.completed)} completed — top {top} by cumulative time:"
    )
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(top)
    rollup = _subsystem_rollup(stats)
    total = sum(t for _, t, _ in rollup) or 1.0
    print("per-subsystem rollup (exclusive time):")
    for label, tottime, calls in rollup:
        print(
            f"  {label:<26} {tottime:8.3f} s  {tottime / total * 100:5.1f}%  "
            f"{calls:>9,} calls"
        )


# -- bench-check: the gate table (ROADMAP "BENCH trajectory") ------------
_MAX_DEPTH_RATIO = 3.0            # pass cost 20k-deep / 2k-deep
_REVISIONS_PER_ACTION = (0.8, 1.3)  # batched path must stay at ~1
_MIN_SWEEP_SPEEDUP_4W = 1.5       # grid speedup at 4 workers (needs >= 2 cores)
_MAX_SWEEP_RESUME_S = 1.0         # cache-hit resume of a completed sweep
_MIN_ELIDED_FRACTION = 0.30       # §V-A 2k replay: guard must engage
_MAX_FAULT_RETRIES = 8            # per-request retry bound under recoverable faults

# -- calibration-relative wall-clock gates ------------------------------
# Frozen with ~25-30% headroom over the recording run.  Every wall-clock
# threshold is a ratio against the report's own same-machine calibration
# spin, so the gates hold on slower containers instead of silently
# failing there (an absolute 2k gate of 0.111 s missed on any machine
# materially slower than the one that froze it).
#: 2k §V-A replay wall budget, in spin units: run_s ≤ this × spin_s
_MAX_2K_RUN_SPINS = 0.65
#: throughput floors, in requests per spin: req/s × spin_s ≥ these
_MIN_E2E_REQ_PER_SPIN = {"2000": 2400.0, "20000": 2400.0, "100000": 2300.0}
#: faults-disabled 2k replay floor (chaos hooks must cost ~nothing)
_MIN_FAULT_NONE_REQ_PER_SPIN = 2400.0

# -- streaming (flat-RSS) gates -----------------------------------------
#: 1M-request streaming replay peak RSS vs the 100k point (flat-memory
#: proof: a 10× size step may cost at most 1.5× the memory)
_MAX_1M_RSS_VS_100K = 1.5
#: streaming replay throughput at 100k vs the batch pipeline in the same
#: report: histogram folds, latency-log deletes and MVCC compaction are
#: real per-request work, and 1-core variance is heavy
_MIN_STREAMING_VS_BATCH_RPS = 0.55

#: 100k pass-elision gate: elision-on per-action time may exceed
#: elision-off by at most this factor (both arms best-of-2; the margin
#: absorbs residual single-core jitter — elision must not *lose*)
_MAX_ELISION_ON_VS_OFF_100K = 1.10

# -- commit-path (ephemeral-key tier) gates -----------------------------
#: 2k replay: per-action commit cost with the ephemeral tier on must be
#: at most this fraction of the tier-off cost (best-of-2 children of
#: interleaved pairs) — a ≥20% commit-cost reduction, measured on the
#: flush itself
_MAX_COMMIT_ON_VS_OFF_2K = 0.80

# -- observability (flight recorder) gates ------------------------------
#: 2k replay with the flight recorder on may cost at most this factor of
#: the tracer-off replay (sum(on) / sum(off) over interleaved pairs,
#: best-of-2 children).  The measured hook cost is ~1.5 µs/request (~2%);
#: the margin absorbs the estimator's residual jitter.
_MAX_TRACER_ON_VS_OFF = 1.05
#: tracer-off throughput floor, in requests per spin — same floor as the
#: e2e 2k replay: an uninstalled tracer is one None test per hook and
#: must not shift the baseline
_MIN_OBS_OFF_REQ_PER_SPIN = 2400.0


def _value(a, *_):
    return a


def _ratio(a, b):
    return a / b if b else math.inf


def _multicore_speedup(speedup, cores):
    """Parallel speedup on a single-core recorder is physically impossible:
    below 2 recorded cores the gate passes."""
    return speedup if (cores or 1) >= 2 else math.inf


def _within(value, bounds) -> bool:
    return bounds[0] <= value <= bounds[1]


class Gate(NamedTuple):
    """One bench-check gate: ``passes(measure(*values at paths), limit)``.

    ``message`` formats with ``a`` / ``b`` (the first / last path value),
    ``v`` (the measure) and ``limit``.
    """

    paths: tuple[str, ...]
    measure: Callable
    passes: Callable
    limit: object
    message: str

    @property
    def section(self) -> str:
        return self.paths[0].split(".")[0]


_E2E = "end_to_end.sizes"
_SPIN = "calibration.spin_s"
_THROUGHPUT = "{a} req/s × {b} s spin = {v:.1f} req/spin (floor {limit}: "
_le, _ge, _lt, _eq, _mul = operator.le, operator.ge, operator.lt, operator.eq, operator.mul

#: every bench-check gate, evaluated in order by :func:`check_bench`
GATES = (
    Gate(("pass_cost_by_depth_s.20000", "pass_cost_by_depth_s.2000"), _ratio, _le,
         _MAX_DEPTH_RATIO, "pass-cost depth scaling 20k/2k = {v:.2f}x (limit {limit}x)"),
    Gate(("write_amplification.batched.revisions_per_scheduling_action",), _value,
         _within, _REVISIONS_PER_ACTION, "batched revisions per scheduling action = {v} "
         "(expected ~1, allowed [{limit[0]}, {limit[1]}])"),
    Gate(("pass_elision.sizes.2000.elided_fraction",), _value, _ge, _MIN_ELIDED_FRACTION,
         "elided-pass fraction on the 2k §V-A replay = {v} "
         "(gate ≥ {limit}: the guard layer must engage)"),
    Gate(("pass_elision.sizes.100000.per_action_us_elision_on",
          "pass_elision.sizes.100000.per_action_us_elision_off"), _ratio, _le,
         _MAX_ELISION_ON_VS_OFF_100K, "100k pass elision loses: {a} µs/action on vs {b} "
         "off (gate ≤ {limit}× — elision must not lose)"),
    Gate(("commit_path.sizes.2000.commit_on_vs_off",), _value, _le, _MAX_COMMIT_ON_VS_OFF_2K,
         "2k commit cost with the ephemeral tier on is {v}× the tier-off cost "
         "(gate ≤ {limit}: the tier must cut per-action commit cost by ≥20%)"),
    Gate(("commit_path.sizes.2000.history_entries_on",
          "commit_path.sizes.2000.history_entries_off"), _ratio, _lt, 1.0,
         "ephemeral tier left history entries unchanged at 2k "
         "({a} on vs {b} off): the fast lane never engaged"),
    Gate((f"{_E2E}.2000.run_s", _SPIN), _ratio, _le, _MAX_2K_RUN_SPINS,
         "2k §V-A replay run_s = {a} s (gate ≤ {limit}× the report's {b} s calibration spin)"),
    *(Gate((f"{_E2E}.{size}.requests_per_sec", _SPIN), _mul, _ge, floor,
           f"{size}-request replay throughput {_THROUGHPUT}calibration-relative regression)")
      for size, floor in _MIN_E2E_REQ_PER_SPIN.items()),
    Gate(("streaming_replay.sizes.1000000.peak_rss_mb",
          "streaming_replay.sizes.100000.peak_rss_mb"), _ratio, _le, _MAX_1M_RSS_VS_100K,
         "1M streaming replay peak RSS {a} MB exceeds {limit}× the 100k point "
         "({b} MB): memory is no longer flat in request count"),
    Gate(("streaming_replay.sizes.100000.requests_per_sec",
          f"{_E2E}.100000.requests_per_sec"), _ratio, _ge, _MIN_STREAMING_VS_BATCH_RPS,
         "100k streaming replay {a} req/s fell below {limit}× the batch "
         "pipeline's {b} req/s in the same report"),
    Gate(("fault_replay.recoverable.lost",), _value, _eq, 0,
         "recoverable-fault replay lost {a} requests (the default plan must lose none)"),
    Gate(("fault_replay.recoverable.completed", "fault_replay.recoverable.requests"),
         _ratio, _ge, 1.0, "recoverable-fault replay completed {a} of {b} requests"),
    Gate(("fault_replay.recoverable.faults_injected",), _value, _ge, 1,
         "recoverable-fault replay injected no faults (the chaos plan never armed)"),
    Gate(("fault_replay.recoverable.max_retries_per_request",), _value, _le,
         _MAX_FAULT_RETRIES, "recoverable-fault replay retried one request {a} times "
         "(gate ≤ {limit}: retries must stay bounded)"),
    Gate(("fault_replay.replay_deterministic",), _value, _eq, True,
         "fault replay is not deterministic: two runs of the same plan+seed "
         "produced different decision logs"),
    Gate(("fault_replay.none.requests_per_sec", _SPIN), _mul, _ge,
         _MIN_FAULT_NONE_REQ_PER_SPIN, f"faults-disabled 2k replay throughput "
         f"{_THROUGHPUT}chaos hooks must cost nothing when disarmed)"),
    Gate(("observability.tracer_on_vs_off",), _value, _le, _MAX_TRACER_ON_VS_OFF,
         "2k replay with the flight recorder on costs {v}× the tracer-off replay "
         "(gate ≤ {limit}: tracing must stay within its ≤5% budget)"),
    Gate(("observability.trace_valid", "observability.trace_validation_errors"), _value,
         _eq, True, "traced 2k replay produced an invalid Chrome trace ({b})"),
    Gate(("observability.decisions_identical",), _value, _eq, True,
         "tracer-on and tracer-off replays produced different decision logs "
         "(tracing must not change scheduling)"),
    Gate(("observability.requests_per_sec_off", _SPIN), _mul, _ge, _MIN_OBS_OFF_REQ_PER_SPIN,
         f"tracer-off 2k replay throughput {_THROUGHPUT}the uninstalled tracer must cost "
         "nothing)"),
    Gate(("sweep_scaling.merged_payload_identical",), _value, _eq, True,
         "sweep merged payloads differ across worker counts/resume "
         "(sharded and sequential grids must be byte-identical)"),
    Gate(("sweep_scaling.resume.executed",), _value, _eq, 0, "sweep resume re-executed {a} "
         "cells (a completed sweep must be served entirely from the store)"),
    Gate(("sweep_scaling.resume.wall_s",), _value, _lt, _MAX_SWEEP_RESUME_S,
         "sweep resume took {a} s (cache-hit resume must finish in < {limit} s)"),
    Gate(("sweep_scaling.speedup_4w", "sweep_scaling.cpu_count"), _multicore_speedup,
         _ge, _MIN_SWEEP_SPEEDUP_4W,
         "sweep speedup at 4 workers = {a}x on {b} cores (gate {limit}x)"),
)

_MISSING = object()


def _lookup(report: dict, path: str):
    try:
        return functools.reduce(operator.getitem, path.split("."), report)
    except (KeyError, TypeError):
        return _MISSING


def _evaluate(report: dict):
    """Yield (gate, measured value, problem or None) for every gate; a
    missing section or key is the problem and the value is None."""
    for gate in GATES:
        values = [_lookup(report, p) for p in gate.paths]
        missing = [p for p, v in zip(gate.paths, values) if v is _MISSING]
        if missing:
            section = missing[0].split(".")[0]
            yield gate, None, (f"{section} section missing" if section not in report
                               else f"{missing[0]} missing")
            continue
        value = gate.measure(*values)
        problem = None if gate.passes(value, gate.limit) else gate.message.format(
            a=values[0], b=values[-1], v=value, limit=gate.limit)
        yield gate, value, problem


def check_bench(path: str | None = None) -> list[str]:
    """Validate a committed ``BENCH_scheduler.json`` against :data:`GATES`;
    returns the list of violations (empty = pass), a missing section or
    key reported as missing.
    """
    report_path = Path(path) if path else _repo_root() / DEFAULT_OUTPUT
    report = json.loads(report_path.read_text())
    problems = [problem for _, _, problem in _evaluate(report) if problem]
    return list(dict.fromkeys(problems))


if __name__ == "__main__":
    print(json.dumps(_child(json.loads(sys.argv[1]))))
