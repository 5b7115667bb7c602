"""Paper-literal algorithms kept as test oracles.

The literal algorithms that production code was optimised from live here
rather than behind runtime flags; the parity suites (and the bench's
reference arms) compare production against them:

* :func:`literal_pass_engine` — §IV-A's always-pass scheduler loop.  It
  patches a built :class:`~repro.runtime.FaaSCluster` in place, before
  any workload is submitted, and returns it.
* :func:`object_walk_summary` / :func:`object_walk_breakdown` — the
  evaluation metrics (§V) computed by walking the request objects an
  unbounded collector (``exact_cap=None``) retains.
* :func:`build_workload_reference` — the seed's per-request §V-A.1
  workload extraction loop.
* :func:`literal_write_path` — the control plane's Datastore writes
  committed one revision per put, with no shared write batch.  Like
  :func:`literal_pass_engine` it patches a built system in place.

Import as ``from oracles import literal_pass_engine``: pytest puts
``tests/`` on ``sys.path`` through ``tests/conftest.py``, and out-of-
pytest callers add it themselves.
"""

from __future__ import annotations

import numpy as np

from repro.core.request import InferenceRequest
from repro.metrics.summary import RunSummary
from repro.traces.azure import SyntheticAzureTrace
from repro.traces.workload import Workload, WorkloadSpec, _extract

__all__ = [
    "build_workload_reference",
    "literal_pass_engine",
    "literal_write_path",
    "object_walk_breakdown",
    "object_walk_summary",
]


def literal_pass_engine(system):
    """Switch ``system``'s scheduler to the pre-elision always-pass loop.

    §IV-A's rule verbatim: run a pass whenever some GPU is idle and some
    request waits (global or local), and keep re-running while the last
    pass made progress and that still holds.  No guard is consulted, no
    pass is elided (``passes_elided`` stays 0), and ``pass_work_remaining``
    is None so policies walk every idle GPU.  The loop carries no tracer
    or explain hooks, so an observed system is refused.
    """
    sched = system.scheduler
    if sched._tracer is not None or sched.explain is not None:
        raise ValueError("literal_pass_engine runs unobserved: build the system "
                         'with tracer="null" and trace_decisions=False')
    cluster = sched.cluster
    global_queue = sched.global_queue
    local_queues = sched.local_queues

    def waiting() -> bool:
        return len(global_queue) != 0 or local_queues.total() != 0

    def run_policy() -> None:
        if sched._scheduling:
            return
        if not cluster.idle_gpus() or not waiting():
            return
        sched._scheduling = True
        try:
            while True:
                sched.passes_executed += 1
                if not sched.policy.schedule_pass(sched):
                    break
                if not cluster.idle_gpus() or not waiting():
                    break
        finally:
            sched._scheduling = False

    sched._run_policy = run_policy
    sched.pass_work_remaining = None
    return system


def literal_write_path(system):
    """Switch ``system``'s Datastore to the literal one-revision-per-put path.

    Every client put and delete then commits at once as its own revision
    (and its own watch notification) instead of joining the shared
    :class:`~repro.datastore.batch.WriteBatch`.  Call it on a freshly built
    system, before any run writes: whatever the batch still holds is
    committed first, so reads never miss a pending write.
    """
    system.datastore.flush()
    system.datastore.batched = False
    return system


def _latencies(requests: list[InferenceRequest]) -> np.ndarray:
    return np.array([r.latency for r in requests], dtype=float)


def object_walk_breakdown(collector) -> dict[str, dict[str, float]]:
    """Per-architecture count, mean/p99 latency and miss ratio, by walking
    ``collector.completed``."""
    groups: dict[str, list[InferenceRequest]] = {}
    for r in collector.completed:
        groups.setdefault(r.model.architecture, []).append(r)
    out: dict[str, dict[str, float]] = {}
    for arch, reqs in sorted(groups.items()):
        lat = _latencies(reqs)
        misses = sum(1 for r in reqs if r.cache_hit is False)
        out[arch] = {
            "count": float(len(reqs)),
            "avg_latency_s": float(lat.mean()),
            "p99_latency_s": float(np.percentile(lat, 99)),
            "miss_ratio": misses / len(reqs),
        }
    return out


def object_walk_summary(
    collector,
    cluster,
    *,
    policy: str = "?",
    working_set: int = 0,
    horizon: float | None = None,
    top_model: str | None = None,
) -> RunSummary:
    """The full :class:`RunSummary`, request-level quantities computed by
    walking ``collector.completed`` and ``collector.lost``.

    Needs a collector built with ``exact_cap=None`` (the only one that
    keeps request objects).  Fault, repair and residency numbers are not
    per-request and are read off the collector, as production does.
    """
    reqs = collector.completed
    end = horizon if horizon is not None else collector.sim.now
    duration = max(end - collector.started_at, 1e-12)
    if not reqs:
        raise ValueError("no completed requests to summarize")
    lat = _latencies(reqs)
    queueing_mean = float(np.mean([r.queueing_delay for r in reqs]))
    misses = sum(1 for r in reqs if r.cache_hit is False)
    false_misses = sum(1 for r in reqs if r.false_miss)
    sla_reqs = [r for r in reqs if r.sla_s is not None]
    n_violations = sum(1 for r in sla_reqs if not r.met_sla)
    sla_violations = n_violations / len(sla_reqs) if sla_reqs else 0.0
    top = top_model if top_model is not None else collector.most_invoked_model()
    sm = float(np.mean([g.sm_utilization(horizon=duration) for g in cluster.gpus]))
    return RunSummary(
        policy=policy,
        working_set=working_set,
        completed_requests=len(reqs),
        avg_latency_s=float(lat.mean()),
        latency_variance=float(lat.var(ddof=0)),
        p50_latency_s=float(np.percentile(lat, 50)),
        p99_latency_s=float(np.percentile(lat, 99)),
        cache_miss_ratio=misses / len(reqs),
        sm_utilization=sm,
        false_miss_ratio=false_misses / len(reqs),
        avg_duplicates_top_model=(
            collector.average_duplicates(top, horizon=end) if top is not None else 0.0
        ),
        top_model=top,
        avg_queueing_s=queueing_mean,
        horizon_s=duration,
        sla_violation_ratio=sla_violations,
        lost_requests=len(collector.lost),
        total_retries=int(collector.retries_total),
        goodput_rps=(len(reqs) - n_violations) / duration,
        faults_injected=int(collector.faults_injected),
        mean_mttr_s=float(collector.mean_mttr()),
    )


def build_workload_reference(
    spec: WorkloadSpec | None = None,
    *,
    trace: SyntheticAzureTrace | None = None,
    tenant: str = "default",
) -> Workload:
    """The seed repository's per-request extraction loop, retained verbatim.

    Builds one :class:`InferenceRequest` at a time in Python — the path the
    columnar :func:`~repro.traces.build_workload` must reproduce byte for
    byte.  Kept as executable documentation, as the parity baseline, and
    as the bench's "pre-vectorization" workload generator.
    """
    spec = spec or WorkloadSpec()
    trace = trace or SyntheticAzureTrace()
    function_ids, normalized, instances, rng = _extract(spec, trace, tenant)

    requests: list[InferenceRequest] = []
    arrivals_all: list[float] = []
    fn_all: list[int] = []
    for m in range(spec.minutes):
        fn_indices = np.repeat(np.arange(len(function_ids)), normalized[:, m])
        rng.shuffle(fn_indices)
        arrivals = np.sort(rng.uniform(60.0 * m, 60.0 * (m + 1), size=len(fn_indices)))
        for t, fi in zip(arrivals, fn_indices):
            fid = function_ids[fi]
            requests.append(
                InferenceRequest(
                    function_name=fid,
                    model=instances[fid],
                    arrival_time=float(t),
                    batch_size=spec.batch_size,
                    tenant=tenant,
                    sla_s=spec.sla_s,
                )
            )
            arrivals_all.append(float(t))
            fn_all.append(int(fi))
    workload = Workload(
        spec=spec,
        instances=instances,
        counts=normalized,
        function_ids=function_ids,
        arrival_times=np.array(arrivals_all, dtype=np.float64),
        function_index=np.array(fn_all, dtype=np.int64),
        tenant=tenant,
    )
    workload._requests = requests  # already materialized, the hard way
    return workload
