"""Gateway-level workload replay: the full Fig. 2 path at trace scale.

The main experiment runner submits :class:`InferenceRequest` objects
straight to the Scheduler — that is what the paper measures (function
latency excludes container management, which both schedulers share).  This
module replays the same workload through the *entire* FaaS front-end
instead: every workload function is registered via the Gateway (Dockerfile
flag parsing, ML-API interception, container pools, Watchdog), and every
trace invocation becomes a Gateway call.

Useful for end-to-end validation (the scheduler-level and gateway-level
runs must agree on cache behaviour) and for studying FaaS-layer overheads
(cold starts, container contention) that the paper factors out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..faas.gateway import Gateway
from ..faas.spec import FunctionSpec
from ..faas.watchdog import Invocation
from ..metrics.summary import RunSummary, summarize
from ..runtime.config import SystemConfig, streaming_config
from ..runtime.system import FaaSCluster
from ..traces.azure import SyntheticAzureTrace
from ..traces.workload import (
    Workload,
    WorkloadSpec,
    assign_architectures,
    build_workload,
    build_workload_streaming,
)

__all__ = [
    "GatewayReplay",
    "replay_through_gateway",
    "replay_streaming",
    "replay_traced",
]


@dataclass
class GatewayReplay:
    """Results of a gateway-level replay."""

    system: FaaSCluster
    gateway: Gateway
    workload: Workload
    invocations: list[Invocation] = field(default_factory=list)

    @property
    def completed_invocations(self) -> list[Invocation]:
        return [inv for inv in self.invocations if inv.completed_at is not None]

    def avg_invocation_latency(self) -> float:
        done = self.completed_invocations
        if not done:
            raise ValueError("no completed invocations")
        return float(np.mean([inv.latency for inv in done]))

    def avg_gpu_latency(self) -> float:
        """Scheduler-visible latency (excludes container/Watchdog overhead)."""
        if not self.system.metrics.completed_count:
            raise ValueError("no completed GPU requests")
        return summarize(self.system.metrics, self.system.cluster).avg_latency_s

    def faas_overhead(self) -> float:
        """Mean per-invocation overhead added by the FaaS layer."""
        return self.avg_invocation_latency() - self.avg_gpu_latency()

    def cache_miss_ratio(self) -> float:
        metrics = self.system.metrics
        return metrics.miss_count / metrics.completed_count


def replay_through_gateway(
    spec: WorkloadSpec | None = None,
    *,
    config: SystemConfig | None = None,
    trace: SyntheticAzureTrace | None = None,
    max_replicas: int = 32,
    warmup_s: float = 5.0,
) -> GatewayReplay:
    """Register the workload's functions and replay its invocations.

    Containers are pre-built during ``warmup_s`` (registration pays the
    image build once, as in a real deployment); invocation arrival times
    are shifted by the warm-up so the GPU-side workload matches the paper's
    timing.
    """
    spec = spec or WorkloadSpec()
    trace = trace or SyntheticAzureTrace()
    workload = build_workload(spec, trace=trace)
    system = FaaSCluster(config or SystemConfig())
    gateway = Gateway(system)

    arch_of = assign_architectures(workload.function_ids)
    for fid in workload.function_ids:
        fn = gateway.register(
            FunctionSpec(
                name=fid,
                model_architecture=arch_of[fid],
                max_replicas=max_replicas,
            )
        )
        # the gateway minted its own model instance; align the workload's
        # cache-item identity with it so per-function caching matches
        workload.instances[fid] = fn.model_handle.instance
    system.run(until=warmup_s)  # image builds + first replicas

    replay = GatewayReplay(system=system, gateway=gateway, workload=workload)

    def fire(fid: str) -> None:
        replay.invocations.append(gateway.invoke(fid))

    # gateway invocations need only (time, function name): feed the
    # workload's columns straight into the bulk scheduler — no
    # InferenceRequest objects are materialized on this path at all
    fids = workload.function_ids
    system.sim.schedule_many(
        (warmup_s + workload.arrival_times).tolist(),
        fire,
        ((fids[i],) for i in workload.function_index.tolist()),
    )
    system.run()
    return replay


def replay_streaming(
    spec: WorkloadSpec | None = None,
    *,
    config: SystemConfig | None = None,
    trace: SyntheticAzureTrace | None = None,
    minutes_per_chunk: int = 8,
    low_water: int = 64,
) -> tuple[RunSummary, FaaSCluster]:
    """Scheduler-level §V-A replay at flat RSS: the streaming pipeline.

    Chunked workload columns (:func:`build_workload_streaming`) feed the
    simulator through :meth:`FaaSCluster.submit_workload_streaming`, the
    metrics collector folds completions into fixed-size histograms, and
    MVCC autocompaction bounds the Datastore's history — so peak memory is
    set by the chunk size and cluster state, not the request count.  The
    default ``config`` is :func:`~repro.runtime.config.streaming_config`.

    Returns the run summary plus the drained system for drill-down.
    """
    spec = spec or WorkloadSpec()
    trace = trace or SyntheticAzureTrace()
    workload = build_workload_streaming(spec, trace=trace)
    system = FaaSCluster(config if config is not None else streaming_config())
    system.submit_workload_streaming(
        workload, minutes_per_chunk=minutes_per_chunk, low_water=low_water
    )
    system.run()
    summary = summarize(
        system.metrics,
        system.cluster,
        policy=system.config.policy,
        working_set=spec.working_set,
        top_model=workload.top_model_id,
    )
    system.metrics.close_spill()
    return summary, system


def replay_traced(
    n_requests: int = 2000,
    *,
    seed: int = 0,
    config: SystemConfig | None = None,
    out: str = "trace.json",
    spill: str | None = None,
) -> tuple[RunSummary, FaaSCluster, str]:
    """Scheduler-level §V-A replay with the flight recorder on, exported
    as a Chrome trace-event file (open ``out`` in Perfetto / chrome://tracing).

    ``config`` overrides are honoured but the tracer is forced on (that is
    the point of this entry); pass ``spill`` to tee decimated request
    records to a JSONL file alongside the ring snapshot.

    Returns ``(summary, system, trace_path)``; the drained ``system`` keeps
    its :class:`~repro.obs.FlightRecorder` on ``system.tracer`` for
    programmatic drill-down.
    """
    from dataclasses import replace

    from ..obs.export import write_chrome_trace

    base = config or SystemConfig()
    cfg = replace(
        base, tracer="flight", trace_spill_path=spill, seed=base.seed or seed
    )
    spec = WorkloadSpec(
        working_set=15, minutes=max(1, round(n_requests / 325)), seed=seed
    )
    workload = build_workload(spec, trace=SyntheticAzureTrace())
    system = FaaSCluster(cfg)
    system.submit_workload(workload)
    system.run()
    assert system.tracer is not None
    system.tracer.close()
    path = write_chrome_trace(system.tracer, out)
    summary = summarize(
        system.metrics,
        system.cluster,
        policy=cfg.policy,
        working_set=spec.working_set,
        top_model=workload.top_model_id,
    )
    return summary, system, path
