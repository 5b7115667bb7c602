"""One stepped replay through the public API, with its correctness checks.

The replay advances ``FaaSCluster.run(until=...)`` over fixed slices of
the arrival horizon, then drains and summarizes.  Only the calls into the
system are timed; the decision-log digest and queue sampling between
slices sit outside the timed segments.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

from repro.core.decisions import DecisionKind
from repro.metrics.summary import RunSummary, summarize

from .workloads import Setup

#: slices of the arrival horizon; a multiple of 4 so quarters align
STEPS = 64

_DISPATCH_KINDS = frozenset(
    (DecisionKind.DISPATCH_HIT, DecisionKind.DISPATCH_MISS, DecisionKind.DISPATCH_LOCAL)
)
_DROP_KINDS = frozenset((DecisionKind.TIMEOUT, DecisionKind.LOST))


class DecisionDigest:
    """Incremental SHA-256 of a scheduler's decision log.

    Request ids come from a process-global counter, so each id is hashed
    relative to the first decided request's id: two replays of one
    workload hash equal whatever ran before them in the process.  The
    log is a bounded ring, so :meth:`update` must run before it wraps;
    it hashes only the entries appended since the previous call.
    """

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self._last = None
        self._base: int | None = None
        self.dispatches = 0
        self.drops = 0

    def update(self, log) -> None:
        it = iter(log)
        if self._last is not None:
            for d in it:
                if d is self._last:
                    break
            else:
                raise RuntimeError("decision log wrapped between digest updates")
        h = self._hash
        for d in it:
            if self._base is None:
                self._base = d.request_id
            h.update(
                repr(
                    (d.time_s, d.kind.value, d.request_id - self._base,
                     d.model_id, d.gpu_id, d.visits)
                ).encode()
            )
            if d.kind in _DISPATCH_KINDS:
                self.dispatches += 1
            elif d.kind in _DROP_KINDS:
                self.drops += 1
            self._last = d

    def hexdigest(self) -> str:
        return self._hash.hexdigest()[:16]


@dataclass
class RepResult:
    submitted: int
    completed: int
    lost: int
    #: wall time of submit + every run() slice + drain + summarize
    wall_s: float
    summarize_s: float
    slice_wall: list[float]
    slice_done: list[int]
    depths: list[int]
    summary: RunSummary
    sha: str
    events: int
    #: failed correctness checks, one message each
    failures: list[str] = field(default_factory=list)

    def quarter(self, which: int) -> tuple[float, int]:
        """(wall seconds, completions) of one quarter of the horizon."""
        q = len(self.slice_wall) // 4
        part = slice(which * q, (which + 1) * q)
        return sum(self.slice_wall[part]), sum(self.slice_done[part])


def run_rep(
    setup: Setup,
    *,
    summarize_fn: Callable[..., RunSummary] = summarize,
) -> RepResult:
    """Replay ``setup``'s workload in ``STEPS`` slices, drain, summarize,
    and check the outputs (failed checks land in ``failures``)."""
    system, workload, defn = setup.system, setup.workload, setup.defn
    metrics, scheduler = system.metrics, system.scheduler
    horizon = workload.duration_s
    submitted = len(workload)
    digest = DecisionDigest()

    t0 = perf_counter()
    if defn.streaming:
        system.submit_workload_streaming(workload)
    else:
        system.submit_workload(workload)
    wall = perf_counter() - t0

    slice_wall: list[float] = []
    slice_done: list[int] = []
    depths: list[int] = []
    done_before = metrics.completed_count
    for k in range(1, STEPS + 1):
        t0 = perf_counter()
        system.run(until=horizon * k / STEPS)
        dt = perf_counter() - t0
        wall += dt
        done = metrics.completed_count
        slice_wall.append(dt)
        slice_done.append(done - done_before)
        done_before = done
        depths.append(len(scheduler.global_queue))
        digest.update(scheduler.decisions)

    t0 = perf_counter()
    system.run()
    t1 = perf_counter()
    summary = summarize_fn(
        metrics,
        system.cluster,
        policy=system.config.policy,
        working_set=setup.spec.working_set,
        top_model=workload.top_model_id,
    )
    t2 = perf_counter()
    wall += t2 - t0
    digest.update(scheduler.decisions)

    completed = metrics.completed_count
    lost = metrics.lost_count
    failures: list[str] = []

    def check(ok: bool, message: str) -> None:
        if not ok:
            failures.append(message)

    check(completed + lost == submitted,
          f"{completed} completed + {lost} lost != {submitted} submitted")
    # only the fault workload has deadlines and retry budgets to drop by
    check(defn.faults or lost == 0, f"{lost} requests lost without deadline or faults")
    check(summary.completed_requests == completed,
          f"summary counts {summary.completed_requests} completions, collector {completed}")
    check(summary.lost_requests == lost == scheduler.lost_count,
          f"lost disagree: summary {summary.lost_requests}, collector {lost}, "
          f"scheduler {scheduler.lost_count}")
    check(len(system.sim) == 0, f"{len(system.sim)} events left after drain")
    check(len(scheduler.global_queue) == 0, "global queue not empty after drain")
    check(digest.dispatches == scheduler.dispatched_count,
          f"{digest.dispatches} dispatch decisions != {scheduler.dispatched_count} dispatches")
    check(digest.drops == lost, f"{digest.drops} drop decisions != {lost} lost")
    for name in ("cache_miss_ratio", "false_miss_ratio"):
        value = getattr(summary, name)
        check(0.0 <= value <= 1.0, f"{name}={value} outside [0, 1]")
    check(summary.avg_latency_s > 0.0 and summary.p99_latency_s > 0.0,
          f"latency mean {summary.avg_latency_s}, p99 {summary.p99_latency_s}")

    return RepResult(
        submitted=submitted,
        completed=completed,
        lost=lost,
        wall_s=wall,
        summarize_s=t2 - t1,
        slice_wall=slice_wall,
        slice_done=slice_done,
        depths=depths,
        summary=summary,
        sha=digest.hexdigest(),
        events=system.sim.processed_events,
        failures=failures,
    )
