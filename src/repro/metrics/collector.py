"""Metrics collection for experiment runs.

The collector observes two event streams:

* completed requests (from the GPU Managers) — latency, hit/miss,
  false-miss outcomes;
* cache events (from the Cache Manager) — load/evict transitions, from
  which it integrates the *time-weighted* number of GPUs caching each
  model, the quantity behind Fig. 6's "average number of duplicates of the
  top one model".

Every completion updates exact running counters (misses, false misses,
SLA totals/violations, retries, per-model invocations — so queries like
:meth:`MetricsCollector.most_invoked_model` cost O(models), never a
rescan) and appends one ``(latency, queueing, architecture code, hit)``
row to the **exact window**.  :func:`~repro.metrics.summary.summarize`
reduces the window with vectorized NumPy.

The window is bounded by ``exact_cap``:

* ``exact_cap=None`` (the default) never drops it, and the collector also
  keeps the request objects in ``completed`` / ``lost`` for drill-down —
  every summary is exact.
* An integer cap keeps memory **flat**: no request objects are retained,
  and once the run outgrows the cap the window is dropped — its rows fold
  in order, then every later completion folds, into fixed-size
  :class:`~repro.metrics.histogram.LogHistogram` stores (overall and per
  architecture) plus a compensated queueing-delay sum.  Up to the cap the
  summary is the unbounded one, byte for byte; past it, quantiles come
  from the histograms within the documented ~1 % relative bound (counts,
  rates and ratios stay exact, means are compensated sums).

``spill_to`` optionally tees every completion row to a CSV on disk for
drill-down, since a capped collector keeps none of them in memory.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from ..core.request import InferenceRequest
from ..sim import Simulator
from .histogram import LogHistogram

__all__ = ["MetricsCollector", "ExactWindow"]


@dataclass(frozen=True)
class ExactWindow:
    """Typed views of the collector's exact-window rows, in completion order."""

    latency: np.ndarray       # float64, completed - arrival
    queueing: np.ndarray      # float64, dispatched - arrival (NaN if never)
    architecture: np.ndarray  # int32 codes into MetricsCollector.architectures
    cache_hit: np.ndarray     # int8: 1 hit / 0 miss / -1 unknown

    def __len__(self) -> int:
        return int(self.latency.shape[0])


class _ArchStream:
    """Fixed-size per-architecture fold target (breakdown past the cap)."""

    __slots__ = ("hist", "misses")

    def __init__(self) -> None:
        self.hist = LogHistogram()
        self.misses = 0


class _RowSpill:
    """Lazily-opened CSV tee of completion rows (drill-down for a capped collector)."""

    __slots__ = ("path", "_fh")

    _HEADER = "arrival,dispatched,completed,model,gpu,architecture,cache_hit,false_miss,sla_s\n"

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh = None

    def write(self, request: InferenceRequest) -> None:
        fh = self._fh
        if fh is None:
            fh = self._fh = open(self.path, "w", buffering=1 << 16)
            fh.write(self._HEADER)
        hit = request.cache_hit
        fh.write(
            f"{request.arrival_time!r},"
            f"{'' if request.dispatched_at is None else repr(request.dispatched_at)},"
            f"{request.completed_at!r},"
            f"{request.model_id},{request.gpu_id or '?'},"
            f"{request.model.architecture},"
            f"{-1 if hit is None else int(hit)},"
            f"{int(request.false_miss)},"
            f"{'' if request.sla_s is None else repr(request.sla_s)}\n"
        )

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class MetricsCollector:
    """Accumulates per-request and cache-residency statistics."""

    def __init__(
        self,
        sim: Simulator,
        *,
        exact_cap: int | None = None,
        spill_to: str | None = None,
    ) -> None:
        self.sim = sim
        #: exact-window bound; None keeps every row and the request objects
        self.exact_cap = exact_cap
        self.completed: list[InferenceRequest] = []
        self.started_at = sim.now
        # duplicates tracking: current residency count and its time integral
        self._dup_count: dict[str, int] = defaultdict(int)
        self._dup_integral: dict[str, float] = defaultdict(float)
        self._dup_since: dict[str, float] = {}
        self._dup_peak: dict[str, int] = defaultdict(int)
        self.cache_events: int = 0
        # running per-completion counters (no rescans of `completed`)
        self._n = 0
        self.miss_count = 0
        self.false_miss_count = 0
        self.sla_total = 0
        self.sla_violations = 0
        self._invocations: dict[str, int] = {}  # model_id -> completions
        #: architecture names, indexed by the window's architecture codes
        self.architectures: list[str] = []
        self._arch_codes: dict[str, int] = {}
        # availability accounting (chaos/robustness): lost requests,
        # failure-retry totals, and open-fault → repair-time tracking
        self.lost: list[InferenceRequest] = []
        self._lost_n = 0
        self.lost_reasons: dict[str, int] = {}
        self.retries_total = 0
        self.faults_injected = 0
        self._open_faults: dict[tuple[str, str], float] = {}
        #: optional flight recorder (installed by the runtime when tracing
        #: is on); None keeps every hook to one identity test
        self.tracer = None
        #: (fault kind, target, repair seconds) per healed fault
        self.repairs: list[tuple[str, str, float]] = []
        #: one (latency, queueing, arch code, hit code) row per completion;
        #: None once the run outgrew ``exact_cap``
        self._window: list[tuple] | None = []
        self._window_cache: ExactWindow | None = None
        # fold targets, filled only once the window is dropped
        self._lat_hist = LogHistogram()
        self._arch_stats: dict[int, _ArchStream] = {}
        self._queue_sum = 0.0
        self._queue_sum_c = 0.0
        self._spill = _RowSpill(spill_to) if spill_to else None

    # ------------------------------------------------------------------
    # Observers
    # ------------------------------------------------------------------
    def on_complete(self, request: InferenceRequest) -> None:
        completed = request.completed_at
        if completed is None:
            raise ValueError(f"request {request.request_id} has not completed")
        if self.exact_cap is None:
            self.completed.append(request)
        if request.retries:
            self.retries_total += request.retries
        model_id = request.model_id
        self._invocations[model_id] = self._invocations.get(model_id, 0) + 1
        hit = request.cache_hit
        if hit is False:
            self.miss_count += 1
        if request.false_miss:
            self.false_miss_count += 1
        arrival = request.arrival_time
        lat = completed - arrival
        sla = request.sla_s
        if sla is not None:
            self.sla_total += 1
            if lat > sla:
                self.sla_violations += 1
        dispatched = request.dispatched_at
        arch = request.model.architecture
        code = self._arch_codes.get(arch)
        if code is None:
            code = self._arch_codes[arch] = len(self.architectures)
            self.architectures.append(arch)
        row = (
            lat,
            (dispatched - arrival) if dispatched is not None else np.nan,
            code,
            -1 if hit is None else (1 if hit else 0),
        )
        self._n += 1
        window = self._window
        if window is None:
            self._fold(row)
        else:
            window.append(row)
            cap = self.exact_cap
            if cap is not None and len(window) > cap:
                self._drop_window()
        if self._spill is not None:
            self._spill.write(request)

    def _fold(self, row: tuple) -> None:
        """Fold one window row into the fixed-size histogram state."""
        lat, queue, code, hit = row
        self._lat_hist.record(lat)
        stats = self._arch_stats.get(code)
        if stats is None:
            stats = self._arch_stats[code] = _ArchStream()
        stats.hist.record(lat)
        if hit == 0:
            stats.misses += 1
        s = self._queue_sum
        t = s + queue
        self._queue_sum_c += (s - t) + queue if abs(s) >= abs(queue) else (queue - t) + s
        self._queue_sum = t

    def _drop_window(self) -> None:
        """The run outgrew ``exact_cap``: fold the window's rows in order."""
        window = self._window
        self._window = self._window_cache = None
        for row in window:
            self._fold(row)

    def exact_window(self) -> ExactWindow | None:
        """Typed views of the exact window, or ``None`` once outgrown.

        Cached until the next completion, so the several summarize /
        breakdown consumers of one finished run convert it exactly once.
        """
        window = self._window
        if window is None:
            return None
        cached = self._window_cache
        if cached is not None and len(cached) == self._n:
            return cached
        if window:
            lat, queue, arch, hit = zip(*window)
        else:
            lat = queue = arch = hit = ()
        cached = self._window_cache = ExactWindow(
            latency=np.asarray(lat, dtype=np.float64),
            queueing=np.asarray(queue, dtype=np.float64),
            architecture=np.asarray(arch, dtype=np.int32),
            cache_hit=np.asarray(hit, dtype=np.int8),
        )
        return cached

    def latency_histogram(self) -> LogHistogram:
        """Latency histogram over every completion so far.

        Past the cap this is the folded histogram itself; inside the
        window it is folded afresh from the window, in completion order,
        so it is the same histogram a capped collector would hold.
        """
        if self._window is None:
            return self._lat_hist
        hist = LogHistogram()
        for row in self._window:
            hist.record(row[0])
        return hist

    @property
    def queueing_sum(self) -> float:
        """Compensated sum of the folded queueing delays (past the cap)."""
        return self._queue_sum + self._queue_sum_c

    def close_spill(self) -> None:
        """Flush and close the row-spill CSV, if one was configured."""
        if self._spill is not None:
            self._spill.close()

    @property
    def spill_path(self) -> str | None:
        return self._spill.path if self._spill is not None else None

    def on_cache_event(self, kind: str, gpu_id: str, model_id: str, now: float) -> None:
        self.cache_events += 1
        if kind == "load":
            self._advance(model_id, now)
            self._dup_count[model_id] += 1
            self._dup_peak[model_id] = max(self._dup_peak[model_id], self._dup_count[model_id])
        elif kind == "evict":
            self._advance(model_id, now)
            self._dup_count[model_id] -= 1
            if self._dup_count[model_id] < 0:
                raise RuntimeError(f"negative residency for {model_id}")
        # "use" events do not change residency

    def on_lost(self, request: InferenceRequest, reason: str) -> None:
        """A request left the system without completing (deadline timeout
        or exhausted retry budget)."""
        self._lost_n += 1
        if self.exact_cap is None:
            self.lost.append(request)
        self.lost_reasons[reason] = self.lost_reasons.get(reason, 0) + 1
        if request.retries:
            self.retries_total += request.retries
        if self.tracer is not None:
            self.tracer.lost(reason, request.request_id)

    def on_fault(self, kind: str, target: str = "") -> None:
        """A fault took effect (chaos injector / health watchdog)."""
        self.faults_injected += 1
        self._open_faults[(kind, target)] = self.sim.now
        if self.tracer is not None:
            self.tracer.fault(kind, target)

    def on_fault_cleared(self, kind: str, target: str = "") -> None:
        """A fault healed; closes the matching open fault for MTTR."""
        start = self._open_faults.pop((kind, target), None)
        if start is not None:
            self.repairs.append((kind, target, self.sim.now - start))
        if self.tracer is not None:
            self.tracer.fault_cleared(kind, target)

    @property
    def lost_count(self) -> int:
        return self._lost_n

    def mean_mttr(self) -> float:
        """Mean time-to-repair over every healed fault (0.0 if none)."""
        if not self.repairs:
            return 0.0
        return sum(t for _, _, t in self.repairs) / len(self.repairs)

    def mttr_by_kind(self) -> dict[str, float]:
        """Per-fault-kind mean time-to-repair (healed faults only)."""
        sums: dict[str, list[float]] = {}
        for kind, _, t in self.repairs:
            sums.setdefault(kind, []).append(t)
        return {kind: sum(ts) / len(ts) for kind, ts in sorted(sums.items())}

    def _advance(self, model_id: str, now: float) -> None:
        since = self._dup_since.get(model_id, self.started_at)
        self._dup_integral[model_id] += self._dup_count[model_id] * (now - since)
        self._dup_since[model_id] = now

    @property
    def completed_count(self) -> int:
        """Completions so far (O(1); what the timeline sampler polls)."""
        return self._n

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def average_duplicates(self, model_id: str, horizon: float | None = None) -> float:
        """Time-averaged number of GPUs caching ``model_id`` (Fig. 6)."""
        end = horizon if horizon is not None else self.sim.now
        duration = end - self.started_at
        if duration <= 0:
            return 0.0
        since = self._dup_since.get(model_id, self.started_at)
        integral = self._dup_integral.get(model_id, 0.0)
        integral += self._dup_count.get(model_id, 0) * (end - since)
        return integral / duration

    def peak_duplicates(self, model_id: str) -> int:
        return self._dup_peak.get(model_id, 0)

    def current_duplicates(self, model_id: str) -> int:
        return self._dup_count.get(model_id, 0)

    def invocations(self, model_id: str) -> int:
        """Completed invocations of one model (running counter, O(1))."""
        return self._invocations.get(model_id, 0)

    def most_invoked_model(self) -> str | None:
        """Model instance with the most completed invocations (the "top one
        model" of Fig. 6).

        O(models) off the running counters — the seed walked the whole
        completed list on every call.  Ties break to the lexicographically
        smallest model id, exactly as the rescan did.
        """
        if not self._invocations:
            return None
        counts = self._invocations
        return max(sorted(counts), key=lambda m: counts[m])
