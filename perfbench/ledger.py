"""Outside-in per-layer cost ledger.

Every span is a wrapper the benchmark installs, at class level, around a
public function of one layer; nothing inside ``src/`` is instrumented.
A span's self time is its wall time minus the wall time of the spans it
encloses, so the layers' self times partition the traced wall time.

Class-level installation matters: ``Datastore.__init__`` binds
``self.flush`` into its post-event closure and ``FaaSCluster`` rebinds each
GPU manager's ``on_idle`` to ``scheduler.on_gpu_idle`` while it is built,
so an instance patch applied afterwards would be bypassed.  Install the
ledger before building the system.

What the ledger cannot see: the simulator's event loop runs the GPU
lifecycle handlers (load done, inference start/finish), deadline timers,
lease expiries, heartbeats, fault-injector handlers and the post-event
hooks directly, and none of them has a public entry point.  Their cost is
part of ``sim`` self time, not of their owning layers.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Iterator

from repro.core.cache_manager import CacheManager
from repro.core.gpu_manager import GPUManager
from repro.core.policies import SchedulingPolicy
from repro.core.scheduler import Scheduler
from repro.datastore.client import Datastore
from repro.datastore.kv import KVStore
from repro.datastore.lease import Lease, LeaseManager
from repro.metrics.collector import MetricsCollector
from repro.runtime import FaaSCluster
from repro.sim import Simulator
from repro.traces.workload import StreamingWorkload, Workload

#: (layer, class, attribute) of every span the ledger installs;
#: attributes listed under ``GENERATORS`` return generators, and each
#: ``next()`` on them is one span
SPANS: tuple[tuple[str, type, str], ...] = (
    ("traces", Workload, "requests"),
    ("traces", StreamingWorkload, "chunks"),
    ("traces", StreamingWorkload, "materialize"),
    ("sim", Simulator, "run"),
    ("sim", Simulator, "schedule_many"),
    ("scheduler", Scheduler, "submit"),
    ("scheduler", Scheduler, "on_gpu_idle"),
    ("scheduler", Scheduler, "resubmit"),
    ("gpu_manager", GPUManager, "execute"),
    ("gpu_manager", GPUManager, "abort"),
    ("gpu_manager", GPUManager, "drain"),
    ("gpu_manager", GPUManager, "recover"),
    ("cache", CacheManager, "on_loaded"),
    ("cache", CacheManager, "on_evicted"),
    ("cache", CacheManager, "on_used"),
    ("cache", CacheManager, "choose_victims"),
    ("datastore", Datastore, "flush"),
    ("datastore", KVStore, "compact"),
    ("datastore", LeaseManager, "grant"),
    ("datastore", Lease, "refresh"),
    ("datastore", Lease, "revoke"),
    ("metrics", MetricsCollector, "on_complete"),
    ("chaos", FaaSCluster, "fail_gpu"),
    ("chaos", FaaSCluster, "recover_gpu"),
    ("chaos", FaaSCluster, "drain_gpu"),
)
GENERATORS = frozenset({(StreamingWorkload, "chunks")})
#: spans whose integer return values are summed (keys committed per flush)
TALLIED = frozenset({(Datastore, "flush")})


def _policy_classes() -> list[type]:
    """Every scheduling policy class that defines its own pass."""
    found, todo = [], [SchedulingPolicy]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "schedule_pass" in cls.__dict__ and cls is not SchedulingPolicy:
            found.append(cls)
    return found


class SpanStat:
    __slots__ = ("calls", "total_ns", "self_ns", "tally")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.tally = 0


class Ledger:
    """Nested wall-clock spans with self-time accounting.

    ``clock`` returns integer nanoseconds; tests pass a fake one.
    """

    def __init__(self, clock: Callable[[], int] = perf_counter_ns) -> None:
        self.clock = clock
        #: span name ("Class.attr") -> its stats
        self.stats: dict[str, SpanStat] = {}
        #: span name -> layer
        self.layer_of: dict[str, str] = {}
        # one child-time accumulator per open span
        self._stack: list[int] = []
        self._patches: list[tuple[type, str, object]] = []

    # ------------------------------------------------------------------
    def timed(self, layer: str, name: str, fn: Callable, *, tally: bool = False) -> Callable:
        """``fn`` wrapped in a span named ``name`` belonging to ``layer``."""
        self.layer_of[name] = layer
        stat = self.stats.setdefault(name, SpanStat())
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                stat.calls += 1
                stat.total_ns += dt
                stat.self_ns += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                if tally and result:
                    stat.tally += result

        return span

    def timed_generator(self, layer: str, name: str, fn: Callable) -> Callable:
        """``fn`` returning a generator; every ``next()`` is one span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            step = self.timed(layer, name, fn(*args, **kwargs).__next__)

            def spans():
                while True:
                    try:
                        item = step()
                    except StopIteration:
                        return
                    yield item

            return spans()

        return wrapper

    # ------------------------------------------------------------------
    def patch(self, layer: str, cls: type, attr: str) -> None:
        """Replace ``cls.attr`` with a span until :meth:`uninstall`."""
        original = cls.__dict__[attr]
        name = f"{cls.__name__}.{attr}"
        if isinstance(original, property):
            wrapped: object = property(self.timed(layer, name, original.fget))
        elif (cls, attr) in GENERATORS:
            wrapped = self.timed_generator(layer, name, original)
        else:
            wrapped = self.timed(layer, name, original, tally=(cls, attr) in TALLIED)
        setattr(cls, attr, wrapped)
        self._patches.append((cls, attr, original))

    def install(self) -> None:
        for layer, cls, attr in SPANS:
            self.patch(layer, cls, attr)
        for cls in _policy_classes():
            self.patch("scheduler", cls, "schedule_pass")

    def uninstall(self) -> None:
        while self._patches:
            cls, attr, original = self._patches.pop()
            setattr(cls, attr, original)

    @contextmanager
    def installed(self) -> Iterator["Ledger"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def reset(self) -> None:
        """Zero every span's stats (the wrappers keep their references)."""
        for stat in self.stats.values():
            stat.calls = stat.total_ns = stat.self_ns = stat.tally = 0

    # ------------------------------------------------------------------
    def calls(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat.calls if stat else 0

    def self_ns(self, *names: str) -> int:
        return sum(self.stats[n].self_ns for n in names if n in self.stats)

    def layer_self_ns(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for name, stat in self.stats.items():
            layer = self.layer_of[name]
            out[layer] = out.get(layer, 0) + stat.self_ns
        return out

    def calls_matching(self, suffix: str) -> int:
        return sum(s.calls for n, s in self.stats.items() if n.endswith(suffix))

    def self_ns_matching(self, suffix: str) -> int:
        return sum(s.self_ns for n, s in self.stats.items() if n.endswith(suffix))
