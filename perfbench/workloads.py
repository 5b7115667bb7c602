"""The benchmark's named workloads and their set-up.

All three are open loops in simulated time: the trace's arrivals are
injected as simulator events at their timestamps whatever the backlog, so
the generator is never late.  The run seed feeds the synthetic trace, the
``WorkloadSpec`` and the fault plan; the system under test only ever sees
the generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from repro.chaos import build_fault_plan
from repro.runtime import FaaSCluster, SystemConfig
from repro.runtime.config import streaming_config
from repro.traces.azure import AzureTraceConfig, SyntheticAzureTrace
from repro.traces.workload import WorkloadSpec, build_workload, build_workload_streaming

#: run length (seconds) the per-workload replay counts below are sized for
NOMINAL_SECONDS = 20

#: ws35-overload-faults: per-request deadline, retry budget and base backoff
DEADLINE_S = 120.0
MAX_RETRIES = 3
RETRY_BACKOFF_S = 0.5


@dataclass(frozen=True)
class WorkloadDef:
    name: str
    working_set: int
    requests_per_minute: int
    #: simulated minutes of arrivals per replay
    minutes: int
    #: replays per run at NOMINAL_SECONDS, each on its own derived seed
    reps: int
    streaming: bool = False
    faults: bool = False

    @property
    def requests_per_replay(self) -> int:
        return self.minutes * self.requests_per_minute


#: each workload's rationale is its ``why`` in BENCHMARK.json
WORKLOADS: dict[str, WorkloadDef] = {
    w.name: w
    for w in (
        WorkloadDef(
            name="paper-ws15",
            working_set=15,
            requests_per_minute=325,
            minutes=62,
            reps=7,
        ),
        WorkloadDef(
            name="stream-long",
            working_set=15,
            requests_per_minute=325,
            minutes=460,
            reps=2,
            streaming=True,
        ),
        WorkloadDef(
            name="ws35-overload-faults",
            working_set=35,
            requests_per_minute=500,
            minutes=40,
            reps=7,
            faults=True,
        ),
    )
}


def reps_for(defn: WorkloadDef, seconds: int) -> int:
    """Replays per run: scales with the requested run length, but is a
    pure function of it (never of measured speed), so the simulated
    metrics stay deterministic for a given seed and length."""
    return max(1, round(defn.reps * seconds / NOMINAL_SECONDS))


def rep_seed(seed: int, rep: int) -> int:
    """Seed of replay ``rep`` within a run seeded ``seed``."""
    return seed * 1000 + rep


def make_config(defn: WorkloadDef, seed: int) -> SystemConfig:
    """The system configuration of ``defn`` (builds the fault plan)."""
    if defn.streaming:
        return streaming_config()
    if defn.faults:
        plan = build_fault_plan("severe", seed=seed, horizon_s=defn.minutes * 60.0)
        return SystemConfig(
            fault_plan=plan,
            deadline_s=DEADLINE_S,
            max_retries=MAX_RETRIES,
            retry_backoff_s=RETRY_BACKOFF_S,
        )
    return SystemConfig()


def make_spec(defn: WorkloadDef, seed: int) -> WorkloadSpec:
    return WorkloadSpec(
        working_set=defn.working_set,
        minutes=defn.minutes,
        requests_per_minute=defn.requests_per_minute,
        seed=seed,
    )


@dataclass
class Setup:
    """One replay's inputs and the freshly built system."""

    defn: WorkloadDef
    seed: int
    spec: WorkloadSpec
    workload: object
    system: FaaSCluster
    #: trace + workload column build time
    build_s: float
    #: build_s plus fault-plan build and FaaSCluster construction
    setup_s: float


def build(defn: WorkloadDef, seed: int) -> Setup:
    """Build the workload, the fault plan and the system for one replay."""
    t0 = perf_counter()
    trace = SyntheticAzureTrace(AzureTraceConfig(seed=seed))
    spec = make_spec(defn, seed)
    builder = build_workload_streaming if defn.streaming else build_workload
    workload = builder(spec, trace=trace)
    t1 = perf_counter()
    system = FaaSCluster(make_config(defn, seed))
    t2 = perf_counter()
    return Setup(defn, seed, spec, workload, system, build_s=t1 - t0, setup_s=t2 - t0)
