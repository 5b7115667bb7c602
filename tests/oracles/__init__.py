"""Paper-literal engines kept as test oracles.

The paper-literal algorithms that production code was optimised from
live here rather than behind runtime flags; the parity suites (and the
bench's elision-off arm) replay workloads against them.  Each oracle
patches a built :class:`~repro.runtime.FaaSCluster` in place, before any
workload is submitted, and returns it.

Import as ``from oracles import literal_pass_engine``: pytest puts
``tests/`` on ``sys.path`` through ``tests/conftest.py``, and out-of-
pytest callers add it themselves.
"""

from __future__ import annotations

__all__ = ["literal_pass_engine"]


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
