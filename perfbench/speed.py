"""Host speed reference for ``setup_s``.

The shared host runs in a fast and a slow state that last tens of
seconds: the same set-up takes about 0.025 s in one run and 0.040 s in
another, and CPU time tracks wall time, so it is not preemption.  A
median over more set-ups in one run cannot remove that: over ten seeds
the raw median spread 0.41-0.44 (quartile distance / median).  A fixed
pure-Python kernel timed just before each set-up slows down with it;
set-up time divided by kernel time spread at most 0.05 over the same
kind of runs (``perfbench/bounds.json``), while the kernel's own cost
does not depend on the program under test: it uses builtins only and
runs with the garbage collector off, so the program's heap does not
enter.  ``setup_s`` is therefore reported at the host's nominal speed::

    setup_s = median(set-up time / kernel time) * NOMINAL_S

The raw median goes into the run manifest.  Replay timings are not
scaled: the replay slows down less than the kernel does in the slow
state, and dividing by the kernel made their spread wider, not
narrower.
"""

from __future__ import annotations

import gc
from time import perf_counter

KERNEL_SIZE = 6000
#: the kernel's median time on the 2-vCPU x86-64 host (Python 3.11) the
#: bounds were calibrated on; a scale factor only
NOMINAL_S = 0.003


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def _kernel(n: int) -> int:
    table = {}
    for i in range(n):
        table[i % 1000] = (i, str(i))
    ordered = sorted(range(n // 2), key=lambda x: -x)
    pairs = [_Pair(i, i) for i in range(n // 2)]
    return len(table) + len(ordered) + len(pairs)


def kernel_s() -> float:
    """Wall time of one run of the reference kernel, after a short untimed
    run that brings its code and data back into cache."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _kernel(KERNEL_SIZE // 10)
        t0 = perf_counter()
        _kernel(KERNEL_SIZE)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
