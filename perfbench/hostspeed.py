"""Host-speed calibration for the end-to-end timings.

The benchmark was written on a 2-core virtual machine whose shared host
changes speed by up to 2x, in phases that last from seconds to minutes, so
one run can fall wholly in a slow phase.  To keep such phases out of the
end-to-end timings, a fixed kernel of pure-Python work runs between the
ops.  It never calls treetest, so its time depends only on the
host and not on the program.  Each timing is multiplied by
``NOMINAL_MS / kernel time`` measured at the same moment: it reads as the
time on a host where the kernel takes ``NOMINAL_MS``.  A change to treetest
moves the timings and not the factor, so the adjustment cannot hide a
regression; it only removes the part of the host's swings that the kernel
feels too.
"""

from __future__ import annotations

import gc
import statistics
import time

# The kernel's time in a quiet phase of the 2-core Xeon VM the benchmark
# was written on; a fixed constant, so that factors compare across runs.
NOMINAL_MS = 2.1


def kernel() -> float:
    """An integer loop, then 4000 tuples and strings indexed in a dict with a
    third read back.

    The loop alone follows the host's swings about as closely as the
    numpy-heavy sim workload does, the allocations alone as the apps
    workload does; on the VM above, the sum tracked both better than
    either part (the slope of log op time on log kernel time was 0.75 on
    sim-compare and 0.96 on apps).
    """
    acc = 0
    for i in range(20000):
        acc += i * i
    rows = [(i, i * 0.5, str(i)) for i in range(4000)]
    index = {r[2]: r for r in rows}
    return acc + sum(index[str(i)][1] for i in range(0, 4000, 3))


def sample() -> float:
    """Milliseconds for one run of the kernel.

    The cyclic garbage collector is off meanwhile: a collection walks every
    object the process holds, which would make the time depend on the
    program's state and not only on the host.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        kernel()
        return (time.perf_counter() - started) * 1e3
    finally:
        if was_enabled:
            gc.enable()


def factor(samples_ms) -> float:
    """Multiplier taking a time measured alongside ``samples_ms`` to the
    nominal host speed."""
    return NOMINAL_MS / statistics.median(samples_ms)
