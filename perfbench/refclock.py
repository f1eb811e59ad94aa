"""The clock of the benchmark: thread CPU time, normalised by a reference loop.

On a shared virtual machine the CPU time of identical work swings by up to
2x within seconds as neighbours load the physical cores, and no clock
removes that.  So every op is timed together with a fixed integer loop run
right before and after it, and is reported in units of that loop: an op
that costs as much CPU time as N reference loops is reported as N * REF_S
seconds.  Changes to arithline move the op time, not the loop.  The loop
allocates no objects that the garbage collector tracks, so the size of the
program's heap does not change its cost.  On the 2-core Xeon this was
written on one loop takes 0.8-1.9 ms of CPU time, depending on the load.
"""

import time

CLOCK = time.thread_time_ns  # single-threaded, I/O-free kernel: CPU time of the call
REF_S = 1e-3  # seconds reported per reference loop


def reference_ns() -> int:
    """CPU time of one run of the reference loop, in nanoseconds."""
    t0 = CLOCK()
    x = 0x9E3779B97F4A7C15F39CC0605CEDC8341082276BF3A27251F86C6A11D0C18E95
    m = (1 << 256) - 189
    d = {}
    for i in range(1200):
        x = (x * x + i) % m
        d[i & 63] = (x >> 200) + d.get((i + 1) & 63, 0) % 7
    return CLOCK() - t0


def scale(ref_ns) -> float:
    """Reported seconds per CPU second, from reference loops timed nearby."""
    return REF_S * 1e9 * len(ref_ns) / sum(ref_ns)
