"""Host-speed calibration.

A small shared host can change speed by a quarter within minutes.  The
benchmark times this fixed pure-Python kernel after every op and scales
every reported time to the speed at which the kernel takes `REFERENCE_S`,
so a run on a momentarily slow host reports the same figures as one on a
fast host.
The kernel does the kind of work dlbridge does: dict updates keyed by
tuples, and frozenset construction.
"""

import statistics
import time

REFERENCE_S = 0.0025
# The host's speed also swings from one second to the next, so each op's
# latency is scaled by the samples taken around it, about a second's worth.
LOCAL_WINDOW = 5


def kernel():
    acc = {}
    for i in range(3000):
        key = (i % 97, i % 89)
        acc[key] = acc.get(key, 0) + 1
        if i % 100 == 0:
            frozenset(acc)
    return len(acc)


def sample():
    """Seconds one kernel run takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def speed(samples):
    """Host speed relative to the reference: above 1 when the host is faster.

    Multiply a measured time by it, or divide a measured rate by it, to get
    the figure at reference speed.
    """
    return REFERENCE_S / statistics.median(samples)


def local_speeds(samples, window=LOCAL_WINDOW):
    """Host speed around each sample: the speed of the samples at most
    `window` places before or after it."""
    return [speed(samples[max(0, i - window):i + window + 1]) for i in range(len(samples))]
