"""Host speed calibration.

The host's speed drifts with the load of other tenants: a fixed loop's time
moves between 1.1x and 1.8x its best, in stretches from seconds to minutes,
and process CPU time moves with it.  So every timed interval is bracketed by
a fixed pure-Python loop, timed just before and just after it, and reported
at the reference speed: ``seconds * REFERENCE_S / loop time``.
"""

from __future__ import annotations

import time

# The loop's fastest time on the machine described in perfbench/README.md;
# a time scaled by it reads as seconds on that machine at its best speed.
REFERENCE_S = 0.0025


def loop_time() -> float:
    """Best of three runs of a fixed 50,000-step float loop, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0.0
        for i in range(50_000):
            acc += i * 0.5
        best = min(best, time.perf_counter() - start)
    return best


def at_reference(seconds: float, loop_s: float) -> float:
    """``seconds`` measured while the loop took ``loop_s``, at reference speed."""
    return seconds * REFERENCE_S / loop_s
