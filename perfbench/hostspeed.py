"""The host's speed, measured next to the queries.

On a shared host the speed drifts by up to 1.5x over minutes: on a 2-vCPU
Intel Xeon host (Python 3.11) the same A4/p=7 nilpotent `modular blocks`
query took 2.6 s in one minute and 4.4 s in another.  So a fixed piece of
pure-Python work is timed after every query, outside the query's interval,
and reported times are scaled to a reference speed: each is multiplied by
speed_factor(reference time).

REF_S is about the reference time on that host under load.  Regressing log
round time on log reference time over 186 rounds of ten seeds gave slopes
0.53, 0.56 and 0.51 on the three workloads: the engine feels host-speed
swings about half as strongly as the reference loop, hence SPEED_EXPONENT.
The engine never runs the reference work, so a faster engine lowers scaled
times exactly as it lowers raw ones.
"""

from __future__ import annotations

import gc
import statistics
import time

REF_S = 0.002
SPEED_EXPONENT = 0.5


def reference_work():
    """Fixed pure-Python work (closure of S_6 under two generators: tuples,
    sets, lists, like the engine's orbit walks), timed between queries to
    track the host's speed."""
    gens = ((1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5))
    start = tuple(range(6))
    seen, frontier = {start}, [start]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(p[i] for i in g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


def time_reference() -> float:
    """Seconds the reference work takes now, with the cyclic garbage
    collector paused so that the heap the queries left does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def reference_seconds(runs=25):
    """Median time of the reference work: the host's speed right now."""
    return statistics.median(time_reference() for _ in range(runs))


def speed_factor(ref_s: float) -> float:
    return (REF_S / ref_s) ** SPEED_EXPONENT
