"""Correcting timings for how fast a shared host runs right now.

On a shared machine other tenants slow every experiment alike, in phases
that last from seconds to minutes: on the 2-vCPU Xeon where this benchmark
was written, one fixed pass over ``exact-sweep`` took anywhere from 2.2 s to
7.0 s within five minutes.  No run length averages that out.

The probe is the median of three timings of a few milliseconds of frozen
work shaped like the program's hot loops (small numpy arrays, one random
draw per step, a little dict and integer work).  It imports nothing from the program, so no change to the
program changes its time.  Probes taken between the pieces of some work
measure the phase that work ran in, and :func:`corrected` scales the work's
seconds to the speed at which the probe takes :data:`REFERENCE_S`.  Over
ten benchmark runs per workload this cut the spread of the median pass
time (quartile distance over median) from 0.15-0.26 to 0.03-0.11.
"""

from __future__ import annotations

import time

import numpy as np

#: Probe seconds at the reference speed: the unloaded speed of the machine
#: above.  Corrected times are seconds on a host this fast.
REFERENCE_S = 0.006
#: Timings of the kernel per probe; the probe is their median, which keeps
#: one timing that a brief stall hit from counting.
REPEATS = 3
#: Steps of the kernel.
STEPS = 600
#: Replicas advanced per step.
WIDTH = 64


def probe() -> float:
    """Seconds this host takes for the probe's fixed work."""
    return sorted(_kernel() for _ in range(REPEATS))[REPEATS // 2]


def _kernel() -> float:
    rng = np.random.default_rng(20240917)
    started = time.perf_counter()
    counts = np.full((WIDTH, 2), 50, dtype=np.int64)
    rows = np.arange(WIDTH)
    tally = 0
    for step in range(STEPS):
        uniforms = rng.random(WIDTH)
        rates = counts[:, 0] * counts[:, 1] + 1.0
        chosen = (uniforms * rates).astype(np.int64) % 2
        counts[rows, chosen] += 1
        table = {key: key * step for key in range(8)}
        tally += sum(table.values()) % 7
    return time.perf_counter() - started


def corrected(seconds: float, probes: list[float]) -> float:
    """*seconds* of work scaled to the reference speed.

    *probes* are the probe's seconds, taken at even steps through the work.
    """
    return seconds * REFERENCE_S / (sum(probes) / len(probes))
