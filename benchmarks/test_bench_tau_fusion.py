"""Benchmark: one fused tau call versus one call per member, on FIG-THRESH-XL's members.

FIG-THRESH-XL's tau members (SD at ``log^2 n``, NSD at ``log^2 n`` and at
``3 sqrt(n)``, for ``n = 10^5`` and ``10^6``; 200 replicates each, with the
member seeds the experiment's scheduler gives them at seed 0) run through
:func:`~repro.lv.tau.run_tau_sweep_ensemble` two ways:

* the **fused call**: all six members in one call, whose leap loop advances
  every replica together (what the experiment runs); and
* **one call per member**: six one-member calls with the same member seeds,
  each leaping its 200 replicas alone.

A member's results do not depend on the other members of its call, so the
benchmark asserts that both paths return the same arrays, and that the fused
call is at least :data:`MIN_SPEEDUP` times faster.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.experiments.scheduler import DEFAULT_BATCH_SIZE
from repro.experiments.sweep import SweepTask, plan_members
from repro.experiments.workloads import state_with_gap
from repro.lv.params import LVParams
from repro.lv.tau import run_tau_sweep_ensemble
from repro.rng import stable_seed

#: Minimum fused-over-per-member speedup (1.33-1.57x in nine runs on 2 shared
#: cores; a busy host has read less).
MIN_SPEEDUP = 1.25

NUM_RUNS = 200

#: Timed rounds of each path, alternating one call per member and the fused call.
ROUNDS = 3


def _members_and_seeds():
    """FIG-THRESH-XL's quick tau members and their member seeds, at seed 0."""
    sd = LVParams.self_destructive(beta=1.0, delta=1.0, alpha=1.0)
    nsd = LVParams.non_self_destructive(beta=1.0, delta=1.0, alpha=1.0)
    tasks = []
    for n in (10**5, 10**6):
        gap_poly = max(2, int(round(math.log(n) ** 2)))
        gap_sqrt = int(round(3.0 * math.sqrt(n)))
        for tag, params, gap in (
            ("sd-poly", sd, gap_poly),
            ("nsd-poly", nsd, gap_poly),
            ("nsd-sqrt", nsd, gap_sqrt),
        ):
            tasks.append(
                SweepTask(
                    params,
                    state_with_gap(n, gap),
                    NUM_RUNS,
                    seed=stable_seed("fig-thresh-xl", tag, n, 0),
                    backend="tau",
                )
            )
    specs = plan_members(tasks, batch_size=DEFAULT_BATCH_SIZE)
    return [spec.to_member() for spec in specs], [spec.seed for spec in specs]


def _run_per_member(members, seeds):
    return [
        run_tau_sweep_ensemble([member], member_seeds=[seed])[0]
        for member, seed in zip(members, seeds)
    ]


def _run_fused(members, seeds):
    return run_tau_sweep_ensemble(members, member_seeds=seeds)


def test_tau_fused_call_speedup(benchmark):
    members, seeds = _members_and_seeds()
    assert len(members) == 6

    # Warm-up outside the timed regions.
    _run_fused(members[:1], seeds[:1])

    # One per-member round just before each fused round, compared best
    # against best, so a stretch of host contention slows both paths alike.
    per_member = []
    per_member_rounds = []

    def time_per_member():
        start = time.perf_counter()
        per_member[:] = _run_per_member(members, seeds)
        per_member_rounds.append(time.perf_counter() - start)

    fused = benchmark.pedantic(
        _run_fused, args=(members, seeds), setup=time_per_member, rounds=ROUNDS, iterations=1
    )
    per_member_seconds = min(per_member_rounds)
    fused_seconds = benchmark.stats.stats.min

    speedup = per_member_seconds / fused_seconds
    benchmark.extra_info["per_member_seconds"] = round(per_member_seconds, 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    for together, alone in zip(fused, per_member):
        for name, value in vars(together).items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(value, getattr(alone, name)), name
    assert all((result.leap_events > 0).all() for result in fused)
    assert speedup >= MIN_SPEEDUP, (
        f"the fused tau call is only {speedup:.2f}x faster than one call per member "
        f"({fused_seconds:.3f}s vs {per_member_seconds:.3f}s); expected at least {MIN_SPEEDUP}x"
    )
