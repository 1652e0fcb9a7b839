"""Benchmark: one fused generic call versus one call per member, on SCEN-KOP's exact members.

SCEN-KOP's six exact members (``opinion3`` at gaps 3, 9 and 21, ``opinion4``
at gaps 4, 12 and 24; 160 replicates each, with the member seeds the
experiment's scheduler gives them at seed 0) run through
:func:`~repro.lv.ensemble.run_sweep_ensemble` at the ``"win"`` level, as
the experiment runs them, two ways:

* the **fused call**: all six members in one call, whose generic engine
  advances both scenario groups (``opinion3`` and ``opinion4``) in one loop;
  and
* **one call per member**: six one-member calls with the same member seeds.

A member's results do not depend on the other members of its call, so the
benchmark asserts that both paths return the same arrays, and that the fused
call is at least :data:`MIN_SPEEDUP` times faster.
"""

from __future__ import annotations

import time

import numpy as np

from repro.experiments.scenarios import _opinion_state
from repro.experiments.scheduler import DEFAULT_BATCH_SIZE
from repro.experiments.sweep import SweepTask, plan_members
from repro.lv.ensemble import run_sweep_ensemble
from repro.lv.params import LVParams
from repro.rng import stable_seed

#: Minimum fused-over-per-member speedup (1.72-1.84x in 8 isolated runs on 2
#: shared cores, 1.80-1.86x inside 3 full test-suite runs).
MIN_SPEEDUP = 1.5

NUM_RUNS = 160

#: Timed rounds of each path, alternating one call per member and the fused call.
ROUNDS = 10


def _members_and_seeds():
    """SCEN-KOP's quick exact members and their member seeds, at seed 0."""
    params = LVParams.self_destructive(beta=1.0, delta=1.0, alpha=1.0)
    grids = {3: (90, (3, 9, 21)), 4: (88, (4, 12, 24))}
    tasks = [
        SweepTask(
            params=params,
            initial_state=_opinion_state(k, total, gap),
            num_runs=NUM_RUNS,
            seed=stable_seed("scen-kop", k, gap, 0),
            max_events=100_000,
            backend="exact",
            scenario=f"opinion{k}",
        )
        for k, (total, gaps) in grids.items()
        for gap in gaps
    ]
    specs = plan_members(tasks, batch_size=DEFAULT_BATCH_SIZE)
    return [spec.to_member() for spec in specs], [spec.seed for spec in specs]


def _run_per_member(members, seeds):
    return [
        run_sweep_ensemble([member], member_seeds=[seed], collect="win")[0]
        for member, seed in zip(members, seeds)
    ]


def _run_fused(members, seeds):
    return run_sweep_ensemble(members, member_seeds=seeds, collect="win")


def test_generic_fused_call_speedup(benchmark):
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
    assert all(result.reached_consensus.all() for result in fused)
    assert speedup >= MIN_SPEEDUP, (
        f"the fused generic call is only {speedup:.2f}x faster than one call per member "
        f"({fused_seconds:.3f}s vs {per_member_seconds:.3f}s); expected at least {MIN_SPEEDUP}x"
    )
