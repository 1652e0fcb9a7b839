"""Benchmark: the tau backend's batched exact endgame versus one scalar run per replica.

Replicas of a tau member whose population is at or below the exact tail
population (512 by default) are parked and finish exactly.  This benchmark
starts an SD and an NSD member of 200 replicas there, from a 512-individual
state at a ``log^2``-scale gap, so the whole call is endgame, and times two
paths:

* the **scalar loop**: one :meth:`~repro.lv.simulator.LVJumpChainSimulator.run`
  per replica, in replica order, on the member's tail stream (what the
  endgame was before it was batched); and
* the **batch**: one :func:`~repro.lv.tau.run_tau_sweep_ensemble` call,
  which advances every parked replica together.

Both read the same uniforms, so the benchmark asserts that they return the
same per-replica results, and that the batch is at least
:data:`MIN_SPEEDUP` times faster.
"""

from __future__ import annotations

import time

from repro.experiments.workloads import state_with_gap
from repro.lv.ensemble import SweepMember
from repro.lv.params import LVParams
from repro.lv.simulator import LVJumpChainSimulator
from repro.lv.tau import DEFAULT_EXACT_TAIL_POPULATION, run_tau_sweep_ensemble
from repro.rng import spawn_generators, spawn_seeds, stable_seed

#: Minimum batch-over-scalar speedup (typically ~8x on 2 shared cores).
MIN_SPEEDUP = 3.0

NUM_RUNS = 200

#: Timed rounds of each path, alternating scalar and batch.
ROUNDS = 5


def _members():
    state = state_with_gap(DEFAULT_EXACT_TAIL_POPULATION, 32)
    return [
        SweepMember(LVParams.self_destructive(beta=1.0, delta=1.0, alpha=1.0), state, NUM_RUNS),
        SweepMember(LVParams.non_self_destructive(beta=1.0, delta=1.0, alpha=1.0), state, NUM_RUNS),
    ]


def _seeds():
    return [stable_seed("bench-tau-endgame", tag) for tag in ("sd", "nsd")]


def _run_scalar(members, seeds):
    runs = []
    for member, seed in zip(members, seeds):
        # The tail stream run_tau_sweep_ensemble gives this member seed.
        _, tail = spawn_generators(spawn_seeds(seed, 1)[0], 2)
        simulator = LVJumpChainSimulator(member.params)
        runs.append(
            [
                simulator.run(member.initial_state, rng=tail, max_events=member.max_events)
                for _ in range(member.num_replicates)
            ]
        )
    return runs


def _run_batched(members, seeds):
    return run_tau_sweep_ensemble(members, member_seeds=seeds)


def test_tau_endgame_batch_speedup(benchmark):
    members = _members()
    seeds = _seeds()
    assert all(
        member.initial_state.total <= DEFAULT_EXACT_TAIL_POPULATION for member in members
    )

    # Warm-up outside the timed regions.
    _run_scalar(members[:1], seeds[:1])
    _run_batched(members[:1], seeds[:1])

    # One scalar round just before each batch round, compared best against
    # best, so a stretch of host contention slows both paths alike.
    scalar = []
    scalar_rounds = []

    def time_scalar():
        start = time.perf_counter()
        scalar[:] = _run_scalar(members, seeds)
        scalar_rounds.append(time.perf_counter() - start)

    batched = benchmark.pedantic(
        _run_batched, args=(members, seeds), setup=time_scalar, rounds=ROUNDS, iterations=1
    )
    scalar_seconds = min(scalar_rounds)
    batched_seconds = benchmark.stats.stats.min

    speedup = scalar_seconds / batched_seconds
    benchmark.extra_info["scalar_seconds"] = round(scalar_seconds, 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert [result.to_run_results() for result in batched] == scalar
    assert all((result.leap_events == 0).all() for result in batched)
    assert speedup >= MIN_SPEEDUP, (
        f"batched tau endgame is only {speedup:.1f}x faster than the scalar loop "
        f"({batched_seconds:.3f}s vs {scalar_seconds:.3f}s); expected at least {MIN_SPEEDUP}x"
    )
