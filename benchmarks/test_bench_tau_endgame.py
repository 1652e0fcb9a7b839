"""Benchmark: the tau backend's exact endgame versus one scalar run per replica.

Replicas of a tau member whose opinion population is below
:data:`~repro.scenario.engine.SCENARIO_TAU_TAIL_POPULATION` (512) are parked:
they take exact steps on the generic engine, every parked replica of the
call in one vectorised loop, each reading its member's tail stream.  This
benchmark starts an SD and an NSD member of 200 replicas there, two
individuals below that population at a ``log^2``-scale gap, so the whole
call is endgame, and times two paths:

* the **scalar loop**: one :meth:`~repro.lv.simulator.LVJumpChainSimulator.run`
  per replica, in replica order, on the member's tail stream; and
* the **batch**: one :func:`~repro.lv.tau.run_tau_sweep_ensemble` call,
  which steps every parked replica together.

No replica leaps, so the batch records no leap events.  The two paths read
the same tail streams in different orders, so they agree in law, not bit
for bit: the benchmark asserts that their win frequencies agree within the
binomial band shared with ``test_bench_tau_backend.py`` (the bitwise
contract of parked replicas is ``tests/test_lv_reference_parity.py``'s),
and that the batch is at least :data:`MIN_SPEEDUP` times faster than the
scalar loop.
"""

from __future__ import annotations

import time

from repro.experiments.workloads import state_with_gap
from repro.lv.ensemble import SweepMember
from repro.lv.params import LVParams
from repro.lv.simulator import LVJumpChainSimulator
from repro.lv.tau import run_tau_sweep_ensemble
from repro.rng import spawn_generators, spawn_seeds, stable_seed
from repro.scenario.engine import SCENARIO_TAU_TAIL_POPULATION

from test_bench_tau_backend import _win_tolerance

#: Minimum batch-over-scalar speedup.  Three isolated runs on 2 shared
#: cores measured 3.5x to 3.6x (0.031 s batched against 0.108-0.109 s
#: scalar, best of 5 rounds each), so a busy host can still fail this floor.
MIN_SPEEDUP = 3.0

NUM_RUNS = 200

#: Timed rounds of each path, alternating scalar and batch.
ROUNDS = 5


def _members():
    state = state_with_gap(SCENARIO_TAU_TAIL_POPULATION - 2, 32)
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
        member.initial_state.total < SCENARIO_TAU_TAIL_POPULATION for member in members
    )

    # Warm-up outside the timed regions.
    _run_scalar(members[:1], seeds[:1])
    _run_batched(members[:1], seeds[:1])

    # One scalar round just before each batch round, compared best against
    # best, so a stretch of host contention slows both paths alike.
    scalar_rounds = []
    scalar_runs = []

    def time_scalar():
        start = time.perf_counter()
        scalar_runs[:] = _run_scalar(members, seeds)
        scalar_rounds.append(time.perf_counter() - start)

    batched = benchmark.pedantic(
        _run_batched, args=(members, seeds), setup=time_scalar, rounds=ROUNDS, iterations=1
    )
    scalar_seconds = min(scalar_rounds)
    batched_seconds = benchmark.stats.stats.min

    speedup = scalar_seconds / batched_seconds
    benchmark.extra_info["scalar_seconds"] = round(scalar_seconds, 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    for result, runs in zip(batched, scalar_runs):
        assert (result.leap_events == 0).all()
        batch_rho = float(result.majority_consensus.mean())
        scalar_rho = sum(run.majority_consensus for run in runs) / len(runs)
        tolerance = _win_tolerance((batch_rho + scalar_rho) / 2.0, NUM_RUNS)
        assert abs(batch_rho - scalar_rho) < tolerance, (
            f"{result.params.mechanism.short_name}: batched rho {batch_rho:.3f} disagrees "
            f"with the scalar loop's {scalar_rho:.3f} beyond the {tolerance:.3f} band"
        )
    assert speedup >= MIN_SPEEDUP, (
        f"batched tau endgame is only {speedup:.1f}x faster than the scalar loop "
        f"({batched_seconds:.3f}s vs {scalar_seconds:.3f}s); expected at least {MIN_SPEEDUP}x"
    )
