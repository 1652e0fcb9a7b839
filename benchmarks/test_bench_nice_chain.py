"""Benchmark: the lock-step chain runner versus the scalar chain loop.

Times `FIG-BAD`'s quick-scale nice-chain workload — the dominating chain of
Section 5.2 (β = δ = 0.25, α₀ = α₁ = 1) run to absorption 100 times from each
of n = 64, 128 and 256, seeded as the experiment seeds it — through two
paths:

* the **scalar loop**: one
  :meth:`~repro.chains.birth_death.BirthDeathChain.simulate_to_absorption`
  call per run, on ``spawn_generators(seed, 100)[i]``; and
* the **runner**: one
  :meth:`~repro.chains.birth_death.BirthDeathChain.simulate_runs_to_absorption`
  call per n, on the same generators.

Both give every run the same generator, so the benchmark asserts that they
return the same summaries, and that the runner is at least
:data:`MIN_SPEEDUP` times faster.
"""

from __future__ import annotations

import time

from repro.chains.nice import lv_dominating_birth_death
from repro.experiments.workloads import population_grid
from repro.rng import spawn_generators, stable_seed

#: Minimum runner-over-scalar speedup (typically ~10x on 2 shared cores).
MIN_SPEEDUP = 4.0

NUM_RUNS = 100

#: Timed rounds of each path, alternating scalar and runner.
ROUNDS = 5


def _chain():
    return lv_dominating_birth_death(beta=0.25, delta=0.25, alpha0=1.0, alpha1=1.0)


def _seeds():
    return {n: stable_seed("fig-bad-chain", n, 0) for n in population_grid("quick")}


def _run_scalar(chain, seeds):
    return {
        n: [chain.simulate_to_absorption(n, rng=g) for g in spawn_generators(seed, NUM_RUNS)]
        for n, seed in seeds.items()
    }


def _run_lockstep(chain, seeds):
    return {
        n: chain.simulate_runs_to_absorption(n, spawn_generators(seed, NUM_RUNS))
        for n, seed in seeds.items()
    }


def test_nice_chain_runner_speedup(benchmark):
    chain = _chain()
    seeds = _seeds()

    # Warm-up outside the timed regions.
    _run_scalar(chain, {64: seeds[64]})
    _run_lockstep(chain, {64: seeds[64]})

    # One scalar round just before each runner round, compared best against
    # best, so a stretch of host contention slows both paths alike.
    scalar = {}
    scalar_rounds = []

    def time_scalar():
        start = time.perf_counter()
        scalar.update(_run_scalar(chain, seeds))
        scalar_rounds.append(time.perf_counter() - start)

    lockstep = benchmark.pedantic(
        _run_lockstep, args=(chain, seeds), setup=time_scalar, rounds=ROUNDS, iterations=1
    )
    scalar_seconds = min(scalar_rounds)
    lockstep_seconds = benchmark.stats.stats.min

    speedup = scalar_seconds / lockstep_seconds
    benchmark.extra_info["scalar_seconds"] = round(scalar_seconds, 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert lockstep == scalar
    assert speedup >= MIN_SPEEDUP, (
        f"lock-step chain runner is only {speedup:.1f}x faster than the scalar loop "
        f"({lockstep_seconds:.3f}s vs {scalar_seconds:.3f}s); expected at least {MIN_SPEEDUP}x"
    )
