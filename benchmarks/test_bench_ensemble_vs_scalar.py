"""Benchmark: vectorized replica ensemble versus the scalar replicate loop.

Times one Table-1-style quick workload (the neutral self-destructive system at
``n = 256`` with a ``sqrt(n)``-sized gap, 512 replicates — the per-point
workload of the `T1R1-SD` threshold sweep) through both replicate executors:

* the original scalar path, one :class:`~repro.lv.simulator.LVJumpChainSimulator`
  event loop per replicate, and
* the lock-step engine, :func:`~repro.lv.ensemble.run_sweep_ensemble`, that
  the experiment harness routes every batch through (one member here).

The benchmark asserts the tentpole's acceptance criterion — at least a 5×
wall-clock speedup — and that both paths agree statistically on the win
probability and mean consensus time, so the speedup can never silently come
from computing something different.

The speedup is the median over paired rounds, each timing the scalar loop
and then the engine call alone: pairing cancels contention that lasts
longer than one round, and the median ignores a round that one burst hit.
The per-run result views the agreement checks read are built after timing,
since the experiment harness never builds them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.experiments.workloads import state_with_gap
from repro.lv.ensemble import SweepMember, run_sweep_ensemble
from repro.lv.params import LVParams
from repro.lv.simulator import LVJumpChainSimulator
from repro.rng import as_generator

#: Minimum ensemble-over-scalar speedup the refactor must sustain.
MIN_SPEEDUP = 5.0

NUM_RUNS = 512
POPULATION = 256
#: Paired (scalar, ensemble) timing rounds; the speedup is their median ratio.
ROUNDS = 5


def _workload():
    params = LVParams.self_destructive(beta=1.0, delta=1.0, alpha=1.0)
    state = state_with_gap(POPULATION, int(round(np.sqrt(POPULATION))))
    return params, state


def _scalar_runs(params, state, num_runs, seed):
    """*num_runs* scalar runs, one after another on one generator."""
    simulator = LVJumpChainSimulator(params)
    generator = as_generator(seed)
    return [simulator.run(state, rng=generator) for _ in range(num_runs)]


def _ensemble(params, state, num_runs, seed):
    """*num_runs* lock-step replicas as one member of one engine call."""
    return run_sweep_ensemble([SweepMember(params, state, num_runs)], rng=seed)[0]


def test_ensemble_speedup_over_scalar_loop(benchmark):
    params, state = _workload()

    # Warm-up outside the timed region (first-call numpy dispatch, caches).
    _ensemble(params, state, 8, 0)
    _scalar_runs(params, state, 8, 0)

    scalar_seconds = []
    scalar_results = []

    def scalar_round():
        # pytest-benchmark calls this untimed before each ensemble round, so
        # every round times the scalar loop and then the engine call.
        start = time.perf_counter()
        scalar_results[:] = _scalar_runs(params, state, NUM_RUNS, 1)
        scalar_seconds.append(time.perf_counter() - start)
        return (params, state, NUM_RUNS, 2), {}

    ensemble = benchmark.pedantic(_ensemble, setup=scalar_round, rounds=ROUNDS)
    ratios = [
        scalar / engine
        for scalar, engine in zip(scalar_seconds, benchmark.stats.stats.data)
    ]
    speedup = statistics.median(ratios)
    benchmark.extra_info["scalar_seconds"] = round(statistics.median(scalar_seconds), 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["round_speedups"] = [round(ratio, 2) for ratio in ratios]
    benchmark.extra_info["num_runs"] = NUM_RUNS
    assert speedup >= MIN_SPEEDUP, (
        f"ensemble path is only {speedup:.1f}x faster than the scalar loop "
        f"(median of {ROUNDS} paired rounds: "
        f"{', '.join(f'{ratio:.1f}x' for ratio in ratios)} for {NUM_RUNS} runs); "
        f"expected at least {MIN_SPEEDUP}x"
    )

    # Same-workload sanity: both executors must tell the same statistical story.
    ensemble_results = ensemble.to_run_results()
    p_scalar = np.mean([r.majority_consensus for r in scalar_results])
    p_ensemble = np.mean([r.majority_consensus for r in ensemble_results])
    assert abs(p_scalar - p_ensemble) < 0.08
    t_scalar = np.mean([r.total_events for r in scalar_results if r.reached_consensus])
    t_ensemble = np.mean(
        [r.total_events for r in ensemble_results if r.reached_consensus]
    )
    assert abs(t_scalar - t_ensemble) / t_scalar < 0.15
