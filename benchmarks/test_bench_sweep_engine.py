"""Benchmark: fused sweep engine versus a per-configuration baseline.

Times the `FIG-THRESH` quick workload — both mechanisms' threshold searches
over the full population grid, 150 runs per probe — through two executors:

* the **per-config baseline**, built here from public pieces: one
  threshold search per ``(mechanism, n)`` configuration, driven by
  :func:`~repro.consensus.threshold.drive_threshold_searches`, whose probe
  runner splits each probe's budget into
  ``replica_batches(num_runs, DEFAULT_BATCH_SIZE)`` batches seeded by
  ``spawn_seeds(probe.seed, k)``, runs every batch as its own lock-step
  ensemble with active-set compaction disabled (every batch holds its full
  width until the scalar tail), materialises per-replica result objects,
  and summarises them with :func:`~repro.consensus.estimator.summarise_runs`;
  and
* the **sweep path**: one
  :meth:`~repro.experiments.scheduler.SweepScheduler.find_thresholds` call
  that advances every search concurrently and fuses each round's probes into
  heterogeneous lock-step mega-batches (compaction on, win-level statistics
  collection for the probes).

Both executors give every batch the same seed and every member its own
streams, so they make the same decisions: the benchmark asserts the
sweep-engine acceptance criterion (a wall-clock speedup of at least
:data:`MIN_SPEEDUP` on the sweep) and that the two report the same
threshold and the same per-probe success counts at every grid point, so the
speedup can never come from searching something different.
"""

from __future__ import annotations

import time

from repro.consensus.estimator import summarise_runs
from repro.consensus.threshold import ThresholdSearch, drive_threshold_searches
from repro.experiments.scheduler import (
    DEFAULT_BATCH_SIZE,
    SweepScheduler,
    ThresholdRequest,
)
from repro.experiments.workloads import population_grid, replica_batches
from repro.lv.ensemble import SweepMember, run_sweep_ensemble
from repro.lv.params import LVParams
from repro.rng import spawn_seeds, stable_seed

#: Minimum sweep-over-per-config speedup the sweep engine must sustain.
#: 2.5x (typically ~3.2x on 2 shared cores) since the per-member-stream engine:
#: every member of a mega-batch now owns its RNG streams and hands its thin
#: tail to the scalar finisher at the same point it would running alone,
#: which buys bitwise per-configuration reproducibility (required by the
#: adaptive-precision scheduler's sequential stopping decisions) and a ~4x
#: win on heavy-tailed sweeps (T1R5), at the price of a few percent of
#: fusion overhead on this workload.
MIN_SPEEDUP = 2.5

NUM_RUNS = 150

#: Timed rounds of each executor, alternating baseline and sweep.
ROUNDS = 5


def _grid():
    sd = LVParams.self_destructive(beta=1.0, delta=1.0, alpha=1.0)
    nsd = LVParams.non_self_destructive(beta=1.0, delta=1.0, alpha=1.0)
    return [
        (tag, params, n)
        for tag, params in (("sd", sd), ("nsd", nsd))
        for n in population_grid("quick")
    ]


def _seed(tag: str, n: int) -> int:
    return stable_seed("bench-sweep-thresh", tag, n, 0)


def _per_config_probes(probes):
    """Each probe alone: its batches one by one, then a per-replica summary."""
    estimates = []
    for probe in probes:
        sizes = replica_batches(probe.num_runs, DEFAULT_BATCH_SIZE)
        runs = [
            run
            for size, seed in zip(sizes, spawn_seeds(probe.seed, len(sizes)))
            for run in run_sweep_ensemble(
                [SweepMember(probe.params, probe.initial_state, size, probe.max_events)],
                rng=seed,
                compaction_fraction=None,
            )[0].to_run_results()
        ]
        estimates.append(summarise_runs(runs, confidence=probe.confidence))
    return estimates


def _run_per_config(grid):
    return {
        (tag, n): drive_threshold_searches(
            [ThresholdSearch(params, num_runs=NUM_RUNS).search_steps(n, rng=_seed(tag, n))],
            _per_config_probes,
        )[0]
        for tag, params, n in grid
    }


def _run_sweep(grid):
    scheduler = SweepScheduler()
    estimates = scheduler.find_thresholds(
        [
            ThresholdRequest(params, n, num_runs=NUM_RUNS, seed=_seed(tag, n))
            for tag, params, n in grid
        ]
    )
    return {(tag, n): estimate for (tag, _, n), estimate in zip(grid, estimates)}


def test_sweep_engine_speedup_on_threshold_sweep(benchmark):
    grid = _grid()

    # Warm-up outside the timed regions (first-call numpy dispatch, caches).
    warm = [(tag, params, 64) for tag, params, n in grid if n == 64]
    _run_per_config(warm)
    _run_sweep(warm)

    # The executors are timed in alternation — one baseline round just before
    # each sweep round — and compared best against best, so the asserted
    # ratio compares the two code paths: a stretch of machine contention
    # slows both alike instead of only whichever one ran through it.
    per_config = {}
    per_config_rounds = []

    def time_per_config():
        start = time.perf_counter()
        per_config.update(_run_per_config(grid))
        per_config_rounds.append(time.perf_counter() - start)

    sweep_results = benchmark.pedantic(
        _run_sweep, args=(grid,), setup=time_per_config, rounds=ROUNDS, iterations=1
    )
    per_config_seconds = min(per_config_rounds)
    sweep_seconds = benchmark.stats.stats.min

    speedup = per_config_seconds / sweep_seconds
    benchmark.extra_info["per_config_seconds"] = round(per_config_seconds, 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["grid_points"] = len(grid)
    assert speedup >= MIN_SPEEDUP, (
        f"sweep engine is only {speedup:.1f}x faster than the per-config "
        f"scheduler path ({sweep_seconds:.3f}s vs {per_config_seconds:.3f}s "
        f"for {len(grid)} threshold searches); expected at least {MIN_SPEEDUP}x"
    )

    # Same search: both executors run every batch on the same seed, so each
    # grid point reports the same threshold from the same probe counts.
    for key, baseline in per_config.items():
        fused = sweep_results[key]
        assert baseline.threshold_gap is not None, key
        assert fused.threshold_gap == baseline.threshold_gap, key
        assert list(fused.probes) == list(baseline.probes), key
        for gap, estimate in fused.probes.items():
            assert estimate.success == baseline.probes[gap].success, (key, gap)
