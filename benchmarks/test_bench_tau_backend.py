"""Benchmark: tau-leaping backend versus the exact ensemble at ``n = 10^5``.

Runs the same large-population workload — both mechanisms at a
``log^2 n``-scale gap, ``n = 10^5`` total population — through the exact
lock-step ensemble and the vectorized tau-leaping backend, and asserts the
hybrid backend's acceptance criteria:

* **event throughput** (simulated events per wall-clock second, counting the
  tau backend's estimated leap firings in the same unit as exact events) at
  least :data:`MIN_THROUGHPUT_RATIO` times the exact engine's, and
* **statistical agreement**: the two backends' majority-probability
  estimates on each overlapping configuration must agree within a binomial
  ~4-standard-error band (the same tolerance rule as the tier-1 suite's
  shared helper, which enforces the fine-grained agreement at smaller
  populations with far more replicates).

The workload helpers are imported by ``run_benchmarks.py`` so the committed
``BENCH_sweep.json`` artefact measures exactly what this gate asserts.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.experiments.workloads import state_with_gap
from repro.lv.ensemble import SweepMember, run_sweep_ensemble
from repro.lv.params import LVParams
from repro.lv.tau import run_tau_sweep_ensemble
from repro.rng import stable_seed

#: Minimum tau-over-exact event-throughput ratio at n = 10^5 (typical
#: measurement ~30x: the exact engine pays one vectorized step per event,
#: the leap kernel bundles ~epsilon * n / 2 firings per step).
MIN_THROUGHPUT_RATIO = 10.0

#: Total population of the workload (well above the auto-backend switch).
POPULATION = 100_000

#: Replicates per configuration; enough to pin the throughput measurement
#: and give the agreement band ~4-standard-error teeth.
NUM_RUNS = 24


def _workload():
    gap = max(2, round(math.log(POPULATION) ** 2))
    state = state_with_gap(POPULATION, gap)
    sd = LVParams.self_destructive(beta=1.0, delta=1.0, alpha=1.0)
    nsd = LVParams.non_self_destructive(beta=1.0, delta=1.0, alpha=1.0)
    return [("sd", sd, state), ("nsd", nsd, state)]


def _seed(tag: str) -> int:
    return stable_seed("bench-tau-backend", tag, POPULATION, 0)


def _run_exact(grid, num_runs: int = NUM_RUNS):
    events = 0
    wins = {}
    for tag, params, state in grid:
        member = SweepMember(params, state, num_runs)
        (result,) = run_sweep_ensemble([member], rng=_seed(tag))
        events += int(result.total_events.sum())
        wins[tag] = float(result.majority_consensus.mean())
    return events, wins


def _run_tau(grid, num_runs: int = NUM_RUNS):
    events = 0
    wins = {}
    for tag, params, state in grid:
        member = SweepMember(params, state, num_runs)
        (result,) = run_tau_sweep_ensemble([member], rng=_seed(tag))
        events += int(result.total_events.sum())
        wins[tag] = float(result.majority_consensus.mean())
    return events, wins


def _win_tolerance(p: float, num_runs: int) -> float:
    """Binomial ~4-standard-error agreement band (the shared tolerance rule)."""
    return max(4.0 * np.sqrt(max(p * (1.0 - p), 0.04) / num_runs), 0.02)


def warm_up(grid) -> None:
    """Warm both executor paths outside any timed region.

    The exact path warms on a small population (a full-size warm-up run
    would double the benchmark's cost), the tau path on the real grid;
    shared with ``run_benchmarks.py`` so the committed baseline measures
    with the same methodology this gate asserts.
    """
    small = [(tag, params, state_with_gap(4096, 64)) for tag, params, _ in grid]
    _run_exact(small, num_runs=4)
    _run_tau(grid, num_runs=4)


def test_tau_backend_throughput_and_agreement(benchmark):
    grid = _workload()
    warm_up(grid)

    started = time.perf_counter()
    exact_events, exact_wins = _run_exact(grid)
    exact_seconds = time.perf_counter() - started

    tau_events, tau_wins = benchmark.pedantic(
        _run_tau, args=(grid,), rounds=3, iterations=1
    )
    tau_seconds = benchmark.stats.stats.min

    exact_throughput = exact_events / exact_seconds
    tau_throughput = tau_events / tau_seconds
    ratio = tau_throughput / exact_throughput
    benchmark.extra_info["exact_events_per_sec"] = round(exact_throughput)
    benchmark.extra_info["tau_events_per_sec"] = round(tau_throughput)
    benchmark.extra_info["throughput_ratio"] = round(ratio, 2)
    assert ratio >= MIN_THROUGHPUT_RATIO, (
        f"tau backend sustains only {ratio:.1f}x the exact engine's event "
        f"throughput at n={POPULATION} ({tau_throughput:,.0f} vs "
        f"{exact_throughput:,.0f} events/s); expected at least "
        f"{MIN_THROUGHPUT_RATIO}x"
    )

    # Statistical agreement on the overlapping-n configurations: the same
    # ~4-standard-error binomial band the tier-1 shared tolerance helper
    # applies (which separately enforces agreement with hundreds of
    # replicates at smaller populations).
    for tag in exact_wins:
        pooled = (exact_wins[tag] + tau_wins[tag]) / 2.0
        tolerance = _win_tolerance(pooled, NUM_RUNS)
        assert abs(exact_wins[tag] - tau_wins[tag]) < tolerance, (
            f"{tag}: tau majority probability {tau_wins[tag]:.3f} disagrees "
            f"with exact {exact_wins[tag]:.3f} beyond the {tolerance:.3f} band"
        )
