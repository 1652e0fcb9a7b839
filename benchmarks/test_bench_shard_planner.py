"""Benchmark: balanced shard planner versus round-robin on a heavy-tailed grid.

The shard planner's acceptance measurement.  The workload is a T1R5-style
grid — no-competition dynamics, where per-replicate event counts are
heavy-tailed and grow superlinearly in the population — with several initial
splits per population, the natural sweep order that round-robins worst
(consecutive units share a population, so ``i % K`` stacks tail units onto
one shard).  Event rates are *measured* by simulating a reduced replicate
budget per unit; those rates feed :func:`repro.shard.planner.unit_costs`
exactly the way ``repro run --shards K --shard-index I --shard-history`` does.

Asserted: with measured history, the planned K=4 partition's cost imbalance
(max shard cost over mean shard cost) stays within
:data:`~repro.shard.planner.DEFAULT_IMBALANCE_BOUND` (1.25) and never
exceeds the naive round-robin baseline's.  The measured history is also
exported into ``BENCH_sweep.json`` (``shard_planner.history``) by
``run_benchmarks.py``, where
:meth:`~repro.shard.planner.EventRateHistory.from_benchmark` picks it up —
so a fresh machine can plan balanced shards before journaling anything.
"""

from __future__ import annotations

from repro.experiments.scheduler import SweepScheduler
from repro.experiments.sweep import SweepTask
from repro.lv.params import LVParams
from repro.lv.state import LVState
from repro.rng import stable_seed
from repro.shard import (
    DEFAULT_IMBALANCE_BOUND,
    EventRateHistory,
    config_signature,
    plan_round_robin,
    plan_shards,
    unit_costs,
)

#: Shard count of the acceptance measurement.
SHARDS = 4

#: Planned replicate budget per grid unit (T1R5's quick-scale budget) —
#: what the costs are computed for.
PLANNED_RUNS = 400

#: Replicates actually simulated per unit to measure event rates; rates are
#: per-replicate, so a reduced budget measures the same quantity cheaply.
MEASURE_RUNS = 40

#: Per-replicate event cap, mirroring T1R5's truncation of the ~1/T
#: consensus-time tail (one lottery replica must not dominate the timing).
MAX_EVENTS = 200_000


def _grid() -> list[SweepTask]:
    """T1R5-style units: three initial splits per population, ascending n."""
    params = LVParams(beta=1.0, delta=1.0, alpha0=0.0, alpha1=0.0)
    tasks = []
    for n in (16, 24, 36, 54, 80, 120):
        for fraction in (0.55, 0.65, 0.8):
            majority = round(n * fraction)
            tasks.append(
                SweepTask(
                    params,
                    LVState(majority, n - majority),
                    MEASURE_RUNS,
                    seed=stable_seed("bench-shard-planner", n, majority, 0),
                    max_events=MAX_EVENTS,
                    label=f"shard-bench-{n}-{majority}",
                )
            )
    return tasks


def _measure_history(tasks) -> EventRateHistory:
    """Simulate the reduced budgets and harvest per-configuration rates."""
    scheduler = SweepScheduler()
    try:
        results = scheduler.run_sweep(tasks)
    finally:
        scheduler.shutdown()
    history = EventRateHistory()
    for task, result in zip(tasks, results):
        history.record(
            config_signature(task.params, task.initial_state.total),
            float(result.total_events.sum()),
            task.num_runs,
        )
    return history


def _plan(history: EventRateHistory, tasks, shards: int = SHARDS):
    """Cost the planned (full) budgets with the measured rates and partition."""
    signatures = [
        config_signature(task.params, task.initial_state.total) for task in tasks
    ]
    costs = unit_costs(signatures, [PLANNED_RUNS] * len(tasks), history)
    return plan_shards(costs, shards), plan_round_robin(costs, shards)


def measure_shard_planner(shards: int = SHARDS) -> dict:
    """The ``run_benchmarks.py`` payload: imbalances plus the measured history."""
    tasks = _grid()
    history = _measure_history(tasks)
    planned, naive = _plan(history, tasks, shards)
    return {
        "shards": shards,
        "grid_units": len(tasks),
        "planned_imbalance": round(planned.imbalance, 3),
        "round_robin_imbalance": round(naive.imbalance, 3),
        "improvement": round(naive.imbalance / planned.imbalance, 2),
        "history": history.to_payload(),
    }


def test_planner_meets_imbalance_bound_with_measured_history(benchmark):
    tasks = _grid()
    history = _measure_history(tasks)

    planned, naive = benchmark.pedantic(
        _plan, args=(history, tasks), rounds=3, iterations=1
    )
    benchmark.extra_info["shards"] = SHARDS
    benchmark.extra_info["grid_units"] = len(tasks)
    benchmark.extra_info["planned_imbalance"] = round(planned.imbalance, 3)
    benchmark.extra_info["round_robin_imbalance"] = round(naive.imbalance, 3)

    assert planned.imbalance <= DEFAULT_IMBALANCE_BOUND, (
        f"planned imbalance {planned.imbalance:.3f} exceeds the "
        f"{DEFAULT_IMBALANCE_BOUND} acceptance bound "
        f"(shard costs {planned.shard_costs})"
    )
    assert planned.imbalance <= naive.imbalance, (
        f"planner ({planned.imbalance:.3f}) lost to round-robin "
        f"({naive.imbalance:.3f}) on its home-turf workload"
    )
    # Rates are seed-deterministic, so the measured history — and with it
    # the plan — is reproducible; the partition must cover every unit once.
    owned = [unit for shard in range(SHARDS) for unit in planned.members(shard)]
    assert sorted(owned) == list(range(len(tasks)))
