"""Experiment harness reproducing the paper's evaluation (Table 1 + figures).

Every experiment from the per-experiment index in ``DESIGN.md`` is registered
here under a stable identifier (``T1R1-SD``, ``FIG-THRESH``, ...).  Each
experiment is a plain function taking a *scale* ("quick" for CI-sized runs,
"full" for the numbers reported in ``EXPERIMENTS.md``) and a seed, and
returning an :class:`~repro.experiments.config.ExperimentResult` containing
the measured rows, the corresponding paper claim, and a pass/fail verdict on
the claim's *shape*.

Typical usage::

    from repro.experiments import get_experiment, list_experiments, run_experiment

    for spec in list_experiments():
        result = run_experiment(spec.identifier, scale="quick", seed=0)
        print(result.render_text())

Sweep scheduling
----------------
All two-species workloads are executed through a process-wide
:class:`~repro.experiments.scheduler.SweepScheduler`.  Each experiment's full
``(configuration, replicate)`` grid is flattened into heterogeneous lock-step
mega-batches (:mod:`repro.experiments.sweep`): per-configuration budgets are
split into batches (:func:`~repro.experiments.workloads.replica_batches`),
one seed is spawned per ``(configuration, batch)`` up front
(:func:`repro.rng.spawn_seeds`), mixed-configuration mega-batches run through
the vectorized heterogeneous core
(:func:`repro.lv.ensemble.run_sweep_ensemble`) — inline by default, or on a
warm process pool when configured with ``jobs > 1`` (the CLI's ``--jobs``) —
and the results are demultiplexed back into per-configuration estimates.
Because all seeds are spawned before dispatch, results are bit-identical for
every job count.
"""

from repro.experiments.config import (
    ExperimentResult,
    ExperimentSpec,
    SCALES,
)
from repro.experiments.registry import (
    experiment_run_key,
    get_experiment,
    list_experiments,
    run_experiment,
)
from repro.experiments.report import render_report
from repro.experiments.runner import run_all, save_results, load_results
from repro.experiments.scheduler import (
    FaultTolerance,
    RunHealth,
    SweepScheduler,
    ThresholdRequest,
    WorkerPool,
    configure_default_scheduler,
    get_default_scheduler,
)
from repro.experiments.sweep import AdaptiveSweepReport, SweepTask
from repro.experiments.workloads import (
    population_grid,
    gap_grid,
    replica_batches,
    consortium_scenarios,
)

__all__ = [
    "ExperimentResult",
    "ExperimentSpec",
    "SCALES",
    "experiment_run_key",
    "get_experiment",
    "list_experiments",
    "run_experiment",
    "render_report",
    "run_all",
    "save_results",
    "load_results",
    "AdaptiveSweepReport",
    "FaultTolerance",
    "RunHealth",
    "SweepScheduler",
    "SweepTask",
    "ThresholdRequest",
    "WorkerPool",
    "configure_default_scheduler",
    "get_default_scheduler",
    "population_grid",
    "gap_grid",
    "replica_batches",
    "consortium_scenarios",
]
