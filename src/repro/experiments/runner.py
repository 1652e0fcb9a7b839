"""Sweep runner and JSON result persistence for the experiment harness.

Replicate execution is delegated to the process-wide
:class:`~repro.experiments.scheduler.SweepScheduler`; :func:`run_all`
forwards its *jobs* argument to the scheduler so sweeps can fan mega-batches
out to worker processes, and its *store*/*resume* arguments to the
scheduler and registry so whole experiment batches run cache-first against
a persistent :class:`~repro.store.ExperimentStore` (journaled chunks replay
instead of recomputing; completed runs are served from the run tier under
``resume=True``).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.analysis.statistics import PrecisionTarget
from repro.exceptions import ExperimentError
from repro.experiments.config import ExperimentResult
from repro.experiments.registry import get_experiment, list_experiments, run_experiment
from repro.experiments.scheduler import (
    configure_default_scheduler,
    get_default_scheduler,
)

if TYPE_CHECKING:
    from repro.store.store import ExperimentStore

__all__ = ["run_all", "save_results", "load_results"]


def run_all(
    identifiers: Sequence[str] | None = None,
    *,
    scale: str = "quick",
    seed: int = 0,
    progress: bool = False,
    jobs: int | None = None,
    precision: PrecisionTarget | None = None,
    store: "ExperimentStore | None" = None,
    resume: bool = False,
) -> list[ExperimentResult]:
    """Run all (or the selected) experiments sequentially.

    Parameters
    ----------
    identifiers:
        Experiment ids to run; ``None`` runs every registered experiment.
    scale, seed:
        Forwarded to each experiment.
    progress:
        Print a one-line progress message per experiment (used by the
        ``examples/`` scripts and the report generator).
    jobs:
        When given, run replicate batches on this many worker processes.
        The override is scoped to this call (the previous default scheduler
        is restored afterwards, keeping the warm worker pool), and results
        are identical for every value of *jobs* because batch seeds are
        spawned before dispatch.
    precision:
        When given, run the sweeps adaptively against this
        :class:`~repro.analysis.statistics.PrecisionTarget` instead of the
        experiments' fixed replicate budgets.  Scoped to this call like
        *jobs*.
    store:
        When given, attach this :class:`~repro.store.ExperimentStore` to
        the scheduler for the duration of the call: executed chunks are
        journaled as they finish, journaled chunks are replayed instead of
        recomputed, and completed experiments are persisted to the run
        tier.  Scoped to this call like *jobs*.
    resume:
        With a *store*, serve experiments whose exact ``(id, config,
        seed)`` run already completed straight from the run tier instead
        of re-running them.
    """
    previous = get_default_scheduler()
    override = jobs is not None or precision is not None or store is not None
    effective_store = store if store is not None else previous.store
    if override:
        configure_default_scheduler(
            jobs=jobs,
            precision=precision if precision is not None else previous.precision,
            store=effective_store,
        )
    try:
        return _run_all(
            identifiers,
            scale=scale,
            seed=seed,
            progress=progress,
            store=effective_store,
            resume=resume,
        )
    finally:
        if override:
            configure_default_scheduler(
                jobs=previous.jobs,
                batch_size=previous.batch_size,
                sweep_batch=previous.sweep_batch,
                precision=previous.precision,
                store=previous.store,
            )


def _run_all(
    identifiers: Iterable[str] | None,
    *,
    scale: str,
    seed: int,
    progress: bool,
    store: "ExperimentStore | None" = None,
    resume: bool = False,
) -> list[ExperimentResult]:
    if identifiers is None:
        specs = list_experiments()
    else:
        specs = [get_experiment(identifier) for identifier in identifiers]
    results = []
    for spec in specs:
        started = time.perf_counter()
        run_hits_before = store.stats.run_hits if store is not None else 0
        result = run_experiment(
            spec.identifier, scale=scale, seed=seed, store=store, resume=resume
        )
        elapsed = time.perf_counter() - started
        if progress:
            verdict = (
                "n/a"
                if result.shape_matches_paper is None
                else ("match" if result.shape_matches_paper else "MISMATCH")
            )
            cached = store is not None and store.stats.run_hits > run_hits_before
            suffix = "  (run served from cache)" if cached else ""
            print(f"[{spec.identifier:>10}] {elapsed:7.1f}s  shape: {verdict}{suffix}")
        results.append(result)
    return results


def save_results(results: Iterable[ExperimentResult], path: str | Path) -> Path:
    """Serialise experiment results to a JSON file."""
    path = Path(path)
    payload = [result.to_dict() for result in results]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


def load_results(path: str | Path) -> list[ExperimentResult]:
    """Load experiment results previously written by :func:`save_results`."""
    path = Path(path)
    if not path.exists():
        raise ExperimentError(f"no cached results at {path}")
    payload = json.loads(path.read_text())
    if not isinstance(payload, list):
        raise ExperimentError(f"unexpected result-file format in {path}")
    return [ExperimentResult.from_dict(item) for item in payload]
