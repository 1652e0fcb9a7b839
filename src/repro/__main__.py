"""Command-line interface: ``python -m repro``.

Three subcommands cover the common entry points without writing any Python:

``python -m repro list``
    List every registered experiment with its paper claim.

``python -m repro run T1R2 FIG-NOISE --scale quick``
    Run selected experiments (or all of them with ``--all``) and print their
    result tables; optionally save the JSON results and the markdown report.

``python -m repro estimate --mechanism sd --population 256 --gap 16``
    One-off Monte-Carlo estimate of the majority-consensus probability for a
    given configuration.

``python -m repro info``
    Print the repro and numpy versions and the registered scenario families
    (``--version`` prints the two versions on one line).

``run`` and ``estimate`` accept ``--jobs N`` to fan fused mega-batches
(``--sweep-batch`` replicas wide) out to ``N`` worker processes through the
:class:`~repro.experiments.scheduler.SweepScheduler`; the results are
identical for every job count and width because batch seeds are spawned
from the root seed before dispatch.

``--target-ci-width W`` (optionally with ``--max-replicates CAP``) switches
the sweeps from fixed replicate budgets to **adaptive precision**: every
configuration runs replicate waves until its ρ(S) Wilson interval is at most
``W`` wide per side, so easy configurations stop early and hard ones get the
freed budget.  Without the flag the fixed budgets run bit-for-bit as before
(the exact-reproducibility mode).

``--backend {exact,tau,auto}`` selects the simulation backend: ``exact``
(default, bitwise-reproducible lock-step jump chains), ``tau`` (the
approximate vectorized tau-leaping engine for very large populations), or
``auto`` (tau above a population threshold, exact below).  ``--tau-epsilon``
tunes the leap accuracy.  Tau results are seed-deterministic but not
bitwise-comparable to exact results; see DESIGN.md for the contract.

``--cache-dir DIR`` attaches the persistent result store
(:mod:`repro.store`): every executed simulation chunk is journaled as it
finishes and already-journaled chunks are replayed instead of recomputed, so
an interrupted run (Ctrl-C, SIGTERM, crash) re-invoked against the same
cache directory reproduces the uninterrupted run **bit-for-bit** while only
simulating the missing suffix.  ``--resume`` additionally serves experiments
whose exact ``(id, config, seed)`` run already completed straight from the
run tier (and defaults the cache directory to ``.repro-cache`` when no
``--cache-dir`` is given); ``--no-cache`` disables the store even when the
``REPRO_CACHE_DIR`` environment variable is set.

``--shards K --shard-index i`` makes the invocation **one shard of a
distributed run** (:mod:`repro.shard`): it executes only shard *i*'s
deterministic share of the K balanced shards of every sweep grid into its
own ``--cache-dir``.  Run the K shard commands on any machines, union the
caches with ``merge-cache``, and replay against the merged cache: every
chunk is served, and the result is bitwise-identical to a single-process
run.  ``--shards`` without ``--shard-index`` is an error; ``--jobs`` is the
way to use several processes on one machine.  ``--shard-history`` feeds the
balance planner measured per-configuration event rates (a previous run's
cache directory or a ``BENCH_sweep.json``); without it, costs fall back to
replicate budgets.

``python -m repro merge-cache DST SRC [SRC ...]``
    Union shard cache directories into one store: checksum-verified,
    conflict-checked (same chunk key with different bytes is a hard
    error), and idempotent — re-merging or overlapping sources skip
    already-present identical chunks.

``python -m repro lint``
    Run the determinism-contract linter (:mod:`repro.contracts`) over the
    configured source tree: RNG discipline, iteration-order determinism,
    and store-key purity, enforced statically from the AST.  Exits 0
    exactly when every finding is covered by a justified
    ``# repro: noqa-RC###: <why>`` waiver; ``--format json``
    emits the machine-readable report CI archives on failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy

from repro.analysis.statistics import PrecisionTarget
from repro.experiments import (
    list_experiments,
    render_report,
    run_experiment,
    save_results,
)
from repro.experiments.scheduler import (
    FaultTolerance,
    configure_default_scheduler,
    get_default_scheduler,
)
from repro.experiments.sweep import SweepTask
from repro.experiments.workloads import state_with_gap
from repro.exceptions import ModelError, StoreError
from repro.lv.params import LVParams
from repro.shard import EventRateHistory
from repro.store import ExperimentStore, merge_cache, verify_journal
from repro._version import __version__

__all__ = ["main", "build_parser", "DEFAULT_CACHE_DIR"]

#: Cache directory used by ``--resume`` when neither ``--cache-dir`` nor the
#: ``REPRO_CACHE_DIR`` environment variable names one.
DEFAULT_CACHE_DIR = ".repro-cache"


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction toolkit for 'Majority consensus thresholds in "
        "competitive Lotka-Volterra populations' (PODC 2024).",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=_version_line(),
        help="print the repro and numpy versions",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the registered experiments")

    subparsers.add_parser(
        "info",
        help="print the repro and numpy versions and the registered scenario "
        "families",
    )

    run_parser = subparsers.add_parser("run", help="run experiments and print their tables")
    run_parser.add_argument("identifiers", nargs="*", help="experiment ids (see 'list')")
    run_parser.add_argument("--all", action="store_true", help="run every experiment")
    run_parser.add_argument("--scale", choices=("quick", "full"), default="quick")
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes for replicate batches"
    )
    run_parser.add_argument(
        "--sweep-batch",
        type=int,
        default=None,
        metavar="WIDTH",
        help="replicas per fused mega-batch of the sweep engine (default 2048)",
    )
    _add_backend_arguments(run_parser)
    _add_precision_arguments(run_parser)
    _add_cache_arguments(run_parser)
    _add_fault_arguments(run_parser)
    _add_shard_arguments(run_parser)
    run_parser.add_argument("--json", type=Path, default=None, help="save raw results to this path")
    run_parser.add_argument(
        "--report", type=Path, default=None, help="write the markdown report to this path"
    )

    estimate_parser = subparsers.add_parser(
        "estimate", help="estimate rho(S) for one configuration"
    )
    estimate_parser.add_argument("--mechanism", choices=("sd", "nsd"), default="sd")
    estimate_parser.add_argument("--population", type=int, required=True)
    estimate_parser.add_argument("--gap", type=int, required=True)
    estimate_parser.add_argument("--beta", type=float, default=1.0)
    estimate_parser.add_argument("--delta", type=float, default=1.0)
    estimate_parser.add_argument("--alpha", type=float, default=1.0)
    estimate_parser.add_argument("--gamma", type=float, default=0.0)
    estimate_parser.add_argument("--runs", type=int, default=500)
    estimate_parser.add_argument("--seed", type=int, default=0)
    estimate_parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes for replicate batches"
    )
    estimate_parser.add_argument(
        "--sweep-batch",
        type=int,
        default=None,
        metavar="WIDTH",
        help="replicas per fused mega-batch of the sweep engine (default 2048)",
    )
    _add_backend_arguments(estimate_parser)
    _add_precision_arguments(estimate_parser)
    _add_cache_arguments(estimate_parser)
    _add_fault_arguments(estimate_parser)

    merge_parser = subparsers.add_parser(
        "merge-cache",
        help="union shard cache directories into one store: checksum-verified, "
        "conflict-checked (same chunk key, different bytes is a hard error), "
        "and idempotent",
    )
    merge_parser.add_argument(
        "destination",
        type=Path,
        help="cache directory to merge into (created if missing)",
    )
    merge_parser.add_argument(
        "sources",
        type=Path,
        nargs="+",
        metavar="source",
        help="shard cache directories (or journal files) to union in",
    )

    lint_parser = subparsers.add_parser(
        "lint",
        help="statically check the determinism contracts (RNG discipline, "
        "iteration order, store-key purity); exits non-zero on any unwaived "
        "finding",
    )
    lint_parser.add_argument(
        "paths",
        nargs="*",
        metavar="path",
        help="files or directories to lint (default: the [tool.repro.contracts] "
        "paths, i.e. src/repro)",
    )
    lint_parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="report_format",
        help="report format: human-readable text (default) or the versioned "
        "JSON document CI archives",
    )
    lint_parser.add_argument(
        "--output",
        type=Path,
        default=None,
        metavar="PATH",
        help="also write the report to this file (the exit code is unchanged)",
    )
    lint_parser.add_argument(
        "--root",
        type=Path,
        default=None,
        metavar="DIR",
        help="project root holding pyproject.toml (default: the nearest "
        "ancestor of the working directory with one)",
    )

    verify_parser = subparsers.add_parser(
        "verify-cache",
        help="check the chunk journal's per-record checksums offline and "
        "report quarantined records (read-only; exits 1 on corruption)",
    )
    verify_parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="cache directory to verify (defaults to $REPRO_CACHE_DIR, then "
        f"{DEFAULT_CACHE_DIR!r})",
    )
    return parser


def _version_line() -> str:
    """The ``--version`` output: the repro and numpy versions."""
    return f"repro {__version__} (numpy {numpy.__version__})"


def _command_info(
    _parser: argparse.ArgumentParser, _arguments: argparse.Namespace
) -> int:
    print(f"repro version:   {__version__}")
    print(f"numpy version:   {numpy.__version__}")
    from repro.scenario.registry import list_families

    print("scenarios:")
    for family in list_families():
        print(
            f"  {family.name:<10} {family.num_species} species "
            f"({', '.join(family.species)}); backends: {', '.join(family.backends)}"
        )
    return 0


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="persistent result store: journal executed chunks here and replay "
        "already-journaled chunks instead of recomputing them (defaults to "
        "$REPRO_CACHE_DIR when set)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="serve experiments whose exact (id, config, seed) run already "
        f"completed from the cache (cache dir defaults to {DEFAULT_CACHE_DIR!r})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result store even when REPRO_CACHE_DIR is set",
    )


def _add_fault_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="retries per simulation chunk after a worker crash or timeout "
        f"before the chunk is quarantined (default {FaultTolerance().max_retries})",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock watchdog per dispatched chunk: a chunk running "
        "longer is declared hung, the workers are rebuilt, and the chunk "
        "retries (default: no timeout; only applies with --jobs > 1)",
    )
    parser.add_argument(
        "--on-fault",
        choices=("retry", "fail"),
        default=None,
        help="what to do when a chunk fails: 'retry' (default) applies the "
        "retry/quarantine policy, 'fail' raises on the first failure",
    )


def _fault_tolerance_from_arguments(
    parser: argparse.ArgumentParser, arguments: argparse.Namespace
) -> FaultTolerance:
    """Translate the fault flags into the scheduler's retry/timeout policy.

    Always returns a concrete policy (defaults when no flag is given) so
    repeated CLI invocations in one process never inherit a previous
    invocation's flags through the shared default scheduler.
    """
    defaults = FaultTolerance()
    if arguments.max_retries is not None and arguments.max_retries < 0:
        parser.error(
            f"--max-retries must be non-negative, got {arguments.max_retries}"
        )
    if arguments.task_timeout is not None and arguments.task_timeout <= 0:
        parser.error(
            f"--task-timeout must be positive, got {arguments.task_timeout}"
        )
    return FaultTolerance(
        max_retries=(
            defaults.max_retries
            if arguments.max_retries is None
            else arguments.max_retries
        ),
        task_timeout=arguments.task_timeout,
        on_fault=defaults.on_fault if arguments.on_fault is None else arguments.on_fault,
    )


def _add_shard_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="K",
        help="split the sweep grids into K balanced shards (requires "
        "--shard-index; for K processes on one machine use --jobs K)",
    )
    parser.add_argument(
        "--shard-index",
        type=int,
        default=None,
        metavar="I",
        help="run only shard I of --shards K into this invocation's own "
        "--cache-dir (for distributed runs; union the caches afterwards "
        "with 'merge-cache' and replay against the merged cache)",
    )
    parser.add_argument(
        "--shard-history",
        type=Path,
        default=None,
        metavar="PATH",
        help="per-configuration event-rate history for the shard planner: a "
        "previous run's cache directory/journal or a BENCH_sweep.json "
        "baseline (default: cost by replicate budgets alone)",
    )


def _validate_shard_arguments(
    parser: argparse.ArgumentParser, arguments: argparse.Namespace
) -> None:
    """Uniform ``parser.error`` treatment for the sharding flags."""
    if arguments.shards is None:
        for flag, value in (
            ("--shard-index", arguments.shard_index),
            ("--shard-history", arguments.shard_history),
        ):
            if value is not None:
                parser.error(f"{flag} requires --shards")
        return
    if arguments.shards < 1:
        parser.error(f"--shards must be at least 1, got {arguments.shards}")
    if arguments.shard_index is None:
        shards = arguments.shards
        parser.error(
            f"--shards {shards} requires --shard-index (one invocation per "
            "shard, each into its own --cache-dir, then 'merge-cache'); for "
            f"{shards} processes on this machine use --jobs {shards}"
        )
    if not 0 <= arguments.shard_index < arguments.shards:
        parser.error(
            f"--shard-index must be in [0, {arguments.shards}), "
            f"got {arguments.shard_index}"
        )
    if arguments.cache_dir is None:
        parser.error(
            "--shard-index requires --cache-dir: each shard journals its "
            "share of the grid into its own cache directory"
        )
    if arguments.resume:
        parser.error(
            "--shard-index cannot be combined with --resume: a shard's "
            "result contains placeholder rows and never touches the run tier"
        )
    if arguments.shard_history is not None and not arguments.shard_history.exists():
        parser.error(f"--shard-history path does not exist: {arguments.shard_history}")


def _shard_history_from_arguments(
    parser: argparse.ArgumentParser, arguments: argparse.Namespace
) -> "EventRateHistory | None":
    if arguments.shard_history is None:
        return None
    try:
        return EventRateHistory.load(arguments.shard_history)
    except StoreError as error:
        parser.error(str(error))
    raise AssertionError("parser.error returns NoReturn")  # pragma: no cover


def _store_from_arguments(
    parser: argparse.ArgumentParser, arguments: argparse.Namespace
) -> "ExperimentStore | None":
    """Resolve the cache flags into a store (or ``None`` for no caching)."""
    if arguments.no_cache:
        if arguments.resume:
            parser.error("--no-cache cannot be combined with --resume")
        if arguments.cache_dir is not None:
            parser.error("--no-cache cannot be combined with --cache-dir")
        return None
    cache_dir = arguments.cache_dir
    if cache_dir is None:
        environment = os.environ.get("REPRO_CACHE_DIR")
        if environment:
            cache_dir = Path(environment)
    if cache_dir is None and arguments.resume:
        cache_dir = Path(DEFAULT_CACHE_DIR)
    if cache_dir is None:
        return None
    return ExperimentStore(cache_dir)


def _add_backend_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        choices=("exact", "tau", "auto"),
        default=None,
        help="simulation backend: 'exact' (default; bitwise-reproducible "
        "jump chains), 'tau' (approximate vectorized tau-leaping for very "
        "large populations), or 'auto' (tau above a population threshold)",
    )
    parser.add_argument(
        "--tau-epsilon",
        type=float,
        default=None,
        metavar="EPS",
        help="tau-leaping accuracy: bounded relative propensity change per "
        "leap (default 0.03; smaller is more accurate and slower)",
    )


def _add_precision_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--target-ci-width",
        type=float,
        default=None,
        metavar="W",
        help="adaptive precision: run replicate waves until every rho estimate's "
        "Wilson half-width is at most W (omit for fixed replicate budgets)",
    )
    parser.add_argument(
        "--max-replicates",
        type=int,
        default=None,
        metavar="CAP",
        help="per-configuration replicate cap of the adaptive mode "
        f"(default {PrecisionTarget().max_replicates}; requires --target-ci-width)",
    )


def _precision_from_arguments(
    parser: argparse.ArgumentParser, arguments: argparse.Namespace
) -> "PrecisionTarget | None":
    """Translate the precision flags into a target (or None for fixed mode).

    All range checks go through ``parser.error`` so every invalid numeric
    flag behaves identically: a usage message on stderr and exit code 2
    (the same treatment argparse gives malformed values).
    """
    if arguments.target_ci_width is None:
        if arguments.max_replicates is not None:
            parser.error("--max-replicates requires --target-ci-width")
        return None
    if not 0.0 < arguments.target_ci_width < 1.0:
        parser.error(
            f"--target-ci-width must be in (0, 1), got {arguments.target_ci_width}"
        )
    if arguments.max_replicates is None:
        return PrecisionTarget(ci_half_width=arguments.target_ci_width)
    if arguments.max_replicates < 1:
        parser.error(
            f"--max-replicates must be at least 1, got {arguments.max_replicates}"
        )
    default = PrecisionTarget()
    return PrecisionTarget(
        ci_half_width=arguments.target_ci_width,
        max_replicates=arguments.max_replicates,
        min_replicates=min(default.min_replicates, arguments.max_replicates),
    )


def _command_list(
    _parser: argparse.ArgumentParser, _arguments: argparse.Namespace
) -> int:
    for spec in list_experiments():
        print(f"{spec.identifier:>10}  {spec.title}")
        print(f"{'':>12}{spec.paper_claim}")
    return 0


def _validate_scheduler_arguments(
    parser: argparse.ArgumentParser, arguments: argparse.Namespace
) -> None:
    """Uniform ``parser.error`` treatment for every numeric scheduler flag."""
    if arguments.jobs < 1:
        parser.error(f"--jobs must be at least 1, got {arguments.jobs}")
    if arguments.sweep_batch is not None and arguments.sweep_batch < 1:
        parser.error(f"--sweep-batch must be at least 1, got {arguments.sweep_batch}")
    if arguments.tau_epsilon is not None and not 0.0 < arguments.tau_epsilon < 1.0:
        parser.error(f"--tau-epsilon must be in (0, 1), got {arguments.tau_epsilon}")


def _command_run(
    parser: argparse.ArgumentParser, arguments: argparse.Namespace
) -> int:
    _validate_scheduler_arguments(parser, arguments)
    _validate_shard_arguments(parser, arguments)
    precision = _precision_from_arguments(parser, arguments)
    fault_tolerance = _fault_tolerance_from_arguments(parser, arguments)
    known = [spec.identifier for spec in list_experiments()]
    identifiers = known if arguments.all else arguments.identifiers
    if not identifiers:
        print("no experiments selected; pass ids or --all (see 'python -m repro list')")
        return 2
    unknown = [identifier for identifier in identifiers if identifier not in known]
    if unknown:
        parser.error(
            f"unknown experiment id(s): {', '.join(unknown)}; "
            f"known ids: {', '.join(known)}"
        )
    sharded = arguments.shards is not None
    shard_history = _shard_history_from_arguments(parser, arguments)
    # Validate every flag before the store exists: a parser.error after
    # acquiring the writer lock would leak it for the rest of the process.
    store = _store_from_arguments(parser, arguments)
    scheduler = configure_default_scheduler(
        jobs=arguments.jobs,
        sweep_batch=arguments.sweep_batch,
        precision=precision,
        backend=arguments.backend,
        tau_epsilon=arguments.tau_epsilon,
        store=store,
        fault_tolerance=fault_tolerance,
        shards=arguments.shards if sharded else 1,
        shard_index=arguments.shard_index if sharded else 0,
        shard_history=shard_history,
    )
    results = []
    for identifier in identifiers:
        result = run_experiment(
            identifier,
            scale=arguments.scale,
            seed=arguments.seed,
            store=store,
            resume=arguments.resume,
        )
        if sharded:
            # Rows outside this shard's share are placeholders, so findings
            # and a verdict over them would describe nothing, in the text,
            # the --json file or the --report alike.
            result = replace(result, findings=[], shape_matches_paper=None)
        results.append(result)
        print(result.render_text())
        if sharded:
            print("  verdict: waits for the merged replay of every shard")
        print()
    if store is not None:
        print(f"cache: {store.stats.summary()} ({store.describe()})")
    if scheduler.health.faults_handled:
        print(f"health: {scheduler.health.summary()}")
    if arguments.json is not None:
        save_results(results, arguments.json)
        print(f"wrote {arguments.json}")
    if arguments.report is not None:
        arguments.report.write_text(render_report(results))
        print(f"wrote {arguments.report}")
    if sharded:
        # Rows outside this shard's share are placeholders, so the
        # shape-vs-paper gate only applies to the merged replay.
        print(
            f"shard {arguments.shard_index}/{arguments.shards}: executed this "
            "shard's grid share; union the caches with 'merge-cache' and "
            "replay for full results"
        )
        return 0
    mismatched = [
        result.identifier for result in results if result.shape_matches_paper is False
    ]
    if mismatched:
        print(f"WARNING: measured shape does not match the paper for: {', '.join(mismatched)}")
        return 1
    return 0


def _params_from_arguments(
    parser: argparse.ArgumentParser, arguments: argparse.Namespace
) -> LVParams:
    """Validate the ``estimate`` configuration flags and build its model."""
    if arguments.runs < 1:
        parser.error(f"--runs must be at least 1, got {arguments.runs}")
    if arguments.population < 1:
        parser.error(f"--population must be at least 1, got {arguments.population}")
    if not 0 <= arguments.gap <= arguments.population:
        parser.error(
            f"--gap must be in [0, --population] = [0, {arguments.population}], "
            f"got {arguments.gap}"
        )
    for flag in ("beta", "delta", "alpha", "gamma"):
        value = getattr(arguments, flag)
        if not math.isfinite(value) or value < 0:
            parser.error(f"--{flag} must be a finite non-negative number, got {value}")
    constructor = (
        LVParams.self_destructive if arguments.mechanism == "sd" else LVParams.non_self_destructive
    )
    try:
        return constructor(
            beta=arguments.beta,
            delta=arguments.delta,
            alpha=arguments.alpha,
            gamma=arguments.gamma,
        )
    except ModelError as error:
        parser.error(str(error))
    raise AssertionError("parser.error returns NoReturn")  # pragma: no cover


def _command_estimate(
    parser: argparse.ArgumentParser, arguments: argparse.Namespace
) -> int:
    _validate_scheduler_arguments(parser, arguments)
    precision = _precision_from_arguments(parser, arguments)
    fault_tolerance = _fault_tolerance_from_arguments(parser, arguments)
    params = _params_from_arguments(parser, arguments)
    # Validate every flag before the store exists: a parser.error after
    # acquiring the writer lock would leak it for the rest of the process.
    store = _store_from_arguments(parser, arguments)
    scheduler = configure_default_scheduler(
        jobs=arguments.jobs,
        sweep_batch=arguments.sweep_batch,
        precision=precision,
        backend=arguments.backend,
        tau_epsilon=arguments.tau_epsilon,
        store=store,
        fault_tolerance=fault_tolerance,
        # 'estimate' has no shard flags; reset them so repeated main() calls
        # in one process never inherit a previous run's shard configuration.
        shards=1,
        shard_index=0,
        shard_history=None,
    )
    state = state_with_gap(arguments.population, arguments.gap)
    (estimate,) = scheduler.estimate_many(
        [SweepTask(params, state, arguments.runs, seed=arguments.seed)]
    )
    report = scheduler.last_adaptive_report if precision is not None else None
    print(f"model: {params.describe()}")
    print(f"initial state: {state} (n = {state.total}, gap = {state.abs_gap})")
    print(
        f"rho estimate: {estimate.majority_probability:.4f} "
        f"[{estimate.success.lower:.4f}, {estimate.success.upper:.4f}] "
        f"({estimate.num_runs} runs)"
    )
    print(f"mean consensus time: {estimate.mean_consensus_time:.1f} events")
    print(f"mean bad events J(S): {estimate.mean_bad_events:.2f}")
    if estimate.dead_heat_rate > 0:
        print(f"dead-heat rate: {estimate.dead_heat_rate:.4f}")
    if report is not None:
        status = "converged" if report.all_converged else "replicate cap reached"
        print(
            f"adaptive precision: {status} after {report.replicates[0]} replicates "
            f"in {report.waves} wave(s) "
            f"(achieved half-width {report.half_widths[0]:.4f}, "
            f"target {precision.ci_half_width})"
        )
    if store is not None:
        print(f"cache: {store.stats.summary()}")
    if scheduler.health.faults_handled:
        print(f"health: {scheduler.health.summary()}")
    return 0


def _command_merge_cache(
    _parser: argparse.ArgumentParser, arguments: argparse.Namespace
) -> int:
    """Union shard caches into one store (the journal-union merge)."""
    try:
        report = merge_cache(arguments.destination, arguments.sources)
    except StoreError as error:
        print(f"merge failed: {error}", file=sys.stderr)
        return 1
    print(report.summary())
    return 0


def _command_verify_cache(
    _parser: argparse.ArgumentParser, arguments: argparse.Namespace
) -> int:
    """Offline checksum audit of the chunk journal (read-only)."""
    cache_dir = arguments.cache_dir
    if cache_dir is None:
        environment = os.environ.get("REPRO_CACHE_DIR")
        cache_dir = Path(environment) if environment else Path(DEFAULT_CACHE_DIR)
    journal = Path(cache_dir) / "journal.jsonl"
    if not journal.exists():
        print(f"no journal at {journal}; nothing to verify")
        return 0
    report = verify_journal(journal)
    print(f"journal: {journal}")
    print(report.summary())
    for issue in report.issues:
        key = issue.key or "<unknown key>"
        print(f"  corrupt record at byte {issue.offset}: {issue.reason} ({key})")
    if not report.ok:
        print(
            "corrupt records will be quarantined and recomputed on the next "
            "run against this cache directory"
        )
        return 1
    return 0


def _command_lint(
    _parser: argparse.ArgumentParser, arguments: argparse.Namespace
) -> int:
    """Run the determinism-contract linter (exit 0 iff no active findings)."""
    from repro.contracts import LintError, lint_paths, render_json, render_text

    try:
        result = lint_paths(
            arguments.paths or None,
            root=arguments.root,
        )
    except LintError as error:
        print(f"lint failed: {error}", file=sys.stderr)
        return 2
    render = render_json if arguments.report_format == "json" else render_text
    report = render(result)
    if arguments.output is not None:
        arguments.output.parent.mkdir(parents=True, exist_ok=True)
        arguments.output.write_text(report)
    print(report, end="")
    return result.exit_code


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    handlers = {
        "list": _command_list,
        "info": _command_info,
        "run": _command_run,
        "estimate": _command_estimate,
        "merge-cache": _command_merge_cache,
        "verify-cache": _command_verify_cache,
        "lint": _command_lint,
    }
    try:
        return handlers[arguments.command](parser, arguments)
    finally:
        # Aborted runs (KeyboardInterrupt, mid-run errors) must not strand
        # worker processes: stop the default scheduler's pool on every exit
        # path.  The pool restarts lazily, so repeated main() calls in one
        # process (tests, notebooks) only pay a restart on the next sweep.
        scheduler = get_default_scheduler()
        scheduler.shutdown()
        # The cache flags scope a store to this invocation: detach it from
        # the process-wide scheduler and release its journal handle and
        # writer lock, so later library work in the same process never
        # journals to a stale directory.
        if scheduler.store is not None:
            scheduler.store.close()
            configure_default_scheduler(store=None)
        # Shard flags are likewise per-invocation: library work after a
        # --shard-index run must see the whole grid again.
        if get_default_scheduler().shards != 1:
            configure_default_scheduler(shards=1, shard_index=0, shard_history=None)


if __name__ == "__main__":
    sys.exit(main())
