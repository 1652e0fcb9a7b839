"""Replicate scheduling: batching, seeding, sweeps, and process parallelism.

Every experiment in the harness boils down to "run ``R`` independent
replicates of a two-species jump chain and summarise them" — usually for a
whole *grid* of configurations at once.  One scheduler,
:class:`SweepScheduler`, centralises how those budgets are executed: it
splits every configuration's budget into lock-step member batches
(:func:`repro.experiments.workloads.replica_batches`), derives one seed per
batch from the configuration's root seed (:func:`repro.rng.spawn_seeds`),
packs the members of the whole grid into heterogeneous mega-batches
(:mod:`repro.experiments.sweep`) advanced in one lock-step by
:func:`repro.lv.ensemble.run_sweep_ensemble`, runs them inline or on a
``ProcessPoolExecutor`` (the CLI's ``--jobs``), and demultiplexes the
results back into per-configuration estimates.  A single configuration is a
one-task sweep.  The scheduler also drives whole *threshold sweeps*:
concurrent bisection searches whose per-round probes are fused into
mega-batches (:func:`repro.consensus.threshold.drive_threshold_searches`).

Workers come from a :class:`WorkerPool` context manager: the process pool is
created lazily on the first parallel sweep, reused across calls *and* across
scheduler reconfigurations (``jobs`` toggles no longer respawn workers), and
torn down on ``shutdown``.  Seeds are always spawned before dispatch and the
engine gives every fused member its own streams, so results are
bit-identical for every worker count and packing width.

The scheduler additionally owns the **adaptive-precision layer**: when a
:class:`~repro.analysis.statistics.PrecisionTarget` is configured, grid
entry points run sequential replicate waves that retire configurations as
soon as their estimates are tight enough and re-invest the freed mega-batch
width into the configurations that still need events (see
:meth:`SweepScheduler.run_sweep_adaptive`).

A module-level default scheduler is shared by ``table1.py`` and
``figures.py``; the CLI and :func:`repro.experiments.runner.run_all` configure
it through :func:`configure_default_scheduler`.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from repro.analysis.statistics import PrecisionTarget
from repro.consensus.estimator import (
    ConsensusEstimate,
    summarise_ensemble,
)
from repro.consensus.noise import NoiseDecomposition, decomposition_from_ensemble
from repro.consensus.threshold import (
    GapProbe,
    ThresholdEstimate,
    ThresholdSearch,
    drive_threshold_searches,
)
from repro.exceptions import (
    ExperimentError,
    PoisonChunkError,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.experiments.sweep import (
    DEFAULT_SWEEP_BATCH,
    DEFAULT_WAVE_QUANTUM,
    AdaptiveSweepReport,
    AdaptiveTaskState,
    MemberSpec,
    SweepTask,
    demux_mega_results,
    execute_mega_batch,
    pack_members,
    placeholder_ensemble,
    plan_members,
)
from repro.lv.ensemble import COLLECT_MODES, LVEnsembleResult
from repro.lv.native import resolve_engine
from repro.lv.params import LVParams
from repro.lv.tau import BACKENDS, DEFAULT_TAU_EPSILON, resolve_backend
from repro.lv.simulator import DEFAULT_MAX_EVENTS
from repro.rng import SeedLike
from repro.shard.planner import (
    EventRateHistory,
    ShardPlan,
    config_signature,
    plan_shards,
    threshold_probe_factor,
    unit_costs,
)
from repro.store.keys import chunk_key

if TYPE_CHECKING:
    from repro.store.store import ExperimentStore

__all__ = [
    "FaultTolerance",
    "RunHealth",
    "SweepScheduler",
    "ThresholdRequest",
    "WorkerPool",
    "get_default_scheduler",
    "configure_default_scheduler",
]

#: Default replicas per lock-step batch.  Large enough to amortise the numpy
#: per-step overhead across the batch, small enough that process-parallel
#: sweeps still have several batches to distribute.
DEFAULT_BATCH_SIZE = 512


def _jobs_sanity_limit() -> int:
    """The largest worker count that is plausibly intentional on this host."""
    return max(64, 8 * (os.cpu_count() or 1))


def _check_collect(collect: str) -> None:
    """Reject an unknown statistics level before any planning or store lookup."""
    if collect not in COLLECT_MODES:
        raise ExperimentError(
            f"collect must be one of {COLLECT_MODES}, got {collect!r}"
        )


@dataclass(frozen=True)
class FaultTolerance:
    """Retry/timeout policy for chunk execution (the CLI's fault flags).

    Parameters
    ----------
    max_retries:
        Retries per work unit after its first failure.  ``0`` disables
        retrying; the unit is still quarantined rather than aborting the
        sweep, so completed chunks survive (set ``on_fault="fail"`` for the
        old fail-fast behaviour).
    task_timeout:
        Wall-clock seconds a pool-dispatched unit may run before the
        watchdog declares it hung, kills the workers, and requeues it as a
        failed attempt.  ``None`` (the default) disables the watchdog.
        Inline execution (``jobs=1``) cannot be interrupted and ignores it.
    on_fault:
        ``"retry"`` (the default) applies the retry/requeue/quarantine
        machinery; ``"fail"`` raises on the first failure — after
        journaling whatever already completed — with the opaque executor
        errors mapped to actionable ones
        (:class:`~repro.exceptions.WorkerCrashError`,
        :class:`~repro.exceptions.TaskTimeoutError`).
    backoff_base / backoff_cap:
        Exponential-backoff schedule between retries of one unit: attempt
        ``k`` sleeps ``min(backoff_cap, backoff_base * 2**(k-1))`` seconds,
        scaled by a deterministic jitter in ``[0.5, 1.0)`` derived from the
        unit token and attempt number — desynchronising retry storms
        without introducing nondeterminism (results never depend on timing;
        the jitter only has to be reproducible, not random).
    """

    max_retries: int = 2
    task_timeout: float | None = None
    on_fault: str = "retry"
    backoff_base: float = 0.05
    backoff_cap: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ExperimentError(
                f"max_retries must be non-negative, got {self.max_retries}"
            )
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ExperimentError(
                f"task_timeout must be positive or None, got {self.task_timeout}"
            )
        if self.on_fault not in ("retry", "fail"):
            raise ExperimentError(
                f"on_fault must be 'retry' or 'fail', got {self.on_fault!r}"
            )
        if self.backoff_base < 0:
            raise ExperimentError(
                f"backoff_base must be non-negative, got {self.backoff_base}"
            )
        if self.backoff_cap < self.backoff_base:
            raise ExperimentError(
                f"backoff_cap ({self.backoff_cap}) must be at least "
                f"backoff_base ({self.backoff_base})"
            )

    def backoff_delay(self, token: Any, attempt: int) -> float:
        """Deterministically jittered backoff before retry *attempt* (>= 1)."""
        if self.backoff_base == 0.0:
            return 0.0
        raw = min(self.backoff_cap, self.backoff_base * 2.0 ** max(0, attempt - 1))
        digest = hashlib.sha256(f"backoff:{token}:{attempt}".encode("utf-8")).digest()
        jitter = 0.5 + 0.5 * (int.from_bytes(digest[:8], "big") / 2.0**64)
        return raw * jitter


@dataclass
class RunHealth:
    """Fault-handling meters of one scheduler (surfaced next to ``cache:``).

    Counts accumulate across calls, like ``events_executed``; none of them
    affect results — every recovery path reproduces the bytes of a
    fault-free run.
    """

    #: Failed unit executions that were retried (crashes, injected faults).
    retries: int = 0
    #: Innocent in-flight units resubmitted after a pool kill/break.
    requeues: int = 0
    #: Units the wall-clock watchdog declared hung.
    timeouts: int = 0
    #: Worker pools killed and rebuilt (broken pool or hung task).
    pool_rebuilds: int = 0
    #: Chunk keys/labels that exhausted their retry budget.
    quarantined: list[str] = field(default_factory=list)

    @property
    def faults_handled(self) -> int:
        """Total fault events absorbed (0 on a clean run)."""
        return (
            self.retries
            + self.requeues
            + self.timeouts
            + self.pool_rebuilds
            + len(self.quarantined)
        )

    def summary(self) -> str:
        parts = []
        if self.retries:
            parts.append(f"{self.retries} retr{'y' if self.retries == 1 else 'ies'}")
        if self.requeues:
            parts.append(f"{self.requeues} requeue(s)")
        if self.timeouts:
            parts.append(f"{self.timeouts} timeout(s)")
        if self.pool_rebuilds:
            parts.append(f"{self.pool_rebuilds} pool rebuild(s)")
        if self.quarantined:
            parts.append(f"{len(self.quarantined)} chunk(s) quarantined")
        return ", ".join(parts) if parts else "no faults"


class WorkerPool:
    """Owns the :class:`ProcessPoolExecutor` that schedulers share.

    Before this context manager existed, every scheduler reconfiguration
    (e.g. :func:`runner.run_all <repro.experiments.runner.run_all>` toggling
    ``jobs`` around a sweep) tore the process pool down and respawned it —
    worker start-up costs paid once per experiment instead of once per
    process.  The pool is now created lazily on first use, reused across
    estimate/sweep calls *and* across scheduler reconfigurations
    (:func:`configure_default_scheduler` hands it to the new scheduler), and
    rebuilt only when a *different* worker count is requested — matching
    the requested count exactly, so lowering ``jobs`` really lowers the
    process-parallelism cap.

    Use it as a context manager to scope the workers' lifetime explicitly::

        with WorkerPool() as pool:
            scheduler = SweepScheduler(jobs=4, pool=pool)
            ...

    Aborted runs never strand workers: the first ``acquire`` registers an
    ``atexit`` safety net that force-stops any still-running executor at
    interpreter shutdown (covering code paths that create the pool lazily
    and then die before reaching ``shutdown``), and the scheduler
    additionally tears the pool down when an exception — including
    ``KeyboardInterrupt`` — escapes a sweep mid-flight.
    """

    def __init__(self) -> None:
        self._executor: ProcessPoolExecutor | None = None
        self._workers = 0
        self._atexit_registered = False

    @property
    def workers(self) -> int:
        """Worker count of the live executor (0 when none is running)."""
        return self._workers if self._executor is not None else 0

    def acquire(self, workers: int) -> ProcessPoolExecutor:
        """The shared executor, (re)built only if *workers* differs from its size."""
        if workers < 1:
            raise ExperimentError(f"workers must be at least 1, got {workers}")
        if self._executor is None or self._workers != workers:
            self.shutdown()
            self._executor = ProcessPoolExecutor(max_workers=workers)
            self._workers = workers
            if not self._atexit_registered:
                # Safety net for aborted CLI runs: whatever happens between
                # this lazy start and an explicit shutdown, the interpreter
                # never exits with live worker processes stranded.
                atexit.register(self._shutdown_at_exit)
                self._atexit_registered = True
        return self._executor

    def shutdown(self, *, wait: bool = True, cancel_futures: bool = False) -> None:
        """Stop the workers (no-op when none are running).

        *wait*/*cancel_futures* are forwarded to
        :meth:`~concurrent.futures.Executor.shutdown`; abort paths pass
        ``wait=False, cancel_futures=True`` so queued work is dropped
        instead of detaining the interpreter.
        """
        if self._executor is not None:
            self._executor.shutdown(wait=wait, cancel_futures=cancel_futures)
            self._executor = None
            self._workers = 0

    def kill_workers(self) -> None:
        """Terminate the worker processes immediately (no-op when idle).

        Unlike :meth:`shutdown`, this does not wait for running work:
        hung or poisoned workers are ``terminate()``d outright.  It is the
        only way to cancel an already-running task on a
        :class:`ProcessPoolExecutor`, so the fault-tolerant executor uses
        it for both hung-task recovery and broken-pool rebuilds; the next
        :meth:`acquire` starts a fresh pool.
        """
        if self._executor is None:
            return
        executor, self._executor = self._executor, None
        self._workers = 0
        processes = list(getattr(executor, "_processes", {}).values())
        for process in processes:
            process.terminate()
        executor.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            process.join(timeout=5.0)

    def _shutdown_at_exit(self) -> None:
        try:
            self.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass  # interpreter teardown: never turn cleanup into a crash

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


@dataclass(frozen=True)
class ThresholdRequest:
    """One threshold search of a fused threshold sweep.

    The fields are a :class:`~repro.consensus.threshold.ThresholdSearch`'s
    parameters plus the population searched and the root seed;
    :meth:`SweepScheduler.find_thresholds` runs many requests concurrently,
    fusing each bisection round's probes into mega-batches.
    """

    params: LVParams
    population_size: int
    num_runs: int = 200
    target_probability: float | None = None
    max_gap: int | None = None
    max_events: int = DEFAULT_MAX_EVENTS
    seed: SeedLike = None
    #: Per-request precision override; ``None`` falls back to the sweep-level
    #: target (the ``target`` argument of ``find_thresholds``, then the
    #: scheduler's ``precision``), and fixed budgets when all are ``None``.
    precision: PrecisionTarget | None = None


@dataclass
class SweepScheduler:
    """Deterministic replicate executor: every budget runs as fused mega-batches.

    Each entry point flattens its ``(configuration, replicate)`` grid into
    heterogeneous mega-batches of at most *sweep_batch* replicas.  One
    lock-step advance then serves every configuration simultaneously, so
    the per-step numpy dispatch cost — dominant for the few-hundred-replica
    batches the experiments use — is paid once per sweep instead of once per
    configuration.  A single configuration is a one-task sweep.

    Parameters
    ----------
    jobs:
        Number of worker processes.  ``1`` (the default) executes
        mega-batches inline; higher values fan them out to a process pool.
        The result is bit-identical for every value of *jobs* because member
        seeds are derived from the task seeds before dispatch.  Values
        beyond a sanity limit (eight workers per CPU, at least 64) are
        rejected with an :class:`~repro.exceptions.ExperimentError` at
        construction instead of failing deep inside the executor.
    batch_size:
        Replicas per member: each task's budget is split into batches of at
        most this many replicas
        (:func:`~repro.experiments.workloads.replica_batches`), each with
        its own seed spawned from the task's root seed.  The decomposition
        fixes the seeds, so unlike *sweep_batch* it selects the results.
    backend:
        Simulation backend for every executed member: ``"exact"`` (the
        default — the bitwise-reproducible lock-step jump-chain engine),
        ``"tau"`` (the approximate large-``n`` tau-leaping engine of
        :mod:`repro.lv.tau`), or ``"auto"`` (tau at or above
        :data:`repro.lv.tau.DEFAULT_TAU_POPULATION` total population,
        exact below).  Individual :class:`~repro.experiments.sweep.SweepTask`
        entries may override this per task.
    tau_epsilon:
        Accuracy parameter of the tau-leaping backend (bounded relative
        propensity change per leap); ignored by the exact engine.
    pool:
        The :class:`WorkerPool` that owns the worker processes.  Each
        scheduler gets its own by default; pass a shared instance to let
        several schedulers (or successive reconfigurations of the default
        scheduler) reuse one warm set of workers.  Workers are started
        lazily on the first parallel sweep and live until
        :meth:`shutdown` (or the pool's own context exit).
    store:
        Optional :class:`~repro.store.ExperimentStore`.  When set, every
        executed member is journaled under its content-address as its
        mega-batch finishes, and members whose keys are already journaled
        are **replayed from the store instead of simulated** — making every
        entry point cache-first and every interrupted run resumable
        bitwise-identically (the chunk keys deliberately exclude ``jobs``
        and ``sweep_batch``, which the engine contract guarantees never
        change results).  ``None`` (the default) keeps the
        recompute-always behaviour with zero overhead.
    sweep_batch:
        Mega-batch width: the most replicas advanced per lock-step
        iteration.  Purely an execution knob.

    The scheduler is also a context manager: entering pre-warms the pool
    (when ``jobs > 1``) and exiting stops it.  The ``events_executed``
    counter accumulates the number of simulated jump events — exact events
    plus the tau backend's estimated leap firings — which the benchmark
    harness reads to report events/second; ``leap_events_executed`` counts
    the leap-estimated subset, so ``events_executed -
    leap_events_executed`` is the exactly simulated remainder.

    Examples
    --------
    >>> from repro.experiments.sweep import SweepTask
    >>> scheduler = SweepScheduler()
    >>> sd = LVParams.self_destructive(beta=1.0, delta=1.0, alpha=1.0)
    >>> nsd = LVParams.non_self_destructive(beta=1.0, delta=1.0, alpha=1.0)
    >>> estimates = scheduler.estimate_many(
    ...     [SweepTask(sd, (30, 10), 40, seed=1),
    ...      SweepTask(nsd, (30, 10), 40, seed=2)])
    >>> [estimate.num_runs for estimate in estimates]
    [40, 40]

    Adaptive precision
    ------------------
    When a :class:`~repro.analysis.statistics.PrecisionTarget` is configured
    (the *precision* field, the CLI's ``--target-ci-width``, or a ``target``
    argument on a grid entry point), the grid entry points switch from fixed
    replicate budgets to **sequential waves**: every wave runs fused
    mega-batches of per-task chunks, converged tasks retire, and the freed
    mega-batch width goes to the survivors, whose next-wave budgets follow
    the target's variance-aware plan.  Chunked, prefix-stable seeding plus
    the engine's per-member streams make every estimate — and therefore the
    retired set — bitwise-independent of ``sweep_batch``, ``batch_size``,
    and ``jobs``.  The fixed-budget path (no target anywhere) remains the
    exact-reproducibility mode and is bit-for-bit unchanged.
    """

    jobs: int = 1
    batch_size: int = DEFAULT_BATCH_SIZE
    backend: str = "exact"
    tau_epsilon: float = DEFAULT_TAU_EPSILON
    pool: WorkerPool = field(default_factory=WorkerPool, repr=False, compare=False)
    store: "ExperimentStore | None" = field(default=None, repr=False, compare=False)
    events_executed: int = field(default=0, init=False, repr=False, compare=False)
    leap_events_executed: int = field(default=0, init=False, repr=False, compare=False)
    #: Simulated events served from the result store instead of recomputed
    #: (cache hits); ``events_executed`` counts only genuinely executed work.
    events_replayed: int = field(default=0, init=False, repr=False, compare=False)
    #: Retry/timeout policy applied to every executed mega-batch (see
    #: :class:`FaultTolerance`); the defaults absorb transient worker
    #: crashes with two retries and no timeout watchdog.
    fault_tolerance: FaultTolerance = field(
        default_factory=FaultTolerance, repr=False, compare=False
    )
    #: Fault-handling meters of this scheduler's lifetime (see
    #: :class:`RunHealth`); ``health.faults_handled == 0`` on a clean run.
    health: RunHealth = field(
        default_factory=RunHealth, init=False, repr=False, compare=False
    )
    sweep_batch: int = DEFAULT_SWEEP_BATCH
    precision: PrecisionTarget | None = None
    wave_quantum: int = DEFAULT_WAVE_QUANTUM
    #: Shard-of-K execution: with ``shards=K``, the grid entry points
    #: partition their grid units deterministically into K balanced shards
    #: (:mod:`repro.shard.planner`) and execute **only** shard
    #: ``shard_index``'s units; the other units return zero-work
    #: placeholder results (:func:`repro.experiments.sweep
    #: .placeholder_ensemble`).  Chunk keys exclude every execution knob,
    #: so the union of the K shard journals is bitwise-identical to a
    #: single-process run's journal — merge with ``repro merge-cache``.
    shards: int = 1
    shard_index: int = 0
    #: Cost-model input of the shard planner: measured events-per-replicate
    #: rates per configuration (:class:`repro.shard.planner
    #: .EventRateHistory`).  Must be the *same* history object/content in
    #: every shard process — each one recomputes the identical plan from it
    #: — so feed it from a static input (a previous run's journal or the
    #: committed benchmark baseline), never the shard's own live store.
    #: ``None`` falls back to member-count costs.
    shard_history: "EventRateHistory | None" = field(
        default=None, repr=False, compare=False
    )
    last_adaptive_report: AdaptiveSweepReport | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ExperimentError(f"jobs must be at least 1, got {self.jobs}")
        limit = _jobs_sanity_limit()
        if self.jobs > limit:
            raise ExperimentError(
                f"jobs={self.jobs} exceeds the sanity limit of {limit} worker "
                "processes (8 per CPU); this is almost certainly a "
                "misconfiguration, and the process pool would fail or thrash "
                "long after scheduling started"
            )
        if self.batch_size < 1:
            raise ExperimentError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.backend not in BACKENDS:
            raise ExperimentError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if not 0.0 < self.tau_epsilon < 1.0:
            raise ExperimentError(
                f"tau_epsilon must be in (0, 1), got {self.tau_epsilon}"
            )
        if not isinstance(self.fault_tolerance, FaultTolerance):
            raise ExperimentError(
                "fault_tolerance must be a FaultTolerance instance, "
                f"got {self.fault_tolerance!r}"
            )
        if self.sweep_batch < 1:
            raise ExperimentError(
                f"sweep_batch must be at least 1, got {self.sweep_batch}"
            )
        if self.wave_quantum < 1:
            raise ExperimentError(
                f"wave_quantum must be at least 1, got {self.wave_quantum}"
            )
        if self.shards < 1:
            raise ExperimentError(f"shards must be at least 1, got {self.shards}")
        if not 0 <= self.shard_index < self.shards:
            raise ExperimentError(
                f"shard_index must be in [0, {self.shards}), got {self.shard_index}"
            )
        if self.shard_history is not None and not isinstance(
            self.shard_history, EventRateHistory
        ):
            raise ExperimentError(
                "shard_history must be an EventRateHistory instance, "
                f"got {self.shard_history!r}"
            )

    # ------------------------------------------------------------------
    # Worker-pool lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "SweepScheduler":
        if self.jobs > 1:
            self.pool.acquire(self.jobs)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        """Stop the worker pool (no-op when none is running)."""
        self.pool.shutdown()

    @contextmanager
    def _pool_scope(self, num_units: int) -> Iterator[ProcessPoolExecutor | None]:
        """Yield the executor for one sweep (or ``None`` for inline runs).

        The shared :class:`WorkerPool` starts its workers on the first
        parallel sweep and keeps them warm across calls — never once per
        batch, and no longer once per top-level call or per ``jobs``
        reconfiguration.  If an exception (including ``KeyboardInterrupt``)
        escapes the sweep, the pool is force-stopped before the exception
        propagates, so aborted runs do not strand worker processes.
        """
        if self.jobs == 1 or num_units <= 1:
            yield None
            return
        try:
            yield self.pool.acquire(self.jobs)
        except BaseException:
            self.pool.shutdown(wait=False, cancel_futures=True)
            raise

    # ------------------------------------------------------------------
    # Fault-tolerant execution core
    # ------------------------------------------------------------------
    def _fail_fast(
        self, error: BaseException, labels: tuple[str, ...], kind: str
    ) -> BaseException:
        """The exception raised for one failure under ``on_fault="fail"``."""
        description = ", ".join(labels)
        advice = (
            "retry with --jobs 1 to execute inline, or raise --max-retries / "
            "set --task-timeout to ride out transient faults"
        )
        if kind == "timeout":
            return TaskTimeoutError(
                f"chunk {description} exceeded the task timeout of "
                f"{self.fault_tolerance.task_timeout}s; {advice}"
            )
        if kind == "crash" or isinstance(error, BrokenProcessPool):
            return WorkerCrashError(
                f"a worker process died while executing chunk {description} "
                f"({error or 'BrokenProcessPool'}); {advice}"
            )
        return error

    def _execute_faulted(
        self,
        units: Sequence[tuple],
        fn: Callable[..., Any],
        describe: Callable[[int], tuple[str, ...]],
        on_result: Callable[[int, Any], None],
    ) -> None:
        """Execute *units* with retry, timeout, and pool-rebuild tolerance.

        The single execution engine behind every entry point (through
        :meth:`_execute_members`).  Each unit is a picklable argument tuple
        for the module-level *fn*, **without** the trailing ``attempt``
        argument — it is appended at dispatch time, so the fault-injection
        layer sees the true attempt number.  *describe(index)* returns the unit's chunk
        keys/labels for error reporting; *on_result(index, result)* is
        invoked exactly once per successful unit, **the moment the unit
        completes** — metering and journaling happen there, so an interrupt
        or a later poison chunk never costs finished work, and abandoned
        attempts are never metered (event meters equal a fault-free run's
        by construction).

        Fault policy (see :class:`FaultTolerance`): failures are retried
        with deterministic-jitter backoff up to ``max_retries`` times; a
        broken pool is killed, rebuilt, and its in-flight units requeued; a
        unit exceeding ``task_timeout`` is declared hung, the pool is
        rebuilt (the only way to stop a running task), the overdue unit
        loses an attempt, and innocent in-flight units requeue free of
        charge.  Units that exhaust their budget are quarantined —
        execution continues, and a :class:`~repro.exceptions
        .PoisonChunkError` naming the quarantined chunks is raised only
        after every healthy unit has completed.  With ``on_fault="fail"``
        the first failure raises immediately (as an actionable
        :class:`~repro.exceptions.WorkerCrashError` /
        :class:`~repro.exceptions.TaskTimeoutError` where applicable).
        """
        if not units:
            return
        with self._pool_scope(len(units)) as pool:
            if pool is None:
                self._execute_faulted_inline(units, fn, describe, on_result)
            else:
                self._execute_faulted_pool(pool, units, fn, describe, on_result)

    def _handle_failure(
        self,
        error: BaseException,
        index: int,
        attempt: int,
        describe: Callable[[int], tuple[str, ...]],
        failed: dict[int, BaseException],
        kind: str = "crash",
    ) -> bool:
        """Shared retry/fail/quarantine decision for one failed attempt.

        Returns ``True`` when the unit should be retried (at
        ``attempt + 1``); records it as quarantined and returns ``False``
        when its budget is exhausted; raises when ``on_fault="fail"``.
        """
        policy = self.fault_tolerance
        if policy.on_fault == "fail":
            raise self._fail_fast(error, describe(index), kind) from (
                error if isinstance(error, Exception) else None
            )
        if attempt < policy.max_retries:
            self.health.retries += 1
            return True
        labels = describe(index)
        self.health.quarantined.extend(labels)
        failed[index] = error
        return False

    def _raise_quarantined(
        self,
        failed: dict[int, BaseException],
        describe: Callable[[int], tuple[str, ...]],
    ) -> None:
        if not failed:
            return
        keys = [label for index in sorted(failed) for label in describe(index)]
        causes = "; ".join(
            f"{', '.join(describe(index))}: {failed[index]!r}"
            for index in sorted(failed)
        )
        raise PoisonChunkError(
            f"{len(failed)} chunk(s) kept failing after "
            f"{self.fault_tolerance.max_retries} retr"
            f"{'y' if self.fault_tolerance.max_retries == 1 else 'ies'} and "
            f"were quarantined ({causes}); every other chunk completed and "
            "was journaled — rerun to retry only the quarantined chunks, or "
            "use --jobs 1 / --on-fault fail to debug them inline",
            chunk_keys=keys,
        ) from next(iter(failed.values()))

    def _execute_faulted_inline(
        self,
        units: Sequence[tuple],
        fn: Callable[..., Any],
        describe: Callable[[int], tuple[str, ...]],
        on_result: Callable[[int, Any], None],
    ) -> None:
        """Inline (jobs=1) arm of :meth:`_execute_faulted`.

        No watchdog applies — a single process cannot interrupt its own
        execution — but retries, quarantine, and the
        journal-on-completion ordering are identical to the pool arm.
        """
        failed: dict[int, BaseException] = {}
        for index, unit in enumerate(units):
            attempt = 0
            while True:
                try:
                    result = fn(*unit, attempt)
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception as error:
                    if not self._handle_failure(
                        error, index, attempt, describe, failed
                    ):
                        break
                    attempt += 1
                    time.sleep(
                        self.fault_tolerance.backoff_delay(describe(index)[0], attempt)
                    )
                else:
                    on_result(index, result)
                    break
        self._raise_quarantined(failed, describe)

    def _execute_faulted_pool(
        self,
        executor: ProcessPoolExecutor,
        units: Sequence[tuple],
        fn: Callable[..., Any],
        describe: Callable[[int], tuple[str, ...]],
        on_result: Callable[[int, Any], None],
    ) -> None:
        """Pool arm of :meth:`_execute_faulted`: the submit/harvest loop.

        All units stay in flight concurrently (like the ``Executor.map``
        it replaces) but through explicit futures, which is what makes the
        watchdog, selective requeueing, and harvest-before-raise possible.
        ``done`` futures are processed in two passes — successes first,
        failures second — so one bad chunk can never suppress the
        journaling of good chunks that finished alongside it.
        """
        policy = self.fault_tolerance
        #: (index, attempt, earliest submit time) — backoff is enforced by
        #: the not-before timestamp instead of sleeping, so other units
        #: keep executing while one waits out its backoff.
        queue: deque[tuple[int, int, float]] = deque(
            (index, 0, 0.0) for index in range(len(units))
        )
        pending: dict[Future, tuple[int, int]] = {}
        deadlines: dict[Future, float] = {}
        failed: dict[int, BaseException] = {}

        def submit_ready() -> float | None:
            """Submit every ready queue entry; return the next not-before."""
            nonlocal executor
            next_ready: float | None = None
            for _ in range(len(queue)):
                index, attempt, not_before = queue.popleft()
                now = time.monotonic()
                if not_before > now:
                    queue.append((index, attempt, not_before))
                    wait = not_before - now
                    next_ready = wait if next_ready is None else min(next_ready, wait)
                    continue
                try:
                    future = executor.submit(fn, *units[index], attempt)
                except BrokenProcessPool:
                    # A worker died after the last wait: the executor
                    # refuses work before it fails the dead worker's
                    # future.  This unit never ran, so it keeps its
                    # attempt; the next wait sees that future fail and
                    # rebuilds the pool (at once when nothing is in flight).
                    queue.appendleft((index, attempt, not_before))
                    if pending:
                        break
                    rebuild_pool()
                    continue
                pending[future] = (index, attempt)
                if policy.task_timeout is not None:
                    deadlines[future] = time.monotonic() + policy.task_timeout
            return next_ready

        def rebuild_pool() -> None:
            nonlocal executor
            self.pool.kill_workers()
            self.health.pool_rebuilds += 1
            executor = self.pool.acquire(self.jobs)

        def requeue(index: int, attempt: int, *, backoff: bool) -> None:
            not_before = 0.0
            if backoff:
                not_before = time.monotonic() + policy.backoff_delay(
                    describe(index)[0], attempt
                )
            queue.append((index, attempt, not_before))

        try:
            while queue or pending:
                next_ready = submit_ready()
                if not pending:
                    if next_ready is not None:
                        time.sleep(next_ready)
                        continue
                    break  # every queued unit was submitted or resolved
                wait_timeout = next_ready
                if deadlines:
                    until_deadline = max(
                        0.0, min(deadlines.values()) - time.monotonic()
                    )
                    wait_timeout = (
                        until_deadline
                        if wait_timeout is None
                        else min(wait_timeout, until_deadline)
                    )
                done, _ = futures_wait(
                    set(pending), timeout=wait_timeout, return_when=FIRST_COMPLETED
                )
                # Pass 1: accept every success immediately (journal-on-
                # completion), deferring failures so they cannot mask work
                # that finished in the same wait round.
                failures: list[tuple[Future, BaseException]] = []
                pool_broken = False
                for future in done:
                    error = future.exception()
                    if error is None:
                        index, _ = pending.pop(future)
                        deadlines.pop(future, None)
                        on_result(index, future.result())
                    else:
                        failures.append((future, error))
                        pool_broken = pool_broken or isinstance(
                            error, BrokenProcessPool
                        )
                # Pass 2: route the failures through the retry policy.
                for future, error in failures:
                    index, attempt = pending.pop(future)
                    deadlines.pop(future, None)
                    if isinstance(error, BrokenProcessPool):
                        # Which unit killed the worker is unknowable from
                        # here — every in-flight future reports the same
                        # broken pool — so each affected unit loses an
                        # attempt; the injected-fault contract (faults
                        # don't refire on retries) and real transient
                        # crashes both converge under this accounting.
                        if self._handle_failure(
                            error, index, attempt, describe, failed, kind="crash"
                        ):
                            requeue(index, attempt + 1, backoff=True)
                        continue
                    if isinstance(error, (KeyboardInterrupt, SystemExit)):
                        raise error
                    if self._handle_failure(error, index, attempt, describe, failed):
                        requeue(index, attempt + 1, backoff=True)
                if pool_broken:
                    # The executor is dead: drain the remaining in-flight
                    # futures (their results are unrecoverable), requeue
                    # them as crash-failed attempts, and rebuild.
                    for future, (index, attempt) in list(pending.items()):
                        if self._handle_failure(
                            BrokenProcessPool("worker pool broke mid-flight"),
                            index,
                            attempt,
                            describe,
                            failed,
                            kind="crash",
                        ):
                            requeue(index, attempt + 1, backoff=True)
                    pending.clear()
                    deadlines.clear()
                    rebuild_pool()
                    continue
                # Watchdog: any still-pending future past its deadline is
                # hung.  A running task cannot be cancelled, so the pool is
                # killed and rebuilt; overdue units lose an attempt,
                # innocent in-flight units requeue at the same attempt.
                now = time.monotonic()
                overdue = [
                    future
                    for future, deadline in deadlines.items()
                    if deadline <= now and future in pending and not future.done()
                ]
                if overdue:
                    hung = set(overdue)
                    self.health.timeouts += len(hung)
                    for future in overdue:
                        index, attempt = pending.pop(future)
                        deadlines.pop(future, None)
                        if self._handle_failure(
                            TimeoutError(
                                f"exceeded task timeout of {policy.task_timeout}s"
                            ),
                            index,
                            attempt,
                            describe,
                            failed,
                            kind="timeout",
                        ):
                            requeue(index, attempt + 1, backoff=True)
                    for future, (index, attempt) in list(pending.items()):
                        if future.done() and future.exception() is None:
                            on_result(index, future.result())
                        else:
                            self.health.requeues += 1
                            requeue(index, attempt, backoff=False)
                    pending.clear()
                    deadlines.clear()
                    rebuild_pool()
        except BaseException:
            # Harvest whatever finished successfully before propagating
            # (Ctrl-C included): journaled work survives the interrupt.
            for future, (index, _) in list(pending.items()):
                try:
                    if future.done() and future.exception() is None:
                        on_result(index, future.result())
                except Exception:
                    pass  # harvesting is best-effort on the way out
            raise
        self._raise_quarantined(failed, describe)

    def _meter(self, result: LVEnsembleResult) -> None:
        """Fold one ensemble's event counts into the scheduler's meters.

        ``events_executed`` counts every simulated event (exact plus
        leap-estimated firings); ``leap_events_executed`` the leap-estimated
        subset contributed by the tau backend.
        """
        self.events_executed += int(result.total_events.sum())
        if result.leap_events is not None:
            self.leap_events_executed += int(result.leap_events.sum())

    # ------------------------------------------------------------------
    # Shard planning
    # ------------------------------------------------------------------
    def plan_task_shards(self, tasks: Sequence[SweepTask]) -> ShardPlan:
        """The deterministic K-way partition of *tasks* this scheduler uses.

        Costs come from :func:`repro.shard.planner.unit_costs`: the task's
        replicate budget scaled by the measured events-per-replicate rate of
        its configuration when :attr:`shard_history` covers it, the
        member-count fallback otherwise.  Pure function of the tasks and the
        scheduler's ``(shards, shard_history)`` — every shard process
        derives the identical plan, which is what makes "execute only my
        share" a partition rather than a race.
        """
        signatures = [
            config_signature(task.params, sum(task.counts), task.scenario)
            for task in tasks
        ]
        budgets = [task.num_runs for task in tasks]
        return plan_shards(
            unit_costs(signatures, budgets, self.shard_history), self.shards
        )

    def plan_threshold_shards(
        self, requests: Sequence["ThresholdRequest"]
    ) -> ShardPlan:
        """K-way partition of threshold searches (whole searches, never probes).

        A bisection generates its probes dynamically from measured
        probabilities, so the shardable unit is the entire search; its cost
        estimate is ``num_runs × ~log2(n)`` expected probes, rate-scaled
        when history covers the configuration.
        """
        signatures = [
            config_signature(request.params, request.population_size)
            for request in requests
        ]
        budgets = [
            request.num_runs * threshold_probe_factor(request.population_size)
            for request in requests
        ]
        return plan_shards(
            unit_costs(signatures, budgets, self.shard_history), self.shards
        )

    # ------------------------------------------------------------------
    # Mega-batch execution
    # ------------------------------------------------------------------
    def run_sweep(
        self, tasks: Sequence[SweepTask], *, collect: str = "full"
    ) -> list[LVEnsembleResult]:
        """Run every task's replicate budget in fused mega-batches.

        Returns one merged :class:`LVEnsembleResult` per task, in task order,
        laid out as batch order times in-batch order.  Every member draws
        from its own streams, so a task's result is a pure function of its
        seed and ``batch_size`` — the same whether it runs alone or fused
        with other tasks, and independent of ``jobs`` and ``sweep_batch``.
        *collect* selects the
        engine's statistics level (``"win"`` skips the event accounting that
        win-probability summaries never read; trajectories are identical).
        With a configured *store*, journaled members are replayed from disk
        and only the cache misses are packed and simulated.

        With ``shards > 1`` only the tasks the shard plan assigns to this
        scheduler's :attr:`shard_index` are executed (their results are
        exactly the single-process results — per-task seeding is independent
        of which other tasks run alongside); every other task returns a
        zero-work placeholder and journals nothing.
        """
        _check_collect(collect)
        if self.shards == 1:
            return self._run_sweep_local(tasks, collect)
        owned = self.plan_task_shards(tasks).members(self.shard_index)
        results: list[LVEnsembleResult | None] = [None] * len(tasks)
        if owned:
            owned_results = self._run_sweep_local(
                [tasks[index] for index in owned], collect
            )
            for index, result in zip(owned, owned_results):
                results[index] = result
        return [
            result
            if result is not None
            else placeholder_ensemble(task.params, task.initial_state, task.scenario)
            for task, result in zip(tasks, results)
        ]

    def _run_sweep_local(
        self, tasks: Sequence[SweepTask], collect: str
    ) -> list[LVEnsembleResult]:
        """The unsharded fixed-budget sweep core (all of *tasks* execute here)."""
        members = plan_members(tasks, batch_size=self.batch_size)
        member_results = self._execute_members(members, collect)
        return demux_mega_results(len(tasks), [members], [member_results])

    def _member_key(self, spec: MemberSpec, collect: str) -> str:
        """Content address of one planned member (see :mod:`repro.store.keys`)."""
        backend = resolve_backend(spec.backend or self.backend, sum(spec.counts))
        return chunk_key(
            params=spec.params,
            counts=spec.counts,
            num_replicates=spec.num_replicates,
            seed=spec.seed,
            max_events=spec.max_events,
            backend=backend,
            tau_epsilon=self.tau_epsilon,
            collect=collect,
            scenario=spec.scenario,
        )

    def _execute_members(
        self, specs: Sequence[MemberSpec], collect: str
    ) -> list[LVEnsembleResult]:
        """Per-spec results in spec order, cache-first when a store is set.

        Cache misses are repacked into fresh mega-batches — safe because the
        engine's per-member streams make every member's result independent
        of the packing — executed through the fault-tolerant core
        (:meth:`_execute_faulted`), journaled the moment
        each mega-batch finishes (one :meth:`ExperimentStore.batch` scope,
        so one fsync, per mega-batch), and merged back into spec order.
        """
        results: list[LVEnsembleResult | None] = [None] * len(specs)
        keys: list[str | None] = [None] * len(specs)
        misses = list(range(len(specs)))
        if self.store is not None:
            misses = []
            for index, spec in enumerate(specs):
                keys[index] = self._member_key(spec, collect)
                cached = self.store.get_chunk(keys[index])
                if cached is None:
                    misses.append(index)
                else:
                    results[index] = cached
                    self.events_replayed += int(cached.total_events.sum())
        if not misses:
            return results
        plans = pack_members([specs[index] for index in misses], self.sweep_batch)
        # Spec positions served by each plan, in plan order (packing
        # preserves member order, so the spans are consecutive slices).
        plan_spans: list[list[int]] = []
        cursor = 0
        for plan in plans:
            plan_spans.append(misses[cursor : cursor + len(plan)])
            cursor += len(plan)
        units = [
            (plan, collect, self.backend, self.tau_epsilon)
            for plan in plans
        ]

        def describe(plan_position: int) -> tuple[str, ...]:
            labels = []
            for index in plan_spans[plan_position]:
                spec = specs[index]
                labels.append(
                    keys[index]
                    if keys[index] is not None
                    else f"member(task={spec.task_index}, R={spec.num_replicates}, "
                    f"seed={spec.seed})"
                )
            return tuple(labels)

        def on_result(
            plan_position: int, plan_results: Sequence[LVEnsembleResult]
        ) -> None:
            # Journal plan by plan as mega-batches complete, not after the
            # whole sweep: a kill mid-sweep keeps every finished chunk.  A
            # mega-batch's chunks share one fsync, at the scope's exit.
            with nullcontext() if self.store is None else self.store.batch():
                for index, result in zip(plan_spans[plan_position], plan_results):
                    results[index] = result
                    self._meter(result)
                    if self.store is not None:
                        self.store.put_chunk(
                            keys[index],
                            result,
                            label=f"member(task={specs[index].task_index}, "
                            f"R={specs[index].num_replicates})",
                        )

        self._execute_faulted(units, execute_mega_batch, describe, on_result)
        return results

    # ------------------------------------------------------------------
    # Adaptive-precision waves
    # ------------------------------------------------------------------
    def run_sweep_adaptive(
        self,
        tasks: Sequence[SweepTask],
        *,
        target: "PrecisionTarget | Sequence[PrecisionTarget] | None" = None,
        collect: str = "full",
    ) -> list[LVEnsembleResult]:
        """Run the tasks in sequential waves until every precision target is met.

        Instead of one fixed plan, the sweep executes replicate *waves*:
        each wave fuses the pending chunks of every still-active task into
        mega-batches (converged tasks no longer contribute, so their freed
        width goes to the survivors), the per-task Wilson half-widths (and
        optional time relative errors) are re-evaluated, and the next wave
        is sized by the target's variance-aware plan.  *target* may be a
        single :class:`~repro.analysis.statistics.PrecisionTarget` for the
        whole sweep or one per task; when ``None`` the scheduler's
        *precision* field applies (it must be set).

        Returns the merged per-task ensembles, in task order, with however
        many replicates each task needed.  The per-task outcome summary of
        the run is left in :attr:`last_adaptive_report`.  Estimates are
        bitwise-reproducible from the task seeds and the target alone —
        independent of ``sweep_batch``, ``batch_size``, ``jobs``, and wave
        boundaries (see :mod:`repro.experiments.sweep`).

        With a configured *store*, every completed ladder rung is journaled
        as it finishes and already-journaled rungs are replayed instead of
        simulated: a run killed mid-ladder resumes on the next invocation
        from the journaled prefix, reproducing the uninterrupted run
        bit-for-bit (the prefix-stable rung seeds make the replayed chunks
        identical regardless of where the interruption fell).
        """
        _check_collect(collect)
        if not tasks:
            raise ExperimentError("a sweep needs at least one task")
        targets = self._resolve_targets(len(tasks), target)
        if self.shards == 1:
            return self._run_sweep_adaptive_local(tasks, targets, collect)
        owned = self.plan_task_shards(tasks).members(self.shard_index)
        results: list[LVEnsembleResult | None] = [None] * len(tasks)
        replicates = [0] * len(tasks)
        converged = [True] * len(tasks)  # not ours to converge
        half_widths = [0.0] * len(tasks)
        waves = 0
        if owned:
            owned_results = self._run_sweep_adaptive_local(
                [tasks[index] for index in owned],
                [targets[index] for index in owned],
                collect,
            )
            report = self.last_adaptive_report
            waves = report.waves
            for position, index in enumerate(owned):
                results[index] = owned_results[position]
                replicates[index] = report.replicates[position]
                converged[index] = report.converged[position]
                half_widths[index] = report.half_widths[position]
        self.last_adaptive_report = AdaptiveSweepReport(
            waves=waves,
            replicates=tuple(replicates),
            converged=tuple(converged),
            half_widths=tuple(half_widths),
        )
        return [
            result
            if result is not None
            else placeholder_ensemble(task.params, task.initial_state, task.scenario)
            for task, result in zip(tasks, results)
        ]

    def _run_sweep_adaptive_local(
        self,
        tasks: Sequence[SweepTask],
        targets: Sequence[PrecisionTarget],
        collect: str,
    ) -> list[LVEnsembleResult]:
        """The unsharded adaptive core (one resolved target per task)."""
        states = [
            AdaptiveTaskState(index, task, task_target, self.wave_quantum)
            for index, (task, task_target) in enumerate(zip(tasks, targets))
        ]
        waves = 0
        while True:
            wave_specs = [spec for state in states for spec in state.allocate()]
            if not wave_specs:
                break
            waves += 1
            wave_results = self._execute_members(wave_specs, collect)
            per_task: dict[int, list[LVEnsembleResult]] = {}
            for spec, chunk in zip(wave_specs, wave_results):
                per_task.setdefault(spec.task_index, []).append(chunk)
            for index, chunks in per_task.items():
                states[index].absorb(chunks)
                states[index].evaluate()
        self.last_adaptive_report = AdaptiveSweepReport(
            waves=waves,
            replicates=tuple(state.replicates for state in states),
            converged=tuple(state.converged for state in states),
            half_widths=tuple(state.half_width() for state in states),
        )
        return [state.merged() for state in states]

    def _resolve_targets(
        self,
        num_tasks: int,
        target: "PrecisionTarget | Sequence[PrecisionTarget] | None",
    ) -> list[PrecisionTarget]:
        """Broadcast *target* (or the scheduler default) to one per task."""
        if target is None:
            target = self.precision
        if target is None:
            raise ExperimentError(
                "adaptive sweeps need a PrecisionTarget: pass target=... or "
                "configure the scheduler's precision"
            )
        if isinstance(target, PrecisionTarget):
            return [target] * num_tasks
        targets = list(target)
        if len(targets) != num_tasks:
            raise ExperimentError(
                f"got {len(targets)} precision targets for {num_tasks} tasks"
            )
        return targets

    # ------------------------------------------------------------------
    # Grid-level estimator entry points
    # ------------------------------------------------------------------
    def estimate_many(
        self,
        tasks: Sequence[SweepTask],
        *,
        confidence: float = 0.95,
        target: PrecisionTarget | None = None,
        collect: str = "full",
    ) -> list[ConsensusEstimate]:
        """One :class:`ConsensusEstimate` per task, from fused mega-batches.

        With a precision target (the *target* argument or the scheduler's
        *precision* field) each task runs adaptive waves until its estimate
        reaches the target, so ``num_runs`` varies per task; otherwise every
        task runs its fixed ``num_runs`` budget.

        *collect* is the engine's statistics level
        (:data:`repro.lv.ensemble.COLLECT_MODES`), passed to the sweep and
        to :func:`~repro.consensus.estimator.summarise_ensemble`.  Callers
        that read only ρ, the consensus and dead-heat rates and the
        consensus-time statistics pass ``"win"``: the trajectories, and so
        those fields, are the same as at ``"full"``, while every accounting
        field of the estimate is ``NaN``.  The level is part of each chunk
        key, so the two levels journal separately.
        """
        _check_collect(collect)
        if target is None:
            target = self.precision
        if target is not None:
            ensembles = self.run_sweep_adaptive(tasks, target=target, collect=collect)
        else:
            ensembles = self.run_sweep(tasks, collect=collect)
        return [
            summarise_ensemble(ensemble, confidence=confidence, collected=collect)
            for ensemble in ensembles
        ]

    def decompose_many(
        self,
        tasks: Sequence[SweepTask],
        *,
        target: PrecisionTarget | None = None,
    ) -> list[NoiseDecomposition]:
        """One :class:`NoiseDecomposition` per task, from fused mega-batches.

        Adaptive mode (a *target* here or on the scheduler) sizes each
        task's replicate budget by the same sequential stopping rule as
        :meth:`estimate_many` — the ρ(S) Wilson width, plus the consensus
        time when the target enables it.
        """
        if target is None:
            target = self.precision
        if target is not None:
            ensembles = self.run_sweep_adaptive(tasks, target=target)
        else:
            ensembles = self.run_sweep(tasks)
        return [decomposition_from_ensemble(ensemble) for ensemble in ensembles]

    def find_thresholds(
        self,
        requests: Sequence[ThresholdRequest],
        *,
        target: PrecisionTarget | None = None,
    ) -> list[ThresholdEstimate]:
        """Run a whole threshold sweep with per-round probe fusion.

        Every request's bisection search advances one probe per round
        (:func:`repro.consensus.threshold.drive_threshold_searches`); the
        round's probes — one per still-running search — are fused into
        mega-batches, so a sweep over many population sizes and parameter
        sets pays the lock-step cost once per round instead of once per
        probe.  Probe decisions, seeds and estimates per search are identical
        to running that request alone: fusion changes only how much
        lock-step width each round shares.

        With a precision target (per request, the *target* argument, or the
        scheduler's *precision* field) each probe is estimated adaptively:
        probes whose ρ sits near 0 or 1 — most of a converging bisection —
        stop after a fraction of the fixed budget, while straddling probes
        get tightened width targets from the search's refinement rounds.
        """
        if not requests:
            raise ExperimentError("a threshold sweep needs at least one request")
        if self.shards == 1:
            return self._find_thresholds_local(requests, target)
        # Shard at whole-search granularity: a bisection mints its probes
        # from measured probabilities, so probes cannot be partitioned up
        # front — but each search's probe schedule depends only on its own
        # request, so a search executed here is bitwise-identical to its
        # single-process twin.  Non-owned searches return an empty estimate
        # (threshold_gap=None, no probes) that downstream table/figure
        # drivers already treat as "no threshold found".
        owned = self.plan_threshold_shards(requests).members(self.shard_index)
        estimates: list[ThresholdEstimate | None] = [None] * len(requests)
        if owned:
            owned_estimates = self._find_thresholds_local(
                [requests[index] for index in owned], target
            )
            for index, estimate in zip(owned, owned_estimates):
                estimates[index] = estimate
        return [
            estimate
            if estimate is not None
            else ThresholdEstimate(
                population_size=request.population_size,
                target_probability=(
                    request.target_probability
                    if request.target_probability is not None
                    else 1.0 - 1.0 / request.population_size
                ),
                threshold_gap=None,
                probes={},
            )
            for request, estimate in zip(requests, estimates)
        ]

    def _find_thresholds_local(
        self,
        requests: Sequence[ThresholdRequest],
        target: PrecisionTarget | None,
    ) -> list[ThresholdEstimate]:
        """The unsharded threshold-sweep core (every request searches here)."""
        if target is None:
            target = self.precision
        searches = [
            ThresholdSearch(
                request.params,
                num_runs=request.num_runs,
                max_events=request.max_events,
                precision=request.precision or target,
            ).search_steps(
                request.population_size,
                target_probability=request.target_probability,
                max_gap=request.max_gap,
                rng=request.seed,
            )
            for request in requests
        ]
        return drive_threshold_searches(searches, self._run_probe_round)

    def _run_probe_round(self, probes: Sequence[GapProbe]) -> list[ConsensusEstimate]:
        """Execute one round of threshold probes as a fused sweep.

        Fixed-budget probes run as one fused plan; adaptive probes (those
        carrying a precision target) run as one fused adaptive sweep with
        per-probe targets.  Threshold decisions only read win counts and
        consensus times, so both run in the engine's lean ``"win"``
        collection mode.
        """
        tasks = [
            SweepTask(
                params=probe.params,
                initial_state=probe.initial_state,
                num_runs=probe.num_runs,
                seed=probe.seed,
                max_events=probe.max_events,
                label=f"probe(n={probe.population_size}, gap={probe.gap})",
            )
            for probe in probes
        ]
        fixed = [i for i, probe in enumerate(probes) if probe.precision is None]
        adaptive = [i for i, probe in enumerate(probes) if probe.precision is not None]
        ensembles: list[LVEnsembleResult | None] = [None] * len(probes)
        # Always the *local* sweep cores: threshold sweeps shard at
        # whole-search granularity (find_thresholds), so by the time probes
        # exist they all belong to this shard and must never be re-sharded.
        if fixed:
            for i, ensemble in zip(
                fixed, self._run_sweep_local([tasks[i] for i in fixed], "win")
            ):
                ensembles[i] = ensemble
        if adaptive:
            adaptive_results = self._run_sweep_adaptive_local(
                [tasks[i] for i in adaptive],
                [probes[i].precision for i in adaptive],
                "win",
            )
            for i, ensemble in zip(adaptive, adaptive_results):
                ensembles[i] = ensemble
        return [
            summarise_ensemble(ensemble, confidence=probe.confidence, collected="win")
            for probe, ensemble in zip(probes, ensembles)
        ]


#: The scheduler shared by the experiment modules, configurable via the CLI.
_default_scheduler = SweepScheduler()


def get_default_scheduler() -> SweepScheduler:
    """The process-wide scheduler used by ``table1.py`` and ``figures.py``."""
    return _default_scheduler


#: Sentinel distinguishing "leave the precision unchanged" from an explicit
#: ``precision=None`` (which switches back to fixed budgets).
_KEEP = object()


def configure_default_scheduler(
    *,
    jobs: int | None = None,
    batch_size: int | None = None,
    sweep_batch: int | None = None,
    precision: "PrecisionTarget | None | object" = _KEEP,
    backend: str | None = None,
    tau_epsilon: float | None = None,
    engine: str | None = None,
    store: "ExperimentStore | None | object" = _KEEP,
    fault_tolerance: FaultTolerance | None = None,
    shards: int | None = None,
    shard_index: int | None = None,
    shard_history: "EventRateHistory | None | object" = _KEEP,
) -> SweepScheduler:
    """Reconfigure the process-wide scheduler (e.g. from the CLI's ``--jobs``).

    The previous scheduler's :class:`WorkerPool` is handed to the new one,
    so reconfiguring mid-experiment (e.g. ``run_all`` scoping a ``--jobs``
    override) reuses the warm worker processes instead of rebuilding the
    pool; pass ``precision`` to switch the experiment drivers between
    adaptive waves (a :class:`~repro.analysis.statistics.PrecisionTarget`)
    and fixed budgets (``None``), ``backend`` / ``tau_epsilon`` to select
    the simulation backend (the CLI's ``--backend`` and ``--tau-epsilon``),
    and ``store`` to attach (an
    :class:`~repro.store.ExperimentStore`, the CLI's ``--cache-dir``) or
    detach (``None``, ``--no-cache``) the persistent result store.
    ``fault_tolerance`` replaces the retry/timeout policy (the CLI's
    ``--max-retries`` / ``--task-timeout`` / ``--on-fault``); ``None``
    keeps the previous scheduler's policy.  ``shards`` / ``shard_index`` /
    ``shard_history`` select shard-of-K execution (the CLI's ``--shards``
    and ``--shard-index``; see :class:`SweepScheduler`); ``None`` keeps
    the previous values — pass ``shards=1, shard_index=0`` to return to
    unsharded execution.  ``engine`` is accepted for callers written
    against the removed native engine: ``"auto"`` and ``"numpy"`` pass,
    anything else raises, and the value is then discarded.
    """
    if engine is not None:
        resolve_engine(engine)
    global _default_scheduler
    previous = _default_scheduler
    _default_scheduler = SweepScheduler(
        jobs=previous.jobs if jobs is None else jobs,
        batch_size=previous.batch_size if batch_size is None else batch_size,
        sweep_batch=previous.sweep_batch if sweep_batch is None else sweep_batch,
        precision=previous.precision if precision is _KEEP else precision,
        backend=previous.backend if backend is None else backend,
        tau_epsilon=previous.tau_epsilon if tau_epsilon is None else tau_epsilon,
        wave_quantum=previous.wave_quantum,
        pool=previous.pool,
        store=previous.store if store is _KEEP else store,
        fault_tolerance=previous.fault_tolerance
        if fault_tolerance is None
        else fault_tolerance,
        shards=previous.shards if shards is None else shards,
        shard_index=previous.shard_index if shard_index is None else shard_index,
        shard_history=previous.shard_history
        if shard_history is _KEEP
        else shard_history,
    )
    return _default_scheduler
