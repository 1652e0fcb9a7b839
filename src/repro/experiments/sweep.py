"""Sweep flattening: pack whole parameter sweeps into lock-step mega-batches.

Every experiment in the harness is a *sweep*: a grid of
``(params, initial_state)`` configurations, each needing a few hundred
replicates.  Dispatching each configuration as its own lock-step batch pays
the per-step numpy overhead once per configuration per step; the sweep engine
instead flattens the full ``(configuration, replicate)`` grid into a small
number of **heterogeneous mega-batches** executed by
:func:`repro.lv.ensemble.run_sweep_ensemble`, so the per-step cost is shared
by every configuration that is still running.

This module owns the deterministic plumbing:

* :class:`SweepTask` — one configuration's replicate budget and root seed,
* :func:`plan_mega_batches` — split every task into lock-step batches
  (:func:`~repro.experiments.workloads.replica_batches`), spawn one seed per
  ``(task, batch)`` up front (:func:`repro.rng.spawn_seeds`), and greedily
  pack the batches, in task order, into mega-batches of bounded width,
* :func:`execute_mega_batch` — run one mega-batch (module-level so process
  pools can pickle it); every member carries its own seed into the engine's
  per-member streams (:func:`repro.lv.ensemble.run_sweep_ensemble`), and
* :func:`demux_mega_results` — regroup per-member ensemble results back into
  one merged :class:`~repro.lv.ensemble.LVEnsembleResult` per task.

Because batch seeds are spawned from each task's root seed *before* packing
and dispatch, and because the lock-step engine gives every member its own
random streams, per-task results are **bitwise-reproducible from the task
seeds alone** — independent of the worker count, of the ``sweep_batch``
packing width, and of which other tasks share the sweep.  ``sweep_batch``
(like ``batch_size``) is purely an execution knob.  This invariance is what
lets the adaptive-precision layer (:meth:`SweepScheduler.run_sweep_adaptive
<repro.experiments.scheduler.SweepScheduler.run_sweep_adaptive>`) make
sequential stopping decisions that do not depend on how waves were packed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.statistics import PrecisionTarget, wilson_half_width
from repro.exceptions import ExperimentError
from repro.experiments.workloads import replica_batches
from repro.faults import inject_execution_faults
from repro.lv.ensemble import (
    LVEnsembleResult,
    SweepMember,
    run_sweep_ensemble,
)
from repro.lv.params import LVParams
from repro.lv.tau import (
    BACKENDS,
    DEFAULT_TAU_EPSILON,
    resolve_backend,
    run_tau_sweep_ensemble,
)
from repro.lv.simulator import DEFAULT_MAX_EVENTS, LVJumpChainSimulator
from repro.lv.state import LVState
from repro.rng import SeedLike, spawn_seeds
from repro.scenario.spec import DEFAULT_SCENARIO

__all__ = [
    "DEFAULT_SWEEP_BATCH",
    "DEFAULT_WAVE_QUANTUM",
    "SweepTask",
    "MemberSpec",
    "AdaptiveTaskState",
    "AdaptiveSweepReport",
    "adaptive_goal_chunks",
    "chunk_ladder_size",
    "plan_members",
    "plan_mega_batches",
    "pack_members",
    "execute_mega_batch",
    "demux_mega_results",
    "placeholder_ensemble",
]

#: Default mega-batch width (replicas advanced per lock-step iteration).
#: Large enough to amortise the per-step numpy dispatch cost across many
#: configurations, small enough to keep the working set cache-friendly and to
#: leave several mega-batches for ``--jobs`` parallelism on big sweeps.
DEFAULT_SWEEP_BATCH = 2048


@dataclass(frozen=True)
class SweepTask:
    """One configuration's replicate budget inside a sweep.

    Results are demultiplexed back in task order, so a task needs no
    identity beyond its position; *label* exists for diagnostics only.
    """

    params: LVParams
    initial_state: LVState | tuple[int, ...]
    num_runs: int
    seed: SeedLike = None
    max_events: int = DEFAULT_MAX_EVENTS
    label: str = ""
    #: Per-task backend override: ``None`` defers to the executing
    #: scheduler's backend; ``"exact"``, ``"tau"``, or ``"auto"`` pin this
    #: task regardless of the scheduler default (the large-``n`` experiments
    #: pin ``"auto"`` so their 10^6-population configurations leap even when
    #: the process default is the exact engine).
    backend: str | None = None
    #: Registered scenario family the task runs under
    #: (:mod:`repro.scenario.registry`).  The default ``"lv2"`` keeps the
    #: two-species lock-step core and an :class:`~repro.lv.state.LVState`
    #: initial state; other families validate ``initial_state`` as a
    #: per-species counts tuple and execute on the generic scenario engine.
    scenario: str = DEFAULT_SCENARIO

    def __post_init__(self) -> None:
        if self.scenario == DEFAULT_SCENARIO:
            if not isinstance(self.initial_state, LVState):
                object.__setattr__(
                    self,
                    "initial_state",
                    LVJumpChainSimulator._coerce_state(self.initial_state),
                )
        else:
            from repro.scenario.registry import validate_scenario_state

            counts = (
                (self.initial_state.x0, self.initial_state.x1)
                if isinstance(self.initial_state, LVState)
                else tuple(self.initial_state)
            )
            object.__setattr__(
                self,
                "initial_state",
                validate_scenario_state(self.scenario, counts),
            )
        if self.num_runs <= 0:
            raise ExperimentError(
                f"num_runs must be positive, got {self.num_runs} (task {self.label!r})"
            )
        if self.max_events <= 0:
            raise ExperimentError(
                f"max_events must be positive, got {self.max_events} (task {self.label!r})"
            )
        if self.backend is not None and self.backend not in BACKENDS:
            raise ExperimentError(
                f"backend must be None or one of {BACKENDS}, got {self.backend!r} "
                f"(task {self.label!r})"
            )

    @property
    def counts(self) -> tuple[int, ...]:
        """The initial per-species counts as a plain tuple."""
        if isinstance(self.initial_state, LVState):
            return (self.initial_state.x0, self.initial_state.x1)
        return self.initial_state


@dataclass(frozen=True)
class MemberSpec:
    """One ``(task, batch)`` slice of a mega-batch (picklable plan entry)."""

    task_index: int
    params: LVParams
    counts: tuple[int, ...]
    num_replicates: int
    seed: int
    max_events: int
    #: The owning task's backend override (``None`` = scheduler default).
    backend: str | None = None
    #: The owning task's scenario family (species count = ``len(counts)``).
    scenario: str = DEFAULT_SCENARIO

    def to_member(self) -> SweepMember:
        return SweepMember(
            params=self.params,
            initial_state=(
                LVState(*self.counts)
                if self.scenario == DEFAULT_SCENARIO
                else self.counts
            ),
            num_replicates=self.num_replicates,
            max_events=self.max_events,
            scenario=self.scenario,
        )


def plan_members(
    tasks: Sequence[SweepTask], *, batch_size: int
) -> list[MemberSpec]:
    """Decompose *tasks* into seeded member specs, in task order.

    Every task is split into lock-step batches of at most *batch_size*
    replicas; each ``(task, batch)`` pair receives its own seed spawned from
    the task's root seed.  The decomposition is a pure function of
    ``(tasks, batch_size)`` — packing into mega-batches
    (:func:`pack_members`) is a separate, purely-executional step.
    """
    if not tasks:
        raise ExperimentError("a sweep needs at least one task")
    members: list[MemberSpec] = []
    for index, task in enumerate(tasks):
        sizes = replica_batches(task.num_runs, batch_size)
        seeds = spawn_seeds(task.seed, len(sizes))
        members.extend(
            MemberSpec(
                task_index=index,
                params=task.params,
                counts=task.counts,
                num_replicates=size,
                seed=seed,
                max_events=task.max_events,
                backend=task.backend,
                scenario=task.scenario,
            )
            for size, seed in zip(sizes, seeds)
        )
    return members


def plan_mega_batches(
    tasks: Sequence[SweepTask],
    *,
    batch_size: int,
    sweep_batch: int = DEFAULT_SWEEP_BATCH,
) -> list[list[MemberSpec]]:
    """Flatten *tasks* into an ordered list of mega-batch member plans.

    :func:`plan_members` decomposition followed by greedy
    :func:`pack_members` packing into mega-batches of at most *sweep_batch*
    total replicas (a batch wider than *sweep_batch* gets a mega-batch of
    its own rather than being split further).

    The plan is a pure function of ``(tasks, batch_size, sweep_batch)``, so
    the same sweep always executes identically regardless of how many worker
    processes run the mega-batches.
    """
    if sweep_batch < 1:
        raise ExperimentError(f"sweep_batch must be at least 1, got {sweep_batch}")
    return pack_members(plan_members(tasks, batch_size=batch_size), sweep_batch)


def pack_members(
    members: Sequence[MemberSpec], sweep_batch: int
) -> list[list[MemberSpec]]:
    """Greedily pack member specs, in order, into bounded-width mega-batches.

    A member wider than *sweep_batch* gets a mega-batch of its own rather
    than being split further.  Shared by the fixed-budget planner and the
    adaptive waves; because the engine gives every member its own streams,
    the packing never affects any member's results — only how much lock-step
    width each executed batch amortises its per-step cost over.
    """
    mega_batches: list[list[MemberSpec]] = []
    current: list[MemberSpec] = []
    width = 0
    for member in members:
        if current and width + member.num_replicates > sweep_batch:
            mega_batches.append(current)
            current = []
            width = 0
        current.append(member)
        width += member.num_replicates
    if current:
        mega_batches.append(current)
    return mega_batches


def execute_mega_batch(
    specs: Sequence[MemberSpec],
    collect: str = "full",
    backend: str = "exact",
    tau_epsilon: float = DEFAULT_TAU_EPSILON,
    attempt: int = 0,
) -> list[LVEnsembleResult]:
    """Run one planned mega-batch and return its per-member results.

    Each member is seeded with its own plan seed through the engine's
    per-member streams, so a member's result is bitwise-identical to running
    its ``(task, batch)`` slice alone — execution is a pure function of the
    plan entries, independent of how they were packed, and pickle-friendly
    because only integers cross process boundaries.  *collect* selects the
    engine's statistics level (:data:`repro.lv.ensemble.COLLECT_MODES`).

    *backend* is the scheduler-level selector; a spec's own ``backend``
    field overrides it, and ``"auto"`` resolves per member by total initial
    population (:func:`repro.lv.tau.resolve_backend`).  Members resolving to
    the exact engine advance in one fused lock-step batch; members resolving
    to tau-leaping run through :func:`repro.lv.tau.run_tau_sweep_ensemble`
    with the same per-member seed derivation.  Either way every member's
    result depends only on its own seed and configuration, never on the
    batch composition.

    *attempt* is the fault-tolerant scheduler's retry counter for this
    mega-batch (0 on first execution).  It does not influence any result —
    it is forwarded to the deterministic fault-injection layer
    (:mod:`repro.faults`) so injected faults, keyed on the batch's lead
    seed and the attempt number, fire on first execution and stay silent on
    the retry meant to recover from them.
    """
    if not specs:
        raise ExperimentError("cannot execute an empty mega-batch")
    resolved = [
        resolve_backend(spec.backend or backend, sum(spec.counts)) for spec in specs
    ]
    inject_execution_faults(specs[0].seed, attempt)
    results: list[LVEnsembleResult | None] = [None] * len(specs)
    # Partition by backend while preserving spec order within each group;
    # per-member streams make the grouping invisible in the results.
    groups: dict[str, list[int]] = {}
    for i, kind in enumerate(resolved):
        groups.setdefault(kind, []).append(i)
    for kind, positions in groups.items():
        if kind == "exact":
            group_results = run_sweep_ensemble(
                [specs[i].to_member() for i in positions],
                member_seeds=[specs[i].seed for i in positions],
                collect=collect,
            )
        else:
            group_results = run_tau_sweep_ensemble(
                [specs[i].to_member() for i in positions],
                member_seeds=[specs[i].seed for i in positions],
                epsilon=tau_epsilon,
                collect=collect,
            )
        for i, result in zip(positions, group_results):
            results[i] = result
    return results


def demux_mega_results(
    num_tasks: int,
    plans: Sequence[Sequence[MemberSpec]],
    results: Sequence[Sequence[LVEnsembleResult]],
) -> list[LVEnsembleResult]:
    """Regroup per-member mega-batch results into one result per task.

    Members were generated in task order and packing preserves that order,
    so concatenating each task's member results restores the task's replicate
    order: batch order times in-batch order, the layout of running the
    task's batches one after another.
    """
    per_task: list[list[LVEnsembleResult]] = [[] for _ in range(num_tasks)]
    for plan, batch_results in zip(plans, results):
        if len(plan) != len(batch_results):
            raise ExperimentError(
                f"mega-batch returned {len(batch_results)} results "
                f"for {len(plan)} members"
            )
        for spec, result in zip(plan, batch_results):
            per_task[spec.task_index].append(result)
    merged = []
    for index, chunks in enumerate(per_task):
        if not chunks:
            raise ExperimentError(f"task {index} received no mega-batch results")
        merged.append(LVEnsembleResult.concatenate(chunks))
    return merged


def placeholder_ensemble(
    params: LVParams,
    initial_state: LVState | tuple[int, ...],
    scenario: str = DEFAULT_SCENARIO,
) -> LVEnsembleResult:
    """A zero-work stand-in for a task owned by a *different* shard.

    Sharded execution (``SweepScheduler(shards=K, shard_index=i)``) runs
    only shard *i*'s tasks; the other tasks still need a result object so
    grid entry points keep their one-result-per-task shape.  The stand-in
    is one replicate that "ran out of budget immediately": final counts
    equal the initial counts (no consensus, no winner), zero events
    everywhere, termination code 2 (``"max-events"``).  It is never
    journaled — chunk keys are only minted for executed work — so a merged
    store contains exclusively real results.
    """
    if scenario == DEFAULT_SCENARIO:
        if not isinstance(initial_state, LVState):
            initial_state = LVJumpChainSimulator._coerce_state(initial_state)
        counts = (initial_state.x0, initial_state.x1)
        finals = None
        initial_counts = None
    else:
        counts = (
            (initial_state.x0, initial_state.x1)
            if isinstance(initial_state, LVState)
            else tuple(int(value) for value in initial_state)
        )
        initial_state = LVState(counts[0], counts[1])
        finals = np.array([counts], dtype=np.int64)
        initial_counts = counts
    zeros = np.zeros(1, dtype=np.int64)
    zeros_2 = np.zeros((1, 2), dtype=np.int64)
    return LVEnsembleResult(
        params=params,
        initial_state=initial_state,
        final_x0=np.array([counts[0]], dtype=np.int64),
        final_x1=np.array([counts[1]], dtype=np.int64),
        total_events=zeros,
        termination_codes=np.full(1, 2, dtype=np.int64),
        births=zeros_2,
        deaths=zeros_2,
        interspecific_events=zeros,
        intraspecific_events=zeros_2,
        bad_noncompetitive_events=zeros,
        good_events=zeros,
        noise_individual=zeros,
        noise_competitive=zeros,
        max_total_population=np.array([sum(counts)], dtype=np.int64),
        min_gap_seen=np.array([abs(counts[0] - counts[1])], dtype=np.int64),
        hit_tie=np.zeros(1, dtype=bool),
        scenario=scenario,
        finals=finals,
        initial_counts=initial_counts,
    )


# ----------------------------------------------------------------------
# Adaptive-precision waves
# ----------------------------------------------------------------------

#: Replicates per adaptive chunk — the allocation quantum of sequential
#: waves.  Every configuration's replicate stream is cut into a fixed
#: *chunk ladder* of this size (the last rung truncated at the target's
#: ``max_replicates``), with one prefix-stable seed per rung
#: (:func:`repro.rng.spawn_seeds`), so interim results — and therefore every
#: stopping decision — depend only on which rungs executed, never on how
#: they were grouped into waves, fused into mega-batches, or spread over
#: worker processes.
DEFAULT_WAVE_QUANTUM = 64

#: Per-wave growth cap: one wave may at most triple a configuration's
#: executed rung count.  Interim variance estimates can be far off early
#: on; the cap bounds any single plan's overshoot while still reaching any
#: budget in logarithmically many waves.
_WAVE_GROWTH_FACTOR = 2


def chunk_ladder_size(target: PrecisionTarget, quantum: int, rung: int) -> int:
    """Replicates on ladder *rung* (the last rung truncates at the cap)."""
    return min(quantum, target.max_replicates - rung * quantum)


def adaptive_goal_chunks(
    target: PrecisionTarget,
    quantum: int,
    chunks_done: int,
    successes: int,
    replicates: int,
    times: np.ndarray,
) -> int:
    """Ladder rungs the next wave should reach for one configuration.

    The first wave covers the target's ``min_replicates``; follow-up waves
    size themselves by the variance-aware plan
    (:meth:`~repro.analysis.statistics.PrecisionTarget.replicates_needed`),
    clamped by the per-wave growth cap, and always advance by at least one
    rung so an under-estimating plan can never stall a configuration.
    """
    ladder = -(-target.max_replicates // quantum)
    if chunks_done >= ladder:
        return ladder
    if chunks_done == 0:
        needed = target.min_replicates
        goal = -(-min(needed, target.max_replicates) // quantum)
    else:
        needed = target.replicates_needed(successes, replicates, times)
        goal = -(-min(needed, target.max_replicates) // quantum)
        ceiling = chunks_done * (_WAVE_GROWTH_FACTOR + 1)
        goal = max(chunks_done + 1, min(goal, ceiling))
    return min(goal, ladder)


class AdaptiveTaskState:
    """Chunk accounting and interim statistics of one adaptive-sweep task.

    The task's replicate stream is the fixed chunk ladder of
    :data:`DEFAULT_WAVE_QUANTUM`-sized rungs with prefix-stable per-rung
    seeds; :meth:`allocate` hands out the next rungs (sized by the
    variance-aware rule :func:`adaptive_goal_chunks`), :meth:`absorb` folds
    the executed chunk results in, and :meth:`evaluate` applies the
    sequential stopping rule.  Combined with the engine's per-member
    streams, interim results — and therefore every stopping decision — are
    bitwise-independent of wave grouping, ``sweep_batch`` packing, and
    worker count.  ``task.num_runs`` is not consulted — in adaptive mode the
    precision target owns the budget (the fixed-budget path is the
    exact-reproducibility alternative).
    """

    def __init__(
        self,
        index: int,
        task: SweepTask,
        target: PrecisionTarget,
        quantum: int = DEFAULT_WAVE_QUANTUM,
    ):
        if quantum < 1:
            raise ExperimentError(f"wave quantum must be at least 1, got {quantum}")
        self.index = index
        self.task = task
        self.target = target
        self.quantum = quantum
        self.chunks_done = 0
        self.replicates = 0
        self.successes = 0
        self.waves = 0
        self.converged = False
        self._chunk_results: list[LVEnsembleResult] = []
        self._time_chunks: list[np.ndarray] = []
        self._seeds: list[int] = []
        # Total rungs of the chunk ladder (last rung truncated at the cap).
        self._ladder_chunks = -(-target.max_replicates // quantum)

    # ------------------------------------------------------------------
    @property
    def exhausted(self) -> bool:
        """Whether the replicate cap was reached without convergence."""
        return not self.converged and self.chunks_done >= self._ladder_chunks

    @property
    def active(self) -> bool:
        return not self.converged and not self.exhausted

    def _chunk_seed(self, rung: int) -> int:
        # spawn_seeds is prefix-stable (SeedSequence children are keyed by
        # spawn index), so re-spawning a longer prefix never changes the
        # seeds already handed out; the doubling growth keeps the total
        # respawn work linear in the rungs actually executed.
        if rung >= len(self._seeds):
            self._seeds = spawn_seeds(
                self.task.seed, max(rung + 1, 2 * len(self._seeds))
            )
        return self._seeds[rung]

    # ------------------------------------------------------------------
    def allocate(self) -> list[MemberSpec]:
        """Member specs for this task's next wave (empty when settled).

        Wave sizing follows :func:`adaptive_goal_chunks`: cover
        ``min_replicates`` first, then the variance-aware plan under the
        growth cap, always at least one rung.
        """
        if not self.active:
            return []
        goal = adaptive_goal_chunks(
            self.target,
            self.quantum,
            self.chunks_done,
            self.successes,
            self.replicates,
            self._times(),
        )
        task = self.task
        specs = [
            MemberSpec(
                task_index=self.index,
                params=task.params,
                counts=task.counts,
                num_replicates=chunk_ladder_size(self.target, self.quantum, rung),
                seed=self._chunk_seed(rung),
                max_events=task.max_events,
                backend=task.backend,
                scenario=task.scenario,
            )
            for rung in range(self.chunks_done, goal)
        ]
        if specs:
            self.waves += 1
        return specs

    def absorb(self, chunk_results: Sequence[LVEnsembleResult]) -> None:
        """Fold one wave's executed chunk results into the interim state."""
        for chunk in chunk_results:
            self._chunk_results.append(chunk)
            self.chunks_done += 1
            self.replicates += chunk.num_replicates
            self.successes += int(np.count_nonzero(chunk.majority_consensus))
            self._time_chunks.append(
                chunk.total_events[chunk.reached_consensus].astype(float)
            )

    def evaluate(self) -> None:
        """Apply the sequential stopping rule to the interim results."""
        if self.replicates == 0 or self.converged:
            return
        self.converged = self.target.met_by(
            self.successes, self.replicates, self._times()
        )

    # ------------------------------------------------------------------
    def _times(self) -> np.ndarray:
        if not self._time_chunks:
            return np.empty(0)
        return np.concatenate(self._time_chunks)

    def half_width(self) -> float:
        """Achieved Wilson half-width of the interim ρ estimate."""
        if self.replicates == 0:
            return float("inf")
        return wilson_half_width(
            self.successes, self.replicates, confidence=self.target.confidence
        )

    def merged(self) -> LVEnsembleResult:
        """All executed chunks concatenated, in ladder order."""
        if not self._chunk_results:
            raise ExperimentError(
                f"task {self.index} ({self.task.label!r}) executed no chunks"
            )
        return LVEnsembleResult.concatenate(self._chunk_results)


@dataclass(frozen=True)
class AdaptiveSweepReport:
    """Per-task outcome summary of one adaptive sweep.

    ``converged[i]`` is ``False`` for tasks that hit the replicate cap with
    the target still unmet — their estimates are still returned (at the
    cap's precision), but callers can surface the shortfall.
    """

    waves: int
    replicates: tuple[int, ...]
    converged: tuple[bool, ...]
    half_widths: tuple[float, ...]

    @property
    def total_replicates(self) -> int:
        return sum(self.replicates)

    @property
    def all_converged(self) -> bool:
        return all(self.converged)
