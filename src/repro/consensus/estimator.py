"""Monte-Carlo estimation of the majority-consensus probability ρ(S).

The estimator runs independent jump-chain trajectories from a fixed initial
configuration and reports

* the success probability ρ(S) (initial majority is the sole survivor) with a
  Wilson confidence interval,
* consensus-time statistics (``T(S)``),
* event-count statistics (``I(S)``, ``K(S)``, ``J(S)``), and
* noise statistics (``F_ind``, ``F_comp``),

which together cover every quantity quoted by Theorems 13, 14, 17, 18 and 19.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.statistics import (
    BinomialEstimate,
    PrecisionTarget,
    binomial_estimate,
)
from repro.exceptions import EstimationError
from repro.lv.ensemble import COLLECT_MODES, LVEnsembleResult, LVEnsembleSimulator
from repro.lv.params import LVParams
from repro.lv.simulator import DEFAULT_MAX_EVENTS, LVRunResult
from repro.lv.state import LVState
from repro.rng import SeedLike, spawn_seeds

__all__ = [
    "ConsensusEstimate",
    "MajorityConsensusEstimator",
    "DEFAULT_WAVE_QUANTUM",
    "adaptive_goal_chunks",
    "chunk_ladder_size",
    "chunk_ladder_seed",
    "run_adaptive_ensemble",
    "estimate_majority_probability",
    "summarise_runs",
    "summarise_ensemble",
]


@dataclass(frozen=True)
class ConsensusEstimate:
    """Aggregated results of a batch of majority-consensus trajectories.

    Attributes
    ----------
    params, initial_state, num_runs:
        What was simulated.
    success:
        Binomial estimate of ρ(S) with a Wilson interval.
    consensus_rate:
        Fraction of runs that reached consensus at all within the event budget
        (should be 1.0 for the regimes with competition; lower values flag a
        too-small budget).
    tie_rate:
        Fraction of runs whose gap hit zero before consensus (the event driving
        the lower bounds of Theorems 17 and 19).
    dead_heat_rate:
        Fraction of runs that ended with both species extinct simultaneously
        (possible only under self-destructive competition); such runs count as
        failures under the paper's strict definition of majority consensus.
    mean_consensus_time, q95_consensus_time:
        Statistics of the number of events until consensus (``T(S)``), taken
        over runs that reached consensus.
    mean_individual_events, mean_competitive_events:
        Means of ``I(S)`` and ``K(S)``.
    mean_bad_events, max_bad_events:
        Mean and max of ``J(S)``.
    mean_noise_individual, std_noise_individual:
        Mean/standard deviation of ``F_ind``.
    mean_noise_competitive, std_noise_competitive:
        Mean/standard deviation of ``F_comp``.
    mean_max_population:
        Mean of the largest total population seen per run.
    collected:
        Statistics level this estimate was produced at.  ``"full"`` means
        every field was measured; ``"win"`` means only the success
        probability, consensus rate, dead-heat rate, and consensus-time
        statistics were collected — the remaining statistics are ``NaN``
        (``0`` for ``max_bad_events``) so an accidental consumer sees an
        unmistakably missing value rather than a plausible zero.  Threshold
        probes and the experiments that read only those fields run at
        ``"win"``; the event-count and noise experiments, this module's
        one-shot estimators and ``repro estimate`` run at ``"full"``.
    """

    params: LVParams
    initial_state: tuple[int, int]
    num_runs: int
    success: BinomialEstimate
    consensus_rate: float
    tie_rate: float
    dead_heat_rate: float
    mean_consensus_time: float
    q95_consensus_time: float
    mean_individual_events: float
    mean_competitive_events: float
    mean_bad_events: float
    max_bad_events: int
    mean_noise_individual: float
    std_noise_individual: float
    mean_noise_competitive: float
    std_noise_competitive: float
    mean_max_population: float
    collected: str = "full"

    @property
    def majority_probability(self) -> float:
        """Point estimate of ρ(S)."""
        return self.success.estimate

    @property
    def initial_gap(self) -> int:
        a, b = self.initial_state
        return abs(a - b)

    @property
    def total_population(self) -> int:
        return sum(self.initial_state)

    def meets_target(self, target: float) -> bool:
        """Whether the whole confidence interval lies at or above *target*."""
        return self.success.lower >= target

    def misses_target(self, target: float) -> bool:
        """Whether the whole confidence interval lies strictly below *target*."""
        return self.success.upper < target


@dataclass
class MajorityConsensusEstimator:
    """Reusable estimator bound to a parameter set.

    Parameters
    ----------
    params:
        Model rates and mechanism.
    confidence:
        Confidence level of the reported Wilson intervals.
    max_events:
        Per-run event budget (guards against non-terminating parameter
        choices; the regimes of Table 1 rows 1–2 terminate in ``O(n)`` events).

    Every estimate advances its whole replicate budget in lock-step through
    the vectorized :class:`~repro.lv.ensemble.LVEnsembleSimulator`, in one
    process.  Batching, process parallelism, caching and sweeps of many
    configurations belong to
    :class:`~repro.experiments.scheduler.SweepScheduler`.

    Examples
    --------
    >>> estimator = MajorityConsensusEstimator(
    ...     LVParams.self_destructive(beta=1.0, delta=1.0, alpha=1.0))
    >>> estimate = estimator.estimate(LVState(60, 40), num_runs=50, rng=1)
    >>> 0.0 <= estimate.majority_probability <= 1.0
    True
    """

    params: LVParams
    confidence: float = 0.95
    max_events: int = DEFAULT_MAX_EVENTS

    def __post_init__(self) -> None:
        if not 0.0 < self.confidence < 1.0:
            raise EstimationError(f"confidence must be in (0, 1), got {self.confidence}")

    def estimate(
        self,
        initial_state: LVState | tuple[int, int],
        num_runs: int,
        *,
        rng: SeedLike = None,
    ) -> ConsensusEstimate:
        """Estimate ρ(S) and the associated event statistics."""
        if num_runs <= 0:
            raise EstimationError(f"num_runs must be positive, got {num_runs}")
        ensemble = LVEnsembleSimulator(self.params).run_ensemble(
            initial_state, num_runs, rng=rng, max_events=self.max_events
        )
        return summarise_ensemble(ensemble, confidence=self.confidence)


def summarise_runs(
    results: list[LVRunResult], *, confidence: float = 0.95
) -> ConsensusEstimate:
    """Aggregate a list of run results into a :class:`ConsensusEstimate`."""
    if not results:
        raise EstimationError("cannot summarise an empty batch of runs")
    params = results[0].params
    initial = results[0].initial_state
    num_runs = len(results)

    successes = sum(1 for result in results if result.majority_consensus)
    consensus_runs = [result for result in results if result.reached_consensus]
    times = np.array([result.total_events for result in consensus_runs], dtype=float)
    individual = np.array([result.individual_events for result in results], dtype=float)
    competitive = np.array([result.competitive_events for result in results], dtype=float)
    bad = np.array([result.bad_noncompetitive_events for result in results], dtype=float)
    noise_ind = np.array([result.noise_individual for result in results], dtype=float)
    noise_comp = np.array([result.noise_competitive for result in results], dtype=float)
    peaks = np.array([result.max_total_population for result in results], dtype=float)
    ties = sum(1 for result in results if result.hit_tie)
    dead_heats = sum(1 for result in results if result.dead_heat)

    return ConsensusEstimate(
        params=params,
        initial_state=(initial.x0, initial.x1),
        num_runs=num_runs,
        success=binomial_estimate(successes, num_runs, confidence=confidence),
        consensus_rate=len(consensus_runs) / num_runs,
        tie_rate=ties / num_runs,
        dead_heat_rate=dead_heats / num_runs,
        mean_consensus_time=float(times.mean()) if times.size else float("nan"),
        q95_consensus_time=float(np.quantile(times, 0.95)) if times.size else float("nan"),
        mean_individual_events=float(individual.mean()),
        mean_competitive_events=float(competitive.mean()),
        mean_bad_events=float(bad.mean()),
        max_bad_events=int(bad.max()),
        mean_noise_individual=float(noise_ind.mean()),
        std_noise_individual=float(noise_ind.std(ddof=0)),
        mean_noise_competitive=float(noise_comp.mean()),
        std_noise_competitive=float(noise_comp.std(ddof=0)),
        mean_max_population=float(peaks.mean()),
    )


def summarise_ensemble(
    ensemble: LVEnsembleResult, *, confidence: float = 0.95, collected: str = "full"
) -> ConsensusEstimate:
    """Aggregate a vectorized ensemble into a :class:`ConsensusEstimate`.

    Computes exactly the statistics of :func:`summarise_runs` directly from
    the ensemble's per-replica arrays, skipping the per-replica
    :class:`~repro.lv.simulator.LVRunResult` materialisation.

    *collected* mirrors the lock-step engine's statistics level: for an
    ensemble produced with ``collect="win"`` the event-accounting arrays were
    never populated, so their summary statistics are reported as ``NaN``
    without touching the arrays (the success probability, consensus rate,
    dead-heat rate, and consensus-time statistics are always exact), and the
    estimate carries ``collected="win"``.  Any other level raises
    :class:`~repro.exceptions.EstimationError`.
    """
    if collected not in COLLECT_MODES:
        raise EstimationError(
            f"collected must be one of {COLLECT_MODES}, got {collected!r}"
        )
    num_runs = ensemble.num_replicates
    successes = int(np.count_nonzero(ensemble.majority_consensus))
    reached = ensemble.reached_consensus
    times = ensemble.total_events[reached].astype(float)
    core = dict(
        params=ensemble.params,
        initial_state=(ensemble.initial_state.x0, ensemble.initial_state.x1),
        num_runs=num_runs,
        success=binomial_estimate(successes, num_runs, confidence=confidence),
        consensus_rate=int(np.count_nonzero(reached)) / num_runs,
        dead_heat_rate=int(np.count_nonzero(ensemble.dead_heat)) / num_runs,
        mean_consensus_time=float(times.mean()) if times.size else float("nan"),
        q95_consensus_time=float(np.quantile(times, 0.95)) if times.size else float("nan"),
    )
    if collected == "win":
        missing = float("nan")
        return ConsensusEstimate(
            **core,
            tie_rate=missing,
            mean_individual_events=missing,
            mean_competitive_events=missing,
            mean_bad_events=missing,
            max_bad_events=0,
            mean_noise_individual=missing,
            std_noise_individual=missing,
            mean_noise_competitive=missing,
            std_noise_competitive=missing,
            mean_max_population=missing,
            collected="win",
        )

    individual = ensemble.individual_events.astype(float)
    competitive = ensemble.competitive_events.astype(float)
    bad = ensemble.bad_noncompetitive_events.astype(float)
    noise_ind = ensemble.noise_individual.astype(float)
    noise_comp = ensemble.noise_competitive.astype(float)
    peaks = ensemble.max_total_population.astype(float)
    return ConsensusEstimate(
        **core,
        tie_rate=int(np.count_nonzero(ensemble.hit_tie)) / num_runs,
        mean_individual_events=float(individual.mean()),
        mean_competitive_events=float(competitive.mean()),
        mean_bad_events=float(bad.mean()),
        max_bad_events=int(bad.max()),
        mean_noise_individual=float(noise_ind.mean()),
        std_noise_individual=float(noise_ind.std(ddof=0)),
        mean_noise_competitive=float(noise_comp.mean()),
        std_noise_competitive=float(noise_comp.std(ddof=0)),
        mean_max_population=float(peaks.mean()),
    )


# ----------------------------------------------------------------------
# Adaptive-precision sequential estimation
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


def chunk_ladder_seed(seed: SeedLike, rung: int) -> int:
    """Seed of ladder *rung* — the prefix-stable spawn of the root seed."""
    return spawn_seeds(seed, rung + 1)[rung]


def adaptive_goal_chunks(
    target: PrecisionTarget,
    quantum: int,
    chunks_done: int,
    successes: int,
    replicates: int,
    times: np.ndarray,
) -> int:
    """Ladder rungs the next wave should reach for one configuration.

    The shared allocation rule of every adaptive path (the sweep
    scheduler's waves and the standalone :func:`run_adaptive_ensemble`):
    the first wave covers the target's ``min_replicates``; follow-up waves
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


def run_adaptive_ensemble(
    params: LVParams,
    initial_state: LVState | tuple[int, int],
    target: PrecisionTarget,
    *,
    rng: SeedLike = None,
    max_events: int = DEFAULT_MAX_EVENTS,
    quantum: int = DEFAULT_WAVE_QUANTUM,
) -> LVEnsembleResult:
    """Sequentially estimate one configuration until *target* is met.

    Runs the configuration's chunk ladder wave by wave through the
    vectorized ensemble simulator, stopping as soon as the sequential
    criteria hold (or the replicate cap is reached).  Executing the same
    ladder through the sweep scheduler's fused adaptive waves yields
    bitwise-identical results — this is the single-configuration,
    dependency-free form of the same sequential estimation layer.
    """
    if quantum < 1:
        raise EstimationError(f"quantum must be at least 1, got {quantum}")
    simulator = LVEnsembleSimulator(params)
    ladder = -(-target.max_replicates // quantum)
    chunks: list[LVEnsembleResult] = []
    time_chunks: list[np.ndarray] = []
    seeds: list[int] = []
    successes = 0
    replicates = 0
    while True:
        if replicates:
            times = (
                np.concatenate(time_chunks) if time_chunks else np.empty(0)
            )
            if target.met_by(successes, replicates, times):
                break
            if len(chunks) >= ladder:
                break
        else:
            times = np.empty(0)
        goal = adaptive_goal_chunks(
            target, quantum, len(chunks), successes, replicates, times
        )
        if goal > len(seeds):
            # Prefix-stable respawn (doubling keeps the total work linear);
            # each rung's seed equals chunk_ladder_seed(rng, rung).
            seeds = spawn_seeds(rng, max(goal, 2 * len(seeds)))
        for rung in range(len(chunks), goal):
            chunk = simulator.run_ensemble(
                initial_state,
                chunk_ladder_size(target, quantum, rung),
                rng=seeds[rung],
                max_events=max_events,
            )
            chunks.append(chunk)
            replicates += chunk.num_replicates
            successes += int(np.count_nonzero(chunk.majority_consensus))
            time_chunks.append(
                chunk.total_events[chunk.reached_consensus].astype(float)
            )
    return LVEnsembleResult.concatenate(chunks)


def estimate_majority_probability(
    params: LVParams,
    initial_state: LVState | tuple[int, int],
    *,
    num_runs: int = 200,
    rng: SeedLike = None,
    confidence: float = 0.95,
    max_events: int = DEFAULT_MAX_EVENTS,
    precision: PrecisionTarget | None = None,
) -> ConsensusEstimate:
    """One-shot convenience wrapper around :class:`MajorityConsensusEstimator`.

    With a *precision* target the replicate budget is chosen adaptively by
    :func:`run_adaptive_ensemble` and *num_runs* is ignored.

    Examples
    --------
    >>> params = LVParams.self_destructive(beta=1.0, delta=1.0, alpha=1.0)
    >>> estimate = estimate_majority_probability(params, (30, 10), num_runs=40, rng=3)
    >>> estimate.success.trials
    40
    """
    if precision is not None:
        ensemble = run_adaptive_ensemble(
            params, initial_state, precision, rng=rng, max_events=max_events
        )
        return summarise_ensemble(ensemble, confidence=confidence)
    estimator = MajorityConsensusEstimator(
        params, confidence=confidence, max_events=max_events
    )
    return estimator.estimate(initial_state, num_runs, rng=rng)
