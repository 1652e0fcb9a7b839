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

from repro.analysis.statistics import BinomialEstimate, binomial_estimate
from repro.exceptions import EstimationError
from repro.lv.ensemble import (
    COLLECT_MODES,
    LVEnsembleResult,
    SweepMember,
    run_sweep_ensemble,
)
from repro.lv.params import LVParams
from repro.lv.simulator import DEFAULT_MAX_EVENTS, LVRunResult
from repro.lv.state import LVState
from repro.rng import SeedLike

__all__ = [
    "ConsensusEstimate",
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
        every field was measured (on the exact engine: the tau backend keeps
        no per-event accounting, so a tau estimate's accounting fields are
        missing at either level); ``"win"`` means only the success
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
    :class:`~repro.exceptions.EstimationError`.  A tau ensemble (one with
    ``leap_events``) reports them as ``NaN`` at every level: its arrays hold
    the spec's static good/bad split, not the per-event accounting.
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
    if collected == "win" or ensemble.leap_events is not None:
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
            collected=collected,
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


def estimate_majority_probability(
    params: LVParams,
    initial_state: LVState | tuple[int, int],
    *,
    num_runs: int = 200,
    rng: SeedLike = None,
    confidence: float = 0.95,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> ConsensusEstimate:
    """Estimate ρ(S) and the associated event statistics.

    The *num_runs* replicates advance in lock-step as one member of
    :func:`~repro.lv.ensemble.run_sweep_ensemble`, in one process, at the
    ``"full"`` statistics level; *max_events* is the per-run event budget.
    Batching, process parallelism, caching, adaptive budgets and sweeps of
    many configurations belong to
    :class:`~repro.experiments.scheduler.SweepScheduler`.

    Examples
    --------
    >>> params = LVParams.self_destructive(beta=1.0, delta=1.0, alpha=1.0)
    >>> estimate = estimate_majority_probability(params, (30, 10), num_runs=40, rng=3)
    >>> estimate.success.trials
    40
    """
    if not 0.0 < confidence < 1.0:
        raise EstimationError(f"confidence must be in (0, 1), got {confidence}")
    if num_runs <= 0:
        raise EstimationError(f"num_runs must be positive, got {num_runs}")
    member = SweepMember(params, initial_state, num_runs, max_events)
    ensemble = run_sweep_ensemble([member], rng=rng)[0]
    return summarise_ensemble(ensemble, confidence=confidence)
