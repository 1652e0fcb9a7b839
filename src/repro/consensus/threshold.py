"""Empirical majority-consensus thresholds.

The paper defines ``Ψ(n)`` as a *majority consensus threshold* if
``ρ(S) ≥ 1 − 1/n`` holds if and only if ``Δ₀ ≥ Ψ(n)``.  This module estimates
the threshold for a given parameter set and population size by a monotone
bisection over the initial gap: since ρ is (empirically and, per the paper's
results, asymptotically) non-decreasing in the gap, binary search over
``Δ ∈ {Δ_min, ..., n}`` locates the smallest gap whose estimated ρ clears the
target.

Because ρ is only available through Monte-Carlo estimates, the search uses the
Wilson interval to make conservative decisions: a gap *passes* when the lower
confidence bound clears the target and *fails* when the upper bound misses it;
ambiguous gaps (interval straddling the target) are retried with more samples
up to a cap, and finally resolved by the point estimate.  The returned
:class:`ThresholdEstimate` records the decision made at every probed gap so
that experiments can report the full ρ-vs-Δ curve alongside the threshold.

Probe protocol
--------------
A search is internally a *state machine over probes*:
:meth:`ThresholdSearch.search_steps` is a generator that yields one
:class:`GapProbe` request at a time and receives the matching
:class:`~repro.consensus.estimator.ConsensusEstimate`, returning the
:class:`ThresholdEstimate` when the bisection converges.
:func:`drive_threshold_searches` drives *several* searches in lock-step
rounds, handing each round's pending probes to a pluggable ``probe_runner``.
Two drivers exist: :meth:`ThresholdSearch.find` runs one search's fixed
budgets as one-member :func:`~repro.lv.ensemble.run_sweep_ensemble` calls,
and the experiment harness's
:meth:`SweepScheduler.find_thresholds
<repro.experiments.scheduler.SweepScheduler.find_thresholds>` fuses the
probes of a whole threshold sweep into heterogeneous mega-batches (and is the
driver that honours a search's adaptive precision target).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Generator, Sequence

from repro.analysis.statistics import PrecisionTarget
from repro.consensus.estimator import (
    ConsensusEstimate,
    estimate_majority_probability,
    summarise_ensemble,
)
from repro.exceptions import EstimationError, ThresholdSearchError
from repro.lv.ensemble import SweepMember, run_sweep_ensemble
from repro.lv.params import LVParams
from repro.lv.simulator import DEFAULT_MAX_EVENTS
from repro.lv.state import LVState
from repro.rng import SeedLike, spawn_seeds, stable_seed

__all__ = [
    "GapProbe",
    "ProbeRunner",
    "SearchSteps",
    "ThresholdEstimate",
    "ThresholdSearch",
    "drive_threshold_searches",
    "find_threshold",
]


@dataclass(frozen=True)
class GapProbe:
    """A request to estimate ρ for one ``(params, n, Δ)`` configuration.

    Emitted by :meth:`ThresholdSearch.search_steps`; whoever drives the
    search answers it with a :class:`ConsensusEstimate` over *num_runs*
    replicates of :attr:`initial_state` seeded with *seed*.
    """

    params: LVParams
    population_size: int
    gap: int
    num_runs: int
    seed: int
    max_events: int = DEFAULT_MAX_EVENTS
    confidence: float = 0.9
    #: Adaptive-precision request: the sweep scheduler's driver sizes the
    #: probe by this target instead of the fixed *num_runs*
    #: (:meth:`ThresholdSearch.find` refuses a search that sets one).
    #: Refinement rounds carry a tightened copy (halved ``ci_half_width``
    #: per round), so straddling gaps are resolved by narrower intervals
    #: rather than blind re-sampling.
    precision: PrecisionTarget | None = None

    @property
    def initial_state(self) -> LVState:
        """The parity-adjusted initial state the probe must simulate."""
        return _state_for(self.population_size, self.gap)


#: A search generator: yields one probe at a time, receives its estimate,
#: and returns the final threshold estimate.
SearchSteps = Generator["GapProbe", "ConsensusEstimate", "ThresholdEstimate"]

#: Executes one round of probes (order-preserving).  The sweep scheduler
#: plugs in a runner that fuses the round into heterogeneous mega-batches.
ProbeRunner = Callable[[Sequence[GapProbe]], Sequence[ConsensusEstimate]]


@dataclass(frozen=True)
class ThresholdEstimate:
    """Result of an empirical threshold search at one population size.

    Attributes
    ----------
    population_size:
        Total initial population ``n``.
    target_probability:
        The success probability the threshold must clear (``1 − 1/n`` by
        default, matching the paper's definition).
    threshold_gap:
        Smallest probed gap whose estimate cleared the target, or ``None`` if
        no gap up to the maximum cleared it (e.g. the intraspecific-only
        regime, which has no threshold).
    probes:
        All per-gap estimates gathered during the search, keyed by gap.
    """

    population_size: int
    target_probability: float
    threshold_gap: int | None
    probes: dict[int, ConsensusEstimate]

    @property
    def has_threshold(self) -> bool:
        return self.threshold_gap is not None

    def probability_at(self, gap: int) -> float | None:
        """Estimated ρ at a probed gap, or ``None`` if the gap was not probed."""
        estimate = self.probes.get(gap)
        return None if estimate is None else estimate.majority_probability


@dataclass
class ThresholdSearch:
    """Configurable empirical threshold search.

    Parameters
    ----------
    params:
        Model rates and mechanism.
    num_runs:
        Trajectories per probed gap in the first attempt.
    max_refinement_rounds:
        How many times to double the sample size when the confidence interval
        straddles the target.
    confidence:
        Confidence level for pass/fail decisions.
    max_events:
        Per-run event budget.
    precision:
        Optional adaptive-precision target attached to every emitted
        :class:`GapProbe` (tightened by refinement round) by
        :meth:`search_steps`.  Only the sweep scheduler's probe runner
        (:meth:`~repro.experiments.scheduler.SweepScheduler.find_thresholds`)
        acts on it; :meth:`find` runs fixed *num_runs* budgets and raises
        :class:`~repro.exceptions.ThresholdSearchError` when it is set.
    """

    params: LVParams
    num_runs: int = 200
    max_refinement_rounds: int = 2
    confidence: float = 0.9
    max_events: int = DEFAULT_MAX_EVENTS
    precision: PrecisionTarget | None = None

    def __post_init__(self) -> None:
        if self.num_runs <= 0:
            raise ThresholdSearchError(f"num_runs must be positive, got {self.num_runs}")
        if self.max_refinement_rounds < 0:
            raise ThresholdSearchError(
                f"max_refinement_rounds must be non-negative, got {self.max_refinement_rounds}"
            )
        if not 0.0 < self.confidence < 1.0:
            raise EstimationError(f"confidence must be in (0, 1), got {self.confidence}")

    # ------------------------------------------------------------------
    def probe_gap(
        self, population_size: int, gap: int, *, rng: SeedLike = None
    ) -> ConsensusEstimate:
        """Estimate ρ for one ``(n, Δ)`` pair (with parity-adjusted states)."""
        return estimate_majority_probability(
            self.params,
            _state_for(population_size, gap),
            num_runs=self.num_runs,
            rng=rng,
            confidence=self.confidence,
            max_events=self.max_events,
        )

    def find(
        self,
        population_size: int,
        *,
        target_probability: float | None = None,
        min_gap: int = 1,
        max_gap: int | None = None,
        rng: SeedLike = None,
    ) -> ThresholdEstimate:
        """Binary-search the smallest gap with ρ ≥ *target_probability*.

        Drives :meth:`search_steps` with one fixed-budget
        :func:`~repro.lv.ensemble.run_sweep_ensemble` member per probe, at
        the engine's ``"win"`` level: the search reads only ρ and its
        interval, so its estimates carry ``collected="win"`` as the
        scheduler's probe rounds do.  The probe schedule and per-probe seeds
        are identical to executing the search through any other driver.  A
        search with a *precision* target is refused: its probes need
        adaptive budgets, which only
        :meth:`~repro.experiments.scheduler.SweepScheduler.find_thresholds`
        runs.

        Parameters
        ----------
        population_size:
            Total initial population ``n``.
        target_probability:
            Defaults to the paper's ``1 − 1/n``.
        min_gap, max_gap:
            Search range for the gap.  *max_gap* defaults to ``n − 2`` (the
            largest gap with a non-empty minority when parities match).
        rng:
            Root seed; per-gap seeds are derived deterministically from it so
            re-probing a gap during refinement reuses independent streams.
        """
        if self.precision is not None:
            raise ThresholdSearchError(
                "ThresholdSearch.find runs fixed num_runs budgets and would "
                "ignore the search's precision target; run the search through "
                "SweepScheduler.find_thresholds, which sizes each probe by it"
            )
        steps = self.search_steps(
            population_size,
            target_probability=target_probability,
            min_gap=min_gap,
            max_gap=max_gap,
            rng=rng,
        )
        return drive_threshold_searches([steps], self._run_probes)[0]

    def _run_probes(self, requests: Sequence[GapProbe]) -> list[ConsensusEstimate]:
        """Default probe runner: one fixed-budget win-level batch per probe."""
        estimates = []
        for probe in requests:
            member = SweepMember(
                probe.params, probe.initial_state, probe.num_runs, probe.max_events
            )
            ensemble = run_sweep_ensemble([member], rng=probe.seed, collect="win")[0]
            estimates.append(
                summarise_ensemble(
                    ensemble, confidence=probe.confidence, collected="win"
                )
            )
        return estimates

    # ------------------------------------------------------------------
    def search_steps(
        self,
        population_size: int,
        *,
        target_probability: float | None = None,
        min_gap: int = 1,
        max_gap: int | None = None,
        rng: SeedLike = None,
    ) -> SearchSteps:
        """The search as a generator over :class:`GapProbe` requests.

        Yields one probe at a time (bisection is inherently sequential) and
        expects the matching :class:`ConsensusEstimate` to be sent back;
        returns the :class:`ThresholdEstimate` via ``StopIteration.value``.
        Argument validation happens eagerly, before the first probe.
        """
        if population_size < 4:
            raise ThresholdSearchError(
                f"population_size must be at least 4, got {population_size}"
            )
        if target_probability is None:
            target_probability = 1.0 - 1.0 / population_size
        if not 0.0 < target_probability < 1.0:
            raise ThresholdSearchError(
                f"target_probability must be in (0, 1), got {target_probability}"
            )
        if max_gap is None:
            max_gap = population_size - 2
        if not 1 <= min_gap <= max_gap <= population_size:
            raise ThresholdSearchError(
                f"invalid gap range [{min_gap}, {max_gap}] for n={population_size}"
            )
        root_seed = spawn_seeds(rng, 1)[0] if rng is not None else stable_seed("threshold")
        return self._search_steps(
            population_size, target_probability, min_gap, max_gap, root_seed
        )

    def _search_steps(
        self,
        population_size: int,
        target_probability: float,
        min_gap: int,
        max_gap: int,
        root_seed: int,
    ) -> SearchSteps:
        probes: dict[int, ConsensusEstimate] = {}

        def passes(gap: int):
            estimate = yield from self._gap_steps(
                population_size, gap, target_probability, root_seed
            )
            probes[gap] = estimate
            return estimate.majority_probability >= target_probability

        def result(threshold_gap: int | None) -> ThresholdEstimate:
            return ThresholdEstimate(
                population_size=population_size,
                target_probability=target_probability,
                threshold_gap=threshold_gap,
                probes=probes,
            )

        low, high = min_gap, max_gap
        # Check the endpoints first: if even the largest admissible gap fails,
        # there is no threshold in range (intraspecific-only regime).
        if not (yield from passes(high)):
            return result(None)
        if low == high or (yield from passes(low)):
            return result(low)
        # Invariant: low fails, high passes.
        while high - low > 1:
            middle = (low + high) // 2
            if (yield from passes(middle)):
                high = middle
            else:
                low = middle
        return result(high)

    def _gap_steps(
        self,
        population_size: int,
        gap: int,
        target: float,
        root_seed: int,
    ):
        """Probe one gap, re-probing while its interval straddles the target.

        Each refinement round doubles the sample size and draws a fresh
        per-round seed, up to the refinement cap; the last estimate decides.
        """
        num_runs = self.num_runs
        for round_index in range(self.max_refinement_rounds + 1):
            precision = self.precision
            if precision is not None and round_index:
                # A straddling interval means the decision needs a finer
                # estimate, not merely a fresh one: tighten the width target
                # in step with the classic sample-size doubling.
                precision = replace(
                    precision,
                    ci_half_width=precision.ci_half_width / (2**round_index),
                )
            estimate = yield GapProbe(
                params=self.params,
                population_size=population_size,
                gap=gap,
                num_runs=num_runs,
                seed=stable_seed(
                    "threshold-probe", root_seed, population_size, gap, round_index
                ),
                max_events=self.max_events,
                confidence=self.confidence,
                precision=precision,
            )
            if estimate.meets_target(target) or estimate.misses_target(target):
                break
            num_runs *= 2
        return estimate


def drive_threshold_searches(
    searches: Sequence[SearchSteps],
    probe_runner: ProbeRunner,
) -> list[ThresholdEstimate]:
    """Run several threshold searches concurrently in lock-step rounds.

    Each round collects the pending probe of every unfinished search (in
    search order) and hands the list to *probe_runner*; the returned
    estimates resume the searches.  Probing is sequential within a search,
    so this round structure is what exposes cross-search batching — the
    sweep scheduler's runner fuses each round into heterogeneous
    mega-batches, which is where the sweep-engine speedup on threshold
    experiments comes from.

    The probe schedule of each search is identical to driving it alone, so
    the results are independent of how many searches share a round.
    """
    searches = list(searches)
    results: dict[int, ThresholdEstimate] = {}
    pending: dict[int, GapProbe] = {}

    def resume(index: int, estimate: "ConsensusEstimate | None") -> None:
        try:
            if estimate is None:
                pending[index] = next(searches[index])
            else:
                pending[index] = searches[index].send(estimate)
        except StopIteration as stop:
            results[index] = stop.value

    for index in range(len(searches)):
        resume(index, None)
    while pending:
        order = sorted(pending)
        probes = [pending.pop(index) for index in order]
        estimates = probe_runner(probes)
        if len(estimates) != len(probes):
            raise ThresholdSearchError(
                f"probe runner returned {len(estimates)} estimates "
                f"for {len(probes)} probes"
            )
        for index, estimate in zip(order, estimates):
            resume(index, estimate)
    return [results[index] for index in range(len(searches))]


def _state_for(population_size: int, gap: int) -> LVState:
    """Initial state with total *population_size* and gap as close to *gap* as parity allows."""
    adjusted_gap = gap if (population_size + gap) % 2 == 0 else gap + 1
    adjusted_gap = min(adjusted_gap, population_size)
    return LVState.from_gap(population_size, adjusted_gap)


def find_threshold(
    params: LVParams,
    population_size: int,
    *,
    num_runs: int = 200,
    target_probability: float | None = None,
    rng: SeedLike = None,
    max_gap: int | None = None,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> ThresholdEstimate:
    """One-shot convenience wrapper around :class:`ThresholdSearch`.

    Every probe runs a fixed budget (*num_runs*, doubled on refinement).
    For adaptive probe budgets, or to fuse many searches into mega-batches,
    use :meth:`~repro.experiments.scheduler.SweepScheduler.find_thresholds`.

    Examples
    --------
    >>> params = LVParams.self_destructive(beta=1.0, delta=1.0, alpha=1.0)
    >>> estimate = find_threshold(params, 64, num_runs=60, rng=5)
    >>> estimate.has_threshold
    True
    """
    search = ThresholdSearch(params, num_runs=num_runs, max_events=max_events)
    return search.find(
        population_size,
        target_probability=target_probability,
        max_gap=max_gap,
        rng=rng,
    )
