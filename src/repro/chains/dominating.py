"""Dominating chains and the asynchronous pseudo-coupling (Section 5).

The paper's key technical tool is a *chain domination lemma* (Lemma 9): if a
single-species birth–death chain ``N`` satisfies

* ``(D1)``  ``P(a, b) ≤ p(min(a, b))`` — the probability of a *bad
  non-competitive* event in the two-species chain is at most the birth
  probability of ``N`` at the minority count, and
* ``(D2)``  ``Q(a, b) ≥ q(min(a, b))`` — the probability of a *good* event is
  at least the death probability of ``N`` at the minority count,

then the consensus time ``T(S)`` is stochastically dominated by the extinction
time ``E(N)`` and the number of bad non-competitive events ``J(S)`` by the
number of births ``B(N)``.

This module provides

* :func:`check_domination` — numerically verify (D1)/(D2) over a grid of
  states for a given LV system and candidate chain,
* :class:`PseudoCoupling` — a faithful implementation of the coupled process
  ``(Ŝ, N̂)`` from the proof of Lemma 9 (the chains share the uniform variates
  ``ξ_t`` and the two-species chain only moves when ``min Ŝ_t = N̂_t``), used
  to illustrate and test the invariants ``min Ŝ_t ≤ N̂_t`` and
  ``J_t(Ŝ) ≤ B_t(N̂)`` of Lemma 10, and
* :func:`compare_domination` — Monte-Carlo comparison of ``(T(S), J(S))``
  against ``(E(N), B(N))`` used by the `FIG-DOM` experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chains.birth_death import BirthDeathChain
from repro.chains.nice import lv_dominating_birth_death
from repro.exceptions import ModelError
from repro.lv.params import LVParams
from repro.lv.simulator import LVJumpChainSimulator
from repro.lv.state import LVState
from repro.rng import SeedLike, as_generator, spawn_generators

__all__ = [
    "DominationCheck",
    "check_domination",
    "PseudoCoupling",
    "PseudoCouplingTrace",
    "DominatingChainReport",
    "compare_domination",
]


# ----------------------------------------------------------------------
# Numerical verification of (D1)/(D2)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DominationCheck:
    """Result of verifying the domination conditions on a grid of states.

    Attributes
    ----------
    holds:
        Whether both conditions held at every examined state.
    max_p_violation:
        Largest value of ``P(a, b) − p(min(a, b))`` observed (positive values
        are violations of (D1)).
    max_q_violation:
        Largest value of ``q(min(a, b)) − Q(a, b)`` observed (positive values
        are violations of (D2)).
    states_checked:
        Number of states examined.
    """

    holds: bool
    max_p_violation: float
    max_q_violation: float
    states_checked: int


def check_domination(
    params: LVParams,
    chain: BirthDeathChain | None = None,
    *,
    max_count: int = 60,
) -> DominationCheck:
    """Verify conditions (D1) and (D2) for all states ``1 ≤ b ≤ a ≤ max_count``.

    When *chain* is ``None`` the canonical dominating chain of Section 5.2 is
    used.  The check requires ``γ = 0`` (as does the construction in the
    paper); intraspecific competition introduces bad *competitive* events that
    the dominating chain does not account for.
    """
    if params.has_intraspecific:
        raise ModelError(
            "the dominating-chain construction of Section 5.2 requires gamma = 0"
        )
    if chain is None:
        chain = lv_dominating_birth_death(
            beta=params.beta,
            delta=params.delta,
            alpha0=params.alpha0,
            alpha1=params.alpha1,
        )
    simulator = LVJumpChainSimulator(params)
    max_p_violation = -np.inf
    max_q_violation = -np.inf
    states_checked = 0
    for a in range(1, max_count + 1):
        for b in range(1, a + 1):
            state = LVState(a, b)
            minimum = state.minimum
            p_two = simulator.bad_noncompetitive_probability(state)
            q_two = simulator.good_event_probability(state)
            p_one = chain.birth_probability(minimum)
            q_one = chain.death_probability(minimum)
            max_p_violation = max(max_p_violation, p_two - p_one)
            max_q_violation = max(max_q_violation, q_one - q_two)
            states_checked += 1
    tolerance = 1e-12
    return DominationCheck(
        holds=max_p_violation <= tolerance and max_q_violation <= tolerance,
        max_p_violation=float(max_p_violation),
        max_q_violation=float(max_q_violation),
        states_checked=states_checked,
    )


# ----------------------------------------------------------------------
# The pseudo-coupling of Lemma 9 / Lemma 10
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PseudoCouplingTrace:
    """Outcome of one pseudo-coupling run.

    Attributes
    ----------
    invariant_held:
        Whether ``min Ŝ_t ≤ N̂_t`` and ``J_t(Ŝ) ≤ B_t(N̂)`` held at every step
        (Lemma 10).
    steps:
        Number of coupled steps executed (until ``N̂`` went extinct or the
        budget ran out).
    single_chain_extinct:
        Whether the single-species chain reached 0.
    two_species_consensus:
        Whether the embedded two-species chain reached consensus.
    final_single_state, final_two_species_state:
        Final states of the two coordinates.
    bad_events, births:
        Final values of ``J(Ŝ)`` and ``B(N̂)``.
    """

    invariant_held: bool
    steps: int
    single_chain_extinct: bool
    two_species_consensus: bool
    final_single_state: int
    final_two_species_state: tuple[int, int]
    bad_events: int
    births: int


class PseudoCoupling:
    """The coupled Markov chain ``(Ŝ, N̂)`` from the proof of Lemma 9.

    In each step a single uniform variate ``ξ_t`` drives both coordinates:

    * ``N̂`` performs a birth when ``ξ_t < p(m)``, a death when
      ``ξ_t ≥ 1 − q(m)`` and holds otherwise (``m = N̂_t``), exactly as the
      plain chain would;
    * ``Ŝ`` only moves when ``min Ŝ_t = N̂_t``.  In that case a bad
      non-competitive event is sampled when ``ξ_t < P(a, b)``, a good
      competitive-or-death event when ``ξ_t ≥ 1 − Q(a, b)``, and otherwise a
      neutral event (any event that is neither bad-non-competitive nor good).

    Because of (D1)/(D2), a bad event in ``Ŝ`` always coincides with a birth
    in ``N̂`` and a good event coincides with a death, which is what makes the
    invariants of Lemma 10 hold pathwise.  The class mirrors that construction
    so the test-suite can check the invariants on simulated paths.
    """

    def __init__(self, params: LVParams, chain: BirthDeathChain | None = None):
        if params.has_intraspecific:
            raise ModelError("the pseudo-coupling requires gamma = 0")
        if params.alpha_min <= 0:
            raise ModelError("the pseudo-coupling requires alpha_min > 0")
        self.params = params
        self.simulator = LVJumpChainSimulator(params)
        if chain is None:
            chain = lv_dominating_birth_death(
                beta=params.beta,
                delta=params.delta,
                alpha0=params.alpha0,
                alpha1=params.alpha1,
            )
        self.chain = chain

    def run(
        self,
        initial_state: LVState,
        *,
        rng: SeedLike = None,
        max_steps: int = 5_000_000,
    ) -> PseudoCouplingTrace:
        """Run the coupling until ``N̂`` goes extinct (or *max_steps*)."""
        generator = as_generator(rng)
        x0, x1 = initial_state.x0, initial_state.x1
        single = initial_state.minimum
        births = 0
        bad_events = 0
        invariant_held = True
        steps = 0

        while single > 0 and steps < max_steps:
            state = LVState(x0, x1)
            m = single
            p = self.chain.birth_probability(m)
            q = self.chain.death_probability(m)
            xi = generator.random()

            # Coordinate 1: the single-species chain.
            if xi < p:
                single += 1
                births += 1
            elif xi >= 1.0 - q:
                single -= 1

            # Coordinate 2: the two-species chain moves only when the minima agree.
            if not state.has_consensus and state.minimum == m:
                p_two = self.simulator.bad_noncompetitive_probability(state)
                q_two = self.simulator.good_event_probability(state)
                if xi < p_two:
                    x0, x1 = self._sample_conditional(state, "bad", generator)
                    bad_events += 1
                elif xi >= 1.0 - q_two:
                    x0, x1 = self._sample_conditional(state, "good", generator)
                else:
                    x0, x1 = self._sample_conditional(state, "neutral", generator)

            steps += 1
            if min(x0, x1) > single or bad_events > births:
                invariant_held = False

        final_state = LVState(x0, x1)
        return PseudoCouplingTrace(
            invariant_held=invariant_held,
            steps=steps,
            single_chain_extinct=single == 0,
            two_species_consensus=final_state.has_consensus,
            final_single_state=single,
            final_two_species_state=(x0, x1),
            bad_events=bad_events,
            births=births,
        )

    # ------------------------------------------------------------------
    def _sample_conditional(
        self, state: LVState, category: str, rng: np.random.Generator
    ) -> tuple[int, int]:
        """Sample the next two-species state conditioned on the event category.

        Categories: ``"bad"`` (bad non-competitive event), ``"good"`` (event
        decreasing the smaller count), ``"neutral"`` (everything else).  The
        conditional distributions are obtained by restricting the jump-chain
        transition kernel to the matching reaction classes, as in rule (2) of
        the pseudo-coupling construction.
        """
        params = self.params
        x0, x1 = state.x0, state.x1
        propensities = params.propensities(x0, x1)
        sd = params.is_self_destructive
        moves = {
            "birth0": (x0 + 1, x1),
            "birth1": (x0, x1 + 1),
            "death0": (x0 - 1, x1),
            "death1": (x0, x1 - 1),
            "inter0": (x0 - 1, x1 - 1) if sd else (x0, x1 - 1),
            "inter1": (x0 - 1, x1 - 1) if sd else (x0 - 1, x1),
        }
        minority = 0 if x0 <= x1 else 1
        majority = 1 - minority

        bad_labels = {f"birth{minority}", f"death{majority}"}
        if params.is_self_destructive:
            # Every interspecific event removes one individual of the minority.
            good_labels = {f"death{minority}", "inter0", "inter1"}
        else:
            # Only the reaction whose victim is the minority (majority as the
            # aggressor) decreases the smaller count.
            good_labels = {f"death{minority}", f"inter{majority}"}

        if category == "bad":
            labels = bad_labels
        elif category == "good":
            labels = good_labels
        else:
            all_labels = set(moves)
            labels = all_labels - bad_labels - good_labels

        weights = []
        targets = []
        for label in labels:
            weight = propensities.get(label, 0.0)
            if weight > 0.0:
                weights.append(weight)
                targets.append(moves[label])
        if not targets:
            # The conditional class is empty (e.g. a neutral event when every
            # reaction is bad or good); the chain holds in place.
            return (x0, x1)
        weights = np.asarray(weights, dtype=float)
        index = rng.choice(len(targets), p=weights / weights.sum())
        return targets[index]


# ----------------------------------------------------------------------
# Monte-Carlo comparison of the two- and one-species processes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DominatingChainReport:
    """Monte-Carlo comparison backing Lemma 9 / Theorem 13 (`FIG-DOM`).

    Means and high quantiles of the two-species quantities should lie below
    the corresponding single-species quantities when the domination lemma
    applies (started from ``N₀ = min S₀``... the report uses ``N₀ = n`` as in
    Theorem 13, which only strengthens the domination).
    """

    initial_state: tuple[int, int]
    num_runs: int
    mean_consensus_time: float
    mean_extinction_time: float
    q95_consensus_time: float
    q95_extinction_time: float
    mean_bad_events: float
    mean_births: float
    q95_bad_events: float
    q95_births: float

    @property
    def time_dominated(self) -> bool:
        """Whether T(S) statistics lie below E(N) statistics."""
        return (
            self.mean_consensus_time <= self.mean_extinction_time
            and self.q95_consensus_time <= self.q95_extinction_time
        )

    @property
    def bad_events_dominated(self) -> bool:
        """Whether J(S) statistics lie below B(N) statistics."""
        return (
            self.mean_bad_events <= self.mean_births
            and self.q95_bad_events <= self.q95_births
        )


def compare_domination(
    params: LVParams,
    initial_state: LVState,
    *,
    num_runs: int = 200,
    rng: SeedLike = None,
    max_events: int = 5_000_000,
) -> DominatingChainReport:
    """Estimate ``(T(S), J(S))`` and ``(E(N), B(N))`` side by side.

    The single-species chain is started at ``N₀ = n = x0 + x1 ≥ min S₀`` as in
    the proof of Theorem 13.

    Streams: of ``generators = spawn_generators(rng, 2 * num_runs)``,
    two-species run ``i`` uses ``generators[i]`` and chain run ``i`` uses
    ``generators[num_runs + i]``.  The two-species runs go one by one through
    the scalar simulator; the chain runs advance together through
    :meth:`BirthDeathChain.simulate_runs_to_absorption`, so each equals
    ``chain.simulate_to_absorption`` on its generator.
    """
    if num_runs <= 0:
        raise ValueError(f"num_runs must be positive, got {num_runs}")
    chain = lv_dominating_birth_death(
        beta=params.beta,
        delta=params.delta,
        alpha0=params.alpha0,
        alpha1=params.alpha1,
    )
    simulator = LVJumpChainSimulator(params)
    generators = spawn_generators(rng, 2 * num_runs)

    consensus_times = np.empty(num_runs)
    bad_events = np.empty(num_runs)
    for i in range(num_runs):
        result = simulator.run(initial_state, rng=generators[i], max_events=max_events)
        consensus_times[i] = result.total_events
        bad_events[i] = result.bad_noncompetitive_events
    summaries = chain.simulate_runs_to_absorption(
        initial_state.total, generators[num_runs:], max_steps=max_events
    )
    extinction_times = np.array([summary.extinction_time for summary in summaries], dtype=float)
    births = np.array([summary.births for summary in summaries], dtype=float)

    return DominatingChainReport(
        initial_state=(initial_state.x0, initial_state.x1),
        num_runs=num_runs,
        mean_consensus_time=float(consensus_times.mean()),
        mean_extinction_time=float(extinction_times.mean()),
        q95_consensus_time=float(np.quantile(consensus_times, 0.95)),
        q95_extinction_time=float(np.quantile(extinction_times, 0.95)),
        mean_bad_events=float(bad_events.mean()),
        mean_births=float(births.mean()),
        q95_bad_events=float(np.quantile(bad_events, 0.95)),
        q95_births=float(np.quantile(births, 0.95)),
    )
