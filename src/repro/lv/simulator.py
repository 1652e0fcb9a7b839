"""Fast, specialised jump-chain simulator for two-species LV systems.

The experiments in the paper need millions of trajectories of the *same*
two-species system, so this module implements the embedded jump chain
directly on a pair of integer counts, with no per-step dictionaries or
propensity vectors, and with

* per-event classification (birth/death/interspecific/intraspecific and which
  species was involved),
* the gap process ``Δ_t`` and its noise decomposition ``F = F_ind + F_comp``
  (Eq. 3 / Eq. 7 of the paper), where ``F`` accumulates changes of the gap in
  favour of the initial *minority* species, and
* the "bad non-competitive event" counter ``J(S)`` of Section 5.1 (births of
  the current minority or deaths of the current majority), which Theorem 13
  bounds by ``O(log n)`` in expectation.

Its one-step distribution is checked against an independent dict-based
reference in the test suite (``tests/reference_ssa.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field


from repro.exceptions import InvalidConfigurationError, SimulationError
from repro.lv.params import LVParams
from repro.lv.state import LVState
from repro.rng import SeedLike, as_generator

__all__ = ["LVJumpChainSimulator", "LVRunResult", "StepRecord"]

#: Default safety budget on the number of jump-chain events per run.
DEFAULT_MAX_EVENTS = 20_000_000

#: Size of the buffer of pre-drawn uniform variates: a run draws one fresh
#: block when it starts and another each time it has used this many.  Part of
#: the tail consumption contract, not just amortisation: the tau backend's
#: batched endgame (:mod:`repro.lv.tau`) reads the k-th parked replica's
#: uniforms at block k of the tail stream, and the exact engine's scalar
#: tails are replayed block by block (``tests/reference_lockstep.py``).
_UNIFORM_BUFFER = 4096


@dataclass(frozen=True)
class StepRecord:
    """One recorded jump-chain event (only kept when ``record_path=True``)."""

    index: int
    event: str
    state: tuple[int, int]


@dataclass
class LVRunResult:
    """Outcome and event accounting of a single LV jump-chain run.

    Attributes follow the paper's notation:

    * ``total_events`` — number of reactions until termination; equals the
      consensus time ``T(S)`` when ``reached_consensus`` is true.
    * ``individual_events`` — ``I(S)``, births plus deaths.
    * ``competitive_events`` — ``K(S)``, interspecific plus intraspecific.
    * ``bad_noncompetitive_events`` — ``J(S)``, non-competitive events that
      shrink the absolute gap while both species are alive.
    * ``noise_individual`` / ``noise_competitive`` — the components
      ``F_ind`` and ``F_comp`` of ``F = Σ (Δ_{t-1} − Δ_t)``, i.e. the total
      change of the gap *in favour of the initial minority*.
    * ``majority_consensus`` — whether the initial majority species is the
      sole survivor (the event whose probability is ``ρ(S)``).
    """

    params: LVParams
    initial_state: LVState
    final_state: LVState
    total_events: int
    termination: str
    reached_consensus: bool
    winner: int | None
    majority_consensus: bool
    births: tuple[int, int]
    deaths: tuple[int, int]
    interspecific_events: int
    intraspecific_events: tuple[int, int]
    bad_noncompetitive_events: int
    good_events: int
    noise_individual: int
    noise_competitive: int
    max_total_population: int
    min_gap_seen: int
    hit_tie: bool
    path: list[StepRecord] = field(default_factory=list)

    @property
    def dead_heat(self) -> bool:
        """Whether the run ended with both species extinct simultaneously.

        Only possible under self-destructive competition (an interspecific
        event in state ``(1, 1)``, or an intraspecific event in ``(2, 0)``
        which is already consensus).  The paper's strict definition counts a
        dead heat as a failure to reach majority consensus; see
        :func:`repro.chains.first_step.exact_win_probability_grid` for the
        role this plays in Theorem 20.
        """
        return self.final_state.x0 == 0 and self.final_state.x1 == 0

    @property
    def individual_events(self) -> int:
        """``I(S)``: total number of birth and death events."""
        return sum(self.births) + sum(self.deaths)

    @property
    def competitive_events(self) -> int:
        """``K(S)``: total number of competitive events."""
        return self.interspecific_events + sum(self.intraspecific_events)

    @property
    def noise_total(self) -> int:
        """``F = F_ind + F_comp`` accumulated until termination."""
        return self.noise_individual + self.noise_competitive

    @property
    def consensus_time(self) -> int | None:
        """``T(S)`` if consensus was reached, else ``None``."""
        return self.total_events if self.reached_consensus else None


class LVJumpChainSimulator:
    """Simulate the embedded jump chain of a two-species LV system.

    Parameters
    ----------
    params:
        Rates and competition mechanism.

    Examples
    --------
    >>> sim = LVJumpChainSimulator(LVParams.self_destructive(beta=1.0, delta=1.0, alpha=1.0))
    >>> result = sim.run(LVState(40, 20), rng=7)
    >>> result.reached_consensus
    True
    >>> result.final_state.has_consensus
    True
    """

    def __init__(self, params: LVParams):
        self.params = params

    # ------------------------------------------------------------------
    # Single trajectory
    # ------------------------------------------------------------------
    def run(
        self,
        initial_state: LVState | tuple[int, int],
        *,
        rng: SeedLike = None,
        max_events: int = DEFAULT_MAX_EVENTS,
        record_path: bool = False,
    ) -> LVRunResult:
        """Run the jump chain from *initial_state* until consensus.

        The run terminates when one species reaches count zero (termination
        reason ``"consensus"``), when the total propensity vanishes
        (``"absorbed"``, e.g. both species extinct simultaneously is
        impossible here but a single remaining individual with all-zero rates
        is), or when *max_events* is exceeded (``"max-events"``).
        """
        state = self._coerce_state(initial_state)
        if max_events <= 0:
            raise ValueError(f"max_events must be positive, got {max_events}")
        generator = as_generator(rng)

        params = self.params
        beta, delta = params.beta, params.delta
        alpha0, alpha1 = params.alpha0, params.alpha1
        gamma0, gamma1 = params.gamma0, params.gamma1
        self_destructive = params.is_self_destructive

        x0, x1 = state.x0, state.x1
        initial_majority = state.majority_species
        # Ties: the paper assumes a strict initial majority; for completeness
        # we treat species 0 as the reference "majority" on a tie so that the
        # noise decomposition is still well defined.
        reference = 0 if initial_majority is None else initial_majority

        births = [0, 0]
        deaths = [0, 0]
        intra = [0, 0]
        inter = 0
        bad_noncompetitive = 0
        good_events = 0
        noise_individual = 0
        noise_competitive = 0
        max_total = x0 + x1
        min_gap_seen = abs(x0 - x1)
        hit_tie = x0 == x1
        path: list[StepRecord] = []

        uniforms = generator.random(_UNIFORM_BUFFER)
        cursor = 0

        events = 0
        termination = "consensus"
        while x0 > 0 and x1 > 0:
            if events >= max_events:
                termination = "max-events"
                break

            birth0 = beta * x0
            birth1 = beta * x1
            death0 = delta * x0
            death1 = delta * x1
            pair01 = x0 * x1
            inter0 = alpha0 * pair01
            inter1 = alpha1 * pair01
            intra0 = gamma0 * x0 * (x0 - 1) / 2.0
            intra1 = gamma1 * x1 * (x1 - 1) / 2.0
            total = birth0 + birth1 + death0 + death1 + inter0 + inter1 + intra0 + intra1
            if total <= 0.0:
                termination = "absorbed"
                break

            if cursor >= len(uniforms):
                uniforms = generator.random(_UNIFORM_BUFFER)
                cursor = 0
            threshold = uniforms[cursor] * total
            cursor += 1

            # Gap change is measured with respect to the *initial* majority:
            # Ft = Δ_{t-1} - Δ_t is positive when the step favours the initial
            # minority.  reference == 0 means Δ = x0 - x1.
            previous_gap_signed = (x0 - x1) if reference == 0 else (x1 - x0)
            current_minority_species = 0 if x0 < x1 else (1 if x1 < x0 else None)

            event: str
            individual = False
            if threshold < birth0:
                x0 += 1
                births[0] += 1
                event = "birth0"
                individual = True
            elif threshold < birth0 + birth1:
                x1 += 1
                births[1] += 1
                event = "birth1"
                individual = True
            elif threshold < birth0 + birth1 + death0:
                x0 -= 1
                deaths[0] += 1
                event = "death0"
                individual = True
            elif threshold < birth0 + birth1 + death0 + death1:
                x1 -= 1
                deaths[1] += 1
                event = "death1"
                individual = True
            elif threshold < birth0 + birth1 + death0 + death1 + inter0:
                # Species 0 is the aggressor at rate alpha0.
                inter += 1
                if self_destructive:
                    x0 -= 1
                    x1 -= 1
                else:
                    x1 -= 1
                event = "inter0"
            elif threshold < birth0 + birth1 + death0 + death1 + inter0 + inter1:
                inter += 1
                if self_destructive:
                    x0 -= 1
                    x1 -= 1
                else:
                    x0 -= 1
                event = "inter1"
            elif threshold < birth0 + birth1 + death0 + death1 + inter0 + inter1 + intra0:
                intra[0] += 1
                x0 -= 2 if self_destructive else 1
                event = "intra0"
            else:
                intra[1] += 1
                x1 -= 2 if self_destructive else 1
                event = "intra1"

            if x0 < 0 or x1 < 0:
                raise SimulationError(
                    f"event {event} drove a count negative at step {events}; "
                    "this indicates an internal inconsistency"
                )

            events += 1
            new_gap_signed = (x0 - x1) if reference == 0 else (x1 - x0)
            step_noise = previous_gap_signed - new_gap_signed
            if individual:
                noise_individual += step_noise
            else:
                noise_competitive += step_noise

            # Bookkeeping for Section 5.1: a non-competitive event is "bad" if
            # it shrinks the absolute gap (minority birth or majority death)
            # while both species were alive before the step; a "good" event
            # decreases the count of the currently smaller species.
            if individual:
                previous_abs_gap = abs(previous_gap_signed)
                new_abs_gap = abs(new_gap_signed)
                if new_abs_gap < previous_abs_gap:
                    bad_noncompetitive += 1
            if current_minority_species is not None:
                if event == f"death{current_minority_species}":
                    good_events += 1
                elif event.startswith("inter") or event == f"intra{current_minority_species}":
                    good_events += 1

            total_population = x0 + x1
            max_total = max(max_total, total_population)
            min_gap_seen = min(min_gap_seen, abs(x0 - x1))
            if x0 == x1:
                hit_tie = True
            if record_path:
                path.append(StepRecord(index=events - 1, event=event, state=(x0, x1)))

        final_state = LVState(x0, x1)
        reached_consensus = final_state.has_consensus
        winner = final_state.winner
        majority_consensus = (
            reached_consensus and winner is not None and winner == reference
        )
        return LVRunResult(
            params=params,
            initial_state=state,
            final_state=final_state,
            total_events=events,
            termination=termination if not reached_consensus else "consensus",
            reached_consensus=reached_consensus,
            winner=winner,
            majority_consensus=majority_consensus,
            births=(births[0], births[1]),
            deaths=(deaths[0], deaths[1]),
            interspecific_events=inter,
            intraspecific_events=(intra[0], intra[1]),
            bad_noncompetitive_events=bad_noncompetitive,
            good_events=good_events,
            noise_individual=noise_individual,
            noise_competitive=noise_competitive,
            max_total_population=max_total,
            min_gap_seen=min_gap_seen,
            hit_tie=hit_tie,
            path=path,
        )

    # ------------------------------------------------------------------
    # Transition structure (used by exact solvers and the pseudo-coupling)
    # ------------------------------------------------------------------
    def transition_distribution(self, state: LVState) -> dict[tuple[int, int], float]:
        """Jump-chain transition probabilities out of *state*.

        Returns a mapping ``{(x0', x1'): probability}``.  An absorbing state
        (zero total propensity) maps to itself with probability 1, matching
        the paper's convention ``P(x, x) = 1`` when ``φ(x) = 0``.
        """
        params = self.params
        x0, x1 = state.x0, state.x1
        propensities = params.propensities(x0, x1)
        total = sum(propensities.values())
        if total <= 0.0:
            return {(x0, x1): 1.0}
        sd = params.is_self_destructive
        moves: dict[str, tuple[int, int]] = {
            "birth0": (x0 + 1, x1),
            "birth1": (x0, x1 + 1),
            "death0": (x0 - 1, x1),
            "death1": (x0, x1 - 1),
            "inter0": (x0 - 1, x1 - 1) if sd else (x0, x1 - 1),
            "inter1": (x0 - 1, x1 - 1) if sd else (x0 - 1, x1),
            "intra0": (x0 - 2, x1) if sd else (x0 - 1, x1),
            "intra1": (x0, x1 - 2) if sd else (x0, x1 - 1),
        }
        distribution: dict[tuple[int, int], float] = {}
        for name, propensity in propensities.items():
            if propensity <= 0.0:
                continue
            target = moves[name]
            if target[0] < 0 or target[1] < 0:
                raise SimulationError(
                    f"reaction {name} has positive propensity {propensity} in state "
                    f"{state} but would produce negative counts {target}"
                )
            distribution[target] = distribution.get(target, 0.0) + propensity / total
        return distribution

    def bad_noncompetitive_probability(self, state: LVState) -> float:
        """``P(a, b)``: probability that the next event is a bad non-competitive one.

        A non-competitive (birth/death) event is *bad* when it shrinks the
        absolute gap: a birth of the current minority or a death of the
        current majority (Section 5.1).  On a tie every non-competitive event
        shrinks-or-keeps the gap description; following the paper we only need
        the quantity for ``a ≠ b`` and define the tie case as the probability
        of any non-competitive event.
        """
        params = self.params
        a, b = state.maximum, state.minimum
        total = params.total_propensity(state.x0, state.x1)
        if total <= 0.0 or b == 0:
            return 0.0
        # For a = b the gap is zero and cannot shrink; the formula below then
        # matches the quantity used in Lemma 12 (delta*a + beta*b over phi),
        # which is what the dominating-chain condition (D1) is stated for.
        return (params.delta * a + params.beta * b) / total

    def good_event_probability(self, state: LVState) -> float:
        """``Q(a, b)``: probability that the next event decreases the smaller count."""
        params = self.params
        x0, x1 = state.x0, state.x1
        total = params.total_propensity(x0, x1)
        if total <= 0.0:
            return 0.0
        minority = 0 if x0 <= x1 else 1
        majority = 1 - minority
        minority_count = min(x0, x1)
        if minority_count == 0:
            return 0.0
        propensities = params.propensities(x0, x1)
        rate = propensities[f"death{minority}"] + propensities[f"intra{minority}"]
        if params.is_self_destructive:
            # Both interspecific reactions remove one individual of each species.
            rate += propensities["inter0"] + propensities["inter1"]
        else:
            # Only the reaction in which the minority is the *victim* (i.e. the
            # majority is the aggressor) decreases the smaller count.
            rate += propensities[f"inter{majority}"]
        return rate / total

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce_state(state: LVState | tuple[int, int]) -> LVState:
        if isinstance(state, LVState):
            return state
        if isinstance(state, tuple) and len(state) == 2:
            return LVState(int(state[0]), int(state[1]))
        raise InvalidConfigurationError(
            f"initial state must be an LVState or a pair of counts, got {state!r}"
        )
