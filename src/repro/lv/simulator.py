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

The chain's scalar event loop, :func:`_event_loop`, is the only one the
two-species stack has: :meth:`LVJumpChainSimulator.run` is that loop plus
the accounting its :class:`_Tally` folds from the recorded event classes,
and both ensemble engines finish their exact-tail replicas through it
(:mod:`repro.lv.ensemble`).  :func:`_event_accounting` is the one per-event
accounting rule, shared by the tally and the engines' lock-step steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import InvalidConfigurationError, SimulationError
from repro.lv.params import LVParams
from repro.lv.state import LVState
from repro.rng import SeedLike, as_generator
from repro.scenario.spec import (
    TERM_ABSORBED,
    TERM_CONSENSUS,
    TERM_MAX_EVENTS,
    TERMINATION_NAMES,
    lv2_change_tables,
    lv2_event_order,
    lv2_minority_good_table,
)

__all__ = ["LVJumpChainSimulator", "LVRunResult", "StepRecord"]

#: Default safety budget on the number of jump-chain events per run.
DEFAULT_MAX_EVENTS = 20_000_000

#: Size of the buffer of pre-drawn uniform variates: a run draws one fresh
#: block when it starts and another each time it has used this many, and a
#: run that records its events folds them into its tally at the same
#: boundary.  Part of the tail consumption contract, not just amortisation:
#: the lock-step engine's scalar tails read the tail stream in these blocks,
#: and ``tests/reference_lockstep.py`` replays them block by block.
_UNIFORM_BUFFER = 4096

#: Event indices, in selection order (:func:`repro.scenario.spec.lv2_event_order`).
_BIRTH0, _BIRTH1, _DEATH0, _DEATH1, _INTER0, _INTER1, _INTRA0, _INTRA1 = range(8)

#: Net change of ``x0`` / ``x1`` per event index, one row per mechanism
#: (row 0: non-self-destructive, row 1: self-destructive).  Column 8 is the
#: lock-step engines' **no-op sentinel**: retired replicas are steered to
#: event 8, so their state and every derived accumulator stay untouched
#: without per-step masking.  Derived from the two-species scenario tables
#: (:func:`repro.scenario.spec.lv2_change_tables`), which the scenario spec
#: tests pin against the historical literals.
_DX0_TABLE, _DX1_TABLE = lv2_change_tables()

#: good_table[m, e]: event e decreases the current minority's count
#: (row 1: species 0 is the minority, row 0: species 1 is), where every
#: interspecific event counts as good.  Mechanism-independent; column 8 is
#: the no-op sentinel.
_GOOD_TABLE = lv2_minority_good_table()

#: The accumulators of a run's accounting, named as the fields of
#: :class:`LVRunResult` and :class:`~repro.lv.ensemble.LVEnsembleResult`
#: they end up in; first ``histogram``, the events per index, which becomes
#: the births, deaths, interspecific and intraspecific counts.  A
#: :class:`_Tally` and the ensemble engines' working state and output record
#: all carry them.
_ACCOUNTING = (
    "histogram",
    "bad_noncompetitive_events",
    "good_events",
    "noise_individual",
    "noise_competitive",
    "max_total_population",
    "min_gap_seen",
    "hit_tie",
)


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
        params = self.params
        sign = _gap_sign(state)
        tally = _Tally(
            state.x0,
            state.x1,
            sign,
            params.is_self_destructive,
            path=[] if record_path else None,
        )
        x0, x1, events, code = _event_loop(
            params, state.x0, state.x1, as_generator(rng), max_events, tally
        )
        final_state = LVState(x0, x1)
        reached_consensus = final_state.has_consensus
        winner = final_state.winner
        # Ties: the paper assumes a strict initial majority; for completeness
        # species 0 is the reference "majority" on a tie (gap sign +1).
        reference = 0 if sign == 1 else 1
        counts = tally.histogram.tolist()
        return LVRunResult(
            params=params,
            initial_state=state,
            final_state=final_state,
            total_events=events,
            termination="consensus" if reached_consensus else TERMINATION_NAMES[code],
            reached_consensus=reached_consensus,
            winner=winner,
            majority_consensus=reached_consensus and winner == reference,
            births=(counts[_BIRTH0], counts[_BIRTH1]),
            deaths=(counts[_DEATH0], counts[_DEATH1]),
            interspecific_events=counts[_INTER0] + counts[_INTER1],
            intraspecific_events=(counts[_INTRA0], counts[_INTRA1]),
            bad_noncompetitive_events=tally.bad_noncompetitive_events,
            good_events=tally.good_events,
            noise_individual=tally.noise_individual,
            noise_competitive=tally.noise_competitive,
            max_total_population=tally.max_total_population,
            min_gap_seen=tally.min_gap_seen,
            hit_tie=tally.hit_tie,
            path=[] if tally.path is None else tally.path,
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


def _gap_sign(state: LVState) -> int:
    """The gap sign of a run from *state*: +1 measures the gap as ``x0 - x1``.

    The gap is measured from the initial majority's side, species 0 on a
    tie, so ``F = Σ sign * (Δ_{t-1} - Δ_t)`` counts changes in favour of the
    initial minority.
    """
    return -1 if state.majority_species == 1 else 1


def _event_accounting(
    event: np.ndarray, gap_before: np.ndarray, gap_after: np.ndarray, sign
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The accounting rule of jump-chain events: ``(F_ind, F_comp, bad, good)``.

    Arrays over events — a run's block of events, or one event per replica
    of a lock-step step: *event* their indices (the no-op sentinel 8
    accounts nothing), *gap_before* / *gap_after* the gaps ``x0 - x1``
    around them and *sign* the replicas' gap sign (:func:`_gap_sign`).  An
    event's noise ``sign * (gap_before - gap_after)`` goes to ``F_ind`` for
    births and deaths and to ``F_comp`` otherwise.  A birth or death that
    shrinks the absolute gap is *bad* (``J(S)``, Section 5.1); an event is
    *good* when the counts differ and it is a death or intraspecific event
    of the current minority, or any interspecific event.  Everything is
    integer arithmetic, so the order callers add the results in cannot
    change a bit.
    """
    step_noise = sign * (gap_before - gap_after)
    individual = event <= _DEATH1
    noise_individual = step_noise * individual
    bad = individual & (np.abs(gap_after) < np.abs(gap_before))
    good = (gap_before != 0) & _GOOD_TABLE[(gap_before < 0).view(np.int8), event]
    return noise_individual, step_noise - noise_individual, bad, good


class _Tally:
    """One run's accounting, folded block by block from its event classes.

    :func:`_event_loop` appends each event's index to :attr:`classes` and
    calls :meth:`fold` at every uniform refill and once at exit, so a run of
    any length holds at most :data:`_UNIFORM_BUFFER` classes.  The fold
    replays the block's counts from those at its start (cumulative sums of
    the moves) and adds the block's :func:`_event_accounting` to the
    :data:`_ACCOUNTING` accumulators.  They start as a fresh run from
    ``(x0, x1)``; a finisher continuing a replica sets them to its
    accounting so far.  With a *path* list, the fold also appends one
    :class:`StepRecord` per event.
    """

    def __init__(
        self,
        x0: int,
        x1: int,
        sign: int,
        self_destructive: bool,
        *,
        path: list[StepRecord] | None = None,
    ):
        self.classes: list[int] = []
        self.x0, self.x1 = x0, x1
        self.sign = sign
        mechanism = int(self_destructive)
        self.moves = (_DX0_TABLE[mechanism], _DX1_TABLE[mechanism])
        self.path = path
        self.histogram = np.zeros(8, dtype=np.int64)
        self.bad_noncompetitive_events = 0
        self.good_events = 0
        self.noise_individual = 0
        self.noise_competitive = 0
        self.max_total_population = x0 + x1
        self.min_gap_seen = abs(x0 - x1)
        self.hit_tie = x0 == x1

    def fold(self) -> None:
        """Account the recorded events and clear them."""
        if not self.classes:
            return
        event = np.array(self.classes)
        self.classes.clear()
        x0 = self.x0 + self.moves[0][event].cumsum()
        x1 = self.x1 + self.moves[1][event].cumsum()
        gap_after = x0 - x1
        gap_before = np.concatenate(([self.x0 - self.x1], gap_after[:-1]))
        noise_ind, noise_comp, bad, good = _event_accounting(
            event, gap_before, gap_after, self.sign
        )
        self.histogram += np.bincount(event, minlength=8)
        self.bad_noncompetitive_events += int(bad.sum())
        self.good_events += int(good.sum())
        self.noise_individual += int(noise_ind.sum())
        self.noise_competitive += int(noise_comp.sum())
        self.max_total_population = max(self.max_total_population, int((x0 + x1).max()))
        closest = int(np.abs(gap_after).min())
        self.min_gap_seen = min(self.min_gap_seen, closest)
        self.hit_tie = self.hit_tie or closest == 0
        if self.path is not None:
            names = lv2_event_order()
            first = len(self.path)
            self.path.extend(
                StepRecord(index=first + k, event=names[e], state=(a, b))
                for k, (e, a, b) in enumerate(zip(event.tolist(), x0.tolist(), x1.tolist()))
            )
        self.x0, self.x1 = int(x0[-1]), int(x1[-1])


def _event_loop(
    params: LVParams,
    x0: int,
    x1: int,
    generator: np.random.Generator,
    max_events: int,
    tally: _Tally | None = None,
) -> tuple[int, int, int, int]:
    """The two-species scalar event loop: run from ``(x0, x1)`` on *generator*.

    Returns the final counts, the number of events fired and the termination
    code (``TERM_CONSENSUS``, ``TERM_ABSORBED`` or ``TERM_MAX_EVENTS``;
    a budget of 0 or less ends at once with ``TERM_MAX_EVENTS``).  The
    consumption contract: one fresh :data:`_UNIFORM_BUFFER` block at start
    (drawn even when no event fires), another each time that many are used,
    one uniform per event.  Each event is the first of the eight classes
    whose left-to-right partial propensity sum exceeds ``u * total``
    (``gamma * x * (x - 1) / 2.0`` for the intraspecific ones); the budget
    is checked before absorption.  Each partial sum is formed once and each
    uniform read with ``item`` (the same double as a Python float), so the
    cascade does no numpy-scalar arithmetic.  With a *tally*, each event's
    index is recorded and folded in blocks.
    """
    beta, delta = params.beta, params.delta
    alpha0, alpha1 = params.alpha0, params.alpha1
    gamma0, gamma1 = params.gamma0, params.gamma1
    self_destructive = params.is_self_destructive
    classes = None if tally is None else tally.classes
    uniforms = generator.random(_UNIFORM_BUFFER)
    cursor = 0
    events = 0
    code = TERM_CONSENSUS
    while x0 > 0 and x1 > 0:
        if events >= max_events:
            code = TERM_MAX_EVENTS
            break
        # Running sums of the eight propensities in selection order.
        pair01 = x0 * x1
        sum0 = beta * x0
        sum1 = sum0 + beta * x1
        sum2 = sum1 + delta * x0
        sum3 = sum2 + delta * x1
        sum4 = sum3 + alpha0 * pair01
        sum5 = sum4 + alpha1 * pair01
        sum6 = sum5 + gamma0 * x0 * (x0 - 1) / 2.0
        total = sum6 + gamma1 * x1 * (x1 - 1) / 2.0
        if total <= 0.0:
            code = TERM_ABSORBED
            break
        if cursor == _UNIFORM_BUFFER:
            uniforms = generator.random(_UNIFORM_BUFFER)
            cursor = 0
            if tally is not None:
                tally.fold()
        threshold = uniforms.item(cursor) * total
        cursor += 1
        if threshold < sum0:
            x0 += 1
            event = _BIRTH0
        elif threshold < sum1:
            x1 += 1
            event = _BIRTH1
        elif threshold < sum2:
            x0 -= 1
            event = _DEATH0
        elif threshold < sum3:
            x1 -= 1
            event = _DEATH1
        elif threshold < sum4:
            # Species 0 is the aggressor at rate alpha0.
            if self_destructive:
                x0 -= 1
            x1 -= 1
            event = _INTER0
        elif threshold < sum5:
            x0 -= 1
            if self_destructive:
                x1 -= 1
            event = _INTER1
        elif threshold < sum6:
            x0 -= 2 if self_destructive else 1
            event = _INTRA0
        else:
            x1 -= 2 if self_destructive else 1
            event = _INTRA1
        events += 1
        if classes is not None:
            classes.append(event)
    # The loop stops at the first non-positive count, so a negative one can
    # only be the last event's.
    if x0 < 0 or x1 < 0:
        raise SimulationError(
            f"event {events - 1} drove a count negative ({x0}, {x1}); "
            "this indicates an internal inconsistency"
        )
    if tally is not None:
        tally.fold()
    return x0, x1, events, code
