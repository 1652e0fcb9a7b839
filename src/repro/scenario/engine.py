"""Generic ``(R, S)`` execution engine for registered scenarios.

The specialised lock-step engines in :mod:`repro.lv.ensemble` /
:mod:`repro.lv.tau` stay byte-frozen on the default two-species workload;
every *other* registered scenario executes here, driven entirely by the
frozen :class:`~repro.scenario.spec.Scenario` tables: dense ``(W, S)`` count
buffers, ``(M, W)`` propensity tables, spec-defined good/bad classification,
and spec-defined absorbing/consensus predicates over the opinion species.

The RNG consumption contract mirrors the two-species engine's documented
one, so fused and solo runs stay bitwise interchangeable and results are
independent of packing:

1. every member's root seed spawns exactly two generators
   (:func:`repro.rng.spawn_generators`) — the **step stream** and the
   **tail stream**;
2. the lock-step phase consumes one uniform per replica alive (with
   positive total propensity) at the start of each step, in ascending
   replica order — zero-propensity replicas retire as absorbed without
   consuming; uniforms are drawn in blocks, which ``Generator.random``'s
   partition invariance makes unobservable;
3. once at most :data:`repro.lv.ensemble.SCALAR_FINISH_WIDTH` replicas
   remain, the survivors are finished one by one, in ascending replica
   order, by a scalar loop drawing from the tail stream.  The tail draws
   come from one blocked stream shared by the member's tail replicas.

``tests/reference_lockstep.py`` replays this contract in plain scalar
Python and the engine tests match it array for array.

The tau-leaping backend implements the standard bounded-relative-change
leap-size selection over the scenario tables with per-replica rejection
halving and an exact scalar endgame below a fixed opinion-population
threshold.  Tau results are keyed separately (``backend="tau"``) and are
not expected to match the exact engine bitwise — the same contract the
two-species tau backend has.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.exceptions import InvalidConfigurationError
from repro.lv.state import LVState
from repro.rng import spawn_generators
from repro.scenario.registry import build_scenario
from repro.scenario.spec import (
    Scenario,
    TERM_ABSORBED,
    TERM_CONSENSUS,
    TERM_MAX_EVENTS,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lv.ensemble import LVEnsembleResult, SweepMember

__all__ = [
    "SCENARIO_TAU_TAIL_POPULATION",
    "run_scenario_members",
    "run_scenario_members_tau",
]

#: Uniform block size of the generic engine's step and tail streams.
#: Results are independent of this value (partition invariance).
_UNIFORM_BLOCK = 8192

#: Tau-leaping replicas whose *opinion* population falls below this finish
#: through the exact scalar endgame (leaping tiny populations is both slow —
#: rejections — and inaccurate near the absorbing boundary).
SCENARIO_TAU_TAIL_POPULATION = 512

#: Halvings of a rejected leap before the replica is handed to the exact
#: endgame outright.
_MAX_TAU_HALVINGS = 40


class _BlockedDraws:
    """Blocked scalar uniforms from one generator (stream-position exact)."""

    def __init__(self, generator: np.random.Generator):
        self._generator = generator
        self._buffer = np.empty(0)
        self._cursor = 0

    def next(self) -> float:
        if self._cursor >= self._buffer.size:
            self._buffer = self._generator.random(_UNIFORM_BLOCK)
            self._cursor = 0
        value = float(self._buffer[self._cursor])
        self._cursor += 1
        return value


def _initial_codes(
    scenario: Scenario, states: np.ndarray, codes: np.ndarray, running: np.ndarray
) -> None:
    """Classify replicas that are terminal before any event fires."""
    positive = scenario.positive_opinions(states)
    codes[positive == 1] = TERM_CONSENSUS
    codes[positive == 0] = TERM_ABSORBED
    running[positive <= 1] = False


def _classify_after_step(
    scenario: Scenario,
    states: np.ndarray,
    events: np.ndarray,
    codes: np.ndarray,
    running: np.ndarray,
    rows: np.ndarray,
    max_events: int,
) -> None:
    """Apply the spec's termination predicates to the replica rows *rows*."""
    positive = scenario.positive_opinions(states[rows])
    consensus = positive == 1
    absorbed = positive == 0
    budget = ~consensus & ~absorbed & (events[rows] >= max_events)
    codes[rows[consensus]] = TERM_CONSENSUS
    codes[rows[absorbed]] = TERM_ABSORBED
    codes[rows[budget]] = TERM_MAX_EVENTS
    running[rows[consensus | absorbed | budget]] = False


def _finish_replica_scalar(
    scenario: Scenario,
    state: np.ndarray,
    events_done: int,
    max_events: int,
    draws: _BlockedDraws,
) -> tuple[int, int, int, int]:
    """Finish one replica with the scalar event loop (the shared tail).

    Plain-Python IEEE-754 arithmetic in the canonical operand order of
    :meth:`repro.scenario.spec.Scenario.propensities`.  Returns
    ``(termination code, total events, good events fired here, max total
    population seen)``.
    """
    num_species = scenario.num_species
    num_reactions = scenario.num_reactions
    rates = scenario.rates
    linear = scenario.rate_linear
    reactants = scenario.reactants
    changes = scenario.changes
    good = scenario.good
    opinion = scenario.opinion_species
    counts = [int(value) for value in state]
    events = int(events_done)
    good_fired = 0
    max_total = sum(counts)
    cum = [0.0] * num_reactions
    while True:
        total = 0.0
        for m in range(num_reactions):
            a = float(rates[m])
            if linear is not None:
                for s in range(num_species):
                    coefficient = linear[m][s]
                    if coefficient != 0.0:
                        a = a + coefficient * float(counts[s])
            for s in range(num_species):
                order = reactants[m][s]
                if order == 1:
                    a = a * float(counts[s])
                elif order == 2:
                    x = float(counts[s])
                    a = a * (x * (x - 1.0)) * 0.5
            total = total + a
            cum[m] = total
        if total <= 0.0:
            code = TERM_ABSORBED
            break
        threshold = draws.next() * total
        event = 0
        for m in range(num_reactions):
            if cum[m] <= threshold:
                event += 1
        if event >= num_reactions:
            event = num_reactions - 1
        for s in range(num_species):
            counts[s] += changes[event][s]
        events += 1
        if good[event]:
            good_fired += 1
        total_population = sum(counts)
        if total_population > max_total:
            max_total = total_population
        positive = 0
        for index in opinion:
            if counts[index] > 0:
                positive += 1
        if positive == 1:
            code = TERM_CONSENSUS
            break
        if positive == 0:
            code = TERM_ABSORBED
            break
        if events >= max_events:
            code = TERM_MAX_EVENTS
            break
    state[:] = counts
    return code, events, good_fired, max_total


def _finish_member_tail(
    scenario: Scenario,
    states: np.ndarray,
    running: np.ndarray,
    events: np.ndarray,
    codes: np.ndarray,
    good_counts: np.ndarray,
    max_totals: np.ndarray,
    max_events: int,
    tail_generator: np.random.Generator,
    collect_stats: bool,
) -> None:
    """Finish every still-running replica, ascending order, tail stream."""
    draws = _BlockedDraws(tail_generator)
    for replica in np.nonzero(running)[0]:
        code, total_events, good_fired, max_total = _finish_replica_scalar(
            scenario, states[replica], int(events[replica]), max_events, draws
        )
        codes[replica] = code
        events[replica] = total_events
        good_counts[replica] += good_fired
        if collect_stats and max_total > max_totals[replica]:
            max_totals[replica] = max_total
        running[replica] = False


def _cumulative_rows(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Left-fold cumulative sum over reaction rows (the scalar tail's adds)."""
    out[0] = rows[0]
    for m in range(1, rows.shape[0]):
        np.add(out[m - 1], rows[m], out=out[m])
    return out


def _advance_member(
    scenario: Scenario,
    states: np.ndarray,
    running: np.ndarray,
    events: np.ndarray,
    codes: np.ndarray,
    good_counts: np.ndarray,
    max_totals: np.ndarray,
    max_events: int,
    step_generator: np.random.Generator,
    collect_stats: bool,
    tail_width: int,
) -> None:
    """The vectorized lock-step phase, until at most *tail_width* remain."""
    changes = scenario.change_matrix
    good_vec = scenario.good_vector
    num_reactions = scenario.num_reactions
    buffer = np.empty(0)
    cursor = 0
    while True:
        alive_rows = np.nonzero(running)[0]
        if alive_rows.size <= tail_width:
            return
        sub = states[alive_rows]
        rows = scenario.propensity_rows(sub)
        cum = _cumulative_rows(rows, np.empty_like(rows))
        totals = cum[-1]
        dead = totals <= 0.0
        if dead.any():
            retired = alive_rows[dead]
            codes[retired] = TERM_ABSORBED
            running[retired] = False
            alive_rows = alive_rows[~dead]
            if alive_rows.size == 0:
                continue
            cum = cum[:, ~dead]
            totals = totals[~dead]
        count = alive_rows.size
        if buffer.size - cursor < count:
            block = max(_UNIFORM_BLOCK, count)
            buffer = np.concatenate([buffer[cursor:], step_generator.random(block)])
            cursor = 0
        uniforms = buffer[cursor : cursor + count]
        cursor += count
        thresholds = uniforms * totals
        selected = np.minimum(
            (cum <= thresholds).sum(axis=0), num_reactions - 1
        )
        states[alive_rows] += changes[selected]
        events[alive_rows] += 1
        if collect_stats:
            good_counts[alive_rows] += good_vec[selected]
            population = states[alive_rows].sum(axis=1)
            max_totals[alive_rows] = np.maximum(max_totals[alive_rows], population)
        _classify_after_step(
            scenario, states, events, codes, running, alive_rows, max_events
        )


def _member_result(
    member: "SweepMember",
    scenario: Scenario,
    finals: np.ndarray,
    events: np.ndarray,
    codes: np.ndarray,
    good_counts: np.ndarray,
    max_totals: np.ndarray,
    leap_events: np.ndarray | None = None,
) -> "LVEnsembleResult":
    """Package generic-engine arrays as an ensemble result.

    ``finals`` carries the full ``(R, S)`` counts; the two-species columns
    double as ``final_x0``/``final_x1`` so every aggregate consumer (stores,
    schedulers, summaries over the opinion pair) keeps working.  Per-species
    birth/death/intra accounting is two-species-engine-specific and stays
    zero here; ``bad_noncompetitive_events`` is the complement of the spec's
    static good classification.
    """
    from repro.lv.ensemble import LVEnsembleResult

    counts = tuple(int(value) for value in member.initial_state)
    width = finals.shape[0]
    zeros = np.zeros(width, dtype=np.int64)
    zeros_2 = np.zeros((width, 2), dtype=np.int64)
    return LVEnsembleResult(
        params=member.params,
        initial_state=LVState(counts[0], counts[1]),
        final_x0=finals[:, 0].copy(),
        final_x1=finals[:, 1].copy(),
        total_events=events,
        termination_codes=codes,
        births=zeros_2,
        deaths=zeros_2.copy(),
        interspecific_events=zeros,
        intraspecific_events=zeros_2.copy(),
        bad_noncompetitive_events=events - good_counts,
        good_events=good_counts,
        noise_individual=zeros.copy(),
        noise_competitive=zeros.copy(),
        max_total_population=max_totals,
        min_gap_seen=zeros.copy(),
        hit_tie=np.zeros(width, dtype=bool),
        leap_events=leap_events,
        scenario=member.scenario,
        initial_counts=counts,
        finals=finals,
    )


def run_scenario_members(
    members: "Sequence[SweepMember]",
    seeds: Sequence[int],
    *,
    collect: str = "full",
) -> "list[LVEnsembleResult]":
    """Exact generic execution of non-default scenario members.

    *seeds* are the final per-member root seeds (the caller —
    :func:`repro.lv.ensemble.run_sweep_ensemble` — has already applied the
    member-seed derivation), each spawning the member's step/tail generator
    pair.  Members may come from different scenario families.
    """
    from repro.lv.ensemble import SCALAR_FINISH_WIDTH

    results = []
    for member, seed in zip(members, seeds):
        scenario = build_scenario(member.scenario, member.params)
        step_generator, tail_generator = spawn_generators(seed, 2)
        width = member.num_replicates
        counts = tuple(int(value) for value in member.initial_state)
        states = np.tile(np.array(counts, dtype=np.int64), (width, 1))
        events = np.zeros(width, dtype=np.int64)
        codes = np.zeros(width, dtype=np.int8)
        good_counts = np.zeros(width, dtype=np.int64)
        max_totals = np.full(width, sum(counts), dtype=np.int64)
        running = np.ones(width, dtype=bool)
        _initial_codes(scenario, states, codes, running)
        collect_stats = collect == "full"
        _advance_member(
            scenario,
            states,
            running,
            events,
            codes,
            good_counts,
            max_totals,
            member.max_events,
            step_generator,
            collect_stats,
            SCALAR_FINISH_WIDTH,
        )
        _finish_member_tail(
            scenario,
            states,
            running,
            events,
            codes,
            good_counts,
            max_totals,
            member.max_events,
            tail_generator,
            collect_stats,
        )
        results.append(
            _member_result(
                member, scenario, states, events, codes, good_counts, max_totals
            )
        )
    return results


def run_scenario_members_tau(
    members: "Sequence[SweepMember]",
    seeds: Sequence[int],
    *,
    epsilon: float,
    collect: str = "full",
) -> "list[LVEnsembleResult]":
    """Tau-leaping generic execution of non-default scenario members."""
    if not 0.0 < epsilon < 1.0:
        raise InvalidConfigurationError(
            f"tau epsilon must be in (0, 1), got {epsilon}"
        )
    results = []
    for member, seed in zip(members, seeds):
        scenario = build_scenario(member.scenario, member.params)
        results.append(_run_member_tau(scenario, member, seed, epsilon, collect))
    return results


def _run_member_tau(
    scenario: Scenario,
    member: "SweepMember",
    seed: int,
    epsilon: float,
    collect: str,
) -> "LVEnsembleResult":
    step_generator, tail_generator = spawn_generators(seed, 2)
    width = member.num_replicates
    counts = tuple(int(value) for value in member.initial_state)
    states = np.tile(np.array(counts, dtype=np.int64), (width, 1))
    events = np.zeros(width, dtype=np.int64)
    codes = np.zeros(width, dtype=np.int8)
    good_counts = np.zeros(width, dtype=np.int64)
    leap_events = np.zeros(width, dtype=np.int64)
    max_totals = np.full(width, sum(counts), dtype=np.int64)
    running = np.ones(width, dtype=bool)
    _initial_codes(scenario, states, codes, running)
    collect_stats = collect == "full"
    changes = scenario.change_matrix
    changes_sq = changes.astype(np.float64) ** 2
    good_vec = scenario.good_vector
    opinion = scenario.opinion_index
    max_events = member.max_events

    while True:
        alive_rows = np.nonzero(running)[0]
        if alive_rows.size == 0:
            break
        # Small-opinion-population replicas switch to the exact endgame:
        # mark them not-running here, the shared tail finisher picks them up.
        opinion_population = states[alive_rows][:, opinion].sum(axis=1)
        small = opinion_population < SCENARIO_TAU_TAIL_POPULATION
        if small.any():
            running[alive_rows[small]] = False
            codes[alive_rows[small]] = TERM_MAX_EVENTS  # provisional; tail rewrites
            alive_rows = alive_rows[~small]
            if alive_rows.size == 0:
                break
        sub = states[alive_rows]
        rows = scenario.propensity_rows(sub)
        totals = rows.sum(axis=0)
        dead = totals <= 0.0
        if dead.any():
            codes[alive_rows[dead]] = TERM_ABSORBED
            running[alive_rows[dead]] = False
            alive_rows = alive_rows[~dead]
            if alive_rows.size == 0:
                continue
            sub = sub[~dead]
            rows = rows[:, ~dead]
            totals = totals[~dead]
        # Bounded-relative-change leap selection over the scenario tables.
        mu = changes.T.astype(np.float64) @ rows  # (S, A)
        sigma2 = changes_sq.T @ rows
        bound = np.maximum(epsilon * sub.T.astype(np.float64), 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            by_mean = np.where(mu != 0.0, bound / np.abs(mu), np.inf)
            by_variance = np.where(sigma2 > 0.0, bound**2 / sigma2, np.inf)
        tau = np.minimum(by_mean, by_variance).min(axis=0)
        tau = np.maximum(np.minimum(tau, 1e6), 1.0 / totals)
        firings = step_generator.poisson(rows * tau)
        proposed = sub + firings.T @ changes
        negative = (proposed < 0).any(axis=1)
        halvings = 0
        while negative.any() and halvings < _MAX_TAU_HALVINGS:
            tau = np.where(negative, tau * 0.5, tau)
            redraw = step_generator.poisson(rows[:, negative] * tau[negative])
            firings[:, negative] = redraw
            proposed[negative] = sub[negative] + redraw.T @ changes
            negative = (proposed < 0).any(axis=1)
            halvings += 1
        if negative.any():
            # Leaping cannot make progress near the boundary: exact endgame.
            stuck = alive_rows[negative]
            running[stuck] = False
            codes[stuck] = TERM_MAX_EVENTS  # provisional; tail rewrites
            keep = ~negative
            alive_rows = alive_rows[keep]
            if alive_rows.size == 0:
                continue
            proposed = proposed[keep]
            firings = firings[:, keep]
        states[alive_rows] = proposed
        fired = firings.sum(axis=0)
        events[alive_rows] += fired
        leap_events[alive_rows] += fired
        if collect_stats:
            good_counts[alive_rows] += firings[good_vec].sum(axis=0)
            population = states[alive_rows].sum(axis=1)
            max_totals[alive_rows] = np.maximum(max_totals[alive_rows], population)
        _classify_after_step(
            scenario, states, events, codes, running, alive_rows, max_events
        )

    # Exact endgame for every replica parked above (codes are rewritten).
    endgame = (codes == TERM_MAX_EVENTS) & (events < max_events)
    running[endgame] = True
    _finish_member_tail(
        scenario,
        states,
        running,
        events,
        codes,
        good_counts,
        max_totals,
        max_events,
        tail_generator,
        collect_stats,
    )
    return _member_result(
        member,
        scenario,
        states,
        events,
        codes,
        good_counts,
        max_totals,
        leap_events=leap_events,
    )
