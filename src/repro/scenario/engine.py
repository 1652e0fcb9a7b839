"""Generic ``(R, S)`` execution engine for registered scenarios.

The specialised lock-step engines in :mod:`repro.lv.ensemble` /
:mod:`repro.lv.tau` stay byte-frozen on the default two-species workload;
every *other* registered scenario executes here, driven entirely by the
frozen :class:`~repro.scenario.spec.Scenario` tables: dense ``(W, S)`` count
buffers, ``(M, W)`` propensity tables, spec-defined good/bad classification,
and spec-defined absorbing/consensus predicates over the opinion species.
Each member's replicas run in one vectorised loop until every one of them
has terminated, on both backends; there is no scalar tail.

The RNG consumption contract keeps fused and solo runs bitwise
interchangeable and results independent of packing:

1. every member's root seed spawns exactly two generators
   (:func:`repro.rng.spawn_generators`) — the **step stream** and the
   **tail stream**;
2. an exact step consumes one uniform per replica alive (with positive
   total propensity) at the start of the step, in ascending replica order —
   zero-propensity replicas retire as absorbed without consuming; uniforms
   are drawn in blocks, which ``Generator.random``'s partition invariance
   makes unobservable;
3. the exact backend steps every replica on the step stream until it
   terminates, and never reads the tail stream;
4. the tau backend draws its Poisson firings from the step stream.  A
   replica whose opinion population falls below
   :data:`SCENARIO_TAU_TAIL_POPULATION`, or whose leap is still rejected
   after :data:`_MAX_TAU_HALVINGS` halvings, is parked; each pass of the
   same loop then takes one exact step of every running parked replica, on
   the tail stream.

``tests/reference_lockstep.py`` replays the exact backend's contract in
plain scalar Python and the engine tests match it array for array.

Tau results are keyed separately (``backend="tau"``) and are not expected to
match the exact engine bitwise — the same contract the two-species tau
backend has.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.exceptions import InvalidConfigurationError
from repro.lv.state import LVState
from repro.rng import spawn_generators
from repro.scenario.registry import build_scenario
from repro.scenario.spec import TERM_ABSORBED, TERM_CONSENSUS, TERM_MAX_EVENTS

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

#: Tau-leaping replicas whose *opinion* population falls below this are
#: parked and take exact steps (leaping tiny populations is both slow —
#: rejections — and inaccurate near the absorbing boundary).
SCENARIO_TAU_TAIL_POPULATION = 512

#: Halvings of a rejected leap before the replica is parked outright.
_MAX_TAU_HALVINGS = 40


class _Uniforms:
    """Uniforms of one generator, read in order and drawn in blocks."""

    def __init__(self, generator: np.random.Generator):
        self._generator = generator
        self._buffer = np.empty(0)
        self._cursor = 0

    def take(self, count: int) -> np.ndarray:
        if self._buffer.size - self._cursor < count:
            block = max(_UNIFORM_BLOCK, count)
            self._buffer = np.concatenate(
                [self._buffer[self._cursor :], self._generator.random(block)]
            )
            self._cursor = 0
        values = self._buffer[self._cursor : self._cursor + count]
        self._cursor += count
        return values


def _cumulative_rows(rows: np.ndarray) -> np.ndarray:
    """Running sums over axis 0, folded left to right in place.

    One order at every width and on every host: ``rows.sum(axis=0)`` goes
    pairwise at one column, and a BLAS product's order depends on the width
    and the kernel.
    """
    for m in range(1, rows.shape[0]):
        np.add(rows[m - 1], rows[m], out=rows[m])
    return rows


def _moment_table(changes: np.ndarray) -> np.ndarray:
    """``(M, 1 + 2S)``: per reaction, ``1``, each species' change and its square."""
    changes = changes.astype(np.float64)
    return np.column_stack([np.ones(changes.shape[0]), changes, changes**2])


def _leap_moments(moments: np.ndarray, propensities: np.ndarray) -> np.ndarray:
    """``(1 + 2S, W)``: each column's total propensity, then each species'
    mean and variance of change per unit time.

    Row ``k`` is ``sum_m moments[m, k] * propensities[m]`` over the
    reactions from left to right, so a column's values do not depend on the
    other columns.
    """
    return _cumulative_rows(moments[:, :, None] * propensities[:, None, :])[-1]


class _MemberRun:
    """One member's replica arrays: the set-up and result builder of both backends."""

    def __init__(self, member: "SweepMember", collect: str):
        self.member = member
        self.scenario = build_scenario(member.scenario, member.params)
        self.collect_stats = collect == "full"
        width = member.num_replicates
        self.counts = tuple(int(value) for value in member.initial_state)
        self.states = np.tile(np.array(self.counts, dtype=np.int64), (width, 1))
        self.events = np.zeros(width, dtype=np.int64)
        self.codes = np.zeros(width, dtype=np.int8)
        self.good_counts = np.zeros(width, dtype=np.int64)
        self.max_totals = np.full(width, sum(self.counts), dtype=np.int64)
        positive = self.scenario.positive_opinions(self.states)
        self.codes[positive == 1] = TERM_CONSENSUS
        self.codes[positive == 0] = TERM_ABSORBED
        self.running = positive > 1

    def absorb(self, rows: np.ndarray) -> None:
        """Retire replicas *rows*, whose total propensity is zero."""
        self.codes[rows] = TERM_ABSORBED
        self.running[rows] = False

    def record(self, rows: np.ndarray, fired: np.ndarray | int, good: np.ndarray | int) -> None:
        """Count *fired* events (*good* of them good) on replicas *rows*, then classify them.

        *good* is read only at the ``"full"`` level.
        """
        self.events[rows] += fired
        if self.collect_stats:
            self.good_counts[rows] += good
            population = self.states[rows].sum(axis=1)
            self.max_totals[rows] = np.maximum(self.max_totals[rows], population)
        positive = self.scenario.positive_opinions(self.states[rows])
        consensus = positive == 1
        absorbed = positive == 0
        budget = ~consensus & ~absorbed & (self.events[rows] >= self.member.max_events)
        self.codes[rows[consensus]] = TERM_CONSENSUS
        self.codes[rows[absorbed]] = TERM_ABSORBED
        self.codes[rows[budget]] = TERM_MAX_EVENTS
        self.running[rows[consensus | absorbed | budget]] = False

    def exact_step(self, rows: np.ndarray, uniforms: _Uniforms) -> None:
        """One exact event of each replica of *rows* (ascending), one uniform each."""
        scenario = self.scenario
        cum = _cumulative_rows(scenario.propensity_rows(self.states[rows]))
        totals = cum[-1]
        dead = totals <= 0.0
        if dead.any():
            self.absorb(rows[dead])
            rows = rows[~dead]
            if rows.size == 0:
                return
            cum = cum[:, ~dead]
            totals = totals[~dead]
        thresholds = uniforms.take(rows.size) * totals
        selected = np.minimum((cum <= thresholds).sum(axis=0), scenario.num_reactions - 1)
        self.states[rows] += scenario.change_matrix[selected]
        self.record(rows, 1, scenario.good_vector[selected] if self.collect_stats else 0)

    def result(self, leap_events: np.ndarray | None = None) -> "LVEnsembleResult":
        """Package the arrays as an ensemble result.

        ``finals`` carries the full ``(R, S)`` counts; the two-species columns
        double as ``final_x0``/``final_x1`` so every aggregate consumer
        (stores, schedulers, summaries over the opinion pair) keeps working.
        Per-species birth/death/intra accounting is two-species-engine-specific
        and stays zero here; at ``"full"``, ``bad_noncompetitive_events`` is
        the complement of the spec's static good classification, and at
        ``"win"`` it stays zero like ``good_events``.
        """
        from repro.lv.ensemble import LVEnsembleResult

        member, counts, finals = self.member, self.counts, self.states
        width = finals.shape[0]
        zeros = np.zeros(width, dtype=np.int64)
        zeros_2 = np.zeros((width, 2), dtype=np.int64)
        bad = self.events - self.good_counts if self.collect_stats else zeros.copy()
        return LVEnsembleResult(
            params=member.params,
            initial_state=LVState(counts[0], counts[1]),
            final_x0=finals[:, 0].copy(),
            final_x1=finals[:, 1].copy(),
            total_events=self.events,
            termination_codes=self.codes,
            births=zeros_2,
            deaths=zeros_2.copy(),
            interspecific_events=zeros,
            intraspecific_events=zeros_2.copy(),
            bad_noncompetitive_events=bad,
            good_events=self.good_counts,
            noise_individual=zeros.copy(),
            noise_competitive=zeros.copy(),
            max_total_population=self.max_totals,
            min_gap_seen=zeros.copy(),
            hit_tie=np.zeros(width, dtype=bool),
            leap_events=leap_events,
            scenario=member.scenario,
            initial_counts=counts,
            finals=finals,
        )


def _advance_member(run: _MemberRun, step_generator: np.random.Generator) -> None:
    """The exact backend: step every replica on the step stream until it terminates."""
    uniforms = _Uniforms(step_generator)
    while run.running.any():
        run.exact_step(np.nonzero(run.running)[0], uniforms)


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
    results = []
    for member, seed in zip(members, seeds):
        run = _MemberRun(member, collect)
        step_generator, _ = spawn_generators(seed, 2)
        _advance_member(run, step_generator)
        results.append(run.result())
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
    return [
        _run_member_tau(_MemberRun(member, collect), seed, epsilon)
        for member, seed in zip(members, seeds)
    ]


def _run_member_tau(run: _MemberRun, seed: int, epsilon: float) -> "LVEnsembleResult":
    """Leap one member's replicas; its parked replicas finish in the same loop.

    Each pass parks the leaping replicas whose opinion population is below
    :data:`SCENARIO_TAU_TAIL_POPULATION`, leaps the others on the step
    stream (parking those :func:`_leap` could not advance), then takes one
    exact step of every running parked replica, in ascending replica order,
    on the tail stream.
    """
    step_generator, tail_generator = spawn_generators(seed, 2)
    tail_uniforms = _Uniforms(tail_generator)
    moments = _moment_table(run.scenario.change_matrix)
    opinion = run.scenario.opinion_index
    leap_events = np.zeros(run.states.shape[0], dtype=np.int64)
    parked = np.zeros(run.states.shape[0], dtype=bool)
    while run.running.any():
        rows = np.nonzero(run.running & ~parked)[0]
        small = run.states[rows][:, opinion].sum(axis=1) < SCENARIO_TAU_TAIL_POPULATION
        parked[rows[small]] = True
        if not small.all():
            stuck = _leap(run, rows[~small], step_generator, moments, epsilon, leap_events)
            parked[stuck] = True
        exact_rows = np.nonzero(run.running & parked)[0]
        if exact_rows.size:
            run.exact_step(exact_rows, tail_uniforms)
    return run.result(leap_events)


def _leap(
    run: _MemberRun,
    rows: np.ndarray,
    step_generator: np.random.Generator,
    moments: np.ndarray,
    epsilon: float,
    leap_events: np.ndarray,
) -> np.ndarray:
    """One Poisson leap of replicas *rows* on the step stream; the rows it could not move.

    Zero-propensity replicas retire as absorbed.  A leap that would drive a
    count negative is halved and redrawn for the replicas concerned, at most
    :data:`_MAX_TAU_HALVINGS` times: leaping cannot make progress that near
    the boundary, so the replicas still rejected keep their state and are
    returned for parking.
    """
    scenario = run.scenario
    changes = scenario.change_matrix
    num_species = scenario.num_species
    sub = run.states[rows]
    propensities = scenario.propensity_rows(sub)
    sums = _leap_moments(moments, propensities)
    dead = sums[0] <= 0.0
    if dead.any():
        run.absorb(rows[dead])
        live = ~dead
        rows, sub = rows[live], sub[live]
        propensities, sums = propensities[:, live], sums[:, live]
        if rows.size == 0:
            return rows
    # Bounded-relative-change leap selection over the scenario tables.
    totals = sums[0]
    mu, sigma2 = sums[1 : 1 + num_species], sums[1 + num_species :]
    bound = np.maximum(epsilon * sub.T.astype(np.float64), 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        by_mean = np.where(mu != 0.0, bound / np.abs(mu), np.inf)
        by_variance = np.where(sigma2 > 0.0, bound**2 / sigma2, np.inf)
    tau = np.minimum(by_mean, by_variance).min(axis=0)
    tau = np.maximum(np.minimum(tau, 1e6), 1.0 / totals)
    firings = step_generator.poisson(propensities * tau)
    proposed = sub + firings.T @ changes
    negative = (proposed < 0).any(axis=1)
    halvings = 0
    while negative.any() and halvings < _MAX_TAU_HALVINGS:
        tau = np.where(negative, tau * 0.5, tau)
        redraw = step_generator.poisson(propensities[:, negative] * tau[negative])
        firings[:, negative] = redraw
        proposed[negative] = sub[negative] + redraw.T @ changes
        negative = (proposed < 0).any(axis=1)
        halvings += 1
    stuck, moved = rows[negative], ~negative
    rows, firings = rows[moved], firings[:, moved]
    run.states[rows] = proposed[moved]
    fired = firings.sum(axis=0)
    leap_events[rows] += fired
    good = firings[scenario.good_vector].sum(axis=0) if run.collect_stats else 0
    run.record(rows, fired, good)
    return stuck
