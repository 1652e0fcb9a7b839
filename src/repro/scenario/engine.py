"""Generic ``(R, S)`` execution engine for registered scenarios.

The specialised lock-step engines in :mod:`repro.lv.ensemble` /
:mod:`repro.lv.tau` stay byte-frozen on the default two-species workload;
every *other* registered scenario executes here, driven entirely by the
frozen :class:`~repro.scenario.spec.Scenario` tables: dense count buffers,
``(M, W)`` propensity tables, spec-defined good/bad classification, and
spec-defined absorbing/consensus predicates over the opinion species.
Every replica runs in a vectorised loop until it has terminated, on both
backends; there is no scalar tail.

The exact backend (:func:`run_scenario_members`) advances every member of a
call in one loop.  The members that share a scenario fingerprint form one
:class:`_Group`, so each group's tables stay dense.  A group packs the
counts of its live replicas species-major, ``(S, W)``, in member order and
then replica order; a replica that ends leaves the packed rows at once, and
the others keep their order.  Each pass forms every group's propensities,
draws every member's uniforms in one
:meth:`~repro.lv.ensemble._MemberStreams.fill` call, and fires one event in
every live replica.

The RNG consumption contract keeps fused and solo runs bitwise
interchangeable and results independent of packing and of the co-members:

1. every member's root seed spawns exactly two generators
   (:func:`repro.rng.spawn_generators`) — the **step stream** and the
   **tail stream**;
2. an exact step consumes one uniform per replica alive (with positive
   total propensity) at the start of the step, from its member's step
   stream, in ascending replica order — zero-propensity replicas retire as
   absorbed without consuming; uniforms are drawn in blocks, which
   ``Generator.random``'s partition invariance makes unobservable;
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

from typing import Sequence

import numpy as np

from repro.exceptions import InvalidConfigurationError
from repro.lv.ensemble import LVEnsembleResult, SweepMember, _MemberStreams
from repro.lv.state import LVState
from repro.rng import spawn_generators
from repro.scenario.registry import build_scenario, scenario_fingerprint
from repro.scenario.spec import TERM_ABSORBED, TERM_CONSENSUS, TERM_MAX_EVENTS, Scenario

__all__ = [
    "SCENARIO_TAU_TAIL_POPULATION",
    "run_scenario_members",
    "run_scenario_members_tau",
]

#: Uniform block size of the tau backend's tail stream.  Results are
#: independent of this value (partition invariance).
_UNIFORM_BLOCK = 8192

#: Tau-leaping replicas whose *opinion* population falls below this are
#: parked and take exact steps (leaping tiny populations is both slow —
#: rejections — and inaccurate near the absorbing boundary).
SCENARIO_TAU_TAIL_POPULATION = 512

#: Halvings of a rejected leap before the replica is parked outright.
_MAX_TAU_HALVINGS = 40

#: A retired replica's termination code by its count of positive opinions:
#: none, one, or (only when its budget is spent) two or more.
_CODE_BY_POSITIVE = np.array([TERM_ABSORBED, TERM_CONSENSUS, TERM_MAX_EVENTS], dtype=np.int8)


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


#: Up to this many values per row (``W`` for an exact step, ``K * W`` for a
#: leap's moments), :func:`_cumulative_rows` folds with one
#: ``np.add.accumulate`` call, which loops over the values; above it, with
#: one ``np.add`` per row.  Timed on 4-20 reactions, the two break even at
#: 190-400 values, on either shape.
_ACCUMULATE_VALUES = 256


def _cumulative_rows(rows: np.ndarray) -> np.ndarray:
    """Running sums over axis 0, folded left to right in place.

    One order at every width and on every host: ``rows.sum(axis=0)`` goes
    pairwise at one column, and a BLAS product's order depends on the width
    and the kernel.  Both folds make the same additions in the same order.
    """
    if rows[0].size <= _ACCUMULATE_VALUES:
        return np.add.accumulate(rows, axis=0, out=rows)
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


def _step_tables(scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Each reaction's net change, ``(S, M + 1)``, and static good flag, ``(M + 1,)``.

    The last column repeats reaction ``M - 1``: a threshold that rounds up
    to the total counts every running sum, and the contract then fires the
    last reaction.
    """
    changes = scenario.change_matrix.T
    good = scenario.good_vector.astype(np.int64)
    return np.concatenate((changes, changes[:, -1:]), axis=1), np.append(good, good[-1])


def _ensemble_result(
    member: SweepMember,
    finals: np.ndarray,
    events: np.ndarray,
    codes: np.ndarray,
    good: np.ndarray,
    max_totals: np.ndarray,
    collect_stats: bool,
    leap_events: np.ndarray | None = None,
) -> LVEnsembleResult:
    """Package one member's replica arrays as an ensemble result.

    ``finals`` carries the full ``(R, S)`` counts; the two-species columns
    double as ``final_x0``/``final_x1`` so every aggregate consumer
    (stores, schedulers, summaries over the opinion pair) keeps working.
    Per-species birth/death/intra accounting is two-species-engine-specific
    and stays zero here; at ``"full"``, ``bad_noncompetitive_events`` is
    the complement of the spec's static good classification, and at
    ``"win"`` it stays zero like ``good_events``.
    """
    counts = tuple(int(value) for value in member.initial_state)
    width = finals.shape[0]
    zeros = np.zeros(width, dtype=np.int64)
    zeros_2 = np.zeros((width, 2), dtype=np.int64)
    bad = events - good if collect_stats else zeros.copy()
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
        bad_noncompetitive_events=bad,
        good_events=good,
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


class _MemberRun:
    """One member's replica arrays: the tau backend's set-up and exact step."""

    def __init__(self, member: SweepMember, collect: str):
        self.member = member
        self.scenario = build_scenario(member.scenario, member.params)
        self.moves, self.good_flags = _step_tables(self.scenario)
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
        cum = _cumulative_rows(self.scenario.propensity_rows(self.states[rows]))
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
        selected = (cum <= thresholds).sum(axis=0)
        self.states[rows] += self.moves.take(selected, axis=1).T
        self.record(rows, 1, self.good_flags.take(selected) if self.collect_stats else 0)

    def result(self, leap_events: np.ndarray | None = None) -> LVEnsembleResult:
        return _ensemble_result(
            self.member,
            self.states,
            self.events,
            self.codes,
            self.good_counts,
            self.max_totals,
            self.collect_stats,
            leap_events,
        )


class _Group:
    """The replicas of the members of one call that share a scenario.

    Members own consecutive slots of the result arrays (``finals``,
    ``events``, ``codes``, ``good_events``, ``max_totals``), in member order.
    The live replicas are packed: ``states`` holds their counts
    species-major, ``(S, W)``, and ``slot`` each one's slot, ascending.  A
    replica that ends writes its slot and leaves the packed rows; the others
    keep their order.  Every live replica has fired one event per pass, so
    the pass count is its event count.  ``live`` tallies each member's live
    replicas, and :meth:`segments` turns it into the ``(member, count)`` list
    the call's uniform draw reads.  Each pass refills one factor table of
    the scenario's :attr:`~repro.scenario.spec.Scenario.kinetics` in place.
    """

    def __init__(
        self,
        scenario: Scenario,
        members: Sequence[tuple[int, SweepMember]],
        collect_stats: bool,
    ):
        self.kinetics = scenario.kinetics
        self.moves, self.good_flags = _step_tables(scenario)
        opinions = scenario.opinion_species
        # A slice where the opinions lead the species, so counting reads a view.
        self.opinion = (
            slice(0, len(opinions))
            if opinions == tuple(range(len(opinions)))
            else scenario.opinion_index
        )
        self.members = members
        self.collect_stats = collect_stats
        widths = [member.num_replicates for _, member in members]
        self.offsets = np.cumsum([0] + widths).tolist()
        self.owner = np.repeat(np.arange(len(members)), widths)
        counts = np.array([member.initial_state for _, member in members], dtype=np.int64)
        self.finals = counts[self.owner]
        size = self.owner.size
        self.events = np.zeros(size, dtype=np.int64)
        self.codes = np.zeros(size, dtype=np.int8)
        self.good_events = np.zeros(size, dtype=np.int64)
        self.max_totals = counts.sum(axis=1)[self.owner]
        self.budgets = np.array([member.max_events for _, member in members])[self.owner]
        self.min_budget = int(self.budgets.min())
        self.live = widths
        self._segments: list[tuple[int, int]] | None = None
        self.states = np.ascontiguousarray(self.finals.T)
        self.slot = np.arange(size)
        if collect_stats:
            self.good = self.good_events.copy()
            self.max_total = self.max_totals.copy()
        self.factors = self.kinetics.factor_table(size)
        positive = np.count_nonzero(self.states[self.opinion], axis=0)
        started = positive <= 1
        if started.any():
            self._retire(started, 0, _CODE_BY_POSITIVE.take(positive[started]))

    @property
    def width(self) -> int:
        return int(self.slot.size)

    def segments(self) -> list[tuple[int, int]]:
        """``(member index, live count)`` of the members with live replicas, in order."""
        if self._segments is None:
            self._segments = [
                (index, count) for (index, _), count in zip(self.members, self.live) if count
            ]
        return self._segments

    def propensities(self, step: int) -> None:
        """Form the live replicas' running propensity sums for this step.

        A replica whose total is zero ends absorbed, before the draw.
        """
        self.cumulative = cumulative = _cumulative_rows(
            self.kinetics.propensities(self.states, self.factors)
        )
        totals = cumulative[-1]
        if totals.min() <= 0.0:
            dead = totals <= 0.0
            self._retire(dead, step, TERM_ABSORBED)
            self.cumulative = cumulative[:, ~dead]

    def fire(self, uniforms: np.ndarray) -> None:
        """One event in every live replica, picked by its uniform."""
        cumulative = self.cumulative
        threshold = uniforms * cumulative[-1]
        selected = (cumulative <= threshold).sum(axis=0)
        self.states += self.moves.take(selected, axis=1)
        if self.collect_stats:
            self.good += self.good_flags.take(selected)
            np.maximum(self.max_total, self.states.sum(axis=0), out=self.max_total)

    def classify(self, step: int) -> None:
        """End the replicas that reached consensus, absorption or their budget."""
        positive = np.count_nonzero(self.states[self.opinion], axis=0)
        spent = step >= self.min_budget
        if positive.min() > 1 and not spent:
            return
        done = positive <= 1
        if spent:
            done |= self.budgets[self.slot] <= step
        if done.any():
            self._retire(done, step, _CODE_BY_POSITIVE.take(np.minimum(positive[done], 2)))

    def _retire(self, mask: np.ndarray, step: int, codes: np.ndarray | int) -> None:
        """Write the slots of the packed replicas *mask* selects, then drop them."""
        slots = self.slot[mask]
        self.finals[slots] = self.states[:, mask].T
        self.events[slots] = step
        self.codes[slots] = codes
        if self.collect_stats:
            self.good_events[slots] = self.good[mask]
            self.max_totals[slots] = self.max_total[mask]
        for owner in self.owner[slots].tolist():
            self.live[owner] -= 1
        self._segments = None
        keep = ~mask
        self.states = self.states[:, keep]
        self.slot = self.slot[keep]
        if self.collect_stats:
            self.good = self.good[keep]
            self.max_total = self.max_total[keep]
        self.factors = self.kinetics.factor_table(self.slot.size)

    def results(self) -> list[tuple[int, LVEnsembleResult]]:
        """``(member index, result)`` of each of the group's members."""
        results = []
        for (index, member), start, stop in zip(self.members, self.offsets, self.offsets[1:]):
            slots = slice(start, stop)
            results.append(
                (
                    index,
                    _ensemble_result(
                        member,
                        self.finals[slots].copy(),
                        self.events[slots].copy(),
                        self.codes[slots].copy(),
                        self.good_events[slots].copy(),
                        self.max_totals[slots].copy(),
                        self.collect_stats,
                    ),
                )
            )
        return results


def run_scenario_members(
    members: Sequence[SweepMember],
    seeds: Sequence[int],
    *,
    collect: str = "full",
) -> list[LVEnsembleResult]:
    """Exact generic execution of non-default scenario members.

    *seeds* are the final per-member root seeds (the caller —
    :func:`repro.lv.ensemble.run_sweep_ensemble` — has already applied the
    member-seed derivation), each spawning the member's step/tail generator
    pair.  Members may come from different scenario families; the members
    of one scenario fingerprint advance as one :class:`_Group`, every group
    in the same loop.  Each pass forms every group's propensities, draws one
    uniform per live replica from its member's step stream (member by
    member, each member's replicas in ascending order), then fires one
    event in every live replica and ends those that are done.
    """
    collect_stats = collect == "full"
    by_scenario: dict[str, list[tuple[int, SweepMember]]] = {}
    for index, member in enumerate(members):
        fingerprint = scenario_fingerprint(member.scenario, member.params)
        by_scenario.setdefault(fingerprint, []).append((index, member))
    groups = [
        _Group(build_scenario(shared[0][1].scenario, shared[0][1].params), shared, collect_stats)
        for shared in by_scenario.values()
    ]
    streams = _MemberStreams(seeds)
    drawn = np.empty(sum(member.num_replicates for member in members))
    running = [group for group in groups if group.width]
    step = 0
    while running:
        for group in running:
            group.propensities(step)
        running = [group for group in running if group.width]
        uniforms = streams.fill(
            [segment for group in running for segment in group.segments()], drawn
        )
        offset = 0
        for group in running:
            group.fire(uniforms[offset : offset + group.width])
            offset += group.width
        step += 1
        for group in running:
            group.classify(step)
        running = [group for group in running if group.width]
    results: list[LVEnsembleResult | None] = [None] * len(members)
    for group in groups:
        for index, result in group.results():
            results[index] = result
    return results


def run_scenario_members_tau(
    members: Sequence[SweepMember],
    seeds: Sequence[int],
    *,
    epsilon: float,
    collect: str = "full",
) -> list[LVEnsembleResult]:
    """Tau-leaping generic execution of non-default scenario members."""
    if not 0.0 < epsilon < 1.0:
        raise InvalidConfigurationError(
            f"tau epsilon must be in (0, 1), got {epsilon}"
        )
    return [
        _run_member_tau(_MemberRun(member, collect), seed, epsilon)
        for member, seed in zip(members, seeds)
    ]


def _run_member_tau(run: _MemberRun, seed: int, epsilon: float) -> LVEnsembleResult:
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
