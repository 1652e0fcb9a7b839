"""Generic ``(R, S)`` execution engine for registered scenarios.

The specialised lock-step engines in :mod:`repro.lv.ensemble` /
:mod:`repro.lv.tau` stay byte-frozen on the default two-species workload;
every *other* registered scenario executes here, driven entirely by the
frozen :class:`~repro.scenario.spec.Scenario` tables: dense count buffers,
``(M, W)`` propensity tables, spec-defined good/bad classification, and
spec-defined absorbing/consensus predicates over the opinion species.
Every replica runs in a vectorised loop until it has terminated, on both
backends; there is no scalar tail.

Both backends (:func:`run_scenario_members`, exact, and
:func:`run_scenario_members_tau`) advance every member of a call in one
loop, :func:`_run_groups`.  The members that share a scenario fingerprint
form one :class:`_Group`, so each group's tables stay dense.  A group packs
the counts of its exact-stepping replicas species-major, ``(S, W)``, in
member order and then replica order; a replica that ends leaves the packed
rows at once, and the others keep their order.  Each pass forms every
group's propensities, draws every member's uniforms in one
:meth:`~repro.lv.ensemble._MemberStreams.fill` call, and fires one event in
every packed replica.  The exact backend packs every replica at pass 0; the
tau backend first leaps each group's replicas in the pass, and packs the
ones it parks.

The RNG consumption contract keeps fused and solo runs bitwise
interchangeable and results independent of packing and of the co-members:

1. every member's root seed spawns exactly two generators
   (:func:`repro.rng.spawn_generators`) — the **step stream** and the
   **tail stream**;
2. an exact step consumes one uniform per packed replica (with positive
   total propensity) at the start of the step, in ascending replica order —
   zero-propensity replicas retire as absorbed without consuming; uniforms
   are drawn in blocks, which ``Generator.random``'s partition invariance
   makes unobservable;
3. the exact backend steps every replica on the step stream until it
   terminates, and never reads the tail stream;
4. the tau backend draws its Poisson firings from the step stream: each
   pass, one call per member over its leaping replicas in ascending order,
   then one more per halving round while it has rejected replicas.  A
   replica whose opinion population falls below
   :data:`SCENARIO_TAU_TAIL_POPULATION`, or whose leap is still rejected
   after :data:`_MAX_TAU_HALVINGS` halvings, is parked: it joins the packed
   rows at its slot and takes one exact step in that pass and every pass
   after, on the tail stream, and never leaps again.

``tests/reference_lockstep.py`` replays the exact steps' contract in plain
scalar Python (on either stream) and the engine tests match it array for
array.

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
from repro.scenario.registry import build_scenario, scenario_fingerprint
from repro.scenario.spec import TERM_ABSORBED, TERM_CONSENSUS, TERM_MAX_EVENTS, Scenario

__all__ = [
    "SCENARIO_TAU_TAIL_POPULATION",
    "run_scenario_members",
    "run_scenario_members_tau",
]

#: Tau-leaping replicas whose *opinion* population falls below this are
#: parked and take exact steps (leaping tiny populations is both slow —
#: rejections — and inaccurate near the absorbing boundary).
SCENARIO_TAU_TAIL_POPULATION = 512

#: Halvings of a rejected leap before the replica is parked outright.
_MAX_TAU_HALVINGS = 40

#: A retired replica's termination code by its count of positive opinions:
#: none, one, or (only when its budget is spent) two or more.
_CODE_BY_POSITIVE = np.array([TERM_ABSORBED, TERM_CONSENSUS, TERM_MAX_EVENTS], dtype=np.int8)

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


class _Group:
    """The replicas of the members of one call that share a scenario.

    Members own consecutive slots of the result arrays (``finals``,
    ``events``, ``codes``, ``good_events``, ``max_totals``, ``budgets`` and,
    on the tau backend, ``leap_events``), in member order.  A running
    replica leaps (tau backend only) or takes exact steps.  The leaping
    replicas are ``leaping``, ascending slots, and keep their counts and
    tallies in the slot arrays.  The exact-stepping replicas are packed:
    ``states`` holds their counts species-major, ``(S, W)``, and ``slot``
    each one's slot, ascending.  A replica that parks is inserted at its
    slot (:meth:`park`); a replica that ends writes its slot and leaves the
    packed rows; the others keep their order.  A packed replica fires one
    event per pass, so its event count is the pass count plus a base fixed
    when it is packed (0 on the exact backend): until it retires, its slot
    of ``events`` holds that base and its slot of ``budgets`` the pass at
    which it is spent.  ``live`` tallies each member's packed replicas, and
    :meth:`segments` turns it into the ``(member, count)`` list the call's
    uniform draw reads.  Each pass refills one factor table of the
    scenario's :attr:`~repro.scenario.spec.Scenario.kinetics` in place.
    """

    def __init__(
        self,
        scenario: Scenario,
        members: Sequence[tuple[int, SweepMember]],
        collect_stats: bool,
        epsilon: float | None,
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
        self.live = [0] * len(members)
        self._segments: list[tuple[int, int]] | None = None
        self.states = np.empty((scenario.num_species, 0), dtype=np.int64)
        self.slot = np.empty(0, dtype=np.int64)
        if collect_stats:
            self.good = np.empty(0, dtype=np.int64)
            self.max_total = np.empty(0, dtype=np.int64)
        positive = np.count_nonzero(self.finals[:, self.opinion], axis=1)
        started = positive <= 1
        self.codes[started] = _CODE_BY_POSITIVE.take(positive[started])
        running = np.flatnonzero(~started)
        self.epsilon = epsilon
        if epsilon is None:
            self.leap_events = None
            self.leaping = running[:0]
            self.park(running, 0)
        else:
            self.leap_events = np.zeros(size, dtype=np.int64)
            self.leaping = running
            self.park(running[:0], 0)
            self.moments = _moment_table(scenario.change_matrix)
            self.changes = scenario.change_matrix
            self.good_vector = scenario.good_vector

    @property
    def width(self) -> int:
        return int(self.slot.size)

    def segments(self) -> list[tuple[int, int]]:
        """``(member index, count)`` of the members with packed replicas, in order."""
        if self._segments is None:
            self._segments = [
                (index, count) for (index, _), count in zip(self.members, self.live) if count
            ]
        return self._segments

    def park(self, slots: np.ndarray, step: int) -> None:
        """Pack the running replicas *slots* (ascending) at their slots, before pass *step*.

        Their bases are their events less *step*, and their budgets become
        pass deadlines.
        """
        base = self.events[slots] - step
        self.events[slots] = base
        self.budgets[slots] -= base
        at = np.searchsorted(self.slot, slots)
        self.slot = np.insert(self.slot, at, slots)
        self.states = np.insert(self.states, at, self.finals[slots].T, axis=1)
        if self.collect_stats:
            self.good = np.insert(self.good, at, self.good_events[slots])
            self.max_total = np.insert(self.max_total, at, self.max_totals[slots])
        for owner in self.owner[slots].tolist():
            self.live[owner] += 1
        self._segments = None
        self.min_budget = int(self.budgets[self.slot].min()) if self.slot.size else 0
        self.factors = self.kinetics.factor_table(self.slot.size)

    def leap(self, step: int, step_generators: Sequence[np.random.Generator]) -> None:
        """Pass *step* of the leaping replicas: park the small ones, leap the others.

        Zero-propensity replicas retire as absorbed.  Each member draws the
        Poisson firings of its leaping replicas, in ascending order, in one
        call on its step stream.  A leap that would drive a count negative is
        halved and redrawn, one call per member per round over its rejected
        replicas, at most :data:`_MAX_TAU_HALVINGS` times: leaping cannot make
        progress that near the boundary, so the replicas still rejected keep
        their state and park with the small ones.
        """
        rows = self.leaping
        counts = self.finals[rows]
        small = counts[:, self.opinion].sum(axis=1) < SCENARIO_TAU_TAIL_POPULATION
        parked = rows[small]
        rows, counts = rows[~small], counts[~small]
        propensities = self.kinetics.propensities(counts.T)
        sums = _leap_moments(self.moments, propensities)
        dead = sums[0] <= 0.0
        if dead.any():
            self.codes[rows[dead]] = TERM_ABSORBED
            rows, counts = rows[~dead], counts[~dead]
            propensities, sums = propensities[:, ~dead], sums[:, ~dead]
        tau = _leap_length(sums, counts, self.epsilon)
        bounds = np.searchsorted(rows, self.offsets).tolist()
        runs = [
            (index, lo, hi)
            for (index, _), lo, hi in zip(self.members, bounds, bounds[1:])
            if hi > lo
        ]
        means = propensities * tau
        firings = np.empty(means.shape, dtype=np.int64)
        for index, lo, hi in runs:
            firings[:, lo:hi] = step_generators[index].poisson(means[:, lo:hi])
        proposed = counts + firings.T @ self.changes
        negative = (proposed < 0).any(axis=1)
        for _ in range(_MAX_TAU_HALVINGS):
            if not negative.any():
                break
            tau = np.where(negative, tau * 0.5, tau)
            for index, lo, hi in runs:
                rejected = lo + np.flatnonzero(negative[lo:hi])
                if rejected.size:
                    firings[:, rejected] = step_generators[index].poisson(
                        propensities[:, rejected] * tau[rejected]
                    )
            proposed[negative] = counts[negative] + firings[:, negative].T @ self.changes
            negative = (proposed < 0).any(axis=1)
        parked = np.union1d(parked, rows[negative])
        moved = ~negative
        rows, firings, proposed = rows[moved], firings[:, moved], proposed[moved]
        self.finals[rows] = proposed
        fired = firings.sum(axis=0)
        self.events[rows] += fired
        self.leap_events[rows] += fired
        if self.collect_stats:
            self.good_events[rows] += firings[self.good_vector].sum(axis=0)
            self.max_totals[rows] = np.maximum(self.max_totals[rows], proposed.sum(axis=1))
        positive = np.count_nonzero(proposed[:, self.opinion], axis=1)
        done = (positive <= 1) | (self.events[rows] >= self.budgets[rows])
        self.codes[rows[done]] = _CODE_BY_POSITIVE.take(np.minimum(positive[done], 2))
        self.leaping = rows[~done]
        if parked.size:
            self.park(parked, step)

    def propensities(self, step: int) -> None:
        """Form the packed replicas' running propensity sums for this step.

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
        """One event in every packed replica, picked by its uniform."""
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
        self.events[slots] += step
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
                        None if self.leap_events is None else self.leap_events[slots].copy(),
                    ),
                )
            )
        return results


def _leap_length(sums: np.ndarray, counts: np.ndarray, epsilon: float) -> np.ndarray:
    """Each leaping replica's leap length, by bounded relative change (Cao et al.).

    *sums* are the replicas' :func:`_leap_moments`, *counts* their ``(W, S)``
    counts.
    """
    num_species = counts.shape[1]
    mu, sigma2 = sums[1 : 1 + num_species], sums[1 + num_species :]
    bound = np.maximum(epsilon * counts.T.astype(np.float64), 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        by_mean = np.where(mu != 0.0, bound / np.abs(mu), np.inf)
        by_variance = np.where(sigma2 > 0.0, bound**2 / sigma2, np.inf)
    tau = np.minimum(by_mean, by_variance).min(axis=0)
    return np.maximum(np.minimum(tau, 1e6), 1.0 / sums[0])


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
    pair.  Every replica is packed at pass 0 and steps on its member's step
    stream (:func:`_run_groups`).
    """
    return _run_groups(members, seeds, collect, None)


def run_scenario_members_tau(
    members: Sequence[SweepMember],
    seeds: Sequence[int],
    *,
    epsilon: float,
    collect: str = "full",
) -> list[LVEnsembleResult]:
    """Tau-leaping generic execution of non-default scenario members.

    Every replica leaps on its member's step stream until it parks, then
    steps on its member's tail stream (:func:`_run_groups`).
    """
    if not 0.0 < epsilon < 1.0:
        raise InvalidConfigurationError(
            f"tau epsilon must be in (0, 1), got {epsilon}"
        )
    return _run_groups(members, seeds, collect, epsilon)


def _run_groups(
    members: Sequence[SweepMember],
    seeds: Sequence[int],
    collect: str,
    epsilon: float | None,
) -> list[LVEnsembleResult]:
    """Run every member of a call in one loop, tau-leaping when *epsilon* is set.

    Members may come from different scenario families; the members of one
    scenario fingerprint advance as one :class:`_Group`, every group in the
    same loop.  Each pass leaps every group's leaping replicas (drawing each
    member's firings from its step stream), then forms every group's
    propensities, draws one uniform per packed replica through one
    :meth:`~repro.lv.ensemble._MemberStreams.fill` call (member by member,
    each member's replicas in ascending order; the step streams on the exact
    backend, the tail streams on the tau backend), and fires one event in
    every packed replica and ends those that are done.
    """
    collect_stats = collect == "full"
    by_scenario: dict[str, list[tuple[int, SweepMember]]] = {}
    for index, member in enumerate(members):
        fingerprint = scenario_fingerprint(member.scenario, member.params)
        by_scenario.setdefault(fingerprint, []).append((index, member))
    groups = [
        _Group(
            build_scenario(shared[0][1].scenario, shared[0][1].params),
            shared,
            collect_stats,
            epsilon,
        )
        for shared in by_scenario.values()
    ]
    streams = _MemberStreams(seeds, tail=epsilon is not None)
    drawn = np.empty(sum(member.num_replicates for member in members))
    running = [group for group in groups if group.width or group.leaping.size]
    step = 0
    while running:
        for group in running:
            if group.leaping.size:
                group.leap(step, streams.step_generators)
        stepping = [group for group in running if group.width]
        for group in stepping:
            group.propensities(step)
        stepping = [group for group in stepping if group.width]
        uniforms = streams.fill(
            [segment for group in stepping for segment in group.segments()], drawn
        )
        offset = 0
        for group in stepping:
            group.fire(uniforms[offset : offset + group.width])
            offset += group.width
        step += 1
        for group in stepping:
            group.classify(step)
        running = [group for group in running if group.width or group.leaping.size]
    results: list[LVEnsembleResult | None] = [None] * len(members)
    for group in groups:
        for index, result in group.results():
            results[index] = result
    return results
