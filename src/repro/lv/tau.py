"""Vectorized tau-leaping backend for large-population LV ensembles.

The exact lock-step engine (:mod:`repro.lv.ensemble`) pays one vectorized
step per jump-chain *event*, so its cost grows linearly in the event count —
consensus from ``n`` individuals takes ``O(n)`` events, which caps practical
populations around ``n ~ 10^4``.  This module provides the approximate
large-``n`` fast path: whole replica batches advance by **Poisson leaps**
that bundle many reactions per step, so the paper's asymptotic claims
(``O(log^2 n)`` versus ``sqrt(n)`` thresholds) can actually be observed at
``n = 10^6`` and beyond.

Every lv2 replica of a call, whatever its member, is one *lane* of one leap
loop: each lane carries its member's rates, mechanism, gap sign and budget.
Per leap, the loop

1. evaluates the LV reaction-class propensities of every lane,
2. chooses a per-replica step ``tau`` by the standard bounded
   relative-propensity-change rule (Cao-Gillespie selection with parameter
   ``epsilon``: the mean and standard deviation of each species' change per
   leap are both capped at ``max(epsilon * x_i / g_i, 1)``),
3. draws a Poisson firing matrix with means ``a_j * tau`` and applies the
   aggregate stoichiometry,
4. rejects any leap that would drive a count negative, halving that
   replica's ``tau`` and redrawing (per replica, not per batch), and
5. degenerates to single exact-SSA steps for replicas whose leap would fire
   at most about one reaction, recorded under the real reaction class.

Every step but the draws is one pass over all lanes, and a lane's arithmetic
never depends on the other lanes: its sums over the classes run left to
right at every width.

Hybrid exact tail
-----------------
Near absorption the leap approximation is invalid (propensities change by
O(1) factors per event), so replicas whose total population falls to
:data:`DEFAULT_EXACT_TAIL_POPULATION` or below are *parked*: they stop
leaping and finish exactly, event by event, on the exact engine
(:mod:`repro.lv.ensemble`).  Consensus probabilities therefore get the
exact endgame dynamics; leaping is only ever applied in the
large-population regime it is valid in.  Once every member of a call has
finished leaping, all the replicas they parked continue together from
their parked counts, events and accounting, through the exact engine's own
finisher: its lock-step loop, then its scalar tail for the last
:data:`~repro.lv.ensemble.SCALAR_FINISH_WIDTH` survivors of each member.

Reproducibility contract
------------------------
Seed derivation mirrors :func:`repro.lv.ensemble.run_sweep_ensemble`: every
member of a batch owns its root seed, which spawns a (step, tail) generator
pair.  Per leap, each member draws from its step stream over its pending
lanes in ascending original-replica-index order: one Poisson matrix
(class-major) per rejection round while it has pending lanes, then one
block of uniforms for its exact-step lanes.  The parked replicas then follow
the exact engine's consumption-order contract from where their member's
step stream stands: one step-stream uniform per live parked replica per
lock-step step, in ascending replica order, until at most
:data:`~repro.lv.ensemble.SCALAR_FINISH_WIDTH` remain, whose scalar runs
read the untouched tail stream.  A call whose replicas all park before
their first leap is therefore bitwise equal to
:func:`~repro.lv.ensemble.run_sweep_ensemble` at ``"full"`` on the same
members and seeds.  No member's draws or arithmetic depend on another's
lanes, so a member's results are **bitwise-identical to running it alone**
— fused execution is purely an execution strategy, exactly as for the
exact engine.  Results are seed-deterministic, but tau trajectories are
*not* bitwise-comparable to exact trajectories: the backends agree
statistically (enforced by the test suite's shared tolerance helper), not
sample-by-sample.

Event accounting
----------------
``total_events`` counts **estimated reaction firings** (``firings.sum()``
per leap) plus the exactly simulated tail/fallback events, matching the unit
every exact simulator uses; the additional ``leap_events`` array records the
leap-estimated subset so schedulers can meter approximate and exact work
separately.  Event-granularity path statistics (``J(S)`` bad events, good
events, ``min_gap_seen``, ``hit_tie``) are accumulated at *leap* granularity
while leaping (minority resolved at the start of each leap) and exactly in
the endgame — statistically faithful estimates, not per-event counts.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import InvalidConfigurationError, SimulationError
from repro.lv.ensemble import (
    COLLECT_MODES,
    DEFAULT_COMPACTION_FRACTION,
    LVEnsembleResult,
    SweepMember,
    _MemberStreams,
    _OutputRecord,
    _run_exact,
)
from repro.lv.params import LVParams
from repro.lv.simulator import _ACCOUNTING, _DX0_TABLE, _DX1_TABLE, _gap_sign
from repro.rng import SeedLike, spawn_seeds

# Termination codes come from the stack-wide scenario spec (the single home
# of the constants the engines share); the historical local aliases remain.
from repro.scenario.spec import (
    DEFAULT_SCENARIO,
    TERM_ABSORBED as _ABSORBED,
    TERM_MAX_EVENTS as _MAX_EVENTS,
)

__all__ = [
    "BACKENDS",
    "DEFAULT_TAU_EPSILON",
    "DEFAULT_TAU_POPULATION",
    "DEFAULT_EXACT_TAIL_POPULATION",
    "resolve_backend",
    "run_tau_sweep_ensemble",
]

#: Selectable simulation backends: ``"exact"`` (the lock-step jump-chain
#: engine), ``"tau"`` (this module), and ``"auto"`` (tau at or above
#: :data:`DEFAULT_TAU_POPULATION` total population, exact below).
BACKENDS = ("exact", "tau", "auto")

#: Bounded relative-propensity-change parameter of the tau-selection rule.
#: Smaller values take shorter, more accurate leaps; 0.03 is the standard
#: literature default and keeps the statistical-agreement tests comfortably
#: inside the shared tolerances.
DEFAULT_TAU_EPSILON = 0.03

#: ``"auto"`` backend switch-over: configurations whose total initial
#: population is at least this run on the tau backend.  Below it the exact
#: engine is already fast and stays bitwise-reproducible.
DEFAULT_TAU_POPULATION = 50_000

#: Replicas whose total population falls to this value or below are parked
#: for the exact endgame: near absorption per-event propensity changes are
#: O(1) and the leap approximation is invalid, while the exact endgame costs
#: only O(tail population) events.
DEFAULT_EXACT_TAIL_POPULATION = 512

#: Leaps expected to fire fewer than this many reactions degenerate to a
#: single exact-SSA step (drawn from the step stream, recorded under the
#: real reaction class) — a Poisson leap of sub-unit mean costs the same
#: dispatch but adds approximation error for no speed.
_MIN_EXPECTED_FIRINGS = 1.0

#: Event indices shared with :mod:`repro.lv.ensemble`.
_BIRTH0, _BIRTH1, _DEATH0, _DEATH1, _INTER0, _INTER1, _INTRA0, _INTRA1 = range(8)

#: Per reaction class: its rate's column in
#: :data:`~repro.lv.params.RATE_FIELDS` order, and the count that rate
#: multiplies (0: ``x0``, 1: ``x1``, 2: ``x0 * x1``, 3: ``x0 * (x0 - 1)``,
#: 4: ``x1 * (x1 - 1)``).
_CLASS_RATE = np.array([0, 0, 1, 1, 2, 3, 4, 5])
_LEAP_OPERAND = np.array([0, 1, 0, 1, 2, 2, 3, 4])

#: ``_MOVES[m, i, e]``: the change of ``x_i`` by event ``e`` under mechanism
#: row ``m``.  ``_MOMENTS[m, e]``: ``1``, the changes of ``x0`` and ``x1``,
#: then their squares; weighted by the class propensities they sum to a
#: leap's total propensity and each species' mean and variance of change
#: per unit tau.
_MOVES = np.stack((_DX0_TABLE[:, :8], _DX1_TABLE[:, :8]), axis=1)
_MOMENTS = np.concatenate(
    [np.ones((2, 8, 1)), _MOVES.transpose(0, 2, 1), _MOVES.transpose(0, 2, 1) ** 2],
    axis=2,
).astype(np.float64)


def resolve_backend(
    backend: str,
    population: int,
    *,
    tau_population: int = DEFAULT_TAU_POPULATION,
) -> str:
    """Resolve a backend selector to ``"exact"`` or ``"tau"``.

    ``"auto"`` chooses the tau backend when *population* (the configuration's
    total initial population) is at least *tau_population*, and the exact
    engine below it — large populations get the approximate fast path,
    small ones keep bitwise exact-reproducibility.

    Examples
    --------
    >>> resolve_backend("auto", 1_000_000)
    'tau'
    >>> resolve_backend("auto", 512)
    'exact'
    >>> resolve_backend("exact", 1_000_000)
    'exact'
    """
    if backend not in BACKENDS:
        raise InvalidConfigurationError(
            f"backend must be one of {BACKENDS}, got {backend!r}"
        )
    if backend == "auto":
        return "tau" if population >= tau_population else "exact"
    return backend


def run_tau_sweep_ensemble(
    members: Sequence[SweepMember],
    *,
    rng: SeedLike = None,
    member_seeds: Sequence[SeedLike] | None = None,
    epsilon: float = DEFAULT_TAU_EPSILON,
    exact_tail_population: int = DEFAULT_EXACT_TAIL_POPULATION,
    collect: str = "full",
) -> list[LVEnsembleResult]:
    """Tau-leaping twin of :func:`repro.lv.ensemble.run_sweep_ensemble`.

    Advances every member's replica batch by vectorized Poisson leaps, the
    lv2 members' replicas together in one loop, and returns one
    :class:`~repro.lv.ensemble.LVEnsembleResult` per member, in member
    order.  Seed derivation matches the exact engine's contract (one root
    seed per member spawning a step and a tail stream), and no member's
    draws or arithmetic depend on another's, so a member's results are
    bitwise-identical to running it alone regardless of batch composition.

    A member's event budget and its results' ``total_events`` are metered
    in estimated reaction firings (leaps) plus exact events (tail), the same
    unit as the exact engine; a replica may overshoot its budget by at most
    one leap's firings.

    Parameters
    ----------
    members:
        Ordered configuration slices, as for the exact engine.
    rng, member_seeds:
        Batch-level root seed, or one root seed per member (the scheduler's
        reproducibility hook); identical semantics to the exact engine.
    epsilon:
        Tau-selection accuracy parameter (bounded relative propensity
        change per leap).
    exact_tail_population:
        Park a replica for the exact endgame once its total population is
        at or below this value (``0`` disables the handoff and leaps all
        the way to absorption).  The call's parked replicas finish together
        on the exact engine (see the module's reproducibility contract).
    collect:
        Statistics level (:data:`~repro.lv.ensemble.COLLECT_MODES`).
        Generic-scenario members honour it through
        :func:`repro.scenario.engine.run_scenario_members_tau`.  lv2
        members ignore it and always collect full statistics, because the
        leap loop's per-leap accounting is a negligible fraction of its
        cost.

    Examples
    --------
    >>> sd = LVParams.self_destructive(beta=1.0, delta=1.0, alpha=1.0)
    >>> result = run_tau_sweep_ensemble(
    ...     [SweepMember(sd, (120_000, 80_000), 4)], rng=7)[0]
    >>> bool(result.reached_consensus.all())
    True
    >>> int(result.leap_events.sum()) > 0
    True
    """
    members = list(members)
    if not members:
        raise InvalidConfigurationError("a tau sweep needs at least one member")
    _validate_epsilon(epsilon)
    if collect not in COLLECT_MODES:
        raise InvalidConfigurationError(
            f"collect must be one of {COLLECT_MODES}, got {collect!r}"
        )
    if exact_tail_population < 0:
        raise InvalidConfigurationError(
            f"exact_tail_population must be non-negative, got {exact_tail_population}"
        )
    if member_seeds is None:
        seeds = spawn_seeds(rng, len(members))
    else:
        if len(member_seeds) != len(members):
            raise InvalidConfigurationError(
                f"got {len(member_seeds)} member seeds for {len(members)} members"
            )
        # Same one-spawn-per-member derivation as the exact engine, so a
        # fused member equals the solo run bitwise.
        seeds = [spawn_seeds(seed, 1)[0] for seed in member_seeds]
    results: list[LVEnsembleResult | None] = [None] * len(members)
    generic_indexes = [
        i for i, member in enumerate(members) if member.scenario != DEFAULT_SCENARIO
    ]
    if generic_indexes:
        # Non-default scenarios leap through the generic scenario engine
        # (same per-member seed derivation, so fused == solo holds there too).
        from repro.scenario.engine import run_scenario_members_tau

        generic_results = run_scenario_members_tau(
            [members[i] for i in generic_indexes],
            [seeds[i] for i in generic_indexes],
            epsilon=epsilon,
            collect=collect,
        )
        for index, result in zip(generic_indexes, generic_results):
            results[index] = result
    # Every lv2 member leaps in one loop into one set of output slots, then
    # every replica they parked finishes on the exact engine.
    lv2_indexes = [
        i for i, member in enumerate(members) if member.scenario == DEFAULT_SCENARIO
    ]
    if not lv2_indexes:
        return results
    lv2_members = [members[i] for i in lv2_indexes]
    outputs = _OutputRecord(lv2_members, leap_events=True)
    streams = _MemberStreams([seeds[i] for i in lv2_indexes])
    parked = _leap(
        lv2_members, outputs, streams.step_generators, epsilon, exact_tail_population
    )
    if parked.size:
        _run_exact(
            lv2_members,
            outputs,
            streams,
            parked,
            compaction_fraction=DEFAULT_COMPACTION_FRACTION,
            full=True,
        )
    for index, result in zip(lv2_indexes, outputs.results(lv2_members)):
        results[index] = result
    return results


def _validate_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon < 1.0:
        raise InvalidConfigurationError(
            f"tau epsilon must be in (0, 1), got {epsilon}"
        )


#: Per-replica arrays of a tau run, named alike in the working lanes and the
#: output record.
_FIELDS = ("x0", "x1", "total_events", "leap_events") + _ACCOUNTING


class _Lanes:
    """Replicas of a call's lv2 members in flight, one *lane* each.

    Lanes are ordered by output slot (``orig``), so each member's lanes are
    one contiguous run, in ascending replica order.  Besides the counts and
    accumulators (:data:`_FIELDS`), a lane carries what its member's
    dynamics read: the member's index, its class rates (``beta, beta, delta,
    delta, alpha0, alpha1, gamma0, gamma1``), its mechanism (the row of the
    move tables), its gap sign and its event budget.
    """

    #: Per-lane arrays that :meth:`retire` keeps aligned.
    ARRAYS = _FIELDS + ("orig", "member", "rates", "mechanism", "sign", "budget")

    def __init__(self, members: Sequence[SweepMember], outputs: _OutputRecord):
        """One lane per slot of *outputs*, read from it."""
        self.orig = np.arange(outputs.member.size)
        for name in _FIELDS:
            setattr(self, name, getattr(outputs, name).copy())
        member = self.member = outputs.member
        rates, self_destructive = LVParams.stack([m.params for m in members])
        self.rates = rates[:, _CLASS_RATE][member]
        self.mechanism = self_destructive.astype(np.intp)[member]
        self.sign = np.array([_gap_sign(m.initial_state) for m in members])[member]
        self.budget = np.array([m.max_events for m in members], dtype=np.int64)[member]

    @property
    def width(self) -> int:
        return int(self.orig.size)

    def retire(self, outputs: _OutputRecord, done: np.ndarray) -> np.ndarray:
        """Write the lanes of the mask *done* to their slots and drop them.

        Returns the kept rows.
        """
        rows = np.flatnonzero(done)
        where = self.orig[rows]
        for name in _FIELDS:
            getattr(outputs, name)[where] = getattr(self, name)[rows]
        keep = np.flatnonzero(~done)
        for name in self.ARRAYS:
            setattr(self, name, getattr(self, name)[keep])
        return keep


class _LeapTables:
    """The lanes' parameters as a leap reads them, rebuilt after every retirement.

    Class-major over the leap's classes (a prefix of the eight, see
    :func:`_leap`): ``rates`` and, per lane, ``moments`` (:data:`_MOMENTS`
    of the lane's mechanism).  Also per lane ``order``, the highest order
    ``g_i`` of a reaction consuming species ``i`` (both are second-order
    whenever any pairwise competition exists); and ``starts``, where each
    member's lanes begin.
    """

    def __init__(self, lanes: _Lanes, classes: slice, num_members: int):
        self.rates = np.ascontiguousarray(lanes.rates[:, classes].T)
        moments = _MOMENTS[lanes.mechanism, classes]
        self.moments = np.ascontiguousarray(moments.transpose(1, 2, 0))
        competition = lanes.rates[:, _INTER0] + lanes.rates[:, _INTER1] > 0.0
        self.order = 1.0 + (competition | (lanes.rates[:, _INTRA0:] > 0.0).T)
        self.starts = np.searchsorted(lanes.member, np.arange(num_members + 1))


def _member_runs(rows: np.ndarray, starts: np.ndarray) -> list[tuple[int, int, int]]:
    """``(member, lo, hi)`` for each member with lanes in *rows* (ascending)."""
    cuts = np.searchsorted(rows, starts).tolist()
    return [
        (member, lo, hi)
        for member, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:]))
        if lo < hi
    ]


def _leap(
    members: Sequence[SweepMember],
    outputs: _OutputRecord,
    step_generators: Sequence[np.random.Generator],
    epsilon: float,
    exact_tail_population: int,
) -> np.ndarray:
    """Advance every lv2 replica of a call by Poisson leaps, in one loop.

    *outputs* holds the members' slot ranges, in member order; results land
    there.  Each leap is one pass over every lane for propensities, tau
    selection, rejection bookkeeping and accounting, and per lane it is the
    arithmetic of the member leaping alone: sums over the classes run left
    to right at every width.  Only the draws go member by member, each on
    the member's step stream over its lanes in ascending order: a
    ``poisson`` call per rejection round while it has pending lanes, then
    one ``random`` block for its exact steps.  Replicas that reach the
    exact tail population are parked: their accumulators are written and
    their slots returned, ascending, for the exact engine to finish.
    """
    lanes = _Lanes(members, outputs)
    # A leap evaluates every class up to the last with a nonzero rate in
    # some lane.
    num_classes = int(np.flatnonzero(lanes.rates.any(axis=0)).max(initial=-1)) + 1
    classes = slice(0, num_classes)
    operand = _LEAP_OPERAND[classes]
    intraspecific = max(num_classes - _INTRA0, 0)
    tables = _LeapTables(lanes, classes, len(members))
    parked = [np.zeros(0, dtype=np.int64)]

    while lanes.width:
        x0, x1 = lanes.x0, lanes.x1
        # --- retirement sweep (order: consensus, budget, propensities) ---
        finished = (x0 == 0) | (x1 == 0)
        exhausted = ~finished & (lanes.total_events >= lanes.budget)
        retired = finished | exhausted
        if retired.any():
            outputs.termination_codes[lanes.orig[exhausted]] = _MAX_EVENTS
            lanes.retire(outputs, retired)
            if not lanes.width:
                break
            tables = _LeapTables(lanes, classes, len(members))
            x0, x1 = lanes.x0, lanes.x1

        operands = np.empty((5, lanes.width))
        operands[0] = x0
        operands[1] = x1
        operands[2] = x0 * x1
        if intraspecific:
            operands[3] = x0 * (x0 - 1)
            operands[4] = x1 * (x1 - 1)
        rows = operands.take(operand, axis=0)
        rows *= tables.rates
        if intraspecific:
            rows[_INTRA0:] /= 2.0
        # The total, then each species' mean and variance of change per unit
        # tau: one reduction, class by class from the left at every width.
        sums = (tables.moments * rows[:, None]).sum(axis=0)
        total = sums[0]
        absorbed = total <= 0.0
        tail = ~absorbed & (x0 + x1 <= exact_tail_population)
        dropped = absorbed | tail
        if dropped.any():
            outputs.termination_codes[lanes.orig[absorbed]] = _ABSORBED
            parked.append(lanes.orig[tail])
            keep = lanes.retire(outputs, dropped)
            if not lanes.width:
                break
            tables = _LeapTables(lanes, classes, len(members))
            rows = rows[:, keep]
            sums = sums[:, keep]
            total = sums[0]
            x0, x1 = lanes.x0, lanes.x1

        # --- per-replica tau selection (bounded relative change) ---
        counts = np.stack((x0, x1))
        moments = sums[1:]
        np.abs(moments[:2], out=moments[:2])
        bounds = np.empty_like(moments)
        np.maximum(epsilon * counts / tables.order, 1.0, out=bounds[:2])
        np.square(bounds[:2], out=bounds[2:])
        # Bounds are at least 1, so a zero mean or variance gives +inf.
        with np.errstate(divide="ignore"):
            tau = (bounds / moments).min(axis=0)

        # --- Poisson leaps with per-replica rejection halving ---
        firings = np.zeros((8, lanes.width), dtype=np.int64)
        leaped = firings[classes]
        changes = np.zeros((2, lanes.width), dtype=np.int64)
        small = tau * total < _MIN_EXPECTED_FIRINGS
        exact_step = np.flatnonzero(small)
        pending = np.flatnonzero(~small)
        while pending.size:
            means = rows[:, pending] * tau[pending]
            draw = np.empty(means.shape, dtype=np.int64)
            for index, lo, hi in _member_runs(pending, tables.starts):
                draw[:, lo:hi] = step_generators[index].poisson(means[:, lo:hi])
            both = _MOVES[:, :, classes] @ draw
            change = np.where(lanes.mechanism[pending], both[1], both[0])
            # A lane keeps its latest draw: a rejected one draws again or
            # turns exact, and an exact step overwrites it below.
            leaped[:, pending] = draw
            changes[:, pending] = change
            pending = pending[(counts[:, pending] + change < 0).any(axis=0)]
            if not pending.size:
                break
            tau[pending] /= 2.0
            degenerate = tau[pending] * total[pending] < _MIN_EXPECTED_FIRINGS
            if degenerate.any():
                exact_step = np.concatenate([exact_step, pending[degenerate]])
                pending = pending[~degenerate]
        if exact_step.size:
            # Single exact-SSA steps for replicas whose leap would fire at
            # most ~one reaction, attributed to the real reaction class: the
            # first whose partial sum exceeds u * total.  Since u < 1 and the
            # thresholds scale by the last partial sum itself, that class
            # exists and has a positive propensity.
            exact_step.sort()
            uniforms = np.empty(exact_step.size)
            for index, lo, hi in _member_runs(exact_step, tables.starts):
                uniforms[lo:hi] = step_generators[index].random(hi - lo)
            cumulative = np.cumsum(rows[:, exact_step], axis=0)
            event = (cumulative <= uniforms * cumulative[-1]).sum(axis=0)
            firings[:, exact_step] = 0
            firings[event, exact_step] = 1
            changes[:, exact_step] = _MOVES[lanes.mechanism[exact_step], :, event].T

        # --- apply the aggregate stoichiometry and account the leap ---
        delta0, delta1 = changes
        gap_before = x0 - x1
        x0 += delta0
        x1 += delta1
        if (x0 < 0).any() or (x1 < 0).any():
            raise SimulationError("tau-leaping drove a species count negative")
        fired = firings.sum(axis=0)
        lanes.total_events += fired
        fired[exact_step] = 0
        lanes.leap_events += fired
        lanes.histogram += firings.T

        # Noise decomposition: exact given the firing matrix, since the gap
        # change is linear in the firings.
        gap_delta_individual = (
            firings[_BIRTH0] - firings[_BIRTH1] - firings[_DEATH0] + firings[_DEATH1]
        )
        gap_delta = delta0 - delta1
        lanes.noise_individual += lanes.sign * -gap_delta_individual
        lanes.noise_competitive += lanes.sign * -(gap_delta - gap_delta_individual)

        # Leap-granularity estimates of the per-event path statistics: the
        # current minority is resolved once per leap (see module docstring).
        minority_is_0 = gap_before < 0
        tied = gap_before == 0
        minority_births = np.where(minority_is_0, firings[_BIRTH0], firings[_BIRTH1])
        majority_deaths = np.where(minority_is_0, firings[_DEATH1], firings[_DEATH0])
        lanes.bad_noncompetitive_events += np.where(
            tied, 0, minority_births + majority_deaths
        )
        minority_shrinkers = np.where(
            minority_is_0,
            firings[_DEATH0] + firings[_INTRA0],
            firings[_DEATH1] + firings[_INTRA1],
        )
        interspecific = firings[_INTER0] + firings[_INTER1]
        lanes.good_events += np.where(tied, 0, minority_shrinkers + interspecific)

        np.maximum(lanes.max_total_population, x0 + x1, out=lanes.max_total_population)
        gap_after = x0 - x1
        np.minimum(lanes.min_gap_seen, np.abs(gap_after), out=lanes.min_gap_seen)
        lanes.hit_tie |= gap_after == 0

    return np.sort(np.concatenate(parked))
