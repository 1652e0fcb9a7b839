"""Vectorized tau-leaping backend for large-population LV ensembles.

The exact lock-step engine (:mod:`repro.lv.ensemble`) pays one vectorized
step per jump-chain *event*, so its cost grows linearly in the event count —
consensus from ``n`` individuals takes ``O(n)`` events, which caps practical
populations around ``n ~ 10^4``.  This module provides the approximate
large-``n`` fast path: whole replica batches advance by **Poisson leaps**
that bundle many reactions per step, so the paper's asymptotic claims
(``O(log^2 n)`` versus ``sqrt(n)`` thresholds) can actually be observed at
``n = 10^6`` and beyond.

Per batched leap, the kernel

1. evaluates the eight LV reaction-class propensities for every replica,
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

Hybrid exact tail
-----------------
Near absorption the leap approximation is invalid (propensities change by
O(1) factors per event), so replicas whose total population falls to
:data:`DEFAULT_EXACT_TAIL_POPULATION` or below are *parked*: they stop
leaping and finish exactly, event by event, with the jump chain of the
scalar simulator (:class:`~repro.lv.simulator.LVJumpChainSimulator`) on the
member's dedicated tail stream, accounted by the simulator's one per-event
rule in the member's gap sign.  Consensus probabilities therefore get the
exact endgame dynamics; leaping is only ever applied in the
large-population regime it is valid in.  Once every member of a call has
finished leaping, all the replicas they parked advance together in one
lock-step batch, one exact event per live replica per step.

Reproducibility contract
------------------------
Seed derivation mirrors :func:`repro.lv.ensemble.run_sweep_ensemble`: every
member of a batch owns its root seed, which spawns a (step, tail) generator
pair; the step stream drives the Poisson/uniform draws of the leap loop in
ascending original-replica-index order, and only the exact endgame reads
the tail stream.  The endgame equals one scalar-simulator run per parked
replica, in park order (by leap, then ascending replica index), bit for
bit: such a run draws one fresh :data:`~repro.lv.simulator._UNIFORM_BUFFER`
block when it starts and another only past that many events, so the
member's ``k``-th parked replica reads tail uniform
``_UNIFORM_BUFFER * k + t`` at its ``t``-th endgame event.  A replica that
outlasts one block shifts its member's later replicas; from it on, that
member finishes one scalar run at a time, through the exact engine's
exact-tail finisher (:func:`repro.lv.ensemble._finish_exact_tail`), into
the output record both engines share.  Members are simulated
independently, so a member's results are **bitwise-identical to running it
alone** — fused execution is purely an execution strategy, exactly as for
the exact engine.  Results are seed-deterministic, but tau trajectories are
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
    LVEnsembleResult,
    SweepMember,
    _finish_exact_tail,
    _OutputRecord,
)
from repro.lv.params import LVParams
from repro.lv.simulator import (
    _ACCOUNTING,
    _DX0_TABLE,
    _DX1_TABLE,
    _UNIFORM_BUFFER,
    _event_accounting,
    _gap_sign,
)
from repro.rng import (
    SeedLike,
    advance_stream,
    spawn_generators,
    spawn_seeds,
    stream_uniforms,
)

# Termination codes come from the stack-wide scenario spec (the single home
# of the constants the engines share); the historical local aliases remain.
from repro.scenario.spec import (
    DEFAULT_SCENARIO,
    TERM_ABSORBED as _ABSORBED,
    TERM_CONSENSUS as _CONSENSUS,
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

#: Uniforms an endgame lane reads ahead per refill of its window (see
#: :func:`_finish_parked`): bounds the window at lanes x this many doubles.
_ENDGAME_WINDOW = 128

#: Per reaction class: its rate's column in
#: :data:`~repro.lv.params.RATE_FIELDS` order, and the count that rate
#: multiplies (0: ``x0``, 1: ``x1``, 2: ``x0 * x1``).
_CLASS_RATE = np.array([0, 0, 1, 1, 2, 3, 4, 5])
_CLASS_OPERAND = np.array([0, 1, 0, 1, 2, 2, 0, 1])

#: The move tables flattened: mechanism row ``m``, event ``e`` sits at
#: ``m * _DX0_TABLE.shape[1] + e``.
_MOVES_X0 = _DX0_TABLE.ravel()
_MOVES_X1 = _DX1_TABLE.ravel()


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

    Advances every member's replica batch by vectorized Poisson leaps and
    returns one :class:`~repro.lv.ensemble.LVEnsembleResult` per member, in
    member order.  Seed derivation matches the exact engine's contract
    (one root seed per member spawning a step and a tail stream), and
    members are simulated independently, so a member's results are
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
        the way to absorption).  The call's parked replicas finish together,
        bitwise equal to one scalar-simulator run each on their member's
        tail stream (see the module's reproducibility contract).
    collect:
        Statistics level (:data:`~repro.lv.ensemble.COLLECT_MODES`).
        Generic-scenario members honour it through
        :func:`repro.scenario.engine.run_scenario_members_tau`.  lv2
        members ignore it and always collect full statistics, because the
        tau kernel's per-leap accounting is a negligible fraction of its
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
    # lv2 members leap one after another into one set of output slots, then
    # every replica they parked finishes in one batched exact endgame.
    lv2_indexes = [
        i for i, member in enumerate(members) if member.scenario == DEFAULT_SCENARIO
    ]
    offsets = np.cumsum([0] + [members[i].num_replicates for i in lv2_indexes])
    outputs = _OutputRecord(int(offsets[-1]), leap_events=True)
    tail_generators: list[np.random.Generator] = []
    parked: list[np.ndarray] = []
    for index, offset in zip(lv2_indexes, offsets):
        step_generator, tail_generator = spawn_generators(seeds[index], 2)
        tail_generators.append(tail_generator)
        parked.append(
            _run_member_tau(
                members[index],
                outputs,
                int(offset),
                step_generator,
                epsilon,
                exact_tail_population,
            )
        )
    lv2_members = [members[i] for i in lv2_indexes]
    _finish_parked(lv2_members, outputs, tail_generators, parked)
    for index, start, stop in zip(lv2_indexes, offsets, offsets[1:]):
        results[index] = outputs.result(members[index], slice(start, stop))
    return results


def _validate_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon < 1.0:
        raise InvalidConfigurationError(
            f"tau epsilon must be in (0, 1), got {epsilon}"
        )


#: Per-replica arrays of a tau run, named alike in the working state and the
#: output record.
_FIELDS = ("x0", "x1", "total_events", "leap_events") + _ACCOUNTING


class _TauState:
    """Packed working arrays of replicas in flight, by output slot (``orig``)."""

    #: Per-replica arrays that :meth:`pack` keeps aligned.
    ARRAYS = _FIELDS + ("orig",)

    def __init__(self, member: SweepMember, offset: int):
        size = member.num_replicates
        self.orig = offset + np.arange(size)
        self.x0 = np.full(size, member.initial_state.x0, dtype=np.int64)
        self.x1 = np.full(size, member.initial_state.x1, dtype=np.int64)
        self.total_events = np.zeros(size, dtype=np.int64)
        self.leap_events = np.zeros(size, dtype=np.int64)
        self.histogram = np.zeros((size, 8), dtype=np.int64)
        self.bad_noncompetitive_events = np.zeros(size, dtype=np.int64)
        self.good_events = np.zeros(size, dtype=np.int64)
        self.noise_individual = np.zeros(size, dtype=np.int64)
        self.noise_competitive = np.zeros(size, dtype=np.int64)
        self.max_total_population = self.x0 + self.x1
        self.min_gap_seen = np.abs(self.x0 - self.x1)
        self.hit_tie = self.x0 == self.x1

    @property
    def width(self) -> int:
        return int(self.orig.size)

    def scatter(self, outputs: _OutputRecord, rows: np.ndarray) -> None:
        """Write *rows*' accumulators to their output slots."""
        where = self.orig[rows]
        for name in _FIELDS:
            getattr(outputs, name)[where] = getattr(self, name)[rows]

    def pack(self, keep: np.ndarray) -> None:
        """Drop every row not in *keep* (a sorted index array)."""
        for name in self.ARRAYS:
            setattr(self, name, getattr(self, name)[keep])


def _safe_ratio(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """``numerator / denominator`` with zero denominators mapping to +inf."""
    out = np.full(numerator.shape, np.inf)
    np.divide(numerator, denominator, out=out, where=denominator > 0)
    return out


def _run_member_tau(
    member: SweepMember,
    outputs: _OutputRecord,
    offset: int,
    step_generator: np.random.Generator,
    epsilon: float,
    exact_tail_population: int,
) -> np.ndarray:
    """Advance one member's replica batch by vectorized Poisson leaps.

    Results land in *outputs* from slot *offset* on.  Replicas that reach the
    exact tail population are parked there (their accumulators written, the
    endgame left to :func:`_finish_parked`); returns their slots in park
    order: by leap, then ascending replica index.
    """
    params = member.params
    budget = member.max_events
    mechanism_row = 1 if params.is_self_destructive else 0
    dx0 = _DX0_TABLE[mechanism_row, :8]
    dx1 = _DX1_TABLE[mechanism_row, :8]
    dx0_float = dx0.astype(np.float64)
    dx1_float = dx1.astype(np.float64)
    sign = _gap_sign(member.initial_state)
    # Highest order of any reaction consuming species i (the g_i of the
    # tau-selection rule); both species are second-order whenever any
    # pairwise competition exists.
    g0 = 2.0 if (params.alpha > 0.0 or params.gamma0 > 0.0) else 1.0
    g1 = 2.0 if (params.alpha > 0.0 or params.gamma1 > 0.0) else 1.0

    state = _TauState(member, offset)
    parked: list[np.ndarray] = []

    while state.width:
        x0, x1 = state.x0, state.x1
        # --- retirement sweep (order: consensus, budget, propensities) ---
        finished = (x0 == 0) | (x1 == 0)
        exhausted = ~finished & (state.total_events >= budget)
        if exhausted.any():
            outputs.termination_codes[state.orig[exhausted]] = _MAX_EVENTS
        retired = finished | exhausted
        if retired.any():
            state.scatter(outputs, np.nonzero(retired)[0])
            state.pack(np.nonzero(~retired)[0])
            if not state.width:
                break
            x0, x1 = state.x0, state.x1

        rows = _propensity_rows(params, x0, x1)
        total = rows.sum(axis=0)
        absorbed = total <= 0.0
        tail = ~absorbed & (x0 + x1 <= exact_tail_population)
        dropped = absorbed | tail
        if dropped.any():
            outputs.termination_codes[state.orig[absorbed]] = _ABSORBED
            parked.append(state.orig[tail])
            state.scatter(outputs, np.nonzero(dropped)[0])
            keep = np.nonzero(~dropped)[0]
            state.pack(keep)
            if not state.width:
                break
            rows = rows[:, keep]
            total = total[keep]
            x0, x1 = state.x0, state.x1

        # --- per-replica tau selection (bounded relative change) ---
        mu0 = dx0_float @ rows
        mu1 = dx1_float @ rows
        var0 = (dx0_float**2) @ rows
        var1 = (dx1_float**2) @ rows
        bound0 = np.maximum(epsilon * x0 / g0, 1.0)
        bound1 = np.maximum(epsilon * x1 / g1, 1.0)
        tau = np.minimum(
            np.minimum(
                _safe_ratio(bound0, np.abs(mu0)), _safe_ratio(bound0**2, var0)
            ),
            np.minimum(
                _safe_ratio(bound1, np.abs(mu1)), _safe_ratio(bound1**2, var1)
            ),
        )

        # --- Poisson leaps with per-replica rejection halving ---
        width = state.width
        firings = np.zeros((8, width), dtype=np.int64)
        exact_step = np.nonzero(tau * total < _MIN_EXPECTED_FIRINGS)[0]
        pending = np.nonzero(tau * total >= _MIN_EXPECTED_FIRINGS)[0]
        while pending.size:
            draw = step_generator.poisson(rows[:, pending] * tau[pending])
            delta0 = dx0 @ draw
            delta1 = dx1 @ draw
            accepted = (x0[pending] + delta0 >= 0) & (x1[pending] + delta1 >= 0)
            firings[:, pending[accepted]] = draw[:, accepted]
            pending = pending[~accepted]
            tau[pending] /= 2.0
            degenerate = tau[pending] * total[pending] < _MIN_EXPECTED_FIRINGS
            if degenerate.any():
                exact_step = np.concatenate([exact_step, pending[degenerate]])
                pending = pending[~degenerate]
        if exact_step.size:
            # Single exact-SSA steps for replicas whose leap would fire at
            # most ~one reaction, attributed to the real reaction class.
            # Thresholds scale by the *cumulative* total (not `total`, whose
            # unrolled summation can differ by 1 ulp) so the selection count
            # can never land past the last positive-propensity class.
            exact_step.sort()
            cumulative = np.cumsum(rows[:, exact_step], axis=0)
            thresholds = step_generator.random(exact_step.size) * cumulative[-1]
            event = np.minimum((cumulative <= thresholds).sum(axis=0), 7)
            firings[event, exact_step] = 1

        # --- apply the aggregate stoichiometry and account the leap ---
        delta0 = dx0 @ firings
        delta1 = dx1 @ firings
        gap_before = x0 - x1
        x0 += delta0
        x1 += delta1
        if (x0 < 0).any() or (x1 < 0).any():
            raise SimulationError("tau-leaping drove a species count negative")
        fired = firings.sum(axis=0)
        state.total_events += fired
        leap_fired = fired.copy()
        leap_fired[exact_step] = 0
        state.leap_events += leap_fired
        state.histogram += firings.T

        # Noise decomposition: exact given the firing matrix, since the gap
        # change is linear in the firings.
        gap_delta_individual = (
            firings[_BIRTH0] - firings[_BIRTH1] - firings[_DEATH0] + firings[_DEATH1]
        )
        gap_delta = delta0 - delta1
        state.noise_individual += sign * -gap_delta_individual
        state.noise_competitive += sign * -(gap_delta - gap_delta_individual)

        # Leap-granularity estimates of the per-event path statistics: the
        # current minority is resolved once per leap (see module docstring).
        minority_is_0 = gap_before < 0
        tied = gap_before == 0
        minority_births = np.where(minority_is_0, firings[_BIRTH0], firings[_BIRTH1])
        majority_deaths = np.where(minority_is_0, firings[_DEATH1], firings[_DEATH0])
        state.bad_noncompetitive_events += np.where(
            tied, 0, minority_births + majority_deaths
        )
        minority_shrinkers = np.where(
            minority_is_0,
            firings[_DEATH0] + firings[_INTRA0],
            firings[_DEATH1] + firings[_INTRA1],
        )
        interspecific = firings[_INTER0] + firings[_INTER1]
        state.good_events += np.where(tied, 0, minority_shrinkers + interspecific)

        np.maximum(state.max_total_population, x0 + x1, out=state.max_total_population)
        gap_after = x0 - x1
        np.minimum(state.min_gap_seen, np.abs(gap_after), out=state.min_gap_seen)
        state.hit_tie |= gap_after == 0

    return np.concatenate(parked) if parked else np.zeros(0, dtype=np.int64)


def _propensity_rows(params: LVParams, x0: np.ndarray, x1: np.ndarray) -> np.ndarray:
    """The eight LV reaction-class propensities, shape ``(8, width)``."""
    rows = np.zeros((8, x0.size), dtype=np.float64)
    if params.beta:
        rows[_BIRTH0] = params.beta * x0
        rows[_BIRTH1] = params.beta * x1
    if params.delta:
        rows[_DEATH0] = params.delta * x0
        rows[_DEATH1] = params.delta * x1
    if params.alpha:
        pair = (x0 * x1).astype(np.float64)
        rows[_INTER0] = params.alpha0 * pair
        rows[_INTER1] = params.alpha1 * pair
    if params.gamma0:
        rows[_INTRA0] = params.gamma0 * (x0 * (x0 - 1)) / 2.0
    if params.gamma1:
        rows[_INTRA1] = params.gamma1 * (x1 * (x1 - 1)) / 2.0
    return rows


class _EndgameLanes(_TauState):
    """Parked replicas in the exact endgame, one *lane* each, by output slot.

    Besides the accumulators, a lane carries what its scalar run reads: its
    member's index, class rates (``beta, beta, delta, delta, alpha0, alpha1,
    gamma0, gamma1``), offset into the flat moves tables and gap sign; the
    budget left at park; its block (how many lanes of its member were parked
    before it); and its row in the current uniform window.
    """

    ARRAYS = _TauState.ARRAYS + (
        "member",
        "block",
        "rates",
        "moves",
        "sign",
        "budget",
        "window_row",
    )

    def __init__(
        self,
        members: Sequence[SweepMember],
        outputs: _OutputRecord,
        parked: Sequence[np.ndarray],
    ):
        self.orig = np.concatenate(parked)
        for name in _FIELDS:
            setattr(self, name, getattr(outputs, name)[self.orig])
        sizes = [rows.size for rows in parked]
        self.member = np.repeat(np.arange(len(members)), sizes)
        self.block = np.concatenate([np.arange(size) for size in sizes])
        rates, self_destructive = LVParams.stack([member.params for member in members])
        self.rates = rates[:, _CLASS_RATE][self.member]
        self.moves = _DX0_TABLE.shape[1] * self_destructive[self.member]
        self.sign = np.array([_gap_sign(member.initial_state) for member in members])[
            self.member
        ]
        budgets = np.array([member.max_events for member in members], dtype=np.int64)
        # Positive: the leap loop retires spent replicas before it parks any.
        self.budget = budgets[self.member] - self.total_events
        self.window_row = np.zeros(self.orig.size, dtype=np.intp)

    def copy(self) -> "_EndgameLanes":
        clone = object.__new__(_EndgameLanes)
        for name in self.ARRAYS:
            setattr(clone, name, getattr(self, name).copy())
        return clone


def _finish_parked(
    members: Sequence[SweepMember],
    outputs: _OutputRecord,
    tail_generators: Sequence[np.random.Generator],
    parked: Sequence[np.ndarray],
) -> None:
    """The exact endgame: finish every parked replica of a call in lock-step.

    Bitwise equal to finishing each parked replica, in park order, with
    :func:`~repro.lv.ensemble._finish_exact_tail` (one run of the scalar
    event loop, :func:`repro.lv.simulator._event_loop`) on its member's
    tail stream (see the module's reproducibility contract).  Each live
    lane fires one event per step, reading uniform ``_UNIFORM_BUFFER *
    block + t`` through its window, and follows the scalar run: its
    propensity association, the first left-to-right partial sum above
    ``u * total`` and its exits in its order; the accounting is the
    simulator's :func:`~repro.lv.simulator._event_accounting`, in the
    member's gap sign.  Lanes still alive at ``t = _UNIFORM_BUFFER`` would
    draw a second block: their member keeps the lanes before the first of
    them and finishes the rest with that finisher, from the first one's
    block on.
    """
    if not any(rows.size for rows in parked):
        return
    lanes = _EndgameLanes(members, outputs, parked)
    state = lanes.copy()
    intraspecific = bool(state.rates[:, _INTRA0:].any())
    window = np.empty((0, _ENDGAME_WINDOW))
    window_end = t = 0

    def repacked() -> tuple[np.ndarray, np.ndarray, int]:
        """Class-major rates, each lane's first histogram cell, least budget."""
        cells = state.histogram.shape[1] * np.arange(state.width)
        return np.ascontiguousarray(state.rates.T), cells, int(state.budget.min())

    rates, cells, budget_floor = repacked()
    while state.width:
        x0, x1 = state.x0, state.x1
        operands = np.empty((3, state.width))
        operands[0] = x0
        operands[1] = x1
        operands[2] = x0 * x1
        rows = operands.take(_CLASS_OPERAND, axis=0)
        rows *= rates
        if intraspecific:
            rows[_INTRA0:] *= operands[:2] - 1.0
            rows[_INTRA0:] /= 2.0
        # Partial sums in place, row by row: the scalar run's additions, in
        # its order, so the last row is its total.
        for previous, current in zip(rows[:-1], rows[1:]):
            np.add(previous, current, out=current)
        # The scalar run's exits, in its order: consensus, budget, absorption.
        finished = operands[2] == 0.0
        done = finished | (rows[_INTRA1] <= 0.0)
        if t >= budget_floor:
            done |= state.budget <= t
        if done.any():
            codes = np.where(
                finished,
                _CONSENSUS,
                np.where(state.budget <= t, _MAX_EVENTS, _ABSORBED),
            )
            retired = np.nonzero(done)[0]
            outputs.termination_codes[state.orig[retired]] = codes[retired]
            state.scatter(outputs, retired)
            keep = np.nonzero(~done)[0]
            state.pack(keep)
            if not state.width:
                break
            rows = rows[:, keep]
            rates, cells, budget_floor = repacked()
            x0, x1 = state.x0, state.x1
        if t == _UNIFORM_BUFFER:
            break
        if t == window_end:
            # Every lane's next window of positions, one read per member.
            window = np.empty((state.width, _ENDGAME_WINDOW))
            starts = (_UNIFORM_BUFFER * state.block + t).tolist()
            edges = [0, *(np.flatnonzero(np.diff(state.member)) + 1).tolist()]
            for lo, hi in zip(edges, edges[1:] + [state.width]):
                stream_uniforms(
                    tail_generators[state.member[lo]], starts[lo:hi], window[lo:hi]
                )
            state.window_row = np.arange(state.width)
            window_end = t + _ENDGAME_WINDOW
        uniforms = window[state.window_row, t + _ENDGAME_WINDOW - window_end]
        event = (rows <= uniforms * rows[_INTRA1]).sum(axis=0)

        gap_before = x0 - x1
        moves = state.moves + event
        x0 += _MOVES_X0.take(moves)
        x1 += _MOVES_X1.take(moves)
        if x0.min() < 0 or x1.min() < 0:
            raise SimulationError("the exact endgame drove a species count negative")
        t += 1
        state.total_events += 1
        # A view: packing leaves the histogram C-contiguous.
        state.histogram.reshape(-1)[cells + event] += 1
        gap_after = x0 - x1
        noise_ind, noise_comp, bad, good = _event_accounting(
            event, gap_before, gap_after, state.sign
        )
        state.noise_individual += noise_ind
        state.noise_competitive += noise_comp
        state.bad_noncompetitive_events += bad
        state.good_events += good
        np.maximum(state.max_total_population, x0 + x1, out=state.max_total_population)
        np.minimum(state.min_gap_seen, np.abs(gap_after), out=state.min_gap_seen)
        state.hit_tie |= gap_after == 0

    # The lanes still alive would each draw a second block: from the first
    # of them on, their member's replicas go back to their park-time values
    # and finish one scalar run each.
    for index in np.unique(state.member).tolist():
        first = int(state.block[state.member == index].min())
        redo = np.nonzero((lanes.member == index) & (lanes.block >= first))[0]
        lanes.scatter(outputs, redo)
        tail_generator = tail_generators[index]
        advance_stream(tail_generator, _UNIFORM_BUFFER * first)
        _finish_exact_tail(
            members[index], outputs, tail_generator, lanes.orig[redo], full=True
        )

