"""Vectorized replica ensembles for the two-species LV jump chain.

The scalar :class:`~repro.lv.simulator.LVJumpChainSimulator` pays the full
Python interpreter cost for every single reaction event.  The experiments,
however, always run *batches* of independent replicates, so this module
advances whole batches in lock-step: one numpy-vectorized step fires one event
in every still-active replica, with blocked uniform draws and scatter updates
into per-replica accumulators.  The step's table holds only the *live*
reaction pairs (births, deaths, interspecific, intraspecific: those with a
nonzero rate somewhere in the packed batch); their propensities are summed in
place into cumulative rows, and one lookup in a per-pack moves table applies
both species' count changes.  Dropping a pair whose rate is zero everywhere
selects exactly the events the full eight-class table would (DESIGN.md,
"Lock-step step").  What changes only when a replica retires (its +inf
threshold, the members' alive tallies and draw segments, the count of
finished replicas) is updated then, not at every step, and one
:meth:`_MemberStreams.fill` call per step draws every member's uniforms.

Since the sweep-engine refactor the lock-step core is **heterogeneous**: the
rates ``beta/delta/alpha0/alpha1/gamma0/gamma1``, the competition mechanism,
the initial counts, and the event budget are per-replica quantities, so one
mega-batch can advance replicas drawn from *different* experiment
configurations simultaneously (see :class:`SweepMember` and
:func:`run_sweep_ensemble`, the engine's one entry point).  A single
configuration is a one-member batch.

The ensemble produces exactly the same per-replica event accounting as the
scalar simulator — ``I(S)`` (individual events), ``K(S)`` (competitive
events), ``J(S)`` (bad non-competitive events), the noise decomposition
``F_ind`` / ``F_comp``, the winner, and the consensus time — so a batch can be
converted replica-by-replica into :class:`~repro.lv.simulator.LVRunResult`
objects and fed through the existing estimator summaries.  Statistical
agreement with the scalar simulator is enforced by the integration tests.

Event-index convention (shared with the scalar simulator's selection order):
``0=birth0, 1=birth1, 2=death0, 3=death1, 4=inter0, 5=inter1, 6=intra0,
7=intra1``.

RNG consumption-order contract
------------------------------
Every member of a mega-batch owns its own random streams, so a member's
results are **bitwise-identical to running that member alone** — fused
execution is purely an execution strategy, never a statistical choice.
Reproducibility is guaranteed by a fixed consumption order that is
*independent of the compaction threshold, of the uniform block size, and of
which other members share the mega-batch*:

1. Each member resolves to one root seed: entry ``i`` of *member_seeds*
   when given, else the ``i``-th seed spawned from the batch-level ``rng``
   (:func:`repro.rng.spawn_seeds`).  The member's root spawns exactly two
   child streams (:func:`repro.rng.spawn_generators`): the member's
   **step stream** and **tail stream**.
2. The lock-step loop consumes each member's step stream as one flat
   sequence of uniforms: step ``t`` consumes exactly one value per replica
   of that member that is *alive* at the start of the step's draw, assigned
   in ascending original-replica-index order.  Replicas retired earlier in
   the same iteration (event budget exhausted, absorbed) consume nothing.
   Uniforms are drawn from the generator in blocks, but ``numpy``'s
   ``Generator.random`` stream is invariant under call partitioning, so the
   block size never changes which uniform a replica sees.
3. Once at most :data:`SCALAR_FINISH_WIDTH` of a member's replicas remain
   active, *that member's* survivors leave the lock-step loop — the same
   handoff point the member would reach running alone, which is what makes
   fused and solo execution bitwise interchangeable (and retires
   heavy-tailed members from the vector loop early instead of letting them
   ride along at full step cost).  After the loop they finish one by one,
   in ascending original-replica-index order, each as one run of the
   scalar event loop (:func:`repro.lv.simulator._event_loop`, the loop of
   ``LVJumpChainSimulator.run``) on the member's tail stream.  Only those
   runs read the tail stream, and a member hands off once, so finishing
   them after the loop reads the uniforms it would read at the handoff.

``tests/reference_lockstep.py`` replays this contract in plain scalar
Python, and the engine tests match it array for array.

Compaction invariants
---------------------
Active-set compaction periodically packs live replicas to the front of the
working arrays so that the per-step cost tracks the *live* count, not the
original batch width.  Packing preserves the relative order of live replicas
(hence the consumption order above), retired replicas' accumulators are
scattered to the output record exactly once (at pack time or at loop exit),
and a replica's accounting never changes after retirement — except that a
handed-off replica's slot is continued by the exact-tail finisher once the
loop has exited (step 3).  Consequently the results are bitwise-identical
for every ``compaction_fraction`` setting, which
``tests/test_lv_sweep_ensemble.py`` enforces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import InvalidConfigurationError
from repro.lv.params import LVParams
from repro.lv.simulator import (
    _ACCOUNTING,
    _DX0_TABLE,
    _DX1_TABLE,
    DEFAULT_MAX_EVENTS,
    LVRunResult,
    _event_accounting,
    _event_loop,
    _gap_sign,
    _Tally,
)
from repro.lv.state import LVState
from repro.rng import SeedLike, spawn_generators, spawn_seeds

# Low-layer rule: import only the import-light spec module here; the scenario
# registry and the generic engine are imported lazily inside functions.
from repro.scenario.spec import (
    DEFAULT_SCENARIO,
    TERM_ABSORBED,
    TERM_CONSENSUS,
    TERM_MAX_EVENTS,
    TERMINATION_NAMES,
)

__all__ = [
    "LVEnsembleResult",
    "SweepMember",
    "run_sweep_ensemble",
    "DEFAULT_COMPACTION_FRACTION",
    "SCALAR_FINISH_WIDTH",
]

#: Termination codes used in the result arrays (the stack-wide constants of
#: :mod:`repro.scenario.spec`, re-exported under the historical local names).
_CONSENSUS, _ABSORBED, _MAX_EVENTS = TERM_CONSENSUS, TERM_ABSORBED, TERM_MAX_EVENTS
_TERMINATION_NAMES = TERMINATION_NAMES

#: Event indices: births, deaths, interspecific, intraspecific.
_BIRTH0, _BIRTH1, _DEATH0, _DEATH1, _INTER0, _INTER1, _INTRA0, _INTRA1 = range(8)
#: The no-op sentinel event (column 8 of the simulator's move and good
#: tables).
_NO_OP = 8

#: Once at most this many of a member's replicas remain active, the lock-step
#: loop hands them to the scalar event loop: a vectorized step costs about
#: the same regardless of width, so the long tail of the consensus-time
#: distribution is cheaper to finish with the plain Python event loop.  The
#: value is part of the consumption-order contract above, so changing it
#: changes results.
SCALAR_FINISH_WIDTH = 8

#: Minimum number of uniforms drawn per member per RNG call (amortises the
#: per-call generator overhead across lock-step iterations).  Results are
#: independent of this value; see the consumption-order contract in the
#: module docstring.
_UNIFORM_BLOCK = 16384

#: Pack the live replicas to the front whenever at least this fraction of the
#: current working width has retired.  ``None`` disables compaction (the
#: pre-sweep-engine behaviour: full original width until the scalar tail).
DEFAULT_COMPACTION_FRACTION = 0.25

#: Below this working width compaction is skipped: the scalar tail takes over
#: at :data:`SCALAR_FINISH_WIDTH` anyway, so repacking tiny arrays only adds
#: slicing overhead.
_MIN_COMPACTION_WIDTH = 32

#: Statistics collection levels of the lock-step core.  ``"full"`` produces
#: the scalar simulator's complete per-replica accounting; ``"win"`` only
#: tracks what win-probability/consensus-time summaries read (final counts,
#: event totals, termination), skipping roughly half the per-step vector
#: work — the right mode for threshold probes, whose other statistics are
#: never consumed.  Both modes follow identical trajectories (the skipped
#: work is pure observation).
COLLECT_MODES = ("full", "win")


@dataclass(frozen=True)
class SweepMember:
    """One configuration's slice of a heterogeneous mega-batch.

    A mega-batch is described by an ordered list of members; member ``i``
    occupies the next ``num_replicates`` replica slots, and
    :func:`run_sweep_ensemble` demultiplexes the lock-step arrays back into
    one :class:`LVEnsembleResult` per member in the same order.

    *scenario* names the registered family the member runs under
    (:mod:`repro.scenario.registry`).  The default ``"lv2"`` keeps the
    specialised two-species lock-step core on the exact backend
    (``initial_state`` is coerced to :class:`~repro.lv.state.LVState`); any
    other family routes the member to the generic scenario engine and
    stores ``initial_state`` as a validated per-species counts tuple.  The
    tau backend runs every family, ``lv2`` included, on the generic engine.
    """

    params: LVParams
    initial_state: LVState | tuple[int, ...]
    num_replicates: int
    max_events: int = DEFAULT_MAX_EVENTS
    scenario: str = DEFAULT_SCENARIO

    def __post_init__(self) -> None:
        from repro.scenario.registry import scenario_initial_state

        object.__setattr__(
            self, "initial_state", scenario_initial_state(self.scenario, self.initial_state)
        )
        if self.num_replicates <= 0:
            raise InvalidConfigurationError(
                f"num_replicates must be positive, got {self.num_replicates}"
            )
        if self.max_events <= 0:
            raise InvalidConfigurationError(
                f"max_events must be positive, got {self.max_events}"
            )


#: The per-replica arrays every :class:`LVEnsembleResult` carries, in
#: declaration order: what :meth:`LVEnsembleResult.concatenate` joins, the
#: engines' output record builds and the store serialises.
_ARRAY_FIELDS = (
    "final_x0",
    "final_x1",
    "total_events",
    "termination_codes",
    "births",
    "deaths",
    "interspecific_events",
    "intraspecific_events",
    "bad_noncompetitive_events",
    "good_events",
    "noise_individual",
    "noise_competitive",
    "max_total_population",
    "min_gap_seen",
    "hit_tie",
)


@dataclass
class LVEnsembleResult:
    """Per-replica arrays of a lock-step ensemble run.

    Every attribute is an array of length ``num_replicates`` (or
    ``(num_replicates, 2)`` for per-species counters), indexed by replica.
    The scalar-simulator notation carries over: ``total_events`` is ``T(S)``
    for replicas that reached consensus, ``bad_noncompetitive_events`` is
    ``J(S)``, and ``noise_individual`` / ``noise_competitive`` are the
    components of ``F = F_ind + F_comp``.
    """

    params: LVParams
    initial_state: LVState
    final_x0: np.ndarray
    final_x1: np.ndarray
    total_events: np.ndarray
    termination_codes: np.ndarray
    births: np.ndarray  # (R, 2)
    deaths: np.ndarray  # (R, 2)
    interspecific_events: np.ndarray
    intraspecific_events: np.ndarray  # (R, 2)
    bad_noncompetitive_events: np.ndarray
    good_events: np.ndarray
    noise_individual: np.ndarray
    noise_competitive: np.ndarray
    max_total_population: np.ndarray
    min_gap_seen: np.ndarray
    hit_tie: np.ndarray
    #: Per-replica count of events executed as *estimated* tau-leap firings
    #: (the remainder of ``total_events`` was simulated exactly).  ``None``
    #: for ensembles produced by the exact lock-step engine; populated by the
    #: tau-leaping backend (:mod:`repro.lv.tau`) so schedulers can meter
    #: approximate and exact work separately.
    leap_events: np.ndarray | None = None
    #: Registered scenario family this ensemble ran under.  ``"lv2"``
    #: ensembles carry the two-species accounting above; generic ensembles
    #: additionally populate ``finals`` / ``initial_counts``.
    scenario: str = DEFAULT_SCENARIO
    #: Full ``(R, S)`` final per-species counts for generic-scenario
    #: ensembles (``None`` for the two-species default, whose finals are the
    #: ``final_x0`` / ``final_x1`` columns).  Columns follow the scenario's
    #: species order; the first two double as ``final_x0`` / ``final_x1``.
    finals: np.ndarray | None = None
    #: Initial per-species counts for generic-scenario ensembles (``None``
    #: for the two-species default, which uses ``initial_state``).
    initial_counts: tuple[int, ...] | None = None

    # ------------------------------------------------------------------
    # Aggregate views
    # ------------------------------------------------------------------
    @property
    def num_replicates(self) -> int:
        return int(self.total_events.size)

    def __len__(self) -> int:
        return self.num_replicates

    def _opinion_counts(self) -> np.ndarray:
        """``(R, K)`` final counts of the scenario's opinion species."""
        from repro.scenario.registry import build_scenario

        opinion = build_scenario(self.scenario, self.params).opinion_index
        return self.finals[:, opinion]

    @property
    def reached_consensus(self) -> np.ndarray:
        """Boolean mask: replica ended with exactly one opinion surviving.

        For the two-species default this is "at least one species extinct"
        (the historical definition, which also counts dead heats); generic
        scenarios read the spec's consensus predicate over the opinion
        species.
        """
        if self.finals is not None:
            return (self._opinion_counts() > 0).sum(axis=1) <= 1
        return (self.final_x0 == 0) | (self.final_x1 == 0)

    @property
    def winners(self) -> np.ndarray:
        """Winning opinion per replica, or -1 (no winner / no consensus)."""
        if self.finals is not None:
            positive = self._opinion_counts() > 0
            winners = np.full(self.num_replicates, -1, dtype=np.int64)
            consensus = positive.sum(axis=1) == 1
            winners[consensus] = positive[consensus].argmax(axis=1)
            return winners
        winners = np.full(self.num_replicates, -1, dtype=np.int64)
        winners[(self.final_x1 == 0) & (self.final_x0 > 0)] = 0
        winners[(self.final_x0 == 0) & (self.final_x1 > 0)] = 1
        return winners

    @property
    def majority_consensus(self) -> np.ndarray:
        """Boolean mask: the initial majority opinion is the sole survivor."""
        if self.finals is not None:
            from repro.scenario.registry import build_scenario

            opinion = build_scenario(self.scenario, self.params).opinion_index
            initial = np.asarray(self.initial_counts, dtype=np.int64)[opinion]
            reference = int(initial.argmax())
            return self.winners == reference
        majority = self.initial_state.majority_species
        reference = 0 if majority is None else majority
        return self.winners == reference

    @property
    def consensus_times(self) -> np.ndarray:
        """``T(S)`` for replicas that reached consensus (float, NaN otherwise)."""
        times = np.where(self.reached_consensus, self.total_events, np.nan)
        return times.astype(float)

    @property
    def dead_heat(self) -> np.ndarray:
        """Boolean mask: every opinion extinct simultaneously."""
        if self.finals is not None:
            return (self._opinion_counts() == 0).all(axis=1)
        return (self.final_x0 == 0) & (self.final_x1 == 0)

    @property
    def individual_events(self) -> np.ndarray:
        """``I(S)`` per replica: births plus deaths (mirrors ``LVRunResult``)."""
        return self.births.sum(axis=1) + self.deaths.sum(axis=1)

    @property
    def competitive_events(self) -> np.ndarray:
        """``K(S)`` per replica: inter- plus intraspecific competition events."""
        return self.interspecific_events + self.intraspecific_events.sum(axis=1)

    def termination_counts(self) -> dict[str, int]:
        """How many replicas ended with each termination reason."""
        counts: dict[str, int] = {}
        for code, name in enumerate(_TERMINATION_NAMES):
            tally = int(np.count_nonzero(self.termination_codes == code))
            if tally:
                counts[name] = tally
        return counts

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------
    @classmethod
    def concatenate(cls, results: "list[LVEnsembleResult]") -> "LVEnsembleResult":
        """Merge ensembles of the same system into one (replica order kept).

        Used by the replica scheduler to combine independently-seeded batches
        into a single result without materialising per-replica objects.
        """
        if not results:
            raise InvalidConfigurationError("cannot concatenate an empty list of ensembles")
        first = results[0]
        if len(results) == 1:
            return first
        for other in results[1:]:
            if (
                other.params != first.params
                or other.initial_state != first.initial_state
                or other.scenario != first.scenario
                or other.initial_counts != first.initial_counts
            ):
                raise InvalidConfigurationError(
                    "can only concatenate ensembles with identical parameters, "
                    "scenario, and initial state"
                )
        return cls(
            params=first.params,
            initial_state=first.initial_state,
            leap_events=(
                None
                if all(r.leap_events is None for r in results)
                # Exact chunks of a mixed-backend merge contribute zero
                # leap-estimated events.
                else np.concatenate(
                    [
                        r.leap_events
                        if r.leap_events is not None
                        else np.zeros_like(r.total_events)
                        for r in results
                    ]
                )
            ),
            scenario=first.scenario,
            finals=(
                None
                if first.finals is None
                else np.concatenate([r.finals for r in results])
            ),
            initial_counts=first.initial_counts,
            **{
                name: np.concatenate([getattr(r, name) for r in results])
                for name in _ARRAY_FIELDS
            },
        )

    # ------------------------------------------------------------------
    # Interop with the scalar stack
    # ------------------------------------------------------------------
    def to_run_results(self) -> list[LVRunResult]:
        """Materialise one :class:`LVRunResult` per replica.

        The results carry the exact accounting of the lock-step run and are
        interchangeable with scalar-simulator results everywhere summaries
        are computed (e.g. :func:`repro.consensus.estimator.summarise_runs`).
        """
        if self.finals is not None:
            raise InvalidConfigurationError(
                "LVRunResult projection is specific to the two-species default "
                f"scenario; ensemble ran scenario {self.scenario!r} — read the "
                "ensemble arrays (finals, termination_codes) directly"
            )
        majority = self.initial_state.majority_species
        reference = 0 if majority is None else majority
        results: list[LVRunResult] = []
        for i in range(self.num_replicates):
            final_state = LVState(int(self.final_x0[i]), int(self.final_x1[i]))
            reached = final_state.has_consensus
            winner = final_state.winner
            termination = (
                "consensus" if reached else _TERMINATION_NAMES[self.termination_codes[i]]
            )
            results.append(
                LVRunResult(
                    params=self.params,
                    initial_state=self.initial_state,
                    final_state=final_state,
                    total_events=int(self.total_events[i]),
                    termination=termination,
                    reached_consensus=reached,
                    winner=winner,
                    majority_consensus=bool(
                        reached and winner is not None and winner == reference
                    ),
                    births=(int(self.births[i, 0]), int(self.births[i, 1])),
                    deaths=(int(self.deaths[i, 0]), int(self.deaths[i, 1])),
                    interspecific_events=int(self.interspecific_events[i]),
                    intraspecific_events=(
                        int(self.intraspecific_events[i, 0]),
                        int(self.intraspecific_events[i, 1]),
                    ),
                    bad_noncompetitive_events=int(self.bad_noncompetitive_events[i]),
                    good_events=int(self.good_events[i]),
                    noise_individual=int(self.noise_individual[i]),
                    noise_competitive=int(self.noise_competitive[i]),
                    max_total_population=int(self.max_total_population[i]),
                    min_gap_seen=int(self.min_gap_seen[i]),
                    hit_tie=bool(self.hit_tie[i]),
                )
            )
        return results


class _MemberStreams:
    """Per-member generator pairs and blocked uniform draws from one of them.

    Stream derivation follows the module docstring's consumption-order
    contract: each member seed spawns a (step, tail) generator pair, and
    :meth:`fill` reads one stream of each member through a per-member block
    buffer.  That stream is fixed when the streams are built: the step
    stream, for both exact engines, or the tail stream, for the tau
    backend's parked replicas (*tail*), whose leaps draw from the step
    generators directly.  lv2's exact engine hands each member's tail
    stream untouched to the exact-tail finisher.
    """

    def __init__(self, member_seeds: Sequence[int], *, tail: bool = False):
        self.step_generators: list[np.random.Generator] = []
        self.tail_generators: list[np.random.Generator] = []
        for seed in member_seeds:
            step, tail_generator = spawn_generators(seed, 2)
            self.step_generators.append(step)
            self.tail_generators.append(tail_generator)
        self._tail = tail
        self._buffers = [np.empty(0) for _ in member_seeds]
        self._cursors = [0] * len(member_seeds)

    def fill(self, segments: Sequence[tuple[int, int]], out: np.ndarray) -> np.ndarray:
        """The next uniforms of each ``(member, count)`` segment, in order.

        Segment ``k`` takes the next ``count`` uniforms of its member's
        stream; they are written to *out* one segment after another, and the
        filled prefix of *out* is returned.
        """
        buffers, cursors = self._buffers, self._cursors
        offset = 0
        for member, count in segments:
            buffer = buffers[member]
            cursor = cursors[member]
            if buffer.size - cursor < count:
                block = max(_UNIFORM_BLOCK, count)
                if self._tail:
                    drawn = self.tail_generators[member].random(block)
                else:
                    drawn = self.step_generators[member].random(block)
                buffer = np.concatenate([buffer[cursor:], drawn])
                buffers[member] = buffer
                cursor = 0
            cursors[member] = cursor + count
            out[offset : offset + count] = buffer[cursor : cursor + count]
            offset += count
        return out[:offset]


class _LockstepState:
    """Packed working arrays of a heterogeneous lock-step run.

    All arrays have the current working width ``W``; ``orig`` maps packed
    position to output slot and is strictly increasing, so packed order
    always equals ascending original-replica order within each member (the
    property the RNG consumption contract relies on).  Both species' counts
    live in one ``(2, W)`` array, ``counts``; ``x0`` and ``x1`` are its row
    views, rebound on every pack.  The six rates ``beta, delta, alpha0,
    alpha1, gamma0, gamma1`` are the rows of one ``(6, W)`` array, ``rates``.
    At the ``"full"`` level the state also carries the gap sign and the
    accounting accumulators, the simulator's
    :data:`~repro.lv.simulator._ACCOUNTING`; they are scattered (with the
    counts) to the output record when a packed row is dropped (at
    compaction) or when the loop exits.  At ``"win"`` it carries none of
    them, and only the counts are scattered.
    """

    #: Per-replica rows sliced on pack besides ``counts`` and ``rates``
    #: (sliced by column); the accumulators join them at ``"full"``.
    SLICED = ("orig", "member", "sd", "max_events", "absorbable", "alive")

    def __init__(self, members: Sequence[SweepMember], outputs: "_OutputRecord", full: bool):
        """One row per slot of *outputs*, from its member's initial state."""
        member_of = outputs.member
        rates, sd_flags = LVParams.stack([m.params for m in members])
        # Absorption (zero total propensity with both species alive) is only
        # possible in the intraspecific-only regime stuck at (1, 1): births,
        # deaths, and interspecific competition each guarantee a positive
        # propensity whenever both counts are positive.
        absorbable = np.array(
            [m.params.theta == 0.0 and m.params.alpha == 0.0 for m in members],
            dtype=bool,
        )
        budgets = np.array([m.max_events for m in members], dtype=np.int64)

        self.full = full
        self.orig = np.arange(member_of.size)
        self.member = member_of
        self.counts = np.stack((outputs.x0, outputs.x1))
        self.x0, self.x1 = self.counts
        self.rates = rates.T.take(member_of, axis=1)
        self.sd = sd_flags[member_of]
        self.max_events = budgets[member_of]
        self.absorbable = absorbable[member_of]
        self.alive = (self.x0 > 0) & (self.x1 > 0)
        self.sliced = self.SLICED
        if full:
            self.sliced += ("sign",) + _ACCOUNTING
            signs = np.array([_gap_sign(m.initial_state) for m in members], dtype=np.int64)
            self.sign = signs[member_of]
            # Column 8 collects the retired replicas' no-op events and is
            # discarded when scattering to the output record.
            self.histogram = np.zeros((member_of.size, 9), dtype=np.int64)
            for name in _ACCOUNTING[1:]:
                setattr(self, name, getattr(outputs, name).copy())

    @property
    def width(self) -> int:
        return int(self.orig.size)

    def pack(self, outputs: "_OutputRecord") -> None:
        """Drop retired rows (scattering their accumulators) and keep order."""
        keep = np.nonzero(self.alive)[0]
        drop = np.nonzero(~self.alive)[0]
        if drop.size:
            outputs.scatter(self, drop)
        for name in self.sliced:
            setattr(self, name, getattr(self, name)[keep])
        self.counts = self.counts[:, keep]
        self.x0, self.x1 = self.counts
        self.rates = self.rates[:, keep]

    def flush(self, outputs: "_OutputRecord") -> None:
        """Scatter every remaining packed row to the output record."""
        outputs.scatter(self, np.arange(self.width))


class _StepTables:
    """Per-pack tables and scratch of the lock-step step.

    Everything that depends on the packed width or on the (immutable between
    packs) per-replica parameter arrays lives here, built at loop entry and
    again after every pack, so the two can never drift apart:

    * ``rows`` — one ``(K, W)`` table for the classes of the live reaction
      pairs (births, deaths, interspecific, intraspecific: each kept when
      some packed replica has a nonzero rate in it), filled by ``products``
      and ``intra`` and summed in place by ``sums``; ``total`` is its last
      row.  Births and deaths are one broadcast product of their rate rows
      and both counts;
    * ``event_map``, ``moves`` and ``column_offset`` — the event index and
      both species' count changes of each selectable class, with the no-op
      sentinel last (``chosen == K``).  A batch of one mechanism has a
      ``(2, K + 1)`` moves table and no offset; a mixed batch has one column
      block per mechanism, and ``column_offset`` (``sd * (K + 1)``) picks a
      replica's;
    * ``float_counts`` and ``pair`` — a float copy of the counts and the
      product of its rows (``pair_factors``), refreshed here and after every
      step's moves (the finish test reads ``pair``) and reused by the next
      step's propensities.  Retired rows may hold stale values there, which
      the sentinel event renders harmless; ``known_zeros`` counts the zero
      pair products of retired rows, so the finish test only looks for its
      rows when there are more;
    * ``threshold`` — a retired row's is +inf, set once when it retires,
      which steers it to the no-op sentinel event, so no per-step masking
      is needed; ``below`` and ``chosen`` are the selection's buffers;
    * ``min_budget`` — the event-budget check is skipped entirely until the
      smallest budget in the batch can possibly be reached.

    Dropping a dead pair leaves every selection unchanged: its rows would be
    +0.0 for every replica (DESIGN.md, "Lock-step step").
    """

    def __init__(self, state: _LockstepState):
        self.width = width = state.width
        self.float_counts = float_counts = state.counts.astype(np.float64)
        self.pair_factors = (float_counts[0], float_counts[1])
        self.pair = np.multiply(*self.pair_factors)
        rates = state.rates
        live = rates.any(axis=1).tolist()
        individual = [pair for pair in (0, 1) if live[pair]]  # births, deaths
        inter_live = live[2] or live[3]
        intra_live = live[4] or live[5]
        num_classes = 2 * (len(individual) + inter_live + intra_live)
        self.rows = rows = np.empty((num_classes, width))
        # Event indices 0-3 are birth0, birth1, death0, death1.
        classes = [2 * pair + species for pair in individual for species in (0, 1)]
        self.products = []
        if individual:
            lo, hi = individual[0], individual[-1] + 1
            self.products.append(
                (rates[lo:hi, None], float_counts, rows[: len(classes)].reshape(hi - lo, 2, width))
            )
        if inter_live:
            self.products.append((rates[2:4], self.pair, rows[len(classes) : len(classes) + 2]))
            classes += [_INTER0, _INTER1]
        self.intra = None
        if intra_live:
            self.intra = (rates[4:6], rows[-2:])
            classes += [_INTRA0, _INTRA1]
        self.sums = [(rows[index - 1], rows[index]) for index in range(1, num_classes)]
        self.total = rows[-1]
        self.event_map = event_map = np.array(classes + [_NO_OP])
        sd = state.sd
        self.column_offset = None
        if sd.all() or not sd.any():
            mechanism = int(sd[0]) if width else 0
            self.moves = np.stack((_DX0_TABLE[mechanism, event_map], _DX1_TABLE[mechanism, event_map]))
        else:
            self.moves = np.stack(
                (_DX0_TABLE[:, event_map].ravel(), _DX1_TABLE[:, event_map].ravel())
            )
            self.column_offset = (sd * (num_classes + 1)).astype(np.uint8)
        self.known_zeros = width - np.count_nonzero(self.pair)
        self.threshold = np.full(width, np.inf)
        self.below = np.empty((num_classes, width), dtype=bool)
        self.chosen = np.empty(width, dtype=np.uint8)
        self.row_index = np.arange(width)
        self.min_budget = int(state.max_events.min())


class _OutputRecord:
    """Result arrays of a call's lv2 replicas, one slot per replica.

    The lock-step loop and the exact-tail finisher write here: members own
    consecutive slot ranges, in member order, and ``member`` names each
    slot's.  Besides the counts ``x0`` / ``x1``, the arrays are named as the
    result fields they become: ``total_events``, ``termination_codes`` and
    the :data:`~repro.lv.simulator._ACCOUNTING` accumulators, whose
    ``histogram`` holds the events per index.  Every slot starts at its
    member's initial state, with no events; the finisher continues slots in
    place, and :meth:`results` is the one result builder.
    """

    def __init__(self, members: Sequence[SweepMember]):
        sizes = [m.num_replicates for m in members]
        self.member = np.repeat(np.arange(len(members)), sizes)
        size = self.member.size
        self.x0 = np.array([m.initial_state.x0 for m in members], dtype=np.int64)[self.member]
        self.x1 = np.array([m.initial_state.x1 for m in members], dtype=np.int64)[self.member]
        self.total_events = np.zeros(size, dtype=np.int64)
        self.termination_codes = np.full(size, _CONSENSUS, dtype=np.int8)
        self.histogram = np.zeros((size, 8), dtype=np.int64)
        self.bad_noncompetitive_events = np.zeros(size, dtype=np.int64)
        self.good_events = np.zeros(size, dtype=np.int64)
        self.noise_individual = np.zeros(size, dtype=np.int64)
        self.noise_competitive = np.zeros(size, dtype=np.int64)
        self.max_total_population = self.x0 + self.x1
        self.min_gap_seen = np.abs(self.x0 - self.x1)
        self.hit_tie = self.x0 == self.x1

    def scatter(self, state: _LockstepState, rows: np.ndarray) -> None:
        """Write the counts (and, at ``"full"``, the accumulators) of packed *rows*."""
        where = state.orig[rows]
        self.x0[where] = state.x0[rows]
        self.x1[where] = state.x1[rows]
        if not state.full:
            return
        # The working histogram's column 8 is the no-op sentinel's.
        self.histogram[where] = state.histogram[rows, :8]
        for name in _ACCOUNTING[1:]:
            getattr(self, name)[where] = getattr(state, name)[rows]

    def results(self, members: Sequence[SweepMember]) -> list[LVEnsembleResult]:
        """Demultiplex the slots into one ensemble result per member, in order."""
        offsets = np.cumsum([0] + [member.num_replicates for member in members]).tolist()
        results = []
        for member, start, stop in zip(members, offsets, offsets[1:]):
            slots = slice(start, stop)
            histogram = self.histogram[slots]
            derived = {
                "final_x0": self.x0[slots],
                "final_x1": self.x1[slots],
                "births": histogram[:, _BIRTH0 : _BIRTH1 + 1].copy(),
                "deaths": histogram[:, _DEATH0 : _DEATH1 + 1].copy(),
                "interspecific_events": histogram[:, _INTER0] + histogram[:, _INTER1],
                "intraspecific_events": histogram[:, _INTRA0 : _INTRA1 + 1].copy(),
            }
            results.append(
                LVEnsembleResult(
                    params=member.params,
                    initial_state=member.initial_state,
                    **{
                        name: derived[name] if name in derived else getattr(self, name)[slots]
                        for name in _ARRAY_FIELDS
                    },
                )
            )
        return results


def run_sweep_ensemble(
    members: Sequence[SweepMember],
    *,
    rng: SeedLike = None,
    member_seeds: Sequence[SeedLike] | None = None,
    compaction_fraction: float | None = DEFAULT_COMPACTION_FRACTION,
    collect: str = "full",
) -> list[LVEnsembleResult]:
    """Advance a heterogeneous mega-batch in lock-step and demultiplex it.

    Parameters
    ----------
    members:
        Ordered configuration slices; the mega-batch width is the sum of the
        members' replicate counts.  Members may differ in every parameter,
        in the initial state, and in the event budget.
    rng:
        Batch-level root seed, used only when *member_seeds* is not given:
        member ``i`` then receives the ``i``-th seed spawned from it.  See
        the module docstring for the consumption-order contract.
    member_seeds:
        One root seed per member.  Member ``i``'s results are then
        bitwise-identical to ``run_sweep_ensemble([members[i]],
        rng=member_seeds[i])`` — i.e. to running the member alone — no
        matter which members share the mega-batch.  This is the hook the
        experiment schedulers use to make fused sweeps bit-reproducible
        per configuration.
    compaction_fraction:
        Pack live replicas to the front whenever at least this fraction of
        the working width has retired; ``None`` disables compaction.  Results
        are bitwise-independent of this knob (it only trades memory traffic
        against per-step width).
    collect:
        Statistics level (:data:`COLLECT_MODES`).  ``"full"`` (default)
        produces the scalar simulator's complete per-replica accounting;
        ``"win"`` tracks only final counts, event totals, and termination —
        about half the per-step vector work, and no accounting at all in
        the scalar tail.  The other result arrays then keep their initial
        values: zero event counts and noise, and ``max_total_population``,
        ``min_gap_seen`` and ``hit_tie`` of the initial state.
        Trajectories, and therefore win probabilities and consensus times,
        are identical in both modes.

    Returns
    -------
    list[LVEnsembleResult]
        One result per member, in member order; member ``i``'s replicas are
        the rows ``sum(sizes[:i]) : sum(sizes[:i+1])`` of the mega-batch.

    Examples
    --------
    >>> sd = LVParams.self_destructive(beta=1.0, delta=1.0, alpha=1.0)
    >>> nsd = LVParams.non_self_destructive(beta=1.0, delta=1.0, alpha=1.0)
    >>> results = run_sweep_ensemble(
    ...     [SweepMember(sd, LVState(40, 20), 16), SweepMember(nsd, LVState(30, 10), 8)],
    ...     rng=7,
    ... )
    >>> [r.num_replicates for r in results]
    [16, 8]
    """
    members = list(members)
    if compaction_fraction is not None and not 0.0 < compaction_fraction <= 1.0:
        raise InvalidConfigurationError(
            f"compaction_fraction must be in (0, 1] or None, got {compaction_fraction}"
        )
    seeds = _member_root_seeds(members, rng, member_seeds, collect)

    # Non-default scenario members route to the generic scenario engine with
    # their already-derived root seeds (same derivation as above, so generic
    # members keep the fused == solo bitwise contract too); the two-species
    # default keeps the specialised lock-step core below, untouched.
    generic_indexes = [
        i for i, member in enumerate(members) if member.scenario != DEFAULT_SCENARIO
    ]
    if generic_indexes:
        from repro.scenario.engine import run_scenario_members

        generic_results = run_scenario_members(
            [members[i] for i in generic_indexes],
            [seeds[i] for i in generic_indexes],
            collect=collect,
        )
        merged: list[LVEnsembleResult | None] = [None] * len(members)
        for index, result in zip(generic_indexes, generic_results):
            merged[index] = result
        lv2_indexes = [
            i for i, member in enumerate(members) if member.scenario == DEFAULT_SCENARIO
        ]
        if lv2_indexes:
            lv2_results = _run_lv2_members(
                [members[i] for i in lv2_indexes],
                [seeds[i] for i in lv2_indexes],
                compaction_fraction=compaction_fraction,
                collect=collect,
            )
            for index, result in zip(lv2_indexes, lv2_results):
                merged[index] = result
        return merged
    return _run_lv2_members(
        members,
        seeds,
        compaction_fraction=compaction_fraction,
        collect=collect,
    )


def _member_root_seeds(
    members: Sequence[SweepMember],
    rng: SeedLike,
    member_seeds: Sequence[SeedLike] | None,
    collect: str,
) -> list[int]:
    """Check a call of either backend's entry point; each member's root seed.

    Member ``i``'s root is the ``i``-th seed spawned from *rng*, or one spawn
    from ``member_seeds[i]``: the derivation a one-member call applies to its
    *rng*, which is what makes fused and solo runs bitwise equal (the module
    docstring's contract, step 1).
    """
    if not members:
        raise InvalidConfigurationError("an ensemble call needs at least one member")
    if collect not in COLLECT_MODES:
        raise InvalidConfigurationError(
            f"collect must be one of {COLLECT_MODES}, got {collect!r}"
        )
    if member_seeds is None:
        return list(spawn_seeds(rng, len(members)))
    if len(member_seeds) != len(members):
        raise InvalidConfigurationError(
            f"got {len(member_seeds)} member seeds for {len(members)} members"
        )
    return [spawn_seeds(seed, 1)[0] for seed in member_seeds]


def _run_lv2_members(
    members: Sequence[SweepMember],
    seeds: Sequence[int],
    *,
    compaction_fraction: float | None,
    collect: str,
) -> list[LVEnsembleResult]:
    """The specialised two-species lock-step path of :func:`run_sweep_ensemble`.

    *seeds* are the per-member root seeds (already derived), each spawning
    the member's step/tail stream pair in :class:`_MemberStreams`.  The
    lock-step loop reads each member's step stream; the survivors a member
    hands off finish on its untouched tail stream through
    :func:`_finish_exact_tail`, after the loop.
    """
    full = collect == "full"
    outputs = _OutputRecord(members)
    streams = _MemberStreams(seeds)
    state = _LockstepState(members, outputs, full)
    handoffs = _advance_lockstep(
        len(members), state, outputs, streams, compaction_fraction, full
    )
    state.flush(outputs)
    # After the flush, so no pack or flush overwrites the finished slots.
    for member_index, handed in handoffs:
        _finish_exact_tail(
            members[member_index],
            outputs,
            streams.tail_generators[member_index],
            handed,
            full,
        )
    return outputs.results(members)


def _advance_lockstep(
    num_members: int,
    state: _LockstepState,
    outputs: _OutputRecord,
    streams: _MemberStreams,
    compaction_fraction: float | None,
    collect_stats: bool,
) -> list[tuple[int, np.ndarray]]:
    """The heterogeneous lock-step loop (see the module docstring contracts).

    Returns the handoffs, ``(member index, slots)`` in handoff order: the
    slots of each thin member's survivors, ascending, whose ``total_events``
    hold the handoff step.
    """
    handoffs: list[tuple[int, np.ndarray]] = []
    any_absorbable = bool(state.absorbable.any())

    # Per-member alive tallies and the uniform-draw segments derived from
    # them, as Python lists.  Alive replicas, taken in ascending
    # original-replica-index order, are grouped contiguously by member
    # (planning lays members out contiguously and packing preserves order),
    # so the ``(member, count)`` segments of the members with alive replicas,
    # in member order, describe exactly how one step's per-member uniform
    # draws concatenate into the flat per-alive-replica sequence.  A
    # retirement clears ``segments``; they are rebuilt when next read.
    alive_counts = np.bincount(state.member[state.alive], minlength=num_members).tolist()
    num_alive = sum(alive_counts)
    segments: list[tuple[int, int]] | None = None
    min_alive = 0
    # Scratch for the per-step concatenation of per-member uniform draws
    # (the packed width only ever shrinks, so the initial width suffices).
    drawn_scratch = np.empty(state.width)

    tables = _StepTables(state)
    # ``alive`` only changes on retirement steps, so its gather is cached
    # between them.
    alive_idx = np.nonzero(state.alive)[0]

    def rebuild_segments() -> None:
        nonlocal segments, min_alive
        segments = [(index, count) for index, count in enumerate(alive_counts) if count]
        min_alive = min(count for _, count in segments) if segments else 0

    def retire(mask: np.ndarray, code: int | None = None) -> np.ndarray:
        """Retire *mask*'s rows (a packed boolean mask) at this step; their slots.

        Each slot's ``total_events`` becomes the step index and, given a
        *code*, its termination code; the row's threshold becomes +inf.
        """
        nonlocal num_alive, segments, alive_idx
        rows = np.nonzero(mask)[0]
        slots = state.orig[rows]
        outputs.total_events[slots] = step
        if code is not None:
            outputs.termination_codes[slots] = code
        state.alive[rows] = False
        tables.threshold[rows] = np.inf
        for member_index in state.member[rows].tolist():
            alive_counts[member_index] -= 1
        num_alive -= rows.size
        segments = None
        alive_idx = np.nonzero(state.alive)[0]
        return slots

    # Every alive replica fires exactly one event per lock-step iteration, so
    # a replica's events in the loop at retirement equal the step index.
    step = 0
    while num_alive > 0:
        if segments is None:
            rebuild_segments()
        if min_alive <= SCALAR_FINISH_WIDTH:
            # The per-step numpy dispatch cost is width-independent, so a
            # member's thin active set is cheaper to finish with the scalar
            # loop — at the same per-member count the member would hand off
            # at running alone (the bitwise-equivalence contract).
            for member_index, count in segments:
                if count <= SCALAR_FINISH_WIDTH:
                    thin = state.alive & (state.member == member_index)
                    handoffs.append((member_index, retire(thin)))
            if num_alive == 0:
                break
            rebuild_segments()

        if step >= tables.min_budget:
            exhausted = state.alive & (state.max_events <= step)
            if exhausted.any():
                retire(exhausted, _MAX_EVENTS)
                continue

        if (
            compaction_fraction is not None
            and tables.width >= _MIN_COMPACTION_WIDTH
            and tables.width - num_alive >= compaction_fraction * tables.width
        ):
            state.pack(outputs)
            tables = _StepTables(state)
            alive_idx = np.nonzero(state.alive)[0]

        counts, x0, x1 = state.counts, state.x0, state.x1
        total, threshold = tables.total, tables.threshold
        # Propensities of the live reaction classes, full working width;
        # retired rows produce garbage values that the sentinel event below
        # renders harmless.
        for rates, operand, out in tables.products:
            np.multiply(rates, operand, out=out)
        if tables.intra is not None:
            gammas, out = tables.intra
            float_counts = tables.float_counts
            np.multiply(gammas, float_counts * (float_counts - 1.0), out=out)
            np.divide(out, 2.0, out=out)
        # Cumulative sums in place, row by row: cheaper than np.cumsum's
        # strided reduction, and the same additions in the same order.
        for previous, current in tables.sums:
            np.add(previous, current, out=current)

        if any_absorbable:
            absorbed = state.alive & state.absorbable & (total <= 0.0)
            if absorbed.any():
                retire(absorbed, _ABSORBED)
                if num_alive == 0:
                    break

        # One uniform per alive replica of each member, drawn from the
        # member's own step stream, concatenated in ascending original-index
        # order (the RNG consumption contract); replicas retired above
        # consume nothing.
        if segments is None:
            rebuild_segments()
        drawn = streams.fill(segments, drawn_scratch)
        if num_alive == tables.width:
            np.multiply(drawn, total, out=threshold)
        else:
            # Retired rows keep the +inf threshold they got at retirement,
            # which steers them to the no-op sentinel event.
            threshold[alive_idx] = drawn * total[alive_idx]
        # Count of cumulative propensities at or below the threshold = the
        # first live class whose cumulative propensity exceeds it;
        # zero-propensity classes can never be selected, and retired rows
        # land on the sentinel (``chosen == K``).
        np.less_equal(tables.rows, threshold, out=tables.below)
        chosen = np.add.reduce(tables.below, axis=0, dtype=np.uint8, out=tables.chosen)
        if collect_stats:
            event = tables.event_map.take(chosen)
            gap_before = x0 - x1
        if tables.column_offset is not None:
            chosen += tables.column_offset
        counts += tables.moves.take(chosen, axis=1)
        step += 1

        if collect_stats:
            gap_after = x0 - x1
            state.histogram[tables.row_index, event] += 1
            # Retired replicas fire the no-op sentinel, which the rule
            # accounts as nothing, so the accumulators need no masking.
            noise_ind, noise_comp, bad, good = _event_accounting(
                event, gap_before, gap_after, state.sign
            )
            state.noise_individual += noise_ind
            state.noise_competitive += noise_comp
            state.bad_noncompetitive_events += bad
            state.good_events += good
            np.maximum(state.max_total_population, x0 + x1, out=state.max_total_population)
            np.minimum(state.min_gap_seen, np.abs(gap_after), out=state.min_gap_seen)
            # Retired rows cannot newly reach a tie (their gap is frozen and
            # was recorded while they were alive), so no mask is needed.
            state.hit_tie |= gap_after == 0

        # Counts are non-negative, so a species is extinct exactly when the
        # pair product is zero; the next step's propensities reuse both.  A
        # retired row's product never changes, so a zero beyond the known
        # ones is a replica that finished on this step.
        np.copyto(tables.float_counts, counts)
        pair = np.multiply(*tables.pair_factors, out=tables.pair)
        zeros = tables.width - np.count_nonzero(pair)
        if zeros > tables.known_zeros:
            tables.known_zeros = zeros
            retire(state.alive & (pair == 0.0))
    return handoffs


def _finish_exact_tail(
    member: SweepMember,
    outputs: _OutputRecord,
    tail_generator: np.random.Generator,
    slots: np.ndarray,
    full: bool,
) -> None:
    """Finish *member*'s *slots* exactly: one scalar run each, in order.

    Each slot continues from its counts in *outputs* with the member's
    budget less its ``total_events`` (the handoff step), as one
    :func:`~repro.lv.simulator._event_loop` run on *tail_generator*, and
    gets that run's counts, events and termination.  With *full*, a
    :class:`~repro.lv.simulator._Tally` also continues the slot's
    accounting, in the member's gap sign.  A slot handed over with no
    budget left ends at once with ``max-events``, though its run still
    draws its block; that only happens when every tail slot of its member
    is spent.
    """
    params = member.params
    sign = _gap_sign(member.initial_state)
    for slot in slots.tolist():
        x0, x1 = int(outputs.x0[slot]), int(outputs.x1[slot])
        tally = None
        if full:
            tally = _Tally(x0, x1, sign, params.is_self_destructive)
            for name in _ACCOUNTING:
                setattr(tally, name, getattr(outputs, name)[slot])
        budget = member.max_events - int(outputs.total_events[slot])
        x0, x1, events, code = _event_loop(params, x0, x1, tail_generator, budget, tally)
        outputs.x0[slot], outputs.x1[slot] = x0, x1
        outputs.total_events[slot] += events
        outputs.termination_codes[slot] = code
        if tally is not None:
            for name in _ACCOUNTING:
                getattr(outputs, name)[slot] = getattr(tally, name)

