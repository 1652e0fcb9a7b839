"""Scalar replay of the two exact engines' RNG consumption contracts.

The exact engines are fast because they advance whole replica batches in
numpy lock-step.  Their results are nonetheless a pure function of each
member's seed, fixed by a documented consumption order (DESIGN.md, "RNG
contract").  This module replays that order one replica and one uniform at
a time in plain Python, so the engines can be checked bit for bit against
code that shares none of their vectorised bookkeeping:

* **lv2 lock-step** (``repro.lv.ensemble``): each member seed spawns a
  step and a tail generator.  Every step draws one step-stream uniform per
  alive replica, in ascending replica order; a replica retired earlier in
  the step (event budget, absorption) draws nothing.  Once at most
  :data:`HANDOFF_WIDTH` replicas are alive, the survivors finish one by
  one, in ascending order, as scalar-simulator runs on the tail stream.
  Each such run draws a fresh :data:`SCALAR_BLOCK`-uniform block when it
  starts and discards the leftovers when it ends.
* **generic lock-step** (``repro.scenario.engine``): the same step phase
  over a scenario's reaction list, stepping every replica until it ends.
  It never reads the tail stream.

Nothing here comes from the engine modules.  ``repro.rng`` supplies the
seed derivation and ``reference_ssa`` the reaction lists and propensities.
"""

from __future__ import annotations

from typing import Any, NamedTuple

import numpy as np

from repro.rng import spawn_generators, spawn_seeds

from reference_ssa import (
    catalysis_reactions,
    lv_reactions,
    opinion_reactions,
    propensity,
    resource_reactions,
)

#: A member leaves the lock-step phase once at most this many replicas live.
HANDOFF_WIDTH = 8
#: Uniforms per block of a scalar-simulator run (one fresh block per run).
SCALAR_BLOCK = 4096
#: Termination codes of the result arrays.
CONSENSUS, ABSORBED, MAX_EVENTS = 0, 1, 2
TERMINATION_NAMES = ("consensus", "absorbed", "max-events")

#: Event indices of the two-species chain, in the engines' selection order.
BIRTH0, BIRTH1, DEATH0, DEATH1, INTER0, INTER1, INTRA0, INTRA1 = range(8)


def member_root_seeds(count: int, *, rng: Any = None, member_seeds: Any = None) -> list[int]:
    """Each member's root seed: spawned from *rng*, or one spawn per member seed."""
    if member_seeds is None:
        return list(spawn_seeds(rng, count))
    return [spawn_seeds(seed, 1)[0] for seed in member_seeds]


class Blocks:
    """Uniforms from one generator, drawn *size* at a time.

    With ``eager=True`` the first block is drawn at construction (the
    scalar simulator's run start); otherwise at the first :meth:`next`.
    """

    def __init__(self, generator: np.random.Generator, size: int, *, eager: bool = False):
        self.generator = generator
        self.size = size
        self.buffer = generator.random(size).tolist() if eager else []
        self.cursor = 0

    def next(self) -> float:
        if self.cursor >= len(self.buffer):
            self.buffer = self.generator.random(self.size).tolist()
            self.cursor = 0
        value = self.buffer[self.cursor]
        self.cursor += 1
        return value


def cumulative(weights: list[float]) -> list[float]:
    """Left-to-right running sums, the order every engine adds propensities in."""
    sums, total = [], 0.0
    for weight in weights:
        total = total + weight
        sums.append(total)
    return sums


# ----------------------------------------------------------------------
# Two-species chain
# ----------------------------------------------------------------------
def lockstep_propensities(params, x0: int, x1: int) -> list[float]:
    """The lock-step phase's eight propensities (``gamma * (x(x-1)) / 2``)."""
    pair = x0 * x1
    return [
        params.beta * x0,
        params.beta * x1,
        params.delta * x0,
        params.delta * x1,
        params.alpha0 * pair,
        params.alpha1 * pair,
        params.gamma0 * (x0 * (x0 - 1)) / 2.0,
        params.gamma1 * (x1 * (x1 - 1)) / 2.0,
    ]


def scalar_propensities(params, x0: int, x1: int) -> list[float]:
    """The scalar simulator's eight propensities (``gamma * x * (x-1) / 2``)."""
    pair = x0 * x1
    return [
        params.beta * x0,
        params.beta * x1,
        params.delta * x0,
        params.delta * x1,
        params.alpha0 * pair,
        params.alpha1 * pair,
        params.gamma0 * x0 * (x0 - 1) / 2.0,
        params.gamma1 * x1 * (x1 - 1) / 2.0,
    ]


def _lv2_changes(params) -> list[tuple[int, int]]:
    return [(r.change.get("X0", 0), r.change.get("X1", 0)) for r in lv_reactions(params)]


class _Tally:
    """One replica's two-species state and event accounting."""

    def __init__(self, x0: int, x1: int):
        self.x0, self.x1 = x0, x1
        self.events = 0
        self.code = CONSENSUS
        self.histogram = [0] * 8
        self.bad = self.good = self.noise_ind = self.noise_comp = 0
        self.max_total = x0 + x1
        self.min_gap = abs(x0 - x1)
        self.hit_tie = x0 == x1

    def fire(self, event: int, change: tuple[int, int], sign: int, full: bool) -> None:
        """Apply *event*; with *full*, account for it as the scalar simulator does."""
        gap_before = self.x0 - self.x1
        self.x0 += change[0]
        self.x1 += change[1]
        if not full:
            return
        gap_after = self.x0 - self.x1
        self.histogram[event] += 1
        noise = sign * (gap_before - gap_after)
        if event <= DEATH1:
            self.noise_ind += noise
            self.bad += abs(gap_after) < abs(gap_before)
        else:
            self.noise_comp += noise
        if gap_before != 0:
            # A death or intraspecific event of the current minority, or any
            # interspecific event.
            minority = 0 if gap_before < 0 else 1
            self.good += event in (INTER0, INTER1, DEATH0 + minority, INTRA0 + minority)
        self.max_total = max(self.max_total, self.x0 + self.x1)
        self.min_gap = min(self.min_gap, abs(gap_after))
        self.hit_tie = self.hit_tie or gap_after == 0


class ScalarRun(NamedTuple):
    """The fields of one scalar-simulator run."""

    final_state: tuple[int, int]
    total_events: int
    termination: str
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


def _scalar_finish(params, tally: _Tally, generator, max_events: int, sign: int, full: bool) -> int:
    """Continue *tally* as one scalar-simulator run; return the events it fired.

    A fresh block is drawn at the start.  Each event draws one uniform and
    selects the first class whose running sum exceeds ``u * total``, or the
    last class when none does.
    """
    changes = _lv2_changes(params)
    draws = Blocks(generator, SCALAR_BLOCK, eager=True)
    fired = 0
    while tally.x0 > 0 and tally.x1 > 0:
        if fired >= max_events:
            tally.code = MAX_EVENTS
            break
        sums = cumulative(scalar_propensities(params, tally.x0, tally.x1))
        if sums[-1] <= 0.0:
            tally.code = ABSORBED
            break
        threshold = draws.next() * sums[-1]
        event = next((k for k in range(7) if threshold < sums[k]), INTRA1)
        tally.fire(event, changes[event], sign, full)
        fired += 1
    return fired


def scalar_run(params, state, generator, max_events: int) -> ScalarRun:
    """Replay ``LVJumpChainSimulator.run`` from *state* on *generator*.

    Noise is measured against the run's initial majority (species 0 on a
    tie), as the simulator does.
    """
    x0, x1 = _counts(state)
    tally = _Tally(x0, x1)
    sign = -1 if x1 > x0 else 1
    fired = _scalar_finish(params, tally, generator, max_events, sign, full=True)
    consensus = tally.x0 == 0 or tally.x1 == 0
    h = tally.histogram
    return ScalarRun(
        final_state=(tally.x0, tally.x1),
        total_events=fired,
        termination="consensus" if consensus else TERMINATION_NAMES[tally.code],
        births=(h[BIRTH0], h[BIRTH1]),
        deaths=(h[DEATH0], h[DEATH1]),
        interspecific_events=h[INTER0] + h[INTER1],
        intraspecific_events=(h[INTRA0], h[INTRA1]),
        bad_noncompetitive_events=tally.bad,
        good_events=tally.good,
        noise_individual=tally.noise_ind,
        noise_competitive=tally.noise_comp,
        max_total_population=tally.max_total,
        min_gap_seen=tally.min_gap,
        hit_tie=tally.hit_tie,
    )


def _counts(state) -> tuple[int, ...]:
    if hasattr(state, "x0"):
        return (int(state.x0), int(state.x1))
    return tuple(int(count) for count in state)


def _lv2_arrays(tallies: list[_Tally]) -> dict[str, np.ndarray]:
    def column(name, dtype=np.int64):
        return np.array([getattr(t, name) for t in tallies], dtype=dtype)

    histogram = np.array([t.histogram for t in tallies], dtype=np.int64)
    return {
        "final_x0": column("x0"),
        "final_x1": column("x1"),
        "total_events": column("events"),
        "termination_codes": column("code", np.int8),
        "births": histogram[:, BIRTH0 : BIRTH1 + 1].copy(),
        "deaths": histogram[:, DEATH0 : DEATH1 + 1].copy(),
        "interspecific_events": histogram[:, INTER0] + histogram[:, INTER1],
        "intraspecific_events": histogram[:, INTRA0 : INTRA1 + 1].copy(),
        "bad_noncompetitive_events": column("bad"),
        "good_events": column("good"),
        "noise_individual": column("noise_ind"),
        "noise_competitive": column("noise_comp"),
        "max_total_population": column("max_total"),
        "min_gap_seen": column("min_gap"),
        "hit_tie": column("hit_tie", bool),
    }


def replay_lv2_member(
    params, state, num_replicates: int, max_events: int, seed: int, collect: str = "full"
) -> dict[str, np.ndarray]:
    """One two-species member from its root *seed*, as result arrays by field name."""
    full = collect == "full"
    x0, x1 = _counts(state)
    sign = -1 if x1 > x0 else 1
    changes = _lv2_changes(params)
    step_generator, tail_generator = spawn_generators(seed, 2)
    # Any block size will do: Generator.random does not depend on how the
    # flat stream is partitioned into calls.
    step_draws = Blocks(step_generator, 1024)
    tallies = [_Tally(x0, x1) for _ in range(num_replicates)]
    alive = [i for i, t in enumerate(tallies) if t.x0 > 0 and t.x1 > 0]
    step = 0
    while alive:
        if len(alive) <= HANDOFF_WIDTH:
            for i in alive:
                tally = tallies[i]
                tally.events = step
                if max_events - step <= 0:
                    tally.code = MAX_EVENTS
                else:
                    tally.events += _scalar_finish(
                        params, tally, tail_generator, max_events - step, sign, full
                    )
            break
        if step >= max_events:
            for i in alive:
                tallies[i].events, tallies[i].code = step, MAX_EVENTS
            break
        survivors = []
        for i in alive:
            tally = tallies[i]
            sums = cumulative(lockstep_propensities(params, tally.x0, tally.x1))
            if sums[-1] <= 0.0:
                tally.events, tally.code = step, ABSORBED
                continue
            threshold = step_draws.next() * sums[-1]
            # Event 8 (no class at or below the threshold's rank) is the no-op
            # that IEEE rounding of ``u * total`` up to ``total`` can select.
            event = sum(value <= threshold for value in sums)
            if event < 8:
                tally.fire(event, changes[event], sign, full)
            if tally.x0 == 0 or tally.x1 == 0:
                tally.events = step + 1
            else:
                survivors.append(i)
        alive = survivors
        step += 1
    return _lv2_arrays(tallies)


def replay_lv2(members, *, rng=None, member_seeds=None, collect: str = "full") -> list[dict]:
    """``run_sweep_ensemble`` over two-species members, one member at a time."""
    seeds = member_root_seeds(len(members), rng=rng, member_seeds=member_seeds)
    return [
        replay_lv2_member(
            m.params, m.initial_state, m.num_replicates, m.max_events, seed, collect
        )
        for m, seed in zip(members, seeds)
    ]


# ----------------------------------------------------------------------
# Generic scenarios
# ----------------------------------------------------------------------
def family_reactions(name: str, params, k_lig: float) -> tuple[list, tuple, tuple]:
    """``(reactions, species, opinion species)`` of a registered family."""
    if name == "lv2":
        return lv_reactions(params), ("X0", "X1"), ("X0", "X1")
    if name == "catalysis":
        return catalysis_reactions(params, k_lig), ("X0", "X1", "C"), ("X0", "X1")
    if name == "resource":
        return resource_reactions(params), ("X0", "X1", "R"), ("X0", "X1")
    k = int(name.removeprefix("opinion"))
    names = tuple(f"X{i}" for i in range(k))
    return opinion_reactions(k, params), names, names


def replay_generic_member(
    reactions,
    species: tuple[str, ...],
    opinions: tuple[str, ...],
    counts,
    num_replicates: int,
    max_events: int,
    seed: int,
    collect: str = "full",
    stream: str = "step",
) -> dict[str, np.ndarray]:
    """One generic-scenario member from its root *seed*, as result arrays.

    Every step reads the member's *stream*: ``"step"`` as the exact backend
    does, or ``"tail"`` as the tau backend's parked replicas do.

    Good events: an encounter between two opinions, or a reaction removing a
    copy of an opinion other than the first.  Good and bad events and the
    population maximum are counted only with ``collect="full"``; at
    ``"win"`` both event counts stay zero.
    """
    full = collect == "full"
    good_flags = [
        sum(s in r.reactants for s in opinions) == 2
        or any(r.change.get(s, 0) < 0 for s in opinions[1:])
        for r in reactions
    ]
    generators = dict(zip(("step", "tail"), spawn_generators(seed, 2)))
    draws = Blocks(generators[stream], 1024)
    states = [dict(zip(species, counts)) for _ in range(num_replicates)]
    events = [0] * num_replicates
    codes: list = [None] * num_replicates
    good = [0] * num_replicates
    max_total = [sum(counts)] * num_replicates

    def outcome(i):
        """Replica *i*'s termination code, or ``None`` while it runs on."""
        positive = sum(states[i][s] > 0 for s in opinions)
        if positive == 1:
            return CONSENSUS
        if positive == 0:
            return ABSORBED
        return MAX_EVENTS if events[i] >= max_events else None

    def advance(i) -> bool:
        """Fire one event of replica *i*; whether it has now terminated."""
        state = states[i]
        sums = cumulative([propensity(r, state) for r in reactions])
        if sums[-1] <= 0.0:
            codes[i] = ABSORBED
            return True
        threshold = draws.next() * sums[-1]
        event = min(sum(value <= threshold for value in sums), len(reactions) - 1)
        for name, change in reactions[event].change.items():
            state[name] += change
        events[i] += 1
        good[i] += full and good_flags[event]
        if full:
            max_total[i] = max(max_total[i], sum(state.values()))
        codes[i] = outcome(i)
        return codes[i] is not None

    running = []
    for i in range(num_replicates):
        codes[i] = outcome(i)
        if codes[i] is None:
            running.append(i)
    while running:
        running = [i for i in running if not advance(i)]
    finals = np.array([[state[s] for s in species] for state in states], dtype=np.int64)
    total_events = np.array(events, dtype=np.int64)
    good_events = np.array(good, dtype=np.int64)
    return {
        "finals": finals,
        "final_x0": finals[:, 0].copy(),
        "final_x1": finals[:, 1].copy(),
        "total_events": total_events,
        "termination_codes": np.array(codes, dtype=np.int8),
        "good_events": good_events,
        "bad_noncompetitive_events": (
            total_events - good_events if full else np.zeros_like(total_events)
        ),
        "max_total_population": np.array(max_total, dtype=np.int64),
    }
