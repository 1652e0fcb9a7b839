"""Discrete-time birth–death chains on the non-negative integers.

Section 4 of the paper works with chains ``N = (N_t)`` on state space ``ℕ``
defined by a birth probability function ``p`` and a death probability
function ``q`` with ``p(n) + q(n) ≤ 1``: from state ``n`` the chain moves to
``n + 1`` with probability ``p(n)``, to ``n - 1`` with probability ``q(n)``,
and stays put (a *holding step*) otherwise.  State 0 is the unique absorbing
state (``p(0) = q(0) = 0``).

This module provides the chain abstraction, trajectory simulation, and summary
statistics — in particular the extinction time ``E(n)`` and the number of
birth events ``B(n)`` before extinction that Lemmas 5–8 bound.

Two simulators share one consumption contract: every step of a run draws
exactly one uniform ``u`` from that run's generator, and is a birth if
``u < p(m)``, else a death if ``u >= 1 - q(m)``, else a hold.  The birth
test comes first because validation allows ``p + q`` up to ``1 + 1e-12``.
:meth:`BirthDeathChain.simulate_to_absorption` is the scalar reference loop;
:meth:`BirthDeathChain.simulate_runs_to_absorption` advances many runs in
lock-step and returns the same summaries bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.exceptions import BudgetExceededError, ModelError
from repro.rng import SeedLike, as_generator

__all__ = ["BirthDeathChain", "BirthDeathSummary", "UNIFORM_BLOCK"]

#: Uniforms the lock-step runner draws from each live run's generator at a
#: time.  numpy's ``Generator.random`` stream does not depend on how the
#: draws are split into calls, so the block size never changes a run.
UNIFORM_BLOCK = 512


@dataclass(frozen=True)
class BirthDeathSummary:
    """Summary of one simulated birth–death trajectory run to absorption.

    Attributes
    ----------
    initial_state:
        Starting state ``n``.
    extinction_time:
        Number of steps until the chain first hits 0 (``E(n)`` in the paper),
        counting holding steps.
    births:
        Number of birth events before extinction (``B(n)``).
    deaths:
        Number of death events before extinction.
    holding_steps:
        Number of steps in which the chain did not move.
    max_state:
        Largest state visited.
    """

    initial_state: int
    extinction_time: int
    births: int
    deaths: int
    holding_steps: int
    max_state: int

    def __post_init__(self) -> None:
        expected_steps = self.births + self.deaths + self.holding_steps
        if expected_steps != self.extinction_time:
            raise ValueError(
                "inconsistent summary: births + deaths + holding_steps must "
                f"equal extinction_time ({expected_steps} != {self.extinction_time})"
            )


class BirthDeathChain:
    """A discrete-time birth–death chain defined by functions ``p`` and ``q``.

    Parameters
    ----------
    birth_probability:
        Function ``p(n)`` giving the probability of moving ``n -> n + 1``.
    death_probability:
        Function ``q(n)`` giving the probability of moving ``n -> n - 1``.
    name:
        Optional label used in reprs and error messages.

    Notes
    -----
    The constructor enforces the paper's conventions lazily: probabilities are
    validated at evaluation time (``0 ≤ p(n)``, ``0 ≤ q(n)``,
    ``p(n) + q(n) ≤ 1``), and state 0 is always treated as absorbing
    regardless of what the supplied functions return there.

    Examples
    --------
    >>> chain = BirthDeathChain(lambda n: 0.0, lambda n: 1.0 if n > 0 else 0.0)
    >>> chain.simulate_to_absorption(5, rng=0).extinction_time
    5
    """

    def __init__(
        self,
        birth_probability: Callable[[int], float],
        death_probability: Callable[[int], float],
        *,
        name: str = "",
    ) -> None:
        if not callable(birth_probability) or not callable(death_probability):
            raise ModelError("birth_probability and death_probability must be callable")
        self._p = birth_probability
        self._q = death_probability
        self.name = name

    # ------------------------------------------------------------------
    # Probability accessors
    # ------------------------------------------------------------------
    def birth_probability(self, state: int) -> float:
        """Validated birth probability ``p(state)`` (0 at the absorbing state)."""
        if state < 0:
            raise ModelError(f"state must be non-negative, got {state}")
        if state == 0:
            return 0.0
        value = float(self._p(state))
        self._check_pair(state, value, self.death_probability_raw(state))
        return value

    def death_probability(self, state: int) -> float:
        """Validated death probability ``q(state)`` (0 at the absorbing state)."""
        if state < 0:
            raise ModelError(f"state must be non-negative, got {state}")
        if state == 0:
            return 0.0
        value = float(self._q(state))
        self._check_pair(state, self.birth_probability_raw(state), value)
        return value

    def birth_probability_raw(self, state: int) -> float:
        return 0.0 if state == 0 else float(self._p(state))

    def death_probability_raw(self, state: int) -> float:
        return 0.0 if state == 0 else float(self._q(state))

    def holding_probability(self, state: int) -> float:
        """Probability ``h(state) = 1 - p(state) - q(state)`` of not moving."""
        if state == 0:
            return 1.0
        return 1.0 - self.birth_probability(state) - self.death_probability(state)

    @staticmethod
    def _check_pair(state: int, p: float, q: float) -> None:
        if p < 0 or q < 0:
            raise ModelError(
                f"birth/death probabilities must be non-negative at state {state}: "
                f"p={p}, q={q}"
            )
        if p + q > 1.0 + 1e-12:
            raise ModelError(
                f"p(n) + q(n) must not exceed 1; at state {state} got {p} + {q}"
            )

    def is_absorbing(self, state: int) -> bool:
        """Whether *state* is absorbing (only state 0 by convention)."""
        if state == 0:
            return True
        return self.birth_probability(state) == 0.0 and self.death_probability(state) == 0.0

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def step(self, state: int, rng: SeedLike = None) -> int:
        """Sample one transition from *state*."""
        generator = as_generator(rng)
        if state == 0:
            return 0
        p = self.birth_probability(state)
        q = self.death_probability(state)
        u = generator.random()
        if u < p:
            return state + 1
        if u >= 1.0 - q:
            return state - 1
        return state

    def simulate_to_absorption(
        self,
        initial_state: int,
        *,
        rng: SeedLike = None,
        max_steps: int = 50_000_000,
    ) -> BirthDeathSummary:
        """Run the chain from *initial_state* until it hits state 0.

        This is the scalar reference for
        :meth:`simulate_runs_to_absorption`.  It advances *rng* by exactly
        one ``random()`` draw per step and no further, so it is also the form
        to use when the caller keeps drawing from the same generator.

        Raises
        ------
        BudgetExceededError
            If absorption does not occur within *max_steps* steps.
        """
        if initial_state < 0:
            raise ModelError(f"initial_state must be non-negative, got {initial_state}")
        if max_steps <= 0:
            raise ValueError(f"max_steps must be positive, got {max_steps}")
        generator = as_generator(rng)
        state = int(initial_state)
        births = deaths = holding = 0
        max_state = state
        steps = 0
        while state > 0:
            if steps >= max_steps:
                raise BudgetExceededError(
                    f"birth-death chain did not reach absorption within {max_steps} steps "
                    f"(current state {state}, started at {initial_state})"
                )
            p = self.birth_probability(state)
            q = self.death_probability(state)
            u = generator.random()
            if u < p:
                state += 1
                births += 1
                max_state = max(max_state, state)
            elif u >= 1.0 - q:
                state -= 1
                deaths += 1
            else:
                holding += 1
            steps += 1
        return BirthDeathSummary(
            initial_state=int(initial_state),
            extinction_time=steps,
            births=births,
            deaths=deaths,
            holding_steps=holding,
            max_state=max_state,
        )

    def simulate_runs_to_absorption(
        self,
        initial_state: int,
        generators: Sequence[np.random.Generator],
        *,
        max_steps: int = 50_000_000,
    ) -> list[BirthDeathSummary]:
        """Run one chain from *initial_state* once per generator, in lock-step.

        Entry ``i`` of the result equals
        ``self.simulate_to_absorption(initial_state, rng=generators[i],
        max_steps=max_steps)``.  Every step draws one uniform per live run
        from that run's own generator, in blocks of :data:`UNIFORM_BLOCK`,
        and looks ``p``/``q`` up in tables filled through the validated
        accessors at exactly the states some run visits.  Finished runs are
        dropped at block boundaries.

        The runner owns *generators*: it may advance each one past its run's
        absorption, by up to a block of uniforms.

        Raises
        ------
        ModelError
            If *initial_state* is negative or a visited state has invalid
            probabilities.
        BudgetExceededError
            If some run is still alive after *max_steps* steps.  When one run
            would exceed the budget and another would visit an invalid state,
            which of the two errors is raised may differ from the scalar loop.
        """
        if initial_state < 0:
            raise ModelError(f"initial_state must be non-negative, got {initial_state}")
        if max_steps <= 0:
            raise ValueError(f"max_steps must be positive, got {max_steps}")
        start = int(initial_state)
        streams = list(generators)
        times = np.zeros(len(streams), dtype=np.int64)
        births = np.zeros(len(streams), dtype=np.int64)
        peaks = np.full(len(streams), start, dtype=np.int64)
        tables = _ProbabilityTables(self, start)
        # The live arrays below hold one row per unfinished run; ``rows`` maps
        # each back to its run.  A finished run sits at state 0, where the
        # tables make it hold, until the next block boundary drops it.
        rows = np.arange(len(streams)) if start > 0 else np.arange(0)
        state = np.full(rows.size, start, dtype=np.int64)
        live_births = np.zeros(rows.size, dtype=np.int64)
        live_peaks = state.copy()
        finish = np.zeros(rows.size, dtype=np.int64)
        alive = rows.size
        step = 0
        while alive:
            block = np.empty((UNIFORM_BLOCK, rows.size))
            for column, row in enumerate(rows):
                block[:, column] = streams[row].random(UNIFORM_BLOCK)
            for uniforms in block:
                if step >= max_steps:
                    raise BudgetExceededError(
                        f"birth-death chain did not reach absorption within {max_steps} "
                        f"steps ({alive} of {len(streams)} runs still alive, "
                        f"started at {initial_state})"
                    )
                if not tables.known.take(state, mode="clip").all():
                    tables.fill(state)
                birth = uniforms < tables.birth.take(state)
                death = uniforms >= tables.death_at.take(state)
                state += birth
                state -= death
                live_births += birth
                np.maximum(live_peaks, state, out=live_peaks)
                step += 1
                remaining = np.count_nonzero(state)
                if remaining < alive:
                    finish[(state == 0) & (finish == 0)] = step
                    alive = remaining
                    if not alive:
                        break
            done = state == 0
            times[rows[done]] = finish[done]
            births[rows[done]] = live_births[done]
            peaks[rows[done]] = live_peaks[done]
            keep = ~done
            rows, state = rows[keep], state[keep]
            live_births, live_peaks, finish = live_births[keep], live_peaks[keep], finish[keep]
        return [
            BirthDeathSummary(
                initial_state=start,
                extinction_time=time,
                births=born,
                deaths=start + born,
                holding_steps=time - 2 * born - start,
                max_state=peak,
            )
            for time, born, peak in zip(times.tolist(), births.tolist(), peaks.tolist())
        ]

    def sample_path(
        self,
        initial_state: int,
        num_steps: int,
        *,
        rng: SeedLike = None,
    ) -> np.ndarray:
        """Return the states visited over *num_steps* transitions (inclusive of start)."""
        if num_steps < 0:
            raise ValueError(f"num_steps must be non-negative, got {num_steps}")
        generator = as_generator(rng)
        path = np.empty(num_steps + 1, dtype=np.int64)
        path[0] = int(initial_state)
        state = int(initial_state)
        for t in range(1, num_steps + 1):
            state = self.step(state, rng=generator)
            path[t] = state
        return path

    # ------------------------------------------------------------------
    # Exact transition structure (for the absorption solvers)
    # ------------------------------------------------------------------
    def transition_matrix(self, max_state: int) -> np.ndarray:
        """Dense transition matrix on the truncated state space ``{0..max_state}``.

        Probability mass that would leave the truncation (a birth at
        ``max_state``) is redirected to a holding step, which is the standard
        reflecting truncation; callers should choose ``max_state`` large enough
        that this has negligible influence on the quantity of interest.
        """
        if max_state < 1:
            raise ValueError(f"max_state must be at least 1, got {max_state}")
        size = max_state + 1
        matrix = np.zeros((size, size))
        matrix[0, 0] = 1.0
        for state in range(1, size):
            p = self.birth_probability(state)
            q = self.death_probability(state)
            h = 1.0 - p - q
            if state + 1 <= max_state:
                matrix[state, state + 1] = p
            else:
                h += p
            matrix[state, state - 1] = q
            matrix[state, state] = h
        return matrix

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<BirthDeathChain{label}>"


class _ProbabilityTables:
    """Per-state ``p`` and death threshold for the lock-step runner.

    A state's row is filled through the chain's validated accessors the
    first time a live run stands on it, which is when the scalar loop first
    evaluates it.  ``death_at`` holds ``max(1 - q, p)``: ``u >= death_at``
    is exactly "not a birth, and ``u >= 1 - q``", including the NaN cases the
    accessors let through.  State 0 holds (``p = 0``, ``death_at = 1``).  The
    last slot is never filled, so a state past the end clips onto it and
    reads as unknown.
    """

    def __init__(self, chain: BirthDeathChain, start: int) -> None:
        self._chain = chain
        size = 2 * start + 2
        self.known = np.zeros(size, dtype=bool)
        self.known[0] = True
        self.birth = np.zeros(size)
        self.death_at = np.ones(size)

    def fill(self, state: np.ndarray) -> None:
        """Evaluate every state in *state* that has no row yet."""
        needed = np.unique(state[~self.known.take(state, mode="clip")])
        size = self.known.size
        if needed[-1] >= size - 1:
            grown = max(2 * size, int(needed[-1]) + 2)
            self.known = np.concatenate([self.known, np.zeros(grown - size, dtype=bool)])
            self.birth = np.concatenate([self.birth, np.zeros(grown - size)])
            self.death_at = np.concatenate([self.death_at, np.ones(grown - size)])
        for value in needed.tolist():
            p = self._chain.birth_probability(value)
            q = self._chain.death_probability(value)
            threshold = 1.0 - q
            if p > threshold:
                threshold = p
            self.birth[value] = p
            self.death_at[value] = threshold
            self.known[value] = True
