"""Exact absorption analysis of birth–death chains.

These solvers compute, on a truncated state space ``{0, ..., max_state}``,

* the expected number of steps until absorption at 0 from each state
  (:func:`expected_absorption_time`),
* the probability of eventually being absorbed at 0 versus "escaping" past the
  truncation boundary (:func:`absorption_probabilities`), and
* the expected number of *birth* events before absorption
  (:func:`expected_births_before_absorption`),

all by solving the standard first-step linear systems.  They serve as exact
oracles for the Monte-Carlo measurements in :mod:`repro.chains.nice` and as
an independent numerical check of Lemmas 5 and 6 of the paper.

A birth–death chain only moves to neighbouring states, so each system
``(I - P) x = r`` is tridiagonal: its three diagonals are built from the
chain's validated ``p``/``q`` tables and solved with
:func:`scipy.linalg.solve_banded` in ``O(max_state)`` time and memory.
"""

from __future__ import annotations

import numpy as np

from repro.chains.birth_death import BirthDeathChain
from repro.exceptions import AbsorptionError

__all__ = [
    "expected_absorption_time",
    "absorption_probabilities",
    "expected_births_before_absorption",
]


def _probability_tables(chain: BirthDeathChain, max_state: int) -> tuple[np.ndarray, np.ndarray]:
    """Validated ``(p, q)`` over the transient states ``1..max_state``."""
    if max_state < 1:
        raise AbsorptionError(f"max_state must be at least 1, got {max_state}")
    states = range(1, max_state + 1)
    births = np.array([chain.birth_probability(n) for n in states])
    deaths = np.array([chain.death_probability(n) for n in states])
    return births, deaths


def _solve_first_step(
    births: np.ndarray,
    deaths: np.ndarray,
    rhs: np.ndarray,
    *,
    reflecting: bool,
    failure: str,
) -> np.ndarray:
    """Solve ``(I - P) x = rhs`` for the transient block ``P`` over ``1..max_state``.

    ``P`` moves ``i -> i + 1`` with ``p``, ``i -> i - 1`` with ``q`` (a death
    from state 1 leaves to 0) and holds otherwise.  A birth out of the top
    state is a holding step when *reflecting*, and leaves the block otherwise.
    """
    from scipy.linalg import solve_banded

    holds = 1.0 - births - deaths
    if reflecting:
        holds[-1] += births[-1]
    banded = np.zeros((3, births.size))
    banded[0, 1:] = -births[:-1]
    banded[1] = 1.0 - holds
    banded[2, :-1] = -deaths[1:]
    try:
        return solve_banded((1, 1), banded, rhs, check_finite=False)
    except np.linalg.LinAlgError as error:
        raise AbsorptionError(failure) from error


def _check_values(values: np.ndarray, failure: str) -> np.ndarray:
    if np.any(values < -1e-9) or not np.all(np.isfinite(values)):
        raise AbsorptionError(failure)
    return values


def expected_absorption_time(chain: BirthDeathChain, max_state: int) -> np.ndarray:
    """Expected steps to absorption at 0 from each state ``1..max_state``.

    Solves ``(I - P) t = 1`` where ``P`` is the transient transition matrix,
    with births out of ``max_state`` treated as holding steps (reflecting
    truncation).  Entry ``i`` of the returned array is the expected
    absorption time from state ``i + 1``.

    Raises
    ------
    AbsorptionError
        If the linear system is singular, which signals that absorption is not
        certain on the truncated space (e.g. a pure-birth chain).
    """
    births, deaths = _probability_tables(chain, max_state)
    times = _solve_first_step(
        births,
        deaths,
        np.ones(max_state),
        reflecting=True,
        failure="expected absorption time is not finite on the truncated state space",
    )
    return _check_values(times, "absorption-time solve produced invalid (negative) values")


def absorption_probabilities(chain: BirthDeathChain, max_state: int) -> np.ndarray:
    """Probability of hitting 0 before exceeding ``max_state``, per start state.

    Entry ``i`` is the probability, starting from state ``i + 1``, of reaching
    0 before ever attempting a birth out of ``max_state``.  For chains that are
    absorbed at 0 with probability 1 this converges to 1 as ``max_state`` grows.
    """
    births, deaths = _probability_tables(chain, max_state)
    # Births out of max_state leak to the "escape" absorbing class; the reward
    # is the one-step absorption at 0, a death from state 1.
    reward = np.zeros(max_state)
    reward[0] = deaths[0]
    probabilities = _solve_first_step(
        births, deaths, reward, reflecting=False, failure="absorption-probability solve failed"
    )
    return np.clip(probabilities, 0.0, 1.0)


def expected_births_before_absorption(chain: BirthDeathChain, max_state: int) -> np.ndarray:
    """Expected number of birth events before absorption, per start state.

    Solves ``(I - P) b = p`` where ``p`` is the per-state birth probability.
    Entry ``i`` of the result is ``E[B(i + 1)]``, the quantity bounded by
    ``O(log n)`` in Lemma 6 for nice chains.
    """
    births, deaths = _probability_tables(chain, max_state)
    # With the reflecting truncation a birth at max_state is counted as a
    # holding step, so drop it from the reward vector as well for consistency.
    reward = births.copy()
    reward[-1] = 0.0
    values = _solve_first_step(
        births,
        deaths,
        reward,
        reflecting=True,
        failure=(
            "expected-births solve failed; the chain may not be absorbed on the "
            "truncated state space"
        ),
    )
    return _check_values(values, "expected-births solve produced invalid values")
