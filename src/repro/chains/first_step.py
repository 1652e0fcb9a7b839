"""Exact majority-consensus probabilities by first-step analysis.

For small populations the probability ``ρ(a, b)`` that species 0 wins can be
computed exactly by solving the first-step recurrence (Eq. 8 of the paper)

.. math::

    ρ(a, b) = \\sum_{x, y} P((a, b), (x, y)) · ρ(x, y)

with boundary conditions ``ρ(a, 0) = 1`` for ``a > 0`` and ``ρ(0, b) = 0``
for ``b ≥ 0``, on a truncated state space ``{0..max_count}²``.  States on the
truncation boundary redirect outgoing birth transitions to holding steps
(reflecting truncation); for parameter choices where the population is
strongly regulated (any competition present) the truncation error vanishes
quickly as ``max_count`` grows.

The system ``(I − P) x = r`` is assembled in one vectorised pass over the
``lv2`` :class:`~repro.scenario.spec.Scenario` tables: the propensities of
every transient state come from ``propensity_rows`` and are summed in
reaction order, each reaction's target is the state plus its row of
``change_matrix``, and moves that leave the box fold into the diagonal as
holding steps.  The sparse matrix is factorised once (SuperLU with its
default COLAMD ordering), and that factorisation solves three right-hand
sides: the win probability, the probability of the dead heat ``(0, 0)``, and
the expected number of steps the truncation redirected.

The exact solver serves three purposes in this repository:

* it validates the Monte-Carlo estimator on small instances,
* it independently confirms Theorems 20 and 23 (``ρ = a/(a+b)`` when
  ``α = γ`` resp. ``γ = 2α``), and
* it provides exact reference values for the `T1R2`/`T1R5` benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import AbsorptionError, SimulationError
from repro.lv.params import LVParams
from repro.lv.state import LVState
from repro.scenario.registry import build_scenario

if TYPE_CHECKING:  # pragma: no cover - typing only
    from scipy.sparse import csr_matrix

__all__ = ["FirstStepResult", "exact_majority_probability", "exact_win_probability_grid"]


@dataclass(frozen=True)
class FirstStepResult:
    """Exact first-step analysis result for one initial state.

    Attributes
    ----------
    initial_state:
        The initial configuration ``(a, b)``.
    win_probability:
        Exact probability that species 0 is the sole survivor (``ρ`` when
        species 0 is the initial majority), with the dead heat scored as the
        ``dead_heat_value`` the solve was given.
    max_count:
        Truncation bound used for the solve.
    truncation_mass:
        Expected number of steps the truncation redirected to holding steps
        on the way from the initial state to absorption — a diagnostic for
        whether *max_count* was large enough (values near 0 mean the
        truncation is harmless).
    dead_heat_probability:
        Exact probability that both species die out together (the state
        ``(0, 0)``, reachable only under self-destructive competition).  The
        strict win probability is ``win_probability − dead_heat_value ·
        dead_heat_probability``.
    """

    initial_state: tuple[int, int]
    win_probability: float
    max_count: int
    truncation_mass: float
    dead_heat_probability: float


def _assemble(params: LVParams, max_count: int) -> tuple[csr_matrix, np.ndarray]:
    """The first-step matrix ``I − P`` and each state's redirected probability.

    State ``(a, b)`` has index ``a * (max_count + 1) + b``.  Absorbing states
    (``a = 0`` or ``b = 0``) get identity rows and no redirected probability.
    """
    from scipy.sparse import coo_matrix

    scenario = build_scenario("lv2", params)
    size = max_count + 1
    counts = np.arange(1, size)
    a = np.repeat(counts, max_count)
    b = np.tile(counts, max_count)
    source = a * size + b
    propensities = scenario.propensity_rows(np.column_stack((a, b)))
    # Summed one reaction at a time, in the scalar chain's order, so the
    # probabilities match it bit for bit.
    total = propensities[0]
    for row in propensities[1:]:
        total = total + row
    # A state without propensity would hold forever (``P(x, x) = 1``).
    stuck = total <= 0.0
    probabilities = propensities / np.where(stuck, 1.0, total)

    redirected = np.zeros(a.size)
    rows: list[np.ndarray] = []
    columns: list[np.ndarray] = []
    values: list[np.ndarray] = []
    changes = scenario.change_matrix
    # Reactions with the same change reach the same target; their
    # probabilities add up in reaction order, as the scalar chain adds them.
    for change in dict.fromkeys(map(tuple, changes.tolist())):
        members = np.flatnonzero((changes == change).all(axis=1))
        probability = probabilities[members[0]]
        for member in members[1:]:
            probability = probability + probabilities[member]
        to_a, to_b = a + change[0], b + change[1]
        moves = probability > 0.0
        if np.any(moves & ((to_a < 0) | (to_b < 0))):
            raise SimulationError(
                f"a move by {change} with positive probability would produce negative counts"
            )
        outside = (to_a > max_count) | (to_b > max_count)
        redirected = redirected + np.where(outside, probability, 0.0)
        inside = moves & ~outside
        rows.append(source[inside])
        columns.append(to_a[inside] * size + to_b[inside])
        values.append(-probability[inside])

    diagonal = np.where(stuck, 0.0, 1.0 - redirected)
    # A state that cannot leave itself would make the system singular.
    singular = np.flatnonzero(np.abs(diagonal) < 1e-14)
    if singular.size:
        first = singular[0]
        raise AbsorptionError(
            f"state ({a[first]}, {b[first]}) has no outgoing probability after truncation; "
            "increase max_count"
        )
    every_state = np.arange(size * size)
    full_diagonal = np.ones(size * size)
    full_diagonal[source] = diagonal
    rows.append(every_state)
    columns.append(every_state)
    values.append(full_diagonal)
    matrix = coo_matrix(
        (np.concatenate(values), (np.concatenate(rows), np.concatenate(columns))),
        shape=(size * size, size * size),
    ).tocsr()
    mass = np.zeros(size * size)
    mass[source] = redirected
    return matrix, mass


def _solve(
    params: LVParams, max_count: int, dead_heat_value: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Win, dead-heat and redirected-step grids, each ``(max_count + 1)²``."""
    from scipy.sparse.linalg import spsolve

    if max_count < 1:
        raise AbsorptionError(f"max_count must be at least 1, got {max_count}")
    if not 0.0 <= dead_heat_value <= 1.0:
        raise AbsorptionError(
            f"dead_heat_value must lie in [0, 1], got {dead_heat_value}"
        )
    matrix, redirected = _assemble(params, max_count)
    size = max_count + 1
    rhs = np.zeros((size * size, 3))
    # Absorbing: species 0 has won iff it is still present; the
    # simultaneous-extinction state gets the configured value.
    rhs[size::size, 0] = 1.0
    rhs[0, 0] = dead_heat_value
    rhs[0, 1] = 1.0
    rhs[:, 2] = redirected
    solution = spsolve(matrix, rhs)
    win, dead_heat, redirections = solution.T.reshape(3, size, size)
    return np.clip(win, 0.0, 1.0), np.clip(dead_heat, 0.0, 1.0), np.maximum(redirections, 0.0)


def exact_win_probability_grid(
    params: LVParams, max_count: int, *, dead_heat_value: float = 0.0
) -> np.ndarray:
    """Exact probability that species 0 wins, for every state in the truncation.

    Returns an array ``grid`` of shape ``(max_count + 1, max_count + 1)`` with
    ``grid[a, b]`` the probability that species 0 is the sole survivor when
    started from ``(a, b)``.  Boundary rows follow the paper's conventions:
    ``grid[a, 0] = 1`` for ``a > 0``, ``grid[0, b] = 0`` for ``b > 0``.

    Parameters
    ----------
    dead_heat_value:
        Value assigned to the simultaneous-extinction state ``(0, 0)``, which
        is reachable under self-destructive competition (an interspecific
        event fired in state ``(1, 1)``).  The paper's strict definition of
        winning ("xᵢ > 0 and x₁₋ᵢ = 0") corresponds to 0.0 (the default).
        Theorem 20's exact identity ``ρ(a, b) = a/(a+b)`` holds under the
        convention that a dead heat counts as one half (pass 0.5); with the
        strict convention the true success probability is slightly below
        ``a/(a+b)`` for self-destructive systems because a small amount of
        probability mass ends in ``(0, 0)``.  Non-self-destructive systems
        never reach ``(0, 0)``, so the choice is irrelevant there.
    """
    win, _, _ = _solve(params, max_count, dead_heat_value)
    return win


def exact_majority_probability(
    params: LVParams,
    initial_state: LVState | tuple[int, int],
    *,
    max_count: int | None = None,
    dead_heat_value: float = 0.0,
) -> FirstStepResult:
    """Exact probability that species 0 wins from *initial_state*.

    Parameters
    ----------
    params:
        Model rates and mechanism.
    initial_state:
        Initial configuration ``(a, b)``.
    max_count:
        Truncation bound.  Defaults to a multiple of the initial total
        population that keeps the truncation error negligible for competitive
        systems (``4 * (a + b) + 10``); callers studying weakly regulated
        systems (no competition, β > δ) should pass a larger bound and check
        the ``truncation_mass`` diagnostic.
    dead_heat_value:
        How to score the simultaneous-extinction state ``(0, 0)``; see
        :func:`exact_win_probability_grid`.
    """
    if isinstance(initial_state, tuple):
        initial_state = LVState(int(initial_state[0]), int(initial_state[1]))
    if max_count is None:
        max_count = 4 * initial_state.total + 10
    if initial_state.maximum > max_count:
        raise AbsorptionError(
            f"initial state {initial_state} exceeds the truncation bound {max_count}"
        )
    win, dead_heat, redirections = _solve(params, max_count, dead_heat_value)
    a, b = initial_state.x0, initial_state.x1
    return FirstStepResult(
        initial_state=(a, b),
        win_probability=float(win[a, b]),
        max_count=int(max_count),
        truncation_mass=float(redirections[a, b]),
        dead_heat_probability=float(dead_heat[a, b]),
    )
