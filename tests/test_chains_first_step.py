"""The vectorised first-step solver against a per-state reference.

The reference assembles ``I − P`` one state at a time from
:meth:`LVJumpChainSimulator.transition_distribution` into a dict of entries,
and the dense reference solve uses :func:`numpy.linalg.solve` on it.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.sparse import coo_matrix, csr_matrix

from repro.chains.first_step import (
    _assemble,
    exact_majority_probability,
    exact_win_probability_grid,
)
from repro.exceptions import AbsorptionError
from repro.lv.params import CompetitionMechanism, LVParams
from repro.lv.simulator import LVJumpChainSimulator
from repro.lv.state import LVState

MECHANISMS = list(CompetitionMechanism)


def t1r2_params(mechanism: CompetitionMechanism) -> LVParams:
    """T1R2's balanced rates (β = δ = α = 1, γ = 2)."""
    return LVParams.neutral(beta=1.0, delta=1.0, alpha=1.0, gamma=2.0, mechanism=mechanism)


def generic_params(mechanism: CompetitionMechanism) -> LVParams:
    """Asymmetric rates whose propensities are not exact binary fractions."""
    return LVParams(
        beta=0.8,
        delta=1.2,
        alpha0=0.4,
        alpha1=0.6,
        gamma0=0.3,
        gamma1=0.1,
        mechanism=mechanism,
    )


def reference_system(params: LVParams, max_count: int) -> tuple[csr_matrix, np.ndarray]:
    """``I − P`` and the redirected probability per state, state by state."""
    simulator = LVJumpChainSimulator(params)
    size = max_count + 1
    entries: dict[tuple[int, int], float] = {}
    redirected = np.zeros(size * size)
    for a in range(size):
        for b in range(size):
            index = a * size + b
            entries[index, index] = 1.0
            if a == 0 or b == 0:
                continue
            for (na, nb), probability in simulator.transition_distribution(LVState(a, b)).items():
                if na > max_count or nb > max_count:
                    redirected[index] += probability
                else:
                    key = (index, na * size + nb)
                    entries[key] = entries.get(key, 0.0) - probability
            entries[index, index] -= redirected[index]
    rows, columns = zip(*entries)
    matrix = coo_matrix(
        (list(entries.values()), (rows, columns)), shape=(size * size, size * size)
    ).tocsr()
    return matrix, redirected


def dense_reference_solution(
    params: LVParams, max_count: int, dead_heat_value: float
) -> np.ndarray:
    """Win, dead-heat and redirected-step grids from a dense solve, ``(3, size, size)``."""
    matrix, redirected = reference_system(params, max_count)
    size = max_count + 1
    rhs = np.zeros((size * size, 3))
    rhs[size::size, 0] = 1.0
    rhs[0, 0] = dead_heat_value
    rhs[0, 1] = 1.0
    rhs[:, 2] = redirected
    solution = np.linalg.solve(matrix.toarray(), rhs)
    return solution.T.reshape(3, size, size)


class TestAssembly:
    @pytest.mark.parametrize("mechanism", MECHANISMS)
    @pytest.mark.parametrize("max_count", [1, 6, 15])
    def test_bitwise_equal_to_reference_for_t1r2_rates(self, mechanism, max_count):
        params = t1r2_params(mechanism)
        matrix, redirected = _assemble(params, max_count)
        reference, reference_redirected = reference_system(params, max_count)
        assert np.array_equal(matrix.indptr, reference.indptr)
        assert np.array_equal(matrix.indices, reference.indices)
        assert np.array_equal(matrix.data, reference.data)
        assert np.array_equal(redirected, reference_redirected)

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_generic_rates_within_rounding_of_reference(self, mechanism):
        params = generic_params(mechanism)
        matrix, redirected = _assemble(params, 12)
        reference, reference_redirected = reference_system(params, 12)
        assert np.array_equal(matrix.indptr, reference.indptr)
        assert np.array_equal(matrix.indices, reference.indices)
        assert np.max(np.abs(matrix.data - reference.data)) <= 1e-15
        assert np.max(np.abs(redirected - reference_redirected)) <= 1e-15


class TestDenseReference:
    @pytest.mark.parametrize("mechanism", MECHANISMS)
    @pytest.mark.parametrize("rates", [t1r2_params, generic_params])
    @pytest.mark.parametrize("dead_heat_value", [0.0, 0.5])
    def test_grid_matches_dense_solve(self, mechanism, rates, dead_heat_value):
        params = rates(mechanism)
        win, _, _ = dense_reference_solution(params, 12, dead_heat_value)
        grid = exact_win_probability_grid(params, 12, dead_heat_value=dead_heat_value)
        np.testing.assert_allclose(grid, win, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_result_fields_match_dense_solve(self, mechanism):
        params = generic_params(mechanism)
        _, dead_heat, redirections = dense_reference_solution(params, 10, 0.0)
        for a, b in [(1, 1), (4, 3), (7, 2), (10, 10)]:
            result = exact_majority_probability(params, (a, b), max_count=10)
            assert result.dead_heat_probability == pytest.approx(dead_heat[a, b], abs=1e-12)
            assert result.truncation_mass == pytest.approx(redirections[a, b], rel=1e-9)


class TestDeadHeat:
    @pytest.mark.parametrize("state", [(1, 1), (3, 2), (6, 4), (5, 5)])
    def test_zero_without_self_destruction(self, nsd_params, nsd_balanced_params, state):
        for params in (nsd_params, nsd_balanced_params):
            result = exact_majority_probability(params, state, max_count=20)
            assert result.dead_heat_probability == 0.0

    @pytest.mark.parametrize("state", [(1, 1), (3, 2), (6, 4), (5, 5)])
    def test_equals_the_half_convention_difference(self, sd_params, sd_balanced_params, state):
        for params in (sd_params, sd_balanced_params):
            strict = exact_win_probability_grid(params, 20, dead_heat_value=0.0)
            half = exact_win_probability_grid(params, 20, dead_heat_value=0.5)
            result = exact_majority_probability(params, state, max_count=20)
            assert result.dead_heat_probability > 0.0
            assert result.dead_heat_probability == pytest.approx(
                (half[state] - strict[state]) / 0.5, abs=1e-12
            )


class TestTruncationMass:
    def test_negligible_when_competition_regulates_the_population(self, sd_balanced_params):
        result = exact_majority_probability(
            sd_balanced_params, (30, 10), max_count=120, dead_heat_value=0.5
        )
        assert result.truncation_mass < 1e-100
        assert result.win_probability == pytest.approx(0.75, abs=1e-6)

    def test_large_when_the_truncation_biases_rho(self):
        params = LVParams(beta=1.0, delta=1.0, alpha0=0.0, alpha1=0.0)
        result = exact_majority_probability(params, (12, 8), max_count=60)
        assert result.truncation_mass > 1.0
        assert abs(result.win_probability - 0.6) > 1e-4


class TestAbsorptionErrors:
    def test_max_count_below_one(self, sd_params):
        with pytest.raises(AbsorptionError, match="max_count must be at least 1, got 0"):
            exact_win_probability_grid(sd_params, 0)
        with pytest.raises(AbsorptionError, match="max_count must be at least 1, got 0"):
            exact_majority_probability(sd_params, (0, 0), max_count=0)

    def test_pure_birth_cannot_leave_the_corner(self):
        params = LVParams(beta=1.0, delta=0.0, alpha0=0.0, alpha1=0.0)
        with pytest.raises(
            AbsorptionError,
            match=r"^state \(5, 5\) has no outgoing probability after truncation; "
            r"increase max_count$",
        ):
            exact_majority_probability(params, (5, 5), max_count=5)

    def test_intraspecific_only_state_without_propensity(self):
        params = LVParams(beta=0.0, delta=0.0, alpha0=0.0, alpha1=0.0, gamma0=1.0, gamma1=1.0)
        with pytest.raises(
            AbsorptionError, match=r"^state \(1, 1\) has no outgoing probability"
        ):
            exact_majority_probability(params, (1, 1))
