"""Tests for birth-death chains, nice chains and exact absorption solvers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chains.absorption import (
    absorption_probabilities,
    expected_absorption_time,
    expected_births_before_absorption,
)
from repro.chains.birth_death import UNIFORM_BLOCK, BirthDeathChain, BirthDeathSummary
from repro.chains.nice import certify_nice, lv_dominating_birth_death, simulate_extinction
from repro.exceptions import AbsorptionError, BudgetExceededError, ModelError
from repro.rng import spawn_generators


def pure_death_chain() -> BirthDeathChain:
    return BirthDeathChain(lambda n: 0.0, lambda n: 1.0, name="pure death")


def lazy_random_walk(p: float = 0.3, q: float = 0.4) -> BirthDeathChain:
    return BirthDeathChain(lambda n: p, lambda n: q, name="lazy walk")


def fast_dominating_chain() -> BirthDeathChain:
    """Dominating chain with alpha_min comparable to theta (no uphill stretch).

    With beta = delta = 0.25 and alpha0 = alpha1 = 1 the death probability
    (1/3) exceeds the birth probability everywhere, so simulated extinction
    times stay close to n and the Monte-Carlo tests below run in milliseconds.
    """
    return lv_dominating_birth_death(beta=0.25, delta=0.25, alpha0=1.0, alpha1=1.0)


class TestBirthDeathChainBasics:
    def test_absorbing_at_zero(self):
        chain = lazy_random_walk()
        assert chain.birth_probability(0) == 0.0
        assert chain.death_probability(0) == 0.0
        assert chain.holding_probability(0) == 1.0
        assert chain.is_absorbing(0)
        assert not chain.is_absorbing(3)

    def test_probability_validation(self):
        bad = BirthDeathChain(lambda n: 0.8, lambda n: 0.6)
        with pytest.raises(ModelError):
            bad.birth_probability(1)

    def test_negative_state_rejected(self):
        with pytest.raises(ModelError):
            lazy_random_walk().birth_probability(-1)

    def test_step_from_zero_stays(self):
        assert pure_death_chain().step(0, rng=0) == 0

    def test_step_moves_down_for_pure_death(self):
        assert pure_death_chain().step(5, rng=0) == 4

    def test_pure_death_extinction_time_is_initial_state(self):
        summary = pure_death_chain().simulate_to_absorption(9, rng=1)
        assert summary.extinction_time == 9
        assert summary.births == 0
        assert summary.deaths == 9
        assert summary.holding_steps == 0
        assert summary.max_state == 9

    def test_budget_exceeded(self):
        # A chain that can never die below state 5 within the budget.
        stuck = BirthDeathChain(lambda n: 0.0, lambda n: 0.0)
        with pytest.raises(BudgetExceededError):
            stuck.simulate_to_absorption(5, rng=0, max_steps=100)

    def test_sample_path_length(self):
        path = lazy_random_walk().sample_path(4, 20, rng=2)
        assert len(path) == 21
        assert path[0] == 4
        assert np.all(path >= 0)

    def test_summary_consistency_enforced(self):
        with pytest.raises(ValueError):
            BirthDeathSummary(
                initial_state=3, extinction_time=5, births=1, deaths=3, holding_steps=2, max_state=4
            )

    def test_transition_matrix_rows_sum_to_one(self):
        matrix = lazy_random_walk().transition_matrix(10)
        assert matrix.shape == (11, 11)
        assert np.allclose(matrix.sum(axis=1), 1.0)

    def test_transition_matrix_requires_positive_bound(self):
        with pytest.raises(ValueError):
            lazy_random_walk().transition_matrix(0)


class TestNiceChain:
    def test_lv_dominating_chain_matches_paper_formulas(self):
        beta, delta, alpha0, alpha1 = 1.0, 0.5, 0.4, 0.6
        chain = lv_dominating_birth_death(beta=beta, delta=delta, alpha0=alpha0, alpha1=alpha1)
        theta = beta + delta
        alpha = alpha0 + alpha1
        for m in (1, 2, 5, 17, 100):
            assert chain.birth_probability(m) == pytest.approx(theta / (alpha * m + theta))
            assert chain.death_probability(m) == pytest.approx(
                min(alpha0, alpha1) / (alpha + 2 * theta)
            )

    def test_lv_dominating_chain_probabilities_valid(self):
        chain = lv_dominating_birth_death(beta=2.0, delta=2.0, alpha0=0.1, alpha1=0.1)
        for m in range(1, 200):
            p = chain.birth_probability(m)
            q = chain.death_probability(m)
            assert 0.0 <= p and 0.0 <= q and p + q <= 1.0 + 1e-12

    def test_requires_positive_alpha_min(self):
        with pytest.raises(ModelError):
            lv_dominating_birth_death(beta=1.0, delta=1.0, alpha0=0.0, alpha1=1.0)

    def test_rejects_negative_rates(self):
        with pytest.raises(ModelError):
            lv_dominating_birth_death(beta=-1.0, delta=1.0, alpha0=1.0, alpha1=1.0)

    def test_certificate_confirms_niceness(self):
        chain = lv_dominating_birth_death(beta=1.0, delta=1.0, alpha0=0.5, alpha1=0.5)
        certificate = certify_nice(chain, max_state=500)
        assert certificate.is_nice
        assert certificate.death_constant > 0.0
        # C = max_n n * p(n) = max_n n*theta/(alpha*n+theta) <= theta/alpha = 2.
        assert certificate.birth_constant <= 2.0 + 1e-9

    def test_certificate_flags_non_nice_chain(self):
        # Constant birth probability does not satisfy p(n) <= C/n in spirit,
        # but the finite check reports the empirical constants; a chain with
        # zero death probability is flagged as not nice.
        chain = BirthDeathChain(lambda n: 0.2, lambda n: 0.0)
        certificate = certify_nice(chain, max_state=50)
        assert not certificate.is_nice

    def test_simulate_extinction_statistics(self):
        chain = fast_dominating_chain()
        stats = simulate_extinction(chain, 100, num_runs=50, rng=3)
        assert stats.num_runs == 50
        # E(n) >= n always; expected Theta(n) so the mean should not explode.
        assert stats.mean_extinction_time >= 100
        assert stats.mean_extinction_time < 100 * 30
        # Births should be logarithmic, i.e. tiny compared with n.
        assert stats.mean_births < 25

    def test_simulate_extinction_validates_runs(self):
        chain = lv_dominating_birth_death(beta=1.0, delta=1.0, alpha0=0.5, alpha1=0.5)
        with pytest.raises(ValueError):
            simulate_extinction(chain, 10, num_runs=0)


class TestExactAbsorption:
    def test_pure_death_expected_time_is_state(self):
        times = expected_absorption_time(pure_death_chain(), 20)
        assert np.allclose(times, np.arange(1, 21))

    def test_lazy_walk_times_are_increasing(self):
        times = expected_absorption_time(lazy_random_walk(0.2, 0.5), 30)
        assert np.all(np.diff(times) > 0)

    def test_expected_births_pure_death_is_zero(self):
        births = expected_births_before_absorption(pure_death_chain(), 20)
        assert np.allclose(births, 0.0)

    def test_expected_births_nice_chain_is_logarithmic(self):
        chain = fast_dominating_chain()
        births = expected_births_before_absorption(chain, 400)
        # Lemma 6: E[B(n)] = O(log n).  Check against C * H_n with a generous constant.
        harmonic = np.cumsum(1.0 / np.arange(1, 401))
        assert np.all(births <= 4.0 * harmonic + 1.0)
        # And it should grow, however slowly.
        assert births[-1] > births[0]

    def test_absorption_probability_approaches_one_for_subcritical(self):
        chain = lazy_random_walk(0.2, 0.5)
        probabilities = absorption_probabilities(chain, 60)
        assert probabilities[0] > 0.99
        assert np.all((0.0 <= probabilities) & (probabilities <= 1.0))

    def test_absorption_probability_below_one_for_supercritical(self):
        chain = lazy_random_walk(0.5, 0.2)
        probabilities = absorption_probabilities(chain, 60)
        assert probabilities[10] < 0.5

    def test_invalid_bound_rejected(self):
        with pytest.raises(AbsorptionError):
            expected_absorption_time(pure_death_chain(), 0)

    def test_monte_carlo_agrees_with_exact_expectation(self):
        chain = fast_dominating_chain()
        exact = expected_absorption_time(chain, 200)[49]  # start state 50
        stats = simulate_extinction(chain, 50, num_runs=300, rng=5)
        assert stats.mean_extinction_time == pytest.approx(exact, rel=0.15)

    @pytest.mark.parametrize("max_state", [20, 57, 400])
    @pytest.mark.parametrize(
        "chain",
        [
            pure_death_chain(),
            lazy_random_walk(0.2, 0.5),
            fast_dominating_chain(),
            lv_dominating_birth_death(beta=0.5, delta=0.5, alpha0=1.0, alpha1=1.0),
        ],
        ids=["pure-death", "lazy-walk", "fig-bad", "climbing"],
    )
    def test_banded_solves_match_dense_reference(self, chain, max_state):
        """The tridiagonal solves equal a dense solve of the same first-step systems."""
        matrix = chain.transition_matrix(max_state)
        transient = matrix[1:, 1:]
        system = np.eye(max_state) - transient
        births = np.array([chain.birth_probability(n) for n in range(1, max_state + 1)])
        # Without the reflecting fold, a birth out of max_state leaves the box.
        leaking = system.copy()
        leaking[-1, -1] += births[-1]
        birth_reward = births.copy()
        birth_reward[-1] = 0.0
        np.testing.assert_allclose(
            expected_absorption_time(chain, max_state),
            np.linalg.solve(system, np.ones(max_state)),
            rtol=1e-9,
        )
        np.testing.assert_allclose(
            expected_births_before_absorption(chain, max_state),
            np.linalg.solve(system, birth_reward),
            rtol=1e-9,
            atol=1e-12,
        )
        np.testing.assert_allclose(
            absorption_probabilities(chain, max_state),
            np.clip(np.linalg.solve(leaking, matrix[1:, 0]), 0.0, 1.0),
            rtol=1e-9,
        )

    def test_large_box_solves(self):
        """Box 8192 (4n at n = 2048) is a banded solve, not a 512 MB dense matrix."""
        chain = fast_dominating_chain()
        times = expected_absorption_time(chain, 8192)
        births = expected_births_before_absorption(chain, 8192)
        assert times.shape == births.shape == (8192,)
        assert np.all(np.isfinite(times)) and np.all(np.diff(times) > 0)
        # Lemma 5: E[E(n)] = Theta(n); Lemma 6: E[B(n)] = O(log n).
        assert 2.5 < times[2047] / 2048 < 3.5
        assert births[2047] < 2.0 * np.log(2048)

    def test_pure_birth_system_is_singular(self):
        pure_birth = BirthDeathChain(lambda n: 1.0, lambda n: 0.0)
        with pytest.raises(AbsorptionError):
            expected_absorption_time(pure_birth, 10)
        with pytest.raises(AbsorptionError):
            expected_births_before_absorption(pure_birth, 10)

    def test_invalid_bound_rejected_by_every_solver(self):
        for solver in (
            expected_absorption_time,
            expected_births_before_absorption,
            absorption_probabilities,
        ):
            with pytest.raises(AbsorptionError):
                solver(pure_death_chain(), 0)


class ScriptedGenerator(np.random.Generator):
    """A generator whose uniforms repeat a fixed script, to hit exact boundaries."""

    def __init__(self, script):
        super().__init__(np.random.PCG64(0))
        self._script = list(script)
        self._drawn = 0

    def random(self, size=None, dtype=np.float64, out=None):
        if size is not None:
            return np.array([self.random() for _ in range(size)])
        value = self._script[self._drawn % len(self._script)]
        self._drawn += 1
        return value


def invalid_above(threshold: int) -> BirthDeathChain:
    """Valid below *threshold*; ``p + q > 1`` from *threshold* upwards."""
    return BirthDeathChain(lambda n: 0.3 if n < threshold else 0.7, lambda n: 0.5)


def scalar_runs(chain, initial_state, generators, **kwargs):
    return [chain.simulate_to_absorption(initial_state, rng=g, **kwargs) for g in generators]


RUNNER_CHAINS = {
    "fig-bad": fast_dominating_chain,
    # p(1) = 1/3 > q = 1/4: the chain climbs at m = 1.
    "climbing": lambda: lv_dominating_birth_death(beta=0.5, delta=0.5, alpha0=1.0, alpha1=1.0),
    # p + q = 1: every step is a birth or a death.
    "lazy-full": lambda: lazy_random_walk(0.45, 0.55),
    "pure-death": pure_death_chain,
}


class TestLockstepRunner:
    """``simulate_runs_to_absorption`` is the scalar loop, bit for bit."""

    @pytest.mark.parametrize("num_runs", [1, 3, 100])
    @pytest.mark.parametrize("initial_state", [0, 1, 64])
    @pytest.mark.parametrize("name", sorted(RUNNER_CHAINS))
    def test_runner_equals_scalar_loop(self, name, initial_state, num_runs):
        chain = RUNNER_CHAINS[name]()
        seed = 1000 * initial_state + num_runs
        expected = scalar_runs(chain, initial_state, spawn_generators(seed, num_runs))
        got = chain.simulate_runs_to_absorption(initial_state, spawn_generators(seed, num_runs))
        assert got == expected

    @pytest.mark.parametrize("num_runs", [1, 3, 100])
    def test_runs_outlasting_one_block(self, num_runs):
        chain = pure_death_chain()
        start = UNIFORM_BLOCK + 37
        got = chain.simulate_runs_to_absorption(start, spawn_generators(5, num_runs))
        assert got == scalar_runs(chain, start, spawn_generators(5, num_runs))
        assert all(summary.extinction_time == start for summary in got)

    def test_long_mixed_runs_cross_block_boundaries(self):
        chain = lazy_random_walk(0.45, 0.55)
        got = chain.simulate_runs_to_absorption(64, spawn_generators(8, 100))
        assert got == scalar_runs(chain, 64, spawn_generators(8, 100))
        assert max(summary.extinction_time for summary in got) > 2 * UNIFORM_BLOCK

    @pytest.mark.parametrize(
        "p, q, script, expected",
        [
            # u == p is not a birth; u == 1 - q is a death.
            (0.25, 0.5, [0.25, 0.5], (2, 0, 1, 1, 1)),
            # Inside the p + q > 1 overlap a uniform is a birth, not a death.
            (0.5 + 4e-13, 0.5 + 4e-13, [0.5, 0.9, 0.9], (3, 1, 2, 0, 2)),
        ],
        ids=["ties", "overlap"],
    )
    def test_boundary_uniforms(self, p, q, script, expected):
        chain = BirthDeathChain(lambda n: p, lambda n: q)
        time, births, deaths, holds, peak = expected
        summary = BirthDeathSummary(1, time, births, deaths, holds, peak)
        # A wrong tie rule can cycle forever on a repeating script; the budget
        # turns that into a quick failure.
        scalar = chain.simulate_to_absorption(1, rng=ScriptedGenerator(script), max_steps=50)
        assert scalar == summary
        runner = chain.simulate_runs_to_absorption(
            1, [ScriptedGenerator(script), ScriptedGenerator(script)], max_steps=50
        )
        assert runner == [summary, summary]

    def test_evaluates_exactly_the_visited_states(self):
        def logged(log):
            return BirthDeathChain(lambda n: log.append(n) or 0.3, lambda n: 0.5)

        scalar_log: list[int] = []
        runner_log: list[int] = []
        expected = scalar_runs(logged(scalar_log), 20, spawn_generators(4, 30))
        got = logged(runner_log).simulate_runs_to_absorption(20, spawn_generators(4, 30))
        assert got == expected
        assert sorted(set(runner_log)) == sorted(set(scalar_log))

    def test_invalid_states_no_run_reaches_raise_nothing(self):
        chain = invalid_above(40)
        got = chain.simulate_runs_to_absorption(1, spawn_generators(2, 100))
        assert got == scalar_runs(chain, 1, spawn_generators(2, 100))
        assert max(summary.max_state for summary in got) < 40

    def test_invalid_visited_state_raises_on_both_paths(self):
        chain = invalid_above(40)
        with pytest.raises(ModelError):
            scalar_runs(chain, 37, spawn_generators(2, 100))
        with pytest.raises(ModelError):
            chain.simulate_runs_to_absorption(37, spawn_generators(2, 100))

    def test_budget_matches_scalar_loop(self):
        chain = fast_dominating_chain()
        longest = max(
            summary.extinction_time for summary in scalar_runs(chain, 64, spawn_generators(6, 20))
        )
        exact = chain.simulate_runs_to_absorption(
            64, spawn_generators(6, 20), max_steps=longest
        )
        assert exact == scalar_runs(chain, 64, spawn_generators(6, 20), max_steps=longest)
        with pytest.raises(BudgetExceededError):
            scalar_runs(chain, 64, spawn_generators(6, 20), max_steps=longest - 1)
        with pytest.raises(BudgetExceededError):
            chain.simulate_runs_to_absorption(
                64, spawn_generators(6, 20), max_steps=longest - 1
            )

    def test_rejects_bad_start_and_budget(self):
        chain = fast_dominating_chain()
        with pytest.raises(ModelError):
            chain.simulate_runs_to_absorption(-1, spawn_generators(0, 2))
        with pytest.raises(ValueError):
            chain.simulate_runs_to_absorption(5, spawn_generators(0, 2), max_steps=0)

    def test_no_generators_no_runs(self):
        assert fast_dominating_chain().simulate_runs_to_absorption(5, []) == []

    def test_simulate_extinction_statistics_match_scalar_loop(self):
        chain = fast_dominating_chain()
        stats = simulate_extinction(chain, 128, num_runs=100, rng=17)
        summaries = scalar_runs(chain, 128, spawn_generators(17, 100))
        times = np.array([s.extinction_time for s in summaries], dtype=float)
        births = np.array([s.births for s in summaries], dtype=float)
        peaks = np.array([s.max_state for s in summaries], dtype=float)
        assert stats.mean_extinction_time == float(times.mean())
        assert stats.max_extinction_time == int(times.max())
        assert stats.mean_births == float(births.mean())
        assert stats.max_births == int(births.max())
        assert stats.mean_max_state == float(peaks.mean())


class TestNiceChainProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        beta=st.floats(min_value=0.0, max_value=5.0),
        delta=st.floats(min_value=0.0, max_value=5.0),
        alpha0=st.floats(min_value=0.05, max_value=5.0),
        alpha1=st.floats(min_value=0.05, max_value=5.0),
        state=st.integers(min_value=1, max_value=10_000),
    )
    def test_dominating_chain_is_always_a_valid_nice_chain(
        self, beta, delta, alpha0, alpha1, state
    ):
        chain = lv_dominating_birth_death(beta=beta, delta=delta, alpha0=alpha0, alpha1=alpha1)
        p = chain.birth_probability(state)
        q = chain.death_probability(state)
        assert 0.0 <= p <= 1.0
        assert 0.0 < q <= 1.0
        assert p + q <= 1.0 + 1e-12
        # Nice-chain conditions with explicit constants from Section 5.2.
        theta = beta + delta
        alpha = alpha0 + alpha1
        assert p <= (theta / alpha) / state + 1e-12
        assert q >= min(alpha0, alpha1) / (alpha + 2 * theta) - 1e-12
