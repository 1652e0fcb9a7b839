"""Tests for the dominating chain, the pseudo-coupling, and first-step analysis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.chains.dominating import (
    DominatingChainReport,
    PseudoCoupling,
    check_domination,
    compare_domination,
)
from repro.chains.first_step import exact_majority_probability, exact_win_probability_grid
from repro.chains.nice import lv_dominating_birth_death
from repro.consensus.exact import proportional_win_probability
from repro.exceptions import AbsorptionError, ModelError
from repro.lv.params import CompetitionMechanism, LVParams
from repro.lv.simulator import LVJumpChainSimulator
from repro.lv.state import LVState
from repro.rng import spawn_generators


def fast_params(self_destructive: bool = True) -> LVParams:
    """LV rates whose dominating chain has no uphill stretch (fast to simulate)."""
    mechanism = (
        CompetitionMechanism.SELF_DESTRUCTIVE
        if self_destructive
        else CompetitionMechanism.NON_SELF_DESTRUCTIVE
    )
    return LVParams(beta=0.25, delta=0.25, alpha0=1.0, alpha1=1.0, mechanism=mechanism)


class TestCheckDomination:
    def test_holds_for_neutral_sd(self, sd_params):
        report = check_domination(sd_params, max_count=40)
        assert report.holds
        assert report.states_checked == 40 * 41 // 2

    def test_holds_for_neutral_nsd(self, nsd_params):
        assert check_domination(nsd_params, max_count=40).holds

    def test_holds_for_asymmetric_rates(self):
        params = LVParams(beta=0.3, delta=1.7, alpha0=0.2, alpha1=1.3)
        assert check_domination(params, max_count=30).holds

    def test_holds_without_death_reactions(self):
        params = LVParams.self_destructive(beta=1.0, delta=0.0, alpha=1.0)
        assert check_domination(params, max_count=30).holds

    def test_requires_gamma_zero(self):
        params = LVParams.self_destructive(beta=1.0, delta=1.0, alpha=1.0, gamma=1.0)
        with pytest.raises(ModelError):
            check_domination(params)


class TestDominationProbabilities:
    def test_bad_event_probability_matches_lemma_12(self, sd_params):
        """P(a, b) = (delta*a + beta*b) / phi(a, b) and is below p(min(a,b))."""
        from repro.chains.nice import lv_dominating_birth_death
        from repro.lv.simulator import LVJumpChainSimulator

        simulator = LVJumpChainSimulator(sd_params)
        chain = lv_dominating_birth_death(
            beta=sd_params.beta,
            delta=sd_params.delta,
            alpha0=sd_params.alpha0,
            alpha1=sd_params.alpha1,
        )
        for a, b in [(1, 1), (5, 3), (10, 10), (40, 7), (100, 1)]:
            state = LVState(a, b)
            phi = sd_params.total_propensity(a, b)
            expected = (sd_params.delta * max(a, b) + sd_params.beta * min(a, b)) / phi
            assert simulator.bad_noncompetitive_probability(state) == pytest.approx(expected)
            assert simulator.bad_noncompetitive_probability(state) <= chain.birth_probability(
                min(a, b)
            ) + 1e-12

    def test_good_event_probability_above_q(self, nsd_params):
        from repro.chains.nice import lv_dominating_birth_death
        from repro.lv.simulator import LVJumpChainSimulator

        simulator = LVJumpChainSimulator(nsd_params)
        chain = lv_dominating_birth_death(
            beta=nsd_params.beta,
            delta=nsd_params.delta,
            alpha0=nsd_params.alpha0,
            alpha1=nsd_params.alpha1,
        )
        for a, b in [(2, 1), (8, 8), (30, 4)]:
            state = LVState(a, b)
            assert simulator.good_event_probability(state) >= chain.death_probability(
                min(a, b)
            ) - 1e-12

    def test_zero_when_consensus_reached(self, sd_params):
        from repro.lv.simulator import LVJumpChainSimulator

        simulator = LVJumpChainSimulator(sd_params)
        assert simulator.bad_noncompetitive_probability(LVState(5, 0)) == 0.0
        assert simulator.good_event_probability(LVState(0, 5)) == 0.0


class TestPseudoCoupling:
    def test_invariants_hold_on_sampled_paths(self):
        coupling = PseudoCoupling(fast_params(self_destructive=True))
        for seed in range(5):
            trace = coupling.run(LVState(20, 12), rng=seed)
            assert trace.invariant_held
            assert trace.single_chain_extinct
            assert trace.bad_events <= trace.births

    def test_invariants_hold_for_nsd(self):
        coupling = PseudoCoupling(fast_params(self_destructive=False))
        trace = coupling.run(LVState(15, 15), rng=1)
        assert trace.invariant_held

    def test_requires_interspecific_competition(self):
        with pytest.raises(ModelError):
            PseudoCoupling(LVParams.self_destructive(beta=1.0, delta=1.0, alpha=0.0, gamma=1.0))

    def test_rejects_intraspecific(self):
        with pytest.raises(ModelError):
            PseudoCoupling(LVParams.self_destructive(beta=1.0, delta=1.0, alpha=1.0, gamma=0.5))


def interleaved_report(params, initial_state, *, num_runs, rng, max_events=5_000_000):
    """``compare_domination`` as a scalar loop: two-species run i, then chain run i."""
    chain = lv_dominating_birth_death(
        beta=params.beta, delta=params.delta, alpha0=params.alpha0, alpha1=params.alpha1
    )
    simulator = LVJumpChainSimulator(params)
    generators = spawn_generators(rng, 2 * num_runs)
    consensus_times = np.empty(num_runs)
    bad_events = np.empty(num_runs)
    extinction_times = np.empty(num_runs)
    births = np.empty(num_runs)
    for i in range(num_runs):
        result = simulator.run(initial_state, rng=generators[i], max_events=max_events)
        consensus_times[i] = result.total_events
        bad_events[i] = result.bad_noncompetitive_events
        summary = chain.simulate_to_absorption(
            initial_state.total, rng=generators[num_runs + i], max_steps=max_events
        )
        extinction_times[i] = summary.extinction_time
        births[i] = summary.births
    return DominatingChainReport(
        initial_state=(initial_state.x0, initial_state.x1),
        num_runs=num_runs,
        mean_consensus_time=float(consensus_times.mean()),
        mean_extinction_time=float(extinction_times.mean()),
        q95_consensus_time=float(np.quantile(consensus_times, 0.95)),
        q95_extinction_time=float(np.quantile(extinction_times, 0.95)),
        mean_bad_events=float(bad_events.mean()),
        mean_births=float(births.mean()),
        q95_bad_events=float(np.quantile(bad_events, 0.95)),
        q95_births=float(np.quantile(births, 0.95)),
    )


class TestCompareDomination:
    def test_two_species_quantities_are_dominated(self):
        report = compare_domination(
            fast_params(self_destructive=True), LVState(40, 24), num_runs=80, rng=9
        )
        assert report.time_dominated
        assert report.bad_events_dominated
        assert report.mean_consensus_time <= report.mean_extinction_time

    def test_invalid_runs_rejected(self, sd_params):
        with pytest.raises(ValueError):
            compare_domination(sd_params, LVState(10, 5), num_runs=0)

    @pytest.mark.parametrize("self_destructive", [True, False], ids=["SD", "NSD"])
    def test_equals_interleaved_scalar_replay(self, self_destructive):
        """The lock-step chain leg gives the report of the one-by-one loop."""
        params = fast_params(self_destructive)
        state = LVState(36, 28)
        report = compare_domination(params, state, num_runs=20, rng=2024)
        assert report == interleaved_report(params, state, num_runs=20, rng=2024)


class TestFirstStepExact:
    def test_theorem_20_sd_balanced(self, sd_balanced_params):
        """rho = a/(a+b) for SD with gamma0 = gamma1 = alpha (dead heats as 1/2)."""
        for a, b in [(3, 2), (6, 4), (9, 3), (7, 7)]:
            result = exact_majority_probability(
                sd_balanced_params, (a, b), max_count=3 * (a + b), dead_heat_value=0.5
            )
            assert result.win_probability == pytest.approx(a / (a + b), abs=1e-6)

    def test_theorem_20_strict_definition_is_below_proportion(self, sd_balanced_params):
        result = exact_majority_probability(sd_balanced_params, (6, 4), max_count=30)
        assert result.win_probability < 0.6

    def test_theorem_23_nsd_balanced(self, nsd_balanced_params):
        """rho = a/(a+b) for NSD with gamma = 2*alpha; no dead-heat convention needed."""
        for a, b in [(3, 2), (6, 4), (9, 3)]:
            result = exact_majority_probability(nsd_balanced_params, (a, b), max_count=3 * (a + b))
            assert result.win_probability == pytest.approx(a / (a + b), abs=1e-6)

    def test_rate_independence_of_exact_formula(self):
        """The a/(a+b) identity holds regardless of beta and delta (Theorems 20/23)."""
        for beta, delta in [(0.0, 0.0), (2.0, 0.5), (0.3, 3.0)]:
            params = LVParams.non_self_destructive(beta=beta, delta=delta, alpha=1.0, gamma=2.0)
            result = exact_majority_probability(params, (8, 4), max_count=40)
            assert result.win_probability == pytest.approx(2 / 3, abs=1e-6)

    def test_unbalanced_rates_deviate_from_proportion(self):
        """Without the balanced-rate condition the proportional rule fails."""
        params = LVParams.self_destructive(beta=1.0, delta=1.0, alpha=1.0, gamma=0.5)
        result = exact_majority_probability(params, (6, 4), max_count=40, dead_heat_value=0.5)
        assert result.win_probability != pytest.approx(0.6, abs=0.01)

    def test_interspecific_only_beats_proportion(self, sd_params):
        """With interspecific competition only, the majority does far better than a/(a+b)."""
        result = exact_majority_probability(sd_params, (15, 5), max_count=60)
        assert result.win_probability > proportional_win_probability((15, 5)) + 0.1

    def test_grid_boundaries(self, sd_params):
        grid = exact_win_probability_grid(sd_params, 6)
        assert grid[0, 0] == 0.0
        assert grid[3, 0] == 1.0
        assert grid[0, 3] == 0.0
        assert np.all((grid >= 0.0) & (grid <= 1.0))

    def test_monotone_in_first_species_count(self, sd_params):
        grid = exact_win_probability_grid(sd_params, 10)
        # For a fixed minority count, adding majority individuals can only help.
        for b in range(1, 6):
            column = grid[1:, b]
            assert np.all(np.diff(column) >= -1e-9)

    def test_symmetry_for_neutral_systems(self, nsd_params):
        # Under NSD competition no dead heat is possible, so by neutrality the
        # win probabilities from mirrored states must sum to exactly one.
        grid = exact_win_probability_grid(nsd_params, 8)
        for a in range(1, 9):
            for b in range(1, 9):
                assert grid[a, b] + grid[b, a] == pytest.approx(1.0, abs=1e-8)

    def test_mirrored_states_account_for_dead_heats(self, sd_params):
        # Under SD competition the missing mass in mirrored states is exactly
        # the dead-heat probability, which the 1/2-convention splits evenly.
        strict = exact_win_probability_grid(sd_params, 8, dead_heat_value=0.0)
        half = exact_win_probability_grid(sd_params, 8, dead_heat_value=0.5)
        for a in range(1, 9):
            for b in range(1, 9):
                assert half[a, b] + half[b, a] == pytest.approx(1.0, abs=1e-8)
                assert strict[a, b] <= half[a, b] + 1e-12

    def test_invalid_dead_heat_value(self, sd_params):
        with pytest.raises(AbsorptionError):
            exact_win_probability_grid(sd_params, 5, dead_heat_value=1.5)

    def test_initial_state_must_fit_truncation(self, sd_params):
        with pytest.raises(AbsorptionError):
            exact_majority_probability(sd_params, (10, 5), max_count=8)

    def test_agrees_with_monte_carlo(self, sd_params):
        from repro.consensus.estimator import estimate_majority_probability

        exact = exact_majority_probability(sd_params, (12, 6), max_count=60).win_probability
        estimate = estimate_majority_probability(sd_params, LVState(12, 6), num_runs=600, rng=21)
        assert estimate.success.lower - 0.03 <= exact <= estimate.success.upper + 0.03
