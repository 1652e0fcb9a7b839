"""Tests for the Monte-Carlo consensus estimator, gap traces and noise decomposition."""

from __future__ import annotations

import numpy as np
import pytest

from repro.consensus.estimator import (
    estimate_majority_probability,
    summarise_ensemble,
    summarise_runs,
)
from repro.consensus.gap import gap_trace_from_run
from repro.consensus.noise import decompose_noise
from repro.exceptions import EstimationError, InvalidConfigurationError
from repro.lv.ensemble import SweepMember, run_sweep_ensemble
from repro.lv.params import LVParams
from repro.lv.simulator import LVJumpChainSimulator
from repro.lv.state import LVState


class TestEstimator:
    def test_estimate_fields(self, sd_params):
        estimate = estimate_majority_probability(sd_params, LVState(30, 10), num_runs=80, rng=0)
        assert estimate.num_runs == 80
        assert estimate.success.trials == 80
        assert 0.0 <= estimate.majority_probability <= 1.0
        assert estimate.consensus_rate == 1.0
        assert estimate.initial_state == (30, 10)
        assert estimate.initial_gap == 20
        assert estimate.total_population == 40
        assert estimate.mean_consensus_time > 0
        assert estimate.q95_consensus_time >= estimate.mean_consensus_time * 0.5

    def test_reproducible_with_seed(self, nsd_params):
        first = estimate_majority_probability(nsd_params, LVState(25, 15), num_runs=50, rng=7)
        second = estimate_majority_probability(nsd_params, LVState(25, 15), num_runs=50, rng=7)
        assert first.majority_probability == second.majority_probability
        assert first.mean_consensus_time == second.mean_consensus_time

    def test_large_gap_gives_high_probability(self, sd_params):
        estimate = estimate_majority_probability(sd_params, LVState(90, 10), num_runs=100, rng=1)
        assert estimate.majority_probability >= 0.95

    def test_tiny_gap_close_to_half(self, nsd_params):
        # The true rho at gap 2 sits slightly above 1/2 (~0.57 by large-run
        # scalar simulation), so the tolerance is around that value, not 0.5.
        estimate = estimate_majority_probability(
            nsd_params, LVState.from_gap(100, 2), num_runs=400, rng=2
        )
        assert estimate.majority_probability == pytest.approx(0.55, abs=0.12)

    def test_meets_and_misses_target(self, sd_params):
        confident_win = estimate_majority_probability(
            sd_params, LVState(95, 5), num_runs=200, rng=3
        )
        assert confident_win.meets_target(0.8)
        coin_flip = estimate_majority_probability(
            sd_params, LVState.from_gap(50, 0), num_runs=200, rng=4
        )
        assert coin_flip.misses_target(0.9)

    def test_invalid_run_count(self, sd_params):
        with pytest.raises(EstimationError):
            estimate_majority_probability(sd_params, LVState(5, 3), num_runs=0)

    def test_invalid_confidence(self, sd_params):
        with pytest.raises(EstimationError):
            estimate_majority_probability(sd_params, LVState(5, 3), confidence=1.5)

    def test_invalid_event_budget_is_a_library_error(self, sd_params):
        with pytest.raises(InvalidConfigurationError, match="max_events"):
            estimate_majority_probability(sd_params, LVState(5, 3), max_events=0)

    def test_summarise_empty_batch_rejected(self):
        with pytest.raises(EstimationError):
            summarise_runs([])

    def test_summarise_ensemble_rejects_unknown_level(self, sd_params):
        (ensemble,) = run_sweep_ensemble([SweepMember(sd_params, LVState(12, 8), 10)], rng=0)
        with pytest.raises(EstimationError, match="collected must be one of"):
            summarise_ensemble(ensemble, collected="bogus")

    def test_dead_heat_rate_counted(self):
        params = LVParams.self_destructive(beta=0.0, delta=0.0, alpha=1.0)
        estimate = estimate_majority_probability(params, LVState(1, 1), num_runs=20, rng=0)
        assert estimate.dead_heat_rate == 1.0
        assert estimate.majority_probability == 0.0

    def test_agrees_with_exact_solution(self, nsd_balanced_params):
        estimate = estimate_majority_probability(
            nsd_balanced_params, LVState(9, 3), num_runs=800, rng=6
        )
        assert estimate.success.lower <= 0.75 <= estimate.success.upper


class TestGapTrace:
    def test_requires_recorded_path(self, sd_params):
        result = LVJumpChainSimulator(sd_params).run(LVState(10, 5), rng=0)
        with pytest.raises(ValueError):
            gap_trace_from_run(result)

    def test_trace_consistency(self, nsd_params):
        result = LVJumpChainSimulator(nsd_params).run(LVState(20, 12), rng=1, record_path=True)
        trace = gap_trace_from_run(result)
        assert trace.initial_gap == 8
        assert len(trace.gaps) == result.total_events + 1
        assert trace.total_noise == result.noise_total
        assert trace.final_gap == result.final_state.x0 - result.final_state.x1
        assert trace.max_adverse_excursion >= 0

    def test_hit_tie_matches_simulator_flag(self, nsd_params):
        simulator = LVJumpChainSimulator(nsd_params)
        for seed in range(5):
            result = simulator.run(LVState(12, 10), rng=seed, record_path=True)
            assert gap_trace_from_run(result).hit_tie == result.hit_tie

    def test_minority_reference_when_species1_is_majority(self, sd_params):
        result = LVJumpChainSimulator(sd_params).run(LVState(5, 15), rng=2, record_path=True)
        trace = gap_trace_from_run(result)
        # Gaps are signed with respect to the initial majority (species 1 here).
        assert trace.initial_gap == 10


class TestNoiseDecomposition:
    def test_sd_has_no_competitive_noise(self, sd_params):
        decomposition = decompose_noise(sd_params, LVState(40, 24), num_runs=60, rng=0)
        assert np.all(decomposition.competitive_noise == 0)
        assert decomposition.std_competitive_noise == 0.0
        assert decomposition.num_runs == 60

    def test_nsd_competitive_noise_dominates(self, nsd_params):
        decomposition = decompose_noise(nsd_params, LVState(140, 116), num_runs=80, rng=1)
        assert decomposition.std_competitive_noise > decomposition.std_individual_noise

    def test_total_is_sum_of_components(self, nsd_params):
        decomposition = decompose_noise(nsd_params, LVState(30, 20), num_runs=40, rng=2)
        assert np.all(
            decomposition.total_noise
            == decomposition.individual_noise + decomposition.competitive_noise
        )

    def test_quantile_and_summary_row(self, sd_params):
        decomposition = decompose_noise(sd_params, LVState(30, 20), num_runs=40, rng=3)
        assert decomposition.quantile("total", 0.5) <= decomposition.quantile("total", 0.95)
        row = decomposition.summary_row()
        assert row["mechanism"] == "SD"
        assert row["n"] == 50

    def test_unknown_component_rejected(self, sd_params):
        decomposition = decompose_noise(sd_params, LVState(10, 6), num_runs=10, rng=4)
        with pytest.raises(EstimationError):
            decomposition.quantile("bogus", 0.5)

    def test_invalid_run_count(self, sd_params):
        with pytest.raises(EstimationError):
            decompose_noise(sd_params, LVState(10, 6), num_runs=0)

    def test_invalid_event_budget_is_a_library_error(self, sd_params):
        with pytest.raises(InvalidConfigurationError, match="max_events"):
            decompose_noise(sd_params, LVState(10, 6), max_events=0)
