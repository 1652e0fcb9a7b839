"""Tests for the vectorized LV replica ensemble (:mod:`repro.lv.ensemble`).

The lock-step ensemble must be a statistical drop-in for the scalar
:class:`~repro.lv.simulator.LVJumpChainSimulator`: same win probabilities,
same consensus-time distribution, same event accounting — verified here on a
fixed seed budget with tolerances sized for the replicate counts used.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import InvalidConfigurationError
from repro.lv.ensemble import LVEnsembleResult, SweepMember, run_sweep_ensemble
from repro.lv.simulator import DEFAULT_MAX_EVENTS, LVJumpChainSimulator
from repro.lv.state import LVState
from repro.rng import as_generator

from helpers_statistical import assert_statistically_close


STATE = LVState(36, 24)


def _scalar_batch(params, state, num_runs, seed):
    simulator = LVJumpChainSimulator(params)
    generator = as_generator(seed)
    return [simulator.run(state, rng=generator) for _ in range(num_runs)]


def _ensemble(params, state, num_runs, rng, max_events=DEFAULT_MAX_EVENTS):
    return run_sweep_ensemble([SweepMember(params, state, num_runs, max_events)], rng=rng)[0]


def _ensemble_batch(params, state, num_runs, seed):
    return _ensemble(params, state, num_runs, seed).to_run_results()


class TestStatisticalAgreement:
    """Ensemble vs scalar simulator on a fixed seed budget.

    The tolerances live in :mod:`helpers_statistical` (shared with the
    heterogeneous sweep-engine tests): ~4 standard errors at this replicate
    count, which keeps the tests deterministic (fixed seeds) while still
    failing loudly on any systematic bias.
    """

    NUM_RUNS = 800

    @pytest.fixture(params=["sd", "nsd"])
    def params(self, request, sd_params, nsd_params):
        return sd_params if request.param == "sd" else nsd_params

    def test_statistically_identical_to_scalar(self, params):
        scalar = _scalar_batch(params, STATE, self.NUM_RUNS, seed=101)
        ensemble = _ensemble_batch(params, STATE, self.NUM_RUNS, seed=202)
        assert_statistically_close(scalar, ensemble, label="ensemble-vs-scalar")


class TestExactInvariants:
    def test_reproducible_from_seed(self, sd_params):
        first = _ensemble_batch(sd_params, STATE, 64, seed=5)
        second = _ensemble_batch(sd_params, STATE, 64, seed=5)
        assert first == second

    def test_different_seeds_differ(self, sd_params):
        first = _ensemble_batch(sd_params, STATE, 64, seed=5)
        second = _ensemble_batch(sd_params, STATE, 64, seed=6)
        assert first != second

    def test_event_counts_sum_to_total(self, nsd_params):
        ensemble = _ensemble(nsd_params, STATE, 128, 3)
        total = (
            ensemble.births.sum(axis=1)
            + ensemble.deaths.sum(axis=1)
            + ensemble.interspecific_events
            + ensemble.intraspecific_events.sum(axis=1)
        )
        assert np.array_equal(total, ensemble.total_events)

    def test_sd_competitive_noise_is_zero(self, sd_params):
        """Self-destructive competition never moves the gap (Section 1.5)."""
        ensemble = _ensemble(sd_params, STATE, 128, 4)
        assert np.all(ensemble.noise_competitive == 0)

    def test_nsd_competitive_noise_is_nonzero_typically(self, nsd_params):
        ensemble = _ensemble(nsd_params, STATE, 128, 4)
        assert np.any(ensemble.noise_competitive != 0)

    def test_total_noise_equals_gap_change(self, nsd_params):
        """F_ind + F_comp telescopes to the signed gap change of the run."""
        state = LVState(30, 18)
        ensemble = _ensemble(nsd_params, state, 96, 9)
        initial_gap = state.x0 - state.x1
        final_gap = ensemble.final_x0 - ensemble.final_x1
        assert np.array_equal(
            ensemble.noise_individual + ensemble.noise_competitive,
            initial_gap - final_gap,
        )

    def test_all_replicas_reach_consensus(self, sd_params):
        ensemble = _ensemble(sd_params, STATE, 128, 11)
        assert bool(ensemble.reached_consensus.all())
        assert ensemble.termination_counts() == {"consensus": 128}

    def test_max_events_budget(self, sd_params):
        ensemble = _ensemble(sd_params, LVState(400, 380), 32, 1, max_events=5)
        capped = ensemble.termination_codes == 2
        assert capped.any()
        assert np.all(ensemble.total_events[capped] == 5)

    def test_winners_match_final_states(self, sd_params):
        ensemble = _ensemble(sd_params, STATE, 64, 13)
        winners = ensemble.winners
        assert np.all((ensemble.final_x1[winners == 0]) == 0)
        assert np.all((ensemble.final_x0[winners == 1]) == 0)

    def test_invalid_arguments_rejected(self, sd_params):
        with pytest.raises(InvalidConfigurationError):
            _ensemble(sd_params, STATE, 0, 1)


class TestRunResultInterop:
    def test_run_results_carry_the_event_accounting(self, sd_params):
        results = _ensemble_batch(sd_params, STATE, 32, seed=21)
        assert len(results) == 32
        for result in results:
            assert result.params == sd_params
            assert result.initial_state == STATE
            event_total = (
                sum(result.births)
                + sum(result.deaths)
                + result.interspecific_events
                + sum(result.intraspecific_events)
            )
            assert event_total == result.total_events

    def test_to_run_results_matches_arrays(self, nsd_params):
        ensemble = _ensemble(nsd_params, STATE, 48, 23)
        results = ensemble.to_run_results()
        assert [r.total_events for r in results] == list(ensemble.total_events)
        assert [r.noise_competitive for r in results] == list(ensemble.noise_competitive)
        assert [r.winner if r.winner is not None else -1 for r in results] == list(
            ensemble.winners
        )

    def test_concatenate_preserves_order(self, sd_params):
        first = _ensemble(sd_params, STATE, 16, 31)
        second = _ensemble(sd_params, STATE, 24, 32)
        merged = LVEnsembleResult.concatenate([first, second])
        assert merged.num_replicates == 40
        assert np.array_equal(merged.total_events[:16], first.total_events)
        assert np.array_equal(merged.total_events[16:], second.total_events)

    def test_concatenate_rejects_mismatched_systems(self, sd_params, nsd_params):
        first = _ensemble(sd_params, STATE, 8, 41)
        second = _ensemble(nsd_params, STATE, 8, 42)
        with pytest.raises(InvalidConfigurationError):
            LVEnsembleResult.concatenate([first, second])

    def test_concatenate_rejects_empty(self):
        with pytest.raises(InvalidConfigurationError):
            LVEnsembleResult.concatenate([])
