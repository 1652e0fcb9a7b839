"""Tests for the prior-work baseline models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.andaur_resource import AndaurResourceModel
from repro.baselines.cho_growth import ChoGrowthModel
from repro.exceptions import ModelError
from repro.lv.state import LVState
from repro.scenario.registry import build_scenario


class TestChoGrowthModel:
    def test_params_have_no_deaths(self):
        model = ChoGrowthModel(beta=1.0, alpha=1.0)
        assert model.params.delta == 0.0
        assert model.params.is_self_destructive

    def test_rejects_invalid_rates(self):
        with pytest.raises(ModelError):
            ChoGrowthModel(beta=0.0, alpha=1.0)
        with pytest.raises(ModelError):
            ChoGrowthModel(beta=1.0, alpha=0.0)

    def test_threshold_shapes(self):
        assert ChoGrowthModel.original_threshold_shape(256) == pytest.approx(
            np.sqrt(256 * np.log(256))
        )
        assert ChoGrowthModel.improved_threshold_shape(256) == pytest.approx(np.log(256) ** 2)
        with pytest.raises(ModelError):
            ChoGrowthModel.original_threshold_shape(1)

    def test_polylog_gap_suffices(self):
        """The paper's improvement: a ~log^2 n gap already wins in the Cho et al. model."""
        model = ChoGrowthModel(beta=1.0, alpha=1.0)
        gap = 2 * int(np.log(256) ** 2 / 4)  # even gap of order log^2 n
        estimate = model.estimate(LVState.from_gap(256, gap), num_runs=150, rng=0)
        assert estimate.majority_probability > 0.85


class TestAndaurResourceModel:
    def test_parameter_validation(self):
        with pytest.raises(ModelError):
            AndaurResourceModel(beta=1.0, alpha=0.0, carrying_capacity=100)
        with pytest.raises(ModelError):
            AndaurResourceModel(beta=1.0, alpha=1.0, carrying_capacity=1)

    def test_params_are_the_resource_family_rates(self):
        params = AndaurResourceModel(beta=2.0, alpha=1.0, carrying_capacity=400).params
        assert params.beta == 2.0 / 400
        assert (params.delta, params.gamma0, params.gamma1) == (0.0, 0.0, 0.0)
        assert params.alpha0 == params.alpha1 == 0.5
        assert not params.is_self_destructive

    def test_birth_propensity_is_bounded(self):
        """beta * x_i * (1 - (x0 + x1) / K), written as (beta / K) * x_i * r."""
        model = AndaurResourceModel(beta=1.0, alpha=1.0, carrying_capacity=100)
        scenario = build_scenario("resource", model.params)
        states = [(50, 50, 0), (50, 0, 50), (0, 10, 90)]
        births = [scenario.propensities(state)[0] for state in states]
        assert births == [0.0, pytest.approx(25.0), 0.0]

    def test_initial_state_above_capacity_rejected(self):
        model = AndaurResourceModel(beta=1.0, alpha=1.0, carrying_capacity=50)
        with pytest.raises(ModelError):
            model.counts(LVState(40, 20))
        with pytest.raises(ModelError):
            model.estimate(LVState(40, 20), num_runs=4)
        assert model.counts(LVState(30, 20)) == (30, 20, 0)

    def test_reaches_consensus(self):
        model = AndaurResourceModel(beta=1.0, alpha=1.0, carrying_capacity=400)
        estimate = model.estimate(LVState(60, 30), num_runs=20, rng=0)
        assert estimate.consensus_rate == 1.0
        assert estimate.initial_state == (60, 30)
        assert estimate.collected == "win"

    def test_sqrt_gap_wins_small_gap_does_not_always(self):
        model = AndaurResourceModel(beta=1.0, alpha=1.0, carrying_capacity=2000)
        n = 256
        large_gap = 2 * int(np.sqrt(n * np.log(n)) / 2)  # even gap ~ sqrt(n log n)
        small_gap = 2
        confident = model.estimate(LVState.from_gap(n, large_gap), num_runs=100, rng=1)
        marginal = model.estimate(LVState.from_gap(n, small_gap), num_runs=100, rng=2)
        assert confident.majority_probability > 0.9
        assert marginal.majority_probability < 0.75

    def test_estimate_validation(self):
        model = AndaurResourceModel(beta=1.0, alpha=1.0, carrying_capacity=100)
        with pytest.raises(ModelError):
            model.estimate(LVState(10, 5), num_runs=0)
