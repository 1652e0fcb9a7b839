"""Tests for threshold search, theory predictions, and exact formulas."""

from __future__ import annotations

import dataclasses
import inspect
import math

import pytest

from repro.analysis.statistics import PrecisionTarget, binomial_estimate
from repro.consensus.estimator import estimate_majority_probability
from repro.consensus.exact import (
    applies_proportional_rule,
    no_competition_win_probability,
    proportional_win_probability,
)
from repro.consensus.theory import (
    high_probability_target,
    predicted_threshold,
    predicted_threshold_curve,
)
from repro.consensus.threshold import (
    ThresholdSearch,
    drive_threshold_searches,
    find_threshold,
)
from repro.exceptions import EstimationError, ModelError, ThresholdSearchError
from repro.experiments.scheduler import SweepScheduler, ThresholdRequest
from repro.lv.params import LVParams
from repro.lv.regimes import Table1Row
from repro.lv.state import LVState


class TestThresholdSearch:
    def test_finds_threshold_for_sd(self, sd_params):
        estimate = find_threshold(sd_params, 64, num_runs=80, rng=0)
        assert estimate.has_threshold
        assert 1 <= estimate.threshold_gap <= 62
        assert estimate.population_size == 64
        assert estimate.target_probability == pytest.approx(1 - 1 / 64)
        # Probes at or above the threshold must have been measured as passing.
        assert estimate.probability_at(estimate.threshold_gap) >= estimate.target_probability

    def test_nsd_threshold_larger_than_sd(self, sd_params, nsd_params):
        sd = find_threshold(sd_params, 128, num_runs=100, rng=1)
        nsd = find_threshold(nsd_params, 128, num_runs=100, rng=1)
        assert sd.has_threshold and nsd.has_threshold
        assert nsd.threshold_gap > sd.threshold_gap

    def test_no_threshold_for_intraspecific_only(self):
        params = LVParams.self_destructive(beta=1.0, delta=1.0, alpha=0.0, gamma=1.0)
        estimate = find_threshold(params, 64, num_runs=60, rng=2)
        assert not estimate.has_threshold
        assert estimate.threshold_gap is None

    def test_custom_target_probability(self, sd_params):
        relaxed = find_threshold(sd_params, 64, num_runs=80, target_probability=0.6, rng=3)
        strict = find_threshold(sd_params, 64, num_runs=80, target_probability=0.99, rng=3)
        assert relaxed.threshold_gap <= strict.threshold_gap

    def test_probe_gap_returns_estimate(self, sd_params):
        search = ThresholdSearch(sd_params, num_runs=50)
        estimate = search.probe_gap(64, 10, rng=4)
        assert estimate.num_runs == 50
        assert estimate.total_population == 64

    def test_find_probes_run_at_the_win_level(self, sd_params):
        """find() reads only ρ and its interval, so no probe collects event statistics."""
        estimate = ThresholdSearch(sd_params, num_runs=30).find(32, rng=2)
        assert estimate.probes
        for probe in estimate.probes.values():
            assert probe.collected == "win"
            assert math.isnan(probe.mean_bad_events)

    def test_invalid_population_size(self, sd_params):
        with pytest.raises(ThresholdSearchError):
            find_threshold(sd_params, 2, num_runs=10)

    def test_invalid_target(self, sd_params):
        search = ThresholdSearch(sd_params, num_runs=10)
        with pytest.raises(ThresholdSearchError):
            search.find(64, target_probability=1.5)

    def test_invalid_gap_range(self, sd_params):
        search = ThresholdSearch(sd_params, num_runs=10)
        with pytest.raises(ThresholdSearchError):
            search.find(64, min_gap=50, max_gap=10)

    def test_invalid_num_runs(self, sd_params):
        with pytest.raises(ThresholdSearchError):
            ThresholdSearch(sd_params, num_runs=0)

    @pytest.mark.parametrize(
        "threshold, schedule",
        [
            (30, [62, 1, 31, 16, 23, 27, 29, 30]),
            (1, [62, 1]),
            (63, [62]),
        ],
    )
    def test_bisection_probes_endpoints_then_midpoints(self, sd_params, threshold, schedule):
        """High end, low end, then (low + high) // 2 until the bracket closes."""
        template = estimate_majority_probability(sd_params, (3, 1), num_runs=1, rng=0)
        probed = []

        def runner(probes):
            probed.extend(probe.gap for probe in probes)
            # Clear-cut answers (200/200 or 0/200) need no refinement round.
            return [
                dataclasses.replace(
                    template,
                    success=binomial_estimate(
                        200 if probe.gap >= threshold else 0, 200, confidence=0.9
                    ),
                )
                for probe in probes
            ]

        search = ThresholdSearch(sd_params, num_runs=200).search_steps(64, rng=1)
        (estimate,) = drive_threshold_searches([search], runner)
        assert probed == schedule
        assert estimate.threshold_gap == (threshold if threshold <= 62 else None)

    @pytest.mark.parametrize("confidence", [0.0, 1.0, 1.5])
    def test_invalid_confidence_rejected_at_construction(self, sd_params, confidence):
        with pytest.raises(EstimationError, match="confidence"):
            ThresholdSearch(sd_params, confidence=confidence)

    def test_find_refuses_a_precision_target(self, sd_params):
        """find() runs fixed budgets; the scheduler is the driver that sizes probes."""
        target = PrecisionTarget(ci_half_width=0.2, min_replicates=16, max_replicates=64)
        search = ThresholdSearch(sd_params, num_runs=60, precision=target)
        with pytest.raises(ThresholdSearchError, match="SweepScheduler.find_thresholds"):
            search.find(64, rng=5)
        assert "precision" not in inspect.signature(find_threshold).parameters
        (estimate,) = SweepScheduler().find_thresholds(
            [ThresholdRequest(sd_params, 64, num_runs=60, seed=5, precision=target)]
        )
        assert estimate.probes
        assert all(probe.num_runs <= 64 for probe in estimate.probes.values())


class TestTheoryPredictions:
    def test_high_probability_target(self):
        assert high_probability_target(100) == pytest.approx(0.99)
        with pytest.raises(ModelError):
            high_probability_target(1)

    def test_sd_interspecific_prediction(self, sd_params):
        prediction = predicted_threshold(sd_params)
        assert prediction.row is Table1Row.INTERSPECIFIC_ONLY
        assert prediction.threshold_exists
        assert prediction.upper_label == "log^2 n"
        assert prediction.upper_shape(1024) == pytest.approx(math.log(1024) ** 2)
        assert prediction.lower_shape(1024) == pytest.approx(math.sqrt(math.log(1024)))

    def test_nsd_interspecific_prediction(self, nsd_params):
        prediction = predicted_threshold(nsd_params)
        assert prediction.upper_label == "sqrt(n) log n"
        assert prediction.lower_label == "sqrt(n)"

    def test_intraspecific_only_has_no_threshold(self):
        params = LVParams.self_destructive(beta=1, delta=1, alpha=0.0, gamma=1.0)
        prediction = predicted_threshold(params)
        assert not prediction.threshold_exists
        assert prediction.lower_values([10, 100]) is None

    def test_balanced_intra_prediction_is_linear(self, sd_balanced_params):
        prediction = predicted_threshold(sd_balanced_params)
        assert prediction.upper_shape(100) == 99

    def test_delta_zero_prediction(self):
        sd = LVParams.self_destructive(beta=1, delta=0.0, alpha=1.0)
        nsd = LVParams.non_self_destructive(beta=1, delta=0.0, alpha=1.0)
        assert predicted_threshold(sd).upper_label == "log^2 n"
        assert predicted_threshold(nsd).upper_label == "sqrt(n log n)"

    def test_curve_evaluation(self, sd_params):
        curve = predicted_threshold_curve(sd_params, [64, 256, 1024])
        assert len(curve["lower"]) == 3
        assert len(curve["upper"]) == 3
        assert curve["upper"][2] > curve["upper"][0]


class TestExactFormulas:
    def test_proportional_value(self):
        assert proportional_win_probability((6, 4)) == pytest.approx(0.6)
        assert proportional_win_probability(LVState(1, 3)) == pytest.approx(0.25)

    def test_proportional_rejects_empty(self):
        with pytest.raises(ModelError):
            proportional_win_probability((0, 0))

    def test_applies_rule_sd_balanced(self, sd_balanced_params):
        assert applies_proportional_rule(sd_balanced_params)

    def test_applies_rule_nsd_balanced(self, nsd_balanced_params):
        assert applies_proportional_rule(nsd_balanced_params)

    def test_rule_rejects_interspecific_only(self, sd_params, nsd_params):
        assert not applies_proportional_rule(sd_params)
        assert not applies_proportional_rule(nsd_params)

    def test_rule_rejects_unbalanced_gamma(self):
        params = LVParams.self_destructive(beta=1, delta=1, alpha=1.0, gamma=0.5)
        assert not applies_proportional_rule(params)

    def test_rule_no_competition_requires_criticality(self):
        critical = LVParams(beta=1.0, delta=1.0, alpha0=0.0, alpha1=0.0)
        supercritical = LVParams(beta=2.0, delta=1.0, alpha0=0.0, alpha1=0.0)
        assert applies_proportional_rule(critical)
        assert not applies_proportional_rule(supercritical)

    def test_no_competition_win_probability(self):
        critical = LVParams(beta=1.0, delta=1.0, alpha0=0.0, alpha1=0.0)
        assert no_competition_win_probability(critical, (3, 1)) == pytest.approx(0.75)

    def test_no_competition_rejects_competitive_params(self, sd_params):
        with pytest.raises(ModelError):
            no_competition_win_probability(sd_params, (3, 1))

    def test_no_competition_rejects_non_critical(self):
        supercritical = LVParams(beta=2.0, delta=1.0, alpha0=0.0, alpha1=0.0)
        with pytest.raises(ModelError):
            no_competition_win_probability(supercritical, (3, 1))
