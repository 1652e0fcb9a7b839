"""Tests for LV parameterisation, states and regime classification."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import InvalidConfigurationError, ModelError
from repro.lv.params import CompetitionMechanism, LVParams
from repro.lv.regimes import Table1Row, classify_regime
from repro.lv.state import LVState


class TestLVParams:
    def test_neutral_constructor_splits_totals(self):
        params = LVParams.neutral(beta=1.0, delta=0.5, alpha=1.0, gamma=2.0)
        assert params.alpha0 == params.alpha1 == 0.5
        assert params.gamma0 == params.gamma1 == 1.0
        assert params.alpha == 1.0
        assert params.gamma == 2.0
        assert params.is_neutral

    def test_theta_and_alpha_min(self):
        params = LVParams(beta=0.3, delta=0.7, alpha0=0.2, alpha1=0.8)
        assert params.theta == pytest.approx(1.0)
        assert params.alpha_min == pytest.approx(0.2)

    def test_negative_rate_rejected(self):
        with pytest.raises(ModelError):
            LVParams(beta=-1.0, delta=1.0, alpha0=1.0, alpha1=1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["beta", "delta", "alpha0", "alpha1", "gamma0", "gamma1"])
    def test_non_finite_rate_rejected(self, name, value):
        rates = dict(beta=1.0, delta=1.0, alpha0=0.5, alpha1=0.5, gamma0=0.0, gamma1=0.0)
        rates[name] = value
        with pytest.raises(ModelError, match=f"rate {name} must be a finite non-negative"):
            LVParams(**rates)

    def test_all_zero_rates_rejected(self):
        with pytest.raises(ModelError):
            LVParams(beta=0.0, delta=0.0, alpha0=0.0, alpha1=0.0)

    def test_mechanism_flags(self):
        sd = LVParams.self_destructive(beta=1, delta=1, alpha=1)
        nsd = LVParams.non_self_destructive(beta=1, delta=1, alpha=1)
        assert sd.is_self_destructive and not nsd.is_self_destructive
        assert sd.mechanism.short_name == "SD"
        assert nsd.mechanism.short_name == "NSD"

    def test_with_mechanism_and_with_rates(self):
        params = LVParams.self_destructive(beta=1, delta=1, alpha=1)
        flipped = params.with_mechanism(CompetitionMechanism.NON_SELF_DESTRUCTIVE)
        assert not flipped.is_self_destructive
        modified = params.with_rates(delta=0.0)
        assert modified.delta == 0.0 and modified.beta == 1.0

    def test_propensities_match_paper(self):
        params = LVParams(beta=1.0, delta=0.5, alpha0=0.3, alpha1=0.7, gamma0=0.2, gamma1=0.4)
        propensities = params.propensities(6, 4)
        assert propensities["birth0"] == pytest.approx(6.0)
        assert propensities["death1"] == pytest.approx(2.0)
        assert propensities["inter0"] == pytest.approx(0.3 * 24)
        assert propensities["intra0"] == pytest.approx(0.2 * 15)
        assert propensities["intra1"] == pytest.approx(0.4 * 6)
        assert params.total_propensity(6, 4) == pytest.approx(sum(propensities.values()))

    def test_propensities_reject_negative_counts(self):
        params = LVParams.self_destructive(beta=1, delta=1, alpha=1)
        with pytest.raises(ModelError):
            params.propensities(-1, 3)

    def test_describe_mentions_mechanism(self):
        assert "SD" in LVParams.self_destructive(beta=1, delta=1, alpha=1).describe()

    def test_intrinsic_growth_rate(self):
        assert LVParams.self_destructive(beta=2, delta=0.5, alpha=1).intrinsic_growth_rate == 1.5


class TestLVState:
    def test_basic_properties(self):
        state = LVState(12, 8)
        assert state.total == 20
        assert state.gap == 4
        assert state.abs_gap == 4
        assert state.minimum == 8
        assert state.maximum == 12
        assert state.majority_species == 0
        assert not state.has_consensus
        assert state.winner is None

    def test_tie_has_no_majority(self):
        assert LVState(5, 5).majority_species is None

    def test_consensus_and_winner(self):
        assert LVState(0, 7).winner == 1
        assert LVState(7, 0).winner == 0
        assert LVState(0, 0).has_consensus
        assert LVState(0, 0).winner is None

    def test_from_gap(self):
        state = LVState.from_gap(100, 10)
        assert state == LVState(55, 45)
        assert state.total == 100 and state.gap == 10

    def test_from_gap_parity_mismatch_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            LVState.from_gap(100, 9)

    def test_from_gap_out_of_range_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            LVState.from_gap(10, 12)
        with pytest.raises(InvalidConfigurationError):
            LVState.from_gap(0, 0)

    def test_negative_counts_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            LVState(-1, 3)

    def test_non_integer_counts_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            LVState(1.5, 3)

    def test_count_accessor(self):
        state = LVState(3, 9)
        assert state.count(0) == 3 and state.count(1) == 9
        with pytest.raises(InvalidConfigurationError):
            state.count(2)

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=10_000))
    def test_gap_and_total_consistency(self, x0, x1):
        state = LVState(x0, x1)
        assert state.total == x0 + x1
        assert state.gap == x0 - x1
        assert state.minimum + state.maximum == state.total
        assert abs(state.gap) == state.maximum - state.minimum


class TestRegimeClassification:
    def test_interspecific_only(self, sd_params, nsd_params):
        assert classify_regime(sd_params).row is Table1Row.INTERSPECIFIC_ONLY
        assert classify_regime(nsd_params).row is Table1Row.INTERSPECIFIC_ONLY

    def test_interspecific_only_bounds_differ_by_mechanism(self, sd_params, nsd_params):
        sd = classify_regime(sd_params)
        nsd = classify_regime(nsd_params)
        assert "log" in sd.upper_bound
        assert "sqrt(n)" in nsd.upper_bound

    def test_inter_and_intra(self, sd_balanced_params, nsd_balanced_params):
        sd = classify_regime(sd_balanced_params)
        nsd = classify_regime(nsd_balanced_params)
        assert sd.row is Table1Row.INTER_AND_INTRA
        assert sd.exact_consensus_probability
        assert nsd.exact_consensus_probability

    def test_inter_and_intra_unbalanced_is_not_exact(self):
        params = LVParams.self_destructive(beta=1, delta=1, alpha=1, gamma=0.5)
        classification = classify_regime(params)
        assert classification.row is Table1Row.INTER_AND_INTRA
        assert not classification.exact_consensus_probability

    def test_intraspecific_only(self):
        params = LVParams.self_destructive(beta=1, delta=1, alpha=0.0, gamma=1.0)
        classification = classify_regime(params)
        assert classification.row is Table1Row.INTRASPECIFIC_ONLY
        assert classification.lower_bound == "inf"

    def test_delta_zero_special_case(self):
        params = LVParams.self_destructive(beta=1, delta=0.0, alpha=1.0)
        assert classify_regime(params).row is Table1Row.INTERSPECIFIC_NO_DEATH

    def test_no_competition(self):
        params = LVParams(beta=1.0, delta=1.0, alpha0=0.0, alpha1=0.0)
        classification = classify_regime(params)
        assert classification.row is Table1Row.NO_COMPETITION
        assert classification.exact_consensus_probability
