"""Tests for the statistics, concentration, scaling, and table-rendering utilities."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special, stats as scipy_stats

from repro.analysis.concentration import (
    chernoff_lower_tail,
    chernoff_sample_bound,
    chernoff_upper_tail,
    hoeffding_two_sided,
)
from repro.analysis.scaling import (
    CANDIDATE_LAWS,
    ScalingLaw,
    fit_scaling_law,
    select_scaling_law,
)
from repro.analysis.statistics import (
    _ndtri,
    _normal_quantile,
    binomial_estimate,
    bootstrap_mean_interval,
    required_samples,
    wilson_half_width,
    wilson_interval,
)
from repro.analysis.tables import format_csv, format_markdown_table, format_table
from repro.exceptions import EstimationError
from repro.experiments.table1 import _T1R2_FAMILY_ALPHA, _t1r2_z_critical


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        low, high = wilson_interval(80, 100)
        assert low < 0.8 < high

    def test_bounds_within_unit_interval(self):
        assert wilson_interval(0, 50) == pytest.approx(
            (0.0, pytest.approx(0.08, abs=0.05)), abs=0.1
        )
        low, high = wilson_interval(50, 50)
        assert high == 1.0 and low > 0.9

    def test_narrower_with_more_samples(self):
        narrow = wilson_interval(800, 1000)
        wide = wilson_interval(80, 100)
        assert (narrow[1] - narrow[0]) < (wide[1] - wide[0])

    def test_invalid_inputs(self):
        with pytest.raises(EstimationError):
            wilson_interval(5, 0)
        with pytest.raises(EstimationError):
            wilson_interval(-1, 10)
        with pytest.raises(EstimationError):
            wilson_interval(11, 10)
        with pytest.raises(EstimationError):
            wilson_interval(5, 10, confidence=1.2)

    @settings(max_examples=50, deadline=None)
    @given(
        successes=st.integers(min_value=0, max_value=500),
        extra=st.integers(min_value=0, max_value=500),
    )
    def test_interval_always_valid(self, successes, extra):
        trials = successes + extra
        if trials == 0:
            return
        low, high = wilson_interval(successes, trials)
        assert 0.0 <= low <= successes / trials <= high <= 1.0

    def test_degenerate_inputs_raise_value_error(self):
        """The validation errors double as ValueError for non-library callers."""
        with pytest.raises(ValueError):
            wilson_interval(7, 5)
        with pytest.raises(ValueError):
            wilson_interval(-1, 5)
        with pytest.raises(ValueError):
            wilson_half_width(-2, 10)
        with pytest.raises(ValueError):
            wilson_half_width(11, 10)
        with pytest.raises(ValueError):
            wilson_half_width(5, 0)

    def test_boundary_success_counts_are_valid(self):
        """0 and `trials` successes yield finite in-range intervals, not errors."""
        low, high = wilson_interval(0, 80)
        assert low == 0.0 and 0.0 < high < 0.1
        low, high = wilson_interval(80, 80)
        assert 0.9 < low < 1.0 and high == 1.0
        assert 0.0 < wilson_half_width(0, 80) < wilson_half_width(40, 80)
        assert 0.0 < wilson_half_width(80, 80) < wilson_half_width(40, 80)

    def test_statistics_doctests_pass(self):
        """The documented degenerate/boundary examples actually run."""
        import doctest

        from repro.analysis import statistics

        outcome = doctest.testmod(statistics)
        assert outcome.attempted > 0
        assert outcome.failed == 0

    def test_binomial_estimate_bundle(self):
        estimate = binomial_estimate(90, 100)
        assert estimate.estimate == pytest.approx(0.9)
        assert estimate.excludes(0.5)
        assert not estimate.excludes(0.9)
        assert estimate.half_width > 0
        assert "90/100" in str(estimate)


def _assert_same_bits(points, ported, reference):
    """*ported* equals *reference* bit for bit (any NaN matching any NaN)."""
    ported = np.asarray(ported, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    same = (ported.view(np.int64) == reference.view(np.int64)) | (
        np.isnan(ported) & np.isnan(reference)
    )
    wrong = np.flatnonzero(~same)
    assert wrong.size == 0, [
        (float(points[i]), float(ported[i]), float(reference[i])) for i in wrong[:5]
    ]


class TestNormalQuantile:
    """The Cephes ``ndtri`` port against scipy's, bit for bit."""

    @staticmethod
    def _compare(points):
        points = np.asarray(points, dtype=np.float64)
        with np.errstate(all="ignore"):
            reference = special.ndtri(points)
        _assert_same_bits(points, [_ndtri(p) for p in points.tolist()], reference)

    def test_random_points_and_tails(self):
        generator = np.random.default_rng(20261019)
        self._compare(
            np.concatenate(
                [
                    generator.random(200_000),
                    10.0 ** generator.uniform(-300.0, 0.0, 100_000),
                    1.0 - 10.0 ** generator.uniform(-16.0, 0.0, 100_000),
                ]
            )
        )

    def test_branch_points_and_their_neighbours(self):
        exp_minus_2 = 0.13533528323661269189  # Cephes' literal for exp(-2)
        branches = [exp_minus_2, math.exp(-2), 1.0 - exp_minus_2, 1.0 - math.exp(-2)]
        branches += [math.exp(-32), 0.5, 5e-324, 1.0 - 2.0**-53]
        points = []
        for branch in branches:
            for towards in (0.0, 1.0):
                point = branch
                for _ in range(16):
                    points.append(point)
                    point = math.nextafter(point, towards)
        self._compare(points)

    def test_ends_out_of_range_and_nan(self):
        assert _ndtri(0.0) == -math.inf and _ndtri(-0.0) == -math.inf
        assert _ndtri(1.0) == math.inf
        outside = [-1e-300, -1.0, 1.0 + 2.0**-52, 2.0, -math.inf, math.inf, math.nan]
        assert all(math.isnan(_ndtri(point)) for point in outside)
        self._compare([0.0, -0.0, 1.0, *outside])

    @pytest.mark.parametrize("confidence", [0.5, 0.8, 0.9, 0.95, 0.99, 0.999])
    def test_normal_quantile_is_norm_ppf(self, confidence):
        # 0.9 is the threshold search's level, 0.95 every other default.
        expected = float(scipy_stats.norm.ppf(0.5 + confidence / 2.0))
        _assert_same_bits([confidence], [_normal_quantile(confidence)], [expected])

    def test_required_samples_uses_the_quantile(self):
        z = float(scipy_stats.norm.ppf(0.5 + 0.99 / 2.0))
        assert required_samples(0.02, confidence=0.99) == math.ceil(z * z * 0.25 / 0.02**2)

    @pytest.mark.parametrize("rows", [6, 10])
    def test_t1r2_bound_is_norm_isf(self, rows):
        # T1R2 z-tests 6 rows at quick scale and 10 at full scale.
        expected = float(scipy_stats.norm.isf(_T1R2_FAMILY_ALPHA / (2 * rows)))
        _assert_same_bits([rows], [_t1r2_z_critical(rows)], [expected])


class TestBootstrapAndPlanning:
    def test_bootstrap_interval_contains_mean(self):
        samples = np.random.default_rng(0).exponential(2.0, size=400)
        low, high = bootstrap_mean_interval(samples, rng=1)
        assert low < samples.mean() < high

    def test_bootstrap_rejects_empty(self):
        with pytest.raises(EstimationError):
            bootstrap_mean_interval(np.array([]))

    def test_required_samples_monotone(self):
        assert required_samples(0.01) > required_samples(0.05)
        with pytest.raises(EstimationError):
            required_samples(0.0)


class TestConcentrationBounds:
    def test_chernoff_upper_tail_decreases_with_expectation(self):
        assert chernoff_upper_tail(100, 0.5) < chernoff_upper_tail(10, 0.5)

    def test_chernoff_upper_matches_formula(self):
        assert chernoff_upper_tail(50, 0.2) == pytest.approx(math.exp(-50 * 0.04 / 2.2))

    def test_chernoff_lower_matches_formula(self):
        assert chernoff_lower_tail(50, 0.2) == pytest.approx(math.exp(-50 * 0.04 / 2))

    def test_bounds_capped_at_one(self):
        assert hoeffding_two_sided(10, 0.0) == 1.0
        assert hoeffding_two_sided(1000, 0.1) == 1.0
        assert chernoff_upper_tail(0.001, 0.001) <= 1.0

    def test_hoeffding_matches_formula(self):
        assert hoeffding_two_sided(100, 40) == pytest.approx(2 * math.exp(-1600 / 200))

    def test_invalid_arguments(self):
        with pytest.raises(EstimationError):
            chernoff_upper_tail(-1, 0.5)
        with pytest.raises(EstimationError):
            chernoff_lower_tail(10, 1.5)
        with pytest.raises(EstimationError):
            hoeffding_two_sided(0, 1.0)

    def test_sample_bound_inverts_upper_tail(self):
        deviation = chernoff_sample_bound(100, 0.01)
        epsilon = deviation / 100
        assert chernoff_upper_tail(100, epsilon) <= 0.0101

    def test_empirical_tail_never_exceeds_hoeffding(self):
        """Empirical ±1 random-walk tails respect Lemma 2 (sanity check on both sides)."""
        rng = np.random.default_rng(3)
        n, runs, t = 200, 2000, 30
        sums = rng.choice([-1, 1], size=(runs, n)).sum(axis=1)
        empirical = np.mean(np.abs(sums) >= t)
        assert empirical <= hoeffding_two_sided(n, t) + 0.02


class TestScalingLaws:
    def test_candidate_laws_cover_paper_shapes(self):
        names = {law.name for law in CANDIDATE_LAWS}
        assert {"log^2 n", "sqrt(n)", "sqrt(n log n)", "n"} <= names

    def test_fit_recovers_coefficient(self):
        law = ScalingLaw("sqrt(n)", math.sqrt)
        sizes = [64, 128, 256, 512, 1024]
        thresholds = [3.0 * math.sqrt(n) for n in sizes]
        fit = fit_scaling_law(sizes, thresholds, law)
        assert fit.coefficient == pytest.approx(3.0, rel=1e-6)
        assert fit.log_rmse == pytest.approx(0.0, abs=1e-9)
        assert fit.predict(2048) == pytest.approx(3.0 * math.sqrt(2048), rel=1e-6)

    def test_select_identifies_generating_law(self):
        sizes = [64, 128, 256, 512, 1024, 2048]
        rng = np.random.default_rng(0)
        polylog = [2.0 * math.log(n) ** 2 * rng.uniform(0.95, 1.05) for n in sizes]
        best = select_scaling_law(sizes, polylog)[0]
        assert best.law.name in {"log^2 n", "log n"}

        sqrt_data = [0.8 * math.sqrt(n) * rng.uniform(0.95, 1.05) for n in sizes]
        best = select_scaling_law(sizes, sqrt_data)[0]
        assert best.law.name in {"sqrt(n)", "sqrt(n log n)"}

    def test_fit_rejects_bad_inputs(self):
        law = CANDIDATE_LAWS[0]
        with pytest.raises(EstimationError):
            fit_scaling_law([], [], law)
        with pytest.raises(EstimationError):
            fit_scaling_law([1, 2], [1.0, 2.0], law)  # sizes must exceed 1
        with pytest.raises(EstimationError):
            fit_scaling_law([10, 20], [1.0, -2.0], law)

    def test_select_requires_candidates(self):
        with pytest.raises(EstimationError):
            select_scaling_law([10, 20], [1.0, 2.0], candidates=[])


class TestTableRendering:
    ROWS = [
        {"n": 64, "rho": 0.5, "ok": True},
        {"n": 128, "rho": 0.875, "ok": False},
    ]

    def test_plain_table_alignment(self):
        text = format_table(self.ROWS, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "n" in lines[1] and "rho" in lines[1]
        assert len(lines) == 2 + 1 + len(self.ROWS)

    def test_markdown_table(self):
        text = format_markdown_table(self.ROWS)
        assert text.splitlines()[0].startswith("| n |")
        assert "| 64 |" in text

    def test_csv_output(self):
        text = format_csv(self.ROWS)
        assert text.splitlines()[0] == "n,rho,ok"
        assert "64,0.5,yes" in text

    def test_sequence_rows_require_columns(self):
        with pytest.raises(ValueError):
            format_table([[1, 2], [3, 4]])
        text = format_table([[1, 2], [3, 4]], columns=["a", "b"])
        assert "a" in text

    def test_row_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table([[1, 2, 3]], columns=["a", "b"])

    def test_empty_rows_need_columns(self):
        with pytest.raises(ValueError):
            format_table([])
        assert "a" in format_table([], columns=["a"])

    def test_none_rendering(self):
        text = format_table([{"a": None}])
        assert "-" in text
