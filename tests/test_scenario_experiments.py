"""End-to-end tests of the scenario experiments (SCEN-KOP, SCEN-CAT).

Quick-scale runs through the real registry and default scheduler: the whole
refactored stack — scenario tables, generic engines, chunk-key
fingerprinting, sweep planning — executes exactly as ``repro run`` would.
"""

from __future__ import annotations

import pytest

from helpers_results import assert_rows_have_no_nan
from repro.experiments.registry import EXPERIMENTS, get_experiment


class TestRegistration:
    def test_scenario_experiments_registered(self):
        assert "SCEN-KOP" in EXPERIMENTS
        assert "SCEN-CAT" in EXPERIMENTS

    def test_specs_carry_claims(self):
        for identifier in ("SCEN-KOP", "SCEN-CAT"):
            spec = get_experiment(identifier)
            assert spec.paper_claim
            assert spec.title


@pytest.fixture(scope="module")
def kop_result():
    result = get_experiment("SCEN-KOP").run("quick", 0)
    assert_rows_have_no_nan(result)
    return result


@pytest.fixture(scope="module")
def cat_result():
    result = get_experiment("SCEN-CAT").run("quick", 0)
    assert_rows_have_no_nan(result)
    return result


class TestScenKop:
    def test_shape_matches_theory(self, kop_result):
        assert kop_result.shape_matches_paper is True

    def test_rows_cover_both_k_and_both_backends(self, kop_result):
        ks = {row["k"] for row in kop_result.rows}
        backends = {row["backend"] for row in kop_result.rows}
        assert ks == {3, 4}
        assert backends == {"exact", "tau"}

    def test_win_rate_monotone_in_gap(self, kop_result):
        for k in (3, 4):
            rates = [
                row["majority win rate"]
                for row in kop_result.rows
                if row["k"] == k and row["backend"] == "exact"
            ]
            assert rates == sorted(rates) or all(
                after >= before - 0.08 for before, after in zip(rates, rates[1:])
            )
            assert rates[-1] > 1.0 / k + 0.15

    def test_result_serialises(self, kop_result):
        payload = kop_result.to_dict()
        assert payload["identifier"] == "SCEN-KOP"
        assert payload["shape_matches_paper"] is True


class TestScenCat:
    def test_shape_matches_theory(self, cat_result):
        assert cat_result.shape_matches_paper is True

    def test_events_decrease_with_catalyst(self, cat_result):
        events = [
            row["mean events"]
            for row in cat_result.rows
            if row["backend"] == "exact"
        ]
        assert events[-1] < events[0]

    def test_tau_row_present(self, cat_result):
        tau_rows = [row for row in cat_result.rows if row["backend"] == "tau"]
        assert len(tau_rows) == 1
        assert tau_rows[0]["consensus"] >= 0.95
