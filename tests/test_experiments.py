"""Tests for the experiment harness (registry, workloads, results, report)."""

from __future__ import annotations

import math

import pytest

import repro.experiments.figures as figures
import repro.experiments.table1 as table1
from helpers_results import assert_rows_have_no_nan
from repro.analysis.scaling import select_scaling_law
from repro.chains.nice import ExtinctionStatistics
from repro.exceptions import ExperimentError
from repro.experiments.config import ExperimentResult, ExperimentSpec, SCALES
from repro.experiments.registry import EXPERIMENTS, get_experiment, list_experiments, run_experiment
from repro.experiments.report import render_report
from repro.experiments.runner import load_results, run_all, save_results
from repro.experiments.scheduler import configure_default_scheduler, get_default_scheduler
from repro.experiments.workloads import (
    consortium_scenarios,
    gap_grid,
    noisy_sensor_split,
    population_grid,
    state_with_gap,
)


EXPECTED_IDS = {
    "T1R1-SD",
    "T1R1-NSD",
    "T1R2",
    "T1R3",
    "T1R4",
    "T1R5",
    "FIG-GAP",
    "FIG-THRESH",
    "FIG-THRESH-XL",
    "FIG-TIME",
    "FIG-BAD",
    "FIG-NOISE",
    "FIG-ODE",
    "FIG-DOM",
    "SCEN-KOP",
    "SCEN-CAT",
}


class TestRegistry:
    def test_all_design_doc_experiments_registered(self):
        assert set(EXPERIMENTS) == EXPECTED_IDS

    def test_list_is_sorted_and_complete(self):
        specs = list_experiments()
        assert [spec.identifier for spec in specs] == sorted(EXPECTED_IDS)

    def test_get_unknown_experiment(self):
        with pytest.raises(ExperimentError):
            get_experiment("T1R9")

    def test_specs_have_claims_and_titles(self):
        for spec in list_experiments():
            assert spec.title
            assert spec.paper_claim

    def test_invalid_scale_rejected(self):
        spec = get_experiment("T1R3")
        with pytest.raises(ExperimentError):
            spec.run(scale="enormous")

    def test_scales_constant(self):
        assert SCALES == ("quick", "full")


class TestWorkloads:
    def test_population_grid_scales(self):
        quick = population_grid("quick")
        full = population_grid("full")
        assert quick == [64, 128, 256]
        assert len(full) > len(quick)
        assert all(b == 2 * a for a, b in zip(full, full[1:]))

    def test_gap_grid_is_increasing_and_bounded(self):
        grid = gap_grid(256)
        assert grid == sorted(set(grid))
        assert grid[0] >= 1
        assert grid[-1] <= 254

    def test_gap_grid_validation(self):
        with pytest.raises(ExperimentError):
            gap_grid(4)
        with pytest.raises(ExperimentError):
            gap_grid(256, max_fraction=0.0)

    def test_state_with_gap_respects_parity(self):
        for n, gap in [(128, 25), (128, 24), (65, 2), (65, 64), (64, 63), (64, 200)]:
            state = state_with_gap(n, gap)
            assert state.total == n
            assert abs(state.abs_gap - min(gap, n)) <= 1

    def test_state_with_gap_validation(self):
        with pytest.raises(ExperimentError):
            state_with_gap(0, 2)

    def test_consortium_scenarios(self):
        scenarios = consortium_scenarios()
        assert len(scenarios) == 3
        names = {scenario.name for scenario in scenarios}
        assert {"strong-sensor", "weak-sensor", "borderline-sensor"} == names
        for scenario in scenarios:
            state = scenario.sample_initial_state(rng=0)
            assert state.total == scenario.population_size
            assert state.x0 > 0 and state.x1 > 0

    def test_noisy_sensor_split(self):
        state = noisy_sensor_split(200, 30, 5.0, rng=1)
        assert state.total == 200
        assert state.minimum > 0


class TestExperimentResult:
    def _dummy_result(self) -> ExperimentResult:
        return ExperimentResult(
            identifier="T1R9-DUMMY",
            title="Dummy",
            paper_claim="Nothing.",
            scale="quick",
            seed=0,
            parameters={"n": 64},
            rows=[{"n": 64, "value": 1.5}],
            findings=["it works"],
            shape_matches_paper=True,
        )

    def test_render_text_contains_table_and_verdict(self):
        text = self._dummy_result().render_text()
        assert "T1R9-DUMMY" in text
        assert "64" in text
        assert "MATCHES" in text

    def test_render_markdown(self):
        markdown = self._dummy_result().render_markdown()
        assert markdown.startswith("### T1R9-DUMMY")
        assert "| n | value |" in markdown

    def test_round_trip_serialisation(self):
        result = self._dummy_result()
        restored = ExperimentResult.from_dict(result.to_dict())
        assert restored == result

    def test_from_dict_missing_keys(self):
        with pytest.raises(ExperimentError):
            ExperimentResult.from_dict({"identifier": "x"})

    def test_spec_rejects_mislabelled_result(self):
        def bad_runner(scale, seed):
            result = self._dummy_result()
            result.identifier = "WRONG"
            return result

        spec = ExperimentSpec("T1R9-DUMMY", "Dummy", "claim", bad_runner)
        with pytest.raises(ExperimentError):
            spec.run()


class TestRunnerAndReport:
    def test_run_save_load_round_trip(self, tmp_path):
        results = run_all(["T1R3"], scale="quick", seed=0)
        assert len(results) == 1
        assert results[0].identifier == "T1R3"
        path = save_results(results, tmp_path / "results.json")
        restored = load_results(path)
        assert restored == results

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ExperimentError):
            load_results(tmp_path / "missing.json")

    def test_report_rendering(self):
        results = run_all(["FIG-NOISE"], scale="quick", seed=0)
        report = render_report(results)
        assert "# EXPERIMENTS" in report
        assert "FIG-NOISE" in report
        assert "| Experiment | Paper claim | Shape matches? |" in report


@pytest.mark.slow
class TestExperimentOutcomes:
    """End-to-end checks that the quick-scale experiments reproduce the paper's shapes.

    These are the most expensive tests in the suite (tens of seconds each);
    they are marked ``slow`` so that ``pytest -m "not slow"`` gives a fast
    development loop, while the default run still exercises them.
    """

    def test_t1r2_exactness(self):
        result = run_experiment("T1R2", scale="quick", seed=0)
        assert result.shape_matches_paper
        assert_rows_have_no_nan(result)

    def test_t1r3_no_threshold(self):
        result = run_experiment("T1R3", scale="quick", seed=0)
        assert result.shape_matches_paper
        assert_rows_have_no_nan(result)

    def test_t1r5_proportional(self):
        result = run_experiment("T1R5", scale="quick", seed=0)
        assert result.shape_matches_paper
        assert_rows_have_no_nan(result)

    def test_fig_noise_decomposition(self):
        result = run_experiment("FIG-NOISE", scale="quick", seed=0)
        assert result.shape_matches_paper

    def test_fig_ode_contrast(self):
        result = run_experiment("FIG-ODE", scale="quick", seed=0)
        assert result.shape_matches_paper
        assert_rows_have_no_nan(result)

    def test_fig_dominating(self):
        result = run_experiment("FIG-DOM", scale="quick", seed=0)
        assert result.shape_matches_paper


class TestAccountingExperimentsRunExact:
    """FIG-BAD and FIG-NOISE read the exact engine's per-event accounting,
    which the tau backend does not measure, so their tasks pin the exact
    backend whatever the scheduler's."""

    @pytest.mark.parametrize("identifier", ["FIG-BAD", "FIG-NOISE"])
    def test_rows_are_the_same_under_the_tau_backend(self, identifier):
        previous = get_default_scheduler()
        results = {}
        try:
            for backend in ("exact", "tau"):
                configure_default_scheduler(backend=backend)
                results[backend] = run_experiment(identifier, scale="quick", seed=0)
        finally:
            configure_default_scheduler(
                backend=previous.backend, tau_epsilon=previous.tau_epsilon
            )
        assert results["tau"].rows == results["exact"].rows
        assert results["tau"].shape_matches_paper


def fake_extinction(time_of, births_of):
    """A stand-in for ``simulate_extinction`` with prescribed mean E(n) and B(n)."""

    def simulate(chain, initial_state, *, num_runs, rng):
        n = initial_state
        return ExtinctionStatistics(
            initial_state=n,
            num_runs=num_runs,
            mean_extinction_time=time_of(n),
            max_extinction_time=int(2 * time_of(n)),
            mean_births=births_of(n),
            max_births=int(2 * births_of(n)) + 1,
            mean_max_state=n + 1.0,
        )

    return simulate


class TestFigBadVerdict:
    """FIG-BAD's verdict reads its nice-chain columns, not only J(S) / log n."""

    def test_nice_chain_columns_match(self):
        result = run_experiment("FIG-BAD", scale="quick", seed=0)
        assert result.shape_matches_paper
        assert result.findings[1].endswith("matching Lemmas 5 and 6")

    @pytest.mark.parametrize(
        "time_of, births_of",
        [
            (lambda n: 3.0 * n, lambda n: n - 32.0),
            (lambda n: 0.05 * n * n, math.log),
        ],
        ids=["births-linear-in-n", "time-quadratic-in-n"],
    )
    def test_growing_chain_columns_fail_the_check(self, monkeypatch, time_of, births_of):
        monkeypatch.setattr(figures, "simulate_extinction", fake_extinction(time_of, births_of))
        result = run_experiment("FIG-BAD", scale="quick", seed=0)
        assert not result.shape_matches_paper
        assert result.findings[1].endswith("does not match Lemmas 5 and 6")

    def test_t1r1_sd_is_sub_polynomial(self):
        result = run_experiment("T1R1-SD", scale="quick", seed=0)
        assert result.shape_matches_paper

    def test_t1r1_nsd_is_polynomial(self):
        result = run_experiment("T1R1-NSD", scale="quick", seed=0)
        assert result.shape_matches_paper


def threshold_rows(gaps):
    """Rows as T1R1's threshold sweep returns them, for n = 64, 128, ...; a
    ``None`` gap is a placeholder row (a search another shard owns)."""
    rows = []
    for index, gap in enumerate(gaps):
        n = 64 * 2**index
        rows.append(
            {
                "n": n,
                "target rho": 0.9,
                "threshold gap": gap,
                "threshold / log^2 n": None if gap is None else round(gap / math.log(n) ** 2, 3),
                "threshold / sqrt(n)": None if gap is None else round(gap / math.sqrt(n), 3),
            }
        )
    return rows


#: Thresholds at n = 64 ... 512 whose best law is each row's: log n for SD,
#: sqrt(n) for NSD, with or without either end.
T1R1_GAPS = {"T1R1-SD": [10, 12, 14, 16], "T1R1-NSD": [4, 6, 8, 11]}
T1R1_RUNS = {"T1R1-SD": table1.run_t1r1_sd, "T1R1-NSD": table1.run_t1r1_nsd}


class TestT1R1PlaceholderRows:
    """In a ``--shard-index`` run the searches other shards own come back as
    placeholder rows (no threshold); T1R1's verdicts read only found ones."""

    @staticmethod
    def _run(monkeypatch, identifier, rows):
        monkeypatch.setattr(table1, "_threshold_sweep", lambda *args, **kwargs: rows)
        return T1R1_RUNS[identifier]("quick", 0)

    @pytest.mark.parametrize("identifier", sorted(T1R1_GAPS))
    def test_all_found_rows_keep_the_unsharded_verdict(self, monkeypatch, identifier):
        gaps = T1R1_GAPS[identifier]
        result = self._run(monkeypatch, identifier, threshold_rows(gaps))
        law = select_scaling_law([64, 128, 256, 512], gaps)[0].law.name
        ratios = [row["threshold / sqrt(n)"] for row in result.rows]
        assert result.findings[0].endswith(f": {law}")
        assert f"({ratios[0]} -> {ratios[-1]})" in result.findings[1]
        assert result.shape_matches_paper

    @pytest.mark.parametrize("missing", [0, 3], ids=["first-size-missing", "last-size-missing"])
    @pytest.mark.parametrize("identifier", sorted(T1R1_GAPS))
    def test_placeholder_rows_are_left_out_of_the_verdict(
        self, monkeypatch, identifier, missing
    ):
        gaps = list(T1R1_GAPS[identifier])
        gaps[missing] = None
        rows = threshold_rows(gaps)
        found = [row for row in rows if row["threshold gap"] is not None]
        sharded = self._run(monkeypatch, identifier, rows)
        found_only = self._run(monkeypatch, identifier, found)
        ratios = [row["threshold / sqrt(n)"] for row in found]
        assert sharded.findings == found_only.findings
        assert f"({ratios[0]} -> {ratios[-1]})" in sharded.findings[1]
        assert sharded.shape_matches_paper

    @pytest.mark.parametrize("owned", [(), (1,)], ids=["no-threshold", "one-threshold"])
    @pytest.mark.parametrize("identifier", sorted(T1R1_GAPS))
    def test_fewer_than_two_thresholds_fit_no_law(self, monkeypatch, identifier, owned):
        gaps = [gap if index in owned else None for index, gap in enumerate(T1R1_GAPS[identifier])]
        result = self._run(monkeypatch, identifier, threshold_rows(gaps))
        assert result.findings[0].endswith(": n/a")
        assert not result.shape_matches_paper
