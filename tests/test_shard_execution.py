"""Chaos-style acceptance tests for sharded sweep execution.

The gate: for K in {2, 4}, K independent shard schedulers each executing
only their planned share of the grid — plus a union of their outputs —
yield results **bitwise-identical** to the single-process run, including
equal summed ``events_executed`` meters, across ``sweep_batch`` variations
and all three sweep entry points (fixed, adaptive, threshold search).
Sharding changes who computes a unit, never what it computes.
"""

from __future__ import annotations

import importlib
from dataclasses import replace

import pytest

from repro.analysis.statistics import PrecisionTarget
from repro.exceptions import ExperimentError
from repro.experiments.registry import run_experiment
from repro.experiments.runner import load_results
from repro.experiments.scheduler import (
    SweepScheduler,
    ThresholdRequest,
    configure_default_scheduler,
    get_default_scheduler,
)
from repro.experiments.sweep import SweepTask, placeholder_ensemble
from repro.lv.state import LVState
from repro.store import ExperimentStore
from repro.__main__ import main

from helpers_journal import journal_contents
from test_store import assert_bitwise_equal


def _tasks(sd_params, nsd_params):
    """A heterogeneous grid: mixed mechanisms, sizes, and budgets."""
    return [
        SweepTask(sd_params, LVState(40, 24), 120, seed=1, label="a"),
        SweepTask(nsd_params, LVState(33, 31), 120, seed=2, label="b"),
        SweepTask(sd_params, LVState(36, 28), 90, seed=3, label="c"),
        SweepTask(nsd_params, LVState(64, 48), 90, seed=4, label="d"),
        SweepTask(sd_params, LVState(20, 12), 150, seed=5, label="e"),
        SweepTask(nsd_params, LVState(24, 20), 150, seed=6, label="f"),
    ]


def _run_sharded(tasks, shards, entry, **config):
    """Run *entry* on every shard; return per-shard outputs, plans, events."""
    outputs, owned_sets, events = [], [], 0
    for shard_index in range(shards):
        scheduler = SweepScheduler(
            batch_size=64,
            shards=shards,
            shard_index=shard_index,
            **config,
        )
        try:
            outputs.append(entry(scheduler, tasks))
            owned_sets.append(set(scheduler.plan_task_shards(tasks).members(shard_index)))
            events += scheduler.events_executed
        finally:
            scheduler.shutdown()
    return outputs, owned_sets, events


class TestShardedSweepBitwise:
    @pytest.mark.parametrize("shards", [2, 4])
    @pytest.mark.parametrize("sweep_batch", [48, 128])
    def test_union_matches_single_process(
        self, shards, sweep_batch, sd_params, nsd_params
    ):
        tasks = _tasks(sd_params, nsd_params)
        reference_scheduler = SweepScheduler(batch_size=64, sweep_batch=64)
        try:
            reference = reference_scheduler.run_sweep(tasks)
            reference_events = reference_scheduler.events_executed
        finally:
            reference_scheduler.shutdown()
        outputs, owned_sets, events = _run_sharded(
            tasks,
            shards,
            lambda scheduler, grid: scheduler.run_sweep(grid),
            sweep_batch=sweep_batch,
        )
        # Every task owned by exactly one shard.
        all_owned = [unit for owned in owned_sets for unit in owned]
        assert sorted(all_owned) == list(range(len(tasks)))
        # Owned rows are bitwise-identical to the single-process run —
        # whatever the sweep_batch — and the work meters add up exactly.
        for owned, results in zip(owned_sets, outputs):
            for index in owned:
                assert_bitwise_equal(results[index], reference[index])
        assert events == reference_events

    @pytest.mark.parametrize("shards", [2, 4])
    @pytest.mark.parametrize("sweep_batch", [64, 96])
    def test_union_matches_across_backends(
        self, shards, sweep_batch, sd_params, nsd_params
    ):
        # Mixed-backend grid: two units pinned to tau-leaping, the rest
        # exact — ownership must not disturb either backend's bit stream,
        # whatever the shards' packing width.
        tasks = _tasks(sd_params, nsd_params)
        tasks[1] = replace(tasks[1], backend="tau")
        tasks[4] = replace(tasks[4], backend="tau")
        reference_scheduler = SweepScheduler(batch_size=64, sweep_batch=64)
        try:
            reference = reference_scheduler.run_sweep(tasks)
            reference_events = reference_scheduler.events_executed
        finally:
            reference_scheduler.shutdown()
        outputs, owned_sets, events = _run_sharded(
            tasks,
            shards,
            lambda scheduler, grid: scheduler.run_sweep(grid),
            sweep_batch=sweep_batch,
        )
        for owned, results in zip(owned_sets, outputs):
            for index in owned:
                assert_bitwise_equal(results[index], reference[index])
        assert events == reference_events

    @pytest.mark.parametrize("shards", [2, 4])
    def test_adaptive_union_matches_single_process(
        self, shards, sd_params, nsd_params
    ):
        tasks = _tasks(sd_params, nsd_params)
        precision = PrecisionTarget(ci_half_width=0.06, max_replicates=400)
        reference_scheduler = SweepScheduler(
            batch_size=64, sweep_batch=64, precision=precision
        )
        try:
            reference = reference_scheduler.run_sweep_adaptive(tasks)
            reference_report = reference_scheduler.last_adaptive_report
        finally:
            reference_scheduler.shutdown()
        for shard_index in range(shards):
            scheduler = SweepScheduler(
                batch_size=64,
                sweep_batch=96,
                precision=precision,
                shards=shards,
                shard_index=shard_index,
            )
            try:
                results = scheduler.run_sweep_adaptive(tasks)
                owned = set(scheduler.plan_task_shards(tasks).members(shard_index))
                report = scheduler.last_adaptive_report
            finally:
                scheduler.shutdown()
            for index in owned:
                assert_bitwise_equal(results[index], reference[index])
                assert report.replicates[index] == reference_report.replicates[index]
                assert report.converged[index] == reference_report.converged[index]

    @pytest.mark.parametrize("shards", [2, 3])
    def test_threshold_union_matches_single_process(self, shards, sd_params):
        requests = [
            ThresholdRequest(sd_params, population_size=n, num_runs=60, seed=7)
            for n in (16, 24, 32, 48)
        ]
        reference_scheduler = SweepScheduler(batch_size=64, sweep_batch=64)
        try:
            reference = reference_scheduler.find_thresholds(requests)
        finally:
            reference_scheduler.shutdown()
        estimates = [None] * len(requests)
        for shard_index in range(shards):
            scheduler = SweepScheduler(
                batch_size=64,
                sweep_batch=64,
                shards=shards,
                shard_index=shard_index,
            )
            try:
                shard_estimates = scheduler.find_thresholds(requests)
                owned = scheduler.plan_threshold_shards(requests).members(shard_index)
            finally:
                scheduler.shutdown()
            for index, estimate in enumerate(shard_estimates):
                if index in owned:
                    assert estimates[index] is None
                    estimates[index] = estimate
                else:
                    # Placeholder: no search ran, nothing was measured.
                    assert estimate.threshold_gap is None
                    assert estimate.probes == {}
        for estimate, expected in zip(estimates, reference):
            assert estimate is not None
            assert estimate.threshold_gap == expected.threshold_gap
            assert set(estimate.probes) == set(expected.probes)

    def test_plan_is_identical_across_shard_processes(self, sd_params, nsd_params):
        tasks = _tasks(sd_params, nsd_params)
        plans = []
        for shard_index in range(3):
            scheduler = SweepScheduler(shards=3, shard_index=shard_index)
            try:
                plans.append(scheduler.plan_task_shards(tasks))
            finally:
                scheduler.shutdown()
        assert plans[0] == plans[1] == plans[2]


class TestPlaceholders:
    def test_placeholder_preserves_initial_counts(self, sd_params):
        result = placeholder_ensemble(sd_params, LVState(40, 24))
        assert result.final_x0.tolist() == [40]
        assert result.final_x1.tolist() == [24]
        assert result.total_events.tolist() == [0]
        assert result.termination_codes.tolist() == [2]
        assert not bool(result.hit_tie[0])


class TestSchedulerValidation:
    def test_shards_must_be_positive(self):
        with pytest.raises(ExperimentError):
            SweepScheduler(shards=0)

    def test_shard_index_must_be_in_range(self):
        with pytest.raises(ExperimentError):
            SweepScheduler(shards=2, shard_index=2)
        with pytest.raises(ExperimentError):
            SweepScheduler(shards=2, shard_index=-1)

    def test_shard_history_must_be_a_history(self):
        with pytest.raises(ExperimentError):
            SweepScheduler(shard_history={"not": "a history"})

    def test_configure_default_scheduler_keeps_and_resets(self):
        try:
            scheduler = configure_default_scheduler(shards=3, shard_index=1)
            assert (scheduler.shards, scheduler.shard_index) == (3, 1)
            # Unrelated reconfiguration keeps the shard settings.
            scheduler = configure_default_scheduler(jobs=1)
            assert (scheduler.shards, scheduler.shard_index) == (3, 1)
            scheduler = configure_default_scheduler(shards=1, shard_index=0)
            assert (scheduler.shards, scheduler.shard_index) == (1, 0)
        finally:
            configure_default_scheduler(shards=1, shard_index=0, shard_history=None)


class TestRegistryShardMode:
    def test_run_tier_is_skipped_for_shard_runs(self, tmp_path):
        store = ExperimentStore(tmp_path / "cache")
        try:
            configure_default_scheduler(
                store=store, shards=2, shard_index=0, sweep_batch=256
            )
            run_experiment("T1R2", scale="quick", seed=0, store=store)
            # Chunks journaled, but no run-tier entry: the result holds
            # placeholder rows for the other shard's units.
            assert store.stats.run_writes == 0
            assert not (tmp_path / "cache" / "runs").exists()
        finally:
            configure_default_scheduler(
                store=None, shards=1, shard_index=0, shard_history=None
            )
            get_default_scheduler().shutdown()
            store.close()


class TestShardCliValidation:
    @pytest.mark.parametrize(
        "extra",
        [
            ["--shard-index", "0"],
            ["--shard-history", "somewhere"],
            ["--shards", "0"],
            ["--shards", "2", "--shard-index", "2", "--cache-dir", "d"],
            ["--shards", "2", "--shard-index", "0"],  # no --cache-dir
            ["--shards", "2", "--shard-index", "0", "--cache-dir", "d", "--no-cache"],
            ["--shards", "2", "--shard-index", "0", "--cache-dir", "d", "--resume"],
            [
                "--shards",
                "2",
                "--shard-index",
                "0",
                "--shard-history",
                "/nonexistent/path",
                "--cache-dir",
                "d",
            ],
        ],
    )
    def test_invalid_shard_flags_exit_with_code_2(self, extra):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "T1R2", *extra])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("shards", ["1", "2"])
    def test_shards_without_an_index_exit_with_code_2_naming_jobs(
        self, shards, tmp_path, capsys
    ):
        # One machine's processes are --jobs's; --shards only splits a run
        # across separate invocations.
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "T1R2", "--shards", shards, "--cache-dir", str(tmp_path / "c")])
        assert excinfo.value.code == 2
        assert f"use --jobs {shards}" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_local_driver_flag_and_module_are_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "T1R2", "--shards", "2", "--shard-slices", "4"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --shard-slices" in capsys.readouterr().err
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.shard.driver")


class TestShardCliEndToEnd:
    def test_four_shards_merge_and_replay_the_single_process_run(
        self, tmp_path, capsys, monkeypatch
    ):
        # Threshold searches owned by other shards come back as placeholder
        # rows (no threshold); every shard's verdict must still evaluate.
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        experiments = ["T1R1-SD", "T1R1-NSD", "--scale", "quick"]
        reference_dir = tmp_path / "reference"
        merged_dir = tmp_path / "merged"
        tables = lambda text: text[: text.index("cache:")]

        reference_code = main(["run", *experiments, "--cache-dir", str(reference_dir)])
        reference_output = capsys.readouterr().out
        shard_dirs = [tmp_path / f"shard-{index}" for index in range(4)]
        for index, shard_dir in enumerate(shard_dirs):
            assert main(
                [
                    "run",
                    *experiments,
                    "--shards",
                    "4",
                    "--shard-index",
                    str(index),
                    "--cache-dir",
                    str(shard_dir),
                ]
            ) == 0
        assert main(["merge-cache", str(merged_dir), *map(str, shard_dirs)]) == 0
        capsys.readouterr()
        assert main(["run", *experiments, "--cache-dir", str(merged_dir)]) == reference_code
        replay_output = capsys.readouterr().out
        # The replay served everything from the merged shard journals...
        assert "0 miss(es)" in replay_output
        # ...into identical result tables and identical journaled bits.
        assert tables(replay_output) == tables(reference_output)
        assert journal_contents(merged_dir) == journal_contents(reference_dir)

    def test_a_shard_leaves_the_verdict_to_the_replay_in_every_output(
        self, tmp_path, capsys, monkeypatch
    ):
        # Shard 3 of 4 owns none of T1R1-NSD's searches, so a verdict over
        # its placeholder rows would read DOES NOT MATCH.
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        json_path, report_path = tmp_path / "shard-3.json", tmp_path / "shard-3.md"
        code = main(
            [
                "run",
                "T1R1-SD",
                "T1R1-NSD",
                "--scale",
                "quick",
                "--shards",
                "4",
                "--shard-index",
                "3",
                "--cache-dir",
                str(tmp_path / "shard-3"),
                "--json",
                str(json_path),
                "--report",
                str(report_path),
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "[T1R1-SD]" in output and "[T1R1-NSD]" in output
        assert "MATCH" not in output
        assert output.count("verdict: waits for the merged replay") == 2
        # The --json file keeps the rows and holds no findings or verdict...
        saved = load_results(json_path)
        assert [result.identifier for result in saved] == ["T1R1-SD", "T1R1-NSD"]
        for result in saved:
            assert result.rows
            assert result.findings == []
            assert result.shape_matches_paper is None
        # ...and so does the --report.
        report = report_path.read_text()
        assert "| T1R1-NSD |" in report and "| n/a |" in report
        assert "*Verdict.*" not in report and "*Measured.*" not in report

    def test_merge_cache_command(self, tmp_path, capsys):
        from repro.store import ChunkJournal

        for name, payload in (("a", {"v": 1}), ("b", {"v": 2})):
            journal = ChunkJournal(tmp_path / name / "journal.jsonl")
            journal.append(f"k-{name}", payload)
            journal.close()
        assert main(
            [
                "merge-cache",
                str(tmp_path / "dst"),
                str(tmp_path / "a"),
                str(tmp_path / "b"),
            ]
        ) == 0
        assert "2 chunk(s) added" in capsys.readouterr().out

    def test_merge_cache_conflict_exits_with_code_1(self, tmp_path, capsys):
        from repro.store import ChunkJournal

        for name, payload in (("a", {"v": 1}), ("b", {"v": 2})):
            journal = ChunkJournal(tmp_path / name / "journal.jsonl")
            journal.append("same-key", payload)
            journal.close()
        assert main(
            [
                "merge-cache",
                str(tmp_path / "dst"),
                str(tmp_path / "a"),
                str(tmp_path / "b"),
            ]
        ) == 1
        assert "merge conflict" in capsys.readouterr().err
