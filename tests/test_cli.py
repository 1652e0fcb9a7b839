"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import build_parser, main

from helpers_journal import parse_line

ESTIMATE_ARGS = ["estimate", "--population", "10", "--gap", "2"]


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_command_parses(self):
        arguments = build_parser().parse_args(["list"])
        assert arguments.command == "list"

    def test_run_command_defaults(self):
        arguments = build_parser().parse_args(["run", "T1R3"])
        assert arguments.identifiers == ["T1R3"]
        assert arguments.scale == "quick"
        assert not arguments.all

    def test_estimate_requires_population_and_gap(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["estimate", "--population", "100"])

    def test_backend_flags_parse(self):
        arguments = build_parser().parse_args(
            ["run", "T1R3", "--backend", "tau", "--tau-epsilon", "0.05"]
        )
        assert arguments.backend == "tau"
        assert arguments.tau_epsilon == 0.05

    def test_backend_defaults_to_none(self):
        arguments = build_parser().parse_args(["run", "T1R3"])
        assert arguments.backend is None
        assert arguments.tau_epsilon is None

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "T1R3", "--backend", "fast"])

    @pytest.mark.parametrize("command", [["run", "T1R3"], ESTIMATE_ARGS])
    def test_engine_flag_is_gone(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--engine", "numpy"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --engine" in capsys.readouterr().err

    def test_fault_flags_parse(self):
        arguments = build_parser().parse_args(
            [
                "run",
                "T1R3",
                "--max-retries",
                "5",
                "--task-timeout",
                "30",
                "--on-fault",
                "fail",
            ]
        )
        assert arguments.max_retries == 5
        assert arguments.task_timeout == 30.0
        assert arguments.on_fault == "fail"

    def test_fault_flags_default_to_none(self):
        arguments = build_parser().parse_args(["run", "T1R3"])
        assert arguments.max_retries is None
        assert arguments.task_timeout is None
        assert arguments.on_fault is None

    def test_unknown_on_fault_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["run", "T1R3", "--on-fault", "explode"])
        assert excinfo.value.code == 2

    def test_lint_help_names_the_live_rule_classes_only(self, capsys):
        # The nopython-subset class (RC4xx) retired with the native kernels.
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        output = " ".join(capsys.readouterr().out.split())
        assert (
            "statically check the determinism contracts (RNG discipline, "
            "iteration order, store-key purity)"
        ) in output
        assert "njit" not in output and "nopython" not in output


class TestCommands:
    def test_info_lists_registered_scenarios(self, capsys):
        assert main(["info"]) == 0
        output = capsys.readouterr().out
        assert "scenarios:" in output
        for line in (
            "lv2        2 species (X0, X1)",
            "opinion3   3 species (X0, X1, X2)",
            "opinion4   4 species (X0, X1, X2, X3)",
            "catalysis  3 species (X0, X1, C)",
            "resource   3 species (X0, X1, R)",
        ):
            assert line in output
        assert output.count("backends: exact, tau") == 5
        assert "engines" not in output

    def test_version_prints_repro_and_numpy(self, capsys):
        import numpy

        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == (
            f"repro {__version__} (numpy {numpy.__version__})"
        )

    def test_list_prints_every_experiment(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for identifier in ("T1R1-SD", "T1R2", "FIG-NOISE", "FIG-DOM"):
            assert identifier in output

    def test_run_without_selection_is_an_error(self, capsys):
        assert main(["run"]) == 2
        assert "no experiments selected" in capsys.readouterr().out

    def test_run_single_experiment_with_outputs(self, tmp_path, capsys):
        json_path = tmp_path / "results.json"
        report_path = tmp_path / "report.md"
        exit_code = main(
            [
                "run",
                "FIG-NOISE",
                "--scale",
                "quick",
                "--seed",
                "1",
                "--json",
                str(json_path),
                "--report",
                str(report_path),
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "FIG-NOISE" in output
        payload = json.loads(json_path.read_text())
        assert payload[0]["identifier"] == "FIG-NOISE"
        assert "FIG-NOISE" in report_path.read_text()

    def test_estimate_command(self, capsys):
        exit_code = main(
            [
                "estimate",
                "--mechanism",
                "sd",
                "--population",
                "128",
                "--gap",
                "32",
                "--runs",
                "100",
                "--seed",
                "0",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "rho estimate" in output
        assert "mean consensus time" in output

    def test_estimate_command_nsd_with_gamma(self, capsys):
        exit_code = main(
            [
                "estimate",
                "--mechanism",
                "nsd",
                "--population",
                "64",
                "--gap",
                "8",
                "--gamma",
                "0.5",
                "--runs",
                "50",
            ]
        )
        assert exit_code == 0
        assert "NSD" in capsys.readouterr().out

    def test_estimate_command_with_tau_backend(self, capsys):
        from repro.experiments.scheduler import (
            configure_default_scheduler,
            get_default_scheduler,
        )

        original = get_default_scheduler()
        try:
            exit_code = main(
                [
                    "estimate",
                    "--mechanism",
                    "sd",
                    "--population",
                    "60000",
                    "--gap",
                    "200",
                    "--runs",
                    "8",
                    "--seed",
                    "0",
                    "--backend",
                    "tau",
                ]
            )
            assert exit_code == 0
            assert "rho estimate" in capsys.readouterr().out
            assert get_default_scheduler().leap_events_executed > 0
        finally:
            configure_default_scheduler(
                backend=original.backend, tau_epsilon=original.tau_epsilon
            )

    def test_invalid_tau_epsilon_exits(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "estimate",
                    "--mechanism",
                    "sd",
                    "--population",
                    "64",
                    "--gap",
                    "8",
                    "--tau-epsilon",
                    "2.0",
                ]
            )


ESTIMATE_PREFIX = ["estimate", "--population", "64", "--gap", "8", "--runs", "20"]


class TestFlagValidationSymmetry:
    """Every numeric flag misuse exits with argparse's usage-error code 2."""

    @pytest.mark.parametrize(
        "extra",
        [
            ["--target-ci-width", "0"],
            ["--target-ci-width", "-0.1"],
            ["--target-ci-width", "1.5"],
            ["--target-ci-width", "0.1", "--max-replicates", "0"],
            ["--target-ci-width", "0.1", "--max-replicates", "-5"],
            ["--max-replicates", "100"],  # requires --target-ci-width
            ["--tau-epsilon", "0"],
            ["--tau-epsilon", "-0.5"],
            ["--tau-epsilon", "2.0"],
            ["--jobs", "0"],
            ["--jobs", "-1"],
            ["--sweep-batch", "0"],
            ["--max-retries", "-1"],
            ["--task-timeout", "0"],
            ["--task-timeout", "-2.5"],
        ],
    )
    def test_nonsensical_values_exit_with_code_2(self, extra):
        for argv in (["run", "T1R3", *extra], ESTIMATE_PREFIX + extra):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2


class TestCacheFlags:
    def test_cache_flags_parse(self, tmp_path):
        arguments = build_parser().parse_args(
            ["run", "T1R3", "--cache-dir", str(tmp_path), "--resume"]
        )
        assert arguments.cache_dir == tmp_path
        assert arguments.resume
        assert not arguments.no_cache

    @pytest.mark.parametrize(
        "extra", [["--resume"], ["--cache-dir", "somewhere"]]
    )
    def test_no_cache_conflicts_exit_with_code_2(self, extra):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "T1R3", "--no-cache", *extra])
        assert excinfo.value.code == 2

    def test_run_with_cache_dir_journals_and_resumes(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        argv = ["run", "FIG-ODE", "--seed", "2", "--cache-dir", str(cache)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "journaled" in first
        assert (cache / "journal.jsonl").exists()
        # Chunk-level replay without --resume: same results, zero simulation.
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "0 miss(es)" in second
        # Run-level cache with --resume: the whole experiment is served.
        assert main(argv + ["--resume"]) == 0
        third = capsys.readouterr().out
        assert "1 run(s) from cache" in third

        def table(output):
            return [
                line for line in output.splitlines() if line.startswith("  ")
            ]

        assert table(first) == table(second) == table(third)

    @pytest.mark.parametrize(
        "arguments, message",
        [
            (["T1R3", "--target-ci-width", "2.0"], "--target-ci-width must be in (0, 1)"),
            (["NOPE"], "unknown experiment id(s): NOPE; known ids: FIG-BAD, "),
        ],
        ids=["bad-flag", "unknown-id"],
    )
    def test_usage_error_never_acquires_the_store_lock(self, tmp_path, capsys, arguments, message):
        """Flag and id validation run before the store opens, so no lock can leak."""
        from repro.store import ExperimentStore

        cache = tmp_path / "cache"
        with pytest.raises(SystemExit) as excinfo:
            main(["run", *arguments, "--cache-dir", str(cache)])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err
        assert not (cache / "lock").exists()
        ExperimentStore(cache).close()  # lock free: nothing leaked

    @pytest.mark.parametrize(
        "arguments, message",
        [
            (["--runs", "0"], "--runs must be at least 1, got 0"),
            (["--population", "0"], "--population must be at least 1, got 0"),
            (["--gap", "12"], "--gap must be in [0, --population] = [0, 10], got 12"),
            (["--gap", "-3"], "--gap must be in [0, --population] = [0, 10], got -3"),
            (["--beta", "-1"], "--beta must be a finite non-negative number, got -1.0"),
            (["--gamma", "-1"], "--gamma must be a finite non-negative number, got -1.0"),
            # A NaN rate used to reach the engine and run to the event budget.
            (["--beta", "nan"], "--beta must be a finite non-negative number, got nan"),
            (["--alpha", "inf"], "--alpha must be a finite non-negative number, got inf"),
            (
                ["--beta", "0", "--delta", "0", "--alpha", "0"],
                "at least one rate must be positive",
            ),
        ],
        ids=[
            "runs",
            "population",
            "gap-high",
            "gap-negative",
            "beta",
            "gamma",
            "beta-nan",
            "alpha-inf",
            "all-zero",
        ],
    )
    def test_estimate_usage_error_never_creates_the_store(
        self, tmp_path, capsys, arguments, message
    ):
        """Estimate checks its configuration before the store opens."""
        cache = tmp_path / "cache"
        with pytest.raises(SystemExit) as excinfo:
            main([*ESTIMATE_ARGS, *arguments, "--cache-dir", str(cache)])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err
        assert not cache.exists()

    def test_store_detached_and_closed_after_main(self, tmp_path, capsys):
        from repro.experiments.scheduler import get_default_scheduler
        from repro.store import ExperimentStore

        cache = tmp_path / "cache"
        assert main(ESTIMATE_PREFIX + ["--seed", "9", "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        assert get_default_scheduler().store is None
        # The writer lock was released, so a fresh store can open the dir.
        ExperimentStore(cache).close()

    def test_estimate_with_cache_dir_replays_chunks(self, capsys, tmp_path):
        argv = ESTIMATE_PREFIX + ["--seed", "4", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "1 journaled" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "1 chunk hit(s)" in second
        assert first.splitlines()[:5] == second.splitlines()[:5]

    def test_environment_variable_names_default_cache(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        assert main(ESTIMATE_PREFIX + ["--seed", "6"]) == 0
        assert (tmp_path / "env-cache" / "journal.jsonl").exists()
        capsys.readouterr()

    def test_no_cache_disables_environment_cache(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        assert main(ESTIMATE_PREFIX + ["--seed", "6", "--no-cache"]) == 0
        assert not (tmp_path / "env-cache").exists()
        assert "cache:" not in capsys.readouterr().out


class TestFaultFlags:
    def test_fault_flags_configure_the_scheduler(self, capsys):
        from repro.experiments.scheduler import FaultTolerance, get_default_scheduler

        argv = ESTIMATE_PREFIX + [
            "--seed",
            "3",
            "--max-retries",
            "4",
            "--task-timeout",
            "45",
            "--on-fault",
            "fail",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        policy = get_default_scheduler().fault_tolerance
        assert policy.max_retries == 4
        assert policy.task_timeout == 45.0
        assert policy.on_fault == "fail"
        # The next flag-less invocation resets to the defaults: one run's
        # fault flags never leak into the next.
        assert main(ESTIMATE_PREFIX + ["--seed", "3"]) == 0
        capsys.readouterr()
        assert get_default_scheduler().fault_tolerance == FaultTolerance()

    def test_clean_run_prints_no_health_line(self, capsys):
        assert main(ESTIMATE_PREFIX + ["--seed", "3"]) == 0
        assert "health:" not in capsys.readouterr().out

    def test_chaos_run_prints_the_health_line(self, capsys, monkeypatch, tmp_path):
        from repro.faults import FaultPlan, FaultSpec

        plan = FaultPlan(seed=5, crash=FaultSpec(rate=1.0))
        monkeypatch.setenv("REPRO_FAULT_PLAN", plan.to_json())
        argv = ESTIMATE_PREFIX + ["--seed", "3", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "health:" in output
        assert "retr" in output

    def test_chaos_run_matches_clean_output(self, capsys, monkeypatch):
        from repro.faults import FaultPlan, FaultSpec

        argv = ESTIMATE_PREFIX + ["--seed", "3"]
        assert main(argv) == 0
        clean = capsys.readouterr().out
        plan = FaultPlan(seed=5, crash=FaultSpec(rate=1.0))
        monkeypatch.setenv("REPRO_FAULT_PLAN", plan.to_json())
        assert main(argv) == 0
        chaos = capsys.readouterr().out
        assert [line for line in chaos.splitlines() if not line.startswith("health:")] == (
            clean.splitlines()
        )


class TestVerifyCache:
    def _seed_cache(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(ESTIMATE_PREFIX + ["--seed", "4", "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        return cache

    def test_missing_journal_is_ok(self, tmp_path, capsys):
        assert main(["verify-cache", "--cache-dir", str(tmp_path / "nowhere")]) == 0
        assert "nothing to verify" in capsys.readouterr().out

    def test_clean_journal_exits_zero(self, tmp_path, capsys):
        cache = self._seed_cache(tmp_path, capsys)
        assert main(["verify-cache", "--cache-dir", str(cache)]) == 0
        output = capsys.readouterr().out
        assert "intact record(s)" in output
        assert "corrupt" not in output

    def test_corrupted_journal_exits_one_and_names_the_record(
        self, tmp_path, capsys
    ):
        from test_store import TestChunkJournal

        cache = self._seed_cache(tmp_path, capsys)
        journal = cache / "journal.jsonl"
        key = parse_line(journal.read_bytes().splitlines()[0])["key"]
        TestChunkJournal._corrupt_record(None, journal, key)
        assert main(["verify-cache", "--cache-dir", str(cache)]) == 1
        output = capsys.readouterr().out
        assert "checksum mismatch" in output
        assert key in output
        assert "recomputed on the next run" in output

    def test_environment_variable_names_the_cache(self, tmp_path, capsys, monkeypatch):
        cache = self._seed_cache(tmp_path, capsys)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
        assert main(["verify-cache"]) == 0
        assert "intact record(s)" in capsys.readouterr().out

    def test_verification_is_read_only(self, tmp_path, capsys):
        cache = self._seed_cache(tmp_path, capsys)
        journal = cache / "journal.jsonl"
        before = journal.read_bytes()
        assert main(["verify-cache", "--cache-dir", str(cache)]) == 0
        assert journal.read_bytes() == before
