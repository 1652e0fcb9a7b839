"""Resume determinism: a killed sweep resumes bitwise-identically.

The contract under test — the tentpole acceptance criterion — is that
interrupting a store-backed sweep after any number of journaled chunks and
re-running it against the same cache directory reproduces the uninterrupted
run **bit-for-bit**, with the journaled prefix served from the store, and
that this holds across ``sweep_batch`` / ``jobs`` settings (which the chunk
keys deliberately exclude).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.statistics import PrecisionTarget
from repro.experiments.scheduler import SweepScheduler, ThresholdRequest
from repro.experiments.sweep import SweepTask
from repro.lv.state import LVState
from repro.store import ExperimentStore

from test_store import assert_bitwise_equal


class SimulatedKill(BaseException):
    """Raised mid-run to model SIGTERM/Ctrl-C between journal appends."""


class KillingStore(ExperimentStore):
    """A store that dies after journaling its *kill_after*-th chunk."""

    def __init__(self, cache_dir, *, kill_after):
        super().__init__(cache_dir)
        self.kill_after = kill_after

    def put_chunk(self, key, result, **metadata):
        super().put_chunk(key, result, **metadata)
        if self.stats.chunk_writes >= self.kill_after:
            raise SimulatedKill


def _tasks(sd_params, nsd_params):
    return [
        SweepTask(sd_params, LVState(40, 24), 300, seed=1, label="easy"),
        SweepTask(nsd_params, LVState(33, 31), 300, seed=2, label="hard"),
        SweepTask(sd_params, LVState(36, 28), 300, seed=3, label="medium"),
    ]


TARGET = PrecisionTarget(ci_half_width=0.05, min_replicates=64, max_replicates=512)


class TestAdaptiveResume:
    @pytest.mark.parametrize("kill_after", [1, 3])
    @pytest.mark.parametrize(
        "resume_config",
        [
            dict(),
            dict(sweep_batch=96),
            dict(jobs=2),
        ],
        ids=["same-config", "different-sweep-batch", "jobs-2"],
    )
    def test_killed_adaptive_sweep_resumes_bitwise(
        self, tmp_path, sd_params, nsd_params, kill_after, resume_config
    ):
        tasks = _tasks(sd_params, nsd_params)
        reference_scheduler = SweepScheduler(wave_quantum=64)
        reference = reference_scheduler.run_sweep_adaptive(tasks, target=TARGET)
        reference_report = reference_scheduler.last_adaptive_report

        killing = KillingStore(tmp_path, kill_after=kill_after)
        with pytest.raises(SimulatedKill):
            SweepScheduler(wave_quantum=64, store=killing).run_sweep_adaptive(
                tasks, target=TARGET
            )
        killing.close()
        assert killing.stats.chunk_writes == kill_after

        store = ExperimentStore(tmp_path)
        scheduler = SweepScheduler(wave_quantum=64, store=store, **resume_config)
        resumed = scheduler.run_sweep_adaptive(tasks, target=TARGET)
        # The journaled prefix was replayed, not recomputed ...
        assert store.stats.chunk_hits == kill_after
        # ... and the merged per-task ensembles are identical to the last bit,
        # as is the adaptive report (waves, retired set, half-widths).
        for expected, actual in zip(reference, resumed):
            assert_bitwise_equal(expected, actual)
        assert scheduler.last_adaptive_report == reference_report

    def test_second_interruption_also_resumes(self, tmp_path, sd_params, nsd_params):
        """Kills can pile up; each resume extends the journaled prefix."""
        tasks = _tasks(sd_params, nsd_params)
        reference = SweepScheduler(wave_quantum=64).run_sweep_adaptive(
            tasks, target=TARGET
        )
        for kill_after in (1, 2):
            killing = KillingStore(tmp_path, kill_after=kill_after)
            with pytest.raises(SimulatedKill):
                SweepScheduler(wave_quantum=64, store=killing).run_sweep_adaptive(
                    tasks, target=TARGET
                )
            killing.close()
        store = ExperimentStore(tmp_path)
        resumed = SweepScheduler(wave_quantum=64, store=store).run_sweep_adaptive(
            tasks, target=TARGET
        )
        assert store.stats.chunk_hits > 0
        for expected, actual in zip(reference, resumed):
            assert_bitwise_equal(expected, actual)


class TestFixedBudgetResume:
    @pytest.mark.parametrize("resume_config", [dict(), dict(sweep_batch=128)])
    def test_killed_fixed_sweep_resumes_bitwise(
        self, tmp_path, sd_params, nsd_params, resume_config
    ):
        tasks = _tasks(sd_params, nsd_params)
        reference = SweepScheduler(batch_size=128).run_sweep(tasks)

        killing = KillingStore(tmp_path, kill_after=2)
        with pytest.raises(SimulatedKill):
            SweepScheduler(batch_size=128, store=killing).run_sweep(tasks)
        killing.close()

        store = ExperimentStore(tmp_path)
        resumed = SweepScheduler(batch_size=128, store=store, **resume_config).run_sweep(
            tasks
        )
        assert store.stats.chunk_hits == 2
        for expected, actual in zip(reference, resumed):
            assert_bitwise_equal(expected, actual)


    def test_killed_one_task_budget_resumes_bitwise(self, tmp_path, sd_params):
        """One configuration's budget over several members (``repro estimate``)."""
        task = SweepTask(sd_params, LVState(24, 16), 200, seed=5)
        (reference,) = SweepScheduler(batch_size=64).run_sweep([task])
        killing = KillingStore(tmp_path, kill_after=1)
        with pytest.raises(SimulatedKill):
            SweepScheduler(batch_size=64, store=killing).run_sweep([task])
        killing.close()
        store = ExperimentStore(tmp_path)
        (resumed,) = SweepScheduler(batch_size=64, store=store).run_sweep([task])
        assert store.stats.chunk_hits == 1
        assert store.stats.chunk_misses > 0
        assert_bitwise_equal(reference, resumed)

class TestThresholdResume:
    def test_killed_threshold_sweep_resumes_identically(
        self, tmp_path, sd_params, nsd_params
    ):
        requests = [
            ThresholdRequest(sd_params, 64, num_runs=60, seed=7),
            ThresholdRequest(nsd_params, 64, num_runs=60, seed=8),
        ]
        reference = SweepScheduler().find_thresholds(requests)

        killing = KillingStore(tmp_path, kill_after=3)
        with pytest.raises(SimulatedKill):
            SweepScheduler(store=killing).find_thresholds(requests)
        killing.close()

        store = ExperimentStore(tmp_path)
        resumed = SweepScheduler(store=store).find_thresholds(requests)
        assert store.stats.chunk_hits >= 3
        for expected, actual in zip(reference, resumed):
            assert expected.threshold_gap == actual.threshold_gap
            assert expected.target_probability == actual.target_probability
            # Identical probe schedule and identical per-probe estimates:
            # the resumed search retraced the interrupted one exactly.
            assert list(expected.probes) == list(actual.probes)
            for gap, probe in expected.probes.items():
                assert actual.probes[gap].majority_probability == probe.majority_probability
                assert actual.probes[gap].num_runs == probe.num_runs


class TestKeyboardInterruptDurability:
    """Ctrl-C propagates, but chunks journaled before it survive (satellite).

    ``on_result`` journals each mega-batch the moment it completes, so a
    ``KeyboardInterrupt`` raised by a later batch — the inline executor
    re-raises it immediately — can only cost in-flight work, never finished
    work.  The resumed run then replays the journaled prefix bit-for-bit,
    exactly like the SIGTERM/kill scenarios above.
    """

    @pytest.mark.parametrize("interrupt_at", [2, 4])
    def test_interrupt_mid_sweep_keeps_journaled_chunks(
        self, tmp_path, monkeypatch, sd_params, nsd_params, interrupt_at
    ):
        import repro.experiments.scheduler as scheduler_module
        from repro.experiments.sweep import execute_mega_batch

        tasks = _tasks(sd_params, nsd_params)
        reference = SweepScheduler(batch_size=128, sweep_batch=128).run_sweep(tasks)

        calls = dict(count=0)

        def interrupting(*args, **kwargs):
            calls["count"] += 1
            if calls["count"] == interrupt_at:
                raise KeyboardInterrupt
            return execute_mega_batch(*args, **kwargs)

        monkeypatch.setattr(scheduler_module, "execute_mega_batch", interrupting)
        store = ExperimentStore(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            SweepScheduler(batch_size=128, sweep_batch=128, store=store).run_sweep(tasks)
        store.close()
        monkeypatch.undo()

        journaled = interrupt_at - 1
        resume_store = ExperimentStore(tmp_path)
        resumed = SweepScheduler(
            batch_size=128, sweep_batch=128, store=resume_store
        ).run_sweep(tasks)
        assert resume_store.stats.chunk_hits == journaled
        for expected, actual in zip(reference, resumed):
            assert_bitwise_equal(expected, actual)

    def test_interrupt_mid_adaptive_sweep_keeps_journaled_chunks(
        self, tmp_path, monkeypatch, sd_params, nsd_params
    ):
        import repro.experiments.scheduler as scheduler_module
        from repro.experiments.sweep import execute_mega_batch

        tasks = _tasks(sd_params, nsd_params)
        reference_scheduler = SweepScheduler(wave_quantum=64)
        reference = reference_scheduler.run_sweep_adaptive(tasks, target=TARGET)

        calls = dict(count=0)

        def interrupting(*args, **kwargs):
            calls["count"] += 1
            if calls["count"] == 2:
                raise KeyboardInterrupt
            return execute_mega_batch(*args, **kwargs)

        monkeypatch.setattr(scheduler_module, "execute_mega_batch", interrupting)
        store = ExperimentStore(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            SweepScheduler(wave_quantum=64, store=store).run_sweep_adaptive(
                tasks, target=TARGET
            )
        store.close()
        monkeypatch.undo()

        resume_store = ExperimentStore(tmp_path)
        scheduler = SweepScheduler(wave_quantum=64, store=resume_store)
        resumed = scheduler.run_sweep_adaptive(tasks, target=TARGET)
        assert resume_store.stats.chunk_hits >= 1
        assert scheduler.last_adaptive_report == reference_scheduler.last_adaptive_report
        for expected, actual in zip(reference, resumed):
            assert_bitwise_equal(expected, actual)


class TestInterruptedJournalFile:
    def test_truncated_journal_resumes(self, tmp_path, sd_params, nsd_params):
        """A SIGKILL mid-append leaves a torn line; resume survives it."""
        tasks = _tasks(sd_params, nsd_params)
        reference = SweepScheduler(batch_size=128).run_sweep(tasks)
        seeding = ExperimentStore(tmp_path)
        SweepScheduler(batch_size=128, store=seeding).run_sweep(tasks)
        seeding.close()
        journal = tmp_path / "journal.jsonl"
        raw = journal.read_bytes()
        journal.write_bytes(raw[: len(raw) - 25])  # tear the final record
        store = ExperimentStore(tmp_path)
        resumed = SweepScheduler(batch_size=128, store=store).run_sweep(tasks)
        assert store.stats.chunk_hits > 0  # intact prefix replayed
        assert store.stats.chunk_misses > 0  # torn record recomputed
        for expected, actual in zip(reference, resumed):
            assert_bitwise_equal(expected, actual)
