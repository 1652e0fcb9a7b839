"""Durability of the chunk tier's write scope (``ExperimentStore.batch``).

``put_chunk`` inside a scope writes, flushes and indexes each chunk before it
returns, and the scope's exit fsyncs once, also when its body raises.  The
scheduler opens one scope per mega-batch and ``merge_cache`` one per union,
so a sweep costs one fsync per mega-batch that journals a chunk.  fsyncs are
counted by wrapping ``os.fsync`` as :mod:`repro.store.journal` resolves it;
each call records the journal's size at that moment, so a test can tell
which records an fsync covered.
"""

from __future__ import annotations

import os

import pytest

import repro.faults
from repro.experiments.scheduler import SweepScheduler
from repro.experiments.sweep import SweepTask, plan_mega_batches
from repro.lv.state import LVState
from repro.store import ExperimentStore, merge_cache, verify_journal
from repro.store import journal as journal_module

from helpers_journal import parse_line
from test_resume_determinism import KillingStore, SimulatedKill
from test_store import assert_bitwise_equal

#: Lock-step batch size: each of ``three_tasks`` is one member, and
#: :func:`scheduler` packs the three into one mega-batch.
BATCH_SIZE = 64


@pytest.fixture
def fsyncs(monkeypatch):
    """The size of the synced file at every fsync the journal module makes."""
    sizes = []
    real_fsync = journal_module.os.fsync

    def counting_fsync(fd):
        sizes.append(os.fstat(fd).st_size)
        real_fsync(fd)

    monkeypatch.setattr(journal_module.os, "fsync", counting_fsync)
    return sizes


@pytest.fixture
def three_tasks(sd_params, nsd_params):
    return [
        SweepTask(sd_params, LVState(24, 16), 40, seed=1, label="first"),
        SweepTask(nsd_params, LVState(22, 18), 40, seed=2, label="middle"),
        SweepTask(sd_params, LVState(26, 14), 40, seed=3, label="last"),
    ]


def scheduler(store=None, **config):
    return SweepScheduler(batch_size=BATCH_SIZE, sweep_batch=512, store=store, **config)


def journal_size(cache):
    return (cache / "journal.jsonl").stat().st_size


def journal_keys(cache):
    return [parse_line(line)["key"] for line in (cache / "journal.jsonl").read_bytes().splitlines()]


class TestOneFsyncPerMegaBatch:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_sweep_fsyncs_once_per_mega_batch(self, tmp_path, sd_params, fsyncs, jobs):
        tasks = [
            SweepTask(sd_params, LVState(20 + index, 12), 100 + 30 * index, seed=index)
            for index in range(5)
        ]
        plans = plan_mega_batches(tasks, batch_size=BATCH_SIZE, sweep_batch=256)
        members = sum(len(plan) for plan in plans)
        assert 1 < len(plans) < members
        with ExperimentStore(tmp_path) as store:
            runner = SweepScheduler(batch_size=BATCH_SIZE, sweep_batch=256, jobs=jobs, store=store)
            try:
                runner.run_sweep(tasks)
            finally:
                runner.shutdown()
            assert store.stats.chunk_writes == members
        assert len(fsyncs) == len(plans)
        assert fsyncs[-1] == journal_size(tmp_path)

    def test_a_replay_fsyncs_nothing(self, tmp_path, three_tasks, fsyncs):
        with ExperimentStore(tmp_path) as store:
            scheduler(store).run_sweep(three_tasks)
        assert len(fsyncs) == 1
        with ExperimentStore(tmp_path) as store:
            scheduler(store).run_sweep(three_tasks)
            assert store.stats.chunk_hits == 3
        assert len(fsyncs) == 1

    def test_outside_a_scope_every_chunk_fsyncs(self, tmp_path, three_tasks, fsyncs):
        results = scheduler().run_sweep(three_tasks)
        with ExperimentStore(tmp_path) as store:
            for index, result in enumerate(results):
                store.put_chunk(f"chunk-{index}", result)
                assert fsyncs[-1] == journal_size(tmp_path)
        assert len(fsyncs) == 3

    def test_scopes_fsync_once_at_the_outermost_exit(self, tmp_path, three_tasks, fsyncs):
        results = scheduler().run_sweep(three_tasks)
        with ExperimentStore(tmp_path) as store:
            with store.batch():
                pass
            assert fsyncs == []  # nothing appended, nothing to sync
            with store.batch():
                store.put_chunk("outer", results[0])
                with store.batch():
                    store.put_chunk("inner", results[1])
                assert fsyncs == []
                assert store.get_chunk("inner") is not None  # indexed before the sync
            assert fsyncs == [journal_size(tmp_path)]

    def test_a_merge_fsyncs_once(self, tmp_path, three_tasks, fsyncs):
        with ExperimentStore(tmp_path / "source") as store:
            scheduler(store).run_sweep(three_tasks)
        report = merge_cache(tmp_path / "merged", [tmp_path / "source"])
        assert report.chunks_added == 3
        assert fsyncs == [journal_size(tmp_path / "source"), journal_size(tmp_path / "merged")]


class TestScopeExitsByException:
    def test_keyboard_interrupt_still_fsyncs(self, tmp_path, three_tasks, fsyncs):
        (result, *_) = scheduler().run_sweep(three_tasks)
        with ExperimentStore(tmp_path) as store:
            with pytest.raises(KeyboardInterrupt):
                with store.batch():
                    store.put_chunk("interrupted", result)
                    raise KeyboardInterrupt
            assert fsyncs == [journal_size(tmp_path)]
        with ExperimentStore(tmp_path) as store:
            assert_bitwise_equal(result, store.get_chunk("interrupted"))

    def test_a_kill_after_the_first_chunk_keeps_it_and_resumes_bitwise(
        self, tmp_path, three_tasks, fsyncs
    ):
        reference = scheduler().run_sweep(three_tasks)
        killing = KillingStore(tmp_path, kill_after=1)
        with pytest.raises(SimulatedKill):
            scheduler(killing).run_sweep(three_tasks)
        # The scope's exit synced the one chunk written before the kill.
        assert fsyncs == [journal_size(tmp_path)]
        killing.close()
        assert len(journal_keys(tmp_path)) == 1
        assert verify_journal(tmp_path / "journal.jsonl").intact_records == 1
        with ExperimentStore(tmp_path) as store:
            resumed = scheduler(store).run_sweep(three_tasks)
            assert (store.stats.chunk_hits, store.stats.chunk_misses) == (1, 2)
        assert len(fsyncs) == 2
        for expected, actual in zip(reference, resumed):
            assert_bitwise_equal(expected, actual)


class TestFaultsInsideABatch:
    """A journal fault injected on the middle member of a three-member batch."""

    @staticmethod
    def fault_on_second_append(monkeypatch, action):
        """Make the second append of the session fail with *action*; return its keys."""
        keys = []

        def fault(key, attempt):
            keys.append(key)
            return action if len(keys) == 2 else None

        monkeypatch.setattr(repro.faults, "journal_fault_action", fault)
        return keys

    def test_a_torn_append_heals_and_replays_bitwise(self, tmp_path, three_tasks, monkeypatch):
        reference = scheduler().run_sweep(three_tasks)
        keys = self.fault_on_second_append(monkeypatch, "torn")
        with ExperimentStore(tmp_path) as store:
            faulted = scheduler(store).run_sweep(three_tasks)
            assert store.stats.journal_repairs == 1
            assert store.stats.chunk_writes == 3
        assert keys[1] == keys[2]  # the retry journaled the torn chunk
        monkeypatch.undo()
        report = verify_journal(tmp_path / "journal.jsonl")
        assert report.ok and report.intact_records == 3 and not report.torn_tail_bytes
        with ExperimentStore(tmp_path) as store:
            replayed = scheduler(store).run_sweep(three_tasks)
            assert (store.stats.chunk_hits, store.stats.chunk_misses) == (3, 0)
        for expected, first, second in zip(reference, faulted, replayed):
            assert_bitwise_equal(expected, first)
            assert_bitwise_equal(expected, second)

    def test_a_corrupt_append_heals_and_replays_bitwise(
        self, tmp_path, three_tasks, monkeypatch
    ):
        reference = scheduler().run_sweep(three_tasks)
        keys = self.fault_on_second_append(monkeypatch, "corrupt")
        with ExperimentStore(tmp_path) as store:
            scheduler(store).run_sweep(three_tasks)
        monkeypatch.undo()
        (issue,) = verify_journal(tmp_path / "journal.jsonl").issues
        assert issue.key == keys[1]
        with ExperimentStore(tmp_path) as store:
            healed = scheduler(store).run_sweep(three_tasks)
            assert (store.stats.chunk_hits, store.stats.chunk_misses) == (2, 1)
            assert store.stats.chunks_quarantined == 1
        with ExperimentStore(tmp_path) as store:
            replayed = scheduler(store).run_sweep(three_tasks)
            assert (store.stats.chunk_hits, store.stats.chunk_misses) == (3, 0)
        assert verify_journal(tmp_path / "journal.jsonl").ok
        for expected, first, second in zip(reference, healed, replayed):
            assert_bitwise_equal(expected, first)
            assert_bitwise_equal(expected, second)
