"""Tests for :mod:`repro.store.merge` — journal union.

Edge cases the distributed workflow hits in practice: overlapping shards
(idempotent skip), conflicting payloads (hard error naming the key), shard
journals with quarantine sidecars, and torn tails from killed shard writers.
"""

from __future__ import annotations

import pytest

from repro.exceptions import StoreError
from repro.experiments.scheduler import SweepScheduler
from repro.experiments.sweep import SweepTask
from repro.lv.state import LVState
from repro.store import ChunkJournal, ExperimentStore, merge_cache, quarantine_path

from helpers_journal import journal_contents


def _write_journal(path, records):
    """Author a shard journal from ``(key, payload)`` pairs."""
    journal = ChunkJournal(path / "journal.jsonl")
    try:
        for key, payload in records:
            journal.append(key, payload, label=f"label-{key}")
    finally:
        journal.close()


class TestMergeCache:
    def test_disjoint_union(self, tmp_path):
        _write_journal(tmp_path / "a", [("k1", {"v": 1}), ("k2", {"v": 2})])
        _write_journal(tmp_path / "b", [("k3", {"v": 3})])
        report = merge_cache(tmp_path / "dst", [tmp_path / "a", tmp_path / "b"])
        assert report.chunks_added == 3
        assert report.chunks_skipped == 0
        assert set(journal_contents(tmp_path / "dst")) == {"k1", "k2", "k3"}

    def test_overlapping_identical_chunks_are_idempotent(self, tmp_path):
        _write_journal(tmp_path / "a", [("k1", {"v": 1}), ("k2", {"v": 2})])
        _write_journal(tmp_path / "b", [("k2", {"v": 2}), ("k3", {"v": 3})])
        report = merge_cache(tmp_path / "dst", [tmp_path / "a", tmp_path / "b"])
        assert report.chunks_added == 3
        assert report.chunks_skipped == 1
        again = merge_cache(tmp_path / "dst", [tmp_path / "a", tmp_path / "b"])
        assert again.chunks_added == 0
        assert again.chunks_skipped == 4

    def test_conflicting_payload_is_a_hard_error_naming_the_key(self, tmp_path):
        _write_journal(tmp_path / "a", [("shared", {"v": 1})])
        _write_journal(tmp_path / "b", [("shared", {"v": 999})])
        merge_cache(tmp_path / "dst", [tmp_path / "a"])
        with pytest.raises(StoreError, match="merge conflict for chunk shared"):
            merge_cache(tmp_path / "dst", [tmp_path / "b"])
        # Nothing landed from the conflicting source; the merged store is
        # unchanged and a corrected re-merge remains possible.
        assert journal_contents(tmp_path / "dst") == {"shared": '{"v": 1}'}

    def test_differing_metadata_with_equal_payload_is_not_a_conflict(self, tmp_path):
        journal = ChunkJournal(tmp_path / "a" / "journal.jsonl")
        journal.append("k1", {"v": 1}, label="shard-a")
        journal.close()
        journal = ChunkJournal(tmp_path / "b" / "journal.jsonl")
        journal.append("k1", {"v": 1}, label="shard-b")
        journal.close()
        report = merge_cache(tmp_path / "dst", [tmp_path / "a", tmp_path / "b"])
        assert report.chunks_added == 1
        assert report.chunks_skipped == 1

    def test_corrupt_source_records_are_skipped_and_counted(self, tmp_path):
        _write_journal(tmp_path / "a", [("k1", {"v": 1}), ("k2", {"v": 2})])
        journal_path = tmp_path / "a" / "journal.jsonl"
        lines = journal_path.read_bytes().splitlines(keepends=True)
        # Quiet bit rot: valid JSON line whose checksum no longer matches.
        lines[0] = lines[0].replace(b'"v":1', b'"v":7')
        journal_path.write_bytes(b"".join(lines))
        report = merge_cache(tmp_path / "dst", [tmp_path / "a"])
        assert report.corrupt_skipped == 1
        assert report.chunks_added == 1
        assert set(journal_contents(tmp_path / "dst")) == {"k2"}

    def test_torn_source_tail_ends_the_scan_cleanly(self, tmp_path):
        _write_journal(tmp_path / "a", [("k1", {"v": 1}), ("k2", {"v": 2})])
        journal_path = tmp_path / "a" / "journal.jsonl"
        content = journal_path.read_bytes()
        # Kill the shard writer mid-append: half a record, no newline.
        journal_path.write_bytes(content + b'{"key":"k3","payl')
        report = merge_cache(tmp_path / "dst", [tmp_path / "a"])
        assert report.chunks_added == 2
        assert report.corrupt_skipped == 0
        assert set(journal_contents(tmp_path / "dst")) == {"k1", "k2"}

    def test_quarantine_sidecar_bearing_source_merges(self, tmp_path):
        # A shard that hit corruption healed on its next append: the journal
        # holds only intact records and the sidecar holds the evidence.
        _write_journal(tmp_path / "a", [("k1", {"v": 1})])
        journal_path = tmp_path / "a" / "journal.jsonl"
        lines = journal_path.read_bytes()
        journal_path.write_bytes(lines.replace(b'"v":1', b'"v":7'))
        journal = ChunkJournal(journal_path)
        journal.append("k2", {"v": 2})  # append path quarantines the rot
        journal.close()
        assert quarantine_path(journal_path).exists()
        report = merge_cache(tmp_path / "dst", [tmp_path / "a"])
        assert report.chunks_added == 1
        assert set(journal_contents(tmp_path / "dst")) == {"k2"}
        # The sidecar is shard-local evidence, not mergeable data.
        assert not quarantine_path(tmp_path / "dst" / "journal.jsonl").exists()

    def test_torn_destination_tail_heals_during_merge(self, tmp_path):
        _write_journal(tmp_path / "dst", [("k1", {"v": 1})])
        destination_journal = tmp_path / "dst" / "journal.jsonl"
        destination_journal.write_bytes(
            destination_journal.read_bytes() + b'{"key":"k2","pa'
        )
        _write_journal(tmp_path / "a", [("k3", {"v": 3})])
        report = merge_cache(tmp_path / "dst", [tmp_path / "a"])
        assert report.chunks_added == 1
        assert set(journal_contents(tmp_path / "dst")) == {"k1", "k3"}

    def test_missing_source_is_an_error(self, tmp_path):
        with pytest.raises(StoreError, match="does not exist"):
            merge_cache(tmp_path / "dst", [tmp_path / "nowhere"])

    def test_bare_journal_file_as_source(self, tmp_path):
        _write_journal(tmp_path / "a", [("k1", {"v": 1})])
        report = merge_cache(tmp_path / "dst", [tmp_path / "a" / "journal.jsonl"])
        assert report.chunks_added == 1

    def test_empty_source_directory_is_fine(self, tmp_path):
        (tmp_path / "a").mkdir()
        report = merge_cache(tmp_path / "dst", [tmp_path / "a"])
        assert report.chunks_added == 0

    def test_merge_into_open_store(self, tmp_path):
        _write_journal(tmp_path / "a", [("k1", {"v": 1})])
        store = ExperimentStore(tmp_path / "dst")
        try:
            report = merge_cache(tmp_path / "dst", [tmp_path / "a"], store=store)
            assert report.chunks_added == 1
            assert store.stats.chunk_writes == 1
        finally:
            store.close()

    def test_summary_mentions_the_counts(self, tmp_path):
        _write_journal(tmp_path / "a", [("k1", {"v": 1})])
        report = merge_cache(tmp_path / "dst", [tmp_path / "a"])
        assert "1 chunk(s) added" in report.summary()


class TestMergeRunsTier:
    def test_run_entries_copy_skip_and_conflict(self, tmp_path):
        source = tmp_path / "a"
        (source / "runs").mkdir(parents=True)
        (source / "runs" / "r1.json").write_text('{"result": 1}')
        report = merge_cache(tmp_path / "dst", [source])
        assert report.runs_copied == 1
        again = merge_cache(tmp_path / "dst", [source])
        assert again.runs_copied == 0
        assert again.runs_skipped == 1
        (source / "runs" / "r1.json").write_text('{"result": 2}')
        with pytest.raises(StoreError, match="merge conflict for run entry r1"):
            merge_cache(tmp_path / "dst", [source])


class TestEndToEndShardMerge:
    def test_union_of_shard_stores_equals_single_process_journal(
        self, tmp_path, sd_params, nsd_params
    ):
        tasks = [
            SweepTask(sd_params, LVState(24, 16), 50, seed=1, label="a"),
            SweepTask(nsd_params, LVState(33, 31), 50, seed=2, label="b"),
            SweepTask(sd_params, LVState(36, 28), 50, seed=3, label="c"),
            SweepTask(nsd_params, LVState(48, 32), 50, seed=4, label="d"),
        ]

        def run(store, shards=1, shard_index=0):
            scheduler = SweepScheduler(
                batch_size=32,
                sweep_batch=32,
                store=store,
                shards=shards,
                shard_index=shard_index,
            )
            try:
                return scheduler.run_sweep(tasks)
            finally:
                scheduler.shutdown()

        reference_store = ExperimentStore(tmp_path / "reference")
        run(reference_store)
        reference_store.close()
        for shard_index in range(2):
            store = ExperimentStore(tmp_path / f"shard-{shard_index}")
            run(store, shards=2, shard_index=shard_index)
            store.close()
        merge_cache(
            tmp_path / "merged",
            [tmp_path / "shard-0", tmp_path / "shard-1"],
        )
        assert journal_contents(tmp_path / "merged") == journal_contents(
            tmp_path / "reference"
        )
