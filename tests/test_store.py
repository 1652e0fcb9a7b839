"""Tests for :mod:`repro.store` — keys, journal, serialisation, and caching.

The resume *determinism* contract (kill → resume → bitwise-identical) has its
own module, ``test_resume_determinism.py``; this one covers the store's
building blocks and the schedulers' cache-first integration.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.experiments.config import ExperimentResult
from repro.experiments.registry import experiment_run_key, run_experiment
from repro.experiments.scheduler import (
    SweepScheduler,
    configure_default_scheduler,
    get_default_scheduler,
)
from repro.experiments.sweep import SweepTask
from repro.lv.params import LVParams
from repro.lv.state import LVState
from repro.store import (
    RESULT_SCHEMA_VERSION,
    ChunkJournal,
    ExperimentStore,
    chunk_key,
    config_hash,
    ensemble_from_payload,
    ensemble_to_payload,
    run_key,
    scheduler_fingerprint,
)

from helpers_journal import parse_line, split_line

ARRAY_FIELDS = (
    "final_x0",
    "final_x1",
    "total_events",
    "termination_codes",
    "births",
    "deaths",
    "interspecific_events",
    "intraspecific_events",
    "bad_noncompetitive_events",
    "good_events",
    "noise_individual",
    "noise_competitive",
    "max_total_population",
    "min_gap_seen",
    "hit_tie",
)


def assert_bitwise_equal(first, second):
    """Every result array identical in values *and* dtype."""
    for name in ARRAY_FIELDS:
        left, right = getattr(first, name), getattr(second, name)
        assert left.dtype == right.dtype, name
        assert np.array_equal(left, right), name
    assert (first.leap_events is None) == (second.leap_events is None)
    if first.leap_events is not None:
        assert np.array_equal(first.leap_events, second.leap_events)
    assert first.params == second.params
    assert first.initial_state == second.initial_state


@pytest.fixture
def task(sd_params):
    return SweepTask(sd_params, LVState(24, 16), 60, seed=11, label="store-task")


class TestKeys:
    def test_chunk_key_is_stable(self, sd_params):
        kwargs = dict(
            params=sd_params,
            counts=(20, 12),
            num_replicates=64,
            seed=123,
            max_events=10_000,
            backend="exact",
            tau_epsilon=0.03,
        )
        assert chunk_key(**kwargs) == chunk_key(**kwargs)

    def test_chunk_key_covers_result_affecting_inputs(self, sd_params, nsd_params):
        base = dict(
            params=sd_params,
            counts=(20, 12),
            num_replicates=64,
            seed=123,
            max_events=10_000,
            backend="exact",
            tau_epsilon=0.03,
        )
        reference = chunk_key(**base)
        assert chunk_key(**{**base, "seed": 124}) != reference
        assert chunk_key(**{**base, "num_replicates": 65}) != reference
        assert chunk_key(**{**base, "counts": (12, 20)}) != reference
        assert chunk_key(**{**base, "max_events": 9_999}) != reference
        assert chunk_key(**{**base, "params": nsd_params}) != reference
        assert chunk_key(**{**base, "backend": "tau"}) != reference
        assert chunk_key(**{**base, "collect": "win"}) != reference

    def test_tau_epsilon_keys_only_tau_chunks(self, sd_params):
        base = dict(
            params=sd_params,
            counts=(20, 12),
            num_replicates=64,
            seed=123,
            max_events=10_000,
        )
        exact_a = chunk_key(**base, backend="exact", tau_epsilon=0.03)
        exact_b = chunk_key(**base, backend="exact", tau_epsilon=0.05)
        assert exact_a == exact_b
        tau_a = chunk_key(**base, backend="tau", tau_epsilon=0.03)
        tau_b = chunk_key(**base, backend="tau", tau_epsilon=0.05)
        assert tau_a != tau_b

    def test_run_key_layered_fields(self):
        fingerprint = scheduler_fingerprint(SweepScheduler())
        config = config_hash("quick", fingerprint)
        reference = run_key(experiment_id="FIG-GAP", config=config, seed_root=0)
        assert run_key(experiment_id="FIG-GAP", config=config, seed_root=0) == reference
        assert run_key(experiment_id="FIG-GAP", config=config, seed_root=1) != reference
        assert run_key(experiment_id="T1R2", config=config, seed_root=0) != reference
        assert (
            run_key(
                experiment_id="FIG-GAP",
                config=config,
                seed_root=0,
                schema_version=RESULT_SCHEMA_VERSION + 1,
            )
            != reference
        )

    def test_fingerprint_excludes_execution_only_knobs(self):
        base = scheduler_fingerprint(SweepScheduler())
        assert scheduler_fingerprint(SweepScheduler(jobs=2)) == base
        assert scheduler_fingerprint(SweepScheduler(sweep_batch=64)) == base
        assert scheduler_fingerprint(SweepScheduler(batch_size=64)) != base
        assert scheduler_fingerprint(SweepScheduler(backend="tau")) != base

    def test_fingerprint_covers_precision_target(self):
        from repro.analysis.statistics import PrecisionTarget

        base = scheduler_fingerprint(SweepScheduler())
        adaptive = scheduler_fingerprint(
            SweepScheduler(precision=PrecisionTarget(ci_half_width=0.02))
        )
        assert adaptive != base


class TestSerialisation:
    def test_round_trip_is_bitwise(self, task):
        result = SweepScheduler().run_sweep([task])[0]
        payload = json.loads(json.dumps(ensemble_to_payload(result)))
        restored = ensemble_from_payload(payload)
        assert_bitwise_equal(result, restored)

    def test_tau_round_trip_keeps_leap_events(self, sd_params):
        tau_task = SweepTask(
            sd_params, LVState(30_000, 29_000), 4, seed=3, backend="tau"
        )
        result = SweepScheduler(backend="tau").run_sweep([tau_task])[0]
        assert result.leap_events is not None
        restored = ensemble_from_payload(
            json.loads(json.dumps(ensemble_to_payload(result)))
        )
        assert_bitwise_equal(result, restored)

    def test_schema_mismatch_is_rejected(self, task):
        from repro.exceptions import StoreError

        result = SweepScheduler().run_sweep([task])[0]
        payload = ensemble_to_payload(result)
        payload["schema"] = RESULT_SCHEMA_VERSION + 1
        with pytest.raises(StoreError):
            ensemble_from_payload(payload)


class TestChunkJournal:
    def test_append_get_reopen(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = ChunkJournal(path)
        journal.append("a", {"value": 1}, label="first")
        journal.append("b", {"value": 2})
        assert journal.get("a")["payload"] == {"value": 1}
        assert journal.get("a")["label"] == "first"
        journal.close()
        reopened = ChunkJournal(path)
        assert len(reopened) == 2
        assert reopened.get("b")["payload"] == {"value": 2}
        assert reopened.get("missing") is None

    def test_truncated_tail_is_recovered(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = ChunkJournal(path)
        journal.append("a", {"value": 1})
        journal.append("b", {"value": 2})
        journal.close()
        # Simulate a kill mid-write: chop the final record in half.
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])
        recovered = ChunkJournal(path)
        assert "a" in recovered
        assert "b" not in recovered
        # Appending after recovery must not corrupt the file.
        recovered.append("c", {"value": 3})
        recovered.close()
        final = ChunkJournal(path)
        assert set(final.keys()) == {"a", "c"}
        assert final.get("c")["payload"] == {"value": 3}

    def test_last_write_wins_per_key(self, tmp_path):
        journal = ChunkJournal(tmp_path / "journal.jsonl")
        journal.append("a", {"value": 1})
        journal.append("a", {"value": 2})
        assert journal.get("a")["payload"] == {"value": 2}

    def test_records_carry_verifiable_checksums(self, tmp_path):
        """Each line is the SHA-256 hex of its body, a space, then the body."""
        path = tmp_path / "journal.jsonl"
        journal = ChunkJournal(path)
        journal.append("a", {"value": 1}, label="first")
        (line,) = path.read_bytes().splitlines(keepends=True)
        prefix, body = split_line(line)
        assert line == prefix + b" " + body + b"\n"
        assert prefix == hashlib.sha256(body).hexdigest().encode("ascii")
        assert json.loads(body) == journal.get("a")
        assert json.loads(body) == {"key": "a", "label": "first", "payload": {"value": 1}}

    def test_legacy_records_without_checksum_are_accepted(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        legacy = {"key": "old", "payload": {"value": 7}}
        path.write_bytes((json.dumps(legacy) + "\n").encode())
        journal = ChunkJournal(path)
        assert journal.get("old")["payload"] == {"value": 7}

    def _corrupt_record(self, path, key):
        """Flip one payload character of *key*'s record without breaking framing."""
        lines = path.read_bytes().splitlines(keepends=True)
        for position, line in enumerate(lines):
            if parse_line(line)["key"] == key:
                marker = line.index(b'"payload"') + len(b'"payload"')
                target = next(
                    index
                    for index in range(marker, len(line))
                    if chr(line[index]).isalnum()
                )
                byte = line[target : target + 1]
                replacement = b"1" if byte != b"1" else b"2"
                if byte.isalpha():
                    replacement = b"x" if byte != b"x" else b"y"
                lines[position] = line[:target] + replacement + line[target + 1 :]
                break
        path.write_bytes(b"".join(lines))

    def test_mid_file_corruption_keeps_later_records(self, tmp_path):
        """One flipped bit never costs the intact records after it."""
        path = tmp_path / "journal.jsonl"
        journal = ChunkJournal(path)
        for key in ("a", "b", "c"):
            journal.append(key, {"value": key * 3})
        journal.close()
        self._corrupt_record(path, "b")
        reopened = ChunkJournal(path)
        assert reopened.get("b") is None  # detected, not replayed
        assert reopened.get("a")["payload"] == {"value": "aaa"}
        assert reopened.get("c")["payload"] == {"value": "ccc"}

    def test_corruption_heals_to_the_quarantine_sidecar_on_append(self, tmp_path):
        from repro.store import quarantine_path

        path = tmp_path / "journal.jsonl"
        journal = ChunkJournal(path)
        for key in ("a", "b", "c"):
            journal.append(key, {"value": key})
        journal.close()
        self._corrupt_record(path, "b")
        healing = ChunkJournal(path)
        healing.append("d", {"value": "d"})  # first append triggers the heal
        assert healing.healed_count == 1
        healing.close()
        sidecar = quarantine_path(path)
        assert sidecar.exists()
        entry = json.loads(sidecar.read_text().splitlines()[0])
        assert entry["key"] == "b"
        assert entry["reason"] == "checksum mismatch"
        # The healed journal holds only intact lines and stays fully valid.
        from repro.store.journal import _classify_line

        final = ChunkJournal(path)
        assert set(final.keys()) == {"a", "c", "d"}
        for raw in path.read_bytes().splitlines(keepends=True):
            _, reason = _classify_line(raw)
            assert reason is None

    def test_read_only_lookups_never_mutate_the_file(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = ChunkJournal(path)
        for key in ("a", "b"):
            journal.append(key, {"value": key})
        journal.close()
        self._corrupt_record(path, "a")
        damaged = path.read_bytes()
        reader = ChunkJournal(path)
        assert reader.get("a") is None
        assert reader.get("b") is not None
        assert path.read_bytes() == damaged  # heal only runs on the append path

    def test_corruption_arriving_after_open_is_caught_on_lookup(self, tmp_path):
        """Lookups re-verify checksums, so post-scan damage is never replayed."""
        path = tmp_path / "journal.jsonl"
        journal = ChunkJournal(path)
        journal.append("a", {"value": 1})
        journal.close()
        reader = ChunkJournal(path)
        assert reader.get("a") is not None
        self._corrupt_record(path, "a")
        assert reader.get("a") is None

    def test_stale_view_never_truncates_intact_records(self, tmp_path):
        """A journal indexed before the file grew re-scans instead of clobbering."""
        path = tmp_path / "journal.jsonl"
        stale = ChunkJournal(path)  # scans the (empty) file now
        writer = ChunkJournal(path)
        writer.append("a", {"value": 1})
        writer.append("b", {"value": 2})
        writer.close()
        stale.append("c", {"value": 3})  # must not truncate a/b
        stale.close()
        final = ChunkJournal(path)
        assert set(final.keys()) == {"a", "b", "c"}
        assert final.get("a")["payload"] == {"value": 1}
        assert final.get("c")["payload"] == {"value": 3}


class TestVerifyJournal:
    def _journal_with(self, tmp_path, keys):
        path = tmp_path / "journal.jsonl"
        journal = ChunkJournal(path)
        for key in keys:
            journal.append(key, {"value": key})
        journal.close()
        return path

    def test_clean_journal_verifies_ok(self, tmp_path):
        from repro.store import verify_journal

        path = self._journal_with(tmp_path, ["a", "b"])
        report = verify_journal(path)
        assert report.ok
        assert report.intact_records == 2
        assert report.summary() == "2 intact record(s)"

    def test_missing_journal_verifies_as_empty(self, tmp_path):
        from repro.store import verify_journal

        report = verify_journal(tmp_path / "journal.jsonl")
        assert report.ok
        assert report.intact_records == 0

    def test_corruption_is_reported_with_key_and_offset(self, tmp_path):
        from repro.store import verify_journal

        path = self._journal_with(tmp_path, ["a", "b", "c"])
        TestChunkJournal._corrupt_record(self, path, "b")
        report = verify_journal(path)
        assert not report.ok
        (issue,) = report.issues
        assert issue.key == "b"
        assert issue.reason == "checksum mismatch"
        first_line_length = len(path.read_bytes().splitlines(keepends=True)[0])
        assert issue.offset == first_line_length
        assert "1 corrupt record(s)" in report.summary()
        # Verification is read-only: the bytes are untouched.
        assert len(verify_journal(path).issues) == 1

    def test_torn_tail_is_noted_but_not_a_failure(self, tmp_path):
        from repro.store import verify_journal

        path = self._journal_with(tmp_path, ["a", "b"])
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        report = verify_journal(path)
        assert report.ok
        assert report.intact_records == 1
        assert report.torn_tail_bytes > 0
        assert "torn tail" in report.summary()


class TestExperimentStore:
    def test_writer_lock_enforces_one_live_store(self, tmp_path):
        pytest.importorskip("fcntl")
        from repro.exceptions import StoreError

        first = ExperimentStore(tmp_path)
        with pytest.raises(StoreError):
            ExperimentStore(tmp_path)
        first.close()
        second = ExperimentStore(tmp_path)  # released lock can be retaken
        second.close()

    def test_lock_released_despite_warm_worker_pool(self, tmp_path, task):
        """Forked pool workers must not inherit (and pin) the writer lock."""
        pytest.importorskip("fcntl")
        store = ExperimentStore(tmp_path)
        scheduler = SweepScheduler(jobs=2, batch_size=16, sweep_batch=16, store=store)
        try:
            scheduler.run_sweep([task])  # starts the pool while locked
            store.close()
            reopened = ExperimentStore(tmp_path)  # pool still warm: must not raise
            reopened.close()
        finally:
            scheduler.shutdown()

    def test_chunk_miss_then_hit(self, tmp_path, task):
        store = ExperimentStore(tmp_path)
        scheduler = SweepScheduler(store=store)
        first = scheduler.run_sweep([task])[0]
        assert store.stats.chunk_writes == 1
        again = SweepScheduler(store=store).run_sweep([task])[0]
        assert store.stats.chunk_hits == 1
        assert store.stats.events_replayed > 0
        assert_bitwise_equal(first, again)

    def test_replayed_events_not_counted_as_executed(self, tmp_path, task):
        store = ExperimentStore(tmp_path)
        warm = SweepScheduler(store=store)
        warm.run_sweep([task])
        assert warm.events_executed > 0 and warm.events_replayed == 0
        cold = SweepScheduler(store=store)
        cold.run_sweep([task])
        assert cold.events_executed == 0
        assert cold.events_replayed == warm.events_executed

    def test_one_task_budget_shares_chunks_with_a_larger_sweep(self, tmp_path, sd_params):
        """A task's chunk keys do not depend on the sweep it runs in."""
        task = SweepTask(sd_params, LVState(24, 16), 60, seed=11)
        store = ExperimentStore(tmp_path)
        (alone,) = SweepScheduler(store=store).run_sweep([task])
        other = SweepTask(sd_params, LVState(30, 18), 60, seed=12)
        _, shared = SweepScheduler(store=store).run_sweep([other, task])
        assert store.stats.chunk_hits == 1
        assert_bitwise_equal(alone, shared)

    def test_run_tier_round_trip(self, tmp_path):
        store = ExperimentStore(tmp_path)
        result = ExperimentResult(
            identifier="T1R2",
            title="t",
            paper_claim="c",
            scale="quick",
            seed=0,
            parameters={"n": 8},
            rows=[{"n": 8, "rho": 0.5}],
            findings=["f"],
            shape_matches_paper=True,
        )
        store.put_run("k", result)
        loaded = store.get_run("k")
        assert loaded == result
        assert store.get_run("unknown") is None

    def test_corrupt_run_entry_is_a_miss(self, tmp_path):
        store = ExperimentStore(tmp_path)
        (tmp_path / "runs").mkdir(exist_ok=True)
        (tmp_path / "runs" / "bad.json").write_text("{not json")
        assert store.get_run("bad") is None

    def test_run_experiment_resume_serves_from_cache(self, tmp_path):
        store = ExperimentStore(tmp_path)
        previous = get_default_scheduler()
        configure_default_scheduler(store=store)
        try:
            first = run_experiment(
                "FIG-ODE", scale="quick", seed=3, store=store, resume=True
            )
            assert store.stats.run_hits == 0
            executed = get_default_scheduler().events_executed
            assert executed > 0
            second = run_experiment(
                "FIG-ODE", scale="quick", seed=3, store=store, resume=True
            )
            assert store.stats.run_hits == 1
            assert get_default_scheduler().events_executed == executed
            assert first.to_dict() == second.to_dict()
        finally:
            configure_default_scheduler(store=previous.store)

    def test_run_key_changes_with_scheduler_config(self, tmp_path):
        previous = get_default_scheduler()
        try:
            configure_default_scheduler(backend="exact")
            exact_key = experiment_run_key("FIG-ODE", scale="quick", seed=3)
            configure_default_scheduler(backend="tau")
            tau_key = experiment_run_key("FIG-ODE", scale="quick", seed=3)
            assert exact_key != tau_key
        finally:
            configure_default_scheduler(
                backend=previous.backend, tau_epsilon=previous.tau_epsilon
            )

    def test_hand_corrupted_chunk_recomputes_only_itself(self, tmp_path, sd_params):
        """Acceptance gate: corrupt one record by hand, the next run heals it."""
        tasks = [
            SweepTask(sd_params, LVState(40, 24), 60, seed=1),
            SweepTask(sd_params, LVState(33, 31), 60, seed=2),
            SweepTask(sd_params, LVState(36, 28), 60, seed=3),
        ]
        store = ExperimentStore(tmp_path)
        reference = SweepScheduler(store=store).run_sweep(tasks)
        victim = list(store._journal.keys())[1]
        store.close()
        TestChunkJournal._corrupt_record(self, tmp_path / "journal.jsonl", victim)

        store = ExperimentStore(tmp_path)
        scheduler = SweepScheduler(store=store)
        recovered = scheduler.run_sweep(tasks)
        # Exactly the damaged chunk recomputed; the other two replayed.
        assert store.stats.chunk_hits == 2
        assert store.stats.chunk_misses == 1
        assert store.stats.chunk_writes == 1
        assert store.stats.chunks_quarantined == 1
        assert "1 chunk(s) quarantined" in store.stats.summary()
        store.close()
        for expected, actual in zip(reference, recovered):
            assert_bitwise_equal(expected, actual)
        # The healed journal is fully intact again; the sidecar kept the key.
        from repro.store import quarantine_path, verify_journal

        assert verify_journal(tmp_path / "journal.jsonl").ok
        entry = json.loads(
            quarantine_path(tmp_path / "journal.jsonl").read_text().splitlines()[0]
        )
        assert entry["key"] == victim

    def test_adaptive_sweep_replays_rungs(self, tmp_path, sd_params):
        from repro.analysis.statistics import PrecisionTarget

        target = PrecisionTarget(
            ci_half_width=0.08, min_replicates=64, max_replicates=256
        )
        task = SweepTask(sd_params, LVState(40, 24), 400, seed=9)
        store = ExperimentStore(tmp_path)
        first = SweepScheduler(store=store).run_sweep_adaptive([task], target=target)
        writes = store.stats.chunk_writes
        assert writes > 0
        again = SweepScheduler(store=store).run_sweep_adaptive([task], target=target)
        assert store.stats.chunk_writes == writes  # nothing recomputed
        assert store.stats.chunk_hits >= writes
        assert_bitwise_equal(first[0], again[0])
