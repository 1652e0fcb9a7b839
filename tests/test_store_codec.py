"""Tests for the store's on-disk record form: the array codec and the line contract.

A journal line is ``<SHA-256 hex of BODY> <BODY>``, and a chunk payload
stores its arrays as one layout list plus one zlib stream over all their
little-endian bytes (:mod:`repro.store.serialize`).  Three journals written
by older code are pinned here, and none may ever be regenerated with newer
code:

* ``tests/data/journal-3.1.0.jsonl``, written by repro 3.1.0: bare-JSON lines
  with a ``checksum`` field, arrays as JSON lists; produced by running
  :data:`FIXTURE_RUNS` through ``SweepScheduler(store=...)``.
* ``tests/data/journal-3.2.0-estimate.jsonl``, written by the ``repro
  estimate`` command of repro 3.2.0, whose fixed budgets ran on a separate
  per-configuration batch executor (:data:`ESTIMATE_FIXTURE_TASKS`).
* ``tests/data/journal-6.1.0.jsonl``, written by repro 6.1.0 from
  :data:`FIXTURE_RUNS`: prefixed lines with one zlib stream per array.

The first two were written under result schema 2 and the third under
schema 3.  Every chunk key folds the schema in, so today's code never serves
their chunks: it recomputes them and appends the new records after the old
bytes.  They must keep verifying, healing, decoding, converting on merge and
feeding the shard planner's history.  The generic-scenario chunk's arrays
changed under schema 4 and the tau chunk's under schema 6, which keeps its
layout; the exact lv2 payloads still equal today's apart from the schema
number.
"""

from __future__ import annotations

import base64
import hashlib
import json
import shutil
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.exceptions import StoreError
from repro.experiments.scheduler import SweepScheduler
from repro.experiments.sweep import SweepTask
from repro.experiments.workloads import state_with_gap
from repro.lv.params import LVParams
from repro.lv.state import LVState
from repro.shard.planner import EventRateHistory, config_signature, plan_shards, unit_costs
from repro.store import (
    ChunkJournal,
    ExperimentStore,
    ensemble_from_payload,
    ensemble_to_payload,
    iter_intact_records,
    merge_cache,
    quarantine_path,
    verify_journal,
)
from repro.store import journal as journal_module
from repro.store.journal import record_checksum
from repro.store.keys import RESULT_SCHEMA_VERSION
from repro.store.serialize import (
    ZLIB_LEVEL,
    decode_arrays,
    encode_arrays,
    payloads_equal,
    reencode_payload,
)

from helpers_journal import parse_line, split_line
from test_store import ARRAY_FIELDS

FIXTURE = Path(__file__).parent / "data" / "journal-3.1.0.jsonl"

SD = LVParams.self_destructive(beta=1.0, delta=1.0, alpha=1.0)
NSD = LVParams.non_self_destructive(beta=1.0, delta=1.0, alpha=1.0)

#: The fixture's four chunks as ``(collect level, tasks)``: an lv2 chunk at
#: each level, a generic-scenario chunk (``finals``, ``initial_counts``) and
#: a tau chunk whose population leaps (``leap_events``).
FIXTURE_RUNS = (
    (
        "full",
        (
            SweepTask(SD, LVState(24, 16), 32, seed=11, label="lv2-full"),
            SweepTask(SD, (30, 20, 15), 24, seed=13, scenario="opinion3", label="opinion3-full"),
            SweepTask(SD, LVState(30_000, 29_000), 4, seed=3, backend="tau", label="tau-full"),
        ),
    ),
    ("win", (SweepTask(NSD, LVState(20, 12), 32, seed=12, label="lv2-win"),)),
)
FIXTURE_TASKS = [task for _, tasks in FIXTURE_RUNS for task in tasks]

#: The planner signature of the fixtures' generic chunk, whose events
#: changed under schema 4 (its tail replicas read the step stream now).  The
#: planner sums the payload's ``initial_counts`` over every species and
#: folds in its scenario.
GENERIC_SIGNATURE = config_signature(SD, 30 + 20 + 15, "opinion3")

#: The planner signature of the fixtures' tau chunk, whose events changed
#: under schema 6 (lv2 members leap on the generic engine).
TAU_SIGNATURE = config_signature(SD, 30_000 + 29_000)

ESTIMATE_FIXTURE = Path(__file__).parent / "data" / "journal-3.2.0-estimate.jsonl"

PER_ARRAY_FIXTURE = Path(__file__).parent / "data" / "journal-6.1.0.jsonl"

#: The order in which a payload's layout lists a chunk's arrays.
LAYOUT_ORDER = (*ARRAY_FIELDS, "leap_events", "finals")

#: The two commands that wrote the estimate fixture, as sweep tasks:
#: ``repro estimate --mechanism sd --population 64 --gap 8 --runs 600
#: --seed 9`` (two exact chunks: 512 and 88 replicas) and ``repro estimate
#: --backend tau --mechanism nsd --population 60000 --gap 600 --runs 8
#: --seed 3`` (one tau chunk).
ESTIMATE_FIXTURE_TASKS = (
    SweepTask(SD, state_with_gap(64, 8), 600, seed=9, label="estimate-exact"),
    SweepTask(
        NSD, state_with_gap(60_000, 600), 8, seed=3, backend="tau", label="estimate-tau"
    ),
)


def run_fixture_tasks(store=None):
    """The fixture's chunks computed now (replayed where *store* has them)."""
    scheduler = SweepScheduler(store=store)
    try:
        return [
            result
            for collect, tasks in FIXTURE_RUNS
            for result in scheduler.run_sweep(list(tasks), collect=collect)
        ]
    finally:
        scheduler.shutdown()


@pytest.fixture(scope="module")
def fresh_results():
    """The fixture's chunks simulated without a store."""
    return run_fixture_tasks()


@pytest.fixture
def legacy_cache(tmp_path):
    """A cache directory holding a copy of the 3.1.0 journal."""
    cache = tmp_path / "legacy"
    cache.mkdir()
    shutil.copyfile(FIXTURE, cache / "journal.jsonl")
    return cache


@pytest.fixture
def per_array_cache(tmp_path):
    """A cache directory holding a copy of the 6.1.0 journal."""
    cache = tmp_path / "per-array"
    cache.mkdir()
    shutil.copyfile(PER_ARRAY_FIXTURE, cache / "journal.jsonl")
    return cache


@pytest.fixture
def current_cache(tmp_path):
    """A cache directory where the fixture's chunks were journaled today."""
    cache = tmp_path / "current"
    with ExperimentStore(cache) as store:
        run_fixture_tasks(store)
    return cache


@pytest.fixture
def legacy_twin(legacy_cache, tmp_path):
    """The 3.1.0 journal's records (same keys, same payloads) in today's form."""
    twin = tmp_path / "twin"
    merge_cache(twin, [legacy_cache])
    return twin


def journal_keys(cache):
    return [parse_line(line)["key"] for line in journal_lines(cache)]


def assert_same_chunks(expected, actual):
    """Every array (optional ones too) and every scalar field bitwise equal."""
    assert len(expected) == len(actual)
    for first, second in zip(expected, actual):
        for name in (*ARRAY_FIELDS, "leap_events", "finals"):
            left, right = getattr(first, name), getattr(second, name)
            assert (left is None) == (right is None), name
            if left is not None:
                assert left.dtype == right.dtype, name
                assert left.shape == right.shape, name
                assert left.tobytes() == right.tobytes(), name
        assert first.params == second.params
        assert first.initial_state == second.initial_state
        assert first.scenario == second.scenario
        assert first.initial_counts == second.initial_counts


def journal_lines(cache):
    return (Path(cache) / "journal.jsonl").read_bytes().splitlines(keepends=True)


def assert_layout_form(arrays):
    """One layout in field order and one stream: the form writers write."""
    assert set(arrays) == {"layout", "zlib"}
    names = [name for name, _, _ in arrays["layout"]]
    assert names == [name for name in LAYOUT_ORDER if name in names]
    assert set(ARRAY_FIELDS) <= set(names)


def assert_current_form(cache):
    """Every line is ``<sha256 of body> <body>`` with its arrays in one stream."""
    lines = journal_lines(cache)
    assert lines
    for line in lines:
        prefix, body = split_line(line)
        assert prefix == hashlib.sha256(body).hexdigest().encode("ascii")
        assert_layout_form(json.loads(body)["payload"]["arrays"])


def per_array_form(arrays):
    """*arrays* in repro 6.1's form: one ``{"dtype", "shape", "zlib"}`` stream each."""
    return {
        name: {
            "dtype": str(array.dtype),
            "shape": list(array.shape),
            "zlib": base64.b64encode(
                zlib.compress(array.astype(array.dtype.newbyteorder("<")).tobytes(), ZLIB_LEVEL)
            ).decode("ascii"),
        }
        for name, array in arrays.items()
    }


def journal_payloads(cache):
    """``{key: payload}`` of a cache's journal, in either line form."""
    return {record["key"]: record["payload"] for record in map(parse_line, journal_lines(cache))}


def assert_history_is_todays_but_generic_and_tau(history, current_cache):
    """Every configuration's journaled events equal today's, but the generic
    and tau ones'."""
    old = history.to_payload()
    today = EventRateHistory.from_journal(current_cache).to_payload()
    assert sorted(old) == sorted(today)
    for signature in (GENERIC_SIGNATURE, TAU_SIGNATURE):
        assert old.pop(signature) != today.pop(signature)
    assert old == today


# ----------------------------------------------------------------------
# The array codec
# ----------------------------------------------------------------------
STORED_DTYPES = st.sampled_from([np.int64, np.int8, np.bool_])


@st.composite
def stored_arrays(draw):
    """Arrays shaped like a chunk's fields: ``(R,)``, ``(R, 2)`` or ``(R, S)``."""
    replicas = draw(st.integers(min_value=0, max_value=40))
    columns = draw(st.sampled_from([None, 2, 3, 5]))
    shape = (replicas,) if columns is None else (replicas, columns)
    return draw(arrays(draw(STORED_DTYPES), shape))


@st.composite
def named_arrays(draw):
    """One to four arrays under distinct names, as in a chunk payload."""
    count = draw(st.integers(min_value=1, max_value=4))
    return {f"field{index}": draw(stored_arrays()) for index in range(count)}


def assert_same_arrays(expected, actual):
    assert list(actual) == list(expected)
    for name, array in expected.items():
        decoded = actual[name]
        assert decoded.dtype == array.dtype, name
        assert decoded.shape == array.shape, name
        assert decoded.tobytes() == array.tobytes(), name
        assert decoded.flags.writeable and decoded.dtype.isnative, name


def _with_layout(layout):
    return lambda arrays: {**arrays, "layout": layout}


#: Damage to ``encode_arrays({"x": np.arange(8)})``: each must raise StoreError.
LAYOUT_DAMAGE = [
    pytest.param(lambda arrays: {**arrays, "zlib": "not base64!"}, id="bad-base64"),
    pytest.param(lambda arrays: {**arrays, "zlib": "!" + arrays["zlib"]}, id="junk-in-base64"),
    pytest.param(lambda arrays: {**arrays, "zlib": "bm90IHpsaWI="}, id="bad-zlib"),
    pytest.param(lambda arrays: {"layout": arrays["layout"]}, id="no-stream"),
    pytest.param(_with_layout([["x", "int64", [9]]]), id="too-few-bytes"),
    pytest.param(_with_layout([["x", "int64", [7]]]), id="trailing-bytes"),
    pytest.param(_with_layout([["x", "int64", [-8]]]), id="negative-shape"),
    pytest.param(_with_layout([["x", "int64", 8]]), id="shape-not-a-list"),
    pytest.param(_with_layout([["x", "int64", [4]], ["x", "int64", [4]]]), id="name-twice"),
    pytest.param(_with_layout([["x", "int64"]]), id="short-layout-entry"),
    pytest.param(_with_layout(8), id="layout-not-a-list"),
    pytest.param(lambda arrays: [arrays], id="not-a-mapping"),
]

#: Damage to one entry of the older per-array form, which still decodes.
ENTRY_DAMAGE = [
    pytest.param({"zlib": "not base64!"}, id="bad-base64"),
    pytest.param({"zlib": "bm90IHpsaWI="}, id="bad-zlib"),
    pytest.param({"shape": [9]}, id="too-few-bytes"),
    pytest.param({"shape": [7]}, id="too-many-bytes"),
    pytest.param({"shape": [-8]}, id="negative-shape"),
    pytest.param({"shape": 8}, id="shape-not-a-list"),
]


class TestArrayCodec:
    @settings(max_examples=150, deadline=None)
    @given(named_arrays())
    @example({"empty": np.zeros(0, dtype=np.int64)})
    @example({"empty": np.zeros((0, 2), dtype=np.int64), "flags": np.ones(3, dtype=np.bool_)})
    @example({"extremes": np.array([np.iinfo(np.int64).min, -1, 0, np.iinfo(np.int64).max])})
    def test_round_trip_is_bitwise(self, arrays):
        assert_same_arrays(arrays, decode_arrays(json.loads(json.dumps(encode_arrays(arrays)))))

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.dtype(">i8"), array_shapes(min_dims=1, max_dims=2, min_side=0)))
    def test_non_native_input_decodes_native(self, array):
        decoded = decode_arrays(encode_arrays({"x": array}))["x"]
        assert decoded.dtype == np.dtype(np.int64)
        assert decoded.dtype.isnative
        assert np.array_equal(decoded, array)

    @settings(max_examples=50, deadline=None)
    @given(named_arrays())
    def test_the_per_array_form_still_decodes(self, arrays):
        assert_same_arrays(arrays, decode_arrays(json.loads(json.dumps(per_array_form(arrays)))))

    def test_every_result_field_round_trips(self, fresh_results):
        """lv2 at both levels, generic ``finals`` and tau ``leap_events``."""
        assert any(result.finals is not None for result in fresh_results)
        assert any(result.leap_events is not None for result in fresh_results)
        restored = [
            ensemble_from_payload(json.loads(json.dumps(ensemble_to_payload(result))))
            for result in fresh_results
        ]
        assert_same_chunks(fresh_results, restored)
        for result in restored:
            for name in LAYOUT_ORDER:
                array = getattr(result, name)
                if array is not None:
                    assert array.flags.writeable and array.dtype.isnative, name

    def test_payload_arrays_are_one_layout_and_one_stream(self, fresh_results):
        for result in fresh_results:
            assert_layout_form(ensemble_to_payload(result)["arrays"])

    @pytest.mark.parametrize("damage", LAYOUT_DAMAGE)
    def test_malformed_arrays_raise_store_error(self, fresh_results, damage):
        with pytest.raises(StoreError):
            decode_arrays(damage(encode_arrays({"x": np.arange(8, dtype=np.int64)})))
        payload = ensemble_to_payload(fresh_results[0])
        payload["arrays"] = damage(payload["arrays"])
        with pytest.raises(StoreError):
            ensemble_from_payload(payload)

    @pytest.mark.parametrize("damage", ENTRY_DAMAGE)
    def test_malformed_per_array_entries_raise_store_error(self, fresh_results, damage):
        entry = {**per_array_form({"x": np.arange(8, dtype=np.int64)})["x"], **damage}
        with pytest.raises(StoreError):
            decode_arrays({"x": entry})
        payload = ensemble_to_payload(fresh_results[0])
        arrays = per_array_form(decode_arrays(payload["arrays"]))
        payload["arrays"] = {**arrays, "total_events": {**arrays["total_events"], **damage}}
        with pytest.raises(StoreError):
            ensemble_from_payload(payload)


# ----------------------------------------------------------------------
# The record line
# ----------------------------------------------------------------------
def _refuse_record_checksum(monkeypatch):
    def refuse(record):
        raise AssertionError("record_checksum re-serialised a current-form record")

    monkeypatch.setattr(journal_module, "record_checksum", refuse)


class TestRecordLine:
    def test_current_form_never_reserialises_to_verify(self, current_cache, monkeypatch):
        """Scans and lookups hash the bytes on disk, nothing else."""
        _refuse_record_checksum(monkeypatch)
        path = current_cache / "journal.jsonl"
        journal = ChunkJournal(path)
        assert len(journal) == len(FIXTURE_TASKS)
        assert all(journal.get(key) is not None for key in list(journal.keys()))
        assert verify_journal(path).intact_records == len(FIXTURE_TASKS)
        assert len(list(iter_intact_records(path))) == len(FIXTURE_TASKS)
        with ExperimentStore(current_cache) as store:
            run_fixture_tasks(store)
            assert store.stats.chunk_hits == len(FIXTURE_TASKS)

    def test_legacy_lines_are_verified_by_their_own_checksum(self, legacy_cache, monkeypatch):
        calls = []
        monkeypatch.setattr(
            journal_module,
            "record_checksum",
            lambda record: calls.append(record["key"]) or record_checksum(record),
        )
        journal = ChunkJournal(legacy_cache / "journal.jsonl")
        assert len(journal) == len(FIXTURE_TASKS)
        assert len(calls) == len(FIXTURE_TASKS)  # the open-time scan
        key = next(iter(journal.keys()))
        assert journal.get(key) is not None
        assert calls[-1] == key  # and the lookup again

    @pytest.mark.parametrize("position", ["prefix", "body"])
    def test_a_flipped_byte_is_a_checksum_mismatch_keeping_the_key(
        self, current_cache, position
    ):
        path = current_cache / "journal.jsonl"
        lines = journal_lines(current_cache)
        victim = parse_line(lines[1])["key"]
        index = 3 if position == "prefix" else lines[1].index(b'"zlib":"') + 10
        byte = lines[1][index : index + 1]
        lines[1] = lines[1][:index] + (b"b" if byte != b"b" else b"c") + lines[1][index + 1 :]
        path.write_bytes(b"".join(lines))
        report = verify_journal(path)
        (issue,) = report.issues
        assert issue.reason == "checksum mismatch"
        assert issue.key == victim
        assert report.intact_records == len(FIXTURE_TASKS) - 1

    def test_a_line_without_the_prefix_is_corrupt(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = ChunkJournal(path)
        journal.append("a", {"v": 1})
        journal.close()
        path.write_bytes(path.read_bytes() + b"garbage line\n")
        (issue,) = verify_journal(path).issues
        assert issue.reason.startswith("unparseable record line")
        assert issue.key is None

    def test_a_valid_prefix_over_a_keyless_body_is_corrupt(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        body = b'{"payload":{}}'
        path.write_bytes(hashlib.sha256(body).hexdigest().encode() + b" " + body + b"\n")
        (issue,) = verify_journal(path).issues
        assert issue.reason == "not a journal record (missing key field)"

    def test_mixed_form_journal_verifies_and_replays(self, legacy_cache, fresh_results):
        """A 3.1 journal that today's writer appends to stays fully usable."""
        extra = SweepTask(SD, LVState(18, 14), 16, seed=21, label="appended")
        with ExperimentStore(legacy_cache) as store:
            run_fixture_tasks(store)
            assert store.stats.chunk_misses == len(FIXTURE_TASKS)
            SweepScheduler(store=store).run_sweep([extra])
            assert store.stats.chunk_writes == len(FIXTURE_TASKS) + 1
        forms = [split_line(line)[0] is None for line in journal_lines(legacy_cache)]
        assert forms == [True] * len(FIXTURE_TASKS) + [False] * (len(FIXTURE_TASKS) + 1)
        report = verify_journal(legacy_cache / "journal.jsonl")
        assert report.ok and report.intact_records == 2 * len(FIXTURE_TASKS) + 1
        # On reopen only the appended records are served.
        with ExperimentStore(legacy_cache) as store:
            replayed = run_fixture_tasks(store)
            SweepScheduler(store=store).run_sweep([extra])
            assert store.stats.chunk_misses == 0
            assert store.stats.chunk_hits == len(FIXTURE_TASKS) + 1
        assert_same_chunks(fresh_results, replayed)

    def test_corrupt_legacy_line_heals_to_the_sidecar(self, legacy_cache, fresh_results):
        from test_store import TestChunkJournal

        path = legacy_cache / "journal.jsonl"
        victim = parse_line(journal_lines(legacy_cache)[2])["key"]
        TestChunkJournal._corrupt_record(None, path, victim)
        assert [issue.key for issue in verify_journal(path).issues] == [victim]
        with ExperimentStore(legacy_cache) as store:
            recovered = run_fixture_tasks(store)
            assert store.stats.chunk_misses == len(FIXTURE_TASKS)
            assert store.stats.chunks_quarantined == 1
        report = verify_journal(path)
        assert report.ok and report.quarantined_records == 1
        assert report.intact_records == 2 * len(FIXTURE_TASKS) - 1
        (sidecar_line,) = quarantine_path(path).read_bytes().splitlines()
        assert victim.encode() in sidecar_line
        assert_same_chunks(fresh_results, recovered)

    def test_injected_corruption_of_a_current_line_is_detected(self, tmp_path):
        from repro.faults import FaultPlan, FaultSpec, install_fault_plan

        path = tmp_path / "journal.jsonl"
        install_fault_plan(FaultPlan(seed=1, corrupt_chunk=FaultSpec(rate=1.0)))
        try:
            journal = ChunkJournal(path)
            journal.append("a", {"arrays": {}, "v": 123})
            journal.close()
        finally:
            install_fault_plan(None)
        (issue,) = verify_journal(path).issues
        assert issue.reason == "checksum mismatch"
        assert issue.key == "a"


# ----------------------------------------------------------------------
# A journal written by repro 3.1.0
# ----------------------------------------------------------------------
class TestLegacyJournal:
    def test_fixture_is_the_legacy_form(self):
        lines = FIXTURE.read_bytes().splitlines(keepends=True)
        assert len(lines) == len(FIXTURE_TASKS)
        for line in lines:
            prefix, body = split_line(line)
            assert prefix is None
            record = json.loads(body)
            assert record["checksum"] == record_checksum(record)
            assert all("data" in entry for entry in record["payload"]["arrays"].values())

    def test_verify_journal_reports_every_record_intact(self):
        report = verify_journal(FIXTURE)
        assert report.ok
        assert report.intact_records == 4

    def test_old_schema_chunks_recompute_after_the_old_bytes(
        self, legacy_cache, current_cache, fresh_results
    ):
        with ExperimentStore(legacy_cache) as store:
            recomputed = run_fixture_tasks(store)
            assert store.stats.chunk_hits == 0
            assert store.stats.chunk_misses == 4
            assert store.stats.chunk_writes == 4
        assert_same_chunks(fresh_results, recomputed)
        journal = (legacy_cache / "journal.jsonl").read_bytes()
        assert journal.startswith(FIXTURE.read_bytes())
        # The appended records are today's: the keys a fresh cache journals.
        assert journal_keys(legacy_cache)[4:] == journal_keys(current_cache)

    def test_merge_into_a_fresh_cache_converts_it(self, legacy_cache, tmp_path, fresh_results):
        report = merge_cache(tmp_path / "merged", [legacy_cache])
        assert (report.chunks_added, report.chunks_skipped) == (4, 0)
        assert_current_form(tmp_path / "merged")
        labels = [parse_line(line)["label"] for line in journal_lines(tmp_path / "merged")]
        assert labels == [parse_line(line)["label"] for line in journal_lines(legacy_cache)]
        assert journal_keys(tmp_path / "merged") == journal_keys(legacy_cache)
        with ExperimentStore(tmp_path / "merged") as store:
            recomputed = run_fixture_tasks(store)
            assert store.stats.chunk_hits == 0
            assert store.stats.chunk_misses == 4
        assert_same_chunks(fresh_results, recomputed)


# ----------------------------------------------------------------------
# A journal written by repro 3.2.0's per-configuration executor
# ----------------------------------------------------------------------
class TestEstimateJournal:
    def test_verify_journal_reports_every_record_intact(self):
        report = verify_journal(ESTIMATE_FIXTURE)
        assert report.ok
        assert report.intact_records == 3

    def test_estimate_many_recomputes_and_appends_after_it(self, tmp_path):
        cache = tmp_path / "estimate"
        cache.mkdir()
        shutil.copyfile(ESTIMATE_FIXTURE, cache / "journal.jsonl")
        fresh = SweepScheduler()
        expected = fresh.estimate_many(list(ESTIMATE_FIXTURE_TASKS))
        fresh_arrays = fresh.run_sweep(list(ESTIMATE_FIXTURE_TASKS))
        with ExperimentStore(cache) as store:
            scheduler = SweepScheduler(store=store)
            recomputed = scheduler.estimate_many(list(ESTIMATE_FIXTURE_TASKS))
            assert (store.stats.chunk_hits, store.stats.chunk_misses) == (0, 3)
            assert store.stats.chunk_writes == 3
            executed = scheduler.events_executed
            # The appended records are what the sweep executor serves now.
            replayed_arrays = scheduler.run_sweep(list(ESTIMATE_FIXTURE_TASKS))
            assert (store.stats.chunk_hits, store.stats.chunk_misses) == (3, 3)
        assert executed > 0 and scheduler.events_executed == executed
        # By repr: the tau estimate's accounting is NaN, which never equals itself.
        assert list(map(repr, recomputed)) == list(map(repr, expected))
        assert_same_chunks(fresh_arrays, replayed_arrays)
        assert replayed_arrays[1].leap_events.sum() > 0
        journal = (cache / "journal.jsonl").read_bytes()
        assert journal.startswith(ESTIMATE_FIXTURE.read_bytes())
        assert len(journal_lines(cache)) == 6


# ----------------------------------------------------------------------
# A journal written by repro 6.1.0 (one zlib stream per array)
# ----------------------------------------------------------------------
class TestPerArrayJournal:
    def test_fixture_is_the_per_array_form(self):
        lines = PER_ARRAY_FIXTURE.read_bytes().splitlines(keepends=True)
        assert len(lines) == len(FIXTURE_TASKS)
        for line in lines:
            prefix, body = split_line(line)
            assert prefix == hashlib.sha256(body).hexdigest().encode("ascii")
            arrays = json.loads(body)["payload"]["arrays"]
            assert set(ARRAY_FIELDS) <= set(arrays)
            assert all(set(entry) == {"dtype", "shape", "zlib"} for entry in arrays.values())
        payloads = [parse_line(line)["payload"] for line in lines]
        assert sum("finals" in payload["arrays"] for payload in payloads) == 1
        assert sum("leap_events" in payload["arrays"] for payload in payloads) == 1

    def test_old_schema_chunks_recompute_after_the_old_bytes(
        self, per_array_cache, current_cache, fresh_results
    ):
        assert verify_journal(PER_ARRAY_FIXTURE).intact_records == 4
        with ExperimentStore(per_array_cache) as store:
            recomputed = run_fixture_tasks(store)
            assert (store.stats.chunk_hits, store.stats.chunk_misses) == (0, 4)
            assert store.stats.chunk_writes == 4
        assert_same_chunks(fresh_results, recomputed)
        journal = (per_array_cache / "journal.jsonl").read_bytes()
        assert journal.startswith(PER_ARRAY_FIXTURE.read_bytes())
        # The appended records are today's: the keys a fresh cache journals.
        assert journal_keys(per_array_cache)[4:] == journal_keys(current_cache)
        assert verify_journal(per_array_cache / "journal.jsonl").intact_records == 8

    def test_exact_lv2_payloads_equal_a_fresh_caches(self, current_cache):
        """In task order, every payload but the generic and tau ones is today's,
        bar the schema; the tau one holds the same arrays."""
        old = [parse_line(line) for line in PER_ARRAY_FIXTURE.read_bytes().splitlines()]
        new = [parse_line(line) for line in journal_lines(current_cache)]
        assert [record["label"] for record in old] == [record["label"] for record in new]
        for before, after in zip(old, new):
            assert (before["payload"]["schema"], after["payload"]["schema"]) == (
                3,
                RESULT_SCHEMA_VERSION,
            )
            rebadged = {**before["payload"], "schema": RESULT_SCHEMA_VERSION}
            generic = "scenario" in before["payload"]
            tau = "leap_events" in before["payload"]["arrays"]
            assert payloads_equal(rebadged, after["payload"]) == (not generic and not tau)
            if tau:
                names = [name for name, _, _ in after["payload"]["arrays"]["layout"]]
                assert names == [*ARRAY_FIELDS, "leap_events"]
                assert set(decode_arrays(before["payload"]["arrays"])) == set(names)

    @pytest.mark.parametrize("direction", ["per-array-into-layout", "layout-into-per-array"])
    def test_merging_either_way_adds_every_chunk_after_the_old_bytes(
        self, per_array_cache, current_cache, direction
    ):
        destination, source = (
            (current_cache, per_array_cache)
            if direction == "per-array-into-layout"
            else (per_array_cache, current_cache)
        )
        before = (destination / "journal.jsonl").read_bytes()
        report = merge_cache(destination, [source])
        assert (report.chunks_added, report.chunks_skipped) == (4, 0)
        assert (destination / "journal.jsonl").read_bytes().startswith(before)
        assert verify_journal(destination / "journal.jsonl").intact_records == 8
        report = merge_cache(destination, [source])
        assert (report.chunks_added, report.chunks_skipped) == (0, 4)

    def test_merge_into_a_fresh_cache_converts_it(self, per_array_cache, current_cache, tmp_path):
        merged = tmp_path / "merged"
        assert merge_cache(merged, [per_array_cache]).chunks_added == 4
        assert_current_form(merged)
        assert journal_keys(merged) == journal_keys(per_array_cache)
        converted, old = journal_payloads(merged), journal_payloads(per_array_cache)
        fresh = list(journal_payloads(current_cache).values())
        for (key, payload), today in zip(converted.items(), fresh):
            assert payload["arrays"]["layout"] == today["arrays"]["layout"]
            assert payloads_equal(payload, old[key])

    def test_payloads_equal_across_the_three_forms(self):
        """A 3.1 list-form payload, its per-array form and its layout form."""
        for record in map(parse_line, FIXTURE.read_bytes().splitlines()):
            listed = record["payload"]
            decoded = decode_arrays(listed["arrays"])
            per_array = {**listed, "arrays": per_array_form(decoded)}
            layout = reencode_payload(listed)
            assert_layout_form(layout["arrays"])
            forms = (listed, per_array, layout)
            assert all(payloads_equal(a, b) for a in forms for b in forms)
            changed = {name: array.copy() for name, array in decoded.items()}
            changed["total_events"][0] += 1
            assert not payloads_equal(layout, {**listed, "arrays": encode_arrays(changed)})
            assert not payloads_equal(per_array, {**listed, "arrays": per_array_form(changed)})
            extra = {**listed, "arrays": encode_arrays({**decoded, "extra": np.zeros(1)})}
            assert not payloads_equal(layout, extra)
            assert not payloads_equal(extra, per_array)

    def test_planner_history_is_the_same_from_either_form(
        self, per_array_cache, current_cache, tmp_path
    ):
        old = EventRateHistory.from_journal(per_array_cache)
        merge_cache(tmp_path / "merged", [per_array_cache])
        converted = EventRateHistory.from_journal(tmp_path / "merged")
        assert len(old) == 4
        assert converted.to_payload() == old.to_payload()
        assert_history_is_todays_but_generic_and_tau(old, current_cache)


# ----------------------------------------------------------------------
# Merging the 3.1 form
# ----------------------------------------------------------------------
class TestMergeAcrossForms:
    """The 3.1 records against their current-form twin: same keys, same payloads."""

    @pytest.mark.parametrize("direction", ["legacy-into-current", "current-into-legacy"])
    def test_same_chunks_in_both_forms_are_skips(self, legacy_cache, legacy_twin, direction):
        assert_current_form(legacy_twin)
        assert journal_keys(legacy_twin) == journal_keys(legacy_cache)
        destination, source = (
            (legacy_twin, legacy_cache)
            if direction == "legacy-into-current"
            else (legacy_cache, legacy_twin)
        )
        before = (destination / "journal.jsonl").read_bytes()
        report = merge_cache(destination, [source])
        assert (report.chunks_added, report.chunks_skipped) == (0, 4)
        assert (destination / "journal.jsonl").read_bytes() == before

    def test_one_changed_array_element_still_conflicts(self, legacy_cache, legacy_twin):
        path = legacy_cache / "journal.jsonl"
        lines = journal_lines(legacy_cache)
        record = parse_line(lines[0])
        record["payload"]["arrays"]["total_events"]["data"][5] += 1
        del record["checksum"]
        record["checksum"] = record_checksum(record)  # intact, just different
        lines[0] = (json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n").encode()
        path.write_bytes(b"".join(lines))
        assert verify_journal(path).ok
        with pytest.raises(StoreError, match=f"merge conflict for chunk {record['key']}"):
            merge_cache(legacy_twin, [legacy_cache])

    def test_malformed_arrays_in_an_intact_record_name_the_key(self, tmp_path):
        source = tmp_path / "source"
        journal = ChunkJournal(source / "journal.jsonl")
        journal.append("bad", {"arrays": {"x": {"dtype": "int64", "shape": [1], "zlib": "!"}}})
        journal.close()
        with pytest.raises(StoreError, match="cannot merge chunk bad"):
            merge_cache(tmp_path / "dst", [source])


# ----------------------------------------------------------------------
# The shard planner's cost history
# ----------------------------------------------------------------------
class TestPlannerHistoryAcrossForms:
    def test_both_forms_give_the_same_history_and_plan(
        self, legacy_cache, legacy_twin, current_cache
    ):
        legacy = EventRateHistory.from_journal(legacy_cache)
        current = EventRateHistory.from_journal(legacy_twin)
        assert len(legacy) == 4
        assert current.to_payload() == legacy.to_payload()
        assert_history_is_todays_but_generic_and_tau(legacy, current_cache)
        signatures = sorted(legacy.to_payload())
        budgets = [40, 30, 20, 10]
        plans = [
            plan_shards(unit_costs(signatures, budgets, history), 2)
            for history in (legacy, current)
        ]
        assert plans[0] == plans[1]
        assert unit_costs(signatures, budgets, current) != unit_costs(signatures, budgets)
