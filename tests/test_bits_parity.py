"""Tests for the CI same-bits scripts in ``.github/scripts``."""

from __future__ import annotations

import dataclasses
import importlib.util
import itertools
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.lv.ensemble import SweepMember, run_sweep_ensemble
from repro.lv.simulator import LVJumpChainSimulator
from repro.lv.state import LVState

SCRIPTS = Path(__file__).resolve().parent.parent / ".github" / "scripts"
SCRIPT = SCRIPTS / "bits_parity.py"


def _load(name: str):
    # engine_parity imports bits_parity as its sibling, as it does when run.
    sys.path.insert(0, str(SCRIPTS))
    try:
        spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(SCRIPTS))
    return module


@pytest.fixture(scope="module")
def bits_parity():
    return _load("bits_parity")


@pytest.fixture(scope="module")
def engine_parity():
    return _load("engine_parity")


def _document(*entries) -> bytes:
    # The layout `repro run --json` writes: an indented list of entries.
    return json.dumps(list(entries), indent=2, sort_keys=True).encode()


def _entry(identifier, rows):
    return {"identifier": identifier, "rows": rows}


class TestDifferingExperiments:
    def test_entry_texts_are_exact_slices(self, bits_parity):
        document = _document(_entry("A", [1.5]), _entry("B", [math.nan]))
        texts = bits_parity.entry_texts(document)
        assert list(texts) == ["A", "B"]
        for identifier, text in texts.items():
            assert text in document.decode()
            assert json.loads(text)["identifier"] == identifier

    def test_equal_nan_rows_are_not_listed(self, bits_parity):
        base = _document(_entry("NAN", [math.nan, 1.0]), _entry("MOVED", [1.0]))
        head = _document(_entry("NAN", [math.nan, 1.0]), _entry("MOVED", [2.0]))
        assert bits_parity.differing_experiments(base, head) == ["MOVED"]

    def test_byte_only_difference_is_listed(self, bits_parity):
        # "1.0" and "1.00" parse to the same float but are different bytes.
        base = _document(_entry("A", [1.0]), _entry("B", [3]))
        head = base.replace(b"1.0", b"1.00")
        assert json.loads(base) == json.loads(head)
        assert bits_parity.differing_experiments(base, head) == ["A"]

    def test_one_sided_entries_are_listed(self, bits_parity):
        base = _document(_entry("A", [1]), _entry("GONE", [2]))
        head = _document(_entry("A", [1]), _entry("NEW", [2]))
        assert bits_parity.differing_experiments(base, head) == ["GONE", "NEW"]

    def test_reordered_entries_list_nothing(self, bits_parity):
        base = _document(_entry("A", [1]), _entry("B", [2]))
        head = _document(_entry("B", [2]), _entry("A", [1]))
        assert base != head
        assert bits_parity.differing_experiments(base, head) == []

    def test_empty_run(self, bits_parity):
        assert bits_parity.differing_experiments(b"[]", b"[\n]") == []


class TestEngineParity:
    def test_differing_and_one_sided_calls_are_listed(self, engine_parity):
        base = {"same": "1", "moved": "2", "gone": "3"}
        head = {"same": "1", "moved": "9", "new": "3"}
        assert engine_parity.differing_calls(base, head) == ["gone", "moved", "new"]

    def test_digest_reads_every_per_replica_array(self, engine_parity, sd_params):
        (result,) = run_sweep_ensemble([SweepMember(sd_params, LVState(12, 8), 6)], rng=1)
        digest = engine_parity.results_digest([result])
        assert engine_parity.results_digest([result]) == digest
        arrays = [
            field.name
            for field in dataclasses.fields(result)
            if isinstance(getattr(result, field.name), np.ndarray)
        ]
        assert "final_x0" in arrays and "hit_tie" in arrays
        for name in arrays:
            changed = getattr(result, name).copy()
            changed.flat[0] = ~changed.flat[0] if changed.dtype == bool else changed.flat[0] + 1
            altered = dataclasses.replace(result, **{name: changed})
            assert engine_parity.results_digest([altered]) != digest, name

    def test_digest_reads_every_scalar_run_field(self, engine_parity, nsd_params):
        run = LVJumpChainSimulator(nsd_params).run(LVState(9, 7), rng=3, record_path=True)
        digest = engine_parity.results_digest([run])
        assert run.path

        def altered(value):
            if isinstance(value, bool):
                return not value
            if isinstance(value, int):
                return value + 1
            if isinstance(value, tuple):
                return (value[0] + 1,) + value[1:]
            if isinstance(value, list):
                return value[:-1]
            if isinstance(value, str):
                return value + "?"
            if value is None:
                return 0
            if isinstance(value, LVState):
                return LVState(value.x0 + 1, value.x1)
            return dataclasses.replace(value, beta=value.beta + 1.0)

        for field in dataclasses.fields(run):
            changed = dataclasses.replace(run, **{field.name: altered(getattr(run, field.name))})
            assert engine_parity.results_digest([changed]) != digest, field.name

    def test_battery_opens_with_scalar_runs(self, engine_parity):
        # The first seed's scalar calls open the battery, so the rest need not run.
        calls = list(
            itertools.takewhile(
                lambda call: call[0].startswith("LVJumpChainSimulator.run/"),
                engine_parity.battery(),
            )
        )
        runs = [run for _, results in calls for run in results]
        assert len(calls) == 7
        assert {run.params.is_self_destructive for run in runs} == {False, True}
        assert any(run.path for run in runs) and any(not run.path for run in runs)
        assert {run.termination for run in runs} == {"consensus", "absorbed", "max-events"}
        assert max(run.total_events for run in runs) > 4096
        assert len(dict(calls)["LVJumpChainSimulator.run/one-stream/rng=0"]) == 5

    def test_battery_runs_the_generic_engine_on_both_backends_and_levels(self, engine_parity):
        # The first seed's calls end with its generic calls.
        calls = dict(
            itertools.takewhile(lambda call: not call[0].endswith("rng=1"), engine_parity.battery())
        )
        generic = {name: results for name, results in calls.items() if "/generic-" in name}
        assert sorted(generic) == sorted(
            f"{entry}/generic-{mechanism}/{collect}/rng=0"
            for entry in ("run_sweep_ensemble", "run_tau_sweep_ensemble")
            for mechanism in ("SD", "NSD")
            for collect in ("full", "win")
        )
        results = [result for results in generic.values() for result in results]
        # Only families both trees of a comparison have.
        assert {result.scenario for result in results} == {"opinion3", "opinion4", "catalysis"}
        assert {result.params.is_self_destructive for result in results} == {False, True}
        leaped = [result.leap_events.sum() for result in results if result.leap_events is not None]
        assert leaped and min(leaped) > 0
        # The population maximum is read where the population grows.
        full = generic["run_sweep_ensemble/generic-SD/full/rng=0"]
        assert any((r.max_total_population > sum(r.initial_counts)).any() for r in full)

    def test_battery_runs_two_scenario_groups_in_one_call_and_long_tails(self, engine_parity):
        calls = dict(
            itertools.takewhile(lambda call: not call[0].endswith("rng=1"), engine_parity.battery())
        )
        for collect in ("full", "win"):
            # The 24 x 48 probe on a generic family: both mechanisms, so two
            # scenario groups share the call.
            probe = calls[f"run_sweep_ensemble/resource-24x48/{collect}/rng=0"]
            assert [result.num_replicates for result in probe] == [48] * 24
            assert {result.scenario for result in probe} == {"resource"}
            assert {result.params.is_self_destructive for result in probe} == {False, True}
            # No competition: the scalar tails run past one uniform block.
            tails = calls[f"run_sweep_ensemble/no-competition/{collect}/rng=0"]
            assert all(result.params.alpha == result.params.gamma == 0.0 for result in tails)
            assert max(int(result.total_events.max()) for result in tails) > 4096

    def test_battery_leaps_two_generic_groups_of_several_members(self, engine_parity):
        calls = dict(
            itertools.takewhile(lambda call: not call[0].endswith("rng=1"), engine_parity.battery())
        )
        for collect in ("full", "win"):
            results = calls[f"run_tau_sweep_ensemble/fused-groups/{collect}/rng=0"]
            scenarios = [result.scenario for result in results]
            assert scenarios == ["opinion3"] * 6 + ["catalysis"] * 6 + ["opinion3"]
            # Each family's members share one set of rates: one group each.
            assert len({results[i].params for i in (*range(6), 12)}) == 1
            assert len({result.params for result in results[6:12]}) == 1
            assert {result.num_replicates for result in results[:12]} == {2, 3, 4}
            spent = [result.termination_codes == 2 for result in results]
            assert any((s & (r.total_events == r.leap_events)).any() for s, r in zip(spent, results))
            assert any((s & (r.total_events > r.leap_events)).any() for s, r in zip(spent, results))
            assert not results[12].leap_events.any()

    def test_battery_leaps_lv2_members_with_a_generic_one(self, engine_parity):
        calls = dict(
            itertools.takewhile(lambda call: not call[0].endswith("rng=1"), engine_parity.battery())
        )
        for collect in ("full", "win"):
            results = calls[f"run_tau_sweep_ensemble/lv2-with-generic/{collect}/rng=0"]
            assert [result.scenario for result in results] == ["lv2", "opinion3", "lv2"]
            lv2 = [results[0], results[2]]
            assert {result.params.is_self_destructive for result in lv2} == {False, True}
            # lv2 results keep the two-species shape; the generic one its counts.
            assert all(result.finals is None for result in lv2)
            assert results[1].finals.shape == (results[1].num_replicates, 3)
            for result in results:
                assert (result.leap_events > 0).all()
                assert (result.total_events > result.leap_events).all()


SCHEMAS = {"base": "RESULT_SCHEMA_VERSION = 2", "head": "RESULT_SCHEMA_VERSION = 3"}


def _trees(root):
    return ["--base", str(root / "base"), "--head", str(root / "head")]


def _schema_lines(bumped):
    """A ``schema_line`` stand-in: the trees differ in it only when *bumped*."""
    return lambda tree: SCHEMAS[tree.name] if bumped else SCHEMAS["base"]


@pytest.mark.parametrize("bumped", [True, False], ids=["bump", "no-bump"])
class TestBlastRadius:
    """Changed output is listed whether or not the schema was bumped."""

    def test_bits_parity_names_the_changed_experiments(
        self, bits_parity, monkeypatch, capsys, tmp_path, bumped
    ):
        documents = {
            "base": _document(_entry("SAME", [1]), _entry("T1R4", [0.5])),
            "head": _document(_entry("SAME", [1]), _entry("T1R4", [0.75])),
        }
        monkeypatch.setattr(bits_parity, "run_all", lambda tree, output: documents[tree.name])
        monkeypatch.setattr(bits_parity, "schema_line", _schema_lines(bumped))
        status = bits_parity.main(_trees(tmp_path))
        output = capsys.readouterr().out
        assert status == (0 if bumped else 1)
        assert ("under a schema bump" in output) == bumped
        assert output.endswith("in:\n  T1R4\n")

    def test_engine_parity_names_the_changed_calls(
        self, engine_parity, monkeypatch, capsys, tmp_path, bumped
    ):
        digests = {
            "base": {"same": "1", "generic/full": "2", "generic/win": "3"},
            "head": {"same": "1", "generic/full": "9", "generic/win": "3"},
        }
        monkeypatch.setattr(engine_parity, "call_digests", lambda tree: digests[tree.name])
        monkeypatch.setattr(engine_parity, "schema_line", _schema_lines(bumped))
        status = engine_parity.main(_trees(tmp_path))
        output = capsys.readouterr().out
        assert status == (0 if bumped else 1)
        assert ("under a schema bump" in output) == bumped
        assert output.endswith(":\n  generic/full\n")


class TestSourceLines:
    def test_line_counts_are_reported_beside_parity(
        self, bits_parity, monkeypatch, capsys, tmp_path
    ):
        # Every line of every *.py under src/repro, nested packages included;
        # other files and other directories do not count.
        files = {
            "base/src/repro/a.py": "x = 1\ny = 2\n",
            "base/src/repro/pkg/b.py": "z = 3\n",
            "base/src/repro/notes.txt": "not counted\n",
            "base/tests/test_a.py": "not counted\n",
            "head/src/repro/a.py": "x = 1\n",
        }
        for name, text in files.items():
            path = tmp_path / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        document = _document(_entry("SAME", [1]))
        monkeypatch.setattr(bits_parity, "run_all", lambda tree, output: document)
        assert bits_parity.source_lines(tmp_path / "base") == 3
        assert bits_parity.main(_trees(tmp_path)) == 0
        output = capsys.readouterr().out
        assert "src/repro lines: base 3, head 1 (-2)\n" in output
        assert output.endswith("bits-parity: same bits\n")


@pytest.fixture(scope="module")
def cache_parity():
    return _load("cache_parity")


class TestCacheParity:
    def test_cache_counts_read_the_stores_summary(self, cache_parity):
        from repro.store import CacheStats

        stats = CacheStats(chunk_hits=5, chunk_misses=3, chunk_writes=2, events_replayed=9)
        output = f"T1R4 ...\ncache: {stats.summary()} (result store at C)\n"
        assert cache_parity.cache_counts(output) == (3, 2)
        assert cache_parity.cache_counts("no store attached\n") is None

    @staticmethod
    def _fake_runs(cache_parity, monkeypatch, *, bumped, mixed, verified=True):
        """A head whose T1R4 replay misses and whose FIG-THRESH-XL JSON differs."""

        def run_json(tree, experiment, cache, output):
            output.write_bytes(b"same" if experiment == "T1R4" else tree.name.encode())
            misses = 2 if tree.name == "head" and experiment == "T1R4" else 0
            return f"cache: 0 chunk hit(s), {misses} miss(es), {misses} journaled\n"

        monkeypatch.setattr(cache_parity, "run_json", run_json)
        monkeypatch.setattr(
            cache_parity, "verify", lambda tree, cache, when: [] if verified else [f"bad {when}"]
        )
        monkeypatch.setattr(
            cache_parity, "repro", lambda tree, arguments, cwd: SimpleNamespace(stdout=mixed)
        )
        monkeypatch.setattr(cache_parity, "schema_line", _schema_lines(bumped))

    @staticmethod
    def _lines(capsys):
        return [
            line for line in capsys.readouterr().out.splitlines() if line.startswith("cache-parity")
        ]

    def test_every_failed_step_is_named(self, cache_parity, monkeypatch, capsys, tmp_path):
        mixed = "cache: 8 miss(es), 8 journaled"
        self._fake_runs(cache_parity, monkeypatch, bumped=False, mixed=mixed)
        assert cache_parity.main(_trees(tmp_path)) == 1
        assert self._lines(capsys) == [
            "cache-parity: T1R4: the head replay missed or journaled: (2, 2)",
            "cache-parity: FIG-THRESH-XL: the head replay's JSON differs from the base's",
        ]

    def test_a_schema_bump_reports_misses_and_json_differences(
        self, cache_parity, monkeypatch, capsys, tmp_path
    ):
        mixed = "cache: 8 miss(es), 8 journaled"
        self._fake_runs(cache_parity, monkeypatch, bumped=True, mixed=mixed)
        assert cache_parity.main(_trees(tmp_path)) == 0
        lines = self._lines(capsys)
        assert lines[2:] == [
            "cache-parity: reported under the bump: T1R4: the head replay missed or "
            "journaled: (2, 2)",
            "cache-parity: reported under the bump: FIG-THRESH-XL: the head replay's JSON "
            "differs from the base's",
            "cache-parity: the head journals and verifies a cache of both schemas",
        ]
        assert "RESULT_SCHEMA_VERSION = 2 -> RESULT_SCHEMA_VERSION = 3" in lines[0]

    @pytest.mark.parametrize("verified", [True, False], ids=["journals-nothing", "unverified"])
    def test_a_schema_bump_still_fails_an_unwritten_or_unverified_journal(
        self, cache_parity, monkeypatch, capsys, tmp_path, verified
    ):
        mixed = "cache: 0 miss(es), 0 journaled" if verified else "cache: 8 miss(es), 8 journaled"
        self._fake_runs(cache_parity, monkeypatch, bumped=True, mixed=mixed, verified=verified)
        assert cache_parity.main(_trees(tmp_path)) == 1
        # After the bump's two header lines and its two reported replay changes.
        failures = self._lines(capsys)[4:]
        if verified:
            assert failures == ["cache-parity: T1R4 seed 1: the head journaled nothing ((0, 0))"]
        else:
            assert failures == [
                "cache-parity: bad after the replay",
                "cache-parity: bad on the mixed journal",
            ]
