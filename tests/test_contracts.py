"""Tests for the determinism-contract linter (:mod:`repro.contracts`).

Every rule ID gets a fixture snippet that triggers it and a clean twin that
does not; waiver parsing, the JSON report schema, and the CLI exit codes are
exercised end to end; and the self-check at the bottom asserts the linter
exits 0 on this repository's own source tree — the acceptance bar of the
contract-enforcement work.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.contracts import (
    CONSUMPTION_ORDER_REGISTRY,
    DEFAULT_CONFIG,
    RULE_CLASSES,
    RULES,
    LintError,
    StreamConsumer,
    lint_paths,
    parse_waivers,
    render_json,
    render_text,
    result_payload,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint_snippet(tmp_path, relpath, source, *, registry=None, paths=None):
    """Lint one dedented *source* snippet placed at *relpath* under a tmp root.

    The consumption-order registry defaults to empty so stream mentions in
    unrelated fixtures never produce incidental RC104 findings; RC104/RC105
    tests pass their own registry.
    """
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    return lint_paths(
        paths or [relpath],
        root=tmp_path,
        config=DEFAULT_CONFIG,
        registry={} if registry is None else registry,
    )


def active_rule_ids(result):
    return [finding.rule_id for finding in result.active]


class TestRuleCatalog:
    def test_at_least_eight_rules_across_the_three_contract_classes(self):
        contract_rules = [r for r in RULES.values() if not r.id.startswith("RC9")]
        assert len(contract_rules) >= 8
        assert {r.rule_class for r in contract_rules} == {
            "rng-discipline",
            "iteration-order",
            "store-key-purity",
        }

    def test_every_rule_id_is_stable_and_self_describing(self):
        for identifier, registered in RULES.items():
            assert registered.id == identifier
            assert identifier.startswith("RC") and len(identifier) == 5
            assert int(identifier[2]) in RULE_CLASSES
            assert registered.title and registered.rationale


class TestRngDiscipline:
    def test_rc101_global_numpy_random(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "src/repro/lv/mod.py",
            """
            import numpy as np

            def draw():
                return np.random.random()
            """,
        )
        assert active_rule_ids(result) == ["RC101"]

    def test_rc101_stdlib_random(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "src/repro/scenario/mod.py",
            """
            import random

            def draw():
                return random.randint(0, 10)
            """,
        )
        assert active_rule_ids(result) == ["RC101"]

    def test_rc102_wall_clock(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "src/repro/lv/mod.py",
            """
            import time

            def stamp():
                return time.time()
            """,
        )
        assert active_rule_ids(result) == ["RC102"]

    def test_rc102_datetime_now_and_urandom(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "src/repro/store/mod.py",
            """
            import os
            from datetime import datetime

            def stamp():
                return datetime.now(), os.urandom(8)
            """,
        )
        assert active_rule_ids(result) == ["RC102", "RC102"]

    def test_rc103_generator_construction_in_engine_code(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "src/repro/scenario/mod.py",
            """
            import numpy as np

            def make(seed):
                return np.random.default_rng(seed)
            """,
        )
        assert active_rule_ids(result) == ["RC103"]

    def test_rc103_bare_constructor_name(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "src/repro/lv/mod.py",
            """
            from numpy.random import SeedSequence

            def make(entropy):
                return SeedSequence(entropy)
            """,
        )
        assert active_rule_ids(result) == ["RC103"]

    def test_rc103_exempt_inside_repro_rng(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "src/repro/rng.py",
            """
            import numpy as np

            def as_generator(seed):
                return np.random.default_rng(seed)
            """,
        )
        assert active_rule_ids(result) == []

    def test_engine_scope_only(self, tmp_path):
        # The same global-RNG call outside engine code is not RC101 territory.
        result = lint_snippet(
            tmp_path,
            "src/repro/analysis/mod.py",
            """
            import numpy as np

            def draw():
                return np.random.random()
            """,
        )
        assert active_rule_ids(result) == []

    def test_rc104_undeclared_stream_consumer(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "src/repro/lv/mod.py",
            """
            def advance(step_generator):
                return step_generator.random(8)
            """,
            registry={},
        )
        assert active_rule_ids(result) == ["RC104"]
        (finding,) = result.active
        assert finding.symbol == "advance"

    def test_rc104_forwarding_counts_as_consumption(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "src/repro/lv/mod.py",
            """
            def finish(member, tail_generator):
                return run_tail(member, tail_generator)
            """,
            registry={},
        )
        assert active_rule_ids(result) == ["RC104"]

    def test_rc104_declared_consumer_is_clean(self, tmp_path):
        registry = {
            "repro.lv.mod": (
                StreamConsumer("advance", "step", "test fixture"),
            )
        }
        result = lint_snippet(
            tmp_path,
            "src/repro/lv/mod.py",
            """
            def advance(step_generator):
                return step_generator.random(8)
            """,
            registry=registry,
        )
        assert active_rule_ids(result) == []

    def test_rc104_signature_alone_does_not_consume(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "src/repro/lv/mod.py",
            """
            def describe(step_generator):
                return "a stream"
            """,
            registry={},
        )
        assert active_rule_ids(result) == []

    def test_rc105_stale_registry_entry(self, tmp_path):
        registry = {
            "repro.lv.mod": (
                StreamConsumer("gone", "tail", "test fixture"),
            )
        }
        result = lint_snippet(
            tmp_path,
            "src/repro/lv/mod.py",
            """
            def present():
                return 1
            """,
            registry=registry,
        )
        assert active_rule_ids(result) == ["RC105"]


class TestIterationOrder:
    def test_rc201_unsorted_glob(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "src/repro/analysis/mod.py",
            """
            import glob

            def entries():
                return [path for path in glob.glob("*.json")]
            """,
        )
        assert active_rule_ids(result) == ["RC201"]

    def test_rc201_unsorted_iterdir(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "src/repro/lv/mod.py",
            """
            def entries(directory):
                for path in directory.iterdir():
                    yield path
            """,
        )
        assert active_rule_ids(result) == ["RC201"]

    def test_rc201_sorted_scan_is_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "src/repro/analysis/mod.py",
            """
            import glob

            def entries(directory):
                direct = sorted(glob.glob("*.json"))
                mapped = sorted(p.name for p in directory.iterdir())
                return direct, mapped
            """,
        )
        assert active_rule_ids(result) == []

    def test_rc202_set_iteration_in_order_critical_code(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "src/repro/store/mod.py",
            """
            def keys(a, b):
                return [k for k in {a, b}]
            """,
        )
        assert active_rule_ids(result) == ["RC202"]

    def test_rc202_does_not_apply_outside_order_critical_code(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "src/repro/lv/mod.py",
            """
            def keys(a, b):
                return [k for k in {a, b}]
            """,
        )
        assert active_rule_ids(result) == []

    def test_rc203_unsorted_json_in_order_critical_code(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "src/repro/shard/mod.py",
            """
            import json

            def encode(payload):
                return json.dumps(payload)
            """,
        )
        assert active_rule_ids(result) == ["RC203"]

    def test_rc203_sort_keys_is_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "src/repro/store/mod.py",
            """
            import json

            def encode(payload):
                return json.dumps(payload, sort_keys=True)
            """,
        )
        assert active_rule_ids(result) == []


class TestStoreKeyPurity:
    def test_rc301_undeclared_key_field(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "src/repro/store/keys.py",
            """
            def run_key():
                return {"experiment": 1, "rogue_field": 2}
            """,
        )
        assert active_rule_ids(result) == ["RC301"]
        (finding,) = result.active
        assert "rogue_field" in finding.message

    def test_rc302_excluded_field_reference(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "src/repro/store/keys.py",
            """
            def chunk_key(jobs):
                return {"seed": jobs}
            """,
        )
        assert active_rule_ids(result) == ["RC302"]

    def test_rc302_excluded_field_as_string(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "src/repro/store/keys.py",
            """
            def config_hash(settings):
                return {"scale": settings["engine"]}
            """,
        )
        assert active_rule_ids(result) == ["RC302"]

    def test_whitelisted_fields_are_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "src/repro/store/keys.py",
            """
            def run_key(experiment_id, config, seed_root):
                return {
                    "experiment": experiment_id,
                    "config": config,
                    "seed_root": seed_root,
                    "schema": 2,
                }
            """,
        )
        assert active_rule_ids(result) == []

    def test_docstrings_mentioning_excluded_words_are_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "src/repro/store/keys.py",
            '''
            def run_key(experiment_id):
                """Excludes jobs and the resolved engine by contract."""
                return {"experiment": experiment_id}
            ''',
        )
        assert active_rule_ids(result) == []

    def test_functions_outside_the_whitelist_are_not_checked(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "src/repro/store/keys.py",
            """
            def helper():
                return {"anything": 1}
            """,
        )
        assert active_rule_ids(result) == []


class TestWaivers:
    def test_parse_single_and_multi_rule_waivers(self):
        source = textwrap.dedent(
            """
            a = 1  # repro: noqa-RC203: bytes are column-ordered on purpose
            b = 2  # repro: noqa-RC201, RC202: scan feeds an order-free set
            c = 3  # repro: noqa-RC101
            """
        )
        waivers = parse_waivers(source, "mod.py")
        assert waivers[2].rule_ids == ("RC203",)
        assert waivers[2].justified
        assert waivers[3].rule_ids == ("RC201", "RC202")
        assert waivers[4].rule_ids == ("RC101",)
        assert not waivers[4].justified

    def test_justified_waiver_suppresses_and_reports(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "src/repro/store/mod.py",
            """
            import json

            def encode(payload):
                return json.dumps(payload)  # repro: noqa-RC203: caller sorts
            """,
        )
        assert result.exit_code == 0
        (finding,) = result.findings
        assert finding.rule_id == "RC203"
        assert finding.waived
        assert finding.justification == "caller sorts"

    def test_rc901_unjustified_waiver_still_fails(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "src/repro/store/mod.py",
            """
            import json

            def encode(payload):
                return json.dumps(payload)  # repro: noqa-RC203
            """,
        )
        assert result.exit_code == 1
        assert "RC901" in active_rule_ids(result)

    def test_rc902_stale_waiver(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "src/repro/store/mod.py",
            """
            import json

            def encode(payload):
                return json.dumps(payload, sort_keys=True)  # repro: noqa-RC203: stale
            """,
        )
        assert active_rule_ids(result) == ["RC902"]

    def test_waiver_only_covers_its_own_rule(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "src/repro/store/mod.py",
            """
            import json

            def encode(payload):
                return json.dumps(payload)  # repro: noqa-RC201: wrong rule
            """,
        )
        # The RC203 finding stays active and the RC201 waiver is stale.
        assert sorted(active_rule_ids(result)) == ["RC203", "RC902"]


class TestReporter:
    def _fixture_result(self, tmp_path):
        return lint_snippet(
            tmp_path,
            "src/repro/store/mod.py",
            """
            import json

            def encode(payload):
                return json.dumps(payload)
            """,
        )

    def test_json_schema(self, tmp_path):
        result = self._fixture_result(tmp_path)
        document = json.loads(render_json(result))
        assert document["schema"] == 1
        assert document["tool"] == "repro.contracts"
        assert document["exit_code"] == 1
        assert document["files_scanned"] == 1
        assert document["summary"]["active"] == 1
        assert document["summary"]["by_rule"] == {"RC203": 1}
        (finding,) = document["findings"]
        assert finding["rule"] == "RC203"
        assert finding["rule_class"] == "iteration-order"
        assert finding["path"] == "src/repro/store/mod.py"
        assert finding["line"] == 5
        assert not finding["waived"]

    def test_json_bytes_are_deterministic(self, tmp_path):
        result = self._fixture_result(tmp_path)
        assert render_json(result) == render_json(result)
        assert json.dumps(result_payload(result), sort_keys=True) == json.dumps(
            result_payload(result), sort_keys=True
        )

    def test_text_report_carries_location_and_rule(self, tmp_path):
        report = render_text(self._fixture_result(tmp_path))
        assert "src/repro/store/mod.py:5:" in report
        assert "RC203" in report
        assert "1 active finding(s)" in report


class TestEngine:
    def test_missing_target_raises_lint_error(self, tmp_path):
        with pytest.raises(LintError, match="does not exist"):
            lint_paths(["src/absent"], root=tmp_path, config=DEFAULT_CONFIG)

    def test_syntax_error_raises_lint_error(self, tmp_path):
        bad = tmp_path / "src/repro/lv/bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def broken(:\n")
        with pytest.raises(LintError, match="syntax error"):
            lint_paths(["src/repro/lv/bad.py"], root=tmp_path, config=DEFAULT_CONFIG)

    def test_findings_are_sorted_and_files_deduplicated(self, tmp_path):
        target = tmp_path / "src/repro/lv/mod.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            textwrap.dedent(
                """
                import time

                def late():
                    return time.time()

                def early():
                    return time.time_ns()
                """
            )
        )
        result = lint_paths(
            ["src/repro/lv/mod.py", "src/repro/lv", "src/repro"],
            root=tmp_path,
            config=DEFAULT_CONFIG,
            registry={},
        )
        assert result.files_scanned == 1
        assert [f.line for f in result.findings] == sorted(
            f.line for f in result.findings
        )


class TestCli:
    def _write_violation(self, tmp_path):
        target = tmp_path / "src/repro/lv/mod.py"
        target.parent.mkdir(parents=True)
        target.write_text("import time\n\n\ndef stamp():\n    return time.time()\n")

    def test_lint_exits_nonzero_on_violation(self, tmp_path, capsys):
        self._write_violation(tmp_path)
        code = main(["lint", "--root", str(tmp_path)])
        assert code == 1
        assert "RC102" in capsys.readouterr().out

    def test_lint_json_output_file(self, tmp_path, capsys):
        self._write_violation(tmp_path)
        output = tmp_path / "artifacts" / "lint.json"
        code = main(
            ["lint", "--root", str(tmp_path), "--format", "json", "--output", str(output)]
        )
        assert code == 1
        document = json.loads(output.read_text())
        assert document["summary"]["by_rule"] == {"RC102": 1}
        assert json.loads(capsys.readouterr().out) == document

    def test_lint_missing_target_exits_two(self, tmp_path, capsys):
        code = main(["lint", "--root", str(tmp_path), "src/nowhere"])
        assert code == 2
        assert "lint failed" in capsys.readouterr().err


class TestSelfCheck:
    """The acceptance bar: the repository's own tree is contract-clean."""

    def test_repo_source_tree_is_lint_clean(self):
        result = lint_paths(root=REPO_ROOT)
        assert result.exit_code == 0, render_text(result)

    def test_no_unjustified_waivers_in_repo(self):
        result = lint_paths(root=REPO_ROOT)
        for waiver in result.waivers:
            assert waiver.justified, f"{waiver.path}:{waiver.line} lacks a reason"
            assert waiver.used_for, f"{waiver.path}:{waiver.line} is stale"

    def test_cli_self_check_exit_zero(self, capsys):
        assert main(["lint", "--root", str(REPO_ROOT)]) == 0
        assert "0 active finding(s)" in capsys.readouterr().out

    def test_registry_matches_the_code(self):
        # Every registered module must exist, and linting it must produce
        # no RC104/RC105 drift (covered by exit 0 above, but pin the modules
        # explicitly so a registry typo fails with a readable message).
        for module_name in CONSUMPTION_ORDER_REGISTRY:
            relpath = "src/" + module_name.replace(".", "/") + ".py"
            assert (REPO_ROOT / relpath).is_file(), relpath
