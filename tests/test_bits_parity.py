"""Tests for the CI same-bits script, ``.github/scripts/bits_parity.py``."""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / ".github" / "scripts" / "bits_parity.py"


@pytest.fixture(scope="module")
def bits_parity():
    spec = importlib.util.spec_from_file_location("bits_parity", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
