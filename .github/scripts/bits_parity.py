"""Same-bits check of a change against its base checkout.

Runs ``python -m repro run --all --scale quick --seed 0 --no-cache --json``
in both trees and compares the JSON bytes.  The check passes when the bytes
match, or when the change edits the ``RESULT_SCHEMA_VERSION =`` line of
``src/repro/store/keys.py``: results may change only under a declared schema
bump.  Otherwise it fails.  Either way, when the bytes differ it names the
experiments whose output differs, so a bump shows what it changed.  It also
reports each tree's ``src/repro`` line count and their difference, counted
as perfbench's ``src_repro_lines`` counts them (a report, not a gate).

Usage::

    python .github/scripts/bits_parity.py --base BASE_TREE [--head HEAD_TREE]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

RUN = ["-m", "repro", "run", "--all", "--scale", "quick", "--seed", "0", "--no-cache"]
SCHEMA_FILE = Path("src/repro/store/keys.py")
SCHEMA_PREFIX = "RESULT_SCHEMA_VERSION ="


def run_all(tree: Path, output: Path) -> bytes:
    """The ``run --all`` JSON of *tree*'s sources, as bytes."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    # A failed paper-shape check exits 1 but still writes the JSON; only a
    # missing file means the run itself broke.
    subprocess.run(
        [sys.executable, *RUN, "--json", str(output)],
        cwd=tree,
        env=env,
        stdout=subprocess.DEVNULL,
        check=False,
    )
    if not output.exists():
        raise SystemExit(f"bits-parity: run --all wrote no JSON in {tree}")
    return output.read_bytes()


def schema_line(tree: Path) -> str | None:
    for line in (tree / SCHEMA_FILE).read_text().splitlines():
        if line.startswith(SCHEMA_PREFIX):
            return line.strip()
    return None


def source_lines(tree: Path) -> int:
    """Every line of every ``*.py`` under *tree*'s ``src/repro``."""
    return sum(
        len(path.read_bytes().splitlines()) for path in (tree / "src" / "repro").rglob("*.py")
    )


def entry_texts(document: bytes) -> dict[str, str]:
    """Each top-level entry's identifier, mapped to the entry's exact JSON text.

    Entries are compared as text, not as parsed values: a NaN never equals
    itself once parsed, and two spellings of one number parse equal.
    """
    text = document.decode()
    decoder = json.JSONDecoder()
    entries: dict[str, str] = {}
    index = text.index("[") + 1
    while True:
        while text[index] in " \t\r\n,":
            index += 1
        if text[index] == "]":
            return entries
        entry, end = decoder.raw_decode(text, index)
        entries[entry["identifier"]] = text[index:end]
        index = end


def differing_experiments(base: bytes, head: bytes) -> list[str]:
    """Identifiers whose entry text differs, or that only one side produced."""
    base_entries, head_entries = entry_texts(base), entry_texts(head)
    return sorted(
        identifier
        for identifier in base_entries.keys() | head_entries.keys()
        if base_entries.get(identifier) != head_entries.get(identifier)
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout of the base")
    parser.add_argument("--head", type=Path, default=Path("."), help="checkout of the change")
    arguments = parser.parse_args(argv)
    base_tree, head_tree = arguments.base.resolve(), arguments.head.resolve()

    with tempfile.TemporaryDirectory() as scratch:
        base = run_all(base_tree, Path(scratch) / "base.json")
        head = run_all(head_tree, Path(scratch) / "head.json")
    base_digest = hashlib.sha256(base).hexdigest()
    head_digest = hashlib.sha256(head).hexdigest()
    print(f"base {base_digest}")
    print(f"head {head_digest}")
    base_lines, head_lines = source_lines(base_tree), source_lines(head_tree)
    print(
        f"src/repro lines: base {base_lines:,}, head {head_lines:,} "
        f"({head_lines - base_lines:+,})"
    )
    if base == head:
        print("bits-parity: same bits")
        return 0
    base_schema, head_schema = schema_line(base_tree), schema_line(head_tree)
    bumped = base_schema != head_schema
    if bumped:
        print(
            f"bits-parity: output changed under a schema bump ({base_schema} -> {head_schema}), in:"
        )
    else:
        print("bits-parity: output changed without a RESULT_SCHEMA_VERSION bump, in:")
    differing = differing_experiments(base, head)
    for identifier in differing:
        print(f"  {identifier}")
    if not differing:
        print("  no single entry: the entries' order or the text between them")
    return 0 if bumped else 1


if __name__ == "__main__":
    sys.exit(main())
