"""Cache-compatibility check of a change against its base checkout.

The base journals ``repro run T1R4`` and ``repro run FIG-THRESH-XL`` (quick
scale, seed 0) into one fresh cache directory: lv2 exact chunks, generic
``resource`` chunks and tau chunks with ``leap_events``.  The change then
replays both runs from that cache and must

* report 0 misses and 0 journaled chunks on its ``cache:`` line,
* write ``--json`` bytes identical to the base's, and
* pass ``repro verify-cache`` on the journal.

Last, the change journals T1R4 at another seed into the same cache, so the
journal holds records of both writers, and ``repro verify-cache`` must pass
on that mixed journal as well.  The check fails if any of these does not
hold, and names each one that does not.

Usage::

    python .github/scripts/cache_parity.py --base BASE_TREE [--head HEAD_TREE]
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

EXPERIMENTS = ("T1R4", "FIG-THRESH-XL")
CACHE_LINE = re.compile(r"^cache: .*?(\d+) miss\(es\), (\d+) journaled", re.MULTILINE)


def repro(tree: Path, arguments: list[str], cwd: Path) -> subprocess.CompletedProcess[str]:
    """``python -m repro ARGUMENTS`` on *tree*'s sources."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro", *arguments],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )


def cache_counts(output: str) -> tuple[int, int] | None:
    """``(misses, journaled)`` from a run's ``cache:`` line, or ``None`` without one."""
    match = CACHE_LINE.search(output)
    return None if match is None else (int(match.group(1)), int(match.group(2)))


def run_args(experiment: str, seed: int, cache: Path) -> list[str]:
    return ["run", experiment, "--scale", "quick", "--seed", str(seed), "--cache-dir", str(cache)]


def run_json(tree: Path, experiment: str, cache: Path, output: Path) -> str:
    """Run *experiment* at seed 0 against *cache*; return its stdout once its JSON exists.

    A failed paper-shape check exits 1 but still writes the JSON; only a
    missing file means the run itself broke.
    """
    completed = repro(tree, [*run_args(experiment, 0, cache), "--json", str(output)], cache.parent)
    if not output.exists():
        raise SystemExit(
            f"cache-parity: {experiment} wrote no JSON in {tree}:\n{completed.stderr}"
        )
    return completed.stdout


def verify(tree: Path, cache: Path, when: str) -> list[str]:
    completed = repro(tree, ["verify-cache", "--cache-dir", str(cache)], cache.parent)
    print(f"verify-cache {when}: {completed.stdout.strip()}")
    return [] if completed.returncode == 0 else [f"verify-cache failed {when}"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout of the base")
    parser.add_argument("--head", type=Path, default=Path("."), help="checkout of the change")
    arguments = parser.parse_args(argv)
    base_tree, head_tree = arguments.base.resolve(), arguments.head.resolve()

    failures: list[str] = []
    with tempfile.TemporaryDirectory() as scratch:
        cache = Path(scratch) / "cache"
        for experiment in EXPERIMENTS:
            base_json = Path(scratch) / f"base-{experiment}.json"
            head_json = Path(scratch) / f"head-{experiment}.json"
            run_json(base_tree, experiment, cache, base_json)
            counts = cache_counts(run_json(head_tree, experiment, cache, head_json))
            print(f"{experiment}: head replay (misses, journaled) = {counts}")
            if counts != (0, 0):
                failures.append(f"{experiment}: the head replay missed or journaled: {counts}")
            if base_json.read_bytes() != head_json.read_bytes():
                failures.append(f"{experiment}: the head replay's JSON differs from the base's")
        failures += verify(head_tree, cache, "after the replay")
        mixed = repro(head_tree, run_args("T1R4", 1, cache), cache.parent)
        counts = cache_counts(mixed.stdout)
        print(f"T1R4 seed 1: head run (misses, journaled) = {counts}")
        if counts is None or counts[1] == 0:
            failures.append(f"T1R4 seed 1: the head journaled nothing ({counts})")
        failures += verify(head_tree, cache, "on the mixed journal")
    for failure in failures:
        print(f"cache-parity: {failure}")
    if failures:
        return 1
    print("cache-parity: the head replays the base's cache with the same bits")
    return 0


if __name__ == "__main__":
    sys.exit(main())
