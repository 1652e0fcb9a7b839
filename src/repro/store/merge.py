"""Journal union: merge shard cache directories into one store.

Chunk keys (:func:`repro.store.keys.chunk_key`) contain everything that
determines a chunk's bits and *nothing* about how execution was arranged —
no ``jobs``, no ``sweep_batch``, no packing, no engine.  Two stores that
simulated overlapping parts of one grid therefore journaled payloads with
equal decoded arrays under equal keys, and merging K shard journals is a
pure set union.  :func:`merge_cache` performs that union with the safety
rails a distributed run needs:

* **checksum verification** — only intact source records are merged
  (per-record SHA-256, same scan as :func:`repro.store.journal
  .verify_journal`); complete-but-corrupt lines are counted and skipped,
  and a torn source tail simply ends that source's scan, so a shard
  journal whose writer was killed mid-append merges cleanly;
* **conflict detection** — a key present in the destination with a
  *different* payload is a hard error naming the key: under the
  determinism contract it can only mean corruption that forged a valid
  checksum, or keys minted from incompatible code — never something to
  silently last-write-win.  Payloads are compared by their decoded
  arrays (:func:`repro.store.serialize.payloads_equal`), so a chunk
  journaled by repro 3.1 (arrays as JSON lists) equals the same chunk
  journaled today (arrays as compressed bytes);
* **idempotent re-merge** — re-running a merge (or merging overlapping
  shards) skips records whose payload already matches, so a crashed merge
  is safely re-run from the top;
* **one record form** — merged ensemble payloads are journaled with their
  arrays re-encoded in the current form, so merging a 3.1 cache into a
  fresh directory converts it.

Run-tier entries (``runs/<key>.json``) are unioned with the same rule:
copied when absent, skipped when byte-identical, hard error otherwise.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.exceptions import StoreError
from repro.store.journal import _classify_line
from repro.store.serialize import payloads_equal, reencode_payload
from repro.store.store import ExperimentStore

__all__ = ["MergeReport", "merge_cache"]

#: Metadata fields that are structural to a journal record rather than
#: caller-provided provenance; everything else is forwarded on merge.
_STRUCTURAL_FIELDS = frozenset({"key", "payload", "checksum"})


@dataclass(frozen=True)
class MergeReport:
    """Accounting of one :func:`merge_cache` call."""

    destination: Path
    sources: tuple[Path, ...]
    chunks_added: int
    chunks_skipped: int
    corrupt_skipped: int
    runs_copied: int
    runs_skipped: int

    def summary(self) -> str:
        text = (
            f"merged {len(self.sources)} source(s) into {self.destination}: "
            f"{self.chunks_added} chunk(s) added, "
            f"{self.chunks_skipped} identical chunk(s) skipped"
        )
        if self.corrupt_skipped:
            text += f", {self.corrupt_skipped} corrupt record(s) skipped"
        if self.runs_copied or self.runs_skipped:
            text += (
                f", {self.runs_copied} run entr(y/ies) copied, "
                f"{self.runs_skipped} skipped"
            )
        return text


def _source_journal_path(source: Path) -> Path:
    return source / "journal.jsonl" if source.is_dir() else source


def merge_cache(
    destination: str | Path,
    sources: Sequence[str | Path],
    *,
    store: ExperimentStore | None = None,
) -> MergeReport:
    """Union the journals (and run entries) of *sources* into *destination*.

    *destination* is a cache directory (created if absent); each source is
    a cache directory or a bare journal file.  Sources are read without
    locks — the scan is the same read-only pass as ``repro verify-cache``
    — while the destination is opened as a live :class:`ExperimentStore`,
    taking its writer lock so a merge never races a run writing the same
    store.  Pass an already-open *store* to merge into it in-process.

    Raises :class:`~repro.exceptions.StoreError` on the first same-key /
    different-payload conflict, naming the key; everything merged before
    the conflict is durably journaled (the union's one fsync runs even
    then), and re-running after resolving the conflict is safe (idempotent
    skip of what already landed).
    """
    destination = Path(destination)
    source_paths = tuple(Path(source) for source in sources)
    owned = store is None
    if store is None:
        store = ExperimentStore(destination)
    try:
        journal = store._journal
        chunks_added = chunks_skipped = corrupt_skipped = 0
        runs_copied = runs_skipped = 0
        with store.batch():  # one fsync for the whole union
            for source in source_paths:
                journal_path = _source_journal_path(source)
                if not journal_path.exists() and not source.exists():
                    raise StoreError(f"merge source {source} does not exist")
                with journal_path.open("rb") if journal_path.exists() else _empty() as handle:
                    for raw in handle:
                        if not raw.endswith(b"\n"):
                            break  # torn source tail: already-handled crash trace
                        record, reason = _classify_line(raw)
                        if reason is not None:
                            corrupt_skipped += 1
                            continue
                        key = str(record["key"])
                        try:
                            existing = journal.get(key) if key in journal else None
                            if existing is None:
                                payload = reencode_payload(record["payload"])
                            elif payloads_equal(existing["payload"], record["payload"]):
                                chunks_skipped += 1
                                continue
                        except StoreError as error:
                            raise StoreError(
                                f"cannot merge chunk {key} from {journal_path}: {error}"
                            ) from error
                        if existing is not None:
                            raise StoreError(
                                f"merge conflict for chunk {key}: {journal_path} carries "
                                f"a different payload than {store.cache_dir} — same key "
                                "must mean same bits; one side is corrupt or was built "
                                "by incompatible code"
                            )
                        metadata = {
                            name: value
                            for name, value in record.items()
                            if name not in _STRUCTURAL_FIELDS
                        }
                        journal.append(key, payload, **metadata)
                        store.stats.chunk_writes += 1
                        chunks_added += 1
                if source.is_dir():
                    copied, skipped = _merge_runs(store, source)
                    runs_copied += copied
                    runs_skipped += skipped
    finally:
        if owned:
            store.close()
    return MergeReport(
        destination=destination,
        sources=source_paths,
        chunks_added=chunks_added,
        chunks_skipped=chunks_skipped,
        corrupt_skipped=corrupt_skipped,
        runs_copied=runs_copied,
        runs_skipped=runs_skipped,
    )


def _merge_runs(store: ExperimentStore, source: Path) -> tuple[int, int]:
    """Union one source's ``runs/`` tier into *store* (copy / skip / error)."""
    runs_dir = source / "runs"
    if not runs_dir.is_dir():
        return 0, 0
    copied = skipped = 0
    destination_dir = store.cache_dir / "runs"
    for entry in sorted(runs_dir.glob("*.json")):
        target = destination_dir / entry.name
        if target.exists():
            if target.read_bytes() == entry.read_bytes():
                skipped += 1
                continue
            raise StoreError(
                f"merge conflict for run entry {entry.stem}: {entry} differs "
                f"from {target} — same run key must mean same result"
            )
        destination_dir.mkdir(parents=True, exist_ok=True)
        temporary = target.with_suffix(".json.tmp")
        shutil.copyfile(entry, temporary)
        temporary.replace(target)
        store.stats.run_writes += 1
        copied += 1
    return copied, skipped


class _empty:
    """Context manager yielding no lines (missing source journal file)."""

    def __enter__(self):
        return iter(())

    def __exit__(self, *exc_info: object) -> None:
        return None
