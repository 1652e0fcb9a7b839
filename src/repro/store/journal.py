"""Append-only chunk journal: the store's durability layer.

Completed simulation chunks are journaled *as they finish*: one line per
chunk, carrying the chunk's content-address key, a little provenance
metadata, and the full serialised payload.  The file is append-only and
flushed after every record, which is fsynced at once or at the exit of its
:meth:`ChunkJournal.batch` scope (one per mega-batch), so a run killed
mid-sweep (SIGTERM, Ctrl-C, OOM) loses at most the work in flight —
everything journaled before the kill replays from disk on the next run.

Each record is one line::

    <SHA-256 of BODY, 64 lowercase hex digits> <BODY>\n

where ``BODY`` is the canonical JSON (sorted keys, compact separators) of
``{"key": ..., <metadata>..., "payload": ...}``.  The checksum covers the
exact bytes on disk, so verifying a record hashes ``BODY`` once and never
re-serialises it.  Lines that start with ``{`` are the repro 3.1 form — the
record's JSON with a ``checksum`` field holding the SHA-256 of its
canonical JSON minus that field (:func:`record_checksum`) — and are still
read and verified that way; 3.1 records without a checksum field are
accepted as they are.  Writers only write the prefixed form.

Crash tolerance is structural rather than transactional:

* a record becomes visible only once its trailing newline is on disk, so a
  reader never sees a half-record as valid;
* every record's checksum is verified, so silent mid-file corruption (bit
  rot, partial overwrite, hand editing) is detected, not replayed;
* on open, the journal scans forward and indexes ``key -> (offset, length)``
  per intact line.  A corrupt line (unparseable, missing key, or checksum
  mismatch) is remembered for quarantine and the scan *continues*: intact
  records after the corruption stay indexed and are never thrown away;
* before the first append of a session, corrupt lines are quarantined to the
  ``journal.quarantine.jsonl`` sidecar and the journal is atomically
  rewritten with only intact lines (self-healing), and any truncated tail
  left by a kill is cut off so new records never concatenate onto a partial
  line.  A quarantined chunk simply stops being addressable, so the next
  run recomputes exactly that chunk — and, results being bitwise
  deterministic, re-journals the same bytes a fault-free run would have.

Replaying is lazy: the open-time scan keeps only offsets, and each lookup
re-reads its line and verifies its checksum again before parsing it, so a
large journal costs one sequential read to index and one seek per cache
hit.

:func:`verify_journal` performs the same integrity scan read-only — it
never heals, truncates, or quarantines — for offline auditing
(``repro verify-cache``).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.exceptions import StoreError
from repro.store.keys import canonical_json, digest

__all__ = [
    "ChunkJournal",
    "JournalIssue",
    "JournalVerifyReport",
    "iter_intact_records",
    "verify_journal",
]

#: Suffix of the quarantine sidecar kept next to a journal file.
QUARANTINE_SUFFIX = ".quarantine.jsonl"


def quarantine_path(journal_path: str | Path) -> Path:
    """The quarantine sidecar path for *journal_path*."""
    journal_path = Path(journal_path)
    return journal_path.with_name(journal_path.stem + QUARANTINE_SUFFIX)


#: Width of a record line's checksum prefix: a SHA-256 digest in hex.
_CHECKSUM_WIDTH = 64


def record_checksum(record: dict[str, Any]) -> str:
    """SHA-256 hex digest of *record*'s canonical JSON, checksum field excluded.

    The checksum of the repro 3.1 record form; only legacy lines use it.
    """
    body = {name: value for name, value in record.items() if name != "checksum"}
    return digest(body)


def _encode_record(record: dict[str, Any]) -> bytes:
    """One journal line: the checksum prefix, a space, the body, a newline."""
    body = canonical_json(record).encode("utf-8")
    return hashlib.sha256(body).hexdigest().encode("ascii") + b" " + body + b"\n"


def _classify_line(raw: bytes) -> tuple[dict[str, Any] | None, str | None]:
    """Parse one complete journal line: ``(record, None)`` or ``(maybe, reason)``.

    On failure the first element is whatever partial information could be
    recovered (the parsed record when only the checksum failed, else
    ``None``) so quarantine entries can preserve the chunk key.
    """
    if raw.startswith(b"{"):
        return _classify_legacy_line(raw)
    prefix, separator = raw[:_CHECKSUM_WIDTH], raw[_CHECKSUM_WIDTH : _CHECKSUM_WIDTH + 1]
    if separator != b" ":
        return None, "unparseable record line (no checksum prefix)"
    body = raw[_CHECKSUM_WIDTH + 1 : -1]
    record: dict[str, Any] | None = None
    problem: str | None = None
    try:
        parsed = json.loads(body)
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        problem = f"unparseable JSON: {error}"
    else:
        if isinstance(parsed, dict) and "key" in parsed:
            record = parsed
        else:
            problem = "not a journal record (missing key field)"
    if hashlib.sha256(body).hexdigest().encode("ascii") != prefix:
        return record, "checksum mismatch"
    return record, problem


def _classify_legacy_line(raw: bytes) -> tuple[dict[str, Any] | None, str | None]:
    """:func:`_classify_line` for a repro 3.1 line (the record's JSON alone)."""
    try:
        record = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        return None, f"unparseable JSON: {error}"
    if not isinstance(record, dict) or "key" not in record:
        return None, "not a journal record (missing key field)"
    if "checksum" in record and record["checksum"] != record_checksum(record):
        return record, "checksum mismatch"
    # Records written before checksums existed carry no checksum field and
    # are accepted as-is: the torn-tail rule still protects them.
    return record, None


@dataclass(frozen=True)
class JournalIssue:
    """One corrupt record found by an integrity scan."""

    offset: int
    length: int
    reason: str
    key: str | None


@dataclass(frozen=True)
class JournalVerifyReport:
    """Result of a read-only journal integrity scan (:func:`verify_journal`)."""

    path: Path
    intact_records: int
    issues: tuple[JournalIssue, ...]
    torn_tail_bytes: int
    quarantined_records: int

    @property
    def ok(self) -> bool:
        """No corrupt records.

        A torn tail or previously quarantined records do not fail the
        check: both are the already-handled traces of an interrupted or
        healed run, and the next writing session recovers/recomputes them
        automatically.
        """
        return not self.issues

    def summary(self) -> str:
        parts = [f"{self.intact_records} intact record(s)"]
        if self.issues:
            parts.append(f"{len(self.issues)} corrupt record(s)")
        if self.torn_tail_bytes:
            parts.append(f"torn tail of {self.torn_tail_bytes} byte(s)")
        if self.quarantined_records:
            parts.append(f"{self.quarantined_records} previously quarantined record(s)")
        return ", ".join(parts)


def _count_sidecar_records(path: Path) -> int:
    if not path.exists():
        return 0
    with path.open("rb") as handle:
        return sum(1 for raw in handle if raw.endswith(b"\n"))


def verify_journal(path: str | Path) -> JournalVerifyReport:
    """Read-only integrity scan of the journal at *path*.

    Safe to run against a journal another process is writing (it takes no
    locks and writes nothing); a concurrent append can at most show up as a
    torn tail.  A missing journal verifies as empty and ok.
    """
    path = Path(path)
    intact = 0
    issues: list[JournalIssue] = []
    torn_tail = 0
    if path.exists():
        with path.open("rb") as handle:
            offset = 0
            for raw in handle:
                if not raw.endswith(b"\n"):
                    torn_tail = len(raw)
                    break
                record, reason = _classify_line(raw)
                if reason is None:
                    intact += 1
                else:
                    key = record.get("key") if isinstance(record, dict) else None
                    issues.append(
                        JournalIssue(
                            offset=offset,
                            length=len(raw),
                            reason=reason,
                            key=None if key is None else str(key),
                        )
                    )
                offset += len(raw)
    return JournalVerifyReport(
        path=path,
        intact_records=intact,
        issues=tuple(issues),
        torn_tail_bytes=torn_tail,
        quarantined_records=_count_sidecar_records(quarantine_path(path)),
    )


def iter_intact_records(path: str | Path) -> Iterator[dict[str, Any]]:
    """Yield every intact record of the journal at *path*, in file order.

    The read-only sibling of :class:`ChunkJournal`'s open-time scan: takes
    no locks, writes nothing, skips complete-but-corrupt lines, and stops
    at a torn tail — so it is safe against a journal another process is
    appending to.  A missing journal yields nothing.  Used by consumers
    that want the raw records rather than an addressable index: journal
    union (:mod:`repro.store.merge`) and event-rate harvesting
    (:class:`repro.shard.planner.EventRateHistory`).
    """
    path = Path(path)
    if not path.exists():
        return
    with path.open("rb") as handle:
        for raw in handle:
            if not raw.endswith(b"\n"):
                return  # torn tail: nothing past it is framed
            record, reason = _classify_line(raw)
            if reason is None:
                yield record


class ChunkJournal:
    """Offset-indexed append-only file of completed chunk records, one per line."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._index: dict[str, tuple[int, int]] = {}
        #: End of the last complete (intact *or* corrupt) line: where the
        #: next append goes once corrupt lines are healed away.
        self._valid_end = 0
        #: Corrupt complete lines awaiting quarantine, in offset order.
        self._corrupt: list[JournalIssue] = []
        #: Times each key has been appended (on disk, in the quarantine
        #: sidecar, or attempted this session) — the attempt number handed
        #: to the fault-injection layer so injected journal faults never
        #: refire on the recovery append.
        self._appearances: dict[str, int] = {}
        #: Corrupt records quarantined by this instance (store metering).
        self.healed_count = 0
        self._appender: io.BufferedWriter | None = None
        #: Inside :meth:`batch`, appends leave their fsync to the scope's exit.
        self._batching = False
        #: Records flushed to the OS but not yet fsynced.
        self._unsynced = False
        self._scan()

    # ------------------------------------------------------------------
    # Index maintenance
    # ------------------------------------------------------------------
    def _scan(self) -> None:
        """Index every intact record; remember corrupt lines for quarantine.

        Unlike a torn tail — which ends the scan, because everything past a
        half-written line is unframed — a complete-but-corrupt line is
        recorded and *skipped*: the records after it are intact JSONL and
        keep their entries, so one flipped bit never costs the rest of the
        journal.
        """
        self._index.clear()
        self._corrupt = []
        self._valid_end = 0
        disk_appearances: dict[str, int] = {}
        if self.path.exists():
            with self.path.open("rb") as handle:
                offset = 0
                for raw in handle:
                    if not raw.endswith(b"\n"):
                        break  # truncated tail: a record killed mid-write
                    record, reason = _classify_line(raw)
                    if reason is None:
                        key = str(record["key"])
                        self._index[key] = (offset, len(raw))
                        disk_appearances[key] = disk_appearances.get(key, 0) + 1
                    else:
                        key = record.get("key") if isinstance(record, dict) else None
                        if key is not None:
                            key = str(key)
                            disk_appearances[key] = disk_appearances.get(key, 0) + 1
                        self._corrupt.append(
                            JournalIssue(
                                offset=offset, length=len(raw), reason=reason, key=key
                            )
                        )
                    offset += len(raw)
                    self._valid_end = offset
        sidecar = quarantine_path(self.path)
        if sidecar.exists():
            with sidecar.open("rb") as handle:
                for raw in handle:
                    if not raw.endswith(b"\n"):
                        break
                    try:
                        entry = json.loads(raw)
                        key = entry.get("key")
                    except (json.JSONDecodeError, UnicodeDecodeError, AttributeError):
                        continue
                    if key is not None:
                        key = str(key)
                        disk_appearances[key] = disk_appearances.get(key, 0) + 1
        # Merge rather than replace: in-session append attempts (including
        # torn ones whose bytes a re-scan cannot frame) must keep counting,
        # or an injected fault keyed on the attempt number could refire on
        # the very retry meant to recover from it.
        for key, count in disk_appearances.items():
            self._appearances[key] = max(self._appearances.get(key, 0), count)

    def _heal(self) -> None:
        """Quarantine corrupt lines and atomically rewrite the intact ones.

        Runs only on the append path (the writer owns the file; read-only
        consumers never mutate it).  Corrupt lines go to the sidecar with
        their offset and reason, then the journal is rebuilt from the
        intact lines in offset order via temp-file + ``os.replace`` so a
        kill mid-heal leaves either the old file or the new one, never a
        mix.  Quarantined keys drop out of the index, so their chunks are
        recomputed (bitwise-identically) on the next lookup.
        """
        if not self._corrupt:
            return
        with self.path.open("rb") as handle:
            content = handle.read()
        sidecar = quarantine_path(self.path)
        sidecar.parent.mkdir(parents=True, exist_ok=True)
        with sidecar.open("ab") as side:
            for issue in self._corrupt:
                raw = content[issue.offset : issue.offset + issue.length]
                entry = {
                    "offset": issue.offset,
                    "reason": issue.reason,
                    "key": issue.key,
                    "raw": raw.decode("utf-8", errors="replace"),
                }
                side.write(
                    (json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n").encode(
                        "utf-8"
                    )
                )
            side.flush()
            os.fsync(side.fileno())
        corrupt_spans = {(issue.offset, issue.length) for issue in self._corrupt}
        temporary = self.path.with_suffix(self.path.suffix + ".tmp")
        with temporary.open("wb") as rebuilt:
            cursor = 0
            end = self._valid_end  # complete lines only; drops any torn tail
            while cursor < end:
                newline = content.index(b"\n", cursor, end)
                length = newline + 1 - cursor
                if (cursor, length) not in corrupt_spans:
                    rebuilt.write(content[cursor : cursor + length])
                cursor += length
            rebuilt.flush()
            os.fsync(rebuilt.fileno())
        os.replace(temporary, self.path)
        self.healed_count += len(self._corrupt)
        self._scan()  # offsets moved; corrupt list is now empty

    def _open_appender(self) -> io.BufferedWriter:
        if self._appender is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if self.path.exists() and self.path.stat().st_size != self._valid_end:
                # The file changed since our scan (another store instance
                # appended, or a kill left a torn tail): re-index from disk
                # so we never truncate intact records on stale knowledge.
                self._scan()
            self._heal()
            if self.path.exists() and self.path.stat().st_size > self._valid_end:
                # Only a genuinely torn tail remains past the complete
                # lines; cut it off so the next record starts on a line
                # boundary.
                with self.path.open("r+b") as handle:
                    handle.truncate(self._valid_end)
            self._appender = self.path.open("ab")
        return self._appender

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def keys(self) -> Iterator[str]:
        return iter(self._index)

    def appearances(self, key: str) -> int:
        """How many times *key* has been appended (or append was attempted)."""
        return self._appearances.get(key, 0)

    def get(self, key: str) -> dict[str, Any] | None:
        """The journaled record for *key*, or ``None``.

        Lookups re-verify the record's checksum, so corruption that arrives
        *after* the open-time scan (or survives in a record the scan could
        not vet) is still caught: the journal re-scans — which flags the
        record for quarantine at the next append — and the lookup reports a
        miss instead of replaying damaged bytes.
        """
        for _ in range(2):  # original view, then once more after a re-scan
            location = self._index.get(key)
            if location is None:
                return None
            offset, length = location
            with self.path.open("rb") as handle:
                handle.seek(offset)
                raw = handle.read(length)
            record, reason = _classify_line(raw) if raw.endswith(b"\n") else (None, "torn")
            if reason is None:
                return record
            self._scan()
        raise StoreError(
            f"journal record for {key} at offset {offset} is corrupt after re-scan: {reason}"
        )

    def append(self, key: str, payload: dict[str, Any], **metadata: Any) -> None:
        """Journal one completed chunk (last write wins per key), durable when
        this returns or, inside :meth:`batch`, when the scope exits."""
        from repro.faults import InjectedTornWrite, journal_fault_action

        encoded = _encode_record({"key": key, **metadata, "payload": payload})
        action = journal_fault_action(key, self._appearances.get(key, 0))
        handle = self._open_appender()
        offset = self._valid_end
        self._appearances[key] = self._appearances.get(key, 0) + 1
        if action == "torn":
            # Simulate a kill mid-write: half the record reaches disk, no
            # newline, and the writer dies (here: raises).  Close (and sync)
            # the appender so the retry's _open_appender re-scans and
            # truncates the torn bytes instead of concatenating onto them.
            handle.write(encoded[: max(1, len(encoded) // 2)])
            handle.flush()
            self._unsynced = True
            self.close()
            raise InjectedTornWrite(
                f"injected torn append for chunk {key} (fault plan)"
            )
        if action == "corrupt":
            encoded = _corrupt_payload_bytes(encoded)
        handle.write(encoded)
        handle.flush()
        self._unsynced = True
        if not self._batching:
            self._sync()
        self._index[key] = (offset, len(encoded))
        self._valid_end = offset + len(encoded)

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Make every append in the scope durable with one fsync at its exit.

        Appends are still written, flushed and indexed as they happen.  The
        exit fsyncs once if anything was appended, also when the body raises
        (``KeyboardInterrupt`` included); inner scopes leave it to the outer.
        """
        if self._batching:
            yield
            return
        self._batching = True
        try:
            yield
        finally:
            self._batching = False
            self._sync()

    def _sync(self) -> None:
        """fsync the records flushed since the last fsync, if any."""
        if self._unsynced and self._appender is not None:
            os.fsync(self._appender.fileno())
        self._unsynced = False

    def repair(self) -> None:
        """Recover from a failed append: drop the writer and re-index.

        The next append re-opens the appender, which truncates any torn
        bytes the failure left behind and heals newly detected corruption.
        """
        self.close()
        self._scan()

    def close(self) -> None:
        if self._appender is not None:
            self._sync()
            self._appender.close()
            self._appender = None

    def __enter__(self) -> "ChunkJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _corrupt_payload_bytes(encoded: bytes) -> bytes:
    """Flip one payload digit in an encoded record (fault injection only).

    The damage is deliberately *quiet*: the line stays complete, its body
    stays syntactically valid JSON with its key intact — only the checksum
    no longer matches — which models bit rot rather than a torn write and
    exercises the quarantine path end to end (detection, sidecar entry
    preserving the key, recompute of exactly that chunk).  Digits are
    swapped for digits (never ``0``, to avoid minting invalid leading
    zeros), so the record's framing is untouched.
    """
    marker = encoded.find(b'"payload"')
    start = marker if marker >= 0 else 0
    for position in range(start, len(encoded)):
        byte = encoded[position]
        if ord("0") <= byte <= ord("9"):
            replacement = ord("1") if byte != ord("1") else ord("2")
            return encoded[:position] + bytes((replacement,)) + encoded[position + 1 :]
    return encoded  # no digit to flip: leave the record alone
