"""The persistent, content-addressed experiment result store.

:class:`ExperimentStore` is the durability and caching layer of the
experiment harness.  It owns two tiers under one cache directory:

* **chunk tier** — ``journal.jsonl``, the append-only chunk journal
  (:mod:`repro.store.journal`).  Schedulers journal every executed
  simulation chunk under its content-address (:func:`repro.store.keys
  .chunk_key`) the moment it completes, and consult the journal before
  executing a chunk.  Because chunk keys contain everything that determines
  the chunk's bits — and nothing that doesn't — a killed sweep resumes
  bitwise-identically on the next run, with the already-computed prefix
  served from disk, even under different ``jobs`` / ``sweep_batch``
  settings.
* **run tier** — ``runs/<key>.json``, completed
  :class:`~repro.experiments.config.ExperimentResult` payloads keyed by
  ``(experiment id, canonical config hash, seed root, schema version)``
  (:func:`repro.store.keys.run_key`).  ``--resume`` serves finished
  experiments straight from this tier without touching the simulators.

Run-tier writes are atomic (temp file + ``os.replace``), chunk-tier writes
are flushed per record and fsynced once per :meth:`ExperimentStore.batch`
scope (one per mega-batch), and all invalidation is key-based (see
:mod:`repro.store.keys`): nothing is mutated in place, incompatible entries
are simply never addressed again.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, ContextManager

from repro.exceptions import ExperimentError, StoreError
from repro.lv.ensemble import LVEnsembleResult
from repro.store.journal import ChunkJournal
from repro.store.serialize import ensemble_from_payload, ensemble_to_payload

if TYPE_CHECKING:  # deferred at runtime: repro.experiments imports this package
    from repro.experiments.config import ExperimentResult

__all__ = ["CacheStats", "ExperimentStore"]

#: Cache directories with a live store in *this* process.  POSIX record
#: locks (`fcntl.lockf`) never conflict within one process, so in-process
#: exclusivity needs its own registry.
_LIVE_DIRS: set[Path] = set()


@dataclass
class CacheStats:
    """Hit/miss accounting of one store session (for reports and tests)."""

    chunk_hits: int = 0
    chunk_misses: int = 0
    chunk_writes: int = 0
    run_hits: int = 0
    run_writes: int = 0
    #: Simulated events served from the journal instead of recomputed.
    events_replayed: int = 0
    #: Failed journal appends recovered by truncate-and-retry.
    journal_repairs: int = 0
    #: Corrupt journal records detected and moved to the quarantine sidecar.
    chunks_quarantined: int = 0

    def summary(self) -> str:
        text = (
            f"{self.chunk_hits} chunk hit(s), {self.chunk_misses} miss(es), "
            f"{self.chunk_writes} journaled, {self.run_hits} run(s) from cache, "
            f"{self.events_replayed} event(s) replayed"
        )
        if self.journal_repairs:
            text += f", {self.journal_repairs} journal repair(s)"
        if self.chunks_quarantined:
            text += f", {self.chunks_quarantined} chunk(s) quarantined"
        return text


@dataclass
class ExperimentStore:
    """Content-addressed chunk + run cache rooted at *cache_dir*.

    Examples
    --------
    >>> import tempfile
    >>> from repro.experiments.scheduler import SweepScheduler
    >>> from repro.experiments.sweep import SweepTask
    >>> from repro.lv.params import LVParams
    >>> from repro.lv.state import LVState
    >>> params = LVParams.self_destructive(beta=1.0, delta=1.0, alpha=1.0)
    >>> with tempfile.TemporaryDirectory() as root:
    ...     store = ExperimentStore(root)
    ...     scheduler = SweepScheduler(store=store)
    ...     first = scheduler.run_sweep([SweepTask(params, LVState(20, 12), 40, seed=7)])
    ...     again = scheduler.run_sweep([SweepTask(params, LVState(20, 12), 40, seed=7)])
    ...     (store.stats.chunk_writes, store.stats.chunk_hits)
    (1, 1)
    """

    cache_dir: Path
    stats: CacheStats = field(default_factory=CacheStats, compare=False)

    def __post_init__(self) -> None:
        self.cache_dir = Path(self.cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._lock_handle = None
        self._locked_dir: Path | None = None
        self._acquire_writer_lock()
        self._journal = ChunkJournal(self.cache_dir / "journal.jsonl")
        self._runs_dir = self.cache_dir / "runs"

    def _acquire_writer_lock(self) -> None:
        """Enforce one live store per cache directory.

        Two writers appending to one journal would truncate or interleave
        each other's records; failing fast at open — before any simulation
        work — is the safe answer.  Cross-process exclusion uses an
        advisory ``fcntl.lockf`` record lock (process-owned, so forked
        worker-pool children never inherit it and a warm pool cannot pin
        the lock after :meth:`close`); in-process exclusion uses the
        :data:`_LIVE_DIRS` registry because record locks never conflict
        within one process.  On platforms without ``fcntl`` only the
        in-process guard applies.
        """
        self._locked_dir = self.cache_dir.resolve()
        if self._locked_dir in _LIVE_DIRS:
            self._locked_dir = None
            raise StoreError(
                f"cache directory {self.cache_dir} is already in use by a "
                "live ExperimentStore in this process; close it first or "
                "use a separate cache directory"
            )
        try:
            import fcntl
        except ImportError:  # pragma: no cover - non-POSIX platforms
            fcntl = None
        if fcntl is not None:
            handle = (self.cache_dir / "lock").open("a")
            try:
                fcntl.lockf(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                handle.close()
                self._locked_dir = None
                raise StoreError(
                    f"cache directory {self.cache_dir} is already in use by "
                    "another process; concurrent writers would corrupt the "
                    "chunk journal — wait for the other run or use a "
                    "separate --cache-dir"
                ) from None
            self._lock_handle = handle
        _LIVE_DIRS.add(self._locked_dir)

    # ------------------------------------------------------------------
    # Chunk tier
    # ------------------------------------------------------------------
    @property
    def journal_path(self) -> Path:
        return self._journal.path

    def _note_journal_health(self) -> None:
        self.stats.chunks_quarantined = self._journal.healed_count

    def get_chunk(self, key: str) -> LVEnsembleResult | None:
        """The journaled ensemble chunk for *key*, or ``None`` on a miss."""
        record = self._journal.get(key)
        self._note_journal_health()
        if record is None:
            self.stats.chunk_misses += 1
            return None
        result = ensemble_from_payload(record["payload"])
        self.stats.chunk_hits += 1
        self.stats.events_replayed += int(result.total_events.sum())
        return result

    def batch(self) -> ContextManager[None]:
        """One fsync, at the scope's exit, for every chunk put inside it
        (:meth:`ChunkJournal.batch`)."""
        return self._journal.batch()

    def put_chunk(self, key: str, result: LVEnsembleResult, *, label: str = "") -> None:
        """Journal one completed chunk, durable before this returns or inside
        :meth:`batch` when the scope exits.

        A failed append (torn write, full disk blip) is retried once after
        :meth:`ChunkJournal.repair` re-indexes the file and truncates any
        half-written bytes — simulation results are too expensive to drop
        over one bad write, and a repeat failure still propagates.
        """
        payload = ensemble_to_payload(result)
        try:
            self._journal.append(
                key, payload, label=label, num_replicates=result.num_replicates
            )
        except StoreError:
            self._journal.repair()
            self.stats.journal_repairs += 1
            self._journal.append(
                key, payload, label=label, num_replicates=result.num_replicates
            )
        self.stats.chunk_writes += 1
        self._note_journal_health()

    def __contains__(self, key: str) -> bool:
        return key in self._journal

    def __len__(self) -> int:
        return len(self._journal)

    # ------------------------------------------------------------------
    # Run tier
    # ------------------------------------------------------------------
    def _run_path(self, key: str) -> Path:
        return self._runs_dir / f"{key}.json"

    def get_run(self, key: str) -> "ExperimentResult | None":
        """A completed experiment result, or ``None`` when absent/corrupt."""
        from repro.experiments.config import ExperimentResult

        path = self._run_path(key)
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
            if not isinstance(payload, dict):
                raise StoreError(f"unexpected run-entry format in {path}")
            result = ExperimentResult.from_dict(payload)
        except (json.JSONDecodeError, StoreError, ExperimentError, TypeError, KeyError):
            # A torn or incompatible run entry is a cache miss, not a crash;
            # the run recomputes and overwrites it atomically.
            return None
        self.stats.run_hits += 1
        return result

    def put_run(self, key: str, result: "ExperimentResult") -> None:
        """Atomically persist one completed experiment result."""
        self._runs_dir.mkdir(parents=True, exist_ok=True)
        path = self._run_path(key)
        temporary = path.with_suffix(".json.tmp")
        # No sort_keys: row dictionaries carry the table's column order, which
        # must survive the round trip so resumed runs render identically.
        temporary.write_text(
            json.dumps(result.to_dict(), indent=2)  # repro: noqa-RC203: rows keep column order
        )
        os.replace(temporary, path)
        self.stats.run_writes += 1

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the journal and release the cache directory's writer lock."""
        self._journal.close()
        if self._lock_handle is not None:
            self._lock_handle.close()  # closing the fd releases the record lock
            self._lock_handle = None
        if self._locked_dir is not None:
            _LIVE_DIRS.discard(self._locked_dir)
            self._locked_dir = None

    def __enter__(self) -> "ExperimentStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def describe(self) -> str:
        """One-line summary for CLI output."""
        return f"result store at {self.cache_dir} ({len(self._journal)} journaled chunk(s))"
