"""Persistent, content-addressed experiment result store with resume support.

``repro.store`` is the durability/caching layer of the experiment harness
(the ROADMAP's "caching" pillar).  It converts the experiment surface from
recompute-always to cache-first:

* every executed simulation chunk is journaled — one checksummed line,
  arrays as compressed bytes — under a content-address the moment it
  completes (:mod:`repro.store.journal`, :mod:`repro.store.serialize`,
  :mod:`repro.store.keys`),
* schedulers configured with a store consult the journal before simulating,
  so an interrupted sweep — killed mid-wave by SIGTERM, Ctrl-C, or a crash —
  resumes **bitwise-identically** on the next invocation, replaying the
  finished prefix from disk (:mod:`repro.store.store`), and
* completed experiment runs are cached whole under ``(experiment id,
  canonical config hash, seed root, schema version)`` so ``--resume`` skips
  finished experiments entirely.

The CLI surface is ``--cache-dir`` / ``--resume`` / ``--no-cache`` on
``python -m repro run`` (and ``estimate``); see DESIGN.md for the keying
and invalidation rules.
"""

from repro.store.journal import (
    ChunkJournal,
    JournalIssue,
    JournalVerifyReport,
    iter_intact_records,
    quarantine_path,
    verify_journal,
)
from repro.store.merge import MergeReport, merge_cache
from repro.store.keys import (
    RESULT_SCHEMA_VERSION,
    chunk_key,
    config_hash,
    run_key,
    scheduler_fingerprint,
)
from repro.store.serialize import ensemble_from_payload, ensemble_to_payload
from repro.store.store import CacheStats, ExperimentStore

__all__ = [
    "RESULT_SCHEMA_VERSION",
    "CacheStats",
    "ChunkJournal",
    "ExperimentStore",
    "JournalIssue",
    "JournalVerifyReport",
    "MergeReport",
    "chunk_key",
    "config_hash",
    "ensemble_from_payload",
    "ensemble_to_payload",
    "iter_intact_records",
    "merge_cache",
    "quarantine_path",
    "run_key",
    "scheduler_fingerprint",
    "verify_journal",
]
