"""Sharded sweep execution: balanced planning and journal union.

``repro.shard`` breaks sweep execution past one machine (the ROADMAP's
"Distributed sharded execution" item) in two pieces:

* :mod:`repro.shard.planner` — a deterministic balanced k-partition of
  grid units (greedy LPT + bounded refinement) under a cost model fed by
  measured per-configuration event rates (:class:`~repro.shard.planner
  .EventRateHistory`), with a member-count fallback when no history
  exists.  The scheduler consumes it via ``SweepScheduler(shards=K,
  shard_index=i, shard_history=...)``.
* journal union (:func:`repro.store.merge.merge_cache`, the CLI's
  ``repro merge-cache``) — shard caches merge into one store by pure set
  union, because chunk keys exclude every execution knob; the merged
  store is bitwise-identical to a single-process run's.

The CLI surface is ``repro run <EXP> --shards K --shard-index i`` (one
invocation per shard, each with its own ``--cache-dir``, typically one per
machine) and ``repro merge-cache DST SRC...``; a replay against the merged
cache serves every chunk.  Several processes on one machine are
``--jobs``'s business, not this package's.  See DESIGN.md for the
invariants.
"""

from repro.shard.planner import (
    DEFAULT_IMBALANCE_BOUND,
    EventRateHistory,
    ShardPlan,
    config_signature,
    plan_round_robin,
    plan_shards,
    threshold_probe_factor,
    unit_costs,
)

__all__ = [
    "DEFAULT_IMBALANCE_BOUND",
    "EventRateHistory",
    "ShardPlan",
    "config_signature",
    "plan_round_robin",
    "plan_shards",
    "threshold_probe_factor",
    "unit_costs",
]
