"""Balanced shard planning: partition a sweep grid into K cost-balanced shards.

The sweep engine's determinism contract makes K-way sharding free
correctness-wise: every grid unit (a :class:`~repro.experiments.sweep
.SweepTask`, or one :class:`~repro.experiments.scheduler.ThresholdRequest`'s
whole bisection search) is bitwise-reproducible from its own seed alone, and
store chunk keys exclude every execution knob — so the union of K shard
journals is exactly the single-process run's journal, whatever the
partition.  What the partition *does* determine is wall-clock balance, and
that is this module's job:

* :func:`plan_shards` — deterministic balanced k-partition of unit costs:
  a greedy LPT (longest-processing-time-first) baseline followed by a local
  refinement pass (single-unit moves and pairwise swaps between the most-
  and less-loaded shards) that runs until the cost imbalance
  (``max shard cost / mean shard cost``) meets a configurable bound or no
  improving move remains.  The same template as balanced districting under
  cost bounds: a fast constructive heuristic plus bounded local search.
* :class:`EventRateHistory` — the cost model's data: measured
  events-per-replicate rates per *configuration signature*
  (:func:`config_signature`), harvested from any store journal with a
  read-only scan (:meth:`EventRateHistory.from_journal`) or from the
  ``shard_planner`` section of a committed benchmark baseline
  (:meth:`EventRateHistory.from_benchmark`).  Heavy-tailed grids (T1R5
  style: event counts spanning orders of magnitude across population
  sizes) are exactly where measured rates beat member counts.
* :func:`unit_costs` — per-unit cost estimates: ``rate × replicate budget``
  where history covers a unit's signature, and a deterministic
  member-count fallback (scaled to the mean known rate so mixed grids stay
  comparable) where it does not.  With no history at all, every unit costs
  its replicate budget — the documented deterministic fallback.

Every function here is a pure function of its inputs; the planner must
produce the *identical* partition in every shard process, because each
process independently computes the plan and executes only its own share.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.exceptions import ExperimentError, StoreError
from repro.lv.params import LVParams
from repro.scenario.spec import DEFAULT_SCENARIO
from repro.store.journal import iter_intact_records
from repro.store.keys import digest, params_payload
from repro.store.serialize import decode_arrays

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

#: Default cost-imbalance bound of the refinement pass: planned shards whose
#: ``max shard cost / mean shard cost`` exceeds this keep refining while an
#: improving move exists.  1.25 matches the acceptance gate for the
#: heavy-tailed T1R5 grid with measured history.
DEFAULT_IMBALANCE_BOUND = 1.25


def config_signature(
    params: LVParams, total_population: int, scenario: str = DEFAULT_SCENARIO
) -> str:
    """Stable identity of one grid configuration for cost-history lookup.

    Deliberately much coarser than a chunk key: replicate counts, seeds,
    event budgets, and the exact split between species are all excluded, so
    every chunk ever journaled for a ``(params, n)`` configuration —
    whatever its gap or batch decomposition — contributes to a single
    per-configuration event-rate estimate.  Cost prediction only needs the
    drivers of per-replicate work: the rate constants, the total population
    over every species, and the scenario family.  The family is folded in
    only when it is not ``"lv2"``, so lv2 signatures match the ones already
    in journals and in ``BENCH_sweep.json``'s ``shard_planner.history``.
    """
    return _signature(params_payload(params), total_population, scenario)


def _signature(rates: Mapping[str, Any], total_population: int, scenario: str) -> str:
    """:func:`config_signature` over an already serialised ``params`` payload."""
    fields: dict[str, Any] = {"params": rates, "population": int(total_population)}
    if scenario != DEFAULT_SCENARIO:
        fields["scenario"] = scenario
    return digest(fields)


@dataclass
class EventRateHistory:
    """Measured events-per-replicate rates keyed by configuration signature.

    The planner's cost model: ``rate(signature)`` is total journaled events
    divided by total journaled replicates for that configuration, or
    ``None`` when the configuration was never seen.  Instances accumulate
    (:meth:`record`, :meth:`merge`), so history can be pooled from several
    journals and a benchmark baseline.
    """

    events: dict[str, float] = field(default_factory=dict)
    replicates: dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.events)

    def record(self, signature: str, events: float, replicates: int) -> None:
        """Fold one observation (chunk or aggregate) into the history."""
        if replicates <= 0:
            return
        self.events[signature] = self.events.get(signature, 0.0) + float(events)
        self.replicates[signature] = self.replicates.get(signature, 0) + int(replicates)

    def rate(self, signature: str) -> float | None:
        """Mean simulated events per replicate, or ``None`` when unseen."""
        replicates = self.replicates.get(signature, 0)
        if replicates <= 0:
            return None
        return self.events[signature] / replicates

    def merge(self, other: "EventRateHistory") -> None:
        """Accumulate *other*'s observations into this history."""
        for signature, events in other.events.items():
            self.record(signature, events, other.replicates.get(signature, 0))

    # ------------------------------------------------------------------
    # Sources
    # ------------------------------------------------------------------
    @classmethod
    def from_journal(cls, path: str | Path) -> "EventRateHistory":
        """Harvest rates from a store journal with a read-only scan.

        Takes no locks and never mutates the journal (same contract as
        :func:`repro.store.journal.verify_journal`), so it is safe against
        a cache directory another process is writing — and against the very
        directory a shard run is about to open, which matters because every
        shard process must derive the identical plan from the same shared
        history input.  Corrupt records and torn tails are simply skipped.
        Accepts either the journal file or its cache directory.
        """
        path = Path(path)
        if path.is_dir():
            path = path / "journal.jsonl"
        history = cls()
        for record in iter_intact_records(path):
            payload = record.get("payload")
            if not isinstance(payload, dict):
                continue
            try:
                # Generic payloads carry every species' count and their
                # family; lv2 payloads only the two-species state.
                counts = payload.get("initial_counts") or payload["initial_state"]
                signature = _signature(
                    payload["params"],
                    sum(int(count) for count in counts),
                    payload.get("scenario", DEFAULT_SCENARIO),
                )
                events = decode_arrays(payload["arrays"])["total_events"]
                history.record(signature, float(events.sum()), len(events))
            except (KeyError, TypeError, ValueError, StoreError):
                continue  # not an ensemble payload; ignore for costing
        return history

    @classmethod
    def from_benchmark(cls, path: str | Path) -> "EventRateHistory":
        """Load the per-configuration rates committed in a benchmark baseline.

        Reads the ``shard_planner.history`` section written by
        ``benchmarks/run_benchmarks.py`` (schema >= 5), so a fresh machine
        can plan balanced shards from the committed ``BENCH_sweep.json``
        before it has journaled anything locally.
        """
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise StoreError(f"cannot read benchmark history from {path}: {error}")
        section = payload.get("shard_planner") if isinstance(payload, dict) else None
        rates = section.get("history") if isinstance(section, dict) else None
        if not isinstance(rates, dict):
            raise StoreError(
                f"{path} carries no shard_planner.history section (benchmark "
                "schema >= 5); regenerate it with benchmarks/run_benchmarks.py"
            )
        history = cls()
        for signature, entry in rates.items():
            history.record(str(signature), float(entry["events"]), int(entry["replicates"]))
        return history

    @classmethod
    def load(cls, path: str | Path) -> "EventRateHistory":
        """Dispatch on *path*: cache dir / journal file → journal scan,
        ``.json`` file → benchmark baseline."""
        path = Path(path)
        if path.is_file() and path.suffix == ".json":
            return cls.from_benchmark(path)
        return cls.from_journal(path)

    def to_payload(self) -> dict[str, Any]:
        """JSON payload for the benchmark baseline (``shard_planner.history``)."""
        return {
            signature: {
                "events": self.events[signature],
                "replicates": self.replicates[signature],
            }
            for signature in sorted(self.events)
        }


def unit_costs(
    signatures: Sequence[str],
    budgets: Sequence[int],
    history: "EventRateHistory | Mapping[str, float] | None" = None,
) -> list[float]:
    """Per-unit execution-cost estimates for :func:`plan_shards`.

    A unit whose *signature* appears in *history* costs
    ``rate × budget`` (its replicate budget scaled by the measured
    events-per-replicate rate); units without history fall back to their
    budget scaled by the **mean known rate**, so mixed grids keep the two
    populations comparable.  With no history at all, every unit costs its
    budget — the deterministic member-count fallback.
    """
    if len(signatures) != len(budgets):
        raise ExperimentError(
            f"got {len(signatures)} signatures for {len(budgets)} budgets"
        )
    if history is None:
        rates: list[float | None] = [None] * len(signatures)
    elif isinstance(history, EventRateHistory):
        rates = [history.rate(signature) for signature in signatures]
    else:
        rates = [history.get(signature) for signature in signatures]
    known = [rate for rate in rates if rate is not None and rate > 0.0]
    fallback = (sum(known) / len(known)) if known else 1.0
    costs = []
    for rate, budget in zip(rates, budgets):
        if budget <= 0:
            raise ExperimentError(f"unit budgets must be positive, got {budget}")
        effective = rate if rate is not None and rate > 0.0 else fallback
        costs.append(float(effective) * float(budget))
    return costs


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic assignment of grid units to shards.

    ``assignment[i]`` is the shard index of unit ``i``; :attr:`imbalance`
    is ``max shard cost / mean shard cost`` (1.0 is perfect balance), with
    the mean taken over all *shards* — an empty shard therefore counts
    against balance, as it should.
    """

    shards: int
    assignment: tuple[int, ...]
    costs: tuple[float, ...]

    @property
    def shard_costs(self) -> tuple[float, ...]:
        loads = [0.0] * self.shards
        for unit, shard in enumerate(self.assignment):
            loads[shard] += self.costs[unit]
        return tuple(loads)

    @property
    def imbalance(self) -> float:
        loads = self.shard_costs
        mean = sum(loads) / len(loads)
        if mean <= 0.0:
            return 1.0
        return max(loads) / mean

    def members(self, shard_index: int) -> tuple[int, ...]:
        """Unit indices owned by *shard_index*, in unit order."""
        if not 0 <= shard_index < self.shards:
            raise ExperimentError(
                f"shard_index must be in [0, {self.shards}), got {shard_index}"
            )
        return tuple(
            unit
            for unit, shard in enumerate(self.assignment)
            if shard == shard_index
        )


def plan_round_robin(costs: Sequence[float], shards: int) -> ShardPlan:
    """The naive cost-blind baseline: unit ``i`` goes to shard ``i % K``.

    Kept as the comparison partner for the benchmark's imbalance
    measurement; heavy-tailed grids round-robin badly because neighbouring
    units (e.g. an ascending population grid) land on the same shard.
    """
    _validate_plan_inputs(costs, shards)
    return ShardPlan(
        shards=shards,
        assignment=tuple(index % shards for index in range(len(costs))),
        costs=tuple(float(cost) for cost in costs),
    )


def plan_shards(
    costs: Sequence[float],
    shards: int,
    *,
    imbalance_bound: float = DEFAULT_IMBALANCE_BOUND,
    refine: bool = True,
) -> ShardPlan:
    """Deterministically partition unit *costs* into *shards* balanced shards.

    Greedy LPT first: units in descending cost order (ties broken by unit
    index), each to the currently least-loaded shard (ties broken by shard
    index).  When *refine* is set and the LPT result exceeds
    *imbalance_bound*, a bounded local-search pass moves or swaps units out
    of the most-loaded shard while doing so strictly lowers the maximum
    shard cost, stopping at the bound or at a local optimum.  Both phases
    are pure functions of ``(costs, shards, imbalance_bound)`` — every
    shard process recomputes the identical plan.
    """
    _validate_plan_inputs(costs, shards)
    if imbalance_bound < 1.0:
        raise ExperimentError(
            f"imbalance_bound must be at least 1.0, got {imbalance_bound}"
        )
    costs = [float(cost) for cost in costs]
    if any(cost < 0.0 for cost in costs):
        raise ExperimentError("unit costs must be non-negative")
    assignment = [0] * len(costs)
    loads = [0.0] * shards
    counts = [0] * shards
    order = sorted(range(len(costs)), key=lambda unit: (-costs[unit], unit))
    for unit in order:
        # Least-loaded shard; break cost ties toward fewer units so zero-cost
        # grids still spread round-robin-style instead of piling on shard 0.
        target = min(range(shards), key=lambda shard: (loads[shard], counts[shard], shard))
        assignment[unit] = target
        loads[target] += costs[unit]
        counts[target] += 1
    if refine and shards > 1:
        _refine(assignment, loads, costs, imbalance_bound)
    return ShardPlan(
        shards=shards, assignment=tuple(assignment), costs=tuple(costs)
    )


def _validate_plan_inputs(costs: Sequence[float], shards: int) -> None:
    if shards < 1:
        raise ExperimentError(f"shards must be at least 1, got {shards}")
    if not costs:
        raise ExperimentError("cannot plan shards for an empty unit list")


def _refine(
    assignment: list[int],
    loads: list[float],
    costs: Sequence[float],
    imbalance_bound: float,
) -> None:
    """Local search: strictly lower the max shard cost until bounded/optimal.

    Each round looks at the most-loaded shard and evaluates every
    single-unit move to another shard and every pairwise swap with a unit
    elsewhere; the move that minimises the resulting ``max(donor, target)``
    pair load is applied if it strictly improves the donor's load (ties
    broken by unit indices, keeping the search deterministic).  The round
    budget is linear in the unit count — LPT starts close enough that a
    handful of repairs reaches the bound on realistic grids, and the cap
    keeps pathological inputs from looping.
    """
    mean = sum(loads) / len(loads)
    if mean <= 0.0:
        return
    for _ in range(4 * len(costs)):
        donor = max(range(len(loads)), key=lambda shard: (loads[shard], -shard))
        if loads[donor] / mean <= imbalance_bound:
            return
        donor_units = [unit for unit, shard in enumerate(assignment) if shard == donor]
        best: tuple[float, int, int, int] | None = None  # (new pair max, unit, swap, target)
        for target in range(len(loads)):
            if target == donor:
                continue
            target_units = [
                unit for unit, shard in enumerate(assignment) if shard == target
            ]
            for unit in donor_units:
                moved = max(loads[donor] - costs[unit], loads[target] + costs[unit])
                candidate = (moved, unit, -1, target)
                if moved < loads[donor] and (best is None or candidate < best):
                    best = candidate
            for unit in donor_units:
                for swap in target_units:
                    delta = costs[unit] - costs[swap]
                    if delta <= 0.0:
                        continue  # only shrinking the donor helps the max
                    moved = max(loads[donor] - delta, loads[target] + delta)
                    candidate = (moved, unit, swap, target)
                    if moved < loads[donor] and (best is None or candidate < best):
                        best = candidate
        if best is None:
            return  # local optimum: no move lowers the maximum
        _, unit, swap, target = best
        assignment[unit] = target
        loads[donor] -= costs[unit]
        loads[target] += costs[unit]
        if swap >= 0:
            assignment[swap] = donor
            loads[target] -= costs[swap]
            loads[donor] += costs[swap]


def threshold_probe_factor(population_size: int) -> int:
    """Deterministic probe-count multiplier for one threshold search's cost.

    A bisection over gaps in ``[1, n]`` runs about ``log2(n)`` probes, each
    spending (up to) the request's replicate budget — so a search unit
    costs roughly ``log2(n) × num_runs`` replicates.  The exact probe count
    depends on measured probabilities and cannot be known up front; a
    deterministic estimate is all the planner needs, and it must be the
    same in every shard process.
    """
    if population_size < 1:
        raise ExperimentError(
            f"population_size must be at least 1, got {population_size}"
        )
    return max(1, math.ceil(math.log2(max(2, population_size))))
