"""The benchmark's workloads: which experiments a pass runs, and against what store."""

from __future__ import annotations

from dataclasses import dataclass

#: No store is attached.
NO_STORE = "none"
#: Each experiment run of a pass gets a fresh, empty chunk store.
FRESH_STORE = "fresh"
#: Each experiment replays from a warm store built before set-up.
WARM_STORE = "warm"

#: Experiment seeds in 0..24 on which every registered experiment's shape
#: check holds at quick scale.  T1R2's fails on seeds 2, 7, 8, 10, 14, 16
#: and 18, T1R1-SD's on seed 4.
SEED_POOL: tuple[int, ...] = (0, 1, 3, 5, 6, 9, 11, 12, 13, 15, 17, 19, 20, 21, 22, 23, 24)

#: Experiments whose cost is a lottery over the seed run at a fixed seed.
#: Without competition one T1R5 replica can run to the 10^6-event cap in the
#: scalar tail: a quick T1R5 run took 2.7 to 10.7 s across seeds 10..21.
PINNED_SEEDS: dict[str, int] = {"T1R5": 0}


def experiment_seed(ident: str, seed: int) -> int:
    """The experiment seed that benchmark seed *seed* maps to for *ident*."""
    if ident in PINNED_SEEDS:
        return PINNED_SEEDS[ident]
    return SEED_POOL[seed % len(SEED_POOL)]


@dataclass(frozen=True)
class Workload:
    name: str
    experiments: tuple[str, ...]
    store: str
    why: str
    #: Typical seconds of one pass; sets how many passes a run makes.
    nominal_pass_s: float


EXACT_SWEEP = (
    "T1R1-SD",
    "T1R1-NSD",
    "FIG-THRESH",
    "FIG-GAP",
    "FIG-NOISE",
    "FIG-TIME",
    "FIG-BAD",
    "FIG-ODE",
    "T1R3",
)

WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "exact-sweep",
            EXACT_SWEEP,
            FRESH_STORE,
            "two-species exact runs journaled into fresh stores: the lock-step "
            "core and the write side of the store",
            3.0,
        ),
        Workload(
            "tail-oracle",
            ("T1R5", "T1R2", "SCEN-KOP", "SCEN-CAT", "FIG-DOM", "T1R4"),
            NO_STORE,
            "heavy-tailed and non-lock-step layers: first-step solver, scalar "
            "tails, generic scenario engine, baselines",
            8.0,
        ),
        Workload(
            "large-n-tau",
            ("FIG-THRESH-XL",),
            NO_STORE,
            "the only workload where tau leaping does real work (n up to 10^6)",
            2.2,
        ),
        Workload(
            "store-replay",
            EXACT_SWEEP,
            WARM_STORE,
            "the exact-sweep list replayed from warm stores: every chunk is a hit, "
            "so store reads, keying, planning and summaries are exposed",
            1.3,
        ),
    )
}

#: Every experiment some workload runs, in first-appearance order.
ALL_EXPERIMENTS: tuple[str, ...] = tuple(
    dict.fromkeys(ident for workload in WORKLOADS.values() for ident in workload.experiments)
)
