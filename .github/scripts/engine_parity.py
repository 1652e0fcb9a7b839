"""Same-bits check of the engines' per-replica arrays against the base checkout.

``bits_parity.py`` compares ``repro run --all`` rows, and rows summarise
what the engines return: FIG-THRESH-XL's rows are ρ to three decimals, so
its tau members' accounting arrays are never compared there.  This script
runs one fixed battery of engine calls in both trees, through names both
trees have:

* ``run_sweep_ensemble`` at the ``"full"`` and ``"win"`` levels, over
  members covering both mechanisms, intraspecific competition, a tie,
  absorption at (1, 1), event budgets and the scalar tail, and over T1R5's
  states without competition, whose scalar tails run long;
* ``run_tau_sweep_ensemble`` over calls that leap into the exact endgame,
  run out of budget there, and pass one uniform block in it, and over
  FIG-THRESH-XL's shape: SD at ``log^2 n`` and NSD at ``log^2 n`` and
  ``3 sqrt(n)`` for ``n = 10^5`` and ``10^6``, members that leap for
  different lengths in one call;
* ``LVJumpChainSimulator.run`` over both mechanisms, a species-1 majority,
  a tie, a budget, absorption and a run past one uniform block, some with
  ``record_path=True``, and five runs drawing from one stream in turn;
* the generic scenario engine: ``opinion3``, ``opinion4`` and ``catalysis``
  members in both mechanisms, through ``run_sweep_ensemble`` and
  ``run_tau_sweep_ensemble`` at both levels, with a growing population, an
  event budget and members that leap; and 24 ``resource`` members of 48
  replicas through ``run_sweep_ensemble`` at both levels, alternating
  mechanisms, so that two scenario groups share the call; and one
  ``run_tau_sweep_ensemble`` call at both levels whose two scenario groups
  (six ``opinion3`` and six ``catalysis`` members, plus one ``opinion3``
  member parked from the start) spend budgets while leaping and after
  parking.

Every budget is bounded, so the battery takes seconds per tree.  It hashes
every field of every result: the per-replica arrays by their bytes, any
other field (a scalar run's counts and path) by its ``repr``.  The check
passes when each call's digest matches, or when the change edits the
``RESULT_SCHEMA_VERSION =`` line of ``src/repro/store/keys.py`` (the rule of
``bits_parity.py``); otherwise it fails.  Either way it names the calls
whose arrays differ, so a bump shows what it changed.

Usage::

    python .github/scripts/engine_parity.py --base BASE_TREE [--head HEAD_TREE]
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Iterator

from bits_parity import schema_line

#: The battery's seeds; each call runs once per seed.
SEEDS = (0, 1, 2)


def battery() -> Iterator[tuple[str, list[Any]]]:
    """``(call name, results)`` for every call of the battery, in order."""
    from repro.experiments.workloads import state_with_gap
    from repro.lv.ensemble import SweepMember, run_sweep_ensemble
    from repro.lv.params import CompetitionMechanism, LVParams
    from repro.lv.simulator import LVJumpChainSimulator
    from repro.lv.state import LVState
    from repro.lv.tau import run_tau_sweep_ensemble
    from repro.rng import as_generator

    sd_mechanism = CompetitionMechanism.SELF_DESTRUCTIVE
    nsd_mechanism = CompetitionMechanism.NON_SELF_DESTRUCTIVE
    sd = LVParams(1.0, 1.0, 1.0, 1.0, mechanism=sd_mechanism)
    nsd = LVParams(1.0, 1.0, 1.0, 1.0, mechanism=nsd_mechanism)
    gamma_sd = LVParams(1.0, 0.7, 0.3, 0.45, 0.3, 0.2, sd_mechanism)
    gamma_nsd = LVParams(0.9, 1.1, 0.2, 0.6, 0.35, 0.15, nsd_mechanism)
    gamma_only = LVParams(0.0, 0.0, 0.0, 0.0, 1.0, 1.0, nsd_mechanism)
    walk = LVParams(1.0, 1.0, 0.0, 0.0, mechanism=nsd_mechanism)

    def member(params, x0, x1, replicates, budget=20_000):
        return SweepMember(params, LVState(x0, x1), replicates, budget)

    exact = [
        member(sd, 40, 24, 90),
        member(nsd, 33, 31, 70),
        member(sd, 36, 28, 50, 40),
        member(gamma_only, 5, 3, 40),
        member(gamma_sd, 30, 41, 40),
        member(gamma_nsd, 20, 20, 40),
        member(walk, 9, 5, 60, 400),
        member(sd, 160, 140, 120),
    ]
    leap_to_endgame = [
        member(sd, 4_000, 3_900, 5),
        member(nsd, 2_600, 2_700, 4),
        member(sd, 3_000, 3_000, 3),
        member(gamma_sd, 9_000, 7_000, 3),
        member(sd, 120_000, 80_000, 3, 10**6),
    ]
    budget = [
        member(nsd, 30_000, 26_000, 4, 40_000),
        member(sd, 700, 500, 4, 300),
        member(gamma_nsd, 33, 28, 4, 25),
    ]
    overflow = [member(walk, 24, 20, 8, 6_000), member(nsd, 46, 50, 3)]
    # T1R5's states, without competition: the tails run past many blocks.
    no_competition = [
        member(LVParams(1.0, 1.0, 0.0, 0.0, mechanism=mechanism), x0, x1, 30, 60_000)
        for mechanism, (x0, x1) in (
            (sd_mechanism, (12, 8)),
            (nsd_mechanism, (24, 8)),
            (sd_mechanism, (40, 10)),
        )
    ]
    # The 24 x 48 probe of the generic engine against the specialised one,
    # on a generic family.
    resource_probe = [
        SweepMember(
            sd if index % 2 == 0 else nsd,
            (140 + index, 126 + index % 5, 40 + index),
            48,
            20_000,
            scenario="resource",
        )
        for index in range(24)
    ]
    # FIG-THRESH-XL's rates and states.
    neutral_sd = LVParams.self_destructive(beta=1.0, delta=1.0, alpha=1.0)
    neutral_nsd = LVParams.non_self_destructive(beta=1.0, delta=1.0, alpha=1.0)
    threshold_xl = [
        SweepMember(params, state_with_gap(n, gap), 2)
        for n in (10**5, 10**6)
        for params, gap in (
            (neutral_sd, round(math.log(n) ** 2)),
            (neutral_nsd, round(math.log(n) ** 2)),
            (neutral_nsd, round(3.0 * math.sqrt(n))),
        )
    ]

    def generic_calls(mechanism):
        """``(entry point, members)`` of the generic engine, exact then tau."""
        rates = LVParams(0.5, 0.4, 0.9, 0.7, 0.2, 0.3, mechanism)
        catalysed = LVParams(0.3, 0.3, 0.025, 0.025, mechanism=mechanism)
        # Births outrun deaths and encounters are rare: the population grows.
        growth = LVParams(1.0, 0.5, 5e-5, 5e-5, mechanism=mechanism)

        exact_members = [
            SweepMember(rates, (30, 20, 15), 40, 20_000, scenario="opinion3"),
            SweepMember(rates, (20, 14, 14, 12), 40, 20_000, scenario="opinion4"),
            SweepMember(catalysed, (30, 20, 60), 40, 20_000, scenario="catalysis"),
            SweepMember(growth, (20, 15, 15), 16, 200, scenario="opinion3"),
        ]
        leaping_members = [
            SweepMember(rates, (1_100, 740, 720), 4, 200_000, scenario="opinion3"),
            SweepMember(rates, (900, 600, 600, 500), 3, 200_000, scenario="opinion4"),
            SweepMember(catalysed, (900, 600, 200), 4, 200_000, scenario="catalysis"),
            SweepMember(growth, (2_000, 1_500, 1_500), 4, 20_000, scenario="opinion3"),
        ]
        return ((run_sweep_ensemble, exact_members), (run_tau_sweep_ensemble, leaping_members))

    generic = {
        mechanism.short_name: generic_calls(mechanism)
        for mechanism in (sd_mechanism, nsd_mechanism)
    }
    # Two generic tau groups of several members each: some replicas spend
    # their budget while they leap, others after they park, and the last
    # member is parked from the start.
    fused_rates = LVParams(0.5, 0.4, 0.9, 0.7, 0.2, 0.3, sd_mechanism)
    fused_catalysed = LVParams(0.3, 0.3, 0.025, 0.025, mechanism=sd_mechanism)
    fused_groups = [
        SweepMember(
            fused_rates,
            (1_100 + 20 * i, 740, 720 - 10 * i),
            2 + i % 3,
            (200_000, 1_149, 900)[i % 3],
            scenario="opinion3",
        )
        for i in range(6)
    ]
    fused_groups += [
        SweepMember(
            fused_catalysed,
            (900 + 15 * i, 600, 200),
            2 + i % 3,
            (200_000, 1_500, 400)[i % 3],
            scenario="catalysis",
        )
        for i in range(6)
    ]
    fused_groups.append(SweepMember(fused_rates, (40, 30, 20), 3, 200_000, scenario="opinion3"))

    # (label, params, state, budget, record_path) of the scalar runs.
    scalar = [
        ("sd", sd, (40, 24), 20_000, False),
        ("nsd-minority-first", nsd, (20, 34), 20_000, True),
        ("gamma-tie", gamma_nsd, (20, 20), 20_000, True),
        ("gamma-budget", gamma_sd, (60, 40), 25, True),
        ("absorbed", gamma_only, (4, 4), 20_000, False),
        ("past-one-block", walk, (100, 90), 6_000, True),
    ]
    for seed in SEEDS:
        for label, params, counts, max_events, record_path in scalar:
            run = LVJumpChainSimulator(params).run(
                LVState(*counts), rng=seed, max_events=max_events, record_path=record_path
            )
            yield f"LVJumpChainSimulator.run/{label}/rng={seed}", [run]
        stream = as_generator(seed)
        yield (
            f"LVJumpChainSimulator.run/one-stream/rng={seed}",
            [LVJumpChainSimulator(gamma_sd).run(LVState(30, 41), rng=stream) for _ in range(5)],
        )
        for collect in ("full", "win"):
            yield (
                f"run_sweep_ensemble/{collect}/rng={seed}",
                run_sweep_ensemble(exact, rng=seed, collect=collect),
            )
            yield (
                f"run_sweep_ensemble/no-competition/{collect}/rng={seed}",
                run_sweep_ensemble(no_competition, rng=seed, collect=collect),
            )
            yield (
                f"run_sweep_ensemble/resource-24x48/{collect}/rng={seed}",
                run_sweep_ensemble(resource_probe, rng=seed, collect=collect),
            )
        yield (
            f"run_tau_sweep_ensemble/leap-to-endgame/rng={seed}",
            run_tau_sweep_ensemble(leap_to_endgame, rng=seed),
        )
        yield (
            f"run_tau_sweep_ensemble/budget/rng={seed}",
            run_tau_sweep_ensemble(budget, rng=seed, exact_tail_population=2_000),
        )
        yield (
            f"run_tau_sweep_ensemble/overflow/rng={seed + 4}",
            run_tau_sweep_ensemble(overflow, rng=seed + 4),
        )
        yield (
            f"run_tau_sweep_ensemble/threshold-xl/rng={seed}",
            run_tau_sweep_ensemble(threshold_xl, rng=seed),
        )
        for collect in ("full", "win"):
            yield (
                f"run_tau_sweep_ensemble/fused-groups/{collect}/rng={seed}",
                run_tau_sweep_ensemble(fused_groups, rng=seed, collect=collect),
            )
        for mechanism, calls in generic.items():
            for run, members in calls:
                for collect in ("full", "win"):
                    yield (
                        f"{run.__name__}/generic-{mechanism}/{collect}/rng={seed}",
                        run(members, rng=seed, collect=collect),
                    )


def results_digest(results: list[Any]) -> str:
    """sha256 over every field of every result.

    An array field contributes its name, dtype, shape and bytes; any other
    field its name and ``repr``.
    """
    import numpy as np

    digest = hashlib.sha256()
    for result in results:
        for field in dataclasses.fields(result):
            value = getattr(result, field.name)
            if isinstance(value, np.ndarray):
                digest.update(f"{field.name} {value.dtype} {value.shape}\n".encode())
                digest.update(np.ascontiguousarray(value).tobytes())
            else:
                digest.update(f"{field.name} {value!r}\n".encode())
    return digest.hexdigest()


def emit() -> None:
    """Print ``<call name> <digest>`` per battery call (run inside a tree)."""
    for name, results in battery():
        print(name, results_digest(results), flush=True)


def call_digests(tree: Path) -> dict[str, str]:
    """Each battery call's digest, computed by *tree*'s sources."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--emit"],
        cwd=tree,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        check=False,
    )
    if completed.returncode != 0:
        raise SystemExit(f"engine-parity: the battery failed in {tree}")
    return dict(line.split(" ", 1) for line in completed.stdout.splitlines())


def differing_calls(base: dict[str, str], head: dict[str, str]) -> list[str]:
    """Calls whose digest differs, or that only one side ran."""
    return sorted(name for name in base.keys() | head.keys() if base.get(name) != head.get(name))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, help="checkout of the base")
    parser.add_argument("--head", type=Path, default=Path("."), help="checkout of the change")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    arguments = parser.parse_args(argv)
    if arguments.emit:
        emit()
        return 0
    if arguments.base is None:
        parser.error("--base is required")
    base_tree, head_tree = arguments.base.resolve(), arguments.head.resolve()
    base, head = call_digests(base_tree), call_digests(head_tree)
    differing = differing_calls(base, head)
    print(f"engine-parity: {len(base)} base and {len(head)} head calls")
    if not differing:
        print("engine-parity: same bits")
        return 0
    base_schema, head_schema = schema_line(base_tree), schema_line(head_tree)
    bumped = base_schema != head_schema
    if bumped:
        print(
            f"engine-parity: arrays changed under a schema bump ({base_schema} -> {head_schema}), "
            f"in {len(differing)} call(s):"
        )
    else:
        print("engine-parity: arrays changed without a RESULT_SCHEMA_VERSION bump, in:")
    for name in differing:
        print(f"  {name}")
    return 0 if bumped else 1


if __name__ == "__main__":
    sys.exit(main())
