"""Run the benchmark suite and write a machine-readable ``BENCH_sweep.json``.

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py [--scale quick]
        [--seed 0] [--output BENCH_sweep.json]
        [--compare BENCH_sweep.json]

For every registered experiment the runner records wall-clock seconds, the
number of two-species jump events executed by the process-wide sweep
scheduler (its ``events_executed`` counter), and the resulting events/second
— so the performance trajectory of the sweep engine stays comparable across
PRs as a single JSON artefact instead of a nightly eye-check.  Four
acceptance measurements are re-run and recorded alongside: the sweep-fusion
speedup (fused `FIG-THRESH`-style threshold sweep versus the per-config
scheduler path, see ``test_bench_sweep_engine.py``), the
adaptive-precision events saving at equal CI width (see
``test_bench_adaptive_precision.py``), the tau-backend event-throughput
ratio over the exact ensemble at n = 10^5 (see
``test_bench_tau_backend.py``), and the shard planner's cost imbalance on a heavy-tailed
T1R5-style grid versus naive round-robin (see
``test_bench_shard_planner.py``).  The planner measurement also exports its
measured per-configuration event rates as ``shard_planner.history``, the
section ``repro run --shards K --shard-index I --shard-history BENCH_sweep.json``
feeds to the balance planner on machines that have not journaled anything yet.

``--compare BASELINE.json`` turns the run into a **regression gate**: after
measuring, the fresh numbers are compared against the committed baseline
and the process exits non-zero when anything regressed by more than
:data:`REGRESSION_TOLERANCE`.  The default checks are machine-independent —
growth of the deterministic per-experiment event budgets (same seeds must
simulate the same work), drops of the sweep-fusion speedup and the adaptive
events saving (each measured within one run on one machine), and drops of
the tau backend's own event throughput, corrected for host speed with
perfbench's probe (:mod:`perfbench.hostspeed`).  The tau/exact throughput
ratio is recorded but not gated: it falls whenever the exact engine gets
faster.  ``--compare-wallclock`` additionally gates absolute per-experiment
and total seconds; use it only when the baseline was recorded on a
comparable machine, otherwise runner-speed differences drown the signal.

Notes
-----
* ``events`` counts only events executed through the scheduler's lock-step
  engines; the one experiment that runs entirely outside the scheduler —
  `FIG-DOM` (scalar dominating-chain comparisons) — legitimately meters
  zero and carries ``scheduler_metered: false`` so the artefact doesn't
  read as a throughput regression (its wall-clock is still gated).
* The quick scale matches CI; pass ``--scale full`` for the
  ``EXPERIMENTS.md``-sized workloads.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy

from repro.experiments.registry import list_experiments, run_experiment
from repro.experiments.scheduler import get_default_scheduler

# The acceptance workloads (grids, seeds, and executor paths) are defined
# once, next to the CI assertions, and reused here so the JSON artefact
# always measures exactly the workloads the gates assert on.
sys.path.insert(0, str(Path(__file__).resolve().parent))
# perfbench's host-speed probe, imported read-only from the repository root.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import hostspeed  # noqa: E402
from test_bench_adaptive_precision import _run_adaptive, _run_fixed  # noqa: E402
from test_bench_adaptive_precision import _grid as _adaptive_grid  # noqa: E402
from test_bench_sweep_engine import _grid, _run_per_config, _run_sweep  # noqa: E402
from test_bench_tau_backend import _run_exact, _run_tau  # noqa: E402
from test_bench_tau_backend import _workload as _tau_workload  # noqa: E402
from test_bench_tau_backend import warm_up as _tau_warm_up  # noqa: E402
from test_bench_shard_planner import measure_shard_planner  # noqa: E402

#: Maximum tolerated relative regression versus the committed baseline.
REGRESSION_TOLERANCE = 0.20

#: Wall-clock measurements below this are skipped by the per-experiment
#: slowdown check — at sub-tenth-of-a-second scale the comparison measures
#: scheduler jitter, not the code.
_SECONDS_NOISE_FLOOR = 0.1


def measure_experiments(scale: str, seed: int) -> dict[str, dict[str, float]]:
    """Time every registered experiment and meter its scheduler events."""
    scheduler = get_default_scheduler()
    results: dict[str, dict[str, float]] = {}
    for spec in list_experiments():
        scheduler.events_executed = 0
        started = time.perf_counter()
        outcome = run_experiment(spec.identifier, scale=scale, seed=seed)
        seconds = time.perf_counter() - started
        events = scheduler.events_executed
        # FIG-DOM (scalar dominating-chain comparisons) runs outside the
        # sweep scheduler by design, so the event meter legitimately reads
        # zero for it — mark it unmetered instead of letting the artefact
        # imply zero throughput.
        metered = events > 0
        results[spec.identifier] = {
            "seconds": round(seconds, 4),
            "events": int(events),
            "events_per_sec": round(events / seconds) if seconds > 0 else 0,
            "scheduler_metered": metered,
            "shape_matches_paper": outcome.shape_matches_paper,
        }
        if metered:
            print(
                f"[{spec.identifier:>10}] {seconds:7.2f}s  "
                f"{events:>10d} events  {results[spec.identifier]['events_per_sec']:>12,} ev/s"
            )
        else:
            print(
                f"[{spec.identifier:>10}] {seconds:7.2f}s  "
                "(runs outside the scheduler; events not metered)"
            )
    return results


def measure_sweep_speedup():
    """The acceptance measurement: fused threshold sweep vs per-config path.

    Runs the exact workload of ``test_bench_sweep_engine.py`` (same grid,
    seeds, and executor configurations) outside pytest, best of three.
    """
    grid = _grid()
    _run_per_config(grid)  # warm-up
    _run_sweep(grid)
    per_config_seconds = min(_timed(lambda: _run_per_config(grid)) for _ in range(3))
    fused_seconds = min(_timed(lambda: _run_sweep(grid)) for _ in range(3))
    return {
        "per_config_seconds": round(per_config_seconds, 4),
        "fused_seconds": round(fused_seconds, 4),
        "speedup": round(per_config_seconds / fused_seconds, 2),
        "grid_points": len(grid),
    }


def measure_adaptive_saving():
    """The adaptive acceptance measurement: events saved at equal CI width.

    Runs the exact workload of ``test_bench_adaptive_precision.py`` (same
    grid, seeds, target, and both estimation modes) outside pytest.  Event
    counts are deterministic in the seeds, so no best-of-N is needed.
    """
    grid = _adaptive_grid()
    fixed_events, _ = _run_fixed(grid)
    started = time.perf_counter()
    adaptive_events, _ = _run_adaptive(grid)
    adaptive_seconds = time.perf_counter() - started
    return {
        "fixed_events": int(fixed_events),
        "adaptive_events": int(adaptive_events),
        "adaptive_seconds": round(adaptive_seconds, 4),
        "events_saving": round(fixed_events / adaptive_events, 2),
    }


def measure_tau_backend():
    """The hybrid-backend acceptance measurement: tau vs exact at n = 10^5.

    Runs the exact workload of ``test_bench_tau_backend.py`` (same grid,
    seeds, replicate counts, warm-up) outside pytest and reports both
    backends' event throughput — estimated leap firings and exact events
    share one unit — plus their ratio, the number the CI gate asserts to
    be >= 10.  ``tau_corrected_events_per_sec`` is the tau throughput over
    all three tau timings, scaled to perfbench's reference host speed by
    host-speed probes taken before the first timing and after each one, as
    perfbench corrects its passes; ``--compare`` gates that number.
    """
    grid = _tau_workload()
    _tau_warm_up(grid)
    started = time.perf_counter()
    exact_events, _ = _run_exact(grid)
    exact_seconds = time.perf_counter() - started
    probes = [hostspeed.probe()]
    tau_timings = []
    for _ in range(3):
        started = time.perf_counter()
        tau_events, _ = _run_tau(grid)
        tau_timings.append(time.perf_counter() - started)
        probes.append(hostspeed.probe())
    exact_throughput = exact_events / exact_seconds
    tau_throughput = tau_events / min(tau_timings)
    corrected_seconds = hostspeed.corrected(sum(tau_timings), probes)
    return {
        "exact_events_per_sec": round(exact_throughput),
        "tau_events_per_sec": round(tau_throughput),
        "tau_corrected_events_per_sec": round(
            len(tau_timings) * tau_events / corrected_seconds
        ),
        "throughput_ratio": round(tau_throughput / exact_throughput, 2),
    }


def _timed(task) -> float:
    started = time.perf_counter()
    task()
    return time.perf_counter() - started


def compare_with_baseline(
    payload: dict, baseline: dict, *, wallclock: bool = False
) -> list[str]:
    """Regressions of *payload* versus *baseline* (empty when clean).

    Flags, each beyond :data:`REGRESSION_TOLERANCE`:

    * per-experiment growth of the deterministic event budgets (a sweep
      silently burning more events at the same seeds),
    * drops of the sweep-fusion speedup or the adaptive events saving
      (each a within-run ratio, so comparable across machines),
    * drops of the tau backend's host-speed-corrected event throughput
      (the tau/exact ratio is information only: it rewards a slower exact
      engine), and
    * with ``wallclock=True``, per-experiment and total seconds (skipping
      measurements under the noise floor) — only meaningful when baseline
      and fresh run come from comparable machines.
    """
    failures: list[str] = []
    limit = 1.0 + REGRESSION_TOLERANCE
    fresh_experiments = payload["experiments"]
    base_experiments = baseline.get("experiments", {})
    total_fresh = 0.0
    total_base = 0.0
    for identifier, base in base_experiments.items():
        fresh = fresh_experiments.get(identifier)
        if fresh is None:
            failures.append(f"{identifier}: present in baseline but not measured")
            continue
        total_fresh += fresh["seconds"]
        total_base += base["seconds"]
        if (
            wallclock
            and base["seconds"] >= _SECONDS_NOISE_FLOOR
            and fresh["seconds"] > base["seconds"] * limit
        ):
            failures.append(
                f"{identifier}: {fresh['seconds']:.2f}s vs baseline "
                f"{base['seconds']:.2f}s (>{REGRESSION_TOLERANCE:.0%} slowdown)"
            )
        if base["events"] and fresh["events"] > base["events"] * limit:
            failures.append(
                f"{identifier}: {fresh['events']} events vs baseline "
                f"{base['events']} (>{REGRESSION_TOLERANCE:.0%} more simulated work)"
            )
    if wallclock and total_base and total_fresh > total_base * limit:
        failures.append(
            f"total wall-clock: {total_fresh:.2f}s vs baseline {total_base:.2f}s "
            f"(>{REGRESSION_TOLERANCE:.0%} slowdown)"
        )
    base_sweep = baseline.get("sweep_vs_per_config")
    if base_sweep:
        fresh_speedup = payload["sweep_vs_per_config"]["speedup"]
        if fresh_speedup < base_sweep["speedup"] / limit:
            failures.append(
                f"sweep fusion speedup: {fresh_speedup}x vs baseline "
                f"{base_sweep['speedup']}x"
            )
    base_adaptive = baseline.get("adaptive_vs_fixed")
    if base_adaptive:
        fresh_saving = payload["adaptive_vs_fixed"]["events_saving"]
        if fresh_saving < base_adaptive["events_saving"] / limit:
            failures.append(
                f"adaptive events saving: {fresh_saving}x vs baseline "
                f"{base_adaptive['events_saving']}x"
            )
    base_tau = baseline.get("tau_vs_exact")
    if base_tau:
        fresh_tau = payload["tau_vs_exact"]["tau_corrected_events_per_sec"]
        base_corrected = base_tau["tau_corrected_events_per_sec"]
        if fresh_tau < base_corrected / limit:
            failures.append(
                f"tau backend corrected throughput: {fresh_tau:,} events/s vs "
                f"baseline {base_corrected:,} events/s"
            )
    base_planner = baseline.get("shard_planner")
    if base_planner:
        fresh_imbalance = payload["shard_planner"]["planned_imbalance"]
        if fresh_imbalance > base_planner["planned_imbalance"] * limit:
            failures.append(
                f"shard planner imbalance: {fresh_imbalance} vs baseline "
                f"{base_planner['planned_imbalance']}"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=("quick", "full"), default="quick")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_sweep.json",
    )
    parser.add_argument(
        "--compare",
        type=Path,
        default=None,
        metavar="BASELINE",
        help="compare against this committed baseline JSON and exit non-zero "
        f"on any regression beyond {REGRESSION_TOLERANCE:.0%}",
    )
    parser.add_argument(
        "--compare-wallclock",
        action="store_true",
        help="also gate absolute seconds (baseline must come from a "
        "comparable machine; the default checks are machine-independent)",
    )
    arguments = parser.parse_args(argv)
    # Read the baseline before anything is written: with the default
    # --output, the fresh payload replaces the very file it is compared to.
    baseline = (
        None if arguments.compare is None else json.loads(arguments.compare.read_text())
    )

    experiments = measure_experiments(arguments.scale, arguments.seed)
    sweep = measure_sweep_speedup()
    print(
        f"[sweep-vs-per-config] {sweep['fused_seconds']:.2f}s vs "
        f"{sweep['per_config_seconds']:.2f}s  ->  {sweep['speedup']}x"
    )
    adaptive = measure_adaptive_saving()
    print(
        f"[adaptive-vs-fixed] {adaptive['adaptive_events']:,} vs "
        f"{adaptive['fixed_events']:,} events  ->  "
        f"{adaptive['events_saving']}x fewer at equal CI width"
    )
    tau = measure_tau_backend()
    print(
        f"[tau-vs-exact] {tau['tau_events_per_sec']:,} vs "
        f"{tau['exact_events_per_sec']:,} events/s  ->  "
        f"{tau['throughput_ratio']}x throughput at n=10^5 "
        f"(tau corrected to reference host speed: "
        f"{tau['tau_corrected_events_per_sec']:,} events/s)"
    )
    planner = measure_shard_planner()
    print(
        f"[shard-planner] imbalance {planner['planned_imbalance']} vs "
        f"round-robin {planner['round_robin_imbalance']} on "
        f"{planner['grid_units']} heavy-tailed units over "
        f"{planner['shards']} shards"
    )

    payload = {
        "schema": 5,
        "scale": arguments.scale,
        "seed": arguments.seed,
        "generated": time.strftime("%Y-%m-%d %H:%M:%S"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "experiments": experiments,
        "sweep_vs_per_config": sweep,
        "adaptive_vs_fixed": adaptive,
        "tau_vs_exact": tau,
        "shard_planner": planner,
    }
    arguments.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {arguments.output}")

    if baseline is not None:
        failures = compare_with_baseline(
            payload, baseline, wallclock=arguments.compare_wallclock
        )
        if failures:
            print(f"\nperformance regressions versus {arguments.compare}:")
            for failure in failures:
                print(f"  FAIL {failure}")
            return 1
        print(f"no performance regressions versus {arguments.compare}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
