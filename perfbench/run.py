"""Layered benchmark of the registered experiments.

Run from the repository root::

    python3 perfbench/run.py --workload exact-sweep --seed 0 --seconds 20 --trace 0

One client runs a workload's experiments one after another through
``repro.experiments.registry.run_experiment(id, scale="quick", seed=...)``
(a closed loop, ``jobs=1``, default engine), for a fixed number of passes
that ``--seconds`` sets.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones.  Either way the outputs are checked
and the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, ContextManager

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
#: Scratch stores live here, inside the checkout; removed on exit.
WORK_ROOT = ROOT / ".perfbench-work"
#: Reports and Chrome traces are written here.
OUT_ROOT = ROOT / ".perfbench-out"
#: Fresh interpreters whose set-up is timed; setup_s is their median.
SETUP_REPEATS = 3
#: Fewest passes a run makes, however short --seconds is.
MIN_PASSES = 2
#: A run stops early once its passes have taken this multiple of --seconds,
#: so that a host in a slow phase cannot stretch a run without end.
OVERRUN = 1.25
#: Seconds a child interpreter may take to prepare or get ready.
CHILD_TIMEOUT_S = 150
SCALE = "quick"
READY = "ready"

sys.path.insert(0, str(ROOT))

from perfbench import hostspeed, layers  # noqa: E402
from perfbench.spans import LayerStat, Tracer, chrome_trace, layer_stats, self_times  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    ALL_EXPERIMENTS,
    FRESH_STORE,
    WARM_STORE,
    WORKLOADS,
    Workload,
    experiment_seed,
)

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a program failure)."""


def context(seed: int, workload: str) -> dict[str, Any]:
    import numpy

    from repro.lv.native import NATIVE_AVAILABLE, resolve_engine

    lines = sum(
        len(path.read_bytes().splitlines())
        for path in sorted((SOURCE / "repro").rglob("*.py"))
    )
    return {
        "workload": workload,
        "seed": seed,
        "src_repro_lines": lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_available": NATIVE_AVAILABLE,
        "engine": resolve_engine("auto"),
        "nproc": len(os.sched_getaffinity(0)),
    }


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def configure() -> None:
    from repro.experiments.scheduler import configure_default_scheduler

    configure_default_scheduler(jobs=1, engine="auto", store=None)


def open_stores(workload: Workload, store_root: Path) -> dict[str, Any]:
    """Open the warm store of every experiment (none for other workloads)."""
    from repro.store import ExperimentStore

    if workload.store != WARM_STORE:
        return {}
    return {ident: ExperimentStore(store_root / ident) for ident in workload.experiments}


def child_command(role: str, workload: Workload, seed: int, store_root: Path) -> list[str]:
    """This script, re-run in a fresh interpreter in one of its child roles."""
    return [
        sys.executable,
        str(Path(__file__).resolve()),
        role,
        "--workload",
        workload.name,
        "--seed",
        str(seed),
        "--store-root",
        str(store_root),
    ]


def setup_probe(workload: Workload, store_root: Path) -> int:
    """Child side of the set-up measurement: get ready, say so, exit."""
    configure()
    stores = open_stores(workload, store_root)
    print(READY, flush=True)
    for store in stores.values():
        store.close()
    return 0


def measure_setup(workload: Workload, seed: int, store_root: Path) -> list[float]:
    """Seconds from spawning a fresh interpreter until it is ready to run."""
    command = child_command("--setup-probe", workload, seed, store_root)
    samples = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            seconds = time.perf_counter() - started
            child.stdout.read()
            code = child.wait(timeout=CHILD_TIMEOUT_S)
        if line.strip() != READY or code != 0:
            raise BenchError(f"set-up probe exited with {code} before getting ready")
        samples.append(seconds)
    return samples


def prepare(workload: Workload, seed: int, store_root: Path) -> int:
    """Child side of the warm-store build: simulate once, print the digests.

    It runs exactly one ``exact-sweep`` pass into one empty store per
    experiment; those stores are then the warm ones.  Running it in a child
    keeps its memory out of the benchmark process's peak.
    """
    configure()
    cold = run_pass(replace(workload, store=FRESH_STORE), seed, {}, store_root, None)
    print(json.dumps(cold.digests, sort_keys=True), flush=True)
    return 0 if len(cold.digests) == len(workload.experiments) else 1


def build_warm_stores(workload: Workload, seed: int, store_root: Path) -> dict[str, str]:
    """Build the warm stores in a child; return the row digests it simulated."""
    command = child_command("--prepare", workload, seed, store_root)
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=False
    )
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"warm-store preparation exited with {done.returncode}")
    return json.loads(lines[-1])


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def digest(result: Any) -> str:
    rows = json.dumps(result.to_dict()["rows"], sort_keys=True)
    return hashlib.sha256(rows.encode("utf-8")).hexdigest()


@dataclass
class Pass:
    traced: bool
    op_seconds: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    #: Events the process-wide scheduler simulated, per experiment.
    events: dict[str, int] = field(default_factory=dict)
    #: Host-speed probe seconds, taken before each experiment and after the last.
    probes: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    journal_bytes: int = 0

    @property
    def seconds(self) -> float:
        return sum(self.op_seconds.values())

    @property
    def corrected_seconds(self) -> float:
        """The pass's seconds at the reference host speed."""
        return hostspeed.corrected(self.seconds, self.probes)


def run_pass(
    workload: Workload,
    seed: int,
    stores: dict[str, Any],
    pass_dir: Path,
    tracer: Tracer | None,
) -> Pass:
    """Run every experiment of *workload* once and time each run."""
    from repro.experiments.registry import run_experiment
    from repro.experiments.scheduler import configure_default_scheduler
    from repro.store import ExperimentStore

    def span(name: str) -> ContextManager[Any]:
        return tracer.span(name) if tracer is not None else nullcontext()

    record = Pass(traced=tracer is not None)
    for ident in workload.experiments:
        if tracer is not None:
            tracer.group = ident
        record.probes.append(hostspeed.probe())
        result = None
        started = time.perf_counter()
        with span(f"experiment.{ident}"):
            store = stores.get(ident)
            if workload.store == FRESH_STORE:
                with span("store.open"):
                    store = ExperimentStore(pass_dir / ident)
            scheduler = configure_default_scheduler(store=store)
            try:
                result = run_experiment(ident, scale=SCALE, seed=experiment_seed(ident, seed))
            except Exception:
                traceback.print_exc()
            finally:
                configure_default_scheduler(store=None)
                if workload.store == FRESH_STORE:
                    store.close()
        record.op_seconds[ident] = time.perf_counter() - started
        record.events[ident] = scheduler.events_executed
        if result is None or result.shape_matches_paper is False:
            record.failures.append(ident)
        if result is not None:
            record.digests[ident] = digest(result)
    record.probes.append(hostspeed.probe())
    if workload.store == FRESH_STORE:
        journals = [pass_dir / ident / "journal.jsonl" for ident in workload.experiments]
        record.journal_bytes = sum(path.stat().st_size for path in journals if path.exists())
    return record


def planned_passes(workload: Workload, seconds: float) -> int:
    """How many passes a run makes.

    The count follows from ``--seconds`` and the workload's nominal pass
    time, never from the measured speed, so two versions of the program
    compared at one run length get the same number of samples.
    """
    return max(MIN_PASSES, int(seconds / workload.nominal_pass_s))


def corrected_pass(passes: list[Pass]) -> float:
    """The median seconds of one pass at the reference host speed."""
    return statistics.median(record.corrected_seconds for record in passes)


# ----------------------------------------------------------------------
# Checks and metrics
# ----------------------------------------------------------------------
def check(
    passes: list[Pass], experiments: tuple[str, ...], reference: dict[str, str]
) -> list[str]:
    """Every way the outputs disagree (empty when all is well)."""
    problems = []
    for ident in experiments:
        seen = {record.digests[ident] for record in passes if ident in record.digests}
        if ident in reference:
            seen.add(reference[ident])
        if len(seen) != 1:
            problems.append(f"{ident}: {len(seen)} distinct row digests")
    return problems


@dataclass
class LayerView:
    """What a traced run measured, read per traced pass."""

    stats: dict[str, LayerStat]
    counters: dict[str, float]
    traced_passes: int
    root_self_s: float
    traced_wall_s: float
    journal_bytes: float
    open_s: float
    overhead_ratio: float

    def calls(self, layer: str) -> float:
        return self.stats[layer].calls / self.traced_passes if layer in self.stats else 0.0

    def own(self, layer: str) -> float:
        return self.stats[layer].self_s / self.traced_passes if layer in self.stats else 0.0

    def total(self, layer: str) -> float:
        return self.stats[layer].total_s / self.traced_passes if layer in self.stats else 0.0

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0) / self.traced_passes


Getter = Callable[[LayerView], float]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _calls(layer: str) -> Getter:
    return lambda view: view.calls(layer)


def _own(layer: str) -> Getter:
    return lambda view: view.own(layer)


def _total(layer: str) -> Getter:
    return lambda view: view.total(layer)


def _counter(name: str) -> Getter:
    return lambda view: view.counter(name)


def _per_second(counter: str, layer: str) -> Getter:
    return lambda view: _ratio(view.counter(counter), view.own(layer))


#: Every per-layer metric: its name, its unit and how a traced run gives it.
PER_LAYER: tuple[tuple[str, str, Getter], ...] = (
    *((f"experiment.{ident}.s", "s", _total(f"experiment.{ident}")) for ident in ALL_EXPERIMENTS),
    (
        "experiment.self_share",
        "ratio",
        lambda view: _ratio(view.root_self_s, view.traced_wall_s),
    ),
    ("scheduler.calls", "count", _calls("scheduler")),
    ("scheduler.self_s", "s", _own("scheduler")),
    ("sweep.plan_s", "s", _own("sweep.plan")),
    ("sweep.members", "count", _counter("sweep.members")),
    ("sweep.mega_batches", "count", _counter("sweep.mega_batches")),
    ("sweep.execute_self_s", "s", _own("sweep.execute")),
    ("sweep.demux_s", "s", _own("sweep.demux")),
    ("consensus.summarise_calls", "count", _calls("consensus.summarise")),
    ("consensus.summarise_s", "s", _own("consensus.summarise")),
    ("lv.ensemble.calls", "count", _calls("lv.ensemble")),
    ("lv.ensemble.self_s", "s", _own("lv.ensemble")),
    ("lv.ensemble.replicas", "count", _counter("lv.ensemble.replicas")),
    ("lv.ensemble.events", "count", _counter("lv.ensemble.events")),
    ("lv.ensemble.events_per_s", "1/s", _per_second("lv.ensemble.events", "lv.ensemble")),
    ("lv.simulator.run_calls", "count", _calls("lv.simulator")),
    ("lv.simulator.run_s", "s", _own("lv.simulator")),
    ("lv.simulator.run_events", "count", _counter("lv.simulator.run_events")),
    ("lv.tau.calls", "count", _calls("lv.tau")),
    ("lv.tau.self_s", "s", _own("lv.tau")),
    ("lv.tau.leap_events", "count", _counter("lv.tau.leap_events")),
    ("lv.tau.events_per_s", "1/s", _per_second("lv.tau.events", "lv.tau")),
    ("scenario.engine.calls", "count", _calls("scenario.engine")),
    ("scenario.engine.self_s", "s", _own("scenario.engine")),
    ("scenario.engine.members", "count", _counter("scenario.engine.members")),
    ("scenario.engine.events", "count", _counter("scenario.engine.events")),
    ("chains.first_step.calls", "count", _calls("chains.first_step")),
    ("chains.first_step.s", "s", _own("chains.first_step")),
    ("chains.first_step.states", "count", _counter("chains.first_step.states")),
    ("chains.dominating.s", "s", _own("chains.dominating")),
    ("chains.nice.s", "s", _own("chains.nice")),
    ("baselines.s", "s", _own("baselines")),
    ("store.get_chunk.calls", "count", _calls("store.get_chunk")),
    ("store.get_chunk.hits", "count", _counter("store.get_chunk.hits")),
    (
        "store.get_chunk.hit_ratio",
        "ratio",
        lambda view: _ratio(view.counter("store.get_chunk.hits"), view.calls("store.get_chunk")),
    ),
    ("store.get_chunk.s", "s", _own("store.get_chunk")),
    ("store.put_chunk.calls", "count", _calls("store.put_chunk")),
    ("store.put_chunk.s", "s", _own("store.put_chunk")),
    ("store.journal_bytes", "bytes", lambda view: view.journal_bytes),
    ("store.keys.calls", "count", _calls("store.keys")),
    ("store.keys.s", "s", _own("store.keys")),
    ("store.open_s", "s", lambda view: view.open_s + view.own("store.open")),
    ("trace.overhead_ratio", "ratio", lambda view: view.overhead_ratio),
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    return {name: unit for name, unit, _ in PER_LAYER}


def layer_view(
    tracer: Tracer, workload: Workload, passes: list[Pass], open_s: float
) -> LayerView:
    traced = [record for record in passes if record.traced]
    untraced = [record for record in passes if not record.traced]
    own_times = self_times(tracer.spans)
    return LayerView(
        stats=layer_stats(tracer.spans),
        counters=tracer.counters,
        traced_passes=len(traced),
        root_self_s=sum(own_times[span.index] for span in tracer.spans if span.parent is None)
        / len(traced),
        traced_wall_s=statistics.fmean(record.seconds for record in traced),
        journal_bytes=statistics.fmean(record.journal_bytes for record in traced),
        open_s=open_s,
        overhead_ratio=_ratio(
            corrected_pass(traced),
            corrected_pass(untraced),
        ),
    )


def summary_table(tracer: Tracer, passes: list[Pass]) -> str:
    """Per-layer calls, total, self and self share of the traced pass time."""
    traced = [record for record in passes if record.traced]
    count = len(traced)
    wall = statistics.fmean(record.seconds for record in traced)
    rows: dict[str, list[float]] = {}
    for name, stat in layer_stats(tracer.spans).items():
        key = "root (experiment self)" if name.startswith("experiment.") else name
        row = rows.setdefault(key, [0, 0.0, 0.0])
        row[0] += stat.calls
        row[1] += stat.total_s
        row[2] += stat.self_s
    lines = [f"{'layer':<24} {'calls':>9} {'total_s':>10} {'self_s':>10} {'share':>7}"]
    for name, (calls, total, own) in sorted(rows.items(), key=lambda item: -item[1][2]):
        lines.append(
            f"{name:<24} {calls / count:>9.1f} {total / count:>10.4f} "
            f"{own / count:>10.4f} {own / count / wall:>7.1%}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Prepare, time set-up, run the passes, check; return the report."""
    configure()
    store_root = work / "stores"
    reference = {}
    if workload.store == WARM_STORE:
        reference = build_warm_stores(workload, seed, store_root)
    setup = [] if trace else measure_setup(workload, seed, store_root)

    started = time.perf_counter()
    stores = open_stores(workload, store_root)
    open_s = time.perf_counter() - started

    tracer = Tracer()
    passes: list[Pass] = []
    try:
        for index in range(planned_passes(workload, seconds)):
            pass_dir = work / f"pass-{index}"
            if trace and index % 2 == 1:
                with layers.installed(tracer):
                    passes.append(run_pass(workload, seed, stores, pass_dir, tracer))
            else:
                passes.append(run_pass(workload, seed, stores, pass_dir, None))
            shutil.rmtree(pass_dir, ignore_errors=True)
            if len(passes) >= MIN_PASSES and sum(p.seconds for p in passes) > OVERRUN * seconds:
                break
    finally:
        replay_work = sum(
            store.stats.chunk_misses + store.stats.chunk_writes for store in stores.values()
        )
        for store in stores.values():
            store.close()

    problems = check(passes, workload.experiments, reference)
    if replay_work:
        problems.append(f"replay missed or wrote {replay_work} chunk(s)")
    untraced = [record for record in passes if not record.traced]
    run_probes = [probe for record in untraced for probe in record.probes]
    if trace:
        view = layer_view(tracer, workload, passes, open_s)
        metrics = {name: getter(view) for name, _, getter in PER_LAYER}
        units = per_layer_units()
    else:
        metrics = {
            "wall_s": corrected_pass(untraced),
            "setup_s": hostspeed.corrected(statistics.median(setup), run_probes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    report = {
        "context": context(seed, workload.name),
        "experiment_seeds": {
            ident: experiment_seed(ident, seed) for ident in workload.experiments
        },
        "experiment_events": passes[0].events,
        "probe_reference_s": hostspeed.REFERENCE_S,
        "uncorrected_wall_s": statistics.median(record.seconds for record in untraced),
        "uncorrected_setup_s": statistics.median(setup) if setup else None,
        "passes": [
            {
                "traced": record.traced,
                "op_seconds": record.op_seconds,
                "probes": record.probes,
                "corrected_s": record.corrected_seconds,
                "failures": record.failures,
            }
            for record in passes
        ],
        "setup_samples_s": setup,
        "problems": problems,
        "result": {
            "correct": not problems,
            "attempted": len(passes) * len(workload.experiments),
            "failed": sum(len(record.failures) for record in passes),
            "metrics": {
                name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
            },
        },
    }
    if trace:
        report["layers"] = summary_table(tracer, passes)
        report["trace"] = chrome_trace(tracer.spans, report["context"])
    return report


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Child roles: the set-up measurement and the warm-store build re-run
    # this script in a fresh interpreter.
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--prepare", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--store-root", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    arguments = parse(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SOURCE / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    workload = WORKLOADS[arguments.workload]
    if arguments.setup_probe:
        return setup_probe(workload, arguments.store_root)
    if arguments.prepare:
        return prepare(workload, arguments.seed, arguments.store_root)

    work = WORK_ROOT / f"{workload.name}-{os.getpid()}"
    try:
        report = run(workload, arguments.seed, arguments.seconds, bool(arguments.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    OUT_ROOT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{arguments.seed}-trace{arguments.trace}"
    trace_events = report.pop("trace", None)
    if trace_events is not None:
        (OUT_ROOT / f"{stem}.chrome.json").write_text(json.dumps(trace_events))
    (OUT_ROOT / f"{stem}.json").write_text(json.dumps(report, indent=2))

    result = report["result"]
    print("context: " + json.dumps(report["context"], sort_keys=True))
    print("experiment events: " + json.dumps(report["experiment_events"]))
    print(f"uncorrected wall_s (median pass) = {report['uncorrected_wall_s']:.6g} s")
    if report["uncorrected_setup_s"] is not None:
        print(f"uncorrected setup_s = {report['uncorrected_setup_s']:.6g} s")
    if "layers" in report:
        print(report["layers"])
    for problem in report["problems"]:
        print(f"check failed: {problem}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"failed {result['failed']} of {result['attempted']} experiment runs")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
