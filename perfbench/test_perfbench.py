"""Tests of the benchmark's own machinery: spans, wrappers, layer map, metric list."""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

from perfbench import layers
from perfbench.spans import Span, Tracer, chrome_trace, layer_stats, self_times
from perfbench.workloads import ALL_EXPERIMENTS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def _tree() -> list[Span]:
    # root [0, 10]
    #   a [1, 6]
    #     b [2, 3]
    #     a [3.5, 5]      (a nested in itself)
    #   c [7, 9]
    return [
        Span(0, "root", "X", None, 0.0, 10.0),
        Span(1, "a", "X", 0, 1.0, 6.0),
        Span(2, "b", "X", 1, 2.0, 3.0),
        Span(3, "a", "X", 1, 3.5, 5.0),
        Span(4, "c", "X", 0, 7.0, 9.0),
    ]


def test_self_time_is_duration_minus_children():
    own = self_times(_tree())
    assert own == {0: 3.0, 1: 2.5, 2: 1.0, 3: 1.5, 4: 2.0}
    assert sum(own.values()) == pytest.approx(10.0)


def test_layer_stats_count_a_self_nest_once_in_total():
    stats = layer_stats(_tree())
    assert stats["a"].calls == 2
    assert stats["a"].total_s == pytest.approx(5.0)
    assert stats["a"].self_s == pytest.approx(4.0)
    assert stats["root"].total_s == pytest.approx(10.0)
    assert stats["c"].self_s == pytest.approx(2.0)


def test_tracer_records_parents_groups_and_counters():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.group = "E1"
    with tracer.span("outer"):
        with tracer.span("inner"):
            tracer.count("events", 3)
        tracer.count("events", 4)
    outer, inner = tracer.spans
    assert (outer.parent, inner.parent) == (None, 0)
    assert outer.group == inner.group == "E1"
    assert (outer.duration, inner.duration) == (3.0, 1.0)
    assert tracer.counters == {"events": 7}


def test_span_closes_when_the_call_raises():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("boom"):
            raise ValueError
    with tracer.span("next"):
        pass
    assert tracer.spans[0].duration >= 0
    assert tracer.spans[1].parent is None


def test_chrome_trace_is_complete_events_in_microseconds():
    trace = chrome_trace(_tree(), {"seed": 0})
    json.dumps(trace)
    first = trace["traceEvents"][1]
    assert (first["ph"], first["ts"], first["dur"]) == ("X", 1e6, 5e6)
    assert first["args"]["parent"] == 0


def test_layer_map_refers_only_to_functions_that_exist():
    for wrap in layers.LAYER_MAP:
        _, _, target = layers.resolve(wrap)
        assert callable(target), wrap


def test_a_missing_entry_point_fails_loudly():
    missing = layers.Wrap("x", "repro.experiments.sweep", "no_such_function")
    with pytest.raises(layers.LayerMapError):
        layers.resolve(missing)
    with pytest.raises(layers.LayerMapError):
        with layers.installed(Tracer(), (missing,)):
            pass


def _bindings() -> list[tuple[object, str, bool, object]]:
    result = []
    for wrap in layers.LAYER_MAP:
        owner, name, _ = layers.resolve(wrap)
        result.append((owner, name, name in vars(owner), vars(owner).get(name)))
    return result


def test_every_wrapper_restores_the_original_binding():
    before = _bindings()
    with layers.installed(Tracer()):
        for owner, name, _, binding in before:
            assert vars(owner).get(name) is not binding
    assert _bindings() == before


def test_bindings_are_restored_when_the_block_raises():
    before = _bindings()
    with pytest.raises(KeyError):
        with layers.installed(Tracer()):
            raise KeyError
    assert _bindings() == before


def test_an_inherited_method_is_deleted_again_not_copied():
    class Base:
        def run(self):
            return 1

    class Child(Base):
        pass

    module = types.ModuleType("perfbench_fake_module")
    module.Child = Child
    sys.modules[module.__name__] = module
    try:
        tracer = Tracer()
        with layers.installed(tracer, (layers.Wrap("run", module.__name__, "Child.run"),)):
            assert "run" in vars(Child)
            assert Child().run() == 1
        assert "run" not in vars(Child)
        assert [span.name for span in tracer.spans] == ["run"]
    finally:
        del sys.modules[module.__name__]


def test_benchmark_json_matches_the_metrics_the_code_reports():
    from perfbench.run import END_TO_END_UNITS, per_layer_units

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()


def test_every_per_layer_metric_reads_off_a_traced_run():
    from perfbench.run import PER_LAYER, LayerView

    view = LayerView(
        stats={},
        counters={},
        traced_passes=2,
        root_self_s=0.1,
        traced_wall_s=1.0,
        journal_bytes=0.0,
        open_s=0.0,
        overhead_ratio=1.0,
    )
    values = {name: getter(view) for name, _, getter in PER_LAYER}
    assert len(values) == len(PER_LAYER)
    assert values["experiment.self_share"] == pytest.approx(0.1)
    assert values["lv.ensemble.self_s"] == 0.0


def test_the_pass_count_follows_the_run_length_not_the_speed():
    from perfbench.run import MIN_PASSES, planned_passes

    workload = WORKLOADS["exact-sweep"]
    assert planned_passes(workload, 0.1) == MIN_PASSES
    assert planned_passes(workload, 10 * workload.nominal_pass_s) == 10


def test_every_registered_experiment_is_in_some_workload():
    from repro.experiments.registry import EXPERIMENTS

    assert set(ALL_EXPERIMENTS) == set(EXPERIMENTS)
