"""The layer map: which public functions the traced run wraps, and where.

Every entry names the module in which the *caller* resolves the function at
call time, so patching that binding is enough to see every call of the
experiment path.  Methods are wrapped on their class.  Resolution fails
loudly (:class:`LayerMapError`) when an entry point is renamed or deleted,
instead of silently recording zeros.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from perfbench.spans import Tracer

#: Scenario family of the specialised two-species core.
LV2 = "lv2"

Counters = Callable[[tuple, dict, Any], dict[str, float]]


class LayerMapError(RuntimeError):
    """A layer-map entry names a function that does not exist."""


@dataclass(frozen=True)
class Wrap:
    """Wrap ``<module>.<attr>`` (``attr`` may be ``Class.method``) as *layer*."""

    layer: str
    module: str
    attr: str
    counters: Counters | None = None


def _events(results: Any, *, only_lv2: bool = False) -> int:
    return sum(
        int(result.total_events.sum())
        for result in results
        if not only_lv2 or result.scenario == LV2
    )


def _execute_counters(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    specs = args[0] if args else kwargs["specs"]
    return {"sweep.members": len(specs), "sweep.mega_batches": 1}


def _ensemble_counters(args: tuple, kwargs: dict, results: Any) -> dict[str, float]:
    return {
        "lv.ensemble.replicas": sum(
            result.num_replicates for result in results if result.scenario == LV2
        ),
        "lv.ensemble.events": _events(results, only_lv2=True),
    }


def _tau_counters(args: tuple, kwargs: dict, results: Any) -> dict[str, float]:
    return {
        "lv.tau.leap_events": sum(
            int(result.leap_events.sum())
            for result in results
            if result.leap_events is not None
        ),
        "lv.tau.events": _events(results),
    }


def _simulator_counters(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"lv.simulator.run_events": result.total_events}


def _scenario_counters(args: tuple, kwargs: dict, results: Any) -> dict[str, float]:
    return {"scenario.engine.members": len(results), "scenario.engine.events": _events(results)}


def _first_step_counters(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"chains.first_step.states": (result.max_count + 1) ** 2}


def _get_chunk_counters(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"store.get_chunk.hits": int(result is not None)}


_SCHEDULER = "repro.experiments.scheduler"

LAYER_MAP: tuple[Wrap, ...] = (
    *(
        Wrap("scheduler", _SCHEDULER, f"SweepScheduler.{method}")
        for method in (
            "run_sweep",
            "run_sweep_adaptive",
            "find_thresholds",
            "estimate_many",
            "decompose_many",
        )
    ),
    Wrap("sweep.plan", _SCHEDULER, "plan_members"),
    Wrap("sweep.plan", _SCHEDULER, "pack_members"),
    Wrap("sweep.execute", _SCHEDULER, "execute_mega_batch", _execute_counters),
    Wrap("sweep.demux", _SCHEDULER, "demux_mega_results"),
    Wrap("consensus.summarise", _SCHEDULER, "summarise_ensemble"),
    Wrap("consensus.summarise", "repro.consensus.estimator", "summarise_ensemble"),
    Wrap("lv.ensemble", "repro.experiments.sweep", "run_sweep_ensemble", _ensemble_counters),
    Wrap("lv.ensemble", "repro.lv.ensemble", "run_sweep_ensemble", _ensemble_counters),
    Wrap("lv.tau", "repro.experiments.sweep", "run_tau_sweep_ensemble", _tau_counters),
    Wrap("lv.tau", "repro.lv.tau", "run_tau_sweep_ensemble", _tau_counters),
    Wrap("lv.simulator", "repro.lv.simulator", "LVJumpChainSimulator.run", _simulator_counters),
    # The lv layers import these lazily from the module at call time.
    Wrap("scenario.engine", "repro.scenario.engine", "run_scenario_members", _scenario_counters),
    Wrap(
        "scenario.engine",
        "repro.scenario.engine",
        "run_scenario_members_tau",
        _scenario_counters,
    ),
    Wrap(
        "chains.first_step",
        "repro.experiments.table1",
        "exact_majority_probability",
        _first_step_counters,
    ),
    Wrap("chains.dominating", "repro.experiments.figures", "compare_domination"),
    Wrap("chains.nice", "repro.experiments.figures", "simulate_extinction"),
    Wrap("baselines", "repro.baselines.cho_growth", "ChoGrowthModel.estimate"),
    Wrap("baselines", "repro.baselines.andaur_resource", "AndaurResourceModel.estimate"),
    Wrap("store.get_chunk", "repro.store.store", "ExperimentStore.get_chunk", _get_chunk_counters),
    Wrap("store.put_chunk", "repro.store.store", "ExperimentStore.put_chunk"),
    Wrap("store.keys", _SCHEDULER, "chunk_key"),
)


def resolve(wrap: Wrap) -> tuple[Any, str, Callable[..., Any]]:
    """``(owner, name, current binding)`` of one entry, or :class:`LayerMapError`."""
    try:
        owner: Any = importlib.import_module(wrap.module)
    except ImportError as error:
        raise LayerMapError(f"{wrap.layer}: cannot import {wrap.module}: {error}") from None
    *path, name = wrap.attr.split(".")
    try:
        for part in path:
            owner = getattr(owner, part)
        target = getattr(owner, name)
    except AttributeError:
        raise LayerMapError(
            f"{wrap.layer}: {wrap.module}.{wrap.attr} does not exist"
        ) from None
    if not callable(target):
        raise LayerMapError(f"{wrap.layer}: {wrap.module}.{wrap.attr} is not callable")
    return owner, name, target


def _wrapped(tracer: Tracer, wrap: Wrap, original: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(wrap.layer):
            result = original(*args, **kwargs)
        if wrap.counters is not None:
            for name, value in wrap.counters(args, kwargs, result).items():
                tracer.count(name, value)
        return result

    return wrapper


@contextmanager
def installed(tracer: Tracer, layer_map: tuple[Wrap, ...] = LAYER_MAP) -> Iterator[None]:
    """Wrap every entry of *layer_map* for the duration of the block.

    On exit every owner gets back exactly the binding it had: an attribute
    the owner held itself is restored, one it inherited is deleted again.
    """
    saved: list[tuple[Any, str, bool, Any]] = []
    try:
        for wrap in layer_map:
            owner, name, original = resolve(wrap)
            own = vars(owner)
            saved.append((owner, name, name in own, own.get(name)))
            setattr(owner, name, _wrapped(tracer, wrap, original))
        yield
    finally:
        for owner, name, had_own, binding in reversed(saved):
            if had_own:
                setattr(owner, name, binding)
            else:
                delattr(owner, name)
