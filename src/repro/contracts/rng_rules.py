"""RC1xx — RNG-discipline rules.

Engine code (``lv/``, ``scenario/``, ``store/``) must be deterministic given
its seeds: no hidden-global-state RNG (:data:`~repro.contracts.rules.RC101`),
no wall-clock or OS entropy (:data:`~repro.contracts.rules.RC102`),
Generator construction only inside :mod:`repro.rng`
(:data:`~repro.contracts.rules.RC103`), and every function touching a
member's step/tail stream declared in the consumption-order registry
(:data:`~repro.contracts.rules.RC104` / :data:`~repro.contracts.rules.RC105`).
"""

from __future__ import annotations

import ast
from typing import Mapping, Sequence

from repro.contracts.astutil import (
    ModuleInfo,
    dotted_name,
    expr_identifiers,
    iter_functions,
)
from repro.contracts.config import ContractsConfig
from repro.contracts.registry import CONSUMPTION_ORDER_REGISTRY, StreamConsumer
from repro.contracts.rules import Finding

__all__ = ["check_rng"]

#: numpy Generator / bit-generator constructors: RC103 territory.
_GENERATOR_CONSTRUCTORS = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "MT19937",
        "SFC64",
    }
)

#: Wall-clock and OS-entropy callables, matched on their dotted suffix.
_NONDETERMINISTIC_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
        "uuid.uuid1",
        "uuid.uuid4",
        "os.urandom",
        "os.getrandom",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbits",
        "secrets.randbelow",
        "secrets.choice",
    }
)

#: Generator methods that consume stream state when called on a step/tail
#: generator (used for the RC104 consumer heuristic alongside forwarding).
_DRAW_METHODS = frozenset(
    {
        "random",
        "integers",
        "uniform",
        "poisson",
        "exponential",
        "normal",
        "standard_normal",
        "binomial",
        "choice",
        "shuffle",
        "permutation",
        "spawn",
    }
)


def _call_findings(module: ModuleInfo, config: ContractsConfig) -> list[Finding]:
    """RC101/RC102/RC103: per-call scan of one engine-code module."""
    findings: list[Finding] = []
    is_rng_module = module.in_any(config.rng_modules)
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = dotted_name(node.func)
        if dotted is None:
            continue
        parts = dotted.split(".")
        suffix2 = ".".join(parts[-2:])
        # RC103 first: Generator construction is the more specific verdict
        # for np.random.default_rng / np.random.Generator / SeedSequence.
        is_np_random = dotted.startswith(("np.random.", "numpy.random."))
        if parts[-1] in _GENERATOR_CONSTRUCTORS and (
            is_np_random or len(parts) == 1
        ):
            if not is_rng_module:
                findings.append(
                    Finding(
                        "RC103",
                        module.relpath,
                        node.lineno,
                        node.col_offset,
                        f"{dotted}() constructs a Generator/SeedSequence "
                        "outside repro.rng; route seeding through "
                        "rng.as_generator / spawn_generators / spawn_seeds",
                    )
                )
            continue
        if is_np_random or dotted.startswith("random."):
            findings.append(
                Finding(
                    "RC101",
                    module.relpath,
                    node.lineno,
                    node.col_offset,
                    f"{dotted}() draws from hidden global RNG state; engine "
                    "code must draw from an explicitly threaded Generator",
                )
            )
            continue
        if dotted in _NONDETERMINISTIC_CALLS or suffix2 in _NONDETERMINISTIC_CALLS:
            findings.append(
                Finding(
                    "RC102",
                    module.relpath,
                    node.lineno,
                    node.col_offset,
                    f"{dotted}() is wall-clock/OS-entropy dependent; engine "
                    "results must be a pure function of seeds and inputs",
                )
            )
    return findings


def _consumes_streams(
    function: ast.FunctionDef | ast.AsyncFunctionDef,
    stream_identifiers: Sequence[str],
) -> bool:
    """Whether *function* draws from, forwards, or spawns a member stream.

    A call is a consumer site when a step/tail stream identifier appears in
    its receiver chain or any argument.  Annotations alone (declaring a
    ``step_generator`` parameter without using it in a call) do not count —
    a pure pass-through signature consumes nothing.
    """
    streams = set(stream_identifiers)
    for node in ast.walk(function):
        if not isinstance(node, ast.Call):
            continue
        involved: set[str] = set()
        # Receiver mentions count only for draw-like or collection-building
        # methods (`step_generator.random(...)`, `self.step_generators
        # .append(...)`); a stream appearing as a *call argument* (any
        # callee) is forwarding and is covered below.
        if isinstance(node.func, ast.Attribute) and (
            node.func.attr in _DRAW_METHODS
            or node.func.attr in ("append", "extend")
        ):
            involved |= expr_identifiers(node.func.value)
        for argument in node.args:
            involved |= expr_identifiers(argument)
        for keyword in node.keywords:
            involved |= expr_identifiers(keyword.value)
        if involved & streams:
            return True
    return False


def _registry_findings(
    module: ModuleInfo,
    config: ContractsConfig,
    registry: Mapping[str, tuple[StreamConsumer, ...]],
) -> list[Finding]:
    """RC104/RC105: compare stream consumers against the declared registry."""
    findings: list[Finding] = []
    declared = {
        consumer.qualname: consumer
        for consumer in registry.get(module.module_name, ())
    }
    functions = dict(iter_functions(module.tree))
    consumers = {
        qualname
        for qualname, function in functions.items()
        if _consumes_streams(function, config.stream_identifiers)
    }
    for qualname in sorted(consumers - set(declared)):
        function = functions[qualname]
        findings.append(
            Finding(
                "RC104",
                module.relpath,
                function.lineno,
                function.col_offset,
                f"{module.module_name}.{qualname} draws from or forwards a "
                "member step/tail stream but is not declared in "
                "repro.contracts.registry; stream consumption order is a "
                "reviewed contract — add a registry entry (and update the "
                "DESIGN.md consumption-order prose) or stop touching the "
                "stream",
                symbol=qualname,
            )
        )
    for qualname in sorted(set(declared) - consumers):
        anchor = functions.get(qualname)
        findings.append(
            Finding(
                "RC105",
                module.relpath,
                anchor.lineno if anchor is not None else 1,
                anchor.col_offset if anchor is not None else 0,
                f"registry declares {module.module_name}.{qualname} as a "
                "stream consumer but "
                + (
                    "it no longer touches step/tail streams"
                    if anchor is not None
                    else "no such function exists"
                )
                + "; the declared consumption order has drifted — update "
                "repro.contracts.registry",
                symbol=qualname,
            )
        )
    return findings


def check_rng(
    module: ModuleInfo,
    config: ContractsConfig,
    registry: "Mapping[str, tuple[StreamConsumer, ...]] | None" = None,
) -> list[Finding]:
    """All RC1xx findings for one module (engine-code scope only)."""
    if not module.in_any(config.engine_paths) and not module.in_any(
        config.rng_modules
    ):
        return []
    findings = _call_findings(module, config)
    findings.extend(
        _registry_findings(
            module,
            config,
            CONSUMPTION_ORDER_REGISTRY if registry is None else registry,
        )
    )
    return findings
