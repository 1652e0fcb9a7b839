"""RC3xx — store-key purity rules.

The result store's keying contract (:mod:`repro.store.keys`) is an exact
field list: chunk/run keys are built from the declared inputs and **never**
from execution-strategy knobs (``jobs``, ``sweep_batch``,
``compaction_fraction``, the legacy ``engine`` selector, shard placement)
that the sweep engine's bitwise contract makes irrelevant.  RC301 verifies every
payload field a key constructor writes is whitelisted; RC302 flags any
reference to an excluded field inside a key constructor — both statically,
so folding ``jobs`` into a chunk key fails lint in seconds instead of
surfacing as a cache-split days later.
"""

from __future__ import annotations

import ast

from repro.contracts.astutil import ModuleInfo, iter_functions
from repro.contracts.config import ContractsConfig
from repro.contracts.rules import Finding

__all__ = ["check_keys"]


def _iter_body_nodes(function: ast.FunctionDef | ast.AsyncFunctionDef) -> list[ast.AST]:
    """Every node of *function*'s body, with the docstring skipped."""
    body = list(function.body)
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        body = body[1:]
    nodes: list[ast.AST] = []
    for statement in body:
        nodes.extend(ast.walk(statement))
    return nodes


def _written_fields(nodes: list[ast.AST]) -> list[tuple[str, ast.AST]]:
    """String field names the function writes into payload dicts.

    Covers dict-literal keys and ``payload["field"] = ...`` subscript
    stores — the two ways the key constructors build their canonical
    payloads.
    """
    fields: list[tuple[str, ast.AST]] = []
    for node in nodes:
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    fields.append((key.value, key))
        elif (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ):
            fields.append((node.slice.value, node))
    return fields


def check_keys(module: ModuleInfo, config: ContractsConfig) -> list[Finding]:
    """All RC3xx findings for one module (key-constructor modules only)."""
    if not module.in_any(config.keys_modules):
        return []
    findings: list[Finding] = []
    excluded = set(config.excluded_key_fields)
    for qualname, function in iter_functions(module.tree):
        allowed = config.allowed_key_fields.get(qualname)
        if allowed is None:
            continue
        nodes = _iter_body_nodes(function)
        for name, node in _written_fields(nodes):
            if name not in allowed:
                findings.append(
                    Finding(
                        "RC301",
                        module.relpath,
                        getattr(node, "lineno", function.lineno),
                        getattr(node, "col_offset", function.col_offset),
                        f"{qualname} writes undeclared key field {name!r}; "
                        "the keying contract is an exact field list — extend "
                        "the [tool.repro.contracts] allowed-key-fields "
                        "whitelist in the same change that documents the "
                        "new field's invalidation semantics",
                        symbol=qualname,
                    )
                )
        for node in nodes:
            referenced: str | None = None
            if isinstance(node, ast.Name) and node.id in excluded:
                referenced = node.id
            elif isinstance(node, ast.Attribute) and node.attr in excluded:
                referenced = node.attr
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value in excluded
            ):
                referenced = node.value
            if referenced is not None:
                findings.append(
                    Finding(
                        "RC302",
                        module.relpath,
                        getattr(node, "lineno", function.lineno),
                        getattr(node, "col_offset", function.col_offset),
                        f"{qualname} references {referenced!r}, which the "
                        "keying contract excludes: results are bitwise-"
                        "independent of it, so folding it into a key would "
                        "split identical results across addresses and "
                        "forfeit cross-host cache hits",
                        symbol=qualname,
                    )
                )
    return findings
