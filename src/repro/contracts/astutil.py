"""Shared AST plumbing for the contract rule checkers.

Everything the rule modules need that :mod:`ast` does not provide directly:
parent links, dotted-name rendering of attribute chains, qualified function
names (``Class.method``), identifier harvesting, and the scanned-module
record (:class:`ModuleInfo`) the engine hands to every checker.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.contracts.waivers import Waiver

__all__ = [
    "ModuleInfo",
    "dotted_name",
    "expr_identifiers",
    "iter_functions",
    "module_name_for",
    "parent_map",
]

FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef


@dataclass
class ModuleInfo:
    """One parsed source file as the rule checkers see it."""

    #: Project-root-relative POSIX path (``src/repro/lv/ensemble.py``).
    relpath: str
    #: Dotted import name (``repro.lv.ensemble``), or the relpath when the
    #: file is outside a recognisable package layout.
    module_name: str
    source: str
    tree: ast.Module
    waivers: dict[int, Waiver] = field(default_factory=dict)

    def in_any(self, prefixes: tuple[str, ...]) -> bool:
        """Whether this file lives at or under one of *prefixes*."""
        for prefix in prefixes:
            if self.relpath == prefix or self.relpath.startswith(prefix + "/"):
                return True
        return False


def module_name_for(relpath: str) -> str:
    """Dotted module name of a root-relative source path.

    >>> module_name_for("src/repro/lv/ensemble.py")
    'repro.lv.ensemble'
    >>> module_name_for("src/repro/store/__init__.py")
    'repro.store'
    """
    if not relpath.endswith(".py"):
        return relpath
    parts = relpath[: -len(".py")].split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else relpath


def parent_map(tree: ast.AST) -> dict[int, ast.AST]:
    """Map ``id(child)`` to its parent node for every node under *tree*."""
    parents: dict[int, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    return parents


def dotted_name(node: ast.AST) -> str | None:
    """Render a ``Name``/``Attribute`` chain as ``a.b.c`` (else ``None``)."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def expr_identifiers(node: ast.AST) -> set[str]:
    """All ``Name`` ids and ``Attribute`` attrs appearing under *node*."""
    identifiers: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            identifiers.add(child.id)
        elif isinstance(child, ast.Attribute):
            identifiers.add(child.attr)
    return identifiers


def iter_functions(tree: ast.Module) -> Iterator[tuple[str, FunctionNode]]:
    """Yield every function in *tree* with its qualified name.

    Methods are qualified as ``Class.method``; functions nested inside
    another function as ``outer.inner``.  If/Try/With blocks are transparent
    statement containers, so conditionally defined functions (optional
    dependency fallbacks and the like) still carry their contract obligations.
    Traversal is source order.
    """

    def visit_block(
        nodes: list[ast.stmt], prefix: str
    ) -> Iterator[tuple[str, FunctionNode]]:
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{node.name}"
                yield qualname, node
                yield from visit_block(node.body, f"{qualname}.")
            elif isinstance(node, ast.ClassDef):
                yield from visit_block(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, ast.If):
                yield from visit_block(node.body, prefix)
                yield from visit_block(node.orelse, prefix)
            elif isinstance(node, ast.Try):
                yield from visit_block(node.body, prefix)
                for handler in node.handlers:
                    yield from visit_block(handler.body, prefix)
                yield from visit_block(node.orelse, prefix)
                yield from visit_block(node.finalbody, prefix)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                yield from visit_block(node.body, prefix)

    return visit_block(tree.body, "")
