"""The lint driver: file discovery, rule dispatch, waiver resolution.

:func:`lint_paths` walks the requested targets (in sorted order — the
linter eats its own dogfood), parses each source file once, fans it out to
the three rule-class checkers, then resolves ``# repro: noqa-RC###`` waivers
against the findings: a justified waiver suppresses its rules on its line
(the finding stays in the report, marked ``waived``), an unjustified waiver
is itself a finding (``RC901``), and a waiver that suppressed nothing is
stale (``RC902``).  The exit code is 0 exactly when no *active* findings
remain.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from repro.contracts.astutil import ModuleInfo, module_name_for
from repro.contracts.config import ContractsConfig, find_project_root, load_config
from repro.contracts.key_rules import check_keys
from repro.contracts.order_rules import check_order
from repro.contracts.registry import StreamConsumer
from repro.contracts.rng_rules import check_rng
from repro.contracts.rules import Finding
from repro.contracts.waivers import Waiver, parse_waivers

__all__ = ["LintError", "LintResult", "lint_paths"]


class LintError(ValueError):
    """The lint run itself failed (unreadable target, syntax error)."""


@dataclass
class LintResult:
    """Outcome of one lint run."""

    root: str
    files_scanned: int
    findings: list[Finding] = field(default_factory=list)
    waivers: list[Waiver] = field(default_factory=list)

    @property
    def active(self) -> list[Finding]:
        """Findings that count against the exit code (not waived)."""
        return [finding for finding in self.findings if not finding.waived]

    @property
    def waived(self) -> list[Finding]:
        return [finding for finding in self.findings if finding.waived]

    @property
    def exit_code(self) -> int:
        return 0 if not self.active else 1


def _discover_files(root: Path, targets: Sequence[str]) -> list[Path]:
    """All ``.py`` files under *targets*, sorted, ``__pycache__`` excluded."""
    files: list[Path] = []
    for target in targets:
        path = Path(target)
        if not path.is_absolute():
            path = root / path
        if path.is_file():
            if path.suffix == ".py":
                files.append(path)
            continue
        if not path.is_dir():
            raise LintError(f"lint target does not exist: {path}")
        files.extend(
            found
            for found in sorted(path.rglob("*.py"))
            if "__pycache__" not in found.parts
        )
    unique: dict[str, Path] = {}
    for found in files:
        unique[str(found.resolve())] = found
    return [unique[key] for key in sorted(unique)]


def _parse_module(path: Path, root: Path) -> ModuleInfo:
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as error:
        raise LintError(f"cannot read {path}: {error}") from error
    try:
        relpath = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        relpath = path.as_posix()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        raise LintError(f"syntax error in {path}: {error}") from error
    return ModuleInfo(
        relpath=relpath,
        module_name=module_name_for(relpath),
        source=source,
        tree=tree,
        waivers=parse_waivers(source, relpath),
    )


def _apply_waivers(
    findings: list[Finding], waivers: Mapping[int, Waiver]
) -> None:
    """Mark findings suppressed by a justified waiver on their line."""
    for finding in findings:
        waiver = waivers.get(finding.line)
        if waiver is None or finding.rule_id not in waiver.rule_ids:
            continue
        waiver.used_for.add(finding.rule_id)
        if waiver.justified:
            finding.waived = True
            finding.justification = waiver.justification


def _waiver_findings(module: ModuleInfo) -> list[Finding]:
    """RC901/RC902 for this module's waiver comments."""
    findings: list[Finding] = []
    for line in sorted(module.waivers):
        waiver = module.waivers[line]
        if not waiver.justified:
            findings.append(
                Finding(
                    "RC901",
                    module.relpath,
                    waiver.line,
                    waiver.col,
                    "waiver must carry a justification: "
                    "# repro: noqa-RC###: <why the contract does not "
                    "apply here>",
                )
            )
        if not waiver.used_for:
            findings.append(
                Finding(
                    "RC902",
                    module.relpath,
                    waiver.line,
                    waiver.col,
                    f"waiver for {', '.join(waiver.rule_ids)} suppresses no "
                    "finding on this line; delete it or fix the rule ID",
                )
            )
    return findings


def lint_paths(
    paths: "Sequence[str] | None" = None,
    *,
    root: "Path | str | None" = None,
    config: "ContractsConfig | None" = None,
    registry: "Mapping[str, tuple[StreamConsumer, ...]] | None" = None,
) -> LintResult:
    """Lint *paths* (default: the configured targets) under *root*.

    *root* defaults to the nearest ancestor of the current directory with a
    ``pyproject.toml``; *config* defaults to that project's
    ``[tool.repro.contracts]`` block merged over the in-tree defaults.
    *registry* overrides the consumption-order registry (tests).
    """
    if root is None:
        found = find_project_root()
        root_path = found if found is not None else Path.cwd()
    else:
        root_path = Path(root)
    if config is None:
        config = load_config(root_path)
    targets = list(paths) if paths else list(config.paths)
    result = LintResult(root=str(root_path), files_scanned=0)
    for path in _discover_files(root_path, targets):
        module = _parse_module(path, root_path)
        result.files_scanned += 1
        findings = check_rng(module, config, registry)
        findings.extend(check_order(module, config))
        findings.extend(check_keys(module, config))
        _apply_waivers(findings, module.waivers)
        findings.extend(_waiver_findings(module))
        result.findings.extend(findings)
        result.waivers.extend(
            module.waivers[line] for line in sorted(module.waivers)
        )
    result.findings.sort(key=lambda finding: (finding.path, finding.line, finding.col, finding.rule_id))
    return result
