"""repro.contracts — the determinism-contract linter (``repro lint``).

Every bitwise guarantee this reproduction makes — fused == solo, resume
bit-for-bit, execution-strategy-free store keys — rests on source
invariants that used to be enforced only by runtime parity tests, *after*
the nondeterminism existed.  This package makes those contracts checkable
from source alone: an AST-based static-analysis pass with three rule classes

* **RNG discipline** (``RC101``–``RC105``): no global-state RNG, wall
  clock, or OS entropy in engine code; Generator construction only inside
  :mod:`repro.rng`; every step/tail stream consumer declared in the
  consumption-order registry.
* **Iteration-order determinism** (``RC201``–``RC203``): sorted directory
  scans everywhere; no set iteration or unsorted JSON encoding in the
  store/shard-planner modules.
* **Store-key purity** (``RC301``–``RC302``): key constructors write
  exactly the whitelisted fields and never reference contract-excluded
  knobs (``jobs``, ``sweep_batch``, ``compaction_fraction``, the legacy
  ``engine`` selector, shard placement).

Violations can be waived per line with ``# repro: noqa-RC###: <why>``;
the justification is mandatory (``RC901``) and stale waivers are flagged
(``RC902``).  Configuration lives in ``[tool.repro.contracts]`` in
``pyproject.toml``; the pass runs via ``repro lint``, the pre-commit hook,
and the ``contracts`` CI job.
"""

from repro.contracts.config import ContractsConfig, DEFAULT_CONFIG, load_config
from repro.contracts.engine import LintError, LintResult, lint_paths
from repro.contracts.registry import CONSUMPTION_ORDER_REGISTRY, StreamConsumer
from repro.contracts.reporter import (
    JSON_SCHEMA_VERSION,
    render_json,
    render_text,
    result_payload,
)
from repro.contracts.rules import RULE_CLASSES, RULES, Finding, Rule, rule
from repro.contracts.waivers import Waiver, parse_waivers

__all__ = [
    "CONSUMPTION_ORDER_REGISTRY",
    "ContractsConfig",
    "DEFAULT_CONFIG",
    "Finding",
    "JSON_SCHEMA_VERSION",
    "LintError",
    "LintResult",
    "RULES",
    "RULE_CLASSES",
    "Rule",
    "StreamConsumer",
    "Waiver",
    "lint_paths",
    "load_config",
    "parse_waivers",
    "render_json",
    "render_text",
    "result_payload",
    "rule",
]
