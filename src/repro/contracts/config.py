"""Configuration of the determinism-contract linter.

The defaults below encode this repository's layout — which directories are
*engine code* (RNG discipline applies), which modules are *order-critical*
(iteration-order rules apply), where the key constructors live —
and a ``[tool.repro.contracts]`` block in ``pyproject.toml`` can override any
of them, so the linter stays useful on forks that move things around.

All paths are stored and compared **relative to the project root** (the
directory holding ``pyproject.toml``), using ``/`` separators on every
platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Mapping

__all__ = [
    "ContractsConfig",
    "DEFAULT_CONFIG",
    "find_project_root",
    "load_config",
]


def _default_allowed_key_fields() -> dict[str, tuple[str, ...]]:
    return {
        "params_payload": (
            "beta",
            "delta",
            "alpha0",
            "alpha1",
            "gamma0",
            "gamma1",
            "mechanism",
        ),
        "chunk_key": (
            "schema",
            "params",
            "counts",
            "num_replicates",
            "seed",
            "max_events",
            "backend",
            "collect",
            "scenario",
            "tau_epsilon",
        ),
        "scheduler_fingerprint": (
            "batch_size",
            "wave_quantum",
            "backend",
            "tau_epsilon",
            "precision",
            "ci_half_width",
            "relative_error",
            "confidence",
            "min_replicates",
            "max_replicates",
        ),
        "config_hash": ("scale", "scheduler"),
        "run_key": ("experiment", "config", "seed_root", "schema"),
    }


@dataclass(frozen=True)
class ContractsConfig:
    """Every knob of the linter, with this repository's defaults."""

    #: Default lint targets when the CLI receives no explicit paths.
    paths: tuple[str, ...] = ("src/repro",)
    #: Directories whose code is *engine code*: the RNG-discipline rules
    #: (RC101–RC104) apply to every file under them.
    engine_paths: tuple[str, ...] = (
        "src/repro/lv",
        "src/repro/scenario",
        "src/repro/store",
    )
    #: Files allowed to construct Generators/SeedSequences directly (the
    #: single home of seeding policy).
    rng_modules: tuple[str, ...] = ("src/repro/rng.py",)
    #: Modules where iteration order reaches persisted bytes or planning
    #: decisions: the set-iteration and JSON-ordering rules (RC202/RC203)
    #: apply here.  RC201 (unsorted directory scans) applies everywhere.
    order_critical_paths: tuple[str, ...] = (
        "src/repro/store",
        "src/repro/shard",
    )
    #: The module defining the store's key constructors.
    keys_modules: tuple[str, ...] = ("src/repro/store/keys.py",)
    #: Key constructor -> exact whitelist of payload field names it may
    #: write (RC301).
    allowed_key_fields: dict[str, tuple[str, ...]] = field(
        default_factory=_default_allowed_key_fields
    )
    #: Identifiers the keying contract excludes: any reference inside a key
    #: constructor is RC302.
    excluded_key_fields: tuple[str, ...] = (
        "jobs",
        "sweep_batch",
        "compaction_fraction",
        "engine",
        "shards",
        "shard_index",
    )
    #: Identifier substrings that mark an expression as touching a member's
    #: step/tail RNG stream (RC104's consumer detection).
    stream_identifiers: tuple[str, ...] = (
        "step_generator",
        "tail_generator",
        "step_generators",
        "tail_generators",
    )

    def merged_with(self, overrides: Mapping[str, Any]) -> "ContractsConfig":
        """A copy with *overrides* (pyproject block entries) applied."""
        known = {entry.name for entry in fields(self)}
        updates: dict[str, Any] = {}
        for raw_name, value in overrides.items():
            name = raw_name.replace("-", "_")
            if name not in known:
                raise ValueError(
                    f"unknown [tool.repro.contracts] option {raw_name!r}; "
                    f"known options: {', '.join(sorted(known))}"
                )
            if name == "allowed_key_fields":
                if not isinstance(value, Mapping):
                    raise ValueError(
                        "allowed-key-fields must be a table of "
                        "function -> field list"
                    )
                updates[name] = {
                    str(function): tuple(str(item) for item in items)
                    for function, items in value.items()
                }
            else:
                updates[name] = tuple(str(item) for item in value)
        return replace(self, **updates)


#: The in-tree defaults (what `repro lint` uses when pyproject has no block).
DEFAULT_CONFIG = ContractsConfig()


def find_project_root(start: "Path | None" = None) -> Path | None:
    """The nearest ancestor of *start* (default: cwd) holding pyproject.toml."""
    here = (start or Path.cwd()).resolve()
    for candidate in (here, *here.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return None


def load_config(root: "Path | None" = None) -> ContractsConfig:
    """The linter configuration for the project at *root*.

    Reads the ``[tool.repro.contracts]`` block of ``<root>/pyproject.toml``
    when present; missing file, missing block, or an unavailable TOML parser
    all fall back to :data:`DEFAULT_CONFIG`.
    """
    if root is None:
        root = find_project_root()
    if root is None:
        return DEFAULT_CONFIG
    pyproject = Path(root) / "pyproject.toml"
    if not pyproject.is_file():
        return DEFAULT_CONFIG
    try:
        import tomllib
    except ImportError:  # pragma: no cover - Python 3.10 without tomllib
        return DEFAULT_CONFIG
    with pyproject.open("rb") as handle:
        payload: dict[str, Any] = tomllib.load(handle)
    tool = payload.get("tool")
    if not isinstance(tool, dict):
        return DEFAULT_CONFIG
    repro_block = tool.get("repro")
    if not isinstance(repro_block, dict):
        return DEFAULT_CONFIG
    contracts_block = repro_block.get("contracts")
    if not isinstance(contracts_block, dict):
        return DEFAULT_CONFIG
    return DEFAULT_CONFIG.merged_with(contracts_block)
