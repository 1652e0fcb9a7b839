"""Scenario abstraction: named multi-species workloads over dense tables.

The package lifts the two-species assumption out of the execution stack:

- :mod:`repro.scenario.spec` — the frozen :class:`Scenario` dataclass
  (dense propensity/stoichiometry tables, affine non-mass-action override
  slot, good/bad event classification, absorbing/consensus predicates) plus
  the shared termination constants and the derivation of the two-species
  tables the specialised engines use.
- :mod:`repro.scenario.registry` — named, parameterised scenario families
  (``lv2`` default, ``opinion3``/``opinion4`` k-opinion consensus,
  ``catalysis``, ``resource``), lowered from :class:`~repro.lv.params.LVParams`.
- :mod:`repro.scenario.engine` — the generic exact/tau execution engine:
  exact runs of the non-default scenarios and tau runs of every scenario.

Layering note: low layers (``repro.lv.*``) import **only**
``repro.scenario.spec`` directly (import-light: numpy + exceptions) and
lazily import the registry/engine inside functions; this module eagerly
re-exports the spec and registry surface for high layers (experiments,
CLI, tests).
"""

from repro.scenario.registry import (
    CATALYSIS_K_LIG,
    SCENARIOS,
    ScenarioFamily,
    build_scenario,
    get_family,
    list_families,
    scenario_fingerprint,
    validate_scenario_state,
)
from repro.scenario.spec import (
    DEFAULT_SCENARIO,
    TERM_ABSORBED,
    TERM_CONSENSUS,
    TERM_MAX_EVENTS,
    TERMINATION_NAMES,
    Scenario,
    lv2_change_tables,
    lv2_event_order,
    lv2_minority_good_table,
    lv2_reaction_structure,
)

__all__ = [
    "CATALYSIS_K_LIG",
    "DEFAULT_SCENARIO",
    "SCENARIOS",
    "Scenario",
    "ScenarioFamily",
    "TERMINATION_NAMES",
    "TERM_ABSORBED",
    "TERM_CONSENSUS",
    "TERM_MAX_EVENTS",
    "build_scenario",
    "get_family",
    "list_families",
    "lv2_change_tables",
    "lv2_event_order",
    "lv2_minority_good_table",
    "lv2_reaction_structure",
    "scenario_fingerprint",
    "validate_scenario_state",
]
