"""Registered scenario families: named workloads the whole stack can run.

A :class:`ScenarioFamily` is a *parameterised* scenario: it lowers an
:class:`~repro.lv.params.LVParams` rate container into one concrete frozen
:class:`~repro.scenario.spec.Scenario` (dense tables).  Families keep
``LVParams`` as the universal parameter vehicle — the sweep planners, store
keys, and serialisation already treat it canonically — and each family
documents how it interprets the six rates.

Built-in families:

``lv2``
    The paper's two-species competitive LV jump chain — the default, and
    the one scenario executed by the specialised bitwise-frozen lock-step
    engines rather than the generic engine.
``opinion3`` / ``opinion4``
    k-opinion consensus (k = 3, 4): per-species birth (``beta``) and death
    (``delta``) plus pairwise competition between every ordered pair of
    opinions (winner ``i`` at rate ``alpha0`` when ``i = 0`` else
    ``alpha1``; the loser dies, or both die under the self-destructive
    mechanism) and optional intraspecific competition (``gamma0`` for
    species 0, ``gamma1`` for the others).
``catalysis``
    Two opinions plus an inert catalyst species ``C``: interspecific
    competition fires at the affine rate ``alpha + K_LIG * n_C``
    (:data:`CATALYSIS_K_LIG`) through the spec's non-mass-action override
    slot, so consensus resolves faster at higher catalyst counts.
``resource``
    Two opinions growing on a shared resource ``R`` (Andaur et al.'s
    bounded-growth model): lv2's reactions and rates, with births
    ``X_i + R -> 2 X_i`` consuming one ``R`` and every casualty becoming
    one, so ``x0 + x1 + r`` never changes.  Zero-rate deaths and
    intraspecific reactions are left out of the tables.

:func:`scenario_fingerprint` is the store-key hook: the content hash of the
fully lowered tables for a ``(family, params)`` pair, cached because chunk
keys are minted per member spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

from repro.exceptions import InvalidConfigurationError
from repro.lv.params import LVParams
from repro.scenario.spec import DEFAULT_SCENARIO, Scenario, lv2_reaction_structure

__all__ = [
    "CATALYSIS_K_LIG",
    "DEFAULT_SCENARIO",
    "SCENARIOS",
    "ScenarioFamily",
    "build_scenario",
    "get_family",
    "list_families",
    "scenario_fingerprint",
    "validate_scenario_state",
]

#: Catalysis coupling of the ``catalysis`` family: each catalyst individual
#: adds this much to the interspecific competition rate constants
#: (``effective alpha = alpha + CATALYSIS_K_LIG * n_C``).
CATALYSIS_K_LIG = 0.02


@dataclass(frozen=True)
class ScenarioFamily:
    """One named, parameterised workload family in the registry."""

    name: str
    description: str
    species: tuple[str, ...]
    #: Simulation backends the family supports (``"exact"`` / ``"tau"``).
    backends: tuple[str, ...]
    #: A sensible demo initial state (CLI smoke runs, docs).
    default_initial_state: tuple[int, ...]
    #: Lower an ``LVParams`` into the family's concrete scenario tables.
    build: Callable[[LVParams], Scenario]

    @property
    def num_species(self) -> int:
        return len(self.species)


def _build_lv2(params: LVParams) -> Scenario:
    reactants, changes = lv2_reaction_structure(params.is_self_destructive)
    rates = (
        params.beta,
        params.beta,
        params.delta,
        params.delta,
        params.alpha0,
        params.alpha1,
        params.gamma0,
        params.gamma1,
    )
    # Static species-0-is-the-initial-majority convention: good events are
    # the interspecific encounters plus anything killing species 1.
    good = (False, False, False, True, True, True, False, True)
    return Scenario(
        name="lv2",
        species=("X0", "X1"),
        rates=rates,
        reactants=reactants,
        changes=changes,
        good=good,
        opinion_species=(0, 1),
    )


def _build_opinion(k: int, params: LVParams) -> Scenario:
    species = tuple(f"X{i}" for i in range(k))
    self_destructive = params.is_self_destructive
    rates: list[float] = []
    reactants: list[tuple[int, ...]] = []
    changes: list[tuple[int, ...]] = []
    good: list[bool] = []

    def unit(index: int, value: int) -> tuple[int, ...]:
        row = [0] * k
        row[index] = value
        return tuple(row)

    for i in range(k):  # births
        rates.append(params.beta)
        reactants.append(unit(i, 1))
        changes.append(unit(i, +1))
        good.append(False)
    for i in range(k):  # deaths
        rates.append(params.delta)
        reactants.append(unit(i, 1))
        changes.append(unit(i, -1))
        good.append(i != 0)
    for i in range(k):  # pairwise competition: i wins the encounter with j
        for j in range(k):
            if i == j:
                continue
            rates.append(params.alpha0 if i == 0 else params.alpha1)
            row = [0] * k
            row[i] = 1
            row[j] = 1
            reactants.append(tuple(row))
            change = [0] * k
            change[j] = -1
            if self_destructive:
                change[i] = -1
            changes.append(tuple(change))
            good.append(True)
    for i in range(k):  # intraspecific competition
        gamma = params.gamma0 if i == 0 else params.gamma1
        if gamma == 0.0:
            continue
        rates.append(gamma)
        reactants.append(unit(i, 2))
        changes.append(unit(i, -2 if self_destructive else -1))
        good.append(i != 0)
    return Scenario(
        name=f"opinion{k}",
        species=species,
        rates=tuple(rates),
        reactants=tuple(reactants),
        changes=tuple(changes),
        good=tuple(good),
        opinion_species=tuple(range(k)),
    )


def _build_catalysis(params: LVParams) -> Scenario:
    self_destructive = params.is_self_destructive
    inter_change = (
        ((-1, -1, 0), (-1, -1, 0)) if self_destructive else ((0, -1, 0), (-1, 0, 0))
    )
    return Scenario(
        name="catalysis",
        species=("X0", "X1", "C"),
        rates=(
            params.beta,
            params.beta,
            params.delta,
            params.delta,
            params.alpha0,
            params.alpha1,
        ),
        reactants=(
            (1, 0, 0),
            (0, 1, 0),
            (1, 0, 0),
            (0, 1, 0),
            (1, 1, 0),
            (1, 1, 0),
        ),
        changes=(
            (+1, 0, 0),
            (0, +1, 0),
            (-1, 0, 0),
            (0, -1, 0),
            inter_change[0],
            inter_change[1],
        ),
        good=(False, False, False, True, True, True),
        opinion_species=(0, 1),
        rate_linear=(
            (0.0, 0.0, 0.0),
            (0.0, 0.0, 0.0),
            (0.0, 0.0, 0.0),
            (0.0, 0.0, 0.0),
            (0.0, 0.0, CATALYSIS_K_LIG),
            (0.0, 0.0, CATALYSIS_K_LIG),
        ),
    )


def _build_resource(params: LVParams) -> Scenario:
    # lv2's reactions with R appended: births consume one R and every
    # casualty becomes one, so R's change balances the opinions'.  Births and
    # encounters always stay; zero-rate deaths and intraspecific ones go.
    lv2 = _build_lv2(params)
    keep = [m for m, rate in enumerate(lv2.rates) if rate != 0.0 or m in (0, 1, 4, 5)]
    return Scenario(
        name="resource",
        species=("X0", "X1", "R"),
        rates=tuple(lv2.rates[m] for m in keep),
        reactants=tuple(lv2.reactants[m] + (int(m < 2),) for m in keep),
        changes=tuple(lv2.changes[m] + (-sum(lv2.changes[m]),) for m in keep),
        good=tuple(lv2.good[m] for m in keep),
        opinion_species=(0, 1),
    )


def _build_registry() -> dict[str, ScenarioFamily]:
    families = [
        ScenarioFamily(
            name=DEFAULT_SCENARIO,
            description="Two-species competitive LV jump chain (the paper's model)",
            species=("X0", "X1"),
            backends=("exact", "tau"),
            default_initial_state=(60, 40),
            build=_build_lv2,
        ),
        ScenarioFamily(
            name="opinion3",
            description="3-opinion consensus: pairwise competition between opinions",
            species=("X0", "X1", "X2"),
            backends=("exact", "tau"),
            default_initial_state=(50, 35, 35),
            build=lambda params: _build_opinion(3, params),
        ),
        ScenarioFamily(
            name="opinion4",
            description="4-opinion consensus: pairwise competition between opinions",
            species=("X0", "X1", "X2", "X3"),
            backends=("exact", "tau"),
            default_initial_state=(40, 27, 27, 26),
            build=lambda params: _build_opinion(4, params),
        ),
        ScenarioFamily(
            name="catalysis",
            description="Two opinions + inert catalyst: affine "
            "(k_unlig + k_lig*n_cat) competition rates",
            species=("X0", "X1", "C"),
            backends=("exact", "tau"),
            default_initial_state=(55, 45, 80),
            build=_build_catalysis,
        ),
        ScenarioFamily(
            name="resource",
            description="Two opinions + shared resource R: births X_i + R -> 2 X_i, "
            "every casualty returns to R",
            species=("X0", "X1", "R"),
            backends=("exact", "tau"),
            default_initial_state=(55, 45, 300),
            build=_build_resource,
        ),
    ]
    return {family.name: family for family in families}


#: All registered scenario families, keyed by name.
SCENARIOS: dict[str, ScenarioFamily] = _build_registry()


def list_families() -> list[ScenarioFamily]:
    """All registered families, default first, then alphabetically."""
    names = sorted(SCENARIOS, key=lambda name: (name != DEFAULT_SCENARIO, name))
    return [SCENARIOS[name] for name in names]


def get_family(name: str) -> ScenarioFamily:
    """Look up one scenario family by name."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise InvalidConfigurationError(
            f"unknown scenario {name!r}; registered scenarios: {sorted(SCENARIOS)}"
        ) from None


@lru_cache(maxsize=512)
def build_scenario(name: str, params: LVParams) -> Scenario:
    """The concrete scenario of ``(family, params)`` (cached; both frozen)."""
    return get_family(name).build(params)


@lru_cache(maxsize=2048)
def scenario_fingerprint(name: str, params: LVParams) -> str:
    """Content hash of the fully lowered scenario tables — the store-key
    component that folds the scenario identity into every chunk key."""
    return build_scenario(name, params).fingerprint()


def validate_scenario_state(name: str, initial_state: Sequence[int]) -> tuple[int, ...]:
    """Validate and normalise an initial state for the named family."""
    family = get_family(name)
    counts = tuple(int(count) for count in initial_state)
    if len(counts) != family.num_species:
        raise InvalidConfigurationError(
            f"scenario {name!r} has {family.num_species} species "
            f"({', '.join(family.species)}), got initial state of length {len(counts)}"
        )
    if any(count < 0 for count in counts):
        raise InvalidConfigurationError(
            f"species counts must be non-negative, got {counts}"
        )
    return counts
