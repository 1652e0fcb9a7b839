"""Frozen scenario specs: the workload definition every execution layer reads.

A :class:`Scenario` is a dense, immutable description of one consensus
workload: the species, the reaction tables (mass-action orders, net changes,
rate constants), an affine non-mass-action override slot (effective rate
``k_m + l_m · x``, the ``k_unlig + k_lig·n_cat`` catalysis form), the
good/bad event classification, and which species count as *opinions* for the
absorbing/consensus predicates.  The generic execution engine
(:mod:`repro.scenario.engine`), the store-key fingerprint, and the property
tests all consume the same tables, so a scenario is defined exactly once.

This module is also the shared home of the termination codes and the
two-species LV structural tables that :mod:`repro.lv.ensemble` and
:mod:`repro.lv.tau` previously each declared for themselves: the lock-step
``dx`` tables and the runtime-minority good table are now *derived* from the lv2 reaction structure here
(:func:`lv2_change_tables`, :func:`lv2_minority_good_table`), so the
specialised two-species engines and the generic engine can never drift apart.

Deliberately import-light (numpy and :mod:`repro.exceptions` only): every
layer, including the lowest simulation modules, can import this module
without cycles.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.exceptions import InvalidConfigurationError

__all__ = [
    "DEFAULT_SCENARIO",
    "Kinetics",
    "Scenario",
    "TERMINATION_NAMES",
    "TERM_ABSORBED",
    "TERM_CONSENSUS",
    "TERM_MAX_EVENTS",
    "lv2_change_tables",
    "lv2_event_order",
    "lv2_minority_good_table",
    "lv2_reaction_structure",
]

#: Name of the default registered scenario: the paper's two-species
#: competitive LV jump chain, whose exact runs use the specialised engines.
DEFAULT_SCENARIO = "lv2"

#: Termination codes shared by every engine (scalar, lock-step, tau,
#: generic): the single definition the result arrays and the store encode.
TERM_CONSENSUS, TERM_ABSORBED, TERM_MAX_EVENTS = 0, 1, 2
TERMINATION_NAMES = ("consensus", "absorbed", "max-events")


def _canonical_digest(payload: object) -> str:
    """SHA-256 of the canonical JSON encoding (sorted keys, no whitespace)."""
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Scenario:
    """One concrete workload: dense reaction tables plus classification.

    Attributes
    ----------
    name:
        The owning registry family's name (diagnostics and result tagging).
    species:
        Species names, defining the column order of every table.
    rates:
        Base rate constant per reaction (``M`` entries, all non-negative).
    reactants:
        Mass-action orders, one row per reaction: ``reactants[m][s]`` is how
        many copies of species ``s`` reaction ``m`` consumes for its
        propensity (0, 1, or 2; at most total order 2 per reaction).
    changes:
        Net state change per firing, one row per reaction.  Bounded below by
        ``-reactants`` so counts can never go negative under exact SSA.
    good:
        Static good/bad classification per reaction (the scenario analogue
        of the two-species engine's good-event accounting; families use the
        species-0-is-the-initial-majority convention).
    opinion_species:
        Indices of the species that *vote*: a replica reaches consensus when
        exactly one opinion species has a positive count and is absorbed
        when none has.  Non-opinion species (e.g. an inert catalyst) never
        affect termination.
    rate_linear:
        Optional affine non-mass-action override: when given, reaction
        ``m``'s effective rate constant at state ``x`` is
        ``rates[m] + sum_s rate_linear[m][s] * x[s]`` — the
        ``k_unlig + k_lig·n_cat`` catalysis form — before the mass-action
        falling-factorial factor.  Coefficients must be non-negative so
        propensities stay non-negative.
    """

    name: str
    species: tuple[str, ...]
    rates: tuple[float, ...]
    reactants: tuple[tuple[int, ...], ...]
    changes: tuple[tuple[int, ...], ...]
    good: tuple[bool, ...]
    opinion_species: tuple[int, ...]
    rate_linear: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self) -> None:
        s, m = len(self.species), len(self.rates)
        if s < 2:
            raise InvalidConfigurationError(
                f"a scenario needs at least 2 species, got {s}"
            )
        if m < 1:
            raise InvalidConfigurationError("a scenario needs at least one reaction")
        for label, table in (("reactants", self.reactants), ("changes", self.changes)):
            if len(table) != m or any(len(row) != s for row in table):
                raise InvalidConfigurationError(
                    f"{label} must have shape ({m}, {s}), "
                    f"got {len(table)} rows of widths {sorted({len(r) for r in table})}"
                )
        if len(self.good) != m:
            raise InvalidConfigurationError(
                f"good must have {m} entries, got {len(self.good)}"
            )
        for rate in self.rates:
            if not np.isfinite(rate) or rate < 0:
                raise InvalidConfigurationError(f"rates must be finite and >= 0, got {rate}")
        for row in self.reactants:
            if any(order not in (0, 1, 2) for order in row):
                raise InvalidConfigurationError(
                    f"reactant orders must be 0, 1, or 2, got {row}"
                )
            if sum(row) > 2:
                raise InvalidConfigurationError(
                    f"total reaction order must be at most 2, got {row}"
                )
        for m_index, (change_row, order_row) in enumerate(
            zip(self.changes, self.reactants)
        ):
            for change, order in zip(change_row, order_row):
                if change < -order:
                    raise InvalidConfigurationError(
                        f"reaction {m_index} removes more copies than it consumes "
                        f"(change {change} with order {order}); counts could go negative"
                    )
        if self.rate_linear is not None:
            if len(self.rate_linear) != m or any(len(row) != s for row in self.rate_linear):
                raise InvalidConfigurationError(
                    f"rate_linear must have shape ({m}, {s})"
                )
            for row in self.rate_linear:
                for coefficient in row:
                    if not np.isfinite(coefficient) or coefficient < 0:
                        raise InvalidConfigurationError(
                            f"rate_linear coefficients must be finite and >= 0, "
                            f"got {coefficient}"
                        )
        if len(self.opinion_species) < 2:
            raise InvalidConfigurationError(
                "a scenario needs at least 2 opinion species"
            )
        if len(set(self.opinion_species)) != len(self.opinion_species) or any(
            not 0 <= index < s for index in self.opinion_species
        ):
            raise InvalidConfigurationError(
                f"opinion_species must be distinct indices in [0, {s}), "
                f"got {self.opinion_species}"
            )

    # ------------------------------------------------------------------
    # Shapes
    # ------------------------------------------------------------------
    @property
    def num_species(self) -> int:
        return len(self.species)

    @property
    def num_reactions(self) -> int:
        return len(self.rates)

    @property
    def has_override(self) -> bool:
        """Whether the affine non-mass-action rate slot is active."""
        return self.rate_linear is not None and any(
            coefficient != 0.0 for row in self.rate_linear for coefficient in row
        )

    # ------------------------------------------------------------------
    # Dense table views (cached; the frozen dataclass keeps them immutable
    # by convention — engines never write into them)
    # ------------------------------------------------------------------
    @cached_property
    def rate_vector(self) -> np.ndarray:
        return np.array(self.rates, dtype=np.float64)

    @cached_property
    def reactant_matrix(self) -> np.ndarray:
        return np.array(self.reactants, dtype=np.int64)

    @cached_property
    def change_matrix(self) -> np.ndarray:
        return np.array(self.changes, dtype=np.int64)

    @cached_property
    def linear_matrix(self) -> np.ndarray:
        """Affine rate coefficients, a zero matrix when no override is set."""
        if self.rate_linear is None:
            return np.zeros((self.num_reactions, self.num_species), dtype=np.float64)
        return np.array(self.rate_linear, dtype=np.float64)

    @cached_property
    def good_vector(self) -> np.ndarray:
        return np.array(self.good, dtype=bool)

    @cached_property
    def opinion_index(self) -> np.ndarray:
        return np.array(self.opinion_species, dtype=np.int64)

    @cached_property
    def interspecific(self) -> np.ndarray:
        """Mask of encounters: reactions consuming two *distinct* opinion species (order 1+1)."""
        return (self.reactant_matrix[:, self.opinion_index] == 1).sum(axis=1) == 2

    # ------------------------------------------------------------------
    # Kinetics
    # ------------------------------------------------------------------
    def propensities(self, state: Sequence[int]) -> np.ndarray:
        """Naive per-reaction reference evaluation at one state (``(M,)``).

        Scalar Python arithmetic in the engines' canonical operand order —
        the reference the vectorized tables are tested against (and bit-equal
        to, both being IEEE-754 doubles).
        """
        state = np.asarray(state, dtype=np.int64)
        if state.shape != (self.num_species,):
            raise InvalidConfigurationError(
                f"expected a state of length {self.num_species}, got shape {state.shape}"
            )
        values = np.empty(self.num_reactions, dtype=np.float64)
        linear = self.rate_linear
        for m in range(self.num_reactions):
            a = float(self.rates[m])
            if linear is not None:
                for s in range(self.num_species):
                    coefficient = linear[m][s]
                    if coefficient != 0.0:
                        a = a + coefficient * float(state[s])
            for s in range(self.num_species):
                order = self.reactants[m][s]
                if order == 1:
                    a = a * float(state[s])
                elif order == 2:
                    x = float(state[s])
                    a = a * (x * (x - 1.0)) * 0.5
            values[m] = a
        return values

    @cached_property
    def kinetics(self) -> "Kinetics":
        """This scenario's one vectorised propensity path, built once (:class:`Kinetics`)."""
        return Kinetics(self)

    def propensity_rows(self, states: np.ndarray) -> np.ndarray:
        """Vectorized propensity table: ``(W, S)`` states → ``(M, W)`` rows.

        Formed by :attr:`kinetics` with the doubles of :meth:`propensities`
        (see :class:`Kinetics` for why they are equal).
        """
        return self.kinetics.propensities(np.asarray(states).T)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Content hash of the full spec — the store-key scenario component.

        Any change to the tables (species, rates, stoichiometry, overrides,
        classification) changes the fingerprint, so stale cached chunks are
        simply never hit again.
        """
        return _canonical_digest(
            {
                "name": self.name,
                "species": list(self.species),
                "rates": list(self.rates),
                "reactants": [list(row) for row in self.reactants],
                "changes": [list(row) for row in self.changes],
                "good": [bool(flag) for flag in self.good],
                "opinion": list(self.opinion_species),
                "linear": None
                if self.rate_linear is None
                else [list(row) for row in self.rate_linear],
            }
        )


class Kinetics:
    """One scenario's propensities over many states, from one factor table.

    The factor table has ``2S + 1`` rows over the states: the float counts,
    each species' ``x * (x - 1.0)``, and a row of ones.  Reaction ``m``'s
    propensity is ``((k_m * factor[first[m]]) * factor[second[m]]) * half[m]``:
    ``k_m`` is its rate plus its affine terms, added in species order;
    ``first`` and ``second`` name its reactant factors in species order (the
    ones row where it has fewer than two); ``half`` is 0.5 for an order-2
    reactant and 1.0 otherwise.  Multiplying by 1.0 is exact, and a zero
    affine coefficient adds +0.0, so every propensity is the double
    :meth:`Scenario.propensities` forms in its operand order.
    """

    def __init__(self, scenario: Scenario):
        num_species = scenario.num_species
        ones = 2 * num_species
        first, second, half = [], [], []
        for row in scenario.reactant_matrix.tolist():
            factors = [
                species if order == 1 else num_species + species
                for species, order in enumerate(row)
                if order
            ] + [ones, ones]
            first.append(factors[0])
            second.append(factors[1])
            half.append(0.5 if 2 in row else 1.0)
        self.num_species = num_species
        self.first, self.second = np.array(first), np.array(second)
        self.squares = 0.5 in half
        self.half = np.array(half)[:, None] if self.squares else None
        self.rates = scenario.rate_vector[:, None]
        linear = scenario.linear_matrix
        self.linear = [
            (species, linear[:, species, None])
            for species in range(num_species)
            if linear[:, species].any()
        ]

    def factor_table(self, width: int) -> np.ndarray:
        """An empty factor table of *width* columns, its ones row set."""
        factors = np.empty((2 * self.num_species + 1, width))
        factors[-1] = 1.0
        return factors

    def propensities(self, states: np.ndarray, factors: np.ndarray | None = None) -> np.ndarray:
        """The ``(M, W)`` propensities of *states*, ``(S, W)``.

        *factors* is the table to fill (:meth:`factor_table`), a fresh one
        by default.
        """
        if factors is None:
            factors = self.factor_table(states.shape[1])
        counts = factors[: self.num_species]
        np.copyto(counts, states)
        if self.squares:
            squares = factors[self.num_species : -1]
            np.subtract(counts, 1.0, out=squares)
            np.multiply(counts, squares, out=squares)
        if self.linear:
            (species, coefficients), *rest = self.linear
            rows = coefficients * counts[species]
            rows += self.rates
            for species, coefficients in rest:
                rows += coefficients * counts[species]
            rows *= factors.take(self.first, axis=0)
        else:
            rows = factors.take(self.first, axis=0)
            rows *= self.rates
        rows *= factors.take(self.second, axis=0)
        if self.half is not None:
            rows *= self.half
        return rows


# ----------------------------------------------------------------------
# The lv2 reaction structure: the one definition of the two-species tables
# ----------------------------------------------------------------------

#: The lv2 event-index order shared with the scalar simulator:
#: ``birth0, birth1, death0, death1, inter0, inter1, intra0, intra1``.
_LV2_EVENTS = (
    "birth0",
    "birth1",
    "death0",
    "death1",
    "inter0",
    "inter1",
    "intra0",
    "intra1",
)


def lv2_event_order() -> tuple[str, ...]:
    """The two-species event labels in engine index order."""
    return _LV2_EVENTS


def lv2_reaction_structure(
    self_destructive: bool,
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """Reactant orders and net changes of the 8 lv2 reactions, in event order.

    The single structural source of the two-species jump chain: ``inter0``
    is the encounter species 0 wins (the loser dies; under the
    self-destructive mechanism both participants die), ``intra0`` is the
    intraspecific encounter within species 0 (one dies; self-destructively,
    both).
    """
    reactants = (
        (1, 0),  # birth0
        (0, 1),  # birth1
        (1, 0),  # death0
        (0, 1),  # death1
        (1, 1),  # inter0
        (1, 1),  # inter1
        (2, 0),  # intra0
        (0, 2),  # intra1
    )
    if self_destructive:
        changes = (
            (+1, 0),
            (0, +1),
            (-1, 0),
            (0, -1),
            (-1, -1),
            (-1, -1),
            (-2, 0),
            (0, -2),
        )
    else:
        changes = (
            (+1, 0),
            (0, +1),
            (-1, 0),
            (0, -1),
            (0, -1),
            (-1, 0),
            (-1, 0),
            (0, -1),
        )
    return reactants, changes


def lv2_change_tables() -> tuple[np.ndarray, np.ndarray]:
    """The lock-step engine's ``dx0``/``dx1`` tables, derived from the spec.

    Shape ``(2, 9)``: row 0 is the non-self-destructive mechanism, row 1 the
    self-destructive one, matching :class:`repro.lv.params.LVParams.stack`'s
    ``sd`` flag; column 8 is the retired-replica no-op sentinel.
    """
    dx0 = np.zeros((2, 9), dtype=np.int64)
    dx1 = np.zeros((2, 9), dtype=np.int64)
    for row, self_destructive in enumerate((False, True)):
        _, changes = lv2_reaction_structure(self_destructive)
        for event, (change0, change1) in enumerate(changes):
            dx0[row, event] = change0
            dx1[row, event] = change1
    return dx0, dx1


def lv2_minority_good_table() -> np.ndarray:
    """The runtime-minority good table, derived from the lv2 structure.

    ``good_table[r, e]`` says event ``e`` is *good* when the current
    minority is species ``1 - r`` (row 0: species 1 is the minority, row 1:
    species 0 is): the event either decreases the minority's count under
    some mechanism or is an interspecific encounter (which the scalar
    simulator's accounting always counts as good).  Shape ``(2, 9)``;
    column 8 is the retired-replica no-op.
    """
    reactants, nsd_changes = lv2_reaction_structure(False)
    _, sd_changes = lv2_reaction_structure(True)
    interspecific = [sum(1 for order in row if order == 1) == 2 for row in reactants]
    table = np.zeros((2, 9), dtype=bool)
    for row, minority in ((0, 1), (1, 0)):
        for event in range(len(reactants)):
            decreases_minority = (
                nsd_changes[event][minority] < 0 or sd_changes[event][minority] < 0
            )
            table[row, event] = decreases_minority or interspecific[event]
    return table
