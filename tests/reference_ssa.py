"""Independent dict-based reference for the competitive LV jump chain.

A Gillespie direct method over plain dicts, in the style of a minimal CRN
simulator, plus the exact one-step distribution of the embedded jump chain.
The two-species reaction list is written straight from the paper's
definitions of the self-destructive (SD) and non-self-destructive (NSD)
mechanisms.  Nothing here imports simulation or propensity code from
:mod:`repro`, so the fast simulator and the scenario propensity tables are
checked against code that shares none of their logic.
"""

from __future__ import annotations

import random
from typing import NamedTuple


class Reaction(NamedTuple):
    """One reaction: mass-action orders and net change, keyed by species name.

    The effective rate constant is ``rate + sum(k * n_s for s, k in catalysts)``
    (the ``k_unlig + k_lig * n_cat`` law of catalysed reactions).
    """

    rate: float
    reactants: dict[str, int]
    change: dict[str, int]
    catalysts: dict[str, float] = {}


def lv_reactions(params) -> list[Reaction]:
    """Births, deaths, then inter- and intraspecific competition for X0 and X1.

    ``Xi -> 2 Xi`` at rate beta and ``Xi -> 0`` at rate delta.  In an
    encounter that species i wins (``alpha_i`` with the other species,
    ``gamma_i`` with its own), the loser dies; under SD the winner dies too.
    """
    sd = params.is_self_destructive
    return [
        *(Reaction(params.beta, {s: 1}, {s: +1}) for s in ("X0", "X1")),
        *(Reaction(params.delta, {s: 1}, {s: -1}) for s in ("X0", "X1")),
        Reaction(params.alpha0, {"X0": 1, "X1": 1}, {"X0": -1, "X1": -1} if sd else {"X1": -1}),
        Reaction(params.alpha1, {"X0": 1, "X1": 1}, {"X0": -1, "X1": -1} if sd else {"X0": -1}),
        Reaction(params.gamma0, {"X0": 2}, {"X0": -2 if sd else -1}),
        Reaction(params.gamma1, {"X1": 2}, {"X1": -2 if sd else -1}),
    ]


def opinion_reactions(k: int, params) -> list[Reaction]:
    """k-opinion consensus: births, deaths, every ordered encounter, then intra.

    Opinion i wins its encounter with opinion j != i at rate alpha0 if i is 0
    and alpha1 otherwise; the loser dies, and under SD the winner too.
    Intraspecific competition (gamma0 for opinion 0, gamma1 for the others)
    is listed only where its rate is positive.
    """
    names = [f"X{i}" for i in range(k)]
    sd = params.is_self_destructive
    encounters = [
        Reaction(
            params.alpha0 if i == 0 else params.alpha1,
            {names[i]: 1, names[j]: 1},
            {names[i]: -1, names[j]: -1} if sd else {names[j]: -1},
        )
        for i in range(k)
        for j in range(k)
        if i != j
    ]
    gammas = [params.gamma0] + [params.gamma1] * (k - 1)
    return [
        *(Reaction(params.beta, {s: 1}, {s: +1}) for s in names),
        *(Reaction(params.delta, {s: 1}, {s: -1}) for s in names),
        *encounters,
        *(Reaction(g, {s: 2}, {s: -2 if sd else -1}) for s, g in zip(names, gammas) if g > 0),
    ]


def catalysis_reactions(params, k_lig: float) -> list[Reaction]:
    """Two opinions and an inert catalyst C adding ``k_lig * n_C`` to each encounter rate."""
    reactions = lv_reactions(params)
    return [*reactions[:4], *(r._replace(catalysts={"C": k_lig}) for r in reactions[4:6])]


def resource_reactions(params) -> list[Reaction]:
    """Two opinions growing on a shared resource R; every casualty becomes R.

    ``Xi + R -> 2 Xi`` at rate beta and ``Xi -> R`` at rate delta.  In an
    encounter that species i wins (``alpha_i`` with the other species,
    ``gamma_i`` with its own), the loser turns into R; under SD the winner
    too.  Deaths and intraspecific competition are listed only where their
    rate is positive.
    """
    sd = params.is_self_destructive
    names = ("X0", "X1")

    def casualties(*dead: str) -> dict[str, int]:
        change: dict[str, int] = {"R": 0}
        for s in dead:
            change[s] = change.get(s, 0) - 1
            change["R"] += 1
        return change

    return [
        *(Reaction(params.beta, {s: 1, "R": 1}, {s: +1, "R": -1}) for s in names),
        *(Reaction(params.delta, {s: 1}, casualties(s)) for s in names if params.delta > 0),
        *(
            Reaction(rate, {"X0": 1, "X1": 1}, casualties("X0", "X1") if sd else casualties(loser))
            for rate, loser in ((params.alpha0, "X1"), (params.alpha1, "X0"))
        ),
        *(
            Reaction(g, {s: 2}, casualties(s, s) if sd else casualties(s))
            for s, g in zip(names, (params.gamma0, params.gamma1))
            if g > 0
        ),
    ]


def propensity(reaction: Reaction, counts: dict[str, int]) -> float:
    """``rate * x_first * x_second`` in the state's species order; ``x(x-1)/2`` pairs."""
    a = reaction.rate
    for species, k in sorted(reaction.catalysts.items()):
        a = a + k * counts[species]
    for species in counts:
        order = reaction.reactants.get(species, 0)
        if order:
            x = float(counts[species])
            a = a * (x * (x - 1.0) * 0.5 if order == 2 else x)
    return a


def one_step_distribution(reactions, counts) -> dict[tuple[int, ...], float]:
    """Exact probabilities of the jump chain's next state, keyed by sorted species."""
    weights = [propensity(reaction, counts) for reaction in reactions]
    total = sum(weights)
    distribution: dict[tuple[int, ...], float] = {}
    for reaction, weight in zip(reactions, weights):
        if weight > 0.0:
            target = tuple(counts[s] + reaction.change.get(s, 0) for s in sorted(counts))
            distribution[target] = distribution.get(target, 0.0) + weight / total
    return distribution


def direct_method(reactions, counts, rng: random.Random, stop) -> tuple[dict[str, int], float]:
    """Gillespie's direct method from *counts* until ``stop(counts)`` or no reaction can fire."""
    counts, time = dict(counts), 0.0
    while not stop(counts):
        weights = [propensity(reaction, counts) for reaction in reactions]
        total = sum(weights)
        if total <= 0.0:
            break
        time += rng.expovariate(total)
        (fired,) = rng.choices(reactions, weights=weights)
        for species, change in fired.change.items():
            counts[species] += change
    return counts, time
