"""Tests of the independent reference in ``reference_ssa``.

The reference is the oracle the fast simulator, the scenario tables and the
engines are checked against, so it is pinned here to the paper's
definitions, written out by hand: the reaction lists of the self-destructive
(SD) and non-self-destructive (NSD) mechanisms and of the k-opinion and
catalysis families, the mass-action propensity law, the exact one-step
distribution of the jump chain, and the direct method's stopping and timing.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.lv.params import CompetitionMechanism, LVParams

from reference_ssa import (
    Reaction,
    catalysis_reactions,
    direct_method,
    lv_reactions,
    one_step_distribution,
    opinion_reactions,
    propensity,
)

SD = CompetitionMechanism.SELF_DESTRUCTIVE
NSD = CompetitionMechanism.NON_SELF_DESTRUCTIVE
MECHANISMS = pytest.mark.parametrize("mechanism", [SD, NSD], ids=["SD", "NSD"])


def _params(mechanism: CompetitionMechanism, **rates: float) -> LVParams:
    """Distinct rates everywhere, so a swapped or misrouted rate cannot go unseen."""
    fields = dict(beta=0.8, delta=1.2, alpha0=0.4, alpha1=0.6, gamma0=0.3, gamma1=0.7)
    fields.update(rates)
    return LVParams(mechanism=mechanism, **fields)


def _pure_death(delta: float) -> list[Reaction]:
    return [Reaction(delta, {"X": 1}, {"X": -1})]


class TestLVReactions:
    """``lv_reactions`` against Eq. 1 (SD) and Eq. 2 (NSD) of the paper."""

    @MECHANISMS
    def test_eight_reactions_in_engine_order(self, mechanism):
        params = _params(mechanism)
        reactions = lv_reactions(params)
        assert [r.rate for r in reactions] == [0.8, 0.8, 1.2, 1.2, 0.4, 0.6, 0.3, 0.7]
        assert [r.reactants for r in reactions] == [
            {"X0": 1},
            {"X1": 1},
            {"X0": 1},
            {"X1": 1},
            {"X0": 1, "X1": 1},
            {"X0": 1, "X1": 1},
            {"X0": 2},
            {"X1": 2},
        ]
        assert all(r.catalysts == {} for r in reactions)

    @MECHANISMS
    def test_births_and_deaths_change_one_individual(self, mechanism):
        births_and_deaths = lv_reactions(_params(mechanism))[:4]
        assert [r.change for r in births_and_deaths] == [
            {"X0": +1},
            {"X1": +1},
            {"X0": -1},
            {"X1": -1},
        ]

    @pytest.mark.parametrize(
        "mechanism, winner, change",
        [
            (SD, 0, {"X0": -1, "X1": -1}),
            (SD, 1, {"X0": -1, "X1": -1}),
            (NSD, 0, {"X1": -1}),
            (NSD, 1, {"X0": -1}),
        ],
        ids=["SD-X0-wins", "SD-X1-wins", "NSD-X0-wins", "NSD-X1-wins"],
    )
    def test_interspecific_encounter(self, mechanism, winner, change):
        # The loser dies; under SD the winner dies with it.
        assert lv_reactions(_params(mechanism))[4 + winner].change == change

    @pytest.mark.parametrize(
        "mechanism, species, change",
        [(SD, 0, -2), (SD, 1, -2), (NSD, 0, -1), (NSD, 1, -1)],
        ids=["SD-X0", "SD-X1", "NSD-X0", "NSD-X1"],
    )
    def test_intraspecific_encounter(self, mechanism, species, change):
        assert lv_reactions(_params(mechanism))[6 + species].change == {f"X{species}": change}

    @MECHANISMS
    def test_no_reaction_removes_more_than_it_consumes(self, mechanism):
        for reaction in lv_reactions(_params(mechanism)):
            for species, change in reaction.change.items():
                assert change >= -reaction.reactants.get(species, 0)


class TestFamilyReactions:
    """The k-opinion and catalysis reaction lists."""

    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("gamma", [0.0, 0.5], ids=["no-intra", "intra"])
    def test_opinion_reaction_count(self, k, gamma):
        params = _params(SD, gamma0=gamma, gamma1=gamma)
        expected = 2 * k + k * (k - 1) + (k if gamma else 0)
        assert len(opinion_reactions(k, params)) == expected

    @pytest.mark.parametrize("k", [3, 4])
    def test_every_ordered_pair_competes_once(self, k):
        encounters = [r for r in opinion_reactions(k, _params(NSD)) if len(r.reactants) == 2]
        winners_and_losers = [
            (next(s for s in r.reactants if s not in r.change), next(iter(r.change)))
            for r in encounters
        ]
        assert sorted(winners_and_losers) == sorted(
            (f"X{i}", f"X{j}") for i in range(k) for j in range(k) if i != j
        )

    def test_opinion_zero_wins_at_alpha0_and_the_others_at_alpha1(self):
        params = _params(NSD)
        for reaction in opinion_reactions(4, params):
            if len(reaction.reactants) == 2:
                (loser,) = reaction.change
                (winner,) = set(reaction.reactants) - {loser}
                assert reaction.rate == (params.alpha0 if winner == "X0" else params.alpha1)

    @MECHANISMS
    def test_two_opinions_reduce_to_the_lv_reactions(self, mechanism):
        params = _params(mechanism)
        assert opinion_reactions(2, params) == lv_reactions(params)

    def test_catalyst_is_inert(self):
        for reaction in catalysis_reactions(_params(SD), 0.02):
            assert "C" not in reaction.change
            assert "C" not in reaction.reactants

    def test_only_encounters_are_catalysed(self):
        reactions = catalysis_reactions(_params(SD), 0.02)
        assert [r.catalysts for r in reactions] == [{}, {}, {}, {}, {"C": 0.02}, {"C": 0.02}]
        assert [r._replace(catalysts={}) for r in reactions] == lv_reactions(_params(SD))[:6]


class TestPropensity:
    """Mass action: rate times reactant counts, ``x(x-1)/2`` for a same-species pair."""

    @pytest.mark.parametrize("x", [0, 1, 7])
    def test_unary_is_rate_times_count(self, x):
        assert propensity(Reaction(1.5, {"A": 1}, {"A": -1}), {"A": x}) == 1.5 * x

    @pytest.mark.parametrize("x", range(6))
    def test_same_species_pair_counts_unordered_pairs(self, x):
        reaction = Reaction(0.7, {"A": 2}, {"A": -1})
        assert propensity(reaction, {"A": x}) == pytest.approx(0.7 * math.comb(x, 2), rel=1e-15)

    def test_distinct_species_pair_is_the_product(self):
        reaction = Reaction(0.25, {"A": 1, "B": 1}, {"B": -1})
        assert propensity(reaction, {"A": 6, "B": 9}) == 0.25 * 6 * 9
        assert propensity(reaction, {"A": 0, "B": 9}) == 0.0

    def test_zero_order_reaction_fires_at_its_rate(self):
        assert propensity(Reaction(2.5, {}, {"A": +1}), {"A": 0}) == 2.5

    def test_catalysts_shift_the_rate_constant(self):
        reaction = Reaction(0.1, {"A": 1, "B": 1}, {"B": -1}, catalysts={"C": 0.02})
        assert propensity(reaction, {"A": 3, "B": 4, "C": 0}) == pytest.approx(0.1 * 12)
        assert propensity(reaction, {"A": 3, "B": 4, "C": 50}) == pytest.approx(1.1 * 12)

    @pytest.mark.parametrize("state", [(0, 0), (1, 0), (0, 1), (1, 1), (2, 3), (10, 4)], ids=str)
    def test_total_matches_the_paper_formula(self, state):
        # phi(x0, x1) = (beta + delta)(x0 + x1) + alpha x0 x1 + sum_i gamma_i C(x_i, 2).
        params = _params(SD)
        x0, x1 = state
        total = sum(propensity(r, {"X0": x0, "X1": x1}) for r in lv_reactions(params))
        expected = (
            (params.beta + params.delta) * (x0 + x1)
            + (params.alpha0 + params.alpha1) * x0 * x1
            + params.gamma0 * math.comb(x0, 2)
            + params.gamma1 * math.comb(x1, 2)
        )
        assert total == pytest.approx(expected, rel=1e-12)


class TestOneStepDistribution:
    @MECHANISMS
    @pytest.mark.parametrize("state", [(1, 1), (5, 3), (2, 7)], ids=str)
    def test_probabilities_sum_to_one(self, mechanism, state):
        counts = {"X0": state[0], "X1": state[1]}
        distribution = one_step_distribution(lv_reactions(_params(mechanism)), counts)
        assert sum(distribution.values()) == pytest.approx(1.0, rel=1e-12)
        assert all(probability > 0.0 for probability in distribution.values())

    def test_support_is_the_reaction_targets(self):
        distribution = one_step_distribution(lv_reactions(_params(NSD)), {"X0": 5, "X1": 3})
        # NSD: X0 wins -> (5, 2) like a death of X1; X1 wins -> (4, 3) like a death of X0.
        assert set(distribution) == {(6, 3), (5, 4), (4, 3), (5, 2)}

    def test_mechanisms_share_birth_probabilities(self):
        counts = {"X0": 5, "X1": 3}
        sd = one_step_distribution(lv_reactions(_params(SD)), counts)
        nsd = one_step_distribution(lv_reactions(_params(NSD)), counts)
        for birth in [(6, 3), (5, 4)]:
            assert sd[birth] == nsd[birth]

    def test_sd_dead_heat_reachable_from_one_one(self):
        params = _params(SD)
        distribution = one_step_distribution(lv_reactions(params), {"X0": 1, "X1": 1})
        phi = 2 * (params.beta + params.delta) + params.alpha0 + params.alpha1
        assert distribution[(0, 0)] == pytest.approx((params.alpha0 + params.alpha1) / phi)

    def test_absorbing_state_has_no_successor(self):
        assert one_step_distribution(lv_reactions(_params(SD)), {"X0": 0, "X1": 0}) == {}


class TestDirectMethod:
    def test_reproducible_with_seed(self):
        reactions = lv_reactions(_params(NSD))
        start = {"X0": 9, "X1": 6}

        def stop(counts):
            return 0 in counts.values()

        first = direct_method(reactions, start, random.Random(3), stop)
        second = direct_method(reactions, start, random.Random(3), stop)
        assert first == second
        assert start == {"X0": 9, "X1": 6}, "the initial counts are not mutated"

    def test_stop_checked_before_the_first_event(self):
        final, time = direct_method(
            lv_reactions(_params(SD)), {"X0": 4, "X1": 0}, random.Random(0), lambda c: True
        )
        assert (final, time) == ({"X0": 4, "X1": 0}, 0.0)

    def test_absorbed_when_no_reaction_can_fire(self):
        final, time = direct_method(
            _pure_death(1.0), {"X": 0}, random.Random(0), lambda counts: False
        )
        assert (final, time) == ({"X": 0}, 0.0)

    def test_pure_death_reaches_extinction(self):
        final, time = direct_method(
            _pure_death(2.0), {"X": 30}, random.Random(5), lambda counts: False
        )
        assert final == {"X": 0}
        assert time > 0.0

    def test_pure_death_extinction_time_matches_harmonic_sum(self):
        # From n, the k-th holding time is Exp(k * delta): E[T] = H_n / delta
        # and Var[T] = sum 1/k^2 / delta^2.
        n, delta, runs = 20, 2.0, 2000
        rng = random.Random(8)
        times = [
            direct_method(_pure_death(delta), {"X": n}, rng, lambda counts: False)[1]
            for _ in range(runs)
        ]
        mean = sum(1.0 / k for k in range(1, n + 1)) / delta
        sd = math.sqrt(sum(1.0 / k**2 for k in range(1, n + 1))) / delta
        z = (sum(times) / runs - mean) / (sd / math.sqrt(runs))
        assert abs(z) <= 4.0

    @MECHANISMS
    def test_counts_never_go_negative(self, mechanism):
        seen: list[dict[str, int]] = []

        def stop(counts):
            seen.append(dict(counts))
            return 0 in counts.values()

        rng = random.Random(1)
        for _ in range(50):
            direct_method(lv_reactions(_params(mechanism)), {"X0": 3, "X1": 2}, rng, stop)
        assert len(seen) > 100
        assert all(count >= 0 for counts in seen for count in counts.values())

    def test_first_event_frequencies_match_one_step_distribution(self):
        reactions = lv_reactions(_params(SD))
        start = {"X0": 5, "X1": 3}
        exact = one_step_distribution(reactions, start)
        rng = random.Random(2)
        runs = 4000
        observed: dict[tuple[int, ...], int] = {}
        for _ in range(runs):
            final, _ = direct_method(reactions, start, rng, lambda c: c != start)
            target = (final["X0"], final["X1"])
            observed[target] = observed.get(target, 0) + 1
        assert set(observed) <= set(exact)
        for target, probability in exact.items():
            spread = math.sqrt(runs * probability * (1.0 - probability))
            assert abs(observed.get(target, 0) - runs * probability) <= 4.0 * spread

    def test_holding_time_is_exponential_with_the_total_rate(self):
        reactions = lv_reactions(_params(NSD))
        start = {"X0": 5, "X1": 3}
        phi = sum(propensity(r, start) for r in reactions)
        rng = random.Random(6)
        runs = 4000
        times = [direct_method(reactions, start, rng, lambda c: c != start)[1] for _ in range(runs)]
        # Exp(phi) has mean and standard deviation 1 / phi.
        z = (sum(times) / runs - 1.0 / phi) / ((1.0 / phi) / math.sqrt(runs))
        assert abs(z) <= 4.0
