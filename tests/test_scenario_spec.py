"""Tests for the scenario spec layer (:mod:`repro.scenario.spec` / registry).

Covers the frozen :class:`Scenario` validation contract, fingerprint
stability, the lv2 table derivation (which must reproduce the lock-step
engine's historical literals bit for bit), the registry families (each
family's tables, good flags and propensities against the reaction lists that
``reference_ssa`` writes from the family definitions), and seeded
property-based checks of the vectorized propensity tables against the naive
per-reaction reference — and against the independent dict-based reference in
``reference_ssa`` — for randomly generated k-species networks and for the
catalysis family's affine rate law.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import InvalidConfigurationError
from repro.lv.simulator import _DX0_TABLE, _DX1_TABLE, _GOOD_TABLE
from repro.lv.params import CompetitionMechanism, LVParams
from repro.scenario.registry import (
    CATALYSIS_K_LIG,
    SCENARIOS,
    build_scenario,
    get_family,
    list_families,
    scenario_fingerprint,
    validate_scenario_state,
)
from repro.scenario.spec import (
    DEFAULT_SCENARIO,
    Scenario,
    lv2_change_tables,
    lv2_event_order,
    lv2_minority_good_table,
)

from reference_ssa import (
    Reaction,
    catalysis_reactions,
    lv_reactions,
    opinion_reactions,
    propensity,
    resource_reactions,
)

PARAMS = LVParams.self_destructive(beta=1.0, delta=1.0, alpha=1.0)


def _toy_scenario(**overrides) -> Scenario:
    """A minimal valid 2-species scenario, with keyword overrides."""
    fields = dict(
        name="toy",
        species=("A", "B"),
        rates=(1.0, 0.5),
        reactants=((1, 0), (1, 1)),
        changes=((+1, 0), (-1, -1)),
        good=(False, True),
        opinion_species=(0, 1),
    )
    fields.update(overrides)
    return Scenario(**fields)


class TestScenarioValidation:
    def test_valid_scenario_constructs(self):
        scenario = _toy_scenario()
        assert scenario.num_species == 2
        assert scenario.num_reactions == 2
        assert not scenario.has_override

    def test_single_species_rejected(self):
        with pytest.raises(InvalidConfigurationError, match="at least 2 species"):
            _toy_scenario(
                species=("A",),
                reactants=((1,), (1,)),
                changes=((+1,), (-1,)),
                opinion_species=(0,),
            )

    def test_no_reactions_rejected(self):
        with pytest.raises(InvalidConfigurationError, match="at least one reaction"):
            _toy_scenario(rates=(), reactants=(), changes=(), good=())

    def test_table_shape_mismatch_rejected(self):
        with pytest.raises(InvalidConfigurationError, match="reactants"):
            _toy_scenario(reactants=((1, 0),))
        with pytest.raises(InvalidConfigurationError, match="changes"):
            _toy_scenario(changes=((+1, 0), (-1,)))
        with pytest.raises(InvalidConfigurationError, match="good"):
            _toy_scenario(good=(True,))

    def test_negative_rate_rejected(self):
        with pytest.raises(InvalidConfigurationError, match="finite and >= 0"):
            _toy_scenario(rates=(-1.0, 0.5))

    def test_order_above_two_rejected(self):
        with pytest.raises(InvalidConfigurationError, match="at most 2"):
            _toy_scenario(reactants=((1, 0), (2, 1)))
        with pytest.raises(InvalidConfigurationError, match="orders must be"):
            _toy_scenario(reactants=((3, 0), (1, 1)))

    def test_change_below_minus_order_rejected(self):
        # Reaction 0 consumes one A but removes two: counts could go negative.
        with pytest.raises(InvalidConfigurationError, match="removes more copies"):
            _toy_scenario(changes=((-2, 0), (-1, -1)))

    def test_rate_linear_shape_and_sign_validated(self):
        with pytest.raises(InvalidConfigurationError, match="rate_linear"):
            _toy_scenario(rate_linear=((0.0, 0.0),))
        with pytest.raises(InvalidConfigurationError, match="coefficients"):
            _toy_scenario(rate_linear=((0.0, -0.1), (0.0, 0.0)))

    def test_opinion_species_validated(self):
        with pytest.raises(InvalidConfigurationError, match="opinion"):
            _toy_scenario(opinion_species=(0,))
        with pytest.raises(InvalidConfigurationError, match="distinct"):
            _toy_scenario(opinion_species=(0, 0))
        with pytest.raises(InvalidConfigurationError, match="indices"):
            _toy_scenario(opinion_species=(0, 5))

    def test_has_override_requires_nonzero_coefficient(self):
        zero = _toy_scenario(rate_linear=((0.0, 0.0), (0.0, 0.0)))
        active = _toy_scenario(rate_linear=((0.0, 0.0), (0.0, 0.5)))
        assert not zero.has_override
        assert active.has_override

    def test_wrong_state_shape_rejected(self):
        with pytest.raises(InvalidConfigurationError, match="state of length 2"):
            _toy_scenario().propensities([1, 2, 3])

    def test_order_zero_reaction_fires_at_its_rate(self):
        scenario = _toy_scenario(reactants=((0, 0), (1, 1)))
        assert scenario.propensities([0, 0]).tolist() == [1.0, 0.0]
        assert scenario.propensities([3, 4]).tolist() == [1.0, 6.0]
        assert scenario.propensity_rows(np.array([[0, 0], [3, 4]]))[0].tolist() == [1.0, 1.0]


class TestFingerprint:
    def test_fingerprint_is_stable(self):
        assert _toy_scenario().fingerprint() == _toy_scenario().fingerprint()

    @pytest.mark.parametrize(
        "change",
        [
            {"name": "other"},
            {"rates": (1.0, 0.25)},
            {"reactants": ((0, 1), (1, 1))},
            {"changes": ((+1, 0), (0, -1))},
            {"good": (True, True)},
            {"opinion_species": (1, 0)},
            {"rate_linear": ((0.0, 0.0), (0.0, 0.5))},
        ],
    )
    def test_any_field_change_changes_fingerprint(self, change):
        assert _toy_scenario(**change).fingerprint() != _toy_scenario().fingerprint()

    def test_registry_fingerprint_distinguishes_families_and_params(self):
        other_params = LVParams.self_destructive(beta=1.0, delta=1.0, alpha=2.0)
        prints = {
            scenario_fingerprint(name, PARAMS) for name in SCENARIOS
        }
        assert len(prints) == len(SCENARIOS)
        assert scenario_fingerprint("lv2", PARAMS) != scenario_fingerprint(
            "lv2", other_params
        )


class TestLv2Derivation:
    """The derived lv2 tables must equal the lock-step engine's literals."""

    def test_change_tables_match_ensemble_literals(self):
        dx0, dx1 = lv2_change_tables()
        assert np.array_equal(dx0, _DX0_TABLE)
        assert np.array_equal(dx1, _DX1_TABLE)

    def test_good_table_matches_ensemble_literal(self):
        assert np.array_equal(lv2_minority_good_table(), _GOOD_TABLE)

    def test_event_order_is_the_engine_order(self):
        assert lv2_event_order() == (
            "birth0",
            "birth1",
            "death0",
            "death1",
            "inter0",
            "inter1",
            "intra0",
            "intra1",
        )

    def test_lv2_scenario_propensities_match_stack(self):
        scenario = build_scenario("lv2", PARAMS)
        state = np.array([7, 4])
        expected = np.array(
            [
                PARAMS.beta * 7.0,
                PARAMS.beta * 4.0,
                PARAMS.delta * 7.0,
                PARAMS.delta * 4.0,
                PARAMS.alpha0 * 7.0 * 4.0,
                PARAMS.alpha1 * 7.0 * 4.0,
                PARAMS.gamma0 * (7.0 * 6.0) * 0.5,
                PARAMS.gamma1 * (4.0 * 3.0) * 0.5,
            ]
        )
        assert np.array_equal(scenario.propensities(state), expected)


class TestRegistry:
    def test_default_family_first(self):
        families = list_families()
        assert families[0].name == DEFAULT_SCENARIO
        assert [f.name for f in families[1:]] == sorted(
            name for name in SCENARIOS if name != DEFAULT_SCENARIO
        )

    def test_unknown_family_rejected(self):
        with pytest.raises(InvalidConfigurationError, match="unknown scenario"):
            get_family("no-such-scenario")

    def test_build_scenario_is_cached(self):
        assert build_scenario("opinion3", PARAMS) is build_scenario("opinion3", PARAMS)

    def test_validate_scenario_state(self):
        assert validate_scenario_state("opinion3", [10, 5, 5]) == (10, 5, 5)
        with pytest.raises(InvalidConfigurationError, match="3 species"):
            validate_scenario_state("opinion3", (10, 5))
        with pytest.raises(InvalidConfigurationError, match="non-negative"):
            validate_scenario_state("opinion3", (10, -1, 5))

    @pytest.mark.parametrize("holder", ["task", "member", "placeholder"])
    def test_tasks_members_and_placeholders_share_one_state_rule(self, holder):
        """lv2 holds an LVState; other families hold validated counts."""
        from repro.experiments.sweep import SweepTask, placeholder_ensemble
        from repro.lv.ensemble import SweepMember
        from repro.lv.state import LVState

        def held(scenario, state):
            if holder == "task":
                return SweepTask(PARAMS, state, 4, scenario=scenario).initial_state
            if holder == "member":
                return SweepMember(PARAMS, state, 4, scenario=scenario).initial_state
            result = placeholder_ensemble(PARAMS, state, scenario)
            return result.initial_state if result.initial_counts is None else result.initial_counts

        assert held(DEFAULT_SCENARIO, (12, 8)) == LVState(12, 8)
        assert held(DEFAULT_SCENARIO, LVState(12, 8)) == LVState(12, 8)
        assert held("opinion3", [10, 5, 5]) == (10, 5, 5)
        assert held("catalysis", (10, 5, 3)) == (10, 5, 3)
        with pytest.raises(InvalidConfigurationError, match="pair of counts"):
            held(DEFAULT_SCENARIO, (10, 5, 5))
        with pytest.raises(InvalidConfigurationError, match="3 species"):
            held("opinion3", LVState(10, 5))
        with pytest.raises(InvalidConfigurationError, match="non-negative"):
            held("opinion3", (10, -1, 5))

    def test_opinion_family_structure(self):
        scenario = build_scenario("opinion4", PARAMS)
        assert scenario.num_species == 4
        # 4 births + 4 deaths + 12 ordered competition pairs (gamma = 0).
        assert scenario.num_reactions == 20
        assert tuple(scenario.opinion_species) == (0, 1, 2, 3)

    def test_catalysis_family_has_affine_override(self):
        scenario = build_scenario("catalysis", PARAMS)
        assert scenario.has_override
        linear = scenario.linear_matrix
        assert linear[4, 2] == CATALYSIS_K_LIG
        assert linear[5, 2] == CATALYSIS_K_LIG
        # The catalyst is inert: no reaction changes its count.
        assert np.array_equal(scenario.change_matrix[:, 2], np.zeros(6, dtype=np.int64))

    def test_catalysis_propensities_shift_with_catalyst(self):
        scenario = build_scenario("catalysis", PARAMS)
        low = scenario.propensities([10, 8, 0])
        high = scenario.propensities([10, 8, 50])
        expected_boost = CATALYSIS_K_LIG * 50 * 10 * 8
        assert high[4] - low[4] == pytest.approx(expected_boost)
        assert np.array_equal(low[:4], high[:4])

    @pytest.mark.parametrize("mechanism", list(CompetitionMechanism), ids=lambda m: m.short_name)
    def test_resource_family_conserves_and_drops_zero_rates(self, mechanism):
        every_rate = build_scenario("resource", _asymmetric_params(mechanism))
        no_losses = build_scenario(
            "resource", LVParams.neutral(beta=0.01, delta=0.0, alpha=1.0, mechanism=mechanism)
        )
        # 2 births + 2 deaths + 2 encounters + 2 intraspecific; Andaur's
        # delta = gamma = 0 leaves births and encounters.
        assert (every_rate.num_reactions, no_losses.num_reactions) == (8, 4)
        for scenario in (every_rate, no_losses):
            assert not scenario.change_matrix.sum(axis=1).any()
            assert tuple(scenario.opinion_species) == (0, 1)

    def test_affine_override_matches_scenario_tables(self):
        # ``neutral`` splits the total competition rate, so each ordered
        # inter reaction fires at alpha0 = alpha1 = 0.025.
        params = LVParams.self_destructive(beta=0.3, delta=0.3, alpha=0.05)
        reactions = catalysis_reactions(params, CATALYSIS_K_LIG)
        scenario = build_scenario("catalysis", params)
        rng = np.random.default_rng(42)
        for x0, x1, c in rng.integers(0, 60, size=(20, 3)).tolist():
            counts = {"X0": x0, "X1": x1, "C": c}
            expected = [propensity(reaction, counts) for reaction in reactions]
            # The k_unlig + k_lig * n_cat law, by hand.
            assert expected[4:] == [
                ((params.alpha0 + CATALYSIS_K_LIG * c) * x0) * x1,
                ((params.alpha1 + CATALYSIS_K_LIG * c) * x0) * x1,
            ]
            assert scenario.propensities([x0, x1, c]).tolist() == expected


def _family_reference(name: str, params: LVParams) -> list[Reaction]:
    """A registered family's reactions, written from the definitions in ``reference_ssa``."""
    if name == "lv2":
        return lv_reactions(params)
    if name == "catalysis":
        return catalysis_reactions(params, CATALYSIS_K_LIG)
    if name == "resource":
        return resource_reactions(params)
    return opinion_reactions(int(name.removeprefix("opinion")), params)


FAMILY_MECHANISMS = pytest.mark.parametrize(
    "name, mechanism",
    [(name, mechanism) for name in sorted(SCENARIOS) for mechanism in CompetitionMechanism],
    ids=[
        f"{name}-{mechanism.short_name}"
        for name in sorted(SCENARIOS)
        for mechanism in CompetitionMechanism
    ],
)


def _asymmetric_params(mechanism: CompetitionMechanism) -> LVParams:
    """Distinct rates everywhere, so a swapped or misrouted rate cannot go unseen."""
    return LVParams(
        beta=0.8,
        delta=1.2,
        alpha0=0.4,
        alpha1=0.6,
        gamma0=0.3,
        gamma1=0.7,
        mechanism=mechanism,
    )


class TestFamiliesAgainstReference:
    """Every registered family's tables against the independent reaction lists."""

    @FAMILY_MECHANISMS
    def test_tables_match_reference(self, name, mechanism):
        scenario = build_scenario(name, _asymmetric_params(mechanism))
        reactions = _family_reference(name, _asymmetric_params(mechanism))
        assert scenario.num_reactions == len(reactions)
        for m, reaction in enumerate(reactions):
            assert scenario.rates[m] == reaction.rate
            assert scenario.reactants[m] == tuple(
                reaction.reactants.get(s, 0) for s in scenario.species
            )
            assert scenario.changes[m] == tuple(
                reaction.change.get(s, 0) for s in scenario.species
            )
            assert scenario.linear_matrix[m].tolist() == [
                reaction.catalysts.get(s, 0.0) for s in scenario.species
            ]

    @FAMILY_MECHANISMS
    def test_propensities_match_reference_bitwise(self, name, mechanism):
        scenario = build_scenario(name, _asymmetric_params(mechanism))
        reactions = _family_reference(name, _asymmetric_params(mechanism))
        rng = np.random.default_rng(len(name))
        states = np.vstack(
            [
                np.zeros((1, scenario.num_species), dtype=np.int64),
                np.ones((1, scenario.num_species), dtype=np.int64),
                np.full((1, scenario.num_species), 2, dtype=np.int64),
                rng.integers(0, 50, size=(13, scenario.num_species)),
            ]
        )
        rows = scenario.propensity_rows(states)
        for w, state in enumerate(states.tolist()):
            counts = dict(zip(scenario.species, state))
            expected = [propensity(reaction, counts) for reaction in reactions]
            assert scenario.propensities(state).tolist() == expected
            assert rows[:, w].tolist() == expected

    @FAMILY_MECHANISMS
    def test_good_flags_follow_the_definition(self, name, mechanism):
        # Good: an encounter between two opinions, or a reaction that removes
        # a copy of an opinion other than the initial majority X0.
        scenario = build_scenario(name, _asymmetric_params(mechanism))
        reactions = _family_reference(name, _asymmetric_params(mechanism))
        opinions = [scenario.species[i] for i in scenario.opinion_species]
        expected = tuple(
            sum(s in reaction.reactants for s in opinions) == 2
            or any(reaction.change.get(s, 0) < 0 for s in opinions[1:])
            for reaction in reactions
        )
        assert scenario.good == expected

    @FAMILY_MECHANISMS
    def test_interspecific_mask_marks_encounters(self, name, mechanism):
        scenario = build_scenario(name, _asymmetric_params(mechanism))
        reactions = _family_reference(name, _asymmetric_params(mechanism))
        opinions = {scenario.species[index] for index in scenario.opinion_species}
        expected = [len(reaction.reactants.keys() & opinions) == 2 for reaction in reactions]
        assert scenario.interspecific.tolist() == expected

    @pytest.mark.parametrize(
        "mechanism", list(CompetitionMechanism), ids=lambda mechanism: mechanism.short_name
    )
    def test_resource_births_are_not_encounters(self, mechanism):
        """``X_i + R -> 2 X_i`` consumes two distinct species, one of them not an opinion."""
        scenario = build_scenario("resource", _asymmetric_params(mechanism))
        births = scenario.reactant_matrix[:, scenario.species.index("R")] == 1
        assert births.sum() == 2
        assert not scenario.interspecific[births].any()
        assert scenario.interspecific.sum() == 2

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_mechanisms_have_distinct_fingerprints(self, name):
        sd = _asymmetric_params(CompetitionMechanism.SELF_DESTRUCTIVE)
        nsd = _asymmetric_params(CompetitionMechanism.NON_SELF_DESTRUCTIVE)
        assert scenario_fingerprint(name, sd) != scenario_fingerprint(name, nsd)

    @pytest.mark.parametrize("k", [3, 4])
    def test_zero_rate_intraspecific_reactions_omitted(self, k):
        params = _asymmetric_params(CompetitionMechanism.SELF_DESTRUCTIVE).with_rates(
            gamma0=0.0, gamma1=0.0
        )
        scenario = build_scenario(f"opinion{k}", params)
        reactions = opinion_reactions(k, params)
        assert scenario.num_reactions == len(reactions) == 2 * k + k * (k - 1)
        assert not (scenario.reactant_matrix == 2).any()


def _random_scenario(rng: np.random.Generator) -> Scenario:
    """A random valid k-species mass-action scenario (satellite property tests)."""
    k = int(rng.integers(2, 6))
    m = int(rng.integers(2, 9))
    rates = tuple(float(rate) for rate in rng.uniform(0.0, 3.0, size=m))
    reactants: list[tuple[int, ...]] = []
    changes: list[tuple[int, ...]] = []
    for _ in range(m):
        row = [0] * k
        shape = rng.integers(0, 4)
        if shape == 1:
            row[int(rng.integers(k))] = 1
        elif shape == 2:
            first, second = rng.choice(k, size=2, replace=False)
            row[int(first)] = 1
            row[int(second)] = 1
        elif shape == 3:
            row[int(rng.integers(k))] = 2
        reactants.append(tuple(row))
        # Net change bounded below by -order per species keeps counts
        # non-negative; bounded above by +2 keeps products small.
        changes.append(
            tuple(int(rng.integers(-order, 3)) for order in row)
        )
    return Scenario(
        name="random",
        species=tuple(f"S{i}" for i in range(k)),
        rates=rates,
        reactants=tuple(reactants),
        changes=tuple(changes),
        good=tuple(bool(flag) for flag in rng.integers(0, 2, size=m)),
        opinion_species=(0, 1),
    )


def _reference_reactions(scenario: Scenario) -> list[Reaction]:
    """A scenario's mass-action part as ``reference_ssa`` reactions."""
    return [
        Reaction(
            rate,
            {name: order for name, order in zip(scenario.species, orders) if order},
            {name: change for name, change in zip(scenario.species, changes) if change},
        )
        for rate, orders, changes in zip(scenario.rates, scenario.reactants, scenario.changes)
    ]


class TestPropensityProperties:
    """Seeded property tests: tables vs naive reference vs ``reference_ssa``."""

    @pytest.mark.parametrize("seed", range(12))
    def test_rows_match_naive_reference_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        scenario = _random_scenario(rng)
        states = rng.integers(0, 40, size=(17, scenario.num_species))
        rows = scenario.propensity_rows(states)
        for w in range(states.shape[0]):
            reference = scenario.propensities(states[w])
            assert np.array_equal(rows[:, w], reference), (
                f"seed {seed}, state row {w}: vectorized table diverges "
                f"from the per-reaction reference"
            )

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_independent_reference(self, seed):
        rng = np.random.default_rng(seed + 1000)
        scenario = _random_scenario(rng)
        reactions = _reference_reactions(scenario)
        for state in rng.integers(0, 40, size=(11, scenario.num_species)).tolist():
            counts = dict(zip(scenario.species, state))
            # Same operand order, and scaling by 0.5 is exact, so every
            # reaction (same-species pairs included) agrees bitwise.
            expected = [propensity(reaction, counts) for reaction in reactions]
            assert scenario.propensities(state).tolist() == expected

    @pytest.mark.parametrize("seed", range(12))
    def test_boundary_states_match_independent_reference(self, seed):
        # Every state with counts in {0, 1, 2}: where unary and pair factors
        # vanish or equal one, and where x(x-1)/2 first becomes non-zero.
        rng = np.random.default_rng(seed + 3000)
        scenario = _random_scenario(rng)
        reactions = _reference_reactions(scenario)
        grids = np.meshgrid(*[np.arange(3)] * scenario.num_species, indexing="ij")
        states = np.stack([grid.ravel() for grid in grids], axis=1)
        rows = scenario.propensity_rows(states)
        for w, state in enumerate(states.tolist()):
            expected = [
                propensity(reaction, dict(zip(scenario.species, state)))
                for reaction in reactions
            ]
            assert rows[:, w].tolist() == expected
            counts = dict(zip(scenario.species, state))
            for value, reaction in zip(expected, reactions):
                if any(counts[s] < order for s, order in reaction.reactants.items()):
                    assert value == 0.0, "a reaction without its reactants must not fire"

    @pytest.mark.parametrize("seed", range(12))
    def test_affine_override_matches_independent_reference(self, seed):
        rng = np.random.default_rng(seed + 4000)
        base = _random_scenario(rng)
        linear = rng.uniform(0.0, 0.1, size=(base.num_reactions, base.num_species))
        linear[rng.random(linear.shape) < 0.6] = 0.0
        scenario = Scenario(
            name="random-affine",
            species=base.species,
            rates=base.rates,
            reactants=base.reactants,
            changes=base.changes,
            good=base.good,
            opinion_species=base.opinion_species,
            rate_linear=tuple(tuple(float(c) for c in row) for row in linear),
        )
        reactions = [
            reaction._replace(
                catalysts={s: float(c) for s, c in zip(scenario.species, row) if c}
            )
            for reaction, row in zip(_reference_reactions(scenario), linear)
        ]
        states = rng.integers(0, 40, size=(11, scenario.num_species))
        rows = scenario.propensity_rows(states)
        for w, state in enumerate(states.tolist()):
            counts = dict(zip(scenario.species, state))
            expected = [propensity(reaction, counts) for reaction in reactions]
            assert scenario.propensities(state).tolist() == expected
            assert rows[:, w].tolist() == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_affine_override_rows_match_reference(self, seed):
        rng = np.random.default_rng(seed + 2000)
        base = _random_scenario(rng)
        linear = rng.uniform(0.0, 0.1, size=(base.num_reactions, base.num_species))
        linear[rng.random(linear.shape) < 0.6] = 0.0
        scenario = Scenario(
            name="random-affine",
            species=base.species,
            rates=base.rates,
            reactants=base.reactants,
            changes=base.changes,
            good=base.good,
            opinion_species=base.opinion_species,
            rate_linear=tuple(tuple(float(c) for c in row) for row in linear),
        )
        states = rng.integers(0, 40, size=(9, scenario.num_species))
        rows = scenario.propensity_rows(states)
        for w in range(states.shape[0]):
            assert np.array_equal(rows[:, w], scenario.propensities(states[w]))


def _random_affine_scenario(rng: np.random.Generator) -> Scenario:
    """A random scenario of up to order 2, with an affine rate on some reactions."""
    species = int(rng.integers(2, 5))
    reactions = int(rng.integers(2, 10))
    reactants, changes, linear = [], [], []
    for _ in range(reactions):
        row = [0] * species
        for chosen in rng.choice(species, size=int(rng.integers(0, 3)), replace=False):
            row[int(chosen)] = 1
        if sum(row) == 0 and rng.random() < 0.5:
            row[int(rng.integers(species))] = 2
        reactants.append(tuple(row))
        changes.append(tuple(int(rng.integers(-order, 2)) for order in row))
        linear.append(
            tuple(
                float(rng.uniform(0.0, 0.1)) if rng.random() < 0.3 else 0.0
                for _ in range(species)
            )
        )
    return Scenario(
        name="random",
        species=tuple(f"S{i}" for i in range(species)),
        rates=tuple(float(rate) for rate in rng.uniform(0.0, 3.0, size=reactions)),
        reactants=tuple(reactants),
        changes=tuple(changes),
        good=tuple(bool(flag) for flag in rng.integers(0, 2, size=reactions)),
        opinion_species=(0, 1),
        rate_linear=tuple(linear),
    )


class TestKinetics:
    """The factor-table rows against the scalar reference, byte for byte.

    Bytes, not values: a sign of zero that differs would show here.
    """

    @pytest.mark.parametrize("seed", range(10))
    def test_random_scenarios_match_the_scalar_reference_bytewise(self, seed):
        rng = np.random.default_rng(seed)
        scenario = _random_affine_scenario(rng)
        states = rng.integers(0, 40, size=(13, scenario.num_species))
        states[0] = 0
        states[1] = 1
        rows = scenario.propensity_rows(states)
        for w in range(states.shape[0]):
            assert rows[:, w].tobytes() == scenario.propensities(states[w]).tobytes()

    @FAMILY_MECHANISMS
    def test_families_match_the_scalar_reference_bytewise(self, name, mechanism):
        scenario = build_scenario(name, _asymmetric_params(mechanism))
        rng = np.random.default_rng(7)
        states = rng.integers(0, 60, size=(21, scenario.num_species))
        rows = scenario.propensity_rows(states)
        for w in range(states.shape[0]):
            assert rows[:, w].tobytes() == scenario.propensities(states[w]).tobytes()
        # A table refilled over other states, as an engine group reuses
        # it step after step, gives the same values.
        kinetics = scenario.kinetics
        factors = kinetics.factor_table(states.shape[0])
        kinetics.propensities(rng.integers(0, 60, size=states.shape).T, factors)
        assert kinetics.propensities(states.T, factors).tobytes() == rows.tobytes()
