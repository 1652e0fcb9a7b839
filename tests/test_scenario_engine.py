"""Tests for the generic scenario execution engine.

The contracts under test mirror the two-species lock-step engine's:

* **contract replay** — every registered family matches, array for array,
  the scalar replay of the documented consumption order in
  ``reference_lockstep``;
* **fusion invariance** — a member's result is bitwise-identical whether it
  runs alone or fused into a mixed lv2/generic mega-batch, on both the
  exact and tau backends;
* **determinism** — same seeds, same bits, and ``collect="win"`` never
  perturbs trajectories;
* **result semantics** — the generic ``LVEnsembleResult`` extensions
  (winners, majority consensus, concatenation, store round-trip, chunk-key
  fingerprinting);
* **independent reference** — every family's winner frequency agrees with
  the dict-based direct method of ``reference_ssa``.
"""

from __future__ import annotations

import math
import operator
import random
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidConfigurationError
from repro.lv.ensemble import LVEnsembleResult, SweepMember, run_sweep_ensemble
from repro.lv.params import CompetitionMechanism, LVParams
from repro.lv.state import LVState
from repro.lv.tau import run_tau_sweep_ensemble
from repro.scenario.engine import (
    SCENARIO_TAU_TAIL_POPULATION,
    _leap_moments,
    _moment_table,
    run_scenario_members,
    run_scenario_members_tau,
)
from repro.scenario.registry import CATALYSIS_K_LIG
from repro.scenario.spec import TERM_ABSORBED, TERM_CONSENSUS, TERM_MAX_EVENTS
from repro.store.keys import chunk_key
from repro.store.serialize import ensemble_from_payload, ensemble_to_payload

import reference_lockstep
from reference_ssa import direct_method

PARAMS = LVParams.self_destructive(beta=1.0, delta=1.0, alpha=1.0)
CAT_PARAMS = LVParams.self_destructive(beta=0.3, delta=0.3, alpha=0.05)


def _members() -> list[SweepMember]:
    return [
        SweepMember(PARAMS, (30, 20, 15), 40, max_events=50_000, scenario="opinion3"),
        SweepMember(PARAMS, (20, 14, 14, 12), 40, max_events=50_000, scenario="opinion4"),
        SweepMember(CAT_PARAMS, (30, 20, 60), 40, max_events=50_000, scenario="catalysis"),
    ]


def _assert_results_bitwise_equal(left, right):
    assert np.array_equal(left.finals, right.finals)
    assert np.array_equal(left.total_events, right.total_events)
    assert np.array_equal(left.termination_codes, right.termination_codes)
    assert np.array_equal(left.good_events, right.good_events)
    assert np.array_equal(left.max_total_population, right.max_total_population)


#: One start per registered family for the replay comparisons.
FAMILY_STARTS = {
    "lv2": (30, 20),
    "opinion3": (18, 12, 10),
    "opinion4": (14, 10, 9, 8),
    "catalysis": (20, 14, 40),
    "resource": (20, 14, 40),
}


def _family_member(name, params, counts, replicates):
    """A member for the generic engine (an ``lv2`` one holds an ``LVState``)."""
    return SweepMember(params, counts, replicates, max_events=50_000, scenario=name)


def _assert_matches_replay(result, replay):
    """Every replayed array equals the result's, dtype included.

    An ``lv2`` result has the two-species shape: no ``finals``, whose
    columns the replay also gives as ``final_x0`` and ``final_x1``.
    """
    if result.scenario == "lv2":
        assert result.finals is None and result.initial_counts is None
        replay = {name: array for name, array in replay.items() if name != "finals"}
    for field, expected in replay.items():
        actual = getattr(result, field)
        assert actual.dtype == expected.dtype, field
        assert np.array_equal(actual, expected), field


def _replay(name, params, counts, replicates, seed, collect, stream="step"):
    reactions, species, opinions = reference_lockstep.family_reactions(
        name, params, CATALYSIS_K_LIG
    )
    return reference_lockstep.replay_generic_member(
        reactions, species, opinions, counts, replicates, 50_000, seed, collect, stream
    )


def _asymmetric(mechanism):
    """Distinct rates, so a swapped or misrouted rate changes the bits."""
    return LVParams(
        beta=0.5, delta=0.4, alpha0=0.9, alpha1=0.7, gamma0=0.2, gamma1=0.3, mechanism=mechanism
    )


class TestEngineParity:
    @pytest.mark.parametrize("collect", ["full", "win"])
    @pytest.mark.parametrize(
        "mechanism", list(CompetitionMechanism), ids=lambda mechanism: mechanism.short_name
    )
    @pytest.mark.parametrize("name", sorted(FAMILY_STARTS))
    def test_family_matches_generic_replay(self, name, mechanism, collect):
        params, counts = _asymmetric(mechanism), FAMILY_STARTS[name]
        member = _family_member(name, params, counts, 30)
        (result,) = run_scenario_members([member], [123], collect=collect)
        _assert_matches_replay(result, _replay(name, params, counts, 30, 123, collect))

    def test_members_replay_independently(self):
        members = _members()
        results = run_scenario_members(members, [5, 6, 7])
        for member, seed, result in zip(members, [5, 6, 7], results):
            replay = _replay(
                member.scenario, member.params, member.initial_state, 40, seed, "full"
            )
            assert np.array_equal(result.finals, replay["finals"])
            assert np.array_equal(result.total_events, replay["total_events"])

    def test_population_maximum_matches_replay(self):
        # Births outpace competition here, so the population grows during
        # the lock-step phase.
        params = LVParams.self_destructive(beta=1.0, delta=0.9, alpha=0.05)
        member = _family_member("opinion3", params, (12, 8, 6), 30)
        (result,) = run_scenario_members([member], [123])
        replay = _replay("opinion3", params, (12, 8, 6), 30, 123, "full")
        assert np.array_equal(result.max_total_population, replay["max_total_population"])

    def test_repeat_runs_are_deterministic(self):
        members = _members()
        first = run_scenario_members(members, [5, 6, 7])
        second = run_scenario_members(members, [5, 6, 7])
        for left, right in zip(first, second):
            _assert_results_bitwise_equal(left, right)

    def test_win_collect_matches_full(self):
        member = _members()[0]
        (full,) = run_scenario_members([member], [9], collect="full")
        (win,) = run_scenario_members([member], [9], collect="win")
        assert np.array_equal(full.finals, win.finals)
        assert np.array_equal(full.total_events, win.total_events)
        assert np.array_equal(full.termination_codes, win.termination_codes)


def _mixed_members() -> list[SweepMember]:
    """Every generic family in one call, in unequal widths.

    ``opinion3`` runs in both mechanisms, so the call holds two of its
    fingerprint groups, and its last member shares the first one's group.
    The ``opinion4`` member spends its budget while the others run on, and
    the ``catalysis`` member has encounters only and starts at (1, 1), so
    every replica of it ends at its first step.
    """
    sd = _asymmetric(CompetitionMechanism.SELF_DESTRUCTIVE)
    nsd = _asymmetric(CompetitionMechanism.NON_SELF_DESTRUCTIVE)
    encounters = LVParams(0.0, 0.0, 0.6, 0.4, mechanism=CompetitionMechanism.NON_SELF_DESTRUCTIVE)
    return [
        SweepMember(sd, (18, 12, 10), 23, 50_000, scenario="opinion3"),
        SweepMember(nsd, (16, 12, 11), 7, 50_000, scenario="opinion3"),
        SweepMember(sd, (14, 10, 9, 8), 31, 15, scenario="opinion4"),
        SweepMember(encounters, (1, 1, 6), 12, 50_000, scenario="catalysis"),
        SweepMember(nsd, (20, 14, 40), 18, 50_000, scenario="resource"),
        SweepMember(sd, (17, 12, 10), 9, 50_000, scenario="opinion3"),
    ]


class TestFusedCall:
    """One call holding every generic family, against solo runs and the replay."""

    SEEDS = [31, 32, 33, 34, 35, 36]

    @pytest.mark.parametrize("collect", ["full", "win"])
    def test_mixed_call_equals_solo_runs_and_the_replay(self, collect):
        members = _mixed_members()
        fused = run_scenario_members(members, self.SEEDS, collect=collect)
        for member, seed, result in zip(members, self.SEEDS, fused):
            (solo,) = run_scenario_members([member], [seed], collect=collect)
            for field, value in vars(result).items():
                if isinstance(value, np.ndarray):
                    assert np.array_equal(value, getattr(solo, field)), (member.scenario, field)
            reactions, species, opinions = reference_lockstep.family_reactions(
                member.scenario, member.params, CATALYSIS_K_LIG
            )
            replay = reference_lockstep.replay_generic_member(
                reactions,
                species,
                opinions,
                member.initial_state,
                member.num_replicates,
                member.max_events,
                seed,
                collect,
            )
            for field, expected in replay.items():
                actual = getattr(result, field)
                assert actual.dtype == expected.dtype, (member.scenario, field)
                assert np.array_equal(actual, expected), (member.scenario, field)
        spent = fused[2]
        assert (spent.termination_codes == TERM_MAX_EVENTS).any()
        assert max(result.total_events.max() for result in fused) > spent.total_events.max()
        assert (fused[3].total_events == 1).all()
        assert (fused[3].termination_codes == TERM_CONSENSUS).all()

    def test_results_do_not_depend_on_member_order(self):
        members = _mixed_members()
        order = [5, 3, 0, 4, 1, 2]
        shuffled = run_scenario_members(
            [members[i] for i in order], [self.SEEDS[i] for i in order]
        )
        fused = run_scenario_members(members, self.SEEDS)
        for position, index in enumerate(order):
            _assert_results_bitwise_equal(shuffled[position], fused[index])


class TestRunInvariants:
    """Properties every replica of a ``"full"`` run satisfies, on both backends."""

    GROWTH = LVParams.self_destructive(beta=1.0, delta=0.5, alpha=1e-4)

    @pytest.mark.parametrize(
        "engine, counts, replicates, budget",
        [
            (run_sweep_ensemble, (20, 15, 15), 16, 200),
            (run_tau_sweep_ensemble, (2000, 1500, 1500), 6, 20_000),
        ],
        ids=["exact", "tau"],
    )
    def test_population_maximum_bounds_initial_and_final_totals(
        self, engine, counts, replicates, budget
    ):
        # Births outpace deaths and competition is rare, so the population
        # grows through the lock-step phase (the leaps, under tau).
        member = SweepMember(self.GROWTH, counts, replicates, budget, scenario="opinion3")
        (result,) = engine([member], rng=7)
        final_totals = result.finals.sum(axis=1)
        assert (final_totals > sum(counts)).any()
        assert (result.max_total_population >= sum(counts)).all()
        assert (result.max_total_population >= final_totals).all()

    @pytest.mark.parametrize(
        "engine, counts, replicates",
        [
            (run_sweep_ensemble, (30, 24, 60), 40),
            (run_tau_sweep_ensemble, (1500, 1200, 3000), 6),
        ],
        ids=["exact", "tau"],
    )
    @pytest.mark.parametrize(
        "mechanism", list(CompetitionMechanism), ids=lambda mechanism: mechanism.short_name
    )
    def test_resource_family_conserves_its_total(self, engine, counts, replicates, mechanism):
        member = SweepMember(
            _asymmetric(mechanism), counts, replicates, 200_000, scenario="resource"
        )
        (result,) = engine([member], rng=5)
        assert engine is run_sweep_ensemble or result.leap_events.sum() > 0
        assert (result.finals.sum(axis=1) == sum(counts)).all()
        assert (result.finals >= 0).all()
        assert result.reached_consensus.all()


class TestFusionInvariance:
    def test_generic_member_identical_solo_or_fused_with_lv2(self):
        generic = SweepMember(PARAMS, (25, 18, 17), 30, scenario="opinion3")
        lv2 = SweepMember(PARAMS, LVState(30, 20), 30)
        fused = run_sweep_ensemble([lv2, generic, lv2], rng=42)
        # Same batch-level seed, same batch composition: fully repeatable.
        refused = run_sweep_ensemble([lv2, generic, lv2], rng=42)
        for left, right in zip(fused, refused):
            assert np.array_equal(left.total_events, right.total_events)
        # Explicit per-member seeds: solo == fused bit for bit.
        seeds = [101, 202, 303]
        fused = run_sweep_ensemble([lv2, generic, lv2], member_seeds=seeds)
        solo_generic = run_sweep_ensemble([generic], member_seeds=[202])
        _assert_results_bitwise_equal(fused[1], solo_generic[0])
        solo_lv2 = run_sweep_ensemble([lv2], member_seeds=[303])
        assert np.array_equal(fused[2].final_x0, solo_lv2[0].final_x0)
        assert np.array_equal(fused[2].total_events, solo_lv2[0].total_events)

    def test_tau_generic_member_identical_solo_or_fused(self):
        generic = SweepMember(
            CAT_PARAMS, (900, 600, 200), 8, max_events=2_000_000, scenario="catalysis"
        )
        lv2 = SweepMember(PARAMS, LVState(40, 25), 8)
        seeds = [11, 22]
        fused = run_tau_sweep_ensemble([lv2, generic], member_seeds=seeds)
        solo = run_tau_sweep_ensemble([generic], member_seeds=[22])
        _assert_results_bitwise_equal(fused[1], solo[0])

    def test_member_order_preserved_in_mixed_batches(self):
        members = [
            SweepMember(PARAMS, (25, 18, 17), 5, scenario="opinion3"),
            SweepMember(PARAMS, LVState(30, 20), 5),
            SweepMember(CAT_PARAMS, (20, 15, 40), 5, scenario="catalysis"),
        ]
        results = run_sweep_ensemble(members, member_seeds=[1, 2, 3])
        assert results[0].scenario == "opinion3"
        assert results[0].finals.shape == (5, 3)
        assert results[1].scenario == "lv2"
        assert results[1].finals is None
        assert results[2].scenario == "catalysis"
        assert results[2].finals.shape == (5, 3)


class TestTauBackend:
    def test_tau_runs_and_leaps_on_large_populations(self):
        member = SweepMember(
            PARAMS, (1100, 740, 720), 8, max_events=2_000_000, scenario="opinion3"
        )
        (result,) = run_scenario_members_tau([member], [77], epsilon=0.03)
        assert result.leap_events is not None
        assert int(result.leap_events.sum()) > 0
        assert result.reached_consensus.all()

    def test_tau_is_deterministic(self):
        member = SweepMember(
            CAT_PARAMS, (800, 500, 300), 6, max_events=2_000_000, scenario="catalysis"
        )
        (first,) = run_scenario_members_tau([member], [3], epsilon=0.03)
        (second,) = run_scenario_members_tau([member], [3], epsilon=0.03)
        _assert_results_bitwise_equal(first, second)

    def test_small_populations_resolved_by_exact_tail(self):
        # Opinion populations below the tau tail threshold: every replica is
        # parked at once, takes exact steps only and must still terminate cleanly.
        member = SweepMember(PARAMS, (40, 30, 20), 12, scenario="opinion3")
        (result,) = run_scenario_members_tau([member], [13], epsilon=0.03)
        codes = result.termination_codes
        assert set(np.unique(codes)) <= {TERM_CONSENSUS, TERM_ABSORBED, TERM_MAX_EVENTS}
        assert result.reached_consensus.any()

    @pytest.mark.parametrize("collect", ["full", "win"])
    @pytest.mark.parametrize("name", sorted(FAMILY_STARTS))
    def test_parked_replicas_step_on_the_tail_stream(self, name, collect):
        # Every replica starts below the tail population, so it is parked on
        # the first pass and never leaps: one exact step per pass, one tail
        # uniform per live replica in ascending order, as the replay reads it.
        params, counts = _asymmetric(CompetitionMechanism.SELF_DESTRUCTIVE), FAMILY_STARTS[name]
        assert sum(counts) < SCENARIO_TAU_TAIL_POPULATION
        member = _family_member(name, params, counts, 30)
        (result,) = run_scenario_members_tau([member], [123], epsilon=0.03, collect=collect)
        assert not result.leap_events.any()
        replay = _replay(name, params, counts, 30, 123, collect, stream="tail")
        _assert_matches_replay(result, replay)

    def test_a_budget_spent_after_the_park_counts_the_leaped_events(self):
        # Every replica leaps for 1,026-1,034 events, parks and ends at
        # 1,258-1,276 without a budget, so a budget of 1,149 runs out while
        # it takes exact steps.
        sd = _asymmetric(CompetitionMechanism.SELF_DESTRUCTIVE)
        free, spent = (
            run_scenario_members_tau(
                [SweepMember(sd, (1_100, 740, 720), 6, budget, scenario="opinion3")],
                [5],
                epsilon=0.03,
            )[0]
            for budget in (200_000, 1_149)
        )
        assert free.leap_events.max() < 1_149 < free.total_events.min()
        assert (free.termination_codes == TERM_CONSENSUS).all()
        assert (spent.total_events == 1_149).all()
        assert (spent.termination_codes == TERM_MAX_EVENTS).all()
        assert np.array_equal(spent.leap_events, free.leap_events)

    def test_a_reaction_with_only_an_affine_rate_leaps(self):
        # Catalysed encounters without a base rate (alpha = 0): the catalyst's
        # affine term is their whole propensity.  They are good events and
        # outnumber the intraspecific ones about 3,000 to 1; leaps that left
        # them out would fire intraspecific events only, half of them bad.
        nsd = CompetitionMechanism.NON_SELF_DESTRUCTIVE
        params = LVParams(0.0, 0.0, 0.0, 0.0, 0.001, 0.001, nsd)
        member = SweepMember(params, (600, 500, 200), 4, scenario="catalysis")
        (result,) = run_scenario_members_tau([member], [7], epsilon=0.03)
        assert (result.leap_events > 0).all()
        assert (result.good_events > 0.9 * result.total_events).all()

    @settings(max_examples=60, deadline=None)
    @given(
        reactions=st.integers(1, 24),
        species=st.integers(1, 4),
        width=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_leap_sums_are_one_left_fold_per_column(self, reactions, species, width, seed):
        """A replica's total, means and variances do not depend on the other replicas."""
        generator = np.random.default_rng(seed)
        changes = generator.integers(-2, 3, (reactions, species))
        # Mixed magnitudes, so that another summation order rounds differently.
        propensities = generator.random((reactions, width)) * 10.0 ** generator.uniform(
            0, 6, (reactions, width)
        )
        moments = _moment_table(changes)
        sums = _leap_moments(moments, propensities)
        assert sums.shape == (1 + 2 * species, width)
        deltas = changes.tolist()
        for column in range(width):
            alone = _leap_moments(moments, propensities[:, column : column + 1])
            assert sums[:, column].tobytes() == alone[:, 0].tobytes()
            rates = [float(value) for value in propensities[:, column]]
            expected = [reduce(operator.add, rates)]
            expected += [
                reduce(operator.add, (float(d[s]) * a for d, a in zip(deltas, rates)))
                for s in range(species)
            ]
            expected += [
                reduce(operator.add, (float(d[s] ** 2) * a for d, a in zip(deltas, rates)))
                for s in range(species)
            ]
            assert sums[:, column].tolist() == expected


def _tau_members() -> list[SweepMember]:
    """Generic tau members whose scenario groups hold several members.

    The first two share a fingerprint, in unequal widths and budgets.  Two
    of their three opinions start tiny, so those bind the leap length and
    some leaps are rejected and halved; their replicas park once the large
    opinion falls below the tail population.  The second one's budget runs
    out in some replicas while they leap and in others after they park.
    The ``catalysis`` member is another group, whose budget runs out while
    it leaps.  The last member shares the first group and is parked from the
    start, so the others' replicas park into the packed rows before its own.
    """
    sd = _asymmetric(CompetitionMechanism.SELF_DESTRUCTIVE)
    return [
        SweepMember(sd, (600, 2, 1), 9, 200_000, scenario="opinion3"),
        SweepMember(sd, (620, 1, 2), 6, 60, scenario="opinion3"),
        SweepMember(CAT_PARAMS, (900, 600, 200), 4, 400, scenario="catalysis"),
        SweepMember(sd, (40, 30, 20), 5, 200_000, scenario="opinion3"),
    ]


class TestFusedTauCall:
    """One tau call whose groups leap and step several members together."""

    SEEDS = [41, 42, 43, 44]

    @pytest.mark.parametrize("collect", ["full", "win"])
    def test_mixed_call_equals_solo_runs(self, collect):
        members = _tau_members()
        fused = run_scenario_members_tau(members, self.SEEDS, epsilon=0.03, collect=collect)
        for member, seed, result in zip(members, self.SEEDS, fused):
            (solo,) = run_scenario_members_tau([member], [seed], epsilon=0.03, collect=collect)
            for field, value in vars(result).items():
                if isinstance(value, np.ndarray):
                    assert np.array_equal(value, getattr(solo, field)), (member, field)
        tiny, budgeted, catalysed, parked = fused
        assert (tiny.total_events > tiny.leap_events).any()
        spent = budgeted.termination_codes == TERM_MAX_EVENTS
        assert (spent & (budgeted.total_events == budgeted.leap_events)).any()
        assert (spent & (budgeted.total_events == 60) & (budgeted.leap_events < 60)).any()
        assert (catalysed.termination_codes == TERM_MAX_EVENTS).all()
        assert (catalysed.total_events == catalysed.leap_events).all()
        assert not parked.leap_events.any()

    def test_results_do_not_depend_on_member_order(self):
        members = _tau_members()
        order = [3, 2, 1, 0]
        shuffled = run_scenario_members_tau(
            [members[i] for i in order], [self.SEEDS[i] for i in order], epsilon=0.03
        )
        fused = run_scenario_members_tau(members, self.SEEDS, epsilon=0.03)
        for position, index in enumerate(order):
            _assert_results_bitwise_equal(shuffled[position], fused[index])
            assert np.array_equal(shuffled[position].leap_events, fused[index].leap_events)


class TestResultSemantics:
    def test_winners_and_majority_consensus(self):
        member = SweepMember(PARAMS, (40, 20, 15), 30, scenario="opinion3")
        (result,) = run_scenario_members([member], [55])
        winners = result.winners
        consensus = result.reached_consensus
        assert ((winners >= -1) & (winners < 3)).all()
        assert np.array_equal(winners >= 0, consensus & ~result.dead_heat)
        # Majority consensus references opinion 0 (the initial plurality).
        assert np.array_equal(result.majority_consensus, winners == 0)

    @pytest.mark.parametrize(
        "engine, scenario, counts",
        [
            pytest.param(run_sweep_ensemble, "lv2", (30, 20), id="lv2"),
            pytest.param(run_sweep_ensemble, "opinion3", (30, 20, 15), id="opinion3"),
            # lv2 tau members always collect full statistics; generic ones honour "win".
            pytest.param(
                run_tau_sweep_ensemble, "opinion3", (900, 600, 500), id="tau-opinion3"
            ),
        ],
    )
    def test_win_level_keeps_the_event_accounting_at_zero(self, engine, scenario, counts):
        """The ``"win"`` contract of ``run_sweep_ensemble`` for every family, and of the
        tau backend for generic families."""
        params = LVParams(0.5, 0.4, 0.9, 0.7, 0.2, 0.3)
        member = SweepMember(params, counts, 40, scenario=scenario)
        (result,) = engine([member], rng=3, collect="win")
        assert result.total_events.all()
        assert result.leap_events is None or result.leap_events.any()
        for name in (
            "births",
            "deaths",
            "interspecific_events",
            "intraspecific_events",
            "bad_noncompetitive_events",
            "good_events",
            "noise_individual",
            "noise_competitive",
        ):
            assert not getattr(result, name).any(), name

    def test_concatenate_generic_results(self):
        member = SweepMember(PARAMS, (30, 20, 15), 10, scenario="opinion3")
        (left,) = run_scenario_members([member], [1])
        (right,) = run_scenario_members([member], [2])
        merged = LVEnsembleResult.concatenate([left, right])
        assert merged.num_replicates == 20
        assert np.array_equal(merged.finals, np.concatenate([left.finals, right.finals]))
        assert merged.scenario == "opinion3"
        assert merged.initial_counts == (30, 20, 15)

    def test_concatenate_rejects_mismatched_scenarios(self):
        (opinion,) = run_scenario_members(
            [SweepMember(PARAMS, (30, 20, 15), 4, scenario="opinion3")], [1]
        )
        (catalysis,) = run_scenario_members(
            [SweepMember(CAT_PARAMS, (30, 20, 15), 4, scenario="catalysis")], [1]
        )
        with pytest.raises(InvalidConfigurationError):
            LVEnsembleResult.concatenate([opinion, catalysis])

    def test_to_run_results_rejected_for_generic_scenarios(self):
        (result,) = run_scenario_members(
            [SweepMember(PARAMS, (30, 20, 15), 4, scenario="opinion3")], [1]
        )
        with pytest.raises(InvalidConfigurationError):
            result.to_run_results()

    def test_store_round_trip_is_bitwise(self):
        member = SweepMember(CAT_PARAMS, (30, 20, 60), 12, scenario="catalysis")
        (result,) = run_scenario_members([member], [99])
        restored = ensemble_from_payload(ensemble_to_payload(result))
        assert restored.scenario == "catalysis"
        assert restored.initial_counts == (30, 20, 60)
        _assert_results_bitwise_equal(result, restored)
        assert np.array_equal(result.good_events, restored.good_events)

    def test_chunk_keys_fold_in_the_scenario(self):
        common = dict(
            params=PARAMS,
            counts=(30, 20, 15),
            num_replicates=10,
            seed=7,
            max_events=1000,
            backend="exact",
            tau_epsilon=0.03,
        )
        assert chunk_key(scenario="opinion3", **common) != chunk_key(
            scenario="catalysis", **common
        )
        # None means the default family — same key as naming it explicitly.
        two_species = dict(common, counts=(30, 20))
        assert chunk_key(scenario=None, **two_species) == chunk_key(
            scenario="lv2", **two_species
        )


class TestEnginesAgainstReference:
    """Winner frequencies against the reference direct method.

    Which opinion survives is a property of the embedded jump chain alone, so
    the share of runs won by opinion 0 must agree between the engines (the
    lock-step core for lv2, the generic engine for every other family) and
    the continuous-time reference, which shares no code with either.
    """

    @pytest.mark.parametrize(
        "name, counts",
        [
            ("lv2", (7, 5)),
            ("opinion3", (6, 4, 3)),
            ("opinion4", (5, 4, 3, 2)),
            ("catalysis", (6, 5, 30)),
            ("resource", (6, 5, 30)),
        ],
        ids=["lv2", "opinion3", "opinion4", "catalysis", "resource"],
    )
    @pytest.mark.parametrize(
        "mechanism", list(CompetitionMechanism), ids=lambda mechanism: mechanism.short_name
    )
    def test_opinion_zero_win_frequency_matches_reference(self, name, counts, mechanism):
        params = LVParams(
            beta=0.3,
            delta=0.3,
            alpha0=0.5,
            alpha1=0.7,
            gamma0=0.2,
            gamma1=0.4,
            mechanism=mechanism,
        )
        engine_runs, reference_runs = 2000, 1000
        member = SweepMember(params, counts, engine_runs, scenario=name)
        if name == "lv2":
            (result,) = run_sweep_ensemble([member], rng=11)
        else:
            (result,) = run_scenario_members([member], [11])
        engine_wins = int((result.winners == 0).sum())

        reactions, species, opinions = reference_lockstep.family_reactions(
            name, params, CATALYSIS_K_LIG
        )
        rng = random.Random(12)
        reference_wins = 0
        for _ in range(reference_runs):
            final, _ = direct_method(
                reactions,
                dict(zip(species, counts)),
                rng,
                stop=lambda c: sum(c[s] > 0 for s in opinions) <= 1,
            )
            reference_wins += final[opinions[0]] > 0 and all(final[s] == 0 for s in opinions[1:])

        pooled = (engine_wins + reference_wins) / (engine_runs + reference_runs)
        spread = math.sqrt(pooled * (1.0 - pooled) * (1.0 / engine_runs + 1.0 / reference_runs))
        z = (engine_wins / engine_runs - reference_wins / reference_runs) / spread
        assert 0.05 < pooled < 0.95, "pick a start where the win share is not degenerate"
        assert abs(z) <= 4.0, (engine_wins, reference_wins)
