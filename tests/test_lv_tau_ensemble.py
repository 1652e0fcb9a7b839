"""Tests for the tau-leaping backend's entry point (:mod:`repro.lv.tau`).

The tau backend must be a *statistical* drop-in for the exact engines on
both competition mechanisms — same win probabilities, consensus times and
event counts within the shared Monte-Carlo tolerances — while remaining
seed-deterministic and honouring the same fused-equals-solo per-member
stream contract as the exact lock-step engine.  Its lv2 members run on the
generic engine's tau backend, which keeps no per-event accounting: the
exact engine's tests check that accounting.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidConfigurationError
from repro.lv.ensemble import SweepMember, run_sweep_ensemble
from repro.lv.params import CompetitionMechanism, LVParams
from repro.lv.simulator import DEFAULT_MAX_EVENTS
from repro.lv.state import LVState
from repro.lv.tau import (
    BACKENDS,
    DEFAULT_TAU_POPULATION,
    resolve_backend,
    run_tau_sweep_ensemble,
)
from repro.scenario.engine import SCENARIO_TAU_TAIL_POPULATION

from helpers_statistical import assert_outcomes_close

#: Moderate population where both backends are fast enough for hundreds of
#: replicates, with gaps placing the win probability away from 0 and 1.
_AGREEMENT_N = 2000
_AGREEMENT_RUNS = 400


def _tau(params, state, num_replicates, rng, max_events=DEFAULT_MAX_EVENTS, **options):
    """One tau member's result; *options* go to ``run_tau_sweep_ensemble``."""
    member = SweepMember(params, state, num_replicates, max_events)
    return run_tau_sweep_ensemble([member], rng=rng, **options)[0]


def _exact(params, state, num_replicates, rng):
    return run_sweep_ensemble([SweepMember(params, state, num_replicates)], rng=rng)[0]


_SD = CompetitionMechanism.SELF_DESTRUCTIVE
_NSD = CompetitionMechanism.NON_SELF_DESTRUCTIVE


@st.composite
def _lv2_member(draw) -> SweepMember:
    """An lv2 tau member: either mechanism, optional inter- and intraspecific
    rates, a species-0 or species-1 majority, a state below, at or above the
    tail population or at consensus, a budget that may run out while it
    leaps or after it parks (always bounded without competition between the
    species, which can take very long to reach consensus), and up to 12
    replicas."""
    alpha0, alpha1 = draw(st.sampled_from([(0.3, 0.5), (0.5, 0.3), (0.5, 0.5), (0.0, 0.0)]))
    params = LVParams(
        beta=draw(st.sampled_from([0.6, 1.0])),
        delta=draw(st.sampled_from([0.4, 1.0])),
        alpha0=alpha0,
        alpha1=alpha1,
        gamma0=draw(st.sampled_from([0.0, 0.002])),
        gamma1=draw(st.sampled_from([0.0, 0.002])),
        mechanism=draw(st.sampled_from([_SD, _NSD])),
    )
    tail = SCENARIO_TAU_TAIL_POPULATION
    total = draw(st.sampled_from([tail - 10, tail, 800]))
    minority = draw(st.integers(min_value=0, max_value=total // 2))
    counts = (total - minority, minority)
    if draw(st.booleans()):
        counts = counts[::-1]
    budgets = [25, 400, 2_500] + [DEFAULT_MAX_EVENTS] * (params.alpha > 0.0)
    budget = draw(st.sampled_from(budgets))
    return SweepMember(params, LVState(*counts), draw(st.integers(1, 12)), budget)


#: A generic-scenario member that can ride along in a fused call.
_GENERIC_MEMBER = SweepMember(
    LVParams(0.5, 0.4, 0.9, 0.7, 0.2, 0.3, _SD), (150, 90, 60), 3, scenario="opinion3"
)


#: One call with every case of the property: a species-1 majority with
#: intraspecific competition; budgets that run out after parking from the
#: start, while leaping, and after leaping and parking; a member at
#: consensus; strong intraspecific competition; two members that share their
#: rates and so their scenario group; and a birth-death walk without
#: competition (the generic member goes in as the third).
_MIXED_CALL = [
    SweepMember(LVParams(1.0, 0.4, 0.3, 0.5, 0.002, 0.0, _SD), LVState(300, 500), 12, 2_500),
    SweepMember(LVParams(0.6, 1.0, 0.5, 0.3, 0.0, 0.002, _NSD), LVState(36, 28), 3, 20),
    SweepMember(LVParams(1.0, 1.0, 0.5, 0.5, mechanism=_SD), LVState(600, 200), 2, 40),
    SweepMember(LVParams(1.0, 1.0, 0.5, 0.5, mechanism=_NSD), LVState(64, 0), 2),
    SweepMember(LVParams(0.6, 0.4, 0.3, 0.3, 0.002, 0.002, _NSD), LVState(32, 32), 10, 400),
    SweepMember(LVParams(1.0, 1.0, 0.5, 0.5, mechanism=_NSD), LVState(380, 420), 3, 780),
    SweepMember(LVParams(0.2, 0.2, 0.3, 0.3, 0.05, 0.05, _SD), LVState(50, 20), 3),
    SweepMember(LVParams(1.0, 0.4, 0.0, 0.0, mechanism=_NSD), LVState(250, 150), 2, 400),
]


def _assert_same_result(fused, solo) -> None:
    """Every field of two ensemble results is equal, arrays bit for bit."""
    for field in dataclasses.fields(fused):
        mine, theirs = getattr(fused, field.name), getattr(solo, field.name)
        if isinstance(mine, np.ndarray):
            assert mine.dtype == theirs.dtype, field.name
            assert np.array_equal(mine, theirs), field.name
        else:
            assert mine == theirs, field.name


class TestResolveBackend:
    def test_explicit_backends_pass_through(self):
        assert resolve_backend("exact", 10**7) == "exact"
        assert resolve_backend("tau", 10) == "tau"

    def test_auto_switches_on_population(self):
        assert resolve_backend("auto", DEFAULT_TAU_POPULATION) == "tau"
        assert resolve_backend("auto", DEFAULT_TAU_POPULATION - 1) == "exact"

    def test_unknown_backend_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            resolve_backend("approximate", 100)

    def test_backends_constant(self):
        assert BACKENDS == ("exact", "tau", "auto")


class TestStatisticalAgreement:
    """Tau vs exact ensembles: ρ, mean consensus time and mean events agree."""

    @pytest.mark.parametrize("gap", [8, 60])
    def test_agrees_with_exact_sd(self, sd_params, gap):
        state = LVState((_AGREEMENT_N + gap) // 2, (_AGREEMENT_N - gap) // 2)
        tau = _tau(sd_params, state, _AGREEMENT_RUNS, 11)
        exact = _exact(sd_params, state, _AGREEMENT_RUNS, 11)
        assert_outcomes_close(tau, exact, label=f"sd-gap{gap}")

    @pytest.mark.parametrize("gap", [40])
    def test_agrees_with_exact_nsd(self, nsd_params, gap):
        state = LVState((_AGREEMENT_N + gap) // 2, (_AGREEMENT_N - gap) // 2)
        tau = _tau(nsd_params, state, _AGREEMENT_RUNS, 13)
        exact = _exact(nsd_params, state, _AGREEMENT_RUNS, 13)
        assert_outcomes_close(tau, exact, label=f"nsd-gap{gap}")

    def test_agrees_with_exact_at_large_population(self, sd_params):
        """Overlapping-n cross-check in the regime the backend is built for."""
        state = LVState(30_060, 29_940)
        tau = _tau(sd_params, state, 64, 5)
        exact = _exact(sd_params, state, 64, 5)
        assert_outcomes_close(tau, exact, label="sd-large")


class TestStreamContract:
    """Per-member streams: fused == solo, bitwise, like the exact engine."""

    def test_fused_members_equal_solo_runs(self, sd_params, nsd_params):
        members = [
            SweepMember(sd_params, LVState(3030, 2970), 12),
            SweepMember(nsd_params, LVState(2020, 1980), 8),
        ]
        seeds = [101, 202]
        fused = run_tau_sweep_ensemble(members, member_seeds=seeds)
        for member, seed, fused_result in zip(members, seeds, fused):
            solo = run_tau_sweep_ensemble([member], member_seeds=[seed])[0]
            for attribute in (
                "final_x0",
                "final_x1",
                "total_events",
                "leap_events",
                "termination_codes",
                "births",
                "deaths",
                "interspecific_events",
                "intraspecific_events",
                "bad_noncompetitive_events",
                "good_events",
                "noise_individual",
                "noise_competitive",
                "max_total_population",
                "min_gap_seen",
                "hit_tie",
            ):
                assert np.array_equal(
                    getattr(fused_result, attribute), getattr(solo, attribute)
                ), attribute

    @settings(max_examples=25, deadline=None)
    @example(members=_MIXED_CALL, generic_at=2, seed=7)
    @given(
        members=st.lists(_lv2_member(), min_size=1, max_size=6),
        generic_at=st.none() | st.integers(min_value=0, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_fused_call_equals_solo_calls(self, members, generic_at, seed):
        """Fused == solo as a property: each member of a random call, every
        member leaping in one loop, equals its one-member call."""
        if generic_at is not None:
            members = [*members[:generic_at], _GENERIC_MEMBER, *members[generic_at:]]
        seeds = [seed + index for index in range(len(members))]
        fused = run_tau_sweep_ensemble(members, member_seeds=seeds)
        for member, member_seed, result in zip(members, seeds, fused):
            solo = run_tau_sweep_ensemble([member], member_seeds=[member_seed])
            _assert_same_result(result, solo[0])

    def test_root_seed_determinism(self, sd_params):
        first = _tau(sd_params, LVState(5050, 4950), 16, 42)
        second = _tau(sd_params, LVState(5050, 4950), 16, 42)
        assert np.array_equal(first.final_x0, second.final_x0)
        assert np.array_equal(first.total_events, second.total_events)
        third = _tau(sd_params, LVState(5050, 4950), 16, 43)
        assert not np.array_equal(first.total_events, third.total_events)


class TestTauEnsembleBehaviour:
    def test_all_replicas_reach_consensus(self, sd_params):
        result = _tau(sd_params, LVState(60_300, 59_700), 16, 7)
        assert bool(result.reached_consensus.all())
        assert result.termination_counts() == {"consensus": 16}
        assert np.minimum(result.final_x0, result.final_x1).max() == 0

    def test_event_budget_is_metered_in_firings(self, sd_params):
        result = _tau(sd_params, LVState(30_000, 30_000), 8, 3, max_events=5_000)
        assert result.termination_counts() == {"max-events": 8}
        # The budget is checked between leaps, so every replica fired at
        # least the budget and overshot by at most one leap.
        assert (result.total_events >= 5_000).all()
        assert (result.total_events <= 5_000 + 2 * 0.03 * 60_000).all()

    def test_leap_and_exact_events_split(self, sd_params):
        result = _tau(sd_params, LVState(30_060, 29_940), 8, 9)
        assert result.leap_events is not None
        assert (result.leap_events > 0).all()
        assert (result.leap_events <= result.total_events).all()
        # Parked replicas (opinion population below the tail population)
        # always take exact steps in this regime.
        assert (result.total_events > result.leap_events).all()

    def test_replicas_park_below_the_tail_population(self, sd_params):
        """An opinion population of 512 leaps first; one of 511 parks at once."""
        at_tail = _tau(sd_params, LVState(272, SCENARIO_TAU_TAIL_POPULATION - 272), 8, 4)
        below = _tau(sd_params, LVState(271, SCENARIO_TAU_TAIL_POPULATION - 272), 8, 4)
        assert at_tail.leap_events.sum() > 0
        assert not below.leap_events.any()
        assert (below.total_events > 0).all()

    def test_initial_consensus_retires_immediately(self, sd_params):
        result = _tau(sd_params, LVState(9, 0), 4, 1)
        assert (result.total_events == 0).all()
        assert bool(result.reached_consensus.all())

    def test_run_results_view_reaches_consensus(self, sd_params):
        results = _tau(sd_params, LVState(2020, 1980), 4, 2).to_run_results()
        assert len(results) == 4
        assert all(r.reached_consensus for r in results)

    @pytest.mark.parametrize("budget", [2_990, 2_998])
    def test_a_budget_spent_in_the_endgame_ends_at_the_budget(self, sd_params, budget):
        """A parked replica's exact steps spend what its leaps left of the budget.

        From (3030, 2970) every replica leaps ~2,750 events and then parks;
        it then takes ~220-250 exact steps, so these budgets run out there
        for some replicas and not for others.
        """
        result = _tau(sd_params, LVState(3030, 2970), 24, 5, max_events=budget)
        spent = result.termination_codes == 2
        assert 0 < spent.sum() < 24
        assert (result.leap_events < budget).all()
        assert (result.total_events[spent] == budget).all()
        assert (result.total_events <= budget).all()

    def test_lv2_members_honour_collect(self, sd_params, nsd_params):
        """Both levels follow the same trajectories; only ``"full"`` counts.

        At ``"full"`` every event, leapt or exact, is good or bad by the
        spec's static split, and the population maximum is tracked; at
        ``"win"`` both event counts stay zero and the maximum is the initial
        total.  The two-species accounting is zero at both levels.
        """
        members = [
            SweepMember(sd_params, LVState(3030, 2970), 12),
            SweepMember(nsd_params, LVState(1980, 2020), 10),
        ]
        full = run_tau_sweep_ensemble(members, rng=8)
        win = run_tau_sweep_ensemble(members, rng=8, collect="win")
        for member, full_result, win_result in zip(members, full, win):
            for name in ("final_x0", "final_x1", "total_events", "leap_events"):
                assert np.array_equal(getattr(full_result, name), getattr(win_result, name)), name
            assert np.array_equal(full_result.termination_codes, win_result.termination_codes)
            counted = full_result.good_events + full_result.bad_noncompetitive_events
            assert np.array_equal(counted, full_result.total_events)
            assert (full_result.good_events > 0).all()
            assert (full_result.max_total_population >= member.initial_state.total).all()
            assert not win_result.good_events.any()
            assert not win_result.bad_noncompetitive_events.any()
            assert (win_result.max_total_population == member.initial_state.total).all()
            for result in (full_result, win_result):
                assert not result.individual_events.any()
                assert not result.competitive_events.any()
                assert not result.noise_individual.any() and not result.hit_tie.any()

    def test_minority_majority_convention_respected(self, sd_params):
        """A species-1 majority flips the noise reference, as in the exact engine."""
        flipped = _tau(sd_params, LVState(2970, 3030), 64, 17)
        reference = _tau(sd_params, LVState(3030, 2970), 64, 17)
        # Neutral rates: the mirrored configurations tell the same story.
        assert flipped.majority_consensus.mean() == pytest.approx(
            reference.majority_consensus.mean(), abs=0.15
        )


class TestValidation:
    def test_epsilon_bounds(self, sd_params):
        with pytest.raises(InvalidConfigurationError):
            _tau(sd_params, LVState(10, 10), 4, 0, epsilon=0.0)
        with pytest.raises(InvalidConfigurationError):
            _tau(sd_params, LVState(10, 10), 4, 0, epsilon=1.0)

    def test_replicates_and_budget_validation(self, sd_params):
        with pytest.raises(InvalidConfigurationError):
            _tau(sd_params, LVState(10, 10), 0, 0)

    def test_sweep_validation(self, sd_params):
        with pytest.raises(InvalidConfigurationError):
            run_tau_sweep_ensemble([])
        member = SweepMember(sd_params, LVState(30, 10), 4)
        with pytest.raises(InvalidConfigurationError):
            run_tau_sweep_ensemble([member], member_seeds=[1, 2])
        with pytest.raises(InvalidConfigurationError):
            run_tau_sweep_ensemble([member], epsilon=2.0)
        with pytest.raises(InvalidConfigurationError):
            run_tau_sweep_ensemble([member], collect="wim")

    def test_exact_engine_results_carry_no_leap_events(self, sd_params):
        exact = run_sweep_ensemble(
            [SweepMember(sd_params, LVState(36, 24), 8)], rng=3
        )[0]
        assert exact.leap_events is None
