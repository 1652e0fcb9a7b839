"""The two-species exact engine against the scalar replay of its contract.

``reference_lockstep`` replays the documented RNG consumption order one
replica and one uniform at a time.  Every exact path that ends in the
lock-step core or the scalar simulator must match it array for array: both
collect modes, every compaction setting, explicit member seeds, the
one-shot estimators, the scalar tail field for field, and the schedulers'
planned, packed, parallel and adaptive execution.  The tau backend runs
lv2 members on the generic engine, so a tau call parked from the start must
equal the generic replay on the tail stream.  The last class pins the
compatibility seam that replaced the removed native engine.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect

import numpy as np
import pytest

from repro.analysis.statistics import PrecisionTarget
from repro.baselines.cho_growth import ChoGrowthModel
from repro.consensus.estimator import estimate_majority_probability, summarise_ensemble
from repro.consensus.noise import decompose_noise
from repro.consensus.threshold import ThresholdSearch, drive_threshold_searches
from repro.exceptions import InvalidConfigurationError
from repro.experiments.scheduler import (
    SweepScheduler,
    configure_default_scheduler,
    get_default_scheduler,
)
from repro.experiments.sweep import (
    MemberSpec,
    SweepTask,
    chunk_ladder_size,
    execute_mega_batch,
    plan_members,
)
from repro.experiments.workloads import replica_batches
from repro.lv import native
from repro.lv.ensemble import (
    SCALAR_FINISH_WIDTH,
    LVEnsembleResult,
    SweepMember,
    run_sweep_ensemble,
)
from repro.lv.params import CompetitionMechanism, LVParams
from repro.lv.simulator import DEFAULT_MAX_EVENTS, LVJumpChainSimulator
from repro.lv.state import LVState
from repro.lv.tau import run_tau_sweep_ensemble
from repro.rng import spawn_seeds
from repro.scenario.engine import SCENARIO_TAU_TAIL_POPULATION, run_scenario_members

import reference_lockstep as reference


def assert_matches_replay(result, replay: dict) -> None:
    """Every array of *replay* equals the result's field of that name, dtype included."""
    for name, expected in replay.items():
        actual = getattr(result, name)
        assert actual.dtype == expected.dtype, name
        assert np.array_equal(actual, expected), name


def concatenate(replays: list[dict]) -> dict:
    return {name: np.concatenate([r[name] for r in replays]) for name in replays[0]}


def _members(sd_params, nsd_params):
    """A heterogeneous batch covering every retirement path.

    Mixed mechanisms and populations, a budget-limited member (max-events
    retirement plus mid-run scalar handoff), and an intraspecific-only
    member whose replicas can absorb at (1, 1).
    """
    gamma_only = LVParams.non_self_destructive(beta=0.0, delta=0.0, alpha=0.0, gamma=1.0)
    return [
        SweepMember(sd_params, LVState(40, 24), 90),
        SweepMember(nsd_params, LVState(33, 31), 70),
        SweepMember(sd_params, LVState(36, 28), 50, 40),
        SweepMember(gamma_only, LVState(5, 3), 40),
    ]


#: Both mechanisms, each without and with balanced intraspecific competition.
_ONE_SHOT_PARAMS = ["sd_params", "sd_balanced_params", "nsd_params", "nsd_balanced_params"]


class TestEnsembleAgainstReference:
    @pytest.mark.parametrize("collect", ["full", "win"])
    def test_sweep_ensemble_matches_reference(self, sd_params, nsd_params, collect):
        members = _members(sd_params, nsd_params)
        results = run_sweep_ensemble(members, rng=7, collect=collect)
        for result, replay in zip(results, reference.replay_lv2(members, rng=7, collect=collect)):
            assert_matches_replay(result, replay)

    @pytest.mark.parametrize("compaction", [None, 0.25, 1.0])
    def test_every_compaction_matches_reference(self, sd_params, nsd_params, compaction):
        members = _members(sd_params, nsd_params)
        results = run_sweep_ensemble(members, rng=3, compaction_fraction=compaction)
        for result, replay in zip(results, reference.replay_lv2(members, rng=3)):
            assert_matches_replay(result, replay)

    @pytest.mark.parametrize("collect", ["full", "win"])
    def test_a_tied_start_counts_as_a_tie(self, sd_params, nsd_params, collect):
        # One event moves every replica off the tie, so only the initial
        # state can set hit_tie (and min_gap_seen = 0) in the first member.
        members = [
            SweepMember(sd_params, LVState(10, 10), 12, max_events=1),
            SweepMember(nsd_params, LVState(7, 7), 12),
        ]
        results = run_sweep_ensemble(members, rng=5, collect=collect)
        for result, replay in zip(results, reference.replay_lv2(members, rng=5, collect=collect)):
            assert_matches_replay(result, replay)
        assert results[0].hit_tie.all()
        assert (results[0].min_gap_seen == 0).all()

    def test_member_seeds_match_reference(self, sd_params, nsd_params):
        members = _members(sd_params, nsd_params)
        seeds = [11, 22, 33, 44]
        results = run_sweep_ensemble(members, member_seeds=seeds)
        for result, replay in zip(results, reference.replay_lv2(members, member_seeds=seeds)):
            assert_matches_replay(result, replay)

    @pytest.mark.parametrize("mechanism", _ONE_SHOT_PARAMS)
    def test_one_shot_estimate_matches_reference(self, request, mechanism):
        params = request.getfixturevalue(mechanism)
        estimate = estimate_majority_probability(params, LVState(30, 18), num_runs=64, rng=9)
        replay = _one_shot_replay(params, rng=9)
        reached = (replay["final_x0"] == 0) | (replay["final_x1"] == 0)
        wins = (replay["final_x0"] > 0) & (replay["final_x1"] == 0)
        times = replay["total_events"][reached].astype(float)
        noise_comp = replay["noise_competitive"].astype(float)
        assert estimate.success.successes == int(np.count_nonzero(wins))
        assert estimate.consensus_rate == np.count_nonzero(reached) / 64
        assert estimate.mean_consensus_time == float(times.mean())
        assert estimate.q95_consensus_time == float(np.quantile(times, 0.95))
        assert estimate.mean_noise_individual == float(replay["noise_individual"].mean())
        assert estimate.mean_noise_competitive == float(noise_comp.mean())
        assert estimate.std_noise_competitive == float(noise_comp.std(ddof=0))

    @pytest.mark.parametrize("mechanism", _ONE_SHOT_PARAMS)
    def test_one_shot_decomposition_matches_reference(self, request, mechanism):
        params = request.getfixturevalue(mechanism)
        decomposition = decompose_noise(params, LVState(30, 18), num_runs=64, rng=9)
        replay = _one_shot_replay(params, rng=9)
        individual = replay["births"].sum(axis=1) + replay["deaths"].sum(axis=1)
        competitive = replay["interspecific_events"] + replay["intraspecific_events"].sum(axis=1)
        for actual, expected in [
            (decomposition.individual_noise, replay["noise_individual"]),
            (decomposition.competitive_noise, replay["noise_competitive"]),
            (decomposition.individual_events, individual),
            (decomposition.competitive_events, competitive),
        ]:
            assert actual.dtype == np.float64
            assert np.array_equal(actual, expected.astype(float))

    @pytest.mark.parametrize("mechanism", ["sd_params", "nsd_params"])
    def test_fixed_budget_threshold_search_matches_reference(self, request, mechanism):
        """``find`` decides every probe exactly as the replayed win-level probes would."""
        params = request.getfixturevalue(mechanism)
        found = ThresholdSearch(params, num_runs=40).find(32, rng=4)
        (replayed,) = drive_threshold_searches(
            [ThresholdSearch(params, num_runs=40).search_steps(32, rng=4)],
            lambda probes: [_reference_estimate(probe, "win") for probe in probes],
        )
        assert found.threshold_gap == replayed.threshold_gap
        assert list(found.probes) == list(replayed.probes)
        for gap, estimate in found.probes.items():
            assert_same_estimate(estimate, replayed.probes[gap])

    def test_cho_estimate_matches_reference(self):
        model = ChoGrowthModel(beta=1.0, alpha=1.0)
        estimate = model.estimate(LVState(40, 20), num_runs=50, rng=2)
        (seed,) = reference.member_root_seeds(1, rng=2)
        replay = reference.replay_lv2_member(model.params, (40, 20), 50, 20_000_000, seed)
        ensemble = LVEnsembleResult(params=model.params, initial_state=LVState(40, 20), **replay)
        assert estimate == summarise_ensemble(ensemble)

    def test_scalar_finish_width_is_the_documented_handoff(self):
        assert SCALAR_FINISH_WIDTH == reference.HANDOFF_WIDTH == 8


def _spent_member(params) -> SweepMember:
    """Ten replicas from (3, 2) with a budget of two events.

    With ``rng=1`` at most eight are alive at step 2, so they are handed to
    the scalar tail with no budget left and end there at once.
    """
    return SweepMember(params, LVState(3, 2), 10, max_events=2)


class TestSpentBudgetHandoff:
    """Replicas handed off exactly when their member's budget runs out."""

    @staticmethod
    def _assert_spent_handoff(result) -> None:
        spent = result.termination_codes == reference.MAX_EVENTS
        assert np.count_nonzero(spent) == 8
        assert (result.total_events[spent] == 2).all()

    @pytest.mark.parametrize("collect", ["full", "win"])
    def test_spent_member_alone_matches_reference(self, sd_params, collect):
        members = [_spent_member(sd_params)]
        (result,) = run_sweep_ensemble(members, rng=1, collect=collect)
        (replay,) = reference.replay_lv2(members, rng=1, collect=collect)
        assert_matches_replay(result, replay)
        self._assert_spent_handoff(result)

    @pytest.mark.parametrize("collect", ["full", "win"])
    def test_spent_member_fused_with_a_running_tail_matches_reference(
        self, sd_params, nsd_params, collect
    ):
        # Member seed 1 derives the root seed rng=1 does, so the first member
        # is the spent handoff above; the second member's survivors finish
        # on their own tail stream after it.
        members = [
            _spent_member(sd_params),
            SweepMember(nsd_params, LVState(20, 14), 12),
        ]
        results = run_sweep_ensemble(members, member_seeds=[1, 2], collect=collect)
        replays = reference.replay_lv2(members, member_seeds=[1, 2], collect=collect)
        for result, replay in zip(results, replays):
            assert_matches_replay(result, replay)
        self._assert_spent_handoff(results[0])
        assert (results[1].termination_codes == reference.CONSENSUS).all()
        assert results[1].total_events.max() > 2


def _one_shot_replay(params, *, rng):
    """The replay of a one-shot estimate: one 64-replica member from (30, 18)."""
    (seed,) = reference.member_root_seeds(1, rng=rng)
    return reference.replay_lv2_member(params, (30, 18), 64, DEFAULT_MAX_EVENTS, seed)


def _reference_estimate(probe, collect: str = "full"):
    """A threshold probe's estimate, summarised from its replayed member."""
    (seed,) = reference.member_root_seeds(1, rng=probe.seed)
    state = probe.initial_state
    replay = reference.replay_lv2_member(
        probe.params, (state.x0, state.x1), probe.num_runs, probe.max_events, seed, collect
    )
    ensemble = LVEnsembleResult(params=probe.params, initial_state=state, **replay)
    return summarise_ensemble(ensemble, confidence=probe.confidence, collected=collect)


def assert_same_estimate(actual, expected) -> None:
    """Every field of two estimates equal, NaN (a statistic never collected) matching NaN."""
    for field in dataclasses.fields(expected):
        value, wanted = getattr(actual, field.name), getattr(expected, field.name)
        if isinstance(wanted, float) and np.isnan(wanted):
            assert isinstance(value, float) and np.isnan(value), field.name
        else:
            assert value == wanted, field.name


SD = CompetitionMechanism.SELF_DESTRUCTIVE
NSD = CompetitionMechanism.NON_SELF_DESTRUCTIVE

#: One rate set per shape of the lock-step step table, which keeps only the
#: reaction pairs (births, deaths, interspecific, intraspecific) with a
#: nonzero rate somewhere in the packed batch.  Live pairs in the comments.
BIRTHS_DEATHS_SD = LVParams(1.0, 1.0, 0.0, 0.0, mechanism=SD)  # T1R5: births, deaths
BIRTHS_DEATHS_NSD = LVParams(1.0, 1.0, 0.0, 0.0, mechanism=NSD)
NO_INTRA_SD = LVParams(1.0, 1.0, 0.5, 0.5, mechanism=SD)  # T1R1, FIG-THRESH: + inter
NO_INTRA_NSD = LVParams(1.0, 1.0, 0.5, 0.5, mechanism=NSD)
NO_INTER = LVParams(1.0, 1.0, 0.0, 0.0, 0.5, 0.5, SD)  # T1R3: births, deaths, intra
GAMMA1_ONLY = LVParams(1.0, 1.0, 0.0, 0.0, 0.0, 1.0, NSD)  # intra live through gamma1
ALPHA0_ONLY = LVParams(1.0, 0.5, 1.0, 0.0, mechanism=SD)  # inter live through alpha0
INTRA_ONLY = LVParams(0.0, 0.0, 0.0, 0.0, 1.0, 1.0, NSD)  # intra only: absorbs at (1, 1)


def _shape(params, counts=(9, 5), budget=400):
    """A member that mostly runs to consensus, plus a budget-limited one.

    The second member retires on its event budget inside the lock-step
    phase, while the first thins out to the scalar-tail handoff.
    """
    return [
        SweepMember(params, LVState(*counts), 60, budget),
        SweepMember(params, LVState(16, 14), 40, 12),
    ]


DEAD_PAIR_BATCHES = {
    "births-deaths-sd": _shape(BIRTHS_DEATHS_SD),
    "births-deaths-nsd": _shape(BIRTHS_DEATHS_NSD),
    "no-intra": _shape(NO_INTRA_SD, (14, 8)),
    "no-intra-mixed": [
        SweepMember(NO_INTRA_SD, LVState(14, 8), 50),
        SweepMember(NO_INTRA_NSD, LVState(12, 9), 50),
        SweepMember(NO_INTRA_NSD, LVState(16, 14), 40, 12),
    ],
    "no-inter": _shape(NO_INTER, (12, 6)),
    "gamma1-only": _shape(GAMMA1_ONLY, (10, 7)),
    "alpha0-only": _shape(ALPHA0_ONLY, (12, 8)),
    "intra-only": _shape(INTRA_ONLY, (5, 3)),
    "fused": [
        SweepMember(params, LVState(*counts), 24, budget)
        for params, counts, budget in [
            (BIRTHS_DEATHS_SD, (9, 5), 400),
            (BIRTHS_DEATHS_NSD, (8, 6), 400),
            (NO_INTRA_SD, (14, 8), 20),
            (NO_INTRA_NSD, (12, 9), DEFAULT_MAX_EVENTS),
            (NO_INTER, (12, 6), DEFAULT_MAX_EVENTS),
            (GAMMA1_ONLY, (10, 7), DEFAULT_MAX_EVENTS),
            (ALPHA0_ONLY, (12, 8), DEFAULT_MAX_EVENTS),
            (INTRA_ONLY, (5, 3), DEFAULT_MAX_EVENTS),
        ]
    ],
}


class TestDeadReactionPairsAgainstReference:
    """Batches whose step table drops the pairs no packed replica can fire."""

    @pytest.mark.parametrize("compaction", [None, 0.25, 1.0])
    @pytest.mark.parametrize("collect", ["full", "win"])
    @pytest.mark.parametrize("batch", list(DEAD_PAIR_BATCHES))
    def test_reduced_table_matches_reference(self, batch, collect, compaction):
        members = DEAD_PAIR_BATCHES[batch]
        results = run_sweep_ensemble(
            members, rng=5, collect=collect, compaction_fraction=compaction
        )
        replays = reference.replay_lv2(members, rng=5, collect=collect)
        for result, replay in zip(results, replays):
            assert_matches_replay(result, replay)
        codes = np.concatenate([result.termination_codes for result in results])
        assert (codes == reference.MAX_EVENTS).any()
        if batch in ("intra-only", "fused"):
            assert (codes == reference.ABSORBED).any()


def _scalar_battery(count: int = 64) -> list[tuple[str, LVParams, tuple, int, int]]:
    """Seeded ``(label, params, state, budget, seed)`` cases for the scalar run.

    Named cases cover each shape once: both mechanisms, zero rates, γ > 0,
    a species-1 majority, a tied start, budgets of 5, 50 and 5,000, and
    runs past one uniform block, with and without competition (the loop
    skips the competition terms of a run without); random ones fill the
    rest.
    """
    cases = [
        ("sd", NO_INTRA_SD, (30, 18), 5_000, 1),
        ("nsd-species-1-majority", NO_INTRA_NSD, (18, 30), 5_000, 2),
        ("gamma-tie", LVParams(0.9, 1.1, 0.2, 0.6, 0.35, 0.15, NSD), (20, 20), 5_000, 3),
        ("gamma-budget-50", LVParams(1.0, 0.7, 0.3, 0.45, 0.3, 0.2, SD), (41, 30), 50, 4),
        ("alpha0-only-budget-5", ALPHA0_ONLY, (12, 8), 5, 5),
        ("intra-only-absorbs", INTRA_ONLY, (4, 4), 5_000, 6),
        ("past-one-block", BIRTHS_DEATHS_NSD, (100, 90), 5_000, 7),
    ]
    draw = np.random.default_rng(2_024)
    while len(cases) < count:
        rates = draw.choice([0.0, 0.5, 1.0, 1.5], size=6).tolist()
        if not any(rates):
            continue
        mechanism = SD if draw.random() < 0.5 else NSD
        x0, x1 = draw.integers(1, 60, size=2).tolist()
        if draw.random() < 0.15:
            x1 = x0
        budget = int(draw.choice([5, 50, 5_000]))
        label = f"random-{len(cases)}"
        cases.append((label, LVParams(*rates, mechanism), (x0, x1), budget, len(cases)))
    rare_competition = LVParams(1.0, 1.0, 1e-3, 1e-3, mechanism=SD)
    return cases + [
        ("no-competition-sd-past-one-block", BIRTHS_DEATHS_SD, (100, 90), 9_000, 8),
        ("rare-competition-past-one-block", rare_competition, (100, 90), 9_000, 10),
    ]


SCALAR_BATTERY = _scalar_battery()


class TestScalarTailAgainstReference:
    @pytest.mark.parametrize(
        "label, params, state, budget, seed",
        SCALAR_BATTERY,
        ids=[case[0] for case in SCALAR_BATTERY],
    )
    def test_seeded_battery_matches_field_for_field(self, label, params, state, budget, seed):
        run = LVJumpChainSimulator(params).run(
            LVState(*state), rng=np.random.default_rng(seed), max_events=budget
        )
        replay = reference.scalar_run(params, state, np.random.default_rng(seed), budget)
        self._assert_same_run(run, replay)
        if label.endswith("past-one-block"):
            assert run.total_events > reference.SCALAR_BLOCK

    def _assert_same_run(self, run, replay) -> None:
        for field in replay._fields:
            value = getattr(run, field)
            if field == "final_state":
                value = (value.x0, value.x1)
            assert value == getattr(replay, field), field

    def test_run_results_match_field_for_field(self, sd_params, nsd_balanced_params):
        for params in (sd_params, nsd_balanced_params):
            for seed in range(5):
                run = LVJumpChainSimulator(params).run(
                    LVState(50, 30), rng=np.random.default_rng(seed)
                )
                replay = reference.scalar_run(
                    params, (50, 30), np.random.default_rng(seed), DEFAULT_MAX_EVENTS
                )
                self._assert_same_run(run, replay)

    def test_minority_reference_noise_matches(self, nsd_params):
        # Species 1 leads, so every noise term is measured against x1 - x0.
        run = LVJumpChainSimulator(nsd_params).run(LVState(20, 34), rng=np.random.default_rng(2))
        replay = reference.scalar_run(
            nsd_params, (20, 34), np.random.default_rng(2), DEFAULT_MAX_EVENTS
        )
        self._assert_same_run(run, replay)

    def test_max_events_termination_matches(self, nsd_params):
        run = LVJumpChainSimulator(nsd_params).run(
            LVState(60, 40), rng=np.random.default_rng(1), max_events=25
        )
        replay = reference.scalar_run(nsd_params, (60, 40), np.random.default_rng(1), 25)
        assert run.termination == replay.termination == "max-events"
        self._assert_same_run(run, replay)

    def test_absorbed_termination_matches(self):
        gamma_only = LVParams.non_self_destructive(beta=0.0, delta=0.0, alpha=0.0, gamma=1.0)
        for seed in range(8):
            run = LVJumpChainSimulator(gamma_only).run(
                LVState(4, 4), rng=np.random.default_rng(seed)
            )
            replay = reference.scalar_run(
                gamma_only, (4, 4), np.random.default_rng(seed), DEFAULT_MAX_EVENTS
            )
            self._assert_same_run(run, replay)

    def test_generator_stream_position_matches(self, sd_params):
        # Sequential runs on one stream (every tail) diverge unless each run
        # consumes exactly the same whole blocks; the second run needs two.
        simulator_rng = np.random.default_rng(42)
        reference_rng = np.random.default_rng(42)
        for params, state, budget in [
            (sd_params, (30, 20), DEFAULT_MAX_EVENTS),
            (BIRTHS_DEATHS_NSD, (100, 90), 6_000),
        ]:
            run = LVJumpChainSimulator(params).run(
                LVState(*state), rng=simulator_rng, max_events=budget
            )
            self._assert_same_run(run, reference.scalar_run(params, state, reference_rng, budget))
            assert simulator_rng.random() == reference_rng.random()
        assert run.total_events > reference.SCALAR_BLOCK


GAMMA_SD = LVParams(1.0, 0.7, 0.3, 0.45, 0.3, 0.2, SD)
GAMMA_NSD = LVParams(0.9, 1.1, 0.2, 0.6, 0.35, 0.15, NSD)

#: Tau calls whose replicas all start below the tau tail population, so
#: every replica parks before its first leap: both mechanisms, both
#: majorities, a tie, intraspecific competition, budgets that run out, and
#: absorption at (1, 1) and in a dead heat.
ENDGAME_BATCHES = {
    "mixed": [
        SweepMember(NO_INTRA_SD, LVState(60, 40), 24),
        SweepMember(NO_INTRA_NSD, LVState(50, 46), 16),
        SweepMember(NO_INTRA_NSD, LVState(34, 41), 12),
        SweepMember(GAMMA_SD, LVState(30, 41), 20),
        SweepMember(GAMMA_NSD, LVState(20, 20), 20),
    ],
    "budget": [
        SweepMember(NO_INTRA_SD, LVState(60, 40), 24, 40),
        SweepMember(GAMMA_NSD, LVState(33, 28), 16, 70),
        SweepMember(NO_INTRA_NSD, LVState(50, 46), 12),
    ],
    "absorbed": [
        SweepMember(INTRA_ONLY, LVState(4, 4), 20),
        SweepMember(INTRA_ONLY, LVState(5, 3), 12),
        SweepMember(NO_INTRA_SD, LVState(12, 9), 12),
    ],
}

#: The two-species accounting the generic engine does not keep: zero in
#: every lv2 result of the tau backend.
UNKEPT_ARRAYS = (
    "births",
    "deaths",
    "interspecific_events",
    "intraspecific_events",
    "noise_individual",
    "noise_competitive",
    "min_gap_seen",
    "hit_tie",
)


class TestTauEndgameAgainstReference:
    """lv2 replicas parked from the start step on their member's tail stream.

    The tau backend runs lv2 members on the generic engine, so a call whose
    replicas all start below ``SCENARIO_TAU_TAIL_POPULATION`` leaps nothing
    and must equal the generic replay on each member's tail stream, array
    for array, at both levels, in the two-species result shape.
    """

    @pytest.mark.parametrize("collect", ["full", "win"])
    @pytest.mark.parametrize("batch", list(ENDGAME_BATCHES))
    def test_parked_call_equals_the_tail_stream_replay(self, batch, collect):
        members = ENDGAME_BATCHES[batch]
        assert all(m.initial_state.total < SCENARIO_TAU_TAIL_POPULATION for m in members)
        seeds = [31 + index for index in range(len(members))]
        results = run_tau_sweep_ensemble(members, member_seeds=seeds, collect=collect)
        roots = reference.member_root_seeds(len(members), member_seeds=seeds)
        for member, root, result in zip(members, roots, results):
            replay = reference.replay_generic_member(
                *reference.family_reactions("lv2", member.params, 0.0),
                member.initial_state.counts,
                member.num_replicates,
                member.max_events,
                root,
                collect,
                stream="tail",
            )
            # The two-species shape: the final counts are final_x0/final_x1.
            assert result.finals is None and result.initial_counts is None
            assert result.initial_state == member.initial_state
            del replay["finals"]
            for name, expected in replay.items():
                actual = getattr(result, name)
                assert actual.dtype == expected.dtype, name
                assert np.array_equal(actual, expected), name
            assert result.leap_events.dtype == np.int64
            assert not result.leap_events.any()
            for name in UNKEPT_ARRAYS:
                assert not getattr(result, name).any(), name
        codes = np.concatenate([result.termination_codes for result in results])
        if batch == "budget":
            assert (codes == reference.MAX_EVENTS).any()
        if batch == "absorbed":
            assert (codes == reference.ABSORBED).any()

    @pytest.mark.parametrize("batch", list(ENDGAME_BATCHES))
    def test_fused_and_solo_calls_agree(self, batch):
        members = ENDGAME_BATCHES[batch]
        seeds = [11 + index for index in range(len(members))]
        fused = run_tau_sweep_ensemble(members, member_seeds=seeds)
        for member, seed, result in zip(members, seeds, fused):
            (solo,) = run_tau_sweep_ensemble([member], member_seeds=[seed])
            for field in dataclasses.fields(result):
                mine, theirs = getattr(result, field.name), getattr(solo, field.name)
                if isinstance(mine, np.ndarray):
                    assert np.array_equal(mine, theirs), field.name
                else:
                    assert mine == theirs, field.name


def _tasks(sd_params, nsd_params):
    return [
        SweepTask(sd_params, LVState(40, 24), 300, seed=1, label="easy"),
        SweepTask(nsd_params, LVState(33, 31), 300, seed=2, label="hard"),
        SweepTask(sd_params, LVState(36, 28), 300, seed=3, label="medium"),
    ]


def _planned_replays(tasks, batch_size: int, collect: str = "full") -> list[dict]:
    """Each task's replay: its planned batches, each seeded as the planner says."""
    per_task: list[list[dict]] = [[] for _ in tasks]
    for spec in plan_members(tasks, batch_size=batch_size):
        (seed,) = reference.member_root_seeds(1, member_seeds=[spec.seed])
        per_task[spec.task_index].append(
            reference.replay_lv2_member(
                spec.params, spec.counts, spec.num_replicates, spec.max_events, seed, collect
            )
        )
    return [concatenate(replays) for replays in per_task]


TARGET = PrecisionTarget(ci_half_width=0.05, min_replicates=64, max_replicates=512)


class TestSchedulerAgainstReference:
    @pytest.mark.parametrize("sweep_batch", [96, 2048])
    def test_fixed_sweep_matches_reference_across_sweep_batch(
        self, sd_params, nsd_params, sweep_batch
    ):
        tasks = _tasks(sd_params, nsd_params)
        results = SweepScheduler(batch_size=128, sweep_batch=sweep_batch).run_sweep(tasks)
        for result, replay in zip(results, _planned_replays(tasks, 128)):
            assert_matches_replay(result, replay)

    def test_fixed_sweep_matches_reference_across_jobs(self, sd_params, nsd_params):
        tasks = _tasks(sd_params, nsd_params)
        with SweepScheduler(batch_size=128, jobs=2) as scheduler:
            results = scheduler.run_sweep(tasks, collect="win")
        for result, replay in zip(results, _planned_replays(tasks, 128, "win")):
            assert_matches_replay(result, replay)

    def test_one_task_multi_batch_sweep_matches_reference(self, sd_params):
        (result,) = SweepScheduler(batch_size=50).run_sweep(
            [SweepTask(sd_params, LVState(40, 24), 120, seed=5)]
        )
        sizes = replica_batches(120, 50)
        seeds = spawn_seeds(5, len(sizes))
        replays = [
            reference.replay_lv2_member(
                sd_params, (40, 24), size, DEFAULT_MAX_EVENTS, spawn_seeds(seed, 1)[0]
            )
            for size, seed in zip(sizes, seeds)
        ]
        assert_matches_replay(result, concatenate(replays))

    def test_adaptive_waves_match_reference(self, sd_params, nsd_params):
        tasks = _tasks(sd_params, nsd_params)
        scheduler = SweepScheduler(wave_quantum=64)
        results = scheduler.run_sweep_adaptive(tasks, target=TARGET)
        assert len(set(scheduler.last_adaptive_report.replicates)) > 1
        for task, result in zip(tasks, results):
            replays, rung, done = [], 0, 0
            while done < result.num_replicates:
                size = chunk_ladder_size(TARGET, 64, rung)
                # Rung r's seed is the r-th prefix-stable spawn of the task seed.
                rung_seed = spawn_seeds(task.seed, rung + 1)[rung]
                (seed,) = reference.member_root_seeds(1, member_seeds=[rung_seed])
                replays.append(
                    reference.replay_lv2_member(
                        task.params, task.counts, size, task.max_events, seed
                    )
                )
                rung, done = rung + 1, done + size
            assert_matches_replay(result, concatenate(replays))

    def test_mega_batch_matches_reference_per_member(self, sd_params, nsd_params):
        tasks = [
            SweepTask(sd_params, LVState(40, 24), 100, seed=5),
            SweepTask(nsd_params, LVState(33, 31), 100, seed=6),
            SweepTask(sd_params, LVState(36, 28), 100, seed=7),
        ]
        specs = plan_members(tasks, batch_size=512)
        results = execute_mega_batch(specs)
        replays = _planned_replays(tasks, 512)
        for result, replay in zip(results, replays):
            assert_matches_replay(result, replay)


class TestEngineSeam:
    """``repro.lv.native`` keeps two names for callers of the removed engine."""

    @pytest.mark.parametrize("selector", ["auto", "numpy"])
    def test_accepted_selectors_resolve_to_numpy(self, selector):
        assert native.resolve_engine(selector) == "numpy"

    @pytest.mark.parametrize("selector", ["numba", "fortran", ""])
    def test_other_selectors_are_rejected_as_removed(self, selector):
        with pytest.raises(InvalidConfigurationError, match="was removed"):
            native.resolve_engine(selector)

    def test_native_engine_is_never_available(self):
        assert native.NATIVE_AVAILABLE is False

    def test_seam_defines_only_its_two_names(self):
        source = inspect.getsource(native)
        defined = set()
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(target.id for target in node.targets)
        assert defined == {"__all__", "NATIVE_AVAILABLE", "resolve_engine"}
        assert native.__all__ == ["NATIVE_AVAILABLE", "resolve_engine"]
        assert len(source.splitlines()) <= 30

    def test_default_scheduler_validates_and_discards_engine(self, monkeypatch):
        # monkeypatch restores the process-wide scheduler afterwards.
        monkeypatch.setattr(
            "repro.experiments.scheduler._default_scheduler", get_default_scheduler()
        )
        scheduler = configure_default_scheduler(engine="auto")
        assert not hasattr(scheduler, "engine")
        with pytest.raises(InvalidConfigurationError, match="was removed"):
            configure_default_scheduler(engine="numba")
        assert get_default_scheduler() is scheduler

    @pytest.mark.parametrize(
        "build",
        [
            lambda p: SweepScheduler(engine="numpy"),
            lambda p: SweepTask(p, LVState(4, 2), 10, engine="numpy"),
            lambda p: run_sweep_ensemble([SweepMember(p, LVState(4, 2), 2)], engine="numpy"),
            lambda p: run_tau_sweep_ensemble([SweepMember(p, LVState(4, 2), 2)], engine="numpy"),
            lambda p: run_scenario_members(
                [SweepMember(p, (4, 2, 2), 2, scenario="opinion3")], [1], engine="numpy"
            ),
            lambda p: execute_mega_batch(
                plan_members([SweepTask(p, LVState(4, 2), 2, seed=1)], batch_size=2),
                engine="numpy",
            ),
        ],
        ids=["scheduler", "task", "sweep", "tau-sweep", "scenario", "mega"],
    )
    def test_no_other_api_takes_engine(self, sd_params, build):
        with pytest.raises(TypeError, match="engine"):
            build(sd_params)

    def test_member_specs_carry_no_engine(self):
        names = {field.name for field in dataclasses.fields(MemberSpec)}
        assert "engine" not in names
