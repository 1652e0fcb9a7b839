"""Tests for the fast two-species jump-chain simulator."""

from __future__ import annotations

import dataclasses
import hashlib
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import InvalidConfigurationError
from repro.lv.params import CompetitionMechanism, LVParams
from repro.lv.simulator import LVJumpChainSimulator
from repro.lv.state import LVState
from repro.rng import as_generator
from repro.scenario.spec import lv2_event_order, lv2_reaction_structure

SD = CompetitionMechanism.SELF_DESTRUCTIVE
NSD = CompetitionMechanism.NON_SELF_DESTRUCTIVE


def _majority_wins(simulator, state, num_runs, seed):
    """How many of *num_runs* runs on one generator end in majority consensus."""
    generator = as_generator(seed)
    return sum(simulator.run(state, rng=generator).majority_consensus for _ in range(num_runs))


class TestRunBasics:
    def test_reaches_consensus(self, sd_params):
        result = LVJumpChainSimulator(sd_params).run(LVState(30, 10), rng=0)
        assert result.reached_consensus
        assert result.final_state.has_consensus
        assert result.termination == "consensus"
        assert result.consensus_time == result.total_events

    def test_reproducible_with_seed(self, nsd_params):
        simulator = LVJumpChainSimulator(nsd_params)
        first = simulator.run(LVState(25, 15), rng=123)
        second = simulator.run(LVState(25, 15), rng=123)
        assert first.final_state == second.final_state
        assert first.total_events == second.total_events
        assert first.noise_individual == second.noise_individual

    def test_accepts_tuple_initial_state(self, sd_params):
        result = LVJumpChainSimulator(sd_params).run((20, 10), rng=1)
        assert result.initial_state == LVState(20, 10)

    def test_rejects_bad_initial_state(self, sd_params):
        with pytest.raises(InvalidConfigurationError):
            LVJumpChainSimulator(sd_params).run("bad", rng=1)

    def test_max_events_budget(self, sd_params):
        result = LVJumpChainSimulator(sd_params).run(LVState(500, 500), rng=1, max_events=10)
        assert result.total_events == 10
        assert result.termination == "max-events"
        assert not result.reached_consensus
        assert result.consensus_time is None

    def test_invalid_max_events(self, sd_params):
        with pytest.raises(ValueError):
            LVJumpChainSimulator(sd_params).run(LVState(5, 5), max_events=0)

    def test_start_at_consensus_is_noop(self, sd_params):
        result = LVJumpChainSimulator(sd_params).run(LVState(5, 0), rng=0)
        assert result.total_events == 0
        assert result.reached_consensus
        assert result.winner == 0
        assert result.majority_consensus

    def test_record_path(self, sd_params):
        result = LVJumpChainSimulator(sd_params).run(LVState(12, 6), rng=2, record_path=True)
        assert len(result.path) == result.total_events
        assert result.path[-1].state == result.final_state.counts


#: ``(label, params, state, budget, seed)`` of recorded runs: both
#: mechanisms, a species-1 majority, a tie with intraspecific competition, a
#: budget, absorption at (1, 1) and a run past one 4096-uniform block (its
#: path is rebuilt across a fold of the recorded events).
RECORDED_RUNS = [
    ("sd", LVParams(1.0, 1.0, 1.0, 1.0, mechanism=SD), (40, 24), 20_000_000, 7),
    (
        "nsd-gamma-minority-first",
        LVParams(1.0, 1.0, 1.0, 1.0, 2.0, 2.0, NSD),
        (20, 34),
        20_000_000,
        3,
    ),
    ("gamma-tie", LVParams(0.9, 1.1, 0.2, 0.6, 0.35, 0.15, NSD), (12, 12), 20_000_000, 5),
    ("budget", LVParams(1.0, 0.7, 0.3, 0.45, 0.3, 0.2, SD), (60, 40), 25, 1),
    ("absorbed", LVParams(0.0, 0.0, 0.0, 0.0, 1.0, 1.0, NSD), (4, 4), 20_000_000, 2),
    ("past-one-block", LVParams(1.0, 1.0, 0.0, 0.0, mechanism=NSD), (100, 90), 5_000, 4),
]

#: sha256 of :func:`_runs_digest` over :data:`RECORDED_RUNS`, as ``run`` with
#: its own in-loop accounting computed it (version 5.1.0).
RECORDED_RUNS_DIGEST = "2f7629f6eee8f5ac162d8fe5da4dc94a00f5c81184c66cf6212bfb252b724aa0"


def _recorded_run(params, state, budget, seed):
    return LVJumpChainSimulator(params).run(
        LVState(*state), rng=seed, max_events=budget, record_path=True
    )


def _runs_digest(runs) -> str:
    """sha256 over the ``repr`` of every field of every run, path included."""
    digest = hashlib.sha256()
    for run in runs:
        for field in dataclasses.fields(run):
            digest.update(f"{field.name}={getattr(run, field.name)!r}\n".encode())
    return digest.hexdigest()


class TestRecordedPath:
    @pytest.mark.parametrize(
        "label, params, state, budget, seed",
        RECORDED_RUNS,
        ids=[case[0] for case in RECORDED_RUNS],
    )
    def test_each_step_is_the_previous_state_plus_its_move(
        self, label, params, state, budget, seed
    ):
        result = _recorded_run(params, state, budget, seed)
        _, changes = lv2_reaction_structure(params.is_self_destructive)
        moves = dict(zip(lv2_event_order(), changes))
        assert len(result.path) == result.total_events
        previous = state
        for index, step in enumerate(result.path):
            dx0, dx1 = moves[step.event]
            assert step.index == index
            assert step.state == (previous[0] + dx0, previous[1] + dx1)
            previous = step.state
        assert previous == result.final_state.counts
        if label == "past-one-block":
            assert result.total_events > 4096

    @pytest.mark.parametrize(
        "label, params, state, budget, seed",
        RECORDED_RUNS,
        ids=[case[0] for case in RECORDED_RUNS],
    )
    def test_event_names_count_the_accounting(self, label, params, state, budget, seed):
        result = _recorded_run(params, state, budget, seed)
        names = Counter(step.event for step in result.path)
        assert (names["birth0"], names["birth1"]) == result.births
        assert (names["death0"], names["death1"]) == result.deaths
        assert names["inter0"] + names["inter1"] == result.interspecific_events
        assert (names["intra0"], names["intra1"]) == result.intraspecific_events

    def test_recorded_runs_keep_their_digest(self):
        runs = [_recorded_run(*case[1:]) for case in RECORDED_RUNS]
        assert _runs_digest(runs) == RECORDED_RUNS_DIGEST

    def test_long_run_holds_one_block_of_events_at_most(self):
        # The run records every event's class and folds them each 4096
        # uniforms: holding all 50,000 would peak at several megabytes.
        walk = LVParams(1.0, 1.0, 0.0, 0.0, mechanism=NSD)
        tracemalloc.start()
        try:
            result = LVJumpChainSimulator(walk).run(
                LVState(2_000, 2_000), rng=0, max_events=50_000
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.total_events == 50_000
        assert peak < 1_000_000


class TestEventAccounting:
    def test_event_counts_sum_to_total(self, sd_params):
        result = LVJumpChainSimulator(sd_params).run(LVState(40, 20), rng=3)
        assert result.individual_events + result.competitive_events == result.total_events

    def test_sd_competitive_noise_is_zero(self, sd_params):
        """Under SD interspecific competition, competitive events never change the gap."""
        simulator = LVJumpChainSimulator(sd_params)
        for seed in range(10):
            result = simulator.run(LVState(40, 24), rng=seed)
            assert result.noise_competitive == 0

    def test_nsd_competitive_noise_is_nonzero_typically(self, nsd_params):
        simulator = LVJumpChainSimulator(nsd_params)
        noises = [simulator.run(LVState(60, 40), rng=seed).noise_competitive for seed in range(10)]
        assert any(noise != 0 for noise in noises)

    def test_total_noise_equals_gap_change(self, sd_params, nsd_params):
        """F = Delta_0 - Delta_T by construction (Eq. 3)."""
        for params in (sd_params, nsd_params):
            simulator = LVJumpChainSimulator(params)
            for seed in range(5):
                result = simulator.run(LVState(30, 18), rng=seed)
                initial_gap = 30 - 18
                final_gap = result.final_state.x0 - result.final_state.x1
                assert result.noise_total == initial_gap - final_gap

    def test_bad_events_bounded_by_individual_events(self, sd_params):
        result = LVJumpChainSimulator(sd_params).run(LVState(50, 30), rng=5)
        assert 0 <= result.bad_noncompetitive_events <= result.individual_events

    def test_dead_heat_detection(self):
        """A dead heat is possible under SD competition and flagged as such."""
        params = LVParams.self_destructive(beta=0.0, delta=0.0, alpha=1.0)
        simulator = LVJumpChainSimulator(params)
        # With only SD interspecific reactions from (1, 1) the next event is
        # always the mutual annihilation, so every run is a dead heat.
        result = simulator.run(LVState(1, 1), rng=0)
        assert result.dead_heat
        assert not result.majority_consensus

    def test_births_and_deaths_attributed_to_species(self, sd_params):
        result = LVJumpChainSimulator(sd_params).run(LVState(30, 20), rng=7, record_path=True)
        birth0 = sum(1 for step in result.path if step.event == "birth0")
        death1 = sum(1 for step in result.path if step.event == "death1")
        assert result.births[0] == birth0
        assert result.deaths[1] == death1


class TestTransitionDistribution:
    def test_probabilities_sum_to_one(self, sd_params, nsd_params):
        for params in (sd_params, nsd_params):
            simulator = LVJumpChainSimulator(params)
            for state in (LVState(1, 1), LVState(5, 3), LVState(10, 10)):
                distribution = simulator.transition_distribution(state)
                assert sum(distribution.values()) == pytest.approx(1.0)
                assert all(x0 >= 0 and x1 >= 0 for x0, x1 in distribution)

    def test_absorbing_state_self_loops(self):
        params = LVParams.self_destructive(beta=0.0, delta=1.0, alpha=1.0)
        simulator = LVJumpChainSimulator(params)
        assert simulator.transition_distribution(LVState(0, 0)) == {(0, 0): 1.0}

    def test_sd_inter_moves_both_down(self, sd_params):
        distribution = LVJumpChainSimulator(sd_params).transition_distribution(LVState(2, 2))
        assert (1, 1) in distribution

    def test_nsd_inter_moves_one_down(self, nsd_params):
        distribution = LVJumpChainSimulator(nsd_params).transition_distribution(LVState(2, 2))
        assert (1, 2) in distribution and (2, 1) in distribution
        assert (1, 1) not in distribution

    def test_matches_empirical_frequencies(self, nsd_params):
        simulator = LVJumpChainSimulator(nsd_params)
        state = LVState(4, 2)
        distribution = simulator.transition_distribution(state)
        rng = np.random.default_rng(5)
        counts: dict[tuple[int, int], int] = {}
        samples = 4000
        for _ in range(samples):
            result = simulator.run(state, rng=rng, max_events=1)
            counts[result.final_state.counts] = counts.get(result.final_state.counts, 0) + 1
        for target, probability in distribution.items():
            assert counts.get(target, 0) / samples == pytest.approx(probability, abs=0.03)


class TestStatisticalSanity:
    def test_three_to_one_majority_wins_most_runs(self, sd_params):
        count = _majority_wins(LVJumpChainSimulator(sd_params), LVState(24, 8), 50, seed=11)
        assert 0 <= count <= 50
        assert count > 35  # a 3:1 majority should win most of the time

    def test_majority_advantage_increases_with_gap(self, sd_params):
        simulator = LVJumpChainSimulator(sd_params)
        small = _majority_wins(simulator, LVState.from_gap(60, 2), 200, seed=1) / 200
        large = _majority_wins(simulator, LVState.from_gap(60, 30), 200, seed=2) / 200
        assert large > small

    def test_tie_is_a_coin_flip_for_neutral_systems(self, nsd_params):
        simulator = LVJumpChainSimulator(nsd_params)
        wins = 0
        runs = 400
        rng = np.random.default_rng(9)
        for _ in range(runs):
            result = simulator.run(LVState(20, 20), rng=rng)
            if result.winner == 0:
                wins += 1
        assert wins / runs == pytest.approx(0.5, abs=0.08)

    @settings(max_examples=20, deadline=None)
    @given(
        a=st.integers(min_value=1, max_value=40),
        b=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_invariants_hold_for_arbitrary_states(self, a, b, seed):
        params = LVParams.self_destructive(beta=1.0, delta=1.0, alpha=1.0)
        result = LVJumpChainSimulator(params).run(LVState(a, b), rng=seed)
        assert result.reached_consensus
        assert result.final_state.x0 == 0 or result.final_state.x1 == 0
        assert result.total_events == result.individual_events + result.competitive_events
        assert result.max_total_population >= max(a + b - 2, max(a, b))
        assert 0 <= result.bad_noncompetitive_events <= result.individual_events
