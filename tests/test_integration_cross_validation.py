"""Cross-validation integration tests.

These tests tie the independent layers of the library together: the fast
two-species simulator against an independent dict-based reference
(``reference_ssa``), Monte-Carlo estimates against exact first-step
solutions, empirical thresholds against the exact win-probability grid, and
the continuous-time process against the embedded jump chain.  They are the
strongest correctness evidence in the suite because the compared
implementations share almost no code.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.chains.first_step import exact_majority_probability, exact_win_probability_grid
from repro.consensus.estimator import estimate_majority_probability
from repro.consensus.threshold import ThresholdSearch
from repro.consensus.theory import high_probability_target
from repro.lv.params import CompetitionMechanism, LVParams
from repro.lv.simulator import LVJumpChainSimulator
from repro.lv.state import LVState

from reference_ssa import direct_method, lv_reactions, one_step_distribution, propensity

MECHANISMS = pytest.mark.parametrize(
    "mechanism",
    [CompetitionMechanism.SELF_DESTRUCTIVE, CompetitionMechanism.NON_SELF_DESTRUCTIVE],
    ids=["SD", "NSD"],
)

#: The fast simulator's event labels, in the order of ``lv_reactions``.
LV2_EVENTS = ("birth0", "birth1", "death0", "death1", "inter0", "inter1", "intra0", "intra1")


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


def _is_individual(reaction) -> bool:
    """Births and deaths: one reactant of order one."""
    return list(reaction.reactants.values()) == [1]


class TestFastSimulatorAgainstReference:
    """The specialised LV simulator and the dict-based reference describe one chain."""

    @MECHANISMS
    @pytest.mark.parametrize(
        "state",
        [(5, 3), (1, 1), (2, 1), (1, 2), (2, 2), (3, 5), (9, 1), (0, 4), (6, 0)],
        ids=str,
    )
    def test_single_step_distributions_match(self, mechanism, state):
        params = _asymmetric_params(mechanism)
        expected = LVJumpChainSimulator(params).transition_distribution(LVState(*state))
        reference = one_step_distribution(
            lv_reactions(params), {"X0": state[0], "X1": state[1]}
        )
        assert reference.keys() == expected.keys()
        for target, probability in expected.items():
            assert reference[target] == pytest.approx(probability, rel=1e-12)

    def test_majority_probability_matches_continuous_time(self, sd_params):
        """rho is invariant between the jump chain and the continuous-time SSA."""
        reactions = lv_reactions(sd_params)
        rng = random.Random(4)
        runs = 2000
        wins = 0
        for _ in range(runs):
            final, _ = direct_method(
                reactions, {"X0": 13, "X1": 11}, rng, stop=lambda c: 0 in c.values()
            )
            wins += final["X0"] > 0 and final["X1"] == 0
        exact = exact_majority_probability(sd_params, (13, 11), dead_heat_value=0.5)
        # The SSA scores a dead heat as a loss, so its win count is
        # Binomial(runs, strict) when both processes describe the same chain.
        strict = exact.win_probability - 0.5 * exact.dead_heat_probability
        z = (wins - runs * strict) / math.sqrt(runs * strict * (1.0 - strict))
        assert abs(z) <= 4.0

    @MECHANISMS
    @pytest.mark.parametrize("state", [(1, 1), (4, 4), (5, 3), (3, 5), (9, 1), (0, 4)], ids=str)
    def test_good_event_probability_matches_reference(self, mechanism, state):
        # Q(a, b): the next event lowers the smaller count (species 0 on a tie).
        params = _asymmetric_params(mechanism)
        counts = {"X0": state[0], "X1": state[1]}
        minority = "X0" if state[0] <= state[1] else "X1"
        reactions = lv_reactions(params)
        weights = [propensity(reaction, counts) for reaction in reactions]
        expected = sum(
            weight
            for weight, reaction in zip(weights, reactions)
            if reaction.change.get(minority, 0) < 0
        ) / sum(weights)
        actual = LVJumpChainSimulator(params).good_event_probability(LVState(*state))
        assert actual == pytest.approx(expected, rel=1e-12)

    @MECHANISMS
    @pytest.mark.parametrize("state", [(2, 1), (1, 2), (5, 3), (3, 5), (9, 1), (1, 9)], ids=str)
    def test_bad_noncompetitive_probability_matches_reference(self, mechanism, state):
        # P(a, b) of Section 5.1: the next event is a birth or death that
        # shrinks the absolute gap.
        params = _asymmetric_params(mechanism)
        counts = {"X0": state[0], "X1": state[1]}
        reactions = lv_reactions(params)
        weights = [propensity(reaction, counts) for reaction in reactions]
        gap = abs(state[0] - state[1])
        expected = sum(
            weight
            for weight, reaction in zip(weights, reactions)
            if _is_individual(reaction)
            and abs(
                (state[0] + reaction.change.get("X0", 0))
                - (state[1] + reaction.change.get("X1", 0))
            )
            < gap
        ) / sum(weights)
        actual = LVJumpChainSimulator(params).bad_noncompetitive_probability(LVState(*state))
        assert actual == pytest.approx(expected, rel=1e-12)

    @MECHANISMS
    @pytest.mark.parametrize("seed", range(3))
    def test_recorded_path_follows_reference_reactions(self, mechanism, seed):
        params = _asymmetric_params(mechanism)
        reactions = dict(zip(LV2_EVENTS, lv_reactions(params)))
        result = LVJumpChainSimulator(params).run(LVState(12, 8), rng=seed, record_path=True)
        assert len(result.path) == result.total_events > 0
        counts = {"X0": 12, "X1": 8}
        for index, step in enumerate(result.path):
            reaction = reactions[step.event]
            assert step.index == index
            assert propensity(reaction, counts) > 0.0, f"{step.event} fired at {counts}"
            counts = {s: counts[s] + reaction.change.get(s, 0) for s in counts}
            assert (counts["X0"], counts["X1"]) == step.state
        assert (counts["X0"], counts["X1"]) == result.final_state.counts

    @MECHANISMS
    @pytest.mark.parametrize("seed", range(3))
    def test_event_accounting_matches_recorded_path(self, mechanism, seed):
        params = _asymmetric_params(mechanism)
        reactions = dict(zip(LV2_EVENTS, lv_reactions(params)))
        result = LVJumpChainSimulator(params).run(
            LVState(12, 8), rng=seed + 10, record_path=True
        )
        labels = [step.event for step in result.path]
        assert result.births == (labels.count("birth0"), labels.count("birth1"))
        assert result.deaths == (labels.count("death0"), labels.count("death1"))
        assert result.interspecific_events == labels.count("inter0") + labels.count("inter1")
        assert result.intraspecific_events == (labels.count("intra0"), labels.count("intra1"))

        # From the definitions: an event is good when it is an encounter or
        # lowers the strictly smaller count; bad non-competitive when it is a
        # birth or death that shrinks the absolute gap; the noise is the
        # gap change (initial majority X0 minus X1) in favour of X1.
        good = bad = noise_individual = noise_competitive = 0
        x0, x1 = 12, 8
        totals, gaps, ties = [x0 + x1], [x0 - x1], [x0 == x1]
        for step in result.path:
            reaction = reactions[step.event]
            n0, n1 = step.state
            if x0 != x1:
                minority = "X0" if x0 < x1 else "X1"
                good += len(reaction.reactants) == 2 or reaction.change.get(minority, 0) < 0
            if _is_individual(reaction):
                bad += abs(n0 - n1) < abs(x0 - x1)
                noise_individual += (x0 - x1) - (n0 - n1)
            else:
                noise_competitive += (x0 - x1) - (n0 - n1)
            x0, x1 = n0, n1
            totals.append(x0 + x1)
            gaps.append(x0 - x1)
            ties.append(x0 == x1)
        assert (result.good_events, result.bad_noncompetitive_events) == (good, bad)
        assert result.noise_individual == noise_individual
        assert result.noise_competitive == noise_competitive
        assert result.max_total_population == max(totals)
        assert result.min_gap_seen == min(abs(gap) for gap in gaps)
        assert result.hit_tie == any(ties)


class TestMonteCarloAgainstExact:
    @pytest.mark.parametrize(
        "mechanism",
        [CompetitionMechanism.SELF_DESTRUCTIVE, CompetitionMechanism.NON_SELF_DESTRUCTIVE],
        ids=["SD", "NSD"],
    )
    def test_estimator_matches_first_step_solution(self, mechanism):
        params = LVParams(beta=1.0, delta=0.5, alpha0=0.5, alpha1=0.5, mechanism=mechanism)
        for a, b in [(10, 6), (16, 4)]:
            exact = exact_majority_probability(params, (a, b), max_count=80).win_probability
            estimate = estimate_majority_probability(
                params, LVState(a, b), num_runs=800, rng=a * 100 + b
            )
            assert estimate.success.lower - 0.03 <= exact <= estimate.success.upper + 0.03

    def test_threshold_probe_consistent_with_exact_grid(self, sd_params):
        """The threshold search's pass/fail decisions agree with the exact grid."""
        n = 24
        grid = exact_win_probability_grid(sd_params, 4 * n)
        target = high_probability_target(n)
        search = ThresholdSearch(sd_params, num_runs=400)
        estimate = search.find(n, rng=3)
        assert estimate.has_threshold

        def exact_at(gap: int) -> float:
            # The search adjusts odd gaps upwards to match the parity of n, so
            # evaluate the exact grid at the configuration actually simulated.
            adjusted = gap if (n + gap) % 2 == 0 else gap + 1
            a = (n + adjusted) // 2
            return float(grid[a, n - a])

        # The exact success probability at the found threshold clears (or is
        # within Monte-Carlo tolerance of) the target, and the gap two below
        # it does not comfortably clear the target.
        assert exact_at(estimate.threshold_gap) >= target - 0.05
        if estimate.threshold_gap - 2 >= 2:
            assert exact_at(estimate.threshold_gap - 2) <= target + 0.02


class TestMechanismSeparationEndToEnd:
    def test_sd_beats_nsd_at_matched_intermediate_gap(self):
        """The paper's qualitative separation at a gap between log^2 n and sqrt(n)."""
        n, gap = 400, 16
        state = LVState.from_gap(n, gap)
        sd = estimate_majority_probability(
            LVParams.self_destructive(beta=1.0, delta=1.0, alpha=1.0),
            state,
            num_runs=400,
            rng=0,
        )
        nsd = estimate_majority_probability(
            LVParams.non_self_destructive(beta=1.0, delta=1.0, alpha=1.0),
            state,
            num_runs=400,
            rng=1,
        )
        assert sd.majority_probability > nsd.majority_probability + 0.15
        assert sd.majority_probability > 0.9

    def test_rate_constants_do_not_change_the_story(self):
        """Theorem 14 holds for any positive constants: vary beta, delta, alpha."""
        n, gap = 256, 30
        state = LVState.from_gap(n, gap)
        for beta, delta, alpha in [(0.5, 2.0, 1.0), (2.0, 0.5, 0.3), (1.0, 1.0, 3.0)]:
            params = LVParams.self_destructive(beta=beta, delta=delta, alpha=alpha)
            estimate = estimate_majority_probability(params, state, num_runs=200, rng=7)
            assert estimate.majority_probability > 0.9
            assert estimate.consensus_rate == 1.0


class TestJumpChainEventBudgetProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        total=st.integers(min_value=8, max_value=120),
        seed=st.integers(min_value=0, max_value=2**31),
        self_destructive=st.booleans(),
    )
    def test_consensus_time_linear_in_population(self, total, seed, self_destructive):
        """T(S) stays within a small multiple of n (Theorem 13a) across random inputs."""
        mechanism = (
            CompetitionMechanism.SELF_DESTRUCTIVE
            if self_destructive
            else CompetitionMechanism.NON_SELF_DESTRUCTIVE
        )
        params = LVParams(beta=1.0, delta=1.0, alpha0=0.5, alpha1=0.5, mechanism=mechanism)
        state = LVState.from_gap(total, total % 2)
        result = LVJumpChainSimulator(params).run(state, rng=seed, max_events=300 * total)
        assert result.reached_consensus, "consensus not reached within 300 n events"
        assert result.bad_noncompetitive_events <= result.individual_events
