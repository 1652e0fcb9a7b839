"""Tests for the heterogeneous sweep ensemble (:func:`repro.lv.ensemble.run_sweep_ensemble`).

The sweep engine's contracts, in the order they are exercised here:

* a mixed-configuration mega-batch is a statistical drop-in for running each
  configuration as its own one-member batch (the property test,
  using the tolerance helper shared with ``test_lv_ensemble.py``),
* results are bitwise-identical for every compaction threshold (the RNG
  consumption-order contract), and
* demultiplexing preserves member order, per-member parameters, and exact
  event accounting under heterogeneity (mechanisms, sizes, budgets).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import InvalidConfigurationError
from repro.lv.ensemble import SweepMember, run_sweep_ensemble
from repro.lv.state import LVState

from helpers_statistical import assert_statistically_close


NUM_RUNS = 600


def _mixed_members(sd_params, nsd_params, num_runs=NUM_RUNS):
    """A genuinely heterogeneous sweep: both mechanisms, several (n, gap)."""
    return [
        SweepMember(sd_params, LVState(36, 24), num_runs),
        SweepMember(nsd_params, LVState(36, 24), num_runs),
        SweepMember(sd_params, LVState(80, 48), num_runs),
        SweepMember(nsd_params, LVState(20, 12), num_runs),
    ]


_RESULT_ARRAYS = (
    "final_x0",
    "final_x1",
    "total_events",
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
)


def _assert_identical(first, second):
    for name in _RESULT_ARRAYS:
        assert np.array_equal(getattr(first, name), getattr(second, name)), name


class TestHeterogeneousStatisticalIdentity:
    """The tentpole property: mega-batch == per-config batches, statistically."""

    def test_mega_batch_matches_per_config_ensembles(self, sd_params, nsd_params):
        members = _mixed_members(sd_params, nsd_params)
        fused = run_sweep_ensemble(members, rng=12345)
        for index, member in enumerate(members):
            alone = run_sweep_ensemble([member], rng=777 + index)[0]
            assert_statistically_close(
                alone, fused[index], label=f"member {index}"
            )

    def test_win_probabilities_match_scalar_tolerances(self, sd_params, nsd_params):
        """Per-config win probabilities from a mega-batch sit within the same
        Monte-Carlo band as an independently-seeded per-config run."""
        members = _mixed_members(sd_params, nsd_params)
        fused = run_sweep_ensemble(members, rng=5)
        refused = run_sweep_ensemble(members, rng=6)
        for index in range(len(members)):
            p_a = fused[index].majority_consensus.mean()
            p_b = refused[index].majority_consensus.mean()
            assert abs(p_a - p_b) < 0.08


class TestPerMemberStreams:
    """Every member owns its RNG streams: fused == solo, bitwise."""

    def test_member_seeds_match_solo_runs(self, sd_params, nsd_params):
        members = _mixed_members(sd_params, nsd_params, num_runs=250)
        seeds = [101, 202, 303, 404]
        fused = run_sweep_ensemble(members, member_seeds=seeds)
        for member, seed, result in zip(members, seeds, fused):
            solo = run_sweep_ensemble([member], rng=seed)[0]
            _assert_identical(result, solo)

    def test_results_independent_of_packing(self, sd_params, nsd_params):
        members = _mixed_members(sd_params, nsd_params, num_runs=150)
        seeds = [7, 8, 9, 10]
        together = run_sweep_ensemble(members, member_seeds=seeds)
        split = run_sweep_ensemble(
            members[:2], member_seeds=seeds[:2]
        ) + run_sweep_ensemble(members[2:], member_seeds=seeds[2:])
        for a, b in zip(together, split):
            _assert_identical(a, b)

    def test_member_seed_count_validated(self, sd_params):
        with pytest.raises(InvalidConfigurationError):
            run_sweep_ensemble(
                [SweepMember(sd_params, LVState(10, 6), 4)], member_seeds=[1, 2]
            )


class TestCompactionDeterminism:
    """Same root seed, different compaction thresholds -> identical results."""

    @pytest.mark.parametrize("fraction", [0.05, 0.5, 1.0, None])
    def test_single_config_invariant(self, sd_params, fraction):
        members = [SweepMember(sd_params, LVState(60, 40), 300)]
        reference = run_sweep_ensemble(members, rng=11)[0]
        other = run_sweep_ensemble(members, rng=11, compaction_fraction=fraction)[0]
        _assert_identical(reference, other)

    @pytest.mark.parametrize("fraction", [0.05, 0.5, None])
    def test_mega_batch_invariant(self, sd_params, nsd_params, fraction):
        members = _mixed_members(sd_params, nsd_params, num_runs=200)
        reference = run_sweep_ensemble(members, rng=21)
        other = run_sweep_ensemble(members, rng=21, compaction_fraction=fraction)
        for a, b in zip(reference, other):
            _assert_identical(a, b)

    def test_collect_modes_share_trajectories(self, nsd_params):
        members = [SweepMember(nsd_params, LVState(50, 30), 250)]
        full = run_sweep_ensemble(members, rng=31, collect="full")[0]
        win = run_sweep_ensemble(members, rng=31, collect="win")[0]
        assert np.array_equal(full.final_x0, win.final_x0)
        assert np.array_equal(full.final_x1, win.final_x1)
        assert np.array_equal(full.total_events, win.total_events)
        assert np.array_equal(full.termination_codes, win.termination_codes)


class TestHeterogeneousAccounting:
    def test_demux_preserves_member_order_and_params(self, sd_params, nsd_params):
        members = _mixed_members(sd_params, nsd_params, num_runs=40)
        results = run_sweep_ensemble(members, rng=3)
        assert [r.num_replicates for r in results] == [40, 40, 40, 40]
        for member, result in zip(members, results):
            assert result.params == member.params
            assert result.initial_state == member.initial_state

    def test_event_counts_sum_to_total_per_member(self, sd_params, nsd_params):
        members = _mixed_members(sd_params, nsd_params, num_runs=120)
        for result in run_sweep_ensemble(members, rng=9):
            total = (
                result.births.sum(axis=1)
                + result.deaths.sum(axis=1)
                + result.interspecific_events
                + result.intraspecific_events.sum(axis=1)
            )
            assert np.array_equal(total, result.total_events)

    def test_mechanism_specific_invariants_survive_fusion(self, sd_params, nsd_params):
        members = _mixed_members(sd_params, nsd_params, num_runs=200)
        results = run_sweep_ensemble(members, rng=13)
        # SD members: competitive noise identically zero; NSD: typically not.
        assert np.all(results[0].noise_competitive == 0)
        assert np.all(results[2].noise_competitive == 0)
        assert np.any(results[1].noise_competitive != 0)

    def test_per_member_event_budgets(self, sd_params, nsd_params):
        members = [
            SweepMember(sd_params, LVState(400, 380), 30, max_events=5),
            SweepMember(nsd_params, LVState(40, 20), 30),
        ]
        capped, uncapped = run_sweep_ensemble(members, rng=17)
        hit_cap = capped.termination_codes == 2
        assert hit_cap.any()
        assert np.all(capped.total_events[hit_cap] == 5)
        assert uncapped.reached_consensus.all()

    def test_matches_single_member_ensemble_layout(self, sd_params):
        """A member given its state as a tuple runs exactly as with an LVState."""
        via_state = run_sweep_ensemble([SweepMember(sd_params, LVState(36, 24), 80)], rng=23)
        via_tuple = run_sweep_ensemble([SweepMember(sd_params, (36, 24), 80)], rng=23)
        assert via_tuple[0].initial_state == LVState(36, 24)
        _assert_identical(via_state[0], via_tuple[0])

    def test_validation(self, sd_params):
        with pytest.raises(InvalidConfigurationError):
            run_sweep_ensemble([])
        with pytest.raises(InvalidConfigurationError):
            SweepMember(sd_params, LVState(10, 5), 0)
        with pytest.raises(InvalidConfigurationError):
            SweepMember(sd_params, LVState(10, 5), 4, max_events=0)
        with pytest.raises(InvalidConfigurationError):
            run_sweep_ensemble(
                [SweepMember(sd_params, LVState(10, 5), 4)], compaction_fraction=0.0
            )
        with pytest.raises(InvalidConfigurationError):
            run_sweep_ensemble(
                [SweepMember(sd_params, LVState(10, 5), 4)], collect="everything"
            )
