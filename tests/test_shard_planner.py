"""Tests for :mod:`repro.shard.planner` — cost model, LPT + refinement, history.

The acceptance gate: on a heavy-tailed T1R5-style grid *with* measured
event-rate history, the planned shards' cost imbalance (max shard cost over
mean shard cost) stays within :data:`~repro.shard.planner
.DEFAULT_IMBALANCE_BOUND` and beats the cost-blind round-robin baseline.
"""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ExperimentError, StoreError
from repro.experiments.scheduler import SweepScheduler
from repro.experiments.sweep import SweepTask
from repro.lv.params import LVParams
from repro.lv.state import LVState
from repro.shard import (
    DEFAULT_IMBALANCE_BOUND,
    EventRateHistory,
    ShardPlan,
    config_signature,
    plan_round_robin,
    plan_shards,
    threshold_probe_factor,
    unit_costs,
)
from repro.store import ExperimentStore


def _t1r5_params() -> LVParams:
    """T1R5's no-competition system: the heavy-tailed consensus-time regime."""
    return LVParams(beta=1.0, delta=1.0, alpha0=0.0, alpha1=0.0)


def _heavy_tailed_grid():
    """A T1R5-style grid: a gap sweep over populations spanning two decades.

    Three initial splits per population (population varying slowest, the
    natural sweep order), with measured per-replicate event counts growing
    superlinearly in n — so the largest configurations dominate total cost.
    That is exactly the regime where cost-blind planning round-robins badly:
    consecutive units share a population, so ``i % K`` stacks tail units.
    """
    params = _t1r5_params()
    populations = [10, 14, 20, 28, 40, 56, 80, 160, 320, 640, 1000]
    unit_populations = [n for n in populations for _ in range(3)]
    signatures = [config_signature(params, n) for n in unit_populations]
    budgets = [400] * len(unit_populations)
    history = EventRateHistory()
    for n in populations:
        # Measured-rate stand-in with the right shape: ~n^1.5 events per
        # replicate (between the ~n ballistic and ~n^2 diffusive regimes).
        history.record(config_signature(params, n), events=400 * (n**1.5), replicates=400)
    return signatures, budgets, history


class TestConfigSignature:
    def test_excludes_split_seeds_and_budgets(self):
        params = _t1r5_params()
        assert config_signature(params, 40) == config_signature(params, 40)
        # Only (params, total population) matter — nothing else goes in.
        assert config_signature(params, 40) != config_signature(params, 41)

    def test_distinguishes_parameter_sets(self, sd_params, nsd_params):
        assert config_signature(sd_params, 40) != config_signature(nsd_params, 40)

    def test_lv2_signature_is_pinned(self, sd_params):
        # lv2 signatures predate the scenario argument, so journals and
        # BENCH_sweep.json's shard_planner.history keep matching them.
        expected = "9ecdebcb4272677fbdc12c2d3ca59ba4c2e4fa8437297327536f40e0e0b272ee"
        assert config_signature(sd_params, 40) == expected
        assert config_signature(sd_params, 40, "lv2") == expected

    def test_scenario_and_every_species_count(self, sd_params):
        # SCEN-CAT's quick members: opinions (60, 40) and 0, 50 or 200 catalysts.
        signatures = {
            config_signature(sd_params, 60 + 40 + catalysts, "catalysis")
            for catalysts in (0, 50, 200)
        }
        assert len(signatures) == 3
        assert config_signature(sd_params, 100, "catalysis") != config_signature(sd_params, 100)
        assert config_signature(sd_params, 65, "opinion3") != config_signature(
            sd_params, 65, "catalysis"
        )


class TestEventRateHistory:
    def test_rate_is_events_per_replicate(self):
        history = EventRateHistory()
        history.record("sig", events=900.0, replicates=300)
        history.record("sig", events=100.0, replicates=100)
        assert history.rate("sig") == pytest.approx(2.5)
        assert history.rate("unseen") is None

    def test_zero_replicate_observations_are_ignored(self):
        history = EventRateHistory()
        history.record("sig", events=10.0, replicates=0)
        assert history.rate("sig") is None
        assert len(history) == 0

    def test_merge_accumulates(self):
        first = EventRateHistory()
        first.record("sig", events=100.0, replicates=50)
        second = EventRateHistory()
        second.record("sig", events=300.0, replicates=50)
        second.record("other", events=10.0, replicates=10)
        first.merge(second)
        assert first.rate("sig") == pytest.approx(4.0)
        assert first.rate("other") == pytest.approx(1.0)

    def test_from_journal_harvests_measured_rates(self, tmp_path, sd_params):
        store = ExperimentStore(tmp_path / "cache")
        scheduler = SweepScheduler(batch_size=32, sweep_batch=32, store=store)
        tasks = [
            SweepTask(sd_params, LVState(24, 16), 60, seed=1),
            SweepTask(sd_params, LVState(48, 32), 60, seed=2),
        ]
        try:
            results = scheduler.run_sweep(tasks)
        finally:
            scheduler.shutdown()
            store.close()
        history = EventRateHistory.from_journal(tmp_path / "cache")
        for task, result in zip(tasks, results):
            signature = config_signature(task.params, task.initial_state.total)
            expected = float(result.total_events.sum()) / task.num_runs
            assert history.rate(signature) == pytest.approx(expected)

    def test_generic_task_finds_its_own_harvested_rate(self, tmp_path, sd_params):
        tasks = [
            SweepTask(sd_params, (30, 20, 15), 40, seed=5, scenario="opinion3"),
            SweepTask(sd_params, (30, 20, 40), 40, seed=5, scenario="catalysis"),
            SweepTask(sd_params, LVState(30, 20), 40, seed=5),
        ]
        store = ExperimentStore(tmp_path / "cache")
        scheduler = SweepScheduler(store=store)
        try:
            results = scheduler.run_sweep(tasks, collect="win")
        finally:
            scheduler.shutdown()
            store.close()
        history = EventRateHistory.from_journal(tmp_path / "cache")
        assert len(history) == 3
        planner = SweepScheduler(shards=2, shard_history=history)
        try:
            plan = planner.plan_task_shards(tasks)
        finally:
            planner.shutdown()
        # Each task's cost is its own measured events (rate × budget), which
        # the mean-rate fallback for an unseen signature would not give.
        assert plan.costs == pytest.approx(
            [float(result.total_events.sum()) for result in results]
        )

    def test_from_journal_of_missing_path_is_empty(self, tmp_path):
        assert len(EventRateHistory.from_journal(tmp_path / "nowhere")) == 0

    def test_benchmark_round_trip(self, tmp_path):
        history = EventRateHistory()
        history.record("aa", events=500.0, replicates=100)
        history.record("bb", events=70.0, replicates=10)
        baseline = tmp_path / "BENCH_sweep.json"
        baseline.write_text(
            json.dumps({"shard_planner": {"history": history.to_payload()}})
        )
        loaded = EventRateHistory.load(baseline)
        assert loaded.events == history.events
        assert loaded.replicates == history.replicates

    def test_benchmark_without_history_section_is_an_error(self, tmp_path):
        baseline = tmp_path / "BENCH_sweep.json"
        baseline.write_text(json.dumps({"schema": 4}))
        with pytest.raises(StoreError, match="shard_planner.history"):
            EventRateHistory.from_benchmark(baseline)

    def test_load_dispatches_on_path_kind(self, tmp_path):
        # A directory goes down the journal path even when it is empty.
        assert len(EventRateHistory.load(tmp_path)) == 0


class TestUnitCosts:
    def test_no_history_falls_back_to_budgets(self):
        assert unit_costs(["a", "b"], [100, 300]) == [100.0, 300.0]

    def test_known_rates_scale_budgets(self):
        history = EventRateHistory()
        history.record("a", events=500.0, replicates=100)  # rate 5
        assert unit_costs(["a"], [200], history) == [1000.0]

    def test_unknown_signatures_use_the_mean_known_rate(self):
        history = EventRateHistory()
        history.record("a", events=200.0, replicates=100)  # rate 2
        history.record("b", events=600.0, replicates=100)  # rate 6
        costs = unit_costs(["a", "b", "unseen"], [10, 10, 10], history)
        assert costs == [20.0, 60.0, 40.0]

    def test_plain_mapping_history_is_accepted(self):
        assert unit_costs(["a"], [10], {"a": 3.0}) == [30.0]

    def test_length_mismatch_is_rejected(self):
        with pytest.raises(ExperimentError):
            unit_costs(["a", "b"], [10])

    def test_non_positive_budget_is_rejected(self):
        with pytest.raises(ExperimentError):
            unit_costs(["a"], [0])


class TestPlanShards:
    def test_acceptance_gate_heavy_tailed_grid_with_history(self):
        """Planner imbalance <= 1.25 on the T1R5-style grid; round-robin fails it."""
        signatures, budgets, history = _heavy_tailed_grid()
        costs = unit_costs(signatures, budgets, history)
        for shards in (2, 3, 4):
            plan = plan_shards(costs, shards)
            naive = plan_round_robin(costs, shards)
            assert plan.imbalance <= DEFAULT_IMBALANCE_BOUND, plan.shard_costs
            assert plan.imbalance <= naive.imbalance
        # The ascending grid is exactly where round-robin stacks tail units
        # onto one shard; make sure the comparison is not vacuous.
        assert plan_round_robin(costs, 4).imbalance > DEFAULT_IMBALANCE_BOUND

    def test_plan_is_deterministic(self):
        signatures, budgets, history = _heavy_tailed_grid()
        costs = unit_costs(signatures, budgets, history)
        assert plan_shards(costs, 3) == plan_shards(costs, 3)

    def test_every_unit_assigned_exactly_once(self):
        costs = [5.0, 1.0, 3.0, 2.0, 8.0]
        plan = plan_shards(costs, 2)
        owned = [unit for shard in range(2) for unit in plan.members(shard)]
        assert sorted(owned) == list(range(len(costs)))

    def test_more_shards_than_units_leaves_empty_shards(self):
        plan = plan_shards([1.0, 1.0], 4)
        assert sum(len(plan.members(shard)) for shard in range(4)) == 2
        # Mean over all shards: empty shards count against balance.
        assert plan.imbalance == pytest.approx(2.0)

    def test_zero_cost_units_spread_by_count(self):
        plan = plan_shards([0.0] * 6, 3)
        assert [len(plan.members(shard)) for shard in range(3)] == [2, 2, 2]

    def test_refinement_improves_on_raw_lpt(self):
        # The classic LPT-suboptimal instance: greedy lands at 7/5, and only
        # a pairwise swap (3 for 2) reaches the flat 6/6 optimum.
        costs = [3.0, 3.0, 2.0, 2.0, 2.0]
        raw = plan_shards(costs, 2, refine=False)
        refined = plan_shards(costs, 2, imbalance_bound=1.0)
        assert max(raw.shard_costs) == pytest.approx(7.0)
        assert max(refined.shard_costs) == pytest.approx(6.0)

    def test_validation(self):
        with pytest.raises(ExperimentError):
            plan_shards([], 2)
        with pytest.raises(ExperimentError):
            plan_shards([1.0], 0)
        with pytest.raises(ExperimentError):
            plan_shards([-1.0], 2)
        with pytest.raises(ExperimentError):
            plan_shards([1.0], 2, imbalance_bound=0.5)

    def test_members_rejects_out_of_range_shard(self):
        plan = plan_shards([1.0], 1)
        with pytest.raises(ExperimentError):
            plan.members(1)

    def test_single_shard_owns_everything(self):
        plan = plan_shards([4.0, 2.0, 7.0], 1)
        assert plan.members(0) == (0, 1, 2)
        assert plan.imbalance == pytest.approx(1.0)


class TestThresholdProbeFactor:
    def test_grows_logarithmically(self):
        assert threshold_probe_factor(1) == 1
        assert threshold_probe_factor(2) == 1
        assert threshold_probe_factor(1024) == 10
        assert threshold_probe_factor(1025) == 11

    def test_rejects_non_positive_population(self):
        with pytest.raises(ExperimentError):
            threshold_probe_factor(0)


class TestShardPlanProperties:
    def test_shard_costs_sum_to_total(self):
        costs = [2.0, 4.0, 6.0, 8.0]
        plan = plan_shards(costs, 2)
        assert sum(plan.shard_costs) == pytest.approx(sum(costs))

    def test_round_robin_assignment_shape(self):
        plan = plan_round_robin([1.0, 1.0, 1.0, 1.0, 1.0], 2)
        assert plan.assignment == (0, 1, 0, 1, 0)
        assert isinstance(plan, ShardPlan)
