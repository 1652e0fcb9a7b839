"""Tests for the sweep scheduler (:class:`repro.experiments.scheduler.SweepScheduler`).

Covers the deterministic plumbing (mega-batch planning, per-(task, batch)
seeding, demultiplexing, worker-count independence), the grid-level
estimator entry points, the fused threshold sweeps, and the scheduler
lifecycle satellites (pool-per-sweep, jobs sanity check, events counter).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro.experiments.scheduler as scheduler_module
from repro.analysis.statistics import PrecisionTarget
from repro.consensus.estimator import estimate_majority_probability, summarise_ensemble
from repro.consensus.threshold import ThresholdSearch, drive_threshold_searches
from repro.exceptions import ExperimentError, PoisonChunkError, ThresholdSearchError
from repro.experiments.scheduler import (
    SweepScheduler,
    ThresholdRequest,
    _jobs_sanity_limit,
)
from repro.experiments.sweep import (
    MemberSpec,
    SweepTask,
    demux_mega_results,
    execute_mega_batch,
    plan_mega_batches,
)
from repro.experiments.workloads import replica_batches
from repro.lv.ensemble import LVEnsembleResult, SweepMember, run_sweep_ensemble
from repro.lv.state import LVState
from repro.lv.tau import resolve_backend, run_tau_sweep_ensemble
from repro.rng import spawn_seeds
from repro.store.store import ExperimentStore

from test_store import assert_bitwise_equal


def _tasks(sd_params, nsd_params, num_runs=300):
    return [
        SweepTask(sd_params, LVState(40, 24), num_runs, seed=1, label="sd-64"),
        SweepTask(nsd_params, LVState(30, 18), num_runs, seed=2, label="nsd-48"),
        SweepTask(sd_params, LVState(20, 12), num_runs, seed=3, label="sd-32"),
    ]


#: Estimate fields every statistics level measures.
_OUTCOME_FIELDS = (
    "num_runs",
    "consensus_rate",
    "dead_heat_rate",
    "mean_consensus_time",
    "q95_consensus_time",
)

#: Estimate fields only the ``"full"`` level measures (``NaN`` at ``"win"``).
_ACCOUNTING_FIELDS = (
    "tie_rate",
    "mean_individual_events",
    "mean_competitive_events",
    "mean_bad_events",
    "mean_noise_individual",
    "std_noise_individual",
    "mean_noise_competitive",
    "std_noise_competitive",
    "mean_max_population",
)


def _per_config_replay(task, scheduler):
    """The task's budget run batch by batch, one one-member engine call each.

    The budget is split into ``replica_batches(num_runs, batch_size)``,
    batch ``i`` is seeded with ``spawn_seeds(task.seed, k)[i]``, and the
    batches are concatenated in order.
    """
    sizes = replica_batches(task.num_runs, scheduler.batch_size)
    seeds = spawn_seeds(task.seed, len(sizes))
    backend = resolve_backend(task.backend or scheduler.backend, sum(task.counts))
    batches = []
    for size, seed in zip(sizes, seeds):
        member = SweepMember(task.params, task.initial_state, size, task.max_events)
        if backend == "tau":
            (batch,) = run_tau_sweep_ensemble(
                [member], rng=seed, epsilon=scheduler.tau_epsilon
            )
        else:
            (batch,) = run_sweep_ensemble([member], rng=seed)
        batches.append(batch)
    return LVEnsembleResult.concatenate(batches)


def _level_tasks(sd_params, nsd_params):
    """An SD task with dead heats, a mid-ρ NSD task and a leaping lv2 tau task."""
    return [
        SweepTask(sd_params, LVState(18, 14), 120, seed=1, label="sd-32"),
        SweepTask(nsd_params, LVState(34, 30), 120, seed=2, label="nsd-64"),
        SweepTask(
            nsd_params, LVState(1620, 1580), 40, seed=3, label="nsd-tau", backend="tau"
        ),
    ]


class TestPlanning:
    def test_plan_splits_and_packs_in_task_order(self, sd_params, nsd_params):
        tasks = _tasks(sd_params, nsd_params, num_runs=300)
        plans = plan_mega_batches(tasks, batch_size=128, sweep_batch=256)
        flat = [spec for plan in plans for spec in plan]
        # Every task decomposes into 128+128+44; order within a task is kept.
        assert [spec.task_index for spec in flat] == [0, 0, 0, 1, 1, 1, 2, 2, 2]
        assert [spec.num_replicates for spec in flat] == [128, 128, 44] * 3
        for plan in plans:
            assert sum(spec.num_replicates for spec in plan) <= 256

    def test_plan_is_deterministic(self, sd_params, nsd_params):
        tasks = _tasks(sd_params, nsd_params)
        assert plan_mega_batches(tasks, batch_size=128, sweep_batch=512) == (
            plan_mega_batches(tasks, batch_size=128, sweep_batch=512)
        )

    def test_oversized_batch_gets_own_mega_batch(self, sd_params):
        tasks = [SweepTask(sd_params, LVState(20, 12), 500, seed=5)]
        plans = plan_mega_batches(tasks, batch_size=500, sweep_batch=128)
        assert len(plans) == 1 and plans[0][0].num_replicates == 500

    def test_plan_validation(self, sd_params):
        with pytest.raises(ExperimentError):
            plan_mega_batches([], batch_size=64)
        with pytest.raises(ExperimentError):
            plan_mega_batches(
                [SweepTask(sd_params, LVState(10, 6), 4)], batch_size=64, sweep_batch=0
            )
        with pytest.raises(ExperimentError):
            SweepTask(sd_params, LVState(10, 6), 0)

    def test_demux_validation(self, sd_params):
        spec = MemberSpec(0, sd_params, (10, 6), 4, seed=1, max_events=10)
        results = execute_mega_batch([spec])
        with pytest.raises(ExperimentError):
            demux_mega_results(2, [[spec]], [results])  # task 1 has no results
        with pytest.raises(ExperimentError):
            demux_mega_results(1, [[spec, spec]], [results])  # length mismatch


class TestRunSweep:
    def test_task_order_and_replicate_counts(self, sd_params, nsd_params):
        tasks = _tasks(sd_params, nsd_params, num_runs=100)
        results = SweepScheduler(batch_size=64).run_sweep(tasks)
        assert [r.num_replicates for r in results] == [100, 100, 100]
        for task, result in zip(tasks, results):
            assert result.params == task.params
            assert result.initial_state == task.initial_state

    def test_deterministic_in_task_seeds(self, sd_params, nsd_params):
        tasks = _tasks(sd_params, nsd_params, num_runs=150)
        first = SweepScheduler(batch_size=64).run_sweep(tasks)
        second = SweepScheduler(batch_size=64).run_sweep(tasks)
        for a, b in zip(first, second):
            assert np.array_equal(a.total_events, b.total_events)
            assert np.array_equal(a.final_x0, b.final_x0)

    def test_independent_of_worker_count(self, sd_params, nsd_params):
        tasks = _tasks(sd_params, nsd_params, num_runs=200)
        inline = SweepScheduler(jobs=1, batch_size=64, sweep_batch=128).run_sweep(tasks)
        pooled = SweepScheduler(jobs=2, batch_size=64, sweep_batch=128).run_sweep(tasks)
        for a, b in zip(inline, pooled):
            assert np.array_equal(a.total_events, b.total_events)
            assert np.array_equal(a.final_x0, b.final_x0)
            assert np.array_equal(a.noise_individual, b.noise_individual)

    def test_context_manager_reuses_pool(self, sd_params, nsd_params):
        tasks = _tasks(sd_params, nsd_params, num_runs=150)
        with SweepScheduler(jobs=2, batch_size=64, sweep_batch=128) as scheduler:
            first = scheduler.run_sweep(tasks)
            assert scheduler.pool.workers == 2
            executor = scheduler.pool.acquire(2)
            second = scheduler.run_sweep(tasks)
            # The same warm workers serve every sweep of the context.
            assert scheduler.pool.acquire(2) is executor
        assert scheduler.pool.workers == 0
        for a, b in zip(first, second):
            assert np.array_equal(a.total_events, b.total_events)

    def test_events_counter_accumulates(self, sd_params, nsd_params):
        scheduler = SweepScheduler()
        assert scheduler.events_executed == 0
        results = scheduler.run_sweep(_tasks(sd_params, nsd_params, num_runs=50))
        expected = sum(int(r.total_events.sum()) for r in results)
        assert scheduler.events_executed == expected > 0


class TestGridEntryPoints:
    @pytest.mark.parametrize("backend", ["exact", "tau", "auto"])
    def test_estimate_many_matches_per_config_replay(self, sd_params, nsd_params, backend):
        tasks = _tasks(sd_params, nsd_params, num_runs=600)
        if backend != "exact":
            tasks.append(SweepTask(nsd_params, LVState(30_300, 29_700), 8, seed=4))
        scheduler = SweepScheduler(backend=backend)
        fused = scheduler.estimate_many(tasks)
        ensembles = SweepScheduler(backend=backend).run_sweep(tasks)
        for task, estimate, ensemble in zip(tasks, fused, ensembles):
            replay = _per_config_replay(task, scheduler)
            assert_bitwise_equal(ensemble, replay)
            assert estimate == summarise_ensemble(replay)
            assert estimate.num_runs == task.num_runs
        if backend != "exact":
            assert ensembles[-1].leap_events.sum() > 0

    def test_decompose_many_matches_mechanism_structure(self, sd_params, nsd_params):
        tasks = _tasks(sd_params, nsd_params, num_runs=200)
        decompositions = SweepScheduler().decompose_many(tasks)
        assert all(d.num_runs == 200 for d in decompositions)
        assert np.all(decompositions[0].competitive_noise == 0)  # SD
        assert np.any(decompositions[1].competitive_noise != 0)  # NSD

    def test_estimate_many_win_level_reads_the_same_outcomes(self, sd_params, nsd_params):
        tasks = _level_tasks(sd_params, nsd_params)
        (tau_result,) = SweepScheduler().run_sweep(tasks[2:], collect="win")
        assert int(tau_result.leap_events.sum()) > 0
        full = SweepScheduler().estimate_many(tasks)
        win = SweepScheduler().estimate_many(tasks, collect="win")
        assert full[0].dead_heat_rate > 0.0
        for at_full, at_win in zip(full, win):
            assert at_win.success.successes == at_full.success.successes
            for name in _OUTCOME_FIELDS:
                assert getattr(at_win, name) == getattr(at_full, name), name
            assert (at_full.collected, at_win.collected) == ("full", "win")
            for name in _ACCOUNTING_FIELDS:
                assert math.isnan(getattr(at_win, name)), name
                assert not math.isnan(getattr(at_full, name)), name
            assert at_win.max_bad_events == 0

    def test_estimate_many_levels_run_the_same_adaptive_waves(self, sd_params, nsd_params):
        tasks = _level_tasks(sd_params, nsd_params)
        target = PrecisionTarget(ci_half_width=0.1, min_replicates=32, max_replicates=256)
        estimates, reports = {}, {}
        for collect in ("full", "win"):
            scheduler = SweepScheduler(wave_quantum=32)
            estimates[collect] = scheduler.estimate_many(tasks, target=target, collect=collect)
            reports[collect] = scheduler.last_adaptive_report
        assert reports["win"] == reports["full"]
        assert reports["full"].waves > 1
        assert [estimate.num_runs for estimate in estimates["win"]] == list(
            reports["win"].replicates
        )
        assert [estimate.success.successes for estimate in estimates["win"]] == [
            estimate.success.successes for estimate in estimates["full"]
        ]

    def test_estimate_many_levels_journal_under_separate_keys(
        self, sd_params, nsd_params, tmp_path
    ):
        tasks = _level_tasks(sd_params, nsd_params)
        with ExperimentStore(tmp_path) as store:
            scheduler = SweepScheduler(store=store)
            scheduler.estimate_many(tasks)
            chunks = store.stats.chunk_writes
            assert chunks > 0
            first = scheduler.estimate_many(tasks, collect="win")
            assert store.stats.chunk_hits == 0
            assert store.stats.chunk_writes == len(store) == 2 * chunks
            misses = store.stats.chunk_misses
            replayed = scheduler.estimate_many(tasks, collect="win")
            assert store.stats.chunk_misses == misses
            assert store.stats.chunk_hits == chunks
        for before, after in zip(first, replayed):
            assert after.success == before.success
            for name in _OUTCOME_FIELDS:
                assert getattr(after, name) == getattr(before, name), name


class TestFusedThresholds:
    def test_find_thresholds_matches_each_search_alone(self, sd_params, nsd_params):
        requests = [
            ThresholdRequest(sd_params, 64, num_runs=80, seed=7),
            ThresholdRequest(nsd_params, 64, num_runs=80, seed=8),
        ]
        fused = SweepScheduler().find_thresholds(requests)
        assert all(estimate.has_threshold for estimate in fused)
        # SD threshold never exceeds NSD at the same n (the paper's headline).
        assert fused[0].threshold_gap <= fused[1].threshold_gap
        # Fusing searches changes no probe, seed or count of any search.
        for request, together in zip(requests, fused):
            (alone,) = SweepScheduler().find_thresholds([request])
            assert together.threshold_gap == alone.threshold_gap
            assert list(together.probes) == list(alone.probes)
            for gap, estimate in together.probes.items():
                assert estimate.success == alone.probes[gap].success, gap

    def test_multiplexer_identical_to_single_search(self, sd_params, nsd_params):
        """Sharing rounds must not change any search's probe decisions."""
        single = ThresholdSearch(sd_params, num_runs=60).find(64, rng=5)

        def runner(probes):
            return [
                estimate_majority_probability(
                    probe.params,
                    probe.initial_state,
                    num_runs=probe.num_runs,
                    rng=probe.seed,
                    confidence=probe.confidence,
                )
                for probe in probes
            ]

        multiplexed = drive_threshold_searches(
            [
                ThresholdSearch(sd_params, num_runs=60).search_steps(64, rng=5),
                ThresholdSearch(nsd_params, num_runs=60).search_steps(64, rng=6),
            ],
            runner,
        )
        assert multiplexed[0].threshold_gap == single.threshold_gap
        assert multiplexed[0].probes.keys() == single.probes.keys()

    def test_probe_runner_length_mismatch_rejected(self, sd_params):
        steps = ThresholdSearch(sd_params, num_runs=20).search_steps(16, rng=1)
        with pytest.raises(ThresholdSearchError):
            drive_threshold_searches([steps], lambda probes: [])

    def test_empty_request_list_rejected(self):
        with pytest.raises(ExperimentError):
            SweepScheduler().find_thresholds([])


class TestSchedulerValidation:
    def test_jobs_sanity_check(self):
        limit = _jobs_sanity_limit()
        with pytest.raises(ExperimentError, match="sanity limit"):
            SweepScheduler(jobs=limit + 1)
        with pytest.raises(ExperimentError):
            SweepScheduler(jobs=0)

    def test_sweep_batch_validation(self):
        with pytest.raises(ExperimentError):
            SweepScheduler(sweep_batch=0)

    @pytest.mark.parametrize(
        "entry, kwargs",
        [
            ("run_sweep", {}),
            ("run_sweep_adaptive", {"target": PrecisionTarget()}),
            ("estimate_many", {}),
        ],
        ids=["run_sweep", "run_sweep_adaptive", "estimate_many"],
    )
    def test_unknown_collect_rejected_before_any_work(
        self, sd_params, tmp_path, monkeypatch, entry, kwargs
    ):
        calls = []
        monkeypatch.setattr(
            scheduler_module,
            "execute_mega_batch",
            lambda *args, **options: calls.append("execute_mega_batch"),
        )
        with ExperimentStore(tmp_path) as store:
            monkeypatch.setattr(store, "get_chunk", lambda key: calls.append("get_chunk"))
            scheduler = SweepScheduler(store=store)
            task = SweepTask(sd_params, LVState(20, 12), 40, seed=1)
            with pytest.raises(ExperimentError, match="collect must be one of") as caught:
                getattr(scheduler, entry)([task], collect="bogus", **kwargs)
        assert not isinstance(caught.value, PoisonChunkError)
        assert calls == []
