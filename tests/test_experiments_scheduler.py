"""Tests for the replicate scheduler (:mod:`repro.experiments.scheduler`).

The scheduler's core promise is determinism: the same root seed must produce
bit-identical results for every batch size decomposition executed and for
every worker count, because per-batch seeds are spawned from the root seed
before dispatch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.consensus.estimator import summarise_runs
from repro.exceptions import ExperimentError
from repro.experiments.scheduler import (
    SweepScheduler,
    ThresholdRequest,
    configure_default_scheduler,
    get_default_scheduler,
)
from repro.experiments.sweep import SweepTask, plan_members
from repro.experiments.workloads import replica_batches
from repro.lv.state import LVState
from repro.rng import spawn_seeds


STATE = LVState(30, 18)


class TestReplicaBatches:
    def test_full_batches_plus_remainder(self):
        assert replica_batches(1000, 400) == [400, 400, 200]

    def test_single_partial_batch(self):
        assert replica_batches(64, 256) == [64]

    def test_exact_multiple(self):
        assert replica_batches(512, 256) == [256, 256]

    def test_invalid_arguments(self):
        with pytest.raises(ExperimentError):
            replica_batches(0, 10)
        with pytest.raises(ExperimentError):
            replica_batches(10, 0)


class TestOneTaskBudget:
    """A single configuration's budget, executed as a one-task sweep."""

    def test_members_follow_replica_batches_and_spawned_seeds(self, sd_params):
        specs = plan_members([SweepTask(sd_params, STATE, 250, seed=7)], batch_size=100)
        assert [spec.num_replicates for spec in specs] == replica_batches(250, 100)
        assert [spec.seed for spec in specs] == spawn_seeds(7, 3)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ExperimentError):
            SweepScheduler(jobs=0)
        with pytest.raises(ExperimentError):
            SweepScheduler(batch_size=0)

    def test_estimate_matches_manual_summary(self, sd_params):
        task = SweepTask(sd_params, STATE, 128, seed=5)
        scheduler = SweepScheduler(batch_size=64)
        (estimate,) = scheduler.estimate_many([task])
        (ensemble,) = scheduler.run_sweep([task])
        assert estimate == summarise_runs(ensemble.to_run_results())

    def test_accepts_tuple_initial_state(self, sd_params):
        (result,) = SweepScheduler(batch_size=32).run_sweep(
            [SweepTask(sd_params, (20, 12), 40, seed=2)]
        )
        assert result.num_replicates == 40
        assert result.to_run_results()[0].initial_state == LVState(20, 12)

    def test_run_sweep_count_and_determinism(self, sd_params):
        task = SweepTask(sd_params, STATE, 150, seed=7)
        (first,) = SweepScheduler(batch_size=64).run_sweep([task])
        (second,) = SweepScheduler(batch_size=64).run_sweep([task])
        assert first.num_replicates == 150
        assert first.to_run_results() == second.to_run_results()

    def test_results_independent_of_worker_count(self, sd_params):
        """jobs=2 must reproduce jobs=1 bit for bit (seeds spawn pre-dispatch)."""
        task = SweepTask(sd_params, STATE, 96, seed=3)
        (inline,) = SweepScheduler(jobs=1, batch_size=32).run_sweep([task])
        with SweepScheduler(jobs=2, batch_size=32, sweep_batch=32) as pooled:
            (fanned,) = pooled.run_sweep([task])
        assert inline.to_run_results() == fanned.to_run_results()

    def test_decompose_many_shapes(self, nsd_params):
        (decomposition,) = SweepScheduler(batch_size=64).decompose_many(
            [SweepTask(nsd_params, STATE, 100, seed=19)]
        )
        assert decomposition.individual_noise.shape == (100,)
        assert decomposition.competitive_noise.shape == (100,)

    def test_find_thresholds_one_request_runs(self, sd_params):
        (estimate,) = SweepScheduler(batch_size=64).find_thresholds(
            [ThresholdRequest(sd_params, 64, num_runs=60, seed=23)]
        )
        assert estimate.population_size == 64
        assert estimate.probes


class TestDefaultScheduler:
    def test_configure_updates_shared_instance(self):
        original = get_default_scheduler()
        try:
            configured = configure_default_scheduler(jobs=2, batch_size=128)
            assert get_default_scheduler() is configured
            assert configured.jobs == 2
            assert configured.batch_size == 128
            # Partial reconfiguration keeps the other knob.
            assert configure_default_scheduler(jobs=1).batch_size == 128
        finally:
            configure_default_scheduler(
                jobs=original.jobs, batch_size=original.batch_size
            )

    def test_batch_size_does_not_change_estimates_statistically(self, sd_params):
        (small,) = SweepScheduler(batch_size=32).estimate_many(
            [SweepTask(sd_params, STATE, 400, seed=29)]
        )
        (large,) = SweepScheduler(batch_size=400).estimate_many(
            [SweepTask(sd_params, STATE, 400, seed=31)]
        )
        assert abs(small.majority_probability - large.majority_probability) < 0.1


class TestBackendSelection:
    """The backend selector threaded through the scheduling layer."""

    def test_invalid_backend_and_epsilon_rejected(self):
        with pytest.raises(ExperimentError):
            SweepScheduler(backend="approximate")
        with pytest.raises(ExperimentError):
            SweepScheduler(tau_epsilon=0.0)

    def test_tau_backend_estimate_and_leap_metering(self, sd_params):
        scheduler = SweepScheduler(backend="tau")
        (estimate,) = scheduler.estimate_many(
            [SweepTask(sd_params, LVState(30_060, 29_940), 16, seed=4)]
        )
        assert estimate.num_runs == 16
        assert 0 < scheduler.leap_events_executed <= scheduler.events_executed

    def test_exact_backend_keeps_leap_meter_at_zero(self, sd_params):
        scheduler = SweepScheduler()
        scheduler.estimate_many([SweepTask(sd_params, STATE, 32, seed=4)])
        assert scheduler.leap_events_executed == 0
        assert scheduler.events_executed > 0

    def test_auto_below_threshold_is_bitwise_exact(self, sd_params):
        task = SweepTask(sd_params, STATE, 64, seed=11)
        (auto,) = SweepScheduler(backend="auto").run_sweep([task])
        (exact,) = SweepScheduler(backend="exact").run_sweep([task])
        assert np.array_equal(auto.total_events, exact.total_events)
        assert np.array_equal(auto.final_x0, exact.final_x0)

    def test_sweep_task_backend_override_wins(self, sd_params):
        scheduler = SweepScheduler()  # exact default
        tasks = [
            SweepTask(sd_params, STATE, 16, seed=1),
            SweepTask(
                sd_params, LVState(30_060, 29_940), 8, seed=2, backend="tau"
            ),
        ]
        results = scheduler.run_sweep(tasks)
        assert results[0].leap_events is None
        assert results[1].leap_events is not None
        assert scheduler.leap_events_executed == int(results[1].leap_events.sum())

    def test_sweep_task_backend_validation(self, sd_params):
        with pytest.raises(ExperimentError):
            SweepTask(sd_params, STATE, 16, backend="fast")

    def test_mixed_mega_batch_preserves_member_order(self, sd_params, nsd_params):
        from repro.experiments.sweep import MemberSpec, execute_mega_batch
        from repro.lv.tau import run_tau_sweep_ensemble

        specs = [
            MemberSpec(0, sd_params, (30, 18), 8, seed=7, max_events=10**6),
            MemberSpec(
                1, nsd_params, (30_060, 29_940), 4, seed=8, max_events=10**7,
                backend="tau",
            ),
            MemberSpec(2, sd_params, (24, 12), 8, seed=9, max_events=10**6),
        ]
        results = execute_mega_batch(specs, backend="exact")
        assert [r.num_replicates for r in results] == [8, 4, 8]
        assert results[0].leap_events is None
        assert results[2].leap_events is None
        solo = run_tau_sweep_ensemble(
            [specs[1].to_member()], member_seeds=[specs[1].seed]
        )[0]
        assert (results[1].total_events == solo.total_events).all()

    def test_adaptive_waves_run_on_tau_backend(self, sd_params):
        from repro.analysis.statistics import PrecisionTarget

        scheduler = SweepScheduler(
            backend="tau",
            precision=PrecisionTarget(
                ci_half_width=0.2, min_replicates=32, max_replicates=128
            ),
        )
        estimates = scheduler.estimate_many(
            [SweepTask(sd_params, LVState(25_030, 24_970), 64, seed=3)]
        )
        assert estimates[0].num_runs >= 32
        assert scheduler.leap_events_executed > 0

    def test_configure_default_scheduler_backend(self):
        original = get_default_scheduler()
        try:
            configured = configure_default_scheduler(
                backend="auto", tau_epsilon=0.05
            )
            assert configured.backend == "auto"
            assert configured.tau_epsilon == 0.05
            # Partial reconfiguration keeps the backend knobs.
            assert configure_default_scheduler(jobs=1).backend == "auto"
        finally:
            configure_default_scheduler(
                backend=original.backend, tau_epsilon=original.tau_epsilon
            )
