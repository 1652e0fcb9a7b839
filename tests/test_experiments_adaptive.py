"""Tests for the adaptive-precision sequential estimation layer.

Covers the sequential-stopping statistics (:class:`PrecisionTarget` and the
variance-aware planning helpers), the scheduler's adaptive waves (retiring,
exhaustion, mid-wave convergence, zero-allocation waves), the invariance
contract (same seeds ⇒ bitwise-identical estimates and retired set
regardless of ``sweep_batch``, ``batch_size`` and ``jobs``), the adaptive threshold probes, and the shared :class:`WorkerPool`
lifecycle satellite.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.statistics import (
    PrecisionTarget,
    mean_relative_half_width,
    replicates_for_mean,
    replicates_for_proportion,
    required_samples,
    wilson_half_width,
)
from repro.exceptions import EstimationError, ExperimentError
from repro.experiments.scheduler import (
    SweepScheduler,
    ThresholdRequest,
    WorkerPool,
    configure_default_scheduler,
    get_default_scheduler,
)
from repro.experiments.sweep import SweepTask
from repro.lv.state import LVState


def _easy_task(sd_params, seed=1):
    """ρ near 1: converges at the minimum replicate count."""
    return SweepTask(sd_params, LVState(40, 24), 400, seed=seed, label="easy")


def _hard_task(nsd_params, seed=2):
    """ρ near 1/2: needs close to the worst-case budget."""
    return SweepTask(nsd_params, LVState(33, 31), 400, seed=seed, label="hard")


class TestSequentialStopping:
    def test_precision_target_validation(self):
        with pytest.raises(EstimationError):
            PrecisionTarget(ci_half_width=0.0)
        with pytest.raises(EstimationError):
            PrecisionTarget(ci_half_width=1.5)
        with pytest.raises(EstimationError):
            PrecisionTarget(relative_error=-0.1)
        with pytest.raises(EstimationError):
            PrecisionTarget(confidence=1.0)
        with pytest.raises(EstimationError):
            PrecisionTarget(min_replicates=0)
        with pytest.raises(EstimationError):
            PrecisionTarget(min_replicates=100, max_replicates=50)

    def test_met_by_respects_min_replicates(self):
        target = PrecisionTarget(ci_half_width=0.2, min_replicates=50)
        assert not target.met_by(10, 10, np.empty(0))
        assert target.met_by(50, 50, np.empty(0))

    def test_met_by_width_criterion(self):
        target = PrecisionTarget(ci_half_width=0.05, min_replicates=1)
        assert not target.met_by(50, 100, np.empty(0))  # ~0.1 half-width
        assert target.met_by(1000, 2000, np.empty(0))

    def test_met_by_time_criterion(self):
        target = PrecisionTarget(
            ci_half_width=0.5, min_replicates=2, relative_error=0.05
        )
        tight = np.full(100, 500.0)
        spread = np.concatenate([np.full(50, 10.0), np.full(50, 2000.0)])
        assert target.met_by(90, 100, tight)
        assert not target.met_by(90, 100, spread)

    def test_boundary_proportions_need_far_fewer_samples(self):
        worst = required_samples(0.05)
        near_one = replicates_for_proportion(97, 100, 0.05)
        assert near_one < worst / 2
        near_half = replicates_for_proportion(50, 100, 0.05)
        assert near_half == pytest.approx(worst, rel=0.05)

    def test_replicates_for_mean_scales_with_variance(self):
        few = replicates_for_mean(100.0, 10.0, 0.05)
        many = replicates_for_mean(100.0, 100.0, 0.05)
        # Quadratic in std (ceil rounding keeps it from being exactly 100x).
        assert many == pytest.approx(few * 100, rel=0.1)
        assert replicates_for_mean(0.0, 10.0, 0.05) == float("inf")

    def test_mean_relative_half_width_edge_cases(self):
        assert mean_relative_half_width(np.empty(0)) == float("inf")
        assert mean_relative_half_width(np.array([5.0])) == float("inf")
        assert mean_relative_half_width(np.zeros(10)) == float("inf")

    def test_wilson_half_width_matches_interval(self):
        from repro.analysis.statistics import wilson_interval

        lower, upper = wilson_interval(90, 120)
        assert wilson_half_width(90, 120) == pytest.approx((upper - lower) / 2)


class TestAdaptiveSweep:
    def test_easy_task_retires_at_minimum(self, sd_params):
        target = PrecisionTarget()
        scheduler = SweepScheduler()
        results = scheduler.run_sweep_adaptive([_easy_task(sd_params)], target=target)
        report = scheduler.last_adaptive_report
        assert report.waves == 1
        assert report.converged == (True,)
        assert results[0].num_replicates == report.replicates[0] <= 2 * target.min_replicates
        assert report.half_widths[0] <= target.ci_half_width

    def test_hard_task_gets_more_replicates(self, sd_params, nsd_params):
        scheduler = SweepScheduler()
        scheduler.run_sweep_adaptive(
            [_easy_task(sd_params), _hard_task(nsd_params)], target=PrecisionTarget()
        )
        report = scheduler.last_adaptive_report
        easy, hard = report.replicates
        assert hard > 2 * easy
        assert report.converged == (True, True)
        assert all(w <= PrecisionTarget().ci_half_width for w in report.half_widths)

    def test_mid_wave_convergence_freezes_retired_task(self, sd_params, nsd_params):
        """A task converging while others continue keeps its exact result."""
        target = PrecisionTarget()
        together = SweepScheduler()
        fused = together.run_sweep_adaptive(
            [_easy_task(sd_params), _hard_task(nsd_params)], target=target
        )
        alone = SweepScheduler()
        solo = alone.run_sweep_adaptive([_easy_task(sd_params)], target=target)
        assert np.array_equal(fused[0].total_events, solo[0].total_events)
        assert np.array_equal(fused[0].final_x0, solo[0].final_x0)
        # The retired task contributed no chunks to the later waves.
        assert together.last_adaptive_report.replicates[0] == (
            alone.last_adaptive_report.replicates[0]
        )
        assert together.last_adaptive_report.waves > alone.last_adaptive_report.waves

    def test_wave_boundary_invariance_across_execution_knobs(
        self, sd_params, nsd_params
    ):
        """Same seeds ⇒ same retired set and bitwise estimates regardless of
        ``sweep_batch``, ``batch_size``, and ``jobs``."""
        target = PrecisionTarget()
        tasks = [_easy_task(sd_params), _hard_task(nsd_params)]
        reference_scheduler = SweepScheduler()
        reference = reference_scheduler.run_sweep_adaptive(tasks, target=target)
        reference_report = reference_scheduler.last_adaptive_report
        configurations = (
            dict(sweep_batch=64),
            dict(sweep_batch=8192),
            dict(batch_size=97),
            dict(jobs=2),
        )
        for overrides in configurations:
            scheduler = SweepScheduler(**overrides)
            results = scheduler.run_sweep_adaptive(tasks, target=target)
            report = scheduler.last_adaptive_report
            assert report.replicates == reference_report.replicates, overrides
            assert report.converged == reference_report.converged, overrides
            assert report.half_widths == reference_report.half_widths, overrides
            for a, b in zip(reference, results):
                assert np.array_equal(a.total_events, b.total_events), overrides
                assert np.array_equal(a.final_x0, b.final_x0), overrides
            scheduler.shutdown()

    def test_exhausted_task_reports_unconverged(self, nsd_params):
        # A width no 192-replicate budget can reach for p near 1/2.
        target = PrecisionTarget(
            ci_half_width=0.01, min_replicates=64, max_replicates=192
        )
        scheduler = SweepScheduler()
        results = scheduler.run_sweep_adaptive(
            [_hard_task(nsd_params)], target=target
        )
        report = scheduler.last_adaptive_report
        assert report.converged == (False,)
        assert results[0].num_replicates == report.replicates[0] == 192
        assert report.half_widths[0] > target.ci_half_width

    def test_estimate_many_with_target_varies_budgets(self, sd_params, nsd_params):
        scheduler = SweepScheduler()
        estimates = scheduler.estimate_many(
            [_easy_task(sd_params), _hard_task(nsd_params)],
            target=PrecisionTarget(),
        )
        assert estimates[0].num_runs < estimates[1].num_runs
        for estimate in estimates:
            assert (
                wilson_half_width(
                    estimate.success.successes, estimate.success.trials
                )
                <= PrecisionTarget().ci_half_width
            )

    def test_scheduler_precision_field_enables_adaptive(self, sd_params):
        scheduler = SweepScheduler(precision=PrecisionTarget())
        estimates = scheduler.estimate_many([_easy_task(sd_params)])
        assert estimates[0].num_runs < 400  # the fixed budget was ignored

    def test_fixed_path_unchanged_without_target(self, sd_params):
        scheduler = SweepScheduler()
        estimates = scheduler.estimate_many([_easy_task(sd_params)])
        assert estimates[0].num_runs == 400
        assert scheduler.last_adaptive_report is None

    def test_decompose_many_with_target(self, sd_params, nsd_params):
        scheduler = SweepScheduler()
        decompositions = scheduler.decompose_many(
            [_easy_task(sd_params), _hard_task(nsd_params)],
            target=PrecisionTarget(),
        )
        assert np.all(decompositions[0].competitive_noise == 0)  # SD
        assert np.any(decompositions[1].competitive_noise != 0)  # NSD
        assert decompositions[0].num_runs < decompositions[1].num_runs

    def test_adaptive_thresholds_match_fixed_story(self, sd_params):
        fixed = SweepScheduler().find_thresholds(
            [ThresholdRequest(sd_params, 64, num_runs=385, seed=7)]
        )[0]
        adaptive = SweepScheduler(precision=PrecisionTarget()).find_thresholds(
            [ThresholdRequest(sd_params, 64, num_runs=385, seed=7)]
        )[0]
        assert fixed.has_threshold and adaptive.has_threshold
        assert 0.4 <= adaptive.threshold_gap / fixed.threshold_gap <= 2.5

    def test_target_broadcast_validation(self, sd_params):
        scheduler = SweepScheduler()
        with pytest.raises(ExperimentError):
            scheduler.run_sweep_adaptive([_easy_task(sd_params)])  # no target
        with pytest.raises(ExperimentError):
            scheduler.run_sweep_adaptive(
                [_easy_task(sd_params)], target=[PrecisionTarget()] * 2
            )
        with pytest.raises(ExperimentError):
            scheduler.run_sweep_adaptive([], target=PrecisionTarget())

    def test_events_counter_accumulates_adaptive_work(self, sd_params):
        scheduler = SweepScheduler()
        results = scheduler.run_sweep_adaptive(
            [_easy_task(sd_params)], target=PrecisionTarget()
        )
        assert scheduler.events_executed == int(results[0].total_events.sum()) > 0


class TestWorkerPool:
    def test_acquire_reuses_same_width_and_rebuilds_on_change(self):
        with WorkerPool() as pool:
            assert pool.workers == 0
            first = pool.acquire(2)
            assert pool.workers == 2
            assert pool.acquire(2) is first  # same width reuses
            shrunk = pool.acquire(1)  # the parallelism cap is honoured exactly
            assert shrunk is not first
            assert pool.workers == 1
            grown = pool.acquire(3)
            assert grown is not shrunk
            assert pool.workers == 3
        assert pool.workers == 0

    def test_acquire_validates_workers(self):
        with pytest.raises(ExperimentError):
            WorkerPool().acquire(0)

    def test_schedulers_can_share_a_pool(self, sd_params):
        with WorkerPool() as pool:
            first = SweepScheduler(jobs=2, batch_size=64, sweep_batch=128, pool=pool)
            second = SweepScheduler(jobs=2, batch_size=64, sweep_batch=128, pool=pool)
            tasks = [_easy_task(sd_params)]
            a = first.run_sweep(tasks)
            executor = pool.acquire(2)
            b = second.run_sweep(tasks)
            assert pool.acquire(2) is executor  # no respawn between schedulers
            assert np.array_equal(a[0].total_events, b[0].total_events)

    def test_configure_default_scheduler_hands_pool_over(self):
        baseline = get_default_scheduler()
        try:
            first = configure_default_scheduler(jobs=2)
            pool = first.pool
            second = configure_default_scheduler(jobs=1)
            assert second.pool is pool  # warm pool survives jobs toggles
            third = configure_default_scheduler(jobs=2)
            assert third.pool is pool
        finally:
            configure_default_scheduler(
                jobs=baseline.jobs,
                batch_size=baseline.batch_size,
                sweep_batch=baseline.sweep_batch,
                precision=baseline.precision,
            )
            get_default_scheduler().shutdown()

    def test_exception_escaping_pool_scope_stops_workers(self):
        """KeyboardInterrupt between lazy start and exit must not leak workers."""
        scheduler = SweepScheduler(jobs=2)
        with pytest.raises(KeyboardInterrupt):
            with scheduler._pool_scope(4) as executor:
                assert executor is not None
                assert scheduler.pool.workers == 2
                raise KeyboardInterrupt
        assert scheduler.pool.workers == 0

    def test_store_failure_mid_sweep_stops_workers(self, sd_params, tmp_path):
        """An exception thrown between mega-batches tears the pool down too."""
        from repro.store import ExperimentStore

        class FailingStore(ExperimentStore):
            def put_chunk(self, key, result, **metadata):
                raise KeyboardInterrupt

        scheduler = SweepScheduler(
            jobs=2, batch_size=64, sweep_batch=64, store=FailingStore(tmp_path)
        )
        with pytest.raises(KeyboardInterrupt):
            scheduler.run_sweep([_easy_task(sd_params), _hard_task(sd_params)])
        assert scheduler.pool.workers == 0

    def test_atexit_net_registered_on_lazy_start(self):
        """The atexit safety net arms on first acquire and is idempotent."""
        pool = WorkerPool()
        assert not pool._atexit_registered
        pool.acquire(1)
        assert pool._atexit_registered
        pool._shutdown_at_exit()
        assert pool.workers == 0
        pool._shutdown_at_exit()  # safe to run again (and at interpreter exit)
        assert pool.workers == 0

    def test_shutdown_accepts_abort_arguments(self):
        pool = WorkerPool()
        pool.acquire(2)
        pool.shutdown(wait=False, cancel_futures=True)
        assert pool.workers == 0
        pool.shutdown()  # idempotent

    def test_configure_default_scheduler_precision_roundtrip(self):
        baseline = get_default_scheduler()
        target = PrecisionTarget(ci_half_width=0.07)
        try:
            configured = configure_default_scheduler(precision=target)
            assert configured.precision == target
            kept = configure_default_scheduler(jobs=1)
            assert kept.precision == target  # omitted -> unchanged
            cleared = configure_default_scheduler(precision=None)
            assert cleared.precision is None
        finally:
            configure_default_scheduler(precision=baseline.precision)
