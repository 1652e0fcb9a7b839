"""Chaos suite: deterministic fault injection and the fault-tolerant executor.

The acceptance gate of the fault-tolerance work: under an injected
:class:`~repro.faults.FaultPlan` — worker crashes, hung tasks, torn journal
appends, corrupted chunk payloads — every entry point
completes **bitwise-identically** to a fault-free run, with equal
``events_executed`` meters and equal journaled bytes, across ``jobs`` and
``sweep_batch`` settings.  Faults change *how long* a run takes, never what
it computes.
"""

from __future__ import annotations

from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.exceptions import (
    PoisonChunkError,
    ReproError,
    StoreError,
    WorkerCrashError,
)
from repro.experiments.scheduler import (
    FaultTolerance,
    RunHealth,
    SweepScheduler,
)
from repro.experiments.sweep import SweepTask
from repro.faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    InjectedWorkerCrash,
    get_fault_plan,
    injected_faults,
    install_fault_plan,
)
from repro.lv.state import LVState
from repro.store import ExperimentStore, quarantine_path, verify_journal

from test_store import assert_bitwise_equal


def _tasks(sd_params, nsd_params):
    return [
        SweepTask(sd_params, LVState(40, 24), 150, seed=1, label="a"),
        SweepTask(nsd_params, LVState(33, 31), 150, seed=2, label="b"),
        SweepTask(sd_params, LVState(36, 28), 150, seed=3, label="c"),
    ]


def _reference(tasks, **config):
    """Fault-free results plus the events meter they took to compute."""
    scheduler = SweepScheduler(batch_size=64, sweep_batch=64, **config)
    try:
        results = scheduler.run_sweep(tasks)
        return results, scheduler.events_executed
    finally:
        scheduler.shutdown()


class TestFaultSpecValidation:
    def test_rate_must_be_a_probability(self):
        with pytest.raises(ReproError):
            FaultSpec(rate=1.5)
        with pytest.raises(ReproError):
            FaultSpec(rate=-0.1)

    def test_attempts_must_be_positive(self):
        with pytest.raises(ReproError):
            FaultSpec(rate=0.5, attempts=0)

    def test_delay_must_be_non_negative(self):
        with pytest.raises(ReproError):
            FaultSpec(rate=0.5, delay=-1.0)


class TestFaultPlanFiring:
    def test_firing_is_a_pure_function(self):
        plan = FaultPlan(seed=7, crash=FaultSpec(rate=0.5))
        decisions = [plan.should_fire("crash", token) for token in range(200)]
        again = [plan.should_fire("crash", token) for token in range(200)]
        assert decisions == again
        # A 0.5 rate really is partial: some tokens fire, some don't.
        assert any(decisions) and not all(decisions)

    def test_rate_one_fires_only_below_the_attempt_budget(self):
        plan = FaultPlan(seed=1, crash=FaultSpec(rate=1.0, attempts=2))
        assert plan.should_fire("crash", 42, attempt=0)
        assert plan.should_fire("crash", 42, attempt=1)
        assert not plan.should_fire("crash", 42, attempt=2)

    def test_rate_zero_never_fires(self):
        plan = FaultPlan(seed=1)
        assert not any(plan.should_fire("crash", token) for token in range(100))

    def test_seed_changes_the_schedule(self):
        spec = FaultSpec(rate=0.5)
        first = [FaultPlan(seed=1, crash=spec).should_fire("crash", t) for t in range(64)]
        second = [FaultPlan(seed=2, crash=spec).should_fire("crash", t) for t in range(64)]
        assert first != second

    def test_fire_execution_raises_injected_crash_inline(self):
        plan = FaultPlan(seed=1, crash=FaultSpec(rate=1.0))
        with pytest.raises(InjectedWorkerCrash):
            plan.fire_execution(token=5, attempt=0)
        plan.fire_execution(token=5, attempt=1)  # retry is clean

    def test_journal_action_is_attempt_gated(self):
        plan = FaultPlan(seed=1, torn_append=FaultSpec(rate=1.0))
        assert plan.journal_action("key", attempt=0) == "torn"
        assert plan.journal_action("key", attempt=1) is None


class TestFaultPlanSerialisation:
    def test_json_round_trip(self):
        plan = FaultPlan(
            seed=9,
            crash=FaultSpec(rate=0.2, fatal=True),
            hang=FaultSpec(rate=0.1, delay=2.0),
            corrupt_chunk=FaultSpec(rate=1.0, attempts=2),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_unknown_fields_are_rejected(self):
        with pytest.raises(ReproError, match="unknown fault plan field"):
            FaultPlan.from_json('{"seed": 1, "explode": {"rate": 1.0}}')

    def test_native_outage_kind_is_gone(self):
        # The mid-run native-engine outage left with the native engine.
        assert "degrade" not in FAULT_KINDS
        with pytest.raises(ReproError, match="unknown fault plan field"):
            FaultPlan.from_json('{"seed": 5, "degrade": {"rate": 0.3}}')

    def test_shard_crash_kind_is_gone(self):
        # Whole-shard crashes left with the local shard driver that retried them.
        assert "shard_crash" not in FAULT_KINDS
        with pytest.raises(ReproError, match="unknown fault plan field"):
            FaultPlan.from_json('{"seed": 5, "shard_crash": {"rate": 1.0}}')

    def test_invalid_spec_field_is_rejected(self):
        with pytest.raises(ReproError, match="invalid fault spec"):
            FaultPlan.from_json('{"crash": {"frequency": 1.0}}')

    def test_malformed_json_is_rejected(self):
        with pytest.raises(ReproError, match="invalid fault plan JSON"):
            FaultPlan.from_json("{not json")
        with pytest.raises(ReproError, match="must be a JSON object"):
            FaultPlan.from_json("[1, 2]")

    def test_environment_variable_is_consulted(self, monkeypatch):
        plan = FaultPlan(seed=4, crash=FaultSpec(rate=0.5))
        monkeypatch.setenv("REPRO_FAULT_PLAN", plan.to_json())
        assert get_fault_plan() == plan
        monkeypatch.delenv("REPRO_FAULT_PLAN")
        assert get_fault_plan() is None

    def test_installed_plan_wins_over_environment(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULT_PLAN", FaultPlan(seed=1, crash=FaultSpec(rate=1.0)).to_json()
        )
        installed = FaultPlan(seed=2)
        with injected_faults(installed):
            assert get_fault_plan() == installed
        assert get_fault_plan().seed == 1

    def test_injected_faults_restores_the_previous_plan(self):
        outer = FaultPlan(seed=1)
        install_fault_plan(outer)
        try:
            with injected_faults(FaultPlan(seed=2)):
                assert get_fault_plan().seed == 2
            assert get_fault_plan() is outer
        finally:
            install_fault_plan(None)


class TestFaultTolerancePolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_retries=-1),
            dict(task_timeout=0.0),
            dict(task_timeout=-5.0),
            dict(on_fault="explode"),
            dict(backoff_base=-0.1),
            dict(backoff_base=1.0, backoff_cap=0.5),
        ],
    )
    def test_invalid_policies_are_rejected(self, kwargs):
        from repro.exceptions import ExperimentError

        with pytest.raises(ExperimentError):
            FaultTolerance(**kwargs)

    def test_backoff_is_deterministic_and_capped(self):
        policy = FaultTolerance(backoff_base=0.1, backoff_cap=0.5)
        assert policy.backoff_delay("token", 1) == policy.backoff_delay("token", 1)
        for attempt in range(1, 12):
            delay = policy.backoff_delay("token", attempt)
            assert 0.0 < delay <= policy.backoff_cap

    def test_zero_base_disables_backoff(self):
        policy = FaultTolerance(backoff_base=0.0, backoff_cap=0.0)
        assert policy.backoff_delay("token", 3) == 0.0

    def test_scheduler_rejects_non_policy(self):
        from repro.exceptions import ExperimentError

        with pytest.raises(ExperimentError):
            SweepScheduler(fault_tolerance="retry")


class TestRunHealth:
    def test_clean_run_reports_no_faults(self):
        health = RunHealth()
        assert health.faults_handled == 0
        assert health.summary() == "no faults"

    def test_summary_lists_what_happened(self):
        health = RunHealth(retries=2, timeouts=1, pool_rebuilds=1)
        health.quarantined.append("key")
        assert health.faults_handled == 5
        summary = health.summary()
        assert "2 retries" in summary
        assert "1 timeout(s)" in summary
        assert "1 pool rebuild(s)" in summary
        assert "1 chunk(s) quarantined" in summary


#: Quick backoff so chaos tests don't sleep their way through the suite.
FAST = FaultTolerance(max_retries=2, backoff_base=0.001, backoff_cap=0.01)


class TestInlineChaos:
    """jobs=1: the inline arm of the fault-tolerant executor."""

    def test_crashes_retry_to_bitwise_identical_results(self, sd_params, nsd_params):
        tasks = _tasks(sd_params, nsd_params)
        reference, events = _reference(tasks)
        scheduler = SweepScheduler(batch_size=64, sweep_batch=64, fault_tolerance=FAST)
        with injected_faults(FaultPlan(seed=5, crash=FaultSpec(rate=1.0))):
            faulted = scheduler.run_sweep(tasks)
        assert scheduler.health.retries > 0
        assert scheduler.health.faults_handled == scheduler.health.retries
        assert scheduler.events_executed == events
        for expected, actual in zip(reference, faulted):
            assert_bitwise_equal(expected, actual)

    def test_partial_crash_rate_also_converges(self, sd_params, nsd_params):
        tasks = _tasks(sd_params, nsd_params)
        reference, events = _reference(tasks)
        scheduler = SweepScheduler(batch_size=64, sweep_batch=64, fault_tolerance=FAST)
        with injected_faults(FaultPlan(seed=11, crash=FaultSpec(rate=0.5))):
            faulted = scheduler.run_sweep(tasks)
        assert scheduler.events_executed == events
        for expected, actual in zip(reference, faulted):
            assert_bitwise_equal(expected, actual)

    def test_one_task_budget_crashes_retry_bitwise(self, sd_params):
        """A single configuration split over several members (``repro estimate``)."""
        task = SweepTask(sd_params, LVState(24, 16), 200, seed=5)
        reference, events = _reference([task])
        scheduler = SweepScheduler(batch_size=64, sweep_batch=64, fault_tolerance=FAST)
        with injected_faults(FaultPlan(seed=5, crash=FaultSpec(rate=1.0))):
            faulted = scheduler.run_sweep([task])
        assert scheduler.health.retries > 0
        assert scheduler.events_executed == events
        assert_bitwise_equal(reference[0], faulted[0])

    def test_adaptive_sweep_crashes_retry_bitwise(self, sd_params, nsd_params):
        from repro.analysis.statistics import PrecisionTarget

        target = PrecisionTarget(ci_half_width=0.06, min_replicates=64, max_replicates=256)
        tasks = _tasks(sd_params, nsd_params)
        clean = SweepScheduler(wave_quantum=64)
        reference = clean.run_sweep_adaptive(tasks, target=target)
        reference_report = clean.last_adaptive_report
        scheduler = SweepScheduler(wave_quantum=64, fault_tolerance=FAST)
        with injected_faults(FaultPlan(seed=6, crash=FaultSpec(rate=0.5))):
            faulted = scheduler.run_sweep_adaptive(tasks, target=target)
        assert scheduler.events_executed == clean.events_executed
        assert scheduler.last_adaptive_report == reference_report
        for expected, actual in zip(reference, faulted):
            assert_bitwise_equal(expected, actual)

    def test_poison_chunk_quarantined_after_budget(self, tmp_path, sd_params, nsd_params):
        """A chunk that keeps failing is quarantined; the rest completes."""
        from repro.experiments.sweep import pack_members, plan_members

        tasks = _tasks(sd_params, nsd_params)
        store = ExperimentStore(tmp_path)
        scheduler = SweepScheduler(
            batch_size=64,
            sweep_batch=64,
            store=store,
            fault_tolerance=FaultTolerance(max_retries=1, backoff_base=0.0),
        )
        # Exactly one poisoned unit: search the pure firing function for a
        # plan seed whose crash fires on a single injection token (the first
        # member seed of each packed mega-batch), at every attempt.
        tokens = [
            plan[0].seed
            for plan in pack_members(plan_members(tasks, batch_size=64), 64)
        ]
        spec = FaultSpec(rate=0.2, attempts=99)
        plan_seed = next(
            seed
            for seed in range(10_000)
            if sum(
                FaultPlan(seed=seed, crash=spec).should_fire("crash", token)
                for token in tokens
            )
            == 1
        )
        plan = FaultPlan(seed=plan_seed, crash=spec)
        with injected_faults(plan), pytest.raises(PoisonChunkError) as excinfo:
            scheduler.run_sweep(tasks)
        assert excinfo.value.chunk_keys
        assert scheduler.health.quarantined
        assert "rerun to retry only the quarantined chunks" in str(excinfo.value)
        # Every healthy chunk was journaled before the error surfaced.
        assert store.stats.chunk_writes > 0
        total_chunks = store.stats.chunk_writes + len(excinfo.value.chunk_keys)
        assert store.stats.chunk_misses == total_chunks
        # A fault-free rerun completes just the quarantined chunks, bitwise.
        healthy_writes = store.stats.chunk_writes
        reference, _ = _reference(tasks)
        resumed = SweepScheduler(batch_size=64, sweep_batch=64, store=store).run_sweep(tasks)
        assert store.stats.chunk_hits == healthy_writes
        assert store.stats.chunk_writes == total_chunks
        for expected, actual in zip(reference, resumed):
            assert_bitwise_equal(expected, actual)

    def test_on_fault_fail_raises_actionable_error(self, sd_params, nsd_params):
        scheduler = SweepScheduler(
            batch_size=64,
            sweep_batch=64,
            fault_tolerance=FaultTolerance(on_fault="fail"),
        )
        with injected_faults(FaultPlan(seed=5, crash=FaultSpec(rate=1.0))):
            with pytest.raises(WorkerCrashError, match="--jobs 1") as excinfo:
                scheduler.run_sweep(_tasks(sd_params, nsd_params))
        assert "--max-retries" in str(excinfo.value)

    def test_units_receive_their_attempt_number(self):
        """Dispatch appends the attempt; a failed unit retries one higher."""
        calls = []

        def fn(index, attempt):
            calls.append((index, attempt))
            if index == 1 and attempt == 0:
                raise RuntimeError("transient")
            return index * 10

        collected = {}
        scheduler = SweepScheduler(fault_tolerance=FAST)
        scheduler._execute_faulted(
            [(0,), (1,), (2,)],
            fn,
            lambda index: (f"unit-{index}",),
            lambda index, result: collected.__setitem__(index, result),
        )
        assert collected == {0: 0, 1: 10, 2: 20}
        assert calls == [(0, 0), (1, 0), (1, 1), (2, 0)]
        assert scheduler.health.retries == 1


class TestPoolChaos:
    """jobs>1: the pool arm — explicit futures, watchdog, pool rebuilds."""

    def test_worker_crashes_retry_to_bitwise_results(self, sd_params, nsd_params):
        tasks = _tasks(sd_params, nsd_params)
        reference, events = _reference(tasks)
        scheduler = SweepScheduler(
            jobs=2, batch_size=64, sweep_batch=64, fault_tolerance=FAST
        )
        try:
            with injected_faults(FaultPlan(seed=5, crash=FaultSpec(rate=1.0))):
                faulted = scheduler.run_sweep(tasks)
        finally:
            scheduler.shutdown()
        assert scheduler.health.retries > 0
        assert scheduler.events_executed == events
        for expected, actual in zip(reference, faulted):
            assert_bitwise_equal(expected, actual)

    def test_fatal_crashes_break_and_rebuild_the_pool(
        self, monkeypatch, sd_params, nsd_params
    ):
        """``fatal`` crashes kill real workers: a genuine BrokenProcessPool.

        The plan travels via ``REPRO_FAULT_PLAN`` — the same channel the CI
        chaos job uses — proving the injection reaches forked workers.
        """
        tasks = _tasks(sd_params, nsd_params)
        reference, events = _reference(tasks)
        plan = FaultPlan(seed=5, crash=FaultSpec(rate=0.5, fatal=True))
        # A pool break costs every in-flight unit an attempt (the culprit is
        # indistinguishable), so innocents caught near several breaks need a
        # deeper budget than the per-unit fault count suggests.
        scheduler = SweepScheduler(
            jobs=2,
            batch_size=64,
            sweep_batch=64,
            fault_tolerance=FaultTolerance(
                max_retries=16, backoff_base=0.001, backoff_cap=0.01
            ),
        )
        try:
            monkeypatch.setenv("REPRO_FAULT_PLAN", plan.to_json())
            faulted = scheduler.run_sweep(tasks)
        finally:
            scheduler.shutdown()
        assert scheduler.health.pool_rebuilds >= 1
        assert scheduler.events_executed == events
        for expected, actual in zip(reference, faulted):
            assert_bitwise_equal(expected, actual)

    @pytest.mark.parametrize("in_flight", [True, False])
    def test_a_pool_broken_between_waits_is_rebuilt(self, in_flight):
        """A dead worker breaks the executor before its future fails, so a
        submit in between raises; the refused unit keeps its attempt."""
        calls = []

        def fn(index, attempt):
            calls.append((index, attempt))
            return index * 10

        class Healthy:
            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        class Broken:
            """Holds unit 0 in flight (when *in_flight*), then refuses work
            and fails the in-flight future, as a pool whose worker died."""

            def __init__(self):
                self.running = []

            def submit(self, fn, *args):
                if in_flight and not self.running:
                    self.running.append(Future())
                    return self.running[0]
                for future in self.running:
                    future.set_exception(BrokenProcessPool("worker died"))
                raise BrokenProcessPool("worker died")

        class Pool:
            def kill_workers(self):
                pass

            def acquire(self, workers):
                return Healthy()

        collected = {}
        scheduler = SweepScheduler(jobs=2, fault_tolerance=FAST, pool=Pool())
        scheduler._execute_faulted_pool(
            Broken(),
            [(0,), (1,), (2,)],
            fn,
            lambda index: (f"unit-{index}",),
            lambda index, result: collected.__setitem__(index, result),
        )
        assert collected == {0: 0, 1: 10, 2: 20}
        assert scheduler.health.pool_rebuilds == 1
        # Only the unit that was in flight when the pool broke loses an attempt.
        expected = [(1, 0), (2, 0), (0, 1)] if in_flight else [(0, 0), (1, 0), (2, 0)]
        assert calls == expected
        assert scheduler.health.retries == int(in_flight)

    def test_hung_tasks_hit_the_watchdog_and_retry(self, sd_params, nsd_params):
        tasks = _tasks(sd_params, nsd_params)
        reference, events = _reference(tasks)
        plan = FaultPlan(seed=5, hang=FaultSpec(rate=0.5, delay=60.0))
        scheduler = SweepScheduler(
            jobs=2,
            batch_size=64,
            sweep_batch=64,
            fault_tolerance=FaultTolerance(
                max_retries=2, task_timeout=1.0, backoff_base=0.001, backoff_cap=0.01
            ),
        )
        try:
            with injected_faults(plan):
                faulted = scheduler.run_sweep(tasks)
        finally:
            scheduler.shutdown()
        assert scheduler.health.timeouts >= 1
        assert scheduler.health.pool_rebuilds >= 1
        assert scheduler.events_executed == events
        for expected, actual in zip(reference, faulted):
            assert_bitwise_equal(expected, actual)

    def test_store_backed_pool_chaos_journals_identically(
        self, tmp_path, sd_params, nsd_params
    ):
        """Crashes under jobs=2 with a store: journal bytes match a clean run."""
        tasks = _tasks(sd_params, nsd_params)
        clean_store = ExperimentStore(tmp_path / "clean")
        SweepScheduler(batch_size=64, sweep_batch=64, store=clean_store).run_sweep(tasks)
        clean_store.close()

        chaos_store = ExperimentStore(tmp_path / "chaos")
        scheduler = SweepScheduler(
            jobs=2,
            batch_size=64,
            sweep_batch=64,
            store=chaos_store,
            fault_tolerance=FAST,
        )
        try:
            with injected_faults(FaultPlan(seed=5, crash=FaultSpec(rate=1.0))):
                scheduler.run_sweep(tasks)
        finally:
            scheduler.shutdown()
        chaos_store.close()
        clean = (tmp_path / "clean" / "journal.jsonl").read_bytes()
        chaos = (tmp_path / "chaos" / "journal.jsonl").read_bytes()
        assert sorted(clean.splitlines()) == sorted(chaos.splitlines())


class TestStoreChaos:
    """Injected journal faults: torn appends and corrupted payloads."""

    def test_torn_appends_are_repaired_in_place(self, tmp_path, sd_params, nsd_params):
        tasks = _tasks(sd_params, nsd_params)
        reference, _ = _reference(tasks)
        store = ExperimentStore(tmp_path)
        scheduler = SweepScheduler(batch_size=64, sweep_batch=64, store=store)
        with injected_faults(FaultPlan(seed=5, torn_append=FaultSpec(rate=1.0))):
            faulted = scheduler.run_sweep(tasks)
        assert store.stats.journal_repairs == store.stats.chunk_writes
        for expected, actual in zip(reference, faulted):
            assert_bitwise_equal(expected, actual)
        store.close()
        # The journal holds every chunk, framed cleanly: replay everything.
        replay_store = ExperimentStore(tmp_path)
        replayer = SweepScheduler(batch_size=64, sweep_batch=64, store=replay_store)
        replayed = replayer.run_sweep(tasks)
        assert replay_store.stats.chunk_misses == 0
        assert replayer.events_executed == 0
        for expected, actual in zip(reference, replayed):
            assert_bitwise_equal(expected, actual)

    def test_corrupted_chunks_quarantine_and_recompute(
        self, tmp_path, sd_params, nsd_params
    ):
        tasks = _tasks(sd_params, nsd_params)
        reference, _ = _reference(tasks)
        store = ExperimentStore(tmp_path)
        # Session 1: every chunk's payload is silently corrupted on disk.
        with injected_faults(FaultPlan(seed=5, corrupt_chunk=FaultSpec(rate=1.0))):
            corrupted = SweepScheduler(
                batch_size=64, sweep_batch=64, store=store
            ).run_sweep(tasks)
        written = store.stats.chunk_writes
        store.close()
        # In-memory results were computed before the append and stay correct.
        for expected, actual in zip(reference, corrupted):
            assert_bitwise_equal(expected, actual)
        # Offline audit sees every record as corrupt.
        report = verify_journal(tmp_path / "journal.jsonl")
        assert not report.ok
        assert len(report.issues) == written
        # Session 2: corruption is healed to the sidecar and every chunk is
        # recomputed — bitwise-identically — then journaled cleanly.
        store = ExperimentStore(tmp_path)
        scheduler = SweepScheduler(batch_size=64, sweep_batch=64, store=store)
        recovered = scheduler.run_sweep(tasks)
        assert store.stats.chunk_hits == 0
        assert store.stats.chunks_quarantined == written
        store.close()
        for expected, actual in zip(reference, recovered):
            assert_bitwise_equal(expected, actual)
        assert quarantine_path(tmp_path / "journal.jsonl").exists()
        final = verify_journal(tmp_path / "journal.jsonl")
        assert final.ok
        assert final.intact_records == written
        assert final.quarantined_records == written

    def test_everything_at_once(self, tmp_path, sd_params, nsd_params):
        """Crashes, short hangs, torn and corrupt appends in one run."""
        tasks = _tasks(sd_params, nsd_params)
        reference, events = _reference(tasks)
        plan = FaultPlan(
            seed=13,
            crash=FaultSpec(rate=0.4),
            hang=FaultSpec(rate=0.3, delay=0.01),
            torn_append=FaultSpec(rate=0.4),
            corrupt_chunk=FaultSpec(rate=0.4),
        )
        store = ExperimentStore(tmp_path)
        scheduler = SweepScheduler(
            batch_size=64, sweep_batch=64, store=store, fault_tolerance=FAST
        )
        with injected_faults(plan):
            faulted = scheduler.run_sweep(tasks)
        assert scheduler.events_executed == events
        for expected, actual in zip(reference, faulted):
            assert_bitwise_equal(expected, actual)
        store.close()
        # A follow-up clean run replays the intact records and recomputes the
        # corrupted ones, converging on the same bytes.
        store = ExperimentStore(tmp_path)
        recovered = SweepScheduler(
            batch_size=64, sweep_batch=64, store=store
        ).run_sweep(tasks)
        store.close()
        for expected, actual in zip(reference, recovered):
            assert_bitwise_equal(expected, actual)
        assert verify_journal(tmp_path / "journal.jsonl").ok

    def test_injected_torn_write_is_a_store_error(self):
        from repro.faults import InjectedTornWrite

        assert issubclass(InjectedTornWrite, StoreError)
        assert not issubclass(InjectedWorkerCrash, ReproError)


class TestRunSweepJobsEquivalence:
    """The chaos contract holds across execution configurations."""

    @pytest.mark.parametrize(
        "config",
        [dict(jobs=2), dict(sweep_batch=96), dict(jobs=2, sweep_batch=96)],
        ids=["jobs-2", "sweep-batch-96", "both"],
    )
    def test_faulted_runs_match_reference_across_configs(
        self, config, sd_params, nsd_params
    ):
        tasks = _tasks(sd_params, nsd_params)
        reference, events = _reference(tasks)
        scheduler = SweepScheduler(
            batch_size=64, fault_tolerance=FAST, **{**dict(sweep_batch=64), **config}
        )
        try:
            with injected_faults(FaultPlan(seed=21, crash=FaultSpec(rate=0.6))):
                faulted = scheduler.run_sweep(tasks)
        finally:
            scheduler.shutdown()
        assert scheduler.events_executed == events
        for expected, actual in zip(reference, faulted):
            assert_bitwise_equal(expected, actual)

    def test_tau_backend_faulted_run_matches_reference(self, sd_params):
        tasks = [
            SweepTask(sd_params, LVState(30_000, 29_000), 8, seed=3, backend="tau"),
            SweepTask(sd_params, LVState(31_000, 29_500), 8, seed=4, backend="tau"),
        ]
        clean = SweepScheduler(backend="tau")
        reference = clean.run_sweep(tasks)
        scheduler = SweepScheduler(backend="tau", fault_tolerance=FAST)
        with injected_faults(FaultPlan(seed=5, crash=FaultSpec(rate=1.0))):
            faulted = scheduler.run_sweep(tasks)
        assert scheduler.health.retries > 0
        assert scheduler.events_executed == clean.events_executed
        for expected, actual in zip(reference, faulted):
            assert_bitwise_equal(expected, actual)
