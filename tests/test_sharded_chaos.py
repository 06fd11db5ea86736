"""Fleet chaos acceptance: the sharded loop under shard/coordinator faults.

The contract under test (docs/FLEET_RESILIENCE.md):

* randomized shard-fault schedules never escape the supervised loop;
* a killed/stalled shard is declared dead within the heartbeat bound
  and its arrival share is zeroed synchronously at declaration;
* shed during the failover dark window stays bounded;
* the healed fleet's tail mean response time re-converges to the
  analytic optimum ``T'``;
* a shard crash-restored mid-run from its own journal replays its
  control decisions bit-exactly (the whole-run task log matches an
  unfaulted baseline when the kill+restore is atomic).
"""

import os

import numpy as np
import pytest

from repro.core.exceptions import ParameterError
from repro.core.server import BladeServerGroup
from repro.faults import (
    FaultPlan,
    FaultSchedule,
    FaultSpec,
    dump_chaos_artifacts,
    run_sharded_chaos,
)
from repro.recovery import RecoveryConfig
from repro.runtime.loop import RuntimeConfig
from repro.shard import (
    ShardConfig,
    ShardSupervisor,
    ShardSupervisorConfig,
    ShardedDispatcher,
    partition_group,
    run_sharded_closed_loop,
    solve_sharded,
)
from repro.workloads.traces import RateTrace

RATE = 20.0
HEARTBEAT = 20.0
MISSES = 1
#: A crash lands anywhere inside a heartbeat interval; the detector
#: needs one full silent interval to tell death from just-finished
#: work, so detection is at most (misses + 1) intervals after the kill.
DETECTION_BOUND = (MISSES + 1) * HEARTBEAT


@pytest.fixture(scope="module")
def group() -> BladeServerGroup:
    return BladeServerGroup.with_special_fraction(
        sizes=[2, 4, 6, 8, 10, 12, 14],
        speeds=[1.6, 1.5, 1.4, 1.3, 1.2, 1.1, 1.0],
        fraction=0.3,
    )


def _config(tmp_path=None, **kwargs) -> RuntimeConfig:
    recovery = (
        RecoveryConfig(enabled=True, directory=str(tmp_path))
        if tmp_path is not None
        else RecoveryConfig()
    )
    kwargs.setdefault("router", "alias")
    kwargs.setdefault("resolve_period", 40.0)
    return RuntimeConfig(recovery=recovery, **kwargs)


def _supervisor_config(**kwargs) -> ShardSupervisorConfig:
    kwargs.setdefault("heartbeat_interval", HEARTBEAT)
    kwargs.setdefault("heartbeat_misses", MISSES)
    return ShardSupervisorConfig(**kwargs)


def _generic_log(report):
    return [
        (t.arrival_time, t.server_index)
        for t in report.sim.task_log
        if t.task_class.name == "GENERIC"
    ]


# ---------------------------------------------------------------------------
# The randomized acceptance matrix
# ---------------------------------------------------------------------------


class TestFleetChaosMatrix:
    N_SEEDS = 16

    @pytest.fixture(scope="class")
    def report(self, group):
        return run_sharded_chaos(
            group,
            RATE,
            seeds=range(self.N_SEEDS),
            horizon=400.0,
            shard_config=ShardConfig(shards=3),
            supervisor_config=_supervisor_config(),
        )

    def test_no_escaped_exceptions(self, report):
        assert report.n_runs == self.N_SEEDS
        assert report.all_completed, report.failed_seeds

    def test_every_seed_draws_shard_faults(self, report):
        for record in report.records:
            kinds = {s["kind"] for s in record.schedule["specs"]}
            assert kinds & {
                "shard-crash",
                "shard-stall",
                "shard-journal-corrupt",
            }, record.seed

    def test_failovers_detected_and_healed(self, report):
        assert report.total_failovers > 0
        # Every declared-dead shard was spliced back (restores also
        # count stall-ends and atomic kill+restores, hence >=).
        assert report.total_restores >= report.total_failovers
        for record in report.records:
            degraded = record.failovers - record.restores
            assert degraded <= 0, (record.seed, degraded)

    def test_failover_latency_bounded(self, report):
        # The tight (misses + 1) * interval bound is asserted on a
        # crafted schedule in TestFailoverLatency; randomized runs can
        # legitimately exceed it when a correlated outage pushes the
        # dead shard's share under min_share (the detector exemption),
        # so the matrix asserts a generous fleet-wide ceiling.
        assert report.total_failovers > 0
        for record in report.records:
            for shard, latency in record.failover_latencies:
                assert latency <= 2.0 * DETECTION_BOUND + 1e-9, (
                    record.seed,
                    shard,
                    latency,
                )

    def test_shed_bounded_during_failover(self, report):
        assert report.max_shed_fraction <= 0.25
        for record in report.records:
            assert record.shed_fraction_observed <= 0.25, record.seed

    def test_tail_reconverges_to_analytic_optimum(self, report):
        lo, hi = report.tail_confidence_interval(0.99)
        assert lo <= report.analytic_t_prime <= hi, (lo, hi)

    def test_crash_recoveries_replayed_journals(self, report):
        crashed = [r for r in report.records if r.crashes > 0]
        assert crashed, "no seed exercised a shard crash recovery"
        assert all(r.journal_replayed > 0 for r in crashed)

    def test_artifacts_duck_compatible(self, report, tmp_path):
        paths = dump_chaos_artifacts(report, str(tmp_path / "artifacts"))
        assert any(p.endswith("chaos_report.json") for p in paths)
        assert len(paths) >= 1 + self.N_SEEDS

    def test_render_mentions_every_seed(self, report):
        rendered = report.render()
        for record in report.records:
            assert f"{record.seed:>5}" in rendered


# ---------------------------------------------------------------------------
# Targeted failover latency and share zeroing
# ---------------------------------------------------------------------------


class TestFailoverLatency:
    CRASH_AT = 80.0

    @pytest.fixture(scope="class")
    def report(self, group, tmp_path_factory):
        schedule = FaultSchedule(
            [
                FaultSpec(
                    "shard-crash",
                    self.CRASH_AT,
                    self.CRASH_AT,
                    {"shard": 1, "restore_delay": 70.0},
                )
            ],
            seed=3,
        )
        return run_sharded_closed_loop(
            group,
            RateTrace.constant(RATE),
            _config(tmp_path_factory.mktemp("failover")),
            ShardConfig(shards=3),
            horizon=400.0,
            seed=3,
            rebalance_period=50.0,
            fault_plan=FaultPlan(schedule),
            supervisor_config=_supervisor_config(),
            collect_tasks=False,
        )

    def test_detected_within_heartbeat_bound(self, report):
        supervisor = report.supervisor
        assert len(supervisor.failovers) == 1
        when, shard = supervisor.failovers[0]
        assert shard == 1
        assert when - self.CRASH_AT <= DETECTION_BOUND + 1e-9

    def test_spliced_back_and_resolved(self, report):
        supervisor = report.supervisor
        assert len(supervisor.restore_log) == 1
        when, shard = supervisor.restore_log[0]
        assert shard == 1 and when == pytest.approx(self.CRASH_AT + 70.0)
        assert supervisor.live.all()
        # The mid-run recovery replayed the shard's own journal.
        assert len(report.restores) == 1
        assert report.restores[0].replayed_records > 0
        # Healed fleet: shares re-solved over all three shards again.
        shares = np.asarray(report.shard_shares)
        assert (shares > 0.0).all()
        assert shares.sum() == pytest.approx(1.0)

    def test_fleet_metrics_and_incidents(self, report):
        metrics = report.supervisor.metrics
        assert metrics.counters.failovers == 1
        assert metrics.counters.restores == 1
        assert metrics.degraded == 0
        counts = dict(metrics.incidents.counts)
        assert counts["shard-crash"] == 1
        assert counts["shard-dead"] == 1
        assert counts["shard-restored"] == 1
        assert metrics.rebalance_latency.count > 0

    def test_dead_window_shed_is_counted(self, report):
        # Between the kill and the dead declaration the split still
        # pointed at shard 1; those arrivals were shed and counted.
        assert report.dispatcher.failover_shed > 0


class TestHeartbeatDetector:
    """Unit-level detector semantics against a hand-driven dispatcher."""

    def _fleet(self, group):
        plan = partition_group(group, ShardConfig(shards=2))
        from repro.runtime.loop import LoadDistributionRuntime

        runtimes = [
            LoadDistributionRuntime(s.group, 5.0, _config()) for s in plan.shards
        ]
        bootstrap = solve_sharded(group, 10.0, plan=plan)
        dispatcher = ShardedDispatcher(
            plan,
            runtimes,
            np.array([0.5, 0.5]),
            np.random.default_rng(0),
            bootstrap.phi * 10.0,
        )
        supervisor = ShardSupervisor(dispatcher, _supervisor_config())
        return dispatcher, supervisor

    def test_silent_shard_with_share_is_declared_dead(self, group):
        dispatcher, supervisor = self._fleet(group)
        dispatcher.kill_shard(0)
        # Keep shard 1 visibly alive across the sweep.
        dispatcher.completions_by_shard[1] += 7
        supervisor.heartbeat(HEARTBEAT)
        assert not supervisor.live[0] and supervisor.live[1]
        # Share zeroing is synchronous with the declaration.
        assert dispatcher.shares[0] == 0.0
        assert dispatcher.shares[1] == pytest.approx(1.0)
        assert supervisor.metrics.counters.failovers == 1

    def test_min_share_shard_is_exempt(self, group):
        dispatcher, supervisor = self._fleet(group)
        dispatcher.set_shares(np.array([1e-9, 1.0]))
        dispatcher.kill_shard(0)
        dispatcher.completions_by_shard[1] += 7
        supervisor.heartbeat(HEARTBEAT)
        # Starved-by-design shards are never suspected.
        assert supervisor.live[0]
        assert supervisor.metrics.counters.failovers == 0

    def test_misses_accumulate_before_declaration(self, group):
        dispatcher, supervisor = self._fleet(group)
        supervisor = ShardSupervisor(
            dispatcher, _supervisor_config(heartbeat_misses=2)
        )
        dispatcher.kill_shard(0)
        dispatcher.completions_by_shard[1] += 7
        supervisor.heartbeat(HEARTBEAT)
        assert supervisor.live[0]  # one silent interval is suspicion only
        dispatcher.completions_by_shard[1] += 7
        supervisor.heartbeat(2 * HEARTBEAT)
        assert not supervisor.live[0]

    def test_progress_resets_suspicion(self, group):
        dispatcher, supervisor = self._fleet(group)
        supervisor = ShardSupervisor(
            dispatcher, _supervisor_config(heartbeat_misses=2)
        )
        dispatcher.completions_by_shard[1] += 7
        supervisor.heartbeat(HEARTBEAT)  # shard 0 silent: suspicion 1
        dispatcher.completions_by_shard[0] += 1
        dispatcher.completions_by_shard[1] += 7
        supervisor.heartbeat(2 * HEARTBEAT)  # progress: reset
        dispatcher.completions_by_shard[1] += 7
        supervisor.heartbeat(3 * HEARTBEAT)  # silent again: suspicion 1
        assert supervisor.live[0]

    def test_tick_with_every_shard_dead_counts_a_failure(self, group):
        # Fleet dark: the live capacity, and so the target rate, is
        # zero.  A periodic tick must count a failed rebalance and keep
        # the fleet shedding, not raise out of the loop.
        dispatcher, supervisor = self._fleet(group)
        dispatcher.kill_shard(0)
        dispatcher.kill_shard(1)
        supervisor.heartbeat(HEARTBEAT)
        assert not supervisor.live.any()
        counters = supervisor.metrics.counters
        failures = counters.rebalance_failures
        assert supervisor.tick(2 * HEARTBEAT) is False
        assert counters.rebalance_failures > failures
        dispatcher.observe_arrival(2 * HEARTBEAT)
        assert dispatcher.route() == -1
        assert dispatcher.failover_shed == 1


# ---------------------------------------------------------------------------
# Bit-exact crash equivalence at shard scope
# ---------------------------------------------------------------------------


class TestShardCrashBitExact:
    HORIZON = 300.0

    def _run(self, group, tmp_path, schedule):
        plan = FaultPlan(schedule) if schedule is not None else None
        return run_sharded_closed_loop(
            group,
            RateTrace.constant(RATE),
            _config(tmp_path),
            ShardConfig(shards=3),
            horizon=self.HORIZON,
            seed=7,
            rebalance_period=50.0,
            fault_plan=plan,
            supervisor_config=_supervisor_config(),
            collect_tasks=True,
        )

    def _point_crash(self, kind):
        return FaultSchedule(
            [FaultSpec(kind, 130.0, 130.0, {"shard": 2, "restore_delay": 0.0})],
            seed=7,
        )

    def test_atomic_crash_restore_is_bit_exact(self, group, tmp_path):
        baseline = self._run(group, tmp_path / "base", None)
        crashed = self._run(
            group, tmp_path / "crash", self._point_crash("shard-crash")
        )
        # Restored mid-run from its own journal, the shard replays its
        # control decisions bit-exactly: the whole-run routed task log
        # and the final control state match the unfaulted baseline.
        assert _generic_log(crashed) == _generic_log(baseline)
        assert crashed.shard_shares == baseline.shard_shares
        for a, b in zip(baseline.runtimes, crashed.runtimes):
            np.testing.assert_array_equal(a.current_weights, b.current_weights)
            assert len(a.resolve_log) == len(b.resolve_log)
        assert len(crashed.restores) == 1
        assert crashed.restores[0].replayed_records > 0
        assert crashed.restores[0].divergences == 0
        # The kill+restore was atomic: the detector never fired.
        assert crashed.supervisor.failovers == []

    def test_torn_journal_tail_is_truncated_not_fatal(self, group, tmp_path):
        baseline = self._run(group, tmp_path / "base", None)
        corrupted = self._run(
            group, tmp_path / "corrupt", self._point_crash("shard-journal-corrupt")
        )
        assert _generic_log(corrupted) == _generic_log(baseline)
        assert len(corrupted.restores) == 1
        # The garbage line appended after the kill — and only it — was
        # dropped by the CRC scan; every flushed record stayed trusted.
        assert corrupted.restores[0].dropped_lines >= 1
        assert corrupted.restores[0].divergences == 0

    def test_restore_report_serializes(self, group, tmp_path):
        crashed = self._run(
            group, tmp_path / "crash", self._point_crash("shard-crash")
        )
        payload = crashed.restores[0].to_dict()
        assert payload["replayed_records"] > 0
        assert os.path.basename(os.path.dirname(payload["checkpoint_path"])).startswith(
            "shard-"
        )


# ---------------------------------------------------------------------------
# Stall windows
# ---------------------------------------------------------------------------


class TestShardStall:
    def test_long_stall_fails_over_then_splices(self, group):
        schedule = FaultSchedule(
            [FaultSpec("shard-stall", 80.0, 180.0, {"shard": 0})], seed=11
        )
        report = run_sharded_closed_loop(
            group,
            RateTrace.constant(RATE),
            _config(),
            ShardConfig(shards=3),
            horizon=320.0,
            seed=11,
            rebalance_period=50.0,
            fault_plan=FaultPlan(schedule),
            supervisor_config=_supervisor_config(),
            collect_tasks=False,
        )
        supervisor = report.supervisor
        assert len(supervisor.failovers) == 1
        when, shard = supervisor.failovers[0]
        assert shard == 0 and when - 80.0 <= DETECTION_BOUND + 1e-9
        assert supervisor.restore_log == [(180.0, 0)]
        assert supervisor.live.all()
        # A stall keeps its state: no journal replay happened.
        assert report.restores == ()

    def test_short_stall_stays_undetected(self, group):
        # Shorter than one heartbeat interval: the detector never fires
        # and the splice-back leaves the shares untouched.
        schedule = FaultSchedule(
            [FaultSpec("shard-stall", 85.0, 95.0, {"shard": 0})], seed=11
        )
        report = run_sharded_closed_loop(
            group,
            RateTrace.constant(RATE),
            _config(),
            ShardConfig(shards=3),
            horizon=200.0,
            seed=11,
            rebalance_period=50.0,
            fault_plan=FaultPlan(schedule),
            supervisor_config=_supervisor_config(),
            collect_tasks=False,
        )
        assert report.supervisor.failovers == []
        assert report.supervisor.metrics.counters.restores == 1


# ---------------------------------------------------------------------------
# Coordinator solver faults: retries, backoff, circuit breaker
# ---------------------------------------------------------------------------


class TestCoordinatorBreaker:
    @pytest.fixture(scope="class")
    def report(self, group):
        schedule = FaultSchedule(
            [FaultSpec("solver-error", 60.0, 260.0, {"methods": ("sharded",)})],
            seed=13,
        )
        return run_sharded_closed_loop(
            group,
            RateTrace.constant(RATE),
            _config(),
            ShardConfig(shards=3),
            horizon=500.0,
            seed=13,
            rebalance_period=30.0,
            fault_plan=FaultPlan(schedule),
            supervisor_config=_supervisor_config(
                retries=0, backoff=10.0, breaker_threshold=2, breaker_cooldown=80.0
            ),
            collect_tasks=False,
        )

    def test_faulted_window_degrades_not_dies(self, report):
        counters = report.supervisor.metrics.counters
        assert counters.rebalance_failures > 0
        assert counters.rebalance_skipped > 0
        assert counters.rebalance_successes > 0  # before and after the window
        shares = np.asarray(report.shard_shares)
        assert shares.sum() == pytest.approx(1.0)

    def test_breaker_opens_and_half_open_probe_closes_it(self, report):
        counters = report.supervisor.metrics.counters
        assert counters.breaker_opens >= 1
        assert counters.breaker_closes >= 1
        assert not report.supervisor.breaker_open
        counts = dict(report.supervisor.metrics.incidents.counts)
        assert counts["coordinator-breaker-open"] >= 1
        assert counts["coordinator-breaker-close"] >= 1

    def test_retries_consume_attempts_before_failing(self, group):
        schedule = FaultSchedule(
            [FaultSpec("solver-error", 60.0, 120.0, {"methods": ("sharded",)})],
            seed=17,
        )
        report = run_sharded_closed_loop(
            group,
            RateTrace.constant(RATE),
            _config(),
            ShardConfig(shards=3),
            horizon=200.0,
            seed=17,
            rebalance_period=30.0,
            fault_plan=FaultPlan(schedule),
            supervisor_config=_supervisor_config(retries=2, backoff=0.0),
            collect_tasks=False,
        )
        assert report.supervisor.metrics.counters.rebalance_retries > 0


# ---------------------------------------------------------------------------
# Harness validation
# ---------------------------------------------------------------------------


class TestHarnessValidation:
    def test_plain_crash_rejected(self, group):
        schedule = FaultSchedule([FaultSpec("crash", 50.0, 50.0)], seed=1)
        with pytest.raises(ParameterError, match="shard-crash"):
            run_sharded_closed_loop(
                group,
                RateTrace.constant(RATE),
                _config(),
                ShardConfig(shards=3),
                horizon=100.0,
                fault_plan=FaultPlan(schedule),
            )

    def test_out_of_range_shard_rejected(self, group):
        schedule = FaultSchedule(
            [FaultSpec("shard-stall", 50.0, 60.0, {"shard": 9})], seed=1
        )
        with pytest.raises(ParameterError, match="targets shard 9"):
            run_sharded_closed_loop(
                group,
                RateTrace.constant(RATE),
                _config(),
                ShardConfig(shards=3),
                horizon=100.0,
                fault_plan=FaultPlan(schedule),
            )

    def test_crash_without_recovery_rejected(self, group):
        schedule = FaultSchedule(
            [FaultSpec("shard-crash", 50.0, 50.0, {"shard": 0, "restore_delay": 0.0})],
            seed=1,
        )
        with pytest.raises(ParameterError, match="recovery"):
            run_sharded_closed_loop(
                group,
                RateTrace.constant(RATE),
                _config(),  # recovery disabled
                ShardConfig(shards=3),
                horizon=100.0,
                fault_plan=FaultPlan(schedule),
            )

    def test_shard_spec_param_validation(self):
        with pytest.raises(ParameterError):
            FaultSpec("shard-crash", 10.0, 10.0, {})  # no shard index
        with pytest.raises(ParameterError):
            FaultSpec("shard-crash", 10.0, 10.0, {"shard": -1})
        with pytest.raises(ParameterError):
            FaultSpec(
                "shard-crash", 10.0, 10.0, {"shard": 0, "restore_delay": -5.0}
            )

    def test_unsupervised_runs_reject_nothing_new(self, group):
        # No fault plan, no supervisor: the legacy entry path still
        # works and carries no supervisor on the report.
        report = run_sharded_closed_loop(
            group,
            RateTrace.constant(RATE),
            _config(),
            ShardConfig(shards=3),
            horizon=120.0,
            seed=2,
            rebalance_period=40.0,
            collect_tasks=False,
        )
        assert report.supervisor is None
        assert report.restores == ()
