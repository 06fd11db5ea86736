"""Chaos acceptance suite: the resilience contract under randomized faults.

Runs the supervised closed loop under ≥20 seeded randomized fault
schedules (solver faults, estimator corruption, health-plane chaos,
correlated outages) and asserts the ISSUE's acceptance criteria:

* no unhandled exception escapes any run;
* the invariant watchdog records zero violations — every split that
  reached a router was safe;
* the routing audit finds zero generic tasks admitted to a server
  inside a delivered down window;
* after the last fault window closes, the measured mean generic
  response time re-converges: the analytic optimum ``T'`` of the healed
  system lies inside the replication confidence interval of the
  per-seed tail means;
* a crafted schedule set demonstrates every fallback rung (primary,
  alternate backend, proportional heuristic, pinned split, shed-all)
  answering at least one decision.

Set ``CHAOS_LOG_DIR`` to archive the full JSON evidence trail (the CI
chaos job does, and uploads it as a build artifact on every run).
Archived runs enable observability, so the span trace (``trace.jsonl``)
and the metrics snapshot (``metrics.json``) ship beside the incident
logs.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.server import BladeServerGroup
from repro.faults import (
    FaultSchedule,
    FaultSpec,
    dump_chaos_artifacts,
    run_chaos,
)
from repro.obs import ObsConfig, configure, get_obs, reset_obs
from repro.runtime import RuntimeConfig

N_SEEDS = int(os.environ.get("CHAOS_SEEDS", "20"))
HORIZON = 2_000.0


@pytest.fixture(scope="module")
def group():
    return BladeServerGroup.from_arrays(
        sizes=[2, 3, 4],
        speeds=[1.0, 1.2, 1.5],
        special_rates=[0.3, 0.4, 0.5],
        rbar=1.0,
    )


@pytest.fixture(scope="module")
def rate(group):
    return 0.55 * group.max_generic_rate


@pytest.fixture(scope="module")
def report(group, rate):
    """The randomized suite, run once and shared by every assertion."""
    log_dir = os.environ.get("CHAOS_LOG_DIR")
    if log_dir:
        # Archived runs carry the full observability trail: span trace
        # (solve/resolve/fallback/route/sim.run) and metrics snapshot
        # land beside the incident logs in the uploaded artifact.
        configure(ObsConfig(enabled=True, trace_capacity=65_536))
    try:
        rep = run_chaos(group, rate, seeds=range(N_SEEDS), horizon=HORIZON)
        if log_dir:
            dump_chaos_artifacts(rep, log_dir)
    finally:
        if log_dir:
            reset_obs()
    return rep


class TestRandomizedChaosSuite:
    def test_suite_covers_at_least_twenty_seeds(self, report):
        assert report.n_runs >= 20 or report.n_runs == N_SEEDS

    def test_no_unhandled_exceptions(self, report):
        assert report.all_completed, (
            f"seeds {report.failed_seeds} raised: "
            + "; ".join(
                r.error or "" for r in report.records if not r.completed
            )
        )

    def test_zero_watchdog_violations(self, report):
        assert report.total_watchdog_violations == 0

    def test_no_task_routed_into_a_down_window(self, report):
        assert report.total_routed_to_down == 0

    def test_post_fault_tail_reconverges_to_analytic_optimum(self, report):
        lo, hi = report.tail_confidence_interval()
        assert report.reconverged(), (
            f"analytic T' = {report.analytic_t_prime:.5f} outside the "
            f"replication CI [{lo:.5f}, {hi:.5f}]\n" + report.render()
        )

    def test_every_tail_window_has_measurements(self, report):
        for r in report.records:
            assert r.tail_count > 0, f"seed {r.seed} measured an empty tail"

    def test_faults_were_actually_injected(self, report):
        # The suite is only evidence of resilience if something actually
        # went wrong: across all seeds some incidents must have fired
        # and some decision must have left the primary path.
        total_incidents = sum(
            sum(r.incident_counts.values()) for r in report.records
        )
        assert total_incidents > 0
        assert any(r.max_fallback_depth > 0 for r in report.records)


class TestEveryFallbackRungExercised:
    """Crafted schedules prove each rung answers real decisions."""

    @pytest.fixture(scope="class")
    def crafted(self, group, rate):
        primary_only = ("kkt", "newton", "closed-form")

        def factory(seed):
            if seed == 0:
                # Primary backends broken, scalar bisection healthy:
                # must exercise the fallback:bisection rung.
                return FaultSchedule(
                    [
                        FaultSpec(
                            "solver-error",
                            100.0,
                            900.0,
                            {"methods": primary_only},
                        )
                    ],
                    seed=seed,
                )
            if seed == 1:
                # Every backend broken long enough to trip the breaker:
                # exercises fallback:proportional AND circuit-pinned.
                return FaultSchedule(
                    [FaultSpec("solver-error", 100.0, 900.0)], seed=seed
                )
            # Full-cluster outage: exercises the shed-all path.
            return FaultSchedule(
                [
                    FaultSpec(
                        "correlated-outage",
                        300.0,
                        500.0,
                        {"servers": tuple(range(group.n))},
                    )
                ],
                seed=seed,
            )

        config = RuntimeConfig(
            router="alias",
            drift_threshold=0.05,
            min_dwell=10.0,
            resolve_period=40.0,
        )
        return run_chaos(
            group,
            rate,
            seeds=range(3),
            horizon=HORIZON,
            config=config,
            schedule_factory=factory,
        )

    def test_all_rungs_answered_decisions(self, crafted):
        assert crafted.all_completed
        expected = {
            "primary",
            "fallback:bisection",
            "fallback:proportional",
            "circuit-pinned",
            "cluster-down",
        }
        assert expected <= set(crafted.sources_used), (
            f"missing rungs: {expected - set(crafted.sources_used)}\n"
            + crafted.render()
        )

    def test_crafted_runs_stay_safe_and_reconverge(self, crafted):
        assert crafted.total_watchdog_violations == 0
        assert crafted.total_routed_to_down == 0
        for r in crafted.records:
            assert r.tail_relative_error < 0.15

    def test_cluster_down_run_shed_and_recovered(self, crafted):
        dark = crafted.records[2]
        assert dark.incident_counts.get("cluster-down", 0) > 0
        assert dark.shed_fraction_observed > 0.0
        assert dark.tail_count > 0  # traffic flows again after recovery


class TestArtifacts:
    def test_dump_writes_valid_json(self, report, tmp_path):
        paths = dump_chaos_artifacts(report, str(tmp_path))
        # Obs-enabled processes (CHAOS_LOG_DIR archive runs) add the
        # span trace and metrics snapshot beside the incident logs.
        extra = 2 if get_obs().enabled else 0
        assert len(paths) == 1 + report.n_runs + extra
        with open(paths[0], encoding="utf-8") as fh:
            summary = json.load(fh)
        assert summary["n_runs"] == report.n_runs
        assert summary["all_completed"] == report.all_completed
        seed0 = json.loads(
            (tmp_path / f"incidents_seed_{report.records[0].seed}.json")
            .read_text(encoding="utf-8")
        )
        assert seed0["seed"] == report.records[0].seed

    def test_schedules_in_report_round_trip(self, report):
        for r in report.records:
            clone = FaultSchedule.from_dict(r.schedule)
            assert clone.to_dict() == r.schedule
