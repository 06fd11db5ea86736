"""Durability and crash-recovery suite.

Covers the three layers of :mod:`repro.recovery`:

* the write-ahead journal — CRC framing, torn-tail amputation,
  sequence-gap truncation, atomic artifact writes;
* versioned checkpoints — cadence, pruning, schema guards, lossless
  codec round trip;
* deterministic resume — ``restore_runtime`` rebuilds the control
  plane from disk, and a crash mid-simulation is *equivalence-tested*
  against an uncrashed baseline over many seeds: same routed-task
  sequence, same resolve log, same counters, zero replay divergences.

Set ``CHAOS_LOG_DIR`` to archive one seed's journal + checkpoints (the
CI crash-recovery leg does, and uploads them as build artifacts).
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil

import numpy as np
import pytest

from repro.core.exceptions import ParameterError, RecoveryError
from repro.core.server import BladeServerGroup
from repro.faults.injectors import FaultPlan
from repro.faults.schedule import FaultSchedule, FaultSpec
from repro.recovery import (
    JOURNAL_NAME,
    SCHEMA_VERSION,
    CheckpointCodec,
    JournalWriter,
    RecoveryConfig,
    atomic_write_json,
    atomic_write_text,
    list_checkpoints,
    read_journal,
)
from repro.recovery.checkpoint import checkpoint_path
from repro.recovery.resume import load_latest_checkpoint, restore_runtime
from repro.runtime.loop import (
    LoadDistributionRuntime,
    RuntimeConfig,
    run_closed_loop,
)
from repro.runtime.policies import RoutingConfig
from repro.sim.task import TaskClass
from repro.workloads.traces import RateTrace

HORIZON = 400.0
RATE = 2.0


@pytest.fixture(scope="module")
def group():
    return BladeServerGroup.from_arrays(
        sizes=[2, 3], speeds=[1.0, 1.5], special_rates=[0.2, 0.3], rbar=1.0
    )


def _config(directory: str, **overrides) -> RuntimeConfig:
    recovery = RecoveryConfig(
        enabled=True,
        directory=directory,
        checkpoint_every=overrides.pop("checkpoint_every", 4),
        keep_checkpoints=overrides.pop("keep_checkpoints", 3),
    )
    return RuntimeConfig(recovery=recovery, **overrides)


def _crash_plan(t: float, seed: int) -> FaultPlan:
    return FaultPlan(FaultSchedule([FaultSpec("crash", t, t)], seed=seed))


def _run(group, directory: str | None, *, seed: int, crash_at: float | None = None):
    config = _config(directory) if directory else RuntimeConfig()
    plan = _crash_plan(crash_at, seed=seed) if crash_at is not None else None
    return run_closed_loop(
        group,
        RateTrace.constant(RATE),
        config,
        horizon=HORIZON,
        seed=seed,
        fault_plan=plan,
        collect_tasks=True,
    )


def _generic_tasks(result):
    return [
        (t.arrival_time, t.server_index)
        for t in result.sim.task_log
        if t.task_class is TaskClass.GENERIC
    ]


# ---------------------------------------------------------------------------
# Write-ahead journal
# ---------------------------------------------------------------------------


class TestJournal:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / JOURNAL_NAME)
        with JournalWriter(path) as writer:
            for i in range(5):
                writer.append(float(i), "route", {"dest": i % 2})
        scan = read_journal(path)
        assert len(scan.records) == 5
        assert scan.dropped_lines == 0
        assert scan.last_seq == 4
        assert [r.data["dest"] for r in scan.records] == [0, 1, 0, 1, 0]
        assert scan.valid_bytes == os.path.getsize(path)

    def test_missing_file_scans_empty(self, tmp_path):
        scan = read_journal(str(tmp_path / "nope.jsonl"))
        assert scan.records == () and scan.last_seq == -1

    def test_torn_tail_without_newline_is_dropped(self, tmp_path):
        path = str(tmp_path / JOURNAL_NAME)
        with JournalWriter(path) as writer:
            writer.append(0.0, "route", {"dest": 0})
            writer.append(1.0, "route", {"dest": 1})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"seq": 2, "t": 2.0, "kind": "rou')  # torn mid-append
        scan = read_journal(path)
        assert len(scan.records) == 2
        assert scan.dropped_lines == 1
        # Truncating at valid_bytes amputates the torn tail exactly.
        with open(path, "rb") as fh:
            assert fh.read(scan.valid_bytes).endswith(b"\n")

    def test_crc_corruption_truncates_trusted_prefix(self, tmp_path):
        path = str(tmp_path / JOURNAL_NAME)
        with JournalWriter(path) as writer:
            for i in range(4):
                writer.append(float(i), "route", {"dest": i})
        lines = open(path, encoding="utf-8").read().splitlines()
        corrupt = json.loads(lines[2])
        corrupt["data"]["dest"] = 99  # payload no longer matches crc
        lines[2] = json.dumps(corrupt, separators=(",", ":"))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        scan = read_journal(path)
        assert [r.seq for r in scan.records] == [0, 1]
        assert scan.dropped_lines == 2  # the corrupt line and everything after

    def test_sequence_gap_truncates(self, tmp_path):
        path = str(tmp_path / JOURNAL_NAME)
        with JournalWriter(path) as writer:
            writer.append(0.0, "route", {"dest": 0})
        with JournalWriter(
            str(tmp_path / "other.jsonl"), start_seq=5
        ) as other:
            record = other.append(5.0, "route", {"dest": 1})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(record.to_line() + "\n")  # valid CRC, wrong seq
        scan = read_journal(path)
        assert [r.seq for r in scan.records] == [0]
        assert scan.dropped_lines == 1

    def test_garbage_lines_do_not_raise(self, tmp_path):
        path = str(tmp_path / JOURNAL_NAME)
        with JournalWriter(path) as writer:
            writer.append(0.0, "health", {"server": 1, "kind": "down"})
        with open(path, "ab") as fh:
            fh.write(b"\xff\xfenot json at all\n[1, 2, 3]\n")
        scan = read_journal(path)
        assert len(scan.records) == 1
        assert scan.dropped_lines == 2

    def test_append_after_close_raises(self, tmp_path):
        writer = JournalWriter(str(tmp_path / JOURNAL_NAME))
        writer.close()
        with pytest.raises(RecoveryError):
            writer.append(0.0, "route", {"dest": 0})

    def test_resume_truncates_then_appends(self, tmp_path):
        path = str(tmp_path / JOURNAL_NAME)
        with JournalWriter(path) as writer:
            writer.append(0.0, "route", {"dest": 0})
            writer.append(1.0, "route", {"dest": 1})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("garbage tail")
        scan = read_journal(path)
        with JournalWriter(
            path, start_seq=scan.last_seq + 1, truncate_at=scan.valid_bytes
        ) as writer:
            writer.append(2.0, "route", {"dest": 0})
        scan = read_journal(path)
        assert [r.seq for r in scan.records] == [0, 1, 2]
        assert scan.dropped_lines == 0


class TestAtomicWrites:
    def test_atomic_json_round_trip(self, tmp_path):
        path = str(tmp_path / "artifact.json")
        atomic_write_json(path, {"b": 1, "a": [1.5, None]}, sort_keys=True)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        assert json.loads(text) == {"a": [1.5, None], "b": 1}
        assert text.index('"a"') < text.index('"b"')

    def test_atomic_text_replaces_not_appends(self, tmp_path):
        path = str(tmp_path / "artifact.txt")
        atomic_write_text(path, "first")
        atomic_write_text(path, "second")
        assert open(path, encoding="utf-8").read() == "second"
        # No temp litter left behind.
        assert os.listdir(tmp_path) == ["artifact.txt"]


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


class TestCheckpoints:
    def test_recovery_config_validation(self):
        with pytest.raises(ParameterError):
            RecoveryConfig(checkpoint_every=0)
        with pytest.raises(ParameterError):
            RecoveryConfig(keep_checkpoints=0)

    def test_journaling_run_writes_checkpoints_and_journal(self, tmp_path, group):
        d = str(tmp_path / "rec")
        out = _run(group, d, seed=7)
        assert os.path.exists(os.path.join(d, JOURNAL_NAME))
        found = list_checkpoints(d)
        assert found, "no checkpoints written"
        scan = read_journal(os.path.join(d, JOURNAL_NAME))
        assert scan.dropped_lines == 0
        kinds = {r.kind for r in scan.records}
        assert "route" in kinds and "resolve" in kinds
        assert out.runtime.metrics.counters.routed > 0

    def test_pruning_keeps_newest_generations(self, tmp_path, group):
        d = str(tmp_path / "rec")
        # Periodic resolves guarantee a steady decision cadence, so many
        # checkpoint generations are written and the old ones pruned.
        config = _config(
            d, checkpoint_every=1, keep_checkpoints=2, resolve_period=40.0
        )
        run_closed_loop(
            group, RateTrace.constant(RATE), config, horizon=HORIZON, seed=3
        )
        found = list_checkpoints(d)
        assert len(found) == 2
        generations = [gen for gen, _ in found]
        assert generations == sorted(generations)
        assert generations[-1] > 2  # earlier generations were pruned away

    def test_codec_round_trip_is_lossless(self, tmp_path, group):
        d = str(tmp_path / "rec")
        _run(group, d, seed=11)
        _, path = list_checkpoints(d)[-1]
        snapshot = json.load(open(path, encoding="utf-8"))
        config = _config(d)
        runtime = LoadDistributionRuntime(
            group, RATE, config, _restore=True
        )
        codec = CheckpointCodec()
        codec.restore(runtime, snapshot, path=path)
        re_encoded = codec.encode(runtime, snapshot["journal_seq"])
        # JSON round trip normalizes tuples to lists before comparing.
        assert json.loads(json.dumps(re_encoded)) == snapshot

    def test_response_histogram_restores_exactly(self, tmp_path, group):
        d = str(tmp_path / "rec")
        _run(group, d, seed=11)
        _, path = list_checkpoints(d)[-1]
        snapshot = json.load(open(path, encoding="utf-8"))
        assert "response_histogram" not in snapshot["metrics"]
        (family,) = [
            f
            for f in snapshot["metrics"]["registry"]
            if f["name"] == "runtime_response_time"
        ]
        (series,) = family["series"]
        runtime = LoadDistributionRuntime(group, RATE, _config(d), _restore=True)
        CheckpointCodec().restore(runtime, snapshot, path=path)
        hist = runtime.metrics.response_histogram
        assert hist.count == series["count"] == runtime.metrics.response_time.count
        assert hist.count > 0
        assert hist.sum == series["sum"]
        assert list(hist.bucket_counts) == series["buckets"]

    def test_v3_checkpoint_is_refused(self, tmp_path, group):
        d = str(tmp_path / "rec")
        _run(group, d, seed=2)
        _, path = list_checkpoints(d)[-1]
        snapshot = json.load(open(path, encoding="utf-8"))
        snapshot["schema"] = 3
        atomic_write_json(path, snapshot)
        with pytest.raises(RecoveryError, match="schema 3"):
            load_latest_checkpoint(d)
        runtime = LoadDistributionRuntime(group, RATE, _config(d), _restore=True)
        with pytest.raises(RecoveryError, match="schema 3"):
            CheckpointCodec().restore(runtime, snapshot, path=path)

    def test_corrupt_latest_checkpoint_falls_back_to_older(self, tmp_path, group):
        d = str(tmp_path / "rec")
        config = _config(d, checkpoint_every=2, keep_checkpoints=4)
        run_closed_loop(
            group, RateTrace.constant(RATE), config, horizon=HORIZON, seed=5
        )
        found = list_checkpoints(d)
        assert len(found) >= 2
        newest_gen, newest_path = found[-1]
        with open(newest_path, "w", encoding="utf-8") as fh:
            fh.write('{"schema": ')  # torn write
        generation, path, snapshot, skipped = load_latest_checkpoint(d)
        assert generation == found[-2][0]
        assert skipped == 1
        assert snapshot["schema"] == SCHEMA_VERSION

    def test_future_schema_version_raises_recovery_error(self, tmp_path):
        d = str(tmp_path / "rec")
        atomic_write_json(
            checkpoint_path(d, 0), {"schema": SCHEMA_VERSION + 1}
        )
        with pytest.raises(RecoveryError):
            load_latest_checkpoint(d)

    def test_no_checkpoints_raises_recovery_error(self, tmp_path):
        with pytest.raises(RecoveryError):
            load_latest_checkpoint(str(tmp_path / "empty"))

    def test_crash_fault_without_recovery_enabled_is_rejected(self, group):
        with pytest.raises(ParameterError, match="recovery"):
            run_closed_loop(
                group,
                RateTrace.constant(RATE),
                RuntimeConfig(),
                horizon=HORIZON,
                seed=0,
                fault_plan=_crash_plan(100.0, seed=0),
            )


# ---------------------------------------------------------------------------
# Deterministic crash recovery
# ---------------------------------------------------------------------------


CRASH_SEEDS = list(range(10))


class TestCrashEquivalence:
    """A crash + restore mid-run must be invisible in every decision."""

    @pytest.mark.parametrize("seed", CRASH_SEEDS)
    def test_crashed_run_matches_uncrashed_baseline(self, tmp_path, group, seed):
        crash_at = 80.0 + 24.0 * seed  # spread crashes across the horizon
        baseline = _run(group, None, seed=seed)
        crashed = _run(group, str(tmp_path / "rec"), seed=seed, crash_at=crash_at)

        assert len(crashed.restores) == 1
        report = crashed.restores[0]
        assert report.divergences == 0
        assert report.dropped_lines == 0
        assert report.replayed_records >= 0

        assert _generic_tasks(baseline) == _generic_tasks(crashed)
        assert baseline.runtime.resolve_log == crashed.runtime.resolve_log
        counters_a = dataclasses.asdict(baseline.metrics.counters)
        counters_b = dataclasses.asdict(crashed.metrics.counters)
        assert counters_a == counters_b

        if seed == CRASH_SEEDS[0]:
            log_dir = os.environ.get("CHAOS_LOG_DIR")
            if log_dir:  # archive one seed's evidence for the CI artifact
                dest = os.path.join(log_dir, "crash-recovery")
                os.makedirs(dest, exist_ok=True)
                for name in os.listdir(tmp_path / "rec"):
                    shutil.copy(os.path.join(tmp_path / "rec", name), dest)

    @pytest.mark.parametrize("policy", ["pod", "jiq"])
    @pytest.mark.parametrize("seed", [0, 3, 6])
    def test_state_aware_policy_crash_equivalence(self, tmp_path, group, seed, policy):
        """Crash mid-run under a state-aware policy replays to the
        identical routed-task sequence: queue-depth state reconstructed
        from the checkpoint's in-flight vector plus the journaled
        completion records."""
        routing = RoutingConfig(policy=policy, d=2)
        crash_at = 90.0 + 40.0 * seed

        def run(directory, crash):
            config = (
                _config(directory, routing=routing)
                if directory
                else RuntimeConfig(routing=routing)
            )
            plan = _crash_plan(crash, seed=seed) if crash is not None else None
            return run_closed_loop(
                group,
                RateTrace.constant(RATE),
                config,
                horizon=HORIZON,
                seed=seed,
                fault_plan=plan,
                collect_tasks=True,
            )

        baseline = run(None, None)
        crashed = run(str(tmp_path / "rec"), crash_at)

        assert len(crashed.restores) == 1
        report = crashed.restores[0]
        assert report.divergences == 0
        # The journal tail must actually contain completion records —
        # otherwise this test is not exercising queue-state replay.
        scan = read_journal(os.path.join(str(tmp_path / "rec"), JOURNAL_NAME))
        assert any(r.kind == "complete" for r in scan.records)

        assert _generic_tasks(baseline) == _generic_tasks(crashed)
        assert baseline.runtime.resolve_log == crashed.runtime.resolve_log
        assert dataclasses.asdict(baseline.metrics.counters) == dataclasses.asdict(
            crashed.metrics.counters
        )

    def test_static_policy_journals_no_completions(self, tmp_path, group):
        """Static-policy journals stay byte-compatible with the PR 5
        layout: no "complete" records are ever written."""
        d = str(tmp_path / "rec")
        _run(group, d, seed=2)
        scan = read_journal(os.path.join(d, JOURNAL_NAME))
        assert scan.records and not any(r.kind == "complete" for r in scan.records)

    def test_restore_survives_torn_journal_tail(self, tmp_path, group):
        d = str(tmp_path / "rec")
        _run(group, d, seed=13)
        journal = os.path.join(d, JOURNAL_NAME)
        # Roll back to the *bootstrap* checkpoint so the journal tail is
        # non-trivial, then tear the tail: a half-appended record plus
        # binary garbage.  Restore must drop both, not raise.
        for gen, path in list_checkpoints(d)[1:]:
            os.remove(path)
        with open(journal, "ab") as fh:
            fh.write(b'{"seq": 999999, "t": 1.0, "kind"')
        runtime, report = restore_runtime(group, _config(d), initial_rate=RATE)
        assert report.dropped_lines == 1
        assert report.replayed_records > 0
        assert report.divergences == 0
        assert runtime.metrics.counters.routed > 0
        runtime._recovery.abandon()

    def test_restore_report_fields(self, tmp_path, group):
        d = str(tmp_path / "rec")
        out = _run(group, d, seed=21, crash_at=200.0)
        report = out.restores[0]
        assert report.checkpoint_path.startswith(d)
        assert report.generation >= 0
        assert report.checkpoint_seq >= -1  # -1 == the bootstrap checkpoint
        assert report.duration >= 0.0
        assert report.skipped_checkpoints == 0

    def test_chaos_harness_runs_crash_faults(self, group):
        from repro.faults import run_chaos

        rep = run_chaos(
            group,
            RATE,
            seeds=range(4),
            horizon=800.0,
            allow_crash=True,
        )
        assert rep.all_completed
        assert rep.total_watchdog_violations == 0
        # allow_crash draws a crash for every seeded plan, so at least
        # one run must actually have died and recovered.
        assert rep.total_crashes >= 1
        crashed = [r for r in rep.records if r.crashes]
        assert all(r.journal_replayed >= 0 for r in crashed)


# ---------------------------------------------------------------------------
# Admission-control crash equivalence (overload-survival layer)
# ---------------------------------------------------------------------------


class TestAdmissionCrashEquivalence:
    """A crash during an overload burst — admission shedding active,
    retries mid-backoff in flight — must replay to the identical
    routed-task sequence.  The admission controller is deterministic,
    so the journal's ``(cls, att)``-stamped routes plus ``rt``-stamped
    completions reconstruct its exact state."""

    @pytest.mark.parametrize("policy", ["pod", "swrr"])
    @pytest.mark.parametrize("seed", [1, 4])
    def test_crash_mid_burst_matches_baseline(self, tmp_path, group, seed, policy):
        from repro.runtime.admission import AdmissionConfig
        from repro.sim.arrivals import ClientWorkload, RetryPolicy

        rate = 0.7 * group.max_generic_rate
        trace = RateTrace.burst(rate, at=80.0, factor=2.0, duration=120.0)
        workload = ClientWorkload(
            class_shares=(0.3, 0.3, 0.4),
            retry=RetryPolicy(
                budget=3, timeout=6.0, base_backoff=3.0, max_backoff=30.0
            ),
        )
        admission = AdmissionConfig(
            classes=3, target_delay=3.0, interval=12.0, sojourn_tc=15.0
        )
        routing = RoutingConfig(policy=policy, d=2)
        crash_at = 120.0 + 30.0 * seed  # inside or just after the burst

        def run(directory, crash):
            config = (
                _config(directory, routing=routing, admission=admission)
                if directory
                else RuntimeConfig(routing=routing, admission=admission)
            )
            plan = _crash_plan(crash, seed=seed) if crash is not None else None
            return run_closed_loop(
                group,
                trace,
                config,
                horizon=HORIZON,
                seed=seed,
                fault_plan=plan,
                collect_tasks=True,
                workload=workload,
            )

        baseline = run(None, None)
        crashed = run(str(tmp_path / "rec"), crash_at)

        # The scenario must actually have the storm in flight: sheds
        # happened and retries were offered before the crash point.
        assert baseline.sim.generic_shed > 0
        assert baseline.sim.generic_retried > 0

        assert len(crashed.restores) == 1
        report = crashed.restores[0]
        assert report.divergences == 0
        assert report.dropped_lines == 0

        assert _generic_tasks(baseline) == _generic_tasks(crashed)
        assert baseline.runtime.resolve_log == crashed.runtime.resolve_log
        assert dataclasses.asdict(baseline.metrics.counters) == dataclasses.asdict(
            crashed.metrics.counters
        )
        # Admission ledgers and brownout state restore bit-exactly too.
        assert (
            baseline.runtime._admission.state_dict()
            == crashed.runtime._admission.state_dict()
        )
        assert (
            baseline.metrics.admission.decisions
            == crashed.metrics.admission.decisions
        )

        # The journal speaks the stamped schema: routes carry the offer
        # class/attempt, completions the response time the AQM consumed.
        scan = read_journal(os.path.join(str(tmp_path / "rec"), JOURNAL_NAME))
        routes = [r for r in scan.records if r.kind == "route"]
        completes = [r for r in scan.records if r.kind == "complete"]
        assert routes and all("cls" in r.data for r in routes)
        assert any(r.data.get("att", 0) > 0 for r in routes)  # retries in flight
        assert completes and all("rt" in r.data for r in completes)

    def test_admission_snapshot_round_trips_through_checkpoint(
        self, tmp_path, group
    ):
        from repro.runtime.admission import AdmissionConfig
        from repro.sim.arrivals import ClientWorkload, RetryPolicy

        d = str(tmp_path / "rec")
        config = _config(d, admission=AdmissionConfig())
        run_closed_loop(
            group,
            RateTrace.constant(RATE),
            config,
            horizon=HORIZON,
            seed=6,
            workload=ClientWorkload(
                class_shares=(0.5, 0.5), retry=RetryPolicy(budget=1)
            ),
        )
        _, path = list_checkpoints(d)[-1]
        snapshot = json.load(open(path, encoding="utf-8"))
        assert snapshot["schema"] == SCHEMA_VERSION
        assert snapshot["admission"] is not None
        assert snapshot["admission"]["state"] in (
            "normal",
            "brownout",
            "shed-all",
        )

    def test_admission_state_without_controller_is_rejected(self, tmp_path, group):
        d = str(tmp_path / "rec")
        _run(group, d, seed=2)
        _, path = list_checkpoints(d)[-1]
        snapshot = json.load(open(path, encoding="utf-8"))
        snapshot["admission"] = {"state": "normal"}
        runtime = LoadDistributionRuntime(group, RATE, _config(d), _restore=True)
        with pytest.raises(RecoveryError, match="admission"):
            CheckpointCodec().restore(runtime, snapshot, path=path)


# ---------------------------------------------------------------------------
# RNG state capture (satellite: bit-exact stream restore)
# ---------------------------------------------------------------------------


class TestRngStateRestore:
    def test_generator_state_round_trip(self):
        from repro.sim.rng import generator_state, set_generator_state

        rng = np.random.default_rng(42)
        rng.random(7)  # advance off the seed point
        state = generator_state(rng)
        expected = rng.random(16).tolist()
        fresh = np.random.default_rng(0)
        set_generator_state(fresh, state)
        assert fresh.random(16).tolist() == expected

    def test_stream_factory_state_round_trip(self):
        from repro.sim.rng import StreamFactory

        factory = StreamFactory(seed=9)
        a = factory.stream("arrivals")
        b = factory.stream("service")
        a.random(5)
        state = factory.state_dict()
        expected = (a.random(8).tolist(), b.random(8).tolist())

        other = StreamFactory(seed=9)
        other.stream("arrivals")
        other.stream("service")
        other.load_state(state)
        got = (
            other.stream("arrivals").random(8).tolist(),
            other.stream("service").random(8).tolist(),
        )
        assert got == expected

    def test_engine_capture_restore_preserves_draws(self, group):
        from repro.core.response import Discipline
        from repro.sim.engine import GroupSimulation, SimulationConfig

        def build():
            config = SimulationConfig(
                total_generic_rate=RATE,
                fractions=(0.5, 0.5),
                discipline=Discipline.FCFS,
                horizon=50.0,
                warmup=0.0,
                seed=17,
            )
            return GroupSimulation(group, config)

        sim = build()
        state = sim.capture_rng_state()
        first = sim.run()
        restored = build()
        restored.restore_rng_state(state)
        second = restored.run()
        assert first.generic_completed == second.generic_completed
        assert first.generic_response_time == second.generic_response_time

    def test_restore_rng_state_validates_stream_count(self, group):
        from repro.core.response import Discipline
        from repro.sim.engine import GroupSimulation, SimulationConfig

        config = SimulationConfig(
            total_generic_rate=RATE,
            fractions=(0.5, 0.5),
            discipline=Discipline.FCFS,
            horizon=10.0,
            warmup=0.0,
            seed=1,
        )
        sim = GroupSimulation(group, config)
        state = sim.capture_rng_state()
        state = {"streams": state["streams"], "special": state["special"][:-1]}
        with pytest.raises(ParameterError):
            sim.restore_rng_state(state)
