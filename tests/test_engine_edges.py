"""Edge-case tests for the simulation engine's measurement semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exceptions import SimulationError
from repro.core.server import BladeServerGroup
from repro.sim.engine import GroupSimulation, SimulationConfig, simulate_group
from repro.sim.task import TaskClass


def tiny_group():
    return BladeServerGroup.from_arrays([2], [1.0], [0.5])


class TestWarmupSemantics:
    def test_tasks_arriving_before_warmup_excluded(self):
        # Every counted task must have arrived after warmup, so its whole
        # sojourn lies in the measurement window.
        g = tiny_group()
        config = SimulationConfig(
            total_generic_rate=1.0,
            fractions=(1.0,),
            horizon=2_000.0,
            warmup=500.0,
            seed=1,
        )
        res = GroupSimulation(g, config, collect_tasks=True).run()
        assert res.task_log  # something was measured
        assert all(t.arrival_time >= 500.0 for t in res.task_log)
        assert all(t.completion_time >= t.arrival_time for t in res.task_log)

    def test_zero_warmup_counts_from_start(self):
        g = tiny_group()
        res = simulate_group(g, 1.0, [1.0], horizon=1_000.0, warmup=0.0, seed=2)
        assert res.generic_completed > 0

    def test_warmup_keeps_busy_servers_state_bit_for_bit(self):
        # The warm-up falls while every server has busy blades: the
        # integrators restart from the state record_state kept, and the
        # seeded result stays what it was when the engine re-read every
        # server's state at the warm-up boundary.
        g = BladeServerGroup.with_special_fraction(
            sizes=[2, 4, 6, 8], speeds=[1.6, 1.4, 1.2, 1.0], fraction=0.3
        )
        weights = g.spare_capacities / g.spare_capacities.sum()
        config = SimulationConfig(
            total_generic_rate=0.85 * g.max_generic_rate,
            fractions=tuple(float(x) for x in weights),
            horizon=120.0,
            warmup=30.0,
            seed=11,
        )
        busy = []
        controls = [
            (
                30.0,
                lambda sim, now: busy.append([sim._servers[i].busy for i in range(4)]),
            )
        ]
        res = GroupSimulation(g, config, controls=controls).run()
        assert busy == [[2, 3, 2, 8]]
        assert [x.hex() for x in res.utilizations] == [
            "0x1.f6320366640e5p-1",
            "0x1.ccd7c29bafcdcp-1",
            "0x1.db87cc208fb93p-1",
            "0x1.d40f11ed96f55p-1",
        ]
        assert [x.hex() for x in res.mean_in_system] == [
            "0x1.4656a0de8d9d6p+3",
            "0x1.01c5766cdb7c4p+3",
            "0x1.4bb64bd0b8bb7p+3",
            "0x1.1609307c51935p+4",
        ]

    def test_no_completions_in_window_raises(self):
        # A horizon shorter than the first arrival leaves zero samples.
        g = BladeServerGroup.from_arrays([1], [1.0])
        with pytest.raises(SimulationError):
            simulate_group(
                g, 0.001, [1.0], horizon=0.5, warmup=0.0, seed=3
            )


class TestLazyServers:
    def test_engine_builds_only_the_servers_it_touched(self):
        # Servers 1 and 4 get neither generic load nor a special stream.
        g = BladeServerGroup.from_arrays(
            [1, 2, 3, 4, 5], [1.0, 1.1, 1.2, 1.3, 1.4], [0.0, 0.0, 0.3, 0.0, 0.0]
        )
        config = SimulationConfig(
            total_generic_rate=0.8,
            fractions=(0.5, 0.0, 0.0, 0.5, 0.0),
            horizon=400.0,
            warmup=40.0,
            seed=3,
        )
        sim = GroupSimulation(g, config)
        assert len(sim._servers) == 0
        res = sim.run()
        assert sorted(sim._servers) == [0, 2, 3]
        for i, srv in sim._servers.items():
            assert (srv.index, srv.size, srv.speed) == (i, g[i].size, g[i].speed)
        assert res.utilizations[1] == res.utilizations[4] == 0.0


class TestTaskLog:
    def test_disabled_by_default(self):
        g = tiny_group()
        res = simulate_group(g, 1.0, [1.0], horizon=500.0, warmup=50.0, seed=4)
        assert res.task_log == ()

    def test_log_matches_counters(self):
        g = tiny_group()
        config = SimulationConfig(
            total_generic_rate=1.0,
            fractions=(1.0,),
            horizon=1_500.0,
            warmup=100.0,
            seed=5,
        )
        res = GroupSimulation(g, config, collect_tasks=True).run()
        generic = [
            t for t in res.task_log if t.task_class is TaskClass.GENERIC
        ]
        special = [
            t for t in res.task_log if t.task_class is TaskClass.SPECIAL
        ]
        assert len(generic) == res.generic_completed
        assert len(special) == res.special_completed

    def test_log_mean_matches_reported_mean(self):
        g = tiny_group()
        config = SimulationConfig(
            total_generic_rate=1.2,
            fractions=(1.0,),
            horizon=2_000.0,
            warmup=200.0,
            seed=6,
        )
        res = GroupSimulation(g, config, collect_tasks=True).run()
        generic = [
            t.response_time
            for t in res.task_log
            if t.task_class is TaskClass.GENERIC
        ]
        assert float(np.mean(generic)) == pytest.approx(
            res.generic_response_time, rel=1e-12
        )


class TestClassifier:
    def test_classifier_sees_every_task(self):
        g = tiny_group()
        seen = []
        config = SimulationConfig(
            total_generic_rate=1.0,
            fractions=(1.0,),
            horizon=300.0,
            warmup=0.0,
            seed=7,
        )
        sim = GroupSimulation(g, config, classifier=seen.append)
        res = sim.run()
        # The classifier sees arrivals; completions are a subset.
        assert len(seen) >= res.generic_completed + res.special_completed

    def test_classifier_priority_stamp_respected(self):
        # Stamp all generic tasks *above* specials and verify generic
        # waits drop below special waits (inverted ladder).
        g = BladeServerGroup.from_arrays([1], [1.0], [0.4])
        config = SimulationConfig(
            total_generic_rate=0.4,
            fractions=(1.0,),
            discipline="priority",
            horizon=5_000.0,
            warmup=500.0,
            seed=8,
        )

        def promote(task):
            task.priority = -1 if task.task_class is TaskClass.GENERIC else 0

        res = GroupSimulation(g, config, classifier=promote).run()
        assert res.generic_waiting_time < res.special_waiting_time


class TestStateAccounting:
    def test_utilization_bounded(self):
        g = tiny_group()
        res = simulate_group(g, 1.4, [1.0], horizon=2_000.0, warmup=200.0, seed=9)
        assert 0.0 < res.utilizations[0] < 1.0
        assert res.mean_in_system[0] > 0.0

    def test_mean_in_system_littles_law(self):
        # N-bar ~= lambda_total * T-bar over the merged stream.
        g = tiny_group()
        lam_g = 1.0
        res = simulate_group(
            g, lam_g, [1.0], horizon=20_000.0, warmup=2_000.0, seed=10
        )
        lam_total = lam_g + 0.5
        blended_t = (
            lam_g * res.generic_response_time
            + 0.5 * res.special_response_time
        ) / lam_total
        assert res.mean_in_system[0] == pytest.approx(
            lam_total * blended_t, rel=0.05
        )

    def test_deterministic_replay_with_task_log(self):
        g = tiny_group()
        config = SimulationConfig(
            total_generic_rate=1.0,
            fractions=(1.0,),
            horizon=800.0,
            warmup=100.0,
            seed=11,
        )
        a = GroupSimulation(g, config, collect_tasks=True).run()
        b = GroupSimulation(g, config, collect_tasks=True).run()
        assert len(a.task_log) == len(b.task_log)
        assert all(
            x.task_id == y.task_id
            and x.arrival_time == y.arrival_time
            and x.completion_time == y.completion_time
            for x, y in zip(a.task_log, b.task_log)
        )
