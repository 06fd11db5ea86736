"""Per-task engine work independent of n, lazy special streams, finite horizons."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro import RuntimeConfig, ShardConfig, run_closed_loop, run_sharded_closed_loop
from repro.core.exceptions import ParameterError
from repro.core.response import Discipline
from repro.core.server import BladeServerGroup
from repro.sim.arrivals import ClientWorkload
from repro.sim.engine import GroupSimulation, SimulationConfig, simulate_group
from repro.sim.rng import StreamFactory
from repro.workloads.traces import RateTrace


def fleet(n: int) -> BladeServerGroup:
    return BladeServerGroup.with_special_fraction(
        sizes=[1 + i % 4 for i in range(n)],
        speeds=[0.8 + 0.1 * (i % 5) for i in range(n)],
        fraction=0.3,
    )


def split(group: BladeServerGroup) -> tuple[float, ...]:
    spare = group.spare_capacities
    return tuple(float(x) for x in spare / spare.sum())


# ---------------------------------------------------------------------------
# A non-finite horizon is rejected instead of hanging the run.
# ---------------------------------------------------------------------------


def _config(horizon):
    SimulationConfig(
        total_generic_rate=1.0, fractions=(0.5, 0.5), horizon=horizon, warmup=0.0
    )


def _simulate(horizon):
    simulate_group(fleet(2), 1.0, (0.5, 0.5), horizon=horizon, warmup=0.0)


def _closed_loop(horizon):
    run_closed_loop(fleet(2), RateTrace.constant(1.0), horizon=horizon)


def _sharded(horizon):
    run_sharded_closed_loop(
        fleet(4),
        RateTrace.constant(1.0),
        RuntimeConfig(),
        ShardConfig(shards=2),
        horizon=horizon,
    )


@pytest.mark.parametrize("entry", [_config, _simulate, _closed_loop, _sharded])
@pytest.mark.parametrize("horizon", [math.inf, math.nan])
def test_non_finite_horizon_is_rejected(entry, horizon):
    with pytest.raises(ParameterError, match="horizon"):
        entry(horizon)


# ---------------------------------------------------------------------------
# The run reads the group's vectors a fixed number of times, whatever its
# length: nothing per task touches an O(n) property.
# ---------------------------------------------------------------------------


def test_group_vector_reads_do_not_grow_with_horizon(monkeypatch):
    reads = {}
    for name in ("speeds", "sizes", "special_rates", "xbars"):
        fget = getattr(BladeServerGroup, name).fget

        def counted(self, _name=name, _fget=fget):
            reads[_name] = reads.get(_name, 0) + 1
            return _fget(self)

        monkeypatch.setattr(BladeServerGroup, name, property(counted))

    group = fleet(64)
    rate = 0.6 * group.max_generic_rate

    def reads_during_run(horizon):
        config = SimulationConfig(
            total_generic_rate=rate,
            fractions=split(group),
            discipline=Discipline.PRIORITY,
            horizon=horizon,
            warmup=0.1 * horizon,
            seed=3,
        )
        sim = GroupSimulation(group, config)
        reads.clear()
        result = sim.run()
        return dict(reads), result.generic_completed + result.special_completed

    short, short_tasks = reads_during_run(50.0)
    long, long_tasks = reads_during_run(500.0)
    assert long_tasks > 5 * short_tasks
    assert short == long


# ---------------------------------------------------------------------------
# Lazy special streams draw exactly what an eager spawn of all n drew.
# ---------------------------------------------------------------------------

SPECIAL = (0.0, 0.5, 0.0, 1.0, 0.0, 0.9, 0.3, 0.0)
SEED = 11


def mixed_sim(seed: int = SEED, horizon: float = 200.0) -> GroupSimulation:
    group = BladeServerGroup.from_arrays(
        sizes=[1, 2, 3, 4, 1, 2, 3, 4],
        speeds=[1.0, 1.2, 0.8, 1.0, 1.5, 0.9, 1.1, 1.3],
        special_rates=SPECIAL,
    )
    config = SimulationConfig(
        total_generic_rate=4.0,
        fractions=(0.125,) * 8,
        horizon=horizon,
        warmup=0.0,
        seed=seed,
    )
    return GroupSimulation(group, config, workload=ClientWorkload((0.3, 0.7)))


def eager_children(n: int, extra: int) -> list[np.random.Generator]:
    """The generators of an eager engine: two named streams, n special
    streams, then ``extra`` more named streams, all spawned in order."""
    children = np.random.SeedSequence(SEED).spawn(2 + n + extra)
    return [np.random.default_rng(c) for c in children]


def draws(state: dict, k: int = 5) -> list[float]:
    gen = np.random.Generator(np.random.PCG64())
    gen.bit_generator.state = state
    return gen.random(k).tolist()


class TestLazySpecialStreams:
    def test_special_streams_equal_eager_children(self):
        n = len(SPECIAL)
        eager = eager_children(n, 3)
        special = mixed_sim().capture_rng_state()["special"]
        assert len(special) == n
        for i, rate in enumerate(SPECIAL):
            if rate == 0.0:
                assert special[i] is None
            else:
                assert draws(special[i]) == eager[2 + i].random(5).tolist()

    def test_named_streams_after_the_reservation_keep_their_keys(self):
        n = len(SPECIAL)
        eager = eager_children(n, 3)
        named = mixed_sim().capture_rng_state()["streams"]["named"]
        for offset, name in enumerate(("routing", "classes", "retries")):
            assert draws(named[name]) == eager[2 + n + offset].random(5).tolist()

    def test_snapshot_round_trips_through_json(self):
        sim = mixed_sim()
        state = json.loads(json.dumps(sim.capture_rng_state()))
        first = sim.run()

        restored = mixed_sim(seed=99)
        restored.restore_rng_state(state)
        assert restored.capture_rng_state() == state
        second = restored.run()
        assert second.generic_response_time == first.generic_response_time
        assert second.special_response_time == first.special_response_time
        assert np.array_equal(second.utilizations, first.utilizations)
        assert np.array_equal(second.mean_in_system, first.mean_in_system)

    def test_restore_rejects_a_different_stream_pattern(self):
        sim = mixed_sim()
        state = sim.capture_rng_state()
        special = list(state["special"])
        special[0], special[1] = special[1], special[0]
        with pytest.raises(ParameterError):
            sim.restore_rng_state({"streams": state["streams"], "special": special})


class TestReserve:
    def test_children_equal_spawned_generators(self):
        factory = StreamFactory(5)
        factory.stream("a")
        child = factory.reserve(10)
        after = factory.stream("b")
        ref = np.random.SeedSequence(5).spawn(12)
        for i in (0, 4, 9):
            assert child(i).random(3).tolist() == np.random.default_rng(
                ref[1 + i]
            ).random(3).tolist()
        expected = np.random.default_rng(ref[11]).random(3).tolist()
        assert after.random(3).tolist() == expected
        assert factory.streams_created == 12
        with pytest.raises(ParameterError):
            child(10)

    def test_state_round_trip_continues_after_the_reservation(self):
        factory = StreamFactory(5)
        factory.stream("a")
        factory.reserve(10)
        state = factory.state_dict()
        expected = factory.stream("b").random(4).tolist()

        other = StreamFactory(123)
        other.load_state(json.loads(json.dumps(state)))
        assert other.stream("b").random(4).tolist() == expected
