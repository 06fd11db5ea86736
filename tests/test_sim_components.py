"""Unit tests for simulator components: rng, events, task, server, and
the engine's default router."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro import solve
from repro.core.exceptions import ParameterError, SimulationError
from repro.core.response import Discipline
from repro.core.server import BladeServerGroup
from repro.runtime.router import SmoothWeightedRoundRobinRouter
from repro.sim.engine import GroupSimulation, SimulationConfig
from repro.sim.events import EventQueue, EventType
from repro.sim.rng import StreamFactory, exponential
from repro.sim.server import SimServer
from repro.sim.task import SimTask, TaskClass


class TestStreamFactory:
    def test_deterministic_given_seed(self):
        a = StreamFactory(7).stream().random(5)
        b = StreamFactory(7).stream().random(5)
        assert np.allclose(a, b)

    def test_streams_independent(self):
        f = StreamFactory(7)
        s1, s2 = f.stream(), f.stream()
        assert not np.allclose(s1.random(5), s2.random(5))

    def test_named_streams_cached(self):
        f = StreamFactory(0)
        assert f.stream("a") is f.stream("a")
        assert f.stream("a") is not f.stream("b")

    def test_spawn_count(self):
        f = StreamFactory(0)
        gens = f.spawn(4)
        assert len(gens) == 4
        assert f.streams_created == 4

    def test_spawn_negative_raises(self):
        with pytest.raises(ParameterError):
            StreamFactory(0).spawn(-1)

    def test_exponential_mean(self):
        rng = StreamFactory(3).stream()
        draws = [exponential(rng, 2.0) for _ in range(20_000)]
        assert np.mean(draws) == pytest.approx(2.0, rel=0.05)

    def test_exponential_invalid_mean(self):
        rng = StreamFactory(0).stream()
        with pytest.raises(ParameterError):
            exponential(rng, 0.0)


class TestEventQueue:
    def test_time_ordering(self):
        q = EventQueue()
        q.schedule(3.0, EventType.END_OF_RUN)
        q.schedule(1.0, EventType.GENERIC_ARRIVAL)
        q.schedule(2.0, EventType.DEPARTURE)
        times = [q.pop().time for _ in range(3)]
        assert times == [1.0, 2.0, 3.0]

    def test_fifo_among_simultaneous(self):
        q = EventQueue()
        q.schedule(1.0, EventType.GENERIC_ARRIVAL, payload="first")
        q.schedule(1.0, EventType.GENERIC_ARRIVAL, payload="second")
        assert q.pop().payload == "first"
        assert q.pop().payload == "second"

    def test_simultaneous_unorderable_payloads_pop_in_insertion_order(self):
        # Dicts and tasks do not support "<": the ordering must settle on
        # (time, seq) and never compare payloads.
        q = EventQueue()
        tasks = [
            SimTask(
                task_id=k,
                task_class=cls,
                arrival_time=0.0,
                requirement=1.0,
                server_index=k,
            )
            for k, cls in enumerate((TaskClass.GENERIC, TaskClass.SPECIAL))
        ]
        payloads = [{"b": 1}, tasks[0], {"a": 2}, tasks[1], None]
        for payload in payloads:
            q.schedule(1.0, EventType.DEPARTURE, payload=payload)
        q.schedule(0.5, EventType.CONTROL, payload={"first": True})
        assert q.pop().payload == {"first": True}
        popped = [q.pop() for _ in payloads]
        assert [ev.payload for ev in popped] == payloads
        assert all(a.payload is b for a, b in zip(popped, payloads))
        assert [ev.seq for ev in popped] == sorted(ev.seq for ev in popped)

    def test_clock_advances(self):
        q = EventQueue()
        q.schedule(5.0, EventType.END_OF_RUN)
        assert q.now == 0.0
        q.pop()
        assert q.now == 5.0

    def test_scheduling_into_past_rejected(self):
        q = EventQueue()
        q.schedule(5.0, EventType.END_OF_RUN)
        q.pop()
        with pytest.raises(SimulationError):
            q.schedule(4.0, EventType.DEPARTURE)

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_peek_and_len(self):
        q = EventQueue()
        assert not q
        q.schedule(2.0, EventType.END_OF_RUN)
        assert len(q) == 1
        assert q.peek_time() == 2.0
        assert len(q) == 1  # peek does not consume


class TestSimTask:
    def test_lifecycle_metrics(self):
        t = SimTask(1, TaskClass.GENERIC, 0, arrival_time=1.0, requirement=2.0)
        t.start_time = 3.0
        t.completion_time = 5.0
        assert t.waiting_time == pytest.approx(2.0)
        assert t.response_time == pytest.approx(4.0)

    def test_service_time_scales_with_speed(self):
        t = SimTask(1, TaskClass.SPECIAL, 0, 0.0, requirement=3.0)
        assert t.service_time(1.5) == pytest.approx(2.0)

    def test_unset_times_are_nan(self):
        t = SimTask(1, TaskClass.GENERIC, 0, 0.0, 1.0)
        assert np.isnan(t.response_time)
        assert np.isnan(t.waiting_time)


def task(tid, cls=TaskClass.GENERIC, arrival=0.0):
    return SimTask(tid, cls, 0, arrival, requirement=1.0)


class TestSimServerFCFS:
    def test_immediate_service_when_idle(self):
        s = SimServer(0, size=2, speed=1.0)
        out = s.on_arrival(task(1), now=1.0)
        assert out is not None
        assert s.busy == 1
        assert out.start_time == 1.0

    def test_queues_when_full(self):
        s = SimServer(0, size=1, speed=1.0)
        assert s.on_arrival(task(1), 0.0) is not None
        assert s.on_arrival(task(2), 0.5) is None
        assert s.queue_length == 1
        assert s.in_system == 2

    def test_departure_pulls_from_queue(self):
        s = SimServer(0, size=1, speed=1.0)
        s.on_arrival(task(1), 0.0)
        s.on_arrival(task(2), 0.5)
        nxt = s.on_departure(now=2.0)
        assert nxt is not None and nxt.task_id == 2
        assert nxt.start_time == 2.0
        assert s.busy == 1

    def test_departure_idles_blade_when_queue_empty(self):
        s = SimServer(0, size=1, speed=1.0)
        s.on_arrival(task(1), 0.0)
        assert s.on_departure(1.0) is None
        assert s.busy == 0

    def test_departure_without_busy_raises(self):
        with pytest.raises(SimulationError):
            SimServer(0, 1, 1.0).on_departure(0.0)

    def test_fcfs_order_is_class_blind(self):
        s = SimServer(0, size=1, speed=1.0, discipline=Discipline.FCFS)
        s.on_arrival(task(1), 0.0)
        s.on_arrival(task(2, TaskClass.GENERIC), 0.1)
        s.on_arrival(task(3, TaskClass.SPECIAL), 0.2)
        assert s.on_departure(1.0).task_id == 2  # generic first: FIFO
        assert s.on_departure(2.0).task_id == 3

    def test_counters(self):
        s = SimServer(0, size=2, speed=1.0)
        s.on_arrival(task(1), 0.0)
        s.on_arrival(task(2), 0.0)
        s.on_departure(1.0)
        assert s.arrivals == 2
        assert s.completions == 1


class TestSimServerPriority:
    def test_special_jumps_generic_queue(self):
        s = SimServer(0, size=1, speed=1.0, discipline=Discipline.PRIORITY)
        s.on_arrival(task(1), 0.0)  # in service
        s.on_arrival(task(2, TaskClass.GENERIC), 0.1)
        s.on_arrival(task(3, TaskClass.SPECIAL), 0.2)
        assert s.on_departure(1.0).task_id == 3  # special overtakes
        assert s.on_departure(2.0).task_id == 2

    def test_non_preemptive(self):
        # A generic task in service is never interrupted by specials.
        s = SimServer(0, size=1, speed=1.0, discipline=Discipline.PRIORITY)
        in_service = s.on_arrival(task(1, TaskClass.GENERIC), 0.0)
        assert in_service.task_id == 1
        s.on_arrival(task(2, TaskClass.SPECIAL), 0.1)
        assert s.busy == 1  # still only the generic task in service

    def test_specials_fifo_among_themselves(self):
        s = SimServer(0, size=1, speed=1.0, discipline=Discipline.PRIORITY)
        s.on_arrival(task(1), 0.0)
        s.on_arrival(task(2, TaskClass.SPECIAL), 0.1)
        s.on_arrival(task(3, TaskClass.SPECIAL), 0.2)
        assert s.on_departure(1.0).task_id == 2
        assert s.on_departure(2.0).task_id == 3


class TestDefaultRouter:
    """The router the engine builds when no dispatcher is passed."""

    RATE = 23.52  # Table 1's lambda'

    def routed_counts(self, group, fractions, seed):
        """Generic tasks routed to each server over one seeded run."""
        counts = np.zeros(group.n, dtype=np.int64)

        def count(task):
            if task.task_class is TaskClass.GENERIC:
                counts[task.server_index] += 1

        config = SimulationConfig(
            total_generic_rate=self.RATE,
            fractions=tuple(float(f) for f in fractions),
            horizon=1_000.0,
            warmup=0.0,
            seed=seed,
        )
        GroupSimulation(group, config, classifier=count).run()
        return counts

    def test_split_matches_fractions(self, paper_group):
        # Chi-square goodness of fit of the routed counts against the
        # KKT fractions of Table 1: a certificate that the default
        # router realizes the paper's split, not merely some split.
        fractions = np.asarray(solve(paper_group, self.RATE).fractions)
        counts = self.routed_counts(paper_group, fractions, seed=2011)
        assert counts.sum() > 20_000
        _, p = stats.chisquare(counts, counts.sum() * fractions)
        assert p > 1e-3

    def test_zero_fraction_server_gets_nothing(self, paper_group):
        fractions = np.asarray(solve(paper_group, self.RATE).fractions)
        fractions[0] = 0.0
        fractions /= fractions.sum()
        counts = self.routed_counts(paper_group, fractions, seed=2012)
        assert counts[0] == 0
        _, p = stats.chisquare(counts[1:], counts.sum() * fractions[1:])
        assert p > 1e-3

    def test_validation(self):
        group = BladeServerGroup.from_arrays([2, 2], [1.0, 1.0])

        def config(fractions):
            return SimulationConfig(total_generic_rate=1.0, fractions=fractions)

        for bad in [(0.5, 0.6), (-0.1, 1.1), (float("nan"), 1.0),
                    (float("inf"), 0.0), ()]:
            with pytest.raises(ParameterError):
                GroupSimulation(group, config(bad))
        # The check guards the engine's own router only: a passed-in
        # dispatcher routes by its own weights.
        GroupSimulation(
            group,
            config((0.5, 0.6)),
            dispatcher=SmoothWeightedRoundRobinRouter([1.0, 1.0]),
        )
