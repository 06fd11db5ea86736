"""Failure-path tests for the re-solve controller and the runtime loop.

The happy-path controller behaviour (quantization, warm starts,
hysteresis) is covered in ``test_runtime.py``; this module stresses the
paths a fault can reach: LRU eviction order under mixed hit/miss
bursts, cache keying across health-fingerprint changes mid-burst, and
solver exceptions surfacing as structured supervised outcomes instead
of escaping the runtime's ``_resolve``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.exceptions import ClusterDownError
from repro.core.server import BladeServerGroup
from repro.core.solvers import AUTO_NEWTON_THRESHOLD, dispatch, resolve_method
from repro.faults import FaultPlan, FaultSchedule, FaultSpec, random_fault_schedule
from repro.runtime import (
    HealthTracker,
    LoadDistributionRuntime,
    ResolveController,
    RuntimeConfig,
)


@pytest.fixture
def group():
    return BladeServerGroup.from_arrays(
        sizes=[2, 3, 4],
        speeds=[1.0, 1.2, 1.5],
        special_rates=[0.3, 0.4, 0.5],
        rbar=1.0,
    )


def _controller(group, **kwargs):
    health = HealthTracker(group, utilization_cap=0.92)
    return ResolveController(health, method="kkt", **kwargs), health


class TestCacheEviction:
    def test_lru_evicts_least_recently_used_not_oldest(self, group):
        ctl, _ = _controller(group, cache_size=2)
        r1, r2, r3 = 3.0, 4.0, 5.0
        assert not ctl.resolve(r1).cache_hit
        assert not ctl.resolve(r2).cache_hit
        # Touch r1 so r2 becomes the least recently used entry...
        assert ctl.resolve(r1).cache_hit
        # ...then overflow the cache with r3.
        assert not ctl.resolve(r3).cache_hit
        assert ctl.cache_len == 2
        # r1 survived (recently used), r2 was evicted (LRU order, not
        # insertion order).
        assert ctl.resolve(r1).cache_hit
        assert not ctl.resolve(r2).cache_hit

    def test_cache_len_never_exceeds_capacity(self, group):
        ctl, _ = _controller(group, cache_size=3)
        for i in range(10):
            ctl.resolve(2.0 + 0.5 * i)
        assert ctl.cache_len == 3


class TestCacheAcrossFingerprintChanges:
    def test_fingerprint_change_mid_burst_is_a_miss_then_recovers(self, group):
        ctl, health = _controller(group, cache_size=8)
        rate = 3.0
        first = ctl.resolve(rate)
        assert not first.cache_hit
        assert ctl.resolve(rate).cache_hit

        # Server 1 dies mid-burst: same offered rate, different active
        # configuration -- must re-solve, not serve the 3-server split.
        health.mark_down(1)
        after_down = ctl.resolve(rate)
        assert not after_down.cache_hit
        assert after_down.weights[1] == 0.0
        assert ctl.resolve(rate).cache_hit  # degraded split now cached

        # Recovery restores the original fingerprint: the pre-failure
        # entry is still in the cache and serves immediately.
        health.mark_up(1)
        restored = ctl.resolve(rate)
        assert restored.cache_hit
        assert np.allclose(restored.weights, first.weights)

    def test_hits_survive_transitions_and_restores(self, group):
        # A fingerprint rebuilt for the same topology (mark_down then
        # mark_up, load_state) and a key restored from JSON must still
        # hit.
        ctl, health = _controller(group, cache_size=8)
        rate = 3.0
        first = ctl.resolve(rate)
        assert not first.cache_hit
        assert ctl.resolve(rate).cache_hit
        before = health.fingerprint()
        health.mark_down(2)
        assert not ctl.resolve(rate).cache_hit
        health.mark_up(2)
        assert health.fingerprint() == before
        assert ctl.resolve(rate).cache_hit
        health.load_state(health.state_dict())
        assert health.fingerprint() == before
        assert ctl.resolve(rate).cache_hit

        state = json.loads(json.dumps(ctl.state_dict(lambda r: r.phi)))
        restored, restored_health = _controller(group, cache_size=8)
        restored.load_state(state, lambda phi: first.result)
        assert restored.resolve(rate).cache_hit
        assert restored_health.fingerprint() == before

    def test_fingerprint_is_the_down_set(self, group):
        # The key is the sorted down-set: its length is the number of
        # down servers, whatever the group's size, and it is equal (and
        # hashes equal) after a JSON round trip.
        health = HealthTracker(group)
        assert health.fingerprint() == ()
        health.mark_down(2)
        health.mark_down(0)
        fp = health.fingerprint()
        assert fp == (0, 2) and all(type(i) is int for i in fp)
        assert json.dumps(fp) == "[0, 2]"
        restored = tuple(json.loads(json.dumps(fp)))
        assert restored == fp and hash(restored) == hash(fp)
        health.mark_up(0)
        assert health.fingerprint() == (2,)

    def test_backend_override_is_part_of_the_key(self, group):
        ctl, _ = _controller(group, cache_size=8)
        rate = 3.0
        assert not ctl.resolve(rate).cache_hit
        via_bisection = ctl.resolve(rate, method="bisection")
        assert not via_bisection.cache_hit  # different backend, new key
        assert ctl.resolve(rate, method="bisection").cache_hit
        assert ctl.resolve(rate).cache_hit  # primary entry untouched

    def test_cluster_down_propagates_from_controller(self, group):
        ctl, health = _controller(group)
        for i in range(group.n):
            health.mark_down(i)
        with pytest.raises(ClusterDownError):
            ctl.resolve(3.0)


class TestSolverExceptionsAreStructuredOutcomes:
    """A solver fault must never escape the runtime's ``_resolve``."""

    def _runtime(self, group, schedule):
        plan = FaultPlan(schedule)
        config = RuntimeConfig(router="alias")
        return LoadDistributionRuntime(group, 3.0, config, fault_plan=plan)

    def test_injected_fault_becomes_fallback_outcome(self, group):
        runtime = self._runtime(
            group,
            FaultSchedule(
                [
                    FaultSpec(
                        "solver-error",
                        0.0,
                        1e6,
                        {"methods": ("kkt", "newton", "closed-form")},
                    )
                ],
                seed=0,
            ),
        )
        # The *initial* resolve already ran under the fault and did not
        # raise; its provenance is recorded in the resolve log.
        ev = runtime.resolve_log[0]
        assert ev.source == "fallback:bisection"
        assert ev.depth == 1
        assert ev.adopted
        assert runtime.metrics.counters.resolve_failures > 0
        assert runtime.current_weights.sum() == pytest.approx(1.0)

    def test_total_solver_outage_served_by_proportional(self, group):
        runtime = self._runtime(
            group,
            FaultSchedule([FaultSpec("solver-error", 0.0, 1e6)], seed=0),
        )
        ev = runtime.resolve_log[0]
        assert ev.source == "fallback:proportional"
        assert runtime.metrics.incidents.counts["fallback"] >= 1
        # Forced re-solves keep being absorbed, never raised.
        runtime._resolve(10.0, 4.0, reason="drift", force=True)
        assert runtime.resolve_log[-1].source == "fallback:proportional"

    def test_primary_only_scope_covers_newton_on_large_groups(self):
        # The scope random_fault_schedule draws for "primary-only"
        # solver faults must hit the backend "auto" picks from n = 16,
        # or those draws never fire and the bisection rung goes untested.
        scopes = {
            spec.params["methods"]
            for seed in range(40)
            for spec in random_fault_schedule(3, horizon=1000.0, seed=seed)
            if spec.kind == "solver-error" and "methods" in spec.params
        }
        (scope,) = scopes
        n = AUTO_NEWTON_THRESHOLD
        big = BladeServerGroup.from_arrays(
            sizes=[2 + i % 4 for i in range(n)],
            speeds=[1.0 + 0.05 * i for i in range(n)],
            rbar=1.0,
        )
        assert resolve_method(big, "auto") == "newton"
        runtime = LoadDistributionRuntime(
            big,
            0.5 * big.max_generic_rate,
            RuntimeConfig(router="alias"),
            fault_plan=FaultPlan(
                FaultSchedule(
                    [FaultSpec("solver-error", 0.0, 1e6, {"methods": scope})],
                    seed=0,
                )
            ),
        )
        ev = runtime.resolve_log[0]
        assert ev.source == "fallback:bisection"
        assert ev.depth == 1

    def test_healthy_runtime_reports_primary_source(self, group):
        runtime = self._runtime(group, FaultSchedule([], seed=0))
        ev = runtime.resolve_log[0]
        assert ev.source == "primary" and ev.depth == 0
        assert runtime.metrics.counters.resolve_failures == 0
