"""Unit tests for the online-runtime components.

Covers the pieces of :mod:`repro.runtime` in isolation — rate
estimators and drift detection, routing backends, health tracking and
degradation planning, the re-solve controller (cache, quantization,
hysteresis), metrics accumulators — plus the new workload-side rate
traces and the engine's hook extensions.  The closed-loop acceptance
tests live in ``test_runtime_loop.py``.
"""

from __future__ import annotations

import math

import json

import numpy as np
import pytest

from repro.core.exceptions import ClusterDownError, ParameterError
from repro.core.server import BladeServer, BladeServerGroup
from repro.core.solvers import dispatch
from repro.recovery.checkpoint import CheckpointCodec
from repro.runtime import (
    AliasTableRouter,
    DriftDetector,
    EwmaRateEstimator,
    FallbackDepthCounters,
    HealthTracker,
    IncidentLog,
    IncidentRecord,
    RateGauges,
    ResolveController,
    RuntimeMetrics,
    ShedTracker,
    SlidingWindowRateEstimator,
    RoutingConfig,
    SmoothWeightedRoundRobinRouter,
    build_router,
)
from repro.sim.arrivals import TracedPoissonArrivals
from repro.sim.engine import GroupSimulation, SimulationConfig
from repro.workloads.traces import RateTrace


@pytest.fixture
def group():
    return BladeServerGroup.with_special_fraction(
        sizes=[2, 4, 6], speeds=[1.4, 1.2, 1.0], fraction=0.3
    )


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


class TestEwmaRateEstimator:
    def test_converges_on_regular_stream(self):
        est = EwmaRateEstimator(time_constant=50.0)
        rate = 4.0
        t = 0.0
        for _ in range(2000):
            t += 1.0 / rate
            est.observe(t)
        assert est.estimate(t) == pytest.approx(rate, rel=0.05)

    def test_prior_returned_before_observations(self):
        est = EwmaRateEstimator(time_constant=10.0, initial_rate=3.0)
        assert est.estimate(0.0) == pytest.approx(3.0)

    def test_estimate_decays_during_silence(self):
        est = EwmaRateEstimator(time_constant=10.0, initial_rate=3.0)
        assert est.estimate(50.0) < 0.1  # five time constants of silence

    def test_startup_bias_correction_without_prior(self):
        est = EwmaRateEstimator(time_constant=100.0)
        rate = 2.0
        t = 0.0
        # Only half a time constant of data: the raw kernel mass would
        # underestimate by ~40%, the corrected estimate must not.
        for _ in range(100):
            t += 1.0 / rate
            est.observe(t)
        assert est.estimate(t) == pytest.approx(rate, rel=0.1)

    def test_time_backwards_raises(self):
        est = EwmaRateEstimator(time_constant=10.0)
        est.observe(5.0)
        with pytest.raises(ParameterError):
            est.observe(4.0)

    def test_invalid_params_raise(self):
        with pytest.raises(ParameterError):
            EwmaRateEstimator(time_constant=0.0)
        with pytest.raises(ParameterError):
            EwmaRateEstimator(time_constant=10.0, initial_rate=-1.0)


class TestSlidingWindowRateEstimator:
    def test_exact_on_full_window(self):
        est = SlidingWindowRateEstimator(window=10.0)
        for k in range(1, 101):
            est.observe(k * 0.25)  # rate 4, out to t = 25
        assert est.estimate(25.0) == pytest.approx(4.0, rel=0.05)

    def test_old_arrivals_fall_out(self):
        est = SlidingWindowRateEstimator(window=5.0)
        for k in range(1, 21):
            est.observe(k * 0.5)  # rate 2 until t = 10
        assert est.estimate(20.0) == pytest.approx(0.0)

    def test_prior_blends_while_filling(self):
        est = SlidingWindowRateEstimator(window=100.0, initial_rate=5.0)
        est.observe(1.0)
        # 1% of the window elapsed: the estimate is still prior-dominated.
        assert est.estimate(1.0) == pytest.approx(5.0, rel=0.05)

    def test_reset_forgets(self):
        est = SlidingWindowRateEstimator(window=10.0)
        est.observe(1.0)
        est.reset(100.0)
        assert est.estimate(101.0) == pytest.approx(0.0)


class TestDriftDetector:
    def test_triggers_without_reference(self):
        det = DriftDetector(threshold=0.1)
        assert det.check(0.0, 1.0)

    def test_quiet_inside_threshold(self):
        det = DriftDetector(threshold=0.1)
        det.rearm(0.0, 4.0)
        assert not det.check(10.0, 4.3)

    def test_triggers_beyond_threshold(self):
        det = DriftDetector(threshold=0.1)
        det.rearm(0.0, 4.0)
        assert det.check(10.0, 4.5)

    def test_dwell_suppresses_early_triggers(self):
        det = DriftDetector(threshold=0.1, min_dwell=50.0)
        det.rearm(0.0, 4.0)
        assert not det.check(10.0, 8.0)
        assert det.check(60.0, 8.0)

    def test_rearm_requires_positive_reference(self):
        det = DriftDetector()
        with pytest.raises(ParameterError):
            det.rearm(0.0, 0.0)


# ---------------------------------------------------------------------------
# Routers
# ---------------------------------------------------------------------------


class TestSmoothWeightedRoundRobin:
    def test_exact_proportions_over_cycle(self):
        router = SmoothWeightedRoundRobinRouter([0.5, 0.25, 0.25])
        counts = np.zeros(3)
        for _ in range(400):
            counts[router.pick()] += 1
        np.testing.assert_allclose(counts / 400, [0.5, 0.25, 0.25], atol=0.01)

    def test_zero_weight_server_never_picked(self):
        router = SmoothWeightedRoundRobinRouter([0.6, 0.0, 0.4])
        picks = {router.pick() for _ in range(100)}
        assert 1 not in picks

    def test_set_weights_takes_effect_immediately(self):
        router = SmoothWeightedRoundRobinRouter([0.5, 0.5])
        for _ in range(7):
            router.pick()
        router.set_weights([0.0, 1.0])
        assert all(router.pick() == 1 for _ in range(50))

    def test_set_weights_rejects_length_change(self):
        router = SmoothWeightedRoundRobinRouter([0.5, 0.5])
        with pytest.raises(ParameterError):
            router.set_weights([1.0, 1.0, 1.0])

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ParameterError):
            SmoothWeightedRoundRobinRouter([0.0, 0.0])

    def test_invalid_weights_rejected(self):
        for bad in ([], [-0.1, 1.0], [float("nan"), 1.0]):
            with pytest.raises(ParameterError):
                SmoothWeightedRoundRobinRouter(bad)

    @pytest.mark.parametrize(
        "weights", [[1.0, 1.0, 1.0], [0.2, 0.5, 0.3], [0.6, 0.0, 0.3, 0.1]]
    )
    def test_smoothness_property(self, weights):
        # In every prefix, each server's count stays within one pick of
        # its fair share (robust to the floating-point credit drift that
        # breaks strict rotation).
        router = SmoothWeightedRoundRobinRouter(weights)
        w = router.weights
        counts = np.zeros(w.size)
        for step in range(1, 300):
            counts[router.pick()] += 1
            assert np.all(np.abs(counts - step * w) <= 1.0 + 1e-9)


class TestAliasTableRouter:
    def test_empirical_frequencies_match_weights(self):
        rng = np.random.default_rng(7)
        weights = [0.45, 0.05, 0.3, 0.2]
        router = AliasTableRouter(weights, rng)
        counts = np.zeros(4)
        n = 40_000
        for _ in range(n):
            counts[router.pick()] += 1
        np.testing.assert_allclose(counts / n, weights, atol=0.01)

    def test_zero_weight_server_never_picked(self):
        router = AliasTableRouter([0.5, 0.0, 0.5], np.random.default_rng(1))
        picks = {router.pick() for _ in range(2000)}
        assert 1 not in picks

    def test_set_weights_rebuilds(self):
        router = AliasTableRouter([0.5, 0.5], np.random.default_rng(2))
        router.set_weights([1.0, 0.0])
        assert all(router.pick() == 0 for _ in range(200))

    def test_unnormalized_weights_accepted(self):
        router = AliasTableRouter([2.0, 2.0], np.random.default_rng(3))
        np.testing.assert_allclose(router.weights, [0.5, 0.5])

    def test_weights_property_copies(self):
        router = AliasTableRouter([0.4, 0.6], np.random.default_rng(4))
        router.weights[0] = 99.0
        assert router.weights[0] == pytest.approx(0.4)


def test_build_router_dispatches_and_validates():
    rng = np.random.default_rng(0)

    def build(policy):
        return build_router(RoutingConfig(policy=policy), [1.0], rng)

    assert isinstance(build("swrr"), SmoothWeightedRoundRobinRouter)
    assert isinstance(build("alias"), AliasTableRouter)
    with pytest.raises(ParameterError):
        build("nope")


# ---------------------------------------------------------------------------
# Health tracking and degradation
# ---------------------------------------------------------------------------


class TestHealthTracker:
    def test_initial_state_all_up(self, group):
        health = HealthTracker(group)
        assert health.n_up == 3
        assert health.active_group() is group

    def test_mark_down_shrinks_active_group(self, group):
        health = HealthTracker(group)
        assert health.mark_down(1)
        active = health.active_group()
        assert active.n == 2
        assert active.servers[0] is group.servers[0]
        assert active.servers[1] is group.servers[2]
        assert health.active_indices == (0, 2)

    def test_transitions_are_idempotent(self, group):
        health = HealthTracker(group)
        assert health.mark_down(0)
        assert not health.mark_down(0)
        assert health.mark_up(0)
        assert not health.mark_up(0)

    def test_recovery_restores_identical_fingerprint(self, group):
        health = HealthTracker(group)
        before = health.fingerprint()
        health.mark_down(2)
        assert health.fingerprint() != before
        health.mark_up(2)
        assert health.fingerprint() == before

    @staticmethod
    def _fingerprint_from_scratch(health):
        return tuple(i for i in range(health.group.n) if not health.is_up(i))

    def test_fingerprint_is_one_object_between_transitions(self, group):
        # Reading the key is O(1) between transitions, and it holds only
        # the down servers.
        health = HealthTracker(group)
        assert health.fingerprint() is health.fingerprint()
        assert health.fingerprint() == ()
        health.mark_down(1)
        down = health.fingerprint()
        assert down == (1,)
        assert health.fingerprint() is down
        assert not health.mark_down(1)  # no transition, no rebuild
        assert health.fingerprint() is down

    def test_fingerprint_tracks_every_transition(self, group):
        health = HealthTracker(group)
        assert health.fingerprint() == self._fingerprint_from_scratch(health)
        health.mark_down(0)
        assert health.fingerprint() == self._fingerprint_from_scratch(health)
        health.mark_down(2)
        assert health.fingerprint() == self._fingerprint_from_scratch(health)
        health.mark_up(0)
        assert health.fingerprint() == self._fingerprint_from_scratch(health)
        restored = HealthTracker(group)
        restored.load_state(health.state_dict())
        assert restored.fingerprint() == health.fingerprint()
        assert restored.fingerprint() == self._fingerprint_from_scratch(restored)
        for i in range(group.n):
            health.mark_down(i)
        assert health.fingerprint() == tuple(range(group.n))

    def test_expand_places_zeros_on_down_servers(self, group):
        health = HealthTracker(group)
        health.mark_down(1)
        full = health.expand(np.array([0.3, 0.7]))
        np.testing.assert_allclose(full, [0.3, 0.0, 0.7])

    def test_expand_scatter_matches_the_index_list_form(self):
        g = BladeServerGroup.with_special_fraction(
            sizes=[1, 2, 3, 4, 5, 6, 7, 8], speeds=[1.0] * 8, fraction=0.2
        )
        health = HealthTracker(g)
        rng = np.random.default_rng(3)

        def check(h):
            rates = rng.random(h.n_up)
            listed = np.zeros(g.n)
            listed[list(h.active_indices)] = rates
            assert np.array_equal(h.expand(rates), listed)
            np.testing.assert_array_equal(h.active_index_array, h.active_indices)
            assert not h.active_index_array.flags.writeable

        check(health)
        health.mark_down(2)
        health.mark_down(6)
        check(health)
        health.mark_up(2)
        check(health)
        restored = HealthTracker(g)
        restored.load_state(health.state_dict())
        check(restored)

    def test_plan_admits_everything_below_cap(self, group):
        health = HealthTracker(group, utilization_cap=0.9)
        plan = health.plan(0.5 * group.max_generic_rate)
        assert not plan.degraded
        assert plan.shed_fraction == 0.0
        assert plan.admitted_rate == plan.offered_rate

    def test_plan_sheds_excess(self, group):
        health = HealthTracker(group, utilization_cap=0.9)
        offered = 1.5 * group.max_generic_rate
        plan = health.plan(offered)
        assert plan.degraded
        assert plan.admitted_rate == pytest.approx(0.9 * group.max_generic_rate)
        assert plan.shed_fraction == pytest.approx(1.0 - plan.admitted_rate / offered)

    def test_all_servers_down_raises(self, group):
        health = HealthTracker(group)
        for i in range(group.n):
            health.mark_down(i)
        assert health.all_down
        with pytest.raises(ClusterDownError) as excinfo:
            health.active_group()
        assert excinfo.value.n_servers == group.n

    def test_index_out_of_range_raises(self, group):
        health = HealthTracker(group)
        with pytest.raises(ParameterError):
            health.mark_down(3)


# ---------------------------------------------------------------------------
# Re-solve controller
# ---------------------------------------------------------------------------


class TestResolveController:
    def test_matches_direct_solver_at_quantized_rate(self, group):
        controller = ResolveController(HealthTracker(group))
        lam = 0.5 * group.max_generic_rate
        outcome = controller.resolve(lam)
        direct = dispatch(group, outcome.solved_rate, "fcfs")
        np.testing.assert_allclose(
            outcome.result.generic_rates, direct.generic_rates, rtol=1e-6
        )
        assert outcome.weights.shape == (group.n,)
        assert outcome.weights.sum() == pytest.approx(1.0)

    def test_second_resolve_hits_cache(self, group):
        controller = ResolveController(HealthTracker(group))
        lam = 0.5 * group.max_generic_rate
        first = controller.resolve(lam)
        second = controller.resolve(lam)
        assert not first.cache_hit
        assert second.cache_hit
        assert second.latency == 0.0
        assert second.result is first.result

    def test_quantization_merges_nearby_rates(self, group):
        controller = ResolveController(HealthTracker(group), rate_quantum=0.01)
        lam = 0.5 * group.max_generic_rate
        first = controller.resolve(lam)
        # 0.1% away: inside one 1% quantum, must reuse the cached split.
        second = controller.resolve(lam * 1.001)
        assert second.cache_hit
        assert second.solved_rate == first.solved_rate

    def test_lru_evicts_oldest(self, group):
        controller = ResolveController(HealthTracker(group), cache_size=2)
        cap = group.max_generic_rate
        controller.resolve(0.3 * cap)
        controller.resolve(0.5 * cap)
        controller.resolve(0.7 * cap)
        assert controller.cache_len == 2
        assert not controller.resolve(0.3 * cap).cache_hit  # evicted

    def test_failure_invalidates_cache_key(self, group):
        health = HealthTracker(group)
        controller = ResolveController(health)
        lam = 0.4 * group.max_generic_rate
        controller.resolve(lam)
        health.mark_down(0)
        outcome = controller.resolve(lam)
        assert not outcome.cache_hit
        assert outcome.weights[0] == 0.0

    def test_recovery_hits_the_cache_again(self, group):
        health = HealthTracker(group)
        controller = ResolveController(health)
        lam = 0.4 * group.max_generic_rate
        first = controller.resolve(lam)
        health.mark_down(0)
        assert not controller.resolve(lam).cache_hit
        health.mark_up(0)
        again = controller.resolve(lam)
        assert again.cache_hit
        assert again.result is first.result

    def test_over_capacity_degrades_instead_of_raising(self, group):
        health = HealthTracker(group, utilization_cap=0.9)
        controller = ResolveController(health)
        offered = 2.0 * group.max_generic_rate
        outcome = controller.resolve(offered)
        assert outcome.plan.degraded
        assert outcome.result.total_rate <= 0.9 * group.max_generic_rate + 1e-9
        assert np.all(outcome.result.utilizations < 1.0)

    def test_warm_start_agrees_with_cold(self, group):
        warm = ResolveController(HealthTracker(group), method="newton")
        cap = group.max_generic_rate
        warm.resolve(0.4 * cap)
        hinted = warm.resolve(0.45 * cap)  # phi_hint path
        cold = dispatch(group, hinted.solved_rate, "fcfs", method="newton")
        np.testing.assert_allclose(
            hinted.result.generic_rates, cold.generic_rates, atol=1e-7
        )

    def test_hysteresis_gate(self, group):
        controller = ResolveController(HealthTracker(group), hysteresis=0.05)
        w = np.array([0.2, 0.3, 0.5])
        assert controller.should_adopt(None, w)
        assert not controller.should_adopt(w, w + [0.001, -0.001, 0.0])
        assert controller.should_adopt(w, np.array([0.5, 0.3, 0.2]))

    @staticmethod
    def _plain_grid(admitted, plan, health, quantum=0.002):
        # The grid with no seed to pass through.
        step = quantum * plan.capacity
        snapped = round(admitted / step) * step
        return min(max(snapped, step), health.utilization_cap * plan.capacity)

    def test_seed_rate_is_a_grid_point_bit_for_bit(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            g = BladeServerGroup(
                [
                    BladeServer(
                        size=int(rng.integers(1, 20)),
                        speed=float(rng.uniform(0.3, 3.0)),
                    )
                    for _ in range(n)
                ],
                rbar=float(rng.uniform(0.5, 2.0)),
            )
            lam = float(0.92 * g.max_generic_rate * 10.0 ** rng.uniform(-6.0, 0.0))
            seed = dispatch(g, lam, "fcfs")
            r0 = seed.total_rate
            health = HealthTracker(g)
            controller = ResolveController(health, seed=seed)
            plan = health.plan(r0)
            assert controller._quantize(plan.admitted_rate, plan) == r0
            assert controller.cache_len == 1

    def test_seeded_grid_keeps_its_cell(self, group):
        cap = group.max_generic_rate
        seed = dispatch(group, 0.1234567 * cap, "fcfs")
        r0 = seed.total_rate
        health = HealthTracker(group)
        controller = ResolveController(health, rate_quantum=0.01, seed=seed)
        assert controller.resolve(r0).solved_rate == r0
        # Within half a step of r0 the grid answers r0 (a cache hit);
        # one step up it answers the next grid point.
        assert controller.resolve(r0 * 1.001).cache_hit
        up = controller.resolve(r0 + 0.01 * cap).solved_rate
        assert up == pytest.approx(r0 + 0.01 * cap, rel=1e-12)
        # The lowest grid point is positive and on the grid.
        tiny = controller.resolve(1e-9 * cap).solved_rate
        assert 0.0 < tiny <= 0.01 * cap
        assert ((r0 - tiny) / (0.01 * cap)) == pytest.approx(
            round((r0 - tiny) / (0.01 * cap)), abs=1e-9
        )

    def test_seeded_bottom_cell_rounds_up_past_one_and_a_half(self, group):
        # A shard's seed sits far below one step (fleet-sharded: 18.75/s
        # against 127.5/s).  Offered 3x that, it must not be routed with
        # the seed's split.
        step = 0.002 * group.max_generic_rate
        seed = dispatch(group, 0.147 * step, "fcfs")
        g_s = seed.total_rate
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return dispatch(*args, **kwargs)

        controller = ResolveController(
            HealthTracker(group), seed=seed, solve_fn=counting
        )
        assert controller.resolve(1.5 * g_s).result is seed
        tripled = controller.resolve(3.0 * g_s)
        assert not tripled.cache_hit and tripled.result is not seed
        assert tripled.solved_rate == pytest.approx(g_s + step, rel=1e-12)
        assert calls == [tripled.solved_rate]

    def test_solved_rate_is_never_far_below_the_admitted_rate(self, group):
        cap = group.max_generic_rate
        rng = np.random.default_rng(31)
        for _ in range(40):
            health = HealthTracker(group)
            seed = dispatch(group, float(cap * 10.0 ** rng.uniform(-5.0, -0.1)), "fcfs")
            controller = ResolveController(
                health, rate_quantum=float(rng.uniform(0.001, 0.05)), seed=seed
            )
            for down in (None, 2):
                if down is not None:
                    health.mark_down(down)
                for x in cap * 10.0 ** rng.uniform(-7.0, 0.0, 50):
                    plan = health.plan(float(x))
                    solved = controller._quantize(plan.admitted_rate, plan)
                    assert 0.0 < solved <= health.utilization_cap * plan.capacity
                    assert plan.admitted_rate <= 1.5 * solved

    def test_unseeded_grid_is_the_plain_grid_bit_for_bit(self, group):
        health = HealthTracker(group)
        controller = ResolveController(health)
        assert controller._offset == 0.0
        rng = np.random.default_rng(5)
        xs = group.max_generic_rate * np.concatenate(
            [rng.uniform(1e-6, 1.2, 300), [1e-12, 0.001, 0.0015, 0.003, 0.5, 0.92, 2.0]]
        )
        for down in (None, 1, 0):
            if down is not None:
                health.mark_down(down)
            for x in xs:
                plan = health.plan(float(x))
                expected = self._plain_grid(plan.admitted_rate, plan, health)
                assert controller._quantize(plan.admitted_rate, plan) == expected

    def test_flat_runtime_keeps_the_plain_grid(self, group):
        # No seed, so a design rate off the grid by a rounding residue
        # (a round fraction of capacity) shifts nothing: a dead estimate
        # is solved at one step, not near zero.
        from repro.runtime.loop import LoadDistributionRuntime, RuntimeConfig

        cap = group.max_generic_rate
        for fraction in (0.3, 0.7, 0.123):
            runtime = LoadDistributionRuntime(group, fraction * cap, RuntimeConfig())
            controller = runtime.controller
            assert controller._offset == 0.0
            assert controller.resolve(1e-12).solved_rate == 0.002 * cap

    def test_seed_makes_the_initial_resolve_a_hit(self, group):
        seed = dispatch(group, 0.37 * group.max_generic_rate, "fcfs")
        r0 = seed.total_rate
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return dispatch(*args, **kwargs)

        controller = ResolveController(
            HealthTracker(group), seed=seed, solve_fn=counting
        )
        outcome = controller.resolve(r0)
        assert outcome.cache_hit and outcome.result is seed
        assert outcome.solved_rate == r0
        assert calls == []
        assert controller._phi_hint == seed.phi

    def test_seed_above_the_cap_is_dropped(self, group):
        health = HealthTracker(group)
        seed = dispatch(group, 0.97 * group.max_generic_rate, "fcfs")
        controller = ResolveController(health, seed=seed)
        assert controller.cache_len == 0
        assert controller._offset == 0.0
        assert controller._phi_hint is None
        with pytest.raises(ParameterError):
            ResolveController(health, discipline="priority", seed=seed)

    def test_restored_keys_equal_the_live_fingerprint(self, group):
        health = HealthTracker(group)
        controller = ResolveController(health)
        lam = 0.4 * group.max_generic_rate
        controller.resolve(lam)
        health.mark_down(1)
        controller.resolve(lam)
        def encode(result):
            return CheckpointCodec.encode_result(result, group)

        state = json.loads(json.dumps(controller.state_dict(encode)))

        fresh_health = HealthTracker(group)
        fresh_health.load_state(json.loads(json.dumps(health.state_dict())))
        restored = ResolveController(fresh_health)
        restored.load_state(state, CheckpointCodec.result_decoder(group))
        live = fresh_health.fingerprint()
        assert live == (1,)
        assert restored._phi_fingerprint == live
        fps = [key[0] for key in restored._cache]
        assert fps == [(), live]
        assert [k[1:] for k in restored._cache] == [k[1:] for k in controller._cache]
        hit = restored.resolve(lam)
        assert hit.cache_hit
        assert next(reversed(restored._cache))[0] == live

    def test_invalid_params_raise(self, group):
        health = HealthTracker(group)
        with pytest.raises(ParameterError):
            ResolveController(health, rate_quantum=0.0)
        with pytest.raises(ParameterError):
            ResolveController(health, cache_size=0)
        with pytest.raises(ParameterError):
            ResolveController(health, hysteresis=1.0)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestRateGauges:
    def test_cumulative_and_snapshot(self):
        gauges = RateGauges(2)
        for _ in range(10):
            gauges.record(0)
        gauges.record(1)
        np.testing.assert_allclose(gauges.cumulative_rates(5.0), [2.0, 0.2])
        np.testing.assert_allclose(gauges.snapshot(5.0), [2.0, 0.2])
        # Window reset: nothing routed since the snapshot.
        np.testing.assert_allclose(gauges.snapshot(10.0), [0.0, 0.0])

    def test_metrics_factory_and_shed_fraction(self):
        metrics = RuntimeMetrics.for_group_size(3)
        assert metrics.shed_fraction_observed == 0.0
        metrics.counters.arrivals = 10
        metrics.counters.shed = 4
        assert metrics.shed_fraction_observed == pytest.approx(0.4)
        metrics.on_response(1.5)
        assert metrics.response_time.count == 1
        assert metrics.response_histogram.count == 1


# ---------------------------------------------------------------------------
# Rate traces and the traced arrival process
# ---------------------------------------------------------------------------


class TestRateTrace:
    def test_rate_at_and_next_change(self):
        trace = RateTrace(4.0, ((10.0, 6.0), (20.0, 2.0)))
        assert trace.rate_at(5.0) == 4.0
        assert trace.rate_at(10.0) == 6.0
        assert trace.rate_at(25.0) == 2.0
        assert trace.next_change(0.0) == 10.0
        assert trace.next_change(10.0) == 20.0
        assert trace.next_change(20.0) == math.inf

    def test_segments_cover_horizon(self):
        trace = RateTrace.step(4.0, at=10.0, to=6.0)
        assert trace.segments(30.0) == ((0.0, 10.0, 4.0), (10.0, 30.0, 6.0))
        assert trace.segments(5.0) == ((0.0, 5.0, 4.0),)

    def test_ramp_preserves_offered_volume(self):
        trace = RateTrace.ramp(2.0, start=10.0, end=20.0, to=6.0, pieces=5)
        volume = sum(
            (end - start) * rate for start, end, rate in trace.segments(30.0)
        )
        # 10 * 2 (before) + 10 * 4 (mean of ramp) + 10 * 6 (after)
        assert volume == pytest.approx(120.0)

    def test_max_rate(self):
        assert RateTrace.step(4.0, at=1.0, to=6.0).max_rate() == 6.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            RateTrace(0.0)
        with pytest.raises(ParameterError):
            RateTrace(1.0, ((5.0, 2.0), (5.0, 3.0)))  # non-increasing times
        with pytest.raises(ParameterError):
            RateTrace(1.0, ((5.0, 0.0),))  # non-positive rate


class TestTracedPoissonArrivals:
    def test_empirical_rate_tracks_the_trace(self):
        trace = RateTrace.step(2.0, at=500.0, to=8.0)
        process = TracedPoissonArrivals(trace)
        rng = np.random.default_rng(42)
        process.reset()
        t, before, after = 0.0, 0, 0
        while t < 1000.0:
            t += process.next_interarrival(rng)
            if t < 500.0:
                before += 1
            elif t < 1000.0:
                after += 1
        assert before / 500.0 == pytest.approx(2.0, rel=0.15)
        assert after / 500.0 == pytest.approx(8.0, rel=0.15)

    def test_reports_initial_rate(self):
        process = TracedPoissonArrivals(RateTrace.step(3.0, at=10.0, to=5.0))
        assert process.rate == 3.0


# ---------------------------------------------------------------------------
# Engine hook extensions
# ---------------------------------------------------------------------------


class _SheddingDispatcher:
    """Routes to server 0, shedding every other task."""

    def __init__(self) -> None:
        self.calls = 0

    def route(self) -> int:
        self.calls += 1
        return -1 if self.calls % 2 == 0 else 0


class TestEngineHooks:
    def _config(self, group, **overrides):
        kwargs = dict(
            total_generic_rate=2.0,
            fractions=(1.0, 0.0, 0.0),
            horizon=500.0,
            warmup=0.0,
            seed=0,
        )
        kwargs.update(overrides)
        return SimulationConfig(**kwargs)

    def test_listeners_observe_arrivals_and_completions(self, group):
        arrivals, completions = [], []
        sim = GroupSimulation(
            group,
            self._config(group),
            arrival_listener=arrivals.append,
            completion_listener=lambda task, now: completions.append(task),
        )
        result = sim.run()
        assert len(arrivals) >= result.generic_completed
        assert arrivals == sorted(arrivals)
        assert len(completions) >= result.generic_completed

    def test_control_events_fire_in_order(self, group):
        fired = []
        controls = [
            (100.0, lambda sim, now: fired.append(now)),
            (200.0, lambda sim, now: fired.append(now)),
            (900.0, lambda sim, now: fired.append(now)),  # beyond horizon
        ]
        GroupSimulation(group, self._config(group), controls=controls).run()
        assert fired == [100.0, 200.0]

    def test_negative_route_sheds(self, group):
        dispatcher = _SheddingDispatcher()
        result = GroupSimulation(
            group, self._config(group), dispatcher=dispatcher
        ).run()
        assert result.generic_shed > 0
        # Shed + completed + in-flight account for every arrival routed.
        assert result.generic_shed == pytest.approx(
            dispatcher.calls / 2, abs=1.0
        )

    def test_invalid_controls_rejected(self, group):
        with pytest.raises(ParameterError):
            GroupSimulation(
                group, self._config(group), controls=[(math.inf, lambda s, t: None)]
            )
        with pytest.raises(ParameterError):
            GroupSimulation(group, self._config(group), controls=[(1.0, "nope")])


class TestEstimatorTimeTolerance:
    """Satellite: configurable backwards-timestamp jitter tolerance."""

    @pytest.mark.parametrize(
        "cls", [EwmaRateEstimator, SlidingWindowRateEstimator]
    )
    def test_strict_by_default(self, cls):
        est = cls(10.0)
        est.observe(5.0)
        with pytest.raises(ParameterError):
            est.observe(4.9999)

    @pytest.mark.parametrize(
        "cls", [EwmaRateEstimator, SlidingWindowRateEstimator]
    )
    def test_jitter_within_tolerance_is_clamped(self, cls):
        est = cls(10.0, time_tolerance=1e-3)
        est.observe(5.0)
        est.observe(5.0 - 5e-4)  # clamped to 5.0, no raise
        assert est.estimate(5.0) > 0.0

    @pytest.mark.parametrize(
        "cls", [EwmaRateEstimator, SlidingWindowRateEstimator]
    )
    def test_gross_violation_still_raises(self, cls):
        est = cls(10.0, time_tolerance=1e-3)
        est.observe(5.0)
        with pytest.raises(ParameterError):
            est.observe(4.0)

    @pytest.mark.parametrize(
        "cls", [EwmaRateEstimator, SlidingWindowRateEstimator]
    )
    def test_invalid_tolerance_rejected(self, cls):
        with pytest.raises(ParameterError):
            cls(10.0, time_tolerance=-1.0)
        with pytest.raises(ParameterError):
            cls(10.0, time_tolerance=math.inf)

    def test_clamp_keeps_estimates_monotone_in_time(self):
        est = EwmaRateEstimator(10.0, time_tolerance=1e-6)
        for t in [1.0, 2.0, 3.0, 3.0 - 1e-7, 4.0]:
            est.observe(t)
        # The clamped stream stayed monotone; estimate() at a jittered
        # query time also clamps instead of raising.
        assert est.estimate(4.0 - 1e-7) > 0.0


class TestIncidentLog:
    def _record(self, kind="solver-failure", time=0.0):
        return IncidentRecord(
            time=time, kind=kind, severity="warning", detail="synthetic"
        )

    def test_emit_and_query(self):
        log = IncidentLog()
        log.emit(self._record("fallback", 1.0))
        log.emit(self._record("fallback", 2.0))
        log.emit(self._record("circuit-open", 3.0))
        assert len(log) == 3
        assert log.total == 3
        assert log.counts == {"fallback": 2, "circuit-open": 1}
        assert [r.time for r in log.of_kind("fallback")] == [1.0, 2.0]

    def test_bounded_capacity_keeps_counts(self):
        log = IncidentLog(capacity=3)
        for t in range(10):
            log.emit(self._record(time=float(t)))
        assert len(log) == 3  # only the newest records retained
        assert [r.time for r in log.records] == [7.0, 8.0, 9.0]
        assert log.total == 10  # ...but totals survive eviction
        assert log.counts["solver-failure"] == 10

    def test_record_serializes(self):
        rec = IncidentRecord(
            time=1.5, kind="fallback", severity="warning",
            detail="d", data={"depth": 2},
        )
        assert rec.to_dict() == {
            "time": 1.5, "kind": "fallback", "severity": "warning",
            "detail": "d", "data": {"depth": 2},
        }


class TestFallbackDepthCounters:
    def test_records_by_source_and_depth(self):
        c = FallbackDepthCounters()
        c.record("primary", 0)
        c.record("primary", 0)
        c.record("fallback:bisection", 1)
        c.record("fallback:proportional", 2)
        assert c.by_source == {
            "primary": 2, "fallback:bisection": 1, "fallback:proportional": 1,
        }
        assert c.by_depth == {0: 2, 1: 1, 2: 1}
        assert c.max_depth == 2
        assert c.sources_used == frozenset(
            {"primary", "fallback:bisection", "fallback:proportional"}
        )

    def test_empty_counters(self):
        c = FallbackDepthCounters()
        assert c.max_depth == 0
        assert c.sources_used == frozenset()


class TestShedTracker:
    def test_episode_counting(self):
        t = ShedTracker()
        t.update(1.0, 0.0)
        assert t.events == 0 and not t.shedding
        t.update(2.0, 0.3)   # episode 1 starts
        t.update(3.0, 0.5)   # still the same episode
        assert t.events == 1 and t.shedding and t.since == 2.0
        t.update(4.0, 0.0)   # episode ends
        assert t.events == 1 and not t.shedding and math.isnan(t.since)
        t.update(5.0, 1.0)   # episode 2 (shed-all)
        assert t.events == 2 and t.peak == 1.0

    def test_invalid_fraction_rejected(self):
        t = ShedTracker()
        with pytest.raises(ParameterError):
            t.update(0.0, -0.1)
        with pytest.raises(ParameterError):
            t.update(0.0, 1.5)


class TestEngineClockAndScheduling:
    def _config(self, group):
        fractions = dispatch(group, 3.0, "fcfs").fractions
        return SimulationConfig(
            total_generic_rate=3.0,
            fractions=tuple(fractions),
            horizon=600.0,
            warmup=0.0,
            seed=11,
        )

    def test_now_property_tracks_the_run(self, group):
        sim = GroupSimulation(group, self._config(group))
        assert sim.now == 0.0
        seen = []
        sim.schedule_control(100.0, lambda s, t: seen.append(s.now))
        sim.run()
        assert seen == [100.0]
        assert sim.now > 0.0

    def test_schedule_control_from_inside_a_run(self, group):
        sim = GroupSimulation(group, self._config(group))
        fired = []

        def chain(s, t):
            fired.append(t)
            if len(fired) < 3:
                s.schedule_control(t + 50.0, chain)

        sim.schedule_control(100.0, chain)
        sim.run()
        assert fired == [100.0, 150.0, 200.0]

    def test_past_control_time_rejected_mid_run(self, group):
        sim = GroupSimulation(group, self._config(group))

        def bad(s, t):
            s.schedule_control(t - 10.0, lambda *_: None)

        sim.schedule_control(100.0, bad)
        with pytest.raises(ParameterError):
            sim.run()
