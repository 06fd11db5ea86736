"""State-aware routing policies and the router registry.

Covers the PR 9 data plane:

* :class:`OptimalPriorPowerOfDRouter` — the d candidates come from the
  optimal split (d=1 *is* the static prior), the least-loaded candidate
  wins, zero-weight servers are structurally unreachable, and the
  checkpoint snapshot reproduces the exact pick sequence (including a
  partially consumed uniform buffer).
* :class:`JoinIdleQueueRouter` — LIFO idle stack fed by completions,
  prior-sampler fallback when every server is busy, stale stack entries
  invalidated on weight change.
* The ``register_router`` registry + :class:`RoutingConfig`, mirroring
  the solver-method registry: duplicate rejection, replace round-trip,
  unknown-policy errors, dict round-trip through ``RuntimeConfig``.
* Robustness: zero-weight and all-dead fleets under the new policies,
  chaos survival for all four built-ins, and the sharded closed loop
  forwarding completions by local index.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exceptions import ParameterError
from repro.core.server import BladeServerGroup
from repro.faults.chaos import run_chaos
from repro.runtime.loop import LoadDistributionRuntime, RuntimeConfig, run_closed_loop
from repro.runtime.policies import (
    JoinIdleQueueRouter,
    OptimalPriorPowerOfDRouter,
    RouterPolicy,
    RoutingConfig,
    available_routers,
    build_router,
    register_router,
    registered_routers,
    router_spec,
)
from repro.runtime.router import AliasTableRouter, SmoothWeightedRoundRobinRouter
from repro.shard import ShardConfig, run_sharded_closed_loop
from repro.sim.task import TaskClass
from repro.workloads.traces import RateTrace

POLICIES = ("swrr", "alias", "pod", "jiq")


@pytest.fixture(scope="module")
def group():
    return BladeServerGroup.from_arrays(
        sizes=[2, 3, 4], speeds=[1.0, 1.2, 1.5], special_rates=[0.2, 0.2, 0.3], rbar=1.0
    )


# ---------------------------------------------------------------------------
# Optimal-prior power-of-d
# ---------------------------------------------------------------------------


class TestPowerOfD:
    def test_d1_matches_prior_frequencies(self):
        weights = [0.5, 0.3, 0.2]
        router = OptimalPriorPowerOfDRouter(weights, np.random.default_rng(0), d=1)
        picks = np.array([router.pick([9, 9, 9]) for _ in range(40_000)])
        freqs = np.bincount(picks, minlength=3) / picks.size
        np.testing.assert_allclose(freqs, weights, atol=0.01)

    def test_stateless_pick_matches_prior_frequencies(self):
        # state=None degrades to the pure prior regardless of d.
        weights = [0.25, 0.75]
        router = OptimalPriorPowerOfDRouter(weights, np.random.default_rng(1), d=4)
        picks = np.array([router.pick() for _ in range(40_000)])
        freqs = np.bincount(picks, minlength=2) / picks.size
        np.testing.assert_allclose(freqs, weights, atol=0.01)

    def test_least_loaded_candidate_wins(self):
        router = OptimalPriorPowerOfDRouter(
            [0.5, 0.5], np.random.default_rng(2), d=8
        )
        # With d=8 over two servers, both are sampled essentially every
        # decision, so the empty server must win (first-sampled wins
        # ties, but there are no ties here).
        picks = [router.pick([50, 0]) for _ in range(300)]
        assert picks.count(1) >= 295

    def test_zero_weight_server_never_sampled(self):
        router = OptimalPriorPowerOfDRouter(
            [0.6, 0.0, 0.4], np.random.default_rng(3), d=3
        )
        # Even maximally idle, a zero-weight server is structurally
        # outside the alias support.
        assert all(router.pick([5, 0, 5]) != 1 for _ in range(3000))

    def test_set_weights_reshapes_support(self):
        router = OptimalPriorPowerOfDRouter(
            [0.5, 0.5], np.random.default_rng(4), d=2
        )
        router.set_weights([0.0, 1.0])
        assert all(router.pick([0, 9]) == 1 for _ in range(200))

    def test_d_validation(self):
        with pytest.raises(ParameterError):
            OptimalPriorPowerOfDRouter([1.0], np.random.default_rng(0), d=0)
        with pytest.raises(ParameterError):
            RoutingConfig(policy="pod", d=0)

    def test_state_dict_round_trip_mid_buffer(self):
        # Consume part of the uniform buffer, snapshot, and check the
        # clone replays the *identical* pick sequence — the unconsumed
        # tail must be persisted, not just the generator state.
        rng = np.random.default_rng(5)
        router = OptimalPriorPowerOfDRouter([0.4, 0.3, 0.3], rng, d=2)
        state = [3, 1, 2]
        for _ in range(17):
            router.pick(state)
        snap = router.state_dict()
        clone = OptimalPriorPowerOfDRouter([1.0, 1.0, 1.0], np.random.default_rng(5))
        # Burn the clone's generator to the same position as the
        # original's (one 1024-draw batch consumed).
        clone._prior._rng.random(1024)
        clone.load_state(snap)
        expected = [router.pick(state) for _ in range(500)]
        replayed = [clone.pick(state) for _ in range(500)]
        assert replayed == expected

    def test_implements_router_policy_protocol(self):
        rng = np.random.default_rng(0)
        assert isinstance(OptimalPriorPowerOfDRouter([1.0], rng), RouterPolicy)
        assert isinstance(JoinIdleQueueRouter([1.0], rng), RouterPolicy)


# ---------------------------------------------------------------------------
# Join-idle-queue
# ---------------------------------------------------------------------------


class TestJoinIdleQueue:
    def test_idle_stack_is_lifo_and_completion_fed(self):
        router = JoinIdleQueueRouter([0.5, 0.3, 0.2], np.random.default_rng(0))
        # Initial stack holds every positive-weight server (0,1,2 pushed
        # in index order, popped LIFO).
        assert [router.pick() for _ in range(3)] == [2, 1, 0]
        router.on_completion(1)
        assert router.pick() == 1

    def test_fallback_to_prior_when_all_busy(self):
        weights = [0.7, 0.3]
        router = JoinIdleQueueRouter(weights, np.random.default_rng(1))
        router.pick(), router.pick()  # drain the stack
        picks = np.array([router.pick() for _ in range(40_000)])
        freqs = np.bincount(picks, minlength=2) / picks.size
        np.testing.assert_allclose(freqs, weights, atol=0.01)

    def test_fallback_counter_tracks_prior_samples(self):
        # Saturation telemetry: every pick answered by the alias prior
        # (idle stack empty) is counted and survives the snapshot.
        router = JoinIdleQueueRouter([0.6, 0.4], np.random.default_rng(7))
        assert router.fallbacks == 0
        router.pick(), router.pick()  # drain the idle stack
        router.pick()
        router.pick()
        assert router.fallbacks == 2
        state = router.state_dict()
        assert state["fallbacks"] == 2
        other = JoinIdleQueueRouter([0.6, 0.4], np.random.default_rng(8))
        other.load_state(state)
        assert other.fallbacks == 2
        # Snapshots from before the counter existed default to zero.
        state.pop("fallbacks")
        other.load_state(state)
        assert other.fallbacks == 0

    def test_zero_weight_server_never_picked(self):
        router = JoinIdleQueueRouter([0.5, 0.0, 0.5], np.random.default_rng(2))
        # Not on the initial stack, not in the fallback support, and a
        # completion for it must not enqueue it.
        router.on_completion(1)
        assert all(router.pick() != 1 for _ in range(2000))

    def test_stale_stack_entry_invalidated_on_weight_change(self):
        router = JoinIdleQueueRouter([0.5, 0.5], np.random.default_rng(3))
        # Server 1 sits idle on the stack; the new split then starves it.
        router.set_weights([1.0, 0.0])
        assert all(router.pick() != 1 for _ in range(200))

    def test_revived_idle_server_resurfaces(self):
        router = JoinIdleQueueRouter([1.0, 0.0], np.random.default_rng(4))
        router.set_weights([0.5, 0.5])
        assert router.pick() == 1  # newly positive + idle → top of stack

    def test_completion_decrements_are_clamped(self):
        router = JoinIdleQueueRouter([1.0], np.random.default_rng(5))
        for _ in range(5):
            router.on_completion(0)  # more completions than picks
        assert router.pick() == 0
        assert router._counts[0] == 1

    def test_state_dict_round_trip(self):
        rng = np.random.default_rng(6)
        router = JoinIdleQueueRouter([0.4, 0.3, 0.3], rng)
        for _ in range(7):
            router.pick()
        router.on_completion(2)
        snap = router.state_dict()
        clone = JoinIdleQueueRouter([1.0, 1.0, 1.0], np.random.default_rng(6))
        clone._prior._rng.random(1024)
        clone.load_state(snap)
        seq = []
        for step in range(300):
            a, b = router.pick(), clone.pick()
            seq.append((a, b))
            if step % 3 == 0:
                router.on_completion(a)
                clone.on_completion(b)
        assert all(a == b for a, b in seq)


# ---------------------------------------------------------------------------
# Registry + RoutingConfig (mirrors the solver-method registry tests)
# ---------------------------------------------------------------------------


def _alias_tables_numpy(weights: np.ndarray):
    """The numpy form of Walker's construction that ``_alias_tables``
    replaced, kept as its oracle: same pops, same arithmetic."""
    n = weights.size
    scaled = weights * n
    prob = np.ones(n)
    alias = np.arange(n)
    small = [i for i in range(n) if scaled[i] < 1.0]
    large = [i for i in range(n) if scaled[i] >= 1.0]
    scaled = scaled.copy()
    while small and large:
        s = small.pop()
        g = large.pop()
        prob[s] = scaled[s]
        alias[s] = g
        scaled[g] = (scaled[g] + scaled[s]) - 1.0
        (small if scaled[g] < 1.0 else large).append(g)
    return prob, alias


def _alias_cases():
    rng = np.random.default_rng(20)
    cases = {"n=1": np.ones(1), "one-hot": np.eye(1, 50, 17)[0]}
    for k in range(4):
        cases[f"random-{k}"] = rng.random(int(rng.integers(2, 400)))
        sparse = rng.random(int(rng.integers(50, 2_000)))
        sparse[rng.random(sparse.size) < 0.95] = 0.0
        sparse[int(rng.integers(sparse.size))] = rng.random() + 0.1
        cases[f"sparse-{k}"] = sparse
    return cases


class TestAliasTables:
    @pytest.mark.parametrize("name", sorted(_alias_cases()))
    def test_alias_tables_match_the_numpy_form(self, name):
        from repro.runtime.router import _alias_tables

        w = _alias_cases()[name]
        w = w / w.sum()
        prob, alias = _alias_tables(w)
        ref_prob, ref_alias = _alias_tables_numpy(w)
        prob, alias = np.asarray(prob), np.asarray(alias)
        assert prob.dtype == ref_prob.dtype and alias.dtype == ref_alias.dtype
        assert prob.tobytes() == ref_prob.tobytes()
        assert np.array_equal(alias, ref_alias)


class TestRouterRegistry:
    def test_builtins_registered(self):
        names = set(available_routers())
        assert {"swrr", "wrr", "alias", "pod", "jiq"} <= names
        assert router_spec("pod").state_aware
        assert router_spec("jiq").state_aware
        assert not router_spec("alias").state_aware

    def test_unknown_policy_rejected(self):
        with pytest.raises(ParameterError, match="unknown routing policy"):
            build_router(
                RoutingConfig(policy="nope"), [1.0], np.random.default_rng(0)
            )

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ParameterError, match="already registered"):
            register_router("alias", lambda w, rng, cfg: None)

    def test_register_replace_round_trip(self):
        calls = []
        original = registered_routers()["alias"]

        def spy(weights, rng, config):
            calls.append(config.policy)
            return original.factory(weights, rng, config)

        register_router("alias", spy, replace=True)
        try:
            router = build_router(
                RoutingConfig(policy="alias"), [1.0], np.random.default_rng(0)
            )
            assert isinstance(router, AliasTableRouter)
            assert calls == ["alias"]
        finally:
            register_router(
                "alias",
                original.factory,
                state_aware=original.state_aware,
                replace=True,
            )

    def test_custom_policy_usable_from_runtime_config(self, group):
        from repro.runtime import policies as policies_module

        register_router("test-swrr-clone", registered_routers()["swrr"].factory)
        try:
            config = RuntimeConfig(routing=RoutingConfig(policy="test-swrr-clone"))
            runtime = LoadDistributionRuntime(group, 3.0, config)
            assert runtime.route() >= 0
        finally:
            policies_module._REGISTRY.pop("test-swrr-clone", None)

    def test_routing_config_validation(self):
        with pytest.raises(ParameterError):
            RoutingConfig(policy="")

    def test_runtime_config_round_trip(self):
        config = RuntimeConfig(routing=RoutingConfig(policy="pod", d=3))
        back = RuntimeConfig.from_dict(config.to_dict())
        assert back == config
        assert back.routing.policy == "pod" and back.routing.d == 3

    def test_legacy_router_field_fallback(self):
        assert RuntimeConfig(router="alias").routing_config() == RoutingConfig(
            policy="alias"
        )
        explicit = RoutingConfig(policy="jiq")
        assert RuntimeConfig(router="alias", routing=explicit).routing_config() is (
            explicit
        )

    def test_unknown_policy_fails_at_runtime_construction(self, group):
        config = RuntimeConfig(routing=RoutingConfig(policy="not-registered"))
        with pytest.raises(ParameterError, match="unknown routing policy"):
            LoadDistributionRuntime(group, 3.0, config)


class TestRegistryBuild:
    def test_alias_is_bit_identical_to_direct_construction(self):
        weights = [0.5, 0.3, 0.2]
        direct = AliasTableRouter(weights, np.random.default_rng(7))
        built = build_router(
            RoutingConfig(policy="alias"), weights, np.random.default_rng(7)
        )
        assert [direct.pick() for _ in range(500)] == [
            built.pick() for _ in range(500)
        ]

    def test_wrr_matches_direct_construction(self):
        weights = [0.6, 0.4]
        direct = SmoothWeightedRoundRobinRouter(weights)
        built = build_router(
            RoutingConfig(policy="wrr"), weights, np.random.default_rng(0)
        )
        assert [direct.pick() for _ in range(100)] == [
            built.pick() for _ in range(100)
        ]


# ---------------------------------------------------------------------------
# Closed-loop integration: every policy through the existing harnesses
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("policy", POLICIES)
class TestClosedLoopIntegration:
    def test_policy_survives_drift_and_failures(self, group, policy):
        config = RuntimeConfig(routing=RoutingConfig(policy=policy, d=2))
        out = run_closed_loop(
            group,
            RateTrace.step(rate=3.0, at=150.0, to=5.0),
            config,
            horizon=400.0,
            seed=7,
            failures=[(200.0, 0, "down"), (300.0, 0, "up")],
        )
        routed = [
            t
            for t in out.sim.task_log
            if t.task_class is TaskClass.GENERIC
        ]
        # The task log holds completed tasks only; the routed counter
        # additionally covers tasks still in flight at the horizon.
        assert routed and out.metrics.counters.routed >= len(routed)
        # No task may land on the downed server during its outage.
        assert not any(
            t.server_index == 0 and 200.0 <= t.arrival_time < 300.0 for t in routed
        )

    def test_all_dead_fleet_sheds_instead_of_crashing(self, group, policy):
        config = RuntimeConfig(routing=RoutingConfig(policy=policy, d=2))
        failures = [(100.0, i, "down") for i in range(group.n)]
        out = run_closed_loop(
            group,
            RateTrace.constant(3.0),
            config,
            horizon=200.0,
            seed=3,
            failures=failures,
        )
        assert out.metrics.counters.shed > 0
        assert not any(
            t.task_class is TaskClass.GENERIC and t.arrival_time > 110.0
            for t in out.sim.task_log
        )

    def test_policy_survives_chaos_suite(self, group, policy):
        config = RuntimeConfig(routing=RoutingConfig(policy=policy, d=2))
        report = run_chaos(
            group, 3.0, seeds=range(3), horizon=250.0, config=config
        )
        assert report.all_completed
        assert report.total_routed_to_down == 0

    def test_policy_survives_sharded_closed_loop(self, group, policy):
        config = RuntimeConfig(routing=RoutingConfig(policy=policy, d=2))
        report = run_sharded_closed_loop(
            group,
            RateTrace.constant(3.0),
            config,
            ShardConfig(shards=2),
            horizon=200.0,
            seed=11,
        )
        assert report.sim.generic_response_time > 0.0
        # Completions were forwarded (by local index) to live shards.
        assert int(report.dispatcher.completions_by_shard.sum()) > 0
        assert report.dispatcher.dropped_completions == 0
