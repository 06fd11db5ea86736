"""Tests for the sharded control plane (repro/shard/).

Covers partitioning (all three strategies plus validation), cross-shard
optimality — randomized heterogeneous fleets, parked servers, the
saturation edge, asserting the hierarchical solve matches the flat
Newton/KKT optimum to <= 1e-8 in total mean response time — the exact
certificate (all shards live: bit-identical to ``solve_newton``; live
mask: bit-identical to ``solve_newton`` on the survivors), scalar
warm starts, the ``plan=`` partition
argument (``solve_sharded`` is deliberately not a ``repro.solve``
backend), the live-masked failover solve (the exact optimum of the
surviving servers), and the multi-dispatcher closed loop with per-shard
journal/checkpoint generations.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest

import repro
from repro import ShardConfig, solve
from repro.core.exceptions import ParameterError
from repro.core.newton import solve_newton
from repro.core.server import BladeServer, BladeServerGroup
from repro.recovery import RecoveryConfig
from repro.runtime.loop import RuntimeConfig
from repro.shard import (
    ShardedDispatcher,
    partition_group,
    run_sharded_closed_loop,
    shard_seeds,
    solve_sharded,
)
from repro.shard.runtime import _default_coordinator_solve
from repro.workloads.traces import RateTrace

#: Acceptance bound on |T'_sharded - T'_flat| / T'_flat.
AGREEMENT = 1e-8


def random_group(rng: np.random.Generator, n: int) -> BladeServerGroup:
    """A heterogeneous group with mixed sizes/speeds/special preloads."""
    servers = []
    for _ in range(n):
        m = int(rng.integers(1, 9))
        speed = float(rng.uniform(0.4, 3.0))
        special = float(rng.uniform(0.0, 0.4) * m * speed)
        servers.append(BladeServer(size=m, speed=speed, special_rate=special))
    return BladeServerGroup(servers, rbar=1.0)


class TestPartition:
    def test_contiguous_covers_everything_once(self):
        g = random_group(np.random.default_rng(1), 23)
        plan = partition_group(g, ShardConfig(shards=5))
        seen = sorted(i for s in plan.shards for i in s.members)
        assert seen == list(range(23))
        assert plan.n_shards == 5
        assert {s.n for s in plan.shards} <= {4, 5}

    def test_type_strategy_groups_like_hardware(self):
        servers = [BladeServer(size=2, speed=2.0) for _ in range(6)] + [
            BladeServer(size=8, speed=0.5) for _ in range(6)
        ]
        g = BladeServerGroup(servers, rbar=1.0)
        plan = partition_group(g, ShardConfig(shards=2, strategy="type"))
        # Slicing the type-sorted order puts each hardware class in its
        # own shard (fast blades rank first).
        fast = set(range(6))
        assert set(plan.shards[0].members) == fast
        assert set(plan.shards[1].members) == set(range(6, 12))

    def test_custom_assignment_respected(self):
        g = random_group(np.random.default_rng(2), 6)
        cfg = ShardConfig(
            shards=2, strategy="custom", assignment=(0, 1, 0, 1, 0, 1)
        )
        plan = partition_group(g, cfg)
        assert plan.shards[0].members == (0, 2, 4)
        assert plan.shards[1].members == (1, 3, 5)
        np.testing.assert_array_equal(
            plan.assignment, np.array([0, 1, 0, 1, 0, 1])
        )

    def test_shard_count_clamped_to_group_size(self):
        g = random_group(np.random.default_rng(3), 3)
        plan = partition_group(g, ShardConfig(shards=8))
        assert plan.n_shards == 3
        assert all(s.n == 1 for s in plan.shards)

    def test_custom_validation(self):
        g = random_group(np.random.default_rng(4), 4)
        with pytest.raises(ParameterError):  # wrong length
            partition_group(
                g, ShardConfig(shards=2, strategy="custom", assignment=(0, 1))
            )
        with pytest.raises(ParameterError):  # id out of range
            partition_group(
                g,
                ShardConfig(
                    shards=2, strategy="custom", assignment=(0, 1, 2, 0)
                ),
            )
        with pytest.raises(ParameterError):  # shard 1 empty
            partition_group(
                g,
                ShardConfig(
                    shards=2, strategy="custom", assignment=(0, 0, 0, 0)
                ),
            )

    def test_config_validation_and_roundtrip(self):
        with pytest.raises(ParameterError):
            ShardConfig(shards=0)
        with pytest.raises(ParameterError):
            ShardConfig(strategy="mystery")
        with pytest.raises(ParameterError):  # assignment without custom
            ShardConfig(assignment=(0, 1))
        with pytest.raises(ParameterError):  # custom without assignment
            ShardConfig(strategy="custom")
        cfg = ShardConfig(shards=3, strategy="custom", assignment=(0, 1, 2, 1))
        assert ShardConfig.from_dict(cfg.to_dict()) == cfg

    def test_expand_scatters_local_vectors(self):
        g = random_group(np.random.default_rng(5), 9)
        plan = partition_group(g, ShardConfig(shards=3))
        full = plan.expand(
            [np.full(s.n, float(s.index)) for s in plan.shards]
        )
        np.testing.assert_array_equal(full, plan.assignment.astype(float))


class TestCrossShardOptimality:
    @pytest.mark.parametrize("strategy", ["contiguous", "type"])
    @pytest.mark.parametrize("discipline", ["fcfs", "priority"])
    def test_matches_flat_newton_randomized(self, strategy, discipline):
        rng = np.random.default_rng(7)
        for trial in range(6):
            g = random_group(rng, int(rng.integers(8, 70)))
            lam = float(rng.uniform(0.3, 0.85)) * g.max_generic_rate
            flat = solve_newton(g, lam, discipline, tol=1e-12)
            sharded = solve_sharded(
                g,
                lam,
                discipline,
                tol=1e-12,
                plan=partition_group(
                    g,
                    ShardConfig(
                        shards=int(rng.integers(2, 7)), strategy=strategy
                    ),
                ),
            )
            rel = abs(
                sharded.mean_response_time - flat.mean_response_time
            ) / flat.mean_response_time
            assert rel <= AGREEMENT, (trial, rel)
            assert abs(float(sharded.generic_rates.sum()) - lam) <= 1e-9 * lam

    def test_parked_servers_stay_parked(self):
        # At light load the water-filling parks the slow half of the
        # fleet; the sharded solve must park exactly the same servers.
        servers = [BladeServer(size=2, speed=2.0) for _ in range(8)] + [
            BladeServer(size=2, speed=0.05) for _ in range(8)
        ]
        g = BladeServerGroup(servers, rbar=1.0)
        lam = 0.05 * g.max_generic_rate
        flat = solve_newton(g, lam, tol=1e-12)
        sharded = solve_sharded(
            g, lam, tol=1e-12, plan=partition_group(g, ShardConfig(shards=4))
        )
        assert (flat.generic_rates[8:] == 0.0).all()
        assert (sharded.generic_rates[8:] == 0.0).all()
        rel = abs(
            sharded.mean_response_time - flat.mean_response_time
        ) / flat.mean_response_time
        assert rel <= AGREEMENT

    def test_saturation_edge(self):
        rng = np.random.default_rng(11)
        g = random_group(rng, 24)
        lam = 0.999 * g.max_generic_rate
        flat = solve_newton(g, lam, tol=1e-12)
        sharded = solve_sharded(
            g, lam, tol=1e-12, plan=partition_group(g, ShardConfig(shards=6))
        )
        rel = abs(
            sharded.mean_response_time - flat.mean_response_time
        ) / flat.mean_response_time
        assert rel <= AGREEMENT
        assert abs(float(sharded.generic_rates.sum()) - lam) <= 1e-9 * lam

    def test_single_shard_degenerates_to_flat(self):
        g = random_group(np.random.default_rng(13), 20)
        lam = 0.6 * g.max_generic_rate
        flat = solve_newton(g, lam, tol=1e-12)
        sharded = solve_sharded(
            g, lam, tol=1e-12, plan=partition_group(g, ShardConfig(shards=1))
        )
        np.testing.assert_allclose(
            sharded.generic_rates, flat.generic_rates, atol=1e-9
        )


class TestExactCertificate:
    """``solve_sharded`` is flat Newton on the live members, bit for bit."""

    @pytest.mark.parametrize("discipline", ["fcfs", "priority"])
    def test_all_live_equals_flat_newton(self, discipline):
        rng = np.random.default_rng(71)
        for trial in range(4):
            g = random_group(rng, int(rng.integers(8, 50)))
            lam = float(rng.uniform(0.2, 0.9)) * g.max_generic_rate
            hint = solve_newton(g, 0.97 * lam, discipline).phi
            plans = [
                partition_group(g, ShardConfig(shards=4)),
                partition_group(g, ShardConfig(shards=4, strategy="type")),
                partition_group(
                    g,
                    ShardConfig(
                        shards=3,
                        strategy="custom",
                        assignment=tuple(i % 3 for i in range(g.n)),
                    ),
                ),
            ]
            for phi_hint in (None, hint):
                flat = solve_newton(g, lam, discipline, phi_hint=phi_hint)
                for plan in plans:
                    res = solve_sharded(
                        g, lam, discipline, phi_hint=phi_hint, plan=plan
                    )
                    key = (trial, plan.config.strategy, phi_hint)
                    assert np.array_equal(
                        res.generic_rates, flat.generic_rates
                    ), key
                    assert res.phi == flat.phi, key
                    assert res.iterations == flat.iterations, key

    @pytest.mark.parametrize("discipline", ["fcfs", "priority"])
    def test_masked_equals_flat_newton_on_survivors(self, discipline):
        rng = np.random.default_rng(73)
        for trial in range(6):
            g = random_group(rng, int(rng.integers(8, 50)))
            # The type strategy interleaves shard members, so the
            # survivors are not a contiguous slice of the group.
            plan = partition_group(g, ShardConfig(shards=4, strategy="type"))
            live = np.ones(plan.n_shards, dtype=bool)
            live[int(rng.integers(plan.n_shards))] = False
            alive = live[plan.assignment]
            survivors = np.flatnonzero(alive)
            subgroup = BladeServerGroup(
                (g.servers[i] for i in survivors), rbar=g.rbar
            )
            lam = float(rng.uniform(0.2, 0.85)) * subgroup.max_generic_rate
            flat = solve_newton(subgroup, lam, discipline)
            res = solve_sharded(g, lam, discipline, plan=plan, live=live)
            assert np.array_equal(
                res.generic_rates[survivors], flat.generic_rates
            ), trial
            assert res.phi == flat.phi and res.iterations == flat.iterations
            assert (res.generic_rates[~alive] == 0.0).all()


class TestWarmStarts:
    def test_scalar_hint_matches_cold(self):
        g = random_group(np.random.default_rng(19), 30)
        lam = 0.6 * g.max_generic_rate
        plan = partition_group(g, ShardConfig(shards=5))
        cold = solve_sharded(g, lam, tol=1e-12, plan=plan)
        warm = solve_sharded(
            g,
            1.05 * lam,
            tol=1e-12,
            plan=plan,
            phi_hint=cold.phi,
        )
        ref = solve_sharded(g, 1.05 * lam, tol=1e-12, plan=plan)
        np.testing.assert_allclose(
            warm.generic_rates, ref.generic_rates, atol=1e-8
        )

    def test_scalar_and_garbage_hints_are_safe(self):
        g = random_group(np.random.default_rng(23), 16)
        lam = 0.5 * g.max_generic_rate
        plan = partition_group(g, ShardConfig(shards=4))
        ref = solve_sharded(g, lam, tol=1e-12, plan=plan)
        for hint in (ref.phi, ref.phi * 1e30, float("nan"), -3.0):
            res = solve_sharded(g, lam, tol=1e-12, plan=plan, phi_hint=hint)
            np.testing.assert_allclose(
                res.generic_rates, ref.generic_rates, atol=1e-8
            )


class TestFacade:
    def test_not_a_facade_backend(self, paper_group):
        # The sharded solve is partition plumbing for the sharded
        # runtime, not a repro.solve backend: flat newton gives the
        # same answer in about the same time.
        from repro.workloads.paper import EXAMPLE_TOTAL_RATE

        assert "sharded" not in repro.available_methods()
        with pytest.raises(ParameterError):
            solve(paper_group, EXAMPLE_TOTAL_RATE, method="sharded")

    def test_solve_method_sharded(self, paper_group):
        from repro.workloads.paper import EXAMPLE_TOTAL_RATE

        res = solve_sharded(
            paper_group,
            EXAMPLE_TOTAL_RATE,
            plan=partition_group(paper_group, ShardConfig(shards=3)),
        )
        flat = solve(paper_group, EXAMPLE_TOTAL_RATE, method="newton")
        assert res.method == "sharded-hierarchical"
        rel = abs(
            res.mean_response_time - flat.mean_response_time
        ) / flat.mean_response_time
        assert rel <= AGREEMENT

    def test_conflicting_partition_kwargs_rejected(self):
        g = random_group(np.random.default_rng(59), 8)
        lam = 0.3 * g.max_generic_rate
        plan = partition_group(g, ShardConfig(shards=2))
        other = random_group(np.random.default_rng(60), 8)
        with pytest.raises(ParameterError):
            solve_sharded(other, lam, plan=plan)

    def test_metadata_surface(self):
        g = random_group(np.random.default_rng(61), 15)
        lam = 0.5 * g.max_generic_rate
        res = solve_sharded(
            g, lam, plan=partition_group(g, ShardConfig(shards=3, strategy="type"))
        )
        md = res.metadata
        assert md["shards"] == 3 and md["strategy"] == "type"
        assert md["candidates"] == 15
        assert len(md["shard_loads"]) == 3
        assert abs(sum(md["shard_loads"]) - lam) <= 1e-8 * lam


class TestShardedClosedLoop:
    def test_multi_dispatcher_run_with_per_shard_recovery(self, tmp_path):
        g = BladeServerGroup.with_special_fraction(
            sizes=[2, 4, 6, 8, 10, 12, 14] * 2,
            speeds=[1.6, 1.5, 1.4, 1.3, 1.2, 1.1, 1.0] * 2,
            fraction=0.3,
        )
        trace = RateTrace.constant(40.0)
        config = RuntimeConfig(
            router="alias",
            resolve_period=40.0,
            recovery=RecoveryConfig(enabled=True, directory=str(tmp_path)),
        )
        report = run_sharded_closed_loop(
            g,
            trace,
            config,
            ShardConfig(shards=4),
            horizon=240.0,
            warmup=40.0,
            seed=5,
            rebalance_period=50.0,
            collect_tasks=False,
        )
        assert report.rebalances >= 3
        assert len(report.runtimes) == 4
        assert abs(sum(report.shard_shares) - 1.0) <= 1e-12
        # Every shard dispatcher owns its own journal and checkpoint
        # generation; no two shards share files.
        assert len(report.recovery_dirs) == 4
        for directory in report.recovery_dirs:
            assert os.path.isfile(os.path.join(directory, "journal.jsonl"))
            assert glob.glob(os.path.join(directory, "checkpoint-*.json"))
        # Each shard actually carried traffic.
        for runtime in report.runtimes:
            assert runtime.metrics.counters.arrivals > 0
        assert report.sim.generic_completed > 0

    def test_rebalance_tracks_drifting_load(self):
        g = BladeServerGroup.with_special_fraction(
            sizes=[2, 4, 6, 8, 10, 12, 14],
            speeds=[1.6, 1.5, 1.4, 1.3, 1.2, 1.1, 1.0],
            fraction=0.3,
        )
        trace = RateTrace.step(20.0, at=120.0, to=32.0)
        config = RuntimeConfig(router="alias", time_constant=30.0)
        report = run_sharded_closed_loop(
            g,
            trace,
            config,
            ShardConfig(shards=2),
            horizon=360.0,
            warmup=30.0,
            seed=9,
            rebalance_period=40.0,
            collect_tasks=False,
        )
        assert report.rebalances >= 8
        # After the step the coordinator re-splits around the higher
        # offered rate; the dispatcher-level shares stay normalized.
        assert abs(sum(report.shard_shares) - 1.0) <= 1e-12
        assert report.sim.generic_completed > 0


class TestShardSeeds:
    def test_deterministic_and_distinct_within_base(self):
        a = shard_seeds(42, 6)
        assert a == shard_seeds(42, 6)
        assert len(set(a)) == 6

    def test_no_cross_base_aliasing(self):
        # The old affine rule (base + 7919 * (s + 1)) made shard s of
        # base b collide with shard s - 1 of base b + 7919, so two
        # "independent" experiment replications shared whole runtime
        # streams.  SeedSequence spawning keeps every (base, shard)
        # pair disjoint.
        for base in (0, 1, 7919, 7920, 2 * 7919):
            for other in (base + 7919, base + 2 * 7919):
                ours = set(shard_seeds(base, 5))
                theirs = set(shard_seeds(other, 5))
                assert ours.isdisjoint(theirs), (base, other)

    def test_rejects_empty_fleet(self):
        with pytest.raises(ParameterError):
            shard_seeds(0, 0)


class TestDispatcherEdgeCases:
    def _dispatcher(self, shares=None):
        g = BladeServerGroup.with_special_fraction(
            sizes=[2, 4, 6, 8], speeds=[1.5, 1.3, 1.2, 1.0], fraction=0.3
        )
        plan = partition_group(g, ShardConfig(shards=2))
        from repro.runtime.loop import LoadDistributionRuntime

        runtimes = [
            LoadDistributionRuntime(s.group, 4.0, RuntimeConfig())
            for s in plan.shards
        ]
        if shares is None:
            shares = np.array([0.5, 0.5])
        bootstrap = solve_sharded(g, 8.0, plan=plan)
        return ShardedDispatcher(
            plan, runtimes, shares, np.random.default_rng(123), bootstrap.phi * 8.0
        )

    def test_zero_total_shares_fall_back_to_uniform(self):
        dispatcher = self._dispatcher()
        dispatcher.set_shares(np.zeros(2))
        np.testing.assert_allclose(dispatcher.shares, [0.5, 0.5])

    def test_exact_zero_share_shard_never_drawn(self):
        dispatcher = self._dispatcher(shares=np.array([0.0, 1.0]))
        for _ in range(2000):
            dispatcher.observe_arrival(0.0)
            assert dispatcher._pending == 1

    def test_member_shed_decision_passes_through(self):
        # A shard runtime answering -1 (its own shed decision) must
        # surface as -1 from the composite, not as a mangled global
        # index.
        dispatcher = self._dispatcher(shares=np.array([1.0, 0.0]))
        dispatcher.runtimes[0].route = lambda servers=None: -1
        dispatcher.observe_arrival(0.0)
        assert dispatcher.route() == -1

    @pytest.mark.parametrize(
        "shares",
        [[-0.1, 1.1], [np.nan, 1.0], [np.inf, 1.0]],
        ids=["negative", "nan", "inf"],
    )
    def test_negative_share_rejected(self, shares):
        dispatcher = self._dispatcher()
        with pytest.raises(ParameterError):
            dispatcher.set_shares(np.array(shares))


class TestWarmRebalance:
    def test_warm_rebalance_after_rate_drop_costs_no_more_than_cold(self):
        # A rebalance warm-starts from the previous solve's multiplier;
        # after the offered rate drops that hint must not cost more
        # outer iterations than solving from scratch.
        from repro.runtime.loop import LoadDistributionRuntime

        g = BladeServerGroup(
            [
                BladeServer(size=1 + i % 16, speed=0.6 + 0.01 * (i % 120))
                for i in range(64)
            ],
            rbar=1.0,
        )
        plan = partition_group(g, ShardConfig(shards=8))
        lam = 0.192
        runtimes = [
            LoadDistributionRuntime(s.group, lam / 8, RuntimeConfig())
            for s in plan.shards
        ]
        results = []

        def recording_solve(*args, **kwargs):
            result = _default_coordinator_solve(*args, **kwargs)
            results.append(result)
            return result

        bootstrap = solve_sharded(g, lam, plan=plan)
        dispatcher = ShardedDispatcher(
            plan,
            runtimes,
            np.full(8, 1 / 8),
            np.random.default_rng(0),
            bootstrap.phi * lam,
            solve_fn=recording_solve,
        )
        readings = iter([lam, 0.98 * lam])

        class StubRateView:
            def estimate(self, now):
                return next(readings)

        dispatcher._rate_view = StubRateView()
        dispatcher.rebalance(0.0)
        dispatcher.rebalance(1.0)
        cold = solve_sharded(g, 0.98 * lam, plan=plan)
        assert len(results) == 2
        assert results[1].iterations <= cold.iterations

    def test_bootstrap_seeded_rebalance_is_warm_in_the_right_units(self):
        # phi carries a factor 1/lambda', so the dispatcher rescales the
        # bootstrap's multiplier to the rebalance rate: the re-solve
        # lands on the answer at once and agrees with a cold solve.
        # The rates are fleet-sharded's per-server load (150 and 225/s
        # over 50,000 servers), where phi * lambda' is flat to float
        # precision.
        from repro.runtime.loop import LoadDistributionRuntime

        n = 2_000
        g = BladeServerGroup(
            [
                BladeServer(size=1 + i % 16, speed=0.6 + 0.01 * (i % 120))
                for i in range(n)
            ],
            rbar=1.0,
        )
        plan = partition_group(g, ShardConfig(shards=8))
        lam0, lam1, lam2 = 6.0, 9.0, 8.0
        bootstrap = solve_sharded(g, lam0, plan=plan)
        loads = np.asarray(bootstrap.metadata["shard_loads"])
        runtimes = [
            LoadDistributionRuntime(s.group, float(loads[s.index]), RuntimeConfig())
            for s in plan.shards
        ]
        results = []

        def recording_solve(*args, **kwargs):
            result = _default_coordinator_solve(*args, **kwargs)
            results.append(result)
            return result

        dispatcher = ShardedDispatcher(
            plan,
            runtimes,
            loads,
            np.random.default_rng(0),
            bootstrap.phi * lam0,
            solve_fn=recording_solve,
        )
        readings = iter([lam1, lam2])

        class StubRateView:
            def estimate(self, now):
                return next(readings)

        dispatcher._rate_view = StubRateView()
        dispatcher.rebalance(0.0)
        warm = results[0]
        cold = solve_sharded(g, lam1, plan=plan)
        assert warm.iterations <= 2 < cold.iterations
        np.testing.assert_allclose(
            warm.metadata["shard_loads"], cold.metadata["shard_loads"], rtol=1e-12
        )
        assert warm.mean_response_time == pytest.approx(
            cold.mean_response_time, rel=1e-12
        )

        # A failover rebalance after the hinted one is still the exact
        # optimum of the surviving servers.
        live = np.ones(8, dtype=bool)
        live[3] = False
        dispatcher.rebalance(1.0, live=live)
        masked = results[1]
        survivors = np.concatenate(
            [np.asarray(s.members) for s in plan.shards if live[s.index]]
        )
        subgroup = BladeServerGroup((g.servers[i] for i in survivors), rbar=g.rbar)
        flat = solve_newton(subgroup, lam2)
        t_masked = subgroup.mean_response_time(masked.generic_rates[survivors])
        assert t_masked == pytest.approx(flat.mean_response_time, rel=1e-9)
        assert masked.metadata["shard_loads"][3] == 0.0


class TestLiveMaskedSolve:
    def test_masked_solve_excludes_dead_shard(self):
        g = BladeServerGroup.with_special_fraction(
            sizes=[2, 4, 6, 8, 10, 12], speeds=[1.5, 1.4, 1.3, 1.2, 1.1, 1.0],
            fraction=0.3,
        )
        cfg = ShardConfig(shards=3)
        plan = partition_group(g, cfg)
        live = np.array([True, False, True])
        res = solve_sharded(g, 10.0, plan=plan, live=live)
        loads = np.asarray(res.metadata["shard_loads"])
        assert loads[1] == 0.0
        assert loads[live].sum() == pytest.approx(10.0)
        assert res.metadata["live_shards"] == [True, False, True]
        # Dead shard's servers carry exactly zero.
        members = plan.shards[1].members
        assert all(res.generic_rates[i] == 0.0 for i in members)

    def test_masked_solve_infeasible_when_survivors_cannot_carry(self):
        from repro.core.exceptions import InfeasibleError

        g = BladeServerGroup.with_special_fraction(
            sizes=[2, 4, 6, 8, 10, 12], speeds=[1.5, 1.4, 1.3, 1.2, 1.1, 1.0],
            fraction=0.3,
        )
        cfg = ShardConfig(shards=3)
        plan = partition_group(g, cfg)
        # Only the smallest shard survives; the full-fleet rate cannot fit.
        live = np.array([True, False, False])
        lam = 0.9 * plan.group.max_generic_rate
        with pytest.raises(InfeasibleError):
            solve_sharded(g, lam, plan=plan, live=live)

    def test_all_dead_mask_rejected(self):
        from repro.core.exceptions import InfeasibleError

        g = BladeServerGroup.with_special_fraction(
            sizes=[2, 4], speeds=[1.2, 1.0], fraction=0.3
        )
        plan = partition_group(g, ShardConfig(shards=2))
        with pytest.raises(InfeasibleError):
            solve_sharded(g, 1.0, plan=plan, live=np.array([False, False]))

    def test_live_capacity_matches_mask(self):
        g = BladeServerGroup.with_special_fraction(
            sizes=[2, 4, 6], speeds=[1.2, 1.1, 1.0], fraction=0.3
        )
        plan = partition_group(g, ShardConfig(shards=3))
        full = plan.live_capacity()
        assert full == pytest.approx(g.max_generic_rate)
        mask = np.array([True, False, True])
        masked = plan.live_capacity(mask)
        assert masked == pytest.approx(
            plan.shards[0].capacity + plan.shards[2].capacity
        )
        with pytest.raises(ParameterError):
            plan.live_capacity(np.array([True, False]))

    @pytest.mark.parametrize("discipline", ["fcfs", "priority"])
    def test_masked_solve_is_the_survivors_optimum(self, discipline):
        # Failover's re-solve must be the exact optimum of the servers
        # that are left: restricted to the live members it matches a
        # flat Newton solve over just those servers.
        rng = np.random.default_rng(67)
        for trial in range(10):
            g = random_group(rng, int(rng.integers(6, 61)))
            plan = partition_group(
                g, ShardConfig(shards=int(rng.integers(2, 6)))
            )
            live = np.ones(plan.n_shards, dtype=bool)
            live[int(rng.integers(plan.n_shards))] = False
            survivors = np.concatenate(
                [np.asarray(s.members) for s in plan.shards if live[s.index]]
            )
            subgroup = BladeServerGroup(
                (g.servers[i] for i in survivors), rbar=g.rbar
            )
            lam = float(rng.uniform(0.2, 0.85)) * subgroup.max_generic_rate
            masked = solve_sharded(
                g, lam, discipline, tol=1e-12, plan=plan, live=live
            )
            flat = solve_newton(subgroup, lam, discipline, tol=1e-12)
            t_masked = subgroup.mean_response_time(
                masked.generic_rates[survivors], discipline
            )
            rel = abs(t_masked - flat.mean_response_time) / (
                flat.mean_response_time
            )
            assert rel <= 1e-9, (trial, rel)
