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
from repro.shard.runtime import _default_coordinator_solve, bootstrap_restriction
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


class TestShardedCallLifetime:
    """A finished sharded call is freed by reference counting alone."""

    def test_sharded_call_leaves_no_cyclic_garbage(self, tmp_path, cyclic_garbage):
        import weakref

        engines, collect = cyclic_garbage
        g = BladeServerGroup(
            [
                BladeServer(size=1 + (i % 16), speed=0.6 + 0.01 * (i % 120))
                for i in range(2_000)
            ]
        )
        config = RuntimeConfig(
            router="alias",
            resolve_period=3.0,
            recovery=RecoveryConfig(enabled=True, directory=str(tmp_path)),
        )
        report = run_sharded_closed_loop(
            g,
            RateTrace.step(150.0, at=4.0, to=225.0),
            config,
            ShardConfig(shards=8),
            horizon=8.0,
            warmup=0.8,
            seed=7,
            rebalance_period=3.0,
            collect_tasks=False,
        )
        assert report.rebalances == 2
        refs = [weakref.ref(report.dispatcher), *engines]
        refs += [weakref.ref(runtime) for runtime in report.runtimes]
        assert len(refs) == 10
        del report
        assert [r() for r in refs] == [None] * 10
        assert collect() == []


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
        dispatcher.runtimes[0].route = lambda: -1
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


class TestRebalanceFrame:
    """A rebalance solves from the plan's cached frame, bit for bit."""

    @staticmethod
    def _fleet(n: int) -> BladeServerGroup:
        # fleet-sharded's shape, with a special stream on every fifth
        # server so the priority discipline differs from FCFS.
        return BladeServerGroup(
            [
                BladeServer(
                    size=1 + i % 16,
                    speed=0.6 + 0.01 * (i % 120),
                    special_rate=0.1 * (i % 5 == 0),
                )
                for i in range(n)
            ],
            rbar=1.0,
        )

    @staticmethod
    def _assert_kkt(g, result, lam, live_servers, discipline):
        # The optimum's certificate, from the scalar marginals: parked
        # servers have g_i(0) >= phi, loaded ones below their ceiling
        # have g_i = phi.
        from repro.core.bisection import STABILITY_MARGIN
        from repro.core.objective import marginal_cost

        phi = result.phi
        for i in live_servers:
            srv = g.servers[i]
            rate = float(result.generic_rates[i])
            cost = marginal_cost(
                srv.size, srv.xbar(g.rbar), srv.special_rate, rate, lam, discipline
            )
            if rate == 0.0:
                assert cost >= phi * (1.0 - 1e-12), i
            elif rate < (1.0 - STABILITY_MARGIN) * g.spare_capacities[i]:
                assert cost == pytest.approx(phi, rel=1e-9), i

    @pytest.mark.parametrize("discipline", ["fcfs", "priority"])
    def test_rebalances_match_fresh_solves_without_fleet_passes(
        self, monkeypatch, discipline
    ):
        from repro.core import newton
        from repro.runtime.loop import LoadDistributionRuntime

        g = self._fleet(2_000)
        plan = partition_group(g, ShardConfig(shards=8))
        assert plan.assignment is plan.assignment
        assert not plan.assignment.flags.writeable
        lam0 = 6.0
        bootstrap = solve_sharded(g, lam0, discipline, plan=plan)
        loads = np.asarray(bootstrap.metadata["shard_loads"])
        config = RuntimeConfig(discipline=discipline)
        runtimes = [
            LoadDistributionRuntime(s.group, float(loads[s.index]), config)
            for s in plan.shards
        ]
        calls = []

        def recording_solve(*args, **kwargs):
            result = _default_coordinator_solve(*args, **kwargs)
            calls.append((args[1], kwargs, result))
            return result

        dispatcher = ShardedDispatcher(
            plan,
            runtimes,
            loads,
            np.random.default_rng(0),
            bootstrap.phi * lam0,
            solve_fn=recording_solve,
        )
        readings = iter([9.0, 8.0, 7.0, 7.5])

        class StubRateView:
            def estimate(self, now):
                return next(readings)

        dispatcher._rate_view = StubRateView()
        sizes = []
        kernel = newton.marginal_cost_and_slope_vec

        def recording_kernel(ms, *args):
            sizes.append(ms.shape[0])
            return kernel(ms, *args)

        monkeypatch.setattr(newton, "marginal_cost_and_slope_vec", recording_kernel)
        dead3 = np.ones(8, dtype=bool)
        dead3[3] = False
        dead5 = np.ones(8, dtype=bool)
        dead5[5] = False
        # All live, a failover mask, all live at a new rate, and a
        # second mask with as many candidates as the first.
        for step, live in enumerate([None, dead3, None, dead5]):
            sizes.clear()
            dispatcher.rebalance(float(step), live=live)
            lam, kwargs, result = calls[-1]
            alive = np.ones(g.n, dtype=bool) if live is None else live[plan.assignment]
            survivors = np.flatnonzero(alive)
            assert sizes and g.n not in sizes and survivors.size not in sizes, step

            fresh = solve_sharded(
                g,
                lam,
                discipline,
                phi_hint=kwargs["phi_hint"],
                plan=partition_group(g, plan.config),
                live=live,
            )
            assert np.array_equal(result.generic_rates, fresh.generic_rates), step
            assert result.phi == fresh.phi, step
            assert result.metadata["shard_loads"] == fresh.metadata["shard_loads"]
            fresh_loads = np.asarray(fresh.metadata["shard_loads"])
            np.testing.assert_array_equal(
                dispatcher.shares, fresh_loads / fresh_loads.sum()
            )

            # The survivors' flat solve shares no cached frame.
            subgroup = BladeServerGroup((g.servers[i] for i in survivors), rbar=g.rbar)
            flat = solve_newton(subgroup, lam, discipline, phi_hint=kwargs["phi_hint"])
            assert np.array_equal(result.generic_rates[survivors], flat.generic_rates)
            assert result.phi == flat.phi, step
            self._assert_kkt(g, result, lam, survivors, discipline)


class TestBootstrapRestriction:
    """The bootstrap fleet solve restricted to a shard is its optimum."""

    @staticmethod
    def _fleet(n: int, special: bool) -> BladeServerGroup:
        sizes = [1 + i % 16 for i in range(n)]
        speeds = [0.6 + 0.01 * (i % 120) for i in range(n)]
        if special:
            return BladeServerGroup.with_special_fraction(
                sizes=sizes, speeds=speeds, fraction=0.3
            )
        return BladeServerGroup(
            [BladeServer(size=m, speed=s) for m, s in zip(sizes, speeds)], rbar=1.0
        )

    @pytest.mark.parametrize("load", [0.0003, 0.3, 0.6])
    @pytest.mark.parametrize("special", [False, True])
    @pytest.mark.parametrize("discipline", ["fcfs", "priority"])
    def test_restriction_is_the_shard_optimum(self, discipline, special, load):
        g = self._fleet(2_000, special)
        plan = partition_group(g, ShardConfig(shards=8))
        lam = load * g.max_generic_rate
        bootstrap = solve_sharded(g, lam, discipline, plan=plan)
        for shard in plan.shards:
            restriction = bootstrap_restriction(bootstrap, shard, lam)
            g_s = restriction.total_rate
            assert g_s == pytest.approx(bootstrap.metadata["shard_loads"][shard.index])
            flat = solve_newton(shard.group, g_s, discipline)
            t_gap = abs(restriction.mean_response_time - flat.mean_response_time)
            assert t_gap <= 1e-9 * flat.mean_response_time, shard.index
            assert restriction.phi == pytest.approx(flat.phi, rel=1e-9), shard.index
            assert restriction.discipline is flat.discipline
            np.testing.assert_allclose(
                restriction.per_server_response_times,
                shard.group.per_server_response_times(
                    restriction.generic_rates, discipline
                ),
            )
            np.testing.assert_array_equal(
                restriction.utilizations,
                shard.group.utilizations(restriction.generic_rates),
            )

    def test_idle_shard_has_no_restriction(self):
        g = self._fleet(64, False)
        plan = partition_group(g, ShardConfig(shards=4, strategy="type"))
        lam = 1e-4 * g.max_generic_rate
        bootstrap = solve_sharded(g, lam, plan=plan)
        loads = bootstrap.metadata["shard_loads"]
        assert 0.0 in loads
        for shard in plan.shards:
            restriction = bootstrap_restriction(bootstrap, shard, lam)
            assert (restriction is None) == (loads[shard.index] == 0.0)


class TestSeededSetup:
    """Set-up solves the fleet once; shard runtimes start from it."""

    @staticmethod
    def _fleet(n: int) -> BladeServerGroup:
        return BladeServerGroup(
            [
                BladeServer(size=1 + i % 16, speed=0.6 + 0.01 * (i % 120))
                for i in range(n)
            ],
            rbar=1.0,
        )

    @staticmethod
    def _setup(monkeypatch, group, trace, config, shard_config):
        """Run the loop's set-up only; return (dispatcher, shard solves)."""
        import repro.runtime.controller as controller_module
        import repro.shard.runtime as shard_runtime

        solves = []
        dispatch = controller_module.dispatch

        def counting(*args, **kwargs):
            solves.append(args[1])
            return dispatch(*args, **kwargs)

        class SetupDone(Exception):
            pass

        built = []

        def no_simulation(group, config, *, dispatcher, **kwargs):
            built.append(dispatcher)
            raise SetupDone

        monkeypatch.setattr(controller_module, "dispatch", counting)
        monkeypatch.setattr(shard_runtime, "GroupSimulation", no_simulation)
        with pytest.raises(SetupDone):
            run_sharded_closed_loop(
                group, trace, config, shard_config, horizon=10.0, seed=1
            )
        return built[0], solves

    def test_no_shard_solves_during_setup(self, monkeypatch):
        g = self._fleet(2_000)
        trace = RateTrace.constant(6.0)
        plan = partition_group(g, ShardConfig(shards=8))
        bootstrap = solve_sharded(g, 6.0, plan=plan)
        dispatcher, solves = self._setup(
            monkeypatch, g, trace, RuntimeConfig(router="alias"), ShardConfig(shards=8)
        )
        assert solves == []
        for shard, runtime in zip(plan.shards, dispatcher.runtimes):
            restriction = bootstrap_restriction(bootstrap, shard, 6.0)
            first = runtime.resolve_log[0]
            assert first.reason == "initial" and first.cache_hit
            assert first.solved_rate == restriction.total_rate
            assert np.array_equal(runtime.current_weights, restriction.fractions)
            assert np.array_equal(
                runtime.current_result.generic_rates, restriction.generic_rates
            )

    def test_idle_shard_solves_its_own_first_split(self, monkeypatch):
        import warnings

        g = self._fleet(256)
        lam = 1e-4 * g.max_generic_rate
        shard_config = ShardConfig(shards=4, strategy="type")
        plan = partition_group(g, shard_config)
        loads = solve_sharded(g, lam, plan=plan).metadata["shard_loads"]
        idle = [i for i, load in enumerate(loads) if load == 0.0]
        assert idle and len(idle) < plan.n_shards
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            dispatcher, solves = self._setup(
                monkeypatch, g, RateTrace.constant(lam), RuntimeConfig(), shard_config
            )
            # The fallback: one cold solve per idle shard, on the plain
            # grid's floor of one step.
            assert solves == [
                0.002 * dispatcher.runtimes[i].health.group.max_generic_rate
                for i in idle
            ]
            for i in idle:
                assert dispatcher.runtimes[i].controller._offset == 0.0
            for shard, runtime in zip(plan.shards, dispatcher.runtimes):
                assert runtime.resolve_log[0].cache_hit == (shard.index not in idle)
            # A whole loop with rebalances runs without a warning too.
            monkeypatch.undo()
            report = run_sharded_closed_loop(
                g,
                RateTrace.constant(lam),
                RuntimeConfig(),
                shard_config,
                horizon=400.0,
                seed=2,
                rebalance_period=100.0,
                collect_tasks=False,
            )
        assert report.rebalances >= 3
        # The rebalances left the idle shards idle, and primed no hint
        # for them (g_s = 0).
        for i in idle:
            assert report.shard_shares[i] == 0.0

    def test_idle_shard_that_later_gets_load_routes_on_the_plain_grid(self):
        # Shard 1 holds the second-fastest servers: idle at 1e-4 of
        # capacity, loaded once the rate steps to 0.2 and a rebalance
        # hands it a share.  With no seed its grid is the plain one, so
        # its traffic is routed for (about) its own load, never for the
        # near-zero design rate.
        g = self._fleet(256)
        cap = g.max_generic_rate
        shard_config = ShardConfig(shards=4, strategy="type")
        report = run_sharded_closed_loop(
            g,
            RateTrace.step(1e-4 * cap, at=5.0, to=0.2 * cap),
            RuntimeConfig(time_constant=2.0, resolve_period=5.0),
            shard_config,
            horizon=30.0,
            seed=2,
            rebalance_period=5.0,
            collect_tasks=False,
        )
        runtime = report.runtimes[1]
        step = 0.002 * runtime.health.group.max_generic_rate
        assert runtime.controller._offset == 0.0
        log = runtime.resolve_log
        assert log[0].offered_rate < 1e-6 * step and log[0].solved_rate == step
        assert report.shard_shares[1] > 0.0
        loaded = [e for e in log if e.offered_rate > 10.0 * step]
        assert loaded
        for event in loaded:
            assert event.solved_rate == round(event.offered_rate / step) * step
        # The seeded fastest shard, offered far more than its seed's
        # rate, was re-solved above it rather than routed with it.
        fast = report.runtimes[0]
        seed_rate = fast.resolve_log[0].solved_rate
        above = [e for e in fast.resolve_log if e.offered_rate > seed_rate]
        assert above
        assert all(e.solved_rate >= e.offered_rate / 1.5 for e in above)

    def test_rebalance_primes_each_shard_with_its_own_multiplier(self):
        from repro.runtime.loop import LoadDistributionRuntime

        g = self._fleet(2_000)
        plan = partition_group(g, ShardConfig(shards=8))
        lam0 = 6.0
        bootstrap = solve_sharded(g, lam0, plan=plan)
        restrictions = [bootstrap_restriction(bootstrap, s, lam0) for s in plan.shards]
        runtimes = [
            LoadDistributionRuntime(
                s.group, r.total_rate, RuntimeConfig(), initial_result=r
            )
            for s, r in zip(plan.shards, restrictions)
        ]
        dispatcher = ShardedDispatcher(
            plan,
            runtimes,
            np.asarray(bootstrap.metadata["shard_loads"]),
            np.random.default_rng(0),
            bootstrap.phi * lam0,
        )
        readings = iter([9.0, 8.0])

        class StubRateView:
            def estimate(self, now):
                return next(readings)

        dispatcher._rate_view = StubRateView()
        dispatcher.rebalance(0.0)
        loads = dispatcher.shares * 9.0
        for shard, runtime in zip(plan.shards, runtimes):
            g_s = float(loads[shard.index])
            expected = solve_newton(shard.group, g_s).phi
            assert runtime.controller._phi_hint == pytest.approx(expected, rel=1e-9)

        # A masked rebalance leaves the dead shard's hint alone.
        live = np.ones(8, dtype=bool)
        live[2] = False
        before = runtimes[2].controller._phi_hint
        dispatcher.rebalance(1.0, live=live)
        assert runtimes[2].controller._phi_hint == before

    def test_seeded_shard_entry_survives_crash_restore(self, tmp_path):
        from repro.recovery.resume import restore_runtime
        from repro.runtime.loop import LoadDistributionRuntime

        g = self._fleet(2_000)
        plan = partition_group(g, ShardConfig(shards=8))
        lam0 = 6.0
        bootstrap = solve_sharded(g, lam0, plan=plan)
        shard = plan.shards[5]
        restriction = bootstrap_restriction(bootstrap, shard, lam0)
        config = RuntimeConfig(
            recovery=RecoveryConfig(enabled=True, directory=str(tmp_path))
        )
        runtime = LoadDistributionRuntime(
            shard.group, restriction.total_rate, config, initial_result=restriction
        )
        assert runtime.resolve_log[0].cache_hit
        # Crash right after the bootstrap checkpoint, then restore.
        restored, _ = restore_runtime(
            shard.group,
            config,
            initial_rate=restriction.total_rate,
            initial_result=restriction,
        )
        live = restored.health.fingerprint()
        assert live == ()
        assert restored.controller._phi_fingerprint == live
        (key, entry), = restored.controller._cache.items()
        assert key[0] == live
        assert key[1] == restriction.total_rate
        assert np.array_equal(entry.generic_rates, restriction.generic_rates)
        assert entry.phi == restriction.phi
        hit = restored.controller.resolve(restriction.total_rate)
        assert hit.cache_hit
        assert np.array_equal(hit.weights, restriction.fractions)
        assert next(reversed(restored.controller._cache))[0] == live

    def test_shard_checkpoint_writes_the_live_weights_once(self, tmp_path):
        import json

        from repro.recovery import list_checkpoints
        from repro.recovery.resume import restore_runtime
        from repro.runtime.loop import LoadDistributionRuntime

        g = self._fleet(2_000)
        plan = partition_group(g, ShardConfig(shards=8))
        lam0 = 6.0
        shard = plan.shards[5]
        restriction = bootstrap_restriction(
            solve_sharded(g, lam0, plan=plan), shard, lam0
        )
        rate = restriction.total_rate
        config = RuntimeConfig(
            recovery=RecoveryConfig(enabled=True, directory=str(tmp_path))
        )
        runtime = LoadDistributionRuntime(
            shard.group, rate, config, initial_result=restriction
        )
        live = runtime._weights
        assert not live.flags.writeable
        for t in (1.0, 2.0):
            runtime._resolve(t, rate, reason="periodic", force=False)
        assert [e.cache_hit for e in runtime.resolve_log] == [True] * 3
        assert runtime._weights is live
        assert runtime.supervisor._last_good.weights is live
        runtime._recovery.finalize()
        _, path = list_checkpoints(str(tmp_path))[-1]
        with open(path, encoding="utf-8") as fh:
            snapshot = json.load(fh)
        assert len(snapshot["weights"]) == 1

        restored, _ = restore_runtime(
            shard.group, config, initial_rate=rate, initial_result=restriction
        )
        assert np.array_equal(restored._weights, live)
        assert restored.supervisor._last_good.weights is restored._weights
        hit = restored.controller.resolve(rate)
        assert hit.cache_hit and hit.weights is restored._weights

    def test_shard_restore_equals_live_runtime_bit_for_bit(self):
        import json

        from repro.recovery import CheckpointCodec
        from repro.runtime.loop import LoadDistributionRuntime
        from tests.test_crash_recovery import DERIVED_KEYS, assert_restored_equals_live

        g = self._fleet(400)
        plan = partition_group(g, ShardConfig(shards=4))
        lam0 = 0.3 * g.max_generic_rate
        shard = plan.shards[1]
        restriction = bootstrap_restriction(
            solve_sharded(g, lam0, plan=plan), shard, lam0
        )
        rate = restriction.total_rate
        live = LoadDistributionRuntime(
            shard.group, rate, RuntimeConfig(), initial_result=restriction
        )
        down = int(np.flatnonzero(restriction.generic_rates)[0])
        live.server_down(down, now=1.0)
        snapshot = json.loads(json.dumps(CheckpointCodec().encode(live, 0)))
        assert [r["down"] for r in snapshot["results"]] == [[], [down]]
        for entry in snapshot["results"]:
            assert not DERIVED_KEYS & set(entry)

        restored = LoadDistributionRuntime(
            shard.group, rate, RuntimeConfig(), initial_result=restriction, _restore=True
        )
        CheckpointCodec().restore(restored, snapshot)
        assert_restored_equals_live(live, restored)
        seed, degraded = restored.controller._cache.values()
        assert seed.group is shard.group
        assert degraded.group is restored._result.group
        assert degraded.group.n == shard.group.n - 1

    def test_shard_fingerprint_survives_down_up_and_restore(self):
        import json

        from repro.recovery import CheckpointCodec
        from repro.runtime import HealthTracker, ResolveController

        g = self._fleet(6_250)
        health = HealthTracker(g)
        controller = ResolveController(health)
        rate = 0.3 * g.max_generic_rate
        assert not controller.resolve(rate).cache_hit
        before = health.fingerprint()
        assert before == ()
        health.mark_down(7)
        health.mark_down(4_000)
        assert health.fingerprint() == (7, 4_000)
        health.mark_up(7)
        health.mark_up(4_000)
        assert health.fingerprint() == before
        assert controller.resolve(rate).cache_hit

        health.mark_down(7)
        fresh = HealthTracker(g)
        fresh.load_state(json.loads(json.dumps(health.state_dict())))
        assert fresh.fingerprint() == (7,)
        fresh.mark_up(7)
        assert fresh.fingerprint() == before
        restored = ResolveController(fresh)
        state = controller.state_dict(lambda r: CheckpointCodec.encode_result(r, g))
        restored.load_state(
            json.loads(json.dumps(state)), CheckpointCodec.result_decoder(g)
        )
        assert restored._phi_fingerprint == before
        assert restored.resolve(rate).cache_hit
