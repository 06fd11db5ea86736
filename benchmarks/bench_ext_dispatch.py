"""Extension bench: static optimal split vs. dynamic state-aware routing.

The paper's dispatcher is static (probabilistic splitting).  A natural
operational question: how much is left on the table versus a dynamic
least-expected-work router that sees queue states?  Simulated head-to-
head on a scaled Example-1 fleet at moderate and high load.  Expected
shape: the dynamic router wins (it exploits information the static
split cannot), by a growing margin as load rises — but the static
optimum stays within a modest factor, which is exactly the trade the
paper's closed-form approach buys.
"""

from __future__ import annotations

import pytest

from repro.core.server import BladeServerGroup
from repro.core.solvers import dispatch
from repro.sim.dispatcher import DynamicDispatcher
from repro.sim.engine import GroupSimulation, SimulationConfig


@pytest.fixture(scope="module")
def group():
    return BladeServerGroup.with_special_fraction(
        sizes=[2, 4, 6], speeds=[1.4, 1.2, 1.0], fraction=0.3
    )


def run_pair(group, lam, seed=5, horizon=6_000.0, warmup=600.0):
    res = dispatch(group, lam, "fcfs")
    config = SimulationConfig(
        total_generic_rate=lam,
        fractions=tuple(res.fractions),
        horizon=horizon,
        warmup=warmup,
        seed=seed,
    )
    static = GroupSimulation(group, config).run()
    dynamic = GroupSimulation(
        group, config, dispatcher=DynamicDispatcher(res.fractions)
    ).run()
    return res, static, dynamic


@pytest.mark.parametrize("load", [0.5, 0.85])
def test_static_vs_dynamic(benchmark, group, load):
    lam = load * group.max_generic_rate
    res, static, dynamic = benchmark.pedantic(
        run_pair, args=(group, lam), rounds=1, iterations=1
    )
    print(
        f"\nload {load:.0%}: analytic {res.mean_response_time:.4f}, "
        f"static sim {static.generic_response_time:.4f}, "
        f"dynamic sim {dynamic.generic_response_time:.4f}"
    )
    # The static simulation validates the analytic optimum...
    assert static.generic_response_time == pytest.approx(
        res.mean_response_time, rel=0.06
    )
    # ...and the dynamic router beats the static split (it uses state).
    assert dynamic.generic_response_time < static.generic_response_time
    # But the static optimum stays within 2x even at high load.
    assert (
        static.generic_response_time
        < 2.0 * dynamic.generic_response_time
    )
