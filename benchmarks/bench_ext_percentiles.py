"""Extension bench: percentile SLOs at the mean-optimal distribution.

The paper optimizes the *mean* ``T'``; a provider prices p95/p99.  This
bench computes, at the Table 1 operating point, the per-server response
-time percentiles implied by the optimal split, and checks the key
structural facts: percentiles blow up faster than means as load grows,
and the mean-optimal split does *not* equalize tail percentiles across
servers (slow servers have heavier tails) — the business case for a
percentile-aware extension.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.distributions import (
    GroupResponseTimeDistribution,
    ResponseTimeDistribution,
)
from repro.core.solvers import dispatch
from repro.workloads import example_group
from repro.workloads.paper import EXAMPLE_TOTAL_RATE


def percentile_profile(group, lam, p):
    res = dispatch(group, lam, "fcfs")
    out = []
    for i, srv in enumerate(group.servers):
        rd = ResponseTimeDistribution(
            srv.size, srv.xbar(group.rbar), float(res.utilizations[i])
        )
        out.append(rd.quantile(p))
    return res, np.array(out)


def group_quantile(group, res, p):
    """The true group percentile: quantile of the mixture law."""
    return GroupResponseTimeDistribution.from_distribution(
        group, res
    ).quantile(p)


def test_p95_profile_at_table1_point(benchmark):
    group = example_group()
    res, p95 = benchmark.pedantic(
        percentile_profile,
        args=(group, EXAMPLE_TOTAL_RATE, 0.95),
        rounds=1,
        iterations=1,
    )
    print()
    print("server:         " + "".join(f"{i + 1:>9}" for i in range(7)))
    print("mean T'_i:      " + "".join(f"{t:>9.4f}" for t in res.per_server_response_times))
    print("p95 T_i:        " + "".join(f"{t:>9.4f}" for t in p95))
    # Every p95 strictly dominates its mean.
    assert np.all(p95 > res.per_server_response_times)
    # Mean-optimality does not equalize tails: the spread across
    # servers exceeds 20%.
    assert p95.max() / p95.min() > 1.2


@pytest.mark.parametrize("p", [0.95, 0.99])
def test_tail_gap_widens_with_load(benchmark, p):
    """The absolute p-tail vs. mean gap widens as load grows, and the
    tail sits a large constant factor above the mean throughout — a
    provider pricing SLOs off the paper's mean under-promises badly."""
    group = example_group()

    def sweep():
        means, tails = [], []
        for frac in (0.3, 0.9):
            lam = frac * group.max_generic_rate
            res = dispatch(group, lam, "fcfs")
            means.append(res.mean_response_time)
            tails.append(group_quantile(group, res, p))
        return means, tails

    means, tails = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print(
        f"\np={p}: low load mean {means[0]:.3f} / tail {tails[0]:.3f}; "
        f"high load mean {means[1]:.3f} / tail {tails[1]:.3f}"
    )
    # Absolute gap widens with load...
    assert tails[1] - means[1] > tails[0] - means[0]
    # ...and the tail is at least 2x the mean at both operating points.
    assert tails[0] / means[0] > 2.0
    assert tails[1] / means[1] > 2.0
