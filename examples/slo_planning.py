"""Percentile SLO planning on top of the mean-optimal distribution.

The paper optimizes the *mean* response time, but cloud contracts are
written in percentiles ("95% of requests in under 2 seconds").  Because
the FCFS M/M/m response-time distribution is closed-form
(``repro.core.distributions``), a provider can audit any percentile SLO
at the mean-optimal operating point for free.

A subtlety this example gets right: the group-level p95 is the quantile
of the *mixture* distribution (a task lands on server ``i`` with
probability ``lambda'_i/lambda'`` and draws from that server's law) —
quantiles do not average, so the load-weighted mean of per-server p95s
is a different (and wrong) number.

This example answers two planning questions for the paper's Example 1
fleet:

1. at the Table 1 operating point, what p95/p99 does each server
   deliver, what is the *group* p95/p99, and which server is the SLO
   bottleneck?
2. what is the *highest* total generic rate at which a given group-wide
   p95 target still holds?

Run with::

    python examples/slo_planning.py
"""

import numpy as np

from repro.core.distributions import (
    GroupResponseTimeDistribution,
    ResponseTimeDistribution,
)
from repro import solve
from repro.workloads import example_group
from repro.workloads.paper import EXAMPLE_TOTAL_RATE

group = example_group()


def solve_and_distribution(lam):
    res = solve(group, lam, discipline="fcfs")
    return res, GroupResponseTimeDistribution.from_distribution(group, res)


# -- question 1: the tail profile at the paper's operating point --------------
res, dist = solve_and_distribution(EXAMPLE_TOTAL_RATE)
per_server = [
    ResponseTimeDistribution(
        srv.size, srv.xbar(group.rbar), float(res.utilizations[i])
    )
    for i, srv in enumerate(group.servers)
]
print(f"operating point: lambda' = {EXAMPLE_TOTAL_RATE} (Table 1)")
print(
    f"mean T' = {dist.mean:.4f} s, group p95 = {dist.quantile(0.95):.4f} s, "
    f"group p99 = {dist.quantile(0.99):.4f} s"
)
print()
print(f"{'server':>7} {'mean T_i':>9} {'p95':>8} {'p99':>8}")
for i, d in enumerate(per_server):
    print(
        f"{i + 1:>7} {res.per_server_response_times[i]:>9.4f} "
        f"{d.quantile(0.95):>8.4f} {d.quantile(0.99):>8.4f}"
    )
p95s = [d.quantile(0.95) for d in per_server]
worst = int(np.argmax(p95s))
print(f"\nSLO bottleneck: server {worst + 1} "
      f"(slowest blades -> heaviest tail, p95 = {p95s[worst]:.4f} s)")

# -- question 2: max load under a p95 target ----------------------------------
TARGET = 2.5  # seconds
lo, hi = 0.01 * group.max_generic_rate, 0.99 * group.max_generic_rate
for _ in range(60):
    mid = 0.5 * (lo + hi)
    _, d = solve_and_distribution(mid)
    if d.quantile(0.95) <= TARGET:
        lo = mid
    else:
        hi = mid
print(
    f"\nhighest lambda' with group p95 <= {TARGET} s: {lo:.2f} tasks/s "
    f"({lo / group.max_generic_rate:.0%} of saturation)"
)
