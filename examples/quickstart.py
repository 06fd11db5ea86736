"""Quickstart: optimally distribute generic load over blade servers.

Reproduces the paper's Example 1 and Example 2 end-to-end in a few
lines: build the heterogeneous server group, ask the optimizer for the
distribution minimizing the mean generic-task response time, and print
the per-server split — first with special tasks sharing the FCFS queue,
then with special tasks prioritized.

Run with::

    python examples/quickstart.py
"""

from repro import BladeServerGroup, solve

# Seven heterogeneous blade servers: m_i = 2i blades of speed
# s_i = 1.7 - 0.1i GIPS, each preloaded with dedicated special tasks
# amounting to 30% utilization (lambda''_i = 0.3 m_i s_i / rbar).
group = BladeServerGroup.with_special_fraction(
    sizes=[2, 4, 6, 8, 10, 12, 14],
    speeds=[1.6, 1.5, 1.4, 1.3, 1.2, 1.1, 1.0],
    fraction=0.3,
    rbar=1.0,  # mean task size: 1 giga-instructions
)

print(f"group capacity for generic tasks: {group.max_generic_rate:.2f} tasks/s")

# Distribute lambda' = 23.52 generic tasks/s (50% of the spare capacity).
for discipline in ("fcfs", "priority"):
    result = solve(group, 23.52, discipline=discipline)
    print()
    print(f"=== special tasks {'with priority' if discipline == 'priority' else 'without priority'} ===")
    print(f"minimized mean response time T' = {result.mean_response_time:.7f} s")
    for i, (rate, rho) in enumerate(zip(result.generic_rates, result.utilizations)):
        print(
            f"  server {i + 1}: lambda'_{i + 1} = {rate:.4f} tasks/s "
            f"(utilization {rho:.1%})"
        )
