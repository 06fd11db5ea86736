"""Server consolidation with prioritized dedicated workloads.

The paper's motivating scenario: an organization consolidates dedicated
application servers (file sharing, SSL, streaming, ...) onto blade
chassis, then wants to sell the leftover capacity to generic cloud
tasks — *without* hurting the dedicated (special) workloads.  The
natural contract is the paper's Section-4 discipline: special tasks get
non-preemptive priority.

This example quantifies the cost of that contract from both sides:

* what the generic customers lose (T' under priority vs. shared FCFS),
* what the dedicated workloads gain (their waiting time under priority
  vs. FCFS), across a range of generic load levels.

Run with::

    python examples/priority_consolidation.py
"""

from repro import BladeServerGroup, solve
from repro.core.response import generic_waiting_time, special_waiting_time

# Consolidated fleet: dedicated workloads occupy 40% of each chassis.
group = BladeServerGroup.with_special_fraction(
    sizes=[4, 6, 8, 10],
    speeds=[1.8, 1.5, 1.2, 1.0],
    fraction=0.40,
)

print(f"fleet spare capacity: {group.max_generic_rate:.2f} generic tasks/s")
print()
header = (
    f"{'load':>6} {'T_fcfs':>9} {'T_prio':>9} {'generic cost':>13} "
    f"{'W_spec_fcfs':>12} {'W_spec_prio':>12} {'special gain':>13}"
)
print(header)

for frac in (0.2, 0.4, 0.6, 0.8, 0.9):
    lam = frac * group.max_generic_rate
    fcfs = solve(group, lam, discipline="fcfs")
    prio = solve(group, lam, discipline="priority")

    # Special-task waiting times, averaged over the special streams
    # (weights lambda''_i), under each discipline's own optimal split.
    def special_wait(result, priority):
        total = group.special_rates.sum()
        acc = 0.0
        for i, srv in enumerate(group.servers):
            xbar = srv.xbar(group.rbar)
            rho = result.utilizations[i]
            rho_s = srv.special_rate * xbar / srv.size
            if priority:
                w = special_waiting_time(srv.size, xbar, rho, rho_s)
            else:
                w = generic_waiting_time(srv.size, xbar, rho, rho_s, "fcfs")
            acc += srv.special_rate / total * w
        return acc

    w_spec_f = special_wait(fcfs, priority=False)
    w_spec_p = special_wait(prio, priority=True)
    print(
        f"{frac:>6.0%} {fcfs.mean_response_time:>9.5f} "
        f"{prio.mean_response_time:>9.5f} "
        f"{prio.mean_response_time / fcfs.mean_response_time - 1:>12.2%} "
        f"{w_spec_f:>12.5f} {w_spec_p:>12.5f} "
        f"{1 - (w_spec_p / w_spec_f if w_spec_f else 1):>12.2%}"
    )

print()
print(
    "reading: 'generic cost' is the T' premium generic customers pay for\n"
    "the priority contract; 'special gain' is the waiting-time reduction\n"
    "the dedicated workloads receive in exchange."
)
