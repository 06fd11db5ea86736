"""Capacity planning: where is the next blade worth the most?

The paper's Section 5 rule-of-thumb says all response-time improvement
comes from pushing the saturation point lambda'_max out.  This example
turns that into a planning workflow for a data-center operator:

1. analyze the current group's saturation structure and the
   envelope-theorem sensitivities (the *continuous* levers),
2. evaluate the discrete what-ifs — one extra blade per server — with
   exact re-optimization,
3. build a greedy 4-blade upgrade path and show its diminishing
   returns.

Run with::

    python examples/capacity_planning.py
"""

from repro import BladeServerGroup, solve
from repro.analysis import (
    analyze_saturation,
    evaluate_blade_additions,
    greedy_upgrade_path,
    headroom,
    optimal_value_sensitivities,
)

# Current fleet: mixed chassis generations, 30% preloaded.
SIZES = [4, 4, 8, 8, 12, 16]
SPEEDS = [2.0, 1.8, 1.4, 1.3, 1.1, 0.9]
group = BladeServerGroup.with_special_fraction(SIZES, SPEEDS, fraction=0.3)

# Operating point: 70% of the way to saturation.
lam = 0.7 * group.max_generic_rate
base = solve(group, lam, discipline="fcfs")

report = analyze_saturation(group)
print("current fleet")
print(f"  saturation point lambda'_max = {report.total:.2f} tasks/s")
print(f"  operating at lambda' = {lam:.2f} tasks/s "
      f"(headroom {headroom(group, lam):.0%})")
print(f"  optimal mean response time T' = {base.mean_response_time:.5f} s")

# Continuous levers, priced by the envelope theorem.
sens = optimal_value_sensitivities(group, lam, "fcfs")
print()
print("continuous levers (seconds of T' per unit):")
print(f"  dT'/drbar = {sens.d_rbar:+.5f}  (shrink task sizes)")
best_speed = min(range(group.n), key=lambda j: sens.d_speed[j])
print(
    f"  best speed upgrade: server {best_speed + 1} "
    f"(dT'/ds = {sens.d_speed[best_speed]:+.5f} per GIPS)"
)

# Discrete what-ifs: one extra blade, re-optimized exactly.  The blade
# arrives carrying its proportional share of dedicated work (the
# paper's preload convention).
print()
print("what-if: add one blade to a single server (exact re-optimization)")
print(f"{'server':>8} {'speed':>7} {'new T_opt':>11} {'gain':>9}")
options = evaluate_blade_additions(group, lam, preload_follows=True)
for o in sorted(options, key=lambda o: o.server_index):
    print(
        f"{o.server_index + 1:>8} {SPEEDS[o.server_index]:>7.1f} "
        f"{o.t_prime:>11.5f} {o.gain:>9.5f}"
    )
best = options[0]
print(
    f"\nrecommendation: server {best.server_index + 1} "
    f"(T' improves by {best.gain:.5f} s, "
    f"{best.gain / base.mean_response_time:.2%})"
)

# Greedy multi-blade path.
print()
print("greedy 4-blade upgrade path:")
previous = base.mean_response_time
for k, step in enumerate(
    greedy_upgrade_path(group, lam, blades=4, preload_follows=True), start=1
):
    print(
        f"  blade {k} -> server {step.server_index + 1}: "
        f"T' = {step.t_prime:.5f} (-{previous - step.t_prime:.5f})"
    )
    previous = step.t_prime
print("note the shrinking per-blade gain: budget accordingly.")
