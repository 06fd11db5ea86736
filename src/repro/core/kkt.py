"""Water-filling KKT solver built on :func:`scipy.optimize.brentq`.

An independent re-derivation of the paper's optimum used to cross-check
the faithful bisection transcription.  Structure:

1. For a candidate multiplier ``phi``, each server's optimal rate is the
   unique root of ``g_i(lambda) = phi`` where ``g_i`` is the (strictly
   increasing) marginal cost, or 0 when ``g_i(0) >= phi`` — the KKT
   complementary-slackness case of a server too slow/loaded to deserve
   any generic traffic at that price level.
2. The group total ``F(phi) = sum_i lambda_i(phi)`` is continuous and
   non-decreasing, so the multiplier matching the requested total is
   found with a second ``brentq`` on ``F(phi) - lambda'``.

Brent's method converges superlinearly, making this solver roughly an
order of magnitude faster than the plain nested bisection at equal
tolerance — quantified in ``benchmarks/bench_ablation_solvers.py``.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq

from .bisection import settle_residual
from .exceptions import ConvergenceError, ParameterError
from .objective import marginal_cost
from .response import Discipline
from .result import LoadDistributionResult
from .server import BladeServerGroup

__all__ = ["solve_kkt", "rate_for_multiplier"]

_STABILITY_MARGIN = 1e-13
_XTOL = 1e-14
_MAX_DOUBLINGS = 4000


def rate_for_multiplier(
    m: int,
    xbar: float,
    special_rate: float,
    total_rate: float,
    phi: float,
    discipline: Discipline | str = Discipline.FCFS,
) -> float:
    """Optimal generic rate of a single server at multiplier ``phi``.

    Returns the root of ``marginal_cost(lambda) = phi`` on the server's
    stability interval, or its boundary values when the root falls
    outside (0 below, just-under-capacity above).
    """
    cap = m / xbar - special_rate
    if cap <= 0.0:
        return 0.0
    hi = (1.0 - _STABILITY_MARGIN) * cap

    def f(lam: float) -> float:
        return marginal_cost(m, xbar, special_rate, lam, total_rate, discipline) - phi

    f0 = f(0.0)
    if f0 >= 0.0:
        return 0.0
    fhi = f(hi)
    if fhi < 0.0:
        return hi
    return float(brentq(f, 0.0, hi, xtol=_XTOL, rtol=8.9e-16))


def _equalizing_repair(rates_for, phi, rates, resid, total_rate):
    """Budget repair that preserves marginal-cost equalization.

    A server whose marginal-cost curve is numerically flat near its
    optimum makes the group total ``F(phi)`` jump across a multiplier
    window narrower than any practical ``xtol``: the outer root-finder
    then terminates on one side of the jump with a macroscopic budget
    residual.  Rescaling every rate proportionally would close the
    budget but misprice the *steep* servers (their marginals move).
    Instead, bracket the jump down to float resolution and interpolate
    the two endpoint rate vectors component-wise — only the flat
    servers, whose marginals are insensitive by construction, absorb
    the correction, so the KKT equal-marginal property survives.
    """
    # Find the other side of the jump by geometric phi stepping.
    direction = -1.0 if resid > 0.0 else 1.0
    step = max(abs(phi) * 1e-15, 1e-300)
    a, ra, ea = phi, rates, resid
    b, rb, eb = phi, rates, resid
    for _ in range(200):
        b = a + direction * step
        rb = rates_for(b)
        eb = float(rb.sum()) - total_rate
        if eb == 0.0:
            return rb
        if (eb > 0.0) != (ea > 0.0):
            break
        step *= 2.0
    else:  # pragma: no cover - excess is monotone, a bracket must exist
        return rates
    # Shrink the bracket until phi hits float resolution.
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        rm = rates_for(mid)
        em = float(rm.sum()) - total_rate
        if em == 0.0:
            return rm
        if (em > 0.0) == (ea > 0.0):
            a, ra, ea = mid, rm, em
        else:
            b, rb, eb = mid, rm, em
    # ea and eb have opposite signs, so t lies in [0, 1] and the
    # interpolated vector meets the budget exactly (up to roundoff).
    t = ea / (ea - eb)
    return ra + t * (rb - ra)


def solve_kkt(
    group: BladeServerGroup,
    total_rate: float,
    discipline: Discipline | str = Discipline.FCFS,
    xtol: float = 1e-13,
) -> LoadDistributionResult:
    """Optimal load distribution via nested Brent root-finding.

    Parameters mirror :func:`repro.core.bisection.calculate_t_prime`;
    results agree with it (and with SLSQP) to the solver tolerance,
    which the integration tests assert.
    """
    disc = Discipline.coerce(discipline)
    group.check_feasible(total_rate)
    if xtol <= 0.0:
        raise ParameterError(f"xtol must be > 0, got {xtol}")
    ms = group.sizes
    xbars = group.xbars
    specials = group.special_rates
    n = group.n

    def rates_for(phi: float) -> np.ndarray:
        return np.array(
            [
                rate_for_multiplier(
                    int(ms[i]),
                    float(xbars[i]),
                    float(specials[i]),
                    total_rate,
                    phi,
                    disc,
                )
                for i in range(n)
            ]
        )

    def excess(phi: float) -> float:
        return float(rates_for(phi).sum()) - total_rate

    # Lower bracket: the smallest marginal-at-zero over the group is a
    # multiplier at which *no* server accepts load, so excess < 0 there.
    phi_lo = min(
        marginal_cost(
            int(ms[i]), float(xbars[i]), float(specials[i]), 0.0, total_rate, disc
        )
        for i in range(n)
    )
    phi_hi = max(phi_lo, 1e-9)
    iterations = 0
    for _ in range(_MAX_DOUBLINGS):
        iterations += 1
        if excess(phi_hi) >= 0.0:
            break
        phi_hi *= 2.0
    else:
        raise ConvergenceError("solve_kkt could not bracket the multiplier")

    phi, outer = brentq(
        excess,
        phi_lo * (1.0 - 1e-12),
        phi_hi,
        xtol=xtol,
        rtol=8.9e-16,
        full_output=True,
    )
    phi = float(phi)
    # Doubling steps alone underreport the outer work by an order of
    # magnitude; the Brent iterations are where the multiplier search
    # actually converges, so they belong in the reported count (and in
    # the repro_solve_iterations histogram fed from it).
    iterations += int(outer.iterations)
    rates = rates_for(phi)
    resid = float(rates.sum()) - total_rate
    if abs(resid) > 1e-11 * max(total_rate, 1.0):
        # Macroscopic residual: a numerically flat marginal made F(phi)
        # jump across the root.  The repair interpolates the bracket
        # endpoint vectors component-wise and meets the budget to
        # roundoff while preserving marginal equalization — rescaling it
        # afterwards would re-misprice exactly the steep servers the
        # repair protected, so the repaired vector is returned as is.
        rates = _equalizing_repair(rates_for, phi, rates, resid, total_rate)
    else:
        # Close the epsilon budget slack.  The proportional rescale is
        # kept bit-exact with the historical behaviour whenever it is
        # safe, so seeded splits and the T' values compared against them
        # keep their bits, and only when it would push a cap-pinned
        # server past (1 - margin) * cap does the cap-respecting
        # projection take over.
        s = float(rates.sum())
        if s > 0.0:
            hard_caps = (1.0 - _STABILITY_MARGIN) * group.spare_capacities
            scaled = rates * (total_rate / s)
            if np.all(scaled <= hard_caps):
                rates = scaled
            else:
                rates = settle_residual(rates, total_rate, hard_caps)
    return LoadDistributionResult.from_rates(
        group, rates, phi, disc, "kkt-brentq", iterations=iterations
    )
