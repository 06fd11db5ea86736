"""Faithful transcription of the paper's optimization algorithms.

The paper (Figs. 2 and 3) solves the Lagrange system with two nested
bisection searches:

``find_lambda_i`` (Fig. 2, ``Find_lambda'_i``)
    Given a candidate multiplier ``phi``, find the generic rate
    ``lambda'_i`` at which server ``i``'s marginal cost
    ``dT'/d lambda'_i`` equals ``phi``.  The marginal is increasing in
    ``lambda'_i`` (convexity of ``T'``), so the root is bracketed by
    doubling an upper bound — clipped below the saturation point
    ``m_i/xbar_i - lambda''_i`` exactly as in lines (6)–(7) — and then
    located by bisection.

``calculate_t_prime`` (Fig. 3, ``Calculate T'``)
    The per-server rates returned by ``find_lambda_i`` are increasing
    in ``phi``, so the group total ``F(phi) = sum_i lambda'_i(phi)`` is
    increasing too.  The outer loop doubles ``phi`` until
    ``F(phi) >= lambda'`` and bisects for the multiplier that makes the
    rates sum exactly to the requested total, then assembles the
    distribution and the minimized ``T'``.

The transcription preserves the paper's control flow (including the
doubling bracket and the epsilon-based termination) while replacing the
pseudo-code's "small value" seeds with documented defaults.  A
convexity subtlety the pseudo-code glosses over: when ``phi`` is below
the server's marginal cost at zero load, no root exists and the server
receives zero generic load (the water-filling case); ``find_lambda_i``
returns 0 there, which is also what the paper's bisection converges to
since its lower bound is pinned at 0.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .exceptions import ConvergenceError, ParameterError
from .objective import marginal_cost
from .response import Discipline
from .result import LoadDistributionResult
from .server import BladeServerGroup

__all__ = [
    "find_lambda_i",
    "calculate_t_prime",
    "solve_bisection",
    "settle_residual",
]

#: Default interval-width tolerance (the paper's ``epsilon``).
DEFAULT_TOL = 1e-12

#: Default seed for the doubling brackets (the paper's "small value").
DEFAULT_SEED = 1e-9

#: Safety margin keeping the search strictly inside the stability region
#: (the paper's ``(1 - epsilon)`` clip in Fig. 2 line (7)).
STABILITY_MARGIN = 1e-12

#: Hard cap on doubling/bisection iterations; generous enough that hitting
#: it indicates a genuinely ill-posed instance rather than slow progress.
MAX_ITER = 20_000


def settle_residual(
    rates: np.ndarray, total_rate: float, caps: np.ndarray
) -> np.ndarray:
    """Rescale ``rates`` to sum to ``total_rate`` without breaching ``caps``.

    The paper's algorithm leaves an ``epsilon`` slack between
    ``sum_i lambda'_i`` and the requested total; the obvious fix —
    multiplying every rate by ``total_rate / sum``  — can push a server
    that the bisection already pinned at its stability cap *past* the
    cap, making the otherwise-feasible solution evaluate as saturated.
    This projection instead distributes the shortfall only across
    servers with headroom, clipping at ``caps``:

    * ``sum >= total_rate``: plain proportional scale-down (never
      violates a cap and preserves the historical behaviour).
    * ``sum < total_rate``: the shortfall is spread proportionally to
      the current rates of un-capped servers (matching the proportional
      rescale whenever no cap binds) and re-spread after each clipping
      event; at most ``n`` passes are needed since every pass either
      clears the shortfall or pins another server.

    When ``total_rate`` exceeds ``sum(caps)`` (possible only within the
    solver's own stability margin of the saturation point) the closest
    feasible vector — every server at its cap — is returned.
    """
    rates = np.minimum(np.asarray(rates, dtype=float), caps)
    s = float(rates.sum())
    if s <= 0.0:
        return rates
    if s >= total_rate:
        return rates * (total_rate / s)
    for _ in range(rates.size + 1):
        shortfall = total_rate - float(rates.sum())
        if shortfall <= 0.0:
            break
        headroom = caps - rates
        free = headroom > 0.0
        if not free.any():
            break
        weights = np.where(free, rates, 0.0)
        wsum = float(weights.sum())
        if wsum <= 0.0:
            # Only zero-rate servers have headroom left; spread by headroom.
            weights = np.where(free, headroom, 0.0)
            wsum = float(weights.sum())
        rates = np.minimum(rates + shortfall * (weights / wsum), caps)
    return rates


def _bracket_phi(
    sum_at: Callable[[float], float],
    total_rate: float,
    phi_hint: float | None,
) -> tuple[float, float, int]:
    """Bracket the outer multiplier: ``F(lb) < total_rate <= F(ub)``.

    Cold start reproduces the paper's Fig. 3 doubling from the seed,
    except that every ``phi`` proven too small is carried into ``lb``
    (the pseudo-code leaves ``lb = 0``, wasting roughly half of the
    subsequent bisection iterations re-deriving what the doubling
    already established).  With ``phi_hint`` — e.g. the converged
    multiplier of the previous point of a load sweep — the bracket
    grows (or shrinks) multiplicatively from the hint instead, which
    typically needs only a couple of ``F`` evaluations.

    Returns ``(lb, ub, evaluations)``.
    """
    if phi_hint is not None and math.isfinite(phi_hint) and phi_hint > 0.0:
        lb, ub, evals = 0.0, float(phi_hint), 0
        for _ in range(MAX_ITER):
            evals += 1
            if sum_at(ub) >= total_rate:
                break
            lb = ub
            ub *= 2.0
        else:  # pragma: no cover - defensive
            raise ConvergenceError("failed to bracket phi from the hint")
        if lb == 0.0:
            # The hint itself was already sufficient; probe downward so
            # the bisection starts from a tight two-sided bracket.
            lo = 0.5 * ub
            for _ in range(MAX_ITER):
                if lo <= DEFAULT_SEED:
                    break
                evals += 1
                if sum_at(lo) < total_rate:
                    lb = lo
                    break
                ub = lo
                lo *= 0.5
        return lb, ub, evals
    # Lines (1)-(10) of Fig. 3: double phi from the seed until F >= lambda'.
    lb, ub, evals = 0.0, DEFAULT_SEED, 0
    for _ in range(MAX_ITER):
        evals += 1
        ub *= 2.0
        if sum_at(ub) >= total_rate:
            break
        lb = ub
    else:  # pragma: no cover - defensive
        raise ConvergenceError("calculate_t_prime failed to bracket phi")
    return lb, ub, evals


def find_lambda_i(
    m: int,
    xbar: float,
    special_rate: float,
    total_rate: float,
    phi: float,
    discipline: Discipline | str = Discipline.FCFS,
    tol: float = DEFAULT_TOL,
) -> float:
    """Paper Fig. 2: the generic rate at which server ``i`` hits ``phi``.

    Parameters
    ----------
    m, xbar, special_rate:
        The server's size ``m_i``, mean service time ``xbar_i``, and
        special-task rate ``lambda''_i``.
    total_rate:
        The group total ``lambda'`` (enters the marginal through its
        ``1/lambda'`` prefactor).
    phi:
        Candidate Lagrange multiplier.
    discipline:
        Queueing discipline for special tasks.
    tol:
        Bisection interval tolerance (the paper's ``epsilon``).

    Returns
    -------
    float
        ``lambda'_i`` with marginal cost ``phi``, clipped to
        ``[0, (1 - eps)(m/xbar - lambda''))``.  Returns 0.0 when even an
        infinitesimal generic load costs more than ``phi``.
    """
    if not 0.0 < tol < math.inf:
        raise ParameterError(f"tol must be finite and > 0, got {tol}")
    cap = m / xbar - special_rate
    if cap <= 0.0:
        return 0.0

    def g(lam: float) -> float:
        return marginal_cost(m, xbar, special_rate, lam, total_rate, discipline)

    # Water-filling guard: marginal at zero already exceeds phi.
    if g(0.0) >= phi:
        return 0.0

    # Lines (1)-(8): double ub until the marginal exceeds phi, clipping
    # at the stability boundary.  Each rejected ub is carried into lb:
    # ``g(ub) < phi`` proves the root lies above ub, so starting the
    # bisection from the last failing bound instead of 0 (as the
    # pseudo-code does) halves the iterations to a given tolerance.
    lb = 0.0
    ub = DEFAULT_SEED
    hard_cap = (1.0 - STABILITY_MARGIN) * cap
    for _ in range(MAX_ITER):
        if ub > hard_cap:
            ub = hard_cap
        if g(ub) >= phi:
            break
        if ub == hard_cap:
            # Even at the stability boundary the marginal stays below phi
            # (possible only with extremely large phi targets); the paper
            # clips here and the caller's outer bisection compensates.
            return hard_cap
        lb = ub
        ub *= 2.0
    else:  # pragma: no cover - defensive
        raise ConvergenceError("find_lambda_i failed to bracket the root")

    # Lines (9)-(18): plain bisection on [lb, ub].
    for _ in range(MAX_ITER):
        if ub - lb <= tol:
            break
        middle = 0.5 * (lb + ub)
        if g(middle) < phi:
            lb = middle
        else:
            ub = middle
    return 0.5 * (lb + ub)


def calculate_t_prime(
    group: BladeServerGroup,
    total_rate: float,
    discipline: Discipline | str = Discipline.FCFS,
    tol: float = DEFAULT_TOL,
    phi_hint: float | None = None,
) -> LoadDistributionResult:
    """Paper Fig. 3: the full nested-bisection optimizer.

    Finds the multiplier ``phi`` whose induced per-server rates sum to
    ``total_rate``, then evaluates the optimal distribution and the
    minimized mean response time ``T'``.

    Parameters
    ----------
    phi_hint:
        Optional warm start for the multiplier search (an extension
        beyond the paper): the bracket grows multiplicatively from the
        hint instead of doubling from the seed.  Load sweeps pass the
        previous point's converged ``phi`` here (see
        :func:`repro.solve_sweep`).

    Raises
    ------
    InfeasibleError
        If ``total_rate`` is at or beyond the group saturation point.
    """
    disc = Discipline.coerce(discipline)
    group.check_feasible(total_rate)
    n = group.n
    ms = group.sizes
    xbars = group.xbars
    specials = group.special_rates

    def rates_for(phi: float) -> np.ndarray:
        return np.array(
            [
                find_lambda_i(
                    int(ms[i]),
                    float(xbars[i]),
                    float(specials[i]),
                    total_rate,
                    phi,
                    disc,
                    tol,
                )
                for i in range(n)
            ]
        )

    def sum_at(phi: float) -> float:
        return float(rates_for(phi).sum())

    # Lines (1)-(10): bracket phi — doubling from the seed (or growing
    # from the warm-start hint), carrying every proven-failing phi into
    # the lower bound.
    lb, ub, iterations = _bracket_phi(sum_at, total_rate, phi_hint)

    # Lines (11)-(27): bisect phi in [lb, ub].  The termination tolerance
    # is scaled by phi's magnitude so very flat or very steep instances
    # converge to the same relative accuracy.
    phi_tol = tol * max(1.0, ub)
    for _ in range(MAX_ITER):
        iterations += 1
        if ub - lb <= phi_tol:
            break
        middle = 0.5 * (lb + ub)
        if rates_for(middle).sum() < total_rate:
            lb = middle
        else:
            ub = middle
    phi = 0.5 * (lb + ub)

    # Lines (28)-(36): final rates and T'.  Settle the tiny residual so
    # the constraint holds exactly (the paper leaves an epsilon slack)
    # without pushing a cap-pinned server past its stability point.
    rates = rates_for(phi)
    if rates.sum() == 0.0:
        # The midpoint fell below every server's zero-load marginal
        # (possible at very small total rates, where the feasible phi
        # band is narrower than the bisection interval).  The loop
        # invariant guarantees F(ub) >= lambda' > 0, so evaluate there.
        phi = ub
        rates = rates_for(phi)
    hard_caps = (1.0 - STABILITY_MARGIN) * group.spare_capacities
    rates = settle_residual(rates, total_rate, hard_caps)
    return LoadDistributionResult.from_rates(
        group, rates, phi, disc, "paper-bisection", iterations=iterations
    )


def solve_bisection(
    group: BladeServerGroup,
    total_rate: float,
    discipline: Discipline | str = Discipline.FCFS,
    tol: float = DEFAULT_TOL,
    phi_hint: float | None = None,
) -> LoadDistributionResult:
    """Alias for :func:`calculate_t_prime` under the solver-naming scheme."""
    return calculate_t_prime(group, total_rate, discipline, tol, phi_hint)
