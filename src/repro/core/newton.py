"""Damped-Newton dual-ascent solver backend.

Every earlier backend reaches the paper's water-filling optimum by
derivative-free root-finding: nested bisection (`core/bisection.py`)
or Brent's method (`core/kkt.py`).  Yet the
optimum is a KKT point of a smooth convex program whose marginals are
fully analytic (`core/objective.py`), so both root-finding levels admit
second-order steps:

Inner problem (per server, at multiplier ``phi``)
    ``lambda'_i(phi)`` solves ``g_i(lambda) = phi`` where
    ``g_i(lambda) = (T'_i + rho'_i dT'_i/drho) / lambda'`` is the
    strictly increasing marginal cost.  Its analytic slope is

    .. math::

        g_i'(\\lambda) = \\frac{\\bar{x}_i}{m_i \\lambda'}
            \\left(2 \\frac{\\partial T'_i}{\\partial \\rho}
            + \\rho'_i \\frac{\\partial^2 T'_i}{\\partial \\rho^2}\\right)

    with the second derivative from
    :func:`repro.core.response.d2_generic_response_time_drho2`.  All
    ``n`` inner Newton iterates advance together as arrays (one batched
    kernel evaluation per sweep; the kernels transcribe
    :mod:`repro.core.erlang` and :mod:`repro.core.response` with the
    same scaled recurrences and log-space tails, so no factorials and
    no ``rho**m`` underflow), each safeguarded by a per-server bracket:
    a step leaving its bracket falls back to the bracket midpoint, so
    progress is never worse than bisection while quadratic convergence
    holds near the root.

Outer problem (the dual multiplier)
    ``F(phi) = sum_i lambda'_i(phi)`` is continuous and non-decreasing;
    the budget equation ``F(phi) = lambda'`` is solved by Newton steps
    on ``phi`` using the analytic dual slope

    .. math::

        F'(\\phi) = \\sum_{i \\in \\text{free}} \\frac{1}{g_i'(\\lambda'_i(\\phi))}

    (parked and capacity-pinned servers contribute zero).  The step is
    safeguarded by the running ``(phi_lo, phi_hi)`` bracket; warm
    starts (``phi_hint`` from a neighbouring sweep point or the
    previous controller tick) typically land inside the quadratic basin
    and converge in a handful of outer iterations.

Both safeguards make the method exactly as robust as the bisection
backends — including the degenerate flat-marginal case, where ``F``
jumps across the root inside a multiplier window narrower than float
resolution and the endpoint rate vectors are interpolated
component-wise (the same repair the KKT backend applies).

Registered as ``method="newton"`` (warm-startable); the measured
speedups over the other backends are committed in
``BENCH_solver_scaling.json`` at the repo root.  With observability
on, each outer iteration is a ``solve.outer`` span under the
dispatcher's ``solve`` span, and each inner solve records its batched
sweep count in the ``repro_inner_sweeps`` histogram.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.special import gammaln

from ..obs import get_obs
from .bisection import DEFAULT_TOL, STABILITY_MARGIN, settle_residual
from .exceptions import ConvergenceError, ParameterError, SaturationError
from .response import Discipline
from .result import LoadDistributionResult
from .server import BladeServerGroup

__all__ = ["solve_newton", "marginal_cost_and_slope_vec", "p_zero_vec"]

#: Rescale threshold of the partial-sum recurrence (same as erlang.py).
_RESCALE_AT = 1e290


def _as_server_arrays(
    ms: Sequence[int], rhos: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Validate and coerce parallel (m, rho) arrays."""
    ms = np.asarray(ms, dtype=np.int64)
    rhos = np.asarray(rhos, dtype=float)
    if ms.ndim != 1 or ms.shape != rhos.shape:
        raise ParameterError(
            f"ms and rhos must be equal-length 1-D arrays, got shapes "
            f"{ms.shape} and {rhos.shape}"
        )
    if ms.size == 0:
        raise ParameterError("need at least one server")
    if np.any(ms < 1):
        raise ParameterError(f"server sizes must be >= 1, got {ms}")
    if np.any(~np.isfinite(rhos)) or np.any(rhos < 0.0):
        raise ParameterError(f"utilizations must be finite and >= 0, got {rhos}")
    if np.any(rhos >= 1.0):
        worst = float(rhos.max())
        raise SaturationError(
            f"M/M/m steady state requires rho < 1, got {worst}", rho=worst
        )
    return ms, rhos


def p_zero_vec(ms: Sequence[int], rhos: Sequence[float]) -> np.ndarray:
    """Empty-system probabilities ``p_{i,0}`` for all servers at once.

    Vectorized transcription of :func:`repro.core.erlang.p_zero`: the
    scaled term recurrence ``t_k = t_{k-1} a_i / k`` runs over a shared
    ``k`` axis with per-server masks (server ``i`` stops growing at
    ``k = m_i - 1``), and per-server rescale events fold into a
    log-scale accumulator, so the kernel neither overflows nor loses
    precision for thousands of blades per server.
    """
    ms, rhos = _as_server_arrays(ms, rhos)
    a = ms * rhos
    term = np.ones_like(rhos)
    total = np.ones_like(rhos)
    log_scale = np.zeros_like(rhos)
    for k in range(1, int(ms.max())):
        growing = ms > k
        np.multiply(term, a / k, out=term, where=growing)
        total[growing] += term[growing]
        big = total > _RESCALE_AT
        if big.any():
            scale = total[big]
            term[big] /= scale
            total[big] = 1.0
            log_scale[big] += np.log(scale)
    # Tail term a^m/m! / (1 - rho): one more recurrence step from
    # a^{m-1}/(m-1)! covers every m >= 1.
    term_m = term * a / ms
    total = total + term_m / (1.0 - rhos)
    return np.exp(-log_scale) / total


def _waiting_factor_from_p0(
    ms: np.ndarray, rhos: np.ndarray, p0: np.ndarray
) -> np.ndarray:
    """``p_0 m^{m-1}/m! rho^m/(1-rho)^2`` given precomputed ``p_0``."""
    out = np.zeros_like(rhos)
    pos = rhos > 0.0
    if pos.any():
        m = ms[pos].astype(float)
        r = rhos[pos]
        log_shape = (m - 1.0) * np.log(m) - gammaln(m + 1.0) + m * np.log(r)
        out[pos] = p0[pos] * np.exp(log_shape) / (1.0 - r) ** 2
    return out


def _dp_zero_drho_vec(
    ms: np.ndarray, rhos: np.ndarray, p0: np.ndarray
) -> np.ndarray:
    """Batched :func:`repro.core.erlang.dp_zero_drho` (given ``p_0``).

    Mirrors the scalar scaled term recurrence
    ``u_{k+1} = u_k a / k`` for the head sum and the log-space tail.
    """
    a = ms * rhos
    mf = ms.astype(float)
    # Head sum: sum_{k=1}^{m-1} m^k rho^{k-1}/(k-1)!; k = 1 term is m
    # (only present for m >= 2).
    s = np.where(ms >= 2, mf, 0.0)
    u = mf.copy()
    for k in range(2, int(ms.max())):
        growing = ms > k
        np.multiply(u, a / (k - 1), out=u, where=growing)
        s[growing] += u[growing]
    # Tail: m^m/m! * rho^{m-1} (m - (m-1) rho) / (1-rho)^2, in log space.
    tail = np.zeros_like(rhos)
    pos = rhos > 0.0
    if pos.any():
        m = mf[pos]
        r = rhos[pos]
        log_tail = m * np.log(m) - gammaln(m + 1.0) + (m - 1.0) * np.log(r)
        tail[pos] = np.exp(log_tail) * (m - (m - 1.0) * r) / (1.0 - r) ** 2
    zero = ~pos
    if zero.any():
        tail[zero] = np.where(ms[zero] == 1, 1.0, 0.0)
    # m = 1 closed form: p0 = 1 - rho has no head sum and tail 1/(1-rho)^2.
    m1 = ms == 1
    if m1.any():
        s[m1] = 0.0
        tail[m1] = 1.0 / (1.0 - rhos[m1]) ** 2
    return -p0 * p0 * (s + tail)


def _d_response_drho_vec(
    ms: np.ndarray,
    xbars: np.ndarray,
    rhos: np.ndarray,
    rho_specials: np.ndarray,
    disc: Discipline,
    p0: np.ndarray,
) -> np.ndarray:
    """Batched :func:`repro.core.response.d_generic_response_time_drho`."""
    out = np.zeros_like(rhos)
    pos = rhos > 0.0
    if pos.any():
        mi = ms[pos]
        m = mi.astype(float)
        r = rhos[pos]
        c = np.exp((m - 1.0) * np.log(m) - gammaln(m + 1.0))
        dp0 = _dp_zero_drho_vec(mi, r, p0[pos])
        term1 = dp0 * r**mi / (1.0 - r) ** 2
        term2 = p0[pos] * r ** (mi - 1) * (m - (m - 2.0) * r) / (1.0 - r) ** 3
        out[pos] = xbars[pos] * c * (term1 + term2)
        if disc is Discipline.PRIORITY:
            out[pos] /= 1.0 - rho_specials[pos]
    zero = ~pos
    if zero.any():
        # rho = 0 limit: slope xbar for m = 1, zero otherwise.
        out[zero] = np.where(ms[zero] == 1, xbars[zero], 0.0)
    return out


#: Inner Newton sweeps per outer iteration before declaring failure.
#: Safeguarded steps halve a bracket at worst, so ~60 sweeps resolve
#: any double-precision interval; Newton itself needs far fewer.
_MAX_INNER_SWEEPS = 120

#: Outer multiplier iterations before declaring failure.
_MAX_OUTER = 200


def _d2p_zero_drho2_vec(
    ms: np.ndarray, rhos: np.ndarray, p0: np.ndarray
) -> np.ndarray:
    """Batched :func:`repro.core.erlang.d2p_zero_drho2` (given ``p_0``).

    Mirrors the scalar code: the head sums of ``S'`` and ``S''`` run as
    shared-axis term recurrences with per-server stop masks, the tails
    are evaluated in log space, and ``m = 1`` (where ``p_0`` is linear
    in ``rho``) is exactly zero.
    """
    mf = ms.astype(float)
    a = mf * rhos
    # S' head: sum_{k=1}^{m-1} m^k rho^{k-1}/(k-1)!  (k = 1 term is m).
    s1 = np.where(ms >= 2, mf, 0.0)
    u = mf.copy()
    for k in range(2, int(ms.max())):
        growing = ms > k
        np.multiply(u, a / (k - 1), out=u, where=growing)
        s1[growing] += u[growing]
    # S'' head: sum_{k=2}^{m-1} m^k rho^{k-2}/(k-2)!  (k = 2 term m^2).
    s2 = np.where(ms >= 3, mf * mf, 0.0)
    v = mf * mf
    for k in range(3, int(ms.max())):
        growing = ms > k
        np.multiply(v, a / (k - 2), out=v, where=growing)
        s2[growing] += v[growing]
    tail1 = np.zeros_like(rhos)
    tail2 = np.zeros_like(rhos)
    sel = (rhos > 0.0) & (ms >= 2)
    if sel.any():
        m = mf[sel]
        r = rhos[sel]
        c = np.exp(m * np.log(m) - gammaln(m + 1.0))
        lead = m - (m - 1.0) * r
        tail1[sel] = c * r ** (ms[sel] - 1) * lead / (1.0 - r) ** 2
        tail2[sel] = c * (
            m * (m - 1.0) * r ** (ms[sel] - 2) / (1.0 - r)
            + 2.0 * r ** (ms[sel] - 1) * lead / (1.0 - r) ** 3
        )
    at_zero = (rhos == 0.0) & (ms == 2)
    if at_zero.any():
        # rho -> 0 limit of the S'' tail: c * m (m-1), nonzero only at
        # m = 2 (every other term carries a positive power of rho).
        m = mf[at_zero]
        tail2[at_zero] = np.exp(m * np.log(m) - gammaln(m + 1.0)) * m * (m - 1.0)
    sp = s1 + tail1
    spp = s2 + tail2
    out = p0 * p0 * (2.0 * p0 * sp * sp - spp)
    out[ms == 1] = 0.0
    return out


def _d2_response_drho2_vec(
    ms: np.ndarray,
    xbars: np.ndarray,
    rhos: np.ndarray,
    rho_specials: np.ndarray,
    disc: Discipline,
    p0: np.ndarray,
) -> np.ndarray:
    """Batched :func:`repro.core.response.d2_generic_response_time_drho2`."""
    out = np.zeros_like(rhos)
    m1 = ms == 1
    if m1.any():
        out[m1] = 2.0 * xbars[m1] / (1.0 - rhos[m1]) ** 3
    sel = ~m1 & (rhos > 0.0)
    if sel.any():
        mi = ms[sel]
        m = mi.astype(float)
        r = rhos[sel]
        c = np.exp((m - 1.0) * np.log(m) - gammaln(m + 1.0))
        p0s = p0[sel]
        dp0 = _dp_zero_drho_vec(mi, r, p0s)
        d2p0 = _d2p_zero_drho2_vec(mi, r, p0s)
        one = 1.0 - r
        lead = m - (m - 2.0) * r
        h = r**mi / one**2
        dh = r ** (mi - 1) * lead / one**3
        d2h = (
            r ** (mi - 2) * ((m - 1.0) * lead - (m - 2.0) * r) / one**3
            + 3.0 * r ** (mi - 1) * lead / one**4
        )
        out[sel] = xbars[sel] * c * (d2p0 * h + 2.0 * dp0 * dh + p0s * d2h)
    at_zero = ~m1 & (rhos == 0.0) & (ms == 2)
    if at_zero.any():
        # h''(0) = 2 at m = 2 with C = 2^1/2! = 1; zero for m >= 3.
        out[at_zero] = 2.0 * xbars[at_zero]
    if disc is Discipline.PRIORITY:
        out /= 1.0 - rho_specials
    return out


def marginal_cost_and_slope_vec(
    ms: np.ndarray,
    xbars: np.ndarray,
    specials: np.ndarray,
    lams: np.ndarray,
    total_rate: float,
    disc: Discipline,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched marginal costs ``g_i`` and their slopes ``g_i'``.

    One shared :func:`p_zero_vec` evaluation feeds the response time,
    both response-time derivatives, and hence both outputs:

    * ``g_i = (T'_i + rho'_i dT'_i/drho) / lambda'`` — the batched
      :func:`repro.core.objective.marginal_cost`;
    * ``g_i' = (xbar_i/m_i) (2 dT'_i/drho + rho'_i d2T'_i/drho2)
      / lambda'`` — strictly positive on the stability region (``T'``
      is increasing and convex in ``rho``), which is what makes both
      Newton levels well-posed.
    """
    mf = ms.astype(float)
    rho = (lams + specials) * xbars / mf
    rho_g = lams * xbars / mf
    rho_s = specials * xbars / mf
    p0 = p_zero_vec(ms, rho)
    w = _waiting_factor_from_p0(ms, rho, p0)
    if disc is Discipline.PRIORITY:
        w = w / (1.0 - rho_s)
    t = xbars * (1.0 + w)
    dt = _d_response_drho_vec(ms, xbars, rho, rho_s, disc, p0)
    d2t = _d2_response_drho2_vec(ms, xbars, rho, rho_s, disc, p0)
    g = (t + rho_g * dt) / total_rate
    dg = (xbars / mf) * (2.0 * dt + rho_g * d2t) / total_rate
    return g, dg


def _inner_newton(
    ms: np.ndarray,
    xbars: np.ndarray,
    specials: np.ndarray,
    total_rate: float,
    phi: float,
    disc: Discipline,
    tol: float,
    x0: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Safeguarded batched Newton on ``g_i(lambda) = phi``.

    All servers advance together; per-server brackets ``[lb_i, ub_i]``
    are tightened by every evaluation and any Newton step leaving its
    bracket is replaced by the bracket midpoint.  Returns the roots,
    the slopes ``g_i'`` at the roots (the outer dual ascent needs
    ``sum 1/g'``), and the number of batched kernel sweeps.
    """
    x = np.clip(x0, lb, ub)
    lb = lb.copy()
    ub = ub.copy()
    dg_out = np.full(x.shape, np.inf)
    # A server is frozen once its marginal residual reaches evaluation
    # noise (a couple of ulps of phi — bisection cannot refine past the
    # kernel's own roundoff) or its bracket collapses below tol.
    # Freezing matters for correctness, not just speed: a converged
    # server has xn == x on the bracket boundary, which the safeguard
    # would otherwise misread as a failed step and bisect *away* from
    # the root.  Each sweep then re-evaluates only the live subset, so
    # the batched kernel shrinks as servers converge.
    noise = 8.9e-16 * abs(phi)
    done = (ub - lb) <= tol
    sweeps = 0
    for _ in range(_MAX_INNER_SWEEPS):
        idx = np.flatnonzero(~done)
        if idx.size == 0:
            break
        sweeps += 1
        xs = x[idx]
        g, dg = marginal_cost_and_slope_vec(
            ms[idx], xbars[idx], specials[idx], xs, total_rate, disc
        )
        dg_out[idx] = dg
        resid = g - phi
        below = resid < 0.0
        lbs = np.where(below, xs, lb[idx])
        ubs = np.where(below, ub[idx], xs)
        frozen = (np.abs(resid) <= noise) | (ubs - lbs <= tol)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            xn = xs - resid / dg
        bad = ~np.isfinite(xn) | (xn <= lbs) | (xn >= ubs)
        xn = np.where(bad, 0.5 * (lbs + ubs), xn)
        x[idx] = np.where(frozen, xs, xn)
        lb[idx] = lbs
        ub[idx] = ubs
        done[idx] = frozen
    else:  # pragma: no cover - midpoint fallback halves every bracket
        raise ConvergenceError("newton inner iteration failed to converge")
    return np.clip(x, lb, ub), dg_out, sweeps


def dual_ascent(
    ms: np.ndarray,
    xbars: np.ndarray,
    specials: np.ndarray,
    caps: np.ndarray,
    total_rate: float,
    disc: Discipline,
    tol: float,
    phi_hint: float | None,
) -> tuple[np.ndarray, float, int, int]:
    """The damped-Newton dual ascent on raw per-server arrays.

    ``ms``, ``xbars``, ``specials`` and ``caps`` are the servers' sizes,
    mean service times, special-task rates and spare capacities; the
    caller has already checked that ``total_rate`` is feasible for
    them.  Returns ``(rates, phi, iterations, inner_sweeps)`` with the
    rates settled onto the budget.  :func:`solve_newton` runs it on a
    whole group; the sharded coordinator runs it on the live shards'
    members (:mod:`repro.shard.coordinator`).
    """
    if not 0.0 < tol < math.inf:
        raise ParameterError(f"tol must be finite and > 0, got {tol}")
    n = ms.shape[0]
    hard_caps = np.where(caps > 0.0, (1.0 - STABILITY_MARGIN) * caps, 0.0)
    zeros = np.zeros(n)

    # Both thresholds below are phi-independent, so one batched kernel
    # evaluation each covers every outer iteration:
    #   g0   — marginal at zero load; phi <= g0 parks the server,
    #   gcap — marginal at the stability boundary; phi > gcap pins it.
    g0, _ = marginal_cost_and_slope_vec(ms, xbars, specials, zeros, total_rate, disc)
    gcap, _ = marginal_cost_and_slope_vec(
        ms, xbars, specials, hard_caps, total_rate, disc
    )

    budget_tol = tol * max(1.0, total_rate)
    inner_sweeps = 0
    o = get_obs()
    sweep_hist = (
        o.registry.histogram(
            "repro_inner_sweeps",
            "Batched kernel sweeps per inner solve (all servers at once)",
            lo=1.0,
            hi=1024.0,
            buckets=10,
        )
        if o.enabled
        else None
    )
    prev_rates = total_rate * np.divide(
        caps, caps.sum(), out=np.zeros(n), where=caps.sum() > 0.0
    )

    def rates_at(
        phi: float, lo: np.ndarray, hi: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """``(rates, F'(phi))`` at multiplier ``phi``.

        ``lo``/``hi`` are component-wise root bounds carried over from
        rate vectors already computed at smaller/larger multipliers
        (``lambda'_i(phi)`` is non-decreasing in ``phi``).
        """
        nonlocal inner_sweeps, prev_rates
        active = (caps > 0.0) & (g0 < phi)
        if not active.any():
            return zeros.copy(), 0.0
        pinned = active & (gcap < phi)
        free = active & ~pinned
        rates = np.where(pinned, hard_caps, 0.0)
        if free.any():
            # Pad carried-over bounds by tol (the accuracy of the rates
            # they came from).
            lb = np.clip(np.where(free, lo - tol, 0.0), 0.0, hard_caps)
            ub = np.where(free, np.minimum(hi + tol, hard_caps), 0.0)
            lb = np.minimum(lb, ub)
            x0 = np.where(free, prev_rates, 0.0)
            roots, dg, sweeps = _inner_newton(
                ms, xbars, specials, total_rate, phi, disc, tol, x0, lb, ub
            )
            inner_sweeps += sweeps
            if sweep_hist is not None:
                sweep_hist.observe(max(sweeps, 1))
            rates = np.where(free, roots, rates)
            with np.errstate(divide="ignore"):
                fprime = float(np.where(free, 1.0 / dg, 0.0).sum())
        else:
            fprime = 0.0
        prev_rates = rates
        return rates, fprime

    # The zero-load and capacity marginals bound the multiplier a
    # priori: F(phi) = 0 for phi <= min g0 (everything parked) and
    # F(phi) = sum hard_caps for phi > max gcap (everything pinned), so
    # the root lives inside the *finite* bracket (phi_floor, phi_ceil].
    # Seeding the outer safeguard with that bracket — instead of
    # (0, inf) — means a warm ``phi_hint`` that drifted outside the
    # feasible band (a previous tick's hint after a large rate step
    # does this routinely) is clamped and re-bracketed in O(1) instead of
    # spending safeguarded outer iterations walking back inside.
    live = caps > 0.0
    phi_floor = float(g0[live].min())
    phi_ceil = float(np.nextafter(gcap[live].max(), math.inf))
    phi_seed = float(np.nextafter(phi_floor, math.inf))

    # Cold start: a capacity-proportional split is feasible, and the
    # median of its marginals prices the middle of the group; an
    # *in-band* phi_hint replaces it and usually lands in the quadratic
    # basin.  A hint outside the band carries no information beyond the
    # bound it violated, and starting at the violated edge is a trap:
    # gcap diverges as 1/STABILITY_MARGIN at the stability boundary, so
    # a ceiling start degenerates into bisection across ~12 decades.
    # Stale hints therefore re-anchor to the cold seed — one batched
    # kernel evaluation, mid-band by construction.
    if (
        phi_hint is not None
        and math.isfinite(phi_hint)
        and phi_seed <= phi_hint <= phi_ceil
    ):
        phi = float(phi_hint)
    else:
        g_start, _ = marginal_cost_and_slope_vec(
            ms, xbars, specials, prev_rates, total_rate, disc
        )
        phi = min(max(float(np.median(g_start[live])), phi_seed), phi_ceil)

    phi_lo = phi_floor
    phi_hi = phi_ceil
    r_lo = zeros.copy()
    r_hi = hard_caps.copy()
    f_lo = 0.0 - total_rate
    f_hi = float(hard_caps.sum()) - total_rate
    rates = prev_rates
    iterations = 0
    converged = False
    for _ in range(_MAX_OUTER):
        iterations += 1
        if o.enabled:
            with o.tracer.span(
                "solve.outer", iter=iterations, phi=phi, phi_lo=phi_lo, phi_hi=phi_hi
            ) as sp:
                before = inner_sweeps
                rates, fprime = rates_at(phi, r_lo, r_hi)
                sp.note(
                    inner_sweeps=inner_sweeps - before, sum_rates=float(rates.sum())
                )
        else:
            rates, fprime = rates_at(phi, r_lo, r_hi)
        resid = float(rates.sum()) - total_rate
        if abs(resid) <= budget_tol:
            converged = True
            break
        if resid < 0.0:
            phi_lo, r_lo, f_lo = phi, rates, resid
        else:
            phi_hi, r_hi, f_hi = phi, rates, resid
        if phi_hi - phi_lo <= 1e-15 * max(phi_hi, 1.0):
            # Degenerate flat-marginal band: F(phi) jumps across the
            # budget inside a float-resolution multiplier window.  The
            # endpoint residuals straddle zero, so the component-wise
            # interpolation meets the budget to roundoff while only
            # moving the flat servers (same repair as the KKT backend).
            t = f_lo / (f_lo - f_hi)
            rates = r_lo + t * (r_hi - r_lo)
            phi = phi_lo + t * (phi_hi - phi_lo)
            converged = True
            break
        if fprime > 0.0 and math.isfinite(fprime):
            step = resid / fprime
            cand = phi - step
        else:
            cand = math.inf
        if not (math.isfinite(cand) and phi_lo < cand < phi_hi):
            # The bracket is finite from the start, so the safeguard is
            # always a bisection step — geometric when the bracket still
            # spans decades (marginals are positive but gcap diverges
            # with the stability margin, so the initial bracket can span
            # ~12 orders of magnitude; arithmetic halving would burn an
            # iteration per factor of two while the geometric step
            # halves the *exponent* range).
            if phi_lo > 0.0 and phi_hi > 100.0 * phi_lo:
                cand = math.sqrt(phi_lo * phi_hi)
            else:
                cand = 0.5 * (phi_lo + phi_hi)
        phi = float(cand)
    if not converged:
        raise ConvergenceError(
            f"dual ascent: no convergence in {_MAX_OUTER} outer iterations "
            f"(residual {resid:.3e})"
        )
    rates = settle_residual(rates, total_rate, hard_caps)
    return rates, phi, iterations, inner_sweeps


def solve_newton(
    group: BladeServerGroup,
    total_rate: float,
    discipline: Discipline | str = Discipline.FCFS,
    tol: float = DEFAULT_TOL,
    phi_hint: float | None = None,
) -> LoadDistributionResult:
    """Optimal load distribution via damped-Newton dual ascent.

    Drop-in replacement for the bisection/KKT backends (same optimum,
    agreement asserted to <= 1e-9 by the test suite); registered as
    ``method="newton"`` in the solver registry.

    Parameters
    ----------
    tol:
        Convergence tolerance on the per-server rates and (relative to
        the total) on the budget residual; must be finite and positive.
    phi_hint:
        Optional warm start for the dual multiplier, typically the
        converged ``phi`` of a neighbouring sweep point or the previous
        controller tick (see :func:`repro.api.solve_sweep`).  A hint
        outside the feasible multiplier band is detected against the
        precomputed band and re-anchored to the cold-start seed, so a
        stale hint costs at most one extra batched evaluation, never a
        safeguarded re-bracketing walk.
    """
    disc = Discipline.coerce(discipline)
    group.check_feasible(total_rate)
    rates, phi, iterations, inner_sweeps = dual_ascent(
        group.sizes.astype(np.int64),
        group.xbars.astype(float),
        group.special_rates.astype(float),
        group.spare_capacities,
        total_rate,
        disc,
        tol,
        phi_hint,
    )
    return LoadDistributionResult(
        generic_rates=rates,
        mean_response_time=group.mean_response_time(rates, disc),
        phi=phi,
        discipline=disc,
        method="newton-dual-ascent",
        utilizations=group.utilizations(rates),
        per_server_response_times=group.per_server_response_times(rates, disc),
        iterations=iterations,
        converged=True,
        metadata={"inner_sweeps": inner_sweeps},
    )
