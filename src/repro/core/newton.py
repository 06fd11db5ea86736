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
    safeguarded by the running ``(phi_lo, phi_hi)`` bracket.  A warm
    start (``phi_hint``) seeds the loop directly; since the marginals
    are divided by ``lambda'``, a multiplier solved at another rate is
    close only after rescaling by the rate ratio (the sharded
    coordinator does this; see ``docs/SOLVERS.md`` §3).

The batched kernel (:func:`marginal_cost_and_slope_vec`) is one pass
per block of :data:`_BLOCK` servers: a single recurrence loop advances
``p_0``'s partial sum and the heads of ``S'`` and ``S''`` together
(they all grow by ratios ``a/k`` with ``a = m rho``), ``dp_0/drho`` and
the powers of ``rho`` are computed once, and the per-size constants
``log m``, ``ln m!``, ``m^{m-1}/m!`` and ``m^m/m!`` come from a table.
Blocking caps the temporaries; since every output element depends only
on its own server and is computed in a fixed operation order, neither
the blocks nor the masks change a bit of the result.

Both safeguards make the method exactly as robust as the bisection
backends — including the degenerate flat-marginal case, where ``F``
jumps across the root inside a multiplier window narrower than float
resolution and the endpoint rate vectors are interpolated
component-wise (the same repair the KKT backend applies).  A hint that
lands on such a band already, where the Newton step on ``phi`` rounds
to zero, takes that step in rate space on its first iteration.

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
    p0, _, _ = _recurrences(ms, ms.astype(float), rhos, heads=False)
    return p0


def _recurrences(
    ms: np.ndarray, mf: np.ndarray, rho: np.ndarray, heads: bool
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """``p_0`` and, with ``heads``, the head sums of ``S'`` and ``S''``.

    With ``a = m rho`` all three are partial sums of terms that advance
    by ``a/j``: ``p_0``'s ``t_k = t_{k-1} a/k`` (``k = 1..m-1``), the
    ``S'`` head's ``u_k = u_{k-1} a/(k-1)`` (``u_1 = m``) and the
    ``S''`` head's ``v_k = v_{k-1} a/(k-2)`` (``v_2 = m^2``), the last
    two both for ``k`` up to ``m - 1``.  So one loop over ``k`` with
    one stop mask ``m > k`` advances all three, reusing the ratios of
    the two previous steps.  Only ``p_0``'s sum is rescaled (as in
    :func:`repro.core.erlang.p_zero`); the derivative heads follow
    :func:`repro.core.erlang.dp_zero_drho` and
    :func:`repro.core.erlang.d2p_zero_drho2`, which do not rescale.
    """
    a = ms * rho
    term = np.ones_like(rho)
    total = np.ones_like(rho)
    log_scale = np.zeros_like(rho)
    s1 = s2 = u = v = q1 = q2 = None
    if heads:
        s1 = np.where(ms >= 2, mf, 0.0)
        u = mf.copy()
        v = mf * mf
        s2 = np.where(ms >= 3, v, 0.0)
    for k in range(1, int(ms.max())):
        growing = ms > k
        q = a / k
        np.multiply(term, q, out=term, where=growing)
        np.add(total, term, out=total, where=growing)
        if total.max() > _RESCALE_AT:
            big = total > _RESCALE_AT
            scale = total[big]
            term[big] /= scale
            total[big] = 1.0
            log_scale[big] += np.log(scale)
        if heads:
            if k >= 2:
                np.multiply(u, q1, out=u, where=growing)
                np.add(s1, u, out=s1, where=growing)
            if k >= 3:
                np.multiply(v, q2, out=v, where=growing)
                np.add(s2, v, out=s2, where=growing)
            q1, q2 = q, q1
    # Tail term a^m/m! / (1 - rho): one more recurrence step from
    # a^{m-1}/(m-1)! covers every m >= 1.
    term_m = term * a / mf
    total = total + term_m / (1.0 - rho)
    return np.exp(-log_scale) / total, s1, s2


#: Per-size constants indexed by ``m`` (entry 0 unused):
#: ``(m-1) log m - ln m!``, ``m log m - ln m!`` and their exponentials
#: ``m^{m-1}/m!`` and ``m^m/m!``.  Rebuilt when a larger size shows up.
_size_table: tuple[np.ndarray, ...] = ()


def _size_constants(m_max: int) -> tuple[np.ndarray, ...]:
    """The per-size constant tables, covering sizes up to ``m_max``."""
    global _size_table
    table = _size_table
    if not table or table[0].size <= m_max:
        m = np.arange(1, m_max + 1, dtype=float)
        log_m = np.log(m)
        lg = gammaln(m + 1.0)
        l1 = (m - 1.0) * log_m - lg
        l2 = m * log_m - lg
        table = tuple(
            np.concatenate(([0.0], col)) for col in (l1, l2, np.exp(l1), np.exp(l2))
        )
        _size_table = table
    return table


#: Stand-in utilization for idle servers inside the kernel: their
#: outputs are closed forms patched in afterwards, and a small positive
#: value keeps the general formulas (``log rho``, ``rho^{m-2}``) finite.
_IDLE_RHO = 1e-3


def _response_derivatives(
    ms: np.ndarray,
    mf: np.ndarray,
    xbars: np.ndarray,
    rho: np.ndarray,
    rho_s: np.ndarray,
    disc: Discipline,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The waiting factor ``W`` and ``dT'/drho``, ``d2T'/drho2`` per server.

    Batched :func:`repro.core.response.waiting_factor` (divided by
    ``1 - rho''`` under priority),
    :func:`~repro.core.response.d_generic_response_time_drho` and
    :func:`~repro.core.response.d2_generic_response_time_drho2`, from
    one :func:`_recurrences` pass.  ``dp_0/drho`` is computed once for
    both derivatives, each power ``rho^m``, ``rho^{m-1}``,
    ``rho^{m-2}`` once, and the per-size constants come from
    :func:`_size_constants`.  Idle servers (``rho = 0``) and
    single-blade servers take their closed forms.
    """
    # Idle limits: dT'/drho is xbar at m = 1; d2T'/drho2 is 2 xbar at
    # m <= 2 (h''(0) = 2 with m^{m-1}/m! = 1); both vanish otherwise.
    # An idle server has rho'' = 0 too, so the priority factor is 1.
    pos = rho > 0.0
    idle_dt = np.where(ms == 1, xbars, 0.0)
    idle_d2t = np.where(ms <= 2, 2.0 * xbars, 0.0)
    if not pos.any():
        return np.zeros_like(rho), idle_dt, idle_d2t
    r = np.where(pos, rho, _IDLE_RHO)
    p0, s1, s2 = _recurrences(ms, mf, r, heads=True)
    l1, l2, c1, c2 = (col[ms] for col in _size_constants(int(ms.max())))
    one = 1.0 - r
    one2 = one**2
    one3 = one**3
    log_r = np.log(r)
    pm = r**mf
    pm1 = r ** (mf - 1.0)
    pm2 = r ** np.maximum(mf - 2.0, 0.0)
    lead1 = mf - (mf - 1.0) * r
    lead2 = mf - (mf - 2.0) * r

    w = p0 * np.exp(l1 + mf * log_r) / one2
    # dp_0/drho = -p_0^2 S'; at m = 1 the head is empty and the tail
    # is exactly 1/(1 - rho)^2.
    tail1 = np.exp(l2 + (mf - 1.0) * log_r) * lead1 / one2
    dp0 = -p0 * p0 * (s1 + tail1)
    dt = xbars * c1 * (dp0 * pm / one2 + p0 * pm1 * lead2 / one3)
    # d2p_0/drho2 = p_0^2 (2 p_0 S'^2 - S''), the S' tail re-derived
    # from m^m/m! as in the scalar code.
    sp = s1 + c2 * pm1 * lead1 / one2
    spp = s2 + c2 * (mf * (mf - 1.0) * pm2 / one + 2.0 * pm1 * lead1 / one3)
    d2p0 = p0 * p0 * (2.0 * p0 * sp * sp - spp)
    d2h = (
        pm2 * ((mf - 1.0) * lead2 - (mf - 2.0) * r) / one3
        + 3.0 * pm1 * lead2 / one**4
    )
    h = pm / one2
    dh = pm1 * lead2 / one3
    d2t = xbars * c1 * (d2p0 * h + 2.0 * dp0 * dh + p0 * d2h)
    d2t = np.where(ms == 1, 2.0 * xbars / one3, d2t)
    if disc is Discipline.PRIORITY:
        one_s = 1.0 - rho_s
        w = w / one_s
        dt = dt / one_s
        d2t = d2t / one_s
    return (
        np.where(pos, w, 0.0),
        np.where(pos, dt, idle_dt),
        np.where(pos, d2t, idle_d2t),
    )


#: Servers per kernel block.  Each output element depends only on its
#: own server, so evaluating in blocks caps the kernel's ~45
#: block-length temporaries without changing a bit of the result.
_BLOCK = 8192


#: Inner Newton sweeps per outer iteration before declaring failure.
#: Safeguarded steps halve a bracket at worst, so ~60 sweeps resolve
#: any double-precision interval; Newton itself needs far fewer.
_MAX_INNER_SWEEPS = 120

#: Outer multiplier iterations before declaring failure.
_MAX_OUTER = 200

#: Relative evaluation noise of a marginal: a rate with ``|g_i - phi|
#: <= _ROOT_NOISE * phi`` is a root of ``g_i = phi`` (a couple of ulps;
#: bisection cannot refine past the kernel's roundoff).
_ROOT_NOISE = 8.9e-16


def marginal_cost_and_slope_vec(
    ms: np.ndarray,
    xbars: np.ndarray,
    specials: np.ndarray,
    lams: np.ndarray,
    total_rate: float,
    disc: Discipline,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched marginal costs ``g_i`` and their slopes ``g_i'``.

    One :func:`_response_derivatives` pass per block of
    :data:`_BLOCK` servers feeds both outputs:

    * ``g_i = (T'_i + rho'_i dT'_i/drho) / lambda'`` — the batched
      :func:`repro.core.objective.marginal_cost`;
    * ``g_i' = (xbar_i/m_i) (2 dT'_i/drho + rho'_i d2T'_i/drho2)
      / lambda'`` — strictly positive on the stability region (``T'``
      is increasing and convex in ``rho``), which is what makes both
      Newton levels well-posed.
    """
    n = ms.shape[0]
    g = np.empty(n)
    dg = np.empty(n)
    for lo in range(0, n, _BLOCK):
        hi = lo + _BLOCK
        g[lo:hi], dg[lo:hi] = _marginal_block(
            ms[lo:hi], xbars[lo:hi], specials[lo:hi], lams[lo:hi], total_rate, disc
        )
    return g, dg


def _marginal_block(
    ms: np.ndarray,
    xbars: np.ndarray,
    specials: np.ndarray,
    lams: np.ndarray,
    total_rate: float,
    disc: Discipline,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`marginal_cost_and_slope_vec` on one block of servers."""
    mf = ms.astype(float)
    rho = (lams + specials) * xbars / mf
    rho_g = lams * xbars / mf
    rho_s = specials * xbars / mf
    w, dt, d2t = _response_derivatives(ms, mf, xbars, rho, rho_s, disc)
    t = xbars * (1.0 + w)
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
    noise = _ROOT_NOISE * abs(phi)
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


def rate_ceilings(caps: np.ndarray) -> np.ndarray:
    """Per-server rate ceilings: the bounds ``caps`` less the stability margin."""
    return np.where(caps > 0.0, (1.0 - STABILITY_MARGIN) * caps, 0.0)


def threshold_numerators(
    ms: np.ndarray,
    xbars: np.ndarray,
    specials: np.ndarray,
    caps: np.ndarray,
    disc: Discipline,
) -> tuple[np.ndarray, np.ndarray]:
    """``lambda' g_i(0)`` and ``lambda' g_i(cap_i)`` for every server.

    The dual ascent parks server ``i`` when ``phi <= g_i(0)`` and pins
    it when ``phi > g_i(cap_i)``.  The marginal is ``(T'_i + rho'_i
    dT'_i/drho) / lambda'`` and only that last division involves the
    rate, so these numerators are facts about the servers alone.  They
    are evaluated at ``lambda' = 1`` (dividing by 1 is exact), and
    :func:`dual_ascent` divides them by its own ``lambda'``, which gives
    the thresholds a kernel pass at that rate gives, bit for bit.
    """
    zeros = np.zeros(ms.shape[0])
    g0, _ = marginal_cost_and_slope_vec(ms, xbars, specials, zeros, 1.0, disc)
    gcap, _ = marginal_cost_and_slope_vec(
        ms, xbars, specials, rate_ceilings(caps), 1.0, disc
    )
    return g0, gcap


def dual_ascent(
    ms: np.ndarray,
    xbars: np.ndarray,
    specials: np.ndarray,
    caps: np.ndarray,
    total_rate: float,
    disc: Discipline,
    tol: float,
    phi_hint: float | None,
    thresholds: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, float, int, int]:
    """The damped-Newton dual ascent on raw per-server arrays.

    ``ms``, ``xbars``, ``specials`` and ``caps`` are the servers' sizes,
    mean service times, special-task rates and spare capacities, or
    smaller per-server bounds (:func:`~repro.core.constrained.solve_capped`).
    A rate pinned at its bound sits at :func:`rate_ceilings`, just below
    it.  The caller has already checked that ``total_rate`` is feasible
    for them.  ``thresholds`` is :func:`threshold_numerators` of the same
    servers, for a caller that solves them at many rates; ``None``
    computes it (two batched kernel passes).  Returns ``(rates, phi,
    iterations, inner_sweeps)`` with the rates settled onto the budget.
    :func:`solve_newton` runs it on a whole group; the sharded
    coordinator runs it on the live shards' members
    (:mod:`repro.shard.coordinator`).
    """
    if not 0.0 < tol < math.inf:
        raise ParameterError(f"tol must be finite and > 0, got {tol}")
    n = ms.shape[0]
    hard_caps = rate_ceilings(caps)
    zeros = np.zeros(n)

    # Both thresholds below are phi-independent, so they cover every
    # outer iteration:
    #   g0   — marginal at zero load; phi <= g0 parks the server,
    #   gcap — marginal at the stability boundary; phi > gcap pins it.
    if thresholds is None:
        thresholds = threshold_numerators(ms, xbars, specials, caps, disc)
    g0 = thresholds[0] / total_rate
    gcap = thresholds[1] / total_rate

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
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(rates, d rates / d phi)`` at multiplier ``phi``.

        ``lo``/``hi`` are component-wise root bounds carried over from
        rate vectors already computed at smaller/larger multipliers
        (``lambda'_i(phi)`` is non-decreasing in ``phi``).
        """
        nonlocal inner_sweeps, prev_rates
        active = (caps > 0.0) & (g0 < phi)
        if not active.any():
            return zeros.copy(), zeros
        pinned = active & (gcap < phi)
        free = active & ~pinned
        rates = np.where(pinned, hard_caps, 0.0)
        slopes = np.zeros(n)
        f = np.flatnonzero(free)
        if f.size:
            # Only the free servers have a root to find.  Pad carried-over
            # bounds by tol (the accuracy of the rates they came from).
            caps_f = hard_caps[f]
            ub = np.minimum(hi[f] + tol, caps_f)
            lb = np.minimum(np.clip(lo[f] - tol, 0.0, caps_f), ub)
            roots, dg, sweeps = _inner_newton(
                ms[f],
                xbars[f],
                specials[f],
                total_rate,
                phi,
                disc,
                tol,
                prev_rates[f],
                lb,
                ub,
            )
            inner_sweeps += sweeps
            if sweep_hist is not None:
                sweep_hist.observe(max(sweeps, 1))
            rates[f] = roots
            with np.errstate(divide="ignore"):
                slopes[f] = 1.0 / dg
        prev_rates = rates
        return rates, slopes

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
    hinted = (
        phi_hint is not None
        and math.isfinite(phi_hint)
        and phi_seed <= phi_hint <= phi_ceil
    )
    if hinted:
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
                rates, slopes = rates_at(phi, r_lo, r_hi)
                sp.note(
                    inner_sweeps=inner_sweeps - before, sum_rates=float(rates.sum())
                )
        else:
            rates, slopes = rates_at(phi, r_lo, r_hi)
        fprime = float(slopes.sum())
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
            if cand == phi and hinted and iterations == 1:
                # A hint within phi's float resolution of the answer,
                # where some free servers' marginals are flat to float
                # precision: their inner roots stay at the cold split
                # and F(phi) misses the budget, but the Newton step on
                # phi rounds to zero.  In rate space the same step is
                # finite; keep it if the servers it moves are still
                # roots of g_i = phi, else bisect as usual.
                moved = rates - resid * (slopes / fprime)
                big = np.abs(moved - rates) > tol
                if big.any() and np.all((moved >= 0.0) & (moved <= hard_caps)):
                    g_moved, _ = marginal_cost_and_slope_vec(
                        ms[big], xbars[big], specials[big], moved[big], total_rate, disc
                    )
                    if np.all(np.abs(g_moved - phi) <= _ROOT_NOISE * phi):
                        rates = moved
                        converged = True
                        break
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
    return LoadDistributionResult.from_rates(
        group, rates, phi, disc, "newton-dual-ascent",
        iterations=iterations, metadata={"inner_sweeps": inner_sweeps},
    )
