"""Unit tests for repro.core.response (T'_i models and derivatives)."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from repro.core.erlang import erlang_c, p_zero
from repro.core.exceptions import ParameterError, SaturationError
from repro.core.mmm import MMmQueue
from repro.core.response import (
    Discipline,
    _log_shape,
    d2_generic_response_time_drho2,
    d_generic_response_time_drho,
    generic_response_time,
    generic_response_time_rho,
    generic_response_time_vec,
    generic_waiting_time,
    special_waiting_time,
    waiting_factor,
)


class TestDiscipline:
    def test_coerce_enum_passthrough(self):
        assert Discipline.coerce(Discipline.FCFS) is Discipline.FCFS

    def test_coerce_strings(self):
        assert Discipline.coerce("fcfs") is Discipline.FCFS
        assert Discipline.coerce("FCFS") is Discipline.FCFS
        assert Discipline.coerce("priority") is Discipline.PRIORITY

    def test_coerce_unknown_raises(self):
        with pytest.raises(ParameterError):
            Discipline.coerce("lifo")


class TestFCFSResponseTime:
    def test_matches_mmm_response_time(self):
        # Without priority, T'_i equals the plain M/M/m response time of
        # the merged stream (paper: T'_i = T_i).
        m, xbar = 6, 0.7142857
        lam_g, lam_s = 3.0, 2.5
        t = generic_response_time(m, xbar, lam_g, lam_s, "fcfs")
        station = MMmQueue(m, xbar, lam_g + lam_s)
        assert t == pytest.approx(station.response_time, rel=1e-12)

    def test_zero_load_gives_service_time(self):
        assert generic_response_time(4, 0.5, 0.0, 0.0) == pytest.approx(0.5)

    def test_independent_of_class_mix(self):
        # FCFS T' depends only on the total rate, not the split.
        m, xbar = 4, 0.8
        a = generic_response_time(m, xbar, 3.0, 1.0, "fcfs")
        b = generic_response_time(m, xbar, 1.0, 3.0, "fcfs")
        assert a == pytest.approx(b, rel=1e-12)

    def test_increasing_in_load(self):
        values = [
            generic_response_time(4, 0.5, lam, 1.0, "fcfs")
            for lam in (0.5, 2.0, 4.0, 6.0)
        ]
        assert values == sorted(values)

    def test_saturation_raises(self):
        with pytest.raises(SaturationError):
            generic_response_time(2, 1.0, 1.5, 0.5, "fcfs")

    def test_negative_rate_raises(self):
        with pytest.raises(ParameterError):
            generic_response_time(2, 1.0, -0.1, 0.5)


class TestPriorityResponseTime:
    def test_priority_factor(self):
        # Theorem 2: the waiting term is exactly 1/(1 - rho'') larger.
        m, xbar = 6, 0.7
        lam_g, lam_s = 2.0, 2.0
        rho_s = lam_s * xbar / m
        t_f = generic_response_time(m, xbar, lam_g, lam_s, "fcfs")
        t_p = generic_response_time(m, xbar, lam_g, lam_s, "priority")
        wait_f = t_f - xbar
        wait_p = t_p - xbar
        assert wait_p == pytest.approx(wait_f / (1.0 - rho_s), rel=1e-12)

    def test_priority_never_better_for_generic(self):
        for lam_s in (0.0, 1.0, 2.5):
            t_f = generic_response_time(6, 0.7, 2.0, lam_s, "fcfs")
            t_p = generic_response_time(6, 0.7, 2.0, lam_s, "priority")
            assert t_p >= t_f

    def test_no_specials_disciplines_coincide(self):
        t_f = generic_response_time(5, 0.9, 3.0, 0.0, "fcfs")
        t_p = generic_response_time(5, 0.9, 3.0, 0.0, "priority")
        assert t_f == pytest.approx(t_p, rel=1e-12)

    def test_mm1_closed_form(self):
        # m=1 priority: T' = xbar (1 + rho/((1-rho'')(1-rho))).
        xbar, lam_g, lam_s = 1.0, 0.3, 0.4
        rho, rho_s = 0.7, 0.4
        expected = xbar * (1.0 + rho / ((1.0 - rho_s) * (1.0 - rho)))
        got = generic_response_time(1, xbar, lam_g, lam_s, "priority")
        assert got == pytest.approx(expected, rel=1e-12)


class TestWaitingTimes:
    def test_special_wait_below_generic_wait_under_priority(self):
        m, xbar, rho, rho_s = 4, 0.8, 0.7, 0.3
        w_s = special_waiting_time(m, xbar, rho, rho_s)
        w_g = generic_waiting_time(m, xbar, rho, rho_s, "priority")
        assert w_s < w_g

    def test_fcfs_wait_is_class_blind(self):
        m, xbar, rho = 4, 0.8, 0.7
        w1 = generic_waiting_time(m, xbar, rho, 0.1, "fcfs")
        w2 = generic_waiting_time(m, xbar, rho, 0.6, "fcfs")
        assert w1 == pytest.approx(w2, rel=1e-12)

    def test_conservation_identity(self):
        # Work conservation: the class-weighted mean wait under priority
        # equals the FCFS mean wait (both disciplines are non-idling and
        # non-preemptive with exponential service).
        m, xbar = 5, 0.6
        lam_g, lam_s = 2.0, 3.0
        rho = (lam_g + lam_s) * xbar / m
        rho_s = lam_s * xbar / m
        w_fcfs = generic_waiting_time(m, xbar, rho, rho_s, "fcfs")
        w_g = generic_waiting_time(m, xbar, rho, rho_s, "priority")
        w_s = special_waiting_time(m, xbar, rho, rho_s)
        blended = (lam_g * w_g + lam_s * w_s) / (lam_g + lam_s)
        assert blended == pytest.approx(w_fcfs, rel=1e-10)

    def test_waiting_factor_is_normalized_wait(self):
        m, xbar, rho = 6, 0.7, 0.8
        w = generic_waiting_time(m, xbar, rho, 0.0, "fcfs")
        assert waiting_factor(m, rho) == pytest.approx(w / xbar, rel=1e-12)


class TestDerivative:
    @pytest.mark.parametrize("m", [1, 2, 4, 8, 14])
    @pytest.mark.parametrize("rho", [0.1, 0.4, 0.7, 0.9])
    @pytest.mark.parametrize("disc", ["fcfs", "priority"])
    def test_matches_finite_difference(self, m, rho, disc):
        xbar = 0.8
        rho_s = min(0.3, rho / 2)  # held fixed (and < rho - h) while rho varies
        h = 1e-7

        def t(r):
            return generic_response_time_rho(m, xbar, r, rho_s, disc)

        fd = (t(rho + h) - t(rho - h)) / (2 * h)
        analytic = d_generic_response_time_drho(m, xbar, rho, rho_s, disc)
        # abs floor: at large m and tiny rho the true derivative is ~1e-9
        # and the finite difference loses most digits to cancellation.
        assert analytic == pytest.approx(fd, rel=2e-5, abs=1e-9)

    def test_positive_on_interior(self):
        for m in (1, 3, 9):
            for rho in (0.2, 0.6, 0.95):
                assert d_generic_response_time_drho(m, 1.0, rho, 0.1) > 0.0

    def test_priority_derivative_scaled(self):
        m, xbar, rho, rho_s = 4, 1.0, 0.6, 0.25
        d_f = d_generic_response_time_drho(m, xbar, rho, rho_s, "fcfs")
        d_p = d_generic_response_time_drho(m, xbar, rho, rho_s, "priority")
        assert d_p == pytest.approx(d_f / (1.0 - rho_s), rel=1e-12)

    def test_rho_special_exceeding_rho_raises(self):
        with pytest.raises(ParameterError):
            generic_response_time_rho(2, 1.0, 0.3, 0.5)


class TestSecondDerivative:
    @pytest.mark.parametrize("m", [1, 2, 4, 8, 14])
    @pytest.mark.parametrize("rho", [0.1, 0.4, 0.7, 0.9])
    @pytest.mark.parametrize("disc", ["fcfs", "priority"])
    def test_matches_finite_difference_of_first(self, m, rho, disc):
        xbar = 0.8
        rho_s = min(0.3, rho / 2)
        h = 1e-7

        def d1(r):
            return d_generic_response_time_drho(m, xbar, r, rho_s, disc)

        fd = (d1(rho + h) - d1(rho - h)) / (2 * h)
        analytic = d2_generic_response_time_drho2(m, xbar, rho, rho_s, disc)
        assert analytic == pytest.approx(fd, rel=2e-5, abs=1e-8)

    @pytest.mark.parametrize("m", [1, 2, 3, 7])
    def test_rho_zero_limits(self, m):
        # d2T(0) = 2 xbar for m in {1, 2} (M/M/1 closed form and the
        # h''(0) = 2 term at m = 2); every higher m carries a positive
        # power of rho in all terms.
        expected = 2.0 * 0.8 if m <= 2 else 0.0
        assert d2_generic_response_time_drho2(m, 0.8, 0.0, 0.0) == pytest.approx(
            expected, rel=1e-12
        )

    def test_positive_on_interior(self):
        # T' convex in rho: what lets the Newton backend take full
        # second-order steps safely.
        for m in (1, 3, 9):
            for rho in (0.2, 0.6, 0.95):
                assert d2_generic_response_time_drho2(m, 1.0, rho, 0.1) > 0.0

    def test_priority_second_derivative_scaled(self):
        m, xbar, rho, rho_s = 4, 1.0, 0.6, 0.25
        d_f = d2_generic_response_time_drho2(m, xbar, rho, rho_s, "fcfs")
        d_p = d2_generic_response_time_drho2(m, xbar, rho, rho_s, "priority")
        assert d_p == pytest.approx(d_f / (1.0 - rho_s), rel=1e-12)


# ---------------------------------------------------------------------------
# Large blade counts and the vector T'_i assembly
# ---------------------------------------------------------------------------

RHOS = (0.0, 1e-9, 0.3, 0.9, 0.999)


def _oracle_t(m, xbar, rho, rho_s, disc):
    """``T'`` from Erlang-C: ``xbar (1 + C / (m (1 - rho)) [/(1 - rho'')])``."""
    w = erlang_c(m, rho) / (m * (1.0 - rho))
    if disc == "priority":
        w /= 1.0 - rho_s
    return xbar * (1.0 + w)


def _servers(sizes, rho, share, rng):
    """Arrays of servers at utilization ``rho``, ``share`` of it special."""
    sizes = np.asarray(sizes, dtype=np.int64)
    xbars = rng.uniform(0.5, 2.0, sizes.size)
    total = rho * sizes / xbars
    specials = share * total
    return sizes, xbars, total - specials, specials


def _scalar_t(sizes, xbars, rates, specials, disc):
    return np.array(
        [
            generic_response_time(int(m), x, r, s, disc)
            for m, x, r, s in zip(sizes, xbars, rates, specials)
        ]
    )


class TestLargeServerSizes:
    """The scalar ``T'`` no longer overflows from m ~ 700 (ROADMAP item 7)."""

    @pytest.mark.parametrize("m", [1000, 5000])
    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.74, 0.9, 0.999])
    def test_waiting_factor_matches_erlang_c(self, m, rho):
        # rho = 0.74 at m = 1000 is a subnormal p_0 under a finite shape
        # factor; 0.9 and 0.999 overflowed the shape factor outright.
        oracle = erlang_c(m, rho) / (m * (1.0 - rho))
        assert waiting_factor(m, rho) == pytest.approx(oracle, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("m", [1000, 5000])
    @pytest.mark.parametrize("disc", ["fcfs", "priority"])
    def test_response_time_matches_oracle(self, m, disc):
        xbar, rho, rho_s = 0.8, 0.999, 0.3
        lam_s = rho_s * m / xbar
        lam_g = rho * m / xbar - lam_s
        got = generic_response_time(m, xbar, lam_g, lam_s, disc)
        assert got == pytest.approx(_oracle_t(m, xbar, rho, rho_s, disc), rel=1e-11)

    @pytest.mark.parametrize("m", [*range(1, 17), 300, 700])
    @pytest.mark.parametrize("rho", [1e-9, 0.3, 0.9, 0.999])
    def test_finite_values_keep_the_linear_space_form(self, m, rho):
        # The log-space branch only takes over where the linear form
        # overflows or p_0 is subnormal: every other value is unchanged.
        linear = p_zero(m, rho) * math.exp(_log_shape(m, rho)) / (1.0 - rho) ** 2
        assert waiting_factor(m, rho) == linear


class TestVectorResponseTime:
    @pytest.mark.parametrize("rho", RHOS)
    @pytest.mark.parametrize("share", [0.0, 0.3])
    @pytest.mark.parametrize("disc", ["fcfs", "priority"])
    def test_matches_scalar_at_paper_sizes(self, rho, share, disc):
        rng = np.random.default_rng(1)
        args = _servers(np.arange(1, 17), rho, share, rng)
        got = generic_response_time_vec(*args, disc)
        np.testing.assert_allclose(got, _scalar_t(*args, disc), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("rho", RHOS)
    @pytest.mark.parametrize("share", [0.0, 0.3])
    @pytest.mark.parametrize("disc", ["fcfs", "priority"])
    def test_matches_scalar_at_random_sizes(self, rho, share, disc):
        rng = np.random.default_rng(2)
        args = _servers(rng.integers(1, 601, 40), rho, share, rng)
        got = generic_response_time_vec(*args, disc)
        np.testing.assert_allclose(got, _scalar_t(*args, disc), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("m", [1000, 5000])
    @pytest.mark.parametrize("rho", [0.5, 0.9, 0.999])
    @pytest.mark.parametrize("disc", ["fcfs", "priority"])
    def test_large_sizes_match_erlang_c(self, m, rho, disc):
        xbar, rho_s = 1.25, 0.3
        lam_s = rho_s * m / xbar
        lam_g = rho * m / xbar - lam_s
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = generic_response_time_vec(
                np.array([m]), np.array([xbar]), np.array([lam_g]), np.array([lam_s]), disc
            )
        assert got[0] == pytest.approx(_oracle_t(m, xbar, rho, rho_s, disc), rel=1e-13)

    def test_zero_load_is_exactly_the_service_time(self):
        xbars = np.array([0.5, 0.8, 1.25])
        zeros = np.zeros(3)
        got = generic_response_time_vec(np.array([1, 7, 600]), xbars, zeros, zeros)
        assert np.array_equal(got, xbars)

    def test_priority_divides_waiting_by_special_headroom(self):
        sizes, xbars = np.array([3, 9]), np.array([1.0, 0.5])
        rates, specials = np.array([1.0, 8.0]), np.array([0.6, 3.0])
        fcfs = generic_response_time_vec(sizes, xbars, rates, specials, "fcfs")
        prio = generic_response_time_vec(sizes, xbars, rates, specials, "priority")
        rho_s = specials * xbars / sizes
        np.testing.assert_allclose(
            prio / xbars - 1.0, (fcfs / xbars - 1.0) / (1.0 - rho_s), rtol=1e-14
        )

    def test_saturation_raises(self):
        with pytest.raises(SaturationError) as excinfo:
            generic_response_time_vec(
                np.array([2, 2]), np.ones(2), np.array([0.5, 1.5]), np.array([0.0, 0.5])
            )
        assert excinfo.value.rho == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "bad, error",
        [(np.nan, ParameterError), (-0.1, ParameterError), (np.inf, SaturationError)],
    )
    def test_bad_rates_raise_like_the_scalar_path(self, bad, error):
        with pytest.raises(error):
            generic_response_time(2, 1.0, bad, 0.5)
        ok = np.array([0.5, 0.5])
        with pytest.raises(error):
            generic_response_time_vec(
                np.array([2, 2]), np.ones(2), np.array([0.5, bad]), ok
            )
        with pytest.raises(error):
            generic_response_time_vec(
                np.array([2, 2]), np.ones(2), ok, np.array([bad, 0.5])
            )
