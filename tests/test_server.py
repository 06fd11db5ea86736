"""Unit tests for repro.core.server (BladeServer, BladeServerGroup)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exceptions import InfeasibleError, ParameterError, SaturationError
from repro.core.response import generic_response_time
from repro.core.server import BladeServer, BladeServerGroup


class TestBladeServer:
    def test_basic_properties(self):
        s = BladeServer(size=4, speed=1.5, special_rate=1.8, name="S2")
        assert s.xbar(1.0) == pytest.approx(1.0 / 1.5)
        assert s.service_capacity(1.0) == pytest.approx(6.0)
        assert s.spare_capacity(1.0) == pytest.approx(4.2)
        assert s.special_utilization(1.0) == pytest.approx(0.3)

    def test_rbar_scales_xbar(self):
        s = BladeServer(size=2, speed=2.0)
        assert s.xbar(0.5) == pytest.approx(0.25)
        assert s.xbar(2.0) == pytest.approx(1.0)

    def test_defaults(self):
        s = BladeServer(size=1, speed=1.0)
        assert s.special_rate == 0.0
        assert s.name == ""

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(size=0, speed=1.0),
            dict(size=-2, speed=1.0),
            dict(size=2, speed=0.0),
            dict(size=2, speed=-1.0),
            dict(size=2, speed=1.0, special_rate=-0.5),
            dict(size=2, speed=float("inf")),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ParameterError):
            BladeServer(**kwargs)

    def test_numpy_integer_size_accepted(self):
        s = BladeServer(size=np.int64(3), speed=1.0)
        assert s.size == 3 and isinstance(s.size, int)

    def test_invalid_rbar(self):
        s = BladeServer(size=2, speed=1.0)
        with pytest.raises(ParameterError):
            s.xbar(0.0)
        with pytest.raises(ParameterError):
            s.xbar(-1.0)


class TestGroupConstruction:
    def test_from_arrays(self, small_group):
        assert small_group.n == 3
        assert small_group.total_blades == 9
        assert list(small_group.sizes) == [2, 3, 4]
        assert small_group[1].speed == pytest.approx(1.2)

    def test_names_autogenerated(self, small_group):
        assert [s.name for s in small_group] == ["S1", "S2", "S3"]

    def test_with_special_fraction_utilization(self):
        g = BladeServerGroup.with_special_fraction(
            [2, 4], [1.5, 1.0], fraction=0.3
        )
        assert np.allclose(g.special_utilizations, 0.3)

    def test_with_special_fraction_paper_rates(self, paper_group):
        # lambda''_i = 0.3 m_i / xbar_i = 0.3 m_i s_i.
        expected = 0.3 * paper_group.sizes * paper_group.speeds
        assert np.allclose(paper_group.special_rates, expected)

    def test_empty_group_rejected(self):
        with pytest.raises(ParameterError):
            BladeServerGroup([])

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ParameterError):
            BladeServerGroup.from_arrays([1, 2], [1.0])
        with pytest.raises(ParameterError):
            BladeServerGroup.from_arrays([1, 2], [1.0, 1.0], [0.1])

    def test_saturating_preload_rejected(self):
        with pytest.raises(ParameterError):
            BladeServerGroup.from_arrays([1], [1.0], [1.0])  # rho'' = 1

    def test_bad_fraction_rejected(self):
        with pytest.raises(ParameterError):
            BladeServerGroup.with_special_fraction([1], [1.0], fraction=1.0)
        with pytest.raises(ParameterError):
            BladeServerGroup.with_special_fraction([1], [1.0], fraction=-0.1)

    def test_bad_rbar_rejected(self):
        with pytest.raises(ParameterError):
            BladeServerGroup.from_arrays([1], [1.0], rbar=0.0)

    def test_non_server_element_rejected(self):
        with pytest.raises(ParameterError):
            BladeServerGroup([object()])  # type: ignore[list-item]


class TestGroupAggregates:
    def test_paper_aggregates(self, paper_group):
        assert paper_group.n == 7
        assert paper_group.total_blades == 56
        assert paper_group.total_speed == pytest.approx(67.2)
        # lambda'_max = 0.7 * total_speed / rbar = 47.04 (Example 1).
        assert paper_group.max_generic_rate == pytest.approx(47.04)

    def test_xbars(self, paper_group):
        assert paper_group.xbars[0] == pytest.approx(0.625)
        assert paper_group.xbars[-1] == pytest.approx(1.0)

    def test_spare_capacities_positive(self, paper_group):
        assert np.all(paper_group.spare_capacities > 0)

    def test_iteration_and_len(self, paper_group):
        assert len(paper_group) == 7
        assert len(list(paper_group)) == 7

    def test_repr(self, paper_group):
        r = repr(paper_group)
        assert "n=7" in r and "total_blades=56" in r


class TestGroupEvaluation:
    def test_utilizations(self, small_group):
        rates = np.array([1.0, 1.0, 1.0])
        rho = small_group.utilizations(rates)
        expected = (rates + small_group.special_rates) * small_group.xbars / (
            small_group.sizes
        )
        assert np.allclose(rho, expected)

    def test_mean_response_time_is_weighted_average(self, small_group):
        rates = [0.5, 1.0, 1.5]
        per = small_group.per_server_response_times(rates)
        t = small_group.mean_response_time(rates)
        weights = np.asarray(rates) / 3.0
        assert t == pytest.approx(float((weights * per).sum()), rel=1e-12)

    def test_zero_rate_server_excluded(self, small_group):
        # A zero-load server contributes zero weight; its own T'
        # evaluation must not affect the group mean.
        t = small_group.mean_response_time([0.0, 1.0, 1.0])
        per = small_group.per_server_response_times([0.0, 1.0, 1.0])
        assert t == pytest.approx((per[1] + per[2]) / 2.0, rel=1e-12)

    @pytest.mark.parametrize("disc", ["fcfs", "priority"])
    def test_per_server_times_match_scalar_model(self, paper_group, disc):
        rates = 0.6 * paper_group.spare_capacities
        per = paper_group.per_server_response_times(rates, disc)
        scalar = [
            generic_response_time(int(m), x, r, s, disc)
            for m, x, r, s in zip(
                paper_group.sizes, paper_group.xbars, rates, paper_group.special_rates
            )
        ]
        np.testing.assert_allclose(per, scalar, rtol=1e-14, atol=0)

    def test_per_server_times_reject_bad_rates(self, small_group):
        with pytest.raises(SaturationError):
            small_group.per_server_response_times(small_group.spare_capacities)
        for bad in (np.nan, -0.5):
            with pytest.raises(ParameterError):
                small_group.per_server_response_times([1.0, bad, 1.0])

    def test_all_zero_rates_rejected(self, small_group):
        with pytest.raises(ParameterError):
            small_group.mean_response_time([0.0, 0.0, 0.0])

    def test_wrong_length_rejected(self, small_group):
        with pytest.raises(ParameterError):
            small_group.mean_response_time([1.0, 1.0])

    def test_negative_rate_rejected(self, small_group):
        with pytest.raises(ParameterError):
            small_group.mean_response_time([-0.1, 1.0, 1.0])

    def test_check_feasible(self, small_group):
        small_group.check_feasible(small_group.max_generic_rate * 0.99)
        with pytest.raises(InfeasibleError) as exc:
            small_group.check_feasible(small_group.max_generic_rate)
        assert exc.value.capacity == pytest.approx(
            small_group.max_generic_rate
        )
        with pytest.raises(ParameterError):
            small_group.check_feasible(0.0)

    def test_priority_discipline_higher_t(self, small_group):
        rates = [0.5, 1.0, 1.5]
        t_f = small_group.mean_response_time(rates, "fcfs")
        t_p = small_group.mean_response_time(rates, "priority")
        assert t_p > t_f
