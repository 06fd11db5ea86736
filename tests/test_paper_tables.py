"""Regression anchors: digit-for-digit reproduction of Tables 1 and 2.

The published tables print seven decimal digits; these tests demand
agreement to half a unit in the last printed place — i.e. *exact*
reproduction of every published number.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.tables import render_table, reproduce_table
from repro import solve
from repro.workloads.paper import (
    EXAMPLE_TOTAL_RATE,
    TABLE1_RATES,
    TABLE1_T_PRIME,
    TABLE1_UTILIZATIONS,
    TABLE2_RATES,
    TABLE2_T_PRIME,
    TABLE2_UTILIZATIONS,
)

#: Half a unit in the seventh decimal place.
TOL = 5e-8

METHODS = ["bisection", "kkt", "slsqp"]


class TestTable1:
    @pytest.mark.parametrize("method", METHODS)
    def test_t_prime(self, paper_group, method):
        res = solve(
            paper_group, EXAMPLE_TOTAL_RATE, discipline="fcfs", method=method
        )
        assert res.mean_response_time == pytest.approx(TABLE1_T_PRIME, abs=TOL)

    def test_rates_all_digits(self, paper_group):
        res = solve(
            paper_group, EXAMPLE_TOTAL_RATE, discipline="fcfs", method="kkt"
        )
        assert np.allclose(res.generic_rates, TABLE1_RATES, atol=TOL)

    def test_utilizations_all_digits(self, paper_group):
        res = solve(
            paper_group, EXAMPLE_TOTAL_RATE, discipline="fcfs", method="kkt"
        )
        assert np.allclose(res.utilizations, TABLE1_UTILIZATIONS, atol=TOL)

    def test_example_rate_is_half_saturation(self, paper_group):
        assert EXAMPLE_TOTAL_RATE == pytest.approx(
            0.5 * paper_group.max_generic_rate
        )


class TestTable2:
    @pytest.mark.parametrize("method", METHODS)
    def test_t_prime(self, paper_group, method):
        res = solve(
            paper_group, EXAMPLE_TOTAL_RATE, discipline="priority", method=method
        )
        assert res.mean_response_time == pytest.approx(TABLE2_T_PRIME, abs=TOL)

    def test_rates_all_digits(self, paper_group):
        res = solve(
            paper_group, EXAMPLE_TOTAL_RATE, discipline="priority", method="kkt"
        )
        assert np.allclose(res.generic_rates, TABLE2_RATES, atol=TOL)

    def test_utilizations_all_digits(self, paper_group):
        res = solve(
            paper_group, EXAMPLE_TOTAL_RATE, discipline="priority", method="kkt"
        )
        assert np.allclose(res.utilizations, TABLE2_UTILIZATIONS, atol=TOL)

    def test_priority_t_exceeds_fcfs_t(self):
        # The paper's headline comparison between the two examples.
        assert TABLE2_T_PRIME > TABLE1_T_PRIME


class TestTableBuilder:
    def test_reproduce_table1(self):
        table = reproduce_table("fcfs")
        assert table.table_id == "table1"
        assert table.t_prime == pytest.approx(TABLE1_T_PRIME, abs=TOL)
        assert np.allclose(table.generic_rates, TABLE1_RATES, atol=TOL)
        # Special rates column: lambda''_i = 0.3 m_i s_i.
        assert np.allclose(table.special_rates, 0.3 * table.sizes * table.speeds)

    def test_reproduce_table2(self):
        table = reproduce_table("priority")
        assert table.table_id == "table2"
        assert table.t_prime == pytest.approx(TABLE2_T_PRIME, abs=TOL)
        assert np.allclose(table.generic_rates, TABLE2_RATES, atol=TOL)

    def test_render_contains_all_published_digits(self):
        text = render_table(reproduce_table("fcfs"))
        assert "0.8964703" in text
        for rate in TABLE1_RATES:
            assert f"{rate:.7f}" in text

    def test_render_table2_digits(self):
        text = render_table(reproduce_table("priority"))
        assert "0.9209392" in text
        for rho in TABLE2_UTILIZATIONS:
            assert f"{rho:.7f}" in text
