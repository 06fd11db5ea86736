"""Unit tests for the result container and the exception hierarchy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exceptions import (
    ConvergenceError,
    InfeasibleError,
    ParameterError,
    ReproError,
    SaturationError,
    SimulationError,
)
from repro.core.response import Discipline
from repro.core.result import LoadDistributionResult
from repro.core.server import BladeServerGroup


def small_group(n: int) -> BladeServerGroup:
    return BladeServerGroup.from_arrays(sizes=[4] * n, speeds=[2.0] * n)


def make_result(rates=(1.0, 2.0, 3.0)) -> LoadDistributionResult:
    rates = np.asarray(rates, dtype=float)
    return LoadDistributionResult(
        generic_rates=rates,
        mean_response_time=1.25,
        phi=0.7,
        discipline=Discipline.FCFS,
        method="test",
        group=small_group(rates.size),
        iterations=12,
    )


class TestLoadDistributionResult:
    def test_totals_and_fractions(self):
        res = make_result()
        assert res.n == 3
        assert res.total_rate == pytest.approx(6.0)
        assert np.allclose(res.fractions, [1 / 6, 2 / 6, 3 / 6])
        assert res.fractions.sum() == pytest.approx(1.0)

    def test_zero_rates_fractions(self):
        res = make_result(rates=(0.0, 0.0))
        assert np.allclose(res.fractions, 0.0)

    def test_arrays_coerced(self):
        res = LoadDistributionResult(
            generic_rates=[1, 2],
            mean_response_time=1.0,
            phi=0.5,
            discipline=Discipline.PRIORITY,
            method="x",
            group=small_group(2),
        )
        assert isinstance(res.generic_rates, np.ndarray)
        assert res.generic_rates.dtype == float

    def test_summary_contains_key_fields(self):
        text = make_result().summary()
        assert "method=test" in text
        assert "T'=1.25" in text
        assert text.count("\n") >= 4  # header + column row + 3 servers

    def test_frozen(self):
        res = make_result()
        with pytest.raises(AttributeError):
            res.phi = 1.0

    def test_metadata_default_isolated(self):
        a, b = make_result(), make_result()
        a.metadata["k"] = 1
        assert "k" not in b.metadata


class TestExceptionHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc_type in (
            ParameterError,
            SaturationError,
            InfeasibleError,
            ConvergenceError,
            SimulationError,
        ):
            assert issubclass(exc_type, ReproError)

    def test_value_error_compatibility(self):
        # Callers used to ValueError-style validation keep working.
        assert issubclass(ParameterError, ValueError)
        assert issubclass(SaturationError, ValueError)
        assert issubclass(InfeasibleError, ValueError)
        assert issubclass(ConvergenceError, RuntimeError)

    def test_saturation_carries_rho(self):
        err = SaturationError("too hot", rho=1.2)
        assert err.rho == 1.2

    def test_infeasible_carries_context(self):
        err = InfeasibleError("nope", total_rate=10.0, capacity=8.0)
        assert err.total_rate == 10.0
        assert err.capacity == 8.0

    def test_convergence_carries_best(self):
        err = ConvergenceError("slow", best=[1, 2])
        assert err.best == [1, 2]

    def test_catch_all(self):
        with pytest.raises(ReproError):
            raise SaturationError("x", rho=1.0)
