"""Shared fixtures for the test suite."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro import BladeServerGroup
from repro.workloads import example_group


@pytest.fixture(scope="session")
def paper_group() -> BladeServerGroup:
    """The Examples 1/2 seven-server system (m_i = 2i, s_i = 1.7 - 0.1i)."""
    return example_group()


@pytest.fixture(scope="session")
def small_group() -> BladeServerGroup:
    """A three-server group small enough for fast exhaustive checks."""
    return BladeServerGroup.from_arrays(
        sizes=[2, 3, 4],
        speeds=[1.5, 1.2, 1.0],
        special_rates=[0.6, 0.9, 1.0],
        rbar=1.0,
    )


@pytest.fixture(scope="session")
def single_blade_group() -> BladeServerGroup:
    """An all-M/M/1 group for the closed-form theorems."""
    return BladeServerGroup.with_special_fraction(
        sizes=[1, 1, 1, 1],
        speeds=[1.6, 1.3, 1.0, 0.7],
        fraction=0.25,
        rbar=1.0,
    )


@pytest.fixture(scope="session")
def unloaded_group() -> BladeServerGroup:
    """A group with no special tasks at all."""
    return BladeServerGroup.from_arrays(
        sizes=[2, 4, 8],
        speeds=[2.0, 1.5, 1.0],
        rbar=1.0,
    )


@pytest.fixture
def cyclic_garbage(monkeypatch):
    """Run the test with the cyclic collector off.

    Yields ``(engines, collect)``: ``engines`` fills with a weak
    reference to every :class:`~repro.sim.engine.GroupSimulation` built
    during the test, and ``collect()`` returns the objects that only the
    cyclic collector could free, which reference counting left behind.
    """
    from repro.sim.engine import GroupSimulation

    engines: list = []
    init = GroupSimulation.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        engines.append(weakref.ref(self))

    monkeypatch.setattr(GroupSimulation, "__init__", recording_init)

    def collect() -> list:
        gc.collect()
        return list(gc.garbage)

    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield engines, collect
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
