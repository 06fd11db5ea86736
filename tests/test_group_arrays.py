"""The group's cached, read-only per-server vectors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.server import BladeServer, BladeServerGroup

VECTORS = ("sizes", "speeds", "special_rates", "xbars", "spare_capacities")

SIZES = [2, 4, 6, 8]
SPEEDS = [1.6, 1.4, 1.2, 1.0]


def built(how: str) -> BladeServerGroup:
    if how == "from_arrays":
        special = [0.5, 0.0, 1.5, 2.0]
        return BladeServerGroup.from_arrays(SIZES, SPEEDS, special, rbar=0.8)
    if how == "with_special_fraction":
        return BladeServerGroup.with_special_fraction(SIZES, SPEEDS, 0.3, rbar=1.2)
    servers = [BladeServer(m, s, 0.25 * m) for m, s in zip(SIZES, SPEEDS)]
    return BladeServerGroup(servers, rbar=1.0)


HOWS = ("from_arrays", "with_special_fraction", "direct")


@pytest.mark.parametrize("how", HOWS)
@pytest.mark.parametrize("name", VECTORS)
def test_vector_is_cached_and_read_only(how, name):
    group = built(how)
    vec = getattr(group, name)
    assert getattr(group, name) is vec
    assert not vec.flags.writeable
    with pytest.raises(ValueError):
        vec[0] = 1
    copy = vec.copy()
    copy[0] = 1  # callers that need to write take a copy


@pytest.mark.parametrize("how", HOWS)
def test_vectors_match_the_servers(how):
    group = built(how)
    assert group.sizes.dtype == np.int64
    assert group.sizes.tolist() == [s.size for s in group.servers]
    assert group.speeds.tolist() == [s.speed for s in group.servers]
    assert group.special_rates.tolist() == [s.special_rate for s in group.servers]
    assert group.xbars.tolist() == [s.xbar(group.rbar) for s in group.servers]
    assert group.spare_capacities.tolist() == [
        s.spare_capacity(group.rbar) for s in group.servers
    ]


def test_capacities_are_bit_identical_to_the_uncached_formulas(paper_group):
    servers = paper_group.servers
    sizes = np.array([s.size for s in servers], dtype=np.int64)
    speeds = np.array([s.speed for s in servers], dtype=float)
    special = np.array([s.special_rate for s in servers], dtype=float)
    spare = sizes / (paper_group.rbar / speeds) - special
    assert paper_group.spare_capacities.tobytes() == spare.tobytes()
    assert paper_group.max_generic_rate == float(spare.sum())
