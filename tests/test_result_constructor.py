"""``LoadDistributionResult.from_rates``, the one result constructor.

Every site that builds a result — the solver backends, the heuristic
policies, the supervisor's proportional split, the shard coordinator,
the bootstrap restriction and the checkpoint decoder — goes through
``from_rates``.  For each, on random groups under both disciplines:

* ``result.group`` is the group the split was computed over;
* ``rho_i`` and ``T'_i`` are not computed until first read, then
  cached, and equal the group's own evaluation bit for bit;
* ``T'`` is the group's scalar sum at the split, bit for bit;
* a result pickles with equal arrays.
"""

from __future__ import annotations

import json
import pickle
from collections import Counter

import numpy as np
import pytest

from repro.core.constrained import solve_capped
from repro.core.response import Discipline
from repro.core.result import LoadDistributionResult
from repro.core.server import BladeServer, BladeServerGroup
from repro.core.solvers import dispatch
from repro.dispatch.registry import get_policy
from repro.faults.supervisor import proportional_split
from repro.recovery import CheckpointCodec
from repro.shard import ShardConfig, partition_group, solve_sharded
from repro.shard.runtime import bootstrap_restriction

LOAD = 0.6
SEEDS = (0, 1, 2)
DERIVED = ("utilizations", "per_server_response_times")


def random_group(seed: int, *, single_blade: bool = False) -> BladeServerGroup:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 9))
    servers = []
    for _ in range(n):
        m = 1 if single_blade else int(rng.integers(1, 7))
        speed = float(rng.uniform(0.5, 2.0))
        special = float(rng.uniform(0.0, 0.4) * m * speed)
        servers.append(BladeServer(size=m, speed=speed, special_rate=special))
    return BladeServerGroup(servers, rbar=1.0)


def _backend(method):
    def site(group, rate, disc):
        return dispatch(group, rate, disc, method=method), group

    return site


def _capped(group, rate, disc):
    caps = np.full(group.n, 0.5 * rate)
    return solve_capped(group, rate, caps, disc), group


def _policy(group, rate, disc):
    return get_policy("spare-proportional").distribute(group, rate, disc), group


def _proportional(group, rate, disc):
    return proportional_split(group, rate, disc), group


def _coordinator(group, rate, disc):
    plan = partition_group(group, ShardConfig(shards=2))
    return solve_sharded(group, rate, disc, plan=plan), group


def _restriction(group, rate, disc):
    plan = partition_group(group, ShardConfig(shards=2))
    bootstrap = dispatch(group, rate, disc, method="newton")
    shard = plan.shards[0]
    return bootstrap_restriction(bootstrap, shard, rate), shard.group


def _checkpoint(group, rate, disc):
    """A result solved on the subgroup without server 0, through a
    checkpoint's JSON and back."""
    up = group.subgroup(np.arange(1, group.n))
    live = dispatch(up, min(rate, LOAD * up.max_generic_rate), disc, method="kkt")
    encoded = json.loads(json.dumps(CheckpointCodec.encode_result(live, group)))
    assert encoded["down"] == [0]
    decoded = CheckpointCodec.result_decoder(group)(encoded)
    assert decoded.group.servers == up.servers
    assert decoded.generic_rates.tobytes() == live.generic_rates.tobytes()
    return decoded, decoded.group


SITES = {
    "newton": _backend("newton"),
    "kkt": _backend("kkt"),
    "bisection": _backend("bisection"),
    "closed-form": _backend("closed-form"),
    "slsqp": _backend("slsqp"),
    "capped": _capped,
    "policy": _policy,
    "proportional": _proportional,
    "coordinator": _coordinator,
    "restriction": _restriction,
    "checkpoint": _checkpoint,
}


def _solve(site: str, seed: int, disc: Discipline):
    group = random_group(seed, single_blade=site == "closed-form")
    return SITES[site](group, LOAD * group.max_generic_rate, disc)


@pytest.fixture
def derived_calls(monkeypatch):
    """Count every ``BladeServerGroup.utilizations`` and
    ``per_server_response_times`` call made during the test."""
    calls: Counter = Counter()
    for name in DERIVED:
        original = getattr(BladeServerGroup, name)

        def counted(self, *args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(BladeServerGroup, name, counted)
    return calls


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("disc", list(Discipline), ids=lambda d: d.value)
@pytest.mark.parametrize("site", sorted(SITES))
class TestFromRates:
    def test_records_the_group_and_derives_on_first_read(
        self, derived_calls, site, disc, seed
    ):
        result, solved_over = _solve(site, seed, disc)
        assert result.group is solved_over
        assert result.n == solved_over.n
        assert not derived_calls, "derived arrays computed before any read"
        assert not set(DERIVED) & set(vars(result))

        rho = result.utilizations
        t_i = result.per_server_response_times
        assert derived_calls == Counter({name: 1 for name in DERIVED})
        assert result.utilizations is rho
        assert result.per_server_response_times is t_i
        assert derived_calls == Counter({name: 1 for name in DERIVED})

        rates = result.generic_rates
        assert rho.tobytes() == solved_over.utilizations(rates).tobytes()
        assert t_i.tobytes() == solved_over.per_server_response_times(
            rates, disc
        ).tobytes()
        assert result.mean_response_time == solved_over.mean_response_time(
            rates, disc
        )

    @pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
    def test_pickle_round_trip_keeps_the_arrays(self, site, disc, seed, read_first):
        result, _ = _solve(site, seed, disc)
        if read_first:
            for name in DERIVED:
                getattr(result, name)
        back = pickle.loads(pickle.dumps(result))
        for name in ("generic_rates",) + DERIVED:
            assert getattr(back, name).tobytes() == getattr(result, name).tobytes()
        assert back.group.servers == result.group.servers
        assert (back.mean_response_time, back.discipline, back.method) == (
            result.mean_response_time,
            result.discipline,
            result.method,
        )
        assert np.float64(back.phi).tobytes() == np.float64(result.phi).tobytes()


def test_the_group_takes_no_part_in_equality_or_repr():
    group = random_group(0)
    a = dispatch(group, LOAD * group.max_generic_rate, method="kkt")
    twin = BladeServerGroup(group.servers, rbar=group.rbar)
    b = LoadDistributionResult.from_rates(
        twin, a.generic_rates, a.phi, a.discipline, a.method,
        iterations=a.iterations, metadata=a.metadata,
    )
    assert b.group is twin
    assert a == b
    assert "group" not in repr(a)
