"""Fleet partitioning: carve a blade-server group into shards.

At production fleet sizes no single dispatcher sees every server; the
sharded control plane (:mod:`repro.shard.coordinator`) gives each
dispatcher one *shard* — a contiguous slice of the fleet it owns
end-to-end — and equalizes marginal cost across shards one level up.
This module owns the static side of that story: :class:`ShardConfig`
(the public partitioning knob), the :class:`Shard`/:class:`ShardPlan`
value objects, and :func:`partition_group`, which realizes one of three
strategies:

``"contiguous"``
    Equal-count slices of the group in its given order — the neutral
    default, matching how racks/rows are typically enumerated.
``"type"``
    Servers are ordered by hardware type (speed, then size, then
    special preload) before slicing, so each shard holds near-
    homogeneous runs.  Heterogeneity-aware dispatch (Gardner et al.
    2020, PAPERS.md) wants exactly this: a dispatcher whose candidates
    are alike needs far fewer of them to realize the optimal split.
``"custom"``
    An explicit per-server shard assignment, for topologies the two
    built-ins cannot express (failure domains, network distance).

A :class:`ShardPlan` is pure topology — which global index belongs to
which dispatcher — and is the one way to name a partition: the sharded
solve (``solve_sharded(..., plan=...)``) and the multi-dispatcher
closed loop both take it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..core.exceptions import ParameterError
from ..core.server import BladeServerGroup
from ..obs import ConfigBase

__all__ = ["ShardConfig", "Shard", "ShardPlan", "partition_group"]

_STRATEGIES = ("contiguous", "type", "custom")


@dataclass(frozen=True, kw_only=True)
class ShardConfig(ConfigBase):
    """How to partition a fleet into dispatcher-owned shards.

    Keyword-only and frozen; round-trips through ``to_dict()`` /
    ``from_dict()`` like every config in the library.

    Attributes
    ----------
    shards:
        Number of shards (>= 1; clamped to the group size at partition
        time — a 3-server group asked for 8 shards gets 3 singletons).
    strategy:
        ``"contiguous"``, ``"type"``, or ``"custom"`` (see module
        docstring).
    assignment:
        Per-server shard ids, required (and only allowed) with
        ``strategy="custom"``.  Length must equal the group size and
        every id in ``[0, shards)`` must be used.
    """

    shards: int = 4
    strategy: str = "contiguous"
    assignment: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ParameterError(f"shards must be >= 1, got {self.shards}")
        if self.strategy not in _STRATEGIES:
            raise ParameterError(
                f"unknown strategy {self.strategy!r}; use one of {_STRATEGIES}"
            )
        if (self.assignment is not None) != (self.strategy == "custom"):
            raise ParameterError(
                'assignment must be given exactly when strategy="custom"'
            )
        if self.assignment is not None:
            object.__setattr__(
                self, "assignment", tuple(int(s) for s in self.assignment)
            )


@dataclass(frozen=True)
class Shard:
    """One dispatcher's slice of the fleet.

    Attributes
    ----------
    index:
        Shard id, ``0 .. n_shards - 1``.
    members:
        Global server indices owned by this shard, in group order.
    group:
        The shard's servers as their own :class:`BladeServerGroup`
        (:meth:`BladeServerGroup.subgroup` of the fleet: the parent's
        ``rbar`` and a gather of its arrays) — what the shard's
        dispatcher solves and routes over.
    """

    index: int
    members: tuple[int, ...]
    group: BladeServerGroup

    @property
    def n(self) -> int:
        """Number of servers in the shard."""
        return len(self.members)

    @property
    def capacity(self) -> float:
        """The shard's saturation point ``sum of spare capacities``."""
        return self.group.max_generic_rate


@dataclass(frozen=True)
class ShardPlan:
    """A full partition of one group into shards (pure topology).

    Attributes
    ----------
    group:
        The partitioned fleet.
    config:
        The :class:`ShardConfig` the plan was built from.
    shards:
        The shards, ordered by :attr:`Shard.index`; together their
        members cover every global index exactly once.
    """

    group: BladeServerGroup
    config: ShardConfig
    shards: tuple[Shard, ...]
    #: The coordinator's candidate frames (:mod:`repro.shard.coordinator`),
    #: cached here so they live exactly as long as the plan.
    _frames: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_shards(self) -> int:
        """Number of shards in the plan."""
        return len(self.shards)

    @cached_property
    def assignment(self) -> np.ndarray:
        """Read-only vector mapping each global server index to its shard id."""
        owner = np.empty(self.group.n, dtype=np.int64)
        for shard in self.shards:
            owner[list(shard.members)] = shard.index
        owner.setflags(write=False)
        return owner

    def live_capacity(self, live: np.ndarray | None = None) -> float:
        """Saturation point of the shards flagged live (all by default).

        ``live`` is a boolean vector of length :attr:`n_shards`; dead
        shards contribute zero capacity.  The shard supervisor clamps
        the failover re-solve's target rate with this, so a degraded
        fleet sheds instead of saturating its survivors.
        """
        if live is None:
            return self.group.max_generic_rate
        live = np.asarray(live, dtype=bool)
        if live.shape != (self.n_shards,):
            raise ParameterError(
                f"live mask has shape {live.shape}, expected ({self.n_shards},)"
            )
        return float(sum(s.capacity for s in self.shards if live[s.index]))

    def expand(self, per_shard: list[np.ndarray]) -> np.ndarray:
        """Scatter per-shard (local-order) vectors back to group order."""
        if len(per_shard) != self.n_shards:
            raise ParameterError(
                f"expected {self.n_shards} shard vectors, got {len(per_shard)}"
            )
        full = np.zeros(self.group.n)
        for shard, values in zip(self.shards, per_shard):
            values = np.asarray(values, dtype=float)
            if values.shape != (shard.n,):
                raise ParameterError(
                    f"shard {shard.index} vector has shape {values.shape}, "
                    f"expected ({shard.n},)"
                )
            full[list(shard.members)] = values
        return full


def _slice_order(order: np.ndarray, shards: int) -> list[np.ndarray]:
    """Split ``order`` into ``shards`` near-equal contiguous runs."""
    return [chunk for chunk in np.array_split(order, shards) if chunk.size]


def partition_group(
    group: BladeServerGroup, config: ShardConfig = ShardConfig()
) -> ShardPlan:
    """Partition ``group`` into a :class:`ShardPlan` per ``config``.

    The shard count is clamped to the group size; every strategy
    produces shards whose member lists are sorted in global order, so
    local index ``j`` of shard ``s`` always means global index
    ``plan.shards[s].members[j]``.
    """
    n = group.n
    n_shards = min(config.shards, n)
    if config.strategy == "contiguous":
        buckets = _slice_order(np.arange(n), n_shards)
    elif config.strategy == "type":
        # Stable sort by hardware type: fastest blades first, then
        # bigger chassis, then heavier special preload.  Slicing the
        # sorted order keeps each shard's candidates near-homogeneous.
        order = np.lexsort(
            (group.special_rates, -group.sizes, -group.speeds)
        )
        buckets = _slice_order(order, n_shards)
    else:  # custom
        assignment = np.asarray(config.assignment, dtype=np.int64)
        if assignment.shape != (n,):
            raise ParameterError(
                f"assignment covers {assignment.size} servers, group has {n}"
            )
        if assignment.min() < 0 or assignment.max() >= n_shards:
            raise ParameterError(
                f"assignment ids must lie in [0, {n_shards}), got "
                f"[{assignment.min()}, {assignment.max()}]"
            )
        buckets = [np.flatnonzero(assignment == s) for s in range(n_shards)]
        empty = [s for s, b in enumerate(buckets) if b.size == 0]
        if empty:
            raise ParameterError(f"custom assignment leaves shards {empty} empty")
    shards = []
    for index, bucket in enumerate(buckets):
        bucket = np.sort(bucket)
        shards.append(
            Shard(
                index=index,
                members=tuple(bucket.tolist()),
                group=group.subgroup(bucket),
            )
        )
    return ShardPlan(group=group, config=config, shards=tuple(shards))
