"""repro.shard — the sharded control plane for fleet-scale groups.

Partitions a blade-server fleet into dispatcher-owned shards
(:mod:`repro.shard.partition`), solves each shard's inner KKT splits
against a shared multiplier and equalizes marginal cost across shards
one level up (:mod:`repro.shard.coordinator` — the paper's exact
water-filling lifted a level), and runs the multi-dispatcher closed
loop where every shard owns its own journal and checkpoint generation
(:mod:`repro.shard.runtime`).

See ``docs/SHARDING.md`` for the architecture and the outer-loop
derivation.
"""

from __future__ import annotations

from .coordinator import ShardCoordinator, solve_sharded
from .partition import Shard, ShardConfig, ShardPlan, partition_group
from .runtime import (
    ShardedDispatcher,
    ShardedRuntimeReport,
    run_sharded_closed_loop,
    shard_seeds,
)
from .supervisor import ShardSupervisor, ShardSupervisorConfig

__all__ = [
    "ShardConfig",
    "Shard",
    "ShardPlan",
    "partition_group",
    "ShardCoordinator",
    "solve_sharded",
    "ShardedDispatcher",
    "ShardedRuntimeReport",
    "run_sharded_closed_loop",
    "shard_seeds",
    "ShardSupervisor",
    "ShardSupervisorConfig",
]
