"""repro — Optimal load distribution for heterogeneous blade servers.

A production-quality reproduction of:

    Keqin Li, "Optimal Load Distribution for Multiple Heterogeneous
    Blade Servers in a Cloud Computing Environment," *Journal of Grid
    Computing* 11(1):27–46, 2013 (preliminary version: IPDPS Workshops
    2011, pp. 943–952).

Quickstart
----------
>>> import repro
>>> group = repro.BladeServerGroup.with_special_fraction(
...     sizes=[2, 4, 6, 8, 10, 12, 14],
...     speeds=[1.6, 1.5, 1.4, 1.3, 1.2, 1.1, 1.0],
...     fraction=0.3,
... )
>>> result = repro.solve(group, 23.52, discipline="fcfs")
>>> round(result.mean_response_time, 7)
0.8964703

:func:`solve` is the single public entry point for the paper's
optimization; pick the backend with ``method=`` (``"auto"``,
``"paper"``, ``"newton"``, ...) and the queueing discipline with
``discipline=`` (``"fcfs"`` or ``"priority"``).  To watch what a solve
— or the whole online runtime — is doing, switch on observability:

>>> from repro import ObsConfig, configure
>>> obs = configure(ObsConfig(enabled=True))           # doctest: +SKIP
>>> repro.solve(group, 23.52)                          # doctest: +SKIP
>>> obs.tracer.records                                 # doctest: +SKIP

Subpackages
-----------
``repro.core``
    Queueing math (M/M/m, Erlang), response-time models for the two
    disciplines, and the load-distribution optimizers.
``repro.obs``
    Structured observability: metrics registry, span tracing,
    profiling hooks (off by default, zero-dependency).
``repro.sim``
    Discrete-event simulator of a blade-server group, used to validate
    the analytical model.
``repro.runtime``
    Online control plane: drift-aware re-solves, the routing-policy
    registry (static splits plus state-aware power-of-d and
    join-idle-queue; :func:`register_router`), closed-loop validation
    (:func:`run_closed_loop`).
``repro.faults``
    Fault injection (:class:`FaultSpec`, :class:`FaultSchedule`) and
    the supervised resilience layer.
``repro.recovery``
    Durable control-plane state: write-ahead decision journal,
    versioned checkpoints, deterministic crash recovery
    (:func:`restore_runtime`).
``repro.shard``
    Sharded control plane for fleet-scale groups: partitioning, the
    hierarchical coordinator (:func:`~repro.shard.solve_sharded`,
    exact, called by the sharded runtime rather than registered as a
    ``repro.solve`` backend), and the multi-dispatcher closed loop
    (:func:`run_sharded_closed_loop`).
``repro.dispatch``
    Load-distribution policies: the optimal split plus baselines.
``repro.workloads``
    Paper parameterizations, server-group factories, sweep grids.
``repro.analysis``
    Saturation analysis, heterogeneity metrics, validation harness,
    table/figure builders.
``repro.experiments``
    One registered experiment per paper table/figure, with a CLI.
"""

from .api import SolveResult, as_group, solve, solve_sweep
from .core import (
    BladeServer,
    BladeServerGroup,
    ConvergenceError,
    Discipline,
    InfeasibleError,
    LoadDistributionResult,
    MMmQueue,
    ParameterError,
    ReproError,
    SaturationError,
    SimulationError,
    available_methods,
)
from .core.exceptions import RecoveryError
from .core.solvers import register_method, registered_methods
from .faults.schedule import FaultSchedule, FaultSpec, random_fault_schedule
from .obs import ObsConfig, configure, get_obs, reset_obs
from .recovery import RecoveryConfig
from .recovery.resume import RestoreReport, restore_runtime
from .runtime.admission import AdmissionConfig
from .runtime.loop import ClosedLoopResult, RuntimeConfig, run_closed_loop
from .runtime.policies import (
    JoinIdleQueueRouter,
    OptimalPriorPowerOfDRouter,
    RoutingConfig,
    available_routers,
    register_router,
    registered_routers,
)
from .shard import (
    ShardConfig,
    ShardedRuntimeReport,
    ShardPlan,
    ShardSupervisor,
    ShardSupervisorConfig,
    partition_group,
    run_sharded_closed_loop,
    solve_sharded,
)

__version__ = "1.1.0"

__all__ = [
    # The facade.
    "solve",
    "solve_sweep",
    "SolveResult",
    "as_group",
    # Model inputs / results.
    "BladeServer",
    "BladeServerGroup",
    "Discipline",
    "LoadDistributionResult",
    "MMmQueue",
    # Solver method registry.
    "available_methods",
    "register_method",
    "registered_methods",
    # Online runtime.
    "run_closed_loop",
    "RuntimeConfig",
    "ClosedLoopResult",
    # Overload survival (priority admission control).
    "AdmissionConfig",
    # Routing policy registry (data plane).
    "RoutingConfig",
    "available_routers",
    "register_router",
    "registered_routers",
    "OptimalPriorPowerOfDRouter",
    "JoinIdleQueueRouter",
    # Sharded control plane (fleet scale).
    "ShardConfig",
    "ShardPlan",
    "partition_group",
    "solve_sharded",
    "run_sharded_closed_loop",
    "ShardedRuntimeReport",
    "ShardSupervisor",
    "ShardSupervisorConfig",
    # Fault injection.
    "FaultSpec",
    "FaultSchedule",
    "random_fault_schedule",
    # Durability / crash recovery.
    "RecoveryConfig",
    "RestoreReport",
    "restore_runtime",
    # Observability.
    "ObsConfig",
    "configure",
    "get_obs",
    "reset_obs",
    # Exceptions.
    "ReproError",
    "ParameterError",
    "InfeasibleError",
    "SaturationError",
    "ConvergenceError",
    "SimulationError",
    "RecoveryError",
    "__version__",
]
