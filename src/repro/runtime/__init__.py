"""Online load-distribution runtime: the paper's optimizer, closed loop.

The static optimizer answers "given ``lambda'``, what split minimizes
``T'``?".  A production dispatcher faces the inverse situation: the
rate is unknown and drifting, servers fail and recover, and every task
needs a concrete destination *now*.  This package supplies that control
loop:

=================  ==========================================================
module             role
=================  ==========================================================
``estimator``      ``lambda'`` from observed timestamps (EWMA / sliding
                   window) + drift detection with dwell
``controller``     re-solve on drift/period: warm-started, quantized,
                   LRU-cached, hysteresis-gated
``router``         fractional rates → per-task decisions (smooth WRR /
                   alias-table sampling)
``policies``       state-aware policies (optimal-prior power-of-d,
                   join-idle-queue) + the ``register_router`` registry
                   and ``RoutingConfig``
``health``         server up/down, group shrink/restore, graceful
                   degradation (shed to a utilization cap, never crash)
``metrics``        counters, routed-rate gauges, re-solve latency,
                   response-time histograms — plain dataclasses
``loop``           the assembled runtime + the closed-loop DES harness
=================  ==========================================================

Typical use::

    from repro.runtime import RuntimeConfig, run_closed_loop
    from repro.workloads.traces import RateTrace

    trace = RateTrace.step(rate=4.0, at=5_000.0, to=6.0)
    out = run_closed_loop(group, trace, RuntimeConfig(), horizon=20_000.0,
                          failures=[(12_000.0, 2, "down")])
    print(out.metrics.counters, out.sim.generic_response_time)
"""

from .controller import ResolveController, ResolveOutcome
from .estimator import (
    DriftDetector,
    EwmaRateEstimator,
    RateEstimator,
    SlidingWindowRateEstimator,
)
from .health import CapacityPlan, HealthTracker
from .loop import (
    ClosedLoopResult,
    LoadDistributionRuntime,
    ResolveEvent,
    RuntimeConfig,
    run_closed_loop,
)
from .metrics import (
    FallbackDepthCounters,
    IncidentLog,
    IncidentRecord,
    LogHistogram,
    RateGauges,
    RuntimeCounters,
    RuntimeMetrics,
    ShedTracker,
)
from .policies import (
    JoinIdleQueueRouter,
    OptimalPriorPowerOfDRouter,
    RouterPolicy,
    RouterSpec,
    RoutingConfig,
    available_routers,
    build_router,
    register_router,
    registered_routers,
    router_spec,
)
from .router import (
    AliasTableRouter,
    SmoothWeightedRoundRobinRouter,
)

__all__ = [
    "AliasTableRouter",
    "CapacityPlan",
    "ClosedLoopResult",
    "DriftDetector",
    "EwmaRateEstimator",
    "FallbackDepthCounters",
    "HealthTracker",
    "IncidentLog",
    "IncidentRecord",
    "JoinIdleQueueRouter",
    "LoadDistributionRuntime",
    "LogHistogram",
    "OptimalPriorPowerOfDRouter",
    "RateEstimator",
    "RateGauges",
    "ResolveController",
    "ResolveEvent",
    "ResolveOutcome",
    "RouterPolicy",
    "RouterSpec",
    "RoutingConfig",
    "RuntimeConfig",
    "RuntimeCounters",
    "RuntimeMetrics",
    "ShedTracker",
    "SlidingWindowRateEstimator",
    "SmoothWeightedRoundRobinRouter",
    "available_routers",
    "build_router",
    "register_router",
    "registered_routers",
    "router_spec",
    "run_closed_loop",
]
