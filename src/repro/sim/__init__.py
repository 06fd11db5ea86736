"""Discrete-event simulation substrate for the blade-server group.

The paper's evaluation is purely analytical; this package supplies the
empirical counterpart: an event-scheduling simulator of the exact model
(Poisson arrivals, exponential requirements, ``m_i``-blade servers,
shared-FCFS or non-preemptive-priority queueing) used to validate the
closed-form response times and the optimizer's output.  Generic tasks
are routed by :mod:`repro.runtime.router`, alias sampling by default.

Typical use::

    from repro.sim import run_replications
    rep = run_replications(group, lam, result.fractions, "priority")
    assert rep.generic_response_time.contains(result.mean_response_time)
"""

from .engine import (
    GroupSimulation,
    SimulationConfig,
    SimulationResult,
    simulate_group,
)
from .arrivals import (
    ArrivalProcess,
    ClientWorkload,
    HyperexponentialArrivals,
    MMPPArrivals,
    Offer,
    PoissonArrivals,
    RetryPolicy,
    TracedPoissonArrivals,
)
from .events import Event, EventQueue, EventType
from .requirements import (
    DeterministicRequirement,
    ErlangRequirement,
    ExponentialRequirement,
    HyperExponentialRequirement,
    RequirementDistribution,
)
from .rng import StreamFactory, exponential
from .runner import ReplicatedResult, run_replications
from .server import SimServer
from .stats import BatchMeans, ConfidenceInterval, RunningStats, TimeWeightedStats
from .task import SimTask, TaskClass

__all__ = [
    "ArrivalProcess",
    "BatchMeans",
    "ClientWorkload",
    "ConfidenceInterval",
    "HyperexponentialArrivals",
    "MMPPArrivals",
    "Offer",
    "PoissonArrivals",
    "RetryPolicy",
    "TracedPoissonArrivals",
    "DeterministicRequirement",
    "ErlangRequirement",
    "ExponentialRequirement",
    "HyperExponentialRequirement",
    "RequirementDistribution",
    "Event",
    "EventQueue",
    "EventType",
    "GroupSimulation",
    "ReplicatedResult",
    "RunningStats",
    "SimServer",
    "SimTask",
    "SimulationConfig",
    "SimulationResult",
    "StreamFactory",
    "TaskClass",
    "TimeWeightedStats",
    "exponential",
    "run_replications",
    "simulate_group",
]
