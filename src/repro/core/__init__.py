"""Core queueing model and optimizers — the paper's primary contribution.

Public surface:

* :class:`~repro.core.mmm.MMmQueue` — steady-state M/M/m metrics.
* :class:`~repro.core.server.BladeServer`,
  :class:`~repro.core.server.BladeServerGroup` — the domain model.
* :func:`~repro.core.solvers.dispatch` — the solver registry funnel
  (paper bisection / KKT / SLSQP / closed forms / damped Newton); the
  public entry point is :func:`repro.solve`.
* :class:`~repro.core.response.Discipline` — FCFS vs. priority.
* :class:`~repro.core.result.LoadDistributionResult` — solver output.
"""

from .bisection import calculate_t_prime, find_lambda_i, settle_residual
from .bounds import bound_gap, lower_bound, upper_bound
from .constrained import solve_capped
from .distributions import (
    GroupResponseTimeDistribution,
    ResponseTimeDistribution,
    WaitingTimeDistribution,
)
from .economics import (
    AdmissionResult,
    LinearDecayRevenue,
    optimize_admission,
    profit_rate,
)
from .multiclass import (
    MulticlassStation,
    generic_response_time_multiclass,
    multiclass_waiting_times,
)
from .power import PowerAllocationResult, optimize_speeds_under_power
from .closed_form import (
    solve_closed_form,
    solve_closed_form_fcfs,
    solve_closed_form_priority,
)
from .erlang import erlang_b, erlang_c, p_k, p_zero
from .exceptions import (
    ConvergenceError,
    InfeasibleError,
    ParameterError,
    ReproError,
    SaturationError,
    SimulationError,
)
from .kkt import solve_kkt
from .mmm import MMmQueue, mmm_mean_queue_length, mmm_response_time
from .nlp import solve_nlp
from .objective import gradient, marginal_cost, objective, server_marginal
from .response import (
    Discipline,
    d_generic_response_time_drho,
    generic_response_time,
    generic_response_time_rho,
    generic_waiting_time,
    special_waiting_time,
    waiting_factor,
)
from .result import LoadDistributionResult
from .server import BladeServer, BladeServerGroup
from .newton import p_zero_vec
from .solvers import available_methods

__all__ = [
    "AdmissionResult",
    "BladeServer",
    "BladeServerGroup",
    "GroupResponseTimeDistribution",
    "LinearDecayRevenue",
    "MulticlassStation",
    "bound_gap",
    "lower_bound",
    "upper_bound",
    "optimize_admission",
    "profit_rate",
    "PowerAllocationResult",
    "ResponseTimeDistribution",
    "WaitingTimeDistribution",
    "generic_response_time_multiclass",
    "multiclass_waiting_times",
    "optimize_speeds_under_power",
    "solve_capped",
    "ConvergenceError",
    "Discipline",
    "InfeasibleError",
    "LoadDistributionResult",
    "MMmQueue",
    "ParameterError",
    "ReproError",
    "SaturationError",
    "SimulationError",
    "available_methods",
    "calculate_t_prime",
    "d_generic_response_time_drho",
    "erlang_b",
    "erlang_c",
    "find_lambda_i",
    "generic_response_time",
    "generic_response_time_rho",
    "generic_waiting_time",
    "gradient",
    "marginal_cost",
    "mmm_mean_queue_length",
    "mmm_response_time",
    "objective",
    "p_k",
    "p_zero",
    "p_zero_vec",
    "server_marginal",
    "settle_residual",
    "solve_closed_form",
    "solve_closed_form_fcfs",
    "solve_closed_form_priority",
    "solve_kkt",
    "solve_nlp",
    "special_waiting_time",
    "waiting_factor",
]
