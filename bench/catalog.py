"""Metric catalogue of the benchmark of record.

One place names every metric the benchmark reports, with its unit, its
direction and — for the end-to-end metrics — the regression bound
``compare.py`` applies.  ``BENCHMARK.json`` at the repository root
carries the subset an external harness gates on; ``test_bench.py``
checks that the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = (
    "paper-sweep",
    "paper-static",
    "fleet-drift",
    "overload-retry",
    "fleet-sharded",
)
CLOSED_LOOPS = WORKLOADS[1:]


@dataclass(frozen=True)
class EndToEnd:
    """A metric a user of the library sees, with its regression bound.

    A change may worsen the median by ``max(rel * |parent median|, abs)``
    before ``compare.py`` calls it worse.
    """

    unit: str
    better: str
    rel: float
    abs: float
    on: tuple[str, ...]
    what: str
    #: Repeats exactly at a fixed seed, so runs compare seed by seed.
    seeded: bool = False


END_TO_END: dict[str, EndToEnd] = {
    "setup_s": EndToEnd(
        "s", "lower", 0.25, 0.05, WORKLOADS,
        "workload call to first simulated event (paper-sweep: building its "
        "20 groups); median of several set-ups per run",
    ),
    "tasks_per_s": EndToEnd(
        "tasks/s", "higher", 0.25, 0.0, CLOSED_LOOPS,
        "generic tasks completed / host seconds inside GroupSimulation.run; "
        "upper quartile over the run's calls",
    ),
    "solves_per_s": EndToEnd(
        "solves/s", "higher", 0.25, 0.0, ("paper-sweep",),
        "sweep points solved / host seconds inside repro.solve_sweep; "
        "upper quartile over the run's curves",
    ),
    "solve_p50_ms": EndToEnd(
        "ms", "lower", 0.25, 0.0, ("paper-sweep",),
        "median SolveResult.elapsed_seconds over the run's sweep points",
    ),
    "solve_p99_ms": EndToEnd(
        "ms", "lower", 0.25, 0.0, ("paper-sweep",),
        "99th percentile of SolveResult.elapsed_seconds",
    ),
    "peak_rss_mb": EndToEnd(
        "MB", "lower", 0.10, 0.0, WORKLOADS,
        "ru_maxrss of the process that ran the workload",
    ),
    "mean_t": EndToEnd(
        "sim_time", "lower", 0.03, 0.0, CLOSED_LOOPS,
        "SimulationResult.generic_response_time, median over the run's calls",
        seeded=True,
    ),
    "failed_frac": EndToEnd(
        "fraction", "lower", 0.0, 0.005, CLOSED_LOOPS,
        "requests dropped with no retry left / fresh requests offered",
        seeded=True,
    ),
}

#: The metric an external harness gates throughput on: one name for
#: every workload, solves/s on ``paper-sweep`` and tasks/s elsewhere.
OPS_SOURCE = {w: "tasks_per_s" for w in CLOSED_LOOPS} | {"paper-sweep": "solves_per_s"}


@dataclass(frozen=True)
class Layer:
    """A per-layer metric from the ``--trace`` run (no bound).

    ``moves`` names the end-to-end metric it should move and ``on`` the
    workloads where it should; ``same_on`` where it should not.
    """

    unit: str
    better: str
    layer: str
    moves: str
    on: str
    same_on: str


_HEAP = ("repro.sim.events", "tasks_per_s", "paper-static, overload-retry", "paper-sweep")
_SERVER = ("repro.sim.server", "tasks_per_s", "paper-static, overload-retry", "paper-sweep")
_LOOP = ("repro.sim.engine", "tasks_per_s", "fleet-drift, fleet-sharded", "paper-sweep")
_RUNTIME = ("repro.runtime.loop", "tasks_per_s", "closed loops, most on fleet-drift",
            "paper-sweep")
_EST = ("repro.runtime.estimator", "tasks_per_s", "paper-static", "paper-sweep")
_CTRL = ("repro.runtime.controller", "tasks_per_s, setup_s", "fleet-drift", "paper-static")
_SUP = ("repro.faults.supervisor", "tasks_per_s, setup_s", "fleet-drift", "paper-static")
_SOLVER = ("repro.core.solvers", "solves_per_s, solve_p99_ms; setup_s",
           "paper-sweep; fleet-sharded", "paper-static")
_ROUTER = ("repro.runtime.policies", "tasks_per_s; mean_t", "fleet-drift, paper-static",
           "paper-sweep")
_ADM = ("repro.runtime.admission", "tasks_per_s, failed_frac, mean_t", "overload-retry",
        "paper-static, fleet-drift")
_CLIENTS = ("repro.sim.arrivals", "failed_frac, mean_t", "overload-retry",
            "paper-static, fleet-drift")
_JOURNAL = ("repro.recovery", "tasks_per_s; setup_s", "fleet-drift; fleet-sharded",
            "paper-static, overload-retry")
_SHARD = ("repro.shard", "setup_s, tasks_per_s", "fleet-sharded", "every other workload")
_TRACE = ("bench.tracing", "none: validity of the trace", "all", "n/a")

LAYERS: dict[str, Layer] = {
    "sim.events_per_task": Layer("count", "lower", *_HEAP),
    "sim.heap_us_per_task": Layer("us", "lower", *_HEAP),
    "sim.server_us_per_task": Layer("us", "lower", *_SERVER),
    "sim.loop_us_per_task": Layer("us", "lower", *_LOOP),
    "sim.init_ms": Layer("ms", "lower", "repro.sim.engine", "setup_s", "fleet-sharded",
                         "paper-static"),
    "sim.mean_t": Layer("sim_time", "lower", "repro.sim.engine", "mean_t",
                        "closed loops", "paper-sweep"),
    "runtime.hooks_us_per_task": Layer("us", "lower", *_RUNTIME),
    "runtime.decisions": Layer("count", "lower", *_RUNTIME),
    "runtime.decision_p50_us": Layer("us", "lower", *_RUNTIME),
    "runtime.decision_p99_us": Layer("us", "lower", *_RUNTIME),
    "estimator.calls_per_task": Layer("count", "lower", *_EST),
    "estimator.us_per_task": Layer("us", "lower", *_EST),
    "controller.resolves": Layer("count", "lower", *_CTRL),
    "controller.cache_hit_ratio": Layer("ratio", "higher", *_CTRL),
    "controller.adopt_ratio": Layer("ratio", "lower", *_CTRL),
    "controller.self_ms_per_resolve": Layer("ms", "lower", *_CTRL),
    "supervisor.self_us_per_resolve": Layer("us", "lower", *_SUP),
    "solver.solves": Layer("count", "lower", *_SOLVER),
    "solver.ms_per_solve": Layer("ms", "lower", *_SOLVER),
    "solver.iterations_per_solve": Layer("count", "lower", *_SOLVER),
    "router.picks_per_task": Layer("count", "lower", *_ROUTER),
    "router.pick_us": Layer("us", "lower", *_ROUTER),
    "admission.decide_us": Layer("us", "lower", *_ADM),
    "admission.reject_ratio": Layer("ratio", "lower", *_ADM),
    "admission.sojourn_us": Layer("us", "lower", *_ADM),
    "clients.retries_per_offer": Layer("ratio", "lower", *_CLIENTS),
    "clients.failed_frac": Layer("fraction", "lower", *_CLIENTS),
    "journal.appends_per_task": Layer("count", "lower", *_JOURNAL),
    "journal.us_per_append": Layer("us", "lower", *_JOURNAL),
    "journal.bytes_per_task": Layer("bytes", "lower", *_JOURNAL),
    "checkpoint.count": Layer("count", "lower", *_JOURNAL),
    "checkpoint.ms_each": Layer("ms", "lower", *_JOURNAL),
    "shard.rebalances": Layer("count", "lower", *_SHARD),
    "shard.rebalance_ms_each": Layer("ms", "lower", *_SHARD),
    "shard.split_us_per_task": Layer("us", "lower", *_SHARD),
    "trace.overhead": Layer("ratio", "lower", *_TRACE),
    "trace.outside_frac": Layer("fraction", "lower", *_TRACE),
    "trace.wrapper_ns": Layer("ns", "lower", *_TRACE),
}
