"""Per-layer attribution for the ``--trace`` run, measured from outside.

The library itself stays untouched: :class:`Tracer` replaces public
methods of the layer classes with timing wrappers for the duration of a
traced call and restores the originals afterwards.  Each wrapper records
one span (name, start, end, parent); spans are aggregated per
``(parent, name)`` edge, so a layer's self time is its span time minus
the time of the spans it caused.  A target that no longer exists — a
class deleted or a method renamed by a later change — is skipped and
reported under ``unhooked`` instead of breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import time
from collections import deque
from dataclasses import dataclass, field

#: ``(module, class, methods)`` wrapped by the traced run.
HOOKS = (
    ("repro.sim.events", "EventQueue", ("schedule", "pop")),
    ("repro.sim.server", "SimServer", ("on_arrival", "on_departure")),
    ("repro.sim.engine", "GroupSimulation", ("__init__", "run")),
    (
        "repro.runtime.loop",
        "LoadDistributionRuntime",
        ("observe_arrival", "route", "route_offer", "observe_completion"),
    ),
    ("repro.runtime.estimator", "EwmaRateEstimator", ("observe", "estimate")),
    ("repro.runtime.estimator", "SlidingWindowRateEstimator", ("observe", "estimate")),
    ("repro.runtime.estimator", "DriftDetector", ("check",)),
    ("repro.runtime.controller", "ResolveController", ("resolve",)),
    ("repro.faults.supervisor", "ResilienceSupervisor", ("resolve",)),
    ("repro.runtime.admission", "AdmissionController", ("decide", "observe_sojourn")),
    ("repro.recovery.journal", "JournalWriter", ("append",)),
    ("repro.recovery.checkpoint", "RecoveryManager", ("checkpoint",)),
    (
        "repro.shard.runtime",
        "ShardedDispatcher",
        ("observe_arrival", "route", "rebalance"),
    ),
    ("repro.shard.coordinator", "ShardCoordinator", ("solve",)),
)

RUN = "GroupSimulation.run"
#: Dispatcher hooks the engine calls once per task (directly, or through
#: the sharded dispatcher, whose completion hook is not itself wrapped).
TASK_HOOKS = frozenset(
    {
        "LoadDistributionRuntime.observe_arrival",
        "LoadDistributionRuntime.route",
        "LoadDistributionRuntime.route_offer",
        "LoadDistributionRuntime.observe_completion",
        "ShardedDispatcher.observe_arrival",
        "ShardedDispatcher.route",
    }
)
DECISIONS = frozenset(
    {
        "LoadDistributionRuntime.route",
        "LoadDistributionRuntime.route_offer",
        "ShardedDispatcher.route",
    }
)
ESTIMATOR = (
    "EwmaRateEstimator.observe",
    "EwmaRateEstimator.estimate",
    "SlidingWindowRateEstimator.observe",
    "SlidingWindowRateEstimator.estimate",
    "DriftDetector.check",
)


class Tracer:
    """Span recorder installed over the :data:`HOOKS` targets.

    Keeps per-edge aggregates for the whole run and the last ``keep``
    spans for the JSONL dump.  Install it only around traced calls.
    """

    def __init__(self, keep: int = 10_000) -> None:
        #: ``(parent name | None, name) -> [calls, total s, self s]``.
        self.edges: dict[tuple[str | None, str], list] = {}
        #: Durations of routing decisions made directly by the engine.
        self.decisions: list[float] = []
        #: Wall seconds and iterations of every solver run observed.
        self.solver_s: list[float] = []
        self.solver_iterations: list[int] = []
        self.cache_hits = 0
        self.rejects = 0
        self.spans: deque = deque(maxlen=keep)
        self.unhooked: list[dict] = []
        self._stack: list[list] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []
        self._targets: list[tuple[type, str]] | None = None

    # -- targets ----------------------------------------------------------------------

    def _resolve_targets(self) -> list[tuple[type, str]]:
        candidates: list[tuple[type, str]] = []
        for module, cls_name, methods in HOOKS:
            cls = self._find_class(module, cls_name)
            if cls is not None:
                candidates.extend((cls, m) for m in methods)
        candidates.extend((cls, "pick") for cls in self._router_classes())
        targets = []
        for cls, attr in candidates:
            original = getattr(cls, attr, None)
            if inspect.isfunction(original):
                targets.append((cls, attr))
            else:
                self._skip(
                    f"{cls.__module__}:{cls.__name__}.{attr}",
                    "missing" if original is None
                    else f"not a plain method ({type(original).__name__})",
                )
        return targets

    def _find_class(self, module: str, name: str) -> type | None:
        try:
            cls = getattr(importlib.import_module(module), name)
        except (ImportError, AttributeError) as exc:
            self._skip(f"{module}:{name}", f"{type(exc).__name__}: {exc}")
            return None
        return cls

    def _router_classes(self) -> list[type]:
        """One class per policy in the router registry, deduplicated."""
        try:
            import numpy as np
            from repro.runtime.policies import (
                RoutingConfig,
                build_router,
                registered_routers,
            )
        except ImportError as exc:
            self._skip("repro.runtime.policies:registered_routers", str(exc))
            return []
        classes = []
        for name in sorted(registered_routers()):
            try:
                router = build_router(
                    RoutingConfig(policy=name),
                    np.full(2, 0.5),
                    np.random.default_rng(0),
                )
            except Exception as exc:  # noqa: BLE001 - any broken policy is skipped
                self._skip(f"router:{name}", f"{type(exc).__name__}: {exc}")
                continue
            if type(router) not in classes:
                classes.append(type(router))
        return classes

    def _skip(self, target: str, reason: str) -> None:
        self.unhooked.append({"target": target, "reason": reason})

    # -- install / uninstall ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; targets are resolved once."""
        if self._targets is None:
            self._targets = self._resolve_targets()
        observers = {
            "ResolveController.resolve": self._on_resolve,
            "ShardCoordinator.solve": self._on_coordinator_solve,
            "AdmissionController.decide": self._on_decide,
        }
        for cls, attr in self._targets:
            original = getattr(cls, attr)
            name = f"{cls.__name__}.{attr}"
            own = attr in cls.__dict__
            setattr(cls, attr, self._wrap(name, original, observers.get(name)))
            self._patches.append((cls, attr, own, original))

    def uninstall(self) -> None:
        while self._patches:
            cls, attr, own, original = self._patches.pop()
            if own:
                setattr(cls, attr, original)
            else:
                delattr(cls, attr)

    def _wrap(self, name: str, fn, observe=None):
        stack = self._stack
        edges = self.edges
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter
        decisions = self.decisions if name in DECISIONS else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0, next(ids)]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    parent = stack[-1]
                    parent[1] += dur
                    parent_name, parent_id = parent[0], parent[2]
                else:
                    parent_name, parent_id = None, 0
                edge = edges.get((parent_name, name))
                if edge is None:
                    edges[(parent_name, name)] = [1, dur, dur - frame[1]]
                else:
                    edge[0] += 1
                    edge[1] += dur
                    edge[2] += dur - frame[1]
                spans.append((frame[2], parent_id, name, start, end))
                if decisions is not None and parent_name == RUN:
                    decisions.append(dur)
            if observe is not None:
                observe(result, dur)
            return result

        return wrapper

    # -- observers of public return values ----------------------------------------------

    def _on_resolve(self, outcome, dur: float) -> None:
        if outcome.cache_hit:
            self.cache_hits += 1
        else:
            self.solver_s.append(outcome.latency)
            self.solver_iterations.append(outcome.result.iterations)

    def _on_coordinator_solve(self, result, dur: float) -> None:
        self.solver_s.append(dur)
        self.solver_iterations.append(result.iterations)

    def _on_decide(self, verdict, dur: float) -> None:
        if not verdict[0]:
            self.rejects += 1

    # -- queries ----------------------------------------------------------------------

    def top_level_s(self) -> float:
        """Seconds covered by outermost spans so far."""
        return sum(e[1] for (parent, _), e in self.edges.items() if parent is None)

    def calls(self, *names: str) -> int:
        return sum(e[0] for (_, n), e in self.edges.items() if n in names)

    def total_s(self, *names: str) -> float:
        return sum(e[1] for (_, n), e in self.edges.items() if n in names)

    def self_s(self, *names: str) -> float:
        return sum(e[2] for (_, n), e in self.edges.items() if n in names)

    def names(self, suffix: str) -> tuple[str, ...]:
        return tuple({n for (_, n) in self.edges if n.endswith(suffix)})

    def write_jsonl(self, path: str) -> None:
        """Dump the retained spans, times in µs from the first of them."""
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent_id, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent_id,
                            "name": name,
                            "start_us": round((start - t0) * 1e6, 3),
                            "dur_us": round((end - start) * 1e6, 3),
                        }
                    )
                    + "\n"
                )


def wrapper_cost_ns(calls: int = 100_000) -> float:
    """Added cost of one traced call, from a wrapped no-op."""

    def noop():
        return None

    traced = Tracer(keep=16)._wrap("calibrate", noop)
    best = []
    for fn in (noop, traced):
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            runs.append(time.perf_counter() - t0)
        best.append(min(runs))
    return max(best[1] - best[0], 0.0) / calls * 1e9


@dataclass
class LayerInputs:
    """What the per-layer metrics need besides the spans: the traced
    calls' public results and the trace's own validity numbers."""

    units: int
    tasks: int
    overhead: float
    outside_frac: float
    wrapper_ns: float
    mean_t: float = 0.0
    failed_frac: float = 0.0
    retries_per_offer: float = 0.0
    adopted: int = 0
    resolve_events: int = 0
    journal_bytes: int = 0
    #: Sweep points: per-solve seconds and iterations from SolveResult.
    sweep_solve_s: list = field(default_factory=list)
    sweep_iterations: list = field(default_factory=list)


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def percentile(values: list, q: float) -> float:
    """Nearest-rank ``q``-quantile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))])


def layer_metrics(t: Tracer, x: LayerInputs) -> dict[str, float]:
    """Every per-layer metric of :data:`catalog.LAYERS`, as plain floats.

    Counts are per traced call (``units``); costs are per generic task
    completed, or per call of the layer.  A layer the workload never
    reaches reads 0.
    """
    us, ms = 1e6, 1e3
    pop, schedule = "EventQueue.pop", "EventQueue.schedule"
    init = "GroupSimulation.__init__"
    resolve, supervise = "ResolveController.resolve", "ResilienceSupervisor.resolve"
    decide, sojourn = "AdmissionController.decide", "AdmissionController.observe_sojourn"
    append, checkpoint = "JournalWriter.append", "RecoveryManager.checkpoint"
    rebalance = "ShardedDispatcher.rebalance"
    picks = t.names(".pick")
    hooks_s = sum(
        e[1] for (p, n), e in t.edges.items() if p == RUN and n in TASK_HOOKS
    )
    solver_s = t.solver_s + x.sweep_solve_s
    iterations = t.solver_iterations + x.sweep_iterations
    return {
        "sim.events_per_task": _per(t.calls(pop), x.tasks),
        "sim.heap_us_per_task": _per(t.total_s(schedule, pop), x.tasks) * us,
        "sim.server_us_per_task": _per(
            t.total_s("SimServer.on_arrival", "SimServer.on_departure"), x.tasks
        )
        * us,
        "sim.loop_us_per_task": _per(t.self_s(RUN), x.tasks) * us,
        "sim.init_ms": _per(t.total_s(init), t.calls(init)) * ms,
        "sim.mean_t": x.mean_t,
        "runtime.hooks_us_per_task": _per(hooks_s, x.tasks) * us,
        "runtime.decisions": _per(len(t.decisions), x.units),
        "runtime.decision_p50_us": percentile(t.decisions, 0.50) * us,
        "runtime.decision_p99_us": percentile(t.decisions, 0.99) * us,
        "estimator.calls_per_task": _per(t.calls(*ESTIMATOR), x.tasks),
        "estimator.us_per_task": _per(t.self_s(*ESTIMATOR), x.tasks) * us,
        "controller.resolves": _per(t.calls(resolve), x.units),
        "controller.cache_hit_ratio": _per(t.cache_hits, t.calls(resolve)),
        "controller.adopt_ratio": _per(x.adopted, x.resolve_events),
        "controller.self_ms_per_resolve": _per(t.self_s(resolve), t.calls(resolve)) * ms,
        "supervisor.self_us_per_resolve": _per(t.self_s(supervise), t.calls(supervise))
        * us,
        "solver.solves": _per(len(solver_s), x.units),
        "solver.ms_per_solve": _per(sum(solver_s), len(solver_s)) * ms,
        "solver.iterations_per_solve": _per(sum(iterations), len(iterations)),
        "router.picks_per_task": _per(t.calls(*picks), x.tasks),
        "router.pick_us": _per(t.total_s(*picks), t.calls(*picks)) * us,
        "admission.decide_us": _per(t.total_s(decide), t.calls(decide)) * us,
        "admission.reject_ratio": _per(t.rejects, t.calls(decide)),
        "admission.sojourn_us": _per(t.total_s(sojourn), t.calls(sojourn)) * us,
        "clients.retries_per_offer": x.retries_per_offer,
        "clients.failed_frac": x.failed_frac,
        "journal.appends_per_task": _per(t.calls(append), x.tasks),
        "journal.us_per_append": _per(t.total_s(append), t.calls(append)) * us,
        "journal.bytes_per_task": _per(x.journal_bytes, x.tasks),
        "checkpoint.count": _per(t.calls(checkpoint), x.units),
        "checkpoint.ms_each": _per(t.total_s(checkpoint), t.calls(checkpoint)) * ms,
        "shard.rebalances": _per(t.calls(rebalance), x.units),
        "shard.rebalance_ms_each": _per(t.total_s(rebalance), t.calls(rebalance)) * ms,
        "shard.split_us_per_task": _per(
            t.self_s("ShardedDispatcher.observe_arrival"), x.tasks
        )
        * us,
        "trace.overhead": x.overhead,
        "trace.outside_frac": x.outside_frac,
        "trace.wrapper_ns": x.wrapper_ns,
    }

