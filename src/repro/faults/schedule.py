"""Declarative, reproducible fault schedules in simulated time.

A chaos experiment is only evidence if it can be re-run: the same
schedule and the same seeds must produce the same injected faults, the
same control decisions, and the same incident log.  This module is the
declarative layer that makes that possible — a :class:`FaultSpec` is a
pure-data description of one fault window, a :class:`FaultSchedule` is
a validated, seeded collection of them, and
:func:`random_fault_schedule` derives a randomized-but-reproducible
schedule from a single integer seed.

Fault kinds
-----------

``solver-error``
    Solver invocations inside the window raise
    :class:`~repro.core.exceptions.ConvergenceError` with probability
    ``p`` (default 1).  ``methods`` restricts the fault to specific
    backend names, so a schedule can break the primary backend while
    leaving the scalar-bisection fallback rung healthy.
``solver-latency``
    Solver invocations inside the window miss their deadline: they
    raise :class:`~repro.core.exceptions.SolverTimeoutError` carrying
    the injected ``latency``.  Also scoped by ``methods`` and ``p``.
``estimator-noise``
    Rate estimates inside the window are multiplied by a lognormal-ish
    factor ``max(eps, 1 + sigma * N(0,1))``.
``estimator-bias``
    Rate estimates inside the window are multiplied by ``factor``
    (``2.0`` = the estimator reads double the true rate).
``estimator-dropout``
    Arrival observations inside the window are dropped with
    probability ``p`` — telemetry loss; the estimator under-reads.
``server-down``
    Server ``server`` fails at ``start`` and recovers at ``end``.
    ``delay`` shifts *signal delivery* (both edges) later, modelling
    detection latency in the health plane.
``server-flap``
    Server ``server`` flaps: down at ``start``, then toggling every
    ``period/2`` until ``end``, where it is forced back up.
``correlated-outage``
    Every server in ``servers`` fails at ``start`` and recovers at
    ``end`` — rack/switch-level correlated failure.  Listing all
    servers produces a dark cluster and exercises the
    :class:`~repro.core.exceptions.ClusterDownError` shed-all path.
``crash``
    The control plane itself is hard-killed at ``start`` (a *point*
    event: ``end == start`` is allowed) and rebuilt from its durable
    state — latest checkpoint plus journal-tail replay — while the data
    plane (the DES engine, its queues, and its RNG streams) keeps
    running.  Requires ``RuntimeConfig.recovery`` to be enabled; see
    :mod:`repro.recovery`.
``shard-crash``
    One shard's runtime (dispatcher ``params['shard']``) is hard-killed
    at ``start`` — a point event, like ``crash``, but scoped to a
    single member of the sharded fleet.  The shard supervisor detects
    the dead shard via missed-completion heartbeats, fails its share
    over to the live shards, and splices the shard back after crash
    recovery rebuilds it from its own ``shard-XX/`` journal and
    checkpoints.  Requires recovery to be enabled.
``shard-stall``
    Shard ``params['shard']`` stops processing (routes shed, no
    completions) for the window ``[start, end)``, then resumes with its
    state intact — a hung-but-alive process, as opposed to a crash.
``shard-journal-corrupt``
    Like ``shard-crash``, but the shard's write-ahead journal gains a
    torn/corrupt tail before recovery runs — exercising the CRC-framed
    torn-write truncation path at shard scope.  Point event; requires
    recovery.
``burst-overload``
    The offered arrival rate is multiplied by ``factor`` (default 2.0)
    over ``[start, end)`` — a demand burst past fleet capacity.  The
    overload chaos harness compiles this into the run's
    :class:`~repro.workloads.traces.RateTrace` (see
    :meth:`RateTrace.burst <repro.workloads.traces.RateTrace.burst>`);
    inside :func:`~repro.runtime.loop.run_closed_loop` alone it is a
    documented no-op, since the trace is an explicit argument there.
``retry-storm``
    Retrying clients panic over ``[start, end)``: their backoff delays
    are scaled by ``backoff_scale`` (default 0.1 — ten times more
    aggressive), then restored at ``end``.  Combined with
    ``burst-overload`` this is the classic metastable-failure recipe.

Coordinator solver faults reuse the plain ``solver-error`` /
``solver-latency`` kinds scoped to ``methods=("sharded",)`` — the
sharded harness wraps the global re-solve seam, so those windows break
coordinator rebalance ticks without touching per-shard controllers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..core.exceptions import ParameterError

__all__ = [
    "SOLVER_FAULT_KINDS",
    "ESTIMATOR_FAULT_KINDS",
    "HEALTH_FAULT_KINDS",
    "CRASH_FAULT_KINDS",
    "SHARD_FAULT_KINDS",
    "OVERLOAD_FAULT_KINDS",
    "FAULT_KINDS",
    "FaultSpec",
    "FaultSchedule",
    "random_fault_schedule",
]

SOLVER_FAULT_KINDS = frozenset({"solver-error", "solver-latency"})
ESTIMATOR_FAULT_KINDS = frozenset(
    {"estimator-noise", "estimator-bias", "estimator-dropout"}
)
HEALTH_FAULT_KINDS = frozenset({"server-down", "server-flap", "correlated-outage"})
CRASH_FAULT_KINDS = frozenset({"crash"})
SHARD_FAULT_KINDS = frozenset({"shard-crash", "shard-stall", "shard-journal-corrupt"})
OVERLOAD_FAULT_KINDS = frozenset({"burst-overload", "retry-storm"})
FAULT_KINDS = (
    SOLVER_FAULT_KINDS
    | ESTIMATOR_FAULT_KINDS
    | HEALTH_FAULT_KINDS
    | CRASH_FAULT_KINDS
    | SHARD_FAULT_KINDS
    | OVERLOAD_FAULT_KINDS
)

#: Kinds whose window may collapse to an instant (``start == end``).
_POINT_EVENT_KINDS = CRASH_FAULT_KINDS | frozenset(
    {"shard-crash", "shard-journal-corrupt"}
)


@dataclass(frozen=True)
class FaultSpec:
    """One fault window: what goes wrong, when, and how badly.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS` (see the module docstring).
    start, end:
        Simulation-time window ``[start, end)`` the fault is active in
        (``0 <= start < end``, both finite).
    params:
        Kind-specific parameters; validated in ``__post_init__``.
    """

    kind: str
    start: float
    end: float
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ParameterError(
                f"unknown fault kind {self.kind!r}; known: {sorted(FAULT_KINDS)}"
            )
        point_event = self.kind in _POINT_EVENT_KINDS
        if not (
            math.isfinite(self.start)
            and math.isfinite(self.end)
            and 0.0 <= self.start
            and (self.start <= self.end if point_event else self.start < self.end)
        ):
            shape = "start <= end" if point_event else "start < end"
            raise ParameterError(
                f"need finite 0 <= {shape}, got [{self.start!r}, {self.end!r})"
            )
        p = self.params
        prob = p.get("p", 1.0)
        if not (0.0 < prob <= 1.0):
            raise ParameterError(f"fault probability p must be in (0, 1], got {prob!r}")
        if self.kind == "solver-latency":
            lat = p.get("latency", 1.0)
            if not (math.isfinite(lat) and lat > 0.0):
                raise ParameterError(f"latency must be > 0, got {lat!r}")
        if self.kind == "estimator-noise":
            sigma = p.get("sigma", 0.2)
            if not (math.isfinite(sigma) and sigma > 0.0):
                raise ParameterError(f"sigma must be > 0, got {sigma!r}")
        if self.kind == "estimator-bias":
            factor = p.get("factor", 1.5)
            if not (math.isfinite(factor) and factor > 0.0):
                raise ParameterError(f"bias factor must be > 0, got {factor!r}")
        if self.kind in ("server-down", "server-flap"):
            if "server" not in p:
                raise ParameterError(f"{self.kind!r} needs a 'server' index")
            delay = p.get("delay", 0.0)
            if not (math.isfinite(delay) and delay >= 0.0):
                raise ParameterError(f"delay must be >= 0, got {delay!r}")
        if self.kind == "server-flap":
            period = p.get("period", 0.0)
            if not (math.isfinite(period) and period > 0.0):
                raise ParameterError(f"flap period must be > 0, got {period!r}")
        if self.kind == "correlated-outage":
            servers = p.get("servers")
            if not servers:
                raise ParameterError(
                    "'correlated-outage' needs a non-empty 'servers' sequence"
                )
        if self.kind == "burst-overload":
            factor = p.get("factor", 2.0)
            if not (math.isfinite(factor) and factor > 0.0):
                raise ParameterError(f"burst factor must be > 0, got {factor!r}")
        if self.kind == "retry-storm":
            scale = p.get("backoff_scale", 0.1)
            if not (math.isfinite(scale) and scale > 0.0):
                raise ParameterError(
                    f"backoff_scale must be > 0, got {scale!r}"
                )
        if self.kind in SHARD_FAULT_KINDS:
            shard = p.get("shard")
            if shard is None or not isinstance(shard, int) or shard < 0:
                raise ParameterError(
                    f"{self.kind!r} needs a non-negative integer 'shard' index,"
                    f" got {shard!r}"
                )
            restore_delay = p.get("restore_delay", 0.0)
            if not (math.isfinite(restore_delay) and restore_delay >= 0.0):
                raise ParameterError(
                    f"restore_delay must be >= 0, got {restore_delay!r}"
                )
        methods = p.get("methods")
        if methods is not None and (
            not isinstance(methods, (tuple, list)) or not methods
        ):
            raise ParameterError(
                f"'methods' must be a non-empty sequence of names, got {methods!r}"
            )

    def active(self, now: float) -> bool:
        """Whether the window covers simulation time ``now``."""
        return self.start <= now < self.end

    def to_dict(self) -> dict:
        """Plain-dict form (round-trips through :meth:`from_dict`)."""
        return {
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        return cls(
            kind=data["kind"],
            start=float(data["start"]),
            end=float(data["end"]),
            params=dict(data.get("params", {})),
        )


class FaultSchedule:
    """A seeded, ordered collection of :class:`FaultSpec` windows.

    The ``seed`` covers every *probabilistic* aspect of injection
    (error coin flips, noise draws, dropout); the windows themselves
    are deterministic.  Together they pin the whole chaos experiment.
    """

    def __init__(self, specs: Iterable[FaultSpec], seed: int = 0) -> None:
        self._specs = tuple(sorted(specs, key=lambda s: (s.start, s.end, s.kind)))
        for spec in self._specs:
            if not isinstance(spec, FaultSpec):
                raise ParameterError(
                    f"schedule entries must be FaultSpec, got {type(spec).__name__}"
                )
        self.seed = int(seed)

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self._specs)

    @property
    def specs(self) -> tuple[FaultSpec, ...]:
        """All windows, ordered by start time."""
        return self._specs

    def of_kinds(self, kinds: frozenset[str] | Sequence[str]) -> tuple[FaultSpec, ...]:
        """The windows whose kind is in ``kinds``, ordered."""
        wanted = frozenset(kinds)
        return tuple(s for s in self._specs if s.kind in wanted)

    @property
    def last_fault_end(self) -> float:
        """When the last window closes (0 for an empty schedule)."""
        return max((s.end for s in self._specs), default=0.0)

    def to_dict(self) -> dict:
        """Plain-dict form (round-trips through :meth:`from_dict`)."""
        return {"seed": self.seed, "specs": [s.to_dict() for s in self._specs]}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSchedule":
        """Rebuild a schedule from :meth:`to_dict` output."""
        return cls(
            (FaultSpec.from_dict(s) for s in data.get("specs", ())),
            seed=int(data.get("seed", 0)),
        )


def random_fault_schedule(
    n_servers: int,
    horizon: float,
    seed: int,
    *,
    quiet_tail: float = 0.35,
    max_faults: int = 5,
    allow_cluster_down: bool = True,
    allow_crash: bool = False,
    allow_shard_faults: bool = False,
    n_shards: int = 0,
    allow_overload: bool = False,
) -> FaultSchedule:
    """Draw a randomized-but-reproducible chaos schedule.

    Every window closes before ``(1 - quiet_tail) * horizon``, so the
    final ``quiet_tail`` fraction of the run is fault-free — the
    re-convergence window the chaos acceptance suite measures ``T'``
    over.  The same ``(n_servers, horizon, seed)`` triple always yields
    the same schedule.

    Parameters
    ----------
    n_servers:
        Size of the server group (health faults pick indices in range).
    horizon:
        Length of the simulated run the schedule is meant for.
    seed:
        The single integer that pins the draw *and* becomes the
        schedule's injection seed.
    quiet_tail:
        Fraction of the horizon kept fault-free at the end.
    max_faults:
        Upper bound on the number of windows (at least 2 are drawn).
    allow_cluster_down:
        Whether a full-cluster correlated outage may be drawn.
    allow_crash:
        Whether to add one control-plane ``crash`` point event (drawn
        *after* the regular windows, so enabling it never perturbs the
        base schedule an existing seed produces).  Crash runs require
        recovery to be enabled on the runtime config.
    allow_shard_faults:
        Whether to add shard-targeted faults (``shard-crash``,
        ``shard-stall``, ``shard-journal-corrupt``) plus, with
        probability one half, one coordinator solver fault scoped to
        ``methods=("sharded",)``.  Drawn *after* the ``allow_crash``
        draw — the same pinning rule: enabling it never perturbs what
        an existing seed produces with it off.  Requires ``n_shards``.
    n_shards:
        Size of the shard fleet the shard-targeted faults pick indices
        from; required (>= 1) when ``allow_shard_faults`` is set.
    allow_overload:
        Whether to add one ``burst-overload`` window plus, with
        probability one half, an overlapping ``retry-storm``.  Drawn
        *after* the shard-fault block — same pinning rule as the other
        opt-in draws: enabling it never perturbs what an existing seed
        produces with it off.
    """
    if n_servers < 1:
        raise ParameterError(f"n_servers must be >= 1, got {n_servers}")
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ParameterError(f"horizon must be finite and > 0, got {horizon!r}")
    if not (0.0 < quiet_tail < 1.0):
        raise ParameterError(f"quiet_tail must be in (0, 1), got {quiet_tail!r}")
    if max_faults < 2:
        raise ParameterError(f"max_faults must be >= 2, got {max_faults}")
    rng = np.random.default_rng(seed)
    fault_end = (1.0 - quiet_tail) * horizon
    kinds = [
        "solver-error",
        "solver-latency",
        "estimator-noise",
        "estimator-bias",
        "estimator-dropout",
        "server-down",
        "server-flap",
    ]
    if n_servers >= 2:
        kinds.append("correlated-outage")
    n_faults = int(rng.integers(2, max_faults + 1))
    specs: list[FaultSpec] = []
    for _ in range(n_faults):
        kind = kinds[int(rng.integers(len(kinds)))]
        start = float(rng.uniform(0.05, 0.75) * fault_end)
        length = float(rng.uniform(0.05, 0.25) * fault_end)
        end = min(start + max(length, 1e-6), fault_end)
        if end <= start:
            continue
        params: dict = {}
        if kind == "solver-error":
            # Half the draws break only the primary path (exercising the
            # bisection rung); the other half break every backend
            # (exercising the proportional rung).
            if rng.random() < 0.5:
                params["methods"] = ("kkt", "newton", "closed-form")
            params["p"] = float(rng.uniform(0.6, 1.0))
        elif kind == "solver-latency":
            params["latency"] = float(rng.uniform(0.5, 5.0))
            if rng.random() < 0.5:
                params["methods"] = ("kkt", "newton", "closed-form")
        elif kind == "estimator-noise":
            params["sigma"] = float(rng.uniform(0.05, 0.4))
        elif kind == "estimator-bias":
            params["factor"] = float(rng.choice([0.5, 0.75, 1.25, 1.5, 2.0]))
        elif kind == "estimator-dropout":
            params["p"] = float(rng.uniform(0.2, 0.8))
        elif kind == "server-down":
            params["server"] = int(rng.integers(n_servers))
            if rng.random() < 0.3:
                params["delay"] = float(rng.uniform(0.0, 0.02 * horizon))
        elif kind == "server-flap":
            params["server"] = int(rng.integers(n_servers))
            params["period"] = float(rng.uniform(0.04, 0.12) * (end - start)) * 2.0
        elif kind == "correlated-outage":
            k = int(rng.integers(2, n_servers + 1))
            if k == n_servers and not allow_cluster_down:
                k = n_servers - 1
            chosen = rng.choice(n_servers, size=k, replace=False)
            params["servers"] = tuple(int(i) for i in sorted(chosen))
            # A dark or near-dark cluster sheds heavily; keep the
            # outage short so queues drain well inside the run.
            end = min(start + 0.08 * fault_end, fault_end)
        specs.append(FaultSpec(kind=kind, start=start, end=end, params=params))
    if allow_crash:
        # Drawn last so the base schedule above is byte-identical with
        # allow_crash=False — existing seeded chaos runs stay pinned.
        t_crash = float(rng.uniform(0.15, 0.85) * fault_end)
        specs.append(FaultSpec(kind="crash", start=t_crash, end=t_crash))
    if allow_shard_faults:
        # Drawn after the allow_crash draw for the same pinning reason:
        # every fault drawn above is byte-identical with this flag off.
        if n_shards < 1:
            raise ParameterError(
                f"allow_shard_faults needs n_shards >= 1, got {n_shards}"
            )
        shard_kinds = ["shard-crash", "shard-stall", "shard-journal-corrupt"]
        n_targets = int(rng.integers(1, min(3, n_shards) + 1))
        # Distinct target shards, so per-shard windows never overlap on
        # one shard (a crash during its own stall is out of scope).
        targets = rng.choice(n_shards, size=n_targets, replace=False)
        for shard in sorted(int(s) for s in targets):
            kind = shard_kinds[int(rng.integers(len(shard_kinds)))]
            shard_params: dict = {"shard": shard}
            if kind == "shard-stall":
                start = float(rng.uniform(0.1, 0.5) * fault_end)
                length = float(rng.uniform(0.12, 0.3) * fault_end)
                end = min(start + max(length, 1e-6), fault_end)
            else:
                # Point events sit well inside the faulting era so the
                # heartbeat detector and recovery both finish before
                # the quiet tail opens; a positive restore_delay leaves
                # the shard dark long enough for the detector to fail
                # it over before crash recovery splices it back.
                start = end = float(rng.uniform(0.15, 0.5) * fault_end)
                shard_params["restore_delay"] = float(
                    rng.uniform(0.12, 0.3) * fault_end
                )
            specs.append(
                FaultSpec(kind=kind, start=start, end=end, params=shard_params)
            )
        if rng.random() < 0.5:
            # One coordinator-scoped solver fault: rebalance ticks see
            # the failure, per-shard controllers stay healthy.
            kind = "solver-error" if rng.random() < 0.5 else "solver-latency"
            start = float(rng.uniform(0.1, 0.6) * fault_end)
            end = min(start + float(rng.uniform(0.08, 0.2)) * fault_end, fault_end)
            params: dict = {"methods": ("sharded",)}
            if kind == "solver-latency":
                params["latency"] = float(rng.uniform(0.5, 5.0))
            if end > start:
                specs.append(FaultSpec(kind=kind, start=start, end=end, params=params))
    if allow_overload:
        # Drawn last (after base -> crash -> shard) so every schedule an
        # existing seed produced stays byte-identical with this flag off.
        start = float(rng.uniform(0.1, 0.45) * fault_end)
        length = float(rng.uniform(0.1, 0.25) * fault_end)
        end = min(start + max(length, 1e-6), fault_end)
        factor = float(rng.uniform(1.5, 2.5))
        specs.append(
            FaultSpec(
                kind="burst-overload",
                start=start,
                end=end,
                params={"factor": factor},
            )
        )
        if rng.random() < 0.5:
            # Retry storm overlapping the burst's tail — the clients
            # panic while queues are still long.
            storm_start = float(rng.uniform(start, end))
            storm_end = min(
                storm_start + float(rng.uniform(0.1, 0.3)) * fault_end, fault_end
            )
            if storm_end > storm_start:
                specs.append(
                    FaultSpec(
                        kind="retry-storm",
                        start=storm_start,
                        end=storm_end,
                        params={"backoff_scale": float(rng.uniform(0.05, 0.3))},
                    )
                )
    return FaultSchedule(specs, seed=seed)
