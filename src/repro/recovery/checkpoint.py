"""Versioned checkpoints of the full control-plane state.

A checkpoint is one atomic JSON file capturing everything the online
runtime needs to be rebuilt bit-identically: estimator internals, the
controller's warm-start anchor and LRU cache, supervisor breaker state
and pinned split, health vector, router credits, metric accumulators,
the runtime's own RNG streams, and (when fault injection is attached)
the injection streams.  :class:`CheckpointCodec` owns the encoding —
including :class:`~repro.core.result.LoadDistributionResult`
serialization, so the runtime modules stay persistence-agnostic — and
:class:`RecoveryManager` owns the cadence: journal every decision,
checkpoint every ``checkpoint_every`` decisions, prune old generations.

Checkpoint timing invariant
---------------------------
Checkpoints are taken only at *safe points*: immediately after a routed
arrival's journal record, or after a health signal has been fully
processed.  Never inside a resolve — a snapshot taken mid-arrival would
contain the estimator's observation of an arrival whose route record
sits *after* the checkpoint in the journal, and replay would observe
that arrival twice.
"""

from __future__ import annotations

import hashlib
import json
import os
import weakref
from dataclasses import asdict, dataclass

import numpy as np

from ..core.exceptions import ParameterError, RecoveryError
from ..core.response import Discipline
from ..core.result import LoadDistributionResult
from ..core.server import BladeServerGroup
from ..obs import ConfigBase
from ..sim.rng import generator_state, set_generator_state
from .journal import JOURNAL_NAME, JournalWriter, atomic_write_text

__all__ = [
    "SCHEMA_VERSION",
    "RecoveryConfig",
    "CheckpointCodec",
    "RecoveryManager",
    "list_checkpoints",
]

#: Version of the checkpoint dict layout.  Bumped on any incompatible
#: change; restore refuses mismatched snapshots with a clear error.
#: v2: RuntimeConfig grew the ``routing`` knob (changing the persisted
#: config dict) and the runtime section gained the per-server in-flight
#: vector that state-aware policies route on.
#: v3: RuntimeConfig grew the ``admission`` knob and the snapshot an
#: ``admission`` section (the controller's bucket/AQM/brownout state);
#: route records may carry ``cls``/``att`` and completion records
#: ``rt`` when admission is enabled.
#: v4: the response-time histogram moved into the metrics registry
#: snapshot (family ``runtime_response_time``); the separate
#: ``metrics.response_histogram`` key is gone.  Journals are unchanged.
#: v5: RuntimeConfig kept only the caller-set knobs (the persisted
#: config dict shrank) and the supervisor section is always present.
#: Journals are unchanged.
#: v6: a normal form that writes each fact once.  Each distinct result
#: and weight vector sits once in the top-level ``results`` and
#: ``weights`` tables and is referred to by index; health fingerprints
#: and the health section are down-sets; ``group`` is a digest.
#: Journals are unchanged.
#: v7: a result stores its split and its group's ``down``-set within the
#: runtime's group, not ``T'``, ``rho_i`` or ``T'_i``, which restore
#: recomputes.  Journals are unchanged.
SCHEMA_VERSION = 7

_CHECKPOINT_PREFIX = "checkpoint-"
_CHECKPOINT_SUFFIX = ".json"


@dataclass(frozen=True, kw_only=True)
class RecoveryConfig(ConfigBase):
    """Durability knobs of the online runtime.

    Keyword-only and frozen; round-trips through ``to_dict()`` /
    ``from_dict()`` like every config in the library.

    Attributes
    ----------
    enabled:
        Master switch.  Off (the default) keeps the runtime exactly as
        before: no journal, no checkpoints, zero per-arrival cost.
    directory:
        Where the journal and checkpoints live.  Required when enabled.
    checkpoint_every:
        Control decisions (resolve events) between checkpoints.  The
        journal tail replayed on restore is bounded by this cadence.
    keep_checkpoints:
        Checkpoint generations retained; older files are pruned.
    fsync:
        Fsync the journal after every record.  Off by default: the
        per-record ``flush()`` already survives a process crash, fsync
        additionally survives power loss at a large throughput cost.
    verify_replay:
        Compare each replayed routing decision against the journaled
        one and count mismatches into the restore report.
    """

    enabled: bool = False
    directory: str = ""
    checkpoint_every: int = 8
    keep_checkpoints: int = 3
    fsync: bool = False
    verify_replay: bool = True

    def __post_init__(self) -> None:
        if self.checkpoint_every < 1:
            raise ParameterError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.keep_checkpoints < 1:
            raise ParameterError(
                f"keep_checkpoints must be >= 1, got {self.keep_checkpoints}"
            )


def _json_safe(value):
    """Recursively convert numpy containers/scalars to plain JSON types."""
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _interner(table: list, encode):
    """``ref(obj)``: the index of ``obj`` in ``table``, appending
    ``encode(obj)`` the first time an object is seen (keyed by identity,
    so equal but distinct objects stay distinct)."""
    index: dict[int, int] = {}

    def ref(obj) -> int:
        key = id(obj)
        if key not in index:
            index[key] = len(table)
            table.append(encode(obj))
        return index[key]

    return ref


def checkpoint_path(directory: str, generation: int) -> str:
    """File path of checkpoint ``generation`` inside ``directory``."""
    return os.path.join(
        directory, f"{_CHECKPOINT_PREFIX}{generation:08d}{_CHECKPOINT_SUFFIX}"
    )


def list_checkpoints(directory: str) -> list[tuple[int, str]]:
    """``(generation, path)`` of every checkpoint file, oldest first."""
    if not os.path.isdir(directory):
        return []
    found = []
    for name in os.listdir(directory):
        if not (name.startswith(_CHECKPOINT_PREFIX) and name.endswith(_CHECKPOINT_SUFFIX)):
            continue
        stem = name[len(_CHECKPOINT_PREFIX) : -len(_CHECKPOINT_SUFFIX)]
        try:
            generation = int(stem)
        except ValueError:
            continue
        found.append((generation, os.path.join(directory, name)))
    found.sort()
    return found


class CheckpointCodec:
    """Encode/restore the full runtime state as a schema-versioned dict."""

    # -- result serialization ------------------------------------------------------

    @staticmethod
    def encode_result(result: LoadDistributionResult, group: BladeServerGroup) -> dict:
        """JSON-safe dict form of a result solved over ``group`` or one of
        its subgroups (lossless for floats; metadata arrays come back as
        lists).  ``down`` lists the positions of ``group`` that the
        result's group lacks; ``T'``, ``rho_i`` and ``T'_i`` follow from
        the split on that group and are not stored."""
        sub = result.group
        return {
            "generic_rates": result.generic_rates.tolist(),
            "phi": result.phi,
            "discipline": result.discipline.value,
            "method": result.method,
            "down": []
            if sub.n == group.n
            else np.setdiff1d(np.arange(group.n), sub._parent_index).tolist(),
            "iterations": int(result.iterations),
            "converged": bool(result.converged),
            "metadata": _json_safe(result.metadata),
        }

    @staticmethod
    def result_decoder(group: BladeServerGroup):
        """``decode(encoded)``, the inverse of :meth:`encode_result` over
        ``group``.  Each distinct down-set's subgroup is built once, by
        the health tracker's ``subgroup`` call, and ``T'`` is recomputed
        on it."""
        groups = {(): group}

        def decode(encoded: dict) -> LoadDistributionResult:
            down = tuple(encoded["down"])
            if down not in groups:
                groups[down] = group.subgroup(np.setdiff1d(np.arange(group.n), down))
            return LoadDistributionResult.from_rates(
                groups[down],
                np.asarray(encoded["generic_rates"], dtype=float),
                encoded["phi"],
                Discipline(encoded["discipline"]),
                encoded["method"],
                iterations=int(encoded["iterations"]),
                converged=bool(encoded["converged"]),
                metadata=dict(encoded["metadata"]),
            )

        return decode

    @staticmethod
    def _group_digest(group: BladeServerGroup) -> dict:
        """``n``, ``rbar`` and a SHA-256 of the server parameter arrays'
        bytes: equal exactly when the groups are."""
        digest = hashlib.sha256()
        for array, dtype in (
            (group.sizes, "<i8"),
            (group.speeds, "<f8"),
            (group.special_rates, "<f8"),
        ):
            digest.update(np.ascontiguousarray(array, dtype=dtype).tobytes())
        return {"n": group.n, "rbar": group.rbar, "sha256": digest.hexdigest()}

    # -- full-state encode ---------------------------------------------------------

    def encode(self, runtime, journal_seq: int) -> dict:
        """Snapshot ``runtime`` as of the journal position ``journal_seq``.

        Must only be called at a safe point (see the module docstring).
        Each distinct result and weight vector is encoded once, into the
        ``results`` and ``weights`` tables; its owners store its index.
        """
        results: list = []
        weights: list = []
        group = runtime.health.group
        result_ref = _interner(results, lambda r: self.encode_result(r, group))
        weights_ref = _interner(weights, np.ndarray.tolist)
        router = runtime._router
        snapshot = {
            "schema": SCHEMA_VERSION,
            "time": runtime._now,
            "journal_seq": journal_seq,
            "config": runtime.config.to_dict(),
            "group": self._group_digest(group),
            "estimator": runtime.estimator.state_dict(),
            "drift": runtime.drift.state_dict(),
            "controller": runtime.controller.state_dict(result_ref),
            "supervisor": runtime.supervisor.state_dict(result_ref, weights_ref),
            "health": runtime.health.state_dict(),
            "router": None if router is None else router.state_dict(),
            "runtime": {
                "last_resolve": runtime._last_resolve,
                "shed_fraction": runtime._shed_fraction,
                "weights": None
                if runtime._weights is None
                else weights_ref(runtime._weights),
                "result": None
                if runtime._result is None
                else result_ref(runtime._result),
                "resolve_log": [asdict(ev) for ev in runtime.resolve_log],
                "inflight": [int(c) for c in runtime._inflight],
            },
            "admission": None
            if runtime._admission is None
            else runtime._admission.state_dict(),
            "metrics": runtime.metrics.state_dict(),
            "rng": {
                "shed": generator_state(runtime._shed_rng),
                "router": generator_state(runtime._router_rng),
            },
            "fault_plan": None
            if runtime._fault_plan is None
            else runtime._fault_plan.state_dict(),
            "results": results,
            "weights": weights,
        }
        return snapshot

    # -- full-state restore --------------------------------------------------------

    def restore(self, runtime, snapshot: dict, *, path: str = "") -> None:
        """Load ``snapshot`` into a freshly built (``_restore=True``) runtime.

        Raises :class:`RecoveryError` when the snapshot's schema,
        topology, or config contradicts what the caller constructed —
        restoring cross-topology state would route to servers that do
        not exist.
        """
        schema = snapshot.get("schema")
        if schema != SCHEMA_VERSION:
            raise RecoveryError(
                f"checkpoint schema {schema!r} is not the supported "
                f"{SCHEMA_VERSION}",
                path=path,
            )
        persisted_group = snapshot["group"]
        if persisted_group != self._group_digest(runtime.health.group):
            raise RecoveryError(
                "checkpoint was taken for a different server group "
                f"({persisted_group['n']} servers, "
                f"rbar={persisted_group['rbar']!r})",
                path=path,
            )
        if snapshot["config"] != runtime.config.to_dict():
            raise RecoveryError(
                "checkpoint was taken under a different runtime config; "
                "restore with the original config or start fresh",
                path=path,
            )

        # Decode each table entry once: owners that shared a result or
        # a weight vector share it again.
        decode = self.result_decoder(runtime.health.group)
        results = [decode(r) for r in snapshot["results"]]
        weights = [np.array(w, dtype=float) for w in snapshot["weights"]]
        for w in weights:
            w.setflags(write=False)
        runtime._now = float(snapshot["time"])
        runtime.estimator.load_state(snapshot["estimator"])
        runtime.drift.load_state(snapshot["drift"])
        runtime.health.load_state(snapshot["health"])
        runtime.controller.load_state(snapshot["controller"], results.__getitem__)
        runtime.supervisor.load_state(
            snapshot["supervisor"], results.__getitem__, weights.__getitem__
        )

        state = snapshot["runtime"]
        runtime._last_resolve = float(state["last_resolve"])
        runtime._shed_fraction = float(state["shed_fraction"])
        runtime._weights = (
            None if state["weights"] is None else weights[state["weights"]]
        )
        runtime._result = None if state["result"] is None else results[state["result"]]
        runtime.controller.set_live(runtime._result, runtime._weights)
        from ..runtime.loop import ResolveEvent

        runtime.resolve_log = [ResolveEvent(**ev) for ev in state["resolve_log"]]
        runtime._inflight = [int(c) for c in state["inflight"]]

        if snapshot["router"] is not None:
            from ..runtime.policies import build_router

            if runtime._router is None:
                # Seed weights are irrelevant — load_state overwrites
                # them — but the factory needs a valid vector to build.
                # A checkpoint taken in shed-all mode (every server
                # down) persists all-zero weights, so those need the
                # placeholder too.
                seed_weights = runtime._weights
                if seed_weights is None or float(np.sum(seed_weights)) <= 0.0:
                    seed_weights = np.ones(runtime.health.group.n)
                runtime._router = build_router(
                    runtime.config.routing_config(), seed_weights, runtime._router_rng
                )
            runtime._router.load_state(snapshot["router"])

        if snapshot["admission"] is not None:
            if runtime._admission is None:  # pragma: no cover - config guard above
                raise RecoveryError(
                    "admission state without an admission controller", path=path
                )
            runtime._admission.load_state(snapshot["admission"])
        runtime.metrics.load_state(snapshot["metrics"])
        set_generator_state(runtime._shed_rng, snapshot["rng"]["shed"])
        set_generator_state(runtime._router_rng, snapshot["rng"]["router"])
        if snapshot["fault_plan"] is not None and runtime._fault_plan is not None:
            runtime._fault_plan.load_state(snapshot["fault_plan"])


class RecoveryManager:
    """Journal every runtime event; checkpoint on a decision cadence.

    One manager is attached to one :class:`LoadDistributionRuntime`.
    The runtime calls the ``record_*`` hooks from its hot path (each is
    one journal append) and ``safe_point()`` where a checkpoint is
    consistent; the manager decides *whether* to checkpoint there based
    on how many control decisions have accumulated.

    The runtime owns its manager; the manager holds only a weak
    reference back, so a finished runtime is freed by reference
    counting alone instead of waiting for the cyclic collector.
    """

    def __init__(
        self,
        runtime,
        config: RecoveryConfig,
        writer: JournalWriter,
        *,
        generation: int = 0,
    ) -> None:
        self._runtime = weakref.ref(runtime)
        self.config = config
        self.codec = CheckpointCodec()
        self._writer = writer
        self._generation = generation
        self._decisions_since_checkpoint = 0
        self._closed = False

    # -- construction --------------------------------------------------------------

    @classmethod
    def create(cls, runtime, config: RecoveryConfig) -> "RecoveryManager":
        """Fresh manager: new journal, bootstrap checkpoint of the
        just-constructed runtime (so replay never needs the initial
        resolve, which happened before journaling started)."""
        directory = cls._require_directory(config)
        os.makedirs(directory, exist_ok=True)
        writer = JournalWriter(
            os.path.join(directory, JOURNAL_NAME), fsync=config.fsync
        )
        manager = cls(runtime, config, writer)
        manager.checkpoint()
        return manager

    @classmethod
    def resume(
        cls,
        runtime,
        config: RecoveryConfig,
        *,
        start_seq: int,
        truncate_at: int,
        generation: int,
    ) -> "RecoveryManager":
        """Manager for a restored runtime: append after the last valid
        journal record (amputating any torn tail first) and continue
        the checkpoint generation sequence."""
        directory = cls._require_directory(config)
        writer = JournalWriter(
            os.path.join(directory, JOURNAL_NAME),
            start_seq=start_seq,
            truncate_at=truncate_at,
            fsync=config.fsync,
        )
        return cls(runtime, config, writer, generation=generation)

    @staticmethod
    def _require_directory(config: RecoveryConfig) -> str:
        if not config.directory:
            raise RecoveryError(
                "RecoveryConfig.enabled requires a non-empty directory"
            )
        return config.directory

    @property
    def runtime(self):
        """The runtime this manager journals and checkpoints."""
        return self._runtime()

    @property
    def directory(self) -> str:
        return self.config.directory

    @property
    def journal_path(self) -> str:
        return self._writer.path

    @property
    def generation(self) -> int:
        """Generation number the *next* checkpoint will be written as."""
        return self._generation

    # -- journaling hooks (runtime hot path) ---------------------------------------

    def record_resolve(self, now: float, event) -> None:
        """Journal one control decision (audit record, skipped on replay)."""
        self._writer.append(now, "resolve", asdict(event))
        self._decisions_since_checkpoint += 1

    def record_route(
        self,
        now: float,
        dest: int,
        *,
        cls: int | None = None,
        attempt: int | None = None,
    ) -> None:
        """Journal one routing decision (``dest=-1`` = shed), then
        checkpoint if the decision cadence says so — this is a safe
        point: the arrival is fully processed and its record is in.

        ``cls``/``attempt`` are stamped only when admission control is
        on: replay rebuilds the same admission verdicts from them.
        Without admission the record stays byte-identical to schema v1.
        """
        data: dict = {"dest": int(dest)}
        if cls is not None:
            data["cls"] = int(cls)
            data["att"] = 0 if attempt is None else int(attempt)
        self._writer.append(now, "route", data)
        self.safe_point()

    def record_completion(
        self, now: float, server: int, *, rt: float | None = None
    ) -> None:
        """Journal one task completion (state-aware policies and
        admission-enabled runtimes).

        Replay re-applies completions in journal order so the queue-
        depth evolution a power-of-d/JIQ pick depends on is rebuilt
        bit-identically; ``rt`` (stamped only under admission) re-feeds
        the sojourn AQM the same response times.  No ``safe_point()``
        here: the checkpoint cadence stays a pure function of control
        decisions, exactly as in schema v1.
        """
        data: dict = {"server": int(server)}
        if rt is not None:
            data["rt"] = float(rt)
        self._writer.append(now, "complete", data)

    def record_health(self, now: float, server: int, kind: str) -> None:
        """Journal a health signal *before* the runtime processes it."""
        self._writer.append(now, "health", {"server": int(server), "kind": kind})

    def record_breaker(self, now: float, to: str) -> None:
        """Journal a circuit-breaker transition (audit record)."""
        self._writer.append(now, "breaker", {"to": to})

    # -- checkpointing -------------------------------------------------------------

    def safe_point(self) -> None:
        """Checkpoint here if enough decisions accumulated since the last."""
        if self._decisions_since_checkpoint >= self.config.checkpoint_every:
            self.checkpoint()

    def checkpoint(self) -> str:
        """Write one checkpoint generation atomically; prune old ones."""
        snapshot = self.codec.encode(self.runtime, journal_seq=self._writer.last_seq)
        path = checkpoint_path(self.directory, self._generation)
        atomic_write_text(path, json.dumps(snapshot, separators=(",", ":")) + "\n")
        self._generation += 1
        self._decisions_since_checkpoint = 0
        self._prune()
        return path

    def _prune(self) -> None:
        existing = list_checkpoints(self.directory)
        for _, path in existing[: -self.config.keep_checkpoints]:
            try:
                os.remove(path)
            except OSError:  # pragma: no cover - concurrent cleanup
                pass

    # -- shutdown ------------------------------------------------------------------

    def finalize(self) -> None:
        """Clean shutdown: final checkpoint, then close the journal."""
        if not self._closed:
            self.checkpoint()
            self._writer.close()
            self._closed = True

    def abandon(self) -> None:
        """Simulated crash: release the file handle *without* a final
        checkpoint or any other cleanup.  Every append was flushed, so
        the on-disk journal is exactly what a killed process leaves."""
        if not self._closed:
            self._writer.close()
            self._closed = True
