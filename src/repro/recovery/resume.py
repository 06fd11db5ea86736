"""Deterministic crash recovery: checkpoint + journal-tail replay.

:func:`restore_runtime` rebuilds a
:class:`~repro.runtime.loop.LoadDistributionRuntime` from a recovery
directory:

1. load the newest *valid* checkpoint (a corrupt latest generation —
   half-written before atomic rename landed, bit rot — falls back to
   the previous generation; only "no usable checkpoint at all" or an
   incompatible schema raise :class:`~repro.core.exceptions.RecoveryError`);
2. replay the journal records *after* the checkpoint's sequence number
   against the restored state.  Input records drive the runtime exactly
   as the live event stream did — ``route`` records re-run the arrival
   observation and the routing decision, ``health`` records re-deliver
   the up/down signal — while ``resolve`` / ``breaker`` records are
   audit entries of *derived* decisions and are skipped (replay
   re-derives them; with restored RNG and estimator state the outcome
   is bit-identical);
3. verify each replayed routing decision against the journaled one
   (when :attr:`RecoveryConfig.verify_replay`): a mismatch is counted
   as a divergence in the :class:`RestoreReport`, never raised — the
   restored runtime is still the best available state;
4. attach a fresh :class:`~repro.recovery.checkpoint.RecoveryManager`
   appending after the last valid record (the torn tail, if any, is
   truncated away first).

The restore is wrapped in a ``recovery.restore`` span and lands in the
``repro_recovery_restore_seconds`` histogram,
``repro_recovery_journal_replayed_records`` and
``repro_recovery_restores_total`` counters when observability is on.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

from ..core.exceptions import RecoveryError
from ..core.server import BladeServerGroup
from ..obs import get_obs
from .checkpoint import SCHEMA_VERSION, CheckpointCodec, RecoveryManager, list_checkpoints
from .journal import JOURNAL_NAME, read_journal

__all__ = ["RestoreReport", "load_latest_checkpoint", "restore_runtime"]


@dataclass(frozen=True)
class RestoreReport:
    """What one crash recovery did, for audits and acceptance tests.

    Attributes
    ----------
    time:
        Simulation time of the restored state (last replayed record, or
        the checkpoint time when the tail was empty).
    checkpoint_path:
        The checkpoint file the restore started from.
    checkpoint_seq:
        Journal sequence number that checkpoint covered.
    generation:
        Generation number of that checkpoint.
    skipped_checkpoints:
        Newer checkpoint generations that were unreadable and skipped.
    replayed_records:
        Journal records re-applied after the checkpoint (all kinds).
    dropped_lines:
        Torn/corrupt journal lines excluded from the valid prefix.
    divergences:
        Replayed routing decisions that did not match the journaled
        destination (0 on a healthy deterministic replay).
    duration:
        Wall-clock seconds the restore took.
    """

    time: float
    checkpoint_path: str
    checkpoint_seq: int
    generation: int
    skipped_checkpoints: int
    replayed_records: int
    dropped_lines: int
    divergences: int
    duration: float

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-serializable for CI artifacts)."""
        from dataclasses import asdict

        return asdict(self)


def load_latest_checkpoint(directory: str) -> tuple[int, str, dict, int]:
    """Newest readable, schema-compatible checkpoint in ``directory``.

    Returns ``(generation, path, snapshot, skipped)`` where ``skipped``
    counts newer generations that failed to parse (half-written or
    corrupted files are silently passed over — atomic writes make this
    rare, but a restore must not die on one bad file when an older good
    generation exists).  A parseable snapshot with the wrong schema
    version raises :class:`RecoveryError` — that is a version mismatch,
    not corruption, and silently using an older file would hide it.
    """
    candidates = list_checkpoints(directory)
    if not candidates:
        raise RecoveryError(
            "no checkpoint found; nothing to restore from", path=directory
        )
    skipped = 0
    for generation, path in reversed(candidates):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                snapshot = json.load(fh)
        except (OSError, ValueError):
            skipped += 1
            continue
        if not isinstance(snapshot, dict) or "schema" not in snapshot:
            skipped += 1
            continue
        if snapshot["schema"] != SCHEMA_VERSION:
            raise RecoveryError(
                f"checkpoint schema {snapshot['schema']!r} is not the "
                f"supported {SCHEMA_VERSION}; cannot restore across "
                f"incompatible versions",
                path=path,
            )
        return generation, path, snapshot, skipped
    raise RecoveryError(
        f"all {len(candidates)} checkpoint files are unreadable", path=directory
    )


def restore_runtime(
    group: BladeServerGroup,
    config,
    *,
    initial_rate: float,
    fault_plan=None,
    directory: str | None = None,
    initial_result=None,
):
    """Rebuild a runtime from its recovery directory.

    Parameters
    ----------
    group, config, initial_rate, fault_plan:
        Exactly what the crashed runtime was constructed with
        (:class:`~repro.runtime.loop.RuntimeConfig` for ``config``).
        The persisted topology and config are verified against these —
        a contradiction raises :class:`RecoveryError`.
    directory:
        Recovery directory override; defaults to
        ``config.recovery.directory``.
    initial_result:
        The seed the crashed runtime was constructed with, if any: it
        fixes the controller's quantization grid, so the restored cache
        keys are the ones live resolves compute.

    Returns
    -------
    (runtime, report):
        The restored, journaling runtime and the
        :class:`RestoreReport` describing the recovery.
    """
    from ..runtime.loop import LoadDistributionRuntime

    start = time.perf_counter()
    recovery = config.recovery
    where = directory if directory is not None else recovery.directory
    if not where:
        raise RecoveryError("no recovery directory configured")
    if directory is not None and directory != recovery.directory:
        import dataclasses

        recovery = dataclasses.replace(recovery, directory=directory)
        config = dataclasses.replace(config, recovery=recovery)

    o = get_obs()
    with o.tracer.span("recovery.restore", directory=where) as sp:
        generation, path, snapshot, skipped = load_latest_checkpoint(where)

        runtime = LoadDistributionRuntime(
            group,
            initial_rate,
            config,
            fault_plan=fault_plan,
            initial_result=initial_result,
            _restore=True,
        )
        codec = CheckpointCodec()
        codec.restore(runtime, snapshot, path=path)
        checkpoint_seq = int(snapshot["journal_seq"])

        scan = read_journal(os.path.join(where, JOURNAL_NAME))
        replayed = 0
        divergences = 0
        for record in scan.tail(checkpoint_seq):
            replayed += 1
            if record.kind == "route":
                runtime.observe_arrival(record.t)
                if "cls" in record.data:
                    # Admission-stamped record: rebuild the same offer so
                    # the (deterministic) admission verdict replays too.
                    from ..sim.arrivals import Offer

                    dest = runtime._route(
                        Offer(
                            cls=int(record.data["cls"]),
                            attempt=int(record.data.get("att", 0)),
                        )
                    )
                else:
                    dest = runtime._route()
                if recovery.verify_replay and dest != record.data["dest"]:
                    divergences += 1
            elif record.kind == "complete":
                # Journaled under state-aware routing policies and under
                # admission control: re-applying completions in order
                # rebuilds the queue-depth evolution the replayed picks
                # depend on; the rt stamp re-feeds the sojourn AQM.
                runtime._apply_completion(record.data["server"])
                if "rt" in record.data:
                    runtime._observe_sojourn(record.t, float(record.data["rt"]))
            elif record.kind == "health":
                if record.data["kind"] == "down":
                    runtime.server_down(record.data["server"], record.t)
                else:
                    runtime.server_up(record.data["server"], record.t)
            # "resolve" / "breaker" records are derived-decision audit
            # entries; replaying the inputs above re-derives them.

        manager = RecoveryManager.resume(
            runtime,
            recovery,
            start_seq=scan.last_seq + 1,
            truncate_at=scan.valid_bytes,
            generation=generation + 1,
        )
        runtime._attach_recovery(manager)
        sp.note(
            generation=generation,
            replayed=replayed,
            dropped=scan.dropped_lines,
            divergences=divergences,
        )

    duration = time.perf_counter() - start
    if o.enabled:
        reg = o.registry
        reg.counter(
            "repro_recovery_restores_total", "Completed control-plane restores"
        ).inc()
        reg.counter(
            "repro_recovery_journal_replayed_records",
            "Journal records replayed across all restores",
        ).inc(replayed)
        reg.histogram(
            "repro_recovery_restore_seconds",
            "Wall-clock seconds per control-plane restore",
            lo=1e-6,
            hi=1e3,
        ).observe(duration)

    report = RestoreReport(
        time=runtime._now,
        checkpoint_path=path,
        checkpoint_seq=checkpoint_seq,
        generation=generation,
        skipped_checkpoints=skipped,
        replayed_records=replayed,
        dropped_lines=scan.dropped_lines,
        divergences=divergences,
        duration=duration,
    )
    return runtime, report
