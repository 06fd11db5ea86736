"""Write-ahead decision journal and atomic file helpers.

The control plane's durability story has two layers.  Checkpoints (see
:mod:`repro.recovery.checkpoint`) snapshot the full runtime state every
N decisions; between checkpoints this module's **write-ahead journal**
records every *input* the runtime consumed (routed arrivals, delivered
health signals) plus an audit trail of every *decision* it derived
(resolve events, breaker transitions).  Restore = latest checkpoint +
deterministic replay of the journal tail.

Crash-consistency contract:

* every record is a single JSONL line ``{"seq", "t", "kind", "data",
  "crc"}`` where ``crc`` is the CRC32 of the canonical JSON encoding of
  ``[seq, t, kind, data]`` — a torn tail (partial line, bit rot) fails
  the CRC or the JSON parse and is *dropped*, never parsed;
* sequence numbers increase by exactly one — a gap means a lost record
  and truncates the valid prefix at the gap;
* the writer appends with an explicit ``flush()`` per record (optional
  ``fsync`` for true power-loss durability), so after a process crash
  the on-disk journal is current up to the last completed append;
* checkpoints and all other JSON artifacts go through
  :func:`atomic_write_json` / :func:`atomic_write_text` — temp file in
  the same directory, ``fsync``, then ``os.replace`` — so readers never
  observe a half-written file.

Floats are serialized with :mod:`json`'s ``repr``-based encoder, which
round-trips IEEE-754 doubles exactly; non-finite values (``NaN``,
``±Infinity``) use Python's JSON dialect tokens, which this module both
writes and reads.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from typing import Any, Iterable

from ..core.exceptions import RecoveryError

__all__ = [
    "JournalRecord",
    "JournalWriter",
    "read_journal",
    "atomic_write_json",
    "atomic_write_text",
]

#: Journal file name inside a recovery directory.
JOURNAL_NAME = "journal.jsonl"


def _fsync_directory(path: str) -> None:
    """Best-effort fsync of a directory so renames/creates are durable."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - e.g. fsync on dir unsupported
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: str, text: str) -> str:
    """Write ``text`` to ``path`` atomically (temp + fsync + replace).

    A crash at any point leaves either the previous content or the new
    content at ``path`` — never a partial file.  Returns ``path``.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".{os.path.basename(path)}.tmp.{os.getpid()}")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    _fsync_directory(directory)
    return path


def atomic_write_json(
    path: str, payload: Any, *, indent: int | None = 2, sort_keys: bool = False
) -> str:
    """Serialize ``payload`` as JSON and write it atomically to ``path``."""
    return atomic_write_text(
        path, json.dumps(payload, indent=indent, sort_keys=sort_keys) + "\n"
    )


#: Compact JSON encoder shared by the CRC input and the line.
_encode = json.JSONEncoder(separators=(",", ":")).encode


def _crc(seq: str, t: str, kind: str, data: str) -> int:
    """CRC32 of ``[seq,t,kind,data]`` from its fields' compact encodings."""
    canonical = f"[{seq},{t},{kind},{data}]"
    return zlib.crc32(canonical.encode("utf-8")) & 0xFFFFFFFF


def _record_crc(seq: int, t: float, kind: str, data: Any) -> int:
    return _crc(_encode(seq), _encode(t), _encode(kind), _encode(data))


@dataclass(frozen=True)
class JournalRecord:
    """One validated write-ahead journal entry."""

    seq: int
    t: float
    kind: str
    data: dict[str, Any]

    def to_line(self) -> str:
        """The record's JSONL line, each field encoded once.

        Compact JSON of a list or an object is its items' compact
        encodings joined by ``,`` (and ``:``), so the CRC input and the
        line are both built from the same four substrings, byte for
        byte what encoding the whole list and the whole object gives.
        """
        seq = _encode(self.seq)
        t = _encode(self.t)
        kind = _encode(self.kind)
        data = _encode(self.data)
        crc = _crc(seq, t, kind, data)
        return f'{{"seq":{seq},"t":{t},"kind":{kind},"data":{data},"crc":{crc}}}'

    @staticmethod
    def from_line(line: str) -> "JournalRecord":
        """Parse and CRC-validate one line; raises ``ValueError`` if torn."""
        payload = json.loads(line)
        if not isinstance(payload, dict):
            raise ValueError("journal line is not an object")
        try:
            seq = payload["seq"]
            t = payload["t"]
            kind = payload["kind"]
            data = payload["data"]
            crc = payload["crc"]
        except KeyError as exc:  # missing field == torn record
            raise ValueError(f"journal line missing field {exc}") from exc
        if not isinstance(seq, int) or not isinstance(kind, str):
            raise ValueError("journal line field types invalid")
        if _record_crc(seq, float(t), kind, data) != crc:
            raise ValueError(f"journal CRC mismatch at seq {seq}")
        return JournalRecord(seq=seq, t=float(t), kind=kind, data=data)


class JournalWriter:
    """Append-only JSONL writer with per-record flush and CRC framing.

    ``start_seq`` seeds the monotonic sequence counter (resume passes
    ``last valid seq + 1``); ``truncate_at`` cuts the file back to a
    byte offset first, amputating any torn tail left by a crash so the
    resumed stream appends after the last *valid* record.
    """

    def __init__(
        self,
        path: str,
        *,
        start_seq: int = 0,
        truncate_at: int | None = None,
        fsync: bool = False,
    ) -> None:
        if start_seq < 0:
            raise RecoveryError(f"start_seq must be >= 0, got {start_seq}")
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self.path = path
        self._fsync = fsync
        if truncate_at is not None and os.path.exists(path):
            with open(path, "r+b") as fh:
                fh.truncate(truncate_at)
        mode = "a" if truncate_at is not None else "w"
        self._fh = open(path, mode, encoding="utf-8")
        self._next_seq = start_seq
        self._closed = False

    @property
    def next_seq(self) -> int:
        return self._next_seq

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recently appended record (-1 if none)."""
        return self._next_seq - 1

    def append(self, t: float, kind: str, data: dict[str, Any]) -> JournalRecord:
        if self._closed:
            raise RecoveryError("append to a closed journal", path=self.path)
        record = JournalRecord(seq=self._next_seq, t=float(t), kind=kind, data=data)
        self._fh.write(record.to_line() + "\n")
        self._fh.flush()
        if self._fsync:
            os.fsync(self._fh.fileno())
        self._next_seq += 1
        return record

    def close(self) -> None:
        if not self._closed:
            self._fh.flush()
            try:
                os.fsync(self._fh.fileno())
            except OSError:  # pragma: no cover
                pass
            self._fh.close()
            self._closed = True

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


@dataclass(frozen=True)
class JournalScan:
    """Result of scanning a journal file for its valid prefix."""

    records: tuple[JournalRecord, ...]
    dropped_lines: int
    valid_bytes: int

    @property
    def last_seq(self) -> int:
        return self.records[-1].seq if self.records else -1

    def tail(self, after_seq: int) -> Iterable[JournalRecord]:
        return (r for r in self.records if r.seq > after_seq)


def read_journal(path: str) -> JournalScan:
    """Read the longest valid prefix of a journal file.

    Stops at the first line that fails CRC/JSON validation or breaks
    the ``seq`` monotone-by-one invariant; everything after that point
    is counted into ``dropped_lines`` (a crash tears at most the last
    line, but corruption anywhere truncates the trusted prefix there).
    A missing file scans as empty — a fresh runtime simply has no
    journal yet.
    """
    if not os.path.exists(path):
        return JournalScan(records=(), dropped_lines=0, valid_bytes=0)
    records: list[JournalRecord] = []
    valid_bytes = 0
    dropped = 0
    expected_seq: int | None = None
    with open(path, "rb") as fh:
        for raw in fh:
            if dropped:
                dropped += 1
                continue
            if not raw.endswith(b"\n"):
                # A final line without its newline is torn mid-append:
                # even if it happens to parse, appending after it would
                # fuse two records, so it is not part of the valid prefix.
                dropped += 1
                continue
            try:
                record = JournalRecord.from_line(raw.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                dropped += 1
                continue
            if expected_seq is not None and record.seq != expected_seq:
                dropped += 1
                continue
            records.append(record)
            expected_seq = record.seq + 1
            valid_bytes += len(raw)
    return JournalScan(
        records=tuple(records), dropped_lines=dropped, valid_bytes=valid_bytes
    )
