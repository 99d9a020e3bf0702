"""Coordination backend: worker registry, heartbeats, lease TTLs, checkpoints.

The fault-tolerant fabric separates *serving* (the sharded placement fabric)
from *coordination* (who is alive, who owns which lease, and where the last
good copy of each shard's state lives). This module defines the
coordination contract and ships the in-memory reference implementation the
tests and the single-process supervisor use.

:class:`CoordinationBackend` is a :class:`~typing.Protocol` shaped after the
primitives a redis/etcd-style store offers — registration, TTL'd heartbeat
keys, a TTL'd lease ledger, and a per-worker snapshot + append-only log — so a
networked implementation can slot in without touching the supervisor:

* **worker registry** — each shard worker registers under a stable worker id
  (``shard-<id>``); re-registration after a crash bumps the *incarnation*
  counter, which distinguishes a restarted worker from a wedged original.
* **heartbeats** — workers call :meth:`~CoordinationBackend.beat`; the
  supervisor reads heartbeat *age* and declares a worker dead when the age
  exceeds the configured TTL. Time is injected by the caller (the supervisor
  owns the clock), keeping every record deterministic under test.
* **lease ledger** — one record per placed request, owned by a worker id,
  with an expiry the owner pushes forward on every beat. A worker that dies
  stops renewing, so its leases drift toward expiry — the supervisor reads
  :meth:`~CoordinationBackend.expired_leases` to enumerate at-risk leases
  during an outage.
* **checkpoint store** — the write-ahead replication target, one per
  worker: a *snapshot* (the canonical checkpoint bytes of the shard state)
  plus an *append-only log* of deltas since it. Workers append one delta
  per commit with :meth:`~CoordinationBackend.append`, keyed by the state
  version it brings the shard to; storing a snapshot with
  :meth:`~CoordinationBackend.put_checkpoint` resets the log. A worker
  compacts (writes a fresh snapshot) when the log's bytes would exceed the
  snapshot's, so the log never outgrows one snapshot. Restore reads the
  snapshot and :meth:`~CoordinationBackend.read_since` its version, reads
  the snapshot again (a compaction in between means the log belongs to a
  newer snapshot, so it starts over), and replays. Snapshots and log records are opaque ``bytes``; byte-identity
  of the replayed state end-to-end is the recovery invariant, and keeping
  the type binary means a networked backend ships them over the wire
  without any re-encoding ambiguity.

The in-memory implementation keeps everything under one lock and never
reads a wall clock, so a trace replayed with the same injected timestamps
produces byte-identical backend state. The networked implementation lives
in :mod:`repro.service.coord.net`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Protocol, runtime_checkable

from repro.util.errors import ValidationError


@dataclass(frozen=True, slots=True)
class WorkerRecord:
    """One registered shard worker as the backend sees it.

    ``incarnation`` starts at 1 and increments every time the same worker id
    re-registers (i.e. after a restore); ``last_beat`` is the caller-supplied
    timestamp of the most recent heartbeat.
    """

    worker_id: str
    shard_id: int
    registered_at: float
    last_beat: float
    incarnation: int = 1


@dataclass(frozen=True, slots=True)
class LeaseRecord:
    """One TTL'd lease ledger entry: who owns a placed request, until when."""

    request_id: int
    owner: str
    granted_at: float
    expires_at: float

    def expired(self, now: float) -> bool:
        return now > self.expires_at


@dataclass(frozen=True, slots=True)
class LogEntry:
    """One appended delta: the state version it brings its worker to, and
    its opaque bytes."""

    version: int
    record: bytes


@runtime_checkable
class CoordinationBackend(Protocol):
    """The coordination contract the fabric supervisor programs against.

    All timestamps are caller-supplied floats on one monotonic axis; the
    backend never reads a clock. Implementations must be safe to call from
    multiple worker threads concurrently.
    """

    # -- worker registry --------------------------------------------------

    def register_worker(self, worker_id: str, shard_id: int, now: float) -> int:
        """Register (or re-register) a worker; returns its incarnation."""
        ...

    def deregister_worker(self, worker_id: str) -> None:
        """Forget a worker (graceful shutdown); its leases are untouched."""
        ...

    def workers(self) -> "dict[str, WorkerRecord]":
        """A snapshot of every registered worker."""
        ...

    # -- heartbeats -------------------------------------------------------

    def beat(self, worker_id: str, now: float) -> None:
        """Record a heartbeat for *worker_id* at time *now*."""
        ...

    def last_beat(self, worker_id: str) -> "float | None":
        """Timestamp of the worker's most recent beat, or ``None``."""
        ...

    # -- lease ledger -----------------------------------------------------

    def put_lease(
        self, request_id: int, owner: str, now: float, ttl: float
    ) -> None:
        """Record (or re-own) a lease expiring at ``now + ttl``."""
        ...

    def renew_leases(self, owner: str, now: float, ttl: float) -> int:
        """Push every lease owned by *owner* to ``now + ttl``; returns count."""
        ...

    def drop_lease(self, request_id: int, owner: str) -> bool:
        """Remove a lease record if *owner* owns it (a lease re-put under
        another owner is theirs); returns whether one was removed."""
        ...

    def leases(self) -> "dict[int, LeaseRecord]":
        """A snapshot of the full lease ledger."""
        ...

    def expired_leases(self, now: float) -> "list[LeaseRecord]":
        """Every lease whose owner has let its TTL lapse, oldest-expiry first."""
        ...

    # -- checkpoint store -------------------------------------------------

    def put_checkpoint(self, worker_id: str, payload: bytes) -> None:
        """Store the worker's snapshot (opaque bytes) and empty its log."""
        ...

    def get_checkpoint(self, worker_id: str) -> "bytes | None":
        """The last snapshot stored for *worker_id*, or ``None``."""
        ...

    def append(self, worker_id: str, version: int, record: bytes) -> None:
        """Log one delta after the worker's snapshot; versions must rise
        (re-sending the last entry exactly is a no-op)."""
        ...

    def read_since(self, worker_id: str, version: int) -> "list[LogEntry]":
        """The worker's logged deltas keyed after *version*, oldest first."""
        ...


class InMemoryCoordinationBackend:
    """Single-process :class:`CoordinationBackend` (the test/reference impl).

    Deterministic by construction: state is exactly the sequence of calls
    applied to it, with no wall-clock reads and no background expiry sweeps
    (expiry is evaluated lazily against the caller's ``now``).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._workers: dict[str, WorkerRecord] = {}
        self._incarnations: dict[str, int] = {}
        self._leases: dict[int, LeaseRecord] = {}
        self._checkpoints: dict[str, bytes] = {}
        self._logs: dict[str, list[LogEntry]] = {}

    # -- worker registry --------------------------------------------------

    def register_worker(self, worker_id: str, shard_id: int, now: float) -> int:
        if not worker_id:
            raise ValidationError("worker_id must be non-empty")
        with self._lock:
            incarnation = self._incarnations.get(worker_id, 0) + 1
            self._incarnations[worker_id] = incarnation
            self._workers[worker_id] = WorkerRecord(
                worker_id=worker_id,
                shard_id=shard_id,
                registered_at=now,
                last_beat=now,
                incarnation=incarnation,
            )
            return incarnation

    def deregister_worker(self, worker_id: str) -> None:
        with self._lock:
            self._workers.pop(worker_id, None)

    def workers(self) -> "dict[str, WorkerRecord]":
        with self._lock:
            return dict(self._workers)

    # -- heartbeats -------------------------------------------------------

    def beat(self, worker_id: str, now: float) -> None:
        with self._lock:
            record = self._workers.get(worker_id)
            if record is None:
                raise ValidationError(
                    f"heartbeat from unregistered worker {worker_id!r}"
                )
            self._workers[worker_id] = replace(record, last_beat=now)

    def last_beat(self, worker_id: str) -> "float | None":
        with self._lock:
            record = self._workers.get(worker_id)
            return None if record is None else record.last_beat

    # -- lease ledger -----------------------------------------------------

    def put_lease(
        self, request_id: int, owner: str, now: float, ttl: float
    ) -> None:
        if ttl <= 0:
            raise ValidationError("lease ttl must be > 0")
        with self._lock:
            self._leases[int(request_id)] = LeaseRecord(
                request_id=int(request_id),
                owner=owner,
                granted_at=now,
                expires_at=now + ttl,
            )

    def renew_leases(self, owner: str, now: float, ttl: float) -> int:
        if ttl <= 0:
            raise ValidationError("lease ttl must be > 0")
        with self._lock:
            renewed = 0
            for rid, record in self._leases.items():
                if record.owner == owner:
                    self._leases[rid] = replace(record, expires_at=now + ttl)
                    renewed += 1
            return renewed

    def drop_lease(self, request_id: int, owner: str) -> bool:
        with self._lock:
            record = self._leases.get(int(request_id))
            if record is None or record.owner != owner:
                return False
            del self._leases[int(request_id)]
            return True

    def leases(self) -> "dict[int, LeaseRecord]":
        with self._lock:
            return dict(self._leases)

    def expired_leases(self, now: float) -> "list[LeaseRecord]":
        with self._lock:
            expired = [r for r in self._leases.values() if r.expired(now)]
        return sorted(expired, key=lambda r: (r.expires_at, r.request_id))

    # -- checkpoint store -------------------------------------------------

    def put_checkpoint(self, worker_id: str, payload: bytes) -> None:
        if not isinstance(payload, bytes):
            raise ValidationError("checkpoint payload must be bytes")
        with self._lock:
            self._checkpoints[worker_id] = payload
            self._logs[worker_id] = []

    def get_checkpoint(self, worker_id: str) -> "bytes | None":
        with self._lock:
            return self._checkpoints.get(worker_id)

    def append(self, worker_id: str, version: int, record: bytes) -> None:
        if not isinstance(record, bytes):
            raise ValidationError("log record must be bytes")
        with self._lock:
            log = self._logs.get(worker_id)
            if log is None:
                raise ValidationError(f"no snapshot for {worker_id!r} to append to")
            if log and log[-1] == LogEntry(version, record):
                return  # a retry of an append whose reply was lost
            if log and version <= log[-1].version:
                raise ValidationError(
                    f"log version {version} does not follow {log[-1].version}"
                )
            log.append(LogEntry(int(version), record))

    def read_since(self, worker_id: str, version: int) -> "list[LogEntry]":
        with self._lock:
            log = self._logs.get(worker_id, ())
            return [entry for entry in log if entry.version > version]

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"InMemoryCoordinationBackend(workers={len(self._workers)}, "
                f"leases={len(self._leases)}, "
                f"checkpoints={len(self._checkpoints)})"
            )
