"""Supervised shard workers: heartbeats, crash detection, checkpoint failover.

:class:`FabricSupervisor` turns a
:class:`~repro.service.shard.fabric.ShardedPlacementFabric` into a
fault-tolerant serving fabric, whichever
:class:`~repro.service.shard.backend.ShardBackend` its shards run on. Each
shard's :class:`PlacementService` runs under a :class:`ShardWorker` wrapper
— in this process for in-thread shards, inside the child for
out-of-process ones — that

* **write-ahead replicates** — after every commit, *before* the worker
  acknowledges further work, appends what the commit changed to the
  backend's log after the shard's last snapshot, so snapshot + log always
  replay to a byte-exact copy of the last committed ledger;
* **mirrors the lease ledger** — puts and drops the lease ids a commit changed;
* **heartbeats** — at most once per ``heartbeat_interval``, records a TTL'd
  liveness beat and renews its leases; a dead worker stops renewing, so
  its leases drift toward expiry and show up in
  :meth:`FabricSupervisor.stranded_leases`.

The supervisor's :meth:`~FabricSupervisor.monitor` sweep detects dead
workers — a crashed worker (chaos kill, loop crash, dead child process) or
a heartbeat older than the configured TTL — quarantines the shard via
:meth:`~repro.service.shard.fabric.ShardedPlacementFabric.mark_shard_down`
(which re-routes the shard's in-flight requests through surviving shards),
and, when recovery is permitted, hands the replayed replica
(:meth:`~FabricSupervisor.replicated_payload`) to
:meth:`~repro.service.shard.fabric.ShardedPlacementFabric.restore_shard`,
which parses it back into a byte-identical state and brings a fresh service
up on it (a new in-process :class:`PlacementService`, or a respawned child).

Time is injected (``clock``), so tests drive detection, TTL expiry, and
restore ordering deterministically with explicit ``monitor(now=...)``
calls; live serving uses the background monitor thread started by
:meth:`FabricSupervisor.start`.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from dataclasses import dataclass

from repro.service.checkpoint import checkpoint_bytes, delta_bytes
from repro.service.checkpoint import replay, state_from_checkpoint
from repro.service.coord import CoordinationBackend, InMemoryCoordinationBackend
from repro.service.server import PlacementService
from repro.util.errors import TransportError, ValidationError

_log = logging.getLogger(__name__)

#: How often :meth:`FabricSupervisor.replicated_payload` re-reads a snapshot
#: that a compaction replaced mid-read before leaving it to the next sweep.
_REPLICA_READ_ATTEMPTS = 8


@dataclass(frozen=True, slots=True)
class SupervisorConfig:
    """Failure-detection and recovery tunables.

    ``heartbeat_ttl`` is the detection threshold: a worker whose last beat
    is older than this is declared dead. It must exceed ``heartbeat_interval``,
    the most often a healthy worker beats and renews its leases (on its first
    tick or commit once the interval has passed). ``lease_ttl`` only governs
    at-risk reporting, never correctness: a lease whose owner stopped
    renewing is *stranded*, not lost.
    """

    heartbeat_interval: float = 0.2
    heartbeat_ttl: float = 1.0
    lease_ttl: float = 5.0
    monitor_interval: float = 0.25
    auto_restore: bool = True

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ValidationError("heartbeat_interval must be > 0")
        if self.heartbeat_ttl <= self.heartbeat_interval:
            raise ValidationError("heartbeat_ttl must exceed heartbeat_interval")
        if self.lease_ttl <= 0:
            raise ValidationError("lease_ttl must be > 0")
        if self.monitor_interval <= 0:
            raise ValidationError("monitor_interval must be > 0")


@dataclass(frozen=True, slots=True)
class FailoverEvent:
    """One detected worker death and what the supervisor did about it."""

    shard_id: int
    worker_id: str
    reason: str
    detected_at: float
    rerouted: tuple[int, ...] = ()
    restored: bool = False
    incarnation: int = 0


class ShardWorker:
    """Supervision wrapper around one shard's :class:`PlacementService`.

    The worker is the unit of failure: killing it (chaos, crash) fences the
    underlying service so it behaves exactly like a dead process — rejects
    submissions, never steps, never releases — while the wrapper object
    survives to be rebound to the restored service.

    It subscribes to the state's change journal, so a commit costs what it
    changed: the records past the last acknowledged version are appended to
    the backend's log as one delta, and only their lease ids are mirrored.
    A full snapshot (which resets the log) is written instead on ``force``,
    when the journal has a gap or a non-ledger mutation, and when the log
    would outgrow the last snapshot. A failed write keeps the acknowledged
    version and the journal, so the next commit re-sends what was missed.
    """

    #: This worker's beats land in the supervisor's backend, so a stale
    #: heartbeat means it is dead.
    heartbeats = True
    crash_reason = "worker crashed"

    def __init__(
        self,
        shard_id: int,
        service: PlacementService,
        backend: CoordinationBackend,
        config: SupervisorConfig,
        clock,
    ) -> None:
        self.shard_id = shard_id
        self.worker_id = f"shard-{shard_id}"
        self.backend = backend
        self.config = config
        self.clock = clock
        self.incarnation = 0
        #: Chaos hook: zero-arg callable; truthy → the next checkpoint
        #: replication raises (a write fault against the backend).
        self.replication_fault = None
        self.replications = 0
        self.replication_failures = 0
        self._next_beat = float("-inf")
        self._wlock = threading.Lock()
        self.rebind(service)

    def rebind(self, service: PlacementService) -> None:
        """Point the worker at a (restored) service and journal its state."""
        self.service = service
        self.crashed = False
        #: Chaos hook: beats at ``now < suppress_until`` are swallowed,
        #: modeling a GC pause / network partition on the heartbeat path.
        self.suppress_until = float("-inf")
        self._replicated_version = -1
        self._snapshot_bytes = self._log_bytes = 0
        #: Lease ids changed since the last mirror; ``None`` → full resync.
        self._dirty: "set | None" = None
        self._journal = service.state.subscribe()
        self._install_hooks(service)

    # ---------------------------------------------------------------- hooks

    def _install_hooks(self, service: PlacementService) -> None:
        service.fence = self._fence
        service.on_commit = self._on_commit
        service.on_tick = self._on_tick

    def _fence(self) -> bool:
        return not self.crashed

    def _on_commit(self, service: PlacementService) -> None:
        self.sync()

    def sync(self, *, force: bool = False) -> None:
        """Replicate and mirror now; *force* writes a full snapshot, resyncs
        the whole lease ledger and beats whether or not a beat is due."""
        if self.crashed:
            return
        now = float(self.clock())
        self.replicate(now, force=force)
        self.beat(now, force=force)

    def _on_tick(self, service: PlacementService) -> None:
        if self.crashed:
            return
        self.beat(float(self.clock()))

    # ------------------------------------------------------------ liveness

    def enroll(self, now: float) -> bool:
        """Start an incarnation: (re-)register, replicate the state as it
        stands, beat. Returns whether the replication landed."""
        self.incarnation = self.backend.register_worker(
            self.worker_id, self.shard_id, now
        )
        replicated = self.replicate(now, force=True)
        self.beat(now, force=True)
        return replicated

    def beat(self, now: float, *, force: bool = False) -> None:
        """Lease-ledger sync, plus heartbeat and renewal of every lease when
        one is due (once per ``heartbeat_interval``) or *force*d. Skipped
        while chaos-suppressed."""
        if self.crashed or now < self.suppress_until:
            return
        with self._wlock:
            try:
                due = force or now >= self._next_beat
                if due:
                    self.backend.beat(self.worker_id, now)
                self._sync_ledger(now, full=force or self._dirty is None)
                if due:
                    self.backend.renew_leases(
                        self.worker_id, now, self.config.lease_ttl
                    )
                    self._next_beat = now + self.config.heartbeat_interval
            except Exception:
                self._dirty = None
                _log.exception("worker %s heartbeat failed", self.worker_id)

    def _sync_ledger(self, now: float, *, full: bool) -> None:
        """Put or drop the lease ids replicated commits changed; *full* takes
        every id the shard holds or the ledger has under this worker."""
        with self.service._lock:
            state = self.service.state
            changed = set(state.leases) if full else self._dirty
            held = set(filter(state.has_lease, changed))
        if full:
            changed |= {
                rid
                for rid, record in self.backend.leases().items()
                if record.owner == self.worker_id
            }
        for rid in sorted(changed):
            if rid in held:
                self.backend.put_lease(
                    rid, self.worker_id, now, self.config.lease_ttl
                )
            else:  # owner-checked: a lease that moved shards is its new owner's
                self.backend.drop_lease(rid, self.worker_id)
        self._dirty = set()

    # --------------------------------------------------------- replication

    def replicate(self, now: float, *, force: bool = False) -> bool:
        """Write-ahead replicate the shard state if its version advanced.

        Returns whether the backend acknowledged a write. A write fault keeps
        the old replicated version and the journal, so the next commit
        re-sends it — the backend never holds a torn or skipped-over copy.
        """
        with self._wlock:
            with self.service._lock:
                state = self.service.state
                version, pending = state.version, list(self._journal)
                if not (force or pending) and version == self._replicated_version:
                    return False
                delta = None if force else delta_bytes(
                    pending, self._replicated_version, version
                )
                if delta is None or self._log_bytes + len(delta) > self._snapshot_bytes:
                    delta, payload = None, checkpoint_bytes(state).encode("utf-8")
            ids = {record.request_id for record in pending}
            if self._dirty is not None:
                self._dirty = None if None in ids else self._dirty | ids
            if delta is None:  # zeroed until acknowledged: a failure retries it
                self._snapshot_bytes = self._log_bytes = 0
            else:  # counted even if the write fails: it may still have landed
                self._log_bytes += len(delta)
            try:
                fault = self.replication_fault
                if fault is not None and fault():
                    raise IOError("injected checkpoint write fault")
                if delta is None:
                    self.backend.put_checkpoint(self.worker_id, payload)
                else:
                    self.backend.append(self.worker_id, version, delta)
            except Exception:
                self.replication_failures += 1
                _log.warning(
                    "worker %s checkpoint replication failed (version %d "
                    "kept at %d for retry)",
                    self.worker_id, version, self._replicated_version,
                )
                return False
            with self.service._lock:
                del self._journal[: len(pending)]
            if delta is None:
                self._snapshot_bytes = len(payload)
            self._replicated_version = version
            self.replications += 1
            return True

    # ------------------------------------------------------------- failure

    def kill(self) -> None:
        """Simulate a worker crash: fence the service.

        Takes no service lock — a real crash does not politely acquire
        locks first. The fence makes every subsequent service entry point a
        dead end; the scheduler loop keeps turning, and steps it to no
        effect until the fabric quarantines the shard.
        """
        self.crashed = True

    def __repr__(self) -> str:
        return (
            f"ShardWorker(id={self.worker_id!r}, crashed={self.crashed}, "
            f"incarnation={self.incarnation}, replications={self.replications})"
        )


class FabricSupervisor:
    """Monitors shard workers and drives checkpoint-based failover.

    Parameters
    ----------
    fabric:
        The sharded fabric to supervise. Every shard's backend is asked to
        :meth:`~repro.service.shard.backend.ShardBackend.supervise` the
        shard and each worker is enrolled (registered, initial state
        replicated) at construction, so a crash at any later point always
        has a checkpoint to restore from.
    backend:
        The coordination backend (default: a fresh in-memory one). For
        out-of-process shards, a client of the server the children write
        to; without one only process liveness can be judged (no heartbeat
        TTLs, no checkpoint to respawn from).
    config / clock:
        Detection tunables and the time source. Tests inject a fake clock
        and call :meth:`monitor` with explicit ``now`` values. Children beat
        on the wall clock, so watch them with ``time.time``.
    restore_gate:
        Optional ``(shard_id, now) -> bool``; restoration of a dead shard is
        deferred while it returns False (the chaos injector uses this to
        model repair time / MTTR).
    """

    def __init__(
        self,
        fabric,
        backend: "CoordinationBackend | None" = None,
        config: "SupervisorConfig | None" = None,
        *,
        clock=time.monotonic,
        restore_gate=None,
    ) -> None:
        self.fabric = fabric
        self.backend = backend if backend is not None else InMemoryCoordinationBackend()
        self.config = config or SupervisorConfig()
        self.clock = clock
        self.restore_gate = restore_gate
        self.obs = fabric.obs
        self.events: list[FailoverEvent] = []
        self._mlock = threading.Lock()
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None
        self._m_up = self.obs.gauge(
            "repro_fabric_worker_up",
            "1 while the shard's worker is believed alive, 0 while dead.",
            labels=("shard",),
        )
        self._m_hb_age = self.obs.gauge(
            "repro_fabric_heartbeat_age_seconds",
            "Seconds since each worker's last recorded heartbeat.",
            labels=("shard",),
        )
        self._m_replications = self.obs.counter(
            "repro_fabric_checkpoint_replications_total",
            "Write-ahead checkpoint payloads replicated to the backend.",
            labels=("shard",),
        )
        self._m_replication_failures = self.obs.counter(
            "repro_fabric_checkpoint_replication_failures_total",
            "Checkpoint replications that failed and were left for retry.",
            labels=("shard",),
        )
        now = float(self.clock())
        self.workers: list = []
        for shard in fabric.shards:
            worker = shard.backend.supervise(self.backend, self.config, clock)
            if not worker.enroll(now):
                raise ValidationError(
                    f"initial checkpoint replication failed for "
                    f"{worker.worker_id}"
                )
            self._sync_replication_metrics(worker)
            self._m_up.labels(shard=str(shard.shard_id)).set(1)
            self.workers.append(worker)

    # ------------------------------------------------------------- monitor

    def monitor(self, now: "float | None" = None) -> list[FailoverEvent]:
        """One detection + recovery sweep; returns the failover events.

        First the fabric's shared scheduler loop: a turn stuck longer than
        any healthy heartbeat gap (``heartbeat_ttl - heartbeat_interval``)
        would go on to make every in-process shard's heartbeat stale, so the
        shard it is stuck in fails over and a fresh loop takes over the rest
        (:meth:`~repro.service.shard.fabric.ShardedPlacementFabric.revive_scheduler`).
        Then per shard: a crashed worker (a SIGKILLed child shows up within
        one sweep), then the heartbeat TTL (wedged-but-running workers). Also
        retries restoration of shards detected dead earlier whose restore was
        gated (chaos repair time), failed, or had no usable checkpoint yet.
        """
        with self._mlock:
            if now is None:
                now = float(self.clock())
            revived = self.fabric.revive_scheduler(
                self.config.heartbeat_ttl - self.config.heartbeat_interval
            )
            stuck, stuck_rerouted = revived if revived is not None else (None, [])
            down = self.fabric.down_shards
            events: list[FailoverEvent] = []
            for worker in self.workers:
                shard_id = worker.shard_id
                label = str(shard_id)
                # Fold replication counters the worker accumulated since the
                # last sweep into the registry (hooks run on worker threads;
                # counters are folded centrally to keep label churn low).
                self._sync_replication_metrics(worker)
                if shard_id in down and shard_id != stuck:
                    self._m_up.labels(shard=label).set(0)
                    if self._try_restore(worker, now):
                        events.append(
                            FailoverEvent(
                                shard_id=shard_id,
                                worker_id=worker.worker_id,
                                reason="deferred restore",
                                detected_at=now,
                                restored=True,
                                incarnation=worker.incarnation,
                            )
                        )
                    continue
                reason = None
                if shard_id == stuck:
                    reason = "its step or hook stalled the scheduler loop"
                elif worker.crashed:
                    reason = worker.crash_reason
                elif worker.heartbeats:
                    last = self.backend.last_beat(worker.worker_id)
                    age = float("inf") if last is None else max(0.0, now - last)
                    self._m_hb_age.labels(shard=label).set(
                        0.0 if age == float("inf") else age
                    )
                    if age > self.config.heartbeat_ttl:
                        reason = f"heartbeat age {age:.3f}s > ttl {self.config.heartbeat_ttl}s"
                if reason is None:
                    self._m_up.labels(shard=label).set(1)
                    continue
                worker.crashed = True
                rerouted = (
                    stuck_rerouted
                    if shard_id == stuck
                    else self.fabric.mark_shard_down(shard_id, reason=reason)
                )
                self._m_up.labels(shard=label).set(0)
                restored = self._try_restore(worker, now)
                event = FailoverEvent(
                    shard_id=shard_id,
                    worker_id=worker.worker_id,
                    reason=reason,
                    detected_at=now,
                    rerouted=tuple(rerouted),
                    restored=restored,
                    incarnation=worker.incarnation,
                )
                events.append(event)
            self.events.extend(events)
            return events

    def _sync_replication_metrics(self, worker) -> None:
        label = str(worker.shard_id)
        metered = getattr(worker, "_metered", (0, 0))
        done, failed = worker.replications, worker.replication_failures
        if done > metered[0]:
            self._m_replications.labels(shard=label).inc(done - metered[0])
        if failed > metered[1]:
            self._m_replication_failures.labels(shard=label).inc(
                failed - metered[1]
            )
        worker._metered = (done, failed)

    def _try_restore(self, worker, now: float) -> bool:
        if not self.config.auto_restore:
            return False
        gate = self.restore_gate
        if gate is not None and not gate(worker.shard_id, now):
            return False
        return self.restore(worker.shard_id, now=now)

    # ------------------------------------------------------------- restore

    def replicated_payload(self, shard_id: int) -> "bytes | None":
        """The canonical checkpoint bytes the backend holds for *shard_id* —
        its snapshot with the deltas logged since replayed — or ``None``
        before any snapshot. Restore adopts exactly these bytes.

        The snapshot and its log are two backend reads. A compaction landing
        between them (a dying worker's write still in flight) would pair the
        old snapshot with the new one's log, so the snapshot is read again
        after the log and the pair is retried until the snapshot held still.
        """
        worker_id = self.workers[shard_id].worker_id
        snapshot = self.backend.get_checkpoint(worker_id)
        for _ in range(_REPLICA_READ_ATTEMPTS):
            if snapshot is None:
                return None
            state = state_from_checkpoint(json.loads(snapshot))
            log = self.backend.read_since(worker_id, state.version)
            latest = self.backend.get_checkpoint(worker_id)
            if latest == snapshot:
                return checkpoint_bytes(replay(state, log)).encode("utf-8")
            snapshot = latest
        raise TransportError(f"the snapshot of {worker_id} kept moving under a read")

    def restore(self, shard_id: int, now: "float | None" = None) -> bool:
        """Restore a dead shard from its replicated checkpoint.

        Returns False (shard stays quarantined, fabric keeps serving
        degraded) when no checkpoint is available or the replacement worker
        could not be brought up (retried next sweep); raises if the payload
        is corrupt — a torn copy must never be silently adopted.
        """
        if now is None:
            now = float(self.clock())
        worker = self.workers[shard_id]
        try:
            payload = self.replicated_payload(shard_id)
            if payload is None:
                _log.error(
                    "no replicated checkpoint for %s; shard stays down",
                    worker.worker_id,
                )
                return False
            state = self.fabric.restore_shard(shard_id, payload)
        except (TransportError, OSError):
            _log.exception(
                "restore of shard %d failed; will retry next sweep", shard_id
            )
            return False
        worker.enroll(now)
        self._m_up.labels(shard=str(shard_id)).set(1)
        self._m_hb_age.labels(shard=str(shard_id)).set(0.0)
        _log.warning(
            "shard %d restored from replicated checkpoint (incarnation %d, "
            "%d leases)",
            shard_id, worker.incarnation, state.num_leases,
        )
        return True

    # ----------------------------------------------------------- lifecycle

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        """Start the background monitor thread (idempotent)."""
        if self.running:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._monitor_loop, name="fabric-supervisor", daemon=True
        )
        self._thread.start()

    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.config.monitor_interval):
            try:
                self.monitor()
            except Exception:
                # The supervisor must never take the fabric down with it.
                _log.exception("supervisor monitor sweep failed")

    def stop(self) -> None:
        """Stop the monitor thread; workers and hooks stay installed."""
        self._stop.set()
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=5.0)
        self._thread = None

    # -------------------------------------------------------- introspection

    def stranded_leases(self, now: "float | None" = None):
        """Backend lease records whose owner let the TTL lapse (at-risk)."""
        if now is None:
            now = float(self.clock())
        return self.backend.expired_leases(now)

    def verify_consistency(self) -> None:
        """Cross-check the backend's lease ledger against the fabric.

        Every worker is force-synced first (full snapshot, whole-ledger
        resync and beat, so the audit does not wait for the next scheduler
        tick); then every ledger lease owned by a worker must map to a
        fabric lease on that worker's shard, and every fabric-held lease
        must be in the ledger under its shard's worker id. Requires a
        healthy fabric (no shard down) whose workers all write to this
        supervisor's backend.
        """
        down = self.fabric.down_shards
        if down:
            raise ValidationError(
                f"cannot verify ledger with dead shard(s) {sorted(down)}"
            )
        if not all(worker.heartbeats for worker in self.workers):
            raise ValidationError(
                "ledger verification needs workers that share this "
                "supervisor's coordination backend (build proc workers "
                "with coord=)"
            )
        for worker in self.workers:
            worker.sync(force=True)
        ledger = self.backend.leases()
        by_worker = {w.worker_id: w.shard_id for w in self.workers}
        for rid, record in ledger.items():
            shard_id = by_worker.get(record.owner)
            if shard_id is None:
                raise ValidationError(
                    f"ledger lease {rid} owned by unknown worker "
                    f"{record.owner!r}"
                )
            if self.fabric.owner_of(rid) != shard_id:
                raise ValidationError(
                    f"ledger lease {rid} owned by {record.owner!r} but the "
                    f"fabric places it on shard {self.fabric.owner_of(rid)}"
                )
        for worker in self.workers:
            shard = self.fabric.shards[worker.shard_id]
            with shard.backend.lock:
                held = set(shard.state.leases)
            for rid in held:
                record = ledger.get(rid)
                if record is None or record.owner != worker.worker_id:
                    raise ValidationError(
                        f"fabric lease {rid} on shard {worker.shard_id} is "
                        "missing from (or mis-owned in) the backend ledger"
                    )

    def __repr__(self) -> str:
        return (
            f"FabricSupervisor(shards={self.fabric.num_shards}, "
            f"down={sorted(self.fabric.down_shards)}, "
            f"events={len(self.events)}, running={self.running})"
        )
