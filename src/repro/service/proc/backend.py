"""ProcBackend: one shard's service in a spawned child process.

The out-of-process :class:`~repro.service.shard.backend.ShardBackend`. The
shard's :class:`~repro.service.server.PlacementService` runs in a child
(:mod:`repro.service.proc.worker`) and the parent keeps only a **mirror**
:class:`~repro.service.state.ClusterState` for the fabric's router to
score. The mirror changes only by :func:`~repro.service.checkpoint.replay`
of the child's journal records (every commit, in-batch transfers included)
and by restore, so it is byte-identical to the child's state as far as the
records reached (the backend conformance suite asserts it).

Wire discipline per worker (:class:`ProcWorkerHandle`): a **cmd** link
driven request/reply under a lock, and an **events** link a dedicated
thread long-polls for decisions and the records that commit them — both
:class:`~repro.service.wire.Channel` links, opened by a version-checked hello
carrying the spawn nonce. A batch's records replay before its decisions are
delivered; a release reply carries a copy of the records the stream has
yet to send, and the version alone orders the two channels. Records that
cannot apply latch the handle dead, as a lost link does. Submissions carry
the fabric's attempt token; the child echoes it on the decision event and
a decision whose token no longer matches is not delivered.

Start-up and shutdown are side by side: a backend *launches* its child when
constructed (listener plus ``process.start()``) and *connects* to it
(both channels, ``init``, the events thread) only in :meth:`ProcBackend.
connect`, which the fabric calls once every shard's child is launched, so
the children import at the same time. The fabric closes every backend at
once too. A child launched but never connected is killed and reaped by
``close``.
"""

from __future__ import annotations

import functools
import json
import logging
import multiprocessing
import os
import socket
import threading
import time

from repro.obs.registry import ensure_registry
from repro.service.api import (
    DecisionStatus,
    PlacementDecision,
    ReleaseResponse,
    message_from_doc,
    message_to_doc,
)
from repro.service.checkpoint import checkpoint_bytes, replay
from repro.service.coord import LogEntry
from repro.service.proc.worker import POLICY_REGISTRY, worker_main
from repro.service.server import ServiceConfig
from repro.service.state import ClusterState
from repro.service.supervisor import SupervisorConfig
from repro.service.wire import Channel
from repro.util.errors import RemoteOpError, ReproError, TransportError, ValidationError

_log = logging.getLogger(__name__)

#: How long connecting waits for a launched child to dial back both channels.
SPAWN_TIMEOUT = 30.0
#: Default cmd-channel RPC deadline.
DEFAULT_RPC_TIMEOUT = 30.0

_CHANNEL_ROLES = ("worker-cmd", "worker-events")


class ProcWorkerHandle:
    """Parent-side handle for one spawned shard worker.

    Owns the child process, the cmd connection (request/reply under a
    lock), and the events thread that long-polls batches into *on_batch*.
    ``dead`` latches on a lost link or a batch that cannot apply; the
    supervisor turns that into a failover.
    """

    def __init__(self, shard_id: int, on_batch, obs=None) -> None:
        self.shard_id = shard_id
        self.worker_id = f"shard-{shard_id}"
        self.token = os.urandom(12).hex()
        self.process = None
        self.pid: "int | None" = None
        self.dead = False
        self._on_batch = on_batch
        #: Open from :meth:`launch` until :meth:`connect` (or :meth:`close`).
        self._listener: "socket.socket | None" = None
        self._cmd: "Channel | None" = None
        self._evt: "Channel | None" = None
        self._cmd_lock = threading.Lock()
        self._stop_events = threading.Event()
        self._events_thread: "threading.Thread | None" = None
        obs = ensure_registry(obs)
        self._m_rpcs = obs.counter(
            "repro_proc_rpc_total",
            "Worker RPCs issued over the proc workers' cmd channels.",
            labels=("op",),
        )
        self._m_rpc_failures = obs.counter(
            "repro_proc_rpc_failures_total",
            "Worker RPCs that failed (connection loss or op error).",
            labels=("op",),
        )
        self._m_rpc_latency = obs.histogram(
            "repro_proc_rpc_seconds",
            "Worker RPC round-trip latency on the cmd channel.",
        )
        #: op → pre-resolved ``repro_proc_rpc_total`` cell (``labels()``
        #: rebuilds a key tuple per call; the op set is small and fixed).
        self._rpc_cells: dict = {}

    @property
    def alive(self) -> bool:
        return (
            not self.dead
            and self.process is not None
            and self.process.is_alive()
        )

    @property
    def exitcode(self) -> "int | None":
        return None if self.process is None else self.process.exitcode

    # ------------------------------------------------------------ lifecycle

    def launch(self) -> None:
        """Start the child; it dials back to a listener kept for
        :meth:`connect`, so other children can start while it imports."""
        listener = socket.create_server(("127.0.0.1", 0), backlog=4)
        try:
            host, port = listener.getsockname()[:2]
            spec = {
                "host": host,
                "port": port,
                "token": self.token,
                "shard_id": self.shard_id,
                "worker_id": self.worker_id,
            }
            self.process = multiprocessing.get_context("spawn").Process(
                target=worker_main,
                args=(spec,),
                name=f"repro-worker-{self.shard_id}",
                daemon=True,
            )
            self.process.start()
        except BaseException:
            listener.close()
            raise
        self._listener = listener

    def connect(self, init_doc: dict, payload: bytes) -> None:
        """Wait for the launched child's channels, initialize its state and
        start the events thread."""
        listener, self._listener = self._listener, None
        with listener:
            channels = self._accept_channels(listener)
        self._cmd = channels["worker-cmd"]
        self._evt = channels["worker-events"]
        reply = self.call({"op": "init", **init_doc, "state": payload})
        self.pid = int(reply.get("pid", self.process.pid or -1))
        self._stop_events.clear()
        self._events_thread = threading.Thread(
            target=self._event_loop,
            name=f"fabric-events-{self.shard_id}",
            daemon=True,
        )
        self._events_thread.start()

    def _accept_channels(self, listener) -> dict:
        """Accept until both of this child's channels have said hello."""
        deadline = time.monotonic() + SPAWN_TIMEOUT
        channels: dict = {}
        try:
            while len(channels) < len(_CHANNEL_ROLES):
                listener.settimeout(max(0.0, deadline - time.monotonic()))
                try:
                    sock, _ = listener.accept()
                except OSError as exc:  # includes the timeout
                    missing = sorted(set(_CHANNEL_ROLES) - set(channels))
                    raise TransportError(
                        f"spawned worker never connected its {missing} "
                        f"channel(s): {exc}"
                    ) from exc
                try:
                    # The token must be this handle's spawn nonce: anyone
                    # else who finds the ephemeral port is hung up on.
                    channel = Channel.adopt(
                        sock, "fabric", _CHANNEL_ROLES, token=self.token
                    )
                except TransportError:
                    continue
                channels[channel.peer["role"]] = channel
        except BaseException:
            for channel in channels.values():
                channel.close()
            raise
        return channels

    def call(self, doc: dict, timeout: float = DEFAULT_RPC_TIMEOUT) -> dict:
        """One cmd-channel RPC; marks the handle dead on connection loss."""
        op = str(doc.get("op"))
        started = time.monotonic()
        with self._cmd_lock:
            if self._cmd is None or self.dead:
                raise TransportError(
                    f"worker {self.worker_id} has no live cmd channel"
                )
            try:
                reply = self._cmd.call(doc, timeout)
            except TransportError as exc:
                # A rejected op came back over a healthy link; anything
                # else means the link (and with it the worker) is gone.
                if not isinstance(exc, RemoteOpError):
                    self.dead = True
                self._m_rpc_failures.labels(op=op).inc()
                raise
        cell = self._rpc_cells.get(op)
        if cell is None:
            cell = self._rpc_cells[op] = self._m_rpcs.labels(op=op)
        cell.inc()
        self._m_rpc_latency.observe(time.monotonic() - started)
        return reply

    def _event_loop(self) -> None:
        while not self._stop_events.is_set():
            try:
                reply = self._evt.call({"op": "poll", "timeout": 0.25}, 10.0)
                self._on_batch(reply)
            except Exception as exc:  # a lost link, or records that cannot apply
                if not isinstance(exc, TransportError):
                    _log.exception("shard %d records failed to apply", self.shard_id)
                self.dead = True
                return

    def stop_events(self) -> None:
        self._stop_events.set()
        thread = self._events_thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=5.0)
        self._events_thread = None

    def kill(self) -> None:
        """SIGKILL the child — the real-process analogue of a chaos kill."""
        self.dead = True
        if self.process is not None and self.process.is_alive():
            self.process.kill()

    def close(self, join_timeout: float = 5.0) -> None:
        """Tear down connections and reap the child (escalating to kill).
        A child launched but never connected has nothing to finish: it is
        killed at once."""
        if self._listener is not None:
            self._listener.close()
            self._listener = None
            self.kill()
        self.stop_events()
        for channel in (self._cmd, self._evt):
            if channel is not None:
                channel.close()
        self._cmd = self._evt = None
        process = self.process
        if process is not None and process.pid is not None:
            process.join(timeout=join_timeout)
            if process.is_alive():
                process.kill()
                process.join(timeout=join_timeout)

    def __repr__(self) -> str:
        return (
            f"ProcWorkerHandle(shard={self.shard_id}, pid={self.pid}, "
            f"alive={self.alive})"
        )


class ProcBackend:
    """A shard whose service runs in a child process (see module docstring).

    *state* (pristine) becomes the parent-side mirror and its checkpoint the
    child's initial state; *init_doc* is what the child's ``init`` op needs
    besides that (see :func:`proc_backend_factory`); *obs* is the fabric's
    registry, home of the ``repro_proc_*`` series.
    """

    service = None

    def __init__(
        self, shard_id: int, state: ClusterState, *, init_doc: dict, obs=None
    ) -> None:
        self.shard_id = shard_id
        self.state = state
        #: Guards the mirror; notified whenever replayed records advance it.
        self.lock = threading.Condition()
        self._init_doc = init_doc
        self._obs = ensure_registry(obs)
        #: request id → (attempt, on_decision) for every admitted,
        #: not-yet-decided submission.
        self._waiting: dict = {}
        #: Guards ``_waiting`` and ``_capture``.
        self._delivered = threading.Condition()
        #: While a step/drain barrier is open (one at a time): request id →
        #: local decision for every event applied since it opened.
        self._capture: "dict | None" = None
        self._barrier_lock = threading.Lock()
        self._started = False
        label = str(shard_id)
        self._m_worker_up = self._obs.gauge(
            "repro_proc_worker_up",
            "1 while the shard's child process is believed alive, 0 while dead.",
            labels=("shard",),
        ).labels(shard=label)
        self._m_respawns = self._obs.counter(
            "repro_proc_respawns_total",
            "Worker child processes respawned from a replicated checkpoint.",
            labels=("shard",),
        ).labels(shard=label)
        self.handle = self._launch()

    def _launch(self) -> ProcWorkerHandle:
        handle = ProcWorkerHandle(self.shard_id, self._apply_batch, self._obs)
        handle.launch()
        return handle

    def _connect(self, handle: ProcWorkerHandle, payload: bytes) -> None:
        try:
            handle.connect(self._init_doc, payload)
        except BaseException:
            handle.kill()
            handle.close(join_timeout=2.0)
            raise
        self._m_worker_up.set(1)

    def connect(self) -> None:
        """Wait for the child :meth:`__init__` launched and hand it the
        pristine state. The fabric launches every shard's child before it
        connects to any, so the children import side by side."""
        self._connect(self.handle, checkpoint_bytes(self.state).encode("utf-8"))

    # ------------------------------------------------------------- routing view

    @property
    def queued(self) -> int:
        # Admitted and undecided from the parent's side: the child's queue
        # (plus whatever its current step holds), without an RPC.
        return len(self._waiting)

    backlog_hint = queued

    @property
    def transfer_gain(self) -> float:
        reply = self._ask({"op": "stats"}, timeout=5.0)
        return float(reply["stats"].get("transfer_gain", 0.0)) if reply else 0.0

    @property
    def running(self) -> bool:
        return self._started and self.handle.alive

    # ------------------------------------------------------------- submission

    def _ask(self, doc: dict, timeout: float = DEFAULT_RPC_TIMEOUT) -> "dict | None":
        """One RPC's reply, or ``None`` when the worker cannot answer: its
        death is the supervisor's business, the request's fate the fabric's."""
        try:
            return self.handle.call(doc, timeout=timeout)
        except TransportError:
            return None

    def submit(self, request, attempt, on_decision, *, arrival=None) -> bool:
        rid = request.request_id
        # Registered *before* the RPC: a running child can decide and the
        # events thread deliver before the submit reply is even read.
        with self._delivered:
            self._waiting[rid] = (attempt, on_decision)
        doc = {"op": "submit", "request": message_to_doc(request), "attempt": attempt}
        if arrival is not None:
            # Monotonic clocks are per process: the child gets the age.
            doc["waited"] = max(0.0, time.monotonic() - arrival)
        # A dead/dying worker is a decline.
        reply = self._ask(doc)
        admitted = bool(reply and reply.get("admitted"))
        if not admitted:
            with self._delivered:
                entry = self._waiting.get(rid)
                if entry is not None and entry[0] == attempt:
                    del self._waiting[rid]
        return admitted

    def _apply_batch(self, reply: dict) -> None:
        """One events-channel batch: replay its records into the mirror,
        then deliver its decisions. Raises when the records cannot apply."""
        self._replay(reply)
        for event in reply.get("events", ()):
            local = message_from_doc(event["decision"], "decision")
            rid, attempt = local.request_id, int(event.get("attempt", -1))
            with self._delivered:
                entry = self._waiting.get(rid)
                if entry is not None and entry[0] == attempt:
                    del self._waiting[rid]
                else:
                    entry = None  # fenced: nobody waits on this attempt any more
            if entry is not None:
                try:
                    entry[1](local)
                except Exception:
                    _log.exception("shard %d decision callback failed", self.shard_id)
            with self._delivered:
                if self._capture is not None:
                    self._capture[rid] = local
                    self._delivered.notify_all()

    def _replay(self, reply: dict, handle=None) -> None:
        """Replay a reply's records, skipping those the mirror holds. A
        release's copy (*handle* given) first waits for what the events
        stream sent before it; a dead worker's copy is dropped."""
        deadline = time.monotonic() + DEFAULT_RPC_TIMEOUT
        with self.lock:
            if handle is not None:
                while (
                    self.state.version < reply["since"]
                    and not handle.dead
                    and time.monotonic() < deadline
                ):
                    self.lock.wait(0.25)
                if handle.dead:
                    return
            if "delta" in reply:
                replay(self.state, [LogEntry(reply["version"], reply["delta"])])
                self.lock.notify_all()

    def release(self, request) -> ReleaseResponse:
        rid = request.request_id
        handle = self.handle
        reply = self._ask({"op": "release", "request_id": rid})
        if reply is None:
            return ReleaseResponse(
                request_id=rid, status=DecisionStatus.SHARD_UNAVAILABLE
            )
        if "since" in reply:
            try:
                self._replay(reply, handle)
            except ReproError:
                handle.dead = True  # the mirror cannot follow the worker
        return message_from_doc(reply["response"], "release_response")

    def cancel(self, request_id: int) -> bool:
        reply = self._ask({"op": "cancel", "request_id": request_id})
        return bool(reply and reply.get("cancelled"))

    # ------------------------------------------------------------- scheduling

    def _barrier(self, doc: dict, timeout: float) -> "list[PlacementDecision]":
        """Run a deciding op, then wait until every decision it produced
        has been applied to the mirror and delivered — the barrier an
        in-process ``step`` gives for free."""
        with self._barrier_lock:
            with self._delivered:
                self._capture = {}
            try:
                reply = self._ask(doc, timeout)
                if reply is None:
                    return []
                decided = [int(rid) for rid in reply.get("decided", ())]
                deadline = time.monotonic() + DEFAULT_RPC_TIMEOUT
                with self._delivered:
                    while (
                        any(rid not in self._capture for rid in decided)
                        and not self.handle.dead
                        and time.monotonic() < deadline
                    ):
                        self._delivered.wait(0.25)
                    return [
                        self._capture[rid] for rid in decided if rid in self._capture
                    ]
            finally:
                with self._delivered:
                    self._capture = None

    def step(self, now):
        doc = {"op": "step"} if now is None else {"op": "step", "now": now}
        return self._barrier(doc, DEFAULT_RPC_TIMEOUT)

    def start(self) -> None:
        self._started = True
        if self.handle.alive:
            self.handle.call({"op": "start"})

    def stop(self) -> None:
        self._started = False
        self._ask({"op": "stop"})

    def drain(self, timeout: float):
        self._started = False
        return self._barrier(
            {"op": "drain", "timeout": timeout}, timeout + DEFAULT_RPC_TIMEOUT
        )

    # -------------------------------------------------- checkpoint / failover

    def checkpoint_doc(self) -> dict:
        return json.loads(self.handle.call({"op": "checkpoint"})["payload"])

    def verify_state(self) -> None:
        self.state.verify_consistency()
        payload = self.handle.call({"op": "checkpoint"})["payload"]
        if checkpoint_bytes(self.state).encode("utf-8") != payload:
            raise ValidationError(
                f"shard {self.shard_id} mirror is not byte-identical to "
                "the worker's state"
            )

    def quarantine(self) -> None:
        self.handle.kill()
        self.handle.stop_events()
        self._m_worker_up.set(0)

    def restore(self, payload: bytes, state: ClusterState) -> None:
        self.handle.close(join_timeout=2.0)
        # The mirror first: the new child's records follow *payload*.
        with self.lock:
            self.state.restore_state(state.snapshot_state())
        handle = self._launch()
        self._connect(handle, payload)
        if handle.call({"op": "checkpoint"})["payload"] != payload:
            handle.close()
            raise ValidationError(
                f"respawned worker {self.shard_id} state is not "
                "byte-identical to the replicated checkpoint"
            )
        with self._delivered:
            self._waiting.clear()
        self.handle = handle
        self._m_respawns.inc()

    def supervise(self, coord, config, clock) -> "ProcWorkerProxy":
        # Heartbeat TTLs only mean something when the child beats into the
        # coordination server the supervisor reads.
        return ProcWorkerProxy(self, coord, bool(self._init_doc.get("coord")))

    def close(self, timeout: float) -> "int | None":
        handle = self.handle
        handle.stop_events()
        if handle.alive and handle._cmd is not None:
            try:
                reply = handle.call(
                    {"op": "shutdown", "drain": True, "timeout": timeout},
                    timeout=timeout + DEFAULT_RPC_TIMEOUT,
                )
                # Whatever the drain resolved comes back inline — nobody
                # polls the events channel any more.
                self._apply_batch(reply)
            except ReproError:  # a lost link, or records that cannot apply
                pass
        handle.close(join_timeout=timeout)
        return handle.exitcode


class ProcWorkerProxy:
    """What the supervisor (and the chaos injector) sees of one child.

    The real supervision state — heartbeats, write-ahead replication, the
    lease-ledger sync — lives in the child's own
    :class:`~repro.service.supervisor.ShardWorker`; this proxy carries what
    the monitor sweep needs to judge and address the worker from outside.
    ``kill()`` delivers an actual SIGKILL. A parent cannot reach into a
    child's heartbeat loop, so the in-process chaos hooks
    (``suppress_until``, ``replication_fault``) do not exist here.
    """

    #: Replications are counted where they happen, in the child.
    replications = 0
    replication_failures = 0

    def __init__(self, backend: ProcBackend, coord, heartbeats: bool) -> None:
        self._backend = backend
        self._coord = coord
        self._forced = False
        self.shard_id = backend.shard_id
        self.worker_id = backend.handle.worker_id
        self.heartbeats = heartbeats

    @property
    def crashed(self) -> bool:
        return self._forced or not self._backend.handle.alive

    @crashed.setter
    def crashed(self, value: bool) -> None:
        self._forced = bool(value)

    @property
    def crash_reason(self) -> str:
        return f"child process dead (exit code {self._backend.handle.exitcode})"

    @property
    def incarnation(self) -> int:
        """The coordination backend's registration generation for this worker."""
        record = self._coord.workers().get(self.worker_id)
        return 0 if record is None else int(record.incarnation)

    def enroll(self, now: float) -> bool:
        """The child enrolls itself at init; the parent only unlatches."""
        self._forced = False
        return True

    def sync(self, *, force: bool = False) -> None:
        """Replicate + mirror the ledger + beat in the child now (see
        :meth:`~repro.service.supervisor.ShardWorker.sync`)."""
        self._backend.handle.call({"op": "sync", "force": force})

    def kill(self) -> None:
        """SIGKILL the child process — no cleanup, no deregistration."""
        self._forced = True
        self._backend.handle.kill()

    def __repr__(self) -> str:
        return f"ProcWorkerProxy(shard={self.shard_id}, crashed={self.crashed})"


def proc_backend_factory(
    *,
    service_config: ServiceConfig,
    obs=None,
    coord_url: "str | None" = None,
    policy: str = "heuristic",
    supervisor_config: "SupervisorConfig | None" = None,
):
    """The ``backend_factory`` that puts every shard in its own process.

    *coord_url* (``tcp://HOST:PORT``) makes each child register with that
    coordination server, heartbeat on the wall clock, sync its lease ledger
    and write-ahead replicate its checkpoint — what a supervisor needs for
    SIGKILL failover. *policy* is a wire name from
    :data:`~repro.service.proc.worker.POLICY_REGISTRY`; *supervisor_config*
    supplies the lease TTL the child's ledger sync uses.
    """
    if policy not in POLICY_REGISTRY:
        raise ValidationError(
            f"unknown policy {policy!r}; expected one of "
            f"{sorted(POLICY_REGISTRY)}"
        )
    supervisor_config = supervisor_config or SupervisorConfig()
    init_doc = {
        "policy": policy,
        "service": {
            name: getattr(service_config, name)
            for name in ServiceConfig.__dataclass_fields__
        },
        "coord": coord_url,
        "supervisor": {
            name: getattr(supervisor_config, name)
            for name in SupervisorConfig.__dataclass_fields__
        },
    }
    return functools.partial(ProcBackend, init_doc=init_doc, obs=obs)
