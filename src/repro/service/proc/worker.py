"""The shard worker child process: one `PlacementService` behind a wire.

:func:`worker_main` is the spawn entrypoint. The child dials *two*
connections back to its parent-side handle's listener
(:class:`~repro.service.proc.backend.ProcWorkerHandle`) — a **cmd** channel the parent
drives request/reply (submit, release, step, checkpoint, shutdown …) and an
**events** channel the parent long-polls for asynchronous placement
decisions. Keeping both request/reply (the parent always writes first)
avoids full-duplex framing entirely; the events channel's ``poll`` op simply
blocks server-side until the outbox has something or the poll times out.

Decisions reach the parent exactly once: a submission the service resolves
*immediately* (queue full, draining, refused, duplicate) is returned inline
in the ``submit`` reply so the fabric can spill over synchronously; an
*admitted* submission registers a ticket callback that pushes the eventual
decision — tagged with the attempt token the parent supplied on the wire —
into the outbox for the events channel. The attempt token is the failover
fence: the parent delivers no event whose token no longer matches what it
is waiting for, and the fabric fences a dying shard's late decisions by
the same token whichever backend the shard runs on.

When a coordination backend is configured, the child reuses the existing
:class:`~repro.service.supervisor.ShardWorker` wrapper over a
:class:`~repro.service.coord.net.NetworkedCoordinationBackend`: heartbeats
on every scheduler tick and commit, write-ahead checkpoint replication, and
TTL'd lease-ledger sync — now across a real process boundary, on the wall
clock (``time.time``), since a monotonic clock is not comparable between
processes.

SIGTERM is graceful: the handler raises ``SystemExit`` (interrupting the
blocked cmd read), and the cleanup path drains the service, deregisters
from the backend, and exits 0.
"""

from __future__ import annotations

import json
import logging
import os
import signal
import socket
import sys
import threading
import time

from repro.core.placement.greedy import OnlineHeuristic
from repro.obs import MetricsRegistry, render
from repro.service import wire
from repro.service.api import PlaceRequest, ReleaseRequest
from repro.service.checkpoint import checkpoint_bytes, state_from_checkpoint
from repro.service.coord.net import NetworkedCoordinationBackend
from repro.service.server import PlacementService, ServiceConfig
from repro.service.supervisor import ShardWorker, SupervisorConfig
from repro.util.errors import TransportError, ValidationError

_log = logging.getLogger(__name__)

#: What both ends of the worker wire speak once the (legacy-framed) hellos
#: are through. Parent and child are the same installed package — the child
#: is spawned from it — so there is no other build to negotiate with.
WIRE_CODEC = wire.resolve_wire_codec("binary")

#: Placement policies a worker can be asked to run, by wire name. The
#: registry keeps arbitrary code off the wire: the parent names a policy,
#: it does not ship one.
POLICY_REGISTRY = {
    "heuristic": OnlineHeuristic,
}


class _Outbox:
    """Thread-safe event queue the events channel long-polls."""

    def __init__(self) -> None:
        self._cv = threading.Condition()
        self._items: list[dict] = []

    def push(self, event: dict) -> None:
        with self._cv:
            self._items.append(event)
            self._cv.notify_all()

    def drain(self, timeout: float) -> list[dict]:
        """Wait up to *timeout* for events; returns (and clears) the batch."""
        with self._cv:
            if not self._items:
                self._cv.wait(timeout)
            items, self._items = self._items, []
            return items


def _decision_doc(decision) -> dict:
    doc = {
        "request_id": decision.request_id,
        "status": decision.status,
        "placements": [list(p) for p in decision.placements],
        "center": decision.center,
        "distance": decision.distance,
        "latency": decision.latency,
        "detail": decision.detail,
    }
    if decision.survivability is not None:
        # The achieved-survivability report of a targeted request.
        doc["survivability"] = decision.survivability
    return doc


class WorkerProcess:
    """One shard's serving runtime inside the child process."""

    def __init__(self, spec: dict) -> None:
        self.spec = spec
        self.shard_id = int(spec["shard_id"])
        self.worker_id = str(spec["worker_id"])
        self.token = str(spec["token"])
        self.addr = (str(spec["host"]), int(spec["port"]))
        self.obs = MetricsRegistry()
        self.outbox = _Outbox()
        self.service: "PlacementService | None" = None
        self.backend: "NetworkedCoordinationBackend | None" = None
        self.worker: "ShardWorker | None" = None
        self._running = True
        self._attempts: dict[int, int] = {}
        self._alock = threading.Lock()
        self._cmd = None
        self._events = None

    # ------------------------------------------------------------ plumbing

    def _dial(self, role: str):
        sock = socket.create_connection(self.addr, timeout=10.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(None)
        rfile, wfile = sock.makefile("rb"), sock.makefile("wb")
        wire.send_hello(
            wfile, role=role, shard_id=self.shard_id, token=self.token
        )
        wire.expect_hello(rfile, role="fabric")
        return sock, rfile, wfile

    def _events_loop(self) -> None:
        """Answer the parent's long-poll requests with outbox batches."""
        _, rfile, wfile = self._events
        try:
            while True:
                frame = wire.read_op(rfile, codec=WIRE_CODEC)
                if frame is None:
                    return
                doc, _ = frame
                if doc.get("op") != "poll":
                    wire.write_op(
                        wfile,
                        {"ok": False, "error": "events channel only polls"},
                        codec=WIRE_CODEC,
                    )
                    continue
                timeout = min(5.0, max(0.0, float(doc.get("timeout", 0.25))))
                events = self.outbox.drain(timeout)
                wire.write_op(
                    wfile, {"ok": True, "events": events}, codec=WIRE_CODEC
                )
        except (TransportError, OSError, ValueError):
            # ValueError: _cleanup closed the file objects under us.
            return

    def _push_decision(self, request_id: int):
        def callback(decision) -> None:
            with self._alock:
                attempt = self._attempts.pop(request_id, -1)
            self.outbox.push(
                {
                    "type": "decision",
                    "request_id": request_id,
                    "attempt": attempt,
                    "decision": _decision_doc(decision),
                }
            )

        return callback

    # ----------------------------------------------------------------- ops

    def _op_init(self, doc: dict, blob: "bytes | None"):
        if self.service is not None:
            raise ValidationError("worker already initialized")
        if blob is None:
            raise ValidationError("init requires a state checkpoint blob")
        policy_name = str(doc.get("policy", "heuristic"))
        factory = POLICY_REGISTRY.get(policy_name)
        if factory is None:
            raise ValidationError(
                f"unknown policy {policy_name!r}; known: "
                f"{sorted(POLICY_REGISTRY)}"
            )
        state = state_from_checkpoint(json.loads(blob))
        if checkpoint_bytes(state).encode("utf-8") != blob:
            raise ValidationError(
                "worker init state does not round-trip to the supplied payload"
            )
        config = ServiceConfig(**doc.get("service", {}))
        self.service = PlacementService(
            state, policy=factory(), config=config, obs=self.obs
        )
        coord_url = doc.get("coord")
        if coord_url:
            self.backend = NetworkedCoordinationBackend.from_url(
                str(coord_url), obs=self.obs
            )
            sup_config = SupervisorConfig(**doc.get("supervisor", {}))
            # Reuse the in-process supervision wrapper verbatim: it installs
            # the fence/on_commit/on_tick hooks, write-ahead replicates on
            # every commit, and mirrors the lease ledger — only the backend
            # (networked) and the clock (wall time) differ out-of-process.
            self.worker = ShardWorker(
                self.shard_id,
                self.service,
                self.backend,
                sup_config,
                clock=time.time,
            )
            if not self.worker.enroll(time.time()):
                raise ValidationError(
                    f"initial checkpoint replication failed for {self.worker_id}"
                )
        return {
            "ok": True,
            "pid": os.getpid(),
            "leases": self.service.state.num_leases,
            "incarnation": self.worker.incarnation if self.worker else 0,
        }, None

    def _dispatch(self, doc: dict, blob: "bytes | None"):
        op = doc.get("op")
        if op == "ping":
            return {"ok": True, "pid": os.getpid()}, None
        if op == "init":
            return self._op_init(doc, blob)
        service = self.service
        if service is None:
            raise ValidationError(f"op {op!r} before init")
        if op == "start":
            service.start()
            return {"ok": True}, None
        if op == "stop":
            service.stop()
            return {"ok": True}, None
        if op == "submit":
            request = PlaceRequest(
                demand=tuple(doc["demand"]),
                request_id=int(doc["request_id"]),
                priority=int(doc.get("priority", 0)),
                tag=str(doc.get("tag", "")),
                survivability=doc.get("survivability"),
            )
            attempt = int(doc["attempt"])
            with self._alock:
                self._attempts[request.request_id] = attempt
            ticket = service.submit(request)
            if ticket.done:
                with self._alock:
                    self._attempts.pop(request.request_id, None)
                return {
                    "ok": True,
                    "admitted": False,
                    "decision": _decision_doc(ticket.decision),
                }, None
            ticket.add_done_callback(self._push_decision(request.request_id))
            return {"ok": True, "admitted": True}, None
        if op == "release":
            response = service.release(
                ReleaseRequest(request_id=int(doc["request_id"]))
            )
            return {
                "ok": True,
                "status": response.status,
                "freed_vms": response.freed_vms,
            }, None
        if op == "cancel":
            return {
                "ok": True,
                "cancelled": service.cancel(int(doc["request_id"])),
            }, None
        if op == "step":
            now = doc.get("now")
            decisions = service.step(None if now is None else float(now))
            return {
                "ok": True,
                "decided": [d.request_id for d in decisions],
            }, None
        if op == "drain":
            decisions = service.drain(float(doc.get("timeout", 5.0)))
            return {
                "ok": True,
                "decided": [d.request_id for d in decisions],
            }, None
        if op == "checkpoint":
            with service._lock:
                payload = checkpoint_bytes(service.state).encode("utf-8")
                version = service.state.version
            return {"ok": True, "version": version}, payload
        if op == "stats":
            return {"ok": True, "stats": service.stats.to_dict()}, None
        if op == "metrics":
            fmt = str(doc.get("format", "prometheus"))
            return {"ok": True, "body": render(self.obs, fmt)}, None
        if op == "sync":
            # Force a replication + heartbeat/ledger sync right now — used
            # by audits that must not wait for the next scheduler tick.
            if self.worker is not None:
                self.worker.sync(force=bool(doc.get("force", True)))
            return {"ok": True, "coordinated": self.worker is not None}, None
        if op == "shutdown":
            if bool(doc.get("drain", True)):
                service.drain(float(doc.get("timeout", 5.0)))
            else:
                service.stop()
            self._running = False
            # Whatever the drain resolved is handed back inline — the parent
            # has already stopped polling the events channel by now.
            return {"ok": True, "events": self.outbox.drain(0.0)}, None
        raise ValidationError(f"unknown worker op {op!r}")

    # ----------------------------------------------------------------- run

    def run(self) -> int:
        signal.signal(signal.SIGTERM, _sigterm)
        self._cmd = self._dial("worker-cmd")
        self._events = self._dial("worker-events")
        events_thread = threading.Thread(
            target=self._events_loop,
            name=f"worker-{self.shard_id}-events",
            daemon=True,
        )
        events_thread.start()
        _, rfile, wfile = self._cmd
        try:
            while self._running:
                frame = wire.read_op(rfile, codec=WIRE_CODEC)
                if frame is None:
                    break
                doc, blob = frame
                try:
                    reply, reply_blob = self._dispatch(doc, blob)
                except (ValidationError, TransportError) as exc:
                    reply, reply_blob = {"ok": False, "error": str(exc)}, None
                except Exception as exc:
                    _log.exception("worker op %r failed", doc.get("op"))
                    reply, reply_blob = {
                        "ok": False,
                        "error": f"internal error: {exc}",
                    }, None
                wire.write_op(wfile, reply, reply_blob, codec=WIRE_CODEC)
            return 0
        finally:
            self._cleanup()

    def _cleanup(self) -> None:
        """Graceful exit: drain what we can, deregister, close everything."""
        service, backend = self.service, self.backend
        if service is not None:
            try:
                service.drain(timeout=1.0)
            except Exception:
                _log.exception("worker drain during shutdown failed")
        if backend is not None:
            try:
                backend.deregister_worker(self.worker_id)
            except Exception:
                _log.warning("could not deregister %s", self.worker_id)
            backend.close()
        for conn in (self._cmd, self._events):
            if conn is None:
                continue
            for closable in (conn[1], conn[2], conn[0]):
                try:
                    closable.close()
                except OSError:
                    pass


def _sigterm(signum, frame):  # pragma: no cover - signal path
    raise SystemExit(0)


def worker_main(spec: dict) -> None:
    """Spawn entrypoint: serve one shard until shutdown/EOF/SIGTERM."""
    logging.basicConfig(
        level=logging.WARNING,
        format=f"[worker-{spec.get('shard_id')}] %(levelname)s %(message)s",
    )
    try:
        code = WorkerProcess(spec).run()
    except SystemExit as exc:  # SIGTERM path — cleanup already ran
        code = int(exc.code or 0)
    except (TransportError, OSError) as exc:
        _log.error("worker lost its fabric connection: %s", exc)
        code = 1
    sys.exit(code)
