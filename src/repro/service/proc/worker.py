"""The shard worker child process: one `PlacementService` behind a wire.

:func:`worker_main` is the spawn entrypoint. The child dials *two*
connections back to its parent-side handle's listener
(:class:`~repro.service.proc.backend.ProcWorkerHandle`) — a **cmd** channel the parent
drives request/reply (submit, release, step, checkpoint, shutdown …) and an
**events** channel the parent long-polls for asynchronous placement
decisions. Both are :class:`~repro.service.wire.Channel` links the child
serves from a name → handler table. Keeping both request/reply (the parent
always writes first) avoids full-duplex framing entirely; the events
channel's ``poll`` op simply blocks server-side until the outbox has
something or the poll times out.

Decisions reach the parent exactly once: a submission the service resolves
*immediately* (queue full, draining, refused, duplicate) is answered
``admitted: false`` so the fabric can spill over synchronously; an
*admitted* submission registers a ticket callback that pushes the eventual
decision — tagged with the attempt token the parent supplied on the wire —
into the outbox for the events channel. The attempt token is the failover
fence: the parent delivers no event whose token no longer matches what it
is waiting for, and the fabric fences a dying shard's late decisions by
the same token whichever backend the shard runs on. Each poll reply also
carries the journal records since the last one, taken *after* its
decisions, as one :func:`~repro.service.checkpoint.delta_bytes` log entry.

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
import sys
import threading
import time

from repro.core.placement.greedy import OnlineHeuristic
from repro.obs import MetricsRegistry
from repro.service.api import ReleaseRequest, message_from_doc, message_to_doc
from repro.service.checkpoint import (
    checkpoint_bytes, delta_bytes, state_from_checkpoint,
)
from repro.service.coord.net import NetworkedCoordinationBackend
from repro.service.server import PlacementService, ServiceConfig
from repro.service.supervisor import ShardWorker, SupervisorConfig
from repro.service.wire import Channel
from repro.util.errors import TransportError, ValidationError

_log = logging.getLogger(__name__)

#: Placement policies a worker can be asked to run, by wire name. The
#: registry keeps arbitrary code off the wire: the parent names a policy,
#: it does not ship one.
POLICY_REGISTRY = {
    "heuristic": OnlineHeuristic,
}


#: Past this many records, a release's copy also nudges the events stream,
#: so decision-free release bursts do not re-encode ever longer copies.
COPY_NUDGE = 8

#: Every op the cmd channel answers (the events channel answers ``poll``);
#: all but the first two need the service ``init`` builds.
CMD_OPS = (
    "ping", "init", "start", "stop", "submit", "release", "cancel", "step",
    "drain", "checkpoint", "stats", "sync", "shutdown",
)


class _Outbox:
    """Thread-safe event queue the events channel long-polls."""

    def __init__(self) -> None:
        self._cv = threading.Condition()
        self._items: list[dict] = []
        self._nudged = False

    def push(self, *events: dict) -> None:
        """Queue *events*; with none, only end the current poll."""
        with self._cv:
            self._items.extend(events)
            self._nudged = True
            self._cv.notify_all()

    def drain(self, timeout: float) -> list[dict]:
        """Wait up to *timeout* for a push; returns (and clears) the batch."""
        with self._cv:
            if not self._nudged:
                self._cv.wait(timeout)
            items, self._items, self._nudged = self._items, [], False
            return items


class WorkerProcess:
    """One shard's serving runtime inside the child process."""

    def __init__(self, spec: dict) -> None:
        self.shard_id = int(spec["shard_id"])
        self.worker_id = str(spec["worker_id"])
        self.token = str(spec["token"])
        self.addr = (str(spec["host"]), int(spec["port"]))
        self.obs = MetricsRegistry()
        self.outbox = _Outbox()
        self.service: "PlacementService | None" = None
        self._journal: list = []  # the events stream's journal reader
        self.backend: "NetworkedCoordinationBackend | None" = None
        self.worker: "ShardWorker | None" = None
        self._attempts: dict[int, int] = {}
        self._alock = threading.Lock()
        self._cmd: "Channel | None" = None
        self._events: "Channel | None" = None

    # ------------------------------------------------------------ plumbing

    def _dial(self, role: str) -> Channel:
        return Channel.dial(
            self.addr, role, "fabric", shard_id=self.shard_id, token=self.token
        )

    def _events_loop(self) -> None:
        """Answer the parent's long-poll requests with outbox batches."""
        try:
            self._events.serve({"poll": self._op_poll})
        except TransportError:
            return  # the parent hung up, or _cleanup closed the link under us

    def _push_decision(self, decision) -> None:
        with self._alock:
            attempt = self._attempts.pop(decision.request_id, -1)
        self.outbox.push({"attempt": attempt, "decision": message_to_doc(decision)})

    # ----------------------------------------------------------------- ops
    #
    # One ``_op_<name>`` handler per op, returning the reply's payload
    # fields; :data:`CMD_OPS` is the cmd channel's whole vocabulary.

    def _handler(self, op: str):
        handler = getattr(self, f"_op_{op}")
        if op in ("ping", "init"):
            return handler

        def after_init(doc: dict):
            if self.service is None:
                raise ValidationError(f"op {op!r} before init")
            return handler(doc)

        return after_init

    def _op_poll(self, doc: dict) -> dict:
        timeout = min(5.0, max(0.0, float(doc.get("timeout", 0.25))))
        events = self.outbox.drain(timeout)  # then the records that commit them
        return {"events": events, **self._records(sent=True)}

    def _records(self, *, sent: bool) -> dict:
        """The records the events stream has yet to send, as one log entry
        from ``since`` to ``version`` (a ``delta`` when there are any);
        *sent* marks them sent. A non-ledger record raises."""
        if self.service is None:
            return {}
        with self.service._lock:
            records, version = self._journal[:], self.service.state.version
            if sent:
                self._journal.clear()
        if not records:
            return {"since": version, "version": version}
        since = records[0].version - 1
        delta = delta_bytes(records, since, version)
        if delta is None:
            raise ValidationError("the journal holds a non-ledger mutation")
        return {"since": since, "version": version, "delta": delta}

    def _op_ping(self, doc: dict) -> dict:
        return {"pid": os.getpid()}

    def _op_init(self, doc: dict) -> dict:
        if self.service is not None:
            raise ValidationError("worker already initialized")
        payload = doc.get("state")
        if not isinstance(payload, bytes):
            raise ValidationError("init requires the state checkpoint as bytes")
        policy_name = str(doc.get("policy", "heuristic"))
        factory = POLICY_REGISTRY.get(policy_name)
        if factory is None:
            raise ValidationError(
                f"unknown policy {policy_name!r}; known: "
                f"{sorted(POLICY_REGISTRY)}"
            )
        state = state_from_checkpoint(json.loads(payload))
        if checkpoint_bytes(state).encode("utf-8") != payload:
            raise ValidationError(
                "worker init state does not round-trip to the supplied payload"
            )
        config = ServiceConfig(**doc.get("service", {}))
        self._journal = state.subscribe()
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
        return {"pid": os.getpid()}

    def _op_start(self, doc: dict) -> None:
        self.service.start()

    def _op_stop(self, doc: dict) -> None:
        self.service.stop()

    def _op_submit(self, doc: dict) -> dict:
        request = message_from_doc(doc.get("request"), "place")
        attempt = int(doc["attempt"])
        with self._alock:
            self._attempts[request.request_id] = attempt
        waited = doc.get("waited")
        ticket = self.service.submit(
            request,
            arrival=None if waited is None else time.monotonic() - float(waited),
        )
        decision = ticket.decision
        if ticket.done and decision is not None and not decision.placed:
            # Declined at the door. A placement is no decline: the loop may
            # step the request before this line, and its lease must reach
            # the parent as a decision.
            with self._alock:
                self._attempts.pop(request.request_id, None)
            return {"admitted": False}
        ticket.add_done_callback(self._push_decision)
        return {"admitted": True}

    def _op_release(self, doc: dict) -> dict:
        response = self.service.release(
            ReleaseRequest(request_id=int(doc["request_id"]))
        )
        reply = {"response": message_to_doc(response)}
        if response.released:
            # A copy of what the events stream has yet to send, so the
            # mirror need not wait for the stream (nudged once copies grow).
            reply.update(self._records(sent=False))
            if reply["version"] - reply["since"] > COPY_NUDGE:
                self.outbox.push()
        return reply

    def _op_cancel(self, doc: dict) -> dict:
        return {"cancelled": self.service.cancel(int(doc["request_id"]))}

    def _op_step(self, doc: dict) -> dict:
        now = doc.get("now")
        decisions = self.service.step(None if now is None else float(now))
        return {"decided": [d.request_id for d in decisions]}

    def _op_drain(self, doc: dict) -> dict:
        decisions = self.service.drain(float(doc.get("timeout", 5.0)))
        return {"decided": [d.request_id for d in decisions]}

    def _op_checkpoint(self, doc: dict) -> dict:
        with self.service._lock:
            return {"payload": checkpoint_bytes(self.service.state).encode("utf-8")}

    def _op_stats(self, doc: dict) -> dict:
        return {"stats": self.service.stats.to_dict()}

    def _op_sync(self, doc: dict) -> None:
        # Force a replication + heartbeat/ledger sync right now — used by
        # audits that must not wait for the next scheduler tick.
        if self.worker is not None:
            self.worker.sync(force=bool(doc.get("force", False)))

    def _op_shutdown(self, doc: dict) -> dict:
        if bool(doc.get("drain", True)):
            self.service.drain(float(doc.get("timeout", 5.0)))
        else:
            self.service.stop()
        self._cmd.stop()
        # Whatever the drain resolved, and its records, are handed back
        # inline — the parent has already stopped polling the events channel.
        events = self.outbox.drain(0.0)
        return {"events": events, **self._records(sent=True)}

    # ----------------------------------------------------------------- run

    def run(self) -> int:
        signal.signal(signal.SIGTERM, _sigterm)
        self._cmd = self._dial("worker-cmd")
        self._events = self._dial("worker-events")
        threading.Thread(
            target=self._events_loop,
            name=f"worker-{self.shard_id}-events",
            daemon=True,
        ).start()
        try:
            self._cmd.serve({op: self._handler(op) for op in CMD_OPS})
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
        for channel in (self._cmd, self._events):
            if channel is not None:
                channel.close()


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
