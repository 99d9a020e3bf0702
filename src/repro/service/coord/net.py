"""Networked coordination: a TCP coordination server and its client backend.

This is the redis-style half of the coordination story. The in-memory
backend in :mod:`repro.service.coord` is authoritative *inside* one
process; :class:`CoordinationServer` wraps that same implementation behind
a TCP listener speaking the :mod:`repro.service.wire` framing, and
:class:`NetworkedCoordinationBackend` is a drop-in
:class:`~repro.service.coord.CoordinationBackend` whose every method is one
RPC against that server. Because both sides delegate to the reference
implementation, the conformance suite runs identically over either backend
— the wire adds transport, not semantics.

Design points:

* **one op per protocol method** — the RPC vocabulary is exactly the
  :class:`CoordinationBackend` surface (``register``, ``beat``,
  ``put_lease`` …), so there is no translation layer to drift.
* **checkpoints ride as blobs** — ``put_checkpoint``/``get_checkpoint``
  carry the payload as the frame's binary blob, never inside JSON, which
  preserves the byte-identity recovery invariant with zero re-encoding.
* **caller-supplied clocks survive the wire** — timestamps are floats in
  the JSON document; the server still never reads a clock. Cross-process
  callers must therefore share a comparable clock (proc workers use
  ``time.time()``).
* **client reconnects** — the client holds one persistent connection under
  a lock and transparently redials once on a broken pipe, so a coordination
  server restart does not take the fabric down with it.

Metrics (on the client, where the latency is felt): ``repro_coord_rpc_total
{op}``, ``repro_coord_rpc_failures_total{op}`` and
``repro_coord_rpc_seconds``.
"""

from __future__ import annotations

import socket
import socketserver
import threading
import time

from repro.obs import ensure_registry
from repro.service import wire
from repro.service.coord import (
    InMemoryCoordinationBackend,
    LeaseRecord,
    WorkerRecord,
)
from repro.service.transports import TcpServerHandle
from repro.util.errors import TransportError, ValidationError

__all__ = [
    "CoordinationServer",
    "NetworkedCoordinationBackend",
    "parse_coord_url",
]


def parse_coord_url(url: str) -> "tuple[str, int]":
    """Parse ``tcp://HOST:PORT`` into ``(host, port)``."""
    if not url.startswith("tcp://"):
        raise ValidationError(
            f"coordination url must look like tcp://HOST:PORT, got {url!r}"
        )
    hostport = url[len("tcp://"):]
    host, sep, port = hostport.rpartition(":")
    if not sep or not host:
        raise ValidationError(
            f"coordination url must look like tcp://HOST:PORT, got {url!r}"
        )
    try:
        return host, int(port)
    except ValueError as exc:
        raise ValidationError(f"invalid coordination port {port!r}") from exc


def _worker_doc(record: WorkerRecord) -> dict:
    return {
        "worker_id": record.worker_id,
        "shard_id": record.shard_id,
        "registered_at": record.registered_at,
        "last_beat": record.last_beat,
        "incarnation": record.incarnation,
    }


def _lease_doc(record: LeaseRecord) -> dict:
    return {
        "request_id": record.request_id,
        "owner": record.owner,
        "granted_at": record.granted_at,
        "expires_at": record.expires_at,
    }


class _CoordHandler(socketserver.StreamRequestHandler):
    """One client connection: hello handshake, then an op loop until EOF."""

    #: RPCs are tiny request/reply frames; Nagle + delayed ACK would add
    #: ~40 ms per round trip.
    disable_nagle_algorithm = True

    def handle(self) -> None:  # noqa: D102 - framework hook
        backend = self.server.backend  # type: ignore[attr-defined]
        try:
            hello = wire.expect_hello(self.rfile, role="coord-client")
            # Hellos are always legacy frames; the codec the client offered
            # (nothing, for pre-codec clients) governs every frame after.
            codec = wire.negotiate_codec(hello)
            wire.send_hello(
                self.wfile,
                role="coord-server",
                codec=codec,
                codecs=wire.offer_codecs(),
            )
        except (TransportError, OSError):
            return
        while True:
            try:
                frame = wire.read_op(self.rfile, codec=codec)
            except (TransportError, OSError):
                return
            if frame is None:
                return
            doc, blob = frame
            try:
                reply, reply_blob = self._dispatch(backend, doc, blob)
            except (ValidationError, TransportError) as exc:
                reply, reply_blob = {"ok": False, "error": str(exc)}, None
            except Exception as exc:  # pragma: no cover - defensive
                reply, reply_blob = {
                    "ok": False,
                    "error": f"internal error: {exc}",
                }, None
            try:
                wire.write_op(self.wfile, reply, reply_blob, codec=codec)
            except (TransportError, OSError):
                return

    def _dispatch(
        self, backend, doc: dict, blob: "bytes | None"
    ) -> "tuple[dict, bytes | None]":
        op = doc.get("op")
        if op == "ping":
            return {"ok": True}, None
        if op == "register":
            incarnation = backend.register_worker(
                str(doc["worker_id"]), int(doc["shard_id"]), float(doc["now"])
            )
            return {"ok": True, "incarnation": incarnation}, None
        if op == "deregister":
            backend.deregister_worker(str(doc["worker_id"]))
            return {"ok": True}, None
        if op == "workers":
            docs = {wid: _worker_doc(r) for wid, r in backend.workers().items()}
            return {"ok": True, "workers": docs}, None
        if op == "beat":
            backend.beat(str(doc["worker_id"]), float(doc["now"]))
            return {"ok": True}, None
        if op == "last_beat":
            return {"ok": True, "last_beat": backend.last_beat(str(doc["worker_id"]))}, None
        if op == "put_lease":
            backend.put_lease(
                int(doc["request_id"]),
                str(doc["owner"]),
                float(doc["now"]),
                float(doc["ttl"]),
            )
            return {"ok": True}, None
        if op == "renew_leases":
            renewed = backend.renew_leases(
                str(doc["owner"]), float(doc["now"]), float(doc["ttl"])
            )
            return {"ok": True, "renewed": renewed}, None
        if op == "drop_lease":
            return {"ok": True, "existed": backend.drop_lease(int(doc["request_id"]))}, None
        if op == "leases":
            docs = {str(rid): _lease_doc(r) for rid, r in backend.leases().items()}
            return {"ok": True, "leases": docs}, None
        if op == "expired_leases":
            docs = [_lease_doc(r) for r in backend.expired_leases(float(doc["now"]))]
            return {"ok": True, "leases": docs}, None
        if op == "put_checkpoint":
            if blob is None:
                raise ValidationError("put_checkpoint requires a payload blob")
            backend.put_checkpoint(str(doc["worker_id"]), blob)
            return {"ok": True}, None
        if op == "get_checkpoint":
            payload = backend.get_checkpoint(str(doc["worker_id"]))
            if payload is None:
                return {"ok": True, "found": False}, None
            return {"ok": True, "found": True}, payload
        raise ValidationError(f"unknown coordination op {op!r}")


class CoordinationServer:
    """A stdlib-TCP coordination service around the in-memory backend.

    The authoritative state is an :class:`InMemoryCoordinationBackend`
    (injectable for tests); connection handling rides the shared threaded
    substrate (:class:`~repro.service.transports.TcpServerHandle`), one
    daemon thread per connection. Use as a context manager or call
    :meth:`start`/:meth:`stop`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        backend: "InMemoryCoordinationBackend | None" = None,
    ) -> None:
        self.backend = backend if backend is not None else InMemoryCoordinationBackend()
        self._handle = TcpServerHandle(
            _CoordHandler,
            host=host,
            port=port,
            context={"backend": self.backend},
            thread_name="coordination-server",
            poll_interval=0.05,
        )

    @property
    def address(self) -> "tuple[str, int]":
        return self._handle.address

    @property
    def url(self) -> str:
        host, port = self.address
        return f"tcp://{host}:{port}"

    def start(self) -> "CoordinationServer":
        self._handle.start()
        return self

    def stop(self) -> None:
        if not self._handle.running:
            return
        self._handle.stop()

    def __enter__(self) -> "CoordinationServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class NetworkedCoordinationBackend:
    """Client-side :class:`CoordinationBackend` speaking to a coordination
    server over TCP.

    One persistent connection guarded by a lock; a send that hits a dead
    socket redials once before giving up. Every protocol method maps to one
    RPC, and checkpoint payloads travel as binary blobs.

    ``codec="auto"`` (default) offers the binary framing at the hello and
    uses whatever the server picks — JSON against pre-codec servers;
    ``codec="json"`` pins the legacy framing and skips the offer entirely.
    """

    def __init__(
        self,
        host: str,
        port: int,
        connect_timeout: float = 5.0,
        op_timeout: float = 10.0,
        obs=None,
        codec: str = "auto",
    ) -> None:
        if codec not in ("auto", "json", "binary"):
            raise ValidationError(
                f"codec must be 'auto', 'json' or 'binary', got {codec!r}"
            )
        self._addr = (host, port)
        self._connect_timeout = connect_timeout
        self._op_timeout = op_timeout
        self._codec_pref = codec
        self._codec: "str | None" = None
        self._lock = threading.Lock()
        self._sock: "socket.socket | None" = None
        self._rfile = None
        self._wfile = None
        registry = ensure_registry(obs)
        self._m_rpcs = registry.counter(
            "repro_coord_rpc_total",
            "Coordination RPCs issued by this client.",
            labels=("op",),
        )
        self._m_failures = registry.counter(
            "repro_coord_rpc_failures_total",
            "Coordination RPCs that failed after reconnect.",
            labels=("op",),
        )
        self._m_latency = registry.histogram(
            "repro_coord_rpc_seconds",
            "Coordination RPC round-trip latency.",
        )

    @classmethod
    def from_url(cls, url: str, **kwargs) -> "NetworkedCoordinationBackend":
        host, port = parse_coord_url(url)
        return cls(host, port, **kwargs)

    # -- connection management --------------------------------------------

    def _connect_locked(self) -> None:
        sock = socket.create_connection(self._addr, timeout=self._connect_timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(self._op_timeout)
        rfile = sock.makefile("rb")
        wfile = sock.makefile("wb")
        try:
            if self._codec_pref == "json":
                wire.send_hello(wfile, role="coord-client")
            else:
                offer = ["binary"] if self._codec_pref == "binary" else wire.offer_codecs()
                wire.send_hello(wfile, role="coord-client", codecs=offer)
            hello = wire.expect_hello(rfile, role="coord-server")
            chosen = hello.get("codec", "json")
            if self._codec_pref == "binary" and chosen != "binary":
                raise TransportError(
                    f"coordination server negotiated {chosen!r}, binary required"
                )
        except Exception:
            sock.close()
            raise
        self._sock, self._rfile, self._wfile = sock, rfile, wfile
        self._codec = chosen

    def _close_locked(self) -> None:
        for closable in (self._rfile, self._wfile, self._sock):
            if closable is not None:
                try:
                    closable.close()
                except OSError:
                    pass
        self._sock = self._rfile = self._wfile = None

    def close(self) -> None:
        with self._lock:
            self._close_locked()

    def _rpc(
        self, doc: dict, blob: "bytes | None" = None
    ) -> "tuple[dict, bytes | None]":
        op = str(doc.get("op"))
        started = time.monotonic()
        with self._lock:
            for attempt in (0, 1):
                if self._sock is None:
                    try:
                        self._connect_locked()
                    except OSError as exc:
                        if attempt:
                            self._m_failures.labels(op=op).inc()
                            raise TransportError(
                                f"cannot reach coordination server at "
                                f"{self._addr[0]}:{self._addr[1]}: {exc}"
                            ) from exc
                        continue
                try:
                    reply = wire.rpc(
                        self._rfile, self._wfile, doc, blob, codec=self._codec
                    )
                    self._m_rpcs.labels(op=op).inc()
                    self._m_latency.observe(time.monotonic() - started)
                    return reply
                except TransportError as exc:
                    # A server-side op rejection arrives as a well-formed
                    # error reply over a healthy connection — surface it
                    # without redialing. Framing-level failures drop the
                    # connection and get one reconnect attempt.
                    if "failed:" in str(exc):
                        self._m_failures.labels(op=op).inc()
                        raise
                    self._close_locked()
                    if attempt:
                        self._m_failures.labels(op=op).inc()
                        raise
                except OSError:
                    self._close_locked()
                    if attempt:
                        self._m_failures.labels(op=op).inc()
                        raise TransportError(
                            f"coordination rpc {op!r} failed: connection lost"
                        )
        raise TransportError(f"coordination rpc {op!r} failed")  # pragma: no cover

    # -- worker registry --------------------------------------------------

    def register_worker(self, worker_id: str, shard_id: int, now: float) -> int:
        reply, _ = self._rpc(
            {"op": "register", "worker_id": worker_id, "shard_id": shard_id, "now": now}
        )
        return int(reply["incarnation"])

    def deregister_worker(self, worker_id: str) -> None:
        self._rpc({"op": "deregister", "worker_id": worker_id})

    def workers(self) -> "dict[str, WorkerRecord]":
        reply, _ = self._rpc({"op": "workers"})
        return {
            wid: WorkerRecord(
                worker_id=doc["worker_id"],
                shard_id=int(doc["shard_id"]),
                registered_at=float(doc["registered_at"]),
                last_beat=float(doc["last_beat"]),
                incarnation=int(doc["incarnation"]),
            )
            for wid, doc in reply["workers"].items()
        }

    # -- heartbeats -------------------------------------------------------

    def beat(self, worker_id: str, now: float) -> None:
        self._rpc({"op": "beat", "worker_id": worker_id, "now": now})

    def last_beat(self, worker_id: str) -> "float | None":
        reply, _ = self._rpc({"op": "last_beat", "worker_id": worker_id})
        value = reply.get("last_beat")
        return None if value is None else float(value)

    # -- lease ledger -----------------------------------------------------

    def put_lease(self, request_id: int, owner: str, now: float, ttl: float) -> None:
        self._rpc(
            {
                "op": "put_lease",
                "request_id": int(request_id),
                "owner": owner,
                "now": now,
                "ttl": ttl,
            }
        )

    def renew_leases(self, owner: str, now: float, ttl: float) -> int:
        reply, _ = self._rpc(
            {"op": "renew_leases", "owner": owner, "now": now, "ttl": ttl}
        )
        return int(reply["renewed"])

    def drop_lease(self, request_id: int) -> bool:
        reply, _ = self._rpc({"op": "drop_lease", "request_id": int(request_id)})
        return bool(reply["existed"])

    def leases(self) -> "dict[int, LeaseRecord]":
        reply, _ = self._rpc({"op": "leases"})
        return {
            int(rid): _lease_from_doc(doc) for rid, doc in reply["leases"].items()
        }

    def expired_leases(self, now: float) -> "list[LeaseRecord]":
        reply, _ = self._rpc({"op": "expired_leases", "now": now})
        return [_lease_from_doc(doc) for doc in reply["leases"]]

    # -- checkpoint store -------------------------------------------------

    def put_checkpoint(self, worker_id: str, payload: bytes) -> None:
        if not isinstance(payload, bytes):
            raise ValidationError("checkpoint payload must be bytes")
        self._rpc({"op": "put_checkpoint", "worker_id": worker_id}, blob=payload)

    def get_checkpoint(self, worker_id: str) -> "bytes | None":
        reply, blob = self._rpc({"op": "get_checkpoint", "worker_id": worker_id})
        if not reply.get("found"):
            return None
        return blob if blob is not None else b""

    def __repr__(self) -> str:
        host, port = self._addr
        return f"NetworkedCoordinationBackend(tcp://{host}:{port})"


def _lease_from_doc(doc: dict) -> LeaseRecord:
    return LeaseRecord(
        request_id=int(doc["request_id"]),
        owner=doc["owner"],
        granted_at=float(doc["granted_at"]),
        expires_at=float(doc["expires_at"]),
    )
