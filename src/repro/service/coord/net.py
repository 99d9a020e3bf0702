"""Networked coordination: a TCP coordination server and its client backend.

This is the redis-style half of the coordination story. The in-memory
backend in :mod:`repro.service.coord` is authoritative *inside* one
process; :class:`CoordinationServer` wraps that same implementation behind
a TCP listener whose every connection is a :class:`repro.service.wire.
Channel`, and :class:`NetworkedCoordinationBackend` is a drop-in
:class:`~repro.service.coord.CoordinationBackend` whose every method is one
RPC against that server. Because both sides delegate to the reference
implementation, the conformance suite runs identically over either backend
— the wire adds transport, not semantics.

Design points:

* **one op per protocol method** — the RPC vocabulary is exactly the
  :class:`CoordinationBackend` surface (``register``, ``beat``,
  ``put_lease`` …), one entry each in the server's op table, so there is no
  translation layer to drift. The server coerces every argument it
  receives; records go out as their dataclass fields.
* **checkpoints are ``bytes`` values** — ``put_checkpoint``/
  ``get_checkpoint`` (snapshots) and ``append``/``read_since`` (the delta
  log) carry their payloads as native ``bytes`` values of the binary
  envelope, never as text, which preserves the byte-identity recovery
  invariant with zero re-encoding.
* **caller-supplied clocks survive the wire** — timestamps are floats in
  the document; the server still never reads a clock. Cross-process
  callers must therefore share a comparable clock (proc workers use
  ``time.time()``).
* **client reconnects** — the client holds one persistent connection under
  a lock and transparently redials once when the link breaks, so a
  coordination server restart does not take the fabric down with it. An op
  the server *rejects* (:class:`~repro.util.errors.RemoteOpError`) arrived
  over a healthy link and is surfaced without a redial.

Metrics (on the client, where the latency is felt): ``repro_coord_rpc_total
{op}``, ``repro_coord_rpc_failures_total{op}`` and
``repro_coord_rpc_seconds``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import socketserver
import threading
import time

from repro.obs import ensure_registry
from repro.service.coord import (
    InMemoryCoordinationBackend,
    LeaseRecord,
    LogEntry,
    WorkerRecord,
)
from repro.service.transports import TcpServerHandle
from repro.service.wire import Channel
from repro.util.errors import RemoteOpError, TransportError, ValidationError

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


def _payload(value) -> bytes:
    if not isinstance(value, bytes):
        raise TypeError("must be bytes")
    return value


#: The server's whole vocabulary: op → the :class:`CoordinationBackend`
#: method it runs and, per argument that method takes from the request
#: document, what the server coerces the received value to.
_OPS = {
    "register": ("register_worker", {"worker_id": str, "shard_id": int, "now": float}),
    "deregister": ("deregister_worker", {"worker_id": str}),
    "workers": ("workers", {}),
    "beat": ("beat", {"worker_id": str, "now": float}),
    "last_beat": ("last_beat", {"worker_id": str}),
    "put_lease": (
        "put_lease", {"request_id": int, "owner": str, "now": float, "ttl": float}
    ),
    "renew_leases": ("renew_leases", {"owner": str, "now": float, "ttl": float}),
    "drop_lease": ("drop_lease", {"request_id": int, "owner": str}),
    "leases": ("leases", {}),
    "expired_leases": ("expired_leases", {"now": float}),
    "put_checkpoint": ("put_checkpoint", {"worker_id": str, "payload": _payload}),
    "get_checkpoint": ("get_checkpoint", {"worker_id": str}),
    "append": ("append", {"worker_id": str, "version": int, "record": _payload}),
    "read_since": ("read_since", {"worker_id": str, "version": int}),
}


def _argument(op: str, doc: dict, name: str, coerce):
    """One coerced argument of *op*; a missing or wrong-typed one is the
    caller's mistake, answered typed with the op and argument named."""
    try:
        return coerce(doc[name])
    except KeyError:
        raise ValidationError(f"op {op!r} is missing argument {name!r}") from None
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"op {op!r}: bad argument {name!r}: {exc}") from exc


def _coord_ops(backend) -> dict:
    """:data:`_OPS` bound to *backend*: the table ``Channel.serve`` answers
    from. Records go out as their dataclass fields, under ``"result"``."""

    def bind(op: str, method: str, coercions: dict):
        call = getattr(backend, method)

        def handler(doc: dict) -> dict:
            result = call(
                **{
                    name: _argument(op, doc, name, coerce)
                    for name, coerce in coercions.items()
                }
            )
            if isinstance(result, dict):
                result = list(result.values())
            if isinstance(result, list):
                result = [dataclasses.asdict(record) for record in result]
            return {"result": result}

        return handler

    return {"ping": lambda doc: None} | {op: bind(op, *spec) for op, spec in _OPS.items()}


class _CoordHandler(socketserver.BaseRequestHandler):
    """One client connection: hello handshake, then the op table until EOF."""

    def handle(self) -> None:  # noqa: D102 - framework hook
        # A stranger at the hello, or a link that breaks mid-frame, is owed
        # nothing; neither may reach the listener.
        with contextlib.suppress(TransportError):
            channel = Channel.adopt(self.request, "coord-server", ("coord-client",))
            try:
                channel.serve(self.server.ops)  # type: ignore[attr-defined]
            finally:
                channel.close()


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
            context={"ops": _coord_ops(self.backend)},
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

    One persistent :class:`~repro.service.wire.Channel` guarded by a lock; a
    call that finds the link broken redials once before giving up. Every
    protocol method maps to one RPC, and checkpoint payloads travel as
    ``bytes`` values.
    """

    def __init__(
        self,
        host: str,
        port: int,
        connect_timeout: float = 5.0,
        op_timeout: float = 10.0,
        obs=None,
    ) -> None:
        self._addr = (host, port)
        self._connect_timeout = connect_timeout
        self._op_timeout = op_timeout
        self._lock = threading.Lock()
        self._channel: "Channel | None" = None
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

    def _close_locked(self) -> None:
        if self._channel is not None:
            self._channel.close()
            self._channel = None

    def close(self) -> None:
        with self._lock:
            self._close_locked()

    def _rpc(self, op: str, **args):
        """One op's ``result``; see :data:`_OPS` for the vocabulary."""
        started = time.monotonic()
        with self._lock:
            for attempt in (0, 1):
                try:
                    if self._channel is None:
                        self._channel = Channel.dial(
                            self._addr,
                            "coord-client",
                            "coord-server",
                            timeout=self._connect_timeout,
                        )
                    reply = self._channel.call({"op": op, **args}, self._op_timeout)
                except RemoteOpError:
                    # Rejected over a healthy link: nothing to redial.
                    self._m_failures.labels(op=op).inc()
                    raise
                except TransportError:
                    # The link itself failed: drop it, redial exactly once.
                    self._close_locked()
                    if attempt:
                        self._m_failures.labels(op=op).inc()
                        raise
                    continue
                self._m_rpcs.labels(op=op).inc()
                self._m_latency.observe(time.monotonic() - started)
                return reply.get("result")

    # -- worker registry --------------------------------------------------

    def register_worker(self, worker_id: str, shard_id: int, now: float) -> int:
        return int(
            self._rpc("register", worker_id=worker_id, shard_id=shard_id, now=now)
        )

    def deregister_worker(self, worker_id: str) -> None:
        self._rpc("deregister", worker_id=worker_id)

    def workers(self) -> "dict[str, WorkerRecord]":
        records = (WorkerRecord(**doc) for doc in self._rpc("workers"))
        return {record.worker_id: record for record in records}

    # -- heartbeats -------------------------------------------------------

    def beat(self, worker_id: str, now: float) -> None:
        self._rpc("beat", worker_id=worker_id, now=now)

    def last_beat(self, worker_id: str) -> "float | None":
        value = self._rpc("last_beat", worker_id=worker_id)
        return None if value is None else float(value)

    # -- lease ledger -----------------------------------------------------

    def put_lease(self, request_id: int, owner: str, now: float, ttl: float) -> None:
        self._rpc("put_lease", request_id=int(request_id), owner=owner, now=now, ttl=ttl)

    def renew_leases(self, owner: str, now: float, ttl: float) -> int:
        return int(self._rpc("renew_leases", owner=owner, now=now, ttl=ttl))

    def drop_lease(self, request_id: int, owner: str) -> bool:
        return bool(self._rpc("drop_lease", request_id=int(request_id), owner=owner))

    def _lease_records(self, op: str, **args) -> "list[LeaseRecord]":
        return [LeaseRecord(**doc) for doc in self._rpc(op, **args)]

    def leases(self) -> "dict[int, LeaseRecord]":
        return {record.request_id: record for record in self._lease_records("leases")}

    def expired_leases(self, now: float) -> "list[LeaseRecord]":
        return self._lease_records("expired_leases", now=now)

    # -- checkpoint store -------------------------------------------------

    def put_checkpoint(self, worker_id: str, payload: bytes) -> None:
        if not isinstance(payload, bytes):
            raise ValidationError("checkpoint payload must be bytes")
        self._rpc("put_checkpoint", worker_id=worker_id, payload=payload)

    def get_checkpoint(self, worker_id: str) -> "bytes | None":
        return self._rpc("get_checkpoint", worker_id=worker_id)

    def append(self, worker_id: str, version: int, record: bytes) -> None:
        if not isinstance(record, bytes):
            raise ValidationError("log record must be bytes")
        self._rpc("append", worker_id=worker_id, version=int(version), record=record)

    def read_since(self, worker_id: str, version: int) -> "list[LogEntry]":
        docs = self._rpc("read_since", worker_id=worker_id, version=int(version))
        return [LogEntry(**doc) for doc in docs]

    def __repr__(self) -> str:
        host, port = self._addr
        return f"NetworkedCoordinationBackend(tcp://{host}:{port})"
