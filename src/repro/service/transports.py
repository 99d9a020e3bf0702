"""The pluggable transport/codec API for the serving surface.

Serving used to be one hardwired stack: ``ServiceEndpoint`` (a
``ThreadingTCPServer`` speaking line JSON) and ``ServiceClient`` (a blocking
socket speaking the same). This module splits that stack along its two real
seams so each half can vary independently:

* a :class:`Codec` owns *how one envelope becomes bytes* — line JSON or the
  binary framing from :mod:`repro.service.codec` — and is negotiated per
  connection at the hello exchange, so mixed fleets interoperate;
* a :class:`Transport` owns *how bytes move and who runs the handlers* —
  ``serve()`` binds a listener around a service, ``connect()`` dials one
  and returns a :class:`Connection` whose ``request()`` performs one
  envelope round trip.

Two transports ship: ``"thread"`` (the hardened thread-per-connection
stack, now codec-aware) and ``"aio"`` (:mod:`repro.service.aio` — one
asyncio loop multiplexing every connection, bounded write buffers,
cross-connection admission batching). They serve the same envelope
protocol, so any client speaks to either; pick with
:func:`resolve_transport` or the CLI's ``--transport`` flag.

``ServiceEndpoint(service)`` and ``ServiceClient(host, port)`` *are* the
objects the thread transport hands back; constructing one directly is the
same thing as asking the registry for it.

:class:`TcpServerHandle` is the shared threaded-serving substrate: every
blocking TCP listener in the package (placement endpoint, coordination
server) delegates its socketserver lifecycle — bind, accept-loop thread,
shutdown join — to one implementation instead of three copies.
"""

from __future__ import annotations

import socketserver
import threading
from typing import Protocol, runtime_checkable

from repro.util.errors import ValidationError

__all__ = [
    "Codec",
    "Connection",
    "ServerHandle",
    "TcpServerHandle",
    "Transport",
    "TRANSPORTS",
    "resolve_transport",
]


# ------------------------------------------------------------ protocol pair


@runtime_checkable
class Codec(Protocol):
    """How one envelope becomes bytes (and back). See :mod:`repro.service.codec`."""

    name: str

    def encode_op(self, doc: dict) -> bytes:
        """Serialize one envelope to its on-wire frame."""

    def decode_op(self, rfile) -> "dict | None":
        """Blocking read of one envelope from a file object; ``None`` at EOF."""

    def decoder(self):
        """A sans-IO incremental decoder (``feed(bytes)`` / ``next_op()``)."""


@runtime_checkable
class Connection(Protocol):
    """One dialed connection to a serving endpoint."""

    def request(self, envelope: dict) -> dict:
        """One envelope round trip; raises typed transport errors."""

    def close(self) -> None: ...


@runtime_checkable
class ServerHandle(Protocol):
    """A bound, startable serving endpoint."""

    @property
    def address(self) -> "tuple[str, int]": ...

    def start(self): ...

    def stop(self, *, drain: bool = True) -> None: ...


@runtime_checkable
class Transport(Protocol):
    """A way to move envelopes: binds servers, dials connections."""

    name: str

    def serve(self, service, *, host: str = "127.0.0.1", port: int = 0, **options) -> ServerHandle:
        """Bind a serving endpoint around *service* (not yet started)."""

    def connect(self, host: str, port: int, **options) -> Connection:
        """Dial a serving endpoint; negotiates the codec per *options*."""


# ------------------------------------------------- shared threaded substrate


class _ThreadingServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class TcpServerHandle:
    """Lifecycle of one threaded TCP listener: bind, serve-loop thread, stop.

    *context* entries become attributes on the underlying server object, the
    conventional way ``socketserver`` handlers reach shared state
    (``self.server.service``, ``self.server.backend`` …).
    """

    def __init__(
        self,
        handler_cls,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        context: "dict | None" = None,
        thread_name: str = "tcp-server",
        poll_interval: float = 0.5,
    ) -> None:
        self._server = _ThreadingServer((host, port), handler_cls)
        for key, value in (context or {}).items():
            setattr(self._server, key, value)
        self._thread: "threading.Thread | None" = None
        self._thread_name = thread_name
        self._poll_interval = poll_interval

    @property
    def address(self) -> "tuple[str, int]":
        return self._server.server_address[:2]

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "TcpServerHandle":
        if not self.running:
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                kwargs={"poll_interval": self._poll_interval},
                name=self._thread_name,
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


# ----------------------------------------------------- concrete transports


class ThreadTransport:
    """Thread-per-connection serving — the hardened original stack."""

    name = "thread"

    def serve(self, service, *, host: str = "127.0.0.1", port: int = 0, **options):
        from repro.service.transport import ServiceEndpoint

        return ServiceEndpoint(service, host=host, port=port, **options)

    def connect(self, host: str, port: int, **options):
        from repro.service.transport import ServiceClient

        return ServiceClient(host, port, **options)


class AioTransport:
    """Single-threaded asyncio serving — one loop multiplexes every client.

    Clients are transport-agnostic (the envelope protocol is identical), so
    ``connect()`` returns the same blocking client the thread transport
    uses; only ``serve()`` differs.
    """

    name = "aio"

    def serve(self, service, *, host: str = "127.0.0.1", port: int = 0, **options):
        from repro.service.aio import AioServiceEndpoint

        return AioServiceEndpoint(service, host=host, port=port, **options)

    connect = ThreadTransport.connect


#: Transport registry keyed by CLI-facing name.
TRANSPORTS: dict[str, type] = {
    "thread": ThreadTransport,
    "aio": AioTransport,
}


def resolve_transport(transport) -> Transport:
    """Map a transport name (or pass through an instance) to a transport."""
    if isinstance(transport, (ThreadTransport, AioTransport)):
        return transport
    factory = TRANSPORTS.get(str(transport))
    if factory is None:
        raise ValidationError(
            f"unknown transport {transport!r}; expected one of {sorted(TRANSPORTS)}"
        )
    return factory()
