"""Transport registry and the shared threaded-listener substrate.

Serving varies along two seams. A *codec* (:mod:`repro.service.codec`) owns
how one envelope becomes bytes and is negotiated per connection at the hello
exchange, so mixed fleets interoperate. A :class:`Transport` owns how bytes
move and who runs the handlers: ``serve()`` binds an endpoint around a
service, ``connect()`` dials one. Two are registered: ``"thread"`` (one
handler thread per connection, :mod:`repro.service.transport`) and ``"aio"``
(one asyncio loop multiplexing every connection, :mod:`repro.service.aio`).
Both endpoints drive the same :class:`~repro.service.transport.
ServingSession`, so any client speaks to either; pick with
:func:`resolve_transport` or the CLI's ``--transport`` flag.

:class:`TcpServerHandle` is the shared threaded-serving substrate: every
blocking TCP listener in the package (placement endpoint, coordination
server) delegates its socketserver lifecycle — bind, accept-loop thread,
shutdown join — to one implementation instead of three copies.
"""

from __future__ import annotations

import importlib
import socketserver
import threading

from repro.util.errors import ValidationError

__all__ = ["TcpServerHandle", "Transport", "TRANSPORTS", "resolve_transport"]


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


# --------------------------------------------------------------- transports


class Transport:
    """A named way to serve envelopes: *endpoint* (``"module:class"``,
    imported on first use) binds servers; every transport dials with the
    same blocking client, because the envelope protocol is one."""

    def __init__(self, name: str, endpoint: str) -> None:
        self.name = name
        self._endpoint = endpoint

    def serve(self, service, *, host: str = "127.0.0.1", port: int = 0, **options):
        """Bind a serving endpoint around *service* (not yet started)."""
        module, _, cls = self._endpoint.partition(":")
        endpoint = getattr(importlib.import_module(module), cls)
        return endpoint(service, host=host, port=port, **options)

    def connect(self, host: str, port: int, **options):
        """Dial a serving endpoint; negotiates the codec per *options*."""
        from repro.service.transport import ServiceClient

        return ServiceClient(host, port, **options)


#: Transport registry keyed by CLI-facing name.
TRANSPORTS: "dict[str, Transport]" = {
    "thread": Transport("thread", "repro.service.transport:ServiceEndpoint"),
    "aio": Transport("aio", "repro.service.aio:AioServiceEndpoint"),
}


def resolve_transport(transport) -> Transport:
    """Map a transport name (or pass through an instance) to a transport."""
    if isinstance(transport, Transport):
        return transport
    found = TRANSPORTS.get(str(transport))
    if found is None:
        raise ValidationError(
            f"unknown transport {transport!r}; expected one of {sorted(TRANSPORTS)}"
        )
    return found
