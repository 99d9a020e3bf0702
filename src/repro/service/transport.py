"""Blocking TCP transport for the placement service (stdlib only).

One request envelope per frame, one response per frame. Every exchange is::

    {"op": "place", "message": {...PlaceRequest fields...}}
    {"op": "release", "message": {...ReleaseRequest fields...}}
    {"op": "stats"}
    {"op": "checkpoint"}
    {"op": "metrics", "format": "prom"}
    {"op": "shards"}
    {"op": "ping"}

Responses are ``{"ok": true, ...payload...}`` or ``{"ok": false, "error": msg}``.
Placement responses embed the terminal decision; the handler thread blocks on
the service ticket while the scheduler loop works, so clients see exactly one
synchronous round trip per request.

Connections open in line JSON. A client that wants the binary codec sends
``{"op": "hello", "codecs": [...]}`` as its first envelope; the server
answers ``{"ok": true, "codec": <pick>}`` and both ends switch — see
:mod:`repro.service.codec`. Peers that never send a hello (every pre-codec
client) stay on line JSON with byte-identical behavior.

:class:`ServiceEndpoint` wraps a :class:`~repro.service.server.PlacementService`
— or a :class:`~repro.service.shard.ShardedPlacementFabric`; the two share the
serving surface, so every op is shard-transparent — behind the shared
threaded substrate (:class:`~repro.service.transports.TcpServerHandle`);
:class:`ServiceClient` is the matching blocking client. Both are deliberately
minimal — the serving intelligence lives in the service, not the wire.
The transport registry hands back these same two classes
(``resolve_transport("thread").serve(...)/.connect(...)``).

Malformed input (truncated frames, oversized payloads, invalid UTF-8, unknown
ops, envelopes of the wrong shape) always produces a typed
``{"ok": false, "error": ...}`` reply on that connection; nothing a client
sends can take down the accept loop.
"""

from __future__ import annotations

import logging
import socket
import socketserver
import threading
import time

from repro.obs.export import render
from repro.service.api import (
    PlaceRequest,
    ReleaseRequest,
    message_from_doc,
    message_to_doc,
)
from repro.service.codec import (
    JsonLineCodec,
    MAX_OP_BYTES,
    SUPPORTED_CODECS,
    choose_codec,
    error_response,
    resolve_codec,
)
from repro.service.server import PlacementService
from repro.service.transports import TcpServerHandle
from repro.util.errors import TransportError, TransportTimeout, ValidationError
from repro.util.retry import TRANSPORT_RETRY, RetryPolicy

_log = logging.getLogger(__name__)

#: How long a handler waits for the scheduler to decide one placement.
DECISION_TIMEOUT = 30.0

#: Default per-operation client socket timeout. Deliberately *above*
#: :data:`DECISION_TIMEOUT` so a healthy-but-slow server answers with its
#: own typed timeout decision before the client tears the connection down;
#: only a truly unresponsive server (dead worker, partition) trips this.
DEFAULT_OP_TIMEOUT = 35.0

#: Hard per-frame byte budget; longer frames are rejected, not parsed.
MAX_LINE_BYTES = MAX_OP_BYTES

#: Ops that are safe to retry on a fresh connection: they carry no
#: state-changing payload, so replaying one can never double-place or
#: double-release.
_READ_ONLY_OPS = frozenset({"ping", "stats", "checkpoint", "shards", "metrics", "hello"})

#: Codec preferences a client accepts.
_CLIENT_CODECS = ("json", "binary", "auto")


# ------------------------------------------------------- envelope dispatch
#
# Shared by the threaded handler here and the asyncio handler in
# :mod:`repro.service.aio`: everything except the *blocking* half of
# ``place`` is transport-independent.


def hello_response(envelope: dict, supported) -> "tuple[dict, str]":
    """Answer a codec-negotiation hello; returns ``(response, chosen)``."""
    chosen = choose_codec(envelope.get("codecs"), supported=tuple(supported))
    return {"ok": True, "codec": chosen, "codecs": list(supported)}, chosen


def _untagged(message) -> dict:
    """A message's document without its ``kind``: the envelope's op names it."""
    doc = message_to_doc(message)
    del doc["kind"]
    return doc


def submit_place(service, envelope: dict):
    """Decode a ``place`` envelope and submit it; returns the ticket."""
    message = message_from_doc(envelope.get("message", {}), "place")
    return message, service.submit(message)


def finish_place(service, message, ticket, decision) -> dict:
    """Turn a ticket outcome into the response envelope (or withdraw)."""
    if decision is None:
        # Withdraw the queued request before giving up — otherwise a
        # later release could place it into a lease no client knows
        # about, consuming capacity forever. If cancellation races
        # with a concurrent placement the ticket is already resolved
        # and the real (placed) decision goes back to the client.
        service.cancel(message.request_id)
        decision = ticket.result(timeout=1.0)
    if decision is None:
        raise ValidationError("placement decision timed out")
    return {"ok": True, "decision": message_to_doc(decision)}


def dispatch_sync(service, envelope: dict) -> dict:
    """Handle every op except ``place``/``hello`` (those need the transport)."""
    op = envelope.get("op")
    if op == "ping":
        return {"ok": True, "pong": True}
    if op == "stats":
        return {"ok": True, "stats": service.stats.to_dict()}
    if op == "checkpoint":
        return {"ok": True, "checkpoint": service.checkpoint_doc()}
    if op == "shards":
        return {"ok": True, "shards": service.describe_shards()}
    if op == "metrics":
        fmt = envelope.get("format", "prom")
        return {"ok": True, "format": fmt, "body": render(service.obs, fmt)}
    if op == "release":
        message = message_from_doc(envelope.get("message", {}), "release")
        return {"ok": True, "release": message_to_doc(service.release(message))}
    raise ValidationError(f"unknown op {op!r}")


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        service: PlacementService = self.server.service  # type: ignore[attr-defined]
        supported = getattr(self.server, "codecs", SUPPORTED_CODECS)
        codec = JsonLineCodec()
        while True:
            switch_to = None
            try:
                envelope = codec.decode_op(self.rfile)
                if envelope is None:
                    return
                if "op" not in envelope:
                    raise ValidationError("envelope must be an object with an 'op'")
                if envelope["op"] == "hello":
                    response, switch_to = hello_response(envelope, supported)
                else:
                    response = self._dispatch(service, envelope)
            except OSError:
                return
            except TransportError as exc:
                # Codec-level failure. Line framing re-syncs at the next
                # newline, so reply and keep going; binary framing cannot,
                # so reply (best effort) and drop the connection.
                if not self._reply(codec, {"ok": False, "error": str(exc)}):
                    return
                if codec.resync_on_error:
                    continue
                return
            except Exception as exc:  # never kill the connection
                response = error_response(exc)
            if not self._reply(codec, response):
                return
            if switch_to is not None:
                codec = resolve_codec(switch_to)

    def _reply(self, codec, response: dict) -> bool:
        try:
            self.wfile.write(codec.encode_op(response))
            self.wfile.flush()
            return True
        except (TransportError, OSError):
            return False  # client went away mid-reply; connection is done

    def _dispatch(self, service: PlacementService, envelope: dict) -> dict:
        if envelope["op"] == "place":
            message, ticket = submit_place(service, envelope)
            decision = ticket.result(timeout=DECISION_TIMEOUT)
            return finish_place(service, message, ticket, decision)
        return dispatch_sync(service, envelope)


class ServiceEndpoint:
    """TCP front end for one :class:`PlacementService`.

    ``port=0`` (the default) binds an ephemeral port; read :attr:`address`
    after :meth:`start`. The underlying service's scheduler loop is started
    and stopped together with the endpoint. ``codecs`` restricts what the
    endpoint will negotiate (default: everything this build speaks).
    """

    def __init__(
        self,
        service: PlacementService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        codecs: "tuple[str, ...]" = SUPPORTED_CODECS,
    ) -> None:
        self.service = service
        self._handle = TcpServerHandle(
            _Handler,
            host=host,
            port=port,
            context={"service": service, "codecs": tuple(codecs)},
            thread_name="placement-endpoint",
        )

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` pair."""
        return self._handle.address

    def start(self) -> "ServiceEndpoint":
        """Start the service scheduler and the accept loop (idempotent)."""
        if not self._handle.running:
            self.service.start()
            self._handle.start()
        return self

    def stop(self, *, drain: bool = True) -> None:
        """Stop accepting connections; optionally drain the service."""
        self._handle.stop()
        if drain:
            self.service.drain()
        else:
            self.service.stop()

    def __enter__(self) -> "ServiceEndpoint":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class ServiceClient:
    """Blocking envelope client for a serving endpoint (any transport).

    Hardened against an unresponsive server: every operation is bounded by
    ``op_timeout`` (one knob, defaulting to :data:`DEFAULT_OP_TIMEOUT`), so
    a dead shard worker surfaces as a typed
    :class:`~repro.util.errors.TransportTimeout` instead of a hung client.
    Connection-level failures raise
    :class:`~repro.util.errors.TransportError`. Read-only operations are
    retried up to ``retries`` times on a fresh connection with
    ``retry_policy`` backoff; mutating operations (``place``, ``release``)
    are never retried automatically — replaying them could double-commit —
    the caller decides, typically by consulting server state first.

    ``codec`` selects the wire format: ``"json"`` (default — no handshake,
    byte-identical to every prior release), ``"binary"`` (negotiate at
    connect; a server that cannot is a :class:`TransportError`), or
    ``"auto"`` (offer binary, fall back to JSON against older servers).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 10.0,
        op_timeout: "float | None" = None,
        retries: int = 0,
        retry_policy: RetryPolicy = TRANSPORT_RETRY,
        codec: str = "json",
    ) -> None:
        if retries < 0:
            raise ValidationError("retries must be >= 0")
        if codec not in _CLIENT_CODECS:
            raise ValidationError(
                f"codec must be one of {_CLIENT_CODECS}, got {codec!r}"
            )
        self._address = (host, port)
        self._connect_timeout = timeout
        self._op_timeout = DEFAULT_OP_TIMEOUT if op_timeout is None else op_timeout
        self._retries = retries
        self._retry_policy = retry_policy
        self._codec_pref = codec
        self._codec = JsonLineCodec()
        self._sock: "socket.socket | None" = None
        self._file = None
        self._connect()

    @property
    def codec(self) -> str:
        """The codec this connection negotiated (``"json"`` or ``"binary"``)."""
        return self._codec.name

    def _connect(self) -> None:
        try:
            self._sock = socket.create_connection(
                self._address, timeout=self._connect_timeout
            )
        except socket.timeout as exc:
            raise TransportTimeout(
                f"connect to {self._address} timed out after "
                f"{self._connect_timeout}s"
            ) from exc
        except OSError as exc:
            raise TransportError(f"cannot connect to {self._address}: {exc}") from exc
        self._sock.settimeout(self._op_timeout)
        self._file = self._sock.makefile("rwb")
        self._codec = JsonLineCodec()
        if self._codec_pref != "json":
            self._negotiate()

    def _negotiate(self) -> None:
        offer = ["binary"] if self._codec_pref == "binary" else list(SUPPORTED_CODECS)
        try:
            response = self._call_once({"op": "hello", "codecs": offer})
        except ValidationError as exc:
            # A pre-codec server answers hello with a typed unknown-op error
            # on a healthy connection: fall back (auto) or refuse (binary).
            if self._codec_pref == "auto":
                return
            self._teardown()
            raise TransportError(
                f"server at {self._address} does not support codec "
                f"negotiation: {exc}"
            ) from exc
        chosen = response.get("codec", "json")
        if self._codec_pref == "binary" and chosen != "binary":
            self._teardown()
            raise TransportError(
                f"server at {self._address} negotiated {chosen!r}, "
                "binary required"
            )
        self._codec = resolve_codec(chosen)

    def _teardown(self) -> None:
        # After a timeout or connection error the stream is desynchronized
        # (a late reply would answer the wrong call); drop the connection.
        try:
            if self._file is not None:
                self._file.close()
        except OSError:
            pass
        try:
            if self._sock is not None:
                self._sock.close()
        except OSError:
            pass
        self._file = None
        self._sock = None

    def request(self, envelope: dict) -> dict:
        """One envelope round trip — the :class:`Connection` protocol surface.

        Applies the same retry discipline as the typed helpers: read-only
        ops may retry on a fresh (re-negotiated) connection, mutations never.
        """
        return self._call(envelope)

    def _call(self, envelope: dict) -> dict:
        retryable = envelope.get("op") in _READ_ONLY_OPS
        attempts = 1 + (self._retries if retryable else 0)
        last_exc: "Exception | None" = None
        for attempt in range(1, attempts + 1):
            if self._file is None:
                try:
                    self._connect()
                except TransportError as exc:
                    last_exc = exc
                    if attempt < attempts:
                        time.sleep(self._retry_policy.delay(attempt))
                        continue
                    raise
            try:
                return self._call_once(envelope)
            except (TransportTimeout, TransportError) as exc:
                last_exc = exc
                self._teardown()
                if attempt < attempts:
                    _log.warning(
                        "retrying %s after transport failure (%s), attempt "
                        "%d/%d", envelope.get("op"), exc, attempt, attempts,
                    )
                    time.sleep(self._retry_policy.delay(attempt))
                    continue
                raise
        raise last_exc  # unreachable; keeps the control flow obvious

    def _call_once(self, envelope: dict) -> dict:
        try:
            self._file.write(self._codec.encode_op(envelope))
            self._file.flush()
            response = self._codec.decode_op(self._file)
        except socket.timeout as exc:
            raise TransportTimeout(
                f"op {envelope.get('op')!r} timed out after "
                f"{self._op_timeout}s"
            ) from exc
        except OSError as exc:
            raise TransportError(
                f"connection to {self._address} failed: {exc}"
            ) from exc
        if response is None:
            raise TransportError("server closed the connection")
        if not response.get("ok"):
            raise ValidationError(response.get("error", "unknown server error"))
        return response

    def ping(self) -> bool:
        return bool(self._call({"op": "ping"}).get("pong"))

    def place(self, request: PlaceRequest):
        """Submit a placement and block for its terminal decision."""
        response = self._call({"op": "place", "message": _untagged(request)})
        return message_from_doc(response["decision"], "decision")

    def release(self, request_id: int):
        """Release a lease by id."""
        message = _untagged(ReleaseRequest(request_id=request_id))
        response = self._call({"op": "release", "message": message})
        return message_from_doc(response["release"], "release_response")

    def stats(self) -> dict:
        return self._call({"op": "stats"})["stats"]

    def checkpoint(self) -> dict:
        """Fetch the server's live checkpoint document."""
        return self._call({"op": "checkpoint"})["checkpoint"]

    def shards(self) -> list:
        """Per-shard summaries (a one-entry list for an unsharded service)."""
        return self._call({"op": "shards"})["shards"]

    def metrics(self, format: str = "prom") -> str:
        """Scrape the server's metrics registry.

        ``format`` is ``"prom"`` (Prometheus exposition text) or ``"json"``
        (one JSON document per metric family, newline-delimited).
        """
        return self._call({"op": "metrics", "format": format})["body"]

    def close(self) -> None:
        self._teardown()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
