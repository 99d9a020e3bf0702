"""The serving protocol, its thread-per-connection endpoint and the client.

One request envelope per frame, one response per frame. Every exchange is::

    {"op": "place", "message": {...PlaceRequest fields...}}
    {"op": "release", "message": {...ReleaseRequest fields...}}
    {"op": "stats"}
    {"op": "checkpoint"}
    {"op": "metrics", "format": "prom"}
    {"op": "shards"}
    {"op": "ping"}

Responses are ``{"ok": true, ...payload...}`` or ``{"ok": false, "error": msg}``.
Connections open in line JSON. A client that wants the binary codec sends
``{"op": "hello", "codecs": [...]}``; the server answers
``{"ok": true, "codec": <pick>}`` and both ends switch — see
:mod:`repro.service.codec`. Peers that never send a hello (every pre-codec
client) stay on line JSON with byte-identical behavior.

All of that is :class:`ServingSession`, sans IO and written once; an endpoint
only moves bytes in and replies out and decides how to wait for a placement.
:class:`ServiceEndpoint` is the threaded one — a handler thread per
connection blocks on the service ticket, so clients see exactly one
synchronous round trip per request — around a
:class:`~repro.service.server.PlacementService` or a
:class:`~repro.service.shard.ShardedPlacementFabric` (the two share the
serving surface, so every op is shard-transparent); :mod:`repro.service.aio`
is the other. :class:`ServiceClient` is the blocking client for both.

Malformed input (truncated frames, oversized payloads, invalid UTF-8, unknown
ops, envelopes of the wrong shape) always produces a typed
``{"ok": false, "error": ...}`` reply on that connection — best effort when
the peer has already half-closed mid-frame; nothing a client sends can take
down the accept loop.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import socket
import socketserver
import time

from repro.obs.export import render
from repro.service.api import (
    PlaceRequest,
    ReleaseRequest,
    message_from_doc,
    message_to_doc,
)
from repro.service.codec import (
    SUPPORTED_CODECS,
    choose_codec,
    error_response,
    read_op,
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

#: Ops that are safe to retry on a fresh connection: they carry no
#: state-changing payload, so replaying one can never double-place or
#: double-release.
_READ_ONLY_OPS = frozenset({"ping", "stats", "checkpoint", "shards", "metrics", "hello"})

#: Codec preferences a client accepts.
_CLIENT_CODECS = ("json", "binary", "auto")


def _untagged(message) -> dict:
    """A message's document without its ``kind``: the envelope's op names it."""
    doc = message_to_doc(message)
    del doc["kind"]
    return doc


# ------------------------------------------------------ the serving protocol


def _speaking(codec: str, decoder=None) -> tuple:
    """``(codec, decoder)`` for a stream that speaks *codec* from here on.
    What the old *decoder* had read past its last frame is already in the
    new codec, so the new decoder starts with it."""
    codec = resolve_codec(codec)
    fresh = codec.decoder()
    if decoder is not None:
        fresh.feed(decoder.take_buffered())
    return codec, fresh


def _hello(session, envelope: dict) -> dict:
    """Codec negotiation: answer with the pick and read in it from here on."""
    chosen = choose_codec(envelope.get("codecs"), supported=session.codecs)
    if chosen != session.codec.name:
        session.codec, session.decoder = _speaking(chosen, session.decoder)
    return {"ok": True, "codec": chosen, "codecs": list(session.codecs)}


def _metrics(session, envelope: dict) -> dict:
    fmt = envelope.get("format", "prom")
    return {"ok": True, "format": fmt, "body": render(session.service.obs, fmt)}


def _release(session, envelope: dict) -> dict:
    message = message_from_doc(envelope.get("message", {}), "release")
    return {"ok": True, "release": message_to_doc(session.service.release(message))}


#: The serving vocabulary: op → ``handler(session, envelope)``. A handler
#: returns the reply envelope — or, for ``place`` alone, the decoded
#: :class:`PlaceRequest`, which only the driver knows how to wait on.
SERVING_OPS = {
    "hello": _hello,
    "ping": lambda session, envelope: {"ok": True, "pong": True},
    "stats": lambda session, envelope: {
        "ok": True, "stats": session.service.stats.to_dict()
    },
    "checkpoint": lambda session, envelope: {
        "ok": True, "checkpoint": session.service.checkpoint_doc()
    },
    "shards": lambda session, envelope: {
        "ok": True, "shards": session.service.describe_shards()
    },
    "metrics": _metrics,
    "release": _release,
    "place": lambda session, envelope: message_from_doc(
        envelope.get("message", {}), "place"
    ),
}


def decision_reply(decision) -> dict:
    """The reply to a ``place``: its terminal decision (``None``: there was
    none in time, and the request has been withdrawn)."""
    if decision is None:
        return {"ok": False, "error": "placement decision timed out"}
    return {"ok": True, "decision": message_to_doc(decision)}


class ServingSession:
    """One client connection's side of the serving protocol, sans IO.

    Both endpoints drive one of these per connection and know nothing else
    about the protocol: bytes go into :attr:`decoder`, and each
    :meth:`next` answers one envelope as ``(codec, reply)`` — *reply*
    encoded with the codec its request arrived in, so a ``hello`` is
    answered in the old codec while the session already reads the new one.
    """

    def __init__(self, service, codecs: "tuple[str, ...]" = SUPPORTED_CODECS) -> None:
        self.service = service
        self.codecs = tuple(codecs)
        self.codec, self.decoder = _speaking("json")
        #: Cleared when the stream cannot go on: a frame error under a
        #: framing that cannot re-sync (or the driver's writer failing).
        self.open = True

    def next(self, pull):
        """Answer the next envelope ``pull(decoder)`` yields.

        Returns ``None`` when *pull* has none (it returns ``None``), else
        ``(codec, reply)``; *reply* is a :class:`PlaceRequest` when the
        driver must submit it and answer with :func:`decision_reply`. A
        :class:`TransportError` out of *pull* is answered typed; line
        framing re-syncs at the next newline and goes on, binary framing
        cannot, so the session closes behind that reply.
        """
        codec = self.codec
        try:
            envelope = pull(self.decoder)
        except TransportError as exc:
            self.open = codec.resync_on_error
            return codec, {"ok": False, "error": str(exc)}
        if envelope is None:
            return None
        try:
            if "op" not in envelope:
                raise ValidationError("envelope must be an object with an 'op'")
            op = envelope["op"]
            handler = SERVING_OPS.get(op) if isinstance(op, str) else None
            if handler is None:
                raise ValidationError(f"unknown op {op!r}")
            return codec, handler(self, envelope)
        except Exception as exc:  # never kill the connection
            return codec, error_response(exc)


class _Handler(socketserver.StreamRequestHandler):
    """Thread-per-connection driver: read, answer, write, one op at a time."""

    def handle(self) -> None:
        server = self.server
        session = ServingSession(server.service, server.codecs)  # type: ignore[attr-defined]
        pull = functools.partial(read_op, self.rfile)
        try:
            while session.open:
                answer = session.next(pull)
                if answer is None:
                    return
                codec, reply = answer
                if isinstance(reply, PlaceRequest):
                    reply = self._place(session.service, reply)
                self.wfile.write(codec.encode_op(reply))
                self.wfile.flush()
        except (TransportError, OSError):
            return  # the client went away, or a reply outgrew the frame budget

    def _place(self, service, message: PlaceRequest) -> dict:
        try:
            ticket = service.submit(message)
            decision = ticket.result(timeout=DECISION_TIMEOUT)
            if decision is None:
                # Withdraw the queued request before giving up — otherwise a
                # later release could place it into a lease no client knows
                # about, consuming capacity forever. If cancellation races
                # with a concurrent placement the ticket is already resolved
                # and the real (placed) decision goes back to the client.
                service.cancel(message.request_id)
                decision = ticket.result(timeout=1.0)
            return decision_reply(decision)
        except Exception as exc:
            return error_response(exc)


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
        self._codec, self._decoder = _speaking("json")
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
        self._codec, self._decoder = _speaking(chosen, self._decoder)

    def _teardown(self) -> None:
        # After a timeout or connection error the stream is desynchronized
        # (a late reply would answer the wrong call); drop the connection.
        for closable in (self._file, self._sock):
            if closable is not None:
                with contextlib.suppress(OSError):
                    closable.close()
        self._file = self._sock = None

    def request(self, envelope: dict) -> dict:
        """One envelope round trip, under the retry discipline every typed
        helper below goes through: read-only ops may retry on a fresh
        (re-negotiated) connection, mutations never."""
        retryable = envelope.get("op") in _READ_ONLY_OPS
        attempts = 1 + (self._retries if retryable else 0)
        for attempt in range(1, attempts + 1):
            try:
                if self._file is None:
                    self._connect()
                return self._call_once(envelope)
            except TransportError as exc:
                self._teardown()
                if attempt == attempts:
                    raise
                _log.warning(
                    "retrying %s after transport failure (%s), attempt "
                    "%d/%d", envelope.get("op"), exc, attempt, attempts,
                )
                time.sleep(self._retry_policy.delay(attempt))

    def _call_once(self, envelope: dict) -> dict:
        try:
            self._file.write(self._codec.encode_op(envelope))
            self._file.flush()
            response = read_op(self._file, self._decoder)
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
        return bool(self.request({"op": "ping"}).get("pong"))

    def place(self, request: PlaceRequest):
        """Submit a placement and block for its terminal decision."""
        response = self.request({"op": "place", "message": _untagged(request)})
        return message_from_doc(response["decision"], "decision")

    def release(self, request_id: int):
        """Release a lease by id."""
        message = _untagged(ReleaseRequest(request_id=request_id))
        response = self.request({"op": "release", "message": message})
        return message_from_doc(response["release"], "release_response")

    def stats(self) -> dict:
        return self.request({"op": "stats"})["stats"]

    def checkpoint(self) -> dict:
        """Fetch the server's live checkpoint document."""
        return self.request({"op": "checkpoint"})["checkpoint"]

    def shards(self) -> list:
        """Per-shard summaries (a one-entry list for an unsharded service)."""
        return self.request({"op": "shards"})["shards"]

    def metrics(self, format: str = "prom") -> str:
        """Scrape the server's metrics registry.

        ``format`` is ``"prom"`` (Prometheus exposition text) or ``"json"``
        (one JSON document per metric family, newline-delimited).
        """
        return self.request({"op": "metrics", "format": format})["body"]

    def close(self) -> None:
        self._teardown()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
