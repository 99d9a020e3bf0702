"""The one internal link: a version-checked hello, then binary envelopes.

The serving protocol (:mod:`repro.service.transport`) faces clients this
package does not ship, so it opens in line JSON and negotiates. The links
*behind* the fabric — parent ↔ shard worker (cmd and events channels) and
anyone ↔ coordination server — have the same installed package on both
ends, so they negotiate nothing. Every such link is a :class:`Channel`:

1. **hello** — each end sends one length-prefixed line-JSON frame naming
   the protocol, its version and the sender's role (plus, for a spawned
   worker, the spawn token). A wrong name, version, role or token closes
   the connection with a typed error before any op flows; a peer of another
   protocol version is refused here, never misread.
2. **envelopes** — after the hellos both ends speak
   :class:`~repro.service.codec.BinaryCodec` frames: ``{"op": ...}``
   requests, ``{"ok": true, ...}`` / ``{"ok": false, "error": msg}``
   replies. ``bytes`` values embed natively, so a checkpoint payload is an
   ordinary value in the document and crosses the link byte for byte.

Hello frame layout (lengths are ASCII decimals)::

    <json-length>\\n<json-bytes>\\n

Malformed input (oversized, truncated, non-numeric prefix, invalid JSON, bad
magic) raises :class:`~repro.util.errors.TransportError`; declared lengths
are checked against the byte budgets before anything is allocated. A clean
EOF between frames reads as ``None`` so shutdown is distinguishable from
corruption.
"""

from __future__ import annotations

import contextlib
import json
import logging
import socket

from repro.service.codec import (
    BinaryCodec,
    error_response,
    parse_json_envelope,
    read_op,
)
from repro.util.errors import RemoteOpError, ReproError, TransportError, ValidationError

_log = logging.getLogger(__name__)

#: Protocol identity carried in every hello frame. Version 2: ops are always
#: binary envelopes (version 1 negotiated a codec and framed blobs apart).
PROTOCOL_NAME = "repro-wire"
PROTOCOL_VERSION = 2

#: Hard byte budget for one hello frame's JSON document.
MAX_JSON_BYTES = 1 << 20
#: Hard byte budget for one op envelope: a 64 MiB checkpoint payload with
#: a full-size document around it.
MAX_ENVELOPE_BYTES = MAX_JSON_BYTES + (64 << 20)
#: Longest accepted length-prefix line (decimal digits + newline).
_MAX_PREFIX = 16
#: How long either end waits for the other's hello.
HELLO_TIMEOUT = 10.0

#: The codec of every op envelope on every internal link.
ENVELOPE_CODEC = BinaryCodec(max_bytes=MAX_ENVELOPE_BYTES)


def write_frame(wfile, doc: dict) -> None:
    """Write one hello-style frame: *doc* as length-prefixed compact JSON."""
    payload = json.dumps(doc, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_JSON_BYTES:
        raise TransportError(
            f"frame of {len(payload)} bytes exceeds {MAX_JSON_BYTES}"
        )
    wfile.write(b"%d\n" % len(payload))
    wfile.write(payload)
    wfile.write(b"\n")
    wfile.flush()


def _read_exact(rfile, n: int) -> bytes:
    data = rfile.read(n)
    if data is None or len(data) != n:
        raise TransportError(
            f"truncated frame: wanted {n} bytes, got {0 if not data else len(data)}"
        )
    return data


def read_frame(rfile) -> "dict | None":
    """Read one hello-style frame; ``None`` on clean EOF."""
    prefix = rfile.readline(_MAX_PREFIX)
    if not prefix:
        return None
    if not prefix.endswith(b"\n"):
        raise TransportError(f"oversized or unterminated length prefix {prefix!r}")
    try:
        length = int(prefix)
    except ValueError as exc:
        raise TransportError(f"non-numeric length prefix {prefix!r}") from exc
    if not 0 <= length <= MAX_JSON_BYTES:
        raise TransportError(f"frame length {length} outside [0, {MAX_JSON_BYTES}]")
    payload = _read_exact(rfile, length)
    if _read_exact(rfile, 1) != b"\n":
        raise TransportError("frame payload not newline-terminated")
    return parse_json_envelope(payload)


# ---------------------------------------------------------------- handshake

def send_hello(wfile, role: str, **extra) -> None:
    """Open a connection: announce protocol name/version and our *role*."""
    write_frame(
        wfile,
        {"proto": PROTOCOL_NAME, "v": PROTOCOL_VERSION, "role": role, **extra},
    )


def expect_hello(rfile, role: "str | None" = None) -> dict:
    """Read and validate the peer's hello; returns the full hello document.

    Raises :class:`TransportError` on EOF, protocol-name mismatch, version
    mismatch, or (when *role* is given) an unexpected peer role.
    """
    doc = read_frame(rfile)
    if doc is None:
        raise TransportError("connection closed before hello")
    if doc.get("proto") != PROTOCOL_NAME:
        raise TransportError(f"unexpected protocol {doc.get('proto')!r}")
    if doc.get("v") != PROTOCOL_VERSION:
        raise TransportError(
            f"protocol version mismatch: peer speaks {doc.get('v')!r}, "
            f"this end speaks {PROTOCOL_VERSION}"
        )
    if role is not None and doc.get("role") != role:
        raise TransportError(
            f"expected peer role {role!r}, got {doc.get('role')!r}"
        )
    return doc


# ------------------------------------------------------------------ channel

class Channel:
    """One established internal link — the only code that reads or writes one.

    Build with :meth:`dial` or :meth:`adopt`; ``peer`` is the other end's
    hello document. One side then drives :meth:`call`, the other answers
    from :meth:`serve`. Every failure of the link itself — socket error,
    timeout, EOF mid-exchange, a frame that does not parse — is a
    :class:`TransportError`; a :class:`RemoteOpError` alone means the link
    still works. Not thread-safe: callers serialize :meth:`call`.
    """

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.peer: dict = {}
        self._serving = False
        if sock.family != socket.AF_UNIX:
            # Tiny request/reply frames: Nagle + delayed ACK would add
            # ~40 ms per round trip.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._rfile, self._wfile = sock.makefile("rb"), sock.makefile("wb")
        self._decoder = ENVELOPE_CODEC.decoder()

    @classmethod
    def dial(
        cls, addr, role: str, peer_role: str, timeout: float = HELLO_TIMEOUT, **extra
    ) -> "Channel":
        """Connect to *addr* as *role* (hello fields *extra*), expecting the
        answering end to be *peer_role*; both bounded by *timeout*."""
        try:
            sock = socket.create_connection(addr, timeout=timeout)
        except OSError as exc:
            raise TransportError(f"cannot reach {addr[0]}:{addr[1]}: {exc}") from exc
        channel = cls(sock)
        with channel._hello():
            send_hello(channel._wfile, role, **extra)
            channel.peer = expect_hello(channel._rfile, peer_role)
        return channel

    @classmethod
    def adopt(
        cls,
        sock: socket.socket,
        role: str,
        peer_roles,
        token: "str | None" = None,
    ) -> "Channel":
        """Take over an accepted *sock*: the dialer must introduce itself as
        one of *peer_roles* — holding *token*, when one is required — before
        it is answered as *role*. Anyone else is hung up on."""
        sock.settimeout(HELLO_TIMEOUT)
        channel = cls(sock)
        with channel._hello():
            channel.peer = expect_hello(channel._rfile)
            if channel.peer.get("role") not in peer_roles:
                raise TransportError(
                    f"unexpected peer role {channel.peer.get('role')!r}"
                )
            if token is not None and channel.peer.get("token") != token:
                raise TransportError("peer does not hold the spawn token")
            send_hello(channel._wfile, role)
        return channel

    @contextlib.contextmanager
    def _hello(self):
        """Fail closed: a hello that goes wrong closes the link, typed."""
        try:
            yield
        except (OSError, TransportError) as exc:
            self.close()
            raise TransportError(f"hello failed: {exc}") from exc

    def _io(self, action, *args):
        """Run one socket action; whatever the link does wrong is typed."""
        try:
            return action(*args)
        except (OSError, ValueError) as exc:  # ValueError: closed under us
            raise TransportError(f"link lost: {exc}") from exc

    def send(self, doc: dict) -> None:
        """Write one envelope (the only writer on an internal link)."""
        self._io(self._wfile.write, ENVELOPE_CODEC.encode_op(doc))
        self._io(self._wfile.flush)

    def recv(self) -> "dict | None":
        """Read one envelope (the only reader); ``None`` on clean EOF."""
        return self._io(read_op, self._rfile, self._decoder)

    def call(self, doc: dict, timeout: "float | None" = None) -> dict:
        """One request/reply exchange, each socket wait bounded by *timeout*."""
        self._io(self.sock.settimeout, timeout)
        self.send(doc)
        reply = self.recv()
        if reply is None:
            raise TransportError("peer closed the connection mid-exchange")
        if not reply.get("ok"):
            raise RemoteOpError(
                f"op {doc.get('op')!r} failed: {reply.get('error', 'unknown error')}"
            )
        return reply

    def serve(self, ops: dict) -> None:
        """Answer requests from the name → handler table *ops* until EOF or
        :meth:`stop`. A handler takes the request document and returns the
        reply's payload fields (or ``None``). An unknown op or whatever a
        handler raises becomes an error reply (:func:`~repro.service.codec.
        error_response`) and the loop goes on; a broken link raises
        :class:`TransportError`."""
        self._io(self.sock.settimeout, None)
        self._serving = True
        while self._serving:
            doc = self.recv()
            if doc is None:
                return
            op = doc.get("op")
            handler = ops.get(op) if isinstance(op, str) else None
            try:
                if handler is None:
                    raise ValidationError(f"unknown op {op!r}")
                reply = {"ok": True, **(handler(doc) or {})}
            except Exception as exc:
                if not isinstance(exc, ReproError):
                    _log.exception("op %r failed", op)
                reply = error_response(exc)
            self.send(reply)

    def stop(self) -> None:
        """Make :meth:`serve` return once the current reply is written."""
        self._serving = False

    def close(self) -> None:
        for closable in (self._rfile, self._wfile, self.sock):
            with contextlib.suppress(OSError):
                closable.close()
