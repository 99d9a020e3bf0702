"""Envelope codecs: line JSON and binary.

Every link in the package exchanges *envelopes* — small JSON-shaped
dicts (``{"op": ..., "message": {...}}`` requests, ``{"ok": true, ...}``
replies). A codec owns the byte representation of one envelope:

* :class:`JsonLineCodec` — one compact UTF-8 JSON document per ``\\n``
  terminated line. This is the historical serving format; every peer
  understands it, and it remains the default.
* :class:`BinaryCodec` — length-prefixed msgpack-style frames: a one-byte
  magic, a 4-byte big-endian payload length, and a compact tagged binary
  encoding of the envelope. What it buys is typing, not size or speed:
  ``bytes`` values (checkpoint blobs) embed verbatim instead of forcing a
  text round trip, and every value carries its type tag behind a length
  the reader knows before parsing. On the hot ``place``/``decision``/
  ``release`` envelopes its frames are about 1.4–1.7x *larger* than line
  JSON, and this pure-Python encoder/decoder is slower than the C ``json``
  module: about 1.2–1.9x to encode and 2–4x to decode.

On the serving protocol codecs are negotiated, never assumed: a connection
opens in line JSON, the client offers its codecs in the ``hello`` op, and
the server answers with its pick. A peer that never offers — any pre-codec
client — simply stays on line JSON; nothing about the legacy exchange
changed. The internal links (:mod:`repro.service.wire`) negotiate nothing:
past their own hello they always speak :class:`BinaryCodec`.

Each codec encodes with ``encode_op`` and decodes through one sans-IO
incremental ``decoder()`` (``feed`` bytes, ``next_op`` envelopes, ``end`` at
EOF), the only frame parser per codec: the asyncio endpoint drives it from
its reader task, and every blocking reader — the thread endpoint,
``ServiceClient``, ``wire.Channel`` — pumps it with :func:`read_op`. A frame
``encode_op`` refuses is a frame the decoder refuses, and fault behavior
(oversize frames, truncation, garbage) is identical on every transport.
"""

from __future__ import annotations

import json
import struct

from repro.util.errors import ReproError, TransportError, ValidationError

#: Hard byte budget for one encoded envelope (either codec). Matches the
#: serving transport's historical per-line budget.
MAX_OP_BYTES = 1 << 20

#: First byte of every binary frame. Deliberately outside ASCII JSON's
#: starting characters ('{', digits, whitespace) so a peer that was never
#: switched to binary fails fast with a typed error, not a JSON parse of
#: garbage.
BINARY_MAGIC = 0xB1

#: How much :func:`read_op` asks its stream for at a time.
_READ_CHUNK = 1 << 16

# ----------------------------------------------------------- binary packing
#
# msgpack-inspired tag set, reduced to exactly the value shapes JSON
# envelopes use (plus bytes). Not msgpack on the wire — this needs no
# external library and no compatibility promises beyond this package.

_T_NONE = 0xC0
_T_FALSE = 0xC2
_T_TRUE = 0xC3
_T_INT64 = 0xD3  # >q
_T_BIGINT = 0xC7  # >I byte-length + signed big-endian two's complement
_T_FLOAT64 = 0xCB  # >d
_T_STR = 0xDB  # >I byte-length + UTF-8
_T_BYTES = 0xC6  # >I byte-length + raw
_T_LIST = 0xDC  # >I element count
_T_DICT = 0xDF  # >I pair count; keys must be str

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


def pack(obj) -> bytes:
    """Encode one JSON-shaped value (plus ``bytes``) to compact binary.

    Tuples encode as lists, mirroring what a JSON round trip would do, so
    a document decoded from either codec compares equal.
    """
    out = bytearray()
    _pack_into(out, obj)
    return bytes(out)


def _pack_into(out: bytearray, obj) -> None:
    if obj is None:
        out.append(_T_NONE)
    elif obj is True:
        out.append(_T_TRUE)
    elif obj is False:
        out.append(_T_FALSE)
    elif isinstance(obj, int):
        if _INT64_MIN <= obj <= _INT64_MAX:
            out.append(_T_INT64)
            out += struct.pack(">q", obj)
        else:
            raw = obj.to_bytes((obj.bit_length() + 8) // 8, "big", signed=True)
            out.append(_T_BIGINT)
            out += struct.pack(">I", len(raw))
            out += raw
    elif isinstance(obj, float):
        out.append(_T_FLOAT64)
        out += struct.pack(">d", obj)
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        out.append(_T_STR)
        out += struct.pack(">I", len(raw))
        out += raw
    elif isinstance(obj, (bytes, bytearray, memoryview)):
        raw = bytes(obj)
        out.append(_T_BYTES)
        out += struct.pack(">I", len(raw))
        out += raw
    elif isinstance(obj, (list, tuple)):
        out.append(_T_LIST)
        out += struct.pack(">I", len(obj))
        for item in obj:
            _pack_into(out, item)
    elif isinstance(obj, dict):
        out.append(_T_DICT)
        out += struct.pack(">I", len(obj))
        for key, value in obj.items():
            if not isinstance(key, str):
                raise ValidationError(
                    f"binary codec requires str keys, got {type(key).__name__}"
                )
            raw = key.encode("utf-8")
            out.append(_T_STR)
            out += struct.pack(">I", len(raw))
            out += raw
            _pack_into(out, value)
    else:
        raise ValidationError(
            f"binary codec cannot encode {type(obj).__name__} values"
        )


def unpack(data: bytes):
    """Decode one :func:`pack` payload; rejects trailing garbage."""
    obj, offset = _unpack_from(data, 0)
    if offset != len(data):
        raise TransportError(
            f"binary payload has {len(data) - offset} trailing byte(s)"
        )
    return obj


def _need(data: bytes, offset: int, n: int) -> int:
    end = offset + n
    if end > len(data):
        raise TransportError("truncated binary payload")
    return end


def _unpack_from(data: bytes, offset: int):
    end = _need(data, offset, 1)
    tag = data[offset]
    offset = end
    if tag == _T_NONE:
        return None, offset
    if tag == _T_TRUE:
        return True, offset
    if tag == _T_FALSE:
        return False, offset
    if tag == _T_INT64:
        end = _need(data, offset, 8)
        return struct.unpack_from(">q", data, offset)[0], end
    if tag == _T_FLOAT64:
        end = _need(data, offset, 8)
        return struct.unpack_from(">d", data, offset)[0], end
    if tag in (_T_STR, _T_BYTES, _T_BIGINT):
        end = _need(data, offset, 4)
        length = struct.unpack_from(">I", data, offset)[0]
        offset = end
        end = _need(data, offset, length)
        raw = data[offset:end]
        if tag == _T_BYTES:
            return bytes(raw), end
        if tag == _T_BIGINT:
            return int.from_bytes(raw, "big", signed=True), end
        try:
            return raw.decode("utf-8"), end
        except UnicodeDecodeError as exc:
            raise TransportError(f"binary string is not valid UTF-8: {exc}") from exc
    if tag == _T_LIST:
        end = _need(data, offset, 4)
        count = struct.unpack_from(">I", data, offset)[0]
        offset = end
        items = []
        for _ in range(count):
            item, offset = _unpack_from(data, offset)
            items.append(item)
        return items, offset
    if tag == _T_DICT:
        end = _need(data, offset, 4)
        count = struct.unpack_from(">I", data, offset)[0]
        offset = end
        doc = {}
        for _ in range(count):
            key, offset = _unpack_from(data, offset)
            if not isinstance(key, str):
                raise TransportError("binary dict key is not a string")
            doc[key], offset = _unpack_from(data, offset)
        return doc, offset
    raise TransportError(f"unknown binary tag 0x{tag:02X}")


# ----------------------------------------------------------------- decoders
#
# The only code that parses a frame (see the module docstring).


class _Decoder:
    """What the two framings share: the buffer and the end-of-stream rule."""

    def __init__(self, max_bytes: int) -> None:
        self._buf = bytearray()
        self._max = max_bytes

    def feed(self, data: bytes) -> None:
        self._buf += data

    @property
    def buffered(self) -> int:
        return len(self._buf)

    def take_buffered(self) -> bytes:
        """Drain and return undecoded bytes (used across a codec switch)."""
        raw = bytes(self._buf)
        self._buf.clear()
        return raw

    def end(self) -> None:
        """The stream ended: bytes stuck mid-frame are a typed truncation
        (raised once — they are dropped), a frame boundary is a clean EOF."""
        stuck = len(self._buf)
        self._buf.clear()
        if stuck:
            raise TransportError(
                f"truncated frame: stream ended {stuck} byte(s) into one"
            )


class _LineDecoder(_Decoder):
    """Sans-IO incremental decoder for :class:`JsonLineCodec`.

    A line counts against the budget with its terminator, exactly as
    :meth:`JsonLineCodec.encode_op` counts it. An overlong line is discarded
    in bounded memory (never buffered whole): the decoder drops bytes until
    the terminating newline, then raises the oversize error exactly once —
    leaving the stream re-synced at the next frame.
    """

    _discarding = False

    def next_op(self) -> "dict | None":
        """One decoded envelope, or ``None`` until more bytes arrive."""
        while True:
            idx = self._buf.find(b"\n")
            if idx < 0:
                if self._discarding or len(self._buf) >= self._max:
                    self._buf.clear()
                    self._discarding = True
                return None
            raw = bytes(self._buf[:idx])
            del self._buf[: idx + 1]
            if self._discarding or idx >= self._max:
                self._discarding = False
                raise TransportError(f"frame exceeds {self._max} bytes")
            if raw.strip():
                return parse_json_envelope(raw)

    def end(self) -> None:
        if self._discarding:  # the overlong line never ended
            self._discarding = False
            raise TransportError(f"frame exceeds {self._max} bytes")
        super().end()


class _FrameDecoder(_Decoder):
    """Sans-IO incremental decoder for :class:`BinaryCodec`."""

    def next_op(self) -> "dict | None":
        if len(self._buf) < 5:
            return None
        if self._buf[0] != BINARY_MAGIC:
            raise TransportError(
                f"expected binary frame magic 0x{BINARY_MAGIC:02X}, "
                f"got 0x{self._buf[0]:02X}"
            )
        (length,) = struct.unpack_from(">I", self._buf, 1)
        if length > self._max:
            raise TransportError(f"frame of {length} bytes exceeds {self._max}")
        if len(self._buf) < 5 + length:
            return None
        with memoryview(self._buf) as view:  # one copy, not slice-then-bytes
            payload = bytes(view[5 : 5 + length])
        del self._buf[: 5 + length]
        doc = unpack(payload)
        if not isinstance(doc, dict):
            raise TransportError("binary envelope must decode to an object")
        return doc


def read_op(stream, decoder) -> "dict | None":
    """Blocking read of one envelope: pump *stream* into *decoder*.

    *stream* is any buffered binary reader (``read1``); *decoder* persists
    across calls, so bytes read past one frame are the start of the next.
    ``None`` on a clean EOF; an EOF mid-frame is the decoder's truncation
    :class:`TransportError`.
    """
    while True:
        doc = decoder.next_op()
        if doc is not None:
            return doc
        data = stream.read1(_READ_CHUNK)
        if not data:
            return decoder.end()
        decoder.feed(data)


def parse_json_envelope(raw: bytes) -> dict:
    """One JSON envelope from its UTF-8 bytes; anything else is typed."""
    try:
        doc = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise TransportError("frame is not valid UTF-8") from exc
    except json.JSONDecodeError as exc:
        raise TransportError(f"not a valid envelope: {exc}") from exc
    if not isinstance(doc, dict):
        raise TransportError("envelope must be a JSON object")
    return doc


def error_response(exc: Exception) -> dict:
    """The ``{"ok": false}`` reply envelope for whatever serving an op raised:
    this package's own errors by message, anything else as an internal error."""
    if isinstance(exc, ReproError):
        return {"ok": False, "error": str(exc)}
    return {"ok": False, "error": f"internal error: {exc}"}


# ------------------------------------------------------------------- codecs


class JsonLineCodec:
    """Newline-delimited compact JSON — the historical serving format."""

    name = "json"

    #: Line framing re-syncs at every newline, so a decode failure on one
    #: frame leaves the stream usable: servers may reply with a typed error
    #: and keep the connection. Binary framing cannot (no sync marker).
    resync_on_error = True

    def __init__(self, max_bytes: int = MAX_OP_BYTES) -> None:
        self.max_bytes = max_bytes

    def encode_op(self, doc: dict) -> bytes:
        raw = (json.dumps(doc, separators=(",", ":")) + "\n").encode("utf-8")
        if len(raw) > self.max_bytes:
            raise TransportError(
                f"frame of {len(raw)} bytes exceeds {self.max_bytes}"
            )
        return raw

    def decoder(self) -> _LineDecoder:
        return _LineDecoder(self.max_bytes)


class BinaryCodec:
    """Length-prefixed compact binary frames (see module docstring)."""

    name = "binary"
    resync_on_error = False

    def __init__(self, max_bytes: int = MAX_OP_BYTES) -> None:
        self.max_bytes = max_bytes

    def encode_op(self, doc: dict) -> bytes:
        if not isinstance(doc, dict):
            raise ValidationError("binary codec encodes dict envelopes only")
        payload = pack(doc)
        if len(payload) > self.max_bytes:
            raise TransportError(
                f"frame of {len(payload)} bytes exceeds {self.max_bytes}"
            )
        return struct.pack(">BI", BINARY_MAGIC, len(payload)) + payload

    def decoder(self) -> _FrameDecoder:
        return _FrameDecoder(self.max_bytes)


#: Codec registry, in server preference order: a server offered several
#: codecs picks the first of these the client also speaks.
CODECS: dict[str, type] = {"binary": BinaryCodec, "json": JsonLineCodec}

#: What this build speaks, most-preferred first.
SUPPORTED_CODECS: tuple[str, ...] = tuple(CODECS)


def resolve_codec(codec):
    """Map a codec name (or pass through an instance) to a codec object."""
    if isinstance(codec, (JsonLineCodec, BinaryCodec)):
        return codec
    factory = CODECS.get(str(codec))
    if factory is None:
        raise ValidationError(
            f"unknown codec {codec!r}; expected one of {sorted(CODECS)}"
        )
    return factory()


def choose_codec(offered, supported: tuple[str, ...] = SUPPORTED_CODECS) -> str:
    """Server-side pick: the most-preferred *supported* codec also *offered*.

    Falls back to ``"json"`` when the peer offered nothing usable — the one
    codec every release of this package has ever spoken.
    """
    offered = [str(name) for name in (offered or ())]
    for name in supported:
        if name in offered:
            return name
    return "json"
