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
  JSON. The pure-Python encoder and decoder dispatch on exact types and
  write or read a container's scalar members in line; on the four envelopes
  of a proc-fabric placement they take 0.47–0.53x the time of the first,
  plain implementation (kept as the test oracle, which they match byte for
  byte), measured with ``benchmarks/codec_speed.py`` on a 2-vCPU x86 guest:
  2.6–6.5 µs to encode and 4.2–12.5 µs to decode an envelope.

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

# Precompiled packers: one call writes a value's tag and fixed-width body.
_S_HEAD = struct.Struct(">BI")  # a tag and its length/count; also the frame header
_pack_head = _S_HEAD.pack
_pack_int64 = struct.Struct(">Bq").pack
_pack_float64 = struct.Struct(">Bd").pack
_unpack_q = struct.Struct(">q").unpack_from
_unpack_d = struct.Struct(">d").unpack_from
_unpack_u32 = struct.Struct(">I").unpack_from

_NONE = bytes((_T_NONE,))
_TRUE = bytes((_T_TRUE,))
_FALSE = bytes((_T_FALSE,))

#: Encoded dict keys (tag, length and UTF-8 bytes), by key. Envelopes reuse
#: a few dozen field names, so nearly every key is a hit. Only exact ``str``
#: keys of at most :data:`_KEY_CHARS` characters are kept, and the cache
#: stops growing at :data:`_KEY_CACHE_MAX` entries, so its memory is bounded
#: whatever the documents carry. An entry is a function of its key alone,
#: so sharing the cache across callers and threads changes no output.
_KEY_CACHE: dict[str, bytes] = {}
_KEY_CACHE_MAX = 4096
_KEY_CHARS = 64


def pack(obj) -> bytes:
    """Encode one JSON-shaped value (plus ``bytes``) to compact binary.

    Tuples encode as lists, mirroring what a JSON round trip would do, so
    a document decoded from either codec compares equal.
    """
    out = bytearray()
    _pack_into(out, obj)
    return bytes(out)


def _pack_into(out: bytearray, obj) -> None:
    # Exact types first, commonest first; subclasses (an IntEnum, a str
    # enum), the other byte buffers and everything unencodable take the
    # isinstance chain in _pack_other. A dict's or list's scalar members
    # are written in line, without a call each.
    t = type(obj)
    if t is str:
        raw = obj.encode("utf-8")
        out += _pack_head(_T_STR, len(raw))
        out += raw
    elif t is dict:
        out += _pack_head(_T_DICT, len(obj))
        keys = _KEY_CACHE
        for key, value in obj.items():
            if type(key) is str:
                head = keys.get(key)
                if head is None:
                    head = _key_head(key)
                out += head
            else:
                _pack_key(out, key)
            t = type(value)
            if t is str:
                raw = value.encode("utf-8")
                out += _pack_head(_T_STR, len(raw))
                out += raw
            elif t is int:
                if _INT64_MIN <= value <= _INT64_MAX:
                    out += _pack_int64(_T_INT64, value)
                else:
                    _pack_bigint(out, value)
            elif t is float:
                out += _pack_float64(_T_FLOAT64, value)
            elif value is None:
                out += _NONE
            else:
                _pack_into(out, value)
    elif t is int:
        if _INT64_MIN <= obj <= _INT64_MAX:
            out += _pack_int64(_T_INT64, obj)
        else:
            _pack_bigint(out, obj)
    elif t is list or t is tuple:
        out += _pack_head(_T_LIST, len(obj))
        for item in obj:
            t = type(item)
            if t is int and _INT64_MIN <= item <= _INT64_MAX:
                out += _pack_int64(_T_INT64, item)
            elif t is float:
                out += _pack_float64(_T_FLOAT64, item)
            else:
                _pack_into(out, item)
    elif t is float:
        out += _pack_float64(_T_FLOAT64, obj)
    elif obj is None:
        out += _NONE
    elif obj is True:
        out += _TRUE
    elif obj is False:
        out += _FALSE
    elif t is bytes:
        out += _pack_head(_T_BYTES, len(obj))
        out += obj
    else:
        _pack_other(out, obj)


def _key_head(key: str) -> bytes:
    """A str key's encoded bytes, cached while the cache has room."""
    raw = key.encode("utf-8")
    head = _pack_head(_T_STR, len(raw)) + raw
    if len(key) <= _KEY_CHARS and len(_KEY_CACHE) < _KEY_CACHE_MAX:
        _KEY_CACHE[key] = head
    return head


def _pack_key(out: bytearray, key) -> None:
    if not isinstance(key, str):
        raise ValidationError(
            f"binary codec requires str keys, got {type(key).__name__}"
        )
    raw = key.encode("utf-8")
    out += _pack_head(_T_STR, len(raw))
    out += raw


def _pack_bigint(out: bytearray, obj: int) -> None:
    raw = obj.to_bytes((obj.bit_length() + 8) // 8, "big", signed=True)
    out += _pack_head(_T_BIGINT, len(raw))
    out += raw


def _pack_other(out: bytearray, obj) -> None:
    """Everything but the exact builtin types: the general isinstance rule."""
    if isinstance(obj, int):
        if _INT64_MIN <= obj <= _INT64_MAX:
            out += _pack_int64(_T_INT64, obj)
        else:
            _pack_bigint(out, obj)
    elif isinstance(obj, float):
        out += _pack_float64(_T_FLOAT64, obj)
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        out += _pack_head(_T_STR, len(raw))
        out += raw
    elif isinstance(obj, (bytes, bytearray, memoryview)):
        raw = bytes(obj)
        out += _pack_head(_T_BYTES, len(raw))
        out += raw
    elif isinstance(obj, (list, tuple)):
        out += _pack_head(_T_LIST, len(obj))
        for item in obj:
            _pack_into(out, item)
    elif isinstance(obj, dict):
        out += _pack_head(_T_DICT, len(obj))
        for key, value in obj.items():
            _pack_key(out, key)
            _pack_into(out, value)
    else:
        raise ValidationError(
            f"binary codec cannot encode {type(obj).__name__} values"
        )


_TRUNCATED = "truncated binary payload"


def unpack(data: bytes):
    """Decode one :func:`pack` payload; rejects trailing garbage."""
    # Reads past the end surface as IndexError (a tag byte) or struct.error
    # (a fixed-width field); a length field that overruns is checked where
    # it is read. Both become the one truncation error.
    try:
        obj, offset = _unpack_from(data, 0)
    except (IndexError, struct.error):
        raise TransportError(_TRUNCATED) from None
    except UnicodeDecodeError as exc:
        raise TransportError(f"binary string is not valid UTF-8: {exc}") from exc
    if offset != len(data):
        raise TransportError(
            f"binary payload has {len(data) - offset} trailing byte(s)"
        )
    return obj


def _unpack_from(data: bytes, offset: int):
    tag = data[offset]
    offset += 1
    if tag == _T_DICT:
        (count,) = _unpack_u32(data, offset)
        offset += 4
        doc = {}
        for _ in range(count):
            if data[offset] == _T_STR:
                (length,) = _unpack_u32(data, offset + 1)
                start = offset + 5
                offset = start + length
                if offset > len(data):
                    raise TransportError(_TRUNCATED)
                key = data[start:offset].decode("utf-8")
            else:
                _, offset = _unpack_from(data, offset)
                raise TransportError("binary dict key is not a string")
            tag = data[offset]
            if tag == _T_INT64:
                (doc[key],) = _unpack_q(data, offset + 1)
                offset += 9
            elif tag == _T_STR:
                (length,) = _unpack_u32(data, offset + 1)
                start = offset + 5
                offset = start + length
                if offset > len(data):
                    raise TransportError(_TRUNCATED)
                doc[key] = data[start:offset].decode("utf-8")
            elif tag == _T_FLOAT64:
                (doc[key],) = _unpack_d(data, offset + 1)
                offset += 9
            else:
                doc[key], offset = _unpack_from(data, offset)
        return doc, offset
    if tag == _T_INT64:
        return _unpack_q(data, offset)[0], offset + 8
    if tag == _T_STR or tag == _T_BYTES or tag == _T_BIGINT:
        (length,) = _unpack_u32(data, offset)
        offset += 4
        end = offset + length
        if end > len(data):
            raise TransportError(_TRUNCATED)
        raw = data[offset:end]
        if tag == _T_STR:
            return raw.decode("utf-8"), end
        if tag == _T_BYTES:
            return bytes(raw), end
        return int.from_bytes(raw, "big", signed=True), end
    if tag == _T_LIST:
        (count,) = _unpack_u32(data, offset)
        offset += 4
        items = []
        append = items.append
        for _ in range(count):
            tag = data[offset]
            if tag == _T_INT64:
                append(_unpack_q(data, offset + 1)[0])
                offset += 9
            elif tag == _T_FLOAT64:
                append(_unpack_d(data, offset + 1)[0])
                offset += 9
            else:
                item, offset = _unpack_from(data, offset)
                append(item)
        return items, offset
    if tag == _T_FLOAT64:
        return _unpack_d(data, offset)[0], offset + 8
    if tag == _T_NONE:
        return None, offset
    if tag == _T_TRUE:
        return True, offset
    if tag == _T_FALSE:
        return False, offset
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
        (length,) = _unpack_u32(self._buf, 1)
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
        # The payload is written behind room for the header, which is
        # filled in once its length is known: no copy of the payload.
        out = bytearray(5)
        _pack_into(out, doc)
        length = len(out) - 5
        if length > self.max_bytes:
            raise TransportError(
                f"frame of {length} bytes exceeds {self.max_bytes}"
            )
        _S_HEAD.pack_into(out, 0, BINARY_MAGIC, length)
        return bytes(out)

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
