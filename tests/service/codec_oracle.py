"""The binary codec's pack/unpack as first written: the byte-level oracle.

A verbatim copy of the straightforward ``isinstance``-chain encoder and
``_need``-checked decoder that :mod:`repro.service.codec` shipped before it
was rewritten for speed. The codec tests and ``benchmarks/codec_speed.py``
hold the shipped codec to it: the same bytes for every value it encodes,
and, for every payload, the same value or the same error type and message.
Never edit the functions below to follow the shipped codec; it follows them.

After them come :data:`GOLDEN_FRAMES`, whole frames pinned as hex, and
:func:`corpus`, seeded random envelopes over every value shape, which
``benchmarks/codec_speed.py --check`` runs through both codecs.
"""

from __future__ import annotations

import enum
import random
import struct

from repro.util.errors import TransportError, ValidationError

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


def outcome(call, payload):
    """What *call* makes of *payload*: ``("ok", repr(value))`` or the
    error's type and message. ``repr`` so that NaN, -0.0 and ``True``
    against ``1`` compare exactly."""
    try:
        return "ok", repr(call(payload))
    except Exception as exc:  # the error's type and message are the outcome
        return type(exc), str(exc)


# ------------------------------------------------------------ golden frames
#
# Whole BinaryCodec frames (magic, length, payload) as the oracle writes
# them, pinned as hex: the bytes may never change, whichever codec writes
# them. One per hot envelope, and one per value shape whose encoding is easy
# to get wrong.


class _Kind(enum.IntEnum):
    RACK = 2


class _Status(str, enum.Enum):
    PLACED = "placed"


#: name → (envelope, its frame as hex).
GOLDEN_FRAMES: dict = {
    "place request": (
        {
            "op": "place",
            "message": {
                "demand": [2, 1, 0], "request_id": 100017, "priority": 0, "tag": "",
            },
        },
        "b10000008ddf00000002db000000026f70db00000005706c616365db00000007"
        "6d657373616765df00000004db0000000664656d616e64dc00000003d3000000"
        "0000000002d30000000000000001d30000000000000000db0000000a72657175"
        "6573745f6964d300000000000186b1db000000087072696f72697479d3000000"
        "0000000000db00000003746167db00000000",
    ),
    "decision reply": (
        {
            "ok": True,
            "decision": {
                "kind": "decision", "request_id": 100017, "status": "placed",
                "placements": [[12, 0, 1], [12, 1, 1], [13, 0, 1]],
                "center": 12, "distance": 2.0, "latency": 0.00215, "detail": "",
            },
        },
        "b100000126df00000002db000000026f6bc3db000000086465636973696f6edf"
        "00000008db000000046b696e64db000000086465636973696f6edb0000000a72"
        "6571756573745f6964d300000000000186b1db00000006737461747573db0000"
        "0006706c61636564db0000000a706c6163656d656e7473dc00000003dc000000"
        "03d3000000000000000cd30000000000000000d30000000000000001dc000000"
        "03d3000000000000000cd30000000000000001d30000000000000001dc000000"
        "03d3000000000000000dd30000000000000000d30000000000000001db000000"
        "0663656e746572d3000000000000000cdb0000000864697374616e6365cb4000"
        "000000000000db000000076c6174656e6379cb3f619ce075f6fd22db00000006"
        "64657461696cdb00000000",
    ),
    "poll reply": (
        {
            "ok": True,
            "events": [{
                "decision": {
                    "kind": "decision", "request_id": 7, "status": "timeout",
                    "placements": [], "center": -1, "distance": 0.0,
                    "latency": 2.5, "detail": "waited past max_wait",
                },
                "attempt": 3,
            }],
            "since": 41,
            "version": 42,
            "delta": b'[{"op": "release", "request_id": 5}]',
        },
        "b100000160df00000005db000000026f6bc3db000000066576656e7473dc0000"
        "0001df00000002db000000086465636973696f6edf00000008db000000046b69"
        "6e64db000000086465636973696f6edb0000000a726571756573745f6964d300"
        "00000000000007db00000006737461747573db0000000774696d656f7574db00"
        "00000a706c6163656d656e7473dc00000000db0000000663656e746572d3ffff"
        "ffffffffffffdb0000000864697374616e6365cb0000000000000000db000000"
        "076c6174656e6379cb4004000000000000db0000000664657461696cdb000000"
        "147761697465642070617374206d61785f77616974db00000007617474656d70"
        "74d30000000000000003db0000000573696e6365d30000000000000029db0000"
        "000776657273696f6ed3000000000000002adb0000000564656c7461c6000000"
        "245b7b226f70223a202272656c65617365222c2022726571756573745f696422"
        "3a20357d5d",
    ),
    "big int": (
        {"v": [2**64, -(2**63) - 1, 2**63 - 1, -(2**63), 10**40]},
        "b100000054df00000001db0000000176dc00000005c700000009010000000000"
        "000000c700000009ff7fffffffffffffffd37fffffffffffffffd38000000000"
        "000000c7000000111d6329f1c35ca4bfabb9f5610000000000",
    ),
    "tuple": (
        {"demand": (1, 2, 3), "nested": ((), (None, False))},
        "b10000004cdf00000002db0000000664656d616e64dc00000003d30000000000"
        "000001d30000000000000002d30000000000000003db000000066e6573746564"
        "dc00000002dc00000000dc00000002c0c2",
    ),
    "non-ascii string": (
        {"name": "rack-α/node-7 ✓ 𝄞", "ключ": "значение"},
        "b10000004cdf00000002db000000046e616d65db000000177261636b2dceb12f"
        "6e6f64652d3720e29c9320f09d849edb00000008d0bad0bbd18ed187db000000"
        "10d0b7d0bdd0b0d187d0b5d0bdd0b8d0b5",
    ),
    "enum and str subclass": (
        {"kind": _Kind.RACK, "status": _Status.PLACED, "flag": True, "ratio": -0.0},
        "b10000004adf00000004db000000046b696e64d30000000000000002db000000"
        "06737461747573db00000006706c61636564db00000004666c6167c3db000000"
        "05726174696fcb8000000000000000",
    ),
}


# ------------------------------------------------------------------ corpus


def corpus(seed: int, count: int) -> list:
    """*count* seeded random envelopes over every value shape the codec
    takes: nested dicts and lists, tuples, None, bools, 64-bit and bigger
    ints, floats (NaN and -0.0 too), non-ASCII strings, bytes, bytearrays
    and memoryviews, and IntEnum and str-enum members."""
    rng = random.Random(seed)
    keys = ["op", "ok", "message", "decision", "request_id", "ключ", "κ", ""]
    scalars = [
        lambda: None,
        lambda: rng.random() < 0.5,
        lambda: rng.randrange(-(10**6), 10**6),
        lambda: rng.choice([2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 10**40]),
        lambda: rng.choice([rng.uniform(-1e9, 1e9), float("nan"), -0.0, 1e300]),
        lambda: "".join(chr(rng.randrange(1, 0x2FFF)) for _ in range(rng.randrange(8))),
        lambda: rng.randbytes(rng.randrange(12)),
        lambda: rng.choice(
            [bytearray(b"ab"), memoryview(b"cd"), _Kind.RACK, _Status.PLACED]
        ),
    ]

    def value(depth):
        shape = rng.randrange(len(scalars) + (3 if depth < 4 else 0))
        if shape < len(scalars):
            return scalars[shape]()
        if shape == len(scalars):
            return [value(depth + 1) for _ in range(rng.randrange(5))]
        if shape == len(scalars) + 1:
            return tuple(value(depth + 1) for _ in range(rng.randrange(4)))
        return {
            rng.choice(keys) + str(rng.randrange(3)): value(depth + 1)
            for _ in range(rng.randrange(5))
        }

    return [
        {rng.choice(keys): value(1) for _ in range(1 + rng.randrange(4))}
        for _ in range(count)
    ]
