"""Codec tests: binary packing, sans-IO decoders, and the compat matrix.

The matrix half is the contract the redesign rides on: every client codec
preference (``json``, ``binary``, ``auto``) against every serving transport
(``thread``, ``aio``), plus a codec-restricted server and a legacy peer
that never sends a hello — all must interoperate through the negotiated
envelope protocol with no per-combination code.
"""

import io
import json
import socket
import struct

import pytest

from repro.cluster import PoolSpec, VMTypeCatalog, random_pool
from repro.service import (
    ClusterState,
    PlaceRequest,
    PlacementService,
    ServiceConfig,
)
from repro.service.codec import (
    BINARY_MAGIC,
    MAX_OP_BYTES,
    BinaryCodec,
    JsonLineCodec,
    SUPPORTED_CODECS,
    choose_codec,
    pack,
    read_op,
    resolve_codec,
    unpack,
)
from repro.service.transports import resolve_transport
from repro.util.errors import TransportError, ValidationError


# ------------------------------------------------------------ binary packing


class TestPackUnpack:
    def test_round_trips_json_shaped_documents(self):
        doc = {
            "op": "place",
            "message": {
                "request_id": 12345,
                "demand": [1, 0, 3],
                "weights": [0.5, -2.25, 1e300],
                "flags": {"urgent": True, "draining": False, "note": None},
                "name": "rack-α/node-7",  # non-ASCII survives UTF-8
            },
        }
        assert unpack(pack(doc)) == doc

    def test_bytes_blobs_embed_verbatim(self):
        blob = bytes(range(256)) * 17
        doc = {"op": "checkpoint", "blob": blob}
        out = unpack(pack(doc))
        assert out["blob"] == blob
        assert isinstance(out["blob"], bytes)

    def test_tuples_encode_as_lists_like_json(self):
        # A document decoded from either codec must compare equal.
        assert unpack(pack({"demand": (1, 2, 3)})) == {"demand": [1, 2, 3]}

    def test_ints_beyond_64_bits_round_trip(self):
        for value in (2**63, -(2**63) - 1, 10**40, -(10**40)):
            assert unpack(pack({"v": value})) == {"v": value}

    def test_non_string_keys_rejected(self):
        with pytest.raises(ValidationError, match="str keys"):
            pack({1: "x"})

    def test_unencodable_values_rejected(self):
        with pytest.raises(ValidationError, match="cannot encode"):
            pack({"v": object()})

    def test_trailing_garbage_rejected(self):
        with pytest.raises(TransportError, match="trailing"):
            unpack(pack({"a": 1}) + b"\x00")

    def test_truncated_payload_rejected(self):
        payload = pack({"a": "hello", "b": [1, 2, 3]})
        for cut in (1, len(payload) // 2, len(payload) - 1):
            with pytest.raises(TransportError, match="truncated"):
                unpack(payload[:cut])

    def test_unknown_tag_rejected(self):
        with pytest.raises(TransportError, match="unknown binary tag"):
            unpack(b"\xc1")


def read_one(codec, raw: bytes):
    """What a blocking reader gets from a stream holding exactly *raw*."""
    return read_op(io.BytesIO(raw), codec.decoder())


class TestBinaryCodec:
    def test_blocking_round_trip(self):
        codec = BinaryCodec()
        doc = {"op": "ping", "n": 7}
        assert read_one(codec, codec.encode_op(doc)) == doc

    def test_eof_returns_none(self):
        assert read_one(BinaryCodec(), b"") is None

    def test_oversize_frame_rejected_on_encode_and_decode(self):
        small = BinaryCodec(max_bytes=64)
        with pytest.raises(TransportError, match="exceeds"):
            small.encode_op({"blob": "x" * 128})
        # A peer *claiming* an oversize frame is rejected from the header
        # alone — the payload is never read or buffered.
        header = struct.pack(">BI", BINARY_MAGIC, 65)
        with pytest.raises(TransportError, match="exceeds"):
            read_one(small, header)

    def test_bad_magic_rejected(self):
        with pytest.raises(TransportError, match="magic"):
            read_one(BinaryCodec(), b'{"op": "ping"}\n')

    def test_truncated_frame_rejected(self):
        codec = BinaryCodec()
        raw = codec.encode_op({"op": "ping"})
        for cut in (3, len(raw) - 3):  # mid-header, mid-payload
            with pytest.raises(TransportError, match="truncated"):
                read_one(codec, raw[:cut])

    def test_read_op_keeps_what_it_read_past_a_frame(self):
        # One stream, one decoder: the pump reads in chunks, so the bytes
        # behind the first frame must come back as the next calls' frames.
        codec = BinaryCodec()
        docs = [{"op": "ping", "i": i} for i in range(3)]
        stream = io.BytesIO(b"".join(codec.encode_op(d) for d in docs))
        decoder = codec.decoder()
        assert [read_op(stream, decoder) for _ in docs] == docs
        assert read_op(stream, decoder) is None

    def test_incremental_decoder_matches_blocking(self):
        codec = BinaryCodec()
        docs = [
            {"op": "ping"},
            {"op": "stats", "i": 1},
            {"op": "hello", "codecs": ["binary", "json"]},
        ]
        stream = b"".join(codec.encode_op(d) for d in docs)
        decoder = codec.decoder()
        out = []
        # Feed byte-by-byte: framing must never depend on read boundaries.
        for b in stream:
            decoder.feed(bytes([b]))
            while True:
                doc = decoder.next_op()
                if doc is None:
                    break
                out.append(doc)
        assert out == docs


class TestLineDecoder:
    def test_oversize_line_discarded_in_bounded_memory_then_resyncs(self):
        codec = JsonLineCodec(max_bytes=32)
        decoder = codec.decoder()
        decoder.feed(b"x" * 100)  # oversize, no newline yet
        assert decoder.next_op() is None
        assert decoder.buffered == 0  # dropped, not buffered whole
        decoder.feed(b"xxx\n")  # the oversize line finally terminates
        with pytest.raises(TransportError, match="exceeds"):
            decoder.next_op()
        decoder.feed(b'{"op": "ping"}\n')  # stream re-synced at the newline
        assert decoder.next_op() == {"op": "ping"}

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
    def test_the_budget_counts_the_terminator_on_both_sides(self, chunk):
        # A frame encode_op refuses is a frame the decoder refuses, wherever
        # the read boundaries fall: a line of max_bytes with its newline is
        # the largest either side lets through.
        def line(total):  # a ping padded to *total* bytes, newline included
            return b'{"op":"ping","pad":"' + b"x" * (total - 23) + b'"}\n'

        codec = JsonLineCodec(max_bytes=64)
        at, past = line(64), line(65)
        assert codec.encode_op(json.loads(at)) == at
        with pytest.raises(TransportError, match="exceeds"):
            codec.encode_op(json.loads(past))
        decoder = codec.decoder()
        stream = at + past + at
        got = []
        for i in range(0, len(stream), chunk):
            decoder.feed(stream[i : i + chunk])
            while True:
                try:
                    doc = decoder.next_op()
                except TransportError as exc:
                    doc = str(exc)
                if doc is None:
                    break
                got.append(doc)
        assert got == [json.loads(at), "frame exceeds 64 bytes", json.loads(at)]

    def test_blocking_read_skips_blank_lines_and_ends_clean(self):
        stream = io.BytesIO(b"\n  \n" * 5000 + b'{"op": "ping"}\n\n \n')
        decoder = JsonLineCodec().decoder()
        assert read_op(stream, decoder) == {"op": "ping"}
        assert read_op(stream, decoder) is None  # trailing blanks: clean EOF

    def test_eof_mid_line_is_a_truncation_raised_once(self):
        stream = io.BytesIO(b'{"op": "ping"}\n{"op": "pi')
        decoder = JsonLineCodec().decoder()
        assert read_op(stream, decoder) == {"op": "ping"}
        with pytest.raises(TransportError, match="truncated"):
            read_op(stream, decoder)
        assert read_op(stream, decoder) is None

    def test_eof_inside_an_oversize_line_is_still_oversize(self):
        decoder = JsonLineCodec(max_bytes=32).decoder()
        with pytest.raises(TransportError, match="exceeds"):
            read_op(io.BytesIO(b"x" * 100), decoder)
        assert read_op(io.BytesIO(b""), decoder) is None


# -------------------------------------------------------------- negotiation


class TestChooseCodec:
    def test_picks_most_preferred_supported(self):
        assert choose_codec(["json", "binary"]) == "binary"
        assert choose_codec(["binary"]) == "binary"
        assert choose_codec(["json"]) == "json"

    def test_falls_back_to_json(self):
        assert choose_codec(None) == "json"
        assert choose_codec([]) == "json"
        assert choose_codec(["msgpack", "protobuf"]) == "json"

    def test_respects_server_restriction(self):
        assert choose_codec(["binary", "json"], supported=("json",)) == "json"

    def test_resolve_codec(self):
        assert resolve_codec("binary").name == "binary"
        assert resolve_codec("json").name == "json"
        instance = BinaryCodec(max_bytes=10)
        assert resolve_codec(instance) is instance
        with pytest.raises(ValidationError, match="unknown codec"):
            resolve_codec("msgpack")


# ------------------------------------------------------------ compat matrix


def make_service() -> PlacementService:
    catalog = VMTypeCatalog.ec2_default()
    pool = random_pool(
        PoolSpec(racks=2, nodes_per_rack=6, capacity_high=3), catalog, seed=23
    )
    return PlacementService(
        ClusterState.from_pool(pool), config=ServiceConfig(batch_window=0.001)
    )


@pytest.fixture(params=["thread", "aio"])
def served(request):
    """One started endpoint per transport, with the full codec set."""
    handle = resolve_transport(request.param).serve(make_service())
    handle.start()
    try:
        yield handle
    finally:
        handle.stop()


class TestCompatMatrix:
    @pytest.mark.parametrize(
        "client_codec, expected",
        [("json", "json"), ("binary", "binary"), ("auto", "binary")],
    )
    def test_every_client_codec_against_every_transport(
        self, served, client_codec, expected
    ):
        host, port = served.address
        client = resolve_transport("thread").connect(
            host, port, codec=client_codec
        )
        try:
            assert client.codec == expected
            assert client.ping()
            decision = client.place(
                PlaceRequest(demand=(1, 1, 0), request_id=31337)
            )
            assert decision.placed
            assert client.release(31337).released
            assert client.stats()["placed"] == 1
        finally:
            client.close()

    def test_legacy_peer_without_hello_stays_on_line_json(self, served):
        host, port = served.address
        with socket.create_connection((host, port), timeout=5.0) as sock:
            f = sock.makefile("rwb")
            f.write(b'{"op": "ping"}\n')
            f.flush()
            assert json.loads(f.readline()) == {"ok": True, "pong": True}

    def test_binary_request_before_negotiation_is_a_typed_error(self, served):
        # A peer must not *assume* binary: the server is still in line JSON
        # and answers with a typed error, not a protocol wedge.
        host, port = served.address
        with socket.create_connection((host, port), timeout=5.0) as sock:
            f = sock.makefile("rwb")
            f.write(BinaryCodec().encode_op({"op": "ping"}) + b"\n")
            f.flush()
            response = json.loads(f.readline())
            assert response["ok"] is False


@pytest.fixture(params=["thread", "aio"])
def json_only(request):
    """A server restricted to line JSON (as a pre-binary build would be)."""
    handle = resolve_transport(request.param).serve(
        make_service(), codecs=("json",)
    )
    handle.start()
    try:
        yield handle
    finally:
        handle.stop()


class TestRestrictedServer:
    def test_auto_client_falls_back_to_json(self, json_only):
        host, port = json_only.address
        client = resolve_transport("thread").connect(host, port, codec="auto")
        try:
            assert client.codec == "json"
            assert client.ping()
        finally:
            client.close()

    def test_binary_required_client_refuses(self, json_only):
        host, port = json_only.address
        with pytest.raises(TransportError, match="binary required"):
            resolve_transport("thread").connect(host, port, codec="binary")

    def test_invalid_client_codec_rejected(self, json_only):
        host, port = json_only.address
        with pytest.raises(ValidationError, match="codec"):
            resolve_transport("thread").connect(host, port, codec="msgpack")


def test_supported_codecs_cover_both_formats():
    assert set(SUPPORTED_CODECS) == {"json", "binary"}
    assert MAX_OP_BYTES == 1 << 20
