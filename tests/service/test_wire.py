"""Unit tests for the internal link: hello framing and the ``Channel``.

The hello is length-prefixed line JSON and is tested on byte buffers; the
envelopes after it are driven through real ``Channel`` objects over a
``socket.socketpair()``, one end calling, the other serving.
"""

import io
import socket
import struct
import threading

import pytest

from repro.service import wire
from repro.service.codec import BINARY_MAGIC
from repro.service.wire import Channel
from repro.util.errors import RemoteOpError, TransportError, ValidationError


def roundtrip(doc):
    buf = io.BytesIO()
    wire.write_frame(buf, doc)
    buf.seek(0)
    return wire.read_frame(buf)


@pytest.fixture()
def pair():
    """Two raw sockets joined back to back; closed after the test."""
    left, right = socket.socketpair()
    left.settimeout(5.0)
    right.settimeout(5.0)
    yield left, right
    left.close()
    right.close()


@pytest.fixture()
def link(pair):
    """``(caller, server)`` — two established ``Channel`` ends."""
    return Channel(pair[0]), Channel(pair[1])


def serving(channel, ops):
    """Run ``channel.serve(ops)`` on a thread; returns what it raised."""
    raised = []

    def run():
        try:
            channel.serve(ops)
        except TransportError as exc:
            raised.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, raised


class TestFrames:
    def test_doc_roundtrip(self, link):
        assert roundtrip({"op": "ping", "n": 3}) == {"op": "ping", "n": 3}
        caller, server = link
        caller.send({"op": "ping", "n": 3})
        assert server.recv() == {"op": "ping", "n": 3}

    def test_blob_roundtrip_is_byte_exact(self, link):
        caller, server = link
        payload = bytes(range(256)) * 3
        caller.send({"op": "put", "payload": payload})
        assert server.recv() == {"op": "put", "payload": payload}

    def test_empty_blob_is_distinct_from_no_blob(self, link):
        caller, server = link
        for doc in ({"payload": b""}, {"payload": None}, {}):
            caller.send(doc)
        assert server.recv()["payload"] == b""
        assert server.recv()["payload"] is None
        assert "payload" not in server.recv()

    def test_write_does_not_mutate_caller_doc(self, link):
        doc = {"op": "put", "payload": b"xyz"}
        link[0].send(doc)
        assert doc == {"op": "put", "payload": b"xyz"}

    def test_multiple_frames_stream(self, link):
        caller, server = link
        caller.send({"i": 0})
        caller.send({"i": 1, "payload": b"blob"})
        caller.send({"i": 2})
        caller.close()
        frames = [server.recv() for _ in range(3)]
        assert [doc["i"] for doc in frames] == [0, 1, 2]
        assert frames[1]["payload"] == b"blob"
        assert server.recv() is None  # clean EOF after the last frame

    def test_clean_eof_returns_none(self, link):
        assert wire.read_frame(io.BytesIO()) is None
        link[0].close()
        assert link[1].recv() is None

    def test_unicode_survives(self, link):
        assert roundtrip({"detail": "rack éè 中文"})["detail"] == "rack éè 中文"
        link[0].send({"detail": "rack éè 中文"})
        assert link[1].recv()["detail"] == "rack éè 中文"


class TestMalformedFrames:
    @pytest.mark.parametrize(
        "raw",
        [
            b"notanumber\n{}\n",            # non-numeric prefix
            b"5\n{}\n",                     # prefix longer than payload
            b"-3\n{}\n",                    # negative length
            b"2\n{}",                       # missing terminating newline
            b"7\n[1,2,3]\n",                # JSON but not an object
            b"16\n{\"broken\": tru}\n\n",   # invalid JSON
            b"999999999999999\n",           # over MAX_JSON_BYTES
            b"1" * 32,                      # unterminated oversized prefix
        ],
    )
    def test_raises_transport_error(self, raw):
        with pytest.raises(TransportError):
            wire.read_frame(io.BytesIO(raw))

    def test_truncated_blob_raises(self, pair):
        frame = wire.ENVELOPE_CODEC.encode_op(
            {"op": "put", "payload": b"full payload here"}
        )
        pair[0].sendall(frame[:-5])
        pair[0].close()
        with pytest.raises(TransportError, match="truncated"):
            Channel(pair[1]).recv()

    def test_bad_blob_length_raises(self, pair):
        # Only the header arrives: the declared length alone is refused,
        # before anything is allocated or awaited.
        pair[0].sendall(
            struct.pack(">BI", BINARY_MAGIC, wire.MAX_ENVELOPE_BYTES + 1)
        )
        with pytest.raises(TransportError, match="exceeds"):
            Channel(pair[1]).recv()

    def test_oversized_blob_refused_at_write(self, link, monkeypatch):
        monkeypatch.setattr(wire.ENVELOPE_CODEC, "max_bytes", 1024)
        caller, server = link
        with pytest.raises(TransportError, match="exceeds"):
            caller.send({"op": "put", "payload": b"x" * 2048})
        caller.send({"op": "put", "payload": b"x" * 512})  # nothing was written
        assert server.recv()["payload"] == b"x" * 512

    @pytest.mark.parametrize(
        "raw",
        [
            b"{\"op\": \"ping\"}\n",                         # line JSON: bad magic
            struct.pack(">BI", BINARY_MAGIC, 1) + b"\x00",   # unknown tag
            struct.pack(">BI", BINARY_MAGIC, 1) + b"\xc0",   # not an object
            struct.pack(">BI", BINARY_MAGIC, 9)[:3],         # header cut short
        ],
    )
    def test_garbage_envelope_raises(self, pair, raw):
        pair[0].sendall(raw)
        pair[0].close()
        with pytest.raises(TransportError):
            Channel(pair[1]).recv()


class TestHello:
    def test_roundtrip_with_extras(self):
        buf = io.BytesIO()
        wire.send_hello(buf, role="worker-cmd", shard_id=3, token="t")
        buf.seek(0)
        doc = wire.expect_hello(buf, role="worker-cmd")
        assert doc["proto"] == wire.PROTOCOL_NAME
        assert doc["v"] == wire.PROTOCOL_VERSION
        assert doc["shard_id"] == 3
        assert doc["token"] == "t"

    def test_role_check_optional(self):
        buf = io.BytesIO()
        wire.send_hello(buf, role="anything")
        buf.seek(0)
        assert wire.expect_hello(buf)["role"] == "anything"

    def test_wrong_role_rejected(self):
        buf = io.BytesIO()
        wire.send_hello(buf, role="worker-events")
        buf.seek(0)
        with pytest.raises(TransportError, match="role"):
            wire.expect_hello(buf, role="worker-cmd")

    def test_wrong_protocol_rejected(self):
        buf = io.BytesIO()
        wire.write_frame(buf, {"proto": "http", "v": 1, "role": "x"})
        buf.seek(0)
        with pytest.raises(TransportError, match="protocol"):
            wire.expect_hello(buf)

    def test_version_mismatch_rejected(self):
        # Version 1 negotiated a codec and framed blobs apart; a v1 peer is
        # refused at the hello, never misread.
        for version in (1, wire.PROTOCOL_VERSION + 1):
            buf = io.BytesIO()
            wire.write_frame(
                buf, {"proto": wire.PROTOCOL_NAME, "v": version, "role": "x"}
            )
            buf.seek(0)
            with pytest.raises(TransportError, match="version"):
                wire.expect_hello(buf)

    def test_eof_before_hello_rejected(self):
        with pytest.raises(TransportError, match="before hello"):
            wire.expect_hello(io.BytesIO())


class TestHandshake:
    """``dial`` against ``adopt`` over loopback TCP."""

    def meet(self, adopt_kwargs, **dial_extra):
        adopted = []

        def accept():
            sock, _ = listener.accept()
            try:
                adopted.append(Channel.adopt(sock, "fabric", **adopt_kwargs))
            except TransportError as exc:
                adopted.append(exc)

        with socket.create_server(("127.0.0.1", 0)) as listener:
            thread = threading.Thread(target=accept, daemon=True)
            thread.start()
            try:
                dialed = Channel.dial(
                    listener.getsockname()[:2], "worker-cmd", "fabric", **dial_extra
                )
            except TransportError as exc:
                dialed = exc
            thread.join(5.0)
        return dialed, adopted[0]

    def test_both_ends_learn_the_peer(self):
        dialed, adopted = self.meet(
            {"peer_roles": ("worker-cmd", "worker-events"), "token": "t"},
            token="t",
            shard_id=3,
        )
        try:
            assert dialed.peer["role"] == "fabric"
            assert adopted.peer["role"] == "worker-cmd"
            assert adopted.peer["shard_id"] == 3
            dialed.send({"op": "ping"})
            assert adopted.recv() == {"op": "ping"}
        finally:
            dialed.close()
            adopted.close()

    @pytest.mark.parametrize(
        "adopt_kwargs, match",
        [
            ({"peer_roles": ("worker-cmd",), "token": "other"}, "spawn token"),
            ({"peer_roles": ("coord-client",)}, "peer role"),
        ],
    )
    def test_a_stranger_is_hung_up_on_unanswered(self, adopt_kwargs, match):
        dialed, adopted = self.meet(adopt_kwargs, token="t")
        assert isinstance(adopted, TransportError) and match in str(adopted)
        # The dialer gets no hello back — just a closed connection.
        assert isinstance(dialed, TransportError)
        assert "before hello" in str(dialed)

    def test_unreachable_address_is_a_transport_error(self):
        with socket.create_server(("127.0.0.1", 0)) as probe:
            addr = probe.getsockname()[:2]
        with pytest.raises(TransportError, match="cannot reach"):
            Channel.dial(addr, "worker-cmd", "fabric", timeout=0.5)


class TestRpc:
    def test_ok_reply_returns_doc_and_blob(self, link):
        caller, server = link
        seen = []

        def get(doc):
            seen.append(doc)
            return {"value": 7, "payload": b"blob"}

        serving(server, {"get": get})
        reply = caller.call({"op": "get", "key": "k"}, timeout=5.0)
        assert reply == {"ok": True, "value": 7, "payload": b"blob"}
        assert seen == [{"op": "get", "key": "k"}]  # the request hit the wire

    def test_error_reply_raises_with_op_and_message(self, link):
        caller, server = link

        def drop(doc):
            raise ValidationError("no such lease")

        def boom(doc):
            raise RuntimeError("wires crossed")

        serving(server, {"drop": drop, "boom": boom, "ping": lambda doc: None})
        with pytest.raises(RemoteOpError, match="op 'drop' failed: no such lease"):
            caller.call({"op": "drop"}, timeout=5.0)
        with pytest.raises(RemoteOpError, match="internal error: wires crossed"):
            caller.call({"op": "boom"}, timeout=5.0)
        for op in ("reboot", None, ["ping"], 7):
            with pytest.raises(RemoteOpError, match="unknown op"):
                caller.call({"op": op}, timeout=5.0)
        # Every rejection came back over a link that keeps working.
        assert caller.call({"op": "ping"}, timeout=5.0) == {"ok": True}

    def test_eof_mid_exchange_raises(self, link):
        caller, server = link
        server.sock.shutdown(socket.SHUT_WR)  # takes the request, never answers
        with pytest.raises(TransportError, match="closed the connection") as info:
            caller.call({"op": "ping"}, timeout=5.0)
        assert not isinstance(info.value, RemoteOpError)

    def test_a_silent_peer_is_a_transport_error(self, link):
        with pytest.raises(TransportError, match="link lost") as info:
            link[0].call({"op": "ping"}, timeout=0.05)
        assert not isinstance(info.value, RemoteOpError)

    def test_serve_returns_on_eof_and_on_stop(self, link):
        caller, server = link
        thread, raised = serving(server, {"quit": lambda doc: server.stop()})
        assert caller.call({"op": "quit"}, timeout=5.0) == {"ok": True}
        thread.join(5.0)
        assert not thread.is_alive() and not raised

    def test_serve_raises_when_the_link_breaks_mid_frame(self, pair):
        thread, raised = serving(Channel(pair[1]), {})
        pair[0].sendall(struct.pack(">BI", BINARY_MAGIC, 64) + b"short")
        pair[0].close()
        thread.join(5.0)
        assert len(raised) == 1 and "truncated" in str(raised[0])
