"""Fault injection against the asyncio serving endpoint.

Mirrors ``test_transport_faults.py`` for the single-loop transport: the
failure modes that matter change shape when every client shares one event
loop. A hung or half-written peer must cost one reader task, never the
loop; an oversize frame must be rejected in bounded memory; and the
per-connection response FIFO must keep pipelined replies in order.
"""

import json
import socket
import struct
import time

import pytest

from repro.cluster import PoolSpec, VMTypeCatalog, random_pool
from repro.service import (
    ClusterState,
    PlaceRequest,
    PlacementService,
    ServiceConfig,
)
from repro.service.aio import AioServiceEndpoint
from repro.service.codec import BINARY_MAGIC, MAX_OP_BYTES, BinaryCodec, read_op
from repro.service.transports import resolve_transport
from repro.util.errors import TransportError


def make_service() -> PlacementService:
    catalog = VMTypeCatalog.ec2_default()
    pool = random_pool(
        PoolSpec(racks=2, nodes_per_rack=6, capacity_high=3), catalog, seed=23
    )
    return PlacementService(
        ClusterState.from_pool(pool), config=ServiceConfig(batch_window=0.001)
    )


@pytest.fixture
def endpoint():
    handle = resolve_transport("aio").serve(make_service())
    handle.start()
    try:
        yield handle
    finally:
        handle.stop()


def healthy_round_trip(endpoint, request_id: int) -> None:
    """One full place/release over a fresh client — the liveness probe."""
    host, port = endpoint.address
    client = resolve_transport("thread").connect(host, port)
    try:
        assert client.ping()
        decision = client.place(
            PlaceRequest(demand=(1, 0, 0), request_id=request_id)
        )
        assert decision.placed
        assert client.release(request_id).released
    finally:
        client.close()


class TestMisbehavingPeers:
    def test_hung_peer_does_not_block_other_clients(self, endpoint):
        # A peer that connects and never sends a byte parks one reader task
        # on the loop; every other connection keeps being served.
        host, port = endpoint.address
        with socket.create_connection((host, port), timeout=5.0):
            healthy_round_trip(endpoint, request_id=9001)

    def test_mid_frame_disconnect_is_clean(self, endpoint):
        # EOF with bytes stuck mid-frame: nobody is left to read the typed
        # error, and the endpoint survives to serve the next connection.
        host, port = endpoint.address
        sock = socket.create_connection((host, port), timeout=5.0)
        sock.sendall(b'{"op": "ping"')  # no terminating newline
        sock.close()
        healthy_round_trip(endpoint, request_id=9002)

    def test_mid_binary_frame_disconnect_is_clean(self, endpoint):
        # Same, after negotiating binary: the header promises 512 bytes,
        # the peer delivers 16 and vanishes.
        host, port = endpoint.address
        sock = socket.create_connection((host, port), timeout=5.0)
        f = sock.makefile("rwb")
        f.write(b'{"op": "hello", "codecs": ["binary"]}\n')
        f.flush()
        assert json.loads(f.readline())["codec"] == "binary"
        sock.sendall(struct.pack(">BI", BINARY_MAGIC, 512) + b"\x00" * 16)
        sock.close()
        healthy_round_trip(endpoint, request_id=9003)

    def test_abrupt_reset_during_placement_does_not_leak_the_lease(
        self, endpoint
    ):
        # The client dies after submitting a placement; the decision has
        # nowhere to go, but the service must stay consistent and keep
        # serving. (The lease is owned server-side until released or the
        # ticket times out — what must NOT happen is a wedged writer task.)
        host, port = endpoint.address
        sock = socket.create_connection((host, port), timeout=5.0)
        sock.sendall(
            b'{"op": "place", "message": {"request_id": 9100, '
            b'"demand": [1, 0, 0]}}\n'
        )
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        sock.close()  # RST, not FIN
        time.sleep(0.1)
        healthy_round_trip(endpoint, request_id=9101)
        endpoint.service.state.verify_consistency()


class TestOversizeFrames:
    def test_oversize_json_line_gets_error_then_resyncs(self, endpoint):
        # Line framing re-syncs at the newline: the peer gets one typed
        # error for the oversize frame and the connection stays usable —
        # identical to the threaded endpoint's behavior.
        host, port = endpoint.address
        with socket.create_connection((host, port), timeout=10.0) as sock:
            f = sock.makefile("rwb")
            f.write(b"x" * (MAX_OP_BYTES + 16) + b"\n")
            f.flush()
            response = json.loads(f.readline())
            assert response["ok"] is False
            assert "exceeds" in response["error"]
            f.write(b'{"op": "ping"}\n')
            f.flush()
            assert json.loads(f.readline()) == {"ok": True, "pong": True}

    def test_oversize_binary_frame_errors_and_drops_connection(self, endpoint):
        # Binary framing has no sync marker: the server answers with a
        # typed error and closes, rather than guessing where the next
        # frame starts.
        host, port = endpoint.address
        with socket.create_connection((host, port), timeout=10.0) as sock:
            f = sock.makefile("rwb")
            f.write(b'{"op": "hello", "codecs": ["binary"]}\n')
            f.flush()
            assert json.loads(f.readline())["codec"] == "binary"
            # Header alone claims an impossible frame; no payload needed.
            sock.sendall(struct.pack(">BI", BINARY_MAGIC, MAX_OP_BYTES + 1))
            response = read_op(f, BinaryCodec().decoder())
            assert response["ok"] is False
            assert "exceeds" in response["error"]
            assert f.read(1) == b""  # server closed after the error
        healthy_round_trip(endpoint, request_id=9200)

    def test_garbage_after_hello_switch_is_typed(self, endpoint):
        # Bytes that are neither a binary frame nor line JSON after the
        # switch: the magic check fails fast with a typed error.
        host, port = endpoint.address
        with socket.create_connection((host, port), timeout=5.0) as sock:
            f = sock.makefile("rwb")
            f.write(b'{"op": "hello", "codecs": ["binary"]}\n')
            f.flush()
            assert json.loads(f.readline())["codec"] == "binary"
            sock.sendall(b'{"op": "ping"}\n')  # stale-codec peer
            response = read_op(f, BinaryCodec().decoder())
            assert response["ok"] is False
            assert "magic" in response["error"]


class TestOrderingAndLifecycle:
    def test_pipelined_requests_reply_in_submission_order(self, endpoint):
        # One write carrying many frames: the per-connection FIFO must
        # answer strictly in order even though placements resolve on
        # scheduler threads and pings resolve inline.
        host, port = endpoint.address
        with socket.create_connection((host, port), timeout=10.0) as sock:
            f = sock.makefile("rwb")
            frames = []
            for i in range(6):
                if i % 2 == 0:
                    frames.append(
                        json.dumps(
                            {
                                "op": "place",
                                "message": {
                                    "request_id": 9300 + i,
                                    "demand": [1, 0, 0],
                                },
                            }
                        ).encode()
                    )
                else:
                    frames.append(b'{"op": "ping"}')
            f.write(b"\n".join(frames) + b"\n")
            f.flush()
            for i in range(6):
                response = json.loads(f.readline())
                assert response["ok"] is True
                if i % 2 == 0:
                    assert response["decision"]["request_id"] == 9300 + i
                else:
                    assert response["pong"] is True

    def test_address_before_start_raises(self):
        with pytest.raises(TransportError, match="not started"):
            AioServiceEndpoint(make_service()).address

    def test_stop_is_idempotent_and_clients_get_connection_errors(self):
        handle = resolve_transport("aio").serve(make_service())
        handle.start()
        host, port = handle.address
        handle.stop()
        handle.stop()  # second stop is a no-op, not an error
        with pytest.raises(TransportError):
            resolve_transport("thread").connect(host, port, timeout=0.5)
