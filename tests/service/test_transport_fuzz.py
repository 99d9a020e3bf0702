"""Transport fuzzing: nothing a client sends may kill the accept loop.

Four layers:

* **Codec round-trip** — hypothesis-generated API messages (survivability
  targets and reports included) survive ``decode(encode(m)) == m`` exactly,
  as a line and as a message document through both envelope codecs.
* **Malformed-frame fuzzing** — raw bytes (binary garbage, truncated JSON,
  invalid UTF-8, oversized frames, unknown ops, wrong-shape envelopes) fired
  at a live :class:`ServiceEndpoint`; every complete frame gets a typed
  ``{"ok": false}`` reply or a clean connection close, and the endpoint
  still serves a fresh client afterwards (regression guard for the PR 2
  scheduler-stall class).
* **Shard ops** — the ``shards``/``checkpoint`` introspection ops answer on
  a sharded fabric endpoint under the same abuse; one malformed ``place``
  must not take the rest of its admission batch down with it.
* **The internal link** — the coordination server, past a valid hello, is
  held to the same rule: garbage, truncation, unknown ops and wrong-typed
  arguments never kill the listener, and the next honest client is served.
"""

import json
import socket
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import PoolSpec, VMTypeCatalog, random_pool
from repro.core.reliability import SurvivabilityTarget
from repro.obs import MetricsRegistry
from repro.service import (
    BinaryCodec,
    ClusterState,
    JsonLineCodec,
    PlaceRequest,
    PlacementDecision,
    PlacementService,
    ReleaseRequest,
    ReleaseResponse,
    ServiceClient,
    ServiceConfig,
    ServiceEndpoint,
    build_fabric,
    decode_message,
    encode_message,
    wire,
)
from repro.service.api import message_from_doc, message_to_doc
from repro.service.codec import BINARY_MAGIC, MAX_OP_BYTES, read_op
from repro.service.coord.net import CoordinationServer, NetworkedCoordinationBackend
from repro.service.shard import FabricConfig, RackGroupPlan, ShardedPlacementFabric

CATALOG = VMTypeCatalog.ec2_default()


# --------------------------------------------------------------- codec fuzz

_model = {"mtbf": st.floats(1.0, 1e6), "mttr": st.floats(0.001, 1e3)}
survivability_targets = st.one_of(
    st.builds(SurvivabilityTarget, kind=st.sampled_from(["node", "rack"]),
              k=st.integers(0, 4)),
    st.builds(SurvivabilityTarget, kind=st.sampled_from(["node", "rack"]),
              k=st.integers(0, 4), **_model),
    st.builds(SurvivabilityTarget, kind=st.just("availability"),
              min_availability=st.floats(0.5, 0.999999),
              scope=st.sampled_from(["node", "rack"]), **_model),
)

#: What ``achieved_survivability`` reports on a placed, targeted decision.
survivability_reports = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(["node", "rack", "availability"]),
        "scope": st.sampled_from(["node", "rack"]),
        "k": st.integers(0, 4),
        "domain_cap": st.integers(1, 50),
        "quorum": st.integers(1, 50),
        "domains_used": st.integers(1, 20),
        "max_domain_vms": st.integers(1, 50),
    },
    optional={
        "promised_availability": st.floats(0, 1),
        "min_availability": st.floats(0.5, 0.999999),
        "meets_target": st.booleans(),
    },
)

place_requests = st.builds(
    PlaceRequest,
    demand=st.lists(st.integers(0, 50), min_size=1, max_size=6).filter(
        lambda d: sum(d) > 0
    ),
    request_id=st.integers(0, 2**31),
    priority=st.integers(-5, 5),
    tag=st.text(max_size=20),
    survivability=st.none() | survivability_targets,
)

decisions = st.builds(
    PlacementDecision,
    request_id=st.integers(0, 2**31),
    status=st.just("placed"),
    placements=st.lists(
        st.tuples(st.integers(0, 100), st.integers(0, 5), st.integers(1, 9)),
        max_size=5,
    ).map(tuple),
    center=st.integers(0, 100),
    distance=st.floats(0, 1e6, allow_nan=False),
    latency=st.floats(0, 10, allow_nan=False),
    detail=st.text(max_size=30),
    survivability=st.none() | survivability_reports,
)

release_requests = st.builds(ReleaseRequest, request_id=st.integers(0, 2**31))

release_responses = st.builds(
    ReleaseResponse,
    request_id=st.integers(0, 2**31),
    status=st.sampled_from(["released", "unknown_lease"]),
    freed_vms=st.integers(0, 500),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    message=st.one_of(place_requests, decisions, release_requests, release_responses)
)
def test_codec_round_trip(message):
    assert decode_message(encode_message(message)) == message
    # The same document is what every envelope carries, whichever codec.
    for codec in (JsonLineCodec(), BinaryCodec()):
        decoder = codec.decoder()
        decoder.feed(codec.encode_op({"message": message_to_doc(message)}))
        assert message_from_doc(decoder.next_op()["message"]) == message


# ------------------------------------------------------------ endpoint fuzz


@pytest.fixture(scope="module")
def endpoint():
    pool = random_pool(
        PoolSpec(racks=2, nodes_per_rack=3, capacity_low=1, capacity_high=3),
        CATALOG,
        seed=11,
    )
    service = PlacementService(
        ClusterState.from_pool(pool),
        config=ServiceConfig(batch_window=0.0),
        obs=MetricsRegistry(),
    )
    with ServiceEndpoint(service) as ep:
        yield ep


def send_raw(endpoint, payload: bytes, *, read: bool = True) -> bytes:
    host, port = endpoint.address
    with socket.create_connection((host, port), timeout=5.0) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        if not read:
            return b""
        chunks = []
        while True:
            got = sock.recv(65536)
            if not got:
                return b"".join(chunks)
            chunks.append(got)


def assert_alive(endpoint):
    host, port = endpoint.address
    with ServiceClient(host, port) as client:
        assert client.ping()


def assert_typed_errors(reply: bytes):
    for line in reply.splitlines():
        if not line.strip():
            continue
        doc = json.loads(line)
        assert doc["ok"] is False
        assert isinstance(doc["error"], str) and doc["error"]


@pytest.fixture(scope="module")
def coord():
    with CoordinationServer() as server:
        yield server


def coord_session(server, payload: bytes) -> list:
    """Say a valid hello to the coordination server, fire *payload* at it,
    and return every reply envelope it sent before closing the link."""
    with socket.create_connection(server.address, timeout=5.0) as sock:
        rfile, wfile = sock.makefile("rb"), sock.makefile("wb")
        wire.send_hello(wfile, role="coord-client")
        wire.expect_hello(rfile, role="coord-server")
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        replies, decoder = [], wire.ENVELOPE_CODEC.decoder()
        while True:
            reply = read_op(rfile, decoder)
            if reply is None:
                return replies
            replies.append(reply)


def assert_coord_alive(server):
    client = NetworkedCoordinationBackend.from_url(server.url)
    try:
        client.put_checkpoint("probe", b"\x00still here")
        assert client.get_checkpoint("probe") == b"\x00still here"
    finally:
        client.close()


class TestMalformedFrames:
    def test_binary_garbage(self, endpoint):
        reply = send_raw(endpoint, b"\x00\xff\xfe garbage \x80\n")
        assert_typed_errors(reply)
        assert_alive(endpoint)

    def test_invalid_utf8(self, endpoint):
        reply = send_raw(endpoint, b'{"op": "ping"\xc3\x28}\n')
        assert_typed_errors(reply)
        assert_alive(endpoint)

    def test_truncated_frame_no_newline(self, endpoint):
        # A frame cut off mid-JSON with no terminator: the connection just
        # ends; no reply is owed, and the loop survives.
        send_raw(endpoint, b'{"op": "pl', read=True)
        assert_alive(endpoint)

    def test_truncated_json_with_newline(self, endpoint):
        reply = send_raw(endpoint, b'{"op": "place", "message": {"dem\n')
        assert_typed_errors(reply)
        assert_alive(endpoint)

    def test_oversized_frame(self, endpoint):
        payload = b'{"op": "ping", "pad": "' + b"x" * (MAX_OP_BYTES + 10) + b'"}\n'
        reply = send_raw(endpoint, payload)
        assert_typed_errors(reply)
        assert b"exceeds" in reply
        assert_alive(endpoint)

    def test_unknown_op(self, endpoint):
        reply = send_raw(endpoint, b'{"op": "reboot"}\n')
        assert_typed_errors(reply)
        assert_alive(endpoint)

    def test_wrong_shape_envelopes(self, endpoint):
        for frame in (b"[1,2,3]\n", b'"ping"\n', b"42\n", b"null\n", b"{}\n"):
            reply = send_raw(endpoint, frame)
            assert_typed_errors(reply)
        assert_alive(endpoint)

    def test_invalid_place_message(self, endpoint):
        bad = [
            {"op": "place", "message": {"demand": []}},
            {"op": "place", "message": {"demand": [-1, 2]}},
            {"op": "place", "message": {"demand": [1], "bogus": True}},
            {"op": "place"},
            {"op": "release", "message": {}},
        ]
        payload = b"".join(json.dumps(doc).encode() + b"\n" for doc in bad)
        reply = send_raw(endpoint, payload)
        lines = [l for l in reply.splitlines() if l.strip()]
        assert len(lines) == len(bad)
        assert_typed_errors(reply)
        assert_alive(endpoint)

    def test_good_frame_after_bad_on_same_connection(self, endpoint):
        reply = send_raw(endpoint, b'not json\n{"op": "ping"}\n')
        lines = [json.loads(l) for l in reply.splitlines() if l.strip()]
        assert len(lines) == 2
        assert lines[0]["ok"] is False
        assert lines[1]["ok"] is True and lines[1]["pong"] is True
        assert_alive(endpoint)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(blob=st.binary(min_size=1, max_size=512))
def test_random_bytes_never_kill_the_accept_loop(endpoint, coord, blob):
    # The internal link first: past the hello, garbage gets typed errors or
    # a dropped connection, and the listener serves the next honest client.
    for reply in coord_session(coord, blob):
        assert reply["ok"] is False and reply["error"]
    assert_coord_alive(coord)
    reply = send_raw(endpoint, blob + b"\n")
    # Whatever came back (replies for each complete frame, or nothing for
    # blank lines), it must be typed, and the endpoint must still serve.
    assert_typed_errors(
        b"\n".join(
            line
            for line in reply.splitlines()
            if line.strip() and not json.loads(line).get("ok", False)
        )
    )
    assert_alive(endpoint)


# ------------------------------------------------------------- sharded ops


class TestShardedEndpoint:
    @pytest.fixture()
    def sharded(self):
        pool = random_pool(
            PoolSpec(racks=4, nodes_per_rack=3, capacity_low=1, capacity_high=3),
            CATALOG,
            seed=13,
        )
        fabric = ShardedPlacementFabric(
            pool,
            plan=RackGroupPlan(2),
            config=FabricConfig(service=ServiceConfig(batch_window=0.0)),
            obs=MetricsRegistry(),
        )
        with ServiceEndpoint(fabric) as ep:
            yield ep

    def test_shards_op_and_abuse(self, sharded):
        host, port = sharded.address
        with ServiceClient(host, port) as client:
            info = client.shards()
            assert [e["shard"] for e in info] == [0, 1]
        reply = send_raw(sharded, b'{"op": "shards", "extra": [1,2]}\n')
        doc = json.loads(reply.splitlines()[0])
        assert doc["ok"] is True and len(doc["shards"]) == 2
        send_raw(sharded, b"\xff\xff\n")
        assert_alive(sharded)

    def test_checkpoint_op_returns_fabric_doc(self, sharded):
        host, port = sharded.address
        with ServiceClient(host, port) as client:
            decision = client.place(PlaceRequest(request_id=1, demand=[1, 0, 0]))
            assert decision.placed
            doc = client.checkpoint()
            assert doc["kind"] == "sharded-fabric"
            assert len(doc["shards"]) == 2
            assert doc["owners"] == [[1, client.shards()[0]["shard"]]] or doc[
                "owners"
            ][0][0] == 1

    @pytest.fixture(params=["thread", "aio"])
    def served_fabric(self, request):
        pool = random_pool(
            PoolSpec(racks=4, nodes_per_rack=3, capacity_low=1, capacity_high=3),
            CATALOG,
            seed=13,
        )
        built = build_fabric(
            pool, 2, config=ServiceConfig(batch_window=0.0), obs=MetricsRegistry()
        )
        endpoint = built.serve(transport=request.param).start()
        try:
            yield endpoint
        finally:
            endpoint.stop()
            built.shutdown()

    @pytest.mark.parametrize(
        "bad",
        [
            {"op": "place"},
            {"op": "place", "message": {"demand": "abc"}},
            {"op": "place", "message": 7},
        ],
    )
    def test_malformed_place_does_not_wedge_its_batch(self, served_fabric, bad):
        # Both arrive in one segment, so the aio endpoint decodes them in one
        # loop tick and submits them as one cross-connection batch. An
        # exception escaping that batch used to leave every slot in it
        # unresolved: no byte ever came back, for anyone in the tick.
        good = {"op": "place", "message": {"demand": [1, 0, 0], "request_id": 5}}
        reply = send_raw(
            served_fabric, b"".join(json.dumps(d).encode() + b"\n" for d in (bad, good))
        )
        first, second = (json.loads(line) for line in reply.splitlines())
        assert first["ok"] is False
        assert first["error"] and "internal error" not in first["error"]
        assert second["ok"] is True
        assert second["decision"]["status"] == "placed"


# ------------------------------------------------------ coordination server


def _envelope(doc: dict) -> bytes:
    return wire.ENVELOPE_CODEC.encode_op(doc)


class TestCoordinationServer:
    """The serving wire's hostility suite, aimed past the internal hello."""

    @pytest.mark.parametrize(
        "payload, replies",
        [
            (_envelope({"op": "ping"})[:-3], 0),                      # truncated
            (struct.pack(">BI", BINARY_MAGIC, 1 << 30), 0),           # over budget
            (b'{"op": "ping"}\n', 0),                                 # bad magic
            (struct.pack(">BI", BINARY_MAGIC, 1) + b"\x00", 0),       # unknown tag
            (_envelope({"op": "reboot"}), 1),                         # unknown op
            (_envelope({"no": "op"}), 1),
            (_envelope({"op": ["ping"]}), 1),                         # unhashable op
            (_envelope({"op": "register", "worker_id": "w",
                        "shard_id": "abc", "now": 0.0}), 1),          # wrong type
            (_envelope({"op": "beat"}), 1),                           # missing args
            (_envelope({"op": "put_checkpoint", "worker_id": "w",
                        "payload": "text"}), 1),                      # not bytes
            (_envelope({"op": "put_lease", "request_id": 1, "owner": "w",
                        "now": 0.0, "ttl": None}), 1),
            (_envelope({"op": "append", "worker_id": "w", "version": 1,
                        "record": "text"}), 1),                       # not bytes
            (_envelope({"op": "append", "worker_id": "w", "version": [1],
                        "record": b"x"}), 1),
            (_envelope({"op": "append", "worker_id": "w", "version": 1,
                        "record": b"x"}), 1),                         # no snapshot
            (_envelope({"op": "read_since", "worker_id": "w"}), 1),
            (_envelope({"op": "drop_lease", "request_id": 1}), 1),    # no owner
            (_envelope({"op": "read_since", "worker_id": "w",
                        "version": "soon"}), 1),
        ],
    )
    def test_hostile_frames_after_a_valid_hello(self, coord, payload, replies):
        got = coord_session(coord, payload + _envelope({"op": "ping"}))
        # A frame that does not parse drops the link (binary framing cannot
        # re-sync); one that parses gets a typed error and the link goes on
        # to answer the ping behind it.
        assert [r["ok"] for r in got] == ([False, True] if replies else [])
        assert all(isinstance(r.get("error", ""), str) for r in got)
        # ... typed: whatever the caller got wrong is the caller's mistake,
        # never an "internal error" with a traceback in the server's log.
        assert not any("internal error" in r.get("error", "") for r in got)
        assert_coord_alive(coord)

    @pytest.mark.parametrize(
        "hello",
        [
            b"GET / HTTP/1.0\r\n\r\n",
            b"8\n{\"v\": 2}\n",
            b'{"proto": "repro-wire", "v": 1, "role": "coord-client"}',
        ],
    )
    def test_a_bad_hello_is_hung_up_on(self, coord, hello):
        if hello.startswith(b"{"):  # a v1 peer: framed right, refused anyway
            hello = b"%d\n%s\n" % (len(hello), hello)
        assert send_raw(coord, hello) == b""
        assert_coord_alive(coord)
