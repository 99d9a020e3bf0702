"""Conformance suite for coordination backends (registry, leases, checkpoints).

Every test in the conformance classes runs twice — once against the
in-memory reference backend and once against a
:class:`NetworkedCoordinationBackend` talking to a real
:class:`CoordinationServer` over loopback TCP — so the wire path is held
to exactly the contract the in-process implementation defines, error
surfaces included. Net-only behaviors (URL parsing, reconnection, framing
rejection) live in their own classes at the bottom.
"""

import socket

import pytest

from repro.service import (
    CoordinationBackend,
    InMemoryCoordinationBackend,
    LeaseRecord,
    LogEntry,
)
from repro.service.coord.net import (
    CoordinationServer,
    NetworkedCoordinationBackend,
    parse_coord_url,
)
from repro.util.errors import RemoteOpError, TransportError, ValidationError

BACKENDS = ("memory", "net")


@pytest.fixture(params=BACKENDS)
def backend(request):
    if request.param == "memory":
        yield InMemoryCoordinationBackend()
        return
    with CoordinationServer() as server:
        client = NetworkedCoordinationBackend.from_url(server.url)
        try:
            yield client
        finally:
            client.close()


class TestWorkerRegistry:
    def test_satisfies_the_protocol(self, backend):
        assert isinstance(backend, CoordinationBackend)

    def test_register_returns_incarnation_one(self, backend):
        assert backend.register_worker("shard-0", 0, now=1.0) == 1
        record = backend.workers()["shard-0"]
        assert record.shard_id == 0
        assert record.registered_at == 1.0
        assert record.last_beat == 1.0

    def test_reregister_bumps_incarnation(self, backend):
        backend.register_worker("shard-0", 0, now=1.0)
        assert backend.register_worker("shard-0", 0, now=5.0) == 2
        assert backend.workers()["shard-0"].incarnation == 2

    def test_incarnation_survives_deregistration(self, backend):
        backend.register_worker("shard-0", 0, now=1.0)
        backend.deregister_worker("shard-0")
        assert "shard-0" not in backend.workers()
        # A worker id that comes back is a *new* incarnation, not a reset —
        # fencing logic depends on the counter being monotonic.
        assert backend.register_worker("shard-0", 0, now=9.0) == 2

    def test_empty_worker_id_rejected(self, backend):
        with pytest.raises((ValidationError, TransportError), match="non-empty"):
            backend.register_worker("", 0, now=0.0)


class TestHeartbeats:
    def test_beat_updates_last_beat(self, backend):
        backend.register_worker("shard-0", 0, now=1.0)
        backend.beat("shard-0", now=3.5)
        assert backend.last_beat("shard-0") == 3.5

    def test_beat_from_unregistered_worker_raises(self, backend):
        with pytest.raises((ValidationError, TransportError), match="unregistered"):
            backend.beat("ghost", now=0.0)

    def test_last_beat_of_unknown_worker_is_none(self, backend):
        assert backend.last_beat("ghost") is None


class TestLeaseLedger:
    def test_put_and_expiry(self, backend):
        backend.put_lease(7, "shard-1", now=10.0, ttl=5.0)
        record = backend.leases()[7]
        assert record == LeaseRecord(
            request_id=7, owner="shard-1", granted_at=10.0, expires_at=15.0
        )
        assert not record.expired(15.0)  # expiry is strict
        assert record.expired(15.1)

    def test_renew_pushes_only_the_owners_leases(self, backend):
        backend.put_lease(1, "shard-0", now=0.0, ttl=1.0)
        backend.put_lease(2, "shard-0", now=0.0, ttl=1.0)
        backend.put_lease(3, "shard-1", now=0.0, ttl=1.0)
        assert backend.renew_leases("shard-0", now=10.0, ttl=1.0) == 2
        leases = backend.leases()
        assert leases[1].expires_at == 11.0
        assert leases[2].expires_at == 11.0
        assert leases[3].expires_at == 1.0  # untouched: different owner

    def test_reput_reowns_a_lease(self, backend):
        backend.put_lease(7, "shard-0", now=0.0, ttl=1.0)
        backend.put_lease(7, "shard-2", now=4.0, ttl=1.0)
        record = backend.leases()[7]
        assert record.owner == "shard-2"
        assert record.granted_at == 4.0

    def test_drop_lease(self, backend):
        backend.put_lease(7, "shard-0", now=0.0, ttl=1.0)
        assert backend.drop_lease(7, "shard-0")
        assert not backend.drop_lease(7, "shard-0")
        assert backend.leases() == {}

    def test_drop_lease_by_a_former_owner_is_a_no_op(self, backend):
        # A lease that moved shards was re-put under its new owner; the old
        # owner's mirror dropping its copy must not take the new one down.
        backend.put_lease(7, "shard-0", now=0.0, ttl=1.0)
        backend.put_lease(7, "shard-1", now=1.0, ttl=1.0)
        assert not backend.drop_lease(7, "shard-0")
        assert backend.leases()[7].owner == "shard-1"
        assert backend.drop_lease(7, "shard-1")

    def test_expired_leases_sorted_oldest_first(self, backend):
        backend.put_lease(3, "shard-0", now=0.0, ttl=2.0)
        backend.put_lease(1, "shard-0", now=0.0, ttl=1.0)
        backend.put_lease(2, "shard-0", now=0.0, ttl=1.0)
        backend.put_lease(9, "shard-0", now=0.0, ttl=50.0)
        expired = backend.expired_leases(now=10.0)
        assert [r.request_id for r in expired] == [1, 2, 3]

    def test_nonpositive_ttl_rejected(self, backend):
        with pytest.raises((ValidationError, TransportError), match="ttl"):
            backend.put_lease(1, "shard-0", now=0.0, ttl=0.0)
        with pytest.raises((ValidationError, TransportError), match="ttl"):
            backend.renew_leases("shard-0", now=0.0, ttl=-1.0)


class TestCheckpointStore:
    def test_roundtrip_is_byte_exact(self, backend):
        payload = b'{"version": 3,\n "nodes": [1, 2]}'
        backend.put_checkpoint("shard-0", payload)
        assert backend.get_checkpoint("shard-0") == payload

    def test_overwrite_keeps_latest(self, backend):
        backend.put_checkpoint("shard-0", b"v1")
        backend.put_checkpoint("shard-0", b"v2")
        assert backend.get_checkpoint("shard-0") == b"v2"

    def test_empty_payload_roundtrips(self, backend):
        backend.put_checkpoint("shard-0", b"")
        assert backend.get_checkpoint("shard-0") == b""

    def test_missing_checkpoint_is_none(self, backend):
        assert backend.get_checkpoint("shard-9") is None

    def test_non_bytes_payload_rejected(self, backend):
        with pytest.raises((ValidationError, TypeError)):
            backend.put_checkpoint("shard-0", "not bytes")

    def test_binary_payload_roundtrips(self, backend):
        payload = bytes(range(256)) * 17
        backend.put_checkpoint("shard-0", payload)
        assert backend.get_checkpoint("shard-0") == payload

    def test_determinism_same_calls_same_state(self, backend):
        def drive(b):
            b.register_worker("shard-0", 0, now=0.0)
            b.beat("shard-0", now=0.5)
            b.put_lease(1, "shard-0", now=0.5, ttl=5.0)
            b.put_checkpoint("shard-0", b"{}")

        drive(backend)
        reference = InMemoryCoordinationBackend()
        drive(reference)
        assert backend.workers() == reference.workers()
        assert backend.leases() == reference.leases()
        assert backend.get_checkpoint("shard-0") == reference.get_checkpoint(
            "shard-0"
        )


class TestReplicationLog:
    """Snapshot + append-only log: what restore replays."""

    def test_append_then_read_since(self, backend):
        backend.put_checkpoint("shard-0", b"snap")
        backend.append("shard-0", 3, b"\x00d3")
        backend.append("shard-0", 5, b"d5")
        assert backend.read_since("shard-0", 2) == [
            LogEntry(3, b"\x00d3"),
            LogEntry(5, b"d5"),
        ]
        assert backend.read_since("shard-0", 3) == [LogEntry(5, b"d5")]
        assert backend.read_since("shard-0", 5) == []

    def test_snapshot_resets_the_log(self, backend):
        backend.put_checkpoint("shard-0", b"snap")
        backend.append("shard-0", 1, b"d1")
        backend.put_checkpoint("shard-0", b"snap2")
        assert backend.read_since("shard-0", -1) == []
        assert backend.get_checkpoint("shard-0") == b"snap2"

    def test_versions_must_rise(self, backend):
        backend.put_checkpoint("shard-0", b"snap")
        backend.append("shard-0", 4, b"d4")
        with pytest.raises((ValidationError, TransportError), match="follow"):
            backend.append("shard-0", 4, b"again")
        assert backend.read_since("shard-0", 0) == [LogEntry(4, b"d4")]

    def test_resending_the_last_append_is_a_no_op(self, backend):
        # A worker whose append landed but whose reply was lost sends it again.
        backend.put_checkpoint("shard-0", b"snap")
        backend.append("shard-0", 2, b"d2")
        backend.append("shard-0", 2, b"d2")
        assert backend.read_since("shard-0", -1) == [LogEntry(2, b"d2")]

    def test_append_needs_a_snapshot(self, backend):
        with pytest.raises((ValidationError, TransportError), match="snapshot"):
            backend.append("shard-7", 1, b"d1")
        assert backend.read_since("shard-7", -1) == []

    def test_non_bytes_record_rejected(self, backend):
        backend.put_checkpoint("shard-0", b"snap")
        with pytest.raises((ValidationError, TypeError)):
            backend.append("shard-0", 1, "not bytes")

    def test_logs_are_per_worker(self, backend):
        backend.put_checkpoint("shard-0", b"a")
        backend.put_checkpoint("shard-1", b"b")
        backend.append("shard-0", 1, b"a1")
        assert backend.read_since("shard-1", -1) == []

    def test_networked_log_matches_in_memory(self, backend):
        def drive(b):
            b.put_checkpoint("shard-0", b"snap")
            for version in (2, 3, 7):
                b.append("shard-0", version, bytes([version]) * version)
            b.put_checkpoint("shard-1", b"other")
            b.append("shard-1", 1, b"")
            return [b.read_since(w, v) for w in ("shard-0", "shard-1") for v in (-1, 2, 7)]

        assert drive(backend) == drive(InMemoryCoordinationBackend())


class TestCoordUrl:
    def test_parse(self):
        assert parse_coord_url("tcp://127.0.0.1:7077") == ("127.0.0.1", 7077)

    @pytest.mark.parametrize(
        "url", ["http://x:1", "tcp://", "tcp://host", "tcp://host:notaport"]
    )
    def test_rejects_malformed(self, url):
        with pytest.raises(ValidationError):
            parse_coord_url(url)

    def test_server_url_round_trips(self):
        with CoordinationServer() as server:
            assert parse_coord_url(server.url) == server.address


class TestNetworkedBackend:
    def test_server_side_error_keeps_connection(self):
        """An op rejection is not a transport failure: no redial needed."""
        with CoordinationServer() as server:
            client = NetworkedCoordinationBackend.from_url(server.url)
            try:
                with pytest.raises(TransportError, match="unregistered"):
                    client.beat("ghost", now=0.0)
                # Same connection keeps working after the rejection.
                assert client.register_worker("shard-0", 0, now=1.0) == 1
                assert client.last_beat("shard-0") == 1.0
            finally:
                client.close()

    def test_reconnects_after_connection_drop(self):
        backing = InMemoryCoordinationBackend()
        with CoordinationServer(backend=backing) as server:
            client = NetworkedCoordinationBackend.from_url(server.url)
            try:
                client.register_worker("shard-0", 0, now=1.0)
                # Yank the client's socket out from under it; the next op
                # must redial transparently and see the same backing state.
                client._channel.sock.shutdown(socket.SHUT_RDWR)
                assert client.last_beat("shard-0") == 1.0
            finally:
                client.close()

    def test_shared_state_across_clients(self):
        with CoordinationServer() as server:
            a = NetworkedCoordinationBackend.from_url(server.url)
            b = NetworkedCoordinationBackend.from_url(server.url)
            try:
                a.register_worker("shard-0", 0, now=1.0)
                a.put_checkpoint("shard-0", b"state-bytes")
                assert b.workers()["shard-0"].incarnation == 1
                assert b.get_checkpoint("shard-0") == b"state-bytes"
            finally:
                a.close()
                b.close()

    @pytest.mark.parametrize(
        "args, named",
        [
            ({"worker_id": "w"}, "missing argument 'now'"),
            ({"worker_id": "w", "now": "soon"}, "bad argument 'now'"),
            ({"worker_id": "w", "now": None}, "bad argument 'now'"),
        ],
    )
    def test_a_bad_argument_is_a_typed_error_naming_op_and_argument(
        self, args, named, caplog
    ):
        # Not "internal error: 'now'" with a traceback in the server's log:
        # the caller got the vocabulary wrong, and is told which word.
        with CoordinationServer() as server:
            client = NetworkedCoordinationBackend.from_url(server.url)
            try:
                with pytest.raises(RemoteOpError) as raised:
                    client._rpc("beat", **args)
                assert "op 'beat'" in str(raised.value) and named in str(raised.value)
                assert "internal error" not in str(raised.value)
                assert not caplog.records
                assert client.workers() == {}  # the link still works
            finally:
                client.close()

    @pytest.mark.parametrize(
        "op, args, named",
        [
            ("append", {"worker_id": "w", "record": b"x"}, "missing argument 'version'"),
            ("append", {"worker_id": "w", "version": "v", "record": b"x"},
             "bad argument 'version'"),
            ("append", {"worker_id": "w", "version": 1, "record": "x"},
             "bad argument 'record'"),
            ("read_since", {"worker_id": "w"}, "missing argument 'version'"),
            ("read_since", {"worker_id": "w", "version": None}, "bad argument 'version'"),
        ],
    )
    def test_log_ops_type_their_arguments(self, op, args, named, caplog):
        with CoordinationServer() as server:
            client = NetworkedCoordinationBackend.from_url(server.url)
            try:
                with pytest.raises(RemoteOpError) as raised:
                    client._rpc(op, **args)
                assert f"op {op!r}" in str(raised.value) and named in str(raised.value)
                assert not caplog.records
            finally:
                client.close()

    def test_unreachable_server_raises_transport_error(self):
        # Bind-then-close guarantees a dead port.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = NetworkedCoordinationBackend(
            "127.0.0.1", port, connect_timeout=0.3
        )
        with pytest.raises(TransportError):
            client.register_worker("shard-0", 0, now=0.0)

    def test_non_protocol_peer_is_rejected_cleanly(self):
        """A client speaking garbage must not wedge the server."""
        with CoordinationServer() as server:
            raw = socket.create_connection(server.address, timeout=2.0)
            raw.sendall(b"GET / HTTP/1.0\r\n\r\n")
            raw.close()
            client = NetworkedCoordinationBackend.from_url(server.url)
            try:
                assert client.register_worker("shard-0", 0, now=0.0) == 1
            finally:
                client.close()
