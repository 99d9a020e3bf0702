"""End-to-end tests for the TCP transport: endpoint + client."""

import json
import socket
import time

import numpy as np
import pytest

from repro.cluster import PoolSpec, VMTypeCatalog, random_pool
from repro.service import (
    ClusterState,
    DecisionStatus,
    PlaceRequest,
    PlacementService,
    ServiceClient,
    ServiceConfig,
    ServiceEndpoint,
    state_from_checkpoint,
)
from repro.service import transport
from repro.util.errors import ValidationError


@pytest.fixture
def endpoint():
    catalog = VMTypeCatalog.ec2_default()
    pool = random_pool(
        PoolSpec(racks=2, nodes_per_rack=6, capacity_high=3), catalog, seed=23
    )
    service = PlacementService(
        ClusterState.from_pool(pool),
        config=ServiceConfig(batch_window=0.001),
    )
    with ServiceEndpoint(service) as ep:
        yield ep


@pytest.fixture
def client(endpoint):
    host, port = endpoint.address
    with ServiceClient(host, port) as c:
        yield c


def test_ping(client):
    assert client.ping()


def test_place_release_round_trip(endpoint, client):
    decision = client.place(PlaceRequest(demand=(1, 1, 0), request_id=777))
    assert decision.placed
    assert decision.request_id == 777
    assert endpoint.service.state.num_leases == 1
    response = client.release(777)
    assert response.released
    assert response.freed_vms == 2
    assert endpoint.service.state.num_leases == 0


def test_release_unknown_lease(client):
    response = client.release(424242)
    assert not response.released


def test_stats_reflect_traffic(client):
    client.place(PlaceRequest(demand=(1, 0, 0), request_id=801))
    stats = client.stats()
    assert stats["submitted"] == 1
    assert stats["placed"] == 1
    assert stats["acceptance_rate"] == 1.0


def test_checkpoint_over_the_wire(endpoint, client):
    client.place(PlaceRequest(demand=(2, 1, 0), request_id=802))
    doc = client.checkpoint()
    restored = state_from_checkpoint(doc)
    assert restored.num_leases == 1
    assert np.array_equal(
        restored.allocated, endpoint.service.state.allocated
    )


def test_concurrent_clients(endpoint):
    host, port = endpoint.address
    clients = [ServiceClient(host, port) for _ in range(4)]
    try:
        decisions = [
            c.place(PlaceRequest(demand=(1, 0, 0), request_id=900 + i))
            for i, c in enumerate(clients)
        ]
    finally:
        for c in clients:
            c.close()
    assert all(d.placed for d in decisions)
    assert endpoint.service.state.num_leases == 4


def test_malformed_envelope_gets_error_response(endpoint):
    host, port = endpoint.address
    with socket.create_connection((host, port), timeout=5.0) as sock:
        f = sock.makefile("rwb")
        for bad in (b"not json\n", b'{"no_op": 1}\n', b'{"op": "warp"}\n'):
            f.write(bad)
            f.flush()
            response = json.loads(f.readline())
            assert response["ok"] is False
            assert response["error"]


def test_client_raises_on_server_error(client):
    with pytest.raises(ValidationError):
        client.request({"op": "warp"})


def test_handler_timeout_cancels_queued_request(endpoint, client, monkeypatch):
    # Regression: when the handler gave up waiting, the request stayed
    # queued and a later release could place it into a lease no client
    # knew about. Now the handler withdraws it and reports `cancelled`.
    monkeypatch.setattr(transport, "DECISION_TIMEOUT", 0.2)
    service = endpoint.service
    state = service.state
    with service._lock:
        saturation = state.remaining.copy()
        state.allocate(saturation)  # starve the request so the wait times out
    decision = client.place(PlaceRequest(demand=(1, 0, 0), request_id=950))
    assert decision.status == DecisionStatus.CANCELLED
    assert service.queued == 0
    with service._lock:
        state.release(saturation)
    time.sleep(0.3)  # give the background loop a chance to misbehave
    assert not state.has_lease(950)
