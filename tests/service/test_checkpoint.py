"""Tests for checkpoint/restore: byte-identical round trips, versioning."""

import json

import numpy as np
import pytest

from repro.cluster import PoolSpec, VMTypeCatalog, random_pool
from repro.service import (
    CHECKPOINT_VERSION,
    ClusterState,
    PlaceRequest,
    PlacementService,
    ServiceConfig,
    checkpoint_bytes,
    checkpoint_to_dict,
    load_checkpoint,
    save_checkpoint,
    state_from_checkpoint,
)
from repro.service.checkpoint import delta_bytes, replay
from repro.service.coord import LogEntry
from repro.util.errors import CapacityError, ValidationError


@pytest.fixture
def busy_state() -> ClusterState:
    """A state with a realistic mix of live leases placed by the service."""
    catalog = VMTypeCatalog.ec2_default()
    pool = random_pool(
        PoolSpec(racks=3, nodes_per_rack=6, capacity_high=3), catalog, seed=3
    )
    state = ClusterState.from_pool(pool)
    service = PlacementService(state, config=ServiceConfig(max_batch=16))
    rng = np.random.default_rng(17)
    for i in range(12):
        demand = rng.integers(0, 3, size=state.num_types)
        if demand.sum() == 0:
            demand[0] = 1
        service.submit(
            PlaceRequest(
                demand=tuple(int(d) for d in demand), request_id=500 + i
            )
        )
    service.step()
    assert state.num_leases > 0
    return state


class TestRoundTrip:
    def test_restore_reproduces_state(self, busy_state):
        doc = checkpoint_to_dict(busy_state)
        restored = state_from_checkpoint(doc)
        assert restored.version == busy_state.version
        assert restored.num_leases == busy_state.num_leases
        assert np.array_equal(restored.allocated, busy_state.allocated)
        assert np.array_equal(restored.remaining, busy_state.remaining)
        assert np.array_equal(
            restored.distance_matrix, busy_state.distance_matrix
        )
        for request_id, lease in busy_state.leases.items():
            twin = restored.leases[request_id]
            assert np.array_equal(twin.matrix, lease.matrix)
            assert twin.center == lease.center
            assert twin.distance == lease.distance
        restored.verify_consistency()

    def test_checkpoint_is_byte_identical_after_restore(self, busy_state):
        first = checkpoint_bytes(busy_state)
        restored = state_from_checkpoint(json.loads(first))
        second = checkpoint_bytes(restored)
        assert first == second

    def test_file_round_trip(self, busy_state, tmp_path):
        path = tmp_path / "state.json"
        save_checkpoint(path, busy_state)
        restored = load_checkpoint(path)
        assert checkpoint_bytes(restored) == path.read_text()
        restored.verify_consistency()

    def test_empty_state_round_trips(self, paper_pool):
        state = ClusterState.from_pool(paper_pool)
        restored = state_from_checkpoint(checkpoint_to_dict(state))
        assert restored.num_leases == 0
        assert checkpoint_bytes(restored) == checkpoint_bytes(state)


class TestValidation:
    def test_unknown_version_rejected(self, busy_state):
        doc = checkpoint_to_dict(busy_state)
        doc["version"] = CHECKPOINT_VERSION + 1
        with pytest.raises(ValidationError):
            state_from_checkpoint(doc)

    def test_missing_version_rejected(self, busy_state):
        doc = checkpoint_to_dict(busy_state)
        del doc["version"]
        with pytest.raises(ValidationError):
            state_from_checkpoint(doc)

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            load_checkpoint(path)

    def test_lease_not_covered_by_allocated_rejected(self, busy_state):
        doc = checkpoint_to_dict(busy_state)
        # Claim an extra VM the allocated matrix doesn't account for.
        doc["leases"][0]["placements"][0][2] += 1
        with pytest.raises(ValidationError):
            state_from_checkpoint(doc)


def emptied(state: ClusterState) -> ClusterState:
    """A copy of *state* with every lease released."""
    copy = state_from_checkpoint(checkpoint_to_dict(state))
    for rid in list(copy.leases):
        copy.release_lease(rid)
    return copy


class TestReplay:
    """``replay`` of journal deltas into a mirror, the proc fabric's one
    way of following its worker."""

    def test_replayed_leases_equal_the_dense_decode(self, busy_state):
        source = emptied(busy_state)
        mirror = state_from_checkpoint(checkpoint_to_dict(source))
        journal, base = source.subscribe(), source.version
        for rid, allocation in sorted(busy_state.leases.items()):
            source.allocate_lease(rid, allocation)
        delta = delta_bytes(journal, base, source.version)
        replay(mirror, [LogEntry(source.version, delta)])
        assert checkpoint_bytes(mirror) == checkpoint_bytes(source)
        for rid, allocation in busy_state.leases.items():
            got = mirror.lease(rid)
            np.testing.assert_array_equal(got.matrix, allocation.matrix)
            np.testing.assert_array_equal(got.rows, allocation.rows)
            assert not got.matrix.flags.writeable and not got.rows.flags.writeable
            assert (got.center, got.distance) == (allocation.center, allocation.distance)
        mirror.verify_consistency()

    def test_a_held_delta_is_skipped_unparsed(self, busy_state):
        state = state_from_checkpoint(checkpoint_to_dict(busy_state))
        before = checkpoint_bytes(state)
        replay(state, [LogEntry(state.version, b"not json")])
        assert checkpoint_bytes(state) == before

    @pytest.mark.parametrize(
        "placement",
        [(-1, 0, 1), ("nodes", 0, 1), (0, -1, 1), (0, "types", 1), (0, 0, 0), (0, 0, -2)],
        ids=["node<0", "node>=n", "type<0", "type>=m", "count=0", "count<0"],
    )
    def test_an_out_of_range_placement_is_refused(self, busy_state, placement):
        state = emptied(busy_state)
        n, m = state.num_nodes, state.num_types
        node, vm_type, count = (
            {"nodes": n, "types": m}.get(v, v) for v in placement
        )
        op = {"op": "allocate", "request_id": 1, "center": 0, "distance": 0.0,
              "placements": [[node, vm_type, count]]}
        before = checkpoint_bytes(state)
        with pytest.raises(ValidationError, match="out of range"):
            replay(state, [LogEntry(state.version + 1, json.dumps([op]).encode())])
        assert checkpoint_bytes(state) == before

    def test_gap_duplicate_and_over_capacity_are_refused(self, busy_state):
        state = state_from_checkpoint(checkpoint_to_dict(busy_state))
        rid = min(state.leases)
        held = checkpoint_to_dict(state)["leases"][0]
        before = checkpoint_bytes(state)

        def entry(version, *ops):
            return LogEntry(version, json.dumps(list(ops)).encode())

        with pytest.raises(ValidationError, match="skips"):
            replay(state, [entry(state.version + 2, {"op": "release", "request_id": rid})])
        with pytest.raises(ValidationError, match="already holds"):
            replay(state, [entry(state.version + 1, {"op": "allocate", **held})])
        node, vm_type = (int(x) for x in np.argwhere(state.remaining == 0)[0])
        too_big = {"op": "allocate", "request_id": 10**6, "center": node,
                   "distance": 0.0, "placements": [[node, vm_type, 1]]}
        with pytest.raises(CapacityError):
            replay(state, [entry(state.version + 1, too_big)])
        assert checkpoint_bytes(state) == before
