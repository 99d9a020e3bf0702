"""Tests for the incremental ClusterState (aggregates, leases, snapshots)."""

import numpy as np
import pytest

from repro.cluster import PoolSpec, ResourcePool, VMTypeCatalog, random_pool
from repro.core import OnlineHeuristic
from repro.core.problem import Allocation, VirtualClusterRequest
from repro.service import ClusterState
from repro.util.errors import CapacityError, ValidationError


@pytest.fixture
def state(paper_pool) -> ClusterState:
    return ClusterState.from_pool(paper_pool)


def alloc_one(state, node, vm_type, count=1):
    matrix = np.zeros((state.num_nodes, state.num_types), dtype=np.int64)
    matrix[node, vm_type] = count
    return Allocation.from_matrix(matrix, state.distance_matrix)


class TestIncrementalAggregates:
    def test_fresh_state_matches_pool(self, paper_pool, state):
        assert np.array_equal(state.remaining, paper_pool.remaining)
        assert np.array_equal(state.available, paper_pool.available)

    def test_allocate_updates_all_aggregates(self, state):
        node = int(np.argmax(state.remaining.sum(axis=1)))
        vm_type = int(np.argmax(state.remaining[node]))
        before_avail = state.available
        rack = state.topology.rack_of(node)
        before_rack = state.rack_free[rack].copy()
        state.allocate(alloc_one(state, node, vm_type).matrix)
        assert state.available[vm_type] == before_avail[vm_type] - 1
        assert state.rack_free[rack][vm_type] == before_rack[vm_type] - 1
        state.verify_consistency(check_leases=False)

    def test_release_restores_aggregates(self, state):
        node = int(np.argmax(state.remaining.sum(axis=1)))
        vm_type = int(np.argmax(state.remaining[node]))
        matrix = alloc_one(state, node, vm_type).matrix
        before = state.available
        state.allocate(matrix)
        state.release(matrix)
        assert np.array_equal(state.available, before)
        state.verify_consistency(check_leases=False)

    def test_version_bumps_on_every_mutation(self, state):
        node = int(np.argmax(state.remaining.sum(axis=1)))
        vm_type = int(np.argmax(state.remaining[node]))
        matrix = alloc_one(state, node, vm_type).matrix
        v0 = state.version
        state.allocate(matrix)
        assert state.version == v0 + 1
        state.release(matrix)
        assert state.version == v0 + 2

    def test_remaining_is_read_only(self, state):
        with pytest.raises(ValueError):
            state.remaining[0, 0] = 99

    def test_failed_allocate_leaves_aggregates_intact(self, state):
        matrix = np.zeros((state.num_nodes, state.num_types), dtype=np.int64)
        matrix[0, 0] = 10_000
        before = state.available
        with pytest.raises(CapacityError):
            state.allocate(matrix)
        assert np.array_equal(state.available, before)
        assert state.version == 0
        state.verify_consistency(check_leases=False)

    def test_rack_free_sums_to_available(self, state):
        assert np.array_equal(state.rack_free.sum(axis=0), state.available)


class TestLeaseLedger:
    def test_allocate_and_release_lease(self, state):
        node = int(np.argmax(state.remaining.sum(axis=1)))
        vm_type = int(np.argmax(state.remaining[node]))
        allocation = alloc_one(state, node, vm_type)
        state.allocate_lease(7, allocation)
        assert state.num_leases == 1
        assert 7 in state.leases
        returned = state.release_lease(7)
        assert returned is allocation
        assert state.num_leases == 0
        state.verify_consistency()

    def test_duplicate_lease_id_rejected(self, state):
        node = int(np.argmax(state.remaining.sum(axis=1)))
        vm_type = int(np.argmax(state.remaining[node]))
        state.allocate_lease(1, alloc_one(state, node, vm_type))
        with pytest.raises(ValidationError):
            state.allocate_lease(1, alloc_one(state, node, vm_type))

    def test_unknown_release_rejected(self, state):
        with pytest.raises(ValidationError):
            state.release_lease(404)

    def test_swap_lease_replaces_allocation(self, state):
        nodes = np.argsort(-state.remaining.sum(axis=1))[:2]
        vm_type = int(np.argmax(state.remaining[nodes[0]]))
        state.allocate_lease(3, alloc_one(state, int(nodes[0]), vm_type))
        replacement = alloc_one(state, int(nodes[1]),
                                int(np.argmax(state.remaining[nodes[1]])))
        old = state.swap_lease(3, replacement)
        assert state.leases[3] is replacement
        assert old.matrix.sum() == 1
        state.verify_consistency()

    def test_adopt_lease_does_not_change_capacity(self, paper_pool):
        heuristic = OnlineHeuristic()
        allocation = heuristic.place(paper_pool, [1, 1, 0]).allocation
        restored = ClusterState(
            paper_pool.topology,
            paper_pool.catalog,
            distance_model=paper_pool.distance_model,
            allocated=allocation.matrix,
        )
        before = restored.available
        restored.adopt_lease(9, allocation)
        assert np.array_equal(restored.available, before)
        restored.verify_consistency()

    def test_adopt_lease_coverage_is_cumulative(self, paper_pool):
        # Each copy fits under C on its own, but the second on top of the
        # first claims more than C holds — adoption must refuse it so the
        # ledger always sums within the allocated matrix.
        heuristic = OnlineHeuristic()
        allocation = heuristic.place(paper_pool, [1, 1, 0]).allocation
        restored = ClusterState(
            paper_pool.topology,
            paper_pool.catalog,
            distance_model=paper_pool.distance_model,
            allocated=allocation.matrix,
        )
        restored.adopt_lease(1, allocation)
        with pytest.raises(ValidationError):
            restored.adopt_lease(2, allocation)
        restored.verify_consistency()


class TestSnapshots:
    def test_snapshot_restore_round_trip(self, state):
        node = int(np.argmax(state.remaining.sum(axis=1)))
        vm_type = int(np.argmax(state.remaining[node]))
        state.allocate_lease(1, alloc_one(state, node, vm_type))
        snap = state.snapshot_state()
        state.release_lease(1)
        state.restore_state(snap)
        assert state.version == snap.version
        assert state.num_leases == 1
        assert np.array_equal(state.allocated, snap.allocated)
        state.verify_consistency()

    def test_copy_is_independent(self, state):
        clone = state.copy()
        node = int(np.argmax(state.remaining.sum(axis=1)))
        vm_type = int(np.argmax(state.remaining[node]))
        state.allocate(alloc_one(state, node, vm_type).matrix)
        assert clone.version != state.version or np.array_equal(
            clone.remaining, state.remaining
        ) is False
        clone.verify_consistency(check_leases=False)


class TestRandomizedConsistency:
    """Satellite: after any interleaving of allocate/release operations the
    incremental state must exactly match a freshly constructed ResourcePool."""

    def test_random_interleaving_matches_fresh_pool(self):
        catalog = VMTypeCatalog.ec2_default()
        pool = random_pool(
            PoolSpec(racks=3, nodes_per_rack=8, capacity_high=3),
            catalog,
            seed=101,
        )
        state = ClusterState.from_pool(pool)
        heuristic = OnlineHeuristic()
        rng = np.random.default_rng(2024)
        next_id = 0
        for step in range(200):
            do_release = state.num_leases > 0 and (
                rng.random() < 0.4 or state.available.sum() < 4
            )
            if do_release:
                victim = int(rng.choice(sorted(state.leases)))
                state.release_lease(victim)
            else:
                demand = rng.integers(0, 3, size=state.num_types)
                if demand.sum() == 0:
                    demand[int(rng.integers(state.num_types))] = 1
                if not state.can_satisfy(demand):
                    continue
                allocation = heuristic.place(
                    state, VirtualClusterRequest(demand=demand)
                ).allocation
                if allocation is None:
                    continue
                state.allocate_lease(next_id, allocation)
                next_id += 1
            # The oracle: a pool rebuilt from scratch with the same C.
            fresh = ResourcePool(
                pool.topology,
                catalog,
                distance_model=pool.distance_model,
                allocated=state.allocated,
            )
            assert np.array_equal(state.remaining, fresh.remaining), step
            assert np.array_equal(state.available, fresh.available), step
            state.verify_consistency()
