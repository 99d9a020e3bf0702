"""Tests for the incremental ClusterState (aggregates, leases, snapshots)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    PhysicalNode,
    PoolSpec,
    ResourcePool,
    Topology,
    TopologyCache,
    VMTypeCatalog,
    random_pool,
)
from repro.core import OnlineHeuristic
from repro.core.problem import Allocation, VirtualClusterRequest
from repro.service import ClusterState
from repro.util.errors import CapacityError, ValidationError
from tests.conftest import sparse_rack_pool


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


class TestSparseRackIds:
    def test_state_accepts_rack_ids_that_are_not_dense(self):
        """Regression: 4 nodes in racks {0, 5} used to raise ``IndexError``
        in ``from_pool`` (per-rack rows were indexed by raw rack id)."""
        catalog = VMTypeCatalog.ec2_default()
        nodes = [
            PhysicalNode(node_id=i, rack_id=rack, cloud_id=0, capacity=[2, 1, 1])
            for i, rack in enumerate([5, 0, 5, 0])
        ]
        pool = ResourcePool(Topology(nodes), catalog)
        state = ClusterState.from_pool(pool)
        assert [rack.rack_id for rack in state.topology.racks] == [0, 5]
        # Row r is rack topology.racks[r]: rack 0 holds nodes 1 and 3.
        np.testing.assert_array_equal(state.rack_free, [[4, 2, 2], [4, 2, 2]])
        state.allocate_lease(1, alloc_one(state, 0, 0, count=2))
        np.testing.assert_array_equal(state.rack_free, [[4, 2, 2], [2, 2, 2]])
        np.testing.assert_array_equal(
            state.rack_free, pool.topology_cache.per_rack(state.remaining)
        )
        # A plain pool computes the same rows the state maintains.
        plain = pool.copy()
        plain.allocate(state.allocated)
        np.testing.assert_array_equal(plain.rack_free, state.rack_free)
        state.verify_consistency()


# ------------------------------------------------------- row-sparse commits

_OPS = ("lease", "lease", "release", "swap", "raw", "snapshot", "restore",
        "over", "bad_shape")


def _random_matrix(rng, free: np.ndarray, rows: int = 3) -> np.ndarray:
    """A nonzero matrix touching up to *rows* nodes, within *free* unless
    the draw comes up empty (then one VM anywhere some node has room)."""
    matrix = np.zeros_like(free)
    open_rows = np.flatnonzero(free.any(axis=1))
    for i in rng.choice(open_rows, size=min(rows, open_rows.size), replace=False):
        matrix[i] = rng.integers(0, free[i] + 1)
    if not matrix.any() and open_rows.size:
        i = int(open_rows[0])
        matrix[i, int(np.flatnonzero(free[i])[0])] = 1
    return matrix


def _aggregates(state: ClusterState) -> tuple:
    return (
        state.remaining.copy(), state.available, state.rack_free.copy(),
        state.allocated, state.leases, state.lease_targets,
        list(state.journal), state.version,
    )


def _same(a: tuple, b: tuple) -> bool:
    arrays = all(np.array_equal(x, y) for x, y in zip(a[:4], b[:4]))
    return arrays and a[4].keys() == b[4].keys() and all(
        a[4][k] is b[4][k] for k in a[4]
    ) and a[5:] == b[5:]


@settings(max_examples=40, deadline=None)
@given(
    sparse=st.booleans(),
    seed=st.integers(0, 10_000),
    ops=st.lists(st.tuples(st.sampled_from(_OPS), st.integers(0, 2**16)),
                 min_size=1, max_size=30),
)
def test_row_sparse_commits_match_a_dense_recomputation(sparse, seed, ops):
    """Every lease / raw / restore step keeps each aggregate equal to a
    dense recomputation from ``C``, and a refused commit changes nothing —
    not the aggregates, the ledger, the journal or the version."""
    if sparse:
        pool = sparse_rack_pool(seed)
    else:
        pool = random_pool(
            PoolSpec(racks=3, nodes_per_rack=4, capacity_high=3),
            VMTypeCatalog.ec2_default(), seed=seed,
        )
    state = ClusterState.from_pool(pool)
    state.journal = []
    oracle = TopologyCache.build(pool.topology, pool.distance_model)
    n, m = state.num_nodes, state.num_types
    dist = state.distance_matrix
    raw: list = []  # raw matrices outside the ledger, oldest first
    saved = None
    next_id = 0
    for op, draw in ops:
        rng = np.random.default_rng(draw)
        before = _aggregates(state)
        if op == "lease" and state.available.any():
            matrix = _random_matrix(rng, state.remaining)
            state.allocate_lease(next_id, Allocation.from_matrix(matrix, dist))
            assert state.journal[-1].version == state.version
            assert state.journal[-1].request_id == next_id
            next_id += 1
        elif op == "release" and state.num_leases:
            victim = int(rng.choice(sorted(state.leases)))
            state.release_lease(victim)
            assert state.journal[-1] == (state.version, victim, None, None)
        elif op == "swap" and state.num_leases:
            victim = int(rng.choice(sorted(state.leases)))
            free = state.remaining + state.leases[victim].matrix
            replacement = Allocation.from_matrix(_random_matrix(rng, free), dist)
            state.swap_lease(victim, replacement)
            assert state.leases[victim] is replacement
        elif op == "raw" and (raw or state.available.any()):
            if raw and (rng.random() < 0.5 or not state.available.any()):
                state.release(raw.pop(int(rng.integers(len(raw)))))
            else:
                matrix = _random_matrix(rng, state.remaining)
                state.allocate(matrix)
                raw.append(matrix)
            assert state.journal[-1] == (state.version, None, None, None)
        elif op == "snapshot":
            saved = (state.snapshot_state(), list(raw))
        elif op == "restore" and saved is not None:
            state.restore_state(saved[0])
            raw = list(saved[1])
            assert state.version == saved[0].version
        elif op == "over":
            # Fits everywhere but one slot, which asks for one VM too many.
            matrix = _random_matrix(rng, state.remaining)
            i, j = int(rng.integers(n)), int(rng.integers(m))
            matrix[i, j] = state.remaining[i, j] + 1
            over = Allocation.from_matrix(matrix, dist)
            with pytest.raises(CapacityError):
                state.allocate_lease(next_id, over)
            assert _same(before, _aggregates(state))
        elif op == "bad_shape":
            shape = (n + 1, m) if rng.random() < 0.5 else (n, m + 1)
            bad = Allocation(matrix=np.ones(shape, dtype=np.int64), center=0,
                             distance=0.0)
            with pytest.raises(ValidationError, match="shape"):
                state.allocate_lease(next_id, bad)
            with pytest.raises(ValidationError, match="shape"):
                state.allocate(bad.matrix)
            assert _same(before, _aggregates(state))
        # The dense oracle: everything from C and M alone.
        free = state.max_capacity - state.allocated
        assert np.array_equal(state.remaining, free)
        assert np.array_equal(state.available, free.sum(axis=0))
        assert np.array_equal(state.rack_free, oracle.per_rack(free))
        leased = sum(
            (a.matrix for a in state.leases.values()), np.zeros((n, m), np.int64)
        )
        assert np.array_equal(leased + sum(raw, np.zeros((n, m), np.int64)),
                              state.allocated)
        state.verify_consistency(check_leases=not raw)
