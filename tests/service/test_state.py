"""Tests for the incremental ClusterState (aggregates, leases, snapshots)."""

import json

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
from repro.util.validation import as_int_vector
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


class TestJournal:
    def test_each_reader_trims_only_its_own_records(self, state):
        """A coordinator acknowledging (trimming) its records never drops
        one another reader — a proc worker's events stream — has not sent."""
        node = int(np.argmax(state.remaining.sum(axis=1)))
        vm_type = int(np.argmax(state.remaining[node]))
        coord, stream = state.subscribe(), state.subscribe()
        state.allocate_lease(1, alloc_one(state, node, vm_type))
        state.release_lease(1)
        del coord[:]
        state.allocate_lease(2, alloc_one(state, node, vm_type))
        assert [(r.version, r.request_id) for r in coord] == [(3, 2)]
        assert [(r.version, r.request_id) for r in stream] == [
            (1, 1), (2, 1), (3, 2)
        ]
        assert coord[0] is stream[2]


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


def _aggregates(state: ClusterState, journal: list) -> tuple:
    return (
        state.remaining.copy(), state.available, state.rack_free.copy(),
        state.allocated, state.leases, state.lease_targets,
        list(journal), state.version,
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
    journal = state.subscribe()
    oracle = TopologyCache.build(pool.topology, pool.distance_model)
    n, m = state.num_nodes, state.num_types
    dist = state.distance_matrix
    raw: list = []  # raw matrices outside the ledger, oldest first
    saved = None
    next_id = 0
    for op, draw in ops:
        rng = np.random.default_rng(draw)
        before = _aggregates(state, journal)
        if op == "lease" and state.available.any():
            matrix = _random_matrix(rng, state.remaining)
            state.allocate_lease(next_id, Allocation.from_matrix(matrix, dist))
            assert journal[-1].version == state.version
            assert journal[-1].request_id == next_id
            next_id += 1
        elif op == "release" and state.num_leases:
            victim = int(rng.choice(sorted(state.leases)))
            state.release_lease(victim)
            assert journal[-1] == (state.version, victim, None, None)
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
            assert journal[-1] == (state.version, None, None, None)
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
            assert _same(before, _aggregates(state, journal))
        elif op == "bad_shape":
            shape = (n + 1, m) if rng.random() < 0.5 else (n, m + 1)
            bad = Allocation(matrix=np.ones(shape, dtype=np.int64), center=0,
                             distance=0.0)
            with pytest.raises(ValidationError, match="shape"):
                state.allocate_lease(next_id, bad)
            with pytest.raises(ValidationError, match="shape"):
                state.allocate(bad.matrix)
            assert _same(before, _aggregates(state, journal))
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


# ----------------------------------------------------------- storage order


def _assert_type_major(state: ClusterState) -> None:
    """``L``, ``M`` and the per-rack rows are column-major (F-contiguous):
    a row-major copy on any path would give Algorithm 1's per-node scans
    back their n-row stride without changing a single value."""
    for name in ("remaining", "max_capacity", "rack_free"):
        assert getattr(state, name).flags.f_contiguous, name
    assert state._lease_sum.flags.f_contiguous  # copied by copy()


class TestStorageOrder:
    def test_construction_and_lease_traffic(self, paper_pool, state):
        _assert_type_major(state)
        policy = OnlineHeuristic()
        for rid, demand in enumerate(([1, 1, 0], [9, 4, 2], [0, 2, 1])):
            allocation = policy.place(state, demand).allocation
            assert allocation.matrix.flags.f_contiguous, demand
            state.allocate_lease(rid, allocation)
        _assert_type_major(state)
        state.release_lease(1)
        _assert_type_major(state)
        assert paper_pool.remaining.flags.f_contiguous

    def test_restore_copy_and_checkpoint_paths(self, state):
        from repro.service.checkpoint import checkpoint_bytes, state_from_checkpoint

        state.allocate_lease(1, OnlineHeuristic().place(state, [2, 1, 1]).allocation)
        snap = state.snapshot_state()
        row_major = np.ascontiguousarray(state.allocated)
        state.restore(row_major)
        _assert_type_major(state)
        state.restore_state(snap)
        _assert_type_major(state)
        _assert_type_major(state.copy())
        _assert_type_major(ClusterState.from_pool(state))
        restored = state_from_checkpoint(json.loads(checkpoint_bytes(state)))
        _assert_type_major(restored)
        assert checkpoint_bytes(restored) == checkpoint_bytes(state)
        plain = ResourcePool(
            state.topology, state.catalog, allocated=row_major
        )
        plain.restore(row_major)
        assert plain.remaining.flags.f_contiguous

    def test_fabric_shard_after_restore_shard(self):
        from repro.obs import MetricsRegistry
        from repro.service import PlaceRequest, ServiceConfig
        from repro.service.checkpoint import checkpoint_bytes
        from repro.service.shard import (
            FabricConfig,
            RackGroupPlan,
            ShardedPlacementFabric,
        )

        pool = random_pool(
            PoolSpec(racks=4, nodes_per_rack=5, capacity_high=3),
            VMTypeCatalog.ec2_default(), seed=5,
        )
        fabric = ShardedPlacementFabric(
            pool, plan=RackGroupPlan(2),
            config=FabricConfig(service=ServiceConfig(batch_window=0.0)),
            obs=MetricsRegistry(),
        )
        for rid in range(6):
            fabric.submit(PlaceRequest(request_id=rid, demand=[1, 1, 0]))
        for _ in range(10):
            fabric.step_all(now=0.0)
        for shard in fabric.shards:
            _assert_type_major(shard.state)
        payload = checkpoint_bytes(fabric.shards[0].state).encode("utf-8")
        fabric.mark_shard_down(0, reason="test")
        restored = fabric.restore_shard(0, payload)
        _assert_type_major(restored)
        _assert_type_major(fabric.shards[0].state)
        fabric.verify_consistency()


# ------------------------------------------------------- admission parity


def _outcome(call, request):
    try:
        return call(request)
    except ValidationError as err:
        return ("ValidationError", str(err))


def _full_validation(pool, request):
    return as_int_vector(request, name="request", length=pool.num_types)


def _admission_pools():
    pool = random_pool(
        PoolSpec(racks=2, nodes_per_rack=4, capacity_high=3),
        VMTypeCatalog.ec2_default(), seed=17,
    )
    state = ClusterState.from_pool(pool)
    policy = OnlineHeuristic()
    for rid, demand in enumerate(([3, 1, 2], [2, 2, 0], [1, 0, 3])):
        state.allocate_lease(rid, policy.place(state, demand).allocation)
    plain = pool.copy()
    plain.allocate(state.allocated)
    return state, plain


_ADMISSION_POOLS = _admission_pools()


@settings(max_examples=150, deadline=None)
@given(
    values=st.lists(st.integers(-3, 30), min_size=1, max_size=5),
    form=st.sampled_from(("int64", "list", "float", "fractional", "int32")),
)
def test_admission_predicates_match_full_validation(values, form):
    """``exceeds_max_capacity`` / ``can_satisfy`` read an ``int64`` vector of
    length m after the sign check only; every input must still give the
    booleans, or the :class:`ValidationError` message, of validating it
    through ``as_int_vector`` first."""
    request = {
        "int64": lambda: np.array(values, dtype=np.int64),
        "list": lambda: list(values),
        "float": lambda: np.array(values, dtype=np.float64),
        "fractional": lambda: np.array(values, dtype=np.float64) + 0.5,
        "int32": lambda: np.array(values, dtype=np.int32),
    }[form]()
    for pool in _ADMISSION_POOLS:
        exceeds = _outcome(
            lambda r: bool(np.any(
                _full_validation(pool, r) > pool.max_capacity.sum(axis=0)
            )),
            request,
        )
        fits = _outcome(
            lambda r: bool(np.all(
                _full_validation(pool, r) <= pool.remaining.sum(axis=0)
            )),
            request,
        )
        assert _outcome(pool.exceeds_max_capacity, request) == exceeds
        assert _outcome(pool.can_satisfy, request) == fits


@pytest.mark.parametrize(
    "request_, message",
    [
        (np.array([1, -2, 0], dtype=np.int64), "non-negative"),
        (np.array([1, 2], dtype=np.int64), "length 3"),
        (np.array([1.5, 0.0, 0.0]), "integers"),
        ([1, -1, 0], "non-negative"),
    ],
)
def test_admission_predicates_reject_what_validation_rejects(request_, message):
    for pool in _ADMISSION_POOLS:
        for predicate in (pool.exceeds_max_capacity, pool.can_satisfy):
            with pytest.raises(ValidationError, match=message):
                predicate(request_)
