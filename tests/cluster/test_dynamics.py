"""Tests for the failure-aware dynamic resource pool."""

import numpy as np
import pytest

from repro.cluster.dynamics import DynamicResourcePool
from repro.cluster.topology import Topology
from repro.cluster.vmtypes import VMTypeCatalog
from repro.core.placement.exact import solve_sd_exact
from repro.core.placement.greedy import OnlineHeuristic
from repro.util.errors import CapacityError, ValidationError


@pytest.fixture
def pool():
    topo = Topology.build(2, 3, capacity=[2, 2, 1])  # 6 nodes
    return DynamicResourcePool(topo, VMTypeCatalog.ec2_default())


class TestFailure:
    def test_failed_node_offers_nothing(self, pool):
        pool.fail_node(0)
        assert pool.remaining[0].sum() == 0
        assert not pool.is_active(0)
        assert pool.num_active_nodes == 5

    def test_fail_returns_lost_row(self, pool):
        a = np.zeros((6, 3), dtype=np.int64)
        a[0] = [1, 2, 0]
        pool.allocate(a)
        lost = pool.fail_node(0)
        assert lost.tolist() == [1, 2, 0]

    def test_double_failure_rejected(self, pool):
        pool.fail_node(1)
        with pytest.raises(ValidationError):
            pool.fail_node(1)

    def test_out_of_range_rejected(self, pool):
        with pytest.raises(ValidationError):
            pool.fail_node(99)

    def test_recover_restores_capacity(self, pool):
        pool.fail_node(2)
        pool.recover_node(2)
        assert pool.is_active(2)
        assert pool.remaining[2].tolist() == [2, 2, 1]

    def test_recover_live_node_rejected(self, pool):
        with pytest.raises(ValidationError):
            pool.recover_node(0)

    def test_max_capacity_shrinks(self, pool):
        before = pool.max_capacity.sum()
        pool.fail_node(0)
        assert pool.max_capacity.sum() == before - 5

    def test_exceeds_max_capacity_sees_failures(self, pool):
        # 12 smalls fit only while all 6 nodes live.
        assert not pool.exceeds_max_capacity([12, 0, 0])
        pool.fail_node(0)
        assert pool.exceeds_max_capacity([12, 0, 0])

    def test_allocate_on_failed_node_rejected(self, pool):
        pool.fail_node(0)
        a = np.zeros((6, 3), dtype=np.int64)
        a[0, 0] = 1
        with pytest.raises(CapacityError):
            pool.allocate(a)


class TestDistances:
    def test_failed_node_unreachable(self, pool):
        pool.fail_node(3)
        d = pool.distance_matrix
        assert d[3, 0] == DynamicResourcePool.UNREACHABLE
        assert d[0, 3] == DynamicResourcePool.UNREACHABLE
        assert d[3, 3] == 0.0

    def test_static_matrix_unchanged(self, pool):
        static_before = pool.static_distance_matrix.copy()
        pool.fail_node(3)
        assert np.array_equal(pool.static_distance_matrix, static_before)

    def test_live_distances_unchanged(self, pool):
        pool.fail_node(5)
        assert pool.distance_matrix[0, 1] == 1.0
        assert pool.distance_matrix[0, 3] == 2.0


class TestPlacementRoutesAroundFailures:
    def test_heuristic_avoids_failed_nodes(self, pool):
        pool.fail_node(0)
        pool.fail_node(1)
        alloc = OnlineHeuristic().place(pool, [4, 2, 1]).allocation
        assert alloc is not None
        assert alloc.matrix[0].sum() == 0
        assert alloc.matrix[1].sum() == 0

    def test_exact_avoids_failed_nodes(self, pool):
        pool.fail_node(2)
        alloc = solve_sd_exact([4, 2, 1], pool)
        assert alloc.matrix[2].sum() == 0

    def test_failure_degrades_affinity(self, pool):
        """Killing rack-A nodes forces cross-rack placement."""
        before = solve_sd_exact([6, 0, 0], pool).distance
        pool.fail_node(2)  # rack A loses a node
        after = solve_sd_exact([6, 0, 0], pool).distance
        assert after >= before


class TestEviction:
    def test_evict_clears_row(self, pool):
        a = np.zeros((6, 3), dtype=np.int64)
        a[1] = [2, 1, 0]
        pool.allocate(a)
        pool.fail_node(1)
        evicted = pool.evict_node(1)
        assert evicted.tolist() == [2, 1, 0]
        assert pool.allocated[1].sum() == 0

    def test_lost_vms_reports_stranded(self, pool):
        a = np.zeros((6, 3), dtype=np.int64)
        a[1] = [2, 0, 0]
        a[4] = [1, 0, 0]
        pool.allocate(a)
        pool.fail_node(1)
        stranded = pool.lost_vms()
        assert stranded[1].tolist() == [2, 0, 0]
        assert stranded[4].sum() == 0


class TestReconfiguration:
    def test_grow_capacity(self, pool):
        pool.reconfigure_node(0, [4, 4, 2])
        assert pool.remaining[0].tolist() == [4, 4, 2]

    def test_shrink_below_allocation_overcommits(self, pool):
        a = np.zeros((6, 3), dtype=np.int64)
        a[0] = [2, 0, 0]
        pool.allocate(a)
        pool.reconfigure_node(0, [1, 1, 1])
        # Over-committed: nothing more offered, allocation still tracked.
        assert pool.remaining[0, 0] == 0
        assert pool.allocated[0, 0] == 2

    def test_reconfigure_failed_node_rejected(self, pool):
        pool.fail_node(0)
        with pytest.raises(ValidationError):
            pool.reconfigure_node(0, [1, 1, 1])


class TestCopy:
    def test_copy_carries_liveness(self, pool):
        pool.fail_node(0)
        pool.reconfigure_node(1, [9, 9, 9])
        clone = pool.copy()
        assert not clone.is_active(0)
        assert clone.remaining[1].tolist() == [9, 9, 9]

    def test_copy_is_independent(self, pool):
        clone = pool.copy()
        clone.fail_node(0)
        assert pool.is_active(0)
