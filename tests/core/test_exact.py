"""Tests for the exact per-center transportation solver."""

import numpy as np
import pytest

from repro.core.placement.exact import ExactPlacement, fill_from_center, solve_sd_exact
from repro.util.errors import InfeasibleRequestError

from tests.conftest import make_pool


class TestFillFromCenter:
    def test_center_filled_first(self):
        remaining = np.array([[2, 1], [2, 1], [2, 1]])
        dist_row = np.array([0.0, 1.0, 2.0])
        alloc = fill_from_center(np.array([3, 1]), remaining, dist_row)
        assert alloc[0].tolist() == [2, 1]
        assert alloc[1].tolist() == [1, 0]
        assert alloc[2].tolist() == [0, 0]

    def test_insufficient_returns_none(self):
        remaining = np.array([[1, 0], [1, 0]])
        assert fill_from_center(np.array([3, 0]), remaining, np.array([0.0, 1.0])) is None

    def test_equal_distance_taken_in_index_order(self):
        remaining = np.array([[0, 0], [1, 0], [1, 0]])
        dist_row = np.array([0.0, 1.0, 1.0])
        alloc = fill_from_center(np.array([1, 0]), remaining, dist_row)
        assert alloc[1, 0] == 1 and alloc[2, 0] == 0

    def test_exact_demand_met(self):
        remaining = np.array([[3, 3], [3, 3]])
        alloc = fill_from_center(np.array([2, 1]), remaining, np.array([0.0, 1.0]))
        assert alloc.sum(axis=0).tolist() == [2, 1]


class TestSolveSDExact:
    def test_single_node_fit_gives_zero(self):
        pool = make_pool(2, 3, capacity=(3, 3, 2))
        alloc = solve_sd_exact([2, 2, 1], pool)
        assert alloc.distance == 0.0
        assert alloc.num_nodes_used == 1

    def test_demand_exactly_met(self):
        pool = make_pool(2, 3, capacity=(2, 2, 1))
        alloc = solve_sd_exact([3, 4, 2], pool)
        assert alloc.demand.tolist() == [3, 4, 2]

    def test_within_remaining(self):
        pool = make_pool(2, 3, capacity=(2, 2, 1))
        alloc = solve_sd_exact([3, 4, 2], pool)
        assert np.all(alloc.matrix <= pool.remaining)

    def test_prefers_single_rack(self):
        # 2 racks x 3 nodes with capacity 2 per type: 5 VMs of one type fit
        # in one rack (3 nodes x 2 = 6), so no cross-rack VM is needed.
        pool = make_pool(2, 3, capacity=(2, 2, 1))
        alloc = solve_sd_exact([5, 0, 0], pool)
        racks = {pool.topology.rack_of(int(i)) for i in alloc.used_nodes}
        assert len(racks) == 1

    def test_spans_racks_only_when_forced(self):
        pool = make_pool(2, 3, capacity=(2, 0, 0))
        # 8 smalls > one rack's 6: must cross racks, minimum 2 VMs outside.
        alloc = solve_sd_exact([8, 0, 0], pool)
        # Optimal: 6 in rack A (2 per node, distance 4*d1 from center)
        # wait - center node holds 2, 4 same-rack at d1, 2 cross at d2.
        assert alloc.distance == 4 * 1.0 + 2 * 2.0

    def test_infeasible_raises(self):
        pool = make_pool(1, 2, capacity=(1, 1, 1))
        with pytest.raises(InfeasibleRequestError):
            solve_sd_exact([5, 0, 0], pool)

    def test_wait_returns_none(self):
        pool = make_pool(1, 2, capacity=(1, 1, 1))
        pool.allocate(np.array([[1, 0, 0], [1, 0, 0]]))
        assert solve_sd_exact([1, 0, 0], pool) is None

    def test_does_not_mutate_pool(self):
        pool = make_pool(2, 3)
        before = pool.allocated
        solve_sd_exact([3, 2, 1], pool)
        assert np.array_equal(pool.allocated, before)

    def test_respects_prior_allocations(self):
        pool = make_pool(2, 2, capacity=(2, 0, 0))
        # Fill rack A completely; request must land in rack B.
        fill = np.zeros((4, 3), dtype=np.int64)
        fill[0, 0] = 2
        fill[1, 0] = 2
        pool.allocate(fill)
        alloc = solve_sd_exact([2, 0, 0], pool)
        racks = {pool.topology.rack_of(int(i)) for i in alloc.used_nodes}
        assert racks == {1}

    def test_multicloud_prefers_single_cloud(self):
        pool = make_pool(2, 2, capacity=(1, 1, 1), clouds=2)
        alloc = solve_sd_exact([4, 0, 0], pool)
        clouds = {pool.topology.cloud_of(int(i)) for i in alloc.used_nodes}
        assert len(clouds) == 1

    def test_adapter_class(self):
        pool = make_pool(2, 3)
        a = ExactPlacement().place(pool, [1, 1, 0]).allocation
        b = solve_sd_exact([1, 1, 0], pool)
        assert a.distance == b.distance
