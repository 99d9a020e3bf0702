"""Tests for the affinity-blind baseline placements."""

import numpy as np
import pytest

from repro.core.placement.baselines import (
    BestFitPlacement,
    FirstFitPlacement,
    RandomPlacement,
    StripedPlacement,
    random_center_distance,
)
from repro.core.placement.greedy import OnlineHeuristic
from repro.util.errors import InfeasibleRequestError

from tests.conftest import make_pool

ALL_BASELINES = [
    FirstFitPlacement,
    BestFitPlacement,
    lambda: RandomPlacement(seed=3),
    StripedPlacement,
]


@pytest.mark.parametrize("factory", ALL_BASELINES)
class TestCommonContract:
    def test_demand_met(self, factory):
        pool = make_pool(3, 3, capacity=(2, 1, 1))
        alloc = factory().place(pool, [4, 2, 2]).allocation
        assert alloc.demand.tolist() == [4, 2, 2]
        assert np.all(alloc.matrix <= pool.remaining)

    def test_pool_unchanged(self, factory):
        pool = make_pool(3, 3, capacity=(2, 1, 1))
        factory().place(pool, [4, 2, 2])
        assert pool.allocated.sum() == 0

    def test_infeasible_raises(self, factory):
        pool = make_pool(1, 1, capacity=(1, 1, 1))
        with pytest.raises(InfeasibleRequestError):
            factory().place(pool, [2, 0, 0])

    def test_wait_returns_none(self, factory):
        pool = make_pool(1, 1, capacity=(1, 0, 0))
        pool.allocate(np.array([[1, 0, 0]]))
        assert factory().place(pool, [1, 0, 0]).allocation is None


class TestFirstFit:
    def test_fills_in_index_order(self):
        pool = make_pool(2, 2, capacity=(2, 0, 0))
        alloc = FirstFitPlacement().place(pool, [3, 0, 0]).allocation
        assert alloc.matrix[:, 0].tolist() == [2, 1, 0, 0]


class TestBestFit:
    def test_prefers_most_loaded(self):
        pool = make_pool(1, 3, capacity=(3, 0, 0))
        # Preload node 1 so it has least remaining (most loaded).
        pre = np.zeros((3, 3), dtype=np.int64)
        pre[1, 0] = 2
        pool.allocate(pre)
        alloc = BestFitPlacement().place(pool, [1, 0, 0]).allocation
        assert alloc.matrix[1, 0] == 1

    def test_skips_empty_nodes(self):
        pool = make_pool(1, 2, capacity=(2, 0, 0))
        pre = np.zeros((2, 3), dtype=np.int64)
        pre[0, 0] = 2  # node 0 exhausted (remaining 0)
        pool.allocate(pre)
        alloc = BestFitPlacement().place(pool, [1, 0, 0]).allocation
        assert alloc.matrix[1, 0] == 1


class TestRandom:
    def test_deterministic_given_seed(self):
        pool = make_pool(3, 3, capacity=(2, 1, 1))
        a = RandomPlacement(seed=9).place(pool, [4, 2, 1]).allocation
        b = RandomPlacement(seed=9).place(pool, [4, 2, 1]).allocation
        assert np.array_equal(a.matrix, b.matrix)

    def test_spreads_more_than_heuristic_on_average(self):
        pool = make_pool(3, 5, capacity=(1, 1, 1))
        demand = [5, 5, 3]
        heur = OnlineHeuristic().place(pool, demand).allocation.distance
        rand = np.mean(
            [
                RandomPlacement(seed=s).place(pool, demand).allocation.distance
                for s in range(10)
            ]
        )
        assert rand >= heur


class TestStriped:
    def test_uses_every_rack_when_possible(self):
        pool = make_pool(3, 2, capacity=(2, 0, 0))
        alloc = StripedPlacement().place(pool, [3, 0, 0]).allocation
        racks = {pool.topology.rack_of(int(i)) for i in alloc.used_nodes}
        assert len(racks) == 3

    def test_worst_or_equal_affinity_vs_heuristic(self):
        pool = make_pool(3, 4, capacity=(2, 1, 1))
        demand = [6, 3, 2]
        striped = StripedPlacement().place(pool, demand).allocation.distance
        heur = OnlineHeuristic().place(pool, demand).allocation.distance
        assert striped >= heur

    def test_handles_rack_exhaustion(self):
        # Rack 0 can host type 0; racks 1-2 cannot after depletion.
        pool = make_pool(3, 1, capacity=(2, 0, 0))
        pre = np.zeros((3, 3), dtype=np.int64)
        pre[1, 0] = 2
        pre[2, 0] = 2
        pool.allocate(pre)
        alloc = StripedPlacement().place(pool, [2, 0, 0]).allocation
        assert alloc.matrix[0, 0] == 2


class TestRandomCenterDistance:
    def test_never_below_optimal(self):
        pool = make_pool(3, 3, capacity=(1, 1, 1))
        alloc = OnlineHeuristic().place(pool, [4, 2, 1]).allocation
        for seed in range(10):
            d, center = random_center_distance(alloc, pool.distance_matrix, seed)
            assert d >= alloc.distance
            assert 0 <= center < pool.num_nodes

    def test_deterministic(self):
        pool = make_pool(3, 3, capacity=(1, 1, 1))
        alloc = OnlineHeuristic().place(pool, [4, 2, 1]).allocation
        a = random_center_distance(alloc, pool.distance_matrix, 4)
        b = random_center_distance(alloc, pool.distance_matrix, 4)
        assert a == b
