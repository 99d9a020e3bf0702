"""Tests for Algorithm 2, the global sub-optimization algorithm."""

import numpy as np
import pytest

from repro.core.placement.global_opt import (
    GlobalOptimizationStats,
    GlobalSubOptimizer,
    total_distance,
)
from repro.core.placement.greedy import OnlineHeuristic
from repro.util.errors import ValidationError

from tests.conftest import make_pool


@pytest.fixture
def pool():
    return make_pool(3, 4, capacity=(1, 1, 1))


@pytest.fixture
def batch():
    return [np.array([3, 2, 0]), np.array([2, 2, 1]), np.array([0, 3, 2])]


class TestPlaceOnline:
    def test_sequential_depletion(self, pool, batch):
        opt = GlobalSubOptimizer()
        allocs = opt.place_online(batch, pool)
        assert all(a is not None for a in allocs)
        combined = sum(a.matrix for a in allocs)
        assert np.all(combined <= pool.remaining)

    def test_pool_not_mutated(self, pool, batch):
        GlobalSubOptimizer().place_online(batch, pool)
        assert pool.allocated.sum() == 0

    def test_unplaceable_requests_are_none(self):
        pool = make_pool(1, 2, capacity=(1, 0, 0))
        batch = [np.array([2, 0, 0]), np.array([1, 0, 0])]
        allocs = GlobalSubOptimizer().place_online(batch, pool)
        assert allocs[0] is not None
        assert allocs[1] is None  # pool exhausted


class TestPlaceBatch:
    def test_never_worse_than_online(self, pool, batch):
        opt = GlobalSubOptimizer()
        online = opt.place_online(batch, pool)
        optimized = opt.place_batch(pool, batch)
        assert total_distance(optimized) <= total_distance(online) + 1e-9

    def test_demands_preserved(self, pool, batch):
        allocs = GlobalSubOptimizer().place_batch(pool, batch)
        for req, alloc in zip(batch, allocs):
            assert np.array_equal(alloc.demand, req)

    def test_joint_feasibility_preserved(self, pool, batch):
        allocs = GlobalSubOptimizer().place_batch(pool, batch)
        combined = sum(a.matrix for a in allocs)
        assert np.all(combined <= pool.remaining)

    def test_stats_populated(self, pool, batch):
        opt = GlobalSubOptimizer()
        opt.place_batch(pool, batch)
        stats = opt.last_stats
        assert stats.initial_total_distance >= stats.final_total_distance
        assert stats.rounds >= 1

    def test_single_round_mode(self, pool, batch):
        opt = GlobalSubOptimizer(max_rounds=1)
        allocs = opt.place_batch(pool, batch)
        assert opt.last_stats.rounds == 1
        assert all(a is not None for a in allocs)

    def test_invalid_rounds_rejected(self):
        with pytest.raises(ValidationError):
            GlobalSubOptimizer(max_rounds=0)

    def test_paper_transfer_mode(self, pool, batch):
        opt = GlobalSubOptimizer(use_paper_transfer=True)
        allocs = opt.place_batch(pool, batch)
        online = opt.place_online(batch, pool)
        assert total_distance(allocs) <= total_distance(online) + 1e-9

    def test_empty_batch(self, pool):
        opt = GlobalSubOptimizer()
        assert opt.place_batch(pool, []) == []
        assert opt.last_stats.initial_total_distance == 0.0

    def test_same_center_pairs_skipped(self):
        """Paper: 'If two requests share the same central node, do nothing.'
        Two single-node clusters on the same node must remain untouched."""
        pool = make_pool(2, 2, capacity=(4, 0, 0))
        batch = [np.array([2, 0, 0]), np.array([2, 0, 0])]
        opt = GlobalSubOptimizer()
        allocs = opt.place_batch(pool, batch)
        assert all(a.distance == 0.0 for a in allocs)
        assert opt.last_stats.exchanges == 0

    def test_improves_contended_batch(self):
        """Crossed placements from sequential greed are repaired."""
        # Rack A: nodes 0-1 (cap 2 each); rack B: nodes 2-3 (cap 2 each).
        pool = make_pool(2, 2, capacity=(2, 0, 0))
        # Three requests of 3 VMs each: 9 VMs into 8 slots - infeasible, so
        # use two of 3: first takes rack A + 1 in B, second the rest.
        batch = [np.array([3, 0, 0]), np.array([3, 0, 0])]
        opt = GlobalSubOptimizer()
        online = opt.place_online(batch, pool)
        optimized = opt.place_batch(pool, batch)
        assert total_distance(optimized) <= total_distance(online)


class TestStats:
    def test_improvement_ratio(self):
        s = GlobalOptimizationStats(
            initial_total_distance=100.0, final_total_distance=90.0
        )
        assert s.improvement == pytest.approx(10.0)
        assert s.improvement_ratio == pytest.approx(0.1)

    def test_zero_initial(self):
        s = GlobalOptimizationStats()
        assert s.improvement_ratio == 0.0


class TestTotalDistance:
    def test_skips_none(self):
        pool = make_pool(1, 2, capacity=(1, 0, 0))
        allocs = GlobalSubOptimizer().place_online(
            [np.array([2, 0, 0]), np.array([1, 0, 0])], pool
        )
        assert total_distance(allocs) == allocs[0].distance
