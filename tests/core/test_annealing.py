"""Tests for the simulated-annealing GSD solver."""

import numpy as np
import pytest

from repro.core.placement.annealing import AnnealingConfig, AnnealingGsdSolver
from repro.core.placement.global_opt import GlobalSubOptimizer, total_distance
from repro.core.placement.greedy import OnlineHeuristic
from repro.core.placement.ilp import solve_gsd_milp
from repro.util.errors import ValidationError

from tests.conftest import make_pool


@pytest.fixture
def pool():
    return make_pool(3, 4, capacity=(1, 1, 1))


@pytest.fixture
def batch():
    return [np.array([3, 2, 0]), np.array([2, 2, 1]), np.array([0, 3, 2])]


FAST = AnnealingConfig(iterations=2000, seed=0)


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"iterations": 0},
            {"initial_temperature": 0},
            {"cooling": 1.0},
            {"cooling": 0.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            AnnealingConfig(**kwargs)


class TestPlaceBatch:
    def test_demands_preserved(self, pool, batch):
        allocs = AnnealingGsdSolver(FAST).place_batch(pool, batch)
        for req, alloc in zip(batch, allocs):
            assert np.array_equal(alloc.demand, req)

    def test_joint_feasibility(self, pool, batch):
        allocs = AnnealingGsdSolver(FAST).place_batch(pool, batch)
        combined = sum(a.matrix for a in allocs)
        assert np.all(combined <= pool.remaining)

    def test_pool_not_mutated(self, pool, batch):
        AnnealingGsdSolver(FAST).place_batch(pool, batch)
        assert pool.allocated.sum() == 0

    def test_never_worse_than_algorithm2(self, pool, batch):
        opt = GlobalSubOptimizer(OnlineHeuristic())
        algo2 = opt.place_batch(pool, batch)
        annealed = AnnealingGsdSolver(FAST).place_batch(pool, batch)
        assert total_distance(annealed) <= total_distance(algo2) + 1e-9

    def test_without_refinement_never_worse_than_online(self, pool, batch):
        opt = GlobalSubOptimizer(OnlineHeuristic())
        online = opt.place_online(batch, pool)
        annealed = AnnealingGsdSolver(
            FAST, refine_algorithm2=False
        ).place_batch(pool, batch)
        assert total_distance(annealed) <= total_distance(online) + 1e-9

    def test_deterministic_given_seed(self, pool, batch):
        a = AnnealingGsdSolver(AnnealingConfig(iterations=1000, seed=5)).place_batch(
            pool, batch
        )
        b = AnnealingGsdSolver(AnnealingConfig(iterations=1000, seed=5)).place_batch(
            pool, batch
        )
        assert total_distance(a) == total_distance(b)
        for x, y in zip(a, b):
            assert np.array_equal(x.matrix, y.matrix)

    def test_empty_batch(self, pool):
        assert AnnealingGsdSolver(FAST).place_batch(pool, []) == []

    def test_unplaceable_requests_stay_none(self):
        pool = make_pool(1, 2, capacity=(1, 0, 0))
        batch = [np.array([2, 0, 0]), np.array([1, 0, 0])]
        allocs = AnnealingGsdSolver(FAST).place_batch(pool, batch)
        assert allocs[0] is not None
        assert allocs[1] is None

    def test_close_to_exact_gsd_on_small_instance(self):
        """With enough iterations, annealing approaches the MILP optimum."""
        pool = make_pool(2, 3, capacity=(2, 1, 0))
        batch = [np.array([3, 1, 0]), np.array([3, 1, 0]), np.array([3, 1, 0])]
        exact = solve_gsd_milp(batch, pool)
        annealed = AnnealingGsdSolver(
            AnnealingConfig(iterations=8000, seed=2)
        ).place_batch(pool, batch)
        exact_total = sum(a.distance for a in exact)
        assert total_distance(annealed) <= exact_total * 1.25 + 1e-9
        assert total_distance(annealed) >= exact_total - 1e-9
