"""Shared compliance tests for the one-call placement protocol.

Every single-request algorithm must honor
``place(pool, request, *, rng=None, obs=None) -> PlacementResult`` with the
paper's admission semantics, refuse the pre-protocol ``place(request, pool)``
order with a ``ValidationError``, and produce bit-identical allocations
whether instrumented or not. Batch algorithms must honor the analogous
``place_batch(pool, requests, *, rng=None, obs=None)``.
"""

import warnings

import numpy as np
import pytest

from repro.cluster.vmtypes import VMTypeCatalog
from repro.cluster import PoolSpec, random_pool
from repro.core.placement.annealing import AnnealingConfig, AnnealingGsdSolver
from repro.core.placement.baselines import (
    BestFitPlacement,
    FirstFitPlacement,
    RandomPlacement,
    StripedPlacement,
)
from repro.core.placement.base import PlacementAlgorithm, PlacementResult
from repro.core.placement.bruteforce import BruteForcePlacement
from repro.core.placement.exact import ExactPlacement
from repro.core.placement.global_opt import GlobalSubOptimizer
from repro.core.placement.greedy import OnlineHeuristic
from repro.core.placement.ilp import MilpPlacement
from repro.core.placement.jobaware import JobAwarePlacement
from repro.mapreduce.job import MB, MapReduceJob
from repro.obs.registry import MetricsRegistry
from repro.util.errors import InfeasibleRequestError, ValidationError

SINGLE_ALGORITHMS = [
    pytest.param(lambda: OnlineHeuristic(), id="online-heuristic"),
    pytest.param(lambda: OnlineHeuristic(stop="first"), id="online-first"),
    pytest.param(lambda: FirstFitPlacement(), id="first-fit"),
    pytest.param(lambda: BestFitPlacement(), id="best-fit"),
    pytest.param(lambda: RandomPlacement(seed=0), id="random"),
    pytest.param(lambda: StripedPlacement(), id="striped"),
    pytest.param(lambda: ExactPlacement(), id="exact"),
    pytest.param(lambda: BruteForcePlacement(), id="bruteforce"),
    pytest.param(lambda: MilpPlacement(), id="milp"),
    pytest.param(
        lambda: JobAwarePlacement(
            MapReduceJob(name="wc", input_bytes=64 * MB, block_size=16 * MB)
        ),
        id="jobaware",
    ),
]

BATCH_ALGORITHMS = [
    pytest.param(lambda: GlobalSubOptimizer(), id="global-subopt"),
    pytest.param(
        lambda: AnnealingGsdSolver(AnnealingConfig(iterations=50, seed=0)),
        id="annealing",
    ),
]


@pytest.fixture
def pool():
    return random_pool(
        PoolSpec(racks=2, nodes_per_rack=4, capacity_high=3),
        VMTypeCatalog.ec2_default(),
        seed=11,
    )


DEMAND = [2, 3, 1]


@pytest.mark.parametrize("factory", SINGLE_ALGORITHMS)
class TestSingleProtocol:
    def test_new_order_returns_placement_result(self, factory, pool):
        result = factory().place(pool, DEMAND)
        assert isinstance(result, PlacementResult)
        assert result.placed and bool(result)
        assert np.array_equal(
            result.allocation.matrix.sum(axis=0), np.asarray(DEMAND)
        )
        assert result.algorithm == factory().name
        assert result.elapsed >= 0.0
        assert result.metrics["placed"] == 1
        assert result.distance == result.allocation.distance
        assert result.center == result.allocation.center

    def test_wait_outcome(self, factory, pool):
        # More than current availability but under max capacity: must wait.
        pool = pool.copy()
        matrix = pool.remaining.copy()
        matrix[0] = 0
        pool.allocate(matrix)
        demand = np.asarray(pool.remaining.sum(axis=0)) + 1
        if pool.exceeds_max_capacity(demand):
            pytest.skip("pool too tight to express a wait for this layout")
        result = factory().place(pool, demand)
        assert isinstance(result, PlacementResult)
        assert not result.placed and not bool(result)
        assert result.center is None
        assert np.isnan(result.distance)

    def test_refuse_raises(self, factory, pool):
        demand = pool.max_capacity.sum(axis=0) + 1
        with pytest.raises(InfeasibleRequestError):
            factory().place(pool, demand)

    def test_legacy_order_warns_once_and_matches(self, factory, pool):
        # The test id is pinned from when ``place(request, pool)`` warned and
        # returned a raw Allocation; the shim is gone, and the old order is
        # now what any other non-pool first argument is: a ValidationError.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="ResourcePool as the first"):
                factory().place(DEMAND, pool)
            with pytest.raises(ValidationError, match="ResourcePool as the first"):
                factory().place_and_commit(DEMAND, pool)

    def test_obs_is_bit_identical(self, factory, pool):
        bare = factory().place(pool, DEMAND, obs=None)
        registry = MetricsRegistry()
        observed = factory().place(pool, DEMAND, obs=registry)
        assert np.array_equal(bare.allocation.matrix, observed.allocation.matrix)
        assert bare.distance == observed.distance
        assert bare.center == observed.center
        flat = registry.flatten()
        key = (
            "repro_placement_requests_total",
            (("algorithm", factory().name), ("outcome", "placed")),
        )
        assert flat[key] == 1.0

    def test_non_pool_arguments_rejected(self, factory, pool):
        with pytest.raises(ValidationError):
            factory().place(DEMAND, DEMAND)
        with pytest.raises(ValidationError):
            factory().place(pool)


@pytest.mark.parametrize("factory", BATCH_ALGORITHMS)
class TestBatchProtocol:
    def test_new_order(self, factory, pool):
        batch = [[1, 1, 0], [0, 2, 1]]
        allocs = factory().place_batch(pool, batch)
        assert len(allocs) == 2
        assert all(a is not None for a in allocs)

    def test_legacy_order_warns_once_and_matches(self, factory, pool):
        # Test id pinned, as above: the old order is a ValidationError.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="ResourcePool as the first"):
                factory().place_batch([[1, 1, 0], [0, 2, 1]], pool)

    def test_obs_is_bit_identical(self, factory, pool):
        batch = [[1, 1, 0], [0, 2, 1], [2, 0, 0]]
        bare = factory().place_batch(pool, batch, obs=None)
        observed = factory().place_batch(pool, batch, obs=MetricsRegistry())
        for a, b in zip(bare, observed):
            assert np.array_equal(a.matrix, b.matrix)

    def test_non_pool_arguments_rejected(self, factory, pool):
        with pytest.raises(ValidationError):
            factory().place_batch([[1, 0, 0]], [[1, 0, 0]])


class TestPlacementResult:
    def test_repr_mentions_state(self, pool):
        placed = OnlineHeuristic().place(pool, DEMAND)
        assert "online-heuristic" in repr(placed)
        waiting = PlacementResult(allocation=None, algorithm="x")
        assert "waiting" in repr(waiting)

    def test_place_and_commit_updates_pool(self, pool):
        pool = pool.copy()
        before = pool.remaining.sum()
        result = OnlineHeuristic().place_and_commit(pool, DEMAND)
        assert isinstance(result, PlacementResult)
        assert pool.remaining.sum() == before - sum(DEMAND)

    def test_subclass_must_implement_hook(self):
        with pytest.raises(TypeError):

            class Incomplete(PlacementAlgorithm):
                pass

            Incomplete()
