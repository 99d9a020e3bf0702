"""Tests for job-aware provisioning and the analytic runtime predictor."""

import numpy as np
import pytest

from repro.cluster import PoolSpec, VMTypeCatalog, random_pool
from repro.core.placement.exact import solve_sd_exact
from repro.core.placement.jobaware import (
    JobAwarePlacement,
    predict_runtime,
    spread_fill,
)
from repro.mapreduce import MapReduceEngine, VirtualCluster, grep, sort, wordcount
from repro.util.errors import InfeasibleRequestError

from tests.conftest import make_pool


@pytest.fixture(scope="module")
def pool():
    return random_pool(
        PoolSpec(racks=3, nodes_per_rack=10, capacity_high=3),
        VMTypeCatalog.ec2_default(),
        seed=9,
    )


DEMAND = np.array([4, 6, 2])


class TestSpreadFill:
    def test_demand_met(self, pool):
        alloc = spread_fill(DEMAND, pool)
        assert np.array_equal(alloc.demand, DEMAND)
        assert np.all(alloc.matrix <= pool.remaining)

    def test_uses_more_nodes_than_compact(self, pool):
        compact = solve_sd_exact(DEMAND, pool)
        spread = spread_fill(DEMAND, pool)
        assert spread.num_nodes_used >= compact.num_nodes_used

    def test_insufficient_returns_none(self):
        tiny = make_pool(1, 1, capacity=(1, 1, 1))
        assert spread_fill(np.array([2, 0, 0]), tiny) is None


class TestPredictRuntime:
    def test_phases_positive(self, pool):
        alloc = solve_sd_exact(DEMAND, pool)
        pred = predict_runtime(wordcount(), alloc, pool)
        assert pred.map_time > 0
        assert pred.shuffle_time > 0
        assert pred.reduce_time > 0
        assert pred.total == pytest.approx(
            pred.map_time + pred.shuffle_time + pred.reduce_time
        )

    def test_shuffle_heavy_prefers_compact(self, pool):
        compact = solve_sd_exact(DEMAND, pool)
        spread = spread_fill(DEMAND, pool)
        job = sort()
        assert (
            predict_runtime(job, compact, pool).total
            < predict_runtime(job, spread, pool).total
        )

    def test_scan_heavy_prefers_spread(self, pool):
        compact = solve_sd_exact(DEMAND, pool)
        spread = spread_fill(DEMAND, pool)
        job = grep()
        assert (
            predict_runtime(job, spread, pool).total
            < predict_runtime(job, compact, pool).total
        )

    def test_shuffle_time_grows_with_selectivity(self, pool):
        alloc = solve_sd_exact(DEMAND, pool)
        light = predict_runtime(wordcount(combiner=True), alloc, pool)
        heavy = predict_runtime(wordcount(combiner=False), alloc, pool)
        assert heavy.shuffle_time > light.shuffle_time

    def test_ordinal_agreement_with_engine(self, pool):
        """The predictor must rank compact vs spread like the DES engine."""
        catalog = pool.catalog
        compact = solve_sd_exact(DEMAND, pool)
        spread = spread_fill(DEMAND, pool)
        for job in (sort(), grep()):
            engine_rt = {}
            pred_rt = {}
            for name, alloc in (("compact", compact), ("spread", spread)):
                cluster = VirtualCluster.from_allocation(
                    alloc, pool.distance_matrix, catalog
                )
                result = MapReduceEngine(
                    cluster, disk_contention=1.0, seed=3
                ).run(job, hdfs_seed=3)
                engine_rt[name] = result.runtime
                pred_rt[name] = predict_runtime(job, alloc, pool).total
            assert (
                min(engine_rt, key=engine_rt.get)
                == min(pred_rt, key=pred_rt.get)
            ), job.name


class TestJobAwarePlacement:
    def test_sort_gets_compact(self, pool):
        ja = JobAwarePlacement(sort())
        alloc = ja.place(pool, DEMAND).allocation
        exact = solve_sd_exact(DEMAND, pool)
        assert alloc.distance == exact.distance

    def test_grep_gets_spread(self, pool):
        ja = JobAwarePlacement(grep())
        alloc = ja.place(pool, DEMAND).allocation
        exact = solve_sd_exact(DEMAND, pool)
        assert alloc.distance > exact.distance  # deliberately non-compact

    def test_predictions_recorded(self, pool):
        ja = JobAwarePlacement(sort())
        ja.place(pool, DEMAND)
        assert set(ja.last_predictions) == {"compact", "spread"}

    def test_demand_always_met(self, pool):
        for job in (sort(), grep(), wordcount()):
            alloc = JobAwarePlacement(job).place(pool, DEMAND).allocation
            assert np.array_equal(alloc.demand, DEMAND)

    def test_infeasible_raises(self):
        tiny = make_pool(1, 1, capacity=(1, 1, 1))
        with pytest.raises(InfeasibleRequestError):
            JobAwarePlacement(sort()).place(tiny, np.array([5, 0, 0]))

    def test_pool_not_mutated(self, pool):
        before = pool.allocated
        JobAwarePlacement(sort()).place(pool, DEMAND)
        assert np.array_equal(pool.allocated, before)
