"""End-to-end integration: placement → cloud churn → MapReduce execution."""

import numpy as np
import pytest

from repro.cloud import CloudProvider, CloudSimulator, poisson_workload
from repro.cluster import PoolSpec, VMTypeCatalog, random_pool
from repro.core import (
    GlobalSubOptimizer,
    OnlineHeuristic,
    StripedPlacement,
    solve_sd_exact,
)
from repro.mapreduce import MapReduceEngine, VirtualCluster, wordcount


@pytest.fixture(scope="module")
def catalog():
    return VMTypeCatalog.ec2_default()


class TestPlacementToMapReduce:
    """The paper's full pipeline: better affinity → faster job."""

    def test_affinity_aware_cluster_runs_faster(self, catalog):
        pool = random_pool(
            PoolSpec(racks=3, nodes_per_rack=10, capacity_high=3), catalog, seed=20
        )
        demand = np.array([6, 8, 2])
        job = wordcount(combiner=False)

        good_alloc = OnlineHeuristic().place(pool, demand).allocation
        bad_alloc = StripedPlacement().place(pool, demand).allocation
        assert good_alloc.distance < bad_alloc.distance

        good = VirtualCluster.from_allocation(good_alloc, pool.distance_matrix, catalog)
        bad = VirtualCluster.from_allocation(bad_alloc, pool.distance_matrix, catalog)
        rt_good = MapReduceEngine(good, seed=1).run(job, hdfs_seed=1).runtime
        rt_bad = MapReduceEngine(bad, seed=1).run(job, hdfs_seed=1).runtime
        assert rt_good <= rt_bad

    def test_exact_and_heuristic_clusters_equivalent_runtime_scale(self, catalog):
        pool = random_pool(
            PoolSpec(racks=2, nodes_per_rack=5, capacity_high=3), catalog, seed=21
        )
        demand = np.array([4, 4, 2])
        job = wordcount(input_bytes=512 * 1024 * 1024, combiner=False)
        a = OnlineHeuristic().place(pool, demand).allocation
        b = solve_sd_exact(demand, pool)
        assert a.distance == pytest.approx(b.distance)


class TestCloudChurnWithBatchPolicy:
    def test_provider_with_algorithm2_survives_churn(self, catalog):
        pool = random_pool(
            PoolSpec(racks=3, nodes_per_rack=10, capacity_high=2), catalog, seed=22
        )
        provider = CloudProvider(
            pool, OnlineHeuristic(), batch_policy=GlobalSubOptimizer()
        )
        workload = poisson_workload(
            100, 3, mean_interarrival=5.0, mean_duration=60.0, demand_high=3, seed=23
        )
        result = CloudSimulator(provider).run(workload)
        assert provider.stats.placed == provider.stats.completed
        assert pool.allocated.sum() == 0
        assert provider.stats.placed + provider.stats.refused <= 100
        assert all(d >= 0 for d in result.distances)

    def test_batch_policy_not_worse_than_online_on_distances(self, catalog):
        def run(batch_policy):
            pool = random_pool(
                PoolSpec(racks=3, nodes_per_rack=10, capacity_high=2),
                catalog,
                seed=24,
            )
            provider = CloudProvider(
                pool, OnlineHeuristic(), batch_policy=batch_policy
            )
            workload = poisson_workload(
                80, 3, mean_interarrival=2.0, mean_duration=100.0, demand_high=3, seed=25
            )
            CloudSimulator(provider).run(workload)
            return provider.stats

        online = run(None)
        batched = run(GlobalSubOptimizer())
        assert batched.placed == online.placed
        # Algorithm 2 dominates per drain batch, but in a churning simulation
        # a different packing now changes what later requests see, so strict
        # dominance over the whole run is not guaranteed — only closeness.
        assert batched.total_distance <= online.total_distance * 1.10


class TestFullPaperPipeline:
    def test_provision_then_run_wordcount_end_to_end(self, catalog):
        """Provision via Algorithm 1, run the paper's WordCount, check all
        three data phases were exercised."""
        pool = random_pool(
            PoolSpec(racks=3, nodes_per_rack=10, capacity_high=3), catalog, seed=26
        )
        alloc = OnlineHeuristic().place(pool, np.array([4, 8, 4])).allocation
        pool.allocate(alloc.matrix)
        cluster = VirtualCluster.from_allocation(alloc, pool.distance_matrix, catalog)
        job = wordcount()
        result = MapReduceEngine(cluster, seed=2).run(job, hdfs_seed=2)
        assert len(result.map_records) == 32
        assert len(result.reduce_records) == 1
        assert result.runtime > 0
        assert result.total_shuffle_bytes > 0
        loc = result.locality()
        assert loc.total_maps == 32
        pool.release(alloc.matrix)
        assert pool.allocated.sum() == 0
