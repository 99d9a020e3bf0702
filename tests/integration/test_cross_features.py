"""Cross-feature integration: extensions composed together."""

import numpy as np
import pytest

from repro.cloud import (
    CloudProvider,
    CloudSimulator,
    PriceSheet,
    QueueDiscipline,
    RequestQueue,
    ReservingCloudProvider,
    TimedRequest,
    lease_cost,
    poisson_workload,
)
from repro.cluster import (
    DynamicResourcePool,
    Topology,
    VMTypeCatalog,
    infer_distance_matrix,
)
from repro.core import AnnealingConfig, AnnealingGsdSolver, OnlineHeuristic
from repro.core.problem import VirtualClusterRequest
from repro.mapreduce import (
    JobFlow,
    MapReduceEngine,
    NetworkModel,
    StragglerModel,
    VirtualCluster,
    grep,
    sort,
    wordcount,
)


@pytest.fixture(scope="module")
def catalog():
    return VMTypeCatalog.ec2_default()


class TestPriorityScheduling:
    def test_priority_requests_jump_the_queue(self, catalog):
        """A high-priority request admitted before earlier low-priority ones."""
        from tests.conftest import make_pool

        pool = make_pool(1, 1, capacity=(2, 0, 0))
        provider = CloudProvider(
            pool,
            OnlineHeuristic(),
            queue=RequestQueue(discipline=QueueDiscipline.PRIORITY),
        )

        def req(priority, arrival):
            return TimedRequest(
                request=VirtualClusterRequest(demand=[2, 0, 0]),
                arrival_time=arrival,
                duration=10.0,
                priority=priority,
            )

        first = provider.submit(req(5, 0.0), now=0.0)
        provider.submit(req(5, 1.0), now=1.0)  # low priority, earlier
        provider.submit(req(0, 2.0), now=2.0)  # high priority, later
        started = provider.release(first.request_id, now=10.0)
        assert len(started) == 1
        assert started[0].request.priority == 0


class TestMeasuredNetworkPipeline:
    def test_probe_to_placement_to_job(self, catalog):
        """Full pipeline on *measured* distances: probe, quantize, place,
        provision, run, bill."""
        from repro.cluster.distance import DistanceModel
        from repro.cluster.resources import ResourcePool

        topo = Topology.build(3, 4, capacity=[2, 2, 1])
        inferred, tiers = infer_distance_matrix(topo, num_tiers=2, seed=11)
        # Build a pool whose model matches the inferred tier values.
        model = DistanceModel(
            intra_rack=float(tiers[0]),
            inter_rack=float(tiers[1]),
            inter_cloud=float(tiers[1]) * 2,
        )
        pool = ResourcePool(topo, catalog, distance_model=model)
        alloc = OnlineHeuristic().place(pool, np.array([4, 4, 2])).allocation
        pool.allocate(alloc.matrix)
        cluster = VirtualCluster.from_allocation(
            alloc, pool.distance_matrix, catalog
        )
        network = NetworkModel.from_tiers(tiers)
        flow = JobFlow(MapReduceEngine(cluster, network=network, seed=12), seed=12)
        result = flow.run([wordcount(input_bytes=512 * 1024 * 1024), grep(input_bytes=512 * 1024 * 1024)])
        assert result.makespan > 0
        prices = PriceSheet(catalog)
        request = TimedRequest(
            request=VirtualClusterRequest(demand=alloc.demand),
            arrival_time=0.0,
            duration=result.makespan,
        )
        from repro.cloud import Lease

        bill = lease_cost(
            Lease(request=request, allocation=alloc, start_time=0.0), prices
        )
        assert bill > 0


class TestResilientAnnealingProvider:
    def test_dynamic_pool_with_annealing_batch_drains(self, catalog):
        """Annealing batch policy over a dynamic pool survives a full run."""
        pool = DynamicResourcePool(Topology.build(2, 5, capacity=[2, 2, 1]), catalog)
        provider = CloudProvider(
            pool,
            OnlineHeuristic(),
            batch_policy=AnnealingGsdSolver(AnnealingConfig(iterations=500, seed=3)),
        )
        workload = poisson_workload(40, 3, demand_high=2, seed=14)
        CloudSimulator(provider).run(workload)
        assert provider.stats.placed == provider.stats.completed
        assert pool.allocated.sum() == 0


class TestSpeculationUnderContention:
    def test_stragglers_speculation_and_disk_contention_compose(self, catalog):
        from tests.conftest import make_pool

        pool = make_pool(3, 4, capacity=(2, 2, 1))
        alloc = OnlineHeuristic().place(pool, np.array([4, 6, 2])).allocation
        cluster = VirtualCluster.from_allocation(alloc, pool.distance_matrix, catalog)
        engine = MapReduceEngine(
            cluster,
            disk_contention=1.0,
            stragglers=StragglerModel(probability=0.2, min_factor=2, max_factor=5),
            speculative_execution=True,
            seed=15,
        )
        result = engine.run(sort(input_bytes=512 * 1024 * 1024), hdfs_seed=15)
        assert result.runtime > 0
        assert len(result.map_records) == 8
        loc = result.locality()
        assert loc.total_maps == 8


class TestReservingProviderWithBatchPolicy:
    def test_reservations_and_global_optimizer_coexist(self, catalog):
        """ReservingCloudProvider inherits batch_policy-free drains; verify
        a plain run with realistic churn completes and stays consistent."""
        from tests.conftest import make_pool

        pool = make_pool(3, 5, capacity=(2, 1, 1))
        provider = ReservingCloudProvider(pool, OnlineHeuristic())
        workload = poisson_workload(
            80, 3, mean_interarrival=3.0, mean_duration=90.0, demand_high=3, seed=16
        )
        result = CloudSimulator(provider).run(workload)
        assert provider.stats.placed == provider.stats.completed
        assert pool.allocated.sum() == 0
        assert all(w >= 0 for w in result.waits)
