"""Fabric unit tests: routing, spillover, rebalance, checkpoint, metrics."""

import json

import numpy as np
import pytest

from repro.cluster import PoolSpec, VMTypeCatalog, random_pool
from repro.obs import MetricsRegistry
from repro.service import (
    DecisionStatus,
    PlaceRequest,
    ReleaseRequest,
    ServiceConfig,
)
from repro.service.shard import (
    ByRackPlan,
    FabricConfig,
    RackGroupPlan,
    ShardRouter,
    ShardedPlacementFabric,
    fabric_from_checkpoint,
)
from repro.service.state import ClusterState
from repro.util.errors import ValidationError
from tests.core.oracles import estimate_dc, estimate_dc_batch

CATALOG = VMTypeCatalog.ec2_default()


def make_pool(seed=7, racks=4, nodes_per_rack=4, clouds=2, capacity_high=3):
    return random_pool(
        PoolSpec(
            racks=racks,
            nodes_per_rack=nodes_per_rack,
            clouds=clouds,
            capacity_low=1,
            capacity_high=capacity_high,
        ),
        CATALOG,
        seed=seed,
    )


def make_fabric(pool=None, shards=2, **fabric_kwargs):
    pool = pool or make_pool()
    fabric_kwargs.setdefault("service", ServiceConfig(batch_window=0.0))
    service = fabric_kwargs.pop("service")
    return ShardedPlacementFabric(
        pool,
        plan=RackGroupPlan(shards),
        config=FabricConfig(service=service, **fabric_kwargs),
        obs=MetricsRegistry(),
    )


def pump(fabric, rounds=50):
    decisions = []
    for _ in range(rounds):
        got = fabric.step_all(now=0.0)
        decisions.extend(got)
        if not got and not fabric.queued:
            break
    return decisions


class TestRouter:
    def test_estimate_dc_is_a_lower_bound(self):
        pool = make_pool(seed=3)
        state = ClusterState.from_pool(pool)
        from repro.core import OnlineHeuristic
        from repro.core.problem import VirtualClusterRequest

        rng = np.random.default_rng(0)
        for _ in range(20):
            demand = rng.integers(0, 4, size=pool.num_types)
            if demand.sum() == 0:
                continue
            est = estimate_dc(state, demand)
            result = OnlineHeuristic().place(
                state, VirtualClusterRequest(demand=demand.copy())
            )
            if result.allocation is not None:
                assert est <= result.allocation.distance + 1e-9

    def test_estimate_dc_equals_the_per_center_order_estimate(self):
        """The estimate the closed form replaced, kept as its oracle: fill
        the type-aggregated supply along every center's distance-sorted node
        order and take the best center. Under the default model every term
        is a small integer, so the two agree exactly; the batch rows are the
        scalar calls bit for bit under any model."""
        from repro.cluster import DistanceModel, PoolSpec, random_pool

        def oracle(state, demand):
            k = int(demand.sum())
            supply = state.remaining[:, demand > 0].sum(axis=1)
            if k == 0:
                return 0.0
            if int(supply.sum()) < k:
                return float("inf")
            dist = state.distance_matrix
            n = dist.shape[0]
            orders = np.lexsort((np.broadcast_to(np.arange(n), (n, n)), dist.T))
            d_sorted = np.take_along_axis(dist.T, orders, axis=1)
            sup_ord = supply[orders]
            prev = np.cumsum(sup_ord, axis=1) - sup_ord
            take = np.clip(k - prev, 0, sup_ord)
            return float((d_sorted * take).sum(axis=1).min())

        rng = np.random.default_rng(4)
        for seed in range(12):
            spec = PoolSpec(racks=2 + seed % 3, nodes_per_rack=1 + seed % 4, clouds=1 + seed % 2)
            for model in (None, DistanceModel(0.3, 0.7, 1.9)):
                pool = random_pool(spec, CATALOG, seed=seed, distance_model=model)
                pool.allocate(rng.integers(0, pool.remaining + 1))
                state = ClusterState.from_pool(pool)
                demands = rng.integers(0, 6, size=(16, pool.num_types))
                demands[0] = 0
                demands[1] = pool.remaining.sum(axis=0) + 1
                batch = estimate_dc_batch(state, demands)
                for row, demand in enumerate(demands):
                    scalar = estimate_dc(state, demand)
                    assert scalar == batch[row]
                    if model is None:
                        assert scalar == oracle(state, demand)
                    else:
                        assert scalar == pytest.approx(oracle(state, demand), rel=1e-12)

    def test_route_refuses_oversized_and_ranks_rest(self):
        pool = make_pool()
        fabric = make_fabric(pool)
        huge = [10_000] * pool.num_types
        route = fabric._router.route(np.asarray(huge))
        assert route.ranked == ()
        assert set(route.refused) == {0, 1}

    def test_route_prefers_emptier_shard_under_load(self):
        pool = make_pool(seed=9)
        fabric = make_fabric(pool)
        demand = np.zeros(pool.num_types, dtype=np.int64)
        demand[0] = 1
        first = fabric._router.route(demand).ranked[0]
        # Fill the preferred shard almost completely, then re-route.
        shard = fabric.shards[first]
        cap = shard.state.remaining.copy()
        cap[:, 1:] = 0
        from repro.core.problem import Allocation

        total = int(cap[:, 0].sum())
        if total > 1:
            matrix = np.zeros_like(shard.state.remaining)
            matrix[:, 0] = cap[:, 0]
            matrix[np.argmax(cap[:, 0]), 0] -= 1
            alloc = Allocation.from_matrix(matrix, shard.state.distance_matrix)
            shard.state.allocate_lease(999_999, alloc)
            fabric._owners[999_999] = first
        second = fabric._router.route(demand).ranked[0]
        assert second != first

    def test_router_requires_states(self):
        with pytest.raises(ValidationError):
            ShardRouter([])


class TestFabricServing:
    def test_requires_pristine_pool(self):
        pool = make_pool()
        matrix = np.zeros((pool.num_nodes, pool.num_types), dtype=np.int64)
        matrix[0, 0] = 1
        pool.allocate(matrix)
        with pytest.raises(ValidationError):
            ShardedPlacementFabric(pool)

    def test_placements_use_global_node_ids(self):
        pool = make_pool(seed=13)
        fabric = make_fabric(pool)
        # Force a request into the second shard by filling the first.
        tickets = []
        for rid in range(30):
            tickets.append(
                fabric.submit(PlaceRequest(request_id=rid, demand=[1, 1, 0]))
            )
        pump(fabric)
        placed = [t.decision for t in tickets if t.decision.placed]
        assert placed
        seen_shards = set()
        for decision in placed:
            nodes = {n for n, _, _ in decision.placements}
            owner = fabric.owner_of(decision.request_id)
            shard = fabric.shards[owner]
            assert nodes <= set(int(g) for g in shard.to_global)
            assert decision.center in {int(g) for g in shard.to_global}
            seen_shards.add(owner)
        fabric.verify_consistency()

    def test_duplicate_submit_rejected(self):
        fabric = make_fabric()
        t1 = fabric.submit(PlaceRequest(request_id=1, demand=[1, 0, 0]))
        t2 = fabric.submit(PlaceRequest(request_id=1, demand=[1, 0, 0]))
        assert t2.done and t2.decision.status == DecisionStatus.REJECTED
        pump(fabric)
        assert t1.decision.placed

    def test_oversized_demand_refused_with_per_shard_metric(self):
        """Regression: refusals-before-enqueue are recorded per shard."""
        fabric = make_fabric()
        huge = [10_000] * fabric.num_types
        ticket = fabric.submit(PlaceRequest(request_id=5, demand=huge))
        assert ticket.done
        assert ticket.decision.status == DecisionStatus.REFUSED
        family = fabric.obs.counter(
            "repro_service_admission_total", labels=("shard", "outcome")
        )
        for shard_id in range(fabric.num_shards):
            assert (
                family.labels(shard=str(shard_id), outcome="refused").value
                == 1.0
            )
        assert fabric.stats.refused == 1
        assert fabric.owner_of(5) is None

    def test_spillover_when_first_shard_queue_full(self):
        pool = make_pool(seed=21)
        fabric = make_fabric(
            pool, service=ServiceConfig(batch_window=0.0, queue_capacity=1)
        )
        demand = [1, 0, 0]
        tickets = [
            fabric.submit(PlaceRequest(request_id=rid, demand=demand))
            for rid in range(3)
        ]
        # Queue capacity 1 per shard: 2 requests queue (one per shard), the
        # third is rejected by both and spills until the fabric gives up.
        assert fabric.stats.spillovers >= 1
        assert tickets[2].done
        assert tickets[2].decision.status == DecisionStatus.REJECTED
        pump(fabric)
        assert tickets[0].decision.placed and tickets[1].decision.placed

    def test_no_spillover_when_disabled(self):
        pool = make_pool(seed=21)
        fabric = ShardedPlacementFabric(
            pool,
            plan=RackGroupPlan(2),
            config=FabricConfig(
                spillover=False,
                service=ServiceConfig(batch_window=0.0, queue_capacity=1),
            ),
            obs=MetricsRegistry(),
        )
        demand = [1, 0, 0]
        tickets = [
            fabric.submit(PlaceRequest(request_id=rid, demand=demand))
            for rid in range(3)
        ]
        rejected = [
            t for t in tickets if t.done and not t.decision.placed
        ]
        # With spillover off, declines are terminal after one shard.
        assert rejected
        assert all(
            t.decision.status == DecisionStatus.REJECTED for t in rejected
        )

    def test_release_and_unknown_lease(self):
        fabric = make_fabric()
        ticket = fabric.submit(PlaceRequest(request_id=7, demand=[2, 0, 0]))
        pump(fabric)
        assert ticket.decision.placed
        response = fabric.release(ReleaseRequest(request_id=7))
        assert response.released
        assert fabric.release(ReleaseRequest(request_id=7)).status == (
            DecisionStatus.UNKNOWN_LEASE
        )
        assert fabric.global_allocated().sum() == 0
        fabric.verify_consistency()

    def test_cancel_queued_request(self):
        fabric = make_fabric()
        ticket = fabric.submit(PlaceRequest(request_id=9, demand=[1, 0, 0]))
        assert fabric.cancel(9)
        assert ticket.decision.status == DecisionStatus.CANCELLED
        assert fabric.owner_of(9) is None
        assert not fabric.cancel(9)
        fabric.verify_consistency()

    def test_drain_resolves_everything(self):
        fabric = make_fabric()
        tickets = [
            fabric.submit(PlaceRequest(request_id=rid, demand=[1, 0, 0]))
            for rid in range(6)
        ]
        fabric.start()
        assert fabric.running
        fabric.drain(timeout=5.0)
        assert not fabric.running
        assert all(t.done for t in tickets)
        fabric.verify_consistency()

    def test_shard_gauges_and_describe(self):
        fabric = make_fabric()
        fabric.submit(PlaceRequest(request_id=1, demand=[1, 0, 0]))
        pump(fabric)
        info = fabric.describe_shards()
        assert len(info) == fabric.num_shards
        assert sum(entry["leases"] for entry in info) == 1
        leases = fabric.obs.gauge("repro_shard_leases", labels=("shard",))
        total = sum(
            leases.labels(shard=str(s)).value
            for s in range(fabric.num_shards)
        )
        assert total == 1


class TestRebalance:
    def test_migration_improves_worst_lease(self):
        """A lease straddling racks migrates to a shard that packs it tight."""
        pool = make_pool(seed=41, racks=6, nodes_per_rack=4, clouds=2)
        fabric = make_fabric(pool, shards=3)
        # Fill shard 0 unevenly so a later allocation there is spread out,
        # then free space: rebalance should move the spread lease elsewhere.
        rng = np.random.default_rng(1)
        rid = 0
        tickets = []
        for _ in range(40):
            demand = [int(x) for x in rng.integers(0, 3, size=pool.num_types)]
            if sum(demand) == 0:
                demand[0] = 1
            tickets.append(fabric.submit(PlaceRequest(request_id=rid, demand=demand)))
            rid += 1
        pump(fabric)
        before = fabric.stats
        report = fabric.rebalance()
        fabric.verify_consistency()
        after = fabric.stats
        assert report.gain >= 0.0
        if report.migrations:
            assert after.rebalance_gain > before.rebalance_gain
            # Every applied move strictly reduced summed distance.
            assert report.gain > 0

    def test_rebalance_never_breaks_leases(self):
        pool = make_pool(seed=43)
        fabric = make_fabric(pool)
        rng = np.random.default_rng(2)
        for rid in range(25):
            demand = [int(x) for x in rng.integers(0, 3, size=pool.num_types)]
            if sum(demand) == 0:
                demand[0] = 1
            fabric.submit(PlaceRequest(request_id=rid, demand=demand))
        pump(fabric)
        demands_before = {}
        for shard in fabric.shards:
            for lease_id, alloc in shard.state.leases.items():
                demands_before[lease_id] = alloc.matrix.sum(axis=0)
        fabric.rebalance()
        fabric.verify_consistency()
        demands_after = {}
        for shard in fabric.shards:
            for lease_id, alloc in shard.state.leases.items():
                demands_after[lease_id] = alloc.matrix.sum(axis=0)
        assert set(demands_before) == set(demands_after)
        for lease_id, demand in demands_before.items():
            np.testing.assert_array_equal(demand, demands_after[lease_id])

    def test_periodic_rebalancer_thread(self):
        pool = make_pool(seed=47)
        fabric = ShardedPlacementFabric(
            pool,
            plan=RackGroupPlan(2),
            config=FabricConfig(
                rebalance_interval=0.01,
                service=ServiceConfig(batch_window=0.0),
            ),
            obs=MetricsRegistry(),
        )
        fabric.start()
        try:
            import time

            time.sleep(0.1)
            scheduler = fabric._scheduler
            assert scheduler.running
        finally:
            fabric.stop()
        assert not scheduler.running
        assert fabric._scheduler is None

    def test_release_follows_a_lease_the_rebalancer_moved(self):
        """``release`` reads the owner, drops the fabric lock, then asks the
        shard; the scheduler's rebalance sweep may migrate the lease in
        between. The release must follow it, not answer ``unknown_lease``
        for a live lease. The window is microseconds wide, so the test holds
        a release open inside it until the sweep has run."""
        import threading
        import time

        def loaded(**fabric_kwargs):
            pool = make_pool(seed=41, racks=6, nodes_per_rack=4, clouds=2)
            fabric = make_fabric(pool, shards=2, **fabric_kwargs)
            rng = np.random.default_rng(1)
            for rid in range(40):
                demand = [int(x) for x in rng.integers(0, 3, size=pool.num_types)]
                if sum(demand) == 0:
                    demand[0] = 1
                fabric.submit(PlaceRequest(request_id=rid, demand=demand))
            pump(fabric)
            return fabric

        # A twin fabric tells which lease the first sweep will migrate.
        twin = loaded()
        before = {rid: twin.owner_of(rid) for rid in range(40)}
        assert twin.rebalance().migrations > 0
        rid, source = next(
            (rid, owner)
            for rid, owner in before.items()
            if owner is not None and twin.owner_of(rid) != owner
        )

        fabric = loaded(rebalance_interval=0.005)
        assert fabric.owner_of(rid) == source
        service = fabric.shards[source].service
        shard_release = service.release
        in_window = threading.Event()

        def release_after_the_move(request):
            # The fabric has read the owner and let go of its lock.
            in_window.set()
            deadline = time.monotonic() + 10.0
            while (
                fabric.owner_of(request.request_id) == source
                and time.monotonic() < deadline
            ):
                time.sleep(0.001)
            return shard_release(request)

        service.release = release_after_the_move
        responses = []
        releaser = threading.Thread(
            target=lambda: responses.append(
                fabric.release(ReleaseRequest(request_id=rid))
            )
        )
        releaser.start()
        assert in_window.wait(10.0)
        fabric.start()  # the rebalancer's first sweep migrates the lease
        try:
            releaser.join(15.0)
        finally:
            fabric.stop()
        assert fabric.stats.rebalance_migrations > 0
        assert responses and responses[0].released
        assert fabric.owner_of(rid) is None
        assert fabric.stats.released == 1
        fabric.verify_consistency()


class TestFabricCheckpoint:
    def test_round_trip_is_byte_identical(self):
        pool = make_pool(seed=51)
        fabric = make_fabric(pool)
        rng = np.random.default_rng(3)
        for rid in range(20):
            demand = [int(x) for x in rng.integers(0, 3, size=pool.num_types)]
            if sum(demand) == 0:
                demand[0] = 1
            fabric.submit(PlaceRequest(request_id=rid, demand=demand))
        pump(fabric)
        fabric.rebalance()
        blob = fabric.checkpoint_bytes()
        restored = fabric_from_checkpoint(json.loads(blob))
        assert restored.checkpoint_bytes() == blob
        restored.verify_consistency()
        np.testing.assert_array_equal(
            restored.global_allocated(), fabric.global_allocated()
        )

    def test_restored_fabric_serves_and_releases(self):
        pool = make_pool(seed=53)
        fabric = make_fabric(pool)
        fabric.submit(PlaceRequest(request_id=1, demand=[1, 1, 0]))
        pump(fabric)
        restored = fabric_from_checkpoint(json.loads(fabric.checkpoint_bytes()))
        assert restored.release(ReleaseRequest(request_id=1)).released
        ticket = restored.submit(PlaceRequest(request_id=2, demand=[1, 0, 0]))
        pump(restored)
        assert ticket.decision.placed
        restored.verify_consistency()

    def test_rejects_foreign_documents(self):
        with pytest.raises(ValidationError):
            fabric_from_checkpoint({"version": 99, "kind": "sharded-fabric"})
        with pytest.raises(ValidationError):
            fabric_from_checkpoint({"version": 1, "kind": "state"})


class TestSingleServiceSurface:
    def test_single_service_describe_shards(self):
        from repro.service import PlacementService

        pool = make_pool(seed=55)
        service = PlacementService(ClusterState.from_pool(pool))
        info = service.describe_shards()
        assert len(info) == 1
        assert info[0]["shard"] == 0
        assert info[0]["nodes"] == pool.num_nodes
        doc = service.checkpoint_doc()
        assert doc["allocated"] is not None
