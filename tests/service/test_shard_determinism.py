"""Determinism: one trace, two runs, byte-identical fabric checkpoints.

The fabric (and the underlying :mod:`repro.service.server`) must be a pure
function of the operation sequence: same seed, same trace, same interleaved
releases and rebalance sweeps → the serialized checkpoint is identical to
the byte. This pins down the classic nondeterminism sources — dict iteration
order feeding the batch optimizer, unsorted ledgers in serialization, and
scheduler-thread timing leaking into placement order."""

import numpy as np
import pytest

from repro.cluster import PoolSpec, VMTypeCatalog, random_pool
from repro.core.placement.transfer import _reference_transfer_pair
from repro.obs import MetricsRegistry
from repro.service import (
    ClusterState,
    DecisionStatus,
    PlaceRequest,
    PlacementService,
    ReleaseRequest,
    ServiceConfig,
    checkpoint_bytes,
)
from repro.service.shard import (
    CapacityBalancedPlan,
    FabricConfig,
    RackGroupPlan,
    ShardedPlacementFabric,
)
from repro.service import server as server_module
from repro.service.shard import fabric as fabric_module
from repro.service.shard.router import estimate_dc, estimate_dc_batch

CATALOG = VMTypeCatalog.ec2_default()


def make_trace(seed, count=60, num_types=3):
    """(op, payload) sequence: submits with interleaved releases."""
    rng = np.random.default_rng(seed)
    trace = []
    live = []
    for rid in range(count):
        demand = [int(x) for x in rng.integers(0, 3, size=num_types)]
        if sum(demand) == 0:
            demand[rng.integers(0, num_types)] = 1
        trace.append(("place", rid, demand))
        live.append(rid)
        if live and rng.random() < 0.3:
            victim = live.pop(int(rng.integers(0, len(live))))
            trace.append(("release", victim, None))
        if rid and rid % 15 == 0:
            trace.append(("rebalance", None, None))
    return trace


def run_fabric_trace(seed, *, plan, service_config):
    pool = random_pool(
        PoolSpec(racks=6, nodes_per_rack=4, clouds=2, capacity_low=1, capacity_high=3),
        CATALOG,
        seed=seed,
    )
    fabric = ShardedPlacementFabric(
        pool,
        plan=plan,
        config=FabricConfig(service=service_config),
        obs=MetricsRegistry(),
    )
    for op, rid, demand in make_trace(seed, num_types=pool.num_types):
        if op == "place":
            fabric.submit(PlaceRequest(request_id=rid, demand=demand))
            for _ in range(8):
                if not fabric.step_all(now=0.0) and not fabric.queued:
                    break
        elif op == "release":
            fabric.release(ReleaseRequest(request_id=rid))
        elif op == "rebalance":
            fabric.rebalance()
    fabric.rebalance()
    fabric.verify_consistency()
    return fabric.checkpoint_bytes()


class TestFabricDeterminism:
    def test_driven_trace_is_byte_identical(self):
        kwargs = dict(
            plan=RackGroupPlan(3),
            service_config=ServiceConfig(batch_window=0.0),
        )
        assert run_fabric_trace(101, **kwargs) == run_fabric_trace(101, **kwargs)

    def test_batched_transfers_are_deterministic(self):
        kwargs = dict(
            plan=CapacityBalancedPlan(3),
            service_config=ServiceConfig(
                batch_window=0.0, max_batch=8, enable_transfers=True
            ),
        )
        assert run_fabric_trace(202, **kwargs) == run_fabric_trace(202, **kwargs)

    def test_different_seeds_differ(self):
        kwargs = dict(
            plan=RackGroupPlan(3),
            service_config=ServiceConfig(batch_window=0.0),
        )
        assert run_fabric_trace(101, **kwargs) != run_fabric_trace(303, **kwargs)

    def test_threaded_sequential_clients_match_driven(self):
        """Scheduler-thread timing must not leak into committed state.

        Each request is awaited before the next is submitted, so the
        logical operation order is fixed; the background-thread run must
        land on the same bytes as a hand-driven run of the same order.
        """

        def run(threaded: bool) -> str:
            pool = random_pool(
                PoolSpec(
                    racks=4, nodes_per_rack=4, capacity_low=1, capacity_high=3
                ),
                CATALOG,
                seed=7,
            )
            fabric = ShardedPlacementFabric(
                pool,
                plan=RackGroupPlan(2),
                config=FabricConfig(
                    service=ServiceConfig(batch_window=0.0, max_batch=1)
                ),
                obs=MetricsRegistry(),
            )
            if threaded:
                fabric.start()
            rng = np.random.default_rng(17)
            for rid in range(30):
                demand = [int(x) for x in rng.integers(0, 3, size=pool.num_types)]
                if sum(demand) == 0:
                    demand[0] = 1
                ticket = fabric.submit(PlaceRequest(request_id=rid, demand=demand))
                if threaded:
                    ticket.result(timeout=10.0)
                else:
                    for _ in range(8):
                        if ticket.done:
                            break
                        fabric.step_all(now=0.0)
                if rid % 3 == 0 and ticket.done and ticket.decision.placed:
                    fabric.release(ReleaseRequest(request_id=rid))
            if threaded:
                fabric.drain(timeout=10.0)
            fabric.verify_consistency()
            return fabric.checkpoint_bytes()

        assert run(threaded=True) == run(threaded=False)


def loaded_fabric(seed, *, shards=3):
    """A fabric with enough committed load that shard scores diverge."""
    pool = random_pool(
        PoolSpec(
            racks=6, nodes_per_rack=4, clouds=2, capacity_low=1, capacity_high=3
        ),
        CATALOG,
        seed=seed,
    )
    fabric = ShardedPlacementFabric(
        pool,
        plan=RackGroupPlan(shards),
        config=FabricConfig(service=ServiceConfig(batch_window=0.0)),
        obs=MetricsRegistry(),
    )
    rng = np.random.default_rng(seed)
    for rid in range(25):
        demand = [int(x) for x in rng.integers(0, 3, size=pool.num_types)]
        if sum(demand) == 0:
            demand[0] = 1
        fabric.submit(PlaceRequest(request_id=rid, demand=demand))
        for _ in range(8):
            if not fabric.step_all(now=0.0) and not fabric.queued:
                break
    return fabric


def demand_matrix(rng, rows, num_types, high=5):
    demands = rng.integers(0, high, size=(rows, num_types))
    demands[demands.sum(axis=1) == 0, 0] = 1
    return demands


class TestBatchedRoutingDeterminism:
    """Batched admission must be *decision-identical* to sequential.

    The async endpoint feeds every drained batch through ``submit_batch``
    → ``route_batch`` → ``estimate_dc_batch``; each layer claims bit-exact
    agreement with its scalar twin, and these tests pin each claim down
    (including exclusion sets, the failover path's input).
    """

    def test_estimate_dc_batch_is_bit_identical_per_row(self):
        fabric = loaded_fabric(57)
        rng = np.random.default_rng(3)
        demands = demand_matrix(rng, 48, fabric.shards[0].state.num_types)
        for shard in fabric.shards:
            batched = estimate_dc_batch(shard.state, demands)
            for row in range(demands.shape[0]):
                scalar = estimate_dc(shard.state, demands[row])
                # == (not approx): the batched kernel must reduce along the
                # same axis with the same blocking as the scalar path.
                assert batched[row] == scalar

    def test_route_batch_matches_sequential_route(self):
        fabric = loaded_fabric(58, shards=4)
        router = fabric._router
        rng = np.random.default_rng(4)
        demands = demand_matrix(
            rng, 40, fabric.shards[0].state.num_types, high=6
        )
        for exclude in (frozenset(), frozenset({1}), frozenset({0, 2})):
            batched = router.route_batch(demands, exclude=exclude)
            for row in range(demands.shape[0]):
                single = router.route(demands[row], exclude=exclude)
                assert batched[row].ranked == single.ranked
                assert batched[row].refused == single.refused
                assert batched[row].scores == single.scores

    def test_submit_batch_is_decision_identical_to_sequential(self):
        """Twin fabrics, one trace: batched vs one-at-a-time submission.

        Speculation is disabled (``speculation=1``, the default), so every
        request must land on the same shard with the same outcome and the
        two checkpoint byte streams must match exactly.
        """

        def run(batched: bool):
            pool = random_pool(
                PoolSpec(
                    racks=6,
                    nodes_per_rack=4,
                    clouds=2,
                    capacity_low=1,
                    capacity_high=3,
                ),
                CATALOG,
                seed=61,
            )
            fabric = ShardedPlacementFabric(
                pool,
                plan=RackGroupPlan(3),
                config=FabricConfig(service=ServiceConfig(batch_window=0.0)),
                obs=MetricsRegistry(),
            )
            rng = np.random.default_rng(62)
            outcomes = []
            rid = 0
            for _ in range(8):  # 8 waves of 8 requests
                wave = []
                for _ in range(8):
                    demand = [
                        int(x) for x in rng.integers(0, 3, size=pool.num_types)
                    ]
                    if sum(demand) == 0:
                        demand[0] = 1
                    wave.append(PlaceRequest(request_id=rid, demand=demand))
                    rid += 1
                if batched:
                    tickets = fabric.submit_batch(wave)
                else:
                    tickets = [fabric.submit(request) for request in wave]
                for _ in range(16):
                    if not fabric.step_all(now=0.0) and not fabric.queued:
                        break
                for ticket in tickets:
                    decision = ticket.decision
                    outcomes.append(
                        (
                            ticket.request_id,
                            decision.status,
                            decision.placements,
                            decision.center,
                            decision.distance,
                        )
                    )
                # Release a deterministic third of the wave between waves.
                for request in wave:
                    if request.request_id % 3 == 0:
                        fabric.release(
                            ReleaseRequest(request_id=request.request_id)
                        )
            fabric.verify_consistency()
            return outcomes, fabric.checkpoint_bytes()

        sequential = run(batched=False)
        batched = run(batched=True)
        assert batched[0] == sequential[0]  # same shard, status, placement
        assert batched[1] == sequential[1]  # byte-identical checkpoints

    def test_submit_batch_keeps_submission_order_with_mixed_targets(self):
        """Mixed plain/targeted waves must dispatch in submission order.

        Targeted requests take the scalar routing path, but that must not
        reorder shard-queue arrival relative to sequential submits — with
        contended capacity, arrival order decides which requests place, so
        batched submission of a mixed wave must stay decision-identical
        (and checkpoint-byte-identical) to one-at-a-time submission.
        """
        from repro.core.reliability import SurvivabilityTarget

        target = SurvivabilityTarget(kind="rack", k=1)

        def run(batched: bool):
            pool = random_pool(
                PoolSpec(
                    racks=4,
                    nodes_per_rack=2,
                    clouds=2,
                    capacity_low=1,
                    capacity_high=2,
                ),
                CATALOG,
                seed=71,
            )
            fabric = ShardedPlacementFabric(
                pool,
                plan=RackGroupPlan(2),
                config=FabricConfig(service=ServiceConfig(batch_window=0.0)),
                obs=MetricsRegistry(),
            )
            rng = np.random.default_rng(72)
            wave = []
            for rid in range(16):
                demand = [
                    int(x) for x in rng.integers(0, 3, size=pool.num_types)
                ]
                if sum(demand) == 0:
                    demand[0] = 1
                wave.append(
                    PlaceRequest(
                        request_id=rid,
                        demand=demand,
                        survivability=target if rid % 2 else None,
                    )
                )
            if batched:
                tickets = fabric.submit_batch(wave)
            else:
                tickets = [fabric.submit(request) for request in wave]
            for _ in range(16):
                if not fabric.step_all(now=0.0) and not fabric.queued:
                    break
            outcomes = [
                (
                    t.request_id,
                    t.decision.status if t.done else None,
                    t.decision.placements if t.done else None,
                )
                for t in tickets
            ]
            fabric.verify_consistency()
            return outcomes, fabric.checkpoint_bytes()

        sequential = run(batched=False)
        batched = run(batched=True)
        assert batched[0] == sequential[0]
        assert batched[1] == sequential[1]

    def test_submit_batch_screens_duplicates_like_submit(self):
        fabric = loaded_fabric(63)
        requests = [
            PlaceRequest(request_id=1000, demand=(1, 0, 0)),
            PlaceRequest(request_id=1000, demand=(1, 0, 0)),  # duplicate
            PlaceRequest(request_id=1001, demand=(0, 1, 0)),
        ]
        tickets = fabric.submit_batch(requests)
        for _ in range(8):
            if not fabric.step_all(now=0.0) and not fabric.queued:
                break
        assert tickets[1].decision.status == DecisionStatus.REJECTED
        assert tickets[0].decision.placed
        assert tickets[2].decision.placed


class TestSingleServiceDeterminism:
    def test_service_checkpoint_is_trace_deterministic(self):
        def run():
            pool = random_pool(
                PoolSpec(racks=3, nodes_per_rack=5, capacity_low=1, capacity_high=3),
                CATALOG,
                seed=23,
            )
            service = PlacementService(
                ClusterState.from_pool(pool),
                config=ServiceConfig(
                    batch_window=0.0, max_batch=6, enable_transfers=True
                ),
                obs=MetricsRegistry(),
            )
            rng = np.random.default_rng(29)
            for rid in range(50):
                demand = [int(x) for x in rng.integers(0, 3, size=pool.num_types)]
                if sum(demand) == 0:
                    demand[0] = 1
                service.submit(PlaceRequest(request_id=rid, demand=demand))
                if rid % 4 == 0:
                    service.step(now=0.0)
                if rid % 9 == 0 and service.state.has_lease(rid - 1):
                    service.release(ReleaseRequest(request_id=rid - 1))
            for _ in range(40):
                if not service.step(now=0.0) and not service.queued:
                    break
            return checkpoint_bytes(service.state)

        assert run() == run()


def _settle(fabric) -> None:
    for _ in range(8):
        if not fabric.step_all(now=0.0) and not fabric.queued:
            break


def run_transfer_trace(seed):
    """A step-driven fabric with batch transfers on and a rebalance every
    ten requests: ``(reports, owners, checkpoint, registry)``."""
    pool = random_pool(
        PoolSpec(racks=6, nodes_per_rack=2, clouds=2, capacity_low=1, capacity_high=3),
        CATALOG,
        seed=seed,
    )
    registry = MetricsRegistry()
    fabric = ShardedPlacementFabric(
        pool,
        plan=RackGroupPlan(3),
        config=FabricConfig(
            service=ServiceConfig(batch_window=0.0, max_batch=8, enable_transfers=True)
        ),
        obs=registry,
    )
    rng = np.random.default_rng(seed)
    reports, live = [], []
    for rid in range(60):
        demand = [int(x) for x in rng.integers(0, 4, size=pool.num_types)]
        if sum(demand) == 0:
            demand[0] = 1
        fabric.submit(PlaceRequest(request_id=rid, demand=demand))
        live.append(rid)
        if rid % 3 == 2:
            _settle(fabric)
        if rng.random() < 0.35:
            _settle(fabric)
            victim = live.pop(int(rng.integers(0, len(live))))
            fabric.release(ReleaseRequest(request_id=victim))
        if rid % 10 == 9:
            reports.append(fabric.rebalance())
    reports.append(fabric.rebalance())
    fabric.verify_consistency()
    owners = {rid: fabric.owner_of(rid) for rid in range(60)}
    return reports, owners, fabric.checkpoint_bytes(), registry


@pytest.mark.parametrize("seed", [14, 32])
def test_holder_row_transfers_match_the_reference_search(monkeypatch, seed):
    """Rebalance reports, owners and checkpoint bytes are the same whether
    the fabric and its shards' batch optimizers search pairs on their holder
    rows or with the reference ``_reference_transfer_pair`` patched in."""
    fast = run_transfer_trace(seed)

    def reference(a1, a2, dist, *, cache=None, obs=None, **kwargs):
        return _reference_transfer_pair(a1, a2, dist, **kwargs)

    monkeypatch.setattr(fabric_module, "transfer_pair", reference)
    monkeypatch.setattr(server_module, "transfer_pair", reference)
    slow = run_transfer_trace(seed)
    assert fast[:3] == slow[:3]
    assert sum(report.transfers for report in fast[0]) >= 2
    assert fast[3].get("repro_placement_exact_fallbacks_total") is None
    assert fast[3].get("repro_transfer_attempts_total").value > 0
