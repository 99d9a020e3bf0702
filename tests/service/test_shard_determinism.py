"""Determinism: one trace, two runs, byte-identical fabric checkpoints.

The fabric (and the underlying :mod:`repro.service.server`) must be a pure
function of the operation sequence: same seed, same trace, same interleaved
releases and rebalance sweeps → the serialized checkpoint is identical to
the byte. This pins down the classic nondeterminism sources — dict iteration
order feeding the batch optimizer, unsorted ledgers in serialization, and
scheduler-thread timing leaking into placement order."""

import json

import numpy as np
import pytest

from repro.cluster import DistanceModel, PoolSpec, VMTypeCatalog, random_pool
from repro.core import reliability
from repro.core.placement.greedy import OnlineHeuristic
from repro.core.problem import Allocation
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
from repro.core.reliability import SurvivabilityTarget
from repro.service.checkpoint import state_from_checkpoint
from repro.service.shard import (
    ByRackPlan,
    CapacityBalancedPlan,
    FabricConfig,
    RackGroupPlan,
    ShardedPlacementFabric,
)
from repro.service import server as server_module
from repro.service.shard import fabric as fabric_module
from repro.service.shard.router import _Ranking
from tests.core.oracles import (
    _reference_transfer_pair,
    estimate_dc,
    estimate_dc_batch,
    tier_bound,
)

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
    → ``route_batch`` → ``_Layout.bounds``; each layer claims bit-exact
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

        Each request is admitted on one shard, so every request must land
        on the same shard with the same outcome and the two checkpoint byte
        streams must match exactly.
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
    """A step-driven fabric with batch transfers on, batches of up to five
    arrivals and a rebalance every ten requests: ``(reports, owners,
    checkpoint, registry)``. Both seeds' batches apply an exchange."""
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
        if rid % 5 == 4:
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
    the shards' batch optimizers search pairs on their holder rows or with
    the reference ``_reference_transfer_pair`` patched in."""
    fast = run_transfer_trace(seed)

    def reference(a1, a2, dist, *, cache=None, obs=None, **kwargs):
        return _reference_transfer_pair(a1, a2, dist, **kwargs)

    monkeypatch.setattr(server_module, "transfer_pair", reference)
    slow = run_transfer_trace(seed)
    assert fast[:3] == slow[:3]
    assert fast[3].get("repro_transfer_applied_total").value > 0
    assert fast[3].get("repro_placement_exact_fallbacks_total") is None
    assert fast[3].get("repro_transfer_attempts_total").value > 0


# --------------------------------------------------------------- router oracle


def oracle_bounds(state, demands, ks):
    """The router's per-shard pass before the one-pass layout, kept as its
    oracle: the all-center :func:`tier_bound` on the aggregated supply,
    minimized over the shard's centers."""
    supply = np.asarray(state.remaining) @ (demands > 0).astype(np.int64).T
    free = supply.sum(axis=0)
    cache = state.topology_cache
    est = tier_bound(cache, supply, cache.per_rack(supply), ks).min(axis=0)
    est[free < ks] = np.inf
    return free, est


def oracle_route(states, demand, *, exclude=frozenset(), target=None):
    """One shard at a time: ``exceeds_max_capacity``, the survivability
    refusal, then :func:`oracle_bounds` — the scoring every route ran."""
    demand = np.asarray(demand, dtype=np.int64)
    ranking = _Ranking(int(demand.sum()))
    ks = np.array([ranking.k], dtype=np.int64)
    for shard_id, state in enumerate(states):
        if shard_id in exclude:
            continue
        if state.exceeds_max_capacity(demand) or (
            target is not None
            and reliability.refusal_reason(demand, state, target) is not None
        ):
            ranking.refused.append(shard_id)
            continue
        free, est = oracle_bounds(state, demand[None, :], ks)
        blocked = target is not None and not reliability.can_satisfy_target(
            demand, state, target
        )
        ranking.add(shard_id, float(free[0]), np.inf if blocked else float(est[0]))
    return ranking.result()


def assert_same_route(got, want, context):
    assert got.ranked == want.ranked, context
    assert got.refused == want.refused, context
    assert list(got.scores) == list(want.scores), context
    got_bytes = np.array(list(got.scores.values()), dtype=np.float64).tobytes()
    want_bytes = np.array(list(want.scores.values()), dtype=np.float64).tobytes()
    assert got_bytes == want_bytes, context


def partially_loaded_fabric(model, plan, clouds, seed):
    pool = random_pool(
        PoolSpec(
            racks=6, nodes_per_rack=3, clouds=clouds, capacity_low=0, capacity_high=4
        ),
        CATALOG,
        seed=seed,
        distance_model=model,
    )
    fabric = ShardedPlacementFabric(
        pool,
        plan=plan,
        config=FabricConfig(service=ServiceConfig(batch_window=0.0)),
        obs=MetricsRegistry(),
    )
    rng = np.random.default_rng(seed)
    for shard in fabric.shards:
        state = shard.state
        free = state.remaining
        load = rng.integers(0, free + 1) * (rng.random(free.shape) < 0.5)
        if load.any():
            lease = Allocation.from_matrix(load, state.distance_matrix)
            state.allocate_lease(1000 + shard.shard_id, lease)
    return pool, fabric


def oracle_demands(rng, pool, rows=24):
    demands = rng.integers(0, 6, size=(rows, pool.num_types))
    demands[0] = 0
    demands[1] = pool.max_capacity.sum(axis=0) + 1
    demands[2, 0] = 10_000
    demands[3] = pool.remaining.sum(axis=0) // 2
    return demands


_ORACLE_MODELS = {
    "default": None,
    "1-3-7": DistanceModel(1.0, 3.0, 7.0),
    "off-grid": DistanceModel(0.3, 0.7, 1.9),
}
_ORACLE_PLANS = {
    "by-rack": ByRackPlan,
    "rack-group": lambda: RackGroupPlan(2),
    "balanced": lambda: CapacityBalancedPlan(3),
}


@pytest.mark.parametrize("plan", sorted(_ORACLE_PLANS))
@pytest.mark.parametrize("model", sorted(_ORACLE_MODELS))
class TestRouterOracle:
    """The one-pass router is the per-shard ``tier_bound`` pass to the bit:
    same ``ranked``, ``refused`` and score floats for every entry point,
    under on- and off-grid models, on 1–3 clouds, with exclusions and
    zero and over-capacity demands."""

    def test_route_and_route_batch_match_the_oracle(self, model, plan):
        for clouds in (1, 2, 3):
            pool, fabric = partially_loaded_fabric(
                _ORACLE_MODELS[model], _ORACLE_PLANS[plan](), clouds, 11 * clouds
            )
            states = [shard.state for shard in fabric.shards]
            demands = oracle_demands(np.random.default_rng(clouds), pool)
            for exclude in (frozenset(), frozenset({0}), frozenset({1, 2})):
                batch = fabric._router.route_batch(demands, exclude=exclude)
                for row, demand in enumerate(demands):
                    want = oracle_route(states, demand, exclude=exclude)
                    context = f"clouds={clouds} exclude={set(exclude)} row={row}"
                    assert_same_route(
                        fabric._router.route(demand, exclude=exclude), want, context
                    )
                    assert_same_route(batch[row], want, context)

    def test_estimates_match_the_oracle(self, model, plan):
        pool, fabric = partially_loaded_fabric(
            _ORACLE_MODELS[model], _ORACLE_PLANS[plan](), 2, 5
        )
        demands = oracle_demands(np.random.default_rng(5), pool)
        ks = demands.sum(axis=1)
        for shard in fabric.shards:
            _, want = oracle_bounds(shard.state, demands, ks)
            assert estimate_dc_batch(shard.state, demands).tobytes() == want.tobytes()
            for row, demand in enumerate(demands):
                assert np.float64(estimate_dc(shard.state, demand)).tobytes() == (
                    want[row].tobytes()
                )

    def test_exact_estimate_is_the_estimate_on_exact_tiers_only(self, model, plan):
        pool, fabric = partially_loaded_fabric(
            _ORACLE_MODELS[model], _ORACLE_PLANS[plan](), 2, 3
        )
        router = fabric._router
        demands = oracle_demands(np.random.default_rng(3), pool)
        for shard in fabric.shards:
            cache = shard.state.topology_cache
            for demand in demands:
                got = router.exact_estimate_dc(shard.shard_id, shard.state, demand)
                if not cache.exact_tiers:
                    assert got is None
                    continue
                want = estimate_dc(shard.state, demand)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()
            # A state the router does not score for the shard gets no bound.
            stale = state_from_checkpoint(json.loads(checkpoint_bytes(shard.state)))
            assert router.exact_estimate_dc(shard.shard_id, stale, demands[4]) is None

    def test_targeted_route_matches_the_oracle(self, model, plan):
        pool, fabric = partially_loaded_fabric(
            _ORACLE_MODELS[model], _ORACLE_PLANS[plan](), 2, 7
        )
        states = [shard.state for shard in fabric.shards]
        demands = oracle_demands(np.random.default_rng(7), pool)
        for target in (
            SurvivabilityTarget(kind="rack", k=1),
            SurvivabilityTarget(kind="rack", k=3),
        ):
            for demand in demands[demands.sum(axis=1) > 0]:
                assert_same_route(
                    fabric._router.route(demand, target=target),
                    oracle_route(states, demand, target=target),
                    f"{target} {demand}",
                )

    def test_router_after_replace_state_matches_the_oracle(self, model, plan):
        pool, fabric = partially_loaded_fabric(
            _ORACLE_MODELS[model], _ORACLE_PLANS[plan](), 2, 9
        )
        restored = state_from_checkpoint(
            json.loads(checkpoint_bytes(fabric.shards[1].state))
        )
        rng = np.random.default_rng(9)
        load = rng.integers(0, restored.remaining + 1) // 2
        restored.allocate_lease(2000, Allocation.from_matrix(load, restored.distance_matrix))
        fabric._router.replace_state(1, restored)
        states = [shard.state for shard in fabric.shards]
        states[1] = restored
        demands = oracle_demands(rng, pool)
        batch = fabric._router.route_batch(demands)
        for row, demand in enumerate(demands):
            want = oracle_route(states, demand)
            assert_same_route(fabric._router.route(demand), want, f"row={row}")
            assert_same_route(batch[row], want, f"row={row}")


# ------------------------------------------------ rebalance at O(racks)


_PRUNED = "repro_shard_migrations_pruned_total"


def run_ledger_style_trace(model=None, *, ops=240, every=40, policy_factory=None):
    """The ledger's fabric stream at small size: 4 shards, demands 1–6,
    step-driven, a bounded live set and an explicit rebalance every
    *every* requests. Returns ``(reports, owners, checkpoint, registry)``."""
    pool = random_pool(
        PoolSpec(racks=8, nodes_per_rack=4, clouds=2, capacity_low=1, capacity_high=4),
        CATALOG,
        seed=37,
        distance_model=model,
    )
    registry = MetricsRegistry()
    fabric = ShardedPlacementFabric(
        pool,
        plan=RackGroupPlan(4),
        config=FabricConfig(
            service=ServiceConfig(batch_window=0.0, max_batch=64, enable_transfers=True)
        ),
        obs=registry,
        policy_factory=policy_factory,
    )
    rng = np.random.default_rng(41)
    reports, live = [], []
    for rid in range(ops):
        demand = [int(x) for x in rng.integers(1, 7, size=pool.num_types)]
        fabric.submit(PlaceRequest(request_id=rid, demand=demand))
        live.append(rid)
        if rid % 3 == 2:
            _settle(fabric)
        if len(live) > 12:
            _settle(fabric)
            victim = live.pop(int(rng.integers(0, len(live))))
            fabric.release(ReleaseRequest(request_id=victim))
        if rid % every == every - 1:
            _settle(fabric)
            reports.append(fabric.rebalance())
    _settle(fabric)
    reports.append(fabric.rebalance())
    fabric.verify_consistency()
    owners = {rid: fabric.owner_of(rid) for rid in range(ops)}
    return reports, owners, fabric.checkpoint_bytes(), registry


@pytest.mark.parametrize(
    "model", [None, DistanceModel(0.3, 0.7, 1.9)], ids=["default", "off-grid"]
)
def test_rebalance_matches_unpruned_reference_sweep(monkeypatch, model):
    """Reports, owners and checkpoint bytes are the same as shipped and
    with the migration prune off and ``_reference_transfer_pair`` in the
    shards' batch optimizers. The prune fires on the default model and
    never off the grid."""
    fast = run_ledger_style_trace(model)

    def reference(a1, a2, dist, *, cache=None, obs=None, **kwargs):
        return _reference_transfer_pair(a1, a2, dist, **kwargs)

    monkeypatch.setattr(
        fabric_module.ShardRouter, "exact_estimate_dc", lambda self, sid, state, demand: None
    )
    monkeypatch.setattr(server_module, "transfer_pair", reference)
    slow = run_ledger_style_trace(model)
    assert fast[:3] == slow[:3]
    assert sum(report.migrations for report in fast[0]) >= 1
    assert slow[3].get(_PRUNED).value == 0
    pruned = fast[3].get(_PRUNED).value
    assert pruned > 0 if model is None else pruned == 0


def test_rebalance_with_a_seeded_random_policy_matches_the_unpruned_sweep(
    monkeypatch,
):
    """A policy that draws per placement is never skipped: a seeded random
    center order sees every trial placement the unpruned sweep makes, so
    its later draws, and every decision after them, are the same."""

    def policy_factory():
        return OnlineHeuristic(center_order="random", seed=5)

    fast = run_ledger_style_trace(policy_factory=policy_factory)
    monkeypatch.setattr(
        fabric_module.ShardRouter, "exact_estimate_dc", lambda self, sid, state, demand: None
    )
    slow = run_ledger_style_trace(policy_factory=policy_factory)
    assert fast[:3] == slow[:3]
    assert sum(report.migrations for report in fast[0]) >= 1
    assert fast[3].get(_PRUNED).value == 0
