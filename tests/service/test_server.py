"""Tests for PlacementService: differential equivalence, batching, admission."""

import time

import numpy as np
import pytest

from repro.cloud.request import TimedRequest
from repro.cluster import PoolSpec, ResourcePool, VMTypeCatalog, random_pool
from repro.core import OnlineHeuristic
from repro.service import (
    ClusterState,
    DecisionStatus,
    PlaceRequest,
    PlacementService,
    ReleaseRequest,
    ServiceConfig,
)
from repro.util.errors import ValidationError


def make_state(seed=7, racks=3, nodes_per_rack=8, capacity_high=3):
    catalog = VMTypeCatalog.ec2_default()
    pool = random_pool(
        PoolSpec(racks=racks, nodes_per_rack=nodes_per_rack, capacity_high=capacity_high),
        catalog,
        seed=seed,
    )
    return ClusterState.from_pool(pool)


def make_service(state=None, **config_kwargs) -> PlacementService:
    state = state or make_state()
    return PlacementService(state, config=ServiceConfig(**config_kwargs))


def random_demands(rng, num_types, count, high=3):
    demands = []
    for _ in range(count):
        while True:
            demand = rng.integers(0, high, size=num_types)
            if demand.sum() > 0:
                break
        demands.append(tuple(int(d) for d in demand))
    return demands


class TestDifferentialEquivalence:
    """ISSUE acceptance: with a quiesced cluster and batch size 1, service
    decisions must be identical to direct OnlineHeuristic.place calls."""

    def test_matches_direct_heuristic_for_50_seeded_requests(self):
        state = make_state(seed=13)
        mirror = ResourcePool(
            state.topology,
            state.catalog,
            distance_model=state.distance_model,
        )
        service = make_service(state, max_batch=1, enable_transfers=False)
        heuristic = OnlineHeuristic()
        rng = np.random.default_rng(99)
        demands = random_demands(rng, state.num_types, 50)
        for i, demand in enumerate(demands):
            ticket = service.submit(PlaceRequest(demand=demand, request_id=1000 + i))
            decisions = service.step()
            expected = heuristic.place(mirror, list(demand)).allocation
            if expected is None:
                # The service leaves unsatisfiable requests queued — no
                # terminal decision yet, and the mirror pool is untouched.
                assert not ticket.done
                assert decisions == []
                assert service.cancel(1000 + i)
                continue
            assert ticket.done
            decision = ticket.decision
            assert decision.placed
            assert decision.center == expected.center
            assert decision.distance == pytest.approx(expected.distance)
            dense = decision.allocation_matrix(
                state.num_nodes, state.num_types
            )
            assert np.array_equal(dense, expected.matrix)
            mirror.allocate(expected.matrix)
        assert np.array_equal(state.allocated, mirror.allocated)
        state.verify_consistency()


class TestBatching:
    def test_batched_distance_never_worse_than_sequential(self):
        state = make_state(seed=21)
        mirror = ResourcePool(
            state.topology,
            state.catalog,
            distance_model=state.distance_model,
        )
        service = make_service(state, max_batch=16, enable_transfers=True)
        heuristic = OnlineHeuristic()
        rng = np.random.default_rng(5)
        demands = random_demands(rng, state.num_types, 8)
        tickets = [
            service.submit(PlaceRequest(demand=d, request_id=2000 + i))
            for i, d in enumerate(demands)
        ]
        service.step()
        sequential = 0.0
        for demand in demands:
            allocation = heuristic.place(mirror, list(demand)).allocation
            if allocation is not None:
                mirror.allocate(allocation.matrix)
                sequential += allocation.distance
        batched = sum(
            t.decision.distance for t in tickets if t.done and t.decision.placed
        )
        assert batched <= sequential + 1e-9
        state.verify_consistency()

    def test_transfer_gain_is_accounted(self):
        # With transfers on, any applied exchange must show up in stats and
        # shrink total distance accordingly.
        state = make_state(seed=21)
        service = make_service(state, max_batch=16, enable_transfers=True)
        rng = np.random.default_rng(5)
        for i, demand in enumerate(random_demands(rng, state.num_types, 8)):
            service.submit(PlaceRequest(demand=demand, request_id=3000 + i))
        service.step()
        assert service.stats.transfer_gain >= 0.0
        if service.stats.transfer_exchanges:
            assert service.stats.transfer_gain > 0.0
        state.verify_consistency()

    def test_max_batch_caps_one_step(self):
        state = make_state()
        service = make_service(state, max_batch=2)
        for i in range(5):
            service.submit(PlaceRequest(demand=(1, 0, 0), request_id=4000 + i))
        decisions = service.step()
        assert len([d for d in decisions if d.placed]) <= 2
        assert service.queued == 5 - len(decisions)


class TestAdmissionControl:
    def test_impossible_demand_refused_immediately(self):
        service = make_service()
        ticket = service.submit(PlaceRequest(demand=(10_000, 0, 0)))
        assert ticket.done
        assert ticket.decision.status == DecisionStatus.REFUSED
        assert service.stats.refused == 1
        assert service.queued == 0

    def test_full_queue_rejects_with_backpressure(self):
        service = make_service(queue_capacity=2)
        t1 = service.submit(PlaceRequest(demand=(1, 0, 0)))
        t2 = service.submit(PlaceRequest(demand=(1, 0, 0)))
        t3 = service.submit(PlaceRequest(demand=(1, 0, 0)))
        assert not t1.done and not t2.done
        assert t3.done
        assert t3.decision.status == DecisionStatus.REJECTED
        assert service.stats.rejected == 1

    def test_max_wait_times_out_starved_requests(self):
        state = make_state()
        service = make_service(state, max_wait=5.0)
        # Saturate the pool so the request cannot currently be satisfied.
        state.allocate(state.remaining.copy())
        ticket = service.submit(PlaceRequest(demand=(1, 0, 0)))
        assert service.step() == []  # still waiting, within max_wait
        assert not ticket.done
        decisions = service.step(now=time.monotonic() + 10.0)
        assert ticket.done
        assert ticket.decision.status == DecisionStatus.TIMEOUT
        assert ticket.decision.latency >= 5.0
        assert [d.status for d in decisions] == [DecisionStatus.TIMEOUT]
        assert service.stats.timed_out == 1
        assert service.queued == 0

    def test_release_unknown_lease(self):
        service = make_service()
        response = service.release(ReleaseRequest(request_id=123456))
        assert response.status == DecisionStatus.UNKNOWN_LEASE

    def test_release_frees_capacity_for_waiters(self):
        state = make_state()
        service = make_service(state)
        # Occupy everything through the ledger.
        first = service.submit(
            PlaceRequest(demand=tuple(int(a) for a in state.available))
        )
        service.step()
        assert first.done and first.decision.placed
        waiter = service.submit(PlaceRequest(demand=(1, 0, 0)))
        service.step()
        assert not waiter.done
        response = service.release(ReleaseRequest(request_id=first.request_id))
        assert response.released
        service.step()
        assert waiter.done and waiter.decision.placed
        state.verify_consistency()


class TestDuplicatesAndCancel:
    def test_duplicate_queued_id_rejected_at_submit(self):
        state = make_state()
        service = make_service(state)
        saturation = state.remaining.copy()
        state.allocate(saturation)  # force the first submission to wait
        first = service.submit(PlaceRequest(demand=(1, 0, 0), request_id=77))
        dup = service.submit(PlaceRequest(demand=(1, 0, 0), request_id=77))
        assert not first.done
        assert dup.done
        assert dup.decision.status == DecisionStatus.REJECTED
        assert "duplicate" in dup.decision.detail
        # The original ticket survives the duplicate and is still served.
        state.release(saturation)
        service.step()
        assert first.done and first.decision.placed

    def test_duplicate_of_active_lease_rejected_at_submit(self):
        service = make_service()
        first = service.submit(PlaceRequest(demand=(1, 0, 0), request_id=88))
        service.step()
        assert first.done and first.decision.placed
        dup = service.submit(PlaceRequest(demand=(1, 0, 0), request_id=88))
        assert dup.done
        assert dup.decision.status == DecisionStatus.REJECTED
        assert "duplicate" in dup.decision.detail

    def test_step_survives_forced_duplicate_queue_entry(self):
        # Regression: two queue entries sharing an id (injected past submit's
        # guard) used to raise out of step() and kill the scheduler thread.
        state = make_state()
        service = make_service(state)
        ticket = service.submit(PlaceRequest(demand=(1, 0, 0), request_id=99))
        rogue = TimedRequest(
            request=PlaceRequest(demand=(1, 0, 0), request_id=99).to_core(),
            arrival_time=0.0,
            duration=1.0,
        )
        assert service._queue.submit(rogue)
        decisions = service.step()
        assert ticket.done and ticket.decision.placed
        assert sorted(d.status for d in decisions) == [
            DecisionStatus.PLACED,
            DecisionStatus.REJECTED,
        ]
        assert service.queued == 0
        assert state.has_lease(99)
        state.verify_consistency()

    def test_cancel_withdraws_queued_request(self):
        state = make_state()
        service = make_service(state)
        saturation = state.remaining.copy()
        state.allocate(saturation)
        ticket = service.submit(PlaceRequest(demand=(1, 0, 0), request_id=55))
        assert not ticket.done
        assert service.cancel(55)
        assert ticket.done
        assert ticket.decision.status == DecisionStatus.CANCELLED
        assert service.queued == 0
        assert service.stats.cancelled == 1
        # Capacity freed later must NOT resurrect the withdrawn request as a
        # lease no caller tracks.
        state.release(saturation)
        assert service.step() == []
        assert not state.has_lease(55)

    def test_cancel_unknown_or_decided_request_returns_false(self):
        service = make_service()
        assert not service.cancel(123456)
        ticket = service.submit(PlaceRequest(demand=(1, 0, 0), request_id=5))
        service.step()
        assert ticket.decision.placed
        assert not service.cancel(5)  # placed; the lease stays


class TestWindowStart:
    """``earliest_arrival`` — where the loop's batching window starts — is
    the earliest arrival of a queued request no step has read yet."""

    def saturated(self):
        state = make_state()
        service = make_service(state)
        state.allocate(state.remaining.copy())
        return service

    def test_a_step_reads_every_arrival(self):
        service = self.saturated()
        assert service.earliest_arrival is None
        before = time.monotonic()
        service.submit(PlaceRequest(demand=(1, 0, 0), request_id=1))
        service.submit(PlaceRequest(demand=(1, 0, 0), request_id=2))
        assert before <= service.earliest_arrival <= time.monotonic()
        assert service.step() == []
        assert service.earliest_arrival is None
        assert service.queued == 2  # still queued, but read

    def test_leaving_the_queue_unread_takes_the_arrival_along(self):
        service = self.saturated()
        service.submit(PlaceRequest(demand=(1, 0, 0), request_id=1))
        first = service.earliest_arrival
        service.submit(PlaceRequest(demand=(1, 0, 0), request_id=2))
        service.submit(PlaceRequest(demand=(1, 0, 0), request_id=3))
        assert service.cancel(2)
        assert service.earliest_arrival == first
        assert service.withdraw(1) == first
        second = service.earliest_arrival
        assert second is not None and second >= first
        assert service.cancel(3)
        assert service.earliest_arrival is None
        assert service.withdraw(3) is None  # no longer pending

    def test_an_earlier_arrival_moves_the_start_back(self):
        service = self.saturated()
        service.submit(PlaceRequest(demand=(1, 0, 0), request_id=1))
        earlier = service.earliest_arrival - 1.0
        service.submit(PlaceRequest(demand=(1, 0, 0), request_id=2), arrival=earlier)
        assert service.earliest_arrival == earlier
        assert service.withdraw(2) == earlier

    def test_a_drain_forgets_the_arrivals_it_drops(self):
        service = self.saturated()
        service.submit(PlaceRequest(demand=(1, 0, 0), request_id=1))
        service.drain(timeout=0.0)
        assert service.earliest_arrival is None


class TestLifecycle:
    def test_background_loop_serves_submissions(self):
        service = make_service(batch_window=0.001)
        service.start()
        try:
            assert service.running
            ticket = service.submit(PlaceRequest(demand=(1, 1, 0)))
            decision = ticket.result(timeout=5.0)
            assert decision is not None and decision.placed
            assert decision.latency >= 0.0
        finally:
            service.stop()
        assert not service.running

    def test_background_loop_survives_starvation_then_serves(self):
        # With the queue non-empty but nothing admissible the loop must park
        # on the condition (not spin) and still serve once capacity frees.
        state = make_state()
        service = make_service(state, batch_window=0.0)
        saturation = state.remaining.copy()
        with service._lock:
            state.allocate(saturation)
        service.start()
        try:
            ticket = service.submit(PlaceRequest(demand=(1, 0, 0)))
            assert ticket.result(timeout=0.2) is None  # starved, still queued
            with service._lock:
                state.release(saturation)
            service.wake()
            decision = ticket.result(timeout=5.0)
            assert decision is not None and decision.placed
        finally:
            service.stop()

    def test_drain_places_what_it_can_and_drops_the_rest(self):
        state = make_state()
        service = make_service(state)
        feasible = service.submit(PlaceRequest(demand=(1, 0, 0)))
        # Needs the *entire* pool: admissible now, impossible once the
        # feasible request ahead of it is placed.
        blocked = service.submit(
            PlaceRequest(demand=tuple(int(a) for a in state.available))
        )
        decisions = service.drain(timeout=1.0)
        assert feasible.done and feasible.decision.placed
        assert blocked.done
        assert blocked.decision.status == DecisionStatus.DROPPED
        statuses = {d.status for d in decisions}
        assert statuses == {DecisionStatus.PLACED, DecisionStatus.DROPPED}
        assert service.queued == 0
        assert service.stats.dropped == 1

    def test_submissions_after_drain_are_rejected(self):
        service = make_service()
        service.drain(timeout=0.1)
        ticket = service.submit(PlaceRequest(demand=(1, 0, 0)))
        assert ticket.done
        assert ticket.decision.status == DecisionStatus.REJECTED
        assert "drain" in ticket.decision.detail


class TestServiceConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"queue_capacity": 0},
            {"batch_window": -0.1},
            {"max_batch": 0},
            {"max_wait": 0.0},
            {"transfer_rounds": 0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            ServiceConfig(**kwargs)

    def test_stats_snapshot_shape(self):
        service = make_service()
        service.submit(PlaceRequest(demand=(1, 0, 0)))
        service.step()
        doc = service.stats.to_dict()
        assert doc["submitted"] == 1
        assert doc["placed"] == 1
        assert doc["acceptance_rate"] == 1.0
        assert doc["mean_distance"] >= 0.0
