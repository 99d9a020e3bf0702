"""Failover suite: kill k of n shard workers mid-trace, verify recovery.

The invariants under test (the PR's acceptance bar):

* **no surviving lease lost** — killing a shard never perturbs leases held
  by other shards; the expected ledger (placed minus successfully released)
  matches the fabric's union ledger exactly after recovery;
* **byte-identical restore** — the restored shard's state serializes to
  exactly the checkpoint payload the worker write-ahead replicated before
  the kill, and the whole-fabric checkpoint round-trips byte-identically;
* **degraded routing** — while a shard is down the router never places on
  its nodes, requests only it could serve fail fast as
  ``shard_unavailable``, and in-flight victims re-route to survivors;
* **acceptance recovers** — post-restore traffic is admitted again with no
  ``shard_unavailable`` decisions;
* **supervision is free** — with zero deaths, a supervised run is decision-
  and byte-identical to the plain PR-5 fabric on the same trace.

Everything is manually stepped against an injected fake clock, so kills,
detection, TTL expiry, and restores replay deterministically. Set
``CHAOS_SMOKE=1`` to shrink the traces for CI smoke runs.
"""

import json
import os

import numpy as np
import pytest

from repro.cluster import PoolSpec, VMTypeCatalog, random_pool
from repro.obs import MetricsRegistry
from repro.service import (
    DecisionStatus,
    FabricChaosInjector,
    FabricSupervisor,
    InMemoryCoordinationBackend,
    PlaceRequest,
    ReleaseRequest,
    ServiceConfig,
    SupervisorConfig,
    checkpoint_bytes,
    fabric_from_checkpoint,
)
from repro.service.shard import FabricConfig, RackGroupPlan, ShardedPlacementFabric
from repro.util.errors import ValidationError

CATALOG = VMTypeCatalog.ec2_default()
SMOKE = os.environ.get("CHAOS_SMOKE", "") == "1"
TRACE_LEN = 40 if SMOKE else 90


class FakeClock:
    def __init__(self, t=0.0):
        self.t = float(t)

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt
        return self.t


def make_pool(seed=7, racks=8, nodes_per_rack=3):
    return random_pool(
        PoolSpec(
            racks=racks,
            nodes_per_rack=nodes_per_rack,
            clouds=2,
            capacity_low=1,
            capacity_high=3,
        ),
        CATALOG,
        seed=seed,
    )


def make_fabric(pool, shards=8, **config_kwargs):
    config_kwargs.setdefault("service", ServiceConfig(batch_window=0.0))
    service = config_kwargs.pop("service")
    return ShardedPlacementFabric(
        pool,
        plan=RackGroupPlan(shards),
        config=FabricConfig(service=service, **config_kwargs),
        obs=MetricsRegistry(),
    )


def make_supervised(seed=7, shards=8, clock=None, **sup_kwargs):
    clock = clock or FakeClock()
    pool = make_pool(seed)
    fabric = make_fabric(pool, shards=shards)
    supervisor = FabricSupervisor(
        fabric,
        InMemoryCoordinationBackend(),
        SupervisorConfig(**sup_kwargs) if sup_kwargs else SupervisorConfig(),
        clock=clock,
    )
    return pool, fabric, supervisor, clock


def make_trace(seed, count=TRACE_LEN, num_types=3):
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
    return trace


def pump(fabric, rounds=12):
    for _ in range(rounds):
        if not fabric.step_all(now=0.0) and not fabric.queued:
            break


class TraceDriver:
    """Replays a trace, tracking every ticket and successful release."""

    def __init__(self, fabric):
        self.fabric = fabric
        self.tickets = {}
        self.released = set()

    def apply(self, op, rid, demand):
        if op == "place":
            self.tickets[rid] = self.fabric.submit(
                PlaceRequest(request_id=rid, demand=demand)
            )
        elif op == "release":
            response = self.fabric.release(ReleaseRequest(request_id=rid))
            if response.released:
                self.released.add(rid)
        pump(self.fabric)

    def run(self, trace, on_step=None):
        for index, (op, rid, demand) in enumerate(trace):
            self.apply(op, rid, demand)
            if on_step is not None:
                on_step(index)

    def decisions(self):
        return {
            rid: ticket.decision
            for rid, ticket in self.tickets.items()
            if ticket.decision is not None
        }

    def expected_leases(self):
        """Placed and never successfully released → must hold a lease."""
        return {
            rid
            for rid, decision in self.decisions().items()
            if decision.placed and rid not in self.released
        }


def fabric_lease_ids(fabric):
    held = set()
    for shard in fabric.shards:
        held |= set(shard.state.leases)
    return held


def placements_touch_shard(decision, shard):
    nodes = set(int(n) for n in shard.to_global)
    return any(node in nodes for node, _, _ in decision.placements)


class TestSupervisedEquivalence:
    def test_zero_death_run_is_identical_to_plain_fabric(self):
        """Satellite (d): supervision with no chaos changes nothing."""
        trace = make_trace(1101, num_types=make_pool().num_types)

        def run(supervised):
            pool = make_pool(seed=7)
            fabric = make_fabric(pool, shards=8)
            if supervised:
                FabricSupervisor(
                    fabric,
                    InMemoryCoordinationBackend(),
                    SupervisorConfig(),
                    clock=FakeClock(),
                )
            driver = TraceDriver(fabric)
            driver.run(trace)
            fabric.verify_consistency()
            statuses = {
                rid: (d.status, d.placements, d.center, d.distance)
                for rid, d in driver.decisions().items()
            }
            return statuses, fabric.checkpoint_bytes()

        plain_decisions, plain_bytes = run(supervised=False)
        sup_decisions, sup_bytes = run(supervised=True)
        assert sup_decisions == plain_decisions
        assert sup_bytes == plain_bytes

    def test_supervised_run_keeps_backend_in_sync(self):
        pool, fabric, supervisor, clock = make_supervised()
        driver = TraceDriver(fabric)
        driver.run(make_trace(1102, num_types=pool.num_types))
        supervisor.verify_consistency()
        fabric.verify_consistency()
        # Every shard's replicated payload is the live state, byte-exact.
        for worker in supervisor.workers:
            payload = supervisor.replicated_payload(worker.shard_id)
            assert payload == checkpoint_bytes(worker.service.state).encode("utf-8")


class TestFailoverMidTrace:
    def kill_and_recover(self, kill_shards, *, defer_steps=6, seed=7):
        """Run a trace, kill ``kill_shards`` mid-way, recover, verify."""
        pool, fabric, supervisor, clock = make_supervised(seed=seed)
        trace = make_trace(2000 + len(kill_shards), num_types=pool.num_types)
        half = len(trace) // 2
        driver = TraceDriver(fabric)
        driver.run(trace[:half])

        pre_kill = driver.decisions()
        survivors_before = {
            s.shard_id: dict(s.state.leases)
            for s in fabric.shards
            if s.shard_id not in kill_shards
        }
        payloads = {k: supervisor.replicated_payload(k) for k in kill_shards}
        gate_open = {"open": False}
        supervisor.restore_gate = lambda sid, now: gate_open["open"]
        for k in kill_shards:
            supervisor.workers[k].kill()
        clock.advance(1.0)
        events = supervisor.monitor(now=clock.t)
        assert {e.shard_id for e in events} == set(kill_shards)
        assert all(not e.restored for e in events)
        assert fabric.down_shards == frozenset(kill_shards)

        # Degraded serving: run part of the remaining trace with the shards
        # still dead; nothing may be placed on a dead shard's nodes.
        outage_slice = trace[half : half + defer_steps]
        driver.run(outage_slice)
        assert fabric.down_shards == frozenset(kill_shards)
        for rid, decision in driver.decisions().items():
            if rid in pre_kill or not decision.placed:
                continue
            for k in kill_shards:
                assert not placements_touch_shard(decision, fabric.shards[k])

        # Recovery: open the gate, monitor restores from the replicated
        # checkpoint, byte-identically.
        gate_open["open"] = True
        clock.advance(1.0)
        restore_events = supervisor.monitor(now=clock.t)
        assert {e.shard_id for e in restore_events} == set(kill_shards)
        assert all(e.restored for e in restore_events)
        assert fabric.down_shards == frozenset()
        for k in kill_shards:
            assert checkpoint_bytes(fabric.shards[k].state).encode("utf-8") == payloads[k]

        # Finish the trace against the healed fabric.
        driver.run(trace[half + defer_steps :])
        pump(fabric)
        fabric.verify_consistency()
        supervisor.verify_consistency()

        # (a) no lease outside the dead shards lost — survivors' pre-kill
        # leases are still held unless the trace released them later.
        for sid, leases in survivors_before.items():
            shard = fabric.shards[sid]
            for rid in leases:
                if rid in driver.released:
                    continue
                assert fabric.owner_of(rid) is not None, (sid, rid)
        # The expected ledger matches the fabric's union ledger exactly.
        assert fabric_lease_ids(fabric) == driver.expected_leases()
        # (b) the healed fabric checkpoint round-trips byte-identically.
        blob = fabric.checkpoint_bytes()
        restored = fabric_from_checkpoint(json.loads(blob))
        assert restored.checkpoint_bytes() == blob
        return fabric, supervisor, driver, trace

    def test_kill_one_of_eight_mid_trace(self):
        fabric, supervisor, driver, trace = self.kill_and_recover([3])
        assert fabric.stats.shard_deaths == 1
        assert fabric.stats.shard_restores == 1

    def test_kill_two_of_eight_mid_trace(self):
        fabric, supervisor, driver, trace = self.kill_and_recover([1, 6])
        assert fabric.stats.shard_deaths == 2
        assert fabric.stats.shard_restores == 2

    def test_acceptance_recovers_after_restore(self):
        pool, fabric, supervisor, clock = make_supervised()
        driver = TraceDriver(fabric)
        driver.run(make_trace(2201, count=30, num_types=pool.num_types))
        supervisor.workers[0].kill()
        clock.advance(1.0)
        supervisor.monitor(now=clock.t)  # auto-restores (no gate)
        assert fabric.down_shards == frozenset()
        before_placed = fabric.stats.placed
        follow_up = []
        for rid in range(9000, 9000 + 12):
            ticket = fabric.submit(PlaceRequest(request_id=rid, demand=(1, 0, 0)))
            follow_up.append(ticket)
            pump(fabric)
        decisions = [t.decision for t in follow_up if t.decision is not None]
        assert len(decisions) == len(follow_up)
        assert all(
            d.status != DecisionStatus.SHARD_UNAVAILABLE for d in decisions
        )
        assert fabric.stats.placed > before_placed
        fabric.verify_consistency()

    def test_inflight_requests_reroute_to_survivors(self):
        pool, fabric, supervisor, clock = make_supervised()
        # Queue requests without stepping so they are in flight, then kill
        # whichever shards admitted them.
        tickets = {}
        for rid in range(500, 512):
            tickets[rid] = fabric.submit(
                PlaceRequest(request_id=rid, demand=(1, 0, 0))
            )
        owners = {rid: fabric.owner_of(rid) for rid in tickets}
        target = max(
            set(owners.values()) - {None},
            key=lambda sid: sum(1 for o in owners.values() if o == sid),
        )
        victims = [rid for rid, sid in owners.items() if sid == target]
        assert victims, "router should have admitted something to the target"
        supervisor.workers[target].kill()
        gate = {"open": False}
        supervisor.restore_gate = lambda sid, now: gate["open"]
        clock.advance(1.0)
        events = supervisor.monitor(now=clock.t)
        assert events and set(events[0].rerouted) == set(victims)
        pump(fabric)
        for rid in victims:
            decision = tickets[rid].decision
            assert decision is not None
            if decision.placed:
                assert not placements_touch_shard(
                    decision, fabric.shards[target]
                )

    def test_release_on_dead_shard_fails_fast_and_survives_restore(self):
        pool, fabric, supervisor, clock = make_supervised()
        driver = TraceDriver(fabric)
        driver.run(make_trace(2203, count=30, num_types=pool.num_types))
        # Find a shard holding at least one lease and kill it.
        target = max(
            fabric.shards, key=lambda s: s.state.num_leases
        ).shard_id
        held = sorted(fabric.shards[target].state.leases)
        assert held
        gate = {"open": False}
        supervisor.restore_gate = lambda sid, now: gate["open"]
        supervisor.workers[target].kill()
        clock.advance(1.0)
        supervisor.monitor(now=clock.t)
        response = fabric.release(ReleaseRequest(request_id=held[0]))
        assert response.status == DecisionStatus.SHARD_UNAVAILABLE
        assert not fabric.cancel(held[0])
        # verify_consistency reports the stranded leases while degraded...
        with pytest.raises(ValidationError, match="dead shard"):
            fabric.verify_consistency()
        # ...and the supervisor refuses ledger verification too.
        with pytest.raises(ValidationError, match="dead shard"):
            supervisor.verify_consistency()
        gate["open"] = True
        clock.advance(1.0)
        supervisor.monitor(now=clock.t)
        # The stranded lease survived the outage and releases normally now.
        response = fabric.release(ReleaseRequest(request_id=held[0]))
        assert response.released
        fabric.verify_consistency()

    def test_checkpoint_refused_while_degraded(self):
        pool, fabric, supervisor, clock = make_supervised()
        gate = {"open": False}
        supervisor.restore_gate = lambda sid, now: gate["open"]
        supervisor.workers[2].kill()
        clock.advance(1.0)
        supervisor.monitor(now=clock.t)
        with pytest.raises(ValidationError, match="dead shard"):
            fabric.checkpoint_doc()


class TestHeartbeatDetection:
    def test_missed_heartbeats_trigger_failover(self):
        pool, fabric, supervisor, clock = make_supervised(heartbeat_ttl=1.0)
        worker = supervisor.workers[4]
        worker.suppress_until = float("inf")  # partition the heartbeat path
        # The worker still "runs" (not crashed), but its beats never land;
        # every other worker keeps beating normally.
        clock.advance(2.0)
        for other in supervisor.workers:
            other.beat(clock.t)  # no-op for the suppressed worker
        events = supervisor.monitor(now=clock.t)
        assert [e.shard_id for e in events] == [4]
        assert "heartbeat age" in events[0].reason
        assert events[0].restored  # auto-restore, no gate
        assert fabric.down_shards == frozenset()

    def test_short_heartbeat_delay_is_absorbed(self):
        pool, fabric, supervisor, clock = make_supervised(heartbeat_ttl=1.0)
        worker = supervisor.workers[4]
        worker.suppress_until = clock.t + 0.4  # shorter than the TTL
        clock.advance(0.5)
        worker.beat(clock.t)  # delay elapsed; beat lands again
        assert supervisor.monitor(now=clock.t) == []
        assert fabric.down_shards == frozenset()

    def test_worker_incarnation_bumps_on_restore(self):
        pool, fabric, supervisor, clock = make_supervised()
        worker = supervisor.workers[0]
        assert worker.incarnation == 1
        worker.kill()
        clock.advance(1.0)
        supervisor.monitor(now=clock.t)
        assert worker.incarnation == 2
        record = supervisor.backend.workers()[worker.worker_id]
        assert record.incarnation == 2


class TestChaosInjector:
    def test_chaos_schedule_is_seed_deterministic(self):
        _, fabric_a, sup_a, _ = make_supervised(seed=11)
        _, fabric_b, sup_b, _ = make_supervised(seed=11)
        chaos_a = FabricChaosInjector(
            sup_a, mtbf=3.0, mean_repair_time=1.0, horizon=20.0, seed=42
        )
        chaos_b = FabricChaosInjector(
            sup_b, mtbf=3.0, mean_repair_time=1.0, horizon=20.0, seed=42
        )
        assert chaos_a.schedule == chaos_b.schedule
        assert chaos_a.schedule, "renewal schedule should draw kills"

    def test_chaos_trace_keeps_invariants(self):
        pool, fabric, supervisor, clock = make_supervised(seed=13)
        chaos = FabricChaosInjector(
            supervisor,
            mtbf=4.0,
            mean_repair_time=0.5,
            horizon=float(TRACE_LEN) * 0.1,
            heartbeat_delay_probability=0.05,
            heartbeat_delay=0.3,
            seed=99,
        )
        trace = make_trace(3301, num_types=pool.num_types)
        driver = TraceDriver(fabric)
        for index, (op, rid, demand) in enumerate(trace):
            clock.advance(0.1)
            chaos.advance(clock.t)
            supervisor.monitor(now=clock.t)
            driver.apply(op, rid, demand)
        # Drain the outage tail: advance past every repair and re-monitor.
        for _ in range(50):
            if not fabric.down_shards:
                break
            clock.advance(1.0)
            supervisor.monitor(now=clock.t)
        assert fabric.down_shards == frozenset()
        assert chaos.kills >= 1, "chaos run should have killed something"
        pump(fabric)
        fabric.verify_consistency()
        supervisor.verify_consistency()
        # Terminal decision for every submission; none hung.
        for rid, ticket in driver.tickets.items():
            assert ticket.decision is not None, rid
        # No surviving lease lost: expected ledger == fabric ledger, minus
        # leases that died with a shard whose restore dropped nothing (the
        # write-ahead hook replicates every commit, so nothing is dropped).
        assert fabric_lease_ids(fabric) == driver.expected_leases()
        # The healed fabric still serves.
        ticket = fabric.submit(
            PlaceRequest(request_id=777777, demand=(1, 0, 0))
        )
        pump(fabric)
        assert ticket.decision is not None and ticket.decision.placed

    def test_checkpoint_write_faults_are_retried(self):
        pool, fabric, supervisor, clock = make_supervised(seed=17)
        worker = supervisor.workers[0]
        shard = fabric.shards[0]
        live = lambda: checkpoint_bytes(shard.state).encode("utf-8")  # noqa: E731

        def commit_on_shard(first_rid):
            for candidate in range(first_rid, first_rid + 40):
                t = fabric.submit(PlaceRequest(request_id=candidate, demand=(1, 0, 0)))
                pump(fabric)
                d = t.decision
                if d is not None and d.placed and placements_touch_shard(d, shard):
                    return t
            raise AssertionError("no placement landed on shard 0")

        baseline = supervisor.replicated_payload(0)
        acked = worker._replicated_version
        # Force every replication to fail, commit a placement on shard 0,
        # and check the backend still holds the pre-fault state: a faulted
        # append leaves nothing behind.
        worker.replication_fault = lambda: True
        ticket = commit_on_shard(8801)
        assert worker.replication_failures > 0
        assert worker._replicated_version == acked
        assert supervisor.replicated_payload(0) == baseline
        # Clear the fault; the next commit re-sends the missed versions as
        # one appended delta.
        worker.replication_fault = None
        fabric.release(ReleaseRequest(request_id=ticket.request_id))
        assert worker._replicated_version == shard.state.version
        assert supervisor.backend.read_since(worker.worker_id, acked)  # a delta
        payload = supervisor.replicated_payload(0)
        assert payload == live()
        # A faulted compaction (forced snapshot) keeps the acknowledged copy ...
        acked, failures = worker._replicated_version, worker.replication_failures
        worker.replication_fault = lambda: True
        worker.sync(force=True)
        assert worker.replication_failures == failures + 1
        assert worker._replicated_version == acked
        assert supervisor.replicated_payload(0) == payload
        # ... and the next commit retries it as a snapshot, emptying the log.
        worker.replication_fault = None
        commit_on_shard(8901)
        assert worker._replicated_version == shard.state.version
        assert supervisor.backend.read_since(worker.worker_id, -1) == []
        assert supervisor.backend.get_checkpoint(worker.worker_id) == live()
        assert supervisor.replicated_payload(0) == live()

    def test_kill_during_repair_window_is_not_double_applied(self):
        pool, fabric, supervisor, clock = make_supervised(seed=19)
        chaos = FabricChaosInjector(
            supervisor,
            failure_probability=1.0,  # one-shot: every worker dies once
            mean_repair_time=5.0,
            horizon=1.0,
            seed=3,
        )
        clock.advance(2.0)
        applied = chaos.advance(clock.t)
        assert len(applied) == len(supervisor.workers)
        again = chaos.advance(clock.t)
        assert again == []
