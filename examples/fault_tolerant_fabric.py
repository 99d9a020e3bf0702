#!/usr/bin/env python
"""Fault-tolerant serving fabric: kill a shard mid-trace, recover exactly.

Walks the full failover story from docs/RELIABILITY.md on a deterministic
fake clock:

1. stand up an 8-shard supervised fabric (heartbeats, lease ledger, and
   write-ahead checkpoint replication through the in-memory coordination
   backend);
2. place a seeded trace of tenants across the shards;
3. kill the busiest shard's worker, let the monitor sweep detect it, and
   keep serving degraded — the router never touches the dead shard and
   its in-flight work fails over to survivors;
4. restore the shard from its replicated checkpoint and assert the
   recovered state is **byte-identical** to the last write-ahead copy;
5. verify no surviving lease was lost and the healed fabric still admits.

Every step is asserted, so this doubles as the chaos-smoke CI check.

Run:  python examples/fault_tolerant_fabric.py
"""

import numpy as np

from repro.cluster import PoolSpec, VMTypeCatalog, random_pool
from repro.obs import MetricsRegistry
from repro.service import (
    FabricSupervisor,
    InMemoryCoordinationBackend,
    PlaceRequest,
    ServiceConfig,
    SupervisorConfig,
    checkpoint_bytes,
)
from repro.service.shard import FabricConfig, RackGroupPlan, ShardedPlacementFabric


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def pump(fabric, rounds=12):
    for _ in range(rounds):
        if not fabric.step_all(now=0.0) and not fabric.queued:
            break


def main() -> None:
    catalog = VMTypeCatalog.ec2_default()
    pool = random_pool(
        PoolSpec(racks=8, nodes_per_rack=3, clouds=2, capacity_high=3),
        catalog,
        seed=7,
    )
    fabric = ShardedPlacementFabric(
        pool,
        plan=RackGroupPlan(8),
        config=FabricConfig(service=ServiceConfig(batch_window=0.0)),
        obs=MetricsRegistry(),
    )
    clock = FakeClock()
    supervisor = FabricSupervisor(
        fabric,
        InMemoryCoordinationBackend(),
        SupervisorConfig(heartbeat_ttl=1.0),
        clock=clock,
    )
    print(f"supervised fabric: {fabric.num_shards} shards, "
          f"{pool.num_nodes} nodes, {len(supervisor.workers)} workers")

    # --- place a seeded trace of tenants ---------------------------------
    rng = np.random.default_rng(99)
    tickets = {}
    for rid in range(48):
        demand = [int(x) for x in rng.integers(0, 3, size=pool.num_types)]
        if sum(demand) == 0:
            demand[0] = 1
        tickets[rid] = fabric.submit(PlaceRequest(request_id=rid, demand=demand))
        pump(fabric)
    placed = {r for r, t in tickets.items() if t.decision and t.decision.placed}
    print(f"trace: placed {len(placed)}/{len(tickets)} tenants")
    assert placed, "the trace must place something"
    supervisor.verify_consistency()

    # --- kill the busiest shard ------------------------------------------
    victim = max(fabric.shards, key=lambda s: s.state.num_leases).shard_id
    victim_leases = set(fabric.shards[victim].state.leases)
    survivors_before = {
        s.shard_id: set(s.state.leases)
        for s in fabric.shards
        if s.shard_id != victim
    }
    payload = supervisor.replicated_payload(victim)
    assert payload is not None, "write-ahead copy must exist before the kill"

    gate = {"open": False}
    supervisor.restore_gate = lambda sid, now: gate["open"]  # hold repair
    supervisor.workers[victim].kill()
    clock.t += 2.0
    for worker in supervisor.workers:  # survivors keep beating; the
        if not worker.crashed:         # killed worker has gone silent
            worker.beat(clock.t)
    events = supervisor.monitor(now=clock.t)
    assert [e.shard_id for e in events] == [victim] and not events[0].restored
    assert fabric.down_shards == frozenset({victim})
    print(f"\nkilled shard {victim} ({len(victim_leases)} leases stranded); "
          f"monitor detected: {events[0].reason}")

    # --- degraded serving: dead shard is never routed to ------------------
    dead_nodes = {int(n) for n in fabric.shards[victim].to_global}
    degraded = []
    for rid in range(1000, 1012):
        ticket = fabric.submit(PlaceRequest(request_id=rid, demand=(1, 0, 0)))
        pump(fabric)
        degraded.append(ticket.decision)
    assert all(d is not None for d in degraded), "degraded ops must terminate"
    for decision in degraded:
        if decision.placed:
            assert not any(n in dead_nodes for n, _, _ in decision.placements)
    served = sum(1 for d in degraded if d.placed)
    print(f"degraded mode: {served}/{len(degraded)} placed, "
          f"0 routed to the dead shard")

    # --- restore: byte-identical to the write-ahead copy ------------------
    gate["open"] = True
    clock.t += 1.0
    restore_events = supervisor.monitor(now=clock.t)
    assert restore_events and restore_events[0].restored
    assert fabric.down_shards == frozenset()
    restored_bytes = checkpoint_bytes(fabric.shards[victim].state).encode("utf-8")
    assert restored_bytes == payload, "restore must be byte-identical"
    assert set(fabric.shards[victim].state.leases) == victim_leases
    print(f"\nrestored shard {victim} from {len(payload)} replicated bytes "
          f"(byte-identical, incarnation "
          f"{supervisor.workers[victim].incarnation}); "
          f"all {len(victim_leases)} stranded leases recovered")

    # --- no surviving lease was lost --------------------------------------
    for sid, leases in survivors_before.items():
        assert leases <= set(fabric.shards[sid].state.leases), sid
    fabric.verify_consistency()
    supervisor.verify_consistency()

    ticket = fabric.submit(PlaceRequest(request_id=777777, demand=(1, 0, 0)))
    pump(fabric)
    assert ticket.decision is not None and ticket.decision.placed
    stats = fabric.stats
    print(f"\nhealed fabric admits again; fabric stats: "
          f"deaths={stats.shard_deaths}, restores={stats.shard_restores}, "
          f"failovers={stats.failovers}, unavailable={stats.unavailable}")
    print("\nall failover invariants held")


if __name__ == "__main__":
    main()
