#!/usr/bin/env python
"""Out-of-process fabric: four worker processes, one SIGKILL, exact recovery.

The in-process fabrics (`sharded_service.py`, `fault_tolerant_fabric.py`)
share one interpreter and one GIL. This example scales past that: each
shard's :class:`PlacementService` runs in its own **spawned child
process** (`repro.service.proc`). It is the same
:class:`ShardedPlacementFabric` and the same :class:`FabricSupervisor` —
``build_fabric(workers="proc")`` only swaps the backend each shard is
reached through, here the versioned length-prefixed worker wire — while a
real TCP coordination server (`repro.service.coord.net`) carries
heartbeats, the lease ledger, and write-ahead checkpoint replication.

The walk-through:

1. start a loopback :class:`CoordinationServer` and build a supervised
   4-shard fabric over proc workers wired to it — four real child PIDs;
2. place a seeded trace across the shards and sync the replicated
   checkpoints;
3. ``SIGKILL -9`` one child mid-run — no warning, no cleanup;
4. let the supervisor detect the death (process liveness + heartbeat
   TTL), quarantine the shard, and respawn a fresh child from the
   replicated checkpoint;
5. assert the restored worker state is **byte-identical** to the last
   write-ahead copy, that zero surviving leases were lost, and that the
   healed fabric still admits new work.

Every step is asserted, so this doubles as the proc-smoke CI check.

Run:  python examples/multiprocess_fabric.py
"""

import os
import signal
import time

import numpy as np

from repro.cluster import PoolSpec, VMTypeCatalog, random_pool
from repro.obs import MetricsRegistry
from repro.service import (
    PlaceRequest,
    ServiceConfig,
    SupervisorConfig,
    build_fabric,
)
from repro.service.coord.net import CoordinationServer
from repro.service.shard import FabricConfig, RackGroupPlan

SHARDS = 4
TRACE = 28


def pump(fabric, rounds=40):
    idle = 0
    for _ in range(rounds):
        idle = 0 if fabric.step_all(now=0.0) else idle + 1
        if idle >= 2:
            break


def main() -> None:
    catalog = VMTypeCatalog.ec2_default()
    pool = random_pool(
        PoolSpec(racks=8, nodes_per_rack=3, clouds=2, capacity_high=3),
        catalog,
        seed=7,
    )
    sup_cfg = SupervisorConfig(
        heartbeat_interval=0.1,
        heartbeat_ttl=0.6,
        lease_ttl=10.0,
        monitor_interval=0.1,
    )

    with CoordinationServer() as server:
        print(f"coordination server on {server.url}")
        built = build_fabric(
            pool,
            RackGroupPlan(SHARDS),
            workers="proc",
            config=FabricConfig(service=ServiceConfig(batch_window=0.0)),
            obs=MetricsRegistry(),
            coord=server.url,
            supervise=True,
            supervisor_config=sup_cfg,
        )
        fabric, supervisor = built.service, built.supervisor
        try:
            pids = {h.shard_id: h.pid for h in fabric.handles}
            print(f"spawned {SHARDS} workers: {pids}")
            assert len(set(pids.values())) == SHARDS
            assert os.getpid() not in pids.values()

            # ---- 2. place a seeded trace ------------------------------
            rng = np.random.default_rng(3)
            tickets = {}
            for rid in range(TRACE):
                demand = rng.integers(0, 3, size=pool.num_types)
                if demand.sum() == 0:
                    demand[0] = 1
                tickets[rid] = fabric.submit(
                    PlaceRequest(
                        demand=tuple(int(x) for x in demand), request_id=rid
                    )
                )
            pump(fabric)
            for worker in supervisor.workers:
                worker.sync(force=True)  # replicate checkpoints + lease ledger now
            placed = {
                rid
                for rid, t in tickets.items()
                if (d := t.result(0.5)) is not None and d.placed
            }
            owners = {rid: fabric.owner_of(rid) for rid in placed}
            print(f"placed {len(placed)}/{TRACE} tenants across {SHARDS} shards")
            fabric.verify_consistency()

            # ---- 3. SIGKILL the busiest worker ------------------------
            victim = max(
                range(SHARDS), key=lambda s: sum(1 for o in owners.values() if o == s)
            )
            victim_leases = {r for r, o in owners.items() if o == victim}
            payload = supervisor.replicated_payload(victim)
            assert payload is not None, "write-ahead checkpoint missing"
            print(
                f"SIGKILL shard {victim} (pid {pids[victim]}, "
                f"{len(victim_leases)} leases)"
            )
            os.kill(pids[victim], signal.SIGKILL)

            # ---- 4. supervised detection + respawn --------------------
            events = []
            deadline = time.time() + 30.0
            while time.time() < deadline:
                events.extend(supervisor.monitor())
                if any(e.restored for e in events) and not fabric.down_shards:
                    break
                time.sleep(0.05)
            assert events, "supervisor never noticed the kill"
            death = events[0]
            print(f"detected: shard {death.shard_id} — {death.reason}")
            assert death.shard_id == victim
            assert any(e.restored for e in events), "worker was not restored"
            new_pid = fabric.handles[victim].pid
            print(f"respawned shard {victim} as pid {new_pid}")
            assert new_pid != pids[victim]

            # ---- 5. byte-identical restore, zero lost leases ----------
            restored = fabric.handles[victim].call({"op": "checkpoint"})["payload"]
            assert restored == payload, (
                "restored state differs from the write-ahead checkpoint"
            )
            lost = [r for r in placed if fabric.owner_of(r) is None]
            assert not lost, f"lost leases across the kill: {lost}"
            for rid, shard in owners.items():
                assert fabric.owner_of(rid) == shard
            fabric.verify_consistency()
            supervisor.verify_consistency()
            assert dict(supervisor.stranded_leases()) == {}
            print("restore is byte-identical; zero leases lost")

            # The healed fabric still admits.
            demand = tuple(1 if i == 0 else 0 for i in range(pool.num_types))
            t = fabric.submit(PlaceRequest(demand=demand, request_id=10_000))
            pump(fabric)
            verdict = t.result(10.0)
            assert verdict is not None and verdict.placed, verdict
            print(f"post-restore admission OK (shard {fabric.owner_of(10_000)})")

            stats = fabric.stats
            print(
                f"stats: placed={stats.placed} spillovers={stats.spillovers} "
                f"deaths={stats.shard_deaths} restores={stats.shard_restores}"
            )
        finally:
            exit_code = built.shutdown()
            print(f"worker exit codes: {built.worker_exit_codes}")
            assert exit_code == 0
    print("multiprocess fabric example OK")


if __name__ == "__main__":
    main()
