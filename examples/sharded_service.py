#!/usr/bin/env python
"""Sharded placement fabric: serve → load → rebalance → checkpoint/restore.

Builds a 480-node, two-cloud pool, cuts it into 8 rack-aligned shards, and
walks the full fabric lifecycle:

1. start the fabric and drive a seeded closed-loop workload through it;
2. run an explicit cross-shard rebalance sweep (migrations of the
   worst-distance leases into the shards the router now prefers);
3. checkpoint the fabric, restore it, and assert the round trip is
   **byte-identical** — then re-checkpoint the restored fabric to prove the
   restored instance serves from exactly the same state.

Run:  python examples/sharded_service.py
"""

import json

import numpy as np

from repro import PoolSpec, VMTypeCatalog, random_pool
from repro.analysis import format_table
from repro.service import (
    FabricConfig,
    LoadGenConfig,
    PlaceRequest,
    RackGroupPlan,
    ServiceConfig,
    ShardedPlacementFabric,
    fabric_from_checkpoint,
    run_loadgen,
)


def main() -> None:
    catalog = VMTypeCatalog.ec2_default()
    pool = random_pool(
        PoolSpec(
            racks=8, nodes_per_rack=30, clouds=2, capacity_low=1, capacity_high=4
        ),
        catalog,
        seed=37,
    )

    fabric = ShardedPlacementFabric(
        pool,
        plan=RackGroupPlan(8),
        config=FabricConfig(service=ServiceConfig(batch_window=0.002)),
    )
    fabric.start()

    # --- load ------------------------------------------------------------
    report = run_loadgen(
        fabric,
        LoadGenConfig(
            num_requests=300, mode="closed", concurrency=16, mean_hold=0.1, seed=41
        ),
    )
    print(format_table(
        ["metric", "value"],
        [
            ["nodes / shards", f"{fabric.num_nodes} / {fabric.num_shards}"],
            ["submitted", report.submitted],
            ["placed", report.placed],
            ["acceptance rate", f"{report.acceptance_rate:.3f}"],
            ["throughput (req/s)", f"{report.throughput:.0f}"],
            ["mean cluster distance", f"{report.mean_distance:.3f}"],
        ],
        title="Closed-loop workload through the fabric",
    ))

    # --- rebalance -------------------------------------------------------
    # Pin a batch of long-lived tenants so the fabric holds real state, then
    # run an explicit cross-shard sweep over the worst-DC leases.
    rng = np.random.default_rng(53)
    tickets = []
    for rid in range(1000, 1400):
        demand = [int(x) for x in rng.integers(0, 6, size=fabric.num_types)]
        if sum(demand) == 0:
            demand[0] = 2
        tickets.append(fabric.submit(PlaceRequest(request_id=rid, demand=demand)))
    placed = sum(
        1 for t in tickets if t.result(timeout=30.0) and t.decision.placed
    )
    print(f"\npinned {placed}/{len(tickets)} long-lived tenants")

    sweep = fabric.rebalance()
    print(
        f"\nrebalance sweep: {sweep.candidates} candidates, "
        f"{sweep.migrations} migrations, "
        f"distance recovered {sweep.gain:.1f}"
    )
    fabric.verify_consistency()

    # --- checkpoint / restore, asserted exact ----------------------------
    fabric.stop()
    blob = fabric.checkpoint_bytes()
    restored = fabric_from_checkpoint(json.loads(blob))
    assert restored.checkpoint_bytes() == blob, "round trip must be exact"
    restored.verify_consistency()
    leases = sum(s.state.num_leases for s in restored.shards)
    print(
        f"\ncheckpoint round trip: {len(blob)} bytes, byte-identical; "
        f"restored fabric holds {leases} leases across "
        f"{restored.num_shards} shards"
    )


if __name__ == "__main__":
    main()
