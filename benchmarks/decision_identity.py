"""Step-driven decision-identity replay of the ledger's fabric stream.

Drives a 4-shard :class:`ShardedPlacementFabric` by hand (no threads) on the
``fabric-thread-480x4`` pool shape (480 nodes, seed-37 capacities) with that
workload's request stream: 4,000 requests with demands 1-6, eight submitted
between scheduler settles, leases released after their stream hold or once
more than 200 are live, batch transfers on, and ``rebalance()`` every 130
requests. Prints one JSON line of sha256 prefixes of the final
``checkpoint_bytes()``, the owner map and the sweep outcomes
``(candidates, migrations, gain)``, plus counts and the process CPU time.

Two trees decide identically when their hashes match::

    PYTHONPATH=src:. python benchmarks/decision_identity.py
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time
from collections import deque

from repro.obs import MetricsRegistry
from repro.service import PlaceRequest, ReleaseRequest, ServiceConfig
from repro.service.shard import FabricConfig, RackGroupPlan, ShardedPlacementFabric

from benchmarks.ledger.gen import RequestStream
from benchmarks.ledger.spec import BY_NAME
from benchmarks.ledger.targets import make_pool

IN_FLIGHT = 8
MAX_LIVE = 200


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode("utf-8")).hexdigest()[:16]


def _settle(fabric) -> None:
    for _ in range(16):
        if not fabric.step_all(now=0.0) and not fabric.queued:
            break


def replay(requests: int, seed: int, every: int) -> dict:
    workload = BY_NAME["fabric-thread-480x4"]
    stream = RequestStream(workload, seed)
    registry = MetricsRegistry()
    fabric = ShardedPlacementFabric(
        make_pool(workload),
        plan=RackGroupPlan(workload.shards),
        config=FabricConfig(
            service=ServiceConfig(
                batch_window=0.0, max_batch=64, enable_transfers=True,
                queue_capacity=1024,
            )
        ),
        obs=registry,
    )
    started = time.process_time()
    rebalance_s = 0.0
    tickets, live, reports = {}, deque(), []
    due: "dict[int, list[int]]" = {}
    for i in range(requests):
        rid = stream.request_id(i)
        tickets[rid] = fabric.submit(
            PlaceRequest(request_id=rid, demand=stream.demand(i))
        )
        due.setdefault(i + stream.hold(i), []).append(rid)
        if i % IN_FLIGHT == IN_FLIGHT - 1:
            _settle(fabric)
            for r, ticket in list(tickets.items()):
                if ticket.done:
                    del tickets[r]
                    if ticket.decision.placed:
                        live.append(r)
        for victim in due.pop(i, []):
            if victim in live:
                live.remove(victim)
                fabric.release(ReleaseRequest(request_id=victim))
        while len(live) > MAX_LIVE:
            fabric.release(ReleaseRequest(request_id=live.popleft()))
        if i % every == every - 1:
            _settle(fabric)
            sweep_started = time.process_time()
            reports.append(fabric.rebalance())
            rebalance_s += time.process_time() - sweep_started
    _settle(fabric)
    reports.append(fabric.rebalance())
    fabric.verify_consistency()
    owners = sorted(
        (rid, shard.shard_id) for shard in fabric.shards for rid in shard.state.leases
    )
    sweeps = [[r.candidates, r.migrations, round(r.gain, 9)] for r in reports]
    pruned = registry.get("repro_shard_migrations_pruned_total")
    return {
        "checkpoint_sha256_16": hashlib.sha256(
            fabric.checkpoint_bytes().encode("utf-8")
        ).hexdigest()[:16],
        "owners_sha256_16": _digest(owners),
        "sweeps_sha256_16": _digest(sweeps),
        "migrations": sum(r.migrations for r in reports),
        "transfers": sum(getattr(r, "transfers", 0) for r in reports),
        "migrations_pruned": None if pruned is None else pruned.value,
        "process_cpu_s": round(time.process_time() - started, 2),
        "rebalance_cpu_s": round(rebalance_s, 2),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=4000)
    parser.add_argument("--seed", type=int, default=41)
    parser.add_argument("--every", type=int, default=130)
    args = parser.parse_args()
    print(json.dumps(replay(args.requests, args.seed, args.every)))


if __name__ == "__main__":
    main()
