"""Step-driven decision-identity replay of the ledger's fabric stream.

Drives a 4-shard :class:`ShardedPlacementFabric` by hand (no threads) on the
``fabric-thread-480x4`` pool shape (480 nodes, seed-37 capacities) with that
workload's request stream: 4,000 requests with demands 1-6, eight submitted
between scheduler settles, leases released after their stream hold or once
more than 200 are live, batch transfers on, and ``rebalance()`` every 130
requests. Prints one JSON line of sha256 prefixes of the final
``checkpoint_bytes()``, the owner map and the sweep outcomes
``(candidates, migrations, gain)``, plus counts and the process CPU time.

With ``--library`` it replays the ``alg1-960`` stream instead, on the
library path the ledger times: 4,000 sequential ``OnlineHeuristic.place``
calls on a 960-node ``ClusterState``, each placed lease committed with
``allocate_lease`` and released with ``release_lease`` after its stream
hold (counted in later decisions, as the ledger counts them). It prints a
sha256 prefix over every decision (request id, placements, center and
``repr(distance)``, or the wait), one over the final ``checkpoint_bytes``,
and the counts.

Two trees decide identically when their hashes match::

    PYTHONPATH=src:. python benchmarks/decision_identity.py
    PYTHONPATH=src:. python benchmarks/decision_identity.py --library

``benchmarks/results/decision_identity.json`` holds this tree's hashes and
counts for both modes (the CPU times left out). ``--check FILE`` exits 1
when the replay's differ from the file's; ``--record FILE`` rewrites the
mode's entry, which only a change that means to alter decisions does.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import sys
import time
from collections import deque
from pathlib import Path

from repro.core import OnlineHeuristic
from repro.core.problem import VirtualClusterRequest
from repro.obs import MetricsRegistry
from repro.service import ClusterState, PlaceRequest, ReleaseRequest, ServiceConfig
from repro.service.api import allocation_to_placements
from repro.service.checkpoint import checkpoint_bytes
from repro.service.shard import FabricConfig, RackGroupPlan, ShardedPlacementFabric

from benchmarks.ledger.gen import RequestStream
from benchmarks.ledger.spec import BY_NAME
from benchmarks.ledger.targets import make_pool

IN_FLIGHT = 8
MAX_LIVE = 200

#: What a replay prints that is not a decision: process CPU times.
CPU_FIELDS = ("process_cpu_s", "rebalance_cpu_s")


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


def replay_library(requests: int, seed: int) -> dict:
    workload = BY_NAME["alg1-960"]
    stream = RequestStream(workload, seed)
    state = ClusterState.from_pool(make_pool(workload))
    policy = OnlineHeuristic()
    decisions = hashlib.sha256()
    due: "list[tuple[int, int]]" = []
    placed = 0
    started = time.process_time()
    for i in range(requests):
        rid = stream.request_id(i)
        request = VirtualClusterRequest(demand=list(stream.demand(i)), request_id=rid)
        allocation = policy.place(state, request).allocation
        if allocation is None:
            record = [rid, None]
        else:
            state.allocate_lease(rid, allocation)
            placed += 1
            record = [
                rid,
                allocation_to_placements(allocation),
                allocation.center,
                repr(allocation.distance),
            ]
            # A lease lives hold(i) later decisions; this is decision i + 1.
            heapq.heappush(due, (i + 1 + stream.hold(i), rid))
        decisions.update(json.dumps(record).encode("utf-8"))
        while due and due[0][0] <= i + 1:
            state.release_lease(heapq.heappop(due)[1])
    state.verify_consistency()
    return {
        "decisions_sha256_16": decisions.hexdigest()[:16],
        "checkpoint_sha256_16": hashlib.sha256(
            checkpoint_bytes(state).encode("utf-8")
        ).hexdigest()[:16],
        "placed": placed,
        "waited": requests - placed,
        "held": state.num_leases,
        "process_cpu_s": round(time.process_time() - started, 2),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=4000)
    parser.add_argument("--seed", type=int, default=41)
    parser.add_argument("--every", type=int, default=130)
    parser.add_argument(
        "--library", action="store_true",
        help="replay the alg1-960 stream through OnlineHeuristic.place instead",
    )
    files = parser.add_mutually_exclusive_group()
    files.add_argument(
        "--check", metavar="FILE",
        help="exit 1 unless the hashes and counts match FILE's for this mode",
    )
    files.add_argument(
        "--record", metavar="FILE",
        help="write this mode's hashes and counts into FILE",
    )
    args = parser.parse_args()
    if args.library:
        result = replay_library(args.requests, args.seed)
    else:
        result = replay(args.requests, args.seed, args.every)
    print(json.dumps(result))
    mode = "library" if args.library else "fabric"
    entry = {"requests": args.requests, "seed": args.seed}
    if not args.library:
        entry["every"] = args.every
    entry.update((k, v) for k, v in result.items() if k not in CPU_FIELDS)
    if args.record:
        path = Path(args.record)
        doc = json.loads(path.read_text()) if path.exists() else {}
        doc[mode] = entry
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    if args.check:
        recorded = json.loads(Path(args.check).read_text())[mode]
        differ = sorted(
            k for k in recorded.keys() | entry.keys()
            if recorded.get(k) != entry.get(k)
        )
        for key in differ:
            print(
                f"{mode} {key}: recorded {recorded.get(key)!r}, "
                f"replayed {entry.get(key)!r}",
                file=sys.stderr,
            )
        if differ:
            sys.exit(1)


if __name__ == "__main__":
    main()
