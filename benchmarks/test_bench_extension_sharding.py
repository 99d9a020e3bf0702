"""Extension bench: sharded placement fabric vs the single service.

The single :class:`~repro.service.server.PlacementService` serializes every
placement behind one lock and one scheduler thread, and each Algorithm-1
sweep scans all ``n`` candidate centers. The sharded fabric cuts the pool
into 8 rack-aligned shards, stepped in turn by one scheduler thread, and each
sweep touches ``n/8`` nodes, at the cost of routing and (slightly) less
global affinity information per decision.

Both sides serve the same seeded closed-loop workload (16 in-flight
clients, exponential lease holding times) at 240/480/960 nodes. Per size we
record sustained throughput, acceptance rate, and mean committed ``DC``
into ``benchmarks/results/sharding_bench.json`` (full runs only; smoke runs
— ``SHARDING_BENCH_SMOKE=1`` — shrink everything and leave the committed
numbers alone). The headline acceptance criteria are asserted at 480 nodes
/ 8 shards: ≥ 2× throughput, acceptance within 2 points, mean ``DC``
within 10%.
"""

import functools
import json
import os
from pathlib import Path

from repro.analysis import format_table
from repro.cluster import PoolSpec, VMTypeCatalog, random_pool
from repro.obs import MetricsRegistry
from repro.service import (
    ClusterState,
    LoadGenConfig,
    PlacementService,
    ServiceConfig,
    run_loadgen,
)
from repro.service.shard import FabricConfig, RackGroupPlan, ShardedPlacementFabric

from benchmarks.conftest import emit

SMOKE = os.environ.get("SHARDING_BENCH_SMOKE") == "1"
#: (racks_per_cloud, nodes_per_rack), two clouds — 240/480/960 nodes on
#: full runs.
SIZES = [(2, 4), (2, 8), (4, 8)] if SMOKE else [(8, 15), (16, 15), (16, 30)]
NUM_SHARDS = 2 if SMOKE else 8
NUM_REQUESTS = 30 if SMOKE else 600
CONCURRENCY = 4 if SMOKE else 24
RESULTS_PATH = Path(__file__).parent / "results" / "sharding_bench.json"

CATALOG = VMTypeCatalog.ec2_default()

SERVICE_CONFIG = ServiceConfig(
    batch_window=0.002, max_batch=64, enable_transfers=True, queue_capacity=1024
)


def make_pool(racks: int, nodes_per_rack: int):
    return random_pool(
        PoolSpec(
            racks=racks,
            nodes_per_rack=nodes_per_rack,
            clouds=2,
            capacity_low=1,
            capacity_high=4,
        ),
        CATALOG,
        seed=37,
    )


def loadgen_config() -> LoadGenConfig:
    return LoadGenConfig(
        num_requests=NUM_REQUESTS,
        mode="closed",
        concurrency=CONCURRENCY,
        mean_hold=0.05,
        demand_high=3,
        seed=41,
    )


def run_single(racks: int, nodes_per_rack: int):
    service = PlacementService(
        ClusterState.from_pool(make_pool(racks, nodes_per_rack)),
        config=SERVICE_CONFIG,
        obs=MetricsRegistry(),
    )
    service.start()
    try:
        return run_loadgen(service, loadgen_config())
    finally:
        service.drain()


def run_fabric(racks: int, nodes_per_rack: int):
    fabric = ShardedPlacementFabric(
        make_pool(racks, nodes_per_rack),
        plan=RackGroupPlan(NUM_SHARDS),
        config=FabricConfig(rebalance_interval=0.2, service=SERVICE_CONFIG),
        obs=MetricsRegistry(),
    )
    fabric.start()
    try:
        return run_loadgen(fabric, loadgen_config())
    finally:
        fabric.drain()


def run_comparison():
    records = []
    for racks, nodes_per_rack in SIZES:
        single = run_single(racks, nodes_per_rack)
        fabric = run_fabric(racks, nodes_per_rack)
        records.append(
            {
                "nodes": racks * nodes_per_rack * 2,  # two clouds
                "shards": NUM_SHARDS,
                "requests": NUM_REQUESTS,
                "concurrency": CONCURRENCY,
                "single_throughput_rps": single.throughput,
                "fabric_throughput_rps": fabric.throughput,
                "speedup": (
                    fabric.throughput / single.throughput
                    if single.throughput
                    else 0.0
                ),
                "single_acceptance": single.acceptance_rate,
                "fabric_acceptance": fabric.acceptance_rate,
                "single_mean_dc": single.mean_distance,
                "fabric_mean_dc": fabric.mean_distance,
                "single_p99_ms": single.latency_p99 * 1000,
                "fabric_p99_ms": fabric.latency_p99 * 1000,
            }
        )
    return records


def test_sharded_fabric_scales_throughput(benchmark):
    records = benchmark.pedantic(
        functools.partial(run_comparison), rounds=1, iterations=1
    )
    rows = [
        [
            rec["nodes"],
            f"{rec['single_throughput_rps']:.0f}",
            f"{rec['fabric_throughput_rps']:.0f}",
            f"{rec['speedup']:.2f}x",
            f"{rec['single_acceptance']:.3f}",
            f"{rec['fabric_acceptance']:.3f}",
            f"{rec['single_mean_dc']:.3f}",
            f"{rec['fabric_mean_dc']:.3f}",
        ]
        for rec in records
    ]
    emit(
        f"Extension — sharded fabric ({NUM_SHARDS} shards) vs single service "
        "(closed loop)",
        format_table(
            [
                "nodes",
                "single rps",
                "fabric rps",
                "speedup",
                "single acc",
                "fabric acc",
                "single DC",
                "fabric DC",
            ],
            rows,
        ),
    )
    if not SMOKE:
        RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
        RESULTS_PATH.write_text(
            json.dumps(
                {
                    "shards": NUM_SHARDS,
                    "concurrency": CONCURRENCY,
                    "requests": NUM_REQUESTS,
                    "sizes": records,
                },
                indent=1,
            )
        )
    for rec in records:
        # Nobody loses requests: both sides decide everything submitted.
        assert rec["single_acceptance"] > 0
        assert rec["fabric_acceptance"] > 0
    if not SMOKE:
        # Headline criteria at 480 nodes / 8 shards.
        headline = records[1]
        assert headline["speedup"] >= 2.0
        assert (
            abs(headline["fabric_acceptance"] - headline["single_acceptance"])
            <= 0.02
        )
        assert (
            headline["fabric_mean_dc"]
            <= headline["single_mean_dc"] * 1.10 + 1e-9
        )
