"""Extension bench: out-of-process shard workers vs the threaded fabric.

The threaded :class:`~repro.service.shard.ShardedPlacementFabric` already
parallelizes the Algorithm-1 sweep across shards, but every scheduler
thread still shares one interpreter and one GIL — the sweep's numpy
kernels release it, the bookkeeping around them does not.
``build_fabric(workers="proc")`` runs the same fabric over
:class:`~repro.service.proc.ProcBackend`, moving each shard's service into
its own **spawned child process** behind the length-prefixed wire
protocol, buying real parallelism at the cost of one RPC round-trip per
admission and a long-poll hop per decision.

Both backends serve the same seeded closed-loop workload (24 in-flight
clients, exponential lease holding times) at 240/480 nodes with 4 shards.
Per size we record sustained throughput, acceptance, mean committed
``DC``, and client-observed p50/p99 latency into
``benchmarks/results/proc_bench.json`` (full runs only; smoke runs —
``PROC_BENCH_SMOKE=1`` — shrink everything and leave the committed
numbers alone). The headline criteria at 480 nodes: the proc fabric
accepts within 2 points of the threaded fabric, commits the same mean
``DC`` within 10%, and sustains at least a third of its throughput — the
wire tax must stay a constant factor, not a cliff.
"""

import functools
import json
import os
from pathlib import Path

from repro.analysis import format_table
from repro.cluster import PoolSpec, VMTypeCatalog, random_pool
from repro.obs import MetricsRegistry
from repro.service import LoadGenConfig, ServiceConfig, build_fabric, run_loadgen
from repro.service.shard import FabricConfig, RackGroupPlan, ShardedPlacementFabric

from benchmarks.conftest import emit

SMOKE = os.environ.get("PROC_BENCH_SMOKE") == "1"
#: (racks_per_cloud, nodes_per_rack), two clouds — 240/480 nodes full.
SIZES = [(2, 4)] if SMOKE else [(8, 15), (16, 15)]
NUM_SHARDS = 2 if SMOKE else 4
NUM_REQUESTS = 30 if SMOKE else 600
CONCURRENCY = 4 if SMOKE else 24
RESULTS_PATH = Path(__file__).parent / "results" / "proc_bench.json"

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


def run_threaded(racks: int, nodes_per_rack: int):
    fabric = ShardedPlacementFabric(
        make_pool(racks, nodes_per_rack),
        plan=RackGroupPlan(NUM_SHARDS),
        config=FabricConfig(service=SERVICE_CONFIG),
        obs=MetricsRegistry(),
    )
    fabric.start()
    try:
        return run_loadgen(fabric, loadgen_config())
    finally:
        fabric.drain()


def run_proc(racks: int, nodes_per_rack: int):
    built = build_fabric(
        make_pool(racks, nodes_per_rack),
        RackGroupPlan(NUM_SHARDS),
        workers="proc",
        config=FabricConfig(service=SERVICE_CONFIG),
        obs=MetricsRegistry(),
    )
    built.start()
    try:
        return run_loadgen(built.service, loadgen_config())
    finally:
        assert built.shutdown() == 0, built.worker_exit_codes


def run_comparison():
    records = []
    for racks, nodes_per_rack in SIZES:
        threaded = run_threaded(racks, nodes_per_rack)
        proc = run_proc(racks, nodes_per_rack)
        records.append(
            {
                "nodes": racks * nodes_per_rack * 2,  # two clouds
                "shards": NUM_SHARDS,
                "requests": NUM_REQUESTS,
                "concurrency": CONCURRENCY,
                "thread_throughput_rps": threaded.throughput,
                "proc_throughput_rps": proc.throughput,
                "proc_relative": (
                    proc.throughput / threaded.throughput
                    if threaded.throughput
                    else 0.0
                ),
                "thread_acceptance": threaded.acceptance_rate,
                "proc_acceptance": proc.acceptance_rate,
                "thread_mean_dc": threaded.mean_distance,
                "proc_mean_dc": proc.mean_distance,
                "thread_p50_ms": threaded.latency_p50 * 1000,
                "proc_p50_ms": proc.latency_p50 * 1000,
                "thread_p99_ms": threaded.latency_p99 * 1000,
                "proc_p99_ms": proc.latency_p99 * 1000,
            }
        )
    return records


def test_proc_fabric_sustains_closed_loop(benchmark):
    records = benchmark.pedantic(
        functools.partial(run_comparison), rounds=1, iterations=1
    )
    rows = [
        [
            rec["nodes"],
            f"{rec['thread_throughput_rps']:.0f}",
            f"{rec['proc_throughput_rps']:.0f}",
            f"{rec['proc_relative']:.2f}x",
            f"{rec['thread_acceptance']:.3f}",
            f"{rec['proc_acceptance']:.3f}",
            f"{rec['thread_p99_ms']:.1f}",
            f"{rec['proc_p99_ms']:.1f}",
        ]
        for rec in records
    ]
    emit(
        f"Extension — proc fabric ({NUM_SHARDS} worker processes) vs threaded "
        "fabric (closed loop)",
        format_table(
            [
                "nodes",
                "thread rps",
                "proc rps",
                "relative",
                "thread acc",
                "proc acc",
                "thread p99 ms",
                "proc p99 ms",
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
        assert rec["thread_acceptance"] > 0
        assert rec["proc_acceptance"] > 0
    if not SMOKE:
        # Headline criteria at 480 nodes / 4 worker processes.
        headline = records[-1]
        assert headline["nodes"] >= 480
        assert (
            abs(headline["proc_acceptance"] - headline["thread_acceptance"])
            <= 0.02
        )
        # Additive slack on top of the 10% bound: a closed-loop run's mean
        # DC sits near zero at this load, where timing noise dominates.
        assert (
            headline["proc_mean_dc"]
            <= headline["thread_mean_dc"] * 1.10 + 0.05
        )
        assert headline["proc_relative"] >= 1 / 3
