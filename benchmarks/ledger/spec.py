"""What the ledger runs and what it reports: workloads, metrics, bounds.

``BENCHMARK.json`` at the repo root repeats the names, units, directions and
bounds below in the driver's fixed format (``test_smoke.py`` holds the two
equal); everything that file has no key for — workload parameters, SLO
limits, seeds, pins — lives here.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Seed of the committed result sets; ``HELD_OUT_SEED`` is never used while
#: tuning a change and re-checks a claim made on the default.
DEFAULT_SEED = 41
HELD_OUT_SEED = 7

#: ``random_pool(PoolSpec(clouds=2, capacity 1-4), ec2_default, seed=37)``.
POOL_SEED = 37
NODES_PER_RACK = 15
CLOUDS = 2

#: Measured seconds per run the driver asks for; ISSUE 12's request counts
#: (3000 / 1000 / 4000 / 6000 / 1200 timed ops, 320 on alg1-960) are what
#: these workloads complete in ~14-25 s on the 2-core reference host, so one
#: common factor ``RUN_SECONDS / 20`` ≈ 0.5 scales them under the driver's
#: 3420 s cap for 136 runs.
RUN_SECONDS = 10
COUNT_SCALE = 0.5

#: A run builds and tears down the system at least ``SETUP_REPEATS`` times
#: and reports the median ``setup_s``; set-ups of a few milliseconds are
#: repeated until building and tearing down have used ``SETUP_BUDGET_S``
#: seconds, so the median of a cheap set-up is as steady as that of a slow one.
SETUP_REPEATS = 3
SETUP_MAX_REPEATS = 25
SETUP_BUDGET_S = 1.0


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the serving topology it is sent to.

    ``kind`` picks the driver: ``library`` (sequential ``place`` + commit, no
    service), ``inproc`` (event-driven closed loop on ``submit`` tickets),
    ``wire`` (blocking ``ServiceClient`` connections) or ``open`` (seeded
    Poisson arrivals, wall-clock holds). ``hold_decisions`` is the mean of
    the geometric number of later decisions after which a closed-loop lease
    is released, and the warm-up length. ``slo_ms`` is the fixed limit
    behind ``client.slo_ok_share`` (3× the p99 first measured at seed 41).
    """

    name: str
    why: str
    kind: str
    racks_per_cloud: int
    demand_low: int
    demand_high: int
    hold_decisions: int
    slo_ms: float
    in_flight: int = 1
    shards: "int | None" = None
    workers: str = "thread"
    supervise: bool = False
    rebalance_interval: "float | None" = None
    serve_transport: "str | None" = None
    codec: str = "json"
    #: Name of the workload whose request stream this one replays (its own
    #: when empty), so two topologies can be sent identical requests.
    stream: str = ""
    #: Open loop only.
    rate: float = 0.0
    hold_arrivals: int = 0
    max_wait: "float | None" = None
    warmup_requests: int = 0

    @property
    def nodes(self) -> int:
        return self.racks_per_cloud * NODES_PER_RACK * CLOUDS


WORKLOADS = (
    Workload(
        name="alg1-960",
        why=(
            "Library path, no service: sequential OnlineHeuristic.place + "
            "lease commit on 960 nodes, demands 2-8 per type; only "
            "core.placement.kernels and cluster.topocache work."
        ),
        kind="library",
        racks_per_cloud=32,
        demand_low=2,
        demand_high=8,
        hold_decisions=120,
        slo_ms=285.0,
    ),
    Workload(
        name="fabric-thread-480x4",
        why=(
            "Threaded 4-shard fabric on 480 nodes, in-process closed loop, 8 "
            "in flight, demands 1-6: router, shard admission, batch transfers "
            "and rebalance run; no codec or socket."
        ),
        kind="inproc",
        racks_per_cloud=16,
        demand_low=1,
        demand_high=6,
        hold_decisions=200,
        slo_ms=95.0,
        in_flight=8,
        shards=4,
        rebalance_interval=0.2,
    ),
    Workload(
        name="fabric-supervised-480x4",
        why=(
            "The fabric-thread-480x4 stream with supervise=True: the only "
            "difference is write-ahead checkpoint replication on every commit "
            "(service.supervisor, checkpoint, coord)."
        ),
        kind="inproc",
        racks_per_cloud=16,
        demand_low=1,
        demand_high=6,
        hold_decisions=200,
        slo_ms=190.0,
        in_flight=8,
        shards=4,
        supervise=True,
        rebalance_interval=0.2,
        stream="fabric-thread-480x4",
    ),
    Workload(
        name="wire-proc-240x2",
        why=(
            "Two proc workers on 240 nodes behind the aio transport, two "
            "binary-codec connections, demands 0-2 (kernel idle): aio, "
            "binary codec, proc RPC and the process boundary do the work."
        ),
        kind="wire",
        racks_per_cloud=8,
        demand_low=0,
        demand_high=2,
        hold_decisions=40,
        slo_ms=32.0,
        in_flight=2,
        shards=2,
        workers="proc",
        serve_transport="aio",
        codec="binary",
    ),
    Workload(
        name="wire-single-240",
        why=(
            "What repro serve gives by default: unsharded service, thread "
            "transport, JSON codec, two connections, demands 0-2; kernel and "
            "fabric bypassed, so their changes predict no movement."
        ),
        kind="wire",
        racks_per_cloud=8,
        demand_low=0,
        demand_high=2,
        hold_decisions=40,
        slo_ms=21.0,
        in_flight=2,
        serve_transport="thread",
        codec="json",
    ),
    Workload(
        name="open-contended-240",
        why=(
            "Unsharded service, in-process open loop: Poisson arrivals, "
            "wall-clock holds near capacity, demands 1-4, max_wait 2 s; "
            "admission works against a deep queue and a fragmented pool."
        ),
        kind="open",
        racks_per_cloud=8,
        demand_low=1,
        demand_high=4,
        hold_decisions=0,
        slo_ms=1700.0,
        rate=80.0,
        hold_arrivals=256,
        max_wait=2.0,
        warmup_requests=400,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}

#: ``mean_dc`` over the first ``PIN_OPS`` timed placements of ``alg1-960``:
#: the library path is sequential and seeded, so the value repeats exactly
#: and any change to it is a change to Algorithm 1's decisions.
PIN_OPS = 50
PINNED_MEAN_DC = {("alg1-960", 41): 4.78, ("alg1-960", 7): 5.08}

#: (name, unit, better, bound). The bound is the share of the parent's
#: median by which a later change may worsen the metric.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("throughput_ops_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: (name, unit, better). A layer that does no work in a workload reads 0.
PER_LAYER = (
    ("client.latency_p90_ms", "ms", "lower"),
    ("client.latency_p95_ms", "ms", "lower"),
    ("client.latency_p99_ms", "ms", "lower"),
    ("client.slo_ok_share", "share", "higher"),
    ("client.failed_share", "share", "lower"),
    ("placement.mean_dc", "dc", "lower"),
    ("setup.import_s", "s", "lower"),
    ("setup.build_ms", "ms", "lower"),
    ("topocache.build_ms", "ms", "lower"),
    ("algorithm1.place_ms_mean", "ms", "lower"),
    ("kernels.sweep_ms_mean", "ms", "lower"),
    ("kernels.fill_ms_mean", "ms", "lower"),
    ("kernels.centers_screened_per_op", "count", "lower"),
    ("kernels.centers_filled_per_op", "count", "lower"),
    ("kernels.prune_ratio", "share", "higher"),
    ("state.commit_us_mean", "us", "lower"),
    ("fabric.submit_call_us_mean", "us", "lower"),
    ("fabric.release_call_us_mean", "us", "lower"),
    ("fabric.release_retries", "count", "lower"),
    ("router.route_us_mean", "us", "lower"),
    ("fabric.spillover_share", "share", "lower"),
    ("fabric.rebalance_sweep_ms", "ms", "lower"),
    ("server.queue_wait_ms_mean", "ms", "lower"),
    ("server.batch_size_mean", "count", "higher"),
    ("server.other_ms_mean", "ms", "lower"),
    ("server.queue_depth_mean", "count", "lower"),
    ("server.waited_share", "share", "lower"),
    ("transfer.attempts_per_batch", "count", "lower"),
    ("transfer.applied_ratio", "share", "higher"),
    ("transfer.gain_dc_share", "share", "higher"),
    ("checkpoint.encode_ms_mean", "ms", "lower"),
    ("checkpoint.restore_ms_mean", "ms", "lower"),
    ("checkpoint.bytes_mean", "bytes", "lower"),
    ("supervisor.replications_per_commit", "count", "lower"),
    ("coord.put_checkpoint_us_mean", "us", "lower"),
    ("transport.connect_ms", "ms", "lower"),
    ("proc.spawn_s", "s", "lower"),
    ("transport.ping_us_p50", "us", "lower"),
    ("transport.release_rtt_us_mean", "us", "lower"),
    ("codec.binary.encode_us_mean", "us", "lower"),
    ("codec.binary.decode_us_mean", "us", "lower"),
    ("codec.binary.bytes_per_op", "bytes", "lower"),
    ("codec.json.encode_us_mean", "us", "lower"),
    ("codec.json.decode_us_mean", "us", "lower"),
    ("codec.json.bytes_per_op", "bytes", "lower"),
    ("wire.frame_us_mean", "us", "lower"),
    ("proc.rpc_per_op", "count", "lower"),
    ("proc.rpc_ms_mean", "ms", "lower"),
    ("proc.ping_rpc_us_p50", "us", "lower"),
    ("driver.late_p99_ms", "ms", "lower"),
    ("host.cpu_ms_per_op", "ms", "lower"),
    ("host.calib_ms", "ms", "lower"),
    ("trace.span_coverage", "share", "higher"),
    ("trace.overhead_share", "share", "lower"),
)
