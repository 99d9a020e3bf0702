"""Command-line interface: regenerate any paper experiment from the shell.

Usage::

    python -m repro fig1            # the Section III.A worked example
    python -m repro fig2            # central-node strategy comparison
    python -m repro fig5 --trials 10
    python -m repro fig7 --chart    # runtime bars per cluster distance
    python -m repro ablations
    python -m repro simulate --requests 200 --policy heuristic
    python -m repro serve --port 8571        # online placement service (TCP)
    python -m repro loadgen --requests 500 --mode open --rate 1000
    python -m repro obs --port 8571          # scrape a running service's metrics

Every command accepts ``--seed`` for reproducibility; figures default to the
seed-pinned paper configuration.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import format_series, format_table
from repro.analysis.charts import bar_chart
from repro.experiments import paperconfig as cfg


def _cmd_fig1(args) -> int:
    from repro.experiments.example_fig1 import run

    result = run()
    rows = [
        [label, dist, f"N{center}"]
        for label, dist, center in zip(result.labels, result.distances, result.centers)
    ]
    rows.append(["SD optimum", result.optimal_distance, "-"])
    print(format_table(["allocation", "DC", "central node"], rows,
                       title="Fig. 1 — worked example (d1=1, d2=2)"))
    return 0


def _cmd_fig2(args) -> int:
    from repro.experiments.center_experiments import run_center_study

    study = run_center_study(seed=args.seed)
    print("Fig. 2 — distance by central-node strategy")
    print(format_series("heuristic", study.heuristic_distances, float_fmt="{:.0f}"))
    print(format_series("random   ", study.random_center_distances, float_fmt="{:.0f}"))
    print(f"mean gap: {study.mean_gap:.2f}")
    return 0


def _cmd_fig3(args) -> int:
    from repro.experiments.center_experiments import run_center_study

    study = run_center_study(seed=args.seed)
    print("Fig. 3 — central node per request")
    print(format_series("center", study.centers))
    return 0


def _cmd_fig4(args) -> int:
    from repro.experiments.center_experiments import run_fig4

    result = run_fig4(seed=args.seed, request_index=args.request_index)
    print(f"Fig. 4 — center sweep for request {list(result.demand)}")
    print(format_series("distance", list(result.center_distances), float_fmt="{:.0f}"))
    print(f"best: node {result.best_center} ({result.best_distance:.0f}); "
          f"worst: {result.worst_distance:.0f}")
    return 0


def _run_global(scenario: str, args) -> int:
    from repro.experiments.global_experiments import run_comparison

    result = run_comparison(scenario, seed=args.seed, trials=args.trials)
    fig = "5" if scenario == "large" else "6"
    print(f"Fig. {fig} — online vs. global ({scenario} requests, "
          f"{args.trials} trial(s))")
    n = min(20, len(result.online_distances))
    print(format_series("online", list(result.online_distances[:n]), float_fmt="{:.0f}"))
    print(format_series("global", list(result.global_distances[:n]), float_fmt="{:.0f}"))
    print(f"online total {result.online_total:.0f}  global total "
          f"{result.global_total:.0f}  improvement {result.improvement_pct:.1f}%  "
          f"exchanges {result.exchanges}")
    return 0


def _cmd_fig5(args) -> int:
    return _run_global("large", args)


def _cmd_fig6(args) -> int:
    return _run_global("small", args)


def _cmd_fig78(args) -> int:
    from repro.experiments.mapreduce_experiments import run_fig78

    result = run_fig78(hdfs_seed=args.hdfs_seed)
    rows = [
        [r.distance, r.runtime, r.locality.non_data_local_maps, r.locality.non_local_flows]
        for r in result.runs
    ]
    print(format_table(
        ["cluster distance", "runtime (s)", "non-data-local maps", "non-local shuffles"],
        rows,
        title="Figs. 7–8 — WordCount under four topologies",
    ))
    if args.chart:
        print()
        print(bar_chart(
            [f"d={r.distance}" for r in result.runs],
            [r.runtime for r in result.runs],
            title="runtime (s)",
        ))
    return 0


def _cmd_ablations(args) -> int:
    from repro.experiments.ablations import (
        run_heuristic_gap,
        run_policy_comparison,
        run_scheduler_ablation,
        run_transfer_ablation,
    )

    gap = run_heuristic_gap(seed=args.seed)
    print(format_table(
        ["solver", "total distance", "gap (%)"],
        [
            ["exact", gap.exact_total, 0.0],
            ["Algorithm 1 (best)", gap.best_mode_total, gap.best_mode_gap_pct],
            ["Algorithm 1 (first)", gap.first_mode_total, gap.first_mode_gap_pct],
        ],
        title="Algorithm 1 optimality",
    ))
    transfer = run_transfer_ablation(seed=args.seed, trials=3)
    print()
    print(format_table(
        ["variant", "total distance", "improvement (%)"],
        [
            ["online", transfer.online_total, 0.0],
            ["paper transfer", transfer.paper_transfer_total, transfer.paper_improvement_pct],
            ["general transfer", transfer.general_transfer_total, transfer.general_improvement_pct],
        ],
        title="Theorem-2 transfer variants",
    ))
    print()
    print(format_table(
        ["policy", "distance", "runtime (s)"],
        [[r.policy, r.mean_distance, r.runtime] for r in run_policy_comparison(seed=args.seed)],
        title="Placement policies end to end",
    ))
    print()
    print(format_table(
        ["scheduler", "runtime (s)", "non-data-local maps"],
        [[r.scheduler, r.runtime, r.non_data_local_maps] for r in run_scheduler_ablation(seed=args.seed)],
        title="Map schedulers",
    ))
    return 0


def _cmd_simulate(args) -> int:
    from repro.cloud import CloudProvider, CloudSimulator, poisson_workload
    from repro.cluster import PoolSpec, random_pool
    from repro.core import (
        FirstFitPlacement,
        GlobalSubOptimizer,
        OnlineHeuristic,
        RandomPlacement,
        StripedPlacement,
    )

    policies = {
        "heuristic": lambda: OnlineHeuristic(),
        "first-fit": lambda: FirstFitPlacement(),
        "random": lambda: RandomPlacement(seed=args.seed),
        "striped": lambda: StripedPlacement(),
    }
    if args.policy not in policies:
        print(f"unknown policy {args.policy!r}; choose from {sorted(policies)}",
              file=sys.stderr)
        return 2
    pool = random_pool(
        PoolSpec(racks=args.racks, nodes_per_rack=args.nodes,
                 capacity_high=args.capacity),
        cfg.CATALOG,
        seed=args.seed,
        distance_model=cfg.DISTANCES,
    )
    workload = poisson_workload(
        args.requests, pool.num_types,
        mean_interarrival=args.interarrival,
        mean_duration=args.duration,
        demand_high=args.demand_high,
        seed=args.seed,
    )
    provider = CloudProvider(
        pool,
        policies[args.policy](),
        batch_policy=GlobalSubOptimizer() if args.batch else None,
    )
    result = CloudSimulator(provider).run(workload)
    stats = provider.stats
    print(format_table(
        ["metric", "value"],
        [
            ["placed", stats.placed],
            ["refused", stats.refused],
            ["queue-rejected", stats.queue_rejected],
            ["acceptance rate", result.acceptance_rate],
            ["mean cluster distance", stats.mean_distance],
            ["mean wait (s)", stats.mean_wait],
            ["wait p50 (s)", result.wait_p50],
            ["wait p95 (s)", result.wait_p95],
            ["wait p99 (s)", result.wait_p99],
            ["mean utilization", result.mean_utilization],
            ["makespan (s)", result.makespan],
        ],
        title=f"Cloud simulation — policy={args.policy}"
        + (" + Algorithm 2 drains" if args.batch else ""),
    ))
    return 0


def _build_service(args):
    """Assemble the serving stack the service flags describe.

    One thin shim over :func:`repro.service.build_fabric` — the CLI's only
    jobs are turning flags into a pool/plan/config and converting factory
    validation errors into flag-phrased exits.
    """
    from repro.cluster import PoolSpec, random_pool
    from repro.service import ServiceConfig, build_fabric
    from repro.service.shard import FabricConfig, resolve_plan
    from repro.service.supervisor import SupervisorConfig
    from repro.util.errors import ValidationError

    pool = random_pool(
        PoolSpec(racks=args.racks, nodes_per_rack=args.nodes,
                 capacity_high=args.capacity),
        cfg.CATALOG,
        seed=args.seed,
        distance_model=cfg.DISTANCES,
    )
    shards = getattr(args, "shards", 0)
    workers = getattr(args, "workers", "thread")
    if workers == "proc" and not shards:
        raise SystemExit("--workers proc requires --shards")
    config = FabricConfig(
        rebalance_interval=getattr(args, "rebalance_interval", None),
        service=ServiceConfig(
            queue_capacity=args.queue_capacity,
            batch_window=args.batch_window,
            max_batch=args.max_batch,
            enable_transfers=not args.no_transfers,
            max_wait=args.max_wait,
        ),
    )
    try:
        return build_fabric(
            pool,
            resolve_plan(args.shard_plan, shards) if shards else None,
            workers=workers,
            config=config,
            coord=getattr(args, "coord", None),
            supervise=getattr(args, "supervise", False),
            supervisor_config=SupervisorConfig(
                heartbeat_ttl=args.heartbeat_ttl,
                monitor_interval=args.monitor_interval,
            ),
        )
    except ValidationError as exc:
        raise SystemExit(str(exc))


def _shutdown_built(built) -> int:
    """Tear down a :class:`~repro.service.factory.BuiltFabric`; returns the
    propagated exit code, printing any nonzero proc-worker exit codes."""
    exit_code = built.shutdown()
    codes = getattr(built, "worker_exit_codes", None)
    if codes:
        bad = {s: c for s, c in codes.items() if c not in (0, None)}
        if bad:
            print(f"worker exit codes nonzero: {bad}")
    return exit_code


def _install_sigterm():
    """Translate SIGTERM into KeyboardInterrupt for graceful drains."""
    import signal

    def handler(signum, frame):
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, handler)
    except ValueError:  # pragma: no cover - not the main thread
        pass


def _cmd_serve(args) -> int:
    import json
    import time
    from pathlib import Path

    _install_sigterm()
    built = _build_service(args)
    service = built.service
    endpoint = built.serve(
        host=args.host, port=args.port, transport=args.transport
    )
    endpoint.start()
    if built.supervisor is not None:
        built.supervisor.start()
    host, port = endpoint.address
    shards = getattr(service, "num_shards", 1)
    print(f"placement service listening on {host}:{port} "
          f"({service.num_nodes} nodes, {shards} shard(s), "
          f"{built.workers} workers, "
          f"{args.transport} transport, "
          f"batch window {args.batch_window*1000:.1f} ms"
          f"{', supervised' if built.supervisor is not None else ''})")
    exit_code = 0
    try:
        if args.duration is not None:
            time.sleep(args.duration)
        else:
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        print("\ndraining...")
    finally:
        if built.supervisor is not None:
            built.supervisor.stop()
        endpoint.stop()
        if args.checkpoint:
            Path(args.checkpoint).write_text(
                json.dumps(service.checkpoint_doc(), indent=1)
            )
            print(f"wrote checkpoint to {args.checkpoint}")
        stats = service.stats
        exit_code = _shutdown_built(built)
    print(format_table(
        ["metric", "value"],
        [
            ["submitted", stats.submitted],
            ["placed", stats.placed],
            ["refused", stats.refused],
            ["rejected", stats.rejected],
            ["released", stats.released],
            ["acceptance rate", stats.acceptance_rate],
            ["mean cluster distance", stats.mean_distance],
            ["transfer gain", stats.transfer_gain],
        ],
        title="Placement service — final stats",
    ))
    return exit_code


def _cmd_loadgen(args) -> int:
    from repro.service import LoadGenConfig, run_loadgen

    _install_sigterm()
    if args.transport and args.mode != "closed":
        raise SystemExit(
            "--transport requires --mode closed (the wire 'place' op blocks "
            "per connection, which would distort an open-loop arrival clock "
            "and serialize the closed-events driver to one in-flight request)"
        )
    if args.codec != "json" and not args.transport:
        raise SystemExit("--codec requires --transport (it selects the wire "
                         "format the client negotiates)")
    built = _build_service(args)
    service = built.service
    built.start()
    config = LoadGenConfig(
        num_requests=args.requests,
        mode=args.mode,
        rate=args.rate,
        concurrency=args.concurrency,
        mean_hold=args.hold,
        demand_high=args.demand_high,
        seed=args.seed,
        profile=args.profile and not args.transport,
    )
    exit_code = 0
    endpoint = None
    target_desc = "in-process service"
    try:
        if args.transport:
            from repro.service import WireLoadClient

            endpoint = built.serve(port=0, transport=args.transport)
            endpoint.start()
            host, port = endpoint.address
            with WireLoadClient(
                host, port, num_types=service.num_types, codec=args.codec
            ) as client:
                report = run_loadgen(client, config)
                target_desc = (f"{args.transport} transport, "
                               f"{client.codec} codec")
        else:
            report = run_loadgen(service, config)
    finally:
        if built.supervisor is not None:
            built.supervisor.stop()
        if endpoint is not None:
            endpoint.stop()
        else:
            service.drain()
        exit_code = _shutdown_built(built)
    print(format_table(
        ["metric", "value"],
        [
            ["mode", report.mode],
            ["submitted", report.submitted],
            ["placed", report.placed],
            ["refused", report.refused],
            ["rejected", report.rejected],
            ["timed out", report.timed_out],
            ["unavailable", report.unavailable],
            ["client timeouts", report.client_timeouts],
            ["acceptance rate", report.acceptance_rate],
            ["throughput (req/s)", report.throughput],
            ["latency p50 (ms)", report.latency_p50 * 1000],
            ["latency p95 (ms)", report.latency_p95 * 1000],
            ["latency p99 (ms)", report.latency_p99 * 1000],
            ["mean cluster distance", report.mean_distance],
            ["transfer gain", report.transfer_gain],
        ],
        title=f"Load generator — {report.mode}-loop over {target_desc}",
    ))
    if report.profile is not None:
        phases = report.profile["phases"]
        rows = [
            [name, doc["count"], doc["self_s"] * 1000, doc["inclusive_s"] * 1000]
            for name, doc in sorted(
                phases.items(), key=lambda kv: -kv[1]["self_s"]
            )
        ]
        rows.append(["total", "", report.profile["total_s"] * 1000, ""])
        print(format_table(
            ["phase", "count", "self (ms)", "inclusive (ms)"],
            rows,
            title="Placement time breakdown",
        ))
    if args.json:
        import json
        from pathlib import Path

        Path(args.json).write_text(json.dumps(report.to_dict(), indent=1))
        print(f"wrote report to {args.json}")
    return exit_code


def _cmd_coordd(args) -> int:
    """Run a standalone coordination server until interrupted."""
    import time

    from repro.service.coord.net import CoordinationServer

    _install_sigterm()
    server = CoordinationServer(host=args.host, port=args.port)
    server.start()
    host, port = server.address
    print(f"coordination server listening on tcp://{host}:{port}")
    try:
        if args.duration is not None:
            time.sleep(args.duration)
        else:
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        print("\nshutting down...")
    finally:
        backend = server.backend
        server.stop()
        print(
            f"final registry: {len(backend.workers())} worker(s), "
            f"{len(backend.leases())} lease(s)"
        )
    return 0


def _cmd_obs(args) -> int:
    from repro.obs import parse_prometheus
    from repro.service import ServiceClient

    with ServiceClient(args.host, args.port) as client:
        body = client.metrics(format=args.format)
    if args.raw or args.format == "json":
        print(body, end="" if body.endswith("\n") else "\n")
        return 0
    rows = []
    for (name, labels), value in sorted(parse_prometheus(body).items()):
        if not args.buckets and any(k == "le" for k, _ in labels):
            continue
        rows.append([name, ",".join(f"{k}={v}" for k, v in labels), value])
    print(format_table(
        ["series", "labels", "value"],
        rows,
        title=f"metrics @ {args.host}:{args.port}",
    ))
    return 0


def _cmd_report(args) -> int:
    from pathlib import Path

    from repro.experiments.runner import render_markdown, run_all

    report = run_all(seed=args.seed, trials=args.trials)
    text = render_markdown(report)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote report to {args.out}")
    else:
        print(text)
    return 0


def _cmd_trace(args) -> int:
    from repro.cloud import CloudProvider, CloudSimulator, poisson_workload
    from repro.cloud.traces import load_trace, save_trace
    from repro.cluster import PoolSpec, random_pool
    from repro.core import OnlineHeuristic

    if args.replay:
        pool, workload = load_trace(args.replay)
        provider = CloudProvider(pool, OnlineHeuristic())
        result = CloudSimulator(provider).run(workload)
        print(format_table(
            ["metric", "value"],
            [
                ["requests", len(workload)],
                ["placed", provider.stats.placed],
                ["mean cluster distance", provider.stats.mean_distance],
                ["makespan (s)", result.makespan],
            ],
            title=f"Replayed trace {args.replay}",
        ))
        return 0
    if not args.out:
        print("trace: pass --out FILE to record or --replay FILE to replay",
              file=sys.stderr)
        return 2
    pool = random_pool(
        PoolSpec(racks=args.racks, nodes_per_rack=args.nodes,
                 capacity_high=args.capacity),
        cfg.CATALOG,
        seed=args.seed,
        distance_model=cfg.DISTANCES,
    )
    workload = poisson_workload(
        args.requests, pool.num_types, demand_high=args.demand_high, seed=args.seed
    )
    save_trace(args.out, pool=pool, workload=workload)
    print(f"wrote {args.requests}-request trace over "
          f"{pool.num_nodes} nodes to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's experiments (CLUSTER 2012 affinity-aware VC optimization).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--seed", type=int, default=cfg.MASTER_SEED)
        p.set_defaults(func=func)
        return p

    add("fig1", _cmd_fig1, "Section III.A worked example")
    add("fig2", _cmd_fig2, "heuristic vs random central node")
    add("fig3", _cmd_fig3, "central node per request")
    p4 = add("fig4", _cmd_fig4, "distance under each center for one request")
    p4.add_argument("--request-index", type=int, default=0)
    p5 = add("fig5", _cmd_fig5, "online vs global, ordinary requests")
    p5.add_argument("--trials", type=int, default=10)
    p6 = add("fig6", _cmd_fig6, "online vs global, small requests")
    p6.add_argument("--trials", type=int, default=10)
    for name in ("fig7", "fig8"):  # one experiment feeds both figures
        p78 = add(name, _cmd_fig78, "WordCount runtime + locality per topology")
        p78.add_argument("--hdfs-seed", type=int, default=52)
        p78.add_argument("--chart", action="store_true")
    add("ablations", _cmd_ablations, "all ablation tables")
    ps = add("simulate", _cmd_simulate, "event-driven cloud simulation")
    ps.add_argument("--requests", type=int, default=100)
    ps.add_argument("--racks", type=int, default=3)
    ps.add_argument("--nodes", type=int, default=10)
    ps.add_argument("--capacity", type=int, default=2)
    ps.add_argument("--interarrival", type=float, default=8.0)
    ps.add_argument("--duration", type=float, default=100.0)
    ps.add_argument("--demand-high", type=int, default=3)
    ps.add_argument("--policy", default="heuristic")
    ps.add_argument("--batch", action="store_true",
                    help="drain the queue with Algorithm 2 batches")
    def add_service_args(p):
        p.add_argument("--racks", type=int, default=3)
        p.add_argument("--nodes", type=int, default=10)
        p.add_argument("--capacity", type=int, default=4)
        p.add_argument("--queue-capacity", type=int, default=256)
        p.add_argument("--batch-window", type=float, default=0.005,
                       help="seconds the scheduler waits to coalesce arrivals")
        p.add_argument("--max-batch", type=int, default=64)
        p.add_argument("--max-wait", type=float, default=None,
                       help="time out queued requests after this many seconds")
        p.add_argument("--no-transfers", action="store_true",
                       help="skip the Algorithm-2 transfer phase on batches")
        p.add_argument("--shards", type=int, default=0,
                       help="run a sharded fabric with this many shards "
                            "(0 = single service)")
        p.add_argument("--shard-plan", default="rack-group",
                       choices=["by-rack", "rack-group", "capacity-balanced"],
                       help="how racks are assigned to shards")
        p.add_argument("--rebalance-interval", type=float, default=None,
                       help="seconds between cross-shard rebalance sweeps "
                            "(default: off)")
        p.add_argument("--workers", choices=["thread", "proc"],
                       default="thread",
                       help="where shard workers run: threads in this "
                            "process, or one spawned child process per "
                            "shard (proc, requires --shards)")
        p.add_argument("--coord", default=None, metavar="URL",
                       help="coordination server for proc workers: "
                            "tcp://HOST:PORT of a `repro coordd`, or "
                            "'auto' to run one in-process")
        p.add_argument("--supervise", action="store_true",
                       help="run shard workers under the fault-tolerant "
                            "supervisor (requires --shards)")
        p.add_argument("--heartbeat-ttl", type=float, default=1.0,
                       help="declare a shard worker dead after this many "
                            "seconds without a heartbeat")
        p.add_argument("--monitor-interval", type=float, default=0.25,
                       help="seconds between supervisor failure-detection "
                            "sweeps")

    pserve = add("serve", _cmd_serve, "run the online placement service (TCP)")
    add_service_args(pserve)
    pserve.add_argument("--transport", choices=["thread", "aio"],
                        default="thread",
                        help="serving transport: thread-per-connection or "
                             "one asyncio loop")
    pserve.add_argument("--host", default="127.0.0.1")
    pserve.add_argument("--port", type=int, default=0,
                        help="listen port (0 = ephemeral)")
    pserve.add_argument("--duration", type=float, default=None,
                        help="serve for this many seconds, then drain and exit")
    pserve.add_argument("--checkpoint",
                        help="write a state checkpoint to this file on shutdown")

    pl = add("loadgen", _cmd_loadgen, "drive an in-process service with load")
    add_service_args(pl)
    pl.add_argument("--transport", choices=["thread", "aio"], default=None,
                    help="serve the built fabric on loopback via this "
                         "transport and drive it over TCP instead of "
                         "in-process (closed-loop only)")
    pl.add_argument("--codec", choices=["json", "binary", "auto"],
                    default="json",
                    help="wire codec to negotiate when driving over "
                         "--transport")
    pl.add_argument("--requests", type=int, default=200)
    pl.add_argument("--mode", choices=["open", "closed", "closed-events"],
                    default="open",
                    help="open-loop Poisson arrivals, thread-per-client "
                         "closed loop, or the event-driven closed loop "
                         "(same workload, single driver thread — the "
                         "tail-latency methodology, see docs/PERF.md)")
    pl.add_argument("--rate", type=float, default=500.0,
                    help="open-loop offered arrival rate (req/s)")
    pl.add_argument("--concurrency", type=int, default=8,
                    help="closed-loop in-flight requests")
    pl.add_argument("--hold", type=float, default=0.05,
                    help="mean lease holding time (s)")
    pl.add_argument("--demand-high", type=int, default=3)
    pl.add_argument("--profile", action="store_true",
                    help="report where placement time goes "
                         "(admission / center sweep / fill / transfer)")
    pl.add_argument("--json", help="also write the report as JSON to this file")

    po = add("obs", _cmd_obs, "scrape metrics from a running placement service")
    po.add_argument("--host", default="127.0.0.1")
    po.add_argument("--port", type=int, required=True)
    po.add_argument("--format", choices=["prom", "json"], default="prom")
    po.add_argument("--raw", action="store_true",
                    help="print the exposition text verbatim")
    po.add_argument("--buckets", action="store_true",
                    help="include histogram bucket rows in the table")

    pc = sub.add_parser(
        "coordd", help="run a standalone coordination server (TCP)"
    )
    pc.add_argument("--host", default="127.0.0.1")
    pc.add_argument("--port", type=int, default=0,
                    help="listen port (0 = ephemeral)")
    pc.add_argument("--duration", type=float, default=None,
                    help="serve for this many seconds, then exit")
    pc.set_defaults(func=_cmd_coordd)

    pr = add("report", _cmd_report, "run every experiment, emit a markdown report")
    pr.add_argument("--out", help="write the report to this file (default: stdout)")
    pr.add_argument("--trials", type=int, default=5)
    pt = add("trace", _cmd_trace, "record or replay a pool+workload trace")
    pt.add_argument("--out", help="write a fresh random trace to this file")
    pt.add_argument("--replay", help="replay a previously recorded trace")
    pt.add_argument("--requests", type=int, default=50)
    pt.add_argument("--racks", type=int, default=3)
    pt.add_argument("--nodes", type=int, default=10)
    pt.add_argument("--capacity", type=int, default=2)
    pt.add_argument("--demand-high", type=int, default=3)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
