"""Build and tear down the system each workload is sent to.

``setup()`` is what ``setup_s`` times: pool, topology cache, ``build_fabric``,
start, worker spawn, bind and connect. Every piece comes from the package's
public surface; the traced pass differs only in the ``policy`` it hands in.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.cluster import PoolSpec, VMTypeCatalog, random_pool
from repro.core import OnlineHeuristic
from repro.obs import MetricsRegistry
from repro.service import ClusterState, ServiceConfig, build_fabric
from repro.service.shard import FabricConfig, RackGroupPlan
from repro.service.transports import resolve_transport

from benchmarks.ledger.spec import CLOUDS, NODES_PER_RACK, POOL_SEED, Workload
from benchmarks.ledger.trace import TimedPolicy, Trace


def make_pool(workload: Workload):
    return random_pool(
        PoolSpec(
            racks=workload.racks_per_cloud,
            nodes_per_rack=NODES_PER_RACK,
            clouds=CLOUDS,
            capacity_low=1,
            capacity_high=4,
        ),
        VMTypeCatalog.ec2_default(),
        seed=POOL_SEED,
    )


@dataclass
class Target:
    """One built system plus the handles the drivers and checks need."""

    workload: Workload
    pool: object
    registry: MetricsRegistry
    setup_s: float
    #: Library path: the state placed into and the policy that places.
    state: "ClusterState | None" = None
    policy: object = None
    #: Served paths: the assembly, its endpoint and the client connections.
    built: object = None
    endpoint: object = None
    clients: list = field(default_factory=list)
    #: Set-up pieces timed on the way: building a proc fabric (spawning its
    #: workers), and one client connect + codec negotiation (seconds).
    spawn_s: float = 0.0
    connect_s: float = 0.0
    exit_code: "int | None" = None

    @property
    def service(self):
        return self.built.service

    def counters(self) -> dict:
        """Every registry counter and histogram sum / count, summed over
        its labels, plus the supervisor's replication count."""
        totals: dict = {}
        for (name, _labels), value in self.registry.flatten().items():
            if not name.endswith("_bucket"):
                totals[name] = totals.get(name, 0.0) + value
        supervisor = getattr(self.built, "supervisor", None)
        if supervisor is not None:
            totals["ledger_replications"] = float(
                sum(worker.replications for worker in supervisor.workers)
            )
        return totals

    def states(self) -> list:
        """The ``ClusterState`` objects this workload places into (for a
        proc fabric, the parent's mirrors of them)."""
        if self.state is not None:
            return [self.state]
        shards = getattr(self.service, "shards", None)
        if shards is None:
            return [self.service.state]
        return [shard.state for shard in shards]

    def teardown(self) -> int:
        """Stop everything this target started; returns the exit code."""
        for client in self.clients:
            client.close()
        self.clients = []
        if self.endpoint is not None:
            self.endpoint.stop(drain=False)
            self.endpoint = None
        if self.built is not None and self.exit_code is None:
            self.exit_code = self.built.shutdown()
        return self.exit_code or 0


def setup(workload: Workload, trace: "Trace | None" = None) -> Target:
    """Build *workload*'s system; with *trace*, wrap its placement policy."""
    started = time.perf_counter()
    pool = make_pool(workload)
    registry = MetricsRegistry()
    if workload.kind == "library":
        state = ClusterState.from_pool(pool)  # builds the topology cache
        policy = TimedPolicy(trace) if trace is not None else OnlineHeuristic()
        return Target(
            workload, pool, registry, time.perf_counter() - started,
            state=state, policy=policy,
        )
    config = FabricConfig(
        rebalance_interval=workload.rebalance_interval,
        service=ServiceConfig(
            batch_window=0.002,
            max_batch=64,
            enable_transfers=True,
            queue_capacity=1024,
            max_wait=workload.max_wait,
        ),
    )
    policy = None
    if trace is not None and workload.workers != "proc":
        policy = lambda: TimedPolicy(trace)  # noqa: E731 - a zero-arg factory
    spawn_started = time.perf_counter()
    built = build_fabric(
        pool,
        RackGroupPlan(workload.shards) if workload.shards else None,
        workers=workload.workers,
        config=config,
        supervise=workload.supervise,
        policy=policy,
        obs=registry,
    )
    spawn_s = time.perf_counter() - spawn_started
    target = Target(
        workload, pool, registry, 0.0, built=built,
        spawn_s=spawn_s if workload.workers == "proc" else 0.0,
    )
    try:
        for state in target.states():
            state.topology_cache  # built lazily otherwise, inside warm-up
        built.start()
        if workload.serve_transport is not None:
            target.endpoint = built.serve(transport=workload.serve_transport)
            target.endpoint.start()
            host, port = target.endpoint.address
            connect_started = time.perf_counter()
            for _ in range(workload.in_flight):
                target.clients.append(
                    resolve_transport("thread").connect(
                        host, port, codec=workload.codec
                    )
                )
            target.connect_s = (
                time.perf_counter() - connect_started
            ) / workload.in_flight
    except BaseException:
        target.teardown()
        raise
    target.setup_s = time.perf_counter() - started
    return target
