"""One construction path for every serving topology: :func:`build_fabric`.

There are two things to serve — a bare
:class:`~repro.service.server.PlacementService`, or a
:class:`~repro.service.shard.ShardedPlacementFabric` whose shards run on one
of two :class:`~repro.service.shard.backend.ShardBackend` kinds — plus
optional supervision and coordination wiring. :func:`build_fabric` is the
one factory for all of it, keyed by ``workers``:

* ``"thread"`` — in-process shard services on background threads (or a
  single unsharded service when *plan* is ``None``);
* ``"proc"`` — the same fabric over
  :class:`~repro.service.proc.backend.ProcBackend`: one child process per
  shard, optionally registered with a coordination server (``coord="auto"``
  starts one in-process) and watched by the same supervisor, which then
  respawns dead children.

The returned :class:`BuiltFabric` owns the whole assembly — fabric,
supervisor, coordination server — and tears it down in the right order in
:meth:`BuiltFabric.shutdown`; :meth:`BuiltFabric.serve` picks the transport.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.cluster.resources import ResourcePool
from repro.core.placement.greedy import OnlineHeuristic
from repro.obs import MetricsRegistry
from repro.service.coord.net import CoordinationServer, NetworkedCoordinationBackend
from repro.service.proc.backend import proc_backend_factory
from repro.service.proc.worker import POLICY_REGISTRY
from repro.service.server import PlacementService, ServiceConfig
from repro.service.shard import FabricConfig, RackGroupPlan, ShardedPlacementFabric
from repro.service.shard.plan import ShardAssignment, ShardPlan
from repro.service.state import ClusterState
from repro.service.supervisor import FabricSupervisor
# Every transport dials with this module's client, and ``serve()`` binds
# its endpoint by default: it loads with the factory, not in a first build.
from repro.service.transport import ServiceClient  # noqa: F401
from repro.service.transports import resolve_transport
from repro.util.errors import ValidationError

__all__ = ["WORKER_KINDS", "BuiltFabric", "build_fabric"]

#: Accepted ``workers=`` values, in documentation order.
WORKER_KINDS = ("thread", "proc")


@dataclass
class BuiltFabric:
    """Everything :func:`build_fabric` assembled, with one lifecycle.

    ``service`` duck-types the placement interface every worker kind shares
    (``submit``/``release``/``cancel``/``start``/``drain``/``stop``);
    ``supervisor`` and ``coord_server`` are present only when requested.
    """

    service: object
    workers: str
    supervisor: "object | None" = None
    coord_server: "object | None" = None
    #: Per-shard child exit codes, populated by :meth:`shutdown` for proc
    #: workers (``None`` until then, and for in-process workers).
    worker_exit_codes: "dict | None" = None

    def start(self) -> "BuiltFabric":
        """Start the fabric's background loops and the supervisor, if any."""
        self.service.start()
        if self.supervisor is not None:
            self.supervisor.start()
        return self

    def serve(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        transport: str = "thread",
        **options,
    ):
        """Bind a serving endpoint around the fabric (not yet started)."""
        return resolve_transport(transport).serve(
            self.service, host=host, port=port, **options
        )

    def shutdown(self) -> int:
        """Stop everything in dependency order; returns a process exit code.

        Supervisor first (no respawns during teardown), then the fabric —
        out-of-process shards are drained and their children reaped, and any
        nonzero child exit code turns into exit code 1 — then the
        coordination server.
        """
        exit_code = 0
        if self.supervisor is not None:
            self.supervisor.stop()
            backend = getattr(self.supervisor, "backend", None)
            close = getattr(backend, "close", None)
            if callable(close):
                close()
        shutdown = getattr(self.service, "shutdown", None)
        if callable(shutdown):
            codes = shutdown()
            if codes:
                self.worker_exit_codes = codes
            if any(c not in (0, None) for c in codes.values()):
                exit_code = 1
        else:
            self.service.stop()
        if self.coord_server is not None:
            self.coord_server.stop()
        return exit_code


def build_fabric(
    pool: ResourcePool,
    plan=None,
    *,
    workers: str = "thread",
    config=None,
    coord: "str | None" = None,
    supervise: bool = False,
    supervisor_config=None,
    policy=None,
    obs=None,
) -> BuiltFabric:
    """Assemble a serving fabric over *pool*; see the module docstring.

    Parameters
    ----------
    pool:
        The physical resource pool to serve.
    plan:
        How to shard it: a :class:`~repro.service.shard.plan.ShardPlan`, an
        ``int`` (that many rack-group shards), or ``None`` for a single
        unsharded service (proc workers have no unsharded mode — ``None``
        falls through to the fabric's default by-rack plan).
    workers:
        ``"thread"`` or ``"proc"`` — see :data:`WORKER_KINDS`.
    config:
        A :class:`~repro.service.shard.FabricConfig`, or a bare
        :class:`~repro.service.server.ServiceConfig` which is wrapped into
        one (fabric defaults for everything else).
    coord:
        Coordination server URL for proc workers: ``tcp://HOST:PORT``,
        ``"auto"`` to start one in-process, or ``None``. Thread workers
        coordinate in-process and refuse a URL.
    supervise:
        Attach (but do not start) a
        :class:`~repro.service.supervisor.FabricSupervisor`. For proc
        workers pass *coord* too: without the children's heartbeats and
        checkpoints it can only watch process liveness.
    supervisor_config / policy / obs:
        Forwarded to the underlying constructors. *policy* is a wire policy
        name (any path) or a zero-arg policy factory (in-process paths
        only — arbitrary code never crosses the proc boundary); ``None``
        picks each path's default.
    """
    if workers not in WORKER_KINDS:
        raise ValidationError(
            f"unknown workers kind {workers!r}; expected one of {WORKER_KINDS}"
        )
    if isinstance(plan, int):
        plan = RackGroupPlan(plan) if plan > 0 else None
    if plan is not None and not isinstance(plan, (ShardPlan, ShardAssignment)):
        raise ValidationError(
            f"plan must be a ShardPlan, a shard count, or None, got {plan!r}"
        )
    if isinstance(config, ServiceConfig):
        config = FabricConfig(service=config)
    if config is None:
        config = FabricConfig()
    if not isinstance(config, FabricConfig):
        raise ValidationError(
            f"config must be a FabricConfig or ServiceConfig, got {config!r}"
        )
    if obs is None:
        obs = MetricsRegistry()

    if workers != "proc":
        if coord is not None:
            raise ValidationError(
                "coord requires proc workers (thread workers coordinate "
                "in-process)"
            )
        if plan is None:
            if supervise:
                raise ValidationError(
                    "supervise requires a sharded fabric (pass a plan)"
                )
            factory = _resolve_policy_factory(policy) or OnlineHeuristic
            service = PlacementService(
                ClusterState.from_pool(pool),
                policy=factory(),
                config=config.service,
                obs=obs,
            )
            return BuiltFabric(service=service, workers=workers)
    elif policy is not None and not isinstance(policy, str):
        raise ValidationError(
            "proc workers take a wire policy name (arbitrary code never "
            "crosses the process boundary)"
        )

    # One fabric, one supervisor; the worker kind only picks the backend
    # each shard is reached through (and, with it, whose clock beats).
    coord_server = coord_backend = fabric = supervisor = None
    clock = time.monotonic
    try:
        if workers == "proc":
            if coord == "auto":
                coord_server = CoordinationServer()
                coord_server.start()
                coord = coord_server.url
            where = {
                "backend_factory": proc_backend_factory(
                    service_config=config.service,
                    obs=obs,
                    coord_url=coord,
                    policy=policy or "heuristic",
                    supervisor_config=supervisor_config,
                )
            }
            if supervise and coord:
                coord_backend = NetworkedCoordinationBackend.from_url(coord)
            clock = time.time  # children beat on the wall clock
        else:
            where = {"policy_factory": _resolve_policy_factory(policy)}
        fabric = ShardedPlacementFabric(
            pool, plan=plan, config=config, obs=obs, **where
        )
        if supervise:
            supervisor = FabricSupervisor(
                fabric, coord_backend, supervisor_config, clock=clock
            )
    except BaseException:
        if coord_backend is not None:
            coord_backend.close()
        if fabric is not None:
            fabric.shutdown()
        if coord_server is not None:
            coord_server.stop()
        raise
    return BuiltFabric(
        service=fabric,
        workers=workers,
        supervisor=supervisor,
        coord_server=coord_server,
    )


def _resolve_policy_factory(policy):
    """A zero-arg policy factory from *policy* (name, factory, or ``None``)."""
    if policy is None or callable(policy):
        return policy
    factory = POLICY_REGISTRY.get(policy)
    if factory is None:
        raise ValidationError(
            f"unknown policy {policy!r}; expected a zero-arg factory or one "
            f"of {sorted(POLICY_REGISTRY)}"
        )
    return factory
