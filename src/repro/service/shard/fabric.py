"""The sharded placement fabric: N rack-aligned placement services, one front.

:class:`ShardedPlacementFabric` cuts a pristine :class:`ResourcePool` into
rack-aligned shards (:mod:`repro.service.shard.plan`), runs one
:class:`~repro.service.server.PlacementService` per shard over its own
:class:`~repro.service.state.ClusterState` — reached through a
:class:`~repro.service.shard.backend.ShardBackend`, so the service may be an
object in this process or a spawned child — and fronts them with a
:class:`~repro.service.shard.router.ShardRouter`:

* **submit** — the router ranks shards by free-capacity-scaled estimated
  ``DC``; the request goes to the best shard, *spills over* to the next-best
  when a shard declines at the door (queue full, draining), and is refused
  or rejected at the fabric level when no shard can admit it. Decisions come
  back in **global** node ids — clients never see the partition.
* **rebalance** (in-process shards only) — a periodic (or explicitly
  invoked) sweep of *migrations* across shard boundaries: a badly-fitted
  lease is re-placed into the shard the router now prefers through a
  two-phase reserve/commit on the two shards (reserve capacity in the
  target, then commit by freeing the source). Every applied move strictly
  shrinks the summed cluster distance. The paper's Theorem-2 exchange
  search runs inside each shard's batch (``PlacementService._optimize_batch``).
* **checkpoint/restore** — per-shard checkpoints plus a router manifest
  (plan, rack assignment, lease owners) in one deterministic JSON document;
  ``checkpoint → restore → checkpoint`` is byte-identical.
* **drain** — per-shard graceful drain; whatever cannot be served resolves
  as ``dropped`` exactly like the single service.

Threads: when every shard runs in this process, one
:class:`~repro.service.server.SchedulerLoop` thread (``fabric-scheduler``)
steps every shard, hands requests stranded on a full shard back to the
router, and advances the periodic rebalance sweep one migration candidate
per turn; callers' threads only route and enqueue. A supervisor replaces
the loop when a step or hook blocks it
(:meth:`ShardedPlacementFabric.revive_scheduler`). Out-of-process shards
step in their own children.

Lock ordering (deadlock-free by construction): shard backend locks are only
ever taken in ascending shard-id order, and the fabric's own bookkeeping
lock is only taken *after* (or without) shard locks, never before.
"""

from __future__ import annotations

import contextlib
import json
import logging
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.cloud.traces import catalog_from_dict, catalog_to_dict, pool_from_dict, pool_to_dict
from repro.cluster.resources import ResourcePool
from repro.core import reliability
from repro.core.placement.greedy import OnlineHeuristic
from repro.core.problem import VirtualClusterRequest
from repro.obs.registry import DISTANCE_BUCKETS, ensure_registry
from repro.service.api import (
    DecisionStatus,
    PlaceRequest,
    PlacementDecision,
    ReleaseRequest,
    ReleaseResponse,
)
from repro.service.checkpoint import checkpoint_bytes, state_from_checkpoint
from repro.service.server import (
    PlacementService,
    SchedulerLoop,
    ServiceConfig,
    Ticket,
)
from repro.service.shard.backend import LocalBackend, ShardBackend
from repro.service.shard.plan import (
    ByRackPlan,
    ShardAssignment,
    ShardPlan,
    assignment_from_racks,
    shard_topology,
)
from repro.service.shard.router import RouteResult, ShardRouter
from repro.service.state import ClusterState
from repro.util.errors import ReproError, ValidationError
from repro.util.timing import PhaseTimer

_log = logging.getLogger(__name__)

FABRIC_CHECKPOINT_VERSION = 1

#: Owner-map sentinel: the request is being routed but no shard admitted yet.
_ROUTING = -1


@dataclass(frozen=True, slots=True)
class FabricConfig:
    """Tunables for one :class:`ShardedPlacementFabric`.

    ``service`` is the per-shard :class:`ServiceConfig` (every shard gets the
    same one). ``rebalance_interval`` is the pause between background
    migration sweeps; the scheduler loop advances a due sweep by one of its
    (up to ``rebalance_candidates`` per shard) worst-distance leases per
    turn, and a move must gain more than ``rebalance_min_gain``.
    ``rebalance_interval=None`` disables the background sweep —
    :meth:`ShardedPlacementFabric.rebalance` stays available for explicit,
    deterministic invocation.

    ``speculation`` is the tail-latency lever: when a request's best-ranked
    shard cannot satisfy it *right now* (every copy would have to wait for
    releases), the fabric submits copies to up to that many top-ranked
    shards in parallel and keeps whichever places first — the loser copies
    are cancelled (still queued) or released (placed moments later). ``1``
    disables speculation entirely, and because speculation only ever fires
    on currently-unsatisfiable requests, the placement decisions for
    satisfiable traffic are identical either way.
    """

    spillover: bool = True
    rebalance_interval: "float | None" = None
    rebalance_candidates: int = 8
    rebalance_min_gain: float = 1e-9
    speculation: int = 1
    service: ServiceConfig = field(default_factory=ServiceConfig)

    def __post_init__(self) -> None:
        if self.rebalance_interval is not None and self.rebalance_interval <= 0:
            raise ValidationError("rebalance_interval must be > 0 when set")
        if self.speculation < 1:
            raise ValidationError("speculation must be >= 1 (1 disables it)")
        if self.rebalance_candidates < 1:
            raise ValidationError("rebalance_candidates must be >= 1")
        if self.rebalance_min_gain < 0:
            raise ValidationError("rebalance_min_gain must be >= 0")


@dataclass
class FabricStats:
    """Aggregate fabric-level outcomes (shard stats are tracked per shard).

    Spillover submissions are counted once here, not once per shard tried,
    so ``submitted`` is the true arrival count. ``handbacks`` counts queued
    requests the scheduler loop moved off a shard that could not place them
    (:meth:`ShardedPlacementFabric._hand_back`). ``batch_transfer_gain`` is
    the summed per-shard batch-transfer gain (filled when read through
    :attr:`ShardedPlacementFabric.stats`).
    """

    submitted: int = 0
    placed: int = 0
    refused: int = 0
    rejected: int = 0
    timed_out: int = 0
    dropped: int = 0
    cancelled: int = 0
    released: int = 0
    spillovers: int = 0
    handbacks: int = 0
    speculations: int = 0
    spec_released: int = 0
    failovers: int = 0
    unavailable: int = 0
    shard_deaths: int = 0
    shard_restores: int = 0
    rebalance_migrations: int = 0
    rebalance_gain: float = 0.0
    batch_transfer_gain: float = 0.0
    total_distance: float = 0.0

    @property
    def acceptance_rate(self) -> float:
        """Placed fraction of all submissions (0 when nothing submitted)."""
        return self.placed / self.submitted if self.submitted else 0.0

    @property
    def mean_distance(self) -> float:
        """Average committed cluster distance across placed requests."""
        return self.total_distance / self.placed if self.placed else 0.0

    @property
    def transfer_gain(self) -> float:
        """All distance recovered by optimization: batch + rebalance."""
        return self.batch_transfer_gain + self.rebalance_gain

    def to_dict(self) -> dict:
        """JSON-ready view (for the transport's ``stats`` op)."""
        doc = {name: getattr(self, name) for name in self.__dataclass_fields__}
        doc["acceptance_rate"] = self.acceptance_rate
        doc["mean_distance"] = self.mean_distance
        doc["transfer_gain"] = self.transfer_gain
        return doc


@dataclass(frozen=True, slots=True)
class RebalanceReport:
    """Outcome of one :meth:`ShardedPlacementFabric.rebalance` sweep."""

    candidates: int
    migrations: int
    gain: float


def _on_every_shard(shards, call) -> dict:
    """``{shard_id: call(shard)}``, the calls run side by side (a thread
    each), so child processes start or stop together. Raises the first
    failure once every call has returned."""
    results: dict = {}
    failures: list = []

    def run(shard) -> None:
        try:
            results[shard.shard_id] = call(shard)
        except BaseException as exc:
            failures.append(exc)

    threads = [
        threading.Thread(
            target=run, args=(shard,), name=f"fabric-shard-{shard.shard_id}"
        )
        for shard in shards
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    return {shard.shard_id: results[shard.shard_id] for shard in shards}


class Shard:
    """One rack-aligned partition: id maps plus the backend serving it.

    ``to_global[i]`` is the global node id of local node ``i``; decisions
    produced by the shard's service are translated through it before any
    caller outside the fabric sees them.
    """

    __slots__ = ("shard_id", "racks", "to_global", "backend")

    def __init__(
        self,
        shard_id: int,
        racks: tuple[int, ...],
        node_ids: tuple[int, ...],
        backend: ShardBackend,
    ) -> None:
        self.shard_id = shard_id
        self.racks = racks
        self.to_global = np.asarray(node_ids, dtype=np.int64)
        self.to_global.flags.writeable = False
        self.backend = backend

    @property
    def state(self) -> ClusterState:
        """The state the router scores (a mirror for out-of-process shards)."""
        return self.backend.state

    @property
    def service(self) -> "PlacementService | None":
        """The live service, when the shard runs in this process."""
        return self.backend.service

    @property
    def num_nodes(self) -> int:
        return int(self.to_global.shape[0])

    def translate(self, decision: PlacementDecision) -> PlacementDecision:
        """Rewrite a shard-local decision into global node ids."""
        if not decision.placed:
            return decision
        placements = tuple(
            (int(self.to_global[node]), vm_type, count)
            for node, vm_type, count in decision.placements
        )
        return replace(
            decision,
            placements=placements,
            center=int(self.to_global[decision.center]),
        )

    def check_partition(self, state: ClusterState) -> None:
        """Raise unless *state* (a restored copy) has this shard's shape."""
        if state.num_nodes != self.num_nodes or not np.array_equal(
            state.max_capacity, self.state.max_capacity
        ):
            raise ValidationError(
                f"restored state for shard {self.shard_id} does not match "
                "the shard's partition of the pool"
            )

    def __repr__(self) -> str:
        return (
            f"Shard(id={self.shard_id}, racks={list(self.racks)}, "
            f"nodes={self.num_nodes}, leases={self.state.num_leases})"
        )


def _draws_nothing(policy) -> bool:
    """Whether a skipped ``policy.place`` leaves no state behind. Only the
    index-order Algorithm 1 is known to; any other policy (a seeded random
    center order, a custom factory's) may draw per call, so every later
    placement would differ if a call were skipped."""
    return type(policy) is OnlineHeuristic and policy.center_order == "index"


class ShardedPlacementFabric:
    """Rack-aligned shards behind one shard-transparent serving surface.

    Parameters
    ----------
    pool:
        The *pristine* global pool (no prior allocations — restore existing
        leases through :func:`fabric_from_checkpoint` instead).
    plan:
        A :class:`~repro.service.shard.plan.ShardPlan` (or a prebuilt
        :class:`~repro.service.shard.plan.ShardAssignment`); defaults to
        one shard per rack.
    policy_factory:
        Zero-arg callable producing the per-shard placement policy
        (default: a fresh Algorithm-1 :class:`OnlineHeuristic` per shard —
        policies are stateful enough that sharing one across shard threads
        is not allowed). In-process shards only.
    config / obs:
        Fabric tunables and the metrics registry shared by the fabric and
        every shard service (counters therefore aggregate fabric-wide;
        per-shard series live in the ``repro_shard_*`` family).
    backend_factory:
        ``(shard_id, pristine_state) -> ShardBackend``: where each shard's
        service runs. Default: a :class:`PlacementService` in this process
        (:class:`~repro.service.shard.backend.LocalBackend`);
        :func:`~repro.service.factory.build_fabric` passes the
        out-of-process one for ``workers="proc"``.
    """

    def __init__(
        self,
        pool: ResourcePool,
        *,
        plan: "ShardPlan | ShardAssignment | None" = None,
        policy_factory=None,
        config: "FabricConfig | None" = None,
        obs=None,
        backend_factory=None,
    ) -> None:
        if int(pool.allocated.sum()) != 0:
            raise ValidationError(
                "the fabric requires a pristine pool; restore live leases "
                "via fabric_from_checkpoint"
            )
        self.config = config or FabricConfig()
        self.obs = ensure_registry(obs)
        self.timer = PhaseTimer()
        self._pool = pool
        if plan is None:
            plan = ByRackPlan()
        assignment = plan if isinstance(plan, ShardAssignment) else plan.partition(pool.topology)
        self.assignment = assignment
        if backend_factory is None:
            policy_factory = policy_factory or OnlineHeuristic

            def backend_factory(shard_id: int, state: ClusterState):
                service = PlacementService(
                    state,
                    policy=policy_factory(),
                    config=self.config.service,
                    obs=self.obs,
                )
                return LocalBackend(shard_id, service, policy_factory)

        self._shards: list[Shard] = []
        try:
            for shard_id, (racks, node_ids) in enumerate(
                zip(assignment.racks, assignment.nodes)
            ):
                topo = shard_topology(pool.topology, node_ids)
                state = ClusterState(
                    topo, pool.catalog, distance_model=pool.distance_model
                )
                self._shards.append(
                    Shard(shard_id, racks, node_ids, backend_factory(shard_id, state))
                )
            #: Cross-shard rebalancing mutates two shards' states in one
            #: transaction, which only in-process services allow.
            self._in_process = all(s.service is not None for s in self._shards)
            if self.config.rebalance_interval is not None and not self._in_process:
                raise ValidationError(
                    "cross-shard rebalancing is not supported out-of-process; "
                    "use rebalance_interval=None"
                )
            # Every child process is already launched: they start up side
            # by side rather than one after another.
            _on_every_shard(self._shards, lambda shard: shard.backend.connect())
        except BaseException:
            # Whatever did come up (children already launched) is not stranded.
            _on_every_shard(self._shards, lambda shard: shard.backend.close(5.0))
            raise
        self._router = ShardRouter([s.state for s in self._shards])
        self._stats = FabricStats()
        #: request id → owning shard id (or _ROUTING while being placed).
        self._owners: dict[int, int] = {}
        #: Shards quarantined by :meth:`mark_shard_down` (dead workers).
        self._down: set[int] = set()
        #: request id → (request, outer ticket, attempt token, copy shards,
        #: arrival) for every not-yet-decided request, so shard death can
        #: re-route the victims without touching the dead worker, from their
        #: arrival (``time.monotonic()`` when the fabric received them). The
        #: attempt token fences stale decisions: a dying shard's late
        #: callback loses to the re-route. ``copy shards`` holds every shard
        #: still racing for the request — a singleton normally, several
        #: under speculation; one attempt token is shared by all copies of a
        #: speculation group so the first committed placement wins and
        #: fences the rest.
        self._inflight: dict[
            int, tuple[PlaceRequest, Ticket, int, frozenset[int], float]
        ] = {}
        self._attempts = 0
        self._started = False
        self._flock = threading.Lock()
        #: Held by one rebalance slice (or a whole operator sweep) at a time.
        self._rebalance_lock = threading.Lock()
        #: The background sweep in progress, and when the next one is due.
        self._sweep = None
        self._sweep_due: "float | None" = None
        #: While started: the one thread that steps every in-process shard
        #: (and slices the background sweep); out-of-process shards step in
        #: their children.
        self._scheduler: "SchedulerLoop | None" = None
        #: Live shards' ``(id, state version)`` at the last hand-back pass.
        self._handed_back_at: "tuple | None" = None
        # --- instruments -------------------------------------------------
        self._m_admission = self.obs.counter(
            "repro_service_admission_total",
            "Per-shard admission outcomes, including refusals recorded "
            "before any queue is touched.",
            labels=("shard", "outcome"),
        )
        self._m_spill = self.obs.counter(
            "repro_shard_spillovers_total",
            "Requests a shard declined at the door and the router spilled "
            "to the next-best shard.",
            labels=("shard",),
        )
        self._m_shard_queue = self.obs.gauge(
            "repro_shard_queue_depth",
            "Requests waiting in each shard's queue.",
            labels=("shard",),
        )
        self._m_shard_leases = self.obs.gauge(
            "repro_shard_leases",
            "Active leases held by each shard.",
            labels=("shard",),
        )
        self._m_shard_util = self.obs.gauge(
            "repro_shard_utilization",
            "Fraction of each shard's VM slots currently allocated.",
            labels=("shard",),
        )
        self._mc_migrated = self.obs.counter(
            "repro_shard_rebalance_total",
            "Cross-shard rebalance moves applied, by kind.",
            labels=("kind",),
        ).labels(kind="migration")
        self._m_migrations_pruned = self.obs.counter(
            "repro_shard_migrations_pruned_total",
            "Rebalance migrations skipped without a trial placement: the "
            "target shard's routing bound showed no gain was possible.",
        )
        self._m_rebalance_gain = self.obs.histogram(
            "repro_shard_rebalance_gain_distance",
            "Distance recovered per applied rebalance move.",
            buckets=DISTANCE_BUCKETS,
        )
        self._m_failovers = self.obs.counter(
            "repro_fabric_failovers_total",
            "Shard-death failover events: the shard was quarantined from "
            "routing and its in-flight requests re-routed.",
            labels=("shard",),
        )
        self._m_checkpoint = self.obs.histogram(
            "repro_service_checkpoint_seconds",
            "Wall seconds to serialize a live checkpoint of the service state.",
        )
        # Pre-resolved per-shard label cells for the submit hot path: every
        # ``labels()`` call rebuilds a key tuple and probes the family map,
        # and the cells are the same small fixed set for the fabric's
        # lifetime. Resolving them once keeps the admission fast path to a
        # single atomic ``inc()`` per event (see docs/PERF.md, lock audit).
        nshards = len(self._shards)
        self._mc_refused = [
            self._m_admission.labels(shard=str(i), outcome="refused")
            for i in range(nshards)
        ]
        self._mc_rejected = [
            self._m_admission.labels(shard=str(i), outcome="rejected")
            for i in range(nshards)
        ]
        self._mc_admitted = [
            self._m_admission.labels(shard=str(i), outcome="admitted")
            for i in range(nshards)
        ]
        self._mc_spill = [
            self._m_spill.labels(shard=str(i)) for i in range(nshards)
        ]
        self._mc_queue = [
            self._m_shard_queue.labels(shard=str(i)) for i in range(nshards)
        ]
        self._refresh_gauges()

    # -------------------------------------------------------------- shape

    @property
    def shards(self) -> tuple[Shard, ...]:
        return tuple(self._shards)

    @property
    def handles(self) -> tuple:
        """Child-process handles of out-of-process shards, in shard order
        (empty when every shard runs in this process)."""
        return tuple(
            s.backend.handle for s in self._shards if s.backend.handle is not None
        )

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def num_nodes(self) -> int:
        return self._pool.num_nodes

    @property
    def num_types(self) -> int:
        return self._pool.num_types

    @property
    def pool(self) -> ResourcePool:
        """The global pool the fabric was partitioned from (topology oracle;
        its allocation matrix is *not* maintained — see
        :meth:`global_allocated`)."""
        return self._pool

    @property
    def stats(self) -> FabricStats:
        """A consistent copy of fabric-level stats with shard gains folded in."""
        with self._flock:
            stats = replace(self._stats)
        stats.batch_transfer_gain = float(
            sum(s.backend.transfer_gain for s in self._shards)
        )
        return stats

    @property
    def queued(self) -> int:
        return sum(s.backend.queued for s in self._live_shards())

    def owner_of(self, request_id: int) -> "int | None":
        """Shard id holding (or placing) *request_id*, if any."""
        with self._flock:
            owner = self._owners.get(request_id)
        return None if owner is None or owner == _ROUTING else owner

    # --------------------------------------------------------- submission

    def submit(self, request: PlaceRequest) -> Ticket:
        """Route *request* to the best live shard; spill over on declines.

        Returns a ticket whose decision is already translated to global
        node ids. When no shard can admit, the ticket resolves immediately:
        ``refused`` when every shard's maximum capacity is exceeded,
        ``shard_unavailable`` when only a dead shard could have served it,
        ``rejected`` otherwise.

        The request arrives now: its ``max_wait``, its reported latency and
        its shard's batching window count from this call, routing included.
        """
        arrival = time.monotonic()
        tickets, fresh, _ = self._screen((request,))
        for request, ticket in fresh:
            self._dispatch(request, ticket, failover=False, arrival=arrival)
        return tickets[0]

    def _screen(self, requests):
        """Count arrivals, bounce duplicate ids, mark the rest as routing.

        Returns ``(tickets, fresh, down)``: one ticket per request in
        order, the ``(request, ticket)`` pairs still to be dispatched, and
        the dead-shard set as of the screening.
        """
        tickets: "list[Ticket]" = []
        fresh: "list[tuple[PlaceRequest, Ticket]]" = []
        duplicates: "list[Ticket]" = []
        with self._flock:
            down = frozenset(self._down)
            for request in requests:
                ticket = Ticket(request.request_id)
                tickets.append(ticket)
                self._stats.submitted += 1
                if request.request_id in self._owners:
                    self._stats.rejected += 1
                    duplicates.append(ticket)
                else:
                    self._owners[request.request_id] = _ROUTING
                    fresh.append((request, ticket))
        for ticket in duplicates:
            ticket._resolve(
                PlacementDecision(
                    request_id=ticket.request_id,
                    status=DecisionStatus.REJECTED,
                    detail="duplicate request id (pending or holding a lease)",
                )
            )
        return tickets, fresh, down

    def submit_batch(self, requests: "list[PlaceRequest]") -> "list[Ticket]":
        """Submit a whole drained batch through one vectorized routing pass.

        Semantically identical to calling :meth:`submit` once per request in
        order — duplicate screening, owner registration, spillover, and
        terminal outcomes all match, because batched routing is
        decision-identical to sequential routing
        (:meth:`ShardRouter.route_batch`) and submission never mutates the
        states routing reads (placement happens in the shards' ``step``).
        The win is the per-arrival routing overhead: one supply matmul and
        one fill-bound kernel per shard for the whole batch instead of one
        python scoring walk per request. The async endpoint feeds every
        batch it drains from its connections through here. The whole batch
        arrives at this call, as each request would at its :meth:`submit`.
        """
        arrival = time.monotonic()
        tickets, fresh, down = self._screen(requests)
        if not fresh:
            return tickets
        # Survivability-constrained requests take the scalar routing path —
        # their shard ranking depends on per-shard spread feasibility, which
        # the vectorized screen does not model. Untargeted rows (the hot
        # path) keep the batched, decision-identical routing. Dispatch runs
        # in the original submission order either way, so shard-queue
        # arrival order matches sequential submits even in mixed batches.
        plain = [
            (request, ticket)
            for request, ticket in fresh
            if request.survivability is None
        ]
        routes = iter(())
        if plain:
            demands = np.stack(
                [np.asarray(r.demand, dtype=np.int64) for r, _ in plain]
            )
            with self.timer.phase("route"):
                routes = iter(self._router.route_batch(demands, exclude=down))
        for request, ticket in fresh:
            if request.survivability is None:
                self._dispatch(
                    request, ticket, failover=False, arrival=arrival,
                    route=next(routes),
                )
            else:
                self._dispatch(request, ticket, failover=False, arrival=arrival)
        return tickets

    def _dispatch(
        self,
        request: PlaceRequest,
        ticket: Ticket,
        *,
        failover: bool,
        arrival: float,
        route: "RouteResult | None" = None,
    ) -> None:
        """Route *request* over the live shards and resolve *ticket*.

        Shared by :meth:`submit` and the shard-death failover path: the
        latter re-enters here with ``failover=True``, which always walks
        the full ranked spillover order (a dead shard's victims must reach
        *any* surviving shard, even with ``spillover=False``).
        :meth:`submit_batch` passes a pre-computed *route* from its
        vectorized screening pass. *arrival* is when the request first
        arrived at the fabric, kept across failover and hand-back (see
        :meth:`_admit`).
        """
        demand = np.asarray(request.demand, dtype=np.int64)
        target = request.survivability
        down = self.down_shards
        if route is None:
            with self.timer.phase("route"):
                route = self._router.route(demand, exclude=down, target=target)
        for shard_id in route.refused:
            # The satellite fix: a refusal that never reaches a queue is
            # still attributed to the shard that refused it.
            self._mc_refused[shard_id].inc()
        candidates = (
            route.ranked
            if (self.config.spillover or failover)
            else route.ranked[:1]
        )
        copies = 1
        if (
            self.config.speculation > 1
            and len(candidates) > 1
            and (
                self._shards[candidates[0]].backend.backlog_hint > 0
                or not self._shards[candidates[0]].state.can_satisfy(demand)
            )
        ):
            # The best-ranked shard will not place this request in the next
            # step — either it cannot satisfy the demand right now, or a
            # backlog is queued ahead that will eat the capacity first — so
            # the request would park there until releases free capacity.
            # Racing copies on the top-ranked shards lets whichever shard
            # frees up first win, instead of betting the whole wait on one
            # shard's release schedule — this is the fabric's p99 lever.
            # Immediately-placeable traffic never speculates, so its
            # placements are identical with speculation on or off.
            copies = self.config.speculation
        if self._admit(request, ticket, candidates, copies, arrival):
            return
        # No shard admitted: refuse when nobody could *ever* serve it,
        # reject when live shards exist but all declined right now, and
        # fail fast as shard_unavailable when only a dead shard could have
        # taken it (degraded mode refuses only what truly cannot fit).
        with self._flock:
            self._owners.pop(request.request_id, None)
            if route.ranked:
                self._stats.rejected += 1
                status, detail = (
                    DecisionStatus.REJECTED,
                    f"all {len(candidates)} candidate shard(s) declined",
                )
            elif down and any(
                reliability.refusal_reason(
                    demand, self._shards[sid].state, target
                )
                is None
                for sid in down
            ):
                self._stats.unavailable += 1
                status, detail = (
                    DecisionStatus.SHARD_UNAVAILABLE,
                    f"only dead shard(s) {sorted(down)} could serve this "
                    "demand; retry after recovery",
                )
            else:
                self._stats.refused += 1
                status, detail = (
                    DecisionStatus.REFUSED,
                    (
                        "no shard can satisfy the survivability target "
                        "within its maximum capacity"
                        if target is not None
                        else "demand exceeds the maximum capacity of every shard"
                    ),
                )
        ticket._resolve(
            PlacementDecision(
                request_id=request.request_id, status=status, detail=detail
            )
        )

    def _admit(
        self,
        request: PlaceRequest,
        ticket: Ticket,
        candidates,
        copies: int,
        arrival: float,
    ) -> bool:
        """Admit *request* on up to *copies* of *candidates*, best first.

        ``copies=1`` is plain spillover; more races copies on the top
        shards. Every copy shares one attempt token, so the whole group is
        fenced as a unit: the first *placed* decision wins in
        :meth:`_decision_callback` (which cancels or releases the losers),
        and a failover re-route invalidates all copies at once. The owner
        map points at the first admitted copy until a winner commits.
        Returns ``True`` when a copy was admitted (or a concurrent failover
        took the request over), ``False`` when every candidate declined at
        the door — the caller resolves the terminal outcome. *arrival*
        (``time.monotonic()``) is when the request first arrived at the
        fabric: a shard queues it from then, not from now.
        """
        rid = request.request_id
        attempt = None
        admitted: "list[int]" = []
        for shard_id in candidates:
            if len(admitted) >= copies:
                break
            shard = self._shards[shard_id]
            # Register *before* handing the request to the shard: a worker
            # that dies mid-admission is scanned by mark_shard_down, which
            # must see this request to re-route it.
            with self._flock:
                if shard_id in self._down:
                    continue
                if attempt is None:
                    self._attempts += 1
                    attempt = self._attempts
                entry = self._inflight.get(rid)
                if admitted and entry is None:
                    # A copy already won (or lost terminally) while we were
                    # still fanning out — don't resurrect the group.
                    return True
                if entry is not None and entry[2] != attempt:
                    return True  # concurrent failover took the request over
                self._inflight[rid] = (
                    request, ticket, attempt,
                    frozenset((*admitted, shard_id)), arrival,
                )
                if not admitted:
                    self._owners[rid] = shard_id
            if not shard.backend.submit(
                request,
                attempt,
                self._decision_callback(shard, rid, ticket, attempt),
                arrival=arrival,
            ):
                # Declined at the door (queue full, draining, duplicate,
                # dead worker) — drop this copy from the group and try the
                # next-best shard, unless a concurrent failover already
                # took the request over.
                with self._flock:
                    entry = self._inflight.get(rid)
                    if entry is None or entry[2] != attempt:
                        return True
                    members = frozenset(s for s in entry[3] if s != shard_id)
                    if members:
                        self._inflight[rid] = (
                            request, ticket, attempt, members, arrival,
                        )
                    else:
                        del self._inflight[rid]
                        self._owners[rid] = _ROUTING
                    if not admitted:
                        self._stats.spillovers += 1
                self._mc_rejected[shard_id].inc()
                self._mc_spill[shard_id].inc()
                continue
            admitted.append(shard_id)
            self._mc_admitted[shard_id].inc()
            self._mc_queue[shard_id].set(shard.backend.backlog_hint)
        if len(admitted) > 1:
            with self._flock:
                self._stats.speculations += 1
        return bool(admitted)

    def _decision_callback(
        self, shard: Shard, request_id: int, outer: Ticket, attempt: int
    ):
        service = shard.service

        def callback(decision: PlacementDecision) -> None:
            translated = shard.translate(decision)
            stale_release = False
            resolve = False
            cancels: "tuple[int, ...]" = ()
            with self._flock:
                entry = self._inflight.get(request_id)
                if entry is None or entry[2] != attempt:
                    # Stale: a failover re-routed this request, or another
                    # speculative copy already won the group. A *placement*
                    # decided by a fenced copy on a live shard would leak
                    # capacity there — release it straight on the shard's
                    # backend (the fabric owner map points at the winner,
                    # so fabric-level release would refuse). Dead shards
                    # keep the old behavior: their state is abandoned and
                    # rebuilt from the checkpoint, so the decision is void —
                    # as is one a since-restored shard's old service made.
                    if (
                        translated.placed
                        and shard.shard_id not in self._down
                        and shard.service is service
                    ):
                        stale_release = True
                        self._stats.spec_released += 1
                else:
                    request, ticket, _token, members, arrival = entry
                    if translated.placed:
                        del self._inflight[request_id]
                        self._owners[request_id] = shard.shard_id
                        self._stats.placed += 1
                        self._stats.total_distance += translated.distance
                        cancels = tuple(
                            s for s in members
                            if s != shard.shard_id and s not in self._down
                        )
                        resolve = True
                    else:
                        members = frozenset(
                            s for s in members if s != shard.shard_id
                        )
                        if members:
                            # Other speculative copies are still racing —
                            # absorb this copy's non-placement and wait.
                            self._inflight[request_id] = (
                                request, ticket, attempt, members, arrival,
                            )
                            if self._owners.get(request_id) == shard.shard_id:
                                self._owners[request_id] = min(members)
                        else:
                            del self._inflight[request_id]
                            self._owners.pop(request_id, None)
                            resolve = True
                            if translated.status == DecisionStatus.REJECTED:
                                self._stats.rejected += 1
                            elif translated.status == DecisionStatus.TIMEOUT:
                                self._stats.timed_out += 1
                            elif translated.status == DecisionStatus.DROPPED:
                                self._stats.dropped += 1
                            elif translated.status == DecisionStatus.CANCELLED:
                                self._stats.cancelled += 1
                            elif translated.status == DecisionStatus.REFUSED:
                                self._stats.refused += 1
                            elif (
                                translated.status
                                == DecisionStatus.SHARD_UNAVAILABLE
                            ):
                                self._stats.unavailable += 1
            if stale_release:
                try:
                    shard.backend.release(
                        ReleaseRequest(request_id=request_id)
                    )
                except ReproError:  # racing a shard death; nothing to free
                    pass
                return
            for sid in cancels:
                # Loser copies still queued elsewhere: withdraw them. A
                # copy that slips past the cancel (already being placed)
                # resolves later as stale and is released above.
                self._shards[sid].backend.cancel(request_id)
            if resolve:
                outer._resolve(translated)

        return callback

    def release(self, request: ReleaseRequest) -> ReleaseResponse:
        """Free the lease held by ``request.request_id``, wherever it lives.

        A lease on a dead shard answers ``shard_unavailable`` without
        touching the dead worker: mutating its abandoned state would be
        silently undone by the checkpoint restore (lease resurrection).

        The owner is read and the lock dropped before the shard is asked,
        so a rebalance move in between makes the old shard answer
        ``unknown_lease`` for a live lease. The owner map is then re-read
        and the lease followed; every further try needs another move to have
        happened, and the tries are bounded by the shard count.
        """
        asked = response = None
        for _ in range(len(self._shards) + 1):
            with self._flock:
                shard_id = self._owners.get(request.request_id)
                if shard_id is not None and shard_id in self._down:
                    self._stats.unavailable += 1
                    return ReleaseResponse(
                        request_id=request.request_id,
                        status=DecisionStatus.SHARD_UNAVAILABLE,
                    )
            if shard_id is None or shard_id == _ROUTING or shard_id == asked:
                break
            response = self._shards[shard_id].backend.release(request)
            if response.status != DecisionStatus.UNKNOWN_LEASE:
                break
            asked = shard_id
        if response is None:
            return ReleaseResponse(
                request_id=request.request_id,
                status=DecisionStatus.UNKNOWN_LEASE,
            )
        if response.released:
            with self._flock:
                self._owners.pop(request.request_id, None)
                self._stats.released += 1
        return response

    def cancel(self, request_id: int) -> bool:
        """Withdraw a still-queued request from its shard."""
        with self._flock:
            shard_id = self._owners.get(request_id)
            if shard_id is not None and shard_id in self._down:
                return False
        if shard_id is None or shard_id == _ROUTING:
            return False
        return self._shards[shard_id].backend.cancel(request_id)

    # ------------------------------------------------------------- failover

    def mark_shard_down(self, shard_id: int, *, reason: str = "") -> list[int]:
        """Quarantine a dead shard worker and re-route its in-flight requests.

        Quarantines the shard's backend (an in-process service is fenced —
        new submissions bounce, the scheduler loop no longer steps it; a
        child process is SIGKILLed: a quarantined worker must never commit
        further state, or restore-from-checkpoint would fork the ledger),
        removes the shard from routing, and re-dispatches every in-flight
        request that was waiting on it through the surviving shards'
        spillover path; each keeps its arrival, so its ``max_wait``
        deadline, its reported latency and its new shard's batching window
        count from when the fabric first received it. Leases the dead shard
        *holds* stay in the owner map (answering ``shard_unavailable``)
        until :meth:`restore_shard` re-adopts them from the replicated
        checkpoint.

        Deliberately takes no dead-worker lock: a crashed or wedged worker
        thread may hold its service lock forever. Returns the re-routed
        request ids. Idempotent — marking a shard that is already down
        returns ``[]``.
        """
        if not 0 <= shard_id < len(self._shards):
            raise ValidationError(f"no shard {shard_id} to mark down")
        self._shards[shard_id].backend.quarantine()
        with self._flock:
            if shard_id in self._down:
                return []
            self._down.add(shard_id)
            self._stats.shard_deaths += 1
            victims = []
            orphaned = []
            for rid, entry in self._inflight.items():
                if self._owners.get(rid) == shard_id:
                    victims.append((rid, entry))
                elif shard_id in entry[3]:
                    # A speculative copy lived on the dead shard but the
                    # group's primary is elsewhere: drop the dead copy from
                    # the group so the survivors' outcomes stay decisive
                    # (a group must never wait on a shard that will not
                    # answer).
                    orphaned.append((rid, entry))
            for rid, _ in victims:
                del self._inflight[rid]
                self._owners[rid] = _ROUTING
            for rid, (request, ticket, attempt, members, arrival) in orphaned:
                self._inflight[rid] = (
                    request, ticket, attempt, members - {shard_id}, arrival,
                )
            self._stats.failovers += len(victims)
            down = frozenset(self._down)
        self._m_failovers.labels(shard=str(shard_id)).inc()
        _log.warning(
            "shard %d marked down (%s): re-routing %d in-flight request(s)",
            shard_id, reason or "unspecified", len(victims),
        )
        for rid, (_request, _ticket, _attempt, members, _arrival) in victims:
            # Withdraw the victims' still-queued speculative copies on live
            # shards before re-routing: the re-route carries a new attempt
            # token, so any copy that outruns the cancel resolves as stale
            # (and is released if it had placed).
            for sid in members:
                if sid != shard_id and sid not in down:
                    self._shards[sid].backend.cancel(rid)
        for rid, (request, ticket, _attempt, _members, arrival) in sorted(
            victims
        ):
            self._dispatch(request, ticket, failover=True, arrival=arrival)
        return [rid for rid, _ in sorted(victims)]

    def restore_shard(self, shard_id: int, payload: bytes) -> ClusterState:
        """Bring a dead shard back from its replicated checkpoint *payload*.

        The payload must re-serialize byte-identically (a torn copy is
        never adopted) and match the shard's partition of the pool. The
        backend then brings up a fresh service on it, the router is
        repointed, the owner map re-adopts the restored leases, and the
        shard rejoins routing. Leases the checkpoint does not contain but
        the owner map attributed to this shard (decided after the last
        replication — a window the write-ahead hook keeps empty) are dropped
        from the owner map. Returns the restored state.
        """
        if not 0 <= shard_id < len(self._shards):
            raise ValidationError(f"no shard {shard_id} to restore")
        with self._flock:
            if shard_id not in self._down:
                raise ValidationError(
                    f"shard {shard_id} is not down; refusing to restore over "
                    "a live worker"
                )
        shard = self._shards[shard_id]
        state = state_from_checkpoint(json.loads(payload))
        if checkpoint_bytes(state).encode("utf-8") != payload:
            raise ValidationError(
                f"replicated checkpoint for shard {shard_id} does not "
                "round-trip to its payload"
            )
        shard.check_partition(state)
        shard.backend.restore(payload, state)
        self._router.replace_state(shard_id, shard.state)
        restored_leases = set(state.leases)
        with self._flock:
            stale = [
                rid
                for rid, sid in self._owners.items()
                if sid == shard_id and rid not in restored_leases
            ]
            for rid in stale:
                del self._owners[rid]
            conflicts = []
            for rid in restored_leases:
                other = self._owners.get(rid)
                if other is not None and other not in (shard_id, _ROUTING):
                    conflicts.append((rid, other))
                else:
                    self._owners[rid] = shard_id
        for rid, other in conflicts:
            # The lease was re-routed to a survivor while this shard was
            # down (possible only for pre-replication decisions); the
            # survivor's copy wins, the restored one is freed.
            _log.warning(
                "restored shard %d lease %d now lives on shard %d; "
                "dropping the restored copy", shard_id, rid, other,
            )
            shard.backend.release(ReleaseRequest(request_id=rid))
        with self._flock:
            self._down.discard(shard_id)
            self._stats.shard_restores += 1
            started = self._started
        if stale:
            _log.warning(
                "restored shard %d lost %d post-checkpoint lease(s): %s",
                shard_id, len(stale), stale,
            )
        if started:
            self._serve([shard])
        self._refresh_gauges()
        return shard.state

    @property
    def down_shards(self) -> frozenset:
        """Ids of shards currently quarantined by :meth:`mark_shard_down`."""
        with self._flock:
            return frozenset(self._down)

    def _live_shards(self) -> "list[Shard]":
        down = self.down_shards
        return [s for s in self._shards if s.shard_id not in down]

    def _local_services(self) -> "list[PlacementService]":
        """The live in-process shards' services: what the scheduler steps."""
        return [s.service for s in self._live_shards() if s.service is not None]

    # ---------------------------------------------------------- scheduling

    def step_all(self, now: "float | None" = None) -> list[PlacementDecision]:
        """Run one scheduler cycle on every shard (deterministic driver).

        Returns the union of shard decisions, translated to global node
        ids, in shard-id order.
        """
        decisions: list[PlacementDecision] = []
        for shard in self._live_shards():
            decisions.extend(
                shard.translate(d) for d in shard.backend.step(now)
            )
        self._refresh_gauges()
        return decisions

    def _refresh_gauges(self) -> None:
        # Lock-free reads only: a shard stuck in its step holds its lock.
        for shard in self._live_shards():
            label = str(shard.shard_id)
            self._m_shard_queue.labels(shard=label).set(shard.backend.backlog_hint)
            self._m_shard_leases.labels(shard=label).set(shard.state.num_leases)
            self._m_shard_util.labels(shard=label).set(shard.state.utilization)

    # ----------------------------------------------------------- lifecycle

    @property
    def running(self) -> bool:
        live = self._live_shards()
        return bool(live) and all(s.backend.running for s in live)

    def start(self) -> None:
        """Start serving on every live shard (idempotent): the scheduler
        thread for in-process shards, each child's own loop otherwise."""
        with self._flock:
            self._started = True
        self._serve(self._live_shards())

    def _serve(self, shards) -> None:
        """Start *shards*' backends, in-process ones under the scheduler
        loop (made here when none exists)."""
        with self._flock:
            if self._scheduler is None:
                self._scheduler = SchedulerLoop(
                    self._local_services,
                    batch_window=self.config.service.batch_window,
                    name="fabric-scheduler",
                    after_steps=self._after_steps,
                )
            scheduler = self._scheduler
        for shard in shards:
            if shard.service is not None:
                shard.service.scheduler = scheduler
            shard.backend.start()

    def revive_scheduler(
        self, stalled_after: float
    ) -> "tuple[int, list[int]] | None":
        """Replace the scheduler loop if its turn has been stuck for more
        than *stalled_after* seconds.

        In-process shards share one loop, so a step or hook that blocks
        stalls every shard (and their heartbeats). The shard it is stuck in
        holds its own lock, so it is marked down first — its in-flight
        requests re-route as on any failover — and a fresh loop then takes
        over the live shards; the old thread exits once the blocked call
        returns. A loop stuck outside any live shard (in a migration trial,
        which holds two shards' locks) is replaced all the same. Returns
        ``(shard id, re-routed request ids)`` for the shard marked down,
        else ``None``.
        """
        with self._flock:
            stuck = self._scheduler
            if stuck is None or not stuck.stalled(stalled_after):
                return None
            self._scheduler = None
            started = self._started
        _log.warning(
            "fabric scheduler turn stuck for over %.3gs; a fresh loop takes "
            "over the live shards", stalled_after,
        )
        stuck.stop(timeout=0.0)
        marked = None
        for shard in self._live_shards():
            if shard.service is not None and shard.service is stuck.busy_with:
                marked = shard.shard_id, self.mark_shard_down(
                    shard.shard_id, reason="its step or hook stalled the scheduler"
                )
        if started:
            self._serve(self._live_shards())
        return marked

    def stop(self) -> None:
        """Halt the scheduler and every live shard loop; queues are untouched."""
        self._stop_scheduler()
        live = self._live_shards()
        with self._flock:
            self._started = False
        for shard in live:
            shard.backend.stop()

    def _stop_scheduler(self) -> None:
        with self._flock:
            scheduler, self._scheduler = self._scheduler, None
        if scheduler is not None:
            scheduler.stop()  # each service's stop() then detaches from it
        # An unfinished background sweep is dropped, not resumed: each
        # applied migration was already committed and counted. No sweep lock:
        # the loop has stopped, and one abandoned in a trial may keep it.
        self._sweep = self._sweep_due = None

    def drain(self, timeout: float = 5.0) -> list[PlacementDecision]:
        """Gracefully drain every live shard; returns the translated decisions."""
        self._stop_scheduler()
        live = self._live_shards()
        with self._flock:
            self._started = False
        decisions: list[PlacementDecision] = []
        for shard in live:
            decisions.extend(
                shard.translate(d) for d in shard.backend.drain(timeout)
            )
        self._refresh_gauges()
        return decisions

    def shutdown(self, timeout: float = 5.0) -> "dict[int, int | None]":
        """Stop for good: the scheduler, then every shard's backend.

        The backends close side by side: out-of-process shards are drained
        and their children reaped together. Returns
        the child exit code of every such shard (``None`` for one that could
        not be reaped; nothing for shards that run in this process), for the
        CLI's exit-code propagation. Idempotent.
        """
        self._stop_scheduler()
        with self._flock:
            self._started = False
        codes = _on_every_shard(
            self._shards, lambda shard: shard.backend.close(timeout)
        )
        return {
            shard_id: code
            for shard_id, code in codes.items()
            if self._shards[shard_id].backend.handle is not None
        }

    # ----------------------------------------------------------- rebalance

    def rebalance(self) -> RebalanceReport:
        """One full migration sweep across shard boundaries (synchronous).

        Takes the worst-distance leases (up to ``rebalance_candidates`` per
        live shard) and, worst first, re-places each into the shard the
        router now prefers when that strictly improves its distance.
        Two-phase: *reserve* the new allocation in the target shard, then
        *commit* by releasing the source lease and flipping the owner; a
        failed reserve aborts with the source untouched.

        This runs the same slices the scheduler loop advances one per turn
        for the background sweep, all at once. A move mutates two shards'
        states in one transaction, so every shard's service must run in
        this process.
        """
        if not self._in_process:
            raise ValidationError(
                "cross-shard rebalancing is not supported out-of-process"
            )
        with self._rebalance_lock, self.timer.phase("rebalance"):
            report = RebalanceReport(candidates=0, migrations=0, gain=0.0)
            for report in self._migrations():
                pass
        self._refresh_gauges()
        return report

    def _after_steps(self, now: float) -> float:
        """The scheduler loop's turn end: hand stranded requests back to
        the router, then take the rebalance sweep's turn; returns the
        seconds until the loop must turn again."""
        self._hand_back()
        if self.config.rebalance_interval is None:
            return float("inf")
        return self._sweep_turn(now)

    def _hand_back(self) -> None:
        """Move queued requests off shards that cannot place them now.

        The router scores committed state, so a burst that arrives faster
        than the scheduler steps piles onto the shards that looked best,
        and what does not fit would wait there for releases while other
        shards have room. Each such stranded request that another live
        shard can hold now is withdrawn from its shard, undecided, and
        admitted by the best of those shards (their free capacity counted
        down as the pass hands requests to them); its ticket, owner entry
        and a fresh attempt token go with it, as on failover, and it keeps
        its arrival time, so its ``max_wait``, its reported latency and
        the batching window still count from then. Speculating
        requests are left to their copies. The pass runs again only after
        some live shard's state changed, since nothing else can free room.
        """
        live = [s for s in self._live_shards() if s.service is not None]
        if not any(s.service.backlog_hint for s in live):
            return
        seen = tuple((s.shard_id, s.state.version) for s in live)
        if seen == self._handed_back_at:
            return
        self._handed_back_at = seen
        room = {s.shard_id: s.state.available for s in live}
        everyone = frozenset(range(len(self._shards)))
        for source in live:
            if not source.service.backlog_hint:
                continue
            sid = source.shard_id
            for rid, demand in source.service.stranded():
                fits = frozenset(
                    other for other, free in room.items()
                    if other != sid and (demand <= free).all()
                )
                if not fits:
                    continue
                with self._flock:
                    entry = self._inflight.get(rid)
                if entry is None or entry[3] != {sid}:
                    continue
                request, ticket = entry[0], entry[1]
                # The source stays in as a waitable last resort, should every
                # shard with room decline at the door.
                route = self._router.route(
                    demand,
                    exclude=everyone - fits - {sid},
                    target=request.survivability,
                )
                if not route.ranked or route.ranked[0] == sid:
                    continue
                arrival = source.service.withdraw(rid)
                if arrival is None:
                    continue
                with self._flock:
                    if self._inflight.get(rid) is not entry:
                        continue  # a failover re-routed it meanwhile
                    del self._inflight[rid]
                    self._owners[rid] = _ROUTING
                    self._stats.handbacks += 1
                room[route.ranked[0]] = room[route.ranked[0]] - demand
                if not self._admit(request, ticket, route.ranked, 1, arrival):
                    self._dispatch(
                        request, ticket, failover=True, arrival=arrival
                    )

    def _sweep_turn(self, now: float) -> float:
        """The rebalance sweep's turn: start a due sweep, advance it by one
        candidate, and return the seconds until the next turn is needed
        (``0`` while the sweep has candidates left)."""
        interval = self.config.rebalance_interval
        if self._sweep is None:
            if self._sweep_due is None:
                self._sweep_due = now + interval
            if now < self._sweep_due:
                return self._sweep_due - now
        if not self._rebalance_lock.acquire(blocking=False):
            return interval  # an operator sweep holds it; it does the work
        try:
            if self._sweep is None:
                self._sweep = self._migrations()
            if next(self._sweep, None) is not None:
                return 0.0
            self._sweep, self._sweep_due = None, now + interval
        finally:
            self._rebalance_lock.release()
        self._refresh_gauges()
        return interval

    def _migrations(self):
        """A fresh sweep, one candidate per ``next()``; yields the report
        so far after each."""
        candidates = self._rebalance_candidates()
        report = RebalanceReport(candidates=len(candidates), migrations=0, gain=0.0)
        for shard_id, request_id in candidates:
            moved = self._try_migration(shard_id, request_id)
            if moved > 0:
                report = replace(
                    report, migrations=report.migrations + 1, gain=report.gain + moved
                )
                self._mc_migrated.inc()
                self._m_rebalance_gain.observe(moved)
            yield report

    def _rebalance_candidates(self) -> "list[tuple[int, int]]":
        """``(shard, request id)`` of up to ``rebalance_candidates``
        worst-distance leases per live shard, worst first over all shards
        (ties by request id, then shard); leases at distance 0 cannot gain."""
        out: "list[tuple[float, int, int]]" = []
        for shard in self._live_shards():
            with shard.service._lock:
                leases = shard.state.leases
            ranked = sorted(
                leases.items(), key=lambda kv: (-kv[1].distance, kv[0])
            )
            out.extend(
                (alloc.distance, rid, shard.shard_id)
                for rid, alloc in ranked[: self.config.rebalance_candidates]
                if alloc.distance > 0
            )
        out.sort(key=lambda c: (-c[0], c[1], c[2]))
        return [(shard_id, rid) for _distance, rid, shard_id in out]

    @contextlib.contextmanager
    def _shard_locks(self, *shard_ids: int):
        """Acquire the named shards' backend locks in ascending id order."""
        ordered = sorted(set(shard_ids))
        with contextlib.ExitStack() as stack:
            for shard_id in ordered:
                stack.enter_context(self._shards[shard_id].backend.lock)
            yield

    def _try_migration(self, source_id: int, request_id: int) -> float:
        """Move one lease to the router's preferred shard; returns the gain."""
        down = self.down_shards
        if source_id in down:
            return 0.0
        source = self._shards[source_id]
        with source.service._lock:
            allocation = source.state.lease(request_id)
            lease_target = source.state.lease_target(request_id)
        if allocation is None:
            return 0.0
        demand = allocation.demand
        route = self._router.route(demand, exclude=down, target=lease_target)
        if not route.ranked or route.ranked[0] == source_id:
            return 0.0
        target_id = route.ranked[0]
        target = self._shards[target_id]
        with self._shard_locks(source_id, target_id):
            allocation = source.state.lease(request_id)
            if allocation is None:  # released while we were routing
                return 0.0
            policy = target.service.policy
            bound = (
                self._router.exact_estimate_dc(target_id, target.state, demand)
                if _draws_nothing(policy)
                else None
            )
            if (
                bound is not None
                and allocation.distance - bound <= self.config.rebalance_min_gain
            ):
                # No trial in the target could gain more, and skipping it
                # leaves the policy as placing would have: it draws nothing.
                self._m_migrations_pruned.inc()
                return 0.0
            lease_target = source.state.lease_target(request_id)
            request = VirtualClusterRequest(
                demand=[int(d) for d in demand],
                request_id=request_id,
                survivability=lease_target,
            )
            trial = policy.place(
                target.state, request, obs=self.obs
            ).allocation
            if trial is None:
                return 0.0
            gain = allocation.distance - trial.distance
            if gain <= self.config.rebalance_min_gain:
                return 0.0
            # Reserve in the target, then commit by freeing the source.
            target.state.allocate_lease(
                request_id, trial, survivability=lease_target
            )
            source.state.release_lease(request_id)
            with self._flock:
                self._owners[request_id] = target_id
                self._stats.rebalance_migrations += 1
                self._stats.rebalance_gain += gain
        # Capacity moved under both shards' queues.
        target.service.wake()
        source.service.notify_commit()
        target.service.notify_commit()
        return gain

    # -------------------------------------------------------- introspection

    def describe_shards(self) -> list[dict]:
        """JSON-ready per-shard summary (the transport's ``shards`` op)."""
        return [
            {
                "shard": shard.shard_id,
                "racks": [int(r) for r in shard.racks],
                "nodes": shard.num_nodes,
                "leases": shard.state.num_leases,
                "queued": shard.backend.queued,
                "utilization": shard.state.utilization,
            }
            for shard in self._shards
        ]

    def global_allocated(self) -> np.ndarray:
        """The union allocation matrix over the global node index space."""
        total = np.zeros((self._pool.num_nodes, self._pool.num_types), dtype=np.int64)
        for shard in self._shards:
            total[shard.to_global] += shard.state.allocated
        return total

    def verify_consistency(self) -> None:
        """Assert the shard union reconstructs the global pool exactly.

        Checks: the shard node sets partition the pool, every live shard's
        capacity matrix is the global one restricted to its nodes, every
        live shard state passes its backend's verification (incremental
        aggregates; for an out-of-process shard also mirror bytes ≡ the
        worker's state, so call this at quiescent points — a mirror is
        allowed to lag while records are in flight), the union allocation
        respects global capacity, no lease owner points at an unregistered
        or dead shard, and the owner map and shard ledgers agree
        bidirectionally.

        Only *live* shards are locked — a crashed worker may hold its
        service lock forever — so full verification demands a healthy
        fabric: any owner entry stranded on a dead shard raises, which is
        exactly the invariant failover recovery must restore.
        """
        seen = np.zeros(self._pool.num_nodes, dtype=bool)
        for shard in self._shards:
            if bool(seen[shard.to_global].any()):
                raise ValidationError(
                    f"shard {shard.shard_id} overlaps another shard's nodes"
                )
            seen[shard.to_global] = True
        if not bool(seen.all()):
            raise ValidationError("shard node sets do not cover the pool")
        down = self.down_shards
        live = [s.shard_id for s in self._shards if s.shard_id not in down]
        with self._shard_locks(*live), self._flock:
            total = np.zeros(
                (self._pool.num_nodes, self._pool.num_types), dtype=np.int64
            )
            for shard in self._shards:
                if shard.shard_id in down:
                    continue
                if not np.array_equal(
                    shard.state.max_capacity,
                    self._pool.max_capacity[shard.to_global],
                ):
                    raise ValidationError(
                        f"shard {shard.shard_id} capacity diverged from the pool"
                    )
                shard.backend.verify_state()
                total[shard.to_global] += shard.state.allocated
                for rid in shard.state.leases:
                    if self._owners.get(rid) != shard.shard_id:
                        raise ValidationError(
                            f"lease {rid} in shard {shard.shard_id} has no "
                            "matching owner entry"
                        )
            if bool(np.any(total > self._pool.max_capacity)):
                raise ValidationError("union allocation exceeds pool capacity")
            for rid, shard_id in self._owners.items():
                if shard_id == _ROUTING:
                    continue
                if not 0 <= shard_id < len(self._shards):
                    raise ValidationError(
                        f"owner map points {rid} at unregistered shard "
                        f"{shard_id}"
                    )
                if shard_id in down:
                    raise ValidationError(
                        f"owner map points {rid} at dead shard {shard_id}; "
                        "the lease is stranded until the shard is restored"
                    )
                if not (
                    self._shards[shard_id].state.has_lease(rid)
                    or rid in self._inflight
                ):
                    raise ValidationError(
                        f"owner map points {rid} at shard {shard_id}, which "
                        "neither holds nor is placing it"
                    )

    # ----------------------------------------------------------- checkpoint

    def checkpoint_doc(self) -> dict:
        """Consistent fabric checkpoint: shard states + router manifest.

        Refuses while any shard is down: a dead worker's lock may be
        wedged and its state is stale — restore it first (the supervisor's
        job), then checkpoint the healthy fabric. The same version-1
        ``sharded-fabric`` document whichever backend the shards run on, so
        it restores through :func:`fabric_from_checkpoint` either way.
        """
        down = self.down_shards
        if down:
            raise ValidationError(
                f"cannot checkpoint with dead shard(s) {sorted(down)}; "
                "restore them first"
            )
        started = time.perf_counter()
        with self._rebalance_lock, self._shard_locks(*range(len(self._shards))):
            # The services' own documents, never a mirror's (a mirror may
            # lag the records still in flight).
            shard_docs = [s.backend.checkpoint_doc() for s in self._shards]
        # Read off the same documents: manifest and ledgers cannot disagree.
        owners = sorted(
            (int(lease["request_id"]), sid)
            for sid, shard_doc in enumerate(shard_docs)
            for lease in shard_doc["leases"]
        )
        doc = {
            "version": FABRIC_CHECKPOINT_VERSION,
            "kind": "sharded-fabric",
            "plan": {
                "name": self.assignment.plan_name,
                "racks": [list(group) for group in self.assignment.racks],
            },
            "spillover": self.config.spillover,
            "catalog": catalog_to_dict(self._pool.catalog),
            "pool": pool_to_dict(self._pool),
            "owners": [[rid, sid] for rid, sid in owners],
            "shards": shard_docs,
        }
        self._m_checkpoint.observe(time.perf_counter() - started)
        return doc

    def checkpoint_bytes(self) -> str:
        """The canonical serialized form (byte-identical round trip)."""
        return json.dumps(self.checkpoint_doc(), indent=1)

    def __repr__(self) -> str:
        return (
            f"ShardedPlacementFabric(shards={self.num_shards}, "
            f"nodes={self.num_nodes}, queued={self.queued}, "
            f"running={self.running})"
        )


# ------------------------------------------------------------------ restore

def fabric_from_checkpoint(
    doc: dict,
    *,
    policy_factory=None,
    config: "FabricConfig | None" = None,
    obs=None,
) -> ShardedPlacementFabric:
    """Rebuild a fabric from :meth:`ShardedPlacementFabric.checkpoint_doc`.

    The rack assignment is replayed exactly; each shard's state is restored
    from its embedded checkpoint and the owner map re-adopted, so the
    restored fabric serves (and re-checkpoints) identically to the original.
    ``config.spillover`` defaults to the checkpointed value when *config* is
    omitted.
    """
    version = doc.get("version")
    if version != FABRIC_CHECKPOINT_VERSION or doc.get("kind") != "sharded-fabric":
        raise ValidationError(
            f"unsupported fabric checkpoint (version={version!r}, "
            f"kind={doc.get('kind')!r})"
        )
    catalog = catalog_from_dict(doc["catalog"])
    pool = pool_from_dict(doc["pool"], catalog)
    assignment = assignment_from_racks(
        doc["plan"]["name"],
        pool.topology,
        [list(group) for group in doc["plan"]["racks"]],
    )
    if config is None:
        config = FabricConfig(spillover=bool(doc.get("spillover", True)))
    fabric = ShardedPlacementFabric(
        pool,
        plan=assignment,
        policy_factory=policy_factory,
        config=config,
        obs=obs,
    )
    shard_docs = doc["shards"]
    if len(shard_docs) != fabric.num_shards:
        raise ValidationError(
            f"checkpoint has {len(shard_docs)} shard(s) for a "
            f"{fabric.num_shards}-shard plan"
        )
    for shard, shard_doc in zip(fabric.shards, shard_docs):
        restored = state_from_checkpoint(shard_doc)
        shard.check_partition(restored)
        shard.service.state = restored
    fabric._router = ShardRouter([s.state for s in fabric.shards])
    fabric._owners = {
        int(rid): int(sid) for rid, sid in doc.get("owners", [])
    }
    fabric.verify_consistency()
    fabric._refresh_gauges()
    return fabric


def save_fabric_checkpoint(path: "str | Path", fabric: ShardedPlacementFabric) -> None:
    """Write *fabric*'s checkpoint to *path*."""
    Path(path).write_text(fabric.checkpoint_bytes())


def load_fabric_checkpoint(
    path: "str | Path",
    *,
    policy_factory=None,
    config: "FabricConfig | None" = None,
    obs=None,
) -> ShardedPlacementFabric:
    """Read a checkpoint written by :func:`save_fabric_checkpoint`."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"not a valid fabric checkpoint file: {exc}") from exc
    return fabric_from_checkpoint(
        doc, policy_factory=policy_factory, config=config, obs=obs
    )
