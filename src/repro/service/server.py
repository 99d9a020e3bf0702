"""The placement service: a long-lived allocator daemon.

:class:`PlacementService` wraps a :class:`~repro.service.state.ClusterState`
behind the serving loop the paper's online setting implies:

* **Admission control** — requests whose demand exceeds maximum pool capacity
  are refused outright (the paper's "refuse" outcome); when the bounded wait
  queue is full, arrivals are rejected with backpressure instead of queueing
  unboundedly.
* **Batching window** — the scheduler loop lets concurrent arrivals
  coalesce for ``batch_window`` seconds, then runs one
  :meth:`PlacementService.step`. The window runs from the earliest arrival
  no step has taken; a turn without one (a release woke the loop, or only
  requests an earlier step left queued wait) waits the full window. The
  step places the jointly satisfiable batch (the paper's ``getRequests``)
  sequentially with Algorithm 1, and batches of two or more allocations
  go through Algorithm 2's pairwise Theorem-2 transfer phase. Transfers are
  applied only when they strictly shrink the summed distance, so batching
  never does worse than per-request placement.
* **Graceful drain** — :meth:`drain` stops admission, keeps stepping until
  the queue empties or a deadline passes, and resolves whatever remains as
  ``dropped`` so no caller is left hanging.

The scheduler is exposed both as an explicit :meth:`step` (deterministic,
used by tests and benchmarks) and as a background thread
(:meth:`start`/:meth:`stop`) for live serving; both run the same code path.
The thread is a :class:`SchedulerLoop`: one over this service when it serves
alone (``repro serve``, a proc shard worker), or one over every shard of an
in-process sharded fabric, which ends each turn with its own work (handing
stranded requests back to the router, one slice of the rebalance sweep).
``submit`` and ``release`` wake whichever loop drives the service.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass

from repro.cloud.queue import QueueDiscipline, RequestQueue
from repro.cloud.request import TimedRequest
from repro.core import reliability
from repro.core.placement.greedy import OnlineHeuristic
from repro.core.placement.transfer import transfer_pair
from repro.obs.registry import (
    COUNT_BUCKETS,
    DISTANCE_BUCKETS,
    MetricsRegistry,
    ensure_registry,
)
from repro.service.api import (
    DecisionStatus,
    PlaceRequest,
    PlacementDecision,
    ReleaseRequest,
    ReleaseResponse,
    decision_from_allocation,
)
from repro.service.state import ClusterState
from repro.util.errors import ReproError, ValidationError
from repro.util.timing import PhaseTimer

_log = logging.getLogger(__name__)

#: Longest a scheduler loop parks between turns without a wake-up.
_PARK_S = 0.05

#: Sentinel duration for queue entries — the service learns true holding
#: times only when the client releases, so the queue's duration field is
#: never consulted.
_UNKNOWN_DURATION = 1.0


@dataclass(frozen=True, slots=True)
class ServiceConfig:
    """Tunables for one :class:`PlacementService`.

    ``batch_window`` only affects the background loop: how long it lets
    concurrent arrivals coalesce. The window runs from the earliest arrival
    no step has taken; a turn without one waits the full window.
    ``max_batch`` caps how many requests a single
    :meth:`~PlacementService.step` may place — ``max_batch=1`` degenerates
    to pure per-request Algorithm-1 serving.
    """

    queue_capacity: int = 256
    discipline: str = QueueDiscipline.FIFO
    batch_window: float = 0.005
    max_batch: int = 64
    enable_transfers: bool = True
    max_wait: float | None = None
    transfer_rounds: int = 10

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValidationError("queue_capacity must be >= 1")
        if self.batch_window < 0:
            raise ValidationError("batch_window must be >= 0")
        if self.max_batch < 1:
            raise ValidationError("max_batch must be >= 1")
        if self.max_wait is not None and self.max_wait <= 0:
            raise ValidationError("max_wait must be > 0 when set")
        if self.transfer_rounds < 1:
            raise ValidationError("transfer_rounds must be >= 1")


@dataclass
class ServiceStats:
    """Aggregate serving outcomes since service construction."""

    submitted: int = 0
    placed: int = 0
    refused: int = 0
    rejected: int = 0
    timed_out: int = 0
    dropped: int = 0
    cancelled: int = 0
    released: int = 0
    batches: int = 0
    step_errors: int = 0
    transfer_exchanges: int = 0
    transfer_gain: float = 0.0
    total_distance: float = 0.0

    @property
    def acceptance_rate(self) -> float:
        """Placed fraction of all submissions (0 when nothing submitted)."""
        return self.placed / self.submitted if self.submitted else 0.0

    @property
    def mean_distance(self) -> float:
        """Average committed cluster distance (post-transfer)."""
        return self.total_distance / self.placed if self.placed else 0.0

    def to_dict(self) -> dict:
        """JSON-ready view (for the transport's ``stats`` op)."""
        doc = {name: getattr(self, name) for name in self.__dataclass_fields__}
        doc["acceptance_rate"] = self.acceptance_rate
        doc["mean_distance"] = self.mean_distance
        return doc

    def to_metrics(self, registry) -> None:
        """Export every field through the unified ``repro_stats`` gauge
        (``source="service"``); see docs/OBSERVABILITY.md for the mapping."""
        gauge = registry.gauge(
            "repro_stats",
            "Unified stats-object export; one series per source and field.",
            labels=("source", "field"),
        )
        for field, value in self.to_dict().items():
            gauge.labels(source="service", field=field).set(float(value))


class Ticket:
    """Handle for one in-flight placement request.

    The service resolves the ticket exactly once with a terminal
    :class:`~repro.service.api.PlacementDecision`; :meth:`result` blocks
    until then.
    """

    __slots__ = ("request_id", "_event", "_decision", "_callbacks", "_cb_lock")

    def __init__(self, request_id: int) -> None:
        self.request_id = request_id
        self._event = threading.Event()
        self._decision: PlacementDecision | None = None
        self._callbacks: list = []
        self._cb_lock = threading.Lock()

    def _resolve(self, decision: PlacementDecision) -> bool:
        """Resolve once; later calls are ignored (first resolution wins).

        Failover can race a dying shard's late decision against the
        fabric's re-routed one — whichever resolves first is the answer
        the caller already saw, so the loser must be dropped, not applied.
        Returns whether *this* call won.
        """
        with self._cb_lock:
            if self._event.is_set():
                return False
            self._decision = decision
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(decision)
        return True

    def add_done_callback(self, callback) -> None:
        """Run ``callback(decision)`` on resolution (immediately if done)."""
        with self._cb_lock:
            if not self._event.is_set():
                self._callbacks.append(callback)
                return
        callback(self._decision)

    @property
    def done(self) -> bool:
        return self._event.is_set()

    @property
    def decision(self) -> PlacementDecision | None:
        """The terminal decision, or ``None`` while still pending."""
        return self._decision

    def result(self, timeout: float | None = None) -> PlacementDecision | None:
        """Wait for the decision; ``None`` if *timeout* expires first."""
        if self._event.wait(timeout):
            return self._decision
        return None


class PlacementService:
    """Long-lived online placement daemon over a :class:`ClusterState`.

    Parameters
    ----------
    state:
        The incremental allocator state (owned by the service).
    policy:
        Single-request placement algorithm (default: Algorithm 1 with
        ``stop="best"``).
    config:
        Serving tunables; see :class:`ServiceConfig`.
    """

    def __init__(
        self,
        state: ClusterState,
        *,
        policy: OnlineHeuristic | None = None,
        config: ServiceConfig | None = None,
        obs: "MetricsRegistry | None" = None,
    ) -> None:
        self.state = state
        self.policy = policy or OnlineHeuristic()
        self.config = config or ServiceConfig()
        self.stats = ServiceStats()
        # Observability: all instruments come from one registry (the shared
        # null registry when obs is None — every recording below is then a
        # no-op and the serving path is unchanged).
        self.obs = ensure_registry(obs)
        self._m_queue_depth = self.obs.gauge(
            "repro_service_queue_depth", "Requests currently waiting in the queue."
        )
        admissions = self.obs.counter(
            "repro_service_admissions_total",
            "Admission-control outcomes at submit time.",
            labels=("outcome",),
        )
        decisions = self.obs.counter(
            "repro_service_decisions_total",
            "Terminal decisions by status.",
            labels=("status",),
        )
        # Label cells resolved once: ``labels()`` builds a key tuple and
        # probes the family map on every call, and these are a small fixed
        # set for the service's lifetime (see docs/PERF.md, lock audit).
        self._mc_admissions = {
            outcome: admissions.labels(outcome=outcome)
            for outcome in ("admitted", "refused", "rejected_draining",
                            "rejected_duplicate", "rejected_queue_full")
        }
        S = DecisionStatus
        self._mc_decisions = {
            status: decisions.labels(status=status)
            for status in (S.PLACED, S.REFUSED, S.REJECTED, S.TIMEOUT,
                           S.DROPPED, S.CANCELLED, S.RELEASED)
        }
        self._m_wait = self.obs.histogram(
            "repro_service_wait_seconds",
            "Submit-to-decision latency of placed requests.",
        )
        self._m_step = self.obs.histogram(
            "repro_service_step_seconds", "Wall seconds per scheduler step."
        )
        self._m_batch = self.obs.histogram(
            "repro_service_batch_requests",
            "Requests admitted per scheduling batch.",
            buckets=COUNT_BUCKETS,
        )
        self._m_batch_gain = self.obs.histogram(
            "repro_service_batch_gain_distance",
            "Distance gained by the batch transfer phase, per batch with gain.",
            buckets=DISTANCE_BUCKETS,
        )
        self._m_releases = self.obs.counter(
            "repro_service_releases_total", "Leases released by clients."
        )
        self._m_checkpoint = self.obs.histogram(
            "repro_service_checkpoint_seconds",
            "Wall seconds to serialize a live checkpoint of the service state.",
        )
        # The batch transfer phase shares the repro_transfer_* series with
        # GlobalSubOptimizer.optimize_transfers — same semantics, same names.
        self._m_transfer_attempts = self.obs.counter(
            "repro_transfer_attempts_total",
            "Allocation pairs evaluated for a Theorem-2 transfer.",
        )
        self._m_transfer_applied = self.obs.counter(
            "repro_transfer_applied_total",
            "Pair transfers that improved the summed distance and were applied.",
        )
        self._m_transfer_exchanges = self.obs.counter(
            "repro_transfer_exchanges_total",
            "Individual VM exchanges applied across all accepted transfers.",
        )
        self._m_transfer_gain = self.obs.histogram(
            "repro_transfer_gain_distance",
            "Distance gained per accepted pair transfer.",
            buckets=DISTANCE_BUCKETS,
        )
        # One timer spans the whole pipeline: the policy's place() phases
        # (admission / center_sweep / fill) nest under the service's step
        # and transfer phases. Disabled (zero-overhead) unless a caller —
        # e.g. `repro loadgen --profile` — enables it.
        self.timer: PhaseTimer = getattr(self.policy, "timer", None) or PhaseTimer()
        self._lock = threading.RLock()
        self._queue = RequestQueue(
            capacity=self.config.queue_capacity,
            discipline=self.config.discipline,
        )
        self._pending: dict[int, tuple[Ticket, float]] = {}
        #: Arrival time of each queued request no step has read yet.
        self._unread: dict[int, float] = {}
        #: The earliest of those arrivals, ``None`` when there is none: where
        #: the scheduler loop's batching window starts. Written under the
        #: lock, read without it.
        self.earliest_arrival: "float | None" = None
        self._accepting = True
        #: The loop that steps this service in the background: its own,
        #: made by :meth:`start`, or a sharded fabric's shared one.
        self.scheduler: "SchedulerLoop | None" = None
        self._own_scheduler: "SchedulerLoop | None" = None
        # Supervision hooks (all None by default — the unsupervised serving
        # path is unchanged). ``fence`` simulates a process boundary: when it
        # returns False the worker is "dead" — submit rejects, step is a
        # no-op, release fails shard_unavailable — exactly what a crashed
        # worker process would do. ``on_commit(service)`` fires after any
        # state-changing operation commits (a scheduler step, a release) so
        # a supervisor can write-ahead-replicate the checkpoint; ``on_tick``
        # fires once per scheduler-loop turn for heartbeats.
        self.fence = None
        self.on_commit = None
        self.on_tick = None

    # ------------------------------------------------------------ submission

    def submit(
        self, request: PlaceRequest, *, arrival: "float | None" = None
    ) -> Ticket:
        """Admit, refuse, or reject *request*; returns its ticket.

        Refusals (demand can never fit) and rejections (queue full, or the
        service is draining) resolve the ticket immediately; admitted
        requests resolve on a later :meth:`step`. *arrival* is the
        ``time.monotonic()`` at which the request first arrived, when that
        was before this call: a sharded fabric passes the moment the fabric
        received the request, so the routing, an RPC to a child process and
        any earlier shard's queue (hand-back, failover) count in its
        ``max_wait``, its reported latency and the batching window. By
        default the request arrives now.
        """
        ticket = Ticket(request.request_id)
        if self.fence is not None and not self.fence():
            # A dead worker process would never answer; reject at the door
            # so the fabric's spillover path can try the next shard.
            ticket._resolve(
                PlacementDecision(
                    request_id=request.request_id,
                    status=DecisionStatus.REJECTED,
                    detail="shard worker is down",
                )
            )
            return ticket
        now = time.monotonic() if arrival is None else arrival
        with self._lock:
            self.stats.submitted += 1
            core = request.to_core()
            if not self._accepting:
                self.stats.rejected += 1
                self._mc_admissions["rejected_draining"].inc()
                self._mc_decisions[DecisionStatus.REJECTED].inc()
                ticket._resolve(
                    PlacementDecision(
                        request_id=request.request_id,
                        status=DecisionStatus.REJECTED,
                        detail="service is draining",
                    )
                )
                return ticket
            if (
                request.request_id in self._pending
                or self.state.has_lease(request.request_id)
            ):
                # A duplicate id would orphan the first ticket (submit would
                # overwrite its _pending entry) and later blow up the
                # scheduler when allocate_lease sees the id twice — refuse it
                # at the door instead.
                self.stats.rejected += 1
                self._mc_admissions["rejected_duplicate"].inc()
                self._mc_decisions[DecisionStatus.REJECTED].inc()
                ticket._resolve(
                    PlacementDecision(
                        request_id=request.request_id,
                        status=DecisionStatus.REJECTED,
                        detail="duplicate request id (pending or holding a lease)",
                    )
                )
                return ticket
            refusal = reliability.refusal_reason(
                core.demand, self.state, core.survivability
            )
            if refusal is not None:
                self.stats.refused += 1
                self._mc_admissions["refused"].inc()
                self._mc_decisions[DecisionStatus.REFUSED].inc()
                ticket._resolve(
                    PlacementDecision(
                        request_id=request.request_id,
                        status=DecisionStatus.REFUSED,
                        detail=refusal,
                    )
                )
                return ticket
            timed = TimedRequest(
                request=core,
                arrival_time=now,
                duration=_UNKNOWN_DURATION,
                priority=request.priority,
            )
            if not self._queue.submit(timed):
                self.stats.rejected += 1
                self._mc_admissions["rejected_queue_full"].inc()
                self._mc_decisions[DecisionStatus.REJECTED].inc()
                ticket._resolve(
                    PlacementDecision(
                        request_id=request.request_id,
                        status=DecisionStatus.REJECTED,
                        detail="wait queue at capacity",
                    )
                )
                return ticket
            self._pending[request.request_id] = (ticket, now)
            self._unread[request.request_id] = now
            if self.earliest_arrival is None or now < self.earliest_arrival:
                self.earliest_arrival = now
            self._mc_admissions["admitted"].inc()
            self._m_queue_depth.set(len(self._queue))
        self.wake()
        return ticket

    def release(self, request: ReleaseRequest) -> ReleaseResponse:
        """Free the lease held by ``request.request_id`` (immediate).

        Freed capacity is visible to the next :meth:`step`; the background
        loop is woken so queued requests can be drained promptly.
        """
        if self.fence is not None and not self.fence():
            # Releasing against a dead worker must not mutate state that a
            # restore will discard — the lease would silently resurrect.
            return ReleaseResponse(
                request_id=request.request_id,
                status=DecisionStatus.SHARD_UNAVAILABLE,
            )
        with self._lock:
            try:
                allocation = self.state.release_lease(request.request_id)
            except ValidationError:
                return ReleaseResponse(
                    request_id=request.request_id,
                    status=DecisionStatus.UNKNOWN_LEASE,
                )
            self.stats.released += 1
            self._m_releases.inc()
            self._mc_decisions[DecisionStatus.RELEASED].inc()
            response = ReleaseResponse(
                request_id=request.request_id,
                status=DecisionStatus.RELEASED,
                freed_vms=allocation.total_vms,
            )
        self.wake()
        self.notify_commit()
        return response

    def wake(self) -> None:
        """Nudge the scheduler loop driving this service (no-op without one):
        queued work or freed capacity may now make progress."""
        scheduler = self.scheduler
        if scheduler is not None:
            scheduler.wake()

    # -------------------------------------------------------------- scheduler

    def step(self, now: float | None = None) -> list[PlacementDecision]:
        """Run one scheduling cycle; returns the decisions it produced.

        Expires over-age waiters, admits the jointly satisfiable batch (up to
        ``max_batch``), places it sequentially with the policy, then — for
        batches of at least two — runs the pairwise transfer phase and swaps
        in any strictly improved allocations.
        """
        if self.fence is not None and not self.fence():
            return []  # a dead worker's scheduler never runs
        if now is None:
            now = time.monotonic()
        started = time.perf_counter()
        try:
            return self._step_locked(now)
        finally:
            self._m_step.observe(time.perf_counter() - started)
            self.notify_commit()

    def notify_commit(self) -> None:
        """Fire the supervision commit hook (no-op when unsupervised).

        Called after every scheduler step and release — and by the fabric
        after a cross-shard rebalance mutates this shard's ledger directly —
        so write-ahead checkpoint replication sees every committed change.
        The hook must never take the scheduler down with it.
        """
        hook = self.on_commit
        if hook is None:
            return
        try:
            hook(self)
        except Exception:
            _log.exception("service on_commit hook failed")

    def _step_locked(self, now: float) -> list[PlacementDecision]:
        decisions: list[PlacementDecision] = []
        # Ticket resolutions collected under the lock, fired after it: a
        # resolution runs arbitrary caller callbacks (the fabric's decision
        # bookkeeping, the async endpoint's loop bridge), and running those
        # while holding this service's lock both serializes every waiting
        # client behind the scheduler and inverts lock order against
        # cross-shard work. Placements stay ahead of failures in the
        # resolution order.
        resolutions: "list[tuple[Ticket, PlacementDecision]]" = []
        with self._lock, self.timer.phase("step"):
            # This step reads every queued request: none is unread any more.
            self._unread.clear()
            self.earliest_arrival = None
            decisions.extend(self._expire(now))
            batch = self._queue.peek_admissible(self.state.available)
            if len(batch) > self.config.max_batch:
                batch = batch[: self.config.max_batch]
            if not batch:
                self._m_queue_depth.set(len(self._queue))
                return decisions
            self.stats.batches += 1
            self._m_batch.observe(len(batch))
            placed: list[tuple[TimedRequest, object]] = []
            failed: list[tuple[TimedRequest, str]] = []
            for timed in batch:
                if not self.state.can_satisfy(timed.demand):
                    continue
                try:
                    allocation = self.policy.place(
                        self.state, timed.request, obs=self.obs
                    ).allocation
                    if allocation is None:
                        continue
                    self.state.allocate_lease(
                        timed.request_id,
                        allocation,
                        survivability=getattr(
                            timed.request, "survivability", None
                        ),
                    )
                except ReproError as exc:
                    # submit() refuses duplicate ids up front, but a bad
                    # request must fail alone — never abort the cycle (and,
                    # from the background loop, kill the scheduler thread).
                    failed.append((timed, f"placement failed: {exc}"))
                    continue
                placed.append((timed, allocation))
            if self.config.enable_transfers and len(placed) > 1:
                placed = self._optimize_batch(placed)
            done_requests = []
            for timed, allocation in placed:
                ticket, enqueued = self._pending.pop(
                    timed.request_id, (None, now)
                )
                latency = max(0.0, now - enqueued)
                target = getattr(timed.request, "survivability", None)
                decision = decision_from_allocation(
                    timed.request_id,
                    allocation,
                    latency=latency,
                    survivability=(
                        reliability.achieved_survivability(
                            allocation.matrix, self.state, target
                        )
                        if target is not None
                        else None
                    ),
                )
                self.stats.placed += 1
                self.stats.total_distance += allocation.distance
                self._mc_decisions[DecisionStatus.PLACED].inc()
                self._m_wait.observe(latency)
                done_requests.append(timed)
                decisions.append(decision)
                if ticket is not None:
                    resolutions.append((ticket, decision))
            # Failures resolve after placements, so a forced duplicate id in
            # the same batch cannot steal the ticket of the copy that placed.
            for timed, detail in failed:
                decisions.append(self._evict(timed, now, detail, resolutions))
                done_requests.append(timed)
            self._queue.remove_batch(done_requests)
            self._m_queue_depth.set(len(self._queue))
        for ticket, decision in resolutions:
            ticket._resolve(decision)
        return decisions

    def _evict(
        self,
        timed: TimedRequest,
        now: float,
        detail: str,
        resolutions: "list | None" = None,
    ) -> PlacementDecision:
        """Resolve a queued request as rejected (queue removal is the
        caller's job — :meth:`step` folds evictees into ``remove_batch``).
        With *resolutions*, the ticket resolution is deferred to that list
        instead of firing under the caller's lock."""
        entry = self._pending.pop(timed.request_id, None)
        self.stats.rejected += 1
        self._mc_decisions[DecisionStatus.REJECTED].inc()
        enqueued = entry[1] if entry else timed.arrival_time
        decision = PlacementDecision(
            request_id=timed.request_id,
            status=DecisionStatus.REJECTED,
            latency=max(0.0, now - enqueued),
            detail=detail,
        )
        if entry is not None:
            if resolutions is not None:
                resolutions.append((entry[0], decision))
            else:
                entry[0]._resolve(decision)
        return decision

    def cancel(self, request_id: int) -> bool:
        """Withdraw a still-queued request (the caller gave up waiting).

        Resolves its ticket as ``cancelled`` and removes the queue entry so
        the request cannot be placed later as a lease no caller tracks.
        Returns ``False`` when the request is not pending — never submitted,
        already decided, or already placed (an existing lease is *not*
        released; use :meth:`release` for that).
        """
        with self._lock:
            entry = self._pending.pop(request_id, None)
            if entry is None:
                return False
            self._queue.cancel(request_id)
            self._forget(request_id)
            self.stats.cancelled += 1
            self._mc_decisions[DecisionStatus.CANCELLED].inc()
            self._m_queue_depth.set(len(self._queue))
            entry[0]._resolve(
                PlacementDecision(
                    request_id=request_id,
                    status=DecisionStatus.CANCELLED,
                    latency=max(0.0, time.monotonic() - entry[1]),
                    detail="withdrawn before placement",
                )
            )
            return True

    def stranded(self) -> "list[tuple[int, object]]":
        """``(request id, demand)`` of the queued requests the state cannot
        satisfy right now (some type short of free VMs), in queue order."""
        with self._lock:
            available = self.state.available
            return [
                (timed.request_id, timed.demand)
                for timed in self._queue
                if (timed.demand > available).any()
            ]

    def withdraw(self, request_id: int) -> "float | None":
        """Take a still-queued request back *undecided*: it leaves the
        queue and its ticket never resolves (the caller owns its outcome
        now, as the fabric does when it re-routes the request). Returns
        the request's arrival time, for :meth:`submit` on the queue that
        takes it over, or ``None`` when the request is not pending."""
        with self._lock:
            entry = self._pending.pop(request_id, None)
            if entry is None:
                return None
            self._queue.cancel(request_id)
            self._forget(request_id)
            self._m_queue_depth.set(len(self._queue))
            return entry[1]

    def _forget(self, request_id: int) -> None:
        """Drop a request that leaves the queue unread from the batching
        window's start (under the lock), so no stale arrival shortens the
        window of a later one."""
        if self._unread.pop(request_id, None) == self.earliest_arrival:
            self.earliest_arrival = min(self._unread.values(), default=None)

    def _expire(self, now: float) -> list[PlacementDecision]:
        """Resolve queued requests that outwaited ``max_wait`` as timeouts."""
        if self.config.max_wait is None:
            return []
        expired: list[PlacementDecision] = []
        for timed in list(self._queue):
            entry = self._pending.get(timed.request_id)
            enqueued = entry[1] if entry else timed.arrival_time
            if now - enqueued <= self.config.max_wait:
                continue
            self._queue.cancel(timed.request_id)
            self.stats.timed_out += 1
            self._mc_decisions[DecisionStatus.TIMEOUT].inc()
            decision = PlacementDecision(
                request_id=timed.request_id,
                status=DecisionStatus.TIMEOUT,
                latency=max(0.0, now - enqueued),
                detail=f"exceeded max_wait={self.config.max_wait}",
            )
            if entry is not None:
                del self._pending[timed.request_id]
                entry[0]._resolve(decision)
            expired.append(decision)
        return expired

    def _optimize_batch(self, placed):
        """Algorithm 2 step 3 over the batch: apply improving transfers only.

        Exchanges are capacity-neutral pairwise, so each improved pair is
        swapped into the lease ledger via release-then-allocate; the summed
        distance can only shrink (``transfer_pair`` returns positive-gain
        results or leaves the pair untouched).

        Pairs are scheduled through the same change-stamp worklist as
        :meth:`repro.core.placement.global_opt.GlobalSubOptimizer.optimize_transfers`:
        ``transfer_pair`` is pure, so a pair whose allocations are unchanged
        since it last converged would return the same rejected result —
        skipping it leaves the committed leases and stats bit-identical.

        Survivability-constrained requests never participate: an exchange
        optimizes distance with no knowledge of failure-domain caps, so it
        could concentrate a spread placement back into one rack. Their
        decisions must report exactly what admission promised.
        """
        dist = self.state.distance_matrix
        cache = self.state.topology_cache
        entries = list(placed)
        gain_before = self.stats.transfer_gain
        stamps = [0] * len(entries)
        constrained = [
            getattr(t.request, "survivability", None) is not None
            for t, _a in entries
        ]
        converged: dict[tuple[int, int], tuple[int, int]] = {}
        with self.timer.phase("transfer"):
            for _ in range(self.config.transfer_rounds):
                changed = False
                for i in range(len(entries)):
                    for j in range(i + 1, len(entries)):
                        if constrained[i] or constrained[j]:
                            continue
                        t1, a1 = entries[i]
                        t2, a2 = entries[j]
                        if a1.center == a2.center:
                            continue
                        if converged.get((i, j)) == (stamps[i], stamps[j]):
                            continue
                        self._m_transfer_attempts.inc()
                        # Distances are never negative, so a pair already at
                        # summed distance 0 cannot gain: skip the search.
                        result = (
                            transfer_pair(a1, a2, dist, cache=cache, obs=self.obs)
                            if a1.distance + a2.distance > 1e-9
                            else None
                        )
                        if (
                            result is None
                            or not result.improved
                            or result.gain <= 1e-9
                        ):
                            converged[(i, j)] = (stamps[i], stamps[j])
                            continue
                        # Exchanges are capacity-neutral only for the *pair*,
                        # so both old leases must be freed before either new
                        # one is committed (a swapped VM may land on a slot
                        # the partner still holds).
                        self.state.release_lease(t1.request_id)
                        self.state.release_lease(t2.request_id)
                        self.state.allocate_lease(t1.request_id, result.first)
                        self.state.allocate_lease(t2.request_id, result.second)
                        entries[i] = (t1, result.first)
                        entries[j] = (t2, result.second)
                        stamps[i] += 1
                        stamps[j] += 1
                        # An accepted transfer_pair result is itself a pair
                        # fixpoint — mark it converged at the new stamps.
                        converged[(i, j)] = (stamps[i], stamps[j])
                        self.stats.transfer_exchanges += result.exchanges
                        self.stats.transfer_gain += result.gain
                        self._m_transfer_applied.inc()
                        self._m_transfer_exchanges.inc(result.exchanges)
                        self._m_transfer_gain.observe(result.gain)
                        changed = True
                if not changed:
                    break
        batch_gain = self.stats.transfer_gain - gain_before
        if batch_gain > 0:
            self._m_batch_gain.observe(batch_gain)
        return entries

    # ------------------------------------------------------------- lifecycle

    @property
    def running(self) -> bool:
        return self.scheduler is not None and self.scheduler.running

    @property
    def queued(self) -> int:
        with self._lock:
            return len(self._queue)

    @property
    def backlog_hint(self) -> int:
        """Lock-free queue-depth hint for routing heuristics.

        Reads the deque length without the service lock (a single ``len``
        is atomic under the GIL). May be one arrival stale — callers use it
        only as an admission *hint* (e.g. the fabric's queue-depth gauge
        and hand-back pass), never for correctness.
        """
        return len(self._queue)

    @property
    def num_types(self) -> int:
        """VM types in the catalog (shard-transparent demand-vector length)."""
        return self.state.num_types

    @property
    def num_nodes(self) -> int:
        """Physical nodes under management (shard-transparent)."""
        return self.state.num_nodes

    def checkpoint_doc(self) -> dict:
        """A consistent checkpoint document of the live state.

        Part of the serving surface shared with the sharded fabric, so the
        transport's ``checkpoint`` op works against either.
        """
        from repro.service.checkpoint import checkpoint_to_dict

        started = time.perf_counter()
        with self._lock:
            doc = checkpoint_to_dict(self.state)
        self._m_checkpoint.observe(time.perf_counter() - started)
        return doc

    def describe_shards(self) -> list[dict]:
        """A one-entry shard summary: the unsharded service is shard 0."""
        with self._lock:
            return [
                {
                    "shard": 0,
                    "racks": list(range(self.state.topology.num_racks)),
                    "nodes": self.state.num_nodes,
                    "leases": self.state.num_leases,
                    "queued": len(self._queue),
                    "utilization": self.state.utilization,
                }
            ]

    def start(self) -> None:
        """Launch the background scheduler loop (idempotent): the one driving
        this service already, else a loop of its own."""
        with self._lock:
            self._accepting = True
            if self.scheduler is None:
                self.scheduler = self._own_scheduler = SchedulerLoop(
                    lambda: (self,),
                    batch_window=self.config.batch_window,
                    name="placement-service",
                )
            scheduler = self.scheduler
        scheduler.start()

    def stop(self) -> None:
        """Detach from the loop driving this service, and halt it if this
        service started it (a sharded fabric stops its shared loop itself);
        queued requests are untouched.

        Detaching frees the stopped service without waiting for a cycle
        collection (its own loop refers back to it).
        """
        self.scheduler = None
        scheduler, self._own_scheduler = self._own_scheduler, None
        if scheduler is not None:
            scheduler.stop()

    def drain(self, timeout: float = 5.0) -> list[PlacementDecision]:
        """Graceful shutdown: stop admission, serve what we can, drop the rest.

        Returns the decisions produced during the drain (placements plus the
        final ``dropped`` resolutions). The background loop, if running, is
        stopped first so the drain owns the scheduler.
        """
        with self._lock:
            self._accepting = False
        self.stop()
        deadline = time.monotonic() + timeout
        decisions: list[PlacementDecision] = []
        while time.monotonic() < deadline:
            with self._lock:
                if len(self._queue) == 0:
                    break
            produced = self.step()
            decisions.extend(produced)
            if not produced:
                # No forward progress is possible without new releases, and
                # none can arrive that we'd wait for — drop what remains.
                break
        with self._lock:
            for timed in list(self._queue):
                self._queue.cancel(timed.request_id)
                entry = self._pending.pop(timed.request_id, None)
                self.stats.dropped += 1
                self._mc_decisions[DecisionStatus.DROPPED].inc()
                decision = PlacementDecision(
                    request_id=timed.request_id,
                    status=DecisionStatus.DROPPED,
                    detail="service drained before placement",
                )
                if entry is not None:
                    entry[0]._resolve(decision)
                decisions.append(decision)
            self._unread.clear()
            self.earliest_arrival = None
            self._m_queue_depth.set(len(self._queue))
        return decisions

    def __repr__(self) -> str:
        return (
            f"PlacementService(queued={self.queued}, "
            f"leases={self.state.num_leases}, running={self.running})"
        )


class SchedulerLoop:
    """One background thread that takes turns over placement services.

    A turn runs every service's ``on_tick`` hook, parks while nothing is
    queued — and, after a turn that decided nothing, until :meth:`wake`
    (only a release or an arrival can unblock waiters that stayed queued;
    re-stepping at once would busy-spin) — waits out the batching window,
    steps every service with queued work, then calls *after_steps*.

    The window runs from the earliest arrival no step has taken
    (:attr:`PlacementService.earliest_arrival`, over every service), so a
    request that arrived while the previous turn stepped has already spent
    part of it — or all of it, and is stepped at once. A turn without such
    an arrival (a release woke the loop, or only requests an earlier step
    left queued wait) waits the full window.

    ``services()`` returns the services to drive, read once per turn.
    ``after_steps(now)``, when given, does at most one bounded slice of
    work and returns the seconds until it next wants a turn (``0`` while
    busy). :meth:`stalled` reports a turn stuck in a step or hook.
    """

    def __init__(
        self, services, *, batch_window: float, name: str, after_steps=None
    ):
        self._services, self._after_steps = services, after_steps
        self._batch_window, self._name = batch_window, name
        self._cond = threading.Condition()
        self._woken = False
        #: When the turn under way began; ``None`` while parked or stopped.
        self._turn_started: "float | None" = None
        #: The service whose hook or step runs now, else ``None``.
        self.busy_with: "PlacementService | None" = None
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def wake(self) -> None:
        """Make the next park return at once (callable from any thread)."""
        with self._cond:
            self._woken = True
            self._cond.notify()

    def stalled(self, after: float) -> bool:
        """Whether the turn under way has run for more than *after* seconds
        — a step or hook that blocks (in :attr:`busy_with`) stalls every
        service the loop drives."""
        started = self._turn_started
        return started is not None and time.monotonic() - started > after

    def start(self) -> None:
        """Launch the thread (idempotent)."""
        with self._cond:
            if self.running:
                return
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name=self._name, daemon=True
            )
            self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Halt the thread after its current step (waiting up to *timeout*
        seconds for it); queues are untouched."""
        self._stop.set()
        self.wake()
        thread = self._thread
        if (
            thread is not None
            and thread is not threading.current_thread()
            and thread.is_alive()
        ):
            thread.join(timeout=timeout)
        self._thread = None

    def _run(self) -> None:
        made_progress = True
        after_in = 0.0 if self._after_steps is not None else _PARK_S
        while not self._stop.is_set():
            self._turn_started = time.monotonic()
            services = self._services()
            for service in services:
                tick = service.on_tick
                if tick is not None:
                    self.busy_with = service
                    try:
                        tick(service)
                    except Exception:
                        _log.exception("service on_tick hook failed")
            self.busy_with = None
            with self._cond:
                if (
                    not self._woken
                    and after_in > 0
                    and not (made_progress and any(s.backlog_hint for s in services))
                ):
                    self._turn_started = None
                    self._cond.wait(timeout=min(after_in, _PARK_S))
                    self._turn_started = time.monotonic()
                self._woken = False
            if self._stop.is_set():
                break
            if any(s.backlog_hint for s in services):
                if self._batch_window > 0:
                    # The batching window: let concurrent arrivals coalesce.
                    wait = self._window_left(services)
                    if wait > 0:
                        time.sleep(wait)
                made_progress = False
                for service in services:
                    if self._stop.is_set():
                        break  # stopped, or abandoned while a step was stuck
                    if not service.backlog_hint:
                        continue  # read at its turn: arrivals so far count
                    self.busy_with = service
                    try:
                        made_progress |= bool(service.step())
                    except Exception:
                        # One poisoned request must never kill the loop.
                        service.stats.step_errors += 1
                        _log.exception("placement service scheduler step failed")
                self.busy_with = None
            else:
                made_progress = True
            if self._after_steps is not None and not self._stop.is_set():
                try:
                    after_in = self._after_steps(time.monotonic())
                except Exception:
                    # Turn-end work is optimization; it must never stop serving.
                    _log.exception("scheduler turn-end work failed")
                    after_in = _PARK_S
        self._turn_started = None

    def _window_left(self, services) -> float:
        """Seconds of the batching window still to wait: the full window
        unless some service holds an arrival no step has read."""
        stamps = [s.earliest_arrival for s in services]
        first = min((t for t in stamps if t is not None), default=None)
        if first is None:
            return self._batch_window
        return first + self._batch_window - time.monotonic()
