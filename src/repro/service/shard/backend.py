"""The seam between the fabric and where a shard's service actually runs.

:class:`~repro.service.shard.fabric.ShardedPlacementFabric` and
:class:`~repro.service.supervisor.FabricSupervisor` are written once,
against :class:`ShardBackend`. A backend answers one question — *how is this
shard's* :class:`~repro.service.server.PlacementService` *reached?* — and
two implementations exist:

* :class:`LocalBackend` (here) — the service is an object in this process
  and every call is a direct call;
* :class:`~repro.service.proc.backend.ProcBackend` — the service runs in a
  spawned child, calls are framed RPCs, and the parent keeps a **mirror**
  :class:`~repro.service.state.ClusterState` for routing, replayed from its journal.

What every backend must guarantee, because the fabric relies on it:

* ``state`` reflects each commit (a transfer's too) in the service's commit
  order, a placement *before* its ``on_decision`` is called, and a release
  before ``release`` returns;
* ``checkpoint_doc()`` is the *service's own* state, never a routing copy of
  it (a mirror may not have been sent the latest commits yet);
* ``quarantine()`` takes no lock a dead or wedged worker might hold.
"""

from __future__ import annotations

from typing import Protocol

from repro.service.api import (
    PlaceRequest,
    PlacementDecision,
    ReleaseRequest,
    ReleaseResponse,
)
from repro.service.checkpoint import checkpoint_to_dict
from repro.service.server import PlacementService
from repro.service.state import ClusterState
from repro.service.supervisor import ShardWorker

__all__ = ["LocalBackend", "ShardBackend"]


class ShardBackend(Protocol):
    """How the fabric reaches one shard's placement service."""

    shard_id: int
    #: What the router scores: the live state, or a mirror of it.
    state: ClusterState
    #: The live service when it runs in this process, else ``None``. Only
    #: cross-shard rebalancing needs it (two-shard transactional mutation).
    service: "PlacementService | None"
    #: The child-process handle when the service runs out of process.
    handle: "object | None"
    #: Context manager that holds ``state`` still while the fabric reads it.
    lock: object
    queued: int
    #: Lock-free, possibly one arrival stale; an admission hint only.
    backlog_hint: int
    transfer_gain: float
    running: bool

    def submit(
        self,
        request: PlaceRequest,
        attempt: int,
        on_decision,
        *,
        arrival: float,
    ) -> bool:
        """Hand *request* to the service; ``False`` when it declined at the
        door. An admitted request's shard-local decision goes to
        ``on_decision`` exactly once. *attempt* is the fabric's fencing
        token for this try (it rides the wire out of process). *arrival* is
        this process's ``time.monotonic()`` when the fabric first received
        the request: its ``max_wait``, its reported latency and the shard's
        batching window count from then, so routing, the RPC and any earlier
        shard's queue (failover, hand-back) are part of its wait."""

    def release(self, request: ReleaseRequest) -> ReleaseResponse: ...

    def cancel(self, request_id: int) -> bool: ...

    def step(self, now: "float | None") -> "list[PlacementDecision]":
        """One scheduler cycle; returns once every decision it produced has
        been applied to ``state`` and delivered."""

    def connect(self) -> None:
        """Finish coming up. The fabric constructs every backend before it
        connects any, so out-of-process shards launch their children
        together and then wait for each."""

    def start(self) -> None: ...

    def stop(self) -> None: ...

    def drain(self, timeout: float) -> "list[PlacementDecision]": ...

    def checkpoint_doc(self) -> dict:
        """The service's authoritative checkpoint document."""

    def verify_state(self) -> None:
        """Raise unless ``state`` is internally consistent and agrees with
        the service's own state (call under ``lock``, at a quiescent point)."""

    def quarantine(self) -> None:
        """Make sure the (dead or wedged) worker commits nothing further."""

    def restore(self, payload: bytes, state: ClusterState) -> None:
        """Bring up a fresh service on *state*, which the caller parsed from
        the replicated checkpoint *payload* and verified byte-identical."""

    def supervise(self, coord, config, clock):
        """Put the shard under supervision; returns the worker object the
        supervisor watches (``crashed``, ``kill()``, ``enroll()``, ...)."""

    def close(self, timeout: float) -> "int | None":
        """Stop for good; a child process's exit code, else ``None``."""


class LocalBackend:
    """The shard's service is an object in this process."""

    handle = None

    def __init__(
        self, shard_id: int, service: PlacementService, policy_factory
    ) -> None:
        self.shard_id = shard_id
        self.service = service
        #: A restored shard gets a *fresh* policy from the same factory
        #: (policies are stateful; never share one).
        self._policy_factory = policy_factory
        self._worker: "ShardWorker | None" = None

    @property
    def state(self) -> ClusterState:
        return self.service.state

    @property
    def lock(self):
        return self.service._lock

    @property
    def queued(self) -> int:
        return self.service.queued

    @property
    def backlog_hint(self) -> int:
        return self.service.backlog_hint

    @property
    def transfer_gain(self) -> float:
        return self.service.stats.transfer_gain

    @property
    def running(self) -> bool:
        return self.service.running

    def submit(self, request, attempt, on_decision, *, arrival) -> bool:
        inner = self.service.submit(request, arrival=arrival)
        decision = inner.decision
        if inner.done and decision is not None and not decision.placed:
            return False  # queue full, draining, duplicate, dead-worker fence
        inner.add_done_callback(on_decision)
        return True

    def release(self, request):
        return self.service.release(request)

    def cancel(self, request_id):
        return self.service.cancel(request_id)

    def step(self, now):
        return self.service.step(now)

    def connect(self):
        pass  # the service is already here

    def start(self):
        self.service.start()

    def stop(self):
        self.service.stop()

    def drain(self, timeout):
        return self.service.drain(timeout)

    def checkpoint_doc(self):
        return checkpoint_to_dict(self.service.state)

    def verify_state(self):
        self.service.state.verify_consistency()

    def quarantine(self):
        # A lock-free fence: every entry point of the dead worker (the
        # scheduler's step included) observes it without touching its lock.
        self.service.fence = lambda: False

    def restore(self, payload, state):
        old = self.service
        service = PlacementService(
            state, policy=self._policy_factory(), config=old.config, obs=old.obs
        )
        if self._worker is not None:
            # Hooks first: the restored service must never commit unreplicated.
            self._worker.rebind(service)
        self.service = service

    def supervise(self, coord, config, clock):
        self._worker = ShardWorker(
            self.shard_id, self.service, coord, config, clock
        )
        return self._worker

    def close(self, timeout):
        self.service.stop()
