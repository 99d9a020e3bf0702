"""Online placement service: the long-lived serving layer.

The paper frames Algorithm 1 as an *online* procedure — "requests arrive
randomly, their service time are also random" — but the rest of this package
exercises it through one-shot batch simulations. This subpackage adds the
missing serving layer: a long-lived allocator daemon that keeps incremental
cluster state between requests, admits or rejects arrivals under bounded
queueing, groups concurrent arrivals into batches optimized with Algorithm 2's
pairwise transfers, checkpoints its state for restart, and ships with a load
generator for latency/throughput measurement.

Modules
-------
``state``
    :class:`ClusterState` — a :class:`~repro.cluster.resources.ResourcePool`
    with incrementally maintained free-capacity/rack aggregates, a lease
    ledger, and versioned snapshots.
``api``
    Typed request/decision dataclasses and their one message codec
    (:func:`message_to_doc` / :func:`message_from_doc`), carried unchanged
    by every hop.
``server``
    :class:`PlacementService` — admission control, batching window, transfer
    optimization, graceful drain.
``checkpoint``
    JSON snapshot/restore of the full allocator state.
``transports``
    The transport registry (:class:`Transport`, ``resolve_transport``) and
    the threaded-listener substrate every blocking TCP server shares.
``transport``
    The serving protocol, once: :class:`ServingSession` answers every
    envelope (hello and codec switch, the op table, resync-or-drop after a
    bad frame) for whichever endpoint drives it. Also the thread-per-
    connection endpoint and the blocking client (stdlib only).
``aio``
    The asyncio endpoint: one event loop driving a session per connection,
    bounded per-connection buffers, cross-connection admission batching.
``codec``
    Envelope codecs: line JSON and the compact binary framing, negotiated
    per connection on the hello exchange; one sans-IO decoder per codec is
    the only frame parser, pumped by ``read_op`` wherever reads block.
``factory``
    :func:`build_fabric` — the one construction path for every serving
    topology (thread/proc workers, optional supervision/coordination);
    ``workers=`` is the only place a shard backend is chosen, and
    ``BuiltFabric.serve(transport=)`` the only place a transport is.
``loadgen``
    Open-loop Poisson and closed-loop load generators with latency
    percentiles; :class:`WireLoadClient` drives a served endpoint over TCP.
``shard``
    :class:`ShardedPlacementFabric` — the one fabric: rack-aligned pool
    partitions, a scoring router with spillover, batched admission,
    failover re-routing, cross-shard rebalancing, and fabric-level
    checkpoint/restore (see :doc:`docs/SHARDING`). It reaches
    each shard's service through a :class:`ShardBackend`
    (``shard.backend``): :class:`LocalBackend` calls a service in this
    process; ``proc``'s :class:`ProcBackend` drives one in a child. A
    backend applies commits to the routing state in the service's commit
    order, and never serves a checkpoint from a mirror.
``wire``
    The one internal link, :class:`Channel`: a version-checked hello, then
    binary envelopes with ``bytes`` values embedded natively. Shard worker
    cmd/events channels and coordination connections are all this; nothing
    else reads or writes them.
``coord``
    :class:`CoordinationBackend` — worker registry, TTL'd heartbeats and
    leases, and the write-ahead checkpoint store (in-memory reference
    implementation plus the :mod:`~repro.service.coord.net` TCP
    server/client pair).
``proc``
    The out-of-process backend: the worker child runtime
    (``proc.worker``) and :class:`ProcBackend` — process handle, mirror
    state replayed from the child's journal, respawn from a checkpoint.
    No fabric or supervisor of its own.
``supervisor``
    :class:`FabricSupervisor` — the one supervisor: heartbeat and
    process-liveness failure detection, quarantine, gated byte-identical
    checkpoint restore, for either backend (see :doc:`docs/RELIABILITY`).
``chaos``
    :class:`FabricChaosInjector` — seeded worker kills, heartbeat delays,
    and checkpoint write faults for chaos testing the supervised fabric.

The names below load their modules on first use (:mod:`repro.util.lazy`),
so a proc worker importing its entrypoint — or anyone importing one
module — pays for that module's own imports only.
"""

from repro.util.lazy import lazy_exports as _lazy_exports

__all__ = [
    "DecisionStatus",
    "PlaceRequest",
    "PlacementDecision",
    "ReleaseRequest",
    "ReleaseResponse",
    "decode_message",
    "encode_message",
    "message_from_doc",
    "message_to_doc",
    "ClusterState",
    "StateSnapshot",
    "PlacementService",
    "ServiceConfig",
    "ServiceStats",
    "Ticket",
    "CHECKPOINT_VERSION",
    "checkpoint_bytes",
    "checkpoint_to_dict",
    "load_checkpoint",
    "save_checkpoint",
    "state_from_checkpoint",
    "ServiceClient",
    "ServiceEndpoint",
    "ServingSession",
    "AioServiceEndpoint",
    "Transport",
    "TRANSPORTS",
    "resolve_transport",
    "CODECS",
    "SUPPORTED_CODECS",
    "BinaryCodec",
    "JsonLineCodec",
    "choose_codec",
    "resolve_codec",
    "BuiltFabric",
    "build_fabric",
    "LoadGenConfig",
    "LoadReport",
    "WireLoadClient",
    "run_loadgen",
    "CoordinationBackend",
    "CoordinationServer",
    "InMemoryCoordinationBackend",
    "LeaseRecord",
    "LogEntry",
    "NetworkedCoordinationBackend",
    "ProcBackend",
    "ProcWorkerHandle",
    "ProcWorkerProxy",
    "WorkerRecord",
    "parse_coord_url",
    "FabricSupervisor",
    "FailoverEvent",
    "ShardWorker",
    "SupervisorConfig",
    "FabricChaosInjector",
    "ByRackPlan",
    "CapacityBalancedPlan",
    "FabricConfig",
    "FabricStats",
    "LocalBackend",
    "RackGroupPlan",
    "ShardBackend",
    "ShardPlan",
    "ShardRouter",
    "ShardedPlacementFabric",
    "fabric_from_checkpoint",
    "load_fabric_checkpoint",
    "save_fabric_checkpoint",
]


_EXPORTS = {
    "repro.service.api": (
        "DecisionStatus", "PlaceRequest", "PlacementDecision",
        "ReleaseRequest", "ReleaseResponse", "decode_message",
        "encode_message", "message_from_doc", "message_to_doc",
    ),
    "repro.service.state": ("ClusterState", "StateSnapshot"),
    "repro.service.server": (
        "PlacementService", "ServiceConfig", "ServiceStats", "Ticket",
    ),
    "repro.service.checkpoint": (
        "CHECKPOINT_VERSION", "checkpoint_bytes", "checkpoint_to_dict",
        "load_checkpoint", "save_checkpoint", "state_from_checkpoint",
    ),
    "repro.service.transport": (
        "ServiceClient", "ServiceEndpoint", "ServingSession",
    ),
    "repro.service.transports": (
        "TRANSPORTS", "Transport", "resolve_transport",
    ),
    "repro.service.codec": (
        "CODECS", "SUPPORTED_CODECS", "BinaryCodec", "JsonLineCodec",
        "choose_codec", "resolve_codec",
    ),
    "repro.service.factory": ("BuiltFabric", "build_fabric"),
    "repro.service.loadgen": (
        "LoadGenConfig", "LoadReport", "WireLoadClient", "run_loadgen",
    ),
    "repro.service.coord": (
        "CoordinationBackend", "InMemoryCoordinationBackend", "LeaseRecord",
        "LogEntry", "WorkerRecord",
    ),
    "repro.service.coord.net": (
        "CoordinationServer", "NetworkedCoordinationBackend",
        "parse_coord_url",
    ),
    "repro.service.proc": (
        "ProcBackend", "ProcWorkerHandle", "ProcWorkerProxy",
    ),
    "repro.service.supervisor": (
        "FabricSupervisor", "FailoverEvent", "ShardWorker",
        "SupervisorConfig",
    ),
    "repro.service.chaos": ("FabricChaosInjector",),
    "repro.service.shard": (
        "ByRackPlan", "CapacityBalancedPlan", "FabricConfig", "FabricStats",
        "LocalBackend", "RackGroupPlan", "ShardBackend",
        "ShardedPlacementFabric", "ShardPlan", "ShardRouter",
        "fabric_from_checkpoint", "load_fabric_checkpoint",
        "save_fabric_checkpoint",
    ),
    "repro.service.aio": ("AioServiceEndpoint",),
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
