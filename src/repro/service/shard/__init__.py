"""Sharded placement fabric: rack-aligned partitions of one pool.

See :mod:`repro.service.shard.plan` (how the pool is cut),
:mod:`repro.service.shard.router` (who serves each request first),
:mod:`repro.service.shard.backend` (how a shard's service is reached), and
:mod:`repro.service.shard.fabric` (the serving surface gluing N
:class:`~repro.service.server.PlacementService` workers together).
"""

from repro.util.lazy import lazy_exports as _lazy_exports

__all__ = [
    "FABRIC_CHECKPOINT_VERSION",
    "ByRackPlan",
    "CapacityBalancedPlan",
    "ExplicitPlan",
    "FabricConfig",
    "FabricStats",
    "LocalBackend",
    "RackGroupPlan",
    "RebalanceReport",
    "RouteResult",
    "Shard",
    "ShardAssignment",
    "ShardBackend",
    "ShardPlan",
    "ShardRouter",
    "ShardedPlacementFabric",
    "assignment_from_racks",
    "fabric_from_checkpoint",
    "load_fabric_checkpoint",
    "resolve_plan",
    "save_fabric_checkpoint",
    "shard_topology",
]


_EXPORTS = {
    "repro.service.shard.backend": ("LocalBackend", "ShardBackend"),
    "repro.service.shard.fabric": (
        "FABRIC_CHECKPOINT_VERSION", "FabricConfig", "FabricStats",
        "RebalanceReport", "Shard", "ShardedPlacementFabric",
        "fabric_from_checkpoint", "load_fabric_checkpoint",
        "save_fabric_checkpoint",
    ),
    "repro.service.shard.plan": (
        "ByRackPlan", "CapacityBalancedPlan", "ExplicitPlan", "RackGroupPlan",
        "ShardAssignment", "ShardPlan", "assignment_from_racks",
        "resolve_plan", "shard_topology",
    ),
    "repro.service.shard.router": ("RouteResult", "ShardRouter"),
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
