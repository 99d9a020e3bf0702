"""Physical-cluster substrate: VM types, topology, distances, resource pool.

This package implements the Section-II model of the paper: a hierarchy of
clouds, racks and physical nodes; a catalog of VM types (Table I); the
capacity/allocation matrices ``M``, ``C``, ``L``, ``A``; and the hierarchical
distance matrix ``D``.
"""

from repro.util.lazy import lazy_exports as _lazy_exports

__all__ = [
    "VMType",
    "VMTypeCatalog",
    "EC2_SMALL",
    "EC2_MEDIUM",
    "EC2_LARGE",
    "PhysicalNode",
    "NodeResources",
    "capacity_from_resources",
    "Topology",
    "Rack",
    "Cloud",
    "DistanceModel",
    "PAPER_EXPERIMENT_DISTANCES",
    "build_distance_matrix",
    "validate_distance_matrix",
    "satisfies_triangle_inequality",
    "hop_distance_matrix",
    "ResourcePool",
    "TopologyCache",
    "DynamicResourcePool",
    "LatencyProber",
    "ProbeConfig",
    "aggregate_probes",
    "infer_distance_matrix",
    "quantize_to_tiers",
    "tier_recovery_accuracy",
    "render_allocation",
    "render_topology",
    "render_vm_counts",
    "PoolSpec",
    "RequestSpec",
    "LARGE_REQUESTS",
    "SMALL_REQUESTS",
    "random_topology",
    "random_pool",
    "random_request",
    "random_requests",
    "feasible_random_requests",
]


_EXPORTS = {
    "repro.cluster.vmtypes": (
        "VMType", "VMTypeCatalog", "EC2_SMALL", "EC2_MEDIUM", "EC2_LARGE",
    ),
    "repro.cluster.node": (
        "PhysicalNode", "NodeResources", "capacity_from_resources",
    ),
    "repro.cluster.topology": ("Topology", "Rack", "Cloud"),
    "repro.cluster.distance": (
        "DistanceModel", "PAPER_EXPERIMENT_DISTANCES",
        "build_distance_matrix", "validate_distance_matrix",
        "satisfies_triangle_inequality", "hop_distance_matrix",
    ),
    "repro.cluster.resources": ("ResourcePool",),
    "repro.cluster.topocache": ("TopologyCache",),
    "repro.cluster.dynamics": ("DynamicResourcePool",),
    "repro.cluster.measurement": (
        "LatencyProber", "ProbeConfig", "aggregate_probes",
        "infer_distance_matrix", "quantize_to_tiers",
        "tier_recovery_accuracy",
    ),
    "repro.cluster.visualize": (
        "render_allocation", "render_topology", "render_vm_counts",
    ),
    "repro.cluster.generators": (
        "PoolSpec", "RequestSpec", "LARGE_REQUESTS", "SMALL_REQUESTS",
        "random_topology", "random_pool", "random_request", "random_requests",
        "feasible_random_requests",
    ),
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
