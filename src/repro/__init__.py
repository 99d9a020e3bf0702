"""repro — Affinity-aware Virtual Cluster Optimization for MapReduce Applications.

A full reproduction of Yan et al., IEEE CLUSTER 2012: the shortest-distance
(SD) virtual-cluster provisioning problem, the online greedy heuristic
(Algorithm 1), the global sub-optimization algorithm (Algorithm 2), exact
ILP/transportation reference solvers, a cloud request-queue simulator, and a
discrete-event MapReduce simulator that reproduces the paper's runtime and
locality experiments.

Quickstart::

    from repro import (
        VMTypeCatalog, PoolSpec, random_pool, OnlineHeuristic,
    )

    catalog = VMTypeCatalog.ec2_default()
    pool = random_pool(PoolSpec(racks=3, nodes_per_rack=10), catalog, seed=7)
    result = OnlineHeuristic().place(pool, [2, 4, 1])
    print(result.distance, result.center)
"""

from repro.util.lazy import lazy_exports as _lazy_exports

__version__ = "1.0.0"

__all__ = [
    "EC2_LARGE",
    "EC2_MEDIUM",
    "EC2_SMALL",
    "DistanceModel",
    "PhysicalNode",
    "PoolSpec",
    "RequestSpec",
    "ResourcePool",
    "Topology",
    "VMType",
    "VMTypeCatalog",
    "build_distance_matrix",
    "random_pool",
    "random_requests",
    "Allocation",
    "BestFitPlacement",
    "ExactPlacement",
    "FirstFitPlacement",
    "GlobalSubOptimizer",
    "MilpPlacement",
    "OnlineHeuristic",
    "RandomPlacement",
    "StripedPlacement",
    "VirtualClusterRequest",
    "cluster_distance",
    "solve_gsd_milp",
    "solve_sd_exact",
    "solve_sd_milp",
]


_EXPORTS = {
    "repro.cluster": (
        "EC2_LARGE", "EC2_MEDIUM", "EC2_SMALL", "DistanceModel",
        "PhysicalNode", "PoolSpec", "RequestSpec", "ResourcePool", "Topology",
        "VMType", "VMTypeCatalog", "build_distance_matrix", "random_pool",
        "random_requests",
    ),
    "repro.core": (
        "Allocation", "BestFitPlacement", "ExactPlacement",
        "FirstFitPlacement", "GlobalSubOptimizer", "MilpPlacement",
        "OnlineHeuristic", "RandomPlacement", "StripedPlacement",
        "VirtualClusterRequest", "cluster_distance", "solve_gsd_milp",
        "solve_sd_exact", "solve_sd_milp",
    ),
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
