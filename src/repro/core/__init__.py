"""Core contribution: the shortest-distance problem and its solvers.

Implements Definition 1 (cluster distance ``DC``), Definition 2 (the SD
problem), Definition 4 (the GSD problem), Theorems 1–2, Algorithm 1 (online
heuristic) and Algorithm 2 (global sub-optimization), plus exact reference
solvers and affinity-blind baselines.
"""

from repro.util.lazy import lazy_exports as _lazy_exports

__all__ = [
    "best_centers",
    "center_distances",
    "cluster_distance",
    "distance_with_center",
    "Allocation",
    "VirtualClusterRequest",
    "apply_theorem1_move",
    "apply_theorem2_exchange",
    "swap_gain",
    "theorem1_delta",
    "theorem2_delta",
    "verify_theorem1",
    "verify_theorem2",
    "MigrationPlan",
    "Move",
    "apply_plan",
    "apply_repair",
    "diff_moves",
    "migration_cost_bytes",
    "plan_consolidation",
    "plan_repair",
    "AnnealingConfig",
    "AnnealingGsdSolver",
    "JobAwarePlacement",
    "RuntimePrediction",
    "predict_runtime",
    "spread_fill",
    "BatchPlacementAlgorithm",
    "BestFitPlacement",
    "BruteForcePlacement",
    "ExactPlacement",
    "FirstFitPlacement",
    "GlobalOptimizationStats",
    "GlobalSubOptimizer",
    "MilpOptions",
    "MilpPlacement",
    "OnlineHeuristic",
    "PlacementAlgorithm",
    "PlacementResult",
    "RandomPlacement",
    "StripedPlacement",
    "TransferResult",
    "random_center_distance",
    "solve_gsd_milp",
    "solve_sd_bruteforce",
    "solve_sd_exact",
    "solve_sd_milp",
    "total_distance",
    "transfer_pair",
    "transfer_pair_paper",
]


_EXPORTS = {
    "repro.core.distance": (
        "best_centers", "center_distances", "cluster_distance",
        "distance_with_center",
    ),
    "repro.core.problem": ("Allocation", "VirtualClusterRequest"),
    "repro.core.theorems": (
        "apply_theorem1_move", "apply_theorem2_exchange", "swap_gain",
        "theorem1_delta", "theorem2_delta", "verify_theorem1",
        "verify_theorem2",
    ),
    "repro.core.migration": (
        "MigrationPlan", "Move", "apply_plan", "apply_repair", "diff_moves",
        "migration_cost_bytes", "plan_consolidation", "plan_repair",
    ),
    "repro.core.placement": (
        "AnnealingConfig", "AnnealingGsdSolver", "JobAwarePlacement",
        "RuntimePrediction", "predict_runtime", "spread_fill",
        "BatchPlacementAlgorithm", "BestFitPlacement", "BruteForcePlacement",
        "ExactPlacement", "FirstFitPlacement", "GlobalOptimizationStats",
        "GlobalSubOptimizer", "MilpOptions", "MilpPlacement",
        "OnlineHeuristic", "PlacementAlgorithm", "PlacementResult",
        "RandomPlacement", "StripedPlacement", "TransferResult",
        "random_center_distance", "solve_gsd_milp", "solve_sd_bruteforce",
        "solve_sd_exact", "solve_sd_milp", "total_distance", "transfer_pair",
        "transfer_pair_paper",
    ),
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
