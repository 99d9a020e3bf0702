"""Placement algorithms: the paper's heuristics, exact solvers, baselines."""

from repro.util.lazy import lazy_exports as _lazy_exports

__all__ = [
    "PlacementAlgorithm",
    "PlacementResult",
    "BatchPlacementAlgorithm",
    "check_admissible",
    "normalize_request",
    "ExactPlacement",
    "fill_from_center",
    "solve_sd_exact",
    "BruteForcePlacement",
    "enumerate_allocations",
    "solve_sd_bruteforce",
    "MilpOptions",
    "MilpPlacement",
    "solve_gsd_milp",
    "solve_sd_milp",
    "OnlineHeuristic",
    "com",
    "greedy_fill",
    "TransferResult",
    "best_exchange",
    "transfer_pair",
    "transfer_pair_paper",
    "GlobalOptimizationStats",
    "GlobalSubOptimizer",
    "total_distance",
    "AnnealingConfig",
    "AnnealingGsdSolver",
    "JobAwarePlacement",
    "RuntimePrediction",
    "predict_runtime",
    "spread_fill",
    "BestFitPlacement",
    "FirstFitPlacement",
    "RandomPlacement",
    "StripedPlacement",
    "random_center_distance",
]


_EXPORTS = {
    "repro.core.placement.base": (
        "PlacementAlgorithm", "PlacementResult", "BatchPlacementAlgorithm",
        "check_admissible", "normalize_request",
    ),
    "repro.core.placement.exact": (
        "ExactPlacement", "fill_from_center", "solve_sd_exact",
    ),
    "repro.core.placement.bruteforce": (
        "BruteForcePlacement", "enumerate_allocations", "solve_sd_bruteforce",
    ),
    "repro.core.placement.ilp": (
        "MilpOptions", "MilpPlacement", "solve_gsd_milp", "solve_sd_milp",
    ),
    "repro.core.placement.greedy": ("OnlineHeuristic", "com", "greedy_fill"),
    "repro.core.placement.transfer": (
        "TransferResult", "best_exchange", "transfer_pair",
        "transfer_pair_paper",
    ),
    "repro.core.placement.global_opt": (
        "GlobalOptimizationStats", "GlobalSubOptimizer", "total_distance",
    ),
    "repro.core.placement.annealing": (
        "AnnealingConfig", "AnnealingGsdSolver",
    ),
    "repro.core.placement.jobaware": (
        "JobAwarePlacement", "RuntimePrediction", "predict_runtime",
        "spread_fill",
    ),
    "repro.core.placement.baselines": (
        "BestFitPlacement", "FirstFitPlacement", "RandomPlacement",
        "StripedPlacement", "random_center_distance",
    ),
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
