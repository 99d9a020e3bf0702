"""Placement algorithms: the paper's heuristics, exact solvers, baselines."""

from repro.core.placement.base import (
    PlacementAlgorithm,
    PlacementResult,
    BatchPlacementAlgorithm,
    check_admissible,
    normalize_request,
)
from repro.core.placement.exact import ExactPlacement, fill_from_center, solve_sd_exact
from repro.core.placement.bruteforce import (
    BruteForcePlacement,
    enumerate_allocations,
    solve_sd_bruteforce,
)
from repro.core.placement.ilp import (
    MilpOptions,
    MilpPlacement,
    solve_gsd_milp,
    solve_sd_milp,
)
from repro.core.placement.greedy import OnlineHeuristic, com, greedy_fill
from repro.core.placement.transfer import (
    TransferResult,
    best_exchange,
    transfer_pair,
    transfer_pair_paper,
)
from repro.core.placement.global_opt import (
    GlobalOptimizationStats,
    GlobalSubOptimizer,
    total_distance,
)
from repro.core.placement.annealing import AnnealingConfig, AnnealingGsdSolver
from repro.core.placement.jobaware import (
    JobAwarePlacement,
    RuntimePrediction,
    predict_runtime,
    spread_fill,
)
from repro.core.placement.baselines import (
    BestFitPlacement,
    FirstFitPlacement,
    RandomPlacement,
    StripedPlacement,
    random_center_distance,
)

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
