"""Paper experiments: one module per figure plus ablations.

Every experiment takes explicit seeds (defaulting to
:data:`~repro.experiments.paperconfig.MASTER_SEED`) and returns a result
dataclass exposing the same series the paper's figure plots; the benchmark
suite prints them.
"""

from repro.util.lazy import lazy_exports as _lazy_exports

__all__ = [
    "paperconfig",
    "PaperReport",
    "render_markdown",
    "run_all",
    "LoadPoint",
    "OversubscriptionPoint",
    "RatioPoint",
    "sweep_distance_ratio",
    "sweep_oversubscription",
    "sweep_pool_load",
    "run_fig1",
    "CenterStudyResult",
    "Fig4Result",
    "run_center_study",
    "run_fig4",
    "GlobalComparisonResult",
    "OptimalityGapResult",
    "run_comparison",
    "run_fig5",
    "run_fig6",
    "run_gsd_gap",
    "CLUSTER_LAYOUTS",
    "Fig78Result",
    "TopologyRun",
    "build_cluster",
    "build_experiment_pool",
    "experiment_job",
    "experiment_network",
    "run_fig78",
    "LeaseFaultCollector",
    "PlacementRun",
    "SpreadStudyResult",
    "run_spread_study",
    "vm_deaths_from_failures",
    "ParetoPoint",
    "PlacedLease",
    "ReliabilityParetoResult",
    "measured_availability",
    "run_reliability_pareto",
    "HeuristicGapResult",
    "PolicyRow",
    "SchedulerRow",
    "TransferAblationResult",
    "run_heuristic_gap",
    "run_policy_comparison",
    "run_scheduler_ablation",
    "run_transfer_ablation",
]


_EXPORTS = {
    "repro.experiments": ("paperconfig",),
    "repro.experiments.example_fig1": ("run as run_fig1",),
    "repro.experiments.center_experiments": (
        "CenterStudyResult", "Fig4Result", "run_center_study", "run_fig4",
    ),
    "repro.experiments.global_experiments": (
        "GlobalComparisonResult", "OptimalityGapResult", "run_comparison",
        "run_fig5", "run_fig6", "run_gsd_gap",
    ),
    "repro.experiments.mapreduce_experiments": (
        "CLUSTER_LAYOUTS", "Fig78Result", "TopologyRun", "build_cluster",
        "build_experiment_pool", "experiment_job", "experiment_network",
        "run_fig78",
    ),
    "repro.experiments.runner": ("PaperReport", "render_markdown", "run_all"),
    "repro.experiments.sensitivity": (
        "LoadPoint", "OversubscriptionPoint", "RatioPoint",
        "sweep_distance_ratio", "sweep_oversubscription", "sweep_pool_load",
    ),
    "repro.experiments.fault_recovery": (
        "LeaseFaultCollector", "PlacementRun", "SpreadStudyResult",
        "run_spread_study", "vm_deaths_from_failures",
    ),
    "repro.experiments.reliability": (
        "ParetoPoint", "PlacedLease", "ReliabilityParetoResult",
        "measured_availability", "run_reliability_pareto",
    ),
    "repro.experiments.ablations": (
        "HeuristicGapResult", "PolicyRow", "SchedulerRow",
        "TransferAblationResult", "run_heuristic_gap",
        "run_policy_comparison", "run_scheduler_ablation",
        "run_transfer_ablation",
    ),
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
