"""MapReduce substrate: discrete-event simulation of jobs on virtual clusters.

Reproduces the paper's experimental apparatus (Section V.B): HDFS block
placement, slot-based locality-aware task scheduling, shuffle traffic over
the cluster distance matrix, and the runtime / data-locality /
shuffle-locality metrics of Figs. 7–8.
"""

from repro.util.lazy import lazy_exports as _lazy_exports

__all__ = [
    "DistanceBand",
    "NetworkModel",
    "classify_band",
    "VMInstance",
    "VirtualCluster",
    "Block",
    "HDFSModel",
    "GB",
    "MB",
    "MapReduceJob",
    "MapTaskRecord",
    "ReduceTaskRecord",
    "ShuffleFlow",
    "TaskState",
    "DelayScheduler",
    "FifoScheduler",
    "LocalityAwareScheduler",
    "MapScheduler",
    "RandomScheduler",
    "place_reducers",
    "JobResult",
    "LocalityReport",
    "RecoveryReport",
    "NO_STRAGGLERS",
    "StragglerModel",
    "NO_FAULTS",
    "TaskFaultModel",
    "VMDeath",
    "MapReduceEngine",
    "FlowResult",
    "JobFlow",
    "compare_flows_across_clusters",
    "WORKLOADS",
    "grep",
    "join",
    "sort",
    "terasort",
    "wordcount",
]


_EXPORTS = {
    "repro.mapreduce.network": (
        "DistanceBand", "NetworkModel", "classify_band",
    ),
    "repro.mapreduce.vmcluster": ("VMInstance", "VirtualCluster"),
    "repro.mapreduce.hdfs": ("Block", "HDFSModel"),
    "repro.mapreduce.job": ("GB", "MB", "MapReduceJob"),
    "repro.mapreduce.tasks": (
        "MapTaskRecord", "ReduceTaskRecord", "ShuffleFlow", "TaskState",
    ),
    "repro.mapreduce.scheduler": (
        "DelayScheduler", "FifoScheduler", "LocalityAwareScheduler",
        "MapScheduler", "RandomScheduler", "place_reducers",
    ),
    "repro.mapreduce.metrics": (
        "JobResult", "LocalityReport", "RecoveryReport",
    ),
    "repro.mapreduce.stragglers": ("NO_STRAGGLERS", "StragglerModel"),
    "repro.mapreduce.faults": ("NO_FAULTS", "TaskFaultModel", "VMDeath"),
    "repro.mapreduce.engine": ("MapReduceEngine",),
    "repro.mapreduce.jobflow": (
        "FlowResult", "JobFlow", "compare_flows_across_clusters",
    ),
    "repro.mapreduce.workloads": (
        "WORKLOADS", "grep", "join", "sort", "terasort", "wordcount",
    ),
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
