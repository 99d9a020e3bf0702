"""Cloud-service substrate: request queue, leases, event-driven provider."""

from repro.util.lazy import lazy_exports as _lazy_exports

__all__ = [
    "TimedRequest",
    "poisson_workload",
    "QueueDiscipline",
    "RequestQueue",
    "Lease",
    "Event",
    "EventQueue",
    "CloudProvider",
    "ProviderStats",
    "ARRIVAL",
    "DEPARTURE",
    "CloudSimulator",
    "SimulationResult",
    "UtilizationSample",
    "DEFAULT_HOURLY_PRICES",
    "BillingReport",
    "PriceSheet",
    "lease_cost",
    "max_affordable_duration",
    "within_budget",
    "load_trace",
    "save_trace",
    "SLO",
    "CandidateResult",
    "CapacityPlan",
    "plan_capacity",
    "BackfillPlanner",
    "PlannedStart",
    "ReservingCloudProvider",
    "ResourceTimeline",
    "NODE_FAILURE",
    "NODE_RECOVERY",
    "FailureEvent",
    "FailureInjector",
    "FailureSimulator",
    "RepairStats",
    "ResilientCloudProvider",
]


_EXPORTS = {
    "repro.cloud.request": ("TimedRequest", "poisson_workload"),
    "repro.cloud.queue": ("QueueDiscipline", "RequestQueue"),
    "repro.cloud.lease": ("Lease",),
    "repro.util.events": ("Event", "EventQueue"),
    "repro.cloud.provider": ("CloudProvider", "ProviderStats"),
    "repro.cloud.simulator": (
        "ARRIVAL", "DEPARTURE", "CloudSimulator", "SimulationResult",
        "UtilizationSample",
    ),
    "repro.cloud.pricing": (
        "DEFAULT_HOURLY_PRICES", "BillingReport", "PriceSheet", "lease_cost",
        "max_affordable_duration", "within_budget",
    ),
    "repro.cloud.traces": ("load_trace", "save_trace"),
    "repro.cloud.capacity": (
        "SLO", "CandidateResult", "CapacityPlan", "plan_capacity",
    ),
    "repro.cloud.reservations": (
        "BackfillPlanner", "PlannedStart", "ReservingCloudProvider",
        "ResourceTimeline",
    ),
    "repro.cloud.failures": (
        "NODE_FAILURE", "NODE_RECOVERY", "FailureEvent", "FailureInjector",
        "FailureSimulator", "RepairStats", "ResilientCloudProvider",
    ),
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
