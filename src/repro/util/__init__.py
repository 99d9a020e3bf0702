"""Shared utilities: error types, RNG handling, validation helpers, and the
lazy re-exports every package ``__init__`` uses (:mod:`repro.util.lazy`)."""

from repro.util.lazy import lazy_exports as _lazy_exports

__all__ = [
    "ReproError",
    "ValidationError",
    "CapacityError",
    "InfeasibleRequestError",
    "JobFailedError",
    "SolverError",
    "RetryPolicy",
    "TASK_RETRY",
    "FETCH_RETRY",
    "PhaseTimer",
    "ensure_rng",
    "spawn_rngs",
    "as_int_vector",
    "as_int_matrix",
    "check_nonnegative",
    "check_shape",
    "check_square",
    "check_symmetric",
    "check_zero_diagonal",
]


_EXPORTS = {
    "repro.util.errors": (
        "ReproError", "ValidationError", "CapacityError",
        "InfeasibleRequestError", "JobFailedError", "SolverError",
    ),
    "repro.util.retry": ("FETCH_RETRY", "TASK_RETRY", "RetryPolicy"),
    "repro.util.rng": ("ensure_rng", "spawn_rngs"),
    "repro.util.timing": ("PhaseTimer",),
    "repro.util.validation": (
        "as_int_vector", "as_int_matrix", "check_nonnegative", "check_shape",
        "check_square", "check_symmetric", "check_zero_diagonal",
    ),
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
