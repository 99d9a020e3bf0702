"""Placement algorithm interfaces: the one-call placement protocol.

Every single-request algorithm conforms to one protocol::

    result = algo.place(pool, request, rng=None, obs=None)   # PlacementResult

``pool`` comes first (the state being placed into), then the request;
``rng`` optionally overrides the algorithm's internal randomness for the
call, and ``obs`` is a :class:`~repro.obs.registry.MetricsRegistry` (or
``None`` for the shared null registry — instrumentation never changes
placement outputs). The returned :class:`PlacementResult` carries the
allocation (or ``None`` when the request must wait), the chosen center and
distance, and a per-call metrics snapshot.

Batch (GSD) algorithms conform to the analogous
``place_batch(pool, requests, *, rng=None, obs=None)``.

Algorithms implement the ``_place`` / ``_place_batch`` hooks; the public
methods live on the base classes and handle result wrapping and per-call
metrics. A first argument that is not a :class:`ResourcePool` — the
pre-protocol ``place(request, pool)`` order included — is a
:class:`~repro.util.errors.ValidationError`.

Outcomes follow the paper's admission semantics:

* request > maximum pool capacity → :class:`InfeasibleRequestError` (refuse);
* request > current availability  → no allocation (wait in queue);
* otherwise → an allocation covering the request exactly.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.cluster.resources import ResourcePool
from repro.core.problem import Allocation, VirtualClusterRequest
from repro.obs.registry import DISTANCE_BUCKETS, ensure_registry
from repro.util.errors import InfeasibleRequestError, ValidationError
from repro.util.validation import as_int_vector

def normalize_request(
    request: "VirtualClusterRequest | np.ndarray | list[int]", num_types: int
) -> np.ndarray:
    """Accept either a request object or a raw vector; return the vector."""
    if isinstance(request, VirtualClusterRequest):
        return request.demand
    return as_int_vector(request, name="request", length=num_types)


def check_admissible(demand: np.ndarray, pool: ResourcePool) -> bool:
    """Apply the paper's two admission rules.

    Returns ``False`` when the request should *wait* (insufficient current
    availability) and raises :class:`InfeasibleRequestError` when it must be
    *refused* (exceeds maximum capacity).
    """
    if pool.exceeds_max_capacity(demand):
        raise InfeasibleRequestError(
            f"request {demand.tolist()} exceeds maximum pool capacity "
            f"{pool.max_capacity.sum(axis=0).tolist()}"
        )
    return pool.can_satisfy(demand)


@dataclass(frozen=True)
class PlacementResult:
    """Outcome of one protocol-style :meth:`PlacementAlgorithm.place` call.

    ``allocation`` is ``None`` when the request is admissible but cannot be
    served right now (must wait). :attr:`metrics` is a small per-call
    snapshot (algorithm name, allocation shape) — observational only, never
    part of the placement decision.
    """

    allocation: "Allocation | None"
    algorithm: str = ""
    elapsed: float = 0.0

    @cached_property
    def metrics(self) -> dict:
        """Per-call snapshot, computed on first read (its two n×m
        reductions are no part of placing)."""
        return _call_metrics(self.algorithm, self.allocation)

    @property
    def placed(self) -> bool:
        return self.allocation is not None

    @property
    def center(self) -> "int | None":
        """Central node of the allocation, or ``None`` when waiting."""
        return self.allocation.center if self.allocation is not None else None

    @property
    def distance(self) -> float:
        """Cluster distance ``DC(C)``; ``nan`` when nothing was placed."""
        return (
            self.allocation.distance
            if self.allocation is not None
            else float("nan")
        )

    def __bool__(self) -> bool:
        return self.placed

    def __repr__(self) -> str:
        body = repr(self.allocation) if self.placed else "waiting"
        return f"PlacementResult({self.algorithm}: {body})"


def _call_metrics(algorithm: str, allocation: "Allocation | None") -> dict:
    if allocation is None:
        return {"algorithm": algorithm, "placed": 0}
    return {
        "algorithm": algorithm,
        "placed": 1,
        "vms": allocation.total_vms,
        "nodes_used": allocation.num_nodes_used,
        "center": allocation.center,
        "distance": allocation.distance,
    }


def _require_pool(method: str, pool, what) -> None:
    """The protocol's one shape check: *pool* first, then *what* to place."""
    if not isinstance(pool, ResourcePool):
        raise ValidationError(
            f"{method} expects a ResourcePool as the first argument "
            f"(got {type(pool).__name__}, {type(what).__name__})"
        )
    if what is None:
        raise ValidationError(f"{method}(pool, ...): nothing to place was given")


class PlacementAlgorithm(abc.ABC):
    """Strategy interface for single-request virtual-cluster placement."""

    #: Short name used in experiment tables and metric labels.
    name: str = "abstract"

    @abc.abstractmethod
    def _place(
        self,
        pool: ResourcePool,
        request: "VirtualClusterRequest | np.ndarray",
        *,
        rng=None,
        obs=None,
    ) -> "Allocation | None":
        """Compute an allocation for *request* against *pool*'s current state.

        Must not mutate *pool*. Returns ``None`` if the request cannot be
        served right now (must wait); raises
        :class:`~repro.util.errors.InfeasibleRequestError` if it can never be
        served. ``rng`` overrides the algorithm's internal randomness for
        this call; ``obs`` receives instrumentation (never affects the
        result).
        """

    def place(
        self,
        pool: ResourcePool,
        request: "VirtualClusterRequest | np.ndarray | None" = None,
        *,
        rng=None,
        obs=None,
    ) -> PlacementResult:
        """Place *request* into *pool*; returns a :class:`PlacementResult`."""
        _require_pool("place", pool, request)
        registry = ensure_registry(obs)
        requests_total = registry.counter(
            "repro_placement_requests_total",
            "Placement protocol calls by algorithm and outcome.",
            labels=("algorithm", "outcome"),
        )
        started = time.perf_counter()
        try:
            allocation = self._place(pool, request, rng=rng, obs=obs)
        except InfeasibleRequestError:
            requests_total.labels(algorithm=self.name, outcome="refused").inc()
            raise
        elapsed = time.perf_counter() - started
        outcome = "placed" if allocation is not None else "wait"
        requests_total.labels(algorithm=self.name, outcome=outcome).inc()
        registry.histogram(
            "repro_placement_seconds",
            "Wall seconds per placement protocol call.",
            labels=("algorithm",),
        ).labels(algorithm=self.name).observe(elapsed)
        if allocation is not None:
            registry.histogram(
                "repro_placement_distance",
                "Committed cluster distance DC(C) per placed request.",
                labels=("algorithm",),
                buckets=DISTANCE_BUCKETS,
            ).labels(algorithm=self.name).observe(allocation.distance)
        return PlacementResult(
            allocation=allocation, algorithm=self.name, elapsed=elapsed
        )

    def place_and_commit(
        self,
        pool: ResourcePool,
        request: "VirtualClusterRequest | np.ndarray | None" = None,
        *,
        rng=None,
        obs=None,
    ) -> PlacementResult:
        """:meth:`place`, then commit the allocation to the pool if placed."""
        result = self.place(pool, request, rng=rng, obs=obs)
        if result.placed:
            pool.allocate(result.allocation.matrix)
        return result

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class BatchPlacementAlgorithm(abc.ABC):
    """Strategy interface for placing a batch of requests together (GSD)."""

    name: str = "abstract-batch"

    @abc.abstractmethod
    def _place_batch(
        self,
        pool: ResourcePool,
        requests: "list[VirtualClusterRequest | np.ndarray]",
        *,
        rng=None,
        obs=None,
    ) -> list["Allocation | None"]:
        """Allocate each request in *requests*; entries are ``None`` for
        requests that could not be served with the remaining resources.

        Must not mutate *pool*.
        """

    def place_batch(
        self,
        pool: ResourcePool,
        requests: "list | None" = None,
        *,
        rng=None,
        obs=None,
    ) -> list["Allocation | None"]:
        """Place every request in the batch against *pool*; per-entry
        allocations (batch callers aggregate their own metrics via ``obs``)."""
        _require_pool("place_batch", pool, requests)
        return self._place_batch(pool, requests, rng=rng, obs=obs)
