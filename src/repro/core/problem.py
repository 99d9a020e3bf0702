"""Problem types: virtual-cluster requests and allocations.

A :class:`VirtualClusterRequest` is the paper's vector ``R`` (how many VMs of
each type the user wants). An :class:`Allocation` is the matrix ``C`` chosen
by a placement algorithm together with the central node ``k`` that realizes
its distance ``DC(C)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.distance import cluster_distance, distance_with_center
from repro.util.errors import ValidationError
from repro.util.validation import as_int_matrix, as_int_vector

_request_counter = itertools.count()


@dataclass(frozen=True)
class VirtualClusterRequest:
    """A user request for a virtual cluster.

    Attributes
    ----------
    demand:
        Length-``m`` integer vector; ``demand[j]`` instances of type ``V_j``.
    request_id:
        Unique id (auto-assigned when omitted).
    tag:
        Free-form label used by experiments and logs.
    survivability:
        Optional :class:`~repro.core.reliability.SurvivabilityTarget` (a
        plain dict in its ``to_dict`` form is also accepted and converted).
        ``None`` — the default, and the only value most callers ever use —
        means the request is placed exactly as before this field existed.
    """

    demand: np.ndarray
    request_id: int = -1
    tag: str = ""
    survivability: "SurvivabilityTarget | None" = None

    def __post_init__(self) -> None:
        d = as_int_vector(self.demand, name="demand")
        if d.sum() == 0:
            raise ValidationError("request must ask for at least one VM")
        d.flags.writeable = False
        object.__setattr__(self, "demand", d)
        if self.request_id < 0:
            object.__setattr__(self, "request_id", next(_request_counter))
        if self.survivability is not None:
            from repro.core.reliability import SurvivabilityTarget

            if isinstance(self.survivability, dict):
                object.__setattr__(
                    self,
                    "survivability",
                    SurvivabilityTarget.from_dict(self.survivability),
                )
            elif not isinstance(self.survivability, SurvivabilityTarget):
                raise ValidationError(
                    "survivability must be a SurvivabilityTarget, a dict, "
                    f"or None; got {type(self.survivability).__name__}"
                )

    @property
    def total_vms(self) -> int:
        """Total VM instances requested, summed over types."""
        return int(self.demand.sum())

    @property
    def num_types(self) -> int:
        return int(self.demand.shape[0])

    def __repr__(self) -> str:
        extra = (
            f", survivability={self.survivability.to_dict()}"
            if self.survivability is not None
            else ""
        )
        return (
            f"VirtualClusterRequest(id={self.request_id}, "
            f"demand={self.demand.tolist()}{extra})"
        )


@dataclass(frozen=True)
class Allocation:
    """A concrete virtual cluster: the matrix ``C`` plus its central node.

    ``matrix[i, j]`` is the number of type-``j`` VMs placed on node ``N_i``.
    ``center`` is the node index realizing ``DC(C)`` (or a caller-forced
    center); ``distance`` caches the DC value with respect to ``center``.
    :attr:`rows` lists the nodes the allocation touches, so a pool can
    commit or release it in O(touched rows) rather than O(n·m).
    """

    matrix: np.ndarray
    center: int
    distance: float

    def __post_init__(self) -> None:
        self._adopt(as_int_matrix(self.matrix, name="allocation matrix"))

    def _adopt(self, m: np.ndarray) -> None:
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        if not (0 <= self.center < m.shape[0]):
            raise ValidationError(
                f"center {self.center} out of range for {m.shape[0]} nodes"
            )
        if self.distance < 0:
            raise ValidationError("distance must be non-negative")

    # ------------------------------------------------------------ constructors

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, dist: np.ndarray) -> "Allocation":
        """Build an allocation, computing the optimal center from ``dist``."""
        m = as_int_matrix(matrix, name="allocation matrix")
        dc, center = cluster_distance(m, dist)
        return cls(matrix=m, center=center, distance=dc)

    @classmethod
    def from_rows(
        cls, matrix: np.ndarray, rows: np.ndarray, center: int, distance: float
    ) -> "Allocation":
        """Adopt a fresh ``int64`` *matrix* whose entries the caller already
        checked (non-negative, not shared) with its ascending nonzero
        *rows*: no dense re-validation, no row scan. For decoders that
        check each sparse entry as they write it."""
        allocation = object.__new__(cls)
        object.__setattr__(allocation, "center", center)
        object.__setattr__(allocation, "distance", distance)
        allocation._adopt(matrix)
        rows.flags.writeable = False
        allocation.__dict__["rows"] = rows  # what the cached property holds
        return allocation

    @classmethod
    def with_center(
        cls, matrix: np.ndarray, dist: np.ndarray, center: int
    ) -> "Allocation":
        """Build an allocation with a caller-chosen (possibly suboptimal) center."""
        m = as_int_matrix(matrix, name="allocation matrix")
        dc = distance_with_center(m, dist, center)
        return cls(matrix=m, center=center, distance=dc)

    # -------------------------------------------------------------- properties

    @cached_property
    def rows(self) -> np.ndarray:
        """Ascending indices of the nonzero rows of :attr:`matrix`
        (read-only, computed once: the matrix is immutable)."""
        rows = np.flatnonzero(self.matrix.any(axis=1))
        rows.flags.writeable = False
        return rows

    @property
    def node_counts(self) -> np.ndarray:
        """Per-node VM counts ``Σ_j C[i, j]``."""
        return self.matrix.sum(axis=1)

    @property
    def total_vms(self) -> int:
        return int(self.matrix.sum())

    @property
    def demand(self) -> np.ndarray:
        """The request vector this allocation serves: ``Σ_i C[i, j]``."""
        return self.matrix.sum(axis=0)

    @property
    def used_nodes(self) -> np.ndarray:
        """Indices of nodes hosting at least one VM."""
        return np.flatnonzero(self.node_counts > 0)

    @property
    def num_nodes_used(self) -> int:
        return int(np.count_nonzero(self.node_counts))

    def serves(self, request: VirtualClusterRequest) -> bool:
        """True if this allocation exactly satisfies *request*."""
        return bool(np.array_equal(self.demand, request.demand))

    def fits(self, remaining: np.ndarray) -> bool:
        """True if this allocation fits inside a remaining-capacity matrix."""
        return bool(np.all(self.matrix <= remaining))

    def recentered(self, dist: np.ndarray) -> "Allocation":
        """Return a copy whose center is re-optimized for ``dist``."""
        return Allocation.from_matrix(self.matrix, dist)

    def vm_placements(self) -> list[tuple[int, int]]:
        """Expand to one ``(node, type)`` pair per VM instance.

        Ordered by node then type; used to instantiate the MapReduce
        simulator's virtual cluster.
        """
        out: list[tuple[int, int]] = []
        for i, j in np.argwhere(self.matrix > 0):
            out.extend([(int(i), int(j))] * int(self.matrix[i, j]))
        return out

    def __repr__(self) -> str:
        return (
            f"Allocation(vms={self.total_vms}, nodes={self.num_nodes_used}, "
            f"center={self.center}, distance={self.distance:g})"
        )
