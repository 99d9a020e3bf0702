"""Incremental cluster state for the online placement service.

A long-lived allocator cannot afford to rebuild pool state per request:
constructing a :class:`~repro.cluster.resources.ResourcePool` stacks the
capacity matrix and rebuilds the O(n²) distance matrix, and a stateless
server would additionally have to replay every active lease to recover ``C``.
:class:`ClusterState` keeps all of that warm across allocate/release
operations:

* ``L = M − C`` (free capacity) is updated in place instead of recomputed,
* the per-type availability vector ``A`` and per-rack free aggregates are
  maintained incrementally — the per-rack rows in the
  :class:`~repro.cluster.topocache.TopologyCache`'s dense rack order, so
  Algorithm 1's tier screen reads them (``rack_free``) instead of
  re-reducing ``L`` per request,
* every commit, release and swap touches only the rows its allocation
  occupies (:attr:`~repro.core.problem.Allocation.rows`): O(touched rows),
  not O(n·m), per lease operation,
* every ``(nodes × m)`` and ``(racks × m)`` matrix is kept type-major
  (column-major, as :class:`~repro.cluster.resources.ResourcePool` stores
  ``M`` and ``C``) on every path that rebuilds one, so the per-node
  reductions of Algorithm 1 read m contiguous columns,
* the distance matrix is inherited (cached) from the pool construction and
  never rebuilt,
* every active allocation is tracked in a lease ledger keyed by request id so
  releases arrive as ids on the wire, not matrices,
* a monotonically increasing version stamps every mutation, giving cheap
  versioned snapshots (and letting a checkpoint say exactly which state it
  captured),
* an optional change journal records every ledger mutation by the version
  it produced, so a supervisor can replicate what changed rather than the
  whole state, and a proc worker can stream it to the parent's mirror.

``ClusterState`` *is a* ``ResourcePool``, so every placement algorithm in
:mod:`repro.core.placement` runs against it unchanged — the differential
guarantee that the service places exactly like a direct
:class:`~repro.core.placement.greedy.OnlineHeuristic` call falls out of this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.cluster.distance import DistanceModel
from repro.cluster.resources import ResourcePool
from repro.cluster.topocache import dense_index
from repro.cluster.topology import Topology
from repro.cluster.vmtypes import VMTypeCatalog
from repro.core.problem import Allocation
from repro.util.errors import CapacityError, ValidationError
from repro.util.validation import as_int_matrix


@dataclass(frozen=True)
class StateSnapshot:
    """A point-in-time capture of a :class:`ClusterState`.

    ``allocated`` is a defensive copy of ``C``; ``leases`` maps request id to
    the :class:`~repro.core.problem.Allocation` held at capture time
    (allocations are immutable, so sharing them is safe).
    ``lease_targets`` carries the survivability targets of the (usually
    few) leases that have one — immutable, shared like the allocations.
    """

    version: int
    allocated: np.ndarray
    leases: dict[int, Allocation]
    lease_targets: dict = None  # dict[int, SurvivabilityTarget]; None ≡ {}

    def __post_init__(self) -> None:
        if self.lease_targets is None:
            object.__setattr__(self, "lease_targets", {})


class JournalRecord(NamedTuple):
    """One journaled mutation, keyed by the state version it produced.

    ``allocation`` is the committed lease (``None`` for a release) and
    ``target`` its survivability target. ``request_id`` is ``None`` for a
    non-ledger mutation — a raw allocate/release or a restore — which no
    sequence of lease operations can replay: it breaks the journal's
    contiguity.
    """

    version: int
    request_id: "int | None"
    allocation: "Allocation | None" = None
    target: object = None


class ClusterState(ResourcePool):
    """A :class:`ResourcePool` with incremental aggregates and a lease ledger.

    All mutation goes through :meth:`allocate`/:meth:`release` (raw matrices)
    or :meth:`allocate_lease`/:meth:`release_lease` (ledger-tracked); both
    paths keep the cached free-capacity matrix, availability vector, and
    per-rack aggregates exact and bump :attr:`version`.

    The journal is off (zero cost) until a reader calls :meth:`subscribe`;
    then every mutation appends one :class:`JournalRecord` to each reader's
    list, and each reader trims only what it has consumed.
    """

    def __init__(
        self,
        topology: Topology,
        catalog: VMTypeCatalog,
        *,
        distance_model: DistanceModel | None = None,
        allocated: np.ndarray | None = None,
        cache=None,
    ) -> None:
        super().__init__(
            topology,
            catalog,
            distance_model=distance_model,
            allocated=allocated,
            cache=cache,
        )
        # Node → row of ``topology.racks``: the TopologyCache's dense rack
        # order, whatever the rack ids are.
        self._rack_index = dense_index(topology.rack_ids)
        self._num_racks = topology.num_racks
        # M never changes on a ClusterState: its column sums are taken once.
        self._max_total = self._max.sum(axis=0)
        self._leases: dict[int, Allocation] = {}
        self._lease_targets: dict[int, object] = {}
        self._lease_sum = np.zeros_like(self._alloc)
        self._version = 0
        self._journals: "list[list[JournalRecord]]" = []
        self._rebuild_aggregates()

    @classmethod
    def from_pool(cls, pool: ResourcePool) -> "ClusterState":
        """Adopt an existing pool's topology, catalog, and allocations."""
        return cls(
            pool.topology,
            pool.catalog,
            distance_model=pool.distance_model,
            allocated=pool.allocated,
            cache=pool.topology_cache,
        )

    # ----------------------------------------------------------- aggregates

    def _per_rack(self, values: np.ndarray) -> np.ndarray:
        shape = (self._num_racks, self.num_types)
        out = np.zeros(shape, dtype=np.int64, order="F")
        np.add.at(out, self._rack_index, values)
        return out

    def _rebuild_aggregates(self) -> None:
        self._free = self._max - self._alloc
        self._avail = self._free.sum(axis=0)
        self._rack_free = self._per_rack(self._free)

    @property
    def remaining(self) -> np.ndarray:
        """``L`` from the incremental cache (read-only view, no recompute)."""
        v = self._free.view()
        v.flags.writeable = False
        return v

    @property
    def available(self) -> np.ndarray:
        """``A`` from the incremental cache (copy)."""
        return self._avail.copy()

    @property
    def rack_free(self) -> np.ndarray:
        """Per-rack free capacity (num_racks × m, read-only view).

        Row ``r`` is rack ``topology.racks[r]`` (ascending rack id), the
        dense order of ``topology_cache.per_rack``: the two are equal, so
        the placement kernels take this in place of recomputing it.
        """
        v = self._rack_free.view()
        v.flags.writeable = False
        return v

    @property
    def version(self) -> int:
        """Mutation counter; bumps on every allocate/release/restore."""
        return self._version

    def exceeds_max_capacity(self, request: np.ndarray) -> bool:
        return bool(np.any(self._request(request) > self._max_total))

    def can_satisfy(self, request: np.ndarray) -> bool:
        return bool(np.all(self._request(request) <= self._avail))

    # ------------------------------------------------------------- mutation

    def allocate(self, allocation: np.ndarray) -> None:
        self._take(*self._touched(allocation))
        self._record(None)

    def release(self, allocation: np.ndarray) -> None:
        self._give(*self._touched(allocation))
        self._record(None)

    def restore(self, snapshot: np.ndarray) -> None:
        super().restore(snapshot)
        self._rebuild_aggregates()
        self._version += 1
        self._record(None)

    def _touched(self, allocation: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """Validate a raw matrix; return its nonzero rows and their block."""
        a = as_int_matrix(
            allocation, name="allocation", shape=(self.num_nodes, self.num_types)
        )
        rows = np.flatnonzero(a.any(axis=1))
        return rows, a[rows]

    def _lease_rows(self, allocation: Allocation) -> "tuple[np.ndarray, np.ndarray]":
        """An (already validated) lease's touched rows and their block."""
        shape = (self.num_nodes, self.num_types)
        if allocation.matrix.shape != shape:
            raise ValidationError(
                f"allocation must have shape {shape}, got {allocation.matrix.shape}"
            )
        rows = allocation.rows
        return rows, allocation.matrix[rows]

    def _take(self, rows: np.ndarray, block: np.ndarray) -> None:
        """Commit *block* (``allocation[rows]``); an untouched row takes
        nothing, so only *rows* can exceed. Unchanged on failure."""
        free = self._free[rows]
        if np.any(block > free):
            r, j = np.argwhere(block > free)[0]
            raise CapacityError(
                f"allocation exceeds remaining capacity at node {rows[r]}, "
                f"type {j}: want {block[r, j]}, have {free[r, j]}"
            )
        self._shift(rows, block)

    def _give(self, rows: np.ndarray, block: np.ndarray) -> None:
        """Release *block* (``allocation[rows]``); unchanged on failure."""
        held = self._alloc[rows]
        if np.any(block > held):
            r, j = np.argwhere(block > held)[0]
            raise CapacityError(
                f"release exceeds allocation at node {rows[r]}, type {j}: "
                f"releasing {block[r, j]}, allocated {held[r, j]}"
            )
        self._shift(rows, -block)

    def _shift(self, rows: np.ndarray, delta: np.ndarray) -> None:
        # Move *delta* from free to allocated on *rows* (unique, ascending)
        # and into every aggregate.
        self._alloc[rows] += delta
        self._free[rows] -= delta
        self._avail -= delta.sum(axis=0)
        np.subtract.at(self._rack_free, self._rack_index[rows], delta)
        self._version += 1

    def subscribe(self) -> "list[JournalRecord]":
        """A new journal reader's own list of every later mutation."""
        self._journals.append([])
        return self._journals[-1]

    def _record(self, request_id, allocation=None, target=None) -> None:
        if self._journals:
            record = JournalRecord(self._version, request_id, allocation, target)
            for records in self._journals:
                records.append(record)

    # ---------------------------------------------------------------- leases

    @property
    def leases(self) -> dict[int, Allocation]:
        """Active allocations by request id (shallow copy of the ledger)."""
        return dict(self._leases)

    def lease(self, request_id: int) -> "Allocation | None":
        """*request_id*'s active allocation, or ``None`` — one ledger
        lookup, where :attr:`leases` copies the whole ledger."""
        return self._leases.get(request_id)

    @property
    def num_leases(self) -> int:
        return len(self._leases)

    def has_lease(self, request_id: int) -> bool:
        """Whether *request_id* currently holds an active lease."""
        return request_id in self._leases

    def lease_target(self, request_id: int):
        """The :class:`~repro.core.reliability.SurvivabilityTarget` attached
        to *request_id*'s lease, or ``None`` (the common case)."""
        return self._lease_targets.get(request_id)

    @property
    def lease_targets(self) -> dict:
        """Targets of survivability-constrained leases (shallow copy)."""
        return dict(self._lease_targets)

    def allocate_lease(
        self, request_id: int, allocation: Allocation, *, survivability=None
    ) -> None:
        """Commit *allocation* and record it under *request_id*.

        ``survivability`` records the request's target with the lease so
        rebalancing can leave constrained leases alone and checkpoints can
        restore the constraint.
        """
        if request_id in self._leases:
            raise ValidationError(
                f"request {request_id} already holds an active lease"
            )
        rows, block = self._lease_rows(allocation)
        self._take(rows, block)
        self._leases[request_id] = allocation
        if survivability is not None:
            self._lease_targets[request_id] = survivability
        self._lease_sum[rows] += block
        self._record(request_id, allocation, survivability)

    def release_lease(self, request_id: int) -> Allocation:
        """Free the allocation held by *request_id* and return it."""
        allocation = self._leases.pop(request_id, None)
        if allocation is None:
            raise ValidationError(f"no active lease for request {request_id}")
        self._lease_targets.pop(request_id, None)
        rows, block = self._lease_rows(allocation)
        self._give(rows, block)
        self._lease_sum[rows] -= block
        self._record(request_id)
        return allocation

    def swap_lease(self, request_id: int, allocation: Allocation) -> Allocation:
        """Replace the lease of *request_id* with *allocation* atomically.

        Used by the batch transfer phase: the old matrix is released before
        the new one is committed, so capacity-neutral exchanges always fit.
        Returns the previous allocation; on a failed commit the old lease is
        reinstated and the error propagates. The lease's survivability
        target (if any) survives the swap.
        """
        target = self._lease_targets.get(request_id)
        old = self.release_lease(request_id)
        try:
            self.allocate_lease(request_id, allocation, survivability=target)
        except Exception:
            self.allocate_lease(request_id, old, survivability=target)
            raise
        return old

    def adopt_lease(
        self, request_id: int, allocation: Allocation, *, survivability=None
    ) -> None:
        """Register a lease already counted in ``C`` (checkpoint restore).

        Unlike :meth:`allocate_lease` this does *not* mutate capacity — the
        allocation must already be part of the ``allocated`` matrix the state
        was constructed with. Coverage is checked *cumulatively*: the adopted
        leases together may never claim more of a slot than ``C`` holds, so a
        corrupt checkpoint fails here rather than leaving a ledger that no
        longer sums to ``C``.
        """
        if request_id in self._leases:
            raise ValidationError(
                f"request {request_id} already holds an active lease"
            )
        rows, block = self._lease_rows(allocation)
        if np.any(self._lease_sum[rows] + block > self._alloc[rows]):
            raise ValidationError(
                f"adopted lease {request_id} is not covered by the allocated matrix"
            )
        self._leases[request_id] = allocation
        if survivability is not None:
            self._lease_targets[request_id] = survivability
        self._lease_sum[rows] += block

    # ------------------------------------------------------------- snapshots

    def snapshot_state(self) -> StateSnapshot:
        """Capture version, ``C``, and the lease ledger."""
        return StateSnapshot(
            version=self._version,
            allocated=self._alloc.copy(),
            leases=dict(self._leases),
            lease_targets=dict(self._lease_targets),
        )

    def restore_state(self, snapshot: StateSnapshot) -> None:
        """Reset to a :meth:`snapshot_state` capture (version included)."""
        self.restore(snapshot.allocated)
        self._leases = dict(snapshot.leases)
        self._lease_targets = dict(snapshot.lease_targets)
        self._lease_sum = np.zeros_like(self._alloc)
        for allocation in self._leases.values():
            rows, block = self._lease_rows(allocation)
            self._lease_sum[rows] += block
        self._version = snapshot.version

    def copy(self) -> "ClusterState":
        """Deep copy sharing the immutable topology/catalog/distances."""
        clone = ClusterState(
            self._topology,
            self._catalog,
            distance_model=self._model,
            allocated=self._alloc,
            cache=self.topology_cache,
        )
        clone._leases = dict(self._leases)
        clone._lease_targets = dict(self._lease_targets)
        clone._lease_sum = self._lease_sum.copy(order="F")
        clone._version = self._version
        return clone

    # ---------------------------------------------------------- verification

    def verify_consistency(self, *, check_leases: bool = True) -> None:
        """Assert every incremental aggregate matches a from-scratch rescan.

        Raises :class:`ValidationError` on any divergence. With
        ``check_leases`` (the default) the summed lease matrices must equal
        ``C`` exactly — true whenever all traffic goes through the ledger.
        """
        expected_free = self._max - self._alloc
        if not np.array_equal(self._free, expected_free):
            raise ValidationError("incremental free-capacity matrix diverged")
        if not np.array_equal(self._avail, expected_free.sum(axis=0)):
            raise ValidationError("incremental availability vector diverged")
        if not np.array_equal(self._rack_free, self._per_rack(expected_free)):
            raise ValidationError("incremental per-rack aggregates diverged")
        total = np.zeros_like(self._alloc)
        for allocation in self._leases.values():
            total += allocation.matrix
        if not np.array_equal(total, self._lease_sum):
            raise ValidationError("incremental lease-sum matrix diverged")
        if check_leases and not np.array_equal(total, self._alloc):
            raise ValidationError("lease ledger does not sum to C")
        orphaned = set(self._lease_targets) - set(self._leases)
        if orphaned:
            raise ValidationError(
                f"survivability targets without leases: {sorted(orphaned)}"
            )

    def __repr__(self) -> str:
        return (
            f"ClusterState(nodes={self.num_nodes}, types={self.num_types}, "
            f"leases={len(self._leases)}, version={self._version}, "
            f"allocated={int(self._alloc.sum())}/{int(self._max.sum())})"
        )
