"""Dynamic resource pools: node failure, recovery, and live distances.

The paper's conclusion names this as future work: "How to compute [distance]
values when some VMs are down or reconfigured is critical for the VM
placement policy." :class:`DynamicResourcePool` extends the static pool with
a per-node liveness mask:

* a **failed** node contributes no capacity (placements avoid it), and the
  VMs it hosted are reported as *lost* so the provider can re-place them
  (see :mod:`repro.core.migration`);
* the **effective distance matrix** marks failed nodes unreachable (a large
  finite sentinel — see :attr:`DynamicResourcePool.UNREACHABLE`), so
  distance-driven algorithms route around them without code changes — every
  solver in :mod:`repro.core` consumes whatever matrix the pool exposes;
* **reconfiguration** changes a live node's capacity row in place, modeling
  providers resizing their fleet.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.distance import DistanceModel
from repro.cluster.resources import ResourcePool
from repro.cluster.topology import Topology
from repro.cluster.vmtypes import VMTypeCatalog
from repro.util.errors import CapacityError, ValidationError
from repro.util.validation import as_int_vector


class DynamicResourcePool(ResourcePool):
    """A resource pool whose nodes can fail, recover, and be reconfigured.

    All base-class invariants hold over *live* nodes; failed nodes expose
    zero remaining capacity and infinite distance. Allocations recorded on a
    node when it fails remain tracked (the provider owns eviction policy) —
    :meth:`lost_vms` reports them.
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
        self._active = np.ones(self.num_nodes, dtype=bool)
        self._reconfigured = self._max.copy(order="F")

    # ---------------------------------------------------------------- state

    @property
    def active_nodes(self) -> np.ndarray:
        """Boolean liveness mask (copy)."""
        return self._active.copy()

    @property
    def num_active_nodes(self) -> int:
        return int(self._active.sum())

    def is_active(self, node_id: int) -> bool:
        """True when *node_id* is live (not failed)."""
        return bool(self._active[node_id])

    # ------------------------------------------------------------- overrides

    @property
    def max_capacity(self) -> np.ndarray:
        """Effective ``M``: reconfigured capacities, zero on failed nodes."""
        eff = self._reconfigured * self._active[:, None]
        eff.flags.writeable = False
        return eff

    @property
    def max_node_capacity(self) -> np.ndarray:
        """Per type, the largest effective single-node capacity: a
        reconfiguration may raise a row of ``M``."""
        return self.max_capacity.max(axis=0)

    @property
    def remaining(self) -> np.ndarray:
        """Effective ``L``: failed nodes offer nothing; a live node whose
        reconfigured capacity dropped below its current allocation offers
        nothing (it is over-committed until leases drain)."""
        eff = self._reconfigured * self._active[:, None]
        return np.maximum(eff - self._alloc, 0)

    #: Distance assigned to failed nodes. A large *finite* value rather than
    #: ``inf`` because the vectorized DC computation multiplies distances by
    #: (possibly zero) VM counts, and ``0 * inf`` is NaN.
    UNREACHABLE: float = 1e9

    @property
    def distance_matrix(self) -> np.ndarray:
        """Effective ``D``: rows/columns of failed nodes are unreachable."""
        d = np.array(self._distance)  # writable copy of the static matrix
        dead = ~self._active
        if dead.any():
            d[dead, :] = self.UNREACHABLE
            d[:, dead] = self.UNREACHABLE
            np.fill_diagonal(d, 0.0)
        d.flags.writeable = False
        return d

    @property
    def static_distance_matrix(self) -> np.ndarray:
        """The underlying physical distances, ignoring liveness."""
        return self._distance

    def allocate(self, allocation: np.ndarray) -> None:
        """Reject any allocation touching a failed node, then delegate."""
        a = np.asarray(allocation)
        if a.shape == (self.num_nodes, self.num_types):
            on_dead = a[~self._active]
            if on_dead.size and on_dead.sum() > 0:
                raise CapacityError("allocation places VMs on failed node(s)")
        super().allocate(allocation)

    # --------------------------------------------------------------- failure

    def fail_node(self, node_id: int) -> np.ndarray:
        """Mark *node_id* failed; returns the allocation row lost on it.

        Idempotent in effect but raises on double-failure so callers notice
        event bugs.
        """
        if not (0 <= node_id < self.num_nodes):
            raise ValidationError(f"node {node_id} out of range")
        if not self._active[node_id]:
            raise ValidationError(f"node {node_id} is already failed")
        self._active[node_id] = False
        return self._alloc[node_id].copy()

    def recover_node(self, node_id: int) -> None:
        """Bring a failed node back; its previous allocations were evicted
        by the provider, so its row of ``C`` must be zero by then."""
        if self._active[node_id]:
            raise ValidationError(f"node {node_id} is not failed")
        self._active[node_id] = True

    def evict_node(self, node_id: int) -> np.ndarray:
        """Zero the allocation row of a (typically failed) node and return
        what was evicted — the provider calls this when it re-places the
        lost VMs elsewhere."""
        lost = self._alloc[node_id].copy()
        self._alloc[node_id] = 0
        return lost

    def lost_vms(self) -> np.ndarray:
        """Allocation rows currently stranded on failed nodes (n × m)."""
        stranded = np.zeros_like(self._alloc)
        dead = ~self._active
        stranded[dead] = self._alloc[dead]
        return stranded

    # ---------------------------------------------------------- reconfigure

    def reconfigure_node(self, node_id: int, capacity) -> None:
        """Resize a node's per-type capacity row (the paper's
        "reconfigured" case). Shrinking below current allocation is allowed
        — the node simply offers no remaining capacity until leases drain."""
        cap = as_int_vector(capacity, name="capacity", length=self.num_types)
        if not self._active[node_id]:
            raise ValidationError(f"cannot reconfigure failed node {node_id}")
        self._reconfigured[node_id] = cap

    def copy(self) -> "DynamicResourcePool":
        """Deep copy carrying liveness and reconfiguration state."""
        clone = DynamicResourcePool(
            self._topology,
            self._catalog,
            distance_model=self._model,
            allocated=self._alloc,
            cache=self._cache,
        )
        clone._active = self._active.copy()
        clone._reconfigured = self._reconfigured.copy(order="F")
        return clone
