"""Per-topology tier structure for the placement kernels and the router.

A long-lived allocator knows one thing its per-request code can exploit: the
physical topology is immutable while allocations churn, and the paper's
distance matrix has only four values — ``0 < d1 < d2 < d3`` for same node /
same rack / same cloud / elsewhere. For a fixed center the cluster distance
therefore depends only on *how much of the demand each tier fills*, and a
tier is a rack or a cloud, not a row of ``D``. Everything here is O(n):

* ``rack_ids`` / ``cloud_ids`` — node → rack / cloud, as the topology has
  them (the fill order's tier key is two equality tests on these);
* ``tier_distances`` — ``(d1, d2, d3)`` from the distance model, and
  ``exact_tiers`` — whether all three lie on the ``2⁻¹⁰`` grid (every
  integer model, the paper's 1/2/4 included);
* the **tier algebra**, the one place both of these live for the kernels,
  the router and the transfer search: :func:`tier_dc`, the closed-form
  ``dc`` of a center from how much of the demand each tier takes, and
  :meth:`TopologyCache.exact_for`, whether sums over a given number of VMs
  are exact in float64 — where the closed form *is* the reference ``dc``
  rather than an approximation of it;
* the **rack grouping** — ``rack_order`` lists the nodes rack by rack,
  ``rack_starts[r]`` is where dense rack ``r`` begins in it and
  ``rack_index[i]`` is node ``i``'s dense rack (ascending rack id, the
  order of ``topology.racks``), so per-rack free capacity is one
  ``np.add.reduceat`` over ``remaining[rack_order]``
  (:meth:`TopologyCache.per_rack`) — and a
  :class:`~repro.service.state.ClusterState` keeps the same rows current
  on every commit (``rack_free``);
* the **rack → cloud map** — the same triple one level up
  (``cloud_order`` over dense racks, ``cloud_starts``, and ``rack_cloud[r]``,
  dense rack ``r``'s dense cloud; :meth:`TopologyCache.per_cloud`), plus
  ``cloud_index[i]``, node ``i``'s dense cloud. With it the kernels price a
  rack from the ``(racks × m)`` aggregates alone, and
  :meth:`TopologyCache.rack_nodes` hands them one rack's nodes without a
  pass over the pool.

**Invariants.** The structure is a function of the topology and the distance
model only, so allocation churn never invalidates it — and neither does node
failure: a failed node exposes zero remaining capacity (it adds nothing to
any aggregate and takes nothing in any fill) and distances between live
nodes never change, so :class:`~repro.cluster.dynamics.DynamicResourcePool`
shares the same cache whatever its liveness mask. ``copy()``/``snapshot()``
share the cache: it is read-only and keyed by object identity of the
topology and equality of the distance model.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.distance import DistanceModel, build_distance_matrix
from repro.cluster.topology import Topology

#: Tier distances that are multiples of ``1 / EXACT_GRID`` make every cluster
#: distance a multiple of it too; below ``2⁵³ / EXACT_GRID`` such sums are
#: exact in float64 whatever the summation order.
EXACT_GRID = 1024.0


def tier_dc(tiers, own, rack, cloud, total):
    """Algorithm 1's ``dc`` from the running takes of a nearest-first fill.

    A fill around a center takes ``own`` VMs on the center, ``rack`` in all
    on its rack, ``cloud`` on its cloud and ``total`` overall, with
    ``own ≤ rack ≤ cloud ≤ total`` — each the running ``min(supply, need)``
    of its tier, since within one tier the take per type does not depend on
    the node order (``min(Σ min(Lᵢ, R), todo) = min(ΣLᵢ, todo)``). Each VM
    then sits ``0``, ``d1``, ``d2`` or ``d3`` from the center, which gives
    ``d1·(rack − own) + d2·(cloud − rack) + d3·(total − cloud)``.
    *tiers* is ``(d1, d2, d3)``, scalars or arrays; the takes broadcast.
    The value equals the reference ``dc`` up to summation order, and
    exactly where :meth:`TopologyCache.exact_for` holds.
    """
    d1, d2, d3 = tiers
    return d1 * (rack - own) + d2 * (cloud - rack) + d3 * (total - cloud)


def dense_index(ids: np.ndarray) -> np.ndarray:
    """Each position's dense group: the rank of its id among the distinct
    *ids*, ascending. For rack ids that is the row of the rack in
    ``topology.racks``, the row order of every per-rack aggregate."""
    return np.unique(ids, return_inverse=True)[1].reshape(-1)


def _grouping(ids: np.ndarray) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """``(order, starts, index)`` grouping positions by equal *ids*.

    ``index`` is the dense group of each position (:func:`dense_index`),
    ``order`` lists positions group by group (ascending inside a group) and
    ``starts`` marks each group's first slot in ``order`` — the
    ``np.add.reduceat`` offsets. All three come back read-only.
    """
    index = dense_index(ids)
    order = np.argsort(index, kind="stable")
    starts = np.searchsorted(index[order], np.arange(index.max() + 1))
    for arr in (order, starts, index):
        arr.flags.writeable = False
    return order, starts, index


class TopologyCache:
    """Immutable tier structure shared by all pools on a topology.

    Build via :meth:`build`; all arrays are read-only. See the module
    docstring for the field semantics and validity invariants.
    """

    __slots__ = (
        "topology",
        "model",
        "distance",
        "rack_ids",
        "cloud_ids",
        "tier_distances",
        "exact_tiers",
        "rack_order",
        "rack_starts",
        "rack_index",
        "cloud_order",
        "cloud_starts",
        "rack_cloud",
        "cloud_index",
    )

    def __init__(
        self, topology: Topology, model: DistanceModel, distance: np.ndarray
    ) -> None:
        self.topology = topology
        self.model = model
        self.distance = distance
        self.rack_ids = np.asarray(topology.rack_ids, dtype=np.int64)
        self.cloud_ids = np.asarray(topology.cloud_ids, dtype=np.int64)
        self.tier_distances = tuple(
            float(d) for d in (model.intra_rack, model.inter_rack, model.inter_cloud)
        )
        self.exact_tiers = all(
            (d * EXACT_GRID).is_integer() for d in self.tier_distances
        )
        self.rack_order, self.rack_starts, self.rack_index = _grouping(
            self.rack_ids
        )
        # A rack lies in one cloud (Topology enforces it), so any member
        # names the rack's cloud.
        rack_cloud_ids = self.cloud_ids[self.rack_order[self.rack_starts]]
        self.cloud_order, self.cloud_starts, self.rack_cloud = _grouping(
            rack_cloud_ids
        )
        self.cloud_index = self.rack_cloud[self.rack_index]
        self.cloud_index.flags.writeable = False

    @classmethod
    def build(
        cls,
        topology: Topology,
        model: DistanceModel | None = None,
        *,
        distance: np.ndarray | None = None,
    ) -> "TopologyCache":
        """Derive the cache from *topology* (and *distance*, if prebuilt)."""
        model = model or DistanceModel()
        if distance is None:
            distance = build_distance_matrix(topology, model)
            distance.flags.writeable = False
        return cls(topology, model, distance)

    def exact_for(self, vms: int) -> bool:
        """Whether tier sums over *vms* VMs are exact floats.

        On-grid tier distances (``exact_tiers``) make every cluster distance
        and every :func:`tier_dc` value over *vms* VMs a multiple of
        ``1 / EXACT_GRID``, and none exceeds ``vms · d3`` (each VM sits at
        most ``d3`` away). Below ``2⁵³ / EXACT_GRID`` every product and
        partial sum of such values is exactly representable, so any two
        summation orders give the same float.
        """
        return (
            self.exact_tiers
            and vms * self.tier_distances[2] < 2.0**53 / EXACT_GRID
        )

    def matches(self, topology: Topology, model: DistanceModel) -> bool:
        """Whether this cache was built for exactly this topology + model."""
        return self.topology is topology and self.model == model

    def per_rack(self, values: np.ndarray) -> np.ndarray:
        """Sum per-node rows of *values* ``(n, …)`` into dense racks ``(r, …)``."""
        return np.add.reduceat(values[self.rack_order], self.rack_starts, axis=0)

    def rack_nodes(self, rack: int) -> np.ndarray:
        """The nodes of dense rack *rack*, ascending (a read-only view)."""
        start = self.rack_starts[rack]
        stop = (
            self.rack_starts[rack + 1]
            if rack + 1 < self.rack_starts.size
            else self.rack_order.size
        )
        return self.rack_order[start:stop]

    def per_cloud(self, rack_values: np.ndarray) -> np.ndarray:
        """Sum :meth:`per_rack` rows ``(r, …)`` into dense clouds ``(q, …)``."""
        return np.add.reduceat(
            rack_values[self.cloud_order], self.cloud_starts, axis=0
        )

    @property
    def num_nodes(self) -> int:
        return self.distance.shape[0]

    def __repr__(self) -> str:
        return f"TopologyCache(nodes={self.num_nodes})"
