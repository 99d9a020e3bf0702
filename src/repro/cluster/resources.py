"""Resource pool: the mutable allocation state of a cloud.

Implements the paper's Section II data structures over a
:class:`~repro.cluster.topology.Topology`:

* ``M`` (n × m) — maximum VMs of each type each node can provide,
* ``C`` (n × m) — VMs currently allocated on each node,
* ``L = M − C`` (n × m) — remaining capacity,
* ``A[j] = Σ_i L[i, j]`` — total available VMs per type.

A request ``R`` is *refusable* when ``R[j] > Σ_i M[i, j]`` for some type
(it can never fit) and must *wait* when ``R[j] > A[j]`` (it fits once
resources free up) — both predicates are exposed.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.distance import DistanceModel, build_distance_matrix
from repro.cluster.topocache import TopologyCache
from repro.cluster.topology import Topology
from repro.cluster.vmtypes import VMTypeCatalog
from repro.util.errors import CapacityError, ValidationError
from repro.util.validation import (
    as_int_matrix,
    as_int_vector,
    check_nonnegative,
)


class ResourcePool:
    """Mutable pool of VM capacity over a physical topology.

    Parameters
    ----------
    topology:
        The physical hierarchy; per-node capacities form ``M``.
    catalog:
        VM type catalog fixing column order (must have ``m`` entries equal to
        the topology's capacity-vector length).
    distance_model:
        Hierarchical weights used to derive the distance matrix ``D``.
    allocated:
        Optional initial ``C`` matrix (defaults to all-zero).
    cache:
        Optional :class:`~repro.cluster.topocache.TopologyCache` to adopt.
        When it matches this topology and distance model, the pool reuses
        its distance matrix (skipping the O(n²) rebuild) and its tier
        structure; a mismatched cache is silently ignored. ``copy()`` passes
        the cache along, so working copies share one set of structures.
    """

    def __init__(
        self,
        topology: Topology,
        catalog: VMTypeCatalog,
        *,
        distance_model: DistanceModel | None = None,
        allocated: np.ndarray | None = None,
        cache: TopologyCache | None = None,
    ) -> None:
        if len(catalog) != topology.num_types:
            raise ValidationError(
                f"catalog has {len(catalog)} types but topology capacity rows "
                f"have length {topology.num_types}"
            )
        self._topology = topology
        self._catalog = catalog
        self._model = distance_model or DistanceModel()
        # Pool-shaped matrices are stored type-major (column-major): the
        # per-node reductions of Algorithm 1 (``axis=1`` over m types) then
        # read m contiguous columns instead of n strided rows.
        self._max = np.asfortranarray(topology.capacity_matrix())
        n, m = self._max.shape
        # M never changes: its per-type largest node bounds every row of L.
        self._node_max = self._max.max(axis=0)
        if allocated is None:
            self._alloc = np.zeros((n, m), dtype=np.int64, order="F")
        else:
            self._alloc = np.asfortranarray(
                as_int_matrix(allocated, name="allocated", shape=(n, m))
            )
            if np.any(self._alloc > self._max):
                raise CapacityError("initial allocation exceeds node capacities")
        if cache is not None and cache.matches(topology, self._model):
            self._cache: TopologyCache | None = cache
            self._distance = cache.distance
        else:
            self._cache = None
            self._distance = build_distance_matrix(topology, self._model)
            self._distance.flags.writeable = False

    # ------------------------------------------------------------ construction

    @classmethod
    def from_table(
        cls,
        rows: "list[tuple[int, int, str, int]]",
        catalog: VMTypeCatalog,
        *,
        distance_model: DistanceModel | None = None,
        cloud_of_rack: "dict[int, int] | None" = None,
    ) -> "ResourcePool":
        """Build a pool from Table-II style rows ``(rack, node, type, count)``.

        Each row states that node ``node`` in rack ``rack`` may provide
        ``count`` instances of VM type ``type``. Node and rack ids must be
        dense (0-based after normalization).
        """
        if not rows:
            raise ValidationError("from_table requires at least one row")
        node_ids = sorted({r[1] for r in rows})
        rack_ids = sorted({r[0] for r in rows})
        node_index = {nid: i for i, nid in enumerate(node_ids)}
        rack_index = {rid: i for i, rid in enumerate(rack_ids)}
        m = len(catalog)
        caps = np.zeros((len(node_ids), m), dtype=np.int64)
        node_rack: dict[int, int] = {}
        for rack, node, tname, count in rows:
            i = node_index[node]
            prev = node_rack.setdefault(i, rack_index[rack])
            if prev != rack_index[rack]:
                raise ValidationError(f"node {node} appears in two racks")
            caps[i, catalog.index_of(tname)] += int(count)
        from repro.cluster.node import PhysicalNode

        cloud_of_rack = cloud_of_rack or {}
        nodes = [
            PhysicalNode(
                node_id=i,
                rack_id=node_rack[i],
                cloud_id=cloud_of_rack.get(node_rack[i], 0),
                capacity=caps[i],
            )
            for i in range(len(node_ids))
        ]
        return cls(Topology(nodes), catalog, distance_model=distance_model)

    # ---------------------------------------------------------------- matrices

    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def catalog(self) -> VMTypeCatalog:
        return self._catalog

    @property
    def distance_model(self) -> DistanceModel:
        return self._model

    @property
    def num_nodes(self) -> int:
        return self._max.shape[0]

    @property
    def num_types(self) -> int:
        return self._max.shape[1]

    @property
    def max_capacity(self) -> np.ndarray:
        """``M`` — read-only view."""
        v = self._max.view()
        v.flags.writeable = False
        return v

    @property
    def max_node_capacity(self) -> np.ndarray:
        """Per type, the largest single-node capacity ``max_i M[i, j]``
        (read-only). No row of :attr:`remaining` exceeds it, so a request
        with ``R[j]`` above it fits on no single node."""
        v = self._node_max.view()
        v.flags.writeable = False
        return v

    @property
    def allocated(self) -> np.ndarray:
        """``C`` — copy of the current allocation matrix."""
        return self._alloc.copy()

    @property
    def remaining(self) -> np.ndarray:
        """``L = M − C`` — freshly computed each call."""
        return self._max - self._alloc

    @property
    def available(self) -> np.ndarray:
        """``A[j] = Σ_i L[i, j]`` — per-type availability vector.

        Routed through :attr:`remaining` so subclasses that redefine
        effective capacity (e.g. failure-aware pools) stay consistent.
        """
        return self.remaining.sum(axis=0)

    @property
    def rack_free(self) -> np.ndarray:
        """Per-rack free capacity ``(num_racks, m)``, row ``r`` being rack
        ``topology.racks[r]`` (ascending rack id) — one
        :meth:`TopologyCache.per_rack` over :attr:`remaining`. Incremental
        pools maintain it instead."""
        return self.topology_cache.per_rack(self.remaining)

    @property
    def distance_matrix(self) -> np.ndarray:
        """``D`` — read-only n × n distance matrix."""
        return self._distance

    @property
    def topology_cache(self) -> TopologyCache:
        """The topology's tier structure (rack/cloud groupings and the three
        tier distances) for the placement kernels and the shard router.

        Built lazily on first access, O(n), and shared by :meth:`copy`. It
        depends on the topology and the distance model only, so it stays
        valid under allocation churn and under node failure alike (see
        :mod:`repro.cluster.topocache` for the argument).
        """
        if self._cache is None:
            self._cache = TopologyCache.build(
                self._topology, self._model, distance=self._distance
            )
        return self._cache

    @property
    def utilization(self) -> float:
        """Fraction of total VM slots currently allocated (0 when empty pool)."""
        total = self.max_capacity.sum()
        return float(self._alloc.sum() / total) if total else 0.0

    # --------------------------------------------------------------- predicates

    def _request(self, request) -> np.ndarray:
        """*request* as a validated ``int64`` vector of length m.

        An ``int64`` vector of the right length — what
        :func:`~repro.core.placement.base.normalize_request` and
        :class:`~repro.core.problem.VirtualClusterRequest` hand over — only
        needs the sign check and is read in place; anything else goes
        through :func:`as_int_vector`, with its errors.
        """
        if (
            isinstance(request, np.ndarray)
            and request.dtype == np.int64
            and request.shape == (self.num_types,)
        ):
            check_nonnegative(request, name="request")
            return request
        return as_int_vector(request, name="request", length=self.num_types)

    def exceeds_max_capacity(self, request: np.ndarray) -> bool:
        """True if *request* can never be served (paper: refuse outright)."""
        r = self._request(request)
        return bool(np.any(r > self.max_capacity.sum(axis=0)))

    def can_satisfy(self, request: np.ndarray) -> bool:
        """True if current availability covers *request* (``R ≤ A``)."""
        r = self._request(request)
        return bool(np.all(r <= self.available))

    # --------------------------------------------------------------- mutation

    def allocate(self, allocation: np.ndarray) -> None:
        """Commit an allocation matrix ``C_req`` to the pool (``C += C_req``).

        Raises :class:`CapacityError` if any entry would exceed remaining
        capacity; the pool is unchanged on failure.
        """
        a = as_int_matrix(
            allocation, name="allocation", shape=(self.num_nodes, self.num_types)
        )
        if np.any(a > self.remaining):
            bad = np.argwhere(a > self.remaining)
            i, j = bad[0]
            raise CapacityError(
                f"allocation exceeds remaining capacity at node {i}, type {j}: "
                f"want {a[i, j]}, have {self.remaining[i, j]}"
            )
        self._alloc += a

    def release(self, allocation: np.ndarray) -> None:
        """Return an allocation to the pool (``C −= C_req``).

        Raises :class:`CapacityError` if more would be released than is
        allocated; the pool is unchanged on failure.
        """
        a = as_int_matrix(
            allocation, name="allocation", shape=(self.num_nodes, self.num_types)
        )
        if np.any(a > self._alloc):
            bad = np.argwhere(a > self._alloc)
            i, j = bad[0]
            raise CapacityError(
                f"release exceeds allocation at node {i}, type {j}: "
                f"releasing {a[i, j]}, allocated {self._alloc[i, j]}"
            )
        self._alloc -= a

    # ----------------------------------------------------------------- copies

    def snapshot(self) -> np.ndarray:
        """Return the current ``C`` for later :meth:`restore`."""
        return self._alloc.copy()

    def restore(self, snapshot: np.ndarray) -> None:
        """Reset ``C`` to a previously captured :meth:`snapshot`."""
        s = as_int_matrix(
            snapshot, name="snapshot", shape=(self.num_nodes, self.num_types)
        )
        if np.any(s > self._max):
            raise CapacityError("snapshot exceeds node capacities")
        self._alloc = np.asfortranarray(s)  # s is already a private copy

    def copy(self) -> "ResourcePool":
        """Deep copy sharing the immutable topology/catalog/distances."""
        return ResourcePool(
            self._topology,
            self._catalog,
            distance_model=self._model,
            allocated=self._alloc,
            cache=self.topology_cache,
        )

    def __repr__(self) -> str:
        return (
            f"ResourcePool(nodes={self.num_nodes}, types={self.num_types}, "
            f"allocated={int(self._alloc.sum())}/{int(self._max.sum())})"
        )
