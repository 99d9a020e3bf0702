"""Oracles: the per-node loops the vectorized placement code replaced.

Each is the executable specification a production path is held
bit-identical to — the same bytes, centers and IEEE-754 distances:

* :func:`_reference_fill_order` and :func:`_reference_greedy_fill`, the
  sequential Algorithm-1 fill (``kernels.fill_order``, ``greedy_fill``);
* :class:`ReferenceHeuristic`, :class:`~repro.core.placement.greedy.OnlineHeuristic`
  with the original per-center loop in place of the kernel sweep;
* :func:`tier_bound`, the tier closed form per node and per column, the
  oracle of ``kernels.rack_screen`` and of the router's one-pass estimate;
* :func:`_reference_best_exchange` and :func:`_reference_transfer_pair`,
  Algorithm 2's per-type exchange search with ``Allocation``-based
  recentering (``best_exchange``, ``transfer_pair``).

:func:`estimate_dc` and :func:`estimate_dc_batch` read the router's
estimate for one shard state alone, through a one-shard ``_Layout``.
"""

import numpy as np

from repro.core.placement import kernels
from repro.core.placement.greedy import OnlineHeuristic, com
from repro.core.placement.transfer import TransferResult
from repro.core.problem import Allocation
from repro.core.theorems import apply_theorem2_exchange
from repro.service.shard.router import _Layout
from repro.util.errors import ValidationError


def _reference_fill_order(
    center: int, demand: np.ndarray, remaining: np.ndarray, dist: np.ndarray
) -> np.ndarray:
    """Node visit order for one candidate center.

    Primary key: distance to the center ascending (center itself first, then
    its rack, then farther tiers — the paper's rackList/nRackList split
    generalized to any number of hierarchy levels). Secondary key: providable
    resources descending ("the more resources they provide, the greater
    chance of being selected"). Ternary: node index, for determinism.
    """
    n = remaining.shape[0]
    prov = np.minimum(remaining, demand[None, :]).sum(axis=1)
    order = sorted(range(n), key=lambda i: (dist[i, center], -int(prov[i]), i))
    return np.asarray(order, dtype=np.int64)


def _reference_greedy_fill(
    center: int,
    demand: np.ndarray,
    remaining: np.ndarray,
    dist: np.ndarray,
    *,
    rack_ids: "np.ndarray | None" = None,
    max_vms_per_rack: "int | None" = None,
) -> "np.ndarray | None":
    """The original per-node-loop formulation of :func:`greedy_fill`.

    Kept as the executable specification the vectorized kernels are
    property-tested against (byte-identical allocations).
    """
    kernels.require_rack_ids(rack_ids, max_vms_per_rack)
    n, m = remaining.shape
    alloc = np.zeros((n, m), dtype=np.int64)
    todo = demand.astype(np.int64).copy()
    rack_budget: "dict[int, int] | None" = None
    if max_vms_per_rack is not None:
        rack_budget = {}
    for i in _reference_fill_order(center, demand, remaining, dist):
        if not todo.any():
            break
        take = com(remaining[i], todo)
        if rack_budget is not None:
            rack = int(rack_ids[i])
            budget = rack_budget.get(rack, max_vms_per_rack)
            if budget <= 0:
                continue
            if int(take.sum()) > budget:
                take = kernels.clip_to_budget(take, budget)
        if take.any():
            alloc[i] = take
            todo -= take
            if rack_budget is not None:
                rack_budget[rack] = budget - int(take.sum())
    if todo.any():
        return None
    return alloc


class ReferenceHeuristic(OnlineHeuristic):
    """Algorithm 1 with the original per-center Python loop as its sweep."""

    def _sweep(
        self, candidates, demand, remaining, dist, domain_ids, cap, pool=None,
        obs=None,
    ):
        """The original per-center Python loop (executable specification)."""
        best: "Allocation | None" = None
        for center in candidates:
            matrix = _reference_greedy_fill(
                int(center),
                demand,
                remaining,
                dist,
                rack_ids=domain_ids,
                max_vms_per_rack=cap,
            )
            if matrix is None:
                continue
            dc = float(matrix.sum(axis=1).astype(np.float64) @ dist[:, center])
            if self.stop == "first":
                return Allocation(matrix=matrix, center=int(center), distance=dc)
            if best is None or dc < best.distance - 1e-12:
                best = Allocation(matrix=matrix, center=int(center), distance=dc)
        return best


def tier_bound(
    cache, free: np.ndarray, rack_free: np.ndarray, need: np.ndarray
) -> np.ndarray:
    """Closed-form Algorithm-1 ``dc`` with every node as center, per column.

    *free* is ``(n, X)``, *rack_free* its per-rack sums ``cache.per_rack(free)``
    ``(r, X)`` and *need* ``(X,)``; columns are independent (VM types for
    the sweep, whole requests for the router) and the result is ``(n, X)``
    float64. A nearest-first fill around center ``c`` takes
    ``a0 = min(L[c], R)`` on the center, ``a1 = min(rack − L[c], R − a0)``
    from its rack peers, ``a2 = min(cloud − rack, R − a0 − a1)`` from the
    rest of its cloud and ``a3`` likewise from other clouds. Because
    ``L[c] ≤ rack ≤ cloud ≤ total`` those are differences of the running
    ``min(·, R)``, which is what is computed — per rack and per cloud, then
    gathered per node.
    """
    d1, d2, d3 = cache.tier_distances
    cloud_free = cache.per_cloud(rack_free)
    own = np.minimum(free, need)
    rack = np.minimum(rack_free, need)[cache.rack_index]
    cloud = np.minimum(cloud_free, need)[cache.cloud_index]
    total = np.minimum(cloud_free.sum(axis=0), need)
    return d1 * (rack - own) + d2 * (cloud - rack) + d3 * (total - cloud)


def _reference_best_exchange(
    m1: np.ndarray,
    m2: np.ndarray,
    dist: np.ndarray,
    x: int,
    y: int,
    *,
    tol: float = 1e-9,
) -> "tuple[int, int, int, float] | None":
    """The original per-type loop of :func:`best_exchange`.

    Kept as the executable specification the vectorized version is
    property-tested against (identical tuples on every input). The gain
    ``(D_ux − D_vx) + (D_vy − D_uy)`` is an outer sum over candidate source
    and destination nodes, evaluated per VM type.
    """
    m = m1.shape[1]
    best: "tuple[int, int, int, float] | None" = None
    phi = dist[:, x] - dist[:, y]
    for j in range(m):
        us = np.flatnonzero(m1[:, j] > 0)
        vs = np.flatnonzero(m2[:, j] > 0)
        if us.size == 0 or vs.size == 0:
            continue
        # gain[u, v] = phi[u] − phi[v]
        gains = phi[us][:, None] - phi[vs][None, :]
        idx = np.unravel_index(np.argmax(gains), gains.shape)
        g = float(gains[idx])
        if g > tol and (best is None or g > best[3]):
            best = (int(us[idx[0]]), int(vs[idx[1]]), j, g)
    return best


def _reference_transfer_pair(
    a1: Allocation,
    a2: Allocation,
    dist: np.ndarray,
    *,
    recenter: bool = True,
    max_exchanges: int = 10_000,
    tol: float = 1e-9,
) -> TransferResult:
    """The original :func:`transfer_pair` with ``Allocation``-based
    recentering, kept as the executable specification (and the pre-kernel
    benchmark baseline). ``Allocation.from_matrix`` applies the same
    ``counts @ D`` + first-minimum argmin the fast path inlines, so both
    produce bit-identical results."""
    m1 = a1.matrix.copy()
    m2 = a2.matrix.copy()
    x, y = a1.center, a2.center
    start = a1.distance + a2.distance
    exchanges = 0
    while exchanges < max_exchanges:
        step = _reference_best_exchange(m1, m2, dist, x, y, tol=tol)
        if step is None:
            if not recenter:
                break
            new1 = Allocation.from_matrix(m1, dist)
            new2 = Allocation.from_matrix(m2, dist)
            if new1.center == x and new2.center == y:
                break
            x, y = new1.center, new2.center
            continue
        u, v, j, _gain = step
        m1, m2 = apply_theorem2_exchange(m1, m2, u, v, j)
        exchanges += 1
    else:
        raise ValidationError(
            f"transfer_pair did not converge in {max_exchanges} exchanges"
        )
    if recenter:
        out1 = Allocation.from_matrix(m1, dist)
        out2 = Allocation.from_matrix(m2, dist)
    else:
        out1 = Allocation.with_center(m1, dist, x)
        out2 = Allocation.with_center(m2, dist, y)
    return TransferResult(
        first=out1,
        second=out2,
        gain=start - (out1.distance + out2.distance),
        exchanges=exchanges,
    )


def estimate_dc_batch(state, demands) -> np.ndarray:
    """The router's estimate on *state* alone for each row of *demands*."""
    demands = np.asarray(demands, dtype=np.int64)
    layout = _Layout([state.topology_cache])
    return layout.bounds([state], demands, demands.sum(axis=1))[1][0]


def estimate_dc(state, demand) -> float:
    """:func:`estimate_dc_batch` for one demand vector."""
    return float(estimate_dc_batch(state, np.asarray(demand)[None, :])[0])
