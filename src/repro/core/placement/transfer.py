"""Pairwise VM transfer between two allocations (Algorithm 2, step 3).

The paper's ``transfer`` method exchanges VM positions between two virtual
clusters with different central nodes so their summed distance shrinks
(Theorem 2). This module implements it as a steepest-descent exchange search:
at each step, take the same-type VM swap with the largest positive gain
(:func:`repro.core.theorems.swap_gain`), then re-optimize both centers, and
repeat until no improving exchange exists.

Every exchange is capacity-neutral (combined per-node, per-type usage is
unchanged), so applying transfers never breaks pool feasibility.

**Holder rows.** An exchange only moves VMs between nodes that already hold
one of the pair's VMs, so the set ``U = rows(a1) ∪ rows(a2)`` never grows.
Given the pool's :class:`~repro.cluster.topocache.TopologyCache`, and with
*dist* being that cache's own matrix on exact tiers, :func:`transfer_pair`
searches the pair on ``U`` alone: :func:`best_exchange` runs on ``dist[U]``
(the same floats, in the same argmax order) and recentering is
``counts[U] @ dist[U, :]``, which on the ``2⁻¹⁰`` grid is the full
mat-vec's float. Everything else — no cache, an off-grid model, a matrix
that is not the cache's (a failure-masked one) — runs the full n×n path,
and with a cache given ``repro_placement_exact_fallbacks_total{kernel=
"transfer"}`` counts it. On holder rows a recentering search that applies
no exchange and keeps both centers returns its two inputs unchanged. That
is how most calls end: 85–100 % of them on the ledger's serving workloads,
where the shards' batch optimizers and the fabric's sweep reject nearly
every pair (docs/PERF.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.placement.kernels import count_exact_fallback
from repro.core.problem import Allocation
from repro.core.theorems import apply_theorem2_exchange
from repro.util.errors import ValidationError


@dataclass(frozen=True, slots=True)
class TransferResult:
    """Outcome of optimizing one allocation pair."""

    first: Allocation
    second: Allocation
    gain: float
    exchanges: int

    @property
    def improved(self) -> bool:
        return self.exchanges > 0


def best_exchange(
    m1: np.ndarray,
    m2: np.ndarray,
    dist: np.ndarray,
    x: int,
    y: int,
    *,
    tol: float = 1e-9,
) -> "tuple[int, int, int, float] | None":
    """Find the highest-gain same-type exchange between two allocations.

    Returns ``(u, v, vm_type, gain)`` — cluster 1 moves a type-``vm_type``
    VM from ``u`` to ``v``, cluster 2 the reverse — or ``None`` when no
    exchange has positive gain.

    Vectorized across *all* VM types at once: since the gain
    ``phi[u] − phi[v]`` does not depend on the type, the per-type maximum is
    ``max(phi over cluster-1 holders) − min(phi over cluster-2 holders)`` —
    two masked reductions over the allocation matrices instead of a per-type
    Python loop with an outer-difference matrix. Float subtraction is
    monotone, so this picks exactly the value the per-type matrix max would;
    the winning ``(u, v)`` pair is then re-derived inside the single winning
    type with the reference argmax, preserving tie-breaking bit for bit
    (smallest type achieving the maximum gain, then first row-major pair).
    """
    # Per-node swap potentials: phi1[u] = D_ux − D_uy is what cluster 1
    # saves (per VM) by vacating u, and cluster 2 loses by occupying it.
    phi = dist[:, x] - dist[:, y]
    give = np.where(m1 > 0, phi[:, None], -np.inf).max(axis=0, initial=-np.inf)
    take = np.where(m2 > 0, phi[:, None], np.inf).min(axis=0, initial=np.inf)
    gain_ceiling = give - take
    j = int(np.argmax(gain_ceiling))  # first type attaining the max
    if not (gain_ceiling[j] > tol):
        return None
    us = np.flatnonzero(m1[:, j] > 0)
    vs = np.flatnonzero(m2[:, j] > 0)
    gains = phi[us][:, None] - phi[vs][None, :]
    idx = np.unravel_index(np.argmax(gains), gains.shape)
    return (int(us[idx[0]]), int(vs[idx[1]]), j, float(gains[idx]))


def _holder_rows(a1: Allocation, a2: Allocation, dist, cache) -> "np.ndarray | None":
    """``rows(a1) ∪ rows(a2)`` when the pair may be searched on them alone,
    else ``None``: that needs *dist* to be *cache*'s own matrix (decided by
    identity, never by scanning it), with every center total — over at most
    all the pair's VMs — exact (``cache.exact_for``)."""
    if cache is None or dist is not cache.distance:
        return None
    if not cache.exact_for(a1.total_vms + a2.total_vms):
        return None
    return np.union1d(a1.rows, a2.rows)


def transfer_pair(
    a1: Allocation,
    a2: Allocation,
    dist: np.ndarray,
    *,
    cache=None,
    obs=None,
    recenter: bool = True,
    max_exchanges: int = 10_000,
    tol: float = 1e-9,
) -> TransferResult:
    """Greedily exchange VMs between *a1* and *a2* until no gain remains.

    With ``recenter=True`` (default) each allocation's central node is
    re-optimized after the exchange search converges and the search restarts
    if recentering changed a center — matching Algorithm 2's intent of
    minimizing the *true* summed ``DC``.

    The recenter check computes the center-distance vectors directly
    (``counts @ D`` + first-minimum argmin — the exact
    :func:`~repro.core.distance.cluster_distance` expression) instead of
    constructing throwaway :class:`Allocation` objects, whose validation
    dominated the Algorithm-2 transfer phase. *cache* (the pool's
    :class:`~repro.cluster.topocache.TopologyCache`) lets the search run on
    the pair's holder rows (module docstring); *obs* receives the exactness
    guard's fallback count. The tests hold it bit-identical to the
    original formulation, kept as an oracle in ``tests/core/oracles.py``.
    """
    rows = _holder_rows(a1, a2, dist, cache)
    if rows is None:
        if cache is not None:
            count_exact_fallback(obs, "transfer")
        m1, m2, d = a1.matrix.copy(), a2.matrix.copy(), dist
    else:
        # Local row k is node rows[k]; columns (centers) stay global.
        m1, m2, d = a1.matrix[rows], a2.matrix[rows], dist[rows]
    x, y = a1.center, a2.center
    start = a1.distance + a2.distance
    exchanges = 0
    totals: "tuple[np.ndarray, np.ndarray] | None" = None
    while exchanges < max_exchanges:
        step = best_exchange(m1, m2, d, x, y, tol=tol)
        if step is None:
            if not recenter:
                break
            t1 = m1.sum(axis=1).astype(np.float64) @ d
            t2 = m2.sum(axis=1).astype(np.float64) @ d
            nx, ny = int(np.argmin(t1)), int(np.argmin(t2))
            if nx == x and ny == y:
                totals = (t1, t2)
                break
            x, y = nx, ny
            continue
        u, v, j, _gain = step
        m1, m2 = apply_theorem2_exchange(m1, m2, u, v, j)
        exchanges += 1
    else:
        raise ValidationError(
            f"transfer_pair did not converge in {max_exchanges} exchanges"
        )
    kept = (x, y) == (a1.center, a2.center)
    if rows is not None and recenter and exchanges == 0 and kept:
        # Nothing moved and both centers held: the inputs are the result
        # (equal matrices and centers, and on exact tiers equal distances).
        t1, t2 = totals
        return TransferResult(a1, a2, start - (float(t1[x]) + float(t2[y])), 0)
    if rows is not None:
        full1 = np.zeros(a1.matrix.shape, dtype=np.int64)
        full2 = np.zeros(a2.matrix.shape, dtype=np.int64)
        full1[rows], full2[rows] = m1, m2
        m1, m2 = full1, full2
    if recenter:
        t1, t2 = totals
        out1 = Allocation(matrix=m1, center=x, distance=float(t1[x]))
        out2 = Allocation(matrix=m2, center=y, distance=float(t2[y]))
    else:
        out1 = Allocation.with_center(m1, dist, x)
        out2 = Allocation.with_center(m2, dist, y)
    return TransferResult(
        first=out1,
        second=out2,
        gain=start - (out1.distance + out2.distance),
        exchanges=exchanges,
    )


def transfer_pair_paper(
    a1: Allocation, a2: Allocation, dist: np.ndarray, *, max_exchanges: int = 10_000
) -> TransferResult:
    """The literal Theorem-2 special case: only exchanges where cluster 1's
    VM sits on cluster 2's central node (``u = y``).

    Provided for ablation against the generalized :func:`transfer_pair`;
    strictly weaker (it can only fire when the geometric precondition holds).
    """
    m1 = a1.matrix.copy()
    m2 = a2.matrix.copy()
    x, y = a1.center, a2.center
    start = a1.distance + a2.distance
    exchanges = 0
    improved = True
    while improved and exchanges < max_exchanges:
        improved = False
        for j in range(m1.shape[1]):
            if m1[y, j] <= 0:
                continue
            ks = np.flatnonzero(m2[:, j] > 0)
            if ks.size == 0:
                continue
            deltas = dist[x, ks] - dist[x, y] - dist[y, ks]
            best = int(np.argmin(deltas))
            if deltas[best] < -1e-9:
                k = int(ks[best])
                m1, m2 = apply_theorem2_exchange(m1, m2, y, k, j)
                exchanges += 1
                improved = True
                break
    out1 = Allocation.with_center(m1, dist, x)
    out2 = Allocation.with_center(m2, dist, y)
    return TransferResult(
        first=out1,
        second=out2,
        gain=start - (out1.distance + out2.distance),
        exchanges=exchanges,
    )
