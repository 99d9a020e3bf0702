"""Vectorized NumPy kernels for Algorithm 1's candidate-center sweep.

These kernels replace the per-center Python ``sorted`` + per-node loop of
:func:`repro.core.placement.greedy.greedy_fill` with array operations that
produce **bit-identical** results (the property tests in
``tests/core/test_kernels.py`` enforce this against the per-node loops kept
as oracles in ``tests/core/oracles.py``):

* **Tier closed form, the only screen** — the paper's distance matrix has
  four values (``0 < d1 < d2 < d3``: same node / rack / cloud / elsewhere),
  so for a fixed center Algorithm 1's ``dc`` depends only on how much of
  the demand each tier fills (:func:`repro.cluster.topocache.tier_dc`).
  :func:`rack_screen` evaluates it for *every* center as a per-rack
  constant, from the ``(racks × m)`` rack and cloud free aggregates of a
  :class:`~repro.cluster.topocache.TopologyCache`, minus ``d1 ·`` the
  center's own take (:func:`providable`). The per-rack aggregate is an
  argument: a :class:`~repro.service.state.ClusterState` maintains it on
  every commit (``rack_free``), so the sweep reads it rather than
  re-reducing ``remaining``; other pools get one ``cache.per_rack``. Its
  integer sums are exact either way, so the screen values are the same
  floats. The value equals the reference ``dc`` up to floating-point
  summation order, and is a mathematical lower bound for the
  rack-constrained fill: centers whose bound cannot beat the incumbent
  (with a safety margin dwarfing float error) are pruned without ever
  being sorted or filled; survivors get the exact fill and the
  byte-for-byte reference distance expression
  ``float(counts.astype(np.float64) @ dist[:, c])``.

* **Exact tiers: one fill, one rack** — when the tier arithmetic is exact
  (``TopologyCache.exact_for``: integer and other on-grid models,
  ``Σ demand · d3 < 2⁴³``) screen and reference ``dc`` agree exactly, so
  an unbudgeted sweep fills only the first center attaining the minimum —
  the reference winner (:func:`sweep_best` has the argument). That fill
  orders just the center's rack when the rack covers the demand, and its
  ``dc`` is the dot over the rows it ordered. A guard compares that ``dc``
  with the screen; a mismatch, an off-grid model or a total past the exact
  range runs the full loop
  (``repro_placement_exact_fallbacks_total{kernel="sweep"}``). Rack budgets
  and survivability fills always run it.

* **Fill order** — the reference sorts nodes by
  ``(D[i, c], -providable_i, i)``. ``providable`` does not depend on the
  center, so :class:`TierOrders` sorts by ``(-providable, index)`` once per
  request, when a fill first needs more than one rack, and a center's order
  is itself, then its rack, its cloud and the rest, each in that one order.
  :func:`fill_order` without a cache (an arbitrary caller-supplied matrix)
  is one ``np.lexsort`` on the distance column.

* **Cumulative-sum fill** — the reference walks the order taking
  ``min(remaining[i], todo)`` per node. Per VM type the running ``todo``
  equals ``max(demand − Σ previous caps, 0)``, so the whole column of takes
  is one exclusive cumsum + clip (:func:`fill_counts`): exactly the
  sequential result, no loop — and a result any completing prefix of the
  order already determines, so the fill tries the rack-local prefix first.

Tie-breaking is preserved end to end: candidates are processed in the given
order, and the incumbent only changes on ``dc < best − 1e-12`` exactly as
the reference does.
"""

from __future__ import annotations

import time

import numpy as np

from repro.cluster.topocache import tier_dc
from repro.util.errors import ValidationError
from repro.util.timing import PhaseTimer

#: Safety margin factor for pruning against the incumbent: the screening
#: value differs from the exact ``dc`` only by float summation order, which
#: is ~1e-13 relative; 1e-9 relative dwarfs it while remaining far below any
#: real distance difference between two placements. Zero where that order
#: cannot matter (``TopologyCache.exact_for``).
_SCREEN_RTOL = 1e-9


def require_rack_ids(rack_ids, max_vms_per_rack) -> None:
    """The one rack-budget precondition, shared by every entry point.

    Every budgeted entry point — ``greedy_fill``,
    :func:`fill_one_rack_limited`, :func:`sweep_best`, :func:`sweep_first` —
    calls this eagerly, so a sweep that never reaches a fill (an empty
    candidate list) still rejects the inconsistent arguments.
    """
    if max_vms_per_rack is not None and rack_ids is None:
        raise ValidationError("max_vms_per_rack requires rack_ids")


def clip_to_budget(take: np.ndarray, budget: int) -> np.ndarray:
    """Reduce *take* so its total is ≤ *budget*, trimming later types first.

    Deterministic: walks VM types from last to first, so the clip always
    sheds the same VMs for the same inputs.
    """
    take = take.copy()
    excess = int(take.sum()) - budget
    for t in range(take.shape[0] - 1, -1, -1):
        if excess <= 0:
            break
        cut = min(int(take[t]), excess)
        take[t] -= cut
        excess -= cut
    return take


def rack_screen(
    cache, rack_free: np.ndarray, need: np.ndarray, prov: np.ndarray
) -> np.ndarray:
    """Algorithm 1's closed-form ``dc`` with every node as center, ``(n,)``.

    A center of dense rack ``r`` that offers nothing itself screens at
    ``K[r] = Σₜ tier_dc(own=0, rack=min(rack_r, R), cloud=min(cloud, R),
    total=min(total, R))``, computed from the ``(racks × m)`` aggregates
    *rack_free* (``cache.per_rack(remaining)``) alone; center ``c`` screens
    at ``K[rack(c)] − d1·prov[c]`` with *prov* = :func:`providable`, its own
    take. That is the per-type closed form summed over types, an identity
    of reals. On exact tiers (``cache.exact_for``) every term is a
    non-negative multiple of 2⁻¹⁰ below 2⁴³, so no sum or difference
    rounds and the value is the reference ``dc``'s float; elsewhere it
    differs from it by summation order only.
    """
    cloud_free = cache.per_cloud(rack_free)
    rack = np.minimum(rack_free, need)
    cloud = np.minimum(cloud_free, need)[cache.rack_cloud]
    total = np.minimum(cloud_free.sum(axis=0), need)
    per_rack = tier_dc(cache.tier_distances, 0, rack, cloud, total).sum(axis=1)
    return per_rack[cache.rack_index] - cache.tier_distances[0] * prov


def providable(remaining: np.ndarray, demand: np.ndarray) -> np.ndarray:
    """Per node, how many of the demanded VMs it could host: ``Σₜ min(L, R)``."""
    return np.minimum(remaining, demand[None, :]).sum(axis=1)


class TierOrders:
    """One request's fill orders on a tiered topology.

    The reference order for center ``c`` is ``(D[i, c], -providable, i)``.
    :meth:`covering` orders just the center's rack when that rack covers
    the demand. :meth:`full` orders every node: it sorts them by
    ``(-providable, index)`` once, on first use, and then places each tier
    by two equality tests on ``rack_ids``/``cloud_ids``.
    *rack_free* is ``cache.per_rack(remaining)`` (see :func:`rack_screen`),
    and *prov* is :func:`providable`, when the caller already has it.
    A failed node sits in its static tier rather than last, which no fill
    can see: it offers nothing, so it takes nothing wherever it is visited.
    """

    __slots__ = ("cache", "prov", "rack_covers", "_base", "_rack", "_cloud")

    def __init__(
        self,
        cache,
        demand: np.ndarray,
        remaining: np.ndarray,
        rack_free: np.ndarray,
        prov: "np.ndarray | None" = None,
    ) -> None:
        self.cache = cache
        self.prov = providable(remaining, demand) if prov is None else prov
        #: per dense rack: can the rack alone finish the demand?
        self.rack_covers = np.all(rack_free >= demand, axis=1)
        self._base = None

    def full(self, center: int) -> np.ndarray:
        """All nodes: *center*, its rack, its cloud, then everything else."""
        if self._base is None:
            self._base = np.argsort(-self.prov, kind="stable")
            self._rack = self.cache.rack_ids[self._base]
            self._cloud = self.cache.cloud_ids[self._base]
        tier = (self._rack != self.cache.rack_ids[center]).astype(np.int8)
        tier += self._cloud != self.cache.cloud_ids[center]
        tier[self._base == center] = -1
        return self._base[np.argsort(tier, kind="stable")]  # int8: radix, O(n)

    def covering(self, center: int) -> np.ndarray:
        """The prefix of :meth:`full` an unbudgeted fill can stop within.

        :func:`fill_counts` is prefix-deterministic — takes along a prefix
        do not depend on what follows — so when the center's rack covers
        the demand the other n − rack nodes need not be ordered at all:
        the rack's nodes by ``(-providable, index)``, center first.
        """
        rack = self.cache.rack_index[center]
        if not self.rack_covers[rack]:
            return self.full(center)
        peers = self.cache.rack_nodes(rack)
        peers = peers[np.argsort(-self.prov[peers], kind="stable")]
        return peers[np.argsort(peers != center, kind="stable")]  # center first


def fill_order(
    center: int,
    demand: np.ndarray,
    remaining: np.ndarray,
    dist: np.ndarray,
    *,
    cache=None,
) -> np.ndarray:
    """Node visit order for one candidate center.

    Sorts by ``(distance to center, -providable, index)`` — identical to the
    reference ``sorted`` call. With a *cache* the distance key is the
    center's tier structure (:class:`TierOrders`); without one it is the
    distance column itself, for any matrix: ``np.lexsort`` treats its *last*
    key as primary and is stable, so the explicit index key makes the
    determinism unconditional.
    """
    if cache is not None:
        rack_free = cache.per_rack(remaining)
        return TierOrders(cache, demand, remaining, rack_free).full(center)
    prov = providable(remaining, demand)
    return np.lexsort((np.arange(prov.size), -prov, dist[:, center]))


def fill_counts(
    order: np.ndarray, demand: np.ndarray, remaining: np.ndarray
) -> np.ndarray:
    """Per-type takes along *order* (order space, shape ``(n, m)``).

    Exclusive-cumsum formulation of the sequential loop: node at position
    ``k`` takes ``min(caps[k], max(demand − Σ_{<k} caps, 0))`` per type,
    which equals ``min(remaining, todo)`` with ``todo`` tracked node by
    node.
    """
    caps = np.minimum(remaining[order], demand[None, :])
    prev = np.cumsum(caps, axis=0) - caps
    return np.minimum(caps, np.maximum(demand[None, :] - prev, 0))


def _fill_along(
    order: np.ndarray, demand: np.ndarray, remaining: np.ndarray
) -> "np.ndarray | None":
    """The takes of an unbudgeted fill along *order* (order space), or
    ``None`` when *order* cannot finish the demand."""
    takes = fill_counts(order, demand, remaining)
    if np.any(takes.sum(axis=0) != demand):
        return None
    return takes


def fill_one(
    center: int,
    demand: np.ndarray,
    remaining: np.ndarray,
    dist: np.ndarray,
    *,
    orders: "TierOrders | None" = None,
) -> "np.ndarray | None":
    """Unconstrained Algorithm-1 fill around *center* (vectorized).

    Returns the allocation matrix or ``None`` when availability runs out —
    bit-identical to the reference ``greedy_fill`` without rack limits.
    """
    if orders is None:
        order = fill_order(center, demand, remaining, dist)
    else:
        order = orders.covering(center)
    takes = _fill_along(order, demand, remaining)
    if takes is None:
        return None
    alloc = np.zeros(remaining.shape, dtype=np.int64, order="F")
    alloc[order] = takes
    return alloc


def fill_one_rack_limited(
    center: int,
    demand: np.ndarray,
    remaining: np.ndarray,
    dist: np.ndarray,
    rack_ids: np.ndarray,
    max_vms_per_rack: int,
    *,
    orders: "TierOrders | None" = None,
) -> "np.ndarray | None":
    """Rack-budgeted Algorithm-1 fill around *center*.

    The per-rack budget couples VM types through :func:`clip_to_budget`
    (later types shed first), so the take sequence is inherently
    order-dependent; only the node ordering is vectorized, the walk itself
    mirrors the reference loop exactly — over the full order, because a
    budget can push the fill out of a rack that could otherwise finish it.

    ``rack_ids`` may be any node → failure-domain map (rack ids, node ids,
    power domains…) — nothing here assumes rack granularity, which is how
    :mod:`repro.core.reliability` reuses this kernel for arbitrary
    survivability scopes.
    """
    require_rack_ids(rack_ids, max_vms_per_rack)
    n, m = remaining.shape
    alloc = np.zeros((n, m), dtype=np.int64, order="F")
    todo = demand.astype(np.int64).copy()
    rack_budget: dict[int, int] = {}
    if orders is None:
        order = fill_order(center, demand, remaining, dist)
    else:
        order = orders.full(center)
    for i in order:
        if not todo.any():
            break
        take = np.minimum(remaining[i], todo)
        rack = int(rack_ids[i])
        budget = rack_budget.get(rack, max_vms_per_rack)
        if budget <= 0:
            continue
        if int(take.sum()) > budget:
            take = clip_to_budget(take, budget)
        if take.any():
            alloc[i] = take
            todo -= take
            rack_budget[rack] = budget - int(take.sum())
    if todo.any():
        return None
    return alloc


def _exact_distance(matrix: np.ndarray, dist: np.ndarray, center: int) -> float:
    # Byte-for-byte the reference expression — same arrays, same dtypes,
    # same BLAS dot — so ties resolve identically.
    return float(matrix.sum(axis=1).astype(np.float64) @ dist[:, center])


def count_exact_fallback(obs, kernel: str) -> None:
    """Count one piece of work an exactness guard sent to the full path.

    Called only on that path, so the exact paths pay nothing for it.
    """
    if obs is not None:
        obs.counter(
            "repro_placement_exact_fallbacks_total",
            "Sweeps and pair transfers the exactness guard sent to the full path.",
            labels=("kernel",),
        ).labels(kernel=kernel).inc()


class _SweepInstruments:
    """Per-sweep counters for the candidate-center screen/prune/fill trio.

    Built only for a live registry; ``None`` elsewhere keeps the sweep's
    hot loop free of instrument calls. Counting never influences which
    centers are filled or which allocation wins.
    """

    __slots__ = ("screened", "pruned", "filled", "fill_seconds")

    def __init__(self, obs) -> None:
        self.screened = obs.counter(
            "repro_placement_centers_screened_total",
            "Candidate centers evaluated by the screening pass.",
        )
        self.pruned = obs.counter(
            "repro_placement_centers_pruned_total",
            "Candidate centers discarded by screening without an exact fill.",
        )
        self.filled = obs.counter(
            "repro_placement_centers_filled_total",
            "Candidate centers given an exact Algorithm-1 fill.",
        )
        self.fill_seconds = obs.histogram(
            "repro_placement_fill_seconds",
            "Wall seconds per exact candidate-center fill.",
        )


def _sweep_instruments(obs) -> "_SweepInstruments | None":
    if obs is None or not getattr(obs, "enabled", False):
        return None
    return _SweepInstruments(obs)


def _filler(
    demand, remaining, rack_free, dist, cache, rack_ids, max_vms_per_rack, timer,
    obs, prov=None,
):
    """One sweep's exact fill, ``center → (matrix, center, dc) | None``,
    with the fill orders and meters its candidates share.

    ``dc`` is the reference expression over all n rows, or with
    ``touched=True`` the same dot over just the rows the fill ordered —
    the same float when the tier arithmetic is exact (a row outside the
    order holds nothing and adds ``0 · D = 0``).
    """
    if cache is None:
        raise ValidationError(
            "the center sweep needs the pool's TopologyCache (pool.topology_cache)"
        )
    orders = TierOrders(cache, demand, remaining, rack_free, prov)
    timer = timer if timer is not None else PhaseTimer()
    ins = _sweep_instruments(obs)

    def fill(center: int, *, touched: bool = False):
        started = time.perf_counter()
        with timer.phase("fill"):
            if max_vms_per_rack is None:
                order = orders.covering(center)
                takes = _fill_along(order, demand, remaining)
                matrix = None
                if takes is not None:
                    matrix = np.zeros(remaining.shape, dtype=np.int64, order="F")
                    matrix[order] = takes
            else:
                matrix = fill_one_rack_limited(
                    center, demand, remaining, dist, rack_ids, max_vms_per_rack,
                    orders=orders,
                )
        if ins is not None:
            ins.fill_seconds.observe(time.perf_counter() - started)
            ins.filled.inc()
        if matrix is None:
            return None
        if touched:  # unbudgeted fills only
            dc = float(takes.sum(axis=1).astype(np.float64) @ dist[order, center])
        else:
            dc = _exact_distance(matrix, dist, center)
        return matrix, center, dc

    return fill, ins


def _cannot_complete(demand, rack_free, max_vms_per_rack) -> bool:
    # Without rack budgets completion is center-independent: every fill
    # reaches every node, so either all candidates complete or none does.
    # The per-rack rows have the per-node column sums.
    return max_vms_per_rack is None and bool(np.any(rack_free.sum(axis=0) < demand))


def _incumbent(fill, candidates, screen, margin):
    """The reference ``stop="best"`` loop over the survivors of the screen.

    Candidates go in order; one whose bound reaches the threshold (``inf``
    until the first completed fill) is pruned, any other is filled and
    replaces the incumbent on ``dc < best − 1e-12``. Returns
    ``(best, pruned count)``.
    """
    best = None
    threshold = np.inf
    pruned = 0
    for center, bound in zip(candidates.tolist(), screen.tolist()):
        if bound >= threshold:
            pruned += 1
            continue
        filled = fill(center)
        if filled is not None and (best is None or filled[2] < best[2] - 1e-12):
            best = filled
            threshold = best[2] - 1e-12 + margin * (1.0 + abs(best[2]))
    return best, pruned


def sweep_best(
    candidates: np.ndarray,
    demand: np.ndarray,
    remaining: np.ndarray,
    dist: np.ndarray,
    *,
    cache=None,
    rack_free: np.ndarray,
    rack_ids=None,
    max_vms_per_rack: "int | None" = None,
    timer=None,
    obs=None,
) -> "tuple[np.ndarray, int, float] | None":
    """Evaluate *candidates* in order, returning the reference winner.

    Returns ``(matrix, center, dc)`` for the center the reference
    ``stop="best"`` loop would select (same incumbent-update rule, same tie
    handling), or ``None`` when no candidate completes. *cache* is the
    pool's :class:`~repro.cluster.topocache.TopologyCache`, required as soon
    as there is anything to sweep, and *rack_free* the pool's per-rack free
    capacity ``cache.per_rack(remaining)`` (``pool.rack_free``, which a
    ``ClusterState`` maintains). ``obs`` (a metrics registry) receives
    screened/pruned/filled counts and fill timings; it never affects the
    result.

    **One screen.** Every sweep screens with :func:`rack_screen` — a
    per-rack constant minus ``d1 ·`` :func:`providable` per center,
    O(racks·m) plus one n-vector. Off the grid it differs from the
    per-type closed form only by float rounding, which the
    ``_SCREEN_RTOL`` margin absorbs, so pruning stays sound.

    **One fill when the screen is exact.** When the tier arithmetic is
    exact (``cache.exact_for(Σ demand)``) and there is no rack budget,
    each candidate's screen value and its reference ``dc`` are the same
    float64 (both exact sums of the same per-tier takes), so only the
    first candidate attaining ``m = screen.min()``, ``c*``, is filled:
    that is the reference winner. Every candidate before ``c*`` has
    ``dc > m``, and on the grid that means ``dc ≥ m + 2⁻¹⁰ > m + 1e-12``,
    so ``c*`` replaces whatever incumbent the reference held when it got
    there; no candidate after it can replace ``c*`` (a later tie fails
    ``dc < m − 1e-12``). Its fill orders one rack when that rack covers the
    demand (:meth:`TierOrders.covering`), and its ``dc`` is the dot over
    the rows the fill ordered. As a guard that ``dc`` is compared with
    ``m``; should they differ, the full loop runs with the ``_SCREEN_RTOL``
    margin and ``repro_placement_exact_fallbacks_total{kernel="sweep"}``
    counts it, as it does an unbudgeted sweep off the grid. Counters then
    hold the one fill plus the full loop's. Rack-budgeted and survivability
    fills keep the full loop, since their screen is only a lower bound on
    ``dc``; on the grid that bound is exact arithmetic too, so they also
    prune with a zero margin (a center whose bound ties the incumbent
    cannot beat it).
    """
    require_rack_ids(rack_ids, max_vms_per_rack)
    if _cannot_complete(demand, rack_free, max_vms_per_rack):
        return None
    prov = providable(remaining, demand)
    fill, ins = _filler(
        demand, remaining, rack_free, dist, cache, rack_ids, max_vms_per_rack,
        timer, obs, prov,
    )
    candidates = np.asarray(candidates, dtype=np.int64)
    exact = cache.exact_for(int(demand.sum()))
    screen = rack_screen(cache, rack_free, demand, prov)[candidates]
    one_fill = max_vms_per_rack is None and screen.size > 0
    best = None
    if one_fill and exact:
        first = int(np.argmin(screen))  # the first candidate attaining it
        best = fill(int(candidates[first]), touched=True)
        pruned = screen.size - 1
        if best is not None and best[2] != screen[first]:
            best = None
    if best is None:
        if one_fill:
            count_exact_fallback(obs, "sweep")
        margin = 0.0 if exact and not one_fill else _SCREEN_RTOL
        best, pruned = _incumbent(fill, candidates, screen, margin)
    if ins is not None:
        ins.screened.inc(candidates.shape[0])
        ins.pruned.inc(pruned)
    return best


def sweep_first(
    candidates: np.ndarray,
    demand: np.ndarray,
    remaining: np.ndarray,
    dist: np.ndarray,
    *,
    cache=None,
    rack_free: np.ndarray,
    rack_ids=None,
    max_vms_per_rack: "int | None" = None,
    timer=None,
    obs=None,
) -> "tuple[np.ndarray, int, float] | None":
    """First candidate whose fill completes (the reference ``stop="first"``);
    arguments as for :func:`sweep_best`."""
    require_rack_ids(rack_ids, max_vms_per_rack)
    if _cannot_complete(demand, rack_free, max_vms_per_rack):
        return None
    fill, _ = _filler(
        demand, remaining, rack_free, dist, cache, rack_ids, max_vms_per_rack,
        timer, obs,
    )
    for center in candidates:
        filled = fill(int(center))
        if filled is not None:
            return filled
    return None
