"""Shard scoring and request routing for the sharded placement fabric.

The router answers one question per arrival: *which shard should try this
request first, and who is next if it declines?* Scoring combines the two
signals a rack-aligned partition makes cheap to read:

* **estimated DC** — a lower bound on the cluster distance the shard could
  achieve for the demand: the tier closed form
  (:func:`repro.cluster.topocache.tier_dc`) on the shard's
  :class:`~repro.cluster.topocache.TopologyCache` and its live
  free-capacity matrix aggregated over the requested types, minimized over
  centers. This is the bound Algorithm 1 prunes with, only on coarser
  supply (a node offering any mix of the requested types counts fully), so
  a shard's estimate is never above what Algorithm 1 will actually achieve
  there.
* **free capacity** — how much headroom the shard has for the requested
  types; fuller shards are penalized so load spreads before queues build.

**One pass over racks.** The minimum over centers needs one value per
rack, not per node: inside a rack every center shares the rack, cloud and
total supply, and the tier expression is non-increasing in the center's
own take ``min(supply[c], k)``; IEEE rounding is monotone, so the rack's
minimum is the expression at its largest supply — the same float, under
every distance model. The router lays every shard's rack grouping end to
end once (:class:`_Layout`) and scores all shards, and every request of a
batch, with one supply mat-vec and a handful of ``reduceat`` calls over
one copy of the shards' ``remaining`` matrices.

The score is ``(estimated_DC + 1) × (1 + k / (free + 1))`` (lower is
better, ``k`` = total VMs requested): estimated affinity scaled by a
fullness factor. The ``+1`` shift matters: a perfectly compact estimate is
``0``, and without the shift every zero-DC shard would tie at score zero —
the fullness factor could never spread single-VM load off the first shard.
Shards that cannot satisfy the demand *right now* rank after all currently
satisfiable shards (most-free first — they can only serve the request after
releases, so headroom is the best predictor); shards whose *maximum*
capacity the demand exceeds are refused outright and reported separately
so the fabric can attribute the refusal per shard.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.cluster.topocache import tier_dc
from repro.core import reliability
from repro.service.state import ClusterState
from repro.util.errors import ValidationError
from repro.util.validation import as_int_matrix, as_int_vector


class _Layout:
    """Every shard's rack and cloud grouping laid end to end.

    Shards' nodes follow one another in the concatenated ``remaining``
    matrices; shard ``s``'s dense racks start at row ``shard_racks[s]`` of
    the per-rack aggregates and its dense clouds at row ``shard_clouds[s]``
    of the per-cloud ones. ``rack_order``/``rack_bounds``,
    ``cloud_order``/``cloud_bounds`` and ``rack_cloud`` are each shard's
    :class:`~repro.cluster.topocache.TopologyCache` grouping shifted by
    those offsets; ``rack_shard`` names each rack's shard and ``tiers`` its
    ``(d1, d2, d3)``. Built from the caches only, so allocation churn never
    invalidates it.
    """

    __slots__ = (
        "rack_order",
        "rack_bounds",
        "cloud_order",
        "cloud_bounds",
        "rack_cloud",
        "rack_shard",
        "shard_racks",
        "shard_clouds",
        "tiers",
    )

    def __init__(self, caches) -> None:
        rack_order, rack_bounds, cloud_order, cloud_bounds = [], [], [], []
        rack_cloud, rack_shard, tiers = [], [], []
        shard_racks, shard_clouds = [], []
        nodes = racks = clouds = 0
        for shard_id, cache in enumerate(caches):
            num_racks = cache.rack_starts.size
            rack_order.append(cache.rack_order + nodes)
            rack_bounds.append(cache.rack_starts + nodes)
            cloud_order.append(cache.cloud_order + racks)
            cloud_bounds.append(cache.cloud_starts + racks)
            rack_cloud.append(cache.rack_cloud + clouds)
            rack_shard.append(np.full(num_racks, shard_id, dtype=np.int64))
            tiers.append(np.tile(cache.tier_distances, (num_racks, 1)))
            shard_racks.append(racks)
            shard_clouds.append(clouds)
            nodes += cache.num_nodes
            racks += num_racks
            clouds += cache.cloud_starts.size
        self.rack_order = np.concatenate(rack_order)
        self.rack_bounds = np.concatenate(rack_bounds)
        self.cloud_order = np.concatenate(cloud_order)
        self.cloud_bounds = np.concatenate(cloud_bounds)
        self.rack_cloud = np.concatenate(rack_cloud)
        self.rack_shard = np.concatenate(rack_shard)
        self.shard_racks = np.asarray(shard_racks, dtype=np.int64)
        self.shard_clouds = np.asarray(shard_clouds, dtype=np.int64)
        # (3, racks, 1): each rack's d1, d2, d3, broadcast over requests.
        self.tiers = np.concatenate(tiers).T[:, :, None].copy()

    def bounds(
        self, states: "list[ClusterState]", demands: np.ndarray, ks: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Per shard and request, free capacity and fill-bound estimate.

        Returns ``(free, est)``, both ``(S, B)``: free capacity over each
        request's demanded types (int64) and the estimate (float64, ``inf``
        where the free capacity is short). Bit-identical to the per-node
        :func:`~repro.cluster.topocache.tier_dc` on the aggregated supply,
        minimized over each shard's centers: inside a rack every center
        shares the ``rack``, ``cloud`` and ``total`` terms, and the tier
        expression is non-increasing in the center's own take
        ``min(supply[c], k)`` (IEEE rounding is monotone), so the rack's
        minimum is the expression at the rack's largest supply. Columns are
        independent, so a request's values do not depend on its batch; a
        one-shard layout is the estimate on that shard's state alone.
        """
        # One copy of every shard's remaining capacity; the rack sums and
        # maxima below come from it, never from ``rack_free``.
        remaining = np.concatenate([state.remaining for state in states])
        # supply[n, b] = free capacity of node n over request b's demanded types.
        supply = remaining @ (demands > 0).astype(np.int64).T
        ordered = supply[self.rack_order]
        rack_sum = np.add.reduceat(ordered, self.rack_bounds)
        rack_max = np.maximum.reduceat(ordered, self.rack_bounds)
        cloud_sum = np.add.reduceat(rack_sum[self.cloud_order], self.cloud_bounds)
        free = np.add.reduceat(cloud_sum, self.shard_clouds)
        value = tier_dc(
            self.tiers,
            np.minimum(rack_max, ks),
            np.minimum(rack_sum, ks),
            np.minimum(cloud_sum, ks)[self.rack_cloud],
            np.minimum(free, ks)[self.rack_shard],
        )
        est = np.minimum.reduceat(value, self.shard_racks)
        est[free < ks] = np.inf
        return free, est


def _as_demands(demands, num_types: int) -> np.ndarray:
    demands = as_int_matrix(demands, name="demands")
    if demands.shape[1] != num_types:
        raise ValidationError(
            f"demands must have {num_types} columns, got {demands.shape[1]}"
        )
    return demands


@dataclass(frozen=True)
class RouteResult:
    """Router verdict for one demand vector.

    ``ranked`` holds shard ids best-first (currently satisfiable shards by
    score, then waitable shards by headroom); ``refused`` holds shards whose
    maximum capacity the demand exceeds — they can never serve it.
    ``scores`` keeps the raw score per ranked shard for introspection.
    """

    ranked: tuple[int, ...]
    refused: tuple[int, ...]
    scores: dict[int, float]


class _Ranking:
    """One request's per-shard verdicts on their way to a :class:`RouteResult`
    — the one place a score is computed, for :meth:`ShardRouter.route` and
    :meth:`ShardRouter.route_batch` alike."""

    __slots__ = ("k", "satisfiable", "waitable", "refused", "scores")

    def __init__(self, k: int) -> None:
        self.k = k
        self.satisfiable: list[tuple[float, int]] = []
        self.waitable: list[tuple[float, int]] = []
        self.refused: list[int] = []
        self.scores: dict[int, float] = {}

    def add(self, shard_id: int, free: float, est: float) -> None:
        """Rank a shard by score if it can place now (finite *est*), else
        after those, by headroom."""
        if np.isfinite(est):
            score = (est + 1.0) * (1.0 + self.k / (free + 1.0))
            self.satisfiable.append((score, shard_id))
            self.scores[shard_id] = score
        else:
            self.waitable.append((-free, shard_id))
            self.scores[shard_id] = float("inf")

    def result(self) -> RouteResult:
        ranked = sorted(self.satisfiable) + sorted(self.waitable)
        return RouteResult(
            tuple(s for _, s in ranked), tuple(self.refused), self.scores
        )


class ShardRouter:
    """Deterministic scorer over the fabric's shard states.

    The router reads shard states without locking: scores are admission
    *hints* refined by each shard's own admission control, so a stale read
    costs at most one spillover hop, never correctness.
    """

    def __init__(self, states: "list[ClusterState]") -> None:
        if not states:
            raise ValidationError("router needs at least one shard state")
        self._lock = threading.Lock()
        self._set_states(list(states))

    def _set_states(self, states: "list[ClusterState]") -> None:
        # One attribute, so a concurrent route sees states, layout and the
        # refusal test's (S, m) column sums of M that belong together.
        layout = _Layout([state.topology_cache for state in states])
        ceiling = np.stack([state.max_capacity.sum(axis=0) for state in states])
        self._view = (states, layout, ceiling)

    def replace_state(self, shard_id: int, state: ClusterState) -> None:
        """Point shard *shard_id*'s scoring at a new state object.

        Used by failover: a restored shard gets a fresh state rebuilt from
        its replicated checkpoint, and the router must score the live object,
        not the crashed worker's abandoned one. Concurrent replacements are
        serialized so none is lost; routes read the view without locking.
        """
        with self._lock:
            states = list(self._view[0])
            if not 0 <= shard_id < len(states):
                raise ValidationError(f"no shard {shard_id} to replace")
            states[shard_id] = state
            self._set_states(states)

    def exact_estimate_dc(
        self, shard_id: int, state: ClusterState, demand: np.ndarray
    ) -> "float | None":
        """Shard *shard_id*'s estimate when it is exact, else ``None``.

        Where the tier arithmetic is exact for the demand
        (``TopologyCache.exact_for``) the estimate and every placement's
        ``dc`` are exact floats, so the estimate is at most the float
        distance of any placement the shard could make now — with a
        survivability target too, since a spread-constrained fill only
        costs more. Elsewhere the two floats may round apart, so no bound is
        given. *state* is the shard state the caller holds locked; ``None``
        too while the router still scores another object for the shard (a
        restore not yet handed over).
        """
        states, layout, _ = self._view
        demand = as_int_vector(demand, name="demand", length=state.num_types)
        k = int(demand.sum())
        if states[shard_id] is not state or not state.topology_cache.exact_for(k):
            return None
        ks = np.array([k], dtype=np.int64)
        return float(layout.bounds(states, demand[None, :], ks)[1][shard_id, 0])

    def route(
        self, demand: np.ndarray, *, exclude=frozenset(), target=None
    ) -> RouteResult:
        """Rank shards for *demand*; see the module docstring for the score.

        ``exclude`` names shard ids to leave out entirely (dead or draining
        workers) — they appear in neither ``ranked`` nor ``refused``.

        ``target`` is the request's optional
        :class:`~repro.core.reliability.SurvivabilityTarget`. Shards whose
        sub-topology can *never* satisfy the compiled spread (too few racks,
        or the demand cannot fit under the per-domain cap even at maximum
        capacity) are **refused**, not ranked — spilling over to them would
        waste an admission round trip on a guaranteed refusal. Shards where
        only the *current* free capacity blocks the spread rank as waitable,
        exactly like plain capacity shortfalls.
        """
        states, layout, ceiling = self._view
        demand = as_int_vector(demand, name="demand", length=states[0].num_types)
        ranking = _Ranking(int(demand.sum()))
        free, est = layout.bounds(
            states, demand[None, :], np.array([ranking.k], dtype=np.int64)
        )
        over = np.any(demand > ceiling, axis=1)
        for shard_id, state in enumerate(states):
            if shard_id in exclude:
                continue
            if over[shard_id] or (
                target is not None
                and reliability.refusal_reason(demand, state, target) is not None
            ):
                ranking.refused.append(shard_id)
                continue
            # Only the *current* free capacity blocks the spread: waitable.
            blocked = target is not None and not reliability.can_satisfy_target(
                demand, state, target
            )
            ranking.add(
                shard_id,
                float(free[shard_id, 0]),
                np.inf if blocked else float(est[shard_id, 0]),
            )
        return ranking.result()

    def route_batch(
        self, demands: np.ndarray, *, exclude=frozenset()
    ) -> "list[RouteResult]":
        """Rank shards for every row of *demands* in one vectorized pass.

        Decision-identical to calling :meth:`route` once per row against the
        same state snapshot: a request is a column of the one routing pass
        (bit-identical per column), the scores are assembled with the same
        float expressions, and ties break on the same ``(score, shard_id)``
        sort keys. The win is constant-factor: one supply matmul and one
        closed-form pass for all shards and rows instead of ``B`` python
        round trips through the scorer.
        """
        states, layout, ceiling = self._view
        demands = _as_demands(demands, states[0].num_types)
        ks = demands.sum(axis=1)
        free, est = layout.bounds(states, demands, ks)
        over = np.any(demands[None, :, :] > ceiling[:, None, :], axis=2)
        live = [s for s in range(len(states)) if s not in exclude]
        results: "list[RouteResult]" = []
        for row in range(demands.shape[0]):
            ranking = _Ranking(int(ks[row]))
            for shard_id in live:
                if over[shard_id, row]:
                    ranking.refused.append(shard_id)
                else:
                    ranking.add(
                        shard_id, float(free[shard_id, row]), float(est[shard_id, row])
                    )
            results.append(ranking.result())
        return results
