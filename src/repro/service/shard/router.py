"""Shard scoring and request routing for the sharded placement fabric.

The router answers one question per arrival: *which shard should try this
request first, and who is next if it declines?* Scoring combines the two
signals a rack-aligned partition makes cheap to read:

* **estimated DC** — a lower bound on the cluster distance the shard could
  achieve for the demand: the placement kernels' tier closed form
  (:func:`repro.core.placement.kernels.tier_bound`) on the shard's
  :class:`~repro.cluster.topocache.TopologyCache` and its live
  free-capacity matrix aggregated over the requested types, minimized over
  centers. This is the bound Algorithm 1 prunes with, only on coarser
  supply, so a shard's estimate is never above what Algorithm 1 will
  actually achieve there.
* **free capacity** — how much headroom the shard has for the requested
  types; fuller shards are penalized so load spreads before queues build.

The score is ``(estimated_DC + 1) × (1 + k / (free + 1))`` (lower is
better, ``k`` = total VMs requested): estimated affinity scaled by a
fullness factor. The ``+1`` shift matters: a perfectly compact estimate is
``0``, and without the shift every zero-DC shard would tie at score zero —
the fullness factor could never spread single-VM load off the first shard. Shards that cannot satisfy the demand *right now* rank after all
currently satisfiable shards (most-free first — they can only serve the
request after releases, so headroom is the best predictor); shards whose
*maximum* capacity the demand exceeds are refused outright and reported
separately so the fabric can attribute the refusal per shard.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import reliability
from repro.core.placement.kernels import tier_bound
from repro.service.state import ClusterState
from repro.util.errors import ValidationError
from repro.util.validation import as_int_matrix, as_int_vector


def estimate_dc(state: ClusterState, demand: np.ndarray) -> float:
    """Lower bound on the ``DC`` this shard could give *demand* right now.

    Supply is aggregated over the requested types (a node offering any mix
    of them counts fully), which can only over-promise — so the returned
    value never exceeds the distance of a real placement. ``inf`` when the
    aggregated free capacity cannot cover the request at all. The one-row
    case of :func:`estimate_dc_batch`, so the two agree by construction.
    """
    demand = as_int_vector(demand, name="demand", length=state.num_types)
    return float(estimate_dc_batch(state, demand[None, :])[0])


def _fill_bounds(
    state: ClusterState, demands: np.ndarray, ks: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Aggregated free capacity and fill bound for every row of *demands*.

    Returns ``(free, est)`` — per-row free capacity over the demanded types
    (int64) and the per-row fill-bound estimate (float64, ``inf`` where
    infeasible). One integer pass: a request is a column of the ``(n, B)``
    supply matrix, the closed form treats columns independently and
    element-wise, so a row's value does not depend on its batch.
    """
    # supply[n, b] = free capacity of node n over request b's demanded types.
    supply = np.asarray(state.remaining) @ (demands > 0).astype(np.int64).T
    free = supply.sum(axis=0)
    cache = state.topology_cache
    est = tier_bound(cache, supply, cache.per_rack(supply), ks).min(axis=0)
    est[free < ks] = np.inf
    return free, est


def _as_demands(demands, num_types: int) -> np.ndarray:
    demands = as_int_matrix(demands, name="demands")
    if demands.shape[1] != num_types:
        raise ValidationError(
            f"demands must have {num_types} columns, got {demands.shape[1]}"
        )
    return demands


def estimate_dc_batch(state: ClusterState, demands: np.ndarray) -> np.ndarray:
    """:func:`estimate_dc` for a ``(B, num_types)`` demand matrix at once.

    ``out[b] == estimate_dc(state, demands[b])`` exactly (bit-identical, not
    merely close) for every row — the fabric's batched admission relies on
    this to keep batched routing decision-identical to sequential routing.
    """
    demands = _as_demands(demands, state.num_types)
    _, est = _fill_bounds(state, demands, demands.sum(axis=1))
    return est


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
        self._states = list(states)

    def replace_state(self, shard_id: int, state: ClusterState) -> None:
        """Point shard *shard_id*'s scoring at a new state object.

        Used by failover: a restored shard gets a fresh state rebuilt from
        its replicated checkpoint, and the router must score the live object,
        not the crashed worker's abandoned one.
        """
        if not 0 <= shard_id < len(self._states):
            raise ValidationError(f"no shard {shard_id} to replace")
        self._states[shard_id] = state

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
        demand = as_int_vector(
            demand, name="demand", length=self._states[0].num_types
        )
        ranking = _Ranking(int(demand.sum()))
        ks = np.array([ranking.k], dtype=np.int64)
        for shard_id, state in enumerate(self._states):
            if shard_id in exclude:
                continue
            if state.exceeds_max_capacity(demand) or (
                target is not None
                and reliability.refusal_reason(demand, state, target) is not None
            ):
                ranking.refused.append(shard_id)
                continue
            free, est = _fill_bounds(state, demand[None, :], ks)
            # Only the *current* free capacity blocks the spread: waitable.
            blocked = target is not None and not reliability.can_satisfy_target(
                demand, state, target
            )
            ranking.add(shard_id, float(free[0]), np.inf if blocked else float(est[0]))
        return ranking.result()

    def route_batch(
        self, demands: np.ndarray, *, exclude=frozenset()
    ) -> "list[RouteResult]":
        """Rank shards for every row of *demands* in one vectorized pass.

        Decision-identical to calling :meth:`route` once per row against the
        same state snapshot: the fill bound is evaluated by
        :func:`estimate_dc_batch` (bit-identical per row), the scores are
        assembled with the same float expressions, and ties break on the
        same ``(score, shard_id)`` sort keys. The win is constant-factor:
        one supply matmul and one closed-form pass per shard instead of
        ``B`` python round trips through the scorer.
        """
        demands = _as_demands(demands, self._states[0].num_types)
        ks = demands.sum(axis=1)
        screened: "list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]" = []
        for shard_id, state in enumerate(self._states):
            if shard_id in exclude:
                continue
            ceiling = state.max_capacity.sum(axis=0)
            over = np.any(demands > ceiling, axis=1)
            free, est = _fill_bounds(state, demands, ks)
            screened.append((shard_id, over, free, est))
        results: "list[RouteResult]" = []
        for row in range(demands.shape[0]):
            ranking = _Ranking(int(ks[row]))
            for shard_id, over, free, est in screened:
                if over[row]:
                    ranking.refused.append(shard_id)
                else:
                    ranking.add(shard_id, float(free[row]), float(est[row]))
            results.append(ranking.result())
        return results
