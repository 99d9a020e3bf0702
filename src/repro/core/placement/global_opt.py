"""Algorithm 2: the global sub-optimization algorithm.

Given a batch of requests that current resources can jointly satisfy
(step 1, the queue's ``getRequests``), Algorithm 2:

* step 2 — runs Algorithm 1 (the online heuristic) on each request in order,
  committing each allocation so later requests see reduced availability;
* step 3 — sweeps all allocation pairs with *different* central nodes and
  applies Theorem-2 VM transfers (:func:`repro.core.placement.transfer.transfer_pair`)
  to shrink the summed distance ``Σ_k DC(C^k)``.

The paper runs one pass over pairs (``for i … for j``); we iterate passes to
a fixpoint by default (``max_rounds`` controls it) since later transfers can
enable earlier pairs again. One round with ``max_rounds=1`` reproduces the
paper's literal loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.resources import ResourcePool
from repro.core.placement.base import BatchPlacementAlgorithm, normalize_request
from repro.core.placement.greedy import OnlineHeuristic
from repro.core.placement.transfer import TransferResult, transfer_pair
from repro.core.problem import Allocation
from repro.util.errors import ValidationError


@dataclass
class GlobalOptimizationStats:
    """Diagnostics from one :meth:`GlobalSubOptimizer.place_batch` run."""

    initial_total_distance: float = 0.0
    final_total_distance: float = 0.0
    exchanges: int = 0
    rounds: int = 0

    @property
    def improvement(self) -> float:
        """Absolute distance saved by the transfer phase."""
        return self.initial_total_distance - self.final_total_distance

    @property
    def improvement_ratio(self) -> float:
        """Fraction of the online total saved (0 when nothing was placed)."""
        if self.initial_total_distance == 0:
            return 0.0
        return self.improvement / self.initial_total_distance


class GlobalSubOptimizer(BatchPlacementAlgorithm):
    """Algorithm 2: online placement per request + Theorem-2 transfer phase.

    Parameters
    ----------
    online:
        The single-request algorithm used in step 2 (defaults to
        Algorithm 1 with ``stop="best"``).
    max_rounds:
        Upper bound on pair-sweep passes (1 = the paper's single pass).
    use_paper_transfer:
        Restrict exchanges to the literal Theorem 2 precondition instead of
        the generalized swap search (ablation knob).
    worklist:
        Skip pairs whose allocations are unchanged since they last converged
        (both the generalized and the literal-paper transfer). The transfer
        functions are pure, so recomputing such a pair provably returns the
        same rejected result — skipping it preserves the fixpoint, the
        applied exchanges, and every statistic bit for bit. ``False``
        restores the full O(k²)-per-round re-sweep (ablation/benchmark
        baseline).
    timer:
        Optional :class:`~repro.util.timing.PhaseTimer` for the ``transfer``
        phase; defaults to sharing the online policy's timer so one report
        covers the whole pipeline.
    """

    name = "global-subopt"

    def __init__(
        self,
        online: "OnlineHeuristic | None" = None,
        *,
        max_rounds: int = 10,
        use_paper_transfer: bool = False,
        worklist: bool = True,
        timer=None,
    ) -> None:
        if max_rounds < 1:
            raise ValidationError("max_rounds must be >= 1")
        self.online = online or OnlineHeuristic()
        self.max_rounds = max_rounds
        self.use_paper_transfer = use_paper_transfer
        self.worklist = bool(worklist)
        self.timer = timer if timer is not None else self.online.timer
        self.last_stats = GlobalOptimizationStats()

    # ------------------------------------------------------------------ steps

    def place_online(
        self, requests, pool: ResourcePool, *, obs=None
    ) -> list["Allocation | None"]:
        """Step 2: sequential Algorithm-1 placement on a working copy."""
        work = pool.copy()
        out: list[Allocation | None] = []
        for request in requests:
            alloc = self.online.place(work, request, obs=obs).allocation
            if alloc is not None:
                work.allocate(alloc.matrix)
            out.append(alloc)
        return out

    def optimize_transfers(
        self,
        allocations: list["Allocation | None"],
        dist: np.ndarray,
        *,
        cache=None,
        obs=None,
    ) -> list["Allocation | None"]:
        """Step 3: pairwise Theorem-2 transfers to a fixpoint.

        *cache* is the pool's
        :class:`~repro.cluster.topocache.TopologyCache`, which lets each
        pair be searched on its holder rows (see
        :func:`~repro.core.placement.transfer.transfer_pair`).

        With :attr:`worklist` enabled, each allocation carries a change
        stamp; a pair is recomputed only when at least one side changed
        since the pair last converged (an accepted ``transfer_pair`` result
        is itself a pair fixpoint, so accepted pairs are marked converged at
        their new stamps too). Transfers are pure functions of the two
        allocations, so every skip replaces a provably identical
        recomputation — round count, applied exchanges, and the final
        allocations are exactly those of the full re-sweep.
        """
        from repro.core.placement.transfer import transfer_pair_paper
        from repro.obs.registry import DISTANCE_BUCKETS, ensure_registry

        registry = ensure_registry(obs)
        attempts_total = registry.counter(
            "repro_transfer_attempts_total",
            "Allocation pairs evaluated for a Theorem-2 transfer.",
        )
        applied_total = registry.counter(
            "repro_transfer_applied_total",
            "Pair transfers that improved the summed distance and were applied.",
        )
        exchanges_total = registry.counter(
            "repro_transfer_exchanges_total",
            "Individual VM exchanges applied across all accepted transfers.",
        )
        gain_hist = registry.histogram(
            "repro_transfer_gain_distance",
            "Distance gained per accepted pair transfer.",
            buckets=DISTANCE_BUCKETS,
        )

        allocs = list(allocations)
        live = [i for i, a in enumerate(allocs) if a is not None]
        exchanges = 0
        rounds = 0
        stamps = {i: 0 for i in live}
        converged: dict[tuple[int, int], tuple[int, int]] = {}
        with self.timer.phase("transfer"):
            for _ in range(self.max_rounds):
                rounds += 1
                changed = False
                for ai in range(len(live)):
                    for bi in range(ai + 1, len(live)):
                        i, j = live[ai], live[bi]
                        a1, a2 = allocs[i], allocs[j]
                        if a1.center == a2.center:
                            continue  # paper: "If two requests share the same
                            # central node, do nothing."
                        if (
                            self.worklist
                            and converged.get((i, j)) == (stamps[i], stamps[j])
                        ):
                            continue
                        if self.use_paper_transfer:
                            result = transfer_pair_paper(a1, a2, dist)
                        else:
                            result = transfer_pair(
                                a1, a2, dist, cache=cache, obs=obs
                            )
                        attempts_total.inc()
                        if result.improved and result.gain > 1e-9:
                            allocs[i] = result.first
                            allocs[j] = result.second
                            stamps[i] += 1
                            stamps[j] += 1
                            exchanges += result.exchanges
                            changed = True
                            applied_total.inc()
                            exchanges_total.inc(result.exchanges)
                            gain_hist.observe(result.gain)
                        converged[(i, j)] = (stamps[i], stamps[j])
                if not changed:
                    break
        self.last_stats.exchanges = exchanges
        self.last_stats.rounds = rounds
        return allocs

    # -------------------------------------------------------------- interface

    def _place_batch(self, pool: ResourcePool, requests, *, rng=None, obs=None):
        """Run steps 2 and 3; step 1 (queue admission) lives in
        :class:`repro.cloud.queue.RequestQueue`."""
        self.last_stats = GlobalOptimizationStats()
        allocs = self.place_online(requests, pool, obs=obs)
        placed = [a for a in allocs if a is not None]
        self.last_stats.initial_total_distance = float(
            sum(a.distance for a in placed)
        )
        allocs = self.optimize_transfers(
            allocs, pool.distance_matrix, cache=pool.topology_cache, obs=obs
        )
        placed = [a for a in allocs if a is not None]
        self.last_stats.final_total_distance = float(
            sum(a.distance for a in placed)
        )
        return allocs


def total_distance(allocations: list["Allocation | None"]) -> float:
    """Summed ``DC`` over placed allocations (the GSD objective)."""
    return float(sum(a.distance for a in allocations if a is not None))
