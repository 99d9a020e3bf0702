"""Algorithm 1: the online heuristic VM placement algorithm.

Faithful reconstruction of the paper's Section IV.A procedure:

1. Refuse requests exceeding maximum capacity; make requests wait when they
   exceed current availability (lines 1–5 of Algorithm 1).
2. Single-node shortcut: if some node alone can host the whole request,
   allocate everything there (lines 9–14) — the resulting cluster has
   distance 0.
3. Otherwise, for each candidate central node: take as much as possible from
   the center (``com(L[i], R)``), then fill from same-rack peers sorted by
   how much of the remaining request they can provide (descending — the
   paper's ``getList(D, i, 0)`` ordering), then from off-rack nodes in
   ascending distance order with the same secondary sort
   (``getList(D, i, 1)``).
4. Keep the allocation with the shortest ``getDist`` over candidate centers.

Two details are configurable because the paper's pseudocode admits both
readings:

* ``stop`` — ``"best"`` scans every candidate center (matches the paper's
  O(n²·m) complexity claim and its Fig. 2 description of "the most
  appropriate central node"); ``"first"`` accepts the first center that
  yields a complete allocation (the literal ``break L1``), which is faster
  but can be arbitrarily worse.
* ``center_order`` — ``"index"`` (deterministic) or ``"random"`` ("we choose
  one central node randomly" — only meaningful with ``stop="first"``).

The candidate sweep runs through the vectorized kernels
(:mod:`repro.core.placement.kernels`); the per-center loop they are held
bit-identical to is a test oracle (``tests/core/oracles.py``).

A structural note (verified by the test suite): because nearest-first fill
is optimal for a *fixed* center, ``stop="best"`` attains the exact SD
optimum. The heuristic's "sub-optimality" in the paper manifests only in the
``stop="first"`` mode and in the global multi-request setting that
Algorithm 2 addresses.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.resources import ResourcePool
from repro.core.placement import kernels
from repro.core.placement.base import (
    PlacementAlgorithm,
    check_admissible,
    normalize_request,
)
from repro.core.problem import Allocation
from repro.util.errors import ValidationError
from repro.util.rng import ensure_rng
from repro.util.timing import PhaseTimer


def com(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The paper's ``com`` operator: element-wise minimum of two vectors.

    ``com(L[i], R) == R`` means node ``i`` alone can provide all of ``R``.
    """
    return np.minimum(a, b)


def greedy_fill(
    center: int,
    demand: np.ndarray,
    remaining: np.ndarray,
    dist: np.ndarray,
    *,
    rack_ids: "np.ndarray | None" = None,
    max_vms_per_rack: "int | None" = None,
) -> "np.ndarray | None":
    """Build one allocation around *center* following Algorithm 1's loop body.

    When ``max_vms_per_rack`` is given (with ``rack_ids`` mapping node → rack),
    no rack contributes more than that many VMs — the failure-domain spread
    constraint: a rack-level outage (ToR switch, power domain) can then kill
    at most ``max_vms_per_rack`` of the cluster's VMs, at the cost of longer
    cluster distance.

    Returns the allocation matrix, or ``None`` when availability (or the
    per-rack budget) runs out before the request is covered.

    Delegates to the vectorized kernels in
    :mod:`repro.core.placement.kernels`, which the tests hold bit-identical
    to the sequential formulation (an oracle in ``tests/core/oracles.py``).
    """
    kernels.require_rack_ids(rack_ids, max_vms_per_rack)
    if max_vms_per_rack is None:
        return kernels.fill_one(center, demand, remaining, dist)
    return kernels.fill_one_rack_limited(
        center, demand, remaining, dist, rack_ids, max_vms_per_rack
    )


class OnlineHeuristic(PlacementAlgorithm):
    """Algorithm 1: greedy affinity-aware placement for one request.

    Parameters
    ----------
    stop:
        ``"best"`` (default) evaluates every candidate center and returns the
        shortest-distance allocation; ``"first"`` returns the allocation of
        the first center that completes, after the single-node shortcut.
    center_order:
        ``"index"`` (default) tries centers in node-id order; ``"random"``
        shuffles the candidate order (paper: "choose one central node
        randomly"). Only affects results when ``stop="first"``.
    seed:
        RNG seed for ``center_order="random"``.
    max_vms_per_rack:
        Optional failure-domain spread constraint: cap how many of the
        request's VMs may land in any single rack. A rack-correlated outage
        then costs at most this many VMs (k-resilience against rack
        failures), traded against cluster affinity — spread allocations have
        longer distance than the unconstrained greedy packing.
    timer:
        Optional :class:`~repro.util.timing.PhaseTimer`; when enabled it
        receives the ``admission`` / ``center_sweep`` / ``fill`` phase
        breakdown of every :meth:`place` call.
    """

    name = "online-heuristic"

    def __init__(
        self,
        *,
        stop: str = "best",
        center_order: str = "index",
        seed=None,
        max_vms_per_rack: "int | None" = None,
        timer: "PhaseTimer | None" = None,
    ) -> None:
        if stop not in ("best", "first"):
            raise ValidationError(f"stop must be 'best' or 'first', got {stop!r}")
        if center_order not in ("index", "random"):
            raise ValidationError(
                f"center_order must be 'index' or 'random', got {center_order!r}"
            )
        if max_vms_per_rack is not None and max_vms_per_rack < 1:
            raise ValidationError("max_vms_per_rack must be >= 1 when set")
        self.stop = stop
        self.center_order = center_order
        self.max_vms_per_rack = max_vms_per_rack
        self.timer = timer if timer is not None else PhaseTimer()
        self._rng = ensure_rng(seed)

    def _candidate_centers(self, remaining: np.ndarray, rng=None) -> np.ndarray:
        """Nodes worth trying as centers: those with any remaining capacity.

        A zero-capacity node can still be the *geometric* center of an
        allocation, but for hierarchical distance matrices some node of the
        heaviest rack is always at least as good, and every such node is a
        candidate.
        """
        candidates = np.flatnonzero(remaining.sum(axis=1) > 0)
        if self.center_order == "random":
            candidates = (rng or self._rng).permutation(candidates)
        return candidates

    def _effective_spread(self, pool, request, demand):
        """Combine the operator cap with the request's survivability target.

        Returns ``(domain_ids, cap, from_target)`` — the single per-domain
        budget the sweep enforces, with ``from_target`` recording whether a
        *non-vacuous* compiled target contributed to it (vacuous targets
        must behave observably identically to no target at all, operator
        cap included). A request-level
        :class:`~repro.core.reliability.SurvivabilityTarget` compiles
        (refuse-impossible, see ``compile_target``) to a cap over its own
        failure-domain scope; a rack-scope target shares the rack
        partition with ``max_vms_per_rack``, so both combine as the
        minimum. A node-scope target under an operator rack cap would need
        two simultaneous partitions, which the single-budget kernels cannot
        express — that combination is rejected.
        """
        from repro.core import reliability

        target = getattr(request, "survivability", None)
        rack_ids = None
        cap = self.max_vms_per_rack
        if cap is not None:
            rack_ids = pool.topology.rack_ids
        if target is None:
            return rack_ids, cap, False
        compiled = reliability.compile_target(demand, pool, target)
        if compiled is None:  # vacuous (k=0): unconstrained path, bit-identical
            return rack_ids, cap, False
        domain_ids, target_cap, _k = compiled
        if cap is None:
            return domain_ids, target_cap, True
        if target.domain_scope != "rack":
            raise ValidationError(
                "cannot combine max_vms_per_rack with a node-scope "
                "survivability target (two failure-domain partitions)"
            )
        return rack_ids, min(cap, target_cap), True

    def _place(self, pool: ResourcePool, request, *, rng=None, obs=None):
        timer = self.timer
        demand = normalize_request(request, pool.num_types)
        target = getattr(request, "survivability", None)
        if target is not None and target.kind == "availability":
            return self._place_available(pool, demand, target, rng, obs)
        with timer.phase("admission"):
            admissible = check_admissible(demand, pool)
            domain_ids, cap, from_target = self._effective_spread(
                pool, request, demand
            )
            if from_target:
                from repro.core import reliability

                # Run the spread check unconditionally: its refusal half
                # (InfeasibleRequestError against maximum capacity) must
                # fire even when plain free capacity already says wait.
                spread_ok = reliability.check_spread_admissible(
                    demand, pool, domain_ids, cap
                )
                admissible = admissible and spread_ok
        if not admissible:
            return None
        return self._fill(pool, demand, domain_ids, cap, rng, obs)

    def _place_available(self, pool, demand, target, rng, obs):
        """Verified-commit path for availability targets.

        Defers to :func:`repro.core.reliability.place_available`: greedy
        fills at escalating tolerances, committing only when the achieved
        spread's exact survival meets ``min_availability``. The operator
        ``max_vms_per_rack`` folds into each attempt's budget exactly as it
        does for compiled ``k``-kind caps.
        """
        from repro.core import reliability

        op_cap = self.max_vms_per_rack
        if op_cap is not None and target.domain_scope != "rack":
            raise ValidationError(
                "cannot combine max_vms_per_rack with a node-scope "
                "survivability target (two failure-domain partitions)"
            )

        def attempt(domain_ids, cap):
            if op_cap is not None:
                domain_ids = pool.topology.rack_ids
                cap = op_cap if cap is None else min(cap, op_cap)
            elif cap is None:
                domain_ids = None
            return self._fill(pool, demand, domain_ids, cap, rng, obs)

        return reliability.place_available(demand, pool, target, attempt)

    def _fill(self, pool, demand, domain_ids, cap, rng, obs):
        """Shortcut + candidate sweep under an optional per-domain budget."""
        remaining = pool.remaining
        dist = pool.distance_matrix

        # Lines 9–14: a single node that can host everything wins outright —
        # unless the spread constraint forbids that many VMs in one domain.
        # No row of L exceeds the pool's largest node per type, so a demand
        # above it cannot fit on one node and skips the n-row scan.
        single = cap is None or int(demand.sum()) <= cap
        if single and np.all(demand <= pool.max_node_capacity):
            fits = np.all(remaining >= demand[None, :], axis=1)
            if fits.any():
                i = int(np.flatnonzero(fits)[0])
                matrix = np.zeros_like(remaining)
                matrix[i] = demand
                return Allocation(matrix=matrix, center=i, distance=0.0)

        with self.timer.phase("center_sweep"):
            candidates = self._candidate_centers(remaining, rng)
            return self._sweep(
                candidates, demand, remaining, dist, domain_ids, cap, pool, obs
            )

    def _sweep(
        self, candidates, demand, remaining, dist, domain_ids, cap, pool=None,
        obs=None,
    ):
        """The candidate sweep through the vectorized kernels, which screen
        every center from the pool's rack/cloud free aggregates and
        exact-fill only the survivors."""
        sweep = kernels.sweep_best if self.stop == "best" else kernels.sweep_first
        result = sweep(
            candidates,
            demand,
            remaining,
            dist,
            cache=pool.topology_cache,
            rack_free=pool.rack_free,
            rack_ids=domain_ids,
            max_vms_per_rack=cap,
            timer=self.timer,
            obs=obs,
        )
        if result is None:
            return None
        matrix, center, dc = result
        return Allocation(matrix=matrix, center=center, distance=dc)
