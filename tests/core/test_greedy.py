"""Tests for Algorithm 1, the online heuristic."""

import numpy as np
import pytest

from repro.cluster import (
    DynamicResourcePool,
    PhysicalNode,
    ResourcePool,
    Topology,
    VMTypeCatalog,
)
from repro.core.placement.exact import solve_sd_exact
from repro.core.placement.greedy import OnlineHeuristic, com, greedy_fill
from repro.core.placement.kernels import providable
from repro.service import ClusterState
from repro.util.errors import InfeasibleRequestError, ValidationError
from repro.util.timing import PhaseTimer

from tests.conftest import make_pool
from tests.core.oracles import ReferenceHeuristic


class TestComOperator:
    def test_elementwise_min(self):
        assert com(np.array([3, 1]), np.array([2, 5])).tolist() == [2, 1]

    def test_full_coverage_condition(self):
        """com(L[i], R) == R means node i can provide everything (line 10)."""
        l_row = np.array([2, 4, 1])
        r = np.array([2, 3, 1])
        assert np.array_equal(com(l_row, r), r)

    def test_providable(self):
        assert providable(np.array([2, 4, 1]), np.array([3, 1, 0])) == 3


class TestGreedyFill:
    def test_center_takes_max_share(self):
        remaining = np.array([[2, 1], [2, 1], [2, 1]])
        dist = np.array([[0.0, 1, 2], [1, 0.0, 2], [2, 2, 0.0]])
        alloc = greedy_fill(0, np.array([3, 2]), remaining, dist)
        assert alloc[0].tolist() == [2, 1]

    def test_incomplete_returns_none(self):
        remaining = np.array([[1, 0], [1, 0]])
        dist = np.zeros((2, 2))
        assert greedy_fill(0, np.array([3, 0]), remaining, dist) is None

    def test_secondary_sort_prefers_bigger_provider(self):
        """Among equal-distance nodes the fuller provider is used first."""
        remaining = np.array([[1, 0], [1, 0], [3, 0]])
        dist = np.array([[0.0, 1, 1], [1, 0.0, 1], [1, 1, 0.0]])
        alloc = greedy_fill(0, np.array([4, 0]), remaining, dist)
        # Node 2 (3 providable) is preferred over node 1 (1 providable).
        assert alloc[2, 0] == 3
        assert alloc[1, 0] == 0


class TestOnlineHeuristic:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValidationError):
            OnlineHeuristic(stop="sometimes")
        with pytest.raises(ValidationError):
            OnlineHeuristic(center_order="by-name")

    def test_single_node_shortcut(self):
        pool = make_pool(2, 3, capacity=(3, 3, 2))
        alloc = OnlineHeuristic().place(pool, [2, 2, 1]).allocation
        assert alloc.distance == 0.0
        assert alloc.num_nodes_used == 1

    def test_infeasible_raises(self):
        pool = make_pool(1, 2, capacity=(1, 1, 1))
        with pytest.raises(InfeasibleRequestError):
            OnlineHeuristic().place(pool, [3, 0, 0])

    def test_wait_returns_none(self):
        pool = make_pool(1, 2, capacity=(1, 0, 0))
        pool.allocate(np.array([[1, 0, 0], [1, 0, 0]]))
        assert OnlineHeuristic().place(pool, [1, 0, 0]).allocation is None

    def test_demand_exactly_met(self):
        pool = make_pool(3, 4, capacity=(1, 1, 1))
        alloc = OnlineHeuristic().place(pool, [4, 3, 2]).allocation
        assert alloc.demand.tolist() == [4, 3, 2]
        assert np.all(alloc.matrix <= pool.remaining)

    def test_best_mode_matches_exact_optimum(self):
        """Structural property (DESIGN.md §5): nearest-first fill is optimal
        per center, so the best-center sweep attains the SD optimum."""
        pool = make_pool(3, 4, capacity=(2, 1, 1))
        for demand in ([4, 3, 2], [8, 0, 0], [1, 4, 4], [10, 4, 1]):
            heur = OnlineHeuristic(stop="best").place(pool, demand).allocation
            exact = solve_sd_exact(demand, pool)
            assert heur.distance == pytest.approx(exact.distance), demand

    def test_first_mode_feasible_but_maybe_worse(self):
        pool = make_pool(3, 4, capacity=(2, 1, 1))
        demand = [8, 2, 1]
        first = OnlineHeuristic(stop="first", center_order="random", seed=3).place(
            pool, demand
        ).allocation
        best = OnlineHeuristic(stop="best").place(pool, demand).allocation
        assert first.demand.tolist() == list(demand)
        assert first.distance >= best.distance

    def test_random_order_deterministic_given_seed(self):
        pool = make_pool(3, 4, capacity=(2, 1, 1))
        demand = [8, 2, 1]
        a = OnlineHeuristic(stop="first", center_order="random", seed=11).place(
            pool, demand
        ).allocation
        b = OnlineHeuristic(stop="first", center_order="random", seed=11).place(
            pool, demand
        ).allocation
        assert a.distance == b.distance
        assert np.array_equal(a.matrix, b.matrix)

    def test_place_and_commit(self):
        pool = make_pool(2, 3)
        alloc = OnlineHeuristic().place_and_commit(pool, [2, 1, 1]).allocation
        assert np.array_equal(pool.allocated, alloc.matrix)

    def test_does_not_mutate_pool(self):
        pool = make_pool(2, 3)
        OnlineHeuristic().place(pool, [2, 1, 1])
        assert pool.allocated.sum() == 0

    def test_skips_empty_nodes_as_centers(self):
        """A depleted node never hosts VMs; the heuristic still succeeds."""
        pool = make_pool(2, 2, capacity=(2, 0, 0))
        pool.allocate(np.array([[2, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]]))
        alloc = OnlineHeuristic().place(pool, [3, 0, 0]).allocation
        assert alloc is not None
        assert alloc.matrix[0].sum() == 0

    def test_complexity_shortcut_single_node_first_match(self):
        """The paper returns the FIRST node that fits everything."""
        pool = make_pool(2, 3, capacity=(3, 3, 2))
        alloc = OnlineHeuristic().place(pool, [1, 0, 0]).allocation
        assert alloc.used_nodes.tolist() == [0]


class TestSingleNodeSkip:
    """The shortcut scan is skipped when a demanded type exceeds the
    pool's largest node (``max_node_capacity``); at that capacity exactly
    it must still run."""

    #: Type-0 capacities per node; the largest, c = 3, is on nodes 1 and 3.
    TYPE0 = (1, 3, 2, 3, 0, 2)

    def _pool(self, cls):
        nodes = [
            PhysicalNode(node_id=i, rack_id=i // 3, cloud_id=0, capacity=[c, 1, 1])
            for i, c in enumerate(self.TYPE0)
        ]
        return cls(Topology(nodes), VMTypeCatalog.ec2_default())

    def _place(self, pool, demand):
        timer = PhaseTimer(enabled=True)
        allocation = OnlineHeuristic(timer=timer).place(pool, demand).allocation
        reference = ReferenceHeuristic().place(pool, demand).allocation
        assert np.array_equal(allocation.matrix, reference.matrix)
        assert allocation.center == reference.center
        assert repr(allocation.distance) == repr(reference.distance)
        return allocation, timer.counts().get("center_sweep", 0)

    @pytest.mark.parametrize("cls", [ResourcePool, ClusterState])
    def test_demand_at_the_largest_node_takes_the_shortcut(self, cls):
        pool = self._pool(cls)
        c = max(self.TYPE0)
        assert pool.max_node_capacity.tolist() == [c, 1, 1]
        allocation, sweeps = self._place(pool, [c, 1, 0])
        assert (allocation.center, allocation.distance, sweeps) == (1, 0.0, 0)
        assert allocation.matrix[1].tolist() == [c, 1, 0]
        # With node 1 short of one VM the lowest fitting node is node 3.
        taken = np.zeros((len(self.TYPE0), 3), dtype=np.int64)
        taken[1, 0] = 1
        pool.allocate(taken)
        allocation, sweeps = self._place(pool, [c, 1, 0])
        assert (allocation.center, allocation.distance, sweeps) == (3, 0.0, 0)

    def test_a_reconfigured_node_raises_the_bound(self):
        """A dynamic pool may grow a node past the original ``M``; the
        bound follows the effective capacity, not the constructed one."""
        pool = self._pool(DynamicResourcePool)
        c = max(self.TYPE0)
        pool.reconfigure_node(4, [c + 2, 1, 1])
        assert pool.max_node_capacity.tolist() == [c + 2, 1, 1]
        allocation, sweeps = self._place(pool, [c + 2, 1, 0])
        assert (allocation.center, allocation.distance, sweeps) == (4, 0.0, 0)

    @pytest.mark.parametrize("cls", [ResourcePool, ClusterState])
    def test_demand_past_the_largest_node_goes_to_the_sweep(self, cls):
        pool = self._pool(cls)
        c = max(self.TYPE0)
        allocation, sweeps = self._place(pool, [c + 1, 1, 0])
        assert sweeps == 1
        assert allocation.distance > 0.0
        assert allocation.demand.tolist() == [c + 1, 1, 0]


class TestRackSpreadConstraint:
    """max_vms_per_rack: the failure-domain spread option of Algorithm 1."""

    def _rack_loads(self, alloc, pool):
        rack_ids = pool.topology.rack_ids
        per_node = alloc.matrix.sum(axis=1)
        return {
            int(r): int(per_node[rack_ids == r].sum())
            for r in np.unique(rack_ids)
        }

    def test_cap_validated(self):
        with pytest.raises(ValidationError):
            OnlineHeuristic(max_vms_per_rack=0)

    def test_cap_respected(self):
        pool = make_pool(4, 2, capacity=(0, 2, 0))
        alloc = OnlineHeuristic(max_vms_per_rack=2).place(pool, [0, 8, 0]).allocation
        assert alloc is not None
        loads = self._rack_loads(alloc, pool)
        assert all(load <= 2 for load in loads.values())
        assert sum(loads.values()) == 8

    def test_unconstrained_packs_tighter(self):
        pool = make_pool(4, 2, capacity=(0, 2, 0))
        packed = OnlineHeuristic().place(pool, [0, 8, 0]).allocation
        spread = OnlineHeuristic(max_vms_per_rack=2).place(pool, [0, 8, 0]).allocation
        assert packed.distance <= spread.distance
        assert max(self._rack_loads(packed, pool).values()) > 2

    def test_cap_overrides_single_node_shortcut(self):
        pool = make_pool(2, 2, capacity=(8, 0, 0))
        alloc = OnlineHeuristic(max_vms_per_rack=2).place(pool, [4, 0, 0]).allocation
        assert alloc is not None
        assert max(self._rack_loads(alloc, pool).values()) <= 2

    def test_shortcut_still_used_when_cap_allows(self):
        pool = make_pool(2, 2, capacity=(8, 0, 0))
        alloc = OnlineHeuristic(max_vms_per_rack=4).place(pool, [4, 0, 0]).allocation
        assert alloc.distance == 0.0
        assert alloc.num_nodes_used == 1

    def test_infeasible_cap_returns_none(self):
        # 8 VMs over 2 racks with a 2-per-rack cap cannot fit.
        pool = make_pool(2, 2, capacity=(0, 4, 0))
        assert OnlineHeuristic(max_vms_per_rack=2).place(pool, [0, 8, 0]).allocation is None

    def test_cap_clip_is_typewise_deterministic(self):
        pool = make_pool(2, 2, capacity=(2, 2, 1))
        a = OnlineHeuristic(max_vms_per_rack=3).place(pool, [2, 2, 1]).allocation
        b = OnlineHeuristic(max_vms_per_rack=3).place(pool, [2, 2, 1]).allocation
        assert np.array_equal(a.matrix, b.matrix)
        assert max(self._rack_loads(a, pool).values()) <= 3

    def test_unconstrained_default_unchanged(self):
        pool = make_pool(3, 4, capacity=(2, 1, 1))
        a = OnlineHeuristic().place(pool, [6, 2, 1]).allocation
        b = OnlineHeuristic(max_vms_per_rack=None).place(pool, [6, 2, 1]).allocation
        assert np.array_equal(a.matrix, b.matrix)
