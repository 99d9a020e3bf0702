"""Tests for the exhaustive enumerator."""

import numpy as np
import pytest

from repro.core.placement.bruteforce import (
    BruteForcePlacement,
    enumerate_allocations,
    solve_sd_bruteforce,
)
from repro.util.errors import InfeasibleRequestError, ValidationError

from tests.conftest import make_pool


class TestEnumerate:
    def test_counts_single_type(self):
        # 2 VMs over caps [1, 1, 1]: C(3,2) = 3 allocations.
        remaining = np.array([[1], [1], [1]])
        allocs = list(enumerate_allocations(np.array([2]), remaining))
        assert len(allocs) == 3

    def test_counts_with_slack(self):
        # 1 VM over caps [2, 2]: 2 ways.
        remaining = np.array([[2], [2]])
        assert len(list(enumerate_allocations(np.array([1]), remaining))) == 2

    def test_cartesian_product_across_types(self):
        # Type 0: 1 VM, 2 ways; type 1: 1 VM, 2 ways -> 4 allocations.
        remaining = np.array([[1, 1], [1, 1]])
        allocs = list(enumerate_allocations(np.array([1, 1]), remaining))
        assert len(allocs) == 4

    def test_every_allocation_feasible_and_exact(self):
        remaining = np.array([[2, 1], [1, 1], [1, 0]])
        demand = np.array([2, 1])
        for alloc in enumerate_allocations(demand, remaining):
            assert np.all(alloc <= remaining)
            assert np.array_equal(alloc.sum(axis=0), demand)

    def test_allocations_unique(self):
        remaining = np.array([[2, 1], [2, 1]])
        allocs = [tuple(a.flatten()) for a in enumerate_allocations(np.array([2, 1]), remaining)]
        assert len(allocs) == len(set(allocs))

    def test_limit_guard(self):
        remaining = np.full((8, 2), 3, dtype=np.int64)
        with pytest.raises(ValidationError):
            list(enumerate_allocations(np.array([8, 8]), remaining, limit=10))

    def test_zero_demand_type_allowed(self):
        remaining = np.array([[1, 1], [1, 1]])
        allocs = list(enumerate_allocations(np.array([1, 0]), remaining))
        assert len(allocs) == 2
        for a in allocs:
            assert a[:, 1].sum() == 0


class TestSolveBruteforce:
    def test_single_node_zero(self):
        pool = make_pool(2, 2, capacity=(2, 2, 1))
        assert solve_sd_bruteforce([1, 1, 1], pool).distance == 0.0

    def test_infeasible_raises(self):
        pool = make_pool(1, 1, capacity=(1, 1, 1))
        with pytest.raises(InfeasibleRequestError):
            solve_sd_bruteforce([2, 0, 0], pool)

    def test_wait_returns_none(self):
        pool = make_pool(1, 1, capacity=(1, 0, 0))
        pool.allocate(np.array([[1, 0, 0]]))
        assert solve_sd_bruteforce([1, 0, 0], pool) is None

    def test_adapter(self):
        pool = make_pool(2, 2)
        alloc = BruteForcePlacement(limit=100_000).place(pool, [2, 1, 0]).allocation
        assert alloc is not None
        assert alloc.demand.tolist() == [2, 1, 0]
