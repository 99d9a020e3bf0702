"""Tests for the SD / GSD MILP encodings."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.placement.exact import solve_sd_exact
from repro.core.placement.ilp import (
    MilpOptions,
    MilpPlacement,
    solve_gsd_milp,
    solve_sd_milp,
)
from repro.util.errors import InfeasibleRequestError

from tests.conftest import make_pool


def test_scipy_is_imported_only_by_a_milp_solve():
    """``import repro.service`` (every run, proc worker spawn and failover
    respawn pays it) must not pull scipy in; the first MILP solve does."""
    code = (
        "import sys\n"
        "import repro.service\n"
        "assert 'scipy' not in sys.modules, 'import repro.service pulled scipy'\n"
        "from repro.cluster import ResourcePool, Topology, VMTypeCatalog\n"
        "from repro.core.placement.ilp import solve_sd_milp\n"
        "pool = ResourcePool(Topology.build(2, 2, capacity=[2, 2, 1]),\n"
        "                    VMTypeCatalog.ec2_default())\n"
        "assert solve_sd_milp([1, 1, 1], pool).distance == 0.0\n"
        "assert 'scipy' in sys.modules\n"
    )
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


class TestSDMilp:
    def test_single_node_zero(self):
        pool = make_pool(2, 2, capacity=(2, 2, 1))
        assert solve_sd_milp([1, 1, 1], pool).distance == 0.0

    def test_demand_met_within_capacity(self):
        pool = make_pool(2, 3, capacity=(2, 1, 1))
        alloc = solve_sd_milp([3, 2, 1], pool)
        assert alloc.demand.tolist() == [3, 2, 1]
        assert np.all(alloc.matrix <= pool.remaining)

    def test_matches_exact_solver(self):
        pool = make_pool(2, 3, capacity=(2, 1, 1))
        for demand in ([3, 2, 1], [5, 0, 0], [1, 3, 2], [6, 6, 2]):
            milp = solve_sd_milp(demand, pool)
            exact = solve_sd_exact(demand, pool)
            assert milp.distance == pytest.approx(exact.distance), demand

    def test_infeasible_raises(self):
        pool = make_pool(1, 1, capacity=(1, 1, 1))
        with pytest.raises(InfeasibleRequestError):
            solve_sd_milp([2, 0, 0], pool)

    def test_wait_returns_none(self):
        pool = make_pool(1, 1, capacity=(1, 0, 0))
        pool.allocate(np.array([[1, 0, 0]]))
        assert solve_sd_milp([1, 0, 0], pool) is None

    def test_does_not_mutate_pool(self):
        pool = make_pool(2, 2)
        before = pool.allocated
        solve_sd_milp([2, 1, 1], pool)
        assert np.array_equal(pool.allocated, before)

    def test_reported_distance_is_true_dc(self):
        from repro.core.distance import cluster_distance

        pool = make_pool(2, 3, capacity=(2, 1, 1))
        alloc = solve_sd_milp([4, 3, 1], pool)
        dc, _ = cluster_distance(alloc.matrix, pool.distance_matrix)
        assert alloc.distance == pytest.approx(dc)

    def test_adapter_and_options(self):
        pool = make_pool(2, 2)
        placer = MilpPlacement(MilpOptions(time_limit=10.0))
        alloc = placer.place(pool, [1, 1, 0]).allocation
        assert alloc is not None


class TestGSDMilp:
    def test_empty_batch(self):
        pool = make_pool(2, 2)
        assert solve_gsd_milp([], pool) == []

    def test_batch_jointly_feasible(self):
        pool = make_pool(2, 3, capacity=(2, 1, 1))
        reqs = [np.array([2, 1, 0]), np.array([1, 1, 1]), np.array([2, 0, 1])]
        allocs = solve_gsd_milp(reqs, pool)
        assert len(allocs) == 3
        combined = sum(a.matrix for a in allocs)
        assert np.all(combined <= pool.remaining)
        for req, alloc in zip(reqs, allocs):
            assert np.array_equal(alloc.demand, req)

    def test_overcommitted_batch_returns_none(self):
        pool = make_pool(1, 2, capacity=(1, 1, 1))
        reqs = [np.array([2, 0, 0]), np.array([1, 0, 0])]
        assert solve_gsd_milp(reqs, pool) is None

    def test_single_request_matches_sd(self):
        pool = make_pool(2, 3, capacity=(2, 1, 1))
        req = np.array([4, 2, 1])
        gsd = solve_gsd_milp([req], pool)
        sd = solve_sd_milp(req, pool)
        assert gsd[0].distance == pytest.approx(sd.distance)

    def test_global_not_worse_than_sum_of_sequential(self):
        """The exact GSD optimum lower-bounds greedy sequential placement."""
        pool = make_pool(2, 3, capacity=(2, 1, 0))
        reqs = [np.array([3, 1, 0]), np.array([3, 1, 0]), np.array([3, 1, 0])]
        gsd = solve_gsd_milp(reqs, pool)
        work = pool.copy()
        seq_total = 0.0
        for r in reqs:
            a = solve_sd_exact(r, work)
            work.allocate(a.matrix)
            seq_total += a.distance
        assert sum(a.distance for a in gsd) <= seq_total + 1e-9

    def test_reported_distances_are_true_dc(self):
        from repro.core.distance import cluster_distance

        pool = make_pool(2, 3, capacity=(2, 1, 1))
        reqs = [np.array([3, 2, 0]), np.array([2, 1, 2])]
        for alloc in solve_gsd_milp(reqs, pool):
            dc, _ = cluster_distance(alloc.matrix, pool.distance_matrix)
            # The chosen center must realize the optimal DC of its matrix.
            assert alloc.distance == pytest.approx(dc)
