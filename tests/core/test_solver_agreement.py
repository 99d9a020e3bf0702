"""Cross-validation: all four SD solvers agree on the optimum.

The exact transportation solver, the MILP, the brute-force enumerator, and
the best-center online heuristic attack the same problem with completely
different machinery; Hypothesis drives them over random small instances and
they must return identical optimal distances. This is the strongest evidence
that (a) the MILP encoding is faithful, (b) the per-center greedy fill is
exactly optimal, and (c) Algorithm 1's best-center mode attains the optimum.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.resources import ResourcePool
from repro.cluster.topology import Topology
from repro.cluster.vmtypes import VMType, VMTypeCatalog
from repro.core.placement.bruteforce import solve_sd_bruteforce
from repro.core.placement.exact import solve_sd_exact
from repro.core.placement.greedy import OnlineHeuristic
from repro.core.placement.ilp import solve_gsd_milp, solve_sd_milp

TWO_TYPES = VMTypeCatalog(
    [
        VMType(name="a", memory_gb=1, cpu_units=1, storage_gb=10),
        VMType(name="b", memory_gb=2, cpu_units=2, storage_gb=20),
    ]
)


def build_pool(caps: list[list[int]], racks: int) -> ResourcePool:
    """Pool with explicit per-node capacities spread over *racks* racks."""
    from repro.cluster.node import PhysicalNode

    per_rack = -(-len(caps) // racks)
    nodes = [
        PhysicalNode(
            node_id=i,
            rack_id=min(i // per_rack, racks - 1),
            cloud_id=0,
            capacity=np.array(c),
        )
        for i, c in enumerate(caps)
    ]
    return ResourcePool(Topology(nodes), TWO_TYPES)


caps_strategy = st.lists(
    st.lists(st.integers(0, 2), min_size=2, max_size=2), min_size=4, max_size=6
)


@st.composite
def sd_instance(draw):
    caps = draw(caps_strategy)
    racks = draw(st.integers(1, 2))
    pool = build_pool(caps, racks)
    total = pool.available
    # Draw a feasible, non-empty demand.
    hi0, hi1 = int(total[0]), int(total[1])
    d0 = draw(st.integers(0, hi0))
    d1 = draw(st.integers(0, hi1))
    if d0 + d1 == 0:
        if hi0 > 0:
            d0 = 1
        elif hi1 > 0:
            d1 = 1
        else:
            return None
    return pool, np.array([d0, d1])


@settings(max_examples=60, deadline=None)
@given(instance=sd_instance())
def test_exact_equals_bruteforce(instance):
    if instance is None:
        return
    pool, demand = instance
    exact = solve_sd_exact(demand, pool)
    brute = solve_sd_bruteforce(demand, pool, limit=500_000)
    assert exact is not None and brute is not None
    assert exact.distance == pytest.approx(brute.distance)


@settings(max_examples=40, deadline=None)
@given(instance=sd_instance())
def test_milp_equals_exact(instance):
    if instance is None:
        return
    pool, demand = instance
    exact = solve_sd_exact(demand, pool)
    milp = solve_sd_milp(demand, pool)
    assert exact is not None and milp is not None
    assert milp.distance == pytest.approx(exact.distance)


@settings(max_examples=60, deadline=None)
@given(instance=sd_instance())
def test_heuristic_best_mode_equals_exact(instance):
    if instance is None:
        return
    pool, demand = instance
    exact = solve_sd_exact(demand, pool)
    heur = OnlineHeuristic(stop="best").place(pool, demand).allocation
    assert exact is not None and heur is not None
    assert heur.distance == pytest.approx(exact.distance)


@settings(max_examples=60, deadline=None)
@given(instance=sd_instance())
def test_first_mode_never_beats_exact(instance):
    if instance is None:
        return
    pool, demand = instance
    exact = solve_sd_exact(demand, pool)
    first = OnlineHeuristic(stop="first").place(pool, demand).allocation
    assert first is not None
    assert first.distance >= exact.distance - 1e-9


@settings(max_examples=25, deadline=None)
@given(instance=sd_instance(), data=st.data())
def test_gsd_lower_bounds_sequential(instance, data):
    """Exact GSD <= any sequential exact-SD placement of the same batch."""
    if instance is None:
        return
    pool, demand = instance
    # Split the demand into two sub-requests (both nonzero if possible).
    split0 = data.draw(st.integers(0, int(demand[0])))
    split1 = data.draw(st.integers(0, int(demand[1])))
    r1 = np.array([split0, split1])
    r2 = demand - r1
    if r1.sum() == 0 or r2.sum() == 0:
        return
    gsd = solve_gsd_milp([r1, r2], pool)
    assert gsd is not None
    work = pool.copy()
    seq = 0.0
    for r in (r1, r2):
        a = solve_sd_exact(r, work)
        assert a is not None
        work.allocate(a.matrix)
        seq += a.distance
    assert sum(a.distance for a in gsd) <= seq + 1e-6
