"""Property tests: the vectorized placement kernels are *bit-identical* to
the reference implementations in ``tests/core/oracles.py``.

The contract under test (see ``repro.core.placement.kernels``): for every
pool and request, ``OnlineHeuristic()`` returns exactly the allocation
``ReferenceHeuristic()``'s per-center Python loop returns — the same bytes
in the matrix, the same center, the same IEEE-754 distance. Likewise
``best_exchange`` vs its per-type loop and the worklist transfer scheduler
vs the full O(k²) re-sweep. Over 200 seeded random cases are checked per
configuration, including partially drained pools, the ``max_vms_per_rack``
spread constraint, and ``stop="first"``.

The sweep's one screen (``kernels.rack_screen``) has three oracles of its
own: the per-node ``tier_bound``, the (centers × nodes × types) tensor
screen the closed form replaced, kept here as ``tensor_screen``, and the
exact fill — plus ``solve_sd_exact``, the per-center transportation
solver, for the sweep's winner.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    DistanceModel,
    DynamicResourcePool,
    PoolSpec,
    ResourcePool,
    VMTypeCatalog,
    random_pool,
    random_topology,
)
from repro.cluster.node import PhysicalNode
from repro.cluster.topology import Topology
from repro.cluster.generators import RequestSpec, random_request
from repro.core import reliability
from repro.core.placement import kernels
from repro.core.placement.exact import solve_sd_exact
from repro.core.placement.global_opt import GlobalSubOptimizer
from repro.core.placement.greedy import OnlineHeuristic, greedy_fill
from repro.core.placement.transfer import best_exchange, transfer_pair
from repro.core.problem import Allocation, VirtualClusterRequest
from repro.core.theorems import apply_theorem2_exchange
from repro.obs.registry import MetricsRegistry
from repro.service.shard import ShardRouter
from repro.service.state import ClusterState
from repro.util.errors import ValidationError
from repro.util.rng import ensure_rng
from tests.conftest import sparse_rack_pool
from tests.core.oracles import (
    ReferenceHeuristic,
    _reference_best_exchange,
    _reference_fill_order,
    _reference_greedy_fill,
    _reference_transfer_pair,
    tier_bound,
)

CATALOG = VMTypeCatalog.ec2_default()


def make_case(seed: int, *, drain: bool = True):
    """One random (pool, request) pair with a varied shape and fill level."""
    rng = ensure_rng(seed)
    spec = PoolSpec(
        racks=int(rng.integers(2, 6)),
        nodes_per_rack=int(rng.integers(3, 11)),
        capacity_high=int(rng.integers(2, 5)),
    )
    pool = random_pool(spec, CATALOG, seed=seed)
    if drain and rng.random() < 0.7:
        # Partially drain the pool so `remaining` differs from capacity —
        # the kernels must track availability, not the static topology.
        usage = rng.integers(0, pool.remaining + 1)
        pool.allocate(usage.astype(np.int64))
    request = random_request(
        RequestSpec(low=0, high=int(rng.integers(2, 7)), min_total=2),
        pool.num_types,
        seed=rng,
    )
    return pool, request


def make_dynamic_case(seed: int) -> DynamicResourcePool:
    """A two-cloud pool of small racks with failed, reconfigured and drained
    nodes — small enough that mid-sized requests spill past the center's
    rack and past its cloud."""
    rng = ensure_rng(seed)
    spec = PoolSpec(
        clouds=2,
        racks=int(rng.integers(1, 4)),
        nodes_per_rack=int(rng.integers(1, 5)),
        capacity_high=int(rng.integers(1, 4)),
    )
    pool = DynamicResourcePool(
        random_topology(spec, CATALOG, seed=seed),
        CATALOG,
        distance_model=DistanceModel(0.3, 0.7, 1.9) if seed % 2 else None,
    )
    n = pool.num_nodes
    if rng.random() < 0.6:
        pool.allocate(rng.integers(0, pool.remaining + 1).astype(np.int64))
    for node in rng.choice(n, size=int(rng.integers(0, n // 3 + 1)), replace=False):
        pool.fail_node(int(node))
    for node in rng.integers(0, n, size=2):
        if pool.is_active(int(node)):
            pool.reconfigure_node(int(node), rng.integers(0, 5, size=pool.num_types))
    return pool


def tensor_screen(block, demand, remaining, dist) -> np.ndarray:
    """The screen the tier closed form replaced, kept as its oracle: the
    per-type cumulative fill for every center in *block* along its
    pure-distance node order — a (centers × nodes × types) tensor pass."""
    k, n = block.shape[0], dist.shape[0]
    cols = dist[:, block].T
    orders = np.lexsort((np.broadcast_to(np.arange(n), (k, n)), cols), axis=-1)
    d_sorted = np.take_along_axis(cols, orders, axis=-1)
    caps = np.minimum(remaining[orders], demand[None, None, :])
    prev = np.cumsum(caps, axis=1) - caps
    takes = np.minimum(caps, np.maximum(demand[None, None, :] - prev, 0))
    return np.einsum("kn,kn->k", takes.sum(axis=2, dtype=np.float64), d_sorted)


def assert_same_allocation(a, b, context: str) -> None:
    if a is None or b is None:
        assert a is None and b is None, f"{context}: one side placed, other not"
        return
    assert a.matrix.tobytes() == b.matrix.tobytes(), f"{context}: matrices differ"
    assert a.center == b.center, f"{context}: centers differ"
    assert a.distance == b.distance, f"{context}: distances differ (exact ==)"


# --------------------------------------------------------------------- place


@pytest.mark.parametrize(
    "config",
    [
        {"stop": "best"},
        {"stop": "first"},
        {"stop": "best", "max_vms_per_rack": 6},
        {"stop": "first", "max_vms_per_rack": 4},
    ],
    ids=["best", "first", "best-rack6", "first-rack4"],
)
def test_place_bit_identical_over_seeded_cases(config):
    """≥200 cases per config: kernel sweep == reference sweep, byte for byte."""
    placed = 0
    for seed in range(70):
        pool, _ = make_case(seed)
        rng = ensure_rng(10_000 + seed)
        for _ in range(3):
            request = random_request(
                RequestSpec(low=0, high=5, min_total=1), pool.num_types, seed=rng
            )
            fast = OnlineHeuristic(**config)
            slow = ReferenceHeuristic(**config)
            a = fast.place(pool, request).allocation
            b = slow.place(pool, request).allocation
            assert_same_allocation(a, b, f"seed={seed} request={request}")
            if a is not None:
                placed += 1
    # The comparison is vacuous if everything was refused.
    assert placed >= 100


def test_place_bit_identical_on_drained_pool_sequences():
    """Committing each allocation between placements (the Algorithm-2 step-2
    pattern) keeps kernel and reference in lockstep as the pool empties."""
    for seed in range(20):
        pool_fast, _ = make_case(seed, drain=False)
        pool_slow = pool_fast.copy()
        fast = OnlineHeuristic()
        slow = ReferenceHeuristic()
        rng = ensure_rng(20_000 + seed)
        for step in range(8):
            request = random_request(
                RequestSpec(low=0, high=4, min_total=1),
                pool_fast.num_types,
                seed=rng,
            )
            a = fast.place(pool_fast, request).allocation
            b = slow.place(pool_slow, request).allocation
            assert_same_allocation(a, b, f"seed={seed} step={step}")
            if a is not None:
                pool_fast.allocate(a.matrix)
                pool_slow.allocate(b.matrix)


@pytest.mark.parametrize(
    "config",
    [
        {"stop": "best"},
        {"stop": "first", "center_order": "random", "seed": 5},
        {"stop": "best", "max_vms_per_rack": 3},
        {"stop": "first", "max_vms_per_rack": 2},
    ],
    ids=["best", "first-random", "best-rack3", "first-rack2"],
)
def test_place_bit_identical_on_dynamic_pools(config):
    """Failed and reconfigured nodes, two clouds, requests that spill past
    the rack and past the cloud: the tier structure is the static one, the
    reference loop runs on the liveness-masked matrix, the bytes agree."""
    placed = past_rack = past_cloud = 0
    for seed in range(60):
        pool = make_dynamic_case(seed)
        assert pool.topology_cache is not None
        racks, clouds = pool.topology.rack_ids, pool.topology.cloud_ids
        rng = ensure_rng(70_000 + seed)
        for _ in range(3):
            request = random_request(
                RequestSpec(low=0, high=6, min_total=2), pool.num_types, seed=rng
            )
            if pool.exceeds_max_capacity(request):
                continue
            a = OnlineHeuristic(**config).place(pool, request)
            b = ReferenceHeuristic(**config).place(pool, request)
            a, b = a.allocation, b.allocation
            assert_same_allocation(a, b, f"seed={seed} request={request}")
            if a is not None:
                used = np.flatnonzero(a.matrix.sum(axis=1))
                assert pool.active_nodes[used].all()
                placed += 1
                past_rack += len(set(racks[used])) > 1
                past_cloud += len(set(clouds[used])) > 1
    assert placed >= 40 and past_rack >= 15 and past_cloud >= 3


@pytest.mark.parametrize("scope", ["rack", "node"])
def test_survivability_caps_walk_the_full_order(scope):
    """A per-domain cap can push a fill out of a rack that could finish it,
    so the budgeted walk must not stop at the rack-local prefix: capped
    placements agree with the reference where the cap really binds, and
    rack-scope ones leave a rack that had room for the whole request."""
    target = reliability.SurvivabilityTarget(kind=scope, k=1)
    binding = left_rack = 0
    for seed in range(40):
        pool, _ = make_case(seed)
        racks = pool.topology.rack_ids
        rng = ensure_rng(80_000 + seed)
        for _ in range(3):
            demand = random_request(
                RequestSpec(low=0, high=3, min_total=2), pool.num_types, seed=rng
            )
            request = VirtualClusterRequest(demand=demand, survivability=target)
            if reliability.refusal_reason(demand, pool, target) is not None:
                continue
            a = OnlineHeuristic().place(pool, request).allocation
            b = ReferenceHeuristic().place(pool, request).allocation
            assert_same_allocation(a, b, f"seed={seed} demand={demand}")
            plain = OnlineHeuristic().place(pool, demand).allocation
            if a is None or plain is None:
                continue
            binding += not np.array_equal(a.matrix, plain.matrix)
            used = np.flatnonzero(a.matrix.sum(axis=1))
            rack_free = pool.remaining[racks == racks[a.center]].sum(axis=0)
            left_rack += bool(np.all(rack_free >= demand) and len(set(racks[used])) > 1)
    assert binding >= 20
    assert left_rack >= 10 or scope == "node"


# ------------------------------------------------------------ tier closed form


@st.composite
def tiered_cases(draw):
    """Drained pools over 1–2 clouds, racks down to a single node, dyadic,
    integer and non-dyadic distance models."""
    seed = draw(st.integers(0, 10_000))
    spec = PoolSpec(
        clouds=draw(st.integers(1, 2)),
        racks=draw(st.integers(1, 4)),
        nodes_per_rack=draw(st.integers(1, 5)),
        capacity_high=draw(st.integers(1, 4)),
    )
    model = draw(st.sampled_from(
        [DistanceModel(), DistanceModel(2.0, 3.0, 7.0), DistanceModel(0.3, 0.7, 1.9)]
    ))
    pool = random_pool(spec, CATALOG, seed=seed, distance_model=model)
    rng = ensure_rng(seed)
    if draw(st.booleans()):
        pool.allocate(rng.integers(0, pool.remaining + 1).astype(np.int64))
    demand = np.asarray(
        draw(st.lists(st.integers(0, 7), min_size=3, max_size=3)), dtype=np.int64
    )
    return pool, demand


@settings(max_examples=150, deadline=None)
@given(case=tiered_cases())
def test_tier_bound_matches_tensor_screen_and_bounds_the_fill(case):
    """The sweep's screen, ``kernels.rack_screen``, is the tensor screen up
    to summation order and a lower bound on every center's fill, capped or
    not, on dyadic, integer and non-dyadic models."""
    pool, demand = case
    remaining, dist = pool.remaining, pool.distance_matrix
    centers = np.arange(pool.num_nodes)
    cache = pool.topology_cache
    bound = kernels.rack_screen(
        cache, cache.per_rack(remaining), demand,
        kernels.providable(remaining, demand),
    )
    oracle = tensor_screen(centers, demand, remaining, dist)
    # Same per-tier totals, another summation order: float64 over < 100 terms.
    np.testing.assert_allclose(bound, oracle, rtol=1e-9, atol=1e-12)
    for center in centers:
        matrix = _reference_greedy_fill(int(center), demand, remaining, dist)
        if matrix is None:
            continue
        dc = float(matrix.sum(axis=1).astype(np.float64) @ dist[:, center])
        assert bound[center] <= dc + 1e-12 * (1.0 + dc)
        capped = _reference_greedy_fill(
            int(center), demand, remaining, dist,
            rack_ids=pool.topology.rack_ids, max_vms_per_rack=2,
        )
        if capped is not None:
            capped_dc = float(capped.sum(axis=1).astype(np.float64) @ dist[:, center])
            assert bound[center] <= capped_dc + 1e-12 * (1.0 + capped_dc)


@settings(max_examples=60, deadline=None)
@given(case=tiered_cases())
def test_best_sweep_attains_the_exact_optimum(case):
    """``stop="best"`` equals the per-center transportation solver."""
    pool, demand = case
    if demand.sum() == 0 or pool.exceeds_max_capacity(demand):
        return
    got = OnlineHeuristic().place(pool, demand).allocation
    exact = solve_sd_exact(demand, pool)
    if exact is None:
        assert got is None
        return
    assert got is not None
    assert got.distance == pytest.approx(exact.distance, rel=1e-12, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(case=tiered_cases())
def test_rack_screen_is_the_tier_bound_sum_on_exact_tiers(case):
    """The per-rack screen is ``tier_bound(...).sum(axis=1)`` to the bit
    wherever the sweep uses it, and only there is it claimed to be."""
    pool, demand = case
    cache, remaining = pool.topology_cache, pool.remaining
    rack_free = cache.per_rack(remaining)
    want = tier_bound(cache, remaining, rack_free, demand).sum(axis=1)
    got = kernels.rack_screen(
        cache, rack_free, demand, kernels.providable(remaining, demand)
    )
    if cache.exact_for(int(demand.sum())):
        assert got.tobytes() == want.tobytes()
    else:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@st.composite
def tie_heavy_cases(draw):
    """Uniform capacities, so every center of a rack ties and so does every
    rack of a cloud; 1–3 clouds, sparse cloud ids and sparse rack ids that
    descend with node id;
    failed (zero-capacity) nodes behind a failure-masked distance matrix;
    the candidates in a random order (``center_order="random"``)."""
    seed = draw(st.integers(0, 10_000))
    cap = draw(st.integers(1, 3))
    spec = PoolSpec(
        clouds=draw(st.integers(1, 3)),
        racks=draw(st.integers(1, 4)),
        nodes_per_rack=draw(st.integers(1, 5)),
        capacity_low=cap,
        capacity_high=cap,
    )
    base = random_topology(spec, CATALOG, seed=seed)
    topology = Topology([
        PhysicalNode(
            node_id=node.node_id,
            rack_id=100 - 7 * node.rack_id,
            cloud_id=3 * node.cloud_id + 1,
            capacity=node.capacity,
        )
        for node in base.nodes
    ])
    model = draw(st.sampled_from([DistanceModel(), DistanceModel(2.0, 3.0, 7.0)]))
    pool = DynamicResourcePool(topology, CATALOG, distance_model=model)
    n = pool.num_nodes
    for node in draw(st.lists(st.integers(0, n - 1), max_size=n // 2, unique=True)):
        pool.fail_node(node)
    rng = ensure_rng(seed)
    if draw(st.booleans()):
        pool.allocate(rng.integers(0, pool.remaining + 1) // 2)
    demand = np.asarray(
        draw(st.lists(st.integers(0, 3 * cap + 2), min_size=3, max_size=3)),
        dtype=np.int64,
    )
    candidates = rng.permutation(np.flatnonzero(pool.remaining.sum(axis=1) > 0))
    return pool, demand, candidates


@settings(max_examples=200, deadline=None)
@given(case=tie_heavy_cases())
def test_one_fill_sweep_is_the_reference_on_tie_heavy_pools(case):
    """The one-fill sweep — per-rack screen, one rack's order, ``dc`` on the
    touched rows — returns the reference loop's winner byte for byte, fills
    one center, and never needs the guard's fallback."""
    pool, demand, candidates = case
    remaining, dist = pool.remaining, pool.distance_matrix
    registry = MetricsRegistry()
    got = kernels.sweep_best(
        candidates, demand, remaining, dist, cache=pool.topology_cache,
        rack_free=pool.rack_free, obs=registry,
    )
    want = ReferenceHeuristic()._sweep(
        candidates, demand, remaining, dist, None, None
    )
    assert registry.get("repro_placement_exact_fallbacks_total") is None
    if want is None:
        assert got is None
        return
    assert got[0].tobytes() == want.matrix.tobytes()
    assert (got[1], got[2]) == (want.center, want.distance)
    assert _centers_counter(registry, "filled") == 1
    assert _centers_counter(registry, "pruned") == candidates.size - 1


@pytest.mark.parametrize("total, exact", [(2047, True), (2048, False)])
def test_sweep_at_the_exactness_bound(total, exact):
    """``Σ demand · d3`` just below 2⁴³ keeps the one-fill path; at 2⁴³ the
    sweep takes the full loop (and counts the fallback). Both return the
    reference winner. The same total is the same boundary for the other two
    callers of ``TopologyCache.exact_for``: a pair holding that many VMs is
    searched on its holder rows below it and on the full path at it, and
    the router gives its exact estimate below it only."""
    model = DistanceModel(2.0**30, 2.0**31, 2.0**32)
    rows = [
        (rack, 3 * rack + node, name, 300 + 17 * node + 5 * rack)
        for rack in range(4)
        for node in range(3)
        for name in CATALOG.names
    ]
    pool = ResourcePool.from_table(
        rows, CATALOG, distance_model=model, cloud_of_rack={2: 1, 3: 1}
    )
    demand = np.array([total // 3, total // 3, total - 2 * (total // 3)])
    assert pool.topology_cache.exact_for(int(demand.sum())) == exact
    candidates = np.arange(pool.num_nodes)
    registry = MetricsRegistry()
    got = kernels.sweep_best(
        candidates, demand, pool.remaining, pool.distance_matrix,
        cache=pool.topology_cache, rack_free=pool.rack_free, obs=registry,
    )
    want = ReferenceHeuristic()._sweep(
        candidates, demand, pool.remaining, pool.distance_matrix, None, None
    )
    assert got[0].tobytes() == want.matrix.tobytes()
    assert (got[1], got[2]) == (want.center, want.distance)
    fallbacks = registry.get("repro_placement_exact_fallbacks_total")
    if exact:
        assert fallbacks is None and _centers_counter(registry, "filled") == 1
    else:
        assert fallbacks.labels(kernel="sweep").value == 1

    # The winner split by type into a pair that holds all `total` VMs.
    dist = pool.distance_matrix
    first = np.zeros_like(got[0])
    first[:, 0] = got[0][:, 0]
    pair = [Allocation.from_matrix(m, dist) for m in (first, got[0] - first)]
    assert pair[0].total_vms + pair[1].total_vms == total
    registry = MetricsRegistry()
    ref = _reference_transfer_pair(*pair, dist)
    got_pair = transfer_pair(
        *pair, dist, cache=pool.topology_cache, obs=registry
    )
    assert_same_transfer(got_pair, ref, f"total={total}")
    family = registry.get(_FALLBACKS)
    assert (0 if family is None else family.labels(kernel="transfer").value) == (
        0 if exact else 1
    )

    state = ClusterState.from_pool(pool)
    estimate = ShardRouter([state]).exact_estimate_dc(0, state, demand)
    if exact:
        assert isinstance(estimate, float) and estimate <= got[2]
    else:
        assert estimate is None


# ------------------------------------------------------------ fill primitives


def test_fill_order_matches_reference():
    for seed in range(40):
        pool, request = make_case(seed)
        dist = pool.distance_matrix
        remaining = pool.remaining
        cache = pool.topology_cache
        rng = ensure_rng(30_000 + seed)
        for center in rng.integers(0, pool.num_nodes, size=3):
            center = int(center)
            ref = _reference_fill_order(center, request, remaining, dist)
            got = kernels.fill_order(center, request, remaining, dist)
            cached = kernels.fill_order(
                center, request, remaining, dist, cache=cache
            )
            np.testing.assert_array_equal(got, ref)
            np.testing.assert_array_equal(cached, ref)
            covering = kernels.TierOrders(
                cache, request, remaining, cache.per_rack(remaining)
            ).covering(center)
            np.testing.assert_array_equal(covering, ref[: covering.size])


@pytest.mark.parametrize("max_vms_per_rack", [None, 3, 6])
def test_greedy_fill_matches_reference(max_vms_per_rack):
    for seed in range(40):
        pool, request = make_case(seed)
        dist = pool.distance_matrix
        remaining = pool.remaining
        rack_ids = pool.topology.rack_ids
        rng = ensure_rng(40_000 + seed)
        for center in rng.integers(0, pool.num_nodes, size=3):
            center = int(center)
            ref = _reference_greedy_fill(
                center,
                request,
                remaining,
                dist,
                rack_ids=rack_ids,
                max_vms_per_rack=max_vms_per_rack,
            )
            got = greedy_fill(
                center,
                request,
                remaining,
                dist,
                rack_ids=rack_ids,
                max_vms_per_rack=max_vms_per_rack,
            )
            if ref is None:
                assert got is None
            else:
                assert got is not None
                assert got.tobytes() == ref.tobytes()


def test_sweep_cached_equals_uncached():
    """The screen is a pure accelerator: the sweep on the TopologyCache picks
    the winner of filling *every* candidate from the bare distance matrix."""
    for seed in range(30):
        pool, request = make_case(seed)
        remaining = pool.remaining
        dist = pool.distance_matrix
        candidates = np.flatnonzero(remaining.sum(axis=1) > 0)
        with_cache = kernels.sweep_best(
            candidates, request, remaining, dist,
            cache=pool.topology_cache, rack_free=pool.rack_free,
        )
        without = None
        for center in candidates:
            matrix = greedy_fill(int(center), request, remaining, dist)
            if matrix is None:
                continue
            dc = float(matrix.sum(axis=1).astype(np.float64) @ dist[:, center])
            if without is None or dc < without[2] - 1e-12:
                without = (matrix, int(center), dc)
        if with_cache is None:
            assert without is None
            continue
        assert without is not None
        assert with_cache[0].tobytes() == without[0].tobytes()
        assert with_cache[1] == without[1]
        assert with_cache[2] == without[2]


def _centers_counter(registry, what: str) -> float:
    family = registry.get(f"repro_placement_centers_{what}_total")
    return 0.0 if family is None else family.value


@pytest.mark.parametrize(
    "model, one_fill",
    [
        (DistanceModel(), True),
        (DistanceModel(2.0, 3.0, 7.0), True),
        (DistanceModel(0.3, 0.7, 1.9), False),
    ],
    ids=["paper", "integer", "non-dyadic"],
)
def test_tied_centers_are_never_filled(model, one_fill):
    """Uniform capacities make every center of a rack tie, and every rack of
    a cloud: on-grid tier distances let an unbudgeted sweep fill one center,
    the first minimum, which is the reference winner byte for byte. The
    non-dyadic model keeps the margin path and must agree just the same."""
    reference = ReferenceHeuristic()
    sweeps = tied = 0
    for seed in range(12):
        rng = ensure_rng(90_000 + seed)
        cap = int(rng.integers(1, 4))
        spec = PoolSpec(
            clouds=int(rng.integers(1, 3)),
            racks=int(rng.integers(2, 5)),
            nodes_per_rack=int(rng.integers(2, 7)),
            capacity_low=cap,
            capacity_high=cap,
        )
        pool = random_pool(spec, CATALOG, seed=seed, distance_model=model)
        dist = pool.distance_matrix
        for _ in range(4):
            remaining = pool.remaining
            # More than one node holds per type: no single-node shortcut.
            demand = rng.integers(cap + 1, 3 * cap + 2, size=pool.num_types)
            if np.any(remaining.sum(axis=0) < demand):
                break
            candidates = np.flatnonzero(remaining.sum(axis=1) > 0)
            cache = pool.topology_cache
            screen = tier_bound(
                cache, remaining, cache.per_rack(remaining), demand
            )
            screen = screen.sum(axis=1)[candidates]
            tied += int(np.count_nonzero(screen == screen.min()) > 1)
            registry = MetricsRegistry()
            got = kernels.sweep_best(
                candidates, demand, remaining, dist,
                cache=pool.topology_cache, rack_free=pool.rack_free, obs=registry,
            )
            want = reference._sweep(
                candidates, demand, remaining, dist, None, None
            )
            assert got[0].tobytes() == want.matrix.tobytes()
            assert (got[1], got[2]) == (want.center, want.distance)
            filled = _centers_counter(registry, "filled")
            pruned = _centers_counter(registry, "pruned")
            assert filled + pruned == candidates.size
            assert filled == 1 if one_fill else filled >= 1
            pool.allocate(got[0])
            sweeps += 1
    assert sweeps >= 30 and tied >= 0.8 * sweeps


def test_one_fill_falls_back_when_the_winner_misses_its_screen(monkeypatch):
    """If the filled winner's exact ``dc`` ever differs from its screen
    value, the sweep reruns the full loop and still returns the reference
    winner: here the per-rack screen under-reads every center of a losing
    rack, whose first center the one-fill path then fills alone — the real
    winner not filled at all."""
    pool, _ = make_case(2, drain=False)
    remaining, dist = pool.remaining, pool.distance_matrix
    demand = remaining.max(axis=0) + 1  # no single node holds it
    candidates = np.flatnonzero(remaining.sum(axis=1) > 0)
    cache = pool.topology_cache
    honest = tier_bound(
        cache, remaining, cache.per_rack(remaining), demand
    ).sum(axis=1)
    first_min = candidates[np.argmin(honest[candidates])]
    others = candidates[cache.rack_index[candidates] != cache.rack_index[first_min]]
    loser_rack = int(cache.rack_index[others[np.argmax(honest[others])]])
    assert np.all(honest[cache.rack_nodes(loser_rack)] > honest[first_min])

    rack_screen = kernels.rack_screen

    def under_read(cache, rack_free, need, prov):
        screen = rack_screen(cache, rack_free, need, prov)
        screen[cache.rack_nodes(loser_rack)] = 0.0
        return screen

    monkeypatch.setattr(kernels, "rack_screen", under_read)
    registry = MetricsRegistry()
    got = kernels.sweep_best(
        candidates, demand, remaining, dist, cache=pool.topology_cache,
        rack_free=pool.rack_free, obs=registry,
    )
    want = ReferenceHeuristic()._sweep(
        candidates, demand, remaining, dist, None, None
    )
    assert got[0].tobytes() == want.matrix.tobytes()
    assert (got[1], got[2]) == (want.center, want.distance)
    assert cache.rack_index[got[1]] != loser_rack
    assert _centers_counter(registry, "filled") >= 2
    fallbacks = registry.get("repro_placement_exact_fallbacks_total")
    assert fallbacks.labels(kernel="sweep").value == 1


def _leased_state(pool, seed: int) -> ClusterState:
    """*pool* as a ClusterState with a few committed leases, so its
    maintained per-rack aggregate has moved away from the capacity's."""
    state = ClusterState.from_pool(pool)
    rng = ensure_rng(seed)
    for rid in range(int(rng.integers(0, 6))):
        request = random_request(
            RequestSpec(low=0, high=3, min_total=1), state.num_types, seed=rng
        )
        if state.can_satisfy(request):
            state.allocate_lease(rid, OnlineHeuristic().place(state, request).allocation)
    return state


@pytest.mark.parametrize(
    "make_pool",
    [
        lambda seed: make_case(seed)[0],
        lambda seed: random_pool(
            PoolSpec(clouds=2, racks=2, nodes_per_rack=4, capacity_high=3),
            CATALOG, seed=seed, distance_model=DistanceModel(0.3, 0.7, 1.9),
        ),
        sparse_rack_pool,
    ],
    ids=["paper", "non-dyadic", "sparse-rack-ids"],
)
@pytest.mark.parametrize("cap", [None, 3])
def test_sweep_on_the_states_rack_free_is_byte_equal(monkeypatch, make_pool, cap):
    """Feeding the sweep ``ClusterState.rack_free`` (maintained through
    commits) returns exactly what recomputing ``per_rack(remaining)`` does,
    and so does screening with the per-node oracle ``tier_bound`` in place
    of ``rack_screen`` — matrix bytes, center, ``dc`` and the
    screened/pruned/filled counts — on the one-fill path, the margin path
    and sparse rack ids."""
    rack_screen = kernels.rack_screen
    swept = 0
    for seed in range(25):
        state = _leased_state(make_pool(seed), 95_000 + seed)
        cache, remaining = state.topology_cache, state.remaining
        np.testing.assert_array_equal(state.rack_free, cache.per_rack(remaining))
        rack_ids = state.topology.rack_ids if cap else None
        rng = ensure_rng(96_000 + seed)
        for _ in range(3):
            demand = random_request(
                RequestSpec(low=0, high=5, min_total=2), state.num_types, seed=rng
            )
            candidates = np.flatnonzero(remaining.sum(axis=1) > 0)

            def oracle_screen(cache, rack_free, need, prov):
                return tier_bound(cache, remaining, rack_free, need).sum(axis=1)

            runs = []
            for rack_free, screen in (
                (state.rack_free, rack_screen),
                (cache.per_rack(remaining), rack_screen),
                (state.rack_free, oracle_screen),
            ):
                registry = MetricsRegistry()
                with monkeypatch.context() as patch:
                    patch.setattr(kernels, "rack_screen", screen)
                    got = kernels.sweep_best(
                        candidates, demand, remaining, state.distance_matrix,
                        cache=cache, rack_free=rack_free, rack_ids=rack_ids,
                        max_vms_per_rack=cap, obs=registry,
                    )
                counts = [
                    _centers_counter(registry, what)
                    for what in ("screened", "pruned", "filled")
                ]
                runs.append((got, counts))
            (a, a_counts), *others = runs
            for b, b_counts in others:
                assert a_counts == b_counts
                if a is None or b is None:
                    assert a is None and b is None
                    continue
                assert a[0].tobytes() == b[0].tobytes() and a[1:] == b[1:]
            swept += a is not None
    assert swept >= 20


def test_sweep_without_cache_is_rejected():
    pool, request = make_case(4, drain=False)
    candidates = np.arange(pool.num_nodes)
    for sweep in (kernels.sweep_best, kernels.sweep_first):
        with pytest.raises(ValidationError, match="TopologyCache"):
            sweep(
                candidates, request, pool.remaining, pool.distance_matrix,
                rack_free=pool.rack_free,
            )


def test_sweep_infeasible_returns_none():
    pool, _ = make_case(3, drain=False)
    demand = pool.remaining.sum(axis=0) + 1  # beyond total availability
    candidates = np.arange(pool.num_nodes)
    for sweep in (kernels.sweep_best, kernels.sweep_first):
        assert (
            sweep(
                candidates, demand, pool.remaining, pool.distance_matrix,
                rack_free=pool.rack_free,
            )
            is None
        )


def test_rack_cap_without_rack_ids_raises_on_every_path():
    """Regression: the ``max_vms_per_rack requires rack_ids`` check used to
    live inside ``fill_one_rack_limited`` only, so the vectorized sweeps
    with an *empty* candidate list (or one fully screened out) silently
    returned ``None`` instead of flagging the caller bug. The check is now
    eager and shared across every kernel entry point."""
    pool, request = make_case(5, drain=False)
    empty = np.array([], dtype=np.int64)
    for sweep in (kernels.sweep_best, kernels.sweep_first):
        with pytest.raises(ValidationError, match="requires rack_ids"):
            sweep(
                empty,
                request,
                pool.remaining,
                pool.distance_matrix,
                rack_free=pool.rack_free,
                max_vms_per_rack=2,
            )
    with pytest.raises(ValidationError, match="requires rack_ids"):
        kernels.fill_one_rack_limited(
            0, request, pool.remaining, pool.distance_matrix,
            rack_ids=None, max_vms_per_rack=2,
        )
    with pytest.raises(ValidationError, match="requires rack_ids"):
        greedy_fill(
            0, request, pool.remaining, pool.distance_matrix,
            max_vms_per_rack=2,
        )
    with pytest.raises(ValidationError, match="requires rack_ids"):
        _reference_greedy_fill(
            0, request, pool.remaining, pool.distance_matrix,
            max_vms_per_rack=2,
        )


# ------------------------------------------------------------- best_exchange


def _random_pair(seed: int):
    """Two committed allocations with distinct centers, or None."""
    pool, _ = make_case(seed, drain=False)
    rng = ensure_rng(50_000 + seed)
    heuristic = OnlineHeuristic()
    pair = []
    for _ in range(6):
        request = random_request(
            RequestSpec(low=0, high=4, min_total=3), pool.num_types, seed=rng
        )
        alloc = heuristic.place(pool, request).allocation
        if alloc is None:
            continue
        pool.allocate(alloc.matrix)
        if all(alloc.center != a.center for a in pair):
            pair.append(alloc)
        if len(pair) == 2:
            return pool, pair[0], pair[1]
    return None


def test_best_exchange_matches_reference():
    checked = 0
    for seed in range(80):
        case = _random_pair(seed)
        if case is None:
            continue
        pool, a1, a2 = case
        dist = pool.distance_matrix
        got = best_exchange(a1.matrix, a2.matrix, dist, a1.center, a2.center)
        ref = _reference_best_exchange(
            a1.matrix, a2.matrix, dist, a1.center, a2.center
        )
        assert got == ref, f"seed={seed}: {got} != {ref}"
        # Symmetric direction exercises the other argmax orientation.
        got_rev = best_exchange(a2.matrix, a1.matrix, dist, a2.center, a1.center)
        ref_rev = _reference_best_exchange(
            a2.matrix, a1.matrix, dist, a2.center, a1.center
        )
        assert got_rev == ref_rev
        checked += 1
    assert checked >= 30


def test_best_exchange_empty_columns():
    """Types held by only one side must not produce NaN/inf winners."""
    dist = np.array([[0.0, 2.0], [2.0, 0.0]])
    m1 = np.array([[1, 0], [0, 0]], dtype=np.int64)
    m2 = np.array([[0, 0], [0, 1]], dtype=np.int64)
    got = best_exchange(m1, m2, dist, 0, 1)
    ref = _reference_best_exchange(m1, m2, dist, 0, 1)
    assert got == ref


@pytest.mark.parametrize("recenter", [True, False])
def test_transfer_pair_matches_reference(recenter):
    """Fast recentering (inlined ``counts @ D`` argmin) == the original
    ``Allocation.from_matrix`` formulation, bit for bit."""
    checked = 0
    for seed in range(60):
        case = _random_pair(seed)
        if case is None:
            continue
        pool, a1, a2 = case
        dist = pool.distance_matrix
        got = transfer_pair(a1, a2, dist, recenter=recenter)
        ref = _reference_transfer_pair(a1, a2, dist, recenter=recenter)
        assert got.exchanges == ref.exchanges
        assert got.gain == ref.gain
        assert_same_allocation(got.first, ref.first, f"seed={seed} first")
        assert_same_allocation(got.second, ref.second, f"seed={seed} second")
        checked += 1
    assert checked >= 25


def _scrambled_pair(seed: int):
    """A :func:`_random_pair` pushed off its fixpoint by three random
    same-type exchanges, so the search has improving steps to find."""
    case = _random_pair(seed)
    if case is None:
        return None
    pool, a1, a2 = case
    rng = ensure_rng(70_000 + seed)
    m1, m2 = a1.matrix, a2.matrix
    for _ in range(3):
        j = int(rng.integers(m1.shape[1]))
        us, vs = np.flatnonzero(m1[:, j]), np.flatnonzero(m2[:, j])
        if us.size and vs.size:
            m1, m2 = apply_theorem2_exchange(
                m1, m2, int(rng.choice(us)), int(rng.choice(vs)), j
            )
    dist = pool.distance_matrix
    return (
        pool,
        Allocation.with_center(m1, dist, a1.center),
        Allocation.with_center(m2, dist, a2.center),
    )


def assert_same_transfer(got, ref, context: str) -> None:
    assert got.exchanges == ref.exchanges, context
    assert got.gain == ref.gain, context
    assert_same_allocation(got.first, ref.first, f"{context} first")
    assert_same_allocation(got.second, ref.second, f"{context} second")


_FALLBACKS = "repro_placement_exact_fallbacks_total"


@pytest.mark.parametrize("recenter", [True, False])
def test_transfer_pair_on_holder_rows_matches_reference(recenter):
    """With the pool's cache the pair is searched on its holder rows: same
    exchanges, gain and allocations as the reference, bit for bit, and the
    exactness guard never sends a pair to the full path."""
    checked = improved = 0
    for seed in range(60):
        for make in (_random_pair, _scrambled_pair):
            case = make(seed)
            if case is None:
                continue
            pool, a1, a2 = case
            dist = pool.distance_matrix
            registry = MetricsRegistry()
            got = transfer_pair(
                a1, a2, dist, cache=pool.topology_cache, obs=registry,
                recenter=recenter,
            )
            ref = _reference_transfer_pair(a1, a2, dist, recenter=recenter)
            assert_same_transfer(got, ref, f"seed={seed} {make.__name__}")
            assert registry.get(_FALLBACKS) is None
            checked += 1
            improved += got.improved
    assert checked >= 100 and improved >= 30


def test_transfer_pair_that_moves_nothing_returns_its_inputs():
    """On holder rows, a pair where no exchange applies and both centers
    hold comes back as the very input objects, with no exchange and zero
    gain — what the reference rebuilds, equal to the bit."""
    unchanged = recentered = 0
    for seed in range(60):
        case = _random_pair(seed)
        if case is None:
            continue
        pool, a1, a2 = case
        dist = pool.distance_matrix
        got = transfer_pair(a1, a2, dist, cache=pool.topology_cache)
        ref = _reference_transfer_pair(a1, a2, dist)
        assert_same_transfer(got, ref, f"seed={seed}")
        if ref.exchanges == 0 and (ref.first.center, ref.second.center) == (
            a1.center,
            a2.center,
        ):
            assert got.first is a1 and got.second is a2
            assert got.exchanges == 0 and got.gain == 0.0
            unchanged += 1
        # Off-center inputs: recentering moves a center, so the result is
        # rebuilt even when no exchange applies.
        far = int(np.argmax(dist[:, a1.center]))
        off = Allocation.with_center(a1.matrix, dist, far)
        got = transfer_pair(off, a2, dist, cache=pool.topology_cache)
        assert_same_transfer(got, _reference_transfer_pair(off, a2, dist), f"seed={seed}")
        assert got.first is not off
        recentered += got.exchanges == 0
    assert unchanged >= 10 and recentered >= 10


def test_transfer_pair_off_the_exact_path_runs_the_full_search():
    """An off-grid model, or a matrix that is not the cache's own (here an
    equal copy), takes the full n×n path — counted once per pair — and
    still matches the reference; without a cache nothing is counted."""
    checked = 0
    for seed in range(30):
        case = _scrambled_pair(seed)
        if case is None:
            continue
        pool, a1, a2 = case
        off_grid = ResourcePool(
            pool.topology, CATALOG, distance_model=DistanceModel(0.3, 0.7, 1.9)
        )
        for cache, dist, counted in (
            (pool.topology_cache, np.array(pool.distance_matrix), 1),
            (off_grid.topology_cache, off_grid.distance_matrix, 1),
            (None, pool.distance_matrix, 0),
        ):
            registry = MetricsRegistry()
            got = transfer_pair(a1, a2, dist, cache=cache, obs=registry)
            ref = _reference_transfer_pair(a1, a2, dist)
            assert_same_transfer(got, ref, f"seed={seed}")
            family = registry.get(_FALLBACKS)
            value = 0 if family is None else family.labels(kernel="transfer").value
            assert value == counted
            checked += 1
    assert checked >= 75


@pytest.mark.parametrize(
    "model, exact",
    [(DistanceModel(), True), (DistanceModel(0.3, 0.7, 1.9), False)],
    ids=["paper", "non-dyadic"],
)
def test_exact_fallbacks_counter(model, exact):
    """Algorithm 2 over a batch on the ledger's pool shape (two clouds,
    15-node racks, capacities 1–4): the paper's 1/2/4 tiers never leave the
    exact paths; an off-grid model sends every unbudgeted sweep and every
    pair to the full ones."""
    pool = random_pool(
        PoolSpec(clouds=2, racks=2, nodes_per_rack=15, capacity_low=1, capacity_high=4),
        CATALOG, seed=37, distance_model=model,
    )
    rng = ensure_rng(37)
    requests = [
        random_request(RequestSpec(low=2, high=8), pool.num_types, seed=rng)
        for _ in range(8)
    ]
    registry = MetricsRegistry()
    GlobalSubOptimizer().place_batch(pool, requests, obs=registry)
    family = registry.get(_FALLBACKS)
    if exact:
        assert family is None
        return
    assert family.labels(kernel="sweep").value >= 1
    attempts = registry.get("repro_transfer_attempts_total").value
    assert family.labels(kernel="transfer").value == attempts >= 1


# ------------------------------------------------- worklist transfer scheduler


@pytest.mark.parametrize("use_paper_transfer", [False, True])
def test_optimize_transfers_worklist_equivalence(use_paper_transfer):
    """worklist=True skips only provably-identical recomputations: the final
    allocations, round count, and exchange count match the full re-sweep."""
    for seed in range(25):
        pool, _ = make_case(seed, drain=False)
        rng = ensure_rng(60_000 + seed)
        requests = [
            random_request(
                RequestSpec(low=0, high=4, min_total=2), pool.num_types, seed=rng
            )
            for _ in range(6)
        ]
        fast = GlobalSubOptimizer(
            worklist=True, use_paper_transfer=use_paper_transfer
        )
        slow = GlobalSubOptimizer(
            worklist=False, use_paper_transfer=use_paper_transfer
        )
        got = fast.place_batch(pool.copy(), requests)
        ref = slow.place_batch(pool.copy(), requests)
        assert len(got) == len(ref)
        for i, (a, b) in enumerate(zip(got, ref)):
            assert_same_allocation(a, b, f"seed={seed} alloc={i}")
        assert fast.last_stats.rounds == slow.last_stats.rounds
        assert fast.last_stats.exchanges == slow.last_stats.exchanges
        assert (
            fast.last_stats.final_total_distance
            == slow.last_stats.final_total_distance
        )
