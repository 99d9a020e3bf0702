"""Tests for the topology-derived tier structure (TopologyCache)."""

import numpy as np
import pytest

from repro.cluster import (
    DynamicResourcePool,
    PoolSpec,
    ResourcePool,
    TopologyCache,
    VMTypeCatalog,
    EC2_SMALL,
    EC2_MEDIUM,
    EC2_LARGE,
    random_pool,
    random_topology,
)
from repro.cluster.distance import DistanceModel
from repro.service.state import ClusterState

CATALOG = VMTypeCatalog([EC2_SMALL, EC2_MEDIUM, EC2_LARGE])
SPEC = PoolSpec(racks=3, nodes_per_rack=5, clouds=2)


@pytest.fixture
def pool():
    return random_pool(SPEC, CATALOG, seed=7)


class TestBuild:
    def test_groupings_partition_nodes_by_rack_and_cloud(self, pool):
        cache = pool.topology_cache
        topo = pool.topology
        n = pool.num_nodes
        assert sorted(cache.rack_order.tolist()) == list(range(n))
        bounds = cache.rack_starts.tolist() + [n]
        for r, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            members = cache.rack_order[lo:hi]
            assert np.all(cache.rack_index[members] == r)
            assert len(set(topo.rack_ids[members])) == 1
            assert members.tolist() == sorted(members.tolist())
        assert cache.rack_starts.size == topo.num_racks
        # one level up: dense racks grouped by cloud
        racks = cache.cloud_order
        assert sorted(racks.tolist()) == list(range(topo.num_racks))
        assert cache.cloud_starts.size == topo.num_clouds
        for i in range(n):
            same_cloud = cache.cloud_index == cache.cloud_index[i]
            np.testing.assert_array_equal(
                same_cloud, topo.cloud_ids == topo.cloud_ids[i]
            )

    def test_per_rack_and_per_cloud_sums_match_masks(self, pool):
        cache = pool.topology_cache
        free = pool.remaining
        rack_free = cache.per_rack(free)
        cloud_free = cache.per_cloud(rack_free)
        for i in range(pool.num_nodes):
            in_rack = cache.rack_ids == cache.rack_ids[i]
            in_cloud = cache.cloud_ids == cache.cloud_ids[i]
            np.testing.assert_array_equal(
                rack_free[cache.rack_index[i]], free[in_rack].sum(axis=0)
            )
            np.testing.assert_array_equal(
                cloud_free[cache.cloud_index[i]], free[in_cloud].sum(axis=0)
            )

    def test_tier_ranks_are_monotone_transform_of_distance(self, pool):
        """The tier key the fill order sorts by — two equality tests on
        ``rack_ids``/``cloud_ids``, the center first — orders nodes exactly
        as the distance column does, and names its tier distance."""
        cache = pool.topology_cache
        dist = pool.distance_matrix
        by_tier = np.array((0.0,) + cache.tier_distances)
        for c in range(pool.num_nodes):
            d = dist[:, c]
            r = (
                1
                + (cache.rack_ids != cache.rack_ids[c])
                + (cache.cloud_ids != cache.cloud_ids[c])
            )
            r[c] = 0
            np.testing.assert_array_equal(by_tier[r], d)
            # equal distances share a rank; larger distance → larger rank
            for i in range(pool.num_nodes):
                for j in range(pool.num_nodes):
                    if d[i] < d[j]:
                        assert r[i] < r[j]
                    elif d[i] == d[j]:
                        assert r[i] == r[j]

    def test_arrays_read_only(self, pool):
        cache = pool.topology_cache
        for arr in (
            cache.distance, cache.rack_ids, cache.cloud_ids,
            cache.rack_order, cache.rack_starts, cache.rack_index,
            cache.cloud_order, cache.cloud_starts, cache.cloud_index,
        ):
            assert not arr.flags.writeable

    def test_interleaved_racks_and_sparse_ids(self):
        """Nodes of one rack need not be contiguous, nor ids dense."""
        from repro.cluster import PhysicalNode, Topology

        layout = [(7, 1), (3, 0), (7, 1), (9, 1), (3, 0), (9, 1), (3, 0)]
        topo = Topology(
            [
                PhysicalNode(node_id=i, rack_id=r, cloud_id=c, capacity=[i + 1, 1, 0])
                for i, (r, c) in enumerate(layout)
            ]
        )
        cache = TopologyCache.build(topo)
        assert cache.rack_order.tolist() == [1, 4, 6, 0, 2, 3, 5]
        assert cache.rack_starts.tolist() == [0, 3, 5]
        assert cache.rack_index.tolist() == [1, 0, 1, 2, 0, 2, 0]
        assert cache.cloud_index.tolist() == [1, 0, 1, 1, 0, 1, 0]

    def test_matches(self, pool):
        cache = pool.topology_cache
        assert cache.matches(pool.topology, pool.distance_model)
        other = random_topology(SPEC, CATALOG, seed=8)
        assert not cache.matches(other, pool.distance_model)
        assert not cache.matches(
            pool.topology, DistanceModel(intra_rack=0.5, inter_rack=2.0, inter_cloud=9.0)
        )

    @pytest.mark.parametrize(
        "tiers, exact",
        [
            ((1.0, 2.0, 4.0), True),
            ((2.0, 3.0, 7.0), True),
            ((0.5, 1.25, 2.0009765625), True),
            ((0.3, 0.7, 1.9), False),
            ((1.0, 2.0, 4.1), False),
        ],
    )
    def test_exact_tiers_follow_the_distance_grid(self, pool, tiers, exact):
        cache = TopologyCache.build(pool.topology, DistanceModel(*tiers))
        assert cache.tier_distances == tiers
        assert cache.exact_tiers is exact

    def test_standalone_build_equals_pool_distance(self, pool):
        cache = TopologyCache.build(pool.topology, pool.distance_model)
        np.testing.assert_array_equal(cache.distance, pool.distance_matrix)
        assert repr(cache).startswith("TopologyCache(")


class TestSharing:
    def test_copy_shares_cache_and_distance(self, pool):
        cache = pool.topology_cache
        clone = pool.copy()
        assert clone.topology_cache is cache
        assert clone.distance_matrix is pool.distance_matrix

    def test_property_is_idempotent(self, pool):
        assert pool.topology_cache is pool.topology_cache

    def test_mismatched_cache_is_ignored(self, pool):
        foreign = TopologyCache.build(
            random_topology(SPEC, CATALOG, seed=9), pool.distance_model
        )
        rebuilt = ResourcePool(
            pool.topology, pool.catalog, distance_model=pool.distance_model,
            cache=foreign,
        )
        assert rebuilt.topology_cache is not foreign
        np.testing.assert_array_equal(
            rebuilt.distance_matrix, pool.distance_matrix
        )

    def test_cluster_state_inherits_cache(self, pool):
        cache = pool.topology_cache
        state = ClusterState.from_pool(pool)
        assert state.topology_cache is cache
        assert state.copy().topology_cache is cache


class TestDynamicInvalidation:
    """Nothing a dynamic pool does invalidates the tier structure: a failed
    node offers nothing and live–live distances never change."""

    def test_failed_node_keeps_cache(self):
        topo = random_topology(SPEC, CATALOG, seed=11)
        pool = DynamicResourcePool(topo, CATALOG)
        cache = pool.topology_cache
        pool.fail_node(3)
        pool.reconfigure_node(4, [0, 1, 2])
        assert pool.topology_cache is cache
        live = pool.active_nodes
        np.testing.assert_array_equal(
            pool.distance_matrix[np.ix_(live, live)],
            cache.distance[np.ix_(live, live)],
        )
        assert not pool.remaining[~live].any()

    def test_recovery_restores_cache(self):
        topo = random_topology(SPEC, CATALOG, seed=12)
        pool = DynamicResourcePool(topo, CATALOG)
        cache = pool.topology_cache
        pool.fail_node(0)
        pool.recover_node(0)
        assert pool.topology_cache is cache

    def test_dynamic_copy_carries_cache(self):
        topo = random_topology(SPEC, CATALOG, seed=13)
        pool = DynamicResourcePool(topo, CATALOG)
        cache = pool.topology_cache
        assert pool.copy().topology_cache is cache
