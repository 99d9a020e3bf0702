"""Tests for the measurement → network-model bridge."""

import pytest

from repro.cluster import Topology, infer_distance_matrix
from repro.mapreduce.network import DistanceBand, NetworkModel
from repro.util.errors import ValidationError


class TestFromTiers:
    def test_two_tiers_scale_inverse(self):
        net = NetworkModel.from_tiers([1.0, 4.0], rack_bps=100e6)
        assert net.same_rack_bps == pytest.approx(100e6)
        assert net.cross_rack_bps == pytest.approx(25e6)

    def test_three_tiers(self):
        net = NetworkModel.from_tiers([1.0, 2.0, 8.0], rack_bps=80e6)
        assert net.cross_rack_bps == pytest.approx(40e6)
        assert net.cross_cloud_bps == pytest.approx(10e6)

    def test_single_tier_is_flat(self):
        net = NetworkModel.from_tiers([1.5])
        assert net.cross_rack_bps == net.same_rack_bps

    def test_unordered_input_sorted(self):
        a = NetworkModel.from_tiers([4.0, 1.0])
        b = NetworkModel.from_tiers([1.0, 4.0])
        assert a.cross_rack_bps == b.cross_rack_bps

    def test_monotonicity_invariant_preserved(self):
        net = NetworkModel.from_tiers([1.0, 1.1, 1.2])
        assert (
            net.same_node_bps
            >= net.same_rack_bps
            >= net.cross_rack_bps
            >= net.cross_cloud_bps
        )

    def test_nonpositive_tier_rejected(self):
        with pytest.raises(ValidationError):
            NetworkModel.from_tiers([0.0, 1.0])

    def test_end_to_end_from_measured_topology(self):
        """Probe a topology, infer tiers, build a network, run a job."""
        import numpy as np

        from repro.cluster import ResourcePool, VMTypeCatalog
        from repro.core import OnlineHeuristic
        from repro.mapreduce import MapReduceEngine, VirtualCluster, wordcount

        catalog = VMTypeCatalog.ec2_default()
        topo = Topology.build(2, 3, capacity=[2, 2, 1])
        _, tiers = infer_distance_matrix(topo, num_tiers=2, seed=3)
        net = NetworkModel.from_tiers(tiers)
        pool = ResourcePool(topo, catalog)
        alloc = OnlineHeuristic().place(pool, np.array([4, 4, 2])).allocation
        cluster = VirtualCluster.from_allocation(alloc, pool.distance_matrix, catalog)
        job = wordcount(input_bytes=256 * 1024 * 1024)
        result = MapReduceEngine(cluster, network=net, seed=4).run(job, hdfs_seed=4)
        assert result.runtime > 0
