"""Shared fixtures: catalogs, topologies, and pools of various sizes."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.cluster import (
    DistanceModel,
    PhysicalNode,
    PoolSpec,
    ResourcePool,
    Topology,
    VMTypeCatalog,
    random_pool,
    random_topology,
)
from repro.util.rng import ensure_rng

# Tier-1 must be a function of the tree: the default profile derives every
# example from the test's name and keeps no example database, so a run
# explores the same inputs on every machine. ``HYPOTHESIS_PROFILE=explore``
# (one CI job) searches at random and wider; what it finds is pinned with
# ``@example`` in the PR that fixes it.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile(
    "explore", derandomize=False, database=None, max_examples=400
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


@pytest.fixture
def catalog() -> VMTypeCatalog:
    """The Table I catalog: small / medium / large."""
    return VMTypeCatalog.ec2_default()


@pytest.fixture
def two_rack_topology(catalog) -> Topology:
    """2 racks × 3 nodes, uniform capacity [2, 2, 1]."""
    return Topology.build(2, 3, capacity=[2, 2, 1])


@pytest.fixture
def tiny_pool(two_rack_topology, catalog) -> ResourcePool:
    """6-node pool suitable for brute-force cross-validation."""
    return ResourcePool(
        two_rack_topology,
        catalog,
        distance_model=DistanceModel(intra_rack=1.0, inter_rack=2.0, inter_cloud=4.0),
    )


@pytest.fixture
def paper_pool(catalog) -> ResourcePool:
    """The Section V.A simulation pool: 3 racks × 10 nodes, random capacity."""
    return random_pool(
        PoolSpec(racks=3, nodes_per_rack=10, capacity_high=2), catalog, seed=42
    )


@pytest.fixture
def multicloud_pool(catalog) -> ResourcePool:
    """Two clouds × 2 racks × 2 nodes — exercises the d3 tier."""
    topo = Topology.build(2, 2, capacity=[2, 2, 1], clouds=2)
    return ResourcePool(topo, catalog)


def make_pool(
    racks: int = 2,
    nodes_per_rack: int = 3,
    capacity=(2, 2, 1),
    *,
    clouds: int = 1,
) -> ResourcePool:
    """Non-fixture helper for parametrized tests."""
    catalog = VMTypeCatalog.ec2_default()
    topo = Topology.build(racks, nodes_per_rack, capacity=list(capacity), clouds=clouds)
    return ResourcePool(topo, catalog)


def sparse_rack_pool(seed: int, *, distance_model=None) -> ResourcePool:
    """A random two-cloud pool whose rack ids are sparse and *descend* with
    node id (40, 33, 26, …), so the dense rack order — ascending rack id,
    ``topology.racks`` — is neither the ids themselves nor node order."""
    rng = ensure_rng(seed)
    spec = PoolSpec(
        clouds=2,
        racks=int(rng.integers(1, 4)),
        nodes_per_rack=int(rng.integers(1, 5)),
        capacity_low=1,
        capacity_high=int(rng.integers(1, 4)),
    )
    catalog = VMTypeCatalog.ec2_default()
    base = random_topology(spec, catalog, seed=seed)
    nodes = [
        PhysicalNode(
            node_id=node.node_id,
            rack_id=40 - 7 * node.rack_id,
            cloud_id=3 * node.cloud_id + 1,
            capacity=node.capacity,
        )
        for node in base.nodes
    ]
    return ResourcePool(Topology(nodes), catalog, distance_model=distance_model)
