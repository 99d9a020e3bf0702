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
)

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
