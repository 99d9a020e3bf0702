"""Tests for straggler modeling and speculative execution."""

import numpy as np
import pytest

from repro.cluster import PoolSpec, VMTypeCatalog, random_pool
from repro.core.placement.greedy import OnlineHeuristic
from repro.mapreduce import (
    MapReduceEngine,
    NO_STRAGGLERS,
    StragglerModel,
    VirtualCluster,
    wordcount,
)
from repro.mapreduce.tasks import TaskState
from repro.util.errors import ValidationError
from repro.util.rng import ensure_rng


@pytest.fixture(scope="module")
def cluster():
    catalog = VMTypeCatalog.ec2_default()
    pool = random_pool(
        PoolSpec(racks=3, nodes_per_rack=10, capacity_high=3), catalog, seed=7
    )
    alloc = OnlineHeuristic().place(pool, np.array([8, 6, 2])).allocation
    return VirtualCluster.from_allocation(alloc, pool.distance_matrix, catalog)


@pytest.fixture(scope="module")
def job():
    return wordcount(combiner=False)


HEAVY = StragglerModel(probability=0.15, min_factor=3.0, max_factor=8.0)


class TestStragglerModel:
    def test_disabled_by_default(self):
        assert not NO_STRAGGLERS.enabled
        assert NO_STRAGGLERS.draw(ensure_rng(1)) == 1.0

    def test_probability_one_always_slows(self):
        model = StragglerModel(probability=1.0, min_factor=2.0, max_factor=4.0)
        rng = ensure_rng(2)
        for _ in range(20):
            factor = model.draw(rng)
            assert 2.0 <= factor <= 4.0

    def test_probability_bounds_factor(self):
        model = StragglerModel(probability=0.5, min_factor=2.0, max_factor=2.0)
        rng = ensure_rng(3)
        draws = {model.draw(rng) for _ in range(100)}
        assert draws <= {1.0, 2.0}
        assert len(draws) == 2  # both outcomes occur

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"probability": -0.1},
            {"probability": 1.1},
            {"min_factor": 0.5},
            {"min_factor": 5.0, "max_factor": 2.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            StragglerModel(**kwargs)


class TestEngineWithStragglers:
    def test_stragglers_slow_the_job(self, cluster, job):
        base = MapReduceEngine(cluster, seed=3).run(job, hdfs_seed=5).runtime
        slow = (
            MapReduceEngine(cluster, stragglers=HEAVY, seed=3)
            .run(job, hdfs_seed=5)
            .runtime
        )
        assert slow > base

    def test_speculation_recovers_most_loss(self, cluster, job):
        base = MapReduceEngine(cluster, seed=3).run(job, hdfs_seed=5).runtime
        slow = (
            MapReduceEngine(cluster, stragglers=HEAVY, seed=3)
            .run(job, hdfs_seed=5)
            .runtime
        )
        spec = (
            MapReduceEngine(
                cluster, stragglers=HEAVY, speculative_execution=True, seed=3
            )
            .run(job, hdfs_seed=5)
            .runtime
        )
        assert spec < slow
        # Speculation should claw back at least half of the straggler loss.
        assert (slow - spec) > 0.5 * (slow - base)

    def test_deterministic_given_seed(self, cluster, job):
        def run():
            return (
                MapReduceEngine(
                    cluster, stragglers=HEAVY, speculative_execution=True, seed=9
                )
                .run(job, hdfs_seed=5)
                .runtime
            )

        assert run() == run()

    def test_all_tasks_still_complete(self, cluster, job):
        result = MapReduceEngine(
            cluster, stragglers=HEAVY, speculative_execution=True, seed=4
        ).run(job, hdfs_seed=5)
        assert all(m.state is TaskState.DONE for m in result.map_records)
        assert len(result.map_records) == job.num_maps
        assert len(result.flows) == job.num_maps * job.num_reduces

    def test_each_map_produces_one_flow_per_reducer(self, cluster, job):
        """Backup attempts must not duplicate shuffle flows."""
        result = MapReduceEngine(
            cluster, stragglers=HEAVY, speculative_execution=True, seed=5
        ).run(job, hdfs_seed=5)
        seen = [(f.map_task, f.reduce_task) for f in result.flows]
        assert len(seen) == len(set(seen))

    def test_shuffle_bytes_unchanged_by_speculation(self, cluster, job):
        base = MapReduceEngine(cluster, seed=6).run(job, hdfs_seed=5)
        spec = MapReduceEngine(
            cluster, stragglers=HEAVY, speculative_execution=True, seed=6
        ).run(job, hdfs_seed=5)
        assert spec.total_shuffle_bytes == pytest.approx(base.total_shuffle_bytes)

    def test_speculation_without_stragglers_harmless(self, cluster, job):
        base = MapReduceEngine(cluster, seed=7).run(job, hdfs_seed=5).runtime
        spec = (
            MapReduceEngine(cluster, speculative_execution=True, seed=7)
            .run(job, hdfs_seed=5)
            .runtime
        )
        # Backups of healthy tasks never win earlier than the originals
        # here (same duration, later start), so runtime is unchanged.
        assert spec == pytest.approx(base)

    def test_slot_accounting_survives_cancellations(self, cluster, job):
        """After the job, every slot must have been returned exactly once."""
        engine = MapReduceEngine(
            cluster, stragglers=HEAVY, speculative_execution=True, seed=8
        )
        result = engine.run(job, hdfs_seed=5)
        # Re-running on the same engine instance works only if slot state
        # is reconstructed per run — which it is (local to run()).
        result2 = engine.run(job, hdfs_seed=5)
        assert result2.runtime > 0
