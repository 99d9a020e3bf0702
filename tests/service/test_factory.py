"""Tests for :func:`repro.service.build_fabric` — the one construction path.

Validation must catch every option combination that cannot work *before*
anything is started (no half-built fabrics to tear down), and the returned
:class:`BuiltFabric` must own the full lifecycle for each worker kind.
Proc workers are covered end-to-end in ``test_proc_fabric.py``; here they
appear only for option validation, which needs no child processes.
"""

import pytest

from repro.cluster import PoolSpec, VMTypeCatalog, random_pool
from repro.core import OnlineHeuristic
from repro.service import (
    PlaceRequest,
    PlacementService,
    ServiceConfig,
    build_fabric,
)
from repro.service.aio import AioServiceEndpoint
from repro.service.factory import WORKER_KINDS
from repro.service.shard import (
    FabricConfig,
    RackGroupPlan,
    ShardedPlacementFabric,
)
from repro.service.supervisor import FabricSupervisor
from repro.service.transport import ServiceClient, ServiceEndpoint
from repro.util.errors import ValidationError


def make_pool():
    return random_pool(
        PoolSpec(racks=4, nodes_per_rack=4, capacity_high=3),
        VMTypeCatalog.ec2_default(),
        seed=23,
    )


class TestValidation:
    def test_unknown_workers_kind(self):
        with pytest.raises(ValidationError, match="unknown workers kind"):
            build_fabric(make_pool(), workers="fiber")

    @pytest.mark.parametrize("workers", [k for k in WORKER_KINDS if k != "proc"])
    def test_coord_requires_proc_workers(self, workers):
        with pytest.raises(ValidationError, match="coord requires proc"):
            build_fabric(
                make_pool(), RackGroupPlan(2), workers=workers, coord="auto"
            )

    def test_supervise_requires_a_plan(self):
        with pytest.raises(ValidationError, match="supervise requires"):
            build_fabric(make_pool(), None, supervise=True)

    def test_bad_plan_type(self):
        with pytest.raises(ValidationError, match="plan must be"):
            build_fabric(make_pool(), plan="by-rack")

    def test_bad_config_type(self):
        with pytest.raises(ValidationError, match="config must be"):
            build_fabric(make_pool(), config={"batch_window": 0.001})

    def test_unknown_policy_name(self):
        with pytest.raises(ValidationError, match="unknown policy"):
            build_fabric(make_pool(), policy="quantum-annealer")

    def test_proc_workers_refuse_callable_policies(self):
        # Arbitrary code never crosses the process boundary.
        with pytest.raises(ValidationError, match="wire policy name"):
            build_fabric(make_pool(), workers="proc", policy=OnlineHeuristic)

    def test_worker_kinds_registry(self):
        # "aio" is a serving transport (``serve(transport=)``), not a kind.
        assert WORKER_KINDS == ("thread", "proc")
        with pytest.raises(ValidationError, match="unknown workers kind"):
            build_fabric(make_pool(), 2, workers="aio")


class TestAssembly:
    def test_no_plan_builds_a_single_service(self):
        built = build_fabric(make_pool())
        assert isinstance(built.service, PlacementService)
        assert built.workers == "thread"
        assert built.supervisor is None
        assert built.coord_server is None

    def test_zero_shards_means_unsharded(self):
        assert isinstance(build_fabric(make_pool(), 0).service, PlacementService)

    def test_int_plan_builds_that_many_shards(self):
        built = build_fabric(make_pool(), 2)
        assert isinstance(built.service, ShardedPlacementFabric)
        assert len(built.service.shards) == 2

    def test_service_config_is_wrapped_into_fabric_config(self):
        service_config = ServiceConfig(batch_window=0.003, max_batch=7)
        built = build_fabric(make_pool(), 2, config=service_config)
        for shard in built.service.shards:
            assert shard.service.config.batch_window == 0.003
            assert shard.service.config.max_batch == 7

    def test_fabric_config_passes_through(self):
        config = FabricConfig(rebalance_candidates=3)
        built = build_fabric(make_pool(), 2, config=config)
        assert built.service.config is config

    def test_supervisor_attached_but_not_started(self):
        built = build_fabric(make_pool(), 2, supervise=True)
        assert isinstance(built.supervisor, FabricSupervisor)
        assert not built.supervisor.running

    def test_named_policy_resolves_for_in_process_workers(self):
        built = build_fabric(make_pool(), 2, policy="heuristic")
        assert isinstance(built.service, ShardedPlacementFabric)

    def test_serve_transport_override(self):
        built = build_fabric(make_pool(), 2)
        assert isinstance(built.serve(), ServiceEndpoint)
        assert isinstance(built.serve(transport="aio"), AioServiceEndpoint)


class TestLifecycle:
    @pytest.mark.parametrize("transport", ["thread", "aio"])
    def test_start_place_shutdown(self, transport):
        built = build_fabric(
            make_pool(),
            RackGroupPlan(2),
            config=ServiceConfig(batch_window=0.001),
        )
        built.start()
        endpoint = built.serve(transport=transport).start()
        try:
            with ServiceClient(*endpoint.address) as client:
                decision = client.place(
                    PlaceRequest(demand=(1, 0, 0), request_id=77)
                )
            assert decision.placed
        finally:
            endpoint.stop()
            assert built.shutdown() == 0
        assert built.worker_exit_codes is None  # in-process: nothing to reap

    def test_supervised_lifecycle(self):
        built = build_fabric(make_pool(), 2, supervise=True)
        built.start()
        try:
            assert built.supervisor.running
        finally:
            assert built.shutdown() == 0
        assert not built.supervisor.running

    def test_served_end_to_end(self):
        from repro.service.transports import resolve_transport

        built = build_fabric(
            make_pool(), 2, config=ServiceConfig(batch_window=0.001)
        )
        built.start()
        endpoint = built.serve()
        endpoint.start()
        try:
            host, port = endpoint.address
            client = resolve_transport("thread").connect(
                host, port, codec="auto"
            )
            try:
                assert client.codec == "binary"
                decision = client.place(
                    PlaceRequest(demand=(1, 1, 0), request_id=88)
                )
                assert decision.placed
                assert len(client.shards()) == 2
            finally:
                client.close()
        finally:
            endpoint.stop()
            built.shutdown()
