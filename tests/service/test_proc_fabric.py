"""Out-of-process shard workers: construction, client surface, the mirror's
record stream, concurrent start, SIGKILL restore.

What only a real child process can show — option validation that must not
leave children behind, exit codes, a decision that overtakes a release
reply, a record the mirror cannot apply, a SIGKILLed worker detected and
respawned byte-identically from its replicated checkpoint. Decision parity with
in-process shards lives in ``test_backend_conformance.py``, which runs one
trace over both backends.
"""

import json
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.cluster import PoolSpec, VMTypeCatalog, random_pool
from repro.obs import MetricsRegistry
from repro.service import (
    ClusterState,
    DecisionStatus,
    PlaceRequest,
    PlacementService,
    ReleaseRequest,
    ServiceConfig,
    build_fabric,
)
from repro.service.checkpoint import checkpoint_bytes, state_from_checkpoint
from repro.service.coord.net import CoordinationServer
from repro.service.proc import backend as proc_backend
from repro.service.proc.backend import ProcWorkerHandle
from repro.service.api import message_to_doc
from repro.service.proc.worker import COPY_NUDGE, WorkerProcess
from repro.service.shard import FabricConfig, RackGroupPlan
from repro.service.supervisor import SupervisorConfig
from repro.util.errors import RemoteOpError, TransportError, ValidationError

CATALOG = VMTypeCatalog.ec2_default()


def make_pool(seed=7, racks=4, nodes_per_rack=4, capacity_high=3):
    return random_pool(
        PoolSpec(
            racks=racks,
            nodes_per_rack=nodes_per_rack,
            clouds=2,
            capacity_low=1,
            capacity_high=capacity_high,
        ),
        CATALOG,
        seed=seed,
    )


def make_proc_fabric(pool, shards=2, **kwargs):
    """A ``BuiltFabric`` over proc workers; ``.service`` is the fabric."""
    kwargs.setdefault(
        "config", FabricConfig(service=ServiceConfig(batch_window=0.0))
    )
    kwargs.setdefault("obs", MetricsRegistry())
    return build_fabric(pool, RackGroupPlan(shards), workers="proc", **kwargs)


def pump(fabric, rounds=80):
    """Step until two consecutive idle rounds.

    A request the shard cannot currently fit stays queued forever at
    ``now=0.0`` (timeouts never fire), so an empty-queue condition would
    spin; idle detection terminates either way.
    """
    decisions = []
    idle = 0
    for _ in range(rounds):
        got = fabric.step_all(now=0.0)
        decisions.extend(got)
        idle = 0 if got else idle + 1
        if idle >= 2:
            break
    return decisions


def trace_demands(pool, n, seed=0):
    rng = np.random.default_rng(seed)
    demands = []
    for _ in range(n):
        demand = rng.integers(0, 3, size=pool.num_types)
        if demand.sum() == 0:
            demand[0] = 1
        demands.append(tuple(int(x) for x in demand))
    return demands


class TestConstruction:
    def test_rebalance_interval_rejected(self):
        with pytest.raises(ValidationError, match="rebalance"):
            make_proc_fabric(
                make_pool(),
                config=FabricConfig(
                    service=ServiceConfig(batch_window=0.0),
                    rebalance_interval=4,
                ),
            )

    def test_requires_pristine_pool(self):
        pool = make_pool()
        dirty = np.zeros((pool.num_nodes, pool.num_types), dtype=np.int64)
        dirty[0, 0] = 1
        pool.allocate(dirty)
        with pytest.raises(ValidationError, match="pristine"):
            make_proc_fabric(pool)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValidationError, match="policy"):
            make_proc_fabric(make_pool(), policy="simplex-magic")


class TestLifecycle:
    """One spawn session exercising the whole client surface."""

    def test_submit_release_checkpoint_shutdown(self):
        pool = make_pool(seed=7)
        built = make_proc_fabric(pool)
        fabric = built.service
        try:
            demands = trace_demands(pool, 12, seed=3)
            tickets = [
                fabric.submit(PlaceRequest(demand=d, request_id=i))
                for i, d in enumerate(demands)
            ]
            pump(fabric)
            decisions = [t.result(10.0) for t in tickets]
            assert all(d is not None for d in decisions)
            placed = [d for d in decisions if d.placed]
            assert placed, "trace should place at least one request"

            # Duplicate ids are rejected without touching a worker.
            dup = fabric.submit(
                PlaceRequest(demand=demands[0], request_id=placed[0].request_id)
            )
            verdict = dup.result(5.0)
            assert verdict.status == DecisionStatus.REJECTED
            assert "duplicate" in verdict.detail

            fabric.verify_consistency()

            doc = fabric.checkpoint_doc()
            assert doc["kind"] == "sharded-fabric"
            assert len(doc["shards"]) == 2
            assert len(doc["owners"]) == len(placed)

            rid = placed[0].request_id
            resp = fabric.release(ReleaseRequest(request_id=rid))
            assert resp.released
            assert fabric.owner_of(rid) is None
            assert not fabric.release(ReleaseRequest(request_id=rid)).released
            assert (
                fabric.release(ReleaseRequest(request_id=424242)).status
                == DecisionStatus.UNKNOWN_LEASE
            )

            fabric.verify_consistency()
            stats = fabric.stats
            assert stats.placed == len(placed)
            assert stats.released == 1
        finally:
            assert built.shutdown() == 0
        codes = built.worker_exit_codes
        assert codes and all(code == 0 for code in codes.values()), codes

    def test_a_queued_arrival_time_crosses_the_process_boundary(self):
        """A request handed to a worker with an earlier arrival (as a
        hand-back does) counts ``max_wait`` and its latency from then:
        the age rides the wire, since monotonic clocks are per process."""
        pool = make_pool(seed=7)
        built = make_proc_fabric(
            pool,
            config=FabricConfig(
                service=ServiceConfig(batch_window=0.0, max_wait=5.0)
            ),
        )
        backend = built.service.shards[0].backend
        got = []
        try:
            arrived = time.monotonic() - 10.0
            assert backend.submit(
                PlaceRequest(demand=(1, 0, 0), request_id=1),
                1,
                got.append,
                arrival=arrived,
            )
            backend.step(None)
            assert [d.status for d in got] == [DecisionStatus.TIMEOUT]
            assert 10.0 <= got[0].latency <= time.monotonic() - arrived
        finally:
            assert built.shutdown() == 0

    def test_a_request_the_loop_places_during_submit_is_admitted(self):
        """The child's loop may step a request between ``submit`` and the
        submit handler's look at the ticket (a request that waited out a
        step gets no window). That placement is no decline at the door: the
        handler admits it and sends its decision, or the parent would route
        it elsewhere while this worker holds its lease."""
        worker = WorkerProcess(
            {"shard_id": 0, "worker_id": "w0", "token": "t", "host": "", "port": 0}
        )
        service = PlacementService(ClusterState.from_pool(make_pool()))
        submit = service.submit

        def submit_then_step(request, **kwargs):
            ticket = submit(request, **kwargs)
            service.step()  # the scheduler thread wins the race
            return ticket

        service.submit = submit_then_step
        worker.service = service
        request = PlaceRequest(demand=(1, 0, 0), request_id=5)
        reply = worker._op_submit({"request": message_to_doc(request), "attempt": 3})
        assert reply == {"admitted": True}
        [event] = worker.outbox.drain(0.0)
        assert event["attempt"] == 3
        assert event["decision"]["status"] == DecisionStatus.PLACED
        assert service.state.has_lease(5)

    def test_global_allocated_matches_leases(self):
        pool = make_pool(seed=5)
        built = make_proc_fabric(pool)
        fabric = built.service
        try:
            for i, d in enumerate(trace_demands(pool, 8, seed=5)):
                fabric.submit(PlaceRequest(demand=d, request_id=i))
            pump(fabric)
            total = int(fabric.global_allocated().sum())
            doc = fabric.checkpoint_doc()
            from_leases = sum(
                count
                for shard_doc in doc["shards"]
                for lease in shard_doc["leases"]
                for _, _, count in lease["placements"]
            )
            assert total == from_leases
        finally:
            built.shutdown()


class TestMirrorStream:
    """The parent's mirror follows the worker's journal records alone."""

    def test_decision_overtaking_a_release_reply_is_delivered(self):
        """The child releases, places a queued request in the freed room and
        sends that decision while the parent still holds the release's
        reply: the decision is delivered without waiting for the reply, and
        the mirror ends byte-identical to the worker's state."""
        pool = make_pool(seed=7)
        built = make_proc_fabric(pool, shards=1)
        fabric = built.service
        backend = fabric.shards[0].backend
        call = backend.handle.call
        try:
            fabric.start()
            whole = tuple(int(x) for x in pool.available)
            assert fabric.submit(
                PlaceRequest(demand=whole, request_id=1)
            ).result(10.0).placed
            queued = fabric.submit(PlaceRequest(demand=(1, 0, 0), request_id=2))
            assert queued.result(0.2) is None  # no room until 1 is released
            overtaking = []

            def held_release(doc, timeout=30.0):
                reply = call(doc, timeout)
                if doc["op"] == "release":
                    overtaking.append(queued.result(3.0))
                return reply

            backend.handle.call = held_release
            assert fabric.release(ReleaseRequest(request_id=1)).released
            assert overtaking[0] is not None and overtaking[0].placed
            assert (
                checkpoint_bytes(backend.state).encode("utf-8")
                == call({"op": "checkpoint"})["payload"]
            )
            fabric.verify_consistency()
        finally:
            assert built.shutdown() == 0

    def test_each_release_in_a_burst_is_in_the_mirror_when_it_returns(self):
        """Releases with no decision between them: every reply's copy of the
        unsent records lands in the mirror before ``release`` returns, also
        once the copies grow past the point where they nudge the stream."""
        pool = make_pool(seed=7)
        built = make_proc_fabric(pool, shards=1)
        fabric = built.service
        state = fabric.shards[0].backend.state
        try:
            tickets = [
                fabric.submit(PlaceRequest(demand=(1, 0, 0), request_id=i))
                for i in range(2 * COPY_NUDGE)
            ]
            pump(fabric)
            assert all(t.result(5.0).placed for t in tickets)
            for ticket in tickets:
                rid = ticket.request_id
                assert fabric.release(ReleaseRequest(request_id=rid)).released
                assert not state.has_lease(rid)
            assert state.num_leases == 0
            fabric.verify_consistency()
        finally:
            assert built.shutdown() == 0

    def test_a_gapped_record_latches_the_worker_dead(self):
        """Records that skip a version cannot apply: the handle goes dead, as
        on a lost link, and neither the mirror nor the ticket moves."""
        pool = make_pool(seed=7)
        built = make_proc_fabric(pool, shards=1)
        fabric = built.service
        backend = fabric.shards[0].backend
        handle = backend.handle
        apply = handle._on_batch

        def gapped(reply):
            if "delta" in reply:
                reply = {**reply, "version": reply["version"] + 1}
            apply(reply)

        handle._on_batch = gapped
        try:
            before = checkpoint_bytes(backend.state)
            ticket = fabric.submit(PlaceRequest(demand=(1, 0, 0), request_id=1))
            fabric.step_all(now=0.0)
            assert handle.dead and not handle.alive
            assert checkpoint_bytes(backend.state) == before
            assert ticket.result(0.1) is None
        finally:
            built.shutdown()


def live_children() -> set:
    """Pids of this process's children not yet reaped."""
    return {child.pid for child in multiprocessing.active_children()}


class TestConcurrentStart:
    """Every shard's child is launched before any is connected; whatever
    fails on the way leaves no process behind."""

    @pytest.mark.parametrize("shards", [2, 3])
    def test_every_child_runs_before_the_first_connect_returns(
        self, monkeypatch, shards
    ):
        launched, at_first_return = [], []
        launch, connect = ProcWorkerHandle.launch, ProcWorkerHandle.connect

        def recording_launch(handle):
            launch(handle)
            launched.append(handle)

        def recording_connect(handle, *args):
            connect(handle, *args)
            if not at_first_return:
                at_first_return.append([h.process.pid for h in launched])

        monkeypatch.setattr(ProcWorkerHandle, "launch", recording_launch)
        monkeypatch.setattr(ProcWorkerHandle, "connect", recording_connect)
        built = make_proc_fabric(make_pool(), shards=shards)
        try:
            pids = at_first_return[0]
            assert len(pids) == shards and all(pids)
            assert sorted(pids) == sorted(h.pid for h in built.service.handles)
        finally:
            assert built.shutdown() == 0

    def test_a_child_that_never_dials_back_leaves_no_process(self, monkeypatch):
        # No child imports its way to a dial-back within a millisecond.
        monkeypatch.setattr(proc_backend, "SPAWN_TIMEOUT", 0.001)
        before = live_children()
        started = time.monotonic()
        with pytest.raises(TransportError, match="never connected"):
            make_proc_fabric(make_pool(), shards=2)
        assert live_children() == before
        # Killed at once, not waited out for the graceful join timeout.
        assert time.monotonic() - started < 5.0

    def test_restore_byte_checks_the_respawned_worker(self, monkeypatch):
        built = make_proc_fabric(make_pool(seed=7))
        backend = built.service.shards[0].backend
        old = backend.handle
        call = ProcWorkerHandle.call

        def forged(handle, doc, *args, **kwargs):
            reply = call(handle, doc, *args, **kwargs)
            if doc["op"] == "checkpoint" and handle is not old:
                reply = {**reply, "payload": reply["payload"] + b" "}
            return reply

        try:
            payload = old.call({"op": "checkpoint"})["payload"]
            state = state_from_checkpoint(json.loads(payload))
            others = live_children() - {old.pid}
            # Bytes the child's init does not reproduce never get that far.
            compact = json.dumps(json.loads(payload)).encode("utf-8")
            with pytest.raises(RemoteOpError, match="round-trip"):
                backend.restore(compact, state)
            assert live_children() == others
            # A respawned worker serving other bytes than it was handed.
            monkeypatch.setattr(ProcWorkerHandle, "call", forged)
            with pytest.raises(ValidationError, match="byte-identical"):
                backend.restore(payload, state)
            assert backend.handle is old and live_children() == others
            monkeypatch.undo()
            backend.restore(payload, state)
            assert backend.handle.call({"op": "checkpoint"})["payload"] == payload
            assert checkpoint_bytes(backend.state).encode("utf-8") == payload
        finally:
            assert built.shutdown() == 0


class TestKillRestore:
    def test_sigkill_worker_is_detected_and_restored(self):
        """SIGKILL a child mid-run; the supervisor must respawn it
        byte-identically from the replicated checkpoint with zero lost
        leases."""
        pool = make_pool(seed=11)
        sup_cfg = SupervisorConfig(
            heartbeat_interval=0.1,
            heartbeat_ttl=0.6,
            lease_ttl=5.0,
            monitor_interval=0.1,
        )
        with CoordinationServer() as server:
            built = make_proc_fabric(
                pool, coord=server.url, supervise=True, supervisor_config=sup_cfg
            )
            fabric, supervisor = built.service, built.supervisor
            try:
                tickets = {
                    i: fabric.submit(PlaceRequest(demand=d, request_id=i))
                    for i, d in enumerate(trace_demands(pool, 10, seed=1))
                }
                pump(fabric)
                for worker in supervisor.workers:
                    worker.sync(force=True)  # replicate checkpoints + lease ledger now
                placed = {
                    r
                    for r, t in tickets.items()
                    if t.result(10.0) and t.result(10.0).placed
                }
                assert placed
                owners_before = {r: fabric.owner_of(r) for r in placed}
                victim = 0
                payload_before = supervisor.replicated_payload(victim)
                assert payload_before is not None

                os.kill(fabric.handles[victim].pid, signal.SIGKILL)

                restored = False
                events = []
                deadline = time.time() + 20.0
                while time.time() < deadline:
                    events.extend(supervisor.monitor())
                    if any(ev.restored for ev in events) and not fabric.down_shards:
                        restored = True
                        break
                    time.sleep(0.05)
                assert restored, f"no restore before deadline; events={events}"

                death = events[0]
                assert death.shard_id == victim
                assert "dead" in death.reason or "heartbeat" in death.reason

                # Byte-identical restore: the respawned child serves exactly
                # the checkpointed state.
                restored_bytes = fabric.handles[victim].call(
                    {"op": "checkpoint"}
                )["payload"]
                assert restored_bytes == payload_before

                # Zero lost leases: every pre-kill owner survives the crash.
                for r, shard in owners_before.items():
                    assert fabric.owner_of(r) == shard, f"lost lease {r}"
                fabric.verify_consistency()
                supervisor.verify_consistency()
                assert dict(supervisor.stranded_leases()) == {}

                # And the respawned worker keeps serving.
                demand = tuple(
                    1 if i == 0 else 0 for i in range(pool.num_types)
                )
                t = fabric.submit(PlaceRequest(demand=demand, request_id=999))
                pump(fabric)
                assert t.result(10.0).status in (
                    DecisionStatus.PLACED,
                    DecisionStatus.REJECTED,
                )
            finally:
                exit_code = built.shutdown()
        # The victim's first incarnation died by SIGKILL; its replacement
        # (and every untouched worker) must exit cleanly.
        codes = built.worker_exit_codes
        assert exit_code == 0
        assert codes and all(code == 0 for code in codes.values()), codes
