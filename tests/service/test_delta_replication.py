"""Property test: snapshot + replayed log is the live state, byte for byte.

A supervised one-shard fabric replicates through its state's change journal:
one appended delta per commit, a full snapshot on a forced sync, on a
journal gap and on compaction. Random allocate / release / swap sequences
are driven straight into the shard's state — survivability-targeted leases,
swaps whose commit fails and rolls back, rolled-back mirror resets
(``restore_state``, a non-ledger mutation) — each step followed by the
commit hook's sync, with random forced compactions and injected write
faults mixed in. After every step, what restore would adopt
(:meth:`FabricSupervisor.replicated_payload`) must equal the canonical bytes
the live state had at the last acknowledged version.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import PoolSpec, VMTypeCatalog, random_pool
from repro.core.problem import Allocation
from repro.core.reliability import SurvivabilityTarget
from repro.obs import MetricsRegistry
from repro.service import (
    FabricSupervisor,
    InMemoryCoordinationBackend,
    ServiceConfig,
    SupervisorConfig,
    checkpoint_bytes,
)
from repro.service.shard import FabricConfig, RackGroupPlan, ShardedPlacementFabric

CATALOG = VMTypeCatalog.ec2_default()
TARGET = SurvivabilityTarget(kind="rack", k=1)
OPS = ("allocate", "allocate", "release", "swap", "failed-swap", "rollback")


def supervised_shard():
    pool = random_pool(
        PoolSpec(racks=3, nodes_per_rack=3, capacity_low=2, capacity_high=4),
        CATALOG,
        seed=5,
    )
    fabric = ShardedPlacementFabric(
        pool,
        plan=RackGroupPlan(1),
        config=FabricConfig(service=ServiceConfig(batch_window=0.0)),
        obs=MetricsRegistry(),
    )
    supervisor = FabricSupervisor(
        fabric, InMemoryCoordinationBackend(), SupervisorConfig(), clock=lambda: 0.0
    )
    return supervisor, supervisor.workers[0]


def unit_allocation(state, data, *, fits=True):
    """One VM on a slot with room left (or, ``fits=False``, more than fits)."""
    free = state.remaining
    slots = np.argwhere(free > 0) if fits else np.argwhere(free >= 0)
    if not len(slots):
        return None
    node, vm_type = (int(x) for x in slots[data.draw(st.integers(0, len(slots) - 1))])
    matrix = np.zeros_like(free)
    matrix[node, vm_type] = 1 if fits else free[node, vm_type] + 1
    distance = data.draw(st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False))
    return Allocation(matrix=matrix, center=node, distance=distance)


def mutate(state, op, data, next_id):
    """Apply one random ledger operation; returns whether an id was used."""
    held = sorted(state.leases)
    if op in ("release", "swap", "failed-swap") and not held:
        op = "allocate"
    if op == "allocate":
        allocation = unit_allocation(state, data)
        if allocation is None:
            return False
        target = TARGET if data.draw(st.booleans()) else None
        state.allocate_lease(next_id, allocation, survivability=target)
        return True
    if op == "rollback":
        # The parent-side mirror reset: a change the ledger never saw.
        before = state.snapshot_state()
        allocation = unit_allocation(state, data)
        if allocation is not None:
            state.allocate_lease(next_id, allocation)
        state.restore_state(before)
        return False
    rid = held[data.draw(st.integers(0, len(held) - 1))]
    if op == "release":
        state.release_lease(rid)
        return False
    if op == "swap":
        old = state.leases[rid]
        state.release_lease(rid)  # free the slot first, as the swap does
        new = unit_allocation(state, data)
        state.allocate_lease(rid, old, survivability=state.lease_target(rid))
        if new is not None:
            state.swap_lease(rid, new)
        return False
    # failed-swap: the new matrix does not fit even with the old lease freed,
    # so the old lease is reinstated.
    too_big = unit_allocation(state, data, fits=False)
    too_big = Allocation(
        matrix=too_big.matrix + state.leases[rid].matrix,
        center=too_big.center,
        distance=too_big.distance,
    )
    try:
        state.swap_lease(rid, too_big)
    except Exception:
        pass
    else:  # pragma: no cover - the allocation never fits
        raise AssertionError("an over-capacity swap committed")
    return False


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_replayed_log_is_the_acknowledged_state(data):
    supervisor, worker = supervised_shard()
    backend, state = supervisor.backend, worker.service.state
    history = {state.version: checkpoint_bytes(state).encode("utf-8")}
    lost_reply = {"on": False}

    def losing_reply(write):
        def wrapped(*args):
            write(*args)
            if lost_reply["on"]:
                raise OSError("reply lost after the write landed")

        return wrapped

    backend.append = losing_reply(backend.append)
    backend.put_checkpoint = losing_reply(backend.put_checkpoint)
    next_id = 1000
    for _ in range(data.draw(st.integers(1, 40), label="steps")):
        if mutate(state, data.draw(st.sampled_from(OPS)), data, next_id):
            next_id += 1
        history[state.version] = checkpoint_bytes(state).encode("utf-8")
        acked, failures = worker._replicated_version, worker.replication_failures
        fault = data.draw(st.sampled_from(("none",) * 4 + ("write", "lost-reply")))
        worker.replication_fault = (lambda: True) if fault == "write" else None
        lost_reply["on"] = fault == "lost-reply"
        worker.sync(force=data.draw(st.integers(0, 5)) == 0)
        worker.replication_fault, lost_reply["on"] = None, False

        payload = supervisor.replicated_payload(0)
        replayed = json.loads(payload)["state_version"]
        assert payload == history[replayed]
        if fault == "none":
            assert replayed == worker._replicated_version == state.version
        else:
            # A faulted write acknowledges nothing; the backend holds the last
            # acknowledged state, or (reply lost) the newer one it did take.
            assert worker._replicated_version == acked
            assert worker.replication_failures >= failures + (acked != state.version)
            assert replayed >= acked
        # Compaction keeps the log no larger than the snapshot it follows.
        snapshot = backend.get_checkpoint(worker.worker_id)
        log = backend.read_since(worker.worker_id, -1)
        assert sum(len(entry.record) for entry in log) <= len(snapshot)

    # The next clean commit makes every missed write good.
    worker.sync()
    assert worker._replicated_version == state.version
    assert supervisor.replicated_payload(0) == checkpoint_bytes(state).encode("utf-8")
    assert worker._journal == []


def first_fit(state):
    """One VM on the first slot with room left."""
    node, vm_type = (int(x) for x in np.argwhere(state.remaining > 0)[0])
    matrix = np.zeros_like(state.remaining)
    matrix[node, vm_type] = 1
    return Allocation(matrix=matrix, center=node, distance=1.0)


def compact_during_the_first_log_read(backend, write):
    """Make the backend's first ``read_since`` run *write* just before it
    answers, as a dying worker's in-flight replication would."""
    read_since = backend.read_since

    def racing(worker_id, version):
        backend.read_since = read_since
        write()
        return read_since(worker_id, version)

    backend.read_since = racing


def test_a_compaction_between_the_snapshot_and_log_reads_is_not_missed():
    supervisor, worker = supervised_shard()
    state = worker.service.state
    for rid in (1, 2):
        state.allocate_lease(rid, first_fit(state))
        worker.sync()

    def appends_compaction_appends():
        state.allocate_lease(3, first_fit(state))
        worker.sync()
        worker.sync(force=True)  # a fresh snapshot empties the log
        state.release_lease(1)
        worker.sync()

    compact_during_the_first_log_read(supervisor.backend, appends_compaction_appends)
    payload = supervisor.replicated_payload(0)
    assert json.loads(payload)["state_version"] == worker._replicated_version
    assert payload == checkpoint_bytes(state).encode("utf-8")


def test_restore_adopts_a_compaction_that_lands_mid_read():
    supervisor, worker = supervised_shard()
    state = worker.service.state
    state.allocate_lease(1, first_fit(state))
    worker.sync()
    worker.kill()

    def in_flight_write():
        # The write the worker had started before it died: replicate runs
        # past the crash flag, as a write already under way does.
        state.allocate_lease(2, first_fit(state))
        worker.replicate(0.0, force=True)

    compact_during_the_first_log_read(supervisor.backend, in_flight_write)
    (event,) = supervisor.monitor(now=0.0)
    assert event.restored
    restored = worker.service.state
    assert restored is not state and restored.has_lease(2)
    assert checkpoint_bytes(restored) == checkpoint_bytes(state)
