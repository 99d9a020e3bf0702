"""Backend conformance: one fabric, one trace, every ``ShardBackend``.

``ShardedPlacementFabric`` and ``FabricSupervisor`` are written once against
the ``ShardBackend`` protocol, so whatever they do must not depend on where
a shard's service runs. Each scenario below is one seeded script — submit,
spill, duplicate id, release, cancel, ``submit_batch``, survivability
targets, kill → re-route → restore, checkpoint → ``fabric_from_checkpoint``
— run through ``build_fabric(workers=...)`` once per backend. Every backend
must pass the scenario's own invariants (at each quiescent point, every
undecided request waits in exactly one live shard's queue, the one
``owner_of`` names), and the *records* the scenario returns (decisions,
owner map, per-shard summaries, fabric stats, checkpoint bytes and the
bytes of every shard's routing state — a proc shard's mirror) must be
identical across backends. Latency is the only
field a process boundary may change, so it is the only one left out.

The trace scenario is the parity trace ``test_proc_fabric.py`` used to run
against a second fabric class, and it applies the union-reconstruction and
constraint checks of ``test_shard_differential.py`` (which keeps the
many-example hypothesis runs against the single service) on both backends.

``PROC_SMOKE=1`` shrinks the trace for CI smoke jobs.
"""

import functools
import json
import os

import numpy as np
import pytest

from repro.cluster import PoolSpec, VMTypeCatalog, random_pool
from repro.core.reliability import SurvivabilityTarget
from repro.obs import MetricsRegistry
from repro.service import (
    DecisionStatus,
    PlaceRequest,
    ReleaseRequest,
    ServiceConfig,
    build_fabric,
)
from repro.service.checkpoint import checkpoint_bytes
from repro.service.shard import (
    FabricConfig,
    RackGroupPlan,
    fabric_from_checkpoint,
)
from repro.service.supervisor import SupervisorConfig
from repro.util.errors import ValidationError

BACKENDS = ("thread", "proc")
SMOKE = bool(os.environ.get("PROC_SMOKE"))
TRACE_LEN = 24 if SMOKE else 60
CATALOG = VMTypeCatalog.ec2_default()
RACK_K1 = SurvivabilityTarget(kind="rack", k=1)
#: Submitted together after trace request 20 (smoke mode included), these
#: two land in one batch on shard 1, and an Algorithm-2 transfer improves
#: their sequential placements: commits a proc mirror sees only as records.
TRANSFER_PAIR = {1001: (2, 4, 3), 1002: (3, 2, 4)}


def make_pool(seed, nodes_per_rack=4, capacity_high=3):
    return random_pool(
        PoolSpec(
            racks=4,
            nodes_per_rack=nodes_per_rack,
            clouds=2,
            capacity_low=1,
            capacity_high=capacity_high,
        ),
        CATALOG,
        seed=seed,
    )


def build(workers, pool, **kwargs):
    kwargs.setdefault(
        "config", FabricConfig(service=ServiceConfig(batch_window=0.0))
    )
    return build_fabric(
        pool, RackGroupPlan(2), workers=workers, obs=MetricsRegistry(), **kwargs
    )


def pump(fabric, rounds=80):
    """Step until two consecutive idle rounds (a request the shard cannot
    fit stays queued forever at a frozen clock)."""
    idle = 0
    for _ in range(rounds):
        idle = 0 if fabric.step_all(now=0.0) else idle + 1
        if idle >= 2:
            break


def queued_ids(shard):
    """Request ids waiting on *shard*: its service's queue in this process,
    or what the parent holds admitted and undecided for a child process."""
    if shard.service is not None:
        return {timed.request_id for timed in shard.service._queue}
    return set(shard.backend._waiting)


def assert_one_queue(fabric, tickets):
    """At a quiescent point every undecided request waits in exactly one
    live shard's queue, and ``owner_of`` names that shard."""
    undecided = {t.request_id for t in tickets if not t.done}
    down = fabric.down_shards
    owner = {r: fabric.owner_of(r) for r in undecided}
    assert all(sid is not None and sid not in down for sid in owner.values())
    for shard in fabric.shards:
        if shard.shard_id in down:
            continue
        waiting = {r for r, sid in owner.items() if sid == shard.shard_id}
        assert queued_ids(shard) == waiting


def trace_demands(pool, n, seed):
    rng = np.random.default_rng(seed)
    demands = []
    for _ in range(n):
        demand = rng.integers(0, 3, size=pool.num_types)
        if demand.sum() == 0:
            demand[0] = 1
        demands.append(tuple(int(x) for x in demand))
    return demands


def essence(decision):
    """Every decision field but latency."""
    return (
        decision.request_id,
        decision.status,
        decision.placements,
        decision.center,
        round(decision.distance, 9),
        decision.detail,
        decision.survivability,
    )


def end_state(fabric):
    """What must match across backends once a scenario is quiescent; also
    checks the fabric's own invariants and the checkpoint round trip."""
    fabric.verify_consistency()
    blob = fabric.checkpoint_bytes()
    doc = json.loads(blob)
    # A checkpoint restores into an in-process fabric whatever backend it
    # was taken from, and re-checkpoints to the same bytes.
    assert fabric_from_checkpoint(doc).checkpoint_bytes() == blob
    stats = fabric.stats.to_dict()
    return {
        "owners": doc["owners"],
        "owner_map": {rid: fabric.owner_of(rid) for rid, _ in doc["owners"]},
        "shards": fabric.describe_shards(),
        "stats": stats,
        "checkpoint": blob,
        # What the router scores, version included: a proc shard's mirror
        # must be byte-identical to the in-process shard's own state.
        "shard_states": [checkpoint_bytes(s.state) for s in fabric.shards],
    }


# ---------------------------------------------------------------- scenarios


def trace_scenario(built):
    """Submit / spill / duplicate / release / cancel over a tight pool."""
    fabric = built.service
    pool = fabric.pool
    demands = trace_demands(pool, TRACE_LEN, seed=21)
    demand_of = {**dict(enumerate(demands)), **TRANSFER_PAIR}
    tickets, released = {}, []
    live = np.zeros((pool.num_nodes, pool.num_types), dtype=np.int64)
    for i, demand in enumerate(demands):
        tickets[i] = fabric.submit(PlaceRequest(demand=demand, request_id=i))
        # Interleave decision pumping and releases so spillover pressure
        # differs across the trace, not just at the end.
        if i % 7 == 6:
            pump(fabric)
            assert_one_queue(fabric, tickets.values())
            placed = [
                r for r, t in tickets.items()
                if (v := t.result(0.2)) is not None and v.placed
            ]
            for r in [r for r in placed if r % 3 == 0][:2]:
                if fabric.owner_of(r) is not None:
                    assert fabric.release(ReleaseRequest(request_id=r)).released
                    released.append(r)
        if i == 20:
            gain = fabric.stats.batch_transfer_gain
            for r, demand in TRANSFER_PAIR.items():
                tickets[r] = fabric.submit(PlaceRequest(demand=demand, request_id=r))
            pump(fabric)
            assert_one_queue(fabric, tickets.values())
            assert fabric.stats.batch_transfer_gain > gain
    pump(fabric)
    assert_one_queue(fabric, tickets.values())
    duplicate = fabric.submit(PlaceRequest(demand=demands[0], request_id=1))
    assert duplicate.result(5.0).status == DecisionStatus.REJECTED
    # Requests the shards can't currently fit stay queued at a frozen
    # clock; "still pending" is itself an outcome backends must agree on.
    decisions, pending = {}, []
    for r, ticket in tickets.items():
        verdict = ticket.result(0.2)
        if verdict is None:
            pending.append(r)
            continue
        decisions[r] = essence(verdict)
        if verdict.placed:
            matrix = verdict.allocation_matrix(pool.num_nodes, pool.num_types)
            # R_j met exactly, L_ij respected, in global node ids.
            np.testing.assert_array_equal(matrix.sum(axis=0), demand_of[r])
            assert np.all(matrix <= pool.max_capacity)
            if r not in released:
                live += matrix
    for r in pending:
        assert fabric.cancel(r)
        decisions[r] = essence(tickets[r].result(5.0))
    assert_one_queue(fabric, tickets.values())
    # The union of shard ledgers is exactly the replayed live allocation.
    np.testing.assert_array_equal(fabric.global_allocated(), live)
    assert (
        fabric.release(ReleaseRequest(request_id=424242)).status
        == DecisionStatus.UNKNOWN_LEASE
    )
    stats = fabric.stats
    assert stats.spillovers > 0 and stats.released == len(released) > 0
    assert stats.cancelled == len(pending)
    return {
        "decisions": decisions,
        "pending": pending,
        "released": released,
        "duplicate": essence(duplicate.result(5.0)),
        **end_state(fabric),
    }


def batch_requests():
    """Targeted and plain requests mixed. The first target is satisfiable
    only by spreading over two racks; the second asks a four-rack shard to
    survive four rack failures, which no shard can ever promise (the demand
    alone would fit anywhere)."""
    pool = make_pool(3, nodes_per_rack=10, capacity_high=4)
    requests = [
        PlaceRequest(demand=(2, 2, 0), request_id=1, survivability=RACK_K1),
        PlaceRequest(
            demand=(2, 2, 0),
            request_id=2,
            survivability=SurvivabilityTarget(kind="rack", k=4),
        ),
    ]
    requests += [
        PlaceRequest(demand=demand, request_id=10 + i)
        for i, demand in enumerate(trace_demands(pool, 18, seed=5))
    ]
    return requests


def batch_scenario(built, *, batched):
    """The same requests through ``submit_batch`` or one ``submit`` each."""
    fabric = built.service
    requests = batch_requests()
    if batched:
        tickets = []
        for start in range(0, len(requests), 6):
            tickets += fabric.submit_batch(requests[start:start + 6])
    else:
        tickets = [fabric.submit(request) for request in requests]
    assert_one_queue(fabric, tickets)
    pump(fabric)
    assert_one_queue(fabric, tickets)
    decisions = {t.request_id: essence(t.result(5.0)) for t in tickets}
    return {"decisions": decisions, **end_state(fabric)}


def failover_scenario(built):
    """Kill a shard with work in flight, serve degraded, restore."""
    fabric, supervisor = built.service, built.supervisor
    pool = fabric.pool
    demands = trace_demands(pool, 14, seed=1)
    tickets = {
        i: fabric.submit(PlaceRequest(demand=d, request_id=i))
        for i, d in enumerate(demands[:8])
    }
    pump(fabric)
    assert_one_queue(fabric, tickets.values())
    before = {r: fabric.owner_of(r) for r, t in tickets.items() if t.result(5.0).placed}
    victim = 0
    held = sorted(r for r, owner in before.items() if owner == victim)
    assert held, "the victim shard should hold leases"
    payload = supervisor.replicated_payload(victim)
    # More arrivals, admitted but not stepped: the victim's share of them is
    # what the failover has to re-route.
    for i, d in enumerate(demands[8:], start=8):
        tickets[i] = fabric.submit(PlaceRequest(demand=d, request_id=i))
    inflight_on_victim = sorted(
        r for r in range(8, len(demands)) if fabric.owner_of(r) == victim
    )
    assert inflight_on_victim, "the victim shard should have requests queued"
    assert_one_queue(fabric, tickets.values())
    gate = {"open": False}
    supervisor.restore_gate = lambda shard_id, now: gate["open"]
    supervisor.workers[victim].kill()
    events = supervisor.monitor()
    assert [(e.shard_id, e.restored) for e in events] == [(victim, False)]
    assert list(events[0].rerouted) == inflight_on_victim
    assert fabric.down_shards == frozenset({victim})
    assert_one_queue(fabric, tickets.values())
    pump(fabric)
    assert_one_queue(fabric, tickets.values())
    # Degraded: the dead shard's leases answer shard_unavailable, nothing
    # new lands on it, and a whole-fabric checkpoint is refused.
    assert (
        fabric.release(ReleaseRequest(request_id=held[0])).status
        == DecisionStatus.SHARD_UNAVAILABLE
    )
    with pytest.raises(ValidationError, match="dead shard"):
        fabric.checkpoint_doc()
    rerouted = {r: essence(tickets[r].result(5.0)) for r in inflight_on_victim}
    assert all(fabric.owner_of(r) != victim for r in inflight_on_victim)
    gate["open"] = True
    events = supervisor.monitor()
    assert [(e.shard_id, e.restored) for e in events] == [(victim, True)]
    assert fabric.down_shards == frozenset()
    # Byte-identical restore, zero lost leases.
    restored = json.dumps(
        fabric.shards[victim].backend.checkpoint_doc(), indent=1
    ).encode("utf-8")
    assert restored == payload
    assert {r: fabric.owner_of(r) for r in before} == before
    supervisor.verify_consistency()
    assert dict(supervisor.stranded_leases()) == {}
    # And the restored shard keeps serving.
    assert fabric.release(ReleaseRequest(request_id=held[0])).released
    late = fabric.submit(PlaceRequest(demand=(1, 0, 0), request_id=999))
    pump(fabric)
    assert_one_queue(fabric, [*tickets.values(), late])
    decisions = {r: essence(t.result(5.0)) for r, t in tickets.items()}
    return {
        "decisions": decisions,
        "rerouted": rerouted,
        "late": essence(late.result(5.0)),
        **end_state(fabric),
    }


@functools.lru_cache(maxsize=None)
def run(scenario, workers):
    """Run *scenario* once per backend; every test reads the same record."""
    if scenario == "trace":
        config = FabricConfig(
            service=ServiceConfig(batch_window=0.0, queue_capacity=4)
        )
        built = build(workers, make_pool(13), config=config)
        body = trace_scenario
    elif scenario in ("sequential", "batched"):
        built = build(workers, make_pool(3, nodes_per_rack=10, capacity_high=4))
        body = functools.partial(batch_scenario, batched=scenario == "batched")
    else:
        # Deaths are declared by the test (kill), never by a slow host.
        built = build(
            workers,
            make_pool(11),
            supervise=True,
            coord="auto" if workers == "proc" else None,
            supervisor_config=SupervisorConfig(heartbeat_ttl=3600.0),
        )
        body = failover_scenario
    try:
        return body(built)
    finally:
        assert built.shutdown() == 0


SCENARIOS = ("trace", "sequential", "batched", "failover")


@pytest.mark.parametrize("workers", BACKENDS)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_scenario_holds_on_backend(scenario, workers):
    """Each scenario's own invariants (asserted inside it) hold."""
    record = run(scenario, workers)
    assert record["decisions"]
    assert [rid for rid, _ in record["owners"]] == sorted(record["owner_map"])


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_backends_agree(scenario):
    """Identical decisions, owner maps, summaries, stats, checkpoint bytes."""
    reference = run(scenario, BACKENDS[0])
    for workers in BACKENDS[1:]:
        record = run(scenario, workers)
        for key in reference:
            assert record[key] == reference[key], (workers, key)


@pytest.mark.parametrize("workers", BACKENDS)
def test_submit_batch_matches_sequential_submits(workers):
    assert run("batched", workers) == run("sequential", workers)


@pytest.mark.parametrize("workers", BACKENDS)
def test_survivability_target_holds_on_backend(workers):
    """The achieved report comes back, and an unmeetable target is refused —
    across the process boundary exactly as without one."""
    decisions = run("sequential", workers)["decisions"]
    _, status, placements, _, distance, _, report = decisions[1]
    assert status == DecisionStatus.PLACED and distance == 4.0
    assert sum(count for _, _, count in placements) == 4
    assert report["domain_cap"] == 2 and report["max_domain_vms"] == 2
    assert report["domains_used"] == 2
    assert decisions[2][1] == DecisionStatus.REFUSED
    assert "survivability" in decisions[2][5]
