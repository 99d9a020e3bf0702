"""The in-process fabric's one scheduler thread, under contention.

Submitter threads outnumber the cores and the interpreter switches threads
every 10 µs, so submits, releases, cancels, shard steps and rebalance
slices interleave about as finely as CPython allows. Whatever the
interleaving: every ticket resolves exactly once, the shard ledgers and the
owner map agree, no lease has two owners, and exactly one scheduler thread
runs while the fabric is up. CI runs this file under ``python -X dev`` too.

Two more cases follow from having one loop: a burst from one caller outruns
it (what a full shard cannot place is handed back to shards with room), and
one shard's step that blocks stalls every shard (the supervisor fails the
loop over to a fresh one).

The batching window's rule is checked on a bare service's loop and on a
fabric's: the window runs from the earliest arrival no step has taken, and
a turn without one waits the full window. On a fabric a request arrives
when the fabric receives it, so routing counts in its window, and a
request handed back or failed over to another shard keeps its arrival time.
"""

import os
import sys
import threading
import time
from collections import Counter

import numpy as np

import pytest

from repro.cluster import PoolSpec, VMTypeCatalog, random_pool
from repro.core.placement.greedy import OnlineHeuristic
from repro.core.problem import VirtualClusterRequest
from repro.obs import MetricsRegistry
from repro.service import (
    ClusterState,
    DecisionStatus,
    FabricSupervisor,
    PlaceRequest,
    PlacementService,
    ReleaseRequest,
    ServiceConfig,
    SupervisorConfig,
)
from repro.service.shard import FabricConfig, RackGroupPlan, ShardedPlacementFabric

CATALOG = VMTypeCatalog.ec2_default()

#: Names of every thread a fabric or service has ever stepped shards on.
SCHEDULER_NAMES = ("fabric-scheduler", "placement-service", "fabric-rebalancer")

#: Bounds every wait below; the stress run itself takes a few seconds.
TIMEOUT_S = 60.0


def make_fabric(**service_kwargs):
    pool = random_pool(
        PoolSpec(racks=8, nodes_per_rack=4, clouds=2, capacity_low=1, capacity_high=3),
        CATALOG,
        seed=61,
    )
    return ShardedPlacementFabric(
        pool,
        plan=RackGroupPlan(4),
        config=FabricConfig(
            rebalance_interval=0.005,
            service=ServiceConfig(batch_window=0.0005, **service_kwargs),
        ),
        obs=MetricsRegistry(),
    )


def scheduler_threads(exclude=()):
    return [
        t
        for t in threading.enumerate()
        if t.name in SCHEDULER_NAMES and t not in exclude
    ]


def test_a_started_fabric_runs_exactly_one_scheduler_thread():
    fabric = make_fabric()
    before = set(scheduler_threads())
    fabric.start()
    try:
        threads = scheduler_threads(before)
        assert [t.name for t in threads] == ["fabric-scheduler"]
        assert fabric.running
    finally:
        fabric.stop()
    for thread in threads:
        thread.join(TIMEOUT_S)
        assert not thread.is_alive()
    assert scheduler_threads(before) == []
    assert not fabric.running


def test_a_decision_callback_may_submit_from_the_scheduler_thread():
    """Decisions resolve on the scheduler thread; a callback that submits
    the next request inline must not stall the loop."""
    fabric = make_fabric()
    done = threading.Event()
    chain = []

    def submit_next(decision=None):
        if len(chain) == 20:
            done.set()
            return
        rid = 5000 + len(chain)
        ticket = fabric.submit(PlaceRequest(request_id=rid, demand=(1, 0, 0)))
        chain.append(ticket)
        ticket.add_done_callback(submit_next)

    fabric.start()
    try:
        submit_next()
        assert done.wait(TIMEOUT_S)
    finally:
        fabric.stop()
    assert all(ticket.decision.placed for ticket in chain)
    fabric.verify_consistency()


def test_interleaved_submits_releases_and_cancels_keep_the_fabric_sound():
    fabric = make_fabric(max_wait=1.0)
    num_types = fabric.num_types
    submitters = 2 * (os.cpu_count() or 1) + 1
    per_submitter = 40
    resolved: Counter = Counter()
    resolved_lock = threading.Lock()
    tickets = {}
    released = set()
    errors = []

    def record(decision):
        with resolved_lock:
            resolved[decision.request_id] += 1

    def submitter(n):
        try:
            rng = np.random.default_rng(n)
            mine = []
            for i in range(per_submitter):
                rid = 1000 * n + i
                demand = [int(x) for x in rng.integers(0, 3, size=num_types)]
                if sum(demand) == 0:
                    demand[0] = 1
                ticket = fabric.submit(PlaceRequest(request_id=rid, demand=demand))
                ticket.add_done_callback(record)
                tickets[rid] = ticket
                mine.append(rid)
                draw = rng.random()
                if draw < 0.2:
                    fabric.cancel(rid)
                elif draw < 0.6:
                    victim = mine[int(rng.integers(0, len(mine)))]
                    decision = tickets[victim].decision
                    if decision is not None and decision.placed and victim not in released:
                        if fabric.release(ReleaseRequest(request_id=victim)).released:
                            released.add(victim)
        except BaseException as exc:  # surfaced by the main thread
            errors.append(exc)

    before = set(scheduler_threads())
    fabric.start()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=submitter, args=(n,), name=f"submitter-{n}")
            for n in range(submitters)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(TIMEOUT_S)
        assert not any(thread.is_alive() for thread in threads)
        deadline = time.monotonic() + TIMEOUT_S
        for ticket in tickets.values():
            assert ticket.result(max(0.0, deadline - time.monotonic())) is not None
        assert [t.name for t in scheduler_threads(before)] == ["fabric-scheduler"]
    finally:
        sys.setswitchinterval(switch)
        fabric.stop()
    assert not errors
    assert scheduler_threads(before) == []

    # Every ticket resolved, and exactly once.
    assert len(tickets) == submitters * per_submitter
    assert set(resolved) == set(tickets)
    assert set(resolved.values()) == {1}

    # The shard ledgers, the owner map and the pool agree.
    fabric.verify_consistency()
    holders = Counter(rid for shard in fabric.shards for rid in shard.state.leases)
    assert all(count == 1 for count in holders.values()), "a lease has two owners"
    for shard in fabric.shards:
        for rid in shard.state.leases:
            assert fabric.owner_of(rid) == shard.shard_id
    # A lease is held exactly when its ticket placed and was not released.
    expected = {
        rid
        for rid, ticket in tickets.items()
        if ticket.decision.placed and rid not in released
    }
    assert set(holders) == expected
    stats = fabric.stats
    assert stats.placed == sum(t.decision.placed for t in tickets.values())
    assert stats.released == len(released)


@pytest.mark.parametrize("seed", [0, 3])
def test_a_burst_from_one_thread_places_wherever_there_is_room(seed):
    """One caller submits a burst of 80 % of the pool's capacity faster than
    the loop steps. Routing reads committed state, so the burst piles onto
    the shards that looked best; what those cannot hold is handed back to
    shards with room rather than left waiting for releases that never come."""
    pool = random_pool(
        PoolSpec(racks=8, nodes_per_rack=10, clouds=2, capacity_low=1, capacity_high=4),
        CATALOG,
        seed=seed,
    )
    fabric = ShardedPlacementFabric(
        pool,
        plan=RackGroupPlan(4),
        config=FabricConfig(service=ServiceConfig(batch_window=0.002)),
        obs=MetricsRegistry(),
    )
    capacity = pool.max_capacity.sum(axis=0)
    rng = np.random.default_rng(seed)
    demands, total = [], np.zeros_like(capacity)
    while True:
        demand = rng.integers(0, 4, size=len(capacity))
        if demand.sum() == 0:
            demand[0] = 1
        if np.any(total + demand > 0.8 * capacity):
            break
        total += demand
        demands.append([int(x) for x in demand])
    fabric.start()
    try:
        tickets = [
            fabric.submit(PlaceRequest(request_id=rid, demand=demand))
            for rid, demand in enumerate(demands)
        ]
        deadline = time.monotonic() + TIMEOUT_S / 3
        decisions = [t.result(max(0.0, deadline - time.monotonic())) for t in tickets]
    finally:
        fabric.stop()
    placed = sum(d is not None and d.placed for d in decisions)
    assert placed == len(tickets)
    fabric.verify_consistency()
    for shard in fabric.shards:
        for rid in shard.state.leases:
            assert fabric.owner_of(rid) == shard.shard_id
    assert fabric.stats.placed == placed


STUCK_REQUEST = 7


def test_a_step_that_blocks_is_failed_over_to_a_fresh_scheduler_loop():
    """Every in-process shard shares the loop, so one step that blocks stops
    every shard's heartbeat. The supervisor quarantines and restores the
    shards; the first restore finds the loop stuck, marks the shard it is
    stuck in down and starts a fresh loop for the live shards. The stuck
    request is re-routed and placed, new traffic is served, and the old
    thread exits once its step returns."""
    gate = threading.Event()
    blocked = threading.Event()

    class BlockingHeuristic(OnlineHeuristic):
        def place(self, pool, request=None, **kwargs):
            if request.request_id == STUCK_REQUEST and not blocked.is_set():
                blocked.set()
                gate.wait(TIMEOUT_S)
            return super().place(pool, request, **kwargs)

    pool = random_pool(
        PoolSpec(racks=8, nodes_per_rack=4, clouds=2, capacity_low=1, capacity_high=3),
        CATALOG,
        seed=61,
    )
    fabric = ShardedPlacementFabric(
        pool,
        plan=RackGroupPlan(4),
        policy_factory=BlockingHeuristic,
        config=FabricConfig(service=ServiceConfig(batch_window=0.0005)),
        obs=MetricsRegistry(),
    )
    supervisor = FabricSupervisor(
        fabric,
        config=SupervisorConfig(heartbeat_interval=0.02, heartbeat_ttl=0.3),
        clock=time.monotonic,
    )
    before = set(scheduler_threads())
    fabric.start()
    try:
        for rid in range(STUCK_REQUEST):
            ticket = fabric.submit(PlaceRequest(request_id=rid, demand=(1, 0, 0)))
            assert ticket.result(TIMEOUT_S).placed
        stuck_loop = fabric._scheduler
        stuck_thread = stuck_loop._thread
        stuck = fabric.submit(PlaceRequest(request_id=STUCK_REQUEST, demand=(1, 0, 0)))
        stuck_shard = fabric.owner_of(STUCK_REQUEST)
        assert blocked.wait(TIMEOUT_S)
        deadline = time.monotonic() + TIMEOUT_S
        while fabric._scheduler is stuck_loop or fabric.down_shards:
            assert time.monotonic() < deadline, "the stuck loop was never replaced"
            supervisor.monitor()
            time.sleep(0.02)
        failed_over = {event.shard_id for event in supervisor.events}
        assert stuck_shard in failed_over
        assert all(event.restored for event in supervisor.events)
        assert stuck.result(TIMEOUT_S).placed
        assert fabric.owner_of(STUCK_REQUEST) is not None
        fresh = fabric.submit(PlaceRequest(request_id=100, demand=(1, 0, 0)))
        assert fresh.result(TIMEOUT_S).placed
        assert fabric.running
        assert stuck_thread.is_alive()  # still inside the blocked step
    finally:
        gate.set()
        stuck_thread.join(TIMEOUT_S)
        fabric.stop()
    assert not stuck_thread.is_alive()
    assert scheduler_threads(before) == []
    # The abandoned step placed the request on the shard's old state only,
    # and its late decision released nothing on the restored shard.
    fabric.verify_consistency()
    holders = Counter(rid for shard in fabric.shards for rid in shard.state.leases)
    assert holders[STUCK_REQUEST] == 1
    assert fabric.stats.placed == STUCK_REQUEST + 2
    assert fabric.stats.spec_released == 0


# ------------------------------------------------------------ batching window
#
# The window runs from the earliest arrival no step has taken; a turn
# without one waits the full window. Each case runs on a bare service's own
# loop and on an in-process fabric's loop; the loop's ``time.sleep`` calls
# and every step are recorded with their times.

WINDOW = 0.1
BLOCKING_REQUEST = 900


class _Recorder:
    """Records the loop thread's sleeps and its steps of the driven
    services: ``("sleep", started, seconds)`` and ``("step", started,
    ended, earliest arrival at entry, decided request ids)``."""

    def __init__(self, monkeypatch, thread_name, services):
        self.events = []
        self._lock = threading.Lock()
        real_sleep = time.sleep

        def sleep(seconds):
            if threading.current_thread().name == thread_name:
                self._add(("sleep", time.monotonic(), seconds))
            real_sleep(seconds)

        monkeypatch.setattr(time, "sleep", sleep)
        for service in services:
            self._wrap(service, thread_name)

    def _add(self, event):
        with self._lock:
            self.events.append(event)

    def _wrap(self, service, thread_name):
        step = service.step

        def recorded(now=None):
            if threading.current_thread().name != thread_name:
                return step(now)
            stamp = service.earliest_arrival
            started = time.monotonic()
            decisions = step(now)
            self._add((
                "step", started, time.monotonic(), stamp,
                [d.request_id for d in decisions],
            ))
            return decisions

        service.step = recorded

    def steps(self):
        with self._lock:
            return [e for e in self.events if e[0] == "step"]

    def step_deciding(self, rid):
        for event in self.steps():
            if rid in event[4]:
                return event
        raise AssertionError(f"no recorded step decided request {rid}")

    def sleeps_between(self, start, end):
        with self._lock:
            return [e for e in self.events if e[0] == "sleep" and start <= e[1] <= end]

    def sleep_before(self, step_event):
        """The last sleep the loop began before *step_event* began."""
        with self._lock:
            sleeps = [
                e for e in self.events if e[0] == "sleep" and e[1] <= step_event[1]
            ]
        assert sleeps, "the loop stepped without any window sleep"
        return sleeps[-1]


class _Target:
    """One scheduler loop over one or more services, driven alike."""

    def __init__(self, kind, policy_factory=OnlineHeuristic):
        config = ServiceConfig(batch_window=WINDOW)
        pool = random_pool(
            PoolSpec(racks=4, nodes_per_rack=4, clouds=2, capacity_low=1, capacity_high=3),
            CATALOG,
            seed=61,
        )
        if kind == "service":
            self.front = PlacementService(
                ClusterState.from_pool(pool), policy=policy_factory(), config=config
            )
            self.services = [self.front]
            self.thread_name = "placement-service"
        else:
            self.front = ShardedPlacementFabric(
                pool,
                plan=RackGroupPlan(2),
                policy_factory=policy_factory,
                config=FabricConfig(service=config),
                obs=MetricsRegistry(),
            )
            self.services = [shard.service for shard in self.front.shards]
            self.thread_name = "fabric-scheduler"

    def submit(self, rid, demand):
        return self.front.submit(PlaceRequest(request_id=rid, demand=demand))

    def step_by_hand(self):
        if isinstance(self.front, ShardedPlacementFabric):
            return self.front.step_all()
        return self.front.step()

    def loop(self):
        return self.services[0].scheduler

    def hog_type0(self, first_rid):
        """Take every service's whole type-0 supply with leases placed by
        hand, bypassing any router; returns ``{rid: service}``."""
        hogs = {}
        for i, service in enumerate(self.services):
            rid = first_rid + i
            supply = int(service.state.available[0])
            assert service.submit(PlaceRequest(request_id=rid, demand=(supply, 0, 0)))
            assert service.step()[0].placed
            hogs[rid] = service
        return hogs


def _wait_until(predicate, what):
    deadline = time.monotonic() + TIMEOUT_S
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.001)


KINDS = ["service", "fabric"]


@pytest.mark.parametrize("kind", KINDS)
def test_a_lone_arrival_waits_one_window_from_its_submit(kind, monkeypatch):
    target = _Target(kind)
    recorder = _Recorder(monkeypatch, target.thread_name, target.services)
    target.front.start()
    try:
        _wait_until(lambda: target.loop()._turn_started is None, "the loop to park")
        submitted = time.monotonic()
        ticket = target.submit(1, (1, 0, 0))
        assert ticket.result(TIMEOUT_S).placed
    finally:
        target.front.stop()
    step = recorder.step_deciding(1)
    stamp = step[3]
    assert stamp is not None and stamp >= submitted
    assert step[1] >= stamp + WINDOW
    sleep = recorder.sleep_before(step)
    assert 0 < sleep[2] <= WINDOW


@pytest.mark.parametrize("kind", KINDS)
def test_an_arrival_that_waited_out_a_slow_step_is_stepped_at_once(
    kind, monkeypatch
):
    """A request that arrives while a step blocks has spent the window by
    the time the step returns: the loop steps it with no further sleep."""
    gate, blocked = threading.Event(), threading.Event()

    class BlockingHeuristic(OnlineHeuristic):
        def place(self, pool, request=None, **kwargs):
            if request.request_id == BLOCKING_REQUEST and not blocked.is_set():
                blocked.set()
                gate.wait(TIMEOUT_S)
            return super().place(pool, request, **kwargs)

    target = _Target(kind, policy_factory=BlockingHeuristic)
    recorder = _Recorder(monkeypatch, target.thread_name, target.services)
    late = []
    target.front.start()
    try:
        slow = target.submit(BLOCKING_REQUEST, (1, 0, 0))
        assert blocked.wait(TIMEOUT_S)
        # The submit may block on the stepping service's lock: submit from
        # a thread of its own, and give it the whole window to wait out.
        submitter = threading.Thread(
            target=lambda: late.append(target.submit(2, (1, 0, 0)))
        )
        submitter.start()
        time.sleep(1.5 * WINDOW)
        gate.set()
        submitter.join(TIMEOUT_S)
        assert slow.result(TIMEOUT_S).placed
        assert late[0].result(TIMEOUT_S).placed
    finally:
        gate.set()
        target.front.stop()
    slow_step, late_step = (
        recorder.step_deciding(BLOCKING_REQUEST), recorder.step_deciding(2)
    )
    assert late_step[1] >= slow_step[2]
    assert recorder.sleeps_between(slow_step[2], late_step[1]) == []


@pytest.mark.parametrize("kind", KINDS)
def test_a_release_wake_without_an_arrival_sleeps_the_full_window(
    kind, monkeypatch
):
    target = _Target(kind)
    hogs = target.hog_type0(first_rid=100)
    recorder = _Recorder(monkeypatch, target.thread_name, target.services)
    waiter = target.submit(1, (1, 0, 0))
    assert target.step_by_hand() == []  # capacity-blocked: stays queued
    target.front.start()
    try:
        # The loop steps the waiter once without progress, then parks.
        _wait_until(recorder.steps, "the loop's first step")
        _wait_until(lambda: target.loop()._turn_started is None, "the loop to park")
        for rid, service in hogs.items():
            assert service.release(ReleaseRequest(request_id=rid)).released
        assert waiter.result(TIMEOUT_S).placed
    finally:
        target.front.stop()
    step = recorder.step_deciding(1)
    assert step[3] is None  # no arrival stamped this turn
    assert recorder.sleep_before(step)[2] == WINDOW


@pytest.mark.parametrize("kind", KINDS)
def test_a_hand_driven_step_clears_the_window_start(kind, monkeypatch):
    """A step by hand reads the queue, so a loop started later does not
    count its window from the arrival that step took."""
    target = _Target(kind)
    target.hog_type0(first_rid=100)
    recorder = _Recorder(monkeypatch, target.thread_name, target.services)
    target.submit(1, (1, 0, 0))
    assert any(s.earliest_arrival is not None for s in target.services)
    assert target.step_by_hand() == []
    assert all(s.earliest_arrival is None for s in target.services)
    time.sleep(1.5 * WINDOW)  # an inherited stamp would leave no window
    target.front.start()
    try:
        _wait_until(recorder.steps, "the loop's first step")
    finally:
        target.front.stop()
    first = recorder.steps()[0]
    assert first[3] is None
    assert recorder.sleep_before(first)[2] == WINDOW


def test_routing_time_counts_in_the_window_and_the_latency(monkeypatch):
    """A fabric request arrives when the fabric receives it: a router that
    takes ``d`` leaves the loop ``WINDOW - d`` to sleep, and the decision's
    latency counts the routing."""
    delay = WINDOW / 2
    target = _Target("fabric")
    recorder = _Recorder(monkeypatch, target.thread_name, target.services)
    router = target.front._router
    route = router.route
    entered = []

    def slow_route(*args, **kwargs):
        if threading.current_thread().name != target.thread_name:
            entered.append(time.monotonic())
            time.sleep(delay)
        return route(*args, **kwargs)

    monkeypatch.setattr(router, "route", slow_route)
    target.front.start()
    try:
        _wait_until(lambda: target.loop()._turn_started is None, "the loop to park")
        decision = target.submit(1, (1, 0, 0)).result(TIMEOUT_S)
        assert decision.placed
    finally:
        target.front.stop()
    step = recorder.step_deciding(1)
    sleep = recorder.sleep_before(step)
    assert sleep[1] >= entered[0] + delay
    assert 0 < sleep[2] <= WINDOW - delay
    assert decision.latency >= step[1] - entered[0] >= delay


# -------------------------------------------------- hand-back and failover

MAX_WAIT = 5.0
HELD_BEFORE_HAND_BACK = 0.2


def _two_shard_fabric():
    pool = random_pool(
        PoolSpec(racks=4, nodes_per_rack=4, clouds=2, capacity_low=1, capacity_high=3),
        CATALOG,
        seed=61,
    )
    return ShardedPlacementFabric(
        pool,
        plan=RackGroupPlan(2),
        config=FabricConfig(service=ServiceConfig(max_wait=MAX_WAIT)),
        obs=MetricsRegistry(),
    )


def _assert_kept_its_arrival(fabric, ticket, outcome, before, after):
    """Step the request's new shard past its original deadline (though not
    yet ``max_wait`` after the move, which came ``HELD_BEFORE_HAND_BACK``
    later), or now: it times out, or it is placed, and its decision reports
    the whole wait, its first shard's queue included."""
    if outcome == "timeout":
        now = after + MAX_WAIT + HELD_BEFORE_HAND_BACK / 4
        fabric.step_all(now=now)
        decision = ticket.result(0)
        assert decision.status == DecisionStatus.TIMEOUT
        assert fabric.stats.timed_out == 1
    else:
        now = time.monotonic()
        fabric.step_all(now=now)
        decision = ticket.result(0)
        assert decision.placed
    assert now - after <= decision.latency <= now - before


@pytest.mark.parametrize("outcome", ["timeout", "placed"])
def test_a_handed_back_request_keeps_its_arrival_time(outcome):
    """A request handed back to another shard keeps the time it first
    arrived."""
    fabric = _two_shard_fabric()
    before = time.monotonic()
    ticket = fabric.submit(PlaceRequest(request_id=1, demand=(1, 0, 0)))
    after = time.monotonic()
    first = fabric.owner_of(1)
    # Strand it: its shard's whole type-0 supply goes to a lease committed
    # outside the queue, while the other shard keeps room.
    state = fabric.shards[first].state
    supply = VirtualClusterRequest(demand=[int(state.available[0]), 0, 0])
    state.allocate_lease(99, OnlineHeuristic().place(state, supply).allocation)
    time.sleep(HELD_BEFORE_HAND_BACK)
    fabric._hand_back()
    assert fabric.stats.handbacks == 1
    assert fabric.owner_of(1) not in (None, first)
    _assert_kept_its_arrival(fabric, ticket, outcome, before, after)


@pytest.mark.parametrize("outcome", ["timeout", "placed"])
def test_a_failed_over_request_keeps_its_arrival_time(outcome):
    """A queued request a mark-down re-routes to a surviving shard keeps
    the time it first arrived, as a handed-back one does."""
    fabric = _two_shard_fabric()
    before = time.monotonic()
    ticket = fabric.submit(PlaceRequest(request_id=1, demand=(1, 0, 0)))
    after = time.monotonic()
    first = fabric.owner_of(1)
    time.sleep(HELD_BEFORE_HAND_BACK)
    assert fabric.mark_shard_down(first, reason="test") == [1]
    assert fabric.owner_of(1) not in (None, first)
    _assert_kept_its_arrival(fabric, ticket, outcome, before, after)
