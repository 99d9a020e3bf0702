"""The four load drivers: library, in-process closed loop, wire, open loop.

Latency is client-observed — ``perf_counter`` at the call (closed loops) or
at the request's due time (open loop) to the moment the decision callback
fires or the reply is decoded; ``decision.latency`` is never used for it.
Closed-loop leases are released after a seeded number of *later decisions*,
so pool occupancy depends on the seed and not on how fast the program is.
The first ``hold_decisions`` decisions are warm-up; the timed window opens
on the last of them and closes on the first decision after ``seconds``.
"""

from __future__ import annotations

import heapq
import math
import queue
import threading
import time
from dataclasses import dataclass, field

from repro.core.problem import VirtualClusterRequest
from repro.service.api import (
    PlaceRequest,
    ReleaseRequest,
    decision_from_allocation,
)
from repro.util.errors import ReproError

from benchmarks.ledger import host
from benchmarks.ledger.gen import RequestStream
from benchmarks.ledger.targets import Target

#: Give up on a decision that has not arrived after this many seconds.
CLIENT_TIMEOUT = 30.0


@dataclass
class Op:
    """One timed request as the client saw it."""

    index: int
    begin: float
    end: float
    #: ``None`` when the client gave up (timeout or transport error).
    decision: object
    #: Seconds inside the ``submit()`` / ``place()`` call itself.
    call_s: float = 0.0
    #: Library path: seconds inside ``allocate_lease``.
    commit_s: float = 0.0


@dataclass
class Run:
    """The timed window of one pass plus what the drain needs."""

    ops: list = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0
    cpu_s: float = 0.0
    counters: dict = field(default_factory=dict)
    #: Request ids still holding a lease when the pass stopped submitting.
    held: list = field(default_factory=list)
    release_s: float = 0.0
    releases: int = 0
    #: Releases answered ``unknown_lease`` for a lease the client holds and
    #: repeated once (see ``release``); failures stayed unreleased.
    release_retries: int = 0
    release_failures: int = 0
    #: Decisions that arrived inside the window (the throughput count).
    completed: int = 0
    #: Open loop: how late each timed submit ran, and the queue it met.
    late_s: list = field(default_factory=list)
    depth: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def placed(self) -> list:
        """The timed ops that ended in a placement."""
        return [op for op in self.ops if op.decision is not None and op.decision.placed]


def _delta(after: dict, before: dict) -> dict:
    return {name: value - before.get(name, 0.0) for name, value in after.items()}


def _worker_pids(target: Target) -> tuple:
    handles = getattr(getattr(target.built, "service", None), "handles", ())
    return tuple(h.pid for h in handles if h.pid)


class _Window:
    """Opens on the last warm-up decision, closes ``seconds`` later."""

    def __init__(self, target: Target, warmup: int, seconds: float) -> None:
        self.target = target
        self.warmup = warmup
        self.seconds = seconds
        self.run = Run()
        self.decided = 0
        self.closed = False
        self._pids = _worker_pids(target)

    def _snapshot(self) -> tuple:
        return host.cpu_s(self._pids), self.target.counters()

    def decide(self, op: Op) -> None:
        """Account one decision (warm-up, timed, or after the close)."""
        self.decided += 1
        run = self.run
        if self.closed:
            return
        if self.decided < self.warmup:
            return
        if self.decided == self.warmup:
            run.start = op.end
            self._cpu0, self._counters0 = self._snapshot()
            return
        run.ops.append(op)
        if op.end >= run.start + self.seconds:
            run.end = op.end
            cpu1, counters1 = self._snapshot()
            run.cpu_s = cpu1 - self._cpu0
            run.counters = _delta(counters1, self._counters0)
            run.completed = len(run.ops)
            self.closed = True


def release(run: Run, call, request_id: int, *, timed: bool = True) -> None:
    """Time one release through *call*; repeat it once if it is refused.

    The threaded fabric can answer ``unknown_lease`` for a live lease when
    the release crosses a rebalance migration (the owner is read before the
    move and the old shard asked after it). A second call finds the new
    owner, so the pool still drains; the retry is counted, not hidden.
    """
    started = time.perf_counter()
    released = call(request_id).released
    if timed:
        run.release_s += time.perf_counter() - started
        run.releases += 1
    if not released:
        run.release_retries += 1
        if not call(request_id).released:
            run.release_failures += 1


class _Leases:
    """Seeded release schedule: a lease lives ``hold(i)`` later decisions."""

    def __init__(self, stream: RequestStream) -> None:
        self._stream = stream
        self._heap: list = []

    def placed(self, index: int, decided: int) -> None:
        heapq.heappush(
            self._heap,
            (decided + self._stream.hold(index), self._stream.request_id(index)),
        )

    def due(self, decided: int) -> list:
        out = []
        while self._heap and self._heap[0][0] <= decided:
            out.append(heapq.heappop(self._heap)[1])
        return out

    def remaining(self) -> list:
        return [rid for _due, rid in self._heap]


def run_library(target: Target, stream: RequestStream, seconds: float, traced: bool) -> Run:
    """Sequential ``place`` + ``allocate_lease``; releases between ops."""
    state, policy = target.state, target.policy
    obs = target.registry if traced else None
    window = _Window(target, target.workload.hold_decisions, seconds)
    leases = _Leases(stream)
    run = window.run
    index = 0
    while not window.closed:
        rid = stream.request_id(index)
        request = VirtualClusterRequest(
            demand=list(stream.demand(index)), request_id=rid
        )
        begin = time.perf_counter()
        allocation = policy.place(state, request, obs=obs).allocation
        placed = time.perf_counter()
        if allocation is not None:
            state.allocate_lease(rid, allocation)
        end = time.perf_counter()
        decision = (
            decision_from_allocation(rid, allocation)
            if allocation is not None
            else None
        )
        window.decide(Op(index, begin, end, decision, placed - begin, end - placed))
        if allocation is not None:
            leases.placed(index, window.decided)
        for due in leases.due(window.decided):
            started = time.perf_counter()
            state.release_lease(due)
            run.release_s += time.perf_counter() - started
            run.releases += 1
        index += 1
    run.held = leases.remaining()
    return run


def run_inproc(target: Target, stream: RequestStream, seconds: float, traced: bool) -> Run:
    """Event-driven closed loop: the next submit rides each decision."""
    service = target.service
    workload = target.workload
    window = _Window(target, workload.hold_decisions, seconds)
    leases = _Leases(stream)
    run = window.run
    done: "queue.SimpleQueue" = queue.SimpleQueue()
    next_index = 0
    outstanding = 0

    def service_release(rid: int):
        return service.release(ReleaseRequest(request_id=rid))

    def submit() -> None:
        nonlocal next_index, outstanding
        index = next_index
        next_index += 1
        outstanding += 1
        request = PlaceRequest(
            demand=stream.demand(index), request_id=stream.request_id(index)
        )
        begin = time.perf_counter()
        ticket = service.submit(request)
        called = time.perf_counter()
        ticket.add_done_callback(
            lambda decision: done.put(
                (index, begin, called, time.perf_counter(), decision)
            )
        )

    for _ in range(workload.in_flight):
        submit()
    while outstanding:
        try:
            index, begin, called, end, decision = done.get(timeout=CLIENT_TIMEOUT)
        except queue.Empty:
            break  # what is still outstanding is counted as failed below
        outstanding -= 1
        window.decide(Op(index, begin, end, decision, called - begin))
        if decision.placed:
            leases.placed(index, window.decided)
        for rid in leases.due(window.decided):
            release(run, service_release, rid)
        if not window.closed:
            submit()
    for _ in range(outstanding):  # the client gave up on these
        run.ops.append(Op(-1, 0.0, CLIENT_TIMEOUT, None))
    run.held = leases.remaining()
    return run


def run_wire(target: Target, stream: RequestStream, seconds: float, traced: bool) -> Run:
    """One blocking ``ServiceClient`` per thread; shared seeded stream."""
    workload = target.workload
    window = _Window(target, workload.hold_decisions, seconds)
    leases = _Leases(stream)
    run = window.run
    lock = threading.Lock()
    next_index = 0
    errors: list = []

    def client_loop(client) -> None:
        mine = Run()  # this connection's release tally, merged at the end
        try:
            place_until_closed(client, mine)
        except BaseException as exc:  # re-raised on the driver thread below
            errors.append(exc)
        finally:
            with lock:
                window.closed = window.closed or bool(errors)
                run.release_s += mine.release_s
                run.releases += mine.releases
                run.release_retries += mine.release_retries
                run.release_failures += mine.release_failures

    def place_until_closed(client, mine: Run) -> None:
        nonlocal next_index
        while True:
            with lock:
                if window.closed:
                    return
                index = next_index
                next_index += 1
            request = PlaceRequest(
                demand=stream.demand(index), request_id=stream.request_id(index)
            )
            begin = time.perf_counter()
            try:
                decision = client.place(request)
            except ReproError:
                decision = None
            end = time.perf_counter()
            with lock:
                window.decide(Op(index, begin, end, decision, end - begin))
                if decision is not None and decision.placed:
                    leases.placed(index, window.decided)
                due = leases.due(window.decided)
            for rid in due:
                release(mine, client.release, rid)

    threads = [
        threading.Thread(target=client_loop, args=(client,), name=f"ledger-client-{n}")
        for n, client in enumerate(target.clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    run.held = leases.remaining()
    return run


def run_open(target: Target, stream: RequestStream, seconds: float, traced: bool) -> Run:
    """Open loop: submit at each due time, release after wall-clock holds.

    Requests due inside the window are the timed ones. Arrivals keep coming
    until the window has closed and the last timed request is decided, so
    the tail of the window sees the same contention as its middle.
    """
    service = target.service
    workload = target.workload
    run = Run()
    done: "queue.SimpleQueue" = queue.SimpleQueue()
    releases: list = []
    warmup = workload.warmup_requests
    pids = _worker_pids(target)
    base = time.perf_counter() + 0.01
    # Arrivals come in whole one-second blocks; opening the window on a
    # block boundary gives every run the same number of timed arrivals.
    run.start = base + math.floor(stream.due(warmup))
    close_at = run.start + seconds
    timed: dict = {}
    pending_timed = 0
    outstanding = 0
    index = 0
    cpu0 = counters0 = None

    def service_release(rid: int):
        return service.release(ReleaseRequest(request_id=rid))

    def on_done(index: int, due_at: float):
        return lambda decision: done.put(
            (index, due_at, time.perf_counter(), decision)
        )

    while run.end == 0.0 or pending_timed or outstanding:
        now = time.perf_counter()
        while True:
            try:
                i, due_at, end, decision = done.get_nowait()
            except queue.Empty:
                break
            outstanding -= 1
            if decision.placed:
                heapq.heappush(
                    releases,
                    (base + stream.release_due(i), stream.request_id(i)),
                )
            if run.start <= end < close_at:
                run.completed += 1
            if run.start <= due_at < close_at:
                timed[i] = Op(i, due_at, end, decision)
                pending_timed -= 1
        while releases and releases[0][0] <= now:
            rid = heapq.heappop(releases)[1]
            release(
                run, service_release, rid, timed=run.start <= now < close_at
            )
        if cpu0 is None and now >= run.start:
            cpu0, counters0 = host.cpu_s(pids), target.counters()
        if run.end == 0.0 and now >= close_at:
            run.end = now
            run.cpu_s = host.cpu_s(pids) - cpu0
            run.counters = _delta(target.counters(), counters0)
        due_at = base + stream.due(index)
        arriving = run.end == 0.0 or pending_timed
        if arriving and due_at <= now:
            request = PlaceRequest(
                demand=stream.demand(index), request_id=stream.request_id(index)
            )
            if run.start <= due_at < close_at:
                pending_timed += 1
                run.late_s.append(time.perf_counter() - due_at)
                run.depth.append(service.queued)
            ticket = service.submit(request)
            ticket.add_done_callback(on_done(index, due_at))
            outstanding += 1
            index += 1
            continue
        # Sleep to the next arrival or release, 2 ms at most so decisions
        # that arrive meanwhile get their release scheduled promptly.
        wake = now + 0.002
        if arriving:
            wake = min(wake, due_at)
        if releases:
            wake = min(wake, releases[0][0])
        if wake > now:
            time.sleep(wake - now)
    run.ops = [timed[i] for i in sorted(timed)]
    run.held = [rid for _due, rid in releases]
    return run


DRIVERS = {
    "library": run_library,
    "inproc": run_inproc,
    "wire": run_wire,
    "open": run_open,
}
