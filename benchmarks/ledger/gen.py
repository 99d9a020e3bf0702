"""Seeded request streams: the only input the program under test receives.

The same ``(workload, seed)`` always yields the same demands, lease lengths
and arrival times, in chunks so a time-bounded run never runs out.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from benchmarks.ledger.spec import WORKLOADS, Workload

NUM_TYPES = 3
#: Request ids start here so they never collide with the core's auto counter.
FIRST_REQUEST_ID = 1_000_000
_CHUNK = 2048
_BLOCK = 64


class RequestStream:
    """Indexable, lazily extended stream of one workload's requests.

    ``demand(i)`` is the i-th request's per-type VM counts; ``hold(i)`` the
    number of later decisions after which its lease is released (closed
    loops); ``due(i)`` / ``release_due(i)`` the offsets in seconds at which
    it arrives and its lease ends (open loop).
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        index = [w.name for w in WORKLOADS].index(workload.stream or workload.name)
        self._rng = np.random.default_rng([int(seed), index])
        self._demands: list[tuple[int, ...]] = []
        self._holds: list[int] = []
        self._dues: list[float] = []
        self._clock = 0.0
        self._lock = threading.Lock()

    def _stratified(self, n: int) -> np.ndarray:
        """*n* uniforms in shuffled strata: each block of ``_BLOCK`` draws
        has one value in every 1/``_BLOCK`` slice of [0, 1)."""
        strata = np.concatenate(
            [self._rng.permutation(_BLOCK) for _ in range(n // _BLOCK)]
        )
        return (strata + self._rng.uniform(size=n)) / _BLOCK

    def _extend(self) -> None:
        w = self.workload
        per_second = int(w.rate)
        chunk = math.lcm(_BLOCK, per_second) if w.kind == "open" else _CHUNK
        # Stratified draws keep each request's distribution (uniform demand
        # per type, geometric hold) but make any _BLOCK consecutive requests
        # cover it evenly: how full the pool runs, and how far the open loop
        # oversubscribes it, then depend on the workload and not on the seed.
        span = w.demand_high - w.demand_low + 1
        demands = w.demand_low + np.stack(
            [np.floor(self._stratified(chunk) * span) for _ in range(NUM_TYPES)],
            axis=1,
        ).astype(np.int64)
        # An all-zero draw asks for nothing; give it one VM of a drawn type.
        empty = np.flatnonzero(demands.sum(axis=1) == 0)
        demands[empty, self._rng.integers(0, NUM_TYPES, size=empty.size)] = 1
        if w.kind != "open":
            # Inverse CDF of the geometric distribution with mean hold_decisions.
            holds = np.ceil(
                np.log1p(-self._stratified(chunk)) / np.log1p(-1.0 / w.hold_decisions)
            )
            self._holds.extend(max(1, int(h)) for h in holds)
        else:
            # A Poisson process conditioned on its count: exactly `rate`
            # arrivals at sorted uniform offsets in every second, so the
            # offered load is exact while the sub-second burstiness stays.
            for _ in range(chunk // per_second):
                offsets = np.sort(self._rng.uniform(0.0, 1.0, size=per_second))
                self._dues.extend(self._clock + float(o) for o in offsets)
                self._clock += 1.0
        # Demands last: `_ensure` reads their length without the lock.
        self._demands.extend(tuple(int(d) for d in row) for row in demands)

    def _ensure(self, i: int) -> None:
        if i >= len(self._demands):
            with self._lock:  # the wire driver reads from two threads
                while i >= len(self._demands):
                    self._extend()

    def demand(self, i: int) -> tuple[int, ...]:
        self._ensure(i)
        return self._demands[i]

    def hold(self, i: int) -> int:
        self._ensure(i)
        return self._holds[i]

    def due(self, i: int) -> float:
        self._ensure(i)
        return self._dues[i]

    def release_due(self, i: int) -> float:
        """Open loop: a lease ends when the ``hold_arrivals``-th later
        request is due, so exactly that many requests are in the system."""
        return self.due(i + self.workload.hold_arrivals)

    @staticmethod
    def request_id(i: int) -> int:
        return FIRST_REQUEST_ID + i
