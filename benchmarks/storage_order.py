"""Row-major against column-major cost of Algorithm 1's per-node scans.

Times the pool-shaped expressions of one placement on an ``(n × 3)``
``int64`` matrix stored row-major (``order="C"``) and type-major
(``order="F"``): the single-node test, the candidate set, the per-node
providable count, the touched-row scan of an allocation, and the row
gather / scatter of a commit. Prints one line per expression and size with
the best-of-7 microseconds per call for each order, then what replaying one
journal record costs a mirror (``checkpoint.replay``): an allocate record
followed by the release record that frees it, and a record the state
already holds (re-sent by the events stream after a release reply)::

    PYTHONPATH=src python benchmarks/storage_order.py
"""

from __future__ import annotations

import timeit

import numpy as np

from repro.cluster import PoolSpec, VMTypeCatalog, random_pool
from repro.core.placement.greedy import OnlineHeuristic
from repro.core.placement.kernels import providable
from repro.service.checkpoint import delta_bytes, replay
from repro.service.coord import LogEntry
from repro.service.state import ClusterState

SIZES = (120, 960)
REPEATS = 7


def cases(n: int, order: str) -> dict:
    rng = np.random.default_rng(n)
    free = np.array(rng.integers(0, 5, size=(n, 3)), order=order)
    alloc = np.zeros((n, 3), dtype=np.int64, order=order)
    rows = np.sort(rng.choice(n, size=8, replace=False))
    alloc[rows] = 1
    demand = np.array([5, 3, 4], dtype=np.int64)
    block = np.zeros((rows.size, 3), dtype=np.int64)

    def scatter():
        free[rows] += block

    return {
        "np.all(L >= R, axis=1)": lambda: np.all(free >= demand[None, :], axis=1),
        "L.sum(axis=1)": lambda: free.sum(axis=1),
        "kernels.providable(L, R)": lambda: providable(free, demand),
        "C.any(axis=1)": lambda: alloc.any(axis=1),
        "L[rows]": lambda: free[rows],
        "L[rows] += d": scatter,
    }


def best_us(call, number: int = 2000) -> float:
    return min(timeit.repeat(call, number=number, repeat=REPEATS)) / number * 1e6


def replay_cases(n: int) -> dict:
    """One allocate + release record pair and one already-held record,
    replayed into a state of *n* nodes (10 per rack, capacity 1–4)."""
    pool = random_pool(
        PoolSpec(racks=n // 20, nodes_per_rack=10, clouds=2, capacity_low=1, capacity_high=4),
        VMTypeCatalog.ec2_default(),
        seed=n,
    )
    source = ClusterState.from_pool(pool)
    journal = source.subscribe()
    source.allocate_lease(1, OnlineHeuristic().place(source, [3, 5, 2]).allocation)
    source.release_lease(1)
    allocate = delta_bytes(journal[:1], 0, 1)
    release = delta_bytes(journal[1:], 1, 2)
    mirror = ClusterState.from_pool(pool)

    def pair():
        replay(mirror, [LogEntry(mirror.version + 1, allocate)])
        replay(mirror, [LogEntry(mirror.version + 1, release)])

    def held():
        replay(mirror, [LogEntry(mirror.version, release)])

    return {"allocate + release record": pair, "record already held": held}


def main() -> None:
    print(f"{'expression':<26} {'n':>5} {'row-major µs':>13} {'type-major µs':>14}")
    for n in SIZES:
        row, col = cases(n, "C"), cases(n, "F")
        for name in row:
            print(
                f"{name:<26} {n:>5} {best_us(row[name]):>13.1f} "
                f"{best_us(col[name]):>14.1f}"
            )
    print(f"\n{'replayed into a mirror':<26} {'n':>5} {'µs':>13}")
    for n in SIZES:
        for name, call in replay_cases(n).items():
            print(f"{name:<26} {n:>5} {best_us(call, number=500):>13.1f}")


if __name__ == "__main__":
    main()
