"""Row-major against column-major cost of Algorithm 1's per-node scans.

Times the pool-shaped expressions of one placement on an ``(n × 3)``
``int64`` matrix stored row-major (``order="C"``) and type-major
(``order="F"``): the single-node test, the candidate set, the per-node
providable count, the touched-row scan of an allocation, and the row
gather / scatter of a commit. Prints one line per expression and size with
the best-of-7 microseconds per call for each order::

    PYTHONPATH=src python benchmarks/storage_order.py
"""

from __future__ import annotations

import timeit

import numpy as np

from repro.core.placement.kernels import providable

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


def main() -> None:
    print(f"{'expression':<26} {'n':>5} {'row-major µs':>13} {'type-major µs':>14}")
    for n in SIZES:
        row, col = cases(n, "C"), cases(n, "F")
        for name in row:
            print(
                f"{name:<26} {n:>5} {best_us(row[name]):>13.1f} "
                f"{best_us(col[name]):>14.1f}"
            )


if __name__ == "__main__":
    main()
