"""Perf-regression gate: placement kernels AND the serving path.

Three gates, each comparing a live measurement against committed baseline
numbers in ``benchmarks/results/``:

* **kernel** — per-placement latency of ``OnlineHeuristic(stop="best")``
  with kernels enabled at the 90-node reference size, against the
  committed mean and p99 in ``scalability_bench.json``. A hot path can
  regress in the tail alone (a stray allocation, a cache that misses
  every Nth call) while the mean still squeaks under a mean-only gate,
  so both must hold.
* **serving** — closed-loop p99 of the sharded fabric at 480 nodes /
  8 shards under the event-driven driver (the tail methodology of
  ``docs/PERF.md``), against the ``fabric events`` record committed in
  ``serving_tail_bench.json``. The live tail must also stay strictly
  below the *pre-audit* fabric p99 recorded in ``sharding_bench.json`` —
  the serving path must never fall back to the old lock-shadowed tail.
* **proc** — closed-loop p99 of the out-of-process fabric at 240 nodes /
  4 workers against the ``proc_p99_ms`` record in ``proc_bench.json``
  (skippable with ``--skip-proc``; it spawns worker processes and is the
  slowest gate).

Tails are noisier than means on shared CI runners, so each tail gate
takes a generous default factor; regressions this gate is meant to catch
(a lock reintroduced on the admission path, an accidental O(n) in the
codec) blow through far larger multiples.

Run from the repo root::

    PYTHONPATH=src:. python benchmarks/check_perf_regression.py
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.cluster import PoolSpec, random_pool
from repro.core.placement.greedy import OnlineHeuristic
from repro.experiments import paperconfig as cfg

RESULTS_DIR = Path(__file__).parent / "results"
SCALABILITY_PATH = RESULTS_DIR / "scalability_bench.json"
SERVING_TAIL_PATH = RESULTS_DIR / "serving_tail_bench.json"
SHARDING_PATH = RESULTS_DIR / "sharding_bench.json"
PROC_PATH = RESULTS_DIR / "proc_bench.json"
GATE_NODES = 90
SERVING_GATE_NODES = 480
PROC_GATE_NODES = 240
REQUEST = np.array([8, 8, 4])


def measure_kernel(repeats: int) -> "tuple[float, float]":
    """(mean, p99) per-placement latency (ms) at the kernel gate size."""
    pool = random_pool(
        PoolSpec(racks=3, nodes_per_rack=30, capacity_high=2),
        cfg.CATALOG,
        seed=5,
        distance_model=cfg.DISTANCES,
    )
    heuristic = OnlineHeuristic(stop="best")
    heuristic.place(pool, REQUEST)  # warm-up (builds the topology cache)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        heuristic.place(pool, REQUEST)
        samples.append(time.perf_counter() - start)
    return (
        float(np.mean(samples)) * 1000,
        float(np.percentile(samples, 99)) * 1000,
    )


def measure_serving() -> float:
    """Live fabric closed-events p99 (ms) at the serving gate size.

    Reuses the committed bench's exact methodology (pool seed, plan,
    service config, workload seed) so the comparison is like-for-like.
    """
    from benchmarks.test_bench_extension_serving_tail import run_fabric

    report = run_fabric("closed-events", 1)
    return report.latency_p99 * 1000


def measure_proc() -> float:
    """Live proc-fabric closed-loop p99 (ms) at the proc gate size."""
    from benchmarks.test_bench_extension_proc import run_proc

    report = run_proc(8, 15)  # 240 nodes, two clouds
    return report.latency_p99 * 1000


def _record_by_nodes(doc: dict, key: str, nodes: int) -> "dict | None":
    return next(
        (rec for rec in doc.get(key, []) if rec.get("nodes") == nodes), None
    )


def _missing(path: Path, what: str) -> int:
    print(
        f"error: {what} missing from {path}; re-run the full bench",
        file=sys.stderr,
    )
    return 2


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--factor",
        type=float,
        default=2.0,
        help="fail when live kernel mean exceeds committed x this "
        "(default 2.0)",
    )
    parser.add_argument(
        "--p99-factor",
        type=float,
        default=3.0,
        help="fail when live kernel p99 exceeds committed x this "
        "(default 3.0)",
    )
    parser.add_argument(
        "--serving-p99-factor",
        type=float,
        default=4.0,
        help="fail when live serving p99 exceeds committed x this "
        "(default 4.0 — end-to-end tails swing more than kernel tails)",
    )
    parser.add_argument(
        "--proc-p99-factor",
        type=float,
        default=4.0,
        help="fail when live proc p99 exceeds committed x this "
        "(default 4.0)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=50,
        help="placements timed for the kernel measurement (default 50; the "
        "tail estimate needs more samples than a mean does)",
    )
    parser.add_argument(
        "--skip-serving",
        action="store_true",
        help="skip the serving-path gate (fabric closed-loop run)",
    )
    parser.add_argument(
        "--skip-proc",
        action="store_true",
        help="skip the proc-fabric gate (spawns worker processes; the "
        "slowest gate)",
    )
    args = parser.parse_args(argv)

    checks: list[tuple[str, float, float, float]] = []

    # ------------------------------------------------------------- kernel
    committed = json.loads(SCALABILITY_PATH.read_text())
    by_nodes = {rec["nodes"]: rec for rec in committed["heuristic"]}
    baseline = by_nodes.get(GATE_NODES)
    if baseline is None:
        return _missing(SCALABILITY_PATH, f"{GATE_NODES}-node record")
    if "kernel_p99_ms" not in baseline:
        return _missing(
            SCALABILITY_PATH, f"kernel_p99_ms in the {GATE_NODES}-node record"
        )
    kernel_mean, kernel_p99 = measure_kernel(args.repeats)
    checks.append(
        ("kernel mean", kernel_mean, baseline["kernel_ms"], args.factor)
    )
    checks.append(
        ("kernel p99", kernel_p99, baseline["kernel_p99_ms"], args.p99_factor)
    )

    # ------------------------------------------------------------ serving
    if not args.skip_serving:
        if not SERVING_TAIL_PATH.exists():
            return _missing(SERVING_TAIL_PATH, "serving-tail baseline")
        serving_doc = json.loads(SERVING_TAIL_PATH.read_text())
        events = next(
            (
                rec
                for rec in serving_doc.get("configs", [])
                if rec.get("config") == "fabric events"
            ),
            None,
        )
        if events is None:
            return _missing(SERVING_TAIL_PATH, "'fabric events' record")
        live_serving = measure_serving()
        checks.append(
            (
                "serving p99",
                live_serving,
                events["p99_ms"],
                args.serving_p99_factor,
            )
        )
        # Hard ceiling: never regress back to the pre-audit fabric tail.
        sharding_doc = json.loads(SHARDING_PATH.read_text())
        old = _record_by_nodes(sharding_doc, "sizes", SERVING_GATE_NODES)
        if old is not None and "fabric_p99_ms" in old:
            checks.append(
                ("serving p99 ceiling", live_serving, old["fabric_p99_ms"], 1.0)
            )

    # --------------------------------------------------------------- proc
    if not args.skip_proc:
        proc_doc = json.loads(PROC_PATH.read_text())
        proc_rec = _record_by_nodes(proc_doc, "sizes", PROC_GATE_NODES)
        if proc_rec is None or "proc_p99_ms" not in proc_rec:
            return _missing(
                PROC_PATH, f"proc_p99_ms at {PROC_GATE_NODES} nodes"
            )
        live_proc = measure_proc()
        checks.append(
            ("proc p99", live_proc, proc_rec["proc_p99_ms"], args.proc_p99_factor)
        )

    failures = []
    for name, live, committed_ms, factor in checks:
        limit = committed_ms * factor
        ok = live <= limit
        if not ok:
            failures.append(name)
        print(
            f"{'OK' if ok else 'REGRESSION'} [{name}]: live {live:.3f} ms vs "
            f"committed {committed_ms:.3f} ms "
            f"(limit {limit:.3f} ms = {factor:g}x)"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
