"""One workload, one seed: set up, drive, check, tear down, report.

The end-to-end pass installs no proxy, enables no ``PhaseTimer`` and records
no span. The traced pass runs the same workload and seed twice in one
process — a short untraced reference, then the traced window — so the
tracing overhead is the difference of two runs on the same host state.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from benchmarks.ledger import checks, host, layers, targets
from benchmarks.ledger.drivers import DRIVERS, Run
from benchmarks.ledger.gen import RequestStream
from benchmarks.ledger.spec import (
    SETUP_BUDGET_S,
    SETUP_MAX_REPEATS,
    SETUP_REPEATS,
    Workload,
)
from benchmarks.ledger.trace import Trace

#: Shares of ``--seconds`` the traced run gives its two windows.
REFERENCE_SHARE = 0.5
TRACED_SHARE = 0.5


def _percentile(latencies_ms, q: float) -> float:
    return float(np.percentile(latencies_ms, q)) if len(latencies_ms) else 0.0


def _pass(workload: Workload, seed: int, seconds: float, trace: "Trace | None"):
    """Build, drive, replay (traced only), verify and tear down once."""
    target = targets.setup(workload, trace)
    problems: list = []
    replayed: dict = {}
    try:
        stream = RequestStream(workload, seed)
        run = DRIVERS[workload.kind](target, stream, seconds, trace is not None)
        problems += checks.check_decisions(target, stream, run)
        problems += checks.check_pin(target, seed, run)
        if trace is not None:
            replayed = layers.replay(target, stream, run)
        problems += checks.drain_and_verify(target, run)
    finally:
        exit_code = target.teardown()
    if exit_code != 0:
        problems.append(f"worker exit codes: {target.built.worker_exit_codes}")
    return target, run, replayed, problems


def _counts(run: Run) -> tuple:
    attempted = len(run.ops)
    return attempted, attempted - len(run.placed)


def end_to_end(
    workload: Workload, seed: int, seconds: float, import_s: float = 0.0
) -> dict:
    """The ``--trace 0`` run: every end-to-end metric, tracing off.

    ``import_s`` is what this process spent importing the package before it
    could build anything; ``setup_s`` is that plus the median build.
    """
    calib_ms = host.calibrate()
    setups = []
    began = time.perf_counter()
    while len(setups) < SETUP_REPEATS - 1 or (
        time.perf_counter() - began < SETUP_BUDGET_S
        and len(setups) < SETUP_MAX_REPEATS - 1
    ):
        spare = targets.setup(workload)
        setups.append(spare.setup_s)
        spare.teardown()
    target, run, _replayed, problems = _pass(workload, seed, seconds, None)
    setups.append(target.setup_s)
    latencies = [1e3 * (op.end - op.begin) for op in run.placed]
    attempted, failed = _counts(run)
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "throughput_ops_s": run.completed / run.wall_s,
        "latency_p50_ms": _percentile(latencies, 50),
        "peak_rss_mb": host.peak_rss_mb(),
    }
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "samples": len(latencies),
        "calib_ms": calib_ms,
        "pin": checks.pin_value(run) if workload.kind == "library" else None,
    }


def per_layer(
    workload: Workload, seed: int, seconds: float, trace_out=None, import_s: float = 0.0
) -> dict:
    """The ``--trace 1`` run: every per-layer metric, from a traced pass."""
    calib_ms = host.calibrate()
    _t, reference, _r, problems = _pass(
        workload, seed, seconds * REFERENCE_SHARE, None
    )
    trace = Trace()
    target, run, replayed, traced_problems = _pass(
        workload, seed, seconds * TRACED_SHARE, trace
    )
    problems += traced_problems
    placed = run.placed
    latencies = [1e3 * (op.end - op.begin) for op in placed]
    attempted, failed = _counts(run)
    within = sum(1 for ms in latencies if ms <= workload.slo_ms)
    measured = {
        "setup.import_s": import_s,
        "setup.build_ms": 1e3 * target.setup_s,
        "host.cpu_ms_per_op": 1e3 * run.cpu_s / max(1, run.completed),
        "client.latency_p90_ms": _percentile(latencies, 90),
        "client.latency_p95_ms": _percentile(latencies, 95),
        "client.latency_p99_ms": _percentile(latencies, 99),
        "client.slo_ok_share": within / max(1, attempted),
        "client.failed_share": failed / max(1, attempted),
        "placement.mean_dc": layers.mean(op.decision.distance for op in placed),
    }
    metrics = layers.derive(
        target, run, trace, replayed,
        calib_ms=calib_ms,
        reference_s_per_op=reference.wall_s / max(1, reference.completed),
        measured=measured,
    )
    if trace_out:
        trace.write(trace_out)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "samples": len(latencies),
        "calib_ms": calib_ms,
        "spans": len(trace.spans),
    }
