"""Command line: one workload (the driver's contract) or all six.

``--workload`` runs one workload in this process and prints the driver's
JSON object as the last line of standard output. Without it, every workload
runs in a fresh subprocess — ``--repeats`` end-to-end runs, then one traced
run — and the collected table is printed and, with ``--out``, written down.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.ledger.spec import (
    BY_NAME,
    DEFAULT_SEED,
    END_TO_END,
    PER_LAYER,
    PIN_OPS,
    RUN_SECONDS,
    WORKLOADS,
)

#: A row is flagged when its calibration loop ran this much slower than the
#: fastest one seen in the same invocation: the host was busy.
NOISE_FACTOR = 1.15
_UNITS = {name: unit for name, unit, *_rest in END_TO_END + PER_LAYER}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger", description=__doc__
    )
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="write the traced pass's spans here (JSON lines)")
    parser.add_argument("--repeats", type=int, default=1, help="end-to-end runs per workload (all-workload mode)")
    parser.add_argument("--out", help="write the collected result set here (all-workload mode)")
    return parser


def _host_header() -> dict:
    return {
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def _run_one(args) -> int:
    # Nothing heavy is imported before this point: importing the package
    # (numpy, scipy, repro) is the first part of what `setup_s` reports.
    started = time.perf_counter()
    from benchmarks.ledger import host, measure

    import_s = time.perf_counter() - started
    workload = BY_NAME[args.workload]
    try:
        if args.trace:
            result = measure.per_layer(
                workload, args.seed, args.seconds, args.trace_out, import_s
            )
        else:
            result = measure.end_to_end(workload, args.seed, args.seconds, import_s)
    finally:
        # On every path out: no process this run started outlives it.
        killed = host.stop_children()
    if killed:
        result["problems"].append(f"{killed} child process(es) had to be killed")
        result["correct"] = False
    print(
        f"# {workload.name} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} samples={result['samples']} "
        f"host.calib_ms={result['calib_ms']:.3f} {json.dumps(_host_header())}"
    )
    print("#meta " + json.dumps({"samples": result["samples"], "calib_ms": result["calib_ms"]}))
    if result.get("pin") is not None:
        print(f"# mean_dc over the first {PIN_OPS} timed ops: {result['pin']!r}")
    for name, value in result["metrics"].items():
        print(f"{name:36s} {value:14.6g} {_UNITS[name]:6s} (n={result['samples']})")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": _UNITS[name]}
                    for name, value in result["metrics"].items()
                },
            }
        )
    )
    return 0 if result["correct"] else 1


def _child(workload: str, args, trace: int) -> dict:
    """Run one workload in a fresh interpreter; returns its parsed output."""
    command = [
        sys.executable, str(Path(__file__).with_name("__main__.py")),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if trace and args.trace_out:
        command += ["--trace-out", f"{args.trace_out}.{workload}.jsonl"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} (trace={trace}) exited {done.returncode}")
    result = json.loads(lines[-1])
    meta = next(json.loads(l[6:]) for l in lines if l.startswith("#meta "))
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        **meta,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def _run_all(args) -> int:
    header = {
        **_host_header(),
        "seed": args.seed,
        "seconds": args.seconds,
        "repeats": args.repeats,
        "python": platform.python_version(),
    }
    print(f"# placement ledger {json.dumps(header)}")
    results: dict = {}
    calibs: list = []
    for workload in WORKLOADS:
        runs = [_child(workload.name, args, 0) for _ in range(args.repeats)]
        traced = _child(workload.name, args, 1)
        calibs += [r["calib_ms"] for r in runs] + [traced["calib_ms"]]
        results[workload.name] = {"end_to_end": runs, "per_layer": traced}
        last = runs[-1]
        print(
            f"\n== {workload.name}: attempted={last['attempted']} "
            f"failed={last['failed']} samples={last['samples']} "
            f"correct={all(r['correct'] for r in runs) and traced['correct']}"
        )
        for name, unit, _better, _bound in END_TO_END:
            values = ", ".join(f"{r['metrics'][name]:.6g}" for r in runs)
            print(f"  {name:34s} {values} {unit} (n={last['samples']})")
        for name, unit, _better in PER_LAYER:
            print(f"  {name:34s} {traced['metrics'][name]:.6g} {unit}")
    floor = min(calibs)
    for name, entry in results.items():
        noisy = [
            r["calib_ms"] for r in entry["end_to_end"] + [entry["per_layer"]]
            if r["calib_ms"] > NOISE_FACTOR * floor
        ]
        entry["noisy"] = bool(noisy)
        if noisy:
            print(
                f"NOISY HOST: {name} calibrated at {max(noisy):.2f} ms, "
                f"{max(noisy) / floor:.2f}x the run's floor {floor:.2f} ms"
            )
    header["loadavg_end"] = _host_header()["loadavg"]
    if args.out:
        Path(args.out).write_text(
            json.dumps({"header": header, "workloads": results}, indent=1) + "\n"
        )
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return _run_one(args) if args.workload else _run_all(args)
