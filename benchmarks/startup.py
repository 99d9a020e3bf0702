"""Start-up cost of every ledger topology, each in a fresh interpreter.

The ledger's ``setup_s`` is the package import plus the *median* build, so
a change that only moves work into a run's first build would look like a
gain there. This tool shows that first build. For every ledger workload it
starts a new interpreter that imports what the ledger imports, builds the
workload's system once, then ``--builds`` more times, tearing each down,
and prints per topology (the median over ``--runs`` interpreters):

* ``import_s`` — importing the ledger's measuring code (numpy, ``repro``);
* ``cold_s`` — that import plus the first build: what one ``repro serve``
  or one benchmark process pays before its first request;
* ``build_s`` — the median of the later builds;
* ``spawn_s`` — for proc workers, the median ``build_fabric`` call of the
  later builds (the ledger's ``proc.spawn_s``: child processes started and
  connected);
* ``modules`` — ``repro`` modules loaded once the first build is done.

Run from the repository root::

    python benchmarks/startup.py [--workload NAME] [--builds 5] [--runs 3]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Spawned shard workers re-import this file as ``__mp_main__``: nothing
# above the ``__main__`` guard may import more than the standard library.
_ROOT = Path(__file__).resolve().parents[1]
for _path in (_ROOT / "src", _ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

COLUMNS = ("import_s", "cold_s", "build_s", "spawn_s", "modules")


def measure_one(name: str, builds: int) -> dict:
    """One fresh interpreter's start-up numbers for workload *name*."""
    started = time.perf_counter()
    from benchmarks.ledger import host, measure  # noqa: F401 - what the ledger times

    import_s = time.perf_counter() - started
    from benchmarks.ledger import targets
    from benchmarks.ledger.spec import BY_NAME

    workload = BY_NAME[name]
    try:
        first = targets.setup(workload)
        first.teardown()
        modules = sum(1 for m in sys.modules if m.split(".")[0] == "repro")
        later = []
        for _ in range(builds):
            target = targets.setup(workload)
            target.teardown()
            later.append(target)
    finally:
        host.stop_children()
    proc = workload.workers == "proc"
    return {
        "import_s": import_s,
        "cold_s": import_s + first.setup_s,
        "build_s": statistics.median(t.setup_s for t in later),
        "spawn_s": statistics.median(t.spawn_s for t in later) if proc else None,
        "modules": modules,
    }


def run_fresh(name: str, builds: int) -> dict:
    done = subprocess.run(
        [sys.executable, __file__, "--child", name, "--builds", str(builds)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one ledger workload (default: all)")
    parser.add_argument("--builds", type=int, default=5, help="builds after the first")
    parser.add_argument("--runs", type=int, default=1, help="fresh interpreters per workload")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(measure_one(args.child, max(1, args.builds))))
        return 0

    from benchmarks.ledger.spec import WORKLOADS

    names = [args.workload] if args.workload else [w.name for w in WORKLOADS]
    print(f"{'workload':<26}" + "".join(f"{c:>10}" for c in COLUMNS))
    for name in names:
        runs = [run_fresh(name, args.builds) for _ in range(max(1, args.runs))]
        cells = []
        for column in COLUMNS:
            values = [r[column] for r in runs if r[column] is not None]
            if not values:
                cells.append(f"{'-':>10}")
            elif column == "modules":
                cells.append(f"{statistics.median(values):>10.0f}")
            else:
                cells.append(f"{statistics.median(values):>10.3f}")
        print(f"{name:<26}" + "".join(cells), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
