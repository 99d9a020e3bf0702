"""``python -m benchmarks.ledger.compare A.json B.json``: apply the bounds.

One row per (workload, end-to-end metric): B against the base A, as

* ``worse``      — B's median is worse than A's by more than the bound;
* ``better``     — every run of B reads better than every run of A, or the
  medians differ by more than the runs' own spread, in the good direction;
* ``unresolved`` — the run-to-run spread (quartile distance over median, of
  either set) is wider than the bound, so the bound cannot be applied;
* ``within``     — everything else.

Every ratio is printed with its base. The exit code is 1 if any row is
worse, 0 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from benchmarks.ledger.spec import END_TO_END


def _spread(values: list) -> float:
    """Quartile distance as a share of the median (0 for under 2 runs)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def verdict(base: list, new: list, better: str, bound: float) -> tuple:
    """``(verdict, ratio, worsening, spread)`` for one metric's two run lists."""
    sign = 1.0 if better == "lower" else -1.0
    base_median, new_median = statistics.median(base), statistics.median(new)
    ratio = new_median / base_median
    worsening = sign * (ratio - 1.0)
    spread = max(_spread(base), _spread(new))
    all_better = max(sign * v for v in new) < min(sign * v for v in base)
    all_worse = min(sign * v for v in new) > max(sign * v for v in base)
    if all_better and min(len(base), len(new)) > 1:
        return "better", ratio, worsening, spread
    if spread > bound and not (all_worse and worsening > bound):
        return "unresolved", ratio, worsening, spread
    if worsening > bound:
        return "worse", ratio, worsening, spread
    if worsening < 0 and -worsening > spread > 0:
        return "better", ratio, worsening, spread
    return "within", ratio, worsening, spread


def compare(base_doc: dict, new_doc: dict) -> list:
    rows = []
    for workload, base_entry in base_doc["workloads"].items():
        new_entry = new_doc["workloads"].get(workload)
        if new_entry is None:
            continue
        for name, unit, better, bound in END_TO_END:
            base = [run["metrics"][name] for run in base_entry["end_to_end"]]
            new = [run["metrics"][name] for run in new_entry["end_to_end"]]
            rows.append(
                (workload, name, unit, bound, statistics.median(base), len(base), len(new))
                + verdict(base, new, better, bound)
            )
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    base_doc, new_doc = (json.loads(Path(path).read_text()) for path in argv)
    rows = compare(base_doc, new_doc)
    print(f"# base {argv[0]} {json.dumps(base_doc['header'])}")
    print(f"# new  {argv[1]} {json.dumps(new_doc['header'])}")
    for entry in (base_doc, new_doc):
        noisy = [name for name, w in entry["workloads"].items() if w.get("noisy")]
        if noisy:
            print(f"# noisy host during: {', '.join(noisy)}")
    print(
        f"{'workload':26s} {'metric':18s} {'verdict':10s} {'B/A':>7s} "
        f"{'base (A median)':>20s} {'bound':>6s} {'spread':>7s} runs"
    )
    for workload, name, unit, bound, base, n_base, n_new, kind, ratio, _w, spread in rows:
        print(
            f"{workload:26s} {name:18s} {kind:10s} {ratio:7.3f} "
            f"{base:14.6g} {unit:5s} {bound:6.2f} {spread:7.3f} {n_base}/{n_new}"
        )
    counts = {k: sum(1 for r in rows if r[7] == k) for k in ("better", "within", "worse", "unresolved")}
    print(f"# {counts}")
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
