"""Smoke test: every workload at ~1/50 size, in a few seconds.

``pytest benchmarks/ledger`` — not part of the tier-1 suite (``testpaths``
is ``tests``). Checks that each driver runs, every declared metric comes
back, the output checks pass, and ``BENCHMARK.json`` says what ``spec.py``
says.
"""

import dataclasses
import json
from pathlib import Path

import pytest

import benchmarks.ledger.__main__  # noqa: F401 - puts src/ on sys.path
from benchmarks.ledger import compare, host, measure, spec

ROOT = Path(__file__).resolve().parents[2]


def shrink(workload: spec.Workload) -> spec.Workload:
    """The same topology and traffic shape on a 60-node pool, 1/50 the ops."""
    return dataclasses.replace(
        workload,
        racks_per_cloud=2,
        shards=2 if workload.shards else None,
        hold_decisions=max(2, workload.hold_decisions // 50),
        hold_arrivals=64 if workload.kind == "open" else 0,
        warmup_requests=80 if workload.kind == "open" else 0,
    )


@pytest.mark.parametrize("workload", spec.WORKLOADS, ids=lambda w: w.name)
def test_end_to_end_pass(workload, monkeypatch):
    monkeypatch.setattr(measure, "SETUP_REPEATS", 2)
    monkeypatch.setattr(measure, "SETUP_BUDGET_S", 0.0)
    result = measure.end_to_end(shrink(workload), spec.DEFAULT_SEED, 0.2)
    assert result["problems"] == []
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, *_ in spec.END_TO_END}
    assert all(value > 0 for value in result["metrics"].values())


@pytest.mark.parametrize(
    "name", ["alg1-960", "fabric-supervised-480x4", "wire-proc-240x2"]
)
def test_traced_pass(name, tmp_path):
    spans = tmp_path / "spans.jsonl"
    result = measure.per_layer(
        shrink(spec.BY_NAME[name]), spec.HELD_OUT_SEED, 0.4, str(spans)
    )
    assert result["problems"] == []
    assert set(result["metrics"]) == {name for name, *_ in spec.PER_LAYER}
    first = json.loads(spans.read_text().splitlines()[0])
    assert set(first) == {"name", "start", "end", "parent", "request_id"}


def test_run_leaves_no_process_behind():
    # The proc workload spawns workers, and with the first of them
    # multiprocessing's resource tracker, which lives until it is stopped.
    result = measure.end_to_end(
        shrink(spec.BY_NAME["wire-proc-240x2"]), spec.DEFAULT_SEED, 0.2
    )
    assert result["problems"] == []
    assert host._child_pids() != []
    assert host.stop_children() == 0
    assert host._child_pids() == []


def test_benchmark_json_matches_spec():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert doc["paths"] == ["benchmarks/ledger"]
    assert doc["run_seconds"] == spec.RUN_SECONDS
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in spec.WORKLOADS
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]
    ] == list(spec.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in doc["per_layer"]
    ] == list(spec.PER_LAYER)
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5]
    assert compare.verdict(base, [130.0, 131.0, 129.0, 130.0], "lower", 0.1)[0] == "worse"
    assert compare.verdict(base, [80.0, 81.0, 79.0, 80.0], "lower", 0.1)[0] == "better"
    assert compare.verdict(base, [101.0, 100.0, 99.5, 100.2], "lower", 0.1)[0] == "within"
    assert compare.verdict([100.0, 60.0, 140.0, 100.0], [105.0, 70.0, 150.0, 98.0], "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(base, [80.0, 81.0, 79.0, 80.0], "higher", 0.1)[0] == "worse"
