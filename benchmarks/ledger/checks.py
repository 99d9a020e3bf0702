"""Output checks: a wrong answer fails the run, however fast it was."""

from __future__ import annotations

import numpy as np

from repro.service.api import ReleaseRequest
from repro.util.errors import ReproError

from benchmarks.ledger.drivers import Run, release
from benchmarks.ledger.gen import RequestStream
from benchmarks.ledger.spec import BY_NAME, PIN_OPS, PINNED_MEAN_DC
from benchmarks.ledger.targets import Target


def check_decisions(target: Target, stream: RequestStream, run: Run) -> list:
    """Every placed decision covers its demand, on real nodes, at the
    distance its placements actually have."""
    problems = []
    dist = target.pool.distance_matrix
    num_nodes = target.pool.num_nodes
    for op in run.ops:
        decision = op.decision
        if decision is None or not decision.placed:
            continue
        demand = stream.demand(op.index)
        got = [0] * len(demand)
        dc = 0.0
        for node, vm_type, count in decision.placements:
            if not 0 <= node < num_nodes or count <= 0:
                problems.append(f"request {op.index}: bad placement {node, vm_type, count}")
                break
            got[vm_type] += count
            dc += count * float(dist[node, decision.center])
        else:
            if tuple(got) != tuple(demand):
                problems.append(
                    f"request {op.index}: placed {tuple(got)} for demand {demand}"
                )
            if abs(dc - decision.distance) > 1e-6 * (1.0 + dc):
                problems.append(
                    f"request {op.index}: distance {decision.distance} but "
                    f"placements give {dc}"
                )
    return problems


def pin_value(run: Run) -> "float | None":
    """``mean_dc`` over the first ``PIN_OPS`` timed placements, if that many."""
    head = run.ops[:PIN_OPS]
    if len(head) < PIN_OPS or any(op.decision is None for op in head):
        return None
    return sum(op.decision.distance for op in head) / PIN_OPS


def check_pin(target: Target, seed: int, run: Run) -> list:
    """``alg1-960``: the first ``PIN_OPS`` timed distances are pinned."""
    workload = target.workload
    pinned = PINNED_MEAN_DC.get((workload.name, seed))
    mean_dc = pin_value(run)
    # A resized copy of the workload (the smoke test) or a window too short
    # to hold PIN_OPS placements has nothing to compare with.
    if pinned is None or mean_dc is None or workload != BY_NAME[workload.name]:
        return []
    if mean_dc != pinned:
        return [f"mean_dc over the first {PIN_OPS} ops is {mean_dc!r}, pinned {pinned!r}"]
    return []


def drain_and_verify(target: Target, run: Run) -> list:
    """Release what is still held, drain, and verify the pool is whole."""
    problems = []
    try:
        for rid in run.held:
            if target.state is not None:
                target.state.release_lease(rid)
            elif target.clients:
                release(run, target.clients[0].release, rid, timed=False)
            else:
                release(
                    run,
                    lambda rid: target.service.release(ReleaseRequest(request_id=rid)),
                    rid,
                    timed=False,
                )
        if run.release_failures:
            problems.append(f"{run.release_failures} lease(s) could not be released")
        if target.state is not None:
            target.state.verify_consistency()
        else:
            dropped = target.service.drain()
            if dropped:
                problems.append(f"{len(dropped)} request(s) still queued at the drain")
            verify = getattr(target.service, "verify_consistency", None)
            if verify is not None:
                verify()
            if target.built.supervisor is not None:
                target.built.supervisor.verify_consistency()
        for state in target.states():
            state.verify_consistency()
            if not np.array_equal(state.remaining, state.max_capacity):
                problems.append("pool did not return to its initial remaining")
    except ReproError as exc:
        problems.append(f"consistency check failed: {exc}")
    return problems
