"""Checkpoint/restore of allocator state (JSON, byte-identical round trip).

A restarted placement service must resume with *identical* allocations —
Reliable-VM-placement style recovery — so the checkpoint captures everything
:class:`~repro.service.state.ClusterState` owns: the catalog, the pool layout
and distance model, the allocated matrix ``C``, the state version, and the
full lease ledger (sparse placements plus each lease's center/distance).

The format is deterministic: keys are emitted in a fixed order, leases are
sorted by request id, and floats round-trip exactly through ``repr`` — so
``checkpoint → restore → checkpoint`` reproduces the original file byte for
byte (property-tested).

Format (version 1)::

    {
      "version": 1,
      "state_version": <int>,
      "catalog": [...],                      # repro.cloud.traces format
      "pool": {"nodes": [...], "distance_model": {...}},
      "allocated": [[...], ...],             # the full C matrix
      "leases": [{"request_id": ..., "center": ..., "distance": ...,
                  "placements": [[node, type, count], ...],
                  "survivability": {...}},            # only when targeted
                 ...]
    }

A lease's ``survivability`` key is present only when the lease carries a
:class:`~repro.core.reliability.SurvivabilityTarget` — checkpoints of
target-free states are byte-identical to the pre-reliability format.

Write-ahead replication ships *deltas* between snapshots: :func:`delta_bytes`
encodes journal records as a JSON list of lease entries in exactly the form
above plus an ``"op"`` tag (``"allocate"``, or ``"release"`` with only the
``request_id``); :func:`replay` applies logged deltas to a restored snapshot.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.cloud.traces import (
    catalog_from_dict,
    catalog_to_dict,
    pool_from_dict,
    pool_to_dict,
)
from repro.core.problem import Allocation
from repro.core.reliability import SurvivabilityTarget
from repro.service.state import ClusterState
from repro.util.errors import ValidationError

CHECKPOINT_VERSION = 1


def lease_entry(request_id: int, allocation: Allocation, target=None) -> dict:
    """One lease in checkpoint form (also the body of an ``allocate`` delta)."""
    rows = allocation.rows
    block = allocation.matrix[rows]
    r, j = np.nonzero(block > 0)
    entry = {
        "request_id": int(request_id),
        "center": int(allocation.center),
        "distance": float(allocation.distance),
        "placements": [
            list(p) for p in zip(rows[r].tolist(), j.tolist(), block[r, j].tolist())
        ],
    }
    if target is not None:
        entry["survivability"] = target.to_dict()
    return entry


def lease_from_entry(entry: dict, shape: "tuple[int, int]"):
    """Inverse of :func:`lease_entry`: ``(allocation, target or None)``.

    Each placement is checked as it is written (node and type in range,
    count positive), so the matrix is built once and its touched rows come
    with it."""
    nodes, types = shape
    matrix = np.zeros(shape, dtype=np.int64)
    touched = set()
    for node, vm_type, count in entry["placements"]:
        if not (0 <= node < nodes and 0 <= vm_type < types and count > 0):
            raise ValidationError(
                f"lease {entry['request_id']} placement {[node, vm_type, count]} "
                f"is out of range for {nodes} nodes x {types} types"
            )
        matrix[node, vm_type] += count
        touched.add(node)
    rows = np.array(sorted(touched), dtype=np.int64)
    target = entry.get("survivability")
    return (
        Allocation.from_rows(matrix, rows, entry["center"], entry["distance"]),
        None if target is None else SurvivabilityTarget.from_dict(target),
    )


def checkpoint_to_dict(state: ClusterState) -> dict:
    """Serialize *state* to a JSON-ready document."""
    leases = state.leases
    return {
        "version": CHECKPOINT_VERSION,
        "state_version": state.version,
        "catalog": catalog_to_dict(state.catalog),
        "pool": pool_to_dict(state),
        "allocated": state.allocated.tolist(),
        "leases": [
            lease_entry(rid, leases[rid], state.lease_target(rid))
            for rid in sorted(leases)
        ],
    }


def state_from_checkpoint(doc: dict) -> ClusterState:
    """Rebuild a :class:`ClusterState` from :func:`checkpoint_to_dict` output."""
    version = doc.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValidationError(
            f"unsupported checkpoint version {version!r}; "
            f"expected {CHECKPOINT_VERSION}"
        )
    catalog = catalog_from_dict(doc["catalog"])
    pool = pool_from_dict(doc["pool"], catalog)
    allocated = np.asarray(doc["allocated"], dtype=np.int64)
    state = ClusterState(
        pool.topology,
        catalog,
        distance_model=pool.distance_model,
        allocated=allocated,
    )
    shape = (state.num_nodes, state.num_types)
    for entry in doc["leases"]:
        allocation, target = lease_from_entry(entry, shape)
        state.adopt_lease(entry["request_id"], allocation, survivability=target)
    state.verify_consistency()
    state._version = int(doc["state_version"])
    return state


def delta_bytes(records, since: int, version: int) -> "bytes | None":
    """Journal *records* taking a state from version *since* to *version*,
    encoded as one delta — or ``None`` when they do not do so contiguously
    (records missing, or a non-ledger mutation among them)."""
    if [r.version for r in records] != list(range(since + 1, version + 1)):
        return None
    if any(r.request_id is None for r in records):
        return None
    return json.dumps([
        {"op": "release", "request_id": int(r.request_id)}
        if r.allocation is None
        else {"op": "allocate", **lease_entry(r.request_id, r.allocation, r.target)}
        for r in records
    ]).encode("utf-8")


def replay(state: ClusterState, log) -> ClusterState:
    """Apply logged deltas (oldest first) to *state*, restored from the
    snapshot they follow. A delta logged at version ``v`` with ``k`` ops
    covers ``v-k+1 … v``: ops the state already reflects (an append re-sent
    after a lost reply) are skipped — a delta the state holds entirely
    without being parsed — and a gap is refused."""
    shape = (state.num_nodes, state.num_types)
    for entry in log:
        if entry.version <= state.version:
            continue
        ops = json.loads(entry.record)
        first = entry.version - len(ops) + 1
        if first > state.version + 1:
            raise ValidationError(
                f"replication log skips from version {state.version} to {first}"
            )
        for op in ops[state.version + 1 - first :]:
            if op["op"] == "release":
                state.release_lease(op["request_id"])
            else:
                allocation, target = lease_from_entry(op, shape)
                state.allocate_lease(op["request_id"], allocation, survivability=target)
    return state


def checkpoint_bytes(state: ClusterState) -> str:
    """The canonical serialized form (what :func:`save_checkpoint` writes)."""
    return json.dumps(checkpoint_to_dict(state), indent=1)


def save_checkpoint(path: "str | Path", state: ClusterState) -> None:
    """Write *state*'s checkpoint to *path*."""
    Path(path).write_text(checkpoint_bytes(state))


def load_checkpoint(path: "str | Path") -> ClusterState:
    """Read a checkpoint written by :func:`save_checkpoint`."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"not a valid checkpoint file: {exc}") from exc
    return state_from_checkpoint(doc)
