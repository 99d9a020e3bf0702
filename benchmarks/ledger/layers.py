"""Per-layer metrics: what the traced pass and the replays measured.

Three sources, all outside ``src/``: the spans and timings the drivers and
``TimedPolicy`` recorded, deltas of the program's own registry counters over
the timed window, and replays — the recorded requests, decisions and final
states pushed once more through one public function at a time (codec,
router, checkpoint, rebalance) with nothing else running.
"""

from __future__ import annotations

import io
import json
import statistics
import time

import numpy as np

from repro.cluster.topocache import TopologyCache
from repro.service import wire
from repro.service.api import PlaceRequest, encode_message
from repro.service.checkpoint import checkpoint_bytes, state_from_checkpoint
from repro.service.codec import resolve_codec
from repro.service.coord import InMemoryCoordinationBackend
from repro.service.shard import ShardRouter

from benchmarks.ledger.drivers import Run
from benchmarks.ledger.gen import RequestStream
from benchmarks.ledger.spec import PER_LAYER
from benchmarks.ledger.targets import Target
from benchmarks.ledger.trace import Trace

#: A placed request whose queue wait exceeded this many seconds was not
#: admitted by the first scheduler step after it arrived (5 batch windows).
WAITED_S = 0.010
_REPLAY_OPS = 300
_PINGS = 200


def mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def _timed(fn, *args) -> float:
    started = time.perf_counter()
    fn(*args)
    return time.perf_counter() - started


def _ratio(num: float, den: float) -> float:
    return float(num / den) if den else 0.0


def replay(target: Target, stream: RequestStream, run: Run) -> dict:
    """Replays on the loaded system, before its leases are released."""
    workload = target.workload
    out: dict = {}
    states = target.states()
    out["topocache.build_ms"] = 1e3 * sum(
        _timed(TopologyCache.build, state.topology, state.distance_model)
        for state in states
    )
    sample = run.placed[:_REPLAY_OPS]
    shards = getattr(target.service, "shards", None) if target.built else None
    if shards is not None and sample:
        router = ShardRouter([shard.state for shard in shards])
        demands = [np.asarray(stream.demand(op.index)) for op in sample]
        started = time.perf_counter()
        for demand in demands:
            router.route(demand)
        out["router.route_us_mean"] = 1e6 * (time.perf_counter() - started) / len(demands)
    if workload.rebalance_interval is not None:
        out["fabric.rebalance_sweep_ms"] = 1e3 * _timed(target.service.rebalance)
    if workload.supervise:
        payloads = []
        encode_s = restore_s = put_s = 0.0
        backend = InMemoryCoordinationBackend()
        for n, state in enumerate(states):
            started = time.perf_counter()
            payload = checkpoint_bytes(state)
            encode_s += time.perf_counter() - started
            payloads.append(payload)
            restore_s += _timed(state_from_checkpoint, json.loads(payload))
            put_s += _timed(backend.put_checkpoint, f"shard-{n}", payload.encode("utf-8"))
        out["checkpoint.encode_ms_mean"] = 1e3 * encode_s / len(states)
        out["checkpoint.restore_ms_mean"] = 1e3 * restore_s / len(states)
        out["checkpoint.bytes_mean"] = mean(len(p) for p in payloads)
        out["coord.put_checkpoint_us_mean"] = 1e6 * put_s / len(states)
    if target.clients and sample:
        out.update(_replay_wire(target, stream, sample))
    return out


def _envelopes(stream: RequestStream, sample: list) -> list:
    """The request and reply envelopes ``ServiceClient.place`` exchanged."""
    docs = []
    for op in sample:
        request = PlaceRequest(
            demand=stream.demand(op.index), request_id=stream.request_id(op.index)
        )
        message = json.loads(encode_message(request))
        message.pop("kind")
        docs.append({"op": "place", "message": message})
        docs.append({"ok": True, "decision": json.loads(encode_message(op.decision))})
    return docs


def _replay_wire(target: Target, stream: RequestStream, sample: list) -> dict:
    workload = target.workload
    out: dict = {}
    client = target.clients[0]
    pings = []
    for _ in range(_PINGS):
        pings.append(_timed(client.ping))
    out["transport.ping_us_p50"] = 1e6 * statistics.median(pings)
    docs = _envelopes(stream, sample)
    codec = resolve_codec(client.codec)
    started = time.perf_counter()
    frames = [codec.encode_op(doc) for doc in docs]
    encode_s = time.perf_counter() - started
    decoder = codec.decoder()
    started = time.perf_counter()
    for frame in frames:
        decoder.feed(frame)
        if decoder.next_op() is None:
            raise AssertionError("codec replay lost a frame")
    decode_s = time.perf_counter() - started
    prefix = f"codec.{client.codec}"
    out[f"{prefix}.encode_us_mean"] = 1e6 * encode_s / len(sample)
    out[f"{prefix}.decode_us_mean"] = 1e6 * decode_s / len(sample)
    out[f"{prefix}.bytes_per_op"] = sum(len(f) for f in frames) / len(sample)
    if workload.workers == "proc":
        # The worker wire's legacy framing, on the submit documents the
        # parent sends one of per admission.
        buffer = io.BytesIO()
        started = time.perf_counter()
        for op in sample:
            wire.write_frame(
                buffer,
                {
                    "op": "submit",
                    "demand": list(stream.demand(op.index)),
                    "request_id": stream.request_id(op.index),
                    "priority": 0,
                    "tag": "",
                    "attempt": op.index,
                },
            )
        buffer.seek(0)
        while wire.read_frame(buffer) is not None:
            pass
        out["wire.frame_us_mean"] = 1e6 * (time.perf_counter() - started) / len(sample)
        handle = target.service.handles[0]
        rpcs = []
        for _ in range(_PINGS):
            rpcs.append(_timed(handle.call, {"op": "ping"}))
        out["proc.ping_rpc_us_p50"] = 1e6 * statistics.median(rpcs)
    return out


def derive(
    target: Target,
    run: Run,
    trace: Trace,
    replayed: dict,
    *,
    calib_ms: float,
    reference_s_per_op: float,
    measured: dict,
) -> dict:
    """The full per-layer table for one traced pass (0 where a layer idles)."""
    workload = target.workload
    out = {name: 0.0 for name, _unit, _better in PER_LAYER}
    out.update(replayed)
    out.update(measured)
    ops = max(1, run.completed)
    placed = run.placed

    def count(name: str) -> float:
        return run.counters.get(name, 0.0)

    # --- Algorithm 1 and its kernels (spans from TimedPolicy / PhaseTimer).
    place_s, places = trace.total("algorithm1.place", run.start)
    sweep_s, _ = trace.total("kernels.sweep", run.start)
    fill_s, _ = trace.total("kernels.fill", run.start)
    if places:
        out["algorithm1.place_ms_mean"] = 1e3 * place_s / places
        out["kernels.sweep_ms_mean"] = 1e3 * (sweep_s - fill_s) / places
        out["kernels.fill_ms_mean"] = 1e3 * fill_s / places
    screened = count("repro_placement_centers_screened_total")
    pruned = count("repro_placement_centers_pruned_total")
    out["kernels.centers_screened_per_op"] = screened / ops
    out["kernels.centers_filled_per_op"] = (
        count("repro_placement_centers_filled_total") / ops
    )
    out["kernels.prune_ratio"] = _ratio(pruned, screened)

    # --- Commit, fabric calls, server queue.
    if workload.kind == "library":
        out["state.commit_us_mean"] = 1e6 * (
            sum(op.commit_s for op in run.ops) + run.release_s
        ) / ops
    elif workload.kind != "wire":
        out["fabric.submit_call_us_mean"] = 1e6 * mean(op.call_s for op in run.ops)
        out["fabric.release_call_us_mean"] = 1e6 * _ratio(run.release_s, run.releases)
        out["fabric.release_retries"] = float(run.release_retries)
    else:
        out["transport.release_rtt_us_mean"] = 1e6 * _ratio(run.release_s, run.releases)
    if workload.kind != "library":
        waits = [op.decision.latency for op in placed]
        out["server.queue_wait_ms_mean"] = 1e3 * mean(waits)
        out["server.waited_share"] = mean(w > WAITED_S for w in waits)
        out["server.batch_size_mean"] = _ratio(
            count("repro_service_batch_requests_sum"),
            count("repro_service_batch_requests_count"),
        )
        out["server.queue_depth_mean"] = mean(run.depth)
    stats = target.service.stats if target.built else None
    out["fabric.spillover_share"] = _ratio(
        getattr(stats, "spillovers", 0), getattr(stats, "submitted", 0)
    )

    # --- Each request's spans against its client-observed latency. The
    # measured children are the submit call, the program's own queue wait
    # and the request's own place; `server.other` is the explicit remainder
    # (batch-mates, transfer, commit, resolve, transport), so the children
    # of a `client.request` span always sum to it.
    covered, other = [], []
    for op in placed:
        rid = RequestStream.request_id(op.index)
        latency = op.end - op.begin
        own = trace.place.get(rid)
        place = own[1] - own[0] if own else 0.0
        if workload.kind == "library":
            call, wait, parts = 0.0, 0.0, place + op.commit_s
            trace.add("state.commit", op.end - op.commit_s, op.end, "client.request", rid)
        else:
            call = op.call_s if workload.kind != "wire" else 0.0
            wait = op.decision.latency
            parts = call + wait + place
            trace.add("fabric.submit_call", op.begin, op.begin + call, "client.request", rid)
            trace.add("server.queue_wait", op.begin + call, op.begin + call + wait, "client.request", rid)
        trace.add("client.request", op.begin, op.end, None, rid)
        trace.add("server.other", op.end - (latency - parts), op.end, "client.request", rid)
        other.append(latency - parts)
        covered.append(_ratio(parts, latency))
    out["server.other_ms_mean"] = 1e3 * mean(other)
    out["trace.span_coverage"] = mean(covered)

    # --- Batch transfers (registry counters + public stats).
    batches = count("repro_service_batch_requests_count")
    attempts = count("repro_transfer_attempts_total")
    out["transfer.attempts_per_batch"] = _ratio(attempts, batches)
    out["transfer.applied_ratio"] = _ratio(
        count("repro_transfer_applied_total"), attempts
    )
    gain = count("repro_transfer_gain_distance_sum")
    placed_dc = sum(op.decision.distance for op in placed)
    out["transfer.gain_dc_share"] = _ratio(gain, gain + placed_dc)

    # --- Supervision, process boundary, set-up pieces, harness health.
    commits = batches + count("repro_service_releases_total")
    out["supervisor.replications_per_commit"] = _ratio(
        count("ledger_replications"), commits
    )
    rpcs = count("repro_proc_rpc_total")
    out["proc.rpc_per_op"] = rpcs / ops
    out["proc.rpc_ms_mean"] = 1e3 * _ratio(
        count("repro_proc_rpc_seconds_sum"),
        count("repro_proc_rpc_seconds_count"),
    )
    out["transport.connect_ms"] = 1e3 * target.connect_s
    out["proc.spawn_s"] = target.spawn_s
    if run.late_s:
        out["driver.late_p99_ms"] = 1e3 * float(np.percentile(run.late_s, 99))
    out["host.calib_ms"] = calib_ms
    out["trace.overhead_share"] = _ratio(run.wall_s / ops, reference_s_per_op) - 1.0
    return out
