"""Speed and byte identity of the binary codec against its oracle.

The binary codec (:mod:`repro.service.codec`) was rewritten for speed; its
first, straightforward ``pack``/``unpack`` live on as the test oracle
(``tests/service/codec_oracle.py``). For the four envelopes one placement on
a proc fabric behind the asyncio transport sends through the codec (the
client's ``place`` request, the fabric's ``submit`` command to a worker, the
worker's ``poll`` reply carrying the decision and the journal ``delta``, and
the client's ``decision`` reply), prints the best-of-7 microseconds to
encode a frame and to decode it, for the oracle and for the shipped codec::

    PYTHONPATH=src:. python benchmarks/codec_speed.py

``--check`` times nothing: it checks that the shipped codec packs every
document of a seeded corpus and every golden frame to the oracle's bytes,
and that it decodes each payload, each of its prefixes and each of its
one-byte mutations to the oracle's value or the oracle's error (type and
message). It prints one summary line and exits 1 on the first mismatch.
"""

from __future__ import annotations

import argparse
import sys
import timeit

from repro.cluster import PoolSpec, VMTypeCatalog, random_pool
from repro.service.api import PlaceRequest, message_to_doc
from repro.service.checkpoint import delta_bytes
from repro.service.codec import BinaryCodec, pack, unpack
from repro.service.server import PlacementService
from repro.service.state import ClusterState
from tests.service import codec_oracle as oracle

REPEATS = 7
NUMBER = 2000


def envelopes() -> dict:
    """The four envelopes of one placement, from a real step of a
    240-node service (the ``wire-proc-240x2`` pool shape)."""
    pool = random_pool(
        PoolSpec(racks=8, nodes_per_rack=15, clouds=2, capacity_low=1, capacity_high=3),
        VMTypeCatalog.ec2_default(),
        seed=41,
    )
    service = PlacementService(ClusterState.from_pool(pool))
    journal = service.state.subscribe()
    since = service.state.version
    request = PlaceRequest(demand=(2, 1, 0), request_id=100_017)
    ticket = service.submit(request)
    service.step()
    decision = message_to_doc(ticket.result(0))
    place = message_to_doc(request)
    place.pop("kind")
    return {
        "place request": {"op": "place", "message": place},
        "submit command": {
            "op": "submit",
            "request": message_to_doc(request),
            "attempt": 3_117,
            "waited": 0.000173,
        },
        "poll reply": {
            "ok": True,
            "events": [{"decision": decision, "attempt": 3_117}],
            "since": since,
            "version": service.state.version,
            "delta": delta_bytes(journal, since, service.state.version),
        },
        "decision reply": {"ok": True, "decision": decision},
    }


def best_us(call) -> float:
    return min(timeit.repeat(call, number=NUMBER, repeat=REPEATS)) / NUMBER * 1e6


def speed() -> None:
    print(f"{'envelope':<16}{'bytes':>7}  {'encode µs':>22}  {'decode µs':>22}")
    print(f"{'':<16}{'':>7}  {'oracle':>7} {'codec':>7} {'ratio':>6}"
          f"  {'oracle':>7} {'codec':>7} {'ratio':>6}")
    for name, doc in envelopes().items():
        payload = pack(doc)
        if payload != oracle.pack(doc):
            raise SystemExit(f"{name}: the codec's bytes differ from the oracle's")
        enc = (best_us(lambda: oracle.pack(doc)), best_us(lambda: pack(doc)))
        dec = (
            best_us(lambda: oracle.unpack(payload)), best_us(lambda: unpack(payload))
        )
        print(
            f"{name:<16}{len(payload):>7}  {enc[0]:>7.2f} {enc[1]:>7.2f} "
            f"{enc[1] / enc[0]:>6.2f}  {dec[0]:>7.2f} {dec[1]:>7.2f} "
            f"{dec[1] / dec[0]:>6.2f}"
        )


def check(seed: int, count: int) -> int:
    codec = BinaryCodec()
    docs = [value for value, _ in oracle.GOLDEN_FRAMES.values()]
    docs += list(envelopes().values())
    docs += oracle.corpus(seed, count)
    for name, (value, frame) in oracle.GOLDEN_FRAMES.items():
        if codec.encode_op(value).hex() != frame:
            print(f"golden frame {name!r}: the codec's bytes differ")
            return 1
    payloads = 0
    for doc in docs:
        payload = oracle.pack(doc)
        if pack(doc) != payload:
            print(f"pack differs from the oracle on {doc!r}")
            return 1
        variants = [payload[:cut] for cut in range(len(payload))]
        variants += [
            payload[:at] + bytes([payload[at] ^ flip]) + payload[at + 1:]
            for at in range(len(payload))
            for flip in (0x01, 0x80, 0xFF)
        ]
        for variant in [payload, *variants]:
            got = oracle.outcome(unpack, variant)
            if got != oracle.outcome(oracle.unpack, variant):
                print(f"unpack differs from the oracle on {variant.hex()}")
                return 1
        payloads += 1 + len(variants)
    print(
        f"byte-identical: {len(docs)} documents "
        f"({len(oracle.GOLDEN_FRAMES)} golden frames), "
        f"{payloads} payloads decoded alike"
    )
    return 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="check byte identity with the oracle instead of timing",
    )
    parser.add_argument("--seed", type=int, default=38)
    parser.add_argument("--count", type=int, default=400)
    args = parser.parse_args()
    if args.check:
        sys.exit(check(args.seed, args.count))
    speed()


if __name__ == "__main__":
    main()
