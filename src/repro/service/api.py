"""Typed service API: requests, decisions, and their one message codec.

The service speaks four message kinds — ``place``, ``decision``, ``release``,
``release_response`` — each a frozen dataclass. :func:`message_to_doc` /
:func:`message_from_doc` turn one into a JSON-shaped document and back;
every hop (serving endpoints, client, worker link) carries that document,
and :func:`encode_message`/:func:`decode_message` are its one-line JSON
form. Allocations travel as sparse ``[node, type, count]`` triples so wire
size scales with the cluster's footprint, not the pool's node count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from repro.core.problem import Allocation, VirtualClusterRequest
from repro.core.reliability import SurvivabilityTarget
from repro.util.errors import ValidationError


class DecisionStatus:
    """Terminal outcomes a submitted request can reach."""

    #: Allocation committed; the decision carries the placement.
    PLACED = "placed"
    #: Demand exceeds the pool's *maximum* capacity — can never be served.
    REFUSED = "refused"
    #: Admission control shed the request (wait queue at capacity).
    REJECTED = "rejected"
    #: The request waited longer than the configured ``max_wait``.
    TIMEOUT = "timeout"
    #: The service drained/shut down before the request could be placed.
    DROPPED = "dropped"
    #: The caller withdrew the request before it was placed.
    CANCELLED = "cancelled"
    #: The owning shard worker is down and no surviving shard could take
    #: over (fabric failover exhausted the spillover path). Transient: the
    #: supervisor restores the shard and the caller may retry.
    SHARD_UNAVAILABLE = "shard_unavailable"
    #: Release outcomes.
    RELEASED = "released"
    UNKNOWN_LEASE = "unknown_lease"

    TERMINAL_PLACE = (
        PLACED, REFUSED, REJECTED, TIMEOUT, DROPPED, CANCELLED, SHARD_UNAVAILABLE
    )


@dataclass(frozen=True)
class PlaceRequest:
    """A placement request as it arrives on the wire.

    ``request_id`` is auto-assigned (via the core request counter) when
    negative, mirroring :class:`~repro.core.problem.VirtualClusterRequest`.

    ``survivability`` optionally carries a
    :class:`~repro.core.reliability.SurvivabilityTarget` (its ``to_dict``
    form on the wire); admission validates it (impossible targets are
    refused, never weakened) and the placed decision reports the achieved
    survivability.
    """

    demand: tuple[int, ...]
    request_id: int = -1
    priority: int = 0
    tag: str = ""
    survivability: "SurvivabilityTarget | dict | None" = None

    def __post_init__(self) -> None:
        demand = tuple(int(d) for d in self.demand)
        if not demand or any(d < 0 for d in demand) or sum(demand) == 0:
            raise ValidationError(
                f"demand must be non-negative with at least one VM, got {demand}"
            )
        object.__setattr__(self, "demand", demand)
        if isinstance(self.survivability, dict):
            object.__setattr__(
                self,
                "survivability",
                SurvivabilityTarget.from_dict(self.survivability),
            )
        elif not (
            self.survivability is None
            or isinstance(self.survivability, SurvivabilityTarget)
        ):
            raise ValidationError(
                "survivability must be a SurvivabilityTarget, a dict, or "
                f"None; got {type(self.survivability).__name__}"
            )
        if self.request_id < 0:
            core = VirtualClusterRequest(demand=list(demand), tag=self.tag)
            object.__setattr__(self, "request_id", core.request_id)

    def to_core(self) -> VirtualClusterRequest:
        """The core request object placement algorithms consume."""
        return VirtualClusterRequest(
            demand=list(self.demand),
            request_id=self.request_id,
            tag=self.tag,
            survivability=self.survivability,
        )


#: Shared ``(node, type, count)`` triples, so a retained decision holds
#: pointers rather than fresh tuples. A pool has at most nodes × types ×
#: capacity distinct ones; the table is dropped whole past this size, which
#: keeps it bounded whatever pools a process serves. Sharing only saves
#: memory — values and equality never depend on it — so a race between
#: threads costs at most one unshared tuple and needs no lock.
_TRIPLE_LIMIT = 1 << 16
_triples: "dict[tuple[int, int, int], tuple[int, int, int]]" = {}


def _shared_triple(node, vm_type, count) -> "tuple[int, int, int]":
    if len(_triples) >= _TRIPLE_LIMIT:
        _triples.clear()
    triple = (int(node), int(vm_type), int(count))
    return _triples.setdefault(triple, triple)


@dataclass(frozen=True, slots=True)
class PlacementDecision:
    """The service's verdict on one :class:`PlaceRequest`.

    ``placements`` is the sparse allocation — ``(node, vm_type, count)``
    triples — present only for :data:`DecisionStatus.PLACED`. ``latency`` is
    the submit-to-decision time in seconds as measured by the service.
    ``survivability``, present only when the request carried a target, is
    the achieved-survivability report
    (:func:`repro.core.reliability.achieved_survivability`): the effective
    ``k``, domain cap, realized spread, and — when an MTBF/MTTR model was
    given — the promised availability of the committed placement.
    """

    request_id: int
    status: str
    placements: tuple[tuple[int, int, int], ...] = ()
    center: int = -1
    distance: float = 0.0
    latency: float = 0.0
    detail: str = ""
    survivability: "dict | None" = None

    def __post_init__(self) -> None:
        if self.status not in DecisionStatus.TERMINAL_PLACE:
            raise ValidationError(f"invalid decision status {self.status!r}")
        placements = tuple(
            _shared_triple(n, t, c) for n, t, c in self.placements
        )
        object.__setattr__(self, "placements", placements)

    @property
    def placed(self) -> bool:
        return self.status == DecisionStatus.PLACED

    def allocation_matrix(self, num_nodes: int, num_types: int) -> np.ndarray:
        """Densify the sparse placement into an ``n × m`` matrix."""
        matrix = np.zeros((num_nodes, num_types), dtype=np.int64)
        for node, vm_type, count in self.placements:
            matrix[node, vm_type] += count
        return matrix


@dataclass(frozen=True)
class ReleaseRequest:
    """Ask the service to free the lease held by ``request_id``."""

    request_id: int


@dataclass(frozen=True)
class ReleaseResponse:
    """Outcome of a release: ``released`` or ``unknown_lease``."""

    request_id: int
    status: str
    freed_vms: int = 0

    def __post_init__(self) -> None:
        if self.status not in (
            DecisionStatus.RELEASED,
            DecisionStatus.UNKNOWN_LEASE,
            DecisionStatus.SHARD_UNAVAILABLE,
        ):
            raise ValidationError(f"invalid release status {self.status!r}")

    @property
    def released(self) -> bool:
        return self.status == DecisionStatus.RELEASED


# ------------------------------------------------------------------- codec

def allocation_to_placements(allocation: Allocation) -> tuple[tuple[int, int, int], ...]:
    """Sparse ``(node, type, count)`` triples for an allocation matrix,
    row-major, read off its touched rows (:attr:`Allocation.rows`)."""
    rows = allocation.rows
    block = allocation.matrix[rows]
    r, j = np.nonzero(block)
    return tuple(zip(rows[r].tolist(), j.tolist(), block[r, j].tolist()))


def decision_from_allocation(
    request_id: int,
    allocation: Allocation,
    *,
    latency: float = 0.0,
    survivability: "dict | None" = None,
) -> PlacementDecision:
    """Build a ``placed`` decision from a committed allocation."""
    return PlacementDecision(
        request_id=request_id,
        status=DecisionStatus.PLACED,
        placements=allocation_to_placements(allocation),
        center=allocation.center,
        distance=allocation.distance,
        latency=latency,
        survivability=survivability,
    )


_KINDS = {
    "place": PlaceRequest,
    "decision": PlacementDecision,
    "release": ReleaseRequest,
    "release_response": ReleaseResponse,
}
_KIND_OF = {cls: kind for kind, cls in _KINDS.items()}


def message_to_doc(message) -> dict:
    """One API dataclass as a JSON-shaped document tagged with its ``kind``:
    what serving envelopes, the worker link and the line codec all carry."""
    kind = _KIND_OF.get(type(message))
    if kind is None:
        raise ValidationError(f"cannot encode {type(message).__name__} messages")
    doc = {"kind": kind}
    for name in message.__dataclass_fields__:
        value = getattr(message, name)
        if value is None:
            # Optional fields (today: survivability) ride the wire only when
            # set — a peer that predates them sees byte-identical messages.
            continue
        if isinstance(value, SurvivabilityTarget):
            value = value.to_dict()
        elif isinstance(value, tuple):
            value = [list(v) if isinstance(v, tuple) else v for v in value]
        doc[name] = value
    return doc


def message_from_doc(doc, kind: "str | None" = None):
    """Rebuild the dataclass a :func:`message_to_doc` document describes.

    *kind* names what the caller expects where the document travels untagged
    (a serving envelope's ``"message"``) and overrides any tag it carries.
    Whatever is wrong with a received document — shape, unknown or missing
    field, a value of the wrong type — is a ``ValidationError``.
    """
    if not isinstance(doc, dict) or (kind is None and "kind" not in doc):
        raise ValidationError("service message must be an object with a 'kind'")
    doc = dict(doc)
    tag = doc.pop("kind", None)
    kind = tag if kind is None else kind
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValidationError(f"unknown message kind {kind!r}")
    unknown = set(doc) - set(cls.__dataclass_fields__)
    if unknown:
        raise ValidationError(f"unknown fields for {kind!r}: {sorted(unknown)}")
    try:
        return cls(**doc)  # each dataclass normalizes its own fields
    except ValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"invalid {kind!r} message: {exc}") from exc


def encode_message(message) -> str:
    """Serialize one API dataclass to a single-line JSON string."""
    return json.dumps(message_to_doc(message), separators=(",", ":"))


def decode_message(line: str):
    """Parse a line produced by :func:`encode_message` back to its dataclass."""
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"not a valid service message: {exc}") from exc
    return message_from_doc(doc)
