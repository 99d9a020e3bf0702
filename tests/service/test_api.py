"""Tests for the service API dataclasses and the JSON wire codec."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import OnlineHeuristic
from repro.service import (
    DecisionStatus,
    PlaceRequest,
    PlacementDecision,
    ReleaseRequest,
    ReleaseResponse,
    decode_message,
    encode_message,
)
from repro.service.api import allocation_to_placements, decision_from_allocation
from repro.util.errors import ValidationError


class TestPlaceRequest:
    def test_auto_assigns_request_id(self):
        a = PlaceRequest(demand=(1, 0, 2))
        b = PlaceRequest(demand=(1, 0, 2))
        assert a.request_id >= 0
        assert b.request_id > a.request_id

    def test_explicit_request_id_kept(self):
        assert PlaceRequest(demand=(1,), request_id=42).request_id == 42

    def test_rejects_empty_and_negative_demand(self):
        with pytest.raises(ValidationError):
            PlaceRequest(demand=())
        with pytest.raises(ValidationError):
            PlaceRequest(demand=(0, 0))
        with pytest.raises(ValidationError):
            PlaceRequest(demand=(1, -1))

    def test_to_core_round_trip(self):
        request = PlaceRequest(demand=(2, 1, 0), request_id=5, tag="job")
        core = request.to_core()
        assert core.request_id == 5
        assert list(core.demand) == [2, 1, 0]


class TestPlacementDecision:
    def test_invalid_status_rejected(self):
        with pytest.raises(ValidationError):
            PlacementDecision(request_id=1, status="banana")
        with pytest.raises(ValidationError):
            # Release statuses are not placement statuses.
            PlacementDecision(request_id=1, status=DecisionStatus.RELEASED)

    def test_allocation_matrix_densifies(self):
        decision = PlacementDecision(
            request_id=1,
            status=DecisionStatus.PLACED,
            placements=((0, 1, 2), (3, 0, 1)),
        )
        matrix = decision.allocation_matrix(4, 3)
        assert matrix[0, 1] == 2
        assert matrix[3, 0] == 1
        assert matrix.sum() == 3

    def test_from_allocation_preserves_geometry(self, paper_pool):
        allocation = OnlineHeuristic().place(paper_pool, [2, 1, 0]).allocation
        decision = decision_from_allocation(7, allocation, latency=0.25)
        assert decision.placed
        assert decision.center == allocation.center
        assert decision.distance == allocation.distance
        assert decision.latency == 0.25
        dense = decision.allocation_matrix(
            paper_pool.num_nodes, paper_pool.num_types
        )
        assert np.array_equal(dense, allocation.matrix)

    def test_sparse_placements_match_argwhere(self, paper_pool):
        allocation = OnlineHeuristic().place(paper_pool, [1, 1, 1]).allocation
        triples = allocation_to_placements(allocation)
        assert all(count > 0 for _, _, count in triples)
        assert sum(count for _, _, count in triples) == allocation.total_vms

    def test_equal_placements_share_their_triples(self):
        """Retained decisions hold shared triples, not fresh tuples, and are
        slotted; equality, hashing and the public tuple type are unchanged."""
        a = PlacementDecision(
            request_id=1, status=DecisionStatus.PLACED,
            placements=((0, 1, 2), (3, 0, 1)),
        )
        b = PlacementDecision(
            request_id=1, status=DecisionStatus.PLACED,
            placements=[[np.int64(0), 1, 2], (3, 0, np.int64(1))],
        )
        assert a == b and hash(a) == hash(b)
        assert all(x is y for x, y in zip(a.placements, b.placements))
        assert all(type(v) is int for triple in b.placements for v in triple)
        assert not hasattr(a, "__dict__")


def test_importing_the_service_package_leaves_asyncio_out():
    """Only the aio endpoint needs asyncio; ``import repro.service`` (every
    run and every proc worker spawn) must not pay for it, while the
    package attribute still resolves on first use."""
    code = (
        "import sys\n"
        "import repro.service\n"
        "assert 'asyncio' not in sys.modules, 'import repro.service pulled asyncio'\n"
        "from repro.service import AioServiceEndpoint\n"
        "assert AioServiceEndpoint.__module__ == 'repro.service.aio'\n"
    )
    src = str(Path(__file__).resolve().parents[2] / "src")
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


#: What a shard worker child never runs: the simulators and experiments,
#: the exact and job-aware solvers, and the parent's serving machinery.
WORKER_NEVER_LOADS = (
    "repro.mapreduce",
    "repro.experiments",
    "repro.analysis",
    "repro.cloud.simulator",
    "repro.core.placement.ilp",
    "repro.core.placement.annealing",
    "repro.core.placement.jobaware",
    "repro.service.loadgen",
    "repro.service.shard",
    "repro.service.aio",
    "repro.service.proc.backend",
    "asyncio",
)


def test_a_proc_worker_imports_only_what_it_runs():
    """Every proc worker spawn imports the worker entrypoint in a fresh
    interpreter; package re-exports load on first use, so that import pulls
    in the worker's own closure and nothing on this list."""
    code = (
        "import sys\n"
        "import repro.service.proc.worker\n"
        f"print(sorted(set({WORKER_NEVER_LOADS!r}) & set(sys.modules)))\n"
    )
    src = str(Path(__file__).resolve().parents[2] / "src")
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


class TestReleaseResponse:
    def test_status_validation(self):
        ok = ReleaseResponse(request_id=1, status=DecisionStatus.RELEASED)
        assert ok.released
        unknown = ReleaseResponse(
            request_id=1, status=DecisionStatus.UNKNOWN_LEASE
        )
        assert not unknown.released
        with pytest.raises(ValidationError):
            ReleaseResponse(request_id=1, status=DecisionStatus.PLACED)


class TestCodec:
    @pytest.mark.parametrize(
        "message",
        [
            PlaceRequest(demand=(1, 2, 0), request_id=11, priority=3, tag="x"),
            PlacementDecision(
                request_id=11,
                status=DecisionStatus.PLACED,
                placements=((0, 0, 1), (2, 1, 2)),
                center=2,
                distance=4.0,
                latency=0.001,
            ),
            PlacementDecision(
                request_id=12,
                status=DecisionStatus.REJECTED,
                detail="wait queue at capacity",
            ),
            ReleaseRequest(request_id=11),
            ReleaseResponse(
                request_id=11, status=DecisionStatus.RELEASED, freed_vms=3
            ),
        ],
    )
    def test_round_trip(self, message):
        assert decode_message(encode_message(message)) == message

    def test_single_line_output(self):
        line = encode_message(PlaceRequest(demand=(1,), request_id=1))
        assert "\n" not in line

    def test_rejects_garbage(self):
        with pytest.raises(ValidationError):
            decode_message("not json")
        with pytest.raises(ValidationError):
            decode_message("[1,2,3]")
        with pytest.raises(ValidationError):
            decode_message('{"no_kind": true}')

    def test_rejects_unknown_kind_and_fields(self):
        with pytest.raises(ValidationError):
            decode_message('{"kind": "teleport"}')
        with pytest.raises(ValidationError):
            decode_message(
                '{"kind": "release", "request_id": 1, "surprise": 2}'
            )

    def test_rejects_foreign_types(self):
        with pytest.raises(ValidationError):
            encode_message({"kind": "place"})
