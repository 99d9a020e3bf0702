"""Tests for the discrete-event queue and leases."""

import pytest

from repro.util.events import EventQueue
from repro.cloud.lease import Lease
from repro.cloud.request import TimedRequest
from repro.core.problem import Allocation, VirtualClusterRequest
from repro.util.errors import ValidationError

import numpy as np


class TestEventQueue:
    def test_time_ordering(self):
        q = EventQueue()
        q.schedule(5.0, "b")
        q.schedule(1.0, "a")
        q.schedule(3.0, "c")
        assert [q.pop().kind for _ in range(3)] == ["a", "c", "b"]

    def test_fifo_tie_break(self):
        q = EventQueue()
        q.schedule(1.0, "first")
        q.schedule(1.0, "second")
        assert q.pop().kind == "first"
        assert q.pop().kind == "second"

    def test_clock_advances(self):
        q = EventQueue()
        q.schedule(2.5, "x")
        assert q.now == 0.0
        q.pop()
        assert q.now == 2.5

    def test_scheduling_in_past_rejected(self):
        q = EventQueue()
        q.schedule(5.0, "x")
        q.pop()
        with pytest.raises(ValidationError):
            q.schedule(4.0, "y")

    def test_schedule_at_now_allowed(self):
        q = EventQueue()
        q.schedule(5.0, "x")
        q.pop()
        q.schedule(5.0, "y")
        assert q.pop().kind == "y"

    def test_pop_empty_rejected(self):
        with pytest.raises(ValidationError):
            EventQueue().pop()

    def test_peek_time(self):
        q = EventQueue()
        q.schedule(7.0, "x")
        assert q.peek_time() == 7.0
        assert len(q) == 1

    def test_peek_empty_rejected(self):
        with pytest.raises(ValidationError):
            EventQueue().peek_time()

    def test_payload_carried(self):
        q = EventQueue()
        q.schedule(1.0, "x", payload={"k": 1})
        assert q.pop().payload == {"k": 1}

    def test_empty_flag(self):
        q = EventQueue()
        assert q.empty
        q.schedule(1.0, "x")
        assert not q.empty


class TestLease:
    def _lease(self, arrival=0.0, start=2.0, duration=5.0):
        req = TimedRequest(
            request=VirtualClusterRequest(demand=[1]),
            arrival_time=arrival,
            duration=duration,
        )
        alloc = Allocation(matrix=np.array([[1]]), center=0, distance=0.0)
        return Lease(request=req, allocation=alloc, start_time=start)

    def test_end_time(self):
        lease = self._lease(start=2.0, duration=5.0)
        assert lease.end_time == 7.0

    def test_wait_time(self):
        lease = self._lease(arrival=1.0, start=2.5)
        assert lease.wait_time == 1.5

    def test_start_before_arrival_rejected(self):
        with pytest.raises(ValidationError):
            self._lease(arrival=5.0, start=2.0)
