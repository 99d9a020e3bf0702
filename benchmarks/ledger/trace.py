"""Spans recorded from the benchmark's side of each public call.

Nothing here reaches into ``src/``: the placement policy is wrapped through
the public ``policy=`` / ``policy_factory=`` arguments, Algorithm 1's phases
arrive through the public ``PhaseTimer.observer`` hook, and the drivers add
the client-side spans themselves. The end-to-end pass installs none of it.
"""

from __future__ import annotations

import json
import time

from repro.core import OnlineHeuristic
from repro.util.timing import PhaseTimer

#: PhaseTimer phase → layer-qualified span name.
_PHASE_SPANS = {
    "step": "server.step",
    "transfer": "transfer.batch",
    "admission": "algorithm1.admission",
    "center_sweep": "kernels.sweep",
    "fill": "kernels.fill",
}


class Trace:
    """In-memory span sink: ``(name, start, end, parent, request_id)``.

    ``place`` keeps each request's own ``PlacementAlgorithm.place`` interval
    so the drivers can split a request's latency without scanning spans.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.place: dict[int, tuple[float, float]] = {}

    def add(self, name, start, end, parent=None, request_id=None) -> None:
        self.spans.append((name, start, end, parent, request_id))

    def total(self, name: str, since: float) -> tuple[float, int]:
        """Summed duration and count of *name* spans starting after *since*."""
        durations = [e - s for n, s, e, _p, _r in self.spans if n == name and s >= since]
        return sum(durations), len(durations)

    def write(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "request_id")
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


class TimedPolicy:
    """Timing proxy around one ``PlacementAlgorithm`` (one per service).

    Exposes the inner policy's ``timer`` so ``PlacementService`` nests its
    ``step`` / ``transfer`` phases in the same tree, and stamps every phase
    that closes inside a ``place`` call with that call's request id.
    """

    def __init__(self, trace: Trace, inner=None) -> None:
        self.inner = inner or OnlineHeuristic(timer=PhaseTimer(enabled=True))
        self.trace = trace
        self.timer = self.inner.timer
        self.timer.enabled = True
        self.timer.observer = self._phase
        self._request_id = None

    def place(self, pool, request, *, rng=None, obs=None):
        self._request_id = request_id = getattr(request, "request_id", None)
        started = time.perf_counter()
        try:
            return self.inner.place(pool, request, rng=rng, obs=obs)
        finally:
            ended = time.perf_counter()
            self._request_id = None
            self.trace.place[request_id] = (started, ended)
            self.trace.add(
                "algorithm1.place", started, ended, "server.step", request_id
            )

    def _phase(self, name, start, duration, parent) -> None:
        self.trace.add(
            _PHASE_SPANS.get(name, name),
            start,
            start + duration,
            _PHASE_SPANS.get(parent, parent),
            self._request_id,
        )

    def __getattr__(self, name):
        return getattr(self.inner, name)
