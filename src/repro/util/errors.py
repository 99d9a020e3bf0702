"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while the
subclasses keep failure modes distinguishable:

* :class:`ValidationError` — malformed inputs (bad shapes, negative counts).
* :class:`CapacityError` — an allocate/release would violate pool capacity.
* :class:`InfeasibleRequestError` — a request exceeds the pool's *maximum*
  capacity and can never be served (the paper's "refused" outcome).
* :class:`SolverError` — an exact solver backend failed or returned an
  unexpected status.
* :class:`TransportError` / :class:`TransportTimeout` — a service transport
  operation failed or exceeded its per-op socket timeout;
  :class:`RemoteOpError` — the peer on an internal link rejected one op over
  a link that still works.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ValidationError(ReproError, ValueError):
    """An input value failed structural validation (shape, sign, dtype)."""


class CapacityError(ReproError):
    """An allocation or release would violate resource-pool invariants."""


class InfeasibleRequestError(ReproError):
    """The request exceeds the maximum capacity of the pool (paper: refuse)."""


class SolverError(ReproError):
    """An exact optimization backend failed to produce a usable solution."""


class TransportError(ReproError):
    """A service transport operation failed below the protocol layer
    (connection refused/reset, server closed the stream mid-exchange)."""


class TransportTimeout(TransportError):
    """A service transport operation exceeded its per-op socket timeout.

    Distinguishable from :class:`TransportError` so clients can treat a
    timeout as *unknown outcome* (the server may still have acted on the
    request) rather than a definite failure."""


class RemoteOpError(TransportError):
    """The peer on an internal link (:class:`repro.service.wire.Channel`)
    answered one op with a typed error reply.

    A :class:`TransportError` so callers that only care whether the call
    worked keep one ``except`` clause; its own class because the link it
    arrived on is healthy — nothing to redial, no worker to declare dead."""


class JobFailedError(ReproError):
    """A simulated MapReduce job could not complete under injected faults
    (a task exhausted its attempt budget, or recovery ran out of healthy
    VMs/replicas)."""
