"""Out-of-process shard workers: one spawned child per shard, one wire.

The package splits along the process boundary:

* :mod:`repro.service.proc.worker` — the child entrypoint
  (:func:`~repro.service.proc.worker.worker_main`): runs one shard's
  :class:`~repro.service.server.PlacementService` and answers the parent's
  RPCs from one op table over :class:`repro.service.wire.Channel` links;
* :mod:`repro.service.proc.backend` — the parent side:
  :class:`~repro.service.proc.backend.ProcBackend`, the
  :class:`~repro.service.shard.backend.ShardBackend` that reaches the child
  (process handle, mirror state replayed from the child's journal records,
  respawn-from-checkpoint), and :class:`~repro.service.proc.backend.
  ProcWorkerProxy`, what the supervisor watches of it.

The fabric and the supervisor are the ordinary ones, running over this
backend; ``build_fabric(workers="proc")`` assembles them.
"""

from repro.util.lazy import lazy_exports as _lazy_exports

__all__ = [
    "ProcBackend",
    "ProcWorkerHandle",
    "ProcWorkerProxy",
    "proc_backend_factory",
    "worker_main",
]


_EXPORTS = {
    "repro.service.proc.backend": (
        "ProcBackend", "ProcWorkerHandle", "ProcWorkerProxy",
        "proc_backend_factory",
    ),
    "repro.service.proc.worker": ("worker_main",),
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
