"""Chaos injection for the supervised fabric: worker kills, delays, faults.

:class:`FabricChaosInjector` drives three failure modes against a
:class:`~repro.service.supervisor.FabricSupervisor`, all drawn from one
seeded RNG so a chaos run replays exactly:

* **worker kills** — the kill schedule is drawn by the cloud layer's
  :class:`~repro.cloud.failures.FailureInjector` (PR 1's renewal MTBF/MTTR
  machinery, pointed at *workers* instead of nodes): each worker alternates
  exponential up-times and repair times, or fails at most once in one-shot
  mode. A due kill calls :meth:`~repro.service.supervisor.ShardWorker.kill`
  — the worker fences like a crashed process — and the event's
  ``recover_time`` gates the supervisor's restore (MTTR: the replacement
  "process" takes that long to come up).
* **heartbeat delays** — with ``heartbeat_delay_probability`` per advance
  per live worker, beats are suppressed for ``heartbeat_delay`` seconds,
  modeling GC pauses and partitions on the control path. Delays shorter
  than the supervisor's heartbeat TTL are absorbed; longer ones escalate
  into a (spurious but safe) failover.
* **checkpoint write faults** — with ``checkpoint_fault_probability`` per
  replication attempt, the write to the backend raises. The worker keeps
  its previous replicated version, so the next commit retries and the
  backend never holds a torn copy; recovery simply restores a slightly
  older — still internally consistent — ledger.

Drive it manually (``advance(now)`` between trace steps) for deterministic
tests, with the supervisor's ``monitor(now)`` interleaved by the caller.

The injector drives whatever worker objects the supervisor holds: over
out-of-process shards a due kill delivers a **real SIGKILL** to the shard's
child process (via
:meth:`~repro.service.proc.backend.ProcWorkerProxy.kill`) and recovery
is an actual respawn-from-replicated-checkpoint. The heartbeat-delay and
checkpoint-fault knobs are in-process-only (the parent cannot reach into a
child's heartbeat loop) — leave them at zero for proc workers.
"""

from __future__ import annotations

import logging

from repro.cloud.failures import FailureEvent, FailureInjector
from repro.util.errors import ValidationError
from repro.util.rng import ensure_rng

_log = logging.getLogger(__name__)


class FabricChaosInjector:
    """Deterministic chaos schedule over a supervised fabric's workers.

    Parameters
    ----------
    supervisor:
        The :class:`~repro.service.supervisor.FabricSupervisor` whose
        workers are the blast radius. The injector installs itself as the
        supervisor's ``restore_gate`` so kills honor their drawn repair
        times.
    mtbf / mean_repair_time / failure_probability / horizon:
        Forwarded to :class:`~repro.cloud.failures.FailureInjector` —
        ``mtbf=None`` selects the one-shot regime (each worker dies at most
        once inside the horizon with ``failure_probability``).
    heartbeat_delay_probability / heartbeat_delay:
        Per-advance, per-live-worker chance of suppressing beats, and for
        how long.
    checkpoint_fault_probability:
        Per-attempt chance that a checkpoint replication write raises.
    seed:
        Seeds both the kill schedule and the delay/fault draws.
    """

    def __init__(
        self,
        supervisor,
        *,
        mtbf: "float | None" = None,
        mean_repair_time: float = 2.0,
        failure_probability: float = 0.5,
        horizon: float = 10.0,
        heartbeat_delay_probability: float = 0.0,
        heartbeat_delay: float = 0.5,
        checkpoint_fault_probability: float = 0.0,
        seed=None,
    ) -> None:
        if not (0.0 <= heartbeat_delay_probability <= 1.0):
            raise ValidationError(
                "heartbeat_delay_probability must be in [0, 1]"
            )
        if heartbeat_delay <= 0:
            raise ValidationError("heartbeat_delay must be > 0")
        if not (0.0 <= checkpoint_fault_probability <= 1.0):
            raise ValidationError(
                "checkpoint_fault_probability must be in [0, 1]"
            )
        self.supervisor = supervisor
        self.heartbeat_delay_probability = heartbeat_delay_probability
        self.heartbeat_delay = heartbeat_delay
        self.checkpoint_fault_probability = checkpoint_fault_probability
        self._rng = ensure_rng(seed)
        injector = FailureInjector(
            failure_probability=failure_probability,
            horizon=horizon,
            mean_repair_time=mean_repair_time,
            mtbf=mtbf,
            seed=self._rng,
        )
        self.schedule: list[FailureEvent] = injector.schedule(
            len(supervisor.workers)
        )
        self._cursor = 0
        self.kills = 0
        self.heartbeat_delays = 0
        #: shard id → time its current outage's repair completes.
        self._repair_until: dict[int, float] = {}
        if checkpoint_fault_probability > 0.0:
            for worker in supervisor.workers:
                worker.replication_fault = self._draw_fault
        supervisor.restore_gate = self.restore_gate

    def _draw_fault(self) -> bool:
        return bool(self._rng.random() < self.checkpoint_fault_probability)

    # -------------------------------------------------------------- driving

    @property
    def pending(self) -> int:
        """Scheduled kill events not yet applied."""
        return len(self.schedule) - self._cursor

    def advance(self, now: float) -> "list[FailureEvent]":
        """Apply every scheduled kill due at or before *now*; draw delays.

        Returns the kill events applied this call. Kills against a worker
        that is already dead are dropped (the schedule merged overlaps per
        worker, but a prior kill may still be awaiting restore).
        """
        applied: list[FailureEvent] = []
        while (
            self._cursor < len(self.schedule)
            and self.schedule[self._cursor].fail_time <= now
        ):
            event = self.schedule[self._cursor]
            self._cursor += 1
            worker = self.supervisor.workers[event.node_id]
            if worker.crashed or worker.shard_id in self.supervisor.fabric.down_shards:
                continue
            worker.kill()
            self._repair_until[worker.shard_id] = event.recover_time
            self.kills += 1
            applied.append(event)
            _log.info(
                "chaos: killed %s at t=%.3f (repair at t=%.3f)",
                worker.worker_id, now, event.recover_time,
            )
        if self.heartbeat_delay_probability > 0.0:
            for worker in self.supervisor.workers:
                if worker.crashed:
                    continue
                if self._rng.random() < self.heartbeat_delay_probability:
                    worker.suppress_until = max(
                        worker.suppress_until, now + self.heartbeat_delay
                    )
                    self.heartbeat_delays += 1
        return applied

    def restore_gate(self, shard_id: int, now: float) -> bool:
        """Supervisor hook: a killed shard may restore once repaired."""
        return now >= self._repair_until.get(shard_id, float("-inf"))

    def __repr__(self) -> str:
        return (
            f"FabricChaosInjector(scheduled={len(self.schedule)}, "
            f"applied={self.kills}, pending={self.pending}, "
            f"delays={self.heartbeat_delays})"
        )
