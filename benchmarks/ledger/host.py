"""Host-side measurements: calibration loop, CPU time, memory."""

from __future__ import annotations

import os
import resource
import signal
import time
from multiprocessing import resource_tracker

import numpy as np

_TICKS = os.sysconf("SC_CLK_TCK")


def calibrate() -> float:
    """Milliseconds for a fixed Python + NumPy loop (best of three).

    A row whose calibration reads well above the smallest seen in a run was
    measured on a busy host; the number says nothing about the program.
    """
    data = np.arange(200_000, dtype=np.float64)
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(60_000):
            total += i & 7
        for _ in range(40):
            np.sort(data[::-1]).cumsum()
        best = min(best, time.perf_counter() - started)
    return best * 1e3


def pid_cpu_s(pid: int) -> float:
    """user + sys CPU seconds of a live process, from ``/proc/<pid>/stat``."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICKS


def cpu_s(worker_pids=()) -> float:
    """CPU seconds so far of this process plus the live *worker_pids*."""
    return time.process_time() + sum(pid_cpu_s(pid) for pid in worker_pids)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _child_pids() -> list:
    """Direct children of this process that have not been waited for."""
    own = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == own:
            found.append(int(entry))
    return found


def stop_children(grace_s: float = 5.0) -> int:
    """Stop and wait for every process this one started; returns how many
    had to be killed.

    ``multiprocessing``'s spawn method starts a resource tracker beside the
    first proc worker. It ends only once this process lets go of its pipe,
    which otherwise happens at exit — so it would outlive the run. Closing
    the pipe here and waiting makes the run leave nothing behind. Workers
    are stopped by the target's teardown; one still alive after *grace_s*
    (a teardown that raised half-way) is killed.
    """
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    killed = 0
    deadline = time.monotonic() + grace_s
    while pids := _child_pids():
        for pid in pids:
            try:
                late = time.monotonic() > deadline
                if late:
                    os.kill(pid, signal.SIGKILL)
                    killed += 1
                os.waitpid(pid, 0 if late else os.WNOHANG)
            except (ProcessLookupError, ChildProcessError):
                pass
        time.sleep(0.01)
    return killed
