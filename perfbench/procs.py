"""Process bookkeeping: CPU steal, peak resident memory, child clean-up.

Throughput is measured on wall time net of hypervisor CPU steal.  On a
shared virtual machine the host preempts the guest's vCPUs for tens of
seconds at a time; the guest kernel counts that time as *steal* in
``/proc/stat``.  It lengthens every wall-clock interval by up to half
and has nothing to do with the program, so :func:`net_wall` removes it:
steal is charged once per vCPU that wanted to run (busy or stolen), so a
GIL-bound serial campaign loses all of it and a two-process sweep half.
On hardware without steal the net wall equals the wall.

Peak memory of a unit of work is this process's peak during the unit
plus the largest sum of the peaks of the child processes (pool workers,
fleet daemons) alive at the same time, sampled from ``/proc``.
"""

from __future__ import annotations

import glob
import os
import signal
import threading
import time

_TICK = os.sysconf("SC_CLK_TCK")


def cpu_times() -> tuple[float, float]:
    """``(busy, steal)`` seconds summed over all vCPUs since boot."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = [int(x) / _TICK for x in fh.readline().split()[1:9]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq, steal


def net_wall(wall: float, before: tuple[float, float],
             after: tuple[float, float]) -> float:
    """``wall`` minus the steal that delayed it (see the module doc)."""
    busy = after[0] - before[0]
    steal = after[1] - before[1]
    if steal <= 0 or wall <= 0:
        return wall
    wanting = max(1.0, (busy + steal) / wall)
    return wall - steal / wanting


def _vm_hwm_kb(pid: str = "self") -> int:
    """Peak resident set of one process in KiB (0 if it is gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def child_pids() -> list[int]:
    """Direct children of this process, whichever thread started them."""
    pids: set[int] = set()
    for path in glob.glob("/proc/self/task/*/children"):
        try:
            with open(path, encoding="ascii") as fh:
                pids.update(int(p) for p in fh.read().split())
        except OSError:
            pass
    return sorted(pids)


class RssSampler:
    """Samples the children's peak memory on a background thread;
    :meth:`start_unit` and :meth:`unit_peak_mb` bracket one unit."""

    def __init__(self, period: float = 0.1):
        self.period = period
        self.peak_children_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="perfbench-rss")

    def _sample(self) -> None:
        total = sum(_vm_hwm_kb(str(pid)) for pid in child_pids())
        self.peak_children_kb = max(self.peak_children_kb, total)

    def _loop(self) -> None:
        while not self._stop.wait(self.period):
            self._sample()

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def start_unit(self) -> None:
        """Reset both peaks: this process's to its current resident set
        (``/proc/self/clear_refs``, Linux 4.0+), the children's to 0."""
        with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
        self.peak_children_kb = 0

    def unit_peak_mb(self) -> float:
        self._sample()
        return (_vm_hwm_kb() + self.peak_children_kb) / 1024.0


def stop_children(grace: float = 5.0) -> int:
    """Stop and reap every child process still running; returns how many
    had to be stopped.  The multiprocessing resource tracker is asked to
    exit the way it expects (its pipe closes); anything else gets
    SIGTERM, then SIGKILL after ``grace`` seconds."""
    from multiprocessing import resource_tracker
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()
    stopped = 0
    for pid in child_pids():
        stopped += 1
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            continue
        deadline = time.monotonic() + grace
        while True:
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                break
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                break
            time.sleep(0.02)
    return stopped
