"""Scale command times to a reference host speed with a probe loop.

On a shared host the same command's wall time swings by up to 1.6x with
what other tenants run next to its vCPU; the swing differs between vCPUs
and drifts over minutes, so neither the fastest of a few samples nor a
calibration loop run between commands follows it (README.md).  `watch`
instead pauses the running command every PERIOD_S (SIGSTOP to its process
group), times a short fixed pure-Python loop on the vCPU the command last
ran on, and resumes it.  The loop meets the interference the command was
meeting at that moment, so

    scaled time = measured time * REF_PROBE_S / mean probe time

estimates the command's time on a host where the probe takes REF_PROBE_S.
The probe is timed in its own CPU time, and the measured time leaves out
the pauses and the time the hypervisor took the command's vCPU away
(steal, from /proc/stat), which the probe cannot see.
"""

from __future__ import annotations

import itertools
import os
import select
import signal
import statistics
import time
from dataclasses import dataclass, field

PERIOD_S = 0.02
REPS = 8
# a fixed scale: with it, scaled pass times on the 2-vCPU Xeon VM of
# README.md read close to the fastest unscaled pass times measured there
# (SEED_PASS_S in run.py)
REF_PROBE_S = 3.4e-4

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")
_N = 24
_TABLE = [[(a * 7 + b * 3) % _N for b in range(_N)] for a in range(_N)]


def _probe_round() -> int:
    """One sweep over a 24x24 operation table, like the program's checks."""
    t, s = _TABLE, 0
    for a, b in itertools.product(range(_N), repeat=2):
        s += t[t[a][b]][a]
    return s


def probe() -> float:
    """CPU seconds for REPS rounds of the probe on the current CPU."""
    t0 = time.thread_time()
    for _ in range(REPS):
        _probe_round()
    return time.thread_time() - t0


def steal() -> dict[int, float]:
    """Seconds stolen from each CPU so far (/proc/stat)."""
    out = {}
    with open("/proc/stat") as f:
        for line in f:
            if line.startswith("cpu") and line[3].isdigit():
                parts = line.split()
                out[int(parts[0][3:])] = int(parts[8]) * _TICK_S
    return out


def last_cpu(pid: int) -> int | None:
    """The CPU `pid` last ran on (field 39 of /proc/<pid>/stat)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return int(f.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


@dataclass
class Watched:
    code: int
    wall: float  # seconds from start to exit, pauses and steal left out
    usage: os.struct_rusage | None = None
    probes: list[float] = field(default_factory=list)
    stolen: float = 0.0  # steal left out of `wall`

    @property
    def scale(self) -> float:
        """REF_PROBE_S over the mean probe time; 1.0 if unprobed."""
        return REF_PROBE_S / statistics.fmean(self.probes) if self.probes else 1.0


def watch(pid: int, t0: float, sample: bool = True) -> Watched:
    """Wait for child `pid`, started at perf_counter `t0` as the leader of
    its own process group.  With `sample`, probe every PERIOD_S while it
    runs and once more as it exits.

    Between pauses the benchmark stays on the CPU the child last ran on:
    that CPU is busy, so the child's exit wakes the benchmark at once, where
    waking an idle vCPU can wait for the hypervisor."""
    if not sample:
        _, status, usage = os.wait4(pid, 0)
        return Watched(os.waitstatus_to_exitcode(status), time.perf_counter() - t0, usage)
    w = Watched(code=-1, wall=0.0)
    paused = 0.0
    reaped = False
    allowed = os.sched_getaffinity(0)
    since = steal()  # steal counters when the child last resumed

    def follow(cpu: int | None) -> None:
        # count the steal on the CPU the child ran on since it last resumed,
        # and move there
        if cpu is not None:
            w.stolen += steal().get(cpu, 0.0) - since.get(cpu, 0.0)
            if cpu in allowed:
                os.sched_setaffinity(0, {cpu})

    fd = os.pidfd_open(pid)
    try:
        poller = select.poll()
        poller.register(fd, select.POLLIN)
        while not poller.poll(PERIOD_S * 1000):
            s0 = time.perf_counter()
            cpu = last_cpu(pid)
            os.killpg(pid, signal.SIGSTOP)
            _, status, usage = os.wait4(pid, os.WUNTRACED)
            follow(cpu)
            if not os.WIFSTOPPED(status):  # it exited before the stop
                w.code, w.usage, w.wall, reaped = (os.waitstatus_to_exitcode(status), usage,
                                                   s0 - t0 - paused - w.stolen, True)
                w.probes.append(probe())
                return w
            w.probes.append(probe())
            since = steal()
            os.killpg(pid, signal.SIGCONT)
            paused += time.perf_counter() - s0
        end = time.perf_counter()
        follow(last_cpu(pid))  # an exited child's stat stays until it is reaped
        w.wall = end - t0 - paused - w.stolen
        w.probes.append(probe())
        _, status, w.usage = os.wait4(pid, 0)
        w.code, reaped = os.waitstatus_to_exitcode(status), True
        return w
    finally:
        os.close(fd)
        os.sched_setaffinity(0, allowed)  # the next child must not inherit a pin
        if not reaped:  # interrupted: leave nothing stopped or running
            for sig in (signal.SIGKILL, signal.SIGCONT):
                try:
                    os.killpg(pid, sig)
                except ProcessLookupError:
                    pass
            os.wait4(pid, 0)
