"""Accounting read from /proc: memory high-water marks and CPU time of
the driver and its Ray workers, and the CPU time the hypervisor stole
from this VM."""

from __future__ import annotations

import os
import resource
import time
from pathlib import Path

_TICK = os.sysconf("SC_CLK_TCK")


def driver_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _status_kb(pid: int, field: str) -> float:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith(field + ":"):
                return float(line.split()[1])
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0.0


def _stat(pid: int) -> list[str] | None:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return None
    return raw[raw.rindex(")") + 2:].split()  # fields from 3 (state) on


def children(ppid: int) -> list[int]:
    out = []
    for d in os.listdir("/proc"):
        if d.isdigit():
            st = _stat(int(d))
            if st is not None and int(st[1]) == ppid:
                out.append(int(d))
    return out


def ray_workers(raylet: int) -> list[int]:
    """The raylet's worker processes (its other children are agents)."""
    out = []
    for p in children(raylet):
        try:
            cmd = Path(f"/proc/{p}/cmdline").read_bytes()
        except (FileNotFoundError, ProcessLookupError):
            continue
        if cmd.startswith(b"ray::") or b"default_worker.py" in cmd:
            out.append(p)
    return out


def peak_rss_mb(pids: list[int]) -> float:
    return max((_status_kb(p, "VmHWM") for p in pids), default=0.0) / 1024.0


def cpu_seconds(pids: list[int]) -> dict[int, float]:
    """{pid: user + system CPU seconds} for the pids still alive."""
    out = {}
    for p in pids:
        st = _stat(p)
        if st is not None:
            out[p] = (int(st[11]) + int(st[12])) / _TICK
    return out


def alive(pid: int) -> bool:
    st = _stat(pid)
    return st is not None and st[0] != "Z"


def host_cpu_ticks() -> tuple[int, int]:
    """(steal, wanted) CPU ticks summed over the VM's CPUs. ``wanted`` is
    the time the CPUs ran or were runnable (user, nice, system, irq,
    softirq, steal); steal is the part of it the hypervisor gave to
    other guests."""
    user, nice, system, _idle, _iowait, irq, softirq, steal = (
        int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9])
    return steal, user + nice + system + irq + softirq + steal


class StealClock:
    """Times a block twice: ``wall`` as measured, and ``adjusted`` with
    the share of CPU time stolen by the hypervisor during the block
    removed — the wall time the block would have taken on an otherwise
    idle host."""

    def __enter__(self):
        self._ticks = host_cpu_ticks()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self._t0
        steal, wanted = (b - a for a, b in zip(self._ticks, host_cpu_ticks()))
        self.steal, self.wanted = steal, wanted
        self.adjusted = self.wall * (1.0 - steal / max(wanted, 1))
        return False
