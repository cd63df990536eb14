"""CPU and memory of the benchmark's own process tree, read from /proc.

``Sampler`` runs in a thread while a job runs. It records the driver's
private resident memory every 20 ms and, every 100 ms, the CPU time of every process
descending from the driver (Ray's control plane and workers are children of
the driver after ``ray.init``). A process that exits between two scans loses
at most its last 100 ms of CPU.
"""

from __future__ import annotations

import os
import threading
import time

_TCK = os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGE_SIZE")


def _scan() -> dict[int, tuple[int, int]]:
    """{pid: (ppid, utime + stime in ticks)} for every readable process."""
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as f:
                s = f.read()
        except OSError:
            continue
        fields = s[s.rfind(b")") + 2:].split()
        out[int(name)] = (int(fields[1]), int(fields[11]) + int(fields[12]))
    return out


def descendants(root: int, table: dict | None = None) -> dict[int, int]:
    """{pid: cpu ticks} for ``root`` and every process below it."""
    table = _scan() if table is None else table
    kids: dict[int, list[int]] = {}
    for pid, (ppid, _) in table.items():
        kids.setdefault(ppid, []).append(pid)
    out, stack = {}, [root]
    while stack:
        pid = stack.pop()
        if pid in table:
            out[pid] = table[pid][1]
            stack.extend(kids.get(pid, ()))
    return out


def private_rss_bytes() -> int:
    """Resident memory of this process not shared with others (resident minus
    shared pages). Pages of Ray's shared-memory object store that the driver
    maps are left out: how many of them are resident depends on where the
    store placed each object, not on what the driver holds."""
    with open("/proc/self/statm") as f:
        fields = f.read().split()
    return (int(fields[1]) - int(fields[2])) * _PAGE


def process_age_s() -> float:
    """Seconds since this process started (10 ms resolution)."""
    with open("/proc/self/stat", "rb") as f:
        s = f.read()
    start_ticks = int(s[s.rfind(b")") + 2:].split()[19])
    with open("/proc/uptime") as f:
        uptime = float(f.read().split()[0])
    return uptime - start_ticks / _TCK


class Sampler:
    def __init__(self):
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self.peak_rss = 0
        self._base = descendants(os.getpid())
        self._last = dict(self._base)

    def _run(self):
        i = 0
        while not self._stop.is_set():
            self.peak_rss = max(self.peak_rss, private_rss_bytes())
            if i % 5 == 0:
                self._last.update(descendants(os.getpid()))
            i += 1
            self._stop.wait(0.02)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak_rss = max(self.peak_rss, private_rss_bytes())
        self._last.update(descendants(os.getpid()))

    def cpu_s(self) -> float:
        ticks = sum(t - self._base.get(pid, 0) for pid, t in self._last.items())
        return ticks / _TCK


def wait_for_children(keep: frozenset = frozenset(), timeout_s: float = 20.0) -> list[int]:
    """Wait until no process below this one is left but those in ``keep``
    (and their children); return the stragglers."""
    me = os.getpid()
    deadline = time.monotonic() + timeout_s
    while True:
        kept = set()
        for k in keep:
            kept |= set(descendants(k))
        left = [p for p in descendants(me) if p != me and p not in kept]
        if not left or time.monotonic() > deadline:
            return left
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        time.sleep(0.1)
