"""Host speed probe printed next to reference figures.

    python3 perfbench/probe.py

Times a fixed pure-Python spin loop on one process, then on as many
processes as this process may use CPUs (4 on the reference host), three
times each. On an uncontended host the wide time equals the 1-wide time;
the gap shows CPU taken by other tenants.
"""

from __future__ import annotations

import multiprocessing
import os
import time

SPIN = 3_000_000


def spin(n: int = SPIN) -> float:
    t0 = time.perf_counter()
    x = 0
    for i in range(n):
        x += i
    return time.perf_counter() - t0


def main():
    width = len(os.sched_getaffinity(0))
    with multiprocessing.get_context("spawn").Pool(width) as pool:
        pool.map(spin, [1000] * width)  # let every worker start first
        for _ in range(3):
            one = spin()
            wide = max(pool.map(spin, [SPIN] * width))
            print(f"1-wide {one:.3f} s   {width}-wide {wide:.3f} s")


if __name__ == "__main__":
    main()
