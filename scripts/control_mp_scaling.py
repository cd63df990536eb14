"""Control experiment: the FULL kg_triples pipeline shape under pure
multiprocessing (no Ray) at two process counts on this host.

Purpose (BASELINE.md "scaling" section): the single-box 8->32 Ray efficiency
ceiling (~0.72-0.75) was attributed to control-plane oversubscription — at
num_cpus=32 the raylet/object-store/driver share the same 32 cores as the
workers, which a real 4N-node cluster does not suffer. Round 2's control ran
a synthetic kernel; this one runs the REAL per-batch work — deterministic
transcript generation + TurnTriples composition + Arrow table construction +
dictionary encoding — so the comparison covers the same Python/Arrow/memory
-bandwidth profile as the benched pipeline, with zero IPC (each worker
generates its own conversation range; the generator is a pure function of
conv_index).

If multiprocessing sustains near-linear per-core throughput at 32 procs
while Ray does not, the residual Ray gap is environmental (control plane +
object-store transport), not the pipeline's compute. If multiprocessing
shows the same droop, the ceiling is hardware (memory bandwidth / SMT).

Usage: python scripts/control_mp_scaling.py [n_convs] [lo,hi]
Defaults: 120000 conversations, 8,32.
"""

import json
import multiprocessing as mp
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))


def work(args) -> int:
    lo, hi = args
    from case_uco_ontology_map_ray.sources.transcripts import conversations_table
    from case_uco_ontology_map_ray.stages.kg_stage import TurnTriples

    # skip conv 0 (the deliberately hot conversation would skew one chunk)
    table = conversations_table(range(max(lo, 1), hi))
    return TurnTriples()(table).num_rows


def run_level(n_procs: int, n_convs: int, chunks_per_proc: int = 8):
    n_chunks = n_procs * chunks_per_proc
    step = max(1, -(-n_convs // n_chunks))  # ceil: cover [0, n_convs) fully
    ranges = [(i * step, min((i + 1) * step, n_convs))
              for i in range(n_chunks) if i * step < n_convs]
    with mp.Pool(n_procs) as pool:
        pool.map(work, ranges[:2])  # warm imports, untimed
        t0 = time.perf_counter()
        rows = sum(pool.map(work, ranges))
        dt = time.perf_counter() - t0
    return rows, dt


def main():
    n_convs = int(sys.argv[1]) if len(sys.argv) > 1 else 120_000
    lo, hi = (int(x) for x in (sys.argv[2] if len(sys.argv) > 2 else "8,32").split(","))
    out = {"n_convs": n_convs, "cpus": [lo, hi]}
    for n in (lo, hi):
        rows, dt = run_level(n, n_convs)
        out[f"rows_{n}"] = rows
        out[f"sec_{n}"] = round(dt, 2)
        out[f"rows_per_sec_{n}"] = round(rows / dt, 1)
    eff = (out[f"rows_per_sec_{hi}"] / out[f"rows_per_sec_{lo}"]) / (hi / lo)
    out["scaling_efficiency"] = round(eff, 3)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
