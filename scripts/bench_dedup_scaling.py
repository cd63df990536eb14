"""Scaling measurement for the distributed MinHash-LSH dedup (BASELINE.md).

The sf0.1 documents table (5k docs) is fixed-latency-bound — Ray stage
overhead dominates and scaling is invisible. This script synthesizes a
deterministic 100k-doc corpus with planted near-duplicates, then runs
``minhash_lsh_dedup`` end-to-end (sketch -> band edges -> distributed
Jaccard verify -> label propagation -> assignment collect) at two CPU
levels in fresh processes and prints throughputs + efficiency.

Usage: python scripts/bench_dedup_scaling.py [--level N]   (driver mode
       without --level; child mode with it)
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

N_DOCS = int(os.environ.get("DEDUP_BENCH_DOCS", "100000"))
CORPUS = f"/tmp/cuomr_synth/dedup_bench_{N_DOCS}"
PAIR = tuple(int(x) for x in os.environ.get("GRAFT_SCALE_PAIR", "4,16").split(","))


def ensure_corpus() -> None:
    """Vectorized synth: token-id matrix -> Arrow dictionary cast -> list
    binary_join. Every 10th doc is a planted near-dup of its predecessor
    (5 of 80 tokens mutated)."""
    if os.path.exists(f"{CORPUS}/_SUCCESS"):
        return
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    os.makedirs(CORPUS, exist_ok=True)
    rng = np.random.RandomState(7)
    n_vocab, n_tok = 5000, 80
    vocab = pa.array([f"tok{i}" for i in range(n_vocab)])
    rows_per_file = 50_000
    n_files = max(1, N_DOCS // rows_per_file)
    for f in range(n_files):
        n = rows_per_file
        m = rng.randint(0, n_vocab, size=(n, n_tok), dtype=np.int32)
        dup_rows = np.arange(9, n, 10)
        m[dup_rows] = m[dup_rows - 1]
        cols = rng.randint(0, n_tok, size=(len(dup_rows), 5))
        vals = rng.randint(0, n_vocab, size=(len(dup_rows), 5), dtype=np.int32)
        m[dup_rows[:, None], cols] = vals
        flat = pa.DictionaryArray.from_arrays(
            pa.array(m.ravel(), pa.int32()), vocab).cast(pa.string())
        offsets = pa.array(np.arange(0, (n + 1) * n_tok, n_tok, dtype=np.int32))
        lists = pa.ListArray.from_arrays(offsets, flat)
        texts = pc.binary_join(lists, " ")
        ids = pa.array(np.arange(f * n, (f + 1) * n, dtype=np.int64))
        pq.write_table(pa.table({"doc_id": ids, "text": texts}),
                       f"{CORPUS}/part-{f:04d}.parquet")
    with open(f"{CORPUS}/_SUCCESS", "w") as fh:
        fh.write("ok")


def child(ncpu: int) -> None:
    import ray

    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             logging_level="ERROR",
             runtime_env={"env_vars": {"PYTHONPATH": os.pathsep.join(
                 filter(None, [str(ROOT), os.environ.get("PYTHONPATH")]))}})
    import ray.data as rd

    rd.DataContext.get_current().enable_progress_bars = False
    from case_uco_ontology_map_ray.ops.dedup import minhash_lsh_dedup

    ensure_corpus()
    ds = rd.read_parquet(CORPUS, columns=["doc_id", "text"])
    # warm workers untimed
    minhash_lsh_dedup(ds.limit(2000)).to_pandas()
    n_runs = int(os.environ.get("DEDUP_BENCH_RUNS", "1"))
    best = None
    for _ in range(n_runs):
        t0 = time.perf_counter()
        out = minhash_lsh_dedup(ds).to_pandas()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    n_clustered = int((out.doc_id != out.cluster_id).sum())
    print(json.dumps({"cpus": ncpu, "sec": round(best, 2),
                      "docs_per_sec": round(N_DOCS / best, 1),
                      "n_docs": N_DOCS, "n_clustered": n_clustered}))
    ray.shutdown()


def main() -> None:
    if "--level" in sys.argv:
        child(int(sys.argv[sys.argv.index("--level") + 1]))
        return
    lo, hi = PAIR
    res = {}
    for ncpu in (lo, hi):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--level", str(ncpu)],
            capture_output=True, text=True, check=True).stdout
        res[ncpu] = json.loads(out.strip().splitlines()[-1])
    eff = (res[hi]["docs_per_sec"] / res[lo]["docs_per_sec"]) / (hi / lo)
    print(json.dumps({"pair": [lo, hi],
                      f"sec_{lo}": res[lo]["sec"], f"sec_{hi}": res[hi]["sec"],
                      f"docs_per_sec_{lo}": res[lo]["docs_per_sec"],
                      f"docs_per_sec_{hi}": res[hi]["docs_per_sec"],
                      "n_clustered": res[hi]["n_clustered"],
                      "scaling_efficiency": round(eff, 3)}))


if __name__ == "__main__":
    main()
