"""Local stand-in for the driver's correctness gate: run each queries()
entry and its oracle_sql() side by side on the same sf dir; compare
row-count, schema (column names), and order-insensitive values.
``sf_dir`` only selects the scale of the synthesized transcripts.

Usage: python scripts/check_correctness.py [sf_dir] [query ...]
"""

import os
import sys
from pathlib import Path

import duckdb
import pandas as pd

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if str(df[c].dtype).startswith("datetime"):
            df[c] = df[c].astype("datetime64[us]")
        elif df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    # point the kg_* oracles' transcripts glob at the SAME sf dir the
    # queries run on (oracle_sql() defaults to sf0.01 — the driver's scale)
    import os

    os.environ["GRAFT_ORACLE_SF_DIR"] = sf_dir

    import ray

    ray.init(address="local", num_cpus=8, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR",
             runtime_env={"env_vars": {"PYTHONPATH": os.pathsep.join(
                 filter(None, [str(ROOT), os.environ.get("PYTHONPATH")]))}})
    import ray.data as rd

    rd.DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as e

    # every oracle reads the synthesized transcripts with read_parquet(),
    # so the connection needs no views
    con = duckdb.connect()

    qs, oracles = e.queries(), e.oracle_sql()
    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        try:
            got = fn(sf_dir)
            if hasattr(got, "to_pandas"):
                got = got.to_pandas()
            elif not isinstance(got, pd.DataFrame):
                got = pd.DataFrame(got)
        except Exception as ex:
            print(f"[FAIL] {name}: query raised {type(ex).__name__}: {ex}")
            failures += 1
            continue
        sql = oracles.get(name)
        if sql is None:
            print(f"[rows-only] {name}: {len(got)} rows, cols={list(got.columns)[:8]}")
            continue
        want = con.execute(sql).fetchdf()
        g, w = normalize(got), normalize(want)
        if list(g.columns) != list(w.columns):
            print(f"[FAIL] {name}: columns {list(g.columns)} != {list(w.columns)}")
            failures += 1
            continue
        if len(g) != len(w):
            print(f"[FAIL] {name}: rows {len(g)} != {len(w)}")
            failures += 1
            continue
        if not g.equals(w):
            diff = (g != w) & ~(g.isna() & w.isna())
            print(f"[FAIL] {name}: value mismatch in {diff.any().loc[lambda s: s].index.tolist()}")
            print("  got:\n", g.head(5).to_string())
            print("  want:\n", w.head(5).to_string())
            failures += 1
            continue
        print(f"[OK] {name}: {len(g)} rows")
    ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
