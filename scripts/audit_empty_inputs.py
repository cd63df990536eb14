"""Empty-input robustness audit: run every sf-table `queries()` entry
against a corpus of ZERO-ROW tables (exact testdata schemas) and report
any that raise.

Why this matters: Ray drops a lineage's schema with its last block, so on
fully-empty input every lazy transform reports `schema() -> None` and
`to_pandas()` yields a ZERO-COLUMN frame — the failure family behind three
of the five ADVICE-r4 findings. The engine contract after round 5: every
query returns (an possibly empty) result instead of raising KeyError /
AttributeError / IndexError on an empty corpus. Guards live in the shared
layers (ops/joins `_empty_like` + schema-None short-circuits, ops/dedup
edge-schema guards, ops/agg `ensure_columns`, pipelines/corpus `_finish`)
plus per-query collect guards.

Usage: python scripts/audit_empty_inputs.py [query ...]
Exit 0 = all clean. kg_*/transcript_*/pii_* queries read synthesized
transcripts (never empty by construction) and are excluded.
"""

import os
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

import pyarrow.parquet as pq

TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


def build_empty_sf(out: str, schema_src: str = "/root/testdata/sf0.001"):
    os.makedirs(out, exist_ok=True)
    for t in TABLES:
        sch = pq.read_schema(f"{schema_src}/{t}.parquet")
        pq.write_table(sch.empty_table(), f"{out}/{t}.parquet")


def main():
    import ray

    ray.init(address="local", num_cpus=8, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR",
             runtime_env={"env_vars": {"PYTHONPATH": os.pathsep.join(
                 filter(None, [str(ROOT), os.environ.get("PYTHONPATH")]))}})
    import ray.data as rd

    rd.DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as e

    out = "/tmp/empty_sf_audit"
    build_empty_sf(out)
    qs = e.queries()
    names = sys.argv[1:] or [
        n for n in qs if not n.startswith(("kg_", "transcript_", "pii_"))]
    fails = 0
    for name in names:
        try:
            r = qs[name](out)
            if hasattr(r, "to_pandas"):
                r = r.to_pandas()
            print(f"[ok] {name}: {len(r)} rows")
        except Exception as ex:
            fails += 1
            tb = traceback.format_exc().splitlines()
            loc = next((ln for ln in reversed(tb) if f"{ROOT}/" in ln), "?")
            print(f"[EMPTY-FAIL] {name}: {type(ex).__name__}: "
                  f"{str(ex)[:120]} @ {loc.strip()[:120]}")
    ray.shutdown()
    print(f"ran {len(names)}, failures {fails}")
    sys.exit(1 if fails else 0)


if __name__ == "__main__":
    main()
