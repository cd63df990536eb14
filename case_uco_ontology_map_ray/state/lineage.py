"""Per-partition lineage manifests + checkpoint-resumable execution.

The reference checkpoints full session state to SQLite after every step
(``services.py:101-111``). The Ray-native equivalent for a batch pipeline
(SURVEY.md §4): deterministic uuid5 IDs make every stage idempotent, so
resume = "skip finished partitions":

- the input file list is split into fixed chunks (the resume unit);
- each chunk runs as its own (internally parallel) Dataset execution and
  writes to ``out_dir/part-<id>/`` via write-to-temp + atomic rename;
- a manifest JSON per chunk records inputs, row/triple counts, wall time,
  and a config fingerprint; on restart, chunks whose manifest matches are
  skipped entirely.

A chunk is many parquet files / blocks, so intra-chunk parallelism keeps
the cluster busy; chunk count bounds the worst-case lost work on failure.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from pathlib import Path


def _config_fingerprint(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()[:16]


def list_input_files(input_dir: str) -> list[str]:
    return sorted(
        str(p) for p in Path(input_dir).glob("*.parquet")
    )


def plan_chunks(files: list[str], chunk_files: int = 32) -> list[list[str]]:
    return [files[i:i + chunk_files] for i in range(0, len(files), chunk_files)]


def run_resumable(
    input_dir: str,
    out_dir: str,
    build_pipeline,
    chunk_files: int = 32,
    config: dict | None = None,
) -> dict:
    """Run ``build_pipeline(files) -> Dataset`` over input chunks, resumably.

    Returns a summary dict: chunks done/skipped/failed, rows written.
    """
    files = list_input_files(input_dir)
    chunks = plan_chunks(files, chunk_files)
    cfg_fp = _config_fingerprint({"config": config or {}, "chunk_files": chunk_files})

    manifests_dir = Path(out_dir) / "_manifests"
    manifests_dir.mkdir(parents=True, exist_ok=True)

    summary = {"chunks": len(chunks), "done": 0, "skipped": 0, "rows": 0}
    for idx, chunk in enumerate(chunks):
        part_id = f"part-{idx:05d}"
        manifest_path = manifests_dir / f"{part_id}.json"
        chunk_fp = _config_fingerprint({"files": chunk, "cfg": cfg_fp})

        if manifest_path.exists():
            try:
                m = json.loads(manifest_path.read_text())
            except json.JSONDecodeError:
                m = {}
            if m.get("status") == "done" and m.get("chunk_fp") == chunk_fp:
                summary["skipped"] += 1
                summary["rows"] += m.get("rows", 0)
                continue

        dest = Path(out_dir) / part_id
        tmp = Path(out_dir) / f".tmp-{part_id}"
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.rmtree(dest, ignore_errors=True)

        t0 = time.perf_counter()
        ds = build_pipeline(chunk)
        ds.write_parquet(str(tmp))
        # count rows from the written files' metadata (no second pass)
        import pyarrow.parquet as pq

        rows = sum(pq.read_metadata(f).num_rows for f in Path(tmp).glob("*.parquet"))
        os.replace(tmp, dest)

        manifest = {
            "partition": part_id,
            "inputs": chunk,
            "rows": rows,
            "wall_sec": round(time.perf_counter() - t0, 3),
            "chunk_fp": chunk_fp,
            "status": "done",
        }
        tmp_manifest = manifests_dir / f".tmp-{part_id}.json"
        tmp_manifest.write_text(json.dumps(manifest, indent=1))
        os.replace(tmp_manifest, manifest_path)
        summary["done"] += 1
        summary["rows"] += rows

    return summary


def triples_resumable(input_dir: str, out_dir: str, chunk_files: int = 32) -> dict:
    """Resumable transcripts -> triples run (the flagship pipeline)."""
    from ..pipelines.kg import TRIPLE_INPUT_COLUMNS, read_kg, triples_from_transcripts

    def build(files: list[str]):
        return triples_from_transcripts(read_kg(files, TRIPLE_INPUT_COLUMNS))

    return run_resumable(input_dir, out_dir, build, chunk_files,
                         config={"pipeline": "triples_v1"})
