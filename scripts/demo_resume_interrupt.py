"""End-to-end resumability proof under a REAL interrupt (VERDICT r4 #8).

Protocol:
  1. run ``triples_resumable`` in a CHILD process over a bench-scale
     transcript corpus; SIGKILL the child as soon as K chunk manifests have
     been committed (a mid-run hard crash — no cleanup handlers run);
  2. re-run ``triples_resumable`` on the same output dir: chunks with a
     committed manifest are skipped, the rest (including any half-written
     ``.tmp-*`` dirs the crash left behind) are (re)built;
  3. run an uninterrupted control into a separate dir;
  4. compare: the interrupted+resumed output and the control output must
     contain the IDENTICAL triple multiset (content hash over the sorted
     rows — uuid5 determinism makes re-execution reproduce bytes).

Usage: python scripts/demo_resume_interrupt.py [input_dir] [kill_after_chunks]
Prints one JSON line.
"""

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

INPUT = sys.argv[1] if len(sys.argv) > 1 else "/tmp/cuomr_synth/bench_g3_20000x12"
KILL_AFTER = int(sys.argv[2]) if len(sys.argv) > 2 else 2
CHUNK_FILES = 16  # 100 input files -> 7 chunks (the resume unit)
OUT_INT = "/tmp/cuomr_resume_demo/interrupted"
OUT_CLEAN = "/tmp/cuomr_resume_demo/clean"

CHILD_CODE = """
import sys
sys.path.insert(0, {root!r})
import ray
ray.init(address="local", num_cpus=16, include_dashboard=False,
         logging_level="ERROR",
         runtime_env={{"env_vars": {{"PYTHONPATH": {root!r}}}}})
import ray.data as rd
rd.DataContext.get_current().enable_progress_bars = False
from case_uco_ontology_map_ray.state.lineage import triples_resumable
summary = triples_resumable({input!r}, {out!r}, chunk_files={chunk_files})
import json, pathlib
pathlib.Path({out!r}, ".run_summary.json").write_text(json.dumps(summary))
ray.shutdown()
"""


def run_child(out_dir: str, kill_after: int | None) -> dict:
    """Run the resumable job in a child process; if ``kill_after`` is set,
    SIGKILL the whole process group once that many manifests are committed."""
    code = CHILD_CODE.format(root=str(ROOT), input=INPUT, out=out_dir, chunk_files=CHUNK_FILES)
    child = subprocess.Popen([sys.executable, "-c", code],
                             stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL,
                             start_new_session=True)
    manifests = Path(out_dir) / "_manifests"
    killed = False
    while child.poll() is None:
        if kill_after is not None:
            n = len(list(manifests.glob("part-*.json"))) if manifests.exists() else 0
            if n >= kill_after:
                os.killpg(child.pid, signal.SIGKILL)  # hard crash, no cleanup
                killed = True
                break
        time.sleep(0.25)
    child.wait()
    n_done = len(list(manifests.glob("part-*.json"))) if manifests.exists() else 0
    return {"killed": killed, "manifests_at_exit": n_done,
            "returncode": child.returncode}


def output_fingerprint(out_dir: str) -> tuple[int, str]:
    """(row count, content hash) over the SORTED triple rows of all
    part-*/ parquet files — partition layout independent."""
    import duckdb

    con = duckdb.connect()
    rows, digest = con.execute(f"""
        WITH t AS (
            SELECT * FROM read_parquet('{out_dir}/part-*/*.parquet')
        ), s AS (
            SELECT md5(concat_ws('|', subj, pred, obj, obj_dt, conv_id,
                                 CAST(turn_idx AS VARCHAR))) AS h
            FROM t
        )
        SELECT count(*),
               md5(string_agg(h, '' ORDER BY h))
        FROM s
    """).fetchone()
    return int(rows), digest


def main():
    shutil.rmtree("/tmp/cuomr_resume_demo", ignore_errors=True)
    if not os.path.exists(f"{INPUT}/_SUCCESS"):
        from case_uco_ontology_map_ray.sources.transcripts import (
            synthesize_transcripts,
        )

        synthesize_transcripts(INPUT, num_conversations=20_000, mean_turns=12,
                               conversations_per_block=200)
        Path(f"{INPUT}/_SUCCESS").write_text("ok")
    n_files = len(list(Path(INPUT).glob("*.parquet")))

    interrupt = run_child(OUT_INT, kill_after=KILL_AFTER)
    tmp_leftover = len(list(Path(OUT_INT).glob(".tmp-*")))

    # resume in a fresh process: committed chunks must be skipped
    t0 = time.perf_counter()
    resume = run_child(OUT_INT, kill_after=None)
    resume_wall = time.perf_counter() - t0
    resume_summary = json.loads(
        (Path(OUT_INT) / ".run_summary.json").read_text())

    # uninterrupted control
    t0 = time.perf_counter()
    control = run_child(OUT_CLEAN, kill_after=None)
    control_wall = time.perf_counter() - t0

    rows_a, fp_a = output_fingerprint(OUT_INT)
    rows_b, fp_b = output_fingerprint(OUT_CLEAN)

    # how many chunks did the resume actually skip? (read from manifests:
    # every pre-kill manifest's wall time predates the resume)
    summary = {
        "input_files": n_files,
        "chunks": (n_files + CHUNK_FILES - 1) // CHUNK_FILES,
        "killed_mid_run": interrupt["killed"],
        "chunks_committed_before_kill": interrupt["manifests_at_exit"],
        "tmp_dirs_left_by_crash": tmp_leftover,
        "resume_ok": resume["returncode"] == 0,
        "resume_skipped_chunks": resume_summary["skipped"],
        "resume_rebuilt_chunks": resume_summary["done"],
        "resume_wall_sec": round(resume_wall, 1),
        "control_wall_sec": round(control_wall, 1),
        "rows_interrupted_then_resumed": rows_a,
        "rows_uninterrupted": rows_b,
        "content_hash_match": fp_a == fp_b,
        "content_hash": fp_a,
    }
    print(json.dumps(summary))
    if not (interrupt["killed"] and resume["returncode"] == 0
            and fp_a == fp_b and rows_a == rows_b):
        raise SystemExit("RESUME PROOF FAILED")


if __name__ == "__main__":
    main()
