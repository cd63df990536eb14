"""Job entrypoint for the flagship pipeline (the `ray job submit` shape):

    python scripts/run_pipeline.py --input <transcripts_dir> --output <dir> \
        [--resume] [--validate] [--canonicalize] [--num-cpus N]

One pass over the transcripts builds the triples; everything else reads
that pass's result instead of composing the triples again:

- ``--validate``: the validating stage runs once and its output (clean
  triples plus the dropped-property rows, split by the ``violation``
  column) is materialized. The clean rows go to ``triples/``, the violation
  summary is a groupby over the same blocks, and canonicalization takes the
  whole stream: a dropped property triple keeps its subject and path, so
  the path mentions are exactly those of the unvalidated triples.
- otherwise the triples stream straight to ``triples/`` (chunked with
  lineage manifests under ``--resume``), and ``--canonicalize`` reads the
  written files back with only the mention columns.

``--resume`` cannot be combined with ``--validate`` yet: only plain triples
are resumable (``state/lineage.triples_resumable``).

On a real cluster this file is the `ray job submit --working-dir .`
entrypoint. Run on its own it starts a local Ray session with the checkout
on its workers' ``PYTHONPATH`` and shuts it down at the end; called from a
process that already runs Ray, it uses that session and leaves it up.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

MENTION_COLUMNS = ["subj", "pred", "obj", "conv_id", "turn_idx"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", required=True)
    ap.add_argument("--output", required=True)
    ap.add_argument("--resume", action="store_true",
                    help="chunked resumable run with lineage manifests")
    ap.add_argument("--validate", action="store_true",
                    help="emit violation column + summary")
    ap.add_argument("--canonicalize", action="store_true",
                    help="also write entity table + canonical link triples")
    ap.add_argument("--num-cpus", type=int, default=None)
    ap.add_argument("--progress", action="store_true",
                    help="stream per-stage progress events to stderr while "
                         "the job runs (the reference's SSE step feed, "
                         "routes.py:50-128, as a batch-engine poll stream)")
    args = ap.parse_args()
    if args.resume and args.validate:
        ap.error("--resume cannot be combined with --validate: validation "
                 "is not resumable yet (only plain triples are)")

    import ray

    started = not ray.is_initialized()
    if started:
        pythonpath = os.pathsep.join(
            [str(ROOT)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
        ray.init(address="local", num_cpus=args.num_cpus,
                 include_dashboard=False, logging_level="ERROR",
                 runtime_env={"env_vars": {"PYTHONPATH": pythonpath}})
    try:
        _run(args)
    finally:
        if started:
            ray.shutdown()


def _run(args):
    import ray.data as rd

    rd.DataContext.get_current().enable_progress_bars = False

    t0 = time.perf_counter()
    metrics = {}
    triples_dir = f"{args.output}/triples"
    # the stream canonicalization reads: the validated pass, or the
    # triples once they are written
    mention_source = None

    if args.resume:
        from case_uco_ontology_map_ray.state.lineage import triples_resumable

        summary = triples_resumable(args.input, triples_dir)
        metrics["resume_summary"] = summary
    else:
        from case_uco_ontology_map_ray.pipelines.kg import (
            triples_from_transcripts,
            validated_triples,
            violation_summary,
        )

        tracker = follower = None
        if args.progress:
            import threading

            from case_uco_ontology_map_ray.state.progress import follow, start_tracker

            tracker = start_tracker()

            def _print_feed():
                for ev in follow(tracker, job="run_pipeline", timeout_s=86400):
                    print(json.dumps(ev), file=sys.stderr, flush=True)

            follower = threading.Thread(target=_print_feed, daemon=True)
            follower.start()

        def _tracked(ds, stage):
            if tracker is None:
                return ds
            from case_uco_ontology_map_ray.state.progress import track_stage

            return track_stage(ds, tracker, "run_pipeline", stage)

        if args.validate:
            vt = _tracked(validated_triples(args.input), "validated_triples").materialize()
            vt.filter(expr="violation == ''").write_parquet(triples_dir)
            metrics["violations"] = violation_summary(vt).to_dict("records")
            mention_source = vt
        else:
            _tracked(triples_from_transcripts(args.input), "triples") \
                .write_parquet(triples_dir)

        if tracker is not None:
            from case_uco_ontology_map_ray.state.progress import post_completion

            post_completion(tracker, "run_pipeline")
            follower.join(timeout=30)

    if args.canonicalize:
        from case_uco_ontology_map_ray.pipelines.kg import read_kg
        from case_uco_ontology_map_ray.pipelines.linking import canonical_entities

        if mention_source is None:
            mention_source = read_kg(triples_dir, MENTION_COLUMNS,
                                     file_extensions=["parquet"])
        entity, link = canonical_entities(mention_source)
        entity.write_parquet(f"{args.output}/entities")
        link.write_parquet(f"{args.output}/entity_links")

    metrics["wall_sec"] = round(time.perf_counter() - t0, 2)
    # triple/throughput metrics from the written output (parquet metadata
    # only — no second data pass)
    try:
        import pyarrow.parquet as pq

        rows = sum(pq.read_metadata(str(f)).num_rows
                   for f in Path(triples_dir).rglob("*.parquet"))
        metrics["triples"] = rows
        metrics["triples_per_sec"] = round(rows / metrics["wall_sec"], 1)
    except Exception:
        pass
    with open(f"{args.output}/_metrics.json", "w") as f:
        json.dump(metrics, f, indent=1)
    print(json.dumps(metrics))


if __name__ == "__main__":
    main()
