"""Tracing for the ``--trace 1`` run: spans around the package's public calls,
Ray Data's per-execution statistics, and the single-core kernel split.

Spans (name, start, end, parent) are kept in memory and written out at the
end. Ray Data executions are captured when their executor shuts down: the
executor's final ``DatasetStats`` summary is the same record that
``Dataset.stats()`` prints, taken here for every execution, including those
that run inside the package where no Dataset handle is visible.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path

EXCHANGE_WORDS = ("Sort", "Shuffle", "Aggregate", "Repartition")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.executions: list[dict] = []
        self._stack: list[int] = []
        self._undo: list = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "start": time.perf_counter(),
               "end": None, "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def wrap(self, owner, attr: str, name: str | None = None):
        """Replace ``owner.attr`` by a span-recording wrapper until ``undo``."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*a, **k):
            with self.span(name or attr):
                return orig(*a, **k)

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, orig))

    def capture_executions(self):
        from ray.data._internal.execution.streaming_executor import StreamingExecutor

        orig = StreamingExecutor.shutdown
        tracer = self

        def shutdown(ex, *a, **k):
            out = orig(ex, *a, **k)
            stats = getattr(ex, "_final_stats", None)
            if stats is not None and not getattr(ex, "_bench_seen", False):
                ex._bench_seen = True
                tracer._record(ex, stats)
            return out

        StreamingExecutor.shutdown = shutdown
        self._undo.append((StreamingExecutor, "shutdown", orig))

    def _record(self, ex, stats):
        # The final summary chains one level per operator of this execution
        # back through its parents; deeper levels belong to the executions
        # that produced its (materialized) input.
        summary = stats.to_summary()
        n_ops = sum(1 for op in ex._topology if type(op).__name__ != "InputDataBuffer")
        levels, s = [], summary
        for _ in range(n_ops):
            if s is None:
                break
            levels.append(s)
            s = s.parents[0] if s.parents else None
        ops = []
        for level in reversed(levels):
            for o in level.operators_stats:
                ops.append({
                    "name": o.operator_name,
                    "sub": bool(o.is_sub_operator),
                    "wall_s": float(o.time_total_s or 0.0),
                    "cpu_s": float((o.cpu_time or {}).get("sum", 0.0)),
                    "rows": int((o.output_num_rows or {}).get("sum", 0)),
                    "bytes": int((o.output_size_bytes or {}).get("sum", 0)),
                })
        self.executions.append({
            "dataset": str(getattr(ex, "_dataset_id", "")),
            "end": time.perf_counter(),
            "wall_s": float(summary.time_total_s or 0.0),
            "span": self._stack[-1] if self._stack else None,
            "ops": ops,
        })

    def undo(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def first(self, name: str) -> dict | None:
        return next((s for s in self.spans if s["name"] == name), None)

    def within(self, span: dict | None) -> list[dict]:
        """Executions that ended inside ``span``."""
        if span is None:
            return []
        return [e for e in self.executions
                if span["start"] <= e["end"] <= (span["end"] or float("inf"))]

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0]["start"] if self.spans else 0.0
        out = {"spans": [{**s, "start": s["start"] - t0, "end": s["end"] - t0}
                         for s in self.spans],
               "executions": [{**e, "end": e["end"] - t0} for e in self.executions]}
        path.write_text(json.dumps(out, indent=1))


def is_exchange(op: dict) -> bool:
    return any(w in op["name"] for w in EXCHANGE_WORDS)


def is_probe(execution: dict) -> bool:
    """A row-limited execution (e.g. the one ``Dataset.schema()`` runs)."""
    return any("limit" in o["name"].lower() for o in execution["ops"])


def is_kernel_op(op: dict) -> bool:
    """An operator running the triple kernel (``TurnTriples`` or its
    validating subclass, or the task form ``turn_triples_fn``)."""
    return "TurnTriples" in op["name"] or "turn_triples" in op["name"]


def runs_kernel(execution: dict) -> bool:
    return any(is_kernel_op(o) for o in execution["ops"])


def op_sum(ops: list[dict], key: str) -> float:
    return float(sum(o[key] for o in ops))


def kernel_split(input_dir: Path, max_batches: int = 16, batch_size: int = 2048) -> dict:
    """Single-core split of the triple kernel over the workload's own input
    batches, no Ray. Each step runs as its own pass over the same records;
    ``arrow_us`` is the stage's time not spent in parse, fan-out and map
    (masking, to_pylist, Arrow build) and ``validate_us`` the validating
    stage's time over the plain stage's. Times are per record."""
    import pyarrow as pa
    import pyarrow.dataset as pds

    from case_uco_ontology_map_ray.functions.fingerprint import record_fingerprint
    from case_uco_ontology_map_ray.functions.jsonx import loads_fast
    from case_uco_ontology_map_ray.kg.records import extract_records
    from case_uco_ontology_map_ray.stages.kg_stage import TurnTriples
    from case_uco_ontology_map_ray.stages.validate_stage import ValidatingTurnTriples

    batches = []
    for b in pds.dataset(str(input_dir)).to_batches(
            columns=["conv_id", "turn_idx", "role", "text"], batch_size=batch_size):
        batches.append(pa.Table.from_batches([b]))
        if len(batches) >= max_batches:
            break
    stage, vstage = TurnTriples(), ValidatingTurnTriples()
    texts = [t for b in batches for r, t in zip(b.column("role").to_pylist(),
                                                b.column("text").to_pylist())
             if r == "tool" and t]
    for b in batches:  # warm mapper caches
        stage(b)
        vstage(b)

    def timed(fn):
        t0 = time.perf_counter()
        out = fn()
        return out, time.perf_counter() - t0

    payloads, parse_s = timed(lambda: [loads_fast(t) for t in texts])
    records, fanout_s = timed(lambda: [r for p in payloads for r in extract_records(p)])
    _, fp_s = timed(lambda: [record_fingerprint(r) for r in records])
    mappers = [stage._mapper_for(r.get("artifact_type"), r) for r in records]

    def map_all():
        cols = ([], [], [], [])
        for m, r in zip(mappers, records):
            m.process_record_into(r, *cols)
        return cols

    _, map_s = timed(map_all)
    tables, stage_s = timed(lambda: [stage(b) for b in batches])
    _, vstage_s = timed(lambda: [vstage(b) for b in batches])
    n = max(1, len(records))
    triples = sum(t.num_rows for t in tables)
    return {
        "kernel.triples_per_s": triples / stage_s,
        "kernel.parse_us": parse_s / n * 1e6,
        "kernel.fanout_us": fanout_s / n * 1e6,
        "kernel.map_us": map_s / n * 1e6,
        "kernel.fingerprint_us": fp_s / n * 1e6,
        "kernel.arrow_us": (stage_s - parse_s - fanout_s - map_s) / n * 1e6,
        "kernel.validate_us": (vstage_s - stage_s) / n * 1e6,
    }
