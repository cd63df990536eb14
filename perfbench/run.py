"""Benchmark of the CASE/UCO KG engine on the CPUs this process may use.

    python3 perfbench/run.py --workload flagship --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Generates (or reuses) the workload's input
from the seed, brings Ray up with the checkout's package on its workers,
runs the workload's job in a closed loop for ``--seconds`` (whole jobs, at
least one), checks every job's output apart from the program, and prints
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones from one traced job. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import importlib.util
import json
import os
import pickle
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import procstat

SETUP_CYCLES = 2
OBJECT_STORE_BYTES = 512 << 20
# AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets at
# <temp_dir>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store, 64
# bytes after <temp_dir> for a 7-digit pid.
_RAY_SOCKET_SUFFIX = 64
_PR_SET_CHILD_SUBREAPER = 36


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _parquet_stats(d: Path) -> tuple[int, int, int]:
    """(rows, bytes, files) of the Parquet files below ``d``."""
    import pyarrow.parquet as pq

    rows = size = files = 0
    for f in d.rglob("*.parquet"):
        rows += pq.read_metadata(str(f)).num_rows
        size += f.stat().st_size
        files += 1
    return rows, size, files


def _between_jobs():
    """Start the next job from a settled driver. The finished job's Datasets
    and actor pools are freed now: left to the cyclic collector, the actors
    of one run_pipeline.main call hold CPUs and stalled the next call by
    ~20 s. Freed heap goes back to the OS, so each job's peak memory does not
    depend on what earlier jobs left in the allocator."""
    gc.collect()
    ctypes.CDLL(None).malloc_trim(0)


def _end_children() -> None:
    """Wait until every process below this one has ended; kill what is left
    after the wait."""
    left = procstat.wait_for_children()
    if left:
        print(f"perfbench: killing processes {left} left after the run",
              file=sys.stderr)
        for pid in left:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        procstat.wait_for_children()


class Checker:
    """perfbench/checks.py in a process of its own, called like a module:
    DuckDB's memory and CPU never show in the driver."""

    def __init__(self, *init_args):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("checks.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.call("init_worker", *init_args)

    def call(self, name: str, *args):
        pickle.dump((name, args), self.proc.stdin)
        self.proc.stdin.flush()
        ok, value = pickle.load(self.proc.stdout)
        if not ok:
            raise RuntimeError(f"checks.{name} failed:\n{value}")
        return value

    def close(self):
        with contextlib.suppress(OSError):
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _worker_package_file(batch):
    import pyarrow as pa

    import case_uco_ontology_map_ray as pkg

    return pa.table({"file": [pkg.__file__] * batch.num_rows})


class Bench:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root, self.workload, self.seed = root, workload, seed
        self.tmp = root / ".bench_tmp" / f"run-{os.getpid()}"
        self.ncpu = len(os.sched_getaffinity(0))
        # Ray's session files stay in the checkout when its socket paths fit
        self.ray_temp = None
        if len(str(root / ".bench_tmp")) + _RAY_SOCKET_SUFFIX <= 107:
            self.ray_temp = root / ".bench_tmp"
        self.keep: frozenset = frozenset()

    # ------------------------------------------------------------ set-up
    def ray_up(self) -> float:
        """Start Ray, check its workers import this checkout's package, run
        one tiny job; return the seconds taken."""
        import ray
        import ray.data as rd

        t0 = time.perf_counter()
        ray.init(address="local", num_cpus=self.ncpu,
                 object_store_memory=OBJECT_STORE_BYTES,
                 include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False,
                 _temp_dir=str(self.ray_temp) if self.ray_temp else None)
        ctx = rd.DataContext.get_current()
        ctx.enable_progress_bars = False
        files = set(rd.range(self.ncpu, override_num_blocks=self.ncpu)
                    .map_batches(_worker_package_file, batch_format="pyarrow")
                    .to_pandas()["file"])
        for f in files:
            if not Path(f).resolve().is_relative_to(self.root):
                raise RuntimeError(f"Ray workers import the package from {f}, "
                                   f"outside {self.root}")
        return time.perf_counter() - t0

    def ray_down(self):
        import ray

        ray.shutdown()
        left = procstat.wait_for_children(self.keep)
        if left:
            raise RuntimeError(f"processes {left} outlived ray.shutdown")

    # -------------------------------------------------------------- jobs
    def load_entry_point(self):
        """scripts/run_pipeline.py as a module; it prepends a fixed path to
        sys.path on import, which is undone here."""
        saved = list(sys.path)
        spec = importlib.util.spec_from_file_location(
            "run_pipeline", self.root / "scripts" / "run_pipeline.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        sys.path[:] = saved
        return mod

    def job(self, inp: Path, out: Path, tracer=None):
        """One job of the workload; returns (seconds, triples written,
        Parquet bytes written)."""
        import ray

        from case_uco_ontology_map_ray.pipelines import kg, linking

        span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
        t0 = time.perf_counter()
        if self.workload == "flagship":
            argv, shutdown = sys.argv, ray.shutdown
            sys.argv = ["run_pipeline.py", "--input", str(inp), "--output", str(out),
                        "--validate", "--canonicalize", "--num-cpus", str(self.ncpu)]
            ray.shutdown = lambda *a, **k: None  # keep Ray up for the next job
            try:
                with contextlib.redirect_stdout(sys.stderr), span("run_pipeline.main"):
                    self.entry.main()
            finally:
                sys.argv, ray.shutdown = argv, shutdown
            counted = out / "triples"
        elif self.workload == "dedup":
            with span("distinct_triples_by_record"):
                ds = kg.distinct_triples_by_record(str(inp))
            with span("write_parquet"):
                ds.write_parquet(str(out / "triples"))
            counted = out / "triples"
        else:
            with span("triples_from_transcripts"):
                triples = kg.triples_from_transcripts(str(inp))
                if tracer:  # split the triple stage from canonicalization
                    triples = triples.materialize()
            with span("canonical_entities"):
                entity, link = linking.canonical_entities(triples)
            with span("write_entities"):
                entity.write_parquet(str(out / "entities"))
            with span("write_links"):
                link.write_parquet(str(out / "entity_links"))
            counted = out / "entity_links"
        seconds = time.perf_counter() - t0
        rows = _parquet_stats(counted)[0]
        size = _parquet_stats(out)[1]
        return seconds, rows, size

    # ------------------------------------------------------------- main
    def run(self, seconds: int, trace: bool) -> dict:
        import_s = procstat.process_age_s()
        import gen

        inp, meta, gen_s = gen.ensure_inputs(self.root, self.workload, self.seed)
        print(f"perfbench: input {inp} ({meta['turns']} turns, generated in "
              f"{gen_s:.2f} s)", file=sys.stderr)
        if self.workload == "flagship":
            self.entry = self.load_entry_point()
        self.tmp.mkdir(parents=True, exist_ok=True)
        attempted = failed = 0
        self.checker = Checker(str(inp), str(self.root / "tests" / "goldens"), meta)
        self.keep = frozenset({self.checker.proc.pid})  # outlives Ray
        try:
            self.unique_records = self.checker.call("unique_records")
            setups = []
            for i in range(1 if trace else SETUP_CYCLES):
                if i:
                    self.ray_down()
                setups.append(self.ray_up())
            # untimed: a run's first job was up to a third slower than the
            # next, which made the median depend on how many jobs a run fits
            self.job(inp, self.tmp / "warmup")
            shutil.rmtree(self.tmp / "warmup", ignore_errors=True)
            _between_jobs()
            if trace:
                metrics, results = self.traced(inp)
            else:
                metrics, results = self.loop(inp, seconds)
                metrics["setup_s"] = (import_s + statistics.median(setups), "s")
            for name, ok, detail in results:
                attempted += 1
                failed += not ok
                if not ok:
                    print(f"perfbench: check {name} FAILED: {detail}", file=sys.stderr)
        finally:
            try:
                self.ray_down()
            finally:
                self.checker.close()
                _end_children()
                shutil.rmtree(self.tmp, ignore_errors=True)
                if self.ray_temp:
                    for s in self.ray_temp.glob("session_*"):
                        if s.is_symlink():
                            s.unlink()
                        else:
                            shutil.rmtree(s, ignore_errors=True)
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}

    def check(self, out: Path) -> list[tuple]:
        return self.checker.call("check_job", self.workload, str(out))

    def loop(self, inp: Path, seconds: int):
        jobs, results = [], []
        _between_jobs()
        t_start = time.perf_counter()
        while True:
            out = self.tmp / f"job{len(jobs)}"
            with procstat.Sampler() as s:
                job_s, rows, size = self.job(inp, out)
            ok = rows > 0
            results.append(("job", ok, f"{rows} triples written"))
            results.extend(self.check(out))
            shutil.rmtree(out, ignore_errors=True)
            jobs.append({"job_s": job_s, "rows": rows, "bytes": size,
                         "cpu_s": s.cpu_s(), "rss": s.peak_rss})
            _between_jobs()
            elapsed = time.perf_counter() - t_start
            if elapsed + statistics.median(j["job_s"] for j in jobs) > seconds:
                break
        med = lambda k: statistics.median(j[k] for j in jobs)
        metrics = {
            "job_s": (med("job_s"), "s"),
            "triples_per_s": (statistics.median(j["rows"] / j["job_s"] for j in jobs), "1/s"),
            "cpu_s": (med("cpu_s"), "s"),
            "output_bytes_per_triple": (statistics.median(
                j["bytes"] / max(1, j["rows"]) for j in jobs), "B"),
            "driver_peak_rss_mb": (med("rss") / 2**20, "MB"),
        }
        print(f"perfbench: {len(jobs)} jobs, job_s "
              f"{[round(j['job_s'], 3) for j in jobs]}, driver MB "
              f"{[round(j['rss'] / 2**20) for j in jobs]}", file=sys.stderr)
        return metrics, results

    def traced(self, inp: Path):
        import pyarrow.parquet as pq
        import ray.data as rd
        import spans as tr

        from case_uco_ontology_map_ray.pipelines import kg, linking

        tracer = tr.Tracer()
        tracer.capture_executions()
        m: dict[str, tuple] = {}
        out = self.tmp / "traced"
        if self.workload == "flagship":
            for attr in ("validated_triples", "violation_summary",
                         "triples_from_transcripts"):
                tracer.wrap(kg, attr)
            tracer.wrap(linking, "canonical_entities")
        try:
            with tracer.span("job") as job_span:
                job_s, rows, size = self.job(inp, out, tracer)
        finally:
            tracer.undo()
            tracer.capture_executions()
        job_execs = [e for e in tracer.within(job_span)
                     if not any("_worker_package_file" in o["name"] for o in e["ops"])]
        results = [("job", rows > 0, f"{rows} triples written")]
        results += self.check(out)
        _between_jobs()  # free the job's actors before the measurements below
        m["trace.job_s"] = (job_s, "s")
        m["ray.executions"] = (len(job_execs), "count")

        # job composition (flagship)
        def start(name):
            s = tracer.first(name)
            return s["start"] if s else None

        main_span = tracer.first("run_pipeline.main")
        v0, vs = start("validated_triples"), tracer.first("violation_summary")
        ce = start("canonical_entities")
        m["flagship.triple_passes"] = (sum(
            1 for e in job_execs if tr.runs_kernel(e) and not tr.is_probe(e))
            if main_span else 0, "count")
        m["flagship.validate_write_s"] = (vs["start"] - v0 if main_span and vs and v0
                                          else 0.0, "s")
        m["flagship.violation_summary_s"] = (vs["end"] - vs["start"]
                                             if main_span and vs else 0.0, "s")
        m["flagship.canonicalize_s"] = (main_span["end"] - ce
                                        if main_span and ce else 0.0, "s")

        # validation stage (operators running the validating kernel)
        vops = [o for e in job_execs for o in e["ops"]
                if "ValidatingTurnTriples" in o["name"]]
        vw, vc = tr.op_sum(vops, "wall_s"), tr.op_sum(vops, "cpu_s")
        m["validate_stage.wall_s"] = (vw, "s")
        m["validate_stage.cpu_s"] = (vc, "s")
        m["validate_stage.busy_cpus"] = (vc / vw if vw else 0.0, "cpus")

        # exact dedup: operators before / at / after the exchange
        dedup_execs = (tracer.within(tracer.first("write_parquet"))
                       if self.workload == "dedup" else [])
        local, exch, finish = [], [], []
        for e in dedup_execs:
            seen = False
            for o in e["ops"]:
                if tr.is_exchange(o):
                    seen = True
                    exch.append(o)
                elif o["name"].startswith("ReadParquet"):
                    continue
                else:
                    (finish if seen else local).append(o)
        m["dedup.local_s"] = (tr.op_sum(local, "wall_s"), "s")
        m["dedup.local_cpu_s"] = (tr.op_sum(local, "cpu_s"), "s")
        m["dedup.exchange_s"] = (tr.op_sum(exch, "wall_s"), "s")
        m["dedup.exchange_bytes"] = (local[-1]["bytes"] if local else 0, "B")
        m["dedup.finish_cpu_s"] = (tr.op_sum(finish, "cpu_s"), "s")
        m["dedup.shuffled_rows_per_unique_record"] = (
            local[-1]["rows"] / self.unique_records if local else 0.0, "ratio")

        # canonicalization: inside run_pipeline.main (flagship), or after
        # the triples were materialized (canonicalize)
        cs = tracer.first("canonical_entities")
        ce_execs = [e for e in tracer.within(cs) if not tr.is_probe(e)]
        mentions = ce_execs[0] if ce_execs else None
        paths = ce_execs[1] if len(ce_execs) > 1 else None
        links = [e for e in job_execs
                 if any("link_join" in o["name"] for o in e["ops"])]
        if self.workload == "canonicalize":
            ts = tracer.first("triples_from_transcripts")
            triples_s = ts["end"] - ts["start"]
        else:  # the triple pass runs inside the mention execution
            triples_s = tr.op_sum([o for o in mentions["ops"] if tr.is_kernel_op(o)],
                                  "wall_s") if mentions else 0.0
        m["canon.triples_s"] = (triples_s, "s")
        m["canon.mentions_s"] = (mentions["wall_s"] if mentions else 0.0, "s")
        m["canon.distinct_paths_s"] = (paths["wall_s"] if paths else 0.0, "s")
        m["canon.lsh_s"] = ((cs["end"] - paths["end"]) if paths else 0.0, "s")
        m["canon.link_s"] = (float(sum(e["wall_s"] for e in links)), "s")
        m["canon.mentions"] = (mentions["ops"][-1]["rows"] if mentions else 0, "count")
        m["canon.distinct_paths"] = (paths["ops"][-1]["rows"] if paths else 0, "count")
        m["canon.entities"] = (len(set(pq.read_table(
            str(out / "entities"), columns=["canonical_id"])
            .column("canonical_id").to_pylist())) if cs else 0, "count")

        # write: the job's main output re-written through the Parquet sink
        counted = out / ("entity_links" if self.workload == "canonicalize" else "triples")
        _, wbytes, wfiles = _parquet_stats(out)
        staged = rd.read_parquet(str(counted)).materialize()
        t0 = time.perf_counter()
        staged.write_parquet(str(self.tmp / "rewrite"))
        m["write.wall_s"] = (time.perf_counter() - t0, "s")
        m["write.bytes"] = (wbytes, "B")
        m["write.files"] = (wfiles, "count")
        del staged

        # the Ray triple stage alone (read + kernel), materialized
        n0 = len(tracer.executions)
        with tracer.span("triples_stage"):
            kg.triples_from_transcripts(str(inp)).materialize()
        tops = [o for e in tracer.executions[n0:] for o in e["ops"]]
        kops = [o for o in tops if tr.is_kernel_op(o)]
        rops = [o for o in tops if o["name"].startswith("ReadParquet")]
        kw, kc = tr.op_sum(kops, "wall_s"), tr.op_sum(kops, "cpu_s")
        m["triples_stage.wall_s"] = (kw, "s")
        m["triples_stage.cpu_s"] = (kc, "s")
        m["triples_stage.busy_cpus"] = (kc / kw if kw else 0.0, "cpus")
        krows = sum(o["rows"] for o in kops)
        m["triples_stage.bytes_per_triple"] = (
            sum(o["bytes"] for o in kops) / krows if krows else 0.0, "B")
        m["read.wall_s"] = (tr.op_sum(rops, "wall_s"), "s")
        m["read.bytes"] = (sum(o["bytes"] for o in rops), "B")

        # the second exact-dedup implementation on the same input
        if self.workload == "dedup":
            with tracer.span("distinct_triples") as sp:
                kg.distinct_triples(kg.triples_from_transcripts(str(inp))) \
                    .write_parquet(str(self.tmp / "by_triple"))
            m["dedup.by_triple_s"] = (sp["end"] - sp["start"], "s")
        else:
            m["dedup.by_triple_s"] = (0.0, "s")

        m.update({k: (v, "us" if k.endswith("_us") else "1/s")
                  for k, v in tr.kernel_split(inp).items()})
        tracer.undo()
        spans_file = (self.root / ".bench_out" /
                      f"spans-{self.workload}-s{self.seed}-{os.getpid()}.json")
        tracer.write(spans_file)
        print(f"perfbench: spans written to {spans_file}", file=sys.stderr)
        return m, results


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["flagship", "dedup", "canonicalize"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    # orphans of the processes Ray starts are re-parented to this process,
    # not to init, so the run can wait for every one of them before it exits
    ctypes.CDLL(None).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    root = Path.cwd().resolve()
    if not (root / "case_uco_ontology_map_ray" / "__init__.py").is_file():
        _fail(f"no case_uco_ontology_map_ray package in {root}; run from a checkout root")
    if not (root / "scripts" / "run_pipeline.py").is_file():
        _fail(f"no scripts/run_pipeline.py in {root}")
    sys.path.insert(0, str(root))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(root)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    import ray.data  # noqa: F401  (imports count towards set-up time)

    import case_uco_ontology_map_ray as pkg
    import case_uco_ontology_map_ray.pipelines.kg  # noqa: F401
    import case_uco_ontology_map_ray.pipelines.linking  # noqa: F401

    if not Path(pkg.__file__).resolve().is_relative_to(root):
        _fail(f"package resolved to {pkg.__file__}, outside {root}")
    result = Bench(root, args.workload, args.seed).run(args.seconds, bool(args.trace))
    print(json.dumps(result))
    sys.exit(0 if result["failed"] == 0 else 1)


if __name__ == "__main__":
    main()
