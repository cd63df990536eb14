"""End-to-end KG construction pipeline: transcripts -> triples (-> parquet).

Ray-Data-first shape (SURVEY.md §7.1 step 3):
    read_kg (read_parquet, columns pruned, no per-operator reservation)
      -> map_batches(turn_triples_fn stateless tasks, batch_format='pyarrow')
      -> [optional] write_parquet (partitioned, resumable)

The stage is record-local: no shuffle anywhere in triple construction.
Determinism: uuid5 IDs mean re-running any shard reproduces identical
triples, so the pipeline is idempotent and restart-safe.

Every per-record job here (triples, validation, coverage, JSON-LD, the
dedup fingerprint and the custom-facet signatures) reads its records from
``stages.kg_stage.tool_records``, and every triple output, the dedup
finish's included, is built by ``stages.kg_stage.TripleColumns``.
"""

from __future__ import annotations

import json

import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..functions.fingerprint import record_fingerprint
from ..functions.jsonx import loads_fast
from ..functions.process_cache import process_stage
from ..ops.agg import plain_strings
from ..stages.kg_stage import (
    TripleColumns,
    TurnTriples,
    tool_records,
    turn_triples_fn,
)

# Columns the triple stage actually needs — pruned at the read.
TRIPLE_INPUT_COLUMNS = ["conv_id", "turn_idx", "role", "text"]


def read_kg(paths: "str | list[str]", columns: list[str],
            **read_args) -> rd.Dataset:
    """``read_parquet`` for every KG job, scheduled at full width: Ray
    Data's resource reservation splits the CPUs evenly among an execution's
    operators, which holds a per-record map stage to about one task on a
    small cluster. Every Dataset derived from this one shares its copy of
    the context; the caller's ``DataContext.get_current()`` is untouched."""
    ds = rd.read_parquet(paths, columns=columns, **read_args)
    ds.context.op_resource_reservation_enabled = False
    return ds


def _transcripts(source: "str | rd.Dataset",
                 columns: list[str] = TRIPLE_INPUT_COLUMNS) -> rd.Dataset:
    return read_kg(source, columns) if isinstance(source, str) else source


def map_turns(source: "str | rd.Dataset", stage: type | None = None,
              batch_size: int = 2048) -> rd.Dataset:
    """Run a turn stage (``TurnTriples`` by default, or a class built on it)
    over the transcripts as stateless ``turn_triples_fn`` tasks."""
    return _transcripts(source).map_batches(
        turn_triples_fn,
        fn_kwargs={"stage": stage},
        batch_format="pyarrow",
        batch_size=batch_size,
        zero_copy_batch=True,
    )


def triples_from_transcripts(source: "str | rd.Dataset",
                             batch_size: int = 2048) -> rd.Dataset:
    """Build the (lazy) triples Dataset from a transcripts parquet path or
    an existing Dataset."""
    return map_turns(source, batch_size=batch_size)


TRIPLE_KEY = ["subj", "pred", "obj", "obj_dt"]


def _local_dedup(t: "pa.Table") -> "pa.Table":
    """Arrow hash-dedup on the triple key keeping the smallest lineage."""
    agg = plain_strings(t).group_by(TRIPLE_KEY).aggregate(
        [("conv_id", "min"), ("turn_idx", "min"),
         ("artifact_type", "min"), ("record_fp", "min")]
    )
    return agg.rename_columns(
        TRIPLE_KEY + ["conv_id", "turn_idx", "artifact_type", "record_fp"]
    )


def _subj_partition(t: "pa.Table", num_parts: int) -> "pa.Table":
    """Vectorized partition id from the subject uuid's first two hex chars.

    All duplicates of a triple share the subject (uuid5 of the record), so
    partitioning by subject prefix co-locates every duplicate. numpy parses
    the hex pair without a Python loop.
    """
    import numpy as np

    pref = pc.utf8_slice_codeunits(t.column("subj"), 0, 2)
    b = pref.combine_chunks().to_numpy(zero_copy_only=False).astype("S2")
    digits = b.view(np.uint8).reshape(-1, 2).astype(np.int32)
    # '0'-'9' -> 0-9, 'a'-'f' -> 10-15
    digits = np.where(digits >= 97, digits - 87, digits - 48)
    part = (digits[:, 0] * 16 + digits[:, 1]) % num_parts
    return t.append_column("__part", pa.array(part, pa.int32()))


def distinct_triples(triples: rd.Dataset, num_parts: int = 256) -> rd.Dataset:
    """Exact triple dedup (SURVEY.md §2.5 A5 generalized to triples).

    Identical records in different turns produce identical uuid5 subjects, so
    the raw triple stream contains exact duplicates differing only in lineage.
    Three-phase, shuffle-light dedup:
      1. local combiner: per-batch arrow group_by drops in-batch duplicates
         (keeps the smallest lineage);
      2. partition by subject-uuid prefix (every duplicate shares its subj) —
         the shuffle key is a single int32, far cheaper to exchange than the
         4-string triple key;
      3. per-partition arrow group_by finishes the dedup.
    Result is deterministic under any parallelism / block arrival order:
    lineage = lexicographically smallest (conv_id, turn_idx) per column.
    """
    pre = triples.map_batches(_local_dedup, batch_format="pyarrow")
    parted = pre.map_batches(
        lambda t: _subj_partition(t, num_parts), batch_format="pyarrow"
    )

    def finish(g: "pa.Table") -> "pa.Table":
        return _local_dedup(g.drop_columns(["__part"]))

    return parted.groupby("__part").map_groups(finish, batch_format="pyarrow")


def _extract_fp(t: "pa.Table", num_parts: int) -> "pa.Table":
    """Tool turns -> one row per record: (fingerprint, its 60-bit head as
    int64, record JSON, lineage), collapsed to min lineage per fingerprint
    within the batch and tagged with its partition ``fp_int % num_parts``."""
    fps, fp_ints, recs, lins = [], [], [], []
    for conv, turn, record, _atype in tool_records(t):
        fp = record_fingerprint(record)
        fps.append(fp)
        fp_ints.append(int(fp[:15], 16))  # 60-bit head, plenty for routing
        # INSERTION order, not sort_keys: property routing is
        # key-order-sensitive (last field matching a property wins,
        # ref uuid_planner.py:136-191) — e.g. EVTX's Level vs the
        # flattened artifact_type both match eventType. The
        # fingerprint above is canonical (sorted) regardless.
        recs.append(json.dumps(record))
        lins.append(f"{conv}#{turn:010d}")
    t2 = pa.table({
        "fp": pa.array(fps, pa.string()),
        "fp_int": pa.array(fp_ints, pa.int64()),
        "record": pa.array(recs, pa.string()),
        "lineage": pa.array(lins, pa.string()),
    })
    agg = t2.group_by(["fp", "fp_int"]).aggregate(
        [("record", "min"), ("lineage", "min")]
    )
    agg = agg.rename_columns(["fp", "fp_int", "record", "lineage"])
    part = pc.bit_wise_and(agg.column("fp_int"),
                           pa.scalar(num_parts - 1, pa.int64()))
    return agg.append_column("__part", part.cast(pa.int32()))


def _finish_records(g: "pa.Table") -> "pa.Table":
    """One fingerprint partition -> the triples of its unique records, with
    the worker process's ``TurnTriples`` (its mappers stay warm across
    tasks)."""
    agg = g.drop_columns(["__part"]).group_by(["fp", "fp_int"]).aggregate(
        [("record", "min"), ("lineage", "min")]
    )
    agg = agg.rename_columns(["fp", "fp_int", "record", "lineage"])
    stage = process_stage(TurnTriples)
    out = TripleColumns()
    for rec_json, lineage, fp in zip(agg.column("record").to_pylist(),
                                     agg.column("lineage").to_pylist(),
                                     agg.column("fp").to_pylist()):
        record = loads_fast(rec_json)
        atype = record.get("artifact_type")
        conv, _, turn = lineage.partition("#")
        out.add_record(stage._mapper_for(atype, record), record, conv,
                       int(turn), atype, fp=fp)
    return out.table()


def distinct_triples_by_record(source: "str | rd.Dataset",
                               num_parts: int = 64,
                               batch_size: int = 2048) -> rd.Dataset:
    """Exact-dedup triples by deduplicating RECORDS before triple expansion.

    A record deterministically yields its full triple set (uuid5), so the
    shuffle can move one row per record (~1/10th the rows and none of the
    11x triple strings) instead of the triples:

      tool turns -> (fp head as int64, payload, min lineage)  [local dedup]
        -> groupby(fp % parts) -> per-partition arrow dedup
        -> triple construction on unique records only

    Lineage = lexicographically smallest (conv_id#turn_idx) among the
    duplicate occurrences.

    Not yet equal to ``distinct_triples`` when one record occurs with its
    keys in different orders: the fingerprint sorts the keys, but property
    routing follows insertion order, so triple-level dedup keeps the union
    of the variants' triples while this keeps only the variant with the
    smallest JSON, whose lineage may name another variant's turn
    (ROADMAP.md item 4).
    """
    pre = _transcripts(source).map_batches(
        _extract_fp, fn_kwargs={"num_parts": num_parts},
        batch_format="pyarrow", batch_size=batch_size)
    return pre.groupby("__part").map_groups(_finish_records,
                                            batch_format="pyarrow")


def validated_triples(source: "str | rd.Dataset",
                      batch_size: int = 2048) -> rd.Dataset:
    """Triples + violation column (stages.validate_stage); split with
    ``.filter(expr="violation == ''")`` / ``!=``."""
    from ..stages.validate_stage import ValidatingTurnTriples

    return map_turns(source, ValidatingTurnTriples, batch_size)


def _violation_counts(t: pa.Table) -> pa.Table:
    """One block's (violation, pred) -> n over its violation rows."""
    t = plain_strings(t.select(["violation", "pred"]))
    bad = t.filter(pc.not_equal(t.column("violation"), ""))
    return bad.group_by(["violation", "pred"]).aggregate(
        [([], "count_all")]).rename_columns(["violation", "pred", "n"])


def violation_summary(validated: rd.Dataset):
    """Failure-pattern rollup (reference memory.py:21-57): (violation,
    pred) -> n over the violation rows, as pandas, most frequent first.

    Map-only: each block rolls up its own rows in Arrow and the driver sums
    the partials (a few rows per block), so the summary is one execution
    with no exchange."""
    from ..ops.agg import ensure_columns

    parts = ensure_columns(
        validated.map_batches(_violation_counts, batch_format="pyarrow",
                              batch_size=None, zero_copy_batch=True).to_pandas(),
        {"violation": "str", "pred": "str", "n": "int64"})
    out = parts.groupby(["violation", "pred"], as_index=False)["n"].sum()
    return out.sort_values(["n", "violation"], ascending=[False, True]).reset_index(drop=True)


def coverage_by_artifact_type(source: "str | rd.Dataset"):
    """A1 coverage stats: per artifact type, record count + field mapping
    coverage (partial map-side stats + global sum)."""
    from ..ops.agg import grouped_sums, round_away
    from ..stages.kg_stage import CoverageStats

    per_record = map_turns(source, CoverageStats)
    out = grouped_sums(per_record, keys=["artifact_type"],
                       sum_cols={"total_fields": "total_fields",
                                 "mapped_fields": "mapped_fields",
                                 "unmapped_fields": "unmapped_fields"},
                       count_alias="n_records")
    out["coverage"] = round_away(out.mapped_fields / out.total_fields, 4)
    return out.sort_values("artifact_type").reset_index(drop=True)


def node_counts_by_artifact_type(triples: rd.Dataset, num_parts: int = 64):
    """Distinct subjects (= emitted graph nodes) per artifact type — the
    second DuckDB-oracled KG invariant (VERDICT r4 #4): the generator's
    per-type record shape is fixed, so nodes-per-record is a schema constant
    (object + facet [+ relationship] — the rdf:type arity) and the expected
    count is SQL-counted records x that constant. Externally gates the
    skeleton builder's node allocation (M7/M8) beyond triple arity.

    Scale shape: per-batch distinct (type, subj) pairs -> partition by the
    subject-uuid prefix (all rows of one subj co-locate; the exchanged key
    is one int32) -> per-partition distinct -> tiny grouped count. The
    shuffle carries one row per (type, node) per block, never the triples.
    """
    import pandas as pd

    from ..ops.agg import grouped_sums

    def local(t: "pa.Table") -> "pa.Table":
        pairs = (plain_strings(t).select(["artifact_type", "subj"])
                 .group_by(["artifact_type", "subj"]).aggregate([]))
        return _subj_partition(pairs, num_parts)

    pre = triples.map_batches(local, batch_format="pyarrow")

    def finish(g: "pa.Table") -> "pa.Table":
        d = (g.drop_columns(["__part"])
             .group_by(["artifact_type", "subj"]).aggregate([]))
        agg = d.group_by(["artifact_type"]).aggregate([([], "count_all")])
        return agg.rename_columns(["artifact_type", "n_nodes"])

    counts = pre.groupby("__part").map_groups(finish, batch_format="pyarrow")
    out = grouped_sums(counts, keys=["artifact_type"],
                       sum_cols={"n_nodes": "n_nodes"})
    if out.empty:
        return pd.DataFrame({"artifact_type": pd.Series(dtype="str"),
                             "n_nodes": pd.Series(dtype="int64")})
    return out.sort_values("artifact_type").reset_index(drop=True)


def literal_value_counts(triples: rd.Dataset) -> "pd.DataFrame":
    """Value-level multiset of LITERAL triples: n per (artifact_type, pred,
    obj) over every non-IRI object the pipeline emits. This is the KG
    family's strongest external gate (VERDICT r4 gap #2): where the arity /
    node-count invariants check only COUNTS, the DuckDB twin of this query
    reproduces every literal VALUE by its own JSON extraction of the
    transcripts plus the same stringification rules (_emit_value,
    kg/mapper.py: str pass-through, int str(), bool true/false, float
    repr — all byte-identical to DuckDB's json_extract_string of the raw
    token), so any drift in property routing (M4/M5), value normalization
    (M10), or emission arity for any of the 48 literal (type, pred) pairs
    mismatches row-for-row. IRIs (rdf:type / hasFacet / kb: references) are
    excluded: uuid5 has no SQL twin; those are gated by the count
    invariants + goldens.

    Scale shape: per-batch filter + partial groupby count (grouped_sums),
    one small exchange keyed on (type, pred, obj); result cardinality is
    O(distinct literal values) — for a gate query collected to the driver;
    at corpus scale keep the grouped_sums_ds Dataset form instead.
    """
    import pandas as pd

    from ..ops.agg import grouped_sums

    def lit(t: "pa.Table") -> "pa.Table":
        t = plain_strings(t)
        mask = pc.not_equal(t.column("obj_dt"), "@id")
        return t.filter(mask).select(["artifact_type", "pred", "obj"])

    out = grouped_sums(triples.map_batches(lit, batch_format="pyarrow"),
                       keys=["artifact_type", "pred", "obj"], sum_cols={},
                       count_alias="n")
    if out.empty:
        return pd.DataFrame({"artifact_type": pd.Series(dtype="str"),
                             "pred": pd.Series(dtype="str"),
                             "obj": pd.Series(dtype="str"),
                             "n": pd.Series(dtype="int64")})
    return (out.sort_values(["artifact_type", "pred", "obj"])
            .reset_index(drop=True))


# one schema for every custom_facet_definitions group, empty or not
_FACET_DEF_SCHEMA = pa.schema([("artifact_type", pa.string()),
                               ("facet_name", pa.string()),
                               ("properties", pa.string()),
                               ("ttl", pa.string())])


def _facet_definition(g: pa.Table) -> pa.Table:
    """One artifact type's (artifact_type, field_sig, sample) rows -> its
    dfc-ext facet definition row, or no row when the auto-mapper maps the
    type to real UCO classes or no field is left unmapped."""
    from ..config import FALLBACK_ONTOLOGY_MAP, RESERVED_RECORD_KEYS
    from ..kg.custom_facets import generate_custom_facets
    from ..kg.mapper import ArtifactMapper
    from ..ontology.automap import build_ontology_map

    g = g.sort_by([("field_sig", "ascending"), ("sample", "ascending")])
    atype = g.column("artifact_type")[0].as_py()
    record = loads_fast(g.column("sample")[0].as_py())
    auto_map, _ = build_ontology_map(atype or "", sorted(record.keys()))
    if auto_map is not None:
        return _FACET_DEF_SCHEMA.empty_table()
    base = ArtifactMapper(FALLBACK_ONTOLOGY_MAP)
    unmapped = base.unmapped_fields(record, reserved=RESERVED_RECORD_KEYS)
    details = [{"field": f, "sampleValue": record.get(f)} for f in unmapped]
    custom, _updated, ttl = generate_custom_facets(
        details, record, atype, FALLBACK_ONTOLOGY_MAP
    )
    if not custom:
        return _FACET_DEF_SCHEMA.empty_table()
    facet_name = next(iter(custom["facetDefinitions"]))
    props = json.dumps(custom["facetDefinitions"][facet_name]["properties"],
                       sort_keys=True)
    return pa.table({"artifact_type": [atype], "facet_name": [facet_name],
                     "properties": [props], "ttl": [ttl]},
                    schema=_FACET_DEF_SCHEMA)


def _facet_signatures(t: pa.Table) -> pa.Table:
    """Tool turns -> one (artifact_type, field_sig, sample) row per type and
    field signature, for the types the frozen maps do not cover; the
    smallest sample wins."""
    from ..config import ONTOLOGY_MAPS, RESERVED_RECORD_KEYS

    atypes, sig_rows, samples = [], [], []
    for _conv, _turn, record, atype in tool_records(t):
        if atype in ONTOLOGY_MAPS:
            continue
        fields = tuple(sorted(k for k in record
                              if k not in RESERVED_RECORD_KEYS))
        atypes.append(atype or "")
        sig_rows.append(json.dumps(fields))
        samples.append(json.dumps(record, sort_keys=True))
    t2 = pa.table({"artifact_type": pa.array(atypes, pa.string()),
                   "field_sig": pa.array(sig_rows, pa.string()),
                   "sample": pa.array(samples, pa.string())})
    agg = t2.group_by(["artifact_type", "field_sig"]).aggregate([("sample", "min")])
    return agg.rename_columns(["artifact_type", "field_sig", "sample"])


def custom_facet_definitions(source: "str | rd.Dataset"):
    """T4 as a distributed aggregate: per artifact type (custom-facet path
    only), the deterministic dfc-ext facet definition + TTL stub inferred
    from that type's record schema — a groupby(artifact_type) over
    field-signature rows (reference custom_facet.py:122-222 semantics,
    computed once per type instead of per payload).

    Precedence matches TurnTriples._mapper_for: a type the deterministic
    auto-mapper (ontology/automap.py) maps to real UCO classes never reaches
    the dfc-ext path, so it emits no custom facet here either."""
    pre = _transcripts(source).map_batches(_facet_signatures,
                                           batch_format="pyarrow")
    out = pre.groupby("artifact_type").map_groups(_facet_definition,
                                                  batch_format="pyarrow")
    return out.to_pandas().sort_values("artifact_type").reset_index(drop=True)


def incremental_triples(source: "str | rd.Dataset", prior_conv_ids: rd.Dataset,
                        batch_size: int = 2048) -> rd.Dataset:
    """Delta KG construction: build triples ONLY for conversations not in
    ``prior_conv_ids`` (a Dataset with a ``conv_id`` column — typically the
    conversation set recorded by a previous run's lineage manifests).

    The prior set is excluded by a bucketed ANTI join on conv_id BEFORE the
    triple stage, so no parse/mapping work is spent on already-processed
    conversations and the prior set is never collected or broadcast (at
    10^12 turns the prior corpus is arbitrarily large). uuid5 determinism
    makes the union of prior + delta outputs identical to a full rebuild
    (the same reuse-equals-recompute argument as state/lineage resume).
    """
    from ..ops.joins import bucket_semi_join

    fresh = bucket_semi_join(_transcripts(source), prior_conv_ids,
                             on="conv_id", negate=True)
    return triples_from_transcripts(fresh, batch_size=batch_size)
