"""End-to-end Ray Data pipeline tests: synthesize transcripts -> triples."""

import json

import pyarrow as pa
import pytest

from case_uco_ontology_map_ray.kg.mapper import ArtifactMapper
from case_uco_ontology_map_ray.kg.records import extract_records
from case_uco_ontology_map_ray.config import ONTOLOGY_MAPS
from case_uco_ontology_map_ray.sources.transcripts import (
    SCHEMA,
    conversations_table,
    generate_conversation,
)
from case_uco_ontology_map_ray.stages.kg_stage import TurnTriples


def test_generator_is_deterministic_and_schema_conformant():
    t1 = conversations_table(range(5))
    t2 = conversations_table(range(5))
    assert t1.equals(t2)
    assert t1.schema.equals(SCHEMA)
    # turn_idx dense from 0 within each conversation
    conv0 = t1.filter(pa.compute.equal(t1["conv_id"], "conv-00000001"))
    idx = conv0["turn_idx"].to_pylist()
    assert idx == list(range(len(idx)))


def test_turn_triples_stage_matches_direct_mapper():
    """The Ray stage must emit exactly what the core mapper emits per record."""
    table = conversations_table([3, 4])
    stage = TurnTriples()
    out = stage(table)
    got = set(
        zip(
            out["subj"].to_pylist(),
            out["pred"].to_pylist(),
            out["obj"].to_pylist(),
            out["obj_dt"].to_pylist(),
        )
    )

    # recompute directly from the payloads
    want = set()
    mappers = {a: ArtifactMapper(m) for a, m in ONTOLOGY_MAPS.items()}
    for text, role in zip(table["text"].to_pylist(), table["role"].to_pylist()):
        if role != "tool":
            continue
        payload = json.loads(text)
        atype = payload["artifact_type"]
        for rec in extract_records(payload):
            if atype in mappers:
                _, trips = mappers[atype].process_record(rec)
                want.update(trips)
    # direct mapper covers only the frozen-map artifact types; the stage also
    # emits custom-facet triples for the other types
    assert want <= got
    assert len(got) > len(want)
    # lineage columns present and plausible
    assert set(out["conv_id"].to_pylist()) == {"conv-00000003", "conv-00000004"}


def test_stage_idempotent_across_instances():
    table = conversations_table([7])
    a = TurnTriples()(table)
    b = TurnTriples()(table)
    assert a.equals(b)


@pytest.mark.usefixtures("ray_session")
def test_pipeline_end_to_end(tmp_path):
    import ray.data as rd

    from case_uco_ontology_map_ray.pipelines.kg import (
        distinct_triples,
        triples_from_transcripts,
    )
    from case_uco_ontology_map_ray.sources.transcripts import synthesize_transcripts

    src = str(tmp_path / "transcripts")
    synthesize_transcripts(src, num_conversations=12, mean_turns=9)

    triples = triples_from_transcripts(src, batch_size=512)
    out_dir = str(tmp_path / "triples")
    triples.write_parquet(out_dir)

    back = rd.read_parquet(out_dir)
    n = back.count()
    assert n > 0
    raw_df = back.to_pandas()
    # structural invariants (FIXTURES.md §5) on the deduplicated triple set
    # (identical records in different turns deterministically produce the
    # same subjects — exact duplicates, removed by distinct_triples)
    df = distinct_triples(rd.read_parquet(out_dir)).to_pandas()
    types = df[df.pred == "rdf:type"].groupby("subj").size()
    assert (types == 1).all()
    # no empty objects
    assert (df.obj.str.len() > 0).all()
    # parent objects carry only rdf:type + hasFacet preds
    parents = set(df[df.pred == "uco-core:hasFacet"].subj)
    parent_preds = set(df[df.subj.isin(parents)].pred)
    assert parent_preds <= {"rdf:type", "uco-core:hasFacet"}
    # deterministic re-run yields the identical triple set
    again = triples_from_transcripts(src, batch_size=512).to_pandas()
    key = ["subj", "pred", "obj", "obj_dt", "conv_id", "turn_idx"]
    assert set(map(tuple, again[key].values.tolist())) == set(
        map(tuple, raw_df[key].values.tolist())
    )

    # record-level dedup (shuffle-before-expansion) emits the same triple
    # key set as triple-level dedup
    from case_uco_ontology_map_ray.pipelines.kg import distinct_triples_by_record

    br = distinct_triples_by_record(src).to_pandas()
    tkey = ["subj", "pred", "obj", "obj_dt"]
    assert set(map(tuple, br[tkey].values.tolist())) == set(
        map(tuple, df[tkey].values.tolist())
    )


@pytest.mark.usefixtures("ray_session")
def test_kg_reads_schedule_at_full_width_in_their_own_context(tmp_path):
    """Datasets built from a transcripts path run with Ray Data's
    per-operator resource reservation off; the process-wide DataContext and
    a Dataset the caller passes in keep their own setting. Lazy: nothing
    executes."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from case_uco_ontology_map_ray.pipelines.kg import (
        distinct_triples_by_record,
        triples_from_transcripts,
        validated_triples,
    )
    from case_uco_ontology_map_ray.sources.transcripts import conversations_table

    builds = (triples_from_transcripts, validated_triples,
              distinct_triples_by_record)
    tab = conversations_table(range(2), 4)
    pq.write_table(tab, tmp_path / "part-0.parquet")
    before = rd.DataContext.get_current().op_resource_reservation_enabled
    for build in builds:
        assert build(str(tmp_path)).context.op_resource_reservation_enabled is False
    assert rd.DataContext.get_current().op_resource_reservation_enabled is before

    given = rd.from_arrow(tab)
    own = given.context.op_resource_reservation_enabled
    for build in builds:
        build(given)
    assert given.context.op_resource_reservation_enabled is own


def test_incremental_triples_union_equals_full_rebuild():
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from case_uco_ontology_map_ray.pipelines.kg import (
        incremental_triples,
        triples_from_transcripts,
    )
    from case_uco_ontology_map_ray.sources.transcripts import conversations_table

    tab = conversations_table(range(8), 10)
    ds = rd.from_arrow(tab)
    full = triples_from_transcripts(ds).to_pandas()

    convs = sorted(set(tab.column("conv_id").to_pylist()))
    prior_set = convs[::2]
    prior = rd.from_arrow(pa.table({"conv_id": pa.array(prior_set, pa.string())}))
    prior_triples = full[full.conv_id.isin(prior_set)]
    delta = incremental_triples(ds, prior).to_pandas()

    # the delta covers exactly the non-prior conversations...
    assert set(delta.conv_id) == set(convs) - set(prior_set)
    # ...and prior + delta reproduces the full rebuild bit-for-bit (uuid5
    # determinism: reuse == recompute)
    cols = list(full.columns)

    def plain(df):
        # dictionary-encoded Arrow columns arrive as categoricals with
        # per-frame category sets; compare as plain strings
        out = df[cols].astype({c: "str" for c in cols if df[c].dtype.name
                               == "category"})
        return out.sort_values(cols).reset_index(drop=True)

    pd.testing.assert_frame_equal(
        plain(pd.concat([prior_triples, delta])), plain(full))


@pytest.mark.usefixtures("ray_session")
def test_literal_value_counts(tmp_path):
    """literal_value_counts is the literal slice of the triple multiset:
    no IRI rows, totals match a direct pandas group-count of the same
    filter, and every (type, pred) in the arity table with a literal dt
    appears."""
    import pandas as pd

    from case_uco_ontology_map_ray.pipelines.kg import (
        literal_value_counts,
        triples_from_transcripts,
    )
    from case_uco_ontology_map_ray.sources.transcripts import synthesize_transcripts

    src = str(tmp_path / "transcripts")
    synthesize_transcripts(src, num_conversations=10, mean_turns=9)

    tri = triples_from_transcripts(src, batch_size=512)
    got = literal_value_counts(tri)
    df = tri.to_pandas()
    for c in ("artifact_type", "pred", "obj", "obj_dt"):
        if df[c].dtype.name == "category":
            df[c] = df[c].astype(str)
    lit = df[df.obj_dt != "@id"]
    want = (lit.groupby(["artifact_type", "pred", "obj"]).size()
            .rename("n").reset_index()
            .sort_values(["artifact_type", "pred", "obj"])
            .reset_index(drop=True))
    assert got.n.sum() == len(lit)
    pd.testing.assert_frame_equal(
        got.astype({"n": "int64"}), want.astype({"n": "int64"}))
    # no IRI predicate leaks into the literal surface
    assert "rdf:type" not in set(got.pred)
    assert "uco-core:hasFacet" not in set(got.pred)
