"""One record iterator under every KG stage: every stage sees the same
records, each stage has one output schema, and hostile nesting never fails a
job."""

import json
from collections import Counter

import pyarrow as pa
import pytest

from case_uco_ontology_map_ray.functions.jsonx import loads_fast
from case_uco_ontology_map_ray.pipelines.jsonld import TurnJsonLd
from case_uco_ontology_map_ray.pipelines.kg import _extract_fp
from case_uco_ontology_map_ray.sources.transcripts import conversations_table
from case_uco_ontology_map_ray.stages.kg_stage import (
    MAX_NESTING,
    CoverageStats,
    TurnTriples,
    tool_records,
)
from case_uco_ontology_map_ray.stages.validate_stage import ValidatingTurnTriples

MFT = {"artifact_type": "MFT Records", "description": "mft", "source": "disk",
       "EntryNumber": 7, "FileName": "a.txt", "FullPath": "C:\\Users\\a.txt"}
CUSTOM = {"artifact_type": "Widget Telemetry Dump", "widget_serial": "W-1",
          "spin_rate": 12.5, "is_spinning": True}
DEEP = "[" * 900 + "1" + "]" * 900
DEEPER = "[" * 5000 + "1" + "]" * 5000


def _deep_value(lists: int) -> str:
    return ('{"artifact_type": "Widget Telemetry Dump", "widget_serial": '
            + "[" * lists + "1" + "]" * lists + "}")


# a record VALUE nested to the cap (MAX_NESTING levels with the record
# itself): it maps like any other value
DEEP_VALUE = _deep_value(MAX_NESTING - 1)
# turns that parse but must be skipped: a non-string artifact_type, a lone
# surrogate escape (orjson rejects it, the stdlib fallback accepts it), and
# a value one level past the cap (orjson parses it; the encoders downstream
# would overflow the stack at ~1000 levels)
HOSTILE_TURNS = [json.dumps({**CUSTOM, "artifact_type": t})
                 for t in (5, ["x"], {"a": 1})] + [
    json.dumps({**CUSTOM, "widget_serial": "a\ud800b"}),
    _deep_value(MAX_NESTING), _deep_value(990)]


def _batch(rows):
    return pa.table({
        "conv_id": pa.array([r[0] for r in rows], pa.string()),
        "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
        "role": pa.array([r[2] for r in rows], pa.string()),
        "text": pa.array([r[3] for r in rows], pa.string()),
    })


MIXED = _batch([
    ("c1", 0, "user", json.dumps(MFT)),  # not a tool turn
    ("c1", 1, "tool", json.dumps(MFT)),  # known type
    ("c1", 2, "tool", json.dumps(CUSTOM)),  # custom type
    ("c1", 3, "tool", json.dumps({  # multi-record payload
        "artifact_type": "MFT Records", "description": "mft", "source": "disk",
        "records": [{"EntryNumber": 1, "FileName": "b.txt"},
                    {"EntryNumber": 2, "FileName": "c.txt"}]})),
    ("c1", 4, "tool", json.dumps([{**MFT, "EntryNumber": 9}, 3])),  # bare list
    ("c1", 5, "tool", "{}"),
    ("c2", 0, "tool", '{"artifact_type": "MFT Rec'),  # malformed
    ("c2", 1, "tool", ""),
    ("c2", 2, "assistant", "done"),
])


def test_every_stage_sees_the_same_records():
    expected = [(c, t, r) for c, t, r, _ in tool_records(MIXED)]
    assert [(c, t) for c, t, _ in expected] == [
        ("c1", 1), ("c1", 2), ("c1", 3), ("c1", 3), ("c1", 4)]

    def lineage(table):
        return Counter(zip(table.column("conv_id").to_pylist(),
                           table.column("turn_idx").to_pylist(),
                           table.column("record_fp").to_pylist()))

    jsonld = lineage(TurnJsonLd()(MIXED))
    assert set(jsonld.values()) == {1} and len(jsonld) == len(expected)
    # triple stages emit many rows per record: compare the records they name
    assert set(lineage(TurnTriples()(MIXED))) == set(jsonld)
    assert set(lineage(ValidatingTurnTriples()(MIXED))) == set(jsonld)
    assert CoverageStats()(MIXED).num_rows == len(expected)
    fps = _extract_fp(MIXED, 64).column("fp").to_pylist()
    assert sorted(fps) == sorted(fp for _, _, fp in jsonld)


@pytest.mark.parametrize("stage", [TurnTriples, ValidatingTurnTriples,
                                   CoverageStats, TurnJsonLd])
def test_one_schema_per_stage(stage):
    no_tool = _batch([("c1", 0, "user", "hello"), ("c1", 1, "assistant", "hi")])
    malformed = _batch([("c1", 0, "tool", "{oops"), ("c1", 1, "tool", "[1, 2]")])
    normal = _batch([("c1", 0, "tool", json.dumps(MFT))])
    s = stage()
    schemas = [s(b).schema for b in (no_tool, malformed, normal, _batch([]))]
    assert all(sch == schemas[2] for sch in schemas), schemas
    assert s(normal).num_rows > 0


def test_deep_nesting_parses_or_is_skipped():
    depth, node = 0, loads_fast(DEEP)
    while isinstance(node, list):
        depth, node = depth + 1, node[0]
    assert (depth, node) == (900, 1)
    hostile = _batch([("h", 0, "tool", DEEP), ("h", 1, "tool", DEEPER)])
    assert list(tool_records(hostile)) == []
    for stage in (TurnTriples, ValidatingTurnTriples):
        assert stage()(hostile).num_rows == 0


def _rows(df):
    df = df.astype(str)
    return sorted(map(tuple, df[sorted(df.columns)].values.tolist()))


@pytest.mark.usefixtures("ray_session")
def test_deeply_nested_turns_do_not_fail_a_job():
    import ray.data as rd

    from case_uco_ontology_map_ray.pipelines import kg
    from case_uco_ontology_map_ray.pipelines.jsonld import jsonld_from_transcripts

    base = conversations_table(range(4), 6).select(
        ["conv_id", "turn_idx", "role", "text"])
    base = pa.concat_tables([base, _batch([("x", 0, "tool", json.dumps(CUSTOM)),
                                           ("x", 1, "tool", DEEP_VALUE)])])
    hostile = pa.concat_tables([base, _batch(
        [("h", 0, "tool", DEEP), ("h", 1, "tool", DEEPER)]
        + [("h", i, "tool", t) for i, t in enumerate(HOSTILE_TURNS, start=2)])])
    jobs = {
        "triples": kg.triples_from_transcripts,
        "validated": kg.validated_triples,
        "coverage": lambda ds: kg.map_turns(ds, CoverageStats),
        "jsonld": jsonld_from_transcripts,
        "dedup": kg.distinct_triples_by_record,
    }
    for name, job in jobs.items():
        want_df = job(rd.from_arrow(base)).to_pandas()
        want = _rows(want_df)
        got = _rows(job(rd.from_arrow(hostile)).to_pandas())
        assert got == want and want, name
        if {"conv_id", "turn_idx"} <= set(want_df.columns):
            # the record with the value nested to the cap went through
            assert ((want_df.conv_id.astype(str) == "x")
                    & (want_df.turn_idx == 1)).any(), name
    want = _rows(kg.custom_facet_definitions(rd.from_arrow(base)))
    assert _rows(kg.custom_facet_definitions(rd.from_arrow(hostile))) == want
    assert want


@pytest.mark.usefixtures("ray_session")
def test_record_value_nested_to_the_cap_goes_through_every_stage():
    """A record nested ``MAX_NESTING`` deep maps like any other record in
    every KG stage run as a Ray job: its value flattens to one literal, the
    validating stage passes it, the dedup finish rebuilds the same triples,
    and coverage, JSON-LD and the custom-facet signatures count it."""
    import ray.data as rd

    from case_uco_ontology_map_ray.pipelines import kg
    from case_uco_ontology_map_ray.pipelines.jsonld import jsonld_from_transcripts

    src = _batch([("x", 0, "tool", json.dumps(CUSTOM)), ("x", 1, "tool", DEEP_VALUE)])

    def deep_rows(df):
        return df[(df.conv_id.astype(str) == "x") & (df.turn_idx == 1)]

    triples = deep_rows(kg.triples_from_transcripts(rd.from_arrow(src)).to_pandas())
    assert ("dfc-ext:widgetSerial", "1", "xsd:integer") in set(
        map(tuple, triples[["pred", "obj", "obj_dt"]].values.tolist()))
    validated = deep_rows(kg.validated_triples(rd.from_arrow(src)).to_pandas())
    assert (validated.violation == "").all()
    cols = list(triples.columns)
    assert _rows(validated[cols]) == _rows(triples)
    dedup = deep_rows(kg.distinct_triples_by_record(rd.from_arrow(src)).to_pandas())
    assert _rows(dedup[cols]) == _rows(triples)
    assert len(deep_rows(jsonld_from_transcripts(rd.from_arrow(src)).to_pandas())) == 1
    coverage = kg.map_turns(rd.from_arrow(src), CoverageStats).to_pandas()
    assert (coverage.artifact_type == CUSTOM["artifact_type"]).sum() == 2
    facets = kg.custom_facet_definitions(rd.from_arrow(src))
    assert CUSTOM["artifact_type"] in set(facets.artifact_type)


@pytest.mark.usefixtures("ray_session")
def test_mention_columns_are_plain_strings(tmp_path):
    """A filtered dictionary column keeps its block's whole dictionary, which
    Parquet then writes into every link file."""
    import pyarrow.parquet as pq

    from case_uco_ontology_map_ray.pipelines.kg import triples_from_transcripts
    from case_uco_ontology_map_ray.pipelines.linking import mentions_from_triples

    pq.write_table(conversations_table(range(6), 12), str(tmp_path / "t.parquet"))
    mentions = mentions_from_triples(triples_from_transcripts(str(tmp_path)))
    n = 0
    for b in mentions.iter_batches(batch_format="pyarrow"):
        n += b.num_rows
        assert not any(pa.types.is_dictionary(f.type) for f in b.schema), b.schema
    assert n > 0
