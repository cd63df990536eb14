"""Stable turn ordering (per-turn text-equality invariant) + distributed
custom-facet definition aggregate."""

import json

import pytest

pytestmark = pytest.mark.usefixtures("ray_session")


def test_sorted_turns_preserves_text_under_stable_ordering(tmp_path):
    """BASELINE.json per-row invariant: per-turn text equality under stable
    (conv_id, turn_idx) ordering — round-trip through the engine's reader +
    sort must reproduce the generator's text column exactly."""
    import ray.data as rd

    from case_uco_ontology_map_ray.pipelines.kg import read_kg
    from case_uco_ontology_map_ray.sources.transcripts import (
        conversations_table,
        synthesize_transcripts,
    )

    src = str(tmp_path / "t")
    synthesize_transcripts(src, num_conversations=10, mean_turns=9,
                           conversations_per_block=3)
    got = (read_kg(src, ["conv_id", "turn_idx", "text"])
           .sort(["conv_id", "turn_idx"]).to_pandas())

    want = conversations_table(range(10), 9).to_pandas()
    want = want.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)

    assert list(got.conv_id) == list(want.conv_id)
    assert list(got.turn_idx) == list(want.turn_idx)
    assert list(got.text) == list(want.text)  # the invariant


def test_custom_facet_definitions_aggregate():
    import ray.data as rd

    from case_uco_ontology_map_ray.pipelines.kg import custom_facet_definitions
    from case_uco_ontology_map_ray.sources.transcripts import conversations_table

    ds = rd.from_arrow(conversations_table(range(8), 12))
    out = custom_facet_definitions(ds)
    by_type = dict(zip(out.artifact_type, out.facet_name))
    assert by_type["MFT Record"] == "MftRecordExtensionFacet"
    assert by_type["IoT Sensor Reading"] == "IotSensorReadingExtensionFacet"
    # frozen-map types are not in the custom path
    assert "MFT Records" not in by_type
    for ttl in out.ttl:
        assert "rdfs:subClassOf uco-core:Facet" in ttl
    props = json.loads(out[out.artifact_type == "IoT Sensor Reading"].properties.iloc[0])
    assert "dfc-ext:temperature" in props
    assert props["dfc-ext:temperature"]["dataType"] == "xsd:decimal"


def test_facet_definition_groups_share_one_schema():
    """An auto-mapped type's group (no facet row) and a dfc-ext type's group
    (one facet row) produce blocks of the same schema."""
    import pyarrow as pa

    from case_uco_ontology_map_ray.pipelines.kg import _facet_definition

    def group(atype, record):
        fields = sorted(k for k in record if k != "artifact_type")
        return pa.table({"artifact_type": [atype],
                         "field_sig": [json.dumps(fields)],
                         "sample": [json.dumps(record, sort_keys=True)]})

    auto = _facet_definition(group("Browser URL history records", {
        "artifact_type": "Browser URL history records",
        "URL": "https://intranet.corp/a", "PageTitle": "A", "VisitCount": 3,
        "FirstVisitTime": "2025-03-01T08:00:00Z",
        "LastVisitTime": "2025-03-01T10:00:00Z", "BrowserName": "Chrome"}))
    custom = _facet_definition(group("Widget Telemetry Dump", {
        "artifact_type": "Widget Telemetry Dump", "widget_serial": "W-1",
        "spin_rate": 12.5, "is_spinning": True}))
    assert auto.num_rows == 0 and custom.num_rows == 1
    assert auto.schema == custom.schema


def test_relationship_triples_emitted_from_transcripts():
    """Live relationship path: prefetch records carry a Contained_Within
    ObservableRelationship slot (config.ONTOLOGY_MAPS propertyFieldMap ->
    relationship slug routing, reference uuid_planner.py:260-265 +
    graph_generator.py:292 payload gating)."""
    from case_uco_ontology_map_ray.sources.transcripts import conversations_table
    from case_uco_ontology_map_ray.stages.kg_stage import TurnTriples

    tab = conversations_table(range(6), 12)
    df = TurnTriples()(tab).to_pandas()
    for c in ("pred", "obj", "artifact_type"):
        if str(df[c].dtype) == "category" or df[c].dtype == object:
            df[c] = df[c].astype(str)

    rel_nodes = df[(df.pred == "rdf:type")
                   & (df.obj == "uco-observable:ObservableRelationship")]
    assert len(rel_nodes) > 0
    # every relationship node carries core:source and core:target payload
    srcs = df[df.pred == "core:source"]
    tgts = df[df.pred == "core:target"]
    assert set(rel_nodes.subj) == set(srcs.subj) == set(tgts.subj)
    # and only prefetch records produce them
    assert set(rel_nodes.artifact_type) == {
        "Windows Prefetch execution cache records"}
    # validated stage keeps them clean (no placement/unknown-property flags)
    from case_uco_ontology_map_ray.stages.validate_stage import (
        ValidatingTurnTriples,
    )

    vdf = ValidatingTurnTriples()(tab).to_pandas()
    vrel = vdf[vdf.pred.astype(str).isin(["core:source", "core:target"])]
    assert len(vrel) > 0 and (vrel.violation == "").all()
