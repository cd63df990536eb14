"""Malformed-input robustness: the stage must skip garbage without dying."""

import pyarrow as pa
import pytest

from case_uco_ontology_map_ray.stages.kg_stage import TurnTriples
from case_uco_ontology_map_ray.stages.validate_stage import ValidatingTurnTriples


def _batch(rows):
    return pa.table({
        "conv_id": pa.array([r[0] for r in rows], pa.string()),
        "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
        "role": pa.array([r[2] for r in rows], pa.string()),
        "text": pa.array([r[3] for r in rows], pa.string()),
    })


BAD_ROWS = [
    ("c1", 0, "tool", "this is not json at all"),
    ("c1", 1, "tool", "{truncated json"),
    ("c1", 2, "tool", ""),
    ("c1", 3, "tool", "[]"),
    ("c1", 4, "tool", "[1, 2, 3]"),
    ("c1", 5, "tool", '{"artifact_type": null, "record": {}}'),
    ("c1", 6, "tool", '{"no_artifact_type": true, "record": {"A": 1}}'),
    ("c1", 7, "user", "ignore me"),
    ("c1", 8, "tool", '{"artifact_type": "MFT Records", "record": {"EntryNumber": 1}}'),
]


def test_turn_triples_survives_garbage():
    out = TurnTriples()(_batch(BAD_ROWS))
    df = out.to_pandas()
    # only parsable payloads yield triples; the stage never raises
    assert set(df.turn_idx.unique()) <= {5, 6, 8}
    assert (df[df.turn_idx == 8].artifact_type == "MFT Records").all()


def test_validating_stage_survives_garbage():
    out = ValidatingTurnTriples()(_batch(BAD_ROWS))
    assert out.num_rows >= 0  # no exception is the contract


def test_empty_batch():
    empty = _batch([])
    assert TurnTriples()(empty).num_rows == 0
    assert ValidatingTurnTriples()(empty).num_rows == 0


@pytest.mark.usefixtures("ray_session")
def test_new_ops_handle_empty_inputs():
    import pyarrow as pa
    import ray.data as rd

    from case_uco_ontology_map_ray.ops.text import redact_pii
    from case_uco_ontology_map_ray.pipelines.jsonld import merge_jsonld_patches

    empty_turns = rd.from_arrow(pa.table({"conv_id": pa.array([], pa.string()),
                                          "text": pa.array([], pa.string())}))
    assert redact_pii(empty_turns).count() == 0

    skel = rd.from_items([{"record_fp": "a", "jsonld": '{"@graph": []}'}])
    no_patches = rd.from_arrow(pa.table({"record_fp": pa.array([], pa.string()),
                                         "jsonld": pa.array([], pa.string())}))
    out = merge_jsonld_patches(skel, no_patches).to_pandas()
    assert len(out) == 1 and out.jsonld.iloc[0] == '{"@graph": []}'
