"""JSON-LD document output — golden parity with the reference's composed
graphs (tests/goldens/*_graph.json came from the reference's own
deterministic generator)."""

import json
from pathlib import Path

import pytest

from case_uco_ontology_map_ray.pipelines.jsonld import jsonld_for_payload
from tests.test_kg_core import MFT_PAYLOAD, PREFETCH_PAYLOAD

GOLDENS = Path(__file__).parent / "goldens"


def _norm(doc):
    return json.loads(json.dumps(doc, sort_keys=True))


@pytest.mark.parametrize("name,payload", [
    ("prefetch", PREFETCH_PAYLOAD),
    ("mft", MFT_PAYLOAD),
])
def test_jsonld_document_matches_reference_golden(name, payload):
    with open(GOLDENS / f"{name}_graph.json") as f:
        want = json.load(f)
    got = _norm(jsonld_for_payload(payload))
    assert got["@context"] == want["@context"]
    # node order and full content must match the reference's composed graph
    assert got["@graph"] == want["@graph"]


@pytest.mark.usefixtures("ray_session")
def test_jsonld_stage_over_transcripts():
    import ray.data as rd

    from case_uco_ontology_map_ray.pipelines.jsonld import jsonld_from_transcripts
    from case_uco_ontology_map_ray.sources.transcripts import conversations_table

    ds = rd.from_arrow(conversations_table(range(4), 12))
    out = jsonld_from_transcripts(ds).to_pandas()
    assert len(out) > 0
    doc = json.loads(out.jsonld.iloc[0])
    assert "@context" in doc and "@graph" in doc
    for node in doc["@graph"]:
        assert "@id" in node and "@type" in node


def test_shacl_spotcheck_clean_on_samples(ray_session):
    """CI-style SHACL-lite spot-check (SURVEY §7.4): sampled JSON-LD docs
    from the real pipeline have zero violations; an injected broken doc is
    caught. Uses pyshacl when importable, the structural RuleEngine pass
    otherwise (pyshacl is not shipped in this container)."""
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
    import json

    from shacl_spotcheck import spotcheck_doc, spotcheck_docs

    import __ray_entry__ as e

    docs_ds = e.queries()["kg_jsonld_docs"]("/root/testdata/sf0.001")
    rows = docs_ds.take(40)
    docs = [json.loads(r["jsonld"]) for r in rows]
    report = spotcheck_docs(docs)
    assert report["n_docs"] == 40
    assert report["n_violations"] == 0, report["problems"][:5]

    # negative control: dangling facet ref + non-facet ref target
    broken = {"@graph": [
        {"@id": "a", "@type": "uco-observable:File",
         "uco-core:hasFacet": [{"@id": "missing"}, {"@id": "b"}]},
        {"@id": "b", "@type": "uco-observable:File"},
    ]}
    probs = spotcheck_doc(broken)
    assert any("dangling" in p for p in probs)
    assert any("non-facet" in p for p in probs)


def test_merge_graph_into_skeleton_reference_semantics():
    from case_uco_ontology_map_ray.pipelines.jsonld import merge_graph_into_skeleton

    skeleton = {
        "@context": {"uco-core": "https://ontology.unifiedcyberontology.org/uco/core/"},
        "@graph": [
            {"@id": "kb:obs-1", "@type": "uco-observable:ObservableObject",
             "uco-core:hasFacet": [{"@id": "kb:facet-1"}]},
            {"@id": "kb:facet-1", "@type": "uco-observable:FileFacet",
             "observable:fileName": "a.exe"},
        ],
    }
    patch = {
        "@graph": [
            # adds a property + tries to rewrite @type (must be ignored)
            {"@id": "kb:facet-1", "@type": "WRONG",
             "observable:sizeInBytes": 123},
            # node not in skeleton: dropped
            {"@id": "kb:ghost", "@type": "X", "p": 1},
        ]
    }
    before = json.dumps(skeleton, sort_keys=True)
    got = merge_graph_into_skeleton(skeleton, patch)
    # purity: inputs untouched
    assert json.dumps(skeleton, sort_keys=True) == before
    by_id = {n["@id"]: n for n in got["@graph"]}
    assert set(by_id) == {"kb:obs-1", "kb:facet-1"}          # ghost dropped
    assert by_id["kb:facet-1"]["@type"] == "uco-observable:FileFacet"
    assert by_id["kb:facet-1"]["observable:sizeInBytes"] == 123
    assert by_id["kb:facet-1"]["observable:fileName"] == "a.exe"
    assert got["@context"] == skeleton["@context"]


@pytest.mark.usefixtures("ray_session")
def test_merge_jsonld_patches_patches_and_drops_orphans():
    import ray.data as rd

    from case_uco_ontology_map_ray.pipelines.jsonld import merge_jsonld_patches

    def doc(i, extra=None):
        node = {"@id": f"kb:n{i}", "@type": "T"}
        if extra:
            node.update(extra)
        return json.dumps({"@context": {}, "@graph": [node]}, sort_keys=True)

    skel = rd.from_items([
        {"record_fp": f"fp{i}", "jsonld": doc(i), "conv_id": f"c{i}",
         "turn_idx": i} for i in range(20)
    ])
    # patches for even fps only, plus one orphan patch (no skeleton)
    patch_rows = [{"record_fp": f"fp{i}", "jsonld": doc(i, {"x:p": i})}
                  for i in range(0, 20, 2)]
    patch_rows.append({"record_fp": "fp-orphan", "jsonld": doc(99, {"x:p": 99})})
    patches = rd.from_items(patch_rows)

    out_b = merge_jsonld_patches(skel, patches).to_pandas() \
        .sort_values("record_fp").reset_index(drop=True)

    assert len(out_b) == 20                             # orphan dropped
    merged = json.loads(
        out_b.loc[out_b.record_fp == "fp4", "jsonld"].iloc[0])
    assert merged["@graph"][0]["x:p"] == 4              # patched
    untouched = json.loads(
        out_b.loc[out_b.record_fp == "fp5", "jsonld"].iloc[0])
    assert "x:p" not in untouched["@graph"][0]          # pass-through
    # skeleton columns preserved
    assert list(out_b.columns) == ["record_fp", "jsonld", "conv_id", "turn_idx"]
