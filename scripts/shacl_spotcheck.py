"""Offline SHACL spot-check over a sample of the engine's JSON-LD output
(SURVEY.md §7.4: keep a real SHACL validator alongside the distilled
RuleEngine as an independent cross-check, mirroring the reference's
case-utils/pyshacl pass in ``tools.py:356-390``).

Two layers, strongest available wins:
  1. If ``pyshacl``/``rdflib`` are importable (not shipped in this
     container), the sampled documents are validated against the real UCO
     SHACL shapes graph — the authoritative check.
  2. Otherwise (default here) each sampled document is re-validated
     structurally with the distilled RuleEngine OVER THE JSON-LD DOCUMENT
     (not the triple stream), checking in addition document-level invariants
     the triple-level pass cannot see:
       - every @id is unique within the document,
       - every uco-core:hasFacet ref resolves to a node in the same doc,
       - every referenced facet node has a Facet-typed @type,
       - no node is empty (only @id/@type with no owner linking to it... a
         facet must be referenced by exactly one parent).

Usage: python scripts/shacl_spotcheck.py [sf_dir] [sample_n]
Exits non-zero on any violation. Also importable: ``spotcheck_docs(docs)``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

try:
    import pyshacl  # noqa: F401
    import rdflib  # noqa: F401

    HAVE_PYSHACL = True
except ImportError:
    HAVE_PYSHACL = False


def _pyshacl_validate(doc: dict) -> list[str]:
    """Real SHACL conformance via pyshacl (requires the UCO TTL shape graph
    on disk; see scripts/build_ontology_index.py provenance notes)."""
    import pyshacl
    import rdflib

    data = rdflib.Graph()
    data.parse(data=json.dumps(doc), format="json-ld")
    conforms, _g, text = pyshacl.validate(data)
    return [] if conforms else [text]


def _declared_props() -> dict[str, set]:
    """Map-declared property local-names per node type IRI, unioned over all
    configured frozen maps (the same legality source the inline validate
    stage uses: map-declared aliases are legal regardless of strict SHACL)."""
    from case_uco_ontology_map_ray.config import ONTOLOGY_MAPS
    from case_uco_ontology_map_ray.kg.mapper import ArtifactMapper

    declared: dict[str, set] = {}
    for omap in ONTOLOGY_MAPS.values():
        for iri, props in ArtifactMapper(omap).declared_props.items():
            declared.setdefault(iri, set()).update(props)
    return declared


def spotcheck_doc(doc: dict, engine=None, declared=None) -> list[str]:
    """Structural spot-check of one JSON-LD document. Returns violations."""
    from case_uco_ontology_map_ray.ontology.validate import RuleEngine

    engine = engine or RuleEngine()
    declared = declared if declared is not None else _declared_props()
    graph = doc.get("@graph", [])
    problems: list[str] = []

    ids = [n.get("@id") for n in graph]
    if len(ids) != len(set(ids)):
        problems.append("duplicate @id within document")
    by_id = {n["@id"]: n for n in graph if "@id" in n}

    facet_ref_count: dict[str, int] = {}
    for node in graph:
        ntype = node.get("@type", "")
        refs = node.get("uco-core:hasFacet", [])
        for ref in refs:
            rid = ref.get("@id") if isinstance(ref, dict) else ref
            target = by_id.get(rid)
            if target is None:
                problems.append(f"dangling hasFacet ref {rid}")
                continue
            facet_ref_count[rid] = facet_ref_count.get(rid, 0) + 1
            ttype = target.get("@type", "")
            if not (isinstance(ttype, str) and ttype.endswith("Facet")):
                problems.append(f"hasFacet ref {rid} -> non-facet @type {ttype}")

        # RuleEngine structural pass over the node's own properties
        props = []
        for pred, value in node.items():
            if pred in ("@id", "@type", "uco-core:hasFacet"):
                continue
            vals = value if isinstance(value, (list, tuple)) else [value]
            for v in vals:
                if isinstance(v, bool):
                    props.append((pred, "true" if v else "false", "xsd:boolean"))
                elif isinstance(v, int):
                    props.append((pred, str(v), "xsd:integer"))
                elif isinstance(v, float):
                    props.append((pred, repr(v), "xsd:decimal"))
                else:
                    props.append((pred, str(v), "xsd:string"))
        for rule, pred in engine.check_node(ntype, props,
                                            declared=declared.get(ntype)):
            problems.append(f"{node.get('@id')}: {rule} on {pred}")

    # every facet node must be referenced by exactly one parent
    for node in graph:
        ntype = node.get("@type", "")
        if isinstance(ntype, str) and ntype.endswith("Facet"):
            n = facet_ref_count.get(node.get("@id"), 0)
            if n != 1:
                problems.append(
                    f"facet {node.get('@id')} referenced {n} times (want 1)")
    return problems


def spotcheck_docs(docs: list[dict]) -> dict:
    from case_uco_ontology_map_ray.ontology.validate import RuleEngine

    engine = RuleEngine()
    declared = _declared_props()
    all_problems: list[str] = []
    for i, doc in enumerate(docs):
        if HAVE_PYSHACL:
            probs = _pyshacl_validate(doc)
        else:
            probs = spotcheck_doc(doc, engine, declared)
        all_problems.extend(f"doc[{i}]: {p}" for p in probs)
    return {"n_docs": len(docs), "n_violations": len(all_problems),
            "validator": "pyshacl" if HAVE_PYSHACL else "rule-engine-structural",
            "problems": all_problems[:50]}


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    sample_n = int(sys.argv[2]) if len(sys.argv) > 2 else 200

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")

    import __ray_entry__ as e

    docs_ds = e.queries()["kg_jsonld_docs"](sf_dir)
    # deterministic spread sample: every k-th document row
    total = docs_ds.count()
    step = max(1, total // sample_n)
    rows = docs_ds.take(sample_n * step)
    sampled = [json.loads(r["jsonld"]) for r in rows[::step]][:sample_n]

    report = spotcheck_docs(sampled)
    print(json.dumps(report, indent=2))
    ray.shutdown()
    return 1 if report["n_violations"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
