"""JSON-LD document output — the reference's native output model (§1.4).

A user of the reference receives ``{"@context": {...}, "@graph": [nodes]}``
per payload. This pipeline reconstructs those documents from transcripts:
one JSON-LD document row per artifact record (or per payload via
``jsonld_for_payload``), golden-tested byte-for-byte (modulo key order)
against the reference's composed graphs.
"""

from __future__ import annotations

import json

import pyarrow as pa
import pyarrow.compute as pc

from ..config import DEFAULT_CONTEXT
from ..kg.records import extract_records
from ..stages.kg_stage import TurnTriples, tool_records
from .kg import map_turns


def nodes_to_graph(node_order: list[str], nodes: dict[str, dict]) -> list[dict]:
    """Engine node map -> reference-shaped @graph node list (@id first,
    hasFacet refs as [{"@id": ...}])."""
    out = []
    for su in node_order:
        node = nodes.get(su)
        if node is None:
            continue
        doc = {"@id": su}
        for k, v in node.items():
            if k == "uco-core:hasFacet":
                doc[k] = [{"@id": fu} for fu in v]
            else:
                doc[k] = v
        out.append(doc)
    return out


def jsonld_for_payload(payload: dict | list, stage: TurnTriples | None = None) -> dict:
    """One payload (possibly multi-record) -> one JSON-LD document, matching
    the reference's deterministic composer output."""
    stage = stage or TurnTriples()
    graph: list[dict] = []
    for record in extract_records(payload):
        mapper = stage._mapper_for(record.get("artifact_type"), record)
        _fp, node_order, nodes = mapper.compose_nodes(record)
        graph.extend(nodes_to_graph(node_order, nodes))
    return {"@context": DEFAULT_CONTEXT, "@graph": graph}


class TurnJsonLd(TurnTriples):
    """Stage: tool turns -> one JSON-LD document row per record."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        fps, docs, convs, turns = [], [], [], []
        for conv, turn, record, atype in tool_records(batch):
            mapper = self._mapper_for(atype, record)
            fp, node_order, nodes = mapper.compose_nodes(record)
            doc = {"@context": DEFAULT_CONTEXT,
                   "@graph": nodes_to_graph(node_order, nodes)}
            fps.append(fp)
            docs.append(json.dumps(doc, sort_keys=True))
            convs.append(conv)
            turns.append(turn)
        return pa.table({
            "record_fp": pa.array(fps, pa.string()),
            "jsonld": pa.array(docs, pa.string()),
            "conv_id": pa.array(convs, pa.string()),
            "turn_idx": pa.array(turns, pa.int32()),
        })


def merge_graph_into_skeleton(skeleton: dict, patch: dict) -> dict:
    """Merge an externally-produced graph (e.g. an LLM's output) into a
    skeleton JSON-LD document by ``@id`` — the reference's M13 operator
    (``agents/graph_generator.py:115-131``): every patch-node property
    except ``@id``/``@type`` is copied onto the skeleton node with the same
    ``@id``; patch nodes absent from the skeleton are dropped, skeleton
    nodes and identity keys are always preserved. Pure (inputs unmodified).
    """
    merged_nodes = []
    by_id: dict[str, dict] = {}
    for node in skeleton.get("@graph", []):
        copy = dict(node)
        merged_nodes.append(copy)
        nid = copy.get("@id")
        if nid is not None:
            by_id[nid] = copy
    for pnode in patch.get("@graph", []):
        target = by_id.get(pnode.get("@id"))
        if target is None:
            continue
        for k, v in pnode.items():
            if k not in ("@id", "@type"):
                target[k] = v
    out = {k: v for k, v in skeleton.items() if k != "@graph"}
    out["@graph"] = merged_nodes
    return out


def merge_jsonld_patches(skeleton_ds, patch_ds, key: str = "record_fp",
                         doc_col: str = "jsonld", num_buckets: int = 64):
    """Distributed M13: left-merge a patch-document Dataset into a skeleton
    Dataset by ``key``. Both sides hash-bucket on a deterministic string
    hash (equal keys co-locate), one ``map_groups`` per bucket merges each
    skeleton doc with its patch via ``merge_graph_into_skeleton``.
    Unpatched skeleton docs pass through unchanged; patches without a
    skeleton are dropped (reference semantics). Skeleton columns are
    preserved. For a small patch side prefer
    ``merge_jsonld_patches_broadcast`` (no shuffle).
    """
    import pandas as pd

    lschema = skeleton_ds.schema()
    skel_cols = list(lschema.names)
    skel_types = dict(zip(lschema.names, lschema.types))

    def _bucket_of(key_arr: pa.ChunkedArray | pa.Array):
        # deterministic cross-process string hash (pandas siphash, fixed key)
        h = pd.util.hash_pandas_object(
            pd.Series(key_arr.to_pandas()), index=False).to_numpy()
        return pa.array((h % num_buckets).astype("int64"), pa.int64())

    def prep_left(t: pa.Table) -> pa.Table:
        out = t.append_column("__bucket", _bucket_of(t.column(key)))
        return out.append_column("__side", pa.array([0] * t.num_rows, pa.int8()))

    def prep_right(t: pa.Table) -> pa.Table:
        arrays = [t.column(c) if c in (key, doc_col)
                  else pa.nulls(t.num_rows, type=skel_types[c])
                  for c in skel_cols]
        out = pa.table(dict(zip(skel_cols, arrays)))
        out = out.append_column("__bucket", _bucket_of(t.column(key)))
        return out.append_column("__side", pa.array([1] * t.num_rows, pa.int8()))

    both = skeleton_ds.map_batches(prep_left, batch_format="pyarrow").union(
        patch_ds.map_batches(prep_right, batch_format="pyarrow"))

    def merge_bucket(g: pa.Table) -> pa.Table:
        # stay in Arrow: pandas would coerce null-padded int columns from
        # the patch side to float64 and corrupt the skeleton schema
        side = g.column("__side")
        skel = g.filter(pc.equal(side, 0)).select(skel_cols)
        patches = g.filter(pc.equal(side, 1))
        pmap = dict(zip(patches.column(key).to_pylist(),
                        patches.column(doc_col).to_pylist()))
        if pmap:
            merged = [
                json.dumps(merge_graph_into_skeleton(
                    json.loads(doc), json.loads(pmap[k])), sort_keys=True)
                if k in pmap else doc
                for k, doc in zip(skel.column(key).to_pylist(),
                                  skel.column(doc_col).to_pylist())
            ]
            skel = skel.set_column(skel_cols.index(doc_col), doc_col,
                                   pa.array(merged, pa.string()))
        return skel

    return both.groupby("__bucket").map_groups(merge_bucket,
                                               batch_format="pyarrow")


def jsonld_from_transcripts(source, batch_size: int = 2048):
    """One JSON-LD document row per record (``TurnJsonLd``), as stateless
    tasks."""
    return map_turns(source, TurnJsonLd, batch_size)
