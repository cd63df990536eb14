"""Ray Data stage: transcript turns -> (subj, pred, obj) triple rows.

``turn_triples_fn`` runs as a stateless ``map_batches`` task. All mapper
compilation (frozen ontology maps, alias maps, tokenized property indexes)
happens once per worker process, in the ``__init__`` of the stage class it
is given (``TurnTriples`` by default; the validating, coverage and JSON-LD
stages share the same form). Per batch the work is vectorized masking +
per-record deterministic KG construction (JSON payloads are inherently
row-shaped, so the inner loop is a tight Python loop over the tool-turns
of the batch only — user/assistant turns never leave Arrow). Each stage
class is also the single-batch API: ``TurnTriples()(batch)``.

Output schema:
    subj, pred, obj, obj_dt: string   (the triple + xsd/@id datatype tag)
    conv_id: string, turn_idx: int32  (lineage back to the source turn)
    artifact_type: string, record_fp: string (fingerprint; dedup/canonical key)
"""

from __future__ import annotations

import json

import pyarrow as pa
import pyarrow.compute as pc

from ..config import (
    FALLBACK_ONTOLOGY_MAP,
    ONTOLOGY_MAPS,
    RESERVED_RECORD_KEYS,
)
from ..functions.jsonx import loads_fast
from ..functions.naming import slugify, to_camel_case
from ..functions.process_cache import process_stage
from ..kg.custom_facets import generate_custom_facets
from ..kg.mapper import ArtifactMapper
from ..kg.records import extract_records

TRIPLES_SCHEMA = pa.schema(
    [
        pa.field("subj", pa.string()),
        pa.field("pred", pa.string()),
        pa.field("obj", pa.string()),
        pa.field("obj_dt", pa.string()),
        pa.field("conv_id", pa.string()),
        pa.field("turn_idx", pa.int32()),
        pa.field("artifact_type", pa.string()),
        pa.field("record_fp", pa.string()),
    ]
)


def turn_triples_fn(batch: pa.Table, stage: type | None = None) -> pa.Table:
    """Run ``stage`` (default ``TurnTriples``) on one batch as a stateless
    task. The compiled stage is cheap (<1 ms) and deterministic, so it lives
    in a per-worker-process cache instead of an actor: Ray tasks reuse warm
    worker processes, so no pool ramps up, and the scheduler runs the stage
    fully elastically. Pass the class through ``fn_kwargs={"stage": ...}``.
    """
    return process_stage(stage or TurnTriples)(batch)


class CoverageStats:
    """Stage: per-record field-coverage rows (artifact_type, total,
    mapped, unmapped) — the A1 coverage aggregate's map side; follow with a
    groupby(artifact_type) sum (see pipelines.kg.coverage_by_artifact_type)."""

    def __init__(self, ontology_maps: dict | None = None):
        self._inner = TurnTriples(ontology_maps)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..kg.mapping_tables import coverage_stats

        mask = pc.and_(
            pc.equal(batch.column("role"), pa.scalar("tool")),
            pc.not_equal(batch.column("text"), pa.scalar("")),
        )
        tool_turns = batch.filter(mask)
        atypes, totals, mapped, unmapped = [], [], [], []
        for text in tool_turns.column("text").to_pylist():
            try:
                payload = loads_fast(text)
            except (json.JSONDecodeError, TypeError):
                continue
            atype = payload.get("artifact_type") if isinstance(payload, dict) else None
            for record in extract_records(payload):
                r_atype = record.get("artifact_type", atype)
                mapper = self._inner._mapper_for(r_atype, record)
                un = mapper.unmapped_fields(record, reserved=RESERVED_RECORD_KEYS)
                st = coverage_stats(record, un, RESERVED_RECORD_KEYS)
                atypes.append(r_atype or "")
                totals.append(st["totalFields"])
                mapped.append(st["mappedFields"])
                unmapped.append(st["unmappedFields"])
        return pa.table({
            "artifact_type": pa.array(atypes, pa.string()),
            "total_fields": pa.array(totals, pa.int64()),
            "mapped_fields": pa.array(mapped, pa.int64()),
            "unmapped_fields": pa.array(unmapped, pa.int64()),
        })


class TurnTriples:
    def __init__(self, ontology_maps: dict | None = None):
        self.ontology_maps = ontology_maps or ONTOLOGY_MAPS
        # Frozen-map mappers compiled once per stage instance.
        self._mappers: dict[str, ArtifactMapper] = {
            atype: ArtifactMapper(omap) for atype, omap in self.ontology_maps.items()
        }
        # Custom-facet mappers keyed by (artifact_type, field-set signature):
        # the generated facet depends only on artifact type + unmapped field
        # names + value types, so the cache is deterministic.
        self._custom_mappers: dict[tuple, ArtifactMapper] = {}

    def _mapper_for(self, artifact_type: str | None, record: dict) -> ArtifactMapper:
        m = self._mappers.get(artifact_type)
        if m is not None:
            return m
        sig = (artifact_type, tuple(sorted(record.keys())))
        m = self._custom_mappers.get(sig)
        if m is not None:
            return m
        # Unknown artifact type: first try the deterministic researcher/
        # synthesizer (ontology/automap.py) — when the record's fields score
        # strongly against one UCO class's property vocabulary, the type is
        # mapped to real UCO classes/facets instead of dfc-ext extensions
        # (reference agents/ontology_researcher.py:42-171 +
        # ontology_synthesizer.py:199-291, distilled deterministic).
        from ..config import PROPERTY_ALIAS_MAP
        from ..ontology.automap import build_ontology_map

        auto_map, auto_aliases = build_ontology_map(
            artifact_type or "", sorted(record.keys()))
        if auto_map is not None:
            m = ArtifactMapper(
                auto_map, alias_map={**PROPERTY_ALIAS_MAP, **auto_aliases})
            self._custom_mappers[sig] = m
            return m
        base = ArtifactMapper(FALLBACK_ONTOLOGY_MAP)
        unmapped = base.unmapped_fields(record, reserved=RESERVED_RECORD_KEYS)
        details = [{"field": f, "sampleValue": record.get(f)} for f in unmapped]
        custom, updated_map, _ttl = generate_custom_facets(
            details, record, artifact_type, FALLBACK_ONTOLOGY_MAP
        )
        m = ArtifactMapper(updated_map, custom_facets=custom)
        if custom:
            # Per-record custom values: field -> (facet_slug, dfc-ext prop).
            facet_name = next(iter(custom["facetDefinitions"]))
            facet_slug = slugify(facet_name)
            props = custom["facetDefinitions"][facet_name]["properties"]
            for f in unmapped:
                prop = f"dfc-ext:{to_camel_case(f)}"
                if prop in props:
                    m.custom_value_fields[f] = (facet_slug, prop)
        self._custom_mappers[sig] = m
        return m

    def __call__(self, batch: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.equal(batch.column("role"), pa.scalar("tool")),
            pc.not_equal(batch.column("text"), pa.scalar("")),
        )
        tool_turns = batch.filter(mask)
        n = tool_turns.num_rows
        if n == 0:
            return TRIPLES_SCHEMA.empty_table()

        texts = tool_turns.column("text").to_pylist()
        conv_ids = tool_turns.column("conv_id").to_pylist()
        turn_idxs = tool_turns.column("turn_idx").to_pylist()

        subj: list[str] = []
        pred: list[str] = []
        obj: list[str] = []
        obj_dt: list[str] = []
        out_conv: list[str] = []
        out_turn: list[int] = []
        out_atype: list[str] = []
        out_fp: list[str] = []

        for text, conv_id, turn_idx in zip(texts, conv_ids, turn_idxs):
            try:
                payload = loads_fast(text)
            except (json.JSONDecodeError, TypeError):
                continue
            records = extract_records(payload)
            atype = payload.get("artifact_type") if isinstance(payload, dict) else None
            for record in records:
                r_atype = record.get("artifact_type", atype)
                mapper = self._mapper_for(r_atype, record)
                fp, n = mapper.process_record_into(record, subj, pred, obj, obj_dt)
                if n:
                    out_conv.extend([conv_id] * n)
                    out_turn.extend([turn_idx] * n)
                    out_atype.extend([r_atype or ""] * n)
                    out_fp.extend([fp] * n)

        # Dictionary-encode the low-cardinality / highly-repetitive columns:
        # pred/obj_dt/artifact_type repeat from tiny vocabularies and
        # conv_id/record_fp repeat ~10x per record, so encoding cuts the
        # object-store bytes per block ~2.5x (these blocks are the
        # pipeline's main data volume).
        return pa.table(
            {
                # subj repeats ~8-12x per record (one node id across its
                # triples): dictionary encoding cuts the dominant column from
                # 36 B/row to a 4 B index + one dict entry per node
                "subj": pa.array(subj, pa.string()).dictionary_encode(),
                "pred": pa.array(pred, pa.string()).dictionary_encode(),
                # obj stays plain: its values (timestamps, paths) are mostly
                # distinct, so a dictionary would not shrink it
                "obj": pa.array(obj, pa.string()),
                "obj_dt": pa.array(obj_dt, pa.string()).dictionary_encode(),
                "conv_id": pa.array(out_conv, pa.string()).dictionary_encode(),
                "turn_idx": pa.array(out_turn, pa.int32()),
                "artifact_type": pa.array(out_atype, pa.string()).dictionary_encode(),
                "record_fp": pa.array(out_fp, pa.string()).dictionary_encode(),
            }
        )
