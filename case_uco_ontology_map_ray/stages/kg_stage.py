"""Ray Data stage: transcript turns -> (subj, pred, obj) triple rows.

``turn_triples_fn`` runs as a stateless ``map_batches`` task. All mapper
compilation (frozen ontology maps, alias maps, tokenized property indexes)
happens once per worker process, in the ``__init__`` of the stage class it
is given (``TurnTriples`` by default; the validating, coverage and JSON-LD
stages share the same form). Each stage class is also the single-batch API:
``TurnTriples()(batch)``.

Every KG stage reads its records from one iterator, ``tool_records``: it
masks the tool turns (user/assistant turns never leave Arrow), parses each
turn's JSON once and fans the payload out into flat records, skipping text
that does not parse, nests deeper than ``MAX_NESTING`` or decodes to a lone
surrogate, and records whose ``artifact_type`` is not a string. Every stage
that emits triples fills one ``TripleColumns``, which owns the lineage
fan-out and the Arrow layout.

Output schema (one per stage, whatever the batch holds):
    subj, pred, obj, obj_dt           (the triple + xsd/@id datatype tag)
    conv_id, turn_idx: int32          (lineage back to the source turn)
    artifact_type, record_fp          (fingerprint; dedup/canonical key)
    [violation]                       (validating stage only)
All strings; every column but obj, turn_idx and violation is
dictionary-encoded.
"""

from __future__ import annotations

import re
from typing import Iterator

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


_SURROGATE = re.compile("[\ud800-\udfff]")
# Deepest dict/list nesting of a tool-turn payload that is mapped. orjson
# parses up to 1024 levels, but the fingerprint encoder and the mappers
# downstream recurse once per level under Python's recursion limit (1000
# frames, the caller's included), so a payload that parses could still
# fail the stage. One fixed cap, well inside that limit, skips it instead,
# whichever parser read the text and however deep the caller's stack is.
MAX_NESTING = 512


def _has_surrogate(payload) -> bool:
    """True when a key or string value of ``payload`` holds a lone surrogate
    (a legal JSON escape such as ``"\\ud800"`` that UTF-8 cannot encode)."""
    stack = [payload]
    while stack:
        o = stack.pop()
        to = type(o)
        if to is dict:
            stack.extend(o)
            stack.extend(o.values())
        elif to is list:
            stack.extend(o)
        elif to is str and _SURROGATE.search(o):
            return True
    return False


def _too_deep(payload) -> bool:
    """True when ``payload`` nests dicts/lists more than ``MAX_NESTING``
    levels deep."""
    stack = [(payload, 1)]
    while stack:
        o, depth = stack.pop()
        to = type(o)
        if to is dict or to is list:
            if depth > MAX_NESTING:
                return True
            stack.extend((v, depth + 1) for v in (o.values() if to is dict else o))
    return False


def tool_records(batch: pa.Table) -> Iterator[tuple[str, int, dict, "str | None"]]:
    """Yield ``(conv_id, turn_idx, record, artifact_type)`` for every record
    of every non-empty tool turn of ``batch``, in batch order. Skipped: text
    that does not parse (malformed, or nested past the parser's depth), text
    nested more than ``MAX_NESTING`` deep, text that decodes to a lone
    surrogate, and records whose ``artifact_type`` is neither absent nor a
    string."""
    mask = pc.and_(pc.equal(batch.column("role"), "tool"),
                   pc.not_equal(batch.column("text"), ""))
    tool_turns = batch.filter(mask)
    for text, conv_id, turn_idx in zip(tool_turns.column("text").to_pylist(),
                                       tool_turns.column("conv_id").to_pylist(),
                                       tool_turns.column("turn_idx").to_pylist()):
        try:
            payload = loads_fast(text)
        except (ValueError, TypeError, RecursionError):
            continue
        # every level of nesting opens and closes a bracket, so most texts
        # skip the counts and nearly all skip the walk
        if (len(text) > 2 * MAX_NESTING
                and text.count("{") + text.count("[") > MAX_NESTING
                and _too_deep(payload)):
            continue
        # a surrogate can only come from a \uXXXX escape in the text
        if ("\\ud" in text or "\\uD" in text) and _has_surrogate(payload):
            continue
        for record in extract_records(payload):
            atype = record.get("artifact_type")
            if atype is None or type(atype) is str:
                yield conv_id, turn_idx, record, atype


def turn_triples_fn(batch: pa.Table, stage: type | None = None) -> pa.Table:
    """Run ``stage`` (default ``TurnTriples``) on one batch as a stateless
    task. The compiled stage is cheap (<1 ms) and deterministic, so it lives
    in a per-worker-process cache instead of an actor: Ray tasks reuse warm
    worker processes, so no pool ramps up, and the scheduler runs the stage
    fully elastically. Pass the class through ``fn_kwargs={"stage": ...}``.
    """
    return process_stage(stage or TurnTriples)(batch)


def _dict_strings(values: list) -> pa.Array:
    return pa.array(values, pa.string()).dictionary_encode()


class TripleColumns:
    """Column lists of one output block of triples. Each record's triples
    carry its lineage (conv_id, turn_idx, artifact_type, record_fp)."""

    def __init__(self, violations: bool = False):
        self.subj: list[str] = []
        self.pred: list[str] = []
        self.obj: list[str] = []
        self.obj_dt: list[str] = []
        self.conv_id: list[str] = []
        self.turn_idx: list[int] = []
        self.artifact_type: list[str] = []
        self.record_fp: list[str] = []
        self.violation: list[str] | None = [] if violations else None

    def _lineage(self, n: int, conv_id, turn_idx, atype, fp) -> None:
        self.conv_id.extend([conv_id] * n)
        self.turn_idx.extend([turn_idx] * n)
        self.artifact_type.extend([atype or ""] * n)
        self.record_fp.extend([fp] * n)

    def add_record(self, mapper: ArtifactMapper, record: dict, conv_id,
                   turn_idx, atype, fp: str | None = None) -> None:
        """Map ``record`` straight into the columns."""
        fp, n = mapper.process_record_into(record, self.subj, self.pred,
                                           self.obj, self.obj_dt, fp=fp)
        self._lineage(n, conv_id, turn_idx, atype, fp)

    def add_checked(self, checked: list, conv_id, turn_idx, atype,
                    fp: str) -> None:
        """Append ``[((s, p, o, dt), violation_code), ...]`` of one record."""
        for (s, p, o, dt), code in checked:
            self.subj.append(s)
            self.pred.append(p)
            self.obj.append(o)
            self.obj_dt.append(dt)
            self.violation.append(code)
        self._lineage(len(checked), conv_id, turn_idx, atype, fp)

    def table(self) -> pa.Table:
        # Dictionary-encode the repetitive columns: subj repeats ~8-12x per
        # record (one node id across its triples), pred/obj_dt/artifact_type
        # come from tiny vocabularies and conv_id/record_fp repeat ~10x per
        # record, so encoding cuts the object-store bytes per block ~2.5x
        # (these blocks are the pipeline's main data volume). obj stays
        # plain: its values (timestamps, paths) are mostly distinct.
        cols = {
            "subj": _dict_strings(self.subj),
            "pred": _dict_strings(self.pred),
            "obj": pa.array(self.obj, pa.string()),
            "obj_dt": _dict_strings(self.obj_dt),
            "conv_id": _dict_strings(self.conv_id),
            "turn_idx": pa.array(self.turn_idx, pa.int32()),
            "artifact_type": _dict_strings(self.artifact_type),
            "record_fp": _dict_strings(self.record_fp),
        }
        if self.violation is not None:
            cols["violation"] = pa.array(self.violation, pa.string())
        return pa.table(cols)


class TurnTriples:
    # ``ValidatingTurnTriples`` adds the violation column and overrides
    # ``_add``; the batch loop and the Arrow build are shared.
    violations = False

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

    def _add(self, out: TripleColumns, mapper: ArtifactMapper, record: dict,
             conv_id, turn_idx, atype) -> None:
        out.add_record(mapper, record, conv_id, turn_idx, atype)

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = TripleColumns(self.violations)
        for conv_id, turn_idx, record, atype in tool_records(batch):
            self._add(out, self._mapper_for(atype, record), record,
                      conv_id, turn_idx, atype)
        return out.table()


class CoverageStats(TurnTriples):
    """Stage: per-record field-coverage rows (artifact_type, total,
    mapped, unmapped) — the A1 coverage aggregate's map side; follow with a
    groupby(artifact_type) sum (see pipelines.kg.coverage_by_artifact_type)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..kg.mapping_tables import coverage_stats

        atypes, totals, mapped, unmapped = [], [], [], []
        for _conv, _turn, record, atype in tool_records(batch):
            mapper = self._mapper_for(atype, record)
            un = mapper.unmapped_fields(record, reserved=RESERVED_RECORD_KEYS)
            st = coverage_stats(record, un, RESERVED_RECORD_KEYS)
            atypes.append(atype or "")
            totals.append(st["totalFields"])
            mapped.append(st["mappedFields"])
            unmapped.append(st["unmappedFields"])
        return pa.table({
            "artifact_type": pa.array(atypes, pa.string()),
            "total_fields": pa.array(totals, pa.int64()),
            "mapped_fields": pa.array(mapped, pa.int64()),
            "unmapped_fields": pa.array(unmapped, pa.int64()),
        })
