"""Validating KG stage: triple construction + SHACL-lite + fidelity checks
+ one bounded correction pass, in a single map pass (no cluster loops). It
runs as the stateless task ``turn_triples_fn`` with
``fn_kwargs={"stage": ValidatingTurnTriples}``.

The reference's validate -> invalidate -> replan -> regenerate control loop
(``graph.py:117-143``, MAX_VALIDATION_ATTEMPTS=3 / MAX_HALLUCINATION=2,
partial UUID invalidation per ``uuid_planner.py:286-303``) becomes dataflow:
every record is composed and validated; when violations are found the record
is recomposed ONCE without the offending (subject, property) assignments —
the uuid5 plan is deterministic, so recomposition keeps the original node
IDs, and facets emptied by the drop are pruned together with their
``uco-core:hasFacet`` refs exactly as in first-pass composition (reference
``graph_generator.py:199-216``). The corrected graph is re-validated and
emitted with its (normally empty) violation codes; the dropped property
triples are emitted too, with their original codes, so nothing disappears
silently. Consumers split the stream with a filter:

    clean      = out.filter(expr="violation == ''")   # corrected graph
    violations = out.filter(expr="violation != ''")   # dropped properties

The correction is bounded at one pass by construction: the recompose is
deterministic, so further rounds could only re-flag what the first round
already dropped.
"""

from __future__ import annotations

import json

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.jsonx import loads_fast
from ..kg.records import extract_records
from ..ontology.validate import RuleEngine, allowed_value_forms
from .kg_stage import TRIPLES_SCHEMA, TurnTriples

VALIDATED_SCHEMA = TRIPLES_SCHEMA.append(pa.field("violation", pa.string()))


class ValidatingTurnTriples(TurnTriples):
    def __init__(self, ontology_maps: dict | None = None, check_fidelity: bool = True):
        super().__init__(ontology_maps)
        self.engine = RuleEngine()
        self.check_fidelity = check_fidelity

    def _validate_record(self, record, triples, mapper=None):
        """Return [(triple, violation_code_or_empty)] for one record."""
        by_subj: dict[str, list] = {}
        types: dict[str, str] = {}
        for t in triples:
            s, p, o, dt = t
            if p == "rdf:type":
                types[s] = o
            else:
                by_subj.setdefault(s, []).append(t)

        allowed = allowed_value_forms(record) if self.check_fidelity else None
        flagged: dict[tuple[str, str], str] = {}
        for subj, rows in by_subj.items():
            ntype = types.get(subj, "")
            declared = mapper.declared_props.get(ntype) if mapper is not None else None
            for rule, pred in self.engine.check_node(
                ntype, [(p, o, dt) for _, p, o, dt in rows], allowed, declared
            ):
                flagged[(subj, pred)] = rule

        out = []
        for t in triples:
            code = flagged.get((t[0], t[1]), "")
            out.append((t, code))
        return out

    @staticmethod
    def _recompose_without(triples, flagged):
        """One bounded correction: drop the flagged (subj, pred) property
        triples, then prune facets left with only their rdf:type (their type
        triple AND the parent's hasFacet ref go too — mirrors first-pass
        empty-facet pruning, reference graph_generator.py:199-216).

        Returns (corrected_triples, dropped_triples).
        """
        dropped = [t for t in triples if (t[0], t[1]) in flagged]
        kept = [t for t in triples if (t[0], t[1]) not in flagged]

        # subjects that still carry a real (non-type, non-ref) property
        has_payload: set[str] = set()
        facet_subjects: set[str] = set()
        for s, p, o, dt in kept:
            if p == "rdf:type":
                if isinstance(o, str) and o.endswith("Facet"):
                    facet_subjects.add(s)
            elif p != "uco-core:hasFacet":
                has_payload.add(s)
        empty_facets = facet_subjects - has_payload
        if not empty_facets:
            return kept, dropped
        corrected = [
            t for t in kept
            if not (t[0] in empty_facets
                    or (t[1] == "uco-core:hasFacet" and t[2] in empty_facets))
        ]
        return corrected, dropped

    def __call__(self, batch: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.equal(batch.column("role"), pa.scalar("tool")),
            pc.not_equal(batch.column("text"), pa.scalar("")),
        )
        tool_turns = batch.filter(mask)
        if tool_turns.num_rows == 0:
            return VALIDATED_SCHEMA.empty_table()

        cols = {name: [] for name in VALIDATED_SCHEMA.names}
        for text, conv_id, turn_idx in zip(
            tool_turns.column("text").to_pylist(),
            tool_turns.column("conv_id").to_pylist(),
            tool_turns.column("turn_idx").to_pylist(),
        ):
            try:
                payload = loads_fast(text)
            except (json.JSONDecodeError, TypeError):
                continue
            atype = payload.get("artifact_type") if isinstance(payload, dict) else None
            for record in extract_records(payload):
                r_atype = record.get("artifact_type", atype)
                mapper = self._mapper_for(r_atype, record)
                fp, triples = mapper.process_record(record)
                checked = self._validate_record(record, triples, mapper)
                flagged = {(t[0], t[1]): code for t, code in checked if code}
                if flagged:
                    # bounded correction pass: drop offending properties,
                    # re-prune, re-validate the corrected graph
                    corrected, droppedT = self._recompose_without(
                        triples, flagged)
                    rechecked = self._validate_record(record, corrected, mapper)
                    emit = rechecked + [
                        (t, flagged[(t[0], t[1])]) for t in droppedT
                    ]
                else:
                    emit = checked
                for (s, p, o, dt), code in emit:
                    cols["subj"].append(s)
                    cols["pred"].append(p)
                    cols["obj"].append(o)
                    cols["obj_dt"].append(dt)
                    cols["conv_id"].append(conv_id)
                    cols["turn_idx"].append(turn_idx)
                    cols["artifact_type"].append(r_atype or "")
                    cols["record_fp"].append(fp)
                    cols["violation"].append(code)

        return pa.table(
            {
                "subj": pa.array(cols["subj"], pa.string()),
                "pred": pa.array(cols["pred"], pa.string()),
                "obj": pa.array(cols["obj"], pa.string()),
                "obj_dt": pa.array(cols["obj_dt"], pa.string()),
                "conv_id": pa.array(cols["conv_id"], pa.string()),
                "turn_idx": pa.array(cols["turn_idx"], pa.int32()),
                "artifact_type": pa.array(cols["artifact_type"], pa.string()),
                "record_fp": pa.array(cols["record_fp"], pa.string()),
                "violation": pa.array(cols["violation"], pa.string()),
            }
        )
