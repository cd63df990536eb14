"""Validating KG stage: triple construction + SHACL-lite + fidelity checks
+ one bounded correction pass, in a single map pass (no cluster loops). It
runs as the stateless task ``turn_triples_fn`` with
``fn_kwargs={"stage": ValidatingTurnTriples}``. It shares ``TurnTriples``'
record iterator and ``TripleColumns`` layout and differs from it only in
what it does per record (``_add``); its output adds a plain ``violation``
string column.

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

from ..ontology.validate import RuleEngine, allowed_value_forms
from .kg_stage import TurnTriples


class ValidatingTurnTriples(TurnTriples):
    violations = True

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

        return [(t, flagged.get((t[0], t[1]), "")) for t in triples]

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

    def _add(self, out, mapper, record, conv_id, turn_idx, atype) -> None:
        fp, triples = mapper.process_record(record)
        checked = self._validate_record(record, triples, mapper)
        flagged = {(t[0], t[1]): code for t, code in checked if code}
        if flagged:
            # bounded correction pass: drop offending properties,
            # re-prune, re-validate the corrected graph
            corrected, droppedT = self._recompose_without(triples, flagged)
            checked = self._validate_record(record, corrected, mapper) + [
                (t, flagged[(t[0], t[1])]) for t in droppedT
            ]
        out.add_checked(checked, conv_id, turn_idx, atype, fp)
