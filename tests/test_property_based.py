"""Hypothesis property tests for the deterministic KG core: structural
invariants must hold for ARBITRARY records, not just fixtures."""

import functools
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from case_uco_ontology_map_ray.config import ONTOLOGY_MAPS, RESERVED_RECORD_KEYS
from case_uco_ontology_map_ray.kg.mapper import ArtifactMapper
from case_uco_ontology_map_ray.ontology.validate import allowed_value_forms
from case_uco_ontology_map_ray.stages.kg_stage import MAX_NESTING

field_names = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), whitelist_characters="_"),
    min_size=1, max_size=20,
).filter(lambda s: s not in RESERVED_RECORD_KEYS)

scalar_values = st.one_of(
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=40),
)
values = st.one_of(scalar_values, st.lists(st.text(min_size=1, max_size=20), max_size=4))

records = st.dictionaries(field_names, values, min_size=1, max_size=12)


@settings(max_examples=150, deadline=None)
@given(records)
def test_mapper_invariants_hold_for_arbitrary_records(record):
    mapper = ArtifactMapper(ONTOLOGY_MAPS["MFT Records"])
    fp1, triples1 = mapper.process_record(record)
    fp2, triples2 = ArtifactMapper(ONTOLOGY_MAPS["MFT Records"]).process_record(record)

    # determinism across independent mapper instances
    assert fp1 == fp2 and triples1 == triples2

    # exactly one rdf:type per subject
    types = {}
    for s, p, o, dt in triples1:
        if p == "rdf:type":
            assert s not in types
            types[s] = o
    assert types  # at least the primary node exists

    # no empty objects
    assert all(o != "" for _, _, o, _ in triples1)

    # parent objects only carry rdf:type / hasFacet
    parents = {s for s, p, _, _ in triples1 if p == "uco-core:hasFacet"}
    for s, p, o, dt in triples1:
        if s in parents:
            assert p in ("rdf:type", "uco-core:hasFacet")

    # hasFacet targets exist and are typed
    for s, p, o, dt in triples1:
        if p == "uco-core:hasFacet":
            assert o in types and dt == "@id"

    # fidelity: every emitted literal derives from the input record
    allowed = allowed_value_forms(record)
    for s, p, o, dt in triples1:
        if p == "rdf:type" or dt == "@id":
            continue
        assert o in allowed, (p, o)


@settings(max_examples=60, deadline=None)
@given(records)
def test_fingerprint_is_canonical_json_sha256(record):
    import hashlib

    from case_uco_ontology_map_ray.functions.fingerprint import record_fingerprint

    want = hashlib.sha256(
        json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    assert record_fingerprint(record) == want


@settings(max_examples=60, deadline=None)
@given(st.text(max_size=200))
def test_shingle_minhash_simhash_total(text):
    """Sketch kernels never crash and are deterministic on arbitrary text."""
    import numpy as np

    from case_uco_ontology_map_ray.functions.hashing import (
        MinHasher,
        char_shingles,
        simhash64_batch,
    )

    sh = char_shingles(text, 4)
    mh = MinHasher(16)
    assert (mh.signature(sh) == mh.signature(sh)).all()
    offs = np.array([0, len(sh)], dtype=np.int64)
    assert (simhash64_batch(sh, offs) == simhash64_batch(sh, offs)).all()


json_values = st.recursive(
    st.one_of(st.none(), st.booleans(),
              st.integers(min_value=-(2**200), max_value=2**200),
              st.floats(allow_nan=False, allow_infinity=False),
              st.text(max_size=30)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=10), children, max_size=4)),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(json_values)
def test_loads_fast_equals_stdlib_for_arbitrary_json(value):
    """loads_fast must reproduce stdlib's parse VALUE- and TYPE-exactly for
    any JSON stdlib can emit — including >64-bit integers (the orjson
    widening trap) and deep nesting."""
    from case_uco_ontology_map_ray.functions.jsonx import loads_fast

    text = json.dumps(value)
    a, b = loads_fast(text), json.loads(text)

    def eq(x, y):
        if isinstance(x, dict):
            return isinstance(y, dict) and x.keys() == y.keys() and all(
                eq(x[k], y[k]) for k in x)
        if isinstance(x, list):
            return isinstance(y, list) and len(x) == len(y) and all(
                eq(p, q) for p, q in zip(x, y))
        return type(x) is type(y) and x == y

    assert eq(a, b)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**62), min_size=1,
                max_size=300, unique=True),
       st.integers(min_value=0, max_value=2**31))
def test_split_assign_disjoint_exhaustive_stable(keys, seed):
    """Property form of the split guarantees: every key gets exactly one
    label, and the label is a pure function of (key, seed) — independent of
    which other keys are present."""
    import numpy as np
    import pandas as pd

    from case_uco_ontology_map_ray.ops.sample import _mix64_u

    fr = {"train": 0.8, "val": 0.1, "test": 0.1}
    edges = np.cumsum([fr[l] for l in fr]); edges[-1] = 1.0 + 1e-12
    labels = list(fr)

    def assign(ks):
        h = pd.util.hash_pandas_object(pd.Series(ks), index=False).to_numpy()
        h = _mix64_u(h ^ np.uint64(seed * 0x9E3779B97F4A7C15 % (1 << 64)))
        u = h.astype(np.float64) / float(1 << 64)
        ix = np.minimum(np.searchsorted(edges, u, side="right"), len(labels) - 1)
        return [labels[i] for i in ix]

    full = dict(zip(keys, assign(keys)))
    half = keys[: max(1, len(keys) // 2)]
    sub = dict(zip(half, assign(half)))
    assert all(sub[k] == full[k] for k in half)
    assert set(full.values()) <= set(labels)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.floats(min_value=-1e6, max_value=1e6, width=32),
                         min_size=4, max_size=4), min_size=1, max_size=40))
def test_quantization_roundtrip_bound(vectors):
    """For any float32 vectors: codes in [-127,127], zero vectors -> zero
    codes, reconstruction error <= scale/2 element-wise."""
    import numpy as np

    from case_uco_ontology_map_ray.ops.agg import round_away

    m = np.asarray(vectors, dtype=np.float32).astype(np.float64)
    maxabs = np.abs(m).max(axis=1)
    scale = np.where(maxabs > 0, maxabs / 127.0, 1.0)
    codes = round_away(m / scale[:, None], 0)
    codes[maxabs == 0] = 0
    assert np.abs(codes).max(initial=0) <= 127
    recon = codes * scale[:, None]
    err = np.abs(recon - m)
    assert (err <= scale[:, None] / 2 + 1e-9).all()


def test_pagerank_quantized_iteration_is_scale_free():
    """rank_norm is normalized to mean ~1: on a k-regular graph every node
    must get exactly rank 1.0 at every iteration (fixed point)."""
    import ray.data as rd

    from tests.test_linking import _path_triples_table
    from case_uco_ontology_map_ray.pipelines.linking import entity_pagerank

    # 4-cycle via two conversations -> 2-regular
    tab = _path_triples_table({"c1": ["a", "b"], "c2": ["b", "c"],
                               "c3": ["c", "d"], "c4": ["d", "a"]})
    out = entity_pagerank(rd.from_arrow(tab), iters=3, k=10)
    assert (out.rank_norm == 1.0).all()
    assert (out.degree == 2).all()


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)),
                min_size=0, max_size=120))
def test_wedge_keys_match_brute_force(pairs):
    """_wedge_keys + _count_members equal a brute-force triangle count on
    arbitrary edge sets (degree-oriented, same convention as
    copurchase_triangles)."""
    import numpy as np

    from case_uco_ontology_map_ray.pipelines.analytics import (
        _count_members,
        _wedge_keys,
    )

    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    pk = np.sort(np.array([(np.int64(u) << np.int64(32)) | np.int64(v)
                           for u, v in edges], dtype=np.int64))
    # degree-ordered orientation
    from collections import Counter

    deg = Counter()
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    src, dst = [], []
    for u, v in edges:
        if (deg[u], u) < (deg[v], v):
            src.append(u), dst.append(v)
        else:
            src.append(v), dst.append(u)
    o = np.lexsort((np.array(dst or [0]), np.array(src or [0])))[:len(src)]
    s = np.array(src, dtype=np.int64)[o] if src else np.empty(0, np.int64)
    d = np.array(dst, dtype=np.int64)[o] if dst else np.empty(0, np.int64)
    got = _count_members(pk, _wedge_keys(s, d))
    eset = set(edges)
    nodes = sorted({x for e in edges for x in e})
    want = sum(1 for i, a in enumerate(nodes) for b in nodes[i + 1:]
               for c in nodes if c > b and (a, b) in eset and (a, c) in eset
               and (b, c) in eset)
    assert got == want


# Hostile tool-turn text: raw JSON fragments that a strict parser rejects or
# that decode to values no fixture holds (NaN, overflowing floats, >64-bit
# integers, lone surrogates, deep nesting, non-string artifact types).
_HOSTILE_VALUES = [
    "NaN", "-Infinity", "1e400", "-1e400", "123456789012345678901234567890",
    '"\\ud800"', '"tail \\udfff"', '"\\ud83d\\ude00"', '"C:\\\\Windows\\\\a.exe"',
    '""', "null", "true", "0.1", "[]", "{}", '[1, "x", null]',
]
_HOSTILE_ATYPES = [
    '"MFT Records"', '"Windows Prefetch execution cache records"',
    '"Windows Event Log records"', '"iot_sensor_log"', '"\\udc00"',
    "5", "[]", "{}", "null", "true", "1e400", "NaN",
]
_HOSTILE_KEYS = ['"FullPath"', '"EntryNumber"', '"FileName"', '"Level"',
                 '"RunCount"', '"Path"', '"x y"', '""', '"\\ud800"',
                 '"artifact_type"', '"@id"']


def _nested(depth: int, as_list: bool) -> str:
    if as_list:
        return "[" * depth + "1" + "]" * depth
    return '{"k": ' * depth + "1" + "}" * depth


hostile_values = st.one_of(
    st.sampled_from(_HOSTILE_VALUES),
    # at the stages' nesting cap (the payload and record add two or three
    # levels), near Python's recursion limit and past orjson's 1024 levels
    st.builds(_nested, st.sampled_from([2, 60, MAX_NESTING - 3,
                                        MAX_NESTING - 2, 990, 3000]),
              st.booleans()),
)
hostile_fields = st.lists(
    st.tuples(st.sampled_from(_HOSTILE_KEYS), hostile_values),
    min_size=1, max_size=6, unique_by=lambda kv: kv[0])


@st.composite
def hostile_turn_texts(draw):
    """Tool-turn texts of one conversation: each payload is followed by a
    twin whose record keys are permuted, and a few turns are cut short."""
    texts = []
    for _ in range(draw(st.integers(1, 3))):
        fields = draw(hostile_fields)
        twin = draw(st.permutations(fields))
        atype = draw(st.sampled_from(_HOSTILE_ATYPES))
        rec, rec2 = ("{" + ", ".join(f"{k}: {v}" for k, v in f) + "}"
                     for f in (fields, twin))
        shape = draw(st.sampled_from(["record", "records", "list"]))
        if shape == "record":
            pair = [f'{{"artifact_type": {atype}, "record": {r}}}'
                    for r in (rec, rec2)]
        elif shape == "records":
            pair = [f'{{"artifact_type": {atype}, "records": [{rec}, {rec2}]}}',
                    f'{{"records": [{rec2}, {rec}], "artifact_type": {atype}}}']
        else:
            pair = [f'[{{"artifact_type": {atype}, "record": {r}}}]'
                    for r in (rec, rec2)]
        texts.extend(pair)
        if draw(st.booleans()):
            texts.append(pair[0][:draw(st.integers(1, len(pair[0]) - 1))])
    return texts


@settings(max_examples=40, deadline=None)
@given(hostile_turn_texts())
def test_hostile_tool_turns_never_raise(texts):
    """Every in-process KG stage (record iterator; triple, validating,
    coverage and JSON-LD stages; the by-record dedup's extract and finish;
    the custom-facet signature and definition steps) takes hostile
    tool-turn text without raising; no Ray."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from case_uco_ontology_map_ray.pipelines.kg import (
        _extract_fp,
        _facet_definition,
        _facet_signatures,
        _finish_records,
    )
    from case_uco_ontology_map_ray.stages.kg_stage import tool_records

    n = len(texts)
    batch = pa.table({
        "conv_id": pa.array(["c0"] * n, pa.string()),
        "turn_idx": pa.array(range(n), pa.int32()),
        "role": pa.array(["tool"] * n, pa.string()),
        "text": pa.array(texts, pa.string()),
    })
    kept = list(tool_records(batch))
    triples, *_ = [stage(batch) for stage in _stages()]
    deduped = _finish_records(_extract_fp(batch, 4))
    # key-permuted twins share a fingerprint: by-record dedup never emits
    # a triple the triple stage did not
    key = ["subj", "pred", "obj"]
    assert set(zip(*deduped.select(key).to_pydict().values())) <= \
        set(zip(*triples.select(key).to_pydict().values()))
    sigs = _facet_signatures(batch)
    for atype in set(sigs.column("artifact_type").to_pylist()):
        _facet_definition(sigs.filter(pc.equal(sigs.column("artifact_type"),
                                               atype)))
    assert all(a is None or type(a) is str for *_, a in kept)


@functools.cache
def _stages():
    """The triple stage first, then the validating, coverage and JSON-LD
    stages, shared by every example (their mapper caches warm across
    examples, as in a worker process)."""
    from case_uco_ontology_map_ray.pipelines.jsonld import TurnJsonLd
    from case_uco_ontology_map_ray.stages.kg_stage import CoverageStats, TurnTriples
    from case_uco_ontology_map_ray.stages.validate_stage import ValidatingTurnTriples

    return TurnTriples(), ValidatingTurnTriples(), CoverageStats(), TurnJsonLd()
