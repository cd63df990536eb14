"""Each output check passes on a correct output and fails on a corrupted one.

    python3 -m pytest perfbench/test_checks.py -q

Correct outputs come from the package's triple stage run in-process on a
small generated input (no Ray); the dedup and canonicalization outputs are
assembled here from those triples, then corrupted one way at a time.
"""

from __future__ import annotations

import json
import sys
import uuid
from pathlib import Path

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent))

import checks  # noqa: E402
import gen  # noqa: E402
import routing  # noqa: E402


def _triples(inp: Path) -> pd.DataFrame:
    from case_uco_ontology_map_ray.stages.kg_stage import TurnTriples

    table = pq.read_table(str(inp), columns=["conv_id", "turn_idx", "role", "text"])
    out = TurnTriples()(table)
    return pa.table({n: out.column(n).cast(pa.string()) if n != "turn_idx"
                     else out.column(n) for n in out.column_names}).to_pandas()


def _write(df: pd.DataFrame, d: Path):
    d.mkdir(parents=True, exist_ok=True)
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), str(d / "part.parquet"))


def _entities(exp, merge: dict | None = None):
    """Entity table and links for the input's path mentions; ``merge`` maps a
    normalized path onto the one whose entity it joins."""
    merge = merge or {}
    rows = []
    for p in exp.path_mentions:
        canon = merge.get(p, p)
        rows.append({"norm_path": p, "canonical_path": canon,
                     "canonical_id": f"kb:entity-{uuid.uuid5(checks.NS_ENTITY, canon)}"})
    ent = pd.DataFrame(rows)
    ids = dict(zip(ent.norm_path, ent.canonical_id))
    links = pd.DataFrame({"obj": [ids[p] for p, n in exp.path_mentions.items()
                                  for _ in range(n)]})
    return ent, links


def _unrelated_paths(exp) -> tuple[str, str]:
    """Two of the input's normalized paths far below the verify threshold."""
    paths = sorted(exp.path_mentions)
    a = checks._shingles(paths[0])
    for p in paths[1:]:
        b = checks._shingles(p)
        if len(a & b) / len(a | b) < 0.3:
            return paths[0], p
    raise AssertionError("no unrelated paths in the input")


def _setup(tmp: Path, workload: str):
    inp = tmp / "input" / "part-0.parquet"
    meta = gen.generate(workload, 3, inp, conversations=60)
    arity, obj_class = routing.golden_shapes(HERE.parent / "tests" / "goldens")
    return inp, checks.Expected(inp.parent, arity, obj_class, meta)


def _failed(results):
    return {name for name, ok, _ in results if not ok}


@pytest.fixture(scope="module")
def flagship(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("flagship")
    inp, exp = _setup(tmp, "flagship")
    return exp, _triples(inp)


def _flagship_out(tmp: Path, exp, triples, entities=None, links=None, violations=()):
    out = tmp / "out"
    _write(triples, out / "triples")
    ent, lnk = _entities(exp)
    _write(ent if entities is None else entities, out / "entities")
    _write(lnk if links is None else links, out / "entity_links")
    (out / "_metrics.json").write_text(json.dumps({"violations": list(violations)}))
    return checks.run_checks("flagship", exp, out)


def test_flagship_correct_output_passes(flagship, tmp_path):
    exp, triples = flagship
    assert _failed(_flagship_out(tmp_path, exp, triples)) == set()


@pytest.mark.parametrize("corrupt, check", [
    (lambda t: t.drop(index=t.index[5]), "triple_counts"),
    (lambda t: t.assign(obj=t.obj.where(t.obj_dt == "@id", t.obj + "x")), "literal_values"),
    (lambda t: t.assign(subj=t.subj.where(t.pred != "uco-core:hasFacet",
                                          t.subj.str.replace("a", "b"))), "object_node_ids"),
])
def test_flagship_corrupted_triples_fail(flagship, tmp_path, corrupt, check):
    exp, triples = flagship
    assert check in _failed(_flagship_out(tmp_path, exp, corrupt(triples.copy())))


def test_violations_fail(flagship, tmp_path):
    exp, triples = flagship
    res = _flagship_out(tmp_path, exp, triples,
                        violations=[{"violation": "x", "pred": "p", "n": 1}])
    assert _failed(res) == {"no_violations"}


@pytest.mark.parametrize("corrupt", ["relink", "bad_id", "drop_link", "merge_unrelated",
                                     "foreign_canonical"])
def test_corrupted_entities_fail(flagship, tmp_path, corrupt):
    exp, triples = flagship
    p, q = _unrelated_paths(exp)
    if corrupt == "merge_unrelated":  # two far-apart paths in one entity
        ent, links = _entities(exp, {q: p})
    elif corrupt == "foreign_canonical":  # named after a path it does not hold
        ent, links = _entities(exp, {p: "elsewhere/not/a/member.dat"})
    else:
        ent, links = _entities(exp)
    if corrupt == "relink":
        links.loc[0, "obj"] = links.obj.iloc[-1]
    elif corrupt == "bad_id":
        ent.loc[0, "canonical_id"] = "kb:entity-00000000-0000-5000-8000-000000000000"
    else:
        links = links.iloc[1:]
    res = _flagship_out(tmp_path, exp, triples, entities=ent, links=links)
    assert _failed(res) == {"entities_and_links"}


def test_dedup_checks(tmp_path):
    inp, exp = _setup(tmp_path, "dedup")
    raw = _triples(inp)
    good = (raw.sort_values(["conv_id", "turn_idx"])
            .drop_duplicates(["subj", "pred", "obj", "obj_dt"]))
    assert len(good) < len(raw)
    _write(good, tmp_path / "ok" / "triples")
    assert _failed(checks.run_checks("dedup", exp, tmp_path / "ok")) == set()
    dup = pd.concat([good, good.iloc[:1]])
    _write(dup, tmp_path / "dup" / "triples")
    assert "no_duplicate_triples" in _failed(checks.run_checks("dedup", exp, tmp_path / "dup"))
    late = (raw.sort_values(["conv_id", "turn_idx"], ascending=False)
            .drop_duplicates(["subj", "pred", "obj", "obj_dt"]))
    _write(late, tmp_path / "late" / "triples")
    assert _failed(checks.run_checks("dedup", exp, tmp_path / "late")) == {"min_lineage"}


def test_planted_family_split_or_overmerge_fails(tmp_path):
    _, exp = _setup(tmp_path, "canonicalize")
    merge = {}
    for fam in exp.meta["families"]:
        members = [checks.normalize_path(p) for p in fam]
        present = [p for p in members if p in exp.path_mentions]
        for p in present:
            merge[p] = min(present)
    p, q = _unrelated_paths(exp)
    for name, m in (("ok", merge), ("split", {}), ("overmerge", {**merge, q: p})):
        ent, links = _entities(exp, m)
        _write(ent, tmp_path / name / "entities")
        _write(links, tmp_path / name / "entity_links")
    assert _failed(checks.run_checks("canonicalize", exp, tmp_path / "ok")) == set()
    for name in ("split", "overmerge"):
        assert _failed(checks.run_checks("canonicalize", exp, tmp_path / name)) == {
            "entities_and_links"}
