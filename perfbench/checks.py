"""Output checks made apart from the program.

Expected values come from DuckDB over the generated input, from stdlib
sha256/uuid5, from the reference goldens (``routing.golden_shapes``) and from
properties the method must have. Nothing is compared against a stored copy
of the program's output. Each check returns ``(name, ok, detail)``.
"""

from __future__ import annotations

import hashlib
import json
import uuid
from collections import Counter
from pathlib import Path

import pyarrow.parquet as pq

from routing import LITERAL_ROUTES, PATH_PREDS

# Namespaces of the CASE/UCO uuid5 chain (reference tools.py / uuid_planner.py).
NS_CASE = uuid.uuid5(uuid.NAMESPACE_DNS, "case.uco.org")
NS_RECORD = uuid.uuid5(NS_CASE, "record")
NS_SLOT = uuid.uuid5(NS_CASE, "slot")
NS_ENTITY = uuid.uuid5(NS_CASE, "entity")
# canonical_entities links two paths only through a verified edge: exact
# Jaccard of their char-4 shingle sets at least this (its verify_tau default)
VERIFY_TAU = 0.6


def _glob(d: Path) -> str:
    return str(d / "**" / "*.parquet")


def normalize_path(p: str) -> str:
    """Case-, separator- and drive-insensitive path form."""
    s = p.replace("\\", "/").lower().lstrip("/")
    if len(s) > 1 and s[1] == ":":
        s = s[2:]
    elif s.startswith("c/"):
        s = s[2:]
    return s.strip("/")


def _slug(type_iri: str) -> str:
    return type_iri.split(":", 1)[1].replace(" ", "_").replace("-", "_").lower()


def object_node_id(flat_record: dict, obj_class: str) -> tuple[str, str]:
    """(fingerprint, object-node id) of a flattened record."""
    canon = json.dumps(flat_record, sort_keys=True, separators=(",", ":"))
    fp = hashlib.sha256(canon.encode("utf-8")).hexdigest()
    rec = uuid.uuid5(NS_RECORD, fp)
    return fp, str(uuid.uuid5(NS_SLOT, f"{rec}:{_slug(obj_class)}"))


class Expected:
    """Everything the checks need from one generated input, computed once."""

    def __init__(self, input_dir: Path, arity: dict, obj_class: dict, meta: dict):
        import duckdb

        self.arity, self.meta = arity, meta
        con = duckdb.connect()
        con.execute(f"""
            CREATE VIEW recs AS
            SELECT conv_id, turn_idx,
                   json_extract_string(text, '$.artifact_type') AS atype,
                   json_extract_string(text, '$.description') AS descr,
                   json_extract_string(text, '$.source') AS src,
                   unnest(CASE WHEN json_extract(text, '$.records') IS NOT NULL
                               THEN json_extract(text, '$.records[*]')
                               ELSE [json_extract(text, '$.record')] END) AS rec
            FROM read_parquet('{_glob(input_dir)}')
            WHERE role = 'tool' AND text <> ''""")
        # one row per distinct record with its smallest (conv_id, turn_idx)
        rows = con.execute("""
            SELECT atype, descr, src, CAST(rec AS VARCHAR), count(*),
                   min(conv_id || '#' || lpad(CAST(turn_idx AS VARCHAR), 10, '0'))
            FROM recs GROUP BY ALL""").fetchall()
        self.records: dict[str, tuple] = {}  # fp -> (atype, object id, lineage, n)
        for atype, descr, src, rec, n, lin in rows:
            flat = {"artifact_type": atype, "description": descr, "source": src,
                    **json.loads(rec)}
            fp, oid = object_node_id(flat, obj_class[atype])
            conv, _, turn = lin.partition("#")
            old = self.records.get(fp)
            lineage = (conv, int(turn))
            if old is not None:
                lineage, n = min(lineage, old[2]), n + old[3]
            self.records[fp] = (atype, oid, lineage, n)
        self.literals = Counter()
        for atype, pred, field in LITERAL_ROUTES:
            for obj, n in con.execute(
                    f"SELECT json_extract_string(rec, '$.{field}'), count(*) "
                    f"FROM recs WHERE atype = ? GROUP BY 1", [atype]).fetchall():
                if obj is not None:
                    self.literals[(atype, pred, obj)] += n
        self.path_mentions = Counter()
        for (atype, pred, obj), n in self.literals.items():
            if pred in PATH_PREDS:
                self.path_mentions[normalize_path(obj)] += n
        con.close()

    def triple_counts(self, distinct: bool) -> Counter:
        per_type = Counter()
        for atype, _, _, n in self.records.values():
            per_type[atype] += 1 if distinct else n
        return Counter({(t, p): k * per_type[t] for (t, p), k in self.arity.items()
                        if per_type[t]})


def _q(sql: str):
    import duckdb

    con = duckdb.connect()
    try:
        return con.execute(sql).fetchall()
    finally:
        con.close()


def check_triple_counts(exp: Expected, triples: Path, distinct: bool):
    got = Counter({(t, p): n for t, p, n in _q(
        f"SELECT artifact_type, pred, count(*) FROM read_parquet('{_glob(triples)}')"
        " GROUP BY 1, 2")})
    want = exp.triple_counts(distinct)
    diff = {k: (got.get(k, 0), want.get(k, 0)) for k in set(got) | set(want)
            if got.get(k, 0) != want.get(k, 0)}
    return "triple_counts", not diff, f"{len(diff)} (type, pred) counts differ" + (
        f", e.g. {next(iter(diff.items()))}" if diff else "")


def check_literals(exp: Expected, triples: Path):
    got = Counter({(t, p, o): n for t, p, o, n in _q(
        f"SELECT artifact_type, pred, obj, count(*) FROM "
        f"read_parquet('{_glob(triples)}') WHERE obj_dt <> '@id' GROUP BY 1, 2, 3")})
    bad = (got - exp.literals) + (exp.literals - got)
    return "literal_values", not bad, f"{sum(bad.values())} literal triples differ"


def check_object_ids(exp: Expected, triples: Path):
    rows = _q(f"SELECT DISTINCT record_fp, subj FROM read_parquet('{_glob(triples)}')"
              " WHERE pred = 'uco-core:hasFacet'")
    want = {(fp, r[1]) for fp, r in exp.records.items()}
    got = set(rows)
    # an object node with two facets appears once per facet; facets carry no
    # hasFacet, so the pairs must match the recomputed ids exactly
    ok = got == want
    return "object_node_ids", ok, f"{len(got ^ want)} (fingerprint, id) pairs differ"


def check_no_violations(metrics_file: Path):
    viol = json.loads(metrics_file.read_text()).get("violations")
    return "no_violations", viol == [], f"violation summary {viol!r:.200}"


def check_no_duplicates(triples: Path):
    (n, d), = _q(f"SELECT count(*), count(DISTINCT (subj, pred, obj, obj_dt)) "
                 f"FROM read_parquet('{_glob(triples)}')")
    return "no_duplicate_triples", n == d, f"{n - d} duplicate triples"


def check_lineage(exp: Expected, triples: Path):
    rows = _q(f"SELECT DISTINCT record_fp, conv_id, turn_idx "
              f"FROM read_parquet('{_glob(triples)}')")
    got: dict[str, set] = {}
    for fp, conv, turn in rows:
        got.setdefault(fp, set()).add((conv, int(turn)))
    bad = [fp for fp, r in exp.records.items() if got.get(fp) != {r[2]}]
    bad += [fp for fp in got if fp not in exp.records]
    return "min_lineage", not bad, f"{len(bad)} records with wrong lineage"


def _shingles(path: str, k: int = 4) -> frozenset:
    """Distinct k-byte windows of the UTF-8 path (the whole path if shorter)."""
    b = path.encode("utf-8", "surrogatepass")
    if len(b) < k:
        return frozenset([b]) if b else frozenset()
    return frozenset(b[i:i + k] for i in range(len(b) - k + 1))


def _connected(paths: set) -> bool:
    """True when a chain of pairs with shingle Jaccard >= VERIFY_TAU joins
    every path of the set (breadth-first from one path)."""
    sh = [_shingles(p) for p in paths]
    todo, frontier = set(range(1, len(sh))), [0]
    while frontier and todo:
        a = sh[frontier.pop()]
        near = [j for j in todo
                if len(a | sh[j]) and len(a & sh[j]) / len(a | sh[j]) >= VERIFY_TAU]
        todo.difference_update(near)
        frontier.extend(near)
    return not todo


def check_entities(exp: Expected, entities: Path, links: Path, families: bool):
    """Canonicalization: one link per path mention, one entity per normalized
    path, canonical ids are uuid5 of the canonical path, every mention links
    to its path's entity. Against over-merging: an entity's canonical path is
    one of its own paths and verified near-duplicate pairs chain all its
    paths. With planted families (canonicalize), each family ends in one
    entity and no other paths merge: the random paths are far apart."""
    ent = pq.read_table(str(entities), columns=["norm_path", "canonical_path",
                                                "canonical_id"]).to_pylist()
    entity_of: dict[str, set] = {}
    members: dict[str, set] = {}
    canonical: dict[str, str] = {}
    for r in ent:
        entity_of.setdefault(r["norm_path"], set()).add(r["canonical_id"])
        members.setdefault(r["canonical_id"], set()).add(r["norm_path"])
        canonical[r["canonical_id"]] = r["canonical_path"]
    problems = []
    if set(entity_of) != set(exp.path_mentions):
        problems.append(f"{len(set(entity_of) ^ set(exp.path_mentions))} "
                        "normalized paths differ from the input's")
    split = [p for p, ids in entity_of.items() if len(ids) != 1]
    if split:
        problems.append(f"{len(split)} normalized paths with several entities")
    bad_id = [r for r in ent if r["canonical_id"] !=
              f"kb:entity-{uuid.uuid5(NS_ENTITY, r['canonical_path'])}"]
    if bad_id:
        problems.append(f"{len(bad_id)} canonical ids are not uuid5(canonical_path)")
    stray = [c for c, ps in members.items() if canonical[c] not in ps]
    if stray:
        problems.append(f"{len(stray)} entities whose canonical path is not one of their paths")
    loose = [c for c, ps in members.items() if len(ps) > 1 and not _connected(ps)]
    if loose:
        problems.append(f"{len(loose)} entities join paths that no chain of "
                        f"Jaccard >= {VERIFY_TAU} pairs links")
    (n_links,), = _q(f"SELECT count(*) FROM read_parquet('{_glob(links)}')")
    if n_links != sum(exp.path_mentions.values()):
        problems.append(f"{n_links} links for {sum(exp.path_mentions.values())} mentions")
    got = Counter(dict(_q(f"SELECT obj, count(*) FROM read_parquet('{_glob(links)}')"
                          " GROUP BY 1")))
    want = Counter()
    for p, n in exp.path_mentions.items():
        for cid in entity_of.get(p, {""}):
            want[cid] += n
    if got != want:
        problems.append(f"{sum(((got - want) + (want - got)).values())} links "
                        "point at another entity than their path's")
    if families:
        merged = 0
        for fam in exp.meta["families"]:
            present = {normalize_path(p) for p in fam} & set(exp.path_mentions)
            ids = set().union(*(entity_of.get(p, set()) for p in present))
            if len(ids) > 1:
                problems.append(f"planted family {fam[0]!r} split into {len(ids)}")
                break
            merged += max(0, len(present) - 1)
        if len(members) != len(exp.path_mentions) - merged:
            problems.append(f"{len(members)} entities for {len(exp.path_mentions)} "
                            f"paths of which planted families merge {merged}")
    return ("entities_and_links", not problems,
            "; ".join(problems) or f"{len(entity_of)} paths, {n_links} links")


_EXPECTED: Expected | None = None


def init_worker(input_dir: str, goldens_dir: str, meta: dict) -> None:
    """First call of ``serve``: the checks run in their own process, so
    DuckDB's memory never shows in the driver's resident set."""
    from routing import golden_shapes

    global _EXPECTED
    arity, obj_class = golden_shapes(Path(goldens_dir))
    _EXPECTED = Expected(Path(input_dir), arity, obj_class, meta)


def unique_records() -> int:
    return len(_EXPECTED.records)


def check_job(workload: str, out: str) -> list[tuple]:
    return run_checks(workload, _EXPECTED, Path(out))


def run_checks(workload: str, exp: Expected, out: Path) -> list[tuple]:
    if workload == "flagship":
        t = out / "triples"
        return [check_triple_counts(exp, t, distinct=False),
                check_literals(exp, t),
                check_object_ids(exp, t),
                check_no_violations(out / "_metrics.json"),
                check_entities(exp, out / "entities", out / "entity_links", False)]
    if workload == "dedup":
        t = out / "triples"
        return [check_no_duplicates(t),
                check_triple_counts(exp, t, distinct=True),
                check_object_ids(exp, t),
                check_lineage(exp, t)]
    return [check_entities(exp, out / "entities", out / "entity_links", True)]


def serve() -> None:
    """Answer calls from the benchmark's driver: read pickled (function name,
    args) from stdin until it closes, write pickled (ok, result or error)."""
    import pickle
    import sys
    import traceback

    calls, replies = sys.stdin.buffer, sys.stdout.buffer
    sys.stdout = sys.stderr  # keep stray prints out of the reply stream
    while True:
        try:
            name, args = pickle.load(calls)
        except EOFError:
            return
        try:
            reply = (True, globals()[name](*args))
        except Exception:
            reply = (False, traceback.format_exc())
        pickle.dump(reply, replies)
        replies.flush()


if __name__ == "__main__":
    serve()
