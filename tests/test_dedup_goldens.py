"""Regression goldens for the near-dedup operators: the distributed round-2
implementation must reproduce the pinned round-1 outputs byte-for-byte
(tests/goldens/dedup/*). MinHash-LSH, the KG's near-dup kernel, is called
directly on the documents; SimHash and n-gram Jaccard through the corpus
library."""

from __future__ import annotations

from pathlib import Path

import pandas as pd
import pytest
import ray.data as rd

from case_uco_ontology_map_ray.ops import dedup as dd
from case_uco_ontology_map_ray.pipelines import corpus

GOLDEN = Path(__file__).parent / "goldens" / "dedup"
SF = "/root/testdata/sf0.001"


def _golden(name: str) -> pd.DataFrame:
    return pd.read_csv(GOLDEN / f"{name}_sf0.001.csv")


def _minhash_documents() -> pd.DataFrame:
    """``minhash_lsh_dedup`` at its defaults over the documents, in doc_id
    order with int64 columns."""
    docs = rd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    out = dd.minhash_lsh_dedup(docs).to_pandas()
    return (out.astype({"doc_id": "int64", "cluster_id": "int64"})
            .sort_values("doc_id").reset_index(drop=True))


def _py_simhash64(shingles) -> int:
    """Pure-Python SimHash of a shingle-hash set: bit i is set when more
    than half of the shingles have it set (0 for the empty set)."""
    out = 0
    for bit in range(64):
        ones = sum((int(h) >> bit) & 1 for h in shingles)
        if 2 * ones > len(shingles):
            out |= 1 << bit
    return out


def test_minhash_matches_golden(ray_session):
    got = _minhash_documents()
    want = _golden("minhash")
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_simhash_matches_golden(ray_session):
    got = corpus.dedup_simhash_documents(SF)
    want = _golden("simhash")
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_ngram_matches_golden(ray_session):
    got = corpus.ngram_jaccard_pairs(SF)
    want = _golden("ngram")
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_simhash_independent_oracle(ray_session):
    """The pinned simhash golden was regenerated from the implementation under
    test (self-pinned), so this is the INDEPENDENT check: a pure-Python
    brute-force of the same semantics — 16-bit band blocking, hamming via
    bin(x^y).count('1') on plain ints, union-find components relabelled to
    the component min — must produce the same (doc_id, group_id) table."""
    import pyarrow.parquet as pq

    from case_uco_ontology_map_ray.functions.hashing import word_shingles_batch

    t = pq.read_table(SF + "/documents.parquet", columns=["doc_id", "text"])
    docs = dict(zip(t.column("doc_id").to_pylist(), t.column("text").to_pylist()))
    sims = {d: _py_simhash64(word_shingles_batch([x], 3)[0])
            for d, x in docs.items()}

    buckets: dict = {}
    for d in sims:
        for ci, shift in enumerate((0, 16, 32, 48)):
            buckets.setdefault((ci, (sims[d] >> shift) & 0xFFFF), []).append(d)

    parent = {d: d for d in sims}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for members in buckets.values():
        root = min(members)
        for m in members:
            if m != root and bin(sims[m] ^ sims[root]).count("1") <= 3:
                ra, rb = find(m), find(root)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)

    comp: dict = {}
    for d in sims:
        comp.setdefault(find(d), []).append(d)
    want = {}
    for members in comp.values():
        lo = min(members)
        for d in members:
            want[d] = lo

    got = corpus.dedup_simhash_documents(SF)
    assert dict(zip(got.doc_id, got.group_id)) == want


def test_minhash_no_driver_text_materialization(ray_session):
    """The dedup operators must never collect the text column to the driver:
    a Dataset whose text accessor explodes still dedups fine."""
    import numpy as np
    import pyarrow as pa

    n = 60
    rng = np.random.RandomState(0)
    texts = [" ".join(f"tok{rng.randint(40)}" for _ in range(30)) for _ in range(n)]
    texts[10] = texts[3]  # exact dup -> same cluster
    ds = rd.from_arrow(pa.table({"doc_id": pa.array(range(n), pa.int64()),
                                 "text": pa.array(texts)}))
    out = dd.minhash_lsh_dedup(ds).to_pandas().sort_values("doc_id")
    assert len(out) == n
    c3 = out.loc[out.doc_id == 3, "cluster_id"].iloc[0]
    c10 = out.loc[out.doc_id == 10, "cluster_id"].iloc[0]
    assert c3 == c10 == 3


def test_vectorized_popcount_exact():
    """The byte-table popcount must equal bin(x).count('1') on exact uint64 —
    round 1 grouped on float64-corrupted fingerprints; this pins the fixed
    kernel."""
    import numpy as np

    from case_uco_ontology_map_ray.ops.dedup import _POPCOUNT8

    rng = np.random.RandomState(7)
    x = rng.randint(0, 2**63, size=256, dtype=np.int64).astype(np.uint64)
    x[0] = np.uint64(2**64 - 1)  # high bits matter
    dist = np.zeros(len(x), dtype=np.int64)
    for shift in range(0, 64, 8):
        byte = ((x >> np.uint64(shift)) & np.uint64(0xFF)).astype(np.int64)
        dist += _POPCOUNT8[byte]
    want = [bin(int(v)).count("1") for v in x]
    assert dist.tolist() == want


def test_propagate_components_distributed_path(ray_session):
    """Force the distributed propagate_labels path (small_threshold=0) and
    assert it matches the numpy small path on the same edges."""
    import pyarrow as pa

    from case_uco_ontology_map_ray.ops.dedup import _propagate_components

    edges = rd.from_arrow(pa.table({
        "u": pa.array([2, 3, 7], pa.int64()),
        "v": pa.array([1, 2, 5], pa.int64()),
    }))
    ids = rd.from_arrow(pa.table({"doc_id": pa.array(range(9), pa.int64())}))
    small = _propagate_components(edges, ids, "cid").to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    big = _propagate_components(edges, ids, "cid",
                                small_threshold=0).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(small, big, check_dtype=False)
    # chain 1-2-3 collapses to 1; 5-7 to 5; rest singleton
    want = {0: 0, 1: 1, 2: 1, 3: 1, 4: 4, 5: 5, 6: 6, 7: 5, 8: 8}
    got = dict(zip(small.doc_id, small.cid))
    assert got == want


def test_verify_join_fallback_equals_broadcast(ray_session, monkeypatch):
    """Above BROADCAST_VERIFY_THRESHOLD the verify stage falls back to
    bucketed joins — force that path and assert identical clustering."""
    got_broadcast = _minhash_documents()
    monkeypatch.setattr(dd, "BROADCAST_VERIFY_THRESHOLD", 0)
    got_join = _minhash_documents()
    pd.testing.assert_frame_equal(got_join, got_broadcast)
