"""Tests for dedup / similarity / text-analysis operators (sf0.001 tables
+ synthetic near-dup corpora)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from case_uco_ontology_map_ray.ops.agg import round_away

pytestmark = pytest.mark.usefixtures("ray_session")

SF = "/root/testdata/sf0.001"


def _docs_with_dups():
    import ray.data as rd

    base = [
        "the quick brown fox jumps over the lazy dog and runs far away",
        "the quick brown fox jumps over the lazy dog and runs far off",
        "completely different content about database query engines and joins",
        "another unrelated document mentioning streams windows and watermarks",
        "the quick brown fox jumps over the lazy dog and runs far away",  # exact dup of 0
    ]
    return rd.from_items([{"doc_id": i, "text": t} for i, t in enumerate(base)])


def test_exact_dedup_keeps_min_id():
    from case_uco_ontology_map_ray.ops.dedup import exact_dedup

    kept = sorted(exact_dedup(_docs_with_dups()).to_pandas()["doc_id"])
    assert kept == [0, 1, 2, 3]  # doc 4 is an exact dup of doc 0


def test_simhash_groups_near_dups():
    from case_uco_ontology_map_ray.ops.dedup import simhash_groups

    out = simhash_groups(_docs_with_dups(), radius=6).to_pandas()
    gr = dict(zip(out.doc_id, out.group_id))
    assert gr[0] == gr[4]
    assert gr[2] != gr[0] and gr[3] != gr[0]


def test_ngram_jaccard_pairs_finds_pair():
    from case_uco_ontology_map_ray.ops.dedup import ngram_jaccard_pairs

    out = ngram_jaccard_pairs(_docs_with_dups(), tau=0.4)
    pairs = set(zip(out.id_a, out.id_b))
    assert (0, 4) in pairs and (0, 1) in pairs
    assert all(a < b for a, b in pairs)


def test_brute_force_topk_matches_numpy():
    import ray.data as rd

    from case_uco_ontology_map_ray.ops.similarity import brute_force_topk

    rng = np.random.RandomState(0)
    m = rng.randn(200, 16).astype(np.float32)
    ds = rd.from_items(
        [{"vec_id": i, "embedding": m[i].tolist()} for i in range(200)]
    )
    q = m[0].astype(np.float64)
    got = brute_force_topk(ds, q, k=5, exclude_ids=(0,))
    mn = m.astype(np.float64)
    mn = mn / np.linalg.norm(mn, axis=1, keepdims=True)
    cos = mn @ (q / np.linalg.norm(q))
    cos[0] = -2
    want = set(np.argsort(-cos)[:5].tolist())
    assert set(got["vec_id"]) == want


def test_ivf_topk_high_recall_with_full_probe():
    import ray.data as rd

    from case_uco_ontology_map_ray.ops.similarity import brute_force_topk, ivf_topk

    rng = np.random.RandomState(1)
    m = rng.randn(300, 16).astype(np.float32)
    ds = rd.from_items([{"vec_id": i, "embedding": m[i].tolist()} for i in range(300)])
    q = m[7].astype(np.float64)
    exact = set(brute_force_topk(ds, q, k=10)["vec_id"])
    approx = set(ivf_topk(ds, q, k=10, n_centroids=8, nprobe=8)["vec_id"])
    assert len(exact & approx) >= 9  # nprobe == n_centroids -> near-exhaustive


def test_ivf_persisted_index_full_probe_is_exact(tmp_path):
    import ray.data as rd

    from case_uco_ontology_map_ray.ops.similarity import (
        brute_force_topk, build_ivf_index, ivf_index_topk)

    rng = np.random.RandomState(2)
    m = rng.randn(300, 16).astype(np.float32)
    ds = rd.from_items([{"vec_id": i, "embedding": m[i].tolist()} for i in range(300)])
    q = m[7].astype(np.float64)

    meta = build_ivf_index(ds, str(tmp_path / "ivf"), n_centroids=8)
    assert meta["n_centroids"] == 8 and meta["dim"] == 16
    # hive layout: one centroid=<c> dir per non-empty partition
    parts = sorted(p.name for p in (tmp_path / "ivf" / "vectors").iterdir())
    assert all(p.startswith("centroid=") for p in parts) and len(parts) >= 2

    exact = brute_force_topk(ds, q, k=10)
    full = ivf_index_topk(str(tmp_path / "ivf"), q, k=10, nprobe=8)
    # full probe == exact search (same ids, same rounded cosines)
    assert list(full["vec_id"]) == list(exact["vec_id"])
    assert np.allclose(full["cos"], exact["cos"])

    # pruned probe reads a strict subset and keeps high recall
    pruned = ivf_index_topk(str(tmp_path / "ivf"), q, k=10, nprobe=3)
    assert len(set(pruned["vec_id"]) & set(exact["vec_id"])) >= 7


def test_quality_scores_schema_and_range():
    import ray.data as rd

    from case_uco_ontology_map_ray.ops.text import QualityScorer

    ds = rd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    out = ds.map_batches(QualityScorer(), batch_format="pyarrow").to_pandas()
    assert len(out) == 500
    assert out.quality_score.between(0, 1).all()
    assert out.punct_ratio.between(0, 1).all()


def _quality_row_ref(x: str, stop) -> tuple:
    """Per-row reference (the pre-vectorization round-2 implementation):
    Python re findall + per-char loops. The vectorized RE2 stage must
    reproduce these values exactly."""
    import re

    word = re.compile(r"\w+", re.UNICODE)
    punct = re.compile(r"[^\w\s]", re.UNICODE)
    toks = word.findall(x)
    nt = len(toks) or 1
    mean_tok = sum(map(len, toks)) / nt
    punct_ratio = len(punct.findall(x)) / max(1, len(x))
    stop_ratio = sum(1 for w in toks if w.lower() in stop) / nt
    upper_ratio = sum(1 for c in x if c.isupper()) / max(1, len(x))
    return mean_tok, punct_ratio, stop_ratio, upper_ratio


TRICKY_TEXTS = [
    "",  # empty
    "   ",  # whitespace only
    "The quick brown fox, it's FAST! (really)",
    "a a a of of THE that",  # consecutive stopwords
    "für die straße — und der Bär IST groß",  # unicode words + dash
    "word_under_score 123 mixed123case",  # underscores and digits
    "no.stops.here;just,punct!",
    "ALLUPPER TEXT WITH THE STOPWORD",
]


def test_quality_scorer_matches_per_row_reference(ray_session):
    """Vectorized QualityScorer == the per-row reference on real sf0.001
    docs AND on tricky synthetic strings (unicode, empties, punctuation)."""
    import numpy as np
    import pyarrow.parquet as pq
    import ray.data as rd

    from case_uco_ontology_map_ray.ops.text import _LANG_PROFILES, QualityScorer

    real = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "text"]).to_pylist()
    rows = real + [{"doc_id": 10_000 + i, "text": x}
                   for i, x in enumerate(TRICKY_TEXTS)]
    ds = rd.from_items(rows)
    got = (ds.map_batches(QualityScorer(), batch_format="pyarrow").to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    stop = _LANG_PROFILES["en"]
    want = sorted(rows, key=lambda r: r["doc_id"])
    for i, r in enumerate(want):
        mt, pr, sr, ur = _quality_row_ref(r["text"], stop)
        # round_away: repo-wide rounding convention (matches DuckDB ROUND()
        # so doc_quality is oracle-checkable)
        assert got.mean_token_len[i] == round_away(mt, 3), (r, got.iloc[i])
        assert got.punct_ratio[i] == round_away(pr, 4), (r, got.iloc[i])
        assert got.stopword_ratio[i] == round_away(sr, 4), (r, got.iloc[i])
        assert got.upper_ratio[i] == round_away(ur, 4), (r, got.iloc[i])


def test_embedding_neardup_bucketpair_matches_bruteforce():
    """The bucket-pair exact self-join must equal the O(n^2) reference
    computation (it IS exact — only the distribution strategy changed)."""
    import ray.data as rd

    from case_uco_ontology_map_ray.ops.agg import round_away
    from case_uco_ontology_map_ray.ops.similarity import embedding_neardup_pairs

    rng = np.random.RandomState(3)
    m = rng.randn(120, 8)
    ds = rd.from_items(
        [{"vec_id": i, "embedding": m[i].tolist()} for i in range(120)]
    )
    got = embedding_neardup_pairs(ds, tau=0.8, num_buckets=4)
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    cos = mn @ mn.T
    ai, bj = np.where(cos >= 0.8)
    keep = ai < bj
    import pandas as pd
    want = pd.DataFrame({"id_a": ai[keep], "id_b": bj[keep],
                         "cos": round_away(cos[ai, bj][keep], 4)}) \
        .sort_values(["id_a", "id_b"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got, want.astype({"id_a": "int64", "id_b": "int64"}), check_dtype=False)


def test_embedding_neardup_lsh_recall():
    """Hyperplane-LSH candidates + exact verify: precision 1.0 (verified),
    recall bounded below on the test table at the query's band config."""
    from case_uco_ontology_map_ray.pipelines.corpus import (
        embedding_neardup,
        embedding_neardup_lsh,
    )

    sf = "/root/testdata/sf0.001"
    exact = embedding_neardup(sf)
    lsh = embedding_neardup_lsh(sf)
    ep = set(zip(exact.id_a, exact.id_b))
    lp = set(zip(lsh.id_a, lsh.id_b))
    assert lp <= ep                       # exact verify => no false positives
    assert len(lp & ep) / max(1, len(ep)) >= 0.8


def test_top_bigrams_boundaries(tmp_path):
    """Bigram pairs never cross document boundaries and skip empty tokens."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from case_uco_ontology_map_ray.pipelines.corpus import top_bigrams

    t = pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                  "text": pa.array(["a b c", "c a  b", "  b c "])})
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = top_bigrams(str(tmp_path))
    got = dict(zip(out.bigram, out.n))
    # 'a b': doc0 + doc1(double space collapses); 'b c': doc0 + doc2
    assert got == {"a b": 2, "b c": 2, "c a": 1}


def test_ngram_jaccard_exact_matches_bruteforce():
    """ngram_jaccard_exact == a pure-Python string-shingle brute force on a
    corpus with planted near-dups, short docs (whole-text fallback), and an
    empty doc. Independently validates the 64-bit shingle-hash Jaccard
    (collision-free proxy for string-set Jaccard) and the bucket-pair
    all-pairs generation."""
    import ray.data as rd

    from case_uco_ontology_map_ray.ops.dedup import ngram_jaccard_exact

    texts = [
        "the quick brown fox jumps over the lazy dog tonight",
        "the quick brown fox jumps over the lazy dog today",
        "completely different content about database query engines",
        "the quick brown fox jumps over the lazy dog tonight again",
        "tiny doc",          # < k tokens: whole-text fallback shingle
        "tiny doc",          # identical fallback -> jac 1.0
        "",                  # empty set
    ]
    ds = rd.from_items([{"doc_id": i, "text": t} for i, t in enumerate(texts)])
    got = ngram_jaccard_exact(ds, shingle_k=3, tau=0.3, num_buckets=4)

    def shingles(t: str, k: int = 3) -> set:
        toks = t.split()
        if len(toks) >= k:
            return {" ".join(toks[i:i + k]) for i in range(len(toks) - k + 1)}
        if toks:
            return {" ".join(toks)}
        return set()

    want = []
    for a in range(len(texts)):
        for b in range(a + 1, len(texts)):
            sa, sb = shingles(texts[a]), shingles(texts[b])
            if not sa and not sb:
                jac = 1.0
            else:
                jac = len(sa & sb) / len(sa | sb)
            if jac >= 0.3:
                want.append((a, b, float(round_away(jac, 4))))
    got_tuples = [(int(r.id_a), int(r.id_b), float(r.jac))
                  for r in got.itertuples()]
    assert got_tuples == sorted(want)
    # sanity: the planted near-dups and the identical short docs are found
    assert (0, 1) in {(a, b) for a, b, _ in got_tuples}
    assert (4, 5, 1.0) in got_tuples


def test_deterministic_sampling_matches_reference_rule():
    import hashlib

    import ray.data as rd

    from case_uco_ontology_map_ray.ops.sample import (
        bernoulli_sample, stratified_sample)

    rows = [{"doc_id": i, "lang": ("en" if i % 3 == 0 else "de")}
            for i in range(400)]
    ds = rd.from_items(rows)

    got = sorted(bernoulli_sample(ds, "doc_id", 10, method="md5").to_pandas().doc_id)
    want = [i for i in range(400)
            if int(hashlib.md5(f"{i}:42".encode()).hexdigest()[:8], 16) % 100 < 10]
    assert got == want
    # deterministic across runs / partitionings
    got2 = sorted(bernoulli_sample(ds.repartition(7), "doc_id", 10,
                                   method="md5").to_pandas().doc_id)
    assert got2 == want

    strat = stratified_sample(ds, "doc_id", "lang", {"en": 50}, default_pct=5,
                              method="md5")
    df = strat.to_pandas()
    en = df[df.lang == "en"]; de = df[df.lang == "de"]
    # en sampled at ~50%, de at ~5% of their strata
    assert len(en) > 3 * len(de)
    for i in df.doc_id:
        h = int(hashlib.md5(f"{i}:42".encode()).hexdigest()[:8], 16) % 100
        assert h < (50 if i % 3 == 0 else 5)


def test_mix64_sampling_vectorized_default():
    """Default (production) sampling path: vectorized, fractional rates,
    deterministic across partitionings, rate within statistical bounds."""
    import ray.data as rd

    from case_uco_ontology_map_ray.ops.sample import (
        bernoulli_sample, stratified_sample)

    rows = [{"doc_id": i, "lang": ("en" if i % 3 == 0 else "de")}
            for i in range(4000)]
    ds = rd.from_items(rows)

    got = sorted(bernoulli_sample(ds, "doc_id", 10).to_pandas().doc_id)
    # deterministic across partitionings
    got2 = sorted(bernoulli_sample(ds.repartition(7), "doc_id", 10)
                  .to_pandas().doc_id)
    assert got == got2
    assert 4000 * 0.06 < len(got) < 4000 * 0.14     # ~10%

    # fractional rate actually samples fractionally (the md5 rule can't)
    frac = bernoulli_sample(ds, "doc_id", 0.5).to_pandas()
    assert 0 < len(frac) < 4000 * 0.02               # ~0.5%

    strat = stratified_sample(ds, "doc_id", "lang", {"en": 50}, default_pct=5)
    df = strat.to_pandas()
    en = df[df.lang == "en"]; de = df[df.lang == "de"]
    assert len(en) > 3 * len(de)
    # per-stratum membership is consistent with the bernoulli rule at the
    # same rate (same key hash, rate only selects the threshold)
    en_only = set(bernoulli_sample(ds, "doc_id", 50).to_pandas().doc_id)
    assert set(en.doc_id) == {i for i in en_only if i % 3 == 0}


def test_kmeans_fit_invariants(ray_session):
    """Distributed spherical k-means: inertia non-increasing, every vector
    assigned, deterministic at a fixed partitioning."""
    import ray.data as rd

    from case_uco_ontology_map_ray.ops.similarity import kmeans_fit

    rng = np.random.RandomState(7)
    # three well-separated direction clusters
    base = np.eye(3)[[0, 1, 2]].repeat(60, axis=0)
    m = base + rng.normal(scale=0.05, size=(180, 3))
    t = pa.table({"vec_id": pa.array(range(180), pa.int64()),
                  "embedding": pa.array([list(r) for r in m],
                                        pa.list_(pa.float64()))})
    ds = rd.from_arrow(t).repartition(4)

    cents, hist = kmeans_fit(ds, n_clusters=3, n_iter=5)
    assert cents.shape == (3, 3)
    inertias = [h["inertia"] for h in hist]
    assert all(a >= b - 1e-9 for a, b in zip(inertias, inertias[1:]))
    assert sum(hist[-1]["sizes"]) == 180
    # well-separated clusters -> balanced sizes and near-zero final inertia
    assert sorted(hist[-1]["sizes"]) == [60, 60, 60]
    assert inertias[-1] < 1.0

    cents2, hist2 = kmeans_fit(ds, n_clusters=3, n_iter=5)
    assert np.allclose(cents, cents2) and hist == hist2


def test_word_grams_respect_doc_boundaries_and_edges(ray_session):
    """Sliding k-gram windows never cross documents; edge whitespace and
    short/empty docs contribute nothing; in-batch distinct dedups."""
    import pyarrow as pa

    from case_uco_ontology_map_ray.pipelines.corpus import _word_grams

    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array([" a b c d ",      # edge spaces stripped -> 1 gram
                          "x y z",           # only 3 tokens -> no 4-gram
                          "",                # empty
                          "a b c d a b c d a b c d"]),  # dup grams collapse
    })
    out = _word_grams(t, 4, with_doc=True).to_pandas()
    got = set(map(tuple, out.values.tolist()))
    assert (1, "a b c d") in got
    assert not any(d in (2, 3) for d, _ in got)
    d4 = sorted(g for d, g in got if d == 4)
    # doc 4 has 9 windows but only 4 distinct grams (period-4 repetition)
    assert len(d4) == 4 and "a b c d" in d4


def test_exact_dedup_poly128_matches_md5_mode():
    """r5: the vectorized poly128 content hash is the default exact-dedup
    key; md5 stays as the documented oracle twin. Both modes must keep the
    identical id set (the hash only partitions by content)."""
    import ray.data as rd

    from case_uco_ontology_map_ray.ops.dedup import exact_dedup

    rows = [{"doc_id": i, "text": t} for i, t in enumerate(
        ["alpha", "beta", "alpha", "", "beta", "gamma", "", "alpha x"])]
    ds = rd.from_items(rows)
    kept_poly = sorted(r["doc_id"] for r in exact_dedup(ds).take_all())
    kept_md5 = sorted(r["doc_id"] for r in
                      exact_dedup(ds, hash_mode="md5").take_all())
    assert kept_poly == kept_md5 == [0, 1, 3, 5, 7]


def test_kmeans_fit_tolerates_empty_blocks(ray_session):
    """r5 ADVICE: a dataset containing an empty block must not crash the
    per-iteration partials kernel (reshape(-1) can't infer dim from size 0)."""
    import ray.data as rd

    from case_uco_ontology_map_ray.ops.similarity import kmeans_fit

    rng = np.random.RandomState(11)
    m = np.eye(2)[[0, 1]].repeat(20, axis=0) + rng.normal(scale=0.05, size=(40, 2))
    t = pa.table({"vec_id": pa.array(range(40), pa.int64()),
                  "embedding": pa.array([list(r) for r in m],
                                        pa.list_(pa.float64()))})
    empty = pa.table({"vec_id": pa.array([], pa.int64()),
                      "embedding": pa.array([], pa.list_(pa.float64()))})
    ds = rd.from_arrow([t.slice(0, 20), empty, t.slice(20, 20)])
    cents, hist = kmeans_fit(ds, n_clusters=2, n_iter=3)
    assert cents.shape == (2, 2)
    assert sum(hist[-1]["sizes"]) == 40


def test_unigram_lm_scores_hand_computed(ray_session, tmp_path):
    """Three-doc corpus with a hand-computable model: N=6 tokens,
    c(a)=3, c(b)=2, c(rare)=1; empty-text docs are omitted."""
    import math

    import pyarrow.parquet as pq

    from case_uco_ontology_map_ray.pipelines.corpus import unigram_lm_scores

    t = pa.table({"doc_id": [1, 2, 3, 4],
                  "text": ["a a b", "a b rare", "", "   "]})
    pq.write_table(t, tmp_path / "documents.parquet")
    out = unigram_lm_scores(str(tmp_path))
    assert out["doc_id"].tolist() == [1, 2]
    assert out["n_tokens"].tolist() == [3, 3]
    nll = lambda c: -math.log(c / 6.0)
    exp1 = round((2 * nll(3) + nll(2)) / 3, 4)
    exp2 = round((nll(3) + nll(2) + nll(1)) / 3, 4)
    assert out["avg_nll"].tolist() == [exp1, exp2]
    # the common-token doc scores lower (better) than the rare-token doc
    assert exp1 < exp2


def test_split_assign_properties(ray_session):
    """Every row gets exactly one label; proportions approximate the
    fractions; assignment is stable under repartitioning and corpus
    growth (a key present in both corpora keeps its split)."""
    import ray.data as rd

    from case_uco_ontology_map_ray.ops.sample import split_assign

    fr = {"train": 0.8, "val": 0.1, "test": 0.1}
    t = pa.table({"doc_id": list(range(4000))})
    out = (split_assign(rd.from_arrow(t), "doc_id", fr, seed=7)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    counts = out["split"].value_counts()
    assert set(counts.index) <= set(fr)
    assert counts.sum() == 4000
    assert 0.75 < counts["train"] / 4000 < 0.85
    # partition-shape independence
    out2 = (split_assign(rd.from_arrow(t).repartition(13), "doc_id", fr,
                         seed=7).to_pandas()
            .sort_values("doc_id").reset_index(drop=True))
    assert out["split"].tolist() == out2["split"].tolist()
    # corpus-delta stability: first half's labels unchanged in the subset
    sub = (split_assign(rd.from_arrow(t.slice(0, 2000)), "doc_id", fr,
                        seed=7).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert sub["split"].tolist() == out["split"].tolist()[:2000]
    # md5 mode: same invariants, whole-percent buckets enforced
    m = (split_assign(rd.from_arrow(t.slice(0, 500)), "doc_id", fr,
                      method="md5").to_pandas())
    assert m["split"].notna().all()
    with pytest.raises(ValueError):
        split_assign(rd.from_arrow(t), "doc_id", {"a": 0.5, "b": 0.4})
    with pytest.raises(ValueError):
        split_assign(rd.from_arrow(t), "doc_id",
                     {"a": 0.995, "b": 0.005}, method="md5")


def test_quantize_embeddings_roundtrip(ray_session):
    """Dequantized vectors reconstruct within scale/2 per element; zero
    vectors get scale 0 + zero codes; codes stay in [-127, 127] with the
    max-magnitude element at exactly +-127."""
    import ray.data as rd

    from case_uco_ontology_map_ray.ops.similarity import quantize_embeddings

    rng = np.random.default_rng(7)
    m = rng.normal(size=(40, 16)).astype(np.float32)
    m[3] = 0.0  # zero vector
    t = pa.table({"vec_id": pa.array(range(40), pa.int64()),
                  "embedding": pa.array(list(m), pa.list_(pa.float32()))})
    out = (quantize_embeddings(rd.from_arrow(t)).to_pandas()
           .sort_values("vec_id").reset_index(drop=True))
    codes = np.stack(out["q"].to_numpy())
    scale = out["scale"].to_numpy()
    assert codes.dtype == np.int8 and codes.shape == (40, 16)
    assert np.abs(codes).max() <= 127
    assert scale[3] == 0.0 and (codes[3] == 0).all()
    nz = scale > 0
    # the max-|x| element hits +-127 exactly; reconstruction err <= scale/2
    assert (np.abs(codes[nz]).max(axis=1) == 127).all()
    recon = codes[nz].astype(np.float64) * scale[nz, None]
    assert np.abs(recon - m[nz].astype(np.float64)).max() <= (scale[nz] / 2 + 1e-12).max()
    # dequantized cosine stays close to the float cosine
    a, b = m[0].astype(np.float64), m[1].astype(np.float64)
    ra, rb = recon[0], recon[1]
    cos = lambda x, y: x @ y / (np.linalg.norm(x) * np.linalg.norm(y))
    assert abs(cos(a, b) - cos(ra, rb)) < 0.02


def test_quantized_topk_beam_recall(ray_session):
    """Full beam == exact brute force (same rows); a small beam keeps
    recall@10 >= 0.9 on gaussian embeddings (int8 cosine error ~1e-2)."""
    import ray.data as rd

    from case_uco_ontology_map_ray.ops.similarity import (
        brute_force_topk,
        quantized_topk,
    )

    rng = np.random.default_rng(11)
    m = rng.normal(size=(2000, 32)).astype(np.float32)
    t = pa.table({"vec_id": pa.array(range(2000), pa.int64()),
                  "embedding": pa.array(list(m), pa.list_(pa.float32()))})
    ds = rd.from_arrow(t).repartition(8)
    q = m[0].astype(np.float64)
    exact = brute_force_topk(ds, q, k=10, exclude_ids=(0,))
    full = quantized_topk(ds, q, k=10, beam=None, exclude_ids=(0,))
    assert full["vec_id"].tolist() == exact["vec_id"].tolist()
    assert full["cos"].tolist() == exact["cos"].tolist()
    small = quantized_topk(ds, q, k=10, beam=40, exclude_ids=(0,))
    recall = len(set(small["vec_id"]) & set(exact["vec_id"])) / 10
    assert recall >= 0.9


def test_semdedup_prunes_planted_neardups_keeps_min_id():
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from case_uco_ontology_map_ray.ops.similarity import semdedup

    rng = np.random.default_rng(7)
    base = rng.normal(size=(6, 8))
    # ids 10/11/12 are near-identical; the rest are random
    base[1] = base[0] + 1e-3 * rng.normal(size=8)
    base[2] = base[0] + 1e-3 * rng.normal(size=8)
    tab = pa.table({
        "vec_id": pa.array([10, 11, 12, 20, 21, 22], pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in base],
                              pa.list_(pa.float32())),
    })
    out = (semdedup(rd.from_arrow(tab), n_clusters=2, tau=0.95)
           .to_pandas().sort_values("vec_id").reset_index(drop=True))
    keep = dict(zip(out.vec_id, out.keep))
    assert keep[10] and not keep[11] and not keep[12]
    # near-identical vectors always share a cluster
    cl = dict(zip(out.vec_id, out.cluster))
    assert cl[10] == cl[11] == cl[12]


def test_semdedup_no_neardups_keeps_everything():
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from case_uco_ontology_map_ray.ops.similarity import semdedup

    eye = np.eye(5)
    tab = pa.table({
        "vec_id": pa.array(list(range(5)), pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in eye],
                              pa.list_(pa.float32())),
    })
    out = semdedup(rd.from_arrow(tab), n_clusters=3, tau=0.9).to_pandas()
    assert out.keep.all() and len(out) == 5


def test_semdedup_empty_corpus_is_schema_stable():
    import pyarrow as pa
    import ray.data as rd

    from case_uco_ontology_map_ray.ops.similarity import semdedup

    tab = pa.table({"vec_id": pa.array([], pa.int64()),
                    "embedding": pa.array([], pa.list_(pa.float32()))})
    out = semdedup(rd.from_arrow(tab), n_clusters=4, tau=0.9).to_pandas()
    # no crash, zero rows; Ray may drop the schema of a fully-empty lineage
    assert len(out) == 0
    assert set(out.columns) <= {"vec_id", "cluster", "keep"}


def test_bm25_search_hand_computed(ray_session, tmp_path):
    """Four-doc corpus with hand-computable BM25: the doc that repeats a
    query term beats a single mention of the same term; a shorter doc
    beats a longer one at equal tf; docs with no query term are absent."""
    import math

    import pyarrow.parquet as pq

    from case_uco_ontology_map_ray.pipelines.corpus import bm25_search

    t = pa.table({"doc_id": [1, 2, 3, 4],
                  "text": ["spark spark filler",          # tf=2, dl=3
                           "spark filler filler",          # tf=1, dl=3
                           "spark alpha beta gamma delta", # tf=1, dl=5
                           "alpha beta"]})                 # no query term
    pq.write_table(t, tmp_path / "documents.parquet")
    out = bm25_search(str(tmp_path), terms=("spark",), k=10)
    assert out["doc_id"].tolist() == [1, 2, 3]

    n, df, k1, b = 4, 3, 1.2, 0.75
    avgdl = (3 + 3 + 5 + 2) / n
    idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)

    def nano(tf, dl):
        c = (idf * (tf * (k1 + 1.0))
             / (tf + k1 * (1.0 - b + b * dl / avgdl)) * 1e9)
        return math.floor(c + 0.5) if c >= 0 else -math.floor(-c + 0.5)

    assert out["score_nano"].tolist() == [nano(2, 3), nano(1, 3), nano(1, 5)]
    assert out["bm25"].tolist() == [round(s / 1e9, 4)
                                    for s in out["score_nano"]]


def test_bm25_search_no_hits_and_empty_corpus(ray_session, tmp_path):
    """A term absent from every doc and an empty corpus both return a
    schema-stable empty frame."""
    import pyarrow.parquet as pq

    from case_uco_ontology_map_ray.pipelines.corpus import bm25_search

    t = pa.table({"doc_id": [1], "text": ["alpha beta"]})
    pq.write_table(t, tmp_path / "documents.parquet")
    out = bm25_search(str(tmp_path), terms=("zzz_missing",))
    assert list(out.columns) == ["doc_id", "score_nano", "bm25"]
    assert out.empty

    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "text": pa.array([], pa.string())})
    pq.write_table(empty, tmp_path / "documents.parquet")
    out2 = bm25_search(str(tmp_path))
    assert list(out2.columns) == ["doc_id", "score_nano", "bm25"]
    assert out2.empty


def test_pmi_collocations_hand_computed(ray_session, tmp_path):
    """Tiny corpus where one pair always co-occurs and another never does:
    the always-together pair gets the max PMI; pairs under min_count are
    pruned; document boundaries never form pairs."""
    import math

    import pyarrow.parquet as pq

    from case_uco_ontology_map_ray.pipelines.corpus import pmi_collocations

    # "x y" appears in every doc (5 times); "x z" never adjacent.
    docs = ["x y z w"] * 5 + ["w z"]
    t = pa.table({"doc_id": list(range(len(docs))), "text": docs})
    pq.write_table(t, tmp_path / "documents.parquet")
    out = pmi_collocations(str(tmp_path), k=10, min_count=5)
    # bigrams with c_ab >= 5: "x y", "y z", "z w" (5 each)
    assert sorted(out["bigram"]) == ["x y", "y z", "z w"]
    n_uni, n_bi = 22, 16  # 5*4 + 2 tokens; 5*3 + 1 pairs
    c = {"x": 5, "y": 5, "z": 6, "w": 6}

    def pmi(a, b):
        return math.log((5.0 * n_uni * n_uni) / (float(n_bi) * c[a] * c[b]))

    exp = {f"{a} {b}": pmi(a, b) for a, b in [("x", "y"), ("y", "z"),
                                              ("z", "w")]}
    got = dict(zip(out["bigram"], out["pmi_nano"]))
    for bg, p in exp.items():
        assert got[bg] == int(math.floor(p * 1e9 + 0.5))
    # "x y" (rarer unigrams) outranks "z w"
    assert out["bigram"].iloc[0] == "x y"
    # boundary: last token of doc i and first of doc i+1 never pair
    assert "w w" not in set(out["bigram"])


def test_pmi_collocations_empty_corpus(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from case_uco_ontology_map_ray.pipelines.corpus import pmi_collocations

    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "text": pa.array([], pa.string())})
    pq.write_table(empty, tmp_path / "documents.parquet")
    out = pmi_collocations(str(tmp_path))
    assert list(out.columns) == ["bigram", "c_ab", "pmi_nano", "pmi"]
    assert out.empty


def test_dup_ngram_coverage_hand_computed(ray_session, tmp_path):
    """Three-doc corpus with hand-countable word-2-gram duplication:
    doc1/doc2 share a gram, doc3 is all-unique (exercises the LEFT-join
    zero-fill), and doc4 repeats a gram WITHIN itself (self-duplication
    counts, per the Lee-et-al contract)."""
    import pyarrow.parquet as pq

    from case_uco_ontology_map_ray.pipelines.corpus import dup_ngram_coverage

    t = pa.table({"doc_id": [1, 2, 3, 4],
                  "text": ["a b c",        # grams: "a b", "b c"
                           "a b x",        # grams: "a b", "b x"
                           "p q r",        # grams: "p q", "q r" (unique)
                           "z w z w"]})    # grams: "z w" x2, "w z"
    pq.write_table(t, tmp_path / "documents.parquet")
    out = dup_ngram_coverage(str(tmp_path), k_gram=2)
    got = {r.doc_id: (r.n_grams, r.n_dup_grams, r.n_dup_positions)
           for r in out.itertuples()}
    assert got == {1: (2, 1, 1),   # "a b" duplicated via doc2
                   2: (2, 1, 1),
                   3: (2, 0, 0),   # all-unique -> zero-filled
                   4: (3, 1, 2)}   # "z w" occurs twice inside doc4


def test_dup_ngram_coverage_short_docs_excluded(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from case_uco_ontology_map_ray.pipelines.corpus import dup_ngram_coverage

    t = pa.table({"doc_id": [1, 2], "text": ["only", "a b a b a b"]})
    pq.write_table(t, tmp_path / "documents.parquet")
    out = dup_ngram_coverage(str(tmp_path), k_gram=3)
    # doc1 has no 3-grams and is absent; doc2: "a b a" x2, "b a b" x2
    assert out["doc_id"].tolist() == [2]
    assert out.iloc[0][["n_grams", "n_dup_grams",
                        "n_dup_positions"]].tolist() == [4, 2, 4]


def test_weighted_bottomk_matches_local_rule_and_skips_nonpositive(
        ray_session, tmp_path):
    """The distributed weighted bottom-k equals a local recomputation of
    the E-S rule; zero/negative weights are never sampled; both hash
    modes pick weight-monotone deterministic sets."""
    import hashlib
    import math

    import ray.data as rd

    from case_uco_ontology_map_ray.ops.sample import weighted_bottomk

    t = pa.table({"k": pa.array(list(range(30)), pa.int64()),
                  "w": pa.array([0, -5] + [(i * 37) % 97 + 1
                                           for i in range(28)], pa.int64())})
    out = weighted_bottomk(rd.from_arrow(t).repartition(4), "k", "w",
                           k=8, seed=42, method="md5")
    ranks = {}
    for kv, wv in zip(t.column("k").to_pylist(), t.column("w").to_pylist()):
        if wv <= 0:
            continue
        h = int(hashlib.md5(f"{kv}:42".encode()).hexdigest()[:8], 16)
        ranks[kv] = -math.log((h + 1) / 4294967296.0) / wv
    want = sorted(ranks, key=lambda kv: (ranks[kv], kv))[:8]
    assert out["k"].tolist() == want
    assert 0 not in out["k"].tolist() and 1 not in out["k"].tolist()

    m = weighted_bottomk(rd.from_arrow(t).repartition(4), "k", "w",
                         k=8, seed=42, method="mix64")
    assert len(m) == 8
    assert not set(m["k"]).intersection({0, 1})
    again = weighted_bottomk(rd.from_arrow(t), "k", "w",
                             k=8, seed=42, method="mix64")
    assert m["k"].tolist() == again["k"].tolist()  # partition-invariant


def test_grouped_bottomk_sample_exact_k_per_group(ray_session):
    import hashlib

    import ray.data as rd

    from case_uco_ontology_map_ray.ops.sample import grouped_bottomk_sample

    t = pa.table({"id": pa.array(list(range(40)), pa.int64()),
                  "g": pa.array(["a", "b", "c", "d"] * 10, pa.string())})
    ds = rd.from_arrow(t).repartition(6)
    out = (grouped_bottomk_sample(ds, "g", "id", k=3, seed=42, method="md5")
           .to_pandas().sort_values(["g", "id"]).reset_index(drop=True))
    assert out.groupby("g").size().tolist() == [3, 3, 3, 3]
    # matches a local recomputation of the same rank rule
    for g in "abcd":
        ids = [i for i in range(40) if "abcd"[i % 4] == g]
        want = sorted(ids, key=lambda i: (
            hashlib.md5(f"{i}:42".encode()).hexdigest(), i))[:3]
        assert sorted(out[out.g == g]["id"].tolist()) == sorted(want)

    # mix64 mode: deterministic, partition-invariant, exact-k
    m1 = (grouped_bottomk_sample(ds, "g", "id", k=3).to_pandas()
          .sort_values(["g", "id"]).reset_index(drop=True))
    m2 = (grouped_bottomk_sample(rd.from_arrow(t), "g", "id", k=3)
          .to_pandas().sort_values(["g", "id"]).reset_index(drop=True))
    assert m1.equals(m2) and m1.groupby("g").size().tolist() == [3, 3, 3, 3]


@pytest.mark.usefixtures("ray_session")
def test_bigram_lm_order_sensitivity(tmp_path):
    """Docs built from the same tokens score by ORDER: a doc repeating the
    corpus-dominant bigram scores lower (more likely) than one using the
    same unigrams in a rare order; unigram evidence alone cannot separate
    them."""
    import pyarrow.parquet as pq

    from case_uco_ontology_map_ray.pipelines.corpus import bigram_lm_scores

    common = "a b " * 20              # dominant bigram (a, b)
    docs = pa.table({
        "doc_id": pa.array(["bg", "common", "rare"]),
        "text": pa.array([common, "a b a b a b", "b a b a b a"]),
    })
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    r = bigram_lm_scores(str(tmp_path)).set_index("doc_id")
    assert int(r.loc["common", "n_bigrams"]) == 5
    assert int(r.loc["rare", "n_bigrams"]) == 5
    # same unigrams, same length — only bigram order separates them
    assert int(r.loc["common", "nll_e4_sum"]) < int(r.loc["rare",
                                                          "nll_e4_sum"])


@pytest.mark.usefixtures("ray_session")
def test_bigram_lm_short_docs_omitted(tmp_path):
    """Docs with < 2 tokens carry no bigram evidence and are omitted."""
    import pyarrow.parquet as pq

    from case_uco_ontology_map_ray.pipelines.corpus import bigram_lm_scores

    docs = pa.table({
        "doc_id": pa.array(["one", "none", "two"]),
        "text": pa.array(["solo", "   ", "pair here"]),
    })
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    r = bigram_lm_scores(str(tmp_path))
    assert sorted(r["doc_id"]) == ["two"]
    assert int(r.loc[r["doc_id"] == "two", "n_bigrams"].iloc[0]) == 1
