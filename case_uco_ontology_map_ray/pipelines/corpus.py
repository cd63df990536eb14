"""Training-data corpus pipelines over documents/embeddings test tables:
dedup, text analysis, similarity search. Query-shaped (sf_dir -> result);
no ``__ray_entry__`` query calls them any more, and the ones left are
those the unit tests pin.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from ..ops import dedup as dd
from ..ops import similarity as sim


def _docs(sf_dir: str, columns=None):
    return rd.read_parquet(f"{sf_dir}/documents.parquet", columns=columns)


def _finish(out: pd.DataFrame, keys: "list[str] | str",
            dtypes: "dict | None" = None) -> pd.DataFrame:
    """Final collect guard (the ADVICE r4 empty-input pattern): a fully-
    empty lineage loses its schema in Ray, so ``to_pandas()`` yields a
    ZERO-COLUMN frame — skip the sort/astype instead of raising KeyError;
    otherwise apply dtypes and the canonical row order."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    if not all(k in out.columns for k in keys):
        return out
    if dtypes:
        out = out.astype(dtypes)
    return out.sort_values(keys).reset_index(drop=True)


def _emb(sf_dir: str):
    return rd.read_parquet(f"{sf_dir}/embeddings.parquet")


def dedup_exact_documents(sf_dir: str) -> pd.DataFrame:
    out = dd.exact_dedup(_docs(sf_dir, ["doc_id", "text"])).to_pandas()
    return _finish(out, "doc_id")


def dedup_minhash_documents(sf_dir: str) -> pd.DataFrame:
    out = dd.minhash_lsh_dedup(_docs(sf_dir, ["doc_id", "text"])).to_pandas()
    return _finish(out, "doc_id",
                   {"doc_id": "int64", "cluster_id": "int64"})


def dedup_simhash_documents(sf_dir: str) -> pd.DataFrame:
    out = dd.simhash_groups(_docs(sf_dir, ["doc_id", "text"])).to_pandas()
    return _finish(out, "doc_id",
                   {"doc_id": "int64", "group_id": "int64"})


def ngram_jaccard_pairs(sf_dir: str) -> pd.DataFrame:
    return dd.ngram_jaccard_pairs(_docs(sf_dir, ["doc_id", "text"]))


def ngram_jaccard_exact(sf_dir: str) -> pd.DataFrame:
    """Exact all-pairs word 3-gram Jaccard >= 0.3 — oracle: DuckDB self-join
    over string shingle sets (the engine compares 64-bit shingle hashes, a
    collision-free proxy at these corpus sizes)."""
    return dd.ngram_jaccard_exact(_docs(sf_dir, ["doc_id", "text"]))


def top_bigrams(sf_dir: str, k: int = 15) -> pd.DataFrame:
    """Top word bigrams: whitespace tokens -> adjacent pairs, vectorized on
    the Arrow list layout (values array sliced by one + element-wise join,
    document boundaries masked via list offsets) -> partial counts ->
    global sum -> top-k. Oracle: DuckDB list_zip over split tokens."""
    import pyarrow.compute as pc

    from ..ops.agg import grouped_sums

    ds = _docs(sf_dir, ["text"])

    def explode(t: pa.Table) -> pa.Table:
        toks = pc.utf8_split_whitespace(
            pc.utf8_trim_whitespace(t.column("text"))).combine_chunks()
        offs = toks.offsets.to_numpy(zero_copy_only=False)
        vals = toks.values
        n = len(vals)
        if n < 2:
            return pa.table({"bigram": pa.array([], pa.string()),
                             "n_part": pa.array([], pa.int64())})
        a = vals.slice(0, n - 1)
        b = vals.slice(1, n - 1)
        joined = pc.binary_join_element_wise(a, b, " ")
        # pair j spans (vals[j], vals[j+1]); drop pairs crossing a document
        # boundary (j+1 == offs[k]) and pairs touching an empty token
        valid = np.ones(n - 1, dtype=bool)
        inner = offs[1:-1] - 1
        valid[inner[(inner >= 0) & (inner < n - 1)]] = False
        mask = pa.array(
            valid & (pc.utf8_length(a).to_numpy(zero_copy_only=False) > 0)
            & (pc.utf8_length(b).to_numpy(zero_copy_only=False) > 0))
        pairs = pa.table({"bigram": joined.filter(mask)})
        agg = pairs.group_by(["bigram"]).aggregate([([], "count_all")])
        return agg.rename_columns(["bigram", "n_part"])

    parts = ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
    out = grouped_sums(parts, keys=["bigram"], sum_cols={"n": "n_part"})
    out["n"] = out["n"].astype("int64")
    return (out.sort_values(["n", "bigram"], ascending=[False, True])
            .head(k)[["bigram", "n"]].reset_index(drop=True))


def _query_vector(sf_dir: str) -> np.ndarray:
    """The embedding of vec_id 0 — a fixed, reproducible query."""
    t = (
        _emb(sf_dir)
        .map_batches(
            lambda t: t.filter(pa.compute.equal(t.column("vec_id"), 0)),
            batch_format="pyarrow",
        )
        .to_pandas()
    )
    if "embedding" not in t.columns or len(t) == 0:
        return None  # empty embeddings table: there is no query vector
    return np.asarray(t["embedding"].iloc[0], dtype=np.float64)


def _empty_topk() -> pd.DataFrame:
    return pd.DataFrame({"vec_id": pd.Series(dtype="int64"),
                         "cos": pd.Series(dtype="float64")})


def similarity_topk(sf_dir: str) -> pd.DataFrame:
    q = _query_vector(sf_dir)
    if q is None:
        return _empty_topk()
    return sim.brute_force_topk(_emb(sf_dir), q, k=10, exclude_ids=(0,))


def embedding_neardup(sf_dir: str, tau: float = 0.45) -> pd.DataFrame:
    return sim.embedding_neardup_pairs(_emb(sf_dir), tau=tau)


def embedding_neardup_lsh(sf_dir: str, tau: float = 0.45) -> pd.DataFrame:
    """Approximate (hyperplane-LSH) near-dup pairs — the sublinear scale
    path; recall < 1 by design, so rows-only check (accuracy pinned in
    tests/test_corpus_ops.py). tau=0.45 is a wide angle, so use short bands
    (2 bits x 8): collision prob per band (1 - acos(tau)/pi)^2 ~ 0.42 ->
    ~0.99 recall. At the op's native tau~0.95 regime, longer bands (4x4)
    keep buckets sublinear."""
    return sim.embedding_neardup_lsh(_emb(sf_dir), tau=tau, n_bits=16, bands=8)


def kmeans_invariants(sf_dir: str, n_clusters: int = 8,
                      n_iter: int = 5) -> pd.DataFrame:
    """DuckDB-checkable invariants of distributed Lloyd's k-means (the
    centroids themselves are reduce-order-defined at the 1e-15 level, the
    invariants are not): every vector is assigned to exactly one cluster
    (sizes sum = SQL row count) and the objective never increases across
    iterations. One row (n_clusters, n_assigned, inertia_nonincreasing)."""
    import numpy as np

    _, history = sim.kmeans_fit(_emb(sf_dir), n_clusters=n_clusters,
                                n_iter=n_iter)
    inertias = [h["inertia"] for h in history]
    monotone = all(b <= a * (1 + 1e-9) for a, b in zip(inertias, inertias[1:]))
    n_assigned = int(np.sum(np.asarray(history[-1]["sizes"], dtype=np.int64)))
    return pd.DataFrame({
        "n_clusters": pd.array([n_clusters], dtype="int64"),
        "n_assigned": pd.array([n_assigned], dtype="int64"),
        "inertia_nonincreasing": pd.array([monotone], dtype="bool")})


def _word_grams(t: pa.Table, k_gram: int, with_doc: bool,
                counted: bool = False) -> pa.Table:
    """Distinct word k-grams per batch: Arrow whitespace split -> flatten ->
    drop empty edge tokens -> vectorized sliding-window join (k shifted
    numpy string views concatenated, masked at document boundaries).
    Documents never span batches, so the in-batch distinct is globally
    exact for (doc_id, gram). ``counted`` adds the per-key occurrence
    count ``cnt`` (exact for the same reason)."""
    import pyarrow.compute as pc

    toks_list = pc.utf8_split_whitespace(t.column("text"))
    flat = pc.list_flatten(toks_list)
    lens = pc.list_value_length(toks_list).to_numpy().astype(np.int64)
    doc = np.repeat(t.column("doc_id").to_numpy(), lens)
    keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    words = flat.to_numpy(zero_copy_only=False)[keep].astype("U")
    doc = doc[keep]
    n = len(words)
    if n < k_gram:
        cols = {"doc_id": pa.array([], pa.int64()),
                "gram": pa.array([], pa.string())}
        if counted:
            cols["cnt"] = pa.array([], pa.int64())
        out = pa.table(cols)
        return out if with_doc else out.select(
            ["gram", "cnt"] if counted else ["gram"])
    m = n - k_gram + 1
    ok = doc[:m] == doc[k_gram - 1:]          # window stays inside one doc
    grams = words[:m].copy()
    for i in range(1, k_gram):
        grams = np.char.add(np.char.add(grams, " "), words[i:m + i])
    out = pa.table({"doc_id": pa.array(doc[:m][ok], pa.int64()),
                    "gram": pa.array(grams[ok], pa.string())})
    keys = ["doc_id", "gram"] if with_doc else ["gram"]
    if counted:
        agg = out.group_by(keys).aggregate([([], "count_all")])
        return agg.rename_columns(keys + ["cnt"])
    agg = out.group_by(keys).aggregate([])
    return agg.select(keys)


def _unigram_scored(ds):
    """Shared engine of the unigram-LM quality signal: returns the LAZY
    scored Dataset with columns (doc_id, n_tokens:int64, avg_nll:float64
    rounded 4dp away-from-zero). See ``unigram_lm_scores`` for semantics.

    Two passes over the documents: (1) fit — one explode computes partial
    token counts per batch, one global groupby(token) finishes the corpus
    frequency model; (2) score — the (sorted tokens, counts, N) model is
    broadcast once via ray.put and each batch scores its docs with a
    searchsorted lookup + CSR segment sums (no per-row Python). Docs whose
    text has no tokens carry no LM evidence and are omitted (the SQL twin's
    JOIN semantics). 100-TB shape: the model is one row per distinct
    corpus token; past broadcast size the same fit table feeds a
    bucket_join on ``tok`` instead (same partials, one extra exchange) —
    self-scoring guarantees every token is in-vocabulary either way.
    """
    import numpy as np
    import pyarrow.compute as pc
    import ray

    from ..ops.agg import grouped_sums, round_away
    from ..ops.text import _segment_sum

    def count_parts(t: pa.Table) -> pa.Table:
        toks = pc.utf8_split_whitespace(
            pc.utf8_trim_whitespace(t.column("text"))).combine_chunks()
        flat = pa.table({"tok": pc.list_flatten(toks)})
        flat = flat.filter(pc.not_equal(flat.column("tok"), ""))
        agg = flat.group_by(["tok"]).aggregate([([], "count_all")])
        return agg.rename_columns(["tok", "c_part"])

    vocab = grouped_sums(ds.map_batches(count_parts, batch_format="pyarrow",
                                        zero_copy_batch=True),
                         keys=["tok"], sum_cols={"c": "c_part"})
    if vocab.empty:  # empty / all-blank corpus: nothing scorable
        return rd.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "n_tokens": pa.array([], pa.int64()),
            "avg_nll": pa.array([], pa.float64())}))
    toks_sorted = np.sort(vocab["tok"].to_numpy())
    order = np.argsort(vocab["tok"].to_numpy(), kind="stable")
    counts_sorted = vocab["c"].to_numpy(dtype=np.int64)[order]
    n_total = float(counts_sorted.sum())
    model = ray.put((toks_sorted, -np.log(counts_sorted / n_total)))

    def score(t: pa.Table) -> pa.Table:
        mtoks, mnll = ray.get(model)
        toks = pc.utf8_split_whitespace(
            pc.utf8_trim_whitespace(t.column("text"))).combine_chunks()
        offs = toks.offsets.to_numpy(zero_copy_only=False)
        vals = pc.list_flatten(toks)
        nonempty = pc.not_equal(vals, "").to_numpy(zero_copy_only=False)
        # per-doc token counts over the non-empty mask (CSR segment sums)
        kept = _segment_sum(nonempty.astype(np.int64), offs)
        nll = np.zeros(len(vals), dtype=np.float64)
        ix = np.searchsorted(mtoks, vals.to_numpy(zero_copy_only=False))
        # self-scoring: every non-empty token is in-vocabulary by
        # construction; empty tokens contribute 0 to the masked sum
        valid = nonempty
        nll[valid] = mnll[np.minimum(ix, len(mtoks) - 1)][valid]
        # float twin of _segment_sum (that helper's cumsum is int64)
        csum = np.zeros(len(nll) + 1, dtype=np.float64)
        np.cumsum(nll, out=csum[1:])
        doc_nll = csum[offs[1:]] - csum[offs[:-1]]
        keep = kept > 0
        return pa.table({
            "doc_id": t.column("doc_id").filter(pa.array(keep)),
            "n_tokens": pa.array(kept[keep], pa.int64()),
            "avg_nll": pa.array(
                round_away(doc_nll[keep] / kept[keep], 4), pa.float64()),
        })

    return ds.map_batches(score, batch_format="pyarrow",
                          zero_copy_batch=True)


def unigram_lm_scores(sf_dir: str) -> pd.DataFrame:
    """Per-document unigram-LM negative-log-likelihood score (the CCNet-
    style corpus-LM quality signal: low avg_nll = text made of common
    corpus tokens, high = rare-token soup). Engine in ``_unigram_scored``.

    Oracle: DuckDB with the same whitespace split, ``-ln(c/N)`` averaged
    per doc, rounded 4dp (see __ray_entry__).
    """
    out = _unigram_scored(_docs(sf_dir, ["doc_id", "text"])).to_pandas()
    return _finish(out, "doc_id")


def doc_quality_budget(sf_dir: str) -> pd.DataFrame:
    """Token-budget quality pruning (the FineWeb/DataComp selection shape):
    keep the highest-quality documents — lowest unigram-LM avg_nll, the
    CCNet perplexity rule — until a token budget is filled. The budget is
    data-derived on both engines: ``B = total_scored_tokens // 3``. A doc
    is kept iff the running token total BEFORE it, in global order
    (avg_nll ASC, md5 rank, doc_id), is still below B — so the budget is
    exceeded by at most one document.

    NO GLOBAL SORT: (1) the scored stream reduces to a counting histogram
    over coarse score buckets (avg_nll quantized 4dp -> int, //100 = 2dp
    buckets; one bucket-keyed exchange, bucket-domain-sized); (2) the
    driver prefix-sums the tiny bucket table ascending and finds the ONE
    boundary bucket where the budget crossing lands — every bucket below
    it is kept wholesale by a map-only filter, every bucket above is
    dropped; (3) only the boundary bucket's docs are collected and
    rank-ordered to place the crossing exactly. 100-TB shape: the collected
    boundary set is ~corpus/n_buckets; if still large, the same histogram
    step recurses INSIDE the boundary bucket at finer quantization.

    Oracle: the unigram_lm_scores CTE chain + a window cumsum over
    (avg_nll, md5(doc_id||':42'), doc_id) — see __ray_entry__.
    """
    import hashlib

    import pyarrow.compute as pc

    from ..ops.agg import grouped_sums, round_away

    scored = _unigram_scored(_docs(sf_dir, ["doc_id", "text"])).materialize()
    empty = pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                          "n_tokens": pd.Series(dtype="int64"),
                          "avg_nll": pd.Series(dtype="float64")})

    def _with_bucket(t: pa.Table) -> pa.Table:
        q = round_away(
            t.column("avg_nll").to_numpy(zero_copy_only=False) * 1e4, 0
        ).astype(np.int64)
        return t.append_column("__b", pa.array(q // 100, pa.int64()))

    def hist_part(t: pa.Table) -> pa.Table:
        t = _with_bucket(t)
        agg = (t.select(["__b", "n_tokens"]).group_by(["__b"])
               .aggregate([("n_tokens", "sum")]))
        return agg.rename_columns(["__b", "tok_part"])

    hist = grouped_sums(scored.map_batches(hist_part, batch_format="pyarrow"),
                        keys=["__b"], sum_cols={"toks": "tok_part"})
    if hist.empty:
        return empty
    hist = hist.sort_values("__b").reset_index(drop=True)
    toks = hist["toks"].astype("int64").to_numpy()
    total = int(toks.sum())
    budget = total // 3
    cum_through = np.cumsum(toks)
    bidx = int(np.searchsorted(cum_through, budget, side="left"))
    # bidx = first bucket whose cumulative-through reaches B; buckets
    # below it are fully kept (their docs' cum-before < B by minimality)
    beta = int(hist["__b"].iloc[bidx])
    cum_before_beta = int(cum_through[bidx - 1]) if bidx else 0

    def keep_below(t: pa.Table) -> pa.Table:
        t = _with_bucket(t)
        return (t.filter(pc.less(t.column("__b"), beta))
                .drop_columns(["__b"]))

    kept = scored.map_batches(keep_below, batch_format="pyarrow").to_pandas()

    def boundary_only(t: pa.Table) -> pa.Table:
        t = _with_bucket(t)
        return (t.filter(pc.equal(t.column("__b"), beta))
                .drop_columns(["__b"]))

    bound = scored.map_batches(boundary_only,
                               batch_format="pyarrow").to_pandas()
    if not bound.empty:
        bq = round_away(bound["avg_nll"].to_numpy() * 1e4, 0).astype(np.int64)
        rnk = [hashlib.md5(f"{d}:42".encode()).hexdigest()
               for d in bound["doc_id"]]
        bound = bound.assign(__q=bq, __r=rnk).sort_values(
            ["__q", "__r", "doc_id"], kind="mergesort")
        cum_before = (np.cumsum(bound["n_tokens"].to_numpy(dtype=np.int64))
                      - bound["n_tokens"].to_numpy(dtype=np.int64)
                      + cum_before_beta)
        bound = bound[cum_before < budget].drop(columns=["__q", "__r"])
        kept = pd.concat([kept, bound], ignore_index=True)
    if kept.empty:
        return empty
    return _finish(kept, "doc_id", {"doc_id": "int64", "n_tokens": "int64",
                                    "avg_nll": "float64"})


def doc_language_rebalance(sf_dir: str) -> pd.DataFrame:
    """Training-mix rebalancing: derive per-language keep rates that level
    the corpus toward its rarest language, then apply the deterministic
    stratified sampler. Returns per-lang (n_before, rate_pct, n_after).

    The rate for language L is ``floor(100 * min_count / count_L)`` —
    whole percents, so the md5 oracle rule applies and DuckDB reproduces
    the sampled counts exactly (rates are data-derived IN SQL too, not
    baked constants). 100-TB shape: the rate table is one row per language
    (driver-sized by definition); the sample pass is the map-only
    stratified filter."""
    import pyarrow.compute as pc

    from ..ops.agg import grouped_sums
    from ..ops.sample import stratified_sample

    docs = _docs(sf_dir, ["doc_id", "lang"])

    def local(t: pa.Table) -> pa.Table:
        agg = t.group_by(["lang"]).aggregate([([], "count_all")])
        return agg.rename_columns(["lang", "n_part"])

    before = grouped_sums(docs.map_batches(local, batch_format="pyarrow"),
                          keys=["lang"], sum_cols={"n_before": "n_part"})
    if before.empty:  # empty corpus: nothing to rebalance
        return pd.DataFrame({"lang": pd.Series(dtype="object"),
                             "n_before": pd.Series(dtype="int64"),
                             "rate_pct": pd.Series(dtype="int64"),
                             "n_after": pd.Series(dtype="int64")})
    n_min = int(before["n_before"].min())
    rates = {l: int(100 * n_min // n) for l, n in
             zip(before["lang"], before["n_before"].astype(int))}

    kept = stratified_sample(docs, "doc_id", "lang", rates, method="md5")

    def local_after(t: pa.Table) -> pa.Table:
        agg = t.group_by(["lang"]).aggregate([([], "count_all")])
        return agg.rename_columns(["lang", "n_part"])

    after = grouped_sums(kept.map_batches(local_after, batch_format="pyarrow"),
                         keys=["lang"], sum_cols={"n_after": "n_part"})
    out = before.merge(after, on="lang", how="left")
    out["n_after"] = out["n_after"].fillna(0).astype("int64")
    out["rate_pct"] = out["lang"].map(rates).astype("int64")
    out = out.astype({"n_before": "int64"})
    return (out[["lang", "n_before", "rate_pct", "n_after"]]
            .sort_values("lang").reset_index(drop=True))


def doc_temperature_mixture(sf_dir: str, alpha: float = 0.5,
                            total: int = 300) -> pd.DataFrame:
    """Temperature-based multilingual data mixing (the mT5/XLM-R sampling
    rule): language L gets a share of the ``total``-doc training mix
    proportional to ``n_L ** alpha`` (alpha < 1 upsamples rare languages
    relative to their corpus share), then the per-language quota is filled
    with an exact deterministic per-group bottom-k sample.

    Cross-engine exactness: the weight ``n**alpha`` is libm pow on both
    engines, nano-quantized to int64 BEFORE the share division, so the
    quota ``total * w_L // sum(w)`` is all-integer — no float sum-order
    risk. Quotas cap at n_L. Selection is the md5-rank rule (DuckDB
    row_number() twin). 100-TB shape: the weight table is one row per
    language (driver-sized by definition); the sample is the per-group
    bottom-k combiner + one co-grouped merge, <= quota rows per group per
    block on the exchange.

    Oracle: SQL derives the same quotas and samples by the same window
    rank — see __ray_entry__.
    """
    from ..ops.agg import grouped_sums, round_away
    from ..ops.sample import grouped_bottomk_sample

    docs = _docs(sf_dir, ["doc_id", "lang"])

    def local(t: pa.Table) -> pa.Table:
        agg = t.group_by(["lang"]).aggregate([([], "count_all")])
        return agg.rename_columns(["lang", "n_part"])

    before = grouped_sums(docs.map_batches(local, batch_format="pyarrow"),
                          keys=["lang"], sum_cols={"n": "n_part"})
    empty = pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                          "lang": pd.Series(dtype="object")})
    if before.empty:
        return empty
    n = before["n"].astype("int64").to_numpy()
    # pinned expression twin of SQL round(1e9 * pow(n::DOUBLE, alpha), 0)
    wn = round_away(1e9 * np.power(n.astype(np.float64), alpha),
                    0).astype(np.int64)
    wsum = int(wn.sum())
    quota = {lang: min(int(total) * int(w) // wsum, int(nn))
             for lang, w, nn in zip(before["lang"], wn, n)}
    kept = grouped_bottomk_sample(docs, "lang", "doc_id", quota,
                                  method="md5").to_pandas()
    if kept.empty or "doc_id" not in kept.columns:
        return empty
    return (kept[["doc_id", "lang"]].astype({"doc_id": "int64"})
            .sort_values(["lang", "doc_id"]).reset_index(drop=True))


# C4-style blocklist (benign stand-in terms present in the synthetic
# corpus vocabulary); ordered, names are the output column suffixes.
_BLOCKLIST = (("spark", r"\bspark\b"),
              ("slow", r"\bslow\b"),
              ("vector", r"\bvector\b"))


def blocklist_filter(sf_dir: str) -> pd.DataFrame:
    """Word-blocklist document filter (the C4 'bad words' cleanup shape):
    per document, count non-overlapping word-boundary matches of each
    blocklist pattern and keep the doc iff no pattern hits. Map-only —
    one vectorized RE2 kernel per pattern (``pc.count_substring_regex``),
    no exchange at any scale.

    Oracle: DuckDB is RE2 too, so
    ``len(regexp_extract_all(text, pattern))`` reproduces the counts
    exactly — see __ray_entry__.
    """
    import pyarrow.compute as pc

    ds = _docs(sf_dir, ["doc_id", "text"])

    def score(t: pa.Table) -> pa.Table:
        text = t.column("text")
        cols = {"doc_id": t.column("doc_id")}
        totals = None
        for name, pat in _BLOCKLIST:
            c = pc.count_substring_regex(text, pat).cast(pa.int64())
            cols[f"n_{name}"] = c
            totals = c if totals is None else pc.add(totals, c)
        cols["n_blocked"] = totals
        cols["keep"] = pc.cast(pc.equal(totals, 0), pa.int64())
        return pa.table(cols)

    out = ds.map_batches(score, batch_format="pyarrow",
                         zero_copy_batch=True).to_pandas()
    return _finish(out, "doc_id")


def zipf_token_fit(sf_dir: str, v: int = 100) -> pd.DataFrame:
    """Zipf's-law fit over the corpus token frequencies: OLS of ln(count)
    on ln(rank) for the top-``v`` tokens (rank by count desc, token asc).
    A healthy natural-language corpus sits near slope -1; the slope is a
    standard corpus-health signal for training data.

    Exactness discipline: ln(rank) and ln(count) are micro-quantized
    (6dp) to int64 per term, all OLS sufficient statistics are EXACT
    integer sums (Python ints / DuckDB HUGEINT — no float sum order), and
    slope/intercept are each ONE pinned IEEE expression over those
    integers, nano-rounded. Shape: token counts are the tfidf partials
    (one vocab-sized exchange); only v rows feed the fit.

    Oracle: SQL window rank + identical quantized sums — see
    __ray_entry__.
    """
    import math

    import pyarrow.compute as pc

    from ..ops.agg import grouped_sums, round_away

    ds = _docs(sf_dir, ["text"])

    def explode(t: pa.Table) -> pa.Table:
        toks = pc.list_flatten(pc.utf8_split_whitespace(
            pc.utf8_trim_whitespace(t.column("text"))))
        one = pa.table({"tok": toks})
        one = one.filter(pc.not_equal(one.column("tok"), ""))
        agg = one.group_by(["tok"]).aggregate([([], "count_all")])
        return agg.rename_columns(["tok", "n_part"])

    vocab = grouped_sums(ds.map_batches(explode, batch_format="pyarrow",
                                        zero_copy_batch=True),
                         keys=["tok"], sum_cols={"n": "n_part"})
    cols = ["v", "slope_nano", "intercept_nano"]
    if vocab.empty:
        return pd.DataFrame({c: pd.Series(dtype="int64") for c in cols})
    top = (vocab.sort_values(["n", "tok"], ascending=[False, True])
           .head(v).reset_index(drop=True))
    nv = len(top)
    xs = [int(round_away(1e6 * math.log(r), 0)) for r in range(1, nv + 1)]
    ys = [int(round_away(1e6 * math.log(int(c)), 0)) for c in top["n"]]
    sx, sy = sum(xs), sum(ys)
    sxy = sum(x * y for x, y in zip(xs, ys))
    sxx = sum(x * x for x in xs)
    num, den = nv * sxy - sx * sy, nv * sxx - sx * sx
    if den == 0:  # degenerate single-token vocabulary
        return pd.DataFrame({"v": [nv], "slope_nano": [0],
                             "intercept_nano": [int(round_away(
                                 1e9 * (float(sy) / 1e6) / nv, 0))]})
    # pinned expressions (identical in the SQL twin):
    slope = float(num) / float(den)
    slope_nano = int(round_away(1e9 * slope, 0))
    intercept_nano = int(round_away(
        1e9 * ((float(sy) / 1e6 - slope * (float(sx) / 1e6)) / nv), 0))
    return pd.DataFrame({"v": [nv], "slope_nano": [slope_nano],
                         "intercept_nano": [intercept_nano]})


def corpus_prep_report(sf_dir: str) -> pd.DataFrame:
    """The corpus-side flagship composition under ONE external gate (the
    ``kg_pipeline_report`` analog for training-data prep): exact dedup ->
    blocklist filter -> quality-rule filter, rolled up per language as
    (lang, n_raw, n_dedup, n_blocklist, n_final, tokens_final). Every stage
    reuses the already-oracled operator semantics (min-doc_id-per-text
    dedup, the ``_BLOCKLIST`` RE2 rules, the Gopher/C4 keep rule on the
    rounded quality features, whitespace token counts), so the SQL twin
    re-derives the whole funnel in one statement and any drift in any
    stage breaks the row compare.

    Scale shape: the dedup winner set comes from the combiner-first
    exact-dedup groupby; winners rejoin their text via one adaptive
    semi-join; ALL downstream flags (blocklist, quality, token count) are
    computed in a single map pass whose output is per-(batch, lang)
    partial sums — the final exchange is language-domain-sized.
    """
    import pyarrow.compute as pc

    from ..ops.agg import grouped_sums
    from ..ops.joins import adaptive_semi_join
    from ..ops.text import QualityScorer, _segment_sum

    docs = _docs(sf_dir, ["doc_id", "text", "lang"]).materialize()
    cols = ["lang", "n_raw", "n_dedup", "n_blocklist", "n_final",
            "tokens_final"]
    empty = pd.DataFrame({"lang": pd.Series(dtype="object")}
                         | {c: pd.Series(dtype="int64") for c in cols[1:]})

    def raw_part(t: pa.Table) -> pa.Table:
        agg = t.select(["lang"]).group_by(["lang"]).aggregate(
            [([], "count_all")])
        return agg.rename_columns(["lang", "n_part"])

    n_raw = grouped_sums(docs.map_batches(raw_part, batch_format="pyarrow"),
                         keys=["lang"], sum_cols={"n_raw": "n_part"})
    if n_raw.empty:
        return empty

    winners = dd.exact_dedup(docs)
    kept = adaptive_semi_join(docs, winners, on="doc_id")
    scorer = QualityScorer()

    def flags_part(t: pa.Table) -> pa.Table:
        feat = scorer(t)  # row-aligned rounded features
        mt = feat.column("mean_token_len").to_numpy(zero_copy_only=False)
        pr = feat.column("punct_ratio").to_numpy(zero_copy_only=False)
        sr = feat.column("stopword_ratio").to_numpy(zero_copy_only=False)
        ur = feat.column("upper_ratio").to_numpy(zero_copy_only=False)
        q = (mt > 2.5) & (mt < 12) & (pr < 0.2) & (sr > 0.01) & (ur < 0.3)
        text = t.column("text")
        blocked = None
        for _, pat in _BLOCKLIST:
            c = pc.count_substring_regex(text, pat).to_numpy(
                zero_copy_only=False).astype(np.int64)
            blocked = c if blocked is None else blocked + c
        bl = blocked == 0
        toks = pc.utf8_split_whitespace(
            pc.utf8_trim_whitespace(text)).combine_chunks()
        offs = toks.offsets.to_numpy(zero_copy_only=False)
        nonempty = pc.not_equal(pc.list_flatten(toks), "").to_numpy(
            zero_copy_only=False)
        n_ws = _segment_sum(nonempty.astype(np.int64), offs)
        final = bl & q
        x = pa.table({
            "lang": t.column("lang"),
            "one": pa.array(np.ones(t.num_rows, np.int64), pa.int64()),
            "bl": pa.array(bl.astype(np.int64), pa.int64()),
            "fin": pa.array(final.astype(np.int64), pa.int64()),
            "tok": pa.array(np.where(final, n_ws, 0), pa.int64()),
        })
        agg = x.group_by(["lang"]).aggregate(
            [("one", "sum"), ("bl", "sum"), ("fin", "sum"), ("tok", "sum")])
        return agg.rename_columns(["lang", "d_part", "b_part", "f_part",
                                   "t_part"])

    funnel = grouped_sums(
        kept.map_batches(flags_part, batch_format="pyarrow"),
        keys=["lang"],
        sum_cols={"n_dedup": "d_part", "n_blocklist": "b_part",
                  "n_final": "f_part", "tokens_final": "t_part"})
    out = n_raw.merge(funnel, on="lang", how="left")
    for c in cols[1:]:
        out[c] = out[c].fillna(0).astype("int64")
    return out[cols].sort_values("lang").reset_index(drop=True)


def split_leakage_audit(sf_dir: str, tau: float = 0.3) -> pd.DataFrame:
    """Train/eval split LEAKAGE audit (the governance check behind every
    held-out benchmark number): list the near-duplicate document pairs
    whose endpoints landed in DIFFERENT splits of the deterministic
    80/10/10 assignment — a near-dup of a training doc sitting in test
    silently inflates eval. Composes two already-oracled surfaces: the
    exact word-3-gram Jaccard pair set (``ngram_jaccard_exact``) and the
    md5 split rule (``doc_split_assign``). Returns (id_a, id_b, jac,
    split_a, split_b, leaky) for every pair with jac >= tau.

    Scale shape: the split label is a PURE FUNCTION of (doc_id, seed), so
    pair endpoints are labeled by recomputation — no join against a
    corpus-sized split table anywhere; the pair set itself is the exact
    operator's contract (its LSH sibling is the 100-TB path — plug
    ``ngram_jaccard_pairs`` in unchanged, the annotation is map-only).
    """
    import hashlib

    pairs = dd.ngram_jaccard_exact(_docs(sf_dir, ["doc_id", "text"]))
    cols = ["id_a", "id_b", "jac", "split_a", "split_b", "leaky"]
    if pairs.empty:
        return pd.DataFrame(
            {"id_a": pd.Series(dtype="int64"),
             "id_b": pd.Series(dtype="int64"),
             "jac": pd.Series(dtype="float64"),
             "split_a": pd.Series(dtype="object"),
             "split_b": pd.Series(dtype="object"),
             "leaky": pd.Series(dtype="int64")})
    pairs = pairs[pairs["jac"] >= tau].copy()

    def split_of(key: int) -> str:
        b = int(hashlib.md5(f"{key}:42".encode()).hexdigest()[:8], 16) % 100
        return "train" if b < 80 else ("val" if b < 90 else "test")

    pairs["split_a"] = [split_of(int(k)) for k in pairs["id_a"]]
    pairs["split_b"] = [split_of(int(k)) for k in pairs["id_b"]]
    pairs["leaky"] = (pairs["split_a"] != pairs["split_b"]).astype("int64")
    return (pairs[cols].astype({"id_a": "int64", "id_b": "int64"})
            .sort_values(["id_a", "id_b"]).reset_index(drop=True))


def nb_lang_confusion(sf_dir: str) -> pd.DataFrame:
    """Trained text classification on the Dataset dataflow: fit an
    add-one-smoothed multinomial Naive Bayes language model from the
    corpus (per-(lang, token) counts — one explode pass, one exchange),
    score every document against every language and report the confusion
    matrix (true_lang, pred_lang, n) — training AND inference distributed,
    not just feature statistics.

    Exactness: each per-token class term ``ln((c+1)/(n_lang+V))`` is
    4dp-quantized to int64 before summing, so per-doc class scores are
    order-exact integer sums; argmax ties break by language name. Docs
    with no tokens carry no evidence and are omitted (the LM JOIN
    semantics). Shape: the model is vocab x |langs| rows, broadcast once
    via ray.put (bucket-join on tok past broadcast size, as unigram LM);
    scoring is |langs| searchsorted lookups + CSR segment sums per batch.

    Oracle: SQL cross-joins the token stream with the language set and
    repeats the quantized scoring — see __ray_entry__.
    """
    from ..ops.agg import grouped_sums

    cols = ["true_lang", "pred_lang", "n"]
    empty = pd.DataFrame({"true_lang": pd.Series(dtype="object"),
                          "pred_lang": pd.Series(dtype="object"),
                          "n": pd.Series(dtype="int64")})
    scored = _nb_scored(sf_dir)
    if scored is None:
        return empty

    def conf_part(t: pa.Table) -> pa.Table:
        agg = (t.select(["true_lang", "pred_lang"])
               .group_by(["true_lang", "pred_lang"])
               .aggregate([([], "count_all")]))
        return agg.rename_columns(["true_lang", "pred_lang", "n_part"])

    out = grouped_sums(scored.map_batches(conf_part,
                                          batch_format="pyarrow"),
                       keys=["true_lang", "pred_lang"],
                       sum_cols={"n": "n_part"})
    if out.empty:
        return empty
    return (out[cols].astype({"n": "int64"})
            .sort_values(["true_lang", "pred_lang"]).reset_index(drop=True))


def nb_mislabel_audit(sf_dir: str) -> pd.DataFrame:
    """Model-based LABEL-ERROR detection (the confident-learning /
    cleanlab shape): list the documents whose trained-NB prediction
    disagrees with the stored ``lang`` label, with the exact integer
    score margin (best minus the labeled language's score, 4dp units) —
    the ranking signal a curator triages mislabeled training data by.
    Reuses the NB scoring dataflow; the audit itself is a map-only
    filter over the scored stream.

    Oracle: the nb_lang_confusion SQL chain extended with the labeled
    language's score — see __ray_entry__.
    """
    import pyarrow.compute as pc

    cols = ["doc_id", "lang", "pred_lang", "margin_q4"]
    empty = pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                          "lang": pd.Series(dtype="object"),
                          "pred_lang": pd.Series(dtype="object"),
                          "margin_q4": pd.Series(dtype="int64")})
    scored = _nb_scored(sf_dir)
    if scored is None:
        return empty

    def audit(t: pa.Table) -> pa.Table:
        bad = pc.not_equal(t.column("true_lang"), t.column("pred_lang"))
        x = t.filter(bad)
        return pa.table({"doc_id": x.column("doc_id"),
                         "lang": x.column("true_lang"),
                         "pred_lang": x.column("pred_lang"),
                         "margin_q4": x.column("margin_q4")})

    out = scored.map_batches(audit, batch_format="pyarrow").to_pandas()
    if out.empty or "doc_id" not in out.columns:
        return empty
    return (out[cols].astype({"doc_id": "int64", "margin_q4": "int64"})
            .sort_values("doc_id").reset_index(drop=True))


def _nb_scored(sf_dir: str):
    """Shared NB dataflow: fit the add-one model, return the LAZY scored
    Dataset (doc_id, true_lang, pred_lang, margin_q4) where margin_q4 =
    best score minus the LABELED language's score (exact ints; 0 when
    the label wins). None on an empty corpus."""
    import pyarrow.compute as pc
    import ray

    from ..ops.agg import grouped_sums, round_away
    from ..ops.text import _segment_sum

    ds = _docs(sf_dir, ["doc_id", "text", "lang"]).materialize()

    def fit_part(t: pa.Table) -> pa.Table:
        toks = pc.utf8_split_whitespace(
            pc.utf8_trim_whitespace(t.column("text"))).combine_chunks()
        offs = toks.offsets.to_numpy(zero_copy_only=False)
        reps = np.diff(offs)
        lang = np.repeat(t.column("lang").to_numpy(zero_copy_only=False),
                         reps)
        flat = pa.table({"lang": pa.array(lang),
                         "tok": pc.list_flatten(toks)})
        flat = flat.filter(pc.not_equal(flat.column("tok"), ""))
        agg = flat.group_by(["lang", "tok"]).aggregate([([], "count_all")])
        return agg.rename_columns(["lang", "tok", "c_part"])

    model = grouped_sums(ds.map_batches(fit_part, batch_format="pyarrow",
                                        zero_copy_batch=True),
                         keys=["lang", "tok"], sum_cols={"c": "c_part"})
    if model.empty:
        return None
    v_total = model["tok"].nunique()
    langs = sorted(model["lang"].unique())
    per_lang = []
    for lg in langs:
        sub = model[model["lang"] == lg].sort_values("tok")
        n_lang = int(sub["c"].sum())
        denom = float(n_lang + v_total)
        # pinned per-term expression (verbatim in SQL):
        # round(1e4 * ln((c+1)*1.0/denom), 0); OOV tokens use c = 0
        terms = round_away(
            1e4 * np.log((sub["c"].to_numpy(np.int64) + 1) * 1.0 / denom),
            0).astype(np.int64)
        oov = int(round_away(1e4 * np.log(1.0 * 1.0 / denom), 0))
        per_lang.append((lg, sub["tok"].to_numpy(), terms, oov))
    handle = ray.put(per_lang)

    def score(t: pa.Table) -> pa.Table:
        pl = ray.get(handle)
        toks = pc.utf8_split_whitespace(
            pc.utf8_trim_whitespace(t.column("text"))).combine_chunks()
        offs = toks.offsets.to_numpy(zero_copy_only=False)
        vals = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
        nonempty = vals != ""
        kept = _segment_sum(nonempty.astype(np.int64), offs)
        n_docs = len(offs) - 1
        scores = np.empty((n_docs, len(pl)), dtype=np.int64)
        for li, (_, mtoks, mterms, oov) in enumerate(pl):
            ix = np.searchsorted(mtoks, vals)
            hit = (ix < len(mtoks)) & (mtoks[np.minimum(
                ix, len(mtoks) - 1)] == vals)
            term = np.where(hit, mterms[np.minimum(ix, len(mtoks) - 1)],
                            np.int64(oov))
            term = np.where(nonempty, term, np.int64(0))
            scores[:, li] = _segment_sum(term, offs)
        # argmax with lang-ascending tie-break: langs are column-ordered
        # ascending, so the FIRST max index is the tie-break winner
        pred_ix = np.argmax(scores, axis=1)
        keep = kept > 0
        lang_names = np.array([lg for lg, _, _, _ in pl])
        true_lang = t.column("lang").to_numpy(zero_copy_only=False)
        lang_pos = {lg: i for i, lg in enumerate(lang_names)}
        # a language absent from the model has only empty-text docs; those
        # rows are dropped by `keep` below, so the 0 fallback is never read
        true_ix = np.array([lang_pos.get(lg, 0) for lg in true_lang],
                           dtype=np.int64)
        rows = np.arange(len(true_ix))
        margin = scores[rows, pred_ix] - scores[rows, true_ix]
        return pa.table({
            "doc_id": t.column("doc_id").filter(pa.array(keep)),
            "true_lang": pa.array(true_lang[keep]),
            "pred_lang": pa.array(lang_names[pred_ix][keep]),
            "margin_q4": pa.array(margin[keep], pa.int64()),
        })

    return ds.map_batches(score, batch_format="pyarrow",
                          zero_copy_batch=True)


def doc_keywords(sf_dir: str, k: int = 3) -> pd.DataFrame:
    """Per-document keyword extraction: the top-``k`` terms of each doc by
    TF-IDF (``tf * ln(N/df)``, N = docs with at least one token) — the
    per-doc summarization/tagging op, where ``tfidf_top_terms`` is the
    corpus-level rollup. Scores are nano-quantized per (doc, term) so the
    per-doc ranking is an exact integer order (ties -> term asc).

    Shape: the df table is one exchange (vocab-sized) broadcast once via
    ray.put; per batch, term frequencies and the top-k rank are computed
    doc-locally (docs never span batches for within-doc work). Returns
    (doc_id, term, rank, score_nano).

    Oracle: SQL tf/df CTEs + row_number per doc — see __ray_entry__.
    """
    import pyarrow.compute as pc
    import ray

    from ..ops.agg import grouped_sums, round_away

    ds = _docs(sf_dir, ["doc_id", "text"]).materialize()
    cols = ["doc_id", "term", "rank", "score_nano"]
    empty = pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                          "term": pd.Series(dtype="object"),
                          "rank": pd.Series(dtype="int64"),
                          "score_nano": pd.Series(dtype="int64")})

    def df_part(t: pa.Table) -> pa.Table:
        toks = pc.utf8_split_whitespace(
            pc.utf8_trim_whitespace(t.column("text"))).combine_chunks()
        offs = toks.offsets.to_numpy(zero_copy_only=False)
        reps = np.diff(offs)
        doc = np.repeat(t.column("doc_id").to_numpy(zero_copy_only=False),
                        reps)
        flat = pa.table({"doc_id": pa.array(doc),
                         "tok": pc.list_flatten(toks)})
        flat = flat.filter(pc.not_equal(flat.column("tok"), ""))
        # distinct (doc, tok) within the batch = the df combiner
        agg = flat.group_by(["tok", "doc_id"]).aggregate([])
        agg = agg.group_by(["tok"]).aggregate([([], "count_all")])
        return agg.rename_columns(["tok", "df_part"])

    dftab = grouped_sums(ds.map_batches(df_part, batch_format="pyarrow",
                                        zero_copy_batch=True),
                         keys=["tok"], sum_cols={"df": "df_part"})
    if dftab.empty:
        return empty
    dftab = dftab.sort_values("tok")
    toks_sorted = dftab["tok"].to_numpy()
    dfs = dftab["df"].to_numpy(np.int64)

    # N = docs with at least one token: sum over per-batch counts
    def n_part(t: pa.Table) -> pa.Table:
        toks = pc.utf8_split_whitespace(
            pc.utf8_trim_whitespace(t.column("text"))).combine_chunks()
        offs = toks.offsets.to_numpy(zero_copy_only=False)
        from ..ops.text import _segment_sum
        nonempty = pc.not_equal(pc.list_flatten(toks), "").to_numpy(
            zero_copy_only=False)
        kept = _segment_sum(nonempty.astype(np.int64), offs)
        return pa.table({"n": pa.array([int((kept > 0).sum())], pa.int64())})

    n_docs = int(ds.map_batches(n_part, batch_format="pyarrow").sum("n"))
    handle = ray.put((toks_sorted, dfs, float(n_docs)))

    def topk(t: pa.Table) -> pd.DataFrame:
        mtoks, mdf, nd = ray.get(handle)
        toks = pc.utf8_split_whitespace(
            pc.utf8_trim_whitespace(t.column("text"))).combine_chunks()
        offs = toks.offsets.to_numpy(zero_copy_only=False)
        reps = np.diff(offs)
        doc = np.repeat(t.column("doc_id").to_numpy(zero_copy_only=False),
                        reps)
        vals = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
        m = vals != ""
        frame = pd.DataFrame({"doc_id": doc[m], "term": vals[m]})
        if frame.empty:
            return empty
        tf = (frame.groupby(["doc_id", "term"], as_index=False)
              .size().rename(columns={"size": "tf"}))
        ix = np.searchsorted(mtoks, tf["term"].to_numpy())
        d = mdf[ix]
        # pinned expression (verbatim in SQL): 1e9 * (tf * ln(N/df))
        s = round_away(1e9 * (tf["tf"].to_numpy(np.int64)
                              * np.log(nd / d)), 0).astype(np.int64)
        tf = tf.assign(score_nano=s).sort_values(
            ["doc_id", "score_nano", "term"],
            ascending=[True, False, True], kind="mergesort")
        tf["rank"] = tf.groupby("doc_id", sort=False).cumcount() + 1
        return tf[tf["rank"] <= k][cols].astype(
            {"doc_id": "int64", "rank": "int64", "score_nano": "int64"})

    out = ds.map_batches(topk, batch_format="pyarrow").to_pandas()
    if out.empty or "doc_id" not in out.columns:
        return empty
    return (out[cols].astype({"doc_id": "int64", "rank": "int64",
                              "score_nano": "int64"})
            .sort_values(["doc_id", "rank"]).reset_index(drop=True))


def knn_label_confusion(sf_dir: str, probe_mod: int = 20) -> pd.DataFrame:
    """1-NN classifier evaluation over the embeddings (the label-quality /
    neighborhood-purity check): for a deterministic probe subset
    (``vec_id % probe_mod == 0``), find each probe's nearest OTHER vector
    and report the (true_label, pred_label, n) confusion matrix.

    EXACT arithmetic end to end: vectors quantize to int at x2^10 (the
    class-scatter grid) and distances are integer squared L2, so the
    argmin is tie-safe (ties break by neighbor vec_id) and the SQL twin
    compares exactly — no float distance ordering anywhere. Shape: the
    probe matrix broadcasts once (ray.put); each batch computes an
    integer Gram block against it and emits one best-candidate row per
    probe per block; the driver merge is |probes| x blocks rows. At
    10^10 vectors the probe set must itself be sampled (hash bottom-k) —
    the modulo rule is the test-scale stand-in, documented here.

    Oracle: SQL pairwise integer distances + row_number — see
    __ray_entry__.
    """
    import ray

    from ..ops.agg import grouped_sums

    ds = _emb(sf_dir).select_columns(["vec_id", "label", "embedding"]) \
        .materialize()
    cols = ["true_label", "pred_label", "n"]
    empty = pd.DataFrame({c: pd.Series(dtype="int64") for c in cols})

    def quantize(t: pa.Table):
        col = t.column("embedding")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = col.values.to_numpy(zero_copy_only=False).astype(np.float64)
        offs = col.offsets.to_numpy(zero_copy_only=False)
        n = len(offs) - 1
        if n == 0:
            return (np.empty(0, np.int64), np.empty(0, np.int64),
                    np.empty((0, 0), np.int64))
        d = int(offs[1] - offs[0])
        x = flat * 1024.0
        q = (np.sign(x) * np.floor(np.abs(x) + 0.5)).astype(np.int64)
        return (t.column("vec_id").to_numpy(zero_copy_only=False),
                t.column("label").to_numpy(zero_copy_only=False).astype(
                    np.int64),
                q.reshape(n, d))

    def probe_filter(t: pa.Table) -> pa.Table:
        v = t.column("vec_id").to_numpy(zero_copy_only=False)
        return t.filter(pa.array(v % probe_mod == 0))

    probe_tab = (ds.map_batches(probe_filter, batch_format="pyarrow")
                 .take_all())
    if not probe_tab:
        return empty
    pt = pa.Table.from_pylist(probe_tab)
    pids, plabels, pq = quantize(pt)
    pnorm = (pq * pq).sum(axis=1)  # |P|
    handle = ray.put((pids, plabels, pq, pnorm))

    def best_part(t: pa.Table) -> pa.Table:
        _pids, _plab, _pq, _pn = ray.get(handle)
        vids, vlab, vq = quantize(t)
        out = {"pid": [], "d2": [], "oid": [], "olabel": []}
        if len(vids) and len(_pids):
            vnorm = (vq * vq).sum(axis=1)
            # integer Gram block: d2[p, v] = |p|^2 + |v|^2 - 2 p.v, exact
            dots = _pq @ vq.T
            d2 = _pn[:, None] + vnorm[None, :] - 2 * dots
            # exclude the probe itself; break ties by neighbor vec_id
            self_mask = _pids[:, None] == vids[None, :]
            big = np.iinfo(np.int64).max
            d2 = np.where(self_mask, big, d2)
            order = np.lexsort((vids[None, :].repeat(len(_pids), 0), d2),
                               axis=1)[:, 0]
            valid = d2[np.arange(len(_pids)), order] < big
            out["pid"] = _pids[valid].tolist()
            out["d2"] = d2[np.arange(len(_pids)), order][valid].tolist()
            out["oid"] = vids[order][valid].tolist()
            out["olabel"] = vlab[order][valid].tolist()
        return pa.table({c: pa.array(v, pa.int64())
                         for c, v in out.items()})

    parts = ds.map_batches(best_part, batch_format="pyarrow",
                           zero_copy_batch=True).to_pandas()
    if parts.empty:
        return empty
    best = (parts.sort_values(["pid", "d2", "oid"], kind="mergesort")
            .drop_duplicates("pid", keep="first"))
    plab_map = dict(zip(pids.tolist(), plabels.tolist()))
    best = best.assign(true_label=[plab_map[p] for p in best["pid"]])
    out = (best.groupby(["true_label", "olabel"], as_index=False)
           .size().rename(columns={"olabel": "pred_label", "size": "n"}))
    return (out[cols].astype("int64")
            .sort_values(["true_label", "pred_label"])
            .reset_index(drop=True))


def embedding_norm_stats(sf_dir: str) -> pd.DataFrame:
    """Per-vector norm screening (the sanity filter that precedes any
    cosine/ANN stage: zero or exploding norms break normalization): for
    every embedding, (n_dims, sum_q, norm2_q) with each element quantized
    to int64 at x2^20 (round half away — the embedding_dimension_stats
    discipline) BEFORE summing, so the per-vector sums are exact integers
    and the DuckDB twin (list_transform + list_sum over the same
    quantization) compares bit-for-bit. Map-only, one matrix pass per
    batch.
    """
    ds = _emb(sf_dir).select_columns(["vec_id", "embedding"])

    def stats(t: pa.Table) -> pa.Table:
        col = t.column("embedding")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = col.values.to_numpy(zero_copy_only=False).astype(np.float64)
        offs = col.offsets.to_numpy(zero_copy_only=False)
        widths = np.diff(offs)
        n = len(widths)
        if n == 0:
            return pa.table({c: pa.array([], pa.int64()) for c in
                             ["vec_id", "n_dims", "sum_q", "norm2_q"]})
        d = int(widths[0])
        x = flat * 1048576.0
        q = (np.sign(x) * np.floor(np.abs(x) + 0.5)).astype(np.int64)
        m = q.reshape(n, d)
        return pa.table({
            "vec_id": t.column("vec_id"),
            "n_dims": pa.array(np.full(n, d, np.int64)),
            "sum_q": pa.array(m.sum(axis=1, dtype=np.int64)),
            "norm2_q": pa.array((m * m).sum(axis=1, dtype=np.int64))})

    out = ds.map_batches(stats, batch_format="pyarrow",
                         zero_copy_batch=True).to_pandas()
    return _finish(out, "vec_id")


def embedding_class_scatter(sf_dir: str) -> pd.DataFrame:
    """Within-class scatter per label (the LDA/clustering-quality signal:
    how tight is each class around its centroid): mean squared distance to
    the class centroid from EXACT integer sufficient statistics —
    ``sum_i ||x_i - mu||^2 = A - B/n`` with ``A = sum x_q^2`` and
    ``B = sum_d (sum_i x_qd)^2`` over elements quantized at x2^10 (round
    half away; the coarser grid keeps B inside int64 at 10^6 rows/label,
    documented bound). The only float step is ONE pinned expression
    ``(A - B/n) / n`` nano-rounded, identical in the SQL twin.

    Shape: per-batch per-label column reductions emit (label, dim, s, a,
    n) partials — the exchange is |labels| x d rows per block, never the
    vectors; the driver rollup is label-domain-sized.
    """
    from ..ops.agg import grouped_sums, round_away

    ds = _emb(sf_dir).select_columns(["label", "embedding"])
    cols = ["label", "n", "a_sum", "b_sum", "scatter_nano"]
    empty = pd.DataFrame({c: pd.Series(dtype="int64") for c in cols})

    def partial(t: pa.Table) -> pa.Table:
        col = t.column("embedding")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = col.values.to_numpy(zero_copy_only=False).astype(np.float64)
        offs = col.offsets.to_numpy(zero_copy_only=False)
        widths = np.diff(offs)
        n = len(widths)
        out = {c: [] for c in ["label", "dim", "s_part", "a_part", "n_part"]}
        if n:
            d = int(widths[0])
            x = flat * 1024.0
            q = (np.sign(x) * np.floor(np.abs(x) + 0.5)).astype(np.int64)
            m = q.reshape(n, d)
            lab = t.column("label").to_numpy(zero_copy_only=False).astype(
                np.int64)
            for lv in np.unique(lab):
                sub = m[lab == lv]
                out["label"].extend([int(lv)] * d)
                out["dim"].extend(range(d))
                out["s_part"].extend(sub.sum(axis=0, dtype=np.int64))
                out["a_part"].extend((sub * sub).sum(axis=0, dtype=np.int64))
                out["n_part"].extend([sub.shape[0]] * d)
        return pa.table({c: pa.array(v, pa.int64())
                         for c, v in out.items()})

    per = grouped_sums(ds.map_batches(partial, batch_format="pyarrow",
                                      zero_copy_batch=True),
                       keys=["label", "dim"],
                       sum_cols={"s": "s_part", "a": "a_part",
                                 "n": "n_part"})
    if per.empty:
        return empty
    rows = []
    for lv, g in per.groupby("label"):
        a = sum(int(v) for v in g["a"])
        b = sum(int(v) * int(v) for v in g["s"])
        n_l = int(g.loc[g["dim"] == 0, "n"].iloc[0])
        # pinned IEEE expression (verbatim in SQL): (A - B/n) / n, nano
        sc = int(round_away(
            1e9 * ((float(a) - float(b) / float(n_l)) / float(n_l)), 0))
        rows.append((int(lv), n_l, a, b, sc))
    return (pd.DataFrame(rows, columns=cols).astype("int64")
            .sort_values("label").reset_index(drop=True))


def bm25_search(sf_dir: str, terms: tuple[str, ...] = ("spark", "merge", "vector"),
                k: int = 15, k1: float = 1.2, b: float = 0.75) -> pd.DataFrame:
    """BM25 top-k retrieval over the documents corpus — the classic IR
    scoring the reference's search surface would need at corpus scale.

    Two streaming passes, no full materialization: (A) one explode pass
    reduces to |terms|+1 rows of global stats (N, sum dl, per-term df —
    per-batch partials, tiny groupby); (B) a map-only scoring pass with
    the stats broadcast in the task closure, per-batch top-k pruned, then
    a distributed top-k merge. Determinism contract with the DuckDB twin:
    each (doc, term) contribution is computed with the IDENTICAL IEEE
    expression order (Lucene-form idf, k1/b literals) and quantized once
    to integer nanos, so per-doc scores are exact integer sums.
    """
    import numpy as np
    import pyarrow.compute as pc

    from ..ops.agg import grouped_sums, round_away, topk_ds

    term_list = list(terms)
    ds = _docs(sf_dir, ["doc_id", "text"])

    def tok_layout(t: pa.Table):
        toks = pc.utf8_split_whitespace(
            pc.utf8_trim_whitespace(t.column("text"))).combine_chunks()
        offs = toks.offsets.to_numpy(zero_copy_only=False)
        flat = toks.values
        doc_ix = np.repeat(np.arange(len(offs) - 1, dtype=np.int64),
                           np.diff(offs))
        nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        n_docs = len(offs) - 1
        dl = np.bincount(doc_ix[nonempty], minlength=n_docs).astype(np.int64)
        return flat, doc_ix, n_docs, dl

    def stats_part(t: pa.Table) -> pa.Table:
        flat, doc_ix, n_docs, dl = tok_layout(t)
        rows_t, rows_df = ["__corpus__"], [0]
        for term in term_list:
            m = pc.equal(flat, term).to_numpy(zero_copy_only=False)
            tf = np.bincount(doc_ix[m], minlength=n_docs)
            rows_t.append(term)
            rows_df.append(int((tf > 0).sum()))
        return pa.table({
            "term": pa.array(rows_t, pa.string()),
            "df_part": pa.array(rows_df, pa.int64()),
            "dl_part": pa.array([int(dl.sum())] + [0] * len(term_list),
                                pa.int64()),
            "n_part": pa.array([n_docs] + [0] * len(term_list), pa.int64()),
        })

    st = grouped_sums(ds.map_batches(stats_part, batch_format="pyarrow",
                                     zero_copy_batch=True),
                      keys=["term"], sum_cols={"df": "df_part",
                                               "dl": "dl_part",
                                               "n": "n_part"})
    empty = pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                          "score_nano": pd.Series(dtype="int64"),
                          "bm25": pd.Series(dtype="float64")})
    if st.empty:
        return empty
    srow = st[st.term == "__corpus__"]
    n_total = int(srow.n.iloc[0])
    sum_dl = int(srow.dl.iloc[0])
    if n_total == 0:
        return empty
    avgdl = sum_dl * 1.0 / n_total
    dfs = dict(zip(st.term, st.df.astype("int64")))
    idf = {t: float(np.log((n_total - dfs.get(t, 0) + 0.5)
                           / (dfs.get(t, 0) + 0.5) + 1.0))
           for t in term_list if dfs.get(t, 0) > 0}
    if not idf:
        return empty

    def score(t: pa.Table) -> pa.Table:
        flat, doc_ix, n_docs, dl = tok_layout(t)
        nano = np.zeros(n_docs, np.int64)
        dlf = dl.astype(np.float64)
        for term, idf_t in idf.items():
            m = pc.equal(flat, term).to_numpy(zero_copy_only=False)
            tf = np.bincount(doc_ix[m], minlength=n_docs).astype(np.float64)
            hit = tf > 0
            if not hit.any():
                continue
            c = (idf_t * (tf[hit] * (k1 + 1.0))
                 / (tf[hit] + k1 * (1.0 - b + b * dlf[hit] / avgdl))
                 * 1000000000.0)
            nano[hit] += round_away(c, 0).astype(np.int64)
        keep = nano > 0
        out = pa.table({
            "doc_id": t.column("doc_id").filter(pa.array(keep)),
            "score_nano": pa.array(nano[keep], pa.int64()),
        })
        return out

    scored = ds.map_batches(score, batch_format="pyarrow",
                            zero_copy_batch=True)
    out = topk_ds(scored, by=["score_nano", "doc_id"],
                  ascending=[False, True], k=k,
                  columns=["doc_id", "score_nano"])
    if out.empty:
        return empty
    out["doc_id"] = out["doc_id"].astype("int64")
    out["score_nano"] = out["score_nano"].astype("int64")
    out["bm25"] = round_away(out["score_nano"].to_numpy() / 1e9, 4)
    return out[["doc_id", "score_nano", "bm25"]].reset_index(drop=True)


def pmi_collocations(sf_dir: str, k: int = 15,
                     min_count: int = 5) -> pd.DataFrame:
    """Top-k PMI collocations over the corpus: adjacent word pairs ranked
    by pointwise mutual information ln(p(a,b) / (p(a) p(b))) — classic
    collocation mining for training-data analysis.

    One fused explode pass emits unigram AND bigram partial counts (one
    corpus read, one shuffle; unigram rows use the b='' sentinel, which no
    real bigram can carry). The counts dataset is materialized once
    (vocab-sized, far smaller than the corpus) and feeds the totals, the
    candidate filter (c_ab >= min_count prunes before any join) and two
    adaptive joins that attach c(a) and c(b) — broadcast when the vocab is
    measured small, hash-bucketed otherwise. Scores are quantized to
    integer nanos with the same IEEE expression order as the DuckDB twin.
    """
    import numpy as np
    import pyarrow.compute as pc

    from ..ops.agg import grouped_sums_ds, round_away, topk_ds
    from ..ops.joins import adaptive_join

    ds = _docs(sf_dir, ["text"])
    empty = pd.DataFrame({"bigram": pd.Series(dtype="object"),
                          "c_ab": pd.Series(dtype="int64"),
                          "pmi_nano": pd.Series(dtype="int64"),
                          "pmi": pd.Series(dtype="float64")})

    def explode(t: pa.Table) -> pa.Table:
        toks = pc.utf8_split_whitespace(
            pc.utf8_trim_whitespace(t.column("text"))).combine_chunks()
        offs = toks.offsets.to_numpy(zero_copy_only=False)
        vals = toks.values
        n = len(vals)
        out_schema = pa.schema([("a", pa.string()), ("b", pa.string()),
                                ("n_part", pa.int64())])
        parts = []
        if n:
            lens = pc.utf8_length(vals).to_numpy(zero_copy_only=False)
            uni = pa.table({"a": vals.filter(pa.array(lens > 0))})
            agg_u = uni.group_by(["a"]).aggregate([([], "count_all")])
            agg_u = agg_u.rename_columns(["a", "n_part"])
            agg_u = agg_u.add_column(1, "b", pa.array([""] * agg_u.num_rows,
                                                      pa.string()))
            parts.append(agg_u.select(["a", "b", "n_part"]))
        if n >= 2:
            a = vals.slice(0, n - 1)
            b = vals.slice(1, n - 1)
            valid = np.ones(n - 1, dtype=bool)
            inner = offs[1:-1] - 1
            valid[inner[(inner >= 0) & (inner < n - 1)]] = False
            mask = pa.array(valid & (lens[:-1] > 0) & (lens[1:] > 0))
            pairs = pa.table({"a": a.filter(mask), "b": b.filter(mask)})
            agg_b = pairs.group_by(["a", "b"]).aggregate([([], "count_all")])
            parts.append(agg_b.rename_columns(["a", "b", "n_part"]))
        if not parts:
            return out_schema.empty_table()
        return pa.concat_tables([p.cast(out_schema) for p in parts])

    counts = grouped_sums_ds(
        ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True),
        keys=["a", "b"], sum_cols={"n": "n_part"}).materialize()

    def split_kind(want_uni: bool, rename: list[str]):
        def f(t: pa.Table) -> pa.Table:
            m = pc.equal(t.column("b"), "")
            if not want_uni:
                m = pc.and_(pc.invert(m),
                            pc.greater_equal(t.column("n"), min_count))
            out = t.filter(m)
            if want_uni:
                out = out.select(["a", "n"])
            return out.rename_columns(rename)
        return f

    n_uni = counts.map_batches(split_kind(True, ["a", "c"]),
                               batch_format="pyarrow").sum("c") or 0
    def bi_total(t: pa.Table) -> pa.Table:
        m = pc.invert(pc.equal(t.column("b"), ""))
        return t.filter(m)
    n_bi = counts.map_batches(bi_total, batch_format="pyarrow").sum("n") or 0
    if n_uni == 0 or n_bi == 0:
        return empty

    bi = counts.map_batches(split_kind(False, ["a", "b", "c_ab"]),
                            batch_format="pyarrow")
    uni_a = counts.map_batches(split_kind(True, ["a", "c_a"]),
                               batch_format="pyarrow")
    uni_b = counts.map_batches(
        lambda t: split_kind(True, ["b", "c_b"])(t), batch_format="pyarrow")
    j = adaptive_join(adaptive_join(bi, uni_a, on="a"), uni_b, on="b")

    nu, nb = float(n_uni), float(n_bi)

    def score(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.schema([("bigram", pa.string()), ("c_ab", pa.int64()),
                              ("pmi_nano", pa.int64())]).empty_table()
        c_ab = t.column("c_ab").to_numpy(zero_copy_only=False).astype(np.float64)
        c_a = t.column("c_a").to_numpy(zero_copy_only=False).astype(np.float64)
        c_b = t.column("c_b").to_numpy(zero_copy_only=False).astype(np.float64)
        pmi = np.log((c_ab * nu * nu) / (nb * c_a * c_b))
        nano = round_away(pmi * 1000000000.0, 0).astype(np.int64)
        bigram = pc.binary_join_element_wise(
            t.column("a").combine_chunks().cast(pa.string()),
            t.column("b").combine_chunks().cast(pa.string()), " ")
        return pa.table({"bigram": bigram,
                         "c_ab": t.column("c_ab").cast(pa.int64()),
                         "pmi_nano": pa.array(nano, pa.int64())})

    scored = j.map_batches(score, batch_format="pyarrow")
    out = topk_ds(scored, by=["pmi_nano", "bigram"], ascending=[False, True],
                  k=k, columns=["bigram", "c_ab", "pmi_nano"])
    if out.empty:
        return empty
    out["c_ab"] = out["c_ab"].astype("int64")
    out["pmi_nano"] = out["pmi_nano"].astype("int64")
    out["pmi"] = round_away(out["pmi_nano"].to_numpy() / 1e9, 4)
    return out[["bigram", "c_ab", "pmi_nano", "pmi"]].reset_index(drop=True)


def dup_ngram_coverage(sf_dir: str, k_gram: int = 5) -> pd.DataFrame:
    """Per-document duplicate-n-gram coverage — the corpus-level repetition
    signal behind suffix-array training-data dedup (Lee et al. 2022,
    "Deduplicating Training Data Makes Language Models Better"), here at
    word n-gram granularity: a gram POSITION is duplicated when its gram
    occurs more than once in the whole corpus (in another document or
    again in the same one). Per doc: total gram positions, distinct
    duplicated grams, and duplicated positions (the numerator of the
    dup-coverage fraction used as a filter threshold).

    Scale shape: one explode pass with a per-batch (doc_id, gram, cnt)
    combiner (documents never span batches, so in-batch counts are exact
    and the exchange carries distinct grams x docs, not positions); ONE
    gram-hash co-group computes each gram's global total and tags every
    (doc, gram) row with its dup flags in place (no driver gram set, no
    vocabulary broadcast, no semi/re-join); ONE partial-agg doc rollup
    finishes. Every doc with >= 1 gram flows through the gram pass, so
    all-unique docs appear zero-filled without an outer join.
    """
    from ..ops.agg import grouped_sums_ds
    from ..ops.joins import _mix_bucket

    num_parts = 64
    per = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        lambda t: _word_grams(t, k_gram, with_doc=True, counted=True),
        batch_format="pyarrow")

    def route(t: pa.Table) -> pa.Table:
        return t.append_column("__part",
                               _mix_bucket(t.column("gram"), num_parts))

    def tag_part(g: pd.DataFrame) -> pd.DataFrame:
        tot = g.groupby("gram", sort=False)["cnt"].transform("sum")
        dup = (tot > 1).to_numpy()
        cnt = g["cnt"].to_numpy()
        return pd.DataFrame({
            "doc_id": g["doc_id"].to_numpy(),
            "n_grams": cnt,
            "n_dup_grams": dup.astype("int64"),
            "n_dup_positions": cnt * dup,
        })

    tagged = (per.map_batches(route, batch_format="pyarrow")
              .groupby("__part").map_groups(tag_part, batch_format="pandas"))
    out = grouped_sums_ds(
        tagged, keys=["doc_id"],
        sum_cols={"n_grams": "n_grams", "n_dup_grams": "n_dup_grams",
                  "n_dup_positions": "n_dup_positions"}).to_pandas()
    if out.empty:
        return pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                             "n_grams": pd.Series(dtype="int64"),
                             "n_dup_grams": pd.Series(dtype="int64"),
                             "n_dup_positions": pd.Series(dtype="int64")})
    return (out[["doc_id", "n_grams", "n_dup_grams", "n_dup_positions"]]
            .sort_values("doc_id").reset_index(drop=True))


def doc_length_ranks(sf_dir: str) -> pd.DataFrame:
    """Global ranking window — row_number() OVER (ORDER BY n_chars DESC,
    doc_id) for every document, computed distributed (ops.agg.
    global_row_number: key-sized offset table + per-key co-grouped local
    order; no global sort, nothing data-sized on the driver). The full
    listing is the oracle surface; at 10^10 docs consume the Dataset form
    (write/join) instead of to_pandas."""
    from ..ops.agg import global_row_number

    ds = _docs(sf_dir, ["doc_id", "n_chars"])
    ranked = global_row_number(ds, key_col="n_chars", id_col="doc_id",
                               key_ascending=False, rank_col="rnk")
    out = ranked.to_pandas()
    if out.empty:
        return pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                             "n_chars": pd.Series(dtype="int64"),
                             "rnk": pd.Series(dtype="int64")})
    out["rnk"] = out["rnk"].astype("int64")
    return (out[["doc_id", "n_chars", "rnk"]]
            .sort_values("rnk").reset_index(drop=True))


def gopher_rule_report(sf_dir: str) -> pd.DataFrame:
    """Gopher/C4-style quality-rule cascade report: per-rule pass counts
    plus the all-rules survivor count — the attrition table a training-data
    curation run publishes before committing a filter.

    Rules are EXACT integer comparisons over \\w+ tokens (no float
    boundaries): word count in [25, 60]; mean token length in [3, 10] via
    the cross-multiplied inequality 3·n ≤ chars ≤ 10·n; ≥1 stopword (the
    doc_quality 10-word list); duplicate-fraction ≤ 1/2 via
    2·distinct ≥ n. Fully vectorized: ONE RE2 split kernel + dictionary-
    encode + sorted segment transitions for per-doc distinct counts; each
    batch emits a single 6-int partial row."""
    from ..ops.text import _segment_sum, _token_segments

    stop = pa.array(["the", "and", "of", "to", "a", "in", "is", "it",
                     "that", "for"], pa.string())
    ds = _docs(sf_dir, ["text"])

    def partial(t: pa.Table) -> pa.Table:
        schema = pa.schema([(c, pa.int64()) for c in
                            ("n_docs", "word_count", "mean_word_len",
                             "stopword", "dup_fraction", "all_rules")])
        if t.num_rows == 0:
            return schema.empty_table()
        import pyarrow.compute as pc

        values, offs, val_len, _ = _token_segments(t.column("text"))
        ndocs = t.num_rows
        nonempty = val_len > 0
        n_tok = _segment_sum(nonempty.astype(np.int64), offs)
        tok_chars = _segment_sum(val_len, offs)
        is_stop = pc.is_in(pc.utf8_lower(values), value_set=stop)
        n_stop = _segment_sum(
            is_stop.to_numpy(zero_copy_only=False).astype(np.int64), offs)
        # per-doc distinct tokens: dictionary-encode once, count (doc, code)
        # transitions in sorted order — no per-row Python
        enc = pc.dictionary_encode(values)
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        seg = np.repeat(np.arange(ndocs, dtype=np.int64), np.diff(offs))
        keep = nonempty
        seg_k, code_k = seg[keep], codes[keep]
        order = np.lexsort((code_k, seg_k))
        ss, cs = seg_k[order], code_k[order]
        new = np.r_[True, (ss[1:] != ss[:-1]) | (cs[1:] != cs[:-1])] \
            if len(ss) else np.zeros(0, dtype=bool)
        n_distinct = np.bincount(ss[new], minlength=ndocs) if len(ss) \
            else np.zeros(ndocs, dtype=np.int64)

        r_wc = (n_tok >= 25) & (n_tok <= 60)
        r_mwl = (3 * n_tok <= tok_chars) & (tok_chars <= 10 * n_tok)
        r_stop = n_stop >= 1
        r_dup = 2 * n_distinct >= n_tok
        r_all = r_wc & r_mwl & r_stop & r_dup
        return pa.table({
            "n_docs": pa.array([ndocs], pa.int64()),
            "word_count": pa.array([int(r_wc.sum())], pa.int64()),
            "mean_word_len": pa.array([int(r_mwl.sum())], pa.int64()),
            "stopword": pa.array([int(r_stop.sum())], pa.int64()),
            "dup_fraction": pa.array([int(r_dup.sum())], pa.int64()),
            "all_rules": pa.array([int(r_all.sum())], pa.int64()),
        })

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True).to_pandas()
    rules = ["word_count", "mean_word_len", "stopword", "dup_fraction",
             "all_rules"]
    if parts.empty:
        tot = {c: 0 for c in ["n_docs"] + rules}
    else:
        tot = parts.sum().to_dict()
    return pd.DataFrame({
        "rule": rules,
        "n_pass": pd.Series([int(tot[r]) for r in rules], dtype="int64"),
        "n_docs": pd.Series([int(tot["n_docs"])] * len(rules), dtype="int64"),
    })


def rrf_hybrid_search(sf_dir: str, k: int = 10, rrf_k: int = 60) -> pd.DataFrame:
    """Hybrid retrieval via reciprocal-rank fusion (the RAG-stack fusion
    step): fuse the BM25 lexical ranking and the cosine dense ranking —
    both independently value-oracled — with contribution
    ``round(1e9 / (rrf_k + rank))`` per list (integer nanos, so the fused
    scores compare exactly against the SQL twin). Ranks use each list's
    own oracled tie order (BM25: score_nano desc, doc_id; cosine: the
    4dp-rounded value desc, vec_id). Both input rankings run distributed;
    the fusion itself is over <= 25 rows. doc_id and vec_id are aligned
    by the corpus generator (row i of documents embeds to vector i)."""
    a = bm25_search(sf_dir)  # already (score_nano DESC, doc_id) ordered
    b = similarity_topk(sf_dir).sort_values(
        ["cos", "vec_id"], ascending=[False, True]).reset_index(drop=True)

    def contrib(rank: np.ndarray) -> np.ndarray:
        return np.floor(1e9 / (rrf_k + rank) + 0.5).astype(np.int64)

    fa = pd.DataFrame({"doc_id": a["doc_id"].to_numpy(np.int64),
                       "c": contrib(np.arange(1, len(a) + 1))})
    fb = pd.DataFrame({"doc_id": b["vec_id"].to_numpy(np.int64),
                       "c": contrib(np.arange(1, len(b) + 1))})
    fused = (pd.concat([fa, fb], ignore_index=True)
             .groupby("doc_id", as_index=False)["c"].sum()
             .rename(columns={"c": "rrf_nano"}))
    fused = fused.astype({"doc_id": "int64", "rrf_nano": "int64"})
    return (fused.sort_values(["rrf_nano", "doc_id"],
                              ascending=[False, True]).head(k)
            [["doc_id", "rrf_nano"]].reset_index(drop=True))


def doc_token_entropy(sf_dir: str, k: int = 50) -> pd.DataFrame:
    """Per-document Shannon entropy of the token distribution (H = ln n −
    Σc·ln c / n) — the diversity member of the quality-signal family next
    to repetition/compression ratios: low entropy flags template/repetitive
    text, high entropy flags token soup. MAP-ONLY at any scale: a document
    never spans batches, so each batch computes its own docs' tf vectors
    (the tfidf explode), reduces them to (n_tokens, n_distinct, Σc·ln c)
    per doc with one Arrow group_by, and prunes to a local top-k — the
    driver merges k-row partials and no shuffle ever forms. Entropy is
    rounded at 4dp on both sides (the tfidf/unigram-LM convention: the
    Σc·ln c float association order is engine-specific, absorbed by the
    rounding)."""
    import numpy as np
    import pyarrow.compute as pc

    from ..ops.agg import round_away

    ds = _docs(sf_dir, ["doc_id", "text"])
    empty = pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                          "n_tokens": pd.Series(dtype="int64"),
                          "n_distinct": pd.Series(dtype="int64"),
                          "entropy_r": pd.Series(dtype="float64")})

    def per_batch(t: pa.Table) -> pd.DataFrame:
        toks = pc.utf8_split_whitespace(
            pc.utf8_trim_whitespace(t.column("text"))).combine_chunks()
        offs = toks.offsets.to_numpy(zero_copy_only=False)
        doc_ix = np.repeat(np.arange(len(offs) - 1, dtype=np.int64),
                           np.diff(offs))
        pairs = pa.table({"d": pa.array(doc_ix, pa.int64()),
                          "tok": pc.list_flatten(toks)})
        pairs = pairs.filter(pc.not_equal(pairs.column("tok"), ""))
        if pairs.num_rows == 0:
            return empty
        tf = pairs.group_by(["d", "tok"]).aggregate([([], "count_all")])
        d = tf.column("d").to_numpy(zero_copy_only=False)
        c = tf.column("count_all").to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        red = pa.table({"d": pa.array(d, pa.int64()),
                        "c": pa.array(c.astype(np.int64), pa.int64()),
                        "clogc": pa.array(c * np.log(c), pa.float64())}) \
            .group_by(["d"]).aggregate([("c", "sum"), ([], "count_all"),
                                        ("clogc", "sum")])
        red = red.rename_columns(["d", "n_tokens", "n_distinct", "clogc"])
        doc_ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        n = red.column("n_tokens").to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        clogc = red.column("clogc").to_numpy(zero_copy_only=False)
        out = pd.DataFrame({
            "doc_id": doc_ids[red.column("d").to_numpy(zero_copy_only=False)],
            "n_tokens": red.column("n_tokens").to_numpy(zero_copy_only=False)
            .astype(np.int64),
            "n_distinct": red.column("n_distinct")
            .to_numpy(zero_copy_only=False).astype(np.int64),
            "entropy_r": round_away(np.log(n) - clogc / n, 4)})
        return out.sort_values(["entropy_r", "doc_id"],
                               ascending=[False, True]).head(k)

    res = ds.map_batches(per_batch, batch_format="pyarrow",
                         zero_copy_batch=True).to_pandas()
    if res.empty:
        return empty
    res = res.astype({"doc_id": "int64", "n_tokens": "int64",
                      "n_distinct": "int64", "entropy_r": "float64"})
    return (res.sort_values(["entropy_r", "doc_id"],
                            ascending=[False, True]).head(k)
            [["doc_id", "n_tokens", "n_distinct", "entropy_r"]]
            .reset_index(drop=True))


def bigram_lm_scores(sf_dir: str) -> pd.DataFrame:
    """Per-document bigram-LM (add-one smoothed) negative-log-likelihood —
    the order-sensitive upgrade of ``unigram_lm_scores``: a doc of common
    tokens in an improbable ORDER now scores poorly.
    P(w2|w1) = (c(w1,w2) + 1) / (c(w1) + V); each bigram's -ln P is
    quantized PER TERM at 4dp so the per-doc score is an order-exact int64
    sum — the DuckDB twin compares integer-for-integer.

    Two passes: (1) fit — one explode computes partial bigram + unigram
    counts per batch, two corpus-vocabulary-sized groupbys finish the
    model; (2) score — the sorted (bigram, unigram) model arrays are
    broadcast once via ray.put and each batch scores its docs with
    searchsorted lookups + CSR segment sums. Past broadcast size the same
    fit tables feed a bucket_join on the bigram key instead (one extra
    exchange; self-scoring keeps every bigram in-vocabulary either way).
    Docs with fewer than two tokens carry no bigram evidence and are
    omitted (the SQL twin's JOIN semantics)."""
    import numpy as np
    import pyarrow.compute as pc
    import ray

    from ..ops.agg import grouped_sums, round_away
    from ..ops.text import _segment_sum

    ds = _docs(sf_dir, ["doc_id", "text"])

    def explode(t: pa.Table):
        toks = pc.utf8_split_whitespace(
            pc.utf8_trim_whitespace(t.column("text"))).combine_chunks()
        offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        vals = toks.values
        sval = vals.to_numpy(zero_copy_only=False)
        n = len(sval)
        # adjacent positions j, j+1 inside the same list and non-empty
        # (the only possible empty token is the singleton of empty text,
        # which can never pair)
        in_doc = np.ones(max(n - 1, 0), dtype=bool)
        in_doc[offs[1:-1] - 1] = False  # j+1 crosses a doc boundary
        nonempty = sval != ""
        pairable = in_doc & nonempty[:-1] & nonempty[1:] \
            if n > 1 else np.zeros(0, dtype=bool)
        return toks, offs, vals, pairable

    def count_parts(t: pa.Table) -> pa.Table:
        toks, offs, vals, pairable = explode(t)
        j = np.flatnonzero(pairable)
        w1 = vals.take(pa.array(j, pa.int64()))
        w2 = vals.take(pa.array(j + 1, pa.int64()))
        bg = pc.binary_join_element_wise(w1, w2, " ")
        out = pa.table({"gram": bg}).group_by(["gram"]).aggregate(
            [([], "count_all")]).rename_columns(["gram", "c_part"])
        uni = pa.table({"gram": vals.filter(
            pc.not_equal(vals, ""))}).group_by(["gram"]).aggregate(
            [([], "count_all")]).rename_columns(["gram", "c_part"])
        out = out.append_column("kind", pa.array([1] * out.num_rows, pa.int8()))
        uni = uni.append_column("kind", pa.array([0] * uni.num_rows, pa.int8()))
        return pa.concat_tables([out, uni])

    model = grouped_sums(ds.map_batches(count_parts, batch_format="pyarrow",
                                        zero_copy_batch=True),
                         keys=["kind", "gram"], sum_cols={"c": "c_part"})
    empty = pd.DataFrame({"doc_id": pd.Series(dtype="object"),
                          "n_bigrams": pd.Series(dtype="int64"),
                          "nll_e4_sum": pd.Series(dtype="int64")})
    if model.empty:
        return empty
    uni = model[model["kind"] == 0]
    big = model[model["kind"] == 1]
    if big.empty:
        return empty
    v_size = np.float64(len(uni))
    uo = np.argsort(uni["gram"].to_numpy(), kind="stable")
    u_keys = uni["gram"].to_numpy()[uo]
    u_cnt = uni["c"].to_numpy(np.int64)[uo]
    bo = np.argsort(big["gram"].to_numpy(), kind="stable")
    b_keys = big["gram"].to_numpy()[bo]
    b_cnt = big["c"].to_numpy(np.int64)[bo]
    handle = ray.put((u_keys, u_cnt, b_keys, b_cnt))

    def score(t: pa.Table) -> pa.Table:
        uk, uc, bk, bc = ray.get(handle)
        toks, offs, vals, pairable = explode(t)
        j = np.flatnonzero(pairable)
        w1 = vals.take(pa.array(j, pa.int64()))
        w2 = vals.take(pa.array(j + 1, pa.int64()))
        bg = pc.binary_join_element_wise(w1, w2, " ") \
            .to_numpy(zero_copy_only=False)
        c2 = bc[np.searchsorted(bk, bg)] if len(bg) else \
            np.zeros(0, np.int64)
        c1 = uc[np.searchsorted(uk, w1.to_numpy(zero_copy_only=False))] \
            if len(bg) else np.zeros(0, np.int64)
        # pinned per-term expression (identical in SQL):
        # round(1e4 * -ln((c2 + 1.0) / (c1 + V)), 0)
        term = round_away(
            1e4 * -np.log((c2.astype(np.float64) + 1.0)
                          / (c1.astype(np.float64) + v_size)),
            0).astype(np.int64)
        # per-doc CSR sums over the flat bigram-candidate axis (n_vals - 1)
        n_pairs_axis = max(len(vals) - 1, 0)
        tflat = np.zeros(n_pairs_axis, dtype=np.int64)
        cflat = np.zeros(n_pairs_axis, dtype=np.int64)
        tflat[j] = term
        cflat[j] = 1
        poffs = np.minimum(offs, n_pairs_axis)
        nb = _segment_sum(cflat, poffs)
        ts = _segment_sum(tflat, poffs)
        keep = nb > 0
        return pa.table({
            "doc_id": t.column("doc_id").filter(pa.array(keep)),
            "n_bigrams": pa.array(nb[keep], pa.int64()),
            "nll_e4_sum": pa.array(ts[keep], pa.int64())})

    out = ds.map_batches(score, batch_format="pyarrow",
                         zero_copy_batch=True).to_pandas()
    return _finish(out, "doc_id")
