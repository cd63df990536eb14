"""Text-analysis operators over a document table (doc_id, text, ...).

- token / length / repetition / compression statistics (vectorized
  pyarrow kernels)
- quality scoring (length / punctuation / stopword ratios)
- language ID (stopword-profile n-gram heuristic)
- winnowing-style rolling-hash document fingerprints
- sequence packing, inverted index, text normalization
- PII-shaped token redaction (RE2 kernels shared with the DuckDB oracle of
  the ``pii_*`` queries)
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

# Tiny public stopword profiles (top function words) per language.
_LANG_PROFILES = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "it", "that", "for"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "mit", "für", "von"},
    "fr": {"le", "la", "les", "et", "est", "un", "une", "pour", "dans", "que"},
    "es": {"el", "la", "los", "y", "es", "un", "una", "para", "en", "que"},
    "zh": {"的", "是", "了", "在", "和", "有", "我", "不", "这", "他"},
}


# RE2 equivalents of Python's unicode \w / punct classes (Python \w =
# str.isalnum() + underscore = \p{L}\p{N}_). Divergence is limited to exotic
# whitespace (RE2 \s is ASCII; Python \s adds \v and unicode spaces).
_NONWORD_RE2 = r"[^\p{L}\p{N}_]+"
_PUNCT_RE2 = r"[^\p{L}\p{N}_\s]"
_UPPER_RE2 = r"\p{Lu}"


def _token_segments(text_col: pa.ChunkedArray | pa.Array):
    """Vectorized tokenization shared by QualityScorer/LangId: one RE2 split
    kernel per batch -> (flat token values, np segment offsets, per-doc
    char lengths). Token semantics match Python re \\w+ findall exactly
    (split on non-word runs; edge splits yield empty strings the callers
    mask via token length)."""
    toks = pc.split_pattern_regex(text_col, pattern=_NONWORD_RE2)
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    values = toks.values
    val_len = pc.utf8_length(values).to_numpy(zero_copy_only=False).astype(np.int64)
    n_chars = pc.utf8_length(text_col).to_numpy(zero_copy_only=False).astype(np.int64)
    return values, offs, val_len, n_chars


def _segment_sum(x: np.ndarray, offs: np.ndarray) -> np.ndarray:
    """Per-document sums of a flat token-aligned array (cumsum-diff — safe
    for empty segments, unlike np.add.reduceat)."""
    csum = np.zeros(len(x) + 1, dtype=np.int64)
    np.cumsum(x, out=csum[1:])
    return csum[offs[1:]] - csum[offs[:-1]]


class QualityScorer:
    """Actor stage: heuristic quality features per document.

    Features mirror common training-data filters (C4/Gopher-style):
    mean token length, punctuation ratio, stopword ratio, uppercase ratio,
    and a composite keep/drop score. Fully vectorized: one RE2 split kernel
    + two RE2 count kernels per batch and numpy segment sums — no per-row
    Python (pinned equal to the per-row reference in tests/test_corpus_ops).
    """

    def __init__(self):
        self.stop = pa.array(sorted(_LANG_PROFILES["en"]), pa.string())

    def __call__(self, t: pa.Table) -> pa.Table:
        text = t.column("text")
        values, offs, val_len, n_chars = _token_segments(text)
        n_tokens = _segment_sum((val_len > 0).astype(np.int64), offs)
        nt = np.maximum(n_tokens, 1)
        mean_tok = _segment_sum(val_len, offs) / nt
        is_stop = pc.is_in(pc.utf8_lower(values), value_set=self.stop)
        stop_ratio = _segment_sum(
            is_stop.to_numpy(zero_copy_only=False).astype(np.int64), offs) / nt
        denom = np.maximum(n_chars, 1)
        punct_ratio = pc.count_substring_regex(text, _PUNCT_RE2).to_numpy(
            zero_copy_only=False).astype(np.int64) / denom
        upper_ratio = pc.count_substring_regex(text, _UPPER_RE2).to_numpy(
            zero_copy_only=False).astype(np.int64) / denom
        score = (
            (mean_tok > 2.5) & (mean_tok < 12)
        ).astype(float) * 0.4 + (punct_ratio < 0.2) * 0.3 + (stop_ratio > 0.01) * 0.3
        # round_away (not np.round): the repo-wide convention matching
        # DuckDB ROUND(), which makes this operator oracle-checkable
        from .agg import round_away

        return pa.table({
            "doc_id": t.column("doc_id"),
            "mean_token_len": pa.array(round_away(mean_tok, 3)),
            "punct_ratio": pa.array(round_away(punct_ratio, 4)),
            "stopword_ratio": pa.array(round_away(stop_ratio, 4)),
            "upper_ratio": pa.array(round_away(upper_ratio, 4)),
            "quality_score": pa.array(round_away(score, 2)),
        })


def quality_scores(ds):
    # instance (not class): task-based map_batches — the scorer's state is a
    # tiny stopword array, not worth an actor-pool spin-up
    return ds.map_batches(QualityScorer(), batch_format="pyarrow")


class LangId:
    """Actor stage: stopword-profile language ID (n-gram-free heuristic).

    Scores each language by the fraction of tokens found in its stopword
    profile; predicts argmax with 'und' (undetermined) when all scores are 0.
    Vectorized: one split kernel, one lowercase pass, one is_in + segment
    sum per language (5 languages) — no per-row Python.
    """

    def __init__(self):
        # insertion order preserved: ties resolve to the FIRST language that
        # reaches the max score, matching the scalar reference's `s > best`
        self.profiles = [(lang, pa.array(sorted(prof), pa.string()))
                         for lang, prof in _LANG_PROFILES.items()]

    def __call__(self, t: pa.Table) -> pa.Table:
        text = t.column("text")
        values, offs, val_len, _ = _token_segments(text)
        n_tokens = _segment_sum((val_len > 0).astype(np.int64), offs)
        nt = np.maximum(n_tokens, 1)
        lowered = pc.utf8_lower(values)
        n_docs = len(offs) - 1
        best = np.zeros(n_docs, dtype=np.float64)
        best_idx = np.full(n_docs, -1, dtype=np.int64)
        for li, (_, prof) in enumerate(self.profiles):
            hits = pc.is_in(lowered, value_set=prof).to_numpy(
                zero_copy_only=False).astype(np.int64)
            s = _segment_sum(hits, offs) / nt
            better = s > best
            best[better] = s[better]
            best_idx[better] = li
        langs = np.array(["und"] + [lang for lang, _ in self.profiles])
        preds = langs[best_idx + 1]
        from .agg import round_away

        return pa.table({
            "doc_id": t.column("doc_id"),
            "pred_lang": pa.array(preds, pa.string()),
            "lang_score": pa.array(round_away(best, 4)),
        })


def lang_id(ds):
    return ds.map_batches(LangId(), batch_format="pyarrow")


def rolling_fingerprints(ds, keep: int = 8):
    """Winnowing-style rolling-hash fingerprints (non-SQL variant)."""
    from ..functions.hashing import rolling_fingerprint

    def fp(t: pa.Table) -> pa.Table:
        out = [rolling_fingerprint(x, keep=keep) for x in t.column("text").to_pylist()]
        return pa.table({"doc_id": t.column("doc_id"),
                         "fingerprint": pa.array(out, pa.list_(pa.int64()))})

    return ds.map_batches(fp, batch_format="pyarrow")


# GPT-2-flavoured pre-tokenizer classes, restricted to RE2 syntax so the
# Arrow kernel (count_substring_regex, RE2) and the DuckDB oracle
# (regexp_extract_all, RE2) tokenize identically.
BPE_SPLIT_PATTERN = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]"


def bpe_token_stats(ds) -> "pa.Table":
    """Per-doc sub-word token count under a BPE-ish pre-tokenizer split
    (letters runs / digit runs / single punctuation). Fully vectorized:
    one RE2 count kernel per batch, no Python loop."""

    def stats(t: pa.Table) -> pa.Table:
        text = t.column("text")
        n = pc.count_substring_regex(text, BPE_SPLIT_PATTERN)
        return pa.table({
            "doc_id": t.column("doc_id"),
            "n_bpe_tokens": n.cast(pa.int64()),
        })

    return ds.map_batches(stats, batch_format="pyarrow", zero_copy_batch=True)


def length_quantiles(ds, qs=(0.5, 0.9, 0.99), col: str = "text") -> dict:
    """EXACT quantile_cont over length(col), distributed: per-batch value
    counts on the (bounded) length domain -> tiny global histogram ->
    interpolated quantiles on the driver. The shuffle carries one row per
    distinct length per block — never the data."""
    from ray.data.aggregate import Sum

    def local(t: pa.Table) -> pa.Table:
        ln = pc.utf8_length(t.column(col)).cast(pa.int64())
        one = pa.table({"len": ln})
        agg = one.group_by(["len"]).aggregate([([], "count_all")])
        return agg.rename_columns(["len", "n"])

    hist = (ds.map_batches(local, batch_format="pyarrow")
              .groupby("len").aggregate(Sum("n", alias_name="n")).to_pandas())
    if hist.empty:
        return {q: float("nan") for q in qs}
    hist = hist.sort_values("len").reset_index(drop=True)
    lens = hist["len"].to_numpy(dtype=np.float64)
    counts = hist["n"].to_numpy(dtype=np.int64)
    cum = np.cumsum(counts)
    total = int(cum[-1])

    def _value_at(idx: int) -> float:
        return float(lens[np.searchsorted(cum, idx + 1)])

    out = {}
    for q in qs:
        h = (total - 1) * q
        lo, hi = int(np.floor(h)), int(np.ceil(h))
        vlo, vhi = _value_at(lo), _value_at(hi)
        out[q] = vlo + (h - lo) * (vhi - vlo)
    return out


def _hash_str_values(values: pa.Array) -> np.ndarray:
    """Deterministic vectorized 64-bit string hash (pandas siphash, fixed
    key) — a collision-free proxy for string equality at per-document
    cardinalities (same convention as ngram_jaccard_exact)."""
    return pd.util.hash_pandas_object(values.to_pandas(), index=False).to_numpy()


def _seg_distinct(hashes: np.ndarray, seg: np.ndarray, n_seg: int) -> np.ndarray:
    """Distinct-count per segment via one lexsort + adjacent-diff."""
    if len(hashes) == 0:
        return np.zeros(n_seg, dtype=np.int64)
    order = np.lexsort((hashes, seg))
    hs, ss = hashes[order], seg[order]
    first = np.ones(len(hs), dtype=bool)
    first[1:] = (hs[1:] != hs[:-1]) | (ss[1:] != ss[:-1])
    return np.bincount(ss[first], minlength=n_seg)


def repetition_stats(ds):
    """Gopher-style repetition signals per document (training-data quality
    filters): duplicate-word fraction, duplicate-line fraction, and the
    fraction of word-bigram occurrences taken by the document's most
    frequent bigram. Fully vectorized (RE2 split kernels + lexsort runs);
    fractions round_away(4) so the op is DuckDB-oracle-checkable
    (query ``doc_repetition``)."""
    from .agg import round_away
    from ..functions.hashing import _avalanche

    _BGMIX = np.uint64(0x9E3779B97F4A7C15)

    def stats(t: pa.Table) -> pa.Table:
        text = t.column("text")
        n_docs = t.num_rows

        # words (same token semantics as the SQL oracle: RE2 non-word split,
        # empty tokens dropped, order preserved)
        values, offs, val_len, _ = _token_segments(text)
        seg_all = np.repeat(np.arange(n_docs, dtype=np.int64), np.diff(offs))
        keep = val_len > 0
        wh = _hash_str_values(values)[keep]
        wseg = seg_all[keep]
        n_words = np.bincount(wseg, minlength=n_docs)
        distinct_w = _seg_distinct(wh, wseg, n_docs)
        dup_word_frac = np.where(
            n_words > 0, 1.0 - distinct_w / np.maximum(n_words, 1), 0.0)

        # bigrams: adjacent surviving tokens within a document
        if len(wh) > 1:
            same = wseg[1:] == wseg[:-1]
            with np.errstate(over="ignore"):
                bh = _avalanche(wh[:-1] * _BGMIX + wh[1:])[same]
            bseg = wseg[1:][same]
        else:
            bh = np.array([], dtype=np.uint64)
            bseg = np.array([], dtype=np.int64)
        n_bg = np.bincount(bseg, minlength=n_docs)
        top = np.zeros(n_docs, dtype=np.int64)
        if len(bh):
            order = np.lexsort((bh, bseg))
            hs, ss = bh[order], bseg[order]
            first = np.ones(len(hs), dtype=bool)
            first[1:] = (hs[1:] != hs[:-1]) | (ss[1:] != ss[:-1])
            run_id = np.cumsum(first) - 1
            run_len = np.bincount(run_id)
            np.maximum.at(top, ss[first], run_len)
        top_bigram_frac = np.where(n_bg > 0, top / np.maximum(n_bg, 1), 0.0)

        # lines: exact '\n' split, empty lines dropped
        ll = pc.split_pattern(text, "\n")
        if isinstance(ll, pa.ChunkedArray):
            ll = ll.combine_chunks()
        loffs = ll.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        lvals = ll.values
        lseg_all = np.repeat(np.arange(n_docs, dtype=np.int64), np.diff(loffs))
        lkeep = pc.utf8_length(lvals).to_numpy(zero_copy_only=False) > 0
        lh = _hash_str_values(lvals)[lkeep]
        lseg = lseg_all[lkeep]
        n_lines = np.bincount(lseg, minlength=n_docs)
        distinct_l = _seg_distinct(lh, lseg, n_docs)
        dup_line_frac = np.where(
            n_lines > 0, 1.0 - distinct_l / np.maximum(n_lines, 1), 0.0)

        return pa.table({
            "doc_id": t.column("doc_id"),
            "dup_word_frac": pa.array(round_away(dup_word_frac, 4)),
            "dup_line_frac": pa.array(round_away(dup_line_frac, 4)),
            "top_bigram_frac": pa.array(round_away(top_bigram_frac, 4)),
        })

    return ds.map_batches(stats, batch_format="pyarrow", zero_copy_batch=True)


def pack_sequences(ds, max_tokens: int = 512, num_buckets: int = 64):
    """Greedy sequence packing (training-batch prep): assign documents to
    packs of at most ``max_tokens`` whitespace tokens. Docs are
    hash-bucketed by doc_id and packed greedily in doc_id order WITHIN each
    bucket, so the assignment is deterministic under any partitioning /
    parallelism (bucket membership and order depend only on doc_id), and
    pack ids never collide across buckets (pack_id = bucket << 32 | seq).
    Docs longer than ``max_tokens`` get a singleton pack (truncation is the
    tokenizer's job, not the packer's).

    Output: (doc_id, pack_id, n_tokens). Greedy fill is inherently
    sequential per bucket — the per-doc work is a bounded counter update,
    and co-grouping bounds Ray dispatch to one call per bucket.
    """
    from .joins import _mix_bucket

    def prep(t: pa.Table) -> pa.Table:
        toks = pc.list_value_length(
            pc.utf8_split_whitespace(t.column("text"))).cast(pa.int64())
        out = pa.table({"doc_id": t.column("doc_id"), "n_tokens": toks})
        return out.append_column(
            "__bucket", _mix_bucket(out.column("doc_id"), num_buckets))

    pre = ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)

    def pack_bucket(g: pa.Table) -> pa.Table:
        order = pc.sort_indices(g, sort_keys=[("doc_id", "ascending")])
        g = g.take(order)
        ids = g.column("doc_id").to_numpy(zero_copy_only=False)
        toks = g.column("n_tokens").to_numpy(zero_copy_only=False)
        bucket = int(g.column("__bucket")[0].as_py()) if g.num_rows else 0
        pack = np.empty(len(ids), dtype=np.int64)
        seq, fill = 0, 0
        for i, n in enumerate(toks):
            if fill and fill + n > max_tokens:
                seq += 1
                fill = 0
            fill += int(n)
            pack[i] = (bucket << 32) | seq
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "pack_id": pa.array(pack, pa.int64()),
                         "n_tokens": pa.array(toks, pa.int64())})

    return pre.groupby("__bucket").map_groups(pack_bucket, batch_format="pyarrow")


def grouped_length_quantiles(ds, group_col: str, qs=(0.5, 0.9),
                             col: str = "text") -> pd.DataFrame:
    """EXACT per-group quantile_cont over length(col): the distributed
    histogram simply gains the group key — the shuffle carries one row per
    (group, distinct length) per block, never the data — and the driver
    interpolates each group's quantiles from its own tiny CDF (groups x
    distinct-lengths rows; lengths are a bounded domain).

    Returns a frame with group_col + one column per requested quantile
    (named q<pct>, e.g. q50)."""
    from ray.data.aggregate import Sum

    def local(t: pa.Table) -> pa.Table:
        ln = pc.utf8_length(t.column(col)).cast(pa.int64())
        one = pa.table({group_col: t.column(group_col), "len": ln})
        one = one.filter(pc.is_valid(ln))  # null text contributes no length
        agg = one.group_by([group_col, "len"]).aggregate([([], "count_all")])
        return agg.rename_columns([group_col, "len", "n"])

    hist = (ds.map_batches(local, batch_format="pyarrow")
              .groupby([group_col, "len"])
              .aggregate(Sum("n", alias_name="n")).to_pandas())
    q_cols = [f"q{int(round(q * 100))}" for q in qs]
    if hist.empty or group_col not in hist.columns:
        # empty input (or all-null text): schema-stable empty result — the
        # same guard length_quantiles already has (ADVICE r4)
        return pd.DataFrame({group_col: pd.Series(dtype="object"),
                             **{c: pd.Series(dtype="float64") for c in q_cols}})
    rows = []
    for g, sub in hist.groupby(group_col, sort=True):
        sub = sub.sort_values("len")
        lens = sub["len"].to_numpy(dtype=np.float64)
        cum = np.cumsum(sub["n"].to_numpy(dtype=np.int64))
        total = int(cum[-1])
        row = {group_col: g}
        for q in qs:
            h = (total - 1) * q
            lo, hi = int(np.floor(h)), int(np.ceil(h))
            vlo = float(lens[np.searchsorted(cum, lo + 1)])
            vhi = float(lens[np.searchsorted(cum, hi + 1)])
            row[f"q{int(round(q * 100))}"] = vlo + (h - lo) * (vhi - vlo)
        rows.append(row)
    return pd.DataFrame(rows)


# ------------------------------------------------------------ PII redaction
# Ordered regex families. ORDER IS SEMANTICS: each family counts and
# replaces on the text as left by the families before it (e.g. digit runs
# inside an already-redacted email are gone before `num` runs, and `hex`
# only sees hex runs that were not pure-digit runs). Both pyarrow and DuckDB
# compile RE2, so the same pattern strings drive the engine and its SQL
# oracle to byte-identical output (see __ray_entry__ pii_redaction).
# Replacement tokens are chosen to never re-match a later family (no digits,
# no 8+ hex-char runs).
PII_FAMILIES: tuple[tuple[str, str, str], ...] = (
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    ("ipv4", r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
    ("ssn", r"\b\d{3}-\d{2}-\d{4}\b", "<SSN>"),
    ("num", r"\d{6,}", "<NUM>"),
    ("hex", r"\b[0-9A-Fa-f]{8,}\b", "<HEX>"),
)


def redact_pii(ds, col: str = "text",
               families: tuple[tuple[str, str, str], ...] = PII_FAMILIES):
    """Redact PII-shaped tokens from ``col``; map-only, fully vectorized.

    Adds ``red_<col>`` (the redacted text) and one int64 ``n_<family>``
    match-count column per family; other columns pass through. Counts are
    taken per family on the progressively-redacted text (sequential
    semantics, see PII_FAMILIES). 100-TB shape: stateless map_batches, two
    RE2 kernels per family per batch, no shuffle.
    """

    def redact(t: pa.Table) -> pa.Table:
        s = t.column(col)
        if pa.types.is_dictionary(s.type):
            s = s.cast(pa.string())
        if isinstance(s, pa.ChunkedArray):
            s = s.combine_chunks()
        out = t
        for name, pattern, token in families:
            n = pc.count_substring_regex(s, pattern).cast(pa.int64())
            s = pc.replace_substring_regex(s, pattern=pattern,
                                           replacement=token)
            out = out.append_column(f"n_{name}", n)
        return out.append_column(f"red_{col}", s)

    return ds.map_batches(redact, batch_format="pyarrow")


def compression_ratios(ds, col: str = "text", level: int = 6):
    """Per-document zlib compression ratio (compressed/raw bytes) — the
    classic cheap repetition/junk signal: boilerplate and template spam
    compress far below prose. Map-only; zlib's deflate is C-speed, the
    per-row Python is one call per doc (unavoidable: no Arrow kernel).
    No SQL twin (DuckDB has no zlib) — gated by unit tests instead.

    Returns (doc_id, raw_bytes, zlib_bytes, ratio[4dp]); empty docs get
    ratio 0."""
    import zlib

    from .agg import round_away

    def score(t: pa.Table) -> pa.Table:
        texts = t.column(col).to_pylist()
        raw = np.array([len(x.encode()) if x else 0 for x in texts],
                       dtype=np.int64)
        comp = np.array([len(zlib.compress(x.encode(), level)) if x else 0
                         for x in texts], dtype=np.int64)
        ratio = np.where(raw > 0, comp / np.maximum(raw, 1), 0.0)
        return pa.table({
            "doc_id": t.column("doc_id"),
            "raw_bytes": pa.array(raw, pa.int64()),
            "zlib_bytes": pa.array(comp, pa.int64()),
            "ratio": pa.array(round_away(ratio, 4), pa.float64()),
        })

    return ds.map_batches(score, batch_format="pyarrow")


def build_inverted_index(ds, id_col: str = "doc_id", text_col: str = "text",
                         num_parts: int = 64):
    """Corpus inverted index: Dataset[(term, df, tf_total, postings)] with
    ``postings`` = comma-joined ascending doc ids (exact, deterministic).

    Shape: one explode pass emits batch-local (term, doc_id, tf) rows —
    documents never span batches, so rows are globally unique per
    (term, doc) with exact tf; the shuffle partitions by a term-hash bucket
    (a term never spans partitions) and each partition builds its posting
    lists fully vectorized (one sort, Arrow list-offsets join — no per-term
    Python). 100-TB note: hot stopword terms concentrate one group's
    postings in one task; production sharding would segment postings as
    (term, shard_idx) rows — the df/tf aggregates here already come from
    the same partials and would be unchanged.
    """
    from .joins import _mix_bucket

    def explode(t: pa.Table) -> pa.Table:
        toks = pc.utf8_split_whitespace(
            pc.utf8_trim_whitespace(t.column(text_col))).combine_chunks()
        offs = toks.offsets.to_numpy(zero_copy_only=False)
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        doc = np.repeat(ids, np.diff(offs))
        pairs = pa.table({"doc_id": pa.array(doc, pa.int64()),
                          "term": pc.list_flatten(toks)})
        pairs = pairs.filter(pc.not_equal(pairs.column("term"), ""))
        tf = pairs.group_by(["term", "doc_id"]).aggregate([([], "count_all")])
        tf = tf.rename_columns(["term", "doc_id", "tf"])
        return tf.append_column(
            "__part", _mix_bucket(tf.column("term"), num_parts))

    pre = ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)

    def finish(g: pa.Table) -> pa.Table:
        t = g.drop_columns(["__part"]).combine_chunks()
        if t.num_rows == 0:
            return pa.table({"term": pa.array([], pa.string()),
                             "df": pa.array([], pa.int64()),
                             "tf_total": pa.array([], pa.int64()),
                             "postings": pa.array([], pa.string())})
        idx = pc.sort_indices(t, sort_keys=[("term", "ascending"),
                                            ("doc_id", "ascending")])
        t = t.take(idx)
        terms = t.column("term").combine_chunks()
        # group boundaries over the sorted term column
        enc = terms.dictionary_encode()
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        codes = enc.indices.to_numpy(zero_copy_only=False)
        bounds = np.flatnonzero(np.diff(codes)) + 1
        offsets = np.concatenate(([0], bounds, [t.num_rows])).astype(np.int32)
        tf = t.column("tf").to_numpy(zero_copy_only=False)
        df = np.diff(offsets).astype(np.int64)
        tf_total = _segment_sum(tf.astype(np.int64), offsets.astype(np.int64))
        id_strs = t.column("doc_id").cast(pa.string()).combine_chunks()
        lists = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), id_strs)
        postings = pc.binary_join(lists, ",")
        return pa.table({
            "term": terms.take(pa.array(offsets[:-1].astype(np.int64))),
            "df": pa.array(df, pa.int64()),
            "tf_total": pa.array(tf_total, pa.int64()),
            "postings": postings,
        })

    return pre.groupby("__part").map_groups(finish, batch_format="pyarrow")


def normalize_texts(ds, id_col: str = "doc_id", col: str = "text"):
    """Canonical text normal form (the standard pre-dedup/pre-tokenize
    cleanup): lowercase, collapse every non-alphanumeric run to one space,
    trim. Map-only, three RE2/utf8 kernels per batch; byte-exact SQL twin
    (DuckDB regexp_replace with the same class)."""

    def norm(t: pa.Table) -> pa.Table:
        s = pc.utf8_lower(t.column(col))
        s = pc.replace_substring_regex(s, pattern="[^a-z0-9]+", replacement=" ")
        s = pc.utf8_trim_whitespace(s)
        return pa.table({id_col: t.column(id_col), "norm_text": s})

    return ds.map_batches(norm, batch_format="pyarrow", zero_copy_batch=True)
