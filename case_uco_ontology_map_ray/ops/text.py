"""Text-analysis operators over a document table (doc_id, text, ...).

- vectorized tokenization and per-document segment sums (pyarrow kernels)
- quality scoring (length / punctuation / stopword ratios)
- PII-shaped token redaction (RE2 kernels shared with the DuckDB oracle of
  the ``pii_*`` queries)
"""

from __future__ import annotations

import re

import numpy as np
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
    """Vectorized tokenization shared by QualityScorer and the corpus
    operators: one RE2 split kernel per batch -> (flat token values, np
    segment offsets, per-doc char lengths). Token semantics match Python
    re \\w+ findall exactly (split on non-word runs; edge splits yield empty
    strings the callers mask via token length)."""
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


