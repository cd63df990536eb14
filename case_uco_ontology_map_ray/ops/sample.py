"""Deterministic sampling operators for training-data pipelines.

Bernoulli and stratified sampling keyed on a stable hash of a row key —
map-only (no shuffle, no driver state), reproducible across runs and
cluster shapes. Two keep-rule modes:

- ``method="mix64"`` (default, PRODUCTION): fully vectorized — the key
  column is hashed with ``pandas.util.hash_pandas_object`` (SipHash-style
  64-bit, C-implemented, any dtype), seed-mixed with the same xorshift
  avalanche as ``ops.joins._mix_bucket``, and kept when
  ``hash / 2^64 < pct / 100``. Supports FRACTIONAL rates (pct=0.5 keeps
  ~0.5%) and costs no per-row Python — the right rule at 10^12 rows.
- ``method="md5"`` (ORACLE mode): first 8 hex digits of
  md5(f"{key}:{seed}") as an int, mod 100, < pct — reproducible in DuckDB
  (``md5()`` + hex-prefix cast), so sampled sets can be verified
  row-for-row against SQL. Per-row Python md5: use only for
  oracle-checked runs and tests, never on the 100-TB path. NOTE: the
  mod-100 rule quantizes pct to whole percents (pct=0.5 behaves as ~1%,
  matching ``hash % 100 == 0``); pass integer pct in this mode.

Both rules are uniform over keys and independent of partitioning.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa


def _mix64_u(x: np.ndarray) -> np.ndarray:
    """uint64 avalanche (murmur3 fmix64): the xorshift-multiply-xorshift of
    ``functions.hashing._mix64``, then a second multiply and xorshift, with
    all 64 bits kept."""
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(33)
    x *= np.uint64(0xFF51AFD7ED558CCD)
    x ^= x >> np.uint64(33)
    x *= np.uint64(0xC4CEB9FE1A85EC53)
    x ^= x >> np.uint64(33)
    return x


def _keep_mask_mix64(keys: pd.Series, pcts: np.ndarray | float, seed: int) -> np.ndarray:
    """Vectorized keep mask: hash(key) seed-mixed, uniform in [0, 1)."""
    h = pd.util.hash_pandas_object(keys, index=False).to_numpy()  # uint64
    h = _mix64_u(h ^ np.uint64(seed * 0x9E3779B97F4A7C15 % (1 << 64)))
    u = h.astype(np.float64) / float(1 << 64)
    return u < (np.asarray(pcts, dtype=np.float64) / 100.0)


def _keep_mask_md5(keys, pcts, seed: int) -> list[bool]:
    # oracle-parity rule; per-row md5 is the documented cost of SQL parity
    if np.isscalar(pcts):
        pcts = [pcts] * len(keys)
    return [
        int(hashlib.md5(f"{k}:{seed}".encode()).hexdigest()[:8], 16) % 100 < p
        for k, p in zip(keys, pcts)
    ]


def bernoulli_sample(ds, key_col: str, pct: float, seed: int = 42,
                     method: str = "mix64"):
    """Deterministic ~pct% sample keyed on ``key_col`` (map-only filter).

    ``method="mix64"`` (default) is vectorized and supports fractional pct;
    ``method="md5"`` is the DuckDB-reproducible oracle rule (integer pct)."""
    if method not in ("mix64", "md5"):
        raise ValueError(f"unknown sampling method {method!r}")

    if method == "md5":
        def filt(t: pa.Table) -> pa.Table:
            keep = _keep_mask_md5(t.column(key_col).to_pylist(), pct, seed)
            return t.filter(pa.array(keep, pa.bool_()))
    else:
        def filt(t: pa.Table) -> pa.Table:
            keys = t.column(key_col).to_pandas()
            return t.filter(pa.array(_keep_mask_mix64(keys, pct, seed)))

    return ds.map_batches(filt, batch_format="pyarrow", zero_copy_batch=True)


def stratified_sample(ds, key_col: str, strata_col: str, pcts: dict,
                      default_pct: float = 0.0, seed: int = 42,
                      method: str = "mix64"):
    """Per-stratum sampling rates (e.g. keep 20% of English docs, 5% of the
    rest) — the standard training-mix rebalancing shape. Same deterministic
    keep rule per row, with the rate chosen by the row's stratum."""
    if method not in ("mix64", "md5"):
        raise ValueError(f"unknown sampling method {method!r}")

    if method == "md5":
        def filt(t: pa.Table) -> pa.Table:
            keys = t.column(key_col).to_pylist()
            rates = [pcts.get(s, default_pct)
                     for s in t.column(strata_col).to_pylist()]
            keep = _keep_mask_md5(keys, rates, seed)
            return t.filter(pa.array(keep, pa.bool_()))
    else:
        def filt(t: pa.Table) -> pa.Table:
            keys = t.column(key_col).to_pandas()
            rates = (t.column(strata_col).to_pandas().map(pcts)
                     .fillna(default_pct).to_numpy(dtype=np.float64))
            return t.filter(pa.array(_keep_mask_mix64(keys, rates, seed)))

    return ds.map_batches(filt, batch_format="pyarrow", zero_copy_batch=True)


def split_assign(ds, key_col: str, fractions: dict[str, float],
                 seed: int = 42, method: str = "mix64",
                 out_col: str = "split"):
    """Deterministic disjoint train/val/test assignment (map-only).

    Every row gets exactly one label from ``fractions`` (insertion order
    defines the cumulative bucket boundaries; values must sum to 1.0, the
    last label absorbs rounding). The same two keep-rule modes as sampling:
    ``mix64`` (vectorized, production) buckets ``hash/2^64`` against the
    cumulative fractions; ``md5`` (oracle) buckets ``md5-prefix % 100``
    against integer-percent boundaries, reproducible in DuckDB. Assignment
    depends only on (key, seed) — stable across runs, cluster shapes and
    repartitioning, so a later corpus delta never reshuffles prior rows
    between splits (the property that keeps eval sets leak-free)."""
    if method not in ("mix64", "md5"):
        raise ValueError(f"unknown split method {method!r}")
    total = float(sum(fractions.values()))
    if not np.isclose(total, 1.0, atol=1e-9):
        raise ValueError(f"fractions must sum to 1.0, got {total}")
    labels = list(fractions)
    edges = np.cumsum([fractions[l] for l in labels])
    edges[-1] = 1.0 + 1e-12  # last label absorbs rounding

    if method == "md5":
        pct_edges = np.rint(edges * 100).astype(np.int64)
        if pct_edges[-1] != 100 or len(np.unique(pct_edges)) != len(pct_edges):
            raise ValueError(
                "md5 (oracle) mode needs whole-percent, non-empty buckets")

        def assign(t: pa.Table) -> pa.Table:
            buckets = [
                int(hashlib.md5(f"{k}:{seed}".encode()).hexdigest()[:8], 16) % 100
                for k in t.column(key_col).to_pylist()
            ]
            ix = np.searchsorted(pct_edges, np.asarray(buckets), side="right")
            return t.append_column(
                out_col, pa.array([labels[i] for i in ix], pa.string()))
    else:
        def assign(t: pa.Table) -> pa.Table:
            keys = t.column(key_col).to_pandas()
            h = pd.util.hash_pandas_object(keys, index=False).to_numpy()
            h = _mix64_u(h ^ np.uint64(seed * 0x9E3779B97F4A7C15 % (1 << 64)))
            u = h.astype(np.float64) / float(1 << 64)
            ix = np.searchsorted(edges, u, side="right")
            ix = np.minimum(ix, len(labels) - 1)
            return t.append_column(
                out_col, pa.array([labels[i] for i in ix], pa.string()))

    return ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)


def weighted_bottomk(ds, key_col: str, weight_col: str, k: int,
                     seed: int = 42, method: str = "mix64") -> pd.DataFrame:
    """Efraimidis-Spirakis weighted sampling WITHOUT replacement as a
    distributed bottom-k: each row draws a deterministic uniform u from
    its key and is ranked by -ln(u)/w; the k smallest ranks are an exact
    weighted WOR sample (equivalent to maximizing u^(1/w)). Mergeable and
    shuffle-free: every batch keeps its local k smallest (vectorized),
    the driver merges the tiny partials — the weighted twin of
    ``bottomk_sample``.

    ``method="mix64"`` (production): vectorized key hash -> uniform ->
    ``np.log``. ``method="md5"`` (oracle): md5-derived uniform + libm
    ``math.log`` per row, bit-reproducible in DuckDB with the identical
    expression order ``-ln((h + 1) / 2^32) / w``. Rows with weight <= 0
    are never sampled (both modes, both engines).
    """
    import math

    import pyarrow.compute as pc

    from .agg import topk_ds

    if method not in ("mix64", "md5"):
        raise ValueError(f"unknown sampling method {method!r}")

    def rank_md5(t: pa.Table) -> pa.Table:
        keys = t.column(key_col).to_pylist()
        w = t.column(weight_col).to_numpy(zero_copy_only=False)
        ranks = []
        for kv, wv in zip(keys, w):
            if wv is None or wv <= 0:
                ranks.append(math.inf)
                continue
            h = int(hashlib.md5(f"{kv}:{seed}".encode()).hexdigest()[:8], 16)
            ranks.append(-math.log((h + 1) / 4294967296.0) / wv)
        return t.append_column("__rank", pa.array(ranks, pa.float64()))

    def rank_mix64(t: pa.Table) -> pa.Table:
        keys = t.column(key_col).to_pandas()
        h = pd.util.hash_pandas_object(keys, index=False).to_numpy()
        h = _mix64_u(h ^ np.uint64(seed * 0x9E3779B97F4A7C15 % (1 << 64)))
        u = (h.astype(np.float64) + 1.0) / float(1 << 64)
        w = t.column(weight_col).to_numpy(zero_copy_only=False).astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(w > 0, -np.log(u) / w, np.inf)
        return t.append_column("__rank", pa.array(r, pa.float64()))

    ranked = ds.map_batches(rank_md5 if method == "md5" else rank_mix64,
                            batch_format="pyarrow")
    ranked = ranked.filter(expr="__rank < " + repr(float("1e308")))
    out = topk_ds(ranked, by=["__rank", key_col], ascending=[True, True],
                  k=k, columns=[key_col, weight_col, "__rank"])
    return out.rename(columns={"__rank": "rank"}).reset_index(drop=True)


def grouped_bottomk_sample(ds, group_col: str, key_col: str,
                           k: "int | dict", seed: int = 42,
                           method: str = "mix64"):
    """Exact-k uniform sample PER GROUP (balanced per-stratum subsampling,
    e.g. k docs per language): within each group keep the k keys with the
    smallest deterministic hash rank — the per-group twin of
    ``bottomk_sample`` and the exact-size complement of
    ``stratified_sample``'s rates.

    ``k`` may be a dict mapping group value -> per-group k (groups absent
    from the dict are dropped) — the shape temperature-based data mixing
    needs, where each stratum gets its own target count.

    Shape: each batch pre-prunes to its local per-group bottom-k
    (vectorized sort + head — the combiner, so the exchange carries at
    most k rows per group per block), then one co-grouped exact merge per
    group. ``method="md5"`` ranks by the md5 hex string (DuckDB
    row_number() reproducible); ``method="mix64"`` ranks by the
    vectorized seeded hash (production)."""
    if method not in ("mix64", "md5"):
        raise ValueError(f"unknown sampling method {method!r}")

    def add_rank(t: pa.Table) -> pa.Table:
        if method == "md5":
            ranks = pa.array([
                hashlib.md5(f"{v}:{seed}".encode()).hexdigest()
                for v in t.column(key_col).to_pylist()], pa.string())
        else:
            keys = t.column(key_col).to_pandas()
            h = pd.util.hash_pandas_object(keys, index=False).to_numpy()
            h = _mix64_u(h ^ np.uint64(seed * 0x9E3779B97F4A7C15 % (1 << 64)))
            ranks = pa.array(h.astype(np.uint64), pa.uint64())
        return t.append_column("__rank", ranks)

    def local_prune(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["__rank", key_col], kind="mergesort")
        if isinstance(k, int):
            return df.groupby(group_col, sort=False).head(k)
        kk = df[group_col].map(k).fillna(0).astype("int64").to_numpy()
        pos = df.groupby(group_col, sort=False).cumcount().to_numpy()
        return df[pos < kk]

    pruned = (ds.map_batches(add_rank, batch_format="pyarrow")
              .map_batches(local_prune, batch_format="pandas"))

    def merge_group(g: pd.DataFrame) -> pd.DataFrame:
        kg = k if isinstance(k, int) else int(k.get(g[group_col].iloc[0], 0))
        return (g.sort_values(["__rank", key_col], kind="mergesort")
                .head(kg).drop(columns=["__rank"]))

    return pruned.groupby(group_col).map_groups(merge_group,
                                                batch_format="pandas")
