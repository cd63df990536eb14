"""Shuffle-light grouped aggregation: local Arrow combiner + global groupby.

A bare ``ds.groupby(k).aggregate(...)`` shuffles every row. For low-to-medium
cardinality keys we first combine inside each batch with pyarrow's hash
aggregation (one output row per key per batch), then run the global groupby
over the tiny partial stream — the all-to-all exchange moves
O(keys x blocks) rows instead of O(rows).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def ensure_columns(df: pd.DataFrame,
                   columns: "dict[str, str] | list[str]") -> pd.DataFrame:
    """Schema-stable collect guard: Ray drops the schema with the last block
    of a fully-empty lineage, so ``ds.to_pandas()`` on zero rows yields a
    ZERO-COLUMN frame and downstream sort_values/astype/merge raise KeyError
    (the ADVICE r4 empty-input pattern). Rebuild an empty frame with the
    expected columns (dict of name->dtype, or a list for object dtype) when
    any expected column is missing; non-empty frames pass through untouched.
    """
    cols = (columns if isinstance(columns, dict)
            else {c: "object" for c in columns})
    if all(c in df.columns for c in cols):
        return df
    return pd.DataFrame({c: pd.Series(dtype=d) for c, d in cols.items()})


def round_away(x, ndigits: int):
    """Round half away from zero — DuckDB's ROUND() rule (numpy/pandas
    default to half-to-even, which diverges on exact .5 boundaries)."""
    m = 10.0 ** ndigits
    arr = np.asarray(x, dtype=np.float64)
    out = np.sign(arr) * np.floor(np.abs(arr) * m + 0.5) / m
    if isinstance(x, pd.Series):
        return pd.Series(out, index=x.index, name=x.name)
    return out


def plain_strings(t: pa.Table) -> pa.Table:
    """Decode dictionary columns to their value type: Arrow's hash_min
    kernel, Ray's sort exchange and cross-block schema unification need
    plain keys, and a filtered dictionary column still carries (and
    writes) its whole block's dictionary."""
    for i, field in enumerate(t.schema):
        if pa.types.is_dictionary(field.type):
            t = t.set_column(i, pa.field(field.name, field.type.value_type),
                             t.column(i).cast(field.type.value_type))
    return t


def _partial_sums(ds, keys: list[str], sum_cols: dict[str, str],
                  count_col: str):
    """Per-batch Arrow combiner, then the global groupby-sum (a Dataset)."""
    from ray.data.aggregate import Sum

    spec = [(in_col, "sum") for in_col in sum_cols.values()]
    used = list(dict.fromkeys(keys + list(sum_cols.values())))

    def combine(t: pa.Table) -> pa.Table:
        agg = plain_strings(t.select(used)).group_by(keys).aggregate(
            spec + [([], "count_all")])
        return agg.rename_columns(keys + list(sum_cols.keys()) + [count_col])

    partial = ds.map_batches(combine, batch_format="pyarrow")
    aggs = [Sum(out, alias_name=out) for out in sum_cols]
    aggs.append(Sum(count_col, alias_name=count_col))
    return partial.groupby(keys).aggregate(*aggs)


def grouped_sums(
    ds,
    keys: list[str],
    sum_cols: dict[str, str],
    count_alias: str | None = None,
) -> pd.DataFrame:
    """Group by ``keys``; emit Sum over each ``sum_cols[out_name] = in_col``
    plus an optional row count. Returns the (small) result as pandas.
    """
    count_col = count_alias or "__cnt"
    out = _partial_sums(ds, keys, sum_cols, count_col).to_pandas()
    if count_col not in out.columns and out.empty:
        # Ray loses the schema of a fully-empty lineage; rebuild it so
        # callers can select/sort the expected columns (ADVICE r4 pattern).
        out = pd.DataFrame({c: pd.Series(dtype="object") for c in keys}
                           | {c: pd.Series(dtype="int64")
                              for c in list(sum_cols) + [count_col]})
    if count_alias is None:
        out = out.drop(columns=[count_col])
    return out


def grouped_sums_ds(
    ds,
    keys: list[str],
    sum_cols: dict[str, str],
    count_alias: str | None = None,
):
    """``grouped_sums`` that stays a Dataset — for aggregates whose key
    cardinality is O(data) (per-order, per-customer): the result must not be
    collected; follow with ``topk_ds`` / a join / a write."""
    count_col = count_alias or "__cnt"
    out = _partial_sums(ds, keys, sum_cols, count_col)
    if count_alias is None:
        out = out.map_batches(lambda t: t.drop_columns([count_col]),
                              batch_format="pyarrow")
    return out


def topk_ds(ds, by: list[str], ascending: list[bool], k: int,
            columns: list[str] | None = None) -> pd.DataFrame:
    """Distributed top-k over a Dataset with UNIQUE rows per ranking entity:
    each batch keeps its local top-k (vectorized), the driver merges the tiny
    partials (num_blocks x k rows) and takes the global top-k.

    ``columns``: full expected output column list, used ONLY to build the
    empty frame when the input Dataset is fully empty (Ray loses the schema
    of an empty lineage, and callers select non-ranking columns afterwards —
    ADVICE r4). Defaults to whatever schema survives, else ``by``."""

    def local_topk(t: pa.Table) -> pa.Table:
        if t.num_rows <= k:
            return t
        order = [(c, "ascending" if a else "descending")
                 for c, a in zip(by, ascending)]
        idx = pa.compute.sort_indices(t, sort_keys=order)[:k]
        return t.take(idx)

    parts = ds.map_batches(local_topk, batch_format="pyarrow").to_pandas()
    if parts.empty and not set(by) <= set(parts.columns):
        # a fully-empty Dataset loses its schema; rebuild the FULL output
        # column list from the input schema so callers selecting non-ranking
        # columns afterwards (e.g. user_event_gaps takes user_id/ts) don't
        # KeyError on an empty result (ADVICE r4)
        try:
            schema = ds.schema()  # empty dataset: fetching it is trivial
        except Exception:
            schema = None
        if schema is not None and schema.names:
            names = list(schema.names)
        else:
            names = list(columns) if columns else list(by)
        return pd.DataFrame({c: [] for c in names})
    return parts.sort_values(by, ascending=ascending).head(k).reset_index(drop=True)


def topk_rounded(ds, by: list[str], ascending: list[bool], k: int,
                 round_col: str, ndigits: int, divisor: float = 1.0,
                 margin: int = 64,
                 columns: list[str] | None = None) -> pd.DataFrame:
    """Top-k ranked by the ROUNDED primary column over a Dataset carrying raw
    values (the oracle ranks by ROUND(x), where raw and rounded order can
    disagree inside a rounding quantum).

    Fetches ``k + margin`` rows by raw order, rounds, and VERIFIES the margin
    sufficed: rounding is monotone, so every unfetched row's rounded value is
    <= the minimum fetched rounded value — if the k-th rounded value is
    strictly above that minimum, no unfetched row can tie into the top-k.
    Otherwise the margin widens (x4) and the top-k re-runs. Requires the
    primary sort key to be ``round_col`` descending.
    """
    assert by[0] == round_col and not ascending[0], \
        "topk_rounded requires a descending primary key on round_col"
    while True:
        top = topk_ds(ds, by=by, ascending=ascending, k=k + margin,
                      columns=columns)
        exhausted = len(top) < k + margin  # the whole Dataset was fetched
        vals = top[round_col] / divisor if divisor != 1.0 else top[round_col]
        top = top.assign(**{round_col: round_away(vals, ndigits)})
        out = top.sort_values(by, ascending=ascending).reset_index(drop=True)
        if exhausted or len(out) <= k:
            return out.head(k).reset_index(drop=True)
        if out[round_col].iloc[k - 1] > out[round_col].min():
            return out.head(k).reset_index(drop=True)
        margin *= 4


def global_row_number(ds, key_col: str, id_col: str,
                      key_ascending: bool = True, rank_col: str = "rnk"):
    """Distributed global row_number() OVER (ORDER BY key [DESC], id):
    returns ``ds`` with an added 1-based int64 ``rank_col`` — no global
    sort, no driver collection of the data.

    Shape: (1) per-key counts via a partial-agg groupby (the exchange
    carries one row per distinct key per block); (2) the driver prefix-sums
    the KEY-SIZED count table into per-key base offsets (result-sized
    state — the documented assumption is |distinct keys| << |rows|, the
    usual case for score/length/bucket ranking; for key spaces approaching
    |rows| compose with a coarser bucketing key first); (3) offsets are
    broadcast (ray.put once, read per task) onto hash-bucketed key
    CO-GROUPS (equal keys co-locate, MANY keys per dispatch — not one
    ``map_groups`` call per distinct key, which is the repo's documented
    per-key-dispatch anti-pattern at 10^6+ key domains): each bucket
    sorts once by (key, id) and ranks every segment vectorized
    (base + within-key cumcount).
    """
    from .joins import _mix_bucket, broadcast_join

    counts = grouped_sums(ds, keys=[key_col], sum_cols={}, count_alias="n")
    counts = counts.sort_values(key_col, ascending=key_ascending)
    base = (np.empty(0, np.int64) if counts.empty else
            np.concatenate(([0], np.cumsum(counts["n"].to_numpy())[:-1])))
    offsets = pd.DataFrame({key_col: counts[key_col].to_numpy(),
                            "__base": base.astype(np.int64)})

    def add_bucket(t: pa.Table) -> pa.Table:
        return t.append_column("__kb", _mix_bucket(t.column(key_col), 64))

    def local_rank(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.drop(columns=["__kb"])
             .sort_values([key_col, id_col], kind="mergesort")
             .reset_index(drop=True))
        pos = g.groupby(key_col, sort=False).cumcount().to_numpy()
        g[rank_col] = g["__base"].to_numpy() + pos + 1
        return g.drop(columns=["__base"])

    joined = broadcast_join(ds, offsets, on=key_col)
    return (joined.map_batches(add_bucket, batch_format="pyarrow")
            .groupby("__kb").map_groups(local_rank, batch_format="pandas"))
