"""Relational analytics pipelines over the TPC-H-ish test tables.

Each function takes ``sf_dir`` and returns a small pandas DataFrame
(aggregates rounded half-away so distributed fp summation is exact and
order-independent). No ``__ray_entry__`` query calls them any more; the
ones left are those the unit tests pin.

These exercise the engine's relational operator surface: pruned reads,
vectorized filter/project, partial-aggregation groupby, broadcast and
bucketed joins, top-k, distinct.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..ops.agg import (
    ensure_columns,
    grouped_sums,
    grouped_sums_ds,
    round_away,
    topk_ds,
    topk_rounded,
)
from ..ops.joins import adaptive_semi_join, bucket_semi_join, semi_filter


def _t(sf_dir: str, name: str) -> str:
    return f"{sf_dir}/{name}.parquet"


def _scale_i64(col, scale: float = 10000.0):
    """Scale a double column to exact int64 (x1e4, half-away rounding) so
    distributed sums are associative and match the SQL oracle exactly."""
    scaled = pc.round(pc.multiply(col, pa.scalar(scale)), ndigits=0,
                      round_mode="half_towards_infinity")  # = half away from zero
    return scaled.cast(pa.int64())


def q3_top_revenue_orders(sf_dir: str, segment: str = "BUILDING", k: int = 10) -> pd.DataFrame:
    """TPC-H Q3-style: top-k open orders by revenue for one market segment.

    Join strategy (adaptive, scale-safe): segment customers semi-filter
    orders and open orders semi-filter lineitem through
    ``adaptive_semi_join`` — broadcast key sets while a measured count
    proves them bounded, bucketed shuffles beyond that; revenue aggregates
    per order stay a Dataset; the global top-k merges tiny per-block
    partials; only the k winning orders are pulled to the driver for the
    o_orderdate attach.
    """
    cutoff = np.datetime64("1995-03-15T00:00:00", "us")

    cust = rd.read_parquet(_t(sf_dir, "customer"), columns=["c_custkey", "c_mktsegment"])
    seg_cust = cust.map_batches(
        lambda t: t.filter(pc.equal(t.column("c_mktsegment"), segment)).select(["c_custkey"]),
        batch_format="pyarrow",
    )

    orders = rd.read_parquet(_t(sf_dir, "orders"),
                             columns=["o_orderkey", "o_custkey", "o_orderdate"])
    open_orders = orders.map_batches(
        lambda t: t.filter(pc.less(t.column("o_orderdate"), pa.scalar(cutoff))),
        batch_format="pyarrow",
    )
    # adaptive: the segment key set is measured-small at test scale ->
    # broadcast semi (no shuffle); falls back to bucketed beyond the bound
    open_orders = adaptive_semi_join(open_orders, seg_cust,
                                     on="o_custkey", right_on="c_custkey").materialize()

    li = rd.read_parquet(_t(sf_dir, "lineitem"),
                         columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"])

    def prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t.column("l_shipdate"), pa.scalar(cutoff)))
        rev = pc.multiply(t.column("l_extendedprice"),
                          pc.subtract(pa.scalar(1.0), t.column("l_discount")))
        return t.select(["l_orderkey"]).append_column("rev", _scale_i64(rev))

    li = adaptive_semi_join(
        li.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        open_orders, on="l_orderkey", right_on="o_orderkey")
    rev_ds = grouped_sums_ds(li, keys=["l_orderkey"], sum_cols={"revenue": "rev"})
    # the oracle ranks by ROUNDED revenue; topk_rounded fetches a margin of
    # raw partials and verifies it covers every potential rounded tie
    top = topk_rounded(rev_ds, by=["revenue", "l_orderkey"],
                       ascending=[False, True], k=k,
                       round_col="revenue", ndigits=2, divisor=10000.0,
                       columns=["l_orderkey", "revenue"])
    # attach o_orderdate for just the k winners (broadcast of k keys)
    dates = ensure_columns(
        semi_filter(open_orders, top["l_orderkey"].to_numpy(),
                    "o_orderkey").to_pandas(),
        {"o_orderkey": "int64", "o_orderdate": "datetime64[us]"})
    out = top.merge(dates[["o_orderkey", "o_orderdate"]],
                    left_on="l_orderkey", right_on="o_orderkey")
    out = out.sort_values(["revenue", "l_orderkey"], ascending=[False, True])
    return out[["l_orderkey", "revenue", "o_orderdate"]].reset_index(drop=True)


def order_priority_counts(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q4-style: order priority histogram for a quarter, where the
    order has at least one line item (semi join via bucket-free broadcast)."""
    lo = np.datetime64("1995-01-01T00:00:00", "us")
    hi = np.datetime64("1995-04-01T00:00:00", "us")
    orders = rd.read_parquet(_t(sf_dir, "orders"),
                             columns=["o_orderkey", "o_orderdate", "o_orderpriority"])
    orders = orders.map_batches(
        lambda t: t.filter(
            pc.and_(pc.greater_equal(t.column("o_orderdate"), pa.scalar(lo)),
                    pc.less(t.column("o_orderdate"), pa.scalar(hi)))
        ),
        batch_format="pyarrow",
    )
    li = rd.read_parquet(_t(sf_dir, "lineitem"), columns=["l_orderkey"])
    orders = bucket_semi_join(orders, li, on="o_orderkey", right_on="l_orderkey")
    out = grouped_sums(orders, keys=["o_orderpriority"], sum_cols={}, count_alias="order_count")
    return out.sort_values("o_orderpriority").reset_index(drop=True)


def _keyed_segments(ds, key: str, num_buckets: int = 64):
    """Scale-safe per-key processing (the ``_band_groups`` co-grouping
    pattern from ops/dedup): hash-bucket ``key`` into ``num_buckets``
    co-groups so each ``map_groups`` call receives MANY complete key groups
    at once — one Python dispatch per bucket, not the ~1 ms dispatch per key
    that kills ``groupby(user_id).map_groups`` at 10^8 users. Callers sort
    the bucket frame by (key, ...) and vectorize across key segments."""
    from ..ops.joins import _mix_bucket

    def add_bucket(t: pa.Table) -> pa.Table:
        return t.append_column("__bucket", _mix_bucket(t.column(key), num_buckets))

    return ds.map_batches(add_bucket, batch_format="pyarrow").groupby("__bucket")


def purchase_last_click(sf_dir: str) -> pd.DataFrame:
    """As-of join: for each purchase event, the most recent STRICTLY-prior
    click by the same user (ops.joins.asof_join; oracle: DuckDB ASOF JOIN)."""
    from ..ops.joins import asof_join

    ev = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["event_id", "user_id", "event_type", "ts"])
    purchases = ev.map_batches(
        lambda t: t.filter(pc.equal(t.column("event_type"), "purchase")).drop_columns(["event_type"]),
        batch_format="pyarrow",
    )
    clicks = ev.map_batches(
        lambda t: t.filter(pc.equal(t.column("event_type"), "click")).select(["user_id", "ts"]),
        batch_format="pyarrow",
    )
    out = ensure_columns(
        asof_join(purchases, clicks, on="user_id", ts="ts",
                  right_ts_name="prev_click_ts").to_pandas(),
        {"event_id": "int64", "user_id": "int64",
         "ts": "datetime64[us]", "prev_click_ts": "datetime64[us]"})
    out = out.sort_values("event_id").reset_index(drop=True)
    for c in ("ts", "prev_click_ts"):
        out[c] = out[c].astype("datetime64[us]")
    return out[["event_id", "user_id", "ts", "prev_click_ts"]]


def event_value_quantiles(sf_dir: str) -> pd.DataFrame:
    """Exact per-group quantile_cont over event values, fully distributed:
    a local (event_type, value) count combiner runs inside every batch, the
    shuffle carries one row per distinct (type, value), and the per-type
    finisher interpolates on the weighted CDF — so a worker holds a type's
    DISTINCT values + counts, never its raw rows (the old version sorted
    raw rows per type and needed one type to fit a worker). For
    fixed-precision values (these events carry 2-decimal doubles in a
    bounded range) the distinct count is bounded by the value DOMAIN, so
    the per-type frame stays constant-size at any data scale; for truly
    continuous float64 values distinct ~ rows and the mergeable histogram
    sketch in ops/sketches is the unbounded-cardinality path. Exactness is
    unconditional. Oracle: DuckDB quantile_cont(...) GROUP BY."""
    ds = rd.read_parquet(_t(sf_dir, "events"), columns=["event_type", "value"])

    def local_counts(t: pa.Table) -> pa.Table:
        agg = t.group_by(["event_type", "value"]).aggregate([([], "count_all")])
        return agg.rename_columns(["event_type", "value", "n"])

    counts = grouped_sums_ds(
        ds.map_batches(local_counts, batch_format="pyarrow", zero_copy_batch=True),
        keys=["event_type", "value"], sum_cols={"n": "n"})

    def per_type(g: pd.DataFrame) -> pd.DataFrame:
        order = np.argsort(g["value"].to_numpy(dtype=np.float64), kind="stable")
        vals = g["value"].to_numpy(dtype=np.float64)[order]
        cnt = g["n"].to_numpy(dtype=np.int64)[order]
        cum = np.cumsum(cnt)
        n_total = int(cum[-1])
        out = {"event_type": [g["event_type"].iloc[0]]}
        for name, q in (("p50", 0.5), ("p90", 0.9)):
            h = (n_total - 1) * q
            lo = int(np.floor(h))
            hi = int(np.ceil(h))
            # value at 0-based rank r in the expanded multiset = first
            # distinct value whose cumulative count exceeds r
            lo_val = vals[np.searchsorted(cum, lo + 1)]
            hi_val = vals[np.searchsorted(cum, hi + 1)]
            out[name] = [round_away(lo_val + (h - lo) * (hi_val - lo_val), 4)]
        return pd.DataFrame(out)

    out = counts.groupby("event_type").map_groups(per_type, batch_format="pandas")
    out = ensure_columns(out.to_pandas(),
                         {"event_type": "object", "p50": "float64",
                          "p90": "float64"})
    return out.sort_values("event_type").reset_index(drop=True)


def supplier_part_join(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Bucketed large-large join demo: lineitem x part on partkey, revenue by
    brand (the bucket join is the portable hash-partitioned join shape).
    lineitem is locally pre-aggregated per partkey (exact int64 revenue sum +
    row count) before the join, so the shuffle moves one row per (partkey,
    block) instead of one per lineitem; buckets are auto-sized from the
    input-file estimate (ops.joins.auto_num_buckets)."""
    from ..ops.joins import bucket_join

    li = rd.read_parquet(_t(sf_dir, "lineitem"),
                         columns=["l_partkey", "l_extendedprice", "l_discount"])

    def prep(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t.column("l_extendedprice"),
                          pc.subtract(pa.scalar(1.0), t.column("l_discount")))
        x = t.select(["l_partkey"]).append_column("rev", _scale_i64(rev))
        agg = x.group_by(["l_partkey"]).aggregate(
            [("rev", "sum"), ([], "count_all")])
        return agg.rename_columns(["l_partkey", "rev", "n"])

    li = li.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    part = rd.read_parquet(_t(sf_dir, "part"), columns=["p_partkey", "p_brand"]).map_batches(
        lambda t: t.rename_columns(["l_partkey", "p_brand"]), batch_format="pyarrow"
    )
    joined = bucket_join(li, part, on="l_partkey")
    out = grouped_sums(joined, keys=["p_brand"],
                       sum_cols={"revenue": "rev", "n": "n"})
    out["revenue"] = round_away(out["revenue"] / 10000.0, 2)
    out = out.sort_values(["revenue", "p_brand"], ascending=[False, True]).head(k)
    return out[["p_brand", "n", "revenue"]].reset_index(drop=True)


def user_funnel(sf_dir: str, stages=("view", "click", "purchase")) -> pd.DataFrame:
    """Sequential funnel: users reaching each stage with STRICTLY increasing
    timestamps (first 'view', then a 'click' after it, then a 'purchase'
    after that click). A classic sequence-match that SQL needs chained
    self-joins for; here each hash co-group of complete user histories is
    reduced in one vectorized pandas pass (groupby-min + merge per stage),
    emitting ONE partial-count row per bucket — the driver sums 64 tiny
    rows. Oracle: chained min-ts CTEs with the same strict-> semantics."""
    stage_set = list(stages)
    ds = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["user_id", "event_type", "ts"])
    ds = ds.map_batches(
        lambda t: t.filter(pc.is_in(t.column("event_type"),
                                    value_set=pa.array(stage_set))),
        batch_format="pyarrow")

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        counts = []
        prev = None  # Series: user_id -> ts of reaching the previous stage
        for s in stage_set:
            ev = g[g.event_type == s][["user_id", "ts"]]
            if prev is not None:
                ev = ev.merge(prev.rename("prev_ts"), on="user_id")
                ev = ev[ev.ts > ev.prev_ts]
            reached = ev.groupby("user_id").ts.min()
            counts.append(len(reached))
            prev = reached
        return pd.DataFrame({f"n{i}": [c] for i, c in enumerate(counts)})

    partials = _keyed_segments(ds, "user_id").map_groups(
        per_bucket, batch_format="pandas").to_pandas()
    return pd.DataFrame({
        "stage": stage_set,
        "stage_idx": np.arange(1, len(stage_set) + 1, dtype=np.int64),
        "n_users": [int(partials[f"n{i}"].sum())
                    if f"n{i}" in partials.columns else 0
                    for i in range(len(stage_set))],
    })


def approx_users_by_type_invariants(sf_dir: str) -> pd.DataFrame:
    """Per-event-type HLL distinct-user estimates, gated by their error
    bound: (n_groups, n_violations) with violations = groups whose HLL
    estimate misses the EXACT distinct count by more than 10% (p=12 HLL
    sigma is ~1.6%, so 10% is a hard fail, not noise). SQL pins
    n_violations = 0 and reproduces n_groups."""
    from ..ops.agg import grouped_sums
    from ..ops.sketches import approx_distinct_by_group

    ds = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["event_type", "user_id"])
    approx = approx_distinct_by_group(ds, "event_type", "user_id", p=12)

    # exact distinct users per type: per-batch distinct pairs -> groupby
    def local(t: pa.Table) -> pa.Table:
        d = t.group_by(["event_type", "user_id"]).aggregate([])
        return d.group_by(["event_type"]).aggregate([([], "count_all")]) \
                .rename_columns(["event_type", "n_part"])

    # NOTE: distinct pairs can straddle batches; group the pairs first
    def pairs(t: pa.Table) -> pa.Table:
        return t.group_by(["event_type", "user_id"]).aggregate([])

    pre = ds.map_batches(pairs, batch_format="pyarrow")
    exact = (pre.groupby(["event_type", "user_id"]).count()
             .groupby("event_type").count().to_pandas())
    exact = ensure_columns(exact.rename(columns={"count()": "exact"}),
                           {"event_type": "object", "exact": "int64"})

    m = approx.merge(exact, on="event_type")
    rel = (m["approx_distinct"] - m["exact"]).abs() / m["exact"].clip(lower=1)
    return pd.DataFrame({
        "n_groups": pd.Series([int(len(m))], dtype="int64"),
        "n_violations": pd.Series([int((rel > 0.10).sum())], dtype="int64"),
    })


# ---------------------------------------------------------------------------
# Round-5 session-8 additions: classic multi-join (Q5), cohort retention,
# market-basket pairs, sufficient-stats correlation, skyline, interval join,
# per-group dense-rank, exact global deciles.
# ---------------------------------------------------------------------------


def cohort_retention(sf_dir: str) -> pd.DataFrame:
    """Cohort retention matrix: users grouped by first-activity day; for
    each (cohort_day, days-since-first) cell, the number of cohort users
    active that day. THE training-analytics window shape (first-touch
    attribution + per-user offsets) with no per-user driver state.

    Scale shape: per-batch distinct (user, day) partials shrink the stream
    before ONE user-keyed co-group exchange (_keyed_segments — each bucket
    holds complete users, so first-day and offsets are exact); buckets emit
    per-(cohort, offset) partial counts and a tiny global groupby sums them
    (a user lives in exactly one bucket, so partial counts never double-
    count a user)."""

    ds = rd.read_parquet(_t(sf_dir, "events"), columns=["user_id", "ts"])

    def distinct_days(t: pa.Table) -> pa.Table:
        x = pa.table({"user_id": t.column("user_id"),
                      "day": pc.floor_temporal(t.column("ts"), unit="day")})
        return x.group_by(["user_id", "day"]).aggregate([])

    pre = ds.map_batches(distinct_days, batch_format="pyarrow",
                         zero_copy_batch=True)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["user_id", "day"])
        first = g.groupby("user_id")["day"].transform("min")
        off = ((g["day"] - first).dt.days).astype("int64")
        part = (pd.DataFrame({"cohort_day": first, "offset_days": off})
                .groupby(["cohort_day", "offset_days"], as_index=False)
                .size().rename(columns={"size": "n_part"}))
        part["cohort_day"] = part["cohort_day"].astype("datetime64[us]")
        part["n_part"] = part["n_part"].astype("int64")
        return part

    parts = _keyed_segments(pre, "user_id").map_groups(
        per_bucket, batch_format="pandas")
    out = grouped_sums(parts, keys=["cohort_day", "offset_days"],
                       sum_cols={"n_users": "n_part"})
    if out.empty:
        return pd.DataFrame({"cohort_day": pd.Series(dtype="datetime64[us]"),
                             "offset_days": pd.Series(dtype="int64"),
                             "n_users": pd.Series(dtype="int64")})
    out["cohort_day"] = out["cohort_day"].astype("datetime64[us]")
    out = out.astype({"offset_days": "int64", "n_users": "int64"})
    return (out.sort_values(["cohort_day", "offset_days"])
            .reset_index(drop=True)[["cohort_day", "offset_days", "n_users"]])


def copurchase_pairs(sf_dir: str, k: int = 25, min_support: int = 2) -> pd.DataFrame:
    """Market-basket co-occurrence: top-k part pairs ordered together (same
    order, distinct parts), support = number of orders containing both.

    Scale shape: pairs are generated INSIDE orderkey co-groups (an order's
    items co-locate; pairs per order are bounded by items-per-order choose 2,
    never corpus-sized), pre-counted per bucket, then one tiny pair-keyed
    groupby + distributed top-k. The ragged pair expansion is the banded-
    join building block (_expand_pairs) — no Python loop over orders."""
    from ..ops.joins import _expand_pairs

    ds = rd.read_parquet(_t(sf_dir, "lineitem"),
                         columns=["l_orderkey", "l_partkey"])

    def distinct_pairs(t: pa.Table) -> pa.Table:
        return t.group_by(["l_orderkey", "l_partkey"]).aggregate([])

    pre = ds.map_batches(distinct_pairs, batch_format="pyarrow",
                         zero_copy_batch=True)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.drop_duplicates(["l_orderkey", "l_partkey"])
             .sort_values(["l_orderkey", "l_partkey"], kind="mergesort"))
        okey = g["l_orderkey"].to_numpy(np.int64)
        part = g["l_partkey"].to_numpy(np.int64)
        n = len(okey)
        if n == 0:
            return pd.DataFrame({"k1": pd.Series(dtype="int64"),
                                 "k2": pd.Series(dtype="int64"),
                                 "n_part": pd.Series(dtype="int64")})
        # segment end per row (orders are contiguous after the sort)
        seg_start = np.flatnonzero(np.r_[True, okey[1:] != okey[:-1]])
        seg_len = np.diff(np.r_[seg_start, n])
        ends = np.repeat(seg_start + seg_len, seg_len)
        i_idx, j_idx = _expand_pairs(np.arange(n, dtype=np.int64) + 1, ends)
        pairs = pd.DataFrame({"k1": part[i_idx], "k2": part[j_idx]})
        out = (pairs.groupby(["k1", "k2"], as_index=False)
               .size().rename(columns={"size": "n_part"}))
        out["n_part"] = out["n_part"].astype("int64")
        return out

    parts = _keyed_segments(pre, "l_orderkey").map_groups(
        per_bucket, batch_format="pandas")

    # combine per-bucket pair partials WITHOUT a generic 2-key Aggregate
    # (Ray's sort-based aggregate over ~10^6 composite keys is the slow
    # path — 15 s vs 4 s at sf0.1): pack the pair into ONE int64 key,
    # co-group by its hash (complete counts per bucket), filter + local
    # top-k per bucket, tiny driver merge
    def pack(t: pa.Table) -> pa.Table:
        k1 = t.column("k1").to_numpy(zero_copy_only=False)
        k2 = t.column("k2").to_numpy(zero_copy_only=False)
        return t.append_column(
            "pairkey", pa.array((k1 << np.int64(32)) | k2, pa.int64()))

    def bucket_topk(g: pd.DataFrame) -> pd.DataFrame:
        c = (g.groupby("pairkey", as_index=False)
             .agg(k1=("k1", "first"), k2=("k2", "first"),
                  support=("n_part", "sum")))
        c = c[c["support"] >= min_support]
        c = c.sort_values(["support", "k1", "k2"],
                          ascending=[False, True, True]).head(k)
        return c[["k1", "k2", "support"]].astype("int64")

    res = _keyed_segments(parts.map_batches(pack, batch_format="pyarrow"),
                          "pairkey").map_groups(
        bucket_topk, batch_format="pandas").to_pandas()
    if res.empty:
        return pd.DataFrame({"k1": pd.Series(dtype="int64"),
                             "k2": pd.Series(dtype="int64"),
                             "support": pd.Series(dtype="int64")})
    out = (res.sort_values(["support", "k1", "k2"],
                           ascending=[False, True, True]).head(k)
           .astype({"k1": "int64", "k2": "int64", "support": "int64"}))
    return out[["k1", "k2", "support"]].reset_index(drop=True)


def _skyline_frame(cents: "np.ndarray", size: "np.ndarray") -> "np.ndarray":
    """Boolean keep-mask of the (min cents, max size) Pareto frontier, ties
    kept (identical points never dominate each other). Vectorized: sort by
    (cents asc, size desc); a row survives iff its size equals its own
    cents-group max AND strictly exceeds the running max over strictly
    cheaper rows."""
    order = np.lexsort((-size, cents))
    c, s = cents[order], size[order]
    n = len(c)
    keep_sorted = np.zeros(n, dtype=bool)
    if n:
        grp_start = np.flatnonzero(np.r_[True, c[1:] != c[:-1]])
        grp_id = np.cumsum(np.r_[True, c[1:] != c[:-1]]) - 1
        grp_max = s[grp_start]  # first of each group = its max (size desc)
        # running max of group maxima over STRICTLY cheaper groups
        prev_best = np.r_[np.iinfo(np.int64).min,
                          np.maximum.accumulate(grp_max)[:-1]]
        keep_sorted = (s == grp_max[grp_id]) & (s > prev_best[grp_id])
    keep = np.zeros(n, dtype=bool)
    keep[order] = keep_sorted
    return keep


def part_skyline(sf_dir: str) -> pd.DataFrame:
    """Pareto frontier of parts: not dominated on (lower price, larger
    size). The classic distributed skyline plan: each batch emits its LOCAL
    skyline (a global skyline point survives every subset it belongs to, so
    no winner is lost), the driver re-runs the identical rule once over the
    tiny candidate union. Prices compare in exact cents."""
    ds = rd.read_parquet(_t(sf_dir, "part"),
                         columns=["p_partkey", "p_retailprice", "p_size"])

    def local(t: pa.Table) -> pa.Table:
        cents = _scale_i64(t.column("p_retailprice"), 100.0) \
            .to_numpy(zero_copy_only=False)
        size = t.column("p_size").cast(pa.int64()).to_numpy(zero_copy_only=False)
        return t.filter(pa.array(_skyline_frame(cents, size)))

    cand = ds.map_batches(local, batch_format="pyarrow",
                          zero_copy_batch=True).to_pandas()
    if cand.empty:
        return pd.DataFrame({"p_partkey": pd.Series(dtype="int64"),
                             "p_retailprice": pd.Series(dtype="float64"),
                             "p_size": pd.Series(dtype="int64")})
    cents = np.rint(cand["p_retailprice"].to_numpy(np.float64) * 100.0).astype(np.int64)
    keep = _skyline_frame(cents, cand["p_size"].to_numpy(np.int64))
    out = cand[keep].sort_values("p_partkey").reset_index(drop=True)
    out["p_size"] = out["p_size"].astype("int64")
    return out[["p_partkey", "p_retailprice", "p_size"]]


def click_purchase_within_hour(sf_dir: str) -> pd.DataFrame:
    """Interval join: per user, how many purchases were preceded by a click
    within the previous hour (attribution window). Users co-group via
    _keyed_segments; inside a bucket BOTH event streams are searched in one
    vectorized pass — (user-rank << 42 | ts-offset) composite keys make a
    single np.searchsorted respect user boundaries, no per-user Python loop.
    Oracle: correlated EXISTS with the identical [ts-1h, ts) window."""
    hour_us = 3_600_000_000

    ds = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["user_id", "ts", "event_type"])

    def prep(t: pa.Table) -> pa.Table:
        m = pc.is_in(t.column("event_type"),
                     value_set=pa.array(["click", "purchase"]))
        f = t.filter(m)
        return pa.table({"user_id": f.column("user_id"),
                         "ts": f.column("ts"),
                         "event_type": f.column("event_type")})

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"user_id": pd.Series(dtype="int64"),
                              "n_purchases": pd.Series(dtype="int64"),
                              "n_converted": pd.Series(dtype="int64")})
        if g.empty:
            return empty
        g = g.sort_values(["user_id", "ts"], kind="mergesort")
        uid = g["user_id"].to_numpy(np.int64)
        t = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        t0 = t.min()
        toff = t - t0
        # composite key = user_rank * span + ts_offset; the +hour_us margin
        # in span guarantees [pk - hour_us, pk) can never reach the NEXT
        # user's band, and the clamp at the user's own base blocks the
        # PREVIOUS user's — so one global searchsorted is exactly the
        # per-user window probe
        span = int(toff.max()) + hour_us + 1
        urank = (np.cumsum(np.r_[True, uid[1:] != uid[:-1]]) - 1).astype(np.int64)
        assert (urank[-1] + 1) < (2**62) // span, "bucket key space overflow"
        base = urank * span
        key = base + toff
        is_p = (g["event_type"] == "purchase").to_numpy()
        ck, pk = key[~is_p], key[is_p]
        if len(pk) == 0:
            return empty
        lo = np.searchsorted(ck, np.maximum(pk - hour_us, base[is_p]), side="left")
        hi = np.searchsorted(ck, pk, side="left")
        converted = hi > lo
        pu = uid[is_p]
        out = (pd.DataFrame({"user_id": pu, "conv": converted.astype(np.int64)})
               .groupby("user_id", as_index=False)
               .agg(n_purchases=("conv", "size"), n_converted=("conv", "sum")))
        return out.astype({"n_purchases": "int64", "n_converted": "int64"})

    res = _keyed_segments(
        ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        "user_id").map_groups(per_bucket, batch_format="pandas")
    out = res.to_pandas()
    if out.empty:
        return pd.DataFrame({"user_id": pd.Series(dtype="int64"),
                             "n_purchases": pd.Series(dtype="int64"),
                             "n_converted": pd.Series(dtype="int64")})
    return (out.astype({"user_id": "int64"})
            .sort_values("user_id").reset_index(drop=True)
            [["user_id", "n_purchases", "n_converted"]])


def supplier_rank_in_nation(sf_dir: str, max_rank: int = 3) -> pd.DataFrame:
    """Per-group dense_rank window: suppliers ranked by account balance
    within their nation, keeping rank <= 3 WITH ties. Two-stage: every
    batch prunes to its local top-3 DISTINCT balance values per nation
    (any global rank-3 row survives its own batch's prune), then one
    nation-keyed co-group computes the exact dense rank per nation.
    Balances compare in exact cents."""
    ds = rd.read_parquet(_t(sf_dir, "supplier"),
                         columns=["s_suppkey", "s_nationkey", "s_acctbal"])

    def local_prune(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df["cents"] = np.rint(df["s_acctbal"].to_numpy(np.float64) * 100.0) \
            .astype(np.int64)
        r = (df.groupby("s_nationkey")["cents"]
             .rank(method="dense", ascending=False))
        return pa.Table.from_pandas(df[r <= max_rank], preserve_index=False)

    def final_rank(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        r = (g.groupby("s_nationkey")["cents"]
             .rank(method="dense", ascending=False))
        g["rnk"] = r.astype("int64")
        return g[g["rnk"] <= max_rank][
            ["s_nationkey", "s_suppkey", "s_acctbal", "rnk"]]

    pruned = ds.map_batches(local_prune, batch_format="pyarrow")
    out = _keyed_segments(pruned, "s_nationkey").map_groups(
        final_rank, batch_format="pandas").to_pandas()
    if out.empty:
        return pd.DataFrame({"s_nationkey": pd.Series(dtype="int32"),
                             "s_suppkey": pd.Series(dtype="int64"),
                             "s_acctbal": pd.Series(dtype="float64"),
                             "rnk": pd.Series(dtype="int64")})
    return (out.sort_values(["s_nationkey", "rnk", "s_suppkey"])
            .reset_index(drop=True)
            [["s_nationkey", "s_suppkey", "s_acctbal", "rnk"]])


def orders_price_deciles(sf_dir: str) -> pd.DataFrame:
    """Exact global deciles of order price WITHOUT a global sort: the
    distributed counting-histogram plan (doc_length_quantiles' shape on a
    money domain) — groupby exact cents (domain-bounded, not row-bounded),
    driver prefix-sums the tiny histogram and reads the value at position
    ceil(d*n/10) (percentile_disc semantics, integer arithmetic on both
    sides)."""
    from ..ops.agg import grouped_sums, round_away

    ds = rd.read_parquet(_t(sf_dir, "orders"), columns=["o_totalprice"])

    def to_cents(t: pa.Table) -> pa.Table:
        return pa.table({"cents": _scale_i64(t.column("o_totalprice"), 100.0)})

    hist = grouped_sums(ds.map_batches(to_cents, batch_format="pyarrow",
                                       zero_copy_batch=True),
                        keys=["cents"], sum_cols={}, count_alias="cnt")
    empty = pd.DataFrame({"decile": pd.Series(dtype="int64"),
                          "cents": pd.Series(dtype="int64"),
                          "price": pd.Series(dtype="float64")})
    if hist.empty:
        return empty
    hist = hist.sort_values("cents").reset_index(drop=True)
    vals = hist["cents"].to_numpy(np.int64)
    cum = hist["cnt"].to_numpy(np.int64).cumsum()
    n = int(cum[-1])
    deciles = np.arange(1, 10, dtype=np.int64)
    pos = (deciles * n + 9) // 10  # ceil(d*n/10), 1-indexed
    idx = np.searchsorted(cum, pos, side="left")
    cents = vals[idx]
    return pd.DataFrame({"decile": deciles,
                         "cents": cents,
                         "price": round_away(cents / 100.0, 2)})


def events_partition_pruned_counts(
        sf_dir: str,
        days: tuple = ("2024-01-05", "2024-01-06", "2024-01-07")) -> pd.DataFrame:
    """Partitioned-sink + partition-pruned-read surface: events are written
    ONCE as hive-partitioned parquet (one directory per day — the resumable
    layout every big sink here uses), and the query then reads ONLY the
    requested day directories (path-level pruning: zero IO against every
    other partition) before a tiny per-day aggregate. Oracle: the same
    filtered aggregate straight off the raw table — any partition-routing
    bug (row in the wrong day dir, dropped row, double write) breaks the
    count/sum compare."""
    import os

    from ..ops.agg import grouped_sums, round_away

    sf = os.path.basename(os.path.normpath(sf_dir)) or "sf"
    part_dir = f"/tmp/cuomr_part/events_daily_{sf}"
    marker = f"{part_dir}/_SUCCESS"
    if not os.path.exists(marker):
        ds = rd.read_parquet(_t(sf_dir, "events"), columns=["ts", "value"])

        def prep(t: pa.Table) -> pa.Table:
            return pa.table({
                "day": pc.strftime(t.column("ts"), format="%Y-%m-%d"),
                "cents": _scale_i64(t.column("value"), 100.0),
            })

        os.makedirs(part_dir, exist_ok=True)
        ds.map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True).write_parquet(
            part_dir, partition_cols=["day"])
        with open(marker, "w") as f:
            f.write("ok")

    sides = []
    for d in days:
        p = f"{part_dir}/day={d}"
        if not os.path.isdir(p):
            continue
        sub = rd.read_parquet(p)
        if "day" not in sub.schema().names:
            # hive layout stores the partition key in the path; Ray usually
            # re-infers it, but re-attach a literal if it didn't
            sub = sub.map_batches(
                lambda t, d=d: t.append_column(
                    "day", pa.array([d] * t.num_rows, pa.string())),
                batch_format="pyarrow")
        else:
            sub = sub.map_batches(
                lambda t: t.set_column(
                    t.schema.get_field_index("day"), "day",
                    t.column("day").cast(pa.string())),
                batch_format="pyarrow")
        sides.append(sub)
    empty = pd.DataFrame({"day": pd.Series(dtype="object"),
                          "n_events": pd.Series(dtype="int64"),
                          "sum_value": pd.Series(dtype="float64")})
    if not sides:
        return empty
    ds = sides[0]
    for s in sides[1:]:
        ds = ds.union(s)
    out = grouped_sums(ds, keys=["day"], sum_cols={"cents": "cents"},
                       count_alias="n_events")
    if out.empty:
        return empty
    out["sum_value"] = round_away(out["cents"].astype("int64") / 100.0, 2)
    out["n_events"] = out["n_events"].astype("int64")
    return (out.sort_values("day").reset_index(drop=True)
            [["day", "n_events", "sum_value"]])


def profile_orders(sf_dir: str) -> pd.DataFrame:
    """Data-profiling surface: per-column (n, n_null, n_distinct) over the
    orders table — the validation report a pipeline publishes before
    training on a new snapshot. One pruned read; null/row counts are
    per-batch int partials; each distinct count is the standard
    per-batch-distinct -> key groupby reduction (distinct values move once,
    never raw rows)."""
    from ..ops.agg import grouped_sums

    cols = ["o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice",
            "o_orderdate", "o_orderpriority"]
    ds = rd.read_parquet(_t(sf_dir, "orders"), columns=cols).materialize()

    def null_partials(t: pa.Table) -> pa.Table:
        return pa.table({
            "column": pa.array(cols, pa.string()),
            "n_part": pa.array([t.num_rows] * len(cols), pa.int64()),
            "null_part": pa.array(
                [t.column(c).null_count for c in cols], pa.int64()),
        })

    base = grouped_sums(ds.map_batches(null_partials, batch_format="pyarrow"),
                        keys=["column"],
                        sum_cols={"n": "n_part", "n_null": "null_part"})

    # all distinct counts in ONE pass: tag each column's per-batch distinct
    # values (stringified — Arrow's double/timestamp casts are injective
    # shortest-round-trip/ISO forms, so distinct-of-strings == distinct-of-
    # values), one global (column, value) distinct, tiny per-column rollup
    def tagged_distinct(t: pa.Table) -> pa.Table:
        parts = []
        for c in cols:
            col = t.column(c).drop_null()
            if pa.types.is_timestamp(col.type):
                vals = pc.strftime(col, format="%Y-%m-%d %H:%M:%S.%f")
            else:
                vals = col.cast(pa.string())
            d = pa.table({
                "column": pa.array([c] * len(vals), pa.string()),
                "value": vals,
            }).group_by(["column", "value"]).aggregate([])
            parts.append(d)
        return pa.concat_tables(parts)

    pre = ds.map_batches(tagged_distinct, batch_format="pyarrow")
    dist_pairs = pre.groupby(["column", "value"]).count()
    n_distinct = grouped_sums(
        dist_pairs.map_batches(lambda t: t.select(["column"]),
                               batch_format="pyarrow"),
        keys=["column"], sum_cols={}, count_alias="n_distinct")

    # reindex (not .loc) so an empty corpus still yields one all-zero row
    # per profiled column instead of a KeyError
    out = (base.set_index("column").reindex(cols, fill_value=0)
           .reset_index())
    nd = n_distinct.set_index("column")["n_distinct"]
    out["n_distinct"] = pd.Series([int(nd.get(c, 0)) for c in cols],
                                  dtype="int64")
    out = out.astype({"n": "int64", "n_null": "int64"})
    return out[["column", "n", "n_null", "n_distinct"]] \
        .sort_values("column").reset_index(drop=True)


def incremental_user_event_state(sf_dir: str,
                                 cutoff: str = "2024-01-15") -> pd.DataFrame:
    """Incremental aggregation via mergeable PERSISTED state, DuckDB-oracled
    against a full recompute: the prior partition's per-user aggregate
    state (n, exact cents sum) is written to parquet, read back, and merged
    with the delta partition's partials through the same combiner — the
    state-roundtrip contract every incremental 100-TB pipeline relies on
    (yesterday's aggregate + today's delta == full rebuild, bit-exact
    because the state is associative integer sums, never floats).
    """
    import shutil
    import tempfile

    from ..ops.agg import grouped_sums, grouped_sums_ds

    lo = pa.scalar(np.datetime64(f"{cutoff}T00:00:00", "us"))
    ds = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["user_id", "ts", "value"])

    def prep(t: pa.Table, before: bool) -> pa.Table:
        m = pc.less(t.column("ts"), lo) if before else \
            pc.greater_equal(t.column("ts"), lo)
        t = t.filter(m)
        cents = pc.cast(pc.round(pc.multiply(t.column("value"),
                                             pa.scalar(100.0))), pa.int64())
        one = pa.table({"user_id": t.column("user_id"), "cents": cents})
        agg = one.group_by(["user_id"]).aggregate(
            [("cents", "sum"), ([], "count_all")])
        return agg.rename_columns(["user_id", "cents_part", "n_part"])

    prior = ds.map_batches(lambda t: prep(t, True), batch_format="pyarrow",
                           zero_copy_batch=True)
    delta = ds.map_batches(lambda t: prep(t, False), batch_format="pyarrow",
                           zero_copy_batch=True)
    state = grouped_sums_ds(prior, keys=["user_id"],
                            sum_cols={"cents_part": "cents_part",
                                      "n_part": "n_part"})
    tmp = tempfile.mkdtemp(prefix="graft_incr_state_")
    try:
        state.write_parquet(tmp)
        merged = grouped_sums(
            rd.read_parquet(tmp).union(delta), keys=["user_id"],
            sum_cols={"n_events": "n_part", "sum_value_cents": "cents_part"})
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    merged = merged.astype({"user_id": "int64", "n_events": "int64",
                            "sum_value_cents": "int64"})
    return (merged.sort_values("user_id").reset_index(drop=True)
            [["user_id", "n_events", "sum_value_cents"]])


# Fixed event-type vocabulary of the test generator (shared with the pivot
# oracle SQL so the two column lists can never drift).
EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


def returnflag_price_regression(sf_dir: str) -> pd.DataFrame:
    """Grouped simple OLS (price-on-quantity per return flag) from EXACT
    integer sufficient statistics — the regression member of the one-pass
    distributed-statistics family next to grouped_corr: the exchange
    carries (n, Σx, Σy, Σx², Σxy) per (flag, block), all associative int64
    sums (quantity integral, price exact at x100), and the driver derives
    slope/intercept in ONE pinned IEEE expression identical to the DuckDB
    twin (Σxy ≤ 5e8/row keeps products < 2^53 far past bench scales; the
    10^12-row form swaps the accumulators to int128/hugeint)."""
    from ..ops.agg import grouped_sums, round_away

    ds = rd.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_returnflag", "l_quantity", "l_extendedprice"])

    def moments(t: pa.Table) -> pa.Table:
        x = _scale_i64(t.column("l_quantity"), 1.0)
        y = _scale_i64(t.column("l_extendedprice"), 100.0)
        xn = x.to_numpy(zero_copy_only=False)
        yn = y.to_numpy(zero_copy_only=False)
        return pa.table({"l_returnflag": t.column("l_returnflag"),
                         "x": x, "y": y,
                         "xx": pa.array(xn * xn, pa.int64()),
                         "xy": pa.array(xn * yn, pa.int64())})

    parts = ds.map_batches(moments, batch_format="pyarrow",
                           zero_copy_batch=True)
    out = grouped_sums(parts, keys=["l_returnflag"],
                       sum_cols={"sum_x": "x", "sum_y": "y",
                                 "sum_xx": "xx", "sum_xy": "xy"},
                       count_alias="n")
    cols = ["n", "sum_x", "sum_y", "sum_xx", "sum_xy"]
    if out.empty:
        return pd.DataFrame(
            {"l_returnflag": pd.Series(dtype="object")}
            | {c: pd.Series(dtype="int64") for c in cols}
            | {"slope_nano": pd.Series(dtype="int64"),
               "intercept_micro": pd.Series(dtype="int64")})
    out = out.astype({c: "int64" for c in cols})
    # pinned IEEE expression order — identical to the SQL twin
    n = out["n"].to_numpy(np.float64)
    sx = out["sum_x"].to_numpy(np.float64)
    sy = out["sum_y"].to_numpy(np.float64)
    sxx = out["sum_xx"].to_numpy(np.float64)
    sxy = out["sum_xy"].to_numpy(np.float64)
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    out["slope_nano"] = round_away(
        slope * 1000000000.0, 0).astype("int64")
    # intercept quantizes at MICRO, not nano: intercepts are O(mean cents)
    # ~ 5e6, and x1e9 would land past 2^52 where ULP(double) = 1 and the
    # half-away +0.5 rounding trick itself goes inexact (measured: a 1-ulp
    # split vs DuckDB's integer-identity round at 5.29e15)
    out["intercept_micro"] = round_away(
        (sy - slope * sx) / n * 1000000.0, 0).astype("int64")
    out = out.sort_values("l_returnflag").reset_index(drop=True)
    return out[["l_returnflag"] + cols + ["slope_nano", "intercept_micro"]]


def event_type_pivot(sf_dir: str) -> pd.DataFrame:
    """Wide pivot (long → one column per category): daily event counts with
    one int64 column per event type plus the row total. The distributed
    pivot is MAP-SIDE — each batch casts the type column to indicator ints
    against the fixed EVENT_TYPES vocabulary, so the exchange carries one
    partial row per (day, block) and no (day, type) long table ever forms;
    the day-keyed groupby that finishes the sums is the only shuffle.
    Oracle: conditional count(*) FILTER per type, generated from the SAME
    EVENT_TYPES constant so the column lists cannot drift."""
    from ..ops.agg import grouped_sums

    ds = rd.read_parquet(_t(sf_dir, "events"), columns=["ts", "event_type"])

    def prep(t: pa.Table) -> pa.Table:
        et = t.column("event_type")
        cols = {"day": pc.strftime(t.column("ts"), format="%Y-%m-%d")}
        for name in EVENT_TYPES:
            cols[f"n_{name}"] = pc.cast(
                pc.equal(et, pa.scalar(name)), pa.int64())
        return pa.table(cols)

    parts = ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    sum_cols = {f"n_{name}": f"n_{name}" for name in EVENT_TYPES}
    out = grouped_sums(parts, keys=["day"], sum_cols=sum_cols,
                       count_alias="n_total")
    want = list(sum_cols) + ["n_total"]
    if out.empty:
        return pd.DataFrame({"day": pd.Series(dtype="object")}
                            | {c: pd.Series(dtype="int64") for c in want})
    out = out.astype({c: "int64" for c in want})
    return (out.sort_values("day").reset_index(drop=True)
            [["day"] + want])


def user_value_range_window(sf_dir: str, minutes: int = 10,
                            k: int = 50) -> pd.DataFrame:
    """RANGE-frame window aggregate (SQL: ``sum() OVER (PARTITION BY user
    ORDER BY ts RANGE BETWEEN INTERVAL m MINUTES PRECEDING AND CURRENT
    ROW)``) — the value-bounded-frame member of the window family next to
    the ROWS-frame (user_value_moving_sum), lag/lead, cumulative and rank
    queries. RANGE semantics differ from ROWS at timestamp TIES: every
    peer row with the same ts is inside every peer's frame regardless of
    row order, which the plan reproduces exactly.

    Scale shape: users hash-bucketed into complete-key co-groups; inside a
    bucket ONE pair of np.searchsorted calls over (user-rank·span +
    ts-offset) composite keys answers every row's [ts-m, ts] window (same
    provably-user-local key construction as click_purchase_within_hour —
    the span margin stops forward bleed, the per-user base clamp stops
    backward), prefix sums turn the bounds into exact integer-cent frame
    sums, local top-k per bucket, tiny driver merge."""
    from ..ops.agg import round_away

    win_us = int(minutes) * 60_000_000

    ds = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["event_id", "user_id", "ts", "value"])
    empty = pd.DataFrame({"event_id": pd.Series(dtype="int64"),
                          "user_id": pd.Series(dtype="int64"),
                          "window_cents": pd.Series(dtype="int64")})

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return empty
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        uid = g["user_id"].to_numpy(np.int64)
        eid = g["event_id"].to_numpy(np.int64)
        cents = round_away(g["value"].to_numpy(np.float64) * 100.0,
                           0).astype(np.int64)
        t = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        toff = t - t.min()
        span = int(toff.max()) + win_us + 1
        urank = (np.cumsum(np.r_[True, uid[1:] != uid[:-1]]) - 1) \
            .astype(np.int64)
        assert (urank[-1] + 1) < (2 ** 62) // span, "bucket key overflow"
        base = urank * span
        key = base + toff
        lo = np.searchsorted(key, np.maximum(key - win_us, base), side="left")
        hi = np.searchsorted(key, key, side="right")  # includes ts ties
        cs = np.concatenate([[0], np.cumsum(cents)])
        w = cs[hi] - cs[lo]
        out = pd.DataFrame({"event_id": eid, "user_id": uid,
                            "window_cents": w})
        return out.sort_values(["window_cents", "event_id"],
                               ascending=[False, True]).head(k)

    res = _keyed_segments(ds, "user_id").map_groups(
        per_bucket, batch_format="pandas").to_pandas()
    if res.empty:
        return empty
    res = res.astype({"event_id": "int64", "user_id": "int64",
                      "window_cents": "int64"})
    return (res.sort_values(["window_cents", "event_id"],
                            ascending=[False, True]).head(k)
            [["event_id", "user_id", "window_cents"]].reset_index(drop=True))


def priority_median_price(sf_dir: str) -> pd.DataFrame:
    """Exact per-group median (percentile_cont twin) WITHOUT a global sort:
    the counting-histogram plan of orders_price_deciles, grouped — the
    exchange carries (priority, cents) counts, whose cardinality is bounded
    by the PRICE DOMAIN × group count, not by the row count, so the driver
    prefix-sum stays tiny at any row scale. The interpolated median is kept
    exact-integer as ``median_x2_cents`` = lower-middle + upper-middle
    (equal when n is odd) — twice DuckDB's percentile_cont(0.5), which is
    exactly representable, so the compare is integer-exact."""
    from ..ops.agg import grouped_sums

    ds = rd.read_parquet(_t(sf_dir, "orders"),
                         columns=["o_orderpriority", "o_totalprice"])

    def to_cents(t: pa.Table) -> pa.Table:
        return pa.table({"o_orderpriority": t.column("o_orderpriority"),
                         "cents": _scale_i64(t.column("o_totalprice"), 100.0)})

    hist = grouped_sums(ds.map_batches(to_cents, batch_format="pyarrow",
                                       zero_copy_batch=True),
                        keys=["o_orderpriority", "cents"], sum_cols={},
                        count_alias="cnt")
    empty = pd.DataFrame({"o_orderpriority": pd.Series(dtype="object"),
                          "n": pd.Series(dtype="int64"),
                          "median_x2_cents": pd.Series(dtype="int64")})
    if hist.empty:
        return empty
    hist = hist.sort_values(["o_orderpriority", "cents"]).reset_index(drop=True)
    rows = []
    for prio, g in hist.groupby("o_orderpriority", sort=True):
        vals = g["cents"].to_numpy(np.int64)
        cum = g["cnt"].to_numpy(np.int64).cumsum()
        n = int(cum[-1])
        # 1-indexed middle positions: (n+1)//2 and n//2 + 1
        lo_v = vals[np.searchsorted(cum, (n + 1) // 2, side="left")]
        hi_v = vals[np.searchsorted(cum, n // 2 + 1, side="left")]
        rows.append((prio, n, int(lo_v + hi_v)))
    return pd.DataFrame(rows, columns=["o_orderpriority", "n",
                                       "median_x2_cents"]) \
        .astype({"n": "int64", "median_x2_cents": "int64"})


def most_common_event_per_user(sf_dir: str, k: int = 50) -> pd.DataFrame:
    """Grouped MODE (argmax-by-count): each user's most frequent event type,
    ties to the lexicographically smallest type — the count-argmax member of
    the argmax family next to latest_event_per_user (argmax-by-timestamp).
    Per-batch (user, type) partial counts shrink the exchange to distinct
    pairs per block; user co-groups then hold COMPLETE per-user counts, so
    one vectorized sort + drop_duplicates picks every user's mode, local
    top-k per bucket, tiny driver merge. Oracle: row_number() OVER
    (PARTITION BY user ORDER BY n DESC, type) = 1."""
    ds = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["user_id", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        agg = t.group_by(["user_id", "event_type"]).aggregate(
            [([], "count_all")])
        return agg.rename_columns(["user_id", "event_type", "c_part"])

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)
    empty = pd.DataFrame({"user_id": pd.Series(dtype="int64"),
                          "mode_type": pd.Series(dtype="object"),
                          "n_mode": pd.Series(dtype="int64")})

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return empty
        c = (g.groupby(["user_id", "event_type"], as_index=False)
             .agg(n_mode=("c_part", "sum")))
        c = c.sort_values(["user_id", "n_mode", "event_type"],
                          ascending=[True, False, True], kind="mergesort")
        c = c.drop_duplicates("user_id", keep="first")
        c = c.rename(columns={"event_type": "mode_type"})
        c = c.sort_values(["n_mode", "user_id"], ascending=[False, True])
        return c[["user_id", "mode_type", "n_mode"]].head(k)

    res = _keyed_segments(parts, "user_id").map_groups(
        per_bucket, batch_format="pandas").to_pandas()
    if res.empty:
        return empty
    res = res.astype({"user_id": "int64", "n_mode": "int64"})
    return (res.sort_values(["n_mode", "user_id"],
                            ascending=[False, True]).head(k)
            [["user_id", "mode_type", "n_mode"]].reset_index(drop=True))


def welch_ttest_click_purchase(sf_dir: str) -> pd.DataFrame:
    """Two-sample Welch t-test (unequal variances) on event value between
    click and purchase events — the hypothesis-testing member of the
    sufficient-statistics family next to corr/OLS: the exchange carries
    (n, Σc, Σc²) per (type, block) as exact int64 sums, and the driver
    derives t and the Welch–Satterthwaite df in ONE pinned IEEE expression
    tree identical to the DuckDB twin. df quantizes at MICRO (df is O(n);
    x1e9 would pass 2^52 where half-away rounding goes 1-ulp inexact —
    the returnflag_price_regression lesson)."""
    import math

    from ..ops.agg import grouped_sums, round_away

    ds = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["event_type", "value"])

    def prep(t: pa.Table) -> pa.Table:
        m = pc.is_in(t.column("event_type"),
                     value_set=pa.array(["click", "purchase"]))
        f = t.filter(m)
        c = _scale_i64(f.column("value"), 100.0)
        cn = c.to_numpy(zero_copy_only=False)
        return pa.table({"event_type": f.column("event_type"), "c": c,
                         "cc": pa.array(cn * cn, pa.int64())})

    stats = grouped_sums(ds.map_batches(prep, batch_format="pyarrow",
                                        zero_copy_batch=True),
                         keys=["event_type"],
                         sum_cols={"s": "c", "ss": "cc"}, count_alias="n")
    cols = ["n_click", "n_purchase", "sum_click", "sum_purchase",
            "ss_click", "ss_purchase"]
    empty = pd.DataFrame({c: pd.Series(dtype="int64") for c in cols}
                         | {"t_nano": pd.Series(dtype="int64"),
                            "df_micro": pd.Series(dtype="int64")})
    by = {r.event_type: r for r in stats.itertuples()}
    if "click" not in by or "purchase" not in by:
        return empty

    def moments(r):
        n, s, ss = float(r.n), float(r.s), float(r.ss)
        var = (ss - s * s / n) / (n - 1.0)
        return n, s, ss, var / n

    n1, s1, ss1, v1 = moments(by["click"])
    n2, s2, ss2, v2 = moments(by["purchase"])
    # pinned IEEE expression order — identical to the SQL twin
    t_stat = (s1 / n1 - s2 / n2) / math.sqrt(v1 + v2)
    df = (v1 + v2) * (v1 + v2) / (v1 * v1 / (n1 - 1.0)
                                  + v2 * v2 / (n2 - 1.0))
    return pd.DataFrame({
        "n_click": pd.array([int(n1)], dtype="int64"),
        "n_purchase": pd.array([int(n2)], dtype="int64"),
        "sum_click": pd.array([int(s1)], dtype="int64"),
        "sum_purchase": pd.array([int(s2)], dtype="int64"),
        "ss_click": pd.array([int(ss1)], dtype="int64"),
        "ss_purchase": pd.array([int(ss2)], dtype="int64"),
        "t_nano": pd.array([int(round_away(
            np.array([t_stat * 1000000000.0]), 0)[0])], dtype="int64"),
        "df_micro": pd.array([int(round_away(
            np.array([df * 1000000.0]), 0)[0])], dtype="int64")})


def user_spend_quartiles(sf_dir: str, k_tiles: int = 4) -> pd.DataFrame:
    """ntile() window twin: users ranked by (total event cents, user_id)
    and split into k tiles with SQL's remainder rule (the first n MOD k
    tiles take the extra row), then a per-tile rollup — completes the
    rank-window family (row_number / dense_rank / ntile).

    NO per-row rank ever materializes: within one cents value the
    user_id tie-break only permutes users who contribute the SAME value,
    so every tile statistic (count, sum, min, max) is a pure function of
    the CENTS HISTOGRAM — per-user totals stay a Dataset, the histogram
    exchange is money-domain-bounded (the decile plan), and the driver
    intersects each value's rank interval with the tile boundaries."""
    from ..ops.agg import grouped_sums, grouped_sums_ds

    ds = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["user_id", "value"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"user_id": t.column("user_id"),
                         "c": _scale_i64(t.column("value"), 100.0)})

    totals = grouped_sums_ds(ds.map_batches(prep, batch_format="pyarrow",
                                            zero_copy_batch=True),
                             keys=["user_id"], sum_cols={"cents": "c"})
    hist = grouped_sums(totals.map_batches(
        lambda t: t.select(["cents"]), batch_format="pyarrow"),
        keys=["cents"], sum_cols={}, count_alias="cnt")
    empty = pd.DataFrame({"tile": pd.Series(dtype="int64"),
                          "n_users": pd.Series(dtype="int64"),
                          "sum_cents": pd.Series(dtype="int64"),
                          "min_cents": pd.Series(dtype="int64"),
                          "max_cents": pd.Series(dtype="int64")})
    if hist.empty:
        return empty
    hist = hist.sort_values("cents").reset_index(drop=True)
    vals = hist["cents"].to_numpy(np.int64)
    cnt = hist["cnt"].to_numpy(np.int64)
    cum = cnt.cumsum()
    n = int(cum[-1])
    size, rem = divmod(n, k_tiles)
    rows = []
    lo = 0  # ranks covered so far
    for t in range(1, k_tiles + 1):
        width = size + 1 if t <= rem else size
        hi = lo + width
        if width == 0:
            continue
        # overlap of each value's rank interval (cum-cnt, cum] with (lo, hi]
        ov = np.minimum(cum, hi) - np.maximum(cum - cnt, lo)
        ov = np.maximum(ov, 0)
        rows.append((t, int(ov.sum()), int((vals * ov).sum()),
                     int(vals[np.searchsorted(cum, lo + 1)]),
                     int(vals[np.searchsorted(cum, hi)])))
        lo = hi
    return pd.DataFrame(rows, columns=["tile", "n_users", "sum_cents",
                                       "min_cents", "max_cents"]) \
        .astype({c: "int64" for c in ["tile", "n_users", "sum_cents",
                                      "min_cents", "max_cents"]})


def user_daily_interpolation(sf_dir: str, k: int = 50) -> pd.DataFrame:
    """Time-series gap-fill with LINEAR INTERPOLATION (the non-trivial
    sibling of the zero-fill dimension grid): each user's daily spend
    series over [first, last] observed day, missing days interpolated
    between the nearest observed neighbours, reported as a per-user rollup
    (n_days, n_obs, n_interp, Σ interpolated micro-cents). Interpolated
    values quantize per-day at micro in ONE pinned expression —
    ``prev*1e6 + round((next-prev)*(d-dp)/(dn-dp)*1e6)`` — so the per-user
    sum is an exact integer on both sides regardless of association order.

    Scale shape: per-batch (user, day) partial sums shrink the exchange to
    distinct pairs per block; user co-groups then hold complete series, and
    ONE vectorized pass per bucket builds every user's day grid (composite
    user-rank·span + day keys make a single searchsorted find each grid
    day's observed neighbours — grids never leave [d0, d1], so neighbours
    are provably same-user). Oracle: generate_series day grid + IGNORE
    NULLS window neighbours."""
    from ..ops.agg import round_away

    ds = rd.read_parquet(_t(sf_dir, "events"), columns=["user_id", "ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        x = pa.table({
            "user_id": t.column("user_id"),
            "day": pc.cast(pc.cast(t.column("ts"), pa.date32()), pa.int32()),
            "c": _scale_i64(t.column("value"), 100.0)})
        agg = x.group_by(["user_id", "day"]).aggregate([("c", "sum")])
        return agg.rename_columns(["user_id", "day", "c_part"])

    parts = ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    empty = pd.DataFrame({"user_id": pd.Series(dtype="int64"),
                          "n_days": pd.Series(dtype="int64"),
                          "n_obs": pd.Series(dtype="int64"),
                          "n_interp": pd.Series(dtype="int64"),
                          "sum_interp_microcents": pd.Series(dtype="int64")})

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return empty
        obs = (g.groupby(["user_id", "day"], as_index=False)
               .agg(c=("c_part", "sum"))
               .sort_values(["user_id", "day"], kind="mergesort"))
        uid = obs["user_id"].to_numpy(np.int64)
        day = obs["day"].to_numpy(np.int64)
        cents = obs["c"].to_numpy(np.int64)
        new_seg = np.r_[True, uid[1:] != uid[:-1]]
        seg_start = np.flatnonzero(new_seg)
        seg_end = np.r_[seg_start[1:], len(uid)] - 1
        d0, d1 = day[seg_start], day[seg_end]
        lens = d1 - d0 + 1
        total = int(lens.sum())
        # grid: for each user, every day in [d0, d1]
        cum = np.concatenate(([0], np.cumsum(lens)[:-1]))
        gi = np.arange(total, dtype=np.int64)
        seg_of = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        gday = gi - cum[seg_of] + d0[seg_of]
        # composite keys: same-user locality is guaranteed because each
        # user's grid stays inside its own [d0, d1]
        span = int(day.max() - day.min()) + 2
        urank = (np.cumsum(new_seg) - 1).astype(np.int64)
        assert (int(urank[-1]) + 1) < (2 ** 62) // span, "key overflow"
        okey = urank * span + (day - day.min())
        gkey = seg_of * span + (gday - day.min())
        nxt = np.searchsorted(okey, gkey, side="left")
        prv = np.searchsorted(okey, gkey, side="right") - 1
        is_obs = okey[nxt] == gkey
        miss = ~is_obs
        dp, dn = day[prv[miss]], day[nxt[miss]]
        cp, cn = cents[prv[miss]], cents[nxt[miss]]
        gd = gday[miss]
        micro = cp * 1000000 + round_away(
            (cn - cp) * (gd - dp) / (dn - dp) * 1000000.0, 0).astype(np.int64)
        sums = np.zeros(len(lens), dtype=np.int64)
        np.add.at(sums, seg_of[miss], micro)
        n_interp = np.bincount(seg_of[miss], minlength=len(lens)) \
            .astype(np.int64)
        out = pd.DataFrame({"user_id": uid[seg_start],
                            "n_days": lens.astype(np.int64),
                            "n_obs": (seg_end - seg_start + 1)
                            .astype(np.int64),
                            "n_interp": n_interp,
                            "sum_interp_microcents": sums})
        return out.sort_values(["n_interp", "user_id"],
                               ascending=[False, True]).head(k)

    res = _keyed_segments(parts, "user_id").map_groups(
        per_bucket, batch_format="pandas").to_pandas()
    if res.empty:
        return empty
    res = res.astype({c: "int64" for c in res.columns})
    return (res.sort_values(["n_interp", "user_id"],
                            ascending=[False, True]).head(k)
            [["user_id", "n_days", "n_obs", "n_interp",
              "sum_interp_microcents"]].reset_index(drop=True))


def chi2_event_hour(sf_dir: str) -> pd.DataFrame:
    """Chi-square test of independence between event_type and hour-of-day —
    the contingency-table member of the sufficient-statistics family. The
    exchange carries one exact int64 count per observed (type, hour) cell;
    the driver completes the grid (observed-types × observed-hours, zero
    cells included: they contribute their full expectation) and quantizes
    EACH cell's contribution at micro in one pinned IEEE expression —
    ``(o - e) * (o - e) / e * 1e6`` with ``e = r * cl / n`` — so the chi2
    total is an exact integer sum on both sides regardless of cell order.
    chi2 is O(n): quantizing the TOTAL at micro would pass 2^52 at ~1e9
    events (the df_micro lesson); per-cell quantization keeps every rounded
    term small."""
    ds = rd.read_parquet(_t(sf_dir, "events"), columns=["event_type", "ts"])

    def prep(t: pa.Table) -> pa.Table:
        hr = pc.hour(t.column("ts")).cast(pa.int64())
        return pa.table({"event_type": t.column("event_type"), "hr": hr})

    cells = grouped_sums(ds.map_batches(prep, batch_format="pyarrow",
                                        zero_copy_batch=True),
                         keys=["event_type", "hr"], sum_cols={},
                         count_alias="o")
    cols = ["n_events", "n_types", "n_hours", "df", "chi2_micro"]
    if cells.empty:
        return pd.DataFrame({c: pd.Series(dtype="int64") for c in cols})
    # complete the grid: zero cells contribute (0-e)^2/e = e
    grid = (cells.set_index(["event_type", "hr"])["o"]
            .unstack(fill_value=0))
    o = grid.to_numpy(np.int64).astype(np.float64)
    r = o.sum(axis=1, keepdims=True)  # row totals (per type)
    cl = o.sum(axis=0, keepdims=True)  # column totals (per hour)
    n = float(o.sum())
    e = r * cl / n
    chi = round_away((o - e) * (o - e) / e * 1000000.0, 0).astype(np.int64)
    return pd.DataFrame({
        "n_events": pd.array([int(n)], dtype="int64"),
        "n_types": pd.array([o.shape[0]], dtype="int64"),
        "n_hours": pd.array([o.shape[1]], dtype="int64"),
        "df": pd.array([(o.shape[0] - 1) * (o.shape[1] - 1)], dtype="int64"),
        "chi2_micro": pd.array([int(chi.sum())], dtype="int64")})


def event_type_transitions(sf_dir: str) -> pd.DataFrame:
    """First-order Markov transition matrix over each user's event stream:
    count consecutive (prev_type, next_type) pairs in (ts, event_id) order
    per user, then row-normalize to transition probabilities (micro).

    Scale shape: user co-groups ( ``_keyed_segments`` buckets) sessionize
    the lead() in ONE vectorized pass per bucket — pairs never cross users
    because the shifted comparison masks user boundaries — and each bucket
    emits only its local (prev, next) partial counts (≤ |types|² rows), so
    the global exchange is the tiny transition matrix, not the pair stream.
    Oracle: SQL window lead() partitioned by user."""
    ds = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["user_id", "ts", "event_id", "event_type"])
    empty = pd.DataFrame({"prev_type": pd.Series(dtype=str),
                          "next_type": pd.Series(dtype=str)}
                         | {c: pd.Series(dtype="int64")
                            for c in ["n_pairs", "p_micro"]})

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) < 2:
            return empty[["prev_type", "next_type", "n_pairs"]]
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        uid = g["user_id"].to_numpy()
        et = g["event_type"].to_numpy()
        same = uid[1:] == uid[:-1]
        p = pd.DataFrame({"prev_type": et[:-1][same],
                          "next_type": et[1:][same]})
        out = (p.groupby(["prev_type", "next_type"], as_index=False)
               .size().rename(columns={"size": "n_pairs"}))
        out["n_pairs"] = out["n_pairs"].astype("int64")
        return out

    parts = _keyed_segments(ds, "user_id").map_groups(
        per_bucket, batch_format="pandas").to_pandas()
    if parts.empty:
        return empty
    mat = (parts.groupby(["prev_type", "next_type"], as_index=False)
           .agg(n_pairs=("n_pairs", "sum")))
    tot = mat.groupby("prev_type")["n_pairs"].transform("sum")
    mat["p_micro"] = round_away(
        mat["n_pairs"].to_numpy(np.float64) / tot.to_numpy(np.float64)
        * 1000000.0, 0).astype(np.int64)
    mat = mat.astype({"n_pairs": "int64", "p_micro": "int64"})
    return (mat.sort_values(["prev_type", "next_type"])
            .reset_index(drop=True))


def user_decayed_spend(sf_dir: str, k: int = 50) -> pd.DataFrame:
    """Exponentially-decayed user spend with a DYADIC decay (α = 1/2 per
    day): decayed = Σ_d cents_d · 0.5^(last_day − d) over each user's
    observed days. 0.5^k is an exact power of two and cents·1e6 < 2^53, so
    every per-day term ``c · pow(0.5, k) · 1e6`` is EXACT in IEEE double on
    both engines (verified: DuckDB power() and numpy agree bit-for-bit on
    0.5^0..63) — the decay weighting needs no epsilon tolerance at all.
    Terms quantize at micro and integer-sum per user.

    Scale shape: per-batch (user, day) partials shrink the exchange to
    distinct pairs; user co-groups compute max-day + weighted sum in one
    segment pass per bucket and emit local top-k only."""
    ds = rd.read_parquet(_t(sf_dir, "events"), columns=["user_id", "ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        x = pa.table({
            "user_id": t.column("user_id"),
            "day": pc.cast(pc.cast(t.column("ts"), pa.date32()), pa.int32()),
            "c": _scale_i64(t.column("value"), 100.0)})
        agg = x.group_by(["user_id", "day"]).aggregate([("c", "sum")])
        return agg.rename_columns(["user_id", "day", "c_part"])

    parts = ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    cols = ["user_id", "decayed_microcents", "n_days_obs"]
    empty = pd.DataFrame({c: pd.Series(dtype="int64") for c in cols})

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return empty
        obs = (g.groupby(["user_id", "day"], as_index=False)
               .agg(c=("c_part", "sum"))
               .sort_values(["user_id", "day"], kind="mergesort"))
        uid = obs["user_id"].to_numpy(np.int64)
        day = obs["day"].to_numpy(np.int64)
        cents = obs["c"].to_numpy(np.int64)
        new_seg = np.r_[True, uid[1:] != uid[:-1]]
        seg_of = np.cumsum(new_seg) - 1
        seg_start = np.flatnonzero(new_seg)
        seg_end = np.r_[seg_start[1:], len(uid)] - 1
        kdecay = (day[seg_end[seg_of]] - day).astype(np.float64)
        term = round_away(cents.astype(np.float64) * np.power(0.5, kdecay)
                          * 1000000.0, 0).astype(np.int64)
        sums = np.zeros(len(seg_start), dtype=np.int64)
        np.add.at(sums, seg_of, term)
        out = pd.DataFrame({"user_id": uid[seg_start],
                            "decayed_microcents": sums,
                            "n_days_obs": (seg_end - seg_start + 1)
                            .astype(np.int64)})
        return out.sort_values(["decayed_microcents", "user_id"],
                               ascending=[False, True]).head(k)

    res = _keyed_segments(parts, "user_id").map_groups(
        per_bucket, batch_format="pandas").to_pandas()
    if res.empty:
        return empty
    res = res.astype({c: "int64" for c in cols})
    return (res.sort_values(["decayed_microcents", "user_id"],
                            ascending=[False, True]).head(k)
            [cols].reset_index(drop=True))


def session_dwell_stats(sf_dir: str, gap_minutes: int = 30) -> pd.DataFrame:
    """Sessionized dwell/bounce rollup by LANDING event type: 30-min-gap
    sessions per user (ts, event_id order), each session keyed by its first
    event's type; per landing type report session count, bounce count
    (single-event sessions) and total dwell (last−first ts, µs) — the
    attribution-flavoured sibling of ``event_sessions`` whose oracle pins
    the full lag→cumsum→row_number SQL sessionization chain.

    Scale shape: the bucket pass emits one partial row per landing type per
    bucket (≤ |types| · buckets rows), never per-session rows."""
    gap_us = gap_minutes * 60 * 1_000_000
    ds = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["user_id", "ts", "event_id", "event_type"])
    empty = pd.DataFrame({"landing_type": pd.Series(dtype=str)}
                         | {c: pd.Series(dtype="int64")
                            for c in ["n_sessions", "n_bounces",
                                      "sum_dwell_us"]})

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return empty
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        uid = g["user_id"].to_numpy()
        t = g["ts"].to_numpy().astype("int64")
        et = g["event_type"].to_numpy()
        boundary = np.r_[True, (uid[1:] != uid[:-1]) | (np.diff(t) > gap_us)]
        starts = np.flatnonzero(boundary)
        ends = np.r_[starts[1:], len(t)] - 1
        s = pd.DataFrame({"landing_type": et[starts],
                          "one": np.ones(len(starts), dtype=np.int64),
                          "bounce": (ends == starts).astype(np.int64),
                          "dwell": t[ends] - t[starts]})
        return (s.groupby("landing_type", as_index=False)
                .agg(n_sessions=("one", "sum"), n_bounces=("bounce", "sum"),
                     sum_dwell_us=("dwell", "sum")))

    parts = _keyed_segments(ds, "user_id").map_groups(
        per_bucket, batch_format="pandas").to_pandas()
    if parts.empty:
        return empty
    out = (parts.groupby("landing_type", as_index=False)
           .agg(n_sessions=("n_sessions", "sum"),
                n_bounces=("n_bounces", "sum"),
                sum_dwell_us=("sum_dwell_us", "sum")))
    out = out.astype({c: "int64" for c in ["n_sessions", "n_bounces",
                                           "sum_dwell_us"]})
    return out.sort_values("landing_type").reset_index(drop=True)


def mannwhitney_auc_click_purchase(sf_dir: str) -> pd.DataFrame:
    """Exact Mann-Whitney U / AUC between click and purchase event values —
    the rank-based nonparametric member of the stats family, computed with
    NO global sort: the exchange is the per-cents counting histogram (one
    int64 (click, purchase) count pair per distinct cents value, domain-
    bounded), and the driver evaluates the tie-corrected statistic as pure
    integers: ``2U = sum_v b_v * (2*A_less(v) + a_v)`` (each purchase row
    beats every strictly-smaller click and half-ties every equal click).
    AUC = U / (n_a * n_b), quantized at nano in one pinned expression.

    The SQL twin is a genuinely independent formulation — per-row average
    ranks via ``2*rank() + tie_count - 1`` and ``2U = 2R_b - n_b(n_b+1)``;
    the integer identity between the two is exact, so the compare has zero
    float tolerance on U itself."""
    ds = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["event_type", "value"])

    def prep(t: pa.Table) -> pa.Table:
        f = t.filter(pc.is_in(t.column("event_type"),
                              value_set=pa.array(["click", "purchase"])))
        isa = pc.cast(pc.equal(f.column("event_type"), "click"), pa.int64())
        return pa.table({"cents": _scale_i64(f.column("value"), 100.0),
                         "a": isa,
                         "b": pc.subtract(pa.scalar(1, pa.int64()), isa)})

    hist = grouped_sums(ds.map_batches(prep, batch_format="pyarrow",
                                       zero_copy_batch=True),
                        keys=["cents"], sum_cols={"a": "a", "b": "b"})
    cols = ["n_click", "n_purchase", "u2_purchase", "auc_nano"]
    empty = pd.DataFrame({c: pd.Series(dtype="int64") for c in cols})
    if hist.empty:
        return empty
    hist = hist.sort_values("cents").reset_index(drop=True)
    a = hist["a"].to_numpy(np.int64)
    b = hist["b"].to_numpy(np.int64)
    n_a, n_b = int(a.sum()), int(b.sum())
    if n_a == 0 or n_b == 0:
        return empty
    a_less = np.cumsum(a) - a
    # object (Python-int) arithmetic BEFORE the multiply: the per-value
    # product b_v * 2*A_less is O(n^2) and wraps int64 past ~3e9/side
    u2 = int((b.astype(object)
              * (2 * a_less.astype(object) + a.astype(object))).sum())
    auc_nano = int(round_away(
        np.float64(u2) / (2.0 * n_a * n_b) * 1000000000.0, 0))
    return pd.DataFrame({"n_click": pd.array([n_a], dtype="int64"),
                         "n_purchase": pd.array([n_b], dtype="int64"),
                         "u2_purchase": pd.array([u2], dtype="int64"),
                         "auc_nano": pd.array([auc_nano], dtype="int64")})


def ks_click_purchase(sf_dir: str) -> pd.DataFrame:
    """Exact two-sample Kolmogorov-Smirnov statistic between click and
    purchase value distributions: D = max_v |F_a(v) - F_b(v)| evaluated on
    the distinct-cents grid. Same counting-histogram exchange as the
    Mann-Whitney plan; the driver keeps the numerator exact by clearing
    denominators — ``d_num = max |cumA*n_b - cumB*n_a|`` in Python ints
    (cumA*n_b is O(n^2): int64 wraps past ~3e9 rows per side) — and
    quantizes D = d_num/(n_a*n_b) at nano once. SQL twin: window cumsums
    over the grouped grid."""
    ds = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["event_type", "value"])

    def prep(t: pa.Table) -> pa.Table:
        f = t.filter(pc.is_in(t.column("event_type"),
                              value_set=pa.array(["click", "purchase"])))
        isa = pc.cast(pc.equal(f.column("event_type"), "click"), pa.int64())
        return pa.table({"cents": _scale_i64(f.column("value"), 100.0),
                         "a": isa,
                         "b": pc.subtract(pa.scalar(1, pa.int64()), isa)})

    hist = grouped_sums(ds.map_batches(prep, batch_format="pyarrow",
                                       zero_copy_batch=True),
                        keys=["cents"], sum_cols={"a": "a", "b": "b"})
    cols = ["n_click", "n_purchase", "d_num", "ks_nano"]
    empty = pd.DataFrame({c: pd.Series(dtype="int64") for c in cols})
    if hist.empty:
        return empty
    hist = hist.sort_values("cents").reset_index(drop=True)
    a = hist["a"].to_numpy(np.int64)
    b = hist["b"].to_numpy(np.int64)
    n_a, n_b = int(a.sum()), int(b.sum())
    if n_a == 0 or n_b == 0:
        return empty
    ca = np.cumsum(a, dtype=object)
    cb = np.cumsum(b, dtype=object)
    d_num = int(np.max(np.abs(ca * n_b - cb * n_a)))
    ks_nano = int(round_away(
        np.float64(d_num) / (np.float64(n_a) * n_b) * 1000000000.0, 0))
    return pd.DataFrame({"n_click": pd.array([n_a], dtype="int64"),
                         "n_purchase": pd.array([n_b], dtype="int64"),
                         "d_num": pd.array([d_num], dtype="int64"),
                         "ks_nano": pd.array([ks_nano], dtype="int64")})


def event_value_psi(sf_dir: str) -> pd.DataFrame:
    """Population stability index between the weekday and weekend event
    value distributions over fixed $10 bands (band = cents // 1000) — the
    drift-monitoring member of the stats family. The exchange is one
    (weekday, weekend) count pair per observed band; the driver restricts
    to bands observed on BOTH sides (the deterministic PSI convention used
    here — no epsilon smoothing), renormalizes each side over the common
    bands, and quantizes EACH band's ``(p-q)*ln(p/q)`` at nano in one
    pinned IEEE expression (numpy log == DuckDB ln, both libm) so the sum
    is an exact integer on both engines regardless of band order."""
    ds = rd.read_parquet(_t(sf_dir, "events"), columns=["ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        cents = _scale_i64(t.column("value"), 100.0)
        band = np.floor_divide(cents.to_numpy(zero_copy_only=False), 1000)
        # Arrow day_of_week: Monday=0 .. Sunday=6 -> weekend = {5, 6}
        we = pc.cast(pc.greater_equal(pc.day_of_week(t.column("ts")),
                                      pa.scalar(5)), pa.int64())
        return pa.table({"band": pa.array(band, pa.int64()),
                         "we": we,
                         "wd": pc.subtract(pa.scalar(1, pa.int64()), we)})

    hist = grouped_sums(ds.map_batches(prep, batch_format="pyarrow",
                                       zero_copy_batch=True),
                        keys=["band"], sum_cols={"a": "wd", "b": "we"})
    cols = ["n_weekday_common", "n_weekend_common", "n_bands_common",
            "psi_nano"]
    empty = pd.DataFrame({c: pd.Series(dtype="int64") for c in cols})
    if hist.empty:
        return empty
    common = hist[(hist["a"] > 0) & (hist["b"] > 0)]
    if common.empty:
        return empty
    a = common["a"].to_numpy(np.float64)
    b = common["b"].to_numpy(np.float64)
    na, nb = float(a.sum()), float(b.sum())
    p = a / na
    q = b / nb
    terms = round_away((p - q) * np.log(p / q) * 1000000000.0, 0)
    return pd.DataFrame({
        "n_weekday_common": pd.array([int(na)], dtype="int64"),
        "n_weekend_common": pd.array([int(nb)], dtype="int64"),
        "n_bands_common": pd.array([len(common)], dtype="int64"),
        "psi_nano": pd.array([int(terms.astype(np.int64).sum())],
                             dtype="int64")})


def _wedge_keys(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Packed (min,max) wedge keys for all out-neighbour pairs of each src
    segment. ``src`` must be sorted; dst values fit in 32 bits."""
    from ..ops.joins import _expand_pairs

    n = len(src)
    if n == 0:
        return np.empty(0, np.int64)
    seg_start = np.flatnonzero(np.r_[True, src[1:] != src[:-1]])
    seg_len = np.diff(np.r_[seg_start, n])
    ends = np.repeat(seg_start + seg_len, seg_len)
    i_idx, j_idx = _expand_pairs(np.arange(n, dtype=np.int64) + 1, ends)
    lo = np.minimum(dst[i_idx], dst[j_idx])
    hi = np.maximum(dst[i_idx], dst[j_idx])
    return (lo << np.int64(32)) | hi


def _count_members(sorted_keys: np.ndarray, probes: np.ndarray) -> int:
    """How many of ``probes`` are present in ``sorted_keys``."""
    if len(probes) == 0 or len(sorted_keys) == 0:
        return 0
    pos = np.searchsorted(sorted_keys, probes)
    pos[pos >= len(sorted_keys)] = len(sorted_keys) - 1
    return int((sorted_keys[pos] == probes).sum())


def copurchase_triangles(sf_dir: str, small_work: int = 20_000_000,
                         broadcast_edges: int = 16_000_000
                         ) -> pd.DataFrame:
    """Triangle count + global clustering coefficient over the co-purchase
    graph (distinct part pairs sharing an order) — completes the graph
    family (pagerank / components / k-core / triangles). Degree-ordered
    orientation: every edge points from its (degree, id)-smaller endpoint,
    so each node's out-degree is O(sqrt(m)) and every triangle is counted
    exactly once at its unique two-out-edge apex. Wedges are expanded
    INSIDE src co-groups with the ragged `_expand_pairs` kernel (never
    corpus-sized in one task). Three closure paths, chosen adaptively
    from the degree table (work and edge counts are known BEFORE the
    choice), all pinned identical by the equivalence test:

    - wedges + edges <= small_work: one driver numpy pass (the three
      exchanges cost more than the work itself);
    - n_edges <= broadcast_edges (8B x 16M = 128 MB per worker): wedge
      expansion stays distributed but each src co-group probes a
      BROADCAST sorted edge-key array (ray.put once, zero-copy view per
      task) — no wedge stream ever leaves a task, removing the largest
      exchange (directed wedges >> m rows);
    - else: wedge partials pre-counted per packed (v,w) key and closed
      against the edge set in ONE co-grouped pass over the union of
      wedge partials and edges — nothing is driver- or worker-resident,
      the true 100-TB path.

    The degree table is node-sized and broadcast into the orientation
    kernel; at node counts past worker memory, swap it for the existing
    two-sided `bucket_join` — the orientation is the only lookup.

    Oracle: independent SQL formulation — min-node triangle enumeration
    via 3-way self-join, wedges from the degree table."""
    from ..ops.joins import _expand_pairs

    ds = rd.read_parquet(_t(sf_dir, "lineitem"),
                         columns=["l_orderkey", "l_partkey"])

    def distinct_lp(t: pa.Table) -> pa.Table:
        return t.group_by(["l_orderkey", "l_partkey"]).aggregate([])

    pre = ds.map_batches(distinct_lp, batch_format="pyarrow",
                         zero_copy_batch=True)

    pair_schema = {"pairkey": pd.Series(dtype="int64")}

    def order_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.drop_duplicates(["l_orderkey", "l_partkey"])
             .sort_values(["l_orderkey", "l_partkey"], kind="mergesort"))
        okey = g["l_orderkey"].to_numpy(np.int64)
        part = g["l_partkey"].to_numpy(np.int64)
        n = len(okey)
        if n == 0:
            return pd.DataFrame(pair_schema)
        seg_start = np.flatnonzero(np.r_[True, okey[1:] != okey[:-1]])
        seg_len = np.diff(np.r_[seg_start, n])
        ends = np.repeat(seg_start + seg_len, seg_len)
        i_idx, j_idx = _expand_pairs(np.arange(n, dtype=np.int64) + 1, ends)
        # parts are sorted within the order segment -> part[i] < part[j]
        pk = (part[i_idx] << np.int64(32)) | part[j_idx]
        return pd.DataFrame({"pairkey": pd.unique(pk)})

    pair_parts = _keyed_segments(pre, "l_orderkey").map_groups(
        order_pairs, batch_format="pandas")

    def bucket_distinct(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"pairkey": pd.unique(
            g["pairkey"].to_numpy(np.int64))})

    # pairkey groups are complete per bucket -> local distinct is global
    edges = _keyed_segments(pair_parts, "pairkey").map_groups(
        bucket_distinct, batch_format="pandas").materialize()

    cols = ["n_nodes", "n_edges", "n_wedges", "n_triangles", "gcc_nano"]
    empty = pd.DataFrame({c: pd.Series(dtype="int64") for c in cols})

    def unpack(t: pa.Table) -> pa.Table:
        pk = t.column("pairkey").to_numpy(zero_copy_only=False)
        node = np.concatenate([pk >> np.int64(32),
                               pk & np.int64(0xFFFFFFFF)])
        return pa.table({"node": pa.array(node, pa.int64())})

    deg = grouped_sums(edges.map_batches(unpack, batch_format="pyarrow"),
                       keys=["node"], sum_cols={}, count_alias="deg")
    if deg.empty:
        return empty
    deg = deg.sort_values("node").reset_index(drop=True)
    node_ids = deg["node"].to_numpy(np.int64)
    degs = deg["deg"].to_numpy(np.int64)
    n_nodes = len(deg)
    n_edges = int(degs.sum()) // 2
    n_wedges = int(sum(int(d) * (int(d) - 1) // 2 for d in degs))

    # adaptive small path, gated on WORK not edge count: triangle cost is
    # wedge-dominated (O(m^1.5) directed wedge candidates, bounded above
    # by the undirected wedge count just computed from degrees), so below
    # ~small_work wedge+edge units one driver numpy pass beats the three
    # co-grouped exchanges; above it the distributed form wins (at sf0.1:
    # 148M wedges -> distributed. Same gate story as linking's graph
    # analytics; paths pinned identical by the equivalence test).
    def result(n_tri: int) -> pd.DataFrame:
        gcc_nano = (int(round_away(
            3.0 * n_tri / n_wedges * 1000000000.0, 0)) if n_wedges else 0)
        return pd.DataFrame(
            {"n_nodes": pd.array([n_nodes], dtype="int64"),
             "n_edges": pd.array([n_edges], dtype="int64"),
             "n_wedges": pd.array([n_wedges], dtype="int64"),
             "n_triangles": pd.array([n_tri], dtype="int64"),
             "gcc_nano": pd.array([gcc_nano], dtype="int64")})

    if n_wedges + n_edges <= small_work:
        pk = np.sort(edges.to_pandas()["pairkey"].to_numpy(np.int64))
        u = pk >> np.int64(32)
        v = pk & np.int64(0xFFFFFFFF)
        du = degs[np.searchsorted(node_ids, u)]
        dv = degs[np.searchsorted(node_ids, v)]
        u_first = (du < dv) | ((du == dv) & (u < v))
        src = np.where(u_first, u, v)
        dst = np.where(u_first, v, u)
        o = np.lexsort((dst, src))
        return result(_count_members(pk, _wedge_keys(src[o], dst[o])))

    def orient(t: pa.Table) -> pa.Table:
        pk = t.column("pairkey").to_numpy(zero_copy_only=False)
        u = pk >> np.int64(32)
        v = pk & np.int64(0xFFFFFFFF)
        du = degs[np.searchsorted(node_ids, u)]
        dv = degs[np.searchsorted(node_ids, v)]
        # src = (degree, id)-smaller endpoint
        u_first = (du < dv) | ((du == dv) & (u < v))
        return pa.table({"src": pa.array(np.where(u_first, u, v), pa.int64()),
                         "dst": pa.array(np.where(u_first, v, u), pa.int64())})

    oriented = edges.map_batches(orient, batch_format="pyarrow")

    # mid path: the wedge EXPANSION stays distributed (src co-groups), but
    # the closure probes a BROADCAST sorted edge-key array (ray.put once,
    # zero-copy np view per task) instead of exchanging the directed wedge
    # partials — this removes the largest data movement (the wedge stream,
    # >> m rows) and the union/closure co-group. 8 bytes x broadcast_edges
    # (default 16M = 128 MB) bounds the per-worker array; past that the
    # co-grouped exchange below is the scale path.
    if n_edges <= broadcast_edges:
        import ray as _ray

        pk_ref = _ray.put(np.sort(
            edges.to_pandas()["pairkey"].to_numpy(np.int64)))

        def wedge_close(g: pd.DataFrame) -> pd.DataFrame:
            g = g.sort_values(["src", "dst"], kind="mergesort")
            wk = _wedge_keys(g["src"].to_numpy(np.int64),
                             g["dst"].to_numpy(np.int64))
            t = _count_members(_ray.get(pk_ref), wk)
            return pd.DataFrame({"tri": pd.array([t], dtype="int64")})

        tri_parts = _keyed_segments(oriented, "src").map_groups(
            wedge_close, batch_format="pandas").to_pandas()
        return result(int(tri_parts["tri"].sum()) if not tri_parts.empty
                      else 0)

    def wedge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["src", "dst"], kind="mergesort")
        src = g["src"].to_numpy(np.int64)
        dst = g["dst"].to_numpy(np.int64)
        if len(src) == 0:
            return pd.DataFrame(pair_schema | {"n_w": pd.Series(dtype="int64")})
        wk = _wedge_keys(src, dst)
        out = (pd.DataFrame({"pairkey": wk})
               .groupby("pairkey", as_index=False)
               .size().rename(columns={"size": "n_w"}))
        return out.astype({"pairkey": "int64", "n_w": "int64"})

    # wedges form inside COMPLETE src co-groups (out-degree is O(sqrt(m))
    # under the degree orientation, so a src segment is never huge)
    wedges = _keyed_segments(oriented, "src").map_groups(
        wedge_bucket, batch_format="pandas")

    def tag_edge(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table({"pairkey": t.column("pairkey"),
                         "n_w": pa.array(np.zeros(n, np.int64)),
                         "is_edge": pa.array(np.ones(n, np.int64))})

    def tag_wedge(t: pa.Table) -> pa.Table:
        return pa.table({"pairkey": t.column("pairkey"),
                         "n_w": t.column("n_w").cast(pa.int64()),
                         "is_edge": pa.array(
                             np.zeros(t.num_rows, np.int64))})

    both = (edges.map_batches(tag_edge, batch_format="pyarrow")
            .union(wedges.map_batches(tag_wedge, batch_format="pyarrow")))

    def close_bucket(g: pd.DataFrame) -> pd.DataFrame:
        c = (g.groupby("pairkey", as_index=False)
             .agg(n_w=("n_w", "sum"), is_edge=("is_edge", "max")))
        t = int(c.loc[c["is_edge"] > 0, "n_w"].sum())
        return pd.DataFrame({"tri": pd.array([t], dtype="int64")})

    tri_parts = _keyed_segments(both, "pairkey").map_groups(
        close_bucket, batch_format="pandas").to_pandas()
    return result(int(tri_parts["tri"].sum()) if not tri_parts.empty else 0)


def referential_integrity_audit(sf_dir: str) -> pd.DataFrame:
    """Bidirectional foreign-key audit — the data-quality operator a 100-TB
    ingest runs before anything else: orphan lineitems (l_orderkey with no
    order), childless orders (no lineitem), duplicate order primary keys,
    and orders whose o_custkey is missing from customer. BOTH directions of
    each FK resolve in ONE co-grouped pass over the union of the two key
    streams (per-batch key-count partials tag their side; a packed-key
    bucket holds every occurrence of a key from both sides), so the
    exchange is distinct-key-sized partials, never row-sized.
    Oracle: NOT EXISTS / HAVING twins per direction."""
    li = rd.read_parquet(_t(sf_dir, "lineitem"), columns=["l_orderkey"])
    orders = rd.read_parquet(_t(sf_dir, "orders"),
                             columns=["o_orderkey", "o_custkey"])
    cust = rd.read_parquet(_t(sf_dir, "customer"), columns=["c_custkey"])

    def key_partials(col: str, side: int):
        def f(t: pa.Table) -> pa.Table:
            agg = (pa.table({"k": t.column(col)})
                   .group_by(["k"]).aggregate([([], "count_all")]))
            n = agg.num_rows
            return pa.table({"k": agg.column("k"),
                             "n": agg.column("count_all").cast(pa.int64()),
                             "side": pa.array(np.full(n, side, np.int64))})
        return f

    def audit_bucket(names):
        left_total, orphan_left, childless_right, dup_right = names

        def f(g: pd.DataFrame) -> pd.DataFrame:
            c = (g.pivot_table(index="k", columns="side", values="n",
                               aggfunc="sum", fill_value=0)
                 .reindex(columns=[0, 1], fill_value=0))
            l, r = c[0].to_numpy(np.int64), c[1].to_numpy(np.int64)
            return pd.DataFrame({
                left_total: pd.array([int(l.sum())], dtype="int64"),
                orphan_left: pd.array([int(l[r == 0].sum())], dtype="int64"),
                childless_right: pd.array([int(((r > 0) & (l == 0)).sum())],
                                          dtype="int64"),
                dup_right: pd.array([int((r > 1).sum())], dtype="int64")})
        return f

    def run_audit(left_ds, left_col, right_ds, right_col, names):
        both = (left_ds.map_batches(key_partials(left_col, 0),
                                    batch_format="pyarrow")
                .union(right_ds.map_batches(key_partials(right_col, 1),
                                            batch_format="pyarrow")))
        parts = _keyed_segments(both, "k").map_groups(
            audit_bucket(names), batch_format="pandas").to_pandas()
        return {c: int(parts[c].sum()) for c in names} if not parts.empty \
            else {c: 0 for c in names}

    a = run_audit(li, "l_orderkey", orders, "o_orderkey",
                  ["n_lineitems", "n_orphan_lineitems",
                   "n_childless_orders", "n_dup_orderkeys"])
    b = run_audit(orders.select_columns(["o_custkey"]), "o_custkey",
                  cust, "c_custkey",
                  ["n_orders", "n_orphan_orders",
                   "n_customers_no_orders", "n_dup_custkeys"])
    vals = a | b
    return pd.DataFrame({k: pd.array([v], dtype="int64")
                         for k, v in vals.items()})


def event_volume_anomalies(sf_dir: str, k: int = 25) -> pd.DataFrame:
    """Seasonal volume-anomaly detection: hourly event counts scored
    against the same-(day-of-week, hour-of-day) population — the
    monitoring sibling of the PSI drift gate. The distributed exchange is
    the hour-truncated count groupby (domain-bounded: one row per distinct
    hour, ~10^5 rows for a decade); the z-scores come from exact int64
    sufficient stats (n, Σc, Σc²) per seasonal cell, evaluated in ONE
    pinned IEEE expression mirrored by the SQL twin, quantized at nano.
    Cells with n < 2 or zero variance are dropped (z undefined). Top-k by
    |z| (ties: earlier hour). dow is Monday=0 on both engines (Arrow
    day_of_week == isodow - 1)."""
    ds = rd.read_parquet(_t(sf_dir, "events"), columns=["ts"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"hour_ts": pc.floor_temporal(t.column("ts"),
                                                      unit="hour")})

    hourly = grouped_sums(ds.map_batches(prep, batch_format="pyarrow",
                                         zero_copy_batch=True),
                          keys=["hour_ts"], sum_cols={}, count_alias="c")
    out_cols = ["hour_ts", "dow", "hod", "c", "z_nano"]
    empty = pd.DataFrame({"hour_ts": pd.Series(dtype="datetime64[us]")}
                         | {c: pd.Series(dtype="int64")
                            for c in out_cols[1:]})
    if hourly.empty:
        return empty
    h = hourly.copy()
    ts = pd.to_datetime(h["hour_ts"])
    h["dow"] = ts.dt.dayofweek.astype("int64")  # Monday=0, matches isodow-1
    h["hod"] = ts.dt.hour.astype("int64")
    c = h["c"].to_numpy(np.int64)
    h["cc"] = c * c
    g = (h.groupby(["dow", "hod"], as_index=False)
         .agg(n=("c", "size"), s=("c", "sum"), ss=("cc", "sum")))
    m = h.merge(g, on=["dow", "hod"])
    n = m["n"].to_numpy(np.float64)
    s = m["s"].to_numpy(np.float64)
    ss = m["ss"].to_numpy(np.float64)
    cf = m["c"].to_numpy(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        var = (ss - s * s / n) / (n - 1.0)
        z = (cf - s / n) / np.sqrt(var)
    keep = (m["n"].to_numpy(np.int64) >= 2) & (var > 0)
    m = m[keep].copy()
    m["z_nano"] = round_away(z[keep] * 1000000000.0, 0).astype(np.int64)
    m["az"] = m["z_nano"].abs()
    m = m.sort_values(["az", "hour_ts"], ascending=[False, True]).head(k)
    m["hour_ts"] = pd.to_datetime(m["hour_ts"]).astype("datetime64[us]")
    return (m[out_cols].astype({c: "int64" for c in out_cols[1:]})
            .reset_index(drop=True))


def peak_concurrent_sessions(sf_dir: str, gap_minutes: int = 30
                             ) -> pd.DataFrame:
    """Peak number of simultaneously-active sessions (30-min-gap sessions,
    active on [first_ts, last_ts] inclusive) and the earliest instant it
    is reached — the sweep-line / interval-stabbing operator, distributed
    with NO global sort: boundary deltas (+1 at start, −1 at end+1µs) are
    pre-summed per distinct timestamp, DAY co-groups compute their local
    ordered cumsum, and the cross-day running offset is the driver-side
    prefix sum of the tiny per-day delta totals (the doc_length_ranks
    offset-broadcast trick applied to interval concurrency). Each day
    bucket emits one (peak, earliest-peak-ts) row.
    Oracle: full window-cumsum sweep over the aggregated boundary stream."""
    gap_us = gap_minutes * 60 * 1_000_000
    us_day = 86_400_000_000
    ds = rd.read_parquet(_t(sf_dir, "events"), columns=["user_id", "ts"])

    def boundaries(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts"], kind="mergesort")
        uid = g["user_id"].to_numpy()
        t = g["ts"].to_numpy().astype("int64")
        if len(t) == 0:
            return pd.DataFrame({"t": pd.Series(dtype="int64"),
                                 "d": pd.Series(dtype="int64"),
                                 "ns": pd.Series(dtype="int64")})
        brk = np.r_[True, (uid[1:] != uid[:-1]) | (np.diff(t) > gap_us)]
        starts = np.flatnonzero(brk)
        ends = np.r_[starts[1:], len(t)] - 1
        bt = np.concatenate([t[starts], t[ends] + 1])
        bd = np.concatenate([np.ones(len(starts), np.int64),
                             np.full(len(ends), -1, np.int64)])
        out = (pd.DataFrame({"t": bt, "d": bd})
               .groupby("t", as_index=False).agg(d=("d", "sum")))
        out["ns"] = np.int64(0)
        out.loc[out.index[:1], "ns"] = np.int64(len(starts))
        return out.astype({"t": "int64", "d": "int64", "ns": "int64"})

    bnd = _keyed_segments(ds, "user_id").map_groups(
        boundaries, batch_format="pandas").materialize()

    def add_day(t: pa.Table) -> pa.Table:
        day = np.floor_divide(t.column("t").to_numpy(zero_copy_only=False),
                              us_day)
        return t.append_column("day", pa.array(day, pa.int64()))

    with_day = bnd.map_batches(add_day, batch_format="pyarrow")
    day_tot = grouped_sums(with_day, keys=["day"],
                           sum_cols={"dsum": "d", "ns": "ns"})
    cols = ["n_sessions", "peak_concurrency", "peak_ts"]
    empty = pd.DataFrame({"n_sessions": pd.Series(dtype="int64"),
                          "peak_concurrency": pd.Series(dtype="int64"),
                          "peak_ts": pd.Series(dtype="datetime64[us]")})
    if day_tot.empty:
        return empty
    day_tot = day_tot.sort_values("day").reset_index(drop=True)
    n_sessions = int(day_tot["ns"].sum())
    days = day_tot["day"].to_numpy(np.int64)
    run = np.cumsum(day_tot["dsum"].to_numpy(np.int64))
    offsets = dict(zip(days.tolist(),
                       np.r_[np.int64(0), run[:-1]].tolist()))

    def day_peak(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.groupby(["day", "t"], as_index=False).agg(d=("d", "sum"))
             .sort_values(["day", "t"], kind="mergesort"))
        day = g["day"].to_numpy(np.int64)
        t = g["t"].to_numpy(np.int64)
        cum = np.cumsum(g["d"].to_numpy(np.int64))
        new_day = np.r_[True, day[1:] != day[:-1]]
        seg_of = np.cumsum(new_day) - 1
        seg_start = np.flatnonzero(new_day)
        # per-day local cumsum = global-within-bucket minus the segment base
        base = np.r_[np.int64(0), cum[:-1]][seg_start]
        local = cum - base[seg_of]
        off = np.array([offsets[d] for d in day[seg_start].tolist()],
                       np.int64)
        conc = local + off[seg_of]
        out = []
        for si in range(len(seg_start)):
            lo = seg_start[si]
            hi = seg_start[si + 1] if si + 1 < len(seg_start) else len(day)
            seg = conc[lo:hi]
            j = int(np.argmax(seg))  # argmax returns the FIRST max
            out.append((int(seg[j]), int(t[lo + j])))
        return pd.DataFrame({"peak": pd.array([p for p, _ in out],
                                              dtype="int64"),
                             "t_us": pd.array([u for _, u in out],
                                              dtype="int64")})

    peaks = _keyed_segments(with_day, "day").map_groups(
        day_peak, batch_format="pandas").to_pandas()
    if peaks.empty:
        return empty
    best = int(peaks["peak"].max())
    t_us = int(peaks.loc[peaks["peak"] == best, "t_us"].min())
    return pd.DataFrame({
        "n_sessions": pd.array([n_sessions], dtype="int64"),
        "peak_concurrency": pd.array([best], dtype="int64"),
        "peak_ts": pd.Series([np.datetime64(t_us, "us")],
                             dtype="datetime64[us]")})


def returnflag_weighted_median_price(sf_dir: str) -> pd.DataFrame:
    """Quantity-WEIGHTED median of extended price per return flag — the
    weighted-quantile operator (each row counts with weight = quantity).
    Discrete lower weighted median: the smallest price whose doubled
    cumulative weight reaches the group total (2*cumw >= W) — an all-
    integer rule, so the compare against the SQL window twin is exact.

    Scale shape: the exchange carries the (flag, cents) WEIGHT histogram
    (partial int64 weight sums per batch), bounded by the price domain x
    flag count — never the row count; the driver prefix-sums tiny
    per-flag histograms."""
    from ..ops.agg import grouped_sums

    ds = rd.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_returnflag", "l_extendedprice", "l_quantity"])

    def to_hist(t: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": t.column("l_returnflag"),
            "cents": _scale_i64(t.column("l_extendedprice"), 100.0),
            "w": _scale_i64(t.column("l_quantity"), 1.0)})

    hist = grouped_sums(ds.map_batches(to_hist, batch_format="pyarrow",
                                       zero_copy_batch=True),
                        keys=["l_returnflag", "cents"],
                        sum_cols={"w": "w"})
    empty = pd.DataFrame({"l_returnflag": pd.Series(dtype="object"),
                          "total_qty": pd.Series(dtype="int64"),
                          "wmedian_cents": pd.Series(dtype="int64")})
    if hist.empty:
        return empty
    hist = hist.sort_values(["l_returnflag", "cents"]).reset_index(drop=True)
    rows = []
    for flag, g in hist.groupby("l_returnflag", sort=True):
        vals = g["cents"].to_numpy(np.int64)
        cumw = g["w"].to_numpy(np.int64).cumsum()
        tw = int(cumw[-1])
        med = int(vals[np.searchsorted(2 * cumw, tw, side="left")])
        rows.append((flag, tw, med))
    return pd.DataFrame(rows, columns=["l_returnflag", "total_qty",
                                       "wmedian_cents"]) \
        .astype({"total_qty": "int64", "wmedian_cents": "int64"})


def copurchase_lift(sf_dir: str, k: int = 25,
                    min_support: int = 2) -> pd.DataFrame:
    """Association rules over the co-purchase pairs: support, confidence
    and lift for the top-k pairs — completes the market-basket family
    (copurchase_pairs gives raw co-occurrence; this adds the normalized
    strength a recommender actually ranks by). conf = P(b|a),
    lift = P(a,b) / (P(a) P(b)) = n_orders * n_ab / (n_a * n_b), both in
    nano quantization with ONE pinned IEEE expression per value (products
    of exact int64 counts cast to double in a fixed order).

    Scale shape: pair counts come from the order-co-grouped ragged
    expansion (as copurchase_pairs); per-part order counts from a partial
    groupby (part-domain-sized); the distinct-order count from a
    per-order co-group. Only the k winners join the (dimension-sized)
    singles table."""
    from ..ops.agg import grouped_sums, round_away
    from ..ops.joins import _expand_pairs

    ds = rd.read_parquet(_t(sf_dir, "lineitem"),
                         columns=["l_orderkey", "l_partkey"])

    def distinct_lp(t: pa.Table) -> pa.Table:
        return t.group_by(["l_orderkey", "l_partkey"]).aggregate([])

    pre = ds.map_batches(distinct_lp, batch_format="pyarrow",
                         zero_copy_batch=True)
    seg = _keyed_segments(pre, "l_orderkey").map_groups(
        lambda g: (g.drop(columns=["__bucket"])
                   .drop_duplicates(["l_orderkey", "l_partkey"])),
        batch_format="pandas").materialize()

    # per-part order counts + the distinct-order total, from the SAME
    # globally-distinct (order, part) stream
    singles = grouped_sums(seg, keys=["l_partkey"], sum_cols={},
                           count_alias="n")

    def order_marks(t: pa.Table) -> pa.Table:
        return (t.select(["l_orderkey"])
                .group_by(["l_orderkey"]).aggregate([]))

    n_orders = int(
        seg.map_batches(order_marks, batch_format="pyarrow")
        .groupby("l_orderkey").count().count())

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["l_orderkey", "l_partkey"], kind="mergesort")
        okey = g["l_orderkey"].to_numpy(np.int64)
        part = g["l_partkey"].to_numpy(np.int64)
        n = len(okey)
        if n == 0:
            return pd.DataFrame({"k1": pd.Series(dtype="int64"),
                                 "k2": pd.Series(dtype="int64"),
                                 "n_part": pd.Series(dtype="int64")})
        seg_start = np.flatnonzero(np.r_[True, okey[1:] != okey[:-1]])
        seg_len = np.diff(np.r_[seg_start, n])
        ends = np.repeat(seg_start + seg_len, seg_len)
        i_idx, j_idx = _expand_pairs(np.arange(n, dtype=np.int64) + 1, ends)
        pairs = pd.DataFrame({"k1": part[i_idx], "k2": part[j_idx]})
        out = (pairs.groupby(["k1", "k2"], as_index=False)
               .size().rename(columns={"size": "n_part"}))
        return out.astype("int64")

    parts = _keyed_segments(seg, "l_orderkey").map_groups(
        per_bucket, batch_format="pandas")

    def pack(t: pa.Table) -> pa.Table:
        k1 = t.column("k1").to_numpy(zero_copy_only=False)
        k2 = t.column("k2").to_numpy(zero_copy_only=False)
        return t.append_column(
            "pairkey", pa.array((k1 << np.int64(32)) | k2, pa.int64()))

    def bucket_topk(g: pd.DataFrame) -> pd.DataFrame:
        c = (g.groupby("pairkey", as_index=False)
             .agg(k1=("k1", "first"), k2=("k2", "first"),
                  support=("n_part", "sum")))
        c = c[c["support"] >= min_support]
        c = c.sort_values(["support", "k1", "k2"],
                          ascending=[False, True, True]).head(k)
        return c[["k1", "k2", "support"]].astype("int64")

    from ..ops.agg import ensure_columns

    res = ensure_columns(
        _keyed_segments(parts.map_batches(pack, batch_format="pyarrow"),
                        "pairkey").map_groups(
            bucket_topk, batch_format="pandas").to_pandas(),
        {"k1": "int64", "k2": "int64", "support": "int64"})
    empty = pd.DataFrame({c: pd.Series(dtype="int64") for c in
                          ["k1", "k2", "support", "conf_nano", "lift_nano"]})
    if res.empty or singles.empty:
        return empty
    top = (res.sort_values(["support", "k1", "k2"],
                           ascending=[False, True, True]).head(k)
           .reset_index(drop=True))
    ns = singles.set_index("l_partkey")["n"]
    na = ns.loc[top["k1"]].to_numpy(np.int64)
    nb = ns.loc[top["k2"]].to_numpy(np.int64)
    s = top["support"].to_numpy(np.int64)
    # pinned IEEE expressions (exact int64 counts -> double, fixed order;
    # identical in the SQL twin): conf = 1e9 * s / na,
    # lift = 1e9 * (n_orders * s) / (na * nb)
    conf = round_away(1e9 * s.astype(np.float64) / na, 0)
    lift = round_away(
        (1e9 * (np.float64(n_orders) * s)) / (na.astype(np.float64) * nb), 0)
    top["conf_nano"] = conf.astype(np.int64)
    top["lift_nano"] = lift.astype(np.int64)
    return top[["k1", "k2", "support", "conf_nano", "lift_nano"]] \
        .astype("int64")


def event_value_mad_outliers(sf_dir: str) -> pd.DataFrame:
    """Robust outlier detection per event type: values whose absolute
    deviation from the (discrete lower) median exceeds 3x the MAD — the
    median-absolute-deviation rule, immune to the outliers it hunts
    (unlike the z-score family already covered by event_volume_anomalies).
    Every quantity is an integer on the cents grid (lower median = first
    value with 2*cum >= n; the deviation histogram is a re-keying of the
    value histogram), so the SQL window twin compares exactly.

    Scale shape: ONE (type, cents) counting-histogram exchange (domain-
    bounded, as priority_median_price); median, MAD and the outlier count
    all derive from the collected per-type histogram on the driver."""
    from ..ops.agg import grouped_sums

    ds = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["event_type", "value"])

    def to_hist(t: pa.Table) -> pa.Table:
        return pa.table({"event_type": t.column("event_type"),
                         "cents": _scale_i64(t.column("value"), 100.0)})

    hist = grouped_sums(ds.map_batches(to_hist, batch_format="pyarrow",
                                       zero_copy_batch=True),
                        keys=["event_type", "cents"], sum_cols={},
                        count_alias="c")
    empty = pd.DataFrame({"event_type": pd.Series(dtype="object"),
                          "n": pd.Series(dtype="int64"),
                          "median_cents": pd.Series(dtype="int64"),
                          "mad_cents": pd.Series(dtype="int64"),
                          "n_outliers": pd.Series(dtype="int64")})
    if hist.empty:
        return empty
    hist = hist.sort_values(["event_type", "cents"]).reset_index(drop=True)
    rows = []
    for et, g in hist.groupby("event_type", sort=True):
        vals = g["cents"].to_numpy(np.int64)
        cnt = g["c"].to_numpy(np.int64)
        cum = cnt.cumsum()
        n = int(cum[-1])
        med = int(vals[np.searchsorted(2 * cum, n, side="left")])
        dev = np.abs(vals - med)
        dorder = np.argsort(dev, kind="stable")
        dvals, dcnt = dev[dorder], cnt[dorder]
        # collapse duplicate deviations (v-med and med-v can collide)
        dseg = np.flatnonzero(np.r_[True, dvals[1:] != dvals[:-1]])
        dsum = np.add.reduceat(dcnt, dseg)
        duniq = dvals[dseg]
        dcum = dsum.cumsum()
        mad = int(duniq[np.searchsorted(2 * dcum, n, side="left")])
        n_out = int(cnt[dev > 3 * mad].sum())
        rows.append((et, n, med, mad, n_out))
    return pd.DataFrame(rows, columns=["event_type", "n", "median_cents",
                                       "mad_cents", "n_outliers"]) \
        .astype({"n": "int64", "median_cents": "int64",
                 "mad_cents": "int64", "n_outliers": "int64"})


def benford_price_digits(sf_dir: str) -> pd.DataFrame:
    """Benford's-law first-digit audit of order totals — the classic
    numeric data-quality / fraud screen: observed first-significant-digit
    counts vs the Benford expectation log10(1 + 1/d). Digits are extracted
    EXACTLY on the cents grid by repeated integer division (no float log10
    — its power-of-ten boundaries are libm-dependent); shares and the
    expectation are nano-quantized via one pinned expression each, so the
    SQL twin (string first-char digit) compares value-exact.

    Scale shape: per-batch digit histogram partials — the exchange carries
    at most 9 rows per block."""
    from ..ops.agg import grouped_sums, round_away

    ds = rd.read_parquet(_t(sf_dir, "orders"), columns=["o_totalprice"])

    def digits(t: pa.Table) -> pa.Table:
        cents = _scale_i64(t.column("o_totalprice"), 100.0) \
            .to_numpy(zero_copy_only=False)
        d = np.abs(cents)
        d = d[d > 0]
        while (d >= 10).any():
            d = np.where(d >= 10, d // 10, d)
        return pa.table({"digit": pa.array(d, pa.int64())})

    hist = grouped_sums(ds.map_batches(digits, batch_format="pyarrow",
                                       zero_copy_batch=True),
                        keys=["digit"], sum_cols={}, count_alias="n_obs")
    if hist.empty:
        return pd.DataFrame({"digit": pd.Series(dtype="int64"),
                             "n_obs": pd.Series(dtype="int64"),
                             "share_nano": pd.Series(dtype="int64"),
                             "benford_nano": pd.Series(dtype="int64")})
    hist = hist.sort_values("digit").reset_index(drop=True)
    n_total = int(hist["n_obs"].sum())
    dg = hist["digit"].to_numpy(np.int64).astype(np.float64)
    obs = hist["n_obs"].to_numpy(np.int64).astype(np.float64)
    hist["share_nano"] = round_away(1e9 * obs / n_total, 0).astype(np.int64)
    hist["benford_nano"] = round_away(
        1e9 * np.log10(1.0 + 1.0 / dg), 0).astype(np.int64)
    return hist[["digit", "n_obs", "share_nano", "benford_nano"]] \
        .astype({"digit": "int64", "n_obs": "int64"})


def gini_customer_spend(sf_dir: str) -> pd.DataFrame:
    """Gini coefficient of customer spend — the inequality / concentration
    audit (how skewed is revenue across customers). Per-customer spend is
    an EXACT int64 cents sum; the Gini rank-sum S = sum(i * x_(i)) over the
    sorted spends is computed in arbitrary-precision Python ints (ties make
    the rank assignment within equal values immaterial), and the only float
    math is ONE pinned IEEE expression shared with the SQL twin:
    gini = 2*S/(n*T) - (n+1)/n.

    Scale shape: the exchange is the customer-domain-sized spend groupby
    (partial sums per batch); the driver holds one int64 per customer —
    dimension-sized, the same bound as copurchase_lift's singles table."""
    from ..ops.agg import grouped_sums, round_away

    ds = rd.read_parquet(_t(sf_dir, "orders"),
                         columns=["o_custkey", "o_totalprice"])

    def cents(t: pa.Table) -> pa.Table:
        return pa.table({"o_custkey": t.column("o_custkey"),
                         "c": _scale_i64(t.column("o_totalprice"), 100.0)})

    spend = grouped_sums(ds.map_batches(cents, batch_format="pyarrow",
                                        zero_copy_batch=True),
                         keys=["o_custkey"], sum_cols={"spend": "c"})
    empty = pd.DataFrame({"n_customers": pd.Series(dtype="int64"),
                          "total_cents": pd.Series(dtype="int64"),
                          "gini_nano": pd.Series(dtype="int64")})
    if spend.empty:
        return empty
    vals = np.sort(spend["spend"].to_numpy(np.int64))
    n = len(vals)
    # exact rank-sum in arbitrary-precision Python ints (int64 overflows
    # past ~10^7 customers; the dimension-sized driver loop is fine)
    s = sum(i * v for i, v in enumerate(vals.tolist(), start=1))
    t_total = int(vals.sum())
    # pinned IEEE expression (identical structure in the SQL twin)
    g = 1e9 * (2.0 * float(s) / float(n * t_total)
               - (float(n) + 1.0) / float(n))
    return pd.DataFrame({"n_customers": pd.array([n], dtype="int64"),
                         "total_cents": pd.array([t_total], dtype="int64"),
                         "gini_nano": pd.array(
                             [int(round_away(g, 0))], dtype="int64")})


def autocorr_daily_orders(sf_dir: str) -> pd.DataFrame:
    """Lag-1 autocorrelation of the daily order-count series — the
    time-series persistence signal (is today's volume predictive of
    tomorrow's). Daily counts come from one day-domain-sized groupby; the
    lag pairs are formed over CONSECUTIVE DISTINCT DAYS PRESENT in the
    data (the SQL twin's window-lag semantics), and the Pearson correlation
    derives from exact int64 sufficient statistics via the same pinned IEEE
    expression as grouped_corr_quantity_discount.

    Scale shape: the exchange carries one int64 per (block, day) partial —
    day-domain-bounded regardless of row count."""
    from ..ops.agg import grouped_sums, round_away

    ds = rd.read_parquet(_t(sf_dir, "orders"), columns=["o_orderdate"])
    daily = grouped_sums(ds, keys=["o_orderdate"], sum_cols={},
                         count_alias="n")
    cols = ["n_pairs", "sum_x", "sum_y", "sum_xx", "sum_yy", "sum_xy"]
    empty = pd.DataFrame({c: pd.Series(dtype="int64") for c in cols}
                         | {"corr_nano": pd.Series(dtype="int64")})
    if len(daily) < 2:
        return empty
    daily = daily.sort_values("o_orderdate").reset_index(drop=True)
    c = daily["n"].to_numpy(np.int64)
    x, y = c[:-1], c[1:]
    n = len(x)
    sx, sy = int(x.sum()), int(y.sum())
    sxx, syy = int(np.dot(x, x)), int(np.dot(y, y))
    sxy = int(np.dot(x, y))
    nf = np.float64(n)
    num = nf * np.float64(sxy) - np.float64(sx) * np.float64(sy)
    den = (np.sqrt(nf * np.float64(sxx) - np.float64(sx) * np.float64(sx))
           * np.sqrt(nf * np.float64(syy) - np.float64(sy) * np.float64(sy)))
    corr = int(round_away(num / den * 1000000000.0, 0))
    return pd.DataFrame({"n_pairs": pd.array([n], dtype="int64"),
                         "sum_x": pd.array([sx], dtype="int64"),
                         "sum_y": pd.array([sy], dtype="int64"),
                         "sum_xx": pd.array([sxx], dtype="int64"),
                         "sum_yy": pd.array([syy], dtype="int64"),
                         "sum_xy": pd.array([sxy], dtype="int64"),
                         "corr_nano": pd.array([corr], dtype="int64")})


_SKEW_AUDIT = (
    # (label, table, column) — the hot distribution keys a shuffle planner
    # cares about: join/groupby keys whose skew decides bucketing strategy
    ("events.user_id", "events", "user_id"),
    ("events.event_type", "events", "event_type"),
    ("lineitem.l_partkey", "lineitem", "l_partkey"),
    ("orders.o_custkey", "orders", "o_custkey"),
)


def key_skew_report(sf_dir: str) -> pd.DataFrame:
    """Key-skew audit over the join/groupby key columns a shuffle planner
    must know about: rows, distinct keys, top-1/top-10 key mass, and the
    Shannon entropy of the key distribution. Entropy terms c*ln(c) are
    quantized PER KEY at 4dp (int64 sum is then order-exact across engines);
    the final entropy = ln(N) - (sum/1e4)/N is one pinned expression.

    Scale shape: one key-domain-sized counting groupby per audited column
    (partial counts per batch); the driver reduces each domain to 6 numbers.
    Top-1/top-10 ties break by key order, pinned identically in SQL."""
    from ..ops.agg import grouped_sums, round_away

    rows = []
    for label, table, col in _SKEW_AUDIT:
        ds = rd.read_parquet(_t(sf_dir, table), columns=[col])
        counts = grouped_sums(ds, keys=[col], sum_cols={}, count_alias="c")
        if counts.empty:
            rows.append((label, 0, 0, 0, 0, 0, 0))
            continue
        counts = counts.sort_values(["c", col],
                                    ascending=[False, True]).reset_index(
                                        drop=True)
        c = counts["c"].to_numpy(np.int64)
        n_rows = int(c.sum())
        n_keys = len(c)
        top1 = int(c[0])
        top10 = int(c[:10].sum())
        cf = c.astype(np.float64)
        terms = round_away(1e4 * (cf * np.log(cf)), 0).astype(np.int64)
        st = int(terms.sum())
        ent = 1e9 * (np.log(np.float64(n_rows))
                     - (np.float64(st) / 1e4) / np.float64(n_rows))
        rows.append((label, n_rows, n_keys, top1, top10, st,
                     int(round_away(ent, 0))))
    out = pd.DataFrame(rows, columns=["src", "n_rows", "n_keys", "top1_n",
                                      "top10_n", "clnc_e4_sum",
                                      "entropy_nano"])
    for c in out.columns[1:]:
        out[c] = out[c].astype("int64")
    return out.sort_values("src").reset_index(drop=True)


def orderkey_islands(sf_dir: str, k: int = 10,
                     target_buckets: int = 1024) -> pd.DataFrame:
    """Distributed gaps-and-islands over the distinct order keys: maximal
    runs of consecutive integers, reported as the top-k longest islands
    plus global island/key totals. The classic SQL form (key -
    row_number() grouping) needs a GLOBAL sort; here keys are RANGE-
    bucketed (value // span, not hashed — islands never span more than two
    adjacent buckets' boundary), each bucket finds its islands in one
    sorted-diff pass and pre-aggregates to (meta + top-k interior islands),
    and the driver stitches ONLY the boundary islands: an island crossing a
    bucket edge is the previous bucket's last island fused with the next
    bucket's first (chains through whole buckets when a bucket is a single
    island). Driver state is O(buckets * k); at extreme key ranges the same
    stitch applies recursively (buckets of buckets).

    Interior islands (neither first nor last of their bucket) cannot touch
    a boundary, so each bucket's local top-k is globally sufficient."""
    from ray.data.aggregate import Max, Min

    ds = rd.read_parquet(_t(sf_dir, "orders"), columns=["o_orderkey"])
    empty = pd.DataFrame({c: pd.Series(dtype="int64") for c in
                          ["rk", "start_key", "end_key", "island_len",
                           "n_islands", "n_keys"]})
    mm = ds.aggregate(Min("o_orderkey"), Max("o_orderkey"))
    if not mm or mm.get("min(o_orderkey)") is None:
        return empty
    kmin, kmax = int(mm["min(o_orderkey)"]), int(mm["max(o_orderkey)"])
    span = max(1, (kmax - kmin + 1) // target_buckets)

    def pre(t: pa.Table) -> pa.Table:
        keys = np.unique(t.column("o_orderkey").to_numpy(
            zero_copy_only=False).astype(np.int64))
        return pa.table({"key": pa.array(keys, pa.int64()),
                         "bkt": pa.array((keys - kmin) // span, pa.int64())})

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        keys = np.unique(g["key"].to_numpy(np.int64))
        brk = np.flatnonzero(np.diff(keys) > 1)
        starts = keys[np.r_[0, brk + 1]]
        ends = keys[np.r_[brk, len(keys) - 1]]
        rows = [(0, len(keys), len(starts), int(starts[0]), int(ends[0]),
                 int(starts[-1]), int(ends[-1]))]
        if len(starts) > 2:
            s_i, e_i = starts[1:-1], ends[1:-1]
            ln = e_i - s_i + 1
            order = np.lexsort((s_i, -ln))[:k]
            rows += [(1, int(s_i[i]), int(e_i[i]), 0, 0, 0, 0)
                     for i in order]
        return pd.DataFrame(rows, columns=["kind", "v1", "v2", "v3", "v4",
                                           "v5", "v6"]).astype("int64")

    agg = ds.map_batches(pre, batch_format="pyarrow",
                         zero_copy_batch=True) \
        .groupby("bkt").map_groups(per_bucket, batch_format="pandas") \
        .to_pandas()
    if agg.empty or "kind" not in agg.columns:
        return empty
    meta = agg[agg["kind"] == 0].sort_values("v3").reset_index(drop=True)
    interior = agg[agg["kind"] == 1]
    cand = [(int(r.v1), int(r.v2)) for r in interior.itertuples()]
    n_keys = int(meta["v1"].sum())
    n_islands = int(meta["v2"].sum())
    open_isl = None
    for m in meta.itertuples():
        first = (int(m.v3), int(m.v4))
        last = (int(m.v5), int(m.v6))
        single = int(m.v2) == 1
        if open_isl is not None and open_isl[1] + 1 == first[0]:
            n_islands -= 1
            open_isl = (open_isl[0], first[1])
            if single:
                continue  # the whole bucket chains on
            cand.append(open_isl)
            open_isl = last
        else:
            if open_isl is not None:
                cand.append(open_isl)
            if single:
                open_isl = first
            else:
                cand.append(first)
                open_isl = last
    if open_isl is not None:
        cand.append(open_isl)
    cf = pd.DataFrame(cand, columns=["start_key", "end_key"])
    cf["island_len"] = cf["end_key"] - cf["start_key"] + 1
    cf = cf.sort_values(["island_len", "start_key"],
                        ascending=[False, True]).head(k).reset_index(
                            drop=True)
    cf.insert(0, "rk", np.arange(1, len(cf) + 1, dtype=np.int64))
    cf["n_islands"] = n_islands
    cf["n_keys"] = n_keys
    return cf.astype("int64")


def customer_part_hits(sf_dir: str, iters: int = 3, k: int = 15,
                       small_edges: int = 5_000_000) -> pd.DataFrame:
    """HITS hubs & authorities over the bipartite customer -> part purchase
    graph (hub = a customer whose basket concentrates on authoritative
    parts; authority = a part bought by strong hubs) — the mutual-
    reinforcement companion to the PageRank family. The whole iteration is
    INTEGER-exact: scores live on a micro grid (int64), each half-round is
    an int64 sum over edges (order-immaterial), and the only float math is
    ONE pinned normalization expression per half-round —
    round((1e6 * (n_side * raw)) / total) — so the unrolled SQL twin
    compares value-exact after every round.

    Scale shape: edges = one distinct-(cust,part) exchange off the
    orders x lineitem bucket join; each half-round is a bucket join of the
    edge list with the node-domain-sized score vector plus a grouped sum —
    the exchange never exceeds O(edges). Below ``small_edges`` the
    iteration runs on the driver (factorized bincount, bit-identical by
    the pinned expression; equivalence test pins both paths)."""
    from ..ops.agg import grouped_sums_ds, round_away, topk_ds
    from ..ops.joins import bucket_join

    orders = rd.read_parquet(_t(sf_dir, "orders"),
                             columns=["o_orderkey", "o_custkey"])
    li = rd.read_parquet(_t(sf_dir, "lineitem"),
                         columns=["l_orderkey", "l_partkey"]) \
        .map_batches(lambda t: t.rename_columns(["o_orderkey", "l_partkey"]),
                     batch_format="pyarrow")
    joined = bucket_join(orders, li, on="o_orderkey")
    pairs = joined.map_batches(
        lambda t: pa.table({"c": t.column("o_custkey"),
                            "p": t.column("l_partkey")}),
        batch_format="pyarrow")
    edges = grouped_sums_ds(pairs, keys=["c", "p"], sum_cols={}) \
        .materialize()
    empty = pd.DataFrame({"side": pd.Series(dtype="object"),
                          "rk": pd.Series(dtype="int64"),
                          "key": pd.Series(dtype="int64"),
                          "score_micro": pd.Series(dtype="int64")})
    n_edges = edges.count()
    if n_edges == 0:
        return empty

    def finish(auth: pd.DataFrame, hub: pd.DataFrame) -> pd.DataFrame:
        auth = auth.reset_index(drop=True)
        hub = hub.reset_index(drop=True)
        out = pd.concat([
            pd.DataFrame({"side": "authority",
                          "rk": np.arange(1, len(auth) + 1),
                          "key": auth["key"],
                          "score_micro": auth["score"]}),
            pd.DataFrame({"side": "hub",
                          "rk": np.arange(1, len(hub) + 1),
                          "key": hub["key"],
                          "score_micro": hub["score"]}),
        ], ignore_index=True)
        out["rk"] = out["rk"].astype("int64")
        out["key"] = out["key"].astype("int64")
        out["score_micro"] = out["score_micro"].astype("int64")
        return out

    if n_edges <= small_edges:
        cs, ps = [], []
        for b in edges.iter_batches(batch_size=None, batch_format="pyarrow"):
            cs.append(b.column("c").to_numpy(zero_copy_only=False))
            ps.append(b.column("p").to_numpy(zero_copy_only=False))
        c_all = np.concatenate(cs).astype(np.int64)
        p_all = np.concatenate(ps).astype(np.int64)
        cust, c_idx = np.unique(c_all, return_inverse=True)
        part, p_idx = np.unique(p_all, return_inverse=True)
        ncf, npf = np.float64(len(cust)), np.float64(len(part))
        h = np.full(len(cust), 1_000_000, dtype=np.int64)
        a = np.zeros(len(part), dtype=np.int64)
        for _ in range(iters):
            ar = np.bincount(p_idx, weights=h[c_idx].astype(np.float64),
                             minlength=len(part))
            s = int(ar.astype(np.int64).sum())
            a = round_away((1e6 * (npf * ar)) / np.float64(s), 0) \
                .astype(np.int64)
            hr = np.bincount(c_idx, weights=a[p_idx].astype(np.float64),
                             minlength=len(cust))
            t = int(hr.astype(np.int64).sum())
            h = round_away((1e6 * (ncf * hr)) / np.float64(t), 0) \
                .astype(np.int64)
        adf = pd.DataFrame({"key": part, "score": a}) \
            .sort_values(["score", "key"], ascending=[False, True]).head(k)
        hdf = pd.DataFrame({"key": cust, "score": h}) \
            .sort_values(["score", "key"], ascending=[False, True]).head(k)
        return finish(adf, hdf)

    custs = grouped_sums_ds(edges, keys=["c"], sum_cols={}).materialize()
    parts = grouped_sums_ds(edges, keys=["p"], sum_cols={}).materialize()
    ncf, npf = np.float64(custs.count()), np.float64(parts.count())
    h_ds = custs.map_batches(
        lambda t: t.append_column(
            "h", pa.array(np.full(t.num_rows, 1_000_000, np.int64))),
        batch_format="pyarrow").materialize()
    a_ds = None
    for _ in range(iters):
        j1 = bucket_join(edges, h_ds, on="c")
        a_raw = grouped_sums_ds(
            j1.map_batches(lambda t: t.select(["p", "h"]),
                           batch_format="pyarrow"),
            keys=["p"], sum_cols={"ar": "h"}).materialize()
        s = np.float64(a_raw.sum("ar"))

        def renorm_a(t: pa.Table, _s=s) -> pa.Table:
            ar = t.column("ar").to_numpy(zero_copy_only=False) \
                .astype(np.float64)
            a = round_away((1e6 * (npf * ar)) / _s, 0).astype(np.int64)
            return pa.table({"p": t.column("p"),
                             "a": pa.array(a, pa.int64())})

        a_ds = a_raw.map_batches(renorm_a, batch_format="pyarrow") \
            .materialize()
        j2 = bucket_join(edges, a_ds, on="p")
        h_raw = grouped_sums_ds(
            j2.map_batches(lambda t: t.select(["c", "a"]),
                           batch_format="pyarrow"),
            keys=["c"], sum_cols={"hr": "a"}).materialize()
        t_tot = np.float64(h_raw.sum("hr"))

        def renorm_h(t: pa.Table, _t=t_tot) -> pa.Table:
            hr = t.column("hr").to_numpy(zero_copy_only=False) \
                .astype(np.float64)
            h = round_away((1e6 * (ncf * hr)) / _t, 0).astype(np.int64)
            return pa.table({"c": t.column("c"),
                             "h": pa.array(h, pa.int64())})

        h_ds = h_raw.map_batches(renorm_h, batch_format="pyarrow") \
            .materialize()
    adf = topk_ds(a_ds, by=["a", "p"], ascending=[False, True], k=k,
                  columns=["p", "a"]).rename(columns={"p": "key",
                                                      "a": "score"})
    hdf = topk_ds(h_ds, by=["h", "c"], ascending=[False, True], k=k,
                  columns=["c", "h"]).rename(columns={"c": "key",
                                                      "h": "score"})
    return finish(adf, hdf)


def customer_rfm_segments(sf_dir: str) -> pd.DataFrame:
    """RFM customer segmentation: quintile-bin each customer on Recency
    (latest order epoch-day), Frequency (order count) and Monetary (spend
    in whole dollars), then roll up the 5x5x5 segment grid. The bin rule is
    the pinned exact-rank formula ``(rank-1)*5 // n + 1`` over the
    deterministic (metric, custkey) order — NOT SQL ntile(), whose
    remainder placement differs; both engines apply the same rule.

    Scale shape: per-customer aggregates via per-batch partials + one
    custkey co-grouped finish; each quintile rank is the
    ``global_row_number`` machinery (NO global sort — key-sized count
    table prefix-summed on the driver, offsets broadcast onto per-key
    co-groups; monetary ranks on whole DOLLARS to keep the key domain
    bounded, recency/frequency domains are bounded by construction); the
    final exchange is the <=125-row segment grid.

    Oracle: SQL window row_number + the same bin formula — see
    __ray_entry__.
    """
    from ..ops.agg import global_row_number

    ds = rd.read_parquet(_t(sf_dir, "orders"),
                         columns=["o_custkey", "o_orderdate", "o_totalprice"])
    cols = ["r_bin", "f_bin", "m_bin", "n_customers", "total_cents"]
    empty = pd.DataFrame({c: pd.Series(dtype="int64") for c in cols})

    def prep(t: pa.Table) -> pa.Table:
        day = pc.cast(pc.cast(t.column("o_orderdate"), pa.date32()),
                      pa.int32()).cast(pa.int64())
        x = pa.table({"o_custkey": t.column("o_custkey"), "day": day,
                      "cents": _scale_i64(t.column("o_totalprice"), 100.0)})
        agg = x.group_by(["o_custkey"]).aggregate(
            [("day", "max"), ("cents", "sum"), ([], "count_all")])
        return agg.rename_columns(["o_custkey", "day_part", "cents_part",
                                   "n_part"])

    parts = ds.map_batches(prep, batch_format="pyarrow",
                           zero_copy_batch=True)

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.drop(columns=["__bucket"])
             .groupby("o_custkey", as_index=False)
             .agg(rec_day=("day_part", "max"), cents=("cents_part", "sum"),
                  freq=("n_part", "sum")))
        g["m_key"] = g["cents"] // 100  # whole dollars: bounded rank domain
        return g.astype({"rec_day": "int64", "cents": "int64",
                         "freq": "int64", "m_key": "int64"})

    cust = _keyed_segments(parts, "o_custkey").map_groups(
        finish, batch_format="pandas").materialize()
    n = cust.count()
    if n == 0:
        return empty
    ranked = global_row_number(cust, "rec_day", "o_custkey", rank_col="rr")
    ranked = global_row_number(ranked, "freq", "o_custkey", rank_col="fr")
    ranked = global_row_number(ranked, "m_key", "o_custkey", rank_col="mr")

    def bins(t: pa.Table) -> pa.Table:
        out = {}
        for col, b in (("rr", "r_bin"), ("fr", "f_bin"), ("mr", "m_bin")):
            rn = t.column(col).to_numpy(zero_copy_only=False)
            out[b] = pa.array((rn - 1) * 5 // n + 1, pa.int64())
        x = pa.table({**out, "cents": t.column("cents")})
        agg = x.group_by(["r_bin", "f_bin", "m_bin"]).aggregate(
            [("cents", "sum"), ([], "count_all")])
        return agg.rename_columns(["r_bin", "f_bin", "m_bin", "cents_part",
                                   "n_part"])

    seg = grouped_sums(ranked.map_batches(bins, batch_format="pyarrow"),
                       keys=["r_bin", "f_bin", "m_bin"],
                       sum_cols={"total_cents": "cents_part",
                                 "n_customers": "n_part"})
    if seg.empty:
        return empty
    seg = seg.astype({c: "int64" for c in cols})
    return (seg[cols].sort_values(["r_bin", "f_bin", "m_bin"])
            .reset_index(drop=True))


def event_markov_stationary(sf_dir: str, iters: int = 3) -> pd.DataFrame:
    """Approximate stationary distribution of the per-user event-type
    Markov chain: power iteration from the uniform vector over the
    transition matrix of ``event_type_transitions`` (states = types that
    appear as a transition SOURCE; transitions into sink-only types are
    dropped and rows renormalized, identically in SQL). Each round's
    vector is quantized to 6dp (round half away from zero) so the
    distributed float-sum order cannot drift from the SQL twin — the
    entity_pagerank discipline.

    Scale shape: the transition counts are the distributed co-grouped
    pair partials (exchange = the |types|^2 matrix, not the pair stream);
    the iteration itself is |types|^2 driver math — state that is tiny by
    construction.

    Oracle: the lead()-window pair CTE + ``iters`` unrolled rounds — see
    __ray_entry__.
    """
    mat = event_type_transitions(sf_dir)[["prev_type", "next_type",
                                          "n_pairs"]]
    cols = ["event_type", "p_stat_micro"]
    if mat.empty:
        return pd.DataFrame({"event_type": pd.Series(dtype="object"),
                             "p_stat_micro": pd.Series(dtype="int64")})
    states = sorted(mat["prev_type"].unique())
    idx = {s: i for i, s in enumerate(states)}
    k = len(states)
    mat = mat[mat["next_type"].isin(idx)]
    p = np.zeros((k, k), dtype=np.float64)
    for prev, nxt, c in mat.itertuples(index=False):
        p[idx[prev], idx[nxt]] = float(c)
    row_tot = p.sum(axis=1)
    nz = row_tot > 0
    p[nz] = p[nz] / row_tot[nz, None]
    pi = np.full(k, 1.0 / k, dtype=np.float64)
    for _ in range(iters):
        pi = round_away(pi @ p, 6)
    return pd.DataFrame({
        "event_type": states,
        "p_stat_micro": round_away(pi * 1e6, 0).astype(np.int64)})


def customer_k_anonymity(sf_dir: str) -> pd.DataFrame:
    """k-anonymity audit over the customer quasi-identifiers
    (nation, market segment) — the privacy-governance check a
    training-data release runs before shipping: for each threshold k,
    how many QI equivalence classes have fewer than k members and how
    many rows those classes expose. Returns one row per k in (2, 5, 10,
    20): (k, n_groups_below, n_rows_below, n_groups_total).

    Shape: per-batch partial counts over the BOUNDED QI domain
    (|nations| x |segments|); the class-size table is QI-domain-sized by
    definition, so the driver rollup is constant-size at any corpus
    scale. Oracle: SQL HAVING/“FILTER over group sizes” twin.
    """
    ds = rd.read_parquet(_t(sf_dir, "customer"),
                         columns=["c_nationkey", "c_mktsegment"])

    def partial(t: pa.Table) -> pa.Table:
        agg = t.group_by(["c_nationkey", "c_mktsegment"]).aggregate(
            [([], "count_all")])
        return agg.rename_columns(["c_nationkey", "c_mktsegment", "n_part"])

    sizes = grouped_sums(ds.map_batches(partial, batch_format="pyarrow",
                                        zero_copy_batch=True),
                         keys=["c_nationkey", "c_mktsegment"],
                         sum_cols={"n": "n_part"})
    cols = ["k", "n_groups_below", "n_rows_below", "n_groups_total"]
    if sizes.empty:
        return pd.DataFrame({c: pd.Series(dtype="int64") for c in cols})
    n = sizes["n"].astype("int64").to_numpy()
    rows = [(k, int((n < k).sum()), int(n[n < k].sum()), len(n))
            for k in (2, 5, 10, 20)]
    return pd.DataFrame(rows, columns=cols).astype("int64")


def hourly_value_p95(sf_dir: str, k: int = 50) -> pd.DataFrame:
    """Exact p95 of event value (cents) per tumbling calendar hour — the
    ops-telemetry windowed percentile. Discrete rule, all-integer:
    p95 = min cents whose cumulative count satisfies ``20*cum >= 19*n``
    (i.e. cum >= 0.95n without touching floats), so the SQL window twin
    compares exactly. Top-``k`` busiest hours by (n DESC, hour).

    Shape: per-batch (hour, cents) partial counts shrink the exchange to
    distinct pairs; hour co-groups compute each hour's CDF pick in one
    sorted pass per bucket and emit one row per hour.
    """
    ds = rd.read_parquet(_t(sf_dir, "events"), columns=["ts", "value"])
    cols = ["hour", "n", "p95_cents"]
    empty = pd.DataFrame({"hour": pd.Series(dtype="datetime64[us]")}
                         | {c: pd.Series(dtype="int64") for c in cols[1:]})

    def prep(t: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(t.column("ts"), unit="hour")
        x = pa.table({"hour": hour, "cents": _scale_i64(t.column("value"),
                                                        100.0)})
        agg = x.group_by(["hour", "cents"]).aggregate([([], "count_all")])
        return agg.rename_columns(["hour", "cents", "n_part"])

    parts = ds.map_batches(prep, batch_format="pyarrow",
                           zero_copy_batch=True)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.drop(columns=["__bucket"])
             .groupby(["hour", "cents"], as_index=False)
             .agg(c=("n_part", "sum"))
             .sort_values(["hour", "cents"], kind="mergesort"))
        out = []
        for hour, sub in g.groupby("hour", sort=False):
            cum = sub["c"].to_numpy(np.int64).cumsum()
            n = int(cum[-1])
            pick = int(np.searchsorted(20 * cum, 19 * n, side="left"))
            out.append((hour, n, int(sub["cents"].iloc[pick])))
        return pd.DataFrame(out, columns=cols)

    res = _keyed_segments(parts, "hour").map_groups(
        per_bucket, batch_format="pandas").to_pandas()
    if res.empty or "hour" not in res.columns:
        return empty
    res = res.sort_values(["n", "hour"], ascending=[False, True]).head(k)
    return (res.reset_index(drop=True)
            .astype({"n": "int64", "p95_cents": "int64"}))


def user_event_type_runs(sf_dir: str, k: int = 25) -> pd.DataFrame:
    """Run-length encoding of each user's event stream: maximal runs of
    consecutive same-type events in (ts, event_id) order, reported as the
    top-``k`` longest runs (run_len DESC, user, start, type) — the
    SCD2/sequence-compaction shape: every interval row is (key, value,
    valid_from, valid_to).

    Shape: user co-groups detect ALL users' run boundaries in one
    vectorized pass per bucket (boundary = user change OR type change) and
    emit only the bucket-local top-k; runs never cross buckets because
    users don't. Oracle: the rn - rn_per_(user,type) islands trick — see
    __ray_entry__.
    """
    ds = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["user_id", "ts", "event_id", "event_type"])
    cols = ["user_id", "event_type", "run_len", "run_start", "run_end"]
    empty = pd.DataFrame({
        "user_id": pd.Series(dtype="int64"),
        "event_type": pd.Series(dtype="object"),
        "run_len": pd.Series(dtype="int64"),
        "run_start": pd.Series(dtype="datetime64[us]"),
        "run_end": pd.Series(dtype="datetime64[us]")})

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return empty
        g = (g.drop(columns=["__bucket"])
             .sort_values(["user_id", "ts", "event_id"], kind="mergesort"))
        uid = g["user_id"].to_numpy()
        et = g["event_type"].to_numpy()
        new_run = np.r_[True, (uid[1:] != uid[:-1]) | (et[1:] != et[:-1])]
        rid = np.cumsum(new_run)
        out = (pd.DataFrame({"rid": rid, "user_id": uid, "event_type": et,
                             "ts": g["ts"].to_numpy()})
               .groupby("rid", sort=False)
               .agg(user_id=("user_id", "first"),
                    event_type=("event_type", "first"),
                    run_len=("ts", "size"), run_start=("ts", "min"),
                    run_end=("ts", "max"))
               .reset_index(drop=True))
        return (out.sort_values(
            ["run_len", "user_id", "run_start", "event_type"],
            ascending=[False, True, True, True], kind="mergesort")
            .head(k).astype({"user_id": "int64", "run_len": "int64"}))

    res = _keyed_segments(ds, "user_id").map_groups(
        per_bucket, batch_format="pandas").to_pandas()
    if res.empty or "run_len" not in res.columns:
        return empty
    return (res.sort_values(["run_len", "user_id", "run_start",
                             "event_type"],
                            ascending=[False, True, True, True],
                            kind="mergesort")
            .head(k).reset_index(drop=True)[cols])


# Candidate functional dependencies audited by functional_dependency_audit:
# (name, table, lhs, rhs). Mix of expected-to-hold (PK-backed) and
# expected-to-fail dependencies so both outcomes stay externally gated.
_FD_CANDIDATES = (
    ("orderkey_to_custkey", "orders", "o_orderkey", "o_custkey"),
    ("orderkey_to_priority", "orders", "o_orderkey", "o_orderpriority"),
    ("custkey_to_priority", "orders", "o_custkey", "o_orderpriority"),
    ("orderkey_to_returnflag", "lineitem", "l_orderkey", "l_returnflag"),
    ("partkey_to_suppkey", "lineitem", "l_partkey", "l_suppkey"),
)


def functional_dependency_audit(sf_dir: str) -> pd.DataFrame:
    """Functional-dependency discovery audit (the schema-profiling check a
    warehouse runs before declaring constraints): for each candidate
    LHS -> RHS dependency, how many LHS values map to MORE than one RHS
    value, and the worst fan-out. PK-backed candidates must report zero
    violations; many-to-many candidates quantify how far from functional
    they are. One row per candidate: (fd, n_lhs, n_violating_lhs,
    max_rhs_variants).

    Shape: per-batch distinct (lhs, rhs) pairs are the combiner (the
    exchange carries distinct pairs, never rows); LHS-bucketed co-groups
    count RHS variants per LHS locally (an LHS never spans buckets) and
    emit per-bucket partials — driver state is one row per candidate.

    Oracle: SQL count(DISTINCT rhs) HAVING twin — see __ray_entry__.
    """
    from ..ops.joins import _mix_bucket

    cols = ["fd", "n_lhs", "n_violating_lhs", "max_rhs_variants"]
    rows = []
    for name, table, lhs, rhs in _FD_CANDIDATES:
        ds = rd.read_parquet(_t(sf_dir, table), columns=[lhs, rhs])

        def distinct_pairs(t: pa.Table, _l=lhs, _r=rhs) -> pa.Table:
            return t.group_by([_l, _r]).aggregate([])

        def add_bucket(t: pa.Table, _l=lhs) -> pa.Table:
            return t.append_column("__b", _mix_bucket(t.column(_l), 64))

        def per_bucket(g: pd.DataFrame, _l=lhs, _r=rhs) -> pd.DataFrame:
            g = (g.drop(columns=["__b"]).drop_duplicates([_l, _r])
                 .groupby(_l, as_index=False).agg(v=(_r, "size")))
            return pd.DataFrame({
                "n_lhs_part": [len(g)],
                "n_viol_part": [int((g["v"] > 1).sum())],
                "max_v_part": [int(g["v"].max()) if len(g) else 0]})

        parts = (ds.map_batches(distinct_pairs, batch_format="pyarrow",
                                zero_copy_batch=True)
                 .map_batches(add_bucket, batch_format="pyarrow")
                 .groupby("__b").map_groups(per_bucket,
                                            batch_format="pandas")
                 .to_pandas())
        if parts.empty or "n_lhs_part" not in parts.columns:
            rows.append((name, 0, 0, 0))
        else:
            rows.append((name, int(parts["n_lhs_part"].sum()),
                         int(parts["n_viol_part"].sum()),
                         int(parts["max_v_part"].max())))
    out = pd.DataFrame(rows, columns=cols)
    return (out.astype({c: "int64" for c in cols[1:]})
            .sort_values("fd").reset_index(drop=True))


def logreg_click_purchase(sf_dir: str, iters: int = 3,
                          lr: float = 0.05) -> pd.DataFrame:
    """Distributed LOGISTIC REGRESSION TRAINING on Ray Data: fit
    P(purchase | value) vs clicks by full-batch gradient descent —
    the model-training dataflow itself (broadcast parameters -> per-batch
    vectorized sigmoid -> gradient partials -> driver update), not just
    feature statistics. Feature x = cents/1e4, label y = 1 for purchase.

    Cross-engine exactness (the pagerank/HITS discipline applied to SGD):
    every per-row gradient term is quantized to int64 micro BEFORE the
    sum, so the gradient reduction is an order-exact integer sum; the
    parameter update is ONE pinned IEEE expression per round, 6dp-rounded
    (a 6dp decimal re-parses to the identical double on both engines), so
    both engines carry bit-identical (a, b) into the next round's libm
    exp. Returns one row per round: (iter, a_nano, b_nano).

    Shape: the (x, y) projection is materialized once and re-scanned per
    round; the exchange per round is one (sa, sb) int pair per block.
    Oracle: ``iters`` unrolled MATERIALIZED rounds — see __ray_entry__.
    """
    ds = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["event_type", "value"])

    def prep(t: pa.Table) -> pa.Table:
        et = t.column("event_type")
        if pa.types.is_dictionary(et.type):
            et = et.cast(pa.string())
        keep = pc.is_in(et, value_set=pa.array(["click", "purchase"]))
        x = pa.table({"et": et, "value": t.column("value")}).filter(keep)
        cents = _scale_i64(x.column("value"), 100.0)
        return pa.table({
            "x": pc.divide(cents.cast(pa.float64()), pa.scalar(10000.0)),
            "y": pc.cast(pc.equal(x.column("et"), "purchase"),
                         pa.int8()).cast(pa.float64())})

    pts = ds.map_batches(prep, batch_format="pyarrow",
                         zero_copy_batch=True).materialize()
    n = pts.count()
    if n == 0:
        return pd.DataFrame({"iter": pd.Series(dtype="int64"),
                             "a_nano": pd.Series(dtype="int64"),
                             "b_nano": pd.Series(dtype="int64")})
    a, b = 0.0, 0.0
    rows = []
    for it in range(1, iters + 1):
        def grad_part(t: pa.Table, _a=a, _b=b) -> pa.Table:
            x = t.column("x").to_numpy(zero_copy_only=False)
            y = t.column("y").to_numpy(zero_copy_only=False)
            p = 1.0 / (1.0 + np.exp(-(_a + _b * x)))
            ga = round_away(1e6 * (p - y), 0).astype(np.int64)
            gb = round_away(1e6 * ((p - y) * x), 0).astype(np.int64)
            return pa.table({"sa": pa.array([int(ga.sum())], pa.int64()),
                             "sb": pa.array([int(gb.sum())], pa.int64())})

        parts = pts.map_batches(grad_part, batch_format="pyarrow",
                                zero_copy_batch=True).to_pandas()
        sa, sb = int(parts["sa"].sum()), int(parts["sb"].sum())
        # pinned update expression (verbatim in SQL, left-assoc * /):
        a = float(round_away(a - lr * (float(sa) / 1e6) / n, 6))
        b = float(round_away(b - lr * (float(sb) / 1e6) / n, 6))
        rows.append((it, int(round_away(a * 1e9, 0)),
                     int(round_away(b * 1e9, 0))))
    return pd.DataFrame(rows, columns=["iter", "a_nano", "b_nano"]) \
        .astype("int64")


def stump_click_purchase(sf_dir: str) -> pd.DataFrame:
    """Depth-1 decision-tree TRAINING (the boosting weak learner): find
    the cents threshold that best separates clicks from purchases,
    predicting each side's majority class. Every quantity in the
    threshold scan is an exact integer (class counts from the (cents,
    class) counting histogram, correct(t) = max below-majorities + max
    above-majorities), so the argmax is deterministic (ties -> smallest
    threshold) and the SQL window twin compares exactly; only the final
    accuracy ratio is floating (one pinned expression, nano-rounded).
    Returns one row: (threshold_cents, n_correct, n, acc_nano).

    Shape: per-batch (cents, y) partial counts shrink the exchange to the
    bounded price grid; the scan itself is one pass over that
    domain-sized histogram.
    """
    ds = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["event_type", "value"])
    cols = ["threshold_cents", "n_correct", "n", "acc_nano"]
    empty = pd.DataFrame({c: pd.Series(dtype="int64") for c in cols})

    def prep(t: pa.Table) -> pa.Table:
        et = t.column("event_type")
        if pa.types.is_dictionary(et.type):
            et = et.cast(pa.string())
        keep = pc.is_in(et, value_set=pa.array(["click", "purchase"]))
        x = pa.table({"et": et, "value": t.column("value")}).filter(keep)
        y = pc.cast(pc.equal(x.column("et"), "purchase"), pa.int64())
        h = pa.table({"cents": _scale_i64(x.column("value"), 100.0),
                      "p": y,
                      "c": pc.subtract(pa.scalar(1, pa.int64()), y)})
        agg = h.group_by(["cents"]).aggregate([("p", "sum"), ("c", "sum")])
        return agg.rename_columns(["cents", "p_part", "c_part"])

    hist = grouped_sums(ds.map_batches(prep, batch_format="pyarrow",
                                       zero_copy_batch=True),
                        keys=["cents"],
                        sum_cols={"p": "p_part", "c": "c_part"})
    if hist.empty:
        return empty
    hist = hist.sort_values("cents").reset_index(drop=True)
    p = hist["p"].astype("int64").to_numpy()
    c = hist["c"].astype("int64").to_numpy()
    tp, tc = int(p.sum()), int(c.sum())
    pb, cb = np.cumsum(p), np.cumsum(c)
    correct = (np.maximum(pb, cb)
               + np.maximum(tp - pb, tc - cb))
    i = int(np.argmax(correct))  # first max = smallest-threshold tie-break
    n = tp + tc
    best = int(correct[i])
    return pd.DataFrame({
        "threshold_cents": [int(hist["cents"].iloc[i])],
        "n_correct": [best], "n": [n],
        "acc_nano": [int(round_away(1e9 * (np.float64(best) / n), 0))],
    }).astype("int64")


def adaboost_click_purchase(sf_dir: str) -> pd.DataFrame:
    """Two-round ADABOOST over decision stumps — ensemble training on the
    Dataset dataflow: round 1 fits the exact-integer stump, reweights the
    (cents, class) histogram cells by correctness (exp(±alpha1), alpha
    6dp-pinned so both engines carry the identical double), round 2 fits
    a weighted stump on micro-quantized integer cell masses, and the
    final ensemble sign(alpha1*h1 + alpha2*h2) is scored on the same
    histogram. One row: (t1_cents, alpha1_nano, t2_cents, alpha2_nano,
    n_correct_ensemble, n).

    Exactness chain: raw counts are int64; every weighted mass is
    round(1e6 * count * w) BEFORE summing (order-exact int scans); both
    alphas are round(0.5*ln(correct/wrong), 6) over exact integers;
    majority labels break ties toward class 0. Shape: ONE histogram pass
    over the data (bounded price grid); the boosting rounds are
    domain-sized driver math — the HITS small-path shape.

    Oracle: the same two scans + reweighting unrolled in SQL — see
    __ray_entry__.
    """
    import math

    ds = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["event_type", "value"])
    cols = ["t1_cents", "alpha1_nano", "t2_cents", "alpha2_nano",
            "n_correct_ensemble", "n"]
    empty = pd.DataFrame({c: pd.Series(dtype="int64") for c in cols})

    def prep(t: pa.Table) -> pa.Table:
        et = t.column("event_type")
        if pa.types.is_dictionary(et.type):
            et = et.cast(pa.string())
        keep = pc.is_in(et, value_set=pa.array(["click", "purchase"]))
        x = pa.table({"et": et, "value": t.column("value")}).filter(keep)
        y = pc.cast(pc.equal(x.column("et"), "purchase"), pa.int64())
        h = pa.table({"cents": _scale_i64(x.column("value"), 100.0),
                      "p": y,
                      "c": pc.subtract(pa.scalar(1, pa.int64()), y)})
        agg = h.group_by(["cents"]).aggregate([("p", "sum"), ("c", "sum")])
        return agg.rename_columns(["cents", "p_part", "c_part"])

    hist = grouped_sums(ds.map_batches(prep, batch_format="pyarrow",
                                       zero_copy_batch=True),
                        keys=["cents"],
                        sum_cols={"p": "p_part", "c": "c_part"})
    if hist.empty:
        return empty
    hist = hist.sort_values("cents").reset_index(drop=True)
    cents = hist["cents"].astype("int64").to_numpy()
    p = hist["p"].astype("int64").to_numpy()
    c = hist["c"].astype("int64").to_numpy()

    def scan(mp, mc):
        """Best threshold over integer masses; ties -> smallest cents,
        majority labels tie toward class 0 (pinned pb > cb rule)."""
        tp, tc = int(mp.sum()), int(mc.sum())
        pb, cb = np.cumsum(mp), np.cumsum(mc)
        corr = np.maximum(pb, cb) + np.maximum(tp - pb, tc - cb)
        i = int(np.argmax(corr))
        bl = 1 if pb[i] > cb[i] else 0
        al = 1 if (tp - pb[i]) > (tc - cb[i]) else 0
        return i, int(corr[i]), tp + tc, bl, al

    i1, corr1, tot1, bl1, al1 = scan(p, c)
    t1 = int(cents[i1])
    wrong1 = tot1 - corr1
    # pinned: 0.5 * ln(correct / wrong), 6dp (verbatim in SQL)
    alpha1 = float(round_away(
        0.5 * math.log(float(corr1) / wrong1), 6)) if wrong1 else 0.0
    pred1 = np.where(cents <= t1, bl1, al1)
    w_right, w_wrong = math.exp(-alpha1), math.exp(alpha1)
    mp = round_away(1e6 * p * np.where(pred1 == 1, w_right, w_wrong),
                    0).astype(np.int64)
    mc = round_away(1e6 * c * np.where(pred1 == 0, w_right, w_wrong),
                    0).astype(np.int64)
    i2, corr2, tot2, bl2, al2 = scan(mp, mc)
    t2 = int(cents[i2])
    wrong2 = tot2 - corr2
    alpha2 = float(round_away(
        0.5 * math.log(float(corr2) / wrong2), 6)) if wrong2 else 0.0
    pred2 = np.where(cents <= t2, bl2, al2)
    score = (alpha1 * (2 * pred1 - 1).astype(np.float64)
             + alpha2 * (2 * pred2 - 1).astype(np.float64))
    pred_e = (score > 0).astype(np.int64)
    n_corr = int((p * (pred_e == 1) + c * (pred_e == 0)).sum())
    return pd.DataFrame({
        "t1_cents": [t1],
        "alpha1_nano": [int(round_away(alpha1 * 1e9, 0))],
        "t2_cents": [t2],
        "alpha2_nano": [int(round_away(alpha2 * 1e9, 0))],
        "n_correct_ensemble": [n_corr],
        "n": [int(p.sum() + c.sum())],
    }).astype("int64")
