"""Join strategies for Ray Data datasets.

- ``broadcast_join``: small side shipped ONCE via ``ray.put`` and joined
  map-side inside ``map_batches`` — no shuffle. The right pattern whenever
  one side fits in a worker's heap (dimension tables, filtered key sets).
- ``semi_filter``: broadcast key-set membership filter (semi/anti join).
- ``bucket_join``: both sides large — explicit hash-partitioned join: add
  ``__bucket = mix64(key) % B`` to both sides, union on an aligned schema,
  co-group per bucket, pandas merge inside ``map_groups``. One shuffle per
  side; skew bounded by bucket count (salt hot keys upstream when a single
  key dominates a bucket).

Bucket sizing rule (``auto_num_buckets``): each bucket becomes ONE pandas
frame processed in ONE ``map_groups`` call, so the binding constraint is the
per-bucket memory bound, not parallelism: ``num_buckets >= in_memory_bytes /
_BUCKET_TARGET_BYTES``. A fixed count (the old ``num_buckets=32`` default)
silently violates that at 100-TB inputs — a 100-TB lineitem needs ~10^5
buckets to keep each under a worker heap. When callers don't pass an explicit
count, the joins estimate input size from the datasets' parquet file metadata
(``ds.input_files()`` — available without executing the plan) times a decoded
in-memory expansion factor, and round up to the next power of two in
[_MIN_BUCKETS, _MAX_BUCKETS]. Derived / in-memory datasets (no input files)
fall back to _MIN_BUCKETS — callers with better knowledge (e.g. dedup's
candidate-edge joins, bounded by LSH output) pass explicit counts.
"""

from __future__ import annotations

import os

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

_BUCKET_TARGET_BYTES = 256 << 20  # max decoded bytes of input per bucket
_PARQUET_EXPANSION = 4            # decoded-in-memory / on-disk-parquet ratio
_MIN_BUCKETS = 32
_MAX_BUCKETS = 1 << 16


def _files_bytes(ds) -> int:
    """On-disk bytes of a dataset's backing files (0 when not file-backed).
    ``input_files()`` reads plan metadata only — no execution is triggered."""
    try:
        files = ds.input_files()
    except Exception:
        return 0
    total = 0
    for f in files:
        try:
            total += os.path.getsize(f)
        except OSError:
            pass
    return total


def _est_memory_bytes(ds) -> int:
    """Best-available in-memory size estimate WITHOUT triggering execution.

    Materialized datasets know their exact in-memory bytes (``size_bytes()``
    on executed blocks) — preferred, because a heavily filtered or
    pre-aggregated derived dataset reports its *source* parquet files through
    ``input_files()`` and would be grossly over-bucketed from lineage bytes.
    Lazy datasets fall back to the parquet file estimate."""
    from ray.data.dataset import MaterializedDataset

    if isinstance(ds, MaterializedDataset):
        try:
            sz = ds.size_bytes()
            if sz is not None:
                return int(sz)
        except Exception:
            pass
    return _files_bytes(ds) * _PARQUET_EXPANSION


def auto_num_buckets(*datasets, target_bytes: int = _BUCKET_TARGET_BYTES) -> int:
    """Bucket count from the per-bucket memory bound (module docstring):
    smallest power of two >= total estimated in-memory bytes / target_bytes,
    clamped to [_MIN_BUCKETS, _MAX_BUCKETS]."""
    est = sum(_est_memory_bytes(d) for d in datasets)
    n = _MIN_BUCKETS
    while n < _MAX_BUCKETS and n * target_bytes < est:
        n *= 2
    return n


def _empty_like(ds):
    """Schema-preserving empty: slice every block to zero rows. If the
    input has no blocks at all (fully-empty lazy lineage), the result is
    equally empty — callers collecting to pandas must still guard columns
    (see ops.agg.ensure_columns)."""
    return ds.map_batches(lambda t: t.slice(0, 0), batch_format="pyarrow",
                          zero_copy_batch=True)


def broadcast_join(ds, small_df: pd.DataFrame, on: str | list[str], how: str = "inner"):
    """Map-side join of a Dataset against a small pandas table.

    Task-based (stateless): ``small_df`` is put in the object store once and
    each task reads the same shared copy via ``ray.get`` (local plasma read,
    no re-shipping per batch, no actor-pool spin-up).
    """
    import ray

    ref = ray.put(small_df)

    def join(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.merge(ray.get(ref), on=on, how=how)

    return ds.map_batches(join, batch_format="pandas")


def semi_filter(ds, keys, column: str, negate: bool = False):
    """Semi (or anti) join: keep rows whose ``column`` is (not) in ``keys``.

    Task-based (stateless): the key set is ``ray.put`` once and each task
    fetches it from the local object store (zero-copy plasma read after the
    first fetch per node) — no actor-pool spin-up for a pure filter.
    """
    import ray

    arr = keys if isinstance(keys, pa.Array) else pa.array(list(keys))
    ref = ray.put(arr)

    def filt(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(batch.column(column), value_set=ray.get(ref))
        if negate:
            mask = pc.invert(mask)
        return batch.filter(mask)

    return ds.map_batches(filt, batch_format="pyarrow", zero_copy_batch=True)


def adaptive_semi_join(left, right, on: str, right_on: str | None = None,
                       negate: bool = False,
                       max_broadcast_keys: int = 2_000_000,
                       num_buckets: int | None = None):
    """Semi/anti join with AQE-style strategy selection: when a MEASURED row
    count proves the right side's key set is bounded (<= max_broadcast_keys,
    i.e. <= ~16 MB of int64 keys), collect the distinct keys once and run the
    shuffle-free broadcast ``semi_filter``; otherwise fall back to the fully
    distributed ``bucket_semi_join``. The driver-side collect is gated by the
    measured bound — never unbounded — and anti-join semantics stay sound
    because the broadcast path only fires when the COMPLETE distinct key set
    fits.

    The right side is materialized here before the gating ``count()`` so its
    lineage executes exactly ONCE regardless of which strategy fires (the
    count and the subsequent key collection / bucket shuffle then read the
    same executed blocks; the object store spills if the right side is
    large). Without this, an un-materialized right lineage would run twice:
    once for the count, once for the join.
    """
    right_on = right_on or on
    keys_ds = right.select_columns([right_on]).materialize()
    n = keys_ds.count()  # upper bound on distinct keys (free post-materialize)
    if n <= max_broadcast_keys:
        def local_distinct(t: pa.Table) -> pa.Table:
            return pa.table({right_on: t.column(right_on).combine_chunks().unique()})

        kdf = keys_ds.map_batches(local_distinct, batch_format="pyarrow").to_pandas()
        if right_on not in kdf.columns:
            # fully-empty right side (Ray drops the schema with the last
            # block): semi result is empty, anti result is the whole left
            return left if negate else _empty_like(left)
        arr = pa.Array.from_pandas(kdf[right_on].drop_duplicates())
        return semi_filter(left, arr, on, negate=negate)
    # reuse the materialized key projection — the right lineage never re-runs
    return bucket_semi_join(left, keys_ds, on=on, right_on=right_on,
                            negate=negate, num_buckets=num_buckets)


def adaptive_join(left, right, on: str, how: str = "inner",
                  max_broadcast_rows: int = 2_000_000,
                  num_buckets: int | None = None):
    """Inner/left join with AQE-style strategy selection: when a MEASURED
    row count proves the right side bounded, collect it once and run the
    shuffle-free ``broadcast_join``; otherwise ``bucket_join``. Same
    contract as ``adaptive_semi_join``: the right side is materialized
    before the gating ``count()`` so its lineage executes exactly once
    whichever strategy fires.
    """
    right = right.materialize()
    n = right.count()  # free post-materialize
    if n <= max_broadcast_rows:
        return broadcast_join(left, right.to_pandas(), on=on, how=how)
    return bucket_join(left, right, on=on, how=how, num_buckets=num_buckets)


def _mix_bucket(key_col: pa.ChunkedArray, num_buckets: int) -> pa.Array:
    """Deterministic int64 mix -> [0, num_buckets) (xorshift avalanche).

    String keys are bucketed via pandas' vectorized siphash (deterministic,
    fixed key, identical across worker processes); the bucket assignment
    only needs determinism — joins/membership checks still compare the
    actual key values, so hash collisions merely co-locate, never corrupt.
    """
    typ = key_col.type
    if (pa.types.is_string(typ) or pa.types.is_large_string(typ)
            or pa.types.is_binary(typ) or pa.types.is_large_binary(typ)):
        import numpy as np

        h = pd.util.hash_pandas_object(
            key_col.to_pandas(), index=False).to_numpy(np.uint64)
        return pa.array(((h & np.uint64((1 << 62) - 1))
                         % np.uint64(num_buckets)).astype(np.int64))
    if pa.types.is_fixed_size_binary(typ):
        # content-hash keys (ops/dedup poly128): bytes are already uniform,
        # so the first 8 bytes viewed as uint64 route directly — zero-copy
        # modulo one aligned slice, no re-hash
        import numpy as np

        comb = (key_col.combine_chunks()
                if isinstance(key_col, pa.ChunkedArray) else key_col)
        w = typ.byte_width
        assert w >= 8, "fixed_size_binary bucket keys need >= 8 bytes"
        raw = np.frombuffer(comb.buffers()[1], dtype=np.uint8)
        start = comb.offset * w
        view = raw[start:start + len(comb) * w].reshape(len(comb), w)
        h = view[:, :8].copy().view(np.uint64).ravel()
        return pa.array(((h & np.uint64((1 << 62) - 1))
                         % np.uint64(num_buckets)).astype(np.int64))
    x = key_col.cast(pa.int64())
    x = pc.bit_wise_xor(x, pc.shift_right(x, 33))
    x = pc.bit_wise_and(x, pa.scalar((1 << 62) - 1, pa.int64()))
    # pyarrow has no modulo kernel; x - (x // B) * B
    b = pa.scalar(num_buckets, pa.int64())
    return pc.subtract(x, pc.multiply(pc.divide(x, b), b))


def bucket_semi_join(left, right, on: str, right_on: str | None = None,
                     negate: bool = False, num_buckets: int | None = None):
    """Distributed semi (or anti) join: keep left rows whose ``on`` key does
    (not) appear in ``right``'s ``right_on`` column — with NO driver-side key
    collection. Both sides hash-bucket on the key; membership is checked per
    bucket, which is sound because equal keys always share a bucket.

    The right key column is deduplicated inside each batch before the
    shuffle (the combiner that keeps the exchanged key volume at
    O(distinct keys x blocks), not O(rows)).
    """
    if num_buckets is None:
        num_buckets = auto_num_buckets(left, right)
    right_on = right_on or on
    lschema = left.schema()
    if lschema is None:  # fully-empty left: semi AND anti results are empty
        return left
    left_cols = list(lschema.names)

    def prep_left(t: pa.Table) -> pa.Table:
        out = t.append_column("__bucket", _mix_bucket(t.column(on), num_buckets))
        return out.append_column("__side", pa.array([0] * t.num_rows, pa.int8()))

    def prep_right(t: pa.Table) -> pa.Table:
        keys = t.select([right_on]).group_by([right_on]).aggregate([])
        if right_on != on:
            keys = keys.rename_columns([on])
        arrays, names = [], []
        for c in left_cols:
            names.append(c)
            if c == on:
                arrays.append(keys.column(on))
            else:
                arrays.append(pa.nulls(keys.num_rows,
                                       type=lschema.types[left_cols.index(c)]))
        out = pa.table(dict(zip(names, arrays)))
        out = out.append_column("__bucket", _mix_bucket(keys.column(on), num_buckets))
        return out.append_column("__side", pa.array([1] * keys.num_rows, pa.int8()))

    lt = left.map_batches(prep_left, batch_format="pyarrow")
    rt = right.map_batches(prep_right, batch_format="pyarrow")

    def filter_bucket(g: pa.Table) -> pa.Table:
        side = g.column("__side")
        lg = g.filter(pc.equal(side, 0)).select(left_cols)
        keys = g.filter(pc.equal(side, 1)).column(on).combine_chunks()
        mask = pc.is_in(lg.column(on), value_set=keys)
        if negate:
            mask = pc.invert(pc.fill_null(mask, False))
        else:
            mask = pc.fill_null(mask, False)
        return lg.filter(mask)

    return lt.union(rt).groupby("__bucket").map_groups(
        filter_bucket, batch_format="pyarrow")


def asof_join(left, right, on: str, ts: str, right_ts_name: str,
              num_buckets: int | None = None, strict: bool = True):
    """As-of join: for each left row, the latest right row with
    ``right.ts < left.ts`` (``<=`` when strict=False) per key.

    Shape (ray_guide §Joins): hash-bucket both sides on the key, sort within
    each bucket by (key, ts), ``pd.merge_asof`` per bucket. Rows without a
    prior right match are dropped (inner as-of). The right ts is emitted as
    ``right_ts_name``.
    """
    if num_buckets is None:
        num_buckets = auto_num_buckets(left, right)
    lschema = left.schema()
    if lschema is None:  # fully-empty left: inner as-of result is empty
        return left
    left_cols = list(lschema.names)

    def prepare(side_tag):
        def fn(t: pa.Table) -> pa.Table:
            keep = t.select([on, ts]) if side_tag == 1 else t
            out = keep.append_column("__bucket", _mix_bucket(t.column(on), num_buckets))
            return out.append_column("__side", pa.array([side_tag] * t.num_rows, pa.int8()))

        return fn

    lt = left.map_batches(prepare(0), batch_format="pyarrow")
    # right side reduced to (key, ts) then aligned to left's schema with nulls
    rt = right.map_batches(prepare(1), batch_format="pyarrow")

    def align(t: pa.Table) -> pa.Table:
        arrays, names = [], []
        for c in left_cols:
            names.append(c)
            if c in t.column_names:
                arrays.append(t.column(c))
            else:
                arrays.append(pa.nulls(t.num_rows, type=lschema.types[left_cols.index(c)]))
        out = pa.table(dict(zip(names, arrays)))
        out = out.append_column("__bucket", t.column("__bucket"))
        return out.append_column("__side", t.column("__side"))

    both = lt.map_batches(align, batch_format="pyarrow").union(
        rt.map_batches(align, batch_format="pyarrow")
    )

    def merge(g: pa.Table) -> pa.Table:
        side = g.column("__side")
        lg = g.filter(pc.equal(side, 0)).select(left_cols).to_pandas()
        rg = g.filter(pc.equal(side, 1)).select([on, ts]).to_pandas()
        rg = rg.rename(columns={ts: right_ts_name})
        lg = lg.sort_values(ts, kind="mergesort")
        rg = rg.sort_values(right_ts_name, kind="mergesort")
        out = pd.merge_asof(lg, rg, left_on=ts, right_on=right_ts_name,
                            by=on, direction="backward",
                            allow_exact_matches=not strict)
        out = out.dropna(subset=[right_ts_name])
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    return both.groupby("__bucket").map_groups(merge, batch_format="pyarrow")


def _mix_bucket_multi(t: pa.Table, on: list[str], num_buckets: int) -> pa.Array:
    """Composite-key bucket routing: pandas' deterministic per-row hash over
    the key columns (fixed key, identical across worker processes). Equal
    composite keys always share a bucket; collisions merely co-locate."""
    import numpy as np

    h = pd.util.hash_pandas_object(
        t.select(on).to_pandas(), index=False).to_numpy(np.uint64)
    return pa.array(((h & np.uint64((1 << 62) - 1))
                     % np.uint64(num_buckets)).astype(np.int64))


def bucket_join(left, right, on: "str | list[str]",
                num_buckets: int | None = None, how: str = "inner"):
    """Distributed hash join: both sides bucket on the key(s), equal keys
    co-locate, one pandas merge per bucket (``how`` passes through — inner/
    left/outer all supported; outer keeps both unmatched sides with the key
    columns coalesced by the merge)."""
    if num_buckets is None:
        num_buckets = auto_num_buckets(left, right)
    on_list = [on] if isinstance(on, str) else list(on)
    lschema, rschema = left.schema(), right.schema()
    if lschema is None:
        # fully-empty left: inner/left are empty; outer degenerates to right
        return right if how == "outer" else left
    if rschema is None:
        # fully-empty right: inner drops everything; left/outer keep left
        # rows (right columns absent — the schema died with the last block)
        return _empty_like(left) if how == "inner" else left
    left_cols = list(lschema.names)
    right_cols = list(rschema.names)
    col_types = dict(zip(lschema.names, lschema.types))
    for name, typ in zip(rschema.names, rschema.types):
        col_types.setdefault(name, typ)
    all_cols = left_cols + [c for c in right_cols if c not in left_cols]

    def prepare(side_cols, side_tag):
        def fn(t: pa.Table) -> pa.Table:
            arrays, names = [], []
            for c in all_cols:
                names.append(c)
                if c in side_cols:
                    arrays.append(t.column(c))
                else:
                    arrays.append(pa.nulls(t.num_rows, type=col_types[c]))
            out = pa.table(dict(zip(names, arrays)))
            if len(on_list) == 1:
                bucket = _mix_bucket(t.column(on_list[0]), num_buckets)
            else:
                bucket = _mix_bucket_multi(t, on_list, num_buckets)
            out = out.append_column("__bucket", bucket)
            out = out.append_column("__side", pa.array([side_tag] * t.num_rows, pa.int8()))
            return out

        return fn

    lt = left.map_batches(prepare(set(left_cols), 0), batch_format="pyarrow")
    rt = right.map_batches(prepare(set(right_cols), 1), batch_format="pyarrow")

    def merge_bucket(g: pa.Table) -> pa.Table:
        # Split sides while still in Arrow: converting the unioned table
        # (int64 columns with nulls) to pandas would promote to float64 and
        # corrupt keys beyond 2^53. Each side's own columns are null-free.
        side = g.column("__side")
        lg = g.filter(pc.equal(side, 0)).select(left_cols).to_pandas()
        rg = g.filter(pc.equal(side, 1)).select(right_cols).to_pandas()
        out = lg.merge(rg, on=on_list, how=how)
        want = {}
        for c in out.columns:
            t = col_types.get(c)
            if t is not None and pa.types.is_integer(t) and out[c].dtype != "int64":
                if not out[c].isna().any():
                    want[c] = str(t)
        return pa.Table.from_pandas(
            out.astype(want, copy=False) if want else out, preserve_index=False
        ).replace_schema_metadata(None)

    return lt.union(rt).groupby("__bucket").map_groups(merge_bucket, batch_format="pyarrow")


def _expand_pairs(lo: "np.ndarray", hi: "np.ndarray"):
    """Vectorized ragged-range expansion: for each i, the js in [lo[i], hi[i]).

    Returns (i_idx, j_idx) index arrays — the pair-list building block of the
    banded join, with no Python loop over rows."""
    import numpy as np

    counts = np.maximum(hi - lo, 0)
    total = int(counts.sum())
    i_idx = np.repeat(np.arange(len(lo), dtype=np.int64), counts)
    starts = np.repeat(lo, counts)
    offs = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts)
    return i_idx, starts + offs


