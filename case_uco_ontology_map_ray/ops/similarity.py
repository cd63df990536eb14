"""Similarity search over an embedding column (list<float>).

- brute_force_topk: exact cosine top-k against a broadcast query matrix —
  numpy matmul per batch (the baseline; linear scan, fully streaming).
- ivf_topk: IVF-style one-shot path — k-means-lite coarse centroids
  (sampled, deterministic), probe the closest ``nprobe`` partitions only,
  assignment recomputed per query.
- build_ivf_index / ivf_index_topk: the persisted scale path — ONE
  assignment pass writes centroid-partitioned parquet; each query reads
  only its nprobe partition directories (partition pruning at the read).
- embedding_neardup_pairs: all pairs with cosine >= tau (near-dup
  detection) via bucket-pair self-join; embedding_neardup_lsh is the
  sublinear hyperplane-LSH variant (band buckets co-grouped, one dispatch
  per hash co-group).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.hashing import _mix64
from .agg import round_away


def _to_matrix(t: pa.Table, col: str = "embedding") -> np.ndarray:
    arr = t.column(col)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    n = len(arr)
    return flat.reshape(n, -1)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def brute_force_topk(ds, query: np.ndarray, k: int = 10,
                     id_col: str = "vec_id", exclude_ids=()) -> pd.DataFrame:
    """Exact cosine top-k: per-batch matmul against the broadcast query,
    per-batch top-k, global merge of the tiny partials on the driver.

    Returns (vec_id, cos) sorted by (round(cos,4) desc, vec_id) — the
    rounding makes the ordering reproducible against a SQL oracle.
    """
    import ray

    q = query.astype(np.float64)
    q = q / (np.linalg.norm(q) or 1.0)
    qref = ray.put(q)
    excl = set(int(i) for i in exclude_ids)

    def topk_part(t: pa.Table) -> pa.Table:
        # task-based: the query vector is a shared plasma read per task
        m = _normalize(_to_matrix(t))
        cos = m @ ray.get(qref)
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        if excl:
            mask = ~np.isin(ids, list(excl))
            cos, ids = cos[mask], ids[mask]
        if len(cos) > k:
            part = np.argpartition(-cos, k)[:k]
            cos, ids = cos[part], ids[part]
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "cos": pa.array(round_away(cos, 4))})

    partials = ds.map_batches(topk_part, batch_format="pyarrow").to_pandas()
    out = partials.sort_values(["cos", id_col], ascending=[False, True]).head(k)
    return out.reset_index(drop=True)


def embedding_neardup_pairs(ds, tau: float = 0.95, id_col: str = "vec_id",
                            num_buckets: int = 8) -> pd.DataFrame:
    """All pairs with cosine >= tau, id_a < id_b — EXACT, via a bucket-pair
    self-join: every vector lands in bucket b = mix(id) % B and is replicated
    to the B pair-groups {(min(b,o), max(b,o))}; each group holds two buckets
    (2n/B vectors) and computes its cross/intra cosines with one matmul.

    No whole-corpus broadcast and no driver materialization: peak per-task
    memory is 2n/B vectors (tune ``num_buckets`` ~ n*d*16/worker_heap at
    scale). Total compute is inherently O(n^2) — that is what "exact all
    pairs" costs; ``embedding_neardup_lsh`` is the sublinear approximate
    path. Output cos rounded to 4 for oracle comparison.
    """
    B = num_buckets

    def replicate(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        bkt = (_mix64(ids) % B).astype(np.int64)
        n = len(ids)
        pair_ids = np.empty(n * B, dtype=np.int64)
        idx = np.empty(n * B, dtype=np.int64)
        for o in range(B):
            lo = np.minimum(bkt, o)
            hi = np.maximum(bkt, o)
            pair_ids[o * n:(o + 1) * n] = lo * B + hi
            idx[o * n:(o + 1) * n] = np.arange(n)
        rep = t.select([id_col, "embedding"]).take(pa.array(idx))
        return rep.append_column("__pair", pa.array(pair_ids, pa.int64())) \
                  .append_column("__bkt", pa.array(np.tile(bkt, B), pa.int64()))

    rep = ds.map_batches(replicate, batch_format="pyarrow")

    def pair_cosines(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                              "id_b": pd.Series(dtype="int64"),
                              "cos": pd.Series(dtype="float64")})
        if g.empty:
            return empty
        pair = int(g["__pair"].iloc[0])
        i, j = pair // B, pair % B
        m = _normalize(np.stack(g["embedding"].map(np.asarray).to_numpy())
                       .astype(np.float64))
        ids = g[id_col].to_numpy(dtype=np.int64)
        bkt = g["__bkt"].to_numpy(dtype=np.int64)
        if i == j:
            cos = m @ m.T
            ai, bj = np.where(cos >= tau)
            keep = ids[ai] < ids[bj]
        else:
            mi, mj = bkt == i, bkt == j
            cos_full = m[mi] @ m[mj].T
            ai_, bj_ = np.where(cos_full >= tau)
            ia_all, ib_all = ids[mi][ai_], ids[mj][bj_]
            lo = np.minimum(ia_all, ib_all)
            hi = np.maximum(ia_all, ib_all)
            return pd.DataFrame({"id_a": lo, "id_b": hi,
                                 "cos": round_away(cos_full[ai_, bj_], 4)})
        return pd.DataFrame({"id_a": ids[ai][keep], "id_b": ids[bj][keep],
                             "cos": round_away(cos[ai, bj][keep], 4)})

    out = rep.groupby("__pair").map_groups(pair_cosines,
                                           batch_format="pandas").to_pandas()
    if out.empty:
        return pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                             "id_b": pd.Series(dtype="int64"),
                             "cos": pd.Series(dtype="float64")})
    out = out.astype({"id_a": "int64", "id_b": "int64"})
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def embedding_neardup_lsh(ds, tau: float = 0.95, id_col: str = "vec_id",
                          n_bits: int = 16, bands: int = 4, dim: int | None = None,
                          seed: int = 42, max_bucket: int = 4096) -> pd.DataFrame:
    """Approximate near-dup pairs via random-hyperplane LSH: ``n_bits`` sign
    bits per vector (seeded Gaussian projections), split into ``bands``;
    vectors sharing any band bucket become candidates; exact cosine verifies
    inside each bucket. Sublinear candidate generation — the 100-TB path
    (recall < 1 by design; raise bands/lower bits-per-band for higher
    recall). Returns (id_a, id_b, cos) with cos >= tau, id_a < id_b.
    """
    import ray

    if dim is None:
        rows = ds.take(1)
        if not rows:  # empty corpus: no pairs
            return pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                                 "id_b": pd.Series(dtype="int64"),
                                 "cos": pd.Series(dtype="float64")})
        dim = len(rows[0]["embedding"])
    rng = np.random.RandomState(seed)
    proj = rng.randn(dim, n_bits)
    ref = ray.put(proj)
    r = n_bits // bands

    def band_rows(t: pa.Table) -> pa.Table:
        m = _normalize(_to_matrix(t))
        bits = (m @ ray.get(ref)) > 0
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        weights = (np.uint64(1) << np.arange(r, dtype=np.uint64))
        out_band, out_id = [], []
        for b in range(bands):
            chunk = bits[:, b * r:(b + 1) * r].astype(np.uint64)
            key = (chunk @ weights).astype(np.int64) + np.int64(b << 32)
            out_band.append(key)
            out_id.append(ids)
        emb = pa.concat_arrays(
            [t.column("embedding").combine_chunks()] * bands)
        return pa.table({
            "band": pa.array(np.concatenate(out_band), pa.int64()),
            id_col: pa.array(np.concatenate(out_id), pa.int64()),
            "embedding": emb,
        })

    banded = ds.map_batches(band_rows, batch_format="pyarrow")

    # co-group whole band buckets into 64 hash groups (the _band_groups
    # pattern from ops/dedup): one map_groups dispatch per CO-GROUP, then a
    # cheap in-process loop over band segments — not one ~1 ms Ray dispatch
    # per bucket, which dominates when most buckets are tiny
    n_cogroups = 64

    def add_cogroup(t: pa.Table) -> pa.Table:
        band = t.column("band").to_numpy(zero_copy_only=False)
        cg = (_mix64(band) % n_cogroups).astype(np.int64)
        return t.append_column("__cg", pa.array(cg, pa.int64()))

    def verify_cogroup(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                              "id_b": pd.Series(dtype="int64"),
                              "cos": pd.Series(dtype="float64")})
        if len(g) < 2:
            return empty
        g = g.sort_values(["band", id_col], kind="mergesort")
        band = g["band"].to_numpy(dtype=np.int64)
        ids_all = g[id_col].to_numpy(dtype=np.int64)
        m_all = _normalize(np.stack(g["embedding"].map(np.asarray).to_numpy())
                           .astype(np.float64))
        bounds = np.flatnonzero(np.r_[True, band[1:] != band[:-1], True])
        outs = []
        for s, e in zip(bounds[:-1], bounds[1:]):
            if e - s < 2:
                continue
            ids, m = ids_all[s:e], m_all[s:e]
            uniq = np.r_[True, ids[1:] != ids[:-1]]  # ids sorted per band
            ids, m = ids[uniq], m[uniq]
            if len(ids) > max_bucket:  # degenerate-bucket skew guard
                ids, m = ids[:max_bucket], m[:max_bucket]
            if len(ids) < 2:
                continue
            cos = m @ m.T
            ai, bj = np.where(cos >= tau)
            keep = ids[ai] < ids[bj]
            outs.append(pd.DataFrame({
                "id_a": ids[ai][keep], "id_b": ids[bj][keep],
                "cos": round_away(cos[ai, bj][keep], 4)}))
        return pd.concat(outs, ignore_index=True) if outs else empty

    out = banded.map_batches(add_cogroup, batch_format="pyarrow") \
        .groupby("__cg").map_groups(verify_cogroup,
                                    batch_format="pandas").to_pandas()
    if out.empty:
        return pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                             "id_b": pd.Series(dtype="int64"),
                             "cos": pd.Series(dtype="float64")})
    out = out.drop_duplicates(subset=["id_a", "id_b"]).astype(
        {"id_a": "int64", "id_b": "int64"})
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def _sample_centroids(ds, n_centroids: int, id_col: str, seed: int) -> np.ndarray:
    """Deterministic coarse centroids via seeded hash-rank row sampling.

    Keeps ids whose avalanche hash falls under a rank threshold (unbiased
    across blocks, unlike ``ds.limit()`` which is first-block-biased), then
    draws ``n_centroids`` normalized rows with a seeded RNG.
    """
    target = max(n_centroids * 8, 256)

    def sample_rows(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        h = _mix64(ids + np.int64(seed))
        # per-batch partial: keep the locally smallest hashes, bounded
        k = min(len(ids), target)
        part = np.argsort(h, kind="stable")[:k]
        return t.take(pa.array(np.sort(part))).append_column(
            "__h", pa.array(h[np.sort(part)], pa.int64()))

    sample = ds.map_batches(sample_rows, batch_format="pyarrow").to_pandas()
    if sample.empty or "__h" not in sample.columns:
        # empty corpus: no batches at all -> columnless frame (the ADVICE-r4
        # empty-lineage edge); callers treat zero centroids as "no data"
        return np.zeros((0, 0))
    sample = sample.nsmallest(target, "__h")  # global bottom-k by hash rank
    sm = _normalize(np.stack(sample["embedding"].map(np.asarray).to_numpy()).astype(np.float64))
    rng = np.random.RandomState(seed)
    return sm[rng.choice(len(sm), size=min(n_centroids, len(sm)), replace=False)]


def ivf_topk(ds, query: np.ndarray, k: int = 10, n_centroids: int = 16,
             nprobe: int = 4, id_col: str = "vec_id", seed: int = 42) -> pd.DataFrame:
    """IVF-style approximate top-k: deterministic sampled centroids, assign
    each vector to its nearest centroid inside map_batches, search only the
    ``nprobe`` centroids closest to the query.

    One-shot variant (assignment recomputed per query) — for repeated
    queries over the same corpus build the persisted layout once with
    ``build_ivf_index`` and search it with ``ivf_index_topk``.
    """
    import ray

    centroids = _sample_centroids(ds, n_centroids, id_col, seed)

    q = query.astype(np.float64)
    q = q / (np.linalg.norm(q) or 1.0)
    probe = set(np.argsort(-(centroids @ q))[:nprobe].tolist())
    ref = ray.put((centroids, q, probe))

    def probe_part(t: pa.Table) -> pa.Table:
        cents, qv, probe_set = ray.get(ref)
        m = _normalize(_to_matrix(t))
        assign = np.argmax(m @ cents.T, axis=1)
        mask = np.isin(assign, list(probe_set))
        if not mask.any():
            return pa.table({id_col: pa.array([], pa.int64()),
                             "cos": pa.array([], pa.float64())})
        m, ids = m[mask], t.column(id_col).to_numpy(zero_copy_only=False)[mask]
        cos = m @ qv
        if len(cos) > k:
            part = np.argpartition(-cos, k)[:k]
            cos, ids = cos[part], ids[part]
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "cos": pa.array(round_away(cos, 4))})

    partials = ds.map_batches(probe_part, batch_format="pyarrow").to_pandas()
    return partials.sort_values(["cos", id_col], ascending=[False, True]).head(k).reset_index(drop=True)


def build_ivf_index(ds, index_dir: str, n_centroids: int = 16,
                    id_col: str = "vec_id", seed: int = 42) -> dict:
    """Materialize a persisted IVF layout: ONE assignment pass writes
    centroid-partitioned parquet; every later query reads only its
    ``nprobe`` partitions (partition pruning at the read — the 100-TB
    amortization the one-shot ``ivf_topk`` lacks).

    Layout::

        index_dir/centroids.parquet          # n_centroids normalized rows
        index_dir/vectors/centroid=<c>/*.parquet

    The vectors are stored NORMALIZED (float64) so queries skip the
    normalization pass. Returns {"n_centroids", "dim", "index_dir"}.
    """
    import os

    import pyarrow.parquet as pq
    import ray

    centroids = _sample_centroids(ds, n_centroids, id_col, seed)
    ref = ray.put(centroids)

    def assign(t: pa.Table) -> pa.Table:
        m = _normalize(_to_matrix(t))
        asg = np.argmax(m @ ray.get(ref).T, axis=1).astype(np.int64)
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        n, d = m.shape
        emb = pa.ListArray.from_arrays(
            pa.array(np.arange(0, (n + 1) * d, d, dtype=np.int32)),
            pa.array(m.ravel(), pa.float64()))
        return pa.table({
            id_col: pa.array(ids, pa.int64()),
            "embedding": emb,
            "centroid": pa.array(asg, pa.int64()),
        })

    ds.map_batches(assign, batch_format="pyarrow") \
        .write_parquet(os.path.join(index_dir, "vectors"),
                       partition_cols=["centroid"])
    pq.write_table(
        pa.table({"centroid_id": pa.array(range(len(centroids)), pa.int64()),
                  "vec": pa.array(list(centroids), pa.list_(pa.float64()))}),
        os.path.join(index_dir, "centroids.parquet"))
    return {"n_centroids": len(centroids), "dim": centroids.shape[1],
            "index_dir": index_dir}


def ivf_index_topk(index_dir: str, query: np.ndarray, k: int = 10,
                   nprobe: int = 4, id_col: str = "vec_id") -> pd.DataFrame:
    """Search a ``build_ivf_index`` layout: rank centroids against the
    query, then ``read_parquet`` ONLY the ``nprobe`` closest partition
    directories — at scale each query streams nprobe/n_centroids of the
    corpus off storage instead of all of it. With nprobe >= n_centroids the
    result is exactly ``brute_force_topk`` (recall 1.0); smaller nprobe
    trades recall for a proportional read reduction.
    """
    import os

    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    cent = pq.read_table(os.path.join(index_dir, "centroids.parquet"))
    centroids = _to_matrix(cent, "vec")
    q = query.astype(np.float64)
    q = q / (np.linalg.norm(q) or 1.0)
    order = np.argsort(-(centroids @ q), kind="stable")
    probe = [int(c) for c in order[:nprobe]]
    dirs = [os.path.join(index_dir, "vectors", f"centroid={c}")
            for c in probe]
    # expand to the parquet files inside each probed partition dir (empty
    # partitions are simply unwritten)
    paths = [os.path.join(d, f) for d in dirs if os.path.isdir(d)
             for f in sorted(os.listdir(d)) if f.endswith(".parquet")]
    if not paths:
        return pd.DataFrame({id_col: pd.Series(dtype="int64"),
                             "cos": pd.Series(dtype="float64")})
    qref = ray.put(q)

    def topk_part(t: pa.Table) -> pa.Table:  # vectors pre-normalized at build
        m = _to_matrix(t)
        cos = m @ ray.get(qref)
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        if len(cos) > k:
            part = np.argpartition(-cos, k)[:k]
            cos, ids = cos[part], ids[part]
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "cos": pa.array(round_away(cos, 4))})

    ds = rd.read_parquet(paths, columns=[id_col, "embedding"])
    partials = ds.map_batches(topk_part, batch_format="pyarrow").to_pandas()
    return partials.sort_values(["cos", id_col],
                                ascending=[False, True]).head(k).reset_index(drop=True)


def kmeans_fit(ds, n_clusters: int = 8, n_iter: int = 5,
               id_col: str = "vec_id", seed: int = 42):
    """Distributed spherical k-means (Lloyd's) over the embedding column —
    the iterative-algorithm shape: per iteration the current centroids are
    broadcast ONCE (``ray.put``), every batch computes its partial
    per-cluster (vector sum, count, inertia) with one matmul + ``np.add.at``
    (no per-row Python), and the driver reduces k x d floats and
    renormalizes. Assignment is by max cosine; inertia = sum(1 - cos).

    Deterministic given a fixed batch partitioning (float reduce order);
    init = the seeded hash-rank sample ``_sample_centroids`` (same as IVF).
    Empty clusters keep their previous centroid.

    Returns (centroids ndarray [k, d], history list of per-iteration
    {"inertia", "moved"}). The per-iteration driver state is k x d floats —
    independent of corpus size; each pass streams the dataset once.
    """
    import ray

    cents = _sample_centroids(ds, n_clusters, id_col, seed)
    if len(cents) == 0:
        # empty corpus: nothing to fit (the ADVICE-r4 empty-lineage edge);
        # one all-zero history entry keeps history[-1] consumers working
        return cents, [{"inertia": 0.0, "moved": 0.0,
                        "sizes": [0] * n_clusters}]
    k = len(cents)
    history = []

    # materialize the normalized projection once: n_iter consumers
    def norm_only(t: pa.Table) -> pa.Table:
        m = _normalize(_to_matrix(t))
        return pa.table({"vec": pa.array(list(m), pa.list_(pa.float64()))})

    normed = ds.map_batches(norm_only, batch_format="pyarrow").materialize()

    for _ in range(n_iter):
        ref = ray.put(cents)

        def partials(t: pa.Table, _r=ref) -> pa.Table:
            c = ray.get(_r)
            vecs = t.column("vec").combine_chunks()
            # reshape with the KNOWN centroid dim: numpy can't infer -1 from
            # an empty block (size 0) and would crash the fit (ADVICE r4)
            m = vecs.values.to_numpy(zero_copy_only=False).reshape(
                t.num_rows, c.shape[1])
            cos = m @ c.T
            assign = np.argmax(cos, axis=1)
            best = cos[np.arange(len(m)), assign]
            sums = np.zeros((len(c), m.shape[1]))
            np.add.at(sums, assign, m)
            counts = np.bincount(assign, minlength=len(c)).astype(np.int64)
            inert = np.zeros(len(c))
            np.add.at(inert, assign, 1.0 - best)
            return pa.table({
                "cluster": pa.array(np.arange(len(c)), pa.int64()),
                "vsum": pa.array(list(sums), pa.list_(pa.float64())),
                "n": pa.array(counts, pa.int64()),
                "inertia": pa.array(inert, pa.float64()),
            })

        part = normed.map_batches(partials, batch_format="pyarrow").to_pandas()
        # driver reduce: k rows per batch -> k rows total (sort for a
        # deterministic float-summation order)
        part = part.sort_values("cluster", kind="mergesort")
        agg_sums = np.zeros_like(cents)
        agg_n = np.zeros(k, dtype=np.int64)
        inertia = 0.0
        for cl, grp in part.groupby("cluster"):
            agg_sums[cl] = np.sum(np.stack(grp["vsum"].to_numpy()), axis=0)
            agg_n[cl] = grp["n"].sum()
            inertia += grp["inertia"].sum()
        new = cents.copy()
        nz = agg_n > 0
        new[nz] = agg_sums[nz] / agg_n[nz, None]
        norms = np.linalg.norm(new, axis=1)
        new[norms > 0] /= norms[norms > 0, None]
        moved = float(np.abs(new - cents).max())
        cents = new
        history.append({"inertia": float(inertia), "moved": moved,
                        "sizes": agg_n.tolist()})

    return cents, history


def quantize_embeddings(ds, col: str = "embedding", id_col: str = "vec_id"):
    """Symmetric int8 scalar quantization per vector (the standard 4x ANN
    memory cut): scale = maxabs/127 per vector, code = round-half-away(x /
    scale) in [-127, 127] (|x| <= maxabs so no clamp is needed), zero
    vectors quantize to all-zero codes with scale 0. Map-only, one numpy
    pass per batch. Output: (id_col, scale float64, q list<int8>).

    Dequantized cosine error at this dim is ~1e-2; use the codes for the
    coarse pass and re-rank survivors on the float column. Deterministic
    and SQL-reproducible (round-half-away = DuckDB ROUND; see the
    embedding_quantization oracle)."""

    def quant(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "scale": pa.array([], pa.float64()),
                             "q": pa.array([], pa.list_(pa.int8()))})
        m = _to_matrix(t, col)
        maxabs = np.abs(m).max(axis=1)
        scale = maxabs / 127.0
        safe = np.where(scale > 0, scale, 1.0)
        codes = round_away(m / safe[:, None], 0).astype(np.int8)
        codes[scale == 0] = 0
        n, d = m.shape
        offs = pa.array(np.arange(0, (n + 1) * d, d, dtype=np.int32))
        qcol = pa.ListArray.from_arrays(offs, pa.array(codes.ravel(), pa.int8()))
        return pa.table({id_col: t.column(id_col),
                         "scale": pa.array(scale, pa.float64()),
                         "q": qcol})

    return ds.map_batches(quant, batch_format="pyarrow", zero_copy_batch=True)


def quantized_topk(ds, query: np.ndarray, k: int = 10, beam: int | None = None,
                   id_col: str = "vec_id", exclude_ids=()) -> pd.DataFrame:
    """Two-stage ANN: coarse cosine over int8-quantized codes (4x less
    memory traffic per batch), exact float re-rank of the per-batch beam.

    Each batch quantizes once (at real scale the codes come precomputed via
    ``quantize_embeddings`` -> parquet; quantizing in-stage keeps this
    operator self-contained for the query surface), scores the dequantized
    codes against the broadcast query, keeps its top ``beam`` candidates,
    and re-scores ONLY those on the float column. ``beam=None`` re-ranks
    every row — then the result is exactly ``brute_force_topk`` (the SQL
    oracle gate); small beams trade recall for compute (unit-tested >= 0.9
    at beam=4k on gaussian embeddings).
    """
    import ray

    q = query.astype(np.float64)
    q = q / (np.linalg.norm(q) or 1.0)
    qref = ray.put(q)
    excl = set(int(i) for i in exclude_ids)

    def topk_part(t: pa.Table) -> pa.Table:
        qv = ray.get(qref)
        m = _to_matrix(t)
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        if excl:
            mask = ~np.isin(ids, list(excl))
            m, ids = m[mask], ids[mask]
        if len(ids) == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "cos": pa.array([], pa.float64())})
        # coarse pass on int8 codes (same quantizer as quantize_embeddings)
        maxabs = np.abs(m).max(axis=1)
        scale = np.where(maxabs > 0, maxabs / 127.0, 1.0)
        codes = round_away(m / scale[:, None], 0).astype(np.int8)
        coarse = (codes.astype(np.float64) * scale[:, None])
        coarse = _normalize(coarse) @ qv
        b = len(ids) if beam is None else min(beam, len(ids))
        cand = (np.argpartition(-coarse, b - 1)[:b]
                if b < len(ids) else np.arange(len(ids)))
        # exact re-rank of the beam on the float column
        cos = _normalize(m[cand]) @ qv
        ids = ids[cand]
        if len(cos) > k:
            part = np.argpartition(-cos, k)[:k]
            cos, ids = cos[part], ids[part]
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "cos": pa.array(round_away(cos, 4))})

    partials = ds.map_batches(topk_part, batch_format="pyarrow").to_pandas()
    out = partials.sort_values(["cos", id_col], ascending=[False, True]).head(k)
    return out.reset_index(drop=True)


def semdedup(ds, n_clusters: int = 8, tau: float = 0.45,
             id_col: str = "vec_id", n_iter: int = 5, seed: int = 42):
    """SemDeDup-style semantic dedup: k-means cluster the embeddings, then
    prune within each cluster any vector whose cosine to a SMALLER-ID
    cluster-mate is >= ``tau`` (the deterministic "keep minimal elements"
    rule — fully vectorized per cluster, no sequential greedy chain).

    Returns Dataset[(vec_id, cluster, keep)].

    Scale shape: centroids are k x d driver state broadcast once; the
    assignment pass is one matmul per batch; the prune is a
    groupby(cluster) co-group whose per-task memory is one cluster's
    vectors — real deployments cap cluster size (recurse k-means on
    oversized clusters, exactly the IVF list-split trick) before the
    pairwise step; the synthetic corpora stay far below any cap.

    Correctness gate: pruning implies a global exact near-dup pair
    witness (pruned id = the larger element of some cosine>=tau pair), so
    the zero-missing-witness invariant is DuckDB-checkable against the
    exact pair oracle (see __ray_entry__ semdedup_invariants).
    """
    import ray

    cents, _hist = kmeans_fit(ds, n_clusters=n_clusters, n_iter=n_iter,
                              id_col=id_col, seed=seed)
    if len(cents) == 0:
        # empty corpus: no centroids to assign against — schema-stable empty
        import ray.data as _rd

        return _rd.from_arrow(pa.table({
            id_col: pa.array([], pa.int64()),
            "cluster": pa.array([], pa.int64()),
            "keep": pa.array([], pa.bool_()),
        }))
    ref = ray.put(cents)

    def assign(t: pa.Table, _r=ref) -> pa.Table:
        c = ray.get(_r)
        if t.num_rows == 0:
            # empty blocks: reshape(0, -1) cannot infer the dim (ADVICE r4)
            return pa.table({id_col: pa.array([], pa.int64()),
                             "cluster": pa.array([], pa.int64()),
                             "vec": pa.array([], pa.list_(pa.float64()))})
        m = _normalize(_to_matrix(t))
        cl = np.argmax(m @ c.T, axis=1).astype(np.int64)
        return pa.table({
            id_col: t.column(id_col),
            "cluster": pa.array(cl, pa.int64()),
            "vec": pa.array(list(m), pa.list_(pa.float64())),
        })

    assigned = ds.map_batches(assign, batch_format="pyarrow")

    def prune(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({id_col: pd.Series(dtype="int64"),
                              "cluster": pd.Series(dtype="int64"),
                              "keep": pd.Series(dtype="bool")})
        if g.empty:
            return empty
        g = g.sort_values(id_col, kind="mergesort")
        m = np.stack(g["vec"].map(np.asarray).to_numpy()).astype(np.float64)
        cos = m @ m.T
        # prune i iff cos(i, j) >= tau for some j < i (strict lower triangle)
        low = np.tril(cos >= tau, k=-1)
        pruned = low.any(axis=1)
        return pd.DataFrame({
            id_col: g[id_col].to_numpy(dtype=np.int64),
            "cluster": g["cluster"].to_numpy(dtype=np.int64),
            "keep": ~pruned,
        })

    return assigned.groupby("cluster").map_groups(prune, batch_format="pandas")


def gram_matrix(ds, col: str = "embedding", scale: float = 1048576.0):
    """Exact distributed Gram matrix Σ xᵀx over an embedding column — the
    sufficient-statistic primitive behind PCA / covariance / whitening /
    linear probes at corpus scale.

    Scale shape: each batch quantizes its (n, d) block to int64 (x·2²⁰,
    half-away — EXACT, so distributed summation is associative and
    oracle-checkable) and emits ONE d(d+1)/2-row upper-triangle partial
    from a local int64 matmul; the exchange carries O(d²) per block
    regardless of n, and the global groupby reduces ~blocks·d²/2 tiny rows.
    No vector ever leaves its block. At 10^9+ rows the int64 accumulators
    need the same widening DuckDB's hugeint does — switch the partial to
    object/int128 or chunk the reduce; the plan is unchanged.

    Returns a pandas frame (i, j, g) with 1-indexed i <= j.
    """
    from .agg import grouped_sums

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.schema([("i", pa.int64()), ("j", pa.int64()),
                           ("g_part", pa.int64())]).empty_table()
        if t.num_rows == 0:
            return empty
        colv = t.column(col)
        if isinstance(colv, pa.ChunkedArray):
            colv = colv.combine_chunks()
        d = len(colv[0])
        m = colv.flatten().to_numpy(zero_copy_only=False).astype(
            np.float64).reshape(t.num_rows, d)
        q = round_away(m * scale, 0).astype(np.int64)
        g = q.T @ q  # int64 matmul: exact
        iu, ju = np.triu_indices(d)
        return pa.table({"i": pa.array(iu + 1, pa.int64()),
                         "j": pa.array(ju + 1, pa.int64()),
                         "g_part": pa.array(g[iu, ju], pa.int64())})

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)
    out = grouped_sums(parts, keys=["i", "j"], sum_cols={"g": "g_part"})
    if out.empty:
        return pd.DataFrame({"i": pd.Series(dtype="int64"),
                             "j": pd.Series(dtype="int64"),
                             "g": pd.Series(dtype="int64")})
    out = out.astype({"i": "int64", "j": "int64", "g": "int64"})
    return out.sort_values(["i", "j"]).reset_index(drop=True)
