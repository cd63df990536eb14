"""Deduplication operators over a document table (doc_id, text).

- exact_dedup:     content-hash groupby, keep min doc_id (oracle: md5 SQL)
- minhash_lsh_dedup: shingle -> minhash -> band buckets -> candidate edges ->
                   distributed Jaccard verify -> connected components
                   (min-label propagation) -> Dataset[(doc_id, cluster_id)].
                   Entity canonicalization (``pipelines.linking``) runs it
                   over the normalized entity paths.
- minhash_lsh_table: the same clustering over a driver-held (doc_id, text)
                   table with no Ray execution, or None above
                   ``DRIVER_SKETCH_BYTES``.
- simhash_groups:  64-bit simhash fingerprints; band on 16-bit chunks, link
                   docs within hamming ``radius`` of the bucket root, then
                   min-label propagation -> Dataset[(doc_id, group_id)]
- ngram_jaccard_pairs: candidate pairs with exact n-gram Jaccard >= tau
- _propagate_components: connected components over verified edges, on
                   the two label-propagation kernels of ``ops/graph``.

Scale design (no driver-side corpus state anywhere):
- Sketching runs as stateless tasks (the hash family is built once per
  worker process, ``functions/process_cache.py``); the sketch table
  (doc_id, sig, shingles) is materialized once and reused for banding AND
  verification (object-store blocks spill if needed).
- Candidate edges are a Dataset; exact-Jaccard verification attaches both
  sides' shingle sets (broadcast CSR below a threshold, two ``bucket_join``s
  above) and computes every edge's exact Jaccard in ONE vectorized pass per
  batch (``_pair_jaccard``: lexsort + duplicate counting — no per-edge loop).
- Connected components run as min-label propagation over the star-edge
  incidence: below ``small_threshold`` distinct docs the (int64, int64)
  edge list is solved with vectorized numpy on the driver + a broadcast
  non-singleton label map; above it the distributed groupby/bucket_join
  rounds take over (``ops/graph``'s ``_labels_vectorized`` and
  ``propagate_labels``). Both compute the same fixpoint (component
  min-label).

Outputs pinned by regression goldens (tests/goldens/dedup/*, under the
vectorized polynomial shingle/band hash family of functions/hashing.py);
semantics are independently oracled in tests/test_dedup_goldens.py and
tests/test_hashing_kernels.py.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.hashing import (
    MinHasher,
    char_shingles_batch,
    simhash64_batch,
    word_shingles_batch,
)
from ..functions.process_cache import process_stage
from .agg import round_away
from .graph import _labels_vectorized, propagate_labels
from .joins import _est_memory_bytes, _mix_bucket, bucket_join, bucket_semi_join

# Non-singleton label maps are broadcast on the small path; switch to the
# distributed label-propagation rounds above this many linked docs.
SMALL_THRESHOLD = 5_000_000

# Verify path: below this many candidate ENDPOINTS their shingle sets are
# gathered + broadcast in CSR layout (map-only verification, no sort
# shuffles); above, the payload is bucket-semi-joined and verification runs
# through two bucketed joins. ~2M endpoints x ~100 shingles x 8B = ~1.6 GB
# broadcast — the same order as linking.py's label-map threshold.
BROADCAST_VERIFY_THRESHOLD = 2_000_000

# band-stream rows (= n_docs * bands, 16 B each) at or below which LSH
# candidate extraction runs as one collected numpy sort instead of two
# all-to-all exchanges; 8M rows = 128 MB on the collecting node
SMALL_BAND_ROWS = 8_000_000
# all-driver dedup path gate: in-memory bytes of the collected (doc_id, sig,
# shingles) sketch table. ``minhash_lsh_dedup`` reads the exact bytes of its
# materialized sketch; ``minhash_lsh_table`` bounds them from the text
# lengths before sketching and, at or below the gate, sketches and clusters
# its driver-held table with no Ray execution at all (entity
# canonicalization below ``SMALL_BAND_ROWS``).
# Deliberately TINY: a same-window A/B at the 120k-path canonicalize slice
# measured the driver path at 40-84 s vs 23 s distributed — the exact-Jaccard
# verify is real compute that parallelizes well, so serializing it on the
# driver loses as soon as the candidate set is non-trivial. Below ~8 MB of
# sketch the work is sub-second either way and the Ray executions it saves
# (25-60 ms of fixed cost each) dominate.
DRIVER_SKETCH_BYTES = 8 << 20
# star candidates kept per LSH bucket (the skew guard of ``_star_edges_np``)
MAX_BUCKET = 64
# hash groups of the band and edge-distinct exchanges
_NUM_PARTS = 64


def _md5_column(texts: list[str]) -> list[str]:
    return [hashlib.md5(t.encode("utf-8")).hexdigest() for t in texts]


def _content_key(t: pa.Table, text_col: str, hash_mode: str) -> pa.Array:
    """Content-hash key column for exact dedup.

    ``poly128`` (default): the vectorized two-family polynomial hash
    (functions/hashing.content_hash128_arrow) — one O(bytes) numpy pass per
    batch, fixed_size_binary(16) keys (half the bytes of md5 hex through the
    shuffle). ``md5``: the per-row hashlib loop, kept as the documented
    DuckDB-oracle twin (``md5(text)`` in SQL) — the ops/sample.py mix64/md5
    split. The dedup OUTPUT (min id per distinct text) is identical in both
    modes barring a hash collision (poly128 expectation ~1e-19 at 10^10
    docs), so oracled queries stay green on the default.
    """
    if hash_mode == "md5":
        return pa.array(_md5_column(t.column(text_col).to_pylist()), pa.string())
    if hash_mode != "poly128":
        raise ValueError(f"unknown hash_mode: {hash_mode!r}")
    from ..functions.hashing import content_hash128_arrow

    return content_hash128_arrow(t.column(text_col))


def exact_dedup(ds, text_col: str = "text", id_col: str = "doc_id",
                hash_mode: str = "poly128"):
    """Exact dedup: min(id) per content hash. Returns Dataset[{id_col}]."""
    from ray.data.aggregate import Min

    def add_hash(t: pa.Table) -> pa.Table:
        keep = t.select([id_col]).append_column(
            "__h", _content_key(t, text_col, hash_mode))
        # local combiner: min id per hash within the batch
        agg = keep.group_by(["__h"]).aggregate([(id_col, "min")])
        return agg.rename_columns(["__h", id_col])

    pre = ds.map_batches(add_hash, batch_format="pyarrow")
    out = pre.groupby("__h").aggregate(Min(id_col, alias_name=id_col))
    return out.select_columns([id_col])


class _Sketcher:
    """Sketch stage: per-document shingles + minhash signature (+ simhash).

    ``emit_shingles`` additionally carries the distinct shingle-hash set as a
    list<uint64> column so downstream exact-Jaccard verification can run
    distributed (joined per candidate edge) instead of re-reading text.
    ``emit_simhash`` computes the 64-bit fingerprint only when the caller
    needs it (it costs a 64xN bit matrix per doc — ~1/3 of sketch time).
    """

    def __init__(self, num_perm: int, shingle_k: int, use_words: bool,
                 emit_shingles: bool = False, emit_simhash: bool = True):
        self.mh = MinHasher(num_perm=num_perm)
        self.k = shingle_k
        self.use_words = use_words
        self.emit_shingles = emit_shingles
        self.emit_simhash = emit_simhash

    def __call__(self, t: pa.Table) -> pa.Table:
        texts = t.column("text").to_pylist()
        # whole-batch CSR shingling + signatures: vectorized polynomial
        # prefix hashing and num_perm segment-min passes — no per-doc loop
        if self.use_words:
            vals, offs = word_shingles_batch(texts, self.k)
        else:
            vals, offs = char_shingles_batch(texts, self.k)
        sigs = self.mh.signatures_batch(vals, offs)
        cols = {
            "doc_id": t.column("doc_id"),
            "sig": pa.array([s.tobytes() for s in sigs], pa.binary()),
        }
        if self.emit_simhash:
            cols["simhash"] = pa.array(simhash64_batch(vals, offs), pa.uint64())
        if self.emit_shingles:
            cols["shingles"] = pa.ListArray.from_arrays(
                pa.array(offs, pa.int32()), pa.array(vals, pa.uint64()))
        return pa.table(cols)


def _sketch_fn(t: pa.Table, *sketcher_args) -> pa.Table:
    return process_stage(_Sketcher, *sketcher_args)(t)


def _sketch(ds, num_perm: int, shingle_k: int, use_words: bool,
            emit_shingles: bool = False, emit_simhash: bool = True):
    """Sketch a Dataset as stateless tasks (each worker process keeps one
    _Sketcher per argument tuple, so the hash family is built once per
    process), or a ``pa.Table`` in this process."""
    args = (num_perm, shingle_k, use_words, emit_shingles, emit_simhash)
    if isinstance(ds, pa.Table):
        return _sketch_fn(ds, *args)
    return ds.map_batches(_sketch_fn, fn_args=args, batch_format="pyarrow")


def _lsh_sketch(ds, num_perm: int, shingle_k: int, use_words: bool):
    """The (doc_id, sig, shingles) sketch that MinHash-LSH bands and
    verifies."""
    return _sketch(ds, num_perm, shingle_k, use_words,
                   emit_shingles=True, emit_simhash=False)


def _char_sketch_bytes_bound(text: pa.Array, num_perm: int,
                            shingle_k: int) -> int:
    """Upper bound on the in-memory bytes of the char-shingle sketch table
    (doc_id, sig, shingles) of ``text``, from byte lengths alone: a text of
    b UTF-8 bytes has at most max(b - shingle_k + 1, 1) distinct shingles
    of 8 B, and each row holds an 8-B id, a ``num_perm`` x 8-B signature
    and two 4-B offsets."""
    import pyarrow.compute as pc

    nbytes = pc.binary_length(text).fill_null(0).to_numpy()
    shingles = int(np.maximum(nbytes - shingle_k + 1, 1).sum())
    return len(text) * (8 + 8 * num_perm + 2 * 4) + 8 * shingles


def _sig_matrix(sig_col, num_perm: int) -> np.ndarray:
    """(n, num_perm) uint64 view of a binary signature column. All rows are
    fixed-width, so the variable-binary data buffer is one contiguous
    slice (copied once for 8-byte alignment)."""
    sigb = sig_col.combine_chunks()
    n = len(sigb)
    if n == 0:
        return np.zeros((0, num_perm), dtype=np.uint64)
    offs = np.frombuffer(sigb.buffers()[1], dtype=np.int32)[
        sigb.offset:sigb.offset + n + 1]
    data = np.frombuffer(sigb.buffers()[2], dtype=np.uint8)
    flat = data[offs[0]:offs[-1]].copy()  # copy -> aligned for uint64 view
    return flat.view(np.uint64).reshape(n, num_perm)


def _explode_bands(mh: MinHasher, bands: int):
    def explode(t: pa.Table) -> pa.Table:
        sigs = _sig_matrix(t.column("sig"), mh.num_perm)
        keys = mh.band_keys_batch(sigs, bands)  # (n, bands) int64
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table({"band": pa.array(keys.ravel(), pa.int64()),
                         "doc_id": pa.array(np.repeat(ids, bands), pa.int64())})

    return explode


def _band_groups(bands_ds, extract_fn):
    """Scale-safe per-band processing: co-group COMPLETE bands into
    ``_NUM_PARTS`` hash buckets (band determines bucket, so every band lands
    whole in exactly one group), then run ``extract_fn`` once per bucket
    over a band-sorted frame. One Ray groupby with ``_NUM_PARTS`` vectorized
    group calls — NOT one Python dispatch per band, which at 10^5+ distinct
    bands costs ~1 ms each and dominates the pipeline.

    ``extract_fn(g)`` receives the bucket frame sorted by (band, doc_id)
    plus a ``__seg`` int64 column numbering the band segments.
    """
    import pyarrow.compute as pc

    def add_bucket(t: pa.Table) -> pa.Table:
        return t.append_column("__bucket", _mix_bucket(t.column("band"),
                                                       _NUM_PARTS))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop(columns=["__bucket"]).sort_values(
            ["band", "doc_id"], kind="mergesort").reset_index(drop=True)
        band = g["band"].to_numpy()
        seg = np.zeros(len(g), dtype=np.int64)
        if len(g):
            seg[1:] = np.cumsum(band[1:] != band[:-1])
        g["__seg"] = seg
        return extract_fn(g)

    return bands_ds.map_batches(add_bucket, batch_format="pyarrow").groupby(
        "__bucket").map_groups(per_bucket, batch_format="pandas")


def _distinct_edges(edges):
    """Dedup an (int64, int64) edge Dataset: local arrow combiner + one
    hash-partitioned finish (the distinct_paths pattern from linking.py)."""
    import pyarrow.compute as pc

    sch = edges.schema()
    if sch is None:  # no edges at all (schema died with the last block)
        return edges
    c0, c1 = sch.names[:2]

    def local(t: pa.Table) -> pa.Table:
        agg = t.select([c0, c1]).group_by([c0, c1]).aggregate([])
        part = pc.bit_wise_and(agg.column(c0), pa.scalar(_NUM_PARTS - 1, pa.int64()))
        return agg.append_column("__part", part.cast(pa.int32()))

    pre = edges.map_batches(local, batch_format="pyarrow")

    def finish(g: pa.Table) -> pa.Table:
        return g.drop_columns(["__part"]).group_by([c0, c1]).aggregate([])

    return pre.groupby("__part").map_groups(finish, batch_format="pyarrow")


def _star_edges_np(doc: np.ndarray,
                   seg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Star candidate edges over (band-)segment runs of a doc_id-sorted
    stream: root = segment min (first after sort); the skew guard caps each
    segment's star at ``MAX_BUCKET`` smallest ids (a degenerate band — e.g.
    empty docs — would otherwise emit unbounded verify work). Shared by the
    distributed per-bucket stage and the collected small path so both emit
    the identical edge set."""
    if len(doc) == 0:
        e = np.array([], dtype=np.int64)
        return e, e
    starts = np.flatnonzero(np.r_[True, seg[1:] != seg[:-1]])
    lens = np.diff(np.r_[starts, len(seg)])
    pos = np.arange(len(seg)) - np.repeat(starts, lens)
    roots = np.repeat(doc[starts], lens)
    keep = (pos >= 1) & (pos < MAX_BUCKET)
    return doc[keep], roots[keep]


def _csr_gather(vals: np.ndarray, starts: np.ndarray,
                rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gather CSR rows: returns (concatenated values of vals[starts[r]:
    starts[r+1]] for r in rows, per-row lengths) — fully vectorized."""
    lens = starts[rows + 1] - starts[rows]
    out_st = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lens, out=out_st[1:])
    total = int(out_st[-1])
    idx = (np.arange(total, dtype=np.int64)
           - np.repeat(out_st[:-1], lens)
           + np.repeat(starts[rows], lens))
    return vals[idx], lens


def _sorted_csr(ids: np.ndarray, lens: np.ndarray, vals: np.ndarray):
    """CSR rows (ids, per-row lengths, concatenated values) reordered by
    sorted id for searchsorted lookup -> (sorted_ids, starts, values). A
    duplicated id would make searchsorted verify every edge against the
    FIRST copy's shingles silently, so it is rejected here, where the sorted
    id array is cheap to scan."""
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    if len(sorted_ids) > 1 and (sorted_ids[1:] == sorted_ids[:-1]).any():
        raise ValueError(
            "verify payload contains duplicate doc_ids; shingle sets "
            "must be unique per document")
    starts = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(lens, out=starts[1:])
    sorted_vals, sorted_lens = _csr_gather(vals, starts, order)
    sorted_starts = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(sorted_lens, out=sorted_starts[1:])
    return sorted_ids, sorted_starts, sorted_vals


def _star_candidates(band: np.ndarray, doc: np.ndarray):
    """Distinct star candidate edges (u, v) of a collected (band, doc_id)
    stream: one global (band, doc_id) sort — buckets hold whole bands, so
    it equals the per-bucket sort of the distributed path — then
    ``_star_edges_np`` and a sorted distinct."""
    order = np.lexsort((doc, band))
    band, doc = band[order], doc[order]
    seg = np.zeros(len(band), dtype=np.int64)
    if len(band):
        seg[1:] = np.cumsum(band[1:] != band[:-1])
    u, v = _star_edges_np(doc, seg)
    if len(u):
        eorder = np.lexsort((v, u))
        u, v = u[eorder], v[eorder]
        m = np.r_[True, (u[1:] != u[:-1]) | (v[1:] != v[:-1])]
        u, v = u[m], v[m]
    return u, v


def _pair_jaccard(vu: np.ndarray, lu: np.ndarray,
                  vv: np.ndarray, lv: np.ndarray) -> np.ndarray:
    """Exact Jaccard per candidate edge, vectorized over the whole batch.

    vu/vv are the concatenated per-edge DISTINCT shingle values of the u/v
    side, lu/lv the per-edge set sizes. One lexsort over (edge, value);
    since each side's values are distinct, |A∩B| = duplicate count within
    the edge's combined run. Replaces the per-edge np.intersect1d loop
    (~10 us/pair of Python dispatch at scale).
    """
    m = len(lu)
    if m == 0:
        return np.array([], dtype=np.float64)
    e = np.concatenate([np.repeat(np.arange(m, dtype=np.int64), lu),
                        np.repeat(np.arange(m, dtype=np.int64), lv)])
    v = np.concatenate([vu, vv]) if len(vu) + len(vv) else np.array([], np.uint64)
    order = np.lexsort((v, e))
    v, e = v[order], e[order]
    if len(v):
        dup = (v[1:] == v[:-1]) & (e[1:] == e[:-1])
        inter = np.bincount(e[1:][dup], minlength=m)
    else:
        inter = np.zeros(m, dtype=np.int64)
    union = lu + lv - inter
    jac = np.ones(m, dtype=np.float64)  # both-empty edges: Jaccard = 1
    nz = union > 0
    jac[nz] = inter[nz] / union[nz]
    return jac


def _verify_jaccard(edges, payload, tau: float, emit_jac: bool = False):
    """Attach both sides' shingle sets to candidate edges (two bucket_joins)
    and keep edges with exact Jaccard >= tau. Fully distributed; the per-pair
    work is one numpy intersect over pre-distinct shingle arrays.

    The payload is first reduced to candidate ENDPOINTS so the joins shuffle
    O(candidates) shingle sets, not the whole corpus: endpoint ids are tiny
    (2 int64 per verified-candidate edge), so below SMALL_THRESHOLD they
    broadcast into a map-only filter; above, a bucket_semi_join does the
    same reduction with one extra shuffle.
    """
    import pyarrow.compute as pc
    import ray

    # edges are LSH-bounded candidates (tiny next to the corpus); pin them
    # so the endpoint scan + the join don't re-execute the band lineage
    edges = edges.materialize()
    sch = edges.schema()
    if sch is None:  # no candidate edges: nothing to verify
        return edges
    c0, c1 = sch.names[:2]

    eps = edges.map_batches(
        lambda t: pa.table({"doc_id": pa.concat_arrays(
            [t.column(c0).combine_chunks(), t.column(c1).combine_chunks()]
        ).unique()}),
        batch_format="pyarrow",
    )
    n_eps_upper = eps.count()
    if n_eps_upper <= BROADCAST_VERIFY_THRESHOLD:
        # CANDIDATE shingle sets fit one node (bounded by LSH candidate
        # count, never the corpus): gather them with a map-only filter,
        # broadcast once in CSR layout, verify edges with a lookup stage —
        # zero sort shuffles (the two bucket_joins below cost two sorted
        # exchanges that dominate verify wall-time at moderate scale)
        ids = np.unique(np.concatenate(
            [b.column("doc_id").to_numpy(zero_copy_only=False)
             for b in eps.iter_batches(batch_format="pyarrow",
                                       batch_size=None)]
            or [np.array([], dtype=np.int64)]))
        idref = ray.put(pa.array(ids, pa.int64()))

        def keep_candidates(t: pa.Table) -> pa.Table:
            return t.filter(pc.is_in(t.column("doc_id"),
                                     value_set=ray.get(idref)))

        cand = payload.map_batches(keep_candidates, batch_format="pyarrow")
        # collect candidate sets into one CSR block (ids, offsets, values)
        cids, offs, vals = [np.array([], dtype=np.int64)], [0], []
        # batch_size=None yields whole blocks: the default 256-row batching
        # costs one Python iteration per 256 rows — measured 4x the wall
        # time of the collect itself on a 1M-row stream
        for b in cand.iter_batches(batch_format="pyarrow", batch_size=None):
            col = b.column(b.column_names[1]).combine_chunks()
            cids.append(b.column("doc_id").to_numpy(zero_copy_only=False))
            lens = np.diff(col.offsets.to_numpy(zero_copy_only=False))
            offs.append(lens)
            vals.append(col.values.to_numpy(zero_copy_only=False)
                        .astype(np.uint64))
        lens = np.concatenate(offs[1:]) if len(offs) > 1 else np.array([], dtype=np.int64)
        vals = (np.concatenate(vals) if vals
                else np.array([], dtype=np.uint64))
        ref = ray.put(_sorted_csr(np.concatenate(cids), lens, vals))

        def verify_edges(t: pa.Table) -> pa.Table:
            csr_ids, csr_starts, csr_vals = ray.get(ref)
            u = t.column(c0).to_numpy(zero_copy_only=False)
            v = t.column(c1).to_numpy(zero_copy_only=False)
            iu = np.searchsorted(csr_ids, u)
            iv = np.searchsorted(csr_ids, v)
            # membership check: a miss (endpoint absent from the payload)
            # would otherwise index out of bounds or silently verify
            # against the wrong document's shingles
            n_ids = len(csr_ids)
            if (iu >= n_ids).any() or (iv >= n_ids).any() or \
                    (csr_ids[np.minimum(iu, n_ids - 1)] != u).any() or \
                    (csr_ids[np.minimum(iv, n_ids - 1)] != v).any():
                raise ValueError(
                    "verify payload is missing candidate-edge endpoints "
                    "(partial payload; duplicates are rejected at CSR build)")
            vu, lu = _csr_gather(csr_vals, csr_starts, iu)
            vv, lv = _csr_gather(csr_vals, csr_starts, iv)
            jacs = _pair_jaccard(vu, lu, vv, lv)
            keep = jacs >= tau
            cols = {c0: pa.array(u[keep], pa.int64()),
                    c1: pa.array(v[keep], pa.int64())}
            if emit_jac:
                cols["jac"] = pa.array(round_away(jacs[keep], 4))
            return pa.table(cols)

        # one task per block: the collected small-band path emits the whole
        # edge set as ONE block, which would run the per-edge lexsort kernel
        # (the verify cost center) on a single core — slice to ~8k-edge
        # blocks so the stage spreads across the pool (edge order is
        # irrelevant: every consumer either min-labels or sorts)
        n_edges = edges.count()
        target_blocks = int(min(512, max(1, n_edges // 8192)))
        if edges.num_blocks() < target_blocks:
            edges = edges.repartition(target_blocks)
        return edges.map_batches(verify_edges, batch_format="pyarrow")

    payload = bucket_semi_join(payload, eps, on="doc_id")
    pay_u = payload.map_batches(
        lambda t: t.rename_columns([c0, "__sh_u"]), batch_format="pyarrow")
    pay_v = payload.map_batches(
        lambda t: t.rename_columns([c1, "__sh_v"]), batch_format="pyarrow")
    both = bucket_join(bucket_join(edges, pay_u, on=c0), pay_v, on=c1)

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            out = df[[c0, c1]]
            return out.assign(jac=pd.Series(dtype="float64")) if emit_jac else out
        su = df["__sh_u"].to_numpy()
        sv = df["__sh_v"].to_numpy()
        lu = np.fromiter((len(x) for x in su), dtype=np.int64, count=len(su))
        lv = np.fromiter((len(x) for x in sv), dtype=np.int64, count=len(sv))
        vu = (np.concatenate([np.asarray(x, dtype=np.uint64) for x in su])
              if lu.sum() else np.array([], dtype=np.uint64))
        vv = (np.concatenate([np.asarray(x, dtype=np.uint64) for x in sv])
              if lv.sum() else np.array([], dtype=np.uint64))
        jacs = _pair_jaccard(vu, lu, vv, lv)
        keep = jacs >= tau
        out = df.loc[keep, [c0, c1]].copy()
        if emit_jac:
            out["jac"] = round_away(jacs[keep], 4)
        return out

    return both.map_batches(verify, batch_format="pandas")


def _propagate_components(edges, all_ids, out_col: str,
                          small_threshold: int = SMALL_THRESHOLD,
                          max_rounds: int = 8):
    """Connected components over undirected (u, v) edges: every doc gets the
    min doc_id of its component; docs in no edge stay singletons.

    Returns Dataset[(doc_id, out_col)]. Adaptive: ``_labels_vectorized`` on
    the collected edges + a broadcast label map below ``small_threshold``
    linked docs, else ``propagate_labels`` on the Dataset incidence.
    """
    import ray

    # edges are small (LSH-bounded candidates that passed verification);
    # materialize so count + downstream use don't re-execute the whole
    # sketch/band/verify lineage
    edges = edges.materialize()
    sch = edges.schema()
    if sch is None:  # no edges at all: every doc is its own component
        return all_ids.map_batches(
            lambda t: pa.table({"doc_id": t.column("doc_id"),
                                out_col: t.column("doc_id")}),
            batch_format="pyarrow",
        )
    c0, c1 = sch.names[:2]
    # Star incidence: edge (u, v) -> group u contains {u, v}; min-label over
    # the bipartite (group, member) graph = component min.
    incidence = edges.map_batches(
        lambda t: pa.table({
            "band": pa.concat_arrays([c.combine_chunks() for c in
                                      (t.column(c0), t.column(c0))]),
            "pid": pa.concat_arrays([c.combine_chunks() for c in
                                     (t.column(c0), t.column(c1))]),
        }),
        batch_format="pyarrow",
    )

    n_edges = edges.count()
    if n_edges == 0:
        return all_ids.map_batches(
            lambda t: pa.table({"doc_id": t.column("doc_id"),
                                out_col: t.column("doc_id")}),
            batch_format="pyarrow",
        )

    if n_edges <= small_threshold:
        inc = incidence.to_pandas()
        uniq, lab, _ = _labels_vectorized(
            inc["band"].to_numpy(dtype=np.int64),
            inc["pid"].to_numpy(dtype=np.int64), max_rounds)
        nontrivial = (uniq != lab)
        keys = uniq[nontrivial].astype(np.int64)
        labs = lab[nontrivial].astype(np.int64)
        korder = np.argsort(keys, kind="stable")
        ref = ray.put((keys[korder], labs[korder]))

        def assign_labels(t: pa.Table) -> pa.Table:
            # vectorized sorted-array lookup (no per-row dict.get)
            k, l = ray.get(ref)
            ids = t.column("doc_id").to_numpy(zero_copy_only=False)
            out = ids.astype(np.int64).copy()
            if len(k):
                ix = np.minimum(np.searchsorted(k, ids), len(k) - 1)
                hit = k[ix] == ids
                out[hit] = l[ix[hit]]
            return pa.table({"doc_id": pa.array(ids, pa.int64()),
                             out_col: pa.array(out, pa.int64())})

        return all_ids.map_batches(assign_labels, batch_format="pyarrow")

    # ---- distributed path: label table too large to broadcast ----
    labels = all_ids.map_batches(
        lambda t: pa.table({"pid": t.column("doc_id"),
                            "label": t.column("doc_id")}),
        batch_format="pyarrow",
    )
    labels, _ = propagate_labels(incidence, labels, max_rounds=max_rounds)
    # labels was initialized from all_ids, so every doc has a label row
    joined = bucket_join(
        all_ids.map_batches(lambda t: t.rename_columns(["pid"]),
                            batch_format="pyarrow"),
        labels, on="pid",
    )

    def emit(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t.column("pid"),
                         out_col: t.column("label").cast(pa.int64())})

    return joined.map_batches(emit, batch_format="pyarrow")


def _minhash_driver_small(t: pa.Table, mh: "MinHasher", bands: int, tau: float,
                          max_rounds: int) -> pa.Table:
    """All-driver tail of MinHash-LSH over a sketch table (doc_id, sig,
    shingles) that fits one node: band explode, star candidates,
    exact-Jaccard verify and min-label components in one numpy pass.
    Returns the (doc_id, cluster_id) table in ``t``'s row order. Reuses the
    exact kernels of the distributed path, so the clustering is identical
    (pinned by test_minhash_driver_matches_distributed). Runs no Ray
    execution: ``minhash_lsh_dedup`` feeds it its collected sketch, entity
    canonicalization a sketch built on the driver."""
    ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)

    # candidates: same band keys + per-band star edges as the small band
    # path (global lexsort == per-bucket sort, buckets contain whole bands)
    sigs = _sig_matrix(t.column("sig"), mh.num_perm)
    u, v = _star_candidates(mh.band_keys_batch(sigs, bands).ravel(),
                            np.repeat(ids, bands))

    # exact-Jaccard verify against the in-memory shingle CSR (the same
    # _sorted_csr + _csr_gather + _pair_jaccard as _verify_jaccard)
    col = t.column("shingles").combine_chunks()
    sorted_ids, sorted_starts, csr_vals = _sorted_csr(
        ids, np.diff(col.offsets.to_numpy(zero_copy_only=False)),
        col.values.to_numpy(zero_copy_only=False).astype(np.uint64))
    if len(u):
        iu = np.searchsorted(sorted_ids, u)
        iv = np.searchsorted(sorted_ids, v)
        vu, lu = _csr_gather(csr_vals, sorted_starts, iu)
        vv, lv = _csr_gather(csr_vals, sorted_starts, iv)
        jacs = _pair_jaccard(vu, lu, vv, lv)
        keep = jacs >= tau
        u, v = u[keep], v[keep]

    # components: the same star incidence as _propagate_components
    # (edge (u, v) -> group u contains {u, v}), min-label fixpoint
    labels = ids.copy()
    if len(u):
        upids, ulabs, _ = _labels_vectorized(
            np.concatenate([u, u]), np.concatenate([u, v]), max_rounds)
        pos = np.searchsorted(upids, ids)
        pos_c = np.minimum(pos, len(upids) - 1)
        hit = upids[pos_c] == ids
        labels[hit] = ulabs[pos_c[hit]]
    return pa.table({"doc_id": pa.array(ids, pa.int64()),
                     "cluster_id": pa.array(labels, pa.int64())})


def minhash_lsh_dedup(
    ds,
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 3,
    use_words: bool = True,
    tau: float = 0.5,
    max_rounds: int = 8,
    small_band_rows: int = SMALL_BAND_ROWS,
    driver_sketch_bytes: int = DRIVER_SKETCH_BYTES,
):
    """MinHash-LSH near-dup clustering.

    Pipeline: sketch (stateless tasks, one pass, materialized for reuse) ->
    explode band rows -> groupby(band) star candidate edges (capped per
    bucket) -> distinct edges -> distributed exact-Jaccard verify (shingle
    sets bucket_joined onto edges) -> min-label propagation -> Dataset
    (doc_id, cluster_id) with cluster_id = min doc_id of the component.

    Adaptive banding: when the measured band stream (n_docs x bands rows of
    16 B) is at most ``small_band_rows``, candidate extraction collapses to
    one collected numpy sort (zero exchanges) with the identical edge set;
    above the gate it runs the two-exchange distributed form. Pass
    ``small_band_rows=0`` to force the distributed path.
    """
    import ray

    mh = MinHasher(num_perm=num_perm)

    sketched = _lsh_sketch(ds, num_perm, shingle_k, use_words).materialize()
    payload = sketched.select_columns(["doc_id", "shingles"])
    bands_ds = sketched.select_columns(["doc_id", "sig"]).map_batches(
        _explode_bands(mh, bands), batch_format="pyarrow")

    def star_edges(g: pd.DataFrame) -> pd.DataFrame:
        u, v = _star_edges_np(g["doc_id"].to_numpy(dtype=np.int64),
                              g["__seg"].to_numpy())
        return pd.DataFrame({"u": u, "v": v})

    n_docs = sketched.count()
    if n_docs * bands <= small_band_rows:
        if _est_memory_bytes(sketched) <= driver_sketch_bytes:
            # All-driver path for TINY sketches only (see gate constant:
            # the 120k-path A/B showed the distributed verify wins well
            # before 256 MB — verify is parallel compute, not latency):
            # band explode, star candidates, exact-Jaccard verify and
            # min-label components in ONE numpy pass over a single
            # collect, zero further Ray stages. Same kernels, so the
            # clustering is identical (equivalence-pinned).
            tabs = list(sketched.iter_batches(batch_format="pyarrow",
                                              batch_size=None))
            if not tabs:  # no documents at all
                return ray.data.from_arrow(pa.table(
                    {"doc_id": pa.array([], pa.int64()),
                     "cluster_id": pa.array([], pa.int64())}))
            return ray.data.from_arrow(_minhash_driver_small(
                pa.concat_tables(tabs).combine_chunks(), mh, bands, tau,
                max_rounds))
        # Small path: the (band, doc_id) stream fits one node (16 B/row,
        # gated — default 8M rows = 128 MB), so collect it and run the SAME
        # star-edge kernel over one global (band, doc_id) sort instead of
        # two all-to-all exchanges (band groupby + edge-distinct groupby).
        # Identical edge set: each band is wholly contained in one hash
        # bucket on the distributed path, so a global sort restricted to a
        # bucket equals the bucket's local sort; equivalence is pinned by
        # test_minhash_small_matches_distributed.
        chunks = list(bands_ds.iter_batches(batch_format="pyarrow",
                                            batch_size=None))
        band = (np.concatenate([c.column("band").to_numpy(zero_copy_only=False)
                                for c in chunks])
                if chunks else np.array([], dtype=np.int64))
        doc = (np.concatenate([c.column("doc_id").to_numpy(zero_copy_only=False)
                               for c in chunks])
               if chunks else np.array([], dtype=np.int64))
        u, v = _star_candidates(band, doc)
        edges = ray.data.from_arrow(pa.table({"u": pa.array(u, pa.int64()),
                                              "v": pa.array(v, pa.int64())}))
    else:
        edges = _band_groups(bands_ds, star_edges)
        edges = _distinct_edges(edges)
    verified = _verify_jaccard(edges, payload, tau)
    return _propagate_components(verified, sketched.select_columns(["doc_id"]),
                                 "cluster_id", max_rounds=max_rounds)


def minhash_lsh_table(docs: pa.Table, num_perm: int = 64, bands: int = 16,
                      shingle_k: int = 3, tau: float = 0.5,
                      max_rounds: int = 8) -> pa.Table | None:
    """``minhash_lsh_dedup`` over char shingles (``use_words=False``) of a
    (doc_id, text) table held on the driver, with no Ray execution: the
    (doc_id, cluster_id) table in ``docs``' row order, the same clustering
    as the Dataset form. Returns None when the sketch's bytes, bounded from
    the text lengths before sketching, exceed ``DRIVER_SKETCH_BYTES``; the
    caller then runs ``minhash_lsh_dedup``."""
    if (_char_sketch_bytes_bound(docs.column("text"), num_perm, shingle_k)
            > DRIVER_SKETCH_BYTES):
        return None
    return _minhash_driver_small(
        _lsh_sketch(docs, num_perm, shingle_k, False),
        MinHasher(num_perm=num_perm), bands, tau, max_rounds)


def simhash_groups(ds, shingle_k: int = 3, use_words: bool = True,
                   radius: int = 3, max_rounds: int = 8):
    """SimHash near-dup grouping: 64-bit fingerprint per doc; per 16-bit band
    chunk, link every doc within hamming ``radius`` of the bucket's min-id
    root; connected components via min-label propagation.

    Returns Dataset[(doc_id, group_id)], group_id = component min doc_id.
    """
    sketched = _sketch(ds, 8, shingle_k, use_words).select_columns(
        ["doc_id", "simhash"]).materialize()

    def explode(t: pa.Table) -> pa.Table:
        sims = t.column("simhash").to_numpy(zero_copy_only=False).astype(np.uint64)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        bands_l, ids_l, sims_l = [], [], []
        # band by each of four 16-bit chunks (standard simhash blocking);
        # chunk index folded into the key so the four band spaces stay apart
        for ci, shift in enumerate((0, 16, 32, 48)):
            band = ((sims >> np.uint64(shift)) & np.uint64(0xFFFF)).astype(np.int64)
            bands_l.append(band + np.int64(ci << 16))
            ids_l.append(ids)
            sims_l.append(sims)
        return pa.table({
            "band": pa.array(np.concatenate(bands_l), pa.int64()),
            "doc_id": pa.array(np.concatenate(ids_l), pa.int64()),
            "sim": pa.array(np.concatenate(sims_l), pa.uint64()),
        })

    bands_ds = sketched.map_batches(explode, batch_format="pyarrow")

    def hamming_edges(g: pd.DataFrame) -> pd.DataFrame:
        # fully vectorized across ALL band segments: every member's hamming
        # distance to its segment root (XOR + byte-table popcount)
        doc = g["doc_id"].to_numpy(dtype=np.int64)
        sims = g["sim"].to_numpy(dtype=np.uint64)
        seg = g["__seg"].to_numpy()
        if len(doc) == 0:
            return pd.DataFrame({"u": pd.Series(dtype="int64"),
                                 "v": pd.Series(dtype="int64")})
        starts = np.flatnonzero(np.r_[True, seg[1:] != seg[:-1]])
        lens = np.diff(np.r_[starts, len(seg)])
        pos = np.arange(len(seg)) - np.repeat(starts, lens)
        roots = np.repeat(doc[starts], lens)
        x = sims ^ np.repeat(sims[starts], lens)
        dist = np.zeros(len(x), dtype=np.int64)
        for shift in range(0, 64, 8):
            byte = ((x >> np.uint64(shift)) & np.uint64(0xFF)).astype(np.int64)
            dist += _POPCOUNT8[byte]
        keep = (pos >= 1) & (dist <= radius)
        return pd.DataFrame({"u": doc[keep], "v": roots[keep]})

    edges = _band_groups(bands_ds, hamming_edges)
    edges = _distinct_edges(edges)
    return _propagate_components(edges, sketched.select_columns(["doc_id"]),
                                 "group_id", max_rounds=max_rounds)


_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def ngram_jaccard_pairs(ds, shingle_k: int = 3, tau: float = 0.3,
                        num_perm: int = 64, bands: int = 32) -> pd.DataFrame:
    """Candidate near-dup pairs with exact word n-gram Jaccard >= tau.

    LSH (aggressive banding) proposes candidates; the exact Jaccard filter
    runs distributed over the candidate edges (shingle sets bucket_joined on).
    Returns pandas (id_a, id_b, jac), id_a < id_b — O(matching pairs), not
    O(corpus), so the driver collect is bounded by the result itself.
    """
    mh = MinHasher(num_perm=num_perm)

    sketched = _lsh_sketch(ds, num_perm, shingle_k, True).materialize()
    payload = sketched.select_columns(["doc_id", "shingles"])
    bands_ds = sketched.select_columns(["doc_id", "sig"]).map_batches(
        _explode_bands(mh, bands), batch_format="pyarrow")

    def pair_edges(g: pd.DataFrame) -> pd.DataFrame:
        # python loop only over COLLIDING band segments (>=2 members) —
        # vanishingly few relative to total bands
        doc = g["doc_id"].to_numpy(dtype=np.int64)
        seg = g["__seg"].to_numpy()
        if len(doc) == 0:
            return pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                                 "id_b": pd.Series(dtype="int64")})
        starts = np.flatnonzero(np.r_[True, seg[1:] != seg[:-1]])
        lens = np.diff(np.r_[starts, len(seg)])
        us, vs = [], []
        for s, n in zip(starts[lens >= 2], lens[lens >= 2]):
            ids = doc[s:s + min(n, 48)]
            a, b = np.triu_indices(len(ids), k=1)
            us.append(ids[a])
            vs.append(ids[b])
        if not us:
            return pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                                 "id_b": pd.Series(dtype="int64")})
        return pd.DataFrame({"id_a": np.concatenate(us),
                             "id_b": np.concatenate(vs)})

    pairs = _band_groups(bands_ds, pair_edges)
    pairs = _distinct_edges(pairs)
    out = _verify_jaccard(pairs, payload, tau, emit_jac=True).to_pandas()
    if out.empty:
        return pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                             "id_b": pd.Series(dtype="int64"),
                             "jac": pd.Series(dtype="float64")})
    out["id_a"] = out["id_a"].astype("int64")
    out["id_b"] = out["id_b"].astype("int64")
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def ngram_jaccard_exact(ds, shingle_k: int = 3, tau: float = 0.3,
                        num_buckets: int = 8) -> pd.DataFrame:
    """ALL pairs with exact word n-gram Jaccard >= tau (id_a < id_b) — the
    oracle-checkable variant of ``ngram_jaccard_pairs`` (whose LSH candidate
    set is seed-defined and so has no SQL twin).

    Candidate generation is a bucket-pair self-join over doc_id ONLY
    (``embedding_neardup_pairs`` pattern, ops/similarity.py:84): each id
    lands in bucket mix(id) % B and is replicated to its B pair-groups, so
    one task emits each unordered pair exactly once with 2n/B ids in memory
    — no payload replication. The standard distributed `_verify_jaccard`
    then attaches shingle sets and filters. Total pair count is inherently
    O(n^2) — that is what "exact all pairs" costs; size ``num_buckets`` so a
    pair-group's id block and its emitted edges fit a worker.
    """
    from ..functions.hashing import _mix64

    B = num_buckets

    def shingle_payload(t: pa.Table) -> pa.Table:
        vals, offs = word_shingles_batch(t.column("text").to_pylist(), shingle_k)
        return pa.table({
            "doc_id": t.column("doc_id"),
            "shingles": pa.ListArray.from_arrays(
                pa.array(offs, pa.int32()), pa.array(vals, pa.uint64())),
        })

    # stateless task stage: shingling needs no compiled state
    payload = ds.map_batches(shingle_payload, batch_format="pyarrow")

    def replicate(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        bkt = (_mix64(ids) % B).astype(np.int64)
        n = len(ids)
        pair_ids = np.empty(n * B, dtype=np.int64)
        for o in range(B):
            lo = np.minimum(bkt, o)
            hi = np.maximum(bkt, o)
            pair_ids[o * n:(o + 1) * n] = lo * B + hi
        return pa.table({"doc_id": pa.array(np.tile(ids, B), pa.int64()),
                         "__bkt": pa.array(np.tile(bkt, B), pa.int64()),
                         "__pair": pa.array(pair_ids, pa.int64())})

    rep = ds.map_batches(replicate, batch_format="pyarrow")

    def pair_edges(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                              "id_b": pd.Series(dtype="int64")})
        if g.empty:
            return empty
        pair = int(g["__pair"].iloc[0])
        i, j = pair // B, pair % B
        ids = g["doc_id"].to_numpy(dtype=np.int64)
        bkt = g["__bkt"].to_numpy(dtype=np.int64)
        if i == j:
            a, b = np.triu_indices(len(ids), k=1)
            u, v = ids[a], ids[b]
        else:
            mi, mj = bkt == i, bkt == j
            u = np.repeat(ids[mi], int(mj.sum()))
            v = np.tile(ids[mj], int(mi.sum()))
        if len(u) == 0:
            return empty
        return pd.DataFrame({"id_a": np.minimum(u, v), "id_b": np.maximum(u, v)})

    pairs = rep.groupby("__pair").map_groups(pair_edges, batch_format="pandas")
    out = _verify_jaccard(pairs, payload, tau, emit_jac=True).to_pandas()
    if out.empty:
        return pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                             "id_b": pd.Series(dtype="int64"),
                             "jac": pd.Series(dtype="float64")})
    out["id_a"] = out["id_a"].astype("int64")
    out["id_b"] = out["id_b"].astype("int64")
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


