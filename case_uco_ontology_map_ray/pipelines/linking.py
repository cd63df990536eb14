"""Entity linking + canonicalization over the triple stream, and the
co-mention graph analytics over the linked entities.

The reference resolves identity only within one payload (deterministic uuid5
per record). At transcript scale the same real-world entity (a file path)
appears across turns, conversations, and artifact types (an MFT ``FullPath``
and a prefetch ``SourceFilename`` naming the same file). This stage links
those mentions and assigns one deterministic canonical entity ID per
connected component of near-identical paths (north_rule: MinHash-LSH
blocking + union-find as iterative groupby-aggregate rounds).

Pipeline:
  1. mentions: filter path-bearing preds out of the triple stream (map-only);
     normalize the path (Arrow kernels); pid = vectorized 64-bit content
     hash of the normalized path. Materialized once; its row count is
     metadata and, with the distinct paths' lengths, picks one of two
     branches for steps 2-3.
  2. distinct paths — the node set for clustering. All-driver branch (band
     rows = mentions x bands <= ``ops.dedup.SMALL_BAND_ROWS`` and the
     paths' sketch bound <= ``ops.dedup.DRIVER_SKETCH_BYTES``): read out of
     the materialized mention blocks and deduped in Arrow on the driver (no
     execution). Distributed branch (past either gate): a two-phase dedup
     (local arrow combiner + pid-partitioned finish, ``distinct_paths``).
  3. clustering over char-4 shingles of the normalized paths: LSH band
     blocking -> exact-Jaccard VERIFICATION of every candidate edge ->
     min-label connected components (pointer-jumped). All-driver:
     ``ops/dedup.minhash_lsh_table`` in numpy, so the whole
     canonicalization runs one Ray execution before its writes.
     Distributed: ``ops/dedup.minhash_lsh_dedup`` as Ray executions.
     Verification is load-bearing: unverified band collisions chain
     transitively and merge unrelated paths at scale (ROUND5_NOTES.md).
  4. canonical IDs: component label -> its path string -> uuid5(NS_ENTITY,
     canonical path) -> link triples (subj, kb:canonicalEntity, kb:entity-x),
     by a broadcast map-only join at or below ``small_threshold`` distinct
     paths, a bucket_join above.

Exact-duplicate paths canonicalize identically by construction (same pid);
assignment is independent of block arrival order (min is commutative).

Co-mention graph core: every graph query starts from one graph object
built over the mention stream and the (conversation, pid) incidence, each
materialized once. PageRank and its weighted and personalized forms,
components, modularity, component stats, BFS, k-core, Adamic-Adar,
triangles and the degree histogram take it from ``comention_graph``, the
one size gate: it reads the incidence size once against
``SMALL_GRAPH_INCIDENCE`` and returns numpy arrays (``ArrayGraph``) at or
below it, Datasets (``DatasetGraph``) above it. Assortativity and the top
pairs have only a Dataset body and always take a ``DatasetGraph``. Both
graph forms build their edges on first use, with the capped
clique-expansion edge builders of ``ops/graph`` (``MAX_CONV_ENTITIES`` pids
per conversation); components run ``ops/graph``'s label-propagation kernel
of the graph's side, PageRank its power-iteration kernel. Tests force the
Dataset side by patching ``SMALL_GRAPH_INCIDENCE`` to 0.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..config import NS_ENTITY
from ..functions.fingerprint import uuid5_str
from ..functions.hashing import _mix64, content_hash64_arrow
from ..ops import dedup
from ..ops.agg import grouped_sums, grouped_sums_ds, plain_strings, round_away, topk_ds
from ..ops.graph import (
    clique_edges_ds,
    clique_edges_np,
    _labels_vectorized,
    pagerank_ds,
    pagerank_np,
    propagate_labels,
)
from ..ops.joins import bucket_join, bucket_semi_join

# Triple predicates whose objects are file-path mentions.
PATH_PREDS = (
    "uco-observable:filePath",
    "uco-observable:applicationFileName",
    "uco-observable:accessedFile",
    "uco-observable:accessedDirectory",
)


def normalize_path(p: str) -> str:
    """Case/sep/drive-insensitive path normal form (scalar reference
    implementation; the hot path uses ``normalize_paths_arrow``, pinned
    equivalent by tests/test_linking.py)."""
    s = p.replace("\\", "/").lower()
    while s.startswith("/"):
        s = s[1:]
    if len(s) > 1 and s[1] == ":":
        s = s[2:]
    elif s.startswith("c/"):
        s = s[2:]
    return s.strip("/")


def normalize_paths_arrow(arr: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Vectorized ``normalize_path`` over an Arrow string column — five RE2/
    utf8 kernels, no per-row Python (the mention stream is a wide path at
    10^12 turns; see VERDICT r4 'What's wrong' #1)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if pa.types.is_dictionary(arr.type):
        arr = arr.cast(arr.type.value_type)
    s = pc.replace_substring(arr, pattern="\\", replacement="/")
    s = pc.utf8_lower(s)
    s = pc.replace_substring_regex(s, pattern="^/+", replacement="")
    # drive strip: any "<char>:" prefix, or the bare "c/" prefix (the scalar
    # rule's elif order is preserved by RE2 alternation: ".:"" wins over "c/")
    s = pc.replace_substring_regex(s, pattern="^(.:|c/)", replacement="",
                                   max_replacements=1)
    return pc.utf8_trim(s, characters="/")


def mentions_from_triples(triples: rd.Dataset) -> rd.Dataset:
    """(conv_id, turn_idx, subj, path, norm_path, pid) mention rows.

    Fully vectorized: path normalization is Arrow utf8/RE2 kernels and pid is
    the batched polynomial content hash (functions/hashing.py) — no
    ``to_pylist`` on the mention stream."""

    def extract(t: pa.Table) -> pa.Table:
        mask = pc.is_in(t.column("pred"), value_set=pa.array(PATH_PREDS))
        m = t.filter(mask)
        norm = normalize_paths_arrow(m.column("obj"))
        pid = (content_hash64_arrow(norm) >> np.uint64(1)).astype(np.int64)
        # plain strings: Arrow group_by keys need them, and a filtered
        # dictionary column would carry its whole block's dictionary into
        # every mention block and the link files
        return plain_strings(pa.table({
            "conv_id": m.column("conv_id"),
            "turn_idx": m.column("turn_idx"),
            "subj": m.column("subj"),
            "path": m.column("obj"),
            "norm_path": norm,
            "pid": pa.array(pid, pa.int64()),
        }))

    return triples.map_batches(extract, batch_format="pyarrow", zero_copy_batch=True)


def _min_path_per_pid(t: pa.Table) -> pa.Table:
    """(pid, norm_path), one row per pid of ``t``: the least path string
    stands for a pid whose paths' hashes collide."""
    return t.select(["pid", "norm_path"]).group_by(["pid"]).aggregate(
        [("norm_path", "min")]).rename_columns(["pid", "norm_path"])


def distinct_paths(mentions: rd.Dataset, num_parts: int = 64) -> rd.Dataset:
    """Dataset[(pid, norm_path)] — one row per distinct normalized path."""

    def local(t: pa.Table) -> pa.Table:
        agg = _min_path_per_pid(t)
        part = pc.bit_wise_and(agg.column("pid"), pa.scalar(num_parts - 1, pa.int64()))
        return agg.append_column("__part", part.cast(pa.int32()))

    pre = mentions.map_batches(local, batch_format="pyarrow")
    return pre.groupby("__part").map_groups(_min_path_per_pid, batch_format="pyarrow")


def _canonical_ids(paths: pd.Series) -> np.ndarray:
    """``kb:entity-<uuid5(NS_ENTITY, path)>`` per row, one uuid5 call per
    distinct canonical path."""
    codes, uniq = pd.factorize(paths)
    ids = np.array([f"kb:entity-{uuid5_str(NS_ENTITY, p)}" for p in uniq],
                   dtype=object)
    return ids[codes]


# char-shingle width of the path sketches
PATH_SHINGLE_K = 4

ENTITY_SCHEMA = pa.schema([("pid", pa.int64()), ("norm_path", pa.string()),
                           ("label", pa.int64()), ("canonical_path", pa.string()),
                           ("canonical_id", pa.string())])
LINK_SCHEMA = pa.schema([("subj", pa.string()), ("pred", pa.string()),
                         ("obj", pa.string()), ("obj_dt", pa.string()),
                         ("conv_id", pa.string()), ("turn_idx", pa.int32())])


def _collected_paths(mentions: rd.Dataset) -> pa.Table:
    """``distinct_paths`` on the driver: (pid, norm_path) per distinct path,
    sorted by pid, from the blocks of a MATERIALIZED mention Dataset
    (reading them starts no execution)."""
    tabs = [b.select(["pid", "norm_path"]) for b in
            mentions.iter_batches(batch_format="pyarrow", batch_size=None)]
    t = pa.concat_tables(tabs) if tabs else ENTITY_SCHEMA.empty_table()
    return _min_path_per_pid(t).sort_by("pid")


def _link_triples(t: pa.Table, obj) -> pa.Table:
    """Link triple rows (``LINK_SCHEMA``) of mention rows ``t``."""
    return pa.table({
        "subj": t.column("subj"),
        "pred": pa.array(["kb:canonicalEntity"] * t.num_rows, pa.string()),
        "obj": obj,
        "obj_dt": pa.array(["@id"] * t.num_rows, pa.string()),
        "conv_id": t.column("conv_id"),
        "turn_idx": t.column("turn_idx"),
    })


def canonical_entities(triples: rd.Dataset, num_perm: int = 32, bands: int = 8,
                       max_rounds: int = 5,
                       small_threshold: int = 20_000_000,
                       verify_tau: float = 0.6) -> tuple[rd.Dataset, rd.Dataset]:
    """Full canonicalization. Returns (entity_table, link_triples).

    ``triples`` needs the subj, pred, obj, conv_id and turn_idx columns
    (extra columns are ignored); the mention rows are projected from it
    here (``mentions_from_triples``).

    entity_table: (pid, norm_path, label, canonical_path, canonical_id)
    link_triples: (subj, pred=kb:canonicalEntity, obj=kb:entity-<uuid5>,
                   obj_dt=@id, conv_id, turn_idx)

    Clustering over the DISTINCT-PATH set (always orders of magnitude
    smaller than the mention stream) is MinHash-LSH over char-4 shingles of
    the normalized path (``ops/dedup``): blocking -> **exact-Jaccard
    verification of every candidate edge** (tau=``verify_tau``) -> min-label
    connected components (pointer-jumped). The verify stage is what keeps
    canonicalization meaningful at scale: unverified band collisions chain
    transitively — measured on a 360k-conv corpus, they merged 99.99% of
    all paths into ONE entity (every prefetch path shares the
    "windows/prefetch/" shingles); with verification only genuinely
    near-identical paths (Jaccard >= tau) link.

    The mention projection is materialized once; its row count is
    metadata, so the branch is picked from it and the distinct paths'
    lengths before any further execution:

    - **all-driver** (mentions x ``bands`` <= ``ops.dedup.SMALL_BAND_ROWS``
      and the distinct paths' sketch bound <=
      ``ops.dedup.DRIVER_SKETCH_BYTES``): the driver reads the distinct
      paths out of the mention blocks and ``ops/dedup.minhash_lsh_table``
      sketches and clusters them. No Ray execution beyond the mention
      materialization.
    - **distributed** (past either gate): distinct paths by a
      pid-partitioned exchange (``distinct_paths``), then
      ``minhash_lsh_dedup``.

    Both compute the identical clustering (the same kernels).

    ``small_threshold`` gates the FINAL pid->canonical_id map: at or below
    it the (pid, label) table is held on the driver (16 B/row -> default
    20M rows ≈ 320 MB) and broadcast as sorted arrays for a map-only link
    join; above it the map stays a Dataset and the link is a bucket_join.
    Both produce the identical labeling.
    """
    # two consumers read the mention stream (the distinct paths and the
    # final link pass): materialize the 6-column projection ONCE so the
    # upstream lineage (triple construction) doesn't re-execute per
    # consumer. The projection is a fraction of the triple stream's bytes
    # and the object store spills it under pressure — strictly cheaper than
    # a second construction pass at any scale.
    mentions = mentions_from_triples(triples).materialize()

    labels = None
    if mentions.count() * bands <= dedup.SMALL_BAND_ROWS:
        paths = _collected_paths(mentions)
        n_paths = paths.num_rows
        if n_paths == 0:  # no path mentions: no entities, no links
            return (rd.from_arrow(ENTITY_SCHEMA.empty_table()),
                    rd.from_arrow(LINK_SCHEMA.empty_table()))
        # None above DRIVER_SKETCH_BYTES: then the distributed branch
        labels = dedup.minhash_lsh_table(
            pa.table({"doc_id": paths.column("pid"),
                      "text": paths.column("norm_path")}),
            num_perm=num_perm, bands=bands, shingle_k=PATH_SHINGLE_K,
            tau=verify_tau, max_rounds=max_rounds)
        if labels is not None:
            labels = labels.rename_columns(["pid", "label"])
    if labels is None:
        paths = distinct_paths(mentions).materialize()  # one row per path
        n_paths = paths.count()
        labels = dedup.minhash_lsh_dedup(
            paths.map_batches(
                lambda t: pa.table({"doc_id": t.column("pid"),
                                    "text": t.column("norm_path")}),
                batch_format="pyarrow"),
            num_perm=num_perm, bands=bands, shingle_k=PATH_SHINGLE_K,
            use_words=False, tau=verify_tau, max_rounds=max_rounds,
        ).map_batches(
            lambda t: t.rename_columns(["pid", "label"]), batch_format="pyarrow",
        ).materialize()

    if n_paths <= small_threshold:
        # every pid has exactly one label row
        lab = labels.to_pandas()
        lp = lab["pid"].to_numpy(dtype=np.int64)
        ll = lab["label"].to_numpy(dtype=np.int64)
        lorder = np.argsort(lp, kind="stable")
        lp, ll = lp[lorder], ll[lorder]
        pdf = paths.to_pandas()
        pid_arr = pdf["pid"].to_numpy(dtype=np.int64)
        label = ll[np.searchsorted(lp, pid_arr)]
        pdf["label"] = label
        # canonical path lookup: every label is a pid present in pdf (min
        # over component members), so a sorted-pid searchsorted resolves it
        order = np.argsort(pid_arr, kind="stable")
        sorted_pids = pid_arr[order]
        paths_sorted = pdf["norm_path"].to_numpy()[order]
        pdf["canonical_path"] = paths_sorted[np.searchsorted(sorted_pids, label)]
        pdf["canonical_id"] = _canonical_ids(pdf["canonical_path"])
        entity = rd.from_pandas(pdf)
        # broadcast lookup in sorted-array form: pid -> canonical_id via
        # np.searchsorted + one Arrow take per batch (no per-row dict.get)
        sorted_ids = pa.array(pdf["canonical_id"].to_numpy()[order], pa.string())
        ref = ray.put((sorted_pids, sorted_ids))

        def link_join(t: pa.Table) -> pa.Table:
            pids, ids = ray.get(ref)
            p = t.column("pid").to_numpy(zero_copy_only=False)
            ix = np.minimum(np.searchsorted(pids, p), len(pids) - 1)
            hit = pids[ix] == p
            return _link_triples(t, pc.if_else(
                pa.array(hit), pc.take(ids, pa.array(ix, pa.int64())),
                pa.scalar("", pa.string())))

        link = mentions.map_batches(link_join, batch_format="pyarrow")
        return entity, link

    # ---- distributed path (label map too large to broadcast) ----
    if isinstance(paths, pa.Table):  # clustered on the driver
        labels, paths = rd.from_arrow(labels), rd.from_arrow(paths)
    canon = bucket_join(
        labels,
        paths.map_batches(
            lambda t: t.rename_columns(["label", "canonical_path"]),
            batch_format="pyarrow",
        ),
        on="label",
    )

    def add_canonical_id(t: pd.DataFrame) -> pd.DataFrame:
        t = t.copy()
        t["canonical_id"] = _canonical_ids(t["canonical_path"])
        return t

    entity = bucket_join(paths, canon, on="pid").map_batches(
        add_canonical_id, batch_format="pandas"
    ).materialize()

    link = bucket_join(
        mentions,
        entity.map_batches(
            lambda t: t.select(["pid", "canonical_id"]), batch_format="pyarrow"
        ),
        on="pid",
    )
    return entity, link.map_batches(
        lambda t: _link_triples(t, t.column("canonical_id")),
        batch_format="pyarrow")


def conversation_entity_stats(triples: rd.Dataset, salt_k: int = 8) -> pd.DataFrame:
    """Distinct entities referenced per conversation.

    Returns pandas as a QUERY surface (one row per conversation): the
    distributed form is the ``counts`` Dataset just before the final
    ``to_pandas()`` — at 10^9 conversations, consume that Dataset (write /
    join / aggregate) instead of collecting.

    Scale shape (pid-hash co-grouping — replaces the round-2 salted
    per-(conv_id, salt) ``map_groups``, which paid one Ray dispatch per
    salted group ≈ millions of dispatches at 10^6 conversations):
    phase 1 dedups (conv_id, pid) inside each block; phase 2 co-groups rows
    into ``max(64, salt_k * 8)`` hash partitions OF PID — equal (conv, pid)
    pairs always co-locate, so a per-partition Arrow distinct + count is
    globally sound, one dispatch per partition; phase 3 sums the partial
    counts per conv_id. Hot conversations are split across partitions by
    pid, so no partition holds a whole hot conversation (same skew
    guarantee the salt provided).
    """
    from ray.data.aggregate import Sum

    from ..ops.joins import _mix_bucket

    num_parts = max(64, salt_k * 8)
    mentions = mentions_from_triples(triples)

    def local(t: pa.Table) -> pa.Table:
        x = t.select(["conv_id", "pid"])
        agg = x.group_by(["conv_id", "pid"]).aggregate([])  # per-block dedup
        return agg.append_column(
            "__part", _mix_bucket(agg.column("pid"), num_parts))

    pre = mentions.map_batches(local, batch_format="pyarrow")

    def count_part(g: pa.Table) -> pa.Table:
        d = g.group_by(["conv_id", "pid"]).aggregate([])  # global dedup/part
        agg = d.group_by(["conv_id"]).aggregate([([], "count_all")])
        return agg.rename_columns(["conv_id", "n"])

    counts = pre.groupby("__part").map_groups(count_part, batch_format="pyarrow")
    out = counts.groupby("conv_id").aggregate(Sum("n", alias_name="n_entities")).to_pandas()
    if "conv_id" not in out.columns:  # fully-empty lineage lost the schema
        out = pd.DataFrame({"conv_id": pd.Series(dtype="object"),
                            "n_entities": pd.Series(dtype="int64")})
    return out.sort_values("conv_id").reset_index(drop=True)


# ---- the co-mention graph core ---------------------------------------------
# Entities (pids) are the nodes; two entities share an edge when one
# conversation mentions both, weighted by the number of such conversations.
# ``comention_graph`` builds the graph once per query, and every graph query
# of this module runs its algorithm on what it returns.

# Driver-side bound of the graph core: a collected (band, pid) incidence is
# 16 B/row -> 20M rows ~ 320 MB. At or below it the graph is collected into
# numpy arrays (``ArrayGraph``); above it every graph query runs on Datasets
# (``DatasetGraph``) with identical results. Read at call time, so a test
# forces the Dataset side by patching it to 0.
SMALL_GRAPH_INCIDENCE = 20_000_000


def _conv_pid_incidence(mentions: rd.Dataset) -> rd.Dataset:
    """Distinct (band = conv-id content hash, pid) incidence rows (per-batch
    combiner; cross-batch duplicates are fine for both consumers: numpy
    re-uniques, the distributed forms group again)."""

    def inc(t: pa.Table) -> pa.Table:
        band = (content_hash64_arrow(t.column("conv_id"))
                >> np.uint64(1)).astype(np.int64)
        d = pa.table({"band": pa.array(band, pa.int64()),
                      "pid": t.column("pid")})
        return d.group_by(["band", "pid"]).aggregate([])

    return mentions.map_batches(inc, batch_format="pyarrow")


def _collect_incidence(incidence: rd.Dataset) -> tuple[np.ndarray, np.ndarray]:
    """(band, pid) arrays, globally distinct."""
    df = incidence.to_pandas()
    if "band" not in df.columns:  # fully-empty lineage lost the schema
        return np.empty(0, np.int64), np.empty(0, np.int64)
    band = df["band"].to_numpy(dtype=np.int64)
    pid = df["pid"].to_numpy(dtype=np.int64)
    key = np.stack([band, pid], axis=1)
    key = np.unique(key, axis=0)
    return key[:, 0], key[:, 1]


@dataclass
class ArrayGraph:
    """The co-mention graph collected on the driver.

    ``band``/``pid``: the distinct (conversation hash, pid) incidence, so
    every mentioned path. Built on first use: ``nodes``, the sorted pids
    with at least one edge; ``s``/``t``, the directed edges (both
    directions) as indices into ``nodes``; ``w``, the conversations sharing
    each pair; ``deg`` and ``strength``, each node's edge count and weight
    sum; and the pid -> path lookup of ``paths``."""

    mentions: rd.Dataset
    band: np.ndarray
    pid: np.ndarray

    @functools.cached_property
    def _edges(self) -> tuple[np.ndarray, ...]:
        return clique_edges_np(self.band, self.pid)

    nodes = property(lambda self: self._edges[0])
    s = property(lambda self: self._edges[1])
    t = property(lambda self: self._edges[2])
    w = property(lambda self: self._edges[3])

    @functools.cached_property
    def deg(self) -> np.ndarray:
        return np.bincount(self.s, minlength=len(self.nodes))

    @functools.cached_property
    def strength(self) -> np.ndarray:
        return np.bincount(self.s, weights=self.w, minlength=len(self.nodes))

    @functools.cached_property
    def _path_index(self) -> tuple[np.ndarray, np.ndarray]:
        p = distinct_paths(self.mentions).to_pandas()
        if "pid" not in p.columns:  # fully-empty lineage lost the schema
            return np.empty(0, np.int64), np.empty(0, object)
        p = p.sort_values("pid")
        return p["pid"].to_numpy(np.int64), p["norm_path"].to_numpy()

    def paths(self, pids: np.ndarray) -> np.ndarray:
        """The normalized path of each pid."""
        keys, vals = self._path_index
        return vals[np.searchsorted(keys, pids)]


@dataclass
class DatasetGraph:
    """The co-mention graph as Datasets: ``incidence`` (band, pid), and,
    each built and materialized on first use, ``edges`` (s, t, w), ``deg``
    (node, deg, strength) and ``paths`` (pid, norm_path) of every mentioned
    path."""

    mentions: rd.Dataset
    incidence: rd.Dataset

    @functools.cached_property
    def edges(self) -> rd.Dataset:
        return clique_edges_ds(self.incidence)

    @functools.cached_property
    def deg(self) -> rd.Dataset:
        return grouped_sums_ds(
            self.edges, keys=["s"], sum_cols={"strength": "w"},
            count_alias="deg").map_batches(
            lambda t: pa.table({"node": t.column("s"), "deg": t.column("deg"),
                                "strength": t.column("strength")}),
            batch_format="pyarrow").materialize()

    @functools.cached_property
    def paths(self) -> rd.Dataset:
        return distinct_paths(self.mentions).materialize()


def _graph_inputs(triples: rd.Dataset) -> tuple[rd.Dataset, rd.Dataset]:
    """The mention stream and its (conversation, pid) incidence, each
    materialized once."""
    mentions = mentions_from_triples(triples).materialize()
    return mentions, _conv_pid_incidence(mentions).materialize()


def comention_graph(triples: rd.Dataset) -> ArrayGraph | DatasetGraph:
    """The one size gate of the graph queries: an ``ArrayGraph`` when the
    incidence has at most ``SMALL_GRAPH_INCIDENCE`` rows, a
    ``DatasetGraph`` otherwise. Either builds its edges on first use, with
    the capped clique-expansion edge builder of ``ops/graph``
    (``MAX_CONV_ENTITIES`` pids per conversation), so a query that only
    needs the incidence never pays for the pairs."""
    mentions, incidence = _graph_inputs(triples)
    if incidence.count() <= SMALL_GRAPH_INCIDENCE:
        return ArrayGraph(mentions, *_collect_incidence(incidence))
    return DatasetGraph(mentions, incidence)


def _node_paths(g: DatasetGraph, key: str = "node",
                col: str = "path") -> rd.Dataset:
    """The graph's (pid, norm_path) table renamed to (key, col) for a join."""
    return g.paths.map_batches(lambda t: t.rename_columns([key, col]),
                               batch_format="pyarrow")


def _seed_pid(g: DatasetGraph) -> int | None:
    """The pid of the smallest normalized path among edge endpoints: the
    deterministic source of BFS and personalized PageRank (isolated paths
    can never seed a traversal). None on an edgeless graph."""
    named = bucket_join(g.deg.select_columns(["node"]), _node_paths(g),
                        on="node")
    top = topk_ds(named, by=["path"], ascending=[True], k=1,
                  columns=["node", "path"])
    return None if top.empty else int(top["node"].iloc[0])


def _ranked(g: ArrayGraph | DatasetGraph, iters: int, d: float, k: int,
            weighted: bool, personalized: bool) -> pd.DataFrame:
    """The three PageRank queries over the one power-iteration kernel of
    each side: top-k (path, degree | strength, rank_norm | ppr) by
    (rank DESC, path ASC)."""
    size = "strength" if weighted else "degree"
    rank = "ppr" if personalized else "rank_norm"
    empty = pd.DataFrame({"path": pd.Series(dtype="str"),
                          size: pd.Series(dtype="int64"),
                          rank: pd.Series(dtype="float64")})
    if isinstance(g, ArrayGraph):
        if len(g.nodes) == 0:
            return empty
        paths = g.paths(g.nodes)
        w, norm = (g.w, g.strength) if weighted else (np.ones(len(g.s)), g.deg)
        restart = np.ones(len(g.nodes))
        if personalized:
            restart = np.zeros(len(g.nodes))
            restart[int(np.argmin(paths))] = 1.0
        out = pd.DataFrame({
            "path": paths, size: norm.astype(np.int64),
            rank: pagerank_np(g.s, g.t, w, norm, iters, d, restart)})
    else:
        if g.deg.count() == 0:
            return empty
        seed = _seed_pid(g) if personalized else None
        ranks = pagerank_ds(g.edges, g.deg, iters, d, weighted, seed)
        named = bucket_join(bucket_join(ranks, g.deg, on="node"),
                            _node_paths(g), on="node")
        out = topk_ds(named, by=["rank", "path"], ascending=[False, True],
                      k=k, columns=["node", "rank", "deg", "strength", "path"])
        if out.empty:
            return empty
        out = out.rename(columns={"deg": "degree", "rank": rank})
        out[size] = out[size].astype("int64")
    return (out.sort_values([rank, "path"], ascending=[False, True])
            .head(k)[["path", size, rank]].reset_index(drop=True))


def entity_pagerank(triples: rd.Dataset, iters: int = 3, d: float = 0.85,
                    k: int = 30) -> pd.DataFrame:
    """PageRank over the entity co-mention graph — iterative
    groupby-aggregate dataflow (the power iteration as Ray Data rounds):
    each round joins the rank vector onto the edge list (bucketed on the
    source key), emits rank/deg contributions, and groupby-sums them per
    target; ranks are normalized so the mean is 1 (rn = (1-d) + d * sum)
    and QUANTIZED to 6dp each round (round half away from zero) so the
    distributed float-sum order cannot drift from the SQL oracle's — both
    sides carry bit-identical doubles into the next round.

    Node set = nodes with at least one co-mention edge (symmetric graph:
    no dangling mass). Returns top-k (path, degree, rank_norm) by
    (rank DESC, path ASC) — fully value-oracled: the SQL twin unrolls the
    same ``iters`` rounds as chained CTEs over the independently
    re-extracted mention stream (__ray_entry__.oracle_sql).

    Runs ``ops/graph.pagerank_np`` on a collected graph and
    ``pagerank_ds`` on a Dataset graph (the 6dp per-round quantization
    makes the float-sum order immaterial, pinned by the small==distributed
    equivalence test); only the final top-k reaches the driver.
    """
    return _ranked(comention_graph(triples), iters, d, k,
                   weighted=False, personalized=False)


def _component_table(g: ArrayGraph | DatasetGraph, num_parts: int = 64,
                     with_deg: bool = False):
    """Per-component rollup (component_path = min normalized path, n_nodes,
    deg_sum) of the graph's min-label connected components, computed by the
    ``ops/graph`` label-propagation kernel of the graph's side over the
    (conversation, pid) incidence: every conversation is a clique over its
    entities, so components of the incidence equal components of the
    pairwise graph, without the O(k^2) pairs. Paths never co-mentioned are
    singleton components. ``deg_sum`` sums the node degrees, so it builds
    the edges; without ``with_deg`` it is 0. A pandas frame for an
    ArrayGraph, a Dataset otherwise."""
    if isinstance(g, ArrayGraph):
        pids, labels, _ = _labels_vectorized(g.band, g.pid)
        deg = np.zeros(len(pids), np.int64)
        if with_deg:
            deg[np.searchsorted(pids, g.nodes)] = g.deg
        df = pd.DataFrame({"label": labels, "path": g.paths(pids),
                           "deg": deg})
        return (df.groupby("label", sort=False)
                .agg(component_path=("path", "min"), n_nodes=("path", "size"),
                     deg_sum=("deg", "sum"))
                .reset_index(drop=True))

    labels0 = g.paths.map_batches(
        lambda t: pa.table({"pid": t.column("pid"), "label": t.column("pid")}),
        batch_format="pyarrow")
    labels, _ = propagate_labels(g.incidence, labels0)
    named = bucket_join(labels, g.paths, on="pid")
    if with_deg:
        degp = g.deg.map_batches(
            lambda t: pa.table({"pid": t.column("node"),
                                "deg": t.column("deg")}),
            batch_format="pyarrow")
        named = bucket_join(named, degp, on="pid", how="left")

    def local(t: pa.Table) -> pa.Table:
        if "deg" in t.column_names:
            d = t.column("deg")
            if isinstance(d, pa.ChunkedArray):
                d = d.combine_chunks()
            d = pc.fill_null(d.cast(pa.int64()), 0)
        else:
            d = pa.array(np.zeros(t.num_rows, np.int64))
        x = pa.table({"label": t.column("label"),
                      "norm_path": t.column("norm_path"), "deg": d})
        agg = (x.group_by(["label"]).aggregate(
            [("norm_path", "min"), ("deg", "sum"), ([], "count_all")]))
        agg = agg.rename_columns(["label", "comp_path", "deg_part", "n_part"])
        part = pc.bit_wise_and(agg.column("label"),
                               pa.scalar(num_parts - 1, pa.int64()))
        return agg.append_column("__part", part.cast(pa.int32()))

    def finish(grp: pa.Table) -> pa.Table:
        agg = (grp.drop_columns(["__part"]).group_by(["label"]).aggregate(
            [("comp_path", "min"), ("deg_part", "sum"), ("n_part", "sum")]))
        return pa.table({
            "component_path": agg.column("comp_path_min"),
            "n_nodes": agg.column("n_part_sum").cast(pa.int64()),
            "deg_sum": agg.column("deg_part_sum").cast(pa.int64())})

    return (named.map_batches(local, batch_format="pyarrow")
            .groupby("__part").map_groups(finish, batch_format="pyarrow"))


_COMPONENT_COLS = {"component_path": "str", "n_nodes": "int64",
                   "deg_sum": "int64"}


def _top_components(g: ArrayGraph | DatasetGraph, k: int, num_parts: int,
                    with_deg: bool = False) -> pd.DataFrame:
    """Top-``k`` rows of ``_component_table`` by (n_nodes DESC,
    component_path ASC)."""
    comp = _component_table(g, num_parts, with_deg)
    by, asc = ["n_nodes", "component_path"], [False, True]
    if not isinstance(comp, pd.DataFrame):
        comp = topk_ds(comp, by=by, ascending=asc, k=k,
                       columns=list(_COMPONENT_COLS))
    if comp.empty:
        return pd.DataFrame({c: pd.Series(dtype=t)
                             for c, t in _COMPONENT_COLS.items()})
    return (comp.astype({"n_nodes": "int64", "deg_sum": "int64"})
            .sort_values(by, ascending=asc).head(k).reset_index(drop=True))


def comention_components(triples: rd.Dataset, k: int = 40,
                         num_parts: int = 64) -> pd.DataFrame:
    """Connected components of the entity co-mention graph, as iterative
    min-label propagation (the north_rule union-find machinery) — and the
    first FULL value oracle over it: co-mention edges are SQL-derivable
    (unlike LSH candidates), so the DuckDB twin computes the exact
    transitive closure (recursive CTE) and the per-component rollup must
    match row-for-row.

    Returns top-``k`` components as (component_path = lexicographic min
    normalized path in the component, n_nodes), ordered by
    (n_nodes DESC, component_path ASC). Singleton components (paths never
    co-mentioned) are included.
    """
    comp = _top_components(comention_graph(triples), k, num_parts)
    return comp[["component_path", "n_nodes"]]


_MODULARITY_COLS = ("component_path", "n_nodes", "deg_sum",
                    "n_intra_edges", "q_term_nano")


def comention_modularity(triples: rd.Dataset, k: int = 40,
                         num_parts: int = 64) -> pd.DataFrame:
    """Modularity decomposition of the co-mention graph under its
    connected-components partition — the standard graph-clustering quality
    metric. Communities = components, so every edge is intra-community and
    each component's modularity term reduces to
    ``q_c = m_c/m - (d_c/(2m))^2`` with ``m_c = d_c/2`` — but computing it
    still exercises the full labels + degree dataflow: per-component node
    counts, degree sums over the DISTINCT-pair co-mention graph, and the
    min-label component assignment. Isolated (never co-mentioned) nodes
    form deg-0 singleton components with q_term 0.

    Returns top-``k`` components by (n_nodes DESC, component_path) as
    (component_path, n_nodes, deg_sum, n_intra_edges, q_term_nano) —
    q_term_nano is ONE pinned IEEE expression over exact int64 counts,
    nano-rounded (the SQL twin repeats it verbatim). The final q_term is
    computed only for the k winners.
    """
    g = comention_graph(triples)
    comp = _top_components(g, k, num_parts, with_deg=True)
    if comp.empty:
        return pd.DataFrame(
            {"component_path": pd.Series(dtype="str")}
            | {c: pd.Series(dtype="int64") for c in _MODULARITY_COLS[1:]})
    # distinct undirected co-mention pairs
    m = (len(g.s) if isinstance(g, ArrayGraph) else g.edges.count()) // 2
    dc = comp["deg_sum"].to_numpy()
    comp["n_intra_edges"] = dc // 2
    if m > 0:
        # pinned IEEE expression, verbatim in the SQL twin:
        # q = (d_c//2)/m - (d_c/(2m))^2, nano-rounded
        half = dc.astype(np.float64) / float(2 * m)
        comp["q_term_nano"] = round_away(
            1e9 * ((dc // 2).astype(np.float64) / float(m) - half * half),
            0).astype(np.int64)
    else:
        comp["q_term_nano"] = np.int64(0)
    comp = comp.astype({c: "int64" for c in _MODULARITY_COLS[1:]})
    return comp[list(_MODULARITY_COLS)].reset_index(drop=True)


def comention_assortativity(triples: rd.Dataset) -> pd.DataFrame:
    """Degree assortativity of the co-mention graph: Pearson correlation
    of (deg(s), deg(t)) over all DIRECTED edges — positive means hubs
    co-mention hubs (assortative mixing), negative means hub-leaf
    structure. Degrees are exact integers, so ALL sufficient statistics
    are exact int64 sums (no quantization anywhere before the final
    expression); the correlation itself is the repo's ONE pinned
    grouped_corr IEEE expression, nano-rounded.

    Shape: Datasets at every size (``DatasetGraph``, no size gate): two
    bucketed joins hang each endpoint's degree on the edge stream;
    per-batch integer partials reduce the exchange to one 6-number row per
    block. Returns one row:
    (n_edges, sum_x, sum_y, sum_xx, sum_yy, sum_xy, assort_nano).

    Oracle: SQL re-derives edges + degrees and repeats the expression —
    see __ray_entry__.
    """
    cols = ["n_edges", "sum_x", "sum_y", "sum_xx", "sum_yy", "sum_xy",
            "assort_nano"]
    empty = pd.DataFrame({c: pd.Series(dtype="int64") for c in cols})

    def partial(tab: pa.Table) -> pa.Table:
        x = tab.column("deg_s").to_numpy(zero_copy_only=False).astype(
            np.int64)
        y = tab.column("deg_t").to_numpy(zero_copy_only=False).astype(
            np.int64)
        return pa.table({
            "n_part": pa.array([len(x)], pa.int64()),
            "sx": pa.array([int(x.sum())], pa.int64()),
            "sy": pa.array([int(y.sum())], pa.int64()),
            "sxx": pa.array([int((x * x).sum())], pa.int64()),
            "syy": pa.array([int((y * y).sum())], pa.int64()),
            "sxy": pa.array([int((x * y).sum())], pa.int64())})

    g = DatasetGraph(*_graph_inputs(triples))
    if g.edges.count() == 0:
        return empty
    degs = g.deg.map_batches(
        lambda t: pa.table({"s": t.column("node"), "deg_s": t.column("deg")}),
        batch_format="pyarrow")
    degt = g.deg.map_batches(
        lambda t: pa.table({"t": t.column("node"), "deg_t": t.column("deg")}),
        batch_format="pyarrow")
    j = bucket_join(bucket_join(g.edges, degs, on="s"), degt, on="t")
    parts = j.map_batches(partial, batch_format="pyarrow").to_pandas()
    if parts.empty:
        return empty
    n = int(parts["n_part"].sum())
    sx, sy = int(parts["sx"].sum()), int(parts["sy"].sum())
    sxx, syy = int(parts["sxx"].sum()), int(parts["syy"].sum())
    sxy = int(parts["sxy"].sum())
    # the grouped_corr pinned expression (identical in the SQL twin)
    num = float(n) * float(sxy) - float(sx) * float(sy)
    den = (np.sqrt(float(n) * float(sxx) - float(sx) * float(sx))
           * np.sqrt(float(n) * float(syy) - float(sy) * float(sy)))
    assort = int(round_away(num / den * 1e9, 0)) if den > 0 else 0
    return pd.DataFrame({"n_edges": [n], "sum_x": [sx], "sum_y": [sy],
                         "sum_xx": [sxx], "sum_yy": [syy], "sum_xy": [sxy],
                         "assort_nano": [assort]}).astype("int64")


def entity_timeline(triples: rd.Dataset, transcripts_source: "str | rd.Dataset",
                    ) -> pd.DataFrame:
    """Per-hour entity-mention activity: (hour, n_mentions, n_entities) —
    the KG x time-window analytics shape. The triple stream carries no
    timestamps (pruned at the read), so the mention rows are joined BACK to
    the turn table on the composite (conv_id, turn_idx) key — hashed to one
    int64 join key, a bucketed co-group like every other join here — and
    then rolled up per tumbling hour window (distinct entities counted via
    per-(hour, pid) co-location).

    Oracle: SQL re-extracts mentions WITH the turn ts and reproduces the
    rollup (__ray_entry__)."""

    def key_of(conv: pa.Array, turn: pa.Array) -> pa.Array:
        ch = content_hash64_arrow(conv)
        t64 = turn.cast(pa.int64()).to_numpy(zero_copy_only=False).astype(np.uint64)
        # spread turn_idx over all 64 bits BEFORE combining: a plain xor of
        # the small index touches only low bits and the final >>1 would
        # collide consecutive turns
        k = (ch ^ (t64 * np.uint64(0x9E3779B97F4A7C15))) \
            * np.uint64(0xBF58476D1CE4E5B9) >> np.uint64(1)
        return pa.array(k.astype(np.int64), pa.int64())

    mentions = mentions_from_triples(triples)

    def mkey(t: pa.Table) -> pa.Table:
        return pa.table({
            "__k": key_of(t.column("conv_id"), t.column("turn_idx")),
            "pid": t.column("pid"),
        })

    left = mentions.map_batches(mkey, batch_format="pyarrow")

    if isinstance(transcripts_source, str):
        turns = rd.read_parquet(transcripts_source,
                                columns=["conv_id", "turn_idx", "ts"])
    else:
        turns = transcripts_source.select_columns(["conv_id", "turn_idx", "ts"])

    def tkey(t: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(t.column("ts"), unit="hour")
        return pa.table({"__k": key_of(t.column("conv_id"), t.column("turn_idx")),
                         "hour": hour})

    right = turns.map_batches(tkey, batch_format="pyarrow")

    joined = bucket_join(left, right, on="__k")

    def local(t: pa.Table) -> pa.Table:
        agg = (t.select(["hour", "pid"]).group_by(["hour", "pid"])
               .aggregate([([], "count_all")]))
        return agg.rename_columns(["hour", "pid", "n_part"])

    pre = joined.map_batches(local, batch_format="pyarrow")

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return pd.DataFrame({"hour": pd.Series(dtype="datetime64[us]"),
                                 "n_mentions": pd.Series(dtype="int64"),
                                 "n_entities": pd.Series(dtype="int64")})
        return pd.DataFrame({
            "hour": [g["hour"].iloc[0]],
            "n_mentions": [int(g["n_part"].sum())],
            "n_entities": [int(g["pid"].nunique())],
        })

    out = pre.groupby("hour").map_groups(finish, batch_format="pandas").to_pandas()
    if out.empty:
        return pd.DataFrame({"hour": pd.Series(dtype="datetime64[us]"),
                             "n_mentions": pd.Series(dtype="int64"),
                             "n_entities": pd.Series(dtype="int64")})
    out = out.astype({"n_mentions": "int64", "n_entities": "int64"})
    return out.sort_values("hour").reset_index(drop=True)


def comention_triangles(triples: rd.Dataset) -> pd.DataFrame:
    """Triangle count + global clustering coefficient of the co-mention
    graph — one row (n_nodes, n_edges, n_wedges, n_triangles,
    global_clustering): n_edges counts undirected edges, wedges =
    sum-over-nodes C(deg, 2), clustering = 3*triangles/wedges (6dp,
    round half away from zero). Fully value-oracled: the SQL twin counts
    triangles with the ordered 3-way self-join (a.s<a.t<b.t).

    A collected graph runs the ordered-adjacency forward count (per-edge
    sorted-neighbor intersection); a Dataset graph builds wedges with one
    bucket_join (ordered edges joined on mid vertex) and closes them with a
    bucketed semi-join on the hashed (lo, hi) pair key — the standard
    two-exchange triangle plan.
    """

    def result(n_nodes, n_edges, n_wedges, n_tri):
        cc = 0.0 if n_wedges == 0 else float(
            round_away(3.0 * n_tri / n_wedges, 6))
        return pd.DataFrame({
            "n_nodes": pd.Series([int(n_nodes)], dtype="int64"),
            "n_edges": pd.Series([int(n_edges)], dtype="int64"),
            "n_wedges": pd.Series([int(n_wedges)], dtype="int64"),
            "n_triangles": pd.Series([int(n_tri)], dtype="int64"),
            "global_clustering": pd.Series([cc], dtype="float64"),
        })

    g = comention_graph(triples)
    if isinstance(g, ArrayGraph):
        n = len(g.nodes)
        if n == 0:
            return result(0, 0, 0, 0)
        n_wedges = int((g.deg * (g.deg - 1) // 2).sum())
        # forward algorithm on the ordered adjacency: for each edge u<v,
        # count common neighbors w with w>v (each triangle found once)
        fwd = g.s < g.t
        fs, ft = g.s[fwd], g.t[fwd]
        order = np.lexsort((ft, fs))
        fs, ft = fs[order], ft[order]
        starts = np.searchsorted(fs, np.arange(n))
        ends = np.searchsorted(fs, np.arange(n) + 1)
        n_tri = 0
        for u, v in zip(fs, ft):
            nu = ft[starts[u]:ends[u]]
            nv = ft[starts[v]:ends[v]]
            n_tri += len(np.intersect1d(nu[nu > v], nv, assume_unique=True))
        return result(n, len(g.s) // 2, n_wedges, n_tri)

    def ordered_only(t: pa.Table) -> pa.Table:
        return t.select(["s", "t"]).filter(pc.less(t.column("s"), t.column("t")))

    oe = g.edges.map_batches(ordered_only, batch_format="pyarrow").materialize()
    n_edges = oe.count()
    degp = g.deg.map_batches(
        lambda t: pa.table({"w": pa.array(
            (lambda d: d * (d - 1) // 2)(
                t.column("deg").to_numpy(zero_copy_only=False)), pa.int64()),
            "one": pa.array(np.ones(t.num_rows, np.int64), pa.int64())}),
        batch_format="pyarrow")
    sums = grouped_sums(degp.map_batches(
        lambda t: t.append_column("g", pa.array(np.zeros(t.num_rows, np.int64))),
        batch_format="pyarrow"), keys=["g"], sum_cols={"w": "w", "n": "one"})
    n_wedges = int(sums["w"].iloc[0]) if len(sums) else 0
    n_nodes = int(sums["n"].iloc[0]) if len(sums) else 0

    def _pairkey(a: pa.ChunkedArray | pa.Array, b) -> pa.Array:
        x = np.asarray(a.to_numpy(zero_copy_only=False), np.uint64)
        y = np.asarray(b.to_numpy(zero_copy_only=False), np.uint64)
        k = ((x * np.uint64(0x9E3779B97F4A7C15)) ^
             (y * np.uint64(0xBF58476D1CE4E5B9))) >> np.uint64(1)
        return pa.array(k.astype(np.int64), pa.int64())

    # wedges (a.s < a.t < b.t): ordered edges joined on the mid vertex
    lhs = oe.map_batches(lambda t: t.rename_columns(["lo", "mid"]),
                         batch_format="pyarrow")
    rhs = oe.map_batches(lambda t: t.rename_columns(["mid", "hi"]),
                         batch_format="pyarrow")
    wedges = bucket_join(lhs, rhs, on="mid")

    def wkey(t: pa.Table) -> pa.Table:
        return pa.table({"__pk": _pairkey(t.column("lo"), t.column("hi"))})

    wk = wedges.map_batches(wkey, batch_format="pyarrow")
    ek = oe.map_batches(
        lambda t: pa.table({"__pk": _pairkey(t.column("s"), t.column("t"))}),
        batch_format="pyarrow")
    n_tri = bucket_semi_join(wk, ek, on="__pk").count()
    return result(n_nodes, n_edges, n_wedges, n_tri)


def top_comention_pairs(triples: rd.Dataset, k: int = 25) -> pd.DataFrame:
    """Top-k entity pairs by co-mention weight (= number of DISTINCT
    conversations mentioning both), ties broken by (path_a, path_b) — the
    weighted-edge view of the co-mention graph (association mining's pair
    support): the capped edges of a ``DatasetGraph`` (Datasets at every
    size, no size gate) with path_a < path_b and n_convs = w, then a
    distributed top-k."""
    cols = ["path_a", "path_b", "n_convs"]
    g = DatasetGraph(*_graph_inputs(triples))

    def ordered(t: pa.Table) -> pa.Table:
        return pa.table({"path_a": t.column("path_a"),
                         "path_b": t.column("path_b"),
                         "n_convs": t.column("w")}).filter(
            pc.less(t.column("path_a"), t.column("path_b")))

    pairs = bucket_join(
        bucket_join(g.edges, _node_paths(g, "s", "path_a"), on="s"),
        _node_paths(g, "t", "path_b"), on="t")
    out = topk_ds(pairs.map_batches(ordered, batch_format="pyarrow"),
                  by=["n_convs", "path_a", "path_b"],
                  ascending=[False, True, True], k=k, columns=cols)
    if out.empty:
        return pd.DataFrame({"path_a": pd.Series(dtype="str"),
                             "path_b": pd.Series(dtype="str"),
                             "n_convs": pd.Series(dtype="int64")})
    out["n_convs"] = out["n_convs"].astype("int64")
    return (out.sort_values(["n_convs", "path_a", "path_b"],
                            ascending=[False, True, True])
            .head(k)[cols].reset_index(drop=True))


def comention_degree_histogram(triples: rd.Dataset) -> pd.DataFrame:
    """Degree distribution of the co-mention graph: (degree, n_nodes)
    ascending — the first thing anyone plots about a graph, and a cheap
    extra external gate on the edge builder (SQL reproduces it from the
    re-derived edges)."""
    g = comention_graph(triples)
    if isinstance(g, ArrayGraph):
        deg_vals, counts = np.unique(g.deg, return_counts=True)
        return pd.DataFrame({"degree": deg_vals.astype("int64"),
                             "n_nodes": counts.astype("int64")})
    one = g.deg.map_batches(
        lambda t: pa.table({"degree": t.column("deg"),
                            "one": pa.array(np.ones(t.num_rows, np.int64))}),
        batch_format="pyarrow")
    out = grouped_sums(one, keys=["degree"], sum_cols={"n_nodes": "one"})
    out = out.astype({"degree": "int64", "n_nodes": "int64"})
    return out.sort_values("degree").reset_index(drop=True)


def entity_pagerank_weighted(triples: rd.Dataset, iters: int = 3,
                             d: float = 0.85, k: int = 30) -> pd.DataFrame:
    """Weighted PageRank: rank flows along co-mention edges in proportion
    to their conversation-count weight (r_v <- (1-d) + d * sum
    r_u * w(u,v) / strength(u), strength = sum of u's edge weights), 6dp
    quantization per round (same SQL-resync argument as the unweighted
    form). Integer weights make strength sums exact on both sides.

    Returns top-k (path, strength, rank_norm)."""
    return _ranked(comention_graph(triples), iters, d, k,
                   weighted=True, personalized=False)


def comention_component_stats(triples: rd.Dataset) -> tuple[int, int, int]:
    """(n_entities, n_components, giant_component_size) of the co-mention
    graph — the rollup form of ``comention_components`` (same fixpoint)."""
    comp = _component_table(comention_graph(triples))

    def partial(t: pa.Table) -> pa.Table:
        sz = t.column("n_nodes").to_numpy(zero_copy_only=False)
        return pa.table({"n": pa.array([len(sz)], pa.int64()),
                         "tot": pa.array([int(sz.sum())], pa.int64()),
                         "mx": pa.array([int(sz.max()) if len(sz) else 0],
                                        pa.int64())})

    if isinstance(comp, pd.DataFrame):
        parts = partial(pa.table({"n_nodes": comp["n_nodes"].to_numpy(np.int64)}))
        parts = parts.to_pandas()
    else:
        parts = comp.map_batches(partial, batch_format="pyarrow").to_pandas()
    return (int(parts["tot"].sum()), int(parts["n"].sum()),
            int(parts["mx"].max()))


def similar_conversations(triples: rd.Dataset, tau: float = 0.5,
                          num_buckets: int = 8) -> pd.DataFrame:
    """Related-case discovery: all conversation pairs whose ENTITY SETS
    (distinct normalized paths mentioned) have Jaccard >= tau —
    (conv_a, conv_b, jac) with conv_a < conv_b, jac rounded 4dp.

    Exact all-pairs by contract (a bucket-pair self-join: each
    conversation's entity set is replicated to its B pair-groups, per-task
    memory 2n/B sets); the
    sublinear scale path is MinHash banding over the same sets (the
    ops/dedup machinery applies unchanged — entity sets are just shingle
    sets). Value-oracled: SQL reproduces the pair join with
    list_intersect on the per-conversation entity arrays.
    """
    B = num_buckets
    mentions = mentions_from_triples(triples)

    def local(t: pa.Table) -> pa.Table:
        return (t.select(["conv_id", "pid"])
                .group_by(["conv_id", "pid"]).aggregate([]))

    pre = mentions.map_batches(local, batch_format="pyarrow")

    def to_sets(g: pa.Table) -> pa.Table:
        conv = g.column("conv_id").to_pylist()[0]
        ids = np.unique(g.column("pid").to_numpy(zero_copy_only=False))
        return pa.table({
            "conv_id": pa.array([conv], pa.string()),
            "pids": pa.array([ids.tolist()], pa.list_(pa.int64())),
        })

    sets = pre.groupby("conv_id").map_groups(
        to_sets, batch_format="pyarrow").materialize()

    def replicate(t: pa.Table) -> pa.Table:
        conv = t.column("conv_id")
        h = (content_hash64_arrow(conv) >> np.uint64(1)).astype(np.int64)
        bkt = (_mix64(h) % B).astype(np.int64)
        n = t.num_rows
        idx = np.tile(np.arange(n, dtype=np.int64), B)
        pair_ids = np.empty(n * B, dtype=np.int64)
        for o in range(B):
            lo = np.minimum(bkt, o)
            hi = np.maximum(bkt, o)
            pair_ids[o * n:(o + 1) * n] = lo * B + hi
        rep = t.take(pa.array(idx))
        return (rep.append_column("__pair", pa.array(pair_ids, pa.int64()))
                .append_column("__bkt", pa.array(np.tile(bkt, B), pa.int64())))

    rep = sets.map_batches(replicate, batch_format="pyarrow")

    def pair_jaccard(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"conv_a": pd.Series(dtype="str"),
                              "conv_b": pd.Series(dtype="str"),
                              "jac": pd.Series(dtype="float64")})
        if g.empty:
            return empty
        pair = int(g["__pair"].iloc[0])
        i, j = pair // B, pair % B
        convs = g["conv_id"].to_numpy()
        bkt = g["__bkt"].to_numpy(dtype=np.int64)
        pids = [np.asarray(p, dtype=np.int64) for p in g["pids"]]
        if i == j:
            cand = [(a, b) for a in range(len(convs))
                    for b in range(a + 1, len(convs))]
        else:
            ii = np.flatnonzero(bkt == i)
            jj = np.flatnonzero(bkt == j)
            cand = [(a, b) for a in ii for b in jj]
        rows = []
        for a, b in cand:
            inter = len(np.intersect1d(pids[a], pids[b], assume_unique=True))
            union = len(pids[a]) + len(pids[b]) - inter
            jac = 1.0 if union == 0 else inter / union
            if jac >= tau:
                ca, cb = sorted((convs[a], convs[b]))
                rows.append((ca, cb, float(round_away(jac, 4))))
        if not rows:
            return empty
        return pd.DataFrame(rows, columns=["conv_a", "conv_b", "jac"])

    out = rep.groupby("__pair").map_groups(
        pair_jaccard, batch_format="pandas").to_pandas()
    if out.empty:
        return pd.DataFrame({"conv_a": pd.Series(dtype="str"),
                             "conv_b": pd.Series(dtype="str"),
                             "jac": pd.Series(dtype="float64")})
    return out.sort_values(["conv_a", "conv_b"]).reset_index(drop=True)


def similar_conversations_lsh(triples: rd.Dataset, tau: float = 0.5,
                              num_perm: int = 32, bands: int = 16,
                              ) -> pd.DataFrame:
    """The sublinear scale path of ``similar_conversations``: MinHash-LSH
    banding over the conversation entity sets proposes candidate pairs,
    the exact Jaccard filter verifies them (ops/dedup machinery — entity
    sets are just shingle sets). Candidates are seed-defined, so the
    external gate is the subset invariant vs the exact all-pairs result
    (kg_similar_conversations_lsh_invariants)."""
    from ..functions.hashing import MinHasher
    from ..ops.dedup import (
        _band_groups,
        _distinct_edges,
        _explode_bands,
        _verify_jaccard,
    )

    mh = MinHasher(num_perm=num_perm)
    mentions = mentions_from_triples(triples)

    def local(t: pa.Table) -> pa.Table:
        return (t.select(["conv_id", "pid"])
                .group_by(["conv_id", "pid"]).aggregate([]))

    pre = mentions.map_batches(local, batch_format="pyarrow")

    def to_payload(g: pa.Table) -> pa.Table:
        conv = g.column("conv_id").to_pylist()[0]
        cid = int((content_hash64_arrow(pa.array([conv], pa.string()))
                   >> np.uint64(1)).astype(np.int64)[0])
        ids = np.unique(g.column("pid").to_numpy(zero_copy_only=False))
        sig = mh.signature(ids.astype(np.uint64))
        return pa.table({
            "doc_id": pa.array([cid], pa.int64()),
            "conv_id": pa.array([conv], pa.string()),
            "shingles": pa.array([ids.astype(np.uint64).tolist()],
                                 pa.list_(pa.uint64())),
            "sig": pa.array([sig.tobytes()], pa.binary()),
        })

    sets = pre.groupby("conv_id").map_groups(
        to_payload, batch_format="pyarrow").materialize()
    payload = sets.select_columns(["doc_id", "shingles"])
    bands_ds = sets.select_columns(["doc_id", "sig"]).map_batches(
        _explode_bands(mh, bands), batch_format="pyarrow")

    def pair_edges(g: pd.DataFrame) -> pd.DataFrame:
        doc = g["doc_id"].to_numpy(dtype=np.int64)
        seg = g["__seg"].to_numpy()
        empty = pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                              "id_b": pd.Series(dtype="int64")})
        if len(doc) == 0:
            return empty
        starts = np.flatnonzero(np.r_[True, seg[1:] != seg[:-1]])
        lens = np.diff(np.r_[starts, len(seg)])
        us, vs = [], []
        for s, n in zip(starts[lens >= 2], lens[lens >= 2]):
            ids = doc[s:s + min(n, 64)]
            a, b = np.triu_indices(len(ids), k=1)
            us.append(ids[a]); vs.append(ids[b])
        if not us:
            return empty
        return pd.DataFrame({"id_a": np.concatenate(us),
                             "id_b": np.concatenate(vs)})

    pairs = _distinct_edges(_band_groups(bands_ds, pair_edges))
    verified = _verify_jaccard(pairs, payload, tau, emit_jac=True).to_pandas()
    if verified.empty:
        return pd.DataFrame({"conv_a": pd.Series(dtype="str"),
                             "conv_b": pd.Series(dtype="str"),
                             "jac": pd.Series(dtype="float64")})
    # map result cids back to conversation ids: semi-filter the (one row
    # per conv) sets table down to the RESULT endpoints, collect only those
    cids = pd.unique(pd.concat([verified["id_a"], verified["id_b"]]))
    endpoint_ds = rd.from_pandas(pd.DataFrame({"doc_id": cids}))
    names = bucket_semi_join(
        sets.select_columns(["doc_id", "conv_id"]), endpoint_ds,
        on="doc_id").to_pandas()
    cmap = dict(zip(names.doc_id, names.conv_id))
    a = verified["id_a"].map(cmap)
    b = verified["id_b"].map(cmap)
    out = pd.DataFrame({"conv_a": np.minimum(a, b),
                        "conv_b": np.maximum(a, b),
                        "jac": verified["jac"]})
    return out.sort_values(["conv_a", "conv_b"]).reset_index(drop=True)


def _csr_from_edges(nodes: np.ndarray, s_idx: np.ndarray, t_idx: np.ndarray):
    """CSR adjacency (indptr, nbrs) over the compacted node index space of
    an ``ArrayGraph`` (edges already hold both directions)."""
    order = np.argsort(s_idx, kind="stable")
    nbrs = t_idx[order]
    indptr = np.searchsorted(s_idx[order], np.arange(len(nodes) + 1))
    return indptr, nbrs


def entity_bfs(triples: rd.Dataset, max_hops: int = 6,
               num_parts: int = 64) -> pd.DataFrame:
    """Single-source BFS hop distances over the entity co-mention graph —
    the KG "blast radius" primitive (how far does an artifact's co-mention
    neighborhood extend?).

    Source = the lexicographically smallest normalized path among edge
    ENDPOINTS (deterministic, no degree-tie ambiguity; isolated paths can
    never seed a traversal the oracle can express). Returns the hop-
    distance histogram (dist, n_nodes) for dist 0..``max_hops`` plus one
    dist = -1 row counting paths not reached within the cap (isolated
    nodes included), ordered by dist ascending.

    A collected graph runs a numpy frontier sweep; a Dataset graph runs
    iterative frontier-expansion rounds (bucket join on the frontier key,
    anti semi-join against the visited set, exact pid distinct per round)
    — each round is one bounded exchange, rounds <= max_hops. Oracle:
    DuckDB recursive CTE over the re-derived edges (min dist per node).
    """
    g = comention_graph(triples)
    array = isinstance(g, ArrayGraph)
    n_paths = len(np.unique(g.pid)) if array else g.paths.count()
    if n_paths == 0:
        return pd.DataFrame({"dist": pd.Series(dtype="int64"),
                             "n_nodes": pd.Series(dtype="int64")})

    def result(counts: list[tuple[int, int]], n_reached: int) -> pd.DataFrame:
        rows = list(counts)
        if n_paths - n_reached > 0:
            rows.append((-1, n_paths - n_reached))
        rows.sort()
        return pd.DataFrame({"dist": pd.Series([r[0] for r in rows], dtype="int64"),
                             "n_nodes": pd.Series([r[1] for r in rows], dtype="int64")})

    if array:
        if len(g.nodes) == 0:
            return result([], 0)
        src = int(np.argmin(g.paths(g.nodes)))
        indptr, nbrs = _csr_from_edges(g.nodes, g.s, g.t)
        dist = np.full(len(g.nodes), -1, np.int64)
        dist[src] = 0
        frontier = np.array([src], np.int64)
        counts = [(0, 1)]
        for h in range(1, max_hops + 1):
            starts, ends = indptr[frontier], indptr[frontier + 1]
            lens = ends - starts
            total = int(lens.sum())
            if total == 0:
                break
            offs = np.concatenate(([0], np.cumsum(lens)[:-1]))
            gather = (np.arange(total) - np.repeat(offs, lens)
                      + np.repeat(starts, lens))
            cand = np.unique(nbrs[gather])
            new = cand[dist[cand] == -1]
            if len(new) == 0:
                break
            dist[new] = h
            counts.append((h, int(len(new))))
            frontier = new
        return result(counts, int((dist >= 0).sum()))

    src_pid = _seed_pid(g)
    if src_pid is None:
        return result([], 0)

    def _distinct_pids(ds: rd.Dataset) -> rd.Dataset:
        def part(t: pa.Table) -> pa.Table:
            d = t.select(["pid"]).group_by(["pid"]).aggregate([])
            b = pc.bit_wise_and(d.column("pid"),
                                pa.scalar(num_parts - 1, pa.int64()))
            return d.append_column("__part", b.cast(pa.int32()))

        def fin(grp: pa.Table) -> pa.Table:
            return (grp.drop_columns(["__part"])
                    .group_by(["pid"]).aggregate([]))

        return (ds.map_batches(part, batch_format="pyarrow")
                .groupby("__part").map_groups(fin, batch_format="pyarrow"))

    frontier = rd.from_pandas(pd.DataFrame({"pid": [src_pid]}))
    visited = frontier
    counts = [(0, 1)]
    n_reached = 1
    edge_pt = g.edges.map_batches(
        lambda t: pa.table({"pid": t.column("s"), "t": t.column("t")}),
        batch_format="pyarrow")
    for h in range(1, max_hops + 1):
        hop = bucket_join(edge_pt, frontier, on="pid")
        cand = hop.map_batches(
            lambda t: (t.select(["t"]).rename_columns(["pid"])
                       .group_by(["pid"]).aggregate([])),
            batch_format="pyarrow")
        new = _distinct_pids(
            bucket_semi_join(cand, visited, on="pid", negate=True)
        ).materialize()
        n_new = new.count()
        if n_new == 0:
            break
        counts.append((h, int(n_new)))
        n_reached += int(n_new)
        visited = visited.union(new).materialize()
        frontier = new
    return result(counts, n_reached)


def link_prediction_aa(triples: rd.Dataset, k: int = 20,
                       num_parts: int = 64) -> pd.DataFrame:
    """Adamic-Adar link prediction over the co-mention graph: score every
    NON-adjacent node pair (u, v) by sum(1/ln(deg(z))) over common
    neighbors z, return the top-``k`` — "which artifacts are likely related
    despite never being co-mentioned?" (the related-case discovery shape).

    Determinism contract with the SQL oracle: each wedge contribution is
    quantized ONCE to integer nanos (round_away(1e9 / ln(deg)), identical
    IEEE divide + away-round both sides), so pair scores are exact integer
    sums — order-independent under any shuffle. Output carries the exact
    ``aa_nano`` plus the display ``aa_score`` (nanos / 1e9 at 4dp).

    Dataset shapes: wedges are generated per center (groupby(s) over the
    edge list — per-center fan-out is bounded by the edge builder's
    per-conversation cap), adjacency exclusion + pair aggregation happen in
    ONE exchange (wedge rows union edge-marker rows, hash-routed on the
    unordered pair key, exact two-column group per partition), and paths
    join onto the CANDIDATE table (#non-adjacent co-wedge pairs), never
    onto the wedge stream.
    """
    cols = ["path_a", "path_b", "aa_nano", "aa_score"]
    empty = pd.DataFrame({"path_a": pd.Series(dtype="str"),
                          "path_b": pd.Series(dtype="str"),
                          "aa_nano": pd.Series(dtype="int64"),
                          "aa_score": pd.Series(dtype="float64")})

    def finish_frame(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return empty
        df = df.copy()
        df["aa_nano"] = df["aa_nano"].astype("int64")
        df["aa_score"] = round_away(df["aa_nano"].to_numpy() / 1e9, 4)
        return (df.sort_values(["aa_nano", "path_a", "path_b"],
                               ascending=[False, True, True])
                .head(k)[cols].reset_index(drop=True))

    g = comention_graph(triples)
    if isinstance(g, ArrayGraph):
        n = len(g.nodes)
        if n == 0:
            return empty
        indptr, nbrs = _csr_from_edges(g.nodes, g.s, g.t)
        with np.errstate(divide="ignore"):
            w_nano = round_away(1e9 / np.log(g.deg.astype(np.float64)), 0)
        us, vs, ws = [], [], []
        for z in range(n):
            nb = np.sort(nbrs[indptr[z]:indptr[z + 1]])
            kk = len(nb)
            if kk < 2:
                continue
            iu, ju = np.triu_indices(kk, 1)
            us.append(nb[iu]); vs.append(nb[ju])
            ws.append(np.full(len(iu), np.int64(w_nano[z])))
        if not us:
            return empty
        u = np.concatenate(us); v = np.concatenate(vs)
        w = np.concatenate(ws)
        # exclude adjacent pairs: edges as ordered (lo, hi) index pairs
        lo, hi = np.minimum(g.s, g.t), np.maximum(g.s, g.t)
        ekeys = np.unique(lo.astype(np.int64) * n + hi)
        pkey = u.astype(np.int64) * n + v
        keep = ~np.isin(pkey, ekeys)
        df = pd.DataFrame({"key": pkey[keep], "w": w[keep]})
        agg = df.groupby("key", sort=False)["w"].sum().reset_index()
        pa_ = g.paths(g.nodes[(agg["key"] // n).to_numpy()])
        pb_ = g.paths(g.nodes[(agg["key"] % n).to_numpy()])
        swap = pa_ > pb_
        return finish_frame(pd.DataFrame({
            "path_a": np.where(swap, pb_, pa_),
            "path_b": np.where(swap, pa_, pb_),
            "aa_nano": agg["w"].to_numpy()}))

    def wedges(grp: pa.Table) -> pa.Table:
        nb = np.sort(grp.column("t").to_numpy(zero_copy_only=False))
        kk = len(nb)
        if kk < 2:
            return pa.table({"u": pa.array([], pa.int64()),
                             "v": pa.array([], pa.int64()),
                             "w": pa.array([], pa.int64()),
                             "is_edge": pa.array([], pa.int8())})
        wn = np.int64(round_away(1e9 / np.log(float(kk)), 0))
        iu, ju = np.triu_indices(kk, 1)
        m = len(iu)
        return pa.table({"u": pa.array(nb[iu], pa.int64()),
                         "v": pa.array(nb[ju], pa.int64()),
                         "w": pa.array(np.full(m, wn), pa.int64()),
                         "is_edge": pa.array(np.zeros(m, np.int8), pa.int8())})

    wedge_ds = g.edges.groupby("s").map_groups(wedges, batch_format="pyarrow")

    def edge_markers(t: pa.Table) -> pa.Table:
        s = t.column("s").to_numpy(zero_copy_only=False)
        tt = t.column("t").to_numpy(zero_copy_only=False)
        m = s < tt
        n = int(m.sum())
        return pa.table({"u": pa.array(s[m], pa.int64()),
                         "v": pa.array(tt[m], pa.int64()),
                         "w": pa.array(np.zeros(n, np.int64), pa.int64()),
                         "is_edge": pa.array(np.ones(n, np.int8), pa.int8())})

    marker_ds = g.edges.map_batches(edge_markers, batch_format="pyarrow")

    def route(t: pa.Table) -> pa.Table:
        x = np.asarray(t.column("u").to_numpy(zero_copy_only=False), np.uint64)
        y = np.asarray(t.column("v").to_numpy(zero_copy_only=False), np.uint64)
        pk = ((x * np.uint64(0x9E3779B97F4A7C15))
              ^ (y * np.uint64(0xBF58476D1CE4E5B9))) % np.uint64(num_parts)
        # local combiner: pre-sum wedge weights / OR edge markers per pair
        d = t.append_column("__part", pa.array(pk.astype(np.int64), pa.int64()))
        agg = (d.group_by(["__part", "u", "v"])
               .aggregate([("w", "sum"), ("is_edge", "max")]))
        return agg.rename_columns(["__part", "u", "v", "w", "is_edge"])

    routed = wedge_ds.union(marker_ds).map_batches(route, batch_format="pyarrow")

    def reduce_pairs(grp: pa.Table) -> pa.Table:
        agg = (grp.drop_columns(["__part"]).group_by(["u", "v"])
               .aggregate([("w", "sum"), ("is_edge", "max")]))
        agg = agg.rename_columns(["u", "v", "aa_nano", "is_edge"])
        keep = agg.filter(pc.equal(agg.column("is_edge"), pa.scalar(0, pa.int8())))
        return keep.select(["u", "v", "aa_nano"])

    cand = routed.groupby("__part").map_groups(reduce_pairs,
                                               batch_format="pyarrow")
    j1 = bucket_join(cand, _node_paths(g, "u", "path_u"), on="u")
    j2 = bucket_join(j1, _node_paths(g, "v", "path_v"), on="v")

    def order_pair(t: pa.Table) -> pa.Table:
        a = t.column("path_u")
        b = t.column("path_v")
        lo = pc.min_element_wise(a, b)
        hi = pc.max_element_wise(a, b)
        return pa.table({"path_a": lo, "path_b": hi,
                         "aa_nano": t.column("aa_nano")})

    scored = j2.map_batches(order_pair, batch_format="pyarrow")
    out = topk_ds(scored, by=["aa_nano", "path_a", "path_b"],
                  ascending=[False, True, True], k=k,
                  columns=["path_a", "path_b", "aa_nano"])
    return finish_frame(out)


def entity_kcore(triples: rd.Dataset, kk: int = 3, rounds: int = 12,
                 k: int = 40) -> pd.DataFrame:
    """k-core of the entity co-mention graph: iteratively peel nodes whose
    degree within the surviving subgraph is < ``kk``, up to ``rounds``
    times (reference analog: the graph-pruning step of tools.py's entity
    summary views; here a first-class distributed graph operator).

    Contract: the exact ``rounds``-round peel. The peel is monotone (the
    alive set only shrinks), so a fixpoint reached early makes every later
    round a no-op — the engine early-stops there (equal alive COUNTS imply
    equal sets under shrink-only), and the result still equals the
    ``rounds``-round peel the SQL twin unrolls as chained CTEs. Whenever
    the peel converges inside the bound (every corpus tested), this IS the
    classical k-core.

    Returns top-``k`` core members (path, core_degree) ordered by
    (core_degree DESC, path ASC); core_degree is the node's degree inside
    the peeled subgraph.

    A collected graph peels with numpy bincounts; on a Dataset graph each
    round is two bucketed semi joins (edge endpoints against the surviving
    node set, co-located by key hash) + a partial-agg degree count, with
    only the per-round alive COUNT touching the driver. Per-round cost is
    O(E_alive) exchanged rows, and E_alive shrinks monotonically.
    """
    empty = pd.DataFrame({"path": pd.Series(dtype="str"),
                          "core_degree": pd.Series(dtype="int64")})

    g = comention_graph(triples)
    if isinstance(g, ArrayGraph):
        n = len(g.nodes)
        if n == 0:
            return empty
        alive = np.ones(n, dtype=bool)
        for _ in range(rounds):
            live = alive[g.s] & alive[g.t]
            d = np.bincount(g.s[live], minlength=n)
            new_alive = alive & (d >= kk)
            if new_alive.sum() == alive.sum():
                break
            alive = new_alive
        live = alive[g.s] & alive[g.t]
        core_deg = np.bincount(g.s[live], minlength=n)[alive]
        core_nodes = g.nodes[alive]
        if len(core_nodes) == 0:
            return empty
        out = pd.DataFrame({"path": g.paths(core_nodes),
                            "core_degree": core_deg.astype("int64")})
        return (out.sort_values(["core_degree", "path"],
                                ascending=[False, True])
                .head(k).reset_index(drop=True))

    if g.deg.count() == 0:
        return empty
    alive_ds = g.deg.select_columns(["node"]).materialize()
    n_alive = alive_ds.count()

    def to_node(t: pa.Table) -> pa.Table:
        return t.select(["s"]).rename_columns(["node"])

    edges = g.edges.select_columns(["s", "t"])
    for _ in range(rounds):
        sa = bucket_semi_join(edges, alive_ds, on="s", right_on="node")
        sb = bucket_semi_join(sa, alive_ds, on="t", right_on="node")
        cnt = grouped_sums_ds(sb, keys=["s"], sum_cols={}, count_alias="d")
        nxt = (cnt.filter(expr=f"d >= {kk}")
               .map_batches(to_node, batch_format="pyarrow").materialize())
        n_next = nxt.count()
        alive_ds = nxt
        if n_next == 0:
            return empty
        if n_next == n_alive:
            break
        n_alive = n_next

    sa = bucket_semi_join(edges, alive_ds, on="s", right_on="node")
    sb = bucket_semi_join(sa, alive_ds, on="t", right_on="node")
    core = grouped_sums_ds(sb, keys=["s"], sum_cols={},
                           count_alias="core_degree")
    core = core.map_batches(
        lambda t: t.rename_columns(["pid", "core_degree"]),
        batch_format="pyarrow")
    named = bucket_join(core, g.paths, on="pid")
    out = topk_ds(named, by=["core_degree", "norm_path"],
                  ascending=[False, True], k=k,
                  columns=["pid", "core_degree", "norm_path"])
    if out.empty:
        return empty
    out = out.rename(columns={"norm_path": "path"})
    out["core_degree"] = out["core_degree"].astype("int64")
    return (out[["path", "core_degree"]]
            .sort_values(["core_degree", "path"], ascending=[False, True])
            .reset_index(drop=True))


def entity_pagerank_personalized(triples: rd.Dataset, iters: int = 3,
                                 d: float = 0.85, k: int = 30,
                                 ) -> pd.DataFrame:
    """Personalized PageRank: the restart mass concentrates on ONE seed
    entity (the lexicographically smallest normalized path among edge
    endpoints — the same deterministic source rule as entity_bfs), so the
    ranking measures proximity to the seed rather than global centrality —
    the KG "related artifacts" primitive.

    Same quantized power iteration as entity_pagerank (per-round 6dp
    round-half-away re-sync, identical IEEE expression order
    ``(1-d)*ind + d*sum`` on both sides) with r0 = the restart vector;
    the SQL twin unrolls the rounds as chained CTEs with the seed as a
    scalar subquery. Top-``k`` (path, degree, ppr) by (ppr DESC, path).
    The restart indicator is a driver scalar (the seed pid), not a joined
    side."""
    return _ranked(comention_graph(triples), iters, d, k,
                   weighted=False, personalized=True)


def path_depth_profile(triples: rd.Dataset) -> pd.DataFrame:
    """Directory-depth distribution of the canonical entity namespace:
    for every DISTINCT normalized path, depth = number of '/'-separated
    segments; returns (depth, n_paths) — the forensic-KG shape signal
    (flat artifact dumps vs deep filesystem trees) over the entity table
    the linking stage maintains.

    Shape: distinct paths are the already-bucketed ``distinct_paths``
    stream; depth is one vectorized count_substring kernel; the exchange
    is the depth histogram. Oracle: SQL separator counting over the same
    normalization CTE — see __ray_entry__.
    """
    mentions = mentions_from_triples(triples)
    paths = distinct_paths(mentions)
    empty = pd.DataFrame({"depth": pd.Series(dtype="int64"),
                          "n_paths": pd.Series(dtype="int64")})

    def hist(t: pa.Table) -> pa.Table:
        np_col = t.column("norm_path")
        if isinstance(np_col, pa.ChunkedArray):
            np_col = np_col.combine_chunks()
        depth = pc.add(pc.count_substring(np_col, "/"),
                       pa.scalar(1, pa.int32())).cast(pa.int64())
        x = pa.table({"depth": depth})
        agg = x.group_by(["depth"]).aggregate([([], "count_all")])
        return agg.rename_columns(["depth", "n_part"])

    out = grouped_sums(paths.map_batches(hist, batch_format="pyarrow"),
                       keys=["depth"], sum_cols={"n_paths": "n_part"})
    if out.empty:
        return empty
    return (out[["depth", "n_paths"]].astype("int64")
            .sort_values("depth").reset_index(drop=True))


def entity_concentration(triples: rd.Dataset) -> pd.DataFrame:
    """Concentration audit of the entity-mention distribution: Gini
    coefficient plus the mention share of the top 1% of entities — the
    KG-curation signal for "is the entity table dominated by a few hot
    paths". Per-entity mention counts are exact int64; the Gini rank-sum
    runs in arbitrary-precision Python ints over the sorted counts
    (tie-invariant, the gini_customer_spend kernel), the top-1% sum is
    tie-invariant because boundary ties share the same count; each output
    is ONE pinned nano expression.

    Returns one row: (n_entities, total_mentions, gini_nano,
    top1pct_share_nano). Shape: the exchange is the entity-domain-sized
    mention groupby; the driver holds one int per entity.

    Oracle: SQL rank-sum + top-share over the normalization CTE — see
    __ray_entry__.
    """
    mentions = mentions_from_triples(triples)
    empty = pd.DataFrame({c: pd.Series(dtype="int64") for c in
                          ["n_entities", "total_mentions", "gini_nano",
                           "top1pct_share_nano"]})

    def local(t: pa.Table) -> pa.Table:
        agg = t.select(["pid"]).group_by(["pid"]).aggregate(
            [([], "count_all")])
        return agg.rename_columns(["pid", "n_part"])

    cnt = grouped_sums(mentions.map_batches(local, batch_format="pyarrow"),
                       keys=["pid"], sum_cols={"c": "n_part"})
    if cnt.empty:
        return empty
    vals = np.sort(cnt["c"].to_numpy(np.int64))
    n = len(vals)
    s = sum(i * v for i, v in enumerate(vals.tolist(), start=1))
    t_total = int(vals.sum())
    g = 1e9 * (2.0 * float(s) / float(n * t_total)
               - (float(n) + 1.0) / float(n))
    k = max(1, n // 100)
    top_sum = int(vals[n - k:].sum())
    share = 1e9 * (float(top_sum) / float(t_total))
    return pd.DataFrame({
        "n_entities": pd.array([n], dtype="int64"),
        "total_mentions": pd.array([t_total], dtype="int64"),
        "gini_nano": pd.array([int(round_away(g, 0))], dtype="int64"),
        "top1pct_share_nano": pd.array([int(round_away(share, 0))],
                                       dtype="int64")})
