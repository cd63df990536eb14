"""Graph kernels under every connected-components and co-mention graph
result in the package. Each comes as a numpy form (the graph is collected
on one node) and a Dataset form (it is not); both forms give the same
result.

- ``clique_edges_np`` / ``clique_edges_ds``: the edge builder. A
  (band, pid) incidence puts pids into groups (a conversation); every group
  is a clique, so each pair of its members is an edge, present in both
  directions and weighted by the number of groups holding the pair. A group
  contributes its ``MAX_CONV_ENTITIES`` smallest pids, on both sides.
- ``_labels_vectorized`` / ``propagate_labels``: the connected-components
  kernels, min-label propagation over a (band, pid) incidence in
  logarithmic rounds (min-label hops plus pointer jumping, the map-reduce
  scheme of "Finding connected components in map-reduce in logarithmic
  rounds", ICDE 2013), on collected arrays and on Datasets. Both reach the
  same fixpoint and share one round cap (``_round_cap``): a run whose
  labels still move at the cap raises ``RuntimeError``.
- ``pagerank_np`` / ``pagerank_ds``: the quantized power iteration
  ``r <- round((1 - d) * e + d * sum(r[s] * w / strength[s]), 6)`` with
  restart vector ``e`` (all ones for PageRank, one-hot on a seed for
  personalized PageRank). Unweighted graphs pass w = 1 and strength =
  degree, which makes the contribution exactly ``r / deg``, the SQL twins'
  expression.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from .agg import grouped_sums_ds, round_away
from .joins import bucket_join

# Pids one group contributes to the clique expansion: a group of k pids
# emits C(k, 2) pairs, so one pathological conversation cannot blow up the
# edge list. Read at call time, so patching it moves both edge builders.
MAX_CONV_ENTITIES = 4096


def clique_edges_np(band: np.ndarray, pid: np.ndarray):
    """Directed clique-expansion edges of collected (band, pid) incidence:
    (nodes, s, t, w). ``nodes`` holds the sorted pids with at least one
    edge, ``s``/``t`` index it (both directions, sorted by (s, t)) and
    ``w`` is the float64 number of bands holding the pair."""
    cap = MAX_CONV_ENTITIES
    order = np.lexsort((pid, band))
    band, pid = band[order], pid[order]
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(band)) + 1,
                             [len(band)]))
    srcs, dsts = [], []
    for i in range(len(bounds) - 1):
        ids = pid[bounds[i]:bounds[i + 1]][:cap]
        if len(ids) < 2:
            continue
        iu, ju = np.triu_indices(len(ids), 1)
        srcs.append(ids[iu]); dsts.append(ids[ju])
    a = np.concatenate(srcs) if srcs else np.empty(0, np.int64)
    b = np.concatenate(dsts) if dsts else np.empty(0, np.int64)
    e, w = np.unique(np.stack([np.concatenate([a, b]),
                               np.concatenate([b, a])], axis=1),
                     axis=0, return_counts=True)
    nodes = np.unique(e[:, 0])
    return (nodes, np.searchsorted(nodes, e[:, 0]),
            np.searchsorted(nodes, e[:, 1]), w.astype(np.float64))


def clique_edges_ds(incidence: rd.Dataset) -> rd.Dataset:
    """The Dataset form of ``clique_edges_np``: Dataset[(s, t, w)] of
    distinct directed edges with int64 band counts. One exchange on band,
    the capped per-band pair fan-out, a per-batch pair count, then one
    grouped sum per (s, t)."""
    cap = MAX_CONV_ENTITIES

    def pairs(g: pa.Table) -> pa.Table:
        ids = np.unique(g.column("pid").to_numpy(zero_copy_only=False))[:cap]
        iu, ju = np.triu_indices(len(ids), 1)
        a, b = ids[iu], ids[ju]
        return pa.table({"s": pa.array(np.concatenate([a, b]), pa.int64()),
                         "t": pa.array(np.concatenate([b, a]), pa.int64())})

    def count(t: pa.Table) -> pa.Table:
        return (t.group_by(["s", "t"]).aggregate([([], "count_all")])
                .rename_columns(["s", "t", "w"]))

    raw = incidence.groupby("band").map_groups(pairs, batch_format="pyarrow")
    return grouped_sums_ds(raw.map_batches(count, batch_format="pyarrow"),
                           keys=["s", "t"], sum_cols={"w": "w"}).materialize()


def _round_cap(max_rounds: int) -> int:
    """Hard round bound of both label-propagation kernels: ``max_rounds`` is
    a soft target, and a component needing more rounds would split, so the
    kernels keep going while labels still move, up to this cap."""
    return max(max_rounds, 4 * max_rounds + 64)


def _not_converged(hard_cap: int) -> RuntimeError:
    return RuntimeError("connected components did not converge within the "
                        f"{hard_cap}-round cap")


def _grouped_min(ds: rd.Dataset, key: str, val: str, out_name: str) -> rd.Dataset:
    """groupby(key).min(val) with a local arrow combiner before the shuffle."""
    from ray.data.aggregate import Min

    def local(t: pa.Table) -> pa.Table:
        agg = t.select([key, val]).group_by([key]).aggregate([(val, "min")])
        return agg.rename_columns([key, val])

    pre = ds.map_batches(local, batch_format="pyarrow")
    out = pre.groupby(key).aggregate(Min(val, alias_name=out_name))
    return out


def propagate_labels(incidence: rd.Dataset, labels: rd.Dataset,
                     max_rounds: int = 8, num_buckets: int = 32):
    """Min-label propagation rounds over the bipartite (band, pid) graph.

    Each round: label(pid) <- min over { label(q) : q shares a band with pid }
    expressed as two bucket_joins + two grouped mins — iterative
    groupby-aggregate union-find (north_rule) — followed by one POINTER-JUMP
    step (label <- label(label), a labels-with-labels bucket_join): path
    compression halves chain depth per round, so convergence on long
    near-dup chains is O(log diameter) rounds instead of O(diameter), at
    one extra join per round. Real corpora hit this: a 360k-path bench
    slice chains 99.99% of its paths into ONE component (see
    ROUND5_NOTES.md). The fixpoint is unchanged — component min is
    idempotent under compression (pinned by the small==distributed
    equivalence tests). ``max_rounds`` is a soft target (``_round_cap``).

    Returns (labels Dataset[(pid, label)], rounds_run); raises
    ``RuntimeError`` when the labels still move at the round cap.
    """
    labels = labels.materialize()
    # Block-count cap: every round unions the label table with a join output
    # whose groupby emits one block per bucket, so without a coalesce the
    # label lineage GROWS by O(num_buckets) blocks per round (measured: 767
    # blocks after 8 rounds on a 214-row table, making each round's sort pay
    # ~50 ms/block of pure scheduling = minutes on tiny data). Repartition
    # back to a constant block count before each materialize — sized from
    # the initial label table so big inputs keep their parallelism.
    target_blocks = max(num_buckets, labels.num_blocks())
    prev_sum = _label_checksum(labels)
    hard_cap = _round_cap(max_rounds)
    for rnd in range(hard_cap):
        # label(band) = min label of its members (join + grouped min)
        lab_inc = bucket_join(incidence, labels, on="pid", num_buckets=num_buckets)
        bucket_min = _grouped_min(lab_inc, "band", "label", "bmin").materialize()
        # label(pid) = min(own label, min over its bands)
        back = bucket_join(incidence, bucket_min, on="band", num_buckets=num_buckets)
        cand = back.map_batches(
            lambda t: t.select(["pid", "bmin"]).rename_columns(["pid", "label"]),
            batch_format="pyarrow",
        )
        # materialize: the label table is small (one row per distinct path);
        # without this every round would lazily re-execute all prior rounds
        labels = _grouped_min(labels.union(cand), "pid", "label", "label")
        labels = labels.repartition(target_blocks).materialize()

        # pointer jump: label <- label(label). Every label VALUE is a pid
        # with its own labels row (labels start as pid->pid and only take
        # mins of other labels), so joining the label table onto itself on
        # label==pid hops each node to its label's label in one pass.
        lhs = labels.map_batches(
            lambda t: t.rename_columns(["pid", "__k"]), batch_format="pyarrow")
        rhs = labels.map_batches(
            lambda t: t.rename_columns(["__k", "label"]), batch_format="pyarrow")
        hop = bucket_join(lhs, rhs, on="__k", num_buckets=num_buckets).map_batches(
            lambda t: t.select(["pid", "label"]), batch_format="pyarrow")
        labels = _grouped_min(labels.union(hop), "pid", "label", "label")
        labels = labels.repartition(target_blocks).materialize()

        # convergence: labels only decrease, so the (wraparound) checksum is
        # unchanged iff no label changed this round — no extra join needed
        cur = _label_checksum(labels)
        if cur == prev_sum:
            return labels, rnd + 1
        prev_sum = cur
    raise _not_converged(hard_cap)


def _label_checksum(labels: rd.Dataset) -> int:
    """Deterministic wraparound sum of the label column (distributed partial
    sums, merged on the driver)."""

    def part(t: pa.Table) -> pa.Table:
        arr = t.column("label").to_numpy(zero_copy_only=False).view(np.uint64)
        return pa.table({"s": pa.array([int(arr.sum(dtype=np.uint64))], pa.uint64())})

    parts = labels.map_batches(part, batch_format="pyarrow").to_pandas()
    return int(parts["s"].to_numpy(dtype=np.uint64).sum(dtype=np.uint64))


def _labels_vectorized(band: np.ndarray, pid: np.ndarray,
                       max_rounds: int = 8):
    """Min-label propagation over (band, pid) incidence, fully vectorized.

    Same fixpoint as ``propagate_labels`` (min is order-independent), but as
    numpy segment-mins — used when the distinct-path set fits one node
    (labels are 16 bytes/path: 10^8 paths ≈ 1.6 GB, far under a worker
    heap). ``max_rounds`` is a soft target (``_round_cap``); each in-memory
    round is two reduceats. Returns (unique_pids, final_labels, rounds_run);
    raises ``RuntimeError`` when the labels still move at the round cap.
    """
    order = np.argsort(band, kind="stable")
    b_sorted = band[order]
    seg_starts = np.flatnonzero(np.r_[True, b_sorted[1:] != b_sorted[:-1]])
    seg_lengths = np.diff(np.r_[seg_starts, len(b_sorted)])

    uniq, inv = np.unique(pid, return_inverse=True)
    if len(uniq) == 0:
        return uniq, uniq.copy(), 0
    inv_sorted = inv[order]
    lab = uniq.copy()
    hard_cap = _round_cap(max_rounds)
    for rnd in range(hard_cap):
        row_lab = lab[inv_sorted]
        bmin = np.minimum.reduceat(row_lab, seg_starts)
        bmin_rows = np.repeat(bmin, seg_lengths)
        new = lab.copy()
        np.minimum.at(new, inv_sorted, bmin_rows)
        # pointer jumping (path compression): every label VALUE is a pid
        # present in uniq (labels start as uniq and only take mins of other
        # labels), so new[index_of(new)] hops each node to its label's
        # label — halving chain depth per inner pass. Turns convergence on
        # long near-dup chains from O(diameter) outer rounds into
        # O(log diameter) total (measured 2.6x on a 360k-path component
        # whose members chain through shared shingles); the FIXPOINT is
        # unchanged — component min is idempotent under compression.
        while True:
            hopped = new[np.searchsorted(uniq, new)]
            if np.array_equal(hopped, new):
                break
            new = hopped
        if np.array_equal(new, lab):
            return uniq, lab, rnd + 1
        lab = new
    raise _not_converged(hard_cap)


def pagerank_np(s: np.ndarray, t: np.ndarray, w: np.ndarray,
                strength: np.ndarray, iters: int, d: float,
                restart: np.ndarray) -> np.ndarray:
    """Quantized power iteration over collected directed edges ``s -> t``
    (indices into the node arrays ``strength``/``restart``); r0 = restart."""
    r = restart.copy()
    for _ in range(iters):
        contrib = np.bincount(t, weights=r[s] * w / strength[s],
                              minlength=len(r))
        r = round_away((1.0 - d) * restart + d * contrib, 6)
    return r


def pagerank_ds(edges: rd.Dataset, nodes: rd.Dataset, iters: int, d: float,
                weighted: bool, seed: int | None = None) -> rd.Dataset:
    """Quantized power iteration over Dataset[(s, t, w)] edges and
    Dataset[(node, deg, strength)] nodes -> Dataset[(node, rank)]. Each
    round joins the rank vector onto the edges (bucketed on the source),
    emits contributions and groupby-sums them per target; the per-round
    state is one row per node, re-materialized each round. ``weighted``
    uses (w, strength), else (1, deg); ``seed`` makes the restart vector
    one-hot on that node."""
    norm = "strength" if weighted else "deg"

    def restart(node: np.ndarray) -> np.ndarray:
        return (np.ones(len(node)) if seed is None
                else (node == seed).astype(np.float64))

    def first(t: pa.Table) -> pa.Table:
        node = t.column("node").to_numpy(zero_copy_only=False)
        return pa.table({"node": t.column("node"),
                         "rank": pa.array(restart(node), pa.float64())})

    def contrib(t: pa.Table) -> pa.Table:
        r = t.column("rank").to_numpy(zero_copy_only=False)
        w = (t.column("w").to_numpy(zero_copy_only=False).astype(np.float64)
             if weighted else 1.0)
        st = t.column(norm).to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({"node": t.column("t"),
                         "c": pa.array(r * w / st, pa.float64())})

    def renorm(t: pa.Table) -> pa.Table:
        node = t.column("node").to_numpy(zero_copy_only=False)
        c = t.column("c").to_numpy(zero_copy_only=False)
        r = round_away((1.0 - d) * restart(node) + d * c, 6)
        return pa.table({"node": t.column("node"),
                         "rank": pa.array(r, pa.float64())})

    norms = nodes.map_batches(
        lambda t: pa.table({"s": t.column("node"), norm: t.column(norm)}),
        batch_format="pyarrow")
    ranks = nodes.map_batches(first, batch_format="pyarrow").materialize()
    for _ in range(iters):
        state = bucket_join(norms, ranks.map_batches(
            lambda t: t.rename_columns(["s", "rank"]), batch_format="pyarrow"),
            on="s")
        parts = bucket_join(edges, state, on="s").map_batches(
            contrib, batch_format="pyarrow")
        summed = grouped_sums_ds(parts, keys=["node"], sum_cols={"c": "c"})
        ranks = summed.map_batches(renorm, batch_format="pyarrow").materialize()
    return ranks
