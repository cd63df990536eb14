"""Mergeable sketch aggregates: HyperLogLog distinct counting and a
fixed-bin histogram quantile sketch.

The at-scale aggregation pattern (ray_guide §Aggregation): each batch emits
ONE serialized sketch row; a tiny second stage merges them — the shuffle
moves O(batches) sketches instead of O(rows) values. Both sketches are
deterministic (seeded hashing, fixed bins) so results are identical across
parallelism levels.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


# ---------------------------------------------------------------- HyperLogLog
class HyperLogLog:
    """Classic HLL (Flajolet et al.): 2^p registers over a seeded 64-bit
    hash; merge = elementwise max; estimate with small/large-range
    corrections."""

    def __init__(self, p: int = 12, registers: np.ndarray | None = None):
        self.p = p
        self.m = 1 << p
        self.registers = (registers if registers is not None
                          else np.zeros(self.m, dtype=np.uint8))

    def add_hashes(self, h: np.ndarray) -> None:
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        rest = h << np.uint64(self.p)
        # rank = leading zeros of the remaining 64-p bits + 1
        lz = np.full(len(h), 64 - self.p + 1, dtype=np.uint8)
        nonzero = rest != 0
        if nonzero.any():
            r = rest[nonzero]
            lead = np.zeros(len(r), dtype=np.uint8)
            cur = r.copy()
            for shift in (32, 16, 8, 4, 2, 1):
                mask = cur < (np.uint64(1) << np.uint64(64 - shift))
                lead[mask] += shift
                cur[mask] = cur[mask] << np.uint64(shift)
            lz[nonzero] = lead + 1
        np.maximum.at(self.registers, idx, lz)

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        return HyperLogLog(self.p, np.maximum(self.registers, other.registers))

    def estimate(self) -> float:
        m = float(self.m)
        alpha = 0.7213 / (1 + 1.079 / m)
        est = alpha * m * m / np.power(2.0, -self.registers.astype(np.float64)).sum()
        zeros = int((self.registers == 0).sum())
        if est <= 2.5 * m and zeros:
            est = m * np.log(m / zeros)
        return float(est)

    def to_bytes(self) -> bytes:
        return self.registers.tobytes()

    @classmethod
    def from_bytes(cls, b: bytes, p: int = 12) -> "HyperLogLog":
        return cls(p, np.frombuffer(b, dtype=np.uint8).copy())


def _hash_ints(values: np.ndarray, seed: int = 0x9E3779B9) -> np.ndarray:
    x = values.astype(np.uint64) + np.uint64(seed)
    x ^= x >> np.uint64(33)
    x *= np.uint64(0xFF51AFD7ED558CCD)
    x ^= x >> np.uint64(33)
    x *= np.uint64(0xC4CEB9FE1A85EC53)
    x ^= x >> np.uint64(33)
    return x


def approx_distinct(ds, column: str, p: int = 12) -> float:
    """Distributed approximate count-distinct: one HLL per batch, merged."""

    def sketch(t: pa.Table) -> pa.Table:
        hll = HyperLogLog(p)
        vals = t.column(column).to_numpy(zero_copy_only=False)
        hll.add_hashes(_hash_ints(vals))
        return pa.table({"sketch": pa.array([hll.to_bytes()], pa.binary())})

    parts = ds.map_batches(sketch, batch_format="pyarrow")
    merged = HyperLogLog(p)
    for b in parts.iter_batches(batch_format="pyarrow", batch_size=None):
        for raw in b.column("sketch").to_pylist():
            merged = merged.merge(HyperLogLog.from_bytes(raw, p))
    return merged.estimate()


# ------------------------------------------------------- histogram quantiles
class FixedHistogram:
    """Mergeable fixed-bin histogram over a known value range; quantiles by
    linear interpolation within bins. Deterministic and order-independent."""

    def __init__(self, lo: float, hi: float, bins: int = 512,
                 counts: np.ndarray | None = None):
        self.lo, self.hi, self.bins = lo, hi, bins
        self.counts = counts if counts is not None else np.zeros(bins, dtype=np.int64)

    def add(self, values: np.ndarray) -> None:
        v = np.clip(values, self.lo, self.hi)
        idx = ((v - self.lo) / (self.hi - self.lo) * (self.bins - 1)).astype(np.int64)
        np.add.at(self.counts, idx, 1)

    def merge(self, other: "FixedHistogram") -> "FixedHistogram":
        return FixedHistogram(self.lo, self.hi, self.bins, self.counts + other.counts)

    def quantile(self, q: float) -> float:
        total = self.counts.sum()
        if total == 0:
            return float("nan")
        target = q * total
        cum = np.cumsum(self.counts)
        i = int(np.searchsorted(cum, target))
        i = min(i, self.bins - 1)
        prev = cum[i - 1] if i else 0
        within = (target - prev) / max(1, self.counts[i])
        width = (self.hi - self.lo) / (self.bins - 1)
        return float(self.lo + (i + within) * width)


def approx_quantiles(ds, column: str, quantiles: list[float],
                     lo: float, hi: float, bins: int = 512) -> list[float]:
    """Distributed approximate quantiles: one histogram per batch, merged."""

    def sketch(t: pa.Table) -> pa.Table:
        h = FixedHistogram(lo, hi, bins)
        h.add(t.column(column).to_numpy(zero_copy_only=False).astype(np.float64))
        return pa.table({"counts": pa.array([h.counts.tobytes()], pa.binary())})

    parts = ds.map_batches(sketch, batch_format="pyarrow")
    merged = FixedHistogram(lo, hi, bins)
    for b in parts.iter_batches(batch_format="pyarrow", batch_size=None):
        for raw in b.column("counts").to_pylist():
            merged = merged.merge(
                FixedHistogram(lo, hi, bins, np.frombuffer(raw, dtype=np.int64).copy())
            )
    return [merged.quantile(q) for q in quantiles]


# ----------------------------------------------------------- Misra-Gries
class MisraGries:
    """Mergeable Misra-Gries heavy-hitters summary over string keys.

    Holds at most ``k`` counters. Guarantees after any sequence of adds and
    merges over a stream of n items (Agarwal et al., "Mergeable summaries"):
    ``true - n/(k+1) <= est <= true`` for every key, so every key with
    true frequency > n/(k+1) is present. Deterministic: counters are plain
    dict arithmetic, decrements affect all keys equally.
    """

    def __init__(self, k: int = 64, counters: dict | None = None):
        self.k = k
        self.counters: dict[str, int] = counters or {}

    def add_counts(self, keys, counts) -> None:
        """Bulk add of exact (key, count) pairs (one batch's local counts)."""
        c = self.counters
        for key, n in zip(keys, counts):
            c[key] = c.get(key, 0) + int(n)
        self._shrink()

    def merge(self, other: "MisraGries") -> "MisraGries":
        c = dict(self.counters)
        for key, n in other.counters.items():
            c[key] = c.get(key, 0) + n
        out = MisraGries(self.k, c)
        out._shrink()
        return out

    def _shrink(self) -> None:
        """Keep <= k counters: subtract the (k+1)-largest count from all,
        drop non-positive (the standard batched decrement)."""
        if len(self.counters) <= self.k:
            return
        vals = np.sort(np.fromiter(self.counters.values(), dtype=np.int64))
        cut = int(vals[-(self.k + 1)])
        self.counters = {key: n - cut for key, n in self.counters.items()
                         if n > cut}

    def to_arrow(self) -> pa.Table:
        keys = sorted(self.counters)
        return pa.table({
            "key": pa.array(keys, pa.string()),
            "est": pa.array([self.counters[k] for k in keys], pa.int64()),
        })


def frequent_tokens(ds, col: str = "text", k: int = 64):
    """Distributed heavy-hitter tokens: per batch, exact local token counts
    collapse into ONE Misra-Gries summary row; the driver merges O(batches)
    summaries. Returns (MisraGries, n_tokens_total) — candidates plus the
    stream length that scales the error bound n/(k+1). The shuffle moves
    O(batches * k) rows regardless of vocabulary size (the point of the
    sketch vs an exact groupby over 10^9 distinct tokens)."""
    import pickle

    import pyarrow.compute as pc

    def sketch(t: pa.Table) -> pa.Table:
        toks = pc.list_flatten(pc.utf8_split_whitespace(
            pc.utf8_trim_whitespace(t.column(col))))
        flat = pa.table({"tok": toks}).filter(pc.not_equal(toks, ""))
        agg = flat.group_by(["tok"]).aggregate([([], "count_all")])
        mg = MisraGries(k)
        mg.add_counts(agg.column("tok").to_pylist(),
                      agg.column("count_all").to_pylist())
        return pa.table({
            "sketch": pa.array([pickle.dumps(mg.counters)], pa.binary()),
            "n": pa.array([flat.num_rows], pa.int64()),
        })

    merged, total = MisraGries(k), 0
    for b in ds.map_batches(sketch, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None):
        for raw, n in zip(b.column("sketch").to_pylist(),
                          b.column("n").to_pylist()):
            merged = merged.merge(MisraGries(k, pickle.loads(raw)))
            total += int(n)
    return merged, total


# ---------------------------------------------------------------- Bloom
class BloomFilter:
    """Deterministic Bloom filter over 64-bit key hashes: m bits, h probe
    positions derived from one seeded avalanche hash by double hashing
    (Kirsch-Mitzenmacher). Merge = bitwise OR. Zero false negatives by
    construction; false-positive rate ~ (1 - e^{-hn/m})^h."""

    def __init__(self, m_bits: int = 1 << 20, h: int = 4,
                 bits: np.ndarray | None = None):
        self.m = int(m_bits)
        self.h = int(h)
        self.bits = (bits if bits is not None
                     else np.zeros(self.m // 8 + 1, dtype=np.uint8))

    def _positions(self, keys: np.ndarray) -> np.ndarray:
        """(n, h) probe positions from two seeded mixes of the key hash."""
        x = keys.astype(np.uint64, copy=True)
        x ^= x >> np.uint64(33)
        x *= np.uint64(0xFF51AFD7ED558CCD)
        x ^= x >> np.uint64(33)
        a = x.copy()
        x *= np.uint64(0xC4CEB9FE1A85EC53)
        x ^= x >> np.uint64(33)
        b = x | np.uint64(1)  # odd stride: full period mod m
        i = np.arange(self.h, dtype=np.uint64)
        return ((a[:, None] + i[None, :] * b[:, None])
                % np.uint64(self.m)).astype(np.int64)

    def add_hashes(self, keys: np.ndarray) -> None:
        if len(keys) == 0:
            return
        pos = self._positions(keys).ravel()
        np.bitwise_or.at(self.bits, pos >> 3,
                         np.left_shift(1, pos & 7).astype(np.uint8))

    def contains_hashes(self, keys: np.ndarray) -> np.ndarray:
        if len(keys) == 0:
            return np.zeros(0, dtype=bool)
        pos = self._positions(keys)
        byte = self.bits[pos >> 3]
        bit = (byte >> (pos & 7).astype(np.uint8)) & 1
        return bit.all(axis=1)

    def merge(self, other: "BloomFilter") -> "BloomFilter":
        return BloomFilter(self.m, self.h, np.bitwise_or(self.bits, other.bits))

    def to_bytes(self) -> bytes:
        return self.bits.tobytes()

    @classmethod
    def from_bytes(cls, raw: bytes, m_bits: int, h: int) -> "BloomFilter":
        return cls(m_bits, h, np.frombuffer(raw, dtype=np.uint8).copy())


def approx_distinct_by_group(ds, group_col: str, column: str, p: int = 12):
    """Sketch-inside-groupby HLL: one serialized HLL per (batch, group) ->
    groupby(group) merge -> per-group estimate. The shuffle carries
    O(batches x groups) fixed-size sketch rows regardless of value
    cardinality (the same composition as ``frequent_tokens_by_group``).

    Returns pandas (group_col, approx_distinct float)."""
    import pandas as pd
    import pyarrow.compute as pc

    def sketch(t: pa.Table) -> pa.Table:
        vals = t.column(column).to_numpy(zero_copy_only=False).astype(np.int64)
        groups = t.column(group_col)
        enc = groups.combine_chunks().dictionary_encode() \
            if isinstance(groups, pa.ChunkedArray) else groups.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False)
        keys, blobs = [], []
        for ci in np.unique(codes):
            h = HyperLogLog(p)
            h.add_hashes(_hash_ints(vals[codes == ci]))
            keys.append(enc.dictionary[int(ci)].as_py())
            blobs.append(h.to_bytes())
        # explicit types: a plain [] would infer null and drift the schema
        # on empty blocks
        return pa.table({group_col: pa.array(keys, pa.string()),
                         "sketch": pa.array(blobs, pa.binary())})

    parts = ds.map_batches(sketch, batch_format="pyarrow")

    def merge_group(g: pd.DataFrame) -> pd.DataFrame:
        merged = HyperLogLog(p)
        for raw in g["sketch"]:
            merged = merged.merge(HyperLogLog.from_bytes(raw, p))
        return pd.DataFrame({group_col: [g[group_col].iloc[0]],
                             "approx_distinct": [merged.estimate()]})

    out = parts.groupby(group_col).map_groups(
        merge_group, batch_format="pandas").to_pandas()
    if group_col not in out.columns:  # fully-empty input lost the schema
        out = pd.DataFrame({group_col: pd.Series(dtype="object"),
                            "approx_distinct": pd.Series(dtype="int64")})
    return out.sort_values(group_col).reset_index(drop=True)


# ------------------------------------------------- mergeable quantile summary
def quantile_summary(ds, column: str, k: int = 256):
    """Mergeable weighted quantile summary (MRL/GK-style): each batch sorts
    its int64 values ONCE and emits at most k evenly-spaced order statistics
    with exact integer weights (weight sums preserved, remainder distributed
    deterministically), so the exchange carries O(blocks·k) rows instead of
    O(rows). Per-batch rank error <= n_b/(2k) and errors add under merge,
    giving a global bound of n/(2k) — the invariant the gate checks.

    Returns (summary_df sorted by value with columns value/weight, n_total).
    """
    def partial(t: pa.Table) -> pa.Table:
        schema = pa.schema([("value", pa.int64()), ("weight", pa.int64())])
        if t.num_rows == 0:
            return schema.empty_table()
        v = t.column(column).to_numpy(zero_copy_only=False).astype(np.int64)
        v = np.sort(v)
        n = len(v)
        if n <= k:
            return pa.table({"value": pa.array(v, pa.int64()),
                             "weight": pa.array(np.ones(n, np.int64))})
        # k segments with EXACT boundaries b_i = i·n//k: entry i is the
        # segment median and carries the segment's exact row count, so the
        # summary's cumulative weight after i entries equals b_i exactly
        # and each entry's true rank is within segment/2 ≈ n/(2k) of it
        # (weights detached from their segments — e.g. remainder rows all
        # credited to the first entries — break the bound to O(k))
        b = (np.arange(k + 1, dtype=np.int64) * n) // k
        w = np.diff(b)
        pos = (b[:-1] + b[1:]) // 2
        return pa.table({"value": pa.array(v[pos], pa.int64()),
                         "weight": pa.array(w, pa.int64())})

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True).to_pandas()
    if parts.empty:
        import pandas as pd

        return (pd.DataFrame({"value": pd.Series(dtype="int64"),
                              "weight": pd.Series(dtype="int64")}), 0)
    out = parts.sort_values("value").reset_index(drop=True)
    return out, int(out["weight"].sum())


def quantile_summary_query(summary, n_total: int,
                           percents: "list[int]") -> "np.ndarray":
    """Estimate values at integer-percent quantiles from a merged summary:
    first value whose cumulative weight reaches ceil(pct·n/100) — pure
    integer arithmetic, no float rank drift."""
    cum = summary["weight"].to_numpy(np.int64).cumsum()
    vals = summary["value"].to_numpy(np.int64)
    out = np.empty(len(percents), np.int64)
    for i, pct in enumerate(percents):
        target = max(1, (int(pct) * n_total + 99) // 100)
        idx = int(np.searchsorted(cum, target, side="left"))
        out[i] = vals[min(idx, len(vals) - 1)]
    return out


# ------------------------------------------------------- count-min sketch
class CountMin:
    """Mergeable count-min sketch over pre-hashed 64-bit keys: a
    (depth x width) int64 counter grid; each key increments one counter
    per row (row positions derived from the key hash by `depth`
    independent avalanche remixes), point query = min over rows.

    Guarantees (deterministic given the seeded hash): estimates NEVER
    under-count, and over-count per row is a sum of colliding keys'
    counts — E[overshoot] <= N/width per row, so min-over-depth stays
    within eps*N for eps a few multiples of 1/width except with
    vanishing probability. Counters are plain numpy: merge = elementwise
    add, serialization = raw bytes (the same contract as HyperLogLog /
    FixedHistogram above)."""

    _SEEDS = (0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9,
              0x27D4EB2F165667C5, 0x85EBCA77C2B2AE63, 0xFF51AFD7ED558CCD,
              0x2545F4914F6CDD1D, 0xD6E8FEB86659FD93)

    def __init__(self, width: int = 4096, depth: int = 5,
                 table: "np.ndarray | None" = None):
        assert depth <= len(self._SEEDS)
        self.width, self.depth = width, depth
        self.table = (table if table is not None
                      else np.zeros((depth, width), np.int64))

    def _positions(self, h: np.ndarray) -> np.ndarray:
        """(depth, n) column positions for uint64 key hashes."""
        pos = np.empty((self.depth, len(h)), np.int64)
        for i in range(self.depth):
            pos[i] = (_hash_ints(h, seed=self._SEEDS[i])
                      % np.uint64(self.width)).astype(np.int64)
        return pos

    def add_hashes(self, h: np.ndarray, counts: np.ndarray) -> None:
        pos = self._positions(h)
        c = counts.astype(np.int64)
        for i in range(self.depth):
            np.add.at(self.table[i], pos[i], c)

    def estimate_hashes(self, h: np.ndarray) -> np.ndarray:
        pos = self._positions(h)
        est = self.table[0][pos[0]]
        for i in range(1, self.depth):
            est = np.minimum(est, self.table[i][pos[i]])
        return est

    def merge(self, other: "CountMin") -> "CountMin":
        assert (self.width, self.depth) == (other.width, other.depth)
        return CountMin(self.width, self.depth, self.table + other.table)

    def to_bytes(self) -> bytes:
        return self.table.tobytes()

    @classmethod
    def from_bytes(cls, raw: bytes, width: int = 4096,
                   depth: int = 5) -> "CountMin":
        t = np.frombuffer(raw, np.int64).reshape(depth, width).copy()
        return cls(width, depth, t)


def countmin_from_partials(ds, key_hash_col: str, count_col: str,
                           width: int = 4096, depth: int = 5) -> CountMin:
    """Build one merged CountMin from a Dataset of (key_hash, count)
    partial rows: one sketch per batch (vectorized scatter-add), sketches
    merged on the driver — the exchange carries depth*width ints per
    BATCH, never per key."""
    def sketch(t: pa.Table) -> pa.Table:
        cm = CountMin(width, depth)
        if t.num_rows:
            cm.add_hashes(
                t.column(key_hash_col).to_numpy(zero_copy_only=False)
                 .astype(np.uint64),
                t.column(count_col).to_numpy(zero_copy_only=False))
        return pa.table({"sketch": pa.array([cm.to_bytes()], pa.binary())})

    parts = ds.map_batches(sketch, batch_format="pyarrow")
    merged = CountMin(width, depth)
    for b in parts.iter_batches(batch_format="pyarrow", batch_size=None):
        for raw in b.column("sketch").to_pylist():
            merged = merged.merge(CountMin.from_bytes(raw, width, depth))
    return merged


# ------------------------------------------------------- KMV / theta sketch
class KMV:
    """K-minimum-values (theta) sketch over pre-hashed 64-bit keys — the
    mergeable sketch family member that supports SET OPERATIONS: union =
    merge-and-truncate; intersection/difference are estimated on the
    common theta region. Distinct estimate = (k-1) / theta where theta is
    the k-th smallest hash as a [0,1) fraction. Deterministic under the
    seeded hash (the HLL/CountMin contract above)."""

    def __init__(self, k: int = 1024, values: "np.ndarray | None" = None):
        self.k = k
        self.values = (values if values is not None
                       else np.empty(0, np.uint64))  # sorted, distinct

    def add_hashes(self, h: np.ndarray) -> None:
        merged = np.union1d(self.values, h.astype(np.uint64))
        self.values = merged[: self.k]

    def merge(self, other: "KMV") -> "KMV":
        assert self.k == other.k
        merged = np.union1d(self.values, other.values)
        return KMV(self.k, merged[: self.k])

    @property
    def theta(self) -> float:
        """Sampling threshold as a [0,1] fraction (1.0 while under k)."""
        if len(self.values) < self.k:
            return 1.0
        return float(self.values[-1]) / 2.0**64

    def estimate(self) -> float:
        if len(self.values) < self.k:
            return float(len(self.values))
        return (self.k - 1) / self.theta

    @staticmethod
    def intersection_estimate(a: "KMV", b: "KMV") -> float:
        """Theta-sketch intersection: count common hashes under the SHARED
        theta, scale by 1/theta."""
        theta = min(a.theta, b.theta)
        bound = np.uint64(min(int(theta * 2.0**64), 2**64 - 1))
        va = a.values[a.values < bound] if theta < 1.0 else a.values
        vb = b.values[b.values < bound] if theta < 1.0 else b.values
        common = np.intersect1d(va, vb)
        return len(common) / theta if theta > 0 else 0.0

    def to_bytes(self) -> bytes:
        return self.values.tobytes()

    @classmethod
    def from_bytes(cls, raw: bytes, k: int = 1024) -> "KMV":
        return cls(k, np.frombuffer(raw, np.uint64).copy())


def kmv_from_hashes(ds, hash_col: str, k: int = 1024) -> KMV:
    """Merged KMV from a Dataset of pre-hashed keys: one k-value sketch
    per batch, merged on the driver — the exchange carries at most k
    values per batch."""
    def sketch(t: pa.Table) -> pa.Table:
        s = KMV(k)
        if t.num_rows:
            s.add_hashes(t.column(hash_col).to_numpy(zero_copy_only=False)
                          .astype(np.uint64))
        return pa.table({"sketch": pa.array([s.to_bytes()], pa.binary())})

    parts = ds.map_batches(sketch, batch_format="pyarrow")
    merged = KMV(k)
    for b in parts.iter_batches(batch_format="pyarrow", batch_size=None):
        for raw in b.column("sketch").to_pylist():
            merged = merged.merge(KMV.from_bytes(raw, k))
    return merged
