"""Hashing kernels: content hashes, shingles, MinHash, SimHash, an int64 mix.

Built for batch use inside ``map_batches``: the per-row work is a tight loop
over short strings, the per-hash-function work is numpy-vectorized. All
hashes are seeded and deterministic across processes (no PYTHONHASHSEED
dependence — everything goes through blake2b/numpy arithmetic).
"""

from __future__ import annotations

import hashlib

import numpy as np

_MERSENNE = (1 << 61) - 1
# seed of the one MinHash family: every sketch that is banded or compared
# against another uses the same permutations
_MINHASH_SEED = 42


def stable_hash64(s: str) -> int:
    """Deterministic 64-bit hash (blake2b, process-independent)."""
    h = hashlib.blake2b(s.encode("utf-8"), digest_size=8, salt=bytes(8))
    return int.from_bytes(h.digest(), "little")


def char_shingles(text: str, k: int = 4) -> np.ndarray:
    """Distinct k-char shingle hashes of a string as uint64 array."""
    n = len(text)
    if n < k:
        return np.array([stable_hash64(text)], dtype=np.uint64) if text else np.array([], dtype=np.uint64)
    # vectorized rolling view over the utf-8 bytes
    b = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    if len(b) < k:
        return np.array([stable_hash64(text)], dtype=np.uint64)
    windows = np.lib.stride_tricks.sliding_window_view(b, k).astype(np.uint64)
    weights = np.uint64(1099511628211) ** np.arange(k, dtype=np.uint64)
    vals = (windows * weights).sum(axis=1, dtype=np.uint64)
    vals ^= vals >> np.uint64(33)
    vals *= np.uint64(0xFF51AFD7ED558CCD)
    vals ^= vals >> np.uint64(33)
    return np.unique(vals)


# Polynomial rolling-hash family for word shingles (round 3): shingle hash =
# avalanche(poly(span bytes)) where poly is a base-B polynomial over the
# single-spaced normalized text and the span covers the k-token n-gram. All
# prefix hashes of a BATCH are computed in four numpy passes (cumprod/cumsum
# with uint64 wraparound), so hashing costs O(bytes) vectorized instead of
# one blake2b call per shingle (~1.2us each — 60% of round-2 sketch time).
_POLY_B = np.uint64(1099511628211)  # FNV64 prime (odd -> invertible mod 2^64)
_POLY_BINV = np.uint64(pow(1099511628211, -1, 1 << 64))
_MIX1 = np.uint64(0xFF51AFD7ED558CCD)
_MIX2 = np.uint64(0xC4CEB9FE1A85EC53)


def _avalanche(v: np.ndarray) -> np.ndarray:
    """murmur3-style 64-bit finalizer (vectorized, in-place safe)."""
    v = v.astype(np.uint64, copy=True)
    v ^= v >> np.uint64(33)
    v *= _MIX1
    v ^= v >> np.uint64(33)
    v *= _MIX2
    v ^= v >> np.uint64(33)
    return v


# second, independent polynomial base for 128-bit content hashing (a 64-bit
# pre-avalanche collision in one family is vanishingly unlikely to collide in
# the other): another odd 64-bit prime, so it is invertible mod 2^64 too.
_POLY_B2 = np.uint64(0x9E3779B97F4A7C15)  # odd (golden-ratio constant)


def _arrow_string_spans(arr) -> tuple[np.ndarray, np.ndarray]:
    """(byte buffer, int64 offsets) view of an Arrow string array — the CSR
    layout shared by every vectorized string-hash kernel here. Handles
    chunked/dictionary/large_string inputs and nulls (null -> empty span)."""
    import pyarrow as pa

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if pa.types.is_dictionary(arr.type):
        arr = arr.cast(arr.type.value_type)
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
    n = len(arr)
    if n == 0:
        return np.array([], dtype=np.uint8), np.zeros(1, dtype=np.int64)
    if arr.null_count:
        import pyarrow.compute as pc

        arr = pc.fill_null(arr, "")
    off_dtype = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    offs = np.frombuffer(arr.buffers()[1], dtype=off_dtype)[
        arr.offset:arr.offset + n + 1].astype(np.int64)
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
    lo = offs[0]
    return data[lo:offs[-1]], offs - lo


# Transient working set of the prefix-hash scan is ~4 uint64 arrays over the
# byte buffer (~32x); slice big batches at span boundaries so a batch of
# multi-KB documents costs a bounded ~256 MB of scratch, not 32x its bytes.
_POLY_SLICE_BYTES = 8 << 20


def _poly_span_hash(buf: np.ndarray, offs: np.ndarray,
                    base: np.uint64) -> np.ndarray:
    """Avalanched polynomial hash of each span buf[offs[i]:offs[i+1]] —
    cumprod/cumsum passes over the buffer (O(bytes), no per-row Python),
    computed in span-aligned slices to bound transient memory. Same
    prefix-hash construction as ``word_shingles_batch``."""
    binv = np.uint64(pow(int(base), -1, 1 << 64))
    n = len(offs) - 1
    out = np.empty(n, dtype=np.uint64)
    row = 0
    while row < n:
        # largest row range whose bytes fit the slice budget (>=1 row)
        end = int(np.searchsorted(offs, offs[row] + _POLY_SLICE_BYTES,
                                  side="right")) - 1
        end = max(end, row + 1)
        seg = buf[offs[row]:offs[end]]
        so = offs[row:end + 1] - offs[row]
        L = len(seg)
        pw = np.ones(L + 1, dtype=np.uint64)
        np.cumprod(np.full(L, base, dtype=np.uint64), out=pw[1:])
        pwinv = np.ones(L + 1, dtype=np.uint64)
        np.cumprod(np.full(L, binv, dtype=np.uint64), out=pwinv[1:])
        S = np.zeros(L + 1, dtype=np.uint64)
        np.cumsum(seg.astype(np.uint64) * pwinv[1:], out=S[1:])
        H = S * pw  # H[m] = hash of slice bytes [0, m)
        lo, hi = so[:-1], so[1:]
        # mix the length in pre-avalanche so spans that hash-prefix-collide
        # at different lengths (e.g. "" vs "\0") stay apart
        out[row:end] = _avalanche(H[hi] - H[lo] * pw[hi - lo]
                                  + (hi - lo).astype(np.uint64))
        row = end
    return out


def content_hash64_arrow(arr) -> np.ndarray:
    """Deterministic vectorized 64-bit content hash of every string in an
    Arrow string array (uint64[n]). The whole batch costs one polynomial
    prefix-hash pass over the concatenated utf-8 bytes — the batched
    replacement for a per-row ``stable_hash64`` loop (blake2b ~1.2us/call).
    NOT blake2b-compatible; use where only determinism + uniformity matter
    (partition ids, bucket keys, content fingerprints)."""
    buf, offs = _arrow_string_spans(arr)
    if len(offs) == 1:
        return np.array([], dtype=np.uint64)
    return _poly_span_hash(buf, offs, _POLY_B)


def _mix64(x: np.ndarray) -> np.ndarray:
    """Deterministic int64 -> non-negative int64 avalanche: xorshift-33,
    multiply by the murmur3 constant, xorshift-33, keep the low 62 bits.
    Not the same mix as ``ops.joins._mix_bucket``, which does one
    xorshift-33 with no multiply."""
    x = x.astype(np.uint64)
    x ^= x >> np.uint64(33)
    x *= np.uint64(0xFF51AFD7ED558CCD)
    x ^= x >> np.uint64(33)
    return (x & np.uint64((1 << 62) - 1)).astype(np.int64)


def content_hash128_arrow(arr) -> "pa.Array":
    """128-bit content hash column (fixed_size_binary(16)) for exact-dedup
    keys: two independent polynomial families over one shared byte scan.
    64 bits is NOT enough for exact dedup at 10^10+ docs (birthday: ~3M
    expected collisions); 128 bits puts the expectation at ~1e-19."""
    import pyarrow as pa

    buf, offs = _arrow_string_spans(arr)
    n = len(offs) - 1
    if n == 0:
        return pa.array([], pa.binary(16))
    h1 = _poly_span_hash(buf, offs, _POLY_B)
    h2 = _poly_span_hash(buf, offs, _POLY_B2)
    packed = np.empty((n, 2), dtype=np.uint64)
    packed[:, 0] = h1
    packed[:, 1] = h2
    return pa.Array.from_buffers(
        pa.binary(16), n, [None, pa.py_buffer(packed.tobytes())])


def word_shingles_batch(texts: list[str], k: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Distinct k-word shingle hashes for EVERY text in one vectorized pass.

    Returns (values uint64 flat, offsets int64[len(texts)+1]): document i's
    distinct, sorted shingle hashes are values[offsets[i]:offsets[i+1]].
    Docs with fewer than k tokens hash their whole normalized text (one
    shingle); empty/whitespace-only docs get an empty set — the same
    semantics as the round-2 scalar path, under the polynomial hash family.
    """
    n_docs = len(texts)
    if n_docs == 0:
        return np.array([], dtype=np.uint64), np.zeros(1, dtype=np.int64)
    norm = [" ".join(t.split()) for t in texts]
    bufs = [s.encode("utf-8", "surrogatepass") for s in norm]
    doc_offs = np.zeros(n_docs + 1, dtype=np.int64)
    np.cumsum([len(b) for b in bufs], out=doc_offs[1:])
    buf = np.frombuffer(b"".join(bufs), dtype=np.uint8)
    L = len(buf)

    # token boundaries: single-spaced, so starts = doc starts + post-space
    # positions; ends = space positions + doc ends. Zero-length "tokens"
    # (empty docs) masked out.
    spaces = np.flatnonzero(buf == 32)
    starts = np.sort(np.concatenate([doc_offs[:-1], spaces + 1]))
    ends = np.sort(np.concatenate([spaces, doc_offs[1:]]))
    nonzero = starts < ends
    starts, ends = starts[nonzero], ends[nonzero]
    # doc index of each token
    tok_doc = np.searchsorted(doc_offs, starts, side="right") - 1

    # prefix hashes: H[n] = poly of first n bytes = cumsum(b[i]*Binv^(i+1))*B^n
    pw = np.ones(L + 1, dtype=np.uint64)
    np.cumprod(np.full(L, _POLY_B, dtype=np.uint64), out=pw[1:])
    pwinv = np.ones(L + 1, dtype=np.uint64)
    np.cumprod(np.full(L, _POLY_BINV, dtype=np.uint64), out=pwinv[1:])
    S = np.zeros(L + 1, dtype=np.uint64)
    np.cumsum(buf.astype(np.uint64) * pwinv[1:], out=S[1:])
    H = S * pw  # H[n] = hash of bytes [0, n)

    def span_hash(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        return _avalanche(H[hi] - H[lo] * pw[hi - lo])

    # shingle spans: token j .. token j+k-1 within one doc
    m = len(starts)
    if m >= k:
        j = np.arange(m - k + 1)
        same_doc = tok_doc[j] == tok_doc[j + k - 1]
        sh_lo, sh_hi = starts[j[same_doc]], ends[j[same_doc] + k - 1]
        sh_doc = tok_doc[j[same_doc]]
    else:
        sh_lo = sh_hi = sh_doc = np.array([], dtype=np.int64)
    vals = span_hash(sh_lo, sh_hi)

    # fallback docs (0 < n_tokens < k): hash the whole normalized text
    tokens_per_doc = np.bincount(tok_doc, minlength=n_docs)
    fb = np.flatnonzero((tokens_per_doc > 0) & (tokens_per_doc < k))
    if len(fb):
        vals = np.concatenate([vals, span_hash(doc_offs[fb], doc_offs[fb + 1])])
        sh_doc = np.concatenate([sh_doc, fb])

    # distinct + sort per doc
    order = np.lexsort((vals, sh_doc))
    sd, sv = sh_doc[order], vals[order]
    if len(sd):
        keep = np.r_[True, (sd[1:] != sd[:-1]) | (sv[1:] != sv[:-1])]
        sd, sv = sd[keep], sv[keep]
    offsets = np.zeros(n_docs + 1, dtype=np.int64)
    np.cumsum(np.bincount(sd, minlength=n_docs), out=offsets[1:])
    return sv, offsets


def char_shingles_batch(texts: list[str], k: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """CSR layout of ``char_shingles`` per text (values identical to the
    scalar kernel; the per-text work is already numpy-vectorized)."""
    arrs = [char_shingles(t, k) for t in texts]
    offsets = np.zeros(len(texts) + 1, dtype=np.int64)
    np.cumsum([len(a) for a in arrs], out=offsets[1:])
    values = (np.concatenate(arrs) if arrs
              else np.array([], dtype=np.uint64))
    return values, offsets


class MinHasher:
    """num_perm universal-hash minhash over shingle sets.

    h_i(x) = (a_i * x + b_i) mod p  (p = 2^61 - 1), a/b seeded — the
    standard Broder construction; signatures are mergeable by elementwise min.
    """

    def __init__(self, num_perm: int = 128):
        rng = np.random.RandomState(_MINHASH_SEED)
        self.num_perm = num_perm
        self.a = rng.randint(1, _MERSENNE, size=num_perm, dtype=np.uint64)
        self.b = rng.randint(0, _MERSENNE, size=num_perm, dtype=np.uint64)

    def signature(self, shingles: np.ndarray) -> np.ndarray:
        """uint64[num_perm] minhash signature (max-value when empty)."""
        if len(shingles) == 0:
            return np.full(self.num_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
        x = shingles.astype(np.uint64).reshape(-1, 1)
        # (a*x + b) mod p with python-int matmul avoided: use object-free
        # modmul via splitting — for p = 2^61-1, (a*x) fits in uint128; numpy
        # lacks uint128, so reduce with float-free double-step arithmetic:
        # do the multiply in python ints only for the per-row min — instead
        # use uint64 wraparound hashing, which is a valid universal family
        # for LSH banding purposes (documented deviation from exact mod-p).
        vals = (self.a * x + self.b)  # uint64 wraparound
        return vals.min(axis=0)

    def signatures_batch(self, values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Signatures for a whole batch of shingle sets in CSR layout:
        ``num_perm`` vectorized passes over the concatenated values with a
        segment-min each — identical output to per-doc ``signature``."""
        n_docs = len(offsets) - 1
        out = np.full((n_docs, self.num_perm), np.iinfo(np.uint64).max,
                      dtype=np.uint64)
        lens = np.diff(offsets)
        nz = np.flatnonzero(lens > 0)
        if len(values) == 0 or len(nz) == 0:
            return out
        seg_starts = offsets[nz]
        x = values.astype(np.uint64, copy=False)
        for j in range(self.num_perm):
            vals = self.a[j] * x + self.b[j]  # uint64 wraparound family
            out[nz, j] = np.minimum.reduceat(vals, seg_starts)
        return out

    _BAND_SALT = np.uint64(0x9E3779B97F4A7C15)

    def band_keys_batch(self, sigs: np.ndarray, bands: int) -> np.ndarray:
        """int64[n_docs, bands] band keys for a batch signature matrix:
        polynomial fold of each band's lanes + band-index salt, avalanched —
        one vectorized pass (replaces one blake2b call per doc per band)."""
        n, p = sigs.shape
        r = p // bands
        lanes = sigs.reshape(n, bands, r).astype(np.uint64, copy=False)
        w = np.empty(r, dtype=np.uint64)
        w[0] = _POLY_B
        np.cumprod(np.full(r, _POLY_B, dtype=np.uint64), out=w)
        acc = (lanes * w).sum(axis=2, dtype=np.uint64)
        acc += (np.arange(1, bands + 1, dtype=np.uint64) * self._BAND_SALT)
        return (_avalanche(acc) >> np.uint64(1)).astype(np.int64)

    def band_keys(self, sig: np.ndarray, bands: int) -> list[int]:
        """Band keys of one signature (scalar view of ``band_keys_batch``)."""
        return self.band_keys_batch(sig.reshape(1, -1), bands)[0].tolist()


def simhash64_batch(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """SimHash fingerprints for a batch of shingle sets in CSR layout —
    64 vectorized bit-vote segment sums; per doc the bit-majority
    fingerprint of its set (empty sets fingerprint to 0)."""
    n_docs = len(offsets) - 1
    out = np.zeros(n_docs, dtype=np.uint64)
    if len(values) == 0:
        return out
    lens = np.diff(offsets)
    x = values.astype(np.uint64, copy=False)
    csum = np.zeros(len(x) + 1, dtype=np.int64)
    for bit in range(64):
        b = ((x >> np.uint64(bit)) & np.uint64(1)).astype(np.int64)
        np.cumsum(b, out=csum[1:])
        ones = csum[offsets[1:]] - csum[offsets[:-1]]
        votes = 2 * ones - lens
        out |= (votes > 0).astype(np.uint64) << np.uint64(bit)
    return out


