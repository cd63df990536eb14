"""Independent oracles for the round-3 vectorized hash kernels.

The batch kernels (word_shingles_batch / signatures_batch / band_keys_batch /
simhash64_batch / _pair_jaccard) replaced per-string blake2b hashing with a
polynomial family computed in whole-batch numpy passes. These tests pin the
semantics against straightforward pure-Python reimplementations (big-int
arithmetic mod 2^64, per-shingle string hashing, per-pair set Jaccard) so a
bug shared between the numpy kernel and the dedup goldens cannot hide.
"""

from __future__ import annotations

import numpy as np
import pytest

from case_uco_ontology_map_ray.functions.hashing import (
    MinHasher,
    char_shingles,
    char_shingles_batch,
    simhash64_batch,
    word_shingles_batch,
)

M64 = (1 << 64) - 1
POLY_B = 1099511628211


def _py_avalanche(v: int) -> int:
    v &= M64
    v ^= v >> 33
    v = (v * 0xFF51AFD7ED558CCD) & M64
    v ^= v >> 33
    v = (v * 0xC4CEB9FE1A85EC53) & M64
    v ^= v >> 33
    return v


def _py_poly_hash(s: str) -> int:
    """Reference shingle hash: base-B polynomial over utf-8 bytes, mod 2^64,
    then the murmur finalizer — pure Python big ints, no numpy."""
    h = 0
    for b in s.encode("utf-8", "surrogatepass"):
        h = (h * POLY_B + b) & M64
    return _py_avalanche(h)


def _py_word_shingles(text: str, k: int = 3) -> list[int]:
    toks = text.split()
    if not toks:
        return []
    if len(toks) < k:
        return [_py_poly_hash(" ".join(toks))]
    vals = {_py_poly_hash(" ".join(toks[i:i + k])) for i in range(len(toks) - k + 1)}
    return sorted(vals)


TEXTS = [
    "the quick brown fox jumps over the lazy dog",
    "",
    "one",
    "two tokens",
    "   leading and   multiple   spaces collapse   ",
    "unicode тест 汉字 emoji \U0001f600 mixed tokens here",
    "a a a a a a a a",  # repeated shingles -> distinct set shrinks
    "x " * 500,  # long doc
]


def test_word_shingles_batch_matches_pure_python_oracle():
    vals, offs = word_shingles_batch(TEXTS, k=3)
    for i, t in enumerate(TEXTS):
        got = vals[offs[i]:offs[i + 1]].tolist()
        assert got == _py_word_shingles(t, 3), f"doc {i}: {t[:40]!r}"


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_word_shingles_scalar_equals_batch(k):
    """A one-text batch (the scalar view) equals that text's slice of the
    whole batch and the pure-Python oracle, at every shingle width."""
    vals, offs = word_shingles_batch(TEXTS, k)
    for i, t in enumerate(TEXTS):
        one, one_offs = word_shingles_batch([t], k)
        scalar = one[one_offs[0]:one_offs[1]].tolist()
        assert scalar == vals[offs[i]:offs[i + 1]].tolist()
        assert scalar == _py_word_shingles(t, k)


def test_char_shingles_batch_matches_scalar():
    vals, offs = char_shingles_batch(TEXTS, k=4)
    for i, t in enumerate(TEXTS):
        got = vals[offs[i]:offs[i + 1]]
        want = char_shingles(t, 4)
        assert np.array_equal(np.sort(got), np.sort(want))


def test_signatures_batch_matches_per_doc_signature():
    mh = MinHasher(num_perm=16)
    vals, offs = word_shingles_batch(TEXTS, k=3)
    sigs = mh.signatures_batch(vals, offs)
    for i in range(len(TEXTS)):
        want = mh.signature(vals[offs[i]:offs[i + 1]])
        assert np.array_equal(sigs[i], want)
    # empty set -> max-value sentinel signature
    empty_idx = TEXTS.index("")
    assert (sigs[empty_idx] == np.iinfo(np.uint64).max).all()


def test_band_keys_batch_matches_scalar_view():
    mh = MinHasher(num_perm=16)
    vals, offs = word_shingles_batch(TEXTS, k=3)
    sigs = mh.signatures_batch(vals, offs)
    keys = mh.band_keys_batch(sigs, bands=4)
    assert keys.shape == (len(TEXTS), 4)
    assert (keys >= 0).all()  # int64 band keys, sign bit cleared
    for i in range(len(TEXTS)):
        assert mh.band_keys(sigs[i], 4) == keys[i].tolist()
    # identical signatures -> identical keys; distinct docs -> keys differ
    assert keys[0].tolist() != keys[5].tolist()


def _py_simhash64(shingles) -> int:
    """Bit i set when more than half of the shingle hashes have it set."""
    out = 0
    for bit in range(64):
        if 2 * sum((int(h) >> bit) & 1 for h in shingles) > len(shingles):
            out |= 1 << bit
    return out


def test_simhash_batch_matches_scalar():
    vals, offs = word_shingles_batch(TEXTS, k=3)
    batch = simhash64_batch(vals, offs)
    for i in range(len(TEXTS)):
        assert int(batch[i]) == _py_simhash64(vals[offs[i]:offs[i + 1]])
    assert int(batch[TEXTS.index("")]) == 0


def test_pair_jaccard_matches_set_oracle():
    from case_uco_ontology_map_ray.ops.dedup import _csr_gather, _pair_jaccard

    rng = np.random.RandomState(3)
    sets = [np.unique(rng.randint(0, 50, size=rng.randint(0, 30)).astype(np.uint64))
            for _ in range(40)]
    sets[7] = np.array([], dtype=np.uint64)  # empty vs empty and empty vs full
    sets[8] = np.array([], dtype=np.uint64)
    starts = np.zeros(len(sets) + 1, dtype=np.int64)
    np.cumsum([len(s) for s in sets], out=starts[1:])
    flat = np.concatenate(sets)
    iu = rng.randint(0, len(sets), size=100)
    iv = rng.randint(0, len(sets), size=100)
    iu[:2], iv[:2] = [7, 7], [8, 3]  # force empty-empty and empty-full pairs
    vu, lu = _csr_gather(flat, starts, iu)
    vv, lv = _csr_gather(flat, starts, iv)
    got = _pair_jaccard(vu, lu, vv, lv)
    for j, (a, b) in enumerate(zip(iu, iv)):
        sa, sb = set(sets[a].tolist()), set(sets[b].tolist())
        want = 1.0 if not sa and not sb else len(sa & sb) / len(sa | sb)
        assert got[j] == pytest.approx(want), (a, b)


def test_csr_gather_roundtrip():
    from case_uco_ontology_map_ray.ops.dedup import _csr_gather

    vals = np.arange(10, dtype=np.uint64)
    starts = np.array([0, 3, 3, 7, 10], dtype=np.int64)
    rows = np.array([2, 0, 1, 3, 2])
    out, lens = _csr_gather(vals, starts, rows)
    assert lens.tolist() == [4, 3, 0, 3, 4]
    assert out.tolist() == [3, 4, 5, 6, 0, 1, 2, 7, 8, 9, 3, 4, 5, 6]


# ---------------------------------------------------------------------------
# round 5: vectorized content-hash kernels (VERDICT r4 #3/#5)
# ---------------------------------------------------------------------------

def test_content_hash64_arrow_basic_properties():
    import pyarrow as pa

    from case_uco_ontology_map_ray.functions.hashing import content_hash64_arrow

    arr = pa.array(["a", "b", "", "a", "longer string here", "Ä", "aa", "a a"],
                   pa.string())
    h = content_hash64_arrow(arr)
    assert h.dtype == np.uint64
    assert h[0] == h[3]                       # content-keyed
    assert len(set(h.tolist())) == 7          # distinct contents differ
    # chunked / dictionary / sliced / large_string views hash identically
    assert (content_hash64_arrow(pa.chunked_array([arr[:3], arr[3:]])) == h).all()
    assert (content_hash64_arrow(arr.dictionary_encode()) == h).all()
    assert (content_hash64_arrow(arr.slice(2, 3)) == h[2:5]).all()
    assert (content_hash64_arrow(arr.cast(pa.large_string())) == h).all()
    # nulls hash like empty strings; empty arrays return empty output
    hn = content_hash64_arrow(pa.array(["x", None, ""], pa.string()))
    assert hn[1] == hn[2] == h[2]
    assert len(content_hash64_arrow(pa.array([], pa.string()))) == 0


def test_content_hash128_arrow_is_16_byte_and_content_keyed():
    import pyarrow as pa

    from case_uco_ontology_map_ray.functions.hashing import content_hash128_arrow

    arr = pa.array(["dup", "other", "dup", ""], pa.string())
    p = content_hash128_arrow(arr)
    assert p.type == pa.binary(16)
    assert p[0] == p[2] and len(set(p.to_pylist())) == 3
    assert len(content_hash128_arrow(pa.array([], pa.string()))) == 0


def test_content_hash64_no_trivial_prefix_or_length_collisions():
    import pyarrow as pa

    from case_uco_ontology_map_ray.functions.hashing import content_hash64_arrow

    # adversarial-ish family: shared prefixes, null bytes vs empty, repeats
    strs = ["", "\x00", "\x00\x00", "a", "a\x00", "ab", "ba", "aab", "aba",
            "baa", "x" * 100, "x" * 101]
    h = content_hash64_arrow(pa.array(strs, pa.string()))
    assert len(set(h.tolist())) == len(strs)


def test_content_hash_is_slice_invariant():
    """The bounded-scratch sliced scan must produce bit-identical hashes to
    the single-pass scan (polynomial span hashes are translation-invariant)."""
    import pyarrow as pa

    import case_uco_ontology_map_ray.functions.hashing as H

    arr = pa.array(["a" * 50, "b" * 3000, "", "c" * 123, "a" * 50, "x",
                    "y" * 9999], pa.string())
    full = H.content_hash64_arrow(arr)
    old = H._POLY_SLICE_BYTES
    try:
        H._POLY_SLICE_BYTES = 64  # force slicing, incl. spans > the budget
        assert (H.content_hash64_arrow(arr) == full).all()
    finally:
        H._POLY_SLICE_BYTES = old
