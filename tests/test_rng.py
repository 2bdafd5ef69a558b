"""Counter-based randomness: vectorized output must match a scalar
reference implementation of the same mixing function, and the derived
uniforms/normals must be well behaved."""

import numpy as np
from scipy.special import ndtri

from eero import rng

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def _mix_ref(z: int) -> int:
    # scalar splitmix64 finalizer, kept independent of the numpy path
    z &= MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return (z ^ (z >> 31)) & MASK


def _hash_ref(seed: int, *words: int) -> int:
    h = _mix_ref((seed + GOLDEN) & MASK)
    for w in words:
        h = _mix_ref(((h ^ (w & MASK)) + GOLDEN) & MASK)
    return h


def test_hash_matches_scalar_reference():
    cases = [
        (0, ()),
        (0, (0,)),
        (1, (0,)),
        (0, (1,)),
        (12345, (6, 7, 8)),
        (2**63, (2**64 - 1, 17)),
        (42, (0x4A49, 3, 2**32 + 9, 4)),
    ]
    for seed, words in cases:
        got = rng.hash_words(seed, *words)
        assert int(got) == _hash_ref(seed, *words)


def _hash_numpy_fold(seed, *words):
    # every word, the seed included, folded through numpy uint64 arithmetic
    def mix(z):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    with np.errstate(over="ignore"):
        h = mix(np.asarray(np.uint64(seed & MASK)) + np.uint64(GOLDEN))
        for w in words:
            h = mix((h ^ np.asarray(w).astype(np.uint64)) + np.uint64(GOLDEN))
    return h


def test_scalar_word_fold_equals_numpy_fold():
    keys = (1 << 32) + np.arange(7, dtype=np.uint64)
    classes = np.arange(5, dtype=np.uint64)
    word_lists = [
        (),
        (0,),
        (0x4A49, 3),
        (2**64 - 1, 2**63 + 5, 0),
        (0x4A49, 3, keys[:, None], classes[None, :]),
        (0x4A49, np.int64(3), keys[:, None], classes[None, :]),  # numpy scalar word
        (keys, 9, classes[:, None]),  # scalar word after an array word
        (True, -3, keys),  # bool, then a negative int that numpy wraps
        (keys[:1, None], classes[None, :]),  # one row
        (np.arange(4, dtype=np.int64), 2**40),
    ]
    for seed in (0, 2**63 + 5, -1):
        for words in word_lists:
            got = rng.hash_words(seed, *words)
            expect = _hash_numpy_fold(seed, *words)
            assert type(got) is type(expect)
            assert np.asarray(got).dtype == np.uint64
            assert np.shape(got) == np.shape(expect)
            assert np.array_equal(got, expect)


def test_hash_vectorizes_over_word_arrays():
    seeds = 7
    keys = np.arange(13, dtype=np.uint64)
    classes = np.arange(5, dtype=np.uint64)
    got = rng.hash_words(seeds, 3, keys[:, None], classes[None, :])
    assert got.shape == (13, 5)
    for i in range(13):
        for j in range(5):
            assert int(got[i, j]) == _hash_ref(7, 3, i, j)


def test_uniform_range_and_determinism():
    keys = np.arange(10_000, dtype=np.uint64)
    u1 = rng.uniform(11, 0, keys)
    u2 = rng.uniform(11, 0, keys)
    assert np.array_equal(u1, u2)
    assert u1.min() >= 0.0 and u1.max() < 1.0
    # crude uniformity: mean near 1/2, no mass collapse
    assert abs(u1.mean() - 0.5) < 0.02
    assert np.unique(u1).size == keys.size


def test_uniform_matches_bit_construction():
    keys = np.arange(64, dtype=np.uint64)
    bits = rng.hash_words(5, 9, keys)
    expect = (bits >> np.uint64(11)).astype(np.float64) * 2.0**-53
    assert np.array_equal(rng.uniform(5, 9, keys), expect)


def test_normal_is_inverse_cdf_of_uniform_bits():
    keys = np.arange(256, dtype=np.uint64)
    bits = rng.hash_words(3, 1, keys) >> np.uint64(11)
    u = (bits.astype(np.float64) + 0.5) * 2.0**-53
    assert np.array_equal(rng.normal(3, 1, keys), ndtri(u))
    got = rng.normal(3, 1, keys)
    assert np.all(np.isfinite(got))


def test_different_words_decorrelate():
    keys = np.arange(2_000, dtype=np.uint64)
    a = rng.uniform(0, 1, keys)
    b = rng.uniform(0, 2, keys)
    c = rng.uniform(1, 1, keys)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.05


def test_finalize_inplace_matches_int_finalizer():
    words = np.random.default_rng(4).integers(0, 2**64, size=500, dtype=np.uint64)
    words[:3] = [0, 2**64 - 1, 2**63]
    z = words.copy()
    scratch = np.empty_like(z)
    assert rng.finalize_inplace(z, scratch) is z
    assert z.tolist() == [rng._finalize_int(int(w)) for w in words]
    assert z.tolist() == [_mix_ref(int(w)) for w in words]


def test_fold_into_matches_fold_int():
    # broadcasting (rows, 1) hashes against (classes,) words, as jitter does
    h = np.random.default_rng(6).integers(0, 2**64, size=(6, 1), dtype=np.uint64)
    h[0, 0], h[1, 0] = 0, 2**64 - 1
    words = np.array([0, 1, 7, 2**64 - 1], dtype=np.uint64)
    out = np.empty((6, 4), dtype=np.uint64)
    rng.fold_into(h, words, out, np.empty_like(out))
    expect = [[rng.fold_int(int(a), int(w)) for w in words] for a in h[:, 0]]
    assert out.tolist() == expect
    assert rng.hash_int(12345, 6, 7, 8) == _hash_ref(12345, 6, 7, 8)
