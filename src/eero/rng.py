"""Counter-based random streams.

Each value is a pure function of (seed, key words): there is no hidden
state, so draws are identical under any call order, chunking or worker
count.  Streams for unrelated purposes are separated by a leading
domain word chosen by the caller.

The generator is the splitmix64 finalizer folded over the key words;
its output passes the usual avalanche checks and is more than enough
for tie-breaking jitter and synthetic data.
"""

from __future__ import annotations

import numpy as np

_GOLDEN_INT = 0x9E3779B97F4A7C15
_MIX_A_INT = 0xBF58476D1CE4E5B9
_MIX_B_INT = 0x94D049BB133111EB
_GOLDEN = np.uint64(_GOLDEN_INT)
_MIX_A = np.uint64(_MIX_A_INT)
_MIX_B = np.uint64(_MIX_B_INT)
_SHIFT_A, _SHIFT_B, _SHIFT_C = np.uint64(30), np.uint64(27), np.uint64(31)
_SHIFT_U = np.uint64(11)
_MASK = 0xFFFFFFFFFFFFFFFF
_INV_U53 = 2.0**-53


def finalize_inplace(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Apply the splitmix64 finalizer to a uint64 array in place and return it.

    `scratch` is a uint64 array of `z`'s shape whose contents are
    overwritten; it is the only temporary, so callers that finalize many
    blocks can allocate both buffers once.  uint64 products wrap, as in C.
    """
    # positional `out` arguments: on one-row blocks the call overhead is the cost
    np.right_shift(z, _SHIFT_A, scratch)
    np.bitwise_xor(z, scratch, z)
    np.multiply(z, _MIX_A, z)
    np.right_shift(z, _SHIFT_B, scratch)
    np.bitwise_xor(z, scratch, z)
    np.multiply(z, _MIX_B, z)
    np.right_shift(z, _SHIFT_C, scratch)
    np.bitwise_xor(z, scratch, z)
    return z


def fold_into(h, word, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """One fold step, finalize((h ^ word) + golden), written into `out`.

    `h` and `word` are uint64 arrays or ints in [0, 2**64) that broadcast
    to `out`'s shape; `scratch` is as in `finalize_inplace`.
    """
    np.bitwise_xor(h, word, out)
    np.add(out, _GOLDEN, out)
    return finalize_inplace(out, scratch)


def _finalize_int(z: int) -> int:
    """The splitmix64 finalizer on one Python int in [0, 2**64), with uint64 wraparound."""
    z = ((z ^ (z >> 30)) * _MIX_A_INT) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_B_INT) & _MASK
    return z ^ (z >> 31)


def fold_int(h: int, word: int) -> int:
    """`fold_into` on Python ints in [0, 2**64): the same bits, no numpy call."""
    return _finalize_int(((h ^ word) + _GOLDEN_INT) & _MASK)


def hash_int(seed: int, *words: int) -> int:
    """`hash_words` of a seed and ints in [0, 2**64), as a Python int.

    Exact integer arithmetic gives the same bits as numpy's uint64
    wraparound without a numpy call per word.
    """
    h = _finalize_int((int(seed & _MASK) + _GOLDEN_INT) & _MASK)
    for w in words:
        h = fold_int(h, w)
    return h


def hash_words(seed: int, *words) -> np.ndarray:
    """Fold integer key words into one uint64 hash per broadcast element.

    `words` may be scalars or integer arrays; they broadcast against each
    other and the result has the broadcast shape (0-d for all scalars).
    The seed and the leading non-negative Python-int words are folded
    once by `hash_int`, so only the later words cost a pass over the
    broadcast shape.  The synthetic generator's draws lead with three such
    words (domain, split, tag); folding them per element made `generate`
    4-15% slower on a default set, with the same bits.  Each later word is
    folded in place into a fresh buffer of the broadcast shape.
    """
    lead = 0
    for w in words:
        if not (isinstance(w, int) and 0 <= w <= _MASK):
            break
        lead += 1
    h = hash_int(seed, *words[:lead])
    if lead == len(words):
        return np.uint64(h)
    for w in words[lead:]:
        w64 = np.asarray(w).astype(np.uint64, copy=False)
        out = np.empty(np.broadcast_shapes(np.shape(h), w64.shape), dtype=np.uint64)
        h = fold_into(h, w64, out, np.empty_like(out))
    return h if h.ndim else h[()]


def uniform_into(bits: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Uniforms on [0, 1) from uint64 hash bits, written into float64 `out`.

    The top 53 bits scaled by 2**-53, so every value is exact; `bits` is
    overwritten.
    """
    np.right_shift(bits, _SHIFT_U, bits)
    # below 2**53 the int64 view holds the same value and converts faster
    return np.multiply(bits.view(np.int64), _INV_U53, out)


def uniform(seed: int, *words) -> np.ndarray:
    """Deterministic uniforms on [0, 1), one per broadcast element."""
    bits = np.asarray(hash_words(seed, *words))
    u = uniform_into(bits, np.empty(bits.shape))
    return u if u.ndim else u[()]


def normal(seed: int, *words) -> np.ndarray:
    """Deterministic standard normals via the inverse CDF.

    The underlying uniform is shifted into the open interval (0, 1) so
    the quantile function never returns an infinity.  scipy is imported
    here, on first use, so that importing eero does not load it.
    """
    from scipy.special import ndtri

    bits = hash_words(seed, *words) >> np.uint64(11)
    u = (bits.astype(np.float64) + 0.5) * _INV_U53
    return ndtri(u)
