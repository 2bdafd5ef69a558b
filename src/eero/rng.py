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
from scipy.special import ndtri

_GOLDEN_INT = 0x9E3779B97F4A7C15
_MIX_A_INT = 0xBF58476D1CE4E5B9
_MIX_B_INT = 0x94D049BB133111EB
_GOLDEN = np.uint64(_GOLDEN_INT)
_MIX_A = np.uint64(_MIX_A_INT)
_MIX_B = np.uint64(_MIX_B_INT)
_MASK = 0xFFFFFFFFFFFFFFFF
_INV_U53 = 2.0**-53


def _finalize(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX_A
    z = (z ^ (z >> np.uint64(27))) * _MIX_B
    return z ^ (z >> np.uint64(31))


def _finalize_int(z: int) -> int:
    """`_finalize` on one Python int in [0, 2**64), with the same wraparound."""
    z = ((z ^ (z >> 30)) * _MIX_A_INT) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_B_INT) & _MASK
    return z ^ (z >> 31)


def hash_words(seed: int, *words) -> np.ndarray:
    """Fold integer key words into one uint64 hash per broadcast element.

    `words` may be scalars or integer arrays; they broadcast against each
    other and the result has the broadcast shape (0-d for all scalars).
    The seed and the leading non-negative Python-int words are folded in
    exact integer arithmetic, which gives the same bits as numpy's uint64
    wraparound without a numpy call per word; this matters when the
    array words are a single row.
    """
    h = _finalize_int((int(seed & _MASK) + _GOLDEN_INT) & _MASK)
    lead = 0
    for w in words:
        if not (isinstance(w, int) and 0 <= w <= _MASK):
            break
        h = _finalize_int(((h ^ w) + _GOLDEN_INT) & _MASK)
        lead += 1
    h = np.uint64(h)
    with np.errstate(over="ignore"):
        for w in words[lead:]:
            w64 = np.asarray(w).astype(np.uint64, copy=False)
            h = _finalize((h ^ w64) + _GOLDEN)
    return h


def uniform(seed: int, *words) -> np.ndarray:
    """Deterministic uniforms on [0, 1), one per broadcast element."""
    bits = hash_words(seed, *words) >> np.uint64(11)
    return bits.astype(np.float64) * _INV_U53


def normal(seed: int, *words) -> np.ndarray:
    """Deterministic standard normals via the inverse CDF.

    The underlying uniform is shifted into the open interval (0, 1) so
    the quantile function never returns an infinity.
    """
    bits = hash_words(seed, *words) >> np.uint64(11)
    u = (bits.astype(np.float64) + 0.5) * _INV_U53
    return ndtri(u)
