"""Confidence scores over jittered probability rows, and predictions.

Scores drive the exit decision: an instance leaves at the first head
whose score clears that head's calibrated threshold.  A tiny additive
uniform jitter makes the score distribution atomless, so empirical
quantiles behave as if scores were continuous and exact ties cannot
produce ambiguous thresholds.  Jitter touches only scores: what a head
predicts is the argmax of its raw probability row (`predict_matrix`),
everywhere -- routing, risk estimates and the oracle.

Jitter draws are counter-based, keyed by (seed, head, instance, class):
the same row always receives the same perturbation no matter how the
batch is chunked or parallelized.  Calibration and test rows use
disjoint instance-key ranges so the two score samples never share
jitter draws.

`jitter_matrix` and `score_matrix` are the reference definition of a
score.  Every caller scores through `score_rows`, which computes the
same bits block by block: BLOCK rows at a time are gathered, jittered
and reduced in cache-sized buffers, so the n x K jittered matrix is
never built.  Because jitter is counter-based, the scores do not depend
on the block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import InvalidSpec

SCORE_KINDS = ("max_prob", "breaking_ties", "neg_entropy")

DEFAULT_JITTER = 1e-5
ENTROPY_FLOOR = 1e-12

# leading hash word separating jitter draws from other streams
JITTER_DOMAIN = 0x4A49
# instance-key bases: calibration rows count from 0, test rows from 2**32
CALIBRATION_KEY_BASE = 0
TEST_KEY_BASE = 1 << 32

# rows per scoring block: a block's two K x BLOCK uint64 buffers (640 KiB at
# K = 10) stay in cache through every step of `score_rows`
BLOCK = 4096
# blocks narrower than this hash their keys in Python ints and reduce row-major
# through `score_matrix`: on a handful of rows numpy's per-call overhead is
# the cost, and this skips the ten calls of an array key hash and, for
# breaking_ties, the 3K - 3 calls of the running top-2
_NARROW = 16


@dataclass(frozen=True)
class ScoreSpec:
    """Scoring configuration: score kind, jitter width and jitter seed."""

    kind: str = "breaking_ties"
    jitter_u: float = DEFAULT_JITTER
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SCORE_KINDS:
            raise InvalidSpec(
                f"unknown score kind {self.kind!r}, expected one of {SCORE_KINDS}"
            )
        if not (0.0 <= float(self.jitter_u) < math.inf):
            raise InvalidSpec(f"jitter width must be finite and >= 0, got {self.jitter_u}")
        object.__setattr__(self, "jitter_u", float(self.jitter_u))
        object.__setattr__(self, "seed", int(self.seed))


def jitter_matrix(
    probs: np.ndarray, head: int, instance_keys: np.ndarray, spec: ScoreSpec
) -> np.ndarray:
    """Add per-entry uniform jitter on [0, jitter_u) to probability rows.

    `instance_keys` are the global jitter keys of the rows (calibration
    and test splits pass keys from disjoint ranges).  At zero width the
    float64 input itself is returned, not a copy, so callers must not
    mutate the result.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise ValueError("jitter_matrix expects a (n, K) matrix")
    if spec.jitter_u == 0.0:
        return probs
    keys = np.asarray(instance_keys, dtype=np.uint64)[:, None]
    classes = np.arange(probs.shape[1], dtype=np.uint64)[None, :]
    u = rng.uniform(spec.seed, JITTER_DOMAIN, head, keys, classes)
    return probs + spec.jitter_u * u


def score_matrix(jittered: np.ndarray, kind: str) -> np.ndarray:
    """Per-row confidence score; higher always means more confident."""
    q = np.asarray(jittered, dtype=np.float64)
    if q.ndim != 2:
        raise ValueError("score_matrix expects a (n, K) matrix")
    if kind == "max_prob":
        return q.max(axis=1)
    if kind == "breaking_ties":
        top2 = np.partition(q, q.shape[1] - 2, axis=1)[:, -2:]
        return top2[:, 1] - top2[:, 0]
    if kind == "neg_entropy":
        c = np.maximum(q, ENTROPY_FLOOR)
        # a huge jitter overflows to an infinite score, which is no fault here:
        # calibration rejects it, and in routing it clears every threshold
        with np.errstate(over="ignore"):
            return np.sum(c * np.log(c), axis=1)
    raise ValueError(f"unknown score kind {kind!r}")


def score_rows(
    probs: np.ndarray, rows: np.ndarray, instance_keys: np.ndarray, head: int, spec: ScoreSpec
) -> np.ndarray:
    """Scores of rows `probs[rows]` at `head`, computed block by block.

    Returns `score_matrix(jitter_matrix(probs[rows], head, instance_keys,
    spec), spec.kind)` bit for bit without building that n x K jittered
    matrix: BLOCK rows at a time are gathered, jittered in class-major
    (K x rows) buffers and reduced across the K class rows.  `neg_entropy`
    and narrow blocks are reduced row-major by `score_matrix` itself, so
    its log and summation order stay numpy's.  Jitter is counter-based,
    so the result does not depend on the block size.  `rows` may be in
    any order and may repeat.
    """
    probs = np.asarray(probs, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.intp)
    keys = np.asarray(instance_keys, dtype=np.uint64)
    n, k = rows.size, probs.shape[1]
    scores = np.empty(n)
    width = min(n, BLOCK)
    if spec.jitter_u:
        seed_hash = rng.hash_int(spec.seed, JITTER_DOMAIN, head)
        classes = np.arange(k, dtype=np.uint64)[:, None]
        row_hash = np.empty(width, dtype=np.uint64)
        bits = np.empty((k, width), dtype=np.uint64)
        scratch = np.empty((k, width), dtype=np.uint64)
        # the finalizer's scratch is free once the bits are final: it holds the jitter
        noise = scratch.view(np.float64)
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
        m = hi - lo
        block = probs[rows[lo:hi]]
        narrow = m < _NARROW
        row_major = narrow or spec.kind == "neg_entropy"
        if spec.jitter_u:
            if narrow:
                row_hash[:m] = [rng.fold_int(seed_hash, key) for key in keys[lo:hi].tolist()]
            else:
                rng.fold_into(seed_hash, keys[lo:hi], row_hash[:m], scratch[0, :m])
            rng.fold_into(row_hash[:m], classes, bits[:, :m], scratch[:, :m])
            u = rng.uniform_into(bits[:, :m], noise[:, :m])
            np.multiply(u, spec.jitter_u, u)
            if row_major:
                np.add(block, u.T, block)
            else:
                q = np.add(u, block.T, u)
        elif not row_major:
            q = block.T
        if row_major:
            scores[lo:hi] = score_matrix(block, spec.kind)
        elif spec.kind == "max_prob":
            np.maximum.reduce(q, axis=0, out=scores[lo:hi])
        else:
            _top2_gap(q, scores[lo:hi])
    return scores


def _top2_gap(q: np.ndarray, out: np.ndarray) -> None:
    """Largest minus second-largest entry of each column of class-major `q`.

    A running top-2 over the class rows: the same two values as
    `score_matrix`'s partition, so the same difference.
    """
    top = np.maximum(q[0], q[1])
    second = np.minimum(q[0], q[1])
    lower = np.empty_like(top)
    for row in q[2:]:
        np.minimum(top, row, out=lower)
        np.maximum(top, row, out=top)
        np.maximum(second, lower, out=second)
    np.subtract(top, second, out)


def score_bank(bank, key_base: int, spec: ScoreSpec) -> np.ndarray:
    """Jittered scores of every instance at heads 1..M-1 of a bank, by `score_rows`.

    Returns an (M-1) x N matrix whose row l holds head l's scores; row i
    of the bank takes jitter key `key_base + i`.  The final head takes
    whatever reaches it, so it is never scored.
    """
    n = bank.num_instances
    rows = np.arange(n)
    keys = key_base + rows.astype(np.uint64)
    scores = np.empty((bank.num_heads - 1, n), dtype=np.float64)
    for head in range(bank.num_heads - 1):
        scores[head] = score_rows(bank.heads[head].probs, rows, keys, head, spec)
    return scores


def predict_matrix(probs: np.ndarray) -> np.ndarray:
    """Per-row argmax class (0-based) of raw probability rows.

    Ties go to the lowest index.
    """
    return np.argmax(np.asarray(probs), axis=1)

