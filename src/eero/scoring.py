"""Confidence scores over jittered probability rows, and predictions.

Scores drive the exit decision: an instance leaves at the first head
whose score clears that head's calibrated threshold.  A tiny additive
uniform jitter makes the score distribution atomless, so empirical
quantiles behave as if scores were continuous and exact ties cannot
produce ambiguous thresholds.  Each row takes one draw, added to its
first largest entry, the one `predict_matrix` picks, so jitter never
changes a prediction: a head predicts the argmax of its probability row
everywhere -- routing, risk estimates and the oracle.

Jitter draws are counter-based, keyed by (seed, head, instance): the
same row always receives the same draw no matter how the batch is
chunked or parallelized.  Calibration and test rows use disjoint
instance-key ranges so the two score samples never share jitter draws.

`jitter_matrix` and `score_matrix` are the reference definition of a
score.  Every caller scores through `score_rows`, which computes the
same bits BLOCK rows at a time without building the n x K jittered
matrix, so the scores do not depend on the block size.

Routing needs only whether a score clears a threshold, and each head of
its one loop is an `inference._head_step`.  Jitter moves a `max_prob` or
`breaking_ties` score by at most the jitter width plus rounding, so on a
window of at least `_NARROW` rows the step scores the alive rows raw
(`reduce_class_major`), settles every row whose raw score lies outside a
margin of 2 widths (plus a few ulp) around the threshold, and re-scores
only the rows in that band through `score_rows`; the docstring of
`inference._head_step` proves that the margin covers the jitter.  Under
`neg_entropy`, and on narrower windows, every alive row goes to
`score_rows`.  Calibration and `score_bank` still score every row
exactly, because thresholds are read off those scores.
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

# rows per scoring block: a gathered block (320 KiB at K = 10) stays in cache
# through every step of `score_rows`
BLOCK = 4096
# blocks narrower than this hash their keys in Python ints and reduce row-major
# through `score_matrix`: on a handful of rows numpy's per-call overhead is
# the cost, and this skips the eight calls of an array key hash and, for
# breaking_ties, the 3K - 3 calls of the running top-2; for the same reason,
# routing windows narrower than this skip the raw pass of `inference._head_step`
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
    """Add one uniform draw on [0, jitter_u) to each row's first largest entry.

    `instance_keys` are the global jitter keys of the rows (calibration
    and test splits pass keys from disjoint ranges).  Only the entry that
    `predict_matrix` picks moves, and only upward, so the argmax is kept.
    At zero width the float64 input itself is returned, not a copy, so
    callers must not mutate the result.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise ValueError("jitter_matrix expects a (n, K) matrix")
    if spec.jitter_u == 0.0:
        return probs
    keys = np.asarray(instance_keys, dtype=np.uint64)
    u = rng.uniform(spec.seed, JITTER_DOMAIN, head, keys)
    out = probs.copy()
    out[np.arange(len(out)), predict_matrix(probs)] += spec.jitter_u * u
    return out


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
    spec), spec.kind)` bit for bit.  BLOCK rows at a time are gathered
    and each row's draw is hashed, in Python ints on a narrow block and
    in numpy otherwise.  A wide `max_prob` or `breaking_ties` block is
    reduced class-major, and the draw is added to its running top, the
    entry jitter moves.  `neg_entropy` and narrow blocks are jittered in
    place and reduced by `score_matrix` itself, so its log and summation
    order stay numpy's.  `rows` may be in any order and may repeat.
    """
    probs = np.asarray(probs, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.intp)
    keys = np.asarray(instance_keys, dtype=np.uint64)
    n = rows.size
    scores = np.empty(n)
    if spec.jitter_u:
        seed_hash = rng.hash_int(spec.seed, JITTER_DOMAIN, head)
        bits = np.empty(min(n, BLOCK), dtype=np.uint64)
        scratch = np.empty_like(bits)
        # the finalizer's scratch is free once the bits are final: it holds the draws
        draws = scratch.view(np.float64)
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
        m = hi - lo
        block = probs.take(rows[lo:hi], axis=0)
        narrow = m < _NARROW
        out = scores[lo:hi]
        if spec.jitter_u:
            if narrow:
                bits[:m] = [rng.fold_int(seed_hash, key) for key in keys[lo:hi].tolist()]
            else:
                rng.fold_into(seed_hash, keys[lo:hi], bits[:m], scratch[:m])
            jitter = rng.uniform_into(bits[:m], draws[:m])
            np.multiply(jitter, spec.jitter_u, jitter)
        if narrow or spec.kind == "neg_entropy":
            if spec.jitter_u:
                block[np.arange(m), predict_matrix(block)] += jitter
            out[:] = score_matrix(block, spec.kind)
        elif spec.kind == "max_prob":
            reduce_class_major(block.T, spec.kind, out)
            if spec.jitter_u:
                np.add(out, jitter, out)
        else:
            top, second = _top2(block.T)
            if spec.jitter_u:
                np.add(top, jitter, top)
            np.subtract(top, second, out)
    return scores


def reduce_class_major(q: np.ndarray, kind: str, out: np.ndarray) -> np.ndarray:
    """`max_prob` or `breaking_ties` score of each column of class-major `q`, into `out`.

    `q` is K x n, one row per class (a transposed view of n probability
    rows will do), and the result equals `score_matrix(q.T, kind)` bit
    for bit: both kinds pick exact entries, and a running max (or
    `_top2`'s running top-2) over the K class rows picks the same ones as
    `max` (or `partition`).  Returns `out`.
    """
    if kind == "max_prob":
        np.maximum(q[0], q[1], out=out)
        for row in q[2:]:
            np.maximum(out, row, out=out)
    else:
        np.subtract(*_top2(q), out)
    return out


def _top2(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest and second-largest entry of each column of class-major `q`.

    A running top-2 over the class rows: the same two values as
    `score_matrix`'s partition.  A tie for the top counts twice.
    """
    top = np.maximum(q[0], q[1])
    second = np.minimum(q[0], q[1])
    lower = np.empty_like(top)
    for row in q[2:]:
        np.minimum(top, row, out=lower)
        np.maximum(top, row, out=top)
        np.maximum(second, lower, out=second)
    return top, second


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

