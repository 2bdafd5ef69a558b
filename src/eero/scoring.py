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


def score_bank(bank, key_base: int, spec: ScoreSpec) -> np.ndarray:
    """Jittered scores of every instance at heads 1..M-1 of a bank.

    Returns an (M-1) x N matrix whose row l holds head l's scores; row i
    of the bank takes jitter key `key_base + i`.  The final head takes
    whatever reaches it, so it is never scored.
    """
    n = bank.num_instances
    keys = key_base + np.arange(n, dtype=np.uint64)
    scores = np.empty((bank.num_heads - 1, n), dtype=np.float64)
    for head in range(bank.num_heads - 1):
        jittered = jitter_matrix(bank.heads[head].probs, head, keys, spec)
        scores[head] = score_matrix(jittered, spec.kind)
    return scores


def predict_matrix(probs: np.ndarray) -> np.ndarray:
    """Per-row argmax class (0-based) of raw probability rows.

    Ties go to the lowest index.
    """
    return np.argmax(np.asarray(probs), axis=1)

