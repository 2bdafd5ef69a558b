"""Distribution-free calibration of per-head exit thresholds.

Each head's jittered confidence scores on a held-out calibration set
define an empirical CDF.  A fresh instance is allowed to exit at head l
when the CDF of its score is at least 1 - rate_l, i.e. when its score
ranks in the head's top rate_l calibration quantile.  Because jitter
makes scores atomless, the realized exit fraction on fresh data
concentrates around rate_l at the usual 1/sqrt(N) speed, with no
assumption on the score distribution.

Rates are consumed sequentially: head l's rate is the cumulative target
mass of heads 1..l, inflated by the finite-sample factor (1 + 1/sqrt(N))
so that undershoot due to CDF estimation error does not silently push
instances to more expensive heads.  The last head's rate is pinned to 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import ExitPolicy, HeadBank, _frozen, _set
from .errors import EmptyCalibration, HeadCountMismatch, InvalidSpec, NotOnSimplex
from .scoring import CALIBRATION_KEY_BASE, ScoreSpec, jitter_matrix, score_matrix


@dataclass(frozen=True)
class ScoreCdf:
    """Empirical score distribution of one head on the calibration split."""

    sorted_scores: np.ndarray
    head: int

    def __post_init__(self):
        scores = np.asarray(self.sorted_scores, dtype=np.float64)
        if scores.ndim != 1 or scores.size == 0:
            raise EmptyCalibration("need at least one calibration score")
        if not np.all(np.isfinite(scores)):
            raise InvalidSpec("calibration scores must be finite")
        if np.any(np.diff(scores) < 0.0):
            scores = np.sort(scores)
        _set(self, "sorted_scores", _frozen(scores))
        _set(self, "head", int(self.head))

    @property
    def size(self) -> int:
        return self.sorted_scores.size


def build_cdf(calib_bank: HeadBank, head: int, spec: ScoreSpec) -> ScoreCdf:
    """Score the calibration rows of one head and sort them.

    `head` is 0-based; calibration rows take jitter keys counted from
    `CALIBRATION_KEY_BASE`, disjoint from the test-row key range.
    """
    if not (0 <= head < calib_bank.num_heads):
        raise HeadCountMismatch(
            f"head index {head} out of range for {calib_bank.num_heads} heads"
        )
    probs = calib_bank.heads[head].probs
    keys = CALIBRATION_KEY_BASE + np.arange(probs.shape[0], dtype=np.uint64)
    jittered = jitter_matrix(probs, head, keys, spec)
    with np.errstate(over="ignore"):  # ScoreCdf rejects the overflowed scores
        scores = score_matrix(jittered, spec.kind)
    return ScoreCdf(sorted_scores=np.sort(scores), head=head)


def cdf_eval(cdf: ScoreCdf, t: float) -> float:
    """Fraction of calibration scores <= t (0 below the sample, 1 above)."""
    n = cdf.size
    return float(np.searchsorted(cdf.sorted_scores, t, side="right")) / n


def threshold_for_rate(cdf: ScoreCdf, classify_rate: float) -> float:
    """Smallest calibration score whose CDF value reaches 1 - classify_rate.

    Scoring at or above the returned threshold is exactly equivalent to
    the CDF test `cdf_eval(score) >= 1 - classify_rate`; a rate of 1
    returns -inf so everything is classified.
    """
    if not (0.0 <= classify_rate <= 1.0):
        raise ValueError(f"classify rate must lie in [0, 1], got {classify_rate}")
    if classify_rate >= 1.0:
        return float("-inf")
    target = 1.0 - classify_rate
    n = cdf.size
    # ranks[j] = cdf_eval(sorted_scores[j]) for distinct scores; jitter makes
    # duplicates a probability-zero event, and the derivation below remains
    # conservative (never classifies more than the CDF test) if they occur
    ranks = np.arange(1, n + 1, dtype=np.float64) / n
    idx = int(np.searchsorted(ranks, target, side="left"))
    idx = min(idx, n - 1)
    return float(cdf.sorted_scores[idx])


def sequential_rates(epsilons: np.ndarray, calibration_size: int) -> np.ndarray:
    """Cumulative per-head classify rates from a target exit allocation.

    The cumulative rates are inflated by (1 + 1/sqrt(N)) and clipped at
    1.  The final entry is always forced to exactly 1 so the last head
    classifies whatever remains.
    """
    eps = np.asarray(epsilons, dtype=np.float64)
    if eps.ndim != 1 or eps.size < 1:
        raise NotOnSimplex("epsilons must be a non-empty vector")
    if eps.min() < -1e-9 or abs(eps.sum() - 1.0) > 1e-9:
        raise NotOnSimplex(
            f"epsilons must lie on the simplex (min {eps.min():.3e}, "
            f"sum {eps.sum():.12f})"
        )
    n = int(calibration_size)
    if n < 1:
        raise EmptyCalibration("calibration size must be >= 1")
    seq = np.cumsum(np.clip(eps, 0.0, None)) * (1.0 + 1.0 / np.sqrt(n))
    seq = np.minimum(seq, 1.0)
    seq[-1] = 1.0
    return seq


def build_policy(calib_bank: HeadBank, allocation, spec: ScoreSpec) -> ExitPolicy:
    """Turn an allocation into per-head thresholds on calibration scores."""
    eps = np.asarray(allocation.epsilons, dtype=np.float64)
    if eps.size != calib_bank.num_heads:
        raise HeadCountMismatch(
            f"allocation has {eps.size} heads, bank has {calib_bank.num_heads}"
        )
    n = calib_bank.num_instances
    seq = sequential_rates(eps, n)
    thresholds = np.empty(eps.size, dtype=np.float64)
    for head in range(eps.size):
        cdf = build_cdf(calib_bank, head, spec)
        thresholds[head] = threshold_for_rate(cdf, float(seq[head]))
    return ExitPolicy(
        score_kind=spec.kind,
        jitter_u=spec.jitter_u,
        seed=spec.seed,
        seq_rates=seq,
        thresholds=thresholds,
        calibration_size=n,
    )
