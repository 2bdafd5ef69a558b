"""Distribution-free calibration of per-head exit thresholds.

Calibration takes two steps.  `calibration_scores` jitters and scores
heads 1..M-1 once on the calibration split, into one (M-1) x N matrix
with each row sorted; the scores do not depend on the budget, so one
matrix serves every budget.  `policy_from_scores` turns an allocation
into thresholds on that matrix: a fresh instance may exit at head l
when its score ranks in the head's top rate_l calibration quantile,
i.e. when the empirical CDF of row l at its score is at least
1 - rate_l, and `threshold_for_rate` turns that test into a threshold.
`build_policy` is the two steps in one call.  Because jitter makes
scores atomless, the realized exit fraction on fresh data concentrates
around rate_l at the usual 1/sqrt(N) speed, with no assumption on the
score distribution.

Rates are consumed sequentially: head l's rate is the cumulative target
mass of heads 1..l, inflated by the finite-sample factor (1 + 1/sqrt(N))
so that undershoot due to CDF estimation error does not silently push
instances to more expensive heads.  The last head's rate is pinned to 1:
its threshold is -inf and, as in routing, it is never scored.
"""

from __future__ import annotations

import numpy as np

from .domain import ExitPolicy, HeadBank
from .errors import EmptyCalibration, HeadCountMismatch, InvalidSpec, NotOnSimplex
from .scoring import CALIBRATION_KEY_BASE, ScoreSpec, score_bank


def threshold_for_rate(scores: np.ndarray, classify_rate: float) -> float:
    """Smallest calibration score whose CDF value reaches 1 - classify_rate.

    `scores` are one head's calibration scores, sorted here unless they
    already ascend.  A score is at or above the returned threshold exactly
    when its CDF value is at least 1 - classify_rate; a rate of 1 returns
    -inf so everything is classified.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size == 0:
        raise EmptyCalibration("need at least one calibration score")
    if not np.all(np.isfinite(scores)):
        raise InvalidSpec("calibration scores must be finite")
    if np.any(np.diff(scores) < 0.0):
        scores = np.sort(scores)
    if not (0.0 <= classify_rate <= 1.0):
        raise ValueError(f"classify rate must lie in [0, 1], got {classify_rate}")
    if classify_rate >= 1.0:
        return float("-inf")
    target = 1.0 - classify_rate
    n = scores.size
    # ranks[j] is the CDF value at scores[j] for distinct scores; jitter makes
    # duplicates a probability-zero event, and the derivation below remains
    # conservative (never classifies more than the CDF test) if they occur
    ranks = np.arange(1, n + 1, dtype=np.float64) / n
    idx = min(int(np.searchsorted(ranks, target, side="left")), n - 1)
    return float(scores[idx])


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


def calibration_scores(calib_bank: HeadBank, spec: ScoreSpec) -> np.ndarray:
    """Calibration scores of heads 1..M-1, one ascending row per head.

    Calibration rows take jitter keys counted from `CALIBRATION_KEY_BASE`,
    disjoint from the test-row key range.
    """
    scores = score_bank(calib_bank, CALIBRATION_KEY_BASE, spec)
    scores.sort(axis=1)
    return scores


def policy_from_scores(sorted_scores: np.ndarray, allocation, spec: ScoreSpec) -> ExitPolicy:
    """Turn an allocation into per-head thresholds on sorted calibration scores.

    `sorted_scores` comes from `calibration_scores` with the same `spec`.
    """
    eps = np.asarray(allocation.epsilons, dtype=np.float64)
    m = sorted_scores.shape[0] + 1
    if eps.size != m:
        raise HeadCountMismatch(f"allocation has {eps.size} heads, bank has {m}")
    n = sorted_scores.shape[1]
    seq = sequential_rates(eps, n)
    thresholds = [threshold_for_rate(row, rate) for row, rate in zip(sorted_scores, seq)]
    return ExitPolicy(
        score_kind=spec.kind, jitter_u=spec.jitter_u, seed=spec.seed, seq_rates=seq,
        thresholds=thresholds + [float("-inf")], calibration_size=n,
    )


def build_policy(calib_bank: HeadBank, allocation, spec: ScoreSpec) -> ExitPolicy:
    """Turn an allocation into per-head thresholds on calibration scores.

    To fit many allocations on one calibration split, score it once with
    `calibration_scores` and call `policy_from_scores` for each.
    """
    return policy_from_scores(calibration_scores(calib_bank, spec), allocation, spec)
