"""Distribution-free calibration of per-head exit thresholds.

`build_policy` jitters and scores heads 1..M-1 once on the calibration
split, into one row-aligned (M-1) x N matrix.  A fresh instance may exit
at head l when its score ranks in the head's top rate_l calibration
quantile, i.e. when the empirical CDF of row l at its score is at least
1 - rate_l; `threshold_for_rate` sorts the row and turns that test into
a threshold.  Because jitter makes scores atomless, the realized exit
fraction on fresh data concentrates around rate_l at the usual
1/sqrt(N) speed, with no assumption on the score distribution.

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
from .scoring import CALIBRATION_KEY_BASE, ScoreSpec, jitter_matrix, score_matrix


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


def build_policy(calib_bank: HeadBank, allocation, spec: ScoreSpec) -> ExitPolicy:
    """Turn an allocation into per-head thresholds on calibration scores.

    Calibration rows take jitter keys counted from `CALIBRATION_KEY_BASE`,
    disjoint from the test-row key range.
    """
    eps = np.asarray(allocation.epsilons, dtype=np.float64)
    if eps.size != calib_bank.num_heads:
        raise HeadCountMismatch(f"allocation has {eps.size} heads, bank has {calib_bank.num_heads}")
    n = calib_bank.num_instances
    seq = sequential_rates(eps, n)
    keys = CALIBRATION_KEY_BASE + np.arange(n, dtype=np.uint64)
    scores = np.empty((eps.size - 1, n), dtype=np.float64)
    for head in range(eps.size - 1):
        jittered = jitter_matrix(calib_bank.heads[head].probs, head, keys, spec)
        with np.errstate(over="ignore"):  # threshold_for_rate rejects overflowed scores
            scores[head] = score_matrix(jittered, spec.kind)
    thresholds = [threshold_for_rate(row, rate) for row, rate in zip(scores, seq)]
    return ExitPolicy(
        score_kind=spec.kind, jitter_u=spec.jitter_u, seed=spec.seed, seq_rates=seq,
        thresholds=thresholds + [float("-inf")], calibration_size=n,
    )
