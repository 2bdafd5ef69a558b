"""Distribution-free calibration of per-head exit thresholds.

Calibration takes two steps.  `calibration_scores` jitters and scores
heads 1..M-1 once on the calibration split, into one (M-1) x N matrix
with each row sorted; the scores do not depend on the budget, so one
matrix serves every budget.  `fit_thresholds` turns a stack of
allocations into thresholds on that matrix: a fresh instance may exit
at head l when its score ranks in the head's top rate_l calibration
quantile, i.e. when the empirical CDF of row l at its score is at least
1 - rate_l, and the threshold is the smallest calibration score that
passes that test.  Each row is checked once, and every allocation's
thresholds are read with one `searchsorted`; `policy_from_scores` and
`threshold_for_rate` are its one-allocation and one-rate cases.
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


def _thresholds(sorted_scores: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Thresholds of ascending, finite score rows (H, n) at classify rates (B, H).

    Entry (b, l) is the smallest score of row l whose CDF value reaches
    1 - rates[b, l], or -inf when that rate is 1: all of them are read
    with one `searchsorted` over the shared ranks.
    """
    n = sorted_scores.shape[1]
    # ranks[j] is the CDF value at scores[j] for distinct scores; jitter makes
    # duplicates a probability-zero event, and the derivation below remains
    # conservative (never classifies more than the CDF test) if they occur
    ranks = np.arange(1, n + 1, dtype=np.float64) / n
    idx = np.minimum(np.searchsorted(ranks, 1.0 - rates, side="left"), n - 1)
    found = sorted_scores[np.arange(sorted_scores.shape[0]), idx]
    return np.where(rates >= 1.0, -np.inf, found)


def _ascending(scores: np.ndarray) -> np.ndarray:
    """Rows of finite calibration scores, each sorted unless it already ascends."""
    if scores.shape[-1] == 0:
        raise EmptyCalibration("need at least one calibration score")
    if not np.all(np.isfinite(scores)):
        raise InvalidSpec("calibration scores must be finite")
    if np.any(np.diff(scores, axis=-1) < 0.0):
        scores = np.sort(scores, axis=-1)
    return scores


def _check_rates(rates: np.ndarray) -> None:
    off = rates[~((rates >= 0.0) & (rates <= 1.0))]
    if off.size:
        raise InvalidSpec(f"classify rate must lie in [0, 1], got {off[0]}")


def threshold_for_rate(scores: np.ndarray, classify_rate: float) -> float:
    """Smallest calibration score whose CDF value reaches 1 - classify_rate.

    `scores` are one head's calibration scores, sorted here unless they
    already ascend.  A score is at or above the returned threshold exactly
    when its CDF value is at least 1 - classify_rate; a rate of 1 returns
    -inf so everything is classified.  A rate outside [0, 1] raises
    InvalidSpec.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise EmptyCalibration("need at least one calibration score")
    scores = _ascending(scores)
    rate = np.array([[classify_rate]], dtype=np.float64)
    _check_rates(rate)
    return float(_thresholds(scores[None], rate)[0, 0])


def sequential_rates(epsilons: np.ndarray, calibration_size: int) -> np.ndarray:
    """Cumulative per-head classify rates from a target exit allocation.

    The cumulative rates are inflated by (1 + 1/sqrt(N)) and clipped at
    1.  The final entry is always forced to exactly 1 so the last head
    classifies whatever remains.  `epsilons` may also be a (B, M) stack
    of allocations, one per row, which gives one row of rates each.
    """
    eps = np.asarray(epsilons, dtype=np.float64)
    if eps.ndim not in (1, 2) or eps.size < 1:
        raise NotOnSimplex("epsilons must be a non-empty vector")
    rows = eps.reshape(-1, eps.shape[-1])
    mins, sums = rows.min(axis=1), rows.sum(axis=1)
    off = np.flatnonzero((mins < -1e-9) | (np.abs(sums - 1.0) > 1e-9))
    if off.size:
        raise NotOnSimplex(
            f"epsilons must lie on the simplex (min {mins[off[0]]:.3e}, "
            f"sum {sums[off[0]]:.12f})"
        )
    n = int(calibration_size)
    if n < 1:
        raise EmptyCalibration("calibration size must be >= 1")
    seq = np.cumsum(np.clip(eps, 0.0, None), axis=-1) * (1.0 + 1.0 / np.sqrt(n))
    seq = np.minimum(seq, 1.0)
    seq[..., -1] = 1.0
    return seq


def calibration_scores(calib_bank: HeadBank, spec: ScoreSpec) -> np.ndarray:
    """Calibration scores of heads 1..M-1, one ascending row per head.

    Calibration rows take jitter keys counted from `CALIBRATION_KEY_BASE`,
    disjoint from the test-row key range.
    """
    scores = score_bank(calib_bank, CALIBRATION_KEY_BASE, spec)
    scores.sort(axis=1)
    return scores


def fit_thresholds(
    sorted_scores: np.ndarray, epsilons: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sequential rates and exit thresholds of a (B, M) stack of allocations.

    `sorted_scores` comes from `calibration_scores`.  Returns two (B, M)
    arrays, row b for allocation b; each head's row of scores is checked
    once, and every threshold is read off it in one pass.
    """
    eps = np.asarray(epsilons, dtype=np.float64)
    m = sorted_scores.shape[0] + 1
    if eps.shape[-1] != m:
        raise HeadCountMismatch(f"allocation has {eps.shape[-1]} heads, bank has {m}")
    seq = sequential_rates(eps, sorted_scores.shape[1])
    rows = _ascending(sorted_scores)
    _check_rates(seq)
    thresholds = np.full(seq.shape, -np.inf)
    thresholds[:, :-1] = _thresholds(rows, seq[:, :-1])
    return seq, thresholds


def policy_from_scores(sorted_scores: np.ndarray, allocation, spec: ScoreSpec) -> ExitPolicy:
    """Turn an allocation into per-head thresholds on sorted calibration scores.

    `sorted_scores` comes from `calibration_scores` with the same `spec`.
    This is the one-allocation case of `fit_thresholds`.
    """
    seq, thresholds = fit_thresholds(sorted_scores, np.asarray(allocation.epsilons)[None])
    return ExitPolicy(
        score_kind=spec.kind, jitter_u=spec.jitter_u, seed=spec.seed, seq_rates=seq[0],
        thresholds=thresholds[0], calibration_size=sorted_scores.shape[1],
    )


def build_policy(calib_bank: HeadBank, allocation, spec: ScoreSpec) -> ExitPolicy:
    """Turn an allocation into per-head thresholds on calibration scores.

    To fit many allocations on one calibration split, score it once with
    `calibration_scores` and call `policy_from_scores` for each.
    """
    return policy_from_scores(calibration_scores(calib_bank, spec), allocation, spec)
