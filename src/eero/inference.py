"""Routing batches through a calibrated exit policy.

An instance walks the heads in order and leaves at the first head whose
jittered confidence score is at or above that head's threshold; the
final head's rate is 1 so nothing survives past it.  Jitter only
decides exits: the prediction is the plain argmax of the exit head's
raw probability row (`scoring.predict_matrix`), the rule that risks and
the oracle use too.  The instance is charged the exit head's cumulative
budget and nothing else: costs of the heads it merely passed through
are already inside that cumulative number, and heads it never reached
cost nothing.

One cascade kernel, `_route`, does all routing, and its work follows the
same cost model: head l is jittered and scored only on the instances
still alive after heads 1..l-1, argmax predictions are taken only for
the instances that leave at head l, and the final head, which takes
every survivor, is neither jittered nor scored.  On a window of at
least `scoring._NARROW` rows, each head's decision is `scoring.clears`:
for a `max_prob` or `breaking_ties` policy it scores the alive rows
raw and hashes jitter only for the rows whose raw score lies within the
jitter band of the threshold (a margin of 2 jitter widths plus a few
ulp, more than jitter can move such a score).  It returns the same bits
as thresholding `scoring.score_rows`, the kernel that calibration and
the sweep score with, which narrower windows, such as one-instance
windows, call directly.  `classify_batch` runs the kernel once over the
whole bank; `iter_classify` runs it over one-instance windows so each
decision is ready as soon as its own heads are scored.  Jitter is
counter-based, keyed by instance and head, so any window of the bank
gets bit-identical decisions.

A sweep routes one bank through many policies that share a scoring
configuration.  It scores every head of every instance once
(`scoring.score_bank`) and lets `first_exceed` take the same exit
decisions from that matrix for a stack of policies' thresholds at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import BatchResult, BudgetSpec, ExitPolicy, HeadBank, _set, within_budget
from .errors import HeadCountMismatch, LabelLengthMismatch
from .scoring import _NARROW, TEST_KEY_BASE, ScoreSpec, clears, predict_matrix, score_rows


def _pinned_spec(bank: HeadBank, policy: ExitPolicy) -> ScoreSpec:
    """The scoring configuration the policy was calibrated with."""
    if policy.num_heads != bank.num_heads:
        raise HeadCountMismatch(
            f"policy built for {policy.num_heads} heads, bank has {bank.num_heads}"
        )
    return ScoreSpec(kind=policy.score_kind, jitter_u=policy.jitter_u, seed=policy.seed)


def _route(
    bank: HeadBank, policy: ExitPolicy, spec: ScoreSpec, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Cascade rows [lo, hi) of a bank through the policy.

    Returns the 0-based exit head and 0-based prediction of each row.
    `alive` holds the bank rows that no head has classified yet; the
    walk stops as soon as it is empty.
    """
    last = bank.num_heads - 1
    exits = np.full(hi - lo, last, dtype=np.int64)
    preds = np.empty(hi - lo, dtype=np.int64)
    alive = np.arange(lo, hi)
    # the raw pass of `clears` saves hashing only where numpy's per-call
    # overhead is not the cost, the same cut-off `score_rows` makes
    wide = hi - lo >= _NARROW
    for head in range(last):
        probs = bank.heads[head].probs
        threshold = policy.thresholds[head]
        if wide:
            leave = clears(probs, alive, TEST_KEY_BASE, head, spec, threshold)
        else:
            leave = score_rows(probs, alive, TEST_KEY_BASE + alive, head, spec) >= threshold
        out = alive[leave]
        if out.size:
            exits[out - lo] = head
            preds[out - lo] = predict_matrix(probs[out])
            alive = alive[~leave]
            if alive.size == 0:
                return exits, preds
    # the final head takes whatever remains, unscored
    preds[alive - lo] = predict_matrix(bank.heads[last].probs[alive])
    return exits, preds


def first_exceed(scores: np.ndarray, thresholds) -> np.ndarray:
    """0-based exit head of each instance from a cached test score matrix.

    `scores` is `scoring.score_bank` of a test bank from `TEST_KEY_BASE`
    with the policy's scoring configuration, and `thresholds` are the
    policy's.  An instance leaves at the first head whose score is at or
    above that head's threshold, else at the final head.  These must
    equal `_route`'s exit decisions on the same bank; the difference is
    only cost: every head is scored for every instance, once, so one
    matrix serves any number of policies.  A (B, M) stack of policies'
    thresholds gives a (B, T) matrix of exits, row b for policy b.
    """
    thresholds = np.asarray(thresholds, dtype=np.float64)
    shape = thresholds.shape[:-1] + scores.shape[1:]
    alive = np.ones(shape, dtype=bool)
    exits = np.zeros(shape, dtype=np.intp)
    # an instance's exit head is the number of heads it passes before one takes it
    for head in range(scores.shape[0]):
        alive &= ~(scores[head] >= thresholds[..., head, None])
        exits += alive
    return exits


def classify_batch(
    bank: HeadBank, policy: ExitPolicy, labels: np.ndarray | None = None
) -> BatchResult:
    """Route every instance of a test bank and aggregate the outcome.

    Scoring uses the configuration pinned inside the policy.  `labels`
    (0-based classes) are optional; when present the result carries
    batch accuracy.
    """
    spec = _pinned_spec(bank, policy)
    n = bank.num_instances
    m = bank.num_heads
    if labels is not None:
        labels = np.asarray(labels)
        if labels.shape != (n,):
            raise LabelLengthMismatch(
                f"{labels.shape[0] if labels.ndim else 'scalar'} labels for {n} instances"
            )

    exit_head, chosen = _route(bank, policy, spec, 0, n)
    costs = bank.budgets[exit_head]
    proportions = np.bincount(exit_head, minlength=m).astype(np.float64) / n
    accuracy = None if labels is None else float(np.mean(chosen == labels))
    return BatchResult(
        exits=exit_head + 1,
        predictions=chosen + 1,
        per_instance_cost=costs,
        consumed_budget=float(costs.sum()),
        exit_proportions=proportions,
        accuracy=accuracy,
    )


def iter_classify(bank: HeadBank, policy: ExitPolicy):
    """Lazy per-instance routing; yields (exit_head, prediction, cost).

    Head and class indices are 1-based, matching `BatchResult`.  Each
    decision is the cascade kernel on a one-instance window, so later
    heads of an instance are never scored once it exits.
    """
    spec = _pinned_spec(bank, policy)
    for i in range(bank.num_instances):
        (head,), (pred,) = _route(bank, policy, spec, i, i + 1)
        yield int(head) + 1, int(pred) + 1, bank.heads[head].budget_gflops


@dataclass(frozen=True)
class BudgetReport:
    """Consumed-versus-allowed accounting for one routed batch."""

    consumed_budget: float
    allowed_budget: float
    utilization: float
    within_budget: bool

    def __post_init__(self):
        _set(self, "consumed_budget", float(self.consumed_budget))
        _set(self, "allowed_budget", float(self.allowed_budget))
        _set(self, "utilization", float(self.utilization))
        _set(self, "within_budget", bool(self.within_budget))


def measure_budget(result: BatchResult, budget: BudgetSpec) -> BudgetReport:
    """Compare a batch's consumption against its allowance.

    `within_budget` applies the budget rule, `domain.within_budget`.
    """
    allowed = budget.mean_budget * result.batch_size
    consumed = result.consumed_budget
    return BudgetReport(
        consumed_budget=consumed,
        allowed_budget=allowed,
        utilization=consumed / allowed,
        within_budget=within_budget(consumed, allowed),
    )
