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
every survivor, is neither jittered nor scored.  `_route` is the only
walk over heads, and each head is one `_head_step` for every window and
every score kind.  The step takes the alive rows a block at a time,
decides them, predicts the leaving rows and writes the survivors out
for the next head.  A row's decision is the same bits as thresholding
`scoring.score_rows`, the kernel that calibration and the sweep score
with.  On a window of at least `scoring._NARROW` rows under a
`max_prob` or `breaking_ties` policy, the step first scores a gathered
block raw and hashes jitter only for the rows whose raw score lies
within the jitter band of the threshold (a margin of 2 jitter widths
plus a few ulp, more than jitter can move such a score).  Otherwise,
under `neg_entropy` or on a narrower window such as a one-instance
window, every alive row counts as in the band and goes straight to
`score_rows`.  `classify_batch` runs the kernel once over the whole
bank; `iter_classify` runs it over one-instance windows so each
decision is ready as soon as its own heads are scored.  Jitter is
counter-based, keyed by instance and head, so any window of the bank
gets bit-identical decisions.

A sweep routes one bank through many policies that share a scoring
configuration.  It scores every head of every instance once
(`scoring.score_bank`) and lets `first_exceed` take the same exit
decisions from that matrix for a stack of policies' thresholds at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import BatchResult, BudgetSpec, ExitPolicy, HeadBank, _set, within_budget
from .errors import HeadCountMismatch, LabelLengthMismatch
from .scoring import (
    _NARROW,
    BLOCK,
    TEST_KEY_BASE,
    ScoreSpec,
    predict_matrix,
    reduce_class_major,
    score_rows,
)


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
    The alive rows are kept as positions in the window, and each head
    decides, predicts and splits them in one `_head_step`; survivors are
    compacted into one buffer allocated per window.  The walk stops as
    soon as no row is alive.
    """
    n = hi - lo
    last = bank.num_heads - 1
    exits = np.full(n, last, dtype=np.int64)
    preds = np.empty(n, dtype=np.int64)
    alive = np.arange(n)
    survivors = np.empty(n, dtype=np.intp)
    for head in range(last):
        probs = bank.heads[head].probs[lo:hi]
        threshold = policy.thresholds[head]
        alive = _head_step(
            probs, alive, head == 0, TEST_KEY_BASE + lo, head, spec, threshold,
            exits, preds, survivors,
        )
        if alive.size == 0:
            return exits, preds
    # the final head takes whatever remains, unscored
    preds[alive] = predict_matrix(bank.heads[last].probs[lo:hi].take(alive, axis=0))
    return exits, preds


def _head_step(
    probs: np.ndarray,
    alive: np.ndarray,
    whole: bool,
    key_base: int,
    head: int,
    spec: ScoreSpec,
    threshold,
    exits: np.ndarray,
    preds: np.ndarray,
    survivors: np.ndarray,
) -> np.ndarray:
    """Decide, predict and split rows `alive` of window `probs` at `head`, block by block.

    `alive` holds sorted row positions, and row i takes jitter key
    `key_base + i`; `whole` says that `alive` is every row in order.  A row
    leaves when its `spec.kind` score is at or above `threshold`, exactly
    as thresholding `score_rows` decides.  Each leaving row gets
    `exits[i] = head` and `preds[i]` its argmax, and the survivors, in
    order, are returned as a prefix of `survivors`, which may be the
    buffer that `alive` lies in.

    On a window of at least `_NARROW` rows under `max_prob` or
    `breaking_ties`, each block of at most `BLOCK` alive rows is gathered
    once (when `whole`, it is a view of `probs`) and scored raw by
    `reduce_class_major`.  A row whose raw score lies outside `threshold
    ± margin`, margin = 2u + 2**-48 (1 + u) for jitter width u, is
    settled by it, and only the rows in that band are scored again with
    jitter, through `score_rows` and with keys built for them alone.  The
    leaving rows' argmax is then taken from the same in-cache block.  On
    a few rows the raw pass costs more than the hashing it saves, and
    `neg_entropy` has no proved margin, so otherwise every alive row
    counts as in the band and goes straight to `score_rows`.

    Why the margin covers the jitter, with e = 2**-53 the unit roundoff
    and probability entries p in [0, 2] (rows are non-negative and sum
    to 1): a jittered entry is q = fl(p + fl(u U)) with U in [0, 1), and
    rounding is monotone and exact on p and u, so p <= q <= fl(p + u)
    and 0 <= q - p <= d = u + e (2 + u).  For `max_prob` the raw score
    max p is exact and the jittered one max q, so they differ by at most
    d.  For `breaking_ties` the largest and second-largest entries each
    move by at most d, so their exact gaps differ by at most d, and the
    two rounded subtractions add at most e (2 + d) each.  In all,
    |jittered - raw| <= E = u + 8e (1 + u), below the margin even after
    its own rounding.  `top` and `bottom` are taken one float past the
    rounded `threshold ± margin`, so they lie outside the exact bounds:
    raw >= top gives jittered >= raw - E > threshold, and raw < bottom
    gives jittered < threshold.  A NaN bound (an infinite threshold and
    an infinite margin, which a width near 1e308 gives) fails both
    comparisons and settles no row.
    """
    threshold, u = float(threshold), spec.jitter_u
    narrow = len(probs) < _NARROW
    raw_pass = not narrow and spec.kind != "neg_entropy"
    if raw_pass:
        margin = 2.0 * u + 2.0**-48 * (1.0 + u)
        top = math.nextafter(threshold + margin, math.inf)
        bottom = math.nextafter(threshold - margin, -math.inf)
        raw = np.empty(min(alive.size, BLOCK))
    kept = 0
    for start in range(0, alive.size, BLOCK):
        rows = alive[start : start + BLOCK]
        if raw_pass:
            m = rows.size
            # the take and compress methods copy a block's rows several times
            # faster than fancy or boolean indexing, and cost less per call
            # than np.take and np.compress
            block = probs[start : start + m] if whole else probs.take(rows, axis=0)
            score = reduce_class_major(block.T, spec.kind, raw[:m])
            leave = score >= top
            band = np.flatnonzero(~(leave | (score < bottom)))
            if band.size:
                near = rows[band]
                leave[band] = score_rows(probs, near, key_base + near, head, spec) >= threshold
        else:
            leave = score_rows(probs, rows, key_base + rows, head, spec) >= threshold
        # on the few rows of a narrow window, boolean indexing is the cheaper call
        out = rows[leave] if narrow else rows.compress(leave)
        if out.size:
            exits[out] = head
            leaving = block.compress(leave, axis=0) if raw_pass else probs.take(out, axis=0)
            preds[out] = predict_matrix(leaving)
            rows = rows[~leave] if narrow else rows.compress(~leave)
        # survivors never overtake the block being read, so they compact in place
        survivors[kept : kept + rows.size] = rows
        kept += rows.size
    return survivors[:kept]


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
