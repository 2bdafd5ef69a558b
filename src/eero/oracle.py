"""Offline upper bound: best possible head assignment under a budget.

With labels in hand, assigning each instance to exactly one head and
maximizing the number of correct predictions under a total-cost cap
looks like a multiple-choice knapsack, but correctness is 0/1 per
instance, so it collapses.  Every instance starts at the cheapest head.
One that some head gets right can be *raised* to its cheapest correct
head, for that head's cost minus the cheapest cost, and every raise
gains exactly one correct prediction.  Taking the smallest raises first
until the spare budget runs out is therefore optimal, and it is a
cheapest optimal assignment.

Ties are canonical: heads are ordered by (cost, index), and among equal
raises the earliest instances are raised.  `oracle_curve` serves many
budgets from one sort, with a single `searchsorted` over the raises'
running total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import BUDGET_RTOL, HeadBank, _frozen, _set, require_cheapest_covers
from .errors import InvalidSpec, LabelLengthMismatch, ShapeMismatch
from .scoring import TEST_KEY_BASE, ScoreSpec, jitter_matrix, predict_matrix


@dataclass(frozen=True)
class OracleInstance:
    """One assignment problem: correctness matrix, costs, at-most budget."""

    correctness: np.ndarray
    costs: np.ndarray
    budget: float

    def __post_init__(self):
        corr = np.asarray(self.correctness)
        if corr.ndim != 2 or corr.shape[0] < 1 or corr.shape[1] < 1:
            raise ShapeMismatch("correctness must be a (T, M) matrix")
        costs = np.asarray(self.costs, dtype=np.float64)
        if costs.shape != (corr.shape[1],):
            raise ShapeMismatch(
                f"{costs.size} costs for {corr.shape[1]} heads"
            )
        if not np.all(np.isfinite(costs)) or costs.min() <= 0.0:
            raise InvalidSpec("costs must be finite and positive")
        if not (float(self.budget) > 0.0):
            raise InvalidSpec(f"budget must be positive, got {self.budget}")
        _set(self, "correctness", _frozen(corr != 0, dtype=np.bool_))
        _set(self, "costs", _frozen(costs))
        _set(self, "budget", float(self.budget))

    @property
    def num_instances(self) -> int:
        return self.correctness.shape[0]

    @property
    def num_heads(self) -> int:
        return self.correctness.shape[1]


@dataclass(frozen=True)
class OracleResult:
    """An assignment (1-based head per instance) with its value and cost.

    `cost` is the exactly rounded sum (`math.fsum`) of the declared
    costs of the assigned heads.
    """

    assignment: np.ndarray
    accuracy: float
    cost: float

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=np.int64)
        if a.ndim != 1:
            raise ShapeMismatch("assignment must be a vector")
        _set(self, "assignment", _frozen(a, dtype=np.int64))
        _set(self, "accuracy", float(self.accuracy))
        _set(self, "cost", float(self.cost))


def build_correctness(
    bank: HeadBank, labels: np.ndarray, spec: ScoreSpec | None = None
) -> np.ndarray:
    """Per-(instance, head) correctness of the bank's argmax predictions.

    Predictions are the plain argmax of the stored rows; pass a
    `ScoreSpec` to use jittered rows instead (matching what inference
    would predict under that spec).
    """
    labels = np.asarray(labels)
    if labels.shape != (bank.num_instances,):
        raise LabelLengthMismatch(
            f"{labels.size} labels for {bank.num_instances} instances"
        )
    out = np.empty((bank.num_instances, bank.num_heads), dtype=bool)
    # test-row key space, so jittered predictions agree with inference
    keys = TEST_KEY_BASE + np.arange(bank.num_instances, dtype=np.uint64)
    for head in range(bank.num_heads):
        probs = bank.heads[head].probs
        if spec is not None:
            probs = jitter_matrix(probs, head, keys, spec)
        out[:, head] = predict_matrix(probs) == labels
    return out


def _solve(instance: OracleInstance, budgets: np.ndarray):
    """Sort the raises once; count how many fit each budget.

    Returns (cheapest head, cheapest correct head per instance, raisable
    instances in raise order, number of raises that fit per budget).
    """
    costs = instance.costs
    t = instance.num_instances
    order = np.argsort(costs, kind="stable")  # heads by (cost, index)
    base = int(order[0])
    ordered = instance.correctness[:, order]
    target = order[np.argmax(ordered, axis=1)]
    raises = costs[target] - costs[base]
    raisable = np.flatnonzero(ordered.any(axis=1))
    ranked = raisable[np.argsort(raises[raisable], kind="stable")]
    require_cheapest_covers(float(budgets.min()), t, costs[base])
    # raises fit while t * costs[base] + their running total is within budget
    spare = budgets * (1.0 + BUDGET_RTOL) - t * costs[base]
    counts = np.searchsorted(np.cumsum(raises[ranked]), spare, side="right")
    return base, target, ranked, counts


def _result(instance: OracleInstance, base, target, raised) -> OracleResult:
    assignment = np.full(instance.num_instances, base, dtype=np.int64)
    assignment[raised] = target[raised]
    return OracleResult(
        assignment=assignment + 1,
        accuracy=raised.size / instance.num_instances,
        cost=math.fsum(instance.costs[assignment]),
    )


def oracle_exact(instance: OracleInstance) -> OracleResult:
    """Cheapest assignment maximizing correct predictions with cost <= budget."""
    base, target, ranked, counts = _solve(instance, np.array([instance.budget]))
    return _result(instance, base, target, ranked[: counts[0]])


def oracle_curve(
    correctness: np.ndarray, costs: np.ndarray, budgets: np.ndarray
) -> list[tuple[float, float]]:
    """(accuracy, consumed cost) of `oracle_exact` at several budgets."""
    budgets = np.asarray(budgets, dtype=np.float64)
    instance = OracleInstance(
        correctness=correctness, costs=costs, budget=float(budgets.max())
    )
    base, target, ranked, counts = _solve(instance, budgets)
    out = []
    for k in counts:
        res = _result(instance, base, target, ranked[:k])
        out.append((res.accuracy, res.cost))
    return out
