"""Core value types for budgeted early-exit classification.

A *head bank* holds, for one data split, the per-head conditional
probability matrices of an M-exit model together with each exit's
cumulative inference cost.  Budgets are cumulative: the cost charged
for an instance that leaves at head L already includes the heads it
passed through on the way, so a single number per head describes the
whole forward pass up to that exit.

All containers validate on construction and are immutable afterwards;
arrays are stored read-only so a validated value cannot drift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InfeasibleBudget,
    InvalidSpec,
    NonIncreasingBudgets,
    NotOnSimplex,
    RowNotNormalized,
    ShapeMismatch,
)

ROW_SUM_TOL = 1e-6
SIMPLEX_TOL = 1e-9
# relative slack on a budget, so that a total which meets the budget
# exactly in decimal arithmetic is not lost to binary rounding
BUDGET_RTOL = 1e-12


def within_budget(consumed: float, allowed: float) -> bool:
    """The budget rule: a total fits an allowance up to a relative BUDGET_RTOL.

    Every feasibility check and every `within_budget` flag applies it.
    """
    return consumed <= allowed * (1.0 + BUDGET_RTOL)


def require_cheapest_covers(budget: float, count: int, cheapest: float) -> None:
    """Raise InfeasibleBudget unless `count` instances fit `budget` at the cheapest head."""
    need = count * float(cheapest)
    if not within_budget(need, budget):
        raise InfeasibleBudget(
            f"budget {float(budget)!r} cannot cover the cheapest head for every "
            f"instance: {count} x {float(cheapest)!r} = {need!r}"
        )


def _frozen(a: np.ndarray, dtype=np.float64) -> np.ndarray:
    # always copy so freezing never flips writeability on a caller's array
    out = np.array(a, dtype=dtype, order="C", copy=True)
    out.flags.writeable = False
    return out


def _set(obj, name, value) -> None:
    # frozen dataclasses assign through object.__setattr__
    object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class HeadSlice:
    """One exit head on one split: probability rows plus cost metadata.

    Parameters
    ----------
    probs : ndarray of shape (n_instances, n_classes)
        Conditional class probabilities, one row per instance.  Rows must
        be finite, entrywise non-negative and sum to 1 within 1e-6; rows
        off by more than float noise are renormalized exactly once so
        that stored rows always sum to 1 to within a few ulp.
    budget_gflops : float
        Cumulative cost of computing this head's output for one instance.
    risk : float or None
        Estimated misclassification rate of the head, when known.
    """

    probs: np.ndarray
    budget_gflops: float
    risk: float | None = None

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 2:
            raise ShapeMismatch(
                f"probability matrix must be (n >= 1, K >= 2), got {p.shape}"
            )
        if not np.all(np.isfinite(p)):
            raise RowNotNormalized("probability rows must be finite")
        if p.min() < 0.0:
            raise RowNotNormalized("probability rows must be entrywise >= 0")
        sums = p.sum(axis=1)
        bad = np.abs(sums - 1.0) > ROW_SUM_TOL
        if bad.any():
            raise RowNotNormalized(
                f"row {int(np.argmax(bad))} sums to {sums[np.argmax(bad)]:.8f}"
            )
        # exact cleanup, skipped when already normalized to float noise so
        # that write/read round trips are bitwise stable
        off = np.abs(sums - 1.0) > 1e-12
        if off.any():
            p = p.copy()
            p[off] /= sums[off, None]
        _set(self, "probs", _frozen(p))
        if not (float(self.budget_gflops) > 0.0):
            raise NonIncreasingBudgets(
                f"head budget must be positive, got {self.budget_gflops}"
            )
        _set(self, "budget_gflops", float(self.budget_gflops))
        if self.risk is not None:
            r = float(self.risk)
            if not (0.0 <= r <= 1.0):
                raise ValueError(f"risk must lie in [0, 1], got {r}")
            _set(self, "risk", r)

    @property
    def num_instances(self) -> int:
        return self.probs.shape[0]

    @property
    def num_classes(self) -> int:
        return self.probs.shape[1]


@dataclass(frozen=True)
class HeadBank:
    """An ordered tuple of exit heads over the same instances.

    Invariants: at least two heads, identical (n_instances, n_classes)
    across heads, and strictly increasing positive cumulative budgets.
    """

    heads: tuple[HeadSlice, ...]

    def __post_init__(self):
        heads = tuple(self.heads)
        _set(self, "heads", heads)
        if len(heads) < 2:
            raise ShapeMismatch(f"need at least 2 heads, got {len(heads)}")
        shape = heads[0].probs.shape
        for i, h in enumerate(heads):
            if h.probs.shape != shape:
                raise ShapeMismatch(
                    f"head {i + 1} has shape {h.probs.shape}, expected {shape}"
                )
        budgets = [h.budget_gflops for h in heads]
        if any(b2 <= b1 for b1, b2 in zip(budgets, budgets[1:])):
            raise NonIncreasingBudgets(
                f"budgets must be strictly increasing, got {budgets}"
            )

    @property
    def num_heads(self) -> int:
        return len(self.heads)

    @property
    def num_instances(self) -> int:
        return self.heads[0].num_instances

    @property
    def num_classes(self) -> int:
        return self.heads[0].num_classes

    @property
    def budgets(self) -> np.ndarray:
        return _frozen(np.array([h.budget_gflops for h in self.heads]))

    @property
    def risks(self) -> np.ndarray | None:
        """Per-head risks when every head declares one, else None."""
        rs = [h.risk for h in self.heads]
        if any(r is None for r in rs):
            return None
        return np.array(rs, dtype=np.float64)


@dataclass(frozen=True)
class BudgetSpec:
    """Total computation budget for a batch of a known size.

    `total_budget` is the overall allowance (same unit as head budgets,
    e.g. GFlops) for classifying `batch_size` instances; `mean_budget`
    is the per-instance allowance that drives the allocation.
    """

    total_budget: float
    batch_size: int

    def __post_init__(self):
        if not (float(self.total_budget) > 0.0):
            raise InvalidSpec(f"total budget must be > 0, got {self.total_budget}")
        if int(self.batch_size) < 1:
            raise InvalidSpec(f"batch size must be >= 1, got {self.batch_size}")
        _set(self, "total_budget", float(self.total_budget))
        _set(self, "batch_size", int(self.batch_size))

    @property
    def mean_budget(self) -> float:
        return self.total_budget / self.batch_size

    def validate_for(self, bank: HeadBank) -> None:
        """Check that the cheapest head fits the whole batch."""
        require_cheapest_covers(
            self.total_budget, self.batch_size, bank.heads[0].budget_gflops
        )


@dataclass(frozen=True)
class AllocationResult:
    """Solution of the budgeted exit-allocation problem.

    `epsilons` is the fraction of the batch planned to leave at each
    head (a point on the simplex), `multiplier` the budget constraint's
    KKT multiplier, and `saturated` flags an active budget constraint.
    `saturated` is true exactly when `multiplier` is positive.
    """

    epsilons: np.ndarray
    multiplier: float
    expected_budget: float
    kl_to_prior: float
    saturated: bool

    def __post_init__(self):
        eps = np.asarray(self.epsilons, dtype=np.float64)
        if eps.ndim != 1 or eps.size < 1:
            raise ShapeMismatch("epsilons must be a 1-d vector")
        if not (eps.min() >= -SIMPLEX_TOL and abs(eps.sum() - 1.0) <= SIMPLEX_TOL):
            raise NotOnSimplex(
                f"epsilons must lie on the simplex (sum {eps.sum():.3e})"
            )
        _set(self, "epsilons", _frozen(eps))
        mult = float(self.multiplier)
        if not (mult >= 0.0):
            raise ValueError(f"multiplier must be >= 0, got {mult}")
        if bool(self.saturated) != (mult > 0.0):
            raise ValueError("saturated flag must equal (multiplier > 0)")
        _set(self, "multiplier", mult)
        _set(self, "expected_budget", float(self.expected_budget))
        if float(self.kl_to_prior) < -1e-12:
            raise ValueError("KL divergence cannot be negative")
        _set(self, "kl_to_prior", max(0.0, float(self.kl_to_prior)))
        _set(self, "saturated", bool(self.saturated))

    @property
    def num_heads(self) -> int:
        return self.epsilons.size


@dataclass(frozen=True)
class ExitPolicy:
    """Everything inference needs to route instances, frozen at calibration.

    `seq_rates[l]` is the (corrected) cumulative fraction of fresh
    instances allowed to exit at heads 1..l+1; it is non-decreasing and
    ends at exactly 1 so the last head always classifies.  `thresholds[l]`
    is the calibration-score cutoff realizing that rate, with -inf
    meaning "classify everything that reaches this head".  The scoring
    configuration (kind, jitter width, seed) is pinned so fresh scores
    live in the same space as the calibration scores.
    """

    score_kind: str
    jitter_u: float
    seed: int
    seq_rates: np.ndarray
    thresholds: np.ndarray
    calibration_size: int

    def __post_init__(self):
        seq = np.asarray(self.seq_rates, dtype=np.float64)
        thr = np.asarray(self.thresholds, dtype=np.float64)
        if seq.ndim != 1 or thr.shape != seq.shape or seq.size < 1:
            raise ShapeMismatch("seq_rates and thresholds must be equal-length vectors")
        if np.any(np.diff(seq) < 0.0) or seq.min() < 0.0 or seq.max() > 1.0:
            raise ValueError("sequential rates must be non-decreasing within [0, 1]")
        if seq[-1] != 1.0:
            raise ValueError("the final sequential rate must be exactly 1")
        if np.any(np.isnan(thr)):
            raise ValueError("thresholds must not be NaN")
        _set(self, "seq_rates", _frozen(seq))
        _set(self, "thresholds", _frozen(thr))
        _set(self, "score_kind", str(self.score_kind))
        _set(self, "jitter_u", float(self.jitter_u))
        _set(self, "seed", int(self.seed))
        n = int(self.calibration_size)
        if n < 1:
            raise ValueError("calibration size must be >= 1")
        _set(self, "calibration_size", n)

    @property
    def num_heads(self) -> int:
        return self.seq_rates.size


@dataclass(frozen=True)
class BatchResult:
    """Outcome of routing one batch through an exit policy.

    `exits` holds 1-based head indices, `predictions` 1-based class
    indices.  `consumed_budget` equals the sum of per-instance costs and
    `exit_proportions` the realized exit distribution (on the simplex).
    `accuracy` is None when the batch had no labels.
    """

    exits: np.ndarray
    predictions: np.ndarray
    per_instance_cost: np.ndarray
    consumed_budget: float
    exit_proportions: np.ndarray
    accuracy: float | None = None

    def __post_init__(self):
        exits = np.asarray(self.exits, dtype=np.int64)
        preds = np.asarray(self.predictions, dtype=np.int64)
        cost = np.asarray(self.per_instance_cost, dtype=np.float64)
        if not (exits.shape == preds.shape == cost.shape) or exits.ndim != 1:
            raise ShapeMismatch("exits, predictions and costs must be aligned vectors")
        if exits.size and (exits.min() < 1 or preds.min() < 1):
            raise ValueError("exits and predictions are 1-based indices")
        props = np.asarray(self.exit_proportions, dtype=np.float64)
        if props.min() < -SIMPLEX_TOL or abs(props.sum() - 1.0) > SIMPLEX_TOL:
            raise NotOnSimplex("exit proportions must lie on the simplex")
        if abs(float(self.consumed_budget) - cost.sum()) > 1e-6 * max(1.0, cost.sum()):
            raise ValueError("consumed budget must equal the summed per-instance cost")
        _set(self, "exits", _frozen(exits, dtype=np.int64))
        _set(self, "predictions", _frozen(preds, dtype=np.int64))
        _set(self, "per_instance_cost", _frozen(cost))
        _set(self, "exit_proportions", _frozen(props))
        _set(self, "consumed_budget", float(self.consumed_budget))
        if self.accuracy is not None:
            a = float(self.accuracy)
            if not (0.0 <= a <= 1.0):
                raise ValueError(f"accuracy must lie in [0, 1], got {a}")
            _set(self, "accuracy", a)

    @property
    def batch_size(self) -> int:
        return self.exits.size
