"""Budget-constrained allocation of exit mass across heads.

Given per-head risks R and cumulative budgets b, the planner picks a
distribution eps over heads minimizing

    sum_l eps_l * R_l + beta * KL(eps || prior)

subject to the simplex constraints and the mean-budget constraint
sum_l eps_l * b_l <= B.  The optimum is a Gibbs distribution

    eps_l  proportional to  prior_l * exp(-(R_l + mu * b_l) / beta)

where mu >= 0 is the budget constraint's multiplier: zero when the
unconstrained optimum already fits the budget, otherwise the root of
the budget equation, found by bisection.  The expected budget under
eps(mu) is non-increasing in mu (its derivative is a negative variance),
which is what makes bisection safe.

Everything is computed in log space so extreme risk/budget ratios or
tiny temperatures cannot overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import AllocationResult, _frozen, _set, require_cheapest_covers, within_budget
from .errors import (
    BudgetBelowMinimum,
    EqualBudgets,
    InvalidSpec,
    NonIncreasingBudgets,
    NotOnSimplex,
    ShapeMismatch,
)

DEFAULT_BETA = 0.1

# bisection stops at |expected - target| <= _ROOT_TOL * target budget
_ROOT_TOL = 1e-10
_WIDTH_TOL = 1e-12
# the bracket search gives up past this multiplier: beta is then so large
# that mu * b / beta cannot move the Gibbs weights off the prior
_MU_MAX = 2.0**200


@dataclass(frozen=True)
class AllocationProblem:
    """Inputs of one allocation solve.

    Parameters
    ----------
    risks : ndarray
        Per-head misclassification rates in [0, 1].
    budgets : ndarray
        Per-head cumulative costs, positive and strictly increasing.
    prior : ndarray
        Reference distribution over heads, strictly positive on the simplex.
    beta : float
        Temperature of the KL regularizer (> 0).
    mean_budget : float
        Per-instance budget B; must admit at least the cheapest head.
    """

    risks: np.ndarray
    budgets: np.ndarray
    prior: np.ndarray
    beta: float
    mean_budget: float

    def __post_init__(self):
        risks = np.asarray(self.risks, dtype=np.float64)
        budgets = np.asarray(self.budgets, dtype=np.float64)
        prior = np.asarray(self.prior, dtype=np.float64)
        if not (risks.ndim == budgets.ndim == prior.ndim == 1):
            raise ShapeMismatch("risks, budgets and prior must be vectors")
        if not (risks.size == budgets.size == prior.size) or risks.size < 2:
            raise ShapeMismatch(
                f"need aligned vectors for >= 2 heads, got sizes "
                f"{risks.size}/{budgets.size}/{prior.size}"
            )
        if not np.all(np.isfinite(risks)) or risks.min() < 0.0 or risks.max() > 1.0:
            raise InvalidSpec("risks must be finite and lie in [0, 1]")
        if budgets[0] <= 0.0 or np.any(np.diff(budgets) <= 0.0):
            raise NonIncreasingBudgets(
                "budgets must be positive and strictly increasing"
            )
        if prior.min() <= 0.0 or abs(prior.sum() - 1.0) > 1e-9:
            raise NotOnSimplex("prior must be strictly positive and sum to 1")
        beta = float(self.beta)
        if not (0.0 < beta < np.inf):
            raise InvalidSpec(f"beta must be finite and > 0, got {self.beta}")
        bbar = float(self.mean_budget)
        if not (bbar > 0.0):
            raise InvalidSpec(f"mean budget must be > 0, got {self.mean_budget}")
        require_cheapest_covers(bbar, 1, budgets[0])
        _set(self, "risks", _frozen(risks))
        _set(self, "budgets", _frozen(budgets))
        _set(self, "prior", _frozen(prior))
        _set(self, "beta", beta)
        _set(self, "mean_budget", bbar)

    @property
    def num_heads(self) -> int:
        return self.risks.size


def default_prior(budgets: np.ndarray) -> np.ndarray:
    """Inverse-budget prior: mass proportional to 1 / b_l.

    Cheap heads get more reference mass, so the KL term alone already
    prefers inexpensive exits.
    """
    budgets = np.asarray(budgets, dtype=np.float64)
    if budgets.ndim != 1 or budgets.size < 1:
        raise ShapeMismatch("budgets must be a non-empty vector")
    if budgets.min() <= 0.0:
        raise NonIncreasingBudgets("budgets must be positive")
    inv = 1.0 / budgets
    return inv / inv.sum()


def _gibbs(problem: AllocationProblem, energy: np.ndarray) -> np.ndarray:
    """Normalized prior * exp(-energy / beta), computed in log space."""
    with np.errstate(over="ignore"):  # a tiny beta sends weights to exp(-inf) = 0
        logw = np.log(problem.prior) - energy / problem.beta
        if logw.max() == -np.inf:  # all of them: shift the energies first
            logw = np.log(problem.prior) - (energy - energy.min()) / problem.beta
    logw -= logw.max()
    w = np.exp(logw)
    return w / w.sum()


def gibbs_epsilons(problem: AllocationProblem, mu: float) -> np.ndarray:
    """Gibbs allocation at a fixed budget multiplier, in log space."""
    if not (mu >= 0.0):
        raise ValueError(f"multiplier must be >= 0, got {mu}")
    return _gibbs(problem, problem.risks + mu * problem.budgets)


def allocation_objective(problem: AllocationProblem, epsilons: np.ndarray) -> float:
    """Risk term plus beta-weighted KL to the prior, with 0 log 0 = 0."""
    eps = np.asarray(epsilons, dtype=np.float64)
    if eps.shape != problem.risks.shape:
        raise ShapeMismatch("epsilons length must match the problem")
    if eps.min() < -1e-12 or abs(eps.sum() - 1.0) > 1e-9:
        raise NotOnSimplex("epsilons must lie on the simplex")
    pos = eps > 0.0
    kl = float(np.sum(eps[pos] * np.log(eps[pos] / problem.prior[pos])))
    return float(eps @ problem.risks) + problem.beta * kl


def _expected_budget(problem: AllocationProblem, mu: float) -> float:
    return float(gibbs_epsilons(problem, mu) @ problem.budgets)


def _result(problem: AllocationProblem, eps: np.ndarray, mu: float) -> AllocationResult:
    pos = eps > 0.0
    kl = float(np.sum(eps[pos] * np.log(eps[pos] / problem.prior[pos])))
    return AllocationResult(
        epsilons=eps,
        multiplier=mu,
        expected_budget=float(eps @ problem.budgets),
        kl_to_prior=max(0.0, kl),
        saturated=mu > 0.0,
    )


def solve_allocation(problem: AllocationProblem) -> AllocationResult:
    """Solve the allocation problem exactly up to bisection tolerance.

    Returns the Gibbs allocation at mu = 0 when the budget is slack.
    Otherwise bisects the monotone budget equation for the unique
    positive multiplier.  A budget no larger than the cheapest head's
    cost under the budget rule (`domain.within_budget`) collapses to a
    point mass on the heads that fit it -- flagged as saturated, not an
    error; if several heads fit, the limit Gibbs weights (proportional
    to prior * exp(-risk / beta)) split the mass among them.  A beta so
    large that no multiplier up to 2**200 meets the budget raises
    InvalidSpec.
    """
    budgets = problem.budgets
    target = problem.mean_budget

    if within_budget(target, budgets[0]):
        fits = within_budget(budgets, target)
        eps = _gibbs(problem, np.where(fits, problem.risks, np.inf))
        return _result(problem, eps, np.inf)

    eps0 = gibbs_epsilons(problem, 0.0)
    if float(eps0 @ budgets) <= target:
        return _result(problem, eps0, 0.0)

    tol = _ROOT_TOL * target
    lo, hi = 0.0, 1.0
    while _expected_budget(problem, hi) > target:
        if hi >= _MU_MAX:
            raise InvalidSpec(
                f"beta {problem.beta:.6g} is too large: no budget multiplier up to "
                f"2**200 brings the expected budget down to {target:.6g}"
            )
        lo, hi = hi, hi * 2.0
    # hi always meets the budget; mu ends at hi or at a root within tol
    mu = hi
    for _ in range(400):
        if hi - lo <= _WIDTH_TOL:
            break
        mid = 0.5 * (lo + hi)
        g = _expected_budget(problem, mid) - target
        if abs(g) <= tol:
            mu = mid
            break
        if g > 0.0:
            lo = mid
        else:
            hi = mu = mid
    eps = gibbs_epsilons(problem, mu)
    return _result(problem, eps, mu)


def single_head_rate(
    budget_first: float, budget_second: float, total_budget: float, batch_size: int
) -> float:
    """Closed-form early-exit rate for the two-head case.

    Returns the fraction of a `batch_size` batch that must leave at the
    first head so that the batch exactly consumes `total_budget`,
    clamped to [0, 1].  Inside the feasible band the unclamped value
    satisfies  batch_size * (rate * b1 + (1 - rate) * b2) = total_budget.
    """
    b1 = float(budget_first)
    b2 = float(budget_second)
    if b1 == b2:
        raise EqualBudgets(f"head budgets must differ, got {b1} for both")
    if b1 > b2:
        raise NonIncreasingBudgets(
            f"first head must be cheaper, got ({b1}, {b2})"
        )
    if b1 <= 0.0:
        raise NonIncreasingBudgets("head budgets must be positive")
    t = int(batch_size)
    if t < 1:
        raise ValueError(f"batch size must be >= 1, got {batch_size}")
    total = float(total_budget)
    if total < t * b1:
        raise BudgetBelowMinimum(
            f"budget {total:.6g} cannot cover the first head alone "
            f"({t} * {b1:.6g} = {t * b1:.6g})"
        )
    # endpoints map exactly, sidestepping division round-off
    if total == t * b1:
        return 1.0
    if total == t * b2:
        return 0.0
    rate = (total / t - b2) / (b1 - b2)
    return float(min(1.0, max(0.0, rate)))
