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
which is what makes bisection safe: it doubles the multiplier from 1
until the budget is met, halves the bracket until no float lies inside
it and keeps the end that meets the budget, so a returned plan never
costs more than its cap.

`solve_allocations` solves many mean budgets of one problem at once,
and `solve_allocation` is its one-budget case.  The doubling steps are
the same for every budget, so each multiplier 2**j is evaluated once.
The bisection then runs in lockstep: each step takes every open
budget's midpoint, exactly the midpoint a budget solved alone takes,
and evaluates their Gibbs weights as one (B, M) array.  Each row's
expected budget is a sum in a fixed order (`_expected`), the same for
one row as for many and on any BLAS, so every budget takes the same
steps, and returns the same bits, as it does alone.

Everything is computed in log space so extreme risk/budget ratios or
tiny temperatures cannot overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import AllocationResult, _frozen, _set, require_cheapest_covers, within_budget
from .errors import InvalidSpec, NonIncreasingBudgets, NotOnSimplex, ShapeMismatch

DEFAULT_BETA = 0.1

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
    """Normalized prior * exp(-energy / beta) of each row of a (B, M) energy, in log space."""
    log_prior = np.log(problem.prior)
    with np.errstate(over="ignore"):  # a tiny beta sends weights to exp(-inf) = 0
        logw = log_prior - energy / problem.beta
        top = logw.max(axis=1, keepdims=True)
        dead = top[:, 0] == -np.inf
        if dead.any():  # all of a row's weights: shift its energies first
            shifted = energy[dead] - energy[dead].min(axis=1, keepdims=True)
            logw[dead] = log_prior - shifted / problem.beta
            top[dead] = logw[dead].max(axis=1, keepdims=True)
    logw -= top
    w = np.exp(logw)
    w /= w.sum(axis=1, keepdims=True)
    return w


def gibbs_epsilons(problem: AllocationProblem, mu: float) -> np.ndarray:
    """Gibbs allocation at a fixed budget multiplier, in log space.

    A multiplier that is negative or NaN raises InvalidSpec.
    """
    if not (mu >= 0.0):
        raise InvalidSpec(f"multiplier must be >= 0, got {mu}")
    return _gibbs(problem, (problem.risks + mu * problem.budgets)[None])[0]


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


def _expected(problem: AllocationProblem, eps: np.ndarray) -> np.ndarray:
    """Expected budget of each row of eps, summed along the row by numpy, not BLAS."""
    return np.add.reduce(eps * problem.budgets, axis=-1)


def _bisect(problem: AllocationProblem, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Epsilons and multipliers of budgets that bind, by doubling, then lockstep halving."""
    risks, budgets = problem.risks, problem.budgets
    lo, hi = np.zeros(targets.size), np.ones(targets.size)
    # doubling takes every budget through the same multipliers 1, 2, 4, ...
    top = 1.0
    short = _expected(problem, gibbs_epsilons(problem, top)) > targets
    while short.any():
        if top >= _MU_MAX:
            raise InvalidSpec(
                f"beta {problem.beta:.6g} is too large: no budget multiplier up to "
                f"2**200 brings the expected budget down to {targets[short][0]:.6g}"
            )
        lo[short] = top
        top *= 2.0
        hi[short] = top
        short &= _expected(problem, gibbs_epsilons(problem, top)) > targets
    # lo misses the budget and hi meets it; halve until they are adjacent floats
    while True:
        mid = 0.5 * (lo + hi)
        live = ((lo < mid) & (mid < hi)).nonzero()[0]
        if live.size == 0:
            break
        at = mid[live]
        over = _expected(problem, _gibbs(problem, risks + at[:, None] * budgets)) > targets[live]
        lo[live[over]] = at[over]
        hi[live[~over]] = at[~over]
    return _gibbs(problem, risks + hi[:, None] * budgets), hi


def _result(problem: AllocationProblem, eps: np.ndarray, mu: float) -> AllocationResult:
    pos = eps > 0.0
    kl = float(np.sum(eps[pos] * np.log(eps[pos] / problem.prior[pos])))
    return AllocationResult(
        epsilons=eps,
        multiplier=mu,
        expected_budget=float(_expected(problem, eps)),
        kl_to_prior=max(0.0, kl),
        saturated=mu > 0.0,
    )


def solve_allocations(problem: AllocationProblem, mean_budgets) -> tuple[np.ndarray, np.ndarray]:
    """`solve_allocation` at each of several mean budgets, solved together.

    `problem` supplies the risks, budgets, prior and beta; its own
    `mean_budget` is not read.  Returns the (B, M) epsilons and the (B,)
    multipliers: row b is, bit for bit, what `solve_allocation` plans
    for mean budget `mean_budgets[b]`, in whatever order the budgets
    come and however often one repeats.  A mean budget that is not
    positive or does not admit the cheapest head raises, as in
    `AllocationProblem`, and so does one that no multiplier up to 2**200
    meets; each check reports the first budget that fails it.
    """
    targets = np.asarray(mean_budgets, dtype=np.float64)
    if targets.ndim != 1 or targets.size == 0:
        raise ShapeMismatch("mean budgets must be a non-empty vector")
    budgets = problem.budgets
    bad = np.flatnonzero(~(targets > 0.0))
    if bad.size:
        raise InvalidSpec(f"mean budget must be > 0, got {float(targets[bad[0]])}")
    short = np.flatnonzero(~within_budget(budgets[0], targets))
    if short.size:
        require_cheapest_covers(targets[short[0]], 1, budgets[0])
    eps = np.empty((targets.size, budgets.size))
    mu = np.zeros(targets.size)
    # a budget no larger than the cheapest head: the limit plan on the heads that fit it
    point = within_budget(targets, budgets[0])
    if point.any():
        fits = within_budget(budgets, targets[point, None])
        eps[point] = _gibbs(problem, np.where(fits, problem.risks, np.inf))
        mu[point] = np.inf
    eps0 = gibbs_epsilons(problem, 0.0)
    bind = ~point & (_expected(problem, eps0) > targets)
    eps[~point & ~bind] = eps0
    if bind.any():
        eps[bind], mu[bind] = _bisect(problem, targets[bind])
    return eps, mu


def solve_allocation(problem: AllocationProblem) -> AllocationResult:
    """Solve the allocation problem to the last bit of the multiplier.

    Returns the Gibbs allocation at mu = 0 when the budget is slack.
    Otherwise bisects the monotone budget equation until the bracket
    holds no further float and returns its upper end, whose expected
    budget is at most the cap: the plan never exceeds `mean_budget`.
    This is the one-budget case of `solve_allocations`.

    A budget no larger than the cheapest head's cost under the budget
    rule (`domain.within_budget`) collapses to a point mass on the heads
    that fit it -- flagged as saturated, not an error; if several heads
    fit, the limit Gibbs weights (proportional to prior * exp(-risk /
    beta)) split the mass among them.  Only this plan may exceed the
    cap, by at most the rule's relative 1e-12, since no plan costs less
    than the cheapest head.  A beta so large that no multiplier up to
    2**200 meets the budget raises InvalidSpec.
    """
    eps, mu = solve_allocations(problem, [problem.mean_budget])
    return _result(problem, eps[0], float(mu[0]))


def single_head_rate(
    budget_first: float, budget_second: float, total_budget: float, batch_size: int
) -> float:
    """Closed-form early-exit rate for the two-head case.

    Returns the fraction of a `batch_size` batch that must leave at the
    first head so that the batch exactly consumes `total_budget`,
    clamped to [0, 1].  Inside the feasible band the unclamped value
    satisfies  batch_size * (rate * b1 + (1 - rate) * b2) = total_budget.
    Needs 0 < b1 < b2 and a total that pays the first head for the whole
    batch under the budget rule (`domain.require_cheapest_covers`).
    """
    b1 = float(budget_first)
    b2 = float(budget_second)
    if not (0.0 < b1 < b2):
        raise NonIncreasingBudgets(
            f"head budgets must be positive and increasing, got ({b1}, {b2})"
        )
    t = int(batch_size)
    if t < 1:
        raise InvalidSpec(f"batch size must be >= 1, got {batch_size}")
    total = float(total_budget)
    require_cheapest_covers(total, t, b1)
    # endpoints map exactly, sidestepping division round-off
    if total == t * b1:
        return 1.0
    if total == t * b2:
        return 0.0
    rate = (total / t - b2) / (b1 - b2)
    return float(min(1.0, max(0.0, rate)))
