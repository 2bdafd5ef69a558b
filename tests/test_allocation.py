"""Exponential-weights budget allocation: frozen hand-derived cases,
KKT residuals, limits in the temperature, and the two-head closed form."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eero.allocation import (
    AllocationProblem,
    allocation_objective,
    default_prior,
    gibbs_epsilons,
    single_head_rate,
    solve_allocation,
    solve_allocations,
)
from eero.domain import within_budget
from eero.errors import (
    InfeasibleBudget,
    InvalidSpec,
    NonIncreasingBudgets,
    NotOnSimplex,
)

TWO_HEAD_MU = 1.0 + np.log(4.0)  # root of the saturated two-head case below


def two_head_problem(mean_budget, beta=1.0):
    return AllocationProblem(
        risks=np.array([1.0, 0.0]),
        budgets=np.array([1.0, 2.0]),
        prior=np.array([0.5, 0.5]),
        beta=beta,
        mean_budget=mean_budget,
    )


def test_default_prior_hand_values():
    assert np.allclose(default_prior(np.array([1.0, 1.0])), [0.5, 0.5], rtol=1e-15)
    assert np.allclose(default_prior(np.array([1.0, 3.0])), [0.75, 0.25], rtol=1e-15)
    assert np.allclose(
        default_prior(np.array([1.0, 2.0, 4.0])), [4 / 7, 2 / 7, 1 / 7], rtol=1e-14
    )


def test_gibbs_uniform_risk_recovers_prior():
    p = AllocationProblem(
        risks=np.array([0.3, 0.3, 0.3]),
        budgets=np.array([1.0, 2.0, 3.0]),
        prior=np.array([0.5, 0.3, 0.2]),
        beta=0.7,
        mean_budget=3.0,
    )
    assert np.allclose(gibbs_epsilons(p, 0.0), p.prior, rtol=1e-14)


def test_gibbs_two_head_hand_value():
    p = two_head_problem(mean_budget=1.2)
    eps = gibbs_epsilons(p, TWO_HEAD_MU)
    assert np.allclose(eps, [0.8, 0.2], rtol=1e-14)


def test_gibbs_huge_beta_approaches_prior():
    p = AllocationProblem(
        risks=np.array([0.9, 0.1, 0.4]),
        budgets=np.array([1.0, 2.0, 4.0]),
        prior=default_prior(np.array([1.0, 2.0, 4.0])),
        beta=1e9,
        mean_budget=4.0,
    )
    eps = gibbs_epsilons(p, 0.0)
    assert np.max(np.abs(eps - p.prior)) < 1e-6


def test_solve_two_head_saturated_hand_value():
    res = solve_allocation(two_head_problem(mean_budget=1.2))
    assert np.allclose(res.epsilons, [0.8, 0.2], atol=1e-6)
    assert res.multiplier == pytest.approx(TWO_HEAD_MU, abs=1e-6)
    assert res.saturated
    assert res.expected_budget == pytest.approx(1.2, rel=1e-9)


def test_solve_slack_equal_risks_returns_prior():
    p = AllocationProblem(
        risks=np.array([0.5, 0.5]),
        budgets=np.array([1.0, 2.0]),
        prior=np.array([2 / 3, 1 / 3]),
        beta=1.0,
        mean_budget=2.0,
    )
    res = solve_allocation(p)
    assert np.allclose(res.epsilons, [2 / 3, 1 / 3], rtol=1e-14)
    assert res.expected_budget == pytest.approx(4 / 3, rel=1e-14)
    assert res.multiplier == 0.0
    assert not res.saturated


def test_solve_degenerate_budget_point_mass():
    p = AllocationProblem(
        risks=np.array([0.9, 0.1]),
        budgets=np.array([1.0, 2.0]),
        prior=np.array([0.5, 0.5]),
        beta=0.1,
        mean_budget=1.0,
    )
    res = solve_allocation(p)
    assert np.array_equal(res.epsilons, [1.0, 0.0])
    assert np.isinf(res.multiplier)
    assert res.saturated
    assert res.expected_budget == 1.0


def test_problem_construction_guards():
    with pytest.raises(InfeasibleBudget):
        AllocationProblem(
            risks=np.array([0.5, 0.5]),
            budgets=np.array([1.0, 2.0]),
            prior=np.array([0.5, 0.5]),
            beta=1.0,
            mean_budget=0.5,
        )
    with pytest.raises(NonIncreasingBudgets):
        AllocationProblem(
            risks=np.array([0.5, 0.5]),
            budgets=np.array([2.0, 1.0]),
            prior=np.array([0.5, 0.5]),
            beta=1.0,
            mean_budget=2.0,
        )
    with pytest.raises(NotOnSimplex):
        AllocationProblem(
            risks=np.array([0.5, 0.5]),
            budgets=np.array([1.0, 2.0]),
            prior=np.array([0.6, 0.6]),
            beta=1.0,
            mean_budget=2.0,
        )
    with pytest.raises(ValueError):
        AllocationProblem(
            risks=np.array([0.5, 1.5]),
            budgets=np.array([1.0, 2.0]),
            prior=np.array([0.5, 0.5]),
            beta=1.0,
            mean_budget=2.0,
        )


def test_subnormal_beta_stays_on_simplex():
    # risk / beta overflows to inf for every head; the weights must not become NaN
    budgets = np.array([1.0, 3.0])
    for mean_budget in (2.0, 1.0):  # saturated bisection, then the degenerate branch
        p = AllocationProblem(
            risks=np.array([1 / 3, 0.2]),
            budgets=budgets,
            prior=default_prior(budgets),
            beta=5e-324,
            mean_budget=mean_budget,
        )
        res = solve_allocation(p)
        assert np.all(np.isfinite(res.epsilons))
        assert res.expected_budget <= mean_budget
    assert np.array_equal(gibbs_epsilons(p, 0.0), [0.0, 1.0])


def test_beta_must_be_finite():
    with pytest.raises(InvalidSpec):
        AllocationProblem(
            risks=np.array([0.5, 0.2]),
            budgets=np.array([1.0, 2.0]),
            prior=np.array([0.5, 0.5]),
            beta=np.inf,
            mean_budget=2.0,
        )


@pytest.mark.parametrize("mean_budget", [np.nan, 0.0, -2.0])
def test_mean_budget_must_be_positive(mean_budget):
    with pytest.raises(InvalidSpec):
        AllocationProblem(
            risks=np.array([0.5, 0.2]),
            budgets=np.array([1.0, 2.0]),
            prior=np.array([0.5, 0.5]),
            beta=0.1,
            mean_budget=mean_budget,
        )


@pytest.mark.parametrize("beta, solvable", [(1e60, True), (1e200, False), (1e308, False)])
def test_huge_beta_meets_the_cap_or_is_rejected(beta, solvable):
    # sample_data/tiny at a total budget of 7 for its 6 test instances
    budgets = np.array([1.0, 3.0])
    p = AllocationProblem(
        risks=np.array([1.0 / 3.0, 0.0]),
        budgets=budgets,
        prior=default_prior(budgets),
        beta=beta,
        mean_budget=7.0 / 6.0,
    )
    if solvable:
        res = solve_allocation(p)
        assert res.saturated
        assert res.expected_budget <= p.mean_budget
    else:  # the prior plans 1.5 per instance, over the 1.1667 cap
        with pytest.raises(InvalidSpec, match="too large"):
            solve_allocation(p)


def test_no_plan_exceeds_its_cap():
    # the problems of acceptance criterion 2, on another stream
    rng = np.random.default_rng(0)
    over = []
    for _ in range(2000):
        m = int(rng.integers(2, 21))
        budgets = np.cumsum(rng.uniform(0.3, 2.5, size=m))
        risks = rng.uniform(0.0, 1.0, size=m)
        beta = float(rng.uniform(0.02, 3.0))
        mean_budget = float(rng.uniform(budgets[0] * 1.001, budgets[-1] * 1.2))
        res = solve_allocation(AllocationProblem(
            risks=risks, budgets=budgets, prior=default_prior(budgets),
            beta=beta, mean_budget=mean_budget,
        ))
        if res.expected_budget > mean_budget:
            over.append(res.expected_budget / mean_budget - 1.0)
    assert over == []


def test_expected_budget_non_increasing_in_multiplier():
    p = AllocationProblem(
        risks=np.array([0.7, 0.2, 0.4, 0.1]),
        budgets=np.array([1.0, 2.0, 3.5, 5.0]),
        prior=default_prior(np.array([1.0, 2.0, 3.5, 5.0])),
        beta=0.3,
        mean_budget=3.0,
    )
    mus = np.linspace(0.0, 20.0, 100)
    h = np.array([float(gibbs_epsilons(p, m) @ p.budgets) for m in mus])
    assert np.all(np.diff(h) <= 1e-12)


def test_small_beta_concentrates_on_lowest_risk():
    budgets = np.array([1.0, 2.0, 3.0])
    p = AllocationProblem(
        risks=np.array([0.8, 0.2, 0.7]),  # separated by >= 0.1
        budgets=budgets,
        prior=default_prior(budgets),
        beta=1e-3,
        mean_budget=3.0,  # slack
    )
    res = solve_allocation(p)
    assert res.epsilons[1] > 1.0 - 1e-6


def test_beta_limit_toward_prior_with_slack():
    budgets = np.array([1.0, 2.0, 4.0])
    prior = default_prior(budgets)
    p = AllocationProblem(
        risks=np.array([0.9, 0.5, 0.1]),
        budgets=budgets,
        prior=prior,
        beta=1e9,
        mean_budget=4.0,
    )
    res = solve_allocation(p)
    assert np.max(np.abs(res.epsilons - prior)) < 1e-6


def _kkt_ok(problem, result, n_probe=2_000, rng=None):
    eps = result.epsilons
    assert abs(eps.sum() - 1.0) <= 1e-9
    assert eps.min() >= 0.0
    spent = float(np.add.reduce(eps * problem.budgets))
    assert spent == result.expected_budget <= problem.mean_budget
    if result.saturated and np.isfinite(result.multiplier):
        assert abs(spent - problem.mean_budget) <= 1e-8 * problem.mean_budget
    assert result.multiplier * abs(spent - problem.mean_budget) <= 1e-8
    # optimality against random feasible competitors
    if rng is not None and np.isfinite(result.multiplier):
        mine = allocation_objective(problem, eps)
        m = problem.budgets.size
        raw = rng.dirichlet(np.ones(m), size=n_probe)
        cheap = np.zeros(m)
        cheap[0] = 1.0
        lam = rng.uniform(0.0, 1.0, size=(n_probe, 1))
        probe = lam * raw + (1.0 - lam) * cheap  # blend toward the cheapest vertex
        feasible = probe @ problem.budgets <= problem.mean_budget
        for q in probe[feasible]:
            assert mine <= allocation_objective(problem, q) + 1e-9


def test_kkt_residuals_random_problems(rng):
    for _ in range(60):
        m = int(rng.integers(2, 8))
        budgets = np.cumsum(rng.uniform(0.5, 2.0, size=m))
        risks = rng.uniform(0.0, 1.0, size=m)
        beta = float(rng.uniform(0.05, 2.0))
        lo, hi = budgets[0], budgets[-1]
        mean_budget = float(rng.uniform(lo, hi * 1.2))
        p = AllocationProblem(
            risks=risks,
            budgets=budgets,
            prior=default_prior(budgets),
            beta=beta,
            mean_budget=mean_budget,
        )
        _kkt_ok(p, solve_allocation(p), rng=rng)


def test_single_head_rate_hand_value():
    assert single_head_rate(1.0, 3.0, 200.0, 100) == 0.5


def test_single_head_rate_endpoints_exact():
    assert single_head_rate(1.0, 3.0, 100 * 1.0, 100) == 1.0
    assert single_head_rate(1.0, 3.0, 100 * 3.0, 100) == 0.0
    # also at awkward floats
    b1, b2, t = 0.1, 0.7, 13
    assert single_head_rate(b1, b2, t * b1, t) == 1.0
    assert single_head_rate(b1, b2, t * b2, t) == 0.0


def test_single_head_rate_identity():
    rng = np.random.default_rng(5)
    for _ in range(100):
        b1 = float(rng.uniform(0.1, 5.0))
        b2 = b1 + float(rng.uniform(0.1, 5.0))
        t = int(rng.integers(1, 10_000))
        total = float(rng.uniform(t * b1, t * b2))
        eps = single_head_rate(b1, b2, total, t)
        reconstructed = t * (eps * b1 + (1.0 - eps) * b2)
        assert reconstructed == pytest.approx(total, rel=1e-12)


def test_single_head_rate_clamps_surplus():
    assert single_head_rate(1.0, 2.0, 1_000.0, 10) == 0.0


def test_single_head_rate_errors():
    with pytest.raises(NonIncreasingBudgets):
        single_head_rate(2.0, 2.0, 10.0, 2)
    with pytest.raises(NonIncreasingBudgets):
        single_head_rate(3.0, 2.0, 10.0, 2)
    with pytest.raises(InfeasibleBudget, match="cheapest head"):
        single_head_rate(1.0, 2.0, 0.5, 1)
    with pytest.raises(InvalidSpec):
        single_head_rate(1.0, 2.0, 10.0, 0)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=0, max_value=2**32),
    st.floats(min_value=0.05, max_value=5.0),
)
def test_solver_output_always_on_simplex(m, seed, beta):
    rng = np.random.default_rng(seed)
    budgets = np.cumsum(rng.uniform(0.2, 3.0, size=m))
    p = AllocationProblem(
        risks=rng.uniform(0.0, 1.0, size=m),
        budgets=budgets,
        prior=default_prior(budgets),
        beta=beta,
        mean_budget=float(rng.uniform(budgets[0], budgets[-1])),
    )
    res = solve_allocation(p)
    assert abs(res.epsilons.sum() - 1.0) <= 1e-9
    assert float(np.add.reduce(res.epsilons * budgets)) == res.expected_budget <= p.mean_budget
    assert res.kl_to_prior >= 0.0


# The one-budget bisection as it stood before budgets were solved in
# lockstep, kept as the reference: 1-d Gibbs weights, one expected budget
# per step, summed in numpy's fixed order.  The lockstep solver must return
# its bits exactly.
def _reference_gibbs(problem, energy):
    with np.errstate(over="ignore"):
        logw = np.log(problem.prior) - energy / problem.beta
        if logw.max() == -np.inf:
            logw = np.log(problem.prior) - (energy - energy.min()) / problem.beta
    logw -= logw.max()
    w = np.exp(logw)
    return w / w.sum()


def _reference_solve(problem):
    """(epsilons, multiplier, expected budget) of the one-budget bisection."""
    budgets, target = problem.budgets, problem.mean_budget

    def eps_at(mu):
        return _reference_gibbs(problem, problem.risks + mu * budgets)

    def spent(eps):
        return float(np.add.reduce(eps * budgets))

    def done(eps, mu):
        return eps, mu, spent(eps)

    if within_budget(target, budgets[0]):
        fits = within_budget(budgets, target)
        return done(_reference_gibbs(problem, np.where(fits, problem.risks, np.inf)), np.inf)
    if spent(eps_at(0.0)) <= target:
        return done(eps_at(0.0), 0.0)
    lo, hi = 0.0, 1.0
    while spent(eps_at(hi)) > target:
        lo, hi = hi, hi * 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if spent(eps_at(mid)) > target:
            lo = mid
        else:
            hi = mid
    return done(eps_at(hi), hi)


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32),
    beta=st.one_of(
        st.floats(min_value=0.01, max_value=5.0),
        # every Gibbs weight underflows: the all -inf rows take the shifted fallback
        st.floats(min_value=5e-324, max_value=1e-310),
    ),
    flat_prior=st.booleans(),
    draws=st.integers(min_value=0, max_value=12),
)
def test_lockstep_solver_equals_one_budget_bisection(m, seed, beta, flat_prior, draws):
    rng = np.random.default_rng(seed)
    budgets = np.cumsum(rng.uniform(0.2, 3.0, size=m))
    prior = default_prior(budgets) if flat_prior else rng.dirichlet(np.ones(m))
    problem = AllocationProblem(
        risks=rng.uniform(0.0, 1.0, size=m), budgets=budgets,
        prior=np.maximum(prior, 1e-12) / np.maximum(prior, 1e-12).sum(),
        beta=beta, mean_budget=float(budgets[-1]),
    )
    e0 = float(np.add.reduce(gibbs_epsilons(problem, 0.0) * budgets))
    b0 = float(budgets[0])
    targets = [
        b0, math.nextafter(b0, math.inf), b0 * (1.0 + 1e-12), e0,
        math.nextafter(e0, -math.inf), math.nextafter(e0, math.inf), float(budgets[-1]),
        *rng.uniform(b0, budgets[-1], size=draws),
    ]
    targets = [t for t in targets if within_budget(b0, t)]
    # any order, with repeats
    targets = list(rng.permutation(targets + targets[: draws % 4]))
    eps, mu = solve_allocations(problem, targets)
    assert eps.shape == (len(targets), m) and mu.shape == (len(targets),)
    for row, (target, mult) in enumerate(zip(targets, mu)):
        one = dataclasses.replace(problem, mean_budget=target)
        ref_eps, ref_mu, ref_expected = _reference_solve(one)
        assert _bits(eps[row]) == _bits(ref_eps), (target, row)
        assert _bits(mult) == _bits(ref_mu), (target, row)
        res = solve_allocation(one)
        assert _bits(res.epsilons) == _bits(ref_eps)
        assert _bits(res.multiplier) == _bits(ref_mu)
        assert _bits(res.expected_budget) == _bits(ref_expected)


def test_lockstep_solver_equals_one_budget_bisection_on_many_budgets():
    # binding budgets by the thousand: a (B, M) @ budgets product differs from
    # the one-row `eps @ budgets` in the last bit often enough here that a
    # solver using it for the expected budgets would change some multipliers
    for seed in range(100):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 13))
        budgets = np.cumsum(rng.uniform(0.2, 3.0, size=m))
        problem = AllocationProblem(
            risks=rng.uniform(0.0, 1.0, size=m), budgets=budgets, prior=default_prior(budgets),
            beta=float(rng.uniform(0.01, 5.0)), mean_budget=float(budgets[-1]),
        )
        targets = rng.uniform(budgets[0], budgets[-1], size=20)
        eps, mu = solve_allocations(problem, targets)
        for row, target in enumerate(targets):
            ref_eps, ref_mu, _ = _reference_solve(dataclasses.replace(problem, mean_budget=target))
            assert _bits(eps[row]) == _bits(ref_eps), (seed, row)
            assert _bits(mu[row]) == _bits(ref_mu), (seed, row)


def test_lockstep_solver_raises_for_the_first_bad_budget():
    p = two_head_problem(1.5)
    with pytest.raises(InvalidSpec, match="got -1.0"):
        solve_allocations(p, [1.5, -1.0, 0.5])
    with pytest.raises(InfeasibleBudget, match="budget 0.5 "):
        solve_allocations(p, [1.5, 0.5, 0.25])
    # both 1.25 and 1.2 are out of reach; the first named is reported
    with pytest.raises(InvalidSpec, match=r"down to 1\.25$"):
        solve_allocations(dataclasses.replace(p, beta=1e200), [2.0, 1.25, 1.2])


def test_negative_multiplier_is_a_documented_error():
    with pytest.raises(InvalidSpec) as e:
        gibbs_epsilons(two_head_problem(1.5), -1.0)
    assert e.value.exit_code == 2
    with pytest.raises(InvalidSpec):
        gibbs_epsilons(two_head_problem(1.5), float("nan"))
