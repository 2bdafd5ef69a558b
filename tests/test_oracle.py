"""Budget-constrained optimal head assignment.

The reference oracle enumerates every assignment (base-M integer
decoding), so it shares no code with the sort-based solver under test."""

import math

import numpy as np
import pytest

from eero.errors import InfeasibleBudget, InvalidSpec
from eero.oracle import (
    OracleInstance,
    build_correctness,
    oracle_curve,
    oracle_exact,
)
from eero.scoring import ScoreSpec
from conftest import random_bank


def enumerate_best(correctness, costs, budget):
    """Try all M^T assignments; return (best accuracy, its minimal cost)."""
    t, m = correctness.shape
    best_correct = -1
    best_cost = np.inf
    for code in range(m**t):
        c = code
        correct = 0
        cost = 0.0
        for i in range(t):
            h = c % m
            c //= m
            correct += int(correctness[i, h])
            cost += costs[h]
        feasible = cost <= budget * (1.0 + 1e-12)
        if feasible and (correct > best_correct or (correct == best_correct and cost < best_cost)):
            best_correct = correct
            best_cost = cost
    if best_correct < 0:
        return None
    return best_correct / t, best_cost


def assert_matches_enumeration(corr, costs, budget):
    res = oracle_exact(OracleInstance(correctness=corr, costs=costs, budget=budget))
    expect = enumerate_best(corr, costs, budget)
    assert res.accuracy == pytest.approx(expect[0], abs=1e-12)
    assert res.cost == pytest.approx(expect[1], rel=1e-9)
    # the assignment recomputes to the reported numbers
    a = res.assignment - 1
    assert np.mean(corr[np.arange(corr.shape[0]), a]) == res.accuracy
    assert math.fsum(costs[a]) == res.cost
    return res


def test_hand_case_two_instances():
    corr = np.array([[0, 1], [1, 1]], dtype=bool)
    inst = OracleInstance(correctness=corr, costs=np.array([1.0, 2.0]), budget=3.0)
    res = oracle_exact(inst)
    assert np.array_equal(res.assignment, [2, 1])
    assert res.accuracy == 1.0
    assert res.cost == 3.0


def test_unconstrained_optimum_all_last_head():
    rng = np.random.default_rng(0)
    t = 50
    corr = np.zeros((t, 3), dtype=bool)
    corr[:, 2] = True
    corr[:, 0] = rng.random(t) < 0.3
    costs = np.array([1.0, 2.0, 3.0])
    inst = OracleInstance(correctness=corr, costs=costs, budget=t * 3.0)
    res = oracle_exact(inst)
    assert res.accuracy == 1.0
    assert np.all(corr[np.arange(t), res.assignment - 1])


def test_all_wrong_cost_minimal_tie_break():
    corr = np.zeros((4, 3), dtype=bool)
    inst = OracleInstance(correctness=corr, costs=np.array([1.0, 2.0, 3.0]),
                          budget=12.0)
    res = oracle_exact(inst)
    assert res.accuracy == 0.0
    assert np.array_equal(res.assignment, [1, 1, 1, 1])
    assert res.cost == 4.0


def test_infeasible_budget():
    corr = np.ones((3, 2), dtype=bool)
    with pytest.raises(InfeasibleBudget):
        oracle_exact(OracleInstance(correctness=corr, costs=np.array([1.0, 2.0]),
                                    budget=2.5))
    with pytest.raises(InfeasibleBudget):
        oracle_curve(corr, np.array([1.0, 2.0]), np.array([2.5, 6.0]))


def test_only_at_most_mode_and_positive_inputs():
    corr = np.array([[1, 0], [0, 1]], dtype=bool)
    costs = np.array([1.0, 2.0])
    # at most the budget is the only rule: there is no mode to pick
    with pytest.raises(TypeError):
        OracleInstance(correctness=corr, costs=costs, budget=3.0, mode="exact_budget")
    with pytest.raises(ValueError):  # InvalidSpec is also a ValueError
        OracleInstance(correctness=corr, costs=costs, budget=-3.0)
    with pytest.raises(InvalidSpec):
        OracleInstance(correctness=corr, costs=np.array([0.0, 2.0]), budget=3.0)


def test_decimal_costs_report_exact_cost():
    # 3 * 1.6 + 2 * 1.0 is 6.8 in decimal but rounds above 6.8 in binary;
    # the budget still admits it, and the cost is the assignment's fsum
    corr = np.array([[0, 1, 1], [0, 1, 0], [0, 1, 0], [1, 0, 0], [1, 1, 1]], dtype=bool)
    costs = np.array([1.0, 1.6, 2.4])
    res = assert_matches_enumeration(corr, costs, 6.8)
    assert res.accuracy == 1.0
    assert np.array_equal(res.assignment, [2, 2, 2, 1, 1])
    assert res.cost == math.fsum([1.6, 1.6, 1.6, 1.0, 1.0])


def test_fine_cost_gaps_need_no_grid():
    # a 1e-9 cost gap would need 1e9 units on any decimal cost grid
    corr = np.array([[0, 1, 1], [0, 1, 1], [0, 1, 1], [0, 0, 1]], dtype=bool)
    costs = np.array([1.0, 1.0 + 1e-9, 5.0])
    res = assert_matches_enumeration(corr, costs, 4.0 + 2.5e-9)
    assert np.array_equal(res.assignment, [2, 2, 1, 1])
    assert res.accuracy == 0.5


def test_dp_matches_enumeration_random(rng):
    for trial in range(90):
        t = int(rng.integers(1, 8))
        m = int(rng.integers(2, 5))
        corr = rng.random((t, m)) < rng.uniform(0.2, 0.8)
        steps = np.cumsum(rng.integers(1, 5, size=m)).astype(float)
        if trial % 3 == 0:
            costs = np.sort(rng.uniform(0.5, 3.0, size=m))
            costs += np.arange(m) * 1e-3  # enforce strict increase
        elif trial % 3 == 1:
            costs = steps
        else:
            # non-decimal costs: no decimal grid represents them exactly
            costs = np.pi * steps
        if trial % 2:
            # a total some assignment attains exactly
            budget = float(costs[rng.integers(0, m, size=t)].sum())
        else:
            budget = float(rng.uniform(t * costs[0], t * costs[-1] * 1.1))
        res = assert_matches_enumeration(corr, costs, budget)
        assert res.cost <= budget * (1.0 + 1e-9)


def test_canonical_tie_break():
    # heads 2 and 3 tie on cost; instances 0-2 all have raise 1.0
    corr = np.array(
        [
            [0, 0, 1, 0],
            [0, 1, 1, 0],
            [0, 0, 1, 1],
            [0, 0, 0, 1],
            [0, 0, 0, 0],
        ],
        dtype=bool,
    )
    costs = np.array([1.0, 2.0, 2.0, 3.0])
    res = assert_matches_enumeration(corr, costs, 7.0)
    # the earliest equal raises win; in the cost tie the lower index wins
    assert np.array_equal(res.assignment, [3, 2, 1, 1, 1])
    assert res.cost == 7.0
    # a cost tie at the cheapest head: a correct twin costs no raise, and
    # an instance no head gets right stays at the lower index
    corr = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 1]], dtype=bool)
    costs = np.array([1.0, 1.0, 2.0])
    res = assert_matches_enumeration(corr, costs, 3.0)
    assert np.array_equal(res.assignment, [2, 1, 1])


def test_crafted_case_matches_enumeration():
    # a cheap +1 raise on instance 0 next to dearer raises on 1 and 2
    corr = np.array(
        [
            [0, 1, 1],
            [0, 0, 1],
            [0, 0, 1],
        ],
        dtype=bool,
    )
    costs = np.array([1.0, 1.5, 4.0])
    res = assert_matches_enumeration(corr, costs, 9.0)
    assert np.array_equal(res.assignment, [2, 3, 1])
    assert res.accuracy == pytest.approx(2 / 3)
    assert res.cost == 6.5


def test_curve_matches_enumeration(rng):
    for _ in range(20):
        t = int(rng.integers(1, 6))
        m = int(rng.integers(2, 4))
        corr = rng.random((t, m)) < 0.5
        costs = np.pi * np.cumsum(rng.integers(1, 4, size=m))
        budgets = np.linspace(t * costs[0], t * costs[-1], 7)
        for (acc, consumed), b in zip(oracle_curve(corr, costs, budgets), budgets):
            expect = enumerate_best(corr, costs, b)
            assert acc == pytest.approx(expect[0], abs=1e-12)
            assert consumed == pytest.approx(expect[1], rel=1e-9)


def test_oracle_monotone_in_budget(rng):
    t, m = 40, 4
    corr = rng.random((t, m)) < np.linspace(0.4, 0.9, m)
    costs = np.array([1.0, 2.0, 3.0, 4.0])
    budgets = np.linspace(t * 1.0, t * 4.0, 12)
    accs = []
    for b in budgets:
        res = oracle_exact(OracleInstance(correctness=corr, costs=costs,
                                          budget=float(b)))
        accs.append(res.accuracy)
    assert np.all(np.diff(accs) >= 0.0)


def test_oracle_curve_matches_pointwise(rng):
    t, m = 30, 3
    corr = rng.random((t, m)) < np.array([0.5, 0.7, 0.9])
    costs = np.array([1.0, 2.0, 3.5])
    budgets = np.linspace(t * 1.0, t * 3.5, 8)
    curve = oracle_curve(corr, costs, budgets)
    assert len(curve) == budgets.size
    for (acc, consumed), b in zip(curve, budgets):
        res = oracle_exact(OracleInstance(correctness=corr, costs=costs,
                                          budget=float(b)))
        assert acc == pytest.approx(res.accuracy, abs=1e-12)
        assert consumed <= b * (1.0 + 1e-9)
        assert consumed == pytest.approx(res.cost, rel=1e-9, abs=1e-9)
    assert np.all(np.diff([a for a, _ in curve]) >= 0.0)


def test_build_correctness_conventions(rng):
    bank = random_bank(rng, n=50, m=3, k=4, budgets=[1.0, 2.0, 3.0])
    labels = rng.integers(0, 4, size=50)
    corr = build_correctness(bank, labels)
    assert corr.shape == (50, 3)
    assert corr.dtype == bool
    # unjittered argmax by default
    for ell in range(3):
        expect = bank.heads[ell].probs.argmax(axis=1) == labels
        assert np.array_equal(corr[:, ell], expect)
    # jittered variant may differ but stays near the raw one
    corr_j = build_correctness(bank, labels, spec=ScoreSpec(jitter_u=1e-5, seed=1))
    assert np.mean(corr_j != corr) < 0.05


def test_long_instance_exchange_optimal(rng):
    # too large to enumerate: check the exchange argument instead
    t, m = 5_000, 4
    corr = rng.random((t, m)) < np.linspace(0.5, 0.85, m)
    costs = np.array([1.0, 1.6, 2.4, 3.4])
    budget = t * 2.0
    res = oracle_exact(OracleInstance(correctness=corr, costs=costs, budget=budget))
    a = res.assignment - 1
    raisable = corr.any(axis=1)
    first = np.argmax(corr, axis=1)
    raises = costs[first] - costs[0]
    raised = a != 0
    # raised instances go to their cheapest correct head, the rest stay cheap
    assert np.array_equal(a[raised], first[raised])
    correct_here = corr[np.arange(t), a]
    assert np.array_equal(correct_here, raised | corr[:, 0])
    left = raisable & ~correct_here
    # no cheaper raise was skipped, and the next one does not fit
    if left.any() and raised.any():
        assert raises[raised].max() <= raises[left].min()
    assert res.cost <= budget
    if left.any():
        assert res.cost + raises[left].min() > budget
    assert res.accuracy == np.mean(correct_here)
