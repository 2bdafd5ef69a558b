"""Construction-time validation of the core value types."""

import numpy as np
import pytest

from eero.allocation import AllocationProblem, default_prior, single_head_rate
from eero.domain import (
    AllocationResult,
    BatchResult,
    BudgetSpec,
    ExitPolicy,
    HeadBank,
    HeadSlice,
)
from eero.errors import (
    InfeasibleBudget,
    InvalidSpec,
    NonIncreasingBudgets,
    NotOnSimplex,
    RowNotNormalized,
    ShapeMismatch,
)
from eero.oracle import OracleInstance, oracle_curve, oracle_exact
from conftest import make_bank, make_slice


def test_well_formed_bank_accepted():
    bank = make_bank(
        [[[0.5, 0.5], [0.2, 0.8]], [[0.9, 0.1], [0.4, 0.6]]],
        budgets=[1.0, 2.0],
    )
    assert bank.num_heads == 2
    assert bank.num_classes == 2
    assert bank.num_instances == 2


def test_non_increasing_budgets_rejected():
    with pytest.raises(NonIncreasingBudgets):
        make_bank([[[0.5, 0.5]], [[0.5, 0.5]]], budgets=[2.0, 1.0])
    with pytest.raises(NonIncreasingBudgets):
        make_bank([[[0.5, 0.5]], [[0.5, 0.5]]], budgets=[1.0, 1.0])


def test_unnormalized_row_rejected():
    with pytest.raises(RowNotNormalized):
        make_slice([[0.5, 0.6]], 1.0)
    with pytest.raises(RowNotNormalized):
        make_slice([[1.2, -0.2]], 1.0)
    with pytest.raises(RowNotNormalized):
        make_slice([[np.nan, 1.0]], 1.0)


def test_row_tolerance_and_renormalization():
    # off by less than 1e-6: accepted and renormalized to exact unit sum
    row = np.array([[0.5 + 2e-7, 0.5]])
    s = make_slice(row, 1.0)
    assert abs(s.probs.sum() - 1.0) < 1e-15


def test_clean_rows_survive_bitwise():
    row = np.array([[0.1, 0.2, 0.7]])
    s = make_slice(row, 1.0)
    assert np.array_equal(s.probs, row)


def test_shape_mismatch_between_heads():
    with pytest.raises(ShapeMismatch):
        make_bank(
            [[[0.5, 0.5]], [[0.3, 0.3, 0.4]]],
            budgets=[1.0, 2.0],
        )


def test_single_head_bank_rejected():
    with pytest.raises(ShapeMismatch):
        HeadBank(heads=(make_slice([[0.5, 0.5]], 1.0),))


def test_bank_is_immutable():
    bank = make_bank([[[0.5, 0.5]], [[0.4, 0.6]]], budgets=[1.0, 2.0])
    with pytest.raises(ValueError):
        bank.heads[0].probs[0, 0] = 0.9
    with pytest.raises(ValueError):
        bank.budgets[0] = 5.0


def test_risk_bounds():
    make_slice([[0.5, 0.5]], 1.0, risk=0.0)
    make_slice([[0.5, 0.5]], 1.0, risk=1.0)
    with pytest.raises(ValueError):
        make_slice([[0.5, 0.5]], 1.0, risk=1.5)
    bank = make_bank([[[0.5, 0.5]], [[0.4, 0.6]]], [1.0, 2.0], risks=[0.2, None])
    assert bank.risks is None


def test_budget_spec():
    spec = BudgetSpec(total_budget=300.0, batch_size=100)
    assert spec.mean_budget == 3.0
    with pytest.raises(ValueError):
        BudgetSpec(total_budget=-1.0, batch_size=10)
    with pytest.raises(ValueError):
        BudgetSpec(total_budget=1.0, batch_size=0)
    bank = make_bank([[[0.5, 0.5]], [[0.4, 0.6]]], budgets=[2.0, 4.0])
    with pytest.raises(InfeasibleBudget):
        BudgetSpec(total_budget=1.0, batch_size=1).validate_for(bank)
    BudgetSpec(total_budget=2.0, batch_size=1).validate_for(bank)


@pytest.mark.parametrize(
    "total, batch_size",
    [(np.inf, 10), (np.nan, 10), (10.0, 2.5), (10.0, np.float64(0.9)), (10.0, np.inf)],
)
def test_budget_spec_rejects_infinite_totals_and_fractional_batches(total, batch_size):
    with pytest.raises(InvalidSpec):
        BudgetSpec(total_budget=total, batch_size=batch_size)


def test_budget_spec_accepts_integral_floats():
    assert BudgetSpec(total_budget=10.0, batch_size=5.0).batch_size == 5


@pytest.mark.parametrize(
    "total, fits",
    [(6.0, True), (6.0 * (1.0 - 5e-13), True), (6.0 * (1.0 - 2e-12), False), (5.9999999994, False)],
)
def test_every_feasibility_check_applies_the_one_rule(total, fits):
    # 6 instances whose cheapest head costs 1.0 need a total of 6.0
    budgets = np.array([1.0, 3.0])
    bank = make_bank([[[0.5, 0.5]] * 6, [[0.4, 0.6]] * 6], budgets=list(budgets))
    corr = np.ones((6, 2), dtype=bool)
    checks = [
        lambda: BudgetSpec(total_budget=total, batch_size=6).validate_for(bank),
        lambda: AllocationProblem(
            risks=np.array([0.5, 0.1]), budgets=budgets, prior=default_prior(budgets),
            beta=0.1, mean_budget=total / 6,
        ),
        lambda: oracle_exact(OracleInstance(correctness=corr, costs=budgets, budget=total)),
        lambda: oracle_curve(corr, budgets, np.array([total, 18.0])),
        lambda: single_head_rate(1.0, 3.0, total, 6),
    ]
    for check in checks:
        if fits:
            check()
        else:
            with pytest.raises(InfeasibleBudget, match="cheapest head"):
                check()


def test_allocation_result_invariants():
    ok = AllocationResult(
        epsilons=np.array([0.8, 0.2]),
        multiplier=0.0,
        expected_budget=1.2,
        kl_to_prior=0.1,
        saturated=False,
    )
    assert ok.epsilons.sum() == 1.0
    for bad in ([0.8, 0.1], [np.nan, np.nan], [np.nan, 1.0]):
        with pytest.raises(NotOnSimplex):
            AllocationResult(
                epsilons=np.array(bad),
                multiplier=0.0,
                expected_budget=1.0,
                kl_to_prior=0.0,
                saturated=False,
            )
    with pytest.raises(ValueError):
        AllocationResult(
            epsilons=np.array([1.0, 0.0]),
            multiplier=1.0,
            expected_budget=1.0,
            kl_to_prior=0.0,
            saturated=False,  # contradicts positive multiplier
        )


def test_exit_policy_invariants():
    ExitPolicy(
        score_kind="breaking_ties",
        jitter_u=1e-5,
        seed=0,
        seq_rates=np.array([0.5, 1.0]),
        thresholds=np.array([0.25, -np.inf]),
        calibration_size=10,
    )
    with pytest.raises(ValueError):
        ExitPolicy(
            score_kind="breaking_ties",
            jitter_u=1e-5,
            seed=0,
            seq_rates=np.array([0.5, 0.9]),  # last must be exactly 1
            thresholds=np.array([0.25, -np.inf]),
            calibration_size=10,
        )
    with pytest.raises(ValueError):
        ExitPolicy(
            score_kind="breaking_ties",
            jitter_u=1e-5,
            seed=0,
            seq_rates=np.array([0.7, 0.5, 1.0]),  # decreasing
            thresholds=np.array([0.1, 0.2, -np.inf]),
            calibration_size=10,
        )


@pytest.mark.parametrize("field, value", [("seed", 0.9), ("seed", np.inf), ("calibration_size", 2.5)])
def test_exit_policy_rejects_fractional_integer_fields(field, value):
    fields = dict(
        score_kind="breaking_ties",
        jitter_u=1e-5,
        seed=0,
        seq_rates=np.array([0.5, 1.0]),
        thresholds=np.array([0.25, -np.inf]),
        calibration_size=10,
    )
    with pytest.raises(ValueError, match="must be an integer"):
        ExitPolicy(**{**fields, field: value})


def test_batch_result_invariants():
    res = BatchResult(
        exits=np.array([1, 2, 1]),
        predictions=np.array([1, 2, 2]),
        per_instance_cost=np.array([1.0, 2.0, 1.0]),
        consumed_budget=4.0,
        exit_proportions=np.array([2 / 3, 1 / 3]),
        accuracy=None,
    )
    assert res.batch_size == 3
    with pytest.raises(ValueError):
        BatchResult(
            exits=np.array([1, 2, 1]),
            predictions=np.array([1, 2, 2]),
            per_instance_cost=np.array([1.0, 2.0, 1.0]),
            consumed_budget=9.0,  # does not match the cost vector
            exit_proportions=np.array([2 / 3, 1 / 3]),
            accuracy=None,
        )
    with pytest.raises(NotOnSimplex):
        BatchResult(
            exits=np.array([1]),
            predictions=np.array([1]),
            per_instance_cost=np.array([1.0]),
            consumed_budget=1.0,
            exit_proportions=np.array([0.5, 0.4]),
            accuracy=None,
        )
