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


# ---------------------------------------------------------------------------
# the row-sum screen: HeadSlice must store and reject exactly as the exact
# per-row sums alone did, whatever bits the BLAS kernel's matvec gives

ULP = 2.0**-52


def _exact_probs(p):
    """The rows HeadSlice stores, by the exact per-row sums alone; raises as it does."""
    p = np.asarray(p, dtype=np.float64)
    sums = p.sum(axis=1)
    bad = np.abs(sums - 1.0) > 1e-6
    if bad.any():
        raise RowNotNormalized(f"row {int(np.argmax(bad))} sums to {sums[np.argmax(bad)]:.8f}")
    off = np.abs(sums - 1.0) > 1e-12
    if off.any():
        p = p.copy()
        p[off] /= sums[off, None]
    return p


def _outcome(make):
    """The stored probs or the (type, message) of the error that `make()` raises."""
    try:
        return make()
    except RowNotNormalized as e:
        return type(e), str(e)


def _assert_same_as_exact(p):
    """HeadSlice on `p` stores the bits, or raises the error, of `_exact_probs`."""
    got = _outcome(lambda: HeadSlice(probs=p, budget_gflops=1.0).probs)
    want = _outcome(lambda: _exact_probs(p))
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and got.tobytes() == want.tobytes()
    return want


def _rows(rng, n, k, sums):
    """n random non-negative rows of k classes; row i sums to about sums[i % len(sums)]."""
    base = rng.dirichlet(np.ones(k), size=n)
    target = np.resize(np.asarray(sums, dtype=np.float64), n)
    return base * (target / base.sum(axis=1))[:, None]


def _near(offset):
    """1 plus `offset`, and a few ulp to either side of it."""
    return [1.0 + offset + j * ULP for j in range(-4, 5)]


@pytest.mark.parametrize("k", [2, 3, 10, 64])
def test_row_sum_screen_keeps_rows_that_sum_to_one(rng, k):
    exact = np.zeros((64, k))
    exact[np.arange(64), rng.integers(0, k, 64)] = 1.0  # one-hot rows sum to 1 exactly
    halves = np.zeros((8, k))
    halves[:, :2] = 0.5
    for p in (exact, halves, _rows(rng, 500, k, [1.0])):
        assert isinstance(_assert_same_as_exact(p), np.ndarray)


@pytest.mark.parametrize("k", [2, 3, 10, 64])
@pytest.mark.parametrize("sign", [1, -1])
def test_row_sum_screen_near_the_renormalization_edge(rng, k, sign):
    p = _rows(rng, 2000, k, _near(sign * 1e-12))
    stored = _assert_same_as_exact(p)
    # rows on both sides of the edge: some are divided by their sums, some kept
    kept = np.all(stored == p, axis=1)
    assert kept.any() and not kept.all()


@pytest.mark.parametrize("k", [2, 3, 10, 64])
@pytest.mark.parametrize("sign", [1, -1])
def test_row_sum_screen_near_the_rejection_edge(rng, k, sign):
    outcomes = set()
    for offset in _near(sign * 1e-6):
        # clean rows with one row near the edge, and every row near it
        p = _rows(rng, 50, k, [1.0])
        p[rng.integers(0, 50)] = _rows(rng, 1, k, [offset])
        for q in (p, _rows(rng, 50, k, [offset])):
            outcomes.add(isinstance(_assert_same_as_exact(q), np.ndarray))
    assert outcomes == {True, False}  # some accepted, some rejected


@pytest.mark.parametrize("offset", [0.0, 1e-12, -1e-12, 1e-6, -1e-6])
def test_row_sum_screen_on_strided_rows(rng, offset):
    # as synth builds its heads: probs[:, head, :] of an (n, heads, classes) array
    n, m, k = 300, 4, 10
    probs = _rows(rng, n * m, k, [1.0] + _near(offset)).reshape(n, m, k)
    for head in range(m):
        view = probs[:, head, :]
        assert not view.flags.c_contiguous
        _assert_same_as_exact(view)


@pytest.mark.parametrize("k", [10, 64])
def test_row_sum_screen_leaves_room_for_the_matvec_rounding(rng, k):
    # only rows whose matvec sum lies within 1e-12 of 1; where the kernel rounds
    # unlike the exact sums, some of those lie further, and only the screen's
    # margin sends them to the exact sums
    p = _rows(rng, 20000, k, _near(1e-12) + _near(-1e-12))
    p = p[np.abs(p @ np.ones(k) - 1.0) <= 1e-12]
    _assert_same_as_exact(p)


@pytest.mark.parametrize("offset", [0.0, 1e-13, 1e-12, 1e-9])
def test_row_sum_screen_never_passes_for_very_many_classes(rng, offset):
    # K = 141 leaves no room inside 1e-12 for 64 * K ulp: every table takes the exact sums
    k = 141
    assert 1e-12 - 64 * k * 2.0**-53 < 0
    _assert_same_as_exact(_rows(rng, 200, k, _near(offset)))


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


_VALID = {
    HeadSlice: dict(probs=np.array([[0.5, 0.5]]), budget_gflops=1.0, risk=0.2),
    AllocationResult: dict(
        epsilons=np.array([0.8, 0.2]), multiplier=0.0, expected_budget=1.2,
        kl_to_prior=0.1, saturated=False,
    ),
    ExitPolicy: dict(
        score_kind="breaking_ties", jitter_u=1e-5, seed=0, seq_rates=np.array([0.5, 1.0]),
        thresholds=np.array([0.25, -np.inf]), calibration_size=10,
    ),
    BatchResult: dict(
        exits=np.array([1, 2, 1]), predictions=np.array([1, 2, 2]),
        per_instance_cost=np.array([1.0, 2.0, 1.0]), consumed_budget=4.0,
        exit_proportions=np.array([2 / 3, 1 / 3]), accuracy=0.5,
    ),
}


@pytest.mark.parametrize(
    "cls, bad",
    [
        (HeadSlice, dict(risk=1.5)),
        (AllocationResult, dict(multiplier=-1.0)),
        (AllocationResult, dict(multiplier=1.0)),  # contradicts saturated=False
        (AllocationResult, dict(kl_to_prior=-1.0)),
        (ExitPolicy, dict(seq_rates=np.array([0.7, 0.5, 1.0]), thresholds=np.zeros(3))),
        (ExitPolicy, dict(seq_rates=np.array([0.5, 0.9]))),
        (ExitPolicy, dict(thresholds=np.array([np.nan, -np.inf]))),
        (ExitPolicy, dict(calibration_size=0)),
        (BatchResult, dict(exits=np.array([0, 2, 1]))),
        (BatchResult, dict(consumed_budget=9.0)),
        (BatchResult, dict(accuracy=1.5)),
        (ExitPolicy, dict(seq_rates=np.array([np.nan, 1.0]))),
        (ExitPolicy, dict(seq_rates=np.array([0.2, np.nan, 1.0]), thresholds=np.zeros(3))),
    ],
)
def test_value_type_invariants_raise_invalid_spec(cls, bad):
    # each invariant fails with the documented error class, which is still a
    # ValueError; the valid record itself constructs
    cls(**_VALID[cls])
    with pytest.raises(InvalidSpec):
        cls(**{**_VALID[cls], **bad})
