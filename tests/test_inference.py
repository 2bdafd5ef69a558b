"""Batch routing through calibrated thresholds.

The reference implementation here routes each instance with an explicit
per-head CDF inequality instead of precomputed thresholds; both paths
must make identical decisions."""

import numpy as np
import pytest

from eero.calibration import ScoreCdf, build_cdf, build_policy, cdf_eval
from eero.domain import BatchResult, BudgetSpec, ExitPolicy, HeadBank, HeadSlice
from eero.errors import HeadCountMismatch, LabelLengthMismatch
from eero import inference
from eero.inference import classify_batch, iter_classify, measure_budget
from eero.scoring import (
    SCORE_KINDS,
    TEST_KEY_BASE,
    ScoreSpec,
    jitter_matrix,
    predict_matrix,
    score_matrix,
)
from eero.allocation import AllocationResult
from conftest import make_bank, random_bank


def _policy(thresholds, seq_rates=None, kind="breaking_ties", jitter=0.0, seed=0, n=10):
    thresholds = np.asarray(thresholds, dtype=np.float64)
    m = thresholds.size
    if seq_rates is None:
        seq_rates = np.concatenate([np.linspace(0.5, 0.9, m - 1), [1.0]])
    return ExitPolicy(
        score_kind=kind,
        jitter_u=jitter,
        seed=seed,
        seq_rates=np.asarray(seq_rates, dtype=np.float64),
        thresholds=thresholds,
        calibration_size=n,
    )


def test_all_exit_first_head():
    bank = make_bank(
        [[[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]], [[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]]],
        budgets=[1.0, 3.0],
    )
    policy = _policy([-np.inf, -np.inf], seq_rates=[1.0, 1.0])
    res = classify_batch(bank, policy)
    assert np.array_equal(res.exits, [1, 1, 1])
    assert res.consumed_budget == 3 * 1.0
    assert np.array_equal(res.exit_proportions, [1.0, 0.0])
    assert res.accuracy is None


def test_all_exit_last_head():
    bank = make_bank(
        [[[0.9, 0.1], [0.2, 0.8]], [[0.7, 0.3], [0.1, 0.9]]],
        budgets=[1.0, 3.0],
    )
    # head-1 threshold above any attainable breaking-ties score
    policy = _policy([2.0, -np.inf], seq_rates=[0.0, 1.0])
    res = classify_batch(bank, policy)
    assert np.array_equal(res.exits, [2, 2])
    assert res.consumed_budget == 2 * 3.0
    assert np.array_equal(res.predictions, [1, 2])


def test_hand_routed_mixed_exits():
    # breaking-ties scores, no jitter: head1 gaps (0.8, 0.0, 0.2)
    bank = make_bank(
        [
            [[0.9, 0.1], [0.5, 0.5], [0.6, 0.4]],
            [[0.8, 0.2], [0.3, 0.7], [0.1, 0.9]],
        ],
        budgets=[1.0, 3.0],
    )
    policy = _policy([0.5, -np.inf], seq_rates=[0.5, 1.0])
    res = classify_batch(bank, policy, labels=np.array([0, 1, 1]))
    assert np.array_equal(res.exits, [1, 2, 2])
    assert np.array_equal(res.predictions, [1, 2, 2])
    assert np.array_equal(res.per_instance_cost, [1.0, 3.0, 3.0])
    assert res.consumed_budget == 7.0
    assert res.accuracy == pytest.approx(1.0)


def test_costs_are_exit_head_budget(rng):
    bank = random_bank(rng, n=200, m=4, k=6, budgets=[1.0, 2.0, 4.0, 8.0])
    alloc = AllocationResult(
        epsilons=np.array([0.4, 0.3, 0.2, 0.1]),
        multiplier=0.0,
        expected_budget=2.3,
        kl_to_prior=0.0,
        saturated=False,
    )
    spec = ScoreSpec(seed=5)
    policy = build_policy(bank, alloc, spec)
    res = classify_batch(bank, policy)
    assert np.array_equal(res.per_instance_cost, bank.budgets[res.exits - 1])
    assert res.consumed_budget == pytest.approx(res.per_instance_cost.sum(), rel=1e-15)


def _route_by_cdf(bank, cdfs, policy, spec):
    """Reference router: evaluate the CDF inequality head by head."""
    n = bank.num_instances
    m = bank.num_heads
    keys = TEST_KEY_BASE + np.arange(n, dtype=np.uint64)
    exits = np.zeros(n, dtype=int)
    preds = np.zeros(n, dtype=int)
    for i in range(n):
        for ell in range(m):
            jit = jitter_matrix(
                bank.heads[ell].probs[i : i + 1], ell, keys[i : i + 1], spec
            )
            s = float(score_matrix(jit, spec.kind)[0])
            ok = cdf_eval(cdfs[ell], s) >= 1.0 - policy.seq_rates[ell]
            if ok or ell == m - 1:
                exits[i] = ell + 1
                preds[i] = int(predict_matrix(jit)[0]) + 1
                break
    return exits, preds


def test_threshold_routing_equals_cdf_routing(rng):
    calib = random_bank(rng, n=300, m=3, k=4, budgets=[1.0, 2.0, 3.0])
    test = random_bank(rng, n=120, m=3, k=4, budgets=[1.0, 2.0, 3.0])
    alloc = AllocationResult(
        epsilons=np.array([0.35, 0.4, 0.25]),
        multiplier=0.0,
        expected_budget=1.9,
        kl_to_prior=0.0,
        saturated=False,
    )
    spec = ScoreSpec(kind="max_prob", jitter_u=1e-5, seed=17)
    policy = build_policy(calib, alloc, spec)
    res = classify_batch(test, policy)
    cdfs = [build_cdf(calib, ell, spec) for ell in range(3)]
    exits, preds = _route_by_cdf(test, cdfs, policy, spec)
    assert np.array_equal(res.exits, exits)
    assert np.array_equal(res.predictions, preds)


def test_iter_classify_matches_batch(rng):
    bank = random_bank(rng, n=80, m=3, k=5, budgets=[1.0, 2.5, 4.0])
    policy = _policy([0.3, 0.1, -np.inf], seq_rates=[0.3, 0.6, 1.0], jitter=1e-5, seed=2)
    res = classify_batch(bank, policy)
    rows = list(iter_classify(bank, policy))
    assert len(rows) == 80
    assert np.array_equal([r[0] for r in rows], res.exits)
    assert np.array_equal([r[1] for r in rows], res.predictions)
    assert np.allclose([r[2] for r in rows], res.per_instance_cost, rtol=0, atol=0)


def _route_dense(bank, policy):
    """Reference router: score every head for every instance, then scan."""
    spec = ScoreSpec(kind=policy.score_kind, jitter_u=policy.jitter_u, seed=policy.seed)
    n, m = bank.num_instances, bank.num_heads
    keys = TEST_KEY_BASE + np.arange(n, dtype=np.uint64)
    scores = np.empty((n, m))
    preds = np.empty((n, m), dtype=np.int64)
    for head in range(m):
        jittered = jitter_matrix(bank.heads[head].probs, head, keys, spec)
        scores[:, head] = score_matrix(jittered, spec.kind)
        preds[:, head] = predict_matrix(jittered)
    classify = scores >= policy.thresholds[None, :]
    classify[:, m - 1] = True
    exit_head = np.argmax(classify, axis=1)
    return exit_head + 1, preds[np.arange(n), exit_head] + 1


def _mid_thresholds(bank, spec, quantiles):
    """Thresholds at given quantiles of each head's own test scores."""
    keys = TEST_KEY_BASE + np.arange(bank.num_instances, dtype=np.uint64)
    thr = [
        np.quantile(score_matrix(jitter_matrix(h.probs, l, keys, spec), spec.kind), q)
        for l, (h, q) in enumerate(zip(bank.heads[:-1], quantiles))
    ]
    return np.array(thr + [-np.inf])


@pytest.mark.parametrize("kind", SCORE_KINDS)
@pytest.mark.parametrize("jitter", [0.0, 1e-5])
@pytest.mark.parametrize("mode", ["mixed", "all_first", "all_last"])
def test_cascade_equals_dense_scan(rng, kind, jitter, mode):
    bank = random_bank(rng, n=400, m=4, k=5, budgets=[1.0, 2.0, 3.5, 5.0])
    # ties in the raw rows, so that zero jitter leaves exact score ties
    tied = bank.heads[1].probs.copy()
    tied[:40] = 1.0 / 5
    heads = list(bank.heads)
    heads[1] = HeadSlice(probs=tied, budget_gflops=2.0)
    bank = HeadBank(heads=tuple(heads))
    spec = ScoreSpec(kind=kind, jitter_u=jitter, seed=11)
    if mode == "mixed":
        thresholds = _mid_thresholds(bank, spec, [0.7, 0.5, 0.3])
    elif mode == "all_first":
        thresholds = np.full(4, -np.inf)
    else:
        thresholds = np.array([np.inf, np.inf, np.inf, -np.inf])
    policy = _policy(thresholds, seq_rates=[0.3, 0.6, 0.8, 1.0], kind=kind, jitter=jitter, seed=11)
    labels = rng.integers(0, 5, size=400)
    res = classify_batch(bank, policy, labels=labels)
    exits, preds = _route_dense(bank, policy)
    assert np.array_equal(res.exits, exits)
    assert np.array_equal(res.predictions, preds)
    assert np.array_equal(res.per_instance_cost, bank.budgets[exits - 1])
    assert res.consumed_budget == float(bank.budgets[exits - 1].sum())
    assert np.array_equal(res.exit_proportions, np.bincount(exits - 1, minlength=4) / 400)
    assert res.accuracy == float(np.mean(preds - 1 == labels))
    if mode == "all_first":
        assert np.all(res.exits == 1)
    elif mode == "all_last":
        assert np.all(res.exits == 4)
    else:
        assert np.all(np.bincount(res.exits, minlength=5)[1:] > 0)


def test_route_windows_equal_whole_bank(rng):
    bank = random_bank(rng, n=301, m=3, k=4, budgets=[1.0, 2.0, 4.0])
    # exact ties: only the jitter, keyed by the global row, picks these classes
    bank = HeadBank(heads=tuple(
        HeadSlice(probs=np.where(np.arange(301)[:, None] % 3 == 0, 0.25, h.probs),
                  budget_gflops=h.budget_gflops)
        for h in bank.heads
    ))
    policy = _policy([0.3, 0.15, -np.inf], seq_rates=[0.4, 0.8, 1.0], jitter=1e-5, seed=6)
    spec = ScoreSpec(kind=policy.score_kind, jitter_u=policy.jitter_u, seed=policy.seed)
    exits, preds = inference._route(bank, policy, spec, 0, 301)
    assert np.bincount(exits, minlength=3).min() > 0
    cuts = [0, 1, 2, 50, 51, 200, 301]
    parts = [inference._route(bank, policy, spec, a, b) for a, b in zip(cuts, cuts[1:])]
    assert np.array_equal(np.concatenate([p[0] for p in parts]), exits)
    assert np.array_equal(np.concatenate([p[1] for p in parts]), preds)
    rows = list(iter_classify(bank, policy))
    assert [r[:2] for r in rows] == [(int(e) + 1, int(p) + 1) for e, p in zip(exits, preds)]


def test_each_head_scores_only_rows_that_reach_it(rng, monkeypatch):
    n, m = 500, 4
    bank = random_bank(rng, n=n, m=m, k=5, budgets=[1.0, 2.0, 3.0, 4.0])
    policy = _policy([0.5, 0.3, 0.1, -np.inf], seq_rates=[0.3, 0.6, 0.8, 1.0], jitter=1e-5, seed=8)
    calls = {"jitter": [], "score": [], "predict": []}

    def counting(name, fn):
        def wrapped(x, *args, **kwargs):
            calls[name].append(len(x))
            return fn(x, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(inference, "jitter_matrix", counting("jitter", jitter_matrix))
    monkeypatch.setattr(inference, "score_matrix", counting("score", score_matrix))
    monkeypatch.setattr(inference, "predict_matrix", counting("predict", predict_matrix))
    res = classify_batch(bank, policy)
    alive = [int(np.sum(res.exits > head)) for head in range(m)]
    reached = [a for a in alive if a > 0]
    assert calls["jitter"] == reached  # head l sees only the rows alive after l-1 heads
    assert sum(calls["jitter"]) == int(res.exits.sum()) < n * m
    assert calls["score"] == reached[: m - 1]  # the last head needs no score
    assert sum(calls["predict"]) == n  # argmax only for the rows that leave
    calls = {"jitter": [], "score": [], "predict": []}
    first = _policy(np.full(m, -np.inf), seq_rates=[1.0] * m)
    classify_batch(bank, first)
    assert calls["jitter"] == [n]  # nobody survives head 1: the walk stops there


def test_monotone_thresholds_reduce_exits(rng):
    bank = random_bank(rng, n=500, m=2, k=3, budgets=[1.0, 2.0])
    lo = _policy([0.1, -np.inf], seq_rates=[0.5, 1.0])
    hi = _policy([0.4, -np.inf], seq_rates=[0.5, 1.0])
    res_lo = classify_batch(bank, lo)
    res_hi = classify_batch(bank, hi)
    assert np.sum(res_hi.exits == 1) <= np.sum(res_lo.exits == 1)


def test_label_length_mismatch(rng):
    bank = random_bank(rng, n=10, m=2, k=3, budgets=[1.0, 2.0])
    policy = _policy([0.5, -np.inf], seq_rates=[0.5, 1.0])
    with pytest.raises(LabelLengthMismatch):
        classify_batch(bank, policy, labels=np.zeros(9, dtype=int))


def test_head_count_mismatch(rng):
    bank = random_bank(rng, n=10, m=3, k=3, budgets=[1.0, 2.0, 3.0])
    policy = _policy([0.5, -np.inf], seq_rates=[0.5, 1.0])
    with pytest.raises(HeadCountMismatch):
        classify_batch(bank, policy)


def test_measure_budget_report():
    bank = make_bank(
        [[[0.9, 0.1], [0.8, 0.2]], [[0.5, 0.5], [0.5, 0.5]]],
        budgets=[1.0, 2.0],
    )
    policy = _policy([-np.inf, -np.inf], seq_rates=[1.0, 1.0])
    res = classify_batch(bank, policy)
    spec = BudgetSpec(total_budget=2.0, batch_size=2)
    report = measure_budget(res, spec)
    assert report.allowed_budget == 2.0
    assert report.consumed_budget == 2.0
    assert report.utilization == 1.0
    assert report.within_budget
    loose = measure_budget(res, BudgetSpec(total_budget=100.0, batch_size=2))
    assert loose.utilization == pytest.approx(0.02, rel=1e-15)
    assert loose.within_budget


def test_measure_budget_admits_decimal_exact_total():
    # 3 * 1.6 is 4.8 in decimal; its float sum is 4.800000000000001
    res = BatchResult(
        exits=[2, 2, 2],
        predictions=[1, 1, 1],
        per_instance_cost=[1.6, 1.6, 1.6],
        consumed_budget=1.6 + 1.6 + 1.6,
        exit_proportions=[0.0, 1.0],
    )
    report = measure_budget(res, BudgetSpec(total_budget=4.8, batch_size=3))
    assert report.consumed_budget > report.allowed_budget
    assert report.within_budget


def test_determinism(rng):
    bank = random_bank(rng, n=64, m=3, k=4, budgets=[1.0, 2.0, 3.0])
    policy = _policy([0.2, 0.1, -np.inf], seq_rates=[0.4, 0.8, 1.0], jitter=1e-5, seed=99)
    a = classify_batch(bank, policy)
    b = classify_batch(bank, policy)
    assert np.array_equal(a.exits, b.exits)
    assert np.array_equal(a.predictions, b.predictions)
    assert a.consumed_budget == b.consumed_budget
