"""Batch routing through calibrated thresholds.

The reference implementation here routes each instance with an explicit
per-head CDF inequality instead of precomputed thresholds; both paths
must make identical decisions."""

import dataclasses

import numpy as np
import pytest

from eero.calibration import build_policy
from eero.domain import BatchResult, BudgetSpec, ExitPolicy, HeadBank, HeadSlice
from eero.errors import HeadCountMismatch, LabelLengthMismatch
from eero.io import compute_risks
from eero import inference
from eero.inference import classify_batch, first_exceed, iter_classify, measure_budget
from eero.scoring import (
    _NARROW,
    BLOCK,
    CALIBRATION_KEY_BASE,
    SCORE_KINDS,
    TEST_KEY_BASE,
    ScoreSpec,
    jitter_matrix,
    predict_matrix,
    score_bank,
    score_matrix,
    score_rows,
)
from eero.allocation import AllocationProblem, AllocationResult, default_prior, solve_allocation
from eero.synth import default_spec, generate
from conftest import cdf_linear, make_bank, random_bank


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


def _route_by_cdf(bank, calib_scores, policy, spec):
    """Reference router: evaluate the CDF inequality head by head.

    The CDF of head l is a linear count over `calib_scores[l]`, that
    head's calibration scores.
    """
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
            if ell == m - 1 or cdf_linear(calib_scores[ell], s) >= 1.0 - policy.seq_rates[ell]:
                exits[i] = ell + 1
                preds[i] = int(predict_matrix(bank.heads[ell].probs[i : i + 1])[0]) + 1
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
    keys = CALIBRATION_KEY_BASE + np.arange(calib.num_instances, dtype=np.uint64)
    calib_scores = [
        score_matrix(jitter_matrix(calib.heads[ell].probs, ell, keys, spec), spec.kind)
        for ell in range(2)
    ]
    exits, preds = _route_by_cdf(test, calib_scores, policy, spec)
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
        preds[:, head] = predict_matrix(bank.heads[head].probs)
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


@pytest.mark.parametrize("kind", SCORE_KINDS)
@pytest.mark.parametrize("jitter", [0.0, 1e-5])
def test_first_exceed_equals_route(rng, kind, jitter):
    # one cached score matrix routes every policy exactly as the cascade does
    bank = random_bank(rng, n=400, m=4, k=5, budgets=[1.0, 2.0, 3.5, 5.0])
    tied = bank.heads[1].probs.copy()
    tied[:40] = 1.0 / 5
    heads = list(bank.heads)
    heads[1] = HeadSlice(probs=tied, budget_gflops=2.0)
    bank = HeadBank(heads=tuple(heads))
    spec = ScoreSpec(kind=kind, jitter_u=jitter, seed=11)
    scores = score_bank(bank, TEST_KEY_BASE, spec)
    for thresholds in (
        _mid_thresholds(bank, spec, [0.7, 0.5, 0.3]),
        _mid_thresholds(bank, spec, [0.1, 0.9, 0.5]),
        # thresholds equal to scores: an instance at its head's threshold leaves
        np.append(scores[[0, 1, 2], [205, 17, 290]], -np.inf),
        np.full(4, -np.inf),
        np.array([np.inf, np.inf, np.inf, -np.inf]),
    ):
        policy = _policy(thresholds, seq_rates=[0.3, 0.6, 0.8, 1.0], kind=kind, jitter=jitter, seed=11)
        exits, _ = inference._route(bank, policy, spec, 0, 400)
        assert np.array_equal(first_exceed(scores, policy.thresholds), exits)


def test_first_exceed_single_head():
    assert np.array_equal(first_exceed(np.empty((0, 3)), [-np.inf]), [0, 0, 0])


def test_route_windows_equal_whole_bank(rng):
    bank = random_bank(rng, n=301, m=3, k=4, budgets=[1.0, 2.0, 4.0])
    # exact ties: these rows score only their jitter, keyed by the global row
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
    scored, predicted = [], []

    def counted_scores(probs, rows, keys, head, spec):
        scored.append((head, rows.tolist(), np.asarray(keys).tolist(), probs[rows].tobytes()))
        return score_rows(probs, rows, keys, head, spec)

    def counted_predictions(probs):
        predicted.append(len(probs))
        return predict_matrix(probs)

    def reaching(exits, lo, hi):
        """One call per head that window [lo, hi) reaches: exactly the rows
        alive after heads 1..l-1, keyed by bank row; the last head is never
        scored, and the walk stops once no row is alive."""
        calls = []
        for head in range(m - 1):
            alive = np.flatnonzero(exits[lo:hi] > head)
            if alive.size == 0:
                break
            calls.append((head, alive.tolist(), (TEST_KEY_BASE + lo + alive).tolist(),
                          bank.heads[head].probs[lo + alive].tobytes()))
        return calls

    monkeypatch.setattr(inference, "score_rows", counted_scores)
    monkeypatch.setattr(inference, "predict_matrix", counted_predictions)
    policies = [_policy([0.5, 0.3, 0.1, -np.inf], seq_rates=[0.3, 0.6, 0.8, 1.0], jitter=1e-5, seed=8)]
    # a wide jitter, under every score kind
    for kind in SCORE_KINDS:
        spec = ScoreSpec(kind=kind, jitter_u=0.05, seed=8)
        thresholds = _mid_thresholds(bank, spec, [0.7, 0.5, 0.3])
        policies.append(_policy(thresholds, [0.3, 0.6, 0.8, 1.0], kind=kind, jitter=0.05, seed=8))
    for policy in policies:
        scored.clear()
        predicted.clear()
        res = classify_batch(bank, policy)
        assert np.array_equal(res.exits, _route_dense(bank, policy)[0])
        assert np.sum(res.exits == m) > 0
        assert scored == reaching(res.exits, 0, n)
        assert sum(len(c[1]) for c in scored) == int(np.minimum(res.exits, m - 1).sum()) < n * (m - 1)
        # argmax only for the rows that leave, once per head that some row leaves at
        assert predicted == [c for c in np.bincount(res.exits, minlength=m + 1)[1:] if c]
        # one-row windows score the same rows, each at its position 0 in the window
        scored.clear()
        assert [r[0] for r in iter_classify(bank, policy)] == res.exits.tolist()
        assert scored == [c for i in range(n) for c in reaching(res.exits, i, i + 1)]
    scored.clear()
    first = _policy(np.full(m, -np.inf), seq_rates=[1.0] * m)
    classify_batch(bank, first)
    assert [len(c[1]) for c in scored] == [n]  # nobody survives head 1: the walk stops there


@pytest.fixture(scope="module")
def large_default_data():
    data = generate(dataclasses.replace(default_spec(7), sizes=(2000, 1000, 50_000)))
    budgets = data.calib_bank.budgets
    allocation = solve_allocation(AllocationProblem(
        risks=compute_risks(data.train_bank, data.train_labels),
        budgets=budgets,
        prior=default_prior(budgets),
        beta=0.1,
        mean_budget=4.0,
    ))
    return data, allocation


@pytest.mark.parametrize("kind", SCORE_KINDS)
def test_large_bank_routes_as_first_exceed(large_default_data, monkeypatch, kind):
    # on a default-law batch large enough that scores land within a jitter
    # width of a threshold, routing still takes the cached scores' exits
    data, allocation = large_default_data
    spec = ScoreSpec(kind=kind, seed=7)
    policy = build_policy(data.calib_bank, allocation, spec)
    hashed = []

    def counted_scores(probs, rows, keys, head, spec):
        if spec.jitter_u:
            hashed.append(len(rows))
        return score_rows(probs, rows, keys, head, spec)

    monkeypatch.setattr(inference, "score_rows", counted_scores)
    res = classify_batch(data.test_bank, policy)
    monkeypatch.undo()
    scores = score_bank(data.test_bank, TEST_KEY_BASE, spec)
    assert np.array_equal(res.exits, first_exceed(scores, policy.thresholds) + 1)
    scored = int(np.minimum(res.exits, data.test_bank.num_heads - 1).sum())
    assert sum(hashed) == scored  # every row a head scores is hashed, once


@pytest.mark.parametrize("kind", SCORE_KINDS)
def test_routing_past_one_block_equals_per_row_reference(rng, kind):
    # a bank larger than one scoring block: the batch, windows that straddle
    # block edges and the lazy stream all equal a row-by-row reference
    n = BLOCK + 300
    bank = random_bank(rng, n=n, m=3, k=3, budgets=[1.0, 2.0, 4.0])
    spec = ScoreSpec(kind=kind, jitter_u=1e-5, seed=4)
    thresholds = _mid_thresholds(bank, spec, [0.6, 0.5])
    policy = _policy(thresholds, seq_rates=[0.4, 0.7, 1.0], kind=kind, jitter=1e-5, seed=4)
    res = classify_batch(bank, policy)
    assert np.bincount(res.exits, minlength=4)[1:].min() > 0
    exits = np.empty(n, dtype=np.int64)
    preds = np.empty(n, dtype=np.int64)
    for i in range(n):
        key = np.array([TEST_KEY_BASE + i], dtype=np.uint64)
        for head in range(3):
            row = bank.heads[head].probs[i : i + 1]
            score = score_matrix(jitter_matrix(row, head, key, spec), kind)[0]
            if head == 2 or score >= thresholds[head]:
                exits[i], preds[i] = head + 1, int(predict_matrix(row)[0]) + 1
                break
    assert np.array_equal(res.exits, exits)
    assert np.array_equal(res.predictions, preds)
    cuts = [0, 3, BLOCK + 4, BLOCK + 5, n]
    parts = [inference._route(bank, policy, spec, a, b) for a, b in zip(cuts, cuts[1:])]
    assert np.array_equal(np.concatenate([p[0] for p in parts]) + 1, exits)
    assert np.array_equal(np.concatenate([p[1] for p in parts]) + 1, preds)
    assert [r[:2] for r in iter_classify(bank, policy)] == list(zip(exits.tolist(), preds.tolist()))


def _assert_windows_route_as_cached_scores(bank, policy, windows):
    """Each window's exits are `first_exceed` of the bank's cached test
    scores, and its predictions the argmax at the exit head; returns the
    whole bank's 0-based exits."""
    spec = inference._pinned_spec(bank, policy)
    exits = first_exceed(score_bank(bank, TEST_KEY_BASE, spec), policy.thresholds)
    at_exit = np.stack([h.probs for h in bank.heads])[exits, np.arange(bank.num_instances)]
    preds = predict_matrix(at_exit)
    for lo, hi in windows:
        got_exits, got_preds = inference._route(bank, policy, spec, lo, hi)
        assert got_exits.tolist() == exits[lo:hi].tolist()
        assert got_preds.tolist() == preds[lo:hi].tolist()
    return exits


@pytest.mark.parametrize("kind", SCORE_KINDS)
def test_offset_windows_across_block_edges_route_as_cached_scores(rng, kind):
    # windows that start past row 0 and straddle scoring-block edges, and two
    # offset windows on either side of `_NARROW`, below which `score_rows`
    # hashes keys in Python ints; the jitter is wide enough that many rows of
    # every head score within it of their threshold, keyed by bank row
    n = 2 * BLOCK + 100
    bank = random_bank(rng, n=n, m=3, k=4, budgets=[1.0, 2.0, 4.0])
    spec = ScoreSpec(kind=kind, jitter_u=0.05, seed=9)
    thresholds = _mid_thresholds(bank, spec, [0.6, 0.5])
    policy = _policy(thresholds, seq_rates=[0.4, 0.7, 1.0], kind=kind, jitter=0.05, seed=9)
    windows = [
        (0, n), (1, BLOCK + 1), (BLOCK - 5, 2 * BLOCK + 7), (BLOCK + 3, n),
        (5, 5 + _NARROW - 1), (5, 5 + _NARROW),
    ]
    exits = _assert_windows_route_as_cached_scores(bank, policy, windows)
    assert np.bincount(exits, minlength=3).min() > 0


@pytest.mark.parametrize("kind", ["max_prob", "breaking_ties"])
def test_heads_where_no_row_or_a_whole_block_leaves(rng, kind):
    # no row leaves head 1 (threshold +inf), so head 2 gathers every row; its
    # second block is one-hot, scores at least 1 - u by either kind and leaves
    # whole; the jitter width u puts many rows of heads 2 and 3 within u of
    # their thresholds, where the jitter decides them
    n, k = 3 * BLOCK, 5
    bank = random_bank(rng, n=n, m=4, k=k, budgets=[1.0, 2.0, 3.0, 4.0])
    heads = list(bank.heads)
    one_hot = heads[1].probs.copy()
    one_hot[BLOCK : 2 * BLOCK] = np.eye(k)[rng.integers(k, size=BLOCK)]
    heads[1] = HeadSlice(probs=one_hot, budget_gflops=2.0)
    bank = HeadBank(heads=tuple(heads))
    spec = ScoreSpec(kind=kind, jitter_u=0.05, seed=2)
    thresholds = _mid_thresholds(bank, spec, [0.5, 0.5, 0.5])
    thresholds[:2] = np.inf, 0.9
    policy = _policy(thresholds, seq_rates=[0.3, 0.6, 0.8, 1.0], kind=kind, jitter=0.05, seed=2)
    exits = _assert_windows_route_as_cached_scores(bank, policy, [(0, n), (7, n - 2)])
    assert not np.any(exits == 0)
    assert np.all(exits[BLOCK : 2 * BLOCK] == 1)
    assert np.bincount(exits, minlength=4)[1:].min() > 0


@pytest.mark.parametrize("kind", ["max_prob", "breaking_ties"])
def test_first_head_band_rows_route_as_cached_scores(rng, kind):
    # rows spread over the first head's scoring blocks share one probability
    # row, so one unjittered score, and the threshold sits half a jitter width
    # above it, so only jitter decides them
    n, u = BLOCK + 500, 1e-5
    bank = random_bank(rng, n=n, m=3, k=4, budgets=[1.0, 2.0, 4.0])
    heads = list(bank.heads)
    probs = heads[0].probs.copy()
    shared = np.arange(5, n, 67)
    probs[shared] = probs[BLOCK + 17]
    heads[0] = HeadSlice(probs=probs, budget_gflops=1.0)
    bank = HeadBank(heads=tuple(heads))
    spec = ScoreSpec(kind=kind, jitter_u=u, seed=3)
    thresholds = _mid_thresholds(bank, spec, [0.5, 0.5])
    thresholds[0] = score_matrix(probs[BLOCK + 17 : BLOCK + 18], kind)[0] + u / 2
    policy = _policy(thresholds, seq_rates=[0.4, 0.7, 1.0], kind=kind, jitter=u, seed=3)
    windows = [(0, n), (3, BLOCK + 200), (BLOCK + 1, n)]
    exits = _assert_windows_route_as_cached_scores(bank, policy, windows)
    assert 0 < np.sum(exits[shared] == 0) < shared.size


@pytest.mark.parametrize("exit_head", [1, 2])
def test_tied_row_predicts_lowest_class(exit_head):
    # every row is tied at (0.5, 0.5) on the head where it exits
    bank = make_bank([[[0.5, 0.5]] * 4, [[0.5, 0.5]] * 4], budgets=[1.0, 2.0])
    first = -np.inf if exit_head == 1 else np.inf
    for seed in range(20):
        policy = _policy([first, -np.inf], seq_rates=[0.5, 1.0], jitter=1e-5, seed=seed)
        res = classify_batch(bank, policy)
        assert np.all(res.exits == exit_head)
        assert np.all(res.predictions == 1)
        assert [r[:2] for r in iter_classify(bank, policy)] == [(exit_head, 1)] * 4


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


def test_huge_jitter_neg_entropy_routes_without_warning():
    # scores overflow to infinity, which clears every threshold; the overflow
    # must not surface as a RuntimeWarning (the suite turns those into errors)
    bank = make_bank(
        [[[0.9, 0.1], [0.2, 0.8], [0.6, 0.4], [0.5, 0.5]]] * 2 + [[[0.5, 0.5]] * 4],
        budgets=[1.0, 2.0, 3.0],
    )
    policy = _policy([-0.3, -0.2, -np.inf], kind="neg_entropy", jitter=1e308)
    res = classify_batch(bank, policy)
    assert np.array_equal(res.exits, [1, 1, 1, 1])
    assert [exit for exit, _, _ in iter_classify(bank, policy)] == [1, 1, 1, 1]
