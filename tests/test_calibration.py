"""Empirical score CDFs, quantile thresholds, sequential rates, and
policy assembly. Reference implementations here are deliberately naive
(linear scans, direct inequality checks) to stay independent of the
library's binary-search paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eero.allocation import AllocationResult  # re-exported dataclass path
from eero.calibration import (
    ScoreCdf,
    build_cdf,
    build_policy,
    cdf_eval,
    sequential_rates,
    threshold_for_rate,
)
from eero.errors import EmptyCalibration, HeadCountMismatch, NotOnSimplex
from eero.scoring import CALIBRATION_KEY_BASE, ScoreSpec, jitter_matrix, score_matrix
from conftest import make_bank


def _cdf_linear(scores, t):
    return float(np.sum(np.asarray(scores) <= t)) / len(scores)


def test_cdf_sorts_and_counts():
    cdf = ScoreCdf(sorted_scores=np.sort(np.array([0.9, 0.1, 0.5])), head=0)
    assert np.array_equal(cdf.sorted_scores, [0.1, 0.5, 0.9])
    assert cdf_eval(cdf, 0.5) == pytest.approx(2 / 3, rel=1e-15)
    assert cdf_eval(cdf, 0.0) == 0.0
    assert cdf_eval(cdf, 1.0) == 1.0
    assert cdf_eval(cdf, np.inf) == 1.0


def test_cdf_single_point():
    cdf = ScoreCdf(sorted_scores=np.array([0.4]), head=2)
    assert cdf_eval(cdf, 0.39) == 0.0
    assert cdf_eval(cdf, 0.4) == 1.0


def test_cdf_rejects_empty_sorts_unsorted():
    with pytest.raises(EmptyCalibration):
        ScoreCdf(sorted_scores=np.array([]), head=0)
    with pytest.raises(ValueError):
        ScoreCdf(sorted_scores=np.array([0.5, np.nan]), head=0)
    cdf = ScoreCdf(sorted_scores=np.array([0.5, 0.1]), head=0)
    assert np.array_equal(cdf.sorted_scores, [0.1, 0.5])


def test_cdf_matches_linear_scan(rng):
    scores = rng.normal(size=500)
    cdf = ScoreCdf(sorted_scores=np.sort(scores), head=0)
    for t in rng.normal(size=1_000):
        assert cdf_eval(cdf, t) == _cdf_linear(scores, t)


def test_cdf_at_sample_points_is_rank(rng):
    scores = np.sort(rng.normal(size=1_000))
    cdf = ScoreCdf(sorted_scores=scores, head=0)
    # distinct with probability 1; rank/N at each sample point
    for idx in (0, 1, 499, 998, 999):
        assert cdf_eval(cdf, scores[idx]) == (idx + 1) / 1_000


def test_threshold_hand_case():
    cdf = ScoreCdf(sorted_scores=np.array([0.1, 0.2, 0.3, 0.4]), head=0)
    thr = threshold_for_rate(cdf, 0.5)
    assert thr == 0.2
    assert cdf_eval(cdf, thr) >= 1 - 0.5


def test_threshold_full_rate_is_neg_inf():
    cdf = ScoreCdf(sorted_scores=np.array([0.1, 0.2]), head=0)
    assert threshold_for_rate(cdf, 1.0) == -np.inf


def test_threshold_is_smallest_qualifying_sample(rng):
    scores = np.sort(rng.uniform(size=200))
    cdf = ScoreCdf(sorted_scores=scores, head=0)
    for rate in (0.0, 0.05, 0.37, 0.5, 0.91, 0.999):
        thr = threshold_for_rate(cdf, rate)
        assert _cdf_linear(scores, thr) >= 1 - rate
        below = scores[scores < thr]
        if below.size:
            assert _cdf_linear(scores, below.max()) < 1 - rate


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=300), st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=0, max_value=2**32))
def test_threshold_decision_equals_cdf_inequality(n, rate, seed):
    rng = np.random.default_rng(seed)
    scores = np.sort(rng.normal(size=n))
    # duplicates must not break the equivalence
    scores[rng.integers(0, n)] = scores[0]
    scores = np.sort(scores)
    cdf = ScoreCdf(sorted_scores=scores, head=0)
    thr = threshold_for_rate(cdf, rate)
    probes = np.concatenate([rng.normal(size=64), scores[:32]])
    for s in probes:
        via_threshold = s >= thr
        via_cdf = cdf_eval(cdf, s) >= 1.0 - rate
        assert via_threshold == via_cdf


def test_sequential_rates_single_entry():
    assert np.array_equal(sequential_rates(np.array([1.0]), 50), [1.0])


def test_sequential_rates_hand_corrected():
    out = sequential_rates(np.array([0.5, 0.5]), 100)
    assert out[0] == pytest.approx(0.55, rel=1e-15)
    assert out[1] == 1.0


def test_sequential_rates_monotone_and_clipped(rng):
    for _ in range(50):
        m = int(rng.integers(1, 12))
        eps = rng.dirichlet(np.ones(m))
        n = int(rng.integers(1, 10_000))
        out = sequential_rates(eps, n)
        assert np.all(np.diff(out) >= 0.0)
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert out[-1] == 1.0


def test_sequential_rates_requires_simplex():
    with pytest.raises(NotOnSimplex):
        sequential_rates(np.array([0.2, 0.2]), 100)


def _calib_bank(rng, n=400, m=3, k=5):
    probs = rng.dirichlet(np.ones(k), size=(m, n))
    return make_bank([probs[i] for i in range(m)], budgets=[1.0, 2.0, 3.0][:m])


def test_build_cdf_uses_calibration_keys(rng):
    bank = _calib_bank(rng)
    spec = ScoreSpec(kind="breaking_ties", jitter_u=1e-5, seed=3)
    cdf = build_cdf(bank, 1, spec)
    keys = CALIBRATION_KEY_BASE + np.arange(bank.num_instances, dtype=np.uint64)
    jit = jitter_matrix(bank.heads[1].probs, 1, keys, spec)
    expect = np.sort(score_matrix(jit, "breaking_ties"))
    assert np.array_equal(cdf.sorted_scores, expect)


def test_build_policy_fields_and_threshold_consistency(rng):
    bank = _calib_bank(rng)
    alloc = AllocationResult(
        epsilons=np.array([0.3, 0.3, 0.4]),
        multiplier=0.0,
        expected_budget=2.0,
        kl_to_prior=0.0,
        saturated=False,
    )
    spec = ScoreSpec(kind="max_prob", jitter_u=1e-5, seed=11)
    policy = build_policy(bank, alloc, spec)
    assert policy.score_kind == "max_prob"
    assert policy.seed == 11
    assert policy.calibration_size == bank.num_instances
    assert policy.num_heads == 3
    assert policy.seq_rates[-1] == 1.0
    assert policy.thresholds[-1] == -np.inf
    # larger sequential rate never means a strictly higher threshold
    order = np.argsort(policy.seq_rates)
    sorted_thr = policy.thresholds[order]
    assert np.all(np.diff(sorted_thr) <= 0.0)


def test_build_policy_head_count_mismatch(rng):
    bank = _calib_bank(rng, m=3)
    alloc = AllocationResult(
        epsilons=np.array([0.5, 0.5]),
        multiplier=0.0,
        expected_budget=1.5,
        kl_to_prior=0.0,
        saturated=False,
    )
    with pytest.raises(HeadCountMismatch):
        build_policy(bank, alloc, ScoreSpec())


def test_single_head_rejection_rate_controlled(rng):
    # one head used alone at rate eps: fresh-data reject fraction stays
    # within the concentration band around 1 - eps
    n = 1_000
    for eps in (0.2, 0.5, 0.8):
        devs = []
        for trial in range(50):
            calib = rng.normal(size=n)
            fresh = rng.normal(size=20_000)
            cdf = ScoreCdf(sorted_scores=np.sort(calib), head=0)
            thr = threshold_for_rate(cdf, eps)
            reject = float(np.mean(fresh < thr))
            devs.append(abs(reject - (1.0 - eps)))
        assert np.quantile(devs, 0.99) <= 3.0 / np.sqrt(n)


def test_cdf_uniform_on_held_out(rng):
    n = 1_000
    calib = np.sort(rng.normal(size=n))
    cdf = ScoreCdf(sorted_scores=calib, head=0)
    fresh = rng.normal(size=n)
    u = np.array([cdf_eval(cdf, s) for s in fresh])
    # Kolmogorov-Smirnov distance to the uniform CDF
    u_sorted = np.sort(u)
    grid = (np.arange(n) + 1) / n
    ks = np.max(np.abs(u_sorted - grid))
    assert ks <= 2.0 / np.sqrt(n)
