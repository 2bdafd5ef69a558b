"""Quantile thresholds on sorted calibration scores, sequential rates,
and policy assembly. Reference implementations here are deliberately
naive (linear scans, direct inequality checks) to stay independent of
the library's binary-search paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eero import scoring
from eero.allocation import AllocationResult  # re-exported dataclass path
from eero.calibration import (
    build_policy,
    calibration_scores,
    fit_thresholds,
    policy_from_scores,
    sequential_rates,
    threshold_for_rate,
)
from eero.errors import EmptyCalibration, HeadCountMismatch, InvalidSpec, NotOnSimplex
from eero.scoring import (
    CALIBRATION_KEY_BASE,
    SCORE_KINDS,
    ScoreSpec,
    jitter_matrix,
    score_matrix,
    score_rows,
)
from conftest import cdf_linear, make_bank


def _threshold_linear(scores, rate):
    """Smallest sample whose CDF value reaches 1 - rate, by a scan of every sample."""
    if rate >= 1.0:
        return -np.inf
    return min(s for s in scores if cdf_linear(scores, s) >= 1.0 - rate)


def test_cdf_sorts_and_counts():
    # sorted: 0.1, 0.3, 0.5, 0.9 with CDF values 1/4, 1/2, 3/4, 1
    scores = np.array([0.9, 0.1, 0.5, 0.3])
    assert threshold_for_rate(scores, 0.0) == 0.9
    assert threshold_for_rate(scores, 0.25) == 0.5
    assert threshold_for_rate(scores, 0.5) == 0.3
    assert threshold_for_rate(scores, 0.8) == 0.1
    assert threshold_for_rate(scores, 1.0) == -np.inf


def test_cdf_single_point():
    for rate in (0.0, 0.3, 0.999):
        assert threshold_for_rate(np.array([0.4]), rate) == 0.4
    assert threshold_for_rate(np.array([0.4]), 1.0) == -np.inf


def test_cdf_rejects_empty_sorts_unsorted():
    with pytest.raises(EmptyCalibration):
        threshold_for_rate(np.array([]), 0.5)
    with pytest.raises(EmptyCalibration):
        threshold_for_rate(np.zeros((2, 2)), 0.5)
    with pytest.raises(InvalidSpec):
        threshold_for_rate(np.array([0.5, np.nan]), 0.5)
    with pytest.raises(ValueError):
        threshold_for_rate(np.array([0.5]), 1.5)
    assert threshold_for_rate(np.array([0.5, 0.1]), 0.5) == 0.1


def test_cdf_matches_linear_scan(rng):
    scores = rng.normal(size=500)
    sorted_scores = np.sort(scores)
    for rate in rng.uniform(size=100):
        assert threshold_for_rate(sorted_scores, rate) == _threshold_linear(scores, rate)


def test_cdf_at_sample_points_is_rank(rng):
    # N = 1024 keeps rank / N and 1 - rank / N exact in binary
    n = 1_024
    scores = np.sort(rng.normal(size=n))
    for idx in (0, 1, 511, 1022, 1023):
        assert threshold_for_rate(scores, (n - 1 - idx) / n) == scores[idx]


def test_threshold_hand_case():
    scores = np.array([0.1, 0.2, 0.3, 0.4])
    thr = threshold_for_rate(scores, 0.5)
    assert thr == 0.2
    assert cdf_linear(scores, thr) >= 1 - 0.5


def test_threshold_full_rate_is_neg_inf():
    assert threshold_for_rate(np.array([0.1, 0.2]), 1.0) == -np.inf


def test_threshold_is_smallest_qualifying_sample(rng):
    scores = np.sort(rng.uniform(size=200))
    for rate in (0.0, 0.05, 0.37, 0.5, 0.91, 0.999):
        thr = threshold_for_rate(scores, rate)
        assert cdf_linear(scores, thr) >= 1 - rate
        below = scores[scores < thr]
        if below.size:
            assert cdf_linear(scores, below.max()) < 1 - rate


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=300), st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=0, max_value=2**32))
def test_threshold_decision_equals_cdf_inequality(n, rate, seed):
    rng = np.random.default_rng(seed)
    scores = np.sort(rng.normal(size=n))
    # duplicates must not break the equivalence
    scores[rng.integers(0, n)] = scores[0]
    scores = np.sort(scores)
    thr = threshold_for_rate(scores, rate)
    probes = np.concatenate([rng.normal(size=64), scores[:32]])
    for s in probes:
        via_threshold = s >= thr
        via_cdf = cdf_linear(scores, s) >= 1.0 - rate
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


def _alloc(epsilons):
    return AllocationResult(
        epsilons=np.asarray(epsilons, dtype=np.float64),
        multiplier=0.0,
        expected_budget=2.0,
        kl_to_prior=0.0,
        saturated=False,
    )


def test_build_policy_matches_linear_scan(rng):
    # each threshold is the linear-scan quantile of its head's calibration
    # scores, jittered with the calibration keys
    bank = _calib_bank(rng)
    keys = CALIBRATION_KEY_BASE + np.arange(bank.num_instances, dtype=np.uint64)
    for kind in SCORE_KINDS:
        for jitter in (0.0, 1e-5):
            spec = ScoreSpec(kind=kind, jitter_u=jitter, seed=3)
            policy = build_policy(bank, _alloc([0.3, 0.3, 0.4]), spec)
            for head in range(2):
                jit = jitter_matrix(bank.heads[head].probs, head, keys, spec)
                scores = score_matrix(jit, kind)
                rate = policy.seq_rates[head]
                assert policy.thresholds[head] == _threshold_linear(scores, rate), (kind, jitter)
            assert policy.thresholds[-1] == -np.inf


def test_build_policy_never_scores_the_final_head(rng, monkeypatch):
    bank = _calib_bank(rng, m=3)
    heads = []

    def counting(probs, rows, keys, head, spec):
        heads.append(head)
        return score_rows(probs, rows, keys, head, spec)

    monkeypatch.setattr(scoring, "score_rows", counting)
    build_policy(bank, _alloc([0.3, 0.3, 0.4]), ScoreSpec(jitter_u=0.0))
    assert heads == [0, 1]


def test_build_policy_fields_and_threshold_consistency(rng):
    bank = _calib_bank(rng)
    spec = ScoreSpec(kind="max_prob", jitter_u=1e-5, seed=11)
    policy = build_policy(bank, _alloc([0.3, 0.3, 0.4]), spec)
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
    with pytest.raises(HeadCountMismatch):
        build_policy(bank, _alloc([0.5, 0.5]), ScoreSpec())
    with pytest.raises(HeadCountMismatch):
        policy_from_scores(calibration_scores(bank, ScoreSpec()), _alloc([0.5, 0.5]), ScoreSpec())


def test_two_step_fit_equals_build_policy(rng):
    # one sorted score matrix fits every allocation to build_policy's bits
    bank = _calib_bank(rng, n=500, m=3)
    for kind in SCORE_KINDS:
        for jitter in (0.0, 1e-5):
            spec = ScoreSpec(kind=kind, jitter_u=jitter, seed=7)
            scores = calibration_scores(bank, spec)
            assert scores.shape == (2, 500)
            assert np.all(np.diff(scores, axis=1) >= 0.0)
            for eps in ([0.2, 0.3, 0.5], [0.7, 0.0, 0.3], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0],
                        rng.dirichlet(np.ones(3))):
                whole = build_policy(bank, _alloc(eps), spec)
                split = policy_from_scores(scores, _alloc(eps), spec)
                assert split.thresholds.tobytes() == whole.thresholds.tobytes(), (kind, jitter)
                assert split.seq_rates.tobytes() == whole.seq_rates.tobytes()
                for field in ("score_kind", "jitter_u", "seed", "calibration_size"):
                    assert getattr(split, field) == getattr(whole, field)


def test_stacked_fit_rows_equal_one_allocation_each(rng):
    # every row of a stack of allocations is fitted as if it were alone,
    # including tied calibration scores (no jitter on a few distinct rows)
    probs = rng.dirichlet(np.ones(4), size=(3, 6))[:, rng.integers(0, 6, size=300)]
    bank = make_bank(list(probs), budgets=[1.0, 2.0, 3.0])
    stack = np.vstack([rng.dirichlet(np.ones(3), size=40), [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0],
                                                           [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]]])
    for kind in SCORE_KINDS:
        spec = ScoreSpec(kind=kind, jitter_u=0.0)
        scores = calibration_scores(bank, spec)
        seq, thresholds = fit_thresholds(scores, stack)
        assert seq.shape == thresholds.shape == stack.shape
        for row, eps in enumerate(stack):
            one = policy_from_scores(scores, _alloc(eps), spec)
            assert seq[row].tobytes() == sequential_rates(eps, 300).tobytes() == one.seq_rates.tobytes()
            assert thresholds[row].tobytes() == one.thresholds.tobytes()
            for head in range(2):
                assert thresholds[row, head] == _threshold_linear(scores[head], seq[row, head])
            assert thresholds[row, -1] == -np.inf


def test_rate_outside_unit_interval_is_a_documented_error():
    for rate in (-0.1, 1.5, float("nan")):
        with pytest.raises(InvalidSpec) as e:
            threshold_for_rate(np.array([0.5, 0.1]), rate)
        assert e.value.exit_code == 2


def test_calibration_scores_are_sorted_per_head_scores(rng):
    bank = _calib_bank(rng, m=3)
    keys = CALIBRATION_KEY_BASE + np.arange(bank.num_instances, dtype=np.uint64)
    spec = ScoreSpec(kind="neg_entropy", jitter_u=1e-5, seed=4)
    scores = calibration_scores(bank, spec)
    for head in range(2):
        raw = score_matrix(jitter_matrix(bank.heads[head].probs, head, keys, spec), spec.kind)
        assert scores[head].tobytes() == np.sort(raw).tobytes()


def test_single_head_rejection_rate_controlled(rng):
    # one head used alone at rate eps: fresh-data reject fraction stays
    # within the concentration band around 1 - eps
    n = 1_000
    for eps in (0.2, 0.5, 0.8):
        devs = []
        for trial in range(50):
            calib = rng.normal(size=n)
            fresh = rng.normal(size=20_000)
            thr = threshold_for_rate(np.sort(calib), eps)
            reject = float(np.mean(fresh < thr))
            devs.append(abs(reject - (1.0 - eps)))
        assert np.quantile(devs, 0.99) <= 3.0 / np.sqrt(n)


def test_cdf_uniform_on_held_out(rng):
    n = 1_000
    calib = np.sort(rng.normal(size=n))
    fresh = rng.normal(size=n)
    # at each calibration sample, the held-out share at or above its threshold
    # tracks the rate: a Kolmogorov-Smirnov distance between the two CDFs
    rates = np.arange(n) / n
    passed = np.array([np.mean(fresh >= threshold_for_rate(calib, r)) for r in rates])
    ks = np.max(np.abs(passed - rates))
    assert ks <= 2.0 / np.sqrt(n)
