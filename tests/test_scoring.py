"""Confidence scores, argmax predictions, and the deterministic jitter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eero.scoring import (
    CALIBRATION_KEY_BASE,
    TEST_KEY_BASE,
    ScoreSpec,
    jitter_matrix,
    predict_matrix,
    score_matrix,
)


def test_score_kind_values():
    rows = np.array([[0.1, 0.7, 0.2], [0.2, 0.1, 0.7]])
    assert score_matrix(rows, "max_prob").tolist() == [0.7, 0.7]
    assert score_matrix(rows, "breaking_ties") == pytest.approx([0.5, 0.5], abs=1e-15)
    k = 4
    uniform = np.full((1, k), 1.0 / k)
    assert score_matrix(uniform, "neg_entropy")[0] == pytest.approx(-np.log(k), rel=1e-14)


def test_neg_entropy_orders_by_confidence():
    confident, vague = score_matrix(
        np.array([[0.97, 0.01, 0.02], [0.4, 0.3, 0.3]]), "neg_entropy"
    )
    assert confident > vague


def test_neg_entropy_handles_one_hot():
    v = score_matrix(np.array([[1.0, 0.0, 0.0]]), "neg_entropy")[0]
    assert np.isfinite(v)
    assert v == pytest.approx(0.0, abs=1e-9)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        score_matrix(np.array([[0.5, 0.5]]), "softmax_margin")
    with pytest.raises(ValueError):
        ScoreSpec(kind="nope")
    with pytest.raises(ValueError):
        score_matrix(np.array([0.5, 0.5]), "max_prob")  # a bare row is not a matrix


def test_predict_unique_argmax_and_tie_break():
    assert predict_matrix(np.array([[0.1, 0.7, 0.2]])).tolist() == [1]
    assert predict_matrix(np.array([[0.5, 0.5]])).tolist() == [0]
    m = np.array([[0.2, 0.5, 0.3], [0.4, 0.4, 0.2]])
    assert predict_matrix(m).tolist() == [1, 0]


def test_zero_jitter_is_identity():
    spec = ScoreSpec(jitter_u=0.0, seed=9)
    probs = np.array([[0.3, 0.7], [0.5, 0.5]])
    out = jitter_matrix(probs, head=0, instance_keys=np.arange(2, dtype=np.uint64), spec=spec)
    assert out is probs  # no copy: callers treat the result as read-only


def test_jitter_determinism_and_bounds():
    spec = ScoreSpec(jitter_u=1e-5, seed=4)
    probs = np.random.default_rng(0).dirichlet(np.ones(6), size=50)
    keys = np.arange(50, dtype=np.uint64)
    a = jitter_matrix(probs, 2, keys, spec)
    b = jitter_matrix(probs, 2, keys, spec)
    assert np.array_equal(a, b)
    delta = a - probs
    assert delta.min() >= 0.0
    assert delta.max() <= 1e-5


def test_jitter_row_agrees_with_matrix():
    # one-row windows and arbitrary row subsets get the full matrix's draws
    spec = ScoreSpec(jitter_u=1e-5, seed=21)
    probs = np.random.default_rng(1).dirichlet(np.ones(4), size=8)
    keys = TEST_KEY_BASE + np.arange(8, dtype=np.uint64)
    full = jitter_matrix(probs, 1, keys, spec)
    for i in range(8):
        row = jitter_matrix(probs[i : i + 1], 1, keys[i : i + 1], spec)
        assert np.array_equal(row, full[i : i + 1])
    subset = np.array([6, 1, 3])
    assert np.array_equal(jitter_matrix(probs[subset], 1, keys[subset], spec), full[subset])


def test_jitter_breaks_exact_ties():
    spec = ScoreSpec(jitter_u=1e-5, seed=13)
    probs = np.full((500, 2), 0.5)
    keys = np.arange(500, dtype=np.uint64)
    out = jitter_matrix(probs, 0, keys, spec)
    assert np.all(out[:, 0] != out[:, 1])


def test_scores_distinct_under_jitter():
    # ten thousand identical rows: jitter must produce distinct gaps
    spec = ScoreSpec(jitter_u=1e-5, seed=2)
    probs = np.tile(np.array([0.25, 0.25, 0.25, 0.25]), (10_000, 1))
    keys = np.arange(10_000, dtype=np.uint64)
    s = score_matrix(jitter_matrix(probs, 0, keys, spec), "breaking_ties")
    assert np.unique(s).size == s.size


def test_calibration_and_test_key_spaces_disjoint():
    spec = ScoreSpec(jitter_u=1e-5, seed=0)
    probs = np.full((100, 3), 1.0 / 3.0)
    calib_keys = CALIBRATION_KEY_BASE + np.arange(100, dtype=np.uint64)
    test_keys = TEST_KEY_BASE + np.arange(100, dtype=np.uint64)
    a = jitter_matrix(probs, 0, calib_keys, spec)
    b = jitter_matrix(probs, 0, test_keys, spec)
    assert not np.array_equal(a, b)


def test_argmax_stable_when_margin_exceeds_jitter():
    spec = ScoreSpec(jitter_u=1e-5, seed=7)
    rng = np.random.default_rng(3)
    probs = rng.dirichlet(np.ones(5), size=2_000)
    keys = np.arange(2_000, dtype=np.uint64)
    raw_pred = predict_matrix(probs)
    jit_pred = predict_matrix(jitter_matrix(probs, 0, keys, spec))
    part = np.partition(probs, -2, axis=1)
    margin = part[:, -1] - part[:, -2]
    stable = margin > 2e-5
    assert np.array_equal(raw_pred[stable], jit_pred[stable])


def test_jitter_bounded_score_shift():
    spec = ScoreSpec(jitter_u=1e-5, seed=5)
    rng = np.random.default_rng(8)
    probs = rng.dirichlet(np.ones(4), size=1_000)
    keys = np.arange(1_000, dtype=np.uint64)
    jit = jitter_matrix(probs, 3, keys, spec)
    for kind in ("max_prob", "breaking_ties"):
        shift = np.abs(score_matrix(jit, kind) - score_matrix(probs, kind))
        assert shift.max() <= 2e-5 + 1e-15


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=12),
    st.sampled_from(["max_prob", "breaking_ties", "neg_entropy"]),
)
def test_score_matches_row_scan(weights, kind):
    row = np.array(weights) / np.sum(weights)
    got = float(score_matrix(row[None, :], kind)[0])
    srt = np.sort(row)[::-1]
    if kind == "max_prob":
        expect = srt[0]
    elif kind == "breaking_ties":
        expect = srt[0] - srt[1]
    else:
        q = np.clip(row, 1e-12, None)
        expect = float(np.sum(q * np.log(q)))
    assert got == pytest.approx(expect, rel=1e-12, abs=1e-15)
    assert predict_matrix(row[None, :]).tolist() == [int(np.argmax(row))]
