"""Confidence scores, argmax predictions, and the deterministic jitter."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eero import inference, scoring
from eero.domain import HeadBank, HeadSlice
from eero.rng import uniform
from eero.scoring import (
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


def test_jitter_moves_only_the_first_top_entry_and_keeps_the_argmax():
    # one draw per row, added to the entry predict_matrix picks: every other
    # entry keeps its bits, so exact and near ties keep their argmax
    u = 1e-5
    spec = ScoreSpec(jitter_u=u, seed=7)
    r = np.random.default_rng(3)
    n, k = 2_000, 5
    rows = np.arange(n)
    probs = r.dirichlet(np.ones(k), size=n)
    top = predict_matrix(probs)
    rival = (top + r.integers(1, k, size=n)) % k
    # even rows tie exactly for the top, odd rows miss it by less than u
    gap = np.where(rows % 2 == 0, 0.0, r.uniform(0.0, u, size=n))
    probs[rows, rival] = probs[rows, top] - gap
    pred = predict_matrix(probs)
    jit = jitter_matrix(probs, 0, rows.astype(np.uint64), spec)
    assert np.array_equal(predict_matrix(jit), pred)
    shift = jit[rows, pred] - probs[rows, pred]
    assert shift.min() >= 0.0 and 0.0 < shift.max() < u
    unmoved = jit.copy()
    unmoved[rows, pred] = probs[rows, pred]
    assert unmoved.tobytes() == probs.tobytes()


def test_a_draw_has_the_same_bits_hashed_in_python_ints_or_numpy():
    # a zero row at width 1 scores its own draw under max_prob; a narrow block
    # hashes its keys in Python ints, a wide one in numpy
    r = np.random.default_rng(17)
    edges = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
    keys = np.concatenate([np.array(edges, dtype=np.uint64),
                           r.integers(0, 2**64, size=58, dtype=np.uint64)])
    spec = ScoreSpec("max_prob", 1.0, seed=2**63 + 5)
    probs = np.zeros((1, 4))
    rows = np.zeros(keys.size, dtype=np.intp)
    wide = score_rows(probs, rows, keys, 3, spec)
    narrow = np.concatenate([score_rows(probs, rows[:1], keys[i : i + 1], 3, spec)
                             for i in range(keys.size)])
    assert keys.size >= scoring._NARROW
    assert wide.tobytes() == narrow.tobytes()
    assert wide.tobytes() == uniform(spec.seed, scoring.JITTER_DOMAIN, 3, keys).tobytes()
    assert np.unique(wide).size == keys.size


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


def test_score_bank_rows_are_per_head_scores():
    rng = np.random.default_rng(5)
    m, n, k = 4, 300, 6
    bank = HeadBank(heads=tuple(
        HeadSlice(probs=rng.dirichlet(np.ones(k), size=n), budget_gflops=float(h + 1))
        for h in range(m)
    ))
    for kind in SCORE_KINDS:
        for jitter in (0.0, 1e-5):
            spec = ScoreSpec(kind=kind, jitter_u=jitter, seed=2)
            for base in (CALIBRATION_KEY_BASE, TEST_KEY_BASE):
                scores = score_bank(bank, base, spec)
                assert scores.shape == (m - 1, n)
                keys = base + np.arange(n, dtype=np.uint64)
                for head in range(m - 1):
                    jit = jitter_matrix(bank.heads[head].probs, head, keys, spec)
                    assert scores[head].tobytes() == score_matrix(jit, kind).tobytes()


def test_score_bank_overflow_is_silent():
    # an overflowed score is infinite, without a RuntimeWarning
    probs = np.full((5, 3), 1.0 / 3.0)
    bank = HeadBank(heads=(HeadSlice(probs=probs, budget_gflops=1.0),
                           HeadSlice(probs=probs, budget_gflops=2.0)))
    scores = score_bank(bank, TEST_KEY_BASE, ScoreSpec(kind="neg_entropy", jitter_u=1e308))
    assert np.all(np.isposinf(scores))


ROW_COUNTS = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7]
JITTERS = [0.0, 1e-5, 0.3, 1e308]


def _probs_with_ties(r, n, k):
    """Random rows; in every third row the top two classes tie exactly."""
    probs = r.dirichlet(np.full(k, 0.5), size=n)
    tied = np.concatenate([[0.4, 0.4], np.full(k - 2, 0.2 / (k - 2))]) if k > 2 else [0.5, 0.5]
    probs[::3] = r.permuted(np.tile(tied, (probs[::3].shape[0], 1)), axis=1)
    return probs


def _rows(r, n, pool, order):
    if order == "ascending":
        return np.arange(n)
    if order == "shuffled":
        return r.permutation(pool)[:n]
    return r.integers(0, pool, size=n)  # unsorted, with repeats


def _assert_scores_equal_reference(probs, rows, keys, head, spec):
    ref = score_matrix(jitter_matrix(probs[rows], head, keys, spec), spec.kind)
    got = score_rows(probs, rows, keys, head, spec)
    assert got.dtype == np.float64 and got.shape == (rows.size,)
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("kind", SCORE_KINDS)
@pytest.mark.parametrize("jitter", JITTERS)
@settings(max_examples=12, deadline=None)
@given(
    n=st.sampled_from(ROW_COUNTS) | st.integers(0, 40),
    k=st.integers(2, 12),
    order=st.sampled_from(["ascending", "shuffled", "repeated"]),
    head=st.integers(0, 7),
    seed=st.integers(0, 2**64 - 1),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_score_rows_equals_reference(kind, jitter, n, k, order, head, seed, data_seed):
    # the blockwise scorer is the jitter_matrix + score_matrix reference, bit for bit
    r = np.random.default_rng(data_seed)
    pool = n + 17
    probs = _probs_with_ties(r, pool, k)
    rows = _rows(r, n, pool, order)
    keys = r.integers(0, 2**64, size=n, dtype=np.uint64)
    _assert_scores_equal_reference(probs, rows, keys, head, ScoreSpec(kind, jitter, seed))


@pytest.mark.parametrize("kind", SCORE_KINDS)
@pytest.mark.parametrize("jitter", JITTERS)
def test_score_rows_at_block_edges(monkeypatch, kind, jitter):
    # every row count around the block edges, with tied and repeated rows,
    # under the module's block size and under smaller ones: jitter is keyed
    # by instance, so the block size cannot change a score
    r = np.random.default_rng(31)
    pool = 3 * BLOCK + 7
    probs = _probs_with_ties(r, pool, 10)
    spec = ScoreSpec(kind, jitter, seed=3)
    for n in ROW_COUNTS:
        rows = _rows(r, n, pool, "repeated")
        _assert_scores_equal_reference(probs, rows, TEST_KEY_BASE + rows, 5, spec)
    rows = _rows(r, 300, pool, "shuffled")
    for block in (1, 7, 64):
        monkeypatch.setattr(scoring, "BLOCK", block)
        _assert_scores_equal_reference(probs, rows, TEST_KEY_BASE + rows, 5, spec)
    if kind == "neg_entropy" and jitter == 1e308:
        # a row's one draw overflows its score unless the draw is small
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.any(np.isposinf(score_rows(probs, rows, rows, 0, spec)))


@pytest.mark.parametrize("kind", ["max_prob", "breaking_ties"])
@pytest.mark.parametrize("jitter", [0.0, 1e-5, 0.3, 1e3, 1e308])
@settings(max_examples=15, deadline=None)
@given(
    n=st.sampled_from([scoring._NARROW - 1, scoring._NARROW, BLOCK + 1]),
    where=st.sampled_from(["-inf", "inf", "zero", "own", "band"]),
    level=st.floats(0.0, 1.0),
    key_base=st.sampled_from([CALIBRATION_KEY_BASE, TEST_KEY_BASE]),
    whole=st.booleans(),
    head=st.integers(0, 7),
    seed=st.integers(0, 2**64 - 1),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_clears_equals_jittered_scores(
    kind, jitter, n, where, level, key_base, whole, head, seed, data_seed
):
    # a routing head step (raw pass, then the band's exact pass) takes every
    # decision that thresholding the jittered scores takes, bit for bit,
    # predicts exactly the leaving rows and keeps the others in order
    r = np.random.default_rng(data_seed)
    k = 6
    spec = ScoreSpec(kind, jitter, seed)
    pool = n + 17
    probs = _probs_with_ties(r, pool, k)
    rows = np.arange(n) if whole else np.sort(r.permutation(pool)[:n])
    thr = {"-inf": -np.inf, "inf": np.inf, "zero": 0.0, "band": level}.get(where)
    if where == "own":
        thr = score_rows(probs, rows, key_base + rows, head, spec)[r.integers(n)]
    if where == "band":
        # every third pool row scores raw at the threshold, 1-2 ulp off it, or
        # one or two jitter widths off it: a lone entry over zeros scores
        # exactly that entry by either kind
        ulps = [np.nextafter(np.nextafter(thr, t), t) for t in (-np.inf, np.inf)]
        ulps += [np.nextafter(thr, t) for t in (-np.inf, np.inf)]
        spread = [thr + s * w for s in (-1, 1) for w in (jitter, 2 * jitter)]
        targets = np.clip([thr] + ulps + spread, 0.0, 1.0)
        lone = np.zeros((pool // 3 + 1, k))
        lone[:, 0] = np.resize(targets, lone.shape[0])
        probs[::3] = r.permuted(lone, axis=1)[: probs[::3].shape[0]]
    exits = np.full(pool, -1)
    preds = np.full(pool, -1)
    # the survivors are compacted into the buffer that the alive rows lie in
    buffer = np.full(pool, -1, dtype=np.intp)
    buffer[:n] = rows
    calls = []

    def recorded(probs, rows, keys, head, spec):
        calls.append(len(rows))
        return score_rows(probs, rows, keys, head, spec)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(inference, "score_rows", recorded)
        kept = inference._head_step(
            probs, buffer[:n], whole, key_base, head, spec, thr, exits, preds, buffer
        )
    want = score_rows(probs, rows, key_base + rows, head, spec) >= thr
    gone = rows[want]
    assert kept.tolist() == rows[~want].tolist()
    assert np.flatnonzero(exits >= 0).tolist() == gone.tolist()
    assert np.all(exits[gone] == head)
    assert np.flatnonzero(preds >= 0).tolist() == gone.tolist()
    assert preds[gone].tolist() == predict_matrix(probs[gone]).tolist()
    band = calls  # only the exact pass goes through score_rows
    if jitter == 1e308:
        assert sum(band) == n  # the margin overflows: every row takes the exact pass
    elif np.isinf(thr):
        assert band == []  # no finite raw score is near an infinite threshold
    elif where == "band":
        assert sum(band) >= np.sum(rows % 3 == 0)  # the lone rows are all in the band
