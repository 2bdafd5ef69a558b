"""Synthetic multi-head dataset generator: determinism, calibrated
per-head accuracy, and the difficulty structure early exit relies on."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from eero import rng, synth
from eero.domain import HeadBank, HeadSlice
from eero.errors import InvalidSpec
from eero.scoring import score_matrix
from eero.synth import SynthSpec, default_spec, generate


def small_spec(seed=0, accs=(0.6, 0.8), n=6_000, **kw):
    m = len(accs)
    return SynthSpec(
        seed=seed,
        num_classes=kw.pop("num_classes", 5),
        num_heads=m,
        head_accuracies=tuple(accs),
        head_budgets=tuple(float(i + 1) for i in range(m)),
        confidence_sharpness=kw.pop("confidence_sharpness", 6.0),
        sizes=kw.pop("sizes", (n, 1_000, 1_000)),
        **kw,
    )


def test_default_spec_shape():
    spec = default_spec()
    assert spec.num_heads == 8
    assert spec.num_classes == 10
    assert len(spec.head_accuracies) == 8
    assert np.all(np.diff(spec.head_budgets) > 0)
    assert spec.sizes == (2_000, 1_000, 5_000)


def test_spec_validation():
    with pytest.raises(InvalidSpec):
        small_spec(accs=(0.6,))  # single head
    with pytest.raises(InvalidSpec):
        SynthSpec(
            seed=0, num_classes=1, num_heads=2,
            head_accuracies=(0.5, 0.6), head_budgets=(1.0, 2.0),
            confidence_sharpness=6.0, sizes=(10, 10, 10),
        )
    with pytest.raises(InvalidSpec):
        SynthSpec(
            seed=0, num_classes=3, num_heads=2,
            head_accuracies=(0.5, 1.2), head_budgets=(1.0, 2.0),
            confidence_sharpness=6.0, sizes=(10, 10, 10),
        )
    with pytest.raises(InvalidSpec):
        SynthSpec(
            seed=0, num_classes=3, num_heads=2,
            head_accuracies=(0.5, 0.6), head_budgets=(2.0, 1.0),
            confidence_sharpness=6.0, sizes=(10, 10, 10),
        )


def test_determinism_bit_identical():
    a = generate(small_spec(seed=7))
    b = generate(small_spec(seed=7))
    for ha, hb in zip(a.train_bank.heads, b.train_bank.heads):
        assert np.array_equal(ha.probs, hb.probs)
    assert np.array_equal(a.train_labels, b.train_labels)
    assert np.array_equal(a.test_labels, b.test_labels)
    c = generate(small_spec(seed=8))
    assert not np.array_equal(
        a.train_bank.heads[0].probs, c.train_bank.heads[0].probs
    )


def test_splits_differ():
    d = generate(small_spec(seed=3, n=1_000))
    assert not np.array_equal(d.train_bank.heads[0].probs, d.calib_bank.heads[0].probs)
    assert not np.array_equal(d.calib_bank.heads[0].probs, d.test_bank.heads[0].probs)


def test_structure_and_normalization():
    d = generate(small_spec(seed=1, n=500))
    for bank, size in ((d.train_bank, 500), (d.calib_bank, 1_000), (d.test_bank, 1_000)):
        assert bank.num_heads == 2
        assert bank.num_classes == 5
        assert bank.num_instances == size
        for h in bank.heads:
            sums = h.probs.sum(axis=1)
            assert np.allclose(sums, 1.0, atol=1e-12)
            assert h.probs.min() > 0.0
    assert d.train_labels.min() >= 0 and d.train_labels.max() < 5


def test_empirical_risk_matches_target():
    accs = (0.55, 0.7, 0.85)
    spec = SynthSpec(
        seed=5, num_classes=10, num_heads=3,
        head_accuracies=accs, head_budgets=(1.0, 2.0, 3.0),
        confidence_sharpness=6.0, sizes=(10_000, 100, 100),
    )
    d = generate(spec)
    labels = d.train_labels
    for ell, a in enumerate(accs):
        pred = d.train_bank.heads[ell].probs.argmax(axis=1)
        emp = np.mean(pred == labels)
        bound = 3.0 * np.sqrt(a * (1.0 - a) / 10_000)
        assert abs(emp - a) <= bound


def test_near_perfect_head():
    spec = SynthSpec(
        seed=2, num_classes=4, num_heads=2,
        head_accuracies=(1.0 - 1e-9, 1.0 - 1e-9), head_budgets=(1.0, 2.0),
        confidence_sharpness=6.0, sizes=(10_000, 100, 100),
    )
    d = generate(spec)
    pred = d.train_bank.heads[0].probs.argmax(axis=1)
    assert np.mean(pred != d.train_labels) == pytest.approx(0.0, abs=1e-4)


def test_chance_level_head():
    k = 5
    spec = SynthSpec(
        seed=4, num_classes=k, num_heads=2,
        head_accuracies=(1.0 / k, 1.0 / k), head_budgets=(1.0, 2.0),
        confidence_sharpness=6.0, sizes=(10_000, 100, 100),
    )
    d = generate(spec)
    pred = d.train_bank.heads[0].probs.argmax(axis=1)
    risk = np.mean(pred != d.train_labels)
    a = 1.0 / k
    assert abs((1.0 - risk) - a) <= 3.0 * np.sqrt(a * (1.0 - a) / 10_000)


def test_confidence_correlates_with_correctness():
    d = generate(small_spec(seed=9, accs=(0.7, 0.9), n=10_000))
    labels = d.train_labels
    for ell in range(2):
        probs = d.train_bank.heads[ell].probs
        correct = probs.argmax(axis=1) == labels
        scores = score_matrix(probs, "breaking_ties")
        assert scores[correct].mean() > scores[~correct].mean()


def test_difficulty_shared_across_heads():
    # heads agree far more often than independent coins would
    d = generate(small_spec(seed=11, accs=(0.7, 0.75), n=10_000))
    labels = d.train_labels
    c1 = d.train_bank.heads[0].probs.argmax(axis=1) == labels
    c2 = d.train_bank.heads[1].probs.argmax(axis=1) == labels
    p_joint = np.mean(c1 & c2)
    p_indep = c1.mean() * c2.mean()
    assert p_joint > p_indep + 0.05


def _reference_split(spec, split, n):
    """The generator's law drawn for all heads at once, as (n, M, K) arrays."""
    from scipy.special import ndtr, softmax

    k = spec.num_classes
    m = spec.num_heads
    seed = spec.seed
    i = np.arange(n, dtype=np.uint64)
    heads = np.arange(m, dtype=np.uint64)
    classes = np.arange(k, dtype=np.uint64)
    domain = synth.SYNTH_DOMAIN

    u_label = rng.uniform(seed, domain, split, synth._TAG_LABEL, i, 0, 0)
    labels = np.minimum((u_label * k).astype(np.int64), k - 1)

    shared = rng.normal(seed, domain, split, synth._TAG_SHARED, i, 0, 0)
    idio = rng.normal(seed, domain, split, synth._TAG_HEAD_NOISE, i[:, None], heads[None, :], 0)
    coupling = synth._COUPLING
    mix = coupling * shared[:, None] + np.sqrt(1.0 - coupling**2) * idio
    difficulty = ndtr(mix)

    accs = np.asarray(spec.head_accuracies)
    correct = difficulty <= accs[None, :]

    u_wrong = rng.uniform(seed, domain, split, synth._TAG_WRONG, i[:, None], heads[None, :], 0)
    wrong = np.minimum((u_wrong * (k - 1)).astype(np.int64), k - 2)
    wrong += wrong >= labels[:, None]
    predicted = np.where(correct, labels[:, None], wrong)

    margin = synth._MARGIN_FLOOR + spec.confidence_sharpness * (1.0 - difficulty)
    noise = rng.normal(
        seed, domain, split, synth._TAG_LOGIT,
        i[:, None, None], heads[None, :, None], classes[None, None, :],
    )
    logits = synth._LOGIT_NOISE * noise
    np.put_along_axis(
        logits,
        predicted[:, :, None],
        np.take_along_axis(logits, predicted[:, :, None], axis=2) + margin[:, :, None],
        axis=2,
    )
    probs = softmax(logits, axis=2)

    slices = tuple(
        HeadSlice(probs=probs[:, head, :], budget_gflops=spec.head_budgets[head])
        for head in range(m)
    )
    return HeadBank(heads=slices), labels


@pytest.mark.parametrize(
    "spec",
    [
        default_spec(0),
        default_spec(1),
        default_spec(2),
        small_spec(seed=3, num_classes=2, sizes=(50, 40, 30)),
        small_spec(seed=5, num_classes=3, sizes=(1, 1, 1)),
        small_spec(seed=7, accs=[0.5 + 0.03 * h for h in range(12)], num_classes=50, sizes=(300, 200, 100)),
        small_spec(seed=9, accs=(0.5, 0.7, 0.9), num_classes=1000, sizes=(20, 10, 30)),
        # one chunk of the batches the route_200k benchmark routes
        dataclasses.replace(default_spec(1 << 20), sizes=(1, 1, 5_000)),
    ],
    ids=["default0", "default1", "default2", "m2k2", "n1", "m12k50", "k1000", "route_chunk"],
)
def test_generate_equals_the_all_heads_law_bit_for_bit(spec):
    # drawing head by head must give every byte the (n, M, K) law gives
    d = generate(spec)
    splits = (
        (synth._SPLIT_TRAIN, d.train_bank, d.train_labels),
        (synth._SPLIT_CALIB, d.calib_bank, None),
        (synth._SPLIT_TEST, d.test_bank, d.test_labels),
    )
    for split, bank, labels in splits:
        ref_bank, ref_labels = _reference_split(spec, split, bank.num_instances)
        assert bank.num_heads == ref_bank.num_heads == spec.num_heads
        for got, want in zip(bank.heads, ref_bank.heads):
            assert got.probs.tobytes() == want.probs.tobytes()
            assert got.budget_gflops == want.budget_gflops
        if labels is not None:
            assert labels.tobytes() == ref_labels.tobytes()


def test_generate_peak_memory_is_near_its_output():
    spec = dataclasses.replace(default_spec(0), sizes=(1, 1, 20_000))
    generate(dataclasses.replace(spec, sizes=(1, 1, 1)))  # imports scipy outside the trace
    tracemalloc.start()
    try:
        d = generate(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    banks = (d.train_bank, d.calib_bank, d.test_bank)
    returned = sum(h.probs.nbytes for bank in banks for h in bank.heads)
    returned += d.train_labels.nbytes + d.test_labels.nbytes
    # one head's temporaries on top of the returned banks; (n, M, K) ones read ~5x
    assert peak < 2.5 * returned
