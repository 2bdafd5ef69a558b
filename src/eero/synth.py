"""Synthetic multi-head banks with controllable difficulty structure.

Each instance carries a latent difficulty shared across heads through a
Gaussian copula: head l sees difficulty d_il with uniform marginal, so
P(head l correct) = head_accuracies[l] holds exactly, while the shared
component makes the same instances easy (or hard) for every head.  That
coupling is what early exit exploits: confidently scored instances at
cheap heads are the ones those heads get right.

Probability rows put a softmax margin on the predicted class that grows
as difficulty falls, so confidence is informative about correctness.  A
fixed floor keeps the argmax pinned to the intended prediction even
under the small logit noise, making per-head risks exactly binomial.

All draws are counter-based on (seed, split, purpose, instance, head,
class), so generation is order-independent and each split is an
independent stream from the same law.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .domain import HeadBank, HeadSlice
from .errors import InvalidSpec

SYNTH_DOMAIN = 0x53CE

_TAG_LABEL = 0
_TAG_SHARED = 1
_TAG_HEAD_NOISE = 2
_TAG_WRONG = 3
_TAG_LOGIT = 4

_SPLIT_TRAIN, _SPLIT_CALIB, _SPLIT_TEST = 0, 1, 2

# correlation of per-head difficulties through the shared latent
_COUPLING = 0.9
# scale of the logit perturbation
_LOGIT_NOISE = 0.1
# minimum softmax margin of the predicted class, >> logit noise so the
# argmax never flips and realized risks are exactly binomial
_MARGIN_FLOOR = 1.0


@dataclass(frozen=True)
class SynthSpec:
    """Generator configuration.

    `sizes` is (train, calibration, test) instance counts.  Budgets must
    be positive and strictly increasing; accuracies lie in (0, 1).
    """

    seed: int
    num_classes: int
    num_heads: int
    head_accuracies: tuple[float, ...]
    head_budgets: tuple[float, ...]
    confidence_sharpness: float
    sizes: tuple[int, int, int]

    def __post_init__(self):
        if int(self.num_classes) < 2:
            raise InvalidSpec(f"need >= 2 classes, got {self.num_classes}")
        if int(self.num_heads) < 2:
            raise InvalidSpec(f"need >= 2 heads, got {self.num_heads}")
        accs = tuple(float(a) for a in self.head_accuracies)
        buds = tuple(float(b) for b in self.head_budgets)
        if len(accs) != self.num_heads or len(buds) != self.num_heads:
            raise InvalidSpec(
                f"accuracies ({len(accs)}) and budgets ({len(buds)}) must both "
                f"have num_heads = {self.num_heads} entries"
            )
        if any(not (0.0 < a < 1.0) for a in accs):
            raise InvalidSpec("head accuracies must lie strictly inside (0, 1)")
        if buds[0] <= 0.0 or any(b2 <= b1 for b1, b2 in zip(buds, buds[1:])):
            raise InvalidSpec("head budgets must be positive and strictly increasing")
        if not (float(self.confidence_sharpness) > 0.0):
            raise InvalidSpec("confidence sharpness must be > 0")
        sizes = tuple(int(s) for s in self.sizes)
        if len(sizes) != 3 or any(s < 1 for s in sizes):
            raise InvalidSpec(f"sizes must be three positive counts, got {self.sizes}")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "num_classes", int(self.num_classes))
        object.__setattr__(self, "num_heads", int(self.num_heads))
        object.__setattr__(self, "head_accuracies", accs)
        object.__setattr__(self, "head_budgets", buds)
        object.__setattr__(
            self, "confidence_sharpness", float(self.confidence_sharpness)
        )
        object.__setattr__(self, "sizes", sizes)


@dataclass(frozen=True)
class SynthData:
    """Generated splits: labeled train and test banks, unlabeled calibration."""

    train_bank: HeadBank
    train_labels: np.ndarray
    calib_bank: HeadBank
    test_bank: HeadBank
    test_labels: np.ndarray


def default_spec(seed: int = 0) -> SynthSpec:
    """The 8-head, 10-class reference configuration used across the docs."""
    return SynthSpec(
        seed=seed,
        num_classes=10,
        num_heads=8,
        head_accuracies=(0.55, 0.62, 0.70, 0.76, 0.81, 0.85, 0.88, 0.91),
        head_budgets=(1.0, 1.6, 2.4, 3.4, 4.6, 6.0, 7.6, 9.4),
        confidence_sharpness=6.0,
        sizes=(2000, 1000, 5000),
    )


def _split(spec: SynthSpec, split: int, n: int) -> tuple[HeadBank, np.ndarray]:
    # imported on first use, so that importing eero does not load scipy
    from scipy.special import ndtr, softmax

    k = spec.num_classes
    m = spec.num_heads
    seed = spec.seed
    i = np.arange(n, dtype=np.uint64)
    heads = np.arange(m, dtype=np.uint64)
    classes = np.arange(k, dtype=np.uint64)

    u_label = rng.uniform(seed, SYNTH_DOMAIN, split, _TAG_LABEL, i, 0, 0)
    labels = np.minimum((u_label * k).astype(np.int64), k - 1)

    shared = rng.normal(seed, SYNTH_DOMAIN, split, _TAG_SHARED, i, 0, 0)
    idio = rng.normal(
        seed, SYNTH_DOMAIN, split, _TAG_HEAD_NOISE, i[:, None], heads[None, :], 0
    )
    mix = _COUPLING * shared[:, None] + np.sqrt(1.0 - _COUPLING**2) * idio
    difficulty = ndtr(mix)  # (n, m), uniform marginals, shared structure

    accs = np.asarray(spec.head_accuracies)
    correct = difficulty <= accs[None, :]

    u_wrong = rng.uniform(
        seed, SYNTH_DOMAIN, split, _TAG_WRONG, i[:, None], heads[None, :], 0
    )
    wrong = np.minimum((u_wrong * (k - 1)).astype(np.int64), k - 2)
    wrong += wrong >= labels[:, None]
    predicted = np.where(correct, labels[:, None], wrong)

    margin = _MARGIN_FLOOR + spec.confidence_sharpness * (1.0 - difficulty)
    noise = rng.normal(
        seed,
        SYNTH_DOMAIN,
        split,
        _TAG_LOGIT,
        i[:, None, None],
        heads[None, :, None],
        classes[None, None, :],
    )
    logits = _LOGIT_NOISE * noise
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


def generate(spec: SynthSpec) -> SynthData:
    """Draw the three splits deterministically from the configured seed."""
    n_train, n_calib, n_test = spec.sizes
    train_bank, train_labels = _split(spec, _SPLIT_TRAIN, n_train)
    calib_bank, _ = _split(spec, _SPLIT_CALIB, n_calib)
    test_bank, test_labels = _split(spec, _SPLIT_TEST, n_test)
    return SynthData(
        train_bank=train_bank,
        train_labels=train_labels,
        calib_bank=calib_bank,
        test_bank=test_bank,
        test_labels=test_labels,
    )
