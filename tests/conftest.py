import numpy as np
import pytest

from eero.domain import HeadBank, HeadSlice


def make_slice(probs, budget, risk=None):
    return HeadSlice(probs=np.asarray(probs, dtype=np.float64), budget_gflops=budget, risk=risk)


def make_bank(prob_list, budgets, risks=None):
    """Assemble a HeadBank from raw row lists, one entry per head."""
    if risks is None:
        risks = [None] * len(prob_list)
    return HeadBank(
        heads=tuple(
            make_slice(p, b, r) for p, b, r in zip(prob_list, budgets, risks)
        )
    )


def random_bank(rng, n, m, k, budgets=None):
    """Random normalized bank for property tests."""
    if budgets is None:
        budgets = np.cumsum(rng.uniform(0.5, 2.0, size=m))
    probs = rng.dirichlet(np.ones(k), size=(m, n))
    return make_bank([probs[i] for i in range(m)], list(budgets))


def cdf_linear(scores, t):
    """Share of `scores` at or below t, by a linear count: the empirical CDF."""
    return float(np.sum(np.asarray(scores) <= t)) / len(scores)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
