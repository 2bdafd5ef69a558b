"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line straight to the terminal (bypassing
capture) so the gate's verdict is visible in any pytest run. Tolerances
are pinned; timing limits are asserted, not just reported.
"""

import time

import numpy as np
import pytest

from eero.allocation import (
    AllocationProblem,
    allocation_objective,
    default_prior,
    gibbs_epsilons,
    single_head_rate,
    solve_allocation,
)
from eero.calibration import build_policy, threshold_for_rate
from eero.domain import BudgetSpec
from eero.inference import classify_batch
from eero.io import as_dataset, compute_risks
from eero.oracle import OracleInstance, build_correctness, oracle_curve, oracle_exact
from eero.scoring import ScoreSpec
from eero.synth import default_spec, generate

_DATA_CACHE = {}


def default_data(seed):
    if seed not in _DATA_CACHE:
        _DATA_CACHE[seed] = generate(default_spec(seed=seed))
    return _DATA_CACHE[seed]


def _verdict(capsys, ok, name, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def run_eero(data, total_budget, seed, beta=0.1):
    ds = as_dataset(data)
    train, calib, test = ds.split("train"), ds.split("calib"), ds.split("test")
    risks = compute_risks(train.bank, train.labels)
    t = test.bank.num_instances
    bspec = BudgetSpec(total_budget=total_budget, batch_size=t)
    bspec.validate_for(calib.bank)
    problem = AllocationProblem(
        risks=risks,
        budgets=calib.bank.budgets,
        prior=default_prior(calib.bank.budgets),
        beta=beta,
        mean_budget=bspec.mean_budget,
    )
    allocation = solve_allocation(problem)
    policy = build_policy(calib.bank, allocation, ScoreSpec(seed=seed))
    return classify_batch(test.bank, policy, labels=test.labels)


def test_criterion_1_budget_adherence(capsys):
    start = time.perf_counter()
    spec = default_spec()
    t = spec.sizes[2]
    budgets = np.linspace(t * spec.head_budgets[0], t * spec.head_budgets[-1], 20)
    n_seeds = 10
    consumed = np.zeros((20, n_seeds))
    for s in range(n_seeds):
        data = default_data(s)
        for j, b in enumerate(budgets):
            res = run_eero(data, float(b), seed=s)
            consumed[j, s] = res.consumed_budget
    elapsed = time.perf_counter() - start
    within = consumed <= budgets[:, None] * (1.0 + 1e-12)
    share_within = within.mean()
    mean_ok = np.all(consumed.mean(axis=1) <= budgets * (1.0 + 1e-12))
    ok = share_within >= 0.99 and mean_ok and elapsed < 60.0
    _verdict(
        capsys, ok, "criterion 1 budget adherence",
        f"{share_within * 100:.1f}% of 200 runs within budget "
        f"(need >= 99%), per-budget means within budget: {mean_ok}, "
        f"{elapsed:.1f}s (limit 60s)",
    )


def test_criterion_2_kkt_suite(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(12)
    worst_simplex = 0.0
    worst_budget = 0.0
    worst_slack = 0.0
    beaten = 0
    for _ in range(500):
        m = int(rng.integers(2, 21))
        budgets = np.cumsum(rng.uniform(0.3, 2.5, size=m))
        risks = rng.uniform(0.0, 1.0, size=m)
        beta = float(rng.uniform(0.02, 3.0))
        mean_budget = float(rng.uniform(budgets[0] * 1.001, budgets[-1] * 1.2))
        p = AllocationProblem(
            risks=risks, budgets=budgets, prior=default_prior(budgets),
            beta=beta, mean_budget=mean_budget,
        )
        res = solve_allocation(p)
        eps = res.epsilons
        worst_simplex = max(worst_simplex, abs(eps.sum() - 1.0))
        spent = float(eps @ budgets)
        if res.saturated and np.isfinite(res.multiplier):
            worst_budget = max(worst_budget, abs(spent - mean_budget) / mean_budget)
        if np.isfinite(res.multiplier):
            worst_slack = max(worst_slack, res.multiplier * abs(spent - mean_budget))
        # 10^4 feasible competitors, vectorized objective
        raw = rng.dirichlet(np.ones(m), size=10_000)
        lam = rng.uniform(0.0, 1.0, size=(10_000, 1))
        cheap = np.zeros(m)
        cheap[0] = 1.0
        probes = lam * raw + (1.0 - lam) * cheap
        feasible = probes @ budgets <= mean_budget
        probes = probes[feasible]
        mine = allocation_objective(p, eps)
        safe = np.maximum(probes, 1e-300)
        vals = probes @ risks + beta * np.sum(
            np.where(probes > 0.0, probes * np.log(safe / p.prior), 0.0), axis=1
        )
        if vals.size and vals.min() < mine - 1e-9:
            beaten += 1
    elapsed = time.perf_counter() - start
    ok = (
        worst_simplex <= 1e-9
        and worst_budget <= 1e-8
        and worst_slack <= 1e-8
        and beaten == 0
        and elapsed < 30.0
    )
    _verdict(
        capsys, ok, "criterion 2 allocation KKT suite",
        f"500 problems: simplex residual {worst_simplex:.2e} (<=1e-9), "
        f"budget residual {worst_budget:.2e} (<=1e-8), "
        f"compl. slackness {worst_slack:.2e} (<=1e-8), "
        f"beaten by random feasible points in {beaten} problems, "
        f"{elapsed:.1f}s (limit 30s)",
    )


def test_criterion_3_two_head_closed_form(capsys):
    p = AllocationProblem(
        risks=np.array([1.0, 0.0]),
        budgets=np.array([1.0, 2.0]),
        prior=np.array([0.5, 0.5]),
        beta=1.0,
        mean_budget=1.2,
    )
    res = solve_allocation(p)
    eps_err = np.max(np.abs(res.epsilons - np.array([0.8, 0.2])))
    mu_err = abs(res.multiplier - (1.0 + np.log(4.0)))
    big_beta = AllocationProblem(
        risks=np.array([0.9, 0.1, 0.4]),
        budgets=np.array([1.0, 2.0, 4.0]),
        prior=default_prior(np.array([1.0, 2.0, 4.0])),
        beta=1e9,
        mean_budget=4.0,
    )
    prior_err = np.max(np.abs(solve_allocation(big_beta).epsilons - big_beta.prior))
    ok = eps_err <= 1e-6 and mu_err <= 1e-6 and prior_err < 1e-6
    _verdict(
        capsys, ok, "criterion 3 two-head closed form",
        f"epsilon error {eps_err:.2e} (<=1e-6), multiplier error {mu_err:.2e} "
        f"(<=1e-6), prior-limit error {prior_err:.2e} (<1e-6)",
    )


def test_criterion_4_single_head_identity(capsys):
    rng = np.random.default_rng(4)
    worst = 0.0
    endpoints_exact = True
    for _ in range(100):
        b1 = float(rng.uniform(0.05, 5.0))
        b2 = b1 + float(rng.uniform(0.05, 5.0))
        t = int(rng.integers(1, 100_000))
        total = float(rng.uniform(t * b1, t * b2))
        eps = single_head_rate(b1, b2, total, t)
        recon = t * (eps * b1 + (1.0 - eps) * b2)
        worst = max(worst, abs(recon - total) / total)
        if single_head_rate(b1, b2, t * b1, t) != 1.0:
            endpoints_exact = False
        if single_head_rate(b1, b2, t * b2, t) != 0.0:
            endpoints_exact = False
    ok = worst <= 1e-12 and endpoints_exact
    _verdict(
        capsys, ok, "criterion 4 budget identity",
        f"worst relative error {worst:.2e} (<=1e-12) over 100 triples, "
        f"endpoints exact: {endpoints_exact}",
    )


def _decode_accuracy(corr, unit_costs, budget_units, chunk=1 << 20):
    """Best fraction correct over all assignments, by base-M decoding."""
    t, m = corr.shape
    corr_i = corr.astype(np.int32)
    total = m**t
    best = -1
    for lo in range(0, total, chunk):
        codes = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        nc = codes.copy()
        n_correct = np.zeros(codes.size, dtype=np.int32)
        cost = np.zeros(codes.size, dtype=np.int64)
        for i in range(t):
            h = (nc % m).astype(np.int32)
            nc //= m
            n_correct += corr_i[i, h]
            cost += unit_costs[h]
        feas = cost <= budget_units
        if feas.any():
            best = max(best, int(n_correct[feas].max()))
    return None if best < 0 else best / t


def _all_assignments(corr, unit_costs):
    """Cost and number correct of every assignment of `corr`'s rows."""
    cost = np.zeros(1, dtype=np.int64)
    n_correct = np.zeros(1, dtype=np.int32)
    for row in corr.astype(np.int32):
        cost = (cost[:, None] + unit_costs[None, :]).ravel()
        n_correct = (n_correct[:, None] + row[None, :]).ravel()
    return cost, n_correct


def _enumerate_accuracy(corr, unit_costs, budget_units):
    """Best fraction correct over all assignments, by meet in the middle.

    Every assignment of the first half of the instances is paired with
    the best-scoring assignment of the second half that fits the rest of
    the budget: the second half's assignments are sorted by cost with a
    running maximum of correct answers, and one `searchsorted` finds the
    dearest one that fits.  Exact, and m**(t/2) work instead of m**t.
    """
    t = corr.shape[0]
    cost_a, correct_a = _all_assignments(corr[: t // 2], unit_costs)
    cost_b, correct_b = _all_assignments(corr[t // 2 :], unit_costs)
    order = np.argsort(cost_b, kind="stable")
    cost_b = cost_b[order]
    best_b = np.maximum.accumulate(correct_b[order])
    k = np.searchsorted(cost_b, budget_units - cost_a, side="right") - 1
    fits = k >= 0
    if not fits.any():
        return None
    return int((correct_a[fits] + best_b[k[fits]]).max()) / t


def test_meet_in_the_middle_equals_full_decode():
    rng = np.random.default_rng(5)
    for _ in range(300):
        t = int(rng.integers(1, 9))
        m = int(rng.integers(2, 5))
        corr = rng.random((t, m)) < rng.uniform(0.1, 0.9)
        unit_costs = np.cumsum(rng.integers(1, 5, size=m)).astype(np.int64)
        # from below the cheapest total (infeasible) to above the dearest
        budget = int(rng.integers(t * unit_costs[0] - 2, t * unit_costs[-1] + 2))
        assert _enumerate_accuracy(corr, unit_costs, budget) == _decode_accuracy(
            corr, unit_costs, budget
        )


def test_criterion_5_oracle_exactness(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(55)
    mismatches = 0
    trials = 500
    for _ in range(trials):
        t = int(rng.integers(1, 13))
        m = int(rng.integers(2, 5))
        corr = rng.random((t, m)) < rng.uniform(0.2, 0.9)
        unit_costs = np.cumsum(rng.integers(1, 5, size=m)).astype(np.int64)
        costs = unit_costs.astype(np.float64)
        budget = float(rng.uniform(t * costs[0], t * costs[-1] * 1.05))
        inst = OracleInstance(correctness=corr, costs=costs, budget=budget)
        exact = oracle_exact(inst)
        brute = _enumerate_accuracy(corr, unit_costs, int(budget))
        if brute is None or abs(exact.accuracy - brute) > 1e-12:
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 120.0
    _verdict(
        capsys, ok, "criterion 5 oracle exactness",
        f"{trials - mismatches}/{trials} oracle results equal brute force "
        f"(need all), {elapsed:.1f}s (limit 120s)",
    )


def test_criterion_6_rejection_rate_bound(capsys):
    rng = np.random.default_rng(6)
    all_ok = True
    details = []
    for n in (100, 1_000):
        for eps in (0.2, 0.5, 0.8):
            devs = np.empty(200)
            for trial in range(200):
                calib = np.sort(rng.normal(size=n))
                thr = threshold_for_rate(calib, eps)
                fresh = rng.normal(size=20_000)
                reject = float(np.mean(fresh < thr))
                devs[trial] = abs(reject - (1.0 - eps))
            q99 = float(np.quantile(devs, 0.99))
            bound = 3.0 / np.sqrt(n)
            if q99 > bound:
                all_ok = False
            details.append(f"N={n},eps={eps}: q99={q99:.4f} (<= {bound:.4f})")
    _verdict(
        capsys, all_ok, "criterion 6 rejection-rate bound", "; ".join(details)
    )


def test_criterion_7_curve_shape(capsys):
    data = default_data(0)
    ds = as_dataset(data)
    test = ds.split("test")
    spec = default_spec()
    t = spec.sizes[2]
    budgets = np.linspace(t * spec.head_budgets[0], t * spec.head_budgets[-1], 12)
    eero_acc = np.array([run_eero(data, float(b), seed=0).accuracy for b in budgets])
    # the same argmax predictions the policy runs make
    corr = build_correctness(test.bank, test.labels)
    curve = oracle_curve(corr, test.bank.budgets, budgets)
    oracle_acc = np.array([a for a, _ in curve])
    head_acc = corr.mean(axis=0)
    head_cost = np.asarray(spec.head_budgets) * t

    dominance = np.all(oracle_acc >= eero_acc - 1e-12)
    monotone = np.all(np.diff(oracle_acc) >= -1e-12)
    floor_ok = True
    for j, b in enumerate(budgets):
        feasible = head_cost <= b * (1.0 + 1e-12)
        if feasible.any():
            floor = head_acc[feasible].max()
            if eero_acc[j] < floor - 0.005:
                floor_ok = False
    ok = dominance and monotone and floor_ok
    _verdict(
        capsys, ok, "criterion 7 curve shape",
        f"oracle dominates policy: {dominance}, oracle monotone: {monotone}, "
        f"policy >= best feasible head - 0.5pp: {floor_ok} "
        f"(12 budgets, policy acc {eero_acc[0]:.3f}..{eero_acc[-1]:.3f})",
    )


def test_criterion_8_mass_shift_with_budget(capsys):
    # 21-head risk profile with non-monotone risks and the cheapest heads
    # weakest; budgets rise linearly so the prior decays with depth
    risks = np.array([
        0.93, 0.81, 0.75, 0.72, 0.72, 0.66, 0.64, 0.57, 0.51, 0.46,
        0.40, 0.46, 0.55, 0.41, 0.67, 0.55, 0.42, 0.62, 0.17, 0.17, 0.16,
    ])
    budgets = np.arange(1.0, 22.0)
    prior = default_prior(budgets)
    means = (1.5, 6.0, 16.0)  # tight, mid, permissive
    allocs = []
    for mb in means:
        p = AllocationProblem(risks=risks, budgets=budgets, prior=prior,
                              beta=0.1, mean_budget=mb)
        allocs.append(solve_allocation(p).epsilons)
    early = [float(e[:7].sum()) for e in allocs]
    low_risk = [float(e[18:].sum()) for e in allocs]
    weighted_risk = [float(e @ risks) for e in allocs]
    early_shift = early[0] > early[1] > early[2]
    low_shift = low_risk[0] < low_risk[1] < low_risk[2]
    risk_shift = weighted_risk[0] > weighted_risk[1] > weighted_risk[2]
    ok = early_shift and low_shift and risk_shift
    _verdict(
        capsys, ok, "criterion 8 allocation mass shift",
        f"early-head mass {early[0]:.2f}>{early[1]:.2f}>{early[2]:.2f}: "
        f"{early_shift}; low-risk-head mass "
        f"{low_risk[0]:.2f}<{low_risk[1]:.2f}<{low_risk[2]:.2f}: {low_shift}; "
        f"weighted risk decreasing: {risk_shift}",
    )


def test_criterion_9_determinism_and_round_trips(capsys, tmp_path):
    import json
    from eero.cli import main

    spec_doc = {
        "seed": 5, "num_classes": 5, "num_heads": 3,
        "head_accuracies": [0.6, 0.75, 0.9], "head_budgets": [1.0, 2.0, 4.0],
        "confidence_sharpness": 6.0, "sizes": [400, 300, 500],
    }
    sp = tmp_path / "spec.json"
    sp.write_text(json.dumps(spec_doc))
    byte_identical = True
    for name in ("one", "two"):
        d = tmp_path / name
        assert main(["synth", "--spec", str(sp), "--out", str(d / "data")]) == 0
        assert main([
            "calibrate", "--data", str(d / "data"), "--budget", "1000",
            "--batch-size", "500", "--seed", "9", "--out", str(d / "policy.json"),
        ]) == 0
        assert main([
            "infer", "--data", str(d / "data"), "--policy", str(d / "policy.json"),
            "--out", str(d / "result.json"),
        ]) == 0
    for f in ("data/manifest.json", "data/test_head_1.csv", "policy.json", "result.json"):
        if (tmp_path / "one" / f).read_bytes() != (tmp_path / "two" / f).read_bytes():
            byte_identical = False

    # lossless load round trip on the generated dataset
    from eero.io import load_manifest
    ds1 = load_manifest(tmp_path / "one" / "data")
    ds2 = load_manifest(tmp_path / "two" / "data")
    lossless = True
    for split in ("train", "calib", "test"):
        for h1, h2 in zip(ds1.split(split).bank.heads, ds2.split(split).bank.heads):
            if not np.array_equal(h1.probs, h2.probs):
                lossless = False
    ok = byte_identical and lossless
    _verdict(
        capsys, ok, "criterion 9 determinism and round trips",
        f"byte-identical policy/result/data files: {byte_identical}, "
        f"lossless load round trips: {lossless}",
    )
