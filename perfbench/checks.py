"""Output checks that feed `failed`, `attempted` and `correct`.

Each check returns a list of problem strings; an op with any problem
counts as failed.  The references here use numpy on the generated
arrays, not eero's own solvers, and run outside the timed region.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-9


def close(a, b, rel=REL_TOL):
    return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=rel)


def correctness(probs_by_head, labels):
    """(T, M) matrix: does each head's argmax equal the label?"""
    return np.stack([np.argmax(p, axis=1) == labels for p in probs_by_head], axis=1)


def reference_oracle(corr, costs, budget):
    """At-most-budget oracle by sorting raises; returns (accuracy, cost).

    Every instance starts at head 1.  One that head 1 gets wrong but a
    later head gets right can be raised to its cheapest correct head for
    `costs[first] - costs[0]`; every raise gains exactly one correct
    answer, so taking the cheapest raises first until `budget - T*c1`
    is spent is optimal, and it is the cheapest optimal assignment.
    """
    t = corr.shape[0]
    costs = np.asarray(costs, dtype=np.float64)
    spare = budget - t * costs[0]
    raisable = ~corr[:, 0] & corr.any(axis=1)
    first = np.argmax(corr[raisable], axis=1)
    raises = np.sort(costs[first] - costs[0])
    spent = np.cumsum(raises)
    k = int(np.searchsorted(spent, spare * (1 + 1e-12), side="right"))
    correct = int(corr[:, 0].sum()) + k
    return correct / t, t * costs[0] + (float(spent[k - 1]) if k else 0.0)


def check_batch(exits, preds, costs, consumed, proportions, accuracy, budgets, labels):
    """Invariants of one routed batch (1-based exits and predictions)."""
    problems = []
    exits = np.asarray(exits)
    m = len(budgets)
    if exits.min() < 1 or exits.max() > m:
        return [f"exit heads outside 1..{m}"]
    expect_cost = np.asarray(budgets)[exits - 1]
    if not np.array_equal(np.asarray(costs, dtype=np.float64), expect_cost):
        problems.append("per-instance cost differs from the exit head's budget")
    if not close(consumed, math.fsum(expect_cost)):
        problems.append(f"consumed {consumed} != sum of exit budgets {math.fsum(expect_cost)}")
    shares = np.asarray(proportions, dtype=np.float64)
    if abs(shares.sum() - 1.0) > 1e-9:
        problems.append(f"exit shares sum to {shares.sum()}")
    if not np.allclose(shares, np.bincount(exits - 1, minlength=m) / exits.size, rtol=0, atol=1e-12):
        problems.append("exit shares differ from the exit histogram")
    if labels is not None and accuracy is not None:
        if not close(accuracy, np.mean(np.asarray(preds) - 1 == labels)):
            problems.append("accuracy differs from the predictions")
    return problems


def check_budget(consumed, allowed):
    if consumed > allowed * (1 + 1e-12):
        return [f"over budget: consumed {consumed} > allowed {allowed}"]
    return []


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_cli_session(out: Path, rcs: dict, files: dict, data, budget: float, sweep_budgets):
    """Problems per command of one CLI session (see workloads.CLI_FILES)."""
    bad = {cmd: [] for cmd in files}
    for cmd, names in files.items():
        if rcs.get(cmd) != 0:
            bad[cmd].append(f"exit code {rcs.get(cmd)}")
        for name in names:
            if not (out / name).is_file():
                bad[cmd].append(f"{name} not written")
    budgets = np.asarray(data.test_bank.budgets, dtype=np.float64)
    labels = np.asarray(data.test_labels)
    t = labels.size
    corr = correctness([h.probs for h in data.test_bank.heads], labels)

    if not bad["calibrate"]:
        pol = load_json(out / "policy.json")
        spec = pol.get("budget_spec", {})
        if not (close(spec.get("total_budget", -1), budget) and spec.get("batch_size") == t):
            bad["calibrate"].append(f"policy budget_spec {spec} != ({budget}, {t})")
        if len(pol.get("thresholds", [])) != budgets.size:
            bad["calibrate"].append("policy threshold count differs from the head count")

    if not bad["infer"]:
        doc = load_json(out / "infer.json")
        bad["infer"] += check_batch(doc["exits"], doc["predictions"], doc["per_instance_cost"],
                                    doc["consumed_budget"], doc["exit_proportions"],
                                    doc["accuracy"], budgets, labels)
        rep = doc.get("budget_report")
        if rep is None:
            bad["infer"].append("no budget report")
        else:
            if not close(rep["allowed_budget"], budget):
                bad["infer"].append(f"allowed budget {rep['allowed_budget']} != {budget}")
            bad["infer"] += check_budget(rep["consumed_budget"], budget)
            if not rep["within_budget"] and not bad["infer"]:
                bad["infer"].append("report says over budget")
        with open(out / "per_instance.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        cols = np.asarray(rows, dtype=np.float64).T if rows else np.zeros((5, 0))
        if (cols.shape[1] != t
                or not np.array_equal(cols[1], doc["exits"])
                or not np.array_equal(cols[2], doc["predictions"])
                or not np.array_equal(cols[3], doc["per_instance_cost"])
                or not np.array_equal(cols[4], np.asarray(doc["predictions"]) - 1 == labels)):
            bad["infer"].append("per-instance CSV disagrees with the result document")

    if not bad["oracle"]:
        doc = load_json(out / "oracle.json")
        ref_acc, ref_cost = reference_oracle(corr, budgets, budget)
        assign = np.asarray(doc["assignment"]) - 1
        if not close(doc["accuracy"], ref_acc):
            bad["oracle"].append(f"oracle accuracy {doc['accuracy']} != reference {ref_acc}")
        if not close(doc["consumed_budget"], ref_cost):
            bad["oracle"].append(f"oracle cost {doc['consumed_budget']} != cheapest optimum {ref_cost}")
        bad["oracle"] += check_budget(doc["consumed_budget"], budget)
        if not close(math.fsum(budgets[assign]), doc["consumed_budget"]):
            bad["oracle"].append("assignment cost differs from the reported cost")
        if not close(corr[np.arange(t), assign].mean(), doc["accuracy"]):
            bad["oracle"].append("assignment accuracy differs from the reported accuracy")

    if not bad["sweep"]:
        bad["sweep"] += _check_sweep(out / "sweep.csv", corr, budgets, sweep_budgets)
    return bad


def _check_sweep(path, corr, budgets, sweep_budgets):
    problems = []
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    m = budgets.size
    if len(rows) != len(sweep_budgets) * (m + 2):
        return [f"sweep has {len(rows)} rows, expected {len(sweep_budgets) * (m + 2)}"]
    by_budget = {}
    for row in rows:
        by_budget.setdefault(float(row["budget"]), {})[row["source"]] = row
    prev = -1.0
    for total in sorted(by_budget):
        group = by_budget[total]
        oracle, policy = group.get("oracle"), group.get("eero")
        if oracle is None or policy is None:
            problems.append(f"budget {total}: missing oracle or eero row")
            continue
        acc = float(oracle["accuracy"])
        ref_acc, ref_cost = reference_oracle(corr, budgets, total)
        if not close(acc, ref_acc):
            problems.append(f"budget {total}: oracle accuracy {acc} != reference {ref_acc}")
        if not close(float(oracle["consumed"]), ref_cost):
            problems.append(f"budget {total}: oracle cost {oracle['consumed']} != {ref_cost}")
        if acc < prev:
            problems.append(f"budget {total}: oracle accuracy fell from {prev} to {acc}")
        prev = acc
        for row in (oracle, policy):
            problems += check_budget(float(row["consumed"]), total)
        if float(policy["accuracy"]) > acc:
            problems.append(f"budget {total}: policy beats the oracle")
        for head in range(1, m + 1):
            h = group.get(f"head_{head}")
            if h is not None and h["within_budget"] == "true" and float(h["accuracy"]) > acc:
                problems.append(f"budget {total}: feasible head {head} beats the oracle")
    return problems


def check_routing_sample(eero, bank, policy, exits, preds, rows):
    """Recompute the exit decision of a few rows from the public scoring functions."""
    spec = eero.ScoreSpec(kind=policy.score_kind, jitter_u=policy.jitter_u, seed=policy.seed)
    keys = eero.scoring.TEST_KEY_BASE + rows.astype(np.uint64)
    m = bank.num_heads
    exit_ref = np.full(rows.size, m, dtype=np.int64)
    pred_ref = np.zeros(rows.size, dtype=np.int64)
    open_rows = np.ones(rows.size, dtype=bool)
    for head in range(m):
        q = eero.jitter_matrix(bank.heads[head].probs[rows], head, keys, spec)
        leave = open_rows & ((eero.score_matrix(q, spec.kind) >= policy.thresholds[head]) | (head == m - 1))
        exit_ref[leave] = head + 1
        pred_ref[leave] = eero.predict_matrix(q)[leave] + 1
        open_rows &= ~leave
    wrong = int(np.sum((exit_ref != np.asarray(exits)[rows]) | (pred_ref != np.asarray(preds)[rows])))
    return [f"{wrong} of {rows.size} sampled rows routed differently from the reference"] if wrong else []
