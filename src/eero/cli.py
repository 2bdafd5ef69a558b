"""Command line front end.

Subcommands cover the full pipeline: `synth` writes a synthetic
dataset, `calibrate` turns a labeled train split + unlabeled
calibration split into an exit policy for a budget, `infer` routes a
test split through a saved policy, `oracle` computes the offline
optimal assignment, and `sweep` traces accuracy against budget for the
policy, the oracle and every fixed head.

`calibrate`, `oracle` and `sweep` share one budget rule
(`domain.within_budget`): a total fits a budget when it is at most the
budget times 1 + 1e-12.  A budget that cannot pay the cheapest head for
every test instance under that rule exits 4 in all three, and every
`within_budget` flag they or `infer` write applies the same rule.

Exit codes are stable: 0 success, 2 usage or invalid argument or
generator spec, 3 unreadable/invalid data or policy files, 4 infeasible budget,
5 policy/bank mismatch.  Each library error class declares its own code
(`EeroError.exit_code`); an OSError exits 3.  Code 6 (cost resolution too coarse) is retired:
the oracle no longer rounds costs to a grid, and the code is not reused.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import io as eio
from .allocation import (
    DEFAULT_BETA,
    AllocationProblem,
    default_prior,
    solve_allocation,
    solve_allocations,
)
from .calibration import calibration_scores, fit_thresholds, policy_from_scores
from .domain import BudgetSpec, HeadBank
from .errors import EeroError, InvalidSpec, MissingLabels
from .inference import classify_batch, first_exceed, measure_budget
from .oracle import OracleInstance, build_correctness, oracle_curve, oracle_exact
from .scoring import SCORE_KINDS, DEFAULT_JITTER, TEST_KEY_BASE, ScoreSpec, score_bank
from .synth import SynthSpec, generate

SEED_ENV = "EERO_SEED"

EXIT_OK = 0
EXIT_IO = 3
# most budgets a `--budgets linspace:lo:hi:n` sweep may ask for
MAX_SWEEP_BUDGETS = 10_000
# a sweep routes its budgets a few at a time: one `first_exceed` pass holds
# at most about this many (budget, head, instance) elements, so that its
# (budgets, instances) arrays stay near the size of the test score matrix
SWEEP_PASS_ELEMENTS = 1 << 19


def _resolve_seed(value: int | None, fallback: int = 0) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise InvalidSpec(f"{SEED_ENV}={env!r} is not an integer") from None
    return int(fallback)


def _load_synth_spec(path: Path, seed_flag: int | None) -> SynthSpec:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise InvalidSpec(f"generator spec is not valid JSON: {e}")
    if not isinstance(doc, dict):
        raise InvalidSpec("generator spec must be a JSON object")
    known = {f.name for f in dataclasses.fields(SynthSpec)}
    unknown = set(doc) - known
    if unknown:
        raise InvalidSpec(f"unknown generator spec fields: {sorted(unknown)}")
    missing = known - {"seed"} - set(doc)
    if missing:
        raise InvalidSpec(f"generator spec is missing fields: {sorted(missing)}")
    seed = _resolve_seed(seed_flag, fallback=doc.get("seed", 0))
    try:
        return SynthSpec(**{**doc, "seed": seed})
    except (TypeError, ValueError) as e:
        raise InvalidSpec(f"malformed generator spec: {e}") from None


def cmd_synth(args) -> int:
    spec = _load_synth_spec(Path(args.spec), args.seed)
    data = generate(spec)
    manifest = eio.write_dataset(data, args.out)
    sizes = spec.sizes
    print(
        f"wrote {manifest} ({spec.num_heads} heads, {spec.num_classes} classes; "
        f"train/calib/test = {sizes[0]}/{sizes[1]}/{sizes[2]})"
    )
    return EXIT_OK


def _risks_for(dataset: eio.Dataset) -> np.ndarray:
    train = dataset.split("train")
    declared = train.bank.risks
    if declared is not None:
        return declared
    return eio.compute_risks(train.bank, train.labels)


def _problem(calib_bank: HeadBank, risks: np.ndarray, budget: BudgetSpec, beta: float):
    budgets = calib_bank.budgets
    return AllocationProblem(
        risks=risks,
        budgets=budgets,
        prior=default_prior(budgets),
        beta=beta,
        mean_budget=budget.mean_budget,
    )


def _fit_policy(
    calib_bank: HeadBank,
    calib_scores: np.ndarray,
    risks: np.ndarray,
    budget: BudgetSpec,
    beta: float,
    spec: ScoreSpec,
):
    """Allocation and calibrated exit policy for one budget.

    `calib_scores` is `calibration_scores(calib_bank, spec)`, computed
    once however many budgets are fitted.
    """
    budget.validate_for(calib_bank)
    allocation = solve_allocation(_problem(calib_bank, risks, budget, beta))
    return allocation, policy_from_scores(calib_scores, allocation, spec)


def _fit_thresholds(
    calib_bank: HeadBank,
    calib_scores: np.ndarray,
    risks: np.ndarray,
    totals: list[float],
    batch_size: int,
    beta: float,
    spec: ScoreSpec,
) -> np.ndarray:
    """Exit thresholds (B, M) of the policy `_fit_policy` fits for each total budget.

    All budgets are fitted together (`solve_allocations`,
    `fit_thresholds`), with the same bits as one at a time.  A failure
    raises the error that fitting them one at a time, in order, meets
    first.
    """
    try:
        budgets = [BudgetSpec(total_budget=total, batch_size=batch_size) for total in totals]
        for budget in budgets:
            budget.validate_for(calib_bank)
        problem = _problem(calib_bank, risks, budgets[0], beta)
        epsilons, _ = solve_allocations(problem, [b.mean_budget for b in budgets])
        return fit_thresholds(calib_scores, epsilons)[1]
    except EeroError:
        for total in totals:
            budget = BudgetSpec(total_budget=total, batch_size=batch_size)
            _fit_policy(calib_bank, calib_scores, risks, budget, beta, spec)
        raise


def _route_sweep(
    test_scores: np.ndarray, thresholds: np.ndarray, correctness: np.ndarray, costs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Accuracy and consumed budget on the test split for each row of thresholds.

    The same decisions and sums as `classify_batch` on each policy,
    routed a few policies per `first_exceed` pass.
    """
    b, m = thresholds.shape
    t = test_scores.shape[1]
    instances = np.arange(t)
    accuracy, consumed = np.empty(b), np.empty(b)
    step = max(1, SWEEP_PASS_ELEMENTS // (m * t))
    for lo in range(0, b, step):
        exits = first_exceed(test_scores, thresholds[lo : lo + step])
        accuracy[lo : lo + step] = correctness[instances, exits].mean(axis=1)
        consumed[lo : lo + step] = costs[exits].sum(axis=1)
    return accuracy, consumed


def cmd_calibrate(args) -> int:
    dataset = eio.load_manifest(args.data, splits=("train", "calib"))
    # the test split only supplies the default batch size, counted from one of its files
    test_size = eio.split_size(args.data, "test") if args.batch_size is None else None
    calib = dataset.split("calib")
    risks = _risks_for(dataset)
    batch_size = args.batch_size
    if batch_size is None:
        if test_size is None:
            raise InvalidSpec("--batch-size is required when there is no test split")
        batch_size = test_size
    budget = BudgetSpec(total_budget=args.budget, batch_size=batch_size)
    spec = ScoreSpec(kind=args.score, jitter_u=args.jitter, seed=_resolve_seed(args.seed))
    calib_scores = calibration_scores(calib.bank, spec)
    allocation, policy = _fit_policy(calib.bank, calib_scores, risks, budget, args.beta, spec)
    eio.save_policy(args.out, policy, allocation, budget)

    prior = default_prior(calib.bank.budgets)
    print("head  risk    prior   epsilon")
    for i in range(prior.size):
        print(
            f"{i + 1:<5d} {risks[i]:<7.4f} {prior[i]:<7.4f} "
            f"{allocation.epsilons[i]:.4f}"
        )
    state = "saturated" if allocation.saturated else "slack"
    print(
        f"expected budget/instance {allocation.expected_budget:.6g} "
        f"(cap {budget.mean_budget:.6g}, multiplier {allocation.multiplier:.6g}, {state})"
    )
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_infer(args) -> int:
    dataset = eio.load_manifest(args.data, splits=("test",))
    test = dataset.split("test")
    policy, doc = eio.load_policy(args.policy)
    result = classify_batch(test.bank, policy, labels=test.labels)
    report = None
    if "budget_spec" in doc:
        # the policy's per-instance allowance, scaled to this batch
        report = measure_budget(result, eio.budget_from_dict(doc["budget_spec"]))
    eio.write_json_result(args.out, eio.batch_result_to_dict(result, report))
    if args.per_instance:
        eio.write_per_instance_csv(
            args.per_instance, result, labels=test.labels, instance_ids=test.instance_ids
        )
    if report is not None:
        flag = "within" if report.within_budget else "OVER"
        print(
            f"consumed {report.consumed_budget:.6g} of {report.allowed_budget:.6g} "
            f"({100 * report.utilization:.2f}%, {flag} budget)"
        )
    else:
        print(f"consumed {result.consumed_budget:.6g}")
    if result.accuracy is not None:
        print(f"accuracy {result.accuracy:.4f}")
    shares = " ".join(f"{p:.4f}" for p in result.exit_proportions)
    print(f"exit proportions {shares}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    dataset = eio.load_manifest(args.data, splits=("test",))
    test = dataset.split("test")
    if test.labels is None:
        raise MissingLabels("the oracle needs a labeled test split")
    instance = OracleInstance(
        correctness=build_correctness(test.bank, test.labels),
        costs=test.bank.budgets,
        budget=args.budget,
    )
    result = oracle_exact(instance)
    eio.write_json_result(args.out, eio.oracle_result_to_dict(result, args.budget))
    print(
        f"exact oracle: accuracy {result.accuracy:.4f} at cost {result.cost:.6g} "
        f"(budget {args.budget:.6g})"
    )
    print(f"wrote {args.out}")
    return EXIT_OK


def _parse_budgets(text: str) -> list[float]:
    if text.startswith("linspace:"):
        parts = text.split(":")
        if len(parts) != 4:
            raise InvalidSpec("--budgets linspace form is linspace:lo:hi:n")
        try:
            lo, hi, n = float(parts[1]), float(parts[2]), int(parts[3])
        except ValueError:
            raise InvalidSpec(f"malformed --budgets {text!r}") from None
        if not (2 <= n <= MAX_SWEEP_BUDGETS and hi > lo and math.isfinite(hi - lo)):
            raise InvalidSpec(
                f"--budgets linspace needs finite lo < hi and 2 <= n <= {MAX_SWEEP_BUDGETS}"
            )
        return [float(b) for b in np.linspace(lo, hi, n)]
    try:
        budgets = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise InvalidSpec(f"malformed --budgets {text!r}") from None
    if not budgets:
        raise InvalidSpec("--budgets must name at least one budget")
    return budgets


def cmd_sweep(args) -> int:
    dataset = eio.load_manifest(args.data)
    calib = dataset.split("calib")
    test = dataset.split("test")
    if test.labels is None:
        raise MissingLabels("a sweep needs a labeled test split")
    risks = _risks_for(dataset)
    t = test.bank.num_instances
    budgets = _parse_budgets(args.budgets)
    spec = ScoreSpec(kind=args.score, jitter_u=args.jitter, seed=_resolve_seed(args.seed))

    # each split is scored once; a budget only moves the thresholds
    calib_scores = calibration_scores(calib.bank, spec)
    test_scores = score_bank(test.bank, TEST_KEY_BASE, spec)
    correctness = build_correctness(test.bank, test.labels)
    # every budget is fitted before the oracle runs, so a fit's error comes first
    thresholds = _fit_thresholds(calib.bank, calib_scores, risks, budgets, t, args.beta, spec)
    accuracy, consumed = _route_sweep(test_scores, thresholds, correctness, test.bank.budgets)
    eero_points = zip(accuracy.tolist(), consumed.tolist())
    oracle_points = oracle_curve(correctness, test.bank.budgets, np.asarray(budgets))
    head_points = zip(correctness.mean(axis=0), test.bank.budgets * t)
    heads = [(acc, cost, f"head_{h}") for h, (acc, cost) in enumerate(head_points, start=1)]
    rows = []
    for total, eero, oracle in zip(budgets, eero_points, oracle_points):
        for point in [(*eero, "eero"), (*oracle, "oracle"), *heads]:
            rows.append((total, *point))
    eio.write_sweep_csv(args.out, rows)
    print(f"wrote {args.out} ({len(rows)} rows over {len(budgets)} budgets)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eero",
        description=(
            "Budgeted batch classification via early exit with a reject "
            "option: calibrate per-head exit thresholds on held-out data, "
            "route batches under a compute budget, and compare against the "
            "offline oracle."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the flags that fit a policy, shared by calibrate and sweep
    fit = argparse.ArgumentParser(add_help=False)
    fit.add_argument("--beta", type=float, default=DEFAULT_BETA, help="KL temperature")
    fit.add_argument("--score", choices=SCORE_KINDS, default="breaking_ties")
    fit.add_argument("--jitter", type=float, default=DEFAULT_JITTER, help="jitter width")
    fit.add_argument("--seed", type=int, default=None, help=f"jitter seed (or ${SEED_ENV})")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--spec", required=True, help="generator spec JSON file")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--seed", type=int, default=None, help=f"overrides spec seed / ${SEED_ENV}")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("calibrate", parents=[fit], help="fit an exit policy for a budget")
    p.add_argument("--data", required=True, help="dataset directory or manifest path")
    p.add_argument("--budget", type=float, required=True, help="total batch budget")
    p.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="batch size the budget refers to (default: test split size)",
    )
    p.add_argument("--out", required=True, help="policy JSON path")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("infer", help="route a test split through a policy")
    p.add_argument("--data", required=True)
    p.add_argument("--policy", required=True, help="policy JSON from calibrate")
    p.add_argument("--out", required=True, help="result JSON path")
    p.add_argument("--per-instance", default=None, help="optional per-instance CSV")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("oracle", help="offline optimal assignment under a budget")
    p.add_argument("--data", required=True)
    p.add_argument("--budget", type=float, required=True)
    p.add_argument(
        "--mode", choices=("at-most",), default="at-most", help="spend at most the budget"
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("sweep", parents=[fit], help="accuracy vs budget for policy, oracle, heads")
    p.add_argument("--data", required=True)
    p.add_argument(
        "--budgets",
        required=True,
        help="comma-separated totals or linspace:lo:hi:n",
    )
    p.add_argument("--out", required=True, help="sweep CSV path")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EeroError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
