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
)
from .calibration import build_policy
from .domain import BudgetSpec, HeadBank, within_budget
from .errors import EeroError, InvalidSpec, MissingLabels
from .inference import classify_batch, measure_budget
from .oracle import OracleInstance, build_correctness, oracle_curve, oracle_exact
from .scoring import SCORE_KINDS, DEFAULT_JITTER, ScoreSpec
from .synth import SynthSpec, generate

SEED_ENV = "EERO_SEED"

EXIT_OK = 0
EXIT_IO = 3
# most budgets a `--budgets linspace:lo:hi:n` sweep may ask for
MAX_SWEEP_BUDGETS = 10_000


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
    raw = path.read_text(encoding="utf-8")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as e:
        raise InvalidSpec(f"generator spec is not valid JSON: {e}")
    if not isinstance(doc, dict):
        raise InvalidSpec("generator spec must be a JSON object")
    known = {
        "seed",
        "num_classes",
        "num_heads",
        "head_accuracies",
        "head_budgets",
        "confidence_sharpness",
        "sizes",
    }
    unknown = set(doc) - known
    if unknown:
        raise InvalidSpec(f"unknown generator spec fields: {sorted(unknown)}")
    missing = known - {"seed"} - set(doc)
    if missing:
        raise InvalidSpec(f"generator spec is missing fields: {sorted(missing)}")
    seed = _resolve_seed(seed_flag, fallback=doc.get("seed", 0))
    try:
        return SynthSpec(
            seed=seed,
            num_classes=doc["num_classes"],
            num_heads=doc["num_heads"],
            head_accuracies=tuple(doc["head_accuracies"]),
            head_budgets=tuple(doc["head_budgets"]),
            confidence_sharpness=doc["confidence_sharpness"],
            sizes=tuple(doc["sizes"]),
        )
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


def _fit_policy(
    calib_bank: HeadBank, risks: np.ndarray, budget: BudgetSpec, beta: float, spec: ScoreSpec
):
    """Allocation and calibrated exit policy for one budget."""
    budget.validate_for(calib_bank)
    budgets = calib_bank.budgets
    problem = AllocationProblem(
        risks=risks,
        budgets=budgets,
        prior=default_prior(budgets),
        beta=beta,
        mean_budget=budget.mean_budget,
    )
    allocation = solve_allocation(problem)
    return allocation, build_policy(calib_bank, allocation, spec)


def cmd_calibrate(args) -> int:
    dataset = eio.load_manifest(args.data)
    calib = dataset.split("calib")
    risks = _risks_for(dataset)
    batch_size = args.batch_size
    if batch_size is None:
        if "test" not in dataset.splits:
            raise InvalidSpec("--batch-size is required when there is no test split")
        batch_size = dataset.split("test").bank.num_instances
    budget = BudgetSpec(total_budget=args.budget, batch_size=batch_size)
    spec = ScoreSpec(kind=args.score, jitter_u=args.jitter, seed=_resolve_seed(args.seed))
    allocation, policy = _fit_policy(calib.bank, risks, budget, args.beta, spec)
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
    dataset = eio.load_manifest(args.data)
    test = dataset.split("test")
    policy, doc = eio.load_policy(args.policy)
    result = classify_batch(test.bank, policy, labels=test.labels)
    report = None
    if "budget_spec" in doc:
        stored = doc["budget_spec"]
        per_instance = float(stored["total_budget"]) / int(stored["batch_size"])
        report = measure_budget(
            result,
            BudgetSpec(
                total_budget=per_instance * result.batch_size,
                batch_size=result.batch_size,
            ),
        )
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
    dataset = eio.load_manifest(args.data)
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

    def eero_point(total: float):
        bspec = BudgetSpec(total_budget=total, batch_size=t)
        _, policy = _fit_policy(calib.bank, risks, bspec, args.beta, spec)
        result = classify_batch(test.bank, policy, labels=test.labels)
        return {
            "budget": total,
            "accuracy": result.accuracy,
            "consumed": result.consumed_budget,
            "within_budget": within_budget(result.consumed_budget, total),
            "source": "eero",
        }

    eero_rows = [eero_point(b) for b in budgets]

    correctness = build_correctness(test.bank, test.labels)
    oracle_points = oracle_curve(correctness, test.bank.budgets, np.asarray(budgets))

    head_accuracy = correctness.mean(axis=0)
    head_cost = test.bank.budgets * t

    rows = []
    for j, total in enumerate(budgets):
        rows.append(eero_rows[j])
        acc, consumed = oracle_points[j]
        rows.append(
            {
                "budget": total,
                "accuracy": acc,
                "consumed": consumed,
                "within_budget": within_budget(consumed, total),
                "source": "oracle",
            }
        )
        for head in range(test.bank.num_heads):
            rows.append(
                {
                    "budget": total,
                    "accuracy": float(head_accuracy[head]),
                    "consumed": float(head_cost[head]),
                    "within_budget": within_budget(float(head_cost[head]), total),
                    "source": f"head_{head + 1}",
                }
            )
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

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--spec", required=True, help="generator spec JSON file")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--seed", type=int, default=None, help=f"overrides spec seed / ${SEED_ENV}")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("calibrate", help="fit an exit policy for a budget")
    p.add_argument("--data", required=True, help="dataset directory or manifest path")
    p.add_argument("--budget", type=float, required=True, help="total batch budget")
    p.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="batch size the budget refers to (default: test split size)",
    )
    p.add_argument("--beta", type=float, default=DEFAULT_BETA, help="KL temperature")
    p.add_argument("--score", choices=SCORE_KINDS, default="breaking_ties")
    p.add_argument("--jitter", type=float, default=DEFAULT_JITTER, help="jitter width")
    p.add_argument("--seed", type=int, default=None, help=f"jitter seed (or ${SEED_ENV})")
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

    p = sub.add_parser("sweep", help="accuracy vs budget for policy, oracle, heads")
    p.add_argument("--data", required=True)
    p.add_argument(
        "--budgets",
        required=True,
        help="comma-separated totals or linspace:lo:hi:n",
    )
    p.add_argument("--beta", type=float, default=DEFAULT_BETA)
    p.add_argument("--score", choices=SCORE_KINDS, default="breaking_ties")
    p.add_argument("--jitter", type=float, default=DEFAULT_JITTER)
    p.add_argument("--seed", type=int, default=None)
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
