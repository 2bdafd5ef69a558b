"""File formats: manifests, probability CSVs, policies, results, sweeps.

A dataset on disk is a JSON manifest naming, per split (train, calib,
test), one probability CSV per head with its cumulative budget and an
optional precomputed risk, plus optional label CSVs.  Probability CSVs
carry a `instance_id,p_1,...,p_K` header and rows sorted by instance
id; gzip-compressed files are detected by magic bytes and read
transparently.  Labels are 1-based on disk and 0-based in memory.

All writers are deterministic (stable field order, floats rendered with
17 significant digits, which round-trips IEEE doubles exactly) and
atomic (temp file then rename), so partially written files never
replace good ones and byte-identical reruns are byte-identical on disk.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .domain import (
    AllocationResult,
    BatchResult,
    BudgetSpec,
    ExitPolicy,
    HeadBank,
    HeadSlice,
)
from .errors import MissingLabels, ParseError, ShapeMismatch
from .inference import BudgetReport
from .oracle import OracleResult, build_correctness
from .scoring import ScoreSpec
from .synth import SynthData

MANIFEST_NAME = "manifest.json"
SPLIT_NAMES = ("train", "calib", "test")
SWEEP_HEADER = ("budget", "accuracy", "consumed", "within_budget", "source")


# ---------------------------------------------------------------------------
# canonical rendering


def format_float(x: float) -> str:
    """17-significant-digit decimal form; round-trips float64 exactly."""
    x = float(x)
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    s = format(x, ".17g")
    if not any(c in s for c in ".eE"):
        s += ".0"
    return s


def _render(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, np.ndarray):
        return _render(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_render(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}: {_render(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_canonical(obj) -> str:
    """Deterministic JSON: insertion-ordered keys, 17-digit floats."""
    return _render(obj) + "\n"


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file in the same directory, then rename over."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# dataset containers


@dataclass(frozen=True)
class Split:
    """One split's bank plus (optional) labels and on-disk instance ids."""

    bank: HeadBank
    labels: np.ndarray | None = None
    instance_ids: np.ndarray | None = None


@dataclass(frozen=True)
class Dataset:
    """A manifest's worth of data: named splits over the same heads."""

    num_classes: int
    splits: dict[str, Split]

    def split(self, name: str) -> Split:
        if name not in self.splits:
            raise ParseError(f"dataset has no {name!r} split")
        return self.splits[name]


def as_dataset(data) -> Dataset:
    """View generated synthetic data as a Dataset."""
    if isinstance(data, Dataset):
        return data
    if isinstance(data, SynthData):
        return Dataset(
            num_classes=data.train_bank.num_classes,
            splits={
                "train": Split(bank=data.train_bank, labels=data.train_labels),
                "calib": Split(bank=data.calib_bank),
                "test": Split(bank=data.test_bank, labels=data.test_labels),
            },
        )
    raise TypeError(f"cannot interpret {type(data).__name__} as a dataset")


# ---------------------------------------------------------------------------
# CSV reading


def _open_text(path):
    # sniff the gzip magic so compressed files work under any name
    with open(path, "rb") as raw:
        magic = raw.read(2)
    if magic == b"\x1f\x8b":
        return gzip.open(path, "rt", encoding="utf-8", newline="")
    return open(path, "r", encoding="utf-8", newline="")


def _read_rows(path, header_ok, header_text: str, parse_row) -> tuple[np.ndarray, list]:
    """The row loop shared by the CSV readers; returns (ids, parsed rows).

    Checks the header with `header_ok`, skips blank lines, and requires
    every row to have the header's width and an integer instance id in
    column 1.  `parse_row(cells)` returns the row's value; it reports a
    bad cell by raising ParseError with `col` set, and the row and file
    are added here.
    """
    path = Path(path)
    ids: list[int] = []
    rows: list = []
    with _open_text(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError("empty file", file=str(path), row=1)
        if not header_ok(header):
            raise ParseError(f"header must be {header_text}", file=str(path), row=1)
        width = len(header)
        for rownum, cells in enumerate(reader, start=2):
            if not cells:
                continue  # tolerate a trailing blank line
            if len(cells) != width:
                raise ParseError(
                    f"expected {width} columns, got {len(cells)}",
                    file=str(path),
                    row=rownum,
                )
            try:
                ids.append(int(cells[0]))
            except ValueError:
                raise ParseError(
                    f"instance_id {cells[0]!r} is not an integer",
                    file=str(path),
                    row=rownum,
                    col=1,
                ) from None
            try:
                rows.append(parse_row(cells))
            except ParseError as e:
                raise ParseError(e.args[0], file=str(path), row=rownum, col=e.col) from None
    if not rows:
        raise ParseError("no data rows", file=str(path), row=1)
    return np.asarray(ids, dtype=np.int64), rows


def _probs_header_ok(header: list[str]) -> bool:
    return (
        len(header) >= 2
        and header[0] == "instance_id"
        and header[1:] == [f"p_{j}" for j in range(1, len(header))]
    )


def _parse_probs(cells: list[str]) -> list[float]:
    try:
        return [float(c) for c in cells[1:]]
    except ValueError:
        bad = next(j for j, c in enumerate(cells[1:], start=2) if not _is_float(c))
        raise ParseError(f"cell {cells[bad - 1]!r} is not a number", col=bad) from None


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def read_probs_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse one head's probability rows; returns (ids, probs).

    Enforces the exact header, rectangular float rows and strictly
    increasing instance ids.  Raises ParseError with file/row/column
    context on the first violation.
    """
    id_arr, rows = _read_rows(path, _probs_header_ok, "instance_id,p_1,...,p_K", _parse_probs)
    if np.any(np.diff(id_arr) <= 0):
        where = int(np.argmax(np.diff(id_arr) <= 0)) + 3  # header + 1-based + next row
        raise ParseError(
            "instance ids must be strictly increasing", file=str(path), row=where
        )
    return id_arr, np.asarray(rows, dtype=np.float64)


def read_labels_csv(path, num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Parse labels; returns (ids, labels) with labels shifted to 0-based."""

    def parse_label(cells: list[str]) -> int:
        try:
            lab = int(cells[1])
        except ValueError:
            raise ParseError(f"label {cells[1]!r} is not an integer", col=2) from None
        if not (1 <= lab <= num_classes):
            raise ParseError(f"label {lab} outside 1..{num_classes}", col=2)
        return lab - 1

    ids, labels = _read_rows(
        path, lambda header: header == ["instance_id", "label"], "instance_id,label", parse_label
    )
    return ids, np.asarray(labels, dtype=np.int64)


# ---------------------------------------------------------------------------
# manifest


def load_manifest(path) -> Dataset:
    """Load a dataset manifest and every file it references."""
    path = Path(path)
    if path.is_dir():
        path = path / MANIFEST_NAME
    if not path.exists():
        raise FileNotFoundError(str(path))
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}", file=str(path)) from None
    if not isinstance(doc, dict) or "num_classes" not in doc or "splits" not in doc:
        raise ParseError("manifest needs num_classes and splits", file=str(path))
    k = doc["num_classes"]
    if not isinstance(k, int) or k < 2:
        raise ParseError(f"num_classes must be an integer >= 2, got {k!r}", file=str(path))
    raw_splits = doc["splits"]
    if not isinstance(raw_splits, dict) or not raw_splits:
        raise ParseError("splits must be a non-empty object", file=str(path))
    unknown = set(raw_splits) - set(SPLIT_NAMES)
    if unknown:
        raise ParseError(
            f"unknown split names {sorted(unknown)}; expected {SPLIT_NAMES}",
            file=str(path),
        )
    base = path.parent
    budgets_seen: list[float] | None = None
    splits: dict[str, Split] = {}
    for name in SPLIT_NAMES:
        if name not in raw_splits:
            continue
        entry = raw_splits[name]
        heads_meta = entry.get("heads")
        if not isinstance(heads_meta, list) or len(heads_meta) < 2:
            raise ParseError(
                f"split {name!r} needs a list of >= 2 heads", file=str(path)
            )
        slices = []
        split_ids: np.ndarray | None = None
        budgets_here = []
        for idx, meta in enumerate(heads_meta, start=1):
            if "probs_csv" not in meta or "budget_gflops" not in meta:
                raise ParseError(
                    f"head {idx} of split {name!r} needs probs_csv and budget_gflops",
                    file=str(path),
                )
        for idx, meta in enumerate(heads_meta, start=1):
            ids, probs = read_probs_csv(base / meta["probs_csv"])
            if probs.shape[1] != k:
                raise ParseError(
                    f"{meta['probs_csv']} has {probs.shape[1]} classes, "
                    f"manifest declares {k}",
                    file=str(path),
                )
            if split_ids is None:
                split_ids = ids
            elif not np.array_equal(split_ids, ids):
                raise ParseError(
                    f"instance ids of split {name!r} differ between heads",
                    file=str(path),
                )
            budget = _manifest_number(meta["budget_gflops"], path)
            budgets_here.append(budget)
            risk = meta.get("risk")
            if risk is not None:
                risk = _manifest_number(risk, path)
                if not (0.0 <= risk <= 1.0):
                    raise ParseError(
                        f"risk of head {idx} of split {name!r} must lie in [0, 1], "
                        f"got {risk}",
                        file=str(path),
                    )
            slices.append(HeadSlice(probs=probs, budget_gflops=budget, risk=risk))
        if budgets_seen is None:
            budgets_seen = budgets_here
        elif budgets_here != budgets_seen:
            raise ParseError(
                f"split {name!r} declares different budgets than earlier splits",
                file=str(path),
            )
        bank = HeadBank(heads=tuple(slices))
        labels = None
        if entry.get("labels_csv"):
            lab_ids, labels = read_labels_csv(base / entry["labels_csv"], k)
            if not np.array_equal(lab_ids, split_ids):
                raise ParseError(
                    f"label ids of split {name!r} do not match its probs ids",
                    file=str(path),
                )
        splits[name] = Split(bank=bank, labels=labels, instance_ids=split_ids)
    return Dataset(num_classes=k, splits=splits)


def _manifest_number(value, path) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ParseError(f"expected a number, got {value!r}", file=str(path)) from None


def write_dataset(data, out_dir) -> Path:
    """Write a dataset as manifest + CSVs; returns the manifest path."""
    ds = as_dataset(data)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"num_classes": ds.num_classes, "splits": {}}
    for name in SPLIT_NAMES:
        if name not in ds.splits:
            continue
        split = ds.splits[name]
        bank = split.bank
        ids = (
            split.instance_ids
            if split.instance_ids is not None
            else np.arange(bank.num_instances)
        )
        heads_meta = []
        for head in range(bank.num_heads):
            fname = f"{name}_head_{head + 1}.csv"
            _write_probs_csv(out / fname, ids, bank.heads[head].probs)
            meta = {
                "probs_csv": fname,
                "budget_gflops": bank.heads[head].budget_gflops,
            }
            if bank.heads[head].risk is not None:
                meta["risk"] = bank.heads[head].risk
            heads_meta.append(meta)
        entry: dict = {"heads": heads_meta}
        if split.labels is not None:
            lname = f"{name}_labels.csv"
            _write_labels_csv(out / lname, ids, split.labels)
            entry["labels_csv"] = lname
        manifest["splits"][name] = entry
    manifest_path = out / MANIFEST_NAME
    atomic_write_text(manifest_path, dumps_canonical(manifest))
    return manifest_path


def _write_probs_csv(path, ids: np.ndarray, probs: np.ndarray) -> None:
    k = probs.shape[1]
    lines = ["instance_id," + ",".join(f"p_{j}" for j in range(1, k + 1))]
    for i, row in zip(ids, probs):
        lines.append(f"{int(i)}," + ",".join(format(v, ".17g") for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _write_labels_csv(path, ids: np.ndarray, labels: np.ndarray) -> None:
    lines = ["instance_id,label"]
    for i, lab in zip(ids, labels):
        lines.append(f"{int(i)},{int(lab) + 1}")
    atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# risks


def compute_risks(bank: HeadBank, labels: np.ndarray | None) -> np.ndarray:
    """Per-head misclassification rate of unjittered argmax predictions."""
    if labels is None:
        raise MissingLabels("risk estimation needs a labeled split")
    return (~build_correctness(bank, labels)).mean(axis=0)


# ---------------------------------------------------------------------------
# result documents


def allocation_to_dict(result: AllocationResult) -> dict:
    return {
        "epsilons": result.epsilons,
        "multiplier": result.multiplier,
        "expected_budget": result.expected_budget,
        "kl_to_prior": result.kl_to_prior,
        "saturated": result.saturated,
    }


def policy_to_dict(
    policy: ExitPolicy,
    allocation: AllocationResult | None = None,
    budget: BudgetSpec | None = None,
) -> dict:
    doc = {
        "score_kind": policy.score_kind,
        "jitter_u": policy.jitter_u,
        "seed": policy.seed,
        "seq_rates": policy.seq_rates,
        "thresholds": policy.thresholds,
        "calibration_size": policy.calibration_size,
    }
    if budget is not None:
        doc["budget_spec"] = {
            "total_budget": budget.total_budget,
            "batch_size": budget.batch_size,
        }
    if allocation is not None:
        doc["allocation"] = allocation_to_dict(allocation)
    return doc


def policy_from_dict(doc: dict) -> ExitPolicy:
    policy = ExitPolicy(
        score_kind=doc["score_kind"],
        jitter_u=float(doc["jitter_u"]),
        seed=int(doc["seed"]),
        seq_rates=np.asarray(doc["seq_rates"], dtype=np.float64),
        thresholds=np.asarray(doc["thresholds"], dtype=np.float64),
        calibration_size=int(doc["calibration_size"]),
    )
    # the pinned scoring configuration must itself be valid
    ScoreSpec(kind=policy.score_kind, jitter_u=policy.jitter_u, seed=policy.seed)
    return policy


def save_policy(
    path,
    policy: ExitPolicy,
    allocation: AllocationResult | None = None,
    budget: BudgetSpec | None = None,
) -> None:
    atomic_write_text(path, dumps_canonical(policy_to_dict(policy, allocation, budget)))


def load_policy(path) -> tuple[ExitPolicy, dict]:
    """Read a policy document; returns the policy and the full document."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        policy = policy_from_dict(doc)
    except (KeyError, TypeError, ValueError, ShapeMismatch) as e:
        # ValueError covers bad JSON and the policy's own validators
        raise ParseError(f"not a policy document: {e}", file=str(path)) from None
    return policy, doc


def batch_result_to_dict(
    result: BatchResult, report: BudgetReport | None = None
) -> dict:
    doc = {
        "batch_size": result.batch_size,
        "accuracy": result.accuracy,
        "consumed_budget": result.consumed_budget,
        "exit_proportions": result.exit_proportions,
        "exits": result.exits,
        "predictions": result.predictions,
        "per_instance_cost": result.per_instance_cost,
    }
    if report is not None:
        doc["budget_report"] = {
            "consumed_budget": report.consumed_budget,
            "allowed_budget": report.allowed_budget,
            "utilization": report.utilization,
            "within_budget": report.within_budget,
        }
    return doc


def oracle_result_to_dict(result: OracleResult, budget: float) -> dict:
    # mirrors the batch-result summary schema, plus the oracle marker
    return {
        "oracle": True,
        "mode": "at_most_budget",
        "budget": budget,
        "accuracy": result.accuracy,
        "consumed_budget": result.cost,
        "assignment": result.assignment,
    }


def write_json_result(path, doc: dict) -> None:
    atomic_write_text(path, dumps_canonical(doc))


def write_per_instance_csv(path, result: BatchResult, labels=None, instance_ids=None) -> None:
    """One row per instance: id, exit head, prediction, cost (+ correctness)."""
    has_labels = labels is not None
    ids = (
        np.arange(result.batch_size)
        if instance_ids is None
        else np.asarray(instance_ids)
    )
    header = "instance_id,exit_head,prediction,cost"
    if has_labels:
        labels = np.asarray(labels)
        header += ",correct"
    lines = [header]
    for i in range(result.batch_size):
        line = (
            f"{int(ids[i])},{int(result.exits[i])},{int(result.predictions[i])},"
            f"{format(result.per_instance_cost[i], '.17g')}"
        )
        if has_labels:
            line += f",{int(result.predictions[i] - 1 == labels[i])}"
        lines.append(line)
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_sweep_csv(path, rows: list[dict]) -> None:
    """Accuracy/consumption rows per (budget, source) of a budget sweep."""
    lines = [",".join(SWEEP_HEADER)]
    for row in rows:
        lines.append(
            ",".join(
                (
                    format_float(row["budget"]),
                    format_float(row["accuracy"]),
                    format_float(row["consumed"]),
                    "true" if row["within_budget"] else "false",
                    str(row["source"]),
                )
            )
        )
    atomic_write_text(path, "\n".join(lines) + "\n")
