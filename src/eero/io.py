"""File formats: manifests, probability CSVs, policies, results, sweeps.

A dataset on disk is a JSON manifest naming, per split (train, calib,
test), one probability CSV per head with its cumulative budget and an
optional precomputed risk, plus optional label CSVs.  Probability CSVs
carry a `instance_id,p_1,...,p_K` header and rows sorted by instance
id; gzip-compressed files are detected by magic bytes and read
transparently.  Labels are 1-based on disk and 0-based in memory.

`load_manifest` checks the whole manifest document first, then reads
the CSVs of the requested splits only.  Each CSV is parsed by
`np.loadtxt` when its body is plain numeric rows; anything else (quoted
cells, CR-only line ends, Python-only number syntax, a bad cell) falls
back to a `csv`-module row loop, which accepts exactly the same files
and reports the first fault with its file, row and column.  A file that
is not UTF-8 or whose gzip stream is damaged is a ParseError naming it.

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
import warnings
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
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
_INT64 = np.iinfo(np.int64)
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


# what reading a damaged file raises: bytes that are not UTF-8, a gzip
# stream cut short, a corrupt deflate stream, a bad gzip header
_DAMAGED = (UnicodeDecodeError, EOFError, zlib.error, gzip.BadGzipFile)


@contextmanager
def _open_text(path):
    """Text handle on a plain or gzipped file; damage raises ParseError.

    Decoding and decompression happen as the handle is read, so a damaged
    file is reported from inside the block, naming the file.
    """
    # sniff the gzip magic so compressed files work under any name
    with open(path, "rb") as raw:
        magic = raw.read(2)
    opener = gzip.open if magic == b"\x1f\x8b" else open
    try:
        with opener(path, "rt", encoding="utf-8", newline="") as fh:
            yield fh
    except _DAMAGED as e:
        raise ParseError(f"unreadable file: {e}", file=str(path)) from None


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
            if not _INT64.min <= ids[-1] <= _INT64.max:
                raise ParseError(
                    f"instance_id {cells[0]!r} does not fit a 64-bit integer",
                    file=str(path),
                    row=rownum,
                    col=1,
                )
            try:
                rows.append(parse_row(cells))
            except ParseError as e:
                raise ParseError(e.args[0], file=str(path), row=rownum, col=e.col) from None
    if not rows:
        raise ParseError("no data rows", file=str(path), row=1)
    return np.asarray(ids, dtype=np.int64), rows


def _load_table(path, header_ok, value_type) -> tuple[np.ndarray, np.ndarray] | None:
    """C-speed parse of a CSV of plain numeric rows; None when it cannot vouch.

    Returns (ids, values), values shaped (rows, header width - 1) and of
    `value_type`.  `np.loadtxt` accepts a subset of what `_read_rows`
    accepts (no underscores, quotes, non-ASCII digits or CR-only line
    ends) and parses the same numbers to the same bits, so on any
    ValueError or an empty body this returns None and the caller runs
    `_read_rows`, which also finds and reports the fault.  Some numpy
    releases parse an integer field such as "0.5" through float and
    truncate it with only a DeprecationWarning; that warning is raised
    here, so such a field falls back on every numpy release.
    """
    with _open_text(path) as fh:
        try:
            header = next(csv.reader([fh.readline()]), None)
        except csv.Error:
            return None
        if header is None or not header_ok(header):
            return None
        dtype = [("id", np.int64), ("values", value_type, (len(header) - 1,))]
        with warnings.catch_warnings():
            # an empty body warns "input contained no data"; the fallback reports it
            warnings.simplefilter("ignore", UserWarning)
            warnings.simplefilter("error", DeprecationWarning)
            try:
                table = np.loadtxt(
                    fh, dtype=dtype, delimiter=",", comments=None, quotechar=None, ndmin=1
                )
            except (ValueError, DeprecationWarning):
                return None
    if table.size == 0:
        return None
    return np.ascontiguousarray(table["id"]), np.ascontiguousarray(table["values"])


def _probs_header_ok(header: list[str]) -> bool:
    return (
        len(header) >= 2
        and header[0] == "instance_id"
        and header[1:] == [f"p_{j}" for j in range(1, len(header))]
    )


def _parse_probs(cells: list[str]) -> list[float]:
    values = []
    for col, cell in enumerate(cells[1:], start=2):
        try:
            values.append(float(cell))
        except ValueError:
            raise ParseError(f"cell {cell!r} is not a number", col=col) from None
    return values


def _labels_header_ok(header: list[str]) -> bool:
    return header == ["instance_id", "label"]


def _parse_label(cells: list[str], num_classes: int) -> int:
    try:
        lab = int(cells[1])
    except ValueError:
        raise ParseError(f"label {cells[1]!r} is not an integer", col=2) from None
    if not (1 <= lab <= num_classes):
        raise ParseError(f"label {lab} outside 1..{num_classes}", col=2)
    return lab - 1


def read_probs_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse one head's probability rows; returns (ids, probs).

    Enforces the exact header, rectangular float rows and strictly
    increasing instance ids.  Raises ParseError with file/row/column
    context on the first violation.
    """
    table = _load_table(path, _probs_header_ok, np.float64)
    if table is None:
        ids, rows = _read_rows(path, _probs_header_ok, "instance_id,p_1,...,p_K", _parse_probs)
        table = ids, np.asarray(rows, dtype=np.float64)
    id_arr = table[0]
    if np.any(np.diff(id_arr) <= 0):
        where = int(np.argmax(np.diff(id_arr) <= 0)) + 3  # header + 1-based + next row
        raise ParseError(
            "instance ids must be strictly increasing", file=str(path), row=where
        )
    return table


def read_labels_csv(path, num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Parse labels; returns (ids, labels) with labels shifted to 0-based."""
    table = _load_table(path, _labels_header_ok, np.int64)
    if table is not None:
        ids, labels = table[0], table[1][:, 0]
        if 1 <= labels.min() and labels.max() <= num_classes:
            return ids, labels - 1
    ids, labels = _read_rows(
        path, _labels_header_ok, "instance_id,label", partial(_parse_label, num_classes=num_classes)
    )
    return ids, np.asarray(labels, dtype=np.int64)


# ---------------------------------------------------------------------------
# manifest


def load_manifest(path, splits=SPLIT_NAMES) -> Dataset:
    """Load a dataset manifest and the files of the splits named in `splits`.

    The whole manifest document is checked first, every declared split
    included, so a bad manifest fails alike whichever splits are asked
    for.  Then only the requested splits' CSVs are read; a requested
    split that the manifest does not declare is absent from the result.
    """
    path = Path(path)
    if path.is_dir():
        path = path / MANIFEST_NAME
    if not path.exists():
        raise FileNotFoundError(str(path))
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
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
    entries = {}
    budgets_seen: list[float] | None = None
    for name in SPLIT_NAMES:
        if name not in raw_splits:
            continue
        heads, labels_csv = _split_entry(raw_splits[name], name, path)
        budgets = [budget for _, budget, _ in heads]
        if budgets_seen is None:
            budgets_seen = budgets
        elif budgets != budgets_seen:
            raise ParseError(
                f"split {name!r} declares different budgets than earlier splits",
                file=str(path),
            )
        entries[name] = heads, labels_csv
    return Dataset(
        num_classes=k,
        splits={
            name: _read_split(path, name, heads, labels_csv, k)
            for name, (heads, labels_csv) in entries.items()
            if name in splits
        },
    )


def _split_entry(entry, name: str, path) -> tuple[list, str | None]:
    """A split's checked manifest entry: [(probs_csv, budget, risk)] per head, labels_csv."""
    heads_meta = entry.get("heads") if isinstance(entry, dict) else None
    if not isinstance(heads_meta, list) or len(heads_meta) < 2:
        raise ParseError(f"split {name!r} needs a list of >= 2 heads", file=str(path))
    heads = []
    for idx, meta in enumerate(heads_meta, start=1):
        where = f"head {idx} of split {name!r}"
        if not (
            isinstance(meta, dict)
            and isinstance(meta.get("probs_csv"), str)
            and "budget_gflops" in meta
        ):
            raise ParseError(
                f"{where} needs a probs_csv file name and a budget_gflops", file=str(path)
            )
        budget = _manifest_number(meta["budget_gflops"], f"budget_gflops of {where}", path)
        risk = meta.get("risk")
        if risk is not None:
            risk = _manifest_number(risk, f"risk of {where}", path)
            if not (0.0 <= risk <= 1.0):
                raise ParseError(
                    f"risk of {where} must lie in [0, 1], got {risk}", file=str(path)
                )
        heads.append((meta["probs_csv"], budget, risk))
    labels_csv = entry.get("labels_csv")
    if labels_csv is not None and not isinstance(labels_csv, str):
        raise ParseError(
            f"labels_csv of split {name!r} must be a file name, got {labels_csv!r}",
            file=str(path),
        )
    return heads, labels_csv


def _read_split(path, name: str, heads: list, labels_csv: str | None, k: int) -> Split:
    """Read one split's CSVs, named relative to the manifest at `path`."""
    base = path.parent
    slices = []
    split_ids: np.ndarray | None = None
    for probs_csv, budget, risk in heads:
        ids, probs = read_probs_csv(base / probs_csv)
        if probs.shape[1] != k:
            raise ParseError(
                f"{probs_csv} has {probs.shape[1]} classes, manifest declares {k}",
                file=str(path),
            )
        if split_ids is None:
            split_ids = ids
        elif not np.array_equal(split_ids, ids):
            raise ParseError(
                f"instance ids of split {name!r} differ between heads", file=str(path)
            )
        slices.append(HeadSlice(probs=probs, budget_gflops=budget, risk=risk))
    labels = None
    if labels_csv:
        lab_ids, labels = read_labels_csv(base / labels_csv, k)
        if not np.array_equal(lab_ids, split_ids):
            raise ParseError(
                f"label ids of split {name!r} do not match its probs ids", file=str(path)
            )
    return Split(bank=HeadBank(heads=tuple(slices)), labels=labels, instance_ids=split_ids)


def _manifest_number(value, what: str, path) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise ParseError(f"{what} must be a finite number, got {value!r}", file=str(path))
    return number


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
    """Per-head misclassification rate of the heads' argmax predictions."""
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
        seed=doc["seed"],
        seq_rates=np.asarray(doc["seq_rates"], dtype=np.float64),
        thresholds=np.asarray(doc["thresholds"], dtype=np.float64),
        calibration_size=doc["calibration_size"],
    )
    # the pinned scoring configuration must itself be valid
    ScoreSpec(kind=policy.score_kind, jitter_u=policy.jitter_u, seed=policy.seed)
    return policy


def budget_from_dict(doc: dict) -> BudgetSpec:
    """The budget a policy was calibrated for, from its `budget_spec` entry.

    Raises ValueError (InvalidSpec for out-of-range values) when the entry
    is malformed.
    """
    if not isinstance(doc, dict) or not {"total_budget", "batch_size"} <= doc.keys():
        raise ValueError("budget_spec needs total_budget and batch_size")
    return BudgetSpec(total_budget=doc["total_budget"], batch_size=doc["batch_size"])


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
        if "budget_spec" in doc:
            budget_from_dict(doc["budget_spec"])
    except (KeyError, TypeError, ValueError, OverflowError, ShapeMismatch) as e:
        # ValueError covers bad JSON and the policy's and budget's own validators;
        # OverflowError an infinite or out-of-range integer field
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
