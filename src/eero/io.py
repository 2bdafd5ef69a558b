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

Parsed tables are cached, in the manner of `__pycache__`: each CSV is
read once as bytes, and a `.eero_cache/<file name>.table` entry beside
it holds the SHA-256 of those bytes and the (ids, values) table parsed
from them.  An entry is used only when that digest, its format version
and its own CRC-32 all match, so an edit is seen whatever the file's
size and mtime; anything else is parsed again and the entry replaced.
Every check on the table (id order, label range, class count, ids
across heads) runs on cached tables too, a file that fails to parse is
never cached, a directory that cannot be written is simply not cached
in, and deleting `.eero_cache/` is always safe.  `write_dataset` seeds
the entry of each CSV it writes from the table it wrote, so the first
read after it parses nothing.

All writers are deterministic (stable field order, floats rendered with
17 significant digits, which round-trips IEEE doubles exactly) and
atomic (temp file then rename), so partially written files never
replace good ones and byte-identical reruns are byte-identical on disk.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import json
import math
import os
import struct
import warnings
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from io import BytesIO, TextIOWrapper
from itertools import islice
from pathlib import Path

import numpy as np

from .domain import (
    AllocationResult,
    BatchResult,
    BudgetSpec,
    ExitPolicy,
    HeadBank,
    HeadSlice,
    within_budget,
)
from .errors import MissingLabels, ParseError, ShapeMismatch
from .inference import BudgetReport
from .oracle import OracleResult, build_correctness
from .scoring import ScoreSpec
from .synth import SynthData

MANIFEST_NAME = "manifest.json"
SPLIT_NAMES = ("train", "calib", "test")
_INT64 = np.iinfo(np.int64)


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
    if "." not in s and "e" not in s:  # "g" writes a lowercase exponent
        s += ".0"
    return s


def _render_each(values, render) -> list[str]:
    """`render` of each float of `values`, flattened, called once per distinct value.

    Values are keyed by their bits, so -0.0 and 0.0 are rendered apart.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).ravel().view(np.uint64)
    keys, which = np.unique(bits, return_inverse=True)
    texts = [render(v) for v in keys.view(np.float64).tolist()]
    return list(map(texts.__getitem__, which.tolist()))


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
        if obj.ndim == 1 and obj.dtype.kind == "f":
            return "[" + ", ".join(_render_each(obj, format_float)) + "]"
        if obj.ndim == 1 and obj.dtype.kind in "iu":
            # one join over Python scalars, not one _render call per element
            return "[" + ", ".join(map(str, obj.tolist())) + "]"
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


def atomic_write_bytes(path, data: bytes) -> None:
    """Write via a temp file in the same directory, then rename over.

    The temp file is created as `open()` creates one, mode 0o666 less the
    umask, so the written file gets the usual mode.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    """UTF-8 text with "\\n" line ends, written by `atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode("utf-8"))


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

CACHE_DIR = ".eero_cache"
_CACHE_VERSION = 1
_CACHE_MAGIC = b"EEROCSV\n"
# magic, format version, value dtype, rows, columns, SHA-256 of the source
# bytes: 64 bytes, so the arrays that follow stay 8-byte aligned
_CACHE_HEAD = struct.Struct("<8sI4sQQ32s")


class _CsvSource:
    """One CSV file, read once: its bytes, their cache key, its parse cache entry.

    The entry lives in `CACHE_DIR` beside the file, one per file name.  It
    holds the format version, the SHA-256 of the file's bytes (gzip
    compressed or not), the parsed (ids, values) table and a CRC-32 of all
    of that.  `cached` returns the table only when every one of those
    matches, so a stale, foreign, truncated or corrupt entry reads as a
    miss.  `store` replaces the entry atomically and skips it silently
    when the directory cannot be written.
    """

    def __init__(self, path, raw: bytes | None = None):
        """`raw` is the file's bytes when the caller has them, else they are read."""
        self.path = Path(path)
        self.raw = self.path.read_bytes() if raw is None else raw
        self.key = hashlib.sha256(self.raw).digest()
        self.entry = self.path.parent / CACHE_DIR / (self.path.name + ".table")

    @contextmanager
    def open(self):
        """Text handle on the bytes; damage raises ParseError naming the file.

        Decoding and decompression happen as the handle is read, a chunk
        at a time, so a damaged file is reported from inside the block.
        """
        binary = BytesIO(self.raw)
        # sniff the gzip magic so compressed files work under any name
        if self.raw[:2] == b"\x1f\x8b":
            binary = gzip.GzipFile(fileobj=binary)
        try:
            with TextIOWrapper(binary, encoding="utf-8", newline="") as fh:
                yield fh
        except _DAMAGED as e:
            raise ParseError(f"unreadable file: {e}", file=str(self.path)) from None

    def cached(self, value_type) -> tuple[np.ndarray, np.ndarray] | None:
        """The cached (ids, values) of these bytes, or None."""
        try:
            with open(self.entry, "rb") as fh:
                # read straight into a writable buffer: arrays as a parse returns, one copy
                buf = bytearray(os.fstat(fh.fileno()).st_size)
                if fh.readinto(buf) != len(buf):
                    return None  # the file shrank while being read
        except OSError:
            return None
        dtype = np.dtype(value_type).newbyteorder("<")
        if len(buf) < _CACHE_HEAD.size + 4:
            return None
        magic, version, kind, rows, cols, key = _CACHE_HEAD.unpack_from(buf)
        body = _CACHE_HEAD.size + 8 * rows * (1 + cols)
        if (
            (magic, version, kind, key)
            != (_CACHE_MAGIC, _CACHE_VERSION, dtype.str.encode().ljust(4, b"\0"), self.key)
            or len(buf) != body + 4
            or zlib.crc32(memoryview(buf)[:body]) != int.from_bytes(buf[body:], "little")
        ):
            return None
        ids = np.frombuffer(buf, "<i8", rows, _CACHE_HEAD.size)
        values = np.frombuffer(buf, dtype, rows * cols, _CACHE_HEAD.size + 8 * rows)
        return (
            ids.astype(np.int64, copy=False),
            values.reshape(rows, cols).astype(value_type, copy=False),
        )

    def store(self, ids: np.ndarray, values: np.ndarray) -> None:
        """Cache a parsed table under these bytes' key; an OSError skips it."""
        dtype = values.dtype.newbyteorder("<")
        rows, cols = values.shape
        body = b"".join((
            _CACHE_HEAD.pack(
                _CACHE_MAGIC, _CACHE_VERSION, dtype.str.encode(), rows, cols, self.key
            ),
            ids.astype("<i8").tobytes(),
            values.astype(dtype).tobytes(),
        ))
        try:
            atomic_write_bytes(self.entry, body + zlib.crc32(body).to_bytes(4, "little"))
        except OSError:
            pass  # a read-only data directory just goes uncached


def _read_rows(src: _CsvSource, header_ok, header_text: str, parse_row) -> tuple[np.ndarray, list]:
    """The row loop shared by the CSV readers; returns (ids, parsed rows).

    Checks the header with `header_ok`, skips blank lines, and requires
    every row to have the header's width and an integer instance id in
    column 1.  `parse_row(cells)` returns the row's value; it reports a
    bad cell by raising ParseError with `col` set, and the row and file
    are added here.
    """
    path = src.path
    ids: list[int] = []
    rows: list = []
    with src.open() as fh:
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


def _row_number(src: _CsvSource, index: int) -> int:
    """The row number `_read_rows` gives the data row at 0-based `index`.

    Blank lines count as rows but hold no data, so a table's index alone
    does not give the row; this reads the bytes again to find it.
    """
    with src.open() as fh:
        rows = enumerate(csv.reader(fh), start=1)
        next(rows)  # the header
        return next(islice((n for n, cells in rows if cells), index, None))


def _load_table(src: _CsvSource, header_ok, value_type) -> tuple[np.ndarray, np.ndarray] | None:
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
    with src.open() as fh:
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
    context on the first violation.  The table comes from the parse
    cache when it holds these bytes; the id check runs either way, and
    only a table that passes it is cached.
    """
    src = _CsvSource(path)
    table = src.cached(np.float64)
    fresh = table is None
    if fresh:
        table = _load_table(src, _probs_header_ok, np.float64)
    if table is None:
        ids, rows = _read_rows(src, _probs_header_ok, "instance_id,p_1,...,p_K", _parse_probs)
        table = ids, np.asarray(rows, dtype=np.float64)
    ids = table[0]
    # compared, not subtracted: a difference of int64 ids can overflow
    unsorted = np.flatnonzero(ids[1:] <= ids[:-1])
    if unsorted.size:
        row = _row_number(src, int(unsorted[0]) + 1)
        raise ParseError("instance ids must be strictly increasing", file=str(path), row=row)
    if fresh:
        src.store(*table)
    return table


def read_labels_csv(path, num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Parse labels; returns (ids, labels) with labels shifted to 0-based.

    The parse cache holds the labels as written, so the range check
    against `num_classes` runs on every read; a label outside it is
    reported by the row loop with its row and column.
    """
    src = _CsvSource(path)
    table = src.cached(np.int64)
    fresh = table is None
    if fresh:
        table = _load_table(src, _labels_header_ok, np.int64)
    if table is not None:
        ids, labels = table[0], table[1][:, 0]
        if 1 <= labels.min() and labels.max() <= num_classes:
            if fresh:
                src.store(*table)
            return ids, labels - 1
    ids, labels = _read_rows(
        src, _labels_header_ok, "instance_id,label", partial(_parse_label, num_classes=num_classes)
    )
    labels = np.asarray(labels, dtype=np.int64)
    src.store(ids, labels[:, None] + 1)
    return ids, labels


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
            np.asarray(split.instance_ids)
            if split.instance_ids is not None
            else np.arange(bank.num_instances)
        )
        heads_meta = []
        for head in range(bank.num_heads):
            fname = f"{name}_head_{head + 1}.csv"
            probs = bank.heads[head].probs
            header = "instance_id," + ",".join(f"p_{j}" for j in range(1, probs.shape[1] + 1))
            _write_table_csv(out / fname, header, ids, probs)
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
            labels = np.asarray(split.labels, dtype=np.int64) + 1
            _write_table_csv(out / lname, "instance_id,label", ids, labels[:, None])
            entry["labels_csv"] = lname
        manifest["splits"][name] = entry
    manifest_path = out / MANIFEST_NAME
    atomic_write_text(manifest_path, dumps_canonical(manifest))
    return manifest_path


def _write_table_csv(path, header: str, ids: np.ndarray, values: np.ndarray) -> None:
    """Write an id-keyed float64 or int64 table as CSV and seed its parse cache.

    Each row is one `%` operation: `%d` renders an int as `str` does and
    `%.17g` a float as `format(v, ".17g")` does.  17 significant digits
    round-trip every float64, so the (ids, values) in hand are the table
    a read of the written bytes parses, and the entry is stored under
    those bytes' digest without reading them back.  Ids of a non-integer
    dtype are written as `%d` renders them but not cached, since they are
    not that table.
    """
    cell = "%.17g" if values.dtype.kind == "f" else "%d"
    fmt = "%d," + ",".join([cell] * values.shape[1])
    lines = [header, *(fmt % (i, *row) for i, row in zip(ids.tolist(), values.tolist()))]
    raw = ("\n".join(lines) + "\n").encode("utf-8")
    atomic_write_bytes(path, raw)
    if ids.dtype.kind == "i":
        _CsvSource(path, raw).store(ids, values)


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
    ids = (
        np.arange(result.batch_size)
        if instance_ids is None
        else np.asarray(instance_ids)
    )
    header = "instance_id,exit_head,prediction,cost"
    fmt = "%d,%d,%d,%s"
    columns = [
        ids.tolist(),
        result.exits.tolist(),
        result.predictions.tolist(),
        # costs take one value per head: each is rendered once
        _render_each(result.per_instance_cost, "%.17g".__mod__),
    ]
    if labels is not None:
        header += ",correct"
        fmt += ",%d"
        correct = result.predictions - 1 == np.asarray(labels)
        columns.append(correct.astype(np.int64).tolist())
    lines = [header, *(fmt % row for row in zip(*columns))]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_sweep_csv(path, rows) -> None:
    """One line per (budget, accuracy, consumed, source) row of a budget sweep.

    `within_budget` is derived from each row's budget and consumption by
    the budget rule, `domain.within_budget`.
    """
    lines = ["budget,accuracy,consumed,within_budget,source"]
    # budgets repeat on every row of their group and head rows in every group:
    # each distinct value is rendered once
    texts = _render_each([row[:3] for row in rows], format_float)
    for i, (budget, _, consumed, source) in enumerate(rows):
        fits = "true" if within_budget(consumed, budget) else "false"
        lines.append(",".join((*texts[3 * i : 3 * i + 3], fits, source)))
    atomic_write_text(path, "\n".join(lines) + "\n")
