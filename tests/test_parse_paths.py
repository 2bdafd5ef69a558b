"""The two CSV parse paths agree: np.loadtxt when it can vouch, else the row loop.

A table from `io._load_table` that the readers take (ids strictly
increasing, values passing the kind's check) must come from a file that
`io._read_rows` accepts, with the same ids and the same bits.  Every
other file falls back to the row loop, so the public readers raise the
row loop's ParseError with its message, row and column.

The parse cache (`io.CACHE_DIR` beside each file) must not change any of
that: every public read here runs twice, cold and then warm, and the warm
read must return the same bits without parsing, or fail alike.
"""

import builtins
import gzip
import hashlib
import io
import json
import math
import os
import shutil
import threading
import time
import warnings
import zlib
from contextlib import contextmanager
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eero import io as eio
from eero.domain import HeadBank, HeadSlice
from eero.errors import ParseError
from eero.synth import SynthSpec, generate

K = 3  # classes of the label files; the probability files have 2 columns
PH = "instance_id,p_1,p_2"
LH = "instance_id,label"
LOADS = "loads"
FALLS_BACK = "falls back"  # the fast path must refuse; the row loop loads


def _err(message, row, col=None):
    return message, row, col


# name: ((probs text, outcome), (labels text, outcome)); an outcome is
# LOADS, FALLS_BACK or the (message, row, col) of the expected ParseError
CASES = {
    "plain": ((f"{PH}\n0,0.25,0.75\n1,0.5,0.5\n", LOADS), (f"{LH}\n0,1\n1,3\n", LOADS)),
    "crlf": (
        (f"{PH}\r\n0,0.25,0.75\r\n1,0.5,0.5\r\n", LOADS),
        (f"{LH}\r\n0,1\r\n1,3\r\n", LOADS),
    ),
    "cr_only": ((f"{PH}\r0,0.25,0.75\r1,0.5,0.5\r", LOADS), (f"{LH}\r0,1\r1,3\r", LOADS)),
    "no_trailing_newline": (
        (f"{PH}\n0,0.25,0.75\n1,0.5,0.5", LOADS),
        (f"{LH}\n0,1\n1,3", LOADS),
    ),
    "blank_lines": (
        (f"{PH}\n\n0,0.25,0.75\n\n\n1,0.5,0.5\n\n", LOADS),
        (f"{LH}\n\n0,1\n\r\n1,3\n\n", LOADS),
    ),
    "whitespace_line": (
        (f"{PH}\n0,0.25,0.75\n  \t\n1,0.5,0.5\n", _err("expected 3 columns, got 1", 3)),
        (f"{LH}\n0,1\n \n1,3\n", _err("expected 2 columns, got 1", 3)),
    ),
    "padded_cells": (
        (f"{PH}\n 0 , 0.25\t,\t0.75 \n1,0.5,0.5\n", LOADS),
        (f"{LH}\n 0 ,\t1 \n1,3\n", LOADS),
    ),
    "quoted_cell": (
        (f'{PH}\n0,"0.25",0.75\n1,0.5,0.5\n', FALLS_BACK),
        (f'{LH}\n0,"1"\n1,3\n', FALLS_BACK),
    ),
    "hash_in_cell": (
        (f"{PH}\n0,0.25#x,0.75\n1,0.5,0.5\n", _err("cell '0.25#x' is not a number", 2, 2)),
        (f"{LH}\n0,1#x\n1,3\n", _err("label '1#x' is not an integer", 2, 2)),
    ),
    "underscore": (
        (f"{PH}\n0,0.2_5,0.75\n1,0.5,0.5\n", FALLS_BACK),
        (f"{LH}\n0,0_1\n1_0,3\n", FALLS_BACK),
    ),
    "hexfloat": (
        (f"{PH}\n0,0x1p-2,0.75\n1,0.5,0.5\n", _err("cell '0x1p-2' is not a number", 2, 2)),
        (f"{LH}\n0,0x1\n1,3\n", _err("label '0x1' is not an integer", 2, 2)),
    ),
    "d_exponent": (
        (f"{PH}\n0,2.5D-1,0.75\n1,0.5,0.5\n", _err("cell '2.5D-1' is not a number", 2, 2)),
        (f"{LH}\n0,1D0\n1,3\n", _err("label '1D0' is not an integer", 2, 2)),
    ),
    "nan_inf": (
        (f"{PH}\n0,nan,-inf\n1,-nan,Infinity\n", LOADS),
        (f"{LH}\n0,nan\n1,inf\n", _err("label 'nan' is not an integer", 2, 2)),
    ),
    "id_plus_zero": (
        (f"{PH}\n+0,0.25,0.75\n1,0.5,0.5\n", LOADS),
        (f"{LH}\n+0,1\n1,3\n", LOADS),
    ),
    "id_float": (
        (f"{PH}\n0.0,0.25,0.75\n1,0.5,0.5\n", _err("instance_id '0.0' is not an integer", 2, 1)),
        (f"{LH}\n0.0,1\n1,3\n", _err("instance_id '0.0' is not an integer", 2, 1)),
    ),
    "id_fraction": (
        (f"{PH}\n0.5,0.25,0.75\n1,0.5,0.5\n", _err("instance_id '0.5' is not an integer", 2, 1)),
        (f"{LH}\n0,1\n0.5,3\n", _err("instance_id '0.5' is not an integer", 3, 1)),
    ),
    "id_exponent": (
        (f"{PH}\n0,0.25,0.75\n1e20,0.5,0.5\n", _err("instance_id '1e20' is not an integer", 3, 1)),
        (f"{LH}\n1e20,1\n", _err("instance_id '1e20' is not an integer", 2, 1)),
    ),
    "id_nan": (
        (f"{PH}\nnan,0.25,0.75\n", _err("instance_id 'nan' is not an integer", 2, 1)),
        (f"{LH}\n0,1\nnan,3\n", _err("instance_id 'nan' is not an integer", 3, 1)),
    ),
    "label_fraction": (
        (f"{PH}\n0,0.25,0.75\n", LOADS),
        (f"{LH}\n0,1\n1,2.7\n", _err("label '2.7' is not an integer", 3, 2)),
    ),
    "id_int64_max": (
        (f"{PH}\n0,0.25,0.75\n9223372036854775807,0.5,0.5\n", LOADS),
        (f"{LH}\n0,1\n9223372036854775807,3\n", LOADS),
    ),
    "id_beyond_int64": (
        (
            f"{PH}\n0,0.25,0.75\n99999999999999999999,0.5,0.5\n",
            _err("instance_id '99999999999999999999' does not fit a 64-bit integer", 3, 1),
        ),
        (
            f"{LH}\n0,1\n99999999999999999999,3\n",
            _err("instance_id '99999999999999999999' does not fit a 64-bit integer", 3, 1),
        ),
    ),
    "ragged_row": (
        (f"{PH}\n0,0.25,0.75\n1,0.5\n", _err("expected 3 columns, got 2", 3)),
        (f"{LH}\n0,1\n1\n", _err("expected 2 columns, got 1", 3)),
    ),
    "extra_column": (
        (f"{PH}\n0,0.25,0.75,0.0\n1,0.5,0.5\n", _err("expected 3 columns, got 4", 2)),
        (f"{LH}\n0,1,2\n1,3\n", _err("expected 2 columns, got 3", 2)),
    ),
    "empty_cell": (
        (f"{PH}\n0,,0.75\n1,0.5,0.5\n", _err("cell '' is not a number", 2, 2)),
        (f"{LH}\n0,\n1,3\n", _err("label '' is not an integer", 2, 2)),
    ),
    "header_only": (
        (f"{PH}\n", _err("no data rows", 1)),
        (f"{LH}\n", _err("no data rows", 1)),
    ),
    "blank_only": (
        (f"{PH}\n\n\r\n\n", _err("no data rows", 1)),
        (f"{LH}\n\n\n", _err("no data rows", 1)),
    ),
    "bom": (
        (f"\ufeff{PH}\n0,0.25,0.75\n", _err("header must be instance_id,p_1,...,p_K", 1)),
        (f"\ufeff{LH}\n0,1\n", _err("header must be instance_id,label", 1)),
    ),
    "unsorted_ids": (
        (f"{PH}\n1,0.25,0.75\n0,0.5,0.5\n", _err("instance ids must be strictly increasing", 3)),
        (f"{LH}\n1,1\n0,3\n", _err("instance ids must be strictly increasing", 3)),
    ),
    # ids 5 then 3 with blank lines between: the fault is the row of the 3, as
    # the row loop counts rows, whichever path parsed the file
    "unsorted_ids_after_blank_lines": (
        (f"{PH}\n5,0.25,0.75\n\n\n\n3,0.5,0.5\n", _err("instance ids must be strictly increasing", 6)),
        (f"{LH}\n5,1\n\n\n\n3,3\n", _err("instance ids must be strictly increasing", 6)),
    ),
    "unsorted_ids_after_blank_lines_row_loop": (
        (
            f'{PH}\r\n\r\n5,"0.25",0.75\r\n\r\n7,0.5,0.5\r\n\r\n7,0.5,0.5\r\n',
            _err("instance ids must be strictly increasing", 7),
        ),
        (f'{LH}\r\n\r\n5,"1"\r\n\r\n3,3\r\n', _err("instance ids must be strictly increasing", 5)),
    ),
    # the first fault in row order: the unsorted id of row 3 before the bad cell of row 4
    "unsorted_ids_before_a_bad_cell": (
        (
            f"{PH}\n1,0.25,0.75\n0,0.5,0.5\n2,x,0.5\n",
            _err("instance ids must be strictly increasing", 3),
        ),
        (f"{LH}\n1,1\n0,3\n2,x\n", _err("instance ids must be strictly increasing", 3)),
    ),
    "label_zero": (
        (f"{PH}\n0,0.25,0.75\n", LOADS),
        (f"{LH}\n0,0\n", _err("label 0 outside 1..3", 2, 2)),
    ),
    "label_k_plus_1": (
        (f"{PH}\n0,0.25,0.75\n", LOADS),
        (f"{LH}\n0,1\n1,4\n", _err("label 4 outside 1..3", 3, 2)),
    ),
}

# per kind: (header check, value type, row-loop row parser, public reader,
# the reader's check on a table's values, a table as cached -> as the reader returns it)
KINDS = {
    "probs": (
        eio._probs_header_ok, np.float64, eio._parse_probs, eio.read_probs_csv,
        lambda v: True, lambda table: table,
    ),
    "labels": (
        eio._labels_header_ok,
        np.int64,
        partial(eio._parse_label, num_classes=K),
        partial(eio.read_labels_csv, num_classes=K),
        lambda v: 1 <= v.min() and v.max() <= K,  # labels as written, 1-based
        lambda table: (table[0], table[1][:, 0] - 1),
    ),
}


def _write(tmp_path, text, compressed, name="file.csv"):
    path = tmp_path / name
    data = text.encode("utf-8")
    path.write_bytes(gzip.compress(data, mtime=0) if compressed else data)
    return path


def _slow(path, kind):
    """The row loop's table, as the parse cache stores it."""
    header_ok, value_type, parse_row = KINDS[kind][:3]
    ids, rows = eio._read_rows(eio._CsvSource(path), header_ok, "", parse_row)
    return ids, np.asarray(rows, dtype=value_type)


def _fast(path, kind):
    """np.loadtxt's table when the reader takes it, else None."""
    header_ok, value_type, _, _, values_ok, _ = KINDS[kind]
    table = eio._load_table(eio._CsvSource(path), header_ok, value_type)
    if table is None or not (np.all(table[0][1:] > table[0][:-1]) and values_ok(table[1])):
        return None
    return table


def _public(kind, table):
    return KINDS[kind][5](table)


def _assert_bitwise(a, b):
    for x, y in zip(a, b):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()  # NaN payloads and signed zeros included


def _entry(path):
    return path.parent / eio.CACHE_DIR / (path.name + ".table")


def _outcome(read, path):
    """The reader's table, or the one-line text of its ParseError."""
    try:
        return read(path)
    except ParseError as e:
        return str(e)


@contextmanager
def _no_parsing():
    """Fail every CSV parse, so a read inside must come from the cache."""
    def refuse(*args, **kwargs):
        raise AssertionError("a cached file was parsed")

    with mock.patch.object(eio, "_load_table", refuse), mock.patch.object(eio, "_read_rows", refuse):
        yield


def _read_cold_then_warm(read, path):
    """Read `path` with no cache entry, then again; returns the cold outcome.

    A read that succeeds leaves one entry, the only file in the cache
    directory, and the warm read returns the same bits without parsing.
    A read that fails fails alike twice and leaves no entry.
    """
    entry = _entry(path)
    entry.unlink(missing_ok=True)
    cold = _outcome(read, path)
    if isinstance(cold, str):
        assert not entry.exists()
        assert _outcome(read, path) == cold
        assert not entry.exists()
    else:
        assert os.listdir(entry.parent) == [entry.name]
        with _no_parsing():
            _assert_bitwise(read(path), cold)
    return cold


@pytest.mark.parametrize("compressed", [False, True], ids=["plain", "gzip"])
@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_fast_path_matches_row_loop_or_falls_back(tmp_path, case, kind, compressed):
    text, outcome = CASES[case][0 if kind == "probs" else 1]
    path = _write(tmp_path, text, compressed)
    read = KINDS[kind][3]
    # record rather than raise warnings, so the readers run as in production;
    # none may escape them (loadtxt's "no data" UserWarning included)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fast = _fast(path, kind)
        if outcome in (LOADS, FALLS_BACK):
            slow = _slow(path, kind)
            if outcome == FALLS_BACK:
                assert fast is None
            if fast is not None:
                _assert_bitwise(fast, slow)
            _assert_bitwise(_read_cold_then_warm(read, path), _public(kind, slow))
            # the entry holds the row loop's table, whichever path parsed the file
            _assert_bitwise(eio._CsvSource(path).cached(KINDS[kind][1]), slow)
        else:
            message, row, col = outcome
            with pytest.raises(ParseError) as e:
                read(path)
            assert (e.value.file, e.value.row, e.value.col) == (str(path), row, col)
            where = f"{path}, row {row}" + ("" if col is None else f", col {col}")
            assert str(e.value) == f"{message} [{where}]"
            assert _read_cold_then_warm(read, path) == str(e.value)
    assert not caught, [str(w.message) for w in caught]


def test_plain_files_take_the_fast_path(tmp_path):
    for kind, case in (("probs", "plain"), ("labels", "plain"), ("probs", "crlf")):
        text = CASES[case][0 if kind == "probs" else 1][0]
        assert _fast(_write(tmp_path, text, False), kind) is not None


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_truncating_integer_parse_falls_back(tmp_path, kind, monkeypatch):
    # numpy releases that parse an integer field through float warn and
    # truncate instead of raising; the fast path must refuse such a file
    real_loadtxt = np.loadtxt

    def truncating_loadtxt(*args, **kwargs):
        table = real_loadtxt(*args, **kwargs)
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated", DeprecationWarning)
        return table

    monkeypatch.setattr(eio.np, "loadtxt", truncating_loadtxt)
    text = CASES["plain"][0 if kind == "probs" else 1][0]
    path = _write(tmp_path, text, False)
    assert _fast(path, kind) is None
    _assert_bitwise(KINDS[kind][3](path), _public(kind, _slow(path, kind)))


CELL = st.text(alphabet="0123456789+-.eEinfaINFx_ #\"\t", max_size=6)
ROW = st.lists(CELL, min_size=1, max_size=4).map(",".join)
BODY = st.tuples(
    st.lists(
        st.one_of(ROW, st.sampled_from(["", " ", "0,0.5,0.5", "1,1e-3,1", "2,1", " 3 ,3"])),
        max_size=5,
    ),
    st.sampled_from(["\n", "\r\n", "\r"]),
    st.booleans(),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(body=BODY, kind=st.sampled_from(sorted(KINDS)))
def test_fuzz_fast_path_accepts_only_what_the_row_loop_accepts(tmp_path, body, kind):
    rows, newline, trailing = body
    header = PH if kind == "probs" else LH
    text = newline.join([header, *rows]) + (newline if trailing else "")
    path = _write(tmp_path, text, False)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fast = _fast(path, kind)
        _read_cold_then_warm(KINDS[kind][3], path)
    assert not caught, [str(w.message) for w in caught]
    if fast is not None:
        _assert_bitwise(fast, _slow(path, kind))


# ---------------------------------------------------------------------------
# the parse cache


def test_edit_keeping_size_and_mtime_is_reparsed(tmp_path):
    path = _write(tmp_path, f"{PH}\n0,0.25,0.75\n1,0.5,0.5\n", False)
    eio.read_probs_csv(path)
    before = path.stat()
    path.write_text(f"{PH}\n0,0.75,0.25\n1,0.5,0.5\n")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = path.stat()
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    ids, probs = eio.read_probs_csv(path)
    assert probs.tolist() == [[0.75, 0.25], [0.5, 0.5]]
    with _no_parsing():  # and the entry now holds the edited table
        _assert_bitwise(eio.read_probs_csv(path), (ids, probs))


def _with_crc(body):
    return body + zlib.crc32(body).to_bytes(4, "little")


def _other_size(body):
    """An entry's bytes with the stored size of its source one larger."""
    size = int.from_bytes(body[80:88], "little")
    return body[:80] + (size + 1).to_bytes(8, "little") + body[88:]


# name -> entry bytes -> damaged entry bytes; the "_crc" kinds fix up the
# CRC-32, so only the field named is wrong; an entry whose source status
# alone is wrong ("other_status_crc") is kept by its digest and rewritten
ENTRY_DAMAGE = {
    "payload_byte": lambda b: b[:-12] + bytes([b[-12] ^ 1]) + b[-11:],
    "truncated": lambda b: b[:-1],
    "appended": lambda b: b + b"\0",
    "header_only": lambda b: b[: eio._CACHE_HEAD.size],
    "empty": lambda b: b"",
    "foreign_magic_crc": lambda b: _with_crc(b"NOTEERO\n" + b[8:-4]),
    "foreign_version_crc": lambda b: _with_crc(b[:8] + (99).to_bytes(4, "little") + b[12:-4]),
    "labels_kind_crc": lambda b: _with_crc(b[:12] + b"<i8\0" + b[16:-4]),
    "other_source_crc": lambda b: _with_crc(_other_size(b[:32] + bytes(32) + b[64:-4])),
    "other_status_crc": lambda b: _with_crc(_other_size(b[:-4])),
    "more_rows_crc": lambda b: _with_crc(b[:16] + (3).to_bytes(8, "little") + b[24:-4]),
}


@pytest.mark.parametrize("damage", sorted(ENTRY_DAMAGE))
def test_bad_entry_is_ignored_and_rewritten(tmp_path, damage):
    path = _write(tmp_path, f"{PH}\n0,0.25,0.75\n1,0.5,0.5\n", False)
    cold = eio.read_probs_csv(path)
    good = _entry(path).read_bytes()
    _entry(path).write_bytes(ENTRY_DAMAGE[damage](good))
    _assert_bitwise(eio.read_probs_csv(path), cold)
    assert _entry(path).read_bytes() == good
    assert os.listdir(_entry(path).parent) == [_entry(path).name]


@pytest.mark.parametrize("stale_entry", [False, True], ids=["no_entry", "stale_entry"])
def test_read_only_directory_reads_and_writes_nothing(tmp_path, monkeypatch, stale_entry):
    data = tmp_path / "data"
    data.mkdir()
    text = CASES["plain"][0][0]
    path = _write(data, text.replace("0.25,0.75", "0.75,0.25") if stale_entry else text, False)
    if stale_entry:
        eio.read_probs_csv(path)
        path.write_text(text)
    expected = _slow(path, "probs")
    files = {p: p.read_bytes() for p in data.rglob("*") if p.is_file()}
    dirs = [p for p in data.rglob("*") if p.is_dir()] + [data]
    for d in dirs:
        d.chmod(0o555)
    if os.access(data, os.W_OK):
        # mode bits do not stop root: refuse writes as the kernel does for others
        def refuse(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(eio.os, "open", refuse)
        monkeypatch.setattr(eio.Path, "mkdir", refuse)
    try:
        for _ in range(2):
            _assert_bitwise(eio.read_probs_csv(path), expected)
        monkeypatch.undo()
        assert {p: p.read_bytes() for p in data.rglob("*") if p.is_file()} == files
    finally:
        for d in dirs:
            d.chmod(0o755)


def test_short_read_of_an_entry_is_a_miss(tmp_path, monkeypatch):
    # an entry that shrinks between its size and its read is parsed afresh
    path = _write(tmp_path, f"{PH}\n0,0.25,0.75\n1,0.5,0.5\n", False)
    cold = eio.read_probs_csv(path)
    size = _entry(path).stat().st_size
    real = os.fstat
    monkeypatch.setattr(eio.os, "fstat", lambda fd: os.stat_result((0,) * 6 + (size + 8,) + (0,) * 3))
    assert eio._CsvSource(path).cached(np.float64) is None
    monkeypatch.setattr(eio.os, "fstat", real)
    with _no_parsing():
        _assert_bitwise(eio.read_probs_csv(path), cold)


def test_cached_labels_are_range_checked_on_every_read(tmp_path):
    path = _write(tmp_path, f"{LH}\n0,1\n1,3\n", False)
    _read_cold_then_warm(partial(eio.read_labels_csv, num_classes=3), path)
    for _ in range(2):
        with pytest.raises(ParseError) as e:
            eio.read_labels_csv(path, num_classes=2)
        assert str(e.value) == f"label 3 outside 1..2 [{path}, row 3, col 2]"


def test_id_order_holds_across_the_whole_int64_range(tmp_path):
    # ids further apart than 2**63: their difference does not fit an int64
    lo, hi = -(2**63), 2**63 - 1
    path = _write(tmp_path, f"{PH}\n{lo},0.25,0.75\n0,0.5,0.5\n{hi},1,0\n", False)
    ids, _ = _read_cold_then_warm(eio.read_probs_csv, path)
    assert ids.tolist() == [lo, 0, hi]
    path = _write(tmp_path, f"{PH}\n{hi},0.25,0.75\n{lo},0.5,0.5\n", False)
    assert _read_cold_then_warm(eio.read_probs_csv, path) == (
        f"instance ids must be strictly increasing [{path}, row 3]"
    )


def test_id_order_row_is_the_same_on_a_cache_hit(tmp_path):
    # an entry holding the table of bytes that fail the id check, which a read
    # never stores itself: the entry cannot vouch for it, so the row loop
    # reports the fault, with the row it counts in the bytes
    for kind, text, values in (
        ("probs", f"{PH}\n5,0.25,0.75\n\n\n\n3,0.5,0.5\n", [[0.25, 0.75], [0.5, 0.5]]),
        ("labels", f"{LH}\n5,1\n\n\n\n3,3\n", [[1], [3]]),
    ):
        path = _write(tmp_path, text, False, name=f"{kind}.csv")
        eio._CsvSource(path).store(np.array([5, 3]), np.array(values, dtype=KINDS[kind][1]))
        for _ in range(2):
            with pytest.raises(ParseError) as e:
                KINDS[kind][3](path)
            assert str(e.value) == f"instance ids must be strictly increasing [{path}, row 6]"


# ---------------------------------------------------------------------------
# the entries write_dataset seeds


def _arrays(ds):
    """Every array of a loaded dataset, split by split."""
    arrays = []
    for name in sorted(ds.splits):
        split = ds.splits[name]
        arrays += [split.instance_ids, *(h.probs for h in split.bank.heads)]
        arrays += [] if split.labels is None else [split.labels]
    return arrays


def _assert_first_load_is_seeded(data, out):
    """write_dataset leaves one entry per CSV it writes, and the first load
    parses nothing yet returns the bits of a load with the cache deleted."""
    manifest = eio.write_dataset(data, out)
    csvs = sorted(p.name for p in out.glob("*.csv"))
    assert sorted(os.listdir(out / eio.CACHE_DIR)) == [f"{c}.table" for c in csvs]
    with _no_parsing():
        seeded = _arrays(eio.load_manifest(manifest))
    shutil.rmtree(out / eio.CACHE_DIR)
    cold = _arrays(eio.load_manifest(manifest))
    assert len(seeded) == len(cold)
    _assert_bitwise(seeded, cold)


def test_generated_dataset_loads_from_the_seeded_cache(tmp_path):
    spec = SynthSpec(
        seed=4, num_classes=4, num_heads=3, head_accuracies=(0.6, 0.75, 0.9),
        head_budgets=(1.0, 2.0, 4.0), confidence_sharpness=6.0, sizes=(30, 20, 40),
    )
    _assert_first_load_is_seeded(generate(spec), tmp_path / "data")


# exact zeros, subnormals and the normals at their edge
TINY_PROBS = [0.0, -0.0, 5e-324, 1e-310, float(np.nextafter(np.finfo(np.float64).tiny, 0.0)),
              float(np.finfo(np.float64).tiny), 1e-300]


@st.composite
def _datasets(draw):
    """A calib and a labeled test split over one drawn bank with extreme entries."""
    n, k, m = draw(st.integers(1, 5)), draw(st.integers(2, 4)), draw(st.integers(2, 3))
    small = st.one_of(st.sampled_from(TINY_PROBS), st.floats(0.0, 1.0 / k))
    heads = []
    for budget in range(1, m + 1):
        rows = []
        for _ in range(n):
            row = draw(st.lists(small, min_size=k - 1, max_size=k - 1))
            row.insert(draw(st.integers(0, k - 1)), 1.0 - math.fsum(row))
            rows.append(row)
        heads.append(HeadSlice(probs=np.array(rows), budget_gflops=float(budget)))
    bank = HeadBank(heads=tuple(heads))
    ids = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n, unique=True))
    labels = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return eio.Dataset(num_classes=k, splits={
        "calib": eio.Split(bank=bank),
        "test": eio.Split(bank=bank, labels=np.array(labels), instance_ids=np.array(sorted(ids))),
    })


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_datasets())
def test_drawn_dataset_loads_from_the_seeded_cache(tmp_path, data):
    out = tmp_path / "data"
    shutil.rmtree(out, ignore_errors=True)
    _assert_first_load_is_seeded(data, out)


def test_write_dataset_with_an_unwritable_cache_dir_writes_no_entries(tmp_path):
    data = generate(SynthSpec(
        seed=1, num_classes=3, num_heads=2, head_accuracies=(0.6, 0.8),
        head_budgets=(1.0, 2.0), confidence_sharpness=6.0, sizes=(10, 10, 10),
    ))
    out = tmp_path / "data"
    out.mkdir()
    # a file where the cache directory would go: no entry can be written, even by root
    (out / eio.CACHE_DIR).write_bytes(b"")
    manifest = eio.write_dataset(data, out)
    assert (out / eio.CACHE_DIR).read_bytes() == b""
    loaded = eio.load_manifest(manifest)
    for name, split in eio.as_dataset(data).splits.items():
        heads = zip(loaded.split(name).bank.heads, split.bank.heads)
        _assert_bitwise(*zip(*((a.probs, b.probs) for a, b in heads)))


def test_a_csv_replaced_right_after_its_write_is_not_seeded(tmp_path, monkeypatch):
    # another valid table, of the same size, lands on one CSV right after the
    # rename that placed it: the read-back returns other bytes than were
    # written, so no entry may vouch for the table written
    data = generate(SynthSpec(
        seed=3, num_classes=3, num_heads=2, head_accuracies=(0.6, 0.8),
        head_budgets=(1.0, 2.0), confidence_sharpness=6.0, sizes=(10, 10, 10),
    ))
    out = tmp_path / "data"
    target = out / "calib_head_2.csv"
    real = eio.atomic_write_bytes

    def replacing(path, raw):
        real(path, raw)
        if path == target:  # swap the first row's two leading probabilities
            header, row, rest = raw.decode().split("\n", 2)
            cells = row.split(",")
            cells[1], cells[2] = cells[2], cells[1]
            path.write_text("\n".join([header, ",".join(cells), rest]))

    monkeypatch.setattr(eio, "atomic_write_bytes", replacing)
    manifest = eio.write_dataset(data, out)
    monkeypatch.undo()
    csvs = sorted(p.name for p in out.glob("*.csv"))
    assert sorted(os.listdir(out / eio.CACHE_DIR)) == [f"{c}.table" for c in csvs if c != target.name]
    expected = eio.as_dataset(data).split("calib").bank.heads[1].probs.copy()
    expected[0, [0, 1]] = expected[0, [1, 0]]
    assert not np.array_equal(expected, eio.as_dataset(data).split("calib").bank.heads[1].probs)
    for _ in range(2):  # parsed, then from the entry that load stored
        loaded = eio.load_manifest(manifest).split("calib").bank.heads[1].probs
        _assert_bitwise([loaded], [expected])


def test_an_unsorted_label_csv_is_reported_at_its_own_row(tmp_path):
    manifest = _written(tmp_path / "data")
    labels = manifest.parent / "test_labels.csv"
    lines = labels.read_text().split("\n")
    lines[1], lines[2] = lines[2], lines[1]  # the ids of data rows 1 and 2
    labels.write_text("\n".join(lines))
    # warm (the other files' seeded entries, and the labels' stale one), then
    # cold; a file that fails is never cached
    for cold in (False, False, True):
        if cold:
            shutil.rmtree(manifest.parent / eio.CACHE_DIR)
        with pytest.raises(ParseError) as e:
            eio.load_manifest(manifest)
        assert str(e.value) == f"instance ids must be strictly increasing [{labels}, row 3]"
        assert eio._CsvSource(labels).cached(np.int64) is None


# ---------------------------------------------------------------------------
# what a load reads and hashes


def _written(out):
    """A small three-split dataset written to `out`; returns its manifest path."""
    return eio.write_dataset(generate(SynthSpec(
        seed=2, num_classes=3, num_heads=3, head_accuracies=(0.6, 0.75, 0.9),
        head_budgets=(1.0, 2.0, 4.0), confidence_sharpness=6.0, sizes=(30, 20, 40),
    )), out)


class _Hashes:
    """Stands in for `hashlib`: records the digest of each SHA-256 taken."""

    def __init__(self):
        self.digests = []

    def sha256(self, data):
        sha = hashlib.sha256(data)
        self.digests.append(sha.digest())
        return sha


def _names(data):
    """{SHA-256 of the bytes: file name} of each CSV in `data`."""
    names = {hashlib.sha256(f.read_bytes()).digest(): f.name for f in data.glob("*.csv")}
    assert len(names) == 11  # three heads per split and the train and test labels
    return names


def _past_the_ctimes(data, probe):
    """Return once a file written now gets an mtime later than each CSV's ctime in `data`.

    An entry written in the clock tick of its file's last status change is
    racy and hashed on each load, so a test that counts hashes starts later.
    """
    newest = max(f.stat().st_ctime_ns for f in data.glob("*.csv"))
    probe.touch()
    while probe.stat().st_mtime_ns <= newest:
        time.sleep(0.001)
        probe.touch()


def test_write_dataset_stores_the_status_of_each_placed_file(tmp_path):
    # taken after the rename that moved the file's ctime, so a load can trust it
    data = _written(tmp_path / "data").parent
    for csv_path in data.glob("*.csv"):
        stored = eio._CACHE_HEAD.unpack_from(_entry(csv_path).read_bytes())[6:]
        assert tuple(stored) == eio._status(csv_path.stat())


def test_a_warm_load_hashes_nothing_and_opens_no_csv(tmp_path, monkeypatch):
    manifest = _written(tmp_path / "data")
    _past_the_ctimes(manifest.parent, tmp_path / "probe")
    refreshed = _arrays(eio.load_manifest(manifest))
    hashes = _Hashes()
    monkeypatch.setattr(eio, "hashlib", hashes)
    opened = []
    real_open = builtins.open

    def recording_open(file, *args, **kwargs):
        opened.append(os.fsdecode(file) if isinstance(file, (str, bytes, os.PathLike)) else file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    monkeypatch.setattr(io, "open", recording_open)
    with _no_parsing():
        warm = _arrays(eio.load_manifest(manifest))
    monkeypatch.undo()
    assert hashes.digests == []
    assert [f for f in opened if str(f).endswith(".csv")] == []
    assert sum(str(f).endswith(".csv.table") for f in opened) == 11  # the patch sees the opens
    _assert_bitwise(warm, refreshed)


def test_a_racy_entry_is_hashed_once_and_refreshed(tmp_path, monkeypatch):
    manifest = _written(tmp_path / "data")
    data = manifest.parent
    names = _names(data)
    _past_the_ctimes(data, tmp_path / "probe")
    refreshed = _arrays(eio.load_manifest(manifest))
    # an entry whose mtime is its file's ctime: written in the tick of the
    # file's last change, so its status cannot vouch for the bytes
    target = data / "calib_head_2.csv"
    ctime = target.stat().st_ctime_ns
    os.utime(_entry(target), ns=(ctime, ctime))
    hashes = _Hashes()
    monkeypatch.setattr(eio, "hashlib", hashes)
    for hashed in (["calib_head_2.csv"], []):
        hashes.digests.clear()
        with _no_parsing():
            _assert_bitwise(_arrays(eio.load_manifest(manifest)), refreshed)
        assert [names[d] for d in hashes.digests] == hashed
        assert _entry(target).stat().st_mtime_ns > ctime


def test_a_copied_dataset_hashes_each_file_once(tmp_path, monkeypatch):
    # new inodes: every entry's stored status is another file's
    manifest = _written(tmp_path / "data")
    reference = _arrays(eio.load_manifest(manifest))
    copy = tmp_path / "copy"
    shutil.copytree(manifest.parent, copy)
    names = _names(copy)
    _past_the_ctimes(copy, tmp_path / "probe")
    hashes = _Hashes()
    monkeypatch.setattr(eio, "hashlib", hashes)
    for hashed in (sorted(names.values()), []):
        hashes.digests.clear()
        with _no_parsing():
            _assert_bitwise(_arrays(eio.load_manifest(copy / eio.MANIFEST_NAME)), reference)
        assert sorted(names[d] for d in hashes.digests) == hashed


def test_an_edited_file_and_a_stale_entry_are_parsed_again(tmp_path, monkeypatch):
    manifest = _written(tmp_path / "data")
    data = manifest.parent
    before = eio.load_manifest(manifest)
    # swap two cells of the first row of test head 2: same size, same mtime
    edited = data / "test_head_2.csv"
    stat = edited.stat()
    header, row, rest = edited.read_text().split("\n", 2)
    cells = row.split(",")
    cells[1], cells[2] = cells[2], cells[1]
    edited.write_text("\n".join([header, ",".join(cells), rest]))
    os.utime(edited, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert edited.stat().st_size == stat.st_size
    # and give calib head 2 the entry of calib head 1, its CRC intact
    shutil.copyfile(_entry(data / "calib_head_1.csv"), _entry(data / "calib_head_2.csv"))
    parsed = []
    real = eio._load_table

    def recording(src, *args):
        parsed.append(src.path.name)
        return real(src, *args)

    monkeypatch.setattr(eio, "_load_table", recording)
    after = eio.load_manifest(manifest)
    assert parsed == ["calib_head_2.csv", "test_head_2.csv"]
    expected = before.split("test").bank.heads[1].probs.copy()
    expected[0, [0, 1]] = expected[0, [1, 0]]
    _assert_bitwise([after.split("test").bank.heads[1].probs], [expected])

    def others(ds):  # every array but the edited one, calib head 2's included
        return [a for a in _arrays(ds) if a is not ds.split("test").bank.heads[1].probs]

    _assert_bitwise(others(after), others(before))
    assert len(others(after)) == 13
    monkeypatch.undo()
    with _no_parsing():  # both entries now hold the files' own tables
        _assert_bitwise(_arrays(eio.load_manifest(manifest)), _arrays(after))


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize(
    "fault", [None, "corrupt", "missing", "unsorted_labels", "nul_name", "surrogate_name"]
)
def test_a_load_leaves_no_thread_behind(tmp_path, monkeypatch, cpus, fault):
    # however many CPUs the process may use, a load starts no thread
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    manifest = _written(tmp_path / "data")
    data = manifest.parent
    if fault in ("nul_name", "surrogate_name"):  # the first file's name: nothing may be read
        doc = json.loads(manifest.read_text())
        bad = "train_head_1.csv\x00" if fault == "nul_name" else "\ud800.csv"
        doc["splits"]["train"]["heads"][0]["probs_csv"] = bad
        manifest.write_text(json.dumps(doc))
    elif fault == "corrupt":  # the first file
        (data / "train_head_1.csv").write_text("instance_id,p_1,p_2,p_3\n0,oops\n")
    elif fault == "missing":
        (data / "calib_head_2.csv").unlink()
    elif fault == "unsorted_labels":  # the last file
        (data / "test_labels.csv").write_text("instance_id,label\n1,1\n0,2\n")
    before = threading.active_count()
    if fault is None:
        eio.load_manifest(manifest)
    else:
        with pytest.raises((ParseError, FileNotFoundError)):
            eio.load_manifest(manifest)
    assert threading.active_count() == before
