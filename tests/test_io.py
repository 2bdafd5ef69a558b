"""Manifest/CSV ingestion, canonical JSON, and lossless round trips."""

import csv
import dataclasses
import gzip
import hashlib
import json
import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eero import io as eio
from eero.allocation import AllocationResult
from eero.calibration import build_policy
from eero.domain import BudgetSpec, HeadBank, within_budget
from eero.errors import LabelLengthMismatch, MissingLabels, ParseError
from eero.inference import classify_batch, measure_budget
from eero.oracle import OracleInstance, build_correctness, oracle_exact
from eero.scoring import ScoreSpec
from eero.synth import default_spec, generate, SynthSpec
from conftest import make_bank


def tiny_synth(seed=0):
    return generate(
        SynthSpec(
            seed=seed, num_classes=3, num_heads=2,
            head_accuracies=(0.6, 0.8), head_budgets=(1.0, 2.5),
            confidence_sharpness=6.0, sizes=(40, 30, 20),
        )
    )


def _reject(constant):
    raise ValueError(f"{constant} is not standard JSON")


def _strict_loads(text):
    """`json.loads` refusing the NaN and Infinity tokens, as RFC 8259 readers do."""
    return json.loads(text, parse_constant=_reject)


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def test_canonical_json_stable_and_ordered():
    doc = {"b": 1, "a": [1.5, 0.1, -0.0], "c": {"y": True, "x": None}, "d": np.float64(1e-05)}
    s1 = eio.dumps_canonical(doc)
    s2 = eio.dumps_canonical(doc)
    assert s1 == s2
    assert s1.endswith("\n")
    assert s1.index('"b"') < s1.index('"a"')  # insertion order kept
    # the shortest text that reads back to each float
    assert s1 == '{"b": 1, "a": [1.5, 0.1, -0.0], "c": {"y": true, "x": null}, "d": 1e-05}\n'
    # strict JSON has no token for a NaN or an infinity
    for bad in (math.inf, -math.inf, math.nan, np.array([1.0, -np.inf])):
        with pytest.raises(ValueError):
            eio.dumps_canonical({"a": bad})


def test_atomic_write(tmp_path):
    p = tmp_path / "out.json"
    eio.atomic_write_text(p, "hello\n")
    assert p.read_text() == "hello\n"
    eio.atomic_write_text(p, "world\n")
    assert p.read_text() == "world\n"
    leftovers = [f for f in os.listdir(tmp_path) if f != "out.json"]
    assert leftovers == []


def test_write_load_round_trip(tmp_path):
    data = tiny_synth()
    manifest = eio.write_dataset(data, tmp_path / "ds")
    ds = eio.load_manifest(manifest)
    assert set(ds.splits) == {"train", "calib", "test"}
    for name, bank, labels in (
        ("train", data.train_bank, data.train_labels),
        ("calib", data.calib_bank, None),
        ("test", data.test_bank, data.test_labels),
    ):
        split = ds.split(name)
        assert split.bank.num_heads == bank.num_heads
        for ha, hb in zip(split.bank.heads, bank.heads):
            assert np.array_equal(ha.probs, hb.probs)  # bitwise
            assert ha.budget_gflops == hb.budget_gflops
        if labels is None:
            assert split.labels is None
        else:
            assert np.array_equal(split.labels, labels)


def test_load_accepts_directory_or_manifest_path(tmp_path):
    data = tiny_synth()
    manifest = eio.write_dataset(data, tmp_path / "ds")
    a = eio.load_manifest(tmp_path / "ds")
    b = eio.load_manifest(manifest)
    assert np.array_equal(
        a.split("test").bank.heads[0].probs, b.split("test").bank.heads[0].probs
    )


def test_gzip_csv_transparent(tmp_path):
    data = tiny_synth()
    eio.write_dataset(data, tmp_path / "ds")
    csv = tmp_path / "ds" / "calib_head_1.csv"
    raw = csv.read_bytes()
    gz = tmp_path / "ds" / "calib_head_1.csv.gz"
    with gzip.open(gz, "wb") as f:
        f.write(raw)
    csv.unlink()
    manifest_path = tmp_path / "ds" / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    doc["splits"]["calib"]["heads"][0]["probs_csv"] = "calib_head_1.csv.gz"
    manifest_path.write_text(json.dumps(doc))
    ds = eio.load_manifest(tmp_path / "ds")
    assert np.array_equal(
        ds.split("calib").bank.heads[0].probs, data.calib_bank.heads[0].probs
    )


def _corrupt(tmp_path, split_csv, mutate):
    data = tiny_synth()
    eio.write_dataset(data, tmp_path / "ds")
    p = tmp_path / "ds" / split_csv
    lines = p.read_text().splitlines()
    mutate(lines)
    p.write_text("\n".join(lines) + "\n")
    return tmp_path / "ds"


def test_parse_error_bad_float_names_row_and_col(tmp_path):
    def mutate(lines):
        parts = lines[3].split(",")
        parts[2] = "oops"
        lines[3] = ",".join(parts)

    root = _corrupt(tmp_path, "test_head_1.csv", mutate)
    with pytest.raises(ParseError) as e:
        eio.load_manifest(root)
    # row counts physical file lines, header included
    assert e.value.row == 4
    assert e.value.col == 3
    assert "test_head_1.csv" in str(e.value)


def test_parse_error_short_row(tmp_path):
    def mutate(lines):
        lines[2] = lines[2].rsplit(",", 1)[0]

    root = _corrupt(tmp_path, "test_head_2.csv", mutate)
    with pytest.raises(ParseError) as e:
        eio.load_manifest(root)
    assert e.value.row == 3


def test_parse_error_bad_header(tmp_path):
    def mutate(lines):
        lines[0] = "id,p_1,p_2,p_3"

    root = _corrupt(tmp_path, "calib_head_1.csv", mutate)
    with pytest.raises(ParseError):
        eio.load_manifest(root)


def test_parse_error_unsorted_ids(tmp_path):
    def mutate(lines):
        lines[1], lines[2] = lines[2], lines[1]

    root = _corrupt(tmp_path, "train_head_1.csv", mutate)
    with pytest.raises(ParseError):
        eio.load_manifest(root)


def test_manifest_validation_errors(tmp_path):
    data = tiny_synth()
    eio.write_dataset(data, tmp_path / "ds")
    manifest = tmp_path / "ds" / "manifest.json"
    doc = json.loads(manifest.read_text())

    bad = dict(doc)
    bad.pop("num_classes")
    manifest.write_text(json.dumps(bad))
    with pytest.raises(ParseError):
        eio.load_manifest(tmp_path / "ds")

    bad = json.loads(json.dumps(doc))
    bad["splits"]["test"]["heads"][0]["budget_gflops"] = 99.0  # disagrees with calib
    manifest.write_text(json.dumps(bad))
    with pytest.raises(ParseError):
        eio.load_manifest(tmp_path / "ds")

    manifest.write_text("{not json")
    with pytest.raises(ParseError):
        eio.load_manifest(tmp_path / "ds")


def test_label_alignment_checked(tmp_path):
    data = tiny_synth()
    eio.write_dataset(data, tmp_path / "ds")
    labels = tmp_path / "ds" / "test_labels.csv"
    lines = labels.read_text().splitlines()
    parts = lines[1].split(",")
    parts[0] = "999"
    lines[1] = ",".join(parts)
    labels.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError):
        eio.load_manifest(tmp_path / "ds")


def test_label_range_checked(tmp_path):
    data = tiny_synth()
    eio.write_dataset(data, tmp_path / "ds")
    labels = tmp_path / "ds" / "train_labels.csv"
    lines = labels.read_text().splitlines()
    parts = lines[1].split(",")
    parts[1] = "0"  # labels are 1-based on disk
    lines[1] = ",".join(parts)
    labels.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError):
        eio.load_manifest(tmp_path / "ds")


def test_bad_label_cell_names_row_and_col(tmp_path):
    def mutate(lines):
        lines[2] = lines[2].split(",")[0] + ",two"

    root = _corrupt(tmp_path, "test_labels.csv", mutate)
    with pytest.raises(ParseError) as e:
        eio.load_manifest(root)
    assert (e.value.row, e.value.col) == (3, 2)
    assert "'two' is not an integer" in str(e.value)


def test_compute_risks_wrong_label_length():
    bank = make_bank([np.eye(2), np.eye(2)], budgets=[1.0, 2.0])
    with pytest.raises(LabelLengthMismatch):
        eio.compute_risks(bank, np.array([0, 1, 1]))


def test_compute_risks_hand_case():
    # constant predictor, uniform labels over 4 classes: risk 3/4
    rows = np.tile(np.array([0.7, 0.1, 0.1, 0.1]), (4, 1))
    better = np.eye(4) * 0.9 + 0.025
    bank = make_bank([rows, better], budgets=[1.0, 2.0])
    labels = np.array([0, 1, 2, 3])
    risks = eio.compute_risks(bank, labels)
    assert risks[0] == pytest.approx(0.75)
    assert risks[1] == pytest.approx(0.0)
    with pytest.raises(MissingLabels):
        eio.compute_risks(bank, None)


def test_policy_round_trip(tmp_path):
    data = tiny_synth()
    alloc = AllocationResult(
        epsilons=np.array([0.35, 0.65]),
        multiplier=1.25,
        expected_budget=1.975,
        kl_to_prior=0.07,
        saturated=True,
    )
    spec = ScoreSpec(kind="neg_entropy", jitter_u=1e-5, seed=123)
    policy = build_policy(data.calib_bank, alloc, spec)
    budget = BudgetSpec(total_budget=39.5, batch_size=20)
    path = tmp_path / "policy.json"
    eio.save_policy(path, policy, alloc, budget)

    loaded, doc = eio.load_policy(path)
    assert loaded.score_kind == policy.score_kind
    assert loaded.jitter_u == policy.jitter_u
    assert loaded.seed == policy.seed
    assert loaded.calibration_size == policy.calibration_size
    assert np.array_equal(loaded.seq_rates, policy.seq_rates)
    assert np.array_equal(loaded.thresholds, policy.thresholds)
    assert doc["allocation"]["multiplier"] == 1.25
    assert np.array_equal(doc["allocation"]["epsilons"], alloc.epsilons)
    assert doc["budget_spec"]["total_budget"] == 39.5
    assert doc["budget_spec"]["batch_size"] == 20


def test_policy_with_infinite_multiplier_round_trips(tmp_path):
    data = tiny_synth()
    alloc = AllocationResult(
        epsilons=np.array([1.0, 0.0]),
        multiplier=np.inf,
        expected_budget=1.0,
        kl_to_prior=0.3,
        saturated=True,
    )
    policy = build_policy(data.calib_bank, alloc, ScoreSpec())
    path = tmp_path / "policy.json"
    eio.save_policy(path, policy, alloc, BudgetSpec(total_budget=20.0, batch_size=20))
    _, doc = eio.load_policy(path)
    # strict JSON has no infinity: an unbounded multiplier is written as null
    assert doc["allocation"]["multiplier"] is None
    assert "Infinity" not in path.read_text()


def test_save_policy_deterministic_bytes(tmp_path):
    data = tiny_synth()
    alloc = AllocationResult(
        epsilons=np.array([0.5, 0.5]),
        multiplier=0.0,
        expected_budget=1.75,
        kl_to_prior=0.0,
        saturated=False,
    )
    policy = build_policy(data.calib_bank, alloc, ScoreSpec(seed=6))
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    eio.save_policy(a, policy, alloc, None)
    eio.save_policy(b, policy, alloc, None)
    assert a.read_bytes() == b.read_bytes()


def test_batch_result_round_trip(tmp_path):
    data = tiny_synth()
    alloc = AllocationResult(
        epsilons=np.array([0.5, 0.5]),
        multiplier=0.0,
        expected_budget=1.75,
        kl_to_prior=0.0,
        saturated=False,
    )
    policy = build_policy(data.calib_bank, alloc, ScoreSpec(seed=6))
    result = classify_batch(data.test_bank, policy, labels=data.test_labels)
    report = measure_budget(result, BudgetSpec(total_budget=40.0, batch_size=20))
    path = tmp_path / "result.json"
    eio.write_json_result(path, eio.batch_result_to_dict(result, report))
    back = json.loads(path.read_text())
    assert np.array_equal(back["exits"], result.exits)
    assert np.array_equal(back["predictions"], result.predictions)
    assert np.array_equal(back["per_instance_cost"], result.per_instance_cost)
    assert np.array_equal(back["exit_proportions"], result.exit_proportions)
    assert back["consumed_budget"] == result.consumed_budget
    assert back["accuracy"] == result.accuracy
    assert back["budget_report"]["within_budget"] == report.within_budget


def test_per_instance_csv(tmp_path):
    data = tiny_synth()
    alloc = AllocationResult(
        epsilons=np.array([0.4, 0.6]),
        multiplier=0.0,
        expected_budget=1.9,
        kl_to_prior=0.0,
        saturated=False,
    )
    policy = build_policy(data.calib_bank, alloc, ScoreSpec(seed=6))
    result = classify_batch(data.test_bank, policy, labels=data.test_labels)
    path = tmp_path / "per.csv"
    eio.write_per_instance_csv(path, result, labels=data.test_labels)
    lines = path.read_text().splitlines()
    assert lines[0] == "instance_id,exit_head,prediction,cost,correct"
    assert len(lines) == 1 + result.batch_size
    first = lines[1].split(",")
    assert int(first[1]) == result.exits[0]
    assert int(first[2]) == result.predictions[0]
    ids = 7 * np.arange(result.batch_size) + 3
    for labels, instance_ids in ((data.test_labels, None), (None, ids), (data.test_labels, ids)):
        eio.write_per_instance_csv(path, result, labels=labels, instance_ids=instance_ids)
        assert path.read_text() == _per_instance_reference(result, labels, instance_ids)


def _per_instance_reference(result, labels, instance_ids):
    """The per-instance CSV rendered one value at a time."""
    ids = np.arange(result.batch_size) if instance_ids is None else np.asarray(instance_ids)
    lines = ["instance_id,exit_head,prediction,cost" + ("" if labels is None else ",correct")]
    for i in range(result.batch_size):
        line = (
            f"{int(ids[i])},{int(result.exits[i])},{int(result.predictions[i])},"
            f"{float(result.per_instance_cost[i])!r}"
        )
        if labels is not None:
            line += f",{int(result.predictions[i] - 1 == labels[i])}"
        lines.append(line)
    return "\n".join(lines) + "\n"


# SHA-256 of every file write_dataset(generate(default_spec(0))) writes, as
# written one format() call per value; the parse cache entries are not pinned
DEFAULT_DATASET_DIGESTS = {
    "manifest.json": "b3b4f30156cee965ea876e39965b4eb5b879d470ae0900d262df7f476b19d18a",
    "calib_head_1.csv": "f25875b8c26e7a80ebee785e41bf8ead1682fc78f1f37908334ecbee4b3aa52f",
    "calib_head_2.csv": "2e63f87a4274853538765427600c3f9adfd1d4e1b8e1fb3b31fdd13e932c8a7e",
    "calib_head_3.csv": "2577f9bc32a238a012d8851b6090d6c7c6317ae601eff87ebfdc4465bfba77e9",
    "calib_head_4.csv": "321f87ced02078519bf6ce10fda15fc18fe49e28724f2935bfe7d39360a1a5f9",
    "calib_head_5.csv": "2ed536110ae5935afd903c2472268b7c6ac98935190791114b168c8880967799",
    "calib_head_6.csv": "b52941d760885b7ee14cae5535e46d3bf370f2db2ee6e5eed7e9a9efb9b646fd",
    "calib_head_7.csv": "7b7d078184e30181947ca6102f74f07e7c1f09dd9c7a24bd279369f073f515b2",
    "calib_head_8.csv": "ee773d2536f5ef9b5a6a1d60e2a5eba9e6b0129cb95f2c2c41e7999bb581cddc",
    "test_head_1.csv": "cd79690f0528279ed4c2452917e35439e99c48aaa6a2e84b9e2ac7bab7a4a6f7",
    "test_head_2.csv": "35cefafbf950378c0225457c858e23568c0c327c3822176d3024defc41523b1e",
    "test_head_3.csv": "96c16f92e62834fe84c00d4dfa404a251c38dab87e459e5e202b7387f5ee01e8",
    "test_head_4.csv": "43a3f020bbd16088316311e342117ccd80d0e254f70421182c5563f595483e02",
    "test_head_5.csv": "07b66f5f5eba64e2485a6b78681debad6319771cba5f715ee0a89c721367af21",
    "test_head_6.csv": "62600577805fcbb3a7ee397e2a2ee7b48aba91bc217492b39c69c9f67031a355",
    "test_head_7.csv": "5ca5f3875bda0dddda31a30d070879e242820b23862a28deb973c80f246c9e60",
    "test_head_8.csv": "70b2c6d7cb65f7f2c39951782e6d270b8cf2e0eac1b598271e2eb9b6282be1f2",
    "test_labels.csv": "fd9f5c465871402aa164b49f08fc7e116826b9154b632d4d2463041e837158a1",
    "train_head_1.csv": "58ea4a2c487a6928bf99db1bcf168f72202f7df0fa146bbc404f200801f01958",
    "train_head_2.csv": "93d24a0bba28adbe4b04c94438071973aa3e5d90c7162f1b456a3a866db3b0a0",
    "train_head_3.csv": "bab1b8c52be6480b112562781e83f8dfe220123282a19471675f356d7104d9dc",
    "train_head_4.csv": "ae085dc711eff0f53e4c51f9376512fdf6d45f60d7c9494c231371bb05eac069",
    "train_head_5.csv": "e639ea7d108b591e5699364ec6bca5a7dfed80a042dd11d25dc66e32bc5e0606",
    "train_head_6.csv": "3f87e75a1d6c5bf3363cbe6153dd260c787cf9f41e1950d6896a83cc5ddb1d40",
    "train_head_7.csv": "895991e125af3cb5173625d94f228254e150e8e2e270d7abc7d16e895365a1af",
    "train_head_8.csv": "b04f5c8ac2bdebb175bc0adbab1fde5a5b8014d9165bf0e9e51c321dcf238bb0",
    "train_labels.csv": "ccb730649dbc0fdbf212241fceb347fb49590252443864f7c9b855a7097c4bb8",
}


def test_write_dataset_keeps_its_bytes(tmp_path):
    eio.write_dataset(generate(default_spec(0)), tmp_path)
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir() if p.is_file()}
    assert written == DEFAULT_DATASET_DIGESTS


_SMALLEST_NORMAL = float(np.finfo(np.float64).tiny)
# where %g switches between fixed and exponent notation, and other edges
EDGE_FLOATS = [
    0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, _SMALLEST_NORMAL, np.nextafter(_SMALLEST_NORMAL, 0.0),
    float(np.nextafter(1e-4, 0.0)), 1e-4, float(np.nextafter(1e-4, 1.0)), -1e-4,
    1e16, 1e17, float(np.nextafter(1e17, 0.0)), 0.1, 1.7976931348623157e308,
]
FINITE = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
INT64 = st.integers(-(2**63), 2**63 - 1)


@st.composite
def _tables(draw):
    """(ids, values): int64 ids and a float64 or int64 table of 1 to 4 columns."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 4))
    cell = draw(st.sampled_from([FINITE, INT64]))
    ids = np.array(draw(st.lists(INT64, min_size=rows, max_size=rows)), dtype=np.int64)
    cells = draw(st.lists(cell, min_size=rows * cols, max_size=rows * cols))
    dtype = np.float64 if cell is FINITE else np.int64
    return ids, np.array(cells, dtype=dtype).reshape(rows, cols)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=_tables())
def test_table_rows_render_as_per_value_format(tmp_path, table):
    ids, values = table
    path = tmp_path / "table.csv"
    eio._write_table_csv(path, "header", ids, values)
    # the rendering before rows were one % operation: numpy scalars, one at a time
    render = (lambda v: format(v, ".17g")) if values.dtype.kind == "f" else (lambda v: str(int(v)))
    lines = ["header"] + [f"{int(i)}," + ",".join(render(v) for v in row) for i, row in zip(ids, values)]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_array_rendering_equals_element_rendering():
    # numpy arrays and scalars are written as the Python values they hold
    arrays = [
        np.array([0.1, -0.0, 1e300, 5e-324, 2.0, 1e16, 123456789.0]),
        np.array([np.iinfo(np.int64).min, -1, 0, np.iinfo(np.int64).max]),
        np.array([0, np.iinfo(np.uint64).max], dtype=np.uint64),
        np.array([1.5, 0.1], dtype=np.float32),
        np.array([True, False]),
        np.zeros(0),
        np.arange(6.0).reshape(2, 3),
    ]
    for arr in arrays:
        assert eio.dumps_canonical(arr) == eio.dumps_canonical(arr.tolist())
        assert eio.dumps_canonical(list(arr.ravel())) == eio.dumps_canonical(arr.ravel().tolist())


# repeated values, both zeros, subnormals, the largest double and a float32 rounding
RENDER_VALUES = st.sampled_from([
    0.0, -0.0, 1.0, -1.0, 0.1, 1e16, 1e17, 5e-324, -5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, float.fromhex("0x1.8p+1"), 123456789.0, 1e-05, 1 / 3,
])


@settings(max_examples=100, deadline=None)
@given(values=st.lists(RENDER_VALUES, max_size=40), dtype=st.sampled_from([np.float64, np.float32]))
def test_float_arrays_read_back_their_bits(values, dtype):
    with np.errstate(over="ignore"):
        arr = np.array(values, dtype=np.float64).astype(dtype)
    arr = arr[np.isfinite(arr)]  # the largest double overflows float32
    for view in (arr, arr[::-1]):
        back = _strict_loads(eio.dumps_canonical(view))
        assert _bits(back) == _bits(view)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            eio.dumps_canonical(np.append(arr, bad))


def test_sweep_csv_schema(tmp_path):
    # (budget, accuracy, consumed, source); the writer derives within_budget
    rows = [
        (10.0, 0.5, 9.0, "eero"),
        (10.0, 0.6, 8.0, "oracle"),
        (10.0, 0.4, 12.0, "head_2"),
        (10.0, 0.7, 10.0 * (1.0 + 1e-12), "head_3"),  # on the budget rule's edge
        (10.0, 0.8, 10.0 * (1.0 + 2e-12), "head_4"),
    ]
    path = tmp_path / "sweep.csv"
    eio.write_sweep_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "budget,accuracy,consumed,within_budget,source"
    assert len(lines) == 6
    assert lines[1] == "10.0,0.5,9.0,true,eero"
    assert lines[3].endswith(",false,head_2")
    flags = [line.split(",")[3] for line in lines[1:]]
    assert flags == [
        "true" if within_budget(consumed, budget) else "false"
        for budget, _, consumed, _ in rows
    ]
    assert flags[3:] == ["true", "false"]


def test_sweep_csv_renders_repeated_values_and_signed_zeros(tmp_path):
    # each distinct value is rendered once, keyed by its bits: repeats, both
    # zeros and integral values still read as repr writes each cell
    rows = [
        (2.0, 0.5, 2.0, "eero"),
        (2.0, -0.0, 0.0, "oracle"),
        (2.0, 0.0, -0.0, "head_1"),
        (4.0, 0.5, 2.0, "eero"),
        (4.0, -0.0, 0.1 + 0.2, "oracle"),
        (4.0, 0.0, 0.3, "head_1"),
    ]
    path = tmp_path / "sweep.csv"
    eio.write_sweep_csv(path, rows)
    lines = path.read_text().splitlines()[1:]
    assert [line.split(",")[:3] for line in lines] == [
        list(map(repr, row[:3])) for row in rows
    ]
    assert lines[1].startswith("2.0,-0.0,0.0,") and lines[2].startswith("2.0,0.0,-0.0,")
    assert lines[4].split(",")[2] != lines[5].split(",")[2]  # 0.1 + 0.2 is not 0.3


def test_oracle_result_dict_marker():
    from eero.oracle import OracleResult

    res = OracleResult(assignment=np.array([1, 2]), accuracy=0.5, cost=3.0)
    doc = eio.oracle_result_to_dict(res, 4.0)
    assert doc["oracle"] is True
    assert doc["mode"] == "at_most_budget"
    assert doc["budget"] == 4.0
    assert doc["accuracy"] == 0.5


def _assert_reads_back(parsed, value):
    """`parsed`, read from a written document, holds `value`'s types and float64 bits."""
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, dict):
        assert list(parsed) == list(value)
        for key in value:
            _assert_reads_back(parsed[key], value[key])
    elif isinstance(value, (list, tuple)):
        assert len(parsed) == len(value)
        for p, v in zip(parsed, value):
            _assert_reads_back(p, v)
    elif isinstance(value, float):
        assert type(parsed) is float and _bits(parsed) == _bits(value)
    else:
        assert type(parsed) is type(value) and parsed == value


def test_every_written_file_is_standard_and_reads_back_its_bits(tmp_path):
    # every file eero writes is strict JSON (no NaN or Infinity token) or CSV,
    # and holds the exact float64 bits of the values it was written from
    data = generate(SynthSpec(
        seed=4, num_classes=3, num_heads=3, head_accuracies=(0.5, 0.7, 0.9),
        head_budgets=(0.1, 0.7, 1.3), confidence_sharpness=6.0, sizes=(40, 30, 20),
    ))
    ds = eio.as_dataset(data)
    train = ds.splits["train"]
    risky = tuple(dataclasses.replace(h, risk=r) for h, r in zip(train.bank.heads, (0.1 + 0.2, 1 / 3, 0.0)))
    ds.splits["train"] = dataclasses.replace(train, bank=HeadBank(heads=risky))
    manifest = eio.write_dataset(ds, tmp_path / "data")
    doc = _strict_loads(manifest.read_text())
    for name, split in ds.splits.items():
        heads = doc["splits"][name]["heads"]
        assert _bits([h["budget_gflops"] for h in heads]) == _bits(split.bank.budgets)
        risks = [h.risk for h in split.bank.heads]
        assert [h.get("risk") for h in heads] == risks
        if name == "train":
            assert _bits([h["risk"] for h in heads]) == _bits(risks)

    spec = ScoreSpec(kind="neg_entropy", jitter_u=1e-5, seed=123)
    budget = BudgetSpec(total_budget=0.7 * 20, batch_size=20)
    allocations = {
        "plan": AllocationResult(
            epsilons=np.array([0.2, 0.3, 0.5]), multiplier=1 / 3, expected_budget=0.1 * 0.2 + 0.21 + 0.65,
            kl_to_prior=0.07, saturated=True,
        ),
        # a point budget: the cheapest head alone, at an unbounded multiplier
        "point": AllocationResult(
            epsilons=np.array([1.0, 0.0, 0.0]), multiplier=np.inf, expected_budget=0.1,
            kl_to_prior=0.3, saturated=True,
        ),
        # every instance that reaches head 2 exits there: its threshold is -inf
        "head_2_takes_all": AllocationResult(
            epsilons=np.array([0.6, 0.4, 0.0]), multiplier=0.0, expected_budget=0.34,
            kl_to_prior=0.0, saturated=False,
        ),
    }
    for name, alloc in allocations.items():
        policy = build_policy(data.calib_bank, alloc, spec)
        path = tmp_path / f"{name}.json"
        eio.save_policy(path, policy, alloc, budget)
        doc = _strict_loads(path.read_text())
        _assert_reads_back(doc, eio.policy_to_dict(policy, alloc, budget))
        # an infinite threshold or multiplier is written as null
        infinite = np.isinf(policy.thresholds)
        assert [t is None for t in doc["thresholds"]] == infinite.tolist()
        assert _bits([t for t in doc["thresholds"] if t is not None]) == _bits(policy.thresholds[~infinite])
        assert (doc["allocation"]["multiplier"] is None) == math.isinf(alloc.multiplier)
        loaded, _ = eio.load_policy(path)
        assert _bits(loaded.thresholds) == _bits(policy.thresholds)
        assert _bits(loaded.seq_rates) == _bits(policy.seq_rates)
        assert loaded.jitter_u == policy.jitter_u
    assert doc["thresholds"][1] is None and doc["thresholds"][2] is None
    assert math.isinf(allocations["point"].multiplier)

    policy = build_policy(data.calib_bank, allocations["plan"], spec)
    result = classify_batch(data.test_bank, policy, labels=data.test_labels)
    infer_doc = eio.batch_result_to_dict(result, measure_budget(result, budget))
    eio.write_json_result(tmp_path / "infer.json", infer_doc)
    _assert_reads_back(_strict_loads((tmp_path / "infer.json").read_text()), infer_doc)

    eio.write_per_instance_csv(tmp_path / "per.csv", result, labels=data.test_labels)
    with open(tmp_path / "per.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [int(row[1]) for row in rows] == result.exits.tolist()
    assert _bits([float(row[3]) for row in rows]) == _bits(result.per_instance_cost)

    instance = OracleInstance(
        correctness=build_correctness(data.test_bank, data.test_labels),
        costs=data.test_bank.budgets, budget=0.7 * 20,
    )
    oracle_doc = eio.oracle_result_to_dict(oracle_exact(instance), instance.budget)
    eio.write_json_result(tmp_path / "oracle.json", oracle_doc)
    _assert_reads_back(_strict_loads((tmp_path / "oracle.json").read_text()), oracle_doc)

    sweep = [
        (0.1 + 0.2, 1 / 3, -0.0, "eero"),
        (0.1 + 0.2, 2 / 3, 5e-324, "oracle"),
        (1e16, 0.0, 1.7976931348623157e308, "head_1"),
    ]
    eio.write_sweep_csv(tmp_path / "sweep.csv", sweep)
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert _bits([list(map(float, row[:3])) for row in rows]) == _bits([row[:3] for row in sweep])
