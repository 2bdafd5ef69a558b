"""Manifest/CSV ingestion, canonical JSON, and lossless round trips."""

import gzip
import json
import os

import numpy as np
import pytest

from eero import io as eio
from eero.allocation import AllocationResult
from eero.calibration import build_policy
from eero.domain import BudgetSpec
from eero.errors import LabelLengthMismatch, MissingLabels, ParseError
from eero.inference import classify_batch, measure_budget
from eero.scoring import ScoreSpec
from eero.synth import generate, SynthSpec
from conftest import make_bank


def tiny_synth(seed=0):
    return generate(
        SynthSpec(
            seed=seed, num_classes=3, num_heads=2,
            head_accuracies=(0.6, 0.8), head_budgets=(1.0, 2.5),
            confidence_sharpness=6.0, sizes=(40, 30, 20),
        )
    )


def test_format_float_round_trips():
    cases = [0.1, 1.0, -2.5, 1e-17, 3.141592653589793, 1e300, -0.0]
    for x in cases:
        s = eio.format_float(x)
        assert float(s) == x
    assert eio.format_float(1.0) == "1.0"
    assert eio.format_float(float("inf")) == "Infinity"
    assert eio.format_float(float("-inf")) == "-Infinity"
    assert eio.format_float(float("nan")) == "NaN"


def test_canonical_json_stable_and_ordered():
    doc = {"b": 1, "a": [1.5, float("inf")], "c": {"y": True, "x": None}}
    s1 = eio.dumps_canonical(doc)
    s2 = eio.dumps_canonical(doc)
    assert s1 == s2
    assert s1.endswith("\n")
    assert s1.index('"b"') < s1.index('"a"')  # insertion order kept
    assert "Infinity" in s1


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
    assert doc["allocation"]["multiplier"] == float("inf")


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


def test_sweep_csv_schema(tmp_path):
    rows = [
        {"budget": 10.0, "accuracy": 0.5, "consumed": 9.0, "within_budget": True,
         "source": "eero"},
        {"budget": 10.0, "accuracy": 0.6, "consumed": 8.0, "within_budget": True,
         "source": "oracle"},
        {"budget": 10.0, "accuracy": 0.4, "consumed": 12.0, "within_budget": False,
         "source": "head_2"},
    ]
    path = tmp_path / "sweep.csv"
    eio.write_sweep_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "budget,accuracy,consumed,within_budget,source"
    assert len(lines) == 4
    assert lines[1].endswith(",true,eero")
    assert lines[3].endswith(",false,head_2")


def test_oracle_result_dict_marker():
    from eero.oracle import OracleResult

    res = OracleResult(assignment=np.array([1, 2]), accuracy=0.5, cost=3.0)
    doc = eio.oracle_result_to_dict(res, 4.0)
    assert doc["oracle"] is True
    assert doc["mode"] == "at_most_budget"
    assert doc["budget"] == 4.0
    assert doc["accuracy"] == 0.5
