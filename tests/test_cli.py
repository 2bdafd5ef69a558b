"""Command line behavior: pipeline wiring, exit codes, determinism."""

import contextlib
import dataclasses
import gzip
import hashlib
import io
import json
import math
import os
import re
import shlex
import shutil
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import eero
from eero import io as eio
from eero.cli import main
from eero.domain import HeadBank, HeadSlice, within_budget
from eero.io import Dataset, Split, load_manifest, write_dataset
from eero.oracle import build_correctness
from eero.scoring import SCORE_KINDS
from eero.synth import default_spec, generate

SPEC = {
    "seed": 3,
    "num_classes": 4,
    "num_heads": 3,
    "head_accuracies": [0.55, 0.7, 0.85],
    "head_budgets": [1.0, 2.0, 4.0],
    "confidence_sharpness": 6.0,
    "sizes": [300, 200, 400],
}


@pytest.fixture
def dataset(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC))
    out = tmp_path / "data"
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
    return out


def test_synth_writes_dataset(dataset):
    assert (dataset / "manifest.json").exists()
    assert (dataset / "calib_head_3.csv").exists()
    assert (dataset / "test_labels.csv").exists()
    assert not (dataset / "calib_labels.csv").exists()
    # and seeds the parse cache: one entry per CSV written
    csvs = sorted(p.name for p in dataset.glob("*.csv"))
    assert sorted(p.name for p in (dataset / eio.CACHE_DIR).iterdir()) == [f"{c}.table" for c in csvs]


def test_missing_required_flag_is_usage_error():
    with pytest.raises(SystemExit) as e:
        main(["synth", "--out", "/tmp/x"])
    assert e.value.code == 2


def test_unknown_flag_is_usage_error(dataset, tmp_path):
    with pytest.raises(SystemExit) as e:
        main([
            "calibrate", "--data", str(dataset), "--budget", "800",
            "--frobnicate", "1", "--out", str(tmp_path / "p.json"),
        ])
    assert e.value.code == 2


def test_invalid_synth_spec_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**SPEC, "head_accuracies": [0.5]}))
    assert main(["synth", "--spec", str(bad), "--out", str(tmp_path / "d")]) == 2
    bad.write_text("{not json")
    assert main(["synth", "--spec", str(bad), "--out", str(tmp_path / "d")]) == 2
    bad.write_bytes(json.dumps(SPEC).encode() + b"\xff")
    assert main(["synth", "--spec", str(bad), "--out", str(tmp_path / "d")]) == 2


def test_missing_data_dir_exit_3(tmp_path):
    rc = main([
        "calibrate", "--data", str(tmp_path / "nope"), "--budget", "800",
        "--out", str(tmp_path / "p.json"),
    ])
    assert rc == 3


def test_calibrate_infer_round_trip(dataset, tmp_path, capsys):
    policy = tmp_path / "policy.json"
    rc = main([
        "calibrate", "--data", str(dataset), "--budget", "800",
        "--batch-size", "400", "--out", str(policy),
    ])
    assert rc == 0
    table = capsys.readouterr().out
    assert "head" in table and "epsilon" in table

    result = tmp_path / "result.json"
    per = tmp_path / "per.csv"
    rc = main([
        "infer", "--data", str(dataset), "--policy", str(policy),
        "--out", str(result), "--per-instance", str(per),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "within budget" in out
    doc = json.loads(result.read_text())
    assert doc["consumed_budget"] <= 800.0
    assert 0.0 <= doc["accuracy"] <= 1.0
    assert len(per.read_text().splitlines()) == 1 + 400


def test_calibrate_infeasible_budget_exit_4(dataset, tmp_path, capsys):
    rc = main([
        "calibrate", "--data", str(dataset), "--budget", "10",
        "--batch-size", "400", "--out", str(tmp_path / "p.json"),
    ])
    assert rc == 4
    err = capsys.readouterr().err
    assert "400" in err  # message states the batch minimum


def test_infer_mismatched_policy_exit_5(dataset, tmp_path):
    # policy with a different head count than the bank
    policy_doc = {
        "score_kind": "breaking_ties",
        "jitter_u": 1e-5,
        "seed": 0,
        "calibration_size": 10,
        "seq_rates": [0.5, 1.0],
        "thresholds": [0.5, None],
    }
    p = tmp_path / "p.json"
    p.write_text(json.dumps(policy_doc))
    rc = main([
        "infer", "--data", str(dataset), "--policy", str(p),
        "--out", str(tmp_path / "r.json"),
    ])
    assert rc == 5


@pytest.mark.parametrize(
    "field, value",
    [
        ("seq_rates", lambda v: [1.5] + v[1:]),  # rates must be non-decreasing in [0, 1]
        ("thresholds", lambda v: v[:1]),  # one threshold for three heads
        ("score_kind", lambda v: "softmax_margin"),
        # an object whose keys read as numbers is not a list of thresholds
        ("thresholds", lambda v: {str(i): 0 for i in range(len(v))}),
        # only JSON numbers are rates and thresholds, and only a threshold may be null
        ("seq_rates", lambda v: [None] + v[1:]),
        ("seq_rates", lambda v: [math.nan] + v[1:]),
        ("seq_rates", lambda v: ["0.5"] + v[1:]),
        ("seq_rates", lambda v: v[:-1] + [True]),
        ("thresholds", lambda v: ["0.5"] + v[1:]),
        ("calibration_size", lambda v: True),
        ("calibration_size", lambda v: str(v)),
    ],
    ids=[
        "bad_seq_rates", "short_thresholds", "unknown_score_kind", "thresholds_object",
        "seq_rates_null", "seq_rates_nan", "seq_rates_string", "seq_rates_true",
        "thresholds_string", "calibration_size_true", "calibration_size_string",
    ],
)
def test_infer_malformed_policy_exit_3(dataset, tmp_path, capsys, field, value):
    policy = tmp_path / "policy.json"
    assert main([
        "calibrate", "--data", str(dataset), "--budget", "800", "--out", str(policy),
    ]) == 0
    doc = json.loads(policy.read_text())
    doc[field] = value(doc[field])
    policy.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main([
        "infer", "--data", str(dataset), "--policy", str(policy),
        "--out", str(tmp_path / "r.json"),
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: not a policy document") and err.count("\n") == 1
    assert str(policy) in err
    assert not (tmp_path / "r.json").exists()


def test_unsorted_test_labels_exit_3_naming_the_file(dataset, tmp_path, capsys):
    # every CSV's ids strictly increase, label files included: `calibrate`,
    # which counts the test labels for its default batch, and `infer` report
    # the label file and the row of the fault
    policy = tmp_path / "policy.json"
    assert main(["calibrate", "--data", str(dataset), "--budget", "800", "--out", str(policy)]) == 0
    labels = dataset / "test_labels.csv"
    lines = labels.read_text().split("\n")
    lines[1], lines[2] = lines[2], lines[1]
    labels.write_text("\n".join(lines))
    for argv in (["calibrate", "--budget", "800"], ["infer", "--policy", str(policy)]):
        capsys.readouterr()
        out = tmp_path / "out.json"
        rc = main(argv[:1] + ["--data", str(dataset), "--out", str(out)] + argv[1:])
        assert rc == 3
        err = capsys.readouterr().err
        assert err == f"error: instance ids must be strictly increasing [{labels}, row 3]\n"
        assert not out.exists()


def test_oracle_exit_codes(dataset, tmp_path):
    out = tmp_path / "oracle.json"
    rc = main(["oracle", "--data", str(dataset), "--budget", "800", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["oracle"] is True
    assert doc["consumed_budget"] <= 800.0

    rc = main(["oracle", "--data", str(dataset), "--budget", "10", "--out", str(out)])
    assert rc == 4

    rc = main(["oracle", "--data", str(dataset), "--budget", "800",
               "--mode", "at-most", "--out", str(out)])
    assert rc == 0

    # at-most is the only mode, and these flags are not options
    for extra in (["--mode", "exact"], ["--fast"], ["--resolution", "1e-9"]):
        with pytest.raises(SystemExit) as e:
            main(["oracle", "--data", str(dataset), "--budget", "800",
                  "--out", str(out)] + extra)
        assert e.value.code == 2


def test_oracle_cli_matches_sort_reference(dataset, tmp_path):
    # cheapest correct head per instance, smallest raises first
    ds = load_manifest(dataset)
    test = ds.split("test")
    corr = build_correctness(test.bank, test.labels)
    costs = test.bank.budgets
    t = corr.shape[0]
    raisable = corr.any(axis=1)
    raises = np.sort(costs[np.argmax(corr[raisable], axis=1)] - costs[0])
    out = tmp_path / "o.json"
    for budget in ("500", "900", "1200"):
        assert main(["oracle", "--data", str(dataset), "--budget", budget,
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        k = int(np.sum(t * costs[0] + np.cumsum(raises) <= float(budget)))
        assert doc["accuracy"] == k / t
        assignment = np.asarray(doc["assignment"]) - 1
        assert doc["consumed_budget"] == math.fsum(costs[assignment])
        assert doc["consumed_budget"] <= float(budget)


def test_policy_bytes_deterministic(dataset, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        rc = main([
            "calibrate", "--data", str(dataset), "--budget", "800",
            "--batch-size", "400", "--seed", "11", "--out", str(out),
        ])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_env_fallback(dataset, tmp_path, monkeypatch):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    monkeypatch.setenv("EERO_SEED", "77")
    rc = main([
        "calibrate", "--data", str(dataset), "--budget", "800",
        "--batch-size", "400", "--out", str(a),
    ])
    assert rc == 0
    monkeypatch.delenv("EERO_SEED")
    rc = main([
        "calibrate", "--data", str(dataset), "--budget", "800",
        "--batch-size", "400", "--seed", "77", "--out", str(b),
    ])
    assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_schema_and_sources(dataset, tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--data", str(dataset), "--budgets", "500,800,1200",
        "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "budget,accuracy,consumed,within_budget,source"
    m = SPEC["num_heads"]
    assert len(lines) == 1 + 3 * (m + 2)
    sources = [ln.rsplit(",", 1)[1] for ln in lines[1:]]
    assert sources[: m + 2] == ["eero", "oracle"] + [f"head_{i+1}" for i in range(m)]
    for ln in lines[1:]:
        budget, accuracy, consumed, within, source = ln.split(",")
        if source == "oracle":
            # the oracle admits totals within a relative 1e-12 of the budget
            assert within == "true"
            assert float(consumed) <= float(budget) * (1.0 + 1e-12)
        else:
            assert within == ("true" if float(consumed) <= float(budget) else "false")
        if source == "eero":
            # small calibration set here: allow the 1/sqrt(N) fluctuation band
            assert float(consumed) <= float(budget) * 1.05


def test_sweep_oracle_spending_decimal_budget_is_within(tmp_path):
    # 3 * 1.6 + 2 * 1.0 is 6.8 in decimal, but its fsum is 6.800000000000001
    fast = [[0.9, 0.1]] * 5  # head 1 says class 0
    slow = [[0.1, 0.9]] * 5  # head 2 says class 1
    labels = np.array([1, 1, 1, 0, 0])
    bank = HeadBank(heads=(
        HeadSlice(probs=np.array(fast), budget_gflops=1.0),
        HeadSlice(probs=np.array(slow), budget_gflops=1.6),
    ))
    split = Split(bank=bank, labels=labels)
    write_dataset(
        Dataset(num_classes=2, splits={"train": split, "calib": Split(bank=bank), "test": split}),
        tmp_path / "data",
    )
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--data", str(tmp_path / "data"), "--budgets", "6.8", "--out", str(out),
    ])
    assert rc == 0
    oracle = [ln.split(",") for ln in out.read_text().splitlines() if ln.endswith(",oracle")]
    assert oracle == [["6.8", "1.0", "6.800000000000001", "true", "oracle"]]


def test_sweep_rows_share_the_oracle_budget_rule(tmp_path):
    # head_2 everywhere costs 3 * 1.6 = 4.800000000000001 at a budget of 4.8
    probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
    bank = HeadBank(heads=(
        HeadSlice(probs=probs, budget_gflops=1.0),
        HeadSlice(probs=probs, budget_gflops=1.6),
    ))
    split = Split(bank=bank, labels=np.array([0, 1, 0]))
    write_dataset(
        Dataset(num_classes=2, splits={"train": split, "calib": Split(bank=bank), "test": split}),
        tmp_path / "data",
    )
    out = tmp_path / "sweep.csv"
    assert main([
        "sweep", "--data", str(tmp_path / "data"), "--budgets", "4.8", "--out", str(out),
    ]) == 0
    rows = {ln.rsplit(",", 1)[1]: ln.split(",") for ln in out.read_text().splitlines()[1:]}
    assert rows["head_2"] == ["4.8", "1.0", "4.800000000000001", "true", "head_2"]
    assert rows["head_1"][3] == "true"


def test_sweep_linspace_and_bad_forms(dataset, tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--data", str(dataset), "--budgets", "linspace:500:1200:3",
        "--out", str(out),
    ])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 1 + 3 * (SPEC["num_heads"] + 2)

    assert main(["sweep", "--data", str(dataset), "--budgets", "linspace:1:2",
                 "--out", str(out)]) == 2
    assert main(["sweep", "--data", str(dataset), "--budgets", "abc",
                 "--out", str(out)]) == 2


def test_sweep_infeasible_budget_exit_4_nothing_written(dataset, tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--data", str(dataset), "--budgets", "10,800",
        "--out", str(out),
    ])
    assert rc == 4
    assert not out.exists()  # partial sweeps never land on disk


def _assert_sweep_rows_equal_classify_batch(data, budgets, extra, tmp_path):
    """Each eero sweep row equals classify_batch on the policy calibrate writes."""
    sweep = tmp_path / "sweep.csv"
    budget_text = ",".join(repr(b) for b in budgets)
    rc, err = _run_quiet(["sweep", "--data", str(data), "--budgets", budget_text,
                          "--out", str(sweep)] + extra)
    assert rc == 0, err
    rows = [ln.split(",") for ln in sweep.read_text().splitlines() if ln.endswith(",eero")]
    assert len(rows) == len(budgets)
    test = load_manifest(data, splits=("test",)).split("test")
    for total, (budget, accuracy, consumed, within, _) in zip(budgets, rows):
        policy_path = tmp_path / "policy.json"
        rc, err = _run_quiet(["calibrate", "--data", str(data), "--budget", repr(total),
                              "--out", str(policy_path)] + extra)
        assert rc == 0, err
        policy, _ = eio.load_policy(policy_path)
        result = eero.classify_batch(test.bank, policy, labels=test.labels)
        assert float(budget) == total
        assert float(accuracy) == result.accuracy, (extra, total)
        assert float(consumed) == result.consumed_budget, (extra, total)
        assert within == ("true" if within_budget(result.consumed_budget, total) else "false")


@pytest.mark.parametrize("score", ["breaking_ties", "max_prob", "neg_entropy"])
@pytest.mark.parametrize("jitter", [[], ["--jitter", "0"]])
def test_sweep_rows_equal_classify_batch(dataset, tmp_path, score, jitter):
    # the sweep routes from cached score matrices; calibrate + classify_batch
    # score afresh for each budget, and every number must agree bit for bit
    budgets = [400.0, 650.0, 900.0, 1150.0, 1400.0, 1700.0]
    _assert_sweep_rows_equal_classify_batch(
        dataset, budgets, ["--score", score, "--seed", "0"] + jitter, tmp_path
    )


def test_sweep_rows_equal_classify_batch_default_data(tmp_path):
    data = tmp_path / "data"
    write_dataset(generate(default_spec(0)), data)
    _assert_sweep_rows_equal_classify_batch(
        data, [6000.0, 20000.0, 47000.0], ["--seed", "0"], tmp_path
    )


def _sweep_groups(data, budgets, extra, out):
    """Each budget's rows of one sweep, in the order the budgets are given."""
    argv = ["sweep", "--data", str(data), "--budgets", budgets, "--out", str(out)]
    rc, err = _run_quiet(argv + extra)
    assert rc == 0, err
    groups = []
    for line in out.read_text().splitlines()[1:]:
        if line.endswith(",eero"):  # each budget's rows start with its eero row
            groups.append([])
        groups[-1].append(line)
    return groups


@pytest.mark.parametrize("extra", [["--seed", "0"], ["--score", "neg_entropy", "--jitter", "0"]])
def test_sweep_rows_of_a_budget_do_not_depend_on_the_others(tmp_path, extra):
    # budgets are fitted together and routed a few per pass; none may see another
    data = tmp_path / "data"
    write_dataset(generate(default_spec(0)), data)
    step = eero.cli.SWEEP_PASS_ELEMENTS // (8 * 5000)  # budgets per routing pass here
    grid = [float(b) for b in np.linspace(6000.0, 47000.0, 1000)]
    many = _sweep_groups(data, "linspace:6000:47000:1000", extra, tmp_path / "many.csv")
    assert len(many) == 1000 and 1 < step < 999
    assert all(len(rows) == 10 for rows in many)
    assert len({tuple(rows[0].split(",")[1:3]) for rows in many}) > 100  # eero rows differ
    # 1 against 1000: the ends, and a budget on each side of a pass boundary
    for i in (0, step - 1, step, 999):
        assert _sweep_groups(data, repr(grid[i]), extra, tmp_path / "one.csv") == [many[i]], i
    # unsorted, with repeats, across that boundary
    picks = [step, 999, 0, step - 1, step, 0]
    mixed = _sweep_groups(data, ",".join(repr(grid[i]) for i in picks), extra, tmp_path / "mixed.csv")
    assert mixed == [many[i] for i in picks]


FIT_FAULTS = [[], ["--score", "neg_entropy", "--jitter", "1e308"], ["--beta", "1e200"]]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    budgets=st.lists(st.sampled_from(["10", "399.9", "400", "500", "800", "1600", "inf", "nan"]),
                     min_size=1, max_size=5),
    extra=st.sampled_from(FIT_FAULTS),
)
def test_sweep_reports_the_first_failing_budget_s_own_error(dataset, tmp_path, budgets, extra):
    # the batched fit fails as fitting the budgets one at a time in order does
    def sweep(text):
        return _run_quiet(["sweep", "--data", str(dataset), "--budgets", text,
                           "--out", str(tmp_path / "s.csv")] + extra)

    alone = [sweep(b) for b in budgets]
    first = next((out for out in alone if out[0] != 0), (0, ""))
    assert sweep(",".join(budgets)) == first


def test_help_lists_flags(capsys):
    for cmd in ("synth", "calibrate", "infer", "oracle", "sweep"):
        with pytest.raises(SystemExit) as e:
            main([cmd, "--help"])
        assert e.value.code == 0
        text = capsys.readouterr().out
        assert "--out" in text


@pytest.mark.parametrize(
    "argv, edit, code",
    [
        (["oracle", "--budget", "-3"], None, 2),
        (["sweep", "--budgets", "500,800", "--jitter", "-1"], None, 2),
        (["calibrate", "--budget", "800", "--beta", "-1"], None, 2),
        (["calibrate", "--budget", "-800"], None, 2),
        (["calibrate", "--budget", "800"], 2.0, 3),
        (["calibrate", "--budget", "800"], "high", 3),
        (["calibrate", "--budget", "800", "--jitter", "inf"], None, 2),
        (["calibrate", "--budget", "800", "--score", "neg_entropy", "--jitter", "1e308"], None, 2),
        (["sweep", "--budgets", "500,800", "--jitter", "inf"], None, 2),
        (["calibrate", "--budget", "800", "--beta", "inf"], None, 2),
        (["sweep", "--budgets", "linspace:500:inf:3"], None, 2),
        (["sweep", "--budgets", "linspace:6000:47000:1000000000000"], None, 2),
        (["calibrate", "--budget", "inf"], None, 2),
        (["oracle", "--budget", "inf"], None, 2),
        (["sweep", "--budgets", "800,inf"], None, 2),
        (["sweep", "--budgets", "500,800", "--score", "neg_entropy", "--jitter", "1e308"], None, 2),
        (["sweep", "--budgets", "10,800", "--score", "neg_entropy", "--jitter", "1e308"], None, 4),
        (["sweep", "--budgets", "1,x"], None, 2),
        (["sweep", "--budgets", ","], None, 2),
        # file names the OS cannot open, on the first file a load reads
        (["calibrate", "--budget", "800"], {"probs_csv": "head\x00.csv"}, 3),
        (["calibrate", "--budget", "800"], {"probs_csv": "\ud800.csv"}, 3),
    ],
)
def test_invalid_input_exits_with_one_line_error(dataset, tmp_path, capsys, argv, edit, code):
    if edit is not None:  # to head 1 of the train split; a bare value is its risk
        manifest = dataset / "manifest.json"
        doc = json.loads(manifest.read_text())
        head = doc["splits"]["train"]["heads"][0]
        head.update(edit if isinstance(edit, dict) else {"risk": edit})
        manifest.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(argv[:1] + ["--data", str(dataset), "--out", str(tmp_path / "out")] + argv[1:])
    assert rc == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


TINY = Path(__file__).resolve().parents[1] / "sample_data" / "tiny"
# finite values, signed zeros, negatives, infinities, NaN and the float edge
NUMBERS = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).map(repr),
    st.sampled_from(["0", "-0.0", "-3", "inf", "-inf", "nan", "1e308", "-1e308", "5e-324"]),
)
INTS = st.one_of(st.integers(-3, 40), st.sampled_from([2**63, -(2**70)]))
BUDGETS = st.one_of(
    st.lists(NUMBERS, min_size=1, max_size=3).map(",".join),
    st.builds(lambda lo, hi, n: f"linspace:{lo}:{hi}:{n}", NUMBERS, NUMBERS, st.integers(-1, 50)),
)


# (file, key path, raw JSON value written there, text the one error line must hold)
FILE_FAULTS = {
    "budget_batch_size_0": ("policy", ["budget_spec", "batch_size"], "0", "batch size"),
    "budget_no_total": ("policy", ["budget_spec"], '{"batch_size": 6}', "total_budget"),
    "budget_batch_size_x": ("policy", ["budget_spec", "batch_size"], '"x"', "'x'"),
    "budget_list": ("policy", ["budget_spec"], "[12.0, 6]", "total_budget"),
    "budget_negative": ("policy", ["budget_spec", "total_budget"], "-12.0", "total budget"),
    "budget_subnormal": (
        "policy", ["budget_spec", "total_budget"], "5e-324", "is 0 per instance over a batch of 6"
    ),
    "seed_infinity": ("policy", ["seed"], "Infinity", "not a policy document"),
    "seed_1e400": ("policy", ["seed"], "1e400", "not a policy document"),
    "size_infinity": ("policy", ["calibration_size"], "Infinity", "not a policy document"),
    "size_1e400": ("policy", ["calibration_size"], "1e400", "not a policy document"),
    "budget_batch_size_2.5": (
        "policy", ["budget_spec", "batch_size"], "2.5", "batch size must be an integer, got 2.5"
    ),
    "seed_0.9": ("policy", ["seed"], "0.9", "seed must be an integer, got 0.9"),
    "size_2.5": (
        "policy", ["calibration_size"], "2.5", "calibration size must be an integer, got 2.5"
    ),
    "split_list": ("manifest", ["splits", "calib"], "[1, 2]", "split 'calib'"),
    "head_number": ("manifest", ["splits", "test", "heads", 1], "7", "head 2 of split 'test'"),
    "probs_csv_number": (
        "manifest", ["splits", "calib", "heads", 0, "probs_csv"], "5", "head 1 of split 'calib'"
    ),
    "labels_csv_number": ("manifest", ["splits", "test", "labels_csv"], "5", "split 'test'"),
    "budget_gflops_inf": (
        "manifest", ["splits", "test", "heads", 1, "budget_gflops"], '"inf"',
        "budget_gflops of head 2 of split 'test'",
    ),
    "num_classes_1": ("manifest", ["num_classes"], "1", "num_classes must be an integer >= 2"),
    "splits_empty": ("manifest", ["splits"], "{}", "splits must be a non-empty object"),
    "split_unknown": (
        "manifest", ["splits", "valid"], '{"heads": []}', "unknown split names ['valid']"
    ),
}


@pytest.mark.parametrize("fault", sorted(FILE_FAULTS))
def test_malformed_file_exits_3_with_one_line(tmp_path, capsys, fault):
    file, keys, raw, needle = FILE_FAULTS[fault]
    data = tmp_path / "data"
    shutil.copytree(TINY, data)
    policy = tmp_path / "policy.json"
    assert main(["calibrate", "--data", str(data), "--budget", "12", "--out", str(policy)]) == 0
    target = policy if file == "policy" else data / "manifest.json"
    doc = json.loads(target.read_text())
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = "<fault>"
    target.write_text(json.dumps(doc).replace('"<fault>"', raw))
    capsys.readouterr()
    out = tmp_path / "result.json"
    rc = main(["infer", "--data", str(data), "--policy", str(policy), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 3, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert needle in err and str(target) in err, err
    assert not out.exists()


def _deflate_damaged(raw):
    gz = bytearray(gzip.compress(raw))
    for i in range(12, len(gz) - 8):  # the deflate body, past the 10-byte header
        gz[i] ^= 0x5A
    return bytes(gz)


# damaged bytes of a CSV: test_head_1.csv's bytes -> what is written in its place
CSV_FAULTS = {
    "not_utf8": lambda raw: raw + b"\xff",
    "gzip_not_utf8": lambda raw: gzip.compress(raw + b"\xff"),
    "gzip_truncated": lambda raw: gzip.compress(raw)[:30],
    "gzip_corrupt_deflate": _deflate_damaged,
    "gzip_bad_header": lambda raw: b"\x1f\x8b\x09" + gzip.compress(raw)[3:],
}


@pytest.mark.parametrize("fault", sorted(CSV_FAULTS))
def test_damaged_csv_exits_3_with_one_line(tmp_path, capsys, fault):
    data = tmp_path / "data"
    shutil.copytree(TINY, data, ignore=shutil.ignore_patterns(eio.CACHE_DIR))
    target = data / "test_head_1.csv"
    good = target.read_bytes()
    entry = data / eio.CACHE_DIR / (target.name + ".table")
    out = tmp_path / "oracle.json"
    errs = []
    for warm in (False, True):
        if warm:  # cache every test file from its good bytes, then damage one again
            target.write_bytes(good)
            assert main(["oracle", "--data", str(data), "--budget", "12",
                         "--out", str(tmp_path / "good.json")]) == 0
            cached = entry.read_bytes()
        target.write_bytes(CSV_FAULTS[fault](good))
        capsys.readouterr()
        rc = main(["oracle", "--data", str(data), "--budget", "12", "--out", str(out)])
        errs.append(capsys.readouterr().err)
        assert rc == 3, errs[-1]
        assert entry.exists() == warm
    assert errs[0] == errs[1]
    assert errs[0].startswith("error: ") and errs[0].count("\n") == 1, errs[0]
    assert str(target) in errs[0], errs[0]
    assert not out.exists()
    assert entry.read_bytes() == cached


def test_cached_labels_with_lowered_num_classes_exit_3(tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(TINY, data, ignore=shutil.ignore_patterns(eio.CACHE_DIR))
    out = tmp_path / "oracle.json"
    assert main(["oracle", "--data", str(data), "--budget", "12", "--out", str(out)]) == 0
    assert (data / eio.CACHE_DIR / "test_labels.csv.table").exists()
    manifest = data / "manifest.json"
    doc = json.loads(manifest.read_text())
    # the probability files now fail the class count first; the range check
    # of cached labels is pinned in test_parse_paths
    doc["num_classes"] -= 1
    manifest.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["oracle", "--data", str(data), "--budget", "12", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


# SHA-256 of every file the CLI writes, for each score kind at the default
# jitter, as written since each row takes one jitter draw per head.  A change
# to any of these bytes is a change to eero's output and must be intended.
OUTPUT_RUNS = {"tiny": ("12", "8,12,16"), "default_seed_0": ("20000", "6000,20000,47000")}
OUTPUT_DIGESTS = {
    "default_seed_0": {
        "oracle.json": "8ca13032e149893bda389792014bda55f9f372105e3f130995c04949a74f74ae",
        "breaking_ties/infer.json": "805a31f357e65af6d579b1875209674cb5a67d1f237a113f58c28eb3754cc742",
        "breaking_ties/per_instance.csv": "c41fb30994677fb41a75e1f24e235ef37fa5dee4c3faf7173ef7bddb3fa67fda",
        "breaking_ties/policy.json": "64a6660c423d70df6480d61bc645ef8b5714d7eb4b78dbcc75200f03e572f13e",
        "breaking_ties/sweep.csv": "05133b246722639f87801ec0f9fe4ea5776e9d5b73b1826d686539de0bc9e837",
        "max_prob/infer.json": "8682dc35652ef6d4316435603c10cabc2a4ae55d3bc1d138f69f351b98ddcef3",
        "max_prob/per_instance.csv": "7d540c6d5f074362da623521623c2eddc5e44964194d030dde9b1b914dec69a4",
        "max_prob/policy.json": "7955eaf39463b1b04cc68f1fb7e4ae006230400d28238bee5e1a56d584147c9a",
        "max_prob/sweep.csv": "0302780d0d4dad5a58e1da25c5622bc4249417cd6820fe0a75bbc9a6087e3c91",
        "neg_entropy/infer.json": "61df1412df269948cef0558c41d86cf839f1766fd5cbfd3c3e82e96a6633b4bc",
        "neg_entropy/per_instance.csv": "32202dc8a75c8023d660a5efe931310fca04bc06c956ebdd1cac9f23491e0a6d",
        "neg_entropy/policy.json": "6f0b0909895d81e147eeaf609b15d492f87b5d1626d31ae81294858223575f17",
        "neg_entropy/sweep.csv": "c000ec986adaa2b40e61324f34444e26035e80f9f0b5f1fc45f869787ba0fb2e",
    },
    "tiny": {
        "oracle.json": "6e85a1917b925aeb32b2bfef66a7963681239fc69d63baa89955d4c6623d26a2",
        "breaking_ties/infer.json": "3fde03625ccb4aa45b9d540476713a34479b3a244b87cfb149f0c1d98efdd818",
        "breaking_ties/per_instance.csv": "456c296022912dd93a7f0458aa98a4224ab937c51a44655cad27cd4002c159e4",
        "breaking_ties/policy.json": "da550003cb3410aeb60a2f9a8da43a0ff40cc439ee703e6e3c531240d8b574eb",
        "breaking_ties/sweep.csv": "77b565067a7748eb574713bd784a7ca54490eab106b9cf362eee985b5736fb0f",
        "max_prob/infer.json": "1404914fff7d71bfd3d838e03376845810ed7ed07c7b72d7cb17b917ca373eac",
        "max_prob/per_instance.csv": "7763d19fca0879c0e9dc60d0a780bd685de2fdf5a11efbd6ee7c3f22c7629994",
        "max_prob/policy.json": "3333e1e85ad7cf254618bd7c9d5cd4600dce0be2473339c8c60fd73dfe22f6d7",
        "max_prob/sweep.csv": "74a71bcd75876b8d28ea2d8aced58d9c28e394902816dcf6f4462d7ae7489416",
        "neg_entropy/infer.json": "1404914fff7d71bfd3d838e03376845810ed7ed07c7b72d7cb17b917ca373eac",
        "neg_entropy/per_instance.csv": "7763d19fca0879c0e9dc60d0a780bd685de2fdf5a11efbd6ee7c3f22c7629994",
        "neg_entropy/policy.json": "87476445b6c046343d634930b05d39c9e9935e6d7adf24d6f8026c21ddf87091",
        "neg_entropy/sweep.csv": "74a71bcd75876b8d28ea2d8aced58d9c28e394902816dcf6f4462d7ae7489416",
    },
}


@pytest.mark.parametrize("name", sorted(OUTPUT_RUNS))
def test_result_writers_keep_their_bytes_cold_and_warm(tmp_path, name):
    budget, _ = OUTPUT_RUNS[name]
    digests = [OUTPUT_DIGESTS[name][f"breaking_ties/{f}"] for f in ("infer.json", "per_instance.csv")]
    data = tmp_path / "data"
    if name == "tiny":
        shutil.copytree(TINY, data, ignore=shutil.ignore_patterns(eio.CACHE_DIR))
    else:
        write_dataset(generate(default_spec(0)), data)
        shutil.rmtree(data / eio.CACHE_DIR)  # the first run below must parse
    for run in ("cold", "warm"):
        out = tmp_path / run
        policy, result, rows = out / "policy.json", out / "infer.json", out / "per_instance.csv"
        assert main(["calibrate", "--data", str(data), "--budget", budget, "--seed", "0",
                     "--out", str(policy)]) == 0
        assert main(["infer", "--data", str(data), "--policy", str(policy), "--out", str(result),
                     "--per-instance", str(rows)]) == 0
        got = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (result, rows)]
        assert got == digests, run


@pytest.mark.parametrize("name", sorted(OUTPUT_RUNS))
def test_cli_outputs_keep_their_bytes(tmp_path, name):
    budget, budgets = OUTPUT_RUNS[name]
    data = tmp_path / "data"
    if name == "tiny":
        shutil.copytree(TINY, data, ignore=shutil.ignore_patterns(eio.CACHE_DIR))
    else:
        write_dataset(generate(default_spec(0)), data)
    got = {}
    rc, err = _run_quiet(["oracle", "--data", str(data), "--budget", budget,
                          "--out", str(tmp_path / "oracle.json")])
    assert rc == 0, err
    got["oracle.json"] = hashlib.sha256((tmp_path / "oracle.json").read_bytes()).hexdigest()
    for kind in SCORE_KINDS:
        out = tmp_path / kind
        out.mkdir()
        fit = ["--score", kind, "--seed", "0"]
        for argv in (
            ["calibrate", "--data", str(data), "--budget", budget, "--out", str(out / "policy.json")] + fit,
            ["infer", "--data", str(data), "--policy", str(out / "policy.json"),
             "--out", str(out / "infer.json"), "--per-instance", str(out / "per_instance.csv")],
            ["sweep", "--data", str(data), "--budgets", budgets, "--out", str(out / "sweep.csv")] + fit,
        ):
            rc, err = _run_quiet(argv)
            assert rc == 0, err
        for f in ("policy.json", "infer.json", "per_instance.csv", "sweep.csv"):
            got[f"{kind}/{f}"] = hashlib.sha256((out / f).read_bytes()).hexdigest()
    assert got == OUTPUT_DIGESTS[name]


# `calibrate --budget 12 --seed 0` on sample_data/tiny, as policies were
# written before documents became strict JSON: 17 significant digits, and a
# -Infinity token for the last head's threshold
OLD_TINY_POLICY = (
    '{"score_kind": "breaking_ties", "jitter_u": 1.0000000000000001e-05, "seed": 0, '
    '"seq_rates": [0.70412414523193156, 1.0], "thresholds": [0.050005568907808107, -Infinity], '
    '"calibration_size": 6, "budget_spec": {"total_budget": 12.0, "batch_size": 6}, '
    '"allocation": {"epsilons": [0.5, 0.5], "multiplier": 0.11173605223326116, '
    '"expected_budget": 2.0, "kl_to_prior": 0.14384103622589042, "saturated": true}}\n'
)


def test_a_policy_in_the_old_format_infers_the_same_bytes(tmp_path):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(OLD_TINY_POLICY)
    rc, err = _run_quiet(["calibrate", "--data", str(TINY), "--budget", "12", "--seed", "0",
                          "--out", str(new)])
    assert rc == 0, err
    # the re-written policy holds the same values, with null for -inf
    assert json.loads(new.read_text()) == {
        **json.loads(OLD_TINY_POLICY), "thresholds": [0.050005568907808107, None]
    }
    for policy in (old, new):
        rc, err = _run_quiet(["infer", "--data", str(TINY), "--policy", str(policy),
                              "--out", str(tmp_path / f"{policy.stem}_infer.json"),
                              "--per-instance", str(tmp_path / f"{policy.stem}_rows.csv")])
        assert rc == 0, err
    for f in ("infer.json", "rows.csv"):
        assert (tmp_path / f"old_{f}").read_bytes() == (tmp_path / f"new_{f}").read_bytes()
    assert hashlib.sha256((tmp_path / "new_infer.json").read_bytes()).hexdigest() == (
        OUTPUT_DIGESTS["tiny"]["breaking_ties/infer.json"]
    )


# run in a fresh interpreter: imports eero, runs every command but synth on
# the tiny set, then generates a small set and prints a digest of its arrays;
# importing eero loads neither scipy nor the thread queues load_manifest uses
_WITHOUT_SCIPY = """
import dataclasses, hashlib, sys
import eero, eero.cli
assert not {"scipy", "queue", "concurrent.futures"} & sys.modules.keys(), "import eero"
data, out = sys.argv[1], sys.argv[2]
for argv in (
    ["calibrate", "--data", data, "--budget", "12", "--out", out + "/policy.json"],
    ["infer", "--data", data, "--policy", out + "/policy.json", "--out", out + "/infer.json",
     "--per-instance", out + "/per_instance.csv"],
    ["oracle", "--data", data, "--budget", "12", "--out", out + "/oracle.json"],
    ["sweep", "--data", data, "--budgets", "8,12,16", "--out", out + "/sweep.csv"],
):
    assert eero.cli.main(argv) == 0, argv
    assert "scipy" not in sys.modules, argv[0]
data = eero.generate(dataclasses.replace(eero.default_spec(5), sizes=(30, 20, 10)))
assert "scipy" in sys.modules
print(hashlib.sha256(b"".join(h.probs.tobytes() for h in data.test_bank.heads)).hexdigest())
"""


def test_commands_other_than_synth_never_load_scipy(tmp_path):
    # scipy is imported by the synthetic generator on first use, and by nothing else
    data = tmp_path / "tiny"
    shutil.copytree(TINY, data, ignore=shutil.ignore_patterns(eio.CACHE_DIR))
    src = str(Path(eero.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, str(data), str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    spec = dataclasses.replace(default_spec(5), sizes=(30, 20, 10))
    probs = b"".join(h.probs.tobytes() for h in generate(spec).test_bank.heads)
    assert done.stdout.splitlines()[-1] == hashlib.sha256(probs).hexdigest()


def test_non_utf8_manifest_exits_3(tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(TINY, data)
    manifest = data / "manifest.json"
    manifest.write_bytes(manifest.read_bytes() + b"\xff")
    capsys.readouterr()
    assert main(["oracle", "--data", str(data), "--budget", "12",
                 "--out", str(tmp_path / "oracle.json")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: invalid JSON") and err.count("\n") == 1, err
    assert str(manifest) in err, err


def _corrupt_train_copy(dataset, tmp_path):
    corrupt = tmp_path / "corrupt"
    shutil.copytree(dataset, corrupt)
    (corrupt / "train_head_1.csv").write_text("instance_id,p_1,p_2,p_3,p_4\n0,oops\n")
    return corrupt


def test_infer_and_oracle_ignore_a_corrupt_train_file(dataset, tmp_path):
    policy = tmp_path / "policy.json"
    assert main(["calibrate", "--data", str(dataset), "--budget", "800", "--out", str(policy)]) == 0
    corrupt = _corrupt_train_copy(dataset, tmp_path)
    written = {}
    for data in (dataset, corrupt):
        out = tmp_path / f"out_{data.name}"
        for argv in (
            ["infer", "--data", str(data), "--policy", str(policy), "--out", str(out / "infer.json"),
             "--per-instance", str(out / "per_instance.csv")],
            ["oracle", "--data", str(data), "--budget", "800", "--out", str(out / "oracle.json")],
        ):
            rc, err = _run_quiet(argv)
            assert rc == 0, err
        written[data] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    assert len(written[corrupt]) == 3
    assert written[corrupt] == written[dataset]


@pytest.mark.parametrize(
    "argv",
    [
        ["calibrate", "--budget", "800"],
        ["calibrate", "--budget", "800", "--batch-size", "400"],
        ["sweep", "--budgets", "800"],
    ],
)
def test_commands_that_read_train_fail_on_its_corrupt_file(dataset, tmp_path, argv):
    corrupt = _corrupt_train_copy(dataset, tmp_path)
    out = tmp_path / "out"
    rc, err = _run_quiet(argv[:1] + ["--data", str(corrupt), "--out", str(out)] + argv[1:])
    assert rc == 3, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "train_head_1.csv, row 2" in err, err
    assert not out.exists()


@pytest.mark.parametrize(
    "corrupt, missing, reported",
    [(1, 2, "test_head_1.csv, row 2"), (2, 1, "No such file or directory")],
    ids=["corrupt_then_missing", "missing_then_corrupt"],
)
def test_the_first_bad_file_in_manifest_order_is_reported(
    dataset, tmp_path, corrupt, missing, reported
):
    # load_manifest reads the files one at a time in manifest order: the
    # error is the one it meets first, and the file after it is not named
    bad = tmp_path / "bad"
    shutil.copytree(dataset, bad)
    (bad / f"test_head_{corrupt}.csv").write_text("instance_id,p_1,p_2,p_3,p_4\n0,oops\n")
    (bad / f"test_head_{missing}.csv").unlink()
    rc, err = _run_quiet(["oracle", "--data", str(bad), "--budget", "800",
                          "--out", str(tmp_path / "oracle.json")])
    assert rc == 3, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert reported in err and "test_head_1.csv" in err and "test_head_2" not in err, err


def test_infer_still_checks_budgets_of_splits_it_does_not_read(dataset, tmp_path):
    policy = tmp_path / "policy.json"
    assert main(["calibrate", "--data", str(dataset), "--budget", "800", "--out", str(policy)]) == 0
    manifest = dataset / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["splits"]["train"]["heads"][1]["budget_gflops"] = 2.5  # test and calib say 2.0
    manifest.write_text(json.dumps(doc))
    rc, err = _run_quiet(["infer", "--data", str(dataset), "--policy", str(policy),
                          "--out", str(tmp_path / "r.json")])
    assert rc == 3
    assert "split 'calib' declares different budgets than earlier splits" in err


@pytest.mark.parametrize(
    "argv, splits",
    [
        (["infer", "--policy", "<policy>"], ["test"]),
        (["oracle", "--budget", "800"], ["test"]),
        # without --batch-size, calibrate counts the test split from its labels file
        (["calibrate", "--budget", "800"], ["train", "calib", "test_labels.csv"]),
        (["calibrate", "--budget", "800", "--batch-size", "400"], ["train", "calib"]),
        (["sweep", "--budgets", "800"], ["train", "calib", "test"]),
    ],
)
def test_each_command_reads_each_file_of_its_splits_once(dataset, tmp_path, monkeypatch, argv, splits):
    # `splits` names whole splits, or single files read on their own
    policy = tmp_path / "policy.json"
    assert main(["calibrate", "--data", str(dataset), "--budget", "800", "--out", str(policy)]) == 0
    reads = []

    def counting(real):
        def read(path, *args):
            reads.append(Path(path).name)
            return real(path, *args)
        return read

    for name in ("read_probs_csv", "read_labels_csv"):
        monkeypatch.setattr(eio, name, counting(getattr(eio, name)))
    argv = [str(policy) if a == "<policy>" else a for a in argv]
    rc, err = _run_quiet(argv[:1] + ["--data", str(dataset), "--out", str(tmp_path / "out")] + argv[1:])
    assert rc == 0, err
    expected = []
    for split in splits:
        if split.endswith(".csv"):
            expected.append(split)
            continue
        expected += [f"{split}_head_{h}.csv" for h in (1, 2, 3)]
        expected += [] if split == "calib" else [f"{split}_labels.csv"]
    assert reads == expected


def _run_quiet(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    budget=NUMBERS, beta=NUMBERS, jitter=NUMBERS, batch=INTS, seed=INTS,
    score=st.sampled_from(["max_prob", "breaking_ties", "neg_entropy"]),
    oracle_budget=NUMBERS, sweep_budgets=BUDGETS,
)
# the policy's allowance over infer's 6-instance batch overflows to inf
@example(
    budget="1e308", beta="1", jitter="0", batch=1, seed=0, score="max_prob",
    oracle_budget="12", sweep_budgets="12",
)
def test_fuzz_numeric_flags_end_in_documented_exit_codes(
    tmp_path, budget, beta, jitter, batch, seed, score, oracle_budget, sweep_budgets
):
    data = ["--data", str(TINY)]
    policy = str(tmp_path / "p.json")
    common = [f"--beta={beta}", f"--jitter={jitter}", f"--seed={seed}", f"--score={score}"]
    runs = [
        ["calibrate", *data, f"--budget={budget}", f"--batch-size={batch}", *common,
         "--out", policy],
        ["oracle", *data, f"--budget={oracle_budget}", "--out", str(tmp_path / "o.json")],
        ["sweep", *data, f"--budgets={sweep_budgets}", *common,
         "--out", str(tmp_path / "s.csv")],
    ]
    for argv in runs:
        rc, err = _run_quiet(argv)
        assert rc in (0, 2, 3, 4, 5), (argv, rc, err)
        if rc != 0:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        elif argv[0] == "calibrate":
            rc, err = _run_quiet(["infer", *data, "--policy", policy,
                                  "--out", str(tmp_path / "r.json")])
            assert rc == 0, (err, (tmp_path / "p.json").read_text())


# values for the fields of a manifest or policy document: numbers that are
# non-finite (json writes NaN and Infinity), huge or past 64 bits; file names
# the OS cannot open or that name no file; and values of any JSON type
JSON_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.integers(-3, 3),
    st.sampled_from([1e308, -1e308, 5e-324, 2**63, -(2**70), 10**400]),
)
FILE_NAMES = st.sampled_from(
    ["a\x00.csv", "\ud800.csv", "\udc80.csv", "", ".", "x" * 300, "nope.csv"]
)
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), JSON_NUMBERS, st.text(max_size=3), FILE_NAMES,
    st.lists(st.integers(0, 3), max_size=3), st.dictionaries(st.text(max_size=2), st.none()),
)


def _fields(node, path=()):
    """(key path, value) of every field of a JSON tree, with a head's
    optional risk and a split's optional labels_csv as None where absent."""
    items = list(node.items() if isinstance(node, dict) else enumerate(node))
    if isinstance(node, dict) and "probs_csv" in node and "risk" not in node:
        items.append(("risk", None))
    if isinstance(node, dict) and "heads" in node and "labels_csv" not in node:
        items.append(("labels_csv", None))
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _fields(value, path + (key,))


# edit kind -> (which fields it may pick, given key and value; the values it
# sets there, or None to delete the field)
EDITS = {
    "file name": (lambda key, value: str(key).endswith("_csv"), FILE_NAMES),
    "number": (lambda key, value: key == "risk" or type(value) in (int, float), JSON_NUMBERS),
    "any": (lambda key, value: True, JSON_VALUES),
    "delete": (lambda key, value: True, None),
}


def _fuzzed(doc, draw):
    """A copy of a JSON document with one to three of its fields edited."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3), label="edits")):
        picks, values = EDITS[draw(st.sampled_from(sorted(EDITS)), label="kind")]
        fields = [path for path, value in _fields(doc) if picks(path[-1], value)]
        if not fields:
            continue
        *up, key = draw(st.sampled_from(fields), label="field")
        node = doc
        for k in up:
            node = node[k]
        if values is not None:
            node[key] = draw(values, label="value")
        elif isinstance(node, dict):
            node.pop(key, None)
        else:
            del node[key]
    return doc


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), target=st.sampled_from(["manifest", "policy"]))
def test_fuzz_manifest_and_policy_documents_end_in_documented_exit_codes(tmp_path, data, target):
    # hypothesis reuses tmp_path across examples: copy the set and fit its policy once
    good = tmp_path / "good"
    if not good.exists():
        shutil.copytree(TINY, good, ignore=shutil.ignore_patterns(eio.CACHE_DIR))
        assert main(["calibrate", "--data", str(good), "--budget", "12",
                     "--out", str(good / "policy.json")]) == 0
    manifest = json.loads((good / "manifest.json").read_text())
    policy = json.loads((good / "policy.json").read_text())
    if target == "manifest":
        manifest = _fuzzed(manifest, data.draw)
    else:
        policy = _fuzzed(policy, data.draw)
    (good / "fuzzed.json").write_text(json.dumps(manifest))
    (tmp_path / "policy.json").write_text(json.dumps(policy))
    fuzzed = str(good / "fuzzed.json")
    runs = [["infer", "--data", fuzzed, "--policy", str(tmp_path / "policy.json")]]
    if target == "manifest":
        runs.append(["calibrate", "--data", fuzzed, "--budget", "12"])
    for argv in runs:
        before = threading.active_count()
        rc, err = _run_quiet([*argv, "--out", str(tmp_path / "out.json")])
        assert rc in (0, 2, 3, 4, 5), (argv, rc, err)
        if rc != 0:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert threading.active_count() == before, argv


@pytest.mark.parametrize("budget, code", [("5.9999999994", 4), ("6", 0)])
def test_calibrate_oracle_sweep_share_one_budget_rule(tmp_path, budget, code):
    # the tiny test batch needs 6 x 1.0 at its cheapest head
    for command, flag in (("calibrate", "--budget"), ("oracle", "--budget"), ("sweep", "--budgets")):
        rc, err = _run_quiet([command, "--data", str(TINY), f"{flag}={budget}",
                              "--out", str(tmp_path / command)])
        assert rc == code, (command, err)
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert "budget 5.9999999994 " in err and "= 6.0" in err, err
    if code == 0:
        rc, _ = _run_quiet(["infer", "--data", str(TINY), "--policy", str(tmp_path / "calibrate"),
                            "--out", str(tmp_path / "r.json")])
        assert rc == 0
        assert json.loads((tmp_path / "r.json").read_text())["budget_report"]["within_budget"]


# budgets around that minimum of 6, down to the rule's relative 1e-12
NEAR_MINIMUM = st.one_of(
    NUMBERS,
    st.floats(min_value=5.999, max_value=6.001).map(repr),
    st.integers(-3000, 3000).map(lambda k: repr(6.0 * (1.0 + k * 1e-15))),
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(budget=NEAR_MINIMUM)
def test_fuzz_calibrate_infeasible_iff_oracle_infeasible(tmp_path, budget):
    args = ["--data", str(TINY), f"--budget={budget}"]
    calibrate, _ = _run_quiet(["calibrate", *args, "--out", str(tmp_path / "p.json")])
    oracle, _ = _run_quiet(["oracle", *args, "--out", str(tmp_path / "o.json")])
    assert (calibrate == 4) == (oracle == 4), (budget, calibrate, oracle)


README = Path(__file__).resolve().parents[1] / "README.md"
ERROR_CLASSES = sorted(
    name for name in eero.__all__
    if isinstance(getattr(eero, name), type) and issubclass(getattr(eero, name), eero.EeroError)
)


def _readme_exit_codes():
    """{error class: exit code} from the README's exit-code table."""
    codes = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].isdigit():
            for name in re.findall(r"`(\w+)`", cells[2]):
                assert name not in codes, f"{name} listed twice"
                codes[name] = int(cells[0])
    return codes


def test_readme_table_names_every_exported_error():
    assert sorted(_readme_exit_codes()) == ERROR_CLASSES


@pytest.mark.parametrize("name", ERROR_CLASSES)
def test_error_class_exit_code_matches_readme(name):
    assert getattr(eero, name).exit_code == _readme_exit_codes()[name]


def _readme_quick_start():
    """(argv, shown output lines) of each README quick-start run on sample_data/tiny."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Quick start"):text.index("## Data format")]
    runs = []
    for block in re.findall(r"```\n(.*?)```", section, flags=re.S):
        lines = block.replace("\\\n", " ").splitlines()
        if lines[0].startswith("$ eero ") and "sample_data/tiny" in lines[0]:
            runs.append((shlex.split(lines[0])[2:], lines[1:]))
    return runs


def test_readme_quick_start_output(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("EERO_SEED", raising=False)
    monkeypatch.chdir(tmp_path)
    runs = _readme_quick_start()
    assert [argv[0] for argv, _ in runs] == ["calibrate", "infer", "oracle", "sweep"]
    for argv, shown in runs:
        argv = [str(TINY) if a == "sample_data/tiny" else a for a in argv]
        capsys.readouterr()
        assert main(argv) == 0, argv
        out = iter(capsys.readouterr().out.splitlines())
        # every shown line appears, in order, in the command's stdout
        for line in shown:
            assert any(got == line for got in out), (argv[0], line)


def test_readme_python_api_output(monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Python API\n\n```python\n(.*?)```", text, flags=re.S).group(1)
    shown = re.search(r"^print\(.*\)  # (.*)$", block, flags=re.M).group(1)
    monkeypatch.chdir(README.parent)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == [shown]


def test_calibrated_plan_never_exceeds_its_cap(tmp_path):
    # default data, seed 1: the plan for 20000 over 5000 test instances is at a cap of 4
    write_dataset(generate(default_spec(seed=1)), tmp_path / "data")
    policy = tmp_path / "policy.json"
    args = ["calibrate", "--data", str(tmp_path / "data"), "--budget", "20000.0", "--seed", "1"]
    rc, err = _run_quiet([*args, "--out", str(policy)])
    assert rc == 0, err
    allocation = json.loads(policy.read_text())["allocation"]
    assert allocation["saturated"]
    assert allocation["expected_budget"] <= 4.0


def _one_line_error(capsys, argv, code):
    """Run the CLI; it must exit `code` with one `error:` line, returned."""
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def _edit_manifest(data, edit):
    manifest = data / "manifest.json"
    doc = json.loads(manifest.read_text())
    edit(doc)
    manifest.write_text(json.dumps(doc))


@pytest.mark.parametrize("argv", [["oracle", "--budget", "800"], ["sweep", "--budgets", "500,800"]])
def test_unlabeled_test_split_exit_3(dataset, tmp_path, capsys, argv):
    _edit_manifest(dataset, lambda doc: doc["splits"]["test"].pop("labels_csv"))
    out = tmp_path / "out"
    err = _one_line_error(capsys, [*argv, "--data", str(dataset), "--out", str(out)], 3)
    assert "labeled test split" in err
    assert not out.exists()


def test_calibrate_without_test_split_needs_batch_size(dataset, tmp_path, capsys):
    _edit_manifest(dataset, lambda doc: doc["splits"].pop("test"))
    out = tmp_path / "policy.json"
    argv = ["calibrate", "--data", str(dataset), "--budget", "800", "--out", str(out)]
    assert "--batch-size is required" in _one_line_error(capsys, argv, 2)
    assert not out.exists()
    assert main([*argv, "--batch-size", "400"]) == 0


@pytest.mark.parametrize("labeled", [True, False], ids=["labeled", "unlabeled"])
def test_calibrate_counts_the_test_split_from_one_file(dataset, tmp_path, labeled):
    # the test split only gives the default batch size: calibrate counts its
    # labels file, or its first head without one, and reads no other test file
    if not labeled:
        _edit_manifest(dataset, lambda doc: doc["splits"]["test"].pop("labels_csv"))
    written = {}
    for damaged in (False, True):
        if damaged:
            (dataset / "test_head_2.csv").write_text("instance_id,p_1,p_2,p_3,p_4\n0,oops\n")
        out = tmp_path / f"policy_{damaged}.json"
        rc, err = _run_quiet(["calibrate", "--data", str(dataset), "--budget", "800",
                              "--seed", "0", "--out", str(out)])
        assert rc == 0, err
        written[damaged] = out.read_bytes()
    assert written[True] == written[False]
    assert json.loads(written[True])["budget_spec"]["batch_size"] == SPEC["sizes"][2]


@pytest.mark.parametrize("counted", ["test_labels.csv", "test_head_1.csv"])
def test_calibrate_fails_on_the_damaged_file_it_counts(dataset, tmp_path, capsys, counted):
    if counted == "test_head_1.csv":
        _edit_manifest(dataset, lambda doc: doc["splits"]["test"].pop("labels_csv"))
    header = "instance_id,label" if counted == "test_labels.csv" else "instance_id,p_1,p_2,p_3,p_4"
    (dataset / counted).write_text(f"{header}\n0,oops\n")
    out = tmp_path / "policy.json"
    argv = ["calibrate", "--data", str(dataset), "--budget", "800", "--out", str(out)]
    assert f"{counted}, row 2" in _one_line_error(capsys, argv, 3)
    assert not out.exists()
    assert main([*argv, "--batch-size", "400"]) == 0


def test_non_integer_seed_env_exit_2(dataset, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EERO_SEED", "abc")
    out = tmp_path / "policy.json"
    argv = ["calibrate", "--data", str(dataset), "--budget", "800", "--out", str(out)]
    assert "EERO_SEED='abc' is not an integer" in _one_line_error(capsys, argv, 2)
    assert not out.exists()


@pytest.mark.parametrize(
    "doc, needle",
    [
        ([SPEC], "must be a JSON object"),
        ({**SPEC, "bogus": 1}, "unknown generator spec fields: ['bogus']"),
        ({k: v for k, v in SPEC.items() if k != "sizes"}, "missing fields: ['sizes']"),
    ],
    ids=["array", "unknown_field", "missing_field"],
)
def test_malformed_synth_spec_exit_2(tmp_path, capsys, doc, needle):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "data"
    argv = ["synth", "--spec", str(spec), "--out", str(out)]
    assert needle in _one_line_error(capsys, argv, 2)
    assert not out.exists()


def test_head_files_with_different_ids_exit_3(dataset, tmp_path, capsys):
    # test head 2 with every id one higher, still strictly increasing
    path = dataset / "test_head_2.csv"
    header, *rows = path.read_text().splitlines()
    rows = [f"{int(i) + 1},{rest}" for i, rest in (row.split(",", 1) for row in rows)]
    path.write_text("\n".join([header, *rows]) + "\n")
    out = tmp_path / "oracle.json"
    argv = ["oracle", "--data", str(dataset), "--budget", "800", "--out", str(out)]
    err = _one_line_error(capsys, argv, 3)
    assert "instance ids of split 'test' differ between heads" in err
    assert str(dataset / "manifest.json") in err
    assert not out.exists()


def test_declared_risks_are_used_only_when_every_train_head_has_one(dataset, tmp_path, capsys):
    policy = tmp_path / "policy.json"
    argv = ["calibrate", "--data", str(dataset), "--budget", "800", "--out", str(policy)]
    m = SPEC["num_heads"]

    def calibrate_with(risks):
        """Calibrate with these train-head risks declared; returns printed risks, policy bytes."""
        def edit(doc):
            for head, risk in zip(doc["splits"]["train"]["heads"], risks):
                head.pop("risk", None)
                if risk is not None:
                    head["risk"] = risk
        _edit_manifest(dataset, edit)
        capsys.readouterr()
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()[1 : 1 + m]
        return [float(line.split()[1]) for line in lines], policy.read_bytes()

    train = load_manifest(dataset, splits=("train",)).split("train")
    from_labels = eio.compute_risks(train.bank, train.labels)
    printed, labels_policy = calibrate_with([None] * m)
    assert printed == [round(r, 4) for r in from_labels]

    declared = [0.5, 0.25, 0.125]
    printed, declared_policy = calibrate_with(declared)
    assert printed == declared
    assert declared_policy != labels_policy

    assert calibrate_with([0.5, None, 0.125]) == ([round(r, 4) for r in from_labels], labels_policy)


@pytest.mark.parametrize(
    "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask_022", "umask_077"]
)
def test_written_files_get_the_mode_open_gives(tmp_path, umask, mode):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC))
    data, policy, result = tmp_path / "data", tmp_path / "policy.json", tmp_path / "result.json"
    old = os.umask(umask)
    try:
        assert main(["synth", "--spec", str(spec), "--out", str(data)]) == 0
        assert main(["calibrate", "--data", str(data), "--budget", "800", "--out", str(policy)]) == 0
        assert main(["infer", "--data", str(data), "--policy", str(policy), "--out", str(result)]) == 0
    finally:
        os.umask(old)
    written = [
        policy,
        result,
        data / "manifest.json",
        data / "test_head_1.csv",
        data / eio.CACHE_DIR / "test_head_1.csv.table",
    ]
    assert {p.name: oct(stat.S_IMODE(p.stat().st_mode)) for p in written} == {
        p.name: oct(mode) for p in written
    }
    assert not list(tmp_path.rglob("*.tmp"))
