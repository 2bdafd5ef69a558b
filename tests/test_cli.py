"""Command line behavior: pipeline wiring, exit codes, determinism."""

import contextlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import eero
from eero.cli import main
from eero.domain import HeadBank, HeadSlice
from eero.io import Dataset, Split, load_manifest, write_dataset
from eero.oracle import build_correctness

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
        "thresholds": [0.5, "-Infinity"],
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
    ],
    ids=["bad_seq_rates", "short_thresholds", "unknown_score_kind"],
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
    assert oracle == [["6.7999999999999998", "1.0", "6.8000000000000007", "true", "oracle"]]


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
    assert rows["head_2"] == ["4.7999999999999998", "1.0", "4.8000000000000007", "true", "head_2"]
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


def test_help_lists_flags(capsys):
    for cmd in ("synth", "calibrate", "infer", "oracle", "sweep"):
        with pytest.raises(SystemExit) as e:
            main([cmd, "--help"])
        assert e.value.code == 0
        text = capsys.readouterr().out
        assert "--out" in text


@pytest.mark.parametrize(
    "argv, risk, code",
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
    ],
)
def test_invalid_input_exits_with_one_line_error(dataset, tmp_path, capsys, argv, risk, code):
    if risk is not None:  # a manifest risk outside [0, 1] or not a number
        manifest = dataset / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["splits"]["train"]["heads"][0]["risk"] = risk
        manifest.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(argv[:1] + ["--data", str(dataset), "--out", str(tmp_path / "out")] + argv[1:])
    assert rc == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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
