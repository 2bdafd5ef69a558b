"""The three workloads: set-up, the timed closed loop, and their checks.

Each workload exposes `setup(seed, work)` (timed by the caller, run
several times), `arrays(state)` (what the input digest covers) and
`measure(state, seconds, tracer)`, which loops for `seconds`, checks
every op outside the timed region and returns an `Outcome`.  Workloads
call only eero's public Python API and `eero.cli.main`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

import eero
import eero.cli

import checks

# cli_default: calibrate, infer, oracle and sweep on the default dataset
CLI_BUDGET = 20000.0  # 4.0 per instance on the 5000-instance test split
CLI_SWEEP = (6000.0, 47000.0, 40)
CLI_FILES = {
    "calibrate": ("policy.json",),
    "infer": ("infer.json", "per_instance.csv"),
    "oracle": ("oracle.json",),
    "sweep": ("sweep.csv",),
}

# route_200k: fresh row permutations of a 200k-instance pool
ROUTE_BUDGETS = (1.6, 2.4, 4.0, 6.0)
ROUTE_CHUNK = 25_000
ROUTE_CHUNKS = 8
ROUTE_SAMPLE_ROWS = 64
# p75 keeps ten ops beyond it at the minimum op count; the percentile is
# fixed so runs of faster code, which fit more ops, stay comparable
ROUTE_MIN_OPS = 40
ROUTE_TAIL_PCT = 75.0

# stream_5k: lazy routing of the default test split at 4.0 per instance
STREAM_BUDGET = 4.0
STREAM_MIN_PASSES = 2
# the highest percentile with ten of the split's 5000 instances beyond it
STREAM_TAIL_PCT = 99.8

# Speed probes. The speed a shared host gives a run drifts by up to half
# between runs, and one speed can hold for a whole run, so no median
# within a run removes it. Before and after every op, outside its timing,
# a workload times a probe: a fixed op of benchmark code, not eero, of the
# same kind as the op's work. The op's time is then scaled to a host on
# which the probe op takes its reference time. A change to eero moves the
# op and not the probe, so it shows in full.
#   kind -> (probe ops per probe, reference seconds per probe op)
PROBES = {
    "small": (2000, 6.0e-6),  # stream_5k: small numpy calls driven from Python
    "bulk": (1, 0.015),  # route_200k: whole-array ops on 200k x 10 floats
}


@dataclasses.dataclass
class Outcome:
    """What one timed loop measured and what its checks found."""

    attempted: int
    failed: int
    units: int  # sessions, batches or passes: per-layer values are per unit
    problems: list
    # generic end-to-end metrics except setup_s and peak_rss_mb
    accuracy: float
    utilization: float
    instances_per_s: float
    op_ms_tail: float
    tail_note: str
    # the workload's own metrics, by the names its doc uses: name -> (value, unit, note)
    named: dict


def percentile(samples, pct):
    """Nearest-rank percentile of a non-empty sample."""
    s = sorted(samples)
    rank = max(1, int(np.ceil(pct / 100.0 * len(s))))
    return s[rank - 1]


def beyond(n, pct):
    """How many of n samples lie above the nearest-rank percentile."""
    return n - max(1, int(np.ceil(pct / 100.0 * n)))


class Probe:
    """Times one kind of probe and scales op times by it (see PROBES)."""

    def __init__(self, kind):
        self.kind = kind
        self.reps, self.ref_s = PROBES[kind]
        if kind == "small":
            self.a = np.arange(10.0)
        else:
            self.a = np.linspace(0.0, 1.0, 2_000_000).reshape(200_000, 10)
        self.last = self.time()

    def _op(self, i):
        if self.kind == "small":
            float(np.max(self.a * 0.5 + i))
        else:
            float((self.a * 0.5 + 1.0).max(axis=1).sum())

    def time(self):
        """Seconds per probe op."""
        t0 = time.perf_counter()
        for i in range(self.reps):
            self._op(i)
        return (time.perf_counter() - t0) / self.reps

    def at_ref(self, seconds):
        """`seconds` of an op that just ended, scaled to the reference speed
        by the mean of the probes before and after it."""
        before, self.last = self.last, self.time()
        return seconds * 2 * self.ref_s / (before + self.last)

    def note(self):
        return f"scaled to a {self.kind}-probe op of {self.ref_s:g} s"


def _set_op(tracer, label):
    if tracer is not None:
        tracer.op = label


@contextlib.contextmanager
def untraced(tracer):
    """Run checks and references without recording spans."""
    was = tracer.enabled if tracer is not None else False
    if tracer is not None:
        tracer.enabled = False
    try:
        yield
    finally:
        if tracer is not None:
            tracer.enabled = was


def _policy(data, seed, mean_budget):
    """Calibrate a policy through the Python API, as the README shows."""
    risks = eero.compute_risks(data.train_bank, data.train_labels)
    budgets = data.calib_bank.budgets
    problem = eero.AllocationProblem(
        risks=risks,
        budgets=budgets,
        prior=eero.default_prior(budgets),
        beta=eero.DEFAULT_BETA,
        mean_budget=mean_budget,
    )
    return eero.build_policy(data.calib_bank, eero.solve_allocation(problem), eero.ScoreSpec(seed=seed))


def _data_arrays(data):
    for bank, labels in ((data.train_bank, data.train_labels), (data.calib_bank, None),
                         (data.test_bank, data.test_labels)):
        for head in bank.heads:
            yield head.probs
        if labels is not None:
            yield labels


# ---------------------------------------------------------------------------


class CliDefault:
    """Closed-loop CLI session on the default synthetic dataset."""

    name = "cli_default"

    def setup(self, seed, work: Path):
        data = eero.generate(eero.default_spec(seed))
        eero.write_dataset(data, work / "data")
        return {"seed": seed, "data": data, "work": work}

    def arrays(self, state):
        return _data_arrays(state["data"])

    def commands(self, state, out: Path):
        data_dir = str(state["work"] / "data")
        seed = str(state["seed"])
        lo, hi, n = CLI_SWEEP
        return [
            ("calibrate", ["calibrate", "--data", data_dir, "--budget", repr(CLI_BUDGET),
                           "--seed", seed, "--out", str(out / "policy.json")]),
            ("infer", ["infer", "--data", data_dir, "--policy", str(out / "policy.json"),
                       "--out", str(out / "infer.json"),
                       "--per-instance", str(out / "per_instance.csv")]),
            ("oracle", ["oracle", "--data", data_dir, "--budget", repr(CLI_BUDGET),
                        "--mode", "at-most", "--out", str(out / "oracle.json")]),
            ("sweep", ["sweep", "--data", data_dir, "--budgets", f"linspace:{lo:g}:{hi:g}:{n}",
                       "--seed", seed, "--out", str(out / "sweep.csv")]),
        ]

    def _run(self, argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return eero.cli.main(argv)

    def measure(self, state, seconds, tracer):
        work = state["work"]
        sessions = []
        start = time.perf_counter()
        while True:
            k = len(sessions)
            out = work / f"session{k}"
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            times, rcs = {}, {}
            for cmd, argv in self.commands(state, out):
                _set_op(tracer, f"session{k}.{cmd}")
                t0 = time.perf_counter()
                rcs[cmd] = self._run(argv)
                times[cmd] = time.perf_counter() - t0
            sessions.append((out, times, rcs))
            if time.perf_counter() - start + sum(times.values()) > seconds:
                break

        with untraced(tracer):
            return self._outcome(state, sessions)

    def _outcome(self, state, sessions):
        data = state["data"]
        sweep_budgets = np.linspace(*CLI_SWEEP)
        problems, failed = [], 0
        first = sessions[0][0]
        repeat = state["work"] / "repeat"
        shutil.rmtree(repeat, ignore_errors=True)
        repeat.mkdir(parents=True)
        # a repeated op must write byte-identical files
        for cmd, argv in self.commands(state, repeat)[:2]:
            self._run(argv)
        for k, (out, times, rcs) in enumerate(sessions):
            bad = checks.check_cli_session(out, rcs, CLI_FILES, data, CLI_BUDGET, sweep_budgets)
            for cmd, names in CLI_FILES.items():
                others = [repeat] if k == 0 and cmd in ("calibrate", "infer") else []
                others += [out] if k > 0 else []
                for other in others:
                    for name in names:
                        a, b = first / name, other / name
                        if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
                            bad[cmd].append(f"repeated {cmd} wrote a different {name}")
            for cmd, msgs in bad.items():
                if msgs:
                    failed += 1
                    problems += [f"session {k} {cmd}: {m}" for m in msgs]

        infer = checks.load_json(first / "infer.json") if (first / "infer.json").is_file() else {}
        report = infer.get("budget_report", {})
        t = data.test_bank.num_instances
        session_s = [sum(times.values()) for _, times, _ in sessions]

        def med(cmd):
            return statistics.median(times[cmd] for _, times, _ in sessions)

        n = len(sessions)
        note = f"slowest of {n} session(s): fewer than 20, so no percentile has ten beyond it"
        named = {
            "calibrate_s": (med("calibrate"), "s", f"median over {n} session(s)"),
            "infer_s": (med("infer"), "s", f"median over {n} session(s)"),
            "oracle_s": (med("oracle"), "s", f"median over {n} session(s)"),
            "sweep_s": (med("sweep"), "s", f"median over {n} session(s)"),
            "accuracy": (infer.get("accuracy", 0.0), "share", "infer result"),
            "utilization": (report.get("utilization", 0.0), "share", "infer result"),
        }
        return Outcome(
            attempted=n * len(CLI_FILES),
            failed=failed,
            units=n,
            problems=problems,
            accuracy=float(infer.get("accuracy", 0.0)),
            utilization=float(report.get("utilization", 0.0)),
            instances_per_s=t * n / sum(session_s),
            op_ms_tail=1e3 * max(session_s),
            tail_note=note,
            named=named,
        )


# ---------------------------------------------------------------------------


class Route200k:
    """Closed-loop batch routing of unseen 200k-instance batches."""

    name = "route_200k"

    def setup(self, seed, work: Path):
        spec = eero.default_spec(seed)
        data = eero.generate(spec)
        policies = {b: _policy(data, seed, b) for b in ROUTE_BUDGETS}
        m, k = spec.num_heads, spec.num_classes
        n = ROUTE_CHUNK * ROUTE_CHUNKS
        pool = np.empty((m, n, k), dtype=np.float64)
        labels = np.empty(n, dtype=np.int64)
        for c in range(ROUTE_CHUNKS):
            # the default head law, one independent seed per chunk
            chunk_spec = dataclasses.replace(spec, seed=(1 << 20) + seed * ROUTE_CHUNKS + c,
                                             sizes=(1, 1, ROUTE_CHUNK))
            chunk = eero.generate(chunk_spec)
            rows = slice(c * ROUTE_CHUNK, (c + 1) * ROUTE_CHUNK)
            for h in range(m):
                pool[h, rows] = chunk.test_bank.heads[h].probs
            labels[rows] = chunk.test_labels
        return {"seed": seed, "data": data, "policies": policies, "pool": pool,
                "labels": labels, "budgets": data.test_bank.budgets}

    def arrays(self, state):
        yield from _data_arrays(state["data"])
        yield state["pool"]
        yield state["labels"]

    def batch(self, state, k):
        """The k-th unseen batch: a fresh row permutation of the pool."""
        perm = np.random.default_rng([state["seed"], k]).permutation(state["labels"].size)
        heads = tuple(eero.HeadSlice(probs=state["pool"][h][perm], budget_gflops=float(b))
                      for h, b in enumerate(state["budgets"]))
        return eero.HeadBank(heads=heads), state["labels"][perm]

    def measure(self, state, seconds, tracer):
        ops = []  # (budget, seconds, accuracy, utilization)
        ref_secs = []  # seconds at the reference speed
        problems, failed = [], 0
        probe = Probe("bulk")
        start = time.perf_counter()
        k = 0
        while k < ROUTE_MIN_OPS or time.perf_counter() - start < seconds:
            mean_budget = ROUTE_BUDGETS[k % len(ROUTE_BUDGETS)]
            policy = state["policies"][mean_budget]
            bank, labels = self.batch(state, k)
            n = labels.size
            _set_op(tracer, f"batch{k}")
            t0 = time.perf_counter()
            result = eero.classify_batch(bank, policy, labels=labels)
            report = eero.measure_budget(result, eero.BudgetSpec(total_budget=mean_budget * n, batch_size=n))
            dt = time.perf_counter() - t0
            with untraced(tracer):
                bad = self._check(state, k, bank, labels, policy, mean_budget, result, report)
                if k == 0:
                    again = eero.classify_batch(bank, policy, labels=labels)
                    if not all(np.asarray(getattr(again, f)).tobytes() == np.asarray(getattr(result, f)).tobytes()
                               for f in ("exits", "predictions", "per_instance_cost",
                                         "exit_proportions", "consumed_budget", "accuracy")):
                        bad.append("repeated classify_batch gave different output")
            if bad:
                failed += 1
                problems += [f"batch {k}: {m}" for m in bad]
            ops.append((mean_budget, dt, result.accuracy, report.utilization))
            del bank, labels, result
            ref_secs.append(probe.at_ref(dt))
            k += 1

        secs = [op[1] for op in ops]
        n = state["labels"].size

        def per_budget_mean(i):
            return float(np.mean([statistics.median(op[i] for op in ops if op[0] == b)
                                  for b in ROUTE_BUDGETS]))

        note = f"p{ROUTE_TAIL_PCT:g} of {len(secs)} batches ({beyond(len(secs), ROUTE_TAIL_PCT)} beyond)"
        ref_note = probe.note()
        at_ref = n * len(ref_secs) / sum(ref_secs)
        tail_at_ref = percentile(ref_secs, ROUTE_TAIL_PCT)
        named = {
            "route_instances_per_s": (n * len(secs) / sum(secs), "1/s", f"{len(secs)} batches of {n}"),
            "route_instances_per_s_at_ref": (at_ref, "1/s", f"{len(secs)} batches of {n}, {ref_note}"),
            "route_s_p50": (statistics.median(secs), "s", f"median of {len(secs)} batches"),
            "route_s_tail": (percentile(secs, ROUTE_TAIL_PCT), "s", note),
            "route_s_tail_at_ref": (tail_at_ref, "s", f"{note}, {ref_note}"),
        }
        return Outcome(
            attempted=len(ops), failed=failed, units=len(ops), problems=problems,
            accuracy=per_budget_mean(2), utilization=per_budget_mean(3),
            instances_per_s=at_ref, op_ms_tail=1e3 * tail_at_ref, tail_note=f"{note}, {ref_note}",
            named=named,
        )

    def _check(self, state, k, bank, labels, policy, mean_budget, result, report):
        n = labels.size
        bad = checks.check_batch(result.exits, result.predictions, result.per_instance_cost,
                                 result.consumed_budget, result.exit_proportions, result.accuracy,
                                 state["budgets"], labels)
        allowed = mean_budget * n
        if not checks.close(report.allowed_budget, allowed):
            bad.append(f"allowed budget {report.allowed_budget} != {allowed}")
        if not checks.close(report.consumed_budget, result.consumed_budget):
            bad.append("budget report disagrees with the batch result")
        bad += checks.check_budget(result.consumed_budget, allowed)
        rows = np.random.default_rng([state["seed"], k, 1]).choice(n, ROUTE_SAMPLE_ROWS, replace=False)
        bad += checks.check_routing_sample(eero, bank, policy, result.exits, result.predictions, rows)
        return bad


# ---------------------------------------------------------------------------


class Stream5k:
    """Lazy per-instance routing of the default 5k test split."""

    name = "stream_5k"

    def setup(self, seed, work: Path):
        data = eero.generate(eero.default_spec(seed))
        return {"data": data, "policy": _policy(data, seed, STREAM_BUDGET)}

    def arrays(self, state):
        return _data_arrays(state["data"])

    def measure(self, state, seconds, tracer):
        bank, labels, policy = state["data"].test_bank, state["data"].test_labels, state["policy"]
        t = bank.num_instances
        with untraced(tracer):
            ref = eero.classify_batch(bank, policy)
        ref_out = np.stack([ref.exits, ref.predictions, ref.per_instance_cost])
        problems, failed = [], 0
        lat_all, per_pass, per_pass_ref, rates, first = [], [], [], [], None
        probe = Probe("small")
        start = time.perf_counter()
        p = 0
        while p < STREAM_MIN_PASSES or time.perf_counter() - start < seconds:
            _set_op(tracer, f"pass{p}")
            lat, decisions = [], []
            it = eero.iter_classify(bank, policy)
            while True:
                t0 = time.perf_counter()
                try:
                    decision = next(it)
                except StopIteration:
                    break
                lat.append(time.perf_counter() - t0)
                decisions.append(decision)
            out = np.array(decisions, dtype=np.float64).reshape(-1, 3).T
            with untraced(tracer):
                if len(lat) != t:
                    failed += t
                    problems.append(f"pass {p}: {len(lat)} decisions for {t} instances")
                else:
                    wrong = int(np.sum(np.any(out != ref_out, axis=0)))
                    if first is not None:
                        wrong = max(wrong, int(np.sum(np.any(out != first, axis=0))))
                    over = checks.check_budget(out[2].sum(), STREAM_BUDGET * t)
                    if over:
                        wrong = t
                    if wrong:
                        failed += wrong
                        problems.append(f"pass {p}: {wrong} decisions differ from classify_batch "
                                        f"or pass 0" + (f"; {over[0]}" if over else ""))
                    if first is None:
                        first = out
            lat_all += lat
            scale = probe.at_ref(1.0)  # this pass's factor to the reference speed
            if len(lat) == t:
                per_pass.append(lat)
                per_pass_ref.append(np.asarray(lat) * scale)
            if lat:
                rates.append(len(lat) / (scale * sum(lat)))
            p += 1

        lat = np.asarray(lat_all)
        throughput = lat.size / lat.sum()
        at_ref = statistics.median(rates) if rates else 0.0
        # each instance's median over passes keeps the decisions that are
        # slow every time and drops one-off stalls of the host
        typical = np.median(np.asarray(per_pass), axis=0) if per_pass else np.zeros(1)
        tail = percentile(typical, STREAM_TAIL_PCT)
        typical_ref = np.median(np.asarray(per_pass_ref), axis=0) if per_pass else np.zeros(1)
        tail_ref = percentile(typical_ref, STREAM_TAIL_PCT)
        note = (f"p{STREAM_TAIL_PCT:g} over {typical.size} instances of each one's median "
                f"decision time over {len(per_pass)} passes ({beyond(typical.size, STREAM_TAIL_PCT)} beyond)")
        out = first if first is not None else np.zeros((3, t))
        named = {
            "stream_instances_per_s": (throughput, "1/s", f"{lat.size} decisions"),
            "stream_instances_per_s_at_ref": (
                at_ref, "1/s", f"median over {p} passes, {probe.note()}"),
            "stream_us_p50": (1e6 * float(np.median(lat)), "us", f"median of {lat.size} decisions"),
            "stream_us_tail": (1e6 * tail, "us", note),
            "stream_us_tail_at_ref": (1e6 * tail_ref, "us", f"{note}, {probe.note()}"),
        }
        return Outcome(
            attempted=p * t, failed=failed, units=p, problems=problems,
            accuracy=float(np.mean(out[1] - 1 == labels)),
            utilization=float(out[2].sum() / (STREAM_BUDGET * t)),
            instances_per_s=at_ref, op_ms_tail=1e3 * tail_ref, tail_note=f"{note}, {probe.note()}",
            named=named,
        )


WORKLOADS = {w.name: w for w in (CliDefault(), Route200k(), Stream5k())}
