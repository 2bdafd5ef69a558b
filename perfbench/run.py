"""eero benchmark: one workload per run, or all of them.

    python3 perfbench/run.py --workload cli_default --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout: the program is imported from ./src,
never from an installed copy, and every file the run writes goes under
./.perfbench_out.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  See README.md in
this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
NAMES = ("cli_default", "route_200k", "stream_5k")
SETUP_REPS = 5
OUT_DIR = ".perfbench_out"

# name -> (unit, what it is); the order is the order printed
END_TO_END = {
    "setup_s": ("s", "import, input generation, dataset write and policy build; median of set-ups"),
    "peak_rss_mb": ("MB", "peak resident set size of the run"),
    "accuracy": ("share", "accuracy of the routed test decisions"),
    "utilization": ("share", "consumed over allowed budget"),
    "instances_per_s": ("1/s", "test instances per second of timed work; route_200k, stream_5k: at the reference speed"),
    "op_ms_tail": ("ms", "tail time of one op"),
}
OVERHEAD = ("setup_s", "op_ms_tail")


def import_program(root: Path) -> float:
    """Import eero from the checkout's src/; returns the seconds it took."""
    src = root / "src"
    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import eero
    import eero.cli  # noqa: F401

    took = time.perf_counter() - t0
    if Path(eero.__file__).resolve().parent != (src / "eero").resolve():
        raise ImportError(f"eero was imported from {eero.__file__}, not from {src}")
    return took


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes(order="C"))
    return h.hexdigest()


def context(root: Path, args) -> dict:
    import numpy
    import scipy

    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": _commit(root),
        "src_sha256": src.hexdigest(),
    }


def _commit(root: Path):
    """HEAD of the checkout's git metadata, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def set_up(wl, seed, work, import_s, reps):
    """Set the workload up `reps` times; returns (state, seconds per set-up, digests)."""
    times, digests, state = [], [], None
    for _ in range(reps):
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = wl.setup(seed, work)
        times.append(import_s + time.perf_counter() - t0)
        digests.append(digest(wl.arrays(state)))
    return state, times, digests


def run_one(args, root: Path) -> int:
    import_s = import_program(root)
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    work = root / OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    state, setup_times, digests = set_up(wl, args.seed, work, import_s, SETUP_REPS)
    outcome = wl.measure(state, args.seconds, None)
    e2e = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy": outcome.accuracy,
        "utilization": outcome.utilization,
        "instances_per_s": outcome.instances_per_s,
        "op_ms_tail": outcome.op_ms_tail,
    }
    problems = list(outcome.problems)
    attempted, failed = outcome.attempted, outcome.failed

    recorded = json.loads((HERE / "digests.json").read_text()).get(args.workload, {}).get(str(args.seed))
    if len(set(digests)) != 1:
        digest_status = "differs between set-ups"
    elif recorded is None:
        digest_status = "unrecorded"
    else:
        digest_status = "match" if recorded == digests[0] else f"differs from the recorded {recorded}"
    if digest_status not in ("match", "unrecorded"):
        problems.append(f"input digest {digest_status}")

    layer, absent, overhead, tracer_info = {}, [], {}, None
    if args.trace:
        state = None
        gc.collect()
        tracer = tracing.Tracer()
        tracer.install([m for n, m in sorted(sys.modules.items()) if n == "eero" or n.startswith("eero.")])
        try:
            tracer.enabled = True
            tracer.phase = "setup"
            t0 = time.perf_counter()
            state = wl.setup(args.seed, work)
            traced_setup_s = import_s + time.perf_counter() - t0
            tracer.phase = "op"
            traced = wl.measure(state, args.seconds, tracer)
        finally:
            tracer.uninstall()
        tracer.write_spans(work / "spans.jsonl")
        layer, absent = tracing.layer_metrics(tracer, traced.units, setups=1)
        overhead = {
            "setup_s": traced_setup_s - e2e["setup_s"],
            "op_ms_tail": traced.op_ms_tail - e2e["op_ms_tail"],
        }
        overhead.update({k: traced.named[k][0] - outcome.named[k][0]
                         for k in outcome.named if outcome.named[k][1] in ("s", "us")})
        for name in OVERHEAD:
            unit = END_TO_END[name][0]
            layer[f"trace_overhead.{name}"] = {"value": overhead[name], "unit": unit}
        attempted += traced.attempted
        failed += traced.failed
        problems += [f"traced: {p}" for p in traced.problems]
        tracer_info = {"absent_functions": tracer.absent, "spans_kept": len(tracer.records),
                       "spans_dropped": tracer.dropped}

    if digest_status not in ("match", "unrecorded"):
        failed = attempted  # the run did not measure the recorded workload
    correct = failed == 0 and not problems
    named = {k: {"value": v, "unit": u, "note": note} for k, (v, u, note) in outcome.named.items()}
    named["setup_s"] = {"value": e2e["setup_s"], "unit": "s", "note": f"median of {SETUP_REPS} set-ups"}
    named["peak_rss_mb"] = {"value": e2e["peak_rss_mb"], "unit": "MB", "note": "ru_maxrss"}
    named["failed_share"] = {"value": failed / attempted, "unit": "share",
                             "note": f"{failed} of {attempted} ops failed"}
    record = {
        "context": context(root, args),
        "input_digest": {"sha256": digests[0], "recorded": recorded, "status": digest_status},
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:50],
        "end_to_end": {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in e2e.items()},
        "tail": outcome.tail_note,
        "workload_metrics": named,
        "setup_s_each": setup_times,
        "per_layer": layer,
        "absent_metrics": absent,
        "tracing_overhead": overhead,
        "tracer": tracer_info,
    }
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("context " + json.dumps(record["context"]))
    print(f"input digest {digests[0][:16]}... ({digest_status})")
    print(f"{'metric':34s} {'value':>14s}  unit   note")
    for k, v in e2e.items():
        note = outcome.tail_note if k == "op_ms_tail" else END_TO_END[k][1]
        print(f"{k:34s} {v:14.6g}  {END_TO_END[k][0]:6s} {note}")
    print(f"-- {args.workload} metrics")
    for k, v in named.items():
        print(f"{k:34s} {v['value']:14.6g}  {v['unit']:6s} {v['note']}")
    if args.trace:
        print("-- per-layer (traced run; values per unit of work, see README)")
        for k, v in layer.items():
            mark = "absent" if k in absent else ""
            print(f"{k:34s} {v['value']:14.6g}  {v['unit']:6s} {mark}")
        print("tracing overhead (traced minus untraced): "
              + ", ".join(f"{k} {v:+.4g}" for k, v in overhead.items()))
    for p in problems[:20]:
        print("problem: " + p)
    print(f"result record {work / 'result.json'}")

    metrics = layer if args.trace else record["end_to_end"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
        print()
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "eero" / "__init__.py").is_file():
        print(f"perfbench: no eero source tree under {root / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args, root)


if __name__ == "__main__":
    sys.exit(main())
