"""Span tracing of eero's public functions, from outside the package.

`Tracer.install` replaces each traced function with a wrapper in every
`eero` module namespace that binds it, because `eero.cli` and the
package `__init__` bind names at import time and look them up there.
A wrapper records one span per call: name, start, end, parent span and
the benchmark's op id, plus a count taken at the same boundary (rows
parsed, elements hashed, rows scored, instances routed).  The current
span travels in a context variable; thread pools inside `eero` are
swapped for one that runs each task in a copy of the submitting
context, so reader-thread spans attach to the `load_manifest` span
that started them.

A function that no longer exists is recorded as absent and every
metric derived from it is reported as absent; it never fails a run.
Spans stay in memory (up to `SPAN_CAP` raw records, all of them
aggregated) and are written out when the run ends.
"""

from __future__ import annotations

import concurrent.futures
import contextvars
import functools
import json
import threading
import time
import tracemalloc
from collections import defaultdict

import numpy as np

SPAN_CAP = 100_000

_current = contextvars.ContextVar("perfbench_span", default=None)


def _len_first(args, kwargs, out):
    return len(out[0])


def _len(args, kwargs, out):
    return len(out)


def _size(args, kwargs, out):
    return int(np.size(out))


# (module, function, options); `marker` tags the span's descendants so
# work can be attributed to the layer that asked for it.
TARGETS = (
    ("io", "load_manifest", {}),
    ("io", "read_probs_csv", {"count": _len_first}),
    ("io", "read_labels_csv", {"count": _len_first}),
    ("io", "write_dataset", {}),
    ("io", "save_policy", {}),
    ("io", "write_json_result", {}),
    ("io", "write_per_instance_csv", {}),
    ("io", "write_sweep_csv", {}),
    ("io", "load_policy", {"always": "loaded_policy"}),
    ("synth", "generate", {}),
    ("rng", "uniform", {"count": _size}),
    # a head evaluation of a row starts with its jitter, so rows count there
    ("scoring", "jitter_matrix", {"count": _len}),
    ("scoring", "score_matrix", {}),
    ("scoring", "predict_matrix", {}),
    # the lazy path predicts without predict_matrix
    ("scoring", "head_predict", {}),
    ("calibration", "build_policy", {"marker": "calibration", "always": "built_policy"}),
    ("allocation", "solve_allocation", {}),
    ("allocation", "gibbs_epsilons", {}),
    ("inference", "classify_batch", {"marker": "inference", "mem": True, "result": "batch"}),
    ("inference", "iter_classify", {"marker": "inference", "generator": True}),
    ("inference", "measure_budget", {}),
    ("oracle", "oracle_exact", {"mem": True}),
    ("oracle", "oracle_curve", {"mem": True}),
    ("oracle", "build_correctness", {}),
    ("cli", "cmd_calibrate", {}),
    ("cli", "cmd_infer", {}),
    ("cli", "cmd_oracle", {}),
    ("cli", "cmd_sweep", {}),
)


class _ContextPool(concurrent.futures.ThreadPoolExecutor):
    """Thread pool that runs each task in a copy of the caller's context."""

    def submit(self, fn, /, *args, **kwargs):
        ctx = contextvars.copy_context()
        return super().submit(ctx.run, fn, *args, **kwargs)


class Span:
    __slots__ = ("id", "parent", "op", "phase", "name", "marks", "thread",
                 "start", "count", "children", "policy", "exits")

    def __init__(self, sid, parent, op, phase, name, marks):
        self.id = sid
        self.parent = parent
        self.op = op
        self.phase = phase
        self.name = name
        self.marks = marks
        self.thread = threading.get_ident()
        self.count = 0
        self.children = []
        self.policy = None
        self.exits = None
        self.start = time.perf_counter()


def _covered(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """Owns the wrappers, the open-span bookkeeping and the aggregates."""

    def __init__(self):
        self.enabled = False
        self.phase = "setup"
        self.op = None
        self.absent = []
        self.records = []
        self.dropped = 0
        # (phase, name) -> [calls, seconds, self seconds, count]
        self.agg = defaultdict(lambda: [0, 0.0, 0.0, 0])
        # (phase, key) -> running sums for derived per-layer metrics
        self.sums = defaultdict(float)
        self.peak_alloc = {}
        self.planned = {}  # id(policy) -> (policy, planned epsilons)
        self._ids = 0
        self._lock = threading.Lock()
        self._patched = []  # (module, attribute, original)

    # -- installation -------------------------------------------------

    def install(self, package_modules):
        """Wrap every target in every module of `package_modules`."""
        by_name = {m.__name__: m for m in package_modules}
        for mod_short, fn_name, opts in TARGETS:
            home = by_name.get(f"eero.{mod_short}")
            orig = getattr(home, fn_name, None) if home is not None else None
            if orig is None or not callable(orig):
                self.absent.append(f"{mod_short}.{fn_name}")
                continue
            wrapper = self._wrap(f"{mod_short}.{fn_name}", orig, opts)
            for mod in package_modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        for mod in package_modules:
            if getattr(mod, "ThreadPoolExecutor", None) is concurrent.futures.ThreadPoolExecutor:
                self._patched.append((mod, "ThreadPoolExecutor", concurrent.futures.ThreadPoolExecutor))
                mod.ThreadPoolExecutor = _ContextPool

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()
        self.enabled = False

    # -- spans --------------------------------------------------------

    def _open(self, name, marker):
        parent = _current.get()
        marks = parent.marks if parent is not None else frozenset()
        if marker:
            marks = marks | {marker}
        with self._lock:
            self._ids += 1
            sid = self._ids
        return Span(sid, parent, self.op, self.phase, name, marks)

    def _close(self, span, seconds=None):
        end = time.perf_counter()
        if span.parent is not None:
            span.parent.children.append((span.start, end))
        dur = end - span.start if seconds is None else seconds
        own = dur - _covered(span.children, span.start, end) if span.children else dur
        phase = span.phase
        with self._lock:
            a = self.agg[(phase, span.name)]
            a[0] += 1
            a[1] += dur
            a[2] += own
            a[3] += span.count
            s = self.sums
            if span.name == "scoring.jitter_matrix":
                for mark in span.marks:
                    s[(phase, f"rows.{mark}")] += span.count
            if span.exits is not None:
                self._route_sums(phase, span)
            if len(self.records) < SPAN_CAP:
                self.records.append((
                    span.id, span.parent.id if span.parent else None, span.op,
                    phase, span.name, span.thread, span.start, span.start + dur, span.count,
                ))
            else:
                self.dropped += 1

    def _route_sums(self, phase, span):
        exits = np.asarray(span.exits, dtype=np.int64)  # 1-based exit heads
        n = exits.size
        if n == 0:
            return
        s = self.sums
        s[(phase, "routed")] += n
        s[(phase, "reached")] += float(exits.sum())
        entry = self.planned.get(id(span.policy))
        if entry is not None:
            eps = np.asarray(entry[1])
            shares = np.bincount(exits - 1, minlength=eps.size) / n
            s[(phase, "gap_sum")] += float(np.abs(shares - eps).sum())
            s[(phase, "gap_n")] += 1

    def _memory(self, name, call):
        """Run `call` under tracemalloc on the first traced call of `name`."""
        if name in self.peak_alloc or tracemalloc.is_tracing():
            return call()
        tracemalloc.start()
        try:
            return call()
        finally:
            self.peak_alloc[name] = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()

    def _remember(self, kind, out, args, kwargs):
        if kind == "built_policy":
            alloc = args[1] if len(args) > 1 else kwargs.get("allocation")
            eps = [float(x) for x in getattr(alloc, "epsilons", [])]
            self.planned[id(out)] = (out, eps)
        elif kind == "loaded_policy":
            policy, doc = out
            eps = (doc.get("allocation") or {}).get("epsilons")
            if eps is not None:
                self.planned[id(policy)] = (policy, [float(x) for x in eps])

    def _wrap(self, name, fn, opts):
        count = opts.get("count")
        marker = opts.get("marker")
        always = opts.get("always")
        result = opts.get("result")
        tracer = self

        if opts.get("generator"):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                if not tracer.enabled:
                    return inner
                policy = args[1] if len(args) > 1 else kwargs.get("policy")
                return tracer._traced_gen(name, marker, inner, policy)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                out = fn(*args, **kwargs)
                if always:
                    tracer._remember(always, out, args, kwargs)
                return out
            span = tracer._open(name, marker)
            token = _current.set(span)
            try:
                if opts.get("mem"):
                    out = tracer._memory(name, lambda: fn(*args, **kwargs))
                else:
                    out = fn(*args, **kwargs)
                if count is not None:
                    span.count = count(args, kwargs, out)
                if result == "batch":
                    span.policy = args[1] if len(args) > 1 else kwargs.get("policy")
                    span.exits = out.exits
                    span.count = len(out.exits)
                if always:
                    tracer._remember(always, out, args, kwargs)
                return out
            finally:
                _current.reset(token)
                tracer._close(span)

        return wrapper

    def _traced_gen(self, name, marker, inner, policy):
        span = self._open(name, marker)
        span.policy = policy
        span.exits = []
        busy = 0.0
        try:
            while True:
                token = _current.set(span)
                t0 = time.perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    busy += time.perf_counter() - t0
                    _current.reset(token)
                span.exits.append(int(item[0]))
                yield item
        finally:
            span.count = len(span.exits)
            self._close(span, seconds=busy)

    # -- output -------------------------------------------------------

    def write_spans(self, path):
        keys = ("id", "parent", "op", "phase", "name", "thread", "start", "end", "count")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")

    def total(self, phase, name, field=1):
        return self.agg[(phase, name)][field] if (phase, name) in self.agg else 0


# per-layer metric -> (unit, function groups it is measured at); the
# metric is absent when every function of some group is gone
_ROUTE = ("inference.classify_batch", "inference.iter_classify")
LAYER_METRICS = {
    "io.load_manifest_s": ("s", [("io.load_manifest",)]),
    "io.parse_rows_per_s": ("1/s", [("io.read_probs_csv",), ("io.read_labels_csv",)]),
    "io.write_s": ("s", [("io.save_policy", "io.write_json_result",
                          "io.write_per_instance_csv", "io.write_sweep_csv")]),
    "io.write_dataset_s": ("s", [("io.write_dataset",)]),
    "synth.generate_s": ("s", [("synth.generate",)]),
    "rng.draws": ("count", [("rng.uniform",)]),
    "rng.s": ("s", [("rng.uniform",)]),
    "scoring.jitter_s": ("s", [("scoring.jitter_matrix",)]),
    "scoring.score_s": ("s", [("scoring.score_matrix",)]),
    "scoring.predict_s": ("s", [("scoring.predict_matrix", "scoring.head_predict")]),
    "scoring.rows": ("count", [("scoring.jitter_matrix",)]),
    "calibration.build_policy_s": ("s", [("calibration.build_policy",)]),
    "calibration.build_policy_calls": ("count", [("calibration.build_policy",)]),
    "calibration.rows_scored": ("count", [("calibration.build_policy",), ("scoring.jitter_matrix",)]),
    "allocation.solve_s": ("s", [("allocation.solve_allocation",)]),
    "allocation.gibbs_evals": ("count", [("allocation.gibbs_epsilons",)]),
    "inference.classify_batch_s": ("s", [("inference.classify_batch",)]),
    "inference.iter_classify_s": ("s", [("inference.iter_classify",)]),
    "inference.heads_reached_per_instance": ("heads", [_ROUTE]),
    "inference.heads_scored_per_instance": ("heads", [_ROUTE, ("scoring.jitter_matrix",)]),
    "inference.useful_eval_ratio": ("ratio", [_ROUTE, ("scoring.jitter_matrix",)]),
    "inference.exit_gap_l1": ("share", [_ROUTE, ("calibration.build_policy", "io.load_policy")]),
    "inference.peak_alloc_mb": ("MB", [("inference.classify_batch",)]),
    "oracle.exact_s": ("s", [("oracle.oracle_exact",)]),
    "oracle.curve_s": ("s", [("oracle.oracle_curve",)]),
    "oracle.build_correctness_s": ("s", [("oracle.build_correctness",)]),
    "oracle.peak_alloc_mb": ("MB", [("oracle.oracle_exact", "oracle.oracle_curve")]),
    "cli.calibrate.self_s": ("s", [("cli.cmd_calibrate",)]),
    "cli.infer.self_s": ("s", [("cli.cmd_infer",)]),
    "cli.oracle.self_s": ("s", [("cli.cmd_oracle",)]),
    "cli.sweep.self_s": ("s", [("cli.cmd_sweep",)]),
}


def layer_metrics(tracer, units, setups):
    """Per-layer values from the aggregates.

    Op-phase values are per unit of work (`units`: sessions, batches or
    passes); `synth.generate_s` and `io.write_dataset_s` are per traced
    set-up.  Returns (metrics, absent names).
    """
    u = max(units, 1)
    t = tracer.total
    s = tracer.sums

    def per_unit(*names, field=1):
        return sum(t("op", n, field) for n in names) / u

    parse_rows = t("op", "io.read_probs_csv", 3) + t("op", "io.read_labels_csv", 3)
    parse_s = t("op", "io.read_probs_csv") + t("op", "io.read_labels_csv")
    routed = s[("op", "routed")]
    reached = s[("op", "reached")]
    scored = s[("op", "rows.inference")]
    values = {
        "io.load_manifest_s": per_unit("io.load_manifest"),
        "io.parse_rows_per_s": parse_rows / parse_s if parse_s else 0.0,
        "io.write_s": per_unit("io.save_policy", "io.write_json_result",
                               "io.write_per_instance_csv", "io.write_sweep_csv"),
        "io.write_dataset_s": t("setup", "io.write_dataset") / max(setups, 1),
        "synth.generate_s": t("setup", "synth.generate") / max(setups, 1),
        "rng.draws": per_unit("rng.uniform", field=3),
        "rng.s": per_unit("rng.uniform"),
        "scoring.jitter_s": per_unit("scoring.jitter_matrix"),
        "scoring.score_s": per_unit("scoring.score_matrix"),
        "scoring.predict_s": per_unit("scoring.predict_matrix", "scoring.head_predict"),
        "scoring.rows": per_unit("scoring.jitter_matrix", field=3),
        "calibration.build_policy_s": per_unit("calibration.build_policy"),
        "calibration.build_policy_calls": per_unit("calibration.build_policy", field=0),
        "calibration.rows_scored": s[("op", "rows.calibration")] / u,
        "allocation.solve_s": per_unit("allocation.solve_allocation"),
        "allocation.gibbs_evals": per_unit("allocation.gibbs_epsilons", field=0),
        "inference.classify_batch_s": per_unit("inference.classify_batch"),
        "inference.iter_classify_s": per_unit("inference.iter_classify"),
        "inference.heads_reached_per_instance": reached / routed if routed else 0.0,
        "inference.heads_scored_per_instance": scored / routed if routed else 0.0,
        "inference.useful_eval_ratio": reached / scored if scored else 0.0,
        "inference.exit_gap_l1": (s[("op", "gap_sum")] / s[("op", "gap_n")]
                                  if s[("op", "gap_n")] else 0.0),
        "inference.peak_alloc_mb": tracer.peak_alloc.get("inference.classify_batch", 0.0),
        "oracle.exact_s": per_unit("oracle.oracle_exact"),
        "oracle.curve_s": per_unit("oracle.oracle_curve"),
        "oracle.build_correctness_s": per_unit("oracle.build_correctness"),
        "oracle.peak_alloc_mb": max(tracer.peak_alloc.get("oracle.oracle_exact", 0.0),
                                    tracer.peak_alloc.get("oracle.oracle_curve", 0.0)),
        "cli.calibrate.self_s": per_unit("cli.cmd_calibrate", field=2),
        "cli.infer.self_s": per_unit("cli.cmd_infer", field=2),
        "cli.oracle.self_s": per_unit("cli.cmd_oracle", field=2),
        "cli.sweep.self_s": per_unit("cli.cmd_sweep", field=2),
    }
    missing = set(tracer.absent)
    absent = sorted(m for m, (_, groups) in LAYER_METRICS.items()
                    if any(missing.issuperset(g) for g in groups))
    metrics = {m: {"value": (0.0 if m in absent else float(values[m])), "unit": unit}
               for m, (unit, _) in LAYER_METRICS.items()}
    return metrics, absent
