"""In-memory spans and counters around the eyehead layer functions.

The package is traced from outside: `install` replaces each layer function
with a wrapper in every `eyehead` module namespace that binds it (`cli`,
`events`, `stats` and `fitting` import layer functions by name, so patching
only the defining module would miss their calls). Nothing under `src/`
changes.

A span is `[name, start, end, parent]`, where parent is the index of the
enclosing span or -1. Per-evaluation hooks (the solver's residual and
Jacobian calls, tens of thousands per run) are plain counters, never spans.
`summarize` turns spans and counters into the per-layer metrics, named
`<module>.<function>.<stat>`.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Stages the CLI runs, in pipeline order; the worker opens a `cli.<stage>`
# span around each.
STAGES = ("preprocess", "fit", "fpca", "project", "report", "sensitivity")

# Functions called once per trial or per participant: these also get a
# per-call median and tail.
PER_CALL = (
    "ingest.load_trace_csv",
    "ingest.one_euro",
    "ingest.align_head_to_gaze",
    "ingest.ShiftSet.for_participant",
    "events.preprocess_trial",
    "fitting.fit_participant",
    "stats.threshold_sensitivity",
)

# Functions timed with a span, as (module, attribute path).
TIMED = (
    ("ingest", "load_trace_csv"),
    ("ingest", "one_euro"),
    ("ingest", "align_head_to_gaze"),
    ("ingest", "write_trace_csv"),
    ("ingest", "read_shifts_csv"),
    ("ingest", "write_shifts_csv"),
    ("ingest", "ShiftSet.for_participant"),
    ("events", "preprocess_trial"),
    ("events", "angular_velocity"),
    ("events", "detect_fixations"),
    ("events", "extract_shifts"),
    ("fitting", "fit_participant"),
    ("fitting", "fit_soft_hinge"),
    ("fitting", "fit_hinge"),
    ("fitting", "fit_linear"),
    ("stats", "threshold_sensitivity"),
    ("stats", "symmetry_check"),
    ("fpca", "sample_curves"),
    ("fpca", "fit_fpca"),
    ("fpca", "score_table"),
    ("report", "make_provenance"),
    ("report", "emit_report"),
    ("synth", "synth_trace"),
)

SANITY_REASONS = ("missing_stream", "short_overlap", "discontinuity")

# Functions only counted, as (module, attribute, counter). The solver hooks
# are counted as seen from eyehead.fitting only: eval_model is also used by
# fpca and stats for grid evaluation, which is not solver work.
COUNTED = (
    ("ingest", "sanity_check", None),
    ("ingest", "missing_stream_report", None),
    ("fitting", "eval_model", "fitting.residual_evals"),
    ("fitting", "model_gradient", "fitting.jacobian_evals"),
    ("fitting", "hinge_gradient", "fitting.jacobian_evals"),
)


class Tracer:
    """Spans and counters of one process, kept in memory until written out."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = self.clock()

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n


# ---------------------------------------------------------------------------
# result hooks: counts read off a call's arguments or return value
# ---------------------------------------------------------------------------

def _on_load(tracer, args, kwargs, result):
    tracer.count("ingest.load_trace_csv.rows", int(result.t.size))


def _on_one_euro(tracer, args, kwargs, result):
    tracer.count("ingest.one_euro.samples", int(result.size))


def _on_fixations(tracer, args, kwargs, result):
    tracer.count("events.fixations", len(result))


def _on_shifts(tracer, args, kwargs, result):
    tracer.count("events.shifts", len(result))


def _on_multistart(tracer, args, kwargs, result):
    tracer.count("fitting.starts", len(result.start_sses))
    tracer.count("fitting.starts_converged", int(result.n_converged))


def _on_provenance(tracer, args, kwargs, result):
    inputs = args[2] if len(args) > 2 else kwargs["inputs"]
    tracer.count("report.make_provenance.bytes_hashed",
                 sum(os.path.getsize(p) for p in inputs.values()))


def _on_sanity(tracer, args, kwargs, result):
    if result.verdict == "fail":
        tracer.count(f"ingest.sanity_check.failed.{result.reason}")


HOOKS = {
    "ingest.load_trace_csv": _on_load,
    "ingest.one_euro": _on_one_euro,
    "events.detect_fixations": _on_fixations,
    "events.extract_shifts": _on_shifts,
    "fitting.fit_soft_hinge": _on_multistart,
    "fitting.fit_hinge": _on_multistart,
    "report.make_provenance": _on_provenance,
    "ingest.sanity_check": _on_sanity,
    "ingest.missing_stream_report": _on_sanity,
}


def _timed(tracer: Tracer, name: str, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result
    return wrapper


def _counted(tracer: Tracer, counter: str | None, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        if counter is not None:
            tracer.count(counter)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result
    return wrapper


def _eyehead_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "eyehead" or k.startswith("eyehead."))]


def install(tracer: Tracer):
    """Wrap every traced function wherever eyehead binds it; return an undo."""
    for module in ("ingest", "events", "fitting", "stats", "fpca", "report", "synth", "cli"):
        importlib.import_module(f"eyehead.{module}")
    undo = []

    def rebind_everywhere(orig, wrapper):
        for module in _eyehead_modules():
            for key, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, key, wrapper)
                    undo.append((module, key, orig))

    for module, attr in TIMED:
        name = f"{module}.{attr}"
        owner = importlib.import_module(f"eyehead.{module}")
        if "." in attr:  # a method: patch the class attribute
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            orig = vars(cls)[meth]
            setattr(cls, meth, _timed(tracer, name, orig, HOOKS.get(name)))
            undo.append((cls, meth, orig))
            continue
        orig = getattr(owner, attr)
        rebind_everywhere(orig, _timed(tracer, name, orig, HOOKS.get(name)))

    for module, attr, counter in COUNTED:
        owner = importlib.import_module(f"eyehead.{module}")
        orig = getattr(owner, attr)
        wrapper = _counted(tracer, counter, orig, HOOKS.get(f"{module}.{attr}"))
        if counter is None:
            rebind_everywhere(orig, wrapper)
        else:  # only the binding the solver uses
            setattr(owner, attr, wrapper)
            undo.append((owner, attr, orig))

    def uninstall() -> None:
        for target, key, orig in reversed(undo):
            setattr(target, key, orig)
    return uninstall


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of [start, end] intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - covered(children.get(i, []))
        for i, (name, start, end, parent) in enumerate(spans)
    ]


def tail_percentile(n: int, beyond: int = 10) -> int | None:
    """Highest whole percentile with at least `beyond` of n calls above it."""
    if n <= beyond:
        return None
    return math.floor(100.0 * (n - beyond) / n)


def per_layer_names() -> list[str]:
    """Every per-layer metric `summarize` reports, in a stable order."""
    names = []
    for module, attr in TIMED:
        name = f"{module}.{attr}"
        names.append(f"{name}.busy_s")
        if name in PER_CALL:
            names += [f"{name}.calls", f"{name}.call_p50_s", f"{name}.call_tail_s"]
    names += [
        "ingest.load_trace_csv.rows",
        "ingest.one_euro.samples",
        *(f"ingest.sanity_check.failed.{r}" for r in SANITY_REASONS),
        "events.fixations",
        "events.shifts",
        "fitting.starts",
        "fitting.starts_converged",
        "fitting.converged_ratio",
        "fitting.residual_evals",
        "fitting.jacobian_evals",
        "report.make_provenance.bytes_hashed",
    ]
    for stage in STAGES:
        names += [f"cli.{stage}.busy_s", f"cli.{stage}.self_s"]
    names += ["fitting.curve_rmse_deg", "trace.overhead_s"]
    return names


def summarize(spans: list[list], counters: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics from spans and counters (all but trace.overhead_s).

    Beside the metrics, `<function>.call_tail_pct` records which percentile
    each `call_tail_s` is.

    For a per-call function with too few calls to leave ten above the
    median, the tail is the median and its percentile is recorded as 50.
    """
    durations: dict[str, list[float]] = defaultdict(list)
    selfs: dict[str, float] = defaultdict(float)
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        durations[name].append(end - start)
        selfs[name] += own
    out: dict[str, float] = {}
    for module, attr in TIMED:
        name = f"{module}.{attr}"
        durs = durations.get(name, [])
        out[f"{name}.busy_s"] = sum(durs)
        if name in PER_CALL:
            q = max(tail_percentile(len(durs)) or 50, 50)
            out[f"{name}.calls"] = len(durs)
            out[f"{name}.call_p50_s"] = float(np.percentile(durs, 50)) if durs else 0.0
            out[f"{name}.call_tail_s"] = float(np.percentile(durs, q)) if durs else 0.0
            out[f"{name}.call_tail_pct"] = q
    for key in per_layer_names():
        if key not in out and not key.startswith(("cli.", "trace.", "fitting.curve")):
            out[key] = counters.get(key, 0)
    starts = counters.get("fitting.starts", 0)
    out["fitting.converged_ratio"] = (
        counters.get("fitting.starts_converged", 0) / starts if starts else 0.0
    )
    for stage in STAGES:
        name = f"cli.{stage}"
        out[f"{name}.busy_s"] = sum(durations.get(name, []))
        out[f"{name}.self_s"] = selfs.get(name, 0.0)
    return out
