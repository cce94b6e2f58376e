"""The benchmark tracer (bench/tracing.py) wraps eyehead functions by name.

A rename or removal under src/ that drops one of those names would only
show when `bench/run.py --trace 1` dies; this check makes it fail here.
The tracer's result hooks also read counts off return values, so a layer
that returns another shape would skew its per-layer counts silently; the
second check compares them with counts taken independently.
"""

import importlib
import importlib.util
import pathlib

from eyehead import cli, events, ingest

from .oracles import detect_fixations_loop, read_table_csv

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _tracing()
    names = [(m, a) for m, a in tracing.TIMED] + [(m, a) for m, a, _ in tracing.COUNTED]
    missing = []
    for module, attr in names:
        target = importlib.import_module(f"eyehead.{module}")
        for part in attr.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{module}.{attr}")
    assert not missing, f"names the benchmark tracer wraps are gone: {missing}"


def test_result_hooks_count_what_preprocess_saw(tmp_path):
    raw = tmp_path / "raw"
    assert cli.dispatch(["synth", "--out-dir", str(raw), "--participants", "2",
                         "--trials", "1", "--seed", "3"]) == 0
    traces = raw / "traces"
    rows = samples = fixations = 0
    for gaze_path in sorted(traces.glob("*.gaze.csv")):
        head_path = gaze_path.with_name(gaze_path.name.replace(".gaze.", ".head."))
        for path in (gaze_path, head_path):
            rows += len(read_table_csv(path, ("timestamp_s",))["timestamp_s"])
        trace = ingest.align_head_to_gaze(ingest.load_trace_csv(gaze_path, "gaze"),
                                          ingest.load_trace_csv(head_path, "head"))
        samples += trace.t.size
        fixations += len(detect_fixations_loop(trace.t, events.gaze_velocity(trace)))

    tracing = _tracing()
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        code = cli.dispatch(["preprocess", "--in-dir", str(traces),
                             "--out", str(tmp_path / "shifts.csv")])
    finally:
        uninstall()
    assert code == 0
    counts = tracing.summarize(tracer.spans, tracer.counters)
    assert counts["ingest.load_trace_csv.rows"] == rows
    assert counts["ingest.one_euro.samples"] == samples
    assert counts["events.fixations"] == fixations
