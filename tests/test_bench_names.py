"""The benchmark tracer (bench/tracing.py) wraps eyehead functions by name.

A rename or removal under src/ that drops one of those names would only
show when `bench/run.py --trace 1` dies; this check makes it fail here.
The tracer's result hooks also read counts off return values, so a layer
that returns another shape would skew its per-layer counts silently; the
second check compares them with counts taken independently. The third
checks that the set-up's writer and generator spans count what the cohort
generator wrote, so the per-layer split of `setup_s` stays readable.
"""

import importlib
import json
import importlib.util
import pathlib
import sys

from eyehead import cli, events, ingest

from .oracles import detect_fixations_loop, read_table_csv

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _tracing():
    return _bench_module("tracing")


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
        trace = ingest.align_head_to_gaze(ingest.load_trace_csv(gaze_path),
                                          ingest.load_trace_csv(head_path))
        samples += trace.t.size
        velocity = events.angular_velocity(trace.t, ingest.one_euro(trace.t, trace.gaze_yaw))
        fixations += len(detect_fixations_loop(trace.t, velocity))

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


def test_set_up_spans_count_files_and_trials(tmp_path):
    workloads = _bench_module("workloads")
    # six participants with 1-2 trials each, one of whose files a fault removes
    cohort = workloads.scaled(workloads.COHORTS["uneven-cohort"], 6, 4, 2)
    tracing = _tracing()
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        info = workloads.generate(cohort, 5, str(tmp_path / "traces"))
    finally:
        uninstall()
    spans = [name for name, *_ in tracer.spans]
    files = len(list((tmp_path / "traces").glob("*.csv")))
    assert files == info["sizes"]["csv_files"] == 2 * cohort.trial_pairs - 1
    assert spans.count("ingest.write_trace_csv") == files
    assert spans.count("synth.synth_trace") == cohort.trial_pairs


def test_a_traced_pass_of_every_stage_counts_its_inputs(tmp_path):
    """The benchmark's six stages run traced, as `bench/worker.stage_argv` gives them."""
    raw = tmp_path / "raw"
    assert cli.dispatch(["synth", "--out-dir", str(raw), "--participants", "3",
                         "--trials", "2", "--seed", "3"]) == 0
    traces = raw / "traces"
    (traces / "synth002_t01.head.csv").unlink()  # one missing_stream trial
    out = tmp_path / "out"
    argv = [
        ["preprocess", "--in-dir", traces, "--out", out / "shifts.csv",
         "--symmetry-out", out / "symmetry.json"],
        ["fit", "--in", out / "shifts.csv", "--out", out / "fits.json"],
        ["fpca", "--in", out / "fits.json", "--out", out / "spectrum.json"],
        ["project", "--model", out / "spectrum.json", "--in", out / "fits.json",
         "--out", out / "scores.csv"],
        ["report", "--fits", out / "fits.json", "--spectrum", out / "spectrum.json",
         "--scores", out / "scores.csv", "--out-dir", out / "report"],
        ["sensitivity", "--in-dir", traces, "--out", out / "sensitivity.json"],
    ]
    tracing = _tracing()
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        codes = [cli.dispatch([str(a) for a in stage]) for stage in argv]
    finally:
        uninstall()
    assert codes == [0] * len(argv)

    def size(*names):
        return sum((out / name).stat().st_size for name in names)

    trace_bytes = sum(p.stat().st_size for p in traces.glob("*.csv"))
    hashed = (
        2 * trace_bytes  # preprocess and sensitivity
        + size("shifts.csv")  # fit
        + size("fits.json")  # fpca
        + size("spectrum.json", "fits.json")  # project
        + size("fits.json", "spectrum.json", "scores.csv")  # report
    )
    counts = tracing.summarize(tracer.spans, tracer.counters)
    assert counts["report.make_provenance.bytes_hashed"] == hashed
    sanity = [json.loads(line) for line in (out / "sanity.jsonl").read_text().splitlines()[1:]]
    passed = [r for r in sanity if r["verdict"] == "pass"]
    assert len(sanity) == 6 and len(passed) == 5
    assert counts["events.preprocess_trial.calls"] == len(passed)
