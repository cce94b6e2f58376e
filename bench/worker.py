"""One benchmark process: set up a cohort, or measure the pipeline.

    python3 bench/worker.py '<json job>'

`run.py` starts a fresh process for every set-up repetition and one more
for a run's measuring. BLAS/OpenMP threads are pinned to 1 here, before
numpy is first imported. The job names a `mode`:

* `setup`: import eyehead, then generate and write the cohort's trace CSVs;
  the time from before the import to the last write is `setup_s`. numpy is
  imported before the clock starts, since the reference loop needs it.
* `measure`: warm up on a tiny cohort, then run passes. A pass runs the
  given stages in order through `eyehead.cli.dispatch`, each pass in a
  fresh output directory. An untraced run makes passes of the job's
  `stages` and `short_stages` in turn while the next one fits in
  `budget_s`; a traced run makes the passes listed in `plan`.

Every set-up and every stage is timed with `HostSpeed`, so each time comes
with the host's speed while it ran.

Either mode may trace (spans and counters, see tracing.py). The result goes
to the job's `result` path as JSON; spans go beside it.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


# What `reference` takes on a quiet 2-vCPU Intel Xeon KVM guest (Python
# 3.11.7, numpy 2.4.6); while a neighbour keeps the host busy it takes up to
# 1.6 times as long. End-to-end times are scaled to the quiet speed.
REF_NOMINAL_S = 0.0025
# How often the reference loop runs while a stage or set-up is timed.
SAMPLE_PERIOD_S = 0.2


def normalised(wall_s: float, ref_s: float) -> float:
    """A wall time scaled to the host speed at which `reference` takes REF_NOMINAL_S."""
    return wall_s * REF_NOMINAL_S / ref_s


def reference() -> float:
    """Seconds a fixed loop of interpreter work and small numpy calls takes now.

    eyehead's hot paths are of the same kind (per-sample filter loops,
    solver iterations on small arrays), so the loop slows down with them when
    the shared host does. It runs no eyehead code, so a change to the
    program does not move it.
    """
    import numpy as np

    x = np.linspace(0.0, 1.0, 64)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(500):
        acc += float((x * i).sum())
        for j in range(40):
            acc += j * 0.5
    return time.perf_counter() - t0


class HostSpeed:
    """Times a block and the host's speed while it runs.

    The reference loop runs before the block, every SAMPLE_PERIOD_S during it
    (from a SIGALRM handler, between the program's bytecodes) and after it.
    `own_s` is the block's wall time less the time the samples inside it
    took; `ref_s` is the mean of all reference times. The first run, before
    the block, imports numpy, so the handler's `import` is a plain lookup.
    With `sample=False` the loop runs only before and after the block, which
    then runs undisturbed (for traced blocks, whose spans must not hold the
    samples).
    """

    def __init__(self, sample: bool = True) -> None:
        self.sample = sample

    def __enter__(self) -> HostSpeed:
        self.refs = [reference()]
        self.sampled_s = 0.0
        if self.sample:
            self._old = signal.signal(signal.SIGALRM, self._sample)
        self._t0 = time.perf_counter()
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.refs.append(reference())
        self.sampled_s += time.perf_counter() - t0

    def __exit__(self, *exc) -> None:
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.own_s = time.perf_counter() - self._t0 - self.sampled_s
        if self.sample:
            signal.signal(signal.SIGALRM, self._old)
        self.refs.append(reference())
        self.ref_s = statistics.fmean(self.refs)


def stage_argv(traces: str, out: str) -> dict[str, list[str]]:
    """Each stage's arguments: required flags only, built-in defaults."""
    return {
        "preprocess": ["preprocess", "--in-dir", traces, "--out", f"{out}/shifts.csv",
                       "--symmetry-out", f"{out}/symmetry.json"],
        "fit": ["fit", "--in", f"{out}/shifts.csv", "--out", f"{out}/fits.json"],
        "fpca": ["fpca", "--in", f"{out}/fits.json", "--out", f"{out}/spectrum.json"],
        "project": ["project", "--model", f"{out}/spectrum.json", "--in", f"{out}/fits.json",
                    "--out", f"{out}/scores.csv"],
        "report": ["report", "--fits", f"{out}/fits.json", "--spectrum", f"{out}/spectrum.json",
                   "--scores", f"{out}/scores.csv", "--out-dir", f"{out}/report"],
        "sensitivity": ["sensitivity", "--in-dir", traces, "--out", f"{out}/sensitivity.json"],
    }


def _write_spans(job, tracer, result) -> None:
    import tracing

    spans_path = job["result"][: -len(".json")] + ".spans.json"
    with open(spans_path, "w") as fh:
        json.dump({"spans": tracer.spans, "counters": dict(tracer.counters)}, fh)
    result["per_layer"] = tracing.summarize(tracer.spans, tracer.counters)
    result["spans_file"] = spans_path


def _finish(job, result) -> None:
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(job["result"], "w") as fh:
        json.dump(result, fh)


def do_setup(job) -> None:
    import numpy  # noqa: F401  (before the clock: the reference loop needs it)

    tracer = None
    with HostSpeed() as speed:
        import eyehead  # the import is part of set-up time

        if job.get("trace"):
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        import workloads

        info = workloads.generate(workloads.COHORTS[job["workload"]], job["seed"], job["traces"])
    info["setup_s"] = speed.own_s
    info["ref_s"] = speed.ref_s
    info["eyehead_file"] = eyehead.__file__
    if tracer is not None:
        _write_spans(job, tracer, info)
    _finish(job, info)


def run_pass(stages, argv, tracer=None) -> dict:
    """Run the stages in order, timing each; stop at the first non-zero exit.

    Each stage is timed with `HostSpeed`, and `ref_s[stage]` is the host's
    reference time while it ran; traced, the reference loop runs only
    around the stage, outside its span.
    """
    from eyehead.cli import dispatch

    times, refs, codes = {}, {}, {}
    for stage in stages:
        with HostSpeed(sample=tracer is None) as speed:
            if tracer is None:
                code = dispatch(argv[stage])
            else:
                with tracer.span(f"cli.{stage}"):
                    code = dispatch(argv[stage])
        times[stage], refs[stage] = speed.own_s, speed.ref_s
        codes[stage] = code
        if code != 0:
            break
    return {"stages": list(stages), "stage_s": times, "ref_s": refs, "exit_codes": codes}


def next_stages(passes: list[dict], full: list[str], short: list[str], left_s: float):
    """The stages of the next untraced pass, or None when none fits in left_s.

    Full and short passes take turns, starting with a full one; a short pass
    leaves out the last stages (`sensitivity`, the longest), so the other
    stages get more samples. A pass is estimated from the last full pass.
    """
    if not passes:
        return full
    last_full = next(p for p in reversed(passes) if p["stages"] == full)
    full_s = last_full["wall_s"]
    short_s = full_s * sum(last_full["stage_s"][s] for s in short) / sum(last_full["stage_s"].values())
    want, other = (short, full) if passes[-1]["stages"] == full else (full, short)
    for stages in (want, other):
        if (full_s if stages == full else short_s) <= left_s:
            return stages
    return None


def do_measure(job) -> None:
    import eyehead
    import workloads

    # Warm-up: every stage once on a tiny cohort (two participants, since
    # fpca needs two curves), so lazy imports and first-call costs are paid
    # before anything is timed.
    warm = os.path.join(job["out"], "warmup")
    tiny = workloads.Cohort("warmup", 2, 50, (1, 1))
    workloads.generate(tiny, job["seed"], os.path.join(warm, "traces"))
    warm_run = run_pass(job["stages"], stage_argv(os.path.join(warm, "traces"), warm))
    shutil.rmtree(warm)
    if any(warm_run["exit_codes"].values()):
        raise SystemExit(f"warm-up failed: {warm_run['exit_codes']}")

    plan = job.get("plan")
    deadline = time.perf_counter() + job.get("budget_s", 0.0)
    passes, tracer = [], None
    while True:
        if plan is not None:
            if len(passes) == len(plan):
                break
            spec = plan[len(passes)]
        else:
            stages = next_stages(passes, job["stages"], job["short_stages"],
                                 deadline - time.perf_counter())
            if stages is None:
                break
            spec = {"stages": stages, "trace": False}
        out = os.path.join(job["out"], f"pass{len(passes)}")
        os.makedirs(out)
        uninstall = None
        if spec["trace"]:
            import tracing

            tracer = tracing.Tracer()
            uninstall = tracing.install(tracer)
        t0 = time.perf_counter()
        try:
            p = run_pass(spec["stages"], stage_argv(job["traces"], out),
                         tracer if spec["trace"] else None)
        finally:
            if uninstall is not None:
                uninstall()
        p.update(tag=f"pass{len(passes)}", out=out, trace=spec["trace"],
                 wall_s=time.perf_counter() - t0)
        passes.append(p)
        if any(p["exit_codes"].values()):
            break
    result = {"passes": passes, "eyehead_file": eyehead.__file__}
    if tracer is not None:
        _write_spans(job, tracer, result)
    _finish(job, result)


def main() -> None:
    job = json.loads(sys.argv[1])
    {"setup": do_setup, "measure": do_measure}[job["mode"]](job)


if __name__ == "__main__":
    main()
