#!/usr/bin/env python3
"""The eyehead benchmark: seeded synthetic cohorts through the real CLI.

    python3 bench/run.py --workload study --seed 1 --seconds 30 --trace 0

Workloads (bench/workloads.py, bench/workloads.json): `study`,
`long-trials`, `uneven-cohort`; `all` runs the three in turn. Each stage
runs with its required flags and built-in defaults only, in the order
`preprocess --symmetry-out` -> `fit` -> `fpca` -> `project` -> `report` ->
`sensitivity`.

The load is a closed loop with one client: one pass at a time, each pass
running the stages one after another, as one user of the CLI would. A run
measures in one fresh process with BLAS/OpenMP threads pinned to 1, which
warms up on a tiny cohort before anything is timed.

A run (`--trace 0`) first sets the cohort up three times, each in a fresh
process, then runs full passes (every stage) and pipeline passes (the first
five) in turn, while the next one fits in the `--seconds` budget. It reports
the end-to-end metrics as medians over the samples taken. A traced run
(`--trace 1`) sets up once traced, then runs an untraced pipeline pass, a
traced full pass and another untraced pipeline pass; it reports the
per-layer metrics and the tracing overhead: the traced pass's pipeline time
less the mean of the two untraced ones, all scaled to the nominal host
speed as below.

The host is shared, and its speed swings by up to 1.6 times every few
seconds. So every set-up and stage is timed together with a short reference
loop that runs before, after and every 0.2 s during it, in the same process
(worker.HostSpeed). Each end-to-end time is reported scaled to the host
speed at which that loop takes worker.REF_NOMINAL_S: the program's own cost,
in seconds of a quiet host. The raw wall-clock medians and the reference
times go to the details file and to the human-readable lines.

Once measuring is over, every pass is checked (checks.py): each stage exits
0, sanity.jsonl shows exactly the injected faults, every participant is fit
and scored, the fitted curves sit near the generating ones, and artifact
digests agree between passes and with earlier runs of the same code and
seed in this checkout. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the exit code is 1 when a
check fails and 2 when the program's sources are missing. Details, spans
and digests go to `.bench_work/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

import worker  # pins BLAS/OpenMP threads in os.environ on import

import checks
import tracing
from workloads import COHORTS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
SRC_PKG = os.path.join(ROOT, "src", "eyehead")

PIPELINE = tracing.STAGES[:5]
FULL = tracing.STAGES
SETUPS = 3
HARD_LIMIT_S = 170.0  # every run ends well inside 180 s

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "pipeline_s": "s",
    "preprocess_s": "s",
    "fit_s": "s",
    "sensitivity_s": "s",
    "peak_rss_mb": "MiB",
    "trials_passed_frac": "ratio",
    "fits_converged_frac": "ratio",
    "stages_ok_frac": "ratio",
}

# Which stage a digest mismatch is charged to.
ARTIFACT_STAGE = {"shifts.csv": "preprocess", "sanity.jsonl": "preprocess",
                  "symmetry.json": "preprocess", "fits.json": "fit",
                  "spectrum.json": "fpca", "scores.csv": "project",
                  "report": "report", "sensitivity.json": "sensitivity"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_deg"):
        return "deg"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes_hashed"):
        return "bytes"
    return "count"


def env_stamp() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": {v: os.environ[v] for v in worker.THREAD_VARS},
    }


def code_hash() -> str:
    """Digest of the program's sources and the cohort definitions: runs of
    the same code on the same inputs share it."""
    h = hashlib.sha256()
    paths = [os.path.join(SRC_PKG, n) for n in sorted(os.listdir(SRC_PKG)) if n.endswith(".py")]
    for path in [*paths, os.path.join(HERE, "workloads.py")]:
        h.update(os.path.basename(path).encode() + b"\0")
        h.update(checks.sha256_file(path).encode())
    return h.hexdigest()


def pipeline_s(p: dict) -> float:
    """Raw wall time of a pass's first five stages."""
    return sum(p["stage_s"][s] for s in PIPELINE)


def norm_s(p: dict, stage: str) -> float:
    """A stage's time in a pass, scaled to the nominal host speed."""
    return worker.normalised(p["stage_s"][stage], p["ref_s"][stage])


def norm_pipeline_s(p: dict) -> float:
    return sum(norm_s(p, s) for s in PIPELINE)


class Run:
    """One benchmark run of one workload: its jobs, samples and checks."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.workload, self.seed, self.trace = workload, seed, trace
        self.start = time.perf_counter()
        self.seconds = seconds
        self.dir = os.path.join(WORK, workload)
        self.traces = os.path.join(self.dir, "traces")
        self.attempted = 0
        self.failed_stages = 0
        self.errors: list[str] = []
        self.setups: list[dict] = []
        self.passes: list[dict] = []
        self.measured: dict = {}  # the measuring process's result
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)

    def spawn(self, job: dict) -> dict:
        """Run one worker process to completion; its result, or its error."""
        job["result"] = os.path.join(self.dir, f"{job['tag']}.json")
        remaining = HARD_LIMIT_S - (time.perf_counter() - self.start)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(job)],
                capture_output=True, text=True, timeout=max(remaining, 1.0),
            )
        except subprocess.TimeoutExpired:
            return {**job, "error": f"killed at the {HARD_LIMIT_S:.0f} s limit"}
        if proc.returncode != 0:
            tail = " | ".join((proc.stderr or proc.stdout).strip().splitlines()[-3:])
            return {**job, "error": f"worker exit {proc.returncode}: {tail}"}
        with open(job["result"]) as fh:
            result = json.load(fh)
        if os.path.dirname(result["eyehead_file"]) != SRC_PKG:
            return {**job, "error": f"imported eyehead from {result['eyehead_file']}"}
        return {**job, **result, "wall_s": time.perf_counter() - t0}

    def set_up(self) -> dict | None:
        """Set the cohort up several times; keep one copy as the pass input."""
        reps = 1 if self.trace else SETUPS
        self.setups = [
            self.spawn({"mode": "setup", "tag": f"setup{k}", "workload": self.workload,
                        "seed": self.seed, "traces": f"{self.traces}-{k}", "trace": self.trace})
            for k in range(reps)
        ]
        self.attempted += reps
        digests = set()
        for s in self.setups:
            if "error" in s:
                self.errors.append(f"{s['tag']}: {s['error']}")
                self.failed_stages += 1
            else:
                digests.add(checks.tree_digest(s["traces"]))
        if len(digests) > 1:
            self.errors.append("set-up: trace files differ between repetitions")
            self.failed_stages += 1
        ok = [s for s in self.setups if "error" not in s]
        if not ok:
            return None
        os.rename(ok[0]["traces"], self.traces)
        for s in self.setups:
            shutil.rmtree(s["traces"], ignore_errors=True)
        return ok[0]

    def measure(self) -> None:
        """One measuring process: full and pipeline passes in turn while the
        next one fits in the budget or, traced, an untraced pipeline pass, a
        traced full pass and another untraced pipeline pass."""
        job = {"mode": "measure", "tag": "measure", "seed": self.seed, "stages": list(FULL),
               "short_stages": list(PIPELINE), "traces": self.traces, "out": self.dir}
        if self.trace:
            job["plan"] = [{"stages": list(PIPELINE), "trace": False},
                           {"stages": list(FULL), "trace": True},
                           {"stages": list(PIPELINE), "trace": False}]
        else:
            job["budget_s"] = self.seconds
        result = self.spawn(job)
        if "error" in result:
            self.errors.append(f"measure: {result['error']}")
            self.attempted += 1
            self.failed_stages += 1
            return
        self.measured = result
        self.passes = result["passes"]

    def check(self, info: dict) -> None:
        """Charge every failed stage: non-zero exits, failed checks, digest drift."""
        reference: dict[str, str] = {}
        for p in self.passes:
            stages = p["stages"]
            self.attempted += len(stages)
            bad = {s for s in stages if p["exit_codes"].get(s) != 0}
            if bad:
                self.errors.append(f"{p['tag']}: stages {sorted(bad)} did not exit 0")
                self.failed_stages += len(bad)
                continue
            errors, facts = checks.check_pass(p["out"], info, "sensitivity" in stages)
            p.update(facts)
            for stage, msg in errors:
                self.errors.append(f"{p['tag']}: {msg}")
                bad.add(stage)
            for name, digest in facts["digests"].items():
                if reference.setdefault(name, digest) != digest:
                    self.errors.append(f"{p['tag']}: {name} digest differs from earlier passes")
                    bad.add(ARTIFACT_STAGE[name])
            self.failed_stages += len(bad)

    def ok_passes(self, stage: str) -> list[dict]:
        """Untraced passes that ran the stage and were checked."""
        return [p for p in self.passes
                if stage in p["stage_s"] and "digests" in p and not p["trace"]]


def stage_attributed(spans: list[list]) -> dict[str, dict[str, float]]:
    """Busy time of each traced function, split by the CLI stage it ran under."""
    stage_of = []
    for name, _, _, parent in spans:
        if name.startswith("cli."):
            stage_of.append(name[4:])
        else:
            stage_of.append(stage_of[parent] if parent >= 0 else None)
    out: dict[str, dict[str, float]] = {}
    for (name, start, end, _), stage in zip(spans, stage_of):
        if stage is not None and not name.startswith("cli."):
            bucket = out.setdefault(stage, {})
            bucket[name] = bucket.get(name, 0.0) + (end - start)
    return out


def record_digests(run: Run, digests: dict, counts: dict) -> None:
    """Compare with an earlier run of the same code and seed; then record this one."""
    path = os.path.join(WORK, "digests", f"{run.workload}-seed{run.seed}.json")
    now = {"code": code_hash(), "digests": digests, "counts": counts}
    if os.path.exists(path):
        with open(path) as fh:
            before = json.load(fh)
        if before["code"] == now["code"]:
            for kind in ("digests", "counts"):
                for key in sorted(set(before[kind]) & set(now[kind])):
                    if before[kind][key] != now[kind][key]:
                        run.errors.append(f"{key} differs from an earlier run of this seed")
                now[kind] = {**before[kind], **now[kind]}
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(now, fh, indent=1, sort_keys=True)


def end_to_end(run: Run, facts: dict) -> tuple[dict, dict]:
    """End-to-end metrics (medians over the run's samples) and the sample counts."""
    full = run.ok_passes("sensitivity")
    pipes = run.ok_passes("report")
    setups = [s for s in run.setups if "error" not in s]
    metrics = {
        "setup_s": statistics.median(worker.normalised(s["setup_s"], s["ref_s"]) for s in setups),
        "pipeline_s": statistics.median(norm_pipeline_s(p) for p in pipes),
        "preprocess_s": statistics.median(norm_s(p, "preprocess") for p in pipes),
        "fit_s": statistics.median(norm_s(p, "fit") for p in pipes),
        "sensitivity_s": statistics.median(norm_s(p, "sensitivity") for p in full),
        "peak_rss_mb": run.measured["peak_rss_mb"],
        "trials_passed_frac": 1 - facts["trials_failed"] / facts["trials_found"],
        "fits_converged_frac": 1 - facts["fits_unconverged"] / facts["fit_rows"],
        "stages_ok_frac": 1 - run.failed_stages / run.attempted,
    }
    samples = {"setup_s": len(setups), "pipeline_s": len(pipes), "sensitivity_s": len(full)}
    raw = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "pipeline_s": statistics.median(pipeline_s(p) for p in pipes),
        **{f"{s}_s": statistics.median(p["stage_s"][s] for p in full) for s in
           ("preprocess", "fit", "sensitivity")},
        "reference_s": statistics.median(r for p in full for r in p["ref_s"].values()),
    }
    return metrics, {"samples": samples, "raw_wall_median": raw}


def per_layer(run: Run, info: dict) -> tuple[dict, dict, dict]:
    """Per-layer metrics of the traced pass, each stage's time split by layer,
    and the percentile each per-call tail is."""
    before, full, after = run.passes
    traced = run.measured
    metrics = {k: v for k, v in traced["per_layer"].items() if not k.endswith("_pct")}
    for key in ("synth.synth_trace.busy_s", "ingest.write_trace_csv.busy_s"):
        metrics[key] = info["per_layer"][key]
    metrics["fitting.curve_rmse_deg"] = full["curve_rmse_deg"]
    untraced = (norm_pipeline_s(before) + norm_pipeline_s(after)) / 2
    metrics["trace.overhead_s"] = norm_pipeline_s(full) - untraced
    metrics["host.reference_s"] = statistics.median(
        r for p in (before, after) for r in p["ref_s"].values())
    with open(traced["spans_file"]) as fh:
        spans = json.load(fh)["spans"]
    shares = {stage: {k: v / full["stage_s"][stage] for k, v in sorted(busy.items())}
              for stage, busy in stage_attributed(spans).items()}
    tails = {k: v for k, v in traced["per_layer"].items() if k.endswith("_pct")}
    return metrics, shares, tails


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (final result object, details)."""
    run = Run(workload, seed, seconds, trace)
    details: dict = {"workload": workload, "seed": seed, "trace": trace, "env": env_stamp()}
    metrics: dict[str, float] = {}
    info = run.set_up()
    if info is not None:
        details["sizes"] = info["sizes"]
        details["faults"] = info["faults"]
        run.measure()
        run.check(info)
    checked = [p for p in run.passes if "digests" in p]
    if checked and (trace or run.ok_passes("sensitivity")):
        facts = checked[0]
        counts = {k: facts[k] for k in ("trials_found", "trials_failed", "fit_rows",
                                        "fits_unconverged")}
        counts.update(info["sizes"])
        if not trace:
            metrics, more = end_to_end(run, facts)
            details.update(more)
        elif not run.errors:
            metrics, details["stage_shares"], details["tail_percentiles"] = per_layer(run, info)
            counts.update({k: v for k, v in metrics.items()
                           if per_layer_unit(k) in ("count", "bytes") and not k.endswith(".calls")})
        if not run.errors:
            record_digests(run, facts["digests"], counts)
        details["digests"] = facts["digests"]
        details["counts"] = counts
    correct = not run.errors and bool(metrics)
    details["setup_s"] = [s.get("setup_s") for s in run.setups]
    details["setup_ref_s"] = [s.get("ref_s") for s in run.setups]
    details["peak_rss_mb"] = run.measured.get("peak_rss_mb")
    details["passes"] = [{k: p.get(k) for k in ("tag", "trace", "wall_s", "stage_s", "ref_s")}
                         for p in run.passes]
    details["errors"] = run.errors
    details["elapsed_s"] = time.perf_counter() - run.start
    units = {} if trace else END_TO_END
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed_stages if correct else max(run.failed_stages, 1),
        "metrics": {k: {"value": v, "unit": units.get(k) or per_layer_unit(k)}
                    for k, v in metrics.items()},
    }
    details["result"] = result
    path = os.path.join(WORK, "results", f"{workload}-seed{seed}-trace{int(trace)}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if "spans_file" in run.measured:
        shutil.move(run.measured["spans_file"], path[: -len(".json")] + ".spans.json")
    with open(path, "w") as fh:
        json.dump(details, fh, indent=1, sort_keys=True)
    shutil.rmtree(run.dir, ignore_errors=True)
    return result, details


def show(details: dict) -> None:
    """Human-readable lines; the final JSON line follows them."""
    env = details["env"]
    print(f"== {details['workload']} seed={details['seed']} trace={int(details['trace'])} "
          f"({details['elapsed_s']:.1f} s)")
    print(f"env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, cpu {env['cpu']}, BLAS/OpenMP threads pinned to 1")
    if "sizes" in details:
        print("sizes: " + ", ".join(f"{k} {v}" for k, v in details["sizes"].items()))
    if "samples" in details:
        print("samples: " + ", ".join(f"{k} {v}" for k, v in details["samples"].items()))
        print("raw wall-clock medians: " + ", ".join(
            f"{k} {v:.4g} s" for k, v in details["raw_wall_median"].items()))
    for name, m in details["result"]["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    for stage, shares in details.get("stage_shares", {}).items():
        top = sorted(shares.items(), key=lambda kv: -kv[1])[:4]
        print(f"  share of {stage}: " + ", ".join(f"{k} {v:.0%}" for k, v in top))
    for name, digest in details.get("digests", {}).items():
        print(f"  sha256 {name:<16} {digest}")
    for err in details["errors"]:
        print(f"  CHECK FAILED: {err}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*COHORTS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run then kills and reaps the running worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC_PKG, "__init__.py")):
        sys.stderr.write(f"eyehead sources not found under {SRC_PKG}\n")
        return 2

    names = list(COHORTS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result, details = run_workload(name, args.seed, args.seconds, bool(args.trace))
        show(details)
        results.append((name, result))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{n}.{k}": v for n, r in results for k, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
