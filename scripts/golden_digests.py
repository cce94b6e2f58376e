#!/usr/bin/env python3
"""Regenerate the golden artifact digests that tests/test_golden.py checks.

Builds a small seeded synthetic cohort (4 participants x 2 trials x 40
shifts) in which one trial has no head file (a missing_stream trial) and
one has a head clock that shares no window with its gaze clock (a
no_overlap trial). The six analysis stages (preprocess, fit, fpca,
project, report, sensitivity) then run on it through the CLI, and the
SHA-256 of every file under the work directory, the synth outputs
included, goes to the manifest with the numpy version that wrote them.

Usage:
    python3 scripts/golden_digests.py [--out tests/golden/digests.json]

Regenerate the manifest only when an output drifts on purpose, and name
the drift.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from eyehead.cli import dispatch
from eyehead.ingest import load_trace_csv, write_trace_csv

MANIFEST = os.path.join(ROOT, "tests", "golden", "digests.json")
COHORT = {"participants": 4, "trials": 2, "shifts": 40, "seed": 7}
# a synthetic trial lasts about 0.6 s per shift, under the default 25 s gate
TRACE_FLAGS = ["--min-overlap-s", "5"]
MISSING_HEAD = "synth002_t02.head.csv"
NO_OVERLAP_HEAD = "synth003_t01.head.csv"
CLOCK_OFFSET_S = 1000.0


def run(*argv) -> None:
    code = dispatch([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"eyehead {argv[0]} exited with {code}")


def build_cohort(work: str) -> str:
    """Write the synthetic cohort under `work`; returns its trace directory."""
    run("synth", "--out-dir", os.path.join(work, "synth"),
        *(f"--{key}={value}" for key, value in COHORT.items()))
    traces = os.path.join(work, "synth", "traces")
    os.remove(os.path.join(traces, MISSING_HEAD))
    path = os.path.join(traces, NO_OVERLAP_HEAD)
    head = load_trace_csv(path)
    head.t = head.t + CLOCK_OFFSET_S
    write_trace_csv(path, head)
    return traces


def run_stages(work: str) -> None:
    """Build the cohort and run the six analysis stages on it, all under `work`."""
    traces = build_cohort(work)
    out = os.path.join(work, "out")
    shifts, fits = os.path.join(out, "shifts.csv"), os.path.join(out, "fits.json")
    spectrum, scores = os.path.join(out, "spectrum.json"), os.path.join(out, "scores.csv")
    run("preprocess", "--in-dir", traces, "--out", shifts,
        "--symmetry-out", os.path.join(out, "symmetry.json"), *TRACE_FLAGS)
    run("fit", "--in", shifts, "--out", fits)
    run("fpca", "--in", fits, "--out", spectrum)
    run("project", "--model", spectrum, "--in", fits, "--out", scores)
    run("report", "--fits", fits, "--spectrum", spectrum, "--scores", scores,
        "--out-dir", os.path.join(out, "report"))
    run("sensitivity", "--in-dir", traces, "--out", os.path.join(out, "sensitivity.json"),
        *TRACE_FLAGS)


def digests(work: str) -> dict[str, str]:
    """SHA-256 of every file under `work`, keyed by its '/'-separated relative path."""
    found = {}
    for dirpath, _, files in os.walk(work):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            found[os.path.relpath(path, work).replace(os.sep, "/")] = digest
    return dict(sorted(found.items()))


def stage_digests() -> dict[str, str]:
    """Run every stage in a fresh temporary directory and digest what it wrote."""
    with tempfile.TemporaryDirectory() as work:
        run_stages(work)
        return digests(work)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=MANIFEST, help="manifest path")
    args = ap.parse_args()
    manifest = {"numpy": np.__version__, "cohort": COHORT, "digests": stage_digests()}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(manifest['digests'])} digests to {args.out}")


if __name__ == "__main__":
    main()
