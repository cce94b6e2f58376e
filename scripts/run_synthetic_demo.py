#!/usr/bin/env python3
"""End-to-end demo on a synthetic population with known ground truth.

Generates raw gaze/head trace pairs for a handful of synthetic
participants, pushes them through the full pipeline (preprocess -> fit ->
fpca -> project -> report), then compares the fitted curves against the
generating parameters and prints a short summary.

Usage:
    python3 scripts/run_synthetic_demo.py --out-dir demo_out [--participants 12]
"""

import argparse
import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from eyehead import SoftHingeParams, eval_model
from eyehead.cli import dispatch
from eyehead.fpca import DEFAULT_GRID
from eyehead.report import read_fit_rows


def run(argv) -> None:
    code = dispatch([str(a) for a in argv])
    if code != 0:
        raise SystemExit(code)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="demo_out")
    ap.add_argument("--participants", type=int, default=12)
    ap.add_argument("--trials", type=int, default=2)
    ap.add_argument("--shifts", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    out = args.out_dir
    raw = os.path.join(out, "raw")
    run(["synth", "--out-dir", raw, "--participants", args.participants,
         "--trials", args.trials, "--shifts", args.shifts, "--seed", args.seed])

    shifts = os.path.join(out, "shifts.csv")
    # synthetic trial length scales with --shifts, so the default minimum
    # trial-overlap gate (tuned for real recordings) would reject short runs
    run(["preprocess", "--in-dir", os.path.join(raw, "traces"), "--out", shifts,
         "--symmetry-out", os.path.join(out, "symmetry.json"),
         "--min-overlap-s", 2.0])

    fits = os.path.join(out, "fits.json")
    run(["fit", "--in", shifts, "--out", fits])

    spectrum = os.path.join(out, "spectrum.json")
    run(["fpca", "--in", fits, "--out", spectrum])

    scores = os.path.join(out, "scores.csv")
    run(["project", "--model", spectrum, "--in", fits, "--out", scores])

    run(["report", "--fits", fits, "--spectrum", spectrum, "--scores", scores,
         "--out-dir", os.path.join(out, "report")])

    # compare fitted soft-hinge curves against the generating parameters
    with open(os.path.join(raw, "truth.json"), encoding="utf-8") as fh:
        truth = json.load(fh)["population"]
    fit_rows = [r for r in read_fit_rows(fits) if r["model"] == "soft-hinge"]

    print(f"\n{'participant':<12} {'rms curve error (deg)':>22} {'true beta/tau/s':>22}")
    errors = []
    for row in sorted(fit_rows, key=lambda r: r["participant_id"]):
        pid = row["participant_id"]
        fitted = eval_model(row["params"], DEFAULT_GRID)
        true_p = truth[pid]
        true_curve = eval_model(
            SoftHingeParams(true_p["beta"], true_p["tau"], true_p["s"]), DEFAULT_GRID
        )
        rms = float(np.sqrt(np.mean((fitted - true_curve) ** 2)))
        errors.append(rms)
        print(f"{pid:<12} {rms:>22.3f} "
              f"{true_p['beta']:>8.2f}/{true_p['tau']:.1f}/{true_p['s']:.1f}")

    with open(os.path.join(out, "report", "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    ratio = summary["explained_ratio"]
    print(f"\nmedian rms curve error: {np.median(errors):.3f} deg")
    print(f"spectrum explained variance: PC1 {ratio[0]:.1%}"
          + (f", PC2 {ratio[1]:.1%}" if len(ratio) > 1 else ""))
    print(f"PC1 score median: {summary['pc1_distribution']['median']:+.2f}")
    print(f"report bundle: {os.path.join(out, 'report', 'summary.md')}")


if __name__ == "__main__":
    main()
