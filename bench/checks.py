"""Correctness checks on one pipeline pass's artifacts.

Each check reads an artifact the CLI wrote and compares it with what the
cohort generator knows: the participants, the trial pairs, the injected
faults and the generating soft-hinge curves. From `fits.json` only `model`,
`participant_id`, `params` and `converged` are read, so added keys or a
`null` r2 do not break the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics

# Artifacts whose SHA-256 is recorded; "report" is the whole bundle.
ARTIFACTS = ("shifts.csv", "sanity.jsonl", "symmetry.json", "fits.json",
             "spectrum.json", "scores.csv", "report", "sensitivity.json")
MODELS = ("linear", "hinge", "soft-hinge")
GRID = [float(x) for x in range(51)]  # the fPCA grid, 0..50 deg in 1-deg steps
# Fitted soft-hinge curves on these cohorts sit about 0.3 deg RMS from the
# generating curves; a broken fit or segmentation lands degrees away.
RMSE_TOL_DEG = 1.0


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def tree_digest(root: str) -> str:
    """SHA-256 over every file's relative path and digest, in sorted order."""
    h = hashlib.sha256()
    for dirpath, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            h.update(f"{rel}\0{sha256_file(path)}\n".encode())
    return h.hexdigest()


def artifact_digests(out_dir: str) -> dict[str, str]:
    out = {}
    for name in ARTIFACTS:
        path = os.path.join(out_dir, name)
        if os.path.isdir(path):
            out[name] = tree_digest(path)
        elif os.path.exists(path):
            out[name] = sha256_file(path)
    return out


def _softplus(u: float) -> float:
    return max(u, 0.0) + math.log1p(math.exp(-abs(u)))


def soft_hinge(p: dict, x: float) -> float:
    return p["beta"] * _softplus((x - p["tau"]) / p["s"])


def curve_rmse(fitted: dict, truth: dict) -> float:
    """RMS difference of two soft-hinge curves on the fPCA grid (deg)."""
    sq = [(soft_hinge(fitted, x) - soft_hinge(truth, x)) ** 2 for x in GRID]
    return math.sqrt(sum(sq) / len(sq))


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def check_sanity(out_dir: str, info: dict, errors: list) -> dict:
    """sanity.jsonl holds one record per trial pair and exactly the injected faults."""
    with open(os.path.join(out_dir, "sanity.jsonl")) as fh:
        records = [json.loads(line) for line in fh][1:]  # line 1 is provenance
    pairs = info["sizes"]["trial_pairs"]
    if len(records) != pairs:
        errors.append(("preprocess",
                       f"sanity.jsonl has {len(records)} trial records, expected {pairs}"))
    failed = {(r["participant_id"], r["trial_id"], r["reason"])
              for r in records if r["verdict"] != "pass"}
    injected = {(f["participant_id"], f["trial_id"], f["reason"]) for f in info["faults"]}
    if failed != injected:
        errors.append(("preprocess",
                       f"sanity failures {sorted(failed)} != injected {sorted(injected)}"))
    return {"trials_found": len(records), "trials_failed": len(failed)}


def check_fits(out_dir: str, info: dict, errors: list) -> dict:
    rows = [r for r in _read_json(os.path.join(out_dir, "fits.json"))
            if not (isinstance(r, dict) and set(r) == {"provenance"})]
    rows = [{k: r[k] for k in ("model", "participant_id", "params", "converged")} for r in rows]
    truth = info["truth"]
    seen = sorted((r["participant_id"], r["model"]) for r in rows)
    expected = sorted((pid, m) for pid in truth for m in MODELS)
    if seen != expected:
        errors.append(("fit", f"fits.json rows {len(seen)} do not cover {len(expected)} "
                              "(participant, model) pairs exactly once"))
    rmses = [curve_rmse(r["params"], truth[r["participant_id"]])
             for r in rows if r["model"] == "soft-hinge" and r["participant_id"] in truth]
    rmse = statistics.median(rmses) if rmses else math.inf
    if not rmse <= RMSE_TOL_DEG:
        errors.append(("fit", f"curve_rmse_deg {rmse:.3f} exceeds {RMSE_TOL_DEG} deg"))
    return {
        "fit_rows": len(rows),
        "fits_unconverged": sum(1 for r in rows if r["converged"] is not True),
        "curve_rmse_deg": rmse,
    }


def check_downstream(out_dir: str, info: dict, errors: list, sensitivity: bool) -> None:
    """Symmetry, spectrum, scores, report and sensitivity cover every participant."""
    pids = sorted(info["truth"])
    symmetry = _read_json(os.path.join(out_dir, "symmetry.json"))["participants"]
    if sorted(symmetry) != pids:
        errors.append(("preprocess", "symmetry.json does not list every participant"))
    spectrum = _read_json(os.path.join(out_dir, "spectrum.json"))
    if len(spectrum.get("reference_scores_pc1", [])) != len(pids):
        errors.append(("fpca", "spectrum.json does not score every participant"))
    with open(os.path.join(out_dir, "scores.csv")) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    if sorted(ln.split(",")[0] for ln in lines[1:]) != pids:
        errors.append(("project", "scores.csv does not hold one row per participant"))
    summary = _read_json(os.path.join(out_dir, "report", "summary.json"))
    for rel in summary["files"]:
        if not os.path.exists(os.path.join(out_dir, "report", rel)):
            errors.append(("report", f"report bundle lacks {rel}"))
    if summary["n_participants"] != len(pids):
        errors.append(("report", "report summary miscounts participants"))
    if sensitivity:
        sens = _read_json(os.path.join(out_dir, "sensitivity.json"))
        if sorted(sens["participants"]) != pids:
            errors.append(("sensitivity", "sensitivity.json does not list every participant"))
        if sorted(sens["median_r"]) != ["10", "15", "20"] or sens["median_r"]["15"] != 1.0:
            errors.append(("sensitivity", f"sensitivity.json median_r: {sens['median_r']}"))


def check_pass(out_dir: str, info: dict, sensitivity: bool) -> tuple[list[tuple[str, str]], dict]:
    """All checks on one pass; returns ((stage, error) pairs, facts and digests)."""
    errors: list[tuple[str, str]] = []
    facts: dict = {}
    try:
        facts.update(check_sanity(out_dir, info, errors))
        facts.update(check_fits(out_dir, info, errors))
        check_downstream(out_dir, info, errors, sensitivity)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        errors.append(("report", f"unreadable artifact: {type(exc).__name__}: {exc}"))
    facts["digests"] = artifact_digests(out_dir)
    return errors, facts
