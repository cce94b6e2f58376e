"""Command-line pipeline.

Subcommands mirror the analysis stages:

    preprocess   paired trace CSVs -> cleaned shift table + sanity log
    fit          shift table -> per-participant model fits (JSON)
    fpca         soft-hinge fits -> population spectrum (JSON)
    project      fits + spectrum -> score table (CSV)
    report       fits + spectrum + scores -> report bundle
    sensitivity  traces -> velocity-threshold robustness summary
    synth        ground-truth synthetic traces and shift tables

Exit codes: 0 success, 2 usage error (bad flags/subcommand), 1 stage error.
Stage errors are written to stderr as a single JSON object naming the stage,
the error type, and a message. Option precedence is flags over config-file
values over built-in defaults; the config file is a flat key/value JSON
object using the long flag names with underscores.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

import numpy as np

from .errors import EyeheadError, MissingInputError, OneSidedDataError
from .events import FixationConfig, preprocess_trial
from .fitting import MODELS, FitConfig, fit_participant
from .fpca import Spectrum, fit_fpca, sample_curves, score_table
from .ingest import (
    FilterConfig,
    align_head_to_gaze,
    concat_shift_sets,
    load_trace_csv,
    missing_stream_report,
    participant_passes,
    read_scores_csv,
    read_shifts_csv,
    sanity_check,
    symmetrize_and_clean,
    write_scores_csv,
    write_shifts_csv,
    write_trace_csv,
)
from .models import params_from_dict, params_to_dict
from .report import (
    emit_report,
    make_provenance,
    read_json_array,
    write_json_array,
    write_json_lines,
    write_json_object,
)
from .stats import symmetry_check, threshold_sensitivity
from .synth import SynthConfig, draw_population, synth_shifts, synth_trace

DEFAULTS = {
    "fix_threshold": 15.0,
    "min_dur_ms": 60.0,
    "pad_ms": 10.0,
    "merge_gap_ms": 20.0,
    "max_ecc_deg": 50.0,
    "min_cutoff": 1.0,
    "filter_beta": 0.0,
    "derivative_cutoff": 1.0,
    "min_overlap_s": 25.0,
    "max_gap_s": 0.5,
    "expected_trials": 0,
    "model": "all",
    "starts": 20,
    "seed": 0,
    "components": 0,
    "thresholds": "10,15,20",
    "base_threshold": 15.0,
    "participants": 12,
    "trials": 2,
    "shifts": 50,
    "noise_sd": 2.0,
}


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config file must be a flat JSON object")
    unknown = set(data) - set(DEFAULTS)
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    return {key: _config_value(path, key, value) for key, value in data.items()}


def _config_value(path: str, key: str, value):
    """A config-file value as its option's type; the JSON type must match.

    int options take only integers (not booleans), float options take
    integers or floats, str options take only strings.
    """
    kind = type(DEFAULTS[key])
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValueError(
            f"{path}: config key {key!r} must be {kind.__name__}, "
            f"got {type(value).__name__} {value!r}"
        )
    return kind(value)


def _resolve(args: argparse.Namespace, keys: tuple[str, ...]) -> dict:
    """Merge CLI flags, config-file values, and defaults (in that order)."""
    from_file = _load_config_file(getattr(args, "config", None))
    resolved = {}
    for key in keys:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = flag_value
        elif key in from_file:
            resolved[key] = from_file[key]
        else:
            resolved[key] = DEFAULTS[key]
    return resolved


def _filter_config(cfg: dict) -> FilterConfig:
    return FilterConfig(
        min_cutoff=cfg["min_cutoff"],
        beta=cfg["filter_beta"],
        derivative_cutoff=cfg["derivative_cutoff"],
    )


def _fixation_config(cfg: dict) -> FixationConfig:
    return FixationConfig(
        vel_threshold=cfg["fix_threshold"],
        min_duration_s=cfg["min_dur_ms"] / 1000.0,
        pad_s=cfg["pad_ms"] / 1000.0,
        merge_gap_s=cfg["merge_gap_ms"] / 1000.0,
    )


def _trace_pairs(in_dir: str) -> list[tuple[str, str]]:
    """(gaze_path, head_path) pairs; the head file may be absent."""
    gaze_files = sorted(glob.glob(os.path.join(in_dir, "*.gaze.csv")))
    if not gaze_files:
        raise MissingInputError(f"no *.gaze.csv files under {in_dir}")
    return [(g, g[: -len(".gaze.csv")] + ".head.csv") for g in gaze_files]


def _input_map(paths: list[str], base: str) -> dict[str, str]:
    """Name inputs by path relative to `base`; make_provenance digests them."""
    return {os.path.relpath(p, base): p for p in paths if os.path.exists(p)}


def _sane_traces(in_dir: str, cfg: dict):
    """Load, align and sanity-check every trace pair.

    Returns (traces that passed, one sanity report per trial, input paths).
    With expected_trials > 0, a participant's traces are kept only when
    exactly that many trials were found and all of them passed. A missing
    head file yields a missing_stream report.
    """
    aligned = []
    reports = []
    paths = []
    for gaze_path, head_path in _trace_pairs(in_dir):
        gaze = load_trace_csv(gaze_path, kind="gaze")
        paths.append(gaze_path)
        if not os.path.exists(head_path):
            reports.append(missing_stream_report(gaze.participant_id, gaze.trial_id))
            continue
        head = load_trace_csv(head_path, kind="head")
        paths.append(head_path)
        aligned.append(align_head_to_gaze(gaze, head))

    passed = []
    for trace in aligned:
        report = sanity_check(trace, cfg["min_overlap_s"], cfg["max_gap_s"])
        reports.append(report)
        if report.verdict == "pass":
            passed.append(trace)

    if cfg["expected_trials"] > 0:
        grouped: dict[str, list] = {}
        for report in reports:
            grouped.setdefault(report.participant_id, []).append(report)
        kept = {
            pid
            for pid, group in grouped.items()
            if participant_passes(group, cfg["expected_trials"])
        }
        passed = [t for t in passed if t.participant_id in kept]

    if not passed:
        raise MissingInputError("no trials passed the sanity checks")
    return passed, reports, paths


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

PREPROCESS_KEYS = (
    "fix_threshold",
    "min_dur_ms",
    "pad_ms",
    "merge_gap_ms",
    "max_ecc_deg",
    "min_cutoff",
    "filter_beta",
    "derivative_cutoff",
    "min_overlap_s",
    "max_gap_s",
    "expected_trials",
)


def cmd_preprocess(args: argparse.Namespace) -> int:
    cfg = _resolve(args, PREPROCESS_KEYS)
    traces, reports, input_paths = _sane_traces(args.in_dir, cfg)
    provenance = make_provenance(
        {"command": "preprocess", **cfg}, None, _input_map(input_paths, args.in_dir)
    )
    filter_cfg = _filter_config(cfg)
    fixation_cfg = _fixation_config(cfg)
    signed = concat_shift_sets(
        [preprocess_trial(trace, filter_cfg, fixation_cfg) for trace in traces]
    )

    sanity_path = args.sanity_out or os.path.join(
        os.path.dirname(os.path.abspath(args.out)), "sanity.jsonl"
    )
    for path in (args.out, args.symmetry_out, sanity_path):
        if path:
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)

    if args.symmetry_out:
        symmetry = {}
        for pid in signed.participants():
            try:
                symmetry[pid] = symmetry_check(signed.for_participant(pid)).to_dict()
            except (OneSidedDataError, EyeheadError) as exc:
                symmetry[pid] = {"error": type(exc).__name__, "message": str(exc)}
        write_json_object(args.symmetry_out, {"participants": symmetry}, provenance)

    clean = symmetrize_and_clean(signed, max_ecc=cfg["max_ecc_deg"])
    write_shifts_csv(args.out, clean, provenance)
    write_json_lines(sanity_path, [r.to_dict() for r in reports], provenance)
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    cfg = _resolve(args, ("model", "starts", "seed"))
    if cfg["model"] not in MODELS + ("all",):
        raise ValueError(f"unknown model {cfg['model']!r}")
    models = MODELS if cfg["model"] == "all" else (cfg["model"],)

    shifts = read_shifts_csv(args.in_path)
    provenance = make_provenance(
        {"command": "fit", **cfg},
        cfg["seed"],
        _input_map([args.in_path], os.path.dirname(os.path.abspath(args.in_path))),
    )
    fit_cfg = FitConfig(n_starts=cfg["starts"], seed=cfg["seed"])
    rows = []
    for pid in shifts.participants():
        sub = shifts.for_participant(pid)
        pfit = fit_participant(sub.x, sub.y, pid, fit_cfg, models)
        for model in models:
            rows.append(
                {"participant_id": pfit.participant_id, **pfit.fits[model].to_file_dict()}
            )
    write_json_array(args.out, rows, provenance)
    return 0


def _soft_hinge_curves(fit_rows: list[dict], grid=None):
    soft = [r for r in fit_rows if r.get("model") == "soft-hinge"]
    if not soft:
        raise MissingInputError("no soft-hinge fits in the input")
    params = [params_from_dict(r["params"]) for r in soft]
    curve_ids = [r["participant_id"] for r in soft]
    return sample_curves(params, curve_ids, grid=grid)


def cmd_fpca(args: argparse.Namespace) -> int:
    cfg = _resolve(args, ("components",))
    rows = read_json_array(args.in_path)
    curves = _soft_hinge_curves(rows)
    n_curves = len(curves.curve_ids)
    n_components = cfg["components"] or max(1, min(2, n_curves - 1))
    spectrum = fit_fpca(curves, n_components=n_components)
    provenance = make_provenance(
        {"command": "fpca", **cfg, "n_components": n_components},
        None,
        _input_map([args.in_path], os.path.dirname(os.path.abspath(args.in_path))),
    )
    write_json_object(args.out, spectrum.to_dict(), provenance)
    return 0


def _load_spectrum(path: str) -> Spectrum:
    with open(path) as fh:
        payload = json.load(fh)
    payload.pop("provenance", None)
    return Spectrum.from_dict(payload)


def cmd_project(args: argparse.Namespace) -> int:
    spectrum = _load_spectrum(args.model_path)
    rows = read_json_array(args.in_path)
    curves = _soft_hinge_curves(rows, grid=spectrum.grid)
    table = score_table(spectrum, curves)
    provenance = make_provenance(
        {"command": "project"},
        None,
        _input_map(
            [args.model_path, args.in_path],
            os.path.dirname(os.path.abspath(args.in_path)),
        ),
    )
    write_scores_csv(args.out, table, provenance)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    fit_rows = read_json_array(args.fits)
    if not fit_rows:
        raise MissingInputError(f"{args.fits}: empty fit table")
    spectrum = _load_spectrum(args.spectrum)
    score_rows = read_scores_csv(args.scores)
    provenance = make_provenance(
        {"command": "report"},
        None,
        _input_map(
            [args.fits, args.spectrum, args.scores],
            os.path.dirname(os.path.abspath(args.fits)),
        ),
    )
    emit_report(fit_rows, spectrum, score_rows, args.out_dir, provenance)
    return 0


SENSITIVITY_KEYS = PREPROCESS_KEYS + ("thresholds", "base_threshold", "starts", "seed")


def cmd_sensitivity(args: argparse.Namespace) -> int:
    cfg = _resolve(args, SENSITIVITY_KEYS)
    thresholds = tuple(float(v) for v in str(cfg["thresholds"]).split(","))
    traces, _, input_paths = _sane_traces(args.in_dir, cfg)

    by_pid: dict[str, list] = {}
    for trace in traces:
        by_pid.setdefault(trace.participant_id, []).append(trace)

    fit_cfg = FitConfig(n_starts=cfg["starts"], seed=cfg["seed"])
    per_participant: dict[str, dict[str, float]] = {}
    for pid in sorted(by_pid):
        result = threshold_sensitivity(
            by_pid[pid],
            thresholds=thresholds,
            base=cfg["base_threshold"],
            filter_cfg=_filter_config(cfg),
            fixation_cfg=_fixation_config(cfg),
            fit_cfg=fit_cfg,
            participant_id=pid,
            max_ecc=cfg["max_ecc_deg"],
        )
        per_participant[pid] = {f"{thr:g}": r for thr, r in result.items()}

    medians = {
        f"{thr:g}": float(
            np.median([per_participant[pid][f"{thr:g}"] for pid in per_participant])
        )
        for thr in thresholds
    }
    provenance = make_provenance(
        {"command": "sensitivity", **cfg},
        cfg["seed"],
        _input_map(input_paths, args.in_dir),
    )
    write_json_object(
        args.out,
        {
            "base_threshold": cfg["base_threshold"],
            "thresholds": list(thresholds),
            "participants": per_participant,
            "median_r": medians,
        },
        provenance,
    )
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _resolve(
        args, ("participants", "trials", "shifts", "noise_sd", "seed")
    )
    population = draw_population(cfg["participants"], seed=cfg["seed"])
    provenance = make_provenance({"command": "synth", **cfg}, cfg["seed"], {})

    traces_dir = os.path.join(args.out_dir, "traces")
    os.makedirs(traces_dir, exist_ok=True)
    truth: dict = {"population": {}, "trials": {}, "shift_truth": {}}
    shift_sets = []
    for pid, params in population:
        truth["population"][pid] = params_to_dict(params)
        shift_cfg = SynthConfig(
            params=params,
            n_shifts=cfg["trials"] * cfg["shifts"],
            noise_sd=cfg["noise_sd"],
            seed=cfg["seed"],
            participant_id=pid,
        )
        shifts, shift_truth = synth_shifts(shift_cfg)
        shift_sets.append(shifts)
        truth["shift_truth"][pid] = shift_truth
        truth["trials"][pid] = {}
        for j in range(cfg["trials"]):
            trial_id = f"t{j + 1:02d}"
            trace_cfg = SynthConfig(
                params=params,
                n_shifts=cfg["shifts"],
                seed=cfg["seed"],
                participant_id=pid,
                trial_id=trial_id,
                wrap_output=True,
            )
            gaze, head, trace_truth = synth_trace(trace_cfg)
            stem = os.path.join(traces_dir, f"{pid}_{trial_id}")
            write_trace_csv(stem + ".gaze.csv", gaze)
            write_trace_csv(stem + ".head.csv", head)
            truth["trials"][pid][trial_id] = trace_truth

    write_shifts_csv(
        os.path.join(args.out_dir, "shifts.csv"), concat_shift_sets(shift_sets), provenance
    )
    write_json_object(os.path.join(args.out_dir, "truth.json"), truth, provenance)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_config_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat JSON file with default option values")


def _add_preprocess_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fix-threshold", dest="fix_threshold", type=float,
                   help="fixation velocity threshold (deg/s)")
    p.add_argument("--min-dur-ms", dest="min_dur_ms", type=float,
                   help="minimum fixation duration (ms)")
    p.add_argument("--pad-ms", dest="pad_ms", type=float,
                   help="padding applied around fixation bounds (ms)")
    p.add_argument("--merge-gap-ms", dest="merge_gap_ms", type=float,
                   help="merge fixations separated by less than this gap (ms)")
    p.add_argument("--max-ecc-deg", dest="max_ecc_deg", type=float,
                   help="drop shifts with eccentricity beyond this (deg)")
    p.add_argument("--min-cutoff", dest="min_cutoff", type=float,
                   help="smoothing filter minimum cutoff (Hz)")
    p.add_argument("--filter-beta", dest="filter_beta", type=float,
                   help="smoothing filter speed coefficient")
    p.add_argument("--derivative-cutoff", dest="derivative_cutoff", type=float,
                   help="smoothing filter derivative cutoff (Hz)")
    p.add_argument("--min-overlap-s", dest="min_overlap_s", type=float,
                   help="minimum gaze/head overlap to keep a trial (s)")
    p.add_argument("--max-gap-s", dest="max_gap_s", type=float,
                   help="maximum sampling gap to keep a trial (s)")
    p.add_argument("--expected-trials", dest="expected_trials", type=int,
                   help="drop participants without this many passing trials")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eyehead",
        description="Eye-head coordination pipeline: model fits and the mover spectrum.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="align traces and extract cleaned shifts")
    p.add_argument("--in-dir", required=True, help="directory of *.gaze.csv/*.head.csv pairs")
    p.add_argument("--out", required=True, help="output shift CSV")
    p.add_argument("--sanity-out", help="sanity report JSONL (default: sanity.jsonl next to --out)")
    p.add_argument("--symmetry-out", help="optional left/right symmetry JSON")
    _add_preprocess_flags(p)
    _add_config_flag(p)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("fit", help="fit candidate models per participant")
    p.add_argument("--in", dest="in_path", required=True, help="cleaned shift CSV")
    p.add_argument("--out", required=True, help="output fit JSON")
    p.add_argument("--model", choices=MODELS + ("all",), help="model family to fit")
    p.add_argument("--starts", type=int, help="random restarts per fit")
    p.add_argument("--seed", type=int, help="master seed")
    _add_config_flag(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("fpca", help="build the population spectrum from fits")
    p.add_argument("--in", dest="in_path", required=True, help="fit JSON")
    p.add_argument("--out", required=True, help="output spectrum JSON")
    p.add_argument("--components", type=int, help="components to keep (default: up to 2)")
    _add_config_flag(p)
    p.set_defaults(func=cmd_fpca)

    p = sub.add_parser("project", help="score fitted curves against a spectrum")
    p.add_argument("--model", dest="model_path", required=True, help="spectrum JSON")
    p.add_argument("--in", dest="in_path", required=True, help="fit JSON")
    p.add_argument("--out", required=True, help="output score CSV")
    _add_config_flag(p)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("report", help="emit the analysis report bundle")
    p.add_argument("--fits", required=True, help="fit JSON")
    p.add_argument("--spectrum", required=True, help="spectrum JSON")
    p.add_argument("--scores", required=True, help="score CSV")
    p.add_argument("--out-dir", required=True, help="report output directory")
    _add_config_flag(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("sensitivity", help="velocity-threshold robustness check")
    p.add_argument("--in-dir", required=True, help="directory of trace pairs")
    p.add_argument("--out", required=True, help="output JSON")
    p.add_argument("--thresholds", help="comma-separated thresholds (deg/s)")
    p.add_argument("--base-threshold", dest="base_threshold", type=float,
                   help="reference threshold (deg/s)")
    p.add_argument("--starts", type=int, help="random restarts per fit")
    p.add_argument("--seed", type=int, help="master seed")
    _add_preprocess_flags(p)
    _add_config_flag(p)
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("synth", help="generate ground-truth synthetic data")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.add_argument("--participants", type=int, help="synthetic participants")
    p.add_argument("--trials", type=int, help="trials per participant")
    p.add_argument("--shifts", type=int, help="gaze shifts per trial")
    p.add_argument("--noise-sd", dest="noise_sd", type=float,
                   help="vertical noise SD for the shift table (deg)")
    p.add_argument("--seed", type=int, help="master seed")
    _add_config_flag(p)
    p.set_defaults(func=cmd_synth)

    return parser


def dispatch(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EyeheadError, OSError, ValueError, json.JSONDecodeError, KeyError) as exc:
        payload = {
            "stage": args.command,
            "error": type(exc).__name__,
            "message": str(exc),
        }
        sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
