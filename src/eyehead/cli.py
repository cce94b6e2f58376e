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
import math
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from .errors import (
    EyeheadError,
    IndexOutOfRangeError,
    MissingInputError,
    NoOverlapError,
    TooFewFixationsError,
    TooFewSamplesError,
)
from .events import FixationConfig, preprocess_trial
from .fitting import fit_participants
from .fpca import fit_fpca, sample_curves, score_table
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
    unaligned_report,
    write_scores_csv,
    write_shifts_csv,
    write_trace_csv,
)
from .models import MODELS, params_to_dict
from .report import (
    emit_report,
    make_provenance,
    read_fit_rows,
    read_json,
    read_spectrum,
    write_json_array,
    write_json_lines,
    write_json_object,
)
from .stats import symmetry_check, threshold_sensitivity, threshold_shifts
from .synth import SynthConfig, draw_population, synth_shifts, synth_trace

# Every option: key -> (built-in default, help text). The default's type is
# the option's type, and its flag is the key with dashes (--fix-threshold).
OPTIONS = {
    "fix_threshold": (15.0, "fixation velocity threshold (deg/s)"),
    "min_dur_ms": (60.0, "minimum fixation duration (ms)"),
    "pad_ms": (10.0, "padding applied around fixation bounds (ms)"),
    "merge_gap_ms": (20.0, "merge fixations separated by less than this gap (ms)"),
    "max_ecc_deg": (50.0, "drop shifts with eccentricity beyond this (deg)"),
    "min_cutoff": (1.0, "smoothing filter minimum cutoff (Hz)"),
    "filter_beta": (0.0, "smoothing filter speed coefficient"),
    "derivative_cutoff": (1.0, "filter derivative cutoff (Hz); acts only if filter_beta > 0"),
    "min_overlap_s": (25.0, "keep a trial only if gaze and head overlap longer than this (s)"),
    "max_gap_s": (0.5, "maximum sampling gap to keep a trial (s)"),
    "expected_trials": (0, "drop participants without this many passing trials"),
    "model": ("all", "model family to fit"),
    "seed": (0, "synthetic data seed"),
    "components": (0, "components to keep (default: up to 2)"),
    "thresholds": ("10,15,20", "comma-separated thresholds (deg/s)"),
    "participants": (12, "synthetic participants"),
    "trials": (2, "trials per participant"),
    "shifts": (50, "gaze shifts per trial"),
    "noise_sd": (2.0, "vertical noise SD for the shift table (deg)"),
}
DEFAULTS = {key: default for key, (default, _) in OPTIONS.items()}
CHOICES = {"model": (*MODELS, "all")}

# The range of each numeric option that no config class checks, as
# (comparison, bound); a float option must also be finite. A value out of
# range is a ValueError naming the option before the stage reads an input.
RANGES = {
    "max_ecc_deg": (">", 0),
    "min_overlap_s": (">=", 0),
    "max_gap_s": (">", 0),
    "expected_trials": (">=", 0),
    "components": (">=", 0),
    "participants": (">=", 1),
    "trials": (">=", 1),
    "shifts": (">=", 1),
    "noise_sd": (">=", 0),
    "seed": (">=", 0),
}

# The options each stage takes. One config file serves every stage, so a
# stage accepts (and checks) keys it does not use.
_TRACE_OPTIONS = (
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
STAGE_OPTIONS = {
    "preprocess": _TRACE_OPTIONS,
    "fit": ("model",),
    "fpca": ("components",),
    "project": (),
    "report": (),
    "sensitivity": ("thresholds",) + _TRACE_OPTIONS,
    "synth": ("participants", "trials", "shifts", "noise_sd", "seed"),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    data = read_json(path, "config file")
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config file must be a flat JSON object")
    unknown = set(data) - set(DEFAULTS)
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    return {key: _config_value(path, key, value) for key, value in data.items()}


def _config_value(path: str, key: str, value):
    """A config-file value as its option's type; the JSON type must match.

    int options take only integers (not booleans), float options take
    integers or floats, str options take only strings; an option with
    choices takes only one of them.
    """
    kind = type(DEFAULTS[key])
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValueError(
            f"{path}: config key {key!r} must be {kind.__name__}, "
            f"got {type(value).__name__} {value!r}"
        )
    if key in CHOICES and value not in CHOICES[key]:
        raise ValueError(
            f"{path}: config key {key!r} must be one of {list(CHOICES[key])}, got {value!r}"
        )
    return kind(value)


def _resolve(args: argparse.Namespace) -> dict:
    """The stage's options: CLI flags over config-file values over defaults.

    The config file is loaded and checked whether or not the stage takes
    any option. Each value is checked against its RANGES entry.
    """
    from_file = _load_config_file(args.config)
    resolved = {}
    for key in STAGE_OPTIONS[args.command]:
        value = getattr(args, key)
        resolved[key] = value = from_file.get(key, DEFAULTS[key]) if value is None else value
        if key in RANGES:
            op, bound = RANGES[key]
            if not (math.isfinite(value) and (value > bound if op == ">" else value >= bound)):
                finite = "finite and " if isinstance(value, float) else ""
                raise ValueError(f"{_flag(key)}: must be {finite}{op} {bound}, got {value}")
    return resolved


def _config(cls, cfg: dict, fields: dict[str, tuple[str, float]]):
    """cls with each field set to cfg[option] / divisor, from fields' (option, divisor).

    Each field is first checked alone, beside cls's defaults, so a value
    that cls rejects is a ValueError naming the option that set it.
    """
    values = {field: cfg[option] / divisor for field, (option, divisor) in fields.items()}
    for field, (option, _) in fields.items():
        try:
            cls(**{field: values[field]})
        except ValueError as exc:
            raise ValueError(f"{_flag(option)}: {exc}") from None
    return cls(**values)


def _filter_config(cfg: dict) -> FilterConfig:
    return _config(FilterConfig, cfg, {
        "min_cutoff": ("min_cutoff", 1.0),
        "beta": ("filter_beta", 1.0),
        "derivative_cutoff": ("derivative_cutoff", 1.0),
    })


def _fixation_config(cfg: dict) -> FixationConfig:
    return _config(FixationConfig, cfg, {
        "vel_threshold": ("fix_threshold", 1.0),
        "min_duration_s": ("min_dur_ms", 1000.0),
        "pad_s": ("pad_ms", 1000.0),
        "merge_gap_s": ("merge_gap_ms", 1000.0),
    })


def _trace_pairs(in_dir: str) -> list[tuple[str, str]]:
    """(gaze_path, head_path) pairs, one per trial stem; either file may be absent."""
    stems = {
        path[: -len(".gaze.csv")]
        for kind in ("gaze", "head")
        for path in glob.glob(os.path.join(glob.escape(in_dir), f"*.{kind}.csv"))
    }
    if not stems:
        raise MissingInputError(f"no *.gaze.csv or *.head.csv files under {in_dir}")
    return sorted((stem + ".gaze.csv", stem + ".head.csv") for stem in stems)


def _provenance(args: argparse.Namespace, cfg: dict, paths=(), base: str | None = None) -> dict:
    """The stage's provenance record: its command and options, seed and inputs.

    Only synth takes a seed; every other stage records None. Each input is
    named by its path relative to base, by default the directory of
    paths[0], the stage's primary input (--in, or --fits for report).
    """
    if base is None and paths:
        base = os.path.dirname(os.path.abspath(paths[0]))
    return make_provenance(
        {"command": args.command, **cfg},
        cfg.get("seed"),
        {os.path.relpath(p, base): p for p in paths},
    )


def _check_trial(found: list[str], cfg: dict, use, configs):
    """Load, align and sanity-check one trial; hand it and configs to `use` if it passed.

    Returns (sanity report, use's result; None unless the trial passed). A
    trial that passed but that `use` cannot segment is reported failed, as
    too_few_fixations or too_few_samples. The trial's samples are dropped
    on return.
    """
    streams = [load_trace_csv(p) for p in found]
    first = streams[0]
    if len(streams) == 1:
        return missing_stream_report(first.participant_id, first.trial_id), None
    try:
        trace = align_head_to_gaze(*streams)
    except NoOverlapError:
        return unaligned_report(first.participant_id, first.trial_id, "no_overlap"), None
    report = sanity_check(trace, cfg["min_overlap_s"], cfg["max_gap_s"])
    if report.verdict != "pass":
        return report, None
    try:
        return report, use(trace, *configs)
    except TooFewFixationsError:
        return replace(report, verdict="fail", reason="too_few_fixations"), None
    except TooFewSamplesError:
        return replace(report, verdict="fail", reason="too_few_samples"), None


def _sane_traces(args: argparse.Namespace, cfg: dict, use):
    """The trace stages' frame: hand each passing trace of --in-dir to `use`.

    The filter and fixation configs are built once, before a trace is read.
    `use(trace, filter_cfg, fixation_cfg)` sees one trial at a time, and
    the trace is dropped once it has, so a stage holds one trial's samples
    at a time. Returns ([(participant_id, use's result)] for the kept
    trials and one sanity report per trial, each in trial order, and the
    stage's provenance, naming the trace files from --in-dir). A trial with
    only one of its two files is reported missing_stream, one whose streams
    share no time window no_overlap, and one that `use` cannot segment
    too_few_fixations or too_few_samples. With expected_trials > 0, a
    participant's trials are kept only when exactly that many trials were
    found and all of them passed.

    A file that does not load fails the stage at once; every other
    per-trial fault is a report. MissingInputError is raised when no trial
    is kept.
    """
    configs = _filter_config(cfg), _fixation_config(cfg)
    reports, paths, outcomes = [], [], []
    for pair in _trace_pairs(args.in_dir):
        found = [p for p in pair if os.path.exists(p)]
        report, outcome = _check_trial(found, cfg, use, configs)
        paths.extend(found)
        reports.append(report)
        if report.verdict == "pass":
            outcomes.append((report.participant_id, outcome))

    if cfg["expected_trials"] > 0:
        grouped: dict[str, list] = {}
        for report in reports:
            grouped.setdefault(report.participant_id, []).append(report)
        outcomes = [
            (pid, outcome) for pid, outcome in outcomes
            if participant_passes(grouped[pid], cfg["expected_trials"])
        ]
    if not outcomes:
        raise MissingInputError("no trials passed the sanity checks")
    return outcomes, reports, _provenance(args, cfg, paths, base=args.in_dir)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_preprocess(args: argparse.Namespace, cfg: dict) -> int:
    trials, reports, provenance = _sane_traces(args, cfg, preprocess_trial)
    signed = concat_shift_sets([shifts for _, shifts in trials])

    sanity_path = args.sanity_out or os.path.join(
        os.path.dirname(os.path.abspath(args.out)), "sanity.jsonl"
    )
    if args.symmetry_out:
        symmetry = {}
        for pid, sub in signed.by_participant().items():
            try:
                symmetry[pid] = asdict(symmetry_check(sub))
            except EyeheadError as exc:
                symmetry[pid] = {"error": type(exc).__name__, "message": str(exc)}
        write_json_object(args.symmetry_out, {"participants": symmetry}, provenance)

    clean = symmetrize_and_clean(signed, max_ecc=cfg["max_ecc_deg"])
    write_shifts_csv(args.out, clean, provenance)
    write_json_lines(sanity_path, [asdict(r) for r in reports], provenance)
    return 0


def cmd_fit(args: argparse.Namespace, cfg: dict) -> int:
    models = tuple(MODELS) if cfg["model"] == "all" else (cfg["model"],)

    shifts = read_shifts_csv(args.in_path)
    provenance = _provenance(args, cfg, [args.in_path])
    subs = shifts.by_participant()
    pfits = fit_participants([(sub.x, sub.y) for sub in subs.values()], models)
    rows = [
        {"participant_id": pid, **pfit.fits[model].to_file_dict()}
        for pid, pfit in zip(subs, pfits)
        for model in models
    ]
    write_json_array(args.out, rows, provenance)
    return 0


def _soft_hinge_curves(fit_rows: list[dict], grid=None):
    soft = [r for r in fit_rows if r["model"] == "soft-hinge"]
    if not soft:
        raise MissingInputError("no soft-hinge fits in the input")
    return sample_curves([r["params"] for r in soft], [r["participant_id"] for r in soft], grid)


def cmd_fpca(args: argparse.Namespace, cfg: dict) -> int:
    rows = read_fit_rows(args.in_path)
    curves = _soft_hinge_curves(rows)
    n_curves = len(curves.curve_ids)
    n_components = cfg["components"] or max(1, min(2, n_curves - 1))
    try:
        spectrum = fit_fpca(curves, n_components=n_components)
    except IndexOutOfRangeError as exc:  # only a --components out of range raises it
        raise IndexOutOfRangeError(f"--components: {exc}") from None
    provenance = _provenance(args, {**cfg, "n_components": n_components}, [args.in_path])
    write_json_object(args.out, spectrum.to_dict(), provenance)
    return 0


def cmd_project(args: argparse.Namespace, cfg: dict) -> int:
    spectrum = read_spectrum(args.model_path)
    rows = read_fit_rows(args.in_path)
    curves = _soft_hinge_curves(rows, grid=spectrum.grid)
    table = score_table(spectrum, curves)
    provenance = _provenance(args, cfg, [args.in_path, args.model_path])
    write_scores_csv(args.out, table, provenance)
    return 0


def cmd_report(args: argparse.Namespace, cfg: dict) -> int:
    fit_rows = read_fit_rows(args.fits)
    spectrum = read_spectrum(args.spectrum)
    scores = read_scores_csv(args.scores)
    provenance = _provenance(args, cfg, [args.fits, args.spectrum, args.scores])
    emit_report(fit_rows, spectrum, scores, args.out_dir, provenance)
    return 0


def cmd_sensitivity(args: argparse.Namespace, cfg: dict) -> int:
    try:
        thresholds = tuple(float(v) for v in cfg["thresholds"].split(","))
    except ValueError as exc:
        raise ValueError(f"--thresholds: {exc}") from None
    # the output is keyed by each threshold's %g text, so two alike would merge
    keys = [f"{thr:g}" for thr in thresholds]
    repeated = [key for i, key in enumerate(keys) if key in keys[:i]]
    if repeated:
        raise ValueError(
            f"--thresholds: threshold {repeated[0]} is repeated in {cfg['thresholds']!r}"
        )
    for thr in thresholds:  # each threshold's config, checked before a trace is read
        _config(FixationConfig, {"thresholds": thr}, {"vel_threshold": ("thresholds", 1.0)})
    trials, _, provenance = _sane_traces(
        args, cfg, lambda trace, *configs: threshold_shifts(trace, thresholds, *configs)
    )
    # each participant's trials, pooled in trial order per threshold
    pooled: dict[tuple[str, float], list] = {}
    for pid, by_threshold in trials:
        for thr, shifts in by_threshold.items():
            pooled.setdefault((pid, thr), []).append(shifts)

    result = threshold_sensitivity(
        {key: concat_shift_sets(sets) for key, sets in pooled.items()},
        thresholds=thresholds,
        base=cfg["fix_threshold"],
        max_ecc=cfg["max_ecc_deg"],
    )
    per_participant = {
        pid: {"error": type(r).__name__, "message": str(r)} if isinstance(r, EyeheadError)
        else {f"{thr:g}": v for thr, v in r.items()}
        for pid, r in result.items()
    }
    # failed participants are left out of the medians; none left gives null
    ok = [r for r in result.values() if not isinstance(r, EyeheadError)]
    medians = {
        f"{thr:g}": float(np.median([r[thr] for r in ok])) if ok else None
        for thr in thresholds
    }
    write_json_object(
        args.out,
        {
            "base_threshold": cfg["fix_threshold"],
            "thresholds": list(thresholds),
            "participants": per_participant,
            "median_r": medians,
        },
        provenance,
    )
    return 0


def cmd_synth(args: argparse.Namespace, cfg: dict) -> int:
    population = draw_population(cfg["participants"], seed=cfg["seed"])
    provenance = _provenance(args, cfg)

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
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("fit", help="fit candidate models per participant")
    p.add_argument("--in", dest="in_path", required=True, help="cleaned shift CSV")
    p.add_argument("--out", required=True, help="output fit JSON")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("fpca", help="build the population spectrum from fits")
    p.add_argument("--in", dest="in_path", required=True, help="fit JSON")
    p.add_argument("--out", required=True, help="output spectrum JSON")
    p.set_defaults(func=cmd_fpca)

    p = sub.add_parser("project", help="score fitted curves against a spectrum")
    p.add_argument("--model", dest="model_path", required=True, help="spectrum JSON")
    p.add_argument("--in", dest="in_path", required=True, help="fit JSON")
    p.add_argument("--out", required=True, help="output score CSV")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("report", help="emit the analysis report bundle")
    p.add_argument("--fits", required=True, help="fit JSON")
    p.add_argument("--spectrum", required=True, help="spectrum JSON")
    p.add_argument("--scores", required=True, help="score CSV")
    p.add_argument("--out-dir", required=True, help="report output directory")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("sensitivity", help="velocity-threshold robustness check")
    p.add_argument("--in-dir", required=True, help="directory of trace pairs")
    p.add_argument("--out", required=True, help="output JSON")
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("synth", help="generate ground-truth synthetic data")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    for command, p in sub.choices.items():
        for key in STAGE_OPTIONS[command]:
            default, help_text = OPTIONS[key]
            p.add_argument(_flag(key), dest=key, type=type(default),
                           choices=CHOICES.get(key), help=help_text)
        p.add_argument("--config", help="flat JSON file with default option values")
    return parser


def dispatch(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, _resolve(args))
    except (EyeheadError, OSError, ValueError, KeyError) as exc:
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
