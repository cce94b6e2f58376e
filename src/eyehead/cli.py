"""Command-line pipeline.

Subcommands mirror the analysis stages, one COMMANDS row each, from trace
CSVs through shifts, fits, spectrum and scores to the report bundle.

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
from collections import Counter
from dataclasses import asdict, replace

import numpy as np

from .errors import (
    EyeheadError,
    IndexOutOfRangeError,
    MissingInputError,
    NoOverlapError,
    TooFewFixationsError,
    TooFewSamplesError,
    TraceSchemaError,
)
from .events import FixationConfig, preprocess_trial, threshold_shifts
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
from .models import MODELS, X_MAX, params_to_dict
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
from .stats import symmetry_check, threshold_sensitivity
from .synth import SynthConfig, draw_population, synth_shifts, synth_trace

# Every option, one row each: key -> (built-in default, range, stages, help
# text). The default's type is the option's type, and its flag is the key
# with dashes (--fix-threshold). The range is (comparison, bound) and an
# optional inclusive upper bound, or None for a str option; a float option
# must also be finite, and each --thresholds value follows fix_threshold's
# range. A value out of range is a ValueError naming the option, in its own
# units, before the stage reads an input. The stages are the subcommands that
# take the option; each lists its flags in row order. One config file serves
# every stage, so a stage accepts (and checks) keys it does not use.
_TRACE = ("preprocess", "sensitivity")
OPTIONS = {
    "thresholds": ("10,15,20", None, ("sensitivity",), "comma-separated thresholds (deg/s)"),
    "fix_threshold": (15.0, (">", 0), _TRACE, "fixation velocity threshold (deg/s)"),
    "min_dur_ms": (60.0, (">=", 0), _TRACE, "minimum fixation duration (ms)"),
    "pad_ms": (10.0, (">=", 0), _TRACE, "padding applied around fixation bounds (ms)"),
    "merge_gap_ms": (20.0, (">=", 0), _TRACE,
                     "merge fixations separated by less than this gap (ms)"),
    "max_ecc_deg": (X_MAX, (">", 0, X_MAX), _TRACE,  # the models' domain ends at X_MAX
                    "drop shifts with eccentricity beyond this (deg)"),
    "min_cutoff": (1.0, (">", 0), _TRACE, "smoothing filter minimum cutoff (Hz)"),
    "filter_beta": (0.0, (">=", 0), _TRACE, "smoothing filter speed coefficient"),
    "derivative_cutoff": (1.0, (">", 0), _TRACE,
                          "filter derivative cutoff (Hz); acts only if filter_beta > 0"),
    "min_overlap_s": (25.0, (">=", 0), _TRACE,
                      "keep a trial only if gaze and head overlap longer than this (s)"),
    "max_gap_s": (0.5, (">", 0), _TRACE, "maximum sampling gap to keep a trial (s)"),
    "expected_trials": (0, (">=", 0), _TRACE,
                        "drop participants without this many passing trials"),
    "model": ("all", None, ("fit",), "model family to fit"),
    "components": (0, (">=", 0), ("fpca",), "components to keep (default: up to 2)"),
    "participants": (12, (">=", 1), ("synth",), "synthetic participants"),
    "trials": (2, (">=", 1), ("synth",), "trials per participant"),
    "shifts": (50, (">=", 1), ("synth",), "gaze shifts per trial"),
    "noise_sd": (2.0, (">=", 0), ("synth",), "vertical noise SD for the shift table (deg)"),
    "seed": (0, (">=", 0), ("synth",), "synthetic data seed"),
}
DEFAULTS = {key: default for key, (default, *_) in OPTIONS.items()}
CHOICES = {"model": (*MODELS, "all")}
# Every subcommand, one row each, in the parser's order: name -> (help text,
# its own flags as (flag, dest, required, help)). Its options follow, read
# off OPTIONS' stages column, then --config. The subcommand runs
# cmd_<name>, looked up by name when it runs, so this table sits with
# OPTIONS above the functions.
COMMANDS = {
    "preprocess": ("align traces and extract cleaned shifts", (
        ("--in-dir", "in_dir", True, "directory of *.gaze.csv/*.head.csv pairs"),
        ("--out", "out", True, "output shift CSV"),
        ("--sanity-out", "sanity_out", False,
         "sanity report JSONL (default: sanity.jsonl next to --out)"),
        ("--symmetry-out", "symmetry_out", False, "optional left/right symmetry JSON"),
    )),
    "fit": ("fit candidate models per participant", (
        ("--in", "in_path", True, "cleaned shift CSV"),
        ("--out", "out", True, "output fit JSON"),
    )),
    "fpca": ("build the population spectrum from fits", (
        ("--in", "in_path", True, "fit JSON"),
        ("--out", "out", True, "output spectrum JSON"),
    )),
    "project": ("score fitted curves against a spectrum", (
        ("--model", "model_path", True, "spectrum JSON"),
        ("--in", "in_path", True, "fit JSON"),
        ("--out", "out", True, "output score CSV"),
    )),
    "report": ("emit the analysis report bundle", (
        ("--fits", "fits", True, "fit JSON"),
        ("--spectrum", "spectrum", True, "spectrum JSON"),
        ("--scores", "scores", True, "score CSV"),
        ("--out-dir", "out_dir", True, "report output directory"),
    )),
    "sensitivity": ("velocity-threshold robustness check", (
        ("--in-dir", "in_dir", True, "directory of trace pairs"),
        ("--out", "out", True, "output JSON"),
    )),
    "synth": ("generate ground-truth synthetic data", (
        ("--out-dir", "out_dir", True, "output directory"),
    )),
}
STAGE_OPTIONS = {
    stage: tuple(key for key, (_, _, stages, _) in OPTIONS.items() if stage in stages)
    for stage in COMMANDS
}
# A trial's trace files, one per stream kind, gaze first, named by its stem
# (discovery, synth and scripts/adapt_dataset.py all use this rule).
TRACE_KINDS = ("gaze", "head")
TRACE_FILE = "{stem}.{kind}.csv"


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
    any option. Each value with a range is checked against it.
    """
    from_file = _load_config_file(args.config)
    resolved = {}
    for key in STAGE_OPTIONS[args.command]:
        value = getattr(args, key)
        resolved[key] = value = from_file.get(key, DEFAULTS[key]) if value is None else value
        if OPTIONS[key][1]:
            _check_range(key, value, _flag(key))
    return resolved


def _check_range(key: str, value, flag: str) -> None:
    """Raise a ValueError naming flag unless value lies in key's OPTIONS range.

    Only a float can be infinite or NaN; an int compares exactly at any size.
    """
    op, bound, *upper = OPTIONS[key][1]
    finite = "finite and " if isinstance(value, float) else ""
    if not ((not finite or math.isfinite(value))
            and (value > bound if op == ">" else value >= bound)
            and all(value <= top for top in upper)):
        below = "".join(f" and <= {top}" for top in upper)
        raise ValueError(f"{flag}: must be {finite}{op} {bound}{below}, got {value}")


def _filter_config(cfg: dict) -> FilterConfig:
    return FilterConfig(min_cutoff=cfg["min_cutoff"], beta=cfg["filter_beta"],
                        derivative_cutoff=cfg["derivative_cutoff"])


def _fixation_config(cfg: dict) -> FixationConfig:
    return FixationConfig(cfg["fix_threshold"], cfg["min_dur_ms"] / 1000.0,
                          cfg["pad_ms"] / 1000.0, cfg["merge_gap_ms"] / 1000.0)


def _trace_files(in_dir: str) -> list[list[str]]:
    """Each trial stem's trace files under in_dir, gaze first, in gaze file name order.

    A stem may lack one of its files.
    """
    stems: dict[str, list[str]] = {}
    for kind in TRACE_KINDS:
        suffix = TRACE_FILE.format(stem="", kind=kind)
        for path in glob.glob(os.path.join(glob.escape(in_dir), "*" + suffix)):
            stems.setdefault(path[: -len(suffix)], []).append(path)
    if not stems:
        raise MissingInputError(f"no *.gaze.csv or *.head.csv files under {in_dir}")
    return [stems[s] for s in sorted(stems, key=lambda s: TRACE_FILE.format(stem=s, kind="gaze"))]


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
    """Load, align and sanity-check one stem's files; hand the trial and configs to `use`.

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

    A file that does not load fails the stage at once, and so does a trial
    found under two stems (a TraceSchemaError naming a file of each); every
    other per-trial fault is a report. MissingInputError is raised when no
    trial is kept; it gives the trials found, each failure reason's count and
    the passing trials that expected_trials dropped.
    """
    configs = _filter_config(cfg), _fixation_config(cfg)
    reports, paths, outcomes = [], [], []
    first_file: dict[tuple[str, str], str] = {}  # each trial's first file seen
    for found in _trace_files(args.in_dir):
        report, outcome = _check_trial(found, cfg, use, configs)
        trial = report.participant_id, report.trial_id
        if trial in first_file:
            raise TraceSchemaError(
                f"trial {trial} is in two stems: {first_file[trial]} and {found[0]}"
            )
        first_file[trial] = found[0]
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
        failed = Counter(r.reason for r in reports if r.verdict != "pass")
        passed = len(reports) - sum(failed.values())
        why = []
        if failed:
            why.append("failed: " + ", ".join(f"{k} {n}" for k, n in sorted(failed.items())))
        if passed:  # only expected_trials drops a trial that passed
            why.append(f"--expected-trials {cfg['expected_trials']} dropped {passed} that passed")
        raise MissingInputError(f"no trials kept of {len(reports)} found ({'; '.join(why)})")
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
    for thr in thresholds:  # each checked before a trace is read
        _check_range("fix_threshold", thr, "--thresholds")
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
        shift_cfg = SynthConfig(params, n_shifts=cfg["trials"] * cfg["shifts"],
                                noise_sd=cfg["noise_sd"], seed=cfg["seed"], participant_id=pid)
        shifts, shift_truth = synth_shifts(shift_cfg)
        shift_sets.append(shifts)
        truth["shift_truth"][pid] = shift_truth
        truth["trials"][pid] = {}
        for j in range(cfg["trials"]):
            trial_id = f"t{j + 1:02d}"
            trace_cfg = replace(shift_cfg, n_shifts=cfg["shifts"], noise_sd=0.0,
                                trial_id=trial_id, wrap_output=True)
            *streams, trace_truth = synth_trace(trace_cfg)
            stem = os.path.join(traces_dir, f"{pid}_{trial_id}")
            for kind, stream in zip(TRACE_KINDS, streams):
                write_trace_csv(TRACE_FILE.format(stem=stem, kind=kind), stream)
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
    for command, (help_text, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag, dest, required, flag_help in flags:
            p.add_argument(flag, dest=dest, required=required, help=flag_help)
        for key in STAGE_OPTIONS[command]:
            default, _, _, option_help = OPTIONS[key]
            p.add_argument(_flag(key), dest=key, type=type(default),
                           choices=CHOICES.get(key), help=option_help)
        p.add_argument("--config", help="flat JSON file with default option values")
    return parser


def dispatch(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()["cmd_" + args.command](args, _resolve(args))
    except (EyeheadError, OSError, ValueError) as exc:
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
