import argparse
import inspect
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eyehead import SoftHingeParams, SynthConfig, read_shifts_csv, synth_trace
from eyehead import cli, ingest
from eyehead.cli import (
    DEFAULTS,
    STAGE_OPTIONS,
    _filter_config,
    _fixation_config,
    _resolve,
    build_parser,
    dispatch,
)
from eyehead.events import FixationConfig, threshold_shifts
from eyehead.ingest import (
    SCORE_COLUMNS,
    SHIFT_COLUMNS,
    TRACE_COLUMNS,
    FilterConfig,
    sanity_check,
    symmetrize_and_clean,
)
from eyehead.models import MODELS
from eyehead import report
from eyehead.report import read_json_array


def run(argv):
    return dispatch([str(a) for a in argv])


def synth_dir(tmp_path, participants=4, trials=2, shifts=12, seed=0):
    out = tmp_path / "raw"
    code = run([
        "synth", "--out-dir", out, "--participants", participants,
        "--trials", trials, "--shifts", shifts, "--seed", seed,
    ])
    assert code == 0
    return out / "traces"


def never_settle(gaze_path):
    """Rewrite a gaze file so the gaze sweeps at 40 deg/s and never fixates."""
    stream = ingest.load_trace_csv(str(gaze_path))
    stream.yaw = 40.0 * (stream.t - stream.t[0])
    ingest.write_trace_csv(str(gaze_path), stream)


def preprocess(tmp_path, raw, name="shifts.csv", extra=()):
    # synthetic trials are short, so lower the overlap sanity bar
    out = tmp_path / name
    code = run([
        "preprocess", "--in-dir", raw, "--out", out,
        "--min-overlap-s", 2.0, *extra,
    ])
    assert code == 0
    return out


class TestPipeline:
    def test_full_run_produces_every_artifact(self, tmp_path):
        raw = synth_dir(tmp_path)
        shifts = preprocess(tmp_path, raw)
        assert (tmp_path / "sanity.jsonl").exists()

        fits = tmp_path / "fits.json"
        assert run(["fit", "--in", shifts, "--out", fits]) == 0
        fit_rows = json.loads(fits.read_text())
        assert "provenance" in fit_rows[0]
        models = {r["model"] for r in fit_rows[1:]}
        assert models == {"linear", "hinge", "soft-hinge"}

        spectrum = tmp_path / "spectrum.json"
        assert run(["fpca", "--in", fits, "--out", spectrum]) == 0
        spec = json.loads(spectrum.read_text())
        assert set(spec) >= {"grid", "mean_curve", "components", "provenance"}

        scores = tmp_path / "scores.csv"
        assert run(["project", "--model", spectrum, "--in", fits, "--out", scores]) == 0
        lines = scores.read_text().splitlines()
        assert lines[0].startswith("# provenance:")
        assert lines[1].split(",")[0] == "curve_id"
        assert len(lines) == 2 + 4  # header rows + one per participant

        report_dir = tmp_path / "report"
        assert run([
            "report", "--fits", fits, "--spectrum", spectrum,
            "--scores", scores, "--out-dir", report_dir,
        ]) == 0
        for rel in ("summary.json", "summary.md", "scores.csv",
                    "pc1_density.csv", "modes/mean.csv"):
            assert (report_dir / rel).exists(), rel
        summary = json.loads((report_dir / "summary.json").read_text())
        assert summary["n_participants"] == 4
        assert set(summary["model_comparison"]) == {"linear", "hinge", "soft-hinge"}

    def test_sensitivity_command(self, tmp_path):
        raw = synth_dir(tmp_path, participants=2, trials=1, shifts=30)
        out = tmp_path / "sens.json"
        code = run([
            "sensitivity", "--in-dir", raw, "--out", out,
            "--thresholds", "15,20", "--min-overlap-s", "2.0",
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        med = payload["median_r"]
        assert set(med) == {"15", "20"}
        assert med["15"] == pytest.approx(1.0, abs=1e-9)

    def test_sensitivity_cleans_at_max_ecc_deg(self, tmp_path):
        # at 15 deg/s this cohort has no shift under 1.6 deg, so a 0.5 deg cut leaves none
        raw = synth_dir(tmp_path, participants=2, trials=1, shifts=30)
        out = tmp_path / "sens.json"
        assert run(["sensitivity", "--in-dir", raw, "--out", out, "--thresholds", "15,20",
                    "--min-overlap-s", "2.0", "--max-ecc-deg", "0.5"]) == 0
        payload = json.loads(out.read_text())
        failure = {"error": "EmptyDataError", "message": "no shifts at a threshold of 15 deg/s"}
        assert payload["participants"] == {"synth001": failure, "synth002": failure}
        assert payload["median_r"] == {"15": None, "20": None}

    @pytest.mark.parametrize("thresholds", ["10,15,15", "15,15.0000001"])
    def test_repeated_threshold_rejected(self, tmp_path, capsys, thresholds):
        # the output is keyed by each threshold's %g text: a repeat would merge keys
        raw = synth_dir(tmp_path, participants=2, trials=1, shifts=30)
        out = tmp_path / "sens.json"
        assert run(["sensitivity", "--in-dir", raw, "--out", out,
                    "--thresholds", thresholds, "--min-overlap-s", "2.0"]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert (payload["stage"], payload["error"]) == ("sensitivity", "ValueError")
        assert "threshold 15 is repeated" in payload["message"]
        assert not out.exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        raw = synth_dir(tmp_path, participants=2, trials=1, shifts=10)
        shifts = preprocess(tmp_path, raw)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["fit", "--in", shifts, "--out", a]) == 0
        assert run(["fit", "--in", shifts, "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_symmetry_out(self, tmp_path):
        raw = synth_dir(tmp_path, participants=2, trials=1, shifts=40)
        sym = tmp_path / "symmetry.json"
        preprocess(tmp_path, raw, extra=["--symmetry-out", sym])
        payload = json.loads(sym.read_text())
        per = payload["participants"]
        assert len(per) == 2
        for rec in per.values():
            assert "mirror_correlation" in rec or "error" in rec


class TestErrorHandling:
    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["fit"])  # missing required flags
        assert exc.value.code == 2

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["frobnicate"])
        assert exc.value.code == 2

    def test_stage_error_reports_json(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = run(["preprocess", "--in-dir", empty, "--out", tmp_path / "x.csv"])
        assert code == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["stage"] == "preprocess"
        assert payload["error"] == "MissingInputError"
        assert payload["message"]

    def test_fpca_without_soft_hinge_rows(self, tmp_path, capsys):
        fits = tmp_path / "fits.json"
        fits.write_text(json.dumps([
            {"provenance": {}},
            {"participant_id": "p01", "model": "linear", "params":
             {"model": "linear", "alpha": 20.0, "gamma": 0.5},
             "sse": 1.0, "r2": 0.9, "rmse": 0.1, "aic": 3.0,
             "n_points": 10, "converged": True},
        ]))
        code = run(["fpca", "--in", fits, "--out", tmp_path / "s.json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "MissingInputError"

    def test_scores_missing_column(self, tmp_path, capsys):
        raw = synth_dir(tmp_path, participants=3, trials=1, shifts=10)
        shifts = preprocess(tmp_path, raw)
        fits, spectrum = tmp_path / "fits.json", tmp_path / "spectrum.json"
        assert run(["fit", "--in", shifts, "--out", fits]) == 0
        assert run(["fpca", "--in", fits, "--out", spectrum]) == 0
        scores = tmp_path / "scores.csv"
        scores.write_text("# provenance: {}\ncurve_id,pc1,percentile_pc1\np01,0.5,50\n")
        code = run([
            "report", "--fits", fits, "--spectrum", spectrum,
            "--scores", scores, "--out-dir", tmp_path / "report",
        ])
        assert code == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["stage"] == "report"
        assert payload["error"] == "MissingColumnError"
        assert "pc2" in payload["message"]

    @pytest.mark.parametrize("stage", ["preprocess", "sensitivity"])
    def test_a_load_error_comes_before_an_earlier_trial_that_never_settles(
            self, tmp_path, capsys, stage):
        raw = synth_dir(tmp_path, participants=3, trials=1, shifts=30)
        never_settle(raw / "synth001_t01.gaze.csv")
        gaze = raw / "synth003_t01.gaze.csv"
        lines = gaze.read_text().splitlines(keepends=True)
        lines[5] = "synth003,t01,abc,0\n"
        gaze.write_text("".join(lines))
        out = tmp_path / ("shifts.csv" if stage == "preprocess" else "sens.json")
        assert run([stage, "--in-dir", raw, "--out", out, "--min-overlap-s", 2.0]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert (payload["stage"], payload["error"]) == (stage, "TraceSchemaError")
        assert not out.exists()

    def test_a_stage_that_raises_key_error_is_not_made_a_one_line_error(self, monkeypatch,
                                                                          capsys):
        # the readers check their input: a KeyError out of a stage is a bug
        def broken(args, cfg):
            raise KeyError("pc1")

        monkeypatch.setattr(cli, "cmd_fit", broken)
        with pytest.raises(KeyError, match="pc1"):
            run(["fit", "--in", "shifts.csv", "--out", "fits.json"])
        assert capsys.readouterr().err == ""

    def test_bad_model_name(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([
                "fit", "--in", "x.csv", "--out", "y.json", "--model", "cubic",
            ])
        assert exc.value.code == 2


HUGE = 10 ** 400  # an int past float range: math.isfinite(HUGE) overflows


def run_process(*argv, cwd=None):
    """`python -m eyehead.cli argv` in a child process, on the package under test."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-m", "eyehead.cli", *map(str, argv)],
                          capture_output=True, text=True, env=env, cwd=cwd, timeout=120)


class TestProcessExitCodes:
    """main() exits 0 on success, 2 on a usage error, 1 on a stage error."""

    def test_a_stage_that_succeeds_exits_0_and_writes_no_stderr(self, tmp_path):
        proc = run_process("synth", "--out-dir", tmp_path / "raw",
                           "--participants", 1, "--trials", 1, "--shifts", 3)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert (tmp_path / "raw" / "shifts.csv").is_file()

    def test_an_unknown_flag_exits_2(self, tmp_path):
        proc = run_process("fit", "--in", tmp_path / "s.csv", "--out", tmp_path / "f.json",
                           "--frobnicate")
        assert proc.returncode == 2
        assert "--frobnicate" in proc.stderr

    @pytest.mark.parametrize("argv, error, files", [
        (["fit", "--in", "missing.csv", "--out", "fits.json"], "FileNotFoundError", {}),
        # an int past float range once ended in an OverflowError traceback
        (["synth", "--out-dir", "raw", "--seed", -HUGE], "ValueError", {}),
        # and a header field past csv's size limit in a _csv.Error one
        (["fit", "--in", "wide.csv", "--out", "fits.json"], "TraceSchemaError",
         {"wide.csv": "participant_id,trial_id,x_deg,y_deg," + "x" * 200_000 + "\n"}),
    ], ids=["missing-input", "int-past-float-range", "header-past-csvs-field-limit"])
    def test_a_stage_error_exits_1_with_one_json_line(self, tmp_path, argv, error, files):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        proc = run_process(*argv, cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n"), proc.stderr
        payload = json.loads(proc.stderr)
        assert set(payload) == {"stage", "error", "message"}
        assert (payload["stage"], payload["error"]) == (argv[0], error)
        assert payload["message"]


    def test_a_dangling_gaze_link_exits_1_with_one_json_line(self, tmp_path):
        # the glob lists the link, and the file it names does not load
        raw = synth_dir(tmp_path, participants=1, trials=1, shifts=30)
        (raw / "ghost_t01.gaze.csv").symlink_to(tmp_path / "nowhere.csv")
        proc = run_process("preprocess", "--in-dir", raw, "--out", tmp_path / "shifts.csv",
                           "--min-overlap-s", 2.0)
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n"), proc.stderr
        payload = json.loads(proc.stderr)
        assert (payload["stage"], payload["error"]) == ("preprocess", "FileNotFoundError")


def one_line_error(capsys):
    """The stage error payload, checked to be one JSON line of {stage, error, message}."""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n"), err
    payload = json.loads(err)
    assert set(payload) == {"stage", "error", "message"}
    return payload


class TestOptionRanges:
    """A numeric option out of range is a stage error that names it, before any input is read."""

    @pytest.mark.parametrize("stage, option, value", [
        ("preprocess", "fix_threshold", "-1"),
        ("preprocess", "fix_threshold", "nan"),
        ("preprocess", "min_dur_ms", "-5"),
        ("preprocess", "pad_ms", "inf"),
        ("preprocess", "merge_gap_ms", "-20"),
        ("preprocess", "min_cutoff", "0"),
        ("preprocess", "filter_beta", "-1"),
        ("preprocess", "derivative_cutoff", "0"),
        ("sensitivity", "thresholds", "10,nan,20"),
        ("sensitivity", "thresholds", "10,-5"),
        ("sensitivity", "fix_threshold", "0"),
        ("sensitivity", "min_dur_ms", "-5"),
        ("sensitivity", "derivative_cutoff", "-1"),
        # an infinite speed coefficient makes every smoothing factor NaN
        ("preprocess", "filter_beta", "inf"),
        # every float option must be finite; 1e308 turns smoothing off
        ("sensitivity", "min_cutoff", "inf"),
        ("preprocess", "derivative_cutoff", "inf"),
        ("preprocess", "max_ecc_deg", "nan"),
        ("preprocess", "max_ecc_deg", "0"),
        ("preprocess", "max_ecc_deg", "80"),  # past the models' 0-50 deg domain
        ("preprocess", "max_ecc_deg", "50.5"),
        ("preprocess", "max_gap_s", "nan"),
        ("preprocess", "min_overlap_s", "nan"),
        ("preprocess", "min_overlap_s", "-1"),
        ("preprocess", "expected_trials", "-2"),
        ("sensitivity", "max_ecc_deg", "nan"),
        ("sensitivity", "max_ecc_deg", "80"),
        ("sensitivity", "max_gap_s", "inf"),
        ("sensitivity", "thresholds", "10,abc"),
        ("fpca", "components", "-1"),
        ("synth", "participants", "0"),
        ("synth", "trials", "0"),
        ("synth", "shifts", "0"),
        ("synth", "noise_sd", "nan"),
        ("synth", "seed", "-1"),
        pytest.param("synth", "seed", str(-HUGE), id="synth-seed-past-float-range"),
    ])
    def test_an_option_out_of_range_is_named(self, tmp_path, capsys, monkeypatch,
                                             stage, option, value):
        raw = synth_dir(tmp_path, participants=2, trials=1, shifts=10)
        loaded = []
        monkeypatch.setattr(cli, "load_trace_csv", lambda p: loaded.append(p))
        flag = "--" + option.replace("_", "-")
        out = tmp_path / "out"
        argv = {
            "preprocess": ["preprocess", "--in-dir", raw, "--out", out],
            "sensitivity": ["sensitivity", "--in-dir", raw, "--out", out],
            "fpca": ["fpca", "--in", tmp_path / "fits.json", "--out", out],
            "synth": ["synth", "--out-dir", out],
        }[stage]
        assert run([*argv, f"{flag}={value}"]) == 1
        payload = one_line_error(capsys)
        assert (payload["stage"], payload["error"]) == (stage, "ValueError")
        assert payload["message"].startswith(f"{flag}: ")
        assert loaded == [] and not out.exists()

    def test_a_millisecond_option_is_named_in_milliseconds(self, tmp_path, capsys):
        out = tmp_path / "shifts.csv"
        assert run(["preprocess", "--in-dir", tmp_path, "--out", out, "--min-dur-ms", -5]) == 1
        assert one_line_error(capsys)["message"] == "--min-dur-ms: must be finite and >= 0, got -5.0"

    @pytest.mark.parametrize("stage", ["preprocess", "sensitivity"])
    def test_a_config_value_out_of_range_is_named(self, tmp_path, capsys, monkeypatch, stage):
        raw = synth_dir(tmp_path, participants=2, trials=1, shifts=10)
        loaded = []
        monkeypatch.setattr(cli, "load_trace_csv", lambda p: loaded.append(p))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_ecc_deg": 80}))
        out = tmp_path / "out"
        assert run([stage, "--in-dir", raw, "--out", out, "--config", cfg]) == 1
        payload = one_line_error(capsys)
        assert (payload["stage"], payload["error"]) == (stage, "ValueError")
        assert payload["message"] == "--max-ecc-deg: must be finite and > 0 and <= 50.0, got 80.0"
        assert loaded == [] and not out.exists()

    def test_components_beyond_the_curves_is_named(self, tmp_path, capsys):
        raw = synth_dir(tmp_path, participants=4, trials=1, shifts=40, seed=3)
        shifts = preprocess(tmp_path, raw, extra=("--min-overlap-s", 5.0))
        fits = tmp_path / "fits.json"
        assert run(["fit", "--in", shifts, "--out", fits]) == 0
        out = tmp_path / "spectrum.json"
        assert run(["fpca", "--in", fits, "--out", out, "--components", 30]) == 1
        payload = one_line_error(capsys)
        assert (payload["stage"], payload["error"]) == ("fpca", "IndexOutOfRangeError")
        assert payload["message"] == (
            "--components: n_components must be in [1, 3] for 4 curves, got 30"
        )
        assert not out.exists()

    @pytest.mark.parametrize("stage", sorted(STAGE_OPTIONS))
    def test_every_default_is_in_range(self, stage):
        args = argparse.Namespace(command=stage, config=None,
                                  **dict.fromkeys(STAGE_OPTIONS[stage]))
        assert _resolve(args) == {key: DEFAULTS[key] for key in STAGE_OPTIONS[stage]}


class TestIntegersPastFloatRange:
    """An int option compares exactly at any size; one past float range is no traceback."""

    def test_a_huge_seed_seeds_synth(self, tmp_path):
        out = tmp_path / "raw"
        assert run(["synth", "--out-dir", out, "--seed", HUGE,
                    "--participants", 1, "--trials", 1, "--shifts", 3]) == 0
        assert json.loads((out / "truth.json").read_text())["provenance"]["seed"] == HUGE

    def test_a_huge_negative_config_seed_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -HUGE}))
        assert run(["synth", "--out-dir", tmp_path / "raw", "--config", cfg]) == 1
        payload = one_line_error(capsys)
        assert (payload["stage"], payload["error"]) == ("synth", "ValueError")
        assert payload["message"] == f"--seed: must be >= 0, got {-HUGE}"
        assert not (tmp_path / "raw").exists()

    def test_a_config_int_past_pythons_digit_limit_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "big.json"
        cfg.write_text('{"seed": ' + "1" * 5000 + "}")
        assert run(["synth", "--out-dir", tmp_path / "raw", "--config", cfg]) == 1
        payload = one_line_error(capsys)
        assert (payload["stage"], payload["error"]) == ("synth", "ValueError")
        assert payload["message"].startswith(
            f"{cfg}: config file is not valid JSON: Exceeds the limit (4300 digits)")
        assert not (tmp_path / "raw").exists()

    def test_huge_components_are_named(self, tmp_path, capsys):
        raw = synth_dir(tmp_path, participants=4, trials=1, shifts=40, seed=3)
        shifts = preprocess(tmp_path, raw, extra=("--min-overlap-s", 5.0))
        fits = tmp_path / "fits.json"
        assert run(["fit", "--in", shifts, "--out", fits]) == 0
        out = tmp_path / "spectrum.json"
        assert run(["fpca", "--in", fits, "--out", out, "--components", HUGE]) == 1
        payload = one_line_error(capsys)
        assert (payload["stage"], payload["error"]) == ("fpca", "IndexOutOfRangeError")
        assert payload["message"] == (
            f"--components: n_components must be in [1, 3] for 4 curves, got {HUGE}"
        )
        assert not out.exists()

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_huge_expected_trials_keep_no_trial(self, tmp_path, capsys, how):
        raw = synth_dir(tmp_path, participants=2, trials=1, shifts=30, seed=3)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"expected_trials": HUGE}))
        extra = ["--expected-trials", HUGE] if how == "flag" else ["--config", cfg]
        out = tmp_path / "shifts.csv"
        assert run(["preprocess", "--in-dir", raw, "--out", out,
                    "--min-overlap-s", 5, *extra]) == 1
        payload = one_line_error(capsys)
        assert (payload["stage"], payload["error"]) == ("preprocess", "MissingInputError")
        assert payload["message"] == (
            f"no trials kept of 2 found (--expected-trials {HUGE} dropped 2 that passed)"
        )
        assert not out.exists()


def set_cell(path, row, column, value):
    """Rewrite one cell of a CSV table of plain fields: `row` counts data rows from 1."""
    lines = path.read_text().splitlines(keepends=True)
    top = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    fields = lines[top + row].rstrip("\r\n").split(",")
    fields[lines[top].rstrip("\r\n").split(",").index(column)] = value
    lines[top + row] = ",".join(fields) + "\r\n"
    path.write_text("".join(lines), newline="")


class TestNonFiniteTableValues:
    """A non-finite number, a percentile outside [0, 100] or a shift outside the models'
    domain in a CSV input is a stage error naming its file, data row and column; a NUL
    byte is one naming its file and offset."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("inputs")
        raw = synth_dir(tmp, participants=3, trials=1, shifts=10)
        shifts = preprocess(tmp, raw)
        assert run(["fit", "--in", shifts, "--out", tmp / "fits.json"]) == 0
        assert run(["fpca", "--in", tmp / "fits.json", "--out", tmp / "spectrum.json"]) == 0
        assert run(["project", "--model", tmp / "spectrum.json", "--in", tmp / "fits.json",
                    "--out", tmp / "scores.csv"]) == 0
        return tmp

    @staticmethod
    def stage_argv(stage, d, out):
        """The argv of `stage` on the inputs copied to d, writing to out."""
        traces = d / "raw" / "traces"
        return {
            "fit": ["fit", "--in", d / "shifts.csv", "--out", out],
            "report": ["report", "--fits", d / "fits.json", "--spectrum", d / "spectrum.json",
                       "--scores", d / "scores.csv", "--out-dir", out],
            "preprocess": ["preprocess", "--in-dir", traces, "--out", out, "--min-overlap-s", 2.0],
            "sensitivity": ["sensitivity", "--in-dir", traces, "--out", out,
                            "--min-overlap-s", 2.0],
        }[stage]

    @pytest.mark.parametrize("stage, name, column, value", [
        ("fit", "shifts.csv", "y_deg", "nan"),
        ("fit", "shifts.csv", "x_deg", "inf"),
        ("report", "scores.csv", "pc1", "nan"),
        ("report", "scores.csv", "percentile_pc1", "-inf"),
        ("preprocess", "raw/traces/synth002_t01.gaze.csv", "yaw_deg", "nan"),
        ("sensitivity", "raw/traces/synth001_t01.head.csv", "timestamp_s", "inf"),
    ])
    def test_the_value_is_named(self, inputs, tmp_path, capsys, stage, name, column, value):
        shutil.copytree(inputs, tmp_path / "in")
        d = tmp_path / "in"
        set_cell(d / name, 3, column, value)
        assert run(self.stage_argv(stage, d, tmp_path / "out")) == 1
        payload = one_line_error(capsys)
        assert (payload["stage"], payload["error"]) == (stage, "TraceSchemaError")
        assert payload["message"] == (
            f"{d / name}: non-finite value {value} in data row 3, column {column}"
        )
        assert not (tmp_path / "out").exists()

    # no writer writes a NUL, in an id column or anywhere else
    @pytest.mark.parametrize("stage, name, column", [
        ("fit", "shifts.csv", "participant_id"),
        ("report", "scores.csv", "curve_id"),
    ])
    def test_a_nul_in_an_id_is_named_by_its_offset(self, inputs, tmp_path, capsys, stage, name,
                                                   column):
        shutil.copytree(inputs, tmp_path / "in")
        d = tmp_path / "in"
        set_cell(d / name, 2, column, "p\0")
        assert run(self.stage_argv(stage, d, tmp_path / "out")) == 1
        payload = one_line_error(capsys)
        assert (payload["stage"], payload["error"]) == (stage, "TraceSchemaError")
        at = (d / name).read_bytes().index(b"\0")
        assert payload["message"] == f"{d / name}: byte 0x00 at offset {at} is a NUL character"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["250", "-0.5"])
    def test_a_percentile_outside_0_100_is_named(self, inputs, tmp_path, capsys, value):
        shutil.copytree(inputs, tmp_path / "in")
        scores = tmp_path / "in" / "scores.csv"
        set_cell(scores, 2, "percentile_pc1", value)
        d = tmp_path / "in"
        assert run(["report", "--fits", d / "fits.json", "--spectrum", d / "spectrum.json",
                    "--scores", scores, "--out-dir", tmp_path / "out"]) == 1
        payload = one_line_error(capsys)
        assert (payload["stage"], payload["error"]) == ("report", "TraceSchemaError")
        assert payload["message"] == (
            f"{scores}: value {float(value)} outside [0, 100] in data row 2, "
            "column percentile_pc1"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("column, value, bound", [
        ("x_deg", "76.7247417", "[0, 50]"),
        ("x_deg", "-1", "[0, 50]"),
        ("y_deg", "-0.5", "[0, x_deg]"),
        ("y_deg", "60", "[0, x_deg]"),
    ])
    def test_a_shift_outside_the_model_domain_is_named(self, inputs, tmp_path, capsys, column,
                                                       value, bound):
        shutil.copytree(inputs, tmp_path / "in")
        shifts = tmp_path / "in" / "shifts.csv"
        set_cell(shifts, 2, column, value)
        assert run(["fit", "--in", shifts, "--out", tmp_path / "out"]) == 1
        payload = one_line_error(capsys)
        assert (payload["stage"], payload["error"]) == ("fit", "TraceSchemaError")
        assert payload["message"] == (
            f"{shifts}: value {float(value)} outside {bound} in data row 2, column {column}"
        )
        assert not (tmp_path / "out").exists()


class TestMalformedJsonInputs:
    """A JSON input of the wrong shape is a one-line stage error, not a traceback."""

    @pytest.fixture
    def inputs(self, tmp_path):
        raw = synth_dir(tmp_path, participants=3, trials=1, shifts=10)
        shifts = preprocess(tmp_path, raw)
        fits, spectrum = tmp_path / "fits.json", tmp_path / "spectrum.json"
        assert run(["fit", "--in", shifts, "--out", fits]) == 0
        assert run(["fpca", "--in", fits, "--out", spectrum]) == 0
        assert run(["project", "--model", spectrum, "--in", fits,
                    "--out", tmp_path / "scores.csv"]) == 0
        return tmp_path

    def argv(self, d, stage, fits, spectrum):
        return {
            "fpca": ["fpca", "--in", fits, "--out", d / "out.json"],
            "project": ["project", "--model", spectrum, "--in", fits, "--out", d / "out.csv"],
            "report": ["report", "--fits", fits, "--spectrum", spectrum,
                       "--scores", d / "scores.csv", "--out-dir", d / "report"],
        }[stage]

    @pytest.mark.parametrize("stage", ["project", "report"])
    def test_an_array_given_as_the_spectrum(self, inputs, capsys, stage):
        fits = inputs / "fits.json"
        assert run(self.argv(inputs, stage, fits, fits)) == 1
        payload = one_line_error(capsys)
        assert (payload["stage"], payload["error"]) == (stage, "MissingInputError")
        assert "expected a JSON object" in payload["message"]

    @pytest.mark.parametrize("stage", ["fpca", "project", "report"])
    @pytest.mark.parametrize("item", ["x", 3, None, ["p01"]])
    def test_a_fit_row_that_is_not_an_object(self, inputs, capsys, stage, item):
        fits = inputs / "fits.json"
        fits.write_text(json.dumps(json.loads(fits.read_text()) + [item]))
        assert run(self.argv(inputs, stage, fits, inputs / "spectrum.json")) == 1
        payload = one_line_error(capsys)
        assert (payload["stage"], payload["error"]) == (stage, "MissingInputError")
        assert "expected a JSON array of objects" in payload["message"]

    @pytest.mark.parametrize("stage", ["fpca", "project"])
    @pytest.mark.parametrize("value", [None, "steep", [1.0]])
    def test_a_soft_hinge_parameter_that_is_not_a_number(self, inputs, capsys, stage, value):
        fits = inputs / "fits.json"
        rows = json.loads(fits.read_text())
        row = next(i for i, r in enumerate(rows) if r.get("model") == "soft-hinge")
        rows[row]["params"]["beta"] = value  # _strict writes a non-finite beta as null
        fits.write_text(json.dumps(rows))
        assert run(self.argv(inputs, stage, fits, inputs / "spectrum.json")) == 1
        payload = one_line_error(capsys)
        assert (payload["stage"], payload["error"]) == (stage, "MissingInputError")
        assert payload["message"].startswith(f"{fits}: fit row {row}: 'params': ")
        assert "soft-hinge parameter 'beta' is not a number" in payload["message"]

    @pytest.mark.parametrize("stage", ["fpca", "project"])
    def test_a_missing_soft_hinge_parameter(self, inputs, capsys, stage):
        fits = inputs / "fits.json"
        rows = json.loads(fits.read_text())
        row = next(i for i, r in enumerate(rows) if r.get("model") == "soft-hinge")
        del rows[row]["params"]["s"]
        fits.write_text(json.dumps(rows))
        assert run(self.argv(inputs, stage, fits, inputs / "spectrum.json")) == 1
        payload = one_line_error(capsys)
        assert (payload["stage"], payload["error"]) == (stage, "MissingInputError")
        assert payload["message"] == (
            f"{fits}: fit row {row}: 'params': soft-hinge parameter 's' is missing"
        )

    # every row's params are decoded on read, so a stage fails on a model it does not use
    @pytest.mark.parametrize("stage", ["fpca", "project", "report"])
    def test_a_linear_parameter_that_is_not_a_number(self, inputs, capsys, stage):
        fits = inputs / "fits.json"
        rows = json.loads(fits.read_text())
        row = next(i for i, r in enumerate(rows) if r.get("model") == "linear")
        rows[row]["params"] = {"model": "linear", "alpha": "x"}
        fits.write_text(json.dumps(rows))
        assert run(self.argv(inputs, stage, fits, inputs / "spectrum.json")) == 1
        payload = one_line_error(capsys)
        assert (payload["stage"], payload["error"]) == (stage, "MissingInputError")
        assert payload["message"] == (
            f"{fits}: fit row {row}: 'params': linear parameter 'alpha' is not a number: 'x'"
        )

    # a row holding the same participant's params of another model, which
    # would otherwise build a curve (soft hinge) or compare fits (report) from them
    @pytest.mark.parametrize("stage", ["fpca", "project", "report"])
    @pytest.mark.parametrize("model", list(MODELS))
    def test_params_of_another_model(self, inputs, capsys, stage, model):
        fits = inputs / "fits.json"
        rows = json.loads(fits.read_text())
        row = next(i for i, r in enumerate(rows) if r.get("model") == model)
        pid = rows[row]["participant_id"]
        other = next(r for r in rows[1:] if r["participant_id"] == pid and r["model"] != model)
        rows[row]["params"] = other["params"]
        fits.write_text(json.dumps(rows))
        assert run(self.argv(inputs, stage, fits, inputs / "spectrum.json")) == 1
        payload = one_line_error(capsys)
        assert (payload["stage"], payload["error"]) == (stage, "MissingInputError")
        assert payload["message"] == (
            f"{fits}: fit row {row}: 'params' must be tagged {model!r}, "
            f"got {other['model']!r}"
        )

    # every fit row is checked on read, whatever its model and whether or not
    # the stage reads the field
    @pytest.mark.parametrize("stage", ["fpca", "project", "report"])
    @pytest.mark.parametrize("key, value", [
        ("participant_id", "missing"),
        ("participant_id", 5),
        ("participant_id", None),
        ("model", "missing"),
        ("model", "quadratic"),
        ("model", None),
        ("params", "missing"),
        ("params", [0.5, 10.0, 2.0]),
        ("r2", "missing"),
        ("rmse", "high"),
        ("aic", True),
        ("aic", [1.0]),
        ("sse", "missing"),
        ("sse", -1.0),
        ("sse", None),
        ("n_points", 2.5),
        ("n_points", True),
        ("n_points", 0),
        ("converged", None),
        ("converged", 1),
    ])
    def test_a_fit_row_field_of_the_wrong_type(self, inputs, capsys, stage, key, value):
        fits = inputs / "fits.json"
        rows = json.loads(fits.read_text())
        row = 3  # rows[0] is the provenance header; rows[3] is the first soft-hinge row
        assert rows[row]["model"] == "soft-hinge"
        if value == "missing":
            del rows[row][key]
        else:
            rows[row][key] = value
        fits.write_text(json.dumps(rows))
        assert run(self.argv(inputs, stage, fits, inputs / "spectrum.json")) == 1
        payload = one_line_error(capsys)
        assert (payload["stage"], payload["error"]) == (stage, "MissingInputError")
        assert payload["message"].startswith(f"{fits}: fit row {row}: {key!r} must be ")

    @pytest.mark.parametrize("stage", ["fpca", "project", "report"])
    def test_null_fit_metrics_are_read(self, inputs, stage):
        fits = inputs / "fits.json"
        rows = json.loads(fits.read_text())
        for row in rows[1:]:
            row.update(r2=None, rmse=None, aic=None)
        fits.write_text(json.dumps(rows))
        assert run(self.argv(inputs, stage, fits, inputs / "spectrum.json")) == 0

    @pytest.mark.parametrize("stage", ["fpca", "project", "report"])
    def test_a_fit_table_without_rows(self, inputs, capsys, stage):
        fits = inputs / "fits.json"
        fits.write_text(json.dumps(json.loads(fits.read_text())[:1]))  # the header alone
        assert run(self.argv(inputs, stage, fits, inputs / "spectrum.json")) == 1
        payload = one_line_error(capsys)
        assert (payload["stage"], payload["error"]) == (stage, "MissingInputError")
        assert payload["message"] == f"{fits}: no fit rows"

    # fit writes one row per (participant_id, model); a repeat would count twice
    @pytest.mark.parametrize("stage", ["fpca", "project", "report"])
    def test_a_repeated_fit_row(self, inputs, capsys, stage):
        fits = inputs / "fits.json"
        rows = json.loads(fits.read_text())
        row = 3  # rows[0] is the provenance header; rows[3] is the first soft-hinge row
        assert rows[row]["model"] == "soft-hinge"
        fits.write_text(json.dumps(rows + [rows[row]]))
        assert run(self.argv(inputs, stage, fits, inputs / "spectrum.json")) == 1
        payload = one_line_error(capsys)
        assert (payload["stage"], payload["error"]) == (stage, "MissingInputError")
        pid = rows[row]["participant_id"]
        assert payload["message"] == (
            f"{fits}: fit row {len(rows)}: {(pid, 'soft-hinge')} repeats fit row {row}"
        )

    # one rule for a number in a JSON artifact: a finite int or float; a
    # string, a boolean and the NaN and Infinity literals are not numbers
    @pytest.mark.parametrize("stage, name, path, value, error", [
        ("fpca", "fits.json", (3, "params", "tau"), "nan", "MissingInputError"),
        ("fpca", "fits.json", (3, "params", "tau"), True, "MissingInputError"),
        ("project", "fits.json", (3, "params", "beta"), "0.5", "MissingInputError"),
        ("fpca", "fits.json", (3, "r2"), float("nan"), "MissingInputError"),
        ("report", "fits.json", (3, "aic"), float("inf"), "MissingInputError"),
        ("project", "spectrum.json", ("grid",), [f"{x}" for x in range(51)],
         "MissingInputError"),
        ("report", "spectrum.json", ("components", 0, 0), True, "MissingInputError"),
        ("project", "spectrum.json", ("reference_scores_pc1", 0), "0.1", "MissingInputError"),
    ])
    def test_a_value_that_is_not_a_finite_number(self, inputs, capsys, stage, name, path,
                                                 value, error):
        target = inputs / name
        data = json.loads(target.read_text())
        parent = data
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = value
        target.write_text(json.dumps(data))  # NaN and Infinity as json.dumps writes them
        assert run(self.argv(inputs, stage, inputs / "fits.json", inputs / "spectrum.json")) == 1
        payload = one_line_error(capsys)
        assert (payload["stage"], payload["error"]) == (stage, error)
        key = [step for step in path if isinstance(step, str)][-1]
        assert repr(key) in payload["message"]

    @pytest.mark.parametrize("stage, name", [
        ("project", "spectrum.json"),
        ("fpca", "fits.json"),
        ("project", "fits.json"),
        ("report", "fits.json"),
    ])
    def test_malformed_json_is_a_stage_error(self, inputs, capsys, stage, name):
        target = inputs / name
        target.write_text(target.read_text()[:-5])
        assert run(self.argv(inputs, stage, inputs / "fits.json", inputs / "spectrum.json")) == 1
        payload = one_line_error(capsys)
        assert (payload["stage"], payload["error"]) == (stage, "JSONDecodeError")
        assert payload["message"].startswith(f"{target}: file is not valid JSON: ")

    # json.loads raises a bare ValueError for an integer past Python's digit limit,
    # and reading the file one for bytes that are not UTF-8
    @pytest.mark.parametrize("stage", ["fpca", "project", "report"])
    @pytest.mark.parametrize("text, reason", [
        ('[{"provenance": {}}, {"r2": ' + "1" * 5000 + "}]", "Exceeds the limit (4300 digits)"),
        (b'[{"participant_id": "p\xff"}]', "'utf-8' codec can't decode byte 0xff"),
    ], ids=["int-past-digit-limit", "not-utf-8"])
    def test_a_bare_value_error_names_the_fit_table(self, inputs, capsys, stage, text, reason):
        fits = inputs / "fits.json"
        if isinstance(text, bytes):
            fits.write_bytes(text)
        else:
            fits.write_text(text)
        assert run(self.argv(inputs, stage, fits, inputs / "spectrum.json")) == 1
        payload = one_line_error(capsys)
        assert (payload["stage"], payload["error"]) == (stage, "ValueError")
        assert payload["message"].startswith(f"{fits}: file is not valid JSON: {reason}")

    @pytest.mark.parametrize("stage", ["project", "report"])
    @pytest.mark.parametrize("key, value", [
        ("reference_scores_pc1", 5),
        ("grid", "missing"),
        ("reference_scores_pc1", [[1, 2]]),
        ("sign_convention", "missing"),
        ("reference_scores_pc1", "missing"),
        ("reference_scores_pc1", []),
        ("reference_scores_pc1", [0.0]),
        ("grid", [50.0 - x for x in range(51)]),
        ("grid", [1.0 + x for x in range(51)]),
    ], ids=["scalar-reference", "no-grid", "nested-reference", "no-sign-convention",
            "no-reference", "empty-reference", "one-score-reference", "reversed-grid",
            "grid-beyond-50"])
    def test_a_spectrum_field_of_the_wrong_shape(self, inputs, capsys, stage, key, value):
        spectrum = inputs / "spectrum.json"
        data = json.loads(spectrum.read_text())
        if value == "missing":
            del data[key]
        else:
            data[key] = value
        spectrum.write_text(json.dumps(data))
        assert run(self.argv(inputs, stage, inputs / "fits.json", spectrum)) == 1
        payload = one_line_error(capsys)
        assert (payload["stage"], payload["error"]) == (stage, "MissingInputError")
        assert payload["message"].startswith(f"{spectrum}: ")
        assert repr(key) in payload["message"]

    # fit_fpca sorts its eigenvalues, clamps them at 0 and divides them by their total
    @pytest.mark.parametrize("stage", ["project", "report"])
    @pytest.mark.parametrize("key, index, value", [
        ("eigenvalues", 0, -1.0),
        ("eigenvalues", -1, 1e9),
        ("explained_ratio", 0, 7.0),
        ("explained_ratio", -1, -0.5),
        ("explained_ratio", 0, 1.0),  # the two sum past 1
        ("explained_ratio", -1, 1.0),  # and rise
    ])
    def test_a_spectrum_value_fit_fpca_could_not_write(self, inputs, capsys, stage, key, index,
                                                       value):
        spectrum = inputs / "spectrum.json"
        data = json.loads(spectrum.read_text())
        assert len(data[key]) == 2
        data[key][index] = value
        spectrum.write_text(json.dumps(data))
        assert run(self.argv(inputs, stage, inputs / "fits.json", spectrum)) == 1
        payload = one_line_error(capsys)
        assert (payload["stage"], payload["error"]) == (stage, "MissingInputError")
        assert payload["message"].startswith(f"{spectrum}: spectrum field {key!r} ")
        assert not (inputs / "out.csv").exists() and not (inputs / "report").exists()


class TestConfigResolution:
    def test_config_file_feeds_defaults(self, tmp_path, capsys):
        raw = synth_dir(tmp_path, participants=2, trials=1, shifts=10)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "hinge"}))
        shifts = preprocess(tmp_path, raw)

        with_cfg = tmp_path / "with_cfg.json"
        explicit = tmp_path / "explicit.json"
        assert run(["fit", "--in", shifts, "--out", with_cfg, "--config", cfg]) == 0
        assert run(["fit", "--in", shifts, "--out", explicit, "--model", "hinge"]) == 0
        assert with_cfg.read_bytes() == explicit.read_bytes()

    def test_flag_overrides_config(self, tmp_path):
        raw = synth_dir(tmp_path, participants=2, trials=1, shifts=10)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "soft-hinge"}))
        shifts = preprocess(tmp_path, raw)

        overridden = tmp_path / "o.json"
        plain = tmp_path / "p.json"
        assert run(["fit", "--in", shifts, "--out", overridden,
                    "--config", cfg, "--model", "hinge"]) == 0
        assert run(["fit", "--in", shifts, "--out", plain, "--model", "hinge"]) == 0
        assert overridden.read_bytes() == plain.read_bytes()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_starts": 4}))
        code = run(["fit", "--in", "x.csv", "--out", "y.json", "--config", cfg])
        assert code == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ValueError"
        assert "n_starts" in payload["message"]

    @pytest.mark.parametrize("key, value", [("seed", 1.7), ("shifts", True), ("model", "cubic")])
    def test_config_value_of_wrong_type_rejected(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code = run(["fit", "--in", "x.csv", "--out", "y.json", "--config", cfg])
        assert code == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ValueError"
        assert key in payload["message"]

    def test_integer_config_value_feeds_float_option(self, tmp_path):
        raw = synth_dir(tmp_path, participants=2, trials=1, shifts=10)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fix_threshold": 15}))
        with_cfg = preprocess(tmp_path, raw, "with_cfg.csv", ["--config", cfg])
        explicit = preprocess(tmp_path, raw, "explicit.csv", ["--fix-threshold", 15.0])
        assert with_cfg.read_bytes() == explicit.read_bytes()

    def test_defaults_table_is_flat_and_typed(self):
        for key, value in DEFAULTS.items():
            assert isinstance(value, (int, float, str)), key

    def test_cli_defaults_are_the_library_defaults(self):
        def default(fn, name):
            return inspect.signature(fn).parameters[name].default

        assert _fixation_config(DEFAULTS) == FixationConfig()
        assert _filter_config(DEFAULTS) == FilterConfig()
        assert default(sanity_check, "min_overlap_s") == DEFAULTS["min_overlap_s"]
        assert default(sanity_check, "max_gap_s") == DEFAULTS["max_gap_s"]
        assert default(symmetrize_and_clean, "max_ecc") == DEFAULTS["max_ecc_deg"]
        assert default(threshold_shifts, "filter_cfg") == _filter_config(DEFAULTS)
        assert default(threshold_shifts, "fixation_cfg") == _fixation_config(DEFAULTS)


# The file arguments each stage requires; no test here reads them.
REQUIRED = {
    "preprocess": ["--in-dir", "traces", "--out", "shifts.csv"],
    "fit": ["--in", "shifts.csv", "--out", "fits.json"],
    "fpca": ["--in", "fits.json", "--out", "spectrum.json"],
    "project": ["--model", "spectrum.json", "--in", "fits.json", "--out", "scores.csv"],
    "report": ["--fits", "fits.json", "--spectrum", "spectrum.json",
               "--scores", "scores.csv", "--out-dir", "report"],
    "sensitivity": ["--in-dir", "traces", "--out", "sensitivity.json"],
    "synth": ["--out-dir", "raw"],
}

TRACE_FLAGS = {
    "--fix-threshold", "--min-dur-ms", "--pad-ms", "--merge-gap-ms", "--max-ecc-deg",
    "--min-cutoff", "--filter-beta", "--derivative-cutoff", "--min-overlap-s",
    "--max-gap-s", "--expected-trials",
}

# Every flag of every stage, written out so that a flag lost or gained shows.
STAGE_FLAGS = {
    "preprocess": {"--in-dir", "--out", "--sanity-out", "--symmetry-out", *TRACE_FLAGS},
    "fit": {"--in", "--out", "--model"},
    "fpca": {"--in", "--out", "--components"},
    "project": {"--model", "--in", "--out"},
    "report": {"--fits", "--spectrum", "--scores", "--out-dir"},
    "sensitivity": {"--in-dir", "--out", "--thresholds", *TRACE_FLAGS},
    "synth": {"--out-dir", "--participants", "--trials", "--shifts", "--noise-sd", "--seed"},
}


def other_value(key):
    """A value of the option's type that is not its default."""
    default = DEFAULTS[key]
    if key == "model":
        return "hinge"
    if isinstance(default, str):
        return "12,18"
    # a default at the top of its range (cli.OPTIONS' range column) steps down
    return default - 1 if default in cli.OPTIONS[key][1][2:] else default + 1


class TestOptionTable:
    def test_every_numeric_option_has_one_range(self):
        numeric = {key for key, default in DEFAULTS.items() if isinstance(default, (int, float))}
        assert {key for key, (_, limits, *_) in cli.OPTIONS.items() if limits} == numeric

    def test_every_option_names_stages_of_the_parser(self):
        # a typo in the stages column would drop the option from every stage
        usage = build_parser().format_usage()  # ... {preprocess,fit,...} ...
        commands = set(re.search(r"\{([a-z,]+)\}", usage).group(1).split(","))
        for key, (_, _, stages, _) in cli.OPTIONS.items():
            assert stages and set(stages) <= commands, key
        assert set(STAGE_OPTIONS) == commands

    @pytest.mark.parametrize("stage", sorted(STAGE_FLAGS))
    def test_help_lists_exactly_the_stage_flags(self, capsys, stage):
        with pytest.raises(SystemExit) as exc:
            dispatch([stage, "--help"])
        assert exc.value.code == 0
        flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
        assert flags == STAGE_FLAGS[stage] | {"--help", "--config"}

    @pytest.mark.parametrize(
        "stage, key", [(stage, key) for stage, keys in STAGE_OPTIONS.items() for key in keys]
    )
    def test_flag_and_config_file_resolve_alike(self, tmp_path, stage, key):
        value = other_value(key)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        parser = build_parser()
        by_flag = parser.parse_args(
            [stage, *REQUIRED[stage], "--" + key.replace("_", "-"), str(value)]
        )
        by_file = parser.parse_args([stage, *REQUIRED[stage], "--config", str(cfg)])
        assert type(getattr(by_flag, key)) is type(DEFAULTS[key])
        assert _resolve(by_flag)[key] == _resolve(by_file)[key] == value
        assert type(_resolve(by_file)[key]) is type(DEFAULTS[key])

    @pytest.mark.parametrize("stage", sorted(STAGE_OPTIONS))
    def test_one_config_file_serves_every_stage(self, tmp_path, stage):
        parser = build_parser()
        assert _resolve(parser.parse_args([stage, *REQUIRED[stage]])) == {
            key: DEFAULTS[key] for key in STAGE_OPTIONS[stage]
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: other_value(key) for key in DEFAULTS}))
        resolved = _resolve(parser.parse_args([stage, *REQUIRED[stage], "--config", str(cfg)]))
        assert resolved == {key: other_value(key) for key in STAGE_OPTIONS[stage]}


class TestSensitivityReference:
    """sensitivity correlates against --fix-threshold, the threshold preprocess uses."""

    def test_fix_threshold_is_the_reference(self, tmp_path):
        raw = synth_dir(tmp_path, participants=2, trials=1, shifts=30)
        out = tmp_path / "sens.json"
        assert run(["sensitivity", "--in-dir", raw, "--out", out, "--thresholds", "15,20",
                    "--fix-threshold", "20", "--min-overlap-s", "2.0"]) == 0
        payload = strict_json(out.read_text())
        assert payload["base_threshold"] == 20.0
        assert payload["median_r"]["20"] == 1.0
        for r in payload["participants"].values():
            assert r["20"] == 1.0

    def test_base_threshold_flag_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            dispatch(["sensitivity", *REQUIRED["sensitivity"], "--base-threshold", "15"])
        assert exc.value.code == 2

    def test_config_file_holding_base_threshold_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"base_threshold": 15.0}))
        assert run(["sensitivity", *REQUIRED["sensitivity"], "--config", cfg]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ValueError"
        assert "'base_threshold'" in payload["message"]


class TestNoFitSeed:
    """A fit depends on its data alone: fit and sensitivity take no seed."""

    @pytest.mark.parametrize("stage", ["fit", "sensitivity"])
    @pytest.mark.parametrize("flag", ["--starts", "--seed"])
    def test_seed_flags_are_usage_errors(self, stage, flag):
        with pytest.raises(SystemExit) as exc:
            dispatch([stage, *REQUIRED[stage], flag, "4"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("stage", ["fit", "sensitivity"])
    def test_config_file_holding_starts_is_rejected(self, tmp_path, capsys, stage):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"starts": 20}))
        assert run([stage, *REQUIRED[stage], "--config", cfg]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ValueError"
        assert "'starts'" in payload["message"]

    def test_renamed_participants_get_the_same_fits(self, tmp_path):
        shifts = preprocess(tmp_path, synth_dir(tmp_path, participants=3, trials=1, shifts=30))
        table = read_shifts_csv(shifts)
        pids = list(table.by_participant())
        renamed = {pid: f"renamed{i}" for i, pid in enumerate(reversed(pids))}
        # the first participant's shifts once more, under a third name
        copy = table.for_participant(pids[0])
        copy.participant_id = ["copy"] * len(copy)
        table.participant_id = [renamed[pid] for pid in table.participant_id]
        other = tmp_path / "renamed.csv"
        ingest.write_shifts_csv(str(other), ingest.concat_shift_sets([table, copy]))

        fits = {}
        for path in (shifts, other):
            out = tmp_path / f"{path.stem}.json"
            assert run(["fit", "--in", path, "--out", out]) == 0
            fits[path] = {(r.pop("participant_id"), r["model"]): r for r in read_json_array(out)}
        want, got = fits[shifts], fits[other]
        assert len(got) == len(want) + 3
        for (pid, model), row in want.items():
            assert got[(renamed[pid], model)] == row
        for model in ("linear", "hinge", "soft-hinge"):
            assert got[("copy", model)] == want[(pids[0], model)]


class TestModelChoice:
    def test_the_choices_are_every_model_and_all(self, capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch(["fit", "--help"])
        assert exc.value.code == 0
        assert f"--model {{{','.join([*MODELS, 'all'])}}}" in capsys.readouterr().out

    def test_each_model_alone_writes_the_rows_of_all(self, tmp_path):
        # the hinge and the soft hinge share one lattice and one solver batch
        # under --model all; alone, each writes the same rows
        shifts = preprocess(tmp_path, synth_dir(tmp_path, participants=3, trials=1, shifts=30))
        rows = {}
        for model in ("all", "linear", "hinge", "soft-hinge"):
            out = tmp_path / f"{model}.json"
            assert run(["fit", "--in", shifts, "--out", out, "--model", model]) == 0
            rows[model] = read_json_array(out)
        for model in ("linear", "hinge", "soft-hinge"):
            assert rows[model] == [r for r in rows["all"] if r["model"] == model]


class TestConfigOnEveryStage:
    """project and report take no option, yet read and check --config."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("inputs")
        shifts = preprocess(tmp, synth_dir(tmp, participants=3, trials=1, shifts=10))
        fits, spectrum, scores = tmp / "fits.json", tmp / "spectrum.json", tmp / "scores.csv"
        assert run(["fit", "--in", shifts, "--out", fits]) == 0
        assert run(["fpca", "--in", fits, "--out", spectrum]) == 0
        assert run(["project", "--model", spectrum, "--in", fits, "--out", scores]) == 0
        return {"fits": fits, "spectrum": spectrum, "scores": scores}

    @staticmethod
    def argv(stage, inputs, out):
        if stage == "project":
            return ["project", "--model", inputs["spectrum"], "--in", inputs["fits"],
                    "--out", out / "scores.csv"]
        return ["report", "--fits", inputs["fits"], "--spectrum", inputs["spectrum"],
                "--scores", inputs["scores"], "--out-dir", out / "report"]

    @pytest.mark.parametrize("stage", ["project", "report"])
    @pytest.mark.parametrize("content, error", [
        (None, "FileNotFoundError"),
        ('{"starts": 4', "JSONDecodeError"),
        ('{"n_starts": 4}', "ValueError"),
        ('[{"seed": 1}]', "ValueError"),  # not a flat object
    ])
    def test_bad_config_file_is_a_stage_error(self, inputs, tmp_path, capsys,
                                              stage, content, error):
        cfg = tmp_path / "cfg.json"
        if content is not None:
            cfg.write_text(content)
        out = tmp_path / "out"
        out.mkdir()
        assert run([*self.argv(stage, inputs, out), "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["stage"] == stage
        assert payload["error"] == error
        assert payload["message"]
        assert not any(out.iterdir())

    @pytest.mark.parametrize("stage", sorted(REQUIRED))
    def test_malformed_config_error_names_the_file(self, tmp_path, capsys, stage):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"starts": 4')
        assert run([stage, *REQUIRED[stage], "--config", cfg]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "JSONDecodeError"
        assert payload["message"].startswith(f"{cfg}: ")

    @pytest.mark.parametrize("stage", ["project", "report"])
    def test_config_keys_of_other_stages_are_accepted(self, inputs, tmp_path, stage):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "hinge"}))
        plain, with_cfg = tmp_path / "plain", tmp_path / "with_cfg"
        plain.mkdir()
        with_cfg.mkdir()
        assert run(self.argv(stage, inputs, plain)) == 0
        assert run([*self.argv(stage, inputs, with_cfg), "--config", cfg]) == 0
        written = sorted(p.relative_to(plain) for p in plain.rglob("*") if p.is_file())
        assert written
        for rel in written:
            assert (plain / rel).read_bytes() == (with_cfg / rel).read_bytes(), rel


class TestProvenance:
    def test_provenance_pins_inputs_and_config(self, tmp_path):
        raw = synth_dir(tmp_path, participants=2, trials=1, shifts=10)
        shifts = preprocess(tmp_path, raw)
        fits = tmp_path / "fits.json"
        assert run(["fit", "--in", shifts, "--out", fits]) == 0
        prov = json.loads(fits.read_text())[0]["provenance"]
        assert set(prov) == {"config_hash", "seed", "inputs"}
        assert prov["seed"] is None
        assert list(prov["inputs"]) == [shifts.name]
        digest = prov["inputs"][shifts.name]
        assert len(digest) == 64 and int(digest, 16) >= 0

    @pytest.mark.parametrize("stage", ["project", "report"])
    def test_inputs_are_named_relative_to_the_primary_input(self, tmp_path, monkeypatch, stage):
        raw = synth_dir(tmp_path, participants=3, trials=1, shifts=10)
        shifts = preprocess(tmp_path, raw)
        monkeypatch.chdir(tmp_path)
        for d in ("a", "b"):
            (tmp_path / d).mkdir()
        fits, spectrum, scores = "a/fits.json", "b/spectrum.json", "b/scores.csv"
        assert run(["fit", "--in", shifts, "--out", fits]) == 0
        assert run(["fpca", "--in", fits, "--out", spectrum]) == 0
        assert run(["project", "--model", spectrum, "--in", fits, "--out", scores]) == 0
        sibling = {"../b/spectrum.json": spectrum, "fits.json": fits}
        if stage == "project":
            prov = json.loads(pathlib.Path(scores).read_text().splitlines()[0].split(":", 1)[1])
        else:
            assert run(["report", "--fits", fits, "--spectrum", spectrum,
                        "--scores", scores, "--out-dir", "report"]) == 0
            prov = json.loads(pathlib.Path("report/summary.json").read_text())["provenance"]
            sibling["../b/scores.csv"] = scores
        assert prov["inputs"] == {
            name.replace("/", os.sep): report.file_sha256(path) for name, path in sibling.items()
        }

    def test_an_input_gone_before_hashing_is_an_error(self, tmp_path):
        # an input that vanishes between its read and its digest is not left out
        gone = tmp_path / "gone.csv"
        with pytest.raises(OSError):
            report.make_provenance({}, None, {gone.name: str(gone)})

    def test_shift_csv_carries_provenance_header(self, tmp_path):
        raw = synth_dir(tmp_path, participants=2, trials=1, shifts=10)
        shifts = preprocess(tmp_path, raw)
        first = shifts.read_text().splitlines()[0]
        assert first.startswith("# provenance:")
        prov = json.loads(first.split(":", 1)[1])
        assert "config_hash" in prov and "inputs" in prov
        # one gaze + one head file per trial, two participants
        assert len(prov["inputs"]) == 4


def strict_json(text):
    """Parse JSON, rejecting the non-standard NaN/Infinity tokens."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


def strict_json_lines(text):
    return [strict_json(line) for line in text.splitlines()]


def artifact_columns(path):
    """The columns a CSV artifact must hold, by its name."""
    if path.name.endswith((".gaze.csv", ".head.csv")):
        return TRACE_COLUMNS
    if path.parent.name == "modes":
        return ("x_deg", "y_deg")
    return {
        "shifts.csv": SHIFT_COLUMNS,
        "scores.csv": SCORE_COLUMNS,
        "pc1_density.csv": ("x", "density"),
    }[path.name]


class TestArtifactContract:
    def test_every_artifact_reads_back(self, tmp_path):
        raw = synth_dir(tmp_path, participants=3, trials=1, shifts=30)
        out = tmp_path / "out"
        out.mkdir()
        shifts = preprocess(out, raw, extra=["--symmetry-out", out / "symmetry.json"])
        fits, spectrum, scores = out / "fits.json", out / "spectrum.json", out / "scores.csv"
        assert run(["fit", "--in", shifts, "--out", fits]) == 0
        assert run(["fpca", "--in", fits, "--out", spectrum]) == 0
        assert run(["project", "--model", spectrum, "--in", fits, "--out", scores]) == 0
        assert run(["report", "--fits", fits, "--spectrum", spectrum,
                    "--scores", scores, "--out-dir", out / "report"]) == 0
        assert run(["sensitivity", "--in-dir", raw, "--out", out / "sensitivity.json",
                    "--thresholds", "15,20", "--min-overlap-s", 2.0]) == 0

        csvs = sorted(tmp_path.rglob("*.csv"))
        assert len(csvs) == 3 * 2 + 2 + 2 + 5 + 1  # traces, shifts, scores, modes, density
        for path in csvs:
            columns = artifact_columns(path)
            table = ingest.read_table(path, columns)
            header = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")][0]
            assert header == ",".join(columns), path
            assert len({len(v) for v in table.values()}) == 1, path
        jsons = sorted(tmp_path.rglob("*.json"))
        assert {p.name for p in jsons} == {
            "truth.json", "symmetry.json", "fits.json", "spectrum.json",
            "summary.json", "sensitivity.json",
        }
        for path in jsons:
            strict_json(path.read_text())
        strict_json_lines((out / "sanity.jsonl").read_text())

    def test_truncated_last_row_is_a_stage_error(self, tmp_path, capsys):
        raw = synth_dir(tmp_path, participants=2, trials=1, shifts=10)
        gaze = sorted(raw.glob("*.gaze.csv"))[0]
        gaze.write_text(gaze.read_text().rstrip("\r\n").rsplit(",", 1)[0] + "\r\n")
        code = run(["preprocess", "--in-dir", raw, "--out", tmp_path / "s.csv",
                    "--min-overlap-s", 2.0])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["stage"] == "preprocess"
        assert payload["error"] == "TraceSchemaError"
        assert gaze.name in payload["message"]

    def test_undefined_values_are_written_as_null(self, tmp_path):
        raw = synth_dir(tmp_path, participants=3, trials=1, shifts=30)
        sorted(raw.glob("*.head.csv"))[0].unlink()
        preprocess(tmp_path, raw)
        sanity = strict_json_lines((tmp_path / "sanity.jsonl").read_text())
        missing = [r for r in sanity[1:] if r["reason"] == "missing_stream"]
        assert len(missing) == 1 and missing[0]["gap_max_s"] is None

        # "flat" moves its head the same 0 deg on every shift: var(y) = 0, r2 undefined
        shifts = tmp_path / "hand.csv"
        xs = [5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0]
        shifts.write_text(
            "participant_id,trial_id,x_deg,y_deg\n"
            + "".join(f"flat,t01,{x},0\n" for x in xs)
            + "".join(f"mover,t01,{x},{max(0.0, x - 15.0) * 0.6}\n" for x in xs)
        )
        fits, spectrum = tmp_path / "fits.json", tmp_path / "spectrum.json"
        scores, report = tmp_path / "scores.csv", tmp_path / "report"
        assert run(["fit", "--in", shifts, "--out", fits]) == 0
        assert run(["fpca", "--in", fits, "--out", spectrum]) == 0
        assert run(["project", "--model", spectrum, "--in", fits, "--out", scores]) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["report", "--fits", fits, "--spectrum", spectrum,
                        "--scores", scores, "--out-dir", report]) == 0
        for path in (fits, spectrum, report / "summary.json"):
            strict_json(path.read_text())
        # one defined r2 per model: a mean, but no standard deviation
        comparison = json.loads((report / "summary.json").read_text())["model_comparison"]
        assert all(c["r2_mean"] is not None and c["r2_sd"] is None for c in comparison.values())
        rows = read_json_array(fits)
        flat = [r for r in rows if r["participant_id"] == "flat"]
        assert flat and all(r["r2"] is None for r in flat)
        assert all(r["r2"] is not None for r in rows if r["participant_id"] == "mover")

    def test_preprocess_creates_output_directories(self, tmp_path):
        raw = synth_dir(tmp_path, participants=2, trials=1, shifts=12)
        new = tmp_path / "new"
        outputs = (new / "shifts.csv", new / "symmetry.json", tmp_path / "log" / "sanity.jsonl")
        assert run(["preprocess", "--in-dir", raw, "--out", outputs[0],
                    "--symmetry-out", outputs[1], "--sanity-out", outputs[2],
                    "--min-overlap-s", 2.0]) == 0
        assert all(path.exists() for path in outputs)


class TestOutputDirectories:
    """Every stage writes into an output directory that does not exist yet."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("inputs")
        raw = synth_dir(tmp, participants=3, trials=1, shifts=20)
        shifts = preprocess(tmp, raw)
        fits, spectrum = tmp / "fits.json", tmp / "spectrum.json"
        assert run(["fit", "--in", shifts, "--out", fits]) == 0
        assert run(["fpca", "--in", fits, "--out", spectrum]) == 0
        return {"raw": raw, "shifts": shifts, "fits": fits, "spectrum": spectrum}

    @pytest.mark.parametrize("stage, argv", [
        ("fit", ["--in", "shifts"]),
        ("fpca", ["--in", "fits"]),
        ("project", ["--model", "spectrum", "--in", "fits"]),
        ("sensitivity", ["--in-dir", "raw", "--min-overlap-s", 2.0]),
    ])
    def test_stage_creates_the_directory_of_out(self, inputs, tmp_path, stage, argv):
        out = tmp_path / "new" / "deeper" / "artifact"
        argv = [inputs.get(a, a) if isinstance(a, str) else a for a in argv]
        assert run([stage, *argv, "--out", out]) == 0
        assert out.is_file()

    @pytest.mark.parametrize("write", [
        lambda path: ingest.write_table(path, ("a",), (np.array([1.0]),), {"seed": 1}),
        lambda path: report.write_json_object(path, {"a": 1}, {"seed": 1}),
        lambda path: report.write_json_array(path, [{"a": 1}], {"seed": 1}),
        lambda path: report.write_json_lines(path, [{"a": 1}], {"seed": 1}),
    ], ids=["table", "json_object", "json_array", "json_lines"])
    def test_every_writer_creates_its_directory(self, tmp_path, write):
        out = tmp_path / "new" / "deeper" / "artifact"
        write(str(out))
        assert out.is_file()


class TestHeadOnlyTrial:
    """A trial whose gaze file is missing is reported, not dropped."""

    def test_preprocess_reports_missing_stream_and_digests_the_head_file(self, tmp_path):
        raw = synth_dir(tmp_path, participants=2, trials=2, shifts=12)
        (raw / "synth001_t02.gaze.csv").unlink()
        preprocess(tmp_path, raw)
        header, *records = strict_json_lines((tmp_path / "sanity.jsonl").read_text())
        assert len(records) == 4
        assert [r for r in records if r["verdict"] == "fail"] == [{
            "participant_id": "synth001", "trial_id": "t02", "overlap_s": 0.0,
            "gap_max_s": None, "verdict": "fail", "reason": "missing_stream",
        }]
        inputs = header["provenance"]["inputs"]
        assert "synth001_t02.head.csv" in inputs
        assert "synth001_t02.gaze.csv" not in inputs


class TestTrialFiles:
    """A trial is one stem's files; one that does not load, or a trial in two stems, fails."""

    @pytest.mark.parametrize("stage", ["preprocess", "sensitivity"])
    def test_a_dangling_gaze_link_is_a_one_line_error(self, tmp_path, capsys, stage):
        raw = synth_dir(tmp_path, participants=1, trials=1, shifts=30)
        (raw / "ghost_t01.gaze.csv").symlink_to(tmp_path / "nowhere.csv")
        out = tmp_path / "out"
        assert run([stage, "--in-dir", raw, "--out", out, "--min-overlap-s", 2.0]) == 1
        payload = one_line_error(capsys)
        assert (payload["stage"], payload["error"]) == (stage, "FileNotFoundError")
        assert "ghost_t01.gaze.csv" in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize("stage", ["preprocess", "sensitivity"])
    def test_a_trial_under_two_stems_names_both_files(self, tmp_path, capsys, stage):
        # counted twice, its shifts would be in shifts.csv and pooled twice
        raw = synth_dir(tmp_path, participants=2, trials=1, shifts=30)
        for kind in ("gaze", "head"):
            shutil.copy(raw / f"synth001_t01.{kind}.csv", raw / f"copy_t01.{kind}.csv")
        out = tmp_path / "out"
        assert run([stage, "--in-dir", raw, "--out", out, "--min-overlap-s", 2.0]) == 1
        payload = one_line_error(capsys)
        assert (payload["stage"], payload["error"]) == (stage, "TraceSchemaError")
        assert str(raw / "copy_t01.gaze.csv") in payload["message"]
        assert str(raw / "synth001_t01.gaze.csv") in payload["message"]
        assert not out.exists()


class TestGlobCharactersInTheTraceDirectory:
    """A trace directory is a path, not a glob pattern: "session[1]" is not "session1"."""

    @pytest.mark.parametrize("decoy", [False, True], ids=["alone", "beside-session1"])
    @pytest.mark.parametrize("stage", ["preprocess", "sensitivity"])
    def test_only_the_named_directory_is_read(self, tmp_path, stage, decoy):
        raw = synth_dir(tmp_path, participants=2, trials=1, shifts=30)
        in_dir = raw.rename(tmp_path / "session[1]")
        if decoy:  # the directory the unescaped pattern matches
            (tmp_path / "session1").mkdir()
            for kind in ("gaze", "head"):
                text = (in_dir / f"synth001_t01.{kind}.csv").read_text()
                (tmp_path / "session1" / f"other_t01.{kind}.csv").write_text(text)
        out = tmp_path / ("shifts.csv" if stage == "preprocess" else "sens.json")
        argv = [stage, "--in-dir", in_dir, "--out", out, "--min-overlap-s", 2.0]
        assert run(argv + (["--thresholds", "15,20"] if stage == "sensitivity" else [])) == 0
        if stage == "preprocess":
            provenance = strict_json_lines((tmp_path / "sanity.jsonl").read_text())[0]["provenance"]
        else:
            provenance = json.loads(out.read_text())["provenance"]
        assert sorted(provenance["inputs"]) == sorted(p.name for p in in_dir.iterdir())


class TestDisjointClocks:
    """A trace pair whose gaze and head clocks share no window fails alone."""

    @pytest.fixture(scope="class")
    def cohorts(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("cohorts")
        raw = synth_dir(tmp, participants=3, trials=2, shifts=20)
        head = raw / "synth002_t01.head.csv"
        stream = ingest.load_trace_csv(str(head))
        stream.t = stream.t + 1e4
        ingest.write_trace_csv(str(head), stream)
        # the same cohort without the broken pair
        rest = tmp / "rest"
        rest.mkdir()
        for path in raw.iterdir():
            if not path.name.startswith("synth002_t01."):
                (rest / path.name).write_bytes(path.read_bytes())
        return raw, rest

    def test_preprocess_reports_no_overlap_and_keeps_the_rest(self, cohorts, tmp_path):
        raw, rest = cohorts
        shifts = preprocess(tmp_path / "all", raw)
        expected = preprocess(tmp_path / "rest", rest)
        # every other trial is processed exactly as without the broken pair
        assert shifts.read_text().splitlines()[1:] == expected.read_text().splitlines()[1:]
        records = strict_json_lines((tmp_path / "all" / "sanity.jsonl").read_text())[1:]
        failed = [r for r in records if r["verdict"] == "fail"]
        assert failed == [{
            "participant_id": "synth002", "trial_id": "t01", "overlap_s": 0.0,
            "gap_max_s": None, "verdict": "fail", "reason": "no_overlap",
        }]
        assert len(records) == 6

    def test_sensitivity_keeps_the_rest(self, cohorts, tmp_path):
        raw, rest = cohorts
        outs = tmp_path / "all.json", tmp_path / "rest.json"
        for in_dir, out in zip((raw, rest), outs):
            assert run(["sensitivity", "--in-dir", in_dir, "--out", out,
                        "--thresholds", "15,20", "--min-overlap-s", 2.0]) == 0
        got, want = (json.loads(out.read_text()) for out in outs)
        assert sorted(got["participants"]) == ["synth001", "synth002", "synth003"]
        assert got["participants"] == want["participants"]


class TestExpectedTrials:
    @pytest.mark.parametrize("how", ["config", "flag"])
    def test_sensitivity_keeps_the_participants_preprocess_keeps(self, tmp_path, how):
        raw = synth_dir(tmp_path, participants=3, trials=2, shifts=30)
        sorted(raw.glob("*.head.csv"))[0].unlink()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"min_overlap_s": 2.0, "expected_trials": 2}))
        setting = ["--config", cfg] if how == "config" else [
            "--config", cfg, "--expected-trials", 2]
        shifts = tmp_path / "shifts.csv"
        assert run(["preprocess", "--in-dir", raw, "--out", shifts, *setting]) == 0
        sens = tmp_path / "sens.json"
        assert run(["sensitivity", "--in-dir", raw, "--out", sens,
                    "--thresholds", "15,20", *setting]) == 0
        kept = list(read_shifts_csv(shifts).by_participant())
        assert len(kept) == 2
        assert sorted(json.loads(sens.read_text())["participants"]) == sorted(kept)

    def test_a_participant_with_more_than_the_expected_trials_is_dropped(self, tmp_path):
        raw = synth_dir(tmp_path, participants=3, trials=3, shifts=30)
        for pid in ("synth001", "synth002"):
            for kind in ("gaze", "head"):
                (raw / f"{pid}_t03.{kind}.csv").unlink()
        setting = ["--min-overlap-s", 2.0, "--expected-trials", 2]
        shifts, sens = tmp_path / "shifts.csv", tmp_path / "sens.json"
        assert run(["preprocess", "--in-dir", raw, "--out", shifts, *setting]) == 0
        assert run(["sensitivity", "--in-dir", raw, "--out", sens, *setting]) == 0
        assert list(read_shifts_csv(str(shifts)).by_participant()) == ["synth001", "synth002"]
        assert sorted(json.loads(sens.read_text())["participants"]) == ["synth001", "synth002"]

    def test_a_dropped_participant_whose_gaze_never_settles_cannot_fail_the_stage(
            self, tmp_path):
        raw = synth_dir(tmp_path, participants=3, trials=2, shifts=30)
        (raw / "synth002_t01.head.csv").unlink()
        never_settle(raw / "synth002_t02.gaze.csv")
        setting = ["--min-overlap-s", 2.0, "--expected-trials", 2]
        shifts, sens = tmp_path / "shifts.csv", tmp_path / "sens.json"
        assert run(["preprocess", "--in-dir", raw, "--out", shifts, *setting]) == 0
        assert run(["sensitivity", "--in-dir", raw, "--out", sens, *setting]) == 0
        assert list(read_shifts_csv(str(shifts)).by_participant()) == ["synth001", "synth003"]
        assert sorted(json.loads(sens.read_text())["participants"]) == ["synth001", "synth003"]
        records = strict_json_lines((tmp_path / "sanity.jsonl").read_text())[1:]
        assert [(r["participant_id"], r["trial_id"], r["verdict"], r["reason"])
                for r in records if r["participant_id"] == "synth002"] == [
            ("synth002", "t01", "fail", "missing_stream"),
            ("synth002", "t02", "fail", "too_few_fixations"),
        ]


class TestNoTrialKept:
    """The stage error of a run that keeps no trial, or no shift, says why."""

    @pytest.mark.parametrize("stage", ["preprocess", "sensitivity"])
    def test_each_failure_reason_is_counted(self, tmp_path, capsys, stage):
        raw = synth_dir(tmp_path, participants=3, trials=1, shifts=30)
        never_settle(raw / "synth001_t01.gaze.csv")
        (raw / "synth002_t01.head.csv").unlink()
        never_settle(raw / "synth003_t01.gaze.csv")
        out = tmp_path / "out"
        assert run([stage, "--in-dir", raw, "--out", out, "--min-overlap-s", 2.0]) == 1
        payload = one_line_error(capsys)
        assert (payload["stage"], payload["error"]) == (stage, "MissingInputError")
        assert payload["message"] == (
            "no trials kept of 3 found (failed: missing_stream 1, too_few_fixations 2)"
        )
        assert not out.exists()

    def test_passing_trials_dropped_by_expected_trials_are_named(self, tmp_path, capsys):
        raw = synth_dir(tmp_path, participants=2, trials=1, shifts=30, seed=3)
        assert run(["preprocess", "--in-dir", raw, "--out", tmp_path / "shifts.csv",
                    "--min-overlap-s", 5, "--expected-trials", 2]) == 1
        assert one_line_error(capsys)["message"] == (
            "no trials kept of 2 found (--expected-trials 2 dropped 2 that passed)"
        )

    # a header-only shift table would pass preprocess and fail fit
    def test_cleaning_that_drops_every_shift_writes_nothing(self, tmp_path, capsys):
        raw = synth_dir(tmp_path, participants=3, trials=1, shifts=30, seed=5)
        out = tmp_path / "out"
        assert run(["preprocess", "--in-dir", raw, "--out", out / "shifts.csv",
                    "--min-overlap-s", 2.0, "--max-ecc-deg", 1e-9,
                    "--symmetry-out", out / "symmetry.json"]) == 1
        payload = one_line_error(capsys)
        assert (payload["stage"], payload["error"]) == ("preprocess", "MissingInputError")
        assert re.fullmatch(r"no shifts kept: cleaning dropped all \d+ shifts extracted "
                            r"from 3 trials", payload["message"]), payload["message"]
        assert not out.exists()


TRIALS = [f"synth00{p}_t0{t}" for p in (1, 2, 3) for t in (1, 2)]
# Each fault a trial can draw, and the reason its sanity record gives.
FAULTS = {
    "gaze never settles": "too_few_fixations",
    "gaze file removed": "missing_stream",
    "head file removed": "missing_stream",
    "head clock moved past the gaze clock": "no_overlap",
    "head recording cut at 1.5 s": "short_overlap",
    "gaze samples between 5 and 6 s removed": "discontinuity",
}


def drop_samples(path, drop):
    """Rewrite a trace file without the samples drop() marks, given their time from the first."""
    stream = ingest.load_trace_csv(str(path))
    keep = ~drop(stream.t - stream.t[0])
    stream.t, stream.yaw = stream.t[keep], stream.yaw[keep]
    ingest.write_trace_csv(str(path), stream)


def inject(traces, stem, fault):
    if fault == "gaze never settles":
        never_settle(traces / f"{stem}.gaze.csv")
    elif fault == "head clock moved past the gaze clock":
        head = traces / f"{stem}.head.csv"
        stream = ingest.load_trace_csv(str(head))
        stream.t = stream.t + 1e4
        ingest.write_trace_csv(str(head), stream)
    elif fault == "head recording cut at 1.5 s":
        drop_samples(traces / f"{stem}.head.csv", lambda t: t > 1.5)
    elif fault == "gaze samples between 5 and 6 s removed":
        drop_samples(traces / f"{stem}.gaze.csv", lambda t: (t > 5.0) & (t < 6.0))
    else:  # "gaze file removed" or "head file removed"
        (traces / f"{stem}.{fault.split()[0]}.csv").unlink()


class TestSegmentationFaults:
    """A trial that fails alone is a sanity record; the other trials are kept as they are."""

    @pytest.fixture(scope="class")
    def cohort(self, tmp_path_factory):
        return synth_dir(tmp_path_factory.mktemp("cohort"), participants=3, trials=2, shifts=30)

    @settings(max_examples=20)
    @given(chosen=st.dictionaries(st.sampled_from(TRIALS), st.sampled_from(sorted(FAULTS)),
                                  min_size=1, max_size=len(TRIALS) - 1))
    def test_faulty_trials_are_recorded_and_the_rest_kept(self, cohort, chosen):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            faulty, rest = tmp / "faulty", tmp / "rest"
            shutil.copytree(cohort, faulty)
            shutil.copytree(cohort, rest)
            for stem, fault in chosen.items():
                inject(faulty, stem, fault)
                for kind in ("gaze", "head"):
                    (rest / f"{stem}.{kind}.csv").unlink()
            shifts = preprocess(tmp / "faulty-out", faulty)
            # the oracle: the same cohort without the chosen trials
            expected = preprocess(tmp / "rest-out", rest)
            assert shifts.read_text().splitlines()[1:] == expected.read_text().splitlines()[1:]
            records = strict_json_lines((tmp / "faulty-out" / "sanity.jsonl").read_text())[1:]
            assert [(f"{r['participant_id']}_{r['trial_id']}", r["verdict"], r["reason"])
                    for r in records] == [
                (stem, "fail", FAULTS[chosen[stem]]) if stem in chosen else (stem, "pass", None)
                for stem in TRIALS
            ]
            sens = tmp / "sens.json"
            assert run(["sensitivity", "--in-dir", faulty, "--out", sens,
                        "--min-overlap-s", 2.0]) == 0
            assert (sorted(json.loads(sens.read_text())["participants"])
                    == sorted(read_shifts_csv(str(shifts)).by_participant()))

    def test_a_trial_left_two_samples_in_the_shared_window_is_too_few_samples(self, tmp_path):
        raw = synth_dir(tmp_path, participants=3, trials=1, shifts=30)
        gaze = raw / "synth002_t01.gaze.csv"
        header, *rows = gaze.read_text().splitlines(keepends=True)
        # the first gaze sample comes before the first head sample, so two are aligned
        gaze.write_text("".join([header, rows[0], rows[1], rows[-1]]))
        setting = ["--min-overlap-s", 2.0, "--max-gap-s", 100]
        shifts, sens = tmp_path / "shifts.csv", tmp_path / "sens.json"
        assert run(["preprocess", "--in-dir", raw, "--out", shifts, *setting]) == 0
        assert run(["sensitivity", "--in-dir", raw, "--out", sens, *setting]) == 0
        records = strict_json_lines((tmp_path / "sanity.jsonl").read_text())[1:]
        assert [(r["participant_id"], r["verdict"], r["reason"]) for r in records] == [
            ("synth001", "pass", None),
            ("synth002", "fail", "too_few_samples"),
            ("synth003", "pass", None),
        ]
        # the record keeps the trial's measured overlap and gap
        assert records[1]["overlap_s"] > 2.0 and records[1]["gap_max_s"] > 10.0
        assert list(read_shifts_csv(str(shifts)).by_participant()) == ["synth001", "synth003"]
        assert sorted(json.loads(sens.read_text())["participants"]) == ["synth001", "synth003"]

    def test_a_head_clock_overlapping_only_the_last_gaze_sample_is_no_overlap(self, tmp_path):
        raw = synth_dir(tmp_path, participants=3, trials=1, shifts=30)
        gaze = ingest.load_trace_csv(str(raw / "synth002_t01.gaze.csv"))
        head_path = raw / "synth002_t01.head.csv"
        head = ingest.load_trace_csv(str(head_path))
        # the head starts between the last two gaze samples and runs on past them
        head.t = head.t - head.t[0] + (gaze.t[-2] + gaze.t[-1]) / 2
        ingest.write_trace_csv(str(head_path), head)
        shifts = tmp_path / "shifts.csv"
        assert run(["preprocess", "--in-dir", raw, "--out", shifts, "--min-overlap-s", 2.0]) == 0
        records = strict_json_lines((tmp_path / "sanity.jsonl").read_text())[1:]
        assert records[1] == {
            "participant_id": "synth002", "trial_id": "t01", "overlap_s": 0.0,
            "gap_max_s": None, "verdict": "fail", "reason": "no_overlap",
        }
        assert list(read_shifts_csv(str(shifts)).by_participant()) == ["synth001", "synth003"]


class TestOneTrialAtATime:
    """preprocess and sensitivity hold one trial's samples at a time."""

    @pytest.mark.parametrize("faults", [False, True], ids=["clean", "recorded-faults"])
    @pytest.mark.parametrize("stage", ["preprocess", "sensitivity"])
    def test_a_trace_is_dropped_before_the_next_is_built(self, tmp_path, monkeypatch, stage,
                                                         faults):
        raw = synth_dir(tmp_path, participants=3, trials=2, shifts=30)
        extra = []
        if faults:  # two trials fail to segment, and expected_trials drops both participants
            for pid in ("synth001", "synth002"):
                (raw / f"{pid}_t01.head.csv").unlink()
                never_settle(raw / f"{pid}_t02.gaze.csv")
            extra = ["--expected-trials", 2]
        built = []  # a weak reference to every trace built so far
        seen = []
        align = cli.align_head_to_gaze

        def tracked(gaze, head):
            seen.append(sum(ref() is not None for ref in built))
            trace = align(gaze, head)
            built.append(weakref.ref(trace))
            return trace

        monkeypatch.setattr(cli, "align_head_to_gaze", tracked)
        out = tmp_path / ("shifts.csv" if stage == "preprocess" else "sens.json")
        assert run([stage, "--in-dir", raw, "--out", out, "--min-overlap-s", 2.0, *extra]) == 0
        assert len(seen) == (4 if faults else 6)
        assert max(seen) <= 1

    def test_preprocess_peak_memory_does_not_grow_with_the_cohort(self, tmp_path):
        def peak(trials):
            raw = synth_dir(tmp_path / f"trials{trials}", participants=3, trials=trials,
                            shifts=40)
            tracemalloc.start()
            try:
                assert run(["preprocess", "--in-dir", raw, "--out",
                            tmp_path / f"shifts{trials}.csv", "--min-overlap-s", 5.0]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(2), peak(8)
        assert large <= 1.25 * small, (small, large)


class TestHeadStillParticipant:
    """A participant whose sensitivity curves are undefined fails alone."""

    @staticmethod
    def cohort(tmp_path, betas):
        # one trial per participant; beta 0 never moves the head, so the
        # refit curve is constant and has no correlation with anything
        raw = tmp_path / "raw"
        raw.mkdir()
        for i, beta in enumerate(betas):
            cfg = SynthConfig(SoftHingeParams(beta, 12.0, 3.0), n_shifts=40, seed=i,
                              participant_id=f"p{i}")
            gaze, head, _ = synth_trace(cfg)
            ingest.write_trace_csv(str(raw / f"p{i}_t01.gaze.csv"), gaze)
            ingest.write_trace_csv(str(raw / f"p{i}_t01.head.csv"), head)
        return raw

    def sensitivity(self, tmp_path, raw):
        out = tmp_path / "sensitivity.json"
        assert run(["sensitivity", "--in-dir", raw, "--out", out,
                    "--min-overlap-s", 2.0]) == 0
        return strict_json(out.read_text())

    def test_is_reported_and_left_out_of_the_medians(self, tmp_path):
        got = self.sensitivity(tmp_path, self.cohort(tmp_path, (0.0, 0.6, 0.8)))
        people = got["participants"]
        assert people["p0"] == {
            "error": "ZeroSpreadError",
            "message": "correlation undefined for a constant sample",
        }
        assert set(people["p1"]) == set(people["p2"]) == {"10", "15", "20"}
        for thr, median in got["median_r"].items():
            assert median == float(np.median([people["p1"][thr], people["p2"][thr]]))

    def test_medians_are_null_when_every_participant_fails(self, tmp_path):
        got = self.sensitivity(tmp_path, self.cohort(tmp_path, (0.0, 0.0)))
        assert set(got["participants"]) == {"p0", "p1"}
        assert got["median_r"] == {"10": None, "15": None, "20": None}
