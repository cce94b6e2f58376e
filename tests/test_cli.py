import json
import math
import warnings

import pytest

from eyehead import FitResult, read_shifts_csv
from eyehead import ingest
from eyehead.cli import DEFAULTS, build_parser, dispatch
from eyehead.ingest import SCORE_COLUMNS, SHIFT_COLUMNS, TRACE_COLUMNS
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
        assert run(["fit", "--in", shifts, "--out", fits, "--starts", 8]) == 0
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
            "--thresholds", "15,20", "--base-threshold", "15", "--starts", "6",
            "--min-overlap-s", "2.0",
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        med = payload["median_r"]
        assert set(med) == {"15", "20"}
        assert med["15"] == pytest.approx(1.0, abs=1e-9)

    def test_rerun_is_byte_identical(self, tmp_path):
        raw = synth_dir(tmp_path, participants=2, trials=1, shifts=10)
        shifts = preprocess(tmp_path, raw)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["fit", "--in", shifts, "--out", a, "--starts", 6]) == 0
        assert run(["fit", "--in", shifts, "--out", b, "--starts", 6]) == 0
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
        assert run(["fit", "--in", shifts, "--out", fits, "--starts", 4]) == 0
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

    def test_bad_model_name(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([
                "fit", "--in", "x.csv", "--out", "y.json", "--model", "cubic",
            ])
        assert exc.value.code == 2


class TestConfigResolution:
    def test_config_file_feeds_defaults(self, tmp_path, capsys):
        raw = synth_dir(tmp_path, participants=2, trials=1, shifts=10)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"starts": 4, "seed": 7}))
        shifts = preprocess(tmp_path, raw)

        with_cfg = tmp_path / "with_cfg.json"
        explicit = tmp_path / "explicit.json"
        assert run(["fit", "--in", shifts, "--out", with_cfg, "--config", cfg]) == 0
        assert run(["fit", "--in", shifts, "--out", explicit,
                    "--starts", 4, "--seed", 7]) == 0
        assert with_cfg.read_bytes() == explicit.read_bytes()

    def test_flag_overrides_config(self, tmp_path):
        raw = synth_dir(tmp_path, participants=2, trials=1, shifts=10)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 7}))
        shifts = preprocess(tmp_path, raw)

        overridden = tmp_path / "o.json"
        plain = tmp_path / "p.json"
        assert run(["fit", "--in", shifts, "--out", overridden,
                    "--config", cfg, "--seed", 3, "--starts", 4]) == 0
        assert run(["fit", "--in", shifts, "--out", plain,
                    "--seed", 3, "--starts", 4]) == 0
        assert overridden.read_bytes() == plain.read_bytes()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_starts": 4}))
        code = run(["fit", "--in", "x.csv", "--out", "y.json", "--config", cfg])
        assert code == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ValueError"
        assert "n_starts" in payload["message"]

    @pytest.mark.parametrize("key, value", [("seed", 1.7), ("starts", True)])
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


class TestProvenance:
    def test_provenance_pins_inputs_and_config(self, tmp_path):
        raw = synth_dir(tmp_path, participants=2, trials=1, shifts=10)
        shifts = preprocess(tmp_path, raw)
        fits = tmp_path / "fits.json"
        assert run(["fit", "--in", shifts, "--out", fits, "--starts", 4]) == 0
        prov = json.loads(fits.read_text())[0]["provenance"]
        assert set(prov) == {"config_hash", "seed", "inputs"}
        assert list(prov["inputs"]) == [shifts.name]
        digest = prov["inputs"][shifts.name]
        assert len(digest) == 64 and int(digest, 16) >= 0

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
        assert run(["fit", "--in", shifts, "--out", fits, "--starts", 4]) == 0
        assert run(["fpca", "--in", fits, "--out", spectrum]) == 0
        assert run(["project", "--model", spectrum, "--in", fits, "--out", scores]) == 0
        assert run(["report", "--fits", fits, "--spectrum", spectrum,
                    "--scores", scores, "--out-dir", out / "report"]) == 0
        assert run(["sensitivity", "--in-dir", raw, "--out", out / "sensitivity.json",
                    "--thresholds", "15,20", "--starts", 4, "--min-overlap-s", 2.0]) == 0

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
        assert run(["fit", "--in", shifts, "--out", fits, "--starts", 4]) == 0
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
        assert all(math.isnan(FitResult.from_file_dict(r).r2) for r in flat)
        assert all(r["r2"] is not None for r in rows if r["participant_id"] == "mover")

    def test_preprocess_creates_output_directories(self, tmp_path):
        raw = synth_dir(tmp_path, participants=2, trials=1, shifts=12)
        new = tmp_path / "new"
        outputs = (new / "shifts.csv", new / "symmetry.json", tmp_path / "log" / "sanity.jsonl")
        assert run(["preprocess", "--in-dir", raw, "--out", outputs[0],
                    "--symmetry-out", outputs[1], "--sanity-out", outputs[2],
                    "--min-overlap-s", 2.0]) == 0
        assert all(path.exists() for path in outputs)


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
                    "--thresholds", "15,20", "--starts", 4, *setting]) == 0
        kept = read_shifts_csv(shifts).participants()
        assert len(kept) == 2
        assert sorted(json.loads(sens.read_text())["participants"]) == sorted(kept)
