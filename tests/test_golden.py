"""Every artifact of every stage is byte-identical to the committed digests.

scripts/golden_digests.py builds the cohort, runs the stages and writes
tests/golden/digests.json; an output that drifts on purpose regenerates
the manifest with it, and the drift is named. The cohort's fits.json also
seeds a test of the stages that read it back.
"""

import contextlib
import csv
import importlib.util
import io
import json
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eyehead.cli import dispatch

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_script():
    spec = importlib.util.spec_from_file_location(
        "golden_digests", os.path.join(ROOT, "scripts", "golden_digests.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = load_script()


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    golden.run_stages(str(path))
    return path


def test_the_cohort_holds_a_missing_stream_and_a_no_overlap_trial(work):
    with open(work / "out" / "sanity.jsonl", encoding="utf-8") as fh:
        reasons = [json.loads(line).get("reason") for line in fh][1:]
    assert reasons.count("missing_stream") == 1
    assert reasons.count("no_overlap") == 1


def test_every_artifact_matches_the_golden_digests(work):
    with open(golden.MANIFEST, encoding="utf-8") as fh:
        manifest = json.load(fh)
    expected, found = manifest["digests"], golden.digests(str(work))
    changed = sorted(p for p in expected.keys() | found.keys() if expected.get(p) != found.get(p))
    assert not changed, (
        f"{len(changed)} of {len(expected)} artifacts differ from tests/golden/digests.json: "
        f"{changed}. The manifest was written with numpy {manifest['numpy']}, and this run "
        f"uses numpy {np.__version__}; float bytes can differ between numpy builds. If the "
        "drift is meant, rerun scripts/golden_digests.py and name the drift."
    )


DELETE = object()


def run_stage(argv):
    """dispatch(argv)'s exit code, and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = dispatch([str(a) for a in argv])
    return code, err.getvalue()


def one_line_error(stderr):
    """The stage error payload, checked to be one JSON line of {stage, error, message}."""
    assert stderr.count("\n") == 1, stderr
    payload = json.loads(stderr)
    assert set(payload) == {"stage", "error", "message"}
    return payload


def readers(tmp, out, fits=None, spectrum=None):
    """The stages that read a damaged fits.json or spectrum.json, with the cohort's other inputs."""
    argvs = [["fpca", "--in", fits, "--out", os.path.join(tmp, "spectrum.json")]] if fits else []
    fits, spectrum = fits or out / "fits.json", spectrum or out / "spectrum.json"
    return argvs + [
        ["project", "--model", spectrum, "--in", fits, "--out", os.path.join(tmp, "scores.csv")],
        ["report", "--fits", fits, "--spectrum", spectrum, "--scores", out / "scores.csv",
         "--out-dir", os.path.join(tmp, "report")],
    ]


def damage(obj, key, value):
    if value is DELETE:
        del obj[key]
    else:
        obj[key] = value


def write_damaged(tmp, name, doc):
    path = os.path.join(tmp, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


@given(data=st.data(), value=st.one_of(
    st.just(DELETE), st.none(), st.text(max_size=4), st.booleans(),
    st.lists(st.floats(allow_nan=False), max_size=2),
))
def test_a_damaged_fit_row_is_named_by_every_stage_that_reads_it(work, data, value):
    out = work / "out"
    rows = json.loads((out / "fits.json").read_text())
    i = data.draw(st.integers(1, len(rows) - 1), label="fit row")
    key = data.draw(st.sampled_from(sorted(rows[i]["params"])), label="params key")
    damage(rows[i]["params"], key, value)
    with tempfile.TemporaryDirectory() as tmp:
        fits = write_damaged(tmp, "fits.json", rows)
        for argv in readers(tmp, out, fits=fits):
            code, stderr = run_stage(argv)
            assert code == 1
            assert one_line_error(stderr)["message"].startswith(f"{fits}: fit row {i}: 'params'")
        assert os.listdir(tmp) == ["fits.json"]


# A key deleted, or its value replaced by null, a string, a boolean, a number
# or a nested list.
DAMAGE = st.one_of(
    st.just(DELETE), st.none(), st.text(max_size=4), st.booleans(),
    st.floats(allow_nan=False), st.integers(),
    st.lists(st.lists(st.floats(allow_nan=False), max_size=2), max_size=2),
)


def assert_each_exits_0_or_names_its_error(argvs):
    for argv in argvs:
        code, stderr = run_stage(argv)
        if code != 0:
            assert code == 1
            assert one_line_error(stderr)["stage"] == argv[0]


@settings(max_examples=20)
@given(data=st.data(), value=DAMAGE)
def test_a_damaged_fit_field_beside_params_is_read_or_named(work, data, value):
    out = work / "out"
    rows = json.loads((out / "fits.json").read_text())
    i = data.draw(st.integers(1, len(rows) - 1), label="fit row")
    key = data.draw(st.sampled_from(sorted(set(rows[i]) - {"params"})), label="field")
    damage(rows[i], key, value)
    with tempfile.TemporaryDirectory() as tmp:
        assert_each_exits_0_or_names_its_error(
            readers(tmp, out, fits=write_damaged(tmp, "fits.json", rows)))


@settings(max_examples=20)
@given(data=st.data(), value=DAMAGE)
def test_a_damaged_spectrum_key_is_read_or_named(work, data, value):
    out = work / "out"
    spectrum = json.loads((out / "spectrum.json").read_text())
    damage(spectrum, data.draw(st.sampled_from(sorted(spectrum)), label="key"), value)
    with tempfile.TemporaryDirectory() as tmp:
        assert_each_exits_0_or_names_its_error(
            readers(tmp, out, spectrum=write_damaged(tmp, "spectrum.json", spectrum)))


# The largest finite float, and one whose square is past the float range.
FLOAT_MAX = 1.7976931348623157e308
UNSQUARABLE = 1.7877077239923462e154


def report_argv(out, tmp, fits=None, scores=None):
    return ["report", "--fits", fits or out / "fits.json", "--spectrum", out / "spectrum.json",
            "--scores", scores or out / "scores.csv", "--out-dir", os.path.join(tmp, "report")]


def assert_report_is_finite(report):
    """Every number the report bundle holds is finite; JSON may hold null instead."""
    for path in report.rglob("*.csv"):
        with open(path, newline="", encoding="utf-8") as fh:
            table = list(csv.reader(line for line in fh if not line.startswith("#")))
        first = 1 if path.name == "scores.csv" else 0  # after the curve ids
        assert all(math.isfinite(float(v)) for row in table[1:] for v in row[first:]), path
    with open(report / "summary.json", encoding="utf-8") as fh:
        json.load(fh, parse_constant=lambda token: pytest.fail(f"summary.json holds {token}"))
    assert not re.search(r"\b(nan|inf)\b", (report / "summary.md").read_text(), re.IGNORECASE)


@pytest.mark.parametrize("key", ["aic", "r2", "rmse"])
@pytest.mark.parametrize("value", [FLOAT_MAX, -FLOAT_MAX, UNSQUARABLE])
def test_a_huge_fit_metric_is_reported_finite_or_null(work, tmp_path, key, value):
    out = work / "out"
    rows = json.loads((out / "fits.json").read_text())
    rows[1][key] = value
    fits = write_damaged(tmp_path, "fits.json", rows)
    assert run_stage(report_argv(out, tmp_path, fits=fits)) == (0, "")
    assert_report_is_finite(tmp_path / "report")
    with open(tmp_path / "report" / "summary.json", encoding="utf-8") as fh:
        comparison = json.load(fh)["model_comparison"][rows[1]["model"]]
    assert math.isfinite(comparison[f"{key}_mean"])


def write_csv_damaged(src, dst, row, column, value):
    """src with one cell (row, column) of its data set to value, or its column deleted
    (DELETE), or one field more in the row (EXTRA); '#' lines are kept."""
    with open(src, newline="", encoding="utf-8") as fh:
        lines = fh.readlines()
    comments = [line for line in lines if line.startswith("#")]
    table = list(csv.reader(line for line in lines if not line.startswith("#")))
    j = table[0].index(column)
    if value is DELETE:
        table = [r[:j] + r[j + 1:] for r in table]
    elif value is EXTRA:
        table[row + 1].append("0")
    else:
        table[row + 1][j] = value
    with open(dst, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(comments)
        csv.writer(fh).writerows(table)
    return dst


@pytest.mark.parametrize("value", ["1e160", repr(FLOAT_MAX), repr(-FLOAT_MAX)])
def test_a_huge_pc1_score_is_reported_finite(work, tmp_path, value):
    out = work / "out"
    scores = write_csv_damaged(out / "scores.csv", tmp_path / "scores.csv", 1, "pc1", value)
    assert run_stage(report_argv(out, tmp_path, scores=scores)) == (0, "")
    assert_report_is_finite(tmp_path / "report")
    with open(tmp_path / "report" / "summary.json", encoding="utf-8") as fh:
        assert math.isfinite(json.load(fh)["pc1_distribution"]["skewness"])
    with open(tmp_path / "report" / "pc1_density.csv", encoding="utf-8") as fh:
        density = [float(line.split(",")[1]) for line in fh.readlines()[2:]]
    assert max(density) > 0.0


EXTRA = object()
# A column deleted, one field more in a row, or a cell emptied or set to text,
# nan/inf, a number out of range, a huge finite number or any float.
CELL_DAMAGE = st.one_of(
    st.just(DELETE), st.just(EXTRA), st.just(""), st.text(max_size=4),
    st.sampled_from(["nan", "inf", "-inf", "-1", "51", "101", "1e160", "-1e160",
                     repr(UNSQUARABLE), repr(FLOAT_MAX), repr(-FLOAT_MAX)]),
    st.floats(allow_nan=False).map(repr),
)


@pytest.mark.parametrize("name", ["shifts.csv", "scores.csv"])
@settings(max_examples=20)
@given(data=st.data(), value=CELL_DAMAGE)
def test_a_damaged_csv_cell_is_read_or_named(work, name, data, value):
    out = work / "out"
    with open(out / name, newline="", encoding="utf-8") as fh:
        table = list(csv.reader(line for line in fh if not line.startswith("#")))
    row = data.draw(st.integers(0, len(table) - 2), label="data row")
    column = data.draw(st.sampled_from(table[0]), label="column")
    with tempfile.TemporaryDirectory() as tmp:
        damaged = write_csv_damaged(out / name, os.path.join(tmp, name), row, column, value)
        argv = (["fit", "--in", damaged, "--out", os.path.join(tmp, "fits.json")]
                if name == "shifts.csv" else report_argv(out, tmp, scores=damaged))
        assert_each_exits_0_or_names_its_error([argv])
