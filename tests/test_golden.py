"""Every artifact of every stage is byte-identical to the committed digests.

scripts/golden_digests.py builds the cohort, runs the stages and writes
tests/golden/digests.json; an output that drifts on purpose regenerates
the manifest with it, and the drift is named. The cohort's fits.json also
seeds a test of the stages that read it back.
"""

import contextlib
import importlib.util
import io
import json
import os
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
