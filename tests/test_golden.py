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
from hypothesis import given
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


@given(data=st.data(), value=st.one_of(
    st.just(DELETE), st.none(), st.text(max_size=4), st.booleans(),
    st.lists(st.floats(allow_nan=False), max_size=2),
))
def test_a_damaged_fit_row_is_named_by_every_stage_that_reads_it(work, data, value):
    out = work / "out"
    rows = json.loads((out / "fits.json").read_text())
    i = data.draw(st.integers(1, len(rows) - 1), label="fit row")
    key = data.draw(st.sampled_from(sorted(rows[i]["params"])), label="params key")
    if value is DELETE:
        del rows[i]["params"][key]
    else:
        rows[i]["params"][key] = value
    with tempfile.TemporaryDirectory() as tmp:
        fits = os.path.join(tmp, "fits.json")
        with open(fits, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
        for argv in (
            ["fpca", "--in", fits, "--out", os.path.join(tmp, "spectrum.json")],
            ["project", "--model", out / "spectrum.json", "--in", fits,
             "--out", os.path.join(tmp, "scores.csv")],
            ["report", "--fits", fits, "--spectrum", out / "spectrum.json",
             "--scores", out / "scores.csv", "--out-dir", os.path.join(tmp, "report")],
        ):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert dispatch([str(a) for a in argv]) == 1
            assert err.getvalue().count("\n") == 1, err.getvalue()
            payload = json.loads(err.getvalue())
            assert set(payload) == {"stage", "error", "message"}
            assert payload["message"].startswith(f"{fits}: fit row {i}: 'params'")
        assert os.listdir(tmp) == ["fits.json"]
