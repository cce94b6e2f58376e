"""Every artifact of every stage is byte-identical to the committed digests.

scripts/golden_digests.py builds the cohort, runs the stages and writes
tests/golden/digests.json; an output that drifts on purpose regenerates
the manifest with it, and the drift is named.
"""

import importlib.util
import json
import os

import numpy as np
import pytest

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
