"""Text files are read and written as UTF-8 whatever the locale."""

import ast
import os
import subprocess
import sys

import pytest

from eyehead import SoftHingeParams, SynthConfig, synth_trace
from eyehead.ingest import write_trace_csv

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "src", "eyehead")
SCRIPTS = os.path.join(ROOT, "scripts")


def _text_opens_without_encoding(path):
    """(line, source) of each text-mode open(...) call in `path` without encoding=."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    found = []
    for node in ast.walk(ast.parse(source, path)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            continue
        kwargs = {kw.arg: kw.value for kw in node.keywords}
        mode = node.args[1] if len(node.args) > 1 else kwargs.get("mode")
        binary = isinstance(mode, ast.Constant) and "b" in str(mode.value)
        if not binary and "encoding" not in kwargs:
            found.append((node.lineno, ast.get_source_segment(source, node)))
    return found


def test_every_text_open_names_its_encoding():
    modules = sorted(os.path.join(d, f) for d in (PKG, SCRIPTS)
                     for f in os.listdir(d) if f.endswith(".py"))
    assert os.path.join(PKG, "ingest.py") in modules
    assert os.path.join(SCRIPTS, "run_synthetic_demo.py") in modules
    bad = {
        f"{os.path.relpath(path, ROOT)}:{line}": call
        for path in modules
        for line, call in _text_opens_without_encoding(path)
    }
    assert bad == {}


# Every stage of the pipeline in one process, writing under the directory
# given as its argument; relative paths keep the provenance names alike.
DRIVER = """
import locale, sys
from eyehead.cli import dispatch
out = sys.argv[1]
print(locale.getpreferredencoding(False))
for argv in (
    ["preprocess", "--in-dir", "traces", "--out", f"{out}/shifts.csv", "--min-overlap-s", "2",
     "--symmetry-out", f"{out}/symmetry.json"],
    ["fit", "--in", f"{out}/shifts.csv", "--out", f"{out}/fits.json"],
    ["fpca", "--in", f"{out}/fits.json", "--out", f"{out}/spectrum.json"],
    ["project", "--model", f"{out}/spectrum.json", "--in", f"{out}/fits.json",
     "--out", f"{out}/scores.csv"],
    ["report", "--fits", f"{out}/fits.json", "--spectrum", f"{out}/spectrum.json",
     "--scores", f"{out}/scores.csv", "--out-dir", f"{out}/report"],
    ["sensitivity", "--in-dir", "traces", "--out", f"{out}/sensitivity.json",
     "--min-overlap-s", "2", "--config", "cfg.json"],
):
    if dispatch(argv):
        sys.exit(1)
"""


def test_artifacts_do_not_depend_on_the_locale(tmp_path):
    # non-ASCII participant ids in ASCII file names: the file names, and so
    # the provenance input names, decode alike under any locale
    traces = tmp_path / "traces"
    for i, pid in enumerate(("pø1", "pé2", "p3")):
        params = SoftHingeParams(0.5 + 0.1 * i, 10.0 + 5.0 * i, 3.0)
        gaze, head, _ = synth_trace(SynthConfig(params, n_shifts=30, seed=i, participant_id=pid))
        write_trace_csv(str(traces / f"p{i}_t01.gaze.csv"), gaze)
        write_trace_csv(str(traces / f"p{i}_t01.head.csv"), head)
    (tmp_path / "cfg.json").write_text('{"thresholds": "10,15,20"}', encoding="utf-8")

    env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "LANG", "PYTHON"))}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    outputs = {}
    for out, extra_env, flags in (
        ("utf8", {"LC_ALL": "C.UTF-8", "PYTHONUTF8": "1"}, ("-X", "utf8=1")),
        ("c", {"LC_ALL": "C", "PYTHONUTF8": "0"}, ("-X", "utf8=0")),
    ):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", DRIVER, out], cwd=tmp_path, env={**env, **extra_env},
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        if out == "c" and proc.stdout.split()[0].lower().replace("-", "") == "utf8":
            pytest.skip("the C locale is UTF-8 on this platform")
        root = tmp_path / out
        outputs[out] = {
            str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()
        }

    assert "pø1".encode() in outputs["utf8"]["shifts.csv"]
    assert outputs["c"] == outputs["utf8"]
