import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_synthetic_demo_runs(tmp_path):
    """The demo drives every stage through the CLI, so a stale flag fails here."""
    demo = os.path.join(ROOT, "scripts", "run_synthetic_demo.py")
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", demo, "--out-dir", str(tmp_path / "demo"),
         "--participants", "3", "--trials", "1", "--shifts", "12"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert os.path.isfile(tmp_path / "demo" / "report" / "summary.md")
