import os
import subprocess
import sys

from eyehead import load_trace_csv

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


def adapt(src, out, *extra):
    script = os.path.join(ROOT, "scripts", "adapt_dataset.py")
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", script, "--src-dir", str(src),
         "--out-dir", str(out), "--time-col", "frame_ts", "--gaze-col", "gaze_yaw",
         "--head-col", "head_yaw", "--name-re", r"(?P<pid>P\d+)_(?P<tid>\w+)\.csv", *extra],
        capture_output=True, text=True, timeout=300,
    )


def test_adapt_dataset_writes_loadable_trace_pairs(tmp_path):
    """The adapter takes ids from the file name, scales time, and drops bad rows:
    unparsable ones and those with a nan or infinite time, gaze or head value."""
    src, out = tmp_path / "src", tmp_path / "out"
    src.mkdir()
    (src / "P03_room2.csv").write_text(
        "frame_ts,gaze_yaw,head_yaw,extra\n0,1.5,0.5,x\n5,nan,0.7,w\n10,2.5,1.0,y\n"
        "15,3.0,inf,v\n20,-179.25,3.0,z\n")
    (src / "P14_hall.csv").write_text(
        "frame_ts,head_yaw,gaze_yaw\n-inf,0.5,3\n0,0.25,-1\n15,n/a,2\n30,0.75,4\n45,1.0,5.5\n")
    (src / "notes.csv").write_text("frame_ts,gaze_yaw,head_yaw\n0,0,0\n1,1,1\n")
    proc = adapt(src, out, "--time-scale", "0.001")
    assert proc.returncode == 0, proc.stderr
    assert "wrote 2 trace pairs" in proc.stdout
    assert "skip notes.csv: does not match --name-re" in proc.stderr
    assert "P03_room2.csv: dropped 2 unparsable or non-finite rows" in proc.stderr
    assert "P14_hall.csv: dropped 2 unparsable or non-finite rows" in proc.stderr
    assert sorted(os.listdir(out)) == ["P03_room2.gaze.csv", "P03_room2.head.csv",
                                       "P14_hall.gaze.csv", "P14_hall.head.csv"]

    expected = {
        ("P03", "room2"): ([0, 10, 20], [1.5, 2.5, -179.25], [0.5, 1.0, 3.0]),
        ("P14", "hall"): ([0, 30, 45], [-1.0, 4.0, 5.5], [0.25, 0.75, 1.0]),
    }
    for (pid, tid), (ms, gaze, head) in expected.items():
        for kind, yaw in (("gaze", gaze), ("head", head)):
            back = load_trace_csv(str(out / f"{pid}_{tid}.{kind}.csv"))
            assert (back.participant_id, back.trial_id) == (pid, tid)
            assert back.t.tolist() == [float(f"{v * 0.001:.9g}") for v in ms]
            assert back.yaw.tolist() == yaw


def test_adapt_dataset_rebases_epoch_timestamps(tmp_path):
    """Unix-millisecond timestamps start at 0 s, so 9 significant digits keep them apart."""
    src, out = tmp_path / "src", tmp_path / "out"
    src.mkdir()
    ms = [1_700_000_000_000 + 10 * k for k in range(5)]
    rows = "".join(f"{v},{k},{k / 2}\n" for k, v in enumerate(ms))
    (src / "P01_a.csv").write_text("frame_ts,gaze_yaw,head_yaw\n" + rows)
    proc = adapt(src, out, "--time-scale", "0.001")
    assert proc.returncode == 0, proc.stderr
    for kind in ("gaze", "head"):
        back = load_trace_csv(str(out / f"P01_a.{kind}.csv"))
        assert back.t.tolist() == [0.0, 0.01, 0.02, 0.03, 0.04]


def test_adapt_dataset_reads_a_byte_order_mark(tmp_path):
    """A UTF-8 byte-order mark is not part of the first column's name."""
    src, out = tmp_path / "src", tmp_path / "out"
    src.mkdir()
    (src / "P02_a.csv").write_bytes(
        b"\xef\xbb\xbfframe_ts,gaze_yaw,head_yaw\n0,1.5,0.5\n10,2.5,1.0\n")
    proc = adapt(src, out, "--time-scale", "0.001")
    assert proc.returncode == 0, proc.stderr
    assert "wrote 1 trace pairs" in proc.stdout
    back = load_trace_csv(str(out / "P02_a.gaze.csv"))
    assert (back.t.tolist(), back.yaw.tolist()) == ([0.0, 0.01], [1.5, 2.5])
