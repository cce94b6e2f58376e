#!/usr/bin/env python3
"""Adapt third-party recordings to the canonical trace-pair layout.

The pipeline reads one CSV per stream with columns
participant_id,trial_id,timestamp_s,yaw_deg and pairs files named
<stem>.gaze.csv / <stem>.head.csv. Public datasets ship other shapes, so
this adapter maps columns by name, converts units, and writes the pairs.

Each source file must hold one trial with gaze and head signals in
separate columns (wide layout). Participant and trial ids come from the
file name via a regex with named groups, e.g. for files like
P03_room2.csv:

    python3 scripts/adapt_dataset.py --src-dir raw/ --out-dir adapted/ \\
        --time-col frame_ts --gaze-col gaze_yaw --head-col head_yaw \\
        --name-re '(?P<pid>P\\d+)_(?P<tid>\\w+)\\.csv' --time-scale 0.001

Timestamps are rebased: each file's smallest kept timestamp becomes 0 s,
and gaze and head, which share the time column, stay aligned. A clock such
as Unix milliseconds would otherwise lose its sub-second part to the trace
format's 9 significant digits. The rebase is done in source units, before
--time-scale, so that a large offset cancels exactly.

Rows with unparsable numbers are dropped with a warning; the downstream
loader enforces the rest (monotone time, finite yaw).
"""

import argparse
import collections
import csv
import os
import re
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from eyehead import RawStream, write_trace_csv
from eyehead.cli import TRACE_FILE, TRACE_KINDS


def convert_file(path, out_dir, opts) -> str | None:
    name = os.path.basename(path)
    m = re.fullmatch(opts.name_re, name)
    if not m:
        print(f"skip {name}: does not match --name-re", file=sys.stderr)
        return None
    pid, tid = m.group("pid"), m.group("tid")

    t, gaze, head = [], [], []
    dropped = 0
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        missing = {opts.time_col, opts.gaze_col, opts.head_col} - set(reader.fieldnames or ())
        if missing:
            print(f"skip {name}: missing columns {sorted(missing)}", file=sys.stderr)
            return None
        for row in reader:
            try:
                # parse the whole row first, so a bad value drops it from all three columns
                ts, g, h = (float(row[c]) for c in (opts.time_col, opts.gaze_col, opts.head_col))
            except (TypeError, ValueError):
                dropped += 1
                continue
            t.append(ts)
            gaze.append(g * opts.angle_scale)
            head.append(h * opts.angle_scale)
    if dropped:
        print(f"{name}: dropped {dropped} unparsable rows", file=sys.stderr)
    if len(t) < 2:
        print(f"skip {name}: fewer than 2 usable rows", file=sys.stderr)
        return None

    t = (np.asarray(t) - min(t)) * opts.time_scale
    gaze, head = np.asarray(gaze), np.asarray(head)
    stem = os.path.join(out_dir, f"{pid}_{tid}")
    for kind, yaw in zip(TRACE_KINDS, (gaze, head)):
        write_trace_csv(TRACE_FILE.format(stem=stem, kind=kind), RawStream(pid, tid, t, yaw))
    return stem


def main() -> None:
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__,
    )
    ap.add_argument("--src-dir", required=True, help="directory of source CSV files")
    ap.add_argument("--out-dir", required=True, help="where to write the trace pairs")
    ap.add_argument("--time-col", required=True, help="source timestamp column")
    ap.add_argument("--gaze-col", required=True, help="source gaze yaw column")
    ap.add_argument("--head-col", required=True, help="source head yaw column")
    ap.add_argument("--name-re", required=True,
                    help="regex over the file name with (?P<pid>...) and (?P<tid>...) groups")
    ap.add_argument("--time-scale", type=float, default=1.0,
                    help="multiply timestamps by this to get seconds (default 1)")
    ap.add_argument("--angle-scale", type=float, default=1.0,
                    help="multiply angles by this to get degrees (default 1)")
    opts = ap.parse_args()

    os.makedirs(opts.out_dir, exist_ok=True)
    sources = sorted(
        os.path.join(opts.src_dir, f)
        for f in os.listdir(opts.src_dir)
        if f.endswith(".csv")
    )
    if not sources:
        raise SystemExit(f"no .csv files under {opts.src_dir}")

    written = [s for s in (convert_file(p, opts.out_dir, opts) for p in sources) if s]
    for stem, n in collections.Counter(written).items():
        if n > 1:
            print(f"warning: {n} source files mapped to {os.path.basename(stem)}; "
                  "later ones overwrote earlier ones — check --name-re",
                  file=sys.stderr)
    print(f"wrote {len(set(written))} trace pairs to {opts.out_dir}")
    if not written:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
