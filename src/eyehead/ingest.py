"""Trace loading, yaw unwrapping, smoothing, alignment, and shift tables.

A *raw stream* is one yaw channel (gaze-in-world or head-in-world, degrees)
for one participant and trial, sampled at timestamps in seconds. Gaze and
head are recorded by different devices at different rates, so a trial is
analyzed on the gaze timebase over the window where both devices were
recording, with head yaw linearly interpolated onto gaze timestamps.

Yaw angles wrap at +-180 degrees; `unwrap_yaw` removes the jumps so that
velocities and inter-fixation displacements are meaningful. Interpolating or
differencing across a wrap seam would fabricate huge excursions, so both
channels are unwrapped before alignment.

A *shift table* is the flat per-gaze-shift record (participant, trial,
eccentricity x, head contribution y, both degrees) that the model-fitting
layer consumes.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from array import array
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .errors import (
    EmptyFileError,
    MissingColumnError,
    NonMonotonicTimeError,
    NoOverlapError,
    TraceSchemaError,
)

TRACE_COLUMNS = ("participant_id", "trial_id", "timestamp_s", "yaw_deg")
SHIFT_COLUMNS = ("participant_id", "trial_id", "x_deg", "y_deg")
SCORE_COLUMNS = ("curve_id", "pc1", "pc2", "percentile_pc1")


@dataclass
class RawStream:
    """One yaw channel for one (participant, trial); kind is 'gaze' or 'head'."""

    participant_id: str
    trial_id: str
    kind: str
    t: np.ndarray
    yaw: np.ndarray


@dataclass
class AlignedTrace:
    """Gaze and head yaw on the shared gaze timebase, both unwrapped, raw.

    overlap_s is the duration both devices were recording; gap_max_s is the
    largest sampling gap either device had inside that window.
    """

    participant_id: str
    trial_id: str
    t: np.ndarray
    gaze_yaw: np.ndarray
    head_yaw: np.ndarray
    overlap_s: float = float("nan")
    gap_max_s: float = float("nan")


@dataclass
class SanityReport:
    """Per-trial retention verdict; reason is set when verdict is 'fail'."""

    participant_id: str
    trial_id: str
    overlap_s: float
    gap_max_s: float
    verdict: str  # "pass" | "fail"
    # "short_overlap" | "discontinuity" | "missing_stream" | "no_overlap"
    reason: str | None = None

    def to_dict(self) -> dict:
        return {
            "participant_id": self.participant_id,
            "trial_id": self.trial_id,
            "overlap_s": self.overlap_s,
            "gap_max_s": self.gap_max_s,
            "verdict": self.verdict,
            "reason": self.reason,
        }


@dataclass
class ShiftSet:
    """Parallel per-shift records; x and y may be signed before cleaning."""

    participant_id: list[str]
    trial_id: list[str]
    x: np.ndarray
    y: np.ndarray

    def __len__(self) -> int:
        return int(self.x.size)

    def select(self, mask: np.ndarray) -> "ShiftSet":
        idx = np.flatnonzero(mask)
        return ShiftSet(
            participant_id=[self.participant_id[i] for i in idx],
            trial_id=[self.trial_id[i] for i in idx],
            x=self.x[idx],
            y=self.y[idx],
        )

    def for_participant(self, pid: str) -> "ShiftSet":
        mask = np.array([p == pid for p in self.participant_id], dtype=bool)
        return self.select(mask)

    def participants(self) -> list[str]:
        seen: dict[str, None] = {}
        for p in self.participant_id:
            seen.setdefault(p)
        return list(seen)


def concat_shift_sets(parts: list[ShiftSet]) -> ShiftSet:
    parts = [p for p in parts if len(p)]
    if not parts:
        return ShiftSet([], [], np.empty(0), np.empty(0))
    return ShiftSet(
        participant_id=[p for s in parts for p in s.participant_id],
        trial_id=[t for s in parts for t in s.trial_id],
        x=np.concatenate([s.x for s in parts]),
        y=np.concatenate([s.y for s in parts]),
    )


# ---------------------------------------------------------------------------
# unwrapping and smoothing
# ---------------------------------------------------------------------------

def unwrap_yaw(yaw: np.ndarray) -> np.ndarray:
    """Remove +-360 wrap jumps from a yaw series (degrees).

    Each sample-to-sample difference d is corrected by -360 * rint(d / 360),
    and corrections accumulate forward. rint rounds half to even, so an
    exact +-180 step is left alone regardless of sign and mirrored inputs
    stay mirrored.
    """
    yaw = np.asarray(yaw, dtype=float)
    if yaw.size < 2:
        return yaw.copy()
    d = np.diff(yaw)
    corrections = -360.0 * np.rint(d / 360.0)
    out = yaw.copy()
    out[1:] += np.cumsum(corrections)
    return out


@dataclass(frozen=True)
class FilterConfig:
    """Adaptive low-pass parameters; defaults suit ~100 Hz VR yaw traces."""

    min_cutoff: float = 1.0
    beta: float = 0.0
    derivative_cutoff: float = 1.0

    def __post_init__(self) -> None:
        if self.min_cutoff <= 0:
            raise ValueError(f"min_cutoff must be > 0, got {self.min_cutoff}")
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")


def _smoothing_factor(te: float, cutoff: float) -> float:
    tau = 1.0 / (2.0 * math.pi * cutoff)
    return 1.0 / (1.0 + tau / te)


def one_euro(t: np.ndarray, x: np.ndarray, cfg: FilterConfig = FilterConfig()) -> np.ndarray:
    """Causal adaptive low-pass: cutoff rises with the smoothed derivative.

    State starts at the first sample with zero derivative estimate. With
    beta = 0 this is a plain first-order low-pass at min_cutoff Hz.

    Intervals, raw derivatives and derivative smoothing factors are
    computed as numpy arrays; the loop over Python floats holds only the
    two recurrences and the signal's smoothing factor, which depends on
    the smoothed derivative. Every value takes the same operations in the
    same order as in a per-sample loop, so the output is bit-identical to
    that form, NaN propagation included.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    if x.size == 0:
        return out
    te = np.diff(t)
    back = np.flatnonzero(te <= 0)  # NaN intervals pass, as in the per-sample form
    if back.size:
        i = int(back[0]) + 1
        raise NonMonotonicTimeError(index=i, timestamp=float(t[i]), context="one_euro")
    dx = np.diff(x) / te
    a_d = _smoothing_factor(te, cfg.derivative_cutoff)
    out[0] = x[0]
    x_hat = float(x[0])
    dx_hat = 0.0
    smoothed = array("d")
    # a memoryview of a float64 array iterates as Python floats, with no list copy
    samples = zip(memoryview(x[1:]), memoryview(dx), memoryview(a_d), memoryview(te))
    for xi, dxi, adi, tei in samples:
        dx_hat = adi * dxi + (1.0 - adi) * dx_hat
        a = _smoothing_factor(tei, cfg.min_cutoff + cfg.beta * abs(dx_hat))
        x_hat = a * xi + (1.0 - a) * x_hat
        smoothed.append(x_hat)
    out[1:] = smoothed
    return out


# ---------------------------------------------------------------------------
# alignment and sanity checks
# ---------------------------------------------------------------------------

def _max_gap(t: np.ndarray, lo: float, hi: float) -> float:
    inside = t[(t >= lo) & (t <= hi)]
    if inside.size < 2:
        return 0.0
    return float(np.max(np.diff(inside)))


def align_head_to_gaze(gaze: RawStream, head: RawStream) -> AlignedTrace:
    """Unwrap both channels and put head yaw on the gaze timebase.

    Keeps gaze samples inside the time window covered by both devices and
    linearly interpolates head yaw there. Raises NoOverlapError when the
    devices share no window (or it holds fewer than two gaze samples).
    """
    if gaze.participant_id != head.participant_id or gaze.trial_id != head.trial_id:
        raise TraceSchemaError(
            f"gaze stream ({gaze.participant_id}, {gaze.trial_id}) does not match "
            f"head stream ({head.participant_id}, {head.trial_id})"
        )
    t0 = max(gaze.t[0], head.t[0])
    t1 = min(gaze.t[-1], head.t[-1])
    if t1 <= t0:
        raise NoOverlapError(
            f"gaze covers [{gaze.t[0]:.3f}, {gaze.t[-1]:.3f}] s but head covers "
            f"[{head.t[0]:.3f}, {head.t[-1]:.3f}] s: no shared window"
        )
    keep = (gaze.t >= t0) & (gaze.t <= t1)
    t = gaze.t[keep]
    if t.size < 2:
        raise NoOverlapError("fewer than two gaze samples inside the shared window")
    gaze_yaw = unwrap_yaw(gaze.yaw)[keep]
    head_yaw = np.interp(t, head.t, unwrap_yaw(head.yaw))
    gap = max(_max_gap(gaze.t, t0, t1), _max_gap(head.t, t0, t1))
    return AlignedTrace(
        participant_id=gaze.participant_id,
        trial_id=gaze.trial_id,
        t=t,
        gaze_yaw=gaze_yaw,
        head_yaw=head_yaw,
        overlap_s=float(t1 - t0),
        gap_max_s=gap,
    )


def sanity_check(
    trace: AlignedTrace,
    min_overlap_s: float = 25.0,
    max_gap_s: float = 0.5,
) -> SanityReport:
    """Trial retention: enough device overlap and no long sampling gaps."""
    if trace.overlap_s <= min_overlap_s:
        verdict, reason = "fail", "short_overlap"
    elif trace.gap_max_s > max_gap_s:
        verdict, reason = "fail", "discontinuity"
    else:
        verdict, reason = "pass", None
    return SanityReport(
        participant_id=trace.participant_id,
        trial_id=trace.trial_id,
        overlap_s=trace.overlap_s,
        gap_max_s=trace.gap_max_s,
        verdict=verdict,
        reason=reason,
    )


def unaligned_report(participant_id: str, trial_id: str, reason: str) -> SanityReport:
    """Failure report for a trial whose two streams could not be aligned."""
    return SanityReport(
        participant_id=participant_id,
        trial_id=trial_id,
        overlap_s=0.0,
        gap_max_s=float("nan"),
        verdict="fail",
        reason=reason,
    )


def missing_stream_report(participant_id: str, trial_id: str) -> SanityReport:
    """Failure report for a trial where one device's file is absent."""
    return unaligned_report(participant_id, trial_id, "missing_stream")


def participant_passes(reports: list[SanityReport], expected_trials: int) -> bool:
    """A participant is retained only if every expected trial passes."""
    passing = sum(1 for r in reports if r.verdict == "pass")
    return passing == expected_trials and len(reports) == expected_trials


# ---------------------------------------------------------------------------
# shift cleaning
# ---------------------------------------------------------------------------

def symmetrize_and_clean(shifts: ShiftSet, max_ecc: float = 50.0) -> ShiftSet:
    """Fold signed shifts onto one side and enforce 0 <= y <= x <= max_ecc.

    Order matters: (1) mirror left shifts so x = |x| and y keeps its sign
    relative to the shift direction, (2) clamp head contributions that
    opposed the shift direction to zero, (3) drop x > max_ecc, (4) drop
    y > x.
    """
    x = np.abs(shifts.x)
    y = np.sign(shifts.x) * shifts.y
    y = np.where(y < 0.0, 0.0, y)
    folded = ShiftSet(shifts.participant_id, shifts.trial_id, x, y)
    return folded.select((x <= max_ecc) & (y <= x))


# ---------------------------------------------------------------------------
# CSV input / output
# ---------------------------------------------------------------------------

def read_table(path: str, columns: tuple[str, ...], floats: tuple[str, ...] = ()) -> dict:
    """Read the named columns of a CSV table: `floats` as float64 arrays, others as strings.

    '#' (provenance) and blank lines before the header are skipped. numpy's C
    reader parses the body in one pass (RFC 4180 quoting, blank lines skipped,
    the doubles Python's float() gives). TraceSchemaError names the path and
    the data row of a row not as wide as the header or of a non-number.
    """
    with open(path, newline="") as fh:
        rows = csv.reader(ln for ln in fh if not ln.startswith("#"))
        header = next((row for row in rows if row), None)
        if header is None:
            raise EmptyFileError(path)
        if missing := [col for col in columns if col not in header]:
            raise MissingColumnError(column=missing[0], path=path)
        first = next((ln for ln in fh if ln.strip("\r\n")), None)
        if first is None:  # numpy would only warn about an empty body
            raise EmptyFileError(path)
        try:
            data = np.loadtxt(chain([first], fh), delimiter=",", quotechar='"', comments=None,
                              dtype=[(c, "f8" if c in floats else object) for c in header], ndmin=1)
        except ValueError as exc:
            raise TraceSchemaError(f"{path}: {_data_row_message(str(exc))}") from exc
    return {col: data[col] if col in floats else data[col].tolist() for col in columns}


def _data_row_message(msg: str) -> str:
    """Restate numpy's row-width or number error with the 1-based data row."""
    if m := re.search(r"requires (\d+) columns but (\d+) were found at row (\d+)", msg):
        return f"data row {m[3]} has {m[2]} fields, the header has {m[1]}"
    if m := re.search(r"string (.*) to float64 at row (\d+), column (\d+)", msg):
        return f"non-numeric value {m[1]} in data row {int(m[2]) + 1}, column {m[3]}"
    return msg


def open_output(path: str, newline: str | None = None):
    """Open `path` for writing text, first making its directory if need be."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    return open(path, "w", newline=newline)


def write_table(path: str, columns: tuple[str, ...], rows, provenance: dict | None = None) -> None:
    """Write a CSV table, optionally under a '# provenance: {...}' first line.

    csv.writer's default dialect: fields quoted only when they hold a comma,
    quote or line break, and CRLF row endings. Floats are written as %.9g.
    """
    with open_output(path, newline="") as fh:
        if provenance is not None:
            fh.write("# provenance: " + json.dumps(provenance, sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(
            [f"{c:.9g}" if isinstance(c, float) else c for c in row] for row in rows
        )


def load_trace_csv(path: str, kind: str = "gaze") -> RawStream:
    """Read one stream file; columns participant_id,trial_id,timestamp_s,yaw_deg.

    Samples are sorted by timestamp; duplicate timestamps are rejected
    (NonMonotonicTimeError names the offending row), as are non-finite yaw
    values.
    """
    if kind not in ("gaze", "head"):
        raise ValueError(f"kind must be 'gaze' or 'head', got {kind!r}")
    cols = read_table(path, TRACE_COLUMNS, floats=("timestamp_s", "yaw_deg"))
    pids = set(cols["participant_id"])
    tids = set(cols["trial_id"])
    if len(pids) != 1 or len(tids) != 1:
        raise TraceSchemaError(
            f"{path} mixes several (participant, trial) pairs: {sorted(pids)} x {sorted(tids)}"
        )
    t, yaw = cols["timestamp_s"], cols["yaw_deg"]
    if not np.all(np.isfinite(t)) or not np.all(np.isfinite(yaw)):
        raise TraceSchemaError(f"{path}: non-finite timestamp or yaw value")
    order = np.argsort(t, kind="stable")
    t, yaw = t[order], yaw[order]
    dup = np.flatnonzero(np.diff(t) == 0)
    if dup.size:
        i = int(dup[0]) + 1
        raise NonMonotonicTimeError(index=i, timestamp=float(t[i]), context=path)
    return RawStream(pids.pop(), tids.pop(), kind, t, yaw)


def write_trace_csv(path: str, stream: RawStream) -> None:
    write_table(
        path,
        TRACE_COLUMNS,
        zip(repeat(stream.participant_id), repeat(stream.trial_id),
            stream.t.tolist(), stream.yaw.tolist()),
    )


def read_shifts_csv(path: str) -> ShiftSet:
    """Read a shift table; leading '#' lines (provenance) are skipped."""
    cols = read_table(path, SHIFT_COLUMNS, floats=("x_deg", "y_deg"))
    return ShiftSet(cols["participant_id"], cols["trial_id"], cols["x_deg"], cols["y_deg"])


def write_shifts_csv(path: str, shifts: ShiftSet, provenance: dict | None = None) -> None:
    """Write a shift table, optionally with a '# provenance: {...}' first line."""
    write_table(
        path,
        SHIFT_COLUMNS,
        zip(shifts.participant_id, shifts.trial_id, shifts.x.tolist(), shifts.y.tolist()),
        provenance,
    )


def read_scores_csv(path: str) -> list[dict]:
    """Read a score table; leading '#' lines (provenance) are skipped."""
    cols = read_table(path, SCORE_COLUMNS, floats=SCORE_COLUMNS[1:])
    values = [cols["curve_id"]] + [cols[c].tolist() for c in SCORE_COLUMNS[1:]]
    return [dict(zip(SCORE_COLUMNS, row)) for row in zip(*values)]


def write_scores_csv(path: str, rows: list[dict], provenance: dict | None = None) -> None:
    """Write a score table (one dict per curve, keyed by SCORE_COLUMNS)."""
    write_table(path, SCORE_COLUMNS, ([r[c] for c in SCORE_COLUMNS] for r in rows), provenance)
