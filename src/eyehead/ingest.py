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
import io
import itertools
import json
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyFileError,
    MissingColumnError,
    NonMonotonicTimeError,
    NoOverlapError,
    TraceSchemaError,
)
from .models import X_MAX, X_MIN

TRACE_COLUMNS = ("participant_id", "trial_id", "timestamp_s", "yaw_deg")
SHIFT_COLUMNS = ("participant_id", "trial_id", "x_deg", "y_deg")
SCORE_COLUMNS = ("curve_id", "pc1", "pc2", "percentile_pc1")
# characters that make csv.writer's default dialect quote a field
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


@dataclass
class RawStream:
    """One yaw channel (gaze or head) for one (participant, trial)."""

    participant_id: str
    trial_id: str
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
    # | "too_few_fixations" | "too_few_samples"
    reason: str | None = None


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

    def by_participant(self) -> dict[str, "ShiftSet"]:
        """Each participant's shifts, split in one pass: ids in first-seen order, rows in order."""
        rows: dict[str, list[int]] = {}
        for i, pid in enumerate(self.participant_id):
            rows.setdefault(pid, []).append(i)
        return {pid: ShiftSet([pid] * len(idx), [self.trial_id[i] for i in idx], self.x[idx],
                              self.y[idx]) for pid, idx in rows.items()}


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
        # `not x > 0` also rejects NaN
        if not self.min_cutoff > 0:
            raise ValueError(f"min_cutoff must be > 0, got {self.min_cutoff}")
        # an infinite beta times a zero derivative is NaN on every plateau
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        if not self.derivative_cutoff > 0:
            raise ValueError(f"derivative_cutoff must be > 0, got {self.derivative_cutoff}")


def _smoothing_factor(te: np.ndarray, cutoff: float | np.ndarray) -> np.ndarray:
    tau = 1.0 / (2.0 * math.pi * cutoff)
    return 1.0 / (1.0 + tau / te)


def _low_pass(a: np.ndarray, x: np.ndarray, y0: float) -> np.ndarray:
    """y[i] = a[i] * x[i] + (1 - a[i]) * y[i - 1], from y[-1] = y0.

    The products a * x and the factors 1 - a are computed as arrays, so the
    loop over Python floats holds one multiply and one add per sample.
    """
    y = y0
    # a memoryview of a float64 array iterates as Python floats, with no list copy
    return np.array([y := ax + b * y for ax, b in zip(memoryview(a * x), memoryview(1.0 - a))],
                    dtype=float)


def one_euro(t: np.ndarray, x: np.ndarray, cfg: FilterConfig = FilterConfig()) -> np.ndarray:
    """Causal adaptive low-pass: cutoff rises with the smoothed derivative.

    State starts at the first sample with zero derivative estimate. With
    beta = 0 this is a plain first-order low-pass at min_cutoff Hz.

    Two passes of one first-order low-pass: the raw derivative is smoothed
    first, at derivative_cutoff; the signal's smoothing factors then follow
    from it in one array expression, and the signal is smoothed last.
    Every value takes the same operations in the same order as in a
    per-sample loop, so the output is bit-identical to that form, NaN
    propagation included.

    With beta = 0 the derivative pass is skipped when every raw derivative
    is finite and below 1e300 in magnitude: its smoothed values are then
    finite, so beta * |dx_hat| is exactly 0 and the factors are those of
    min_cutoff alone. Otherwise (a NaN or infinite derivative, or one near
    overflow, which can make dx_hat NaN) both passes run.
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
    if cfg.beta == 0 and np.all(np.abs(dx) < 1e300):  # False for NaN and inf
        a = _smoothing_factor(te, cfg.min_cutoff)
    else:
        dx_hat = _low_pass(_smoothing_factor(te, cfg.derivative_cutoff), dx, 0.0)
        a = _smoothing_factor(te, cfg.min_cutoff + cfg.beta * np.abs(dx_hat))
    out[0] = x[0]
    out[1:] = _low_pass(a, x[1:], float(x[0]))
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

def symmetrize_and_clean(shifts: ShiftSet, max_ecc: float = X_MAX) -> ShiftSet:
    """Fold signed shifts onto one side and enforce 0 <= y <= x <= max_ecc.

    Order matters: (1) mirror left shifts so x = |x| and y keeps its sign
    relative to the shift direction, (2) clamp head contributions that
    opposed the shift direction to zero, (3) drop x > max_ecc, (4) drop
    y > x. max_ecc must lie in (0, X_MAX], the models' domain, so every
    shift kept can be written and read back.
    """
    if not 0 < max_ecc <= X_MAX:  # also rejects NaN
        raise ValueError(f"max_ecc must be in (0, {X_MAX:g}], got {max_ecc}")
    x = np.abs(shifts.x)
    y = np.sign(shifts.x) * shifts.y
    y = np.where(y < 0.0, 0.0, y)
    folded = ShiftSet(shifts.participant_id, shifts.trial_id, x, y)
    return folded.select((x <= max_ecc) & (y <= x))


# ---------------------------------------------------------------------------
# CSV input / output
# ---------------------------------------------------------------------------

def read_table(
    path: str,
    columns: tuple[str, ...],
    floats: tuple[str, ...] = (),
    single: tuple[str, ...] = (),
) -> dict:
    """Read the named columns of a CSV table: `floats` as float64 arrays, others as strings.

    The file is read once, as bytes. It must be UTF-8, or TraceSchemaError
    names the path and the offset in the file of the first byte that is not,
    before any other check. A byte-order mark at its start is skipped. Lines
    are decoded one at a time as they are read, each ending at '\\n', '\\r' or
    '\\r\\n' only; no list of them is kept. '#' (provenance) and blank lines
    before the header are skipped, and csv.reader reads the header from those
    lines. numpy's C reader then parses the lines from data row 1 on in one
    call (RFC 4180 quoting, a quoted field may span lines, blank lines
    skipped, the doubles Python's float() gives). TraceSchemaError names the
    path and the data row of a row not as wide as the header or of a
    non-number, and also the column of a non-finite value (nan, inf) in a
    `floats` column.

    Every row of a column named in `single` must hold the value of data row
    1, which comes back as that one string. csv.reader reads row 1 first,
    and the lines it takes go to numpy ahead of the rest. numpy parses each
    such column as a string one character wider than csv's value, so any
    other value is kept whole or cut to a string that still differs from it.
    Rows are compared with numpy's own reading of row 1. numpy's strings drop
    trailing NULs, so a NUL in such a column is rejected. Either error names
    the path and the data row.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")  # a byte-order mark is valid UTF-8, so offsets count from byte 0
    except UnicodeDecodeError as exc:
        raise TraceSchemaError(f"{path}: byte 0x{raw[exc.start]:02x} at offset {exc.start} "
                               f"is not valid UTF-8 ({exc.reason})") from exc
    with io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline="") as lines:
        rows = csv.reader(ln for ln in lines if not ln.startswith("#"))
        header = next((row for row in rows if row), None)
        if header is None:
            raise EmptyFileError(path)
        if missing := [col for col in columns if col not in header]:
            raise MissingColumnError(column=missing[0], path=path)
        start = next((ln for ln in lines if ln.strip("\r\n")), None)
        if start is None:  # numpy would only warn about an empty body
            raise EmptyFileError(path)
        row_1 = [start]  # the lines of data row 1, read ahead of numpy

        kinds = {c: "f8" for c in floats}
        if single:
            nul = b"\0" in raw
            try:
                first = dict(zip(header, next(csv.reader(_taking(row_1, lines)))))
            except csv.Error:  # a field past csv's size limit: numpy reads it as object
                first = {}
            # a row 1 narrower than the header gets object columns; numpy rejects it
            kinds.update({c: f"U{len(first[c]) + 1}" if c in first and not nul else object
                          for c in single})
        try:
            data = np.loadtxt(itertools.chain(row_1, lines), delimiter=",", quotechar='"',
                              comments=None, ndmin=1,
                              dtype=[(c, kinds.get(c, object)) for c in header])
        except ValueError as exc:
            raise TraceSchemaError(f"{path}: {_data_row_message(str(exc))}") from exc
    if not all(np.isfinite(data[col]).all() for col in floats):
        named = [col for col in header if col in floats]
        row, j = np.argwhere(~np.isfinite(np.column_stack([data[c] for c in named])))[0]
        raise TraceSchemaError(f"{path}: non-finite value {data[named[j]][row]} "
                               f"in data row {row + 1}, column {named[j]}")
    one = {col: str(data[col][0]) for col in single}
    for col in single:
        if nul and (k := next((i for i, v in enumerate(data[col], 1) if "\0" in v), 0)):
            raise TraceSchemaError(f"{path}: data row {k} has a NUL character in {col}")
        if (differs := np.flatnonzero(data[col] != one[col])).size:
            raise TraceSchemaError(
                f"{path} mixes several ({', '.join(single)}) values: "
                f"data row {differs[0] + 1} differs from data row 1 in {col}"
            )
    return {
        col: one[col] if col in single else data[col] if col in floats else data[col].tolist()
        for col in columns
    }


def _taking(taken: list[str], lines):
    """Yield taken[0], then each line of `lines`, appending it to `taken` as it goes."""
    yield taken[0]
    for ln in lines:
        taken.append(ln)
        yield ln


def _data_row_message(msg: str) -> str:
    """Restate numpy's row-width or number error with the 1-based data row."""
    if m := re.search(r"requires (\d+) columns but (\d+) were found at row (\d+)", msg):
        return f"data row {m[3]} has {m[2]} fields, the header has {m[1]}"
    if m := re.search(r"string (.*) to float64 at row (\d+), column (\d+)", msg):
        return f"non-numeric value {m[1]} in data row {int(m[2]) + 1}, column {m[3]}"
    return msg


def open_output(path: str, newline: str | None = None):
    """Open `path` for writing UTF-8 text, first making its directory if need be."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    return open(path, "w", newline=newline, encoding="utf-8")


def write_table(path: str, columns: tuple[str, ...], cols, provenance: dict | None = None) -> None:
    """Write a CSV table, one sequence per column, under an optional '# provenance: {...}' line.

    Floats are written as %.9g, any other value as its str. A column given
    as one str holds that value on every row, the write-side mirror of
    `read_table`'s `single`; the other columns set the row count (none
    when every column is a str). The bytes are those of csv.writer's
    default dialect: a field is quoted only when it holds a comma, quote or
    line break, or is the empty only field of its row, and rows end with
    CRLF.
    """
    lone = len(columns) == 1
    formats, cells = [], []
    for col in cols:
        if isinstance(col, str):
            # quoted once and folded into the row format, with its '%' made literal
            formats.append(_csv_field(col, lone).replace("%", "%%"))
            continue
        if isinstance(col, np.ndarray) and col.dtype.kind == "f":
            formats.append("%.9g")
            cells.append(col)
            continue
        distinct = set(col)
        if not all(isinstance(v, str) for v in distinct):
            # a column that is not all text is formatted value by value
            col = ["%.9g" % v if isinstance(v, float) else str(v) for v in col]
            distinct = set(col)
        quoted = {text: _csv_field(text, lone) for text in distinct}
        formats.append("%s")
        cells.append(np.array([quoted[text] for text in col], dtype=object))
    # one %-format call over the values row by row; text enters through %s, so a '%' in it is inert
    row = ",".join(formats) + "\r\n"
    values = np.column_stack(cells).ravel().tolist() if cells else []
    body = row * (len(cells[0]) if cells else 0) % tuple(values)
    with open_output(path, newline="") as fh:
        if provenance is not None:
            fh.write("# provenance: " + json.dumps(provenance, sort_keys=True) + "\n")
        fh.write(",".join(_csv_field(c, lone) for c in columns) + "\r\n")
        fh.write(body)


def _csv_field(text: str, lone: bool) -> str:
    """`text` as one CSV field; `lone` when it is the only field of its row."""
    if _NEEDS_QUOTES.search(text) or (lone and not text):
        return '"' + text.replace('"', '""') + '"'
    return text


def load_trace_csv(path: str) -> RawStream:
    """Read one stream file; columns participant_id,trial_id,timestamp_s,yaw_deg.

    The file holds one (participant_id, trial_id) pair: every data row must
    repeat data row 1's ids (see `read_table`'s `single`). Samples are
    sorted by timestamp; duplicate timestamps are rejected
    (NonMonotonicTimeError names the 1-based data row of the later
    duplicate in the file), as are non-finite values (see `read_table`).
    """
    cols = read_table(path, TRACE_COLUMNS, floats=("timestamp_s", "yaw_deg"),
                      single=("participant_id", "trial_id"))
    t, yaw = cols["timestamp_s"], cols["yaw_deg"]
    order = np.argsort(t, kind="stable")
    t, yaw = t[order], yaw[order]
    dup = np.flatnonzero(np.diff(t) == 0)
    if dup.size:
        i = int(dup[0]) + 1  # the stable sort keeps tied rows in file order
        raise NonMonotonicTimeError(index=int(order[i]) + 1, timestamp=float(t[i]), context=path)
    return RawStream(cols["participant_id"], cols["trial_id"], t, yaw)


def write_trace_csv(path: str, stream: RawStream) -> None:
    cols = (stream.participant_id, stream.trial_id, stream.t, stream.yaw)
    write_table(path, TRACE_COLUMNS, cols)


def read_shifts_csv(path: str) -> ShiftSet:
    """Read a shift table; leading '#' lines (provenance) are skipped.

    An x_deg outside the models' [0, 50] domain, or a y_deg outside
    [0, x_deg], neither of which preprocess or synth writes, is a
    TraceSchemaError naming the path, the data row and the column.
    """
    cols = read_table(path, SHIFT_COLUMNS, floats=("x_deg", "y_deg"))
    x, y = cols["x_deg"], cols["y_deg"]
    for col, bad, bound in (("x_deg", (x < X_MIN) | (x > X_MAX), f"[{X_MIN:g}, {X_MAX:g}]"),
                            ("y_deg", (y < 0) | (y > x), "[0, x_deg]")):
        if (row := np.flatnonzero(bad)).size:
            raise TraceSchemaError(f"{path}: value {cols[col][row[0]]} outside {bound} "
                                   f"in data row {row[0] + 1}, column {col}")
    return ShiftSet(cols["participant_id"], cols["trial_id"], x, y)


def write_shifts_csv(path: str, shifts: ShiftSet, provenance: dict | None = None) -> None:
    """Write a shift table, optionally with a '# provenance: {...}' first line."""
    cols = (shifts.participant_id, shifts.trial_id, shifts.x, shifts.y)
    write_table(path, SHIFT_COLUMNS, cols, provenance)


def read_scores_csv(path: str) -> dict:
    """Read a score table as columns: curve_id a list, the others float arrays.

    A percentile_pc1 outside [0, 100], which score_table never writes, is a
    TraceSchemaError naming the path, the data row and the column.
    """
    table = read_table(path, SCORE_COLUMNS, floats=SCORE_COLUMNS[1:])
    percentile = table["percentile_pc1"]
    if (bad := np.flatnonzero((percentile < 0) | (percentile > 100))).size:
        raise TraceSchemaError(f"{path}: value {percentile[bad[0]]} outside [0, 100] "
                               f"in data row {bad[0] + 1}, column percentile_pc1")
    return table


def write_scores_csv(path: str, table: dict, provenance: dict | None = None) -> None:
    """Write a score table given as columns keyed by SCORE_COLUMNS (score_table's shape)."""
    write_table(path, SCORE_COLUMNS, [table[c] for c in SCORE_COLUMNS], provenance)
