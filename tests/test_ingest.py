import csv
import io
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eyehead import (
    AlignedTrace,
    EmptyFileError,
    FilterConfig,
    MissingColumnError,
    NonMonotonicTimeError,
    NoOverlapError,
    RawStream,
    ShiftSet,
    TraceSchemaError,
    align_head_to_gaze,
    load_trace_csv,
    one_euro,
    read_shifts_csv,
    sanity_check,
    symmetrize_and_clean,
    unwrap_yaw,
    write_shifts_csv,
    write_trace_csv,
)
from eyehead import ingest
from eyehead.ingest import TRACE_COLUMNS, missing_stream_report, participant_passes

from .conftest import write_trace
from .oracles import TimeOrderError, one_euro_loop, read_table_csv


def stream(kind="gaze", pid="p01", tid="t01", t=None, yaw=None):
    t = np.asarray([0.0, 0.1, 0.2, 0.3] if t is None else t, dtype=float)
    yaw = np.asarray(np.zeros_like(t) if yaw is None else yaw, dtype=float)
    return RawStream(pid, tid, kind, t, yaw)


class TestUnwrap:
    def test_seam_crossing_becomes_continuous(self):
        # -179 to +179 is a -2 degree move through the seam, not +358
        out = unwrap_yaw(np.array([-179.0, 179.0]))
        np.testing.assert_allclose(out, [-179.0, -181.0])

    def test_exact_half_turn_is_left_alone(self):
        np.testing.assert_allclose(unwrap_yaw(np.array([0.0, 180.0])), [0.0, 180.0])
        np.testing.assert_allclose(unwrap_yaw(np.array([0.0, -180.0])), [0.0, -180.0])

    def test_continuous_input_unchanged(self):
        yaw = np.cumsum(np.full(50, 3.0))
        np.testing.assert_array_equal(unwrap_yaw(yaw), yaw)

    @given(
        st.lists(st.floats(-179.0, 179.0), min_size=1, max_size=60),
        st.floats(-179.0, 179.0),
    )
    def test_round_trip_through_wrapping(self, steps, start):
        path = start + np.concatenate([[0.0], np.cumsum(steps)])
        wrapped = (path + 180.0) % 360.0 - 180.0
        recovered = unwrap_yaw(wrapped)
        # recovery is exact up to a single global 360k offset
        offset = recovered[0] - path[0]
        assert offset == pytest.approx(round(offset / 360.0) * 360.0, abs=1e-9)
        np.testing.assert_allclose(recovered - offset, path, atol=1e-9)


class TestOneEuro:
    def test_hand_computed_steps(self):
        # worked by hand for min_cutoff=1, beta=0, derivative_cutoff=1 at 10 Hz
        t = np.array([0.0, 0.1, 0.2])
        x = np.array([0.0, 1.0, 2.0])
        out = one_euro(t, x, FilterConfig())
        np.testing.assert_allclose(
            out, [0.0, 0.38586954509503757, 1.0087133294532615], atol=1e-15
        )

    def test_first_sample_passthrough(self):
        out = one_euro(np.array([5.0, 5.5]), np.array([42.0, 40.0]))
        assert out[0] == 42.0

    def test_constant_signal_unchanged(self):
        t = np.linspace(0.0, 1.0, 30)
        out = one_euro(t, np.full(30, 7.5))
        np.testing.assert_allclose(out, 7.5)

    def test_nonincreasing_time_rejected(self):
        with pytest.raises(NonMonotonicTimeError):
            one_euro(np.array([0.0, 0.1, 0.1]), np.zeros(3))

    def test_smooths_noise(self, rng):
        t = np.arange(0.0, 2.0, 1 / 120)
        clean = np.sin(2 * np.pi * 0.5 * t)
        noisy = clean + rng.normal(0.0, 3.0, t.size)
        out = one_euro(t, noisy)
        assert np.std(out - clean) < 0.5 * np.std(noisy - clean)

    def test_huge_cutoff_is_identity(self):
        t = np.arange(0.0, 1.0, 1 / 60)
        x = np.sin(7.0 * t) * 30.0
        out = one_euro(t, x, FilterConfig(min_cutoff=1e9))
        np.testing.assert_allclose(out, x, atol=1e-6)


@st.composite
def filtered_trace(draw, max_size=120):
    """(t, yaw, FilterConfig): strictly increasing t, finite yaw, beta 0 or > 0."""
    steps = draw(st.lists(st.floats(1e-4, 0.2), min_size=1, max_size=max_size))
    t = draw(st.floats(0.0, 1e3)) + np.cumsum(steps)
    yaw = np.array(draw(st.lists(
        st.floats(-1e4, 1e4), min_size=t.size, max_size=t.size)))
    cfg = FilterConfig(
        min_cutoff=draw(st.floats(0.05, 20.0)),
        beta=draw(st.just(0.0) | st.floats(1e-4, 2.0)),
        derivative_cutoff=draw(st.floats(0.05, 20.0)),
    )
    return t, yaw, cfg


def oracle(t, yaw, cfg):
    return one_euro_loop(t, yaw, cfg.min_cutoff, cfg.beta, cfg.derivative_cutoff)


class TestOneEuroMatchesPerSampleLoop:
    """The array form of the filter against the per-sample loop (tests/oracles.py)."""

    @given(filtered_trace())
    def test_bit_identical(self, case):
        t, yaw, cfg = case
        assert one_euro(t, yaw, cfg).tobytes() == oracle(t, yaw, cfg).tobytes()

    @given(filtered_trace(), st.data())
    def test_non_finite_yaw_propagates_alike(self, case, data):
        t, yaw, cfg = case
        bad = data.draw(st.lists(st.integers(0, t.size - 1), min_size=1, max_size=3))
        yaw[bad] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        with np.errstate(invalid="ignore"):
            got, want = one_euro(t, yaw, cfg), oracle(t, yaw, cfg)
        np.testing.assert_array_equal(got, want)
        if np.isnan(yaw).any():
            first = int(np.flatnonzero(np.isnan(yaw))[0])
            assert np.isnan(got[first:]).all()

    @given(filtered_trace(), st.data())
    def test_non_increasing_time_is_named_alike(self, case, data):
        t, yaw, cfg = case
        if t.size < 2:
            t, yaw = np.append(t, t[-1] + 0.01), np.append(yaw, yaw[-1])
        k = data.draw(st.integers(1, t.size - 1))
        t[k] = t[k - 1] - data.draw(st.sampled_from([0.0, 1e-3, 5.0]))
        with pytest.raises(NonMonotonicTimeError) as got:
            one_euro(t, yaw, cfg)
        with pytest.raises(TimeOrderError) as want:
            oracle(t, yaw, cfg)
        assert (got.value.index, got.value.timestamp) == (k, float(t[k]))
        assert (want.value.index, want.value.timestamp) == (k, float(t[k]))
        assert "one_euro" in str(got.value)

    @given(filtered_trace(), st.data())
    def test_nan_timestamp_passes_alike(self, case, data):
        # a NaN interval is not "<= 0", so neither form raises on it
        t, yaw, cfg = case
        t[data.draw(st.integers(0, t.size - 1))] = np.nan
        np.testing.assert_array_equal(one_euro(t, yaw, cfg), oracle(t, yaw, cfg))


class TestLoadTraceCsv:
    def test_round_trip(self, tmp_path):
        s = stream(yaw=[1.25, -3.5, 7.0, 2.0])
        write_trace_csv(tmp_path / "a.csv", s)
        back = load_trace_csv(tmp_path / "a.csv", kind="gaze")
        assert back.participant_id == "p01" and back.trial_id == "t01"
        np.testing.assert_allclose(back.t, s.t)
        np.testing.assert_allclose(back.yaw, s.yaw)

    def test_rows_are_sorted_by_timestamp(self, tmp_path):
        p = write_trace(tmp_path / "a.csv", "p01", "t01", [0.2, 0.0, 0.1], [3.0, 1.0, 2.0])
        back = load_trace_csv(p)
        np.testing.assert_allclose(back.t, [0.0, 0.1, 0.2])
        np.testing.assert_allclose(back.yaw, [1.0, 2.0, 3.0])

    def test_duplicate_timestamps_rejected(self, tmp_path):
        p = write_trace(tmp_path / "a.csv", "p01", "t01", [1.0, 1.0], [0.0, 0.1])
        with pytest.raises(NonMonotonicTimeError) as err:
            load_trace_csv(p)
        assert err.value.timestamp == 1.0

    def test_missing_column(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("participant_id,trial_id,timestamp_s\np01,t01,0.0\n")
        with pytest.raises(MissingColumnError):
            load_trace_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("")
        with pytest.raises(EmptyFileError):
            load_trace_csv(p)

    def test_header_but_no_rows(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("participant_id,trial_id,timestamp_s,yaw_deg\n")
        with pytest.raises(EmptyFileError):
            load_trace_csv(p)

    def test_non_finite_yaw_rejected(self, tmp_path):
        p = write_trace(tmp_path / "a.csv", "p01", "t01", [0.0, 0.1], ["nan", 1.0])
        with pytest.raises(TraceSchemaError):
            load_trace_csv(p)

    def test_non_numeric_rejected(self, tmp_path):
        p = write_trace(tmp_path / "a.csv", "p01", "t01", [0.0, 0.1], ["abc", 1.0])
        with pytest.raises(TraceSchemaError):
            load_trace_csv(p)

    def test_mixed_participants_rejected(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text(
            "participant_id,trial_id,timestamp_s,yaw_deg\n"
            "p01,t01,0.0,0.0\np02,t01,0.1,0.0\n"
        )
        with pytest.raises(TraceSchemaError):
            load_trace_csv(p)

    def test_bad_kind_rejected(self, tmp_path):
        p = write_trace(tmp_path / "a.csv", "p01", "t01", [0.0, 0.1], [0.0, 1.0])
        with pytest.raises(ValueError):
            load_trace_csv(p, kind="torso")

    @pytest.mark.parametrize("last_row", ["p01,t01,0.2", "p01,t01,0.2,1.0,9.9"],
                             ids=["too-few-fields", "too-many-fields"])
    def test_row_width_must_match_header(self, tmp_path, last_row):
        p = tmp_path / "a.csv"
        p.write_text(
            "participant_id,trial_id,timestamp_s,yaw_deg\n"
            "p01,t01,0.0,0.0\np01,t01,0.1,0.5\n" + last_row + "\n"
        )
        with pytest.raises(TraceSchemaError) as err:
            load_trace_csv(p)
        assert str(p) in str(err.value)
        assert "row 3" in str(err.value)


class TestTable:
    LINES = [
        "# provenance: {}",
        "participant_id,trial_id,timestamp_s,yaw_deg",
        "p01,t01,0.0,1.5",
        "p01,t01,0.1,-2.25",
    ]

    @pytest.mark.parametrize(
        "newline, tail",
        [("\n", ""), ("\r\n", ""), ("\n", "\n"), ("\r\n", "\r\n")],
        ids=["lf", "crlf", "lf-trailing-blank", "crlf-trailing-blank"],
    )
    def test_line_endings_and_trailing_blank_line(self, tmp_path, newline, tail):
        p = tmp_path / "a.csv"
        p.write_bytes((newline.join(self.LINES) + newline + tail).encode())
        assert ingest.read_table(p, TRACE_COLUMNS) == {
            "participant_id": ["p01", "p01"],
            "trial_id": ["t01", "t01"],
            "timestamp_s": ["0.0", "0.1"],
            "yaw_deg": ["1.5", "-2.25"],
        }

    def test_writer_quotes_formats_and_stamps(self, tmp_path):
        p = tmp_path / "a.csv"
        ingest.write_table(p, ("id", "v"), [['a,"b"', 1.0 / 3.0], ["c", 2]], {"seed": 1})
        assert p.read_bytes() == (
            b'# provenance: {"seed": 1}\n'
            b'id,v\r\n"a,""b""",0.333333333\r\nc,2\r\n'
        )


class TestAlignment:
    def test_linear_head_interpolates_exactly(self):
        gaze = stream("gaze", t=np.linspace(0.0, 1.0, 61))
        head_t = np.linspace(-0.1, 1.1, 41)
        head = stream("head", t=head_t, yaw=3.0 * head_t + 1.0)
        aligned = align_head_to_gaze(gaze, head)
        np.testing.assert_allclose(aligned.head_yaw, 3.0 * aligned.t + 1.0, atol=1e-12)

    def test_output_times_are_gaze_times_in_overlap(self):
        gaze = stream("gaze", t=np.linspace(0.0, 2.0, 121))
        head = stream("head", t=np.linspace(0.5, 1.5, 91))
        aligned = align_head_to_gaze(gaze, head)
        keep = (gaze.t >= 0.5) & (gaze.t <= 1.5)
        np.testing.assert_array_equal(aligned.t, gaze.t[keep])
        assert aligned.overlap_s == pytest.approx(aligned.t[-1] - aligned.t[0])

    def test_disjoint_windows_raise(self):
        gaze = stream("gaze", t=[0.0, 0.1, 0.2])
        head = stream("head", t=[1.0, 1.1, 1.2])
        with pytest.raises(NoOverlapError):
            align_head_to_gaze(gaze, head)

    def test_mismatched_ids_raise(self):
        gaze = stream("gaze", pid="p01")
        head = stream("head", pid="p02")
        with pytest.raises(TraceSchemaError):
            align_head_to_gaze(gaze, head)

    def test_gap_reflects_worst_stream(self):
        t_gaze = np.concatenate([np.arange(0.0, 1.0, 0.01), np.arange(1.3, 2.0, 0.01)])
        gaze = stream("gaze", t=t_gaze, yaw=np.zeros(t_gaze.size))
        head = stream("head", t=np.arange(0.0, 2.0, 0.02), yaw=np.zeros(100))
        aligned = align_head_to_gaze(gaze, head)
        # gaze jumps from 0.99 to 1.30 while head samples every 0.02
        assert aligned.gap_max_s == pytest.approx(0.31, abs=1e-6)

    def test_wrapped_inputs_align_without_seam_jumps(self):
        t = np.linspace(0.0, 2.0, 241)
        path = 150.0 + 40.0 * t  # drifts through +180
        wrapped = (path + 180.0) % 360.0 - 180.0
        gaze = stream("gaze", t=t, yaw=wrapped)
        head = stream("head", t=t, yaw=wrapped)
        aligned = align_head_to_gaze(gaze, head)
        assert np.max(np.abs(np.diff(aligned.gaze_yaw))) < 5.0
        assert np.max(np.abs(np.diff(aligned.head_yaw))) < 5.0

    @given(
        offset=st.floats(-0.5, 0.5),
        slope=st.floats(-20.0, 20.0),
        intercept=st.floats(-90.0, 90.0),
    )
    def test_affine_signal_exactness(self, offset, slope, intercept):
        t = np.linspace(0.0, 1.0, 31)
        gaze = stream("gaze", t=t)
        head_t = t + offset
        head = stream("head", t=head_t, yaw=slope * head_t + intercept)
        try:
            aligned = align_head_to_gaze(gaze, head)
        except NoOverlapError:
            return
        np.testing.assert_allclose(
            aligned.head_yaw, slope * aligned.t + intercept, atol=1e-9
        )


def make_aligned(overlap_s=30.0, gap_max_s=0.02, pid="p01", tid="t01"):
    t = np.array([0.0, overlap_s])
    return AlignedTrace(pid, tid, t, np.zeros(2), np.zeros(2), overlap_s, gap_max_s)


class TestSanity:
    def test_pass(self):
        assert sanity_check(make_aligned()).verdict == "pass"

    def test_short_overlap(self):
        rep = sanity_check(make_aligned(overlap_s=10.0))
        assert rep.verdict == "fail" and rep.reason == "short_overlap"

    def test_boundary_overlap_fails(self):
        assert sanity_check(make_aligned(overlap_s=25.0)).verdict == "fail"

    def test_discontinuity(self):
        rep = sanity_check(make_aligned(gap_max_s=0.75))
        assert rep.verdict == "fail" and rep.reason == "discontinuity"

    def test_boundary_gap_passes(self):
        assert sanity_check(make_aligned(gap_max_s=0.5)).verdict == "pass"

    def test_custom_thresholds(self):
        rep = sanity_check(make_aligned(overlap_s=10.0), min_overlap_s=5.0)
        assert rep.verdict == "pass"

    def test_missing_stream_report(self):
        rep = missing_stream_report("p02", "t03")
        assert rep.verdict == "fail" and rep.reason == "missing_stream"

    def test_participant_passes_requires_full_count(self):
        ok = [sanity_check(make_aligned(tid=f"t{i}")) for i in range(3)]
        assert participant_passes(ok, expected_trials=3)
        assert not participant_passes(ok, expected_trials=4)
        ok.append(sanity_check(make_aligned(overlap_s=1.0, tid="t9")))
        assert not participant_passes(ok, expected_trials=3)


def shift_set(x, y):
    x = np.asarray(x, dtype=float)
    return ShiftSet(["p"] * x.size, ["t"] * x.size, x, np.asarray(y, dtype=float))


class TestSymmetrizeAndClean:
    def test_mirror_fold(self):
        out = symmetrize_and_clean(shift_set([-30.0, 20.0], [-5.0, 3.0]))
        np.testing.assert_allclose(out.x, [30.0, 20.0])
        np.testing.assert_allclose(out.y, [5.0, 3.0])

    def test_opposing_head_clamped_to_zero(self):
        # head moved against the shift: mirrored y is negative, clamps to 0
        out = symmetrize_and_clean(shift_set([-30.0], [5.0]))
        np.testing.assert_allclose(out.x, [30.0])
        np.testing.assert_allclose(out.y, [0.0])

    def test_eccentricity_and_overshoot_filters(self):
        out = symmetrize_and_clean(shift_set([60.0, 10.0, 25.0], [3.0, 12.0, 4.0]))
        np.testing.assert_allclose(out.x, [25.0])
        np.testing.assert_allclose(out.y, [4.0])

    def test_clamp_happens_before_overshoot_drop(self):
        # y = -12 at x = 10 clamps to 0 and survives; dropping on |y| > x first
        # would discard it
        out = symmetrize_and_clean(shift_set([10.0], [-12.0]))
        assert len(out) == 1 and out.y[0] == 0.0

    def test_sign_flip_invariance(self):
        x = np.array([12.0, -33.0, 47.0])
        y = np.array([1.0, -4.0, 9.0])
        a = symmetrize_and_clean(shift_set(x, y))
        b = symmetrize_and_clean(shift_set(-x, -y))
        np.testing.assert_allclose(a.x, b.x)
        np.testing.assert_allclose(a.y, b.y)

    @given(
        st.lists(
            st.tuples(st.floats(-80.0, 80.0), st.floats(-80.0, 80.0)),
            min_size=1,
            max_size=40,
        )
    )
    def test_output_lies_in_wedge(self, pairs):
        x = np.array([p[0] for p in pairs])
        y = np.array([p[1] for p in pairs])
        out = symmetrize_and_clean(shift_set(x, y))
        assert np.all(out.x >= 0.0)
        assert np.all(out.y >= 0.0)
        assert np.all(out.y <= out.x)
        assert np.all(out.x <= 50.0)

    def test_ids_stay_aligned_with_rows(self):
        s = ShiftSet(["a", "b", "c"], ["t1", "t1", "t2"],
                     np.array([60.0, -20.0, 30.0]), np.array([0.0, -2.0, 3.0]))
        out = symmetrize_and_clean(s)
        assert out.participant_id == ["b", "c"]
        assert out.trial_id == ["t1", "t2"]


ODD_ID = 'p,"01"'


class TestShiftCsv:
    def test_id_with_comma_and_quote_round_trips(self, tmp_path):
        s = ShiftSet([ODD_ID, "p02"], ['t,"1"', "t2"],
                     np.array([10.0, 20.0]), np.array([1.0, 2.5]))
        path = tmp_path / "shifts.csv"
        write_shifts_csv(path, s, provenance={"seed": 1})
        back = read_shifts_csv(path)
        assert back.participant_id == s.participant_id
        assert back.trial_id == s.trial_id
        np.testing.assert_array_equal(back.x, s.x)
        np.testing.assert_array_equal(back.y, s.y)

    def test_score_id_with_comma_and_quote_round_trips(self, tmp_path):
        rows = [
            {"curve_id": ODD_ID, "pc1": -4.0, "pc2": 0.5, "percentile_pc1": 25.0},
            {"curve_id": "p02", "pc1": 4.0, "pc2": -0.5, "percentile_pc1": 75.0},
        ]
        path = tmp_path / "scores.csv"
        ingest.write_scores_csv(path, rows, provenance={"seed": 1})
        assert ingest.read_scores_csv(path) == rows

    def test_round_trip_with_provenance(self, tmp_path):
        s = shift_set([10.0, 20.0], [1.0, 2.5])
        path = tmp_path / "shifts.csv"
        write_shifts_csv(path, s, provenance={"seed": 1})
        assert path.read_text().startswith("# provenance: ")
        back = read_shifts_csv(path)
        np.testing.assert_allclose(back.x, s.x)
        np.testing.assert_allclose(back.y, s.y)
        assert back.participant_id == s.participant_id


# Ids are built from awkward pieces. The oracle skips every physical line
# that starts with '#', so no id starts a line with one: the first column
# never starts with '#', and no id has a '#' right after a line break.
ID_PIECES = ["p", "7", ",", '"', " ", "#", "\r\n", "é"]
ids = st.lists(st.sampled_from(ID_PIECES), max_size=6).map("".join).filter(
    lambda s: "\n#" not in s
)
values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, 1e-310, -2.5e-320, -0.0, 1e300, -1e300]),
)


@st.composite
def csv_tables(draw):
    """The bytes of a trace table written by csv.writer."""
    rows = draw(st.lists(
        st.tuples(ids.filter(lambda s: not s.startswith("#")), ids, values, values),
        min_size=1, max_size=12,
    ))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    fmt = draw(st.sampled_from(["{:.9g}", "{!r}"]))
    fh = io.StringIO(newline="")
    if draw(st.booleans()):
        fh.write('# provenance: {"seed": 1}' + newline)
    writer = csv.writer(fh, lineterminator=newline)
    writer.writerow(TRACE_COLUMNS)
    writer.writerows([p, t, fmt.format(a), fmt.format(b)] for p, t, a, b in rows)
    fh.write(newline * draw(st.integers(0, 2)))
    return fh.getvalue().encode()


class TestReadTableMatchesCsvReader:
    """The numpy reader against the csv.reader one (tests/oracles.py)."""

    @given(csv_tables())
    def test_text_and_float_columns(self, table):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "a.csv")
            with open(path, "wb") as fh:
                fh.write(table)
            ref = read_table_csv(path, TRACE_COLUMNS)
            assert ingest.read_table(path, TRACE_COLUMNS) == ref
            got = ingest.read_table(path, TRACE_COLUMNS, floats=("timestamp_s", "yaw_deg"))
        assert got["participant_id"] == ref["participant_id"]
        assert got["trial_id"] == ref["trial_id"]
        for col in ("timestamp_s", "yaw_deg"):
            assert got[col].dtype == np.float64
            assert got[col].tobytes() == np.array([float(v) for v in ref[col]]).tobytes()


AWKWARD_IDS = ["p#1", "a,b", 'q"x', " sp "]


class TestReaderEdgeCases:
    @pytest.mark.parametrize("pid", AWKWARD_IDS)
    def test_awkward_id_round_trips_through_trace_file(self, tmp_path, pid):
        s = stream(pid=pid, tid=pid + "t", yaw=[1.25, -3.5, 7.0, 2.0])
        write_trace_csv(tmp_path / "a.csv", s)
        back = load_trace_csv(tmp_path / "a.csv")
        assert (back.participant_id, back.trial_id) == (pid, pid + "t")
        assert back.yaw.tobytes() == s.yaw.tobytes()

    @pytest.mark.parametrize("pid", AWKWARD_IDS)
    def test_awkward_id_round_trips_through_shift_file(self, tmp_path, pid):
        s = ShiftSet([pid, "p02"], ["t1", pid], np.array([10.0, 20.0]), np.array([1.0, 2.5]))
        write_shifts_csv(tmp_path / "shifts.csv", s, provenance={"seed": 1})
        back = read_shifts_csv(tmp_path / "shifts.csv")
        assert back.participant_id == s.participant_id
        assert back.trial_id == s.trial_id
        np.testing.assert_array_equal(back.x, s.x)

    @pytest.mark.parametrize("tail", ["", "\r\n", "\r\n\r\n"])
    def test_header_only_file_is_empty_without_a_warning(self, tmp_path, tail):
        p = tmp_path / "a.csv"
        p.write_bytes(b"# provenance: {}\nparticipant_id,trial_id,timestamp_s,yaw_deg\r\n"
                      + tail.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptyFileError):
                load_trace_csv(p)

    @pytest.mark.parametrize("at", [0, 1])
    def test_hash_line_after_the_header_is_rejected(self, tmp_path, at):
        lines = ["p01,t01,0.0,1.0", "p01,t01,0.1,2.0"]
        lines.insert(at, "# note")
        p = tmp_path / "a.csv"
        p.write_text("participant_id,trial_id,timestamp_s,yaw_deg\n" + "\n".join(lines) + "\n")
        with pytest.raises(TraceSchemaError) as err:
            load_trace_csv(p)
        assert f"data row {at + 1} " in str(err.value)

    @pytest.mark.parametrize("bad", ["abc", "1_000", ""])
    def test_non_numeric_value_names_the_data_row(self, tmp_path, bad):
        p = tmp_path / "a.csv"
        p.write_text("participant_id,trial_id,timestamp_s,yaw_deg\n"
                     f"p01,t01,0.0,0.0\np01,t01,0.1,1.0\np01,t01,0.2,{bad}\n")
        with pytest.raises(TraceSchemaError) as err:
            load_trace_csv(p)
        assert str(p) in str(err.value)
        assert "data row 3," in str(err.value)
