import csv
import io
import math
import os
import tempfile
import tracemalloc
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
    SoftHingeParams,
    SynthConfig,
    TraceSchemaError,
    align_head_to_gaze,
    load_trace_csv,
    one_euro,
    read_shifts_csv,
    sanity_check,
    symmetrize_and_clean,
    synth_trace,
    unwrap_yaw,
    write_shifts_csv,
    write_trace_csv,
)
from eyehead import ingest
from eyehead.ingest import TRACE_COLUMNS, missing_stream_report, participant_passes

from .conftest import write_trace
from .oracles import TimeOrderError, one_euro_loop, read_table_csv, write_table_rows


def stream(pid="p01", tid="t01", t=None, yaw=None):
    t = np.asarray([0.0, 0.1, 0.2, 0.3] if t is None else t, dtype=float)
    yaw = np.asarray(np.zeros_like(t) if yaw is None else yaw, dtype=float)
    return RawStream(pid, tid, t, yaw)


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


@pytest.mark.parametrize("field, value", [
    ("min_cutoff", 0.0), ("min_cutoff", float("nan")), ("beta", -0.1), ("beta", float("nan")),
    ("beta", float("inf")),
    ("derivative_cutoff", 0.0), ("derivative_cutoff", -1.0), ("derivative_cutoff", float("nan")),
])
def test_filter_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be "):
        FilterConfig(**{field: value})


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

    def test_overflowing_derivative_with_beta_zero_matches(self):
        # a subnormal interval overflows (x1 - x0) / te to inf, which the
        # derivative pass turns into NaN: it cannot be skipped here
        t = np.array([0.0, 5e-324, 0.01, 0.02])
        yaw = np.array([0.0, 1.0, 2.0, 3.0])
        cfg = FilterConfig(beta=0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = one_euro(t, yaw, cfg), oracle(t, yaw, cfg)
        assert got.tobytes() == want.tobytes()
        assert np.isnan(got[1:]).all()

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
        back = load_trace_csv(tmp_path / "a.csv")
        assert back.participant_id == "p01" and back.trial_id == "t01"
        np.testing.assert_allclose(back.t, s.t)
        np.testing.assert_allclose(back.yaw, s.yaw)

    def test_utf8_byte_order_mark_is_skipped(self, tmp_path):
        # as Excel's "CSV UTF-8" and Python's utf-8-sig write a file
        s = stream(pid="pø1", yaw=[1.25, -3.5, 7.0, 2.0])
        write_trace_csv(tmp_path / "plain.csv", s)
        text = (tmp_path / "plain.csv").read_text(encoding="utf-8")
        (tmp_path / "bom.csv").write_text(text, encoding="utf-8-sig")
        assert (tmp_path / "bom.csv").read_bytes().startswith(b"\xef\xbb\xbf")
        plain, bom = (load_trace_csv(tmp_path / f"{n}.csv") for n in ("plain", "bom"))
        assert (bom.participant_id, bom.trial_id) == (plain.participant_id, plain.trial_id)
        np.testing.assert_array_equal(bom.t, plain.t)
        np.testing.assert_array_equal(bom.yaw, plain.yaw)

    def test_rows_are_sorted_by_timestamp(self, tmp_path):
        p = write_trace(tmp_path / "a.csv", "p01", "t01", [0.2, 0.0, 0.1], [3.0, 1.0, 2.0])
        back = load_trace_csv(p)
        np.testing.assert_allclose(back.t, [0.0, 0.1, 0.2])
        np.testing.assert_allclose(back.yaw, [1.0, 2.0, 3.0])

    # the later repeat is named by its data row in the file, not its place once sorted
    @pytest.mark.parametrize("t, row", [
        ([1.0, 1.0], 2),
        ([0.0, 0.3, 0.1, 0.2, 0.1], 5),
        ([0.1, 0.0, 0.1], 3),
        ([0.2, 0.2, 0.0, 0.1], 2),
        ([0.3, 0.1, 0.2, 0.1, 0.1], 4),
    ])
    def test_duplicate_timestamps_rejected(self, tmp_path, t, row):
        p = write_trace(tmp_path / "a.csv", "p01", "t01", t, [0.0] * len(t))
        with pytest.raises(NonMonotonicTimeError) as err:
            load_trace_csv(p)
        assert (err.value.index, err.value.timestamp) == (row, t[row - 1])
        assert f"at row {row} " in str(err.value) and str(p) in str(err.value)

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

    @pytest.mark.parametrize("t, yaw, named", [
        ([0.0, 0.1], [math.nan, 1.0], "nan in data row 1, column yaw_deg"),
        ([0.0, math.inf], [1.0, -math.inf], "inf in data row 2, column timestamp_s"),
        ([0.0, 0.1, 0.2], [1.0, 2.0, -math.inf], "-inf in data row 3, column yaw_deg"),
    ])
    def test_non_finite_value_rejected(self, tmp_path, t, yaw, named):
        p = write_trace(tmp_path / "a.csv", "p01", "t01", t, yaw)
        with pytest.raises(TraceSchemaError) as err:
            load_trace_csv(p)
        assert str(err.value) == f"{p}: non-finite value {named}"

    def test_non_finite_text_in_a_string_column_is_kept(self, tmp_path):
        p = write_trace(tmp_path / "a.csv", "nan", "inf", [0.0, 0.1], [1.0, 2.0])
        assert ingest.read_table(p, TRACE_COLUMNS, floats=("yaw_deg",))["participant_id"] == [
            "nan", "nan"]

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

    # row k's participant or trial id against the "p01" of every other row;
    # numpy's fixed-width strings drop trailing NULs and truncate, which
    # the one-pair check must see through
    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("col", [0, 1], ids=["participant", "trial"])
    @pytest.mark.parametrize("other", ["p010", "p0", "p01\0", "p02", ""],
                             ids=["extends", "prefix", "trailing-nul", "other", "empty"])
    def test_every_row_holds_the_first_rows_pair(self, tmp_path, other, col, k):
        rows = [["p01", "p01", f"0.{i}", "1.0"] for i in range(4)]
        rows[k - 1][col] = other
        p = tmp_path / "a.csv"
        p.write_text("participant_id,trial_id,timestamp_s,yaw_deg\n"
                     + "".join(",".join(row) + "\n" for row in rows))
        with pytest.raises(TraceSchemaError) as err:
            load_trace_csv(p)
        # a NUL is named where it sits; any other odd value first differs at row 2 or k
        row = k if "\0" in other else max(k, 2)
        assert str(p) in str(err.value)
        assert f"data row {row} " in str(err.value)

    @pytest.mark.parametrize("k", [1, 3])
    def test_quoting_alone_does_not_make_another_pair(self, tmp_path, k):
        rows = ["p01,t01,0.0,1.0", "p01,t01,0.1,1.0", "p01,t01,0.2,1.0"]
        rows[k - 1] = '"p01","t01",' + rows[k - 1].split(",", 2)[2]
        p = tmp_path / "a.csv"
        p.write_text("participant_id,trial_id,timestamp_s,yaw_deg\n" + "\n".join(rows) + "\n")
        back = load_trace_csv(p)
        assert (back.participant_id, back.trial_id) == ("p01", "t01")
        assert back.t.size == 3

    # a bad row last, or first, where it also sets the width of the id columns;
    # an unterminated quote runs to the end of the file
    @pytest.mark.parametrize("row, bad, fields", [
        (3, "p01,t01,0.2", 3),
        (3, "p01,t01,0.2,1.0,9.9", 5),
        (1, "p01,t01,0.2", 3),
        (1, "p01,t01,0.2,1.0,9.9", 5),
        (1, 'p01,"t01,0.2,1.0', 2),
    ], ids=["too-few-fields", "too-many-fields", "row-1-too-few-fields",
            "row-1-too-many-fields", "row-1-unterminated-quote"])
    def test_row_width_must_match_header(self, tmp_path, row, bad, fields):
        rows = ["p01,t01,0.0,0.0", "p01,t01,0.1,0.5"]
        rows.insert(row - 1, bad)
        p = tmp_path / "a.csv"
        p.write_text("participant_id,trial_id,timestamp_s,yaw_deg\n" + "\n".join(rows) + "\n")
        with pytest.raises(TraceSchemaError) as err:
            load_trace_csv(p)
        assert str(err.value) == f"{p}: data row {row} has {fields} fields, the header has 4"

    # csv.reader refuses a field past 131072 characters; numpy reads it whole
    def test_id_past_csvs_field_limit_round_trips(self, tmp_path):
        pid = "p" * 200_000
        p = write_trace(tmp_path / "a.csv", pid, "t01", [0.0, 0.1], [1.0, 2.0])
        assert load_trace_csv(p).participant_id == pid

    def test_unterminated_quote_past_csvs_field_limit(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("participant_id,trial_id,timestamp_s,yaw_deg\n"
                     'p01,"t01,0.0,0.0\n' + "p01,t01,0.1,0.5\n" * 10_000)
        with pytest.raises(TraceSchemaError) as err:
            load_trace_csv(p)
        assert str(err.value) == f"{p}: data row 1 has 2 fields, the header has 4"

    @pytest.mark.parametrize("single", [(), ("participant_id", "trial_id")],
                             ids=["no-single", "ids"])
    def test_one_loadtxt_call_per_file(self, tmp_path, monkeypatch, single):
        calls = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: calls.append(1) or loadtxt(*a, **kw))
        p = write_trace(tmp_path / "a.csv", "p01", "t01", [0.0, 0.1, 0.2], [1.0, 2.0, 3.0])
        ingest.read_table(p, TRACE_COLUMNS, floats=("timestamp_s", "yaw_deg"), single=single)
        assert len(calls) == 1


class TestOneBinaryRead:
    """read_table reads a file once as bytes and hands numpy its lines as they decode."""

    HEADER = b"participant_id,trial_id,timestamp_s,yaw_deg\n"

    def rows(self, n, bad_at=None):
        return b"".join(b"p01,t01,%d.5,%s\n" % (i, b"abc" if i == bad_at else b"1.0")
                        for i in range(n))

    # offsets count from the file's first byte, a byte-order mark included,
    # not from the start of a decode chunk
    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_a_byte_past_the_first_8_kib_is_named_by_its_offset(self, tmp_path, bom):
        raw = bytearray(bom + self.HEADER + self.rows(2000))
        raw[20_000] = 0xFF
        p = tmp_path / "a.csv"
        p.write_bytes(bytes(raw))
        with pytest.raises(TraceSchemaError) as err:
            load_trace_csv(p)
        assert str(err.value) == (
            f"{p}: byte 0xff at offset 20000 is not valid UTF-8 (invalid start byte)")

    def test_a_character_cut_at_the_end_is_named_by_its_first_byte(self, tmp_path):
        raw = self.HEADER + self.rows(3) + "é".encode()[:1]
        p = tmp_path / "a.csv"
        p.write_bytes(raw)
        with pytest.raises(TraceSchemaError) as err:
            load_trace_csv(p)
        assert str(err.value) == (
            f"{p}: byte 0xc3 at offset {len(raw) - 1} is not valid UTF-8 (unexpected end of data)")

    def test_bad_utf_8_is_named_before_an_earlier_non_number(self, tmp_path):
        raw = self.HEADER + self.rows(2000, bad_at=2) + b"p01,t01,\xfe,1.0\n"
        p = tmp_path / "a.csv"
        p.write_bytes(raw)
        with pytest.raises(TraceSchemaError) as err:
            load_trace_csv(p)
        at = raw.index(b"\xfe")
        assert str(err.value).startswith(f"{p}: byte 0xfe at offset {at} ")

    # csv.reader reads row 1 ahead of numpy: each line it takes reaches numpy once
    @pytest.mark.parametrize("brk", ["\n", "\r", "\r\n", "\r\n\r"])
    @pytest.mark.parametrize("n", [1, 3])
    def test_row_1_id_across_lines_reaches_numpy_once(self, tmp_path, brk, n):
        pid = f"p{brk}0{brk}1"
        s = stream(pid=pid, t=[0.1 * i for i in range(n)], yaw=[float(i) for i in range(n)])
        write_trace_csv(tmp_path / "a.csv", s)
        back = load_trace_csv(tmp_path / "a.csv")
        assert back.participant_id == pid
        assert back.t.tobytes() == s.t.tobytes() and back.yaw.tobytes() == s.yaw.tobytes()

    # a list of every line as a str, or the body joined into one, puts the
    # peak of a long-trials gaze file (~20k rows) past 5x its size
    def test_traced_peak_of_a_long_trace_stays_under_4x_the_file(self, tmp_path):
        gaze, _, _ = synth_trace(SynthConfig(SoftHingeParams(0.5, 20.0, 3.0), n_shifts=300,
                                             seed=7))
        p = tmp_path / "gaze.csv"
        write_trace_csv(p, gaze)
        assert 19_000 < gaze.t.size < 21_000
        tracemalloc.start()
        try:
            back = load_trace_csv(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.t.size == gaze.t.size
        assert peak < 4 * os.path.getsize(p)


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
        cols = (['a,"b"', "c"], np.array([1.0 / 3.0, 2.0]))
        ingest.write_table(p, ("id", "v"), cols, {"seed": 1})
        assert p.read_bytes() == (
            b'# provenance: {"seed": 1}\n'
            b'id,v\r\n"a,""b""",0.333333333\r\nc,2\r\n'
        )

    def test_floats_outside_an_array_are_formatted_too(self, tmp_path):
        rows = [(1.0 / 3.0, 1.0 / 3.0, 0), (-0.0, "x", True), (float("nan"), 2.5, 1)]
        cols = [list(c) for c in zip(*rows)]
        ingest.write_table(tmp_path / "a.csv", ("f", "mixed", "int_bool"), cols)
        write_table_rows(tmp_path / "b.csv", ("f", "mixed", "int_bool"), rows)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (
            b"f,mixed,int_bool\r\n0.333333333,0.333333333,0\r\n-0,x,True\r\nnan,2.5,1\r\n"
        )


class TestAlignment:
    def test_linear_head_interpolates_exactly(self):
        gaze = stream(t=np.linspace(0.0, 1.0, 61))
        head_t = np.linspace(-0.1, 1.1, 41)
        head = stream(t=head_t, yaw=3.0 * head_t + 1.0)
        aligned = align_head_to_gaze(gaze, head)
        np.testing.assert_allclose(aligned.head_yaw, 3.0 * aligned.t + 1.0, atol=1e-12)

    def test_output_times_are_gaze_times_in_overlap(self):
        gaze = stream(t=np.linspace(0.0, 2.0, 121))
        head = stream(t=np.linspace(0.5, 1.5, 91))
        aligned = align_head_to_gaze(gaze, head)
        keep = (gaze.t >= 0.5) & (gaze.t <= 1.5)
        np.testing.assert_array_equal(aligned.t, gaze.t[keep])
        assert aligned.overlap_s == pytest.approx(aligned.t[-1] - aligned.t[0])

    def test_disjoint_windows_raise(self):
        gaze = stream(t=[0.0, 0.1, 0.2])
        head = stream(t=[1.0, 1.1, 1.2])
        with pytest.raises(NoOverlapError):
            align_head_to_gaze(gaze, head)

    def test_mismatched_ids_raise(self):
        gaze = stream(pid="p01")
        head = stream(pid="p02")
        with pytest.raises(TraceSchemaError):
            align_head_to_gaze(gaze, head)

    def test_gap_reflects_worst_stream(self):
        t_gaze = np.concatenate([np.arange(0.0, 1.0, 0.01), np.arange(1.3, 2.0, 0.01)])
        gaze = stream(t=t_gaze, yaw=np.zeros(t_gaze.size))
        head = stream(t=np.arange(0.0, 2.0, 0.02), yaw=np.zeros(100))
        aligned = align_head_to_gaze(gaze, head)
        # gaze jumps from 0.99 to 1.30 while head samples every 0.02
        assert aligned.gap_max_s == pytest.approx(0.31, abs=1e-6)

    def test_wrapped_inputs_align_without_seam_jumps(self):
        t = np.linspace(0.0, 2.0, 241)
        path = 150.0 + 40.0 * t  # drifts through +180
        wrapped = (path + 180.0) % 360.0 - 180.0
        gaze = stream(t=t, yaw=wrapped)
        head = stream(t=t, yaw=wrapped)
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
        gaze = stream(t=t)
        head_t = t + offset
        head = stream(t=head_t, yaw=slope * head_t + intercept)
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

    @pytest.mark.parametrize("max_ecc", [80.0, 50.5, 0.0, -1.0, float("nan"), float("inf")])
    def test_max_ecc_outside_the_models_domain_is_rejected(self, max_ecc):
        # a shift kept past 50 deg would be written, then rejected on read
        with pytest.raises(ValueError, match=r"^max_ecc must be in \(0, 50\], got "):
            symmetrize_and_clean(shift_set([70.0, 20.0], [1.0, 2.0]), max_ecc=max_ecc)

    def test_max_ecc_at_the_domain_edge_is_kept(self):
        out = symmetrize_and_clean(shift_set([50.0, 20.0], [1.0, 2.0]), max_ecc=50.0)
        np.testing.assert_allclose(out.x, [50.0, 20.0])

    def test_ids_stay_aligned_with_rows(self):
        s = ShiftSet(["a", "b", "c"], ["t1", "t1", "t2"],
                     np.array([60.0, -20.0, 30.0]), np.array([0.0, -2.0, 3.0]))
        out = symmetrize_and_clean(s)
        assert out.participant_id == ["b", "c"]
        assert out.trial_id == ["t1", "t2"]


ODD_ID = 'p,"01"'


class TestByParticipant:
    @given(st.lists(st.sampled_from(["p2", "p10", "p1", ODD_ID]), max_size=40))
    def test_one_pass_split_is_for_participant_per_id(self, pids):
        # ids interleaved at random: first-seen order, and each id's rows in order
        n = len(pids)
        s = ShiftSet(pids, [f"t{i % 3}" for i in range(n)],
                     np.arange(n, dtype=float), -np.arange(n, dtype=float))
        split = s.by_participant()
        assert list(split) == list(dict.fromkeys(pids))
        for pid, sub in split.items():
            want = s.for_participant(pid)
            assert (sub.participant_id, sub.trial_id) == (want.participant_id, want.trial_id)
            np.testing.assert_array_equal(sub.x, want.x)
            np.testing.assert_array_equal(sub.y, want.y)


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
        table = {"curve_id": [ODD_ID, "p02"], "pc1": np.array([-4.0, 4.0]),
                 "pc2": np.array([0.5, -0.5]), "percentile_pc1": np.array([25.0, 75.0])}
        path = tmp_path / "scores.csv"
        ingest.write_scores_csv(path, table, provenance={"seed": 1})
        back = ingest.read_scores_csv(path)
        assert list(back) == list(table)
        assert back["curve_id"] == table["curve_id"]
        for col in ingest.SCORE_COLUMNS[1:]:
            np.testing.assert_array_equal(back[col], table[col])

    @pytest.mark.parametrize("x, y, column", [
        ([10.0, 50.5], [1.0, 2.0], "x_deg"),
        ([10.0, -0.25], [1.0, 0.0], "x_deg"),
        ([10.0, 20.0], [1.0, -2.0], "y_deg"),
        ([10.0, 20.0], [1.0, 20.5], "y_deg"),
    ])
    def test_a_shift_outside_the_model_domain_is_rejected(self, tmp_path, x, y, column):
        path = tmp_path / "shifts.csv"
        write_shifts_csv(path, shift_set(x, y))
        with pytest.raises(TraceSchemaError, match=f"in data row 2, column {column}$"):
            read_shifts_csv(path)

    def test_the_domain_edges_are_read(self, tmp_path):
        path = tmp_path / "shifts.csv"
        write_shifts_csv(path, shift_set([0.0, 50.0, 50.0], [0.0, 0.0, 50.0]))
        back = read_shifts_csv(path)
        assert back.x.tolist() == [0.0, 50.0, 50.0] and back.y.tolist() == [0.0, 0.0, 50.0]

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
# Form feed, the separators \x1c-\x1e, NEL and U+2028 break a line for
# str.splitlines but end no CSV row: only '\n', '\r' and '\r\n' do.
ID_PIECES = ["p", "7", ",", '"', " ", "#", "\r\n", "é", "\x0c", "\x1c", "\x85", "\u2028"]
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


class TestLoadTraceCsvKeepsThePair:
    @given(pid=ids, tid=ids, quote_all=st.lists(st.booleans(), min_size=1, max_size=8))
    def test_single_pair_table_round_trips(self, pid, tid, quote_all):
        """Ids with line breaks, quotes, commas and non-ASCII text, some rows fully quoted."""
        fh = io.StringIO(newline="")
        csv.writer(fh).writerow(TRACE_COLUMNS)
        for i, all_quoted in enumerate(quote_all):
            quoting = csv.QUOTE_ALL if all_quoted else csv.QUOTE_MINIMAL
            csv.writer(fh, quoting=quoting).writerow([pid, tid, f"{i / 10}", "1.5"])
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "a.csv")
            with open(path, "w", newline="", encoding="utf-8") as out:
                out.write(fh.getvalue())
            back = load_trace_csv(path)
        assert (back.participant_id, back.trial_id) == (pid, tid)
        assert back.t.size == len(quote_all)


# Text cells hold what csv.writer must quote, '%' and non-ASCII text, or
# nothing; float cells include signed zeros, infinities, nan, subnormals
# and values near the largest double.
TEXT_PIECES = ["p", "7", ",", '"', "\r", "\n", "%", "%s", "é", "漢", " ", "#"]
text_cells = st.lists(st.sampled_from(TEXT_PIECES), max_size=5).map("".join)
float_cells = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e-310, 1e308, -1.7e308]),
)


@st.composite
def column_tables(draw):
    """(kinds, rows, single): 'text', 'float' or 'single' for each column, rows of such cells.

    Every 'single' column holds the text `single` on every row. Such a column
    does not set the row count, so a table of 'single' columns alone has no
    rows.
    """
    kinds = draw(st.lists(st.sampled_from(["text", "float", "single"]), min_size=1, max_size=4))
    single = draw(text_cells)
    cells = {"text": text_cells, "float": float_cells, "single": st.just(single)}
    max_rows = 12 if {"text", "float"} & set(kinds) else 0
    rows = draw(st.lists(st.tuples(*(cells[k] for k in kinds)), max_size=max_rows))
    return kinds, rows, single


class TestWriteTableMatchesRowWriter:
    """The column writer against the csv.writer one (tests/oracles.py)."""

    @given(column_tables(), st.booleans())
    def test_same_bytes_and_read_back(self, table, stamped):
        kinds, rows, single = table
        names = tuple(f"c{j}" for j in range(len(kinds)))
        cols = [[row[j] for row in rows] for j in range(len(kinds))]
        cols = [np.array(c, dtype=float) if k == "float" else single if k == "single" else c
                for k, c in zip(kinds, cols)]
        provenance = {"seed": 1} if stamped else None
        with tempfile.TemporaryDirectory() as tmp:
            path, ref = os.path.join(tmp, "a.csv"), os.path.join(tmp, "b.csv")
            ingest.write_table(path, names, cols, provenance)
            write_table_rows(ref, names, rows, provenance)
            with open(path, "rb") as got, open(ref, "rb") as want:
                assert got.read() == want.read()
            if not rows:
                return
            floats = tuple(n for n, k in zip(names, kinds) if k == "float")
            singles = tuple(n for n, k in zip(names, kinds) if k == "single")
            bad = [(i, names[j], f"{v:.9g}") for i, row in enumerate(rows, 1)
                   for j, v in enumerate(row) if kinds[j] == "float" and not math.isfinite(v)]
            if bad:  # the first non-finite float is named
                with pytest.raises(TraceSchemaError) as err:
                    ingest.read_table(path, names, floats=floats, single=singles)
                row, column, text = bad[0]
                assert str(err.value) == (
                    f"{path}: non-finite value {text} in data row {row}, column {column}"
                )
                return
            back = ingest.read_table(path, names, floats=floats, single=singles)
        for name, kind, col in zip(names, kinds, cols):
            if kind == "float":
                np.testing.assert_array_equal(back[name], [float(f"{v:.9g}") for v in col])
            else:
                assert back[name] == col


# One id on every row: what csv.writer quotes, '%' in the forms a format
# string reads, non-ASCII text and the empty string; floats that %.9g
# writes in other forms.
STR_COLUMN_IDS = [",", '"', "a\r\nb", "\r", "50%", "%%", "%s", "%(x)s", "é漢", ""]
EDGE_FLOATS = [-0.0, 1e-5, 1e16, float("nan"), float("inf")]


class TestWriteTableStrColumns:
    @pytest.mark.parametrize("n", [0, 1, len(EDGE_FLOATS)])
    @pytest.mark.parametrize("pid", STR_COLUMN_IDS)
    def test_same_bytes_as_row_writer(self, tmp_path, pid, n):
        t = np.array(EDGE_FLOATS[:n])
        ingest.write_table(tmp_path / "a.csv", TRACE_COLUMNS, (pid, "t%1", t, -t))
        rows = [(pid, "t%1", v, -v) for v in t.tolist()]
        write_table_rows(tmp_path / "b.csv", TRACE_COLUMNS, rows)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_str_columns_alone_write_no_rows(self, tmp_path):
        ingest.write_table(tmp_path / "a.csv", ("id", "v"), ("p01", "%s"))
        assert (tmp_path / "a.csv").read_bytes() == b"id,v\r\n"

    @pytest.mark.parametrize("other", [np.zeros(2), ["a", "b"]], ids=["floats", "text"])
    def test_columns_of_unequal_length_raise(self, tmp_path, other):
        with pytest.raises(ValueError):
            ingest.write_table(tmp_path / "a.csv", ("id", "a", "b"), ("p01", np.zeros(3), other))
        assert not (tmp_path / "a.csv").exists()


AWKWARD_IDS = ["p#1", "a,b", 'q"x', " sp ", "50%", "%s"]


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
