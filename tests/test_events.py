import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from eyehead import (
    AlignedTrace,
    FilterConfig,
    FixationConfig,
    TooFewFixationsError,
    TooFewSamplesError,
    angular_velocity,
    detect_fixations,
    extract_shifts,
    preprocess_trial,
)

from .oracles import detect_fixations_loop

# timestamps in multiples of 1/128 s are exactly representable, which keeps
# the padding and merging arithmetic below free of float-rounding surprises
DT = 1.0 / 128.0


def aligned(t, gaze, head, pid="p01", tid="t01"):
    t = np.asarray(t, dtype=float)
    return AlignedTrace(
        pid, tid, t, np.asarray(gaze, dtype=float), np.asarray(head, dtype=float),
        overlap_s=float(t[-1] - t[0]), gap_max_s=float(np.diff(t).max()),
    )


class TestFixationConfig:
    @pytest.mark.parametrize("field, value", [
        ("vel_threshold", 0.0), ("vel_threshold", -1.0), ("vel_threshold", float("nan")),
        ("vel_threshold", float("inf")),
        ("min_duration_s", -0.005), ("min_duration_s", float("nan")),
        ("pad_s", -1e-3), ("pad_s", float("inf")),
        ("merge_gap_s", -0.02), ("merge_gap_s", float("nan")),
    ])
    def test_out_of_range_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite and "):
            FixationConfig(**{field: value})

    def test_zero_durations_accepted(self):
        FixationConfig(min_duration_s=0.0, pad_s=0.0, merge_gap_s=0.0)


class TestAngularVelocity:
    def test_linear_yaw_gives_constant_velocity(self):
        t = np.arange(20) * DT
        v = angular_velocity(t, 12.5 * t + 3.0)
        np.testing.assert_allclose(v, 12.5, atol=1e-9)

    def test_central_differences_in_interior(self):
        t = np.array([0.0, 1.0, 3.0])
        yaw = np.array([0.0, 2.0, 12.0])
        v = angular_velocity(t, yaw)
        assert v[1] == pytest.approx((12.0 - 0.0) / (3.0 - 0.0))

    def test_one_sided_at_ends(self):
        t = np.array([0.0, 0.5, 1.0])
        yaw = np.array([0.0, 3.0, 4.0])
        v = angular_velocity(t, yaw)
        assert v[0] == pytest.approx(6.0)
        assert v[-1] == pytest.approx(2.0)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamplesError):
            angular_velocity(np.array([0.0]), np.array([1.0]))


class TestDetectFixations:
    def setup_method(self):
        self.t = np.arange(64) * DT
        self.v = np.full(64, 5.0)
        self.v[30:36] = 30.0  # one fast interval of 6 samples

    def test_hand_worked_runs_with_padding(self):
        cfg = FixationConfig(pad_s=DT)
        # below-threshold runs [0,29] and [36,63]; one-sample padding pulls
        # the first fixation's end to 30 and the second's start to 35
        out = detect_fixations(self.t, self.v, cfg)
        assert out.tolist() == [[0, 30], [35, 63]]
        assert out.dtype == np.intp

    def test_merge_of_nearby_fixations(self):
        cfg = FixationConfig(pad_s=DT, merge_gap_s=0.05)
        # padded gap is 5 samples = 39.06 ms < 50 ms, so the pair merges
        out = detect_fixations(self.t, self.v, cfg)
        assert out.tolist() == [[0, 63]]

    def test_gap_at_default_merge_threshold_stays_split(self):
        out = detect_fixations(self.t, self.v, FixationConfig(pad_s=DT))
        assert len(out) == 2

    def test_short_runs_are_dropped(self):
        v = np.full(64, 30.0)
        v[10:15] = 5.0  # 4*DT = 31 ms < 60 ms minimum
        assert detect_fixations(self.t, v, FixationConfig(pad_s=0.0)).shape == (0, 2)

    def test_minimum_duration_is_inclusive_span(self):
        v = np.full(64, 30.0)
        v[10:19] = 5.0  # spans t[18]-t[10] = 8*DT = 62.5 ms >= 60 ms
        out = detect_fixations(self.t, v, FixationConfig(pad_s=0.0))
        assert out.tolist() == [[10, 18]]

    def test_padding_clamps_at_trace_edges(self):
        v = np.full(64, 5.0)
        out = detect_fixations(self.t, v, FixationConfig(pad_s=1.0))
        assert out.tolist() == [[0, 63]]

    def test_threshold_is_strict(self):
        v = np.full(64, 15.0)  # exactly at threshold: not below it
        assert detect_fixations(self.t, v, FixationConfig()).shape == (0, 2)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamplesError):
            detect_fixations(self.t[:2], self.v[:2], FixationConfig())

    @given(
        seed=st.integers(0, 10_000),
        thr_lo=st.floats(5.0, 20.0),
        bump=st.floats(1.0, 30.0),
    )
    def test_total_fixation_time_monotone_in_threshold(self, seed, thr_lo, bump):
        rng = np.random.default_rng(seed)
        t = np.arange(200) * DT
        v = np.abs(rng.normal(10.0, 10.0, t.size))
        lo = detect_fixations(t, v, FixationConfig(vel_threshold=thr_lo))
        hi = detect_fixations(t, v, FixationConfig(vel_threshold=thr_lo + bump))
        total_hi = sum(t[end] - t[start] for start, end in hi)
        total_lo = sum(t[end] - t[start] for start, end in lo)
        assert total_hi >= total_lo - 1e-12


# (length, slow) runs of a velocity trace; slow samples read -5 deg/s, fast ones 30
velocity_runs = st.lists(
    st.tuples(st.integers(1, 20), st.booleans()), min_size=1, max_size=12
).filter(lambda runs: sum(n for n, _ in runs) >= 3)


class TestDetectFixationsMatchesSpanLoop:
    """The array detector against the span-by-span one (tests/oracles.py)."""

    @given(
        runs=velocity_runs,
        seed=st.one_of(st.none(), st.integers(0, 1000)),
        pad_s=st.sampled_from([0.0, DT, 2 * DT, 0.010, 0.05, 1.0]),
        merge_gap_s=st.sampled_from([0.0, 0.020, 3 * DT, 0.1]),
        min_duration_s=st.sampled_from([0.0, 4 * DT, 0.060]),
    )
    # merges only after padding: the raw gap is 4 samples (31 ms), the padded one 2 (16 ms)
    @example(runs=[(10, True), (3, False), (10, True)], seed=None, pad_s=DT,
             merge_gap_s=0.020, min_duration_s=0.0)
    # a padded gap of exactly merge_gap_s stays split
    @example(runs=[(10, True), (2, False), (10, True)], seed=None, pad_s=0.0,
             merge_gap_s=3 * DT, min_duration_s=0.0)
    # pads clamped at both ends of the trace
    @example(runs=[(12, True), (4, False), (12, True)], seed=None, pad_s=1.0,
             merge_gap_s=0.0, min_duration_s=0.0)
    # no slow run, and exactly one
    @example(runs=[(30, False)], seed=None, pad_s=DT, merge_gap_s=0.020, min_duration_s=0.0)
    @example(runs=[(5, False), (20, True), (5, False)], seed=None, pad_s=DT,
             merge_gap_s=0.020, min_duration_s=0.060)
    def test_same_spans(self, runs, seed, pad_s, merge_gap_s, min_duration_s):
        slow = np.concatenate([np.full(n, flag) for n, flag in runs])
        if seed is None:
            steps = np.full(slow.size, DT)
        else:  # uneven sampling: half, single and double intervals
            steps = DT * np.random.default_rng(seed).choice([0.5, 1.0, 2.0], slow.size)
        t = np.cumsum(steps)
        v = np.where(slow, -5.0, 30.0)
        cfg = FixationConfig(pad_s=pad_s, merge_gap_s=merge_gap_s, min_duration_s=min_duration_s)
        got = [tuple(span) for span in detect_fixations(t, v, cfg).tolist()]
        assert got == detect_fixations_loop(
            t, v, vel_threshold=cfg.vel_threshold, min_duration_s=min_duration_s,
            pad_s=pad_s, merge_gap_s=merge_gap_s,
        )


class TestExtractShifts:
    def test_anchors_read_raw_traces_at_fixation_bounds(self):
        t = np.arange(64) * DT
        trace = aligned(t, 64.0 * t, 16.0 * t)
        fx = np.array([[0, 30], [35, 63]])
        out = extract_shifts(trace, fx)
        assert len(out) == 1
        # gaze(t[35]) - gaze(t[30]) with slopes chosen for exact arithmetic
        assert out.x[0] == pytest.approx(64.0 * 5 * DT, abs=1e-12)
        assert out.y[0] == pytest.approx(16.0 * 5 * DT, abs=1e-12)

    def test_one_shift_per_consecutive_pair(self):
        t = np.arange(64) * DT
        trace = aligned(t, np.sin(t), np.cos(t))
        fx = np.array([[0, 10], [20, 30], [40, 63]])
        out = extract_shifts(trace, fx)
        assert len(out) == 2

    def test_requires_two_fixations(self):
        t = np.arange(64) * DT
        trace = aligned(t, np.zeros(64), np.zeros(64))
        with pytest.raises(TooFewFixationsError):
            extract_shifts(trace, np.array([[0, 63]]))

    def test_signs_are_preserved(self):
        t = np.arange(64) * DT
        trace = aligned(t, -64.0 * t, -16.0 * t)
        out = extract_shifts(trace, np.array([[0, 30], [35, 63]]))
        assert out.x[0] < 0 and out.y[0] < 0


def step_trace(amplitude=20.0, head_amplitude=5.0, rate=128.0, plateau_s=0.5,
               ramp_s=0.15):
    """Plateau, linear ramp, plateau; gaze and head move together."""
    n_plateau = int(plateau_s * rate)
    n_ramp = int(ramp_s * rate)
    ramp = np.linspace(0.0, 1.0, n_ramp + 2)[1:-1]
    shape = np.concatenate([np.zeros(n_plateau), ramp, np.ones(n_plateau)])
    t = np.arange(shape.size) / rate
    return aligned(t, amplitude * shape, head_amplitude * shape)


class TestPreprocessTrial:
    def test_recovers_step_amplitudes_exactly(self):
        trace = step_trace(amplitude=20.0, head_amplitude=5.0)
        out = preprocess_trial(
            trace,
            filter_cfg=FilterConfig(min_cutoff=1e9),  # effectively no smoothing
            fixation_cfg=FixationConfig(pad_s=0.0),
        )
        assert len(out) == 1
        assert out.x[0] == pytest.approx(20.0, abs=1e-9)
        assert out.y[0] == pytest.approx(5.0, abs=1e-9)

    def test_negated_trace_negates_shifts(self):
        trace = step_trace()
        flipped = AlignedTrace(
            trace.participant_id, trace.trial_id, trace.t,
            -trace.gaze_yaw, -trace.head_yaw, trace.overlap_s, trace.gap_max_s,
        )
        cfg = FixationConfig(pad_s=0.0)
        filt = FilterConfig(min_cutoff=1e9)
        a = preprocess_trial(trace, filt, cfg)
        b = preprocess_trial(flipped, filt, cfg)
        np.testing.assert_allclose(b.x, -a.x, atol=1e-12)
        np.testing.assert_allclose(b.y, -a.y, atol=1e-12)
