import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from eyehead import (
    AlignedTrace,
    FilterConfig,
    FixationConfig,
    SynthConfig,
    TooFewFixationsError,
    TooFewSamplesError,
    align_head_to_gaze,
    angular_velocity,
    detect_fixations,
    draw_population,
    extract_shifts,
    one_euro,
    preprocess_trial,
    synth_trace,
    threshold_shifts,
)
from eyehead import events

from .oracles import detect_fixations_loop, one_euro_loop, shifts_against_truth

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


def synth_cohort(seed, participants, trials, shifts, gaze_noise_sd=0.0):
    """(aligned trace, truth) for each trial of a synth cohort, as `eyehead synth` draws it."""
    for pid, params in draw_population(participants, seed):
        for j in range(trials):
            cfg = SynthConfig(params, n_shifts=shifts, seed=seed, participant_id=pid,
                              trial_id=f"t{j + 1:02d}", wrap_output=True,
                              gaze_noise_sd=gaze_noise_sd)
            gaze, head, truth = synth_trace(cfg)
            yield align_head_to_gaze(gaze, head), truth


def loop_filter(t, x, cfg):
    return one_euro_loop(t, x, cfg.min_cutoff, cfg.beta, cfg.derivative_cutoff)


class TestScanSegmentsLikeTheLoop:
    """one_euro is a prefix scan within a bound of the per-sample loop, not bit-identical to it;
    the fixations it finds, and so every shift, must be the loop's, bit for bit."""

    THRESHOLDS = (10.0, 15.0, 20.0)
    SEEDS = (5, 101, 102)
    # the benchmark's study (24 x 2 x 50) and long-trials (3 x 4 x 300) shapes, scaled down
    SHAPES = {"study": (2, 2, 50), "long-trials": (1, 1, 300)}
    # the default filter, and the two that ROADMAP item 12 weighs against it; at
    # 1 degree of gaze noise those two pass so much of it that trials never settle
    FILTERS = {"default": FilterConfig(), "10 Hz": FilterConfig(min_cutoff=10.0),
               "beta 0.5": FilterConfig(beta=0.5)}
    CASES = [(filt, sd) for filt in FILTERS for sd in (0.0, 0.25, 1.0)
             if filt == "default" or sd < 1.0]

    @pytest.mark.parametrize("shape", ["study", "long-trials"])
    @pytest.mark.parametrize("filt, gaze_noise_sd", CASES)
    def test_same_shifts_at_every_threshold(self, monkeypatch, filt, gaze_noise_sd, shape):
        # noise puts more smoothed velocities near each threshold, where a
        # last-bit difference between the two filters would move a span
        cfg = self.FILTERS[filt]
        for seed in self.SEEDS:
            for trace, _ in synth_cohort(seed, *self.SHAPES[shape], gaze_noise_sd):
                scan = threshold_shifts(trace, self.THRESHOLDS, cfg)
                with monkeypatch.context() as patched:
                    patched.setattr(events, "one_euro", loop_filter)
                    loop = threshold_shifts(trace, self.THRESHOLDS, cfg)
                assert list(scan) == list(loop) == [*self.THRESHOLDS]
                for thr in self.THRESHOLDS:
                    assert scan[thr].x.tobytes() == loop[thr].x.tobytes()
                    assert scan[thr].y.tobytes() == loop[thr].y.tobytes()
                    assert (scan[thr].participant_id, scan[thr].trial_id) == (
                        loop[thr].participant_id, loop[thr].trial_id)


def anchor_windows(t, spans):
    """Each shift's anchor window in time: the end of one fixation to the start of the next."""
    return np.column_stack((t[spans[:-1, 1]], t[spans[1:, 0]]))


class TestShiftsAgainstTruth:
    RAMPS = [
        {"t_on": 1.0, "t_off": 1.15, "gaze_amplitude": 10.0},
        {"t_on": 2.0, "t_off": 2.15, "gaze_amplitude": -20.0},
        {"t_on": 3.0, "t_off": 3.15, "gaze_amplitude": 30.0},
    ]

    def test_hand_built_windows(self):
        windows = [
            (0.95, 1.20),  # ramp 1 alone
            (1.90, 3.10),  # ramps 2 and 3
            (3.05, 3.40),  # ramp 3 alone, entered late
            (1.15, 1.60),  # touches ramp 1 at its end only: no ramp
        ]
        fraction, q = shifts_against_truth(windows, [9.0, 5.0, 15.0, 1.0], self.RAMPS,
                                           quantiles=(0.0, 0.5, 1.0))
        assert fraction == 0.5
        assert q == {0.0: 0.5, 0.5: 0.7, 1.0: 0.9}

    def test_a_shift_against_its_ramp_reads_negative(self):
        fraction, q = shifts_against_truth([(1.9, 2.2)], [20.0], self.RAMPS, quantiles=(0.5,))
        assert (fraction, q) == (1.0, {0.5: -1.0})

    def test_no_one_ramp_shift_gives_nan_quantiles(self):
        fraction, q = shifts_against_truth([(0.0, 5.0)], [1.0], self.RAMPS, quantiles=(0.5,))
        assert fraction == 0.0 and np.isnan(q[0.5])

    def test_a_10_hz_filter_finds_every_ramp_on_its_own(self):
        # ROADMAP item 12's population: 12 participants, one 50-shift trial
        # each, segmented at 10 Hz and otherwise default settings. The trials
        # are laid end to end in time, so one call scores them together.
        cfg = FilterConfig(min_cutoff=10.0)
        windows, x, ramps, offset = [], [], [], 0.0
        for trace, truth in synth_cohort(5, 12, 1, 50):
            spans = detect_fixations(trace.t, angular_velocity(trace.t, one_euro(trace.t, trace.gaze_yaw, cfg)))
            windows.append(anchor_windows(trace.t, spans) + offset)
            x.append(extract_shifts(trace, spans).x)
            ramps += [{**r, "t_on": r["t_on"] + offset, "t_off": r["t_off"] + offset} for r in truth["shifts"]]
            offset += truth["total_duration_s"]
        fraction, q = shifts_against_truth(np.concatenate(windows), np.concatenate(x), ramps,
                                           quantiles=(0.0, 0.05, 0.5))
        assert sum(map(len, windows)) == len(ramps) == 600
        assert fraction == 1.0
        # measured: min 0.878 (one shift), 5th percentile 0.935, median 0.991
        assert q[0.0] > 0.87 and q[0.05] > 0.93 and q[0.5] > 0.99
