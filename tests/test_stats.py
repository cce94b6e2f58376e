import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from eyehead import (
    EmptyDataError,
    FilterConfig,
    FixationConfig,
    LengthMismatchError,
    OneSidedDataError,
    ShiftSet,
    SoftHingeParams,
    SynthConfig,
    TooFewPointsError,
    ZeroSpreadError,
    describe_distribution,
    kde_density,
    pearson_r,
    quartiles,
    skewness,
    symmetry_check,
    synth_trace,
    threshold_sensitivity,
    threshold_shifts,
)

from eyehead import AlignedTrace, align_head_to_gaze, events, preprocess_trial, stats
from eyehead.fitting import fit_soft_hinge
from eyehead.fpca import DEFAULT_GRID
from eyehead.ingest import concat_shift_sets, symmetrize_and_clean
from eyehead.models import eval_model


def make_shifts(x, y):
    x = np.asarray(x, dtype=float)
    return ShiftSet(["p01"] * x.size, ["t01"] * x.size, x, np.asarray(y, dtype=float))


def pooled_shifts(traces, thresholds, filter_cfg=FilterConfig(),
                  fixation_cfg=FixationConfig()):
    """threshold_shifts of every trace, pooled per (participant, threshold) in trace order."""
    pooled = {}
    for tr in traces:
        for thr, sub in threshold_shifts(tr, thresholds, filter_cfg, fixation_cfg).items():
            pooled.setdefault((tr.participant_id, thr), []).append(sub)
    return {key: concat_shift_sets(sets) for key, sets in pooled.items()}


def staircase_trace(amplitudes, trial_id="t01", rate=128.0, plateau_s=0.4, ramp_s=0.15):
    """Sequence of fast gaze steps; head carries half of anything past 10 deg."""
    n_plateau = int(plateau_s * rate)
    n_ramp = int(ramp_s * rate)
    ramp = np.linspace(0.0, 1.0, n_ramp + 2)[1:-1]
    gaze = [np.zeros(n_plateau)]
    head = [np.zeros(n_plateau)]
    g_level = h_level = 0.0
    for amp in amplitudes:
        h_amp = 0.5 * max(0.0, abs(amp) - 10.0) * np.sign(amp)
        gaze.append(g_level + amp * ramp)
        head.append(h_level + h_amp * ramp)
        g_level += amp
        h_level += h_amp
        gaze.append(np.full(n_plateau, g_level))
        head.append(np.full(n_plateau, h_level))
    gaze = np.concatenate(gaze)
    head = np.concatenate(head)
    t = np.arange(gaze.size) / rate
    return AlignedTrace("p01", trial_id, t, gaze, head, float(t[-1]), 1.0 / rate)


class TestPearson:
    def test_hand_value(self):
        # sum of products of centered ranks: 4 / sqrt(5 * 5) = 0.8
        assert pearson_r([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-15)

    def test_affine_relations_are_exact(self):
        x = np.array([0.0, 1.0, 4.0, 9.0, 16.0])
        assert pearson_r(x, 3.0 * x + 1.0) == pytest.approx(1.0, abs=1e-12)
        assert pearson_r(x, -0.5 * x + 2.0) == pytest.approx(-1.0, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError):
            pearson_r([1.0, 2.0], [3.0, 4.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            pearson_r([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_constant_sample(self):
        with pytest.raises(ZeroSpreadError):
            pearson_r([5.0, 5.0, 5.0], [1.0, 2.0, 3.0])

    @given(
        st.lists(st.floats(-100, 100), min_size=4, max_size=30, unique=True),
        st.floats(0.1, 10.0),
        st.floats(-50, 50),
    )
    def test_invariant_under_positive_affine_maps(self, xs, scale, shift):
        x = np.array(xs)
        y = np.sin(x)  # arbitrary deterministic partner
        if np.std(y) == 0.0:
            return
        # the map rounds each value by up to an ulp of the largest mapped
        # value: skip samples whose spread that rounding can disturb
        assume(np.ptp(scale * x) > 1e-6 * np.max(np.abs(scale * x + shift)))
        base = pearson_r(x, y)
        assert pearson_r(scale * x + shift, y) == pytest.approx(base, abs=1e-9)

    def test_map_that_rounds_the_sample_to_a_constant_has_no_r(self):
        # 1 * x + 1 rounds this sample to [1, 1, 1, 1]: no map keeps r here
        x = np.array([0.0, 7.49e-68, 6.36e-121, 2.23e-308])
        with pytest.raises(ZeroSpreadError):
            pearson_r(1.0 * x + 1.0, np.sin(x))

    def test_tiny_spreads_do_not_underflow(self):
        # both sums of squares are ~1e-183, so their product underflows to 0
        x = np.array([0.0, 4.1e-92, 6.9e-231, 9.0e-259])
        y = np.sin(x)
        assert pearson_r(x, y) == pytest.approx(1.0, abs=1e-12)
        assert pearson_r(2.0 * x, y) == pytest.approx(pearson_r(x, y), abs=1e-12)

    def test_subnormal_sums_of_squares_keep_full_precision(self):
        # deviations of ~1e-158 square to subnormals, which hold few digits
        x = np.array([0.0, 6.980410862142725e-158, 2.447210066342573e-276,
                      2.2250738585072014e-308])
        assert pearson_r(0.125 * x, np.sin(x)) == pytest.approx(pearson_r(x, np.sin(x)),
                                                                abs=1e-12)

    def test_huge_spreads_do_not_overflow(self):
        # both sums of squares are ~1e200, so their product overflows to inf
        x = np.array([0.0, 1.0, 3.0, 4.0, 9.0])
        y = np.array([1.0, 0.5, 2.0, 3.5, 4.0])
        assert pearson_r(x * 1e100, y * 1e100) == pytest.approx(pearson_r(x, y), abs=1e-12)
        assert pearson_r(x * 1e100, y) == pytest.approx(pearson_r(x, y), abs=1e-12)

    def test_ordinary_spreads_keep_the_product_form(self, rng):
        # square roots taken apart would move the last bit of r in many cases
        for _ in range(200):
            a = rng.normal(size=12)
            b = a * rng.uniform(-2.0, 2.0) + rng.normal(size=12)
            da, db = a - a.mean(), b - b.mean()
            expected = float(np.dot(da, db) / np.sqrt(np.dot(da, da) * np.dot(db, db)))
            assert pearson_r(a, b) == expected


class TestQuartiles:
    def test_linear_interpolation_values(self):
        assert quartiles([1.0, 2.0, 3.0, 4.0]) == pytest.approx((1.75, 2.5, 3.25))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=40)
        shuffled = rng.permutation(data)
        assert quartiles(data) == pytest.approx(quartiles(shuffled))

    def test_empty_sample(self):
        with pytest.raises(TooFewPointsError):
            quartiles([])


class TestSkewness:
    def test_hand_value(self):
        # adjusted Fisher-Pearson on [1,2,3,4,10]
        assert skewness([1, 2, 3, 4, 10]) == pytest.approx(1.6970562748477143, abs=1e-12)

    def test_symmetric_sample_is_zero(self):
        assert skewness([-2.0, -1.0, 0.0, 1.0, 2.0]) == pytest.approx(0.0, abs=1e-14)

    def test_reflection_flips_sign(self):
        data = np.array([0.0, 0.5, 1.0, 1.5, 8.0])
        assert skewness(-data) == pytest.approx(-skewness(data), abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError):
            skewness([1.0, 2.0])

    def test_constant_sample(self):
        with pytest.raises(ZeroSpreadError):
            skewness([3.0, 3.0, 3.0, 3.0])


class TestDescribeDistribution:
    def test_fields(self):
        s = describe_distribution([1.0, 2.0, 3.0, 4.0])
        assert s.n == 4
        assert s.min == 1.0 and s.max == 4.0
        assert (s.q1, s.median, s.q3) == pytest.approx((1.75, 2.5, 3.25))
        d = s.to_dict()
        assert set(d) == {"n", "min", "q1", "median", "q3", "max", "skewness"}

    def test_degenerate_sample_gets_nan_skew(self):
        s = describe_distribution([7.0, 7.0, 7.0])
        assert np.isnan(s.skewness)
        assert s.median == 7.0

    def test_empty_rejected(self):
        with pytest.raises(TooFewPointsError):
            describe_distribution([])


class TestKde:
    def test_hand_values_two_points(self):
        # values [0, 1]: sd = sqrt(1/2), h = 1.06 * sd * 2^(-1/5)
        got = kde_density([0.0, 1.0], [0.5, 0.0])
        assert got[0] == pytest.approx(0.45584896076571108, abs=1e-15)
        assert got[1] == pytest.approx(0.4001664339720723, abs=1e-15)

    def test_integrates_to_one(self):
        rng = np.random.default_rng(11)
        values = rng.normal(size=60)
        grid = np.linspace(-8.0, 8.0, 2001)
        dens = kde_density(values, grid)
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-6)

    def test_translation_equivariance(self):
        values = np.array([0.0, 0.7, 1.1, 2.4])
        grid = np.linspace(-2.0, 4.0, 50)
        base = kde_density(values, grid)
        moved = kde_density(values + 10.0, grid + 10.0)
        np.testing.assert_allclose(moved, base, atol=1e-12)

    def test_nonnegative_everywhere(self):
        dens = kde_density([0.0, 1.0, 5.0], np.linspace(-100, 100, 99))
        assert np.all(dens >= 0.0)

    def test_needs_two_values(self):
        with pytest.raises(TooFewPointsError):
            kde_density([1.0], [0.0])

    def test_constant_values_rejected(self):
        with pytest.raises(ZeroSpreadError):
            kde_density([2.0, 2.0, 2.0], [0.0])


class TestSymmetryCheck:
    def make_mirrored(self, rng, n_per_side=120):
        x = rng.uniform(2.0, 48.0, n_per_side)
        y = 0.4 * np.maximum(0.0, x - 10.0)
        xs = np.concatenate([x, -x])
        ys = np.concatenate([y, -y])
        return make_shifts(xs, ys)

    def test_mirrored_data_scores_symmetric(self, rng):
        report = symmetry_check(self.make_mirrored(rng))
        assert report.mirror_correlation == pytest.approx(1.0, abs=1e-9)
        assert report.normalized_difference == pytest.approx(0.0, abs=1e-9)
        assert report.n_bins >= 3

    def test_asymmetric_data_scores_lower(self, rng):
        x = rng.uniform(2.0, 48.0, 150)
        y = 0.4 * np.maximum(0.0, x - 10.0)
        xs = np.concatenate([x, -x])
        # leftward side contributes half as much head motion
        ys = np.concatenate([y, -0.5 * y])
        report = symmetry_check(make_shifts(xs, ys))
        assert report.normalized_difference > 0.2

    def test_one_sided_data_rejected(self):
        with pytest.raises(OneSidedDataError):
            symmetry_check(make_shifts([5.0, 10.0, 20.0], [1.0, 2.0, 3.0]))

    def test_sparse_bins_rejected(self, rng):
        # two shifts per side per bin < MIN_PER_BIN = 3 -> no common bins
        xs = np.array([12.0, 13.0, -12.0, -13.0])
        ys = np.array([1.0, 1.1, -1.0, -1.1])
        with pytest.raises(OneSidedDataError):
            symmetry_check(make_shifts(xs, ys))


class TestThresholdShifts:
    def test_each_threshold_then_the_base_matches_preprocess_trial(self, monkeypatch):
        amps = np.linspace(6.0, 48.0, 16) * (-1.0) ** np.arange(16)
        trace = staircase_trace(amps)
        filt = FilterConfig(min_cutoff=3.0)
        fix = FixationConfig(vel_threshold=15.0, pad_s=0.0)
        calls = []
        one_euro = events.one_euro
        monkeypatch.setattr(events, "one_euro", lambda *a: calls.append(1) or one_euro(*a))
        got = threshold_shifts(trace, (20.0, 10.0, 20.0), filt, fix)
        assert len(calls) == 1
        assert list(got) == [20.0, 10.0, 15.0]
        for thr, shifts in got.items():
            want = preprocess_trial(trace, filt, FixationConfig(vel_threshold=thr, pad_s=0.0))
            assert shifts.participant_id == want.participant_id
            assert shifts.trial_id == want.trial_id
            np.testing.assert_array_equal(shifts.x, want.x)
            np.testing.assert_array_equal(shifts.y, want.y)


class TestThresholdSensitivity:
    def test_base_maps_to_one_and_neighbors_stay_high(self):
        # two clean trials with plenty of shifts spanning the domain;
        # alternating signs keep the staircase inside a modest yaw range
        amps = np.linspace(6.0, 48.0, 24) * (-1.0) ** np.arange(24)
        traces = [
            staircase_trace(amps, trial_id="t01"),
            staircase_trace(amps[::-1], trial_id="t02"),
        ]
        shifts = pooled_shifts(
            traces,
            (10.0, 15.0, 20.0),
            filter_cfg=FilterConfig(min_cutoff=1e9),
            fixation_cfg=FixationConfig(pad_s=0.0),
        )
        out = threshold_sensitivity(shifts, thresholds=(10.0, 15.0, 20.0))["p01"]
        assert set(out) == {10.0, 15.0, 20.0}
        assert out[15.0] == pytest.approx(1.0, abs=1e-12)
        assert out[10.0] > 0.99
        assert out[20.0] > 0.99

    def test_each_trace_is_smoothed_once(self, monkeypatch):
        amps = np.linspace(6.0, 48.0, 16) * (-1.0) ** np.arange(16)
        traces = [
            staircase_trace(amps, trial_id="t01"),
            staircase_trace(amps[::-1], trial_id="t02"),
        ]
        thresholds, base = (10.0, 20.0, 40.0), 15.0
        filt = FilterConfig(min_cutoff=3.0)
        fix = FixationConfig(vel_threshold=base, pad_s=0.0)

        # reference: every threshold rebuilds its shifts with preprocess_trial
        curves = {}
        for thr in (*thresholds, base):
            fix_thr = FixationConfig(vel_threshold=thr, pad_s=0.0)
            shifts = concat_shift_sets([preprocess_trial(tr, filt, fix_thr) for tr in traces])
            cleaned = symmetrize_and_clean(shifts)
            curves[thr] = eval_model(fit_soft_hinge(cleaned.x, cleaned.y).params,
                                     DEFAULT_GRID)
        want = {thr: pearson_r(curves[thr], curves[base]) for thr in thresholds}

        calls = []
        one_euro = events.one_euro
        monkeypatch.setattr(events, "one_euro", lambda *a: calls.append(1) or one_euro(*a))
        got = threshold_sensitivity(pooled_shifts(traces, thresholds, filt, fix),
                                    thresholds, base)["p01"]
        assert got == want
        assert len(calls) == len(traces)

    def test_cohort_gives_each_participant_its_lone_result(self, monkeypatch):
        # pa never moves the head, so its curve is constant; pd's shifts all
        # exceed max_ecc, so it has none; pb has two trials
        def trace(pid, beta, seed, trial="t01", amps=(5.0, 12.0)):
            cfg = SynthConfig(SoftHingeParams(beta, 8.0, 2.0), n_shifts=40, seed=seed,
                              participant_id=pid, trial_id=trial,
                              amp_min_deg=amps[0], amp_max_deg=amps[1])
            return align_head_to_gaze(*synth_trace(cfg)[:2])

        traces = [
            trace("pd", 0.7, 4, amps=(20.0, 40.0)),
            trace("pb", 0.6, 2),
            trace("pa", 0.0, 1),
            trace("pc", 0.8, 3),
            trace("pb", 0.6, 5, trial="t02"),
        ]
        kwargs = dict(thresholds=(10.0, 20.0), max_ecc=15.0)
        calls = []
        batched = stats.fit_participants
        monkeypatch.setattr(stats, "fit_participants",
                            lambda *a: calls.append(1) or batched(*a))
        got = threshold_sensitivity(pooled_shifts(traces, kwargs["thresholds"]), **kwargs)
        assert len(calls) == 1
        assert list(got) == ["pa", "pb", "pc", "pd"]
        assert isinstance(got["pa"], ZeroSpreadError)
        assert isinstance(got["pd"], EmptyDataError)
        assert set(got["pb"]) == set(got["pc"]) == {10.0, 20.0}
        for pid, result in got.items():
            own = [t for t in traces if t.participant_id == pid]
            alone = threshold_sensitivity(pooled_shifts(own, kwargs["thresholds"]), **kwargs)
            assert list(alone) == [pid]
            if isinstance(result, Exception):
                assert (type(result), str(result)) == (type(alone[pid]), str(alone[pid]))
            else:
                assert result == alone[pid]
