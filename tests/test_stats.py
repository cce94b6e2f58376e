from dataclasses import asdict

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

from eyehead import AlignedTrace, align_head_to_gaze, events, preprocess_trial, stats, synth
from eyehead.events import angular_velocity, detect_fixations, extract_shifts
from eyehead.fitting import fit_soft_hinge
from eyehead.fpca import DEFAULT_GRID
from eyehead.ingest import concat_shift_sets, one_euro, symmetrize_and_clean
from eyehead.models import eval_model


def make_shifts(x, y):
    x = np.asarray(x, dtype=float)
    return ShiftSet(["p01"] * x.size, ["t01"] * x.size, x, np.asarray(y, dtype=float))


def layered_shifts(trace, filter_cfg, fixation_cfg):
    """One trial's shifts, composed here from the smoothing and segmentation layers."""
    velocity = angular_velocity(trace.t, one_euro(trace.t, trace.gaze_yaw, filter_cfg))
    return extract_shifts(trace, detect_fixations(trace.t, velocity, fixation_cfg))


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
        assert set(asdict(s)) == {"n", "min", "q1", "median", "q3", "max", "skewness"}

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


FLOAT_MAX = float(np.finfo(float).max)


class TestHugeValues:
    """The summaries report makes of fits.json and scores.csv values, near the float limit."""

    def test_ordinary_values_are_summarized_bit_for_bit_as_unscaled(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = rng.normal(rng.uniform(-50.0, 50.0), rng.uniform(0.1, 100.0), 24)
            assert stats.mean_sd(v) == (float(v.mean()), float(v.std(ddof=1)))
            assert quartiles(v) == tuple(np.percentile(v, [25.0, 50.0, 75.0]))
            d = v - v.mean()
            g1 = float(np.mean(d**3)) / float(np.mean(d**2)) ** 1.5
            assert skewness(v) == g1 * np.sqrt(24 * 23.0) / 22.0
            span = float(v.max() - v.min())
            grid = np.linspace(v.min() - 0.25 * span, v.max() + 0.25 * span, 201)
            np.testing.assert_array_equal(stats.kde_grid(v, 201), grid)
            h = 1.06 * float(np.std(v, ddof=1)) * 24 ** (-1.0 / 5.0)
            z = (grid[:, None] - v[None, :]) / h
            want = np.exp(-0.5 * z**2).sum(axis=1) / (24 * h * np.sqrt(2.0 * np.pi))
            np.testing.assert_array_equal(kde_density(v, grid), want)

    @pytest.mark.parametrize("big", [1.7877077239923462e154, 1e160, FLOAT_MAX])
    def test_a_huge_value_among_ordinary_ones_gives_finite_summaries(self, big):
        v = np.array([-8.6, -2.1, -8.4, 19.1, big])
        mean, sd = stats.mean_sd(v)
        assert np.isfinite([mean, sd, *quartiles(v), skewness(v)]).all()
        grid = stats.kde_grid(v, 201)
        dens = kde_density(v, grid)
        assert np.isfinite(grid).all() and grid[0] < v.min() and grid[-1] == pytest.approx(
            min(big * 1.25, FLOAT_MAX))
        assert np.isfinite(dens).all() and dens.max() > 0.0

    def test_an_sd_past_the_float_range_is_inf(self):
        assert stats.mean_sd([FLOAT_MAX, -FLOAT_MAX]) == (0.0, np.inf)

    def test_no_values_and_one_value_give_nan(self):
        assert np.isnan(stats.mean_sd([])).all()
        mean, sd = stats.mean_sd([3.0])
        assert mean == 3.0 and np.isnan(sd)

    def test_summaries_scale_with_a_power_of_two(self):
        v = np.array([0.0, 0.5, 1.0, 1.5, 8.0])
        k = 2.0 ** 1000
        assert stats.mean_sd(v * k) == tuple(k * m for m in stats.mean_sd(v))
        assert quartiles(v * k) == tuple(k * q for q in quartiles(v))
        assert skewness(v * k) == pytest.approx(skewness(v), rel=1e-14)
        grid = stats.kde_grid(v, 11)
        np.testing.assert_array_equal(stats.kde_grid(v * k, 11), grid * k)
        np.testing.assert_array_equal(kde_density(v * k, grid * k), kde_density(v, grid) / k)


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


def assert_same_shifts(got, want):
    assert got.participant_id == want.participant_id
    assert got.trial_id == want.trial_id
    np.testing.assert_array_equal(got.x, want.x)
    np.testing.assert_array_equal(got.y, want.y)


class TestThresholdShifts:
    def test_each_threshold_then_the_base_matches_the_layers(self, monkeypatch):
        amps = np.linspace(6.0, 48.0, 16) * (-1.0) ** np.arange(16)
        trace = staircase_trace(amps)
        filt = FilterConfig(min_cutoff=3.0)
        fix = FixationConfig(vel_threshold=15.0, pad_s=0.0)
        calls = []
        monkeypatch.setattr(events, "one_euro", lambda *a: calls.append(1) or one_euro(*a))
        got = threshold_shifts(trace, (20.0, 10.0, 20.0), filt, fix)
        assert len(calls) == 1
        assert list(got) == [20.0, 10.0, 15.0]
        for thr, shifts in got.items():
            want = layered_shifts(trace, filt, FixationConfig(vel_threshold=thr, pad_s=0.0))
            assert_same_shifts(shifts, want)

    @pytest.mark.parametrize("filt, fix", [
        (FilterConfig(), FixationConfig()),
        (FilterConfig(min_cutoff=3.0, beta=0.01), FixationConfig(vel_threshold=25.0, pad_s=0.0)),
    ], ids=["defaults", "other-configs"])
    def test_preprocess_trial_is_the_layers_at_the_base_threshold(self, filt, fix):
        trace = staircase_trace(np.linspace(6.0, 48.0, 16) * (-1.0) ** np.arange(16))
        assert_same_shifts(preprocess_trial(trace, filt, fix), layered_shifts(trace, filt, fix))


class TestThresholdSensitivity:
    @pytest.mark.parametrize("max_ecc", [80.0, 0.0, float("nan")])
    def test_max_ecc_outside_the_models_domain_is_rejected(self, max_ecc):
        shifts = {("p01", 15.0): make_shifts([30.0, 45.0], [3.0, 9.0])}
        with pytest.raises(ValueError, match="^max_ecc must be in "):
            threshold_sensitivity(shifts, thresholds=(15.0,), base=15.0, max_ecc=max_ecc)

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

        # reference: every threshold rebuilds its shifts from the layers
        curves = {}
        for thr in (*thresholds, base):
            fix_thr = FixationConfig(vel_threshold=thr, pad_s=0.0)
            shifts = concat_shift_sets([layered_shifts(tr, filt, fix_thr) for tr in traces])
            cleaned = symmetrize_and_clean(shifts)
            curves[thr] = eval_model(fit_soft_hinge(cleaned.x, cleaned.y).params,
                                     DEFAULT_GRID)
        want = {thr: pearson_r(curves[thr], curves[base]) for thr in thresholds}

        calls = []
        monkeypatch.setattr(events, "one_euro", lambda *a: calls.append(1) or one_euro(*a))
        got = threshold_sensitivity(pooled_shifts(traces, thresholds, filt, fix),
                                    thresholds, base)["p01"]
        assert got == want
        assert len(calls) == len(traces)

    def test_cohort_gives_each_participant_its_lone_result(self, monkeypatch):
        # pa never moves the head, so its curve is constant; pd's shifts all
        # exceed max_ecc, so it has none; pb has two trials
        def trace(pid, beta, seed, trial="t01", amps=(5.0, 12.0)):
            monkeypatch.setattr(synth, "AMP_RANGE_DEG", amps)
            cfg = SynthConfig(SoftHingeParams(beta, 8.0, 2.0), n_shifts=40, seed=seed,
                              participant_id=pid, trial_id=trial)
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
