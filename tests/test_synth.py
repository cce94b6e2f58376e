import hashlib
from dataclasses import replace

import numpy as np
import pytest

from eyehead import (
    SoftHingeParams,
    SynthConfig,
    draw_population,
    eval_model,
    synth_shifts,
    synth_trace,
)
from eyehead import synth

PARAMS = SoftHingeParams(beta=0.7, tau=15.0, s=5.0)


class TestSynthShifts:
    def test_count_and_wedge(self):
        cfg = SynthConfig(PARAMS, n_shifts=500, noise_sd=3.0, seed=1)
        shifts, _ = synth_shifts(cfg)
        assert len(shifts) == 500
        assert np.all(shifts.x >= 0.0) and np.all(shifts.x <= 50.0)
        assert np.all(shifts.y >= 0.0) and np.all(shifts.y <= shifts.x)

    def test_noiseless_points_sit_on_curve(self):
        cfg = SynthConfig(PARAMS, n_shifts=200, noise_sd=0.0, seed=2)
        shifts, _ = synth_shifts(cfg)
        expected = np.clip(eval_model(PARAMS, shifts.x), 0.0, shifts.x)
        np.testing.assert_allclose(shifts.y, expected, atol=1e-12)

    def test_truth_record(self):
        cfg = SynthConfig(PARAMS, n_shifts=10, seed=3, participant_id="p07")
        _, truth = synth_shifts(cfg)
        assert truth["participant_id"] == "p07"
        assert truth["params"] == {"model": "soft-hinge", "beta": 0.7, "tau": 15.0, "s": 5.0}
        assert truth["n_shifts"] == 10
        assert truth["seed"] == 3

    def test_deterministic_in_seed(self):
        a, _ = synth_shifts(SynthConfig(PARAMS, n_shifts=50, noise_sd=1.0, seed=9))
        b, _ = synth_shifts(SynthConfig(PARAMS, n_shifts=50, noise_sd=1.0, seed=9))
        c, _ = synth_shifts(SynthConfig(PARAMS, n_shifts=50, noise_sd=1.0, seed=10))
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)
        assert not np.array_equal(a.x, c.x)

    def test_participants_get_distinct_streams(self):
        a, _ = synth_shifts(SynthConfig(PARAMS, n_shifts=50, seed=9, participant_id="a"))
        b, _ = synth_shifts(SynthConfig(PARAMS, n_shifts=50, seed=9, participant_id="b"))
        assert not np.array_equal(a.x, b.x)

    def test_noise_moments_away_from_the_clamp(self):
        # restrict to x > tau + 4s where the curve sits well inside the
        # wedge, so the clamp censors almost nothing and the residual
        # spread matches the configured noise
        cfg = SynthConfig(PARAMS, n_shifts=10_000, noise_sd=2.0, seed=5)
        shifts, _ = synth_shifts(cfg)
        keep = shifts.x > PARAMS.tau + 4.0 * PARAMS.s
        resid = shifts.y[keep] - eval_model(PARAMS, shifts.x[keep])
        assert keep.sum() > 2000
        assert abs(float(np.mean(resid))) < 0.1
        assert float(np.std(resid)) == pytest.approx(2.0, abs=0.1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(PARAMS, n_shifts=0)
        for noise_sd in (-1.0, float("nan")):
            with pytest.raises(ValueError):
                SynthConfig(PARAMS, noise_sd=noise_sd)
        for gaze_noise_sd in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="^gaze_noise_sd must be finite and >= 0"):
                SynthConfig(PARAMS, gaze_noise_sd=gaze_noise_sd)


class TestSynthTrace:
    def test_truth_lists_every_shift(self):
        cfg = SynthConfig(PARAMS, n_shifts=30, seed=6)
        gaze, head, truth = synth_trace(cfg)
        assert len(truth["shifts"]) == 30
        assert len(truth["fixations"]) == 31

    def test_sampling_clocks(self):
        cfg = SynthConfig(PARAMS, n_shifts=5, seed=7)
        gaze, head, truth = synth_trace(cfg)
        np.testing.assert_allclose(np.diff(gaze.t), 1.0 / 120.0, atol=1e-12)
        np.testing.assert_allclose(np.diff(head.t), 1.0 / 90.0, atol=1e-12)
        assert head.t[0] == pytest.approx(0.003)
        assert gaze.t[-1] <= truth["total_duration_s"]

    def test_head_amplitude_follows_curve(self):
        cfg = SynthConfig(PARAMS, n_shifts=40, seed=8)
        _, _, truth = synth_trace(cfg)
        for rec in truth["shifts"]:
            a = abs(rec["gaze_amplitude"])
            expected = min(float(eval_model(PARAMS, a)), a)
            assert abs(rec["head_amplitude"]) == pytest.approx(expected, abs=1e-12)
            # head moves the same direction as gaze
            assert rec["head_amplitude"] * rec["gaze_amplitude"] >= 0.0

    def test_plateaus_are_flat_and_ramps_move(self):
        cfg = SynthConfig(PARAMS, n_shifts=3, seed=9)
        gaze, _, truth = synth_trace(cfg)
        for lo, hi in truth["fixations"]:
            mask = (gaze.t >= lo) & (gaze.t < hi)
            assert np.ptp(gaze.yaw[mask]) == pytest.approx(0.0, abs=1e-12)
        for rec in truth["shifts"]:
            mask = (gaze.t >= rec["t_on"]) & (gaze.t <= rec["t_off"] + 1e-9)
            moved = gaze.yaw[mask][-1] - gaze.yaw[mask][0]
            # endpoints sampled within one frame of the ramp edges
            assert moved == pytest.approx(rec["gaze_amplitude"], abs=0.02 * abs(rec["gaze_amplitude"]))

    def test_wrap_output_bounds_yaw(self, monkeypatch):
        # a wide bound lets the unwrapped yaw pass +-180, so the wrap is exercised
        monkeypatch.setattr(synth, "POSITION_BOUND_DEG", 400.0)
        cfg = SynthConfig(PARAMS, n_shifts=60, seed=10, wrap_output=True)
        gaze, head, _ = synth_trace(cfg)
        for yaw in (gaze.yaw, head.yaw):
            assert np.all(yaw >= -180.0) and np.all(yaw < 180.0)

    def test_position_stays_inside_bound_unwrapped(self):
        cfg = SynthConfig(PARAMS, n_shifts=200, seed=11)
        gaze, _, _ = synth_trace(cfg)
        assert np.all(np.abs(gaze.yaw) <= 150.0 + 45.0)

    def test_trials_are_distinct_but_reproducible(self):
        a = synth_trace(SynthConfig(PARAMS, n_shifts=10, seed=12, trial_id="t01"))
        b = synth_trace(SynthConfig(PARAMS, n_shifts=10, seed=12, trial_id="t02"))
        again = synth_trace(SynthConfig(PARAMS, n_shifts=10, seed=12, trial_id="t01"))
        assert not np.array_equal(a[0].yaw, b[0].yaw)
        np.testing.assert_array_equal(a[0].yaw, again[0].yaw)
        np.testing.assert_array_equal(a[1].yaw, again[1].yaw)


# sha256 of synth_trace's arrays for NOISE_FREE_CFG, as built before gaze noise
# existed (numpy 2.4.6; numpy's sin may round differently in other releases)
NOISE_FREE_CFG = SynthConfig(PARAMS, n_shifts=20, seed=13, wrap_output=True)
NOISE_FREE_SHA256 = {
    "gaze.t": "8d90893576d29de0ea883a93a30d0567663ebaf63522796920fbf37d816f5daf",
    "gaze.yaw": "97e2f7a57d12212f6115ad0b82f627213814f40a2813c06f32c34013fbcf4f88",
    "head.t": "06bc06dc05bd0db72db51118400f8829219094b00d80159b8a9acee458ad85a7",
    "head.yaw": "0c052234493c03d668535f4fc07609581e01a4aa9a92347c7254d9207bf43eb6",
}


def gaze_noise(cfg):
    """The noise synth_trace added to cfg's gaze: its gaze yaw less the noise-free one."""
    return synth_trace(cfg)[0].yaw - synth_trace(replace(cfg, gaze_noise_sd=0.0))[0].yaw


class TestGazeNoise:
    def test_zero_noise_gives_the_noise_free_arrays(self):
        gaze, head, _ = synth_trace(replace(NOISE_FREE_CFG, gaze_noise_sd=0.0))
        arrays = {"gaze.t": gaze.t, "gaze.yaw": gaze.yaw, "head.t": head.t, "head.yaw": head.yaw}
        assert {k: hashlib.sha256(v.tobytes()).hexdigest() for k, v in arrays.items()} == NOISE_FREE_SHA256

    def test_a_seed_reproduces_the_noise(self):
        cfg = SynthConfig(PARAMS, n_shifts=20, seed=13, gaze_noise_sd=0.5)
        np.testing.assert_array_equal(synth_trace(cfg)[0].yaw, synth_trace(cfg)[0].yaw)
        noise = gaze_noise(cfg)
        assert not np.array_equal(noise, gaze_noise(replace(cfg, seed=14)))
        assert not np.array_equal(noise, gaze_noise(replace(cfg, trial_id="t02")))

    @pytest.mark.parametrize("sd", [0.25, 1.0])
    def test_noise_sd_lies_in_its_band(self, sd):
        # 3.3k samples: the sample SD's standard error is 1.2% of sd, so +-5% is
        # over 4 standard errors, and the mean's band is 4 of its own
        noise = gaze_noise(SynthConfig(PARAMS, n_shifts=50, seed=13, gaze_noise_sd=sd))
        assert noise.size > 3000
        assert 0.95 * sd < float(np.std(noise)) < 1.05 * sd
        assert abs(float(np.mean(noise))) < 4 * sd / np.sqrt(noise.size)

    def test_head_stream_and_truth_are_unchanged(self):
        cfg = SynthConfig(PARAMS, n_shifts=20, seed=13, gaze_noise_sd=1.0, wrap_output=True)
        (gaze, head, truth), (gaze0, head0, truth0) = synth_trace(cfg), synth_trace(NOISE_FREE_CFG)
        np.testing.assert_array_equal(gaze.t, gaze0.t)
        np.testing.assert_array_equal(head.t, head0.t)
        np.testing.assert_array_equal(head.yaw, head0.yaw)
        assert truth == truth0
        assert not np.array_equal(gaze.yaw, gaze0.yaw)


class TestDrawPopulation:
    def test_ranges_and_ids(self):
        pop = draw_population(25, seed=0)
        assert [pid for pid, _ in pop] == [f"synth{i + 1:03d}" for i in range(25)]
        for _, p in pop:
            assert 0.4 <= p.beta <= 0.95
            assert 5.0 <= p.tau <= 30.0
            assert 2.0 <= p.s <= 8.0

    def test_deterministic_and_prefix_stable(self):
        a = draw_population(10, seed=42)
        b = draw_population(10, seed=42)
        assert a == b
        # each participant's draw is keyed by id, not position, so a
        # larger population extends the smaller one
        bigger = draw_population(15, seed=42)
        assert bigger[:10] == a

    def test_seed_changes_draws(self):
        assert draw_population(5, seed=1) != draw_population(5, seed=2)
