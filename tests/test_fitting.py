import numpy as np
import pytest

from eyehead import (
    EmptyDataError,
    FitConfig,
    HingeParams,
    MismatchedDataError,
    SoftHingeParams,
    SynthConfig,
    aic_gaussian,
    compare_models,
    eval_model,
    fit_hinge,
    fit_linear,
    fit_metrics,
    fit_participant,
    fit_soft_hinge,
    synth_shifts,
)
from eyehead.fitting import LOWER, UPPER, FitResult, _draw_start, _projected_lm, start_rng
from eyehead.models import compute_ehr_slope, compute_eor

from .oracles import hinge_lattice_min_sse, ref_soft_hinge, trf_min_sse


def soft_hinge_data(beta=0.8, tau=18.0, s=6.0, n=101, noise_sd=0.0, seed=0):
    x = np.linspace(0.0, 50.0, n)
    y = ref_soft_hinge(beta, tau, s, x)
    if noise_sd > 0:
        y = y + np.random.default_rng(seed).normal(0.0, noise_sd, n)
        y = np.clip(y, 0.0, x)
    return x, y


def noisy_set(seed):
    """Seeded noisy soft-hinge shift set of 60-300 shifts."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(60, 301))
    params = SoftHingeParams(
        rng.uniform(0.3, 0.95), rng.uniform(5.0, 30.0), rng.uniform(1.0, 9.0)
    )
    shifts, _ = synth_shifts(SynthConfig(params, n_shifts=n, noise_sd=2.0, seed=seed))
    return shifts.x, shifts.y


class TestMetrics:
    def test_aic_reference_value(self):
        # n*ln(sse/n) + 2k with sse/n = 1 gives exactly 2k
        assert aic_gaussian(sse=100.0, n=100, k=3) == pytest.approx(6.0, abs=1e-12)

    def test_aic_zero_sse_is_finite(self):
        assert np.isfinite(aic_gaussian(sse=0.0, n=50, k=3))

    def test_metric_values(self):
        x = np.array([0.0, 10.0, 20.0, 30.0])
        y = np.array([0.0, 0.0, 2.0, 4.0])
        params = SoftHingeParams(beta=0.0, tau=10.0, s=1.0)  # predicts all zeros
        sse, r2, rmse, aic = fit_metrics(x, y, params, k=3)
        assert sse == pytest.approx(20.0)
        tss = np.sum((y - y.mean()) ** 2)
        assert r2 == pytest.approx(1.0 - 20.0 / tss)
        assert rmse == pytest.approx(np.sqrt(20.0 / 4.0))
        assert aic == pytest.approx(4 * np.log(5.0) + 6.0)

    def test_constant_target_gives_nan_r2(self):
        x = np.array([0.0, 10.0, 20.0])
        y = np.zeros(3)
        _, r2, _, _ = fit_metrics(x, y, SoftHingeParams(0.0, 10.0, 1.0), k=3)
        assert np.isnan(r2)


class TestSoftHingeFit:
    def test_noiseless_recovery(self):
        x, y = soft_hinge_data(beta=0.8, tau=18.0, s=6.0)
        fit = fit_soft_hinge(x, y, FitConfig(n_starts=10, seed=1), "pX")
        assert fit.converged
        assert fit.params.beta == pytest.approx(0.8, abs=1e-4)
        assert fit.params.tau == pytest.approx(18.0, abs=1e-3)
        assert fit.params.s == pytest.approx(6.0, abs=1e-3)
        assert fit.sse < 1e-10

    def test_deterministic_given_seed_and_participant(self):
        x, y = soft_hinge_data(noise_sd=1.0, seed=3)
        cfg = FitConfig(n_starts=8, seed=42)
        a = fit_soft_hinge(x, y, cfg, "p01")
        b = fit_soft_hinge(x, y, cfg, "p01")
        assert a.params == b.params
        assert a.start_index == b.start_index
        np.testing.assert_array_equal(a.start_sses, b.start_sses)

    def test_participants_get_distinct_start_streams(self):
        draws_a = [_draw_start(start_rng(0, "p01", j)) for j in range(4)]
        draws_b = [_draw_start(start_rng(0, "p02", j)) for j in range(4)]
        assert draws_a != draws_b

    def test_start_draws_respect_boxes(self):
        for j in range(50):
            beta, tau, s = _draw_start(start_rng(7, "p03", j))
            assert 0.0 <= beta <= 1.0
            assert 0.0 <= tau <= 50.0
            assert 0.5 <= s <= 20.0

    def test_best_of_starts_beats_every_start(self):
        x, y = soft_hinge_data(noise_sd=2.0, seed=5, n=200)
        fit = fit_soft_hinge(x, y, FitConfig(n_starts=12, seed=0), "p01")
        assert fit.sse <= np.min(fit.start_sses) + 1e-9
        assert fit.start_index == int(np.argmin(fit.start_sses))

    def test_bounds_are_respected_under_noise(self):
        x, y = soft_hinge_data(beta=1.0, tau=5.0, s=0.5, noise_sd=3.0, seed=9, n=150)
        fit = fit_soft_hinge(x, y, FitConfig(n_starts=10, seed=0), "p01")
        assert 0.0 <= fit.params.beta <= 1.0
        assert -20.0 <= fit.params.tau <= 70.0
        assert fit.params.s >= 1e-3

    def test_flat_target_fits_zero_function(self):
        # the zero curve is reachable by beta -> 0 or tau -> large, so assert
        # on the fitted function rather than any single parameter
        x = np.linspace(0.0, 50.0, 40)
        y = np.zeros(40)
        fit = fit_soft_hinge(x, y, FitConfig(n_starts=5, seed=0), "p01")
        assert fit.sse == pytest.approx(0.0, abs=1e-8)
        assert np.max(np.abs(eval_model(fit.params, x))) < 1e-4

    def test_empty_data_rejected(self):
        with pytest.raises(EmptyDataError):
            fit_soft_hinge(np.array([]), np.array([]), FitConfig(), "p")

    def test_length_mismatch_rejected(self):
        with pytest.raises(MismatchedDataError):
            fit_soft_hinge(np.arange(3.0), np.arange(4.0), FitConfig(), "p")


class TestHingeFit:
    def test_noiseless_recovery(self):
        x = np.linspace(0.0, 50.0, 80)
        y = 0.35 * np.logaddexp(0.0, x - 22.0)
        fit = fit_hinge(x, y, FitConfig(n_starts=8, seed=2), "p01")
        assert fit.params.beta == pytest.approx(0.35, abs=1e-4)
        assert fit.params.tau == pytest.approx(22.0, abs=1e-3)
        assert fit.n_params == 2

    def test_matches_unit_scale_soft_hinge_fit(self):
        x, y = soft_hinge_data(beta=0.5, tau=15.0, s=1.0)
        fit = fit_hinge(x, y, FitConfig(n_starts=8, seed=0), "p01")
        assert fit.sse < 1e-10

    def test_optimizer_matches_lattice_oracle(self):
        # noisy soft-hinge data, so the hinge (s = 1) is misspecified for
        # most draws and its SSE surface is not the one it was generated on
        worst = 0.0
        for seed in range(10):
            x, y = noisy_set(seed)
            fit = fit_hinge(x, y, FitConfig(n_starts=20, seed=seed), f"h{seed}")
            worst = max(worst, fit.sse / hinge_lattice_min_sse(x, y))
        assert worst <= 1.01


class TestBatchedSolver:
    @pytest.mark.parametrize("fit", [fit_hinge, fit_soft_hinge], ids=["hinge", "soft-hinge"])
    def test_starts_do_not_depend_on_batch_size(self, fit):
        for seed in range(5):
            x, y = noisy_set(seed)
            few = fit(x, y, FitConfig(n_starts=7, seed=seed), f"b{seed}")
            many = fit(x, y, FitConfig(n_starts=20, seed=seed), f"b{seed}")
            assert few.start_sses == many.start_sses[:7]

    @pytest.mark.parametrize("k", [2, 3])
    def test_every_start_descends_within_bounds(self, k):
        for seed in range(5):
            x, y = noisy_set(seed)
            starts = np.array([_draw_start(start_rng(seed, "d", j))[:k] for j in range(20)])
            theta, sses, _ = _projected_lm(x, y, starts)
            s = starts[:, 2:3] if k == 3 else 1.0
            start_sses = np.sum((ref_soft_hinge(starts[:, :1], starts[:, 1:2], s, x) - y) ** 2,
                                axis=1)
            assert np.all(sses <= start_sses)
            assert np.all((theta >= LOWER[:k]) & (theta <= UPPER[:k]))

    @pytest.mark.parametrize("fit, k", [(fit_hinge, 2), (fit_soft_hinge, 3)],
                             ids=["hinge", "soft-hinge"])
    def test_best_of_starts_matches_scipy_oracle(self, fit, k):
        worst = 0.0
        for seed in range(20):
            x, y = noisy_set(seed)
            result = fit(x, y, FitConfig(n_starts=8, seed=seed), f"o{seed}")
            starts = [_draw_start(start_rng(seed, f"o{seed}", j))[:k] for j in range(8)]
            worst = max(worst, result.sse / trf_min_sse(x, y, starts))
        assert worst <= 1.0 + 1e-6

    @pytest.mark.parametrize("n, converged", [
        (1, {"linear": False, "hinge": False, "soft-hinge": False}),
        (3, {"linear": True, "hinge": True, "soft-hinge": False}),
        (4, {"linear": True, "hinge": True, "soft-hinge": True}),
    ])
    def test_fit_with_no_more_points_than_parameters_is_not_converged(self, n, converged):
        x = np.linspace(20.0, 40.0, n)
        y = 0.5 * np.maximum(x - 25.0, 0.0) + 1.0
        pfit = fit_participant(x, y, "few", FitConfig(n_starts=4, seed=0))
        assert {m: f.converged for m, f in pfit.fits.items()} == converged


class TestLinearFit:
    def test_all_eye_only_degenerates_to_flat(self):
        x = np.linspace(1.0, 50.0, 100)
        y = 0.05 * x  # always within 10% of the shift
        fit = fit_linear(x, y)
        assert fit.params.alpha == 50.0
        assert fit.params.gamma == 0.0
        assert fit.converged

    def test_components_are_glued_consistently(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(0.0, 50.0, 400)
        y = np.clip(0.5 * (x - 20.0), 0.0, None) + rng.normal(0.0, 0.3, 400)
        y = np.clip(y, 0.0, x)
        fit = fit_linear(x, y)
        alpha = compute_eor(x, y)
        assert fit.params.alpha == pytest.approx(alpha)
        assert fit.params.gamma == pytest.approx(compute_ehr_slope(x, y, alpha))

    def test_recovers_breakpoint_roughly(self):
        rng = np.random.default_rng(21)
        x = rng.uniform(0.0, 50.0, 500)
        y = np.clip(0.6 * (x - 20.0), 0.0, None)
        fit = fit_linear(x, y)
        # the breakpoint estimate sits where eye-only probability crosses 0.5
        # (x = 24 for this slope), not at the hinge corner itself
        assert 20.0 <= fit.params.alpha <= 25.0
        assert 0.5 <= fit.params.gamma <= 0.9


def _result(model, sse, n, k, digest="d"):
    return FitResult(
        model=model,
        params=SoftHingeParams(0.5, 10.0, 1.0) if model == "soft-hinge"
        else HingeParams(0.5, 10.0),
        sse=sse,
        rmse=np.sqrt(sse / n),
        r2=0.5,
        aic=aic_gaussian(sse, n, k),
        n_points=n,
        n_params=k,
        converged=True,
        n_converged=1,
        start_index=0,
        data_digest=digest,
        start_sse=sse,
        start_sses=np.array([sse]),
    )


class TestCompareModels:
    def test_orders_by_aic(self):
        x, y = soft_hinge_data(beta=0.9, tau=20.0, s=8.0, noise_sd=0.5, seed=1, n=300)
        pfit = fit_participant(x, y, "p01", FitConfig(n_starts=8, seed=0))
        ranked = compare_models(list(pfit.fits.values()))
        aics = [r.aic for r in ranked]
        assert aics == sorted(aics)
        assert pfit.best_model == ranked[0].model

    def test_aic_tie_prefers_fewer_parameters(self):
        a = _result("soft-hinge", sse=100.0, n=100, k=3)
        b = _result("hinge", sse=100.0 * np.exp(2 / 100), n=100, k=2)
        # constructed so both AICs are equal
        assert a.aic == pytest.approx(b.aic, abs=1e-9)
        ranked = compare_models([a, b])
        assert ranked[0].model == "hinge"

    def test_mismatched_digests_rejected(self):
        a = _result("soft-hinge", 10.0, 100, 3, digest="aaa")
        b = _result("hinge", 12.0, 100, 2, digest="bbb")
        with pytest.raises(MismatchedDataError):
            compare_models([a, b])


class TestFitParticipant:
    def test_full_candidate_set(self):
        x, y = soft_hinge_data(beta=0.7, tau=15.0, s=4.0, noise_sd=1.0, seed=4, n=250)
        pfit = fit_participant(x, y, "p07", FitConfig(n_starts=10, seed=0))
        assert set(pfit.fits) == {"linear", "hinge", "soft-hinge"}
        assert pfit.n_shifts == 250
        assert pfit.eor == pfit.fits["linear"].params.alpha
        assert pfit.ehr_slope == pfit.fits["linear"].params.gamma

    def test_file_dict_round_trip(self):
        x, y = soft_hinge_data(n=61)
        pfit = fit_participant(x, y, "p07", FitConfig(n_starts=4, seed=0))
        for fit in pfit.fits.values():
            d = fit.to_file_dict()
            assert set(d) == {
                "model", "params", "sse", "r2", "rmse", "aic", "n_points", "converged",
            }
            back = FitResult.from_file_dict(d)
            assert back.model == fit.model
            assert eval_model(back.params, 30.0) == pytest.approx(
                eval_model(fit.params, 30.0)
            )
