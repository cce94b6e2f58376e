import numpy as np
import pytest

from eyehead import (
    EmptyDataError,
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
from eyehead import fitting
from eyehead.fitting import (
    LOWER,
    S_ROW,
    TAU_GRID,
    UPPER,
    FitResult,
    _fit_hinge_family,
    _lattice_seeds,
    _projected_lm,
)
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


def tiny_set(seed):
    """Seeded noisy soft-hinge shift set of 4-19 shifts."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 20))
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
        fit = fit_soft_hinge(x, y)
        assert fit.converged
        assert fit.params.beta == pytest.approx(0.8, abs=1e-4)
        assert fit.params.tau == pytest.approx(18.0, abs=1e-3)
        assert fit.params.s == pytest.approx(6.0, abs=1e-3)
        assert fit.sse < 1e-10

    def test_deterministic(self):
        x, y = soft_hinge_data(noise_sd=1.0, seed=3)
        a = fit_soft_hinge(x, y)
        b = fit_soft_hinge(x, y)
        assert a.to_file_dict() == b.to_file_dict()
        assert a.start_index == b.start_index
        np.testing.assert_array_equal(a.start_sses, b.start_sses)

    @pytest.mark.parametrize("s_row", [S_ROW, (1.0,)], ids=["soft-hinge", "hinge"])
    def test_lattice_seeds_are_profiled_minima(self, s_row):
        # the last set lies near 0 deg, so knees far to its right underflow
        # softplus to zero there and leave <f, f> = 0
        sets = [noisy_set(seed) for seed in range(3)]
        sets.append((np.linspace(0.0, 2.0, 7), np.linspace(0.0, 0.3, 7)))
        betas = np.linspace(0.0, 1.0, 501)
        for x, y in sets:
            seeds = _lattice_seeds(x, y, s_row)
            assert seeds.shape == (len(s_row), 3)
            np.testing.assert_array_equal(seeds[:, 2], s_row)
            assert np.all((seeds >= LOWER) & (seeds <= UPPER))
            assert set(seeds[:, 1]) <= set(TAU_GRID)
            for (beta, tau, s) in seeds:
                sse = np.sum((ref_soft_hinge(beta, tau, s, x) - y) ** 2)
                grid = ref_soft_hinge(betas[:, None, None], TAU_GRID[None, :, None], s, x)
                assert sse <= np.min(np.sum((grid - y) ** 2, axis=2)) + 1e-9

    def test_best_of_starts_beats_every_start(self):
        x, y = soft_hinge_data(noise_sd=2.0, seed=5, n=200)
        fit = fit_soft_hinge(x, y)
        assert fit.sse <= np.min(fit.start_sses) + 1e-9
        assert fit.start_index == int(np.argmin(fit.start_sses))

    def test_bounds_are_respected_under_noise(self):
        x, y = soft_hinge_data(beta=1.0, tau=5.0, s=0.5, noise_sd=3.0, seed=9, n=150)
        fit = fit_soft_hinge(x, y)
        assert 0.0 <= fit.params.beta <= 1.0
        assert -20.0 <= fit.params.tau <= 70.0
        assert fit.params.s >= 1e-3

    def test_flat_target_fits_zero_function(self):
        # the zero curve is reachable by beta -> 0 or tau -> large, so assert
        # on the fitted function rather than any single parameter
        x = np.linspace(0.0, 50.0, 40)
        y = np.zeros(40)
        fit = fit_soft_hinge(x, y)
        assert fit.sse == pytest.approx(0.0, abs=1e-8)
        assert np.max(np.abs(eval_model(fit.params, x))) < 1e-4

    def test_empty_data_rejected(self):
        with pytest.raises(EmptyDataError):
            fit_soft_hinge(np.array([]), np.array([]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(MismatchedDataError):
            fit_soft_hinge(np.arange(3.0), np.arange(4.0))


class TestHingeFit:
    def test_noiseless_recovery(self):
        x = np.linspace(0.0, 50.0, 80)
        y = 0.35 * np.logaddexp(0.0, x - 22.0)
        fit = fit_hinge(x, y)
        assert fit.params.beta == pytest.approx(0.35, abs=1e-4)
        assert fit.params.tau == pytest.approx(22.0, abs=1e-3)
        assert fit.n_params == 2

    def test_matches_unit_scale_soft_hinge_fit(self):
        x, y = soft_hinge_data(beta=0.5, tau=15.0, s=1.0)
        fit = fit_hinge(x, y)
        assert fit.sse < 1e-10

    def test_optimizer_matches_lattice_oracle(self):
        # noisy soft-hinge data, so the hinge (s = 1) is misspecified for
        # most draws and its SSE surface is not the one it was generated on
        worst = 0.0
        for seed in range(10):
            x, y = noisy_set(seed)
            fit = fit_hinge(x, y)
            worst = max(worst, fit.sse / hinge_lattice_min_sse(x, y))
        assert worst <= 1.01


def solve(x, y, starts):
    """_projected_lm with every row of starts on the same (x, y)."""
    m = len(starts)
    return _projected_lm(np.tile(x, m), np.tile(y, m), [x.size] * m, starts)


def random_starts(seed, k, m=20):
    """m starts drawn uniformly from a box inside the solver bounds."""
    rng = np.random.default_rng(seed)
    return rng.uniform((0.0, 0.0, 0.5), (1.0, 50.0, 20.0), (m, 3))[:, :k]


class TestBatchedSolver:
    @pytest.mark.parametrize("k", [2, 3], ids=["hinge", "soft-hinge"])
    def test_starts_do_not_depend_on_batch_size(self, k):
        # each row's result is bit-identical alone, in a subset and in the full batch
        for seed in range(5):
            x, y = noisy_set(seed)
            starts = np.vstack([_lattice_seeds(x, y, S_ROW)[:, :k], random_starts(seed, k, 6)])
            full = solve(x, y, starts)
            subset = np.arange(1, len(starts), 3)
            batches = [(subset, solve(x, y, starts[subset]))]
            batches += [([i], solve(x, y, starts[i:i + 1])) for i in range(len(starts))]
            for rows, part in batches:
                for got, want in zip(part, full):
                    np.testing.assert_array_equal(got, want[rows])

    @pytest.mark.parametrize("k", [2, 3])
    def test_every_start_descends_within_bounds(self, k):
        for seed in range(5):
            x, y = noisy_set(seed)
            starts = random_starts(seed, k)
            theta, sses, _ = solve(x, y, starts)
            s = starts[:, 2:3] if k == 3 else 1.0
            start_sses = np.sum((ref_soft_hinge(starts[:, :1], starts[:, 1:2], s, x) - y) ** 2,
                                axis=1)
            assert np.all(sses <= start_sses)
            assert np.all((theta >= LOWER[:k]) & (theta <= UPPER[:k]))

    @pytest.mark.parametrize("fit, k", [(fit_hinge, 2), (fit_soft_hinge, 3)],
                             ids=["hinge", "soft-hinge"])
    def test_best_of_starts_matches_scipy_oracle(self, fit, k):
        # scipy polishes the same lattice seeds
        worst = 0.0
        for seed in range(20):
            x, y = noisy_set(seed)
            result = fit(x, y)
            seeds = _lattice_seeds(x, y, S_ROW if k == 3 else (1.0,))[:, :k]
            worst = max(worst, result.sse / trf_min_sse(x, y, seeds))
        assert worst <= 1.0 + 1e-6

    def test_lowest_sse_seed_wins_even_unconverged(self, monkeypatch):
        # a seed that crawls along a valley may end lowest without meeting the
        # convergence test: it still wins, and the fit says it did not converge
        lm = fitting._projected_lm

        def best_seed_unconverged(x, y, sizes, starts):
            theta, sses, _ = lm(x, y, sizes, starts)
            converged = np.ones(len(sses), dtype=bool)
            converged[np.argmin(sses)] = False
            return theta, sses, converged

        monkeypatch.setattr(fitting, "_projected_lm", best_seed_unconverged)
        x, y = noisy_set(0)
        fit = fit_soft_hinge(x, y)
        assert fit.start_index == int(np.argmin(fit.start_sses))
        assert fit.sse == pytest.approx(min(fit.start_sses), rel=1e-12)
        assert fit.n_converged == len(S_ROW) - 1
        assert fit.to_file_dict()["converged"] is False

    @pytest.mark.parametrize("seed", [56, 20039, 20063, 20117])
    def test_soft_hinge_fits_no_worse_than_the_hinge_it_nests(self, seed):
        # the soft hinge at s = 1 is the hinge, so its best fit cannot be worse
        x, y = tiny_set(seed)
        assert fit_soft_hinge(x, y).sse <= fit_hinge(x, y).sse * (1.0 + 1e-9)

    def test_unconverged_best_fit_is_kept(self):
        # on this 9-shift set the seeds that reach the lowest SSE crawl along a
        # valley of shrinking s and do not converge within MAX_NFEV steps;
        # the seeds that do converge stop at twice that SSE
        x, y = tiny_set(56)
        fit = fit_soft_hinge(x, y)
        assert fit.sse == pytest.approx(min(fit.start_sses), rel=1e-12)
        assert fit.sse < fit_hinge(x, y).sse
        assert fit.to_file_dict()["converged"] is False

    @pytest.mark.parametrize("n, converged", [
        (1, {"linear": False, "hinge": False, "soft-hinge": False}),
        (3, {"linear": True, "hinge": True, "soft-hinge": False}),
        (4, {"linear": True, "hinge": True, "soft-hinge": True}),
    ])
    def test_fit_with_no_more_points_than_parameters_is_not_converged(self, n, converged):
        x = np.linspace(20.0, 40.0, n)
        y = 0.5 * np.maximum(x - 25.0, 0.0) + 1.0
        pfit = fit_participant(x, y)
        assert {m: f.converged for m, f in pfit.fits.items()} == converged


def same_fit(a, b):
    """Bit-identical FitResults: written fields, winning seed and every seed's SSE."""
    assert a.to_file_dict() == b.to_file_dict()
    assert (a.start_index, a.n_converged, a.start_sses) == (b.start_index, b.n_converged,
                                                           b.start_sses)


class TestBatchContract:
    """Problems solved in one batch each get the fit they get alone."""

    # 4-19, 60-300 and 1000 shifts: the last is over BATCH_POINTS as a soft
    # hinge (10 seeds) and under it as a hinge (1 seed)
    PROBLEMS = [tiny_set(20039), noisy_set(1), tiny_set(56), noisy_set(2), noisy_set(3),
                tiny_set(7), soft_hinge_data(n=1000, noise_sd=2.0, seed=8), tiny_set(9)]

    @pytest.mark.parametrize("free_s", [False, True], ids=["hinge", "soft-hinge"])
    def test_fit_is_the_same_alone_batched_and_split(self, monkeypatch, free_s):
        alone = [_fit_hinge_family([p], free_s)[0] for p in self.PROBLEMS]
        batched = _fit_hinge_family(self.PROBLEMS, free_s)
        monkeypatch.setattr(fitting, "BATCH_POINTS", 200)
        split = _fit_hinge_family(self.PROBLEMS, free_s)
        for want, got_batched, got_split in zip(alone, batched, split, strict=True):
            same_fit(got_batched, want)
            same_fit(got_split, want)

    @pytest.mark.parametrize("budget", [200, 1000, fitting.BATCH_POINTS])
    @pytest.mark.parametrize("free_s", [False, True], ids=["hinge", "soft-hinge"])
    def test_a_batch_holds_at_most_batch_points(self, monkeypatch, budget, free_s):
        calls = []
        lm = fitting._projected_lm

        def spy(x, y, sizes, starts):
            calls.append(np.asarray(sizes))
            return lm(x, y, sizes, starts)

        monkeypatch.setattr(fitting, "_projected_lm", spy)
        monkeypatch.setattr(fitting, "BATCH_POINTS", budget)
        _fit_hinge_family(self.PROBLEMS, free_s)
        seeds = len(S_ROW) if free_s else 1
        # every problem's seeds are solved once, in input order
        np.testing.assert_array_equal(np.concatenate(calls),
                                      np.repeat([x.size for x, _ in self.PROBLEMS], seeds))
        for sizes in calls:
            assert sizes.sum() <= budget or sizes.size == seeds
        # and a batch ends only where the next problem would overflow it
        for sizes, after in zip(calls, calls[1:]):
            assert sizes.sum() + after[:seeds].sum() > budget

    def test_fit_participants_is_fit_participant_per_problem(self):
        problems = self.PROBLEMS[:4]
        for got, (x, y) in zip(fitting.fit_participants(problems), problems, strict=True):
            want = fit_participant(x, y)
            assert (got.n_shifts, got.best_model) == (want.n_shifts, want.best_model)
            for model in want.fits:
                same_fit(got.fits[model], want.fits[model])


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
        start_sses=np.array([sse]),
    )


class TestCompareModels:
    def test_orders_by_aic(self):
        x, y = soft_hinge_data(beta=0.9, tau=20.0, s=8.0, noise_sd=0.5, seed=1, n=300)
        pfit = fit_participant(x, y)
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
        pfit = fit_participant(x, y)
        assert set(pfit.fits) == {"linear", "hinge", "soft-hinge"}
        assert pfit.n_shifts == 250

    def test_file_dict_round_trip(self):
        x, y = soft_hinge_data(n=61)
        pfit = fit_participant(x, y)
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
