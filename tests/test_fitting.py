import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eyehead import (
    EmptyDataError,
    HingeParams,
    MismatchedDataError,
    SoftHingeParams,
    SynthConfig,
    aic_gaussian,
    compare_models,
    draw_population,
    eval_model,
    fit_hinge,
    fit_linear,
    fit_participant,
    fit_participants,
    fit_soft_hinge,
    params_from_dict,
    synth_shifts,
)
from eyehead import fitting
from eyehead.fitting import (
    HINGE_KNEES,
    LAM_MIN,
    LOWER,
    S_ROW,
    TAU_GRID,
    UPPER,
    FitResult,
    _damped_step,
    _fit_hinge_family,
    _lattice_seeds,
    _projected_lm,
)
from eyehead.models import compute_ehr_slope, compute_eor

from .oracles import (
    fd_gradient,
    hinge_lattice_min_sse,
    ref_fit_scores,
    ref_logistic,
    ref_soft_hinge,
    ref_softplus,
    trf_min_sse,
)


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
        fit = fitting._finish("soft-hinge", params, x, y, True, 1, 0, None)
        assert fit.sse == pytest.approx(20.0)
        tss = np.sum((y - y.mean()) ** 2)
        assert fit.r2 == pytest.approx(1.0 - 20.0 / tss)
        assert fit.rmse == pytest.approx(np.sqrt(20.0 / 4.0))
        assert fit.aic == pytest.approx(4 * np.log(5.0) + 6.0)
        assert (fit.n_points, fit.n_params, fit.start_sses) == (4, 3, [fit.sse])

    def test_constant_target_gives_nan_r2(self):
        x = np.array([0.0, 10.0, 20.0])
        y = np.zeros(3)
        fit = fitting._finish("soft-hinge", SoftHingeParams(0.0, 10.0, 1.0), x, y, True, 1, 0,
                              None)
        assert np.isnan(fit.r2)

    def test_every_fit_of_a_constant_target_has_nan_r2(self):
        x = np.linspace(5.0, 40.0, 30)
        for fit in fit_participant(x, np.full(30, 2.0)).fits.values():
            assert np.isnan(fit.r2)
            assert np.isfinite([fit.sse, fit.rmse, fit.aic]).all()

    def test_the_linear_baseline_is_its_only_start(self):
        x, y = noisy_set(1)
        fit = fit_linear(x, y)
        assert fit.start_sses == [fit.sse]
        assert (fit.n_converged, fit.start_index) == (1, 0)

    def test_every_fit_of_a_cohort_matches_the_scores_oracle(self):
        problems = [noisy_set(seed) for seed in range(4)] + [tiny_set(seed) for seed in range(4)]
        for pfit, (x, y) in zip(fit_participants(problems), problems, strict=True):
            assert set(pfit.fits) == {"linear", "hinge", "soft-hinge"}
            for fit in pfit.fits.values():
                want = ref_fit_scores(eval_model(fit.params, x) - y, y, fit.n_params)
                got = (fit.sse, fit.r2, fit.rmse, fit.aic)
                for a, b in zip(got, want, strict=True):
                    assert math.isclose(a, b, rel_tol=1e-12), (fit.model, got, want)
                assert fit.n_points == x.size

    def test_fit_participants_checks_each_problem_twice(self, monkeypatch):
        # once up front for every model, and once more in the public fit_linear
        calls = []
        check = fitting._check_data

        def spy(x, y):
            calls.append(len(x))
            return check(x, y)

        monkeypatch.setattr(fitting, "_check_data", spy)
        problems = [noisy_set(seed) for seed in range(3)]
        fit_participants(problems)
        assert sorted(calls) == sorted(2 * [x.size for x, _ in problems])


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

    @pytest.mark.parametrize("model, s_row", [("soft-hinge", S_ROW), ("hinge", (1.0,))],
                             ids=["soft-hinge", "hinge"])
    def test_lattice_seeds_are_profiled_minima(self, model, s_row):
        # the last set lies near 0 deg, so knees far to its right underflow
        # softplus to zero there and leave <f, f> = 0
        sets = [noisy_set(seed) for seed in range(3)]
        sets.append((np.linspace(0.0, 2.0, 7), np.linspace(0.0, 0.3, 7)))
        betas = np.linspace(0.0, 1.0, 501)
        for x, y in sets:
            seeds = _lattice_seeds(x, y, (model,))[model][:len(s_row)]  # the hinge's lowest
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


class TestSlopeRule:
    """A soft-hinge fit rises no faster than the gaze shift: slope beta / s <= 1."""

    def test_ten_shifts_no_longer_fit_a_curve_past_the_shift(self):
        # polished freely, the lowest-SSE seed here stops at beta 0.141, tau 40.09,
        # s 0.001: slope 141 past a knee at the last shift, f(50) about 1401 deg
        pid, params = draw_population(40, seed=11)[0]
        shifts, _ = synth_shifts(SynthConfig(params, n_shifts=10, noise_sd=2.0, seed=1021,
                                             participant_id=pid))
        fit = fit_soft_hinge(shifts.x, shifts.y)
        assert fit.params.beta <= fit.params.s
        assert eval_model(fit.params, 50.0) <= 50.0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    @example(seed=56)
    def test_every_soft_hinge_fit_is_admitted(self, seed):
        # every polished seed is no steeper than the shift, so neither is the fit,
        # converged or not
        x, y = tiny_set(seed)
        fit = fit_soft_hinge(x, y)
        assert fit.params.beta <= fit.params.s

    def test_a_seed_that_stops_steep_goes_on_as_a_hinge_from_its_knee(self):
        # on this 9-shift set every lowest-SSE soft-hinge seed stops at slope 1.6-2.4
        x, y = tiny_set(56)
        seeds = _lattice_seeds(x, y, ("soft-hinge",))["soft-hinge"]
        k = len(seeds)
        free = _projected_lm([(x, y)] * k, seeds[:, 1:], np.zeros(k, dtype=bool))
        hinge = _projected_lm([(x, y)] * k, np.column_stack([seeds[:, 1], np.ones(k)]),
                              np.ones(k, dtype=bool))
        assert np.all(free[0][:, 0] <= free[0][:, 2])
        went_on = free[0][:, 2] == 1.0
        assert went_on.sum() >= 5
        for got, want in zip(free, hinge, strict=True):
            np.testing.assert_array_equal(got[went_on], want[went_on])


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

    def test_every_basin_of_the_knee_profile_is_seeded(self):
        # on this 18-shift set the lowest lattice knee, tau = -20 (a near-straight
        # line), polishes to SSE 25.32; the next local minimum of the profiled
        # SSE along TAU_GRID polishes below the oracle's 24.41
        x, y = tiny_set(20010)
        fit = fit_hinge(x, y)
        assert len(fit.start_sses) == 2
        assert fit.sse <= hinge_lattice_min_sse(x, y)

    def test_hinge_row_of_the_lattice_is_s_one(self):
        # the hinge reads its seeds off the soft hinge's lattice, at this row
        assert S_ROW[fitting._HINGE_ROW] == 1.0

    def test_seeds_are_the_local_minima_of_the_s_one_profile(self):
        # the s = 1 knee profile computed apart, with the reference softplus
        sets = [tiny_set(seed) for seed in range(20000, 20030)] + [noisy_set(s) for s in range(5)]
        n_minima = set()
        for x, y in sets:
            f = ref_softplus(x[None, :] - TAU_GRID[:, None])
            beta = np.clip((f @ y) / np.einsum("ij,ij->i", f, f), 0.0, 1.0)
            profile = np.sum((beta[:, None] * f - y) ** 2, axis=1)
            last = TAU_GRID.size - 1
            minima = [j for j in range(TAU_GRID.size)
                      if (j == 0 or profile[j] < profile[j - 1])
                      and (j == last or profile[j] <= profile[j + 1])]
            minima = sorted(minima, key=lambda j: profile[j])[:HINGE_KNEES]
            n_minima.add(len(minima))
            alone = _lattice_seeds(x, y, ("hinge",))["hinge"]
            shared = _lattice_seeds(x, y, ("hinge", "soft-hinge"))["hinge"]
            np.testing.assert_array_equal(alone, shared)
            np.testing.assert_array_equal(alone[:, 1], TAU_GRID[minima])
            np.testing.assert_array_equal(alone[:, 2], 1.0)
            np.testing.assert_allclose(alone[:, 0], beta[minima], rtol=1e-12)
        assert n_minima >= {1, 2}  # sets with one basin and with more

    def test_optimizer_matches_lattice_oracle(self):
        # noisy soft-hinge data, so the hinge (s = 1) is misspecified for
        # most draws and its SSE surface is not the one it was generated on
        worst = 0.0
        for seed in range(10):
            x, y = noisy_set(seed)
            fit = fit_hinge(x, y)
            worst = max(worst, fit.sse / hinge_lattice_min_sse(x, y))
        assert worst <= 1.01


def solve(x, y, starts, pinned):
    """_projected_lm with every row of starts on the same (x, y)."""
    return _projected_lm([(x, y)] * len(starts), starts, pinned)


def pin(starts, k):
    """(tau, s) starts and their pinned flags: for k = 1 (the hinge) s is pinned at 1."""
    starts = np.array(starts, dtype=float)
    if k == 1:
        starts[:, 1] = 1.0
    return starts, np.full(len(starts), k == 1)


def random_starts(seed, k, m=20):
    """m (tau, s) starts uniform in a box inside the bounds, pinned as pin() pins them."""
    rng = np.random.default_rng(seed)
    return pin(rng.uniform((0.0, 0.5), (50.0, 20.0), (m, 2)), k)


def profiled_sse(x, y, starts):
    """SSE of each (tau, s) start at its best beta = clip(<f, y>/<f, f>, 0, 1)."""
    f = ref_soft_hinge(1.0, starts[:, :1], starts[:, 1:2], x)
    beta = np.clip((f @ y) / np.einsum("ij,ij->i", f, f), 0.0, 1.0)
    return np.sum((beta[:, None] * f - y) ** 2, axis=1)


class TestBatchedSolver:
    @pytest.mark.parametrize("k", [1, 2], ids=["hinge", "soft-hinge"])
    def test_starts_do_not_depend_on_batch_size(self, k):
        # each row's result is bit-identical alone, in a subset and in the full batch
        for seed in range(5):
            x, y = noisy_set(seed)
            starts, pinned = pin(np.vstack([_lattice_seeds(x, y, ("soft-hinge",))["soft-hinge"][:, 1:],
                                            random_starts(seed, k, 6)[0]]), k)
            full = solve(x, y, starts, pinned)
            subset = np.arange(1, len(starts), 3)
            batches = [(subset, solve(x, y, starts[subset], pinned[subset]))]
            batches += [([i], solve(x, y, starts[i:i + 1], pinned[i:i + 1]))
                        for i in range(len(starts))]
            for rows, part in batches:
                for got, want in zip(part, full):
                    np.testing.assert_array_equal(got, want[rows])

    @pytest.mark.parametrize("n_params", [2, 3])
    def test_every_start_descends_within_bounds(self, n_params):
        # from each start's profiled-beta SSE, which is no larger than at any other beta
        k = n_params - 1  # beta is projected out
        for seed in range(5):
            x, y = noisy_set(seed)
            starts, pinned = random_starts(seed, k)
            params, sses, _ = solve(x, y, starts, pinned)
            assert np.all(sses <= profiled_sse(x, y, starts))
            assert np.all((params >= LOWER) & (params <= UPPER))
            # a pinned s stays where it started
            np.testing.assert_array_equal(params[pinned, 2], starts[pinned, 1])
            # and the SSE it reports is that of the parameters it returns
            fitted = ref_soft_hinge(params[:, :1], params[:, 1:2], params[:, 2:3], x)
            np.testing.assert_allclose(sses, np.sum((fitted - y) ** 2, axis=1), rtol=1e-12)

    @pytest.mark.parametrize("fit, model, k",
                             [(fit_hinge, "hinge", 2), (fit_soft_hinge, "soft-hinge", 3)],
                             ids=["hinge", "soft-hinge"])
    def test_best_of_starts_matches_scipy_oracle(self, fit, model, k):
        # scipy polishes the same lattice seeds over (beta, tau[, s])
        worst = 0.0
        for seed in range(20):
            x, y = noisy_set(seed)
            result = fit(x, y)
            seeds = _lattice_seeds(x, y, (model,))[model][:, :k]
            worst = max(worst, result.sse / trf_min_sse(x, y, seeds))
        assert worst <= 1.0 + 1e-6

    def test_lowest_sse_seed_wins_even_unconverged(self, monkeypatch):
        # a seed that crawls along a valley may end lowest without meeting the
        # convergence test: it still wins, and the fit says it did not converge
        lm = fitting._projected_lm

        def best_seed_unconverged(rows, starts, pinned):
            params, sses, _ = lm(rows, starts, pinned)
            converged = np.ones(len(sses), dtype=bool)
            converged[np.argmin(sses)] = False
            return params, sses, converged

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
        # on this 6-shift set the seed that reaches the lowest SSE crawls along
        # a valley of growing s and does not converge within MAX_NFEV steps;
        # the seeds that do converge stop at a higher SSE
        x, y = tiny_set(20205)
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


def evaluate(rows, theta):
    """_evaluate of each row (x, y) at its theta row, laid out as the solver lays them."""
    sizes = np.array([x.size for x, _ in rows])
    x, y = (np.concatenate(col) for col in zip(*rows))
    found = fitting._evaluate(theta.T, x, y, sizes, np.cumsum(sizes) - sizes,
                              np.repeat(np.arange(len(rows)), sizes), np.empty(fitting.WORK_ROWS * x.size))
    # beta, SSE, J'r and J'J of each row
    return found[0], found[1], found[2:4].T, found[[4, 5, 5, 6]].T.reshape(-1, 2, 2)


class TestProjection:
    """beta is projected out: the solver sees (tau, s) with Kaufman's Jacobian."""

    @staticmethod
    def rows_and_thetas(k):
        rows = [noisy_set(seed) for seed in range(6)]
        # the last knee sits right of most of the data, so its beta clips at 1
        theta, _ = pin(np.vstack([random_starts(7, k, 5)[0], [[48.0, 0.5]]]), k)
        return rows, theta

    @pytest.mark.parametrize("k", [1, 2], ids=["hinge", "soft-hinge"])
    def test_segment_sums_match_per_point_kaufman_columns(self, k):
        rows, theta = self.rows_and_thetas(k)
        beta, sse, g, hess = evaluate(rows, theta)
        assert beta[-1] == 1.0
        for (x, y), th, *got in zip(rows, theta, beta, sse, g, hess, strict=True):
            s = th[1]
            u = (x - th[0]) / s
            f = ref_softplus(u)
            raw = (f @ y) / (f @ f)
            b = min(max(raw, 0.0), 1.0)
            r = b * f - y
            sig = ref_logistic(u)
            jac = b * np.column_stack([-sig / s, -u * sig / s])
            if 0.0 < raw < 1.0:
                jac -= np.outer(f, f @ jac) / (f @ f)  # projected off f
            want = (b, r @ r, jac.T @ r, jac.T @ jac)
            for a, w in zip(got, want, strict=True):
                np.testing.assert_allclose(a, w, rtol=1e-9, atol=1e-12 * np.max(np.abs(w)))

    @pytest.mark.parametrize("k", [1, 2], ids=["hinge", "soft-hinge"])
    def test_gradient_is_half_that_of_the_profiled_sse(self, k):
        rows, theta = self.rows_and_thetas(k)
        _, _, g, _ = evaluate(rows, theta)
        for (x, y), th, got in zip(rows, theta, g, strict=True):
            fd = fd_gradient(lambda t: profiled_sse(x, y, t[None, :])[0], th, h=1e-6)
            np.testing.assert_allclose(got, fd / 2.0, rtol=1e-5, atol=1e-6)


def lu_step(hess, g, scale, lam, free):
    """The solver's damped system, column by column, solved by np.linalg.solve."""
    d = np.sqrt(np.where(scale > 0.0, scale, 1.0))
    steps = []
    for (h00, h01, h11), gj, dj, lj, fj in zip(hess.T, g.T, d.T, lam, free.T, strict=True):
        system = np.array([[h00, h01], [h01, h11]]) / np.outer(dj, dj) * np.outer(fj, fj)
        system[np.diag_indices(2)] += np.where(fj, lj, 1.0)
        steps.append(np.linalg.solve(system, -np.where(fj, gj, 0.0) / dj) / dj)
    return np.array(steps).T


class TestDampedStep:
    """The closed-form 2x2 step against an LU solve of the same system."""

    @staticmethod
    def systems(seed, m=500):
        # J'J of random 6x2 Jacobians with columns of very different sizes,
        # a running diag(J'J) maximum at or above the diagonal, lam over 14 decades
        rng = np.random.default_rng(seed)
        jac = rng.normal(size=(m, 6, 2)) * rng.uniform(0.01, 100.0, (m, 1, 2))
        jtj = np.einsum("mki,mkj->mij", jac, jac)
        hess = np.stack([jtj[:, 0, 0], jtj[:, 0, 1], jtj[:, 1, 1]])
        scale = hess[::2] * rng.uniform(1.0, 3.0, (2, m))
        return hess, 10.0 * rng.normal(size=(2, m)), scale, 10.0 ** rng.uniform(-12, 2, m), rng

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_lu_solve_to_rounding(self, seed):
        hess, g, scale, lam, _ = self.systems(seed)
        free = np.ones(g.shape, dtype=bool)
        np.testing.assert_allclose(_damped_step(hess, g, scale, lam, free),
                                   lu_step(hess, g, scale, lam, free), rtol=1e-12)

    def test_frozen_or_pinned_parameter_steps_exactly_zero(self):
        hess, g, scale, lam, rng = self.systems(3)
        free = rng.random(g.shape) < 0.6
        free[:, :50] = [[True], [False]]  # hinge columns: s pinned, tau free
        step = _damped_step(hess, g, scale, lam, free)
        assert np.all(step[~free] == 0.0)
        np.testing.assert_allclose(step, lu_step(hess, g, scale, lam, free), rtol=1e-12)

    @pytest.mark.parametrize("tilt", [0.0, 1e-9, 1e-6])
    def test_collinear_columns_at_lam_min_stay_finite(self, tilt):
        # the soft hinge near a straight line: df/dtau and df/ds all but parallel
        rng = np.random.default_rng(4)
        col = rng.normal(size=(20, 1))
        jac = np.hstack([col, 3.0 * col + tilt * rng.normal(size=(20, 1))])
        jtj = jac.T @ jac
        hess = np.array([[jtj[0, 0]], [jtj[0, 1]], [jtj[1, 1]]])
        g, scale, lam = np.array([[1.0], [-2.0]]), hess[::2].copy(), np.array([LAM_MIN])
        free = np.ones((2, 1), dtype=bool)
        step = _damped_step(hess, g, scale, lam, free)
        assert np.all(np.isfinite(step))
        np.testing.assert_allclose(step, lu_step(hess, g, scale, lam, free), rtol=1e-3)


def same_fit(a, b):
    """Bit-identical FitResults: written fields, winning seed and every seed's SSE."""
    assert a.to_file_dict() == b.to_file_dict()
    assert (a.start_index, a.n_converged, a.start_sses) == (b.start_index, b.n_converged,
                                                           b.start_sses)


def row_sizes(budget):
    """Distinct row sizes of at most 1000 points that hold over twice budget row-points.

    The first 25, small and large mixed, hold 11.2k; the rest are more sizes
    of 12-1000 points in a shuffled order.
    """
    sizes = [37, 150, 23, 410, 90, 1000, 64, 12, 230, 75, 300, 41, 520, 18, 95,
             700, 810, 905, 640, 999, 880, 760, 590, 950, 845]
    more = np.random.default_rng(27).permutation(np.arange(12, 1001)).tolist()
    sizes += [n for n in more if n not in sizes]
    return sizes[:np.searchsorted(np.cumsum(sizes), 2 * budget, "right") + 1]


class TestBatchContract:
    """Problems solved in one batch each get the fit they get alone."""

    # 4-19, 60-300 and 1000 shifts: the last holds 10k row-points as a soft
    # hinge (10 seeds) and 1k as a hinge (1 seed)
    PROBLEMS = [tiny_set(20039), noisy_set(1), tiny_set(56), noisy_set(2), noisy_set(3),
                tiny_set(7), soft_hinge_data(n=1000, noise_sd=2.0, seed=8), tiny_set(9)]

    @pytest.mark.parametrize("model", ["hinge", "soft-hinge"])
    def test_fit_is_the_same_alone_batched_and_split(self, monkeypatch, model):
        alone = [_fit_hinge_family([p], (model,))[model][0] for p in self.PROBLEMS]
        batched = _fit_hinge_family(self.PROBLEMS, (model,))[model]
        monkeypatch.setattr(fitting, "BATCH_POINTS", 200)
        split = _fit_hinge_family(self.PROBLEMS, (model,))[model]
        for want, got_batched, got_split in zip(alone, batched, split, strict=True):
            same_fit(got_batched, want)
            same_fit(got_split, want)

    @pytest.mark.parametrize("budget", [200, 1000, fitting.BATCH_POINTS])
    @pytest.mark.parametrize("k", [1, 2, "mixed"], ids=["hinge", "soft-hinge", "mixed"])
    def test_a_batch_holds_at_most_batch_points(self, monkeypatch, budget, k):
        # one batch that refills as rows stop; rows of distinct sizes, so the
        # sizes each evaluation sees name its rows
        x, y = soft_hinge_data(n=1000, noise_sd=2.0, seed=8)
        ns = row_sizes(fitting.BATCH_POINTS)
        rows = [(x[:n], y[:n]) for n in ns]
        starts = np.vstack([_lattice_seeds(*row, ("soft-hinge",))["soft-hinge"][i % len(S_ROW), 1:]
                            for i, row in enumerate(rows)])
        # mixed: every other row a hinge (s pinned at 1) among soft-hinge rows
        pinned = np.arange(len(ns)) % 2 == 0 if k == "mixed" else np.full(len(ns), k == 1)
        starts[pinned, 1] = 1.0
        calls = []
        evaluate = fitting._evaluate

        def spy(theta, x, y, sizes, *args):
            calls.append([ns.index(n) for n in sizes])
            return evaluate(theta, x, y, sizes, *args)

        monkeypatch.setattr(fitting, "_evaluate", spy)
        monkeypatch.setattr(fitting, "BATCH_POINTS", budget)
        got = _projected_lm(rows, starts, pinned)
        seen, mid_batch = [], 0
        for i, live in enumerate(calls):
            # live row-points stay within the budget unless one row is alone
            assert sum(ns[j] for j in live) <= budget or len(live) == 1
            new = [j for j in live if j not in seen]
            # rows are admitted in input order, after the rows still live
            assert live == sorted(live) and live[len(live) - len(new):] == new
            mid_batch += bool(new) and len(new) < len(live) and i > 0
            seen += new
            # and the batch is refilled while the next row fits
            if len(seen) < len(ns):
                assert sum(ns[j] for j in live) + ns[len(seen)] > budget
        assert seen == list(range(len(ns)))
        # a row stays live from its admission until it stops: it is admitted once
        for j in range(len(ns)):
            present = [i for i, live in enumerate(calls) if j in live]
            assert present == list(range(present[0], present[-1] + 1))
        assert mid_batch > 0
        # a row admitted in the middle of a batch gets the same bits as alone
        for j, row in enumerate(rows):
            for alone, batched in zip(_projected_lm([row], starts[j:j + 1], pinned[j:j + 1]), got,
                                      strict=True):
                np.testing.assert_array_equal(alone, batched[j:j + 1])

    def test_hinge_rows_batched_among_soft_hinge_rows_fit_as_alone(self, monkeypatch):
        # one batch of both models: each hinge row, s pinned, gets its own bits
        alone = {m: _fit_hinge_family(self.PROBLEMS, (m,))[m] for m in ("hinge", "soft-hinge")}
        for budget in (200, fitting.BATCH_POINTS):
            monkeypatch.setattr(fitting, "BATCH_POINTS", budget)
            together = _fit_hinge_family(self.PROBLEMS, ("hinge", "soft-hinge"))
            for model, want in alone.items():
                for a, b in zip(together[model], want, strict=True):
                    same_fit(a, b)

    @pytest.mark.parametrize("models", [fitting.MODELS, ("hinge",), ("soft-hinge",),
                                        ("soft-hinge", "hinge"), ("linear", "soft-hinge")])
    def test_fit_participants_makes_one_solver_call(self, monkeypatch, models):
        calls = []
        lm = fitting._projected_lm

        def spy(rows, starts, pinned):
            calls.append(len(starts))
            return lm(rows, starts, pinned)

        monkeypatch.setattr(fitting, "_projected_lm", spy)
        pfits = fitting.fit_participants(self.PROBLEMS[:4], models)
        assert len(calls) == 1
        assert calls[0] == sum(len(f.start_sses) for p in pfits for m, f in p.fits.items()
                               if m != "linear")

    def test_no_problems_give_no_fits(self):
        assert fitting.fit_participants([]) == []

    def test_fit_participants_is_fit_participant_per_problem(self):
        problems = self.PROBLEMS[:4]
        for got, (x, y) in zip(fitting.fit_participants(problems), problems, strict=True):
            want = fit_participant(x, y)
            assert got.best_model == want.best_model
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


def _result(model, sse, n, k):
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


class TestFitParticipant:
    def test_full_candidate_set(self):
        x, y = soft_hinge_data(beta=0.7, tau=15.0, s=4.0, noise_sd=1.0, seed=4, n=250)
        pfit = fit_participant(x, y)
        assert set(pfit.fits) == {"linear", "hinge", "soft-hinge"}
        assert {fit.n_points for fit in pfit.fits.values()} == {250}

    def test_file_dict_round_trip(self):
        x, y = soft_hinge_data(n=61)
        pfit = fit_participant(x, y)
        for fit in pfit.fits.values():
            d = fit.to_file_dict()
            assert set(d) == {
                "model", "params", "sse", "r2", "rmse", "aic", "n_points", "converged",
            }
            back = params_from_dict(d["params"])
            assert back == fit.params
            assert eval_model(back, 30.0) == pytest.approx(eval_model(fit.params, 30.0))
