import numpy as np
import pytest

from eyehead import (
    DEFAULT_GRID,
    CurveGrid,
    EmptyReferenceError,
    GridMismatchError,
    IndexOutOfRangeError,
    MissingInputError,
    SoftHingeParams,
    Spectrum,
    TooFewCurvesError,
    eval_model,
    fit_fpca,
    project,
    reconstruct_mode,
    sample_curves,
    score_percentile,
    score_table,
)

from .oracles import reconstruct, ref_soft_hinge


def two_curve_grid():
    grid = DEFAULT_GRID
    mean = ref_soft_hinge(0.6, 20.0, 5.0, grid)
    d = 0.3 * np.sin(grid / 8.0) + 0.1
    return CurveGrid(["hi", "lo"], grid, np.vstack([mean + d, mean - d])), mean, d


def random_curves(n, seed=0):
    rng = np.random.default_rng(seed)
    params = [
        SoftHingeParams(rng.uniform(0.3, 1.0), rng.uniform(5.0, 30.0), rng.uniform(2.0, 8.0))
        for _ in range(n)
    ]
    return sample_curves(params, [f"c{i:02d}" for i in range(n)])


class TestSampleCurves:
    def test_rows_are_model_evaluations(self):
        p = SoftHingeParams(0.5, 12.0, 3.0)
        curves = sample_curves([p], ["only"])
        np.testing.assert_allclose(curves.values[0], eval_model(p, DEFAULT_GRID))
        assert curves.grid.shape == (51,)
        assert curves.grid[0] == 0.0 and curves.grid[-1] == 50.0

    def test_id_count_must_match(self):
        with pytest.raises(GridMismatchError):
            sample_curves([SoftHingeParams(0.5, 12.0, 3.0)], ["a", "b"])

    def test_empty_input_rejected(self):
        with pytest.raises(TooFewCurvesError):
            sample_curves([], [])


class TestFitFpca:
    def test_two_curve_exact_solution(self):
        curves, mean, d = two_curve_grid()
        spec = fit_fpca(curves, n_components=1)
        np.testing.assert_allclose(spec.mean_curve, mean, atol=1e-12)
        # single mode is +-d/|d|; the sign convention forces the mean
        # loading to be nonnegative, and d was built with positive mean
        unit = d / np.linalg.norm(d)
        np.testing.assert_allclose(spec.components[0], unit, atol=1e-12)
        # covariance divisor is n-1 = 1, so the eigenvalue is 2|d|^2
        assert spec.eigenvalues[0] == pytest.approx(2 * np.dot(d, d), rel=1e-12)
        np.testing.assert_allclose(
            np.sort(spec.scores[:, 0]),
            [-np.linalg.norm(d), np.linalg.norm(d)],
            atol=1e-12,
        )
        np.testing.assert_allclose(spec.explained_ratio, [1.0], atol=1e-12)

    def test_components_are_orthonormal(self):
        curves = random_curves(12)
        spec = fit_fpca(curves, n_components=4)
        gram = spec.components @ spec.components.T
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-9)

    def test_sign_convention_mean_loading_nonnegative(self):
        curves = random_curves(15, seed=3)
        spec = fit_fpca(curves, n_components=3)
        assert spec.to_dict()["sign_convention"] == "mean-loading-nonnegative"
        assert np.all(spec.components.mean(axis=1) >= -1e-12)

    def test_score_variance_matches_eigenvalues(self):
        curves = random_curves(10, seed=5)
        spec = fit_fpca(curves, n_components=3)
        n = len(curves.curve_ids)
        got = (spec.scores**2).sum(axis=0) / (n - 1)
        np.testing.assert_allclose(got, spec.eigenvalues[:3], rtol=1e-9, atol=1e-12)

    def test_eigenvalues_sorted_descending_and_nonnegative(self):
        curves = random_curves(9, seed=7)
        spec = fit_fpca(curves, n_components=5)
        ev = spec.eigenvalues
        assert np.all(ev >= 0.0)
        assert np.all(np.diff(ev) <= 1e-12)

    def test_full_component_set_reconstructs_training_curves(self):
        curves = random_curves(8, seed=1)
        spec = fit_fpca(curves, n_components=7)  # n - 1 spans the centered rows
        rebuilt = reconstruct(spec, spec.scores)
        np.testing.assert_allclose(rebuilt, curves.values, atol=1e-6)

    def test_projection_of_training_curves_returns_training_scores(self):
        curves = random_curves(10, seed=2)
        spec = fit_fpca(curves, n_components=2)
        np.testing.assert_allclose(project(spec, curves.values), spec.scores, atol=1e-9)

    @pytest.mark.parametrize("k", [0, -1, 10])
    def test_component_count_bounds(self, k):
        curves = random_curves(6)
        with pytest.raises(IndexOutOfRangeError):
            fit_fpca(curves, n_components=k)

    def test_single_curve_rejected(self):
        with pytest.raises(TooFewCurvesError):
            fit_fpca(random_curves(1), n_components=1)

    def test_one_parameter_family_needs_one_mode(self):
        grid = DEFAULT_GRID
        betas = np.linspace(0.2, 0.95, 20)
        values = np.vstack([ref_soft_hinge(b, 18.0, 5.0, grid) for b in betas])
        spec = fit_fpca(CurveGrid([f"b{i}" for i in range(20)], grid, values), 2)
        assert spec.explained_ratio[0] > 0.999999
        # scores along the single mode track the generating coefficient
        r = np.corrcoef(spec.scores[:, 0], betas)[0, 1]
        assert abs(r) > 0.999999


class TestProjectReconstruct:
    def test_grid_mismatch_rejected(self):
        curves = random_curves(5)
        spec = fit_fpca(curves, n_components=2)
        with pytest.raises(GridMismatchError):
            project(spec, np.zeros(50))

    def test_single_curve_projection_mirrors_input_rank(self):
        curves = random_curves(5)
        spec = fit_fpca(curves, n_components=2)
        scores = project(spec, curves.values[0])
        assert scores.shape == (2,)
        np.testing.assert_allclose(scores, spec.scores[0], atol=1e-9)

    def test_mode_reconstruction_formula(self):
        curves = random_curves(8, seed=4)
        spec = fit_fpca(curves, n_components=2)
        for j, c in [(0, 2.0), (1, -2.0)]:
            expected = spec.mean_curve + c * np.sqrt(spec.eigenvalues[j]) * spec.components[j]
            np.testing.assert_allclose(reconstruct_mode(spec, j, c), expected, atol=1e-12)

    def test_mode_index_out_of_range(self):
        spec = fit_fpca(random_curves(5), n_components=2)
        with pytest.raises(IndexOutOfRangeError):
            reconstruct_mode(spec, 2, 1.0)


class TestScorePercentile:
    def test_interpolated_rank(self):
        ref = np.array([1.0, 2.0, 3.0, 4.0])
        assert score_percentile(2.5, ref) == pytest.approx(50.0)
        assert score_percentile(1.0, ref) == 0.0
        assert score_percentile(4.0, ref) == 100.0

    def test_clamps_outside_reference(self):
        ref = np.array([1.0, 2.0, 3.0])
        assert score_percentile(-10.0, ref) == 0.0
        assert score_percentile(10.0, ref) == 100.0

    def test_unsorted_reference_is_sorted_first(self):
        ref = np.array([3.0, 1.0, 4.0, 2.0])
        assert score_percentile(2.5, ref) == pytest.approx(50.0)

    def test_singleton_reference(self):
        assert score_percentile(7.0, np.array([0.0])) == 50.0

    def test_empty_reference_rejected(self):
        with pytest.raises(EmptyReferenceError):
            score_percentile(1.0, np.array([]))


class TestSerializationAndTable:
    def test_round_trip_preserves_projection(self):
        curves = random_curves(10, seed=6)
        spec = fit_fpca(curves, n_components=2)
        d = spec.to_dict()
        assert set(d) == {
            "grid", "mean_curve", "components", "eigenvalues",
            "explained_ratio", "sign_convention", "reference_scores_pc1",
        }
        back = Spectrum.from_dict(d)
        np.testing.assert_allclose(project(back, curves.values), spec.scores, atol=1e-9)
        np.testing.assert_allclose(
            np.sort(back.scores[:, 0]), np.sort(spec.scores[:, 0]), atol=1e-12
        )

    @pytest.mark.parametrize("key, value", [
        ("grid", "missing"),
        ("grid", [[0.0, 1.0]]),
        ("mean_curve", "missing"),
        ("mean_curve", [0.0, 1.0]),
        ("mean_curve", [0.0] * 50 + [None]),
        ("components", "missing"),
        ("components", [0.0] * 51),
        ("components", [[0.0] * 50] * 2),
        ("components", [[0.0] * 51, [0.0] * 50]),
        ("eigenvalues", "missing"),
        ("eigenvalues", [1.0]),
        ("explained_ratio", [0.5, 0.2, 0.1]),
        ("explained_ratio", [0.9, 0.9]),
        ("explained_ratio", [0.1, 0.5]),
        ("explained_ratio", "steep"),
        ("reference_scores_pc1", "missing"),
        ("reference_scores_pc1", 5),
        ("reference_scores_pc1", None),
        ("reference_scores_pc1", [[1.0, 2.0]]),
        ("reference_scores_pc1", [1.0, None]),
        ("reference_scores_pc1", []),
        ("reference_scores_pc1", [0.5]),
        ("reference_scores_pc1", [0.5, "0.7"]),
        ("grid", [50.0 - x for x in range(51)]),
        ("grid", [-1.0 + x for x in range(51)]),
        ("grid", [float(x) for x in range(50)] + [49.0]),
        ("mean_curve", [True] * 51),
        ("eigenvalues", [1.0, float("inf")]),
        ("sign_convention", "missing"),
        ("sign_convention", None),
        ("sign_convention", "mean-loading-nonpositive"),
    ])
    def test_a_field_that_is_missing_or_of_the_wrong_shape_is_named(self, key, value):
        d = fit_fpca(random_curves(10, seed=6), n_components=2).to_dict()
        if value == "missing":
            del d[key]
        else:
            d[key] = value
        with pytest.raises(MissingInputError, match=repr(key)):
            Spectrum.from_dict(d)

    def test_ratios_a_rounding_past_1_are_read(self):
        # kept components that hold all the variance can sum to 1 plus an ulp
        d = fit_fpca(random_curves(10, seed=6), n_components=2).to_dict()
        d["explained_ratio"] = [np.nextafter(0.75, 1.0), np.nextafter(0.25, 1.0)]
        assert np.sum(d["explained_ratio"]) > 1.0
        back = Spectrum.from_dict(d)
        assert back.explained_ratio.tolist() == d["explained_ratio"]

    def test_score_table_rows(self):
        curves = random_curves(10, seed=8)
        spec = fit_fpca(curves, n_components=2)
        table = score_table(spec, curves)
        assert list(table) == ["curve_id", "pc1", "pc2", "percentile_pc1"]
        assert table["curve_id"] == curves.curve_ids
        np.testing.assert_array_equal(np.c_[table["pc1"], table["pc2"]], spec.scores)
        assert np.all((0.0 <= table["percentile_pc1"]) & (table["percentile_pc1"] <= 100.0))

    @pytest.mark.parametrize("n_ref", [1, 2, 3, 7, 300])
    def test_score_table_percentiles_are_the_per_score_ones(self, n_ref):
        curves = random_curves(12, seed=10)
        spec = fit_fpca(curves, n_components=2)
        pc1 = spec.scores[:, 0]
        # a reference inside the batch's range, so few percentiles clamp
        spec.scores = np.random.default_rng(n_ref).uniform(pc1.min(), pc1.max(), (n_ref, 1))
        table = score_table(spec, curves)
        ref = spec.scores[:, 0]
        assert table["percentile_pc1"].tolist() == [score_percentile(v, ref) for v in table["pc1"]]

    def test_score_table_ranks_another_cohort_against_the_fitted_one(self):
        spec = fit_fpca(random_curves(12, seed=10), n_components=2)
        other = random_curves(7, seed=11)  # none of spec's curves
        pc1 = project(spec, other.values)[:, 0]
        want = score_percentile(pc1, spec.scores[:, 0])
        assert not np.array_equal(want, score_percentile(pc1, pc1))
        for s in (spec, Spectrum.from_dict(spec.to_dict())):
            np.testing.assert_array_equal(score_table(s, other)["percentile_pc1"], want)

    def test_score_table_single_component_pads_pc2(self):
        curves = random_curves(6, seed=9)
        spec = fit_fpca(curves, n_components=1)
        table = score_table(spec, curves)
        assert table["pc2"].tolist() == [0.0] * 6
