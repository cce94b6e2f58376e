import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eyehead import (
    DomainError,
    HingeParams,
    LinearParams,
    SoftHingeParams,
    TooFewPointsError,
    compute_eor,
    compute_ehr_slope,
    eval_model,
    hinge_gradient,
    model_gradient,
    params_from_dict,
    params_to_dict,
    softplus,
)

from .oracles import compute_eor_loop, fd_gradient, ref_logistic, ref_soft_hinge

finite_yaw = st.floats(-50.0, 50.0, allow_nan=False)


class TestSoftplus:
    # reference values computed directly from log1p(exp(z))
    @pytest.mark.parametrize(
        "z, expected",
        [
            (-5.0, 0.0067153484891180684),
            (-1.0, 0.31326168751822286),
            (0.0, 0.69314718055994529),
            (0.5, 0.97407698418010669),
            (3.0, 3.0485873515737421),
        ],
    )
    def test_reference_values(self, z, expected):
        assert softplus(z) == pytest.approx(expected, abs=1e-15)

    def test_zero_is_log_two(self):
        assert abs(softplus(0.0) - np.log(2.0)) < 1e-16

    def test_decays_to_zero_from_above(self):
        assert 0.0 < softplus(-50.0) < 2e-22

    def test_no_overflow_for_huge_arguments(self):
        z = np.array([-1e6, -1e3, 1e3, 1e6])
        out = softplus(z)
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0
        assert out[3] == pytest.approx(1e6)

    @given(st.floats(-30.0, 30.0))
    def test_matches_logaddexp(self, z):
        assert softplus(z) == pytest.approx(np.logaddexp(0.0, z), rel=1e-14)

    @given(st.floats(20.0, 700.0))
    def test_upper_asymptote_is_identity(self, z):
        assert softplus(z) - z == pytest.approx(np.log1p(np.exp(-z)), abs=1e-12)


class TestEvalModel:
    def test_soft_hinge_reference_point(self):
        p = SoftHingeParams(beta=0.6, tau=10.0, s=4.0)
        # 0.6 * softplus((18 - 10) / 4) computed independently
        assert eval_model(p, 18.0) == pytest.approx(1.2761568066257836, abs=1e-14)

    def test_hinge_reference_point(self):
        p = HingeParams(beta=0.25, tau=5.0)
        assert eval_model(p, 9.0) == pytest.approx(1.0045374819794524, abs=1e-14)

    def test_linear_piecewise(self):
        p = LinearParams(alpha=20.0, gamma=0.5)
        x = np.array([0.0, 20.0, 30.0, 50.0])
        np.testing.assert_allclose(eval_model(p, x), [0.0, 0.0, 5.0, 15.0])

    @given(
        beta=st.floats(0.0, 1.0),
        tau=st.floats(-20.0, 70.0),
        x=st.floats(0.0, 50.0),
    )
    def test_soft_hinge_at_unit_scale_equals_hinge(self, beta, tau, x):
        soft = eval_model(SoftHingeParams(beta=beta, tau=tau, s=1.0), x)
        hard = eval_model(HingeParams(beta=beta, tau=tau), x)
        assert soft == pytest.approx(hard, abs=1e-12)

    def test_knee_value_is_beta_log_two(self):
        p = SoftHingeParams(beta=0.5, tau=20.0, s=5.0)
        assert eval_model(p, 20.0) == pytest.approx(0.5 * np.log(2.0), abs=1e-12)

    def test_sharp_scale_limit_approaches_rectifier(self):
        # hold the asymptotic slope gamma = beta/s fixed while s shrinks;
        # the gap to the rectifier peaks at gamma*s*ln2 at the knee
        gamma, tau, s = 0.5, 15.0, 1e-3
        p = SoftHingeParams(beta=gamma * s, tau=tau, s=s)
        x = np.linspace(0.0, 50.0, 501)
        gap = np.abs(eval_model(p, x) - gamma * np.maximum(0.0, x - tau))
        assert gap.max() <= gamma * s * np.log(2.0) + 1e-12
        assert np.abs(eval_model(p, tau) - 0.0) == pytest.approx(
            gamma * s * np.log(2.0), abs=1e-12
        )

    def test_asymptotic_slope_is_beta_over_s(self):
        # secant over [45, 50] approaches beta/s once (50 - tau)/s >= 10
        p = SoftHingeParams(beta=0.9, tau=5.0, s=2.0)
        slope = (eval_model(p, 50.0) - eval_model(p, 45.0)) / 5.0
        assert slope == pytest.approx(0.9 / 2.0, rel=0.01)

    @pytest.mark.parametrize("x", [-0.5, 50.5, np.nan, np.inf])
    def test_domain_violations_raise(self, x):
        with pytest.raises(DomainError):
            eval_model(SoftHingeParams(0.5, 10.0, 2.0), x)

    def test_monotone_nondecreasing_on_grid(self):
        p = SoftHingeParams(beta=0.7, tau=22.0, s=6.0)
        y = eval_model(p, np.linspace(0, 50, 201))
        assert np.all(np.diff(y) >= 0)


class TestParamValidation:
    @pytest.mark.parametrize(
        "ctor, kwargs",
        [
            (SoftHingeParams, dict(beta=-0.1, tau=10.0, s=2.0)),
            (SoftHingeParams, dict(beta=1.1, tau=10.0, s=2.0)),
            (SoftHingeParams, dict(beta=0.5, tau=10.0, s=1e-4)),
            (HingeParams, dict(beta=2.0, tau=10.0)),
            (LinearParams, dict(alpha=-1.0, gamma=0.1)),
        ],
    )
    def test_out_of_range_parameters_rejected(self, ctor, kwargs):
        with pytest.raises(DomainError):
            ctor(**kwargs)

    def test_round_trip_through_dict(self):
        for p in (
            SoftHingeParams(0.62, 17.5, 3.25),
            HingeParams(0.3, 12.0),
            LinearParams(22.5, 0.41),
        ):
            assert params_from_dict(params_to_dict(p)) == p

    def test_unknown_model_tag_rejected(self):
        with pytest.raises((KeyError, ValueError)):
            params_from_dict({"model": "quadratic", "a": 1.0})

    @pytest.mark.parametrize("value", [None, "abc", [0.5], {}])
    @pytest.mark.parametrize("kind,key", [("linear", "gamma"), ("hinge", "tau"),
                                          ("soft-hinge", "s")])
    def test_a_value_that_is_not_a_number_names_the_model_and_key(self, kind, key, value):
        d = params_to_dict({"linear": LinearParams(22.5, 0.41), "hinge": HingeParams(0.3, 12.0),
                            "soft-hinge": SoftHingeParams(0.62, 17.5, 3.25)}[kind])
        d[key] = value
        with pytest.raises(ValueError, match=f"^{kind} parameter '{key}' is not a number"):
            params_from_dict(d)

    @pytest.mark.parametrize("kind,key", [("linear", "alpha"), ("hinge", "beta"),
                                          ("soft-hinge", "s")])
    def test_a_missing_value_names_the_model_and_key(self, kind, key):
        d = params_to_dict({"linear": LinearParams(22.5, 0.41), "hinge": HingeParams(0.3, 12.0),
                            "soft-hinge": SoftHingeParams(0.62, 17.5, 3.25)}[kind])
        del d[key]
        with pytest.raises(ValueError, match=f"^{kind} parameter '{key}' is missing$"):
            params_from_dict(d)


class TestGradients:
    @given(
        beta=st.floats(0.05, 1.0),
        tau=st.floats(-10.0, 60.0),
        s=st.floats(0.1, 20.0),
    )
    def test_soft_hinge_gradient_matches_finite_differences(self, beta, tau, s):
        x = np.linspace(0.0, 50.0, 11)

        def f(theta):
            return ref_soft_hinge(theta[0], theta[1], theta[2], x)

        analytic = np.stack(model_gradient(SoftHingeParams(beta, tau, s), x), axis=-1)
        numeric = fd_gradient(f, [beta, tau, s])
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-7)

    def test_hinge_gradient_matches_finite_differences(self):
        x = np.linspace(0.0, 50.0, 11)

        def f(theta):
            return ref_soft_hinge(theta[0], theta[1], 1.0, x)

        analytic = np.stack(hinge_gradient(HingeParams(0.4, 18.0), x), axis=-1)
        numeric = fd_gradient(f, [0.4, 18.0])
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-8)

    def test_gradient_signs(self):
        g_beta, g_tau, g_s = model_gradient(SoftHingeParams(0.5, 10.0, 2.0), 30.0)
        assert g_beta > 0  # more gain, more head
        assert g_tau < 0  # later onset, less head
        assert g_s < 0  # softer elbow past onset, less head

    def test_gradient_at_knee(self):
        g_beta, _, g_s = model_gradient(SoftHingeParams(0.5, 20.0, 5.0), 20.0)
        assert g_beta == pytest.approx(np.log(2.0), abs=1e-14)
        assert g_s == 0.0

    def test_gradient_vanishes_at_zero_scale(self):
        _, g_tau, g_s = model_gradient(SoftHingeParams(0.0, 20.0, 5.0), 35.0)
        assert g_tau == 0.0 and g_s == 0.0


def partials_sigmoid(u):
    """The logistic of u inside model_gradient: minus its dy/dtau at beta = 1, tau = 0, s = 1."""
    with np.errstate(invalid="ignore"):  # dy/ds is inf * 0 at u = -inf
        return -model_gradient(SoftHingeParams(1, 0, 1), np.asarray(u, dtype=float))[1]


class TestSigmoid:
    """The logistic inside model_gradient against its exact value and scipy's expit."""

    U = np.concatenate([np.linspace(-800.0, 800.0, 8001), [np.inf, -np.inf, np.nan]])

    def test_within_two_ulp_of_the_exact_logistic(self):
        np.testing.assert_array_max_ulp(partials_sigmoid(self.U), ref_logistic(self.U), maxulp=2)

    @given(st.lists(st.floats(-800.0, 800.0), min_size=1, max_size=20))
    def test_any_value_within_two_ulp_of_the_exact_logistic(self, values):
        u = np.array(values)
        np.testing.assert_array_max_ulp(partials_sigmoid(u), ref_logistic(u), maxulp=2)

    def test_agrees_with_scipy_expit(self):
        from scipy.special import expit

        # expit is 1 / (1 + exp(-u)): like the partials' logistic it is within
        # 2 ulp of the exact value, so the two are within 4 of each other, until
        # exp(-u) overflows; below u = -709.78 it returns 0 for a subnormal value
        ours, theirs = partials_sigmoid(self.U), expit(self.U)
        over = -self.U > np.log(np.finfo(float).max)
        np.testing.assert_array_max_ulp(ours[~over], theirs[~over], maxulp=4)
        assert np.all(theirs[over] == 0.0)
        assert np.all(ours[over] < np.finfo(float).tiny)


def test_import_loads_no_scipy():
    import eyehead

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(eyehead.__file__)))
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    code = "import sys, eyehead; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _shifts_with_proportions(by_bin):
    """Build (x, y) whose per-bin eye-only proportions match ``by_bin``."""
    xs, ys = [], []
    for center, (n, n_eye) in by_bin.items():
        for i in range(n):
            xs.append(center)
            ys.append(0.05 * center if i < n_eye else 0.5 * center)
    return np.array(xs), np.array(ys)


class TestEyeOnlyRange:
    def test_interpolated_crossing(self):
        # proportions: 1.0 below, 0.6 at 20, 0.4 at 25 -> crossing at 22.5
        x, y = _shifts_with_proportions(
            {5.0: (4, 4), 10.0: (4, 4), 15.0: (4, 4), 20.0: (5, 3), 25.0: (5, 2)}
        )
        assert compute_eor(x, y) == pytest.approx(22.5)

    def test_all_bins_eye_only_gives_full_range(self):
        x = np.linspace(0.0, 50.0, 60)
        y = 0.05 * x
        assert compute_eor(x, y) == 50.0

    def test_first_bin_below_half_gives_zero(self):
        x = np.linspace(0.0, 50.0, 60)
        y = 0.5 * x  # never eye-only
        assert compute_eor(x, y) == 0.0

    def test_empty_bins_are_skipped_in_interpolation(self):
        # no data in the 20-degree bin; crossing interpolates 15 -> 25
        x, y = _shifts_with_proportions(
            {5.0: (4, 4), 10.0: (4, 4), 15.0: (4, 4), 25.0: (5, 2)}
        )
        assert compute_eor(x, y) == pytest.approx(15.0 + (0.5 / 0.6) * 10.0)

    def test_boundary_shift_counts_as_eye_only(self):
        # y exactly 10% of x sits on the eye-only side
        x = np.full(6, 10.0)
        y = np.full(6, 1.0)
        assert compute_eor(x, y) == 50.0


# every bin edge, c +- 2.5 for the bin centers 0, 5, ..., 50
EOR_EDGES = [c + side for c in np.arange(0.0, 55.0, 5.0) for side in (-2.5, 2.5)]
eor_x = st.one_of(st.sampled_from(EOR_EDGES), st.floats(-5.0, 60.0, allow_nan=False))


class TestEyeOnlyRangeMatchesBinLoop:
    @given(st.lists(st.tuples(eor_x, st.floats(-10.0, 20.0, allow_nan=False)),
                    min_size=1, max_size=60))
    def test_bit_equal(self, pairs):
        x, y = (np.array(v) for v in zip(*pairs))
        try:
            want = compute_eor_loop(x, y)
        except ValueError:
            with pytest.raises(TooFewPointsError):
                compute_eor(x, y)
            return
        got = compute_eor(x, y)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestHeadRecruitmentSlope:
    def test_exact_recovery_on_noiseless_line(self):
        x = np.array([15.0, 20.0, 30.0])
        y = 0.3 * (x - 10.0)
        assert compute_ehr_slope(x, y, alpha=10.0) == pytest.approx(0.3, abs=1e-14)

    def test_weighted_least_squares_value(self):
        # gamma = (2*1 + 10*4) / (2^2 + 10^2) = 42/104, computed by hand
        x = np.array([12.0, 20.0])
        y = np.array([1.0, 4.0])
        assert compute_ehr_slope(x, y, alpha=10.0) == pytest.approx(
            0.40384615384615385, abs=1e-15
        )

    def test_points_at_or_below_alpha_are_ignored(self):
        x = np.array([5.0, 10.0, 20.0, 40.0])
        y = np.array([99.0, 99.0, 2.0, 6.0])
        expected = (10.0 * 2.0 + 30.0 * 6.0) / (10.0**2 + 30.0**2)
        assert compute_ehr_slope(x, y, alpha=10.0) == pytest.approx(expected)

    def test_too_few_points_beyond_onset(self):
        x = np.array([5.0, 8.0, 30.0])
        y = np.array([0.0, 0.0, 3.0])
        with pytest.raises(TooFewPointsError):
            compute_ehr_slope(x, y, alpha=25.0)
