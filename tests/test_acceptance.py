"""Release gate: one check per shipping criterion, each printing a verdict line.

The mandatory tier (criteria 1-8) runs on synthetic data with independent
oracles and finishes in well under two minutes. The optional tier (criteria
9-12) reproduces published population numbers and needs a locally obtained
copy of the D-SAV360 dataset adapted to trace-pair CSVs; point
EYEHEAD_DATASET_DIR at that directory to enable it (see
scripts/adapt_dataset.py for the adapter). That tier runs the CLI stages
(preprocess --symmetry-out, fit, fpca --components 2) with default options
and keeps the participants with at least 50 clean shifts, a rule fpca
itself does not apply; a mandatory test runs it on a synthetic stand-in.

Run with -s to see the verdict lines; under plain `pytest -v` the per-test
PASSED/FAILED markers carry the same information.
"""

import contextlib
import glob
import io
import json
import os
import pathlib
from collections import Counter

import numpy as np
import pytest

from eyehead import (
    FilterConfig,
    FixationConfig,
    HingeParams,
    RawStream,
    SoftHingeParams,
    SynthConfig,
    align_head_to_gaze,
    eval_model,
    fit_fpca,
    fit_participant,
    fit_soft_hinge,
    model_gradient,
    preprocess_trial,
    project,
    sample_curves,
    softplus,
    symmetrize_and_clean,
    synth_shifts,
    synth_trace,
    threshold_sensitivity,
    threshold_shifts,
)
from eyehead.cli import dispatch
from eyehead.fpca import CurveGrid, DEFAULT_GRID
from eyehead.report import read_fit_rows, read_json_array, read_json_object, read_spectrum

from .oracles import fd_gradient, lattice_argmin, lattice_min_sse, reconstruct
from .test_cli import never_settle


def verdict(num: int, label: str, ok: bool) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {num} failed: {label}"


# ---------------------------------------------------------------------------
# mandatory tier
# ---------------------------------------------------------------------------

def test_criterion_01_model_identities():
    grid = DEFAULT_GRID
    rng = np.random.default_rng(0)
    max_gap = 0.0
    for _ in range(20):
        beta, tau = rng.uniform(0.0, 1.0), rng.uniform(-20.0, 70.0)
        soft = eval_model(SoftHingeParams(beta, tau, 1.0), grid)
        sharp = eval_model(HingeParams(beta, tau), grid)
        max_gap = max(max_gap, float(np.max(np.abs(soft - sharp))))
    ln2_err = abs(softplus(0.0) - np.log(2.0))
    big = softplus(np.array([-1e6, 1e6]))
    overflow_free = bool(np.all(np.isfinite(big)) and big[0] >= 0.0 and abs(big[1] - 1e6) < 1e-9)
    verdict(
        1,
        "soft hinge at s=1 equals hinge (1e-12); softplus(0)=ln 2; overflow-free to |z|=1e6",
        max_gap <= 1e-12 and ln2_err <= 1e-12 and overflow_free,
    )


def test_criterion_02_jacobian_matches_finite_differences():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        theta = np.array([
            rng.uniform(0.05, 1.0),
            rng.uniform(0.0, 50.0),
            rng.uniform(0.5, 20.0),
        ])
        x = rng.uniform(0.0, 50.0, 5)
        analytic = np.stack(model_gradient(SoftHingeParams(*theta), x), axis=-1)
        fd = fd_gradient(lambda th: eval_model(SoftHingeParams(*th), x), theta)
        # relative 1e-4 with a floor at the finite-difference noise level,
        # since a ratio against a ~0 derivative is meaningless
        scale = np.maximum(np.abs(fd), 1e-3)
        worst = max(worst, float(np.max(np.abs(analytic - fd) / scale)))
    verdict(2, f"analytic Jacobian vs central differences, worst rel err {worst:.2e}", worst <= 1e-4)


def test_criterion_03_parameter_recovery():
    truth = SoftHingeParams(0.8, 18.0, 6.0)

    # noiseless: the curve itself is the only attractor
    clean, _ = synth_shifts(SynthConfig(truth, n_shifts=101, noise_sd=0.0, seed=1))
    fit = fit_soft_hinge(clean.x, clean.y)
    exact_ok = (
        abs(fit.params.beta - truth.beta) <= 1e-4
        and abs(fit.params.tau - truth.tau) <= 1e-4
        and abs(fit.params.s - truth.s) <= 1e-4
        and fit.sse < 1e-10
    )

    # noisy: at this noise level the likelihood optimum moves away from the
    # generating parameters (the feasible-wedge clamp censors the noise and
    # the curve spans only a few degrees), so the recovery target is the
    # brute-force global optimum: the fit must land within the stated
    # tolerances of the 50^3 lattice argmin and never do worse on SSE
    noisy, _ = synth_shifts(SynthConfig(truth, n_shifts=400, noise_sd=2.0, seed=42))
    nfit = fit_soft_hinge(noisy.x, noisy.y)
    lb, lt, ls, lsse = lattice_argmin(noisy.x, noisy.y)
    noisy_ok = (
        abs(nfit.params.beta - lb) <= 0.05
        and abs(nfit.params.tau - lt) <= 2.0
        and abs(nfit.params.s - ls) <= 2.5
        and nfit.sse <= lsse
    )
    verdict(3, "parameter recovery: exact on clean data, lattice-confirmed under noise",
            exact_ok and noisy_ok)


def test_criterion_04_optimizer_matches_lattice_oracle():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(60, 301))
        params = SoftHingeParams(
            rng.uniform(0.3, 0.95), rng.uniform(5.0, 30.0), rng.uniform(1.0, 9.0)
        )
        shifts, _ = synth_shifts(SynthConfig(params, n_shifts=n, noise_sd=2.0, seed=seed))
        fit = fit_soft_hinge(shifts.x, shifts.y)
        worst = max(worst, fit.sse / lattice_min_sse(shifts.x, shifts.y))
    verdict(4, f"fitted SSE vs 50^3 lattice minimum, worst ratio {worst:.6f}",
            worst <= 1.01)


def test_criterion_05_fpca_invariants():
    grid = DEFAULT_GRID

    # one-mode family: vary beta only
    betas = np.linspace(0.2, 0.95, 20)
    one_mode = CurveGrid(
        [f"b{i}" for i in range(20)],
        grid,
        np.vstack([eval_model(SoftHingeParams(b, 18.0, 5.0), grid) for b in betas]),
    )
    spec1 = fit_fpca(one_mode, n_components=2)
    r = np.corrcoef(spec1.scores[:, 0], betas)[0, 1]
    one_mode_ok = spec1.explained_ratio[0] >= 0.999999 and abs(r) > 0.999999

    # general family: orthonormality, variance accounting, reconstruction,
    # and projection round trip
    rng = np.random.default_rng(5)
    params = [
        SoftHingeParams(rng.uniform(0.3, 1.0), rng.uniform(5, 30), rng.uniform(2, 8))
        for _ in range(12)
    ]
    curves = sample_curves(params, [f"c{i}" for i in range(12)])
    spec = fit_fpca(curves, n_components=11)
    gram = spec.components @ spec.components.T
    ortho_ok = float(np.max(np.abs(gram - np.eye(11)))) <= 1e-9
    var_ok = bool(np.allclose(
        (spec.scores**2).sum(axis=0) / 11.0, spec.eigenvalues[:11], rtol=1e-9, atol=1e-12
    ))
    recon_ok = float(np.max(np.abs(reconstruct(spec, spec.scores) - curves.values))) <= 1e-6
    proj_ok = float(np.max(np.abs(project(spec, curves.values) - spec.scores))) <= 1e-9
    verdict(5, "fPCA: one-mode family, orthonormality, variance, reconstruction, projection",
            one_mode_ok and ortho_ok and var_ok and recon_ok and proj_ok)


def test_criterion_06_pipeline_end_to_end():
    params = SoftHingeParams(0.7, 15.0, 5.0)
    gaze, head, truth = synth_trace(
        SynthConfig(params, n_shifts=30, seed=7, wrap_output=True)
    )
    # transparent smoothing and no padding: on noiseless traces the anchors
    # must recover the constructed plateau levels exactly
    filt = FilterConfig(min_cutoff=1e9)
    fix = FixationConfig(pad_s=0.0)
    out = preprocess_trial(align_head_to_gaze(gaze, head), filt, fix)
    ga = np.array([s["gaze_amplitude"] for s in truth["shifts"]])
    ha = np.array([s["head_amplitude"] for s in truth["shifts"]])
    count_ok = len(out) == 30
    amp_ok = count_ok and float(np.max(np.abs(out.x - ga))) <= 0.5
    head_ok = count_ok and float(np.max(np.abs(out.y - ha))) <= 0.5

    flip_g = RawStream(gaze.participant_id, gaze.trial_id, gaze.t, -gaze.yaw)
    flip_h = RawStream(head.participant_id, head.trial_id, head.t, -head.yaw)
    out_flip = preprocess_trial(align_head_to_gaze(flip_g, flip_h), filt, fix)
    a = symmetrize_and_clean(out)
    b = symmetrize_and_clean(out_flip)
    flip_ok = (
        len(a) == len(b)
        and bool(np.allclose(a.x, b.x, atol=1e-9))
        and bool(np.allclose(a.y, b.y, atol=1e-9))
    )
    verdict(6, "30 constructed shifts detected with amplitudes/head within 0.5 deg; "
               "negated yaw gives an identical cleaned shift set",
            count_ok and amp_ok and head_ok and flip_ok)


def test_criterion_07_aic_prefers_generating_model():
    wins = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        params = SoftHingeParams(
            rng.uniform(0.4, 0.95), rng.uniform(5.0, 30.0), rng.uniform(2.0, 8.0)
        )
        shifts, _ = synth_shifts(SynthConfig(params, n_shifts=600, noise_sd=2.0, seed=seed))
        pf = fit_participant(shifts.x, shifts.y)
        wins += pf.best_model == "soft-hinge"
    verdict(7, f"soft hinge lowest AIC in {wins}/50 seeded replicates", wins >= 40)


def test_criterion_08_threshold_sensitivity():
    shifts = {}
    for i, pid in enumerate(("pa", "pb", "pc")):
        params = SoftHingeParams(0.5 + 0.15 * i, 10.0 + 4.0 * i, 3.0 + i)
        gaze, head, _ = synth_trace(
            SynthConfig(params, n_shifts=60, seed=20 + i, participant_id=pid)
        )
        trace = align_head_to_gaze(gaze, head)
        for thr, sub in threshold_shifts(trace, (10.0, 15.0, 20.0)).items():
            shifts[(pid, thr)] = symmetrize_and_clean(sub)
    result = threshold_sensitivity(shifts, (10.0, 15.0, 20.0), 15.0)
    medians = {10.0: [], 15.0: [], 20.0: []}
    for pid in ("pa", "pb", "pc"):
        for thr, r in result[pid].items():
            medians[thr].append(r)
    med = {thr: float(np.median(v)) for thr, v in medians.items()}
    verdict(8, f"curves refit at 10/15/20 deg/s correlate with base, medians {med}",
            all(m > 0.99 for m in med.values()))


# ---------------------------------------------------------------------------
# optional tier: local dataset reproduction
# ---------------------------------------------------------------------------

DATASET_ENV = "EYEHEAD_DATASET_DIR"

needs_dataset = pytest.mark.skipif(
    not os.environ.get(DATASET_ENV),
    reason=f"set {DATASET_ENV} to a directory of adapted trace pairs "
           "(scripts/adapt_dataset.py) to run the dataset tier",
)


def dataset_tier(dataset_dir, work_dir) -> dict:
    """Run preprocess --symmetry-out, fit and fpca --components 2 over a trace directory.

    Each stage runs through the CLI with default options; one that exits
    non-zero fails with its one-line error. Before fpca, the fit rows are cut
    to participants whose soft-hinge fit has >= 50 clean shifts, a rule fpca
    does not apply. Prints sanity.jsonl's trial count per reason.
    """
    if not glob.glob(os.path.join(glob.escape(str(dataset_dir)), "*.gaze.csv")):
        pytest.skip(f"no *.gaze.csv under {dataset_dir}")
    work = pathlib.Path(work_dir)
    shifts, fits, kept = work / "shifts.csv", work / "fits.json", work / "kept.json"
    run_stage("preprocess", "--in-dir", dataset_dir, "--out", shifts,
              "--symmetry-out", work / "symmetry.json")
    run_stage("fit", "--in", shifts, "--out", fits)
    rows = read_json_array(fits)
    retained = [r["participant_id"] for r in rows
                if r["model"] == "soft-hinge" and r["n_points"] >= 50]
    if len(retained) < 2:
        pytest.skip("fewer than two participants survived retention")
    kept.write_text(json.dumps([r for r in rows if r["participant_id"] in retained]))
    run_stage("fpca", "--in", kept, "--out", work / "spectrum.json", "--components", 2)

    records = [json.loads(line) for line in (work / "sanity.jsonl").read_text().splitlines()[1:]]
    funnel = Counter(r["reason"] or "pass" for r in records)
    print("trials: " + ", ".join(f"{reason} {n}" for reason, n in sorted(funnel.items())))
    symmetry = [r for r in read_json_object(work / "symmetry.json")["participants"].values()
                if "error" not in r]
    return {
        "fits": read_fit_rows(kept),
        "retained": retained,
        "trials": records,
        "spectrum": read_spectrum(work / "spectrum.json"),
        "sym_r": [r["mirror_correlation"] for r in symmetry],
        "sym_diff": [r["normalized_difference"] for r in symmetry],
    }


def run_stage(*argv) -> None:
    """Run one CLI stage; a non-zero exit fails with the stage's one-line error."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = dispatch([str(a) for a in argv])
    if code:
        pytest.fail(err.getvalue().strip(), pytrace=False)


@pytest.fixture(scope="module")
def dataset_results(tmp_path_factory):
    return dataset_tier(os.environ[DATASET_ENV], tmp_path_factory.mktemp("dataset"))


def test_dataset_tier_runs_on_a_synth_stand_in(tmp_path):
    """No dataset needed: a trial that never settles is recorded, and the tier goes on."""
    assert dispatch(["synth", "--out-dir", str(tmp_path / "raw"), "--participants", "5",
                     "--trials", "2", "--shifts", "50"]) == 0
    traces = tmp_path / "raw" / "traces"
    for kind in ("gaze", "head"):  # synth002 keeps one trial: too few shifts for the tier
        (traces / f"synth002_t02.{kind}.csv").unlink()
    never_settle(traces / "synth004_t01.gaze.csv")
    results = dataset_tier(traces, tmp_path / "work")
    assert results["retained"] == ["synth001", "synth003", "synth005"]
    assert len(results["spectrum"].scores) == 3
    assert sorted({r["participant_id"] for r in results["fits"]}) == results["retained"]
    assert [(r["participant_id"], r["trial_id"], r["reason"])
            for r in results["trials"] if r["verdict"] != "pass"] == [
        ("synth004", "t01", "too_few_fixations")]


@needs_dataset
def test_criterion_09_dataset_explained_variance(dataset_results):
    ratios = dataset_results["spectrum"].explained_ratio
    ok = 0.89 <= ratios[0] <= 0.93 and 0.06 <= ratios[1] <= 0.10
    verdict(9, f"PC1/PC2 explained variance {ratios[0]:.3f}/{ratios[1]:.3f}", ok)


@needs_dataset
def test_criterion_10_dataset_score_distribution(dataset_results):
    scores = dataset_results["spectrum"].scores[:, 0]
    # the sign of the axis is a convention; accept either orientation
    ok = False
    for oriented in (scores, -scores):
        q1, med, q3 = np.percentile(oriented, [25.0, 50.0, 75.0])
        ok = ok or (
            abs(med - 1.82) <= 3.0 and abs(q1 - (-10.18)) <= 4.0 and abs(q3 - 12.36) <= 4.0
        )
    verdict(10, "PC1 score median/quartiles near the published values", ok)


@needs_dataset
def test_criterion_11_dataset_symmetry(dataset_results):
    med_r = float(np.median(dataset_results["sym_r"]))
    med_d = float(np.median(dataset_results["sym_diff"]))
    ok = 0.97 <= med_r <= 0.99 and 0.05 <= med_d <= 0.09
    verdict(11, f"median mirror correlation {med_r:.3f}, normalized difference {med_d:.3f}", ok)


@needs_dataset
def test_criterion_12_dataset_aic_ordering(dataset_results):
    fits = dataset_results["fits"]
    means = {
        model: float(np.mean([r["aic"] for r in fits if r["model"] == model]))
        for model in ("soft-hinge", "hinge", "linear")
    }
    ok = means["soft-hinge"] < means["hinge"] < means["linear"]
    verdict(12, f"mean AIC ordering {means}", ok)
