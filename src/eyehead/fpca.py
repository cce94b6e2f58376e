"""Functional PCA over per-participant head-contribution curves.

Every participant's fitted curve is sampled on a common eccentricity grid
(0..50 degrees, 1-degree steps), the pointwise mean is removed, and the
eigenvectors of the sample covariance give the population's dominant modes
of variation. A participant's coordinates along those modes ("scores")
place them on the eye-mover / head-mover spectrum; a PC1 percentile is
taken against the PC1 scores of the curves the spectrum was fit on, by
linear interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyReferenceError,
    GridMismatchError,
    IndexOutOfRangeError,
    MissingInputError,
    TooFewCurvesError,
)
from .models import X_MAX, X_MIN, SoftHingeParams, eval_model, is_number

GRID_STEP = 1.0
DEFAULT_GRID = np.arange(X_MIN, X_MAX + GRID_STEP / 2, GRID_STEP)

# Each component is flipped, if needed, so its mean loading over the grid is
# nonnegative: positive score = more head contribution than the mean curve.
SIGN_CONVENTION = "mean-loading-nonnegative"


@dataclass
class CurveGrid:
    """Curves sampled on a shared eccentricity grid, one row per curve."""

    curve_ids: list[str]
    grid: np.ndarray
    values: np.ndarray  # (n_curves, len(grid))


def sample_curves(
    params: list[SoftHingeParams],
    curve_ids: list[str],
    grid: np.ndarray | None = None,
) -> CurveGrid:
    """Evaluate each participant's fitted curve on the common grid."""
    if grid is None:
        grid = DEFAULT_GRID
    if len(params) != len(curve_ids):
        raise GridMismatchError(
            f"{len(params)} parameter sets but {len(curve_ids)} curve ids"
        )
    if not params:
        raise TooFewCurvesError("no curves to sample")
    values = np.vstack([eval_model(p, grid) for p in params])
    return CurveGrid(curve_ids=list(curve_ids), grid=np.asarray(grid, float), values=values)


@dataclass
class Spectrum:
    """Population modes: grid, mean curve, and orthonormal components.

    The training curves' scores ride along as the percentile reference.
    """

    grid: np.ndarray
    mean_curve: np.ndarray
    components: np.ndarray  # (n_components, len(grid))
    eigenvalues: np.ndarray  # (n_components,)
    explained_ratio: np.ndarray  # (n_components,), fractions of *total* variance
    scores: np.ndarray  # (n_curves, n_components); from_dict reads back PC1 alone

    def to_dict(self) -> dict:
        return {
            "grid": self.grid.tolist(),
            "mean_curve": self.mean_curve.tolist(),
            "components": self.components.tolist(),
            "eigenvalues": self.eigenvalues.tolist(),
            "explained_ratio": self.explained_ratio.tolist(),
            "sign_convention": SIGN_CONVENTION,
            "reference_scores_pc1": self.scores[:, 0].tolist(),
        }

    @staticmethod
    def from_dict(d: dict) -> "Spectrum":
        """The spectrum to_dict wrote; a field to_dict could not have written is an error.

        The grid must rise strictly inside [X_MIN, X_MAX], and the reference
        must hold the >= 2 PC1 scores of a fit (fit_fpca needs two curves).
        The eigenvalues must be nonnegative and non-increasing, and so must
        the explained ratios, each in [0, 1] and all summing to at most 1.
        """
        if d.get("sign_convention") != SIGN_CONVENTION:  # another would flip every PC1 score
            raise MissingInputError(f"spectrum field 'sign_convention' is not {SIGN_CONVENTION!r}")
        grid = _field(d, "grid", (None,))
        if np.any(np.diff(grid) <= 0) or np.any((grid < X_MIN) | (grid > X_MAX)):
            raise MissingInputError(
                f"spectrum field 'grid' does not rise strictly inside [{X_MIN:g}, {X_MAX:g}]"
            )
        n = grid.size
        components = _field(d, "components", (None, n))
        k = components.shape[0]
        reference = _field(d, "reference_scores_pc1", (None,))
        if reference.size < 2:
            raise MissingInputError(
                f"spectrum field 'reference_scores_pc1' holds {reference.size} scores, not >= 2"
            )
        # fit_fpca clamps its eigenvalues at 0, sorts them and divides by their total
        eigenvalues = _field(d, "eigenvalues", (k,))
        if np.any(eigenvalues < 0) or np.any(np.diff(eigenvalues) > 0):
            raise MissingInputError(
                "spectrum field 'eigenvalues' is not nonnegative and non-increasing"
            )
        ratio = _field(d, "explained_ratio", (k,))
        if np.any((ratio < 0) | (ratio > 1)):
            raise MissingInputError("spectrum field 'explained_ratio' holds a value outside [0, 1]")
        # kept ratios that hold all the variance can round to a few ulps past 1
        if np.any(np.diff(ratio) > 0) or ratio.sum() > 1.0 + 4 * k * np.finfo(float).eps:
            raise MissingInputError(
                "spectrum field 'explained_ratio' is not non-increasing with a sum of at most 1"
            )
        return Spectrum(
            grid=grid,
            mean_curve=_field(d, "mean_curve", (n,)),
            components=components,
            eigenvalues=eigenvalues,
            explained_ratio=ratio,
            scores=reference[:, None],
        )


def _field(d: dict, key: str, shape: tuple) -> np.ndarray:
    """d[key] as a float array of `shape`, where None matches any length.

    A missing key, or a value of another shape or holding anything but
    numbers (models.is_number: the JSON writers write NaN as null), is a
    MissingInputError that names the key.
    """
    if key not in d:
        raise MissingInputError(f"spectrum has no field {key!r}")
    value = np.asarray(d[key], dtype=object)  # the JSON values themselves; ragged lists stay lists
    if (
        len(value.shape) != len(shape)
        or any(want is not None and got != want for got, want in zip(value.shape, shape))
        or not all(map(is_number, value.flat))
    ):
        raise MissingInputError(
            f"spectrum field {key!r} is not an array of finite numbers "
            "of the shape to_dict writes"
        )
    return value.astype(float)


def fit_fpca(curves: CurveGrid, n_components: int = 2) -> Spectrum:
    """Eigendecompose the sample covariance of the curves.

    Rows are centered by the pointwise mean; the grid-sized covariance uses
    divisor n-1. Components are orthonormal, ordered by decreasing
    eigenvalue, and sign-fixed per SIGN_CONVENTION. explained_ratio is each
    kept eigenvalue over the sum of *all* eigenvalues, so it does not change
    when n_components does.
    """
    values = np.asarray(curves.values, dtype=float)
    grid = curves.grid
    if values.ndim != 2 or values.shape[1] != grid.size:
        raise GridMismatchError(f"curves must be (n, {grid.size}), got {values.shape}")
    n = values.shape[0]
    if n < 2:
        raise TooFewCurvesError(f"need >= 2 curves for a covariance, got {n}")
    max_components = min(n - 1, grid.size)
    if not (1 <= n_components <= max_components):
        raise IndexOutOfRangeError(
            f"n_components must be in [1, {max_components}] for {n} curves, "
            f"got {n_components}"
        )

    mean_curve = values.mean(axis=0)
    centered = values - mean_curve
    cov = centered.T @ centered / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)  # ascending
    order = np.argsort(eigvals)[::-1]
    eigvals = np.maximum(eigvals[order], 0.0)
    eigvecs = eigvecs[:, order]

    components = eigvecs[:, :n_components].T.copy()
    for j in range(components.shape[0]):
        if components[j].mean() < 0.0:
            components[j] = -components[j]

    total = float(eigvals.sum())
    kept = eigvals[:n_components]
    ratio = kept / total if total > 0 else np.zeros_like(kept)
    scores = centered @ components.T
    return Spectrum(
        grid=grid.copy(),
        mean_curve=mean_curve,
        components=components,
        eigenvalues=kept.copy(),
        explained_ratio=ratio,
        scores=scores,
    )


def project(spectrum: Spectrum, curves: np.ndarray) -> np.ndarray:
    """Scores of one curve (1-D) or many curves (2-D rows) on the modes."""
    curves = np.asarray(curves, dtype=float)
    single = curves.ndim == 1
    if single:
        curves = curves[None, :]
    if curves.shape[1] != spectrum.grid.size:
        raise GridMismatchError(
            f"curve length {curves.shape[1]} != grid length {spectrum.grid.size}"
        )
    scores = (curves - spectrum.mean_curve) @ spectrum.components.T
    return scores[0] if single else scores


def reconstruct_mode(spectrum: Spectrum, component: int, c: float) -> np.ndarray:
    """Mean curve displaced c standard deviations along one mode."""
    k = spectrum.components.shape[0]
    if not (0 <= component < k):
        raise IndexOutOfRangeError(f"component {component} out of range [0, {k})")
    sd = float(np.sqrt(spectrum.eigenvalues[component]))
    return spectrum.mean_curve + c * sd * spectrum.components[component]


def score_percentile(score, reference: np.ndarray):
    """Percentile of a score, or of each of an array of scores, within a reference sample.

    The sorted reference maps onto equally spaced percentiles 0..100 and a
    score is placed by linear interpolation; scores outside the reference
    range clamp to 0 or 100. A singleton reference carries no spread, so
    everything ranks at 50.
    """
    reference = np.asarray(reference, dtype=float)
    if reference.size == 0:
        raise EmptyReferenceError("percentile needs a non-empty reference sample")
    if reference.size == 1:
        return np.full(np.shape(score), 50.0)[()]  # [()] makes a 0-d result a scalar
    ref = np.sort(reference)
    return np.interp(score, ref, np.linspace(0.0, 100.0, ref.size))


def score_table(spectrum: Spectrum, curves: CurveGrid) -> dict:
    """Score columns {curve_id, pc1, pc2, percentile_pc1}, one row per curve.

    curve_id is a list, the others are float arrays. Percentiles rank PC1
    scores against the PC1 scores of the curves the spectrum was fit on.
    With one retained component pc2 is reported as 0.
    """
    scores = project(spectrum, curves.values)
    return {
        "curve_id": list(curves.curve_ids),
        "pc1": scores[:, 0],
        "pc2": scores[:, 1] if scores.shape[1] > 1 else np.zeros(len(scores)),
        "percentile_pc1": score_percentile(scores[:, 0], spectrum.scores[:, 0]),
    }
