"""Descriptive statistics and pipeline robustness checks.

Plain-formula implementations (Pearson correlation, linear-interpolation
quartiles, adjusted Fisher-Pearson skewness, fixed-bandwidth Gaussian KDE)
plus two study-level diagnostics: a left/right symmetry check that justifies
folding shifts onto one side, and a fixation-threshold sensitivity analysis
that refits the head-contribution curve under different velocity thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    LengthMismatchError,
    OneSidedDataError,
    TooFewPointsError,
    ZeroSpreadError,
)
from .events import FixationConfig, gaze_velocity, segment_shifts
from .fitting import fit_soft_hinge
from .fpca import DEFAULT_GRID
from .ingest import (
    AlignedTrace,
    FilterConfig,
    ShiftSet,
    concat_shift_sets,
    symmetrize_and_clean,
)
from .models import eval_model


def pearson_r(a, b) -> float:
    """Pearson correlation of two equal-length samples."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size != b.size:
        raise LengthMismatchError(f"samples differ in length: {a.size} vs {b.size}")
    if a.size < 3:
        raise TooFewPointsError(f"correlation needs at least 3 points, got {a.size}")
    da = a - a.mean()
    db = b - b.mean()
    ss_a, ss_b = float(np.dot(da, da)), float(np.dot(db, db))
    denom = np.sqrt(ss_a * ss_b)  # Python floats: an overflow gives inf without a warning
    if not 0.0 < denom < np.inf and ss_a > 0.0 and ss_b > 0.0:
        denom = np.sqrt(ss_a) * np.sqrt(ss_b)  # the product under- or overflowed
    if denom == 0.0:
        raise ZeroSpreadError("correlation undefined for a constant sample")
    return float(np.dot(da, db) / denom)


def quartiles(data) -> tuple[float, float, float]:
    """(Q1, median, Q3) with linear interpolation between order statistics."""
    data = np.asarray(data, dtype=float)
    if data.size == 0:
        raise TooFewPointsError("quartiles of an empty sample")
    q1, q2, q3 = np.percentile(data, [25.0, 50.0, 75.0])
    return float(q1), float(q2), float(q3)


def skewness(data) -> float:
    """Adjusted Fisher-Pearson skewness, g1 * sqrt(n(n-1)) / (n-2)."""
    data = np.asarray(data, dtype=float)
    n = data.size
    if n < 3:
        raise TooFewPointsError(f"skewness needs >= 3 points, got {n}")
    d = data - data.mean()
    m2 = float(np.mean(d**2))
    if m2 == 0.0:
        raise ZeroSpreadError("skewness undefined for a constant sample")
    g1 = float(np.mean(d**3)) / m2**1.5
    return g1 * np.sqrt(n * (n - 1.0)) / (n - 2.0)


@dataclass
class DistributionSummary:
    n: int
    min: float
    q1: float
    median: float
    q3: float
    max: float
    skewness: float  # nan when undefined (n < 3 or zero spread)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "min": self.min,
            "q1": self.q1,
            "median": self.median,
            "q3": self.q3,
            "max": self.max,
            "skewness": self.skewness,
        }


def describe_distribution(values) -> DistributionSummary:
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise TooFewPointsError("cannot summarize an empty sample")
    q1, med, q3 = quartiles(values)
    try:
        skew = skewness(values)
    except (TooFewPointsError, ZeroSpreadError):
        skew = float("nan")
    return DistributionSummary(
        n=int(values.size),
        min=float(values.min()),
        q1=q1,
        median=med,
        q3=q3,
        max=float(values.max()),
        skewness=skew,
    )


def kde_density(values, eval_points) -> np.ndarray:
    """Gaussian KDE with the 1.06 * sd * n^(-1/5) rule-of-thumb bandwidth."""
    values = np.asarray(values, dtype=float)
    pts = np.atleast_1d(np.asarray(eval_points, dtype=float))
    if values.size < 2:
        raise TooFewPointsError("KDE needs at least 2 values")
    sd = float(np.std(values, ddof=1))
    if sd == 0.0:
        raise ZeroSpreadError("KDE bandwidth undefined for a constant sample")
    h = 1.06 * sd * values.size ** (-1.0 / 5.0)
    z = (pts[:, None] - values[None, :]) / h
    return np.exp(-0.5 * z**2).sum(axis=1) / (values.size * h * np.sqrt(2.0 * np.pi))


# ---------------------------------------------------------------------------
# left/right symmetry
# ---------------------------------------------------------------------------

@dataclass
class SymmetryReport:
    mirror_correlation: float
    normalized_difference: float
    n_bins: int

    def to_dict(self) -> dict:
        return {
            "mirror_correlation": self.mirror_correlation,
            "normalized_difference": self.normalized_difference,
            "n_bins": self.n_bins,
        }


def _side_bin_means(x_abs, y_oriented, bin_width, min_per_bin):
    means: dict[int, float] = {}
    for b in range(int(np.ceil(50.0 / bin_width))):
        lo, hi = b * bin_width, (b + 1) * bin_width
        mask = (x_abs >= lo) & (x_abs < hi)
        if np.count_nonzero(mask) >= min_per_bin:
            means[b] = float(np.mean(y_oriented[mask]))
    return means


def symmetry_check(
    shifts: ShiftSet,
    bin_width: float = 5.0,
    min_per_bin: int = 3,
) -> SymmetryReport:
    """Compare leftward vs rightward mean head contribution per size bin.

    Signed shifts are split by direction; within each side, shifts are
    binned by |x| and bins with at least min_per_bin shifts keep their mean
    direction-oriented head contribution. The report correlates the two
    sides' bin means over the bins populated on both sides, and measures
    mean |left - right| normalized by the mean rightward value.
    """
    left = shifts.x < 0
    right = shifts.x > 0
    if not np.any(left) or not np.any(right):
        raise OneSidedDataError("symmetry check needs shifts in both directions")
    lm = _side_bin_means(-shifts.x[left], -shifts.y[left], bin_width, min_per_bin)
    rm = _side_bin_means(shifts.x[right], shifts.y[right], bin_width, min_per_bin)
    common = sorted(set(lm) & set(rm))
    if len(common) < 3:
        raise OneSidedDataError(
            f"only {len(common)} size bins populated on both sides"
        )
    lv = np.array([lm[b] for b in common])
    rv = np.array([rm[b] for b in common])
    r = pearson_r(lv, rv)
    mean_right = float(np.mean(rv))
    if mean_right == 0.0:
        raise ZeroSpreadError("rightward head contribution is zero in all bins")
    norm_diff = float(np.mean(np.abs(lv - rv))) / mean_right
    return SymmetryReport(r, norm_diff, len(common))


# ---------------------------------------------------------------------------
# fixation-threshold sensitivity
# ---------------------------------------------------------------------------

def threshold_sensitivity(
    traces: list[AlignedTrace],
    thresholds: tuple[float, ...] = (10.0, 15.0, 20.0),
    base: float = 15.0,
    filter_cfg: FilterConfig = FilterConfig(),
    fixation_cfg: FixationConfig = FixationConfig(),
    grid: np.ndarray = DEFAULT_GRID,
    max_ecc: float = 50.0,
) -> dict[float, float]:
    """Refit one participant's curve per velocity threshold; r vs base.

    Each trial's gaze is smoothed once, and its velocity trace is
    segmented into shifts at every threshold before the next trial is
    smoothed. Per threshold, the soft hinge is refit to the pooled shifts,
    evaluated on the grid, and correlated with the curve obtained at the
    base threshold. The base threshold maps to r = 1.
    """
    all_thresholds = list(thresholds)
    if base not in all_thresholds:
        all_thresholds.append(base)

    parts: dict[float, list[ShiftSet]] = {thr: [] for thr in all_thresholds}
    for tr in traces:
        velocity = gaze_velocity(tr, filter_cfg)
        for thr, shift_sets in parts.items():
            cfg = replace(fixation_cfg, vel_threshold=thr)
            shift_sets.append(segment_shifts(tr, velocity, cfg))

    curves: dict[float, np.ndarray] = {}
    for thr, shift_sets in parts.items():
        cleaned = symmetrize_and_clean(concat_shift_sets(shift_sets), max_ecc=max_ecc)
        fit = fit_soft_hinge(cleaned.x, cleaned.y)
        curves[thr] = eval_model(fit.params, grid)

    base_curve = curves[base]
    return {thr: pearson_r(curves[thr], base_curve) for thr in thresholds}
