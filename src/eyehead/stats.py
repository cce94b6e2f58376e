"""Descriptive statistics and pipeline robustness checks.

Plain-formula implementations (Pearson correlation, linear-interpolation
quartiles, adjusted Fisher-Pearson skewness, fixed-bandwidth Gaussian KDE)
plus two study-level diagnostics: a left/right symmetry check that justifies
folding shifts onto one side, and a fixation-threshold sensitivity analysis
that refits the head-contribution curve on the cleaned shifts that
`events.threshold_shifts` segments at different velocity thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyDataError,
    EyeheadError,
    LengthMismatchError,
    OneSidedDataError,
    TooFewPointsError,
    ZeroSpreadError,
)
from .fitting import fit_participants
from .fpca import DEFAULT_GRID
from .ingest import ShiftSet
from .models import X_MAX, eval_model


def pearson_r(a, b) -> float:
    """Pearson correlation of two equal-length samples."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size != b.size:
        raise LengthMismatchError(f"samples differ in length: {a.size} vs {b.size}")
    if a.size < 3:
        raise TooFewPointsError(f"correlation needs at least 3 points, got {a.size}")
    da = _unit_scaled(a - a.mean())
    db = _unit_scaled(b - b.mean())
    denom = np.sqrt(float(np.dot(da, da)) * float(np.dot(db, db)))
    if denom == 0.0:
        raise ZeroSpreadError("correlation undefined for a constant sample")
    return float(np.dot(da, db) / denom)


def _unit_scaled(d: np.ndarray) -> np.ndarray:
    """d times the power of two that brings max |d| into [0.5, 1).

    The scaling is exact, so r is unchanged, and no sum of squares or
    product of them under- or overflows, however tiny or huge the spread.
    """
    _, exp = np.frexp(np.max(np.abs(d)))
    return np.ldexp(d, -exp)


# The statistics below square or cube values; below 2**HUGE_EXP neither overflows.
HUGE_EXP = 300


def _shrunk(values: np.ndarray) -> tuple[np.ndarray, int]:
    """(values / 2**e, e), e >= 0 the least that brings max |values| under 2**HUGE_EXP.

    Dividing by a power of two is exact, and e is 0 for all but huge values,
    so a statistic that would overflow on values no longer does, and one that
    would not is unchanged bit for bit.
    """
    _, exp = np.frexp(np.max(np.abs(values), initial=0.0))
    e = max(int(exp) - HUGE_EXP, 0)
    return np.ldexp(values, -e), e


def mean_sd(values) -> tuple[float, float]:
    """Mean and sample SD (ddof=1) of values; nan without values, or without two for the SD.

    An SD past the float range is inf.
    """
    values, e = _shrunk(np.asarray(values, dtype=float))
    # a Python float product past the float range is inf, with no warning
    scale = 2.0 ** e
    mean = float(values.mean()) * scale if values.size else float("nan")
    sd = float(values.std(ddof=1)) * scale if values.size > 1 else float("nan")
    return mean, sd


def quartiles(data) -> tuple[float, float, float]:
    """(Q1, median, Q3) with linear interpolation between order statistics."""
    data, e = _shrunk(np.asarray(data, dtype=float))
    if data.size == 0:
        raise TooFewPointsError("quartiles of an empty sample")
    q1, q2, q3 = np.ldexp(np.percentile(data, [25.0, 50.0, 75.0]), e)
    return float(q1), float(q2), float(q3)


def skewness(data) -> float:
    """Adjusted Fisher-Pearson skewness, g1 * sqrt(n(n-1)) / (n-2)."""
    data, _ = _shrunk(np.asarray(data, dtype=float))  # g1 is scale-free
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


def kde_grid(values, n: int) -> np.ndarray:
    """n points from a quarter of the values' range below them to a quarter above.

    The ends are clipped to the float range.
    """
    values, e = _shrunk(np.asarray(values, dtype=float))
    lo, hi = values.min(), values.max()
    span = hi - lo
    top = np.ldexp(np.finfo(float).max, -e)
    return np.ldexp(np.linspace(max(lo - 0.25 * span, -top), min(hi + 0.25 * span, top), n), e)


def kde_density(values, eval_points) -> np.ndarray:
    """Gaussian KDE with the 1.06 * sd * n^(-1/5) rule-of-thumb bandwidth."""
    values, e = _shrunk(np.asarray(values, dtype=float))
    pts = np.ldexp(np.atleast_1d(np.asarray(eval_points, dtype=float)), -e)
    if values.size < 2:
        raise TooFewPointsError("KDE needs at least 2 values")
    sd = float(np.std(values, ddof=1))
    if sd == 0.0:
        raise ZeroSpreadError("KDE bandwidth undefined for a constant sample")
    h = 1.06 * sd * values.size ** (-1.0 / 5.0)
    z = (pts[:, None] - values[None, :]) / h
    # the density of values / 2**e at pts / 2**e is 2**e times theirs
    return np.ldexp(np.exp(-0.5 * z**2).sum(axis=1) / (values.size * h * np.sqrt(2.0 * np.pi)),
                    -e)


# ---------------------------------------------------------------------------
# left/right symmetry
# ---------------------------------------------------------------------------

@dataclass
class SymmetryReport:
    mirror_correlation: float
    normalized_difference: float
    n_bins: int


SYMMETRY_BIN_WIDTH = 5.0
MIN_PER_BIN = 3


def _side_bin_means(x_abs, y_oriented):
    means: dict[int, float] = {}
    for b in range(int(np.ceil(X_MAX / SYMMETRY_BIN_WIDTH))):
        lo, hi = b * SYMMETRY_BIN_WIDTH, (b + 1) * SYMMETRY_BIN_WIDTH
        mask = (x_abs >= lo) & (x_abs < hi)
        if np.count_nonzero(mask) >= MIN_PER_BIN:
            means[b] = float(np.mean(y_oriented[mask]))
    return means


def symmetry_check(shifts: ShiftSet) -> SymmetryReport:
    """Compare leftward vs rightward mean head contribution per size bin.

    Signed shifts are split by direction; within each side, shifts are
    binned by |x| and bins with at least MIN_PER_BIN shifts keep their mean
    direction-oriented head contribution. The report correlates the two
    sides' bin means over the bins populated on both sides, and measures
    mean |left - right| normalized by the mean rightward value.
    """
    left = shifts.x < 0
    right = shifts.x > 0
    if not np.any(left) or not np.any(right):
        raise OneSidedDataError("symmetry check needs shifts in both directions")
    lm = _side_bin_means(-shifts.x[left], -shifts.y[left])
    rm = _side_bin_means(shifts.x[right], shifts.y[right])
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
    shifts: dict[tuple[str, float], ShiftSet],
    thresholds: tuple[float, ...],
    base: float,
) -> dict[str, dict[float, float] | EyeheadError]:
    """Refit every participant's curve per velocity threshold; r vs base.

    shifts maps (participant_id, threshold) to that participant's cleaned
    shifts at that threshold (ingest.symmetrize_and_clean), for every
    threshold and for base, the threshold preprocess segments at. The soft
    hinges of the non-empty sets are refit in one batched call; each curve
    is evaluated on DEFAULT_GRID and correlated with the participant's curve
    at base, which maps to r = 1. Returns {participant_id: {threshold: r}}
    in id order. A participant with no shifts at some threshold, or with a
    constant curve (no head movement), maps to that error instead, and the
    other participants are unaffected.
    """
    keys = [key for key, sub in shifts.items() if len(sub)]
    fits = fit_participants([(shifts[key].x, shifts[key].y) for key in keys], ("soft-hinge",))
    curves = {
        key: eval_model(fit.fits["soft-hinge"].params, DEFAULT_GRID)
        for key, fit in zip(keys, fits)
    }

    out: dict[str, dict[float, float] | EyeheadError] = {}
    for pid in sorted({pid for pid, _ in shifts}):
        empty = [thr for thr in (*thresholds, base) if (pid, thr) not in curves]
        if empty:
            out[pid] = EmptyDataError(f"no shifts at a threshold of {empty[0]:g} deg/s")
            continue
        try:
            base_curve = curves[(pid, base)]
            out[pid] = {thr: pearson_r(curves[(pid, thr)], base_curve) for thr in thresholds}
        except ZeroSpreadError as exc:
            out[pid] = exc
    return out
