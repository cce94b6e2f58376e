"""Fixation detection and gaze-shift extraction on aligned trials.

Fixations are runs where smoothed gaze yaw velocity stays under a threshold
for long enough; everything between two consecutive fixations is a gaze
shift. Shift amplitudes are read off the *raw* traces at the fixation
boundaries (last sample of the earlier fixation, first sample of the later
one); the filtered signal is used only to decide where fixations are. That
still moves the amplitudes: a filter that lags, as the default 1 Hz low-pass
does, puts the boundaries inside the ramps, so a shift can read only part of
its displacement or span two gaze shifts. Reading the boundary samples also
means head motion after gaze has settled (stabilized by the
vestibulo-ocular reflex) is not counted as contribution to the shift.

`threshold_shifts` smooths one trial once and segments it at several
velocity thresholds, for the sensitivity analysis; `preprocess_trial` is
its one-threshold case, at the base threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import TooFewFixationsError, TooFewSamplesError
from .ingest import AlignedTrace, FilterConfig, ShiftSet, one_euro


@dataclass(frozen=True)
class FixationConfig:
    """Velocity-threshold fixation criteria (degrees/s and seconds)."""

    vel_threshold: float = 15.0
    min_duration_s: float = 0.060
    pad_s: float = 0.010
    merge_gap_s: float = 0.020

    def __post_init__(self) -> None:
        if not (math.isfinite(self.vel_threshold) and self.vel_threshold > 0):
            raise ValueError(f"vel_threshold must be finite and > 0, got {self.vel_threshold}")
        for name in ("min_duration_s", "pad_s", "merge_gap_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


def angular_velocity(t: np.ndarray, yaw: np.ndarray) -> np.ndarray:
    """Yaw velocity in degrees/s: central differences inside, one-sided at ends."""
    t = np.asarray(t, dtype=float)
    yaw = np.asarray(yaw, dtype=float)
    if t.size < 2:
        raise TooFewSamplesError(f"velocity needs at least 2 samples, got {t.size}")
    v = np.empty_like(yaw)
    v[1:-1] = (yaw[2:] - yaw[:-2]) / (t[2:] - t[:-2])
    v[0] = (yaw[1] - yaw[0]) / (t[1] - t[0])
    v[-1] = (yaw[-1] - yaw[-2]) / (t[-1] - t[-2])
    return v


def detect_fixations(
    t: np.ndarray,
    velocity: np.ndarray,
    cfg: FixationConfig = FixationConfig(),
) -> np.ndarray:
    """Threshold fixation detector: a (k, 2) intp array of inclusive [start, end] spans.

    1. keep runs with |velocity| < vel_threshold lasting >= min_duration_s,
    2. pad each run outward by pad_s (clamped to the trace),
    3. merge runs whose remaining gap is shorter than merge_gap_s.

    Padded ends never decrease along a sorted timebase, so a padded run
    joins the one before it exactly when it starts less than merge_gap_s
    after that run's padded end.
    """
    t = np.asarray(t, dtype=float)
    if t.size < 3:
        raise TooFewSamplesError(f"fixation detection needs >= 3 samples, got {t.size}")
    slow = np.abs(np.asarray(velocity, dtype=float)) < cfg.vel_threshold
    # run k covers samples edges[2k] .. edges[2k + 1] - 1
    edges = np.flatnonzero(np.diff(slow, prepend=False, append=False))
    starts, ends = edges[0::2], edges[1::2] - 1
    keep = t[ends] - t[starts] >= cfg.min_duration_s
    # searchsorted returns indices in [0, t.size], so the pads stay on the trace
    starts = np.searchsorted(t, t[starts[keep]] - cfg.pad_s, side="left")
    ends = np.searchsorted(t, t[ends[keep]] + cfg.pad_s, side="right") - 1
    new = np.ones(starts.size, dtype=bool)
    new[1:] = ~(t[starts[1:]] - t[ends[:-1]] < cfg.merge_gap_s)
    # a merged run ends where the next one starts anew; new[0] rolls round to close the last
    last = np.roll(new, -1)
    return np.column_stack((starts[new], ends[last]))


def extract_shifts(trace: AlignedTrace, spans: np.ndarray) -> ShiftSet:
    """One signed shift per consecutive pair of fixation spans, anchored on raw yaw.

    spans holds inclusive [start, end] sample indices, one row per fixation
    (detect_fixations). x = gaze displacement between the end of one
    fixation and the start of the next; y = head displacement between the
    same two samples.
    """
    if len(spans) < 2:
        raise TooFewFixationsError(f"need >= 2 fixations to form a shift, got {len(spans)}")
    a_idx, b_idx = spans[:-1, 1], spans[1:, 0]
    x = trace.gaze_yaw[b_idx] - trace.gaze_yaw[a_idx]
    y = trace.head_yaw[b_idx] - trace.head_yaw[a_idx]
    n = x.size
    return ShiftSet(
        participant_id=[trace.participant_id] * n,
        trial_id=[trace.trial_id] * n,
        x=x,
        y=y,
    )


def threshold_shifts(
    trace: AlignedTrace,
    thresholds: tuple[float, ...],
    filter_cfg: FilterConfig = FilterConfig(),
    fixation_cfg: FixationConfig = FixationConfig(),
) -> dict[float, ShiftSet]:
    """One trial's signed shifts at every threshold, and at the base threshold.

    The gaze is smoothed once (the 1-Euro filter and the velocity do not
    depend on the fixation threshold), and its velocity trace is segmented
    at each of thresholds and then at fixation_cfg.vel_threshold, the base,
    unless it is one of them. Returns {threshold: ShiftSet} in that order.
    """
    velocity = angular_velocity(trace.t, one_euro(trace.t, trace.gaze_yaw, filter_cfg))
    out: dict[float, ShiftSet] = {}
    for thr in (*thresholds, fixation_cfg.vel_threshold):
        if thr not in out:
            cfg = replace(fixation_cfg, vel_threshold=thr)
            out[thr] = extract_shifts(trace, detect_fixations(trace.t, velocity, cfg))
    return out


def preprocess_trial(
    trace: AlignedTrace,
    filter_cfg: FilterConfig = FilterConfig(),
    fixation_cfg: FixationConfig = FixationConfig(),
) -> ShiftSet:
    """Smooth gaze, detect fixations, and extract signed shifts for one trial."""
    return threshold_shifts(trace, (), filter_cfg, fixation_cfg)[fixation_cfg.vel_threshold]
