"""Ground-truth-known synthetic data for oracle-based tests and demos.

Two generators:

* `synth_shifts` draws (eccentricity, head contribution) pairs straight
  from a soft-hinge curve plus optional Gaussian noise, clamped to the
  feasible wedge 0 <= y <= x.
* `synth_trace` builds full raw gaze/head yaw recordings: stationary
  fixation plateaus joined by raised-cosine velocity ramps, with the head
  ramp amplitude per shift set by the curve. The raised cosine has
  analytically known peak velocity 2*A/d (amplitude A, duration d), so
  plateau samples sit below any sane fixation threshold and ramp interiors
  sit above it by construction. The generator emits the true segmentation
  and shift list for comparison against the detector.

Everything is deterministic given the seed; random streams are keyed by
(seed, participant, purpose) so generation order cannot change results.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .ingest import RawStream, ShiftSet
from .models import X_MAX, X_MIN, SoftHingeParams, eval_model, params_to_dict

# Trace construction: fixation plateaus and raised-cosine ramps of fixed
# length, gaze and head sampled on their own clocks, starting straight ahead.
FIXATION_S = 0.400
RAMP_S = 0.150
SAMPLE_RATE_HZ = 120.0
HEAD_RATE_HZ = 90.0
HEAD_OFFSET_S = 0.003
START_YAW_DEG = 0.0
# gaze shift amplitudes (uniform) and the bound that turns a shift back
AMP_RANGE_DEG = (5.0, 45.0)
POSITION_BOUND_DEG = 150.0

# draw_population's uniform ranges of the true soft-hinge parameters
POP_BETA_RANGE = (0.4, 0.95)
POP_TAU_RANGE = (5.0, 30.0)
POP_S_RANGE = (2.0, 8.0)


@dataclass(frozen=True)
class SynthConfig:
    params: SoftHingeParams
    n_shifts: int = 100
    noise_sd: float = 0.0
    seed: int = 0
    participant_id: str = "synth"
    trial_id: str = "t01"
    wrap_output: bool = False
    gaze_noise_sd: float = 0.0  # degrees, white noise on gaze yaw (synth_trace)

    def __post_init__(self) -> None:
        if self.n_shifts < 1:
            raise ValueError(f"n_shifts must be >= 1, got {self.n_shifts}")
        if not (math.isfinite(self.noise_sd) and self.noise_sd >= 0):
            raise ValueError(f"noise_sd must be finite and >= 0, got {self.noise_sd}")
        if not (math.isfinite(self.gaze_noise_sd) and self.gaze_noise_sd >= 0):
            raise ValueError(f"gaze_noise_sd must be finite and >= 0, got {self.gaze_noise_sd}")


def _rng(seed: int, participant_id: str, purpose: str) -> np.random.Generator:
    pid_key = int.from_bytes(hashlib.sha256(participant_id.encode()).digest()[:8], "big")
    purpose_key = int.from_bytes(hashlib.sha256(purpose.encode()).digest()[:8], "big")
    return np.random.default_rng(np.random.SeedSequence([seed, pid_key, purpose_key]))


# ---------------------------------------------------------------------------
# shift-level generation
# ---------------------------------------------------------------------------

def synth_shifts(cfg: SynthConfig) -> tuple[ShiftSet, dict]:
    """Draw shifts on (or noisily around) the configured curve.

    x is uniform on [0, 50] and y = model(x) + Normal(0, noise_sd), then
    clamped into [0, x]; the clamp censors the noise near x = 0 where the
    feasible wedge is thin.
    """
    rng = _rng(cfg.seed, cfg.participant_id, "shifts")
    x = rng.uniform(X_MIN, X_MAX, cfg.n_shifts)
    y = eval_model(cfg.params, x)
    if cfg.noise_sd > 0:
        y = y + rng.normal(0.0, cfg.noise_sd, cfg.n_shifts)
    y = np.clip(y, 0.0, x)
    shifts = ShiftSet(
        participant_id=[cfg.participant_id] * cfg.n_shifts,
        trial_id=[cfg.trial_id] * cfg.n_shifts,
        x=x,
        y=y,
    )
    truth = {
        "participant_id": cfg.participant_id,
        "trial_id": cfg.trial_id,
        "params": params_to_dict(cfg.params),
        "noise_sd": cfg.noise_sd,
        "seed": cfg.seed,
        "n_shifts": cfg.n_shifts,
    }
    return shifts, truth


# ---------------------------------------------------------------------------
# trace-level generation
# ---------------------------------------------------------------------------

def _ramp_fraction(u: np.ndarray) -> np.ndarray:
    """Displacement fraction of a raised-cosine velocity ramp, u in [0, 1]."""
    return u - np.sin(2.0 * np.pi * u) / (2.0 * np.pi)


def _piecewise_position(
    ts: np.ndarray,
    ramp_starts: np.ndarray,
    ramp_dur: float,
    levels: np.ndarray,
    amplitudes: np.ndarray,
) -> np.ndarray:
    """Evaluate the plateau/ramp trajectory at arbitrary times.

    levels[i] is the plateau before ramp i (levels has one more entry than
    ramp_starts); during ramp i the position eases from levels[i] by
    amplitudes[i] along the raised-cosine displacement curve.
    """
    seg = np.searchsorted(ramp_starts, ts, side="right") - 1
    pos = np.empty_like(ts)
    before = seg < 0
    pos[before] = levels[0]
    active = ~before
    i = seg[active]
    dt = ts[active] - ramp_starts[i]
    frac = np.where(dt >= ramp_dur, 1.0, _ramp_fraction(np.minimum(dt, ramp_dur) / ramp_dur))
    pos[active] = levels[i] + amplitudes[i] * frac
    return pos


def _wrap(yaw: np.ndarray) -> np.ndarray:
    return (yaw + 180.0) % 360.0 - 180.0


def synth_trace(cfg: SynthConfig) -> tuple[RawStream, RawStream, dict]:
    """Build one trial's gaze and head recordings with known segmentation.

    Gaze shift amplitudes are drawn uniform in AMP_RANGE_DEG with signs
    chosen to keep the cumulative position inside +-POSITION_BOUND_DEG; the
    head moves synchronously with each gaze ramp by model(|amplitude|),
    capped at the gaze amplitude. Gaze and head are sampled on their own
    clocks (different rates, small offset). With gaze_noise_sd > 0, white
    Gaussian noise of that SD (degrees) is added to every gaze sample, from
    a stream of its own, so the amplitudes, the head stream and the truth
    record do not change; at 0 nothing is drawn. With wrap_output the
    emitted yaw wraps into [-180, 180) like a real device.
    """
    n = cfg.n_shifts
    rng = _rng(cfg.seed, cfg.participant_id, f"trace:{cfg.trial_id}")

    amps = rng.uniform(*AMP_RANGE_DEG, n)
    signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    gaze_amp = np.empty(n)
    pos = START_YAW_DEG
    for i in range(n):
        step = signs[i] * amps[i]
        if abs(pos + step) > POSITION_BOUND_DEG:
            step = -step
        gaze_amp[i] = step
        pos += step

    head_amp = np.clip(eval_model(cfg.params, amps), 0.0, amps) * np.sign(gaze_amp)

    gaze_levels = START_YAW_DEG + np.concatenate(([0.0], np.cumsum(gaze_amp)))
    head_levels = START_YAW_DEG + np.concatenate(([0.0], np.cumsum(head_amp)))
    ramp_starts = FIXATION_S + np.arange(n) * (FIXATION_S + RAMP_S)
    total_s = (n + 1) * FIXATION_S + n * RAMP_S

    t_gaze = np.arange(0.0, total_s, 1.0 / SAMPLE_RATE_HZ)
    t_head = np.arange(HEAD_OFFSET_S, total_s, 1.0 / HEAD_RATE_HZ)
    gaze_yaw = _piecewise_position(t_gaze, ramp_starts, RAMP_S, gaze_levels, gaze_amp)
    head_yaw = _piecewise_position(t_head, ramp_starts, RAMP_S, head_levels, head_amp)
    if cfg.gaze_noise_sd > 0:
        noise = _rng(cfg.seed, cfg.participant_id, f"gaze-noise:{cfg.trial_id}")
        gaze_yaw = gaze_yaw + noise.normal(0.0, cfg.gaze_noise_sd, t_gaze.size)
    if cfg.wrap_output:
        gaze_yaw = _wrap(gaze_yaw)
        head_yaw = _wrap(head_yaw)

    fixation_truth = [[0.0, float(ramp_starts[0])]]
    for i in range(n - 1):
        fixation_truth.append([float(ramp_starts[i] + RAMP_S), float(ramp_starts[i + 1])])
    fixation_truth.append([float(ramp_starts[-1] + RAMP_S), float(total_s)])

    truth = {
        "participant_id": cfg.participant_id,
        "trial_id": cfg.trial_id,
        "params": params_to_dict(cfg.params),
        "seed": cfg.seed,
        "shifts": [
            {
                "t_on": float(ramp_starts[i]),
                "t_off": float(ramp_starts[i] + RAMP_S),
                "gaze_amplitude": float(gaze_amp[i]),
                "head_amplitude": float(head_amp[i]),
            }
            for i in range(n)
        ],
        "fixations": fixation_truth,
        "total_duration_s": float(total_s),
    }
    gaze = RawStream(cfg.participant_id, cfg.trial_id, t_gaze, gaze_yaw)
    head = RawStream(cfg.participant_id, cfg.trial_id, t_head, head_yaw)
    return gaze, head, truth


# ---------------------------------------------------------------------------
# population helper
# ---------------------------------------------------------------------------

def draw_population(n_participants: int, seed: int) -> list[tuple[str, SoftHingeParams]]:
    """Participant ids with per-participant true curve parameters."""
    out = []
    for i in range(n_participants):
        pid = f"synth{i + 1:03d}"
        rng = _rng(seed, pid, "population")
        params = SoftHingeParams(
            beta=float(rng.uniform(*POP_BETA_RANGE)),
            tau=float(rng.uniform(*POP_TAU_RANGE)),
            s=float(rng.uniform(*POP_S_RANGE)),
        )
        out.append((pid, params))
    return out
