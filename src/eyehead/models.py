"""Head-contribution models over target eccentricity.

Three parametric curves describe how much the head rotates as a function of
the horizontal size x of a gaze shift, all defined on x in [0, 50] degrees:

* linear baseline   y = gamma * max(0, x - alpha), with alpha the eye-only
  range (EOR) and gamma the eye-head-range slope, both precomputed from the
  participant's data rather than optimized,
* hinge             y = beta * softplus(x - tau),
* soft hinge        y = beta * softplus((x - tau) / s),

where softplus(z) = log(1 + exp(z)). The soft hinge with s = 1 reduces to
the hinge exactly; its asymptotic slope for large x is beta / s.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import DomainError, TooFewPointsError

X_MIN = 0.0
X_MAX = 50.0

# Lower bound on the softness parameter: the soft hinge divides by s.
S_MIN = 1e-3

# Search range for the knee; values far outside the data domain are
# unidentifiable.
TAU_RANGE = (-20.0, 70.0)


@dataclass(frozen=True)
class LinearParams:
    """Eye-only breakpoint alpha (degrees) and post-breakpoint slope gamma."""

    alpha: float
    gamma: float

    def __post_init__(self) -> None:
        if not (X_MIN <= self.alpha <= X_MAX):
            raise DomainError(f"alpha must lie in [0, 50], got {self.alpha}")
        if self.gamma < 0:
            raise DomainError(f"gamma must be nonnegative, got {self.gamma}")


@dataclass(frozen=True)
class HingeParams:
    """Scale beta (unitless, in [0, 1]) and threshold tau (degrees)."""

    beta: float
    tau: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.beta <= 1.0):
            raise DomainError(f"beta must lie in [0, 1], got {self.beta}")


@dataclass(frozen=True)
class SoftHingeParams:
    """Scale beta in [0, 1], knee tau (degrees), softness s >= S_MIN (degrees)."""

    beta: float
    tau: float
    s: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.beta <= 1.0):
            raise DomainError(f"beta must lie in [0, 1], got {self.beta}")
        if self.s < S_MIN:
            raise DomainError(f"s must be >= {S_MIN}, got {self.s}")


ModelParams = LinearParams | HingeParams | SoftHingeParams

# Every candidate model: its tag in fits.json and the class of its
# parameters, in the order fits are run and written.
MODELS = {"linear": LinearParams, "hinge": HingeParams, "soft-hinge": SoftHingeParams}
_TAGS = {cls: tag for tag, cls in MODELS.items()}


def softplus(z):
    """Numerically safe softplus, log(1 + exp(z)).

    Computed as max(z, 0) + log1p(exp(-|z|)), which does not overflow for
    any finite z. Accepts scalars or arrays.
    """
    z = np.asarray(z, dtype=float)
    out = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    return out if out.ndim else float(out)


def _check_domain(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    bad = ~((x >= X_MIN) & (x <= X_MAX))  # catches non-finite values too
    if np.any(bad):
        raise DomainError(f"eccentricity outside [0, 50]: {x[bad].flat[0]}")
    return x


def eval_model(params: ModelParams, x):
    """Evaluate a head-contribution model at eccentricity x (degrees).

    x may be scalar or array; values must lie in [0, 50].
    """
    xa = _check_domain(x)
    if isinstance(params, LinearParams):
        out = params.gamma * np.maximum(0.0, xa - params.alpha)
    elif isinstance(params, HingeParams):
        out = params.beta * softplus(xa - params.tau)
    elif isinstance(params, SoftHingeParams):
        out = params.beta * softplus((xa - params.tau) / params.s)
    else:
        raise TypeError(f"unsupported params type {type(params).__name__}")
    out = np.asarray(out)
    return out if out.ndim else float(out)


def soft_hinge_partials(beta, tau, s, x):
    """Partials of beta * softplus((x - tau) / s) wrt (beta, tau, s).

    With u = (x - tau) / s and sigma the logistic function:
        dy/dbeta = softplus(u)
        dy/dtau  = -(beta / s) * sigma(u)
        dy/ds    = -(beta * u / s) * sigma(u)
    All arguments broadcast against each other (e.g. parameters shaped
    (n, 1) against x shaped (m,)), and the model value is beta * dy/dbeta.
    """
    u = (np.asarray(x, dtype=float) - tau) / s
    # the logistic from e = exp(-|u|), which never overflows
    e = np.exp(-np.abs(u))
    sig = np.where(u >= 0.0, 1.0, e) / (1.0 + e)
    d_beta = softplus(u)
    d_tau = -(beta / s) * sig
    d_s = -(beta * u / s) * sig
    return np.asarray(d_beta), d_tau, d_s


def model_gradient(params: SoftHingeParams, x):
    """Partials of the soft hinge wrt (beta, tau, s); three arrays shaped like x."""
    return soft_hinge_partials(params.beta, params.tau, params.s, x)


def hinge_gradient(params: HingeParams, x):
    """Partials of the hinge wrt (beta, tau); the hinge is the s = 1 soft hinge."""
    d_beta, d_tau, _ = model_gradient(SoftHingeParams(params.beta, params.tau, 1.0), x)
    return d_beta, d_tau


EOR_BIN_WIDTH = 5.0


def compute_eor(x, y) -> float:
    """Eye-only range: eccentricity where P(eye-only shift) first drops to 0.5.

    A shift is eye-only when its head contribution is at most 10% of its
    amplitude. Shifts are binned by eccentricity into bins centered on
    multiples of EOR_BIN_WIDTH; the 50% crossing is located by linear
    interpolation between adjacent non-empty bin centers and clamped to
    [0, 50].
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size == 0:
        raise TooFewPointsError("EOR needs at least one shift")

    eye_only = y <= 0.1 * x
    centers = np.arange(0.0, X_MAX + EOR_BIN_WIDTH / 2, EOR_BIN_WIDTH)[:, None]
    in_bin = (x >= centers - EOR_BIN_WIDTH / 2) & (x < centers + EOR_BIN_WIDTH / 2)
    counts = in_bin.sum(axis=1)
    kept = counts > 0
    if not np.any(kept):
        raise TooFewPointsError("EOR needs at least one populated bin")
    kept_centers = centers[kept, 0]
    probs = (in_bin & eye_only).sum(axis=1)[kept] / counts[kept]

    if probs[0] < 0.5:
        return 0.0
    crossings = np.flatnonzero((probs[:-1] >= 0.5) & (probs[1:] < 0.5))
    if crossings.size:
        i = crossings[0]
        c1, c2 = kept_centers[i], kept_centers[i + 1]
        p1, p2 = probs[i], probs[i + 1]
        alpha = c1 + (p1 - 0.5) / (p1 - p2) * (c2 - c1)
        return float(min(max(alpha, X_MIN), X_MAX))
    return X_MAX


def compute_ehr_slope(x, y, alpha: float) -> float:
    """Through-origin slope of head contribution against (x - alpha), x > alpha.

    gamma = sum(y * (x - alpha)) / sum((x - alpha)^2) over shifts beyond the
    breakpoint, matching the linear model's functional form exactly.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    beyond = x > alpha
    if np.count_nonzero(beyond) < 2:
        raise TooFewPointsError(
            f"EHR slope needs at least 2 shifts with x > {alpha}, "
            f"got {np.count_nonzero(beyond)}"
        )
    dx = x[beyond] - alpha
    return float(np.dot(y[beyond], dx) / np.dot(dx, dx))


def params_to_dict(params: ModelParams) -> dict:
    """JSON-ready representation, tagged with the model name."""
    return {"model": _TAGS[type(params)], **asdict(params)}


def is_number(v) -> bool:
    """Whether v is a finite number: an int or float (a numpy float too), not a bool.

    The one rule for a number read from a JSON artifact, whose writers write
    only finite numbers or null: a string, a boolean or NaN is not one.
    """
    # abs(v) <= the largest float: false for NaN, infinities and an int no float holds
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def params_from_dict(d: dict) -> ModelParams:
    """The parameters params_to_dict wrote; a value missing or not is_number is a ValueError."""
    if not isinstance(d, dict):
        raise ValueError(f"model parameters must be an object, got {d!r}")
    kind = d.get("model")
    if not isinstance(kind, str) or kind not in MODELS:
        raise ValueError(f"unknown model tag {kind!r}")
    values = {}
    for key in (f.name for f in fields(MODELS[kind])):
        if key not in d:
            raise ValueError(f"{kind} parameter {key!r} is missing")
        if not is_number(d[key]):
            raise ValueError(f"{kind} parameter {key!r} is not a number: {d[key]!r}")
        values[key] = float(d[key])
    return MODELS[kind](**values)
