"""Per-participant model fits and AIC-based model comparison.

The soft hinge and the hinge are fit by the same solver: a projected
Levenberg-Marquardt loop (Moré 1978) that runs all of a fit's seeded random
starts at once as one batch, each start with its own damping and its own
stopping test, and keeps the lowest-SSE converged start (the lowest-SSE start
overall, flagged unconverged, if none converged). The hinge is the soft hinge
with s fixed at 1, so it is solved over (beta, tau) only. A start converges
when, within MAX_NFEV steps, its projected-gradient max-norm falls to
GTOL * max(1, SSE) or an accepted step shrinks to XTOL * (XTOL + |theta|).
A fit with no more data points than parameters is never flagged converged.
The linear baseline has no free parameters to optimize, since its breakpoint
is the participant's eye-only range and its slope is computed in closed form.
All three candidates are then ranked by AIC on identical data.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyDataError,
    MismatchedDataError,
    TooFewPointsError,
    ZeroVarianceError,
)
from .models import (
    S_MIN,
    TAU_RANGE,
    HingeParams,
    LinearParams,
    ModelParams,
    SoftHingeParams,
    _check_domain,
    compute_ehr_slope,
    compute_eor,
    eval_model,
    hinge_gradient,  # unused here; the benchmark tracer wraps fitting.hinge_gradient
    model_gradient,  # likewise: the solver calls soft_hinge_partials directly
    params_from_dict,
    params_to_dict,
    soft_hinge_partials,
)

# Initial points are drawn uniformly from these boxes (not the full bound
# box: knees far outside the data and extreme softness just waste restarts).
START_BETA = (0.0, 1.0)
START_TAU = (0.0, 50.0)
START_S = (0.5, 20.0)
# Solver bounds on (beta, tau, s) and its stopping rules.
LOWER = (0.0, TAU_RANGE[0], S_MIN)
UPPER = (1.0, TAU_RANGE[1], np.inf)
MAX_NFEV = 200
GTOL = 1e-8
XTOL = 1e-10
# Floor on the solver's damping, relative to its scaled system's unit
# diagonal: keeps that system nonsingular where two Jacobian columns are
# collinear to rounding, as where the soft hinge is nearly a straight line.
LAM_MIN = 1e-12

_N_PARAMS = {"linear": 2, "hinge": 2, "soft-hinge": 3}
# Every candidate model, in the order fits are run and written.
MODELS = tuple(_N_PARAMS)


@dataclass(frozen=True)
class FitConfig:
    n_starts: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_starts < 1:
            raise ValueError(f"n_starts must be >= 1, got {self.n_starts}")


@dataclass
class FitResult:
    model: str
    params: ModelParams
    sse: float
    rmse: float
    r2: float
    aic: float
    n_points: int
    n_params: int
    converged: bool
    n_converged: int
    start_index: int
    data_digest: str
    # SSE of the winning run's own starting point, for objective-decrease
    # checks (equals sse for the closed-form linear baseline).
    start_sse: float = float("nan")
    # per-start best SSEs, in start order (not serialized)
    start_sses: list[float] = field(default_factory=list, repr=False)

    def to_file_dict(self) -> dict:
        """The on-disk object shape used inside fit-results files."""
        return {
            "model": self.model,
            "params": params_to_dict(self.params),
            "sse": self.sse,
            "r2": self.r2,
            "rmse": self.rmse,
            "aic": self.aic,
            "n_points": self.n_points,
            "converged": self.converged,
        }

    @staticmethod
    def from_file_dict(d: dict) -> "FitResult":
        params = params_from_dict(d["params"])
        model = d["model"]
        return FitResult(
            model=model,
            params=params,
            sse=float(d["sse"]),
            rmse=float(d["rmse"]),
            r2=float("nan") if d["r2"] is None else float(d["r2"]),
            aic=float(d["aic"]),
            n_points=int(d["n_points"]),
            n_params=_N_PARAMS[model],
            converged=bool(d["converged"]),
            n_converged=-1,
            start_index=-1,
            data_digest=d.get("data_digest", ""),
        )


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def sum_squared_error(params: ModelParams, x: np.ndarray, y: np.ndarray) -> float:
    r = eval_model(params, x) - y
    return float(np.dot(r, r))


def r_squared(sse: float, y: np.ndarray) -> float:
    """1 - SSE/TSS; undefined (raises) when the responses have no variance."""
    y = np.asarray(y, dtype=float)
    tss = float(np.sum((y - y.mean()) ** 2))
    if tss == 0.0:
        raise ZeroVarianceError("response variance is zero, r^2 undefined")
    return 1.0 - sse / tss


def rmse_from_sse(sse: float, n: int) -> float:
    return float(np.sqrt(sse / n))


def aic_gaussian(sse: float, n: int, k: int) -> float:
    """AIC for Gaussian residuals up to a constant: n*ln(SSE/n) + 2k.

    SSE/n is floored at a tiny positive value so an exact fit gives a very
    negative AIC instead of -inf.
    """
    mean_sq = max(sse / n, 1e-300)
    return float(n * np.log(mean_sq) + 2 * k)


def fit_metrics(x, y, params: ModelParams, k: int) -> tuple[float, float, float, float]:
    """(sse, r2, rmse, aic) of a parameter set on data; r2 is nan when var(y)=0."""
    x, y = _check_data(x, y)
    sse = sum_squared_error(params, x, y)
    try:
        r2 = r_squared(sse, y)
    except ZeroVarianceError:
        r2 = float("nan")
    return sse, r2, rmse_from_sse(sse, int(x.size)), aic_gaussian(sse, int(x.size), k)


def data_digest(x: np.ndarray, y: np.ndarray) -> str:
    """Fingerprint of the exact (x, y) arrays a fit was computed on."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(x, dtype=float).tobytes())
    h.update(np.ascontiguousarray(y, dtype=float).tobytes())
    return h.hexdigest()


def _finish(
    model: str,
    params: ModelParams,
    x: np.ndarray,
    y: np.ndarray,
    converged: bool,
    n_converged: int,
    start_index: int,
    start_sse: float,
    start_sses: list[float],
) -> FitResult:
    k = _N_PARAMS[model]
    sse, r2, rmse, aic = fit_metrics(x, y, params, k)
    # with n <= k points the curve interpolates them: nothing is identified
    converged = converged and x.size > k
    return FitResult(
        model=model,
        params=params,
        sse=sse,
        rmse=rmse,
        r2=r2,
        aic=aic,
        n_points=int(x.size),
        n_params=k,
        converged=converged,
        n_converged=n_converged,
        start_index=start_index,
        data_digest=data_digest(x, y),
        start_sse=start_sse,
        start_sses=start_sses,
    )


# ---------------------------------------------------------------------------
# deterministic start generation
# ---------------------------------------------------------------------------

def _participant_key(participant_id: str) -> int:
    return int.from_bytes(
        hashlib.sha256(participant_id.encode()).digest()[:8], "big"
    )


def start_rng(seed: int, participant_id: str, start_index: int) -> np.random.Generator:
    """Generator keyed by (seed, participant, restart), independent of ordering."""
    return np.random.default_rng(
        np.random.SeedSequence([seed, _participant_key(participant_id), start_index])
    )


def _draw_start(rng: np.random.Generator) -> tuple[float, float, float]:
    return (
        rng.uniform(*START_BETA),
        rng.uniform(*START_TAU),
        rng.uniform(*START_S),
    )


# ---------------------------------------------------------------------------
# fits
# ---------------------------------------------------------------------------

def _check_data(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size == 0 or y.size == 0:
        raise EmptyDataError("cannot fit a model to zero shifts")
    if x.shape != y.shape:
        raise MismatchedDataError(f"x has shape {x.shape}, y has shape {y.shape}")
    return x, y


def _evaluate(theta: np.ndarray, x: np.ndarray, y: np.ndarray):
    """Residuals (m, n), transposed Jacobians (m, k, n) and SSEs (m,) of m rows.

    A row is (beta, tau, s), or (beta, tau) for the hinge, whose s is 1.
    """
    k = theta.shape[1]
    beta, tau = theta[:, 0:1], theta[:, 1:2]
    partials = soft_hinge_partials(beta, tau, theta[:, 2:3] if k == 3 else 1.0, x)
    r = beta * partials[0] - y
    return r, np.stack(partials[:k], axis=1), np.einsum("ij,ij->i", r, r)


def _projected_lm(x, y, starts: np.ndarray):
    """Projected Levenberg-Marquardt from every row of starts (m, k) at once.

    Each row keeps its own damping lam and stops on its own; rows share only
    array operations, so a start's path does not depend on the other rows in
    the batch. Per step, a parameter at a bound whose gradient points outward
    is frozen, the system (J'J + lam * D) step = -J'r is solved over the free
    ones, with D the running maximum of diag(J'J) (Moré 1978), and the trial
    point is clipped into [LOWER, UPPER]. A trial is accepted when its SSE is
    not higher. lam falls 10x when the trial gained more than 3/4 of the SSE
    decrease the linearized model predicts for the clipped step, and rises
    10x when it gained less than 1/4, so steps that overshoot a curved valley
    are damped instead of zig-zagging across it. Convergence is tested as
    stated in the module docstring.

    Returns the final (theta, sse, converged) of every row.
    """
    m, k = starts.shape
    lo, hi = np.array(LOWER[:k]), np.array(UPPER[:k])
    theta = starts.copy()
    r, jac, sse = _evaluate(theta, x, y)
    lam = np.full(m, 1e-3)
    scale = np.zeros((m, k))
    small_step = np.zeros(m, dtype=bool)
    rows = np.arange(m)  # start index of each row still being solved
    out_theta, out_sse = theta.copy(), sse.copy()
    converged = np.zeros(m, dtype=bool)
    for it in range(MAX_NFEV + 1):
        g = (jac @ r[:, :, None])[:, :, 0]
        frozen = ((theta <= lo) & (g > 0.0)) | ((theta >= hi) & (g < 0.0))
        g[frozen] = 0.0
        conv = small_step | (np.max(np.abs(g), axis=1) <= GTOL * np.maximum(1.0, sse))
        done = conv | (it == MAX_NFEV)
        if done.any():
            out_theta[rows[done]], out_sse[rows[done]] = theta[done], sse[done]
            converged[rows[done]] = conv[done]
            keep = ~done
            rows, theta, r, jac, sse = rows[keep], theta[keep], r[keep], jac[keep], sse[keep]
            lam, scale, g, frozen = lam[keep], scale[keep], g[keep], frozen[keep]
            if rows.size == 0:
                break
        hess = jac @ jac.transpose(0, 2, 1)
        scale = np.maximum(scale, np.einsum("ikk->ik", hess))
        d = np.sqrt(np.where(scale > 0.0, scale, 1.0))
        free = ~frozen
        system = hess / (d[:, :, None] * d[:, None, :])
        system *= free[:, :, None] & free[:, None, :]
        system[:, np.arange(k), np.arange(k)] += np.where(free, lam[:, None], 1.0)
        delta = np.linalg.solve(system, -(g / d)[:, :, None])[:, :, 0] / d
        trial = np.clip(theta + delta, lo, hi)
        move = trial - theta
        # SSE decrease the linearized model predicts for the clipped step
        predicted = -np.einsum("ij,ij->i", move, 2.0 * g + (hess @ move[:, :, None])[:, :, 0])
        r_t, jac_t, sse_t = _evaluate(trial, x, y)
        gain = np.divide(sse - sse_t, predicted, out=np.full(rows.size, -1.0), where=predicted > 0.0)
        lam = np.where(gain > 0.75, np.maximum(lam / 10.0, LAM_MIN),
                       np.where(gain >= 0.25, lam, lam * 10.0))
        ok = sse_t <= sse
        small_step = ok & (
            np.max(np.abs(move), axis=1) <= XTOL * (XTOL + np.max(np.abs(theta), axis=1))
        )
        theta[ok], r[ok], jac[ok], sse[ok] = trial[ok], r_t[ok], jac_t[ok], sse_t[ok]
    return out_theta, out_sse, converged


def _fit_hinge_family(x, y, cfg: FitConfig, participant_id: str, free_s: bool) -> FitResult:
    """Multi-start fit of y = beta * softplus((x - tau)/s); s = 1 unless free_s.

    The winner is the lowest-SSE converged start, or the lowest-SSE start
    overall (flagged converged=False) when none converged.
    """
    x, y = _check_data(x, y)
    model = "soft-hinge" if free_s else "hinge"
    k = _N_PARAMS[model]
    starts = np.array([
        _draw_start(start_rng(cfg.seed, participant_id, j))[:k]
        for j in range(cfg.n_starts)
    ])
    theta, sses, ok = _projected_lm(_check_domain(x), y, starts)
    j = int(np.argmin(np.where(ok, sses, np.inf))) if ok.any() else int(np.argmin(sses))
    params = SoftHingeParams(*theta[j]) if free_s else HingeParams(*theta[j])
    start_sse = float(_evaluate(starts[j:j + 1], x, y)[2][0])
    return _finish(model, params, x, y, bool(ok[j]), int(ok.sum()), j, start_sse, sses.tolist())


def fit_soft_hinge(
    x,
    y,
    cfg: FitConfig = FitConfig(),
    participant_id: str = "",
) -> FitResult:
    """Multi-start bounded least squares for y = beta * softplus((x - tau)/s)."""
    return _fit_hinge_family(x, y, cfg, participant_id, free_s=True)


def fit_hinge(
    x,
    y,
    cfg: FitConfig = FitConfig(),
    participant_id: str = "",
) -> FitResult:
    """Multi-start bounded least squares for y = beta * softplus(x - tau)."""
    return _fit_hinge_family(x, y, cfg, participant_id, free_s=False)


def fit_linear(x, y) -> FitResult:
    """Closed-form baseline: breakpoint = eye-only range, slope through origin."""
    x, y = _check_data(x, y)
    alpha = compute_eor(x, y)
    try:
        gamma = compute_ehr_slope(x, y, alpha)
    except TooFewPointsError:
        gamma = 0.0
    gamma = max(gamma, 0.0)
    result = _finish("linear", LinearParams(alpha, gamma), x, y, True, 1, 0, 0.0, [])
    result.start_sse = result.sse
    result.start_sses = [result.sse]
    return result


def compare_models(results: list[FitResult]) -> list[FitResult]:
    """Rank by AIC ascending; ties prefer fewer parameters, then lower RMSE.

    All candidates must have been fit on the same data (same digest).
    """
    if not results:
        raise EmptyDataError("no fits to compare")
    digests = {r.data_digest for r in results}
    if len(digests) != 1:
        raise MismatchedDataError(
            f"fits were computed on different data: {sorted(digests)}"
        )
    return sorted(results, key=lambda r: (r.aic, r.n_params, r.rmse))


@dataclass
class ParticipantFit:
    participant_id: str
    n_shifts: int
    fits: dict[str, FitResult]
    best_model: str

    @property
    def eor(self) -> float:
        return self.fits["linear"].params.alpha

    @property
    def ehr_slope(self) -> float:
        return self.fits["linear"].params.gamma


def fit_participant(
    x,
    y,
    participant_id: str,
    cfg: FitConfig = FitConfig(),
    models: tuple[str, ...] = MODELS,
) -> ParticipantFit:
    """Fit the requested candidate models to one participant's cleaned shifts."""
    x, y = _check_data(x, y)
    fitters = {
        "linear": lambda: fit_linear(x, y),
        "hinge": lambda: fit_hinge(x, y, cfg, participant_id),
        "soft-hinge": lambda: fit_soft_hinge(x, y, cfg, participant_id),
    }
    unknown = set(models) - set(fitters)
    if unknown:
        raise ValueError(f"unknown model kind(s): {sorted(unknown)}")
    fits = {name: fitters[name]() for name in models}
    best = compare_models(list(fits.values()))[0]
    return ParticipantFit(
        participant_id=participant_id,
        n_shifts=int(x.size),
        fits=fits,
        best_model=best.model,
    )
