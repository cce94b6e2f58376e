"""Per-participant model fits and AIC-based model comparison.

The soft hinge and the hinge are fit by the same solver: a projected
Levenberg-Marquardt loop (Moré 1978) that polishes the seeds of many fits at
once, each seed with its own damping and its own stopping test, and keeps
each fit's lowest-SSE result, converged or not. All problems of a stage are
solved together, in chunks of consecutive problems holding at most
BATCH_POINTS row-points (a problem larger than that is solved alone). A
seed's points sit back to back in flat arrays, and every per-seed sum is
taken over that seed's own segment, so a fit does not depend on the fits
batched beside it. The seeds come from a
fixed lattice and depend on the data alone: for a fixed (tau, s) the model is
linear in beta, so its best beta has a closed form (variable projection,
Golub & Pereyra 1973), and each s of S_ROW seeds the lattice tau of
TAU_GRID with the lowest SSE. The hinge is the soft hinge with s fixed at 1,
so it is solved over (beta, tau) only, from one seed. A seed converges when,
within MAX_NFEV steps, its projected-gradient max-norm falls to
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
    softplus,
)

# The seed lattice: knees over the whole search range, softness on a log
# scale from near-sharp to near-straight over the [0, 50] domain.
TAU_GRID = np.linspace(*TAU_RANGE, 31)
S_ROW = np.logspace(-1.0, 2.0, 10)
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
# Most row-points (seeds x data points) one batched solve advances at once.
# Each flat per-point array then holds at most 64 KiB, below glibc's default
# 128 KiB mmap threshold, so the solver's temporaries come from the heap
# instead of being mapped and faulted in afresh on every step.
BATCH_POINTS = 8192

_N_PARAMS = {"linear": 2, "hinge": 2, "soft-hinge": 3}
# Every candidate model, in the order fits are run and written.
MODELS = tuple(_N_PARAMS)


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
    # per-seed polished SSEs, in seed order (not serialized)
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
        start_sses=start_sses,
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


def _evaluate(theta: np.ndarray, x: np.ndarray, y: np.ndarray, sizes: np.ndarray,
              heads: np.ndarray):
    """Residuals, Jacobian columns and per-row SSEs of the rows of theta (m, k).

    A row is (beta, tau, s), or (beta, tau) for the hinge, whose s is 1. Row
    i owns sizes[i] points of x and y, from heads[i] on; each residual and
    Jacobian column is a flat array over all rows' points, and a row's SSE is
    the sum over its own segment.
    """
    k = theta.shape[1]
    beta, tau = np.repeat(theta[:, 0], sizes), np.repeat(theta[:, 1], sizes)
    s = np.repeat(theta[:, 2], sizes) if k == 3 else 1.0
    partials = soft_hinge_partials(beta, tau, s, x)
    r = beta * partials[0] - y
    return r, partials[:k], np.add.reduceat(r * r, heads)


def _projected_lm(x, y, sizes, starts: np.ndarray):
    """Projected Levenberg-Marquardt from every row of starts (m, k) at once.

    Row i owns sizes[i] points of the flat arrays x and y, right after the
    points of row i - 1, so rows may come from different problems. Every
    per-row sum (the SSE, J'r and J'J) is taken over the row's own segment
    alone, and the points of a row are dropped once it stops: a row's path
    does not depend on the other rows in the batch, nor on their number.
    Each row keeps its own damping lam and stops on its own. Per step, a
    parameter at a bound whose gradient points outward is frozen, the system
    (J'J + lam * D) step = -J'r is solved over the free ones, with D the
    running maximum of diag(J'J) (Moré 1978), and the trial point is
    clipped into [LOWER, UPPER]. A trial is accepted when its SSE is not
    higher. lam falls 10x when the trial gained more than 3/4 of the SSE
    decrease the linearized model predicts for the clipped step, and rises
    10x when it gained less than 1/4, so steps that overshoot a curved
    valley are damped instead of zig-zagging across it. Convergence is
    tested as stated in the module docstring.

    Returns the final (theta, sse, converged) of every row.
    """
    m, k = starts.shape
    lo, hi = np.array(LOWER[:k]), np.array(UPPER[:k])
    pairs = [(a, b) for a in range(k) for b in range(a, k)]
    sizes = np.asarray(sizes)
    heads = np.cumsum(sizes) - sizes  # first point of each row
    prod = np.empty_like(x)  # reused for the products each segment sum reduces
    theta = starts.copy()
    r, jac, sse = _evaluate(theta, x, y, sizes, heads)
    lam = np.full(m, 1e-3)
    scale = np.zeros((m, k))
    small_step = np.zeros(m, dtype=bool)
    rows = np.arange(m)  # start index of each row still being solved
    out_theta, out_sse = theta.copy(), sse.copy()
    converged = np.zeros(m, dtype=bool)
    for it in range(MAX_NFEV + 1):
        g = np.stack([np.add.reduceat(np.multiply(col, r, out=prod), heads) for col in jac],
                     axis=1)
        frozen = ((theta <= lo) & (g > 0.0)) | ((theta >= hi) & (g < 0.0))
        g[frozen] = 0.0
        conv = small_step | (np.max(np.abs(g), axis=1) <= GTOL * np.maximum(1.0, sse))
        done = conv | (it == MAX_NFEV)
        if done.any():
            out_theta[rows[done]], out_sse[rows[done]] = theta[done], sse[done]
            converged[rows[done]] = conv[done]
            keep = ~done
            points = np.repeat(keep, sizes)
            rows, theta, sse, sizes = rows[keep], theta[keep], sse[keep], sizes[keep]
            lam, scale, g, frozen = lam[keep], scale[keep], g[keep], frozen[keep]
            if rows.size == 0:
                break
            x, y, r, jac = x[points], y[points], r[points], [col[points] for col in jac]
            heads, prod = np.cumsum(sizes) - sizes, prod[:x.size]
        hess = np.empty((rows.size, k, k))
        for a, b in pairs:
            hess[:, a, b] = hess[:, b, a] = np.add.reduceat(
                np.multiply(jac[a], jac[b], out=prod), heads)
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
        r_t, jac_t, sse_t = _evaluate(trial, x, y, sizes, heads)
        gain = np.divide(sse - sse_t, predicted, out=np.full(rows.size, -1.0), where=predicted > 0.0)
        lam = np.where(gain > 0.75, np.maximum(lam / 10.0, LAM_MIN),
                       np.where(gain >= 0.25, lam, lam * 10.0))
        ok = sse_t <= sse
        small_step = ok & (
            np.max(np.abs(move), axis=1) <= XTOL * (XTOL + np.max(np.abs(theta), axis=1))
        )
        theta[ok], sse[ok] = trial[ok], sse_t[ok]
        if ok.all():
            r, jac = r_t, jac_t
        else:
            taken = np.repeat(ok, sizes)
            for old, new in zip((r, *jac), (r_t, *jac_t)):
                np.copyto(old, new, where=taken)
    return out_theta, out_sse, converged


def _lattice_seeds(x, y, s_row) -> np.ndarray:
    """One seed (beta, tau, s) per s in s_row, profiled over TAU_GRID.

    For each s the seed is the lattice tau of lowest SSE, with its best
    beta = clip(<f, y> / <f, f>, 0, 1), f = softplus((x - tau) / s). The
    lattice is evaluated one s at a time, as a (len(TAU_GRID), n) block.
    """
    seeds = np.empty((len(s_row), 3))
    for i, s in enumerate(s_row):
        f = softplus((x - TAU_GRID[:, None]) / s)
        ff = np.einsum("ij,ij->i", f, f)
        # a knee far right of the data can underflow f to zero: beta is then moot
        beta = np.clip(np.divide(f @ y, ff, out=np.zeros_like(ff), where=ff > 0.0), 0.0, 1.0)
        r = beta[:, None] * f - y
        j = int(np.argmin(np.einsum("ij,ij->i", r, r)))
        seeds[i] = beta[j], TAU_GRID[j], s
    return seeds


def _chunks(row_points: list[int]) -> list[list[int]]:
    """Consecutive runs of problem indices holding at most BATCH_POINTS row-points.

    A problem larger than the budget is a run of its own.
    """
    runs: list[list[int]] = []
    total = 0
    for i, n in enumerate(row_points):
        if runs and total + n <= BATCH_POINTS:
            runs[-1].append(i)
            total += n
        else:
            runs.append([i])
            total = n
    return runs


def _fit_hinge_family(problems, free_s: bool) -> list[FitResult]:
    """Fit y = beta * softplus((x - tau)/s) to each (x, y); s = 1 unless free_s.

    Every problem's lattice seeds are polished by one projected LM per chunk
    of consecutive problems (see _chunks). Per problem, the winner is the
    lowest-SSE polished seed, and converged is its own flag. Results come
    back in input order.
    """
    problems = [_check_data(x, y) for x, y in problems]
    problems = [(_check_domain(x), y) for x, y in problems]
    model = "soft-hinge" if free_s else "hinge"
    k = _N_PARAMS[model]
    s_row = S_ROW if free_s else (1.0,)
    m = len(s_row)  # seeds, and so solver rows, per problem
    seeds = [_lattice_seeds(x, y, s_row)[:, :k] for x, y in problems]
    results = []
    for run in _chunks([x.size * m for x, _ in problems]):
        flat_x = np.concatenate([np.tile(problems[i][0], m) for i in run])
        flat_y = np.concatenate([np.tile(problems[i][1], m) for i in run])
        sizes = np.repeat([problems[i][0].size for i in run], m)
        theta, sses, ok = _projected_lm(flat_x, flat_y, sizes, np.vstack([seeds[i] for i in run]))
        for pos, i in enumerate(run):
            rows = slice(pos * m, (pos + 1) * m)
            j = int(np.argmin(sses[rows]))
            params = SoftHingeParams(*theta[rows][j]) if free_s else HingeParams(*theta[rows][j])
            results.append(_finish(model, params, *problems[i], bool(ok[rows][j]),
                                   int(ok[rows].sum()), j, sses[rows].tolist()))
    return results


def fit_soft_hinge(x, y) -> FitResult:
    """Bounded least squares for y = beta * softplus((x - tau)/s)."""
    return _fit_hinge_family([(x, y)], free_s=True)[0]


def fit_hinge(x, y) -> FitResult:
    """Bounded least squares for y = beta * softplus(x - tau)."""
    return _fit_hinge_family([(x, y)], free_s=False)[0]


def fit_linear(x, y) -> FitResult:
    """Closed-form baseline: breakpoint = eye-only range, slope through origin."""
    x, y = _check_data(x, y)
    alpha = compute_eor(x, y)
    try:
        gamma = compute_ehr_slope(x, y, alpha)
    except TooFewPointsError:
        gamma = 0.0
    gamma = max(gamma, 0.0)
    result = _finish("linear", LinearParams(alpha, gamma), x, y, True, 1, 0, [])
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
    n_shifts: int
    fits: dict[str, FitResult]
    best_model: str


def fit_participants(problems, models: tuple[str, ...] = MODELS) -> list[ParticipantFit]:
    """Fit the requested candidate models to each participant's (x, y) shifts.

    Each hinge-family model is fit to all participants in one batched call;
    results come back in input order.
    """
    unknown = set(models) - set(MODELS)
    if unknown:
        raise ValueError(f"unknown model kind(s): {sorted(unknown)}")
    problems = [_check_data(x, y) for x, y in problems]
    fits = {
        name: [fit_linear(x, y) for x, y in problems] if name == "linear"
        else _fit_hinge_family(problems, free_s=name == "soft-hinge")
        for name in models
    }
    out = []
    for i, (x, _) in enumerate(problems):
        own = {name: fits[name][i] for name in models}
        best = compare_models(list(own.values()))[0]
        out.append(ParticipantFit(n_shifts=int(x.size), fits=own, best_model=best.model))
    return out


def fit_participant(x, y, models: tuple[str, ...] = MODELS) -> ParticipantFit:
    """Fit the requested candidate models to one participant's cleaned shifts."""
    return fit_participants([(x, y)], models)[0]
