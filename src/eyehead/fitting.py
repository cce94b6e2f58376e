"""Per-participant model fits and AIC-based model comparison.

The hinge is the soft hinge y = beta * softplus((x - tau) / s) with s pinned
at 1, so one solver fits both. For fixed (tau, s) the curve is linear in
beta, so beta has a closed form, clip(<f, y> / <f, f>, 0, 1) with
f = softplus((x - tau) / s) (variable projection, Golub & Pereyra 1973):
both models are solved over (tau, s), the hinge with s frozen, with Kaufman's
(1975) Jacobian, and beta follows at every step. A clipped beta is an active
bound with zero derivative.

Both models share one seed lattice per problem, and the seeds depend on the
data alone: each (s, tau) point of S_ROW x TAU_GRID gets its best beta. The
soft hinge is seeded at the lowest knee of each s, the hinge at the local
minima of the s = 1 row along TAU_GRID, at most HINGE_KNEES, lowest first.
The seeds of all problems and both models of a stage are polished in one
projected Levenberg-Marquardt batch (Moré 1978), each seed with its own
damping and its own stopping test; every per-seed sum is taken over that
seed's own points, so a fit does not depend on the fits batched beside it.
A head contribution cannot outgrow the gaze shift, so a soft-hinge seed
that stops on a curve of slope beta / s > 1 is polished on from its start
knee as a hinge, s pinned at 1: every polished seed has beta <= s, and the
soft hinge still fits no worse than the hinge it nests. Each fit keeps its
lowest-SSE polished seed, converged or not. A seed converges when, within
MAX_NFEV steps, its projected-gradient max-norm falls to
GTOL * max(1, SSE) or an accepted step shrinks to XTOL * (XTOL + |theta|);
the step test reads the parameters that are not pinned, so theta is the
hinge's tau alone. A fit with no more data points than parameters is never
flagged converged.

The linear baseline has no free parameters to optimize, since its breakpoint
is the participant's eye-only range and its slope is computed in closed form.
All three candidates are then ranked by AIC on identical data.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter

import numpy as np

from .errors import EmptyDataError, MismatchedDataError, TooFewPointsError
from .models import (
    MODELS,
    S_MIN,
    TAU_RANGE,
    LinearParams,
    ModelParams,
    _check_domain,
    compute_ehr_slope,
    compute_eor,
    eval_model,
    hinge_gradient,  # unused here; the benchmark tracer wraps fitting.hinge_gradient
    is_number,
    model_gradient,  # likewise unused: the solver forms its own partials (_evaluate)
    params_to_dict,
    softplus,
)

# The seed lattice: knees over the whole search range, softness on a log
# scale from near-sharp to near-straight over the [0, 50] domain.
TAU_GRID = np.linspace(*TAU_RANGE, 31)
S_ROW = np.logspace(-1.0, 2.0, 10)
# Most knees the hinge is seeded at: the lowest local minima of its profile.
HINGE_KNEES = 3
# The hinge's row of the lattice: S_ROW[3] is 1.0 exactly.
_HINGE_ROW = 3
# Bounds on (beta, tau, s), and the solver's stopping rules.
LOWER = (0.0, TAU_RANGE[0], S_MIN)
UPPER = (1.0, TAU_RANGE[1], np.inf)
MAX_NFEV = 200
GTOL = 1e-8
XTOL = 1e-10
# Floor on the solver's damping, relative to its scaled system's unit
# diagonal: keeps that system nonsingular where two Jacobian columns are
# collinear to rounding, as where the soft hinge is nearly a straight line.
LAM_MIN = 1e-12
# Rows per data point of the work buffer _evaluate lays out: e, f, ds, then
# three rows that hold u and s until ds is formed and the products after.
WORK_ROWS = 6
# Most row-points (seeds x data points) the batched solver holds live at once;
# a larger seed runs alone. The solver's per-point arrays are views into one
# buffer allocated per call. Against 8192, the benchmark's fits take 22-39%
# fewer steps, its fit_s falls 6-12% and its peak RSS rises 0.3-1.2% (seeds
# 101 and 102, 2-vCPU x86-64 host); 32768 cut the study fit_s no further and
# raised its peak RSS by 6.2%.
BATCH_POINTS = 16384
# Most values per block of the seed lattice (64 KiB), below glibc's default
# 128 KiB mmap threshold, so no temporary is mapped and faulted in afresh on
# every block.
LATTICE_BLOCK = 8192


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
    # per-seed polished SSEs, in seed order (not serialized)
    start_sses: list[float] = field(default_factory=list, repr=False)


# The fits.json row, one field each, in the order report.read_fit_rows checks
# them: key -> (what its JSON value must be, the check of that value, how it is
# read off a FitResult). participant_id's value comes from the caller.
FIT_ROW = {
    "participant_id": ("a string", lambda v: isinstance(v, str), None),
    "model": (f"one of {list(MODELS)}", lambda v: isinstance(v, str) and v in MODELS,
              attrgetter("model")),
    "params": ("an object", lambda v: isinstance(v, dict), lambda fit: params_to_dict(fit.params)),
    "sse": ("a finite number >= 0", lambda v: is_number(v) and v >= 0, attrgetter("sse")),
    **{key: ("a finite number or null", lambda v: v is None or is_number(v), attrgetter(key))
       for key in ("r2", "rmse", "aic")},
    "n_points": ("an integer >= 1", lambda v: is_number(v) and isinstance(v, int) and v >= 1,
                 attrgetter("n_points")),
    "converged": ("true or false", lambda v: isinstance(v, bool), attrgetter("converged")),
}


def fit_row(participant_id: str, fit: FitResult) -> dict:
    """The fits.json row of participant_id's fit, one FIT_ROW field each."""
    return {key: participant_id if read is None else read(fit)
            for key, (_, _, read) in FIT_ROW.items()}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def aic_gaussian(sse: float, n: int, k: int) -> float:
    """AIC for Gaussian residuals up to a constant: n*ln(SSE/n) + 2k.

    SSE/n is floored at a tiny positive value so an exact fit gives a very
    negative AIC instead of -inf.
    """
    mean_sq = max(sse / n, 1e-300)
    return float(n * np.log(mean_sq) + 2 * k)


def _finish(
    model: str,
    params: ModelParams,
    x: np.ndarray,
    y: np.ndarray,
    converged: bool,
    n_converged: int,
    start_index: int,
    start_sses: list[float] | None,
) -> FitResult:
    """The FitResult of params on (x, y), which _check_data has passed.

    Its sse is that of the residuals eval_model(params, x) - y, and its r2 is
    nan when var(y) = 0. start_sses None means the fit is its only start.
    """
    k = len(fields(params))
    n = int(x.size)
    r = eval_model(params, x) - y
    sse = float(np.dot(r, r))
    tss = float(np.sum((y - y.mean()) ** 2))
    return FitResult(
        model=model,
        params=params,
        sse=sse,
        rmse=float(np.sqrt(sse / n)),
        r2=1.0 - sse / tss if tss > 0.0 else float("nan"),
        aic=aic_gaussian(sse, n, k),
        n_points=n,
        n_params=k,
        # with n <= k points the curve interpolates them: nothing is identified
        converged=converged and n > k,
        n_converged=n_converged,
        start_index=start_index,
        start_sses=[sse] if start_sses is None else start_sses,
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
              heads: np.ndarray, owner: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Rows (beta, SSE, J'r, J'J as h00, h01, h11) of the (tau, s) columns of theta (2, m).

    Column i owns sizes[i] points of x and y, from heads[i] on (owner maps
    each point to its column), and each of its sums is taken over that
    segment alone. With f = softplus((x - tau) / s), its beta =
    clip(<f, y> / <f, f>, 0, 1) and its residuals are beta * f - y. J is
    Kaufman's (1975) Jacobian of those residuals: the columns
    beta * df/dtheta, projected off f while beta is inside (0, 1); a clipped
    beta adds nothing. The products of f, its partials and y are formed
    three at a time in the rows u and s held, each three reduced in one
    reduceat, and every per-point array is a view into work.
    """
    m = theta.shape[1]
    n = x.size
    block = work[:WORK_ROWS * n].reshape(-1, n)
    e, f, ds, u, tmp = block[:5]
    stack = block[3:]
    # owner holds valid indices only, and take with mode="raise" would buffer out
    np.take(theta[0], owner, out=u, mode="clip")
    np.subtract(x, u, out=u)
    np.take(theta[1], owner, out=tmp, mode="clip")
    np.divide(u, tmp, out=u)
    # softplus(u) = max(u, 0) + log1p(exp(-|u|)) and the logistic
    # sigma(u) = exp(min(u, 0)) / (1 + exp(-|u|)), neither of which overflows
    np.abs(u, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.log1p(e, out=f)
    f += np.maximum(u, 0.0, out=ds)
    e += 1.0
    np.minimum(u, 0.0, out=ds)
    np.exp(ds, out=ds)
    np.divide(ds, e, out=e)
    # e becomes -df/dtau = sigma / s, and ds -df/ds = u * sigma / s; u and s are then dead
    np.divide(e, tmp, out=e)
    np.multiply(u, e, out=ds)
    sums = []
    for triple in (((f, f), (f, e), (f, ds)), ((e, e), (e, ds), (ds, ds)),
                   ((f, y), (e, y), (ds, y))):
        for row, (a, b) in enumerate(triple):
            np.multiply(a, b, out=stack[row])
        sums.extend(np.add.reduceat(stack, heads, axis=1))
    ff, fe, fd, ee, ed, dd, fy, ey, dy = sums
    # a knee far right of the data can underflow f to zero: beta is then moot
    raw = np.divide(fy, ff, out=np.zeros(m), where=ff > 0.0)
    beta = np.minimum(np.maximum(raw, 0.0), 1.0)
    np.take(beta, owner, out=tmp, mode="clip")
    np.multiply(tmp, f, out=tmp)
    np.subtract(tmp, y, out=tmp)
    np.multiply(tmp, tmp, out=tmp)
    sse = np.add.reduceat(tmp, heads)
    # J'r = beta * <df/dtheta, r>: the beta term drops, as <f, r> = 0 or beta is clipped
    inside = (raw > 0.0) & (raw < 1.0)
    pe = np.divide(fe, ff, out=np.zeros(m), where=inside)
    pd = np.divide(fd, ff, out=np.zeros(m), where=inside)
    b2 = beta * beta
    return np.stack([beta, sse, beta * (ey - beta * fe), beta * (dy - beta * fd),
                     b2 * (ee - pe * fe), b2 * (ed - pe * fd), b2 * (dd - pd * fd)])


def _damped_step(hess: np.ndarray, g: np.ndarray, scale: np.ndarray, lam: np.ndarray,
                 free: np.ndarray) -> np.ndarray:
    """The step of (J'J + lam * D) step = -J'r over the free parameters of each column.

    hess holds the rows (h00, h01, h11) of each column's J'J, g its J'r and
    scale D, the running maximum of diag(J'J) (Moré 1978); lam and free are
    the column's damping and free parameters. The system is scaled to a unit
    diagonal by D; a frozen parameter gets a zero off-diagonal, a unit
    diagonal and a zero right-hand side, so its step is exactly 0. The 2x2
    system is solved by Cramer's rule, forward stable for n = 2 (Higham 2002).
    """
    d = np.sqrt(np.where(scale > 0.0, scale, 1.0))
    a = np.where(free[0], hess[0] / (d[0] * d[0]) + lam, 1.0)
    c = np.where(free[1], hess[2] / (d[1] * d[1]) + lam, 1.0)
    b = np.where(free[0] & free[1], hess[1] / (d[0] * d[1]), 0.0)
    r = np.where(free, -g / d, 0.0)
    det = a * c - b * b
    return np.stack([(r[0] * c - b * r[1]) / det, (a * r[1] - b * r[0]) / det]) / d


def _projected_lm(rows, starts: np.ndarray, pinned: np.ndarray):
    """Projected Levenberg-Marquardt over (tau, s) from every row of starts (m, 2).

    Row i is solved on the points (x, y) = rows[i], so rows may come from
    different problems and models; where pinned[i], its s is held at its
    start. Rows are admitted in input order while they fit in BATCH_POINTS
    live row-points (a larger row runs alone), and a row that stops frees its
    points for the next rows within the same step. A row's sums are taken
    over its own segment alone, so its path does not depend on the rows
    beside it.

    A free row that stops with beta > s, a curve steeper than the gaze
    shift, goes on in place from its start's tau with s pinned at 1, its
    damping and step count reset; its result is where that run stops.

    Per step and row, a pinned parameter, and one at a bound whose gradient
    points outward, is frozen; the damped system is solved over the free
    ones (_damped_step), and the trial point is clipped into the bounds and
    accepted when its SSE is not higher. lam falls 10x when the trial gained
    more than 3/4 of the SSE decrease the linearized model predicts for the
    clipped step, and rises 10x when it gained less than 1/4, so steps that
    overshoot a curved valley are damped instead of zig-zagging across it.

    Returns the final (params, sse, converged) of every row, params being
    (beta, tau, s) in [LOWER, UPPER].
    """
    m = starts.shape[0]
    lo, hi = np.array(LOWER[1:])[:, None], np.array(UPPER[1:])[:, None]
    row_sizes = np.array([x.size for x, _ in rows], dtype=np.intp)
    out = np.empty((5, m))  # beta, tau, s, sse and converged of every row
    cap = min(max(BATCH_POINTS, int(row_sizes.max(initial=0))), int(row_sizes.sum()))
    # the live rows' points as (x, y), and a second copy to compact them into
    flat = np.empty((2, 2, cap))
    points = 0
    work = np.empty(WORK_ROWS * cap)
    # The live rows' state, a column per row in admission order: beta, tau,
    # s, SSE, J'r (2), J'J (h00, h01, h11), then what init starts: diag(J'J)'s
    # running maximum (2), lam, the step count, whether the last accepted
    # step was small, whether s is pinned, and the row's input index.
    init = np.zeros((7, m))
    init[2], init[5], init[6] = 1e-3, pinned, np.arange(m)
    state = np.empty((16, 0))
    admitted = 0
    while True:
        theta, g_at = state[1:3], state[4:6]
        frozen = ((theta <= lo) & (g_at > 0.0)) | ((theta >= hi) & (g_at < 0.0))
        frozen[1] |= state[14] == 1.0
        g = np.where(frozen, 0.0, g_at)
        conv = (state[13] == 1.0) | (
            np.maximum(np.abs(g[0]), np.abs(g[1])) <= GTOL * np.maximum(1.0, state[3]))
        done = conv | (state[12] == MAX_NFEV)
        # a free row that stops steeper than the gaze shift (beta > s) goes on
        # from its start knee as a hinge, s pinned at 1
        again = done & (state[14] == 0.0) & (state[0] > state[2])
        done &= ~again
        changed = done.any()
        if changed:
            index = state[15, done].astype(np.intp)
            out[:4, index], out[4, index] = state[:4, done], conv[done]
            keep = ~done
            state, g, frozen, again = state[:, keep], g[:, keep], frozen[:, keep], again[keep]
            before, points = points, int(row_sizes[state[15].astype(np.intp)].sum())
            np.compress(keep[owner], flat[0, :, :before], axis=1, out=flat[1, :, :points])
            flat = flat[::-1]
        # admit the next rows while they fit; a row larger than the budget runs alone
        room = BATCH_POINTS - points
        first = admitted
        alone = state.shape[1] == 0  # the first row admitted into an empty batch always fits
        while admitted < m and (row_sizes[admitted] <= room or (alone and admitted == first)):
            room -= row_sizes[admitted]
            admitted += 1
        new = np.arange(first, admitted)
        if alone and new.size == 0:
            break
        for i in new:
            end = points + row_sizes[i]
            flat[0, 0, points:end], flat[0, 1, points:end] = rows[i]
            points = end
        if changed or new.size:
            sizes = row_sizes[np.concatenate([state[15].astype(np.intp), new])]
            heads = np.cumsum(sizes) - sizes  # first point of each row
            owner = np.repeat(np.arange(sizes.size), sizes)  # the row of each point
            x, y = flat[0, :, :points]
        theta, sse, hess, scale, lam = state[1:3], state[3], state[6:9], state[9:11], state[11]
        np.maximum(scale, hess[::2], out=scale)
        trial = np.minimum(np.maximum(theta + _damped_step(hess, g, scale, lam, ~frozen), lo), hi)
        trial[0, again], trial[1, again] = starts[state[15, again].astype(np.intp), 0], 1.0
        move = trial - theta
        # SSE decrease the linearized model predicts for the clipped step
        h00, h01, h11 = hess
        predicted = -(move[0] * (2.0 * g[0] + (h00 * move[0] + h01 * move[1]))
                      + move[1] * (2.0 * g[1] + (h01 * move[0] + h11 * move[1])))
        # the trials of the live rows and the starts of the new rows, in one pass
        found = _evaluate(np.concatenate([trial, starts[new].T], axis=1), x, y, sizes, heads,
                          owner, work)
        n = state.shape[1]
        sse_t = found[1, :n]
        gain = np.divide(sse - sse_t, predicted, out=np.full(n, -1.0), where=predicted > 0.0)
        state[11] = np.where(gain > 0.75, np.maximum(lam / 10.0, LAM_MIN),
                             np.where(gain >= 0.25, lam, lam * 10.0))
        ok = (sse_t <= sse) | again
        # a pinned s is no parameter: it is left out of the step test
        size = np.maximum(np.abs(theta[0]), np.where(state[14] == 1.0, 0.0, np.abs(theta[1])))
        state[13] = ok & (np.maximum(np.abs(move[0]), np.abs(move[1])) <= XTOL * (XTOL + size))
        np.copyto(state[:9], np.concatenate([found[:1, :n], trial, found[1:, :n]]), where=ok)
        state[12] += 1
        # a row that goes on restarts as init started it, now with s pinned
        state[9:14, again] = init[:5, state[15, again].astype(np.intp)]
        state[14, again] = 1.0
        if new.size:
            fresh = np.concatenate([found[:1, n:], starts[new].T, found[1:, n:], init[:, new]])
            state = np.concatenate([state, fresh], axis=1)
    return out[:3].T, out[3], out[4] == 1.0


def _lattice_seeds(x, y, models) -> dict[str, np.ndarray]:
    """Seeds (beta, tau, s) of each hinge-family model in models, from one lattice.

    Every knee of TAU_GRID, for each s of S_ROW, gets its best beta =
    clip(<f, y> / <f, f>, 0, 1), with f = softplus((x - tau) / s), and the
    seeds are chosen as the module docstring states; a hinge-only fit
    evaluates the whole lattice too. The lattice is evaluated in blocks of
    at most LATTICE_BLOCK values, so its temporaries stay below glibc's mmap
    threshold.
    """
    lattice = np.empty((S_ROW.size, TAU_GRID.size, 3))  # (beta, tau, s) of each point
    lattice[:, :, 1] = TAU_GRID
    lattice[:, :, 2] = S_ROW[:, None]
    flat = lattice.reshape(-1, 3)
    sse = np.empty(flat.shape[0])
    block = max(1, LATTICE_BLOCK // x.size)  # lattice points per block
    for i in range(0, sse.size, block):
        cut = flat[i:i + block]
        f = softplus((x - cut[:, 1:2]) / cut[:, 2:3])
        ff = np.einsum("ij,ij->i", f, f)
        # a knee far right of the data can underflow f to zero: beta is then moot
        beta = np.divide(f @ y, ff, out=np.zeros_like(ff), where=ff > 0.0)
        cut[:, 0] = beta = np.minimum(np.maximum(beta, 0.0), 1.0)
        r = beta[:, None] * f - y
        sse[i:i + block] = np.einsum("ij,ij->i", r, r)
    sse = sse.reshape(S_ROW.size, TAU_GRID.size)
    seeds = {}
    if "soft-hinge" in models:
        seeds["soft-hinge"] = lattice[np.arange(S_ROW.size), np.argmin(sse, axis=1)]
    if "hinge" in models:
        profile = sse[_HINGE_ROW]
        minimum = np.ones(profile.size, dtype=bool)  # local minima along TAU_GRID
        minimum[1:] = profile[1:] < profile[:-1]
        minimum[:-1] &= profile[:-1] <= profile[1:]
        ranked = np.argsort(np.where(minimum, profile, np.inf), kind="stable")[:HINGE_KNEES]
        seeds["hinge"] = lattice[_HINGE_ROW, ranked[minimum[ranked]]]
    return seeds


def _fit_hinge_family(problems, models) -> dict[str, list[FitResult]]:
    """Fit each hinge-family model in models to each (x, y) in one _projected_lm batch.

    The hinge's seeds are polished with s pinned at 1. Per problem and
    model, the winner is the lowest-SSE polished seed, and converged is its
    own flag. Each model's results come back in input order. Every (x, y)
    must have passed _check_data already, as fit_participants sees to.
    """
    problems = [(_check_domain(x), y) for x, y in problems]
    blocks = [(p, model, seeds) for p in problems
              for model, seeds in _lattice_seeds(*p, models).items()]
    starts = np.vstack([seeds[:, 1:] for *_, seeds in blocks] + [np.empty((0, 2))])
    pinned = np.array([model == "hinge" for _, model, seeds in blocks for _ in seeds], dtype=bool)
    params, sses, ok = _projected_lm([p for p, _, seeds in blocks for _ in seeds], starts, pinned)
    fits = {model: [] for model in models}
    end = 0
    for (x, y), model, seeds in blocks:
        rows = slice(end, end := end + len(seeds))
        j = int(np.argmin(sses[rows]))
        # each class's fields lead the solver's (beta, tau, s)
        best = MODELS[model](*params[rows][j, :len(fields(MODELS[model]))])
        fits[model].append(_finish(model, best, x, y, bool(ok[rows][j]),
                                   int(ok[rows].sum()), j, sses[rows].tolist()))
    return fits


def fit_soft_hinge(x, y) -> FitResult:
    """Bounded least squares for y = beta * softplus((x - tau)/s)."""
    return fit_participant(x, y, ("soft-hinge",)).fits["soft-hinge"]


def fit_hinge(x, y) -> FitResult:
    """Bounded least squares for y = beta * softplus(x - tau)."""
    return fit_participant(x, y, ("hinge",)).fits["hinge"]


def fit_linear(x, y) -> FitResult:
    """Closed-form baseline: breakpoint = eye-only range, slope through origin."""
    x, y = _check_data(x, y)
    alpha = compute_eor(x, y)
    try:
        gamma = compute_ehr_slope(x, y, alpha)
    except TooFewPointsError:
        gamma = 0.0
    gamma = max(gamma, 0.0)
    return _finish("linear", LinearParams(alpha, gamma), x, y, True, 1, 0, None)


def compare_models(results: list[FitResult]) -> list[FitResult]:
    """Rank by AIC ascending; ties prefer fewer parameters, then lower RMSE."""
    if not results:
        raise EmptyDataError("no fits to compare")
    return sorted(results, key=lambda r: (r.aic, r.n_params, r.rmse))


@dataclass
class ParticipantFit:
    fits: dict[str, FitResult]
    best_model: str


def fit_participants(problems, models: tuple[str, ...] = tuple(MODELS)) -> list[ParticipantFit]:
    """Fit the requested candidate models to each participant's (x, y) shifts.

    The hinge and the soft hinge are fit to all participants in one solver
    batch; results come back in input order.
    """
    unknown = set(models) - set(MODELS)
    if unknown:
        raise ValueError(f"unknown model kind(s): {sorted(unknown)}")
    problems = [_check_data(x, y) for x, y in problems]
    family = tuple(m for m in models if m != "linear")
    fits = _fit_hinge_family(problems, family) if family else {}
    if "linear" in models:
        fits["linear"] = [fit_linear(x, y) for x, y in problems]
    out = []
    for i in range(len(problems)):
        own = {name: fits[name][i] for name in models}
        best = compare_models(list(own.values()))[0]
        out.append(ParticipantFit(fits=own, best_model=best.model))
    return out


def fit_participant(x, y, models: tuple[str, ...] = tuple(MODELS)) -> ParticipantFit:
    """Fit the requested candidate models to one participant's cleaned shifts."""
    return fit_participants([(x, y)], models)[0]
