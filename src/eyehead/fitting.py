"""Per-participant model fits and AIC-based model comparison.

The soft hinge y = beta * softplus((x - tau) / s) and the hinge, its s = 1
case, are fit by one solver. For fixed (tau, s) the curve is linear in beta,
so beta has a closed form, clip(<f, y> / <f, f>, 0, 1) with
f = softplus((x - tau) / s) (variable projection, Golub & Pereyra 1973):
the soft hinge is solved over (tau, s) and the hinge over tau alone, with
Kaufman's (1975) Jacobian, and beta follows at every step. A clipped beta is
an active bound with zero derivative.

The solver is a projected Levenberg-Marquardt loop (Moré 1978) that polishes
the seeds of all problems of a stage in one batch, each seed with its own
damping and its own stopping test. Seeds are admitted in input order while
they fit in BATCH_POINTS live row-points (a larger one runs alone), and each
seed that stops frees its points for the next ones. A seed's points sit back
to back in flat arrays, and every per-seed sum is taken over that seed's own
segment, so a fit does not depend on the fits batched beside it.

The seeds come from a fixed lattice and depend on the data alone: each lattice
knee of TAU_GRID gets its best beta, and the seeds are the local minima of
that profiled SSE along TAU_GRID. The soft hinge is seeded at the lowest one
for each s of S_ROW, the hinge at up to HINGE_KNEES of them, lowest first.
Each fit keeps its lowest-SSE polished seed, converged or not. A seed
converges when, within MAX_NFEV steps, its projected-gradient max-norm falls
to GTOL * max(1, SSE) or an accepted step shrinks to XTOL * (XTOL + |theta|),
theta being (tau, s) or tau. A fit with no more data points than parameters
is never flagged converged.

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
    model_gradient,  # likewise: the solver forms its own partials (_evaluate)
    params_from_dict,
    params_to_dict,
    softplus,
)

# The seed lattice: knees over the whole search range, softness on a log
# scale from near-sharp to near-straight over the [0, 50] domain.
TAU_GRID = np.linspace(*TAU_RANGE, 31)
S_ROW = np.logspace(-1.0, 2.0, 10)
# Most knees the hinge is seeded at: the lowest local minima of its profile.
HINGE_KNEES = 3
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
# Most row-points (seeds x data points) the batched solver holds live at once;
# a larger seed runs alone. The solver's per-point arrays are views into one
# buffer allocated per call, and each block of the seed lattice holds at most
# this many values (64 KiB), below glibc's default 128 KiB mmap threshold, so
# no temporary is mapped and faulted in afresh on every step.
BATCH_POINTS = 8192

_N_PARAMS = {"linear": 2, "hinge": 2, "soft-hinge": 3}
# (row, column) of each upper-triangle entry of the Gram matrix of f and its
# k partials, for the hinge (k = 1) and the soft hinge (k = 2)
_GRAM_PAIRS = {k: np.triu_indices(k + 1) for k in (1, 2)}
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
              heads: np.ndarray, owner: np.ndarray, work: np.ndarray):
    """Projected beta, SSE, J'r and J'J of the rows of theta (m, k) on their points.

    A row is (tau, s), or (tau,) for the hinge, whose s is 1. Row i owns
    sizes[i] points of x and y, from heads[i] on (owner maps each point to
    its row), and each of its sums is taken over that segment alone. With
    f = softplus((x - tau) / s), the row's beta = clip(<f, y> / <f, f>, 0, 1)
    and its residuals are beta * f - y. J is Kaufman's (1975) Jacobian of
    those residuals: the columns beta * df/dtheta, projected off f while
    beta is inside (0, 1); a clipped beta is a bound and adds nothing. The
    products of f, its partials and y are reduced in one stacked reduceat,
    and every per-point array is a view into work.
    """
    m, k = theta.shape
    n = x.size
    cols = k + 1  # f and its k partials
    rows = _GRAM_PAIRS[k]
    block = work[:(5 + rows[0].size + cols) * n].reshape(-1, n)  # 5 partials, then products
    u, e, tmp, f, ds = block[:5]
    stack = block[5:]
    # owner holds valid indices only, and take with mode="raise" would buffer out
    np.take(theta[:, 0], owner, out=u, mode="clip")
    np.subtract(x, u, out=u)
    if k == 2:
        np.take(theta[:, 1], owner, out=tmp, mode="clip")
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
    # e becomes -df/dtau = sigma / s, and ds -df/ds = u * sigma / s
    if k == 2:
        np.divide(e, tmp, out=e)
        np.multiply(u, e, out=ds)
    factors = (f, e, ds)[:cols]
    for row, (a, b) in enumerate(zip(*rows)):
        np.multiply(factors[a], factors[b], out=stack[row])
    for row, fac in enumerate(factors, rows[0].size):
        np.multiply(fac, y, out=stack[row])
    sums = np.add.reduceat(stack, heads, axis=1).T
    gram = np.empty((m, cols, cols))
    gram[:, rows[0], rows[1]] = gram[:, rows[1], rows[0]] = sums[:, :rows[0].size]
    fy = sums[:, rows[0].size:]  # <f, y> and <-df/dtheta, y>
    ff = gram[:, 0, 0]
    # a knee far right of the data can underflow f to zero: beta is then moot
    raw = np.divide(fy[:, 0], ff, out=np.zeros(m), where=ff > 0.0)
    beta = np.minimum(np.maximum(raw, 0.0), 1.0)
    np.take(beta, owner, out=tmp, mode="clip")
    np.multiply(tmp, f, out=tmp)
    np.subtract(tmp, y, out=tmp)
    np.multiply(tmp, tmp, out=tmp)
    sse = np.add.reduceat(tmp, heads)
    # J'r = beta * <df/dtheta, r>: the beta term drops, as <f, r> = 0 or beta is clipped
    cross = gram[:, 0, 1:]
    g = beta[:, None] * (fy[:, 1:] - beta[:, None] * cross)
    inside = (raw > 0.0) & (raw < 1.0)
    proj = np.divide(cross, ff[:, None], out=np.zeros((m, k)), where=inside[:, None])
    hess = beta[:, None, None] ** 2 * (gram[:, 1:, 1:] - proj[:, :, None] * cross[:, None, :])
    return beta, sse, g, hess


def _projected_lm(rows, starts: np.ndarray):
    """Projected Levenberg-Marquardt over (tau, s), or tau, from every row of starts (m, k).

    Row i is solved on the points (x, y) = rows[i], so rows may come from
    different problems; beta is projected out at every step (_evaluate).
    Rows are admitted in input order, as many at a time as fit in
    BATCH_POINTS live row-points (a larger row runs alone), and a row that
    stops frees its points for the next rows within the same step. Every
    per-row sum is taken over the row's own segment alone, so a row's path
    does not depend on the other rows in the batch, nor on their number.
    The per-point arrays live in one buffer allocated per call.

    Each row keeps its own damping lam and stops on its own. Per step, a
    parameter at a bound whose gradient points outward is frozen, the system
    (J'J + lam * D) step = -J'r is solved over the free ones, with D the
    running maximum of diag(J'J) (Moré 1978), and the trial point is
    clipped into the bounds. A trial is accepted when its SSE is not
    higher. lam falls 10x when the trial gained more than 3/4 of the SSE
    decrease the linearized model predicts for the clipped step, and rises
    10x when it gained less than 1/4, so steps that overshoot a curved
    valley are damped instead of zig-zagging across it. Convergence is
    tested as stated in the module docstring.

    Returns the final (params, sse, converged) of every row, params being
    (beta, tau, s), or (beta, tau), in [LOWER, UPPER].
    """
    m, k = starts.shape
    lo, hi = np.array(LOWER[1:k + 1]), np.array(UPPER[1:k + 1])
    row_sizes = np.array([x.size for x, _ in rows], dtype=np.intp)
    out_params, out_sse = np.empty((m, k + 1)), np.empty(m)
    converged = np.zeros(m, dtype=bool)
    cap = min(max(BATCH_POINTS, int(row_sizes.max(initial=0))), int(row_sizes.sum()))
    # the live rows' points as (x, y), and a second copy to compact them into
    flat = np.empty((2, 2, cap))
    points = 0
    work = np.empty((5 + _GRAM_PAIRS[k][0].size + k + 1) * cap)  # as _evaluate lays it out
    # the state of the live rows, in admission order
    live = np.empty(0, dtype=np.intp)
    theta, beta, sse, g_at = np.empty((0, k)), np.empty(0), np.empty(0), np.empty((0, k))
    hess, scale, lam = np.empty((0, k, k)), np.empty((0, k)), np.empty(0)
    small_step, age = np.empty(0, dtype=bool), np.empty(0, dtype=np.intp)
    admitted = 0
    while True:
        frozen = ((theta <= lo) & (g_at > 0.0)) | ((theta >= hi) & (g_at < 0.0))
        g = np.where(frozen, 0.0, g_at)
        conv = small_step | (np.maximum.reduce(np.abs(g), axis=1) <= GTOL * np.maximum(1.0, sse))
        done = conv | (age == MAX_NFEV)
        changed = done.any()
        if changed:
            stop = live[done]
            out_params[stop, 0], out_params[stop, 1:] = beta[done], theta[done]
            out_sse[stop], converged[stop] = sse[done], conv[done]
            keep = ~done
            live, theta, beta, sse = live[keep], theta[keep], beta[keep], sse[keep]
            g_at, g, hess, scale, lam = g_at[keep], g[keep], hess[keep], scale[keep], lam[keep]
            small_step, age, frozen = small_step[keep], age[keep], frozen[keep]
            before, points = points, int(row_sizes[live].sum())
            np.compress(keep[owner], flat[0, :, :before], axis=1, out=flat[1, :, :points])
            flat = flat[::-1]
        # admit the next rows while they fit; a row larger than the budget runs alone
        room = BATCH_POINTS - int(row_sizes[live].sum())
        first = admitted
        alone = live.size == 0  # the first row admitted into an empty batch always fits
        while admitted < m and (row_sizes[admitted] <= room or (alone and admitted == first)):
            room -= row_sizes[admitted]
            admitted += 1
        new = np.arange(first, admitted)
        if live.size == 0 and new.size == 0:
            break
        for i in new:
            end = points + row_sizes[i]
            flat[0, 0, points:end], flat[0, 1, points:end] = rows[i]
            points = end
        if changed or new.size:
            sizes = row_sizes[np.concatenate([live, new])]
            heads = np.cumsum(sizes) - sizes  # first point of each row
            owner = np.repeat(np.arange(sizes.size), sizes)  # the row of each point
            x, y = flat[0, :, :points]
        scale = np.maximum(scale, np.einsum("ikk->ik", hess))
        d = np.sqrt(np.where(scale > 0.0, scale, 1.0))
        free = ~frozen
        system = hess / (d[:, :, None] * d[:, None, :])
        system *= free[:, :, None] & free[:, None, :]
        system[:, np.arange(k), np.arange(k)] += np.where(free, lam[:, None], 1.0)
        delta = np.linalg.solve(system, -(g / d)[:, :, None])[:, :, 0] / d
        trial = np.minimum(np.maximum(theta + delta, lo), hi)
        move = trial - theta
        # SSE decrease the linearized model predicts for the clipped step
        predicted = -np.einsum("ij,ij->i", move, 2.0 * g + (hess @ move[:, :, None])[:, :, 0])
        # the trials of the live rows and the starts of the new rows, in one pass
        beta_e, sse_e, g_e, hess_e = _evaluate(np.vstack([trial, starts[new]]), x, y, sizes,
                                               heads, owner, work)
        n = live.size
        sse_t = sse_e[:n]
        gain = np.divide(sse - sse_t, predicted, out=np.full(n, -1.0), where=predicted > 0.0)
        lam = np.where(gain > 0.75, np.maximum(lam / 10.0, LAM_MIN),
                       np.where(gain >= 0.25, lam, lam * 10.0))
        ok = sse_t <= sse
        small_step = ok & (
            np.maximum.reduce(np.abs(move), axis=1)
            <= XTOL * (XTOL + np.maximum.reduce(np.abs(theta), axis=1))
        )
        theta[ok], beta[ok], sse[ok] = trial[ok], beta_e[:n][ok], sse_t[ok]
        g_at[ok], hess[ok] = g_e[:n][ok], hess_e[:n][ok]
        age += 1
        if new.size:
            live = np.concatenate([live, new])
            theta = np.vstack([theta, starts[new]])
            beta, sse = np.concatenate([beta, beta_e[n:]]), np.concatenate([sse, sse_e[n:]])
            g_at, hess = np.vstack([g_at, g_e[n:]]), np.concatenate([hess, hess_e[n:]])
            scale = np.vstack([scale, np.zeros((new.size, k))])
            lam = np.concatenate([lam, np.full(new.size, 1e-3)])
            small_step = np.concatenate([small_step, np.zeros(new.size, dtype=bool)])
            age = np.concatenate([age, np.zeros(new.size, dtype=np.intp)])
    return out_params, out_sse, converged


def _lattice_seeds(x, y, s_row, knees: int = 1) -> np.ndarray:
    """Seeds (beta, tau, s) for each s in s_row, profiled over TAU_GRID.

    For each s, every lattice tau gets its best beta = clip(<f, y> / <f, f>,
    0, 1), f = softplus((x - tau) / s), and the seeds are the local minima
    of that profiled SSE along TAU_GRID, lowest first, at most knees of
    them. The (s, tau) lattice is evaluated in blocks of at most
    BATCH_POINTS values, so its temporaries stay below glibc's mmap
    threshold.
    """
    lattice = np.empty((len(s_row), TAU_GRID.size, 3))  # (beta, tau, s) of each point
    lattice[:, :, 1] = TAU_GRID
    lattice[:, :, 2] = np.reshape(s_row, (-1, 1))
    flat = lattice.reshape(-1, 3)
    sse = np.empty(flat.shape[0])
    block = max(1, BATCH_POINTS // x.size)  # lattice points per block
    for i in range(0, sse.size, block):
        cut = flat[i:i + block]
        f = softplus((x - cut[:, 1:2]) / cut[:, 2:3])
        ff = np.einsum("ij,ij->i", f, f)
        # a knee far right of the data can underflow f to zero: beta is then moot
        beta = np.divide(f @ y, ff, out=np.zeros_like(ff), where=ff > 0.0)
        cut[:, 0] = beta = np.minimum(np.maximum(beta, 0.0), 1.0)
        r = beta[:, None] * f - y
        sse[i:i + block] = np.einsum("ij,ij->i", r, r)
    sse = sse.reshape(len(s_row), TAU_GRID.size)
    # local minima along TAU_GRID, lowest first; the lowest is the first argmin
    minimum = np.ones(sse.shape, dtype=bool)
    minimum[:, 1:] = sse[:, 1:] < sse[:, :-1]
    minimum[:, :-1] &= sse[:, :-1] <= sse[:, 1:]
    ranked = np.argsort(np.where(minimum, sse, np.inf), axis=1, kind="stable")[:, :knees]
    ranked += np.arange(len(s_row))[:, None] * TAU_GRID.size  # lattice indices
    return flat[ranked[minimum.flat[ranked]]]  # each s's minima in turn


def _fit_hinge_family(problems, free_s: bool) -> list[FitResult]:
    """Fit y = beta * softplus((x - tau)/s) to each (x, y); s = 1 unless free_s.

    Every problem's lattice seeds are polished by one projected LM over all
    problems (see _projected_lm): the soft hinge from the best knee of each
    s of S_ROW, the hinge from up to HINGE_KNEES knees. Per problem, the
    winner is the lowest-SSE polished seed, and converged is its own flag.
    Results come back in input order.
    """
    problems = [_check_data(x, y) for x, y in problems]
    problems = [(_check_domain(x), y) for x, y in problems]
    model = "soft-hinge" if free_s else "hinge"
    k = _N_PARAMS[model] - 1  # beta is projected out of the solver
    seeds = [_lattice_seeds(x, y, S_ROW) if free_s else _lattice_seeds(x, y, (1.0,), HINGE_KNEES)
             for x, y in problems]
    counts = [len(seed) for seed in seeds]
    starts = np.vstack(seeds)[:, 1:k + 1] if seeds else np.empty((0, k))
    params, sses, ok = _projected_lm([p for p, c in zip(problems, counts) for _ in range(c)],
                                     starts)
    results = []
    for (x, y), end, c in zip(problems, np.cumsum(counts), counts):
        rows = slice(end - c, end)
        j = int(np.argmin(sses[rows]))
        best = SoftHingeParams(*params[rows][j]) if free_s else HingeParams(*params[rows][j])
        results.append(_finish(model, best, x, y, bool(ok[rows][j]),
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
