"""Independent reference implementations used to check the package.

Everything here is written directly against the mathematical definitions
(numpy primitives only, no imports from the package) so tests compare two
separately derived answers.
"""

import csv
import json
import math
from decimal import Decimal, localcontext

import numpy as np

BETA_BOX = (0.0, 1.0)
TAU_BOX = (0.0, 50.0)
S_BOX = (0.5, 20.0)


def ref_softplus(z):
    return np.logaddexp(0.0, z)


def ref_logistic(u):
    """1 / (1 + exp(-u)) in 60-digit decimal arithmetic, rounded once to float64.

    Decimal infinities and NaN carry through: -inf -> 0, inf -> 1, nan -> nan.
    """
    u = np.asarray(u, dtype=float)
    with localcontext() as ctx:
        ctx.prec = 60
        out = [float(1 / (1 + (-Decimal(v)).exp())) for v in u.ravel().tolist()]
    return np.array(out).reshape(u.shape)


def ref_soft_hinge(beta, tau, s, x):
    return beta * ref_softplus((np.asarray(x, dtype=float) - tau) / s)


def ref_hinge(beta, tau, x):
    return beta * ref_softplus(np.asarray(x, dtype=float) - tau)


def ref_linear(alpha, gamma, x):
    x = np.asarray(x, dtype=float)
    return gamma * np.maximum(0.0, x - alpha)


def compute_eor_loop(x, y, bin_width=5.0, x_min=0.0, x_max=50.0):
    """Eye-only range, one bin at a time: where P(y <= 0.1 x) first drops to 0.5.

    Bins are centered on multiples of bin_width over [0, x_max]; the
    crossing is interpolated between adjacent non-empty bin centers and
    clamped to [x_min, x_max]. Raises ValueError when no bin is populated.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    eye_only = y <= 0.1 * x
    probs = []
    kept_centers = []
    for c in np.arange(0.0, x_max + bin_width / 2, bin_width):
        mask = (x >= c - bin_width / 2) & (x < c + bin_width / 2)
        if not np.any(mask):
            continue
        kept_centers.append(c)
        probs.append(float(np.mean(eye_only[mask])))
    if not kept_centers:
        raise ValueError("no populated bin")
    if probs[0] < 0.5:
        return 0.0
    for (c1, p1), (c2, p2) in zip(
        zip(kept_centers, probs), zip(kept_centers[1:], probs[1:])
    ):
        if p1 >= 0.5 and p2 < 0.5:
            alpha = c1 + (p1 - 0.5) / (p1 - p2) * (c2 - c1)
            return float(min(max(alpha, x_min), x_max))
    return x_max


def ref_fit_scores(r, y, k):
    """(sse, r2, rmse, aic) of a k-parameter fit to y with residuals r, each sum a math.fsum.

    r2 = 1 - SSE / TSS is nan when y is constant, and the AIC is
    n * ln(SSE / n) + 2k with SSE / n floored at 1e-300.
    """
    r = [float(v) for v in np.ravel(r)]
    y = [float(v) for v in np.ravel(y)]
    n = len(y)
    sse = math.fsum(v * v for v in r)
    mean = math.fsum(y) / n
    tss = math.fsum((v - mean) ** 2 for v in y)
    r2 = 1.0 - sse / tss if tss > 0.0 else math.nan
    return sse, r2, math.sqrt(sse / n), n * math.log(max(sse / n, 1e-300)) + 2 * k


def fd_gradient(f, theta, h=1e-5):
    """Central finite-difference gradient of f: R^k -> R^n."""
    theta = np.asarray(theta, dtype=float)
    cols = []
    for j in range(theta.size):
        hi = theta.copy()
        lo = theta.copy()
        hi[j] += h
        lo[j] -= h
        cols.append((f(hi) - f(lo)) / (2 * h))
    return np.stack(cols, axis=-1)


def reconstruct(spectrum, scores):
    """Curve(s) rebuilt from a spectrum's scores: mean + scores @ components."""
    return spectrum.mean_curve + np.asarray(scores, dtype=float) @ spectrum.components


def _lattice(n_grid):
    betas = np.linspace(*BETA_BOX, n_grid)
    taus = np.linspace(*TAU_BOX, n_grid)
    ss = np.linspace(*S_BOX, n_grid)
    return betas, taus, ss


def lattice_min_sse(x, y, n_grid=50):
    """Exhaustive minimum SSE of the soft hinge over an n_grid^3 lattice."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    betas, taus, ss = _lattice(n_grid)
    tt, sss = np.meshgrid(taus, ss, indexing="ij")
    u = (x[None, :] - tt.ravel()[:, None]) / sss.ravel()[:, None]
    sp = ref_softplus(u)  # (n_grid^2, n)
    best = np.inf
    for b in betas:
        r = b * sp - y[None, :]
        best = min(best, float(np.einsum("ij,ij->i", r, r).min()))
    return best


def hinge_lattice_min_sse(x, y, n_grid=200):
    """Exhaustive minimum SSE of the hinge over an n_grid^2 (beta, tau) lattice."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    betas = np.linspace(*BETA_BOX, n_grid)
    taus = np.linspace(*TAU_BOX, n_grid)
    sp = ref_hinge(1.0, taus[:, None], x[None, :])  # (n_grid, n)
    best = np.inf
    for b in betas:
        r = b * sp - y[None, :]
        best = min(best, float(np.einsum("ij,ij->i", r, r).min()))
    return best


def lattice_argmin(x, y, n_grid=50):
    """(beta, tau, s, sse) of the exhaustive lattice minimum."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    betas, taus, ss = _lattice(n_grid)
    tt, sss = np.meshgrid(taus, ss, indexing="ij")
    tflat, sflat = tt.ravel(), sss.ravel()
    u = (x[None, :] - tflat[:, None]) / sflat[:, None]
    sp = ref_softplus(u)
    best = (np.inf, None)
    for b in betas:
        r = b * sp - y[None, :]
        sse = np.einsum("ij,ij->i", r, r)
        j = int(np.argmin(sse))
        if sse[j] < best[0]:
            best = (float(sse[j]), (float(b), float(tflat[j]), float(sflat[j])))
    sse, (b, t, s) = best
    return b, t, s, sse


# Parameter bounds of the hinge-family fits, (beta, tau, s); the hinge uses
# the first two.
FIT_LOWER = (0.0, -20.0, 1e-3)
FIT_UPPER = (1.0, 70.0, np.inf)


def trf_min_sse(x, y, starts):
    """Lowest SSE of scipy's trust-region-reflective least squares over starts.

    Each start is (beta, tau, s) for the soft hinge or (beta, tau) for the
    hinge (s = 1), solved within FIT_LOWER/FIT_UPPER with an analytic
    Jacobian and the stopping rules gtol 1e-8, xtol 1e-10, 200 evaluations.
    """
    from scipy.optimize import least_squares

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    best = np.inf
    for theta0 in starts:
        k = len(theta0)

        def unpack(th):
            return th[0], th[1], th[2] if k == 3 else 1.0

        def residual(th):
            return ref_soft_hinge(*unpack(th), x) - y

        def jacobian(th):
            beta, tau, s = unpack(th)
            u = (x - tau) / s
            sigma = np.exp(-ref_softplus(-u))  # 1 / (1 + exp(-u)), overflow-free
            cols = [ref_softplus(u), -beta / s * sigma, -beta * u / s * sigma]
            return np.column_stack(cols[:k])

        res = least_squares(
            residual, theta0, jac=jacobian, bounds=(FIT_LOWER[:k], FIT_UPPER[:k]),
            method="trf", gtol=1e-8, xtol=1e-10, ftol=None, max_nfev=200,
        )
        best = min(best, float(np.dot(res.fun, res.fun)))
    return best


class TimeOrderError(ValueError):
    """A timestamp that does not strictly increase, at sample `index`."""

    def __init__(self, index, timestamp):
        super().__init__(f"timestamp {timestamp!r} at row {index} does not strictly increase")
        self.index = index
        self.timestamp = timestamp


def one_euro_loop(t, x, min_cutoff=1.0, beta=0.0, derivative_cutoff=1.0):
    """The 1-Euro filter (Casiez et al., CHI 2012) as a plain per-sample loop.

    The state starts at the first sample with a zero derivative estimate;
    each step smooths the derivative at derivative_cutoff and the signal at
    min_cutoff + beta * |smoothed derivative|, on numpy scalars.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)

    def smoothing_factor(te, cutoff):
        tau = 1.0 / (2.0 * np.pi * cutoff)
        return 1.0 / (1.0 + tau / te)

    out = np.empty_like(x)
    if x.size == 0:
        return out
    x_hat = x[0]
    dx_hat = 0.0
    out[0] = x_hat
    for i in range(1, x.size):
        te = t[i] - t[i - 1]
        if te <= 0:
            raise TimeOrderError(index=i, timestamp=float(t[i]))
        dx = (x[i] - x[i - 1]) / te
        a_d = smoothing_factor(te, derivative_cutoff)
        dx_hat = a_d * dx + (1.0 - a_d) * dx_hat
        cutoff = min_cutoff + beta * abs(dx_hat)
        a = smoothing_factor(te, cutoff)
        x_hat = a * x[i] + (1.0 - a) * x_hat
        out[i] = x_hat
    return out


def detect_fixations_loop(t, velocity, vel_threshold=15.0, min_duration_s=0.060,
                          pad_s=0.010, merge_gap_s=0.020):
    """Velocity-threshold fixations as (start, end) inclusive index pairs, span by span.

    A fixation is a run of samples with |velocity| < vel_threshold lasting
    at least min_duration_s. Each run is padded outward by pad_s, clamped to
    the trace; a padded run that starts less than merge_gap_s after the end
    of the one before joins it.
    """
    t = np.asarray(t, dtype=float)
    slow = np.abs(np.asarray(velocity, dtype=float)) < vel_threshold
    spans = []
    i = 0
    while i < t.size:
        if not slow[i]:
            i += 1
            continue
        j = i
        while j + 1 < t.size and slow[j + 1]:
            j += 1
        if t[j] - t[i] >= min_duration_s:
            spans.append((i, j))
        i = j + 1
    merged = []
    for a, b in spans:
        a = max(int(np.searchsorted(t, t[a] - pad_s, side="left")), 0)
        b = min(int(np.searchsorted(t, t[b] + pad_s, side="right")) - 1, t.size - 1)
        if merged and t[a] - t[merged[-1][1]] < merge_gap_s:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged


def read_table_csv(path, columns):
    """The named columns of a CSV table as strings, one csv.reader row at a time.

    Any physical line starting with '#' and every blank row is skipped; the
    first remaining row is the header and every data row must be as wide
    as it (ValueError otherwise, and for a table with no data rows).
    """
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(ln for ln in fh if not ln.startswith("#")) if row]
    if len(rows) < 2:
        raise ValueError(f"{path}: no data rows")
    header, data = rows[0], rows[1:]
    for n, row in enumerate(data, 1):
        if len(row) != len(header):
            raise ValueError(f"{path}: data row {n} has {len(row)} fields, the header has {len(header)}")
    return {col: [row[header.index(col)] for row in data] for col in columns}


def write_table_rows(path, columns, rows, provenance=None):
    """A CSV table written one csv.writer row at a time.

    The optional first line is '# provenance: ' and the sorted-key JSON of
    `provenance`; Python floats are written as %.9g, every other cell as
    csv.writer writes it (default dialect: minimal quoting, CRLF).
    """
    with open(path, "w", newline="") as fh:
        if provenance is not None:
            fh.write("# provenance: " + json.dumps(provenance, sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(
            [f"{c:.9g}" if isinstance(c, float) else c for c in row] for row in rows
        )


def shifts_against_truth(windows, x, ramps, quantiles=(0.0, 0.05, 0.5)):
    """Score extracted shifts against the true gaze ramps they overlap.

    windows holds one (start, end) pair of times per extracted shift, its
    anchor window: from the last sample of the earlier fixation to the
    first of the later one. ramps is synth_trace's truth["shifts"], each
    with t_on, t_off and gaze_amplitude. A window overlaps a ramp when it
    starts before the ramp's t_off and ends after its t_on. Returns
    (fraction of shifts that overlap exactly one ramp, {q: q-quantile of
    x / A over those shifts}), A being that one ramp's signed amplitude, so
    x / A is |x| / |A| for a shift in the ramp's direction. The quantiles
    are NaN when no shift overlaps exactly one ramp.
    """
    windows = np.asarray(windows, dtype=float).reshape(-1, 2)
    on = np.array([r["t_on"] for r in ramps], dtype=float)
    off = np.array([r["t_off"] for r in ramps], dtype=float)
    amp = np.array([r["gaze_amplitude"] for r in ramps], dtype=float)
    ratios = []
    for (start, end), xi in zip(windows, np.asarray(x, dtype=float)):
        hit = np.flatnonzero((start < off) & (end > on))
        if hit.size == 1:
            ratios.append(xi / amp[hit[0]])
    fraction = len(ratios) / len(windows) if len(windows) else math.nan
    return fraction, {q: float(np.quantile(ratios, q)) if ratios else math.nan for q in quantiles}
