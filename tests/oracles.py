"""Independent reference implementations used to check the package.

Everything here is written directly against the mathematical definitions
(numpy primitives only, no imports from the package) so tests compare two
separately derived answers.
"""

import csv

import numpy as np

BETA_BOX = (0.0, 1.0)
TAU_BOX = (0.0, 50.0)
S_BOX = (0.5, 20.0)


def ref_softplus(z):
    return np.logaddexp(0.0, z)


def ref_soft_hinge(beta, tau, s, x):
    return beta * ref_softplus((np.asarray(x, dtype=float) - tau) / s)


def ref_hinge(beta, tau, x):
    return beta * ref_softplus(np.asarray(x, dtype=float) - tau)


def ref_linear(alpha, gamma, x):
    x = np.asarray(x, dtype=float)
    return gamma * np.maximum(0.0, x - alpha)


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
