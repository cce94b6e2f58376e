"""Independent reference implementations used to check the package.

Everything here is written directly against the mathematical definitions
(numpy primitives only, no imports from the package) so tests compare two
separately derived answers.
"""

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
