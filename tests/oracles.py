"""Independent reference solvers used to cross-check the production path.

Everything here is deliberately naive: dense matrices, finite-difference
Jacobians, bisection.  Nothing imports the production solve module.
"""

import numpy as np

from cryostef.constitutive import capacity_energy, conductivity, equilibrium_fraction
from cryostef.errors import SingularJacobian


def dense_step_residual(u, u_prev, ups_prev, closure, material, h, ud, f_n, tau):
    """Full nonlinear residual with the matrix evaluated at the candidate state."""
    u = np.asarray(u, dtype=float)
    m_cells = u.size
    k = np.asarray(conductivity(u, material))
    a = np.zeros((m_cells, m_cells))
    bc = np.zeros(m_cells)
    for j in range(m_cells - 1):
        t_face = 2.0 * k[j] * k[j + 1] / (k[j] + k[j + 1]) / h**2
        a[j, j] += t_face
        a[j + 1, j + 1] += t_face
        a[j, j + 1] -= t_face
        a[j + 1, j] -= t_face
    a[0, 0] += 2.0 * k[0] / h**2
    a[-1, -1] += 2.0 * k[-1] / h**2
    bc[0] = 2.0 * k[0] / h**2 * ud[0]
    bc[-1] = 2.0 * k[-1] / h**2 * ud[1]

    f_curve = np.asarray(equilibrium_fraction(u, material.b))
    if closure.kind == "eq":
        ups = f_curve
    elif closure.kind == "neq":
        b_bar = 1.0 / (1.0 + tau * closure.rate)
        ups = (1.0 - b_bar) * f_curve + b_bar * ups_prev
    else:
        env = closure.envelope
        beta = np.maximum(
            np.asarray(env.upper(u_prev)) - np.asarray(env.lower(u_prev)), 0.0
        )
        ups = f_curve + np.clip(ups_prev - f_curve, 0.0, beta)

    g = tau * f_n + np.asarray(capacity_energy(u_prev, material)) + ups_prev
    return np.asarray(capacity_energy(u, material)) + ups + tau * (a @ u - bc) - g


def dense_newton_full(u_prev, ups_prev, closure, material, h, ud, f_n, tau,
                      tol=1e-12, max_iter=80, fd_step=1e-7):
    """Newton with a dense finite-difference Jacobian, no matrix lagging."""

    def residual(u):
        return dense_step_residual(u, u_prev, ups_prev, closure, material, h, ud, f_n, tau)

    u = np.array(u_prev, dtype=float, copy=True)
    for _ in range(max_iter):
        r = residual(u)
        if np.max(np.abs(r)) <= tol:
            return u
        n = u.size
        jac = np.empty((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = fd_step
            jac[:, j] = (residual(u + e) - residual(u - e)) / (2.0 * fd_step)
        u = u - np.linalg.solve(jac, r)
    raise AssertionError(f"dense oracle failed to converge, residual {np.max(np.abs(r)):.3e}")


def bisect(fn, lo, hi, tol=1e-13, max_iter=200):
    flo = fn(lo)
    assert flo * fn(hi) <= 0.0, "bisection bracket does not straddle a root"
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if hi - lo < tol:
            return mid
        if flo * fmid <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def thomas_numpy(diag, off, rhs):
    """Row-by-row Thomas elimination over numpy scalars.

    The production solve must reproduce this loop bit for bit, including
    its pivot check and messages.
    """
    n = diag.shape[0]
    scale = float(np.max(np.abs(diag)))
    if off.size:
        scale = max(scale, float(np.max(np.abs(off))))
    tiny = max(scale, 1.0) * 1e-15

    w = diag.astype(float).copy()
    g = rhs.astype(float).copy()
    for i in range(1, n):
        piv = w[i - 1]
        if abs(piv) < tiny:
            raise SingularJacobian(f"pivot {piv} collapsed at row {i - 1}")
        m = off[i - 1] / piv
        w[i] -= m * off[i - 1]
        g[i] -= m * g[i - 1]
    if abs(w[-1]) < tiny:
        raise SingularJacobian(f"pivot {w[-1]} collapsed at last row")

    x = np.empty(n)
    x[-1] = g[-1] / w[-1]
    for i in range(n - 2, -1, -1):
        x[i] = (g[i] - off[i] * x[i + 1]) / w[i]
    return x
