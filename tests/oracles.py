"""Independent reference solvers used to cross-check the production path.

Everything here is deliberately naive: dense matrices, finite-difference
Jacobians, bisection, a closure dispatched at every iterate.  Nothing imports the production solve module.
"""

import math

import numpy as np

from cryostef.constitutive import EXP_FLOOR, capacity_energy, conductivity, equilibrium_fraction
from cryostef.errors import NonConvergence, SingularJacobian


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


def drive_play_per_step(u_schedule, env, tau, T, v_init):
    """The driven play one step at a time, each curve at one temperature.

    Samples the drive, the lower curve and the lagged gap (upper minus
    lower, clipped at zero) per step as Python floats, after clamping
    ``v_init`` into the envelope at u(0).  The production ``drive_play``
    evaluates the curves over the whole drive at once and must give the
    same rows bit for bit.
    """
    n_steps = int(round(T / tau))
    u_prev = float(u_schedule(0.0))
    lo = float(env.lower(u_prev))
    hi = max(float(env.upper(u_prev)), lo)
    chi = min(max(v_init, lo), hi)
    rows = np.empty((n_steps, 3))
    for n in range(1, n_steps + 1):
        t = n * tau
        u = float(u_schedule(t))
        beta = max(float(env.upper(u_prev)) - float(env.lower(u_prev)), 0.0)
        f_u = float(env.lower(u))
        chi = f_u + min(max(chi - f_u, 0.0), beta)
        rows[n - 1] = (t, u, chi)
        u_prev = u
    return rows


def coupled_forcing(t):
    """The built-in ``ode-coupled`` forcing at one time, through numpy's scalar cosine.

    The production run samples it a block of steps at a time and must hand
    the stepper these bits at every step time ``n*tau``.
    """
    h = 16.0 if t < 1.0 else 4.0
    g = -15.0 if t < 1.0 else 4.0 * t - 30.0
    return h * float(np.cos(np.pi * t)) + g


def _scalar_fraction(u, b):
    if u >= 0.0:
        return 1.0
    z = b * u
    return math.exp(z) if z >= EXP_FLOOR else 0.0


def _scalar_envelope_gap(theta, env):
    if theta < env.theta0 or theta > 0.0:
        return 0.0
    g = env.a * math.exp(env.b_bar * theta) + env.D * theta + env.C
    return max(min(g, 1.0) - _scalar_fraction(theta, env.b), 0.0)


class ScalarStepPerIterate:
    """The scalar coupled step with the closure dispatched at every iterate.

    Two helpers pick the closure's fraction and slope by kind inside the
    Newton loop.  The production ``ScalarOdeStepper`` resolves the closure
    once per step and must give the same (u, chi, iterations) bit for bit.
    """

    def __init__(self, closure, b, a_coef, tol=1e-8, max_iter=20):
        self.closure = closure
        self.b = b
        self.a_coef = a_coef
        self.tol = tol
        self.max_iter = max_iter

    def _chi(self, f, chi_prev, beta, tau):
        if self.closure.kind == "eq":
            return f
        if self.closure.kind == "neq":
            w = 1.0 / (1.0 + tau * self.closure.rate)
            return (1.0 - w) * f + w * chi_prev
        return f + min(max(chi_prev - f, 0.0), beta)

    def _chi_slope(self, f, fp, chi_prev, beta, tau):
        if self.closure.kind == "eq":
            return fp
        if self.closure.kind == "neq":
            w = 1.0 / (1.0 + tau * self.closure.rate)
            return (1.0 - w) * fp
        s = chi_prev - f
        return 0.0 if 0.0 < s < beta else fp

    def step(self, u_prev, chi_prev, tau, f_value):
        g = tau * f_value + u_prev + chi_prev
        if self.closure.kind == "hyst":
            beta = _scalar_envelope_gap(u_prev, self.closure.envelope)
        else:
            beta = 0.0
        u = u_prev
        for it in range(self.max_iter + 1):
            f = _scalar_fraction(u, self.b)
            chi = self._chi(f, chi_prev, beta, tau)
            phi = u + chi + tau * self.a_coef * u - g
            if abs(phi) <= self.tol:
                return u, chi, it, abs(phi)
            fp = 0.0 if u > 0.0 else self.b * f
            slope = 1.0 + self._chi_slope(f, fp, chi_prev, beta, tau) + tau * self.a_coef
            u -= phi / slope
        raise NonConvergence(
            f"scalar step stalled at residual {abs(phi):.3e}", residual=abs(phi)
        )
