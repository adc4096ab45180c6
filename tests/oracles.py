"""Independent reference solvers used to cross-check the production path.

Everything here is deliberately naive: dense matrices, finite-difference
Jacobians, bisection, a closure dispatched at every iterate.  Nothing imports the production solve module.
"""

import csv
import io
import math
import tokenize
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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


def thomas_fused(diag, off, rhs, fused):
    """The Thomas loop with a fused multiply-add at the updates named in ``fused``.

    ``fused`` holds any of "pivot", "rhs" and "back": the pivot update
    w - m*e, the right-hand side update g - m*g_prev and the back
    substitution's g - e*x.  Each fused update rounds once, from the exact
    rational value, as a compiler's contraction would.
    """

    def update(a, m, x, name):
        if name in fused:
            return float(Fraction(a) - Fraction(m) * Fraction(x))
        return a - m * x

    n = len(diag)
    w, g = list(diag), list(rhs)
    for i in range(1, n):
        m = off[i - 1] / w[i - 1]
        w[i] = update(w[i], m, off[i - 1], "pivot")
        g[i] = update(g[i], m, g[i - 1], "rhs")
    x = [0.0] * n
    x[-1] = g[-1] / w[-1]
    for i in range(n - 2, -1, -1):
        x[i] = update(g[i], off[i], x[i + 1], "back") / w[i]
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


def cell_csv_bytes(states, x):
    """The bytes of ``snapshots.csv`` or ``phase.csv`` holding ``states``.

    ``csv.writer`` with its CRLF line ends: the header, then one
    (t, x, u, chi) row per cell of each state in turn, every number
    formatted on its own at 17 significant digits.
    """
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(("t", "x", "u", "chi"))
    for state in states:
        for x_i, u_i, chi_i in zip(x, state.u, state.upsilon):
            writer.writerow([f"{float(v):.17g}" for v in (state.t, x_i, u_i, chi_i)])
    return out.getvalue().encode("utf-8")


def rows_csv_bytes(header, rows):
    """The bytes of a CSV file of float rows, such as ``trajectory.csv``.

    ``csv.writer`` with its CRLF line ends: the header, then each row with
    every number formatted on its own at 17 significant digits.
    """
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{float(v):.17g}" for v in row])
    return out.getvalue().encode("utf-8")


def driven_schedule(t):
    """The built-in ``ode-driven`` drive at one time, through numpy's scalar cosine.

    The production drive must give these bits at every step time ``n*tau``.
    """
    h = 8.0 if t < 4.0 else 4.0
    g = -2.0 if t < 4.0 else t / 2.0 - 8.0
    return h * float(np.cos(np.pi * t / 4.0)) + g


# the math names of a config expression, kept apart from the production
# namespace so that a change to it shows here
_EXPRESSION_NAMES = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "where": np.where,
    "minimum": np.minimum,
    "maximum": np.maximum,
    "pi": math.pi,
}


def evaluate_expression(expr, **names):
    """A config expression's value by plain ``eval`` of its text with each
    number written as a float: no builtins, ``names`` as its locals."""
    tokens = tokenize.generate_tokens(io.StringIO(expr.lstrip(" \t")).readline)
    text = tokenize.untokenize(
        (kind, repr(float(token)) if kind == tokenize.NUMBER else token) for kind, token, *_ in tokens
    )
    return eval(text, {"__builtins__": {}, **_EXPRESSION_NAMES}, names)  # noqa: S307


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


# ---------------------------------------------------------------------------
# The pointwise laws, the closures' fraction updates and the assembly written
# with one np.where or np.clip per branch, Python-float operands and fresh
# arrays.  The production forms compute the same IEEE operations in the same
# order through other calls, and must give these bits, NaN payloads included.

def _exp_floored(z):
    return np.where(z < -700.0, 0.0, np.exp(np.maximum(z, -700.0)))


def pointwise_laws(u, b, c_u, c_f, k_u, k_f):
    """Every field and law of ``PointwiseLaws`` at ``u``, by name."""
    u = np.asarray(u, dtype=float)
    e = _exp_floored(np.minimum(b * u, 0.0))
    thawed = u > 0.0
    fraction = np.where(u >= 0.0, 1.0, e)
    return {
        "e": e,
        "fraction": fraction,
        "thawed": thawed,
        "fraction_slope": np.where(thawed, 0.0, b * e),
        "capacity_energy": np.where(thawed, c_u * u, (c_u - c_f) * (e - 1.0) / b + c_f * u),
        "capacity_slope": np.where(thawed, c_u, (c_u - c_f) * e + c_f),
        "conductivity": k_f + (k_u - k_f) * fraction,
    }


def hysteretic_update(f, fp, upsilon_prev, beta):
    """The clamped fraction f + clip(prev - f, 0, beta) and its slope in f's slope ``fp``."""
    s = upsilon_prev - f
    return f + np.clip(s, 0.0, beta), np.where((s > 0.0) & (s < beta), 0.0, fp)


def kinetic_update(f, fp, upsilon_prev, tau, rate):
    """The relaxed fraction (1 - w)*f + w*prev, w = 1/(1 + tau*rate), and its slope."""
    w = 1.0 / (1.0 + tau * rate)
    return (1.0 - w) * f + w * upsilon_prev, (1.0 - w) * fp


def tridiagonal_assembly(k, h, ud_left, ud_right, face_average="harmonic"):
    """(diag, off, bc_rhs) of the diffusion matrix from cell conductivities ``k``."""
    if face_average == "harmonic":
        k_face = 2.0 * k[:-1] * k[1:] / (k[:-1] + k[1:])
    else:
        k_face = 0.5 * (k[:-1] + k[1:])
    t_int = k_face / (h * h)
    t_left = 2.0 * k[0] / (h * h)
    t_right = 2.0 * k[-1] / (h * h)
    diag = np.concatenate(([t_int[0] + t_left], t_int[1:] + t_int[:-1], [t_int[-1] + t_right]))
    bc_rhs = np.zeros(len(k))
    bc_rhs[0] = t_left * ud_left
    bc_rhs[-1] = t_right * ud_right
    return diag, -t_int, bc_rhs


def tridiagonal_matvec(diag, off, x):
    """The symmetric tridiagonal product, off-diagonal terms added above then below."""
    y = diag * x
    if off.size:
        y[:-1] += off * x[1:]
        y[1:] += off * x[:-1]
    return y


def cell_values(b=1.0):
    """Draws for one cell: any float, NaN and subnormals included, weighted toward
    signed zeros, infinities, the kink and ``b*u`` at and around the exp floor."""
    floor = -700.0 / b
    special = st.sampled_from([
        0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324, -2.2e-308,
        1.0, -1.0, floor, math.nextafter(floor, 0.0), math.nextafter(floor, -math.inf),
        2.0 * floor, 0.5 * floor,
    ])
    return st.one_of(special, st.floats(-10.0, 10.0), st.floats())


def cell_arrays(elements, shapes=((), (0,), (1,), (2,), (7,), (40,), (3, 5))):
    """0-d, empty, 1-D and 2-D float arrays of ``elements``."""
    return st.sampled_from(shapes).flatmap(lambda shape: arrays(float, shape, elements=elements))


def bits(values):
    """Shape and float bit patterns: -0.0 differs from 0.0, NaN payloads count."""
    a = np.asarray(values, dtype=float)
    return a.shape, a.view(np.int64).tolist()
