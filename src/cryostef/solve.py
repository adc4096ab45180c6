"""Nonlinear solvers for the per-step implicit systems.

Two strategies are available.  The default ("newton-alag") freezes the
diffusion matrix at the latest outer iterate and runs a semismooth Newton
inner loop on the remaining monotone nonlinearity; the outer loop is
declared converged only when a pass on the matrix re-evaluated at the
current iterate needs no Newton update.  "fixed-point" lags both the
fraction term and the matrix and sweeps a linearized capacity solve; it
contracts only for mild data and is kept as a baseline.

Both strategies are deterministic: identical inputs produce bit-identical
iterates.

Each Newton system is tridiagonal and solved by ``thomas_solve``, whose
float loop defines the result.  Numpy's bundled LAPACK ``dgtsv``, reached
through ctypes, solves a system instead when a check at the first solve
shows that it gives the loop's bits, and then only where its guards show
that it took the loop's steps.  Without that library, or when the check
fails, the loop solves every system: the package depends on numpy alone.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import os
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NonConvergence, SingularJacobian

NEWTON_ALAG = "newton-alag"
FIXED_POINT = "fixed-point"
STRATEGIES = (NEWTON_ALAG, FIXED_POINT)

# Saturation value of the fraction term, used in the fixed-point contraction bound.
FRACTION_SUP = 1.0

# Random probes per estimated constant, and their seed, in contraction_diagnostic.
DIAGNOSTIC_PROBES = 32
DIAGNOSTIC_SEED = 0

# Rows of the fixed system on which the bundled dgtsv must give the loop's bits.
SELF_CHECK_ROWS = 64


@dataclass
class SolverOptions:
    """Tolerance, iteration caps and strategy of the per-step solve.

    ``max_inner`` is the Newton budget of a whole matrix-lagging step, which
    also bounds its outer passes; ``max_outer`` bounds the fixed-point
    sweeps only.
    """

    tol: float = 1e-8
    max_inner: int = 20
    max_outer: int = 100
    strategy: str = NEWTON_ALAG

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError(f"tolerance must be positive, got {self.tol}")
        if self.max_inner < 1 or self.max_outer < 1:
            raise ValueError("iteration caps must be at least 1")
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown solver strategy {self.strategy!r}; "
                f"expected one of {', '.join(STRATEGIES)}"
            )


@dataclass
class StepReport:
    """Iteration statistics for one implicit step."""

    outer_iters: int
    inner_iters_total: int
    residual_history: list = field(default_factory=list)
    converged: bool = False


def thomas_solve(diag, off, rhs):
    """Direct solve of a symmetric tridiagonal system by elimination.

    Assumes the matrix is positive definite (true for every Jacobian built
    here); a collapsing pivot signals that assumption failed.  The float
    loop ``_thomas_loop`` defines the result.  Numpy's bundled LAPACK
    ``dgtsv`` solves the system instead where it gives the loop's bits:
    finite data of two or more rows, no row interchange, no collapsing
    pivot, and a finite solution without a zero entry.  Any other system,
    and every system where the first-use check found other bits, goes to
    the loop, with its messages and its NaNs.  The pivot bound scales with
    the largest entry that is a number, so a NaN in ``diag`` still lets a
    zero pivot raise.  Callers do not modify ``off`` in place between
    calls: its magnitudes are kept with the last array seen.
    """
    n = diag.shape[0]
    absoff, off_max = _magnitudes(off)
    absdiag = abs(diag)
    diag_max = _largest(absdiag)
    if n >= 2 and math.isfinite(diag_max + off_max):
        tiny = max(diag_max, off_max, 1.0) * 1e-15
        kernel = _dgtsv if _dgtsv is not None else _load_dgtsv()
        if kernel:
            x = kernel.solve(diag, off, absoff, rhs, tiny)
            if x is not None:
                return x
    elif diag_max != diag_max:
        # fmax passes over a NaN, which would make the bound NaN and let a
        # zero pivot through to a division
        diag_max = float(np.fmax.reduce(absdiag))
    # max() keeps its first argument unless a later one is larger: a NaN in
    # off leaves the bound alone
    return _thomas_loop(diag, off, rhs, max(diag_max, off_max, 1.0) * 1e-15)


def _largest(a):
    # the largest entry of ``a``, or its first NaN: argmax takes a NaN for
    # the maximum, and at these sizes it costs a third of a reduction
    return float(a[a.argmax()])


def _magnitudes(off):
    # |off| and its largest entry, once per array: the Jacobians of an outer
    # pass share one off-diagonal; holding the key keeps its id from reuse
    global _off_magnitudes
    key, absoff, off_max = _off_magnitudes
    if off is not key:
        absoff = abs(off)
        off_max = _largest(absoff) if off.size else 0.0
        _off_magnitudes = off, absoff, off_max
    return absoff, off_max


_off_magnitudes = (None, None, None)


def _thomas_loop(diag, off, rhs, tiny):
    # plain Python floats: a numpy scalar per operation costs more than the
    # arithmetic; tests hold the result bit-equal to the same loop in numpy
    n = diag.shape[0]
    w = diag.tolist()
    e = off.tolist()
    g = rhs.tolist()
    piv = w[0]
    acc = g[0]
    for i in range(1, n):
        if -tiny < piv < tiny:
            raise SingularJacobian(f"pivot {piv} collapsed at row {i - 1}")
        m = e[i - 1] / piv
        w[i] = piv = w[i] - m * e[i - 1]
        g[i] = acc = g[i] - m * acc
    if -tiny < piv < tiny:
        raise SingularJacobian(f"pivot {piv} collapsed at last row")

    # back substitution overwrites g with the solution
    x = g[-1] = acc / piv
    for i in range(n - 2, -1, -1):
        g[i] = x = (g[i] - e[i] * x) / w[i]
    return np.array(g)


class _Dgtsv:
    """LAPACK ``dgtsv`` (ILP64) with one set of buffers per system size.

    ``dgtsv`` eliminates as the loop does while ``|d[i]| >= |dl[i]|``,
    and otherwise interchanges rows ``i`` and ``i + 1``, which leaves
    ``d[i] == dl[i]``.  Its back substitution also subtracts
    ``dl[i] * x[i + 2]`` with ``dl[i]`` zeroed, which changes a bit only
    where that term is NaN or flips the sign of a zero, so a solution entry
    is then non-finite or zero.  ``solve`` returns None for each of these.
    One lock serializes the solves that share the buffers.
    """

    def __init__(self, fn):
        self._fn = fn
        self._lock = threading.Lock()
        self._info = ctypes.c_int64()
        self._nrhs = ctypes.c_int64(1)
        self._sizes = {}

    def _buffers(self, n):
        # dl, d, du and b, the pivot magnitudes, a mask, and the call's
        # arguments: all made once per size
        block = np.empty((5, n))
        dl, d, du, b, mag = block
        dl, du = dl[:-1], du[:-1]
        size = ctypes.c_int64(n)
        ref = ctypes.byref
        pointers = (ctypes.c_void_p(a.ctypes.data) for a in (dl, d, du, b))
        args = (ref(size), ref(self._nrhs), *pointers, ref(size), ref(self._info))
        mask = np.empty(n, bool)
        buffers = self._sizes[n] = (dl, d, du, b, mag, mag[:-1], mask, mask[:-1], args)
        return buffers

    def solve(self, diag, off, absoff, rhs, tiny):
        """The loop's solution of the system, or None where ``dgtsv`` may differ."""
        n = diag.shape[0]
        if off.shape != (n - 1,) or rhs.shape != (n,):
            return None
        with self._lock:
            dl, d, du, b, mag, mag_head, mask, mask_head, args = (
                self._sizes.get(n) or self._buffers(n)
            )
            dl[:] = off
            du[:] = off
            d[:] = diag
            b[:] = rhs
            self._fn(*args)
            if self._info.value:
                return None
            np.abs(d, out=mag)
            if not mag[mag.argmin()] >= tiny:
                return None
            np.greater(mag_head, absoff, out=mask_head)
            if np.count_nonzero(mask_head) < n - 1:
                return None
            if np.count_nonzero(np.isfinite(b, out=mask)) < n or np.count_nonzero(b) < n:
                return None
            return b.copy()


def _bundled_dgtsv():
    """``dgtsv`` of the OpenBLAS that numpy's wheel bundles, or None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        names = sorted(os.listdir(libs))
    except OSError:
        return None
    for name in names:
        if name.startswith("libscipy_openblas64_") and name.endswith(".so"):
            try:
                fn = ctypes.CDLL(os.path.join(libs, name)).scipy_dgtsv_64_
            except (OSError, AttributeError):
                return None
            # the Fortran interface: every argument by address, no return value
            fn.argtypes = (ctypes.c_void_p,) * 8
            fn.restype = None
            return fn
    return None


def _load_dgtsv():
    """Look up ``dgtsv`` at the first solve and keep it if it gives the loop's bits.

    The check solves one fixed system both ways; a library built with
    fused multiply-adds, for one, fails it, and then every system goes to
    the loop.
    """
    global _dgtsv
    _dgtsv = False
    fn = _bundled_dgtsv()
    if fn is None:
        return _dgtsv
    diag, off, rhs = _self_check_system()
    tiny = max(float(abs(diag).max()), float(abs(off).max()), 1.0) * 1e-15
    kernel = _Dgtsv(fn)
    x = kernel.solve(diag, off, abs(off), rhs, tiny)
    if x is not None and x.tobytes() == _thomas_loop(diag, off, rhs, tiny).tobytes():
        _dgtsv = kernel
    return _dgtsv


def _self_check_system():
    # rounded quotients, strictly diagonally dominant, off-diagonals near
    # half the diagonal: a fused multiply-add at any one of the loop's three
    # updates moves 20 to 50 of the 64 solution entries.  Only arithmetic
    # the run has already used: a first numpy sin or dot faults in code pages
    i = np.arange(1.0, SELF_CHECK_ROWS + 1.0)
    return 2.0 + 1.0 / (i + 1.3), -1.0 + 1.0 / (i[1:] + 2.7), 1.0 / (i + 0.3) - 0.2


# the bundled dgtsv once the first solve has looked it up; False without it
_dgtsv = None


def newton_frozen_a(residual_fn, jacobian_fn, u0, opts, budget=None):
    """Plain (semismooth) Newton with a direct tridiagonal linear solve.

    ``budget`` bounds the number of updates (defaults to opts.max_inner);
    the natural initial guess is the previous time-step solution.  The
    history holds the residual at ``u0``, then one per update.  ``u0`` is
    not copied: iterates are fresh arrays and none is modified in place.
    """
    if budget is None:
        budget = opts.max_inner
    u = np.asarray(u0, dtype=float)
    r = residual_fn(u)
    history = [_largest(abs(r))]
    iters = 0
    # written so that a NaN residual is not taken as converged
    while not history[-1] <= opts.tol:
        if iters >= budget:
            raise NonConvergence(
                f"Newton stalled at residual {history[-1]:.3e} after {iters} iterations",
                residual=history[-1],
                report=StepReport(1, iters, history, False),
            )
        diag, off = jacobian_fn(u)
        u = u - thomas_solve(diag, off, r)
        r = residual_fn(u)
        history.append(_largest(abs(r)))
        iters += 1
    return u, StepReport(1, iters, history, True)


def double_iteration(problem, opts):
    """Outer matrix-lagging loop around the frozen-matrix Newton solve.

    Each pass assembles the diffusion matrix at the current iterate and
    runs Newton on it with the step's remaining budget.  A pass's starting
    residual is therefore the true nonlinear residual, and a pass that
    needs no update accepts the step: accepted steps always satisfy the
    true system.  ``outer_iters`` counts the passes before the accepting
    one, and at least 1; the history joins every pass's history whole.
    Every pass but the last makes at least one update, so the Newton
    budget bounds the passes too: a step runs at most ``max_inner + 1``.
    """
    u = problem.initial_guess
    history = []
    inner_total = 0
    for passes in itertools.count(1):
        asm = problem.assemble(u)
        try:
            u, rep = newton_frozen_a(
                lambda v: problem.residual(v, asm),
                lambda v: problem.jacobian(v, asm),
                u,
                opts,
                budget=opts.max_inner - inner_total,
            )
        except NonConvergence as err:
            # report the whole step, not only the pass that ran out of budget
            inner_total += err.report.inner_iters_total
            history.extend(err.report.residual_history)
            raise NonConvergence(
                f"Newton stalled at residual {err.residual:.3e} "
                f"(inner iterations {inner_total}, outer passes {passes})",
                residual=err.residual,
                report=StepReport(passes, inner_total, history, False),
            ) from err
        inner_total += rep.inner_iters_total
        history.extend(rep.residual_history)
        if rep.inner_iters_total == 0:
            return u, StepReport(max(passes - 1, 1), inner_total, history, True)


def fixed_point_monolithic(problem, opts):
    """Monolithic fixed point lagging both the fraction term and the matrix.

    Each sweep solves the capacity system C(U) + tau*A_bar*U = w exactly
    (a single linear solve when c(u)=u, a short Newton otherwise) with the
    fraction term taken from the previous sweep.  Sweeping stops when
    successive iterates agree to tolerance and the true residual is below
    tolerance, or after ``max_outer`` sweeps with NonConvergence.
    """
    u = problem.initial_guess
    m = problem.material
    tau = problem.tau
    capacity_opts = replace(opts, tol=max(opts.tol * 1e-3, 1e-14))
    history = []
    inner_total = 0
    # the matrix at each sweep's iterate also gives the true residual that ends the sweep before
    asm = problem.assemble(u)
    for sweep in range(1, opts.max_outer + 1):
        w = problem.rhs - problem.closure_fraction(u) + tau * asm.bc_rhs
        tau_diag, tau_off = tau * asm.diag, tau * asm.off
        u_new, rep = newton_frozen_a(
            lambda v: problem.laws(v).capacity_energy(m) + tau * asm.matvec(v) - w,
            lambda v: (problem.laws(v).capacity_slope(m) + tau_diag, tau_off),
            u,
            capacity_opts,
            budget=40,
        )
        inner_total += rep.inner_iters_total
        diff = float(abs(u_new - u).max())
        asm = problem.assemble(u_new)
        true_norm = float(abs(problem.residual(u_new, asm)).max())
        history.append(true_norm)
        u = u_new
        if diff <= opts.tol and true_norm <= opts.tol:
            return u, StepReport(sweep, inner_total, history, True)
    raise NonConvergence(
        f"fixed point stalled after {opts.max_outer} sweeps",
        residual=history[-1],
        report=StepReport(opts.max_outer, inner_total, history, False),
    )


def solve_step(problem, opts):
    """Dispatch one implicit step to the configured strategy."""
    if opts.strategy == NEWTON_ALAG:
        return double_iteration(problem, opts)
    if opts.strategy == FIXED_POINT:
        return fixed_point_monolithic(problem, opts)
    raise ValueError(f"unknown solver strategy {opts.strategy!r}")


def contraction_diagnostic(problem):
    """Analytic contraction bounds with probed matrix constants.

    Estimates the matrix Lipschitz constant as the largest
    ``||(A(u1) - A(u2)) xi|| / (||u1 - u2|| ||xi||)`` over random probes
    assembled by ``problem.assemble`` (zero when the matrix does not
    depend on the state) and the coercivity constant from random Rayleigh
    quotients, then evaluates the two contraction bounds: the
    matrix-lagging bound ``tau*L_A*||g||/(1 + tau*kappa0)`` and the
    monolithic fixed-point bound
    ``(tau*L_A + L_F)*(||g|| + F_sup)/(1 + tau*kappa0)``.  Reporting only;
    probing uses a fixed seed so reports are reproducible.
    """
    rng = np.random.default_rng(DIAGNOSTIC_SEED)
    u0 = np.asarray(problem.initial_guess, dtype=float)
    n = u0.shape[0]
    asm = problem.assemble(u0)

    kappa = np.inf
    for _ in range(DIAGNOSTIC_PROBES):
        xi = rng.standard_normal(n)
        kappa = min(kappa, float(xi @ asm.matvec(xi) / (xi @ xi)))

    lipschitz = 0.0
    spread = max(1.0, float(np.max(np.abs(u0))))
    for _ in range(DIAGNOSTIC_PROBES):
        u1 = u0 + spread * rng.standard_normal(n)
        u2 = u0 + spread * rng.standard_normal(n)
        xi = rng.standard_normal(n)
        diff = problem.assemble(u1).matvec(xi) - problem.assemble(u2).matvec(xi)
        ratio = np.linalg.norm(diff) / (np.linalg.norm(u1 - u2) * np.linalg.norm(xi))
        lipschitz = max(lipschitz, float(ratio))

    g_norm = float(np.linalg.norm(problem.rhs))
    tau = problem.tau
    l_f = problem.material.b
    denom = 1.0 + tau * kappa
    return {
        "lipschitz_estimate": lipschitz,
        "coercivity_estimate": kappa,
        "alag_bound": tau * lipschitz * g_norm / denom,
        "fixed_point_bound": (tau * lipschitz + l_f) * (g_norm + FRACTION_SUP) / denom,
    }
