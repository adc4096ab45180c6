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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import Divergence, NonConvergence, SingularJacobian

NEWTON_ALAG = "newton-alag"
FIXED_POINT = "fixed-point"
STRATEGIES = (NEWTON_ALAG, FIXED_POINT)

# Saturation value of the fraction term, used in the a-priori iterate bound.
FRACTION_SUP = 1.0

# Random probes per estimated constant, and their seed, in contraction_diagnostic.
DIAGNOSTIC_PROBES = 32
DIAGNOSTIC_SEED = 0


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
        if self.tol <= 0.0:
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
    here); a collapsing pivot signals that assumption failed.
    """
    n = diag.shape[0]
    scale = float(abs(diag).max())
    if off.size:
        scale = max(scale, float(abs(off).max()))
    tiny = max(scale, 1.0) * 1e-15

    # plain Python floats: a numpy scalar per operation costs more than the
    # arithmetic; tests hold the result bit-equal to the same loop in numpy
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
    history = [float(abs(r).max())]
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
        history.append(float(abs(r).max()))
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
    tolerance; iterates leaving twice the a-priori bound raise Divergence.
    """
    u = problem.initial_guess
    # a-priori bound on the iterates: coercivity dropped (kappa0 = 0), the
    # capacity's lower slope in the denominator, and the fraction term
    # bounded by its saturation value in every cell
    m = problem.material
    tau = problem.tau
    c_min = min(m.c_u, m.c_f)
    bound = (
        float(np.linalg.norm(problem.rhs)) + math.sqrt(u.size) * FRACTION_SUP
    ) / c_min
    capacity_opts = replace(opts, tol=max(opts.tol * 1e-3, 1e-14))
    history = []
    inner_total = 0
    # the matrix at each sweep's iterate also gives the true residual that ends the sweep before
    asm = problem.assemble(u)
    for sweep in range(1, opts.max_outer + 1):
        w = problem.rhs - problem.closure_fraction(u) + tau * asm.bc_rhs
        tau_diag, tau_off = problem.scaled_matrix(asm)
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
        if float(np.linalg.norm(u_new)) > 2.0 * bound:
            raise Divergence(
                f"iterate norm {np.linalg.norm(u_new):.3e} left the a-priori bound {bound:.3e}"
            )
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
