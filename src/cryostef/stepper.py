"""Per-step implicit systems for the three fraction closures and the time loop.

Each backward-Euler step solves

    C(U) + Y(U) + tau*(A_bar U - bc) = tau*f + C(U_prev) + Y_prev

where Y(U) is the liquid-fraction update of the active closure:
equilibrium pins it to the fraction curve, the kinetic closure relaxes it
toward that curve with rate B, and the hysteretic closure clamps its
distance from the curve into a lagged envelope gap.  The sensible energy
C(U) is kept fully implicit; its slope only enters the Newton Jacobian.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import solve as solvers
from .constitutive import (
    EXP_FLOOR,
    HysteresisEnvelope,
    PointwiseLaws,
    capacity_energy,
    constant,
    equilibrium_fraction,
    select,
)
from .errors import InfeasibleState, InvalidBounds, NonConvergence
from .grid import assemble

EQ = "eq"
NEQ = "neq"
HYST = "hyst"

_PACKAGE = __name__.partition(".")[0]

_ZERO = constant(0.0)


@dataclass(frozen=True)
class Closure:
    """Which fraction law closes the energy balance.

    ``rate`` is the relaxation rate of the kinetic law; ``envelope`` the
    calibrated hysteresis bounds.  Exactly the field matching ``kind`` is
    required.
    """

    kind: str
    rate: float | None = None
    envelope: HysteresisEnvelope | None = None

    def __post_init__(self):
        if self.kind == NEQ:
            if self.rate is None or not self.rate > 0.0:
                raise ValueError(f"kinetic closure needs a positive rate, got {self.rate}")
        elif self.kind == HYST:
            if self.envelope is None:
                raise ValueError("hysteretic closure needs a calibrated envelope")
        elif self.kind != EQ:
            raise ValueError(f"unknown closure kind {self.kind!r}")

    @staticmethod
    def equilibrium():
        return Closure(EQ)

    @staticmethod
    def kinetic(rate):
        return Closure(NEQ, rate=rate)

    @staticmethod
    def hysteresis(envelope):
        return Closure(HYST, envelope=envelope)


@dataclass
class TimeState:
    """Temperature and fraction vectors at one time level.

    ``beta`` records the lagged envelope gap that produced this state
    (hysteretic runs only).
    """

    t: float
    u: np.ndarray
    upsilon: np.ndarray
    beta: np.ndarray | None = None


def closure_fraction(closure, u, upsilon_prev, beta, tau, material):
    """Fraction update of the active closure at candidate temperatures ``u``.

    A negative hysteretic gap ``beta`` from the caller is rejected.
    """
    if closure.kind == HYST and np.any(np.asarray(beta) < 0.0):
        raise InvalidBounds("negative envelope gap")
    update, _ = _closure_laws(closure, upsilon_prev, beta, tau)
    return update(equilibrium_fraction(u, material.b))


def _closure_laws(closure, upsilon_prev, beta, tau):
    # the closure's fraction Y(f) and its slope dY/dU(f, fp), given the
    # equilibrium fraction f at the iterate and its slope fp, resolved once
    # per step; the clamp contributes nothing to the slope while strictly
    # inside its interval and the full fraction slope while pinned to a bound
    if closure.kind == EQ:
        return (lambda f: f), (lambda f, fp: fp)
    if closure.kind == NEQ:
        w = 1.0 / (1.0 + tau * closure.rate)
        c1 = constant(1.0 - w)
        c0 = w * upsilon_prev
        return (lambda f: c1 * f + c0), (lambda f, fp: c1 * fp)

    def update(f):
        # the array method np.clip calls: minimum(maximum(.)) would keep the
        # other of two NaNs (a NaN upsilon_prev and a NaN gap), and so would
        # the sum with f
        return f + (upsilon_prev - f).clip(_ZERO, beta)

    def slope(f, fp):
        s = upsilon_prev - f
        return select(np.greater(s, _ZERO) & np.less(s, beta), _ZERO, fp)

    return update, slope


class StepProblem:
    """One implicit step with everything but the matrix frozen.

    The closure, the previous fraction, the lagged envelope gap, and the
    right-hand side are fixed at construction; the diffusion matrix is
    supplied by ``assembler``, kept as ``assemble``, and may be refreshed
    at any iterate, which is what the matrix-lagging outer loop does.

    The pointwise laws, the sensible energy and the stored energy are
    evaluated once per iterate: the last evaluation is kept with the object
    it was made at and reused while the same object comes back.  Iterates
    are therefore never modified in place.  The Jacobian's diagonal and
    off-diagonal shares of the matrix, tau times its own, are likewise made
    once per assembly object.

    ``start``, when given, is the laws and the sensible energy at ``prev.u``
    from an earlier evaluation, as ``advance`` carries them from the step
    before: the initial guess starts from them, and the right-hand side,
    the envelope gap's lower curve and the first residual read them.  The
    carry assumes nothing of a state's ``u`` but its bytes: it keeps a copy
    of the accepted state's bytes and hands ``start`` to a step only when
    ``prev.u`` holds them, so a ``u`` edited in place since, or of another
    dtype, is evaluated afresh.  The laws it keeps refer to that state's
    ``u`` array, which a step does not modify.
    """

    def __init__(self, prev, closure, tau, f_n, material, assembler, start=None):
        self.tau = tau
        self._tau = constant(tau)
        self.material = material
        self._b = material.coefficients.b
        self.assemble = assembler
        u0 = self.initial_guess = np.array(prev.u, dtype=float, copy=True)
        # holding each key keeps its id from being reused by another object
        self._energy_at = self._matrix_at = None
        if start is None:
            self._laws_at = self._sensible_at = None
        else:
            self._laws, self._sensible = start
            self._laws_at = self._sensible_at = u0
        laws = self.laws(u0)
        self.beta = None
        if closure.kind == HYST:
            env = closure.envelope
            # the lower curve at prev.u is the fraction at u0 when the steepness agrees
            self.beta = env.gap(u0, laws.fraction if env.b == material.b else None)
        self._update, self._slope = _closure_laws(closure, prev.upsilon, self.beta, tau)
        self.rhs = tau * np.asarray(f_n, dtype=float) + self.sensible_energy(u0) + prev.upsilon

    def laws(self, u):
        """The pointwise laws at ``u``, evaluated once per iterate object."""
        if u is not self._laws_at:
            self._laws = PointwiseLaws(u, self._b)
            self._laws_at = u
        return self._laws

    def sensible_energy(self, u):
        """The sensible energy at ``u``, once per iterate object."""
        if u is not self._sensible_at:
            self._sensible = self.laws(u).capacity_energy(self.material)
            self._sensible_at = u
        return self._sensible

    def closure_fraction(self, u):
        return self._update(self.laws(u).fraction)

    def energy(self, u):
        """Sensible energy plus closure fraction at ``u``, once per iterate object."""
        if u is not self._energy_at:
            self._energy = self.sensible_energy(u) + self.closure_fraction(u)
            self._energy_at = u
        return self._energy

    def residual(self, u, asm):
        # energy + tau*(A u - bc) - rhs, the operations in that order
        r = asm.matvec(u)
        np.subtract(r, asm.bc_rhs, out=r)
        np.multiply(self._tau, r, out=r)
        np.add(self.energy(u), r, out=r)
        return np.subtract(r, self.rhs, out=r)

    def jacobian(self, u, asm):
        laws = self.laws(u)
        if asm is not self._matrix_at:
            self._tau_diag = self._tau * asm.diag
            self._off = self._tau * asm.off
            self._matrix_at = asm
        diag = laws.capacity_slope(self.material)
        np.add(diag, self._slope(laws.fraction, laws.fraction_slope()), out=diag)
        np.add(diag, self._tau_diag, out=diag)
        return diag, self._off


def _carried_for(u, context):
    # what the last accepted step kept at its state, when ``u`` holds that
    # state's bytes in the same material, grid and face average, else None
    key, kept = _carried
    if key is None or key[1:] != (u.dtype, *context) or key[0] != u.tobytes():
        return None
    return kept


# the laws, the sensible energy and the matrix at the state the last step
# accepted, keyed by a copy of its bytes: one state's arrays, read and
# replaced whole, whichever run made them
_carried = (None, None)


def advance(prev, tau, closure, material, grid, f_fn, bc_fn, opts, face_average="harmonic"):
    """Advance one step; boundary data and source sampled at the new time.

    ``f_fn(t)`` returns the source at cell centers (scalar broadcasts);
    ``bc_fn(t)`` returns the pair of Dirichlet temperatures.  For
    hysteretic runs the envelope gap is computed from the previous
    temperatures before the solve.  A step whose ``prev.u`` holds the
    bytes of the state the last step accepted, in the same material, grid
    and face average, starts from the laws and the matrix evaluated there
    and makes only the matrix's boundary term again.
    """
    global _carried
    if not tau > 0.0:
        raise ValueError(f"time step must be positive, got {tau}")
    t_new = prev.t + tau
    ud_left, ud_right = bc_fn(t_new)
    f_n = np.broadcast_to(np.asarray(f_fn(t_new), dtype=float), prev.u.shape)
    context = (material, grid, face_average)
    start, matrix = _carried_for(prev.u, context) or (None, None)
    assembled = None, None  # the last assembly's iterate, and the assembly

    def assembler(u):
        nonlocal assembled
        if u is problem.initial_guess and matrix is not None:
            asm = matrix.with_boundary_data(ud_left, ud_right)
        else:
            # the conductivity comes from the problem's evaluation at u
            k = problem.laws(u).conductivity(material)
            asm = assemble(u, material, grid, ud_left, ud_right, face_average, k=k)
        assembled = u, asm
        return asm

    problem = StepProblem(prev, closure, tau, f_n, material, assembler, start)
    try:
        u_new, report = solvers.solve_step(problem, opts)
    except NonConvergence as err:
        err.t = t_new
        raise
    finally:
        # the assembler refers back to the problem; unlinking them lets
        # reference counting free the step's arrays now, not the cyclic
        # collector at some later step
        problem.assemble = None
    upsilon_new = problem.closure_fraction(u_new)
    start = problem.laws(u_new), problem.sensible_energy(u_new)
    matrix = assembled[1] if assembled[0] is u_new else None
    _carried = (u_new.tobytes(), u_new.dtype, *context), (start, matrix)
    return TimeState(t_new, u_new, np.asarray(upsilon_new, dtype=float), problem.beta), report


def validate_initial_fraction(closure, material, u0, chi0, strict=False):
    """Apply the per-closure rules to a proposed initial fraction.

    Equilibrium runs always restart on the fraction curve; theirs is the
    only rule that reads ``material``.  Kinetic runs accept anything in
    [0, 1].  Hysteretic runs clamp into the envelope at the initial
    temperatures.  Out-of-range data raises in strict mode and is clamped
    with a warning otherwise; the message names the value, its interval
    and its temperature, for an array at the cell furthest outside.
    """
    u0 = np.asarray(u0, dtype=float)
    if closure.kind == EQ:
        return np.asarray(equilibrium_fraction(u0, material.b), dtype=float)
    chi0 = np.broadcast_to(np.asarray(chi0, dtype=float), u0.shape)
    if closure.kind == NEQ:
        bounds = "unit interval"
        lo = np.zeros_like(u0)
        hi = np.ones_like(u0)
    else:
        bounds = "envelope"
        env = closure.envelope
        lo = np.asarray(env.lower(u0), dtype=float)
        hi = lo + env.gap(u0)
    outside = (chi0 < lo - 1e-12) | (chi0 > hi + 1e-12)
    if np.any(outside):
        j = int(np.argmax(np.maximum(lo - chi0, chi0 - hi)))
        message = (
            f"initial fraction {chi0.flat[j]} {'outside' if strict else 'clamped into'} its "
            f"{bounds} [{lo.flat[j]}, {hi.flat[j]}] at u={u0.flat[j]}"
        )
        if u0.ndim:
            n_out = np.count_nonzero(outside)
            message += f" in cell {j}, the worst of {n_out} of {u0.size} cells outside"
        if strict:
            raise InfeasibleState(message)
        warnings.warn(message, RuntimeWarning, stacklevel=_stacklevel_outside_package())
    return np.clip(chi0, lo, hi)


def _stacklevel_outside_package():
    # the stacklevel, for the function that calls this one, of the first
    # frame outside this package's modules: the line of the caller's own
    # code, which under ``python -m cryostef.cli`` is cli.py run as __main__
    level, frame = 1, sys._getframe(1)
    while frame is not None and frame.f_globals.get("__name__", "").partition(".")[0] == _PACKAGE:
        level, frame = level + 1, frame.f_back
    return level


def energy_balance_defect(prev, new, material, grid, bc, f_n, tau, face_average="harmonic"):
    """Discrete energy bookkeeping error of an accepted step.

    Compares the change of total stored energy against sources minus the
    Dirichlet boundary fluxes, using the same transmissibilities as the
    assembly at the accepted state.  Equals the cell-sum of the step
    residual, so it inherits the solver tolerance.
    """
    ud_left, ud_right = bc
    asm = assemble(new.u, material, grid, ud_left, ud_right, face_average)
    t_left, t_right = asm.boundary
    h = grid.h
    stored = h * float(
        np.sum(
            capacity_energy(new.u, material)
            + new.upsilon
            - capacity_energy(prev.u, material)
            - prev.upsilon
        )
    )
    flux_out = t_left * (new.u[0] - ud_left) + t_right * (new.u[-1] - ud_right)
    supplied = tau * h * float(np.sum(f_n)) - tau * h * flux_out
    return stored - supplied


# ---------------------------------------------------------------------------
# Scalar fast path for the single-point coupled system du/dt + dchi/dt + a*u = f
# with c(u) = u.  Kept in plain floats because the fine-step convergence runs
# take ~1e5 steps; equivalence with the vector machinery is covered by tests.


def _fraction(u, b):
    if u >= 0.0:
        return 1.0
    z = b * u
    return math.exp(z) if z >= EXP_FLOOR else 0.0


def _envelope_gap(theta, env):
    # the upper curve is the lower one outside [theta0, 0], so no gap there
    if theta < env.theta0 or theta > 0.0:
        return 0.0
    g = env.a * math.exp(env.b_bar * theta) + env.D * theta + env.C
    # max(min(g, 1.0) - F, 0.0) without the builtin calls, bit for bit
    d = (1.0 if 1.0 < g else g) - _fraction(theta, env.b)
    return 0.0 if 0.0 > d else d


class ScalarOdeStepper:
    """Implicit integrator for the scalar coupled system with fixed stiffness.

    Solves u + chi(u) + tau*a*u = tau*f + u_prev + chi_prev per step by
    semismooth Newton on plain floats; ``chi(u)`` follows the configured
    closure exactly as in the vector stepper.  The closure is resolved
    once per step: eq and neq share the kinetic law
    ``chi = (1 - w)*f + w*chi_prev`` with relaxation weight ``w = 0`` for
    eq and ``1/(1 + tau*rate)`` for neq, so eq gives ``1.0*f + 0.0 == f``;
    hyst clamps ``chi_prev - f`` into the lagged envelope gap.  The
    stiffness ``a_coef`` must be non-negative, so the Newton slope
    ``1 + dchi + tau*a`` is at least 1 and the division never fails.

    The stepper keeps the fraction ``F(u)`` of the state it last accepted,
    with that float object: a step handed the same object back as
    ``u_prev`` starts from the kept value, any other float is evaluated
    afresh.  Floats are immutable, so the two give the same bits.
    """

    def __init__(self, closure, b, a_coef, tol=1e-8, max_iter=20):
        if closure.kind == HYST and not math.isclose(closure.envelope.b, b):
            raise ValueError("envelope steepness must match the fraction steepness")
        if not a_coef >= 0.0:
            raise ValueError(f"stiffness a_coef must be non-negative, got {a_coef}")
        self.closure = closure
        self.b = b
        self.a_coef = a_coef
        self.tol = tol
        self.max_iter = max_iter
        # holding the accepted state keeps its id from going to another object
        self._accepted_u = self._accepted_f = None

    def step(self, u_prev, chi_prev, tau, f_value):
        """One implicit step; returns (u, chi, iterations, residual).

        Expects plain floats, which the state and residual returned stay:
        a numpy scalar argument would make every Newton iterate pay for
        numpy scalar arithmetic.
        """
        g = tau * f_value + u_prev + chi_prev
        ta = tau * self.a_coef
        b = self.b
        tol = self.tol
        hyst = self.closure.kind == HYST
        if hyst:
            beta = _envelope_gap(u_prev, self.closure.envelope)
        else:
            w = 0.0 if self.closure.kind == EQ else 1.0 / (1.0 + tau * self.closure.rate)
            c1 = 1.0 - w
            c0 = w * chi_prev
        u = u_prev
        f = self._accepted_f if u is self._accepted_u else _fraction(u, b)
        for it in range(self.max_iter + 1):
            if hyst:
                s = chi_prev - f
                # min(max(s, 0.0), beta) without the builtin calls: the same
                # operand on ties, signed zeros and NaN
                c = 0.0 if 0.0 > s else s
                chi = f + (beta if beta < c else c)
            else:
                chi = c1 * f + c0
            phi = u + chi + ta * u - g
            if abs(phi) <= tol:
                self._accepted_u, self._accepted_f = u, f
                return u, chi, it, abs(phi)
            # the fraction slope is b*f below the kink
            fp = 0.0 if u > 0.0 else b * f
            # the clamp adds nothing to the slope strictly inside its interval
            if hyst:
                dchi = 0.0 if 0.0 < s < beta else fp
            else:
                dchi = c1 * fp
            u -= phi / (1.0 + dchi + ta)
            # one exponential per iterate
            f = _fraction(u, b)
        raise NonConvergence(
            f"scalar step stalled at residual {abs(phi):.3e}", residual=abs(phi)
        )
