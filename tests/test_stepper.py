import math
import re
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import (
    ScalarStepPerIterate,
    _scalar_envelope_gap,
    _scalar_fraction,
    bisect,
    bits,
    cell_arrays,
    cell_values,
    dense_step_residual,
    hysteretic_update,
    kinetic_update,
    pointwise_laws,
    tridiagonal_matvec,
)

from cryostef import cli
from cryostef import stepper as stepper_module
from cryostef.config import load_config
from cryostef.constitutive import (
    EXP_FLOOR,
    HysteresisEnvelope,
    PointwiseLaws,
    ScaledMaterial,
    calibrate_envelope,
    capacity_energy,
    equilibrium_fraction,
)
from cryostef.errors import InfeasibleState, InvalidBounds, NonConvergence
from cryostef.grid import Grid1D, StiffnessAssembly, assemble
from cryostef.play import drive_play
from cryostef.solve import SolverOptions, solve_step
from cryostef.stepper import (
    Closure,
    ScalarOdeStepper,
    StepProblem,
    TimeState,
    _closure_laws,
    _envelope_gap,
    advance,
    closure_fraction,
    energy_balance_defect,
    validate_initial_fraction,
)


def _bits(values):
    # float bit patterns: -0.0 differs from 0.0, and NaN equals itself
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def scalar_assembly(kappa):
    return StiffnessAssembly(diag=np.array([kappa]), off=np.array([]), bc_rhs=np.zeros(1))


def frozen_problem(prev, closure, asm, f_n, tau, material):
    # the production step system with its matrix fixed at ``asm``
    return StepProblem(prev, closure, tau, f_n, material, lambda v: asm)


class TestClosureFraction:
    def test_eq_is_fraction_curve(self, material, rng):
        u = rng.uniform(-6, 3, size=10)
        out = closure_fraction(Closure.equilibrium(), u, None, None, 0.01, material)
        assert np.allclose(out, equilibrium_fraction(u, material.b), atol=0)

    def test_vanishing_rate_freezes_fraction(self, material, rng):
        u = rng.uniform(-6, 3, size=10)
        prev = rng.uniform(0, 1, size=10)
        out = closure_fraction(Closure.kinetic(1e-12), u, prev, None, 0.01, material)
        assert np.max(np.abs(out - prev)) <= 1e-10

    def test_huge_rate_recovers_equilibrium(self, material, rng):
        u = rng.uniform(-6, 3, size=10)
        prev = rng.uniform(0, 1, size=10)
        out = closure_fraction(Closure.kinetic(1e9 / 0.01), u, prev, None, 0.01, material)
        assert np.max(np.abs(out - equilibrium_fraction(u, material.b))) <= 1e-8

    def test_hyst_on_curve_stays_on_curve(self, material, envelope_ii, rng):
        u = rng.uniform(-6, 3, size=10)
        f = np.asarray(equilibrium_fraction(u, material.b))
        beta = rng.uniform(0, 0.5, size=10)
        out = closure_fraction(Closure.hysteresis(envelope_ii), u, f, beta, 0.01, material)
        assert np.allclose(out, f, atol=0)

    def test_negative_gap_rejected(self, material, envelope_ii):
        with pytest.raises(InvalidBounds):
            closure_fraction(
                Closure.hysteresis(envelope_ii),
                np.array([-1.0]),
                np.array([0.5]),
                np.array([-0.1]),
                0.01,
                material,
            )

    def test_closure_validation(self, envelope_ii):
        with pytest.raises(ValueError):
            Closure.kinetic(0.0)
        with pytest.raises(ValueError):
            Closure("hyst")
        with pytest.raises(ValueError):
            Closure("bogus")


class TestStepResidual:
    def test_stationary_state_has_zero_residual(self, material, rng):
        g = Grid1D(8)
        u_prev = rng.uniform(-4, 2, size=8)
        closure = Closure.equilibrium()
        prev = TimeState(0.0, u_prev, np.asarray(equilibrium_fraction(u_prev, material.b)))
        asm = assemble(u_prev, material, g, 1.0, -1.0)
        f_n = asm.matvec(u_prev) - asm.bc_rhs  # balances the diffusion exactly
        r = frozen_problem(prev, closure, asm, f_n, 0.05, material).residual(u_prev, asm)
        assert np.max(np.abs(r)) <= 1e-14

    def test_scalar_eq_root_matches_bisection(self, unit_material):
        # u + F(u) + tau*kappa*u = g on a single cell
        tau, kappa, g_val = 0.3, 2.0, 0.4
        closure = Closure.equilibrium()
        prev = TimeState(0.0, np.array([-1.0]), np.array([math.exp(-1.0)]))
        asm = scalar_assembly(kappa)
        rhs_shift = tau * 0.0 + capacity_energy(prev.u, unit_material) + prev.upsilon
        g_total = float(rhs_shift[0]) + g_val

        def scalar_residual(u):
            return (
                u
                + float(equilibrium_fraction(u, 1.0))
                + tau * kappa * u
                - g_total
            )

        root = bisect(scalar_residual, -50.0, 50.0)
        f_n = np.array([g_val / tau])
        problem = frozen_problem(prev, closure, asm, f_n, tau, unit_material)
        r = problem.residual(np.array([root]), asm)
        assert abs(float(r[0])) <= 1e-12

    def test_matches_independent_dense_evaluation(self, material, envelope_ii, rng):
        # rebuild the residual from scratch with dense linear algebra on M=5
        g = Grid1D(5)
        tau = 0.02
        u_prev = rng.uniform(-5, 2, size=5)
        ups_prev = np.clip(
            np.asarray(equilibrium_fraction(u_prev, material.b)) + rng.uniform(0, 0.2, 5), 0, 1
        )
        ud = (3.0, -2.0)
        f_n = rng.standard_normal(5)
        for closure in (
            Closure.equilibrium(),
            Closure.kinetic(5.0),
            Closure.hysteresis(envelope_ii),
        ):
            prev = TimeState(0.0, u_prev, ups_prev)
            for _ in range(5):
                u = rng.uniform(-5, 2, size=5)
                asm = assemble(u, material, g, *ud)
                got = frozen_problem(prev, closure, asm, f_n, tau, material).residual(u, asm)

                want = dense_step_residual(
                    u, u_prev, ups_prev, closure, material, g.h, ud, f_n, tau
                )
                assert np.max(np.abs(got - want)) <= 1e-12


class TestStepJacobian:
    def test_scalar_hand_value(self, unit_material):
        tau, kappa, b = 0.3, 2.0, 1.0
        prev = TimeState(0.0, np.array([-1.0]), np.array([math.exp(-1.0)]))
        asm = scalar_assembly(kappa)
        problem = frozen_problem(prev, Closure.equilibrium(), asm, np.zeros(1), tau, unit_material)
        diag, off = problem.jacobian(np.array([-1.0]), asm)
        assert off.size == 0
        assert float(diag[0]) == pytest.approx(1.0 + b * math.exp(-b) + tau * kappa, abs=1e-14)

    def test_directional_finite_difference(self, material, envelope_ii, rng):
        g = Grid1D(6)
        tau = 0.05
        u_prev = rng.uniform(-5, -1, size=6)
        ups_prev = np.asarray(equilibrium_fraction(u_prev, material.b)) + 0.05
        ud = (2.0, -3.0)
        for closure in (
            Closure.equilibrium(),
            Closure.kinetic(3.0),
            Closure.hysteresis(envelope_ii),
        ):
            prev = TimeState(0.0, u_prev, np.clip(ups_prev, 0, 1))
            u = rng.uniform(-5, -1, size=6)  # all away from the kink at zero
            asm = assemble(u, material, g, *ud)
            problem = frozen_problem(prev, closure, asm, np.zeros(6), tau, material)
            diag, off = problem.jacobian(u, asm)
            r0 = problem.residual(u, asm)
            for _ in range(5):
                delta = 1e-7 * rng.standard_normal(6)
                r1 = problem.residual(u + delta, asm)
                jd = diag * delta
                jd[:-1] += off * delta[1:]
                jd[1:] += off * delta[:-1]
                err = np.linalg.norm(jd - (r1 - r0))
                assert err <= 1e-6 * np.linalg.norm(delta)

    def test_off_diagonal_made_once_per_assembly(self, material, rng):
        # the Newton iterates of one outer pass share the scaled off-diagonal
        g = Grid1D(6)
        tau = 0.05
        u0 = rng.uniform(-5, -1, size=6)
        prev = TimeState(0.0, u0, np.asarray(equilibrium_fraction(u0, material.b)))
        problem = StepProblem(
            prev, Closure.equilibrium(), tau, np.zeros(6), material,
            lambda v: assemble(v, material, g, 2.0, -3.0),
        )
        asm = problem.assemble(u0)
        _, off = problem.jacobian(u0, asm)
        _, again = problem.jacobian(u0 + 0.1, asm)
        assert again is off
        assert _bits(off) == _bits(tau * asm.off)
        fresh = problem.assemble(u0 + 0.1)
        _, other = problem.jacobian(u0 + 0.1, fresh)
        assert other is not off
        assert _bits(other) == _bits(tau * fresh.off)

    def test_hyst_interior_play_contributes_nothing(self, material, envelope_ii):
        u = np.array([-2.0])
        beta = float(envelope_ii.gap(u)[0])
        assert beta > 0.1
        ups_prev = np.asarray(equilibrium_fraction(u, material.b)) + 0.5 * beta
        prev = TimeState(0.0, u, ups_prev)
        tau, asm = 0.05, scalar_assembly(1.0)
        diag, _ = frozen_problem(
            prev, Closure.hysteresis(envelope_ii), asm, np.zeros(1), tau, material
        ).jacobian(u, asm)
        diag_eq, _ = frozen_problem(
            prev, Closure.equilibrium(), asm, np.zeros(1), tau, material
        ).jacobian(u, asm)
        from cryostef.constitutive import fraction_derivative

        fp = float(fraction_derivative(u, material.b)[0])
        assert float(diag_eq[0] - diag[0]) == pytest.approx(fp, abs=1e-14)


def _gap_values():
    # an envelope gap: maximum(upper - lower, 0) is a signed zero, positive,
    # infinite or NaN
    special = st.sampled_from([0.0, -0.0, math.inf, math.nan, -math.nan, 5e-324])
    return st.one_of(special, st.floats(0.0, 2.0), st.floats(min_value=0.0))


@st.composite
def _clamp_inputs(draw):
    # the fraction and its slope from the laws at any state, as the stepper
    # passes them, and any previous fraction and gap of that shape
    u = draw(cell_arrays(cell_values()))
    with np.errstate(all="ignore"):
        laws = PointwiseLaws(u, 1.0)
        f, fp = laws.fraction, laws.fraction_slope()
    shape = np.shape(u)
    prev = draw(arrays(float, shape, elements=cell_values()))
    beta = draw(arrays(float, shape, elements=_gap_values()))
    return f, fp, prev, beta


class TestClosureLawsAsWritten:
    @settings(max_examples=400, deadline=None)
    @given(_clamp_inputs())
    @example((np.array(1.0), np.array(1.0), np.array(-math.nan), np.array(math.nan)))
    @example((np.array(1.0), np.array(1.0), np.array(math.nan), np.array(-math.nan)))
    @example((np.array(0.0), np.array(1.0), np.array(-0.0), np.array(0.0)))
    def test_hysteretic_clamp_has_the_bits_of_clip(self, inputs):
        # a clamp by maximum and minimum would put -0.0 where clip puts +0.0,
        # which the sum with the fraction (never -0.0) hides, but would keep
        # the gap's NaN where clip keeps the previous fraction's
        f, fp, prev, beta = inputs
        update, slope = _closure_laws(
            Closure.hysteresis(calibrate_envelope(1.0, 0.01, -5.0)), prev, beta, 0.01
        )
        with np.errstate(all="ignore"):
            want = hysteretic_update(f, fp, prev, beta)
            got = update(f), slope(f, fp)
        assert bits(got[0]) == bits(want[0])
        assert bits(got[1]) == bits(want[1])

    @settings(max_examples=200, deadline=None)
    @given(_clamp_inputs(), st.sampled_from([0.1, 0.01, 0.001]), st.floats(1e-3, 1e6))
    def test_kinetic_update_has_the_bits_of_its_formula(self, inputs, tau, rate):
        f, fp, prev, _ = inputs
        update, slope = _closure_laws(Closure.kinetic(rate), prev, None, tau)
        with np.errstate(all="ignore"):
            want = kinetic_update(f, fp, prev, tau, rate)
            got = update(f), slope(f, fp)
        assert bits(got[0]) == bits(want[0])
        assert bits(got[1]) == bits(want[1])

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(["eq", "neq", "hyst"]),
        n=st.integers(2, 30),
        data=st.data(),
    )
    def test_residual_and_jacobian_have_the_bits_of_their_formulas(self, kind, n, data):
        # energy + tau*(A u - bc) - rhs and capacity slope + closure slope +
        # tau*diag, composed from the where-form laws, at any states
        material = ScaledMaterial(b=1.0, c_u=2.94e-2, c_f=2.21e-2, k_u=1.51e-2, k_f=2.06e-2)
        env = calibrate_envelope(1.0, 0.01, -5.0)
        closure = {
            "eq": Closure.equilibrium(),
            "neq": Closure.kinetic(5.0),
            "hyst": Closure.hysteresis(env),
        }[kind]
        draw_cells = arrays(float, n, elements=cell_values())
        u_prev, ups_prev, u, f_n = (data.draw(draw_cells) for _ in range(4))
        tau = 0.01
        with np.errstate(all="ignore"):
            asm = assemble(u, material, Grid1D(n), 5.0, -5.0)
            problem = frozen_problem(TimeState(0.0, u_prev, ups_prev), closure, asm, f_n, tau,
                                     material)
            got_r = problem.residual(u, asm)
            got_d, got_o = problem.jacobian(u, asm)

            coefficients = (material.b, material.c_u, material.c_f, material.k_u, material.k_f)
            at_prev = pointwise_laws(u_prev, *coefficients)
            at_u = pointwise_laws(u, *coefficients)
            f, fp = at_u["fraction"], at_u["fraction_slope"]
            if kind == "eq":
                ups, slope = f, fp
            elif kind == "neq":
                ups, slope = kinetic_update(f, fp, ups_prev, tau, 5.0)
            else:
                lower = at_prev["fraction"]
                beta = np.maximum(env.upper(u_prev, lower) - lower, 0.0)
                ups, slope = hysteretic_update(f, fp, ups_prev, beta)
            rhs = tau * f_n + at_prev["capacity_energy"] + ups_prev
            energy = at_u["capacity_energy"] + ups
            want_r = energy + tau * (tridiagonal_matvec(asm.diag, asm.off, u) - asm.bc_rhs) - rhs
            want_d = at_u["capacity_slope"] + slope + tau * asm.diag
        assert bits(got_r) == bits(want_r)
        assert bits(got_d) == bits(want_d)
        assert bits(got_o) == bits(tau * asm.off)


NAN = float("nan")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SolverOptions(tol=NAN), "tolerance must be positive"),
        (lambda: Closure.kinetic(NAN), "kinetic closure needs a positive rate"),
        (lambda: calibrate_envelope(NAN, 0.01, -5.0), "curve steepness must be positive"),
        (lambda: calibrate_envelope(1.0, NAN, -5.0), "curve steepness must be positive"),
        (lambda: calibrate_envelope(1.0, 0.01, NAN), "match temperature must be negative"),
        (lambda: PointwiseLaws(np.zeros(3), NAN), "steepness must be positive"),
        (
            lambda: advance(
                TimeState(0.0, np.full(4, -1.0), np.ones(4)), NAN, Closure.equilibrium(),
                ScaledMaterial(b=1.0, c_u=1.0, c_f=1.0, k_u=1.0, k_f=1.0), Grid1D(4),
                lambda t: 0.0, lambda t: (-1.0, -1.0), SolverOptions(),
            ),
            "time step must be positive",
        ),
        (
            lambda: drive_play(lambda t: -1.0, calibrate_envelope(1.0, 0.01, -5.0), NAN, 1.0, 0.5),
            "time step must be positive",
        ),
        (
            lambda: drive_play(lambda t: -1.0, calibrate_envelope(1.0, 0.01, -5.0), 0.1, NAN, 0.5),
            "horizon T must be finite, got nan",
        ),
    ],
    ids=["tol", "rate", "b", "b_bar", "theta0", "laws", "advance", "drive_play", "drive_play_T"],
)
def test_positive_guards_reject_nan(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_infinite_solver_tolerance_rejected():
    # an infinite tolerance accepts every residual: no step would make a
    # single Newton update
    with pytest.raises(ValueError, match="tolerance must be positive and finite, got tol=inf"):
        SolverOptions(tol=math.inf)


class TestAdvance:
    def test_stationary_preserved_for_100_steps(self, material):
        g = Grid1D(10)
        u0 = np.full(10, -3.0)
        state = TimeState(0.0, u0, np.asarray(equilibrium_fraction(u0, material.b)))
        opts = SolverOptions()
        bc = lambda t: (-3.0, -3.0)
        f = lambda t: 0.0
        for _ in range(100):
            state, rep = advance(state, 0.01, Closure.equilibrium(), material, g, f, bc, opts)
        assert np.max(np.abs(state.u - u0)) <= 1e-10
        assert np.max(np.abs(state.upsilon - equilibrium_fraction(u0, material.b))) <= 1e-10

    def test_reference_first_step_iteration_bound(self, material):
        # the first step of the thaw-front experiment carries the boundary shock
        g = Grid1D(100)
        u0 = np.full(100, -5.0)
        state = TimeState(0.0, u0, np.asarray(equilibrium_fraction(u0, material.b)))
        opts = SolverOptions()
        bc = lambda t: (5.0, -5.0)
        f = lambda t: 0.0
        state, rep = advance(state, 0.01, Closure.equilibrium(), material, g, f, bc, opts)
        assert rep.converged
        assert rep.inner_iters_total <= 20

    def test_reference_mid_simulation_step_is_cheap(self, material):
        g = Grid1D(100)
        u0 = np.full(100, -5.0)
        state = TimeState(0.0, u0, np.asarray(equilibrium_fraction(u0, material.b)))
        opts = SolverOptions()
        bc = lambda t: (5.0, -5.0)
        f = lambda t: 0.0
        for _ in range(30):  # let the initial shock settle
            state, _ = advance(state, 0.01, Closure.equilibrium(), material, g, f, bc, opts)
        state, rep = advance(state, 0.01, Closure.equilibrium(), material, g, f, bc, opts)
        assert rep.converged
        assert rep.inner_iters_total <= 12

    def test_neq_limit_matches_eq(self, material):
        g = Grid1D(30)
        u0 = np.linspace(-5, 1, 30)
        chi0 = np.asarray(equilibrium_fraction(u0, material.b))
        opts = SolverOptions(max_inner=60)  # harsh double-shock data, not the reference run
        bc = lambda t: (4.0, -4.0)
        f = lambda t: 0.0
        sa = TimeState(0.0, u0.copy(), chi0.copy())
        sb = TimeState(0.0, u0.copy(), chi0.copy())
        for _ in range(20):
            sa, _ = advance(sa, 0.01, Closure.equilibrium(), material, g, f, bc, opts)
            sb, _ = advance(sb, 0.01, Closure.kinetic(1e14), material, g, f, bc, opts)
        assert np.max(np.abs(sa.u - sb.u)) <= 1e-8

    def test_hyst_envelope_containment_every_step(self, material, envelope_ii):
        g = Grid1D(25)
        u0 = np.full(25, -5.0)
        closure = Closure.hysteresis(envelope_ii)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            chi0 = validate_initial_fraction(
                closure, material, u0, equilibrium_fraction(u0, material.b) + 0.1
            )
        state = TimeState(0.0, u0, chi0)
        opts = SolverOptions()
        bc = lambda t: (5.0 * math.sin(2 * t), -5.0)
        f = lambda t: 0.0
        for _ in range(50):
            state, _ = advance(state, 0.02, closure, material, g, f, bc, opts)
            f_u = np.asarray(equilibrium_fraction(state.u, material.b))
            assert np.all(state.upsilon >= f_u - 1e-12)
            assert np.all(state.upsilon <= f_u + state.beta + 1e-12)

    def test_upsilon_stays_in_unit_interval(self, material):
        g = Grid1D(20)
        u0 = np.linspace(-6, 2, 20)
        chi0 = np.full(20, 0.5)
        opts = SolverOptions()
        bc = lambda t: (3.0, -6.0)
        f = lambda t: 0.0
        state = TimeState(0.0, u0, chi0)
        for _ in range(30):
            state, _ = advance(state, 0.05, Closure.kinetic(2.0), material, g, f, bc, opts)
            assert np.all(state.upsilon >= -1e-12) and np.all(state.upsilon <= 1.0 + 1e-12)

    def test_energy_balance_per_step(self, material):
        g = Grid1D(40)
        u0 = np.full(40, -5.0)
        state = TimeState(0.0, u0, np.asarray(equilibrium_fraction(u0, material.b)))
        opts = SolverOptions()
        bc = lambda t: (5.0, -5.0)
        f_fn = lambda t: 0.1
        for _ in range(25):
            prev = state
            state, _ = advance(state, 0.01, Closure.equilibrium(), material, g, f_fn, bc, opts)
            defect = energy_balance_defect(
                prev, state, material, g, bc(state.t), np.full(40, 0.1), 0.01,
            )
            assert abs(defect) <= 1e-8


class TestStepCarry:
    def march(self, monkeypatch, closure, carry=True, edit_after=None, steps=6):
        # six reference steps at M = 50; after step ``edit_after`` one cell of
        # the state moves by one ulp in place.  Without ``carry`` the slot is
        # emptied before each step.  Records each state's bits, each report,
        # and whether each step took what the step before it kept
        material = ScaledMaterial(b=1.0, c_u=2.94e-2, c_f=2.21e-2, k_u=1.51e-2, k_f=2.06e-2)
        grid = Grid1D(50)
        u0 = np.full(50, -5.0)
        state = TimeState(0.0, u0, np.asarray(equilibrium_fraction(u0, 1.0)))
        taken = []
        carried_for = stepper_module._carried_for

        def recording_carried_for(u, context):
            kept = carried_for(u, context)
            taken.append(kept is not None)
            return kept

        monkeypatch.setattr(stepper_module, "_carried_for", recording_carried_for)
        monkeypatch.setattr(stepper_module, "_carried", (None, None))
        rows = []
        for n in range(steps):
            if not carry:
                monkeypatch.setattr(stepper_module, "_carried", (None, None))
            state, rep = advance(
                state, 0.01, closure, material, grid, lambda t: 0.0, lambda t: (5.0, -5.0),
                SolverOptions(),
            )
            if n == edit_after:
                state.u[7] = np.nextafter(state.u[7], 0.0)
            rows.append((_bits(state.u), _bits(state.upsilon), rep.outer_iters,
                         rep.inner_iters_total, rep.residual_history))
        monkeypatch.undo()
        return rows, taken

    @pytest.mark.parametrize("kind", ["eq", "neq", "hyst"])
    def test_state_edited_in_place_is_evaluated_afresh(self, monkeypatch, kind):
        closure = {
            "eq": Closure.equilibrium(),
            "neq": Closure.kinetic(5.0),
            "hyst": Closure.hysteresis(calibrate_envelope(1.0, 0.01, -5.0)),
        }[kind]
        carried, taken = self.march(monkeypatch, closure, edit_after=2)
        fresh, _ = self.march(monkeypatch, closure, carry=False, edit_after=2)
        unedited, _ = self.march(monkeypatch, closure)
        # the step after the edit takes nothing kept, every other but the first does
        assert taken == [False, True, True, False, True, True]
        assert carried == fresh
        # the edit moved the steps after it, so stale laws or a stale matrix would show
        assert carried[3:] != unedited[3:]

    def test_fixed_point_step_from_a_copy_ignores_an_edit_to_the_original(self, monkeypatch):
        # the kept laws refer to the returned state's u, which its caller owns:
        # a step from a copy of that state, taken after the original's u is
        # edited in place, is the step taken with nothing kept
        material = ScaledMaterial(b=1.0, c_u=2.94e-2, c_f=2.21e-2, k_u=1.51e-2, k_f=2.06e-2)
        grid = Grid1D(20)
        opts = SolverOptions(strategy="fixed-point", max_inner=400)
        u0 = np.full(20, -5.0)
        state = TimeState(0.0, u0, np.asarray(equilibrium_fraction(u0, 1.0)))

        def step(prev):
            new, rep = advance(prev, 0.01, Closure.kinetic(5.0), material, grid,
                               lambda t: 0.0, lambda t: (5.0, -5.0), opts)
            return (_bits(new.u), _bits(new.upsilon), rep.outer_iters,
                    rep.inner_iters_total, rep.residual_history)

        monkeypatch.setattr(stepper_module, "_carried", (None, None))
        first, _ = advance(state, 0.01, Closure.kinetic(5.0), material, grid,
                           lambda t: 0.0, lambda t: (5.0, -5.0), opts)
        copy = TimeState(first.t, first.u.copy(), first.upsilon.copy())
        first.u += 1.0
        assert stepper_module._carried_for(copy.u, (material, grid, "harmonic")) is not None
        carried = step(copy)
        monkeypatch.setattr(stepper_module, "_carried", (None, None))
        assert carried == step(copy)

    def test_another_material_grid_or_face_average_takes_nothing(self, monkeypatch):
        # the slot is one for every run: a step of another run whose state
        # holds the same bytes takes it only in the same context
        material = ScaledMaterial(b=1.0, c_u=2.94e-2, c_f=2.21e-2, k_u=1.51e-2, k_f=2.06e-2)
        other = ScaledMaterial(b=2.0, c_u=2.94e-2, c_f=2.21e-2, k_u=1.51e-2, k_f=2.06e-2)
        u0 = np.full(50, -5.0)
        state = TimeState(0.0, u0, np.asarray(equilibrium_fraction(u0, 1.0)))
        monkeypatch.setattr(stepper_module, "_carried", (None, None))
        new, _ = advance(state, 0.01, Closure.equilibrium(), material, Grid1D(50),
                         lambda t: 0.0, lambda t: (5.0, -5.0), SolverOptions())
        u = new.u.copy()
        context = (material, Grid1D(50), "harmonic")
        assert stepper_module._carried_for(u, context) is not None
        for changed in ((other, Grid1D(50), "harmonic"), (material, Grid1D(50), "arithmetic")):
            assert stepper_module._carried_for(u, changed) is None
        assert stepper_module._carried_for(u.view(np.int64), context) is None
        assert stepper_module._carried_for(u[:-1], (material, Grid1D(49), "harmonic")) is None


class TestInitialFraction:
    def test_eq_overwrites(self, material):
        u0 = np.array([-2.0, 1.0])
        out = validate_initial_fraction(Closure.equilibrium(), material, u0, np.array([0.9, 0.1]))
        assert np.allclose(out, equilibrium_fraction(u0, material.b), atol=0)

    def test_neq_accepts_unit_interval(self, material):
        u0 = np.array([-2.0, 1.0])
        chi = np.array([0.3, 0.8])
        out = validate_initial_fraction(Closure.kinetic(5.0), material, u0, chi)
        assert np.array_equal(out, chi)

    def test_neq_out_of_range_warns_then_clamps(self, material):
        u0 = np.array([-2.0])
        with pytest.warns(RuntimeWarning):
            out = validate_initial_fraction(Closure.kinetic(5.0), material, u0, np.array([1.4]))
        assert out[0] == 1.0

    def test_message_names_the_worst_cell(self, material):
        u0 = np.array([-2.0, -1.0, -3.0])
        chi = np.array([1.2, 1.4, 0.5])
        message = (
            "initial fraction 1.4 clamped into its unit interval [0.0, 1.0] at u=-1.0 "
            "in cell 1, the worst of 2 of 3 cells outside"
        )
        with pytest.warns(RuntimeWarning, match=f"^{re.escape(message)}$"):
            validate_initial_fraction(Closure.kinetic(5.0), material, u0, chi)
        strict_message = message.replace("clamped into", "outside")
        with pytest.raises(InfeasibleState, match=f"^{re.escape(strict_message)}$"):
            validate_initial_fraction(Closure.kinetic(5.0), material, u0, chi, strict=True)

    def test_strict_mode_raises(self, material, envelope_ii):
        u0 = np.array([-5.0])
        chi = np.asarray(equilibrium_fraction(u0, material.b)) + 0.1
        with pytest.raises(InfeasibleState):
            validate_initial_fraction(
                Closure.hysteresis(envelope_ii), material, u0, chi, strict=True
            )

    def test_hyst_clamps_into_envelope(self, material, envelope_ii):
        u0 = np.array([-5.0, -1.0])
        chi = np.asarray(equilibrium_fraction(u0, material.b)) + 0.1
        with pytest.warns(RuntimeWarning):
            out = validate_initial_fraction(Closure.hysteresis(envelope_ii), material, u0, chi)
        lo = np.asarray(envelope_ii.lower(u0))
        hi = np.asarray(envelope_ii.upper(u0))
        # the curves only match to rounding at theta0 itself
        assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)

    def test_hyst_start_interval_is_the_steppers_lower_plus_gap(self):
        # the steps bound the fraction by F + gap; where the gap exceeds F,
        # that sum can round away from the upper curve itself, and the start
        # must be clamped to the same bound the first step enforces
        env = calibrate_envelope(1.0, 2.0, -3.0, "two-condition")
        u0 = np.linspace(env.theta0 - 1.0, 1.0, 4001)
        lo = np.asarray(env.lower(u0))
        hi = lo + env.gap(u0)
        assert np.any(hi != env.upper(u0))
        with pytest.warns(RuntimeWarning):
            out = validate_initial_fraction(Closure.hysteresis(env), None, u0, 2.0)
        assert _bits(out) == _bits(hi)
        for theta, top in zip(u0[::400].tolist(), hi[::400].tolist()):
            with pytest.warns(RuntimeWarning):
                out = validate_initial_fraction(Closure.hysteresis(env), None, theta, 2.0)
            assert _bits([out]) == _bits([top])

    def test_hyst_evaluates_the_lower_curve_once(self, monkeypatch, envelope_ii):
        # the envelope gap reads the lower curve the check already holds
        calls = []
        lower = HysteresisEnvelope.lower

        def counting_lower(env, theta):
            calls.append(theta)
            return lower(env, theta)

        monkeypatch.setattr(HysteresisEnvelope, "lower", counting_lower)
        u0 = np.array([-5.0, -1.0, 0.5])
        chi0 = np.asarray(equilibrium_fraction(u0, envelope_ii.b))
        out = validate_initial_fraction(Closure.hysteresis(envelope_ii), None, u0, chi0)
        assert len(calls) == 1
        assert _bits(out) == _bits(chi0)


class TestScalarOdeStepper:
    def test_matches_vector_machinery(self):
        # same formulas, two implementations: plain floats vs the vector
        # path, for every closure
        m_ode = ScaledMaterial(b=1.0, c_u=1.0, c_f=1.0, k_u=1.0, k_f=1.0)
        a_coef = 0.02
        tau = 0.01
        asm = scalar_assembly(a_coef)
        opts = SolverOptions()

        def forcing(t):
            h = 16.0 if t < 1.0 else 4.0
            g = -15.0 if t < 1.0 else 4.0 * t - 30.0
            return h * math.cos(math.pi * t) + g

        for closure in (
            Closure.equilibrium(),
            Closure.kinetic(5.0),
            Closure.hysteresis(calibrate_envelope(1.0, 0.1, -5.0)),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                chi0 = validate_initial_fraction(
                    closure, m_ode, np.array([-0.2]), np.array([math.exp(-0.5)])
                )
            state = TimeState(0.0, np.array([-0.2]), chi0)
            scalar = ScalarOdeStepper(closure, 1.0, a_coef)
            u_s, chi_s = -0.2, float(chi0[0])
            worst = 0.0
            for n in range(1, 201):
                t_new = state.t + tau
                f_n = np.array([forcing(t_new)])
                problem = frozen_problem(state, closure, asm, f_n, tau, m_ode)
                u_new, _ = solve_step(problem, opts)
                state = TimeState(t_new, u_new, problem.closure_fraction(u_new), problem.beta)
                u_s, chi_s, _, _ = scalar.step(u_s, chi_s, tau, forcing(n * tau))
                worst = max(worst, abs(state.u[0] - u_s), abs(state.upsilon[0] - chi_s))
            assert worst <= 1e-10, closure.kind

    @staticmethod
    def trajectory(stepper, u, chi, tau, forcing, fresh=False):
        # (u, chi, iterations) after each step, and the residual a stall ended
        # on; ``fresh`` hands every step an equal float of another identity
        rows = []
        for f_value in forcing:
            if fresh:
                u = float(repr(u))
            try:
                u, chi, iters, _ = stepper.step(u, chi, tau, f_value)
            except NonConvergence as err:
                return np.array(rows), err.residual
            rows.append((u, chi, iters))
        return np.array(rows), None

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(
        kind=st.sampled_from(["eq", "neq", "hyst"]),
        tau=st.sampled_from([0.1, 0.01, 0.001]),
        b=st.sampled_from([1.0, 2.0]),
        # starts on and next to the kink (both zeros) and the exp floor, or anywhere
        start=st.sampled_from(["zero", "negative zero", "floor", "free"]),
        offset=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
        # the previous fraction on either envelope curve, inside it, or anywhere
        edge=st.sampled_from(["lower", "upper", "inside", "free"]),
        share=st.floats(0.0, 1.0),
        forcing=st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=20),
    )
    def test_bit_equal_to_per_iterate_closure_oracle(
        self, kind, tau, b, start, offset, edge, share, forcing
    ):
        env = calibrate_envelope(b, 0.1, -5.0)
        closure = {
            "eq": Closure.equilibrium(),
            "neq": Closure.kinetic(5.0),
            "hyst": Closure.hysteresis(env),
        }[kind]
        u0 = {"zero": 0.0, "negative zero": -0.0, "floor": EXP_FLOOR / b, "free": -3.0}[start]
        u0 = u0 + offset if offset else u0  # -0.0 + 0.0 would lose the sign
        lo = float(env.lower(u0))
        hi = max(float(env.upper(u0)), lo)
        chi0 = {"lower": lo, "upper": hi, "inside": lo + share * (hi - lo), "free": share}[edge]

        shipped = self.trajectory(ScalarOdeStepper(closure, b, 0.02), u0, chi0, tau, forcing)
        oracle = self.trajectory(ScalarStepPerIterate(closure, b, 0.02), u0, chi0, tau, forcing)
        # compared as bit patterns, so -0.0 and 0.0 differ
        assert np.array_equal(shipped[0].view(np.int64), oracle[0].view(np.int64))
        assert shipped[1] == oracle[1]

    @pytest.mark.parametrize("kind", ["eq", "neq", "hyst"])
    def test_special_values_bit_equal_to_per_iterate_oracle(self, kind):
        # the derandomized test above draws finite floats only: here the
        # previous fraction is a signed zero, an infinity or NaN, and the
        # start sits on the kink, below the exp floor or outside the
        # envelope, where the clamp interval has zero width
        env = calibrate_envelope(1.0, 0.1, -5.0)
        closure = {
            "eq": Closure.equilibrium(),
            "neq": Closure.kinetic(5.0),
            "hyst": Closure.hysteresis(env),
        }[kind]
        for u0 in (0.0, -0.0, -1.0, 1.0, -6.0, 2.0 * EXP_FLOOR):
            for chi0 in (0.0, -0.0, 1.0, math.inf, -math.inf, math.nan):
                args = (u0, chi0, 0.01, [-3.0, 0.0, 5.0])
                shipped = self.trajectory(ScalarOdeStepper(closure, 1.0, 0.02), *args)
                oracle = self.trajectory(ScalarStepPerIterate(closure, 1.0, 0.02), *args)
                assert _bits(shipped[0]) == _bits(oracle[0]), (u0, chi0)
                assert repr(shipped[1]) == repr(oracle[1]), (u0, chi0)

    @pytest.mark.parametrize("max_iter", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["eq", "neq", "hyst"])
    def test_small_budgets_stall_as_the_per_iterate_oracle(self, kind, max_iter):
        # with budgets of 0, 1 and 2 updates and tolerances down to below the
        # residual's rounding, runs stall after max_iter updates, and the
        # stall's message and residual are the oracle's, as are the steps
        # accepted before it
        env = calibrate_envelope(1.0, 0.1, -5.0)
        closure = {
            "eq": Closure.equilibrium(),
            "neq": Closure.kinetic(5.0),
            "hyst": Closure.hysteresis(env),
        }[kind]
        stalls = 0
        for tol in (1e-8, 1e-12, 1e-15, 1e-300):
            for u0 in (0.0, -0.0, -1.0, -6.0, 1.0):
                for chi0 in (0.0, 0.5, 1.0, math.nan):
                    runs = []
                    for cls in (ScalarOdeStepper, ScalarStepPerIterate):
                        stepper = cls(closure, 1.0, 0.02, tol=tol, max_iter=max_iter)
                        u, chi, rows, stall = u0, chi0, [], None
                        try:
                            for f_value in (-3.0, 0.0, 5.0, 60.0):
                                u, chi, iters, residual = stepper.step(u, chi, 0.01, f_value)
                                rows.append(repr((u, chi, iters, residual)))
                        except NonConvergence as err:
                            stall = str(err), repr(err.residual)
                        runs.append((rows, stall))
                    assert runs[0] == runs[1], (tol, u0, chi0)
                    stalls += runs[0][1] is not None
        assert stalls >= 40

    def test_iterate_on_the_exp_floor_takes_the_exponential(self):
        # from below the floor the step is linear and its one update lands
        # exactly on b*u = EXP_FLOOR, where the fraction is exp(-700), not 0
        args = (-700.5, 0.0, 0.5, 1.0)
        shipped = ScalarOdeStepper(Closure.equilibrium(), 1.0, 0.0).step(*args)
        assert shipped == (EXP_FLOOR, math.exp(EXP_FLOOR), 1, 0.0)
        assert shipped == ScalarStepPerIterate(Closure.equilibrium(), 1.0, 0.0).step(*args)

    @pytest.mark.parametrize("u0", [0.0, -0.5, -1.0, -2.5, -4.0, -5.0, -6.0])
    def test_close_but_unequal_envelope_steepness_bit_equal_to_oracle(self, u0):
        # an envelope whose steepness is math.isclose to b but not equal to it
        # is accepted; its gap takes the lower curve at its own steepness, not
        # the stepper's fraction at u_prev, as the oracle does
        b_env = 1.0 + 5e-10
        assert math.isclose(b_env, 1.0) and b_env != 1.0
        env = calibrate_envelope(b_env, 0.1, -5.0)
        closure = Closure.hysteresis(env)
        forcing = [-3.0, 0.0, 5.0, 60.0, -60.0, 0.0, -10.0, 2.0]
        lo = float(env.lower(u0))
        hi = max(float(env.upper(u0)), lo)
        for chi0 in (lo, hi, 0.5 * (lo + hi)):
            for tau in (0.1, 0.01):
                args = (u0, chi0, tau, forcing)
                shipped = self.trajectory(ScalarOdeStepper(closure, 1.0, 0.02), *args)
                oracle = self.trajectory(ScalarStepPerIterate(closure, 1.0, 0.02), *args)
                assert _bits(shipped[0]) == _bits(oracle[0]), (chi0, tau)
                assert repr(shipped[1]) == repr(oracle[1]), (chi0, tau)

    @pytest.mark.parametrize("kind", ["eq", "neq", "hyst"])
    def test_kept_fraction_bit_equal_to_a_fresh_float(self, kind):
        # a step handed back the state it accepted reuses that state's
        # fraction; an equal float of another identity (float(repr(u))
        # keeps -0.0) is evaluated afresh, and the two agree bit for bit,
        # from the special starts and fractions of the test above
        env = calibrate_envelope(1.0, 0.1, -5.0)
        closure = {
            "eq": Closure.equilibrium(),
            "neq": Closure.kinetic(5.0),
            "hyst": Closure.hysteresis(env),
        }[kind]
        forcing = [-3.0, 0.0, 5.0, 60.0, -60.0, 0.0, 0.0]
        for u0 in (0.0, -0.0, -1.0, 1.0, -6.0, EXP_FLOOR, 2.0 * EXP_FLOOR):
            for chi0 in (0.0, -0.0, 0.5, 1.0, math.inf, -math.inf, math.nan):
                args = (u0, chi0, 0.01, forcing)
                kept = self.trajectory(ScalarOdeStepper(closure, 1.0, 0.02), *args)
                fresh = self.trajectory(ScalarOdeStepper(closure, 1.0, 0.02), *args, fresh=True)
                assert _bits(kept[0]) == _bits(fresh[0]), (u0, chi0)
                assert repr(kept[1]) == repr(fresh[1]), (u0, chi0)

    def test_default_sweep_evaluates_each_accepted_fraction_once(self, monkeypatch):
        # the default convergence sweep: 111,100 steps from 4 initial states.
        # Every fraction exponential goes through the module name ``exp``, the
        # envelope's upper curve does not.  Each step's first iterate reuses
        # the fraction its previous step accepted, except the first step of
        # each run, and the envelope gap reads it as its lower curve; handed
        # fresh floats, the stepper evaluates the fraction at u_prev too
        calls = Counter()
        exp = stepper_module.exp

        def counting(z):
            calls["exp"] += 1
            return exp(z)

        monkeypatch.setattr(stepper_module, "exp", counting)
        cfg = load_config(None, "convergence")
        taus = cfg.taus + (cfg.tau_fine,)

        def sweep():
            calls.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                runs = [cli.simulate_ode_coupled(cfg, SolverOptions(), tau=tau) for tau in taus]
            return calls["exp"], runs

        kept, kept_runs = sweep()
        step = ScalarOdeStepper.step
        monkeypatch.setattr(
            ScalarOdeStepper, "step", lambda self, u, *rest: step(self, float(repr(u)), *rest)
        )
        fresh, fresh_runs = sweep()
        assert sum(len(times) - 1 for times, _, _ in kept_runs) == 111_100
        # every sweep iterate lies below the kink and above the exp floor, so
        # each fraction is one exp; the gap no longer evaluates F(u_prev) again
        # on the 7,426 steps that start inside [theta0, 0]
        assert (kept, fresh) == (116_680, 227_776)
        assert fresh - kept == 111_100 - len(taus)
        for (_, u_k, chi_k), (_, u_f, chi_f) in zip(kept_runs, fresh_runs):
            assert _bits(u_k) == _bits(u_f) and _bits(chi_k) == _bits(chi_f)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the scalar Newton 2-cycles across the kink for neq at b >= 30 and has "
        "no bracketed rescue yet (ROADMAP item 15)",
    )
    def test_steep_kinetic_steps_complete(self):
        # ode-coupled with closure neq and every other key at its default,
        # each run ending at the step that stalls: (b, tau, steps)
        stalled = []
        for b, tau, steps in ((50.0, 0.1, 1), (30.0, 0.1, 1), (50.0, 0.05, 2)):
            overrides = {"closure": "neq", "b": b, "tau": tau, "T": steps * tau}
            cfg = load_config(None, "ode-coupled", overrides=overrides)
            try:
                times, _, _ = cli.simulate_ode_coupled(cfg, SolverOptions())
                assert len(times) == steps + 1
            except NonConvergence as err:
                stalled.append((b, tau, err.step, f"{err.residual:.3e}"))
        assert stalled == []

    @pytest.mark.parametrize(
        "env_args", [(1.0, 0.1, -5.0), (1.0, 0.01, -5.0), (0.5, 0.75, -5.0, "two-condition")]
    )
    def test_envelope_gap_bit_equal_to_min_max_oracle(self, env_args):
        # three-condition upper curves reach 1 exactly at zero, the
        # two-condition one rises above 1 and is capped
        env = calibrate_envelope(*env_args)
        edges = [env.theta0, math.nextafter(env.theta0, 0.0), math.nextafter(env.theta0, -7.0)]
        thetas = np.linspace(env.theta0, 0.0, 2001).tolist() + edges + [
            -0.0, 0.0, math.nextafter(0.0, -1.0), -math.inf, math.inf, math.nan
        ]
        got = [_envelope_gap(theta, env, _scalar_fraction(theta, env.b)) for theta in thetas]
        assert _bits(got) == _bits([_scalar_envelope_gap(theta, env) for theta in thetas])

    def test_stationary(self):
        env = calibrate_envelope(1.0, 0.1, -5.0)
        scalar = ScalarOdeStepper(Closure.hysteresis(env), 1.0, 0.0)
        u, chi = 0.0, 1.0
        for n in range(100):
            u, chi, iters, _ = scalar.step(u, chi, 0.1, 0.0)
        assert abs(u) <= 1e-10 and abs(chi - 1.0) <= 1e-10

    def test_mismatched_steepness_rejected(self, envelope_ii):
        with pytest.raises(ValueError):
            ScalarOdeStepper(Closure.hysteresis(envelope_ii), 2.0, 0.02)

    @pytest.mark.parametrize("max_iter", [-1, -20, 2.0, 20.5, None])
    def test_budget_that_is_not_a_non_negative_integer_rejected(self, max_iter):
        # the step's counter never equals a negative budget, and a float or
        # None budget is not a count of updates
        with pytest.raises(ValueError, match="max_iter must be a non-negative integer"):
            ScalarOdeStepper(Closure.equilibrium(), 1.0, 0.02, max_iter=max_iter)

    @pytest.mark.parametrize("tol", [0.0, -0.0, -1e-8, -math.inf, math.nan])
    def test_tolerance_that_is_not_positive_rejected(self, tol):
        # such a tolerance accepts no residual: every step would use its
        # whole budget and report a stall at a residual of rounding size
        with pytest.raises(ValueError, match="tol must be positive"):
            ScalarOdeStepper(Closure.equilibrium(), 1.0, 0.02, tol=tol)

    def test_infinite_tolerance_rejected(self):
        # such a tolerance accepts every residual: each step would return
        # its starting value
        with pytest.raises(ValueError, match="tol must be positive and finite, got inf"):
            ScalarOdeStepper(Closure.equilibrium(), 1.0, 0.02, tol=math.inf)

    @pytest.mark.parametrize("b", [0.0, -0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_steepness_that_is_not_positive_and_finite_rejected(self, b):
        # b = 0 would give fraction 1 below freezing; PointwiseLaws rejects
        # such a steepness too
        with pytest.raises(ValueError, match="steepness b must be positive and finite"):
            ScalarOdeStepper(Closure.equilibrium(), b, 0.02)

    def test_zero_budget_and_tiny_tolerance_accepted(self):
        stepper = ScalarOdeStepper(Closure.equilibrium(), 1.0, 0.0, tol=5e-324, max_iter=0)
        assert stepper.step(0.0, 1.0, 0.1, 0.0) == (0.0, 1.0, 0, 0.0)

    def test_infinite_stiffness_rejected(self):
        # tau*a = inf leaves no finite residual: a step would use its whole
        # budget and report a stall at residual nan
        with pytest.raises(ValueError, match="a_coef must be non-negative and finite"):
            ScalarOdeStepper(Closure.equilibrium(), 1.0, math.inf)

    @pytest.mark.parametrize("a_coef", [-100.0, -1e-300, math.nan])
    def test_negative_stiffness_rejected(self, a_coef):
        # a < 0 lets the Newton slope 1 + dchi + tau*a reach zero
        with pytest.raises(ValueError, match="a_coef must be non-negative"):
            ScalarOdeStepper(Closure.equilibrium(), 1.0, a_coef)
