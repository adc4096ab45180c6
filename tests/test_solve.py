import ctypes
import dataclasses
import math
import sys
import threading

import numpy as np
import pytest
import test_golden_outputs as golden
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import bisect, dense_newton_full, thomas_fused, thomas_numpy

from cryostef import cli, constitutive, solve, stepper
from cryostef.config import load_config
from cryostef.constitutive import ScaledMaterial, capacity_energy, equilibrium_fraction
from cryostef.errors import NonConvergence, SingularJacobian
from cryostef.grid import Grid1D, StiffnessAssembly, assemble
from cryostef.solve import (
    SolverOptions,
    contraction_diagnostic,
    double_iteration,
    fixed_point_monolithic,
    newton_frozen_a,
    solve_step,
    thomas_solve,
)
from cryostef.stepper import Closure, StepProblem, TimeState


def make_problem(u_prev, ups_prev, closure, material, grid, ud, f_n, tau):
    prev = TimeState(0.0, np.asarray(u_prev, float), np.asarray(ups_prev, float))

    def assembler(u):
        return assemble(u, material, grid, *ud)

    return StepProblem(prev, closure, tau, np.asarray(f_n, float), material, assembler)


def dense(asm):
    return np.diag(asm.diag) + np.diag(asm.off, 1) + np.diag(asm.off, -1)


def tridiag_matvec(diag, off, x):
    return StiffnessAssembly(diag, off, np.zeros_like(x)).matvec(x)


def smooth_profile(rng, grid, lo=-5.0, hi=1.5):
    # spatially smooth random state, like the fields the time loop produces;
    # cell-wise-independent noise makes the diffusion term unphysically stiff
    x = grid.centers
    phase = rng.uniform(0.0, 2.0 * np.pi)
    shape = 0.5 * (1.0 + np.sin(2.0 * np.pi * x + phase))
    return lo + (hi - lo) * shape


class TestThomas:
    def test_matches_dense_solve(self, rng):
        for n in (1, 2, 5, 40):
            diag = rng.uniform(2.0, 4.0, size=n)
            off = rng.uniform(-0.9, 0.0, size=n - 1)
            a = np.diag(diag)
            if n > 1:
                a += np.diag(off, 1) + np.diag(off, -1)
            x = rng.standard_normal(n)
            rhs = a @ x
            got = thomas_solve(diag, off, rhs)
            assert np.allclose(got, x, atol=1e-12)
            assert np.allclose(tridiag_matvec(diag, off, x), rhs, atol=1e-12)

    def test_singular_raises(self):
        with pytest.raises(SingularJacobian):
            thomas_solve(np.array([1.0, 1.0]), np.array([1.0]), np.array([1.0, 1.0]))

    @settings(derandomize=True, deadline=None)
    @given(
        n=st.integers(1, 200),
        seed=st.integers(0, 2**32 - 1),
        rhs_scale=st.floats(1e-6, 1e6),
    )
    def test_bit_identical_to_numpy_loop(self, n, seed, rhs_scale):
        # random SPD systems: a diagonally dominant, symmetric tridiagonal
        rng = np.random.default_rng(seed)
        off = rng.uniform(-1.0, 1.0, size=n - 1)
        bound = np.zeros(n)
        bound[:-1] += np.abs(off)
        bound[1:] += np.abs(off)
        diag = bound + rng.uniform(1e-3, 10.0, size=n)
        rhs = rhs_scale * rng.standard_normal(n)
        got = thomas_solve(diag, off, rhs)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert np.array_equal(got, thomas_numpy(diag, off, rhs))

    @pytest.mark.parametrize(
        "diag, off",
        [
            ([1.0, 1.0], [1.0]),
            ([0.0, 1.0], [1.0]),
            ([2.0, 1e-16, 3.0], [1e-9, 1.0]),
            ([0.0], []),
            # a -0.0 pivot, first and last
            ([-0.0, 1.0], [1.0]),
            ([1.0, -0.0], [0.0]),
            # an infinite entry makes every finite pivot collapse; an
            # infinite pivot passes and the next one collapses
            ([1.0, 1.0], [math.inf]),
            ([math.inf, 1.0], [1.0]),
            ([-math.inf, 1.0], [1.0]),
        ],
    )
    def test_singular_message_matches_numpy_loop(self, diag, off):
        diag = np.array(diag)
        off = np.array(off)
        rhs = np.ones_like(diag)
        with pytest.raises(SingularJacobian) as expected:
            thomas_numpy(diag, off, rhs)
        with pytest.raises(SingularJacobian) as got:
            thomas_solve(diag, off, rhs)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize(
        "diag, off",
        [([math.inf, math.inf], [math.inf]), ([math.nan, 1.0], [1.0]), ([1.0, math.nan], [0.5])],
    )
    def test_nan_pivot_passes_as_in_numpy_loop(self, diag, off):
        # a NaN pivot, made by the elimination (inf/inf) or given, compares
        # false with every bound: neither loop raises, both return NaN
        diag = np.array(diag)
        off = np.array(off)
        rhs = np.ones_like(diag)
        with np.errstate(invalid="ignore"):
            expected = thomas_numpy(diag, off, rhs)
        got = thomas_solve(diag, off, rhs)
        assert np.isnan(expected).all()
        assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()

    @pytest.mark.parametrize(
        "diag, off, message",
        [
            ([0.0, math.nan], [1.0], "pivot 0.0 collapsed at row 0"),
            ([1.0, 0.0, math.nan], [0.0, 1.0], "pivot 0.0 collapsed at row 1"),
        ],
    )
    def test_zero_pivot_beside_a_nan_raises(self, diag, off, message):
        # a NaN in diag once made the pivot bound NaN: no pivot test fired,
        # and the loop divided by the exact zero
        diag = np.array(diag)
        with pytest.raises(SingularJacobian, match=f"^{message}$"):
            thomas_solve(diag, np.array(off), np.ones_like(diag))

    def test_off_edited_in_place_between_solves(self):
        # each solve measures off afresh: after the edit, dgtsv would
        # interchange rows (|diag| < |off|), so the system goes to the loop
        diag = np.full(6, 2.0)
        off = np.full(5, -0.5)
        rhs = np.linspace(1.0, 2.0, 6)
        thomas_solve(diag, off, rhs)
        off *= 8.0
        assert _bits(thomas_solve(diag, off, rhs)) == _bits(thomas_numpy(diag, off, rhs))


def _bits(values):
    # float bit patterns: -0.0 differs from 0.0, and NaN equals itself
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@pytest.fixture(scope="module")
def lapack():
    # the bundled dgtsv, looked up and checked by a first solve
    thomas_solve(np.array([2.0, 2.0]), np.array([-1.0]), np.array([1.0, 1.0]))
    if not solve._dgtsv:
        pytest.skip("numpy bundles no dgtsv that gives the loop's bits here")
    return solve._dgtsv


class CountingLoop:
    """Stands in for the float loop and counts the systems routed to it."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.loop = solve._thomas_loop
        monkeypatch.setattr(solve, "_thomas_loop", self)

    def __call__(self, *args):
        self.calls += 1
        return self.loop(*args)


class TestLapackRoute:
    @settings(derandomize=True, deadline=None)
    @given(
        n=st.integers(1, 200),
        seed=st.integers(0, 2**32 - 1),
        rhs_scale=st.floats(1e-6, 1e6),
    )
    def test_spd_draws_take_the_fast_path(self, lapack, n, seed, rhs_scale):
        # the draws of TestThomas.test_bit_identical_to_numpy_loop: every
        # system of two or more rows is solved by dgtsv, with the loop's bits
        rng = np.random.default_rng(seed)
        off = rng.uniform(-1.0, 1.0, size=n - 1)
        bound = np.zeros(n)
        bound[:-1] += np.abs(off)
        bound[1:] += np.abs(off)
        diag = bound + rng.uniform(1e-3, 10.0, size=n)
        rhs = rhs_scale * rng.standard_normal(n)
        with pytest.MonkeyPatch.context() as mp:
            loop = CountingLoop(mp)
            got = thomas_solve(diag, off, rhs)
        assert loop.calls == (n == 1)
        assert _bits(got) == _bits(thomas_numpy(diag, off, rhs))

    @pytest.mark.parametrize(
        "diag, off, rhs",
        [
            # refused before the call: one row, non-finite matrix data
            ([2.0], [], [1.0]),
            ([math.nan, 1.0], [0.5], [1.0, 1.0]),
            ([2.0, 2.0], [math.inf], [1.0, 1.0]),
            ([math.inf, math.inf], [math.inf], [1.0, 1.0]),
            # dgtsv interchanges rows 0 and 1, or its pivot collapses
            ([0.0, 1.0], [1.0], [1.0, 1.0]),
            ([1.0, 1.0], [1.0], [1.0, 1.0]),
            ([2.0, 1e-16, 3.0], [1e-9, 1.0], [1.0, 1.0, 1.0]),
            # pivots below the loop's bound with no interchange, first and last
            ([1e-16, 1.0], [1e-17], [1.0, 1.0]),
            ([1.0, 2e-16], [1e-8], [1.0, 1.0]),
            # a NaN or infinite right-hand side: dgtsv's 0 * x[2] is NaN
            ([1.0, 1.0, 1.0], [0.1, 0.1], [1.0, 1.0, math.inf]),
            ([1.0, 1.0, 1.0], [0.1, 0.1], [1.0, math.nan, 1.0]),
            # dgtsv's -0.0 - 0 * x[2] is +0.0 where the loop keeps -0.0
            ([2.0, 2.0, 2.0], [1.0, 0.0], [-0.0, 0.0, -1.0]),
        ],
    )
    def test_refused_systems_go_to_the_loop(self, lapack, monkeypatch, diag, off, rhs):
        diag, off, rhs = np.array(diag), np.array(off), np.array(rhs)
        loop = CountingLoop(monkeypatch)
        with np.errstate(all="ignore"):
            try:
                expected = _bits(thomas_numpy(diag, off, rhs))
            except SingularJacobian as err:
                expected = str(err)
        try:
            got = _bits(thomas_solve(diag, off, rhs))
        except SingularJacobian as err:
            got = str(err)
        assert loop.calls == 1
        assert got == expected

    def test_concurrent_solves_keep_their_bits(self, lapack):
        # threads solving systems of one size share its buffers
        rng = np.random.default_rng(7)
        systems = []
        for _ in range(6):
            off = rng.uniform(-1.0, 0.0, size=99)
            diag = 2.5 + rng.uniform(0.0, 1.0, size=100)
            rhs = rng.standard_normal(100)
            systems.append((diag, off, rhs, _bits(thomas_numpy(diag, off, rhs))))
        wrong = []

        def solve_many(diag, off, rhs, expected):
            for _ in range(300):
                if _bits(thomas_solve(diag, off, rhs)) != expected:
                    wrong.append(1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=solve_many, args=s) for s in systems]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong

    @pytest.mark.parametrize(
        "case", sorted(c for c, (mode, *_) in golden.CASES.items() if mode == "pde")
    )
    def test_golden_outputs_without_the_library(self, monkeypatch, tmp_path, case):
        monkeypatch.setattr(solve, "_bundled_dgtsv", lambda: None)
        monkeypatch.setattr(solve, "_dgtsv", None)
        digests = golden.expected(golden.DIGESTS, golden.DIGESTS_DISPATCH_OFF, case)
        assert golden.outputs(tmp_path, *golden.CASES[case]) == digests
        assert solve._dgtsv is False

    def test_fast_kernel_guard_without_the_library(self, monkeypatch):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solve, "_bundled_dgtsv", lambda: None)
            mp.setattr(solve, "_dgtsv", None)
            TestFastKernelGuard().test_solve_kernel_changes_no_bits(monkeypatch)
            assert solve._dgtsv is False

    @pytest.mark.parametrize("fused", [{"pivot"}, {"rhs"}, {"back"}])
    def test_self_check_tells_a_fused_multiply_add_apart(self, fused):
        # a dgtsv compiled with contraction at any one update fails the check
        diag, off, rhs = (a.tolist() for a in solve._self_check_system())
        plain = thomas_fused(diag, off, rhs, ())
        assert plain == thomas_solve(*map(np.array, (diag, off, rhs))).tolist()
        assert thomas_fused(diag, off, rhs, fused) != plain

    def test_failed_self_check_leaves_the_loop(self, lapack, monkeypatch):
        # a dgtsv that rounds one entry otherwise, as a build with fused
        # multiply-adds would, is checked once and then never called
        calls = []

        def other_bits(*args):
            calls.append(1)
            lapack._fn(*args)
            x = ctypes.c_double.from_address(args[5].value)
            x.value = math.nextafter(x.value, math.inf)

        monkeypatch.setattr(solve, "_bundled_dgtsv", lambda: other_bits)
        monkeypatch.setattr(solve, "_dgtsv", None)
        loop = CountingLoop(monkeypatch)
        diag, off, rhs = np.full(5, 3.0), np.full(4, -1.0), np.arange(5.0) + 0.5
        assert _bits(thomas_solve(diag, off, rhs)) == _bits(thomas_numpy(diag, off, rhs))
        assert solve._dgtsv is False
        assert (len(calls), loop.calls) == (1, 2)


class TestNewtonFrozenA:
    def test_linear_problem_one_iteration(self, rng):
        # affine residual: Newton lands on the solution in a single update
        n = 12
        diag = rng.uniform(2.0, 3.0, size=n)
        off = rng.uniform(-0.5, 0.0, size=n - 1)
        x_true = rng.standard_normal(n)
        rhs = tridiag_matvec(diag, off, x_true)
        residual = lambda u: tridiag_matvec(diag, off, u) - rhs
        jacobian = lambda u: (diag, off)
        u, rep = newton_frozen_a(residual, jacobian, np.zeros(n), SolverOptions(tol=1e-12))
        assert rep.inner_iters_total == 1
        assert np.max(np.abs(u - x_true)) <= 1e-12

    def test_scalar_eq_matches_bisection(self, unit_material):
        tau, kappa = 0.3, 2.0
        closure = Closure.equilibrium()
        prev = TimeState(0.0, np.array([-1.0]), np.array([math.exp(-1.0)]))
        asm = StiffnessAssembly(np.array([kappa]), np.array([]), np.zeros(1))
        problem = StepProblem(prev, closure, tau, np.array([1.5]), unit_material, lambda u: asm)
        opts = SolverOptions(tol=1e-12)
        u, rep = newton_frozen_a(
            lambda v: problem.residual(v, asm), lambda v: problem.jacobian(v, asm),
            problem.initial_guess, opts,
        )
        g_total = float(problem.rhs[0])
        root = bisect(
            lambda v: v + float(equilibrium_fraction(v, 1.0)) + tau * kappa * v - g_total,
            -100.0, 100.0,
        )
        assert abs(float(u[0]) - root) <= 1e-10

    def test_budget_exhaustion_raises(self, material):
        g = Grid1D(10)
        problem = make_problem(
            np.full(10, -5.0), equilibrium_fraction(np.full(10, -5.0), material.b),
            Closure.equilibrium(), material, g, (5.0, -5.0), np.zeros(10), 0.01,
        )
        asm = problem.assemble(problem.initial_guess)
        with pytest.raises(NonConvergence):
            newton_frozen_a(
                lambda v: problem.residual(v, asm), lambda v: problem.jacobian(v, asm),
                problem.initial_guess, SolverOptions(), budget=1,
            )

    def test_nan_residual_runs_out_of_budget(self, unit_material):
        # NaN meets no tolerance: the budget runs out and the solve fails
        # instead of returning as converged, in the Newton step and in the
        # fixed point's capacity solve alike
        with pytest.raises(NonConvergence, match="residual nan after 2 iterations"):
            newton_frozen_a(
                lambda v: np.full(3, np.nan), lambda v: (np.ones(3), np.zeros(2)),
                np.zeros(3), SolverOptions(), budget=2,
            )
        u_prev = np.array([-1.0, np.nan, -1.0])
        problem = make_problem(
            u_prev, np.zeros(3), Closure.equilibrium(), unit_material, Grid1D(3),
            (-1.0, -1.0), np.zeros(3), 0.1,
        )
        with pytest.raises(NonConvergence, match="residual nan after 40 iterations"):
            fixed_point_monolithic(problem, SolverOptions())

    def test_quadratic_tail_on_smooth_step(self, unit_material):
        # no cell crosses zero: the residual is smooth there and the final
        # Newton steps should contract quadratically
        g = Grid1D(12)
        u_prev = np.full(12, -5.0)
        problem = make_problem(
            u_prev, equilibrium_fraction(u_prev, 1.0), Closure.equilibrium(),
            unit_material, g, (-1.0, -5.0), np.zeros(12), 0.5,
        )
        asm = problem.assemble(problem.initial_guess)
        opts = SolverOptions(tol=1e-13, max_inner=30)
        u, rep = newton_frozen_a(
            lambda v: problem.residual(v, asm), lambda v: problem.jacobian(v, asm),
            problem.initial_guess, opts,
        )
        assert np.all(u < 0.0)
        hist = rep.residual_history
        assert len(hist) >= 4
        for r_prev, r_next in zip(hist[-3:-1], hist[-2:]):
            assert r_next <= 1e3 * r_prev**2


class TestDoubleIteration:
    def test_constant_conductivity_single_outer(self, unit_material, rng):
        g = Grid1D(8)
        u_prev = rng.uniform(-4, -1, size=8)
        problem = make_problem(
            u_prev, equilibrium_fraction(u_prev, 1.0), Closure.equilibrium(),
            unit_material, g, (-2.0, -2.0), rng.standard_normal(8), 0.05,
        )
        u, rep = double_iteration(problem, SolverOptions())
        assert rep.converged
        assert rep.outer_iters == 1

    @pytest.mark.parametrize("kind", ["eq", "neq", "hyst"])
    def test_matches_dense_oracle_m5(self, kind, material, envelope_ii, rng):
        # boundary data close to the previous state: the unique-solution
        # regime where plain undamped Newton is reliable
        g = Grid1D(5)
        closure = {
            "eq": Closure.equilibrium(),
            "neq": Closure.kinetic(5.0),
            "hyst": Closure.hysteresis(envelope_ii),
        }[kind]
        u_prev = smooth_profile(rng, g)
        ups_prev = np.clip(
            np.asarray(equilibrium_fraction(u_prev, material.b)) + rng.uniform(0, 0.1, 5),
            0.0, 1.0,
        )
        ud = (u_prev[0] + 0.4, u_prev[-1] - 0.4)
        f_n = 0.1 * rng.standard_normal(5)
        tau = 0.02
        problem = make_problem(u_prev, ups_prev, closure, material, g, ud, f_n, tau)
        u, rep = double_iteration(problem, SolverOptions(tol=1e-12, max_inner=60))
        reference = dense_newton_full(u_prev, ups_prev, closure, material, g.h, ud, f_n, tau)
        assert np.max(np.abs(u - reference)) <= 1e-8

    def test_neq_huge_rate_equals_eq_result(self, material, rng):
        g = Grid1D(5)
        u_prev = rng.uniform(-5.0, 1.0, size=5)
        ups_prev = np.asarray(equilibrium_fraction(u_prev, material.b))
        args = (material, g, (2.0, -3.0), np.zeros(5), 0.01)
        pa = make_problem(u_prev, ups_prev, Closure.equilibrium(), *args)
        pb = make_problem(u_prev, ups_prev, Closure.kinetic(1e14), *args)
        opts = SolverOptions(tol=1e-12, max_inner=60)
        ua, _ = double_iteration(pa, opts)
        ub, _ = double_iteration(pb, opts)
        assert np.max(np.abs(ua - ub)) <= 1e-8

    def test_true_residual_enforced(self, material, rng):
        g = Grid1D(20)
        u_prev = rng.uniform(-5.0, 2.0, size=20)
        problem = make_problem(
            u_prev, equilibrium_fraction(u_prev, material.b), Closure.equilibrium(),
            material, g, (4.0, -4.0), np.zeros(20), 0.05,
        )
        opts = SolverOptions(max_inner=60)
        u, rep = double_iteration(problem, opts)
        asm = problem.assemble(u)
        assert float(np.max(np.abs(problem.residual(u, asm)))) <= opts.tol
        assert rep.residual_history[-1] <= opts.tol

    def test_determinism(self, material, rng):
        g = Grid1D(15)
        u_prev = smooth_profile(rng, g, lo=-5.0, hi=2.0)
        ups_prev = np.asarray(equilibrium_fraction(u_prev, material.b))
        ud = (u_prev[0] - 0.5, u_prev[-1] + 0.5)
        runs = []
        for _ in range(2):
            problem = make_problem(
                u_prev, ups_prev, Closure.equilibrium(), material, g,
                ud, np.zeros(15), 0.02,
            )
            u, rep = double_iteration(problem, SolverOptions(max_inner=60))
            runs.append((u, rep.residual_history))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_solved_initial_guess_takes_one_pass(self, material):
        # a uniform frozen state with matching boundary data solves its own
        # step: the first pass's starting residual is the true residual and
        # meets tol, so the step is accepted on one assembly and no update
        u_prev = np.full(10, -5.0)
        problem = make_problem(
            u_prev, equilibrium_fraction(u_prev, material.b), Closure.equilibrium(),
            material, Grid1D(10), (-5.0, -5.0), np.zeros(10), 0.01,
        )
        assembled = []
        assembler = problem.assemble
        problem.assemble = lambda u: assembled.append(u) or assembler(u)
        u, rep = double_iteration(problem, SolverOptions())
        assert len(assembled) == 1
        assert (rep.outer_iters, rep.inner_iters_total, rep.converged) == (1, 0, True)
        assert len(rep.residual_history) == 1
        assert rep.residual_history[0] <= SolverOptions().tol
        assert np.array_equal(u, u_prev)

    @pytest.mark.xfail(
        strict=True, raises=NonConvergence,
        reason="the matrix-lagging passes contract too slowly; a failed step has no rescue yet",
    )
    def test_hysteretic_start_inside_envelope_converges(self):
        # the reference grid and step with hyst started inside the envelope
        # stalls at step 1: residual 2.216e-08, 20 inner iterations, 7 passes
        cfg = load_config(None, "pde", overrides={
            "closure": "hyst", "u_init": "-2", "chi_init": "F(u0) + 0.1", "T": 0.01,
        })
        run = cli.simulate_pde(cfg, SolverOptions())
        assert run.reports[0].converged

    def test_stalled_step_reports_every_pass(self):
        # the reference pde at M = 30 spends step 1's whole budget over seven
        # outer passes (budgets 20, 14, 10, 7, 5, 3, 1) and stalls above tol
        cfg = load_config(None, "pde", overrides={"M": 30})
        with pytest.raises(NonConvergence) as info:
            cli.simulate_pde(cfg, SolverOptions())
        err = info.value
        assert err.step == 1
        assert (err.report.outer_iters, err.report.inner_iters_total) == (7, 20)
        assert not err.report.converged
        # each of the seven passes' starting residual, the true one, and each update
        assert len(err.report.residual_history) == 7 + 20
        assert err.report.residual_history[-1] == err.residual
        assert "(inner iterations 20, outer passes 7)" in str(err)

    @pytest.mark.parametrize("closure", ["eq", "neq", "hyst"])
    def test_passes_bounded_by_newton_budget_on_reference(self, closure):
        # every pass before the accepting one makes an update
        cfg = load_config(None, "pde", overrides={"closure": closure})
        run = cli.simulate_pde(cfg, SolverOptions())
        assert len(run.reports) == 300
        assert all(r.outer_iters <= r.inner_iters_total + 1 for r in run.reports)

    def test_many_passes_bounded_by_newton_budget(self):
        # the step that stalls above on a budget of 20 converges on 150, and
        # its passes stay within the budget it spent
        cfg = load_config(None, "pde", overrides={"M": 30, "T": 0.01})
        run = cli.simulate_pde(cfg, SolverOptions(max_inner=150))
        report = run.reports[0]
        assert report.converged
        assert (report.outer_iters, report.inner_iters_total) == (16, 30)
        assert report.outer_iters <= report.inner_iters_total + 1


class TestFixedPoint:
    def test_trivial_linear_case_single_sweep(self, unit_material):
        # deeply frozen cells: the fraction term is exactly zero, conductivity
        # constant, and the previous state already solves the step
        g = Grid1D(6)
        u_prev = np.full(6, -800.0)
        asm = assemble(u_prev, unit_material, g, -800.0, -800.0)
        f_n = asm.matvec(u_prev) - asm.bc_rhs
        problem = make_problem(
            u_prev, np.zeros(6), Closure.kinetic(1.0), unit_material, g,
            (-800.0, -800.0), f_n, 0.1,
        )
        u, rep = fixed_point_monolithic(problem, SolverOptions())
        assert rep.converged
        assert rep.outer_iters == 1
        assert np.max(np.abs(u - u_prev)) <= 1e-12

    def test_small_tau_agrees_with_double_iteration(self, unit_material, rng):
        # contraction regime of the lagged-fraction sweep: c(u)=u so the
        # capacity slope is 1 and the state stays away from the kink,
        # keeping the fraction slope well below 1
        g = Grid1D(20)
        u_prev = rng.uniform(-5.0, -2.0, size=20)
        ups_prev = np.asarray(equilibrium_fraction(u_prev, 1.0))
        args = (
            Closure.equilibrium(), unit_material, g,
            (u_prev[0] - 0.2, u_prev[-1] - 0.2), np.zeros(20), 1e-4,
        )
        ua, _ = fixed_point_monolithic(make_problem(u_prev, ups_prev, *args), SolverOptions(max_inner=400))
        ub, _ = double_iteration(make_problem(u_prev, ups_prev, *args), SolverOptions(max_inner=60))
        assert np.max(np.abs(ua - ub)) <= 1e-6

    def test_steep_curve_fails_cleanly(self, rng):
        # Lipschitz constant of the fraction term far above the contraction
        # threshold: the sweep must stop with an error, not loop forever
        steep = ScaledMaterial(b=10.0, c_u=1.0, c_f=1.0, k_u=1.0, k_f=1.0)
        g = Grid1D(8)
        u_prev = np.linspace(-0.4, 0.3, 8)
        ups_prev = np.asarray(equilibrium_fraction(u_prev, 10.0))
        problem = make_problem(
            u_prev, ups_prev, Closure.equilibrium(), steep, g,
            (0.5, -0.5), np.zeros(8), 0.1,
        )
        with pytest.raises(NonConvergence):
            fixed_point_monolithic(problem, SolverOptions(max_inner=60))


class TestStrategyDispatch:
    @pytest.mark.parametrize("kind", ["eq", "neq", "hyst"])
    def test_all_strategies_agree_on_small_instances(self, kind, unit_material, envelope_ii, rng):
        # c(u)=u and a state away from the kink: the regime where the lagged
        # sweep provably contracts, so both strategies converge
        g = Grid1D(5)
        closure = {
            "eq": Closure.equilibrium(),
            "neq": Closure.kinetic(5.0),
            "hyst": Closure.hysteresis(envelope_ii),
        }[kind]
        u_prev = smooth_profile(rng, g, lo=-5.0, hi=-1.5)
        ups_prev = np.clip(
            np.asarray(equilibrium_fraction(u_prev, 1.0)) + rng.uniform(0, 0.1, 5),
            0.0, 1.0,
        )
        args = (closure, unit_material, g, (u_prev[0] + 0.3, u_prev[-1] - 0.3), np.zeros(5), 0.01)
        solutions = []
        for strategy in ("newton-alag", "fixed-point"):
            problem = make_problem(u_prev, ups_prev, *args)
            opts = SolverOptions(strategy=strategy, max_inner={"newton-alag": 60, "fixed-point": 4000}[strategy])
            u, rep = solve_step(problem, opts)
            assert rep.converged
            solutions.append(u)
        for u in solutions[1:]:
            assert np.max(np.abs(u - solutions[0])) <= 1e-6

    def test_each_strategy_has_its_own_default_budget(self):
        # 20 Newton updates for the lagged loop, 100 sweeps for the fixed point
        assert SolverOptions().max_inner == 20
        assert SolverOptions(strategy="fixed-point").max_inner == 100
        assert SolverOptions(strategy="fixed-point", max_inner=5).max_inner == 5
        with pytest.raises(ValueError, match="max_inner=0"):
            SolverOptions(strategy="fixed-point", max_inner=0)
        # a fractional budget would run ceil(2.5) updates, or fail in range()
        for strategy in solve.STRATEGIES:
            with pytest.raises(ValueError, match="max_inner=2.5"):
                SolverOptions(strategy=strategy, max_inner=2.5)

    def test_unknown_strategy_rejected(self):
        for strategy in ("bogus", "newton-frozen-a"):
            with pytest.raises(ValueError, match="newton-alag, fixed-point"):
                SolverOptions(strategy=strategy)
        # the options are frozen, so no field can slip past the checks
        opts = SolverOptions()
        for name, value in (("strategy", "bogus"), ("tol", math.inf), ("max_inner", 2.5)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(opts, name, value)
        assert opts == SolverOptions()


class TestContractionDiagnostic:
    def test_constant_conductivity_zero_bound(self, unit_material, rng):
        g = Grid1D(8)
        u_prev = rng.uniform(-3, -1, size=8)
        problem = make_problem(
            u_prev, equilibrium_fraction(u_prev, 1.0), Closure.equilibrium(),
            unit_material, g, (0.0, 0.0), np.zeros(8), 0.1,
        )
        # the matrix does not depend on the state
        diag = contraction_diagnostic(problem)
        assert diag["lipschitz_estimate"] == 0.0
        assert diag["alag_bound"] == 0.0
        assert diag["coercivity_estimate"] > 0.0

    @pytest.mark.parametrize("cells", [2, 3, 10, 100])
    def test_coercivity_is_the_constant_conductivity_eigenvalue(self, cells):
        # with one conductivity every transmissibility is k times the unit
        # stencil's, so kappa0 is the matrix's smallest eigenvalue
        m = ScaledMaterial(b=1.0, c_u=1.0, c_f=1.0, k_u=0.3, k_f=0.3)
        g = Grid1D(cells)
        u = np.linspace(-3.0, 1.0, cells)
        problem = make_problem(
            u, equilibrium_fraction(u, 1.0), Closure.equilibrium(), m, g, (0.0, 0.0),
            np.zeros(cells), 0.1,
        )
        kappa = contraction_diagnostic(problem)["coercivity_estimate"]
        smallest = np.linalg.eigvalsh(dense(assemble(u, m, g, 0.0, 0.0)))[0]
        assert kappa == pytest.approx(smallest, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("face_average", ["harmonic", "arithmetic"])
    @pytest.mark.parametrize("cells", [5, 20])
    def test_constants_bound_every_state(self, material, rng, cells, face_average):
        # kappa0 <= lambda_min(A(u)) and ||(A(u) - A(v)) xi|| <= L_A ||u - v|| ||xi||
        # for cell-wise random states across the kink, near or far apart
        g = Grid1D(cells)
        u0 = rng.uniform(-3.0, 1.0, size=cells)
        problem = make_problem(
            u0, equilibrium_fraction(u0, material.b), Closure.equilibrium(), material, g,
            (1.0, -1.0), np.zeros(cells), 0.01,
        )
        diag = contraction_diagnostic(problem)
        kappa, lipschitz = diag["coercivity_estimate"], diag["lipschitz_estimate"]

        def matrix(u):
            return dense(assemble(u, material, g, 1.0, -1.0, face_average))

        for _ in range(100):
            u = rng.uniform(-4.0, 2.0, size=cells)
            v = u + rng.uniform(-1.0, 1.0) * rng.standard_normal(cells)
            a_u = matrix(u)
            assert kappa <= np.linalg.eigvalsh(a_u)[0] * (1.0 + 1e-12)
            xi = rng.standard_normal(cells)
            change = np.linalg.norm((a_u - matrix(v)) @ xi)
            assert change <= lipschitz * np.linalg.norm(u - v) * np.linalg.norm(xi)

    def test_assembles_nothing(self, material):
        # a problem whose assembler raises still gets its diagnostic
        g = Grid1D(10)
        u = np.linspace(-3.0, 1.0, 10)
        problem = make_problem(
            u, equilibrium_fraction(u, material.b), Closure.equilibrium(), material, g,
            (1.0, -1.0), np.zeros(10), 0.01,
        )

        def refuse(u):
            raise AssertionError("the diagnostic assembled a matrix")

        expected = contraction_diagnostic(problem)
        problem.assemble = refuse
        assert contraction_diagnostic(problem) == expected

    def test_vanishing_tau_limits(self, material, rng):
        g = Grid1D(8)
        u_prev = rng.uniform(-5, 1, size=8)
        problems = {}
        for tau in (1e-6, 1e-9):
            problems[tau] = make_problem(
                u_prev, equilibrium_fraction(u_prev, material.b), Closure.equilibrium(),
                material, g, (1.0, -1.0), np.zeros(8), tau,
            )
        d6 = contraction_diagnostic(problems[1e-6])
        d9 = contraction_diagnostic(problems[1e-9])
        # lag bound vanishes with tau; fixed-point bound tends to L_F (||g|| + 1)
        assert d9["alag_bound"] < d6["alag_bound"]
        g_norm = float(np.linalg.norm(problems[1e-9].rhs))
        assert d9["fixed_point_bound"] == pytest.approx(material.b * (g_norm + 1.0), rel=1e-3)

    def test_reference_step_reports_finite_positives(self, material, rng):
        g = Grid1D(20)
        u_prev = rng.uniform(-5, 2, size=20)
        problem = make_problem(
            u_prev, equilibrium_fraction(u_prev, material.b), Closure.equilibrium(),
            material, g, (5.0, -5.0), np.zeros(20), 0.1,
        )
        diag = contraction_diagnostic(problem)
        for value in diag.values():
            assert np.isfinite(value) and value > 0.0

    @pytest.mark.parametrize("closure", ["eq", "hyst"])
    def test_printed_values_keep_their_bits(self, closure):
        # the default pde run's four printed numbers, bit for bit: a change
        # to the bounds changes stdout and must update this record
        cfg = load_config(None, "pde", overrides={"closure": closure, "T": 0.01})
        diag = cli._pde_diagnostics(cli.simulate_pde(cfg, SolverOptions()))
        assert diag["lipschitz_estimate"] == 293.00881136768425
        assert diag["coercivity_estimate"] == 0.14901876954906976
        assert diag["alag_bound"] == 3.247934758548208
        assert diag["fixed_point_bound"] == 8.280651839035036


class TestFastKernelGuard:
    def run_hyst(self, monkeypatch, kernel):
        # a short hysteretic run with ``kernel`` as the tridiagonal solve,
        # counting StepProblem.residual calls per step
        counts = []
        residual = StepProblem.residual
        advance = cli.advance

        def counting_residual(self, u, asm):
            counts[-1] += 1
            return residual(self, u, asm)

        def counting_advance(*args, **kwargs):
            counts.append(0)
            return advance(*args, **kwargs)

        monkeypatch.setattr(StepProblem, "residual", counting_residual)
        monkeypatch.setattr(cli, "advance", counting_advance)
        monkeypatch.setattr(solve, "thomas_solve", kernel)
        cfg = load_config(None, "pde", overrides={"closure": "hyst", "T": 0.5})
        run = cli.simulate_pde(cfg, SolverOptions())
        monkeypatch.undo()
        return run, counts

    def test_solve_kernel_changes_no_bits(self, monkeypatch):
        shipped, counts = self.run_hyst(monkeypatch, thomas_solve)
        reference, _ = self.run_hyst(monkeypatch, thomas_numpy)

        assert len(shipped.states) == len(reference.states) == 51
        for a, b in zip(shipped.states, reference.states):
            assert a.t == b.t
            assert np.array_equal(a.u, b.u)
            assert np.array_equal(a.upsilon, b.upsilon)
        for a, b in zip(shipped.reports, reference.reports):
            assert (a.outer_iters, a.inner_iters_total, a.residual_history) == (
                b.outer_iters,
                b.inner_iters_total,
                b.residual_history,
            )
        # one residual to start each of the outer + 1 passes and one per Newton
        # update, and the history records each of them once
        assert counts == [1 + r.inner_iters_total + r.outer_iters for r in shipped.reports]
        assert counts == [len(r.residual_history) for r in shipped.reports]
        assert any(r.outer_iters > 1 for r in shipped.reports)


class TestLawsOncePerIterate:
    def run_pde(self, monkeypatch, closure, reuse=True):
        # a short pde run counting constitutive._exp calls per step; with
        # ``reuse`` off every call into the laws evaluates them afresh and
        # no step starts from what the step before it kept
        counts = []
        exp = constitutive._exp
        advance = cli.advance

        def counting_exp(z):
            counts[-1] += 1
            return exp(z)

        def counting_advance(*args, **kwargs):
            counts.append(0)
            if not reuse:
                monkeypatch.setattr(stepper, "_carried", (None, None))
            return advance(*args, **kwargs)

        laws = StepProblem.laws

        def fresh_laws(self, u):
            # forget the record of the last iterate, so that it is made again
            self._at = None
            return laws(self, u)

        monkeypatch.setattr(constitutive, "_exp", counting_exp)
        monkeypatch.setattr(cli, "advance", counting_advance)
        # a run before this one may have left its last state in the slot
        monkeypatch.setattr(stepper, "_carried", (None, None))
        if not reuse:
            monkeypatch.setattr(StepProblem, "laws", fresh_laws)
        cfg = load_config(None, "pde", overrides={"closure": closure, "T": 0.5})
        counts.append(0)  # initial data, before the first step
        run = cli.simulate_pde(cfg, SolverOptions())
        monkeypatch.undo()
        return run, counts[1:]

    @pytest.mark.parametrize("closure", ["eq", "neq", "hyst"])
    def test_one_evaluation_per_iterate_changes_no_bits(self, monkeypatch, closure):
        shipped, counts = self.run_pde(monkeypatch, closure)
        fresh, _ = self.run_pde(monkeypatch, closure, reuse=False)

        for a, b in zip(shipped.states, fresh.states, strict=True):
            assert a.t == b.t
            assert np.array_equal(a.u, b.u)
            assert np.array_equal(a.upsilon, b.upsilon)
        for a, b in zip(shipped.reports, fresh.reports, strict=True):
            assert (a.outer_iters, a.inner_iters_total, a.residual_history) == (
                b.outer_iters,
                b.inner_iters_total,
                b.residual_history,
            )
        # one exponential per Newton update, and one for the first step's
        # initial guess, which serves its right-hand side and the envelope
        # gap's lower curve; every later step starts from the laws the step
        # before it evaluated at the state it accepted
        assert counts == [(n == 0) + r.inner_iters_total for n, r in enumerate(shipped.reports)]
        assert any(r.outer_iters > 1 for r in shipped.reports)
