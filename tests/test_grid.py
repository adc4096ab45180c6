import numpy as np
import pytest

from cryostef.constitutive import ScaledMaterial
from cryostef.grid import Grid1D, assemble, boundary_transmissibilities


def dense_matrix(asm):
    n = asm.diag.size
    a = np.diag(asm.diag)
    if asm.off.size:
        a += np.diag(asm.off, 1) + np.diag(asm.off, -1)
    return a


class TestGrid1D:
    def test_centers(self):
        g = Grid1D(4)
        assert g.h == 0.25
        assert np.allclose(g.centers, [0.125, 0.375, 0.625, 0.875])
        assert np.all(np.diff(g.centers) > 0)
        assert g.centers[0] > 0 and g.centers[-1] < g.length

    def test_rejects_tiny_grids(self):
        with pytest.raises(ValueError):
            Grid1D(1)

    @pytest.mark.parametrize("num_cells", [float("nan"), 2.5, 4.0])
    def test_rejects_a_count_that_is_not_an_integer(self, num_cells):
        with pytest.raises(ValueError, match=f"at least two cells, got {num_cells}$"):
            Grid1D(num_cells)

    def test_accepts_a_numpy_integer_count(self):
        assert Grid1D(np.int64(3)).centers.shape == (3,)


class TestAssemble:
    def test_hand_assembly_two_cells(self, unit_material):
        g = Grid1D(2)
        asm = assemble(np.array([1.0, 1.0]), unit_material, g, 0.0, 0.0)
        # h=0.5: interior face 4 (harmonic mean of equal values), boundary 8
        assert np.allclose(asm.diag, [12.0, 12.0])
        assert np.allclose(asm.off, [-4.0])
        assert np.allclose(asm.bc_rhs, [0.0, 0.0])
        assert boundary_transmissibilities(asm) == (8.0, 8.0)

    def test_boundary_data_in_rhs(self, unit_material):
        g = Grid1D(4)
        asm = assemble(np.full(4, 2.0), unit_material, g, 3.0, -1.0)
        t_b = 2.0 * 1.0 / g.h**2
        assert asm.bc_rhs[0] == pytest.approx(t_b * 3.0)
        assert asm.bc_rhs[-1] == pytest.approx(t_b * -1.0)
        assert np.all(asm.bc_rhs[1:-1] == 0.0)

    def test_spd_for_random_states(self, material, rng):
        g = Grid1D(20)
        for _ in range(100):
            u = rng.uniform(-10.0, 10.0, size=20)
            asm = assemble(u, material, g, 0.0, 0.0)
            for _ in range(5):
                xi = rng.standard_normal(20)
                assert float(xi @ asm.matvec(xi)) > 0.0

    def test_fully_thawed_is_scaled_laplacian(self, material):
        g = Grid1D(6)
        u = np.full(6, 3.0)
        asm = assemble(u, material, g, 1.0, 1.0)
        t = material.k_u / g.h**2
        expected_diag = np.full(6, 2.0 * t)
        expected_diag[0] += t
        expected_diag[-1] += t
        assert np.allclose(asm.diag, expected_diag)
        assert np.allclose(asm.off, -t)

    def test_thawed_states_give_same_matrix(self, material, rng):
        # the conductivity is flat above the kink, so the matrix does not
        # move between thawed states
        g = Grid1D(8)
        a1 = assemble(rng.uniform(1.5, 5.0, size=8), material, g, 0.0, 0.0)
        a2 = assemble(rng.uniform(1.5, 5.0, size=8), material, g, 0.0, 0.0)
        assert np.array_equal(a1.diag, a2.diag)
        assert np.array_equal(a1.off, a2.off)

    def test_matvec_matches_dense(self, material, rng):
        g = Grid1D(15)
        u = rng.uniform(-6, 3, size=15)
        asm = assemble(u, material, g, 0.5, -0.5)
        a = dense_matrix(asm)
        x = rng.standard_normal(15)
        assert np.allclose(asm.matvec(x), a @ x, atol=1e-14)

    def test_diagonal_dominance_strict_at_boundaries(self, material, rng):
        g = Grid1D(12)
        for _ in range(20):
            u = rng.uniform(-8, 4, size=12)
            asm = assemble(u, material, g, 0.0, 0.0)
            off_sums = np.zeros(12)
            off_sums[:-1] += np.abs(asm.off)
            off_sums[1:] += np.abs(asm.off)
            slack = asm.diag - off_sums
            assert np.all(slack >= -1e-12)
            assert slack[0] > 0.0 and slack[-1] > 0.0

    def test_symmetry_and_cholesky(self, material, rng):
        g = Grid1D(12)
        for _ in range(20):
            u = rng.uniform(-8, 4, size=12)
            a = dense_matrix(assemble(u, material, g, 0.0, 0.0))
            assert np.array_equal(a, a.T)
            np.linalg.cholesky(a)  # raises if not SPD

    def test_arithmetic_average_option(self, material):
        g = Grid1D(3)
        u = np.array([-5.0, 0.0, 2.0])
        harm = assemble(u, material, g, 0.0, 0.0, "harmonic")
        arith = assemble(u, material, g, 0.0, 0.0, "arithmetic")
        # harmonic mean never exceeds arithmetic
        assert np.all(-harm.off <= -arith.off + 1e-15)
        assert not np.allclose(harm.off, arith.off)

    def test_wrong_length_rejected(self, material):
        with pytest.raises(ValueError):
            assemble(np.zeros(3), material, Grid1D(4), 0.0, 0.0)

    def test_consistency_second_order(self, unit_material):
        # manufactured solution u = sin(pi x) with k=1 and zero Dirichlet data:
        # the cell-center residual A u_h - pi^2 sin(pi x) shrinks at rate h^2
        errors = []
        for m_cells in (16, 32, 64, 128):
            g = Grid1D(m_cells)
            x = g.centers
            u = np.sin(np.pi * x)
            asm = assemble(u * 0.0, unit_material, g, 0.0, 0.0)  # k constant anyway
            resid = asm.matvec(u) - asm.bc_rhs - np.pi**2 * np.sin(np.pi * x)
            errors.append(np.max(np.abs(resid)))
        rates = [np.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
        assert all(1.8 <= r <= 2.2 for r in rates)

