"""Cell-centered 1D mesh and assembly of the nonlinear diffusion operator.

Unknowns live at cell centers; Dirichlet data enters through half-cell
transmissibilities folded into a right-hand-side vector, so the assembled
matrix acts on cell values only.  The matrix is symmetric positive
definite for any temperature state because the conductivity is bounded
below by a positive constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constitutive import conductivity

HARMONIC = "harmonic"
ARITHMETIC = "arithmetic"


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell-centered mesh over the unit interval."""

    num_cells: int
    # a class constant, not a field: every domain is the unit interval
    length = 1.0

    def __post_init__(self):
        # a float count, NaN included, would pass ``< 2`` alone
        if not isinstance(self.num_cells, (int, np.integer)) or self.num_cells < 2:
            raise ValueError(f"need an integer count of at least two cells, got {self.num_cells}")

    @property
    def h(self):
        return self.length / self.num_cells

    @property
    def centers(self):
        h = self.h
        return (np.arange(self.num_cells) + 0.5) * h


@dataclass(frozen=True)
class StiffnessAssembly:
    """Symmetric tridiagonal diffusion matrix plus Dirichlet contributions.

    ``diag`` holds the main diagonal, ``off`` the single sub/super
    diagonal, ``bc_rhs`` the boundary data times the half-cell
    transmissibilities (nonzero only in the first and last entries).
    """

    diag: np.ndarray
    off: np.ndarray
    bc_rhs: np.ndarray

    def matvec(self, x):
        y = self.diag * x
        if self.off.size:
            y[:-1] += self.off * x[1:]
            y[1:] += self.off * x[:-1]
        return y


def assemble(u, material, grid, ud_left, ud_right, face_average=HARMONIC, k=None):
    """Assemble the diffusion matrix at temperature state ``u``.

    Interior faces use the chosen average of the two adjacent cell
    conductivities; boundary faces use the adjacent cell's conductivity
    over half a cell, which is where the Dirichlet values enter.  ``k`` is
    the cell conductivity at ``u`` when the caller already holds it.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.num_cells,):
        raise ValueError(f"state length {u.shape} does not match grid {grid.num_cells}")
    h = grid.h
    if k is None:
        k = conductivity(u, material)
    if face_average == HARMONIC:
        k_face = 2.0 * k[:-1] * k[1:] / (k[:-1] + k[1:])
    elif face_average == ARITHMETIC:
        k_face = 0.5 * (k[:-1] + k[1:])
    else:
        raise ValueError(f"unknown face averaging {face_average!r}")
    t_int = k_face / (h * h)
    t_left = 2.0 * k[0] / (h * h)
    t_right = 2.0 * k[-1] / (h * h)

    # each cell sums its two faces; the end cells' outer faces are the boundary ones
    diag = np.concatenate(([t_int[0] + t_left], t_int[1:] + t_int[:-1], [t_int[-1] + t_right]))

    bc_rhs = np.zeros(grid.num_cells)
    bc_rhs[0] = t_left * ud_left
    bc_rhs[-1] = t_right * ud_right
    return StiffnessAssembly(diag=diag, off=-t_int, bc_rhs=bc_rhs)


def boundary_transmissibilities(asm):
    """Recover (t_left, t_right) from a matrix assembled on two or more cells."""
    return asm.diag[0] + asm.off[0], asm.diag[-1] + asm.off[-1]
