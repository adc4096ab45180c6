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

from .constitutive import conductivity, constant

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
    transmissibilities (nonzero only in the first and last entries), and
    ``boundary`` those two transmissibilities, when the assembly knows them.
    """

    diag: np.ndarray
    off: np.ndarray
    bc_rhs: np.ndarray
    boundary: tuple | None = None

    def matvec(self, x):
        off = self.off
        y = self.diag * x
        # y[:-1] += off*x[1:], then y[1:] += off*x[:-1], written in place;
        # for one cell every slice is empty and both updates do nothing
        head, tail = y[:-1], y[1:]
        t = off * x[1:]
        np.add(head, t, out=head)
        np.multiply(off, x[:-1], out=t)
        np.add(tail, t, out=tail)
        return y

    def with_boundary_data(self, ud_left, ud_right):
        """The same matrix with ``bc_rhs`` made from new Dirichlet values."""
        t_left, t_right = self.boundary
        bc_rhs = _boundary_rhs(self.diag.shape[0], t_left * ud_left, t_right * ud_right)
        return StiffnessAssembly(self.diag, self.off, bc_rhs, self.boundary)


def _boundary_rhs(n, left, right):
    bc_rhs = np.zeros(n)
    bc_rhs[0] = left
    bc_rhs[-1] = right
    return bc_rhs


_TWO = constant(2.0)
_HALF = constant(0.5)


def assemble(u, material, grid, ud_left, ud_right, face_average=HARMONIC, k=None):
    """Assemble the diffusion matrix at temperature state ``u``.

    Interior faces use the chosen average of the two adjacent cell
    conductivities; boundary faces use the adjacent cell's conductivity
    over half a cell, which is where the Dirichlet values enter.  ``k`` is
    the cell conductivity at ``u`` when the caller already holds it.
    """
    u = np.asarray(u, dtype=float)
    n = grid.num_cells
    if u.shape != (n,):
        raise ValueError(f"state length {u.shape} does not match grid {n}")
    h = grid.h
    if k is None:
        k = conductivity(u, material)
    k_lo, k_hi = k[:-1], k[1:]
    if face_average == HARMONIC:
        k_face = _TWO * k_lo * k_hi / (k_lo + k_hi)
    elif face_average == ARITHMETIC:
        k_face = _HALF * (k_lo + k_hi)
    else:
        raise ValueError(f"unknown face averaging {face_average!r}")
    t_int = k_face / (h * h)
    t_left = 2.0 * k[0] / (h * h)
    t_right = 2.0 * k[-1] / (h * h)

    # each cell sums its two faces; the end cells' outer faces are the boundary ones
    diag = np.empty(n)
    np.add(t_int[1:], t_int[:-1], out=diag[1:-1])
    diag[0] = t_int[0] + t_left
    diag[-1] = t_int[-1] + t_right
    bc_rhs = _boundary_rhs(n, t_left * ud_left, t_right * ud_right)
    return StiffnessAssembly(diag, -t_int, bc_rhs, (t_left, t_right))
