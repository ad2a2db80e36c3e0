"""Oracles the tests check the package against; no stage of the pipeline
runs them."""

import numpy as np

from aotomo.fields import (
    ScalarField,
    dirichlet_laplace_solve,
    edge_form_matrix,
    neumann_edge_coefficients,
    neumann_solve_weighted,
    spd_lu,
)


def poisson_dirichlet(rhs) -> ScalarField:
    """Solve -lap(u) = rhs with u = 0 on the boundary (5-point stencil)."""
    grid = rhs.grid
    return ScalarField(grid, dirichlet_laplace_solve(rhs.values, grid.h))


def poisson_neumann(rhs) -> ScalarField:
    """Solve lap(f) = rhs with homogeneous Neumann data, zero-mean solution.

    The compatibility condition is enforced by subtracting the weighted mean
    of the right-hand side.
    """
    grid, r = rhs.grid, rhs.values
    w = grid.trapezoid_weights()
    r0 = r - np.sum(w * r) / w.sum()
    # weak form: E f = -(W * rhs)
    return ScalarField(grid, neumann_solve_weighted(grid, -(w * r0)))


def pinned_neumann_solve(grid, b):
    """The edge-form Neumann system E z = b solved by sparse LU: E is
    symmetric with the constants as its kernel, so once the plain mean of b
    is projected out node 0's row follows from the others, and pinning z
    there to zero leaves an SPD system. Returns the zero-weighted-mean z."""
    bproj = (b - b.sum() / b.size).ravel()
    form = edge_form_matrix(*neumann_edge_coefficients(grid))
    z = np.zeros(grid.shape)
    z.flat[1:] = spd_lu(form[1:, 1:]).solve(bproj[1:])
    w = grid.trapezoid_weights()
    return z - np.sum(w * z) / w.sum()
