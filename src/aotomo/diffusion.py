"""Forward optical model: Robin-boundary diffusion solves and derivatives.

The operator is (-lap + a) with the boundary condition l*dnu(phi) + phi = g
discretized by second-order ghost elimination. Rows are scaled by the
trapezoid pattern so the assembled system is symmetric positive definite;
solves are conjugate gradient, optionally preconditioned by the cached sparse
factorization of a nearby operator. A measurement sweep preconditions its
perturbed solves with the unperturbed operator; the reconstruction
preconditions its forward, tangent and adjoint solves with the operator at
the constant background coefficient, except the step-size estimate, whose
tangent and adjoint solves all sit at one iterate and are preconditioned by
that iterate's own factorization.

A :class:`RobinOperator` built on a (k, n, n) stack of coefficients solves k
independent systems at once: one stacked CG (see ``fields.cg``) whose
preconditioner solves the residuals of the systems still iterating in one
multi-right-hand-side call on the nearby operator's LU. Two callers solve
stacks this way: the exhaustion guess of ``inversion`` solves each stack of
candidate coefficients on the background factorization, and the M_eta sweep
of ``acousto`` solves the displaced media of one wave radius, over all
sources, at most four at a time, on the unperturbed factorization. Every
other solve is a single system. With l = 0, phi = g on the boundary, and
the solve is one sparse LU solve of (-lap + a) on the interior nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import kernels
from .fields import (
    BoundaryTrace,
    Grid,
    ScalarField,
    cg,
    edge_form_matrix,
    neumann_edge_coefficients,
    spd_lu,
    stack_dot,
    trace_from_grid,
)


@dataclass(frozen=True)
class RobinProblem:
    a: ScalarField
    g: BoundaryTrace
    l: float

    def __post_init__(self):
        if self.l < 0:
            raise ValueError("extrapolation length must be nonnegative")
        if np.min(self.a.values) < 0:
            raise ValueError("absorption must be nonnegative")


@dataclass(frozen=True)
class OpticalSolution:
    phi: ScalarField
    flux: BoundaryTrace
    residual: float
    iterations: int


class RobinOperator:
    """Symmetrized discrete Robin diffusion operator for a fixed coefficient.

    ``a_values`` is one (n, n) coefficient or a (k, n, n) stack of them; a
    stack maps, and solves, k fields at once, one per coefficient. Only a
    single operator can be assembled and factorized.
    """

    def __init__(self, grid: Grid, a_values, l: float):
        if l <= 0:
            raise ValueError("RobinOperator needs l > 0; use the Dirichlet path")
        self.grid = grid
        self.a = np.ascontiguousarray(a_values, dtype=np.float64)
        self.l = float(l)
        self._splu = None
        c = np.ones(grid.n)
        c[0] = c[-1] = 0.5
        self.row_weights = np.outer(c, c)

    def apply(self, x):
        return kernels.robin_apply(x, self.a, self.l, self.grid.h)

    def boundary_rhs(self, g: BoundaryTrace):
        """Right-hand side vector for boundary data g (already row-scaled);
        it does not depend on the coefficient."""
        n = self.grid.n
        b = np.zeros((n, n))
        ii, jj = self.grid.boundary_indices()
        b[ii, jj] = g.values / (self.l * self.grid.h)
        return b

    def boundary_flux(self, g: BoundaryTrace, x):
        """Outgoing flux (g - x)/l on the boundary nodes of the solution x
        for data g; one row per field of a stack."""
        ii, jj = self.grid.boundary_indices()
        return (g.values - x[..., ii, jj]) / self.l

    def source_rhs(self, s):
        """Right-hand side for an interior source term (-lap+a)phi = s."""
        vals = s.values if isinstance(s, ScalarField) else np.asarray(s)
        return self.row_weights * vals

    def sparse_matrix(self):
        n, h = self.grid.n, self.grid.h
        ends = np.zeros(n)
        ends[0] = ends[-1] = 1.0
        sides = ends[:, None] + ends[None, :]
        diag = self.row_weights * (self.a + sides * (2.0 / (self.l * h)))
        form = edge_form_matrix(*neumann_edge_coefficients(self.grid))
        return (form / (h * h) + sp.diags(diag.ravel())).tocsr()

    def factorized(self):
        if self._splu is None:
            self._splu = spd_lu(self.sparse_matrix())
        return self._splu

    def solve(self, b, x0=None, precond_with=None):
        """CG solve of S x = b; optionally preconditioned by the factorization
        of a nearby operator (PCG).

        On a stack of coefficients, ``b`` and ``x0`` are matching stacks and
        the k systems are solved by one stacked CG; the preconditioner solves
        the residuals of the systems still iterating as one
        multi-right-hand-side LU solve.
        """
        n = self.grid.n
        precond = None
        if precond_with is not None:
            lu = precond_with.factorized()

            def precond(r):
                # one column per field; SuperLU returns Fortran order, so
                # the transposes copy nothing
                return lu.solve(r.reshape(-1, n * n).T).T.reshape(r.shape)

        dot = stack_dot if self.a.ndim == 3 else None
        return cg(self.apply, b, max_iter=50 * n, x0=x0, precond=precond,
                  dot=dot)


def _dirichlet_solve(grid, a_values, g: BoundaryTrace):
    """phi = g on the boundary, (-lap + a) phi = 0 inside, by one LU solve
    on the interior nodes; returns phi and the solve's relative residual."""
    n, h = grid.n, grid.h
    full = (edge_form_matrix(np.ones((n - 1, n)), np.ones((n, n - 1)))
            / (h * h) + sp.diags(np.ravel(a_values))).tocsr()
    inner = np.arange(1, n - 1)
    nodes = (n * inner[:, None] + inner).ravel()
    rows = full[nodes]
    matrix = rows[:, nodes]
    x = g.as_grid_array()
    # the boundary values move to the right-hand side of the interior rows
    b = -(rows @ x.ravel())
    x.flat[nodes] = spd_lu(matrix).solve(b)
    miss = matrix @ x.flat[nodes] - b
    return x, float(np.linalg.norm(miss) / (np.linalg.norm(b) or 1.0))


def _one_sided_flux(grid, phi_values):
    """Outward normal derivative by one-sided second-order differences;
    corners average the two one-sided normals."""
    h = grid.h
    v = phi_values
    n = grid.n
    out = np.zeros(grid.shape)
    count = np.zeros(grid.shape)
    faces = [
        (np.s_[0, :], (3 * v[0, :] - 4 * v[1, :] + v[2, :]) / (2 * h)),
        (np.s_[-1, :], (3 * v[-1, :] - 4 * v[-2, :] + v[-3, :]) / (2 * h)),
        (np.s_[:, 0], (3 * v[:, 0] - 4 * v[:, 1] + v[:, 2]) / (2 * h)),
        (np.s_[:, -1], (3 * v[:, -1] - 4 * v[:, -2] + v[:, -3]) / (2 * h)),
    ]
    for sl, vals in faces:
        out[sl] += vals
        count[sl] += 1.0
    out[count > 0] /= count[count > 0]
    return trace_from_grid(grid, out)


def solve_T(problem: RobinProblem, x0: ScalarField | None = None,
            precond_with: RobinOperator | None = None) -> OpticalSolution:
    """Solve the diffusion problem and return the energy density and its
    outgoing boundary flux."""
    grid = problem.a.grid
    if problem.l == 0.0:
        x, res = _dirichlet_solve(grid, problem.a.values, problem.g)
        phi = ScalarField(grid, x)
        flux = _one_sided_flux(grid, x)
        return OpticalSolution(phi, flux, res, 0)
    op = RobinOperator(grid, problem.a.values, problem.l)
    b = op.boundary_rhs(problem.g)
    x0v = None if x0 is None else x0.values
    x, res, it = op.solve(b, x0=x0v, precond_with=precond_with)
    phi = ScalarField(grid, x)
    flux = BoundaryTrace(grid, op.boundary_flux(problem.g, x))
    return OpticalSolution(phi, flux, res, it)


def solve_adjoint(a: ScalarField, source: ScalarField, l: float,
                  precond_with: RobinOperator | None = None) -> ScalarField:
    """Solve (-lap + a) z = source with homogeneous Robin data.

    The operator equals its own adjoint in the trapezoid inner product, so
    this routine serves both tangent and adjoint solves.
    """
    grid = a.grid
    op = RobinOperator(grid, a.values, l)
    b = op.source_rhs(source)
    x, res, it = op.solve(b, precond_with=precond_with)
    return ScalarField(grid, x)


def solve_DT(a: ScalarField, phi: ScalarField, h: ScalarField,
             l: float) -> ScalarField:
    """Directional derivative of the coefficient-to-solution map.

    Solves (-lap + a) dphi = -h * phi with homogeneous Robin data, where phi
    is the solution at coefficient ``a``.
    """
    source = ScalarField(a.grid, -h.values * phi.values)
    return solve_adjoint(a, source, l)
