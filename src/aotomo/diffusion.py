"""Forward optical model: Robin-boundary diffusion solves and derivatives.

The operator is (-lap + a) with the boundary condition l*dnu(phi) + phi = g
discretized by second-order ghost elimination. Rows are scaled by the
trapezoid pattern so the assembled system is symmetric positive definite. At
l = 0, the Dirichlet limit phi = g, the boundary rows are the identity and
the interior rows the 5-point (-lap + a), whose boundary neighbours move to
the right-hand side; that system is symmetric positive definite too. Solves
are conjugate gradient, optionally preconditioned by the cached sparse
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
other solve is a single system.
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
    gradient,
    neumann_edge_coefficients,
    spd_lu,
    stack_dot,
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
    """Symmetrized discrete diffusion operator for a fixed coefficient: the
    Robin rows of ``kernels.robin_apply``, or at l = 0 the identity on the
    boundary and the 5-point (-lap + a) of ``kernels.dirichlet_apply`` inside,
    whose boundary neighbours ``boundary_rhs`` moves to the right-hand side.

    ``a_values`` is one (n, n) coefficient or a (k, n, n) stack of them; a
    stack maps, and solves, k fields at once, one per coefficient. Only a
    single operator can be assembled and factorized.
    """

    def __init__(self, grid: Grid, a_values, l: float):
        if l < 0:
            raise ValueError("extrapolation length must be nonnegative")
        self.grid = grid
        self.a = np.ascontiguousarray(a_values, dtype=np.float64)
        self.l = float(l)
        self._splu = None
        # a source's share in each row; none in the identity rows of l = 0
        c = np.ones(grid.n)
        c[0] = c[-1] = 0.5 if self.l > 0 else 0.0
        self.row_weights = np.outer(c, c)

    def apply(self, x):
        if self.l > 0:
            return kernels.robin_apply(x, self.a, self.l, self.grid.h)
        out = kernels.dirichlet_apply(x, self.a, self.grid.h)
        ii, jj = self.grid.boundary_indices()
        out[..., ii, jj] = x[..., ii, jj]
        return out

    def boundary_rhs(self, g: BoundaryTrace):
        """Right-hand side vector for boundary data g (already row-scaled);
        it does not depend on the coefficient."""
        h = self.grid.h
        if self.l > 0:
            return g.as_grid_array() / (self.l * h)
        b = g.as_grid_array()
        b[1:-1, 1:-1] = (b[:-2, 1:-1] + b[2:, 1:-1] + b[1:-1, :-2]
                         + b[1:-1, 2:]) / (h * h)
        return b

    def boundary_flux(self, g: BoundaryTrace, x):
        """Outgoing flux (g - x)/l on the boundary nodes of the solution x
        for data g, one row per field of a stack; at l = 0, one field's."""
        if self.l == 0:
            return _one_sided_flux(self.grid, x)
        ii, jj = self.grid.boundary_indices()
        return (g.values - x[..., ii, jj]) / self.l

    def source_rhs(self, s):
        """Right-hand side for an interior source term (-lap+a)phi = s."""
        vals = s.values if isinstance(s, ScalarField) else np.asarray(s)
        return self.row_weights * vals

    def sparse_matrix(self):
        n, h = self.grid.n, self.grid.h
        if self.l == 0:
            # the 5-point operator on the interior, the identity elsewhere
            form = edge_form_matrix(np.ones((n - 1, n)), np.ones((n, n - 1)))
            inner = sp.diags(self.row_weights.ravel())
            return (inner @ (form / (h * h) + sp.diags(self.a.ravel())) @ inner
                    + sp.diags(1.0 - self.row_weights.ravel())).tocsr()
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


def _one_sided_flux(grid, phi_values):
    """Outward normal derivative on the boundary nodes, from the one-sided
    end rows of ``fields.gradient``; corners average their two normals."""
    grad = gradient(ScalarField(grid, phi_values))
    out = np.zeros(grid.shape)
    out[0, :] -= grad.vx[0, :]
    out[-1, :] += grad.vx[-1, :]
    out[:, 0] -= grad.vy[:, 0]
    out[:, -1] += grad.vy[:, -1]
    out[::grid.n - 1, ::grid.n - 1] *= 0.5
    ii, jj = grid.boundary_indices()
    return out[ii, jj]


def solve_T(problem: RobinProblem, x0: ScalarField | None = None,
            precond_with: RobinOperator | None = None) -> OpticalSolution:
    """Solve the diffusion problem and return the energy density and its
    outgoing boundary flux. A lone l = 0 system given no preconditioner is
    one solve on its own factorization, which keeps phi = g on the boundary
    exactly; it reports 0 iterations and its true relative residual."""
    grid = problem.a.grid
    op = RobinOperator(grid, problem.a.values, problem.l)
    b = op.boundary_rhs(problem.g)
    if problem.l == 0 and precond_with is None:
        x = op.factorized().solve(b.ravel()).reshape(grid.shape)
        miss = op.apply(x) - b
        res, it = float(np.linalg.norm(miss) / (np.linalg.norm(b) or 1)), 0
    else:
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
