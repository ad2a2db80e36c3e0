"""Forward optical model: Robin-boundary diffusion solves and derivatives.

The operator is (-lap + a) with the boundary condition l*dnu(phi) + phi = g
discretized by second-order ghost elimination. Rows are scaled by the
trapezoid pattern so the assembled system is symmetric positive definite. At
l = 0, the Dirichlet limit phi = g, the boundary rows are the identity and
the interior rows the 5-point (-lap + a), whose boundary neighbours move to
the right-hand side; that system is symmetric positive definite too.

Every solve follows one rule. Each ``RobinOperator`` has a background T: the
operator at the constant coefficient c = median(a) (Concus and Golub 1973),
whose direct solver is fast diagonalisation (``fields.SeparableSolver``),
since an operator with one constant coefficient is a Kronecker sum of 1-D
forms at every l. No solve builds a sparse LU. A system A = T + D, for the
diagonal D = row_weights * (a_A - c), is solved by conjugate gradient
preconditioned by T's solver, on the box of D's nodes. Its start is first
moved, by one solve with T, until its residual is nonzero on D's nodes
only; T's solver inverts T exactly, so CG keeps A p by a recurrence that
applies only D, every residual stays on D's nodes, and each iteration
needs T^-1 only from the box to the box: CG on the box is CG on T's
capacitance system there (Buzbee, Dorr, George and Golub 1971, SIAM J.
Numer. Anal. 8; Proskurowski and Widlund 1976, Math. Comp. 30). At
exit one more solve with T, from the box to the grid, gives the solution,
and the stencil checks its true residual on the whole grid (see
``fields.cg``); if that misses the tolerance, CG runs once more from its
iterate. When D is empty, as for a constant coefficient, the moved start
is the solution.

Backgrounds are shared: every operator with the same grid, l and median
coefficient has the same background, and so the same diagonalisation. For
a phantom whose inclusions cover less than half the grid, c is the
background level a0, and D lives on the inclusions only.

A system is an operator's own, or a perturbed one given as a shell ``(i, j,
values)`` of the operator that solves it: the nodes where its coefficient
differs from the operator's own, and the coefficient there. Given k shells
and a (k, n, n) stack of right-hand sides, ``RobinOperator.solve`` solves k
independent systems at once: one stacked CG whose preconditioner solves the
residuals of the systems still iterating in one multi-right-hand-side call.
Two callers solve stacks this way: the exhaustion guess of ``inversion``
solves each stack of candidate coefficients on the background operator, and
the M_eta sweep of ``acousto`` solves the displaced media of one wave
radius, over all sources, a few at a time, on the context's operator, each
given as its displaced shell. Every other solve is a single system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .fields import (
    BoundaryTrace,
    Grid,
    ScalarField,
    SeparableSolver,
    SolverError,
    cg,
    edge_form_matrix,
    gradient,
    neumann_edge_coefficients,
    second_difference,
    stack_dot,
)

# the shell of a lone system, which replaces no node of its coefficient
_NO_SHELL = (np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp),
             np.zeros(0))

# backgrounds by (n, l, c), the least recently used first. A few keys: an
# eviction between two keys in use would build their solver again
_BACKGROUNDS = {}
_MAX_BACKGROUNDS = 4


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

    ``a_values`` is one (n, n) coefficient. ``apply`` maps one field or a
    (k, n, n) stack of them, each by this operator.
    """

    def __init__(self, grid: Grid, a_values, l: float):
        if l < 0:
            raise ValueError("extrapolation length must be nonnegative")
        self.grid = grid
        self.a = np.ascontiguousarray(a_values, dtype=np.float64)
        self.l = float(l)
        self._solver = None
        self._background = None
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
        """The operator as a CSR matrix, for the tests and the benchmark;
        it needs SciPy, which no command of the package loads."""
        import scipy.sparse as sp

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

    @property
    def background(self):
        """The operator at the constant coefficient median(a), shared by
        every operator with the same grid, l and median (see
        ``_BACKGROUNDS``): an operator with one constant coefficient is its
        own background unless another one with that coefficient came first.
        With an even node count the median is the upper of the two middle
        values."""
        if self._background is None:
            # np.partition, not np.median, which imports numpy.ma (15 ms)
            middle = self.a.size // 2
            c = float(np.partition(self.a.ravel(), middle)[middle])
            key = (self.grid.n, self.l, c)
            op = _BACKGROUNDS.pop(key, None)
            if op is None:
                op = self if np.all(self.a == c) else RobinOperator(
                    self.grid, np.full(self.grid.shape, c), self.l)
            # the most recently used key last, the least first
            _BACKGROUNDS[key] = op
            if len(_BACKGROUNDS) > _MAX_BACKGROUNDS:
                del _BACKGROUNDS[next(iter(_BACKGROUNDS))]
            self._background = op
        return self._background

    def factorized(self):
        """The direct solver of this operator's background, built once per
        background, so every operator that shares a background shares it.

        The background has one constant coefficient a, so it is a Kronecker
        sum, and a ``fields.SeparableSolver`` solves it. At l > 0 it is
        P (x) C + C (x) P, where C holds the trapezoid factors and
        P = D^T D / h^2 + C (a/2 + 2 E / (l h)) with E the indicator of the
        two end nodes. At l = 0 it is the identity on the boundary rows and
        P (x) I + I (x) P on the interior nodes, with P the (n-2)-point
        Dirichlet form / h^2 + a/2. It is what :meth:`solve` preconditions
        by, and with a constant coefficient it inverts this operator.
        """
        op = self.background
        if op._solver is None:
            a = op.a.flat[0]
            n, h = self.grid.n, self.grid.h
            if self.l > 0:
                c = self.grid.trapezoid_factors()
                robin = np.zeros(n)
                robin[0] = robin[-1] = 1.0 / (self.l * h)
                p = second_difference(n) / (h * h) + np.diag(0.5 * a * c
                                                             + robin)
                op._solver = SeparableSolver(p, c)
            else:
                p = (second_difference(n)[1:-1, 1:-1] / (h * h)
                     + 0.5 * a * np.eye(n - 2))
                op._solver = SeparableSolver(p, np.ones(n - 2), border=True)
        return op._solver

    def solve(self, b, x0=None, shells=None, x0_unperturbed=False):
        """Solve A x = b.

        Without ``shells``, A is this operator S, and ``b`` one (n, n)
        field. With ``shells``, one ``(i, j, values)`` per system, A is S
        with its coefficient replaced by ``values`` on the nodes ``(i,
        j)``, and ``b`` is one (n, n) field for one shell, or a (k, n, n)
        stack for k, each system stopping on its own.

        Either way A = T + D, for S's background T at the constant c (see
        :meth:`background`) and the diagonal D = row_weights * (a_A - c),
        nonzero where S's own coefficient differs from c or on the shell.
        Every system is solved by CG preconditioned by T's direct solver
        (see :meth:`factorized`), applying only D in its loop, on the box
        of D's nodes (see ``fields.cg``): to relative residual 1e-12 alone
        and 1e-10 with shells. So a start is first moved until its residual
        lives on D's nodes: a start ``x0`` by one solve with T, x0 + T^-1
        (b - A x0), whose residual is -D T^-1 (b - A x0), and a cold start
        to T^-1 b. A system with D = 0, as for a constant coefficient, is
        then solved, in 0 iterations. CG stops on its recurrence's
        residual and checks the true one, ||A x - b|| / ||b|| on the whole
        grid, once at exit; if that misses, CG runs once more from its
        iterate. On a stack, the residuals of the systems still iterating
        are solved as one multi-right-hand-side box solve, and the residual
        reported is the worst system's. At l = 0 the boundary rows of x are
        those of b.

        ``x0``, shaped like ``b``, starts the systems. With
        ``x0_unperturbed`` it is S's own solution for b, whose residual is
        -(A - S) x0, nonzero on the shell only, so it needs no move.
        """
        n = self.grid.n
        direct = self.factorized()
        background = self.background
        box, d, r0 = self._diagonal(
            [_NO_SHELL] if shells is None else shells, background.a.flat[0],
            x0 if x0_unperturbed else None)
        # one box per system, or the one box of a lone field
        d = d.reshape(b.shape[:-2] + d.shape[1:])
        at = (Ellipsis,) + box

        def shift(p, out):
            out += d * p

        if shells is None:
            apply = self.apply
        else:
            def apply(x):
                out = background.apply(x)
                out[at] += d * x[at]
                return out

        def moved(x):
            # x moved by one solve with T, x + T^-1 (b - A x) in place, so
            # that its residual -D T^-1 (b - A x) lives on D's nodes; and
            # that residual on the box. A cold start moves to T^-1 b
            if x is None:
                x = t = direct.solve(b.reshape(-1, n * n).T).T.reshape(b.shape)
            else:
                r = apply(x)
                np.subtract(b, r, out=r)
                t = direct.solve(r.reshape(-1, n * n).T).T.reshape(b.shape)
                x += t
                if self.l == 0:
                    # the identity rows, solved exactly; no interior row
                    # reads a boundary entry
                    rows = self.row_weights == 0
                    x[..., rows] = b[..., rows]
            return x, -(d * t[at])

        def run(x, r):
            return cg(apply, b, tol=1e-12 if shells is None else 1e-10,
                      max_iter=50 * n, x0=x, r0=r,
                      precond=lambda z: direct.solve_box(z, *box),
                      dot=stack_dot if b.ndim == 3 else _dot, shift=shift,
                      lift=lambda y: direct.solve_box(y, *box, full=True))

        try:
            if x0_unperturbed:
                return run(x0, r0.reshape(d.shape))
            return run(*moved(None if x0 is None
                              else np.array(x0, dtype=np.float64)))
        except SolverError as exc:
            # the recurrence's residual drifted off the true one, or ran out
            # of steps: once more from the iterate
            x, res, its = run(*moved(exc.iterate))
            return x, res, its + exc.iterations

    def _diagonal(self, shells, c, x0=None):
        """The box of D's nodes and, on it, D = row_weights * (a_s - c) of
        each shell's system s, as a (k, rows, columns) stack, built in one
        pass. The coefficient a_s is the shell's values on the shell and
        this operator's coefficient elsewhere, and the box, two slices, is
        the least that holds every node of nonzero row weight where either
        differs from c; it is empty if there is none. Given this operator's
        own solution ``x0`` (a stack), the third item is the box values of
        each system's start residual -(A - S) x0 = row_weights * (a - a_s)
        * x0; else None."""
        a, w = self.a, self.row_weights
        s = np.repeat(np.arange(len(shells)), [len(sh[0]) for sh in shells])
        i, j, values = (np.concatenate(part) for part in zip(*shells))
        nodes = a != c
        changed = values != c
        nodes[i[changed], j[changed]] = True
        nodes &= w != 0.0
        rows, cols = box = (_span(nodes.any(axis=1)), _span(nodes.any(axis=0)))
        coef = np.repeat(a[box][None], len(shells), axis=0)
        # a shell node off the box is of a zero row weight, or a and a_s
        # are c there
        inside = ((i >= rows.start) & (i < rows.stop) & (j >= cols.start)
                  & (j < cols.stop))
        coef[s[inside], i[inside] - rows.start,
             j[inside] - cols.start] = values[inside]
        d = w[box] * (coef - c)
        if x0 is None:
            return box, d, None
        return box, d, w[box] * (a[box] - coef) * x0[(Ellipsis,) + box]


def _span(flags):
    """The least slice that holds every true entry of ``flags``."""
    at = np.flatnonzero(flags)
    return slice(at[0], at[-1] + 1) if at.size else slice(0, 0)


def _dot(u, v):
    """The dot product of two fields, as ``np.linalg.norm`` sums it."""
    return float(u.ravel() @ v.ravel())


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


def solve_T(problem: RobinProblem) -> OpticalSolution:
    """Solve the diffusion problem and return the energy density and its
    outgoing boundary flux (see ``RobinOperator.solve``)."""
    grid = problem.a.grid
    op = RobinOperator(grid, problem.a.values, problem.l)
    x, res, it = op.solve(op.boundary_rhs(problem.g))
    phi = ScalarField(grid, x)
    flux = BoundaryTrace(grid, op.boundary_flux(problem.g, x))
    return OpticalSolution(phi, flux, res, it)


def solve_adjoint(a: ScalarField, source: ScalarField, l: float
                  ) -> ScalarField:
    """Solve (-lap + a) z = source with homogeneous Robin data.

    The operator equals its own adjoint in the trapezoid inner product, so
    this routine serves both tangent and adjoint solves.
    """
    grid = a.grid
    op = RobinOperator(grid, a.values, l)
    x, _, _ = op.solve(op.source_rhs(source))
    return ScalarField(grid, x)


def solve_DT(a: ScalarField, phi: ScalarField, h: ScalarField, l: float
             ) -> ScalarField:
    """Directional derivative of the coefficient-to-solution map.

    Solves (-lap + a) dphi = -h * phi with homogeneous Robin data, where phi
    is the solution at coefficient ``a``.
    """
    source = ScalarField(a.grid, -h.values * phi.values)
    return solve_adjoint(a, source, l)
