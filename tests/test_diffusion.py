import numpy as np
import pytest

from aotomo import diffusion, fields
from aotomo.diffusion import RobinOperator, RobinProblem, solve_DT, solve_T, solve_adjoint
from aotomo.fields import BoundaryTrace, Grid, ScalarField, inner, norm_l2

# interior bounds of the optical field over the test phantom family with unit
# illumination, recorded once as regression constants (see the suite notes)
LAMBDA_HAT = 0.8887
LAMBDA_BIG_HAT = 0.9646
# continuity constant of the solution map derivative over the same family
DT_CONTINUITY_HAT = 0.0137


def robin(grid, a_value, g_value=1.0, l=0.1):
    return RobinProblem(
        ScalarField.constant(grid, a_value),
        BoundaryTrace.constant(grid, g_value),
        l,
    )


class TestSolveT:
    def test_zero_absorption_gives_unit_field(self, grid33):
        sol = solve_T(robin(grid33, 0.0))
        assert np.max(np.abs(sol.phi.values - 1.0)) <= 1e-10
        assert np.max(np.abs(sol.flux.values)) <= 1e-9

    def test_comparison_bounds(self, grid33):
        sol = solve_T(robin(grid33, 1.0))
        assert sol.phi.values.min() > 0.0
        assert sol.phi.values.max() < 1.0

    def test_dense_oracle_small_grid(self):
        g = Grid(9)
        problem = robin(g, 1.0)
        sol = solve_T(problem)
        op = RobinOperator(g, problem.a.values, problem.l)
        dense = np.linalg.solve(
            op.sparse_matrix().toarray(), op.boundary_rhs(problem.g).ravel()
        ).reshape(g.shape)
        assert np.max(np.abs(dense - sol.phi.values)) <= 1e-10

    @pytest.mark.parametrize("n", [9, 33])
    def test_sparse_matrix_matches_apply(self, n):
        rng = np.random.default_rng(n)
        op = RobinOperator(Grid(n), rng.uniform(0.0, 3.0, (n, n)), 0.1)
        x = rng.standard_normal((n, n))
        expected = op.apply(x)
        got = (op.sparse_matrix() @ x.ravel()).reshape(n, n)
        err = np.max(np.abs(got - expected)) / np.max(np.abs(expected))
        assert err <= 1e-12

    def test_residual_contract(self, disk_phantom, grid65):
        sol = solve_T(RobinProblem(disk_phantom.sample(grid65),
                                   BoundaryTrace.constant(grid65, 1.0), 0.1))
        assert sol.residual <= 1e-10

    def test_dirichlet_path(self, grid33):
        problem = RobinProblem(
            ScalarField.constant(grid33, 1.0),
            BoundaryTrace.constant(grid33, 1.0),
            0.0,
        )
        sol = solve_T(problem)
        ii, jj = grid33.boundary_indices()
        assert np.max(np.abs(sol.phi.values[ii, jj] - 1.0)) == 0.0
        assert 0 < sol.phi.values[grid33.n // 2, grid33.n // 2] < 1

    def test_comparison_principle_family(self, phantom_family, grid65):
        for p in phantom_family:
            sol = solve_T(RobinProblem(p.sample(grid65),
                                       BoundaryTrace.constant(grid65, 1.0),
                                       0.1))
            assert sol.phi.values.min() >= -1e-10

    def test_interior_bounds_recorded(self, phantom_family, grid65):
        lam = np.inf
        big = 0.0
        region = grid65.interior_margin_mask(0.1)
        for p in phantom_family:
            sol = solve_T(RobinProblem(p.sample(grid65),
                                       BoundaryTrace.constant(grid65, 1.0),
                                       0.1))
            vals = sol.phi.values[region]
            lam = min(lam, vals.min())
            big = max(big, vals.max())
        assert lam > 0
        assert lam == pytest.approx(LAMBDA_HAT, rel=0.01)
        assert big == pytest.approx(LAMBDA_BIG_HAT, rel=0.01)


class TestDT:
    def test_zero_direction(self, disk_context65):
        ctx = disk_context65
        z = ScalarField.constant(ctx.grid, 0.0)
        out = solve_DT(ctx.a, ctx.solution.phi, z, 0.1)
        assert np.max(np.abs(out.values)) <= 1e-12

    def test_linearity(self, disk_context65):
        ctx = disk_context65
        rng = np.random.default_rng(0)
        h1 = ScalarField(ctx.grid, 0.1 * rng.standard_normal(ctx.grid.shape))
        h2 = ScalarField(ctx.grid, 0.1 * rng.standard_normal(ctx.grid.shape))
        both = ScalarField(ctx.grid, h1.values + h2.values)
        lhs = solve_DT(ctx.a, ctx.solution.phi, both, 0.1)
        rhs = solve_DT(ctx.a, ctx.solution.phi, h1, 0.1).values + solve_DT(
            ctx.a, ctx.solution.phi, h2, 0.1).values
        scale = np.max(np.abs(rhs))
        assert np.max(np.abs(lhs.values - rhs)) <= 1e-10 * max(scale, 1.0)

    def test_taylor_order(self, disk_context65):
        ctx = disk_context65
        # a smooth direction large enough that the quadratic remainder sits
        # far above the linear-solver tolerance
        hdir = ScalarField.from_function(
            ctx.grid, lambda x, y: 5.0 * np.sin(3 * x + 0.4) * np.cos(2 * y))
        dphi = solve_DT(ctx.a, ctx.solution.phi, hdir, 0.1)
        errs = []
        for eps in (4e-2, 2e-2, 1e-2):
            a_eps = ScalarField(ctx.grid, ctx.a.values + eps * hdir.values)
            assert a_eps.values.min() > 0
            sol_eps = solve_T(RobinProblem(a_eps, ctx.g, ctx.l))
            diff = (sol_eps.phi.values - ctx.solution.phi.values
                    - eps * dphi.values)
            errs.append(norm_l2(ScalarField(ctx.grid, diff)))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.9

    def test_continuity_constant(self, phantom_family, grid65):
        rng = np.random.default_rng(2)
        worst = 0.0
        for p in phantom_family:
            a = p.sample(grid65)
            sol = solve_T(RobinProblem(a, BoundaryTrace.constant(grid65, 1.0),
                                       0.1))
            for _ in range(3):
                hdir = ScalarField(grid65,
                                   rng.standard_normal(grid65.shape))
                out = solve_DT(a, sol.phi, hdir, 0.1)
                h1 = np.sqrt(norm_l2(out)**2
                             + fields.h1_seminorm(out)**2)
                worst = max(worst, h1 / norm_l2(hdir))
        assert worst <= DT_CONTINUITY_HAT * 1.05
        assert worst >= DT_CONTINUITY_HAT * 0.5


class TestAdjoint:
    def test_zero_source(self, disk_context65):
        ctx = disk_context65
        out = solve_adjoint(ctx.a, ScalarField.constant(ctx.grid, 0.0), 0.1)
        assert np.max(np.abs(out.values)) == 0.0

    def test_self_adjointness(self, disk_context65):
        ctx = disk_context65
        rng = np.random.default_rng(3)
        s1 = ScalarField(ctx.grid, rng.standard_normal(ctx.grid.shape))
        s2 = ScalarField(ctx.grid, rng.standard_normal(ctx.grid.shape))
        lhs = inner(solve_adjoint(ctx.a, s1, 0.1), s2)
        rhs = inner(solve_adjoint(ctx.a, s2, 0.1), s1)
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1.0)

    def test_adjoint_identity_with_derivative(self, disk_context65):
        ctx = disk_context65
        rng = np.random.default_rng(4)
        hdir = ScalarField(ctx.grid,
                           0.1 * rng.standard_normal(ctx.grid.shape))
        s = ScalarField(ctx.grid, rng.standard_normal(ctx.grid.shape))
        dphi = solve_DT(ctx.a, ctx.solution.phi, hdir, 0.1)
        z = solve_adjoint(ctx.a, s, 0.1)
        lhs = inner(dphi, s)
        rhs = inner(hdir, ScalarField(ctx.grid,
                                      -ctx.solution.phi.values * z.values))
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs))
