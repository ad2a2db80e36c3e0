import numpy as np
import pytest

from aotomo import diffusion, fields, kernels
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
        ScalarField(grid, np.full(grid.shape, a_value)),
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
        for l in (0.1, 0.0):
            problem = robin(g, 1.0, l=l)
            sol = solve_T(problem)
            op = RobinOperator(g, problem.a.values, problem.l)
            dense = np.linalg.solve(
                op.sparse_matrix().toarray(),
                op.boundary_rhs(problem.g).ravel()).reshape(g.shape)
            assert np.max(np.abs(dense - sol.phi.values)) <= 1e-10, l

    @pytest.mark.parametrize("n", [9, 33])
    def test_sparse_matrix_matches_apply(self, n):
        rng = np.random.default_rng(n)
        a = rng.uniform(0.0, 3.0, (n, n))
        x = rng.standard_normal((n, n))
        # a second field, to map a stack of two
        x2 = rng.standard_normal((n, n))
        for l in (0.1, 0.0):
            op = RobinOperator(Grid(n), a, l)
            expected = op.apply(x)
            got = (op.sparse_matrix() @ x.ravel()).reshape(n, n)
            err = np.max(np.abs(got - expected)) / np.max(np.abs(expected))
            assert err <= 1e-12, l
            stacked = op.apply(np.stack([x, x2]))
            assert np.array_equal(stacked[0], expected), l
            assert np.array_equal(stacked[1], op.apply(x2)), l

    def test_residual_contract(self, disk_phantom, grid65):
        sol = solve_T(RobinProblem(disk_phantom.sample(grid65),
                                   BoundaryTrace.constant(grid65, 1.0), 0.1))
        assert sol.residual <= 1e-10

    def test_dirichlet_path(self, grid33):
        problem = RobinProblem(
            ScalarField(grid33, np.full(grid33.shape, 1.0)),
            BoundaryTrace.constant(grid33, 1.0),
            0.0,
        )
        sol = solve_T(problem)
        ii, jj = grid33.boundary_indices()
        assert np.max(np.abs(sol.phi.values[ii, jj] - 1.0)) == 0.0
        assert 0 < sol.phi.values[grid33.n // 2, grid33.n // 2] < 1

    def test_dirichlet_path_solves_to_rounding(self, grid33):
        g, h = grid33, grid33.h
        rng = np.random.default_rng(5)
        a = rng.uniform(0.0, 3.0, g.shape)
        bc = BoundaryTrace(g, rng.standard_normal(4 * (g.n - 1)))
        source = ScalarField(g, rng.standard_normal(g.shape))
        sol = solve_T(RobinProblem(ScalarField(g, a), bc, 0.0))
        ii, jj = g.boundary_indices()
        assert np.array_equal(sol.phi.values[ii, jj], bc.values)
        # the 5-point operator on the interior, with the boundary
        # neighbours moved to the right-hand side
        e = bc.as_grid_array()
        b = (e[:-2, 1:-1] + e[2:, 1:-1] + e[1:-1, :-2] + e[1:-1, 2:]) / h**2
        got = kernels.dirichlet_apply(sol.phi.values, a, h)[1:-1, 1:-1]
        assert np.linalg.norm(got - b) <= 1e-12 * np.linalg.norm(b)
        # without a preconditioner, a solve at any l is CG preconditioned by
        # the operator at the mean coefficient, a few iterations to rounding
        for l in (0.0, 0.1):
            sol = solve_T(RobinProblem(ScalarField(g, a), bc, l))
            assert 0 < sol.iterations <= 10 and sol.residual <= 1e-12, l
            op = RobinOperator(g, a, l)
            z = solve_adjoint(ScalarField(g, a), source, l)
            b = op.source_rhs(source)
            miss = np.linalg.norm(op.apply(z.values) - b)
            assert miss <= 1e-12 * np.linalg.norm(b), l

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
        z = ScalarField(ctx.grid, np.zeros(ctx.grid.shape))
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
        x, y = ctx.grid.meshgrid()
        hdir = ScalarField(ctx.grid, 5.0 * np.sin(3 * x + 0.4) * np.cos(2 * y))
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
                grad = fields.gradient(out)
                w = grid65.trapezoid_weights()
                h1 = np.sqrt(norm_l2(out)**2
                             + np.sum(w * (grad.vx**2 + grad.vy**2)))
                worst = max(worst, h1 / norm_l2(hdir))
        assert worst <= DT_CONTINUITY_HAT * 1.05
        assert worst >= DT_CONTINUITY_HAT * 0.5


class TestAdjoint:
    def test_zero_source(self, disk_context65):
        ctx = disk_context65
        out = solve_adjoint(ctx.a, ScalarField(ctx.grid,
                                               np.zeros(ctx.grid.shape)), 0.1)
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


class TestStackedSolve:
    """A stack of Robin systems solved by one CG matches separate solves."""

    @staticmethod
    def systems():
        g = Grid(17)
        x, y = g.meshgrid()
        coefs = np.stack([
            np.ones(g.shape),
            1.0 + 0.5 * np.exp(-40 * ((x - 0.4)**2 + (y - 0.5)**2)),
            1.0 + 3.0 * np.exp(-20 * ((x - 0.6)**2 + (y - 0.4)**2)),
            2.0 + x,
        ])
        b = np.random.default_rng(3).standard_normal((4,) + g.shape)
        b[3] = 0.0
        lu = RobinOperator(g, np.ones(g.shape), 0.1).factorized()

        def precond(r):
            return lu.solve(r.reshape(-1, g.n**2).T).T.reshape(r.shape)

        return g, coefs, b, precond

    @staticmethod
    def stack_apply(g, coefs):
        """Each field of a stack mapped by its own system's operator."""
        return lambda x: kernels.robin_apply(x, coefs, 0.1, g.h)

    def separate(self, g, coefs, b, precond, x0=None, max_iter=None):
        """(x, residual, iterations, stalled) of each system on its own."""
        out = []
        for k, (a, bk) in enumerate(zip(coefs, b)):
            apply_op = RobinOperator(g, a, 0.1).apply
            start = None if x0 is None else x0[k]
            try:
                out.append(fields.cg(apply_op, bk, precond=precond,
                                     x0=start, max_iter=max_iter) + (False,))
            except fields.SolverError as exc:
                out.append((exc.iterate, exc.residual, exc.iterations, True))
        return out

    @staticmethod
    def assert_matches(stacked, alone):
        x, res, it = stacked
        assert isinstance(res, float) and isinstance(it, int)
        # the worst system's residual, up to the order of the dot sums
        assert res == pytest.approx(max(s[1] for s in alone), rel=1e-12)
        for xk, (xs, _, _, _) in zip(x, alone):
            assert np.linalg.norm(xk - xs) <= 1e-12 * max(
                np.linalg.norm(xs), 1e-300)

    @pytest.mark.parametrize("warm", [False, True])
    def test_matches_separate_solves(self, warm):
        g, coefs, b, precond = self.systems()
        x0 = 0.5 * np.ones(b.shape) if warm else None
        alone = self.separate(g, coefs, b, precond, x0=x0)
        counts = [s[2] for s in alone]
        # one system converges at once, one an iteration before another,
        # and the zero right-hand side takes none
        assert counts[3] == 0 and counts[0] < counts[1] < counts[2]
        stacked = fields.cg(self.stack_apply(g, coefs), b, x0=x0,
                            precond=precond, dot=fields.stack_dot)
        self.assert_matches(stacked, alone)
        assert stacked[2] == sum(counts)
        assert not np.any(stacked[0][3])

    @pytest.mark.parametrize("warm", [False, True])
    def test_preconditions_only_active_systems(self, warm):
        g, coefs, b, precond = self.systems()
        x0 = 0.5 * np.ones(b.shape) if warm else None
        columns = []

        def counted(r):
            columns.append(r.shape[0])
            return precond(r)

        _, _, it = fields.cg(self.stack_apply(g, coefs), b, x0=x0,
                             precond=counted, dot=fields.stack_dot)
        # one LU column per iteration a system takes; the zero right-hand
        # side and the systems that have converged take none
        assert sum(columns) == it
        assert min(columns) < max(columns) == 3

    def test_per_system_iteration_counts(self):
        g, coefs, b, precond = self.systems()
        apply_stack = self.stack_apply(g, coefs)
        counts = [s[2] for s in self.separate(g, coefs, b, precond)]
        # capping every system at m iterations counts min(count, m) for each
        # one, which pins each system's own count
        for m in range(1, max(counts) + 1):
            alone = self.separate(g, coefs, b, precond, max_iter=m)
            try:
                stacked = fields.cg(apply_stack, b, precond=precond,
                                    max_iter=m, dot=fields.stack_dot)
                assert not any(s[3] for s in alone)
            except fields.SolverError as exc:
                # the error carries the whole stack
                assert any(s[3] for s in alone)
                stacked = exc.iterate, exc.residual, exc.iterations
                assert exc.iterate.shape == b.shape
            self.assert_matches(stacked, alone)
            assert stacked[2] == sum(min(c, m) for c in counts)

    def test_operator_solve_on_a_stack(self):
        g, coefs, b, _ = self.systems()
        ref = RobinOperator(g, np.ones(g.shape), 0.1)
        shells = []
        for a in coefs:
            i, j = np.nonzero(a != ref.a)
            shells.append((i, j, a[i, j]))
        x, res, it = ref.solve(b, shells=shells)
        for shell, bk, xk in zip(shells, b, x):
            xs, _, _ = ref.solve(bk, shells=[shell])
            assert np.linalg.norm(xk - xs) <= 1e-12 * max(
                np.linalg.norm(xs), 1e-300)
        gtrace = BoundaryTrace.constant(g, 1.0)
        flux = ref.boundary_flux(gtrace, x)
        for k in range(len(coefs)):
            assert np.array_equal(flux[k], ref.boundary_flux(gtrace, x[k]))


class TestDirectSolver:
    @pytest.mark.parametrize("n", [17, 33, 65])
    def test_constant_coefficient_is_diagonalised(self, n):
        b = np.random.default_rng(n).standard_normal((n * n, 2))
        for a0 in (0.5, 1.0, 2.0):
            for l in (0.0, 0.01, 0.1, 10.0):
                op = RobinOperator(Grid(n), np.full((n, n), a0), l)
                solver = op.factorized()
                assert isinstance(solver, fields.SeparableSolver)
                miss = op.sparse_matrix() @ solver.solve(b) - b
                assert np.linalg.norm(miss) <= 1e-12 * np.linalg.norm(b), (
                    a0, l)

    def test_stack_solves_each_system_as_alone(self):
        g = Grid(33)
        solver = RobinOperator(g, np.full(g.shape, 1.5), 0.1).factorized()
        r = np.random.default_rng(5).standard_normal((5, g.n**2))
        whole = solver.solve(r.T)
        # a sub-stack, as when only some systems of a PCG are active
        assert np.array_equal(whole[:, 1:3], solver.solve(r[1:3].T))
        for k in range(len(r)):
            assert np.array_equal(whole[:, k], solver.solve(r[k]))

    def test_lone_solve_of_a_high_contrast_box(self, grid33):
        # CG on the background operator needs more iterations as the
        # coefficient's jump grows, but still converges at a jump of 1e4;
        # the residual it reports is the true one
        g = grid33
        x, y = g.meshgrid()
        box = (np.abs(x - 0.4) < 0.2) & (np.abs(y - 0.55) < 0.25)
        bc = BoundaryTrace.constant(g, 1.0)
        for contrast, most in ((1e2, 20), (1e4, 200)):
            a = np.where(box, contrast, 1.0)
            for l in (0.0, 0.1):
                sol = solve_T(RobinProblem(ScalarField(g, a), bc, l))
                assert sol.iterations <= most, (contrast, l)
                op = RobinOperator(g, a, l)
                b = op.boundary_rhs(bc)
                miss = np.linalg.norm(op.apply(sol.phi.values) - b)
                assert sol.residual == miss / np.linalg.norm(b)
                assert sol.residual <= 1e-12, (contrast, l)

    @pytest.mark.parametrize("n", [65, 129])
    def test_lone_solve_meets_its_tolerance(self, n):
        # CG stops on its recurrence's residual, which on these jumps can
        # end below the true one; the solve then runs CG once more from
        # its iterate, so the true residual it reports meets 1e-12
        g = Grid(n)
        x, y = g.meshgrid()
        bc = BoundaryTrace.constant(g, 1.0)
        for contrast in (1e3, 1e4):
            for lo in (0.1, 0.2, 0.3, 0.4):
                for hi in (0.6, 0.7, 0.8, 0.9):
                    box = (x > lo) & (x < hi) & (y > lo) & (y < (lo + hi) / 2)
                    a = ScalarField(g, np.where(box, contrast, 1.0))
                    sol = solve_T(RobinProblem(a, bc, 1.0))
                    assert sol.residual <= 1e-12, (contrast, lo, hi)

    def test_background_solver_otherwise(self, sparse_lus):
        # any other operator's direct solver is that of its background, the
        # operator at the constant median(a), diagonalised; no sparse LU
        g = Grid(17)
        x, _ = g.meshgrid()
        b = np.random.default_rng(6).standard_normal((g.n * g.n, 2))
        for l in (0.1, 0.0):
            op = RobinOperator(g, 1.0 + x, l)
            background = op.background
            assert background is op.background
            assert np.all(background.a == np.median(op.a)), l
            solver = op.factorized()
            assert isinstance(solver, fields.SeparableSolver), l
            assert solver is background.factorized()
            miss = background.sparse_matrix() @ solver.solve(b) - b
            assert np.linalg.norm(miss) <= 1e-12 * np.linalg.norm(b), l
            # a constant coefficient is its own background
            assert background.background is background
        assert sparse_lus == []


class TestBoxPath:
    """``RobinOperator.solve`` runs CG on the box of D's nodes; each system
    it solves matches the sparse direct solve of its assembled matrix."""

    N = 33

    @classmethod
    def operator(cls, where, l):
        """S, and shells of S: inside, a disk of S's coefficient and shells
        on a ring around it, so D's box is a part of the grid; at the
        edge, a disk over more than half the grid, so c is its level and D
        lives in the four corners, and shells on the grid's edge."""
        g = Grid(cls.N)
        x, y = g.meshgrid()
        if where == "inside":
            a = np.where(np.hypot(x - 0.45, y - 0.55) < 0.15, 2.0, 1.0)
            ring = np.abs(np.hypot(x - 0.5, y - 0.5) - 0.25) < 0.04
        else:
            a = np.where(np.hypot(x - 0.5, y - 0.5) < 0.5, 2.0, 1.0)
            ring = (x < 0.1) & (y > 0.3) & (y < 0.7)
        i, j = np.nonzero(ring)
        shells = [(i, j, a[i, j] + 1.5 * np.sin(7 * x[i, j] + k) ** 2)
                  for k in range(2)]
        # a system whose shell changes nothing of S's coefficient
        shells.append((i, j, a[i, j]))
        return RobinOperator(g, a, l), shells

    @staticmethod
    def exact(op, shell, b):
        """The system's solution by SciPy's sparse direct solve."""
        import scipy.sparse.linalg as spla

        i, j, values = shell
        a = op.a.copy()
        a[i, j] = values
        matrix = RobinOperator(op.grid, a, op.l).sparse_matrix()
        x = spla.spsolve(matrix.tocsc(), b.ravel()).reshape(b.shape)
        return x, matrix

    @staticmethod
    def right_hand_side(op):
        g = op.grid
        rng = np.random.default_rng(17)
        trace = BoundaryTrace(g, 1.0 + 0.3 * rng.standard_normal(4 * (g.n - 1)))
        return op.boundary_rhs(trace) + op.source_rhs(
            rng.standard_normal(g.shape))

    @pytest.mark.parametrize("start", ["cold", "warm", "unperturbed"])
    @pytest.mark.parametrize("l", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize("where", ["inside", "edge"])
    def test_matches_a_sparse_direct_solve(self, where, l, start,
                                           monkeypatch):
        op, shells = self.operator(where, l)
        n = op.grid.n
        b1 = self.right_hand_side(op)
        own, _ = self.exact(op, (shells[0][0], shells[0][1],
                                 op.a[shells[0][0], shells[0][1]]), b1)
        b = np.broadcast_to(b1, (len(shells), n, n))
        rng = np.random.default_rng(19)
        x0 = {"cold": None,
              # a start that is no system's solution
              "warm": own + 0.1 * rng.standard_normal(b.shape),
              "unperturbed": np.broadcast_to(own, b.shape)}[start]
        boxes = []
        cg = diffusion.cg

        def recorded(apply_op, rhs, *args, precond, **kwargs):
            def box(r):
                boxes.append(r.shape[-2:])
                return precond(r)
            return cg(apply_op, rhs, *args, precond=box, **kwargs)

        monkeypatch.setattr(diffusion, "cg", recorded)
        x, res, _ = op.solve(b, x0=x0, shells=shells,
                             x0_unperturbed=start == "unperturbed")
        assert res <= 1e-10
        for shell, xk in zip(shells, x):
            exact, matrix = self.exact(op, shell, b1)
            assert np.linalg.norm(xk - exact) <= 1e-10 * np.linalg.norm(
                exact), shell
            miss = np.linalg.norm(matrix @ xk.ravel() - b1.ravel())
            assert miss <= (1e-10 + 1e-14) * np.linalg.norm(b1)
        # the system whose shell changes nothing is S's own
        assert np.linalg.norm(x[2] - own) <= 1e-10 * np.linalg.norm(own)
        # the preconditioner sees D's box; at the edge that is the whole
        # grid, or its interior at l = 0, where the boundary rows carry no D
        whole = (n, n) if l > 0 else (n - 2, n - 2)
        assert boxes and all((box == whole) == (where == "edge")
                             for box in boxes)
        # a lone system, cold and from the start of a stack's
        start0 = None if x0 is None else x0[0]
        x, res, _ = op.solve(b1, x0=None if start == "unperturbed" else start0)
        assert res <= 1e-12
        assert np.linalg.norm(x - own) <= 1e-12 * np.linalg.norm(own)
