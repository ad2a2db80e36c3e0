import numpy as np
import pytest

from aotomo import fields, kernels
from aotomo.diffusion import RobinOperator
from aotomo.fields import (
    BoundaryTrace,
    Grid,
    ScalarField,
    SolverError,
    VectorField,
    cg,
    edge_average,
    edge_average_transpose,
    edge_diff,
    edge_diff_transpose,
    edge_form_matrix,
    gradient,
    inner,
    integrate,
    norm_l2,
)
from reference import (
    boundary_integral,
    dirichlet_laplace_solve,
    divergence,
    inner_vec,
    pinned_neumann_solve,
    poisson_dirichlet,
    poisson_neumann,
)

# error constant of the Dirichlet solver on the manufactured sine solution,
# measured by Richardson extrapolation on n in {33, 65, 129}
POISSON_DIRICHLET_C = 0.85
# same for the Neumann solver on the cos(pi x) solution
POISSON_NEUMANN_C = 0.30


def field(grid, fn):
    return ScalarField(grid, fn(*grid.meshgrid()))


def constant(grid, value):
    return ScalarField(grid, np.full(grid.shape, value))


class TestGrid:
    def test_spacing(self):
        g = Grid(33)
        assert g.h * (g.n - 1) == 1.0

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            Grid(2)

    def test_boundary_ordering(self):
        g = Grid(17)
        ii, jj = g.boundary_indices()
        assert len(ii) == 4 * (g.n - 1)
        # counterclockwise from the origin corner
        assert (ii[0], jj[0]) == (0, 0)
        assert (ii[1], jj[1]) == (1, 0)
        # all distinct
        assert len({(a, b) for a, b in zip(ii, jj)}) == len(ii)

    def test_trapezoid_weights_sum_to_area(self):
        g = Grid(21)
        assert np.isclose(g.trapezoid_weights().sum(), 1.0)


class TestCalculus:
    def test_gradient_of_constant(self, grid33):
        g = gradient(constant(grid33, 3.0))
        assert np.max(np.abs(g.vx)) == 0.0
        assert np.max(np.abs(g.vy)) == 0.0

    def test_gradient_exact_for_linear(self, grid33):
        g = gradient(field(grid33, lambda x, y: x))
        assert np.max(np.abs(g.vx - 1.0)) <= 1e-12
        assert np.max(np.abs(g.vy)) <= 1e-12

    def test_gradient_exact_for_quadratic_interior(self):
        g = Grid(33)
        gr = gradient(field(g, lambda x, y: x**2))
        x, _ = g.meshgrid()
        err = np.abs(gr.vx[1:-1, :] - 2 * x[1:-1, :])
        assert err.max() <= 1e-12

    def test_divergence_of_constant(self, grid33):
        v = VectorField(grid33, np.ones(grid33.shape), np.ones(grid33.shape))
        assert np.max(np.abs(divergence(v).values)) <= 1e-12

    def test_divergence_linear(self, grid33):
        x, y = grid33.meshgrid()
        v = VectorField(grid33, x, y)
        assert np.max(np.abs(divergence(v).values - 2.0)) <= 1e-12

    def test_div_grad_close_to_five_point_laplacian(self):
        g = Grid(65)
        f = field(g, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        lap_wide = divergence(gradient(f))
        # 5-point laplacian
        h2 = g.h**2
        v = f.values
        lap5 = np.zeros_like(v)
        lap5[1:-1, 1:-1] = (
            v[:-2, 1:-1] + v[2:, 1:-1] + v[1:-1, :-2] + v[1:-1, 2:]
            - 4 * v[1:-1, 1:-1]
        ) / h2
        interior = np.zeros(g.shape, dtype=bool)
        interior[2:-2, 2:-2] = True
        num = np.sqrt(np.sum((lap_wide.values - lap5)[interior] ** 2))
        den = np.sqrt(np.sum(lap5[interior] ** 2))
        assert num / den <= 2 * g.h**2 * np.pi**4

    def test_integrate_constant(self, grid33):
        assert integrate(constant(grid33, 1.0)) == pytest.approx(
            1.0, abs=1e-12)
        assert integrate(constant(grid33, 0.0)) == 0.0

    def test_integrate_linear_exact(self, grid33):
        val = integrate(field(grid33, lambda x, y: x + y))
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_integrate_empty_mask(self, grid33):
        f = constant(grid33, 2.0)
        assert integrate(f, mask=np.zeros(grid33.shape, bool)) == 0.0

    def test_adjointness_interior_supported(self):
        g = Grid(49)
        rng = np.random.default_rng(0)
        x, y = g.meshgrid()
        window = ((x > 0.2) & (x < 0.8) & (y > 0.2) & (y < 0.8)).astype(float)
        f = ScalarField(g, window * rng.standard_normal(g.shape))
        v = VectorField(g, window * rng.standard_normal(g.shape),
                        window * rng.standard_normal(g.shape))
        lhs = inner_vec(gradient(f), v)
        rhs = -inner(f, divergence(v))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_edge_transpose_is_exact_adjoint(self):
        rng = np.random.default_rng(3)
        n = 17
        for _ in range(5):
            x = rng.standard_normal((n, n))
            fx = rng.standard_normal((n - 1, n))
            fy = rng.standard_normal((n, n - 1))
            for op, op_t in ((edge_diff, edge_diff_transpose),
                             (edge_average, edge_average_transpose)):
                dx, dy = op(x)
                lhs = np.sum(dx * fx) + np.sum(dy * fy)
                rhs = np.sum(x * op_t(fx, fy))
                assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    @pytest.mark.parametrize("n", [9, 33])
    def test_edge_form_matrix_is_the_edge_form(self, n):
        rng = np.random.default_rng(n)
        v = rng.standard_normal((n, n))
        cx = rng.random((n - 1, n))
        cy = rng.random((n, n - 1))
        dx, dy = edge_diff(v)
        expected = edge_diff_transpose(cx * dx, cy * dy)
        got = (edge_form_matrix(cx, cy) @ v.ravel()).reshape(n, n)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got, kernels.edge_form_apply(v, cx, cy),
                                   rtol=0, atol=1e-12)

    def test_edge_diff_of_linear_is_constant(self, grid33):
        x, y = grid33.meshgrid()
        dx, dy = edge_diff(2.0 * x - 3.0 * y)
        np.testing.assert_allclose(dx, 2.0 * grid33.h, atol=1e-14)
        np.testing.assert_allclose(dy, -3.0 * grid33.h, atol=1e-14)


class TestCg:
    def test_failure_carries_last_iterate(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((40, 40))
        mat = a @ a.T + 0.1 * np.eye(40)
        b = rng.standard_normal(40)
        with pytest.raises(SolverError) as info:
            cg(lambda v: mat @ v, b, tol=1e-14, max_iter=3)
        exc = info.value
        assert exc.iterations == 3
        assert exc.iterate.shape == b.shape
        # the reported residual is the residual of the carried iterate
        true_res = np.linalg.norm(b - mat @ exc.iterate) / np.linalg.norm(b)
        assert true_res == pytest.approx(exc.residual, rel=1e-8)
        assert np.any(exc.iterate)


    @staticmethod
    def split_systems():
        """A stack A = T + D of three systems: T is the Robin operator at a
        constant coefficient, solved by fast diagonalisation, and D a
        random nonnegative diagonal on about a third of the nodes."""
        g = Grid(33)
        t = RobinOperator(g, np.ones(g.shape), 0.1)
        direct = t.factorized()
        assert isinstance(direct, fields.SeparableSolver)
        rng = np.random.default_rng(11)
        shape = (3,) + g.shape
        d = rng.uniform(0.0, 50.0, shape) * (rng.random(shape) < 0.3)
        b = rng.standard_normal(shape)
        applies = [0]

        def apply_a(x):
            applies[0] += 1
            return t.apply(x) + d * x

        def precond(r):
            return direct.solve(r.reshape(-1, g.n**2).T).T.reshape(r.shape)

        def shift(p, out):
            out += d * p

        return apply_a, b, precond, shift, applies

    @staticmethod
    def moved_start(b, precond, shift):
        """The start T^-1 b, whose residual b - A x0 is -D x0, and that
        residual; D's box is the whole grid here."""
        x0 = precond(b)
        r0 = np.zeros(b.shape)
        shift(x0, r0)
        return x0, -r0

    def test_split_operator_matches_full_apply(self):
        apply_a, b, precond, shift, applies = self.split_systems()
        x0, r0 = self.moved_start(b, precond, shift)
        full = cg(apply_a, b, x0=x0, precond=precond, dot=fields.stack_dot)
        applies[0] = 0
        split = cg(apply_a, b, x0=x0, r0=r0, precond=precond,
                   dot=fields.stack_dot, shift=shift, lift=precond)
        # the loop applies only D; A runs once, for the exit check
        assert applies[0] == 1
        assert split[2] == full[2] > 3
        tol = 1e-10
        for xs, xf in zip(split[0], full[0]):
            assert np.linalg.norm(xs - xf) <= tol * np.linalg.norm(xf)
        # the reported residual is the worst true one
        miss = b - apply_a(split[0])
        true_res = np.sqrt(fields.stack_dot(miss, miss)
                           / fields.stack_dot(b, b))
        assert split[1] == pytest.approx(np.max(true_res), rel=1e-12)
        assert split[1] <= tol

    def test_split_exit_check_catches_an_inexact_preconditioner(self):
        apply_a, b, precond, shift, _ = self.split_systems()

        def scaled(r):
            # the exact inverse of 1.01 T, not of T
            return precond(r) / 1.01

        # as a plain preconditioner it is fine
        x, res, _ = cg(apply_a, b, precond=scaled, dot=fields.stack_dot)
        assert res <= 1e-10
        # taken for T's solver, in the start, the loop and the exit
        x0, r0 = self.moved_start(b, scaled, shift)
        with pytest.raises(SolverError, match="drifted") as info:
            cg(apply_a, b, x0=x0, r0=r0, precond=scaled,
               dot=fields.stack_dot, shift=shift, lift=scaled, max_iter=200)
        exc = info.value
        # the recurrence converged early; the true residual did not
        assert exc.iterations < 200
        miss = b - apply_a(exc.iterate)
        true_res = np.sqrt(fields.stack_dot(miss, miss)
                           / fields.stack_dot(b, b)).ravel()
        assert exc.residual == pytest.approx(np.max(true_res), rel=1e-12)
        assert exc.residual > 1e-4
        assert exc.system == int(np.argmax(true_res))


class TestNorms:
    @staticmethod
    def norms(f):
        """The L2 norm, and the L4 norm and H1 seminorm computed inline by
        the trapezoid weights."""
        w = f.grid.trapezoid_weights()
        g = gradient(f)
        return {"L2": norm_l2(f),
                "L4": float(np.sum(w * f.values**4)) ** 0.25,
                "H1": float(np.sqrt(np.sum(w * (g.vx**2 + g.vy**2))))}

    def test_zero(self, grid33):
        vals = self.norms(constant(grid33, 0.0))
        assert vals["L2"] == 0 and vals["L4"] == 0 and vals["H1"] == 0

    def test_constant_one(self, grid33):
        vals = self.norms(constant(grid33, 1.0))
        assert vals["L2"] == pytest.approx(1.0, abs=1e-12)
        assert vals["L4"] == pytest.approx(1.0, abs=1e-12)
        assert vals["H1"] == 0.0

    def test_sine_l2(self):
        g = Grid(65)
        f = field(g, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        assert norm_l2(f) == pytest.approx(0.5, rel=0.01)


class TestPoissonDirichlet:
    def test_zero_rhs(self, grid33):
        u = poisson_dirichlet(constant(grid33, 0.0))
        assert np.max(np.abs(u.values)) == 0.0

    def test_manufactured(self):
        for n in (33, 65):
            g = Grid(n)
            rhs = field(
                g, lambda x, y: 2 * np.pi**2 * np.sin(np.pi * x)
                * np.sin(np.pi * y))
            u = poisson_dirichlet(rhs)
            x, y = g.meshgrid()
            exact = np.sin(np.pi * x) * np.sin(np.pi * y)
            assert np.max(np.abs(u.values - exact)) <= POISSON_DIRICHLET_C * g.h**2

    def test_symmetry_under_axis_swap(self):
        g = Grid(33)
        rng = np.random.default_rng(1)
        vals = rng.standard_normal(g.shape)
        vals = vals + vals.T  # symmetric rhs
        u = poisson_dirichlet(ScalarField(g, vals))
        assert np.max(np.abs(u.values - u.values.T)) <= 1e-10

    def test_operator_symmetry(self):
        g = Grid(33)
        rng = np.random.default_rng(2)
        r1 = ScalarField(g, rng.standard_normal(g.shape))
        r2 = ScalarField(g, rng.standard_normal(g.shape))
        u1 = poisson_dirichlet(r1)
        u2 = poisson_dirichlet(r2)
        lhs = inner(u1, r2)
        rhs = inner(u2, r1)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_sine_transform_solve_to_rounding(self):
        # a spacing other than 1/(n-1), as on the padded grid of
        # reference.free_space_potential
        h = 0.037
        b = np.random.default_rng(6).standard_normal((40, 40))
        u = dirichlet_laplace_solve(b, h)
        ii, jj = Grid(40).boundary_indices()
        assert not u[ii, jj].any()
        miss = kernels.dirichlet_apply(u, None, h)[1:-1, 1:-1] - b[1:-1, 1:-1]
        assert np.linalg.norm(miss) <= 1e-12 * np.linalg.norm(b[1:-1, 1:-1])

    def test_inverse_block_is_the_solves_at_its_nodes(self):
        m = 12
        rng = np.random.default_rng(8)
        p = fields.second_difference(m + 2)[1:-1, 1:-1]
        solver = fields.SeparableSolver(p, rng.uniform(0.5, 2.0, m))
        nodes = rng.choice(m * m, 20, replace=False)
        unit = np.zeros((m * m, nodes.size))
        unit[nodes, np.arange(nodes.size)] = 1.0
        expected = solver.solve(unit)[nodes]
        got = solver.inverse_block(nodes)
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(expected)

    @pytest.mark.parametrize("border", [False, True])
    def test_box_solve_is_the_solve_of_the_extended_box(self, border):
        n = 20
        m = n - 2 if border else n
        rng = np.random.default_rng(12)
        p = fields.second_difference(m + 2)[1:-1, 1:-1] + np.diag(
            rng.uniform(0.1, 1.0, m))
        solver = fields.SeparableSolver(p, rng.uniform(0.5, 2.0, m),
                                        border=border)
        box = (slice(3, 11), slice(6, 19))
        values = rng.standard_normal((2, 8, 13))
        extended = np.zeros((2, n, n))
        extended[(Ellipsis,) + box] = values
        whole = solver.solve(extended.reshape(2, -1).T).T.reshape(2, n, n)
        scale = np.max(np.abs(whole))
        full = solver.solve_box(values, *box, full=True)
        assert full.shape == (2, n, n)
        assert np.max(np.abs(full - whole)) <= 1e-13 * scale
        # the box values alone, of a stack or of one field
        got = solver.solve_box(values, *box)
        assert np.max(np.abs(got - whole[(Ellipsis,) + box])) <= 1e-13 * scale
        assert np.array_equal(solver.solve_box(values[1], *box), got[1])
        # an empty box has the zero solution
        empty = solver.solve_box(np.zeros((2, 0, 0)), slice(0, 0),
                                 slice(0, 0), full=True)
        assert empty.shape == (2, n, n) and not empty.any()

    def test_refinement_order(self):
        errs = []
        for n in (33, 65, 129):
            g = Grid(n)
            rhs = field(
                g, lambda x, y: 2 * np.pi**2 * np.sin(np.pi * x)
                * np.sin(np.pi * y))
            u = poisson_dirichlet(rhs)
            x, y = g.meshgrid()
            errs.append(np.max(np.abs(u.values - np.sin(np.pi * x)
                                      * np.sin(np.pi * y))))
        order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
        assert min(order) >= 1.9


class TestPoissonNeumann:
    def test_zero_rhs(self, grid33):
        f = poisson_neumann(constant(grid33, 0.0))
        assert np.max(np.abs(f.values)) <= 1e-12

    def test_manufactured(self):
        errs = []
        for n in (33, 65, 129):
            g = Grid(n)
            rhs = field(g, lambda x, y: np.cos(np.pi * x))
            f = poisson_neumann(rhs)
            x, _ = g.meshgrid()
            exact = -np.cos(np.pi * x) / np.pi**2
            exact = exact - integrate(ScalarField(g, exact.copy()))
            err = np.max(np.abs(f.values - exact))
            assert err <= POISSON_NEUMANN_C * g.h**2
            errs.append(err)
        order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
        assert min(order) >= 1.9

    def test_weighted_solve_to_rounding(self):
        g = Grid(33)
        b = np.random.default_rng(7).standard_normal(g.shape)
        b -= b.mean()
        z = fields.neumann_solve_weighted(g, b)
        cx, cy = fields.neumann_edge_coefficients(g)
        miss = kernels.edge_form_apply(z, cx, cy) - b
        assert np.linalg.norm(miss) <= 1e-12 * np.linalg.norm(b)
        assert abs(integrate(ScalarField(g, z))) <= 1e-14

    @pytest.mark.parametrize("n", [17, 33, 65])
    def test_matches_pinned_lu(self, n):
        g = Grid(n)
        b = np.random.default_rng(n).standard_normal(g.shape)
        b -= b.mean()
        z = fields.neumann_solve_weighted(g, b)
        expected = pinned_neumann_solve(g, b)
        assert np.linalg.norm(z - expected) <= 1e-12 * np.linalg.norm(expected)
        assert abs(integrate(ScalarField(g, z))) <= 1e-15 * np.max(np.abs(z))

    def test_gauge_independent(self):
        g = Grid(33)
        rng = np.random.default_rng(3)
        rhs = ScalarField(g, rng.standard_normal(g.shape))
        f1 = poisson_neumann(rhs)
        f2 = poisson_neumann(ScalarField(g, rhs.values + 5.0))
        assert np.max(np.abs(f1.values - f2.values)) <= 1e-10
        assert abs(integrate(f1)) <= 1e-12


class TestFieldFiles:
    def test_scalar_roundtrip(self, tmp_path, grid33):
        rng = np.random.default_rng(4)
        f = ScalarField(grid33, rng.standard_normal(grid33.shape))
        path = tmp_path / "f.aorf"
        fields.save_field(path, f)
        back = fields.load_field(path)
        assert isinstance(back, ScalarField)
        np.testing.assert_array_equal(back.values, f.values)

    def test_vector_roundtrip(self, tmp_path, grid33):
        rng = np.random.default_rng(5)
        v = VectorField(grid33, rng.standard_normal(grid33.shape),
                        rng.standard_normal(grid33.shape))
        path = tmp_path / "v.aorf"
        fields.save_field(path, v)
        back = fields.load_field(path)
        assert isinstance(back, VectorField)
        np.testing.assert_array_equal(back.vx, v.vx)
        np.testing.assert_array_equal(back.vy, v.vy)

    def test_trace_roundtrip(self, tmp_path, grid33):
        t = BoundaryTrace.constant(grid33, 2.5)
        path = tmp_path / "t.aorf"
        fields.save_field(path, t)
        back = fields.load_field(path)
        assert isinstance(back, BoundaryTrace)
        np.testing.assert_array_equal(back.values, t.values)

    def test_magic_check(self, tmp_path):
        path = tmp_path / "bad.aorf"
        path.write_bytes(b"NOPE" + b"\0" * 16)
        with pytest.raises(ValueError, match="magic"):
            fields.load_field(path)

    @pytest.mark.parametrize("edit, match", [
        (lambda b: b[:9], "truncated header"),
        (lambda b: b[:-8], "payload"),
        (lambda b: b + bytes(8), "payload"),
        (lambda b: b[:4] + b"\x02\x00" + b[6:], "version"),
        (lambda b: b[:6] + b"\x07" + b[7:], "kind"),
        (lambda b: b[:-8] + np.array([np.nan], "<f8").tobytes(), "finite"),
    ], ids=["header", "short", "long", "version", "kind", "nan"])
    def test_corrupt_file_rejected(self, tmp_path, grid33, edit, match):
        path = tmp_path / "f.aorf"
        fields.save_field(path, constant(grid33, 1.0))
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(fields.FileFormatError, match=match):
            fields.load_field(path)

    def test_boundary_integral(self, grid33):
        t = BoundaryTrace.constant(grid33, 1.0)
        assert boundary_integral(t) == pytest.approx(4.0, abs=1e-12)


class TestImmutability:
    def test_fields_frozen(self, grid33):
        f = constant(grid33, 1.0)
        with pytest.raises(ValueError):
            f.values[0, 0] = 2.0

    def test_nonfinite_rejected(self, grid33):
        bad = np.ones(grid33.shape)
        bad[3, 3] = np.nan
        with pytest.raises(ValueError):
            ScalarField(grid33, bad)
