import numpy as np
import pytest

from aotomo import acousto, diffusion
from aotomo.fields import BoundaryTrace, Grid, ScalarField, gradient, integrate
from aotomo.helmholtz import (
    WeakVectorFunctional,
    decompose,
    ground_truth_psi,
    psi_from_field,
)
from reference import (
    circle_transform,
    free_space_potential,
    g_dual_norm,
    identity_prediction,
    ideal_radon_psi,
    orthogonality_residual,
    pair,
    pair_gradient,
)


@pytest.fixture(scope="module")
def disk_setup(disk_phantom):
    g = Grid(65)
    sol = diffusion.solve_T(diffusion.RobinProblem(
        disk_phantom.sample(g), BoundaryTrace.constant(g, 1.0), 0.1))
    U = WeakVectorFunctional(disk_phantom, sol.phi)
    return g, sol, U


def random_smooth(grid, rng):
    c = rng.standard_normal(6)
    x, y = grid.meshgrid()
    return ScalarField(grid, c[0] * np.sin(2 * x + c[1]) * np.cos(2 * y + c[2])
                       + c[3] * x * y + c[4] * np.cos(3 * x * y + c[5]))


def h1_seminorm(f):
    """The trapezoidal L2 norm of the nodal gradient of f."""
    g = gradient(f)
    w = f.grid.trapezoid_weights()
    return np.sqrt(np.sum(w * (g.vx**2 + g.vy**2)))


class TestDecompose:
    def test_empty_phantom_gives_zero(self, empty_phantom, grid65):
        sol = diffusion.solve_T(diffusion.RobinProblem(
            empty_phantom.sample(grid65),
            BoundaryTrace.constant(grid65, 1.0), 0.1))
        psi = ground_truth_psi(empty_phantom, sol.phi)
        assert np.max(np.abs(psi.psi.values)) <= 1e-10

    def test_zero_mean_convention(self, disk_setup):
        _, _, U = disk_setup
        psi = decompose(U)
        assert abs(integrate(psi.psi)) <= 1e-12

    def test_orthogonality(self, disk_setup):
        g, _, U = disk_setup
        psi = decompose(U)
        rng = np.random.default_rng(7)
        for _ in range(20):
            v = random_smooth(g, rng)
            res = orthogonality_residual(U, psi, v)
            scale = (abs(pair_gradient(U, v))
                     + h1_seminorm(psi.psi) * h1_seminorm(v))
            assert abs(res) <= 1e-6 * scale

    def test_repeatable(self, disk_setup):
        _, _, U = disk_setup
        a = decompose(U).psi.values
        b = decompose(U).psi.values
        assert np.max(np.abs(a - b)) <= 1e-10

    def test_jump_dominance(self, flat_disk_phantom):
        # a piecewise constant disk: the potential is smooth inside and
        # jumps across the rim
        g = Grid(65)
        sol = diffusion.solve_T(diffusion.RobinProblem(
            flat_disk_phantom.sample(g), BoundaryTrace.constant(g, 1.0), 0.1))
        psi = ground_truth_psi(flat_disk_phantom, sol.phi).psi.values
        x, y = g.meshgrid()
        rr = np.hypot(x - 0.5, y - 0.5)
        interior = psi[rr < 0.14]
        oscillation = interior.max() - interior.min()
        gap = 0.0
        sign = np.sign(rr - 0.2)
        for j in range(g.n):
            crossings = np.nonzero(np.diff(sign[:, j]))[0]
            for i in crossings:
                gap = max(gap, abs(psi[i + 1, j] - psi[i, j]))
        assert gap >= 10 * oscillation

    def test_quadratic_scaling_in_phi(self, disk_setup, disk_phantom):
        g, sol, U = disk_setup
        psi1 = decompose(U).psi.values
        U2 = WeakVectorFunctional(disk_phantom,
                                  ScalarField(g, 2.0 * sol.phi.values))
        psi2 = decompose(U2).psi.values
        assert np.max(np.abs(psi2 - 4.0 * psi1)) <= 1e-10

    def test_rotational_symmetry(self, disk_phantom):
        g = Grid(65)
        sol = diffusion.solve_T(diffusion.RobinProblem(
            disk_phantom.sample(g), BoundaryTrace.constant(g, 1.0), 0.1))
        psi = ground_truth_psi(disk_phantom, sol.phi).psi.values
        # quarter turn about the center is an exact discrete symmetry
        rotated = np.rot90(psi).copy()
        assert np.max(np.abs(psi - rotated)) <= 1e-6

    def test_ground_truth_matches_decompose(self, disk_setup, disk_phantom):
        g, sol, U = disk_setup
        a = ground_truth_psi(disk_phantom, sol.phi).psi.values
        b = decompose(U).psi.values
        np.testing.assert_array_equal(a, b)


class TestPairings:
    def test_pair_conventions_agree(self, disk_setup):
        g, _, U = disk_setup
        x, y = g.meshgrid()
        v = ScalarField(g, np.sin(1.5 * x) * np.cos(2.2 * y))
        nodal = pair(U, gradient(v))
        edge = pair_gradient(U, v)
        assert nodal == pytest.approx(edge, rel=1e-2)

    def test_vanishes_off_support(self, disk_setup):
        g, _, U = disk_setup
        # test field supported away from the inclusion
        x, y = g.meshgrid()
        v = ScalarField(g, np.exp(-((x - 0.05)**2 + (y - 0.05)**2) / 0.001))
        w = gradient(v)
        assert abs(pair(U, w)) <= 1e-8


class TestFreeSpacePotential:
    def test_identity_prediction_consistency(self, disk_phantom):
        # the padded-grid potential and the semi-analytic route must give the
        # same transform prediction
        g = Grid(65)
        sol = diffusion.solve_T(diffusion.RobinProblem(
            disk_phantom.sample(g), BoundaryTrace.constant(g, 1.0), 0.1))
        U = WeakVectorFunctional(disk_phantom, sol.phi)
        cfg = acousto.AcousticConfig(eta=0.08)
        _, padded = free_space_potential(U)
        big = circle_transform(padded.values, cfg, 8, 36, padded.h,
                               padded.origin, padded.extent)
        semi = ideal_radon_psi(U, cfg, 8, 36)
        scale = np.max(np.abs(semi.values))
        # both discretize the same decaying-gauge object; at this coarse
        # resolution the padded solve carries the larger smearing error
        assert np.max(np.abs(big - semi.values)) <= 0.15 * scale

    def test_transform_vanishes_off_support(self, disk_phantom):
        g = Grid(65)
        sol = diffusion.solve_T(diffusion.RobinProblem(
            disk_phantom.sample(g), BoundaryTrace.constant(g, 1.0), 0.1))
        U = WeakVectorFunctional(disk_phantom, sol.phi)
        cfg = acousto.AcousticConfig(eta=0.08)
        pred = identity_prediction(U, cfg, 8, 72)
        radii = pred.radii()
        src = pred.sources()
        for m in range(8):
            d = np.hypot(src[m, 0] - 0.5, src[m, 1] - 0.5)
            off = (radii < d - 0.2 - 0.05) | (radii > d + 0.2 + 0.05)
            assert np.max(np.abs(pred.values[m, off])) <= 1e-6


class TestMeasurementIdentity:
    def test_dual_norm_gap_shrinks_with_thickness(self, disk_phantom):
        # the data converges to the ideal prediction in the dual norm as the
        # wavefront thins; radial sampling tracks the thickness
        g = Grid(129)
        ctx = acousto.make_context(disk_phantom, g)
        U = WeakVectorFunctional(disk_phantom, ctx.solution.phi)
        ratios = []
        for eta in (0.08, 0.04):
            nr = 1 + int(np.ceil(2 * 1.75 / eta))
            cfg = acousto.AcousticConfig(eta=eta)
            ctx_eta = acousto.ForwardContext(
                disk_phantom, g, ctx.g, ctx.l, a=ctx.a,
                solution=ctx.solution, operator=ctx.operator)
            sino = acousto.sample_sinogram(ctx_eta, cfg, 8, nr)
            pred = identity_prediction(U, cfg, 8, nr)
            diff = sino.copy_with(sino.values - pred.values)
            ratios.append(g_dual_norm(diff) / g_dual_norm(sino))
        assert ratios[1] <= 0.7 * ratios[0]


class TestPsiFromField:
    def test_recentings(self, grid33):
        f = ScalarField(grid33, np.full(grid33.shape, 3.0))
        psi = psi_from_field(f)
        assert abs(integrate(psi.psi)) <= 1e-12
        assert psi.provenance == "from_measurements"
