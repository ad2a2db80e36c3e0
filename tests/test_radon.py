import numpy as np
import pytest

from aotomo import acousto, diffusion, fields, radon
from aotomo.acousto import AcousticConfig, Sinogram
from aotomo.fields import BoundaryTrace, Grid, ScalarField
from aotomo.helmholtz import WeakVectorFunctional
from aotomo.radon import (
    apply_p_star,
    invert_radon,
    radon_adjoint,
    radon_forward,
    recover_Rpsi,
)
import reference
from reference import (
    apply_p,
    circle_transform,
    cylinder_inner,
    g_dual_norm,
    g_norm,
    radial_derivative,
)

# sharp one-sided stability constant of the transposed primitive operator in
# the Hilbertized dual norm: sqrt(1 + R/r0) up to discretization
PSTAR_SHARP = np.sqrt(1 + 7.0)


@pytest.fixture(scope="module")
def config():
    return AcousticConfig()


def lattice_with_r0(config):
    """Radius count placing r0 exactly on a lattice node (R/r0 = 7)."""
    return 127


def supported_noise(config, ny, nr, seed, rows=None):
    rng = np.random.default_rng(seed)
    radii = config.radii(nr)
    vals = rng.standard_normal((ny, nr))
    vals[:, radii <= config.r0] = 0.0
    return Sinogram(config, ny, nr, vals)


def zero_sinogram(config, ny, nr):
    return Sinogram(config, ny, nr, np.zeros((ny, nr)))


def sampled(grid, fn):
    """The ScalarField of fn(x, y) at the grid's nodes."""
    return ScalarField(grid, fn(*grid.meshgrid()))


class TestForward:
    def test_zero_field(self, config, grid65):
        s = radon_forward(ScalarField(grid65, np.zeros(grid65.shape)), config,
                          8, 24)
        assert not s.values.any()

    def test_full_angle_constant(self, config):
        # a circle fully inside the sampled region averages a constant to
        # 2 pi; the circle quadrature on a padded square provides such
        # circles (the plain transform cannot, since the sources sit outside
        # the unit square)
        n = 257
        h = 6.0 / (n - 1)
        values = circle_transform(np.ones((n, n)), config, 8, 32, h, -2.25,
                                  6.0)
        inside = config.radii(32) > 0
        assert np.max(np.abs(values[:, inside] - 2 * np.pi)) <= 1e-6
        # and the plain transform's angular weights are normalized the same
        layout = radon._layout(config, 8, 32, Grid(65))
        sums = np.add.reduceat(layout.wtheta, layout.offsets)
        np.testing.assert_allclose(sums, 2 * np.pi, atol=1e-12)

    def test_disk_chord_angle_oracle(self, config):
        g = Grid(513)
        c, rho = (0.5, 0.5), 0.2
        f = sampled(
            g, lambda x, y: np.clip(
                (rho - np.hypot(x - c[0], y - c[1])) / g.h + 0.5, 0, 1))
        ny, nr = 8, 48
        s = radon_forward(f, config, ny, nr)
        radii = s.radii()
        src = s.sources()
        errs = []
        for m in range(ny):
            d = np.hypot(src[m, 0] - c[0], src[m, 1] - c[1])
            for q in range(nr):
                r = radii[q]
                if r < 1e-9:
                    continue
                carg = (r**2 + d**2 - rho**2) / (2 * r * d)
                if carg > 0.999 or carg < -1:
                    continue
                expect = 2 * np.arccos(np.clip(carg, -1, 1))
                errs.append(abs(s.values[m, q] - expect))
        assert errs and max(errs) <= 1e-3


class TestAdjoint:
    def test_zero(self, config, grid65):
        s = zero_sinogram(config, 8, 16)
        out = radon_adjoint(s, grid65)
        assert not out.values.any()

    def test_constant_backprojection(self, config, grid65):
        s = Sinogram(config, 64, 256, np.ones((64, 256)))
        out = radon_adjoint(s, grid65)
        interior = out.values[5:-5, 5:-5]
        assert np.max(np.abs(interior - 2 * np.pi * config.mu)) <= 1e-3

    def test_duality(self, config):
        # radial-weighted cylinder pairing against the domain pairing
        gaps = []
        for n, ny, nr in ((65, 32, 64), (129, 64, 128)):
            g = Grid(n)
            f = sampled(
                g, lambda x, y: np.sin(2.3 * x + 0.3) * np.cos(1.7 * y)
                * np.exp(-((x - 0.4)**2 + (y - 0.6)**2)))
            s = _smooth_sinogram(config, ny, nr, seed=5)
            lhs = cylinder_inner(radon_forward(f, config, ny, nr), s,
                                 radial_weight=True)
            rhs = fields.inner(f, radon_adjoint(s, g))
            gaps.append(abs(lhs - rhs) / abs(lhs))
        assert gaps[1] <= 1e-3
        assert gaps[1] <= 0.6 * gaps[0]


def _smooth_sinogram(config, ny, nr, seed):
    rng = np.random.default_rng(seed)
    radii = config.radii(nr)
    t = 2 * np.pi * np.arange(ny) / ny
    tnorm = np.clip((radii - config.r0) / (config.R - config.r0), 0, 1)
    vals = np.zeros((ny, nr))
    for k in range(1, 4):
        for j in range(3):
            angular = (rng.standard_normal() * np.cos(j * t)
                       + rng.standard_normal() * np.sin(j * t))
            vals += angular[:, None] * np.sin(k * np.pi * tnorm)[None, :]
    return Sinogram(config, ny, nr, vals)


class TestPrimitiveOperator:
    def test_zero(self, config):
        s = zero_sinogram(config, 8, 64)
        assert not apply_p(s).values.any()

    def test_lands_in_g0_exactly(self, config):
        s = supported_noise(config, 8, 97, seed=1)
        rng = np.random.default_rng(2)
        s = s.copy_with(rng.standard_normal(s.values.shape))
        out = apply_p(s)
        assert np.max(np.abs(out.values[:, 0])) == 0.0
        assert np.max(np.abs(out.values[:, -1])) <= 1e-10

    def test_derivative_of_indicator(self, config):
        nr = lattice_with_r0(config)
        radii = config.radii(nr)
        vals = np.tile((radii >= config.r0).astype(float), (8, 1))
        s = Sinogram(config, 8, nr, vals)
        d = radial_derivative(apply_p(s))
        inside = (radii[:-1] >= config.r0 + 2 * (radii[1] - radii[0]))
        assert np.max(np.abs(d.values[:, :-1][:, inside] + 1.0)) <= 1e-8

    def test_inversion_identity_exact(self, config):
        nr = lattice_with_r0(config)
        for seed in range(10):
            s = supported_noise(config, 8, nr, seed=seed)
            rec = apply_p_star(radial_derivative(s))
            assert np.max(np.abs(rec.values - s.values)) <= 1e-12

    def test_pstar_support_check(self, config):
        rng = np.random.default_rng(3)
        s = Sinogram(config, 8, 64, rng.standard_normal((8, 64)))
        with pytest.raises(ValueError, match="vanish"):
            apply_p_star(s)

    def test_pstar_stability_sharp_bound(self, config):
        nr = lattice_with_r0(config)
        worst = 0.0
        for seed in range(20):
            u = supported_noise(config, 8, nr, seed=seed + 100)
            ratio = np.sqrt(cylinder_inner(apply_p_star(u), apply_p_star(u))
                            ) / g_dual_norm(u)
            worst = max(worst, ratio)
        assert worst <= PSTAR_SHARP * (1 + 1e-6)

    def test_pstar_stability_data_like(self, config):
        # measurement-like inputs: radial derivatives of localized profiles
        # that vanish smoothly near both radius endpoints
        nr = lattice_with_r0(config)
        radii = config.radii(nr)
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(20):
            f = np.zeros((8, nr))
            for _ in range(rng.integers(1, 4)):
                width = rng.uniform(0.03, 0.1)
                center = rng.uniform(config.r0 + 5 * width,
                                     config.R - 5 * width)
                prof = np.exp(-0.5 * ((radii - center) / width) ** 2)
                f += rng.standard_normal(8)[:, None] * prof[None, :]
            f[:, radii <= config.r0] = 0.0
            f[:, -1] = 0.0
            u = radial_derivative(Sinogram(config, 8, nr, f))
            ratio = np.sqrt(cylinder_inner(apply_p_star(u), apply_p_star(u))
                            ) / g_dual_norm(u)
            worst = max(worst, ratio)
        assert worst <= np.sqrt(2)

    def test_recover_closure(self, config, grid65):
        psi = sampled(
            grid65, lambda x, y: np.exp(-30 * ((x - 0.45)**2 + (y - 0.55)**2)))
        ny, nr = 16, lattice_with_r0(config)
        rp = radon_forward(psi, config, ny, nr)
        d = radial_derivative(rp)
        m = d.copy_with(d.values * config.r0 * config.w_l1)
        rec = recover_Rpsi(m, config)
        rel = (np.linalg.norm(rec.values - rp.values)
               / np.linalg.norm(rp.values))
        assert rel <= 1e-3

    def test_recover_linearity(self, config):
        nr = lattice_with_r0(config)
        u1 = supported_noise(config, 8, nr, seed=20)
        u2 = supported_noise(config, 8, nr, seed=21)
        both = u1.copy_with(u1.values + u2.values)
        lhs = recover_Rpsi(both, config).values
        rhs = recover_Rpsi(u1, config).values + recover_Rpsi(u2, config).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(np.max(np.abs(rhs)), 1)


class TestGNorms:
    def test_norms_nonnegative_and_definite(self, config):
        s = supported_noise(config, 8, 64, seed=4)
        assert g_norm(s) > 0
        assert g_dual_norm(s) > 0
        z = zero_sinogram(config, 8, 64)
        assert g_norm(z) == 0.0
        assert g_dual_norm(z) == 0.0

    def test_dual_norm_bounded_by_l2(self, config):
        # (I - d2/dr2)^{-1} is a contraction on the lattice
        s = supported_noise(config, 8, 64, seed=5)
        assert g_dual_norm(s) <= np.sqrt(cylinder_inner(s, s)) + 1e-12


class TestIdealRadonPsi:
    def test_ray_cull_changes_no_value(self, two_disk_phantom, monkeypatch):
        g = Grid(33)
        sol = diffusion.solve_T(diffusion.RobinProblem(
            two_disk_phantom.sample(g), BoundaryTrace.constant(g, 1.0), 0.1))
        U = WeakVectorFunctional(two_disk_phantom, sol.phi)
        cfg = AcousticConfig(eta=0.08)
        culled = reference.ideal_radon_psi(U, cfg, 8, 36)
        assert culled.values.any()
        monkeypatch.setattr(reference, "rays_meeting_support",
                            lambda ph, y, lo, hi, ct, st: np.arange(ct.size))
        full = reference.ideal_radon_psi(U, cfg, 8, 36)
        assert np.array_equal(culled.values, full.values)


class TestLayoutCache:
    def test_equal_configs_share_a_layout(self):
        c1, c2 = AcousticConfig(), AcousticConfig()
        assert c1 is not c2
        grid = Grid(33)
        assert radon._layout(c1, 8, 16, grid) is radon._layout(c2, 8, 16,
                                                               grid)

    def test_layout_follows_the_center(self):
        grid = Grid(33)
        base = radon._layout(AcousticConfig(), 8, 16, grid)
        base_sources = base.sources.copy()
        moved_config = AcousticConfig(center=(0.4, 0.6))
        moved = radon._layout(moved_config, 8, 16, grid)
        np.testing.assert_array_equal(moved.sources,
                                      moved_config.sources(8))
        np.testing.assert_allclose(moved.sources - base_sources,
                                   np.tile([-0.1, 0.1], (8, 1)), atol=1e-14)


class TestCircleMatrix:
    def test_forward_matches_gather(self, config):
        rng = np.random.default_rng(30)
        grid = Grid(33)
        values = rng.standard_normal(grid.shape)
        # the sources sit outside the unit square, so most samples do too
        ref = circle_transform(values, config, 8, 16, grid.h)
        got = radon_forward(ScalarField(grid, values), config, 8, 16).values
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_transpose_is_exact(self, config):
        rng = np.random.default_rng(32)
        layout = radon._layout(config, 8, 16, Grid(33))
        x = rng.standard_normal((33, 33))
        s = rng.standard_normal((8, 16))
        lhs = float(np.sum(layout.forward(x) * s))
        rhs = float(np.sum(x * layout.transpose(s)))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_rows_hold_distinct_nodes(self, config):
        # the entries a row's samples share at a node are merged
        layout = radon._layout(config, 8, 16, Grid(33))
        rows = np.repeat(np.arange(layout.counts.size), layout.counts)
        assert np.all(np.diff(rows * 33**2 + layout.cols) > 0)
        # a row whose circle misses the square reads zero
        empty = layout.counts == 0
        assert empty.any()
        assert not layout.forward(np.ones((33, 33))).ravel()[empty].any()

    def test_build_peaks_below_twice_the_matrix(self, config):
        # 16 bytes per nonzero, built one source block at a time
        import tracemalloc

        grid = Grid(65)
        tracemalloc.start()
        try:
            layout = radon._SampleLayout(config, 64, 128, grid.n, grid.h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = layout.cols.nbytes + layout.vals.nbytes
        assert size == 16 * layout.cols.size
        assert peak <= 2 * size

    def test_built_once_per_key(self, config, monkeypatch):
        grid = Grid(33)
        layout = radon._layout(AcousticConfig(), 8, 16, grid)
        arrays = (layout.cols, layout.vals, layout.counts)
        builds = []
        monkeypatch.setattr(radon.kernels, "bilinear_corners",
                            lambda *a: builds.append(a))
        again = radon._layout(AcousticConfig(), 8, 16, grid)
        assert all(a is b for a, b in zip(
            (again.cols, again.vals, again.counts), arrays))
        f = ScalarField(grid, np.ones(grid.shape))
        invert_radon(radon_forward(f, config, 8, 16), grid, tol=1e-2)
        assert not builds


class TestInversion:
    def test_zero_data(self, config, grid65):
        f, info = invert_radon(zero_sinogram(config, 8, 16), grid65)
        assert not f.values.any()
        assert info["iterations"] == 0

    def test_round_trip_smooth_bump(self, config, grid65):
        bump = sampled(
            grid65,
            lambda x, y: np.exp(-60 * ((x - 0.45)**2 + (y - 0.55)**2)))
        s = radon_forward(bump, config, 64, 128)
        rec, info = invert_radon(s, grid65, tikhonov=1e-6, tol=1e-6,
                                 max_iter=300)
        rel = np.sqrt(fields.inner(rec - bump, rec - bump)
                      / fields.inner(bump, bump))
        assert rel <= 0.05

    def test_regularization_monotonicity(self, config):
        g = Grid(33)
        bump = sampled(
            g, lambda x, y: np.exp(-60 * ((x - 0.45)**2 + (y - 0.55)**2)))
        s = radon_forward(bump, config, 16, 48)

        def solve(eps, max_iter):
            rec, info = invert_radon(s, g, tikhonov=eps, tol=1e-7,
                                     max_iter=max_iter)
            return np.sqrt(fields.inner(rec - bump, rec - bump)), info

        # the weaker regularization does not reach tol in 300 iterations
        with pytest.warns(RuntimeWarning, match="radon inversion stopped"):
            weak, _ = solve(1e-6, 300)
        # the stronger one converges, in about 306 iterations
        strong, info = solve(1e-4, 600)
        assert info["residual"] <= 1e-7 and info["iterations"] < 600
        assert weak < strong
