import dataclasses
import re
import sys

import numpy as np
import pytest

from aotomo import acousto, diffusion, fields, kernels, phantom
from aotomo.acousto import (
    AcousticConfig,
    Sinogram,
    displacement_u,
    make_context,
    measure_M_eta,
    measure_Mtilde,
    sample_sinogram,
)
from aotomo.fields import BoundaryTrace, Grid
from reference import (
    displaced_coefficient,
    displaced_medium_solve,
    displacement_v,
    grid_M_eta,
    measure_cross_correlation,
)

# own-quadrature values for the standard wavefront profile
W_L1 = 1.2069003224378763
W_PRIME_SUP = 2.1703570857103376


@pytest.fixture(scope="module")
def config():
    return AcousticConfig(eta=0.04)


def source_at(angle):
    return np.array([0.5 + np.cos(angle), 0.5 + np.sin(angle)])


class TestConfig:
    def test_profile_constants(self, config):
        assert config.w_l1 == pytest.approx(W_L1, abs=1e-10)
        assert config.w_prime_sup == pytest.approx(W_PRIME_SUP, abs=1e-8)
        assert config.monotone_radius == pytest.approx(0.25 * W_PRIME_SUP,
                                                       abs=1e-8)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            AcousticConfig(mu=0.6)
        with pytest.raises(ValueError):
            AcousticConfig(r0=0.4)
        with pytest.raises(ValueError):
            AcousticConfig(R=1.2)
        with pytest.raises(ValueError):
            AcousticConfig(eta=0.2)

    def test_resolution_rule(self, config):
        assert config.resolution_problems(Grid(129)) == []
        assert config.resolution_problems(Grid(65))


class TestDisplacements:
    def test_v_support(self, config, grid65):
        y = source_at(0.0)
        r = 0.9
        v = displacement_v(config, y, r, grid65)
        x, yy = grid65.meshgrid()
        d = np.hypot(x - y[0], yy - y[1])
        outside = np.abs(d - r) >= config.eta
        assert np.max(v.magnitude()[outside]) == 0.0

    def test_v_amplitude_on_wavefront(self, config):
        # |v| = eta*r0/r where the profile peaks
        g = Grid(257)
        y = source_at(0.0)
        r = 0.9
        v = displacement_v(config, y, r, g)
        peak = v.magnitude().max()
        assert peak <= config.eta * config.r0 / r + 1e-15
        assert peak >= 0.995 * config.eta * config.r0 / r

    def test_u_inverts_position_map(self, config, grid65):
        y = source_at(0.7)
        r = 0.95
        u = displacement_u(config, y, r, grid65)
        x, yy = grid65.meshgrid()
        zx = x + u.vx
        zy = yy + u.vy
        d = np.hypot(zx - y[0], zy - y[1])
        amp = config.eta * config.r0 / r
        from aotomo import kernels
        prof = amp * kernels.bump((r - d) / config.eta)
        with np.errstate(invalid="ignore"):
            px = zx + prof * (zx - y[0]) / d
            py = zy + prof * (zy - y[1]) / d
        assert np.max(np.abs(px - x)) <= 1e-10
        assert np.max(np.abs(py - yy)) <= 1e-10

    def test_u_plus_v_small_in_l1(self):
        # the pointwise gap is first order in eta, but it lives on an
        # O(eta)-thick shell so its integral is second order
        g = Grid(257)
        y = source_at(0.0)
        r = 0.9
        norms = []
        for eta in (0.04, 0.02, 0.01):
            cfg = AcousticConfig(eta=eta)
            v = displacement_v(cfg, y, r, g)
            u = displacement_u(cfg, y, r, g)
            gap = np.hypot(u.vx + v.vx, u.vy + v.vy)
            norms.append(fields.integrate(fields.ScalarField(g, gap)))
        orders = [np.log2(norms[i] / norms[i + 1]) for i in range(2)]
        assert min(orders) >= 1.9

    def test_coefficient_l1_perturbation_order(self, disk_phantom):
        g = Grid(257)
        y = source_at(0.3)
        r = 0.9
        norms = []
        for eta in (0.04, 0.02, 0.01):
            cfg = AcousticConfig(eta=eta)
            u = displacement_u(cfg, y, r, g)
            a = disk_phantom.sample(g)
            a_u = disk_phantom.sample_displaced(g, u)
            diff = np.abs(a_u.values - a.values)
            norms.append(fields.integrate(fields.ScalarField(g, diff)))
        orders = [np.log2(norms[i] / norms[i + 1]) for i in range(2)]
        assert min(orders) >= 1.8

    def test_symmetric_difference_order(self, disk_phantom):
        # area of (A symm-diff displaced A) via subgrid sampling
        y = source_at(0.3)
        r = 0.9
        inc = disk_phantom.inclusions[0]
        rng = np.random.default_rng(0)
        pts = rng.random((200000, 2))
        areas = []
        from aotomo import kernels
        for eta in (0.04, 0.02, 0.01):
            cfg = AcousticConfig(eta=eta)
            amp = cfg.eta * cfg.r0 / r
            d = np.hypot(pts[:, 0] - y[0], pts[:, 1] - y[1])
            rho = kernels.radial_invert(d, r, amp, cfg.eta)
            scale = rho / d
            dx = y[0] + scale * (pts[:, 0] - y[0])
            dy = y[1] + scale * (pts[:, 1] - y[1])
            in_orig = inc.contains(pts[:, 0], pts[:, 1])
            in_disp = inc.contains(dx, dy)
            areas.append(np.mean(in_orig != in_disp))
        orders = [np.log2(areas[i] / areas[i + 1]) for i in range(2)]
        assert min(orders) >= 1.8


class TestSmallRadius:
    @pytest.mark.parametrize("displacement", [displacement_u, displacement_v])
    @pytest.mark.parametrize("r", [0.0, -0.1])
    def test_displacements_reject_nonpositive_radius(self, config, grid33,
                                                     displacement, r):
        with pytest.raises(ValueError, match="wave radius must be positive"):
            displacement(config, source_at(0.0), r, grid33)

    @pytest.mark.parametrize("r", [0.0, 0.1, 0.25])
    def test_cross_correlation_dead_zone(self, disk_context65, r):
        cfg = AcousticConfig(eta=0.08)
        assert r <= cfg.r0
        g = BoundaryTrace.constant(disk_context65.grid, 1.0)
        assert measure_cross_correlation(disk_context65, cfg, source_at(0.0),
                                         r, g, g) == 0.0


class TestMeasurements:
    def test_empty_phantom_zero(self, empty_phantom, grid65, config):
        ctx = make_context(empty_phantom, grid65)
        assert measure_M_eta(ctx, config, source_at(0.1), 0.9) == 0.0
        assert measure_Mtilde(ctx, config, source_at(0.1), 0.9) == 0.0

    def test_context_factors_nothing(self, disk_phantom, grid65,
                                     sparse_lus):
        cfg = AcousticConfig(eta=0.0625)
        ctx = make_context(disk_phantom, grid65)
        sol = ctx.solution
        assert 0 < sol.iterations <= 10
        assert sol.residual <= 1e-10
        # neither sweep nor a lone solve factors anything: the M_eta sweep
        # solves on the diagonalised operator at the phantom's a0
        sample_sinogram(ctx, cfg, 8, 16, which="Mtilde")
        acousto.solve_T(diffusion.RobinProblem(ctx.a, ctx.g, 0.0))
        sample_sinogram(ctx, cfg, 8, 16)
        assert sparse_lus == []
        assert np.all(ctx.operator.background.a == disk_phantom.a0)

    def test_context_and_sweep_diagonalise_once(self, disk_phantom,
                                                monkeypatch):
        # the forward solve and the sweep's operator share one background,
        # so they share its one diagonalisation
        monkeypatch.setattr(diffusion, "_BACKGROUNDS", {})
        built = []
        init = fields.SeparableSolver.__init__

        def counted(solver, *args, **kwargs):
            built.append(solver)
            init(solver, *args, **kwargs)

        monkeypatch.setattr(fields.SeparableSolver, "__init__", counted)
        ctx = make_context(disk_phantom, Grid(65))
        sample_sinogram(ctx, AcousticConfig(eta=0.0625), 8, 16)
        assert len(built) == 1
        assert ctx.operator.factorized() is built[0]

    def test_disjoint_wavefront_zero(self, disk_context65, config):
        # wavefront radius too small to reach the inclusion
        assert measure_M_eta(disk_context65, config, source_at(0.0), 0.4) == 0.0
        assert measure_Mtilde(disk_context65, config, source_at(0.0), 0.4) == 0.0

    def test_grid_quadrature_cross_check(self, disk_phantom):
        # polar and grid-trapezoid quadratures agree at a well-resolved eta
        g = Grid(129)
        cfg = AcousticConfig(eta=0.08)
        ctx = make_context(disk_phantom, g)
        y = source_at(0.3)
        polar = measure_M_eta(ctx, cfg, y, 0.9)
        gridq = grid_M_eta(ctx, cfg, y, 0.9)
        assert gridq == pytest.approx(polar, rel=0.05)

    def test_refinement_oracle(self, disk_phantom):
        cfg = AcousticConfig(eta=0.04)
        y = source_at(0.3)
        coarse = measure_M_eta(make_context(disk_phantom, Grid(129)), cfg, y, 0.9)
        fine = measure_M_eta(make_context(disk_phantom, Grid(257)), cfg, y, 0.9)
        assert coarse == pytest.approx(fine, rel=0.05)

    def test_linearized_gap_shrinks(self, disk_phantom):
        g = Grid(257)
        ctx = make_context(disk_phantom, g)
        y = source_at(0.3)
        gaps = []
        for eta in (0.04, 0.02, 0.01):
            cfg = AcousticConfig(eta=eta)
            gaps.append(abs(measure_M_eta(ctx, cfg, y, 0.87)
                            - measure_Mtilde(ctx, cfg, y, 0.87)))
        order = np.polyfit(np.log([0.04, 0.02, 0.01]), np.log(gaps), 1)[0]
        assert order >= 0.8

    def test_cross_correlation_matches_internal(self, disk_phantom):
        g = Grid(129)
        cfg = AcousticConfig(eta=0.08)
        ctx = make_context(disk_phantom, g)
        y = source_at(0.3)
        r = 0.9
        gtr = BoundaryTrace.constant(g, 1.0)
        cc = measure_cross_correlation(ctx, cfg, y, r, gtr, gtr)
        internal = grid_M_eta(ctx, cfg, y, r)
        assert cc == pytest.approx(internal, rel=0.02)

    def test_cross_correlation_no_inclusions(self, empty_phantom, grid65):
        cfg = AcousticConfig(eta=0.08)
        ctx = make_context(empty_phantom, grid65)
        gtr = BoundaryTrace.constant(grid65, 1.0)
        val = measure_cross_correlation(ctx, cfg, source_at(0.0), 0.9, gtr, gtr)
        assert abs(val) <= 1e-6
        # one-sided illumination
        fvals = np.zeros(4 * (grid65.n - 1))
        fvals[: grid65.n - 1] = 1.0
        f = BoundaryTrace(grid65, fvals)
        val = measure_cross_correlation(ctx, cfg, source_at(0.0), 0.9, f, gtr)
        assert abs(val) <= 1e-6

    def test_rejects_negative_illumination(self, disk_context65, config):
        g = disk_context65.grid
        bad = BoundaryTrace.constant(g, -1.0)
        with pytest.raises(ValueError):
            measure_cross_correlation(disk_context65, config, source_at(0.0),
                                      0.9, bad, bad)


@pytest.fixture(scope="module")
def disk_ellipse_phantom():
    return phantom.Phantom(
        a0=1.0, lower=0.5, upper=2.0,
        inclusions=[
            phantom.Inclusion("disk", (0.35, 0.4), radius=0.12,
                              base=1.5, amplitude=0.2),
            phantom.Inclusion("ellipse", (0.66, 0.62), semi_axes=(0.14, 0.08),
                              angle=0.7, base=0.7, amplitude=0.1),
        ],
    )


def full_angle_nodes(quad, y):
    """Reference: the rim quadratic solved on every base angle of the
    source y, the refined angles sorted in."""
    theta = quad.theta
    step = 2 * np.pi / quad.ntheta
    roots = quad.crossing_roots(y, np.cos(theta), np.sin(theta))
    subdiv = np.ones(quad.ntheta, dtype=int)
    for root in roots:
        in_band = np.abs(root - quad.r) < 1.5 * quad.eta
        active = np.nonzero(in_band | np.roll(in_band, -1))[0]
        if not active.size:
            continue
        sweep = np.abs(root[(active + 1) % quad.ntheta] - root[active])
        fine = np.where(np.isfinite(sweep),
                        np.clip(np.ceil(sweep / (quad.eta / 8.0)), 1, 64),
                        64).astype(int)
        subdiv[active] = np.maximum(subdiv[active], fine)
    nodes = [theta] + [theta[k] + step * np.arange(1, s) / s
                       for k, s in enumerate(subdiv) if s > 1]
    return np.sort(np.concatenate(nodes))


def reference_pass(quad, ys):
    """Reference: every angle of a pass over the sources ``ys``, each
    cell's ``full_angle_nodes`` in (cell, angle) order, as ``(cell, angles,
    weight, near)``. ``weight`` is half the two gaps of each angle in its
    cell's periodic angle set, and ``near`` marks the refined angles and the
    base angles of ``quad.near_rays``."""
    base_near = quad.near_rays(ys)
    parts = []
    for c, y in enumerate(ys):
        angles = full_angle_nodes(quad, y)
        gaps = np.diff(np.append(angles, angles[0] + 2 * np.pi))
        base = np.isin(angles, quad.theta)
        near = ~base
        near[base] = base_near[c, np.searchsorted(quad.theta, angles[base])]
        parts.append((np.full(angles.size, c), angles,
                      0.5 * (gaps + np.roll(gaps, 1)), near))
    return tuple(np.concatenate(part) for part in zip(*parts))


def built_nodes_of(nodes, angles, near):
    """Assert that the built nodes ``nodes`` are the reference's near
    nodes (``reference_pass``), with ct and st bit for bit, and return the
    reference index of each built node."""
    assert np.array_equal(nodes.ct, np.cos(angles)[near])
    assert np.array_equal(nodes.st, np.sin(angles)[near])
    return np.nonzero(near)[0]


class TestRayCull:
    SOURCES = np.array([source_at(a) for a in (0.0, 0.8, 2.0, 4.0)])

    @classmethod
    def probe_radii(cls, ph, extra=()):
        """Radii at which a shell meets an inclusion's bounding circle, from
        each source."""
        for y in cls.SOURCES:
            for inc in ph.inclusions:
                dc = np.hypot(*(np.asarray(inc.center) - y))
                rb = inc.bounding_radius()
                yield from (dc + f * rb + e for f, e in
                            [(-1.0, 0.0), (-0.3, 0.0), (0.0, 0.0),
                             (0.9, 0.0)] + list(extra))

    def test_dropped_rays_see_only_background(self, disk_ellipse_phantom):
        ph = disk_ellipse_phantom
        cfg = AcousticConfig(eta=0.0625)
        ctx = make_context(ph, Grid(33))
        kept_total = dropped_total = 0
        for r in self.probe_radii(ph):
            quad = acousto._ShellQuadrature(ctx, cfg, r)
            # one pass over every source at this radius, against every angle
            # of the reference
            nodes = quad.adaptive_theta_nodes(self.SOURCES)
            cell, angles, _, near = reference_pass(quad, self.SOURCES)
            kept = built_nodes_of(nodes, angles, near)[nodes.keep]
            assert np.array_equal(nodes.cell[nodes.keep], cell[kept])
            dropped = np.setdiff1d(np.arange(angles.size), kept)
            sx, sy = self.SOURCES[cell, 0], self.SOURCES[cell, 1]
            ct, st = np.cos(angles), np.sin(angles)
            rho_star = kernels.radial_invert(
                quad.rho, r, cfg.eta * cfg.r0 / r, cfg.eta)
            for radii in (quad.rho, rho_star):
                px = sx[dropped] + np.outer(radii, ct[dropped])
                py = sy[dropped] + np.outer(radii, st[dropped])
                assert np.all(ph.eval(px, py) == ph.a0), r
            # every ray with a rim crossing inside the shell is kept
            for root in quad.crossing_roots((sx, sy), ct, st):
                inside = np.isfinite(root) & (root > quad.rho[0]) & (
                    root < quad.rho[-1])
                assert np.all(np.isin(np.nonzero(inside)[0], kept))
            kept_total += kept.size
            dropped_total += dropped.size
        assert kept_total > 0 and dropped_total > kept_total

    @pytest.mark.parametrize("which", ["M_eta", "Mtilde"])
    def test_cull_changes_no_value(self, disk_ellipse_phantom, monkeypatch,
                                   which):
        cfg = AcousticConfig(eta=0.0625)
        ctx = make_context(disk_ellipse_phantom, Grid(65))
        culled = sample_sinogram(ctx, cfg, 8, 16, which=which)
        assert culled.values.any()
        monkeypatch.setattr(acousto._ShellQuadrature, "rays_meeting_support",
                            lambda self, y, ct, st: np.ones(ct.shape, bool))
        full = sample_sinogram(ctx, cfg, 8, 16, which=which)
        assert np.array_equal(culled.values, full.values)

    def test_windowed_rim_solve_keeps_the_angles(self, disk_ellipse_phantom):
        ph = disk_ellipse_phantom
        cfg = AcousticConfig(eta=0.0625)
        ctx = make_context(ph, Grid(33))
        refined = 0
        # the angles' rounding bounds how well their gaps are known
        ulp = np.spacing(2 * np.pi)
        for r in self.probe_radii(ph, extra=[(-1.0, -0.1)]):
            quad = acousto._ShellQuadrature(ctx, cfg, r)
            nodes = quad.adaptive_theta_nodes(self.SOURCES)
            cell, angles, weight, near = reference_pass(quad, self.SOURCES)
            built = built_nodes_of(nodes, angles, near)
            assert np.array_equal(nodes.cell, cell[built])
            # each node's weight is half its two gaps among all the angles
            assert np.all(np.abs(nodes.weight - weight[built]) <= 4 * ulp), r
            refined += np.count_nonzero(
                np.bincount(cell, minlength=len(self.SOURCES)) > quad.ntheta)
            # the exact cull on every angle keeps only near rays
            sx, sy = self.SOURCES[cell, 0], self.SOURCES[cell, 1]
            kept = np.nonzero(quad.rays_meeting_support(
                (sx, sy), np.cos(angles), np.sin(angles)))[0]
            assert np.all(near[kept])
            assert np.array_equal(built[nodes.keep], kept)
        assert refined > 0

    @pytest.mark.parametrize("which", ["M_eta", "Mtilde"])
    def test_windowed_rim_solve_changes_no_value(self, disk_ellipse_phantom,
                                                 monkeypatch, which):
        cfg = AcousticConfig(eta=0.0625)
        ctx = make_context(disk_ellipse_phantom, Grid(65))
        windowed = sample_sinogram(ctx, cfg, 8, 16, which=which)
        assert windowed.values.any()
        # every base ray near: the rim quadratic is solved on every base
        # angle, and the cull runs on every ray
        monkeypatch.setattr(acousto._ShellQuadrature, "near_rays",
                            lambda self, ys: np.ones((len(ys), self.ntheta),
                                                     dtype=bool))
        reference = sample_sinogram(ctx, cfg, 8, 16, which=which)
        assert np.array_equal(windowed.values, reference.values)


class TestContextCache:
    def test_Mtilde_sweep_reads_the_cache(self, disk_ellipse_phantom):
        cfg = AcousticConfig(eta=0.0625)
        ctx = make_context(disk_ellipse_phantom, Grid(65))
        sino = sample_sinogram(ctx, cfg, 8, 16, which="Mtilde")
        assert sino.values.any()
        stack = ctx.phi_and_gradient
        sources, radii = cfg.sources(8), cfg.radii(16)
        cells = np.zeros_like(sino.values)
        for m in range(8):
            for q in range(16):
                # a fresh context over the same solve computes the gradient
                # stack again, as each cell did before it was cached
                fresh = acousto.ForwardContext(
                    ctx.phantom, ctx.grid, ctx.g, ctx.l, a=ctx.a,
                    solution=ctx.solution, operator=ctx.operator)
                cells[m, q] = measure_Mtilde(fresh, cfg, sources[m], radii[q])
        assert np.array_equal(sino.values, cells)
        assert ctx.phi_and_gradient is stack


class TestShellQuadrature:
    @staticmethod
    def random_jumps(rng, rho, nrays):
        """Jump tuples with several jumps in one cell, jumps in the first
        and the last cell, and several groups on one ray."""
        drho = rho[1] - rho[0]

        def in_cell(cell, k):
            return np.sort(rho[cell] + drho * rng.uniform(0.01, 0.99, k))

        def part(rays, radii):
            rays = np.asarray(rays)
            return (rays, np.asarray(radii), rng.standard_normal(rays.size),
                    rng.standard_normal(rays.size))

        # listed out of order on purpose: radial_integrals sorts them
        cells = rng.integers(0, rho.size - 1, 40)
        return [
            part([3, 3, 3], in_cell(10, 3)[::-1]),
            part([5, 8], [in_cell(0, 1)[0], in_cell(rho.size - 2, 1)[0]]),
            part([7, 7, 7, 7], np.concatenate(
                [in_cell(0, 2), in_cell(50, 1), in_cell(rho.size - 2, 1)])),
            part(rng.integers(0, nrays, 40),
                 rho[cells] + drho * rng.uniform(0.01, 0.99, 40)),
        ]

    def test_vectorised_jumps_match_loop(self, disk_context65,
                                         loop_radial_integrals):
        quad = acousto._ShellQuadrature(disk_context65, AcousticConfig(), 0.9)
        rho = quad.rho
        rng = np.random.default_rng(11)
        nrays = 30
        for trial in range(5):
            lattice = rng.standard_normal((nrays, rho.size))
            jumps = self.random_jumps(rng, rho, nrays)
            got = quad.radial_integrals(lattice, jumps)
            ref = loop_radial_integrals(rho, lattice.T.copy(), jumps)
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(got - ref)) <= 1e-14 * scale
            # jump-free rays keep the plain trapezoid
            assert np.allclose(quad.radial_integrals(lattice, []),
                               loop_radial_integrals(rho, lattice.T.copy(),
                                                     []),
                               rtol=1e-14, atol=1e-14 * scale)

    def test_shell_coefficient_is_full_grid_sampling(self,
                                                     disk_ellipse_phantom):
        ph = disk_ellipse_phantom
        cfg = AcousticConfig(eta=0.0625)
        g = Grid(65)
        ctx = make_context(ph, g)
        below = cfg.monotone_radius
        # sources next to the disk and the ellipse, and one on S_mu
        probes = [((0.05, 0.1), (0.36, 0.45, 0.56)),
                  ((0.95, 0.1), (0.5, 0.65)),
                  (tuple(source_at(0.9)), (0.8, 0.95))]
        x, yy = g.meshgrid()
        sides = set()
        for y, radii in probes:
            y = np.asarray(y)
            for r in radii:
                sides.add(r < below)
                u = displacement_u(cfg, y, r, g)
                # u from every node's distance, with no candidate selection
                dx, dy = x - y[0], yy - y[1]
                d = np.hypot(dx, dy)
                amp = cfg.eta * cfg.r0 / r
                on = np.abs(d - r) <= cfg.eta + amp
                rho = kernels.radial_invert(d[on], r, amp, cfg.eta)
                ux = np.zeros(g.shape)
                ux[on] = (rho - d[on]) / d[on] * dx[on]
                assert np.array_equal(u.vx, ux), (y, r)
                full = ph.sample_displaced(g, u)
                shell = displaced_coefficient(ctx, cfg, y, r)
                assert not np.array_equal(full.values, ctx.a.values), (y, r)
                assert np.array_equal(shell.values, full.values), (y, r)
        assert sides == {True, False}


class TestShellPass:
    @pytest.mark.parametrize("which", ["M_eta", "Mtilde"])
    def test_pass_size_changes_no_value(self, disk_ellipse_phantom,
                                        monkeypatch, which):
        cfg = AcousticConfig(eta=0.0625)
        ctx = make_context(disk_ellipse_phantom, Grid(65))
        default = sample_sinogram(ctx, cfg, 8, 16, which=which)
        assert default.values.any()
        # one ray per piece, and every pass in one piece
        for points in (96, 2**40):
            monkeypatch.setattr(acousto, "_PASS_POINTS", points)
            sino = sample_sinogram(ctx, cfg, 8, 16, which=which)
            assert np.array_equal(sino.values, default.values), points

    @pytest.mark.parametrize("which", ["two_disk_phantom", "ellipse_phantom"])
    def test_multi_cell_pass_matches_single_cells(self, request, which):
        ctx = make_context(request.getfixturevalue(which), Grid(65))
        cfg = AcousticConfig(eta=0.0625)
        sources = cfg.sources(16)
        phi = ctx.solution.phi.values
        passes = 0
        for r in cfg.radii(16):
            live = [m for m in range(16) if not acousto._ShellQuadrature
                    .misses_support(ctx.phantom, cfg, sources[m], r)]
            if len(live) < 2:
                continue
            quad = acousto._ShellQuadrature(ctx, cfg, r)
            ys = sources[live]
            phis = np.stack([acousto.perturbed_solution(ctx, cfg, y, r)[1]
                             .values for y in ys])
            together = quad.measure_M_eta(ys, phis)
            alone = [quad.measure_M_eta(ys[[c]], phis[[c]])[0]
                     for c in range(len(ys))]
            assert np.array_equal(together, alone), r
            # a pass on phi reads what a pass given phi as phi_u reads
            still = quad.measure_M_eta(ys)
            assert np.array_equal(still, quad.measure_M_eta(
                ys, np.repeat(phi[None], len(ys), axis=0))), r
            together = quad.measure_Mtilde(ys)
            alone = [quad.measure_Mtilde(ys[[c]])[0] for c in range(len(ys))]
            assert np.array_equal(together, alone), r
            passes += bool(together.any())
        assert passes > 2


    @pytest.mark.parametrize("which", ["disk_phantom", "ellipse_phantom",
                                       "two_disk_phantom"])
    def test_ray_coefficient_matches_eval(self, request, which):
        # the lattice's coefficient, from each ray's shape quadratic, is the
        # Cartesian coefficient at the lattice points, and exactly a0 off
        # every bounding circle
        ph = request.getfixturevalue(which)
        ctx = make_context(ph, Grid(33))
        cfg = AcousticConfig(eta=0.0625)
        inside = outside = 0
        for r in cfg.radii(16)[1:]:
            quad = acousto._ShellQuadrature(ctx, cfg, r)
            # every angle of a pass, as the reference builds them
            ys = cfg.sources(8)
            cell, angles, _, _ = reference_pass(quad, ys)
            y = (ys[cell, :1], ys[cell, 1:])
            ct, st = np.cos(angles)[:, None], np.sin(angles)[:, None]
            for radii in (quad.rho, quad.rho_star):
                got = ph.along_rays(y, ct, st, radii)
                px, py = y[0] + ct * radii, y[1] + st * radii
                assert np.max(np.abs(got - ph.eval(px, py))) <= 1e-14, r
                off = np.ones(px.shape, dtype=bool)
                for inc in ph.inclusions:
                    off &= (np.hypot(px - inc.center[0], py - inc.center[1])
                            > inc.bounding_radius() + 1e-9)
                assert np.all(got[off] == ph.a0), r
                inside += np.count_nonzero(got != ph.a0)
                outside += np.count_nonzero(off)
        assert inside > 1000 and outside > 1000

    @pytest.mark.parametrize("which, l", [("two_disk_phantom", 0.1),
                                          ("two_disk_phantom", 0.0),
                                          ("edge_ellipse_phantom", 0.1)])
    def test_cropped_stack_matches_full_grid_fields(self, request, which, l):
        # a pass reads the same, bit for bit, from a radius's field stack
        # held on the crop as from the same fields on the whole grid
        ctx = make_context(request.getfixturevalue(which), Grid(65), l=l)
        cfg = AcousticConfig(eta=0.0625)
        sources = cfg.sources(8)
        phi = ctx.solution.phi.values
        n = ctx.grid.n
        passes, cropped, edge = 0, False, False
        for r in cfg.radii(16):
            live = [m for m in range(8) if not acousto._ShellQuadrature
                    .misses_support(ctx.phantom, cfg, sources[m], r)]
            if not live:
                continue
            quad = acousto._ShellQuadrature(ctx, cfg, r)
            ys = sources[live]
            shells = acousto._displaced_shells(ctx, cfg, ys, r)
            moving = [c for c, shell in enumerate(shells)
                      if acousto._moves(ctx, shell)]
            full = phi[None]
            if moving:
                full = np.concatenate([full, acousto._displaced_phis(
                    ctx, [shells[c] for c in moving])])
            own = np.zeros(len(live), dtype=np.intp)
            own[moving] = np.arange(1, len(moving) + 1)
            i0, i1, j0, j1 = quad.crop
            got = quad.measure_M_eta(ys, full[:, i0:i1, j0:j1], own)
            assert np.array_equal(got, quad.measure_M_eta(ys, full, own)), r
            passes += bool(got.any())
            cropped |= (i1 - i0) * (j1 - j0) < n * n
            edge |= i0 == 0 or j0 == 0 or i1 == n or j1 == n
        assert passes > 2 and cropped
        assert edge == (which == "edge_ellipse_phantom")

    @pytest.mark.parametrize("which", ["disk_ellipse_phantom",
                                       "edge_ellipse_phantom"])
    def test_whole_grid_crop_changes_no_value(self, request, monkeypatch,
                                              which):
        # both passes read their fields on the crop because their integrands
        # vanish off it; a crop of the whole grid reads the same, bit for bit
        ctx = make_context(request.getfixturevalue(which), Grid(65))
        cfg = AcousticConfig(eta=0.0625)
        n = ctx.grid.n
        i0, i1, j0, j1 = acousto._ShellQuadrature(ctx, cfg, 1.0).crop
        assert (i1 - i0) * (j1 - j0) < n * n
        assert (0 in (i0, j0) or n in (i1, j1)) == (
            which == "edge_ellipse_phantom")
        cropped = {kind: sample_sinogram(ctx, cfg, 8, 16, which=kind)
                   for kind in ("M_eta", "Mtilde")}
        monkeypatch.setattr(acousto._ShellQuadrature, "crop",
                            property(lambda self: (0, n, 0, n)))
        for kind, sino in cropped.items():
            assert sino.values.any(), kind
            whole = sample_sinogram(ctx, cfg, 8, 16, which=kind)
            assert np.array_equal(whole.values, sino.values), kind

    def test_passes_call_neither_eval_nor_gather(self, disk_ellipse_phantom,
                                                 monkeypatch):
        # the passes read the coefficient along their rays and the fields
        # through box_corners: the Cartesian coefficient and the whole-grid
        # gather raise inside them
        ctx = make_context(disk_ellipse_phantom, Grid(65))
        cfg = AcousticConfig(eta=0.0625)
        passes = []

        def forbidden(name, original):
            def call(*args, **kwargs):
                assert not passes, f"a shell pass called {name}"
                return original(*args, **kwargs)
            return call

        def counted(original):
            def run(*args, **kwargs):
                passes.append(original.__name__)
                try:
                    return original(*args, **kwargs)
                finally:
                    passes.pop()
            return run

        monkeypatch.setattr(phantom.Phantom, "eval", forbidden(
            "Phantom.eval", phantom.Phantom.eval))
        monkeypatch.setattr(kernels, "bilinear_gather", forbidden(
            "bilinear_gather", kernels.bilinear_gather))
        for name in ("measure_M_eta", "measure_Mtilde"):
            monkeypatch.setattr(acousto._ShellQuadrature, name, counted(
                getattr(acousto._ShellQuadrature, name)))
        y = cfg.sources(8)[0]
        for kind, one in (("M_eta", measure_M_eta),
                          ("Mtilde", measure_Mtilde)):
            assert sample_sinogram(ctx, cfg, 8, 16, which=kind).values.any()
            assert one(ctx, cfg, y, 1.0) != 0.0, kind


@pytest.fixture(scope="module")
def ellipse_phantom():
    return phantom.Phantom(
        a0=1.0, lower=0.5, upper=2.0,
        inclusions=[phantom.Inclusion("ellipse", (0.55, 0.45),
                                      semi_axes=(0.16, 0.1), angle=0.5,
                                      base=1.25, amplitude=0.25)],
    )


@pytest.fixture(scope="module")
def edge_ellipse_phantom():
    """A flat ellipse near the bottom of D, whose bounding circle, and so
    each radius's crop, reaches past the grid's edge."""
    return phantom.Phantom(
        a0=1.0, lower=0.5, upper=2.0,
        inclusions=[phantom.Inclusion("ellipse", (0.5, 0.2),
                                      semi_axes=(0.3, 0.05), angle=0.0,
                                      base=1.25, amplitude=0.25)],
    )


class TestStackedSweep:
    @staticmethod
    def cell_loop(ctx, cfg, ny, nr):
        """Reference: one measure_M_eta call, and one solve, per cell."""
        sources, radii = cfg.sources(ny), cfg.radii(nr)
        return np.array([[measure_M_eta(ctx, cfg, sources[m], radii[q])
                          for q in range(nr)] for m in range(ny)])

    @pytest.mark.parametrize("n, eta", [(65, 0.0625), (129, 1.0 / 32)])
    @pytest.mark.parametrize("which", ["two_disk_phantom", "ellipse_phantom"])
    def test_matches_cell_loop(self, request, which, n, eta):
        ctx = make_context(request.getfixturevalue(which), Grid(n))
        cfg = AcousticConfig(eta=eta)
        sino = sample_sinogram(ctx, cfg, 8, 16)
        ref = self.cell_loop(ctx, cfg, 8, 16)
        scale = np.max(np.abs(ref))
        assert scale > 0
        assert np.max(np.abs(sino.values - ref)) <= 1e-12 * scale

    @pytest.mark.parametrize("n, eta", [(65, 0.0625), (129, 1.0 / 32)])
    def test_stacked_solves_run_on_the_support_box(self, two_disk_phantom,
                                                   monkeypatch, n, eta):
        # every array the preconditioner of a stacked solve receives lies
        # on the box of the inclusions' bounding circles grown by amp, the
        # box that holds every displaced medium's change from a0
        ctx = make_context(two_disk_phantom, Grid(n))
        cfg = AcousticConfig(eta=eta)
        rows = [[]]
        cg = diffusion.cg

        def recorded(apply_op, b, *args, precond, **kwargs):
            def box(r):
                if b.ndim == 3:
                    rows[-1].append(r.shape)
                return precond(r)
            return cg(apply_op, b, *args, precond=box, **kwargs)

        monkeypatch.setattr(diffusion, "cg", recorded)
        sample_sinogram(ctx, cfg, 8, 16,
                        progress=lambda done, total: rows.append([]))
        assert sum(map(len, rows)) > 16
        for r, shapes in zip(cfg.radii(16), rows):
            if not shapes:
                continue
            i0, i1, j0, j1 = acousto._support_box(
                ctx.phantom, ctx.grid, cfg.eta * cfg.r0 / r)
            for shape in shapes:
                assert shape[-2] <= i1 - i0 and shape[-1] <= j1 - j0, (
                    r, shape)

    def test_stacks_hold_at_most_four_systems(self, two_disk_phantom,
                                              monkeypatch):
        ctx = make_context(two_disk_phantom, Grid(65))
        cfg = AcousticConfig(eta=0.0625)
        rows = [[]]
        solve = diffusion.RobinOperator.solve

        def recorded(op, b, *args, **kwargs):
            rows[-1].append(b.shape[0])
            assert b.shape[1:] == ctx.grid.shape
            return solve(op, b, *args, **kwargs)

        monkeypatch.setattr(diffusion.RobinOperator, "solve", recorded)
        sample_sinogram(ctx, cfg, 8, 16,
                        progress=lambda done, total: rows.append([]))
        sizes = [k for row in rows for k in row]
        assert max(sizes) == 4
        # the stacks of each radius are near-equal
        assert all(max(row) - min(row) <= 1 for row in rows if row)
        # one system per cell whose displaced medium differs from a
        sources, radii = cfg.sources(8), cfg.radii(16)
        moving = sum(
            not acousto._ShellQuadrature.misses_support(ctx.phantom, cfg, y, r)
            and acousto._moves(ctx, acousto._displaced_shell(ctx, cfg, y, r))
            for y in sources for r in radii)
        assert sum(sizes) == moving

    def test_work_counts_per_radius_and_pass(self, two_disk_phantom,
                                             monkeypatch):
        ctx = make_context(two_disk_phantom, Grid(65))
        cfg = AcousticConfig(eta=0.0625)
        roots, passes, applies, solves = [], [0], [0], [0]
        radial_invert, robin_apply = kernels.radial_invert, kernels.robin_apply
        measure, cg = acousto._ShellQuadrature.measure_M_eta, diffusion.cg

        def counted_invert(dist, r, amp, eta):
            roots.append((sys._getframe(1).f_code.co_name, r))
            return radial_invert(dist, r, amp, eta)

        def counted_apply(*args):
            applies[0] += 1
            return robin_apply(*args)

        def counted_pass(*args, **kwargs):
            passes[0] += 1
            return measure(*args, **kwargs)

        def counted_cg(*args, **kwargs):
            solves[0] += 1
            return cg(*args, **kwargs)

        monkeypatch.setattr(kernels, "radial_invert", counted_invert)
        monkeypatch.setattr(kernels, "robin_apply", counted_apply)
        monkeypatch.setattr(acousto._ShellQuadrature, "measure_M_eta",
                            counted_pass)
        monkeypatch.setattr(diffusion, "cg", counted_cg)
        sample_sinogram(ctx, cfg, 8, 16)
        sources = cfg.sources(8)
        live = [r for r in cfg.radii(16) if any(
            not acousto._ShellQuadrature.misses_support(ctx.phantom, cfg, y, r)
            for y in sources)]
        callers = [name for name, _ in roots]
        # one shell build, one quadrature pass (of still and moving cells
        # alike) and so one root batch, and the lattice's displaced radii
        # once, per live radius
        assert [r for name, r in roots
                if name == "_shell_displacements"] == live
        assert callers.count("measure_M_eta") == passes[0] == len(live)
        assert callers.count("rho_star") == len(live)
        assert len(callers) == 2 * len(live) + passes[0]
        # the stacked solves apply the stencil only to check their result
        assert 0 < applies[0] <= solves[0]

    def test_failing_shell_names_its_cell(self, two_disk_phantom,
                                          monkeypatch):
        ctx = make_context(two_disk_phantom, Grid(65))
        cfg = AcousticConfig(eta=0.0625)
        sources, radii = cfg.sources(8), cfg.radii(16)
        q, cells = next(
            (q, cells) for q, r in enumerate(radii)
            for cells in [[m for m in range(8) if not acousto._ShellQuadrature
                           .misses_support(ctx.phantom, cfg, sources[m], r)]]
            if len(cells) >= 3)
        # the nodes of the middle cell in the radius's one shell build
        sizes = [acousto._displaced_shell(ctx, cfg, sources[m], radii[q])[0]
                 .size for m in cells]
        target = len(cells) // 2
        start = sum(sizes[:target])
        assert sizes[target] > 0
        radial_invert = kernels.radial_invert

        def corrupted(dist, r, amp, eta):
            rho = radial_invert(dist, r, amp, eta)
            if (r == radii[q]
                    and sys._getframe(1).f_code.co_name
                    == "_shell_displacements"):
                rho[start:start + sizes[target]] += 1e-3
            return rho

        monkeypatch.setattr(kernels, "radial_invert", corrupted)
        with pytest.raises(RuntimeError, match=(
                rf"sinogram cell \(source {cells[target]}, radius index "
                rf"{q}\) failed: radial inverse failed")):
            sample_sinogram(ctx, cfg, 8, 16)

    def test_failing_stack_names_its_cell(self, two_disk_phantom,
                                          monkeypatch):
        ctx = make_context(two_disk_phantom, Grid(65))
        cfg = AcousticConfig(eta=0.0625)

        def no_steps(*args, **kwargs):
            return fields.cg(*args, **{**kwargs, "max_iter": 0})

        monkeypatch.setattr(diffusion, "cg", no_steps)
        with pytest.raises(RuntimeError, match=r"sinogram cell \(source "
                           r"(\d+), radius index (\d+)\) failed") as info:
            sample_sinogram(ctx, cfg, 8, 16)
        m, q = map(int, re.search(r"source (\d+), radius index (\d+)",
                                  str(info.value)).groups())
        cause = info.value.__cause__
        assert isinstance(cause, fields.SolverError)
        # the named cell is one whose medium moved
        y, r = cfg.sources(8)[m], cfg.radii(16)[q]
        assert acousto._moves(ctx, acousto._displaced_shell(ctx, cfg, y, r))

    @pytest.mark.filterwarnings("ignore:grid n=33 under-resolves")
    def test_dirichlet_sweep_factors_nothing(self, two_disk_phantom,
                                             sparse_lus):
        cfg = AcousticConfig(eta=0.0625)
        for n in (33, 65):
            ctx = make_context(two_disk_phantom, Grid(n), l=0.0)
            sino = sample_sinogram(ctx, cfg, 8, 16)
            # the diagonalised background serves every moving cell
            assert sparse_lus == [], n
            ref = self.cell_loop(ctx, cfg, 8, 16)
            scale = np.max(np.abs(ref))
            assert scale > 0
            assert np.max(np.abs(sino.values - ref)) <= 1e-12 * scale, n

    @pytest.mark.parametrize("l", [0.0, 0.1, 1.0])
    def test_displaced_phis_match_a_direct_solve(self, disk_ellipse_phantom,
                                                 l):
        import scipy.sparse.linalg as spla

        ctx = make_context(disk_ellipse_phantom, Grid(65), l=l)
        cfg = AcousticConfig(eta=0.0625)
        moving = []
        for r in cfg.radii(16)[1:]:
            shells = acousto._displaced_shells(ctx, cfg, cfg.sources(8), r)
            moving += [s for s in shells if acousto._moves(ctx, s)]
        assert len(moving) > 20
        # every displaced medium's operator is at least the operator at the
        # constant coefficient m, the least of the media's values, since
        # they differ by the nonnegative diagonal row_weights * (a_u - m)
        m = min(np.min(ctx.a.values), min(np.min(v) for _, _, v in moving))
        floor = diffusion.RobinOperator(ctx.grid, np.full(ctx.grid.shape, m),
                                        l).sparse_matrix()
        lam = spla.eigsh(floor, k=1, sigma=0.0,
                         return_eigenvectors=False)[0]
        for k in range(0, len(moving), acousto._MAX_STACK):
            stack = moving[k:k + acousto._MAX_STACK]
            for shell, x in zip(stack, acousto._displaced_phis(ctx, stack)):
                matrix, b, exact = displaced_medium_solve(ctx.operator,
                                                          ctx.g, shell)
                # the split CG's true residual meets its tolerance 1e-10;
                # the error is A^-1 of that residual, so its norm is at
                # most the residual's over A's least eigenvalue, and that
                # is at least lam
                miss = np.linalg.norm(matrix @ x.ravel() - b.ravel())
                assert miss <= 1e-10 * np.linalg.norm(b)
                assert (np.linalg.norm(x - exact)
                        <= 1e-10 * np.linalg.norm(b) / lam)

    @staticmethod
    def grazing_radii(cfg, dc, rb):
        """Radii whose shell's outer edge touches the bounding circle at
        distance dc - rb, or whose inner edge touches it at dc + rb."""
        eta, r0 = cfg.eta, cfg.r0
        near, far = dc - rb, dc + rb
        # r + eta + eta r0 / r = near and r - eta - eta r0 / r = far
        outer = 0.5 * ((near - eta) + np.sqrt((near - eta) ** 2
                                              - 4 * eta * r0))
        inner = 0.5 * ((far + eta) + np.sqrt((far + eta) ** 2
                                             + 4 * eta * r0))
        return outer, inner

    def test_culled_coefficient_is_full_sampling(self, disk_ellipse_phantom):
        ph = disk_ellipse_phantom
        cfg = AcousticConfig(eta=0.0625)
        g = Grid(65)
        ctx = make_context(ph, g)
        culled = moved = 0
        for angle in (0.0, 0.8, 2.0, 4.0):
            y = source_at(angle)
            for inc in ph.inclusions:
                dc = np.hypot(*(np.asarray(inc.center) - y))
                for edge in self.grazing_radii(cfg, dc,
                                               inc.bounding_radius()):
                    for r in edge + np.array([-0.5, -1e-10, 0.0, 1e-10, 0.5,
                                              2.0]) * g.h:
                        full = ph.sample_displaced(
                            g, displacement_u(cfg, y, r, g))
                        shell = acousto._displaced_shell(ctx, cfg, y, r)
                        got = displaced_coefficient(ctx, cfg, y, r)
                        assert np.array_equal(got.values, full.values), (
                            angle, r)
                        moves = not np.array_equal(full.values, ctx.a.values)
                        assert acousto._moves(ctx, shell) == moves
                        moved += moves
                        every = acousto._shell_displacement(cfg, y, r,
                                                            g.coords())
                        culled += shell[0].size < every[0].size
        # grazing cells both touch and miss the inclusions, and the box
        # drops shell nodes
        assert 0 < moved < 96 and culled > 0


class TestSinogram:
    @pytest.mark.filterwarnings("ignore:grid n=33 under-resolves")
    @pytest.mark.parametrize("which", ["M_eta", "Mtilde"])
    def test_newton_radial_inverse_matches_bisection(
            self, disk_phantom, grid33, monkeypatch, bisection_radial_invert,
            which):
        cfg = AcousticConfig(eta=0.0625)
        ctx = make_context(disk_phantom, grid33)
        sino = sample_sinogram(ctx, cfg, 8, 16, which=which)
        assert sino.values.any()
        monkeypatch.setattr(kernels, "radial_invert", bisection_radial_invert)
        ref = sample_sinogram(ctx, cfg, 8, 16, which=which)
        scale = np.max(np.abs(ref.values))
        assert np.max(np.abs(sino.values - ref.values)) <= 1e-12 * scale

    def test_empty_phantom_sweep_is_zero(self, empty_phantom, grid65):
        cfg = AcousticConfig(eta=0.08)
        ctx = make_context(empty_phantom, grid65)
        sino = sample_sinogram(ctx, cfg, 8, 16)
        assert not sino.values.any()

    def test_support_convention(self, flat_disk_phantom, grid65):
        cfg = AcousticConfig(eta=0.08)
        ctx = make_context(flat_disk_phantom, grid65)
        sino = sample_sinogram(ctx, cfg, 8, 24)
        radii = sino.radii()
        assert not sino.values[:, radii <= cfg.r0].any()

    def test_rotational_symmetry(self, flat_disk_phantom):
        # a quarter turn maps the grid, the square, and the source lattice
        # onto themselves exactly, so the sweep must be invariant
        g = Grid(129)
        cfg = AcousticConfig(eta=0.08)
        ctx = make_context(flat_disk_phantom, g)
        sino = sample_sinogram(ctx, cfg, 8, 24)
        rolled = np.roll(sino.values, 2, axis=0)
        scale = np.max(np.abs(sino.values))
        assert np.max(np.abs(sino.values - rolled)) <= 1e-8 * scale

    def test_continuity_proxy(self, disk_phantom):
        g = Grid(129)
        cfg = AcousticConfig(eta=0.08)
        ctx = make_context(disk_phantom, g)
        coarse = sample_sinogram(ctx, cfg, 8, 24)
        fine = sample_sinogram(ctx, cfg, 16, 48)

        def max_radial_step(s):
            return np.max(np.abs(np.diff(s.values, axis=1)))

        assert max_radial_step(fine) <= max_radial_step(coarse)

    def test_csv_roundtrip(self, tmp_path, config):
        rng = np.random.default_rng(6)
        sino = Sinogram(config, 8, 16, rng.standard_normal((8, 16)))
        path = tmp_path / "s.csv"
        sino.save_csv(path)
        back = Sinogram.load_csv(path, config)
        np.testing.assert_array_equal(back.values, sino.values)

    @pytest.mark.parametrize("edit", [
        lambda rows: rows[:-1],
        lambda rows: rows[:15] + [rows[16], rows[15]] + rows[17:],
        lambda rows: rows[:3] + ["0,0.5,1.0"] + rows[4:],
        lambda rows: rows[:3] + ["0,0.5"] + rows[4:],
    ], ids=["ragged", "not-y-major", "wrong-radius", "short-row"])
    def test_csv_rejects_malformed(self, tmp_path, config, edit):
        sino = Sinogram(config, 8, 16, np.zeros((8, 16)))
        path = tmp_path / "s.csv"
        sino.save_csv(path)
        # the edits index the data rows, after the header and geometry lines
        header, geometry, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header, geometry] + edit(rows)) + "\n")
        with pytest.raises(fields.FileFormatError):
            Sinogram.load_csv(path, config)

    @pytest.mark.parametrize("key, value", [
        ("eta", 0.05), ("mu", 1.02), ("r0", 0.26), ("R", 1.8),
        ("center", (0.5, 0.45))])
    def test_csv_rejects_another_geometry(self, tmp_path, config, key,
                                          value):
        path = tmp_path / "s.csv"
        Sinogram(config, 8, 16, np.zeros((8, 16))).save_csv(path)
        other = dataclasses.replace(config, **{key: value})
        with pytest.raises(fields.FileFormatError) as info:
            Sinogram.load_csv(path, other)
        assert str(info.value) == (
            f"{path}: sampled at {key} = {getattr(config, key)!r}, but the "
            f"config has {key} = {value!r}")

    def test_csv_needs_its_geometry_line(self, tmp_path, config):
        path = tmp_path / "s.csv"
        Sinogram(config, 8, 16, np.zeros((8, 16))).save_csv(path)
        header, _, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header] + rows) + "\n")
        with pytest.raises(fields.FileFormatError, match="no '# eta=...' "):
            Sinogram.load_csv(path, config)

    def test_csv_deterministic(self, tmp_path, config):
        rng = np.random.default_rng(7)
        sino = Sinogram(config, 8, 16, rng.standard_normal((8, 16)))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        sino.save_csv(p1)
        sino.save_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_sweep_size_guards(self, disk_context65, config):
        with pytest.raises(ValueError):
            sample_sinogram(disk_context65, config, 4, 16)
        with pytest.raises(ValueError):
            sample_sinogram(disk_context65, config, 8, 8)
