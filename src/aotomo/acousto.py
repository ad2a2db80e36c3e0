"""Acoustic perturbation and measurement synthesis.

A short spherical wave from a source y on the circle S_mu displaces each
point radially by the profile v; the induced coefficient change produces the
cross-correlation data M(y, r) collected over the measurement cylinder
(source angle) x (wave radius). The wavefront profile w is the standard
smooth bump with unit sup-norm.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .diffusion import OpticalSolution, RobinOperator, RobinProblem, solve_T
from .fields import (
    BoundaryTrace,
    FileFormatError,
    Grid,
    ScalarField,
    VectorField,
    gradient,
    integrate,
)
from .phantom import Phantom

SQRT2_HALF = math.sqrt(2.0) / 2.0


def _w_l1():
    """||w||_1 by the trapezoid rule on 400 intervals of [-1, 1].

    w and all its derivatives vanish at +-1, so the rule converges faster
    than any power of the step; the endpoint terms are zero.
    """
    s = np.linspace(-1.0, 1.0, 401)[1:-1]
    return (2.0 / 400) * float(np.sum(np.exp(1.0 - 1.0 / (1.0 - s * s))))


@dataclass(frozen=True)
class AcousticConfig:
    """Geometry of the acoustic sweep.

    Sources sit on the circle of radius mu around the domain center; wave
    radii run over [0, R] with the data supported on [r0, R]. eta is the
    half-thickness of the wavefront.
    """

    mu: float = 1.0
    r0: float = 0.25
    R: float = 1.75
    eta: float = 0.02
    center: tuple = (0.5, 0.5)
    w_l1: float = field(default=0.0, compare=False)
    w_prime_sup: float = field(default=0.0, compare=False)

    def __post_init__(self):
        if self.mu <= SQRT2_HALF:
            raise ValueError("source circle must enclose the domain: mu > sqrt(2)/2")
        if not (0 < self.r0 < self.R):
            raise ValueError("need 0 < r0 < R")
        if self.r0 > self.mu - SQRT2_HALF + 1e-12:
            raise ValueError("r0 must not exceed mu - sqrt(2)/2")
        if self.R < self.mu + SQRT2_HALF - 1e-12:
            raise ValueError("R must cover mu + sqrt(2)/2")
        if not (0 < self.eta < self.r0 / 2):
            raise ValueError("need 0 < eta < r0/2")
        object.__setattr__(self, "w_l1", _w_l1())
        object.__setattr__(self, "w_prime_sup", kernels.BUMP_PRIME_SUP)

    @property
    def monotone_radius(self):
        """Radius above which the radial position map is globally monotone.

        Above it amp/eta * sup|w'| = r0/r * sup|w'| < 1, and
        ``kernels.radial_invert`` finds the unique root by table-seeded
        Newton steps. Below it the map can fold inside the wavefront;
        the radial inverse then bisects, which still returns a branch, but
        forward-model probes should stay above this radius.
        """
        return self.r0 * self.w_prime_sup

    def sources(self, ny: int):
        t = 2 * np.pi * np.arange(ny) / ny
        cx, cy = self.center
        return np.column_stack([cx + self.mu * np.cos(t), cy + self.mu * np.sin(t)])

    def radii(self, nr: int):
        return np.linspace(0.0, self.R, nr)

    def resolution_problems(self, grid: Grid):
        """Grid-resolution requirements for resolving the wavefront shell."""
        msgs = []
        if grid.n < 4.0 / self.eta:
            msgs.append(
                f"grid n={grid.n} under-resolves the wavefront: need n >= "
                f"{math.ceil(4.0 / self.eta)} for eta={self.eta}"
            )
        return msgs


@dataclass
class Sinogram:
    """Sampled cylinder data: rows are sources, columns are radii."""

    config: AcousticConfig
    ny: int
    nr: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.ny, self.nr):
            raise ValueError("sinogram values shape mismatch")

    @classmethod
    def zeros(cls, config, ny, nr):
        return cls(config, ny, nr, np.zeros((ny, nr)))

    def radii(self):
        return self.config.radii(self.nr)

    def sources(self):
        return self.config.sources(self.ny)

    def copy_with(self, values):
        return Sinogram(self.config, self.ny, self.nr, np.array(values))

    def save_csv(self, path):
        radii = self.radii()
        with open(path, "w") as fh:
            fh.write("y_index,r,value\n")
            for m in range(self.ny):
                for q in range(self.nr):
                    fh.write(f"{m},{radii[q]:.17g},{self.values[m, q]:.17g}\n")

    @classmethod
    def load_csv(cls, path, config):
        """Read a file written by ``save_csv``. The rows must be y-major and
        rectangular and the r column must match ``config.radii(nr)``; any
        other file raises FileFormatError."""
        rows = []
        with open(path) as fh:
            header = fh.readline().strip()
            if header != "y_index,r,value":
                raise FileFormatError(f"{path}: unexpected header {header!r}")
            for lineno, line in enumerate(fh, start=2):
                try:
                    m_s, r_s, v_s = line.strip().split(",")
                    rows.append((int(m_s), float(r_s), float(v_s)))
                except ValueError:
                    raise FileFormatError(
                        f"{path}:{lineno}: expected y_index,r,value")
        if not rows:
            raise FileFormatError(f"{path}: no sinogram rows")
        index = np.array([r[0] for r in rows])
        ny = int(index.max()) + 1
        nr = len(rows) // max(ny, 1)
        if nr == 0 or not np.array_equal(index,
                                         np.repeat(np.arange(ny), nr)):
            raise FileFormatError(
                f"{path}: rows are not {ny} sources of equal length "
                "in y-major order")
        radii = np.array([r[1] for r in rows]).reshape(ny, nr)
        if np.max(np.abs(radii - config.radii(nr))) > 1e-9:
            raise FileFormatError(
                f"{path}: the r column differs from the config's {nr} "
                f"radii on [0, {config.R:g}]")
        values = np.array([r[2] for r in rows]).reshape(ny, nr)
        return cls(config, ny, nr, values)


# ---------------------------------------------------------------------------
# displacement fields


def displacement_v(config: AcousticConfig, y, r, grid: Grid) -> VectorField:
    """Leading-order radial displacement of the diverging wavefront."""
    x, ygrid = grid.meshgrid()
    dx = x - y[0]
    dy = ygrid - y[1]
    d = np.hypot(dx, dy)
    amp = config.eta * (config.r0 / r)
    prof = amp * kernels.bump((r - d) / config.eta)
    with np.errstate(invalid="ignore", divide="ignore"):
        ex = np.where(d > 0, dx / d, 0.0)
        ey = np.where(d > 0, dy / d, 0.0)
    return VectorField(grid, prof * ex, prof * ey)


def displacement_u(config: AcousticConfig, y, r, grid: Grid) -> VectorField:
    """Displacement u with x + u(x) = P^{-1}(x) for the position map
    P(z) = z + v(z); solved per node by ``kernels.radial_invert``."""
    x, ygrid = grid.meshgrid()
    dx = x - y[0]
    dy = ygrid - y[1]
    d = np.hypot(dx, dy)
    amp = config.eta * (config.r0 / r)
    ux = np.zeros(grid.shape)
    uy = np.zeros(grid.shape)
    shell = np.abs(d - r) <= config.eta + amp
    if np.any(shell):
        dvals = d[shell]
        rho = kernels.radial_invert(dvals, r, amp, config.eta)
        residual = np.abs(rho + amp * kernels.bump((r - rho) / config.eta) - dvals)
        bad = residual > 1e-10
        if np.any(bad):
            k = int(np.argmax(residual))
            raise RuntimeError(
                f"radial inverse failed at source {tuple(y)}, radius {r}, "
                f"node distance {dvals[k]:.6f} (residual {residual[k]:.2e})"
            )
        scale = (rho - dvals) / dvals
        ux[shell] = scale * dx[shell]
        uy[shell] = scale * dy[shell]
    return VectorField(grid, ux, uy)


# ---------------------------------------------------------------------------
# measurements


@dataclass
class ForwardContext:
    """Cached unperturbed forward solve shared across a measurement sweep,
    with the factorization of its operator (l > 0) that preconditions both
    that solve and the sweep's perturbed solves."""

    phantom: Phantom
    grid: Grid
    g: BoundaryTrace
    l: float
    a: ScalarField = None
    solution: OpticalSolution = None
    operator: RobinOperator = None

    def __post_init__(self):
        if self.a is None:
            self.a = self.phantom.sample(self.grid)
        if self.operator is None and self.l > 0:
            self.operator = RobinOperator(self.grid, self.a.values, self.l)
        if self.solution is None:
            self.solution = solve_T(RobinProblem(self.a, self.g, self.l),
                                    precond_with=self.operator)


def make_context(phantom: Phantom, grid: Grid, g=1.0, l=0.1) -> ForwardContext:
    trace = g if isinstance(g, BoundaryTrace) else BoundaryTrace.constant(grid, g)
    return ForwardContext(phantom, grid, trace, l)


def perturbed_solution(ctx: ForwardContext, config: AcousticConfig, y, r):
    """Coefficient and optical solution in the displaced medium."""
    u = displacement_u(config, y, r, ctx.grid)
    a_u = ctx.phantom.sample_displaced(ctx.grid, u)
    if np.array_equal(a_u.values, ctx.a.values):
        return a_u, ctx.solution
    sol = solve_T(
        RobinProblem(a_u, ctx.g, ctx.l),
        x0=ctx.solution.phi,
        precond_with=ctx.operator,
    )
    return a_u, sol


def _ray_rim_crossings(inclusion, y, ct, st):
    """Radii where rays from y cross the inclusion rim (quadratic solve).

    Returns two arrays of radii aligned with the ray direction arrays, NaN
    where a ray misses the rim.
    """
    cx, cy = inclusion.center
    dx0 = y[0] - cx
    dy0 = y[1] - cy
    if inclusion.shape == "disk":
        A = np.ones_like(ct)
        B = dx0 * ct + dy0 * st
        C = dx0 * dx0 + dy0 * dy0 - inclusion.radius**2
    else:
        ca, sa = math.cos(inclusion.angle), math.sin(inclusion.angle)
        ax, bx = inclusion.semi_axes
        du = (ca * dx0 + sa * dy0) / ax
        dv = (-sa * dx0 + ca * dy0) / bx
        xu = (ca * ct + sa * st) / ax
        xv = (-sa * ct + ca * st) / bx
        A = xu * xu + xv * xv
        B = du * xu + dv * xv
        C = du * du + dv * dv - 1.0
    disc = B * B - A * C
    ok = disc > 0
    sq = np.sqrt(np.where(ok, disc, 0.0))
    lo = np.where(ok, (-B - sq) / A, np.nan)
    hi = np.where(ok, (-B + sq) / A, np.nan)
    return lo, hi


_NUDGE = 1e-9


def rays_meeting_support(phantom, y, lo, hi, ct, st):
    """Indices of the rays y + rho (ct, st), rho in [lo, hi], that come within
    an inclusion's bounding radius (plus 1e-9 for rounding) of its centre.

    Phantom.eval returns exactly a0 at every point of the other rays.
    """
    hit = np.zeros(ct.shape, dtype=bool)
    for inc in phantom.inclusions:
        vx = inc.center[0] - y[0]
        vy = inc.center[1] - y[1]
        t = np.clip(vx * ct + vy * st, lo, hi)
        reach = inc.bounding_radius() + _NUDGE
        hit |= np.hypot(vx - t * ct, vy - t * st) <= reach
    return np.nonzero(hit)[0]


class _ShellQuadrature:
    """Polar quadrature over the wavefront shell with exact jump handling.

    The measurement integrands are smooth in the radial variable except where
    a ray crosses an inclusion rim (directly, or through the displaced
    radius). Crossing radii come from per-ray quadratic solves and each
    affected radial trapezoid cell is replaced by the exact piecewise
    integral of the one-sided limits; without this the cell jump error
    scales like eta^(-1/2) after the 1/eta^2 normalization. In the angular
    variable the rim sweeps through the shell over a band of width
    ~eta/|d rho_c/d theta|, so the base angular grid is refined adaptively
    on those bands.

    Both integrands vanish on a ray whose segment [r - eta, r + eta] meets
    no inclusion, so the lattice is evaluated only on the rays that
    ``rays_meeting_support`` keeps and is exactly zero on the others. The
    cull is exact: the radial inverse fixes both ends of the shell, so the
    displaced radius rho* stays in [r - eta, r + eta]; Phantom.eval returns
    exactly a0 off every inclusion, so a - a0 and a_u - a are zero on the
    dropped rays; and a rim-crossing root inside the shell lies on a rim, so
    every ray that carries a jump correction is kept.
    """

    def __init__(self, ctx, config, y, r):
        self.ctx = ctx
        self.config = config
        self.y = np.asarray(y, dtype=float)
        self.r = float(r)
        self.eta = config.eta
        grid = ctx.grid
        self.h = grid.h
        self.rho = np.linspace(r - self.eta, r + self.eta, 96)
        self.drho = self.rho[1] - self.rho[0]
        angular_step = 0.5 * self.h / r
        # multiple of 4 so the angular lattice respects quarter turns
        self.ntheta = 4 * max(16, int(np.ceil(np.pi / (2 * angular_step))))

    @staticmethod
    def misses_support(phantom, config, y, r):
        """True when the measurement at (y, r) is zero: the wave has not
        left the r <= r0 dead zone, or the displaced shell cannot touch any
        inclusion."""
        if r <= config.r0:
            return True
        slack = config.eta * (1.0 + config.r0 / max(r, config.r0)) + config.eta
        for inc in phantom.inclusions:
            dc = math.hypot(inc.center[0] - y[0], inc.center[1] - y[1])
            rb = inc.bounding_radius()
            if dc - rb - slack <= r <= dc + rb + slack:
                return False
        return True

    def rays_meeting_support(self, ct, st):
        """Indices of the rays whose shell segment can meet an inclusion."""
        return rays_meeting_support(self.ctx.phantom, self.y, self.rho[0],
                                    self.rho[-1], ct, st)

    def base_angles(self):
        return np.linspace(0.0, 2 * np.pi, self.ntheta, endpoint=False)

    def crossing_roots(self, ct, st):
        """All rim-crossing radii per ray, one array per root branch."""
        roots = []
        for inc in self.ctx.phantom.inclusions:
            roots.extend(_ray_rim_crossings(inc, self.y, ct, st))
        return roots

    def radial_integrals(self, lattice_vals, jumps):
        """Per-ray composite trapezoid in rho with exact jump corrections.

        ``jumps`` lists (rays, radii, below, above) array tuples: below and
        above are the one-sided limits of the full integrand (radial
        Jacobian included) at each jump radius on each ray.
        """
        w = np.full(self.rho.size, self.drho)
        w[0] *= 0.5
        w[-1] *= 0.5
        per_ray = lattice_vals.T @ w
        if jumps:
            jump_rays, jump_radii, jump_below, jump_above = (
                np.concatenate(part) for part in zip(*jumps))
            cells = np.clip(
                ((jump_radii - self.rho[0]) / self.drho).astype(int),
                0,
                self.rho.size - 2,
            )
            order = np.lexsort((jump_radii, cells, jump_rays))
            jr = jump_rays[order]
            jc = cells[order]
            jx = jump_radii[order]
            jb = jump_below[order]
            ja = jump_above[order]
            key = jr.astype(np.int64) * self.rho.size + jc
            uniq, start = np.unique(key, return_index=True)
            bounds = list(start) + [len(key)]
            for u in range(len(uniq)):
                s0, s1 = bounds[u], bounds[u + 1]
                ray = jr[s0]
                cell = jc[s0]
                r_lo, r_hi = self.rho[cell], self.rho[cell + 1]
                g_lo = lattice_vals[cell, ray]
                g_hi = lattice_vals[cell + 1, ray]
                plain = 0.5 * self.drho * (g_lo + g_hi)
                xs = [r_lo] + list(jx[s0:s1]) + [r_hi]
                start_vals = [g_lo] + list(ja[s0:s1])
                end_vals = list(jb[s0:s1]) + [g_hi]
                exact = 0.0
                for piece in range(len(xs) - 1):
                    exact += 0.5 * (xs[piece + 1] - xs[piece]) * (
                        start_vals[piece] + end_vals[piece]
                    )
                per_ray[ray] += exact - plain
        return per_ray

    def adaptive_theta_nodes(self):
        """Base angular nodes plus refined nodes over the rim-sweep bands.

        Returns a sorted angle array covering one period. Refinement of a
        base interval is driven by how far the crossing radii move across it
        relative to eta.
        """
        theta = self.base_angles()
        step = 2 * np.pi / self.ntheta
        ct, st = np.cos(theta), np.sin(theta)
        roots = self.crossing_roots(ct, st)
        if not roots:
            return theta
        subdiv = np.ones(self.ntheta, dtype=int)
        margin = 1.5 * self.eta
        for root in roots:
            in_band = np.isfinite(root) & (np.abs(root - self.r) < margin)
            nxt = np.roll(root, -1)
            both = np.isfinite(root) & np.isfinite(nxt)
            sweep = np.where(both, np.abs(nxt - root), np.inf)
            active = in_band | np.roll(in_band, -1)
            if not np.any(active):
                continue
            want = np.ones(self.ntheta, dtype=int)
            fine = np.clip(
                np.ceil(sweep / (self.eta / 8.0)), 1, 64
            ).astype(int)
            # intervals where a root appears or disappears get full depth
            fine = np.where(np.isfinite(sweep), fine, 64)
            want = np.where(active, fine, 1)
            subdiv = np.maximum(subdiv, want)
        if np.all(subdiv == 1):
            return theta
        nodes = [theta]
        for k in np.nonzero(subdiv > 1)[0]:
            s = subdiv[k]
            nodes.append(theta[k] + step * np.arange(1, s) / s)
        return np.sort(np.concatenate(nodes))

    def theta_total(self, angles, per_ray):
        """Periodic trapezoid over a sorted, possibly non-uniform angle set."""
        gaps = np.diff(angles, append=angles[0] + 2 * np.pi)
        return float(np.sum(0.5 * gaps * (per_ray + np.roll(per_ray, -1))))

    def normalized_total(self, per_ray_integrals):
        """(1/eta^2) times the shell integral, given the per-ray radial
        integrals as a function of the ray direction cosines and sines."""
        angles = self.adaptive_theta_nodes()
        per_ray = per_ray_integrals(np.cos(angles), np.sin(angles))
        return self.theta_total(angles, per_ray) / self.eta**2


def measure_M_eta(ctx: ForwardContext, config: AcousticConfig, y, r,
                  quadrature="polar") -> float:
    """Normalized internal cross-term (1/eta^2) int (a_u - a) phi phi_u.

    The optical solves live on the field grid, but the integral is taken in
    polar coordinates around the source by default: the coefficient change is
    evaluated symbolically, the displaced radius comes from the radial root
    solve, and rim-crossing jumps are integrated exactly, so the thin support
    of a_u - a is resolved at any eta. ``quadrature="grid"`` selects plain
    trapezoid on the field grid instead (needs h well below eta*r0/r to see
    the jump slivers); the two act as independent cross-checks.

    The polar lattice is computed only on the rays whose shell segment comes
    near an inclusion, and is zero on the rest. This drops no nonzero term:
    rho* = radial_invert(rho) stays in [r - eta, r + eta] because the
    position map fixes both ends of the shell; Phantom.eval returns exactly
    a0 off every inclusion, so a_u - a is zero on a dropped ray; and a
    rim-crossing root inside the shell lies on the rim, so its ray is kept.
    """
    if _ShellQuadrature.misses_support(ctx.phantom, config, y, r):
        return 0.0
    a_u, sol_u = perturbed_solution(ctx, config, y, r)
    if quadrature == "grid":
        diff = a_u.values - ctx.a.values
        if not diff.any():
            return 0.0
        integrand = ScalarField(
            ctx.grid, diff * ctx.solution.phi.values * sol_u.phi.values
        )
        return integrate(integrand) / config.eta**2
    if quadrature != "polar":
        raise ValueError(f"unknown quadrature {quadrature!r}")

    eta, r0 = config.eta, config.r0
    amp = eta * (r0 / r)
    phantom = ctx.phantom
    # the position map moves points by at most amp < eta and fixes the shell
    # boundary, so supp(a_u - a) lies strictly inside (r - eta, r + eta)
    quad = _ShellQuadrature(ctx, config, y, r)
    rho = quad.rho
    rho_star = kernels.radial_invert(rho, r, amp, eta)
    phi_b = ctx.solution.phi.values
    phi_u = sol_u.phi.values

    def smooth_at(radii, ct, st):
        px = quad.y[0] + radii * ct
        py = quad.y[1] + radii * st
        return (kernels.bilinear_gather(phi_b, px, py, quad.h)
                * kernels.bilinear_gather(phi_u, px, py, quad.h)) * radii

    def per_ray_integrals(ct, st):
        keep = quad.rays_meeting_support(ct, st)
        ck, sk = ct[keep], st[keep]
        px = quad.y[0] + np.outer(rho, ck)
        py = quad.y[1] + np.outer(rho, sk)
        qx = quad.y[0] + np.outer(rho_star, ck)
        qy = quad.y[1] + np.outer(rho_star, sk)
        dcoef = phantom.eval(qx, qy) - phantom.eval(px, py)
        inside = (px >= 0) & (px <= 1) & (py >= 0) & (py <= 1)
        dcoef = np.where(inside, dcoef, 0.0)
        lattice = np.zeros((rho.size, ct.size))
        lattice[:, keep] = (
            dcoef
            * kernels.bilinear_gather(phi_b, px, py, quad.h)
            * kernels.bilinear_gather(phi_u, px, py, quad.h)
            * rho[:, None]
        )

        jumps = []
        for root in quad.crossing_roots(ct, st):
            keep = np.isfinite(root) & (root > rho[0]) & (root < rho[-1])
            if not np.any(keep):
                continue
            rays = np.nonzero(keep)[0]
            rc = root[keep]
            # where the local displacement is below resolution the direct and
            # displaced jumps annihilate; correcting only one of them would
            # fabricate a spurious half jump
            f_rc = amp * kernels.bump((r - rc) / eta)
            live = f_rc > 1e-12
            if not np.any(live):
                continue
            rays = rays[live]
            rc = rc[live]
            f_rc = f_rc[live]
            ctv, stv = ct[rays], st[rays]
            a_in = phantom.eval(quad.y[0] + (rc - _NUDGE) * ctv,
                                quad.y[1] + (rc - _NUDGE) * stv)
            a_out = phantom.eval(quad.y[0] + (rc + _NUDGE) * ctv,
                                 quad.y[1] + (rc + _NUDGE) * stv)
            # direct jump: the undisplaced coefficient jumps at rc; the
            # displaced point sits strictly below rc, so keep its coefficient
            # evaluation on that side
            rstar = kernels.radial_invert(rc, r, amp, eta)
            rstar = np.minimum(rstar, rc - _NUDGE)
            adisp = phantom.eval(quad.y[0] + rstar * ctv,
                                 quad.y[1] + rstar * stv)
            sm = smooth_at(rc, ctv, stv)
            jumps.append((rays, rc, (adisp - a_in) * sm, (adisp - a_out) * sm))
            # displaced jump: the displaced radius crosses rc at the image
            # of rc under the position map
            img = rc + f_rc
            move = (img > rho[0]) & (img < rho[-1])
            if np.any(move):
                rays_m = rays[move]
                rr = img[move]
                ctm, stm = ct[rays_m], st[rays_m]
                base = phantom.eval(quad.y[0] + (rr + _NUDGE) * ctm,
                                    quad.y[1] + (rr + _NUDGE) * stm)
                smm = smooth_at(rr, ctm, stm)
                jumps.append((rays_m, rr, (a_in[move] - base) * smm,
                              (a_out[move] - base) * smm))
        return quad.radial_integrals(lattice, jumps)

    return quad.normalized_total(per_ray_integrals)


def measure_Mtilde(ctx: ForwardContext, config: AcousticConfig, y, r) -> float:
    """Linearized measurement (1/eta^2) int (a - a0) div(phi^2 v).

    Same polar shell quadrature as measure_M_eta: the coefficient is
    evaluated symbolically (rim jumps handled exactly), the displacement
    profile and its divergence are closed-form, and phi^2 is interpolated
    from the grid solution.
    """
    if _ShellQuadrature.misses_support(ctx.phantom, config, y, r):
        return 0.0
    if not (ctx.a.values - ctx.phantom.a0).any():
        return 0.0
    eta, r0 = config.eta, config.r0
    quad = _ShellQuadrature(ctx, config, y, r)
    rho = quad.rho
    phantom = ctx.phantom
    phi = ctx.solution.phi.values
    grad_phi = gradient(ctx.solution.phi)
    gx, gy = grad_phi.vx, grad_phi.vy

    def smooth_factor(radii_grid, ct, st):
        """[d/drho(phi^2) f + phi^2 (f\' + f/rho)] * rho at polar points."""
        px = quad.y[0] + radii_grid * ct
        py = quad.y[1] + radii_grid * st
        phi_at = kernels.bilinear_gather(phi, px, py, quad.h)
        dphix = kernels.bilinear_gather(gx, px, py, quad.h)
        dphiy = kernels.bilinear_gather(gy, px, py, quad.h)
        dphi2 = 2.0 * phi_at * (dphix * ct + dphiy * st)
        s = (r - radii_grid) / eta
        fval = eta * (r0 / r) * kernels.bump(s)
        fprime = -(r0 / r) * kernels.bump_prime(s)
        return (
            dphi2 * fval + phi_at**2 * (fprime + fval / radii_grid)
        ) * radii_grid

    def per_ray_integrals(ct, st):
        keep = quad.rays_meeting_support(ct, st)
        ck, sk = ct[keep], st[keep]
        px = quad.y[0] + np.outer(rho, ck)
        py = quad.y[1] + np.outer(rho, sk)
        qvals = phantom.eval(px, py) - phantom.a0
        lattice = np.zeros((rho.size, ct.size))
        lattice[:, keep] = qvals * smooth_factor(
            rho[:, None], ck[None, :], sk[None, :]
        )
        jumps = []
        for root in quad.crossing_roots(ct, st):
            keep = np.isfinite(root) & (root > rho[0]) & (root < rho[-1])
            if not np.any(keep):
                continue
            rays = np.nonzero(keep)[0]
            rc = root[keep]
            ctv, stv = ct[rays], st[rays]
            q_in = phantom.eval(quad.y[0] + (rc - _NUDGE) * ctv,
                                quad.y[1] + (rc - _NUDGE) * stv) - phantom.a0
            q_out = phantom.eval(quad.y[0] + (rc + _NUDGE) * ctv,
                                 quad.y[1] + (rc + _NUDGE) * stv) - phantom.a0
            sm = smooth_factor(rc, ctv, stv)
            jumps.append((rays, rc, q_in * sm, q_out * sm))
        return quad.radial_integrals(lattice, jumps)

    return quad.normalized_total(per_ray_integrals)


def measure_cross_correlation(ctx: ForwardContext, config: AcousticConfig,
                              y, r, f: BoundaryTrace, g: BoundaryTrace) -> float:
    """Boundary cross-correlation (1/eta^2) int_bdry (f flux_u^g - g flux^f).

    With f = g this reproduces the internal form of measure_M_eta up to the
    discrete Green-identity mismatch.
    """
    if np.min(f.values) < 0 or np.min(g.values) < 0:
        raise ValueError("boundary illuminations must be nonnegative")
    grid = ctx.grid
    sol_f = solve_T(RobinProblem(ctx.a, f, ctx.l), precond_with=ctx.operator)
    u = displacement_u(config, y, r, grid)
    a_u = ctx.phantom.sample_displaced(grid, u)
    sol_g_u = solve_T(RobinProblem(a_u, g, ctx.l), precond_with=ctx.operator)
    boundary = f.values * sol_g_u.flux.values - g.values * sol_f.flux.values
    return grid.h * float(np.sum(boundary)) / config.eta**2


def sample_sinogram(ctx: ForwardContext, config: AcousticConfig, ny: int,
                    nr: int, which: str = "M_eta",
                    progress=None) -> Sinogram:
    """Dense cylinder sweep; rows are sources in angle order, columns radii.

    Cells are independent and evaluated in a fixed order, so outputs are
    deterministic.
    """
    if ny < 8 or nr < 16:
        raise ValueError("need ny >= 8 and nr >= 16")
    if which not in ("M_eta", "Mtilde"):
        raise ValueError(f"unknown sinogram kind {which!r}")
    problems = config.resolution_problems(ctx.grid)
    if problems:
        warnings.warn("; ".join(problems), RuntimeWarning, stacklevel=2)
    measure = measure_M_eta if which == "M_eta" else measure_Mtilde
    sources = config.sources(ny)
    radii = config.radii(nr)
    values = np.zeros((ny, nr))
    for m in range(ny):
        y = sources[m]
        for q in range(nr):
            try:
                values[m, q] = measure(ctx, config, y, radii[q])
            except Exception as exc:
                raise RuntimeError(
                    f"sinogram cell (source {m}, radius index {q}) failed: {exc}"
                ) from exc
        if progress is not None:
            progress(m + 1, ny)
    return Sinogram(config, ny, nr, values)
