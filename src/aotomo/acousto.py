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
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import kernels
from .diffusion import OpticalSolution, RobinOperator, RobinProblem, solve_T
from .fields import (
    BoundaryTrace,
    FileFormatError,
    Grid,
    ScalarField,
    SolverError,
    VectorField,
    gradient,
    integrate,
    stack_dot,
)
from .phantom import Phantom

SQRT2_HALF = math.sqrt(2.0) / 2.0

# distance a point must keep from a bounding circle or a rim for
# Phantom.eval to place it on a known side despite rounding
_NUDGE = 1e-9


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


def _check_radius(r):
    if not r > 0:
        raise ValueError(f"wave radius must be positive, got r={r}")


def displacement_v(config: AcousticConfig, y, r, grid: Grid) -> VectorField:
    """Leading-order radial displacement of the diverging wavefront."""
    _check_radius(r)
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


def _shell_displacement(config: AcousticConfig, y, r, grid: Grid, box=None):
    """The nodes of the shell |d - r| <= eta + amp around y, outside which u
    vanishes, and u on them.

    Returns ``(i, j, ux, uy)``: the index arrays of the shell nodes, in C
    order, and the two components of u on them, solved per node by
    ``kernels.radial_invert``. ``box``, node index ranges ``(i0, i1, j0,
    j1)``, keeps only the shell nodes in ``[i0, i1) x [j0, j1)``.
    """
    _check_radius(r)
    c = grid.coords()
    i0, i1, j0, j1 = (0, grid.n, 0, grid.n) if box is None else box
    cx = c[i0:i1] - y[0]
    cy = c[j0:j1] - y[1]
    amp = config.eta * (config.r0 / r)
    width = config.eta + amp
    # squared distances pick the candidates, with a margin far above their
    # rounding; the test on d itself decides
    dsq = cx[:, None] ** 2 + cy[None, :] ** 2
    lo = max(r - width, 0.0) * (1.0 - 1e-9)
    hi = (r + width) * (1.0 + 1e-9)
    i, j = np.nonzero((dsq >= lo * lo) & (dsq <= hi * hi))
    d = np.hypot(cx[i], cy[j])
    shell = np.abs(d - r) <= width
    i, j, d = i[shell], j[shell], d[shell]
    rho = kernels.radial_invert(d, r, amp, config.eta)
    residual = np.abs(rho + amp * kernels.bump((r - rho) / config.eta) - d)
    bad = residual > 1e-10
    if np.any(bad):
        k = int(np.argmax(residual))
        raise RuntimeError(
            f"radial inverse failed at source {tuple(y)}, radius {r}, "
            f"node distance {d[k]:.6f} (residual {residual[k]:.2e})"
        )
    scale = (rho - d) / d
    return i + i0, j + j0, scale * cx[i], scale * cy[j]


def displacement_u(config: AcousticConfig, y, r, grid: Grid) -> VectorField:
    """Displacement u with x + u(x) = P^{-1}(x) for the position map
    P(z) = z + v(z); zero off the wavefront shell."""
    i, j, ux_shell, uy_shell = _shell_displacement(config, y, r, grid)
    ux = np.zeros(grid.shape)
    uy = np.zeros(grid.shape)
    ux[i, j] = ux_shell
    uy[i, j] = uy_shell
    return VectorField(grid, ux, uy)


# ---------------------------------------------------------------------------
# measurements


@dataclass
class ForwardContext:
    """Cached unperturbed forward solve shared across a measurement sweep,
    with the factorization of its operator (l > 0) that preconditions both
    that solve and the sweep's perturbed solves, and what the linearized
    measurement reads of them, computed on first use.

    An M_eta sweep solves the perturbed systems of one source as stacks of
    at most four on that factorization, each system warm-started from this
    solution; with l = 0 there is no factorization, and each perturbed
    system is its own solve."""

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

    @cached_property
    def phi_and_gradient(self):
        """phi and the two components of its gradient as one (3, n, n)
        stack, gathered together by ``measure_Mtilde``."""
        grad_phi = gradient(self.solution.phi)
        return np.stack([self.solution.phi.values, grad_phi.vx, grad_phi.vy])

    @cached_property
    def has_contrast(self):
        """Whether the sampled coefficient differs from the background a0
        anywhere; the linearized measurement is zero if not."""
        return bool((self.a.values - self.phantom.a0).any())


def make_context(phantom: Phantom, grid: Grid, g=1.0, l=0.1) -> ForwardContext:
    trace = g if isinstance(g, BoundaryTrace) else BoundaryTrace.constant(grid, g)
    return ForwardContext(phantom, grid, trace, l)


def _support_box(phantom: Phantom, grid: Grid, grow):
    """Node index ranges ``(i0, i1, j0, j1)`` of the box that holds every
    inclusion's bounding circle grown by ``grow``; empty without
    inclusions."""
    if not phantom.inclusions:
        return 0, 0, 0, 0
    lo = [min(inc.center[k] - inc.bounding_radius()
              for inc in phantom.inclusions) - grow for k in (0, 1)]
    hi = [max(inc.center[k] + inc.bounding_radius()
              for inc in phantom.inclusions) + grow for k in (0, 1)]
    c = grid.coords()
    (i0, j0), (i1, j1) = (np.searchsorted(c, lo, side="left"),
                          np.searchsorted(c, hi, side="right"))
    return int(i0), int(i1), int(j0), int(j1)


def _displaced_shell(ctx: ForwardContext, config: AcousticConfig, y, r):
    """The nodes where a_u = a(x + u(x)) can differ from ``ctx.a``, and a_u
    on them, as ``(i, j, values)``.

    They are the shell nodes inside the box of the inclusions' bounding
    circles grown by amp (plus 1e-9 for rounding). The cull is exact: |u| <=
    amp, so off that box x and x + u (clipped to the unit square) both lie
    outside every bounding circle, where Phantom.eval returns exactly a0.
    """
    _check_radius(r)
    amp = config.eta * (config.r0 / r)
    box = _support_box(ctx.phantom, ctx.grid, amp + _NUDGE)
    i, j, ux, uy = _shell_displacement(config, y, r, ctx.grid, box)
    c = ctx.grid.coords()
    return i, j, ctx.phantom.eval(np.clip(c[i] + ux, 0.0, 1.0),
                                  np.clip(c[j] + uy, 0.0, 1.0))


def _moves(ctx: ForwardContext, shell):
    """Whether the displaced shell ``(i, j, values)`` changes ``ctx.a``."""
    i, j, values = shell
    return not np.array_equal(values, ctx.a.values[i, j])


def _coefficient_stack(ctx: ForwardContext, shells):
    """The displaced coefficients of the shells ``(i, j, values)`` as one
    (k, n, n) stack; every other node keeps its value in ``ctx.a``."""
    a = np.repeat(ctx.a.values[None], len(shells), axis=0)
    for s, (i, j, values) in enumerate(shells):
        a[s, i, j] = values
    return a


def displaced_coefficient(ctx: ForwardContext, config: AcousticConfig,
                          y, r) -> ScalarField:
    """The displaced coefficient a_u = a(x + u(x)) on the field grid.

    Phantom.eval runs only on the shell nodes near the inclusions (see
    ``_displaced_shell``); every other node keeps its value in ``ctx.a``.
    The result is bit-identical to ``phantom.sample_displaced(grid,
    displacement_u(...))`` when ``ctx.a`` is the sampled phantom, as
    ``make_context`` builds it.
    """
    shell = _displaced_shell(ctx, config, y, r)
    return ScalarField(ctx.grid, _coefficient_stack(ctx, [shell])[0])


# systems per stacked perturbed solve: at n=129 a multi-column LU solve
# costs about 1.44, 1.15 and 1.07 ms per column at 1, 2 and 4 columns on one
# core and gains little beyond; every system adds the CG work arrays to the
# peak memory
_MAX_STACK = 4


def _displaced_phis(ctx: ForwardContext, a):
    """phi_u in each displaced medium of a (k, n, n) coefficient stack.

    The k systems are one stacked CG preconditioned by the context's
    factorization, each warm-started from phi. With l = 0 there is no
    factorization to stack on, and each medium is its own ``solve_T``. A
    SolverError of a stacked solve names in ``system`` the index of the
    system whose final residual is the largest.
    """
    if ctx.l == 0:
        return np.stack([
            solve_T(RobinProblem(ScalarField(ctx.grid, v), ctx.g, ctx.l))
            .phi.values for v in a])
    op = RobinOperator(ctx.grid, a, ctx.l)
    # every system has the same right-hand side and start: read-only views
    b = np.broadcast_to(op.boundary_rhs(ctx.g), a.shape)
    x0 = np.broadcast_to(ctx.solution.phi.values, a.shape)
    try:
        x, _, _ = op.solve(b, x0=x0, precond_with=ctx.operator)
    except SolverError as exc:
        miss = b - op.apply(exc.iterate)
        exc.system = int(np.argmax(stack_dot(miss, miss)))
        raise
    return x


def perturbed_solution(ctx: ForwardContext, config: AcousticConfig, y, r):
    """Coefficient a_u and energy density phi_u in the displaced medium, as
    two ScalarFields; a medium that equals ``ctx.a`` reuses its solution."""
    shell = _displaced_shell(ctx, config, y, r)
    if not _moves(ctx, shell):
        return ctx.a, ctx.solution.phi
    a = _coefficient_stack(ctx, [shell])
    return (ScalarField(ctx.grid, a[0]),
            ScalarField(ctx.grid, _displaced_phis(ctx, a)[0]))


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
    no inclusion, so the lattice is evaluated and stored only for the rays
    that ``rays_meeting_support`` keeps, one row per kept ray, and the
    per-ray integral is exactly zero on the others. The cull is exact: the
    radial inverse fixes both ends of the shell, so the displaced radius
    rho* stays in [r - eta, r + eta]; Phantom.eval returns exactly a0 off
    every inclusion, so a - a0 and a_u - a are zero on the dropped rays; and
    a rim-crossing root inside the shell lies on a rim, so every ray that
    carries a jump correction is kept.
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

    def shell_crossings(self, ct, st):
        """The rim crossings strictly inside the shell, over every root
        branch: the ray index and the radius of each."""
        rays = [np.zeros(0, dtype=np.intp)]
        radii = [np.zeros(0)]
        for root in self.crossing_roots(ct, st):
            inside = (root > self.rho[0]) & (root < self.rho[-1])
            rays.append(np.nonzero(inside)[0])
            radii.append(root[inside])
        return np.concatenate(rays), np.concatenate(radii)

    def one_sided(self, radii, ct, st):
        """Phantom values just below and just above each radius on its ray,
        as a (2, m) array."""
        side = radii + np.array([[-_NUDGE], [_NUDGE]])
        return self.ctx.phantom.eval(self.y[0] + side * ct,
                                     self.y[1] + side * st)

    def radial_integrals(self, lattice_vals, jumps):
        """Per-ray composite trapezoid in rho with exact jump corrections.

        ``lattice_vals`` has one row per ray and one column per radius.
        ``jumps`` lists (rays, radii, below, above) array tuples: rays index
        the rows, and below and above are the one-sided limits of the full
        integrand (radial Jacobian included) at each jump radius on each ray.
        The jumps of one ray in one radial cell form a group; the cell's
        trapezoid is replaced by the trapezoids of the pieces between its
        nodes and the group's jumps.
        """
        w = np.full(self.rho.size, self.drho)
        w[0] *= 0.5
        w[-1] *= 0.5
        # a sum along each contiguous row does not depend on how many rows
        # there are, so culling rays changes no value
        per_ray = np.sum(lattice_vals * w, axis=1)
        if not jumps:
            return per_ray
        rays, radii, below, above = (np.concatenate(part)
                                     for part in zip(*jumps))
        cells = np.clip(((radii - self.rho[0]) / self.drho).astype(int),
                        0, self.rho.size - 2)
        order = np.lexsort((radii, cells, rays))
        rays, cells, radii, below, above = (
            v[order] for v in (rays, cells, radii, below, above))
        first = np.ones(rays.size, dtype=bool)
        first[1:] = (rays[1:] != rays[:-1]) | (cells[1:] != cells[:-1])
        # a group ends where the next one starts
        last = np.roll(first, -1)
        group = np.cumsum(first) - 1
        g_lo = lattice_vals[rays, cells]
        g_hi = lattice_vals[rays, cells + 1]
        # the piece that ends at a jump starts at the group's previous jump,
        # or at the cell's lower node; the last jump also starts a piece
        # that ends at the upper node
        left = np.where(first, self.rho[cells], np.roll(radii, 1))
        left_val = np.where(first, g_lo, np.roll(above, 1))
        pieces = 0.5 * (radii - left) * (left_val + below)
        tails = 0.5 * (self.rho[cells + 1] - radii) * (above + g_hi)
        exact = np.bincount(np.concatenate([group, group[last]]),
                            weights=np.concatenate([pieces, tails[last]]))
        plain = 0.5 * self.drho * (g_lo + g_hi)
        per_ray += np.bincount(rays[first], weights=exact - plain[first],
                               minlength=per_ray.size)
        return per_ray

    def adaptive_theta_nodes(self):
        """Base angular nodes plus refined nodes over the rim-sweep bands.

        Returns ``(angles, ct, st, near)``: the sorted angles covering one
        period, their cosines and sines, and the ascending indices of the
        rays that can come near an inclusion, namely the base rays that
        reach an inclusion's bounding circle within r +- 1.5 eta and every
        refined ray. Refinement of a base interval is driven by how far the
        crossing radii move across it relative to eta.

        The rim quadratic is solved only on those base rays and one
        neighbour on each side. That changes no angle: a root in the band
        lies on a rim, inside the bounding circle, so its ray is near, and
        the sweep of an interval reads the roots at its two ends only.
        """
        theta = self.base_angles()
        step = 2 * np.pi / self.ntheta
        ct, st = np.cos(theta), np.sin(theta)
        margin = 1.5 * self.eta
        near = rays_meeting_support(self.ctx.phantom, self.y, self.r - margin,
                                    self.r + margin, ct, st)
        if not near.size:
            return theta, ct, st, near
        solved = np.unique(np.concatenate([near - 1, near, near + 1])
                           % self.ntheta)
        subdiv = np.ones(self.ntheta, dtype=int)
        for part in self.crossing_roots(ct[solved], st[solved]):
            # a missing root is NaN, which is never in the band
            root = np.full(self.ntheta, np.nan)
            root[solved] = part
            in_band = np.abs(root - self.r) < margin
            active = np.nonzero(in_band | np.roll(in_band, -1))[0]
            if not active.size:
                continue
            sweep = np.abs(root[(active + 1) % self.ntheta] - root[active])
            # intervals where a root appears or disappears get full depth
            fine = np.where(np.isfinite(sweep),
                            np.clip(np.ceil(sweep / (self.eta / 8.0)), 1, 64),
                            64).astype(int)
            subdiv[active] = np.maximum(subdiv[active], fine)
        if np.all(subdiv == 1):
            return theta, ct, st, near
        nodes = [theta]
        for k in np.nonzero(subdiv > 1)[0]:
            s = subdiv[k]
            nodes.append(theta[k] + step * np.arange(1, s) / s)
        angles = np.concatenate(nodes)
        refined = angles[self.ntheta:]
        order = np.argsort(angles, kind="stable")
        # before sorting, the refined rays follow the base rays
        is_near = np.arange(angles.size) >= self.ntheta
        is_near[near] = True
        return (angles[order],
                np.concatenate([ct, np.cos(refined)])[order],
                np.concatenate([st, np.sin(refined)])[order],
                np.nonzero(is_near[order])[0])

    def theta_total(self, angles, per_ray):
        """Periodic trapezoid over a sorted, possibly non-uniform angle set."""
        gaps = np.diff(angles, append=angles[0] + 2 * np.pi)
        return float(np.sum(0.5 * gaps * (per_ray + np.roll(per_ray, -1))))

    def normalized_total(self, per_ray_integrals):
        """(1/eta^2) times the shell integral, given the per-ray radial
        integrals as a function of the ray direction cosines and sines.

        ``per_ray_integrals`` is called on the rays that
        ``rays_meeting_support`` keeps; the integral is zero on the others.
        """
        angles, ct, st, near = self.adaptive_theta_nodes()
        # a ray that is not near misses the narrower shell segment too
        keep = near[self.rays_meeting_support(ct[near], st[near])]
        per_ray = np.zeros(angles.size)
        per_ray[keep] = per_ray_integrals(ct[keep], st[keep])
        return self.theta_total(angles, per_ray) / self.eta**2


def measure_M_eta(ctx: ForwardContext, config: AcousticConfig, y, r,
                  quadrature="polar") -> float:
    """Normalized internal cross-term (1/eta^2) int (a_u - a) phi phi_u.

    The optical solves live on the field grid, but the integral is taken in
    polar coordinates around the source by default (see ``_polar_M_eta``).
    ``quadrature="grid"`` selects plain trapezoid on the field grid instead
    (needs h well below eta*r0/r to see the jump slivers); the two act as
    independent cross-checks.
    """
    if quadrature not in ("polar", "grid"):
        raise ValueError(f"unknown quadrature {quadrature!r}")
    if _ShellQuadrature.misses_support(ctx.phantom, config, y, r):
        return 0.0
    a_u, phi_u = perturbed_solution(ctx, config, y, r)
    if quadrature == "polar":
        return _polar_M_eta(ctx, config, y, r, phi_u.values)
    diff = a_u.values - ctx.a.values
    if not diff.any():
        return 0.0
    integrand = ScalarField(ctx.grid,
                            diff * ctx.solution.phi.values * phi_u.values)
    return integrate(integrand) / config.eta**2


def _polar_M_eta(ctx: ForwardContext, config: AcousticConfig, y, r,
                 phi_u) -> float:
    """M_eta at (y, r) by the polar shell quadrature, given the values of
    phi_u, the energy density in the displaced medium.

    The coefficient change is evaluated symbolically, the displaced radius
    comes from the radial root solve, and rim-crossing jumps are integrated
    exactly, so the thin support of a_u - a is resolved at any eta.

    The polar lattice is computed only on the rays whose shell segment comes
    near an inclusion, and the per-ray integral is zero on the rest. This
    drops no nonzero term: rho* = radial_invert(rho) stays in
    [r - eta, r + eta] because the position map fixes both ends of the
    shell; Phantom.eval returns exactly a0 off every inclusion, so a_u - a
    is zero on a dropped ray; and a rim-crossing root inside the shell lies
    on the rim, so its ray is kept.
    """
    eta, r0 = config.eta, config.r0
    amp = eta * (r0 / r)
    phantom = ctx.phantom
    # the position map moves points by at most amp < eta and fixes the shell
    # boundary, so supp(a_u - a) lies strictly inside (r - eta, r + eta)
    quad = _ShellQuadrature(ctx, config, y, r)
    rho = quad.rho
    rho_star = kernels.radial_invert(rho, r, amp, eta)
    # phi and phi_u are read at the same points
    phis = np.stack([ctx.solution.phi.values, phi_u])

    def smooth_at(radii, ct, st):
        px = quad.y[0] + radii * ct
        py = quad.y[1] + radii * st
        phi_b, phi_u = kernels.bilinear_gather(phis, px, py, quad.h)
        return phi_b * phi_u * radii

    def per_ray_integrals(ct, st):
        px = quad.y[0] + np.outer(ct, rho)
        py = quad.y[1] + np.outer(st, rho)
        qx = quad.y[0] + np.outer(ct, rho_star)
        qy = quad.y[1] + np.outer(st, rho_star)
        # off the unit square the gather reads zero, so the lattice is zero
        dcoef = phantom.eval(qx, qy) - phantom.eval(px, py)
        phi_b, phi_u = kernels.bilinear_gather(phis, px, py, quad.h)
        lattice = dcoef * phi_b * phi_u * rho

        rays, rc = quad.shell_crossings(ct, st)
        # where the local displacement is below resolution the direct and
        # displaced jumps annihilate; correcting only one of them would
        # fabricate a spurious half jump
        f_rc = amp * kernels.bump((r - rc) / eta)
        live = f_rc > 1e-12
        rays, rc, f_rc = rays[live], rc[live], f_rc[live]
        ctv, stv = ct[rays], st[rays]
        a_in, a_out = quad.one_sided(rc, ctv, stv)
        # direct jump: the undisplaced coefficient jumps at rc; the
        # displaced point sits strictly below rc, so keep its coefficient
        # evaluation on that side
        rstar = kernels.radial_invert(rc, r, amp, eta)
        rstar = np.minimum(rstar, rc - _NUDGE)
        adisp = phantom.eval(quad.y[0] + rstar * ctv,
                             quad.y[1] + rstar * stv)
        # displaced jump: the displaced radius crosses rc at the image of rc
        # under the position map
        img = rc + f_rc
        move = (img > rho[0]) & (img < rho[-1])
        rr = img[move]
        ctm, stm = ctv[move], stv[move]
        base = phantom.eval(quad.y[0] + (rr + _NUDGE) * ctm,
                            quad.y[1] + (rr + _NUDGE) * stm)
        # the smooth factor at both kinds of jump, in one gather
        sm = smooth_at(np.concatenate([rc, rr]), np.concatenate([ctv, ctm]),
                       np.concatenate([stv, stm]))
        sm, smm = sm[:rc.size], sm[rc.size:]
        jumps = [(rays, rc, (adisp - a_in) * sm, (adisp - a_out) * sm),
                 (rays[move], rr, (a_in[move] - base) * smm,
                  (a_out[move] - base) * smm)]
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
    if not ctx.has_contrast:
        return 0.0
    eta, r0 = config.eta, config.r0
    quad = _ShellQuadrature(ctx, config, y, r)
    rho = quad.rho
    phantom = ctx.phantom
    # phi and its gradient are read at the same points
    phi_fields = ctx.phi_and_gradient

    def smooth_factor(radii_grid, ct, st):
        """[d/drho(phi^2) f + phi^2 (f\' + f/rho)] * rho at polar points."""
        px = quad.y[0] + radii_grid * ct
        py = quad.y[1] + radii_grid * st
        phi_at, dphix, dphiy = kernels.bilinear_gather(phi_fields, px, py,
                                                       quad.h)
        dphi2 = 2.0 * phi_at * (dphix * ct + dphiy * st)
        s = (r - radii_grid) / eta
        fval = eta * (r0 / r) * kernels.bump(s)
        fprime = -(r0 / r) * kernels.bump_prime(s)
        return (
            dphi2 * fval + phi_at**2 * (fprime + fval / radii_grid)
        ) * radii_grid

    def per_ray_integrals(ct, st):
        px = quad.y[0] + np.outer(ct, rho)
        py = quad.y[1] + np.outer(st, rho)
        qvals = phantom.eval(px, py) - phantom.a0
        lattice = qvals * smooth_factor(rho, ct[:, None], st[:, None])
        rays, rc = quad.shell_crossings(ct, st)
        ctv, stv = ct[rays], st[rays]
        q_in, q_out = quad.one_sided(rc, ctv, stv) - phantom.a0
        sm = smooth_factor(rc, ctv, stv)
        return quad.radial_integrals(lattice, [(rays, rc, q_in * sm,
                                                q_out * sm)])

    return quad.normalized_total(per_ray_integrals)


def measure_cross_correlation(ctx: ForwardContext, config: AcousticConfig,
                              y, r, f: BoundaryTrace, g: BoundaryTrace) -> float:
    """Boundary cross-correlation (1/eta^2) int_bdry (f flux_u^g - g flux^f).

    With f = g this reproduces the internal form of measure_M_eta up to the
    discrete Green-identity mismatch. Like the other measurements it is zero
    for r <= r0, the dead zone of the sweep.
    """
    if np.min(f.values) < 0 or np.min(g.values) < 0:
        raise ValueError("boundary illuminations must be nonnegative")
    if r <= config.r0:
        return 0.0
    grid = ctx.grid
    sol_f = solve_T(RobinProblem(ctx.a, f, ctx.l), precond_with=ctx.operator)
    a_u = displaced_coefficient(ctx, config, y, r)
    sol_g_u = solve_T(RobinProblem(a_u, g, ctx.l), precond_with=ctx.operator)
    boundary = f.values * sol_g_u.flux.values - g.values * sol_f.flux.values
    return grid.h * float(np.sum(boundary)) / config.eta**2


@contextmanager
def _sinogram_cells(m, *cells):
    """Re-raise a failure at source ``m`` as the failure of one of the radius
    indices ``cells``: the system a stacked solve names, else the first."""
    try:
        yield
    except Exception as exc:
        q = cells[getattr(exc, "system", 0)]
        raise RuntimeError(
            f"sinogram cell (source {m}, radius index {q}) failed: {exc}"
        ) from exc


def _M_eta_row(ctx: ForwardContext, config: AcousticConfig, m, y, radii,
               out):
    """Measure M_eta at source ``m`` (at ``y``) over ``radii`` into ``out``.

    The cells whose displaced medium differs from ``ctx.a`` are solved in
    near-equal stacks of at most ``_MAX_STACK`` systems, or one at a time
    when l = 0; the others reuse ``ctx.solution``. The values equal those of
    ``measure_M_eta`` cell by cell up to the rounding of the stacked CG.
    """
    cells, shells = [], []
    for q, r in enumerate(radii):
        with _sinogram_cells(m, q):
            if _ShellQuadrature.misses_support(ctx.phantom, config, y, r):
                continue
            shell = _displaced_shell(ctx, config, y, r)
            if _moves(ctx, shell):
                cells.append(q)
                shells.append(shell)
            else:
                out[q] = _polar_M_eta(ctx, config, y, r,
                                      ctx.solution.phi.values)
    if not cells:
        return
    size = _MAX_STACK if ctx.l > 0 else 1
    for part in np.array_split(np.arange(len(cells)),
                               math.ceil(len(cells) / size)):
        stack = [cells[s] for s in part]
        with _sinogram_cells(m, *stack):
            phis = _displaced_phis(
                ctx, _coefficient_stack(ctx, [shells[s] for s in part]))
        for q, phi_u in zip(stack, phis):
            with _sinogram_cells(m, q):
                out[q] = _polar_M_eta(ctx, config, y, radii[q], phi_u)


def sample_sinogram(ctx: ForwardContext, config: AcousticConfig, ny: int,
                    nr: int, which: str = "M_eta",
                    progress=None) -> Sinogram:
    """Dense cylinder sweep; rows are sources in angle order, columns radii.

    Cells are independent and evaluated in a fixed order, so outputs are
    deterministic. An M_eta sweep solves each source's perturbed systems as
    stacks on the context's factorization (see ``_M_eta_row``); an Mtilde
    sweep solves nothing.
    """
    if ny < 8 or nr < 16:
        raise ValueError("need ny >= 8 and nr >= 16")
    if which not in ("M_eta", "Mtilde"):
        raise ValueError(f"unknown sinogram kind {which!r}")
    problems = config.resolution_problems(ctx.grid)
    if problems:
        warnings.warn("; ".join(problems), RuntimeWarning, stacklevel=2)
    sources = config.sources(ny)
    radii = config.radii(nr)
    values = np.zeros((ny, nr))
    for m in range(ny):
        y = sources[m]
        if which == "M_eta":
            _M_eta_row(ctx, config, m, y, radii, values[m])
        else:
            for q in range(nr):
                with _sinogram_cells(m, q):
                    values[m, q] = measure_Mtilde(ctx, config, y, radii[q])
        if progress is not None:
            progress(m + 1, ny)
    return Sinogram(config, ny, nr, values)
