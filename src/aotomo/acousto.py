"""Acoustic perturbation and measurement synthesis.

A short spherical wave from a source y on the circle S_mu displaces each
point radially by the profile v; the induced coefficient change produces the
cross-correlation data M(y, r) collected over the measurement cylinder
(source angle) x (wave radius). The wavefront profile w is the standard
smooth bump with unit sup-norm.

A sweep runs one radius at a time. The cells of one radius share everything
that depends on r alone, and ``_ShellQuadrature`` measures several of them
in one vectorised pass of the polar shell quadrature; a single measurement
is a pass of one cell.
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
    with the factorization of its operator that preconditions both that
    solve and the sweep's perturbed solves, and what the linearized
    measurement reads of them, computed on first use.

    An M_eta sweep solves the perturbed systems of one radius as stacks of
    at most four on that factorization, each system warm-started from this
    solution, and measures each stack in one quadrature pass that reads phi
    from this solution."""

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
        if self.operator is None:
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
    factorization, each warm-started from phi. A SolverError of a stacked
    solve names in ``system`` the index of the system whose final residual
    is the largest.
    """
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

    ``y`` is a source, or a pair of arrays of source coordinates that
    broadcast against ``ct``, one source per ray. Returns two arrays of radii
    aligned with the rays, NaN where a ray misses the rim.
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


def _meets_support(phantom, y, lo, hi, ct, st):
    """Mask of the rays y + rho (ct, st), rho in [lo, hi], that come within
    an inclusion's bounding radius (plus 1e-9 for rounding) of its centre.

    ``y`` is a source, or a pair of arrays of source coordinates that
    broadcast against ``ct``; the mask has the broadcast shape.
    """
    hit = np.zeros(np.broadcast_shapes(np.shape(y[0]), np.shape(ct)),
                   dtype=bool)
    for inc in phantom.inclusions:
        vx = inc.center[0] - y[0]
        vy = inc.center[1] - y[1]
        t = np.clip(vx * ct + vy * st, lo, hi)
        reach = inc.bounding_radius() + _NUDGE
        hit |= np.hypot(vx - t * ct, vy - t * st) <= reach
    return hit


def rays_meeting_support(phantom, y, lo, hi, ct, st):
    """Indices of the rays y + rho (ct, st), rho in [lo, hi], that come within
    an inclusion's bounding radius (plus 1e-9 for rounding) of its centre.

    Phantom.eval returns exactly a0 at every point of the other rays.
    """
    return np.nonzero(_meets_support(phantom, y, lo, hi, ct, st))[0]


# lattice points per piece of a quadrature pass: a pass evaluates its lattice
# rows in pieces of at most this many points, with about 150 bytes of
# temporaries per point. At 32768 the sweep's peak traced memory rose 2.4 MB
# (n=65) and 1.9 MB (n=129) above the per-cell quadrature's; at 16384 it
# matches it. A piece costs about 0.4 ms of fixed work, so the halving adds
# about 15 ms to an n=65 sweep
_PASS_POINTS = 16384


@dataclass
class _ShellNodes:
    """The angular nodes of the cells of one pass, as flat arrays.

    Cell c (source ``ys[c]``) owns the entries ``start[c]:start[c + 1]``,
    sorted by angle over one period. ``near`` holds the flat indices of the
    rays that can come near an inclusion, and ``keep`` those of the rays the
    lattice is evaluated on.
    """

    ys: np.ndarray
    angles: np.ndarray
    ct: np.ndarray
    st: np.ndarray
    cell: np.ndarray
    start: np.ndarray
    near: np.ndarray
    keep: np.ndarray

    def theta_totals(self, per_ray):
        """Periodic trapezoid over each cell's sorted, possibly non-uniform
        angle set, given values on every ray."""
        first, last = self.start[:-1], self.start[1:] - 1
        ahead = np.arange(1, self.angles.size + 1)
        ahead[last] = first
        gaps = self.angles[ahead]
        gaps[last] += 2 * np.pi
        gaps -= self.angles
        terms = 0.5 * gaps * (per_ray + per_ray[ahead])
        return np.array([np.sum(terms[a:b])
                         for a, b in zip(first, self.start[1:])])

    def kept_rays(self):
        """The cell index, the source coordinates and the direction cosines
        and sines of each kept ray."""
        cell = self.cell[self.keep]
        return (cell, self.ys[cell, 0], self.ys[cell, 1], self.ct[self.keep],
                self.st[self.keep])


class _ShellQuadrature:
    """Polar quadrature over the wavefront shells of one radius r, for
    sources anywhere, with exact jump handling.

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

    The object holds what depends on r alone: the radial lattice rho and its
    displaced radii rho*, the base angles and the trapezoid weights.
    ``measure_M_eta`` and ``measure_Mtilde`` measure several sources' cells
    in one pass. The pass's lattice rows are the kept rays of all its cells,
    evaluated in pieces of at most ``_PASS_POINTS`` points. Every value is
    an elementwise operation, a row-wise sum or a root solved with the rest
    of its cell's roots, so a cell's value does not depend on the cells that
    share its pass, nor on the size of the pieces.
    """

    def __init__(self, ctx, config, r):
        self.ctx = ctx
        self.phantom = ctx.phantom
        self.config = config
        self.r = float(r)
        self.eta = config.eta
        self.amp = config.eta * (config.r0 / r)
        self.h = ctx.grid.h
        self.rho = np.linspace(r - self.eta, r + self.eta, 96)
        self.drho = self.rho[1] - self.rho[0]
        self.weights = np.full(self.rho.size, self.drho)
        self.weights[[0, -1]] *= 0.5
        angular_step = 0.5 * self.h / r
        # multiple of 4 so the angular lattice respects quarter turns
        self.ntheta = 4 * max(16, int(np.ceil(np.pi / (2 * angular_step))))
        self.theta = np.linspace(0.0, 2 * np.pi, self.ntheta, endpoint=False)
        self.ct, self.st = np.cos(self.theta), np.sin(self.theta)

    @cached_property
    def rho_star(self):
        """The displaced radius of each lattice radius."""
        return kernels.radial_invert(self.rho, self.r, self.amp, self.eta)

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

    def near_rays(self, ys):
        """(k, ntheta) mask of the base rays from the sources ``ys`` (k, 2)
        that reach an inclusion's bounding circle within r +- 1.5 eta."""
        margin = 1.5 * self.eta
        return _meets_support(self.phantom, (ys[:, :1], ys[:, 1:]),
                              self.r - margin, self.r + margin,
                              self.ct, self.st)

    def rays_meeting_support(self, y, ct, st):
        """Mask of the rays whose shell segment can meet an inclusion; ``y``
        is a pair of arrays of source coordinates, one source per ray."""
        return _meets_support(self.phantom, y, self.rho[0], self.rho[-1],
                              ct, st)

    def crossing_roots(self, y, ct, st):
        """All rim-crossing radii per ray, one array per root branch."""
        roots = []
        for inc in self.phantom.inclusions:
            roots.extend(_ray_rim_crossings(inc, y, ct, st))
        return roots

    def shell_crossings(self, y, ct, st):
        """The rim crossings strictly inside the shell, over every root
        branch: the ray index and the radius of each."""
        rays = [np.zeros(0, dtype=np.intp)]
        radii = [np.zeros(0)]
        for root in self.crossing_roots(y, ct, st):
            inside = (root > self.rho[0]) & (root < self.rho[-1])
            rays.append(np.nonzero(inside)[0])
            radii.append(root[inside])
        return np.concatenate(rays), np.concatenate(radii)

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
        # a sum along each contiguous row does not depend on how many rows
        # there are, so neither the cull nor the pass changes a value
        per_ray = np.sum(lattice_vals * self.weights, axis=1)
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

    def adaptive_theta_nodes(self, ys):
        """Base angular nodes plus refined nodes over the rim-sweep bands,
        for the cells at the sources ``ys`` (k, 2), as ``_ShellNodes``.

        The near rays are the base rays that reach an inclusion's bounding
        circle within r +- 1.5 eta, and every refined ray; the kept rays are
        the near rays that ``rays_meeting_support`` keeps (a ray that is not
        near misses the narrower shell segment too). Refinement of a base
        interval is driven by how far the crossing radii move across it
        relative to eta.

        The rim quadratic is solved only on the near base rays and one
        neighbour on each side. That changes no angle: a root in the band
        lies on a rim, inside the bounding circle, so its ray is near, and
        the sweep of an interval reads the roots at its two ends only.
        """
        ys = np.asarray(ys, dtype=float).reshape(-1, 2)
        k, nt = len(ys), self.ntheta
        margin = 1.5 * self.eta
        base_near = self.near_rays(ys)
        solved = (base_near | np.roll(base_near, 1, axis=1)
                  | np.roll(base_near, -1, axis=1))
        sc, sj = np.nonzero(solved)
        subdiv = np.ones((k, nt), dtype=int)
        for part in self.crossing_roots((ys[sc, 0], ys[sc, 1]), self.ct[sj],
                                        self.st[sj]):
            # a missing root is NaN, which is never in the band
            root = np.full((k, nt), np.nan)
            root[sc, sj] = part
            in_band = np.abs(root - self.r) < margin
            ac, aj = np.nonzero(in_band | np.roll(in_band, -1, axis=1))
            sweep = np.abs(root[ac, (aj + 1) % nt] - root[ac, aj])
            # intervals where a root appears or disappears get full depth
            fine = np.where(np.isfinite(sweep),
                            np.clip(np.ceil(sweep / (self.eta / 8.0)), 1, 64),
                            64).astype(int)
            subdiv[ac, aj] = np.maximum(subdiv[ac, aj], fine)
        # base node j of a cell is followed by the subdiv - 1 refined nodes
        # theta_j + step i / subdiv, i = 1, ..., subdiv - 1, which lie
        # strictly between theta_j and the next base node: that is the
        # sorted order
        size = subdiv.ravel()
        owner = np.repeat(np.arange(size.size), size)
        i = np.arange(owner.size) - (np.cumsum(size) - size)[owner]
        j = owner % nt
        refined = np.nonzero(i)[0]
        step = 2 * np.pi / nt
        angles = self.theta[j]
        angles[refined] += step * i[refined] / size[owner[refined]]
        ct, st = self.ct[j], self.st[j]
        ct[refined] = np.cos(angles[refined])
        st[refined] = np.sin(angles[refined])
        cell = owner // nt
        near = np.nonzero((i > 0) | base_near.ravel()[owner])[0]
        y = ys[cell[near]]
        hit = self.rays_meeting_support((y[:, 0], y[:, 1]), ct[near],
                                        st[near])
        start = np.concatenate([[0], np.cumsum(subdiv.sum(axis=1))])
        return _ShellNodes(ys, angles, ct, st, cell, start, near, near[hit])

    def integrate(self, nodes, jumps, lattice):
        """(1/eta^2) times the shell integral of each cell of ``nodes``.

        The integrand is zero off the kept rays. ``jumps`` are the jump
        tuples of ``radial_integrals`` on the kept rays, counted in the
        order of ``nodes.keep``. ``lattice(cell, ct, st)`` gives the
        integrand (radial Jacobian included) on the radial lattice of the
        rays with those cell indices and direction cosines and sines; it is
        called on at most ``_PASS_POINTS`` lattice points at a time, with
        the jumps of those rays.
        """
        rays, radii, below, above = (np.concatenate(part)
                                     for part in zip(*jumps))
        order = np.argsort(rays, kind="stable")
        rays, radii, below, above = (v[order]
                                     for v in (rays, radii, below, above))
        per_ray = np.zeros(nodes.angles.size)
        step = max(1, _PASS_POINTS // self.rho.size)
        for s in range(0, nodes.keep.size, step):
            part = nodes.keep[s:s + step]
            a, b = np.searchsorted(rays, [s, s + step])
            per_ray[part] = self.radial_integrals(
                lattice(nodes.cell[part], nodes.ct[part], nodes.st[part]),
                [(rays[a:b] - s, radii[a:b], below[a:b], above[a:b])])
        return nodes.theta_totals(per_ray) / self.eta**2

    def measure_M_eta(self, ys, phi_u=None):
        """M_eta of the cells at the sources ``ys`` (k, 2), one pass.

        ``phi_u`` is the (k, n, n) stack of the energy densities in the
        cells' displaced media; None measures cells whose medium does not
        move, where phi_u is phi.

        The coefficient change is evaluated symbolically, the displaced
        radius comes from the radial root solve, and rim-crossing jumps are
        integrated exactly, so the thin support of a_u - a is resolved at any
        eta.
        """
        ys = np.asarray(ys, dtype=float).reshape(-1, 2)
        phantom, r, eta, amp = self.phantom, self.r, self.eta, self.amp
        rho, rho_star = self.rho, self.rho_star
        phi = self.ctx.solution.phi.values[None]
        # the stack each point reads phi (field 0) and its cell's phi_u from
        if phi_u is None:
            phis, own = phi, np.zeros(len(ys), dtype=np.intp)
        else:
            phis, own = np.concatenate([phi, phi_u]), np.arange(1, len(ys) + 1)

        def gather(cell, px, py):
            """phi and phi_u at points of the cells ``cell``, which
            broadcast against the points."""
            field = own[cell]
            return kernels.bilinear_gather(
                phis, px, py, self.h,
                field=np.stack([np.zeros_like(field), field]))

        nodes = self.adaptive_theta_nodes(ys)
        cell, yx, yy, ct, st = nodes.kept_rays()
        rays, rc = self.shell_crossings((yx, yy), ct, st)
        # where the local displacement is below resolution the direct and
        # displaced jumps annihilate; correcting only one of them would
        # fabricate a spurious half jump
        f_rc = amp * kernels.bump((r - rc) / eta)
        live = f_rc > 1e-12
        rays, rc, f_rc = rays[live], rc[live], f_rc[live]
        # direct jump: the undisplaced coefficient jumps at rc; the displaced
        # point sits strictly below rc, so keep its coefficient evaluation on
        # that side. A batch of roots shares its Newton steps, so each cell's
        # crossings are solved as one batch, whatever cells share the pass
        rstar = np.empty_like(rc)
        for c in np.unique(cell[rays]):
            mine = cell[rays] == c
            rstar[mine] = kernels.radial_invert(rc[mine], r, amp, eta)
        rstar = np.minimum(rstar, rc - _NUDGE)
        # displaced jump: the displaced radius crosses rc at the image of rc
        # under the position map
        img = rc + f_rc
        move = (img > rho[0]) & (img < rho[-1])
        moved, rr = rays[move], img[move]
        # the coefficient just below and above rc, at rho*(rc), and just
        # above rr, in one evaluation
        on = np.concatenate([rays, rays, rays, moved])
        at = np.concatenate([rc - _NUDGE, rc + _NUDGE, rstar, rr + _NUDGE])
        a_in, a_out, adisp, base = np.split(
            phantom.eval(yx[on] + at * ct[on], yy[on] + at * st[on]),
            np.cumsum([rays.size] * 3))
        # the smooth factor at both kinds of jump, in one gather
        on = np.concatenate([rays, moved])
        at = np.concatenate([rc, rr])
        phi_b, phi_v = gather(cell[on], yx[on] + at * ct[on],
                              yy[on] + at * st[on])
        sm = phi_b * phi_v * at
        sm, smm = sm[:rc.size], sm[rc.size:]
        jumps = [(rays, rc, (adisp - a_in) * sm, (adisp - a_out) * sm),
                 (moved, rr, (a_in[move] - base) * smm,
                  (a_out[move] - base) * smm)]

        def lattice(cell, ct, st):
            yx, yy = ys[cell, :1], ys[cell, 1:]
            px = yx + np.outer(ct, rho)
            py = yy + np.outer(st, rho)
            # the coefficient at the displaced radii rho* minus at rho; off
            # the unit square the gather reads zero, so the lattice is zero
            dcoef = phantom.eval(yx + np.outer(ct, rho_star),
                                 yy + np.outer(st, rho_star))
            dcoef -= phantom.eval(px, py)
            phi_b, phi_v = gather(cell[:, None], px, py)
            return dcoef * phi_b * phi_v * rho

        return self.integrate(nodes, jumps, lattice)

    def profile(self, radii):
        """The displacement profile f = amp w((r - rho)/eta) and its
        derivative f' in rho at the radii."""
        s = (self.r - radii) / self.eta
        return (self.amp * kernels.bump(s),
                -(self.config.r0 / self.r) * kernels.bump_prime(s))

    @staticmethod
    def divergence_factor(gathered, radii, ct, st, f, fprime):
        """[d/drho(phi^2) f + phi^2 (f' + f/rho)] * rho from phi and its
        gradient ``gathered`` at the polar points (radii, ct, st)."""
        phi_at, dphix, dphiy = gathered
        dphi2 = 2.0 * phi_at * (dphix * ct + dphiy * st)
        return (dphi2 * f + phi_at**2 * (fprime + f / radii)) * radii

    def measure_Mtilde(self, ys):
        """Mtilde of the cells at the sources ``ys`` (k, 2), one pass.

        The coefficient is evaluated symbolically (rim jumps handled
        exactly), the displacement profile and its divergence are
        closed-form, and phi^2 is interpolated from the grid solution.
        """
        ys = np.asarray(ys, dtype=float).reshape(-1, 2)
        phantom, rho = self.phantom, self.rho
        # phi and its gradient are read at the same points
        phi_fields = self.ctx.phi_and_gradient
        lattice_profile = self.profile(rho)

        nodes = self.adaptive_theta_nodes(ys)
        cell, yx, yy, ct, st = nodes.kept_rays()
        rays, rc = self.shell_crossings((yx, yy), ct, st)
        yx, yy, ct, st = yx[rays], yy[rays], ct[rays], st[rays]
        side = rc + np.array([[-_NUDGE], [_NUDGE]])
        q_in, q_out = phantom.eval(yx + side * ct,
                                   yy + side * st) - phantom.a0
        sm = self.divergence_factor(
            kernels.bilinear_gather(phi_fields, yx + rc * ct, yy + rc * st,
                                    self.h),
            rc, ct, st, *self.profile(rc))

        def lattice(cell, ct, st):
            yx, yy = ys[cell, :1], ys[cell, 1:]
            px = yx + np.outer(ct, rho)
            py = yy + np.outer(st, rho)
            qvals = phantom.eval(px, py) - phantom.a0
            return qvals * self.divergence_factor(
                kernels.bilinear_gather(phi_fields, px, py, self.h), rho,
                ct[:, None], st[:, None], *lattice_profile)

        return self.integrate(nodes, [(rays, rc, q_in * sm, q_out * sm)],
                              lattice)


def measure_M_eta(ctx: ForwardContext, config: AcousticConfig, y, r,
                  quadrature="polar") -> float:
    """Normalized internal cross-term (1/eta^2) int (a_u - a) phi phi_u.

    The optical solves live on the field grid, but the integral is taken in
    polar coordinates around the source by default: a pass of one cell of
    ``_ShellQuadrature``. ``quadrature="grid"`` selects plain trapezoid on
    the field grid instead (needs h well below eta*r0/r to see the jump
    slivers); the two act as independent cross-checks.
    """
    if quadrature not in ("polar", "grid"):
        raise ValueError(f"unknown quadrature {quadrature!r}")
    if _ShellQuadrature.misses_support(ctx.phantom, config, y, r):
        return 0.0
    a_u, phi_u = perturbed_solution(ctx, config, y, r)
    if quadrature == "polar":
        quad = _ShellQuadrature(ctx, config, r)
        return float(quad.measure_M_eta([y], phi_u.values[None])[0])
    diff = a_u.values - ctx.a.values
    if not diff.any():
        return 0.0
    integrand = ScalarField(ctx.grid,
                            diff * ctx.solution.phi.values * phi_u.values)
    return integrate(integrand) / config.eta**2


def measure_Mtilde(ctx: ForwardContext, config: AcousticConfig, y, r) -> float:
    """Linearized measurement (1/eta^2) int (a - a0) div(phi^2 v).

    Same polar shell quadrature as measure_M_eta, a pass of one cell.
    """
    if _ShellQuadrature.misses_support(ctx.phantom, config, y, r):
        return 0.0
    if not ctx.has_contrast:
        return 0.0
    return float(_ShellQuadrature(ctx, config, r).measure_Mtilde([y])[0])


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
def _sinogram_cells(q, sources):
    """Re-raise a failure at radius index ``q`` as the failure of one of the
    source indices ``sources``: the system a stacked solve names, else the
    first."""
    try:
        yield
    except Exception as exc:
        m = sources[getattr(exc, "system", 0)]
        raise RuntimeError(
            f"sinogram cell (source {m}, radius index {q}) failed: {exc}"
        ) from exc


def _M_eta_column(quad: _ShellQuadrature, q, sources, cells, out):
    """Measure M_eta at radius index ``q`` (radius ``quad.r``) for the
    source indices ``cells`` (rows of ``sources``) into ``out``, indexed by
    source.

    The cells whose displaced medium differs from ``ctx.a`` are solved in
    near-equal stacks of at most ``_MAX_STACK`` systems, and each stack is
    measured in one pass; the other cells are measured in one pass on
    ``ctx.solution``. The values equal those of ``measure_M_eta`` cell by
    cell up to the rounding of the stacked CG.
    """
    ctx = quad.ctx
    still, moving, shells = [], [], []
    for m in cells:
        with _sinogram_cells(q, [m]):
            shell = _displaced_shell(ctx, quad.config, sources[m], quad.r)
        if _moves(ctx, shell):
            moving.append(m)
            shells.append(shell)
        else:
            still.append(m)
    if still:
        with _sinogram_cells(q, still):
            out[still] = quad.measure_M_eta(sources[still])
    if not moving:
        return
    for part in np.array_split(np.arange(len(moving)),
                               math.ceil(len(moving) / _MAX_STACK)):
        stack = [moving[s] for s in part]
        with _sinogram_cells(q, stack):
            phis = _displaced_phis(
                ctx, _coefficient_stack(ctx, [shells[s] for s in part]))
            out[stack] = quad.measure_M_eta(sources[stack], phis)


def sample_sinogram(ctx: ForwardContext, config: AcousticConfig, ny: int,
                    nr: int, which: str = "M_eta",
                    progress=None) -> Sinogram:
    """Dense cylinder sweep; rows are sources in angle order, columns radii.

    The sweep runs one radius at a time, in order, and calls
    ``progress(q + 1, nr)`` after radius index q. The cells of one radius
    share one ``_ShellQuadrature``. An M_eta sweep solves the radius's
    moving cells as stacks on the context's factorization and measures each
    stack in one pass (see ``_M_eta_column``); an Mtilde sweep solves
    nothing and measures the radius in one pass. Every cell's value is
    computed by the same operations whatever cells share its pass, so
    outputs are deterministic, and equal to ``measure_M_eta`` and
    ``measure_Mtilde`` cell by cell (up to the rounding of the stacked CG
    for M_eta).
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
    for q, r in enumerate(radii):
        cells = [m for m in range(ny) if not _ShellQuadrature.misses_support(
            ctx.phantom, config, sources[m], r)]
        if cells and which == "M_eta":
            _M_eta_column(_ShellQuadrature(ctx, config, r), q, sources, cells,
                          values[:, q])
        elif cells and ctx.has_contrast:
            with _sinogram_cells(q, cells):
                values[cells, q] = _ShellQuadrature(
                    ctx, config, r).measure_Mtilde(sources[cells])
        if progress is not None:
            progress(q + 1, nr)
    return Sinogram(config, ny, nr, values)
