"""Acoustic perturbation and measurement synthesis.

A short spherical wave from a source y on the circle S_mu displaces each
point radially by the profile v; the induced coefficient change produces the
cross-correlation data M(y, r) collected over the measurement cylinder
(source angle) x (wave radius). The wavefront profile w is the standard
smooth bump with unit sup-norm.

A sweep runs one radius at a time. The cells of one radius share everything
that depends on r alone: their displaced shells are built together, and
``_ShellQuadrature`` measures all of them, still and moving, in one
vectorised pass of the polar shell quadrature; a single measurement is a
pass of one cell. A perturbed medium is its displaced shell ``(i, j,
values)``: the nodes where a_u can differ from the sampled coefficient, and
a_u on them. The shells drive both the perturbed solves and the choice of
which cells need a solve at all. A perturbed solve is CG preconditioned by
the fast-diagonalised operator at the median coefficient, which is the
background a0 unless the inclusions cover half the grid, and it applies only
the coefficient's difference from that level, which lives on the inclusions
and the shell; so CG runs on the box of those nodes, which lies in the
inclusions' box grown by the displacement's amplitude. The M_eta and the
Mtilde pass differ only in their integrand: both read their fields on that
box grown by one node (``_ShellQuadrature.crop``), the coefficient from each
ray's shape quadratic, and build angular nodes only near the inclusions.

The one-cell measurements ``measure_M_eta`` and ``measure_Mtilde`` are what
a sweep computes for one cell; the tests compare sweeps against them. The
paper's other forms of M, the grid-trapezoid cross term and the boundary
cross-correlation, and the leading-order displacement v are oracles in
``tests/reference.py``.
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
    VectorField,
    gradient,
)
from .phantom import Phantom

SQRT2_HALF = math.sqrt(2.0) / 2.0

# distance a point must keep from a bounding circle or a rim for
# the coefficient (Phantom.eval, Phantom.along_rays) to place it on a known
# side despite rounding
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


def _geometry(config: AcousticConfig):
    """The sweep geometry a sinogram file records, as plain floats."""
    return {"eta": float(config.eta), "mu": float(config.mu),
            "r0": float(config.r0), "R": float(config.R),
            "center": tuple(float(c) for c in config.center)}


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

    def radii(self):
        return self.config.radii(self.nr)

    def sources(self):
        return self.config.sources(self.ny)

    def copy_with(self, values):
        return Sinogram(self.config, self.ny, self.nr, np.array(values))

    def save_csv(self, path):
        """Write the header, one ``#`` line with the sweep geometry the
        samples belong to, and one ``y_index,r,value`` row per sample."""
        radii = self.radii()
        with open(path, "w") as fh:
            fh.write("y_index,r,value\n")
            fh.write("# " + "; ".join(f"{key}={value!r}" for key, value
                                      in _geometry(self.config).items())
                     + "\n")
            for m in range(self.ny):
                for q in range(self.nr):
                    fh.write(f"{m},{radii[q]:.17g},{self.values[m, q]:.17g}\n")

    @classmethod
    def load_csv(cls, path, config):
        """Read a file written by ``save_csv``. Its geometry line must match
        ``config``, the rows must be y-major and rectangular, and the r
        column must match ``config.radii(nr)``; any other file, one that is
        not UTF-8 text among them, raises FileFormatError."""

        def text(line, lineno):
            try:
                return line.decode().strip()
            except UnicodeDecodeError as exc:
                raise FileFormatError(
                    f"{path}:{lineno}: byte {line[exc.start]:#04x} is not "
                    "UTF-8 text") from None

        rows = []
        with open(path, "rb") as fh:
            header = text(fh.readline(), 1)
            if header != "y_index,r,value":
                raise FileFormatError(f"{path}: unexpected header {header!r}")
            line = text(fh.readline(), 2)
            if not line.startswith("#"):
                raise FileFormatError(
                    f"{path}: no '# eta=...' geometry line after the header")
            found = dict(item.partition("=")[::2]
                         for item in line[1:].strip().split("; "))
            for key, value in _geometry(config).items():
                if found.get(key) != repr(value):
                    raise FileFormatError(
                        f"{path}: sampled at {key} = {found.get(key)}, but "
                        f"the config has {key} = {value!r}")
            for lineno, line in enumerate(fh, start=3):
                line = text(line, lineno)
                try:
                    m_s, r_s, v_s = line.split(",")
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


def _shell_displacement(config: AcousticConfig, y, r, c, box=None):
    """The nodes of the shell |d - r| <= eta + amp around y, outside which u
    vanishes, and u on them; ``c`` is the grid's node coordinates
    (``Grid.coords``).

    Returns ``(i, j, ux, uy)``: the index arrays of the shell nodes, in C
    order, and the two components of u on them. ``box`` is as for
    ``_shell_displacements``, whose one source this is.
    """
    _, i, j, ux, uy = _shell_displacements(config, [y], r, c, box)
    return i, j, ux, uy


def _shell_displacements(config: AcousticConfig, ys, r, c, box=None):
    """``_shell_displacement`` for the sources ``ys`` (k, 2) at once, from
    one (k, ni, nj) distance array and one ``kernels.radial_invert`` call.

    Returns ``(s, i, j, ux, uy)``: the source index (row of ``ys``) of each
    shell node, in increasing order, then the node indices, in C order
    within each source, and the two components of u. ``box``, node index
    ranges ``(i0, i1, j0, j1)``, keeps only the shell nodes in
    ``[i0, i1) x [j0, j1)``. Every step is elementwise and the radial
    inverse stops each node on its own, so a source's nodes do not depend
    on the other sources. A failed inverse raises RuntimeError, whose
    ``system`` is the row of the source it failed for.
    """
    _check_radius(r)
    ys = np.asarray(ys, dtype=float).reshape(-1, 2)
    i0, i1, j0, j1 = (0, c.size, 0, c.size) if box is None else box
    cx = c[i0:i1] - ys[:, :1]
    cy = c[j0:j1] - ys[:, 1:]
    amp = config.eta * (config.r0 / r)
    width = config.eta + amp
    # squared distances pick the candidates, with a margin far above their
    # rounding; the test on d itself decides
    dsq = cx[:, :, None] ** 2 + cy[:, None, :] ** 2
    lo = max(r - width, 0.0) * (1.0 - 1e-9)
    hi = (r + width) * (1.0 + 1e-9)
    s, i, j = np.nonzero((dsq >= lo * lo) & (dsq <= hi * hi))
    # freed before the per-node arrays, which set the sweep's peak memory
    del dsq
    d = np.hypot(cx[s, i], cy[s, j])
    shell = np.abs(d - r) <= width
    s, i, j, d = s[shell], i[shell], j[shell], d[shell]
    rho = kernels.radial_invert(d, r, amp, config.eta)
    residual = np.abs(rho + amp * kernels.bump((r - rho) / config.eta) - d)
    bad = residual > 1e-10
    if np.any(bad):
        k = int(np.argmax(residual))
        exc = RuntimeError(
            f"radial inverse failed at source {tuple(ys[s[k]])}, radius {r}, "
            f"node distance {d[k]:.6f} (residual {residual[k]:.2e})"
        )
        exc.system = int(s[k])
        raise exc
    scale = (rho - d) / d
    return s, i + i0, j + j0, scale * cx[s, i], scale * cy[s, j]


def displacement_u(config: AcousticConfig, y, r, grid: Grid) -> VectorField:
    """Displacement u with x + u(x) = P^{-1}(x) for the position map
    P(z) = z + v(z), where v(z) = eta (r0/r) w((r - |z - y|)/eta) (z - y)/|z
    - y| is the radial displacement of the wavefront; zero off the
    wavefront shell."""
    i, j, ux_shell, uy_shell = _shell_displacement(config, y, r,
                                                   grid.coords())
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
    its operator, and what the linearized measurement reads of them,
    computed on first use.

    Every solve of a context and its sweeps is CG preconditioned by one
    direct solver: that of the background, the diagonalised operator at
    the median coefficient, which the forward solve and ``operator``
    share (see ``RobinOperator.background``). So building a context
    factors nothing, and neither does a sweep. An M_eta sweep solves the
    perturbed systems of one radius as stacks of at most ``_MAX_STACK`` on
    the operator, each given as its displaced shell and warm-started from
    this solution, whose residual in a displaced medium lives on the shell;
    so each stack's CG runs on the box of the inclusions and the shells,
    and only its exit solves and checks touch the whole grid. The radius is
    then measured in one quadrature pass over one field stack on the
    pass's crop: phi of this solution, then each stack's solutions."""

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
            self.solution = solve_T(RobinProblem(self.a, self.g, self.l))

    @cached_property
    def phi_and_gradient(self):
        """phi and the two components of its gradient as one (3, n, n)
        stack, which an Mtilde pass reads on its crop in one corner
        computation."""
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


def _displaced_shells(ctx: ForwardContext, config: AcousticConfig, ys, r):
    """For each source in ``ys``, the nodes where a_u = a(x + u(x)) can
    differ from ``ctx.a`` at radius r, and a_u on them, as a list of ``(i,
    j, values)``; all sources share one ``_shell_displacements`` call and
    one Phantom.eval, and a failure names its source's row in ``system``.

    They are the shell nodes inside the box of the inclusions' bounding
    circles grown by amp (plus 1e-9 for rounding). The cull is exact: |u| <=
    amp, so off that box x and x + u (clipped to the unit square) both lie
    outside every bounding circle, where Phantom.eval returns exactly a0.
    """
    _check_radius(r)
    amp = config.eta * (config.r0 / r)
    box = _support_box(ctx.phantom, ctx.grid, amp + _NUDGE)
    c = ctx.grid.coords()
    s, i, j, ux, uy = _shell_displacements(config, ys, r, c, box)
    values = ctx.phantom.eval(np.clip(c[i] + ux, 0.0, 1.0),
                              np.clip(c[j] + uy, 0.0, 1.0))
    ends = np.searchsorted(s, np.arange(1, len(ys)))
    return list(zip(np.split(i, ends), np.split(j, ends),
                    np.split(values, ends)))


def _displaced_shell(ctx: ForwardContext, config: AcousticConfig, y, r):
    """``_displaced_shells`` of the one source y."""
    return _displaced_shells(ctx, config, [y], r)[0]


def _moves(ctx: ForwardContext, shell):
    """Whether the displaced shell ``(i, j, values)`` changes ``ctx.a``."""
    i, j, values = shell
    return not np.array_equal(values, ctx.a.values[i, j])


def _with_shell(ctx: ForwardContext, shell) -> ScalarField:
    """``ctx.a`` with the displaced shell ``(i, j, values)`` written in."""
    i, j, values = shell
    a = ctx.a.values.copy()
    a[i, j] = values
    return ScalarField(ctx.grid, a)


# systems per stacked perturbed solve. Each CG iteration's box solve costs
# the same per system at any stack size, so a stack saves only the loop's
# per-call work, and every system adds its box arrays and its grid-sized
# start, exit solve and residual check to the peak memory. On the box path
# a 16 x 32 sweep of one disk of radius 0.2 took 0.26, 0.22, 0.17, 0.17 and
# 0.17 s of CPU at 1, 2, 4, 6 and 8 systems at n = 65 (eta 1/16); 0.37,
# 0.29, 0.26, 0.26 and 0.24 s at n = 129, its tracemalloc peak 3.2, 3.5,
# 4.2, 5.0 and 5.8 MB; and 0.58, 0.54, 0.51, 0.51 and 0.59 s at n = 201
# (eta 1/32 at both), peaking at 4.1, 4.9, 7.4, 9.4 and 14.0 MB. Beyond
# four, only n = 129 gains, 7% at eight, for 1.6 MB more
_MAX_STACK = 4


def _displaced_phis(ctx: ForwardContext, shells):
    """phi_u in the displaced medium of each shell ``(i, j, values)``, as a
    (k, n, n) stack.

    The k systems are one stacked PCG on the context's operator,
    preconditioned by the direct solver of its background, which applies
    only each medium's difference from the background; each system starts
    from phi, whose residual is the shell's change of the coefficient
    applied to phi. A SolverError of the stacked solve names in ``system``
    the index of the system whose final residual is the largest.
    """
    op = ctx.operator
    # every system has the same right-hand side and start: read-only views
    b = np.broadcast_to(op.boundary_rhs(ctx.g),
                        (len(shells),) + ctx.grid.shape)
    x0 = np.broadcast_to(ctx.solution.phi.values, b.shape)
    x, _, _ = op.solve(b, x0=x0, shells=shells, x0_unperturbed=True)
    return x


def perturbed_solution(ctx: ForwardContext, config: AcousticConfig, y, r):
    """Coefficient a_u and energy density phi_u in the displaced medium, as
    two ScalarFields; a medium that equals ``ctx.a`` reuses its solution."""
    shell = _displaced_shell(ctx, config, y, r)
    if not _moves(ctx, shell):
        return ctx.a, ctx.solution.phi
    return (_with_shell(ctx, shell),
            ScalarField(ctx.grid, _displaced_phis(ctx, [shell])[0]))


def _ray_rim_crossings(inclusion, y, ct, st):
    """Radii where rays from y cross the inclusion rim, s^2 = 1 on the
    ray's shape quadratic (``Inclusion.ray_quadratic``).

    ``y`` is a source, or a pair of arrays of source coordinates that
    broadcast against ``ct``, one source per ray. Returns two arrays of radii
    aligned with the rays, NaN where a ray misses the rim.
    """
    A, rho_c, m = inclusion.ray_quadratic(y, ct, st)
    ok = m < 1.0
    half = np.sqrt(np.where(ok, 1.0 - m, 0.0) / A)
    return (np.where(ok, rho_c - half, np.nan),
            np.where(ok, rho_c + half, np.nan))


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


# lattice points per piece of a quadrature pass: a pass evaluates its lattice
# rows in pieces of at most this many points, with about 130 bytes of
# temporaries per point. By tracemalloc, a 16 x 32 sweep of a disk of radius
# 0.2 peaks at 3.4 (M_eta) and 2.9 MB (Mtilde) at n=65, eta 1/16, and 3.7 and
# 3.0 MB at n=129, eta 1/32, at 16384 points; 2.1-2.2 MB higher at 32768
_PASS_POINTS = 16384


@dataclass
class _ShellNodes:
    """The near angular nodes of the cells of one pass (cell c is the
    source ``ys[c]``), as flat arrays in (cell, angle) order. ``weight`` is
    each node's periodic-trapezoid weight among all its cell's angles, and
    ``keep`` marks the rays the lattice is evaluated on.
    """

    ys: np.ndarray
    ct: np.ndarray
    st: np.ndarray
    cell: np.ndarray
    weight: np.ndarray
    keep: np.ndarray

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
    rho* stays in [r - eta, r + eta]; the coefficient is exactly a0 off
    every bounding circle, so a - a0 and a_u - a are zero on the dropped
    rays; and a rim-crossing root inside the shell lies on a rim, so every
    ray that carries a jump correction is kept.

    The object holds what depends on r alone: the radial lattice rho and its
    displaced radii rho*, the base angles, the trapezoid weights and the
    ``crop`` that a pass reads its fields on (``read``). ``measure_M_eta``
    and ``measure_Mtilde`` measure several sources' cells in one pass; a
    sweep measures each radius in one. The pass's lattice rows are the kept
    rays of all its cells, evaluated in pieces of at most ``_PASS_POINTS``
    points; the jump corrections of the pass are computed once. Every value
    is an elementwise operation, a row-wise sum, a sum over one cell's rays
    in order or a root that stops on its own, so a cell's value does not
    depend on the cells that share its pass, nor on the size of the pieces,
    nor on whether its fields are held on the crop or on the whole grid.
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
        nodes and the group's jumps (``jump_corrections``).
        """
        # a sum along each contiguous row does not depend on how many rows
        # there are, so neither the cull nor the pass changes a value
        per_ray = np.sum(lattice_vals * self.weights, axis=1)
        if jumps:
            groups = self.jump_groups(jumps)
            rays, cells = groups[:2]
            per_ray += self.jump_corrections(
                groups, lattice_vals[rays, cells],
                lattice_vals[rays, cells + 1], per_ray.size)
        return per_ray

    def jump_groups(self, jumps):
        """The jumps of the tuples ``jumps`` (see ``radial_integrals``) as
        ``(rays, cells, radii, below, above)``, with the radial cell of each
        jump, sorted by ray, then cell, then radius."""
        rays, radii, below, above = (np.concatenate(part)
                                     for part in zip(*jumps))
        cells = np.clip(((radii - self.rho[0]) / self.drho).astype(int),
                        0, self.rho.size - 2)
        order = np.lexsort((radii, cells, rays))
        return tuple(v[order] for v in (rays, cells, radii, below, above))

    def jump_corrections(self, groups, g_lo, g_hi, size):
        """What the jumps change in the trapezoid of each of ``size`` rays,
        from the sorted jumps ``groups`` of ``jump_groups`` and the integrand
        on the lower and upper node of each jump's cell, ``g_lo`` and
        ``g_hi``."""
        rays, cells, radii, below, above = groups
        first = np.ones(rays.size, dtype=bool)
        first[1:] = (rays[1:] != rays[:-1]) | (cells[1:] != cells[:-1])
        # a group ends where the next one starts
        last = np.roll(first, -1)
        group = np.cumsum(first) - 1
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
        return np.bincount(rays[first], weights=exact - plain[first],
                           minlength=size)

    def adaptive_theta_nodes(self, ys):
        """The near angular nodes of the cells at the sources ``ys`` (k, 2),
        base and refined over the rim-sweep bands, as ``_ShellNodes``.

        The near rays are the base rays that reach an inclusion's bounding
        circle within r +- 1.5 eta, and every refined ray; only they are
        built. The kept rays are the near rays that ``rays_meeting_support``
        keeps (a ray that is not near misses the narrower shell segment
        too). Refinement of a base interval is driven by how far the
        crossing radii move across it relative to eta.

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
        # base interval j of a cell holds the subdiv - 1 refined nodes
        # theta_j + step i / subdiv, i = 1, ..., subdiv - 1, which lie
        # strictly between theta_j and the next base node: after its base
        # node, if that is near, they are in angle order
        built = subdiv - 1 + base_near
        bc, bj = np.nonzero(built)
        count = built[bc, bj]
        owner = np.repeat(np.arange(count.size), count)
        # i = 0 is the base node
        i = np.arange(owner.size) - (np.cumsum(count) - count)[owner]
        i += ~base_near[bc, bj][owner]
        cell, j, size = bc[owner], bj[owner], subdiv[bc, bj][owner]
        step = 2 * np.pi / nt
        ct, st = self.ct[j], self.st[j]
        refined = np.nonzero(i)[0]
        angles = self.theta[j[refined]] + step * i[refined] / size[refined]
        ct[refined] = np.cos(angles)
        st[refined] = np.sin(angles)
        # half the gaps to the neighbours: step / subdiv on each side of a
        # refined node; a base node's lower gap is its previous interval's
        weight = step / size
        base = np.nonzero(i == 0)[0]
        weight[base] = 0.5 * (step / subdiv[cell[base], j[base] - 1]
                              + step / size[base])
        keep = self.rays_meeting_support((ys[cell, 0], ys[cell, 1]), ct, st)
        return _ShellNodes(ys, ct, st, cell, weight, keep)

    def integrate(self, nodes, jumps, lattice):
        """(1/eta^2) times the shell integral of each cell of ``nodes``.

        The integrand is zero off the kept rays. ``jumps`` are the jump
        tuples of ``radial_integrals`` on the kept rays, counted in (cell,
        angle) order. ``lattice(cell, ct, st)`` gives the
        integrand (radial Jacobian included) on the radial lattice of the
        rays with those cell indices and direction cosines and sines; it is
        called on at most ``_PASS_POINTS`` lattice points at a time.

        Each piece's rows get the plain trapezoid, and each jump keeps the
        integrand on the nodes of its cell, so that the jump corrections of
        the whole pass are computed once.
        """
        groups = self.jump_groups(jumps)
        rays, cells = groups[:2]
        g_lo, g_hi = np.empty(rays.size), np.empty(rays.size)
        cell, _, _, ct, st = nodes.kept_rays()
        kept = np.empty(cell.size)
        step = max(1, _PASS_POINTS // self.rho.size)
        for s in range(0, cell.size, step):
            part = slice(s, s + step)
            vals = lattice(cell[part], ct[part], st[part])
            kept[part] = self.radial_integrals(vals, [])
            a, b = np.searchsorted(rays, [s, s + step])
            g_lo[a:b] = vals[rays[a:b] - s, cells[a:b]]
            g_hi[a:b] = vals[rays[a:b] - s, cells[a:b] + 1]
        kept += self.jump_corrections(groups, g_lo, g_hi, kept.size)
        # the periodic trapezoid in angle: a sequential sum over each cell's
        # kept rays, in angle order
        kept *= nodes.weight[nodes.keep]
        return np.bincount(cell, weights=kept,
                           minlength=len(nodes.ys)) / self.eta**2

    @cached_property
    def crop(self):
        """Node index ranges ``(i0, i1, j0, j1)`` of the box that holds every
        field value a pass multiplies by a nonzero factor: the box of the
        inclusions' bounding circles grown by amp (plus 1e-9 for rounding),
        grown by one node on each side, so that it holds the four corners of
        every point in that box.

        A lattice value is nonzero only where rho (Mtilde) or rho or rho*
        (M_eta) lies in a bounding circle, and |rho - rho*| <= amp; a jump
        lies on a rim or within amp of one. A point off the unit square can
        see a coefficient change only if the box reaches the grid's edge.
        """
        n = self.ctx.grid.n
        i0, i1, j0, j1 = _support_box(self.phantom, self.ctx.grid,
                                      self.amp + _NUDGE)
        return max(i0 - 1, 0), min(i1 + 1, n), max(j0 - 1, 0), min(j1 + 1, n)

    def read(self, fields, rows, px, py):
        """The bilinear values at the points of the field ``fields[row]``
        for each of ``rows`` (field indices, or arrays of them broadcasting
        against the points), from one ``kernels.box_corners`` call. The stack
        is held on the whole grid or on ``crop``; a point off ``crop`` reads
        the values at its edge, which a pass multiplies by an exact zero.
        Where ``crop`` reaches the grid's edge, a point off the unit square
        reads zero."""
        n = self.ctx.grid.n
        i0, i1, j0, j1 = box = self.crop
        if fields.shape[1:] == self.ctx.grid.shape:
            box = (0, n, 0, n)
        index, weight = kernels.box_corners(px, py, self.h, box)
        shape = np.shape(px)
        flat = fields.reshape(-1)
        outside = ((px < 0.0) | (px > 1.0) | (py < 0.0) | (py > 1.0)
                   if 0 in (i0, j0) or n in (i1, j1) else None)
        out, at = [], 0
        for row in rows:
            # the corners move to the row's field in place
            if np.any(row != at):
                index.reshape((4,) + shape)[...] += (row - at) * fields[0].size
                at = row
            # one corner at a time, so no array holds four corners of a read
            value = np.take(flat, index[0]) * weight[0]
            for c in (1, 2, 3):
                value += np.take(flat, index[c]) * weight[c]
            out.append(value.reshape(shape))
            if outside is not None:
                out[-1][outside] = 0.0
        return out

    def measure_M_eta(self, ys, phi_u=None, own=None):
        """M_eta of the cells at the sources ``ys`` (k, 2), one pass.

        ``phi_u`` is the (k, n, n) stack of the energy densities in the
        cells' displaced media; None measures cells whose medium does not
        move, where phi_u is phi. With ``own``, ``phi_u`` is instead one
        stack of fields whose field 0 is phi and whose field ``own[c]`` is
        the phi_u of cell c, held on the whole grid or on ``crop``: a sweep
        measures all the cells of a radius, still and moving, in one pass
        over one such stack.

        The coefficient change is evaluated symbolically, along each ray
        from its shape quadratics (``Inclusion.ray_quadratic``), the
        displaced radius comes from the radial root solve, and rim-crossing
        jumps are integrated exactly, so the thin support of a_u - a is
        resolved at any eta. phi and phi_u are read together (``read``).
        """
        ys = np.asarray(ys, dtype=float).reshape(-1, 2)
        phantom, r, eta, amp = self.phantom, self.r, self.eta, self.amp
        rho, rho_star = self.rho, self.rho_star
        if own is None:
            phi = self.ctx.solution.phi.values[None]
            if phi_u is None:
                phi_u, own = phi, np.zeros(len(ys), dtype=np.intp)
            else:
                phi_u = np.concatenate([phi, phi_u])
                own = np.arange(1, len(ys) + 1)

        def paired(cell, px, py):
            """phi times phi_u at points of the cells ``cell``, which
            broadcast against the points."""
            at_phi, out = self.read(phi_u, (0, own[cell]), px, py)
            out *= at_phi
            return out

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
        # that side. Each root stops on its own, so the pass's crossings are
        # one batch, whatever cells share it
        rstar = np.minimum(kernels.radial_invert(rc, r, amp, eta),
                           rc - _NUDGE)
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
            phantom.along_rays((yx[on], yy[on]), ct[on], st[on], at),
            np.cumsum([rays.size] * 3))
        # the smooth factor at both kinds of jump, in one read
        on = np.concatenate([rays, moved])
        at = np.concatenate([rc, rr])
        sm = paired(cell[on], yx[on] + at * ct[on], yy[on] + at * st[on]) * at
        sm, smm = sm[:rc.size], sm[rc.size:]
        jumps = [(rays, rc, (adisp - a_in) * sm, (adisp - a_out) * sm),
                 (moved, rr, (a_in[move] - base) * smm,
                  (a_out[move] - base) * smm)]

        def lattice(cell, ct, st):
            y = ys[cell, :1], ys[cell, 1:]
            ct, st = ct[:, None], st[:, None]
            # the coefficient at the displaced radii rho* minus at rho
            dcoef = phantom.along_rays(y, ct, st, rho_star)
            dcoef -= phantom.along_rays(y, ct, st, rho)
            dcoef *= paired(cell[:, None], y[0] + ct * rho, y[1] + st * rho)
            dcoef *= rho
            return dcoef

        return self.integrate(nodes, jumps, lattice)

    def measure_Mtilde(self, ys):
        """Mtilde of the cells at the sources ``ys`` (k, 2), one pass.

        a - a0 is evaluated along each ray from its shape quadratics, with
        rim jumps handled exactly, the displacement profile and its
        divergence are closed-form, and phi and its gradient are read
        together on the crop (``read``).
        """
        ys = np.asarray(ys, dtype=float).reshape(-1, 2)
        phantom, rho = self.phantom, self.rho
        i0, i1, j0, j1 = self.crop
        phi_fields = np.ascontiguousarray(
            self.ctx.phi_and_gradient[:, i0:i1, j0:j1])

        def factor(px, py, radii, ct, st):
            """[d/drho(phi^2) f + phi^2 (f' + f/rho)] rho at the polar points
            (radii, ct, st), f = amp w((r - rho)/eta) the profile."""
            phi, dphix, dphiy = self.read(phi_fields, (0, 1, 2), px, py)
            s = (self.r - radii) / self.eta
            f = self.amp * kernels.bump(s)
            fprime = -(self.config.r0 / self.r) * kernels.bump_prime(s)
            return (2.0 * phi * (dphix * ct + dphiy * st) * f
                    + phi**2 * (fprime + f / radii)) * radii

        nodes = self.adaptive_theta_nodes(ys)
        cell, yx, yy, ct, st = nodes.kept_rays()
        rays, rc = self.shell_crossings((yx, yy), ct, st)
        y, ct, st = (yx[rays], yy[rays]), ct[rays], st[rays]
        # the coefficient change just below and above rc, in one evaluation
        q_in, q_out = phantom.along_rays(
            y, ct, st, rc + np.array([[-_NUDGE], [_NUDGE]])) - phantom.a0
        sm = factor(y[0] + rc * ct, y[1] + rc * st, rc, ct, st)

        def lattice(cell, ct, st):
            y = ys[cell, :1], ys[cell, 1:]
            ct, st = ct[:, None], st[:, None]
            q = phantom.along_rays(y, ct, st, rho)
            q -= phantom.a0
            q *= factor(y[0] + ct * rho, y[1] + st * rho, rho, ct, st)
            return q

        return self.integrate(nodes, [(rays, rc, q_in * sm, q_out * sm)],
                              lattice)


def measure_M_eta(ctx: ForwardContext, config: AcousticConfig, y, r) -> float:
    """Normalized internal cross-term (1/eta^2) int (a_u - a) phi phi_u.

    The optical solves live on the field grid, but the integral is taken in
    polar coordinates around the source: a pass of one cell of
    ``_ShellQuadrature``, on one lone perturbed solve. A sweep measures the
    same value up to the rounding of its stacked solves (see
    ``sample_sinogram``).
    """
    if _ShellQuadrature.misses_support(ctx.phantom, config, y, r):
        return 0.0
    _, phi_u = perturbed_solution(ctx, config, y, r)
    quad = _ShellQuadrature(ctx, config, r)
    return float(quad.measure_M_eta([y], phi_u.values[None])[0])


def measure_Mtilde(ctx: ForwardContext, config: AcousticConfig, y, r) -> float:
    """Linearized measurement (1/eta^2) int (a - a0) div(phi^2 v).

    Same polar shell quadrature as measure_M_eta, a pass of one cell.
    """
    if _ShellQuadrature.misses_support(ctx.phantom, config, y, r):
        return 0.0
    if not ctx.has_contrast:
        return 0.0
    return float(_ShellQuadrature(ctx, config, r).measure_Mtilde([y])[0])


@contextmanager
def _sinogram_cells(q, sources):
    """Re-raise a failure at radius index ``q`` as the failure of one of the
    source indices ``sources``: the one whose index the failure names in
    ``system`` (a stacked solve or a shell build), else the first."""
    try:
        yield
    except Exception as exc:
        m = sources[getattr(exc, "system", None) or 0]
        raise RuntimeError(
            f"sinogram cell (source {m}, radius index {q}) failed: {exc}"
        ) from exc


def _M_eta_column(quad: _ShellQuadrature, q, sources, cells, out):
    """Measure M_eta at radius index ``q`` (radius ``quad.r``) for the
    source indices ``cells`` (rows of ``sources``) into ``out``, indexed by
    source.

    The displaced shells of all the cells are built together. The cells
    whose shell changes ``ctx.a`` are solved first, in near-equal stacks of
    at most ``_MAX_STACK`` systems; each stack's solutions go into one field
    stack on ``quad.crop``, after phi at index 0. Then every cell, still and
    moving, is measured in one pass over that stack. The values equal those
    of ``measure_M_eta`` cell by cell up to the rounding of the stacked CG.
    """
    ctx = quad.ctx
    with _sinogram_cells(q, cells):
        shells = _displaced_shells(ctx, quad.config, sources[cells], quad.r)
    moving = [c for c, shell in enumerate(shells) if _moves(ctx, shell)]
    i0, i1, j0, j1 = quad.crop
    fields = np.empty((1 + len(moving), i1 - i0, j1 - j0))
    fields[0] = ctx.solution.phi.values[i0:i1, j0:j1]
    own = np.zeros(len(cells), dtype=np.intp)
    own[moving] = np.arange(1, len(moving) + 1)
    stacks = math.ceil(len(moving) / _MAX_STACK)
    for part in np.array_split(moving, stacks) if stacks else ():
        with _sinogram_cells(q, [cells[c] for c in part]):
            fields[own[part]] = _displaced_phis(
                ctx, [shells[c] for c in part])[:, i0:i1, j0:j1]
    with _sinogram_cells(q, cells):
        out[cells] = quad.measure_M_eta(sources[cells], fields, own)


def sample_sinogram(ctx: ForwardContext, config: AcousticConfig, ny: int,
                    nr: int, which: str = "M_eta",
                    progress=None) -> Sinogram:
    """Dense cylinder sweep; rows are sources in angle order, columns radii.

    The sweep runs one radius at a time, in order, and calls
    ``progress(q + 1, nr)`` after radius index q. The cells of one radius
    share one ``_ShellQuadrature``. An M_eta sweep builds the displaced
    shells of the radius's cells together, solves the cells whose shell
    changes the medium as stacks on the context's operator, preconditioned
    by fast diagonalisation, and then measures every cell of the radius in
    one pass over the solutions held on the pass's crop (see
    ``_M_eta_column``); an Mtilde sweep solves nothing and measures the
    radius in one pass. Every cell's value is computed by the same
    operations whatever cells share its pass, so outputs are deterministic.
    Cell by cell they equal the one-cell ``measure_M_eta`` and
    ``measure_Mtilde`` (up to the rounding of the stacked CG for M_eta),
    which the tests hold the sweep to.
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
