"""Oracles the tests check the package against.

These are the paper's identities and independent ways of computing what the
package computes: the weak Helmholtz decomposition's pairings, the
decaying-gauge potential and its semi-analytic circular transform, the
ideal-data prediction M = r0 ||w||_1 d/dr R[psi], the boundary
cross-correlation and grid-trapezoid forms of M, the norms of the
measurement cylinder, and plain direct solves. No CLI stage and no
benchmark workload runs them, so they live here and not in the package.
"""

import math
from dataclasses import dataclass

import numpy as np

from aotomo import acousto, kernels
from aotomo.acousto import Sinogram
from aotomo.diffusion import RobinOperator, RobinProblem, solve_T
from aotomo.fields import (
    ScalarField,
    VectorField,
    diff_axis0,
    edge_diff,
    edge_form_matrix,
    gradient,
    inner,
    integrate,
    neumann_edge_coefficients,
    neumann_solve_weighted,
)
from aotomo.helmholtz import PsiField
from aotomo.inversion import _DF_raw
from aotomo.radon import _p_matrix, radial_step, source_weight
from aotomo.segmentation import erode_cross


# ---------------------------------------------------------------------------
# discrete calculus and elliptic solves


def divergence(v) -> ScalarField:
    """Nodal divergence of a VectorField, with the differences of
    ``fields.gradient``."""
    h = v.grid.h
    return ScalarField(v.grid, diff_axis0(v.vx, h) + diff_axis0(v.vy.T, h).T)


def inner_vec(u, v) -> float:
    """Trapezoidal L2 pairing of two VectorFields."""
    w = u.grid.trapezoid_weights()
    return float(np.sum(w * (u.vx * v.vx + u.vy * v.vy)))


def dirichlet_laplace_solve(b, h):
    """Solve -lap(u) = b with u = 0 on the boundary of a square grid of
    spacing ``h``, to rounding: the type-I sine transform diagonalises the
    5-point Laplacian (Buzbee, Golub and Nielson 1970). Boundary entries of
    ``b`` are ignored and those of ``u`` are zero."""
    import scipy.fft

    m = b.shape[0] - 2
    lam = (2.0 / h * np.sin(0.5 * np.pi * np.arange(1, m + 1) / (m + 1))) ** 2
    u = np.zeros(b.shape)
    u[1:-1, 1:-1] = scipy.fft.idstn(
        scipy.fft.dstn(b[1:-1, 1:-1], type=1) / (lam[:, None] + lam), type=1)
    return u


def poisson_dirichlet(rhs) -> ScalarField:
    """Solve -lap(u) = rhs with u = 0 on the boundary (5-point stencil)."""
    grid = rhs.grid
    return ScalarField(grid, dirichlet_laplace_solve(rhs.values, grid.h))


def poisson_neumann(rhs) -> ScalarField:
    """Solve lap(f) = rhs with homogeneous Neumann data, zero-mean solution.

    The compatibility condition is enforced by subtracting the weighted mean
    of the right-hand side.
    """
    grid, r = rhs.grid, rhs.values
    w = grid.trapezoid_weights()
    r0 = r - np.sum(w * r) / w.sum()
    # weak form: E f = -(W * rhs)
    return ScalarField(grid, neumann_solve_weighted(grid, -(w * r0)))


def spd_lu(matrix):
    """SuperLU factors of a sparse symmetric positive definite matrix; the
    minimum-degree ordering of A^T + A uses the symmetry to keep them small."""
    import scipy.sparse.linalg as spla

    return spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A")


def pinned_neumann_solve(grid, b):
    """The edge-form Neumann system E z = b solved by sparse LU: E is
    symmetric with the constants as its kernel, so once the plain mean of b
    is projected out node 0's row follows from the others, and pinning z
    there to zero leaves an SPD system. Returns the zero-weighted-mean z."""
    bproj = (b - b.sum() / b.size).ravel()
    form = edge_form_matrix(*neumann_edge_coefficients(grid))
    z = np.zeros(grid.shape)
    z.flat[1:] = spd_lu(form[1:, 1:]).solve(bproj[1:])
    w = grid.trapezoid_weights()
    return z - np.sum(w * z) / w.sum()


def displaced_medium_solve(op, g, shell):
    """The Robin system of ``op`` with the shell ``(i, j, values)`` written
    into its coefficient, for boundary data ``g``: its assembled sparse
    matrix, its right-hand side and its solution by sparse LU, the last two
    as (n, n) arrays."""
    i, j, values = shell
    a = op.a.copy()
    a[i, j] = values
    moved = RobinOperator(op.grid, a, op.l)
    matrix = moved.sparse_matrix()
    b = moved.boundary_rhs(g)
    return matrix, b, spd_lu(matrix).solve(b.ravel()).reshape(b.shape)


def _mask_edges(mask):
    """Weights of the edges with both ends in one mask."""
    return ((mask[1:, :] & mask[:-1, :]).astype(float),
            (mask[:, 1:] & mask[:, :-1]).astype(float))


def mask_bilinear(mask, u, v) -> float:
    """The Dirichlet form of one mask alone: the sum over its edges of
    du dv (undivided differences)."""
    cx, cy = _mask_edges(mask)
    du_x, du_y = edge_diff(u)
    dv_x, dv_y = edge_diff(v)
    return float(np.sum(cx * du_x * dv_x) + np.sum(cy * du_y * dv_y))


def mask_riesz_solve(mask, b):
    """Solve one mask's Dirichlet form L rho = b by its own sparse LU on the
    mask's cross-eroded interior; rho is zero elsewhere."""
    nodes = np.flatnonzero(erode_cross(mask))
    form = edge_form_matrix(*_mask_edges(mask))[nodes][:, nodes]
    rho = np.zeros(mask.shape)
    rho.flat[nodes] = spd_lu(form).solve(b.ravel()[nodes])
    return rho


def boundary_integral(trace):
    """Integral over the boundary curve (uniform weights on the closed loop)."""
    return trace.grid.h * float(np.sum(trace.values))


def DF_quadratic_form(problem, alphas, correction, h, solution=None) -> float:
    """DF[a](h, h) from the assembled vector of DF[a](h), without Riesz
    solves."""
    raw = _DF_raw(problem, alphas, correction, h, solution)
    return float(np.sum(raw * h))


# ---------------------------------------------------------------------------
# the weak Helmholtz decomposition


def pair(U, v) -> float:
    """U(v) = -int (a - a0) div(phi^2 v) with nodal central differences, for
    weak vector data U and a VectorField v."""
    phi2 = U.phi.values**2
    w = VectorField(U.grid, phi2 * v.vx, phi2 * v.vy)
    return -inner(ScalarField(U.grid, U.contrast()), divergence(w))


def pair_gradient(U, v) -> float:
    """U(grad v) in the edge pairing that ``helmholtz.decompose`` uses."""
    return float(np.sum(U.gradient_rhs() * v.values))


def orthogonality_residual(U, psi, v) -> float:
    """U(grad v) + <grad psi, grad v> in the edge pairing, for weak vector
    data U, a potential psi and a test field v.

    Zero (to rounding) for the decomposed potential; this is the
    discrete statement that the remainder is divergence free.
    """
    dpx, dpy = edge_diff(psi.psi.values)
    dvx, dvy = edge_diff(v.values)
    cx, cy = neumann_edge_coefficients(U.grid)
    pairing = float(np.sum(cx * dpx * dvx) + np.sum(cy * dpy * dvy))
    return pair_gradient(U, v) + pairing


@dataclass(frozen=True)
class PaddedField:
    """A field on a square grid of spacing h whose node (0, 0) sits at
    (origin, origin), large enough to hold every measurement circle."""

    values: np.ndarray
    origin: float
    h: float

    @property
    def extent(self):
        return (self.values.shape[0] - 1) * self.h


def _nodal_components(U):
    """Node samples of the two components of phi^2 grad(a - a0)."""
    grid = U.grid
    q = U.contrast()
    g2 = U.phi.values**2
    gq = gradient(ScalarField(grid, q * g2))
    gg = gradient(ScalarField(grid, g2))
    return gq.vx - q * gg.vx, gq.vy - q * gg.vy


def free_space_potential(U, pad=2.25):
    """Potential of the zero-padded data on an enlarged grid.

    Solves -lap(psi) = div(U) with the data extended by zero and the far
    boundary clamped; in this gauge the potential decays away from the
    domain, so its circular transform needs no boundary bookkeeping. Returns
    the restriction to the unit square (zero-mean) as a PsiField, and the
    padded field as a :class:`PaddedField`.
    """
    grid = U.grid
    n, h = grid.n, grid.h
    npad = math.ceil(pad / h)
    nbig = n + 2 * npad
    u1, u2 = _nodal_components(U)
    big1 = np.zeros((nbig, nbig))
    big2 = np.zeros((nbig, nbig))
    big1[npad:npad + n, npad:npad + n] = u1
    big2[npad:npad + n, npad:npad + n] = u2
    rhs = diff_axis0(big1, h) + diff_axis0(big2.T, h).T
    big_psi = dirichlet_laplace_solve(rhs, h)
    inner_vals = big_psi[npad:npad + n, npad:npad + n]
    restricted = inner_vals - integrate(ScalarField(grid, inner_vals))
    return (PsiField(ScalarField(grid, restricted), "ground_truth"),
            PaddedField(big_psi, -npad * h, h))


# ---------------------------------------------------------------------------
# the measurement cylinder: norms, p and the radial derivative


def cylinder_inner(s1: Sinogram, s2: Sinogram, radial_weight=False) -> float:
    """L2 inner product on the cylinder, uniform weights.

    With ``radial_weight`` the measure carries the polar Jacobian r, which is
    the pairing in which the backprojection is the exact continuum adjoint of
    the forward transform.
    """
    w = source_weight(s1.config, s1.ny) * radial_step(s1.config, s1.nr)
    prod = s1.values * s2.values
    if radial_weight:
        prod = prod * s1.radii()[None, :]
    return w * float(np.sum(prod))


def radial_derivative(s: Sinogram) -> Sinogram:
    """Forward difference in r with a zero ghost past the last radius.

    This is the derivative whose negative transpose is the radial
    integration used by the primitive operator, which makes p* an exact left
    inverse on supported data.
    """
    dr = radial_step(s.config, s.nr)
    out = np.empty_like(s.values)
    out[:, :-1] = (s.values[:, 1:] - s.values[:, :-1]) / dr
    out[:, -1] = -s.values[:, -1] / dr
    return s.copy_with(out)


def g_norm(s: Sinogram) -> float:
    """Hilbert norm on G: (L2^2 + L2(d/dr)^2)^(1/2)."""
    d = radial_derivative(s)
    return math.sqrt(max(cylinder_inner(s, s) + cylinder_inner(d, d), 0.0))


def g_dual_norm(s: Sinogram) -> float:
    """Dual (Hilbertized G^-1) norm via per-source tridiagonal solves of
    (I - d^2/dr^2) z = u with zero endpoint values."""
    from scipy.linalg import solve_banded

    nr = s.nr
    dr = radial_step(s.config, s.nr)
    m = nr - 2
    if m <= 0:
        return 0.0
    ab = np.zeros((3, m))
    ab[0, 1:] = -1.0 / dr**2
    ab[1, :] = 1.0 + 2.0 / dr**2
    ab[2, :-1] = -1.0 / dr**2
    rhs = s.values[:, 1:-1].T
    z = solve_banded((1, 1), ab, rhs)
    pairing = np.sum(s.values[:, 1:-1] * z.T)
    w = source_weight(s.config, s.ny) * dr
    return math.sqrt(max(w * float(pairing), 0.0))


def apply_p(s: Sinogram) -> Sinogram:
    """Primitive-in-r with the rescaled correction; lands in discrete G0
    (exact zeros at r = 0 and r = R). ``radon.apply_p_star`` is its exact
    transpose."""
    P = _p_matrix(s.nr, s.config.r0, s.config.R)
    return s.copy_with(s.values @ P.T)


# ---------------------------------------------------------------------------
# circular transforms


def circle_transform(values, config, ny, nr, h, origin=0.0, extent=1.0):
    """The circle quadrature of ``radon.radon_forward`` one (source, radius)
    pair at a time, through ``bilinear_gather``, for a field of spacing h on
    the square [origin, origin + extent]^2; a sample outside it reads zero.
    Returns the (ny, nr) values."""
    out = np.zeros((ny, nr))
    for m, y in enumerate(config.sources(ny)):
        for q, r in enumerate(config.radii(nr)):
            c = max(64, int(np.ceil(2 * np.pi * r / h)))
            t = 2 * np.pi * np.arange(c) / c
            px = (y[0] + r * np.cos(t) - origin) / extent
            py = (y[1] + r * np.sin(t) - origin) / extent
            out[m, q] = (2 * np.pi / c) * np.sum(
                kernels.bilinear_gather(values, px, py, h / extent))
    return out


def rays_meeting_support(phantom, y, lo, hi, ct, st):
    """Indices of the rays y + rho (ct, st), rho in [lo, hi], that come within
    an inclusion's bounding radius (plus 1e-9 for rounding) of its centre.

    Phantom.eval returns exactly a0 at every point of the other rays.
    """
    return np.nonzero(acousto._meets_support(phantom, y, lo, hi, ct, st))[0]


def _theta_jump_angles(inclusion, y, rho):
    """Angles (around the source) where the circle of radius rho crosses a
    disk inclusion rim; None for other shapes or no crossing."""
    if inclusion.shape != "disk":
        return None
    cx, cy = inclusion.center
    d = math.hypot(cx - y[0], cy - y[1])
    if d == 0.0:
        return None
    carg = (rho * rho + d * d - inclusion.radius**2) / (2 * rho * d)
    if not (-1.0 < carg < 1.0):
        return None
    beta = math.acos(carg)
    t0 = math.atan2(cy - y[1], cx - y[0])
    return (t0 - beta, t0 + beta)


def _circle_integral(eval_fn, jump_fn, rho, ntheta):
    """Trapezoid of a piecewise-smooth integrand over a circle with exact
    two-piece corrections at the listed jump angles.

    ``eval_fn(angles)`` returns integrand samples; ``jump_fn(rho)`` yields
    (angle, below, above) descriptors of each jump.
    """
    theta = np.linspace(0.0, 2 * np.pi, ntheta, endpoint=False)
    step = 2 * np.pi / ntheta
    vals = eval_fn(theta)
    total = step * float(np.sum(vals))
    for angle, below, above in jump_fn(rho):
        ang = angle % (2 * np.pi)
        cell = int(ang / step) % ntheta
        t_lo = theta[cell]
        nxt = (cell + 1) % ntheta
        g_lo = vals[cell]
        g_hi = vals[nxt]
        plain = 0.5 * step * (g_lo + g_hi)
        exact = 0.5 * (ang - t_lo) * (g_lo + below) + 0.5 * (
            t_lo + step - ang) * (above + g_hi)
        total += exact - plain
    return total


def ideal_radon_psi(U, config, ny: int, nr: int) -> Sinogram:
    """Circular transform of the decaying-gauge potential, semi-analytic.

    Averaging the logarithmic kernel over circles collapses the potential
    solve:

        R[psi](y, r) = int_{|z-y| > r} U(z) . (z - y)/|z-y|^2 dz
                     = int_theta [(a - a0) phi^2](y + r xi) dtheta
                       - int_r^inf int_theta (a - a0) d/drho(phi^2) dtheta drho

    The boundary term is a circle integral with rim jumps handled exactly
    (for disks); the area term is a cumulative radial integral of smooth
    circle integrals. Everything is evaluated from the symbolic phantom and
    the interpolated optical field, so the accuracy is independent of the
    wavefront thickness. Both integrands carry the factor a - a0, which is
    exactly zero off the inclusions, so they are evaluated only on the rays
    (and circle points) that ``rays_meeting_support`` keeps.
    """
    phantom = U.phantom
    grid = U.grid
    h = grid.h
    phi = U.phi.values
    grad_phi = gradient(U.phi)
    # phi and its gradient are read at the same points
    phi_fields = np.stack([phi, grad_phi.vx, grad_phi.vy])
    sources = config.sources(ny)
    radii = config.radii(nr)
    out = np.zeros((ny, nr))
    if not phantom.inclusions:
        return Sinogram(config, ny, nr, out)

    for m in range(ny):
        y = sources[m]
        lo = math.inf
        hi = 0.0
        for inc in phantom.inclusions:
            d = math.hypot(inc.center[0] - y[0], inc.center[1] - y[1])
            rb = inc.bounding_radius()
            lo = min(lo, d - rb)
            hi = max(hi, d + rb)
        lo = max(lo - 2 * h, 1e-6)
        hi = hi + 2 * h
        nrho = max(64, int(math.ceil((hi - lo) / (h / 2))) + 1)
        rho_f = np.linspace(lo, hi, nrho)
        ntheta = max(64, int(np.ceil(2 * np.pi * hi / (0.5 * h))))
        theta = np.linspace(0.0, 2 * np.pi, ntheta, endpoint=False)
        ct, st = np.cos(theta), np.sin(theta)

        def contrast_at(px, py):
            return phantom.eval(px, py) - phantom.a0

        # area term integrand g(rho) = int (a - a0) d/drho(phi^2) dtheta
        keep = rays_meeting_support(phantom, y, lo, hi, ct, st)
        ck, sk = ct[keep], st[keep]
        px = y[0] + np.outer(rho_f, ck)
        py = y[1] + np.outer(rho_f, sk)
        phi_at, dpx, dpy = kernels.bilinear_gather(phi_fields, px, py, h)
        dphi2 = 2.0 * phi_at * (dpx * ck[None, :] + dpy * sk[None, :])
        area = np.zeros((nrho, ntheta))
        area[:, keep] = contrast_at(px, py) * dphi2
        gvals = (2 * np.pi / ntheta) * np.sum(area, axis=1)
        # reverse cumulative trapezoid: C(rho) = int_rho^hi g
        drho = rho_f[1] - rho_f[0]
        rev = np.zeros(nrho)
        rev[:-1] = 0.5 * drho * (gvals[:-1] + gvals[1:])
        cum = np.cumsum(rev[::-1])[::-1]

        def jumps_at(rho):
            descr = []
            for inc in phantom.inclusions:
                pair = _theta_jump_angles(inc, y, rho)
                if pair is None:
                    continue
                for ang in pair:
                    pxj = y[0] + rho * math.cos(ang)
                    pyj = y[1] + rho * math.sin(ang)
                    phij = float(kernels.bilinear_gather(
                        phi, np.array([pxj]), np.array([pyj]), h)[0])
                    eps = 1e-9
                    # scalar points, so Phantom.eval returns a float
                    q_in = contrast_at(y[0] + rho * math.cos(ang - eps),
                                       y[1] + rho * math.sin(ang - eps))
                    q_out = contrast_at(y[0] + rho * math.cos(ang + eps),
                                        y[1] + rho * math.sin(ang + eps))
                    descr.append((ang, q_in * phij**2, q_out * phij**2))
            return descr

        for qi, r in enumerate(radii):
            if r >= hi:
                continue
            if r <= lo:
                out[m, qi] = -cum[0]
                continue

            def boundary_eval(th):
                cb, sb = np.cos(th), np.sin(th)
                on = rays_meeting_support(phantom, y, r, r, cb, sb)
                pb = y[0] + r * cb[on]
                qb = y[1] + r * sb[on]
                pv = kernels.bilinear_gather(phi, pb, qb, h)
                vals = np.zeros(th.size)
                vals[on] = contrast_at(pb, qb) * pv**2
                return vals

            # the cut introduces a circle term whose normal points back
            # toward the source, hence the minus sign
            t2 = _circle_integral(boundary_eval, jumps_at, r, ntheta)
            t1 = -float(np.interp(r, rho_f, cum))
            out[m, qi] = t1 - t2
    return Sinogram(config, ny, nr, out)


def identity_prediction(U, config, ny: int, nr: int) -> Sinogram:
    """Ideal-data prediction r0 ||w||_1 d/dr R[psi] from the semi-analytic
    transform of the decaying-gauge potential (the gauge in which the
    prediction matches the measurements without boundary terms)."""
    d = radial_derivative(ideal_radon_psi(U, config, ny, nr))
    return d.copy_with(d.values * (config.r0 * config.w_l1))


# ---------------------------------------------------------------------------
# the acoustic perturbation and the forms of M


def displacement_v(config, y, r, grid):
    """Leading-order radial displacement v of the diverging wavefront, as a
    VectorField: amp w((r - d)/eta) along the unit ray from y, with
    d = |x - y| and amp = eta r0/r."""
    acousto._check_radius(r)
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


def displaced_coefficient(ctx, config, y, r) -> ScalarField:
    """The displaced coefficient a_u = a(x + u(x)) on the field grid, from
    the displaced shell that the sweep builds; equal to
    ``phantom.sample_displaced(grid, displacement_u(...))`` when ``ctx.a`` is
    the sampled phantom."""
    return acousto._with_shell(ctx, acousto._displaced_shell(ctx, config, y,
                                                             r))


def grid_M_eta(ctx, config, y, r) -> float:
    """``acousto.measure_M_eta`` by the plain trapezoid rule on the field
    grid instead of the polar shell quadrature, on the same perturbed solve.
    It needs h well below eta r0/r to see the jump slivers."""
    if acousto._ShellQuadrature.misses_support(ctx.phantom, config, y, r):
        return 0.0
    a_u, phi_u = acousto.perturbed_solution(ctx, config, y, r)
    diff = a_u.values - ctx.a.values
    if not diff.any():
        return 0.0
    integrand = ScalarField(ctx.grid,
                            diff * ctx.solution.phi.values * phi_u.values)
    return integrate(integrand) / config.eta**2


def measure_cross_correlation(ctx, config, y, r, f, g) -> float:
    """Boundary cross-correlation (1/eta^2) int_bdry (f flux_u^g - g flux^f)
    for boundary illuminations f and g.

    With f = g this reproduces the internal form of M_eta up to the discrete
    Green-identity mismatch. Like the other measurements it is zero for
    r <= r0, the dead zone of the sweep.
    """
    if np.min(f.values) < 0 or np.min(g.values) < 0:
        raise ValueError("boundary illuminations must be nonnegative")
    if r <= config.r0:
        return 0.0
    # lone solves, to relative residual 1e-12: M is a small difference of
    # two fluxes
    sol_f = solve_T(RobinProblem(ctx.a, f, ctx.l))
    a_u = displaced_coefficient(ctx, config, y, r)
    sol_g_u = solve_T(RobinProblem(a_u, g, ctx.l))
    boundary = f.values * sol_g_u.flux.values - g.values * sol_f.flux.values
    return ctx.grid.h * float(np.sum(boundary)) / config.eta**2


# ---------------------------------------------------------------------------
# inclusion rims and the transversality condition


def boundary_normal(inclusion, t):
    """Outward unit normal at parameter t of the rim parameterization
    ``Inclusion.boundary_points`` uses."""
    if inclusion.shape == "disk":
        return np.column_stack([np.cos(t), np.sin(t)])
    a, b = inclusion.semi_axes
    # gradient of the implicit shape function in local coords
    nu = np.cos(t) / a
    nv = np.sin(t) / b
    ca, sa = math.cos(inclusion.angle), math.sin(inclusion.angle)
    nx = ca * nu - sa * nv
    ny = sa * nu + ca * nv
    norm = np.hypot(nx, ny)
    return np.column_stack([nx / norm, ny / norm])


def boundary_curvature(inclusion, t):
    """Curvature of the rim at parameter t."""
    if inclusion.shape == "disk":
        return np.full_like(np.asarray(t, dtype=float), 1.0 / inclusion.radius)
    a, b = inclusion.semi_axes
    denom = (a * a * np.sin(t) ** 2 + b * b * np.cos(t) ** 2) ** 1.5
    return a * b / denom


def check_transversality(phantom, y, r, eta, min_angle_deg=5.0,
                         curvature_tol=1e-3, samples=1440) -> bool:
    """Check the wavefront/boundary transversality condition.

    For every sampled rim point of every inclusion lying inside the spherical
    shell of radius r (thickness 2*eta) around the source y, either the
    ray-to-normal angle exceeds ``min_angle_deg`` or the rim curvature
    differs from the wavefront curvature 1/|x - y| by more than
    ``curvature_tol``.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    ysrc = np.asarray(y, dtype=float)
    delta = math.radians(min_angle_deg)
    for inc in phantom.inclusions:
        t = np.linspace(0.0, 2 * np.pi, samples, endpoint=False)
        pts = inc.boundary_points(samples)
        d = np.hypot(pts[:, 0] - ysrc[0], pts[:, 1] - ysrc[1])
        in_shell = (d > r - eta) & (d < r + eta)
        if not np.any(in_shell):
            continue
        rays = (pts[in_shell] - ysrc) / d[in_shell, None]
        normals = boundary_normal(inc, t[in_shell])
        cosang = np.abs(np.sum(rays * normals, axis=1)).clip(0.0, 1.0)
        angle = np.arccos(cosang)
        kappa = boundary_curvature(inc, t[in_shell])
        wavefront_kappa = 1.0 / d[in_shell]
        tangential = angle <= delta
        matched = np.abs(kappa - wavefront_kappa) <= curvature_tol
        if np.any(tangential & matched):
            return False
    return True
