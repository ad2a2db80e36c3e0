"""Circular (spherical, d = 2) Radon machinery on the measurement cylinder.

The forward transform averages a field over circles centered at the sources:
R[f](y, r) = integral over the unit circle of directions of f(y + r xi).
Its continuum adjoint with respect to the radially weighted cylinder pairing
is the plain backprojection R*[s](x) = integral over sources of s(y, |x-y|).

The primitive operator p integrates in r with an r0-rescaled correction so
that p maps into functions vanishing at both radius endpoints; its discrete
transpose p* inverts the radial derivative exactly on data supported in
[r0, R]. The radial quadrature underlying p is the exact integral of the
piecewise-constant right interpolant, which is what makes the inversion
identity exact; the matching radial derivative is the forward difference
with a zero ghost past the last radius.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from . import kernels
from .acousto import AcousticConfig, Sinogram, rays_meeting_support
from .fields import Grid, ScalarField, SolverError, cg, gradient


# ---------------------------------------------------------------------------
# cylinder geometry and norms


def source_weight(config: AcousticConfig, ny: int) -> float:
    """Arc-length weight of one source sample on the circle."""
    return 2 * math.pi * config.mu / ny


def radial_step(config: AcousticConfig, nr: int) -> float:
    return config.R / (nr - 1)


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


# ---------------------------------------------------------------------------
# forward transform and backprojection


def _angle_counts(config: AcousticConfig, nr: int, h: float):
    radii = config.radii(nr)
    return np.maximum(64, np.ceil(2 * np.pi * radii / h).astype(int))


class _SampleLayout:
    """The circle quadrature of the forward transform, as one sparse matrix.

    The sampled square is [origin, origin + extent]^2 with n nodes per axis
    and spacing h: the unit square of a :class:`Grid`, or the padded square
    of a potential. Radius r_q carries c_q = max(64, ceil(2 pi r_q / h))
    equally spaced angles of weight 2 pi / c_q (``wtheta``, with ``offsets``
    marking where each radius starts). Row m*nr + q of ``matrix`` holds, for
    source m and radius r_q, each sample's four bilinear corner weights times
    its angular weight; a sample outside the square reads zero and has no
    entries. The geometry is fixed, so the matrix is assembled once: the
    forward transform is one product with it, and the transpose one product
    with its transpose, which makes the transpose exact by construction.
    """

    def __init__(self, config, ny, nr, n, h, origin=0.0, extent=1.0):
        import scipy.sparse as sp

        self.ny = ny
        self.nr = nr
        self.n = n
        counts = _angle_counts(config, nr, h)
        t = np.concatenate([2 * np.pi * np.arange(c) / c for c in counts])
        rep = np.repeat(np.arange(nr), counts)
        self.wtheta = np.repeat(2 * np.pi / counts, counts)
        self.offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
        self.sources = config.sources(ny)
        flat_r = config.radii(nr)[rep]
        ct, st = np.cos(t), np.sin(t)
        # one source at a time, so the transient arrays stay one block big
        blocks = []
        for y in self.sources:
            px = (y[0] + flat_r * ct - origin) / extent
            py = (y[1] + flat_r * st - origin) / extent
            keep, index, weight = kernels.bilinear_corners(px, py, h / extent,
                                                           n)
            rows = np.broadcast_to(rep[keep], index.shape)
            blocks.append(sp.csr_matrix(
                ((weight * self.wtheta[keep]).ravel(),
                 (rows.ravel(), index.ravel().astype(np.int32))),
                shape=(nr, n * n)))
        self.matrix = sp.vstack(blocks, format="csr")

    def forward(self, values):
        return (self.matrix @ values.ravel()).reshape(self.ny, self.nr)

    def transpose(self, sino_values):
        """Exact transpose of :meth:`forward` (plain-dot pairing)."""
        return (self.matrix.T @ sino_values.ravel()).reshape(self.n, self.n)


_layout_cache = {}


def _layout(config, ny, nr, grid):
    key = (config, ny, nr, grid)
    if key not in _layout_cache:
        _layout_cache.clear()
        _layout_cache[key] = _SampleLayout(config, ny, nr, grid.n, grid.h)
    return _layout_cache[key]


def radon_forward(f: ScalarField, config: AcousticConfig, ny: int,
                  nr: int) -> Sinogram:
    """Angular averages of f (zero-extended) over circles around sources."""
    layout = _layout(config, ny, nr, f.grid)
    return Sinogram(config, ny, nr, layout.forward(f.values))


def radon_forward_extended(ext, config: AcousticConfig, ny: int,
                           nr: int) -> Sinogram:
    """Circular transform of a padded-field potential (no domain clipping).

    ``ext`` carries (values, origin, h) of a square grid large enough that
    every measurement circle stays inside it. The circle matrix is built for
    this one call and not cached, so the plain transform's layout stays.
    """
    layout = _SampleLayout(config, ny, nr, ext.values.shape[0], ext.h,
                           ext.origin, ext.extent)
    return Sinogram(config, ny, nr, layout.forward(ext.values))


def identity_prediction(psi, config: AcousticConfig, ny: int,
                        nr: int) -> Sinogram:
    """Ideal-data prediction r0 ||w||_1 d/dr R[psi].

    Uses the padded potential when the PsiField carries one (the gauge in
    which the prediction matches the measurements without boundary terms);
    otherwise falls back to the zero-extended restriction.
    """
    if hasattr(psi, "phantom"):
        rpsi = ideal_radon_psi(psi, config, ny, nr)
    elif getattr(psi, "extended", None) is not None:
        rpsi = radon_forward_extended(psi.extended, config, ny, nr)
    else:
        rpsi = radon_forward(psi.psi, config, ny, nr)
    d = radial_derivative(rpsi)
    return d.copy_with(d.values * (config.r0 * config.w_l1))


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


def ideal_radon_psi(U, config: AcousticConfig, ny: int, nr: int) -> Sinogram:
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


def radon_adjoint(s: Sinogram, grid: Grid) -> ScalarField:
    """Backprojection R*[s](x) = sum over sources of s(y, |x-y|).

    Linear interpolation in r; the exact continuum adjoint of
    :func:`radon_forward` under the radially weighted cylinder pairing.
    """
    radii = s.radii()
    x, ygrid = grid.meshgrid()
    acc = np.zeros(grid.shape)
    w = source_weight(s.config, s.ny)
    for m in range(s.ny):
        y = s.sources()[m]
        d = np.hypot(x - y[0], ygrid - y[1])
        acc += np.interp(d, radii, s.values[m], left=0.0, right=0.0)
    return ScalarField(grid, w * acc)


# ---------------------------------------------------------------------------
# primitive operator in r and its transpose


_pmatrix_cache = {}


def _p_matrix(nr: int, r0: float, R: float):
    """Matrix of the primitive operator on one source row.

    p[phi](r) = -int_0^r (phi - (R/r0) chi_(0,r0) phi(. R/r0)); the integrals
    are exact on the piecewise-constant right interpolant of phi.
    """
    key = (nr, round(r0, 12), round(R, 12))
    if key in _pmatrix_cache:
        return _pmatrix_cache[key]
    radii = np.linspace(0.0, R, nr)
    dr = radii[1] - radii[0]

    def int_row(t):
        row = np.zeros(nr)
        if t <= 0:
            return row
        t = min(t, R)
        ncell = int(math.floor(t / dr + 1e-12))
        row[1:ncell + 1] = dr
        rem = t - ncell * dr
        if rem > 1e-13 * R and ncell + 1 < nr:
            row[ncell + 1] = rem
        return row

    P = np.zeros((nr, nr))
    for j, r in enumerate(radii):
        P[j] = -(int_row(r) - int_row(min(r, r0) * R / r0))
    _pmatrix_cache[key] = P
    return P


def apply_p(s: Sinogram) -> Sinogram:
    """Primitive-in-r with the rescaled correction; lands in discrete G0
    (exact zeros at r = 0 and r = R)."""
    P = _p_matrix(s.nr, s.config.r0, s.config.R)
    return s.copy_with(s.values @ P.T)


def apply_p_star(s: Sinogram, support_tol=1e-12) -> Sinogram:
    """Exact discrete transpose of :func:`apply_p` (uniform radial weights).

    Requires the input to vanish on radii at or below r0, matching the
    support of physical measurement data.
    """
    radii = s.radii()
    early = radii < s.config.r0 - 1e-12
    scale = np.max(np.abs(s.values)) or 1.0
    if np.any(early) and np.max(np.abs(s.values[:, early])) > support_tol * scale:
        raise ValueError("input does not vanish on radii below r0")
    P = _p_matrix(s.nr, s.config.r0, s.config.R)
    return s.copy_with(s.values @ P)


def recover_Rpsi(M: Sinogram, config: AcousticConfig) -> Sinogram:
    """Stable reconstruction of the circular transform of the potential from
    measurement data: p*(M) / (r0 ||w||_1) in two dimensions."""
    out = apply_p_star(M)
    return out.copy_with(out.values / (config.r0 * config.w_l1))


# ---------------------------------------------------------------------------
# iterative inversion of the forward transform


def invert_radon(s: Sinogram, grid: Grid, tikhonov=1e-6, tol=1e-8,
                 max_iter=500):
    """Least-squares inversion by conjugate gradient on the normal equations.

    Minimizes the plain-cylinder misfit plus Tikhonov term. The forward
    quadrature is the layout's cached circle matrix A and the internal
    transpose is A^T, so CG sees a genuinely symmetric operator, and each
    iteration costs two sparse products. Non-convergence warns rather than
    fails. Returns (field, info dict).
    """
    layout = _layout(s.config, s.ny, s.nr, grid)
    wc = source_weight(s.config, s.ny) * radial_step(s.config, s.nr)
    v = grid.trapezoid_weights()

    def normal_op(x):
        return layout.transpose(wc * layout.forward(x)) / v + tikhonov * x

    b = layout.transpose(wc * s.values) / v

    def dot(u1, u2):
        return float(np.sum(v * u1 * u2))

    try:
        x, res, it = cg(normal_op, b, tol=tol, max_iter=max_iter, dot=dot)
    except SolverError as exc:
        x, res, it = exc.iterate, exc.residual, exc.iterations
        warnings.warn(
            f"radon inversion stopped at relative residual {res:.3e} "
            f"after {it} iterations",
            RuntimeWarning,
            stacklevel=2,
        )
    return ScalarField(grid, x), {"iterations": it, "residual": float(res)}
