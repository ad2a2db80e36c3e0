"""Oracles the tests check the package against; no stage of the pipeline
runs them."""

import math

import numpy as np

from aotomo.diffusion import RobinOperator
from aotomo.fields import (
    ScalarField,
    dirichlet_laplace_solve,
    edge_diff,
    edge_form_matrix,
    neumann_edge_coefficients,
    neumann_solve_weighted,
    spd_lu,
)
from aotomo.segmentation import erode_cross


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
    return U.pair_gradient(v) + pairing


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
        normals = inc.boundary_normal(t[in_shell])
        cosang = np.abs(np.sum(rays * normals, axis=1)).clip(0.0, 1.0)
        angle = np.arccos(cosang)
        kappa = inc.boundary_curvature(t[in_shell])
        wavefront_kappa = 1.0 / d[in_shell]
        tangential = angle <= delta
        matched = np.abs(kappa - wavefront_kappa) <= curvature_tol
        if np.any(tangential & matched):
            return False
    return True
