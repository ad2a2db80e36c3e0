"""The hot kernels: the bump profile, the stencil operators, bilinear
gather/scatter and the radial inverse of the wavefront's position map.

:func:`bilinear_corners` holds the corner-index and weight arithmetic of
bilinear interpolation once; :func:`bilinear_scatter` and the sparse circle
matrix of ``radon`` are built on it. :func:`bilinear_gather` keeps its own
inline copy, because the shell quadrature calls it on every sweep cell.

All arrays are float64 and C-contiguous; fields are (n, n) with index [i, j]
mapping to the point (i*h, j*h).
"""

import numpy as np

# bench/run.py records this name with every benchmark result
BACKEND = "numpy"


def bump(s):
    """Smooth unit-amplitude profile exp(1 - 1/(1-s^2)) supported on (-1, 1)."""
    s = np.asarray(s, dtype=np.float64)
    out = np.zeros_like(s)
    m = np.abs(s) < 1.0
    sm = s[m]
    out[m] = np.exp(1.0 - 1.0 / (1.0 - sm * sm))
    return out


def bump_prime(s):
    """Derivative of :func:`bump`."""
    s = np.asarray(s, dtype=np.float64)
    out = np.zeros_like(s)
    m = np.abs(s) < 1.0
    sm = s[m]
    t = 1.0 - sm * sm
    out[m] = -2.0 * sm / (t * t) * np.exp(1.0 - 1.0 / t)
    return out


def robin_apply(x, a, l, h, out=None):
    """Apply the symmetrized Robin diffusion operator.

    Interior rows are (-lap + a) x with the 5-point stencil; boundary rows use
    a second-order ghost elimination of l*dnu(x) + x = 0 and are scaled by the
    trapezoid pattern (1/2 on edges, 1/4 on corners) so the operator is
    symmetric positive definite in the plain dot product.
    """
    n = x.shape[0]
    h2 = h * h
    if out is None:
        out = np.empty_like(x)
    xp = np.empty((n + 2, n + 2), dtype=np.float64)
    xp[1:-1, 1:-1] = x
    xp[0, 1:-1] = x[1, :]
    xp[-1, 1:-1] = x[-2, :]
    xp[1:-1, 0] = x[:, 1]
    xp[1:-1, -1] = x[:, -2]
    np.multiply(x, 4.0, out=out)
    out -= xp[:-2, 1:-1]
    out -= xp[2:, 1:-1]
    out -= xp[1:-1, :-2]
    out -= xp[1:-1, 2:]
    out /= h2
    out += a * x
    robin = 2.0 / (l * h)
    out[0, :] += robin * x[0, :]
    out[-1, :] += robin * x[-1, :]
    out[:, 0] += robin * x[:, 0]
    out[:, -1] += robin * x[:, -1]
    out[0, :] *= 0.5
    out[-1, :] *= 0.5
    out[:, 0] *= 0.5
    out[:, -1] *= 0.5
    return out


def dirichlet_apply(x, a, h, out=None):
    """Apply (-lap + a) with homogeneous Dirichlet data.

    Boundary entries of ``x`` are ignored (treated as zero) and boundary rows
    of the output are zero.
    """
    h2 = h * h
    if out is None:
        out = np.zeros_like(x)
    else:
        out[0, :] = 0.0
        out[-1, :] = 0.0
        out[:, 0] = 0.0
        out[:, -1] = 0.0
    xi = x[1:-1, 1:-1]
    core = 4.0 * xi - x[:-2, 1:-1] - x[2:, 1:-1] - x[1:-1, :-2] - x[1:-1, 2:]
    # cancel the reads of boundary entries (treated as zero)
    core[0, :] += x[0, 1:-1]
    core[-1, :] += x[-1, 1:-1]
    core[:, 0] += x[1:-1, 0]
    core[:, -1] += x[1:-1, -1]
    core /= h2
    if a is not None:
        core += a[1:-1, 1:-1] * xi
    out[1:-1, 1:-1] = core
    return out


def edge_form_apply(x, cx, cy, out=None):
    """Apply the edge-difference quadratic form operator.

    out[p] = sum over edges e=(p,q) of c_e * (x[p] - x[q]); ``cx`` has shape
    (n-1, n) for x-directed edges, ``cy`` has shape (n, n-1).
    """
    if out is None:
        out = np.zeros_like(x)
    else:
        out[...] = 0.0
    fx = cx * (x[1:, :] - x[:-1, :])
    out[1:, :] += fx
    out[:-1, :] -= fx
    fy = cy * (x[:, 1:] - x[:, :-1])
    out[:, 1:] += fy
    out[:, :-1] -= fy
    return out


def bilinear_gather(values, px, py, h):
    """Sample a grid field at arbitrary points; zero outside the unit square."""
    n = values.shape[0]
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    inside = (px >= 0.0) & (px <= 1.0) & (py >= 0.0) & (py <= 1.0)
    gx = np.clip(px / h, 0.0, n - 1 - 1e-12)
    gy = np.clip(py / h, 0.0, n - 1 - 1e-12)
    ix = gx.astype(np.intp)
    iy = gy.astype(np.intp)
    tx = gx - ix
    ty = gy - iy
    v = (
        values[ix, iy] * (1.0 - tx) * (1.0 - ty)
        + values[ix + 1, iy] * tx * (1.0 - ty)
        + values[ix, iy + 1] * (1.0 - tx) * ty
        + values[ix + 1, iy + 1] * tx * ty
    )
    return np.where(inside, v, 0.0)


def bilinear_corners(px, py, h, n):
    """The four grid nodes and weights that bilinear interpolation uses.

    Points outside the unit square, where :func:`bilinear_gather` reads zero,
    are dropped. Returns ``(keep, index, weight)``: ``keep`` is the boolean
    mask of the kept points, and ``index`` and ``weight`` have shape
    (4, kept), holding the flat C-order index into an (n, n) field and the
    weight of the corners (i, j), (i+1, j), (i, j+1) and (i+1, j+1).
    """
    px = np.asarray(px, dtype=np.float64).ravel()
    py = np.asarray(py, dtype=np.float64).ravel()
    keep = (px >= 0.0) & (px <= 1.0) & (py >= 0.0) & (py <= 1.0)
    gx = np.clip(px[keep] / h, 0.0, n - 1 - 1e-12)
    gy = np.clip(py[keep] / h, 0.0, n - 1 - 1e-12)
    ix = gx.astype(np.intp)
    iy = gy.astype(np.intp)
    tx = gx - ix
    ty = gy - iy
    base = ix * n + iy
    index = np.stack([base, base + n, base + 1, base + n + 1])
    weight = np.stack([(1.0 - tx) * (1.0 - ty), tx * (1.0 - ty),
                       (1.0 - tx) * ty, tx * ty])
    return keep, index, weight


def bilinear_scatter(vals, px, py, h, out):
    """Exact transpose of :func:`bilinear_gather`: accumulate into a grid."""
    n = out.shape[0]
    keep, index, weight = bilinear_corners(px, py, h, n)
    v = np.asarray(vals, dtype=np.float64).ravel()[keep]
    acc = np.bincount(index.ravel(), weights=(weight * v).ravel(),
                      minlength=n * n)
    out += acc.reshape(n, n)
    return out


def radial_invert(dist, r, amp, eta):
    """Solve rho + amp*w((r - rho)/eta) = d for each entry of ``dist``.

    Vectorized bisection on the guaranteed bracket [d - amp, d + amp], at
    most 60 halvings, stopping once every bracket is narrower than 1e-13;
    the profile w is :func:`bump`. Returns the root array rho.
    """
    d = np.asarray(dist, dtype=np.float64)
    lo = d - amp
    hi = d + amp
    # g(rho) = rho + amp*w((r-rho)/eta) - d is <= 0 at lo and >= 0 at hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        g = mid + amp * bump((r - mid) / eta) - d
        neg = g < 0.0
        lo = np.where(neg, mid, lo)
        hi = np.where(neg, hi, mid)
        if np.max(hi - lo) < 1e-13:
            break
    return 0.5 * (lo + hi)
