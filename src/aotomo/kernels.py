"""The hot kernels: the bump profile, the stencil operators, bilinear
gather/scatter and the radial inverse of the wavefront's position map.

The stencil operators :func:`robin_apply` and :func:`dirichlet_apply` are
the matrix-vector products of ``diffusion.RobinOperator`` at l > 0 and at
l = 0, the Dirichlet limit; :func:`edge_form_apply` is the reference for the
tests of the direct solves in ``fields``.

:data:`BUMP_PRIME_SUP` is sup |w'| of the bump profile. It decides where the
position map is monotone: ``acousto.AcousticConfig.monotone_radius`` and the
branch choice in :func:`radial_invert` both read it.

:func:`bilinear_corners` holds the corner-index and weight arithmetic of
bilinear interpolation once; :func:`bilinear_gather`, :func:`bilinear_scatter`
and the sparse circle matrix of ``radon`` are built on it.

All arrays are float64 and C-contiguous; fields are (n, n) with index [i, j]
mapping to the point (i*h, j*h).
"""

import math

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


# sup |w'| in closed form: w'' = 0 at s = 3^(-1/4), where 1 - s^2 = 1 - 3^(-1/2)
BUMP_PRIME_SUP = (2.0 * 3.0**-0.25 / (1.0 - 3.0**-0.5)**2
                  * math.exp(1.0 - 1.0 / (1.0 - 3.0**-0.5)))


def robin_apply(x, a, l, h, out=None):
    """Apply the symmetrized Robin diffusion operator.

    Interior rows are (-lap + a) x with the 5-point stencil; boundary rows use
    a second-order ghost elimination of l*dnu(x) + x = 0 and are scaled by the
    trapezoid pattern (1/2 on edges, 1/4 on corners) so the operator is
    symmetric positive definite in the plain dot product.

    ``x`` is one (n, n) field or a stack (k, n, n) of fields, and ``a`` is
    one coefficient or a matching stack of k; each field is mapped by its own
    operator.
    """
    n = x.shape[-1]
    h2 = h * h
    if out is None:
        out = np.empty_like(x)
    xp = np.empty(x.shape[:-2] + (n + 2, n + 2), dtype=np.float64)
    xp[..., 1:-1, 1:-1] = x
    xp[..., 0, 1:-1] = x[..., 1, :]
    xp[..., -1, 1:-1] = x[..., -2, :]
    xp[..., 1:-1, 0] = x[..., :, 1]
    xp[..., 1:-1, -1] = x[..., :, -2]
    np.multiply(x, 4.0, out=out)
    out -= xp[..., :-2, 1:-1]
    out -= xp[..., 2:, 1:-1]
    out -= xp[..., 1:-1, :-2]
    out -= xp[..., 1:-1, 2:]
    out /= h2
    # the padded copy is spent; its interior takes a * x
    ax = xp[..., 1:-1, 1:-1]
    np.multiply(a, x, out=ax)
    out += ax
    robin = 2.0 / (l * h)
    out[..., 0, :] += robin * x[..., 0, :]
    out[..., -1, :] += robin * x[..., -1, :]
    out[..., :, 0] += robin * x[..., :, 0]
    out[..., :, -1] += robin * x[..., :, -1]
    out[..., 0, :] *= 0.5
    out[..., -1, :] *= 0.5
    out[..., :, 0] *= 0.5
    out[..., :, -1] *= 0.5
    return out


def dirichlet_apply(x, a, h):
    """Apply (-lap + a) with homogeneous Dirichlet data.

    Boundary entries of ``x`` are ignored (treated as zero) and boundary rows
    of the output are zero. ``x`` and ``a`` are one field or stacks, as for
    :func:`robin_apply`; ``a`` may be None for -lap alone.
    """
    h2 = h * h
    out = np.zeros_like(x)
    xi = x[..., 1:-1, 1:-1]
    core = (4.0 * xi - x[..., :-2, 1:-1] - x[..., 2:, 1:-1]
            - x[..., 1:-1, :-2] - x[..., 1:-1, 2:])
    # cancel the reads of boundary entries (treated as zero)
    core[..., 0, :] += x[..., 0, 1:-1]
    core[..., -1, :] += x[..., -1, 1:-1]
    core[..., :, 0] += x[..., 1:-1, 0]
    core[..., :, -1] += x[..., 1:-1, -1]
    core /= h2
    if a is not None:
        core += a[..., 1:-1, 1:-1] * xi
    out[..., 1:-1, 1:-1] = core
    return out


def edge_form_apply(x, cx, cy):
    """Apply the edge-difference quadratic form operator.

    out[p] = sum over edges e=(p,q) of c_e * (x[p] - x[q]); ``cx`` has shape
    (n-1, n) for x-directed edges, ``cy`` has shape (n, n-1).
    """
    out = np.zeros_like(x)
    fx = cx * (x[1:, :] - x[:-1, :])
    out[1:, :] += fx
    out[:-1, :] -= fx
    fy = cy * (x[:, 1:] - x[:, :-1])
    out[:, 1:] += fy
    out[:, :-1] -= fy
    return out


def bilinear_gather(values, px, py, h, field=None):
    """Sample a grid field at arbitrary points; zero outside the unit square.

    ``values`` is one (n, n) field or a stack (k, n, n) of fields read at the
    same points; the corners and weights are computed once for the stack.
    The result has the shape of ``px``, after a leading axis of length k for
    a stack.

    ``field`` picks the fields of a stack per point instead: an integer
    array whose trailing axes broadcast to the shape of ``px``, and whose
    leading axes, if any, read several fields at each point. The result has
    the shape of ``field`` broadcast to ``px``, and its entry at point p
    reads the field ``field[..., p]``.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[-1]
    keep, index, weight = bilinear_corners(px, py, h, n)
    if field is None:
        shape = values.shape[:-2] + np.shape(px)
        stack = values.reshape(-1, n * n)

        def corner(c):
            return np.take(stack, index[c], axis=1)
    else:
        field = np.asarray(field)
        reads = field.shape[:max(field.ndim - np.ndim(px), 0)]
        shape = reads + np.shape(px)
        # where each read's field starts in the flat stack
        start = np.broadcast_to(field * (n * n), shape).reshape(
            math.prod(reads), keep.size)
        if not keep.all():
            start = start[:, keep]
        flat = values.reshape(-1)

        def corner(c):
            return np.take(flat, index[c] + start)
    # one corner at a time, so no array holds all four corners of every read
    v = corner(0) * weight[0]
    v += corner(1) * weight[1]
    v += corner(2) * weight[2]
    v += corner(3) * weight[3]
    if keep.all():
        return v.reshape(shape)
    out = np.zeros((v.shape[0], keep.size))
    out[:, keep] = v
    return out.reshape(shape)


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
    if not keep.all():
        px = px[keep]
        py = py[keep]
    # in place where it can be: this runs on every shell-quadrature pass
    tx = np.clip(px / h, 0.0, n - 1 - 1e-12)
    ty = np.clip(py / h, 0.0, n - 1 - 1e-12)
    ix = tx.astype(np.intp)
    iy = ty.astype(np.intp)
    tx -= ix
    ty -= iy
    sx = 1.0 - tx
    sy = 1.0 - ty
    index = np.empty((4, px.size), dtype=np.intp)
    np.multiply(ix, n, out=index[0])
    index[0] += iy
    np.add(index[0], n, out=index[1])
    np.add(index[0], 1, out=index[2])
    np.add(index[0], n + 1, out=index[3])
    weight = np.empty((4, px.size))
    np.multiply(sx, sy, out=weight[0])
    np.multiply(tx, sy, out=weight[1])
    np.multiply(sx, ty, out=weight[2])
    np.multiply(tx, ty, out=weight[3])
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


# nodes of the table that seeds the radial inverse's Newton iteration, and
# the bump on them
_SEED_NODES = np.linspace(-1.0, 1.0, 257)
_SEED_BUMP = bump(_SEED_NODES)
_NEWTON_TOL = 1e-14
_NEWTON_MAX_STEPS = 8


def radial_invert(dist, r, amp, eta):
    """Solve rho + amp*w((r - rho)/eta) = d for each entry of ``dist``.

    ``r``, ``amp`` and ``eta`` are scalars and w is :func:`bump`. In the shell
    variable s = (r - rho)/eta the equation reads F(s) = s - alpha*w(s) = t,
    with alpha = amp/eta and t = (r - d)/eta.

    - If alpha*sup|w'| < 1, F is strictly increasing and the root is unique.
      Where |t| >= 1 the root is rho = d exactly, since w vanishes there.
      Elsewhere s is seeded by linear interpolation in a table of F on
      [-1, 1] and polished by Newton steps until every step is below 1e-14.
      Points still moving after 8 steps, which happens only where F' nearly
      vanishes next to the fold at alpha*sup|w'| = 1, are solved by
      bisection.
    - Otherwise the map folds, and bisection on the bracket
      [d - amp, d + amp] picks the branch; see :func:`_bisect`.

    Returns the root array rho, shaped like ``dist``.
    """
    d = np.asarray(dist, dtype=np.float64)
    alpha = amp / eta
    if alpha * BUMP_PRIME_SUP >= 1.0:
        return _bisect(d, r, amp, eta)
    rho = d.copy()
    t = (r - d) / eta
    shell = np.abs(t) < 1.0
    ts = t[shell]
    s = np.interp(ts, _SEED_NODES - alpha * _SEED_BUMP, _SEED_NODES)
    for _ in range(_NEWTON_MAX_STEPS):
        step = (s - alpha * bump(s) - ts) / (1.0 - alpha * bump_prime(s))
        s -= step
        slow = np.abs(step) > _NEWTON_TOL
        if not slow.any():
            break
    rho_shell = r - eta * s
    if slow.any():
        rho_shell[slow] = _bisect(d[shell][slow], r, amp, eta)
    rho[shell] = rho_shell
    return rho


def _bisect(d, r, amp, eta):
    """Vectorized bisection for :func:`radial_invert` on the bracket
    [d - amp, d + amp], at most 60 halvings, stopping once every bracket is
    narrower than 1e-13. Where the map folds it returns the root that this
    sequence of halvings selects."""
    lo = d - amp
    hi = d + amp
    # g(rho) = rho + amp*w((r-rho)/eta) - d is <= 0 at lo and >= 0 at hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        g = mid + amp * bump((r - mid) / eta) - d
        neg = g < 0.0
        lo = np.where(neg, mid, lo)
        hi = np.where(neg, hi, mid)
        if np.max(hi - lo, initial=0.0) < 1e-13:
            break
    return 0.5 * (lo + hi)
