"""The hot kernels: the bump profile, the stencil operators, bilinear
gather/scatter and the radial inverse of the wavefront's position map.

The stencil operators :func:`robin_apply` and :func:`dirichlet_apply` are
the matrix-vector products of ``diffusion.RobinOperator`` at l > 0 and at
l = 0, the Dirichlet limit; :func:`edge_form_apply` is the reference for the
tests of the direct solves in ``fields``.

:data:`BUMP_PRIME_SUP` is sup |w'| of the bump profile. It decides where the
position map is monotone: ``acousto.AcousticConfig.monotone_radius`` and the
branch choice in :func:`radial_invert` both read it.

:func:`box_corners` holds the corner-index and weight arithmetic of
bilinear interpolation once. :func:`bilinear_corners` is that arithmetic on
the whole grid, for the points inside the unit square; :func:`bilinear_gather`,
:func:`bilinear_scatter` and the circle quadrature matrix of ``radon``
(``radon._SampleLayout``) are built on it; both shell quadrature passes of
``acousto`` read their fields on a box through :func:`box_corners`, and only
the benchmark and the test oracles call :func:`bilinear_gather`.

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


def robin_apply(x, a, l, h):
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


def bilinear_gather(values, px, py, h):
    """Sample a grid field at arbitrary points; zero outside the unit square.

    ``values`` is one (n, n) field or a stack (k, n, n) of fields read at the
    same points; the corners and weights are computed once for the stack.
    The result has the shape of ``px``, after a leading axis of length k for
    a stack.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[-1]
    keep, index, weight = bilinear_corners(px, py, h, n)
    shape = values.shape[:-2] + np.shape(px)
    stack = values.reshape(-1, n * n)
    # one corner at a time, so no array holds all four corners of every read
    v = np.take(stack, index[0], axis=1) * weight[0]
    for c in (1, 2, 3):
        v += np.take(stack, index[c], axis=1) * weight[c]
    if keep.all():
        return v.reshape(shape)
    out = np.zeros((v.shape[0], keep.size))
    out[:, keep] = v
    return out.reshape(shape)


def bilinear_corners(px, py, h, n):
    """The four grid nodes and weights that bilinear interpolation uses.

    Points outside the unit square, where :func:`bilinear_gather` reads zero,
    are dropped. Returns ``(keep, index, weight)``: ``keep`` is the boolean
    mask of the kept points, and ``index`` and ``weight`` are those of
    :func:`box_corners` on the whole (n, n) grid.
    """
    px = np.asarray(px, dtype=np.float64).ravel()
    py = np.asarray(py, dtype=np.float64).ravel()
    keep = (px >= 0.0) & (px <= 1.0) & (py >= 0.0) & (py <= 1.0)
    if not keep.all():
        px = px[keep]
        py = py[keep]
    index, weight = box_corners(px, py, h, (0, n, 0, n))
    return keep, index, weight


def box_corners(px, py, h, box):
    """The four nodes and weights of bilinear interpolation at the points
    ``px``, ``py`` (flattened) among the nodes of the box ``(i0, i1, j0,
    j1)``, node index ranges of a grid of spacing h.

    Each point is clamped into the box's cells: a point inside reads the
    nodes and weights it has on the whole grid, bit for bit, and any other
    point those of a cell at the box's edge. Returns ``(index, weight)`` of
    shape (4, points): the flat C-order index into the (i1 - i0, j1 - j0)
    box and the weight of the corners (i, j), (i+1, j), (i, j+1) and (i+1,
    j+1).
    """
    i0, i1, j0, j1 = box
    px = np.asarray(px, dtype=np.float64).ravel()
    py = np.asarray(py, dtype=np.float64).ravel()
    # in place where it can be: this runs on every shell-quadrature pass
    tx = np.clip(px / h, i0, i1 - 1 - 1e-12)
    ty = np.clip(py / h, j0, j1 - 1 - 1e-12)
    width = j1 - j0
    index = np.empty((4, px.size), dtype=np.intp)
    ix = tx.astype(np.intp)
    tx -= ix
    np.multiply(ix, width, out=index[0])
    del ix
    iy = ty.astype(np.intp)
    ty -= iy
    index[0] += iy
    del iy
    index[0] -= i0 * width + j0
    np.add(index[0], width, out=index[1])
    np.add(index[0], 1, out=index[2])
    np.add(index[0], width + 1, out=index[3])
    # 1 - tx and 1 - ty are built in the rows they end in, so that the
    # points hold no more temporaries than tx and ty
    weight = np.empty((4, px.size))
    np.subtract(1.0, tx, out=weight[0])
    np.multiply(weight[0], ty, out=weight[2])
    np.subtract(1.0, ty, out=weight[1])
    weight[0] *= weight[1]
    weight[1] *= tx
    np.multiply(tx, ty, out=weight[3])
    return index, weight


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
      [-1, 1] and polished by Newton steps; each point stops after its own
      first step below 1e-14. Points still moving after 8 steps, which
      happens only where F' nearly vanishes next to the fold at
      alpha*sup|w'| = 1, are solved by bisection.
    - Otherwise the map folds, and bisection on the bracket
      [d - amp, d + amp] picks the branch; see :func:`_bisect`.

    Every step is elementwise and every point stops on its own test, so a
    root does not depend on the other entries of ``dist``.

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
    # the points still stepping
    live = np.arange(s.size)
    for _ in range(_NEWTON_MAX_STEPS):
        sl, tl = s[live], ts[live]
        step = (sl - alpha * bump(sl) - tl) / (1.0 - alpha * bump_prime(sl))
        s[live] = sl - step
        live = live[np.abs(step) > _NEWTON_TOL]
        if not live.size:
            break
    rho_shell = r - eta * s
    if live.size:
        rho_shell[live] = _bisect(d[shell][live], r, amp, eta)
    rho[shell] = rho_shell
    return rho


def _bisect(d, r, amp, eta):
    """Vectorized bisection for :func:`radial_invert` on the bracket
    [d - amp, d + amp]: at most 60 halvings, each point stopping once its
    own bracket is narrower than 1e-13. Where the map folds it returns the
    root that this sequence of halvings selects."""
    lo = (d - amp).ravel()
    hi = (d + amp).ravel()
    dl = d.ravel()
    # the points whose bracket is still wide
    live = np.arange(lo.size)
    # g(rho) = rho + amp*w((r-rho)/eta) - d is <= 0 at lo and >= 0 at hi
    for _ in range(60):
        if not live.size:
            break
        a, b = lo[live], hi[live]
        mid = 0.5 * (a + b)
        neg = mid + amp * bump((r - mid) / eta) - dl[live] < 0.0
        a = np.where(neg, mid, a)
        b = np.where(neg, b, mid)
        lo[live] = a
        hi[live] = b
        live = live[b - a >= 1e-13]
    return (0.5 * (lo + hi)).reshape(d.shape)
