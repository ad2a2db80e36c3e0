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

The pipeline runs p*, the forward transform and its inversion. The paper's
oracles for them (p itself, that radial derivative, the cylinder norms, the
ideal-data prediction r0 ||w||_1 d/dr R[psi] and the semi-analytic R[psi])
are in ``tests/reference.py``.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from . import kernels
from .acousto import AcousticConfig, Sinogram
from .fields import Grid, ScalarField, SolverError, cg


# ---------------------------------------------------------------------------
# cylinder geometry


def source_weight(config: AcousticConfig, ny: int) -> float:
    """Arc-length weight of one source sample on the circle."""
    return 2 * math.pi * config.mu / ny


def radial_step(config: AcousticConfig, nr: int) -> float:
    return config.R / (nr - 1)


# ---------------------------------------------------------------------------
# forward transform and backprojection


def _angle_counts(config: AcousticConfig, nr: int, h: float):
    radii = config.radii(nr)
    return np.maximum(64, np.ceil(2 * np.pi * radii / h).astype(int))


class _SampleLayout:
    """The circle quadrature of the forward transform, as one matrix in
    compressed rows.

    The sampled square is the unit square of a :class:`Grid`, with n nodes
    per axis and spacing h. Radius r_q carries c_q = max(64, ceil(2 pi r_q / h))
    equally spaced angles of weight 2 pi / c_q (``wtheta``, with ``offsets``
    marking where each radius starts). Row m*nr + q holds, for source m and
    radius r_q, each sample's four bilinear corner weights times its angular
    weight; a sample outside the square reads zero and has no entries.
    Entries of one row that share a node are merged, so the row is stored as
    its ``counts`` distinct nodes: flat indices ``cols`` (int64) and weights
    ``vals`` (float64), 16 bytes per nonzero, with the rows one after the
    other. The geometry is fixed, so the matrix is assembled once, one
    source block at a time: the forward transform is a sum per row, and
    the transpose scatters the same entries, which makes it exact by
    construction.
    """

    def __init__(self, config, ny, nr, n, h):
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
        cols, vals, row_counts = [], [], []
        for y in self.sources:
            keep, index, weight = kernels.bilinear_corners(
                y[0] + flat_r * ct, y[1] + flat_r * st, h, n)
            weight *= self.wtheta[keep]
            # merge the entries of a row that share a node
            key, inverse = np.unique((rep[keep] * (n * n) + index).ravel(),
                                     return_inverse=True)
            vals.append(np.bincount(inverse, weight.ravel(),
                                    minlength=key.size))
            row_counts.append(np.bincount(key // (n * n), minlength=nr))
            cols.append(key % (n * n))
        # one array at a time, dropping its blocks, so the build never holds
        # twice the matrix
        self.cols = np.concatenate(cols)
        del cols
        self.vals = np.concatenate(vals)
        del vals
        self.counts = np.concatenate(row_counts)
        self.starts = np.cumsum(self.counts) - self.counts

    def forward(self, values):
        out = np.zeros(self.ny * self.nr)
        full = self.counts > 0
        if full.any():
            out[full] = np.add.reduceat(self.vals * values.ravel()[self.cols],
                                        self.starts[full])
        return out.reshape(self.ny, self.nr)

    def transpose(self, sino_values):
        """Exact transpose of :meth:`forward` (plain-dot pairing)."""
        weights = np.repeat(sino_values.ravel(), self.counts) * self.vals
        return np.bincount(self.cols, weights,
                           minlength=self.n * self.n).reshape(self.n, self.n)


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


def apply_p_star(s: Sinogram, support_tol=1e-12) -> Sinogram:
    """Exact discrete transpose of the primitive operator p, whose matrix on
    one source row is :func:`_p_matrix` (uniform radial weights).

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
    iteration costs one product with each. Non-convergence warns rather than
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
