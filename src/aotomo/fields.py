"""Grids, sampled fields, discrete calculus, norms, and elliptic solvers.

Everything lives on a uniform n-by-n grid over the unit square; node (i, j)
sits at (i*h, j*h) with h = 1/(n-1). Values are float64 arrays indexed
[i, j] = [x-index, y-index] and are frozen after construction, so fields can
be shared freely across threads.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"AORF"
FORMAT_VERSION = 1
KIND_SCALAR = 0
KIND_VECTOR = 1
KIND_TRACE = 2
_HEADER = struct.Struct("<HBI")


class FileFormatError(ValueError):
    """An input file is corrupt or does not match what the caller expects."""


class SolverError(RuntimeError):
    """Raised when an iterative solve misses its residual target; carries
    the last iterate next to its residual and iteration count."""

    def __init__(self, message, residual=None, iterations=None, iterate=None,
                 system=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.iterate = iterate
        # on a stack, the index of the system with the largest residual
        self.system = system


def _frozen(values, shape):
    """Validate and freeze a value array.

    Construction takes ownership: if ``values`` is already float64 and
    contiguous it is frozen in place rather than copied.
    """
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.shape != shape:
        raise ValueError(f"expected shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("field values must be finite")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Grid:
    """Uniform node-centered grid on the unit square."""

    n: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("grid needs at least 3 nodes per axis")

    @property
    def h(self):
        return 1.0 / (self.n - 1)

    @property
    def shape(self):
        return (self.n, self.n)

    def coords(self):
        """1-D node coordinate array (shared by both axes)."""
        return np.linspace(0.0, 1.0, self.n)

    def meshgrid(self):
        c = self.coords()
        return np.meshgrid(c, c, indexing="ij")

    def trapezoid_factors(self):
        """1-D trapezoid factors: 1 inside, 1/2 at both ends."""
        c = np.ones(self.n)
        c[0] = c[-1] = 0.5
        return c

    def trapezoid_weights(self):
        """Node quadrature weights h^2 * c_i * c_j of the trapezoid factors."""
        c = self.trapezoid_factors()
        return (self.h * self.h) * np.outer(c, c)

    def boundary_indices(self):
        """(i, j) index arrays of the 4(n-1) boundary nodes.

        Counterclockwise from (0, 0): bottom edge y=0 (x increasing), right
        edge x=1 (y increasing), top edge y=1 (x decreasing), left edge x=0
        (y decreasing). Each corner appears once, on the edge it starts.
        """
        n = self.n
        ii = np.concatenate([
            np.arange(0, n - 1),
            np.full(n - 1, n - 1),
            np.arange(n - 1, 0, -1),
            np.zeros(n - 1, dtype=int),
        ])
        jj = np.concatenate([
            np.zeros(n - 1, dtype=int),
            np.arange(0, n - 1),
            np.full(n - 1, n - 1),
            np.arange(n - 1, 0, -1),
        ])
        return ii, jj

    def interior_margin_mask(self, margin):
        """Boolean node mask of points at least ``margin`` from the boundary."""
        x, y = self.meshgrid()
        m = margin - 1e-12
        return (x >= m) & (x <= 1 - m) & (y >= m) & (y <= 1 - m)


@dataclass(frozen=True)
class ScalarField:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values, self.grid.shape))

    def __sub__(self, other):
        if isinstance(other, ScalarField):
            return ScalarField(self.grid, self.values - other.values)
        return ScalarField(self.grid, self.values - other)


@dataclass(frozen=True)
class VectorField:
    grid: Grid
    vx: np.ndarray
    vy: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vx", _frozen(self.vx, self.grid.shape))
        object.__setattr__(self, "vy", _frozen(self.vy, self.grid.shape))

    def magnitude(self):
        return np.sqrt(self.vx**2 + self.vy**2)


@dataclass(frozen=True)
class BoundaryTrace:
    """Values on the 4(n-1) boundary nodes, counterclockwise from (0, 0)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values", _frozen(self.values, (4 * (self.grid.n - 1),))
        )

    @classmethod
    def constant(cls, grid, value):
        return cls(grid, np.full(4 * (grid.n - 1), float(value)))

    def as_grid_array(self):
        """Scatter the trace onto an (n, n) array (zero in the interior)."""
        out = np.zeros(self.grid.shape)
        ii, jj = self.grid.boundary_indices()
        out[ii, jj] = self.values
        return out


# ---------------------------------------------------------------------------
# discrete calculus


def diff_axis0(v, h):
    """Derivative along axis 0 at spacing h: central differences inside,
    one-sided second order at the two ends."""
    out = np.empty_like(v)
    out[1:-1, :] = (v[2:, :] - v[:-2, :]) / (2 * h)
    out[0, :] = (-3 * v[0, :] + 4 * v[1, :] - v[2, :]) / (2 * h)
    out[-1, :] = (3 * v[-1, :] - 4 * v[-2, :] + v[-3, :]) / (2 * h)
    return out


def gradient(f: ScalarField) -> VectorField:
    """Nodal gradient: central differences inside, one-sided second order at
    the boundary."""
    h = f.grid.h
    gx = diff_axis0(f.values, h)
    gy = diff_axis0(f.values.T, h).T
    return VectorField(f.grid, gx, gy)


def edge_diff(values):
    """Undivided node-to-edge differences: (x-edges, y-edges)."""
    return values[1:, :] - values[:-1, :], values[:, 1:] - values[:, :-1]


def edge_diff_transpose(ex, ey):
    """Exact transpose of :func:`edge_diff`: edge values summed onto nodes."""
    out = np.zeros((ex.shape[0] + 1, ex.shape[1]))
    out[1:, :] += ex
    out[:-1, :] -= ex
    out[:, 1:] += ey
    out[:, :-1] -= ey
    return out


def edge_average(values):
    """Arithmetic edge means of a node field: (x-edges, y-edges)."""
    ex = 0.5 * (values[1:, :] + values[:-1, :])
    ey = 0.5 * (values[:, 1:] + values[:, :-1])
    return ex, ey


def edge_average_transpose(ex, ey):
    """Exact transpose of :func:`edge_average`: half of each edge value
    onto both of its end nodes."""
    out = np.zeros((ex.shape[0] + 1, ex.shape[1]))
    out[1:, :] += 0.5 * ex
    out[:-1, :] += 0.5 * ex
    out[:, 1:] += 0.5 * ey
    out[:, :-1] += 0.5 * ey
    return out


def second_difference(n):
    """Dense 1-D form D^T D of the undivided node-to-edge difference D on n
    nodes: tridiagonal, diagonal (1, 2, ..., 2, 1), -1 beside it."""
    d = np.diff(np.eye(n), axis=0)
    return d.T @ d


def edge_form_matrix(cx, cy):
    """CSR matrix of v -> edge_diff_transpose(cx * dx v, cy * dy v) on the
    row-major node vector; the assembled form of ``kernels.edge_form_apply``.
    It needs SciPy, which no command of the package loads: only the tests
    and the benchmark call it.
    """
    import scipy.sparse as sp

    n = cx.shape[1]
    ones = np.ones(n - 1)
    d = sp.diags([-ones, ones], [0, 1], shape=(n - 1, n))
    eye = sp.identity(n)
    dx = sp.kron(d, eye)
    dy = sp.kron(eye, d)
    return (dx.T @ sp.diags(cx.ravel()) @ dx
            + dy.T @ sp.diags(cy.ravel()) @ dy).tocsr()


def integrate(f, mask=None) -> float:
    """Trapezoidal integral over the square, or over the masked nodes."""
    grid, vals = _unwrap(f)
    w = grid.trapezoid_weights()
    if mask is None:
        return float(np.sum(w * vals))
    if not np.any(mask):
        return 0.0
    return float(np.sum(w[mask] * vals[mask]))


def _unwrap(f):
    if isinstance(f, ScalarField):
        return f.grid, f.values
    raise TypeError("expected a ScalarField")


def inner(f, g, mask=None) -> float:
    grid, fv = _unwrap(f)
    _, gv = _unwrap(g)
    w = grid.trapezoid_weights()
    if mask is None:
        return float(np.sum(w * fv * gv))
    return float(np.sum(w[mask] * fv[mask] * gv[mask]))


def norm_l2(f, mask=None) -> float:
    return float(np.sqrt(max(inner(f, f, mask), 0.0)))


# ---------------------------------------------------------------------------
# conjugate gradient


def stack_dot(u, v):
    """Dot products of the matching systems of two stacks, one per index of
    the leading axis, shaped (k, 1, ..., 1) to scale the stack. Passed to
    :func:`cg` as ``dot``, it makes the solve a stack of independent
    systems."""
    k = u.shape[0]
    d = np.einsum("ij,ij->i", u.reshape(k, -1), v.reshape(k, -1))
    return d.reshape((k,) + (1,) * (u.ndim - 1))


def cg(apply_op, b, tol=1e-10, max_iter=None, x0=None, precond=None, dot=None,
       shift=None, r0=None, lift=None):
    """Conjugate gradient for an SPD operator given as a callable.

    Stops at relative residual ||b - Ax|| / ||b|| <= tol. Raises SolverError
    on non-convergence. Returns (x, relative_residual, iterations).

    Stacks: when ``dot`` returns one value per index of the leading axis,
    shaped to broadcast against ``b`` (see :func:`stack_dot`), ``b`` is a
    stack of independent systems that ``apply_op`` and ``precond`` map as a
    whole. Each system has its own step lengths and stopping test, and
    stops updating once it converges; ``max_iter`` bounds the iterations of
    each. ``precond`` sees only the systems that are still active, so each
    system costs one preconditioner solve per iteration it takes. A system
    with a zero right-hand side gets the zero solution. The call returns the
    stacked solution, the worst system's relative residual as a float and
    the summed iteration count of the systems as an int; SolverError
    carries the same three, and names the worst system in ``system``.

    Split operators: ``shift`` says that ``precond`` solves T z = r exactly
    for an operator T that differs from A only by a diagonal D = A - T, and
    that D and the residual ``r0`` = b - A x0 of the start ``x0`` vanish off
    a box of nodes. The loop then runs on box values alone: ``r0`` is given
    by its box values, ``precond`` maps box values to the box values of
    T^-1 of their extension by zero, and ``shift(p, out)`` adds D p to
    ``out`` in place. T z_k = r_k, so A p_k = r_k + D z_k + beta_k A p_(k-1)
    follows from what CG already holds, every residual stays on the box,
    and the loop never calls ``apply_op``. Its iterate is the box values of
    the correction e = x - x0, and T e = r0 - r - D e, so at exit
    ``lift(y)``, T^-1 of the box values y extended by zero on the whole
    grid, gives x = x0 + lift(r0 - r - D e). The recurrence can drift from
    the true product by rounding, so the true residual b - A x of each
    system is checked once at exit on the whole grid, with one call of
    ``apply_op``; it is the residual returned and tested against ``tol``.
    Without ``shift``, a start ``x0`` costs one call of ``apply_op``.
    """
    if dot is None:
        dot = lambda u, v: float(np.sum(u * v))
    if max_iter is None:
        max_iter = 50 * int(np.sqrt(b.size) + 1)
    bnorm = np.sqrt(dot(b, b))
    if not np.any(bnorm):
        return np.zeros(b.shape), 0.0, 0
    # NumPy booleans, one per system: a system with a zero right-hand side
    # is dead, divides by one below and never moves
    dead = bnorm == 0.0
    bnorm = bnorm + dead
    # b and x0 may be broadcast views; the iterates are arrays of their own
    if shift is not None:
        # the correction's box values, from zero; x0 is read at exit only
        r0 = np.asarray(r0, dtype=np.float64) * ~dead
        x, r = np.zeros(r0.shape), r0.copy()
    elif x0 is None:
        # a cold start needs no operator application: A(0) = 0
        x, r = np.zeros(b.shape), np.array(b, dtype=np.float64, order="C")
    else:
        x = np.array(x0, dtype=np.float64, order="C")
        r = b - apply_op(x)
        if dead.any():
            x *= ~dead
            r *= ~dead
    res = np.sqrt(dot(r, r)) / bnorm
    active = res > tol
    z = _precondition(precond, r, active)
    p = z.copy()
    if shift is not None:
        # A p for p = z, where T z = r
        ap = r.copy()
        shift(z, ap)
    rz = dot(r, z)
    its = 0
    for _ in range(max_iter):
        if not active.any():
            break
        if shift is None:
            ap = apply_op(p)
        # a system that has stopped takes zero steps, and divides by one in
        # case its p is zero; in place, since on a stack every array is k
        # fields large
        alpha = active * rz / (dot(p, ap) + ~active)
        x += alpha * p
        r -= alpha * ap
        its += active
        res = np.sqrt(dot(r, r)) / bnorm
        active = res > tol
        if not active.any():
            break
        z = _precondition(precond, r, active, z)
        rz_new = dot(r, z)
        beta = active * rz_new / (rz + ~active)
        p *= beta
        p += z
        if shift is not None:
            ap *= beta
            ap += r
            shift(z, ap)
        rz = rz_new
    if shift is not None:
        # T e = r0 - r - D e: lift(r - r0 + D e) is -e on the whole grid
        r -= r0
        shift(x, r)
        x = lift(r)
        np.subtract(x0, x, out=x)
        if dead.any():
            x *= ~dead
        miss = apply_op(x)
        np.subtract(b, miss, out=miss)
        res = np.sqrt(dot(miss, miss)) / bnorm
    worst, it = float(np.max(res)), int(np.sum(its))
    if worst > tol:
        # the loop ran out of steps, or its recurrence drifted off the
        # true residual
        stop = "stalled at" if np.any(active) else "drifted to true"
        raise SolverError(
            f"CG {stop} relative residual {worst:.3e} after {it} "
            "iterations",
            residual=worst,
            iterations=it,
            iterate=x,
            system=int(np.argmax(res)) if np.ndim(res) else None,
        )
    return x, worst, it


def _precondition(precond, r, active, z=None):
    """``precond`` applied to the active systems of the residual ``r``.

    A system that has stopped keeps its residual as z: it enters only a
    step that its zero step length cancels, so its preconditioner solve
    would be wasted. ``z`` is the previous result, spent by now: the active
    residuals are gathered into it and it takes the result, so no stack
    beyond the preconditioner's output is allocated.
    """
    if precond is None or not np.any(active):
        return r
    if np.ndim(active) == 0 or active.all():
        return precond(r)
    live = np.flatnonzero(active)
    if z is None or z is r:
        z = np.empty_like(r)
    head = z[:live.size]
    np.take(r, live, axis=0, out=head)
    solved = precond(head)
    np.copyto(z, r)
    z[live] = solved
    return z


# ---------------------------------------------------------------------------
# direct solvers


class SeparableSolver:
    """Direct solver of a Kronecker sum T = P (x) C + C (x) P on the
    row-major node vector of an n-by-n grid, for a symmetric tridiagonal P
    and a positive diagonal C given as its diagonal ``c``.

    The generalised eigenvectors P V = C V diag(lam), with V^T C V = I,
    diagonalise T (fast diagonalisation: Lynch, Rice and Thomas 1964), so
    the node array X of the solution is V [(V^T B V) / (lam_i + lam_j)] V^T
    for the node array B of the right-hand side. With ``singular``, P has
    lam = 0 as its lowest eigenvalue and the (0, 0) mode spans the kernel of
    T; that mode is dropped, so the solution has no component along it. With
    ``border``, P and C are of size n - 2 and T acts on the interior nodes of
    the n-by-n grid, whose boundary rows are the identity.

    ``solve`` takes the shapes of SuperLU's: a vector of n*n values, or an
    (n*n, k) array of k columns, returned Fortran-ordered. ``solve_box``
    takes a right-hand side that is zero off a box of nodes, as an array of
    its box values or a stack of them; only the box's rows of V enter its
    products. Each column or stack entry is transformed by its own matrix
    products, so its solution does not depend on those beside it.
    """

    def __init__(self, p, c, singular=False, border=False):
        s = 1.0 / np.sqrt(c)
        lam, q = np.linalg.eigh(s[:, None] * p * s)
        self._v = s[:, None] * q
        denom = lam[:, None] + lam
        if singular:
            denom[0, 0] = np.inf
        self._inv = 1.0 / denom
        self._border = border

    def solve(self, b):
        v = self._v
        n = v.shape[0] + 2 * self._border
        stack = b.T.reshape(-1, n, n)
        if self._border:
            x = stack.copy()
            inner = stack[:, 1:-1, 1:-1]
            x[:, 1:-1, 1:-1] = v @ ((v.T @ inner @ v) * self._inv) @ v.T
        else:
            x = v @ ((v.T @ stack @ v) * self._inv) @ v.T
        return x.reshape(len(x), -1).T.reshape(b.shape)

    def solve_box(self, b, rows, cols, full=False):
        """T^-1 E b for the values ``b`` of a right-hand side on the box of
        node rows ``rows`` and columns ``cols`` (two slices, inside the
        interior with ``border``), which E extends by zero to the grid: the
        solution's box values, shaped like ``b``, or with ``full`` its values
        on the whole grid, one (n, n) array per box of ``b``.

        With V_R and V_C the box's rows of V, the box values are V_R [(V_R^T
        B V_C) / (lam_i + lam_j)] V_C^T, so a product costs the box's share
        of the whole grid's.
        """
        v, off = self._v, int(self._border)
        n = len(v) + 2 * off
        if not b.size:
            return np.zeros(b.shape[:-2] + ((n, n) if full else b.shape[-2:]))
        vr = v[rows.start - off:rows.stop - off]
        vc = v[cols.start - off:cols.stop - off]
        w = (vr.T @ b @ vc) * self._inv
        if not full:
            return vr @ w @ vc.T
        x = v @ w @ v.T
        if self._border:
            return np.pad(x, [(0, 0)] * (x.ndim - 2) + [(1, 1), (1, 1)])
        return x

    def inverse_block(self, nodes):
        """The principal block of T^-1 at the given row-major node indices,
        for a solver without ``border``: entry (a, b) is the solution at
        node a for a unit source at node b.

        T^-1 = (V (x) V) diag(1 / (lam_i + lam_j)) (V (x) V)^T is summed one
        eigenvalue index i at a time, so the work arrays hold k x n values
        for k nodes, not the k columns of n*n values that k solves would.
        """
        first, second = np.divmod(nodes, self._v.shape[0])
        v1, v2 = self._v[first], self._v[second]
        out = np.zeros((len(nodes), len(nodes)))
        for i, inv in enumerate(self._inv):
            w = v1[:, i, None] * v2
            out += (w * inv) @ w.T
        return out


def neumann_edge_coefficients(grid):
    """FEM-style edge weights for the reflective Neumann form.

    x-edges carry the transverse trapezoid factor in y and vice versa, so the
    quadratic form sum_e c_e (du)_e (dv)_e matches the trapezoid-mass 5-point
    Neumann operator.
    """
    n = grid.n
    c = grid.trapezoid_factors()
    cx = np.tile(c, (n - 1, 1))
    cy = np.tile(c[:, None], (1, n - 1))
    return cx, cy


def neumann_solve_weighted(grid, b):
    """Solve the edge-form Neumann system E z = b on the zero-mean subspace.

    ``b`` is a plain-dot assembled right-hand side (must have zero sum up to
    roundoff; the mean is projected out). Returns a zero-weighted-mean array.
    E is the Kronecker sum of the 1-D form D^T D with the trapezoid factors,
    and its kernel is the constants, so a :class:`SeparableSolver` with that
    mode dropped solves it directly.
    """
    bproj = b - b.sum() / b.size
    solver = SeparableSolver(second_difference(grid.n),
                             grid.trapezoid_factors(), singular=True)
    z = solver.solve(bproj.ravel()).reshape(grid.shape)
    # the dropped mode leaves a weighted mean of rounding size; remove it
    w = grid.trapezoid_weights()
    return z - np.sum(w * z) / w.sum()


# ---------------------------------------------------------------------------
# binary field file format


def _write_payload(fh, kind, n, payload):
    fh.write(MAGIC)
    fh.write(_HEADER.pack(FORMAT_VERSION, kind, n))
    fh.write(payload.astype("<f8").tobytes(order="C"))


def save_field(path, obj):
    """Write a ScalarField, VectorField, or BoundaryTrace to the binary
    field format (magic AORF, version, kind, n, float64 little-endian)."""
    with open(path, "wb") as fh:
        if isinstance(obj, ScalarField):
            _write_payload(fh, KIND_SCALAR, obj.grid.n, obj.values)
        elif isinstance(obj, VectorField):
            payload = np.stack([obj.vx, obj.vy], axis=-1)
            _write_payload(fh, KIND_VECTOR, obj.grid.n, payload)
        elif isinstance(obj, BoundaryTrace):
            _write_payload(fh, KIND_TRACE, obj.grid.n, obj.values)
        else:
            raise TypeError(f"cannot serialize {type(obj).__name__}")


def load_field(path):
    """Read a file written by ``save_field``; raise FileFormatError for
    anything else (bad magic, version, kind or grid size, a truncated header,
    a payload of the wrong length, non-finite values)."""
    with open(path, "rb") as fh:
        data = fh.read()
    start = len(MAGIC) + _HEADER.size
    if data[:len(MAGIC)] != MAGIC:
        raise FileFormatError(f"{path}: bad magic {data[:len(MAGIC)]!r}")
    if len(data) < start:
        raise FileFormatError(f"{path}: truncated header")
    version, kind, n = _HEADER.unpack_from(data, len(MAGIC))
    if version != FORMAT_VERSION:
        raise FileFormatError(f"{path}: unsupported version {version}")
    counts = {KIND_SCALAR: n * n, KIND_VECTOR: 2 * n * n,
              KIND_TRACE: 4 * (n - 1)}
    if kind not in counts:
        raise FileFormatError(f"{path}: unknown kind {kind}")
    if n < 3:
        raise FileFormatError(f"{path}: grid size {n} is below 3")
    expected = 8 * counts[kind]
    if len(data) - start != expected:
        raise FileFormatError(
            f"{path}: payload has {len(data) - start} bytes, "
            f"expected {expected} for n={n}")
    grid = Grid(n)
    raw = np.frombuffer(data, dtype="<f8", offset=start)
    try:
        if kind == KIND_SCALAR:
            return ScalarField(grid, raw.reshape(n, n))
        if kind == KIND_VECTOR:
            pair = raw.reshape(n, n, 2)
            return VectorField(grid, pair[:, :, 0], pair[:, :, 1])
        return BoundaryTrace(grid, raw)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
