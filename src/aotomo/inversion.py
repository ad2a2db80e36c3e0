"""Coefficient reconstruction inside known inclusion masks.

Two stages. A grid search over piecewise constant coefficients matches the
measured boundary flux and fixes the per-inclusion base levels. A projected
Landweber iteration then recovers the smooth variation inside each inclusion
by matching the internal data functional

    F[a](v) = sum_j int_{A_j} phi(a)^2 grad(a_j) . grad(v_j)

against the Laplacian functional of the Helmholtz potential. Iterates are
stored as base constants plus a zero-trace correction in
H = H^1_0(A_1) + ... + H^1_0(A_k). The masks are disjoint, so an element of
H is one field on their union, zero off their interiors (see
``MaskSpace``). Every functional is handled through its Riesz representer:
one masked Dirichlet solve on the union, whose form is block diagonal over
the inclusions, by the capacitance matrix method on a fast-diagonalised
box per inclusion (Buzbee, Dorr, George and Golub 1971, SIAM J. Numer.
Anal. 8; Proskurowski and Widlund 1976, Math. Comp. 30). The constraint
set (coefficient bounds plus an L4 gradient budget per inclusion) is
enforced by clamping and scale-back.

Every coefficient either stage solves at equals the background a0 off the
masks and lies in [lower, upper] on them, so it differs from the constant
background operator only by a diagonal term on the inclusions. Every Robin
solve here is CG preconditioned by the direct solver of that background
operator, built once by fast diagonalisation and shared by every operator
whose median coefficient is a0 (see ``diffusion``), as every coefficient
here is while the masks cover less than half the grid; CG applies only the
difference, and runs on the masks' box. The solves are the exhaustion's
candidate solves, solved one stack of candidates at a time on the
problem's ``reference`` operator, and Landweber's forward solves and the
tangent and adjoint solves of DF and DF*, each solved alone. At a zero
correction, as in the step-size estimate, DF and DF* need no tangent or
adjoint solve.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .diffusion import (
    OpticalSolution,
    RobinOperator,
    RobinProblem,
    solve_DT,
    solve_T,
)
from .fields import (
    BoundaryTrace,
    Grid,
    ScalarField,
    SeparableSolver,
    edge_average,
    edge_average_transpose,
    edge_diff,
    edge_diff_transpose,
    gradient,
    second_difference,
)
from .helmholtz import PsiField
from .segmentation import erode_cross


@dataclass(frozen=True)
class KProjectionConfig:
    lower: float
    upper: float
    theta: float

    def __post_init__(self):
        if self.theta <= 0:
            raise ValueError("gradient budget theta must be positive")


class MaskSpace:
    """The discrete space H of zero-trace corrections on disjoint masks.

    ``labels`` is 0 off the masks and j + 1 on mask j, and ``interior`` is
    the union of the masks' cross-eroded interiors. An edge is in-mask when
    both its ends carry the same nonzero label, so no edge joins two masks
    and the Dirichlet form on the interior nodes is block diagonal, one
    block per mask. One field on the union, zero off the interior, is thus
    an element of the direct sum of the per-mask spaces, and every form and
    solve below is the per-mask sum. ``riesz_solve`` solves each mask's
    block by the capacitance matrix method (Buzbee, Dorr, George and Golub
    1971, SIAM J. Numer. Anal. 8; Proskurowski and Widlund 1976, Math.
    Comp. 30) on a square box over that mask alone (``BoxCapacitance``):
    a box over the union would grow with the distance between the masks.
    """

    def __init__(self, grid: Grid, masks):
        self.grid = grid
        self.labels = np.zeros(grid.shape, dtype=np.intp)
        self.interior = np.zeros(grid.shape, dtype=bool)
        self._blocks = []
        for j, mask in enumerate(masks):
            mask = np.asarray(mask, dtype=bool)
            if np.any(self.labels[mask]):
                raise ValueError(f"masks {self.labels[mask].max() - 1} and "
                                 f"{j} overlap")
            inner = erode_cross(mask)
            if not np.any(inner):
                raise ValueError(f"mask {j} has no interior nodes")
            self.labels[mask] = j + 1
            self.interior |= inner
            self._blocks.append(BoxCapacitance(inner))
        lab = self.labels
        self.cx = ((lab[1:, :] == lab[:-1, :]) & (lab[1:, :] > 0)) * 1.0
        self.cy = ((lab[:, 1:] == lab[:, :-1]) & (lab[:, 1:] > 0)) * 1.0

    def diff(self, x):
        """Edge differences of x with its values off the interior zeroed."""
        return edge_diff(np.where(self.interior, x, 0.0))

    def bilinear(self, u, v):
        """sum over in-mask edges of c_e du dv (undivided differences)."""
        du_x, du_y = edge_diff(u)
        dv_x, dv_y = edge_diff(v)
        return float(np.sum(self.cx * du_x * dv_x)
                     + np.sum(self.cy * du_y * dv_y))

    def assemble(self, coef_x, coef_y):
        """Vector b with b . v = sum_e c_e dv for all interior v."""
        b = edge_diff_transpose(self.cx * coef_x, self.cy * coef_y)
        return np.where(self.interior, b, 0.0)

    def riesz_solve(self, b):
        """Solve the mask Dirichlet form L rho = b on the interior nodes;
        rho is zero elsewhere."""
        rho = np.zeros(self.grid.shape)
        for block in self._blocks:
            block.solve(b, rho)
        return rho


class BoxCapacitance:
    """Solver of K_II x = b_I on the nodes I of one mask's cross-eroded
    interior, for the 5-point Dirichlet Laplacian K (undivided).

    Every edge at a node of I has both ends in the mask, so K_II is the
    mask's Dirichlet form on I, and it is the principal block of K on any
    box that holds I. On the smallest square box over I a
    ``fields.SeparableSolver`` solves K directly, and K_II follows by the
    capacitance matrix method. Let G be the box nodes off I with a
    neighbour in I (``rim``). The solution y of K y = b (b zero off I)
    misses K_II x = b_I only through y_G; the capacitance matrix
    C = (K^-1)_GG, built and inverted once, gives the sources s = -C^-1 y_G
    on G that zero it, and x = y + K^-1 s. A solve is thus two box solves
    and one product with C^-1.
    """

    def __init__(self, inner):
        i, j = np.nonzero(inner)
        n = inner.shape[0]
        m = int(max(np.ptp(i), np.ptp(j))) + 1
        i0, j0 = min(i.min(), n - m), min(j.min(), n - m)
        self.box = np.s_[i0:i0 + m, j0:j0 + m]
        self.inner = inner = inner[self.box]
        p = np.pad(inner, 1)
        near = p[:-2, 1:-1] | p[2:, 1:-1] | p[1:-1, :-2] | p[1:-1, 2:]
        self.rim = np.flatnonzero(near & ~inner)
        self.solver = SeparableSolver(second_difference(m + 2)[1:-1, 1:-1],
                                      np.ones(m))
        self.cinv = np.linalg.inv(self.solver.inverse_block(self.rim))

    def solve(self, b, out):
        """Add the solution for the grid array ``b`` on I to ``out``."""
        inner, rim = self.inner, self.rim
        y = self.solver.solve(np.where(inner, b[self.box], 0.0).ravel())
        s = np.zeros_like(y)
        s[rim] = -(self.cinv @ y[rim])
        x = y + self.solver.solve(s)
        out[self.box] += np.where(inner, x.reshape(inner.shape), 0.0)


@dataclass
class HFunctional:
    """Functional on H: its assembled vector ``raw`` (f(v) = raw . v) and its
    Riesz representer, each one (n, n) array."""

    raw: np.ndarray
    representer: np.ndarray


@dataclass
class PiecewiseConstantGuess:
    alphas: list
    misfit: float


@dataclass
class ReconstructionState:
    alphas: list
    correction: np.ndarray
    tau: float
    residuals: list = field(default_factory=list)
    distances: list = field(default_factory=list)
    taus: list = field(default_factory=list)
    halvings: int = 0
    stopped_reason: str = ""

    def coefficient(self, problem) -> ScalarField:
        return problem.coefficient_field(self.alphas, self.correction)


class ReconstructionProblem:
    """Geometry, optics, and constraint data shared by the reconstruction."""

    def __init__(self, grid: Grid, masks: list, a0: float, lower: float,
                 upper: float, g=1.0, l=0.1, theta=None):
        if l <= 0:
            raise ValueError("reconstruction needs an extrapolation length "
                             "l > 0")
        self.grid = grid
        self.masks = masks
        self.space = MaskSpace(grid, [m.mask for m in masks])
        self.a0 = float(a0)
        self.lower = float(lower)
        self.upper = float(upper)
        self.l = float(l)
        self.g = g if isinstance(g, BoundaryTrace) else BoundaryTrace.constant(
            grid, g)
        self._theta = theta
        self._phi_bounds = None
        # the operator at the constant background coefficient, which solves
        # the exhaustion's candidate stacks; its direct solver is the one
        # shared by every Robin solve here (see the module notes)
        self.reference = RobinOperator(grid, np.full(grid.shape, self.a0),
                                       self.l)

    @property
    def k(self):
        return len(self.masks)

    def zero_element(self) -> np.ndarray:
        return np.zeros(self.grid.shape)

    def levels(self, alphas) -> np.ndarray:
        """The base level of each node: a0 off the masks, alphas[j] on
        mask j."""
        return np.concatenate([[self.a0], alphas])[self.space.labels]

    def coefficient_field(self, alphas, correction: np.ndarray | None = None
                          ) -> ScalarField:
        vals = self.levels(alphas)
        if correction is not None:
            interior = self.space.interior
            vals[interior] += correction[interior]
        return ScalarField(self.grid, vals)

    def solve_forward(self, alphas, correction=None) -> OpticalSolution:
        a = self.coefficient_field(alphas, correction)
        return solve_T(RobinProblem(a, self.g, self.l))

    def boundary_fluxes(self, candidates, x0=None):
        """Boundary fluxes of piecewise constant coefficients, one candidate
        (a sequence of per-inclusion constants) per row, solved as one stack
        on the background solver.

        ``x0`` is an optional matching stack of starting fields. Returns
        ``(fluxes, fields)``: the (m, 4(n-1)) outgoing fluxes and the
        (m, n, n) solved fields of the m candidates.
        """
        op = self.reference
        # a candidate differs from the background only on the masks
        i, j = np.nonzero(self.space.labels)
        shells = [(i, j, self.levels(c)[i, j]) for c in candidates]
        # every candidate has the same right-hand side: a read-only view
        b = np.broadcast_to(op.boundary_rhs(self.g),
                            (len(candidates),) + self.grid.shape)
        x, _, _ = op.solve(b, x0=x0, shells=shells)
        return op.boundary_flux(self.g, x), x

    # -- H space operations --------------------------------------------------

    def h_inner(self, u: np.ndarray, v: np.ndarray) -> float:
        return self.space.bilinear(u, v)

    def h_norm(self, u: np.ndarray) -> float:
        return math.sqrt(max(self.h_inner(u, u), 0.0))

    def functional(self, raw: np.ndarray) -> HFunctional:
        return HFunctional(raw, self.space.riesz_solve(raw))

    def dual_inner(self, f1: HFunctional, f2: HFunctional) -> float:
        """H* inner product via representers: <rep1, rep2>_H = raw1 . rep2."""
        return float(np.sum(f1.raw * f2.representer))

    def dual_norm(self, f: HFunctional) -> float:
        return math.sqrt(max(self.dual_inner(f, f), 0.0))

    # -- phi bounds and the gradient budget ----------------------------------

    def record_phi_bounds(self, solution: OpticalSolution, margin=0.1):
        region = self.grid.interior_margin_mask(margin)
        vals = solution.phi.values[region]
        self._phi_bounds = (float(vals.min()), float(vals.max()))
        return self._phi_bounds

    def embedding_constant(self, iterations=20) -> float:
        """Estimate of sup ||v||_L4 / ||v||_H over the largest mask by a
        normalized fixed-point iteration on the L4 stationarity condition."""
        space = self.space
        sizes = np.bincount(space.labels[space.interior],
                            minlength=self.k + 1)
        inner = space.interior & (space.labels == np.argmax(sizes[1:]) + 1)
        w = self.grid.trapezoid_weights()
        rng = np.random.default_rng(1234)
        v = np.where(inner, rng.standard_normal(self.grid.shape), 0.0)
        v /= math.sqrt(space.bilinear(v, v))
        best = 0.0
        for _ in range(iterations):
            rhs = np.where(inner, w * v**3, 0.0)
            v = space.riesz_solve(rhs)
            nrm = math.sqrt(space.bilinear(v, v))
            if nrm == 0:
                break
            v /= nrm
            l4 = float(np.sum(w * np.abs(v) ** 4)) ** 0.25
            best = max(best, l4)
        return best

    def default_theta(self, solution: OpticalSolution) -> float:
        """Gradient budget from the recorded field bounds and the embedding
        estimate: 0.5 * lambda^2 / (C * Lambda^2)."""
        lam, big = self.record_phi_bounds(solution)
        c_emb = self.embedding_constant()
        return 0.5 * lam**2 / (c_emb * big**2)

    def projection_config(self, solution=None) -> KProjectionConfig:
        if self._theta is None:
            if solution is None:
                solution = self.solve_forward([self.a0] * self.k)
            self._theta = self.default_theta(solution)
        return KProjectionConfig(self.lower, self.upper, self._theta)

    def grad_l4(self, correction) -> np.ndarray:
        """The L4 norm of the nodal gradient of ``correction`` over each
        mask, one value per mask. At a grid-boundary node the one-sided
        stencil reaches two nodes in, which may lie in another mask's
        interior; everywhere else a mask sees only its own part."""
        g = gradient(ScalarField(self.grid, correction))
        mag4 = (g.vx**2 + g.vy**2) ** 2
        w = self.grid.trapezoid_weights()
        sums = np.bincount(self.space.labels.ravel(),
                           weights=(w * mag4).ravel(), minlength=self.k + 1)
        return sums[1:] ** 0.25


# ---------------------------------------------------------------------------
# boundary misfit and the exhaustion initial guess


def boundary_misfit(problem: ReconstructionProblem, fluxes,
                    measured: BoundaryTrace):
    """Half the squared boundary L2 distance of each flux row to the
    measured flux."""
    diff = fluxes - measured.values
    return 0.5 * problem.grid.h * np.sum(diff * diff, axis=-1)


def initial_guess_exhaustion(problem: ReconstructionProblem,
                             measured_flux: BoundaryTrace,
                             partition_step=0.125,
                             mode="exhaustive") -> PiecewiseConstantGuess:
    """Grid search of per-inclusion constants minimizing the boundary flux
    misfit. Exhaustive product search for up to three inclusions; cyclic
    coordinate sweeps (three passes) beyond that or on request.

    Candidates are solved a stack at a time (``boundary_fluxes``) and
    scanned in order, the first strict improvement winning as in a scan of
    single solves. The exhaustive stack is one lattice row, the last
    constant running over the lattice in product order, warm-started from
    the previous row's fields; the coordinate stack is one 1-D sweep, whose
    candidates do not depend on what the sweep accepts, less the candidates
    already solved: their misfits are kept by candidate.
    """
    k = problem.k
    if k == 0:
        return PiecewiseConstantGuess([], 0.0)
    lattice = np.arange(problem.lower, problem.upper + 1e-12, partition_step)
    if mode == "exhaustive" and k > 3:
        raise ValueError(
            "exhaustive sweep is limited to 3 inclusions; "
            "use mode='coordinate' for cyclic 1-D sweeps"
        )

    def misfits(candidates, x0=None):
        fluxes, x = problem.boundary_fluxes(candidates, x0)
        return boundary_misfit(problem, fluxes, measured_flux), x

    if mode == "exhaustive":
        best, best_j, x = None, math.inf, None
        for head in itertools.product(lattice, repeat=k - 1):
            row = [head + (val,) for val in lattice]
            jvals, x = misfits(row, x)
            for combo, jval in zip(row, jvals):
                if jval < best_j:
                    best, best_j = combo, float(jval)
        return PiecewiseConstantGuess(list(best), best_j)
    if mode != "coordinate":
        raise ValueError(f"unknown exhaustion mode {mode!r}")
    # a sweep contains the current point, and a sweep whose other
    # constants did not move repeats itself: each candidate is solved once
    seen = {}

    def memo_misfits(candidates):
        unseen = [c for c in candidates if c not in seen]
        if unseen:
            seen.update(zip(unseen, misfits(unseen)[0]))
        return [seen[c] for c in candidates]

    alphas = (lattice[len(lattice) // 2],) * k
    best_j = float(memo_misfits([alphas])[0])
    for _ in range(3):
        for j in range(k):
            sweep = [alphas[:j] + (val,) + alphas[j + 1:] for val in lattice]
            for trial, jval in zip(sweep, memo_misfits(sweep)):
                if jval < best_j - 1e-15:
                    alphas, best_j = trial, float(jval)
    return PiecewiseConstantGuess(list(alphas), best_j)


# ---------------------------------------------------------------------------
# the internal data map and its derivative


def F_apply(problem: ReconstructionProblem, alphas, correction: np.ndarray,
            solution: OpticalSolution | None = None) -> HFunctional:
    """F[a](v) = sum_j int phi^2 grad(a_j) . grad(v_j) as a functional."""
    if solution is None:
        solution = problem.solve_forward(alphas, correction)
    space = problem.space
    phi2x, phi2y = edge_average(solution.phi.values**2)
    dax, day = space.diff(correction)
    return problem.functional(space.assemble(phi2x * dax, phi2y * day))


def delta_psi_functional(problem: ReconstructionProblem,
                         psi: PsiField) -> HFunctional:
    """The potential's Laplacian as a functional: v -> sum int grad psi
    . grad v_j over the masks."""
    dpx, dpy = edge_diff(psi.psi.values)
    # the potential follows the divergence-of-the-vector-solve orientation,
    # so its weak Laplacian functional carries a minus sign
    return problem.functional(problem.space.assemble(-dpx, -dpy))


def DF_apply(problem: ReconstructionProblem, alphas, correction: np.ndarray,
             h: np.ndarray,
             solution: OpticalSolution | None = None) -> HFunctional:
    """Directional derivative of F at the iterate in direction h."""
    return problem.functional(
        _DF_raw(problem, alphas, correction, h, solution))


def _DF_raw(problem, alphas, correction, h, solution):
    """Assembled vector of DF[a](h).

    The tangent dphi enters only through the correction's edge
    differences, so a zero correction solves nothing.
    """
    if solution is None:
        solution = problem.solve_forward(alphas, correction)
    space = problem.space
    phi = solution.phi
    phi2x, phi2y = edge_average(phi.values**2)
    dax, day = space.diff(correction)
    crossx = crossy = 0.0
    if dax.any() or day.any():
        tangent = solve_DT(problem.coefficient_field(alphas, correction), phi,
                           ScalarField(problem.grid, h), problem.l)
        crossx, crossy = edge_average(2.0 * phi.values * tangent.values)
    dhx, dhy = space.diff(h)
    return space.assemble(crossx * dax + phi2x * dhx,
                          crossy * day + phi2y * dhy)


def DF_adjoint(problem: ReconstructionProblem, alphas, correction: np.ndarray,
               rho: HFunctional,
               solution: OpticalSolution | None = None) -> np.ndarray:
    """The element g with <g, h>_H = DF[a](h)(rep rho) for all h.

    The solution chain runs through one adjoint diffusion solve for the
    tangent term, preconditioned by the background operator's solver, and
    one masked Riesz solve for both terms. At a zero correction the tangent
    term has no source, and there is no diffusion solve.
    """
    if solution is None:
        solution = problem.solve_forward(alphas, correction)
    phi = solution.phi.values
    space = problem.space
    phi2x, phi2y = edge_average(phi**2)

    # nodal source of the tangent chain: sigma_p = phi_p * sum of
    # c_e (da)_e (drho)_e over edges at p, doubled edge averages folded in
    dax, day = space.diff(correction)
    drx, dry = space.diff(rho.representer)
    sigma = phi * (2.0 * edge_average_transpose(space.cx * dax * drx,
                                                space.cy * day * dry))
    raw = space.assemble(phi2x * drx, phi2y * dry)

    if sigma.any():
        a = problem.coefficient_field(alphas, correction)
        op = RobinOperator(problem.grid, a.values, problem.l)
        z, _, _ = op.solve(sigma)
        b1 = -phi * z * op.row_weights
    else:
        # a zero correction has no tangent source, so z = 0; the signed
        # zeros of -phi * 0 keep the sums below bit-identical to a solve
        b1 = phi * -0.0
    return space.riesz_solve(raw + np.where(space.interior, b1, 0.0))


# ---------------------------------------------------------------------------
# projection onto the constraint set


def project_K(problem: ReconstructionProblem, alphas, correction: np.ndarray,
              config: KProjectionConfig) -> np.ndarray:
    """Clamp the coefficient into its bounds nodewise, then scale the
    correction on each mask whose gradient exceeds the L4 budget by that
    mask's own factor. Idempotent."""
    space = problem.space
    c = np.where(space.interior, correction, 0.0)
    vals = problem.levels(alphas) + c
    # additive form keeps untouched nodes bit-identical
    clamped = c + (np.clip(vals, config.lower, config.upper) - vals)
    clamped = np.where(space.interior, clamped, 0.0)
    nrm = problem.grad_l4(clamped)
    over = nrm > config.theta * (1.0 + 1e-12)
    # one factor per label, 1 off the masks and on the masks within budget
    scale = np.ones(problem.k + 1)
    scale[1:][over] = config.theta / nrm[over]
    return clamped * scale[space.labels]


# ---------------------------------------------------------------------------
# projected Landweber iteration


def estimate_step_size(problem: ReconstructionProblem, alphas,
                       correction: np.ndarray, iterations=20,
                       seed=0) -> float:
    """tau = 0.9 / L^2 with L the operator norm of DF at the iterate,
    estimated by power iterations on DF* DF."""
    rng = np.random.default_rng(seed)
    solution = problem.solve_forward(alphas, correction)
    # one draw of the grid per mask, in mask order, each kept on its mask
    labels = problem.space.labels
    draws = rng.standard_normal((problem.k,) + problem.grid.shape)
    i, j = np.nonzero(problem.space.interior)
    v = problem.zero_element()
    v[i, j] = draws[labels[i, j] - 1, i, j]
    v = v * (1.0 / max(problem.h_norm(v), 1e-300))
    lam = 0.0
    for _ in range(iterations):
        w = DF_adjoint(problem, alphas, correction,
                       DF_apply(problem, alphas, correction, v,
                                solution=solution),
                       solution=solution)
        lam = problem.h_inner(v, w)
        nrm = problem.h_norm(w)
        if nrm == 0:
            break
        v = w * (1.0 / nrm)
    lam = max(lam, 1e-300)
    return 0.9 / lam


# relative change of the Landweber residual below which the run stops
STAGNATION_TOL = 1e-9


def landweber_run(problem: ReconstructionProblem, psi: PsiField, alphas,
                  max_iter=200, stop_tol=1e-3, tau=None,
                  truth: np.ndarray | None = None,
                  progress=None) -> ReconstructionState:
    """Projected Landweber iteration from the piecewise constant guess.

    Each step evaluates the internal data misfit at the projected iterate and
    moves along the adjoint direction. If the residual increases five times
    in a row the step is halved (three halvings stop the run). A residual
    that moves by at most ``STAGNATION_TOL`` relative to the previous one
    stops the run as ``stagnated``.

    Without masks, H = {0}: the run returns its only element, the zero
    correction, as ``no masks``, and estimates no step size.
    """
    if problem.k == 0:
        return ReconstructionState(alphas=list(alphas),
                                   correction=problem.zero_element(),
                                   tau=0.0 if tau is None else tau,
                                   stopped_reason="no masks")
    kcfg = problem.projection_config()
    target = delta_psi_functional(problem, psi)
    state = ReconstructionState(
        alphas=list(alphas),
        correction=problem.zero_element(),
        tau=tau if tau is not None else estimate_step_size(
            problem, alphas, problem.zero_element()),
    )
    rising = 0
    initial_residual = None
    for it in range(max_iter):
        projected = project_K(problem, state.alphas, state.correction, kcfg)
        solution = problem.solve_forward(state.alphas, projected)
        fval = F_apply(problem, state.alphas, projected, solution=solution)
        residual_fn = HFunctional(fval.raw - target.raw,
                                  fval.representer - target.representer)
        res = problem.dual_norm(residual_fn)
        state.residuals.append(res)
        state.taus.append(state.tau)
        if truth is not None:
            state.distances.append(problem.h_norm(projected - truth))
        if initial_residual is None:
            initial_residual = res if res > 0 else 1.0
        if res <= stop_tol * initial_residual:
            state.correction = projected
            state.stopped_reason = "converged"
            break
        if (len(state.residuals) > 1 and abs(res - state.residuals[-2])
                <= STAGNATION_TOL * state.residuals[-2]):
            state.correction = projected
            state.stopped_reason = "stagnated"
            break
        if len(state.residuals) > 1 and res > state.residuals[-2]:
            rising += 1
            if rising >= 5:
                state.halvings += 1
                state.tau *= 0.5
                rising = 0
                if state.halvings >= 3:
                    state.correction = projected
                    state.stopped_reason = "stalled after three step halvings"
                    break
        else:
            rising = 0
        grad = DF_adjoint(problem, state.alphas, projected, residual_fn,
                          solution=solution)
        state.correction = projected - state.tau * grad
        if progress is not None:
            progress(it + 1, max_iter, res)
    else:
        state.correction = project_K(problem, state.alphas, state.correction,
                                     kcfg)
        state.stopped_reason = "max iterations"
    return state


def truth_correction(problem: ReconstructionProblem, phantom,
                     alphas) -> np.ndarray:
    """Zero-trace corrections of the true coefficient relative to the given
    base constants, for distance-to-truth audits."""
    x, y = problem.grid.meshgrid()
    true_vals = phantom.eval(x, y)
    return np.where(problem.space.interior,
                    true_vals - problem.levels(alphas), 0.0)


def save_log_csv(path, state: ReconstructionState):
    """Iteration log: residual, optional distance to truth, step size."""
    with open(path, "w") as fh:
        fh.write("iter,residual_Hstar,dist_to_truth_H,tau\n")
        for i, res in enumerate(state.residuals):
            dist = f"{state.distances[i]:.17g}" if i < len(state.distances) else ""
            fh.write(f"{i},{res:.17g},{dist},{state.taus[i]:.17g}\n")
