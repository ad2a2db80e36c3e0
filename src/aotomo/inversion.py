"""Coefficient reconstruction inside known inclusion masks.

Two stages. A grid search over piecewise constant coefficients matches the
measured boundary flux and fixes the per-inclusion base levels. A projected
Landweber iteration then recovers the smooth variation inside each inclusion
by matching the internal data functional

    F[a](v) = sum_j int_{A_j} phi(a)^2 grad(a_j) . grad(v_j)

against the Laplacian functional of the Helmholtz potential. Iterates are
stored as base constants plus zero-trace corrections; every functional is
handled through its Riesz representer (one masked Dirichlet solve per
inclusion), and the constraint set (coefficient bounds plus an L4 gradient
budget per inclusion) is enforced by clamping and scale-back.

Every coefficient either stage solves at equals the background a0 off the
masks and lies in [lower, upper] on them, so it differs from the constant
background operator only by a diagonal term on the inclusions. The problem
builds the direct solver of that background operator once, by fast
diagonalisation (see ``diffusion``), and it preconditions every Robin solve
here: the exhaustion's candidate solves, solved one stack of candidates at a
time, Landweber's forward solves and the tangent and adjoint solves of DF
and DF*. Each is passed as its coefficient on the nodes where it differs
from the background, so CG applies only that difference. At a zero
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
    edge_average,
    edge_average_transpose,
    edge_diff,
    edge_diff_transpose,
    edge_form_matrix,
    gradient,
    spd_lu,
)
from .helmholtz import PsiField
from .segmentation import InclusionMask, erode_cross


@dataclass(frozen=True)
class KProjectionConfig:
    lower: float
    upper: float
    theta: float

    def __post_init__(self):
        if self.theta <= 0:
            raise ValueError("gradient budget theta must be positive")


class MaskSpace:
    """Per-inclusion discrete space: in-mask edges and the Dirichlet form,
    factored once on the interior nodes."""

    def __init__(self, grid: Grid, mask: np.ndarray):
        self.grid = grid
        self.mask = np.asarray(mask, dtype=bool)
        self.interior = erode_cross(self.mask)
        self.cx = (self.mask[1:, :] & self.mask[:-1, :]).astype(float)
        self.cy = (self.mask[:, 1:] & self.mask[:, :-1]).astype(float)
        if not np.any(self.interior):
            raise ValueError("mask has no interior nodes")
        self._nodes = np.flatnonzero(self.interior)
        form = edge_form_matrix(self.cx, self.cy)[self._nodes][:, self._nodes]
        self._lu = spd_lu(form)

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
        rho.flat[self._nodes] = self._lu.solve(b.ravel()[self._nodes])
        return rho


@dataclass
class HElement:
    """One zero-trace field per inclusion mask."""

    parts: list

    def __add__(self, other):
        return HElement([a + b for a, b in zip(self.parts, other.parts)])

    def __sub__(self, other):
        return HElement([a - b for a, b in zip(self.parts, other.parts)])

    def scaled(self, c):
        return HElement([c * a for a in self.parts])

    def combined(self):
        out = np.zeros_like(self.parts[0])
        for a in self.parts:
            out += a
        return out


@dataclass
class HFunctional:
    """Functional on H stored as assembled vectors plus Riesz representer."""

    raw: list
    representer: HElement


@dataclass
class PiecewiseConstantGuess:
    alphas: list
    misfit: float


@dataclass
class ReconstructionState:
    alphas: list
    correction: HElement
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
        self.spaces = [MaskSpace(grid, m.mask) for m in masks]
        self.a0 = float(a0)
        self.lower = float(lower)
        self.upper = float(upper)
        self.l = float(l)
        self.g = g if isinstance(g, BoundaryTrace) else BoundaryTrace.constant(
            grid, g)
        self._theta = theta
        self._phi_bounds = None
        # its cached direct solver preconditions every Robin solve (see the
        # module notes)
        self.reference = RobinOperator(grid, np.full(grid.shape, self.a0),
                                       self.l)

    @property
    def k(self):
        return len(self.masks)

    def zero_element(self) -> HElement:
        return HElement([np.zeros(self.grid.shape) for _ in self.masks])

    def coefficient_field(self, alphas, correction: HElement | None = None
                          ) -> ScalarField:
        vals = np.full(self.grid.shape, self.a0)
        for j, space in enumerate(self.spaces):
            vals[space.mask] = alphas[j]
            if correction is not None:
                vals[space.interior] += correction.parts[j][space.interior]
        return ScalarField(self.grid, vals)

    def solve_forward(self, alphas, correction=None) -> OpticalSolution:
        a = self.coefficient_field(alphas, correction)
        return solve_T(RobinProblem(a, self.g, self.l),
                       precond_with=self.reference)

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
        i, j = np.nonzero(np.any([space.mask for space in self.spaces],
                                 axis=0))
        shells = [(i, j, self.coefficient_field(c).values[i, j])
                  for c in candidates]
        # every candidate has the same right-hand side: a read-only view
        b = np.broadcast_to(op.boundary_rhs(self.g),
                            (len(candidates),) + self.grid.shape)
        x, _, _ = op.solve(b, x0=x0, shells=shells)
        return op.boundary_flux(self.g, x), x

    # -- H space operations --------------------------------------------------

    def h_inner(self, u: HElement, v: HElement) -> float:
        return sum(
            space.bilinear(up, vp)
            for space, up, vp in zip(self.spaces, u.parts, v.parts)
        )

    def h_norm(self, u: HElement) -> float:
        return math.sqrt(max(self.h_inner(u, u), 0.0))

    def riesz(self, raw: list) -> HElement:
        return HElement([
            space.riesz_solve(b) for space, b in zip(self.spaces, raw)
        ])

    def functional(self, raw: list) -> HFunctional:
        return HFunctional(raw, self.riesz(raw))

    def dual_inner(self, f1: HFunctional, f2: HFunctional) -> float:
        """H* inner product via representers: <rep1, rep2>_H = raw1 . rep2."""
        return sum(
            float(np.sum(b * rep))
            for b, rep in zip(f1.raw, f2.representer.parts)
        )

    def dual_norm(self, f: HFunctional) -> float:
        return math.sqrt(max(self.dual_inner(f, f), 0.0))

    def apply_functional(self, f: HFunctional, h: HElement) -> float:
        return sum(float(np.sum(b * hp)) for b, hp in zip(f.raw, h.parts))

    # -- phi bounds and the gradient budget ----------------------------------

    def record_phi_bounds(self, solution: OpticalSolution, margin=0.1):
        region = self.grid.interior_margin_mask(margin)
        vals = solution.phi.values[region]
        self._phi_bounds = (float(vals.min()), float(vals.max()))
        return self._phi_bounds

    def embedding_constant(self, iterations=20) -> float:
        """Estimate of sup ||v||_L4 / ||v||_H over the largest mask by a
        normalized fixed-point iteration on the L4 stationarity condition."""
        space = max(self.spaces, key=lambda s: s.interior.sum())
        w = self.grid.trapezoid_weights()
        rng = np.random.default_rng(1234)
        v = np.where(space.interior, rng.standard_normal(self.grid.shape), 0.0)
        v /= math.sqrt(space.bilinear(v, v))
        best = 0.0
        for _ in range(iterations):
            rhs = np.where(space.interior, w * v**3, 0.0)
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

    def grad_l4(self, part, space) -> float:
        g = gradient(ScalarField(self.grid, part))
        mag4 = (g.vx**2 + g.vy**2) ** 2
        w = self.grid.trapezoid_weights()
        return float(np.sum(w[space.mask] * mag4[space.mask])) ** 0.25


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


def F_apply(problem: ReconstructionProblem, alphas, correction: HElement,
            solution: OpticalSolution | None = None) -> HFunctional:
    """F[a](v) = sum_j int phi^2 grad(a_j) . grad(v_j) as a functional."""
    if solution is None:
        solution = problem.solve_forward(alphas, correction)
    phi2x, phi2y = edge_average(solution.phi.values**2)
    raw = []
    for j, space in enumerate(problem.spaces):
        dax, day = space.diff(correction.parts[j])
        raw.append(space.assemble(phi2x * dax, phi2y * day))
    return problem.functional(raw)


def delta_psi_functional(problem: ReconstructionProblem,
                         psi: PsiField) -> HFunctional:
    """The potential's Laplacian as a functional: v -> sum int grad psi
    . grad v_j over the masks."""
    dpx, dpy = edge_diff(psi.psi.values)
    # the potential follows the divergence-of-the-vector-solve orientation,
    # so its weak Laplacian functional carries a minus sign
    raw = [space.assemble(-dpx, -dpy) for space in problem.spaces]
    return problem.functional(raw)


def DF_apply(problem: ReconstructionProblem, alphas, correction: HElement,
             h: HElement,
             solution: OpticalSolution | None = None) -> HFunctional:
    """Directional derivative of F at the iterate in direction h."""
    return problem.functional(
        _DF_raw(problem, alphas, correction, h, solution))


def _DF_raw(problem, alphas, correction, h, solution):
    """Assembled vectors of DF[a](h), one per inclusion.

    The tangent dphi enters only through the correction's edge
    differences, so a zero correction solves nothing.
    """
    if solution is None:
        solution = problem.solve_forward(alphas, correction)
    phi = solution.phi
    phi2x, phi2y = edge_average(phi.values**2)
    da = [space.diff(part)
          for space, part in zip(problem.spaces, correction.parts)]
    crossx = crossy = 0.0
    if any(d.any() for pair in da for d in pair):
        tangent = solve_DT(problem.coefficient_field(alphas, correction), phi,
                           ScalarField(problem.grid, h.combined()), problem.l,
                           precond_with=problem.reference)
        crossx, crossy = edge_average(2.0 * phi.values * tangent.values)
    raw = []
    for space, (dax, day), hp in zip(problem.spaces, da, h.parts):
        dhx, dhy = space.diff(hp)
        raw.append(space.assemble(
            crossx * dax + phi2x * dhx, crossy * day + phi2y * dhy
        ))
    return raw


def DF_quadratic_form(problem, alphas, correction, h: HElement,
                      solution=None) -> float:
    """DF[a](h, h) without Riesz solves (used by the coercivity checks)."""
    raw = _DF_raw(problem, alphas, correction, h, solution)
    return sum(float(np.sum(b * hp)) for b, hp in zip(raw, h.parts))


def DF_adjoint(problem: ReconstructionProblem, alphas, correction: HElement,
               rho: HFunctional,
               solution: OpticalSolution | None = None) -> HElement:
    """The element g with <g, h>_H = DF[a](h)(rep rho) for all h.

    The solution chain runs through one adjoint diffusion solve for the
    tangent term, preconditioned by the problem's background operator, and
    one masked Riesz solve per inclusion for both terms. At a zero
    correction the tangent term has no source, and there is no diffusion
    solve.
    """
    if solution is None:
        solution = problem.solve_forward(alphas, correction)
    phi = solution.phi.values
    grid = problem.grid
    phi2x, phi2y = edge_average(phi**2)

    # nodal source of the tangent chain: sigma_p = phi_p * sum of
    # c_e (da)_e (drho)_e over edges at p, doubled edge averages folded in
    sigma = np.zeros(grid.shape)
    raw = []
    for j, space in enumerate(problem.spaces):
        dax, day = space.diff(correction.parts[j])
        drx, dry = space.diff(rho.representer.parts[j])
        acc = 2.0 * edge_average_transpose(space.cx * dax * drx,
                                           space.cy * day * dry)
        sigma += phi * acc
        raw.append(space.assemble(phi2x * drx, phi2y * dry))

    if sigma.any():
        a = problem.coefficient_field(alphas, correction)
        op = RobinOperator(grid, a.values, problem.l)
        z, _, _ = op.solve(sigma, precond_with=problem.reference)
        b1 = -phi * z * op.row_weights
    else:
        # a zero correction has no tangent source, so z = 0; the signed
        # zeros of -phi * 0 keep the sums below bit-identical to a solve
        b1 = phi * -0.0
    for j, space in enumerate(problem.spaces):
        raw[j] = raw[j] + np.where(space.interior, b1, 0.0)
    return problem.riesz(raw)


# ---------------------------------------------------------------------------
# projection onto the constraint set


def project_K(problem: ReconstructionProblem, alphas, correction: HElement,
              config: KProjectionConfig) -> HElement:
    """Clamp the coefficient into its bounds nodewise, then scale any
    correction whose gradient exceeds the L4 budget. Idempotent."""
    parts = []
    for j, space in enumerate(problem.spaces):
        cj = np.where(space.interior, correction.parts[j], 0.0)
        vals = alphas[j] + cj
        # additive form keeps untouched nodes bit-identical
        clamped = cj + (np.clip(vals, config.lower, config.upper) - vals)
        clamped = np.where(space.interior, clamped, 0.0)
        nrm = problem.grad_l4(clamped, space)
        if nrm > config.theta * (1.0 + 1e-12):
            clamped = clamped * (config.theta / nrm)
        parts.append(clamped)
    return HElement(parts)


# ---------------------------------------------------------------------------
# projected Landweber iteration


def estimate_step_size(problem: ReconstructionProblem, alphas,
                       correction: HElement, iterations=20,
                       seed=0) -> float:
    """tau = 0.9 / L^2 with L the operator norm of DF at the iterate,
    estimated by power iterations on DF* DF."""
    rng = np.random.default_rng(seed)
    solution = problem.solve_forward(alphas, correction)
    v = HElement([
        np.where(space.interior, rng.standard_normal(problem.grid.shape), 0.0)
        for space in problem.spaces
    ])
    v = v.scaled(1.0 / max(problem.h_norm(v), 1e-300))
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
        v = w.scaled(1.0 / nrm)
    lam = max(lam, 1e-300)
    return 0.9 / lam


# relative change of the Landweber residual below which the run stops
STAGNATION_TOL = 1e-9


def landweber_run(problem: ReconstructionProblem, psi: PsiField, alphas,
                  max_iter=200, stop_tol=1e-3, tau=None,
                  truth: HElement | None = None,
                  progress=None) -> ReconstructionState:
    """Projected Landweber iteration from the piecewise constant guess.

    Each step evaluates the internal data misfit at the projected iterate and
    moves along the adjoint direction. If the residual increases five times
    in a row the step is halved (three halvings stop the run). A residual
    that moves by at most ``STAGNATION_TOL`` relative to the previous one
    stops the run as ``stagnated``.
    """
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
        residual_fn = HFunctional(
            [fr - tr for fr, tr in zip(fval.raw, target.raw)],
            fval.representer - target.representer,
        )
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
        state.correction = projected - grad.scaled(state.tau)
        if progress is not None:
            progress(it + 1, max_iter, res)
    else:
        state.correction = project_K(problem, state.alphas, state.correction,
                                     kcfg)
        state.stopped_reason = "max iterations"
    return state


def truth_correction(problem: ReconstructionProblem, phantom,
                     alphas) -> HElement:
    """Zero-trace corrections of the true coefficient relative to the given
    base constants, for distance-to-truth audits."""
    x, y = problem.grid.meshgrid()
    true_vals = phantom.eval(x, y)
    parts = []
    for j, space in enumerate(problem.spaces):
        part = np.where(space.interior, true_vals - alphas[j], 0.0)
        parts.append(part)
    return HElement(parts)


def save_log_csv(path, state: ReconstructionState):
    """Iteration log: residual, optional distance to truth, step size."""
    with open(path, "w") as fh:
        fh.write("iter,residual_Hstar,dist_to_truth_H,tau\n")
        for i, res in enumerate(state.residuals):
            dist = f"{state.distances[i]:.17g}" if i < len(state.distances) else ""
            fh.write(f"{i},{res:.17g},{dist},{state.taus[i]:.17g}\n")
