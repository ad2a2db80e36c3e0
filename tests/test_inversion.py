import itertools

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from aotomo import diffusion, fields, helmholtz, inversion as inv
from aotomo import segmentation as seg
from aotomo.fields import BoundaryTrace, Grid, ScalarField
from aotomo.inversion import (
    DF_adjoint,
    DF_apply,
    DF_quadratic_form,
    F_apply,
    HElement,
    HFunctional,
    ReconstructionProblem,
    delta_psi_functional,
    initial_guess_exhaustion,
    landweber_run,
    project_K,
    truth_correction,
)

# recorded boundary-flux stability constant over 50 piecewise constant pairs
# (empirical minimum of ||flux difference|| / ||coefficient difference||)
LIPSCHITZ_HAT = 0.0540


@pytest.fixture(scope="module")
def setup(disk_phantom):
    g = Grid(65)
    masks = seg.masks_from_phantom(disk_phantom, g)
    problem = ReconstructionProblem(g, masks, a0=1.0, lower=0.5, upper=2.0)
    sol = diffusion.solve_T(diffusion.RobinProblem(
        disk_phantom.sample(g), BoundaryTrace.constant(g, 1.0), 0.1))
    psi = helmholtz.ground_truth_psi(disk_phantom, sol.phi)
    return g, problem, sol, psi


def random_element(problem, rng, scale=0.05):
    return HElement([
        np.where(space.interior,
                 scale * rng.standard_normal(problem.grid.shape), 0.0)
        for space in problem.spaces
    ])


class TestMaskSpace:
    def test_riesz_solve_represents_the_functional(self, setup):
        g, problem, _, _ = setup
        rng = np.random.default_rng(11)
        for space in problem.spaces:
            b = rng.standard_normal(g.shape)
            rho = space.riesz_solve(b)
            assert not np.any(rho[~space.interior])
            for _ in range(3):
                v = np.where(space.interior, rng.standard_normal(g.shape), 0.0)
                lhs = space.bilinear(rho, v)
                rhs = float(np.sum(b * v))
                assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


class TestForwardSolve:
    @pytest.mark.parametrize("bound", ["lower", "upper"])
    def test_reference_preconditioner_at_the_bounds(self, setup, bound):
        g, problem, _, _ = setup
        alphas = [getattr(problem, bound)] * problem.k
        sol = problem.solve_forward(alphas)
        assert sol.iterations <= 10
        op = diffusion.RobinOperator(
            g, problem.coefficient_field(alphas).values, problem.l)
        exact = spla.spsolve(op.sparse_matrix().tocsc(),
                             op.boundary_rhs(problem.g).ravel())
        err = np.linalg.norm(sol.phi.values.ravel() - exact)
        assert err <= 1e-8 * np.linalg.norm(exact)

    def test_needs_positive_extrapolation_length(self, grid33):
        with pytest.raises(ValueError, match="l > 0"):
            ReconstructionProblem(grid33, [], a0=1.0, lower=0.5, upper=2.0,
                                  l=0.0)


class TestExhaustion:
    def test_on_lattice_recovery(self, flat_disk_phantom, setup):
        g, problem, _, _ = setup
        sol = diffusion.solve_T(diffusion.RobinProblem(
            flat_disk_phantom.sample(g), BoundaryTrace.constant(g, 1.0), 0.1))
        guess = initial_guess_exhaustion(problem, sol.flux,
                                         partition_step=0.25)
        assert guess.alphas == [1.5]
        assert guess.misfit <= 1e-12

    def test_two_inclusion_recovery(self, grid33):
        from aotomo import phantom
        p = phantom.Phantom(a0=1.0, lower=0.5, upper=2.0, inclusions=[
            phantom.Inclusion("disk", (0.35, 0.4), radius=0.12, base=1.0),
            phantom.Inclusion("disk", (0.68, 0.62), radius=0.1, base=1.5),
        ])
        masks = seg.masks_from_phantom(p, grid33)
        problem = ReconstructionProblem(grid33, masks, a0=1.0, lower=0.5,
                                        upper=2.0)
        sol = diffusion.solve_T(diffusion.RobinProblem(
            p.sample(grid33), BoundaryTrace.constant(grid33, 1.0), 0.1))
        guess = initial_guess_exhaustion(problem, sol.flux,
                                         partition_step=0.25)
        assert guess.alphas == [1.0, 1.5]
        assert guess.misfit <= 1e-12

    def test_empty_masks(self, grid33):
        problem = ReconstructionProblem(grid33, [], a0=1.0, lower=0.5,
                                        upper=2.0)
        sol = diffusion.solve_T(diffusion.RobinProblem(
            ScalarField.constant(grid33, 1.0),
            BoundaryTrace.constant(grid33, 1.0), 0.1))
        guess = initial_guess_exhaustion(problem, sol.flux)
        assert guess.alphas == []
        assert guess.misfit == 0.0

    def test_too_many_inclusions_guard(self, grid33):
        from aotomo import phantom
        incs = [phantom.Inclusion("disk", c, radius=0.05, base=1.25)
                for c in [(0.3, 0.3), (0.3, 0.7), (0.7, 0.3), (0.7, 0.7)]]
        p = phantom.Phantom(a0=1.0, lower=0.5, upper=2.0, inclusions=incs)
        masks = seg.masks_from_phantom(p, grid33)
        problem = ReconstructionProblem(grid33, masks, a0=1.0, lower=0.5,
                                        upper=2.0)
        sol = diffusion.solve_T(diffusion.RobinProblem(
            p.sample(grid33), BoundaryTrace.constant(grid33, 1.0), 0.1))
        with pytest.raises(ValueError, match="coordinate"):
            initial_guess_exhaustion(problem, sol.flux)
        guess = initial_guess_exhaustion(problem, sol.flux,
                                         partition_step=0.25,
                                         mode="coordinate")
        assert guess.alphas == [1.25, 1.25, 1.25, 1.25]

    @staticmethod
    def loop_exhaustion(problem, measured, partition_step, mode):
        """Reference: one forward solve and one misfit per candidate, scanned
        in product order (exhaustive) or as cyclic coordinate sweeps."""
        lattice = np.arange(problem.lower, problem.upper + 1e-12,
                            partition_step)

        def misfit_of(alphas):
            flux = problem.solve_forward(list(alphas)).flux.values
            return 0.5 * problem.grid.h * float(
                np.sum((flux - measured.values) ** 2))

        if mode == "exhaustive":
            best, best_j = None, np.inf
            for combo in itertools.product(lattice, repeat=problem.k):
                jval = misfit_of(combo)
                if jval < best_j:
                    best, best_j = combo, jval
            return list(best), best_j
        alphas = [lattice[len(lattice) // 2]] * problem.k
        best_j = misfit_of(alphas)
        for _ in range(3):
            for j in range(problem.k):
                for val in lattice:
                    trial = list(alphas)
                    trial[j] = val
                    jval = misfit_of(trial)
                    if jval < best_j - 1e-15:
                        alphas, best_j = trial, jval
        return alphas, best_j

    @staticmethod
    def disks_problem(grid, k):
        """Problem and measured flux of k bumped disks."""
        from aotomo import phantom
        centers = [(0.3, 0.35), (0.68, 0.62), (0.3, 0.7), (0.7, 0.3)]
        bases = [1.5, 0.55, 1.2, 0.8]
        p = phantom.Phantom(a0=1.0, lower=0.5, upper=2.0, inclusions=[
            phantom.Inclusion("disk", centers[j], radius=0.1, base=bases[j],
                              amplitude=0.2)
            for j in range(k)])
        masks = seg.masks_from_phantom(p, grid)
        problem = ReconstructionProblem(grid, masks, a0=1.0, lower=0.5,
                                        upper=2.0)
        measured = diffusion.solve_T(diffusion.RobinProblem(
            p.sample(grid), BoundaryTrace.constant(grid, 1.0), 0.1)).flux
        return problem, measured

    @pytest.mark.parametrize("k, mode", [
        (1, "exhaustive"), (1, "coordinate"), (2, "exhaustive"),
        (2, "coordinate"), (4, "coordinate")])
    def test_stacked_scan_matches_candidate_loop(self, grid33, k, mode):
        problem, measured = self.disks_problem(grid33, k)
        guess = initial_guess_exhaustion(problem, measured,
                                         partition_step=0.25, mode=mode)
        alphas, misfit = self.loop_exhaustion(problem, measured, 0.25, mode)
        assert guess.alphas == alphas
        assert isinstance(guess.misfit, float)
        assert guess.misfit == pytest.approx(misfit, rel=1e-6)

    def test_coordinate_mode_solves_each_candidate_once(self, grid33,
                                                         monkeypatch):
        problem, measured = self.disks_problem(grid33, 4)
        lattice = np.arange(problem.lower, problem.upper + 1e-12, 0.25)

        def misfits(candidates):
            fluxes, _ = problem.boundary_fluxes(candidates)
            return inv.boundary_misfit(problem, fluxes, measured)

        # reference: every 1-D sweep solved whole, the current point again
        alphas = [lattice[len(lattice) // 2]] * 4
        best_j = misfits([alphas])[0]
        for _ in range(3):
            for j in range(4):
                sweep = [alphas[:j] + [val] + alphas[j + 1:]
                         for val in lattice]
                for trial, jval in zip(sweep, misfits(sweep)):
                    if jval < best_j - 1e-15:
                        alphas, best_j = trial, jval
        solved = []
        stacked = ReconstructionProblem.boundary_fluxes

        def counted(self, candidates, x0=None):
            solved.extend(tuple(c) for c in candidates)
            return stacked(self, candidates, x0)

        monkeypatch.setattr(ReconstructionProblem, "boundary_fluxes",
                            counted)
        guess = initial_guess_exhaustion(problem, measured,
                                         partition_step=0.25,
                                         mode="coordinate")
        assert guess.alphas == alphas
        assert guess.misfit == pytest.approx(best_j, rel=1e-12)
        assert len(solved) == len(set(solved)) == 49

    def test_lipschitz_stability_recorded(self, setup):
        g, problem, _, _ = setup
        rng = np.random.default_rng(0)
        mins = []
        for seed in (1, 2):
            rng = np.random.default_rng(seed)
            ratios = []
            base = problem.solve_forward([1.0])
            for _ in range(50):
                # all sign patterns appear with random magnitudes
                d = rng.uniform(0.05, 0.5) * rng.choice([-1.0, 1.0])
                a1 = 1.0 + max(0.0, -d)
                a2 = 1.0 + max(0.0, d)
                s1 = problem.solve_forward([a1])
                s2 = problem.solve_forward([a2])
                diff = s1.flux.values - s2.flux.values
                num = np.sqrt(g.h * np.sum(diff**2))
                ratios.append(num / abs(a1 - a2))
            mins.append(min(ratios))
        assert min(mins) > 0
        for m in mins:
            assert m == pytest.approx(LIPSCHITZ_HAT, rel=0.05)


class TestInternalDataMap:
    def test_constant_iterate_gives_zero(self, setup):
        _, problem, _, _ = setup
        f = F_apply(problem, [1.5], problem.zero_element())
        assert problem.dual_norm(f) <= 1e-10

    def test_phi_scaling_is_quadratic(self, setup):
        g, problem, sol, _ = setup
        rng = np.random.default_rng(1)
        corr = random_element(problem, rng)
        f1 = F_apply(problem, [1.5], corr, solution=sol)
        scaled = diffusion.OpticalSolution(
            ScalarField(g, 2.0 * sol.phi.values), sol.flux, sol.residual,
            sol.iterations)
        f2 = F_apply(problem, [1.5], corr, solution=scaled)
        for a, b in zip(f1.raw, f2.raw):
            assert np.max(np.abs(b - 4.0 * a)) <= 1e-9 * max(
                np.max(np.abs(a)), 1.0)

    def test_consistency_with_potential(self, setup, disk_phantom):
        _, problem, sol, psi = setup
        truth = truth_correction(problem, disk_phantom, [1.5])
        fstar = F_apply(problem, [1.5], truth)
        dpsi = delta_psi_functional(problem, psi)
        diff = HFunctional(
            [a - b for a, b in zip(fstar.raw, dpsi.raw)],
            fstar.representer - dpsi.representer,
        )
        assert problem.dual_norm(diff) <= 5e-2 * problem.dual_norm(dpsi)

    def test_delta_psi_linear(self, setup):
        g, problem, _, psi = setup
        f1 = delta_psi_functional(problem, psi)
        doubled = helmholtz.PsiField(
            ScalarField(g, 2.0 * psi.psi.values), psi.provenance)
        f2 = delta_psi_functional(problem, doubled)
        for a, b in zip(f1.raw, f2.raw):
            assert np.max(np.abs(b - 2 * a)) <= 1e-12 * max(
                np.max(np.abs(a)), 1.0)

    def test_constant_psi_gives_zero(self, setup, grid65):
        _, problem, _, _ = setup
        psi = helmholtz.PsiField(ScalarField.constant(grid65, 2.0),
                                 "ground_truth")
        f = delta_psi_functional(problem, psi)
        assert problem.dual_norm(f) <= 1e-12


class TestDerivative:
    def test_zero_direction(self, setup):
        _, problem, sol, _ = setup
        z = problem.zero_element()
        out = DF_apply(problem, [1.5], z, z, solution=sol)
        assert problem.dual_norm(out) <= 1e-12

    def test_zero_correction_adjoint_solves_nothing(self, setup,
                                                    monkeypatch):
        _, problem, _, _ = setup
        rng = np.random.default_rng(4)
        zero = problem.zero_element()
        rho = problem.functional(
            [np.where(space.interior, rng.standard_normal(problem.grid.shape),
                      0.0) for space in problem.spaces])
        solution = problem.solve_forward([1.5], zero)
        phi = solution.phi.values
        # reference: the tangent source is zero, and so is its solve
        op = diffusion.RobinOperator(
            problem.grid, problem.coefficient_field([1.5], zero).values,
            problem.l)
        z, _, _ = op.solve(np.zeros(problem.grid.shape),
                           precond_with=problem.reference)
        phi2x, phi2y = fields.edge_average(phi**2)
        raw = []
        for space, rep in zip(problem.spaces, rho.representer.parts):
            drx, dry = space.diff(rep)
            raw.append(space.assemble(phi2x * drx, phi2y * dry)
                       + np.where(space.interior, -phi * z * op.row_weights,
                                  0.0))
        reference = problem.riesz(raw)
        solves = []

        def counted(*args, **kwargs):
            solves.append(args)
            return fields.cg(*args, **kwargs)

        monkeypatch.setattr(diffusion, "cg", counted)
        got = DF_adjoint(problem, [1.5], zero, rho, solution=solution)
        assert not solves
        for g_part, r_part in zip(got.parts, reference.parts):
            assert g_part.tobytes() == r_part.tobytes()

    def test_taylor_order(self, setup):
        _, problem, sol, _ = setup
        rng = np.random.default_rng(2)
        corr = random_element(problem, rng, scale=0.1)
        h = random_element(problem, rng, scale=1.0)
        f0 = F_apply(problem, [1.5], corr)
        df = DF_apply(problem, [1.5], corr, h)
        errs = []
        for eps in (1e-2, 5e-3, 2.5e-3):
            stepped = HElement([c + eps * hp
                                for c, hp in zip(corr.parts, h.parts)])
            f1 = F_apply(problem, [1.5], stepped)
            lin_raw = [a + eps * b for a, b in zip(f0.raw, df.raw)]
            diff = HFunctional(
                [a - b for a, b in zip(f1.raw, lin_raw)],
                f1.representer - (f0.representer + df.representer.scaled(eps)),
            )
            errs.append(problem.dual_norm(diff))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.8

    def test_adjoint_identity(self, setup):
        _, problem, sol, _ = setup
        rng = np.random.default_rng(3)
        corr = random_element(problem, rng, scale=0.1)
        h = random_element(problem, rng)
        rho = problem.functional(
            [np.where(space.interior, rng.standard_normal(problem.grid.shape),
                      0.0) for space in problem.spaces])
        dfh = DF_apply(problem, [1.5], corr, h)
        lhs = problem.apply_functional(dfh, rho.representer)
        g = DF_adjoint(problem, [1.5], corr, rho)
        rhs = problem.h_inner(h, g)
        assert abs(lhs - rhs) <= 1e-7 * max(abs(lhs), abs(rhs))

    def test_gradient_check(self, setup, disk_phantom):
        _, problem, _, psi = setup
        rng = np.random.default_rng(4)
        corr = random_element(problem, rng, scale=0.1)
        target = delta_psi_functional(problem, psi)

        def objective(c):
            f = F_apply(problem, [1.5], c)
            diff = HFunctional(
                [a - b for a, b in zip(f.raw, target.raw)],
                f.representer - target.representer,
            )
            return 0.5 * problem.dual_norm(diff) ** 2

        f = F_apply(problem, [1.5], corr)
        residual = HFunctional(
            [a - b for a, b in zip(f.raw, target.raw)],
            f.representer - target.representer,
        )
        grad = DF_adjoint(problem, [1.5], corr, residual)
        direction = random_element(problem, rng, scale=1.0)
        eps = 1e-5
        plus = objective(HElement([c + eps * d for c, d in
                                   zip(corr.parts, direction.parts)]))
        minus = objective(HElement([c - eps * d for c, d in
                                    zip(corr.parts, direction.parts)]))
        fd = (plus - minus) / (2 * eps)
        an = problem.h_inner(grad, direction)
        assert fd == pytest.approx(an, rel=1e-4)

    def test_coercivity_under_budget(self, setup):
        _, problem, sol, _ = setup
        lam, _ = problem.record_phi_bounds(sol)
        kcfg = problem.projection_config(sol)
        rng = np.random.default_rng(5)
        for _ in range(20):
            h = random_element(problem, rng)
            h = project_K(problem, [1.5], h, kcfg)
            nrm = problem.h_norm(h)
            if nrm == 0:
                continue
            q = DF_quadratic_form(problem, [1.5], h, h, solution=sol)
            assert q >= 0.5 * lam**2 * nrm**2


class TestLocalConditions:
    def test_local_landweber_condition(self, setup):
        _, problem, _, _ = setup
        rng = np.random.default_rng(6)
        base = random_element(problem, rng, scale=0.05)
        for _ in range(5):
            step = random_element(problem, rng, scale=1.0)
            nrm = problem.h_norm(step)
            step = step.scaled(0.05 / nrm)
            other = base + step
            fa = F_apply(problem, [1.5], base)
            fb = F_apply(problem, [1.5], other)
            df = DF_apply(problem, [1.5], base,
                          HElement([b - a for a, b in
                                    zip(base.parts, other.parts)]))
            lin = HFunctional(
                [b - a - d for a, b, d in zip(fa.raw, fb.raw, df.raw)],
                fb.representer - fa.representer - df.representer,
            )
            gap = HFunctional(
                [b - a for a, b in zip(fa.raw, fb.raw)],
                fb.representer - fa.representer,
            )
            assert problem.dual_norm(lin) <= 0.5 * problem.dual_norm(gap)

    def test_mean_value_stability(self, setup):
        _, problem, sol, _ = setup
        kcfg = problem.projection_config(sol)
        rng = np.random.default_rng(7)
        ratios = []
        for _ in range(10):
            a = project_K(problem, [1.5],
                          random_element(problem, rng, scale=0.2), kcfg)
            b = project_K(problem, [1.5],
                          random_element(problem, rng, scale=0.2), kcfg)
            fa = F_apply(problem, [1.5], a)
            fb = F_apply(problem, [1.5], b)
            gap = HFunctional(
                [y - x for x, y in zip(fa.raw, fb.raw)],
                fb.representer - fa.representer,
            )
            dist = problem.h_norm(a - b)
            if dist > 0:
                ratios.append(problem.dual_norm(gap) / dist)
        assert min(ratios) > 0.1  # recorded floor, order lambda^2


class TestProjection:
    def test_identity_inside_k(self, setup):
        _, problem, sol, _ = setup
        kcfg = problem.projection_config(sol)
        rng = np.random.default_rng(8)
        h = random_element(problem, rng, scale=1e-3)
        out = project_K(problem, [1.5], h, kcfg)
        for a, b in zip(h.parts, out.parts):
            np.testing.assert_array_equal(a, b)

    def test_clamp_is_nodewise(self, setup):
        g, problem, sol, _ = setup
        kcfg = problem.projection_config(sol)
        space = problem.spaces[0]
        # smooth wide bump peaking past the upper bound: the clamp flattens
        # its top without waking the gradient budget
        x, y = g.meshgrid()
        s = np.clip(np.hypot(x - 0.5, y - 0.5) / 0.2, 0.0, 1.0)
        bump = 0.7 * (1 - s**2) ** 3
        vals = np.where(space.interior, bump, 0.0)
        out = project_K(problem, [1.5], HElement([vals]), kcfg)
        over = vals > kcfg.upper - 1.5
        under = ~over & space.interior
        assert np.max(np.abs(out.parts[0][over] - (kcfg.upper - 1.5))) <= 1e-12
        np.testing.assert_array_equal(out.parts[0][under], vals[under])

    def test_constraints_hold_after_projection(self, setup):
        _, problem, sol, _ = setup
        kcfg = problem.projection_config(sol)
        rng = np.random.default_rng(9)
        h = random_element(problem, rng, scale=5.0)
        out = project_K(problem, [1.5], h, kcfg)
        for j, space in enumerate(problem.spaces):
            vals = 1.5 + out.parts[j][space.interior]
            assert vals.min() >= kcfg.lower - 1e-12
            assert vals.max() <= kcfg.upper + 1e-12
            assert problem.grad_l4(out.parts[j], space) <= kcfg.theta * (
                1 + 1e-10)

    def test_idempotent(self, setup):
        _, problem, sol, _ = setup
        kcfg = problem.projection_config(sol)
        rng = np.random.default_rng(10)
        h = random_element(problem, rng, scale=5.0)
        once = project_K(problem, [1.5], h, kcfg)
        twice = project_K(problem, [1.5], once, kcfg)
        for a, b in zip(once.parts, twice.parts):
            assert np.max(np.abs(a - b)) <= 1e-10


class TestStepSize:
    def test_iterate_preconditioner_keeps_tau(self, setup, monkeypatch):
        _, problem, _, _ = setup
        rng = np.random.default_rng(5)
        corr = random_element(problem, rng, scale=0.02)
        # reference: the same power iteration on background-preconditioned
        # solves
        ref_rng = np.random.default_rng(0)
        solution = problem.solve_forward([1.5], corr)
        v = HElement([np.where(space.interior,
                               ref_rng.standard_normal(problem.grid.shape),
                               0.0) for space in problem.spaces])
        v = v.scaled(1.0 / problem.h_norm(v))
        for _ in range(20):
            w = DF_adjoint(problem, [1.5], corr,
                           DF_apply(problem, [1.5], corr, v,
                                    solution=solution),
                           solution=solution)
            lam = problem.h_inner(v, w)
            v = w.scaled(1.0 / problem.h_norm(w))
        solves = []

        def counted(*args, **kwargs):
            out = fields.cg(*args, **kwargs)
            solves.append(out[2])
            return out

        monkeypatch.setattr(diffusion, "cg", counted)
        tau = inv.estimate_step_size(problem, [1.5], corr)
        assert tau == pytest.approx(0.9 / lam, rel=1e-9)
        # after the forward solve, each tangent and adjoint solve of the
        # power iteration takes one preconditioned CG iteration
        assert len(solves) == 41 and max(solves[1:]) == 1


class TestLandweber:
    def test_fixed_point_at_consistent_truth(self, flat_disk_phantom):
        g = Grid(65)
        masks = seg.masks_from_phantom(flat_disk_phantom, g)
        problem = ReconstructionProblem(g, masks, a0=1.0, lower=0.5,
                                        upper=2.0)
        sol = diffusion.solve_T(diffusion.RobinProblem(
            flat_disk_phantom.sample(g), BoundaryTrace.constant(g, 1.0),
            0.1))
        psi = helmholtz.ground_truth_psi(flat_disk_phantom, sol.phi)
        state = landweber_run(problem, psi, [1.5], max_iter=10,
                              stop_tol=5e-2)
        # piecewise constant truth: the initial residual is already the
        # discretization floor and no correction develops
        assert len(state.residuals) <= 3
        assert problem.h_norm(state.correction) <= 0.05

    def test_recovers_bump_profile(self, setup, disk_phantom):
        _, problem, sol, psi = setup
        truth = truth_correction(problem, disk_phantom, [1.5])
        state = landweber_run(problem, psi, [1.5], max_iter=120,
                              stop_tol=1e-4, truth=truth)
        d = np.array(state.distances)
        assert np.mean(np.diff(d) < 1e-12) >= 0.95
        rec = state.coefficient(problem)
        a_true = disk_phantom.sample(problem.grid)
        rel = np.sqrt(fields.inner(rec - a_true, rec - a_true)
                      / fields.inner(a_true, a_true))
        assert rel <= 0.10

    def test_stops_when_the_residual_stagnates(self, setup):
        _, problem, _, psi = setup
        # a zero step never moves the iterate, so the second residual
        # repeats the first
        state = landweber_run(problem, psi, [1.5], max_iter=10, stop_tol=0.0,
                              tau=0.0)
        assert state.stopped_reason == "stagnated"
        assert len(state.residuals) == 2
        assert state.residuals[1] == state.residuals[0]

    def test_log_csv(self, tmp_path, setup, disk_phantom):
        _, problem, _, psi = setup
        state = landweber_run(problem, psi, [1.5], max_iter=3, stop_tol=0.0)
        path = tmp_path / "log.csv"
        inv.save_log_csv(path, state)
        rows = np.genfromtxt(path, delimiter=",", names=True)
        assert rows["residual_Hstar"].size == len(state.residuals)
