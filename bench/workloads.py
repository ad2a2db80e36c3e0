"""The benchmark's workloads: seeded inputs, one timed repetition, checks.

Each workload draws its phantom with the run's seed; the program receives
only the generated inputs. The seed changes every number the program
computes, but not the amount of work, so timings from different seeds can
be compared.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
import warnings

import numpy as np

from aotomo import (
    acousto,
    cli,
    diffusion,
    fields,
    helmholtz,
    inversion,
    phantom,
    segmentation,
)

A0, LOWER, UPPER = 1.0, 0.5, 2.0
G_VALUE, L_VALUE = 1.0, 0.1

# The seed draws the amplitude of each inclusion's smooth bump; geometry and
# base level are fixed. A rim distance is quantised by the grid, so moving a
# rim by a fraction of a grid step would make ``hausdorff`` jump between
# seeds. The reconstruction holds each mask's rim at its lattice constant,
# so the base level sets most of ``l2_rel_error``. Each mean value (base
# plus a quarter of the amplitude) stays near one point of the exhaustion
# lattice (step 0.125), so every seed gets the same piecewise constant guess.
# one disk, as in the ``disk`` preset; mean about 1.625
ONE_DISK = dict(center=(0.5, 0.5), radius=0.2, base=1.55,
                amplitude=(0.29, 0.31))
# two disks, as in the ``two-disks`` preset; means about 1.5 and 0.625
TWO_DISKS = (
    dict(center=(0.35, 0.4), radius=0.12, base=1.45,
         amplitude=(0.19, 0.21)),
    dict(center=(0.68, 0.62), radius=0.1, base=0.6,
         amplitude=(0.09, 0.11)),
)


class CheckFailed(Exception):
    """An output of the program failed one of the benchmark's checks."""


class RepAborted(Exception):
    """An operation failed; the rest of the repetition is skipped."""


def check(ok, message):
    if not ok:
        raise CheckFailed(message)


def phantom_doc(seed, ranges):
    """Disk phantom with each bump amplitude drawn from its range."""
    rng = np.random.default_rng(seed)
    incs = []
    for r in ranges:
        incs.append(dict(
            shape="disk",
            params=dict(center=list(r["center"]), radius=r["radius"]),
            base=r["base"],
            amplitude=float(rng.uniform(*r["amplitude"])),
        ))
    return dict(a0=A0, lower=LOWER, upper=UPPER, D_margin=0.1,
                inclusions=incs)


def rim_distance(masks, truth):
    """Worst over true inclusions of the best mask's Hausdorff distance to
    the rim, as ``aotomo evaluate`` computes it."""
    return max(
        min(segmentation.boundary_hausdorff(m, inc.boundary_points(720))
            for m in masks)
        for inc in truth.inclusions
    )


def check_sinogram(sino, r0):
    check(np.all(np.isfinite(sino.values)), "sinogram is not finite")
    early = sino.radii() <= r0
    check(not np.any(sino.values[:, early]),
          "sinogram does not vanish for r <= r0")
    check(np.any(sino.values), "sinogram is zero everywhere")


def check_finite(name, obj):
    arrays = [obj.values] if hasattr(obj, "values") else [obj.vx, obj.vy]
    check(all(np.all(np.isfinite(a)) for a in arrays), f"{name} not finite")


class Ops:
    """Times the operations of the repetitions and counts failures.

    An operation is one timed stage call. It fails on an exception, a
    nonzero exit code or a failed output check; checks run after the call
    and outside its time.
    """

    def __init__(self, audit):
        self.audit = audit
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.warnings = []
        self.recorder = None
        self.rep_time = 0.0
        self.op_times = {}

    @property
    def error_rate(self):
        return self.failed / self.attempted if self.attempted else 0.0

    def run(self, name, call, verify=None):
        self.attempted += 1
        rec = self.recorder
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                t0 = time.perf_counter()
                if rec is None:
                    out = call()
                else:
                    with rec.span(name):
                        out = call()
                dt = time.perf_counter() - t0
                self.rep_time += dt
                self.op_times.setdefault(name, []).append(dt)
            messages = [str(w.message) for w in caught]
            self.warnings += [f"{name}: {m}" for m in messages]
            # the Radon inversion warns instead of raising when its CG
            # misses the tolerance; fields.cg raises, and the audit sees it
            check(not any("stopped at relative residual" in m
                          for m in messages), "CG missed its tolerance")
            check(self.audit.worst_ratio <= 1.0, "CG missed its tolerance")
            if verify is not None:
                with rec.paused() if rec else contextlib.nullcontext():
                    verify(out)
        except Exception as exc:
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            raise RepAborted(name) from exc
        return out


class Pipeline:
    """The CLI chain on the baseline config, in-process, in a work dir."""

    name = "pipeline"
    sizes = dict(n=65, eta=0.0625, ny=16, nr=32, max_iter=20, inclusions=1)

    def __init__(self, seed, workdir):
        self.phantom_path = os.path.join(workdir, "phantom.json")
        self.config_path = os.path.join(workdir, "config.json")
        with open(self.phantom_path, "w") as fh:
            json.dump(phantom_doc(seed, [ONE_DISK]), fh)
        s = self.sizes
        config = {
            "grid": {"n": s["n"]},
            "acoustic": {"eta": s["eta"], "ny": s["ny"], "nr": s["nr"]},
            "optics": {"l": L_VALUE, "g": G_VALUE},
            "phantom_file": self.phantom_path,
            "reconstruction": {"max_iter": s["max_iter"], "stop_tol": 1e-3,
                               "partition_step": 0.125},
            "seed": seed,
        }
        with open(self.config_path, "w") as fh:
            json.dump(config, fh)
        self.acoustic = acousto.AcousticConfig(eta=s["eta"])

    def _stage(self, ops, stage, argv, verify=None):
        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse rejected the argv
                    code = exc.code
            return code, buf.getvalue()

        def verify_all(result):
            code, text = result
            check(code == 0, f"exit code {code}")
            if verify is not None:
                verify(text)

        return ops.run("cli." + stage, call, verify_all)[1]

    def repetition(self, ops, rep_dir):
        cfg, ph = self.config_path, self.phantom_path
        d = lambda *p: os.path.join(rep_dir, *p)  # noqa: E731
        out = {}

        def check_preset(_):
            phantom.load_phantom(d("preset.json"))

        def check_forward(_):
            for f in ("a", "phi", "flux"):
                check_finite(f, fields.load_field(d("fwd", f + ".aorf")))

        def check_sino(_):
            sino = acousto.Sinogram.load_csv(d("sino", "sinogram.csv"),
                                             self.acoustic)
            check_sinogram(sino, self.acoustic.r0)
            out["sinogram_l2"] = float(np.linalg.norm(sino.values))

        def check_psi(_):
            psi = fields.load_field(d("psi.aorf"))
            check_finite("psi", psi)
            out["psi_l2"] = fields.norm_l2(psi)

        def check_masks(_):
            with open(d("seg", "masks.json")) as fh:
                count = len(json.load(fh)["masks"])
            check(count >= 1, "no inclusion mask found")
            out["masks"] = count

        def check_recon(text):
            rec = fields.load_field(d("rec", "recon.aorf"))
            check_finite("reconstruction", rec)
            out["recon_l2"] = fields.norm_l2(rec)
            reason = text.rsplit("iterations,", 1)[-1].strip()
            check("iterations," in text and reason, "no Landweber stop reason")
            out["landweber_stop"] = reason

        def check_metrics(_):
            with open(d("metrics.json")) as fh:
                m = json.load(fh)
            out["l2_rel_error"] = m["l2_rel_error"]
            out["hausdorff"] = m["hausdorff_boundary"]
            check(math.isfinite(m["l2_rel_error"]), "l2_rel_error not finite")
            check(math.isfinite(m["hausdorff_boundary"]),
                  "hausdorff not finite")

        self._stage(ops, "phantom-gen", ["phantom", "gen", "--config", cfg,
                    "--preset", "disk", "--out", d("preset.json")],
                    check_preset)
        self._stage(ops, "forward", ["forward", "--config", cfg, "--phantom",
                    ph, "--outdir", d("fwd")], check_forward)
        self._stage(ops, "sinogram", ["sinogram", "--config", cfg,
                    "--phantom", ph, "--kind", "M_eta", "--outdir", d("sino")],
                    check_sino)
        self._stage(ops, "recover-psi", ["recover-psi", "--config", cfg,
                    "--sinogram", d("sino", "sinogram.csv"), "--out",
                    d("psi.aorf")], check_psi)
        self._stage(ops, "segment", ["segment", "--config", cfg, "--psi",
                    d("psi.aorf"), "--outdir", d("seg")], check_masks)
        self._stage(ops, "reconstruct", ["reconstruct", "--config", cfg,
                    "--psi", d("psi.aorf"), "--masks", d("seg", "masks.json"),
                    "--flux", d("fwd", "flux.aorf"), "--truth", ph,
                    "--outdir", d("rec")], check_recon)
        self._stage(ops, "evaluate", ["evaluate", "--config", cfg,
                    "--phantom", ph, "--recon", d("rec", "recon.aorf"),
                    "--masks", d("seg", "masks.json"), "--log",
                    d("rec", "recon_log.csv"), "--out", d("metrics.json")],
                    check_metrics)
        return out

    def quality(self, last):
        return last["l2_rel_error"], last["hausdorff"]


class SweepFine:
    """One M_eta sweep on a grid twice as fine as the baseline."""

    name = "sweep-fine"
    sizes = dict(n=129, eta=1.0 / 32, ny=16, nr=32, inclusions=1)
    # sources whose rows are compared with the linearised sinogram
    REFERENCE_ROWS = (0, 4, 8, 12)

    def __init__(self, seed, workdir):
        self.truth = phantom.from_dict(phantom_doc(seed, [ONE_DISK]))
        self.grid = fields.Grid(self.sizes["n"])
        self.config = acousto.AcousticConfig(eta=self.sizes["eta"])

    def repetition(self, ops, rep_dir):
        def check_context(ctx):
            check_finite("a", ctx.a)
            check_finite("phi", ctx.solution.phi)

        ctx = ops.run("op.make_context", lambda: acousto.make_context(
            self.truth, self.grid, g=G_VALUE, l=L_VALUE), check_context)
        sino = ops.run("op.sample_sinogram", lambda: acousto.sample_sinogram(
            ctx, self.config, self.sizes["ny"], self.sizes["nr"],
            which="M_eta"), lambda s: check_sinogram(s, self.config.r0))
        self.last = (ctx, sino)
        return {"sinogram_l2": float(np.linalg.norm(sino.values))}

    def quality(self, last):
        """Distance of the sinogram from its linearisation, and of the
        sampled medium's inclusion support from the true rim.

        Computed once per run, untimed: the seed fixes both.
        """
        ctx, sino = self.last
        sources = self.config.sources(self.sizes["ny"])
        radii = self.config.radii(self.sizes["nr"])
        rows = list(self.REFERENCE_ROWS)
        lin = np.array([[acousto.measure_Mtilde(ctx, self.config, sources[m],
                                                r) for r in radii]
                        for m in rows])
        meas = sino.values[rows]
        l2 = float(np.linalg.norm(meas - lin) / np.linalg.norm(lin))
        support = segmentation.InclusionMask(
            self.grid, ctx.a.values != self.truth.a0, 1)
        return l2, rim_distance([support], self.truth)


class ReconstructExhaustive:
    """Exhaustion guess plus Landweber from ground-truth masks and ψ."""

    name = "reconstruct-exhaustive"
    sizes = dict(n=65, inclusions=2, partition_step=0.125, stop_tol=1e-3,
                 max_iter=200)

    def __init__(self, seed, workdir):
        self.truth = phantom.from_dict(phantom_doc(seed, TWO_DISKS))
        self.grid = fields.Grid(self.sizes["n"])
        self.masks = segmentation.masks_from_phantom(self.truth, self.grid)
        self.a_true = self.truth.sample(self.grid)
        sol = diffusion.solve_T(diffusion.RobinProblem(
            self.a_true, fields.BoundaryTrace.constant(self.grid, G_VALUE),
            L_VALUE))
        self.flux = sol.flux
        self.psi = helmholtz.ground_truth_psi(self.truth, sol.phi)

    def repetition(self, ops, rep_dir):
        problem = ops.run(
            "op.problem", lambda: inversion.ReconstructionProblem(
                self.grid, self.masks, a0=A0, lower=LOWER, upper=UPPER,
                g=G_VALUE, l=L_VALUE))
        guess = ops.run(
            "op.exhaustion", lambda: inversion.initial_guess_exhaustion(
                problem, self.flux,
                partition_step=self.sizes["partition_step"],
                mode="exhaustive"))

        def landweber():
            truth = inversion.truth_correction(problem, self.truth,
                                               guess.alphas)
            return inversion.landweber_run(
                problem, self.psi, guess.alphas,
                max_iter=self.sizes["max_iter"],
                stop_tol=self.sizes["stop_tol"], truth=truth)

        out = {}

        def check_state(state):
            check(bool(state.stopped_reason), "no Landweber stop reason")
            rec = state.coefficient(problem)
            check_finite("reconstruction", rec)
            diff = rec - self.a_true
            out["l2_rel_error"] = math.sqrt(
                fields.inner(diff, diff) / fields.inner(self.a_true,
                                                        self.a_true))
            out["recon_l2"] = fields.norm_l2(rec)
            out["landweber_stop"] = state.stopped_reason
            out["landweber_iterations"] = len(state.residuals)
            out["alphas"] = [float(a) for a in guess.alphas]

        ops.run("op.landweber", landweber, check_state)
        out["psi_l2"] = fields.norm_l2(self.psi.psi)
        return out

    def quality(self, last):
        return last["l2_rel_error"], rim_distance(self.masks, self.truth)


WORKLOADS = {w.name: w for w in (Pipeline, SweepFine, ReconstructExhaustive)}
